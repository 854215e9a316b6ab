"""Record reference.json: every workload's outputs at the default seed.

    python3 bench/record_reference.py

Run it only on code whose outputs are known good. The benchmark then fails
any operation whose output at the default seed differs bit for bit. A
change that alters curves on purpose records the reference again and says
why.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import workloads  # noqa: E402  (needs src/ on the path)


def main() -> int:
    workdir = BENCH.parent / ".bench_work"
    workdir.mkdir(exist_ok=True)
    recorded = {"seed": workloads.DEFAULT_SEED, "workloads": {}}
    for name, cls in workloads.WORKLOADS.items():
        workload = cls(workloads.DEFAULT_SEED, workdir)
        outputs = workload.unit()
        if set(outputs) != set(workload.keys()) or workload.validate(outputs):
            raise SystemExit(f"{name}: outputs fail the reference-free checks; not recording")
        entry = {"params": workload.params}
        if isinstance(workload, workloads.MeasureCsv):
            entry["input_sha256"] = workload.input_sha256
        entry["outputs"] = {key: workload.fingerprint(text) for key, text in outputs.items()}
        recorded["workloads"][name] = entry
        print(f"{name}: {len(outputs)} outputs")
    workloads.REFERENCE.write_text(json.dumps(recorded, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
