"""The benchmark's workloads: inputs made from a seed, one timed unit, checks.

Each workload builds its inputs in its constructor (that is set-up) and runs
one unit of work per `unit()` call (that is timed). A unit returns one output
text per operation key. Outputs are checked three ways:

* against `reference.json`, recorded from the seed code at
  DEFAULT_SEED, bit for bit: curve CSV lines per point (as sha256), measure
  reprs and m* lines;
* against the first unit of the same run, for every later unit;
* by `validate`, which needs no reference: value ranges and curve shapes, and
  for `measure-csv` an independent numpy recomputation of every measure.

msulab is driven only through its public entry points, always looked up as
module attributes (`harness.run_experiment`, `measures.msu`, ...) so that the
tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np

import msulab
from msulab import cli, dataset, generators, harness, ingest, measures, presets

SRC = Path(__file__).resolve().parent.parent / "src"
if Path(msulab.__file__).resolve().parent.parent != SRC:
    raise ImportError(f"msulab was imported from {msulab.__file__}, not from {SRC}")

DEFAULT_SEED = harness.DEFAULT_MASTER_SEED
REFERENCE = Path(__file__).resolve().with_name("reference.json")


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def curve_points(name: str, curve) -> dict[str, str]:
    """A curve's CSV lines grouped by sweep value, keyed "<name>:<value>"."""
    buffer = io.StringIO()
    curve.write_csv(buffer)
    points: dict[str, str] = {}
    for line in buffer.getvalue().splitlines(keepends=True)[1:]:
        key = f"{name}:{line.split(',', 1)[0]}"
        points[key] = points.get(key, "") + line
    return points


class Workload:
    name = ""
    why = ""
    # True when the outputs do not depend on the seed, so the reference
    # applies to every seed.
    seed_independent = False
    # Weights of the (interpreter, memory) speed kernels (speed.py) that
    # track this workload's slowdowns on a shared host.
    speed_weights: tuple[float, float] = (1.0, 0.0)

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir

    @property
    def params(self) -> dict:
        """Parameters the recorded reference depends on, besides the seed."""
        return {}

    def keys(self) -> dict[str, int]:
        """Operation key -> number of operations it stands for."""
        raise NotImplementedError

    def unit(self) -> dict[str, str]:
        raise NotImplementedError

    def fingerprint(self, text: str) -> str:
        return text

    def validate(self, outputs: dict[str, str]) -> set[str]:
        """Keys whose outputs fail the checks that need no reference."""
        return set()

    def input_problems(self, reference: dict) -> list[str]:
        return []

    def close(self) -> None:
        """Remove the files set-up wrote."""


class MonteCarlo(Workload):
    """Bias curves from cataloged presets at a fixed replicate count."""

    runs: tuple[tuple[str, int], ...] = ()

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.configs = [
            replace(presets.preset(name), replicates=reps, master_seed=seed)
            for name, reps in self.runs
        ]

    @property
    def params(self) -> dict:
        return {"replicates": dict(self.runs)}

    def keys(self) -> dict[str, int]:
        return {
            f"{config.name}:{value}": config.replicates
            for config in self.configs
            for value in config.sweep.values
        }

    def unit(self) -> dict[str, str]:
        outputs: dict[str, str] = {}
        for config in self.configs:
            outputs.update(curve_points(config.name, harness.run_experiment(config)))
        return outputs

    def fingerprint(self, text: str) -> str:
        return sha256(text)

    def validate(self, outputs: dict[str, str]) -> set[str]:
        bad = set()
        reps = self.keys()
        for key, n in reps.items():
            value = key.rsplit(":", 1)[1]
            lines = outputs.get(key, "").splitlines()
            if not lines or not all(_curve_line_ok(line, value, n) for line in lines):
                bad.add(key)
        return bad


def _curve_line_ok(line: str, sweep_value: str, replicates: int) -> bool:
    fields = line.split(",")
    if len(fields) != 6 or fields[0] != sweep_value:
        return False
    mean, std = float(fields[2]), float(fields[3])
    return (
        0.0 <= mean <= 1.0
        and math.isfinite(std)
        and std >= 0.0
        and int(fields[4]) == replicates
        and int(fields[5]) >= 1
    )


class SmallM(MonteCarlo):
    name = "mc-small-m"
    why = "fig-b2 sample-size sweep m=8..150: per-call overhead, nested datasets, stream setup"
    runs = (("fig-b2", 5),)


class LargeM(MonteCarlo):
    name = "mc-large-m"
    why = "full fig-xor-2 and fig-h sweeps up to 655,360 rows: generation, assembly, keying bytes"
    runs = (("fig-xor-2", 1), ("fig-h", 1))
    speed_weights = (0.0, 1.0)


MEASURE_ROWS = 100_000
CLASS = dataset.CLASS_COLUMN
_MEASURE_REPR = re.compile(r"MeasureValue\(value=(.+), degenerate=(True|False)\)")


def measure_blocks() -> list:
    kind = generators.GeneratorKind
    return [
        dataset.AttributeBlock(("x1", "x2"), kind.XOR_PAIR, 2),
        dataset.block("w", kind.KONONENKO, 4, 40),
        dataset.block("b", kind.KONONENKO, 6, 2),
        dataset.block("t", kind.UNIFORM, 6, 3),
    ]


def measure_input(seed: int) -> tuple[object, str]:
    """The measure-csv sample and its CSV text, both from the seed alone."""
    sample = dataset.generate_dataset(
        MEASURE_ROWS, 2, measure_blocks(), generators.SeededRng(seed, 0)
    )
    return sample, ingest.sample_to_csv(sample)


class MeasureCsv(Workload):
    """Read a 100k x 19 CSV, then SU and MSU over many overlapping subsets."""

    name = "measure-csv"
    why = "read_csv then 173 SU/MSU calls on one 100k-row sample, incl. sparse-count joint spaces"
    speed_weights = (0.5, 0.5)  # pure-Python parsing, then numpy over 100k-row columns

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        sample, text = measure_input(seed)
        self.codes = {n: sample.codes[:, i] for i, n in enumerate(sample.column_names)}
        self.input_sha256 = sha256(text)
        self.path = workdir / f"measure-csv-{seed}.csv"
        self.path.write_text(text, encoding="utf-8")
        attrs = [n for n in sample.column_names if n != CLASS]
        wide = [n for n in attrs if n.startswith("w")]
        ops = [("su", (a, CLASS)) for a in attrs]
        ops += [("msu", (a, b, CLASS)) for i, a in enumerate(attrs) for b in attrs[i + 1:]]
        ops += [("msu", (*wide, CLASS)), ("msu", tuple(sample.column_names))]
        self.ops = [(f"{kind}({','.join(cols)})", kind, cols) for kind, cols in ops]

    @property
    def params(self) -> dict:
        return {"rows": MEASURE_ROWS}

    def keys(self) -> dict[str, int]:
        return {key: 1 for key, _, _ in self.ops}

    def unit(self) -> dict[str, str]:
        data = ingest.read_csv(self.path)
        smp = data.sample
        outputs = {}
        for key, kind, cols in self.ops:
            idx = [smp.column_index(c) for c in cols]
            if kind == "su":
                value = measures.symmetrical_uncertainty(smp, idx[0], idx[1])
            else:
                value = measures.msu(smp, idx)
            outputs[key] = repr(value)
        return outputs

    def validate(self, outputs: dict[str, str]) -> set[str]:
        oracle = MsuOracle(self.codes)
        bad = set()
        for key, _, cols in self.ops:
            match = _MEASURE_REPR.fullmatch(outputs.get(key, ""))
            if match is None:
                bad.add(key)
                continue
            expected, degenerate = oracle.msu(cols)
            value = float(match.group(1))
            if abs(value - expected) > 1e-12 or (match.group(2) == "True") != degenerate:
                bad.add(key)
        return bad

    def close(self) -> None:
        self.path.unlink(missing_ok=True)

    def input_problems(self, reference: dict) -> list[str]:
        want = reference.get("input_sha256")
        if want is not None and want != self.input_sha256:
            return [f"measure-csv input sha256 {self.input_sha256} != reference {want}"]
        return []


class MsuOracle:
    """Plug-in MSU recomputed from generator codes, independently of msulab.

    Category codes need not match the CSV's first-appearance codes: plug-in
    measures depend only on the multiset of cell counts.
    """

    def __init__(self, codes: dict[str, np.ndarray]) -> None:
        self.codes = codes
        self._marginals: dict[str, float] = {}

    @staticmethod
    def _entropy(columns: list[np.ndarray]) -> float:
        keys = np.zeros(len(columns[0]), dtype=np.int64)
        for column in columns:
            keys = keys * (int(column.max()) + 1) + column
        _, counts = np.unique(keys, return_counts=True)
        p = counts / counts.sum()
        return -math.fsum((p * np.log2(p)).tolist())

    def msu(self, cols: tuple[str, ...]) -> tuple[float, bool]:
        for c in cols:
            if c not in self._marginals:
                self._marginals[c] = self._entropy([self.codes[c]])
        h_sum = math.fsum(self._marginals[c] for c in cols)
        if h_sum == 0.0:
            return 0.0, True
        h_joint = self._entropy([self.codes[c] for c in cols])
        n = len(cols)
        return (n / (n - 1)) * (h_sum - h_joint) / h_sum, False


CHI2_CELLS = "8,16,32,64,128,256"


class ChiSquared(Workload):
    """Chi-squared m* through the CLI scan and the chi-scan preset."""

    name = "chi2-mstar"
    why = "chi2-scan CLI for k=8..256 plus the chi-scan preset: samplesize and cli do the work"
    seed_independent = True

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.argv = ["chi2-scan", "--cells", CHI2_CELLS]
        self.config = replace(presets.preset("chi-scan"), master_seed=seed)

    def keys(self) -> dict[str, int]:
        keys = {f"chi2-scan:{k}": 1 for k in CHI2_CELLS.split(",")}
        keys.update({f"chi-scan:{v}": 1 for v in self.config.sweep.values})
        return keys

    def unit(self) -> dict[str, str]:
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            status = cli.main(self.argv)
        if status != 0:
            raise RuntimeError(f"msulab {' '.join(self.argv)} exited {status}")
        outputs = {
            f"chi2-scan:{line.split(',', 1)[0]}": line
            for line in buffer.getvalue().splitlines()[1:]
        }
        outputs.update(curve_points(self.config.name, harness.run_experiment(self.config)))
        return outputs


WORKLOADS = {w.name: w for w in (SmallM, LargeM, MeasureCsv, ChiSquared)}


def load_reference(workload: Workload) -> dict | None:
    """The recorded reference for this workload, or None if none applies.

    Raises when the reference was recorded with other parameters: it is
    stale and must be recorded again from the seed code.
    """
    recorded = json.loads(REFERENCE.read_text(encoding="utf-8"))
    entry = recorded["workloads"].get(workload.name)
    if entry is None:
        return None
    if not workload.seed_independent and workload.seed != recorded["seed"]:
        return None
    if entry["params"] != json.loads(json.dumps(workload.params)):
        raise ValueError(
            f"{REFERENCE.name} holds {workload.name} for {entry['params']}, "
            f"the workload runs {workload.params}"
        )
    return entry
