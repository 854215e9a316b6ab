"""Where each msulab layer is traced, and what it counts.

Every span wraps a public function at the places it is looked up: the module
global or class attribute that the caller resolves at call time. Counts
marked "computed" are derived from the shapes of arrays passing the
boundary, not measured, and repeat exactly for identical inputs.
"""

from __future__ import annotations

import weakref
from typing import Any

from tracer import Tracer

MEASURE_FUNCTIONS = (
    "entropy",
    "joint_entropy",
    "conditional_entropy",
    "information_gain",
    "total_correlation",
    "msu",
    "symmetrical_uncertainty",
)


def _arg(args: tuple, kwargs: dict, position: int, name: str) -> Any:
    return args[position] if len(args) > position else kwargs[name]


def _count_draws(tracer: Tracer, result: Any, args: tuple, kwargs: dict) -> None:
    arrays = result if isinstance(result, tuple) else (result,)
    tracer.counts["generators.draw.values"] += sum(a.size for a in arrays)


def _count_assembled(tracer: Tracer, result: Any, args: tuple, kwargs: dict) -> None:
    tracer.counts["sample.assemble.bytes_computed"] += result.codes.nbytes


def _count_degenerate(tracer: Tracer, result: Any, args: tuple, kwargs: dict) -> None:
    tracer.counts["measures.degenerate"] += bool(result.degenerate)


def _count_cells(tracer: Tracer, result: Any, args: tuple, kwargs: dict) -> None:
    tracer.counts["ingest.cells"] += result.sample.codes.size


class HistogramKeys:
    """Counts rows keyed and distinct (sample, column subset) histograms.

    Samples are told apart by a serial number held next to a weak reference,
    so a recycled `id` of a freed sample never aliases a live one and no
    sample is kept alive by the count.
    """

    def __init__(self) -> None:
        self._serials: dict[int, tuple[weakref.ref, int]] = {}
        self._seen: set[tuple[int, tuple[int, ...]]] = set()
        self._next = 0

    def reset(self) -> None:
        self._serials.clear()
        self._seen.clear()

    @property
    def distinct(self) -> int:
        return len(self._seen)

    def __call__(self, tracer: Tracer, result: Any, args: tuple, kwargs: dict) -> None:
        smp = _arg(args, kwargs, 0, "sample")
        cols = _arg(args, kwargs, 1, "cols")
        entry = self._serials.get(id(smp))
        if entry is None or entry[0]() is not smp:
            self._next += 1
            entry = (weakref.ref(smp), self._next)
            self._serials[id(smp)] = entry
        self._seen.add((entry[1], tuple(sorted(int(c) for c in cols))))
        tracer.counts["sample.joint_counts.rows_keyed"] += smp.codes.shape[0]


def _boundaries(histograms: HistogramKeys | None) -> list[tuple[str, list, Any]]:
    """(span name, call sites as (module, attribute path), counter) per boundary."""
    measure_sites = [("msulab.harness", "msu"), ("msulab.harness", "symmetrical_uncertainty")]
    measure_sites += [("msulab.measures", name) for name in MEASURE_FUNCTIONS]
    draw_sites = [
        ("msulab.dataset", name)
        for name in ("gen_class", "gen_uniform", "gen_kononenko", "gen_xor_pair")
    ]
    return [
        ("cli.main", [("msulab.cli", "main")], None),
        (
            "harness.run_experiment",
            [("msulab.harness", "run_experiment"), ("msulab.cli", "run_experiment")],
            None,
        ),
        ("harness.resolve_point", [("msulab.harness", "resolve_point")], None),
        (
            "dataset.generate_dataset",
            [("msulab.harness", "generate_dataset"), ("msulab.cli", "generate_dataset")],
            None,
        ),
        ("generators.stream", [("msulab.generators", "SeededRng.stream")], None),
        ("generators.draw", draw_sites, _count_draws),
        ("sample.assemble", [("msulab.sample", "CategoricalSample.from_columns")], _count_assembled),
        ("measures", measure_sites, _count_degenerate),
        ("sample.joint_counts", [("msulab.measures", "joint_counts")], histograms),
        (
            "sample.normalize_columns",
            [("msulab.measures", "normalize_columns"), ("msulab.sample", "normalize_columns")],
            None,
        ),
        (
            "samplesize.min_representative_m",
            [
                ("msulab.harness", "min_representative_m"),
                ("msulab.cli", "min_representative_m"),
                ("msulab.samplesize", "min_representative_m"),
            ],
            None,
        ),
        ("samplesize.extreme_sample_chi2", [("msulab.samplesize", "extreme_sample_chi2")], None),
        (
            "samplesize.chi2_critical",
            [("msulab.samplesize", "chi2_critical"), ("msulab.cli", "chi2_critical")],
            None,
        ),
        ("ingest.read_csv", [("msulab.ingest", "read_csv"), ("msulab.cli", "read_csv")], _count_cells),
    ]


SPANS = tuple(name for name, _, _ in _boundaries(None))

# counter name -> span whose wrapper computes it
COUNTERS = {
    "generators.draw.values": "generators.draw",
    "sample.assemble.bytes_computed": "sample.assemble",
    "sample.joint_counts.rows_keyed": "sample.joint_counts",
    "measures.degenerate": "measures",
    "ingest.cells": "ingest.read_csv",
}


def install(tracer: Tracer) -> HistogramKeys:
    """Wrap every traced boundary; `tracer.restore()` undoes it."""
    histograms = HistogramKeys()
    for name, sites, counter in _boundaries(histograms):
        tracer.patch(name, sites, counter)
    return histograms
