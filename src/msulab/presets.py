"""Catalog of ready-made experiment configurations.

Each preset reproduces one study from the bias analysis this package
implements: cardinality sweeps at fixed and computed sample sizes, sample-size
sweeps for individually and collectively informative attribute sets, attribute
count sweeps, noise-addition sweeps, and the goodness-of-fit scan that
compares the chi-squared minimal sample size against the 10x rule.

Every preset is written in the JSON config form (README, "JSON experiment
configs") and built by `config_from_json`, so a config file can run anything
the catalog runs. Group names, order and zero-count groups are part of a
preset: a group's position is the seed-stream slot of its columns (see
`msulab.dataset`), so moving or dropping one would change the curves.
"""

from __future__ import annotations

from .errors import InvalidInputError
from .generators import xor_population_msu
from .harness import ExperimentConfig, config_from_json

# The univariate cardinalities exercised by the cardinality sweeps.
CARD_SWEEP_2_40 = (2, 4, 5, 8, 10, 16, 20, 30, 32, 40)
CARD_SWEEP_4_64 = (4, 8, 16, 32, 64)


def _group(name: str, family: str, count, cardinality: int | str = 2) -> dict:
    return {"name": name, "family": family, "count": count, "cardinality": cardinality}


def _tracked(label: str, *groups: str, with_su: bool = False, window=None) -> dict:
    return {"label": label, "groups": list(groups), "with_su": with_su, "window": window}


def _span(kind: str, start: int, stop: int) -> dict:
    return {"kind": kind, "start": start, "stop": stop}


def _cards(values: tuple[int, ...]) -> dict:
    return {"kind": "cardinality", "values": values}


def _fig_a(name: str, class_card: int) -> dict:
    return {
        "name": name,
        "sweep": _cards(CARD_SWEEP_2_40),
        "groups": [_group("mk", "kononenko", 1, "sweep"), _group("u", "uniform", 1, "sweep")],
        "tracked": [_tracked("set", "mk", "u", with_su=True)],
        "class_card": class_card,
        "sample_size_policy": {"fixed": 1000},
    }


def _mk_pairs(name: str, sweep: dict, cardinality: int | str, policy=None) -> dict:
    # two individually informative attributes and two non-informative ones
    return {
        "name": name,
        "sweep": sweep,
        "groups": [
            _group("mk", "kononenko", 2, cardinality),
            _group("u", "uniform", 2, cardinality),
        ],
        "tracked": [_tracked("informative", "mk"), _tracked("noninformative", "u")],
        "sample_size_policy": policy,
    }


def _fig_b(name: str, m_hi: int) -> dict:
    return {
        "name": name,
        "sweep": _span("sample_size", 8, m_hi),
        "groups": [_group("xor", "xor_pair", 2), _group("u", "uniform", 0)],
        "tracked": [_tracked("set", "xor", with_su=True)],
        "theta_ref": xor_population_msu(0.05),
    }


def _paired_cardinality(name: str, family: str, theta_ref: float | None) -> dict:
    # Two layouts of equal joint-space size per point: a pair of attributes of
    # the swept cardinality V versus 2*log2(V) binary attributes.
    return {
        "name": name,
        "sweep": _cards(CARD_SWEEP_4_64),
        "groups": [
            _group("bin", family, {"binary_equivalent": True}),
            _group("wide", family, 2, "sweep"),
        ],
        "tracked": [_tracked("binary", "bin"), _tracked("wide", "wide")],
        "sample_size_policy": {"fixed": 5000},
        "theta_ref": theta_ref,
    }


def _fig_g(name: str, policy: dict, hi_mk: int, hi_shared: int) -> dict:
    # Three subsets per point s: s individually informative attributes,
    # s non-informative ones, and an XOR pair padded with s - 2 uniform
    # attributes as the collectively informative set.
    mk_window, shared = [2, hi_mk], [2, hi_shared]
    return {
        "name": name,
        "sweep": _span("attribute_count", 2, hi_mk),
        "groups": [
            _group("mk", "kononenko", {"window": mk_window}),
            _group("u", "uniform", {"window": shared}),
            _group("xor", "xor_pair", {"fixed": 2, "window": shared}),
            _group("upad", "uniform", {"offset": -2, "window": shared}),
        ],
        "tracked": [
            _tracked("informative", "mk", window=mk_window),
            _tracked("noninformative", "u", window=shared),
            _tracked("collective", "xor", "upad", window=shared),
        ],
        "sample_size_policy": policy,
    }


def _fig_xor_noise(name: str, policy: dict) -> dict:
    return {
        "name": name,
        "sweep": _span("noise_attribute_count", 1, 13),
        "groups": [_group("xor", "xor_pair", 2), _group("u", "uniform", {"window": [1, 13]})],
        "tracked": [_tracked("set", "xor", "u")],
        "sample_size_policy": policy,
    }


def _fig_xor_mk(name: str, policy: dict) -> dict:
    # the informative count includes the XOR pair itself
    return {
        "name": name,
        "sweep": _span("attribute_count", 3, 15),
        "groups": [
            _group("xor", "xor_pair", 2),
            _group("mk", "kononenko", {"offset": -2, "window": [3, 15]}),
            _group("u", "uniform", 0),
        ],
        "tracked": [_tracked("set", "xor", "mk", "u")],
        "sample_size_policy": policy,
    }


_PRESETS = {
    "fig-a1": _fig_a("fig-a1", class_card=10),
    "fig-a2": _fig_a("fig-a2", class_card=2),
    "fig-e1": _mk_pairs("fig-e1", _span("sample_size", 8, 50), 2),
    "fig-e2": _mk_pairs("fig-e2", _span("sample_size", 8, 150), 2),
    "fig-b1": _fig_b("fig-b1", 50),
    "fig-b2": _fig_b("fig-b2", 150),
    "fig-c": _paired_cardinality("fig-c", "kononenko", None),
    "fig-d": _paired_cardinality("fig-d", "uniform", 0.0),
    "fig-f1": _mk_pairs("fig-f1", _cards(CARD_SWEEP_2_40), "sweep", {"fixed": 5000}),
    "fig-f2": _mk_pairs("fig-f2", _cards(CARD_SWEEP_2_40), "sweep", {"computed": 10}),
    # fig-g runs up to 20 informative attributes at a fixed 1000 rows; its
    # computed-size twin stops at 13, where the 10x rule already asks for
    # 163840 rows per replicate.
    "fig-g": _fig_g("fig-g", {"fixed": 1000}, hi_mk=20, hi_shared=13),
    "fig-h": _fig_g("fig-h", {"computed": 10}, hi_mk=13, hi_shared=13),
    "fig-xor-1": _fig_xor_noise("fig-xor-1", {"fixed": 600}),
    "fig-xor-2": _fig_xor_noise("fig-xor-2", {"computed": 10}),
    "fig-xor-3": _fig_xor_mk("fig-xor-3", {"fixed": 600}),
    "fig-xor-4": _fig_xor_mk("fig-xor-4", {"computed": 10}),
    "chi-scan": {
        "name": "chi-scan",
        "sweep": {"kind": "attribute_count", "values": [2, 3, 4]},
        "groups": [_group("u", "uniform", {"window": [2, 4]})],
        "tracked": [_tracked("set", "u")],
        "sample_size_policy": {"computed": 10},
        "replicates": 1,
        "representativeness_scan": True,
    },
}

CATALOG = tuple(_PRESETS)


def preset(name: str) -> ExperimentConfig:
    """Configuration for a named catalog entry."""
    try:
        mapping = _PRESETS[name]
    except KeyError:
        known = ", ".join(CATALOG)
        raise InvalidInputError(f"unknown preset {name!r}; catalog: {known}") from None
    return config_from_json(mapping)
