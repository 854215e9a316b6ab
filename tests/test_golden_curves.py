"""Golden curves: the sha256 of every catalog preset's curve CSV.

Each preset runs at the default master seed; `fig-h`, `fig-xor-2` and
`fig-xor-4` at one replicate (their points reach 10^5 rows and more), every
other preset at three. The hashes were recorded from the engine that built a
separate dataset for every sweep point and counted every histogram on its own,
so they pin the nested, count-once engine to the very same floats.
"""

import dataclasses
import hashlib
import io

import pytest

from msulab import CATALOG, harness, preset, run_experiment

# preset -> (sha256 of the curve CSV, replicates)
GOLDEN = {
    "fig-a1": ("ce473eb17363166e6beae235c3534b93550a3abc56a2d4c9a0bd53532a781a86", 3),
    "fig-a2": ("079ea4bd63501dfb52212c09006fbe5e7f11aa24fdbd21233bf53056af39cefb", 3),
    "fig-e1": ("13f05094d252590e69b0e72bc57ab58d458722c3d9fac881d69cf19fd6125444", 3),
    "fig-e2": ("91ed3045170c2ea1fa1002a53eef9e085f2d4774fbd17a81bf8ec3d63b6ec8db", 3),
    "fig-b1": ("f83664c07f6af522c096c73a538573f47775e70939c1f4c8201f193e538b46c5", 3),
    "fig-b2": ("7e6f2704befe38c33339200756be21e0fef3e4134018cac900c1688ab57d3f7d", 3),
    "fig-c": ("61915376296c5edf282e60f14d1ef9da8980f4cbb5d2f51acea8449d59ee6960", 3),
    "fig-d": ("a2e965eb1de9287dafa1ffe225d9c8b736c9f52f84d68d2c1cc48fa2df5e9542", 3),
    "fig-f1": ("1c48508f7564ff15d835ee782fc00a5acd09a5d0231336909141f2a2401fe76a", 3),
    "fig-f2": ("bbcf913477ef3fc470203f6597e6468dd14209296c8c26a9bf48daec9e5ff43c", 3),
    "fig-g": ("c396b030ad11ac34ef8211c8dd41e05ba26e3d03a28be740def768334aad196c", 3),
    "fig-h": ("6c703b18786858b17df7295483dc7df2d51b37708685a71d238abe2141b5c3ee", 1),
    "fig-xor-1": ("980433f81c1e4c3557c5ffbdaa97c57f194eeef7d0ef8e07ae11528116f89879", 3),
    "fig-xor-2": ("3cdbcae69c1ba620a586de223605423e771c50023861dda0bb9956332f079470", 1),
    "fig-xor-3": ("39b8b9507670d37d78dbe2406a5e4292b9d10f5b369eaa154ecf6d5c5cdcab22", 3),
    "fig-xor-4": ("3c9b7fc5b6dda9fccf4da6c6453c3d6fdfc35b44bd797e8d178c1923aee02c20", 1),
    "chi-scan": ("04cbf28b3b4eba5b1d80a7a58829d1e8329d45b523f46259e5f48acf79d3d2df", 3),
}


def test_every_preset_is_pinned():
    assert set(GOLDEN) == set(CATALOG)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_curve_csv_hash(name):
    digest, replicates = GOLDEN[name]
    curve = run_experiment(dataclasses.replace(preset(name), replicates=replicates))
    buffer = io.StringIO()
    curve.write_csv(buffer)
    assert hashlib.sha256(buffer.getvalue().encode("utf-8")).hexdigest() == digest


def test_a_scan_works_out_no_monte_carlo_sample_size(monkeypatch):
    # a representativeness scan reads each point's layout alone
    def refuse(*args):
        raise AssertionError("the scan worked out a Monte Carlo m")

    monkeypatch.setattr(harness, "heuristic_sample_size", refuse)
    test_curve_csv_hash("chi-scan")
