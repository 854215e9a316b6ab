"""End-to-end tests for the command-line interface."""

import hashlib
import json
import os
import re
import resource
import stat
import subprocess
import sys
from pathlib import Path

import pytest

import msulab.samplesize as samplesize
from msulab import InvalidInputError, msu, read_csv
from msulab import cli
from msulab.cli import main
from msulab.dataset import MAX_DATASET_CELLS
from msulab.harness import DEFAULT_MASTER_SEED

TABLE_B_CSV = "f1,f2,clase\n" + "\n".join(
    f"{a},{b},{c}"
    for a, b, c in zip("abbbaaaa", "sstt" "sstt", "pqpq" "pqpq")
) + "\n"


def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def group(name, family, count, cardinality=2):
    return {"name": name, "family": family, "count": count, "cardinality": cardinality}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


SRC = str(Path(__file__).resolve().parents[1] / "src")


def python(*args, timeout, preexec_fn=None):
    """Run a fresh interpreter with msulab on its path."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, timeout=timeout,
        env={**os.environ, "PYTHONPATH": path}, preexec_fn=preexec_fn,
    )


def _cap_address_space():
    # 1 GiB: a size check that came too late fails its allocation at once
    # instead of drawing into real memory
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


class TestMeasure:
    def test_msu_of_relabeled_table(self, tmp_path, capsys):
        path = tmp_path / "table.csv"
        path.write_text(TABLE_B_CSV)
        code, out, err = run(capsys, "measure", str(path), "--msu", "f1,f2,clase")
        assert code == 0
        assert out.splitlines()[0] == "msu(f1,f2,clase) = 0.103793"
        assert "below the recommended 80 rows" in out

    def test_entropy_of_constant_column(self, tmp_path, capsys):
        path = tmp_path / "const.csv"
        path.write_text("x\n" + "same\n" * 5)
        code, out, err = run(capsys, "measure", str(path), "--entropy", "x")
        assert code == 0
        assert out.splitlines()[0] == "entropy(x) = 0.000000"

    def test_su_arity_enforced(self, tmp_path, capsys):
        path = tmp_path / "table.csv"
        path.write_text(TABLE_B_CSV)
        with pytest.raises(SystemExit) as exc:
            main(["measure", str(path), "--su", "f1,f2,clase"])
        assert exc.value.code == 2

    def test_missing_file(self, capsys):
        code, out, err = run(capsys, "measure", "/no/such/file.csv", "--msu", "a,b")
        assert code == 1
        assert out == ""
        assert err == "error: cannot read /no/such/file.csv: No such file or directory\n"

    def test_directory(self, tmp_path, capsys):
        code, out, err = run(capsys, "measure", str(tmp_path), "--msu", "a,b")
        assert (code, out) == (1, "")
        assert err == f"error: cannot read {tmp_path}: Is a directory\n"

    def test_unknown_column(self, tmp_path, capsys):
        path = tmp_path / "table.csv"
        path.write_text(TABLE_B_CSV)
        code, out, err = run(capsys, "measure", str(path), "--msu", "f1,nope")
        assert code == 1
        assert "nope" in err

    def test_su_and_ig_on_pair(self, tmp_path, capsys):
        path = tmp_path / "table.csv"
        path.write_text(TABLE_B_CSV)
        code, out, _ = run(capsys, "measure", str(path), "--su", "f1,clase")
        assert code == 0 and out.startswith("su(f1,clase) = 0.049933")
        code, out, _ = run(capsys, "measure", str(path), "--ig", "f1,clase")
        assert code == 0 and out.startswith("ig(f1,clase) = 0.048795")

    def test_degenerate_noted(self, tmp_path, capsys):
        path = tmp_path / "consts.csv"
        path.write_text("x,y\n" + "a,b\n" * 4)
        code, out, _ = run(capsys, "measure", str(path), "--su", "x,y")
        assert code == 0
        assert "su(x,y) = 0.000000" in out
        assert "degenerate" in out


class TestGenerate:
    def test_byte_identical_reruns(self, tmp_path, capsys):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for target in (out1, out2):
            code, _, _ = run(capsys, "generate", "--rule", "xor", "--m", "80",
                             "--seed", "7", "--out", str(target))
            assert code == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_mk_shape(self, tmp_path, capsys):
        path = tmp_path / "mk.csv"
        code, _, _ = run(capsys, "generate", "--rule", "mk", "--cards", "2,2",
                         "--class-card", "2", "--m", "80", "--seed", "1",
                         "--out", str(path))
        assert code == 0
        lines = path.read_text().splitlines()
        assert lines[0] == "f1,f2,clase"
        assert len(lines) == 81
        assert all(len(line.split(",")) == 3 for line in lines[1:])

    def test_xor_roundtrip_matches_in_process(self, tmp_path, capsys):
        path = tmp_path / "xor.csv"
        run(capsys, "generate", "--rule", "xor", "--m", "200", "--seed", "3",
            "--out", str(path))
        data = read_csv(path)
        value = msu(data.sample, [0, 1, 2]).value
        code, out, _ = run(capsys, "measure", str(path), "--msu", "f1,f2,clase")
        assert code == 0
        assert out.splitlines()[0] == f"msu(f1,f2,clase) = {value:.6f}"

    def test_seed_flag_wins_over_the_default(self, capsys):
        argv = ("generate", "--rule", "uniform", "--cards", "4", "--m", "50")
        _, default_out, _ = run(capsys, *argv)
        _, same_out, _ = run(capsys, *argv, "--seed", str(DEFAULT_MASTER_SEED))
        _, other_out, _ = run(capsys, *argv, "--seed", "424242")
        assert default_out == same_out != other_out

    def test_xor_refuses_cards(self, capsys):
        with pytest.raises(SystemExit):
            main(["generate", "--rule", "xor", "--cards", "3,3", "--m", "10"])

    @pytest.mark.parametrize("k", ["nan", "inf"])
    def test_non_finite_k_exits_1_without_dataset(self, tmp_path, capsys, k):
        out = tmp_path / "data.csv"
        code, stdout, err = run(
            capsys, "generate", "--rule", "mk", "--cards", "3", "--m", "5", "--k", k, "--out", str(out)
        )
        assert code == 1
        assert stdout == "" and not out.exists()
        assert "informativeness k" in err and "Traceback" not in err

    def test_uniform_requires_cards(self, capsys):
        with pytest.raises(SystemExit):
            main(["generate", "--rule", "uniform", "--m", "10"])


class TestExperiment:
    def test_unknown_preset_lists_catalog(self, capsys):
        code, out, err = run(capsys, "experiment", "fig-zz")
        assert code == 1
        assert out == ""
        assert "fig-f1" in err and "chi-scan" in err

    def test_preset_and_config_mutually_exclusive(self, capsys):
        with pytest.raises(SystemExit):
            main(["experiment", "fig-f1", "--config", "x.json"])
        with pytest.raises(SystemExit):
            main(["experiment"])

    def test_config_file_run_and_rerun_identical(self, tmp_path, capsys):
        cfg = {
            "name": "tiny",
            "sweep": {"start": 20, "stop": 24},
            "groups": [group("xor", "xor_pair", 2)],
            "tracked": [{"label": "set", "groups": ["xor"]}],
            "replicates": 3,
            "master_seed": 5,
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code, out1, _ = run(capsys, "experiment", "--config", str(path))
        assert code == 0
        header = out1.splitlines()[0]
        assert header == "sweep_value,measure_name,mean,stddev,n_replicates,sample_size_used"
        code, out2, _ = run(capsys, "experiment", "--config", str(path))
        assert out1 == out2
        # the curve this experiment gave in its rule-based form
        assert sha256(out1) == "6f3d399980f3f8b6075020719cf1310722f6b9f72d77eceef099990d00cbf430"

    def test_non_object_config_exits_1(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text("[1, 2]")
        code, out, err = run(capsys, "experiment", "--config", str(path))
        assert code == 1
        assert out == ""
        assert "JSON object" in err

    def test_missing_config_exits_1(self, tmp_path, capsys):
        path = tmp_path / "absent.json"
        code, out, err = run(capsys, "experiment", "--config", str(path))
        assert (code, out) == (1, "")
        assert err == f"error: cannot read {path}: No such file or directory\n"

    def test_config_not_utf8_exits_1(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_bytes(b"\xff\xfe{}")
        code, out, err = run(capsys, "experiment", "--config", str(path))
        assert (code, out) == (1, "")
        assert err == f"error: {path}: not UTF-8 text\n"

    def test_computed_sample_sizes_recorded(self, tmp_path, capsys):
        out_path = tmp_path / "curve.csv"
        code, _, _ = run(capsys, "experiment", "fig-xor-2", "--replicates", "2",
                         "--out", str(out_path))
        assert code == 0
        rows = [line.split(",") for line in out_path.read_text().splitlines()[1:]]
        sizes = {int(r[0]): int(r[5]) for r in rows}
        # evaluated set: xor pair + j uniform attributes + class, all binary
        assert sizes[1] == 160
        assert sizes[2] == 320
        assert sizes[13] == 10 * 2 ** 16

    def test_replicate_count_recorded(self, tmp_path, capsys):
        cfg = {
            "name": "tiny",
            "sweep": {"values": [2, 3]},
            "groups": [group("u", "uniform", 2, "sweep")],
            "tracked": [{"label": "set", "groups": ["u"]}],
            "sample_size_policy": {"fixed": 40},
            "replicates": 6,
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code, out, _ = run(capsys, "experiment", "--config", str(path))
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert {r[4] for r in rows} == {"6"}
        assert {r[5] for r in rows} == {"40"}
        assert sha256(out) == "e741100f2397f2c77885e5d5f0b6f7128e44b18b0bbde5aac9381898a782d75d"

    def test_skipped_points_warn_on_stderr(self, tmp_path, capsys):
        cfg = {
            "name": "tiny",
            "sweep": {"values": [0, 12]},
            "groups": [group("mk", "kononenko", 2)],
            "tracked": [{"label": "informative", "groups": ["mk"]}],
            "replicates": 2,
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code, out, err = run(capsys, "experiment", "--config", str(path))
        assert code == 0
        assert "skipped" in err
        assert all(not line.startswith("0,") for line in out.splitlines()[1:])
        assert sha256(out) == "dcfe0747efd691e49f942134213f2050dbeedf9d84d063dfc82b175a6a102814"

    @pytest.mark.parametrize(
        "field, value",
        [("master_seed", -3), ("xor_noise", 0.7), ("kononenko_k", -1), ("class_card", 3)],
    )
    def test_config_wide_invalid_value_exits_1(self, tmp_path, capsys, field, value):
        cfg = {
            "name": "tiny",
            "sweep": {"values": [12]},
            "groups": [group("xor", "xor_pair", 2), group("mk", "kononenko", 2)],
            "tracked": [{"label": "set", "groups": ["xor", "mk"]}],
            field: value,
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code, out, err = run(capsys, "experiment", "--config", str(path))
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize(
        "groups",
        [
            [group("x", "xor_pair", 2), group("y", "xor_pair", 2)],
            [group("a", "uniform", 11), group("a1", "uniform", 1)],
        ],
        ids=["two-xor-pairs", "colliding-column-names"],
    )
    def test_layout_failing_at_every_point_exits_1(self, tmp_path, capsys, groups):
        cfg = {
            "name": "tiny",
            "sweep": {"values": [12, 20]},
            "groups": groups,
            "tracked": [{"label": "set", "groups": [g["name"] for g in groups]}],
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code, out, err = run(capsys, "experiment", "--config", str(path))
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and "Traceback" not in err

    def test_seed_flag_wins_over_the_preset_and_config_seed(self, tmp_path, capsys):
        argv = ("experiment", "fig-b1", "--replicates", "2")
        _, preset_out, _ = run(capsys, *argv)
        _, same_out, _ = run(capsys, *argv, "--seed", str(DEFAULT_MASTER_SEED))
        _, other_out, _ = run(capsys, *argv, "--seed", "7")
        assert preset_out == same_out != other_out
        argv = _config_file(tmp_path, sweep={"values": [20]}, replicates=3, master_seed=5)
        _, config_out, _ = run(capsys, *argv)
        _, same_out, _ = run(capsys, *argv, "--seed", "5")
        _, other_out, _ = run(capsys, *argv, "--seed", "9")
        assert config_out == same_out != other_out

    def test_sweep_kind_is_an_unknown_field(self, tmp_path, capsys):
        # a sweep is its values; m follows one only where there is no policy
        argv = _config_file(tmp_path, sweep={"kind": "sample_size", "values": [12]})
        assert run(capsys, *argv) == (1, "", "error: unknown sweep field(s): kind\n")

    def test_negative_seed_exits_1(self, capsys):
        code, out, err = run(capsys, "experiment", "fig-b2", "--seed", "-1")
        assert (code, out) == (1, "")
        assert err == "error: master_seed and stream_id must be non-negative\n"


class TestRecommend:
    def test_binary_pair(self, capsys):
        code, out, _ = run(capsys, "recommend", "--cards", "2,2", "--class-card", "2")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "multivariate cardinality: 8"
        assert lines[1] == "heuristic sample size (factor 10): 80"
        assert "critical=14.067140" in lines[2]
        m_star = int(lines[2].rsplit(":", 1)[1])
        assert 97 <= m_star <= 103
        # an unsorted list with repeats gives the lines of its cards one by one
        code, out, _ = run(capsys, "recommend", "--cards", "3,2,40,2,3", "--class-card", "3")
        assert (code, out.splitlines()) == (0, [
            "multivariate cardinality: 4320",
            "heuristic sample size (factor 10): 43200",
            "chi-squared minimal m* (alpha=0.05, df=4319, critical=4473.002636): 19318893",
        ])

    def test_identity_factor(self, capsys):
        code, out, _ = run(capsys, "recommend", "--cards", "2,2", "--class-card", "2",
                           "--factor", "1")
        assert "heuristic sample size (factor 1): 8" in out

    def test_constant_cardinality_warns(self, capsys):
        code, out, err = run(capsys, "recommend", "--cards", "1,4", "--class-card", "2")
        assert code == 0
        assert "degenerate" in err

    def test_infinite_factor_exits_1(self, capsys):
        code, out, err = run(capsys, "recommend", "--cards", "2", "--factor", "inf")
        assert code == 1
        assert "factor must be finite" in err and "Traceback" not in err

    def test_bad_cards_rejected(self, capsys):
        code, _, err = run(capsys, "recommend", "--cards", "2,x")
        assert code == 1
        assert "error" in err

    def test_module_entry_point_answers_large_joint_space(self):
        done = python("-m", "msulab", "recommend", "--cards", ",".join(["2"] * 10), timeout=10)
        assert done.returncode == 0, done.stderr
        lines = done.stdout.splitlines()
        assert lines[0] == "multivariate cardinality: 2048"
        assert lines[2].startswith("chi-squared minimal m* (alpha=0.05, df=2047, ")
        assert int(lines[2].rsplit(":", 1)[1]) > 2048


class TestChi2Scan:
    def test_reference_cells(self, capsys):
        code, out, _ = run(capsys, "chi2-scan", "--cells", "8,12,15,18")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "cells,df,critical_value,m_star,heuristic_m"
        table = {int(r.split(",")[0]): r.split(",") for r in lines[1:]}
        assert int(table[8][3]) == 99
        assert int(table[12][3]) == 215
        assert int(table[15][3]) == 330
        assert int(table[18][3]) == 467
        assert [int(table[k][4]) for k in (8, 12, 15, 18)] == [80, 120, 150, 180]

    def test_cards_are_for_recommend(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["chi2-scan", "--cards", "2,2"])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    def test_one_critical_value_per_cell_count(self, capsys, monkeypatch):
        calls = []
        real = samplesize.chi2_critical
        monkeypatch.setattr(samplesize, "chi2_critical", lambda *a: calls.append(a) or real(*a))
        code, _, _ = run(capsys, "chi2-scan", "--cells", "8,16")
        assert code == 0
        assert calls == [(0.05, 7), (0.05, 15)]

    def test_nan_factor_exits_1(self, capsys):
        code, out, err = run(capsys, "chi2-scan", "--cells", "8", "--factor", "nan")
        assert code == 1
        assert out == ""
        assert "factor must be finite" in err and "Traceback" not in err

    def test_requires_one_source(self, capsys):
        with pytest.raises(SystemExit):
            main(["chi2-scan"])


# each command that writes its output to --out
OUT_COMMANDS = {
    "generate": ("generate", "--rule", "uniform", "--cards", "2", "--m", "5"),
    "experiment": ("experiment", "fig-b1", "--replicates", "1"),
    "chi2-scan": ("chi2-scan", "--cells", "8"),
}


class TestOut:
    """--out is written whole or not at all, with the mode `open` would give."""

    @pytest.mark.parametrize("command", OUT_COMMANDS)
    @pytest.mark.parametrize("where, reason", [
        ("missing/out.csv", "No such file or directory"),
        ("out", "Is a directory"),
    ])
    def test_unwritable_out_is_one_error_line(self, tmp_path, capsys, command, where, reason):
        (tmp_path / "out").mkdir()
        target = tmp_path / where
        code, out, err = run(capsys, *OUT_COMMANDS[command], "--out", str(target))
        assert (code, out) == (1, "")
        assert err == f"error: cannot write {target}: {reason}\n"
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["out"]  # no temp file is left

    def test_out_at_a_directory_exits_1_without_a_traceback(self, tmp_path):
        done = python("-m", "msulab", "chi2-scan", "--cells", "8", "--out", str(tmp_path), timeout=60)
        assert (done.returncode, done.stdout) == (1, "")
        assert done.stderr == f"error: cannot write {tmp_path}: Is a directory\n"

    @pytest.mark.parametrize("command", OUT_COMMANDS)
    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
    def test_new_file_gets_the_mode_open_gives(self, tmp_path, capsys, command, umask):
        target, plain = tmp_path / "out.csv", tmp_path / "plain.csv"
        old = os.umask(umask)
        try:
            code, _, _ = run(capsys, *OUT_COMMANDS[command], "--out", str(target))
            plain.write_text("")
        finally:
            os.umask(old)
        assert code == 0
        assert stat.S_IMODE(target.stat().st_mode) == stat.S_IMODE(plain.stat().st_mode)
        assert stat.S_IMODE(target.stat().st_mode) == 0o666 & ~umask

    @pytest.mark.parametrize("command", OUT_COMMANDS)
    def test_overwritten_file_keeps_its_mode(self, tmp_path, capsys, command):
        target = tmp_path / "out.csv"
        target.write_text("old\n")
        target.chmod(0o604)
        code, out, _ = run(capsys, *OUT_COMMANDS[command])
        assert code == 0
        assert run(capsys, *OUT_COMMANDS[command], "--out", str(target))[0] == 0
        assert target.read_text() == out
        assert stat.S_IMODE(target.stat().st_mode) == 0o604


class TestOneParser:
    """`main` builds its parser once a process, and no call changes it."""

    def test_calls_in_one_process_match_each_call_alone(self, tmp_path, capsys):
        path = tmp_path / "table.csv"
        path.write_text(TABLE_B_CSV)
        calls = [
            ["chi2-scan", "--cells", "8,16"],
            ["measure", str(path), "--msu", "f1,nope"],  # an input error
            ["measure", str(path), "--su", "f1,f2,clase"],  # a usage error
            ["chi2-scan", "--cells", "8,16"],
        ]

        def outcome(argv):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            return (code, *capsys.readouterr())

        alone = []
        for argv in calls:
            cli._build_parser.cache_clear()
            alone.append(outcome(argv))
        cli._build_parser.cache_clear()
        assert [outcome(argv) for argv in calls] == alone
        assert cli._build_parser.cache_info().misses == 1
        assert [code for code, _, _ in alone] == [0, 1, 2, 0]
        assert alone[0][1] == alone[3][1] and alone[0][1].count("\n") == 3


class TestReadCsv:
    def test_non_utf8_byte_names_the_file(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"a,b\nx,caf\xe9\n")
        with pytest.raises(InvalidInputError, match=re.escape(f"{path}: not UTF-8 text")):
            read_csv(path)

    def test_oversized_field_names_file_and_line(self, tmp_path):
        path = tmp_path / "wide.csv"
        path.write_text("a,b\nx,y\nx," + "z" * 140_000 + "\n")
        with pytest.raises(InvalidInputError, match=re.escape(f"{path}:3: field larger than field limit")):
            read_csv(path)


def _config_file(tmp_path, **changes):
    cfg = {
        "name": "tiny",
        "sweep": {"values": [12]},
        "groups": [group("mk", "kononenko", 2)],
        "tracked": [{"label": "set", "groups": ["mk"]}],
        **changes,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return ["experiment", "--config", str(path)]


def _config_text(tmp_path, text):
    path = tmp_path / "cfg.json"
    path.write_text(text)
    return ["experiment", "--config", str(path)]


def _csv_file(tmp_path, content):
    path = tmp_path / "data.csv"
    path.write_bytes(content)
    return ["measure", str(path), "--su", "a,b"]


# malformed input -> argv that feeds it to the CLI
MALFORMED = {
    "config-name-number": lambda tmp: _config_file(tmp, name=5),
    "group-name-null": lambda tmp: _config_file(
        tmp, groups=[group(None, "kononenko", 2)], tracked=[{"label": "set", "groups": ["None"]}]
    ),
    "tracked-label-number": lambda tmp: _config_file(tmp, tracked=[{"label": 7, "groups": ["mk"]}]),
    "tracked-group-number": lambda tmp: _config_file(tmp, tracked=[{"label": "s", "groups": [1]}]),
    # a subset is measured wherever its groups have columns; only a count rule has a window
    "tracked-window": lambda tmp: _config_file(
        tmp, tracked=[{"label": "set", "groups": ["mk"], "window": [2, 9]}]
    ),
    # two subsets reported as one msu_s series would hide the first one's values
    "tracked-label-duplicate": lambda tmp: _config_file(
        tmp, groups=[group("mk", "kononenko", 2), group("u", "uniform", 1)],
        tracked=[{"label": "s", "groups": ["mk"]}, {"label": "s", "groups": ["u"]}],
    ),
    "count-fixed-and-binary-equivalent": lambda tmp: _config_file(
        tmp, groups=[group("mk", "kononenko", {"fixed": 2, "binary_equivalent": True})]
    ),
    # layouts that would fail at every point are rejected when the config is built
    "count-negative": lambda tmp: _config_file(tmp, groups=[group("mk", "kononenko", -1)]),
    "group-cardinality-1": lambda tmp: _config_file(tmp, groups=[group("mk", "kononenko", 2, 1)]),
    "xor-pair-of-three": lambda tmp: _config_file(tmp, groups=[group("mk", "xor_pair", 3)]),
    # valid JSON that json.loads cannot load: past the int-string and the recursion limit
    "config-sweep-value-5000-digits": lambda tmp: _config_text(
        tmp, '{"name": "x", "sweep": {"values": [' + "1" * 5000 + "]}}"
    ),
    "config-nested-100000-deep": lambda tmp: _config_text(tmp, "[" * 100_000 + "]" * 100_000),
    # a joint space of 8,402 digits, which Python will not format
    "recommend-cards-4201-digits": lambda tmp: ["recommend", "--cards", ",".join(["9" * 4201] * 2)],
    "csv-not-utf8": lambda tmp: _csv_file(tmp, b"a,b\nx,caf\xe9\n"),
    "csv-field-too-large": lambda tmp: _csv_file(tmp, b"a,b\nx," + b"z" * 140_000 + b"\n"),
    "csv-ragged-row": lambda tmp: _csv_file(tmp, b"a,b\nx,y\nx\nx,y\n"),
    "csv-ragged-row-past-first-chunk": lambda tmp: _csv_file(tmp, b"a,b\n" + b"x,y\n" * 5000 + b"x\n"),
    "csv-header-only": lambda tmp: _csv_file(tmp, b"a,b\n"),
    "factor-nan": lambda tmp: ["recommend", "--cards", "2,2", "--factor", "nan"],
    "k-nan": lambda tmp: ["generate", "--rule", "mk", "--cards", "3", "--m", "5", "--k", "nan"],
    "seed-negative": lambda tmp: ["generate", "--rule", "uniform", "--cards", "2", "--m", "5",
                                  "--seed", "-1"],
}


# sizes whose dataset passes the cell cap -> (argv, skipped sweep point or None
# for `generate`, rows, columns with the class); each run is capped at 1 GiB of
# address space, so none of them can allocate its dataset
INFEASIBLE_SIZE = {
    "computed-at-cardinality-2**20": (
        lambda tmp: _card_sweep_file(tmp, 1_048_576, {"computed": 10}),
        1_048_576, 21_990_232_555_520, 3),
    "fixed-3e9": (
        lambda tmp: _card_sweep_file(tmp, 2, {"fixed": 3_000_000_000}), 2, 3_000_000_000, 3),
    "generate-m-3e9": (
        lambda tmp: ["generate", "--rule", "uniform", "--cards", "2", "--m", "3000000000"],
        None, 3_000_000_000, 2),
}


class TestMalformedInput:
    @pytest.mark.parametrize("case", MALFORMED)
    def test_exits_1_with_an_error_line(self, tmp_path, capsys, case):
        code, out, err = run(capsys, *MALFORMED[case](tmp_path))
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("case", INFEASIBLE_SIZE)
    def test_size_past_the_cell_cap_is_an_input_error(self, tmp_path, case):
        argv, point, rows, columns = INFEASIBLE_SIZE[case]
        done = python("-m", "msulab", *argv(tmp_path), timeout=30, preexec_fn=_cap_address_space)
        assert (done.returncode, done.stdout) == (1, ""), done.stderr
        reason = (f"{rows} rows x {columns} columns (class included) make {rows * columns} cells; "
                  f"a generated dataset holds at most {MAX_DATASET_CELLS}")
        if point is None:
            assert done.stderr == f"error: {reason}\n"
        else:
            assert done.stderr.splitlines() == [
                f"warning: point {point} skipped: {reason}",
                "error: every sweep point was skipped; nothing was measured",
            ]

    def test_out_of_memory_is_one_error_line(self, capsys, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 22.4 GiB for an array")

        monkeypatch.setattr(cli, "generate_dataset", exhausted)
        code, out, err = run(capsys, "generate", "--rule", "uniform", "--cards", "2", "--m", "5")
        assert (code, out) == (1, "")
        assert err == "error: out of memory: Unable to allocate 22.4 GiB for an array\n"

    def test_binary_equivalent_point_below_one_is_skipped(self, tmp_path, capsys):
        argv = _config_file(
            tmp_path,
            sweep={"values": [0, 4]},
            groups=[group("b", "uniform", {"binary_equivalent": True})],
            tracked=[{"label": "set", "groups": ["b"]}],
            sample_size_policy={"computed": 10},
            replicates=2,
        )
        code, out, err = run(capsys, *argv)
        assert code == 0
        assert err == "warning: point 0 skipped: sweep value 0 has no binary-equivalent attribute count\n"
        assert [line.split(",")[:2] for line in out.splitlines()[1:]] == [["4", "msu_set"]]

    def test_every_point_skipped_exits_1(self, tmp_path, capsys):
        # with one measured point the run exits 0 (the test above)
        out_path = tmp_path / "curve.csv"
        argv = _config_file(
            tmp_path,
            sweep={"values": [0, -2]},
            groups=[group("b", "uniform", {"binary_equivalent": True})],
            tracked=[{"label": "set", "groups": ["b"]}],
            sample_size_policy={"computed": 10},
            replicates=2,
        )
        code, out, err = run(capsys, *argv, "--out", str(out_path))
        assert (code, out) == (1, "")
        lines = err.splitlines()
        assert [line.split(":")[0] for line in lines] == ["warning", "warning", "error"]
        assert lines[1].startswith("warning: point -2 skipped: ")
        assert lines[2] == "error: every sweep point was skipped; nothing was measured"
        assert not out_path.exists()


# Runs in a fresh interpreter: this one has imported scipy for its own tests.
COLD_START = """
import sys
import msulab
from msulab.cli import main

def loaded(package):
    return sorted(m for m in sys.modules if m == package or m.startswith(package + "."))

assert not loaded("scipy"), ("import msulab", loaded("scipy"))
assert main(["measure", sys.argv[1], "--msu", "f1,f2,clase"]) == 0
assert not loaded("scipy"), ("measure", loaded("scipy"))
assert main(["experiment", "fig-b1", "--replicates", "2"]) == 0
assert not loaded("scipy"), ("experiment fig-b1", loaded("scipy"))
critical = msulab.chi2_critical(0.05, 7)
assert loaded("scipy.optimize") and loaded("scipy.special"), "chi2_critical"
print(repr(critical))
"""


def test_only_chi2_critical_loads_scipy(tmp_path):
    csv_path = tmp_path / "b.csv"
    csv_path.write_text(TABLE_B_CSV)
    done = python("-c", COLD_START, str(csv_path), timeout=30)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == repr(samplesize.chi2_critical(0.05, 7))


def _card_sweep_file(tmp_path, value, policy):
    return _config_file(
        tmp_path,
        sweep={"values": [value]},
        groups=[group("u", "uniform", 2, "sweep")],
        tracked=[{"label": "set", "groups": ["u"]}],
        sample_size_policy=policy,
    )


# declared cardinalities and sizes at and past the int64 range -> (argv, exit code);
# a huge class cardinality must not hang, one past int64 must be an input error
LARGE_CARDINALITY = {
    "mk-class-card-1e11": (
        lambda tmp: ["generate", "--rule", "mk", "--m", "3", "--cards", "2",
                     "--class-card", "99999999999"], 0),
    "config-mk-class-card-1e11": (
        lambda tmp: _config_file(tmp, class_card=10**11, replicates=2), 0),
    "uniform-class-card-1e20": (
        lambda tmp: ["generate", "--rule", "uniform", "--m", "3", "--cards", "2",
                     "--class-card", "99999999999999999999"], 1),
    "mk-cards-1e20": (
        lambda tmp: ["generate", "--rule", "mk", "--m", "3", "--cards", "99999999999999999999"], 1),
    "uniform-m-1e20": (
        lambda tmp: ["generate", "--rule", "uniform", "--m", "99999999999999999999",
                     "--cards", "2"], 1),
    "config-class-card-2**64": (lambda tmp: _config_file(tmp, class_card=2**64), 1),
    "config-cardinality-sweep-2**64": (
        lambda tmp: _card_sweep_file(tmp, 2**64, {"fixed": 12}), 1),
    "config-computed-size-2**64": (
        lambda tmp: _card_sweep_file(tmp, 2**64, {"computed": 10}), 1),
    "config-sample-size-sweep-2**64": (
        lambda tmp: _config_file(tmp, sweep={"values": [2**64]}), 1),
    # a fractional factor times a joint space past the float range
    "chi2-scan-cells-1e310-factor-0.5": (
        lambda tmp: ["chi2-scan", "--cells", str(10**310), "--factor", "0.5"], 1),
    "recommend-cards-1e310-factor-0.5": (
        lambda tmp: ["recommend", "--cards", str(10**310), "--factor", "0.5"], 1),
    "config-computed-2.5-cardinality-sweep-1e310": (
        lambda tmp: _card_sweep_file(tmp, 10**310, {"computed": 2.5}), 1),
}


@pytest.mark.parametrize("case", LARGE_CARDINALITY)
def test_large_cardinality_answers_promptly(tmp_path, case):
    argv, expected = LARGE_CARDINALITY[case]
    done = python("-m", "msulab", *argv(tmp_path), timeout=10)
    assert done.returncode == expected, done.stderr
    assert "Traceback" not in done.stderr
    if expected == 0:
        assert done.stderr == "" and done.stdout
    else:
        assert done.stdout == ""
        # skipped sweep points warn first; one error line ends the run
        *warnings, error = done.stderr.splitlines()
        assert error.startswith("error: ")
        assert all(line.startswith("warning: ") for line in warnings)
