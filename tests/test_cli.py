"""End-to-end tests for the command-line interface."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from msulab import msu, read_csv
from msulab.cli import main

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
        assert "no such file" in err

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

    def test_seed_environment_override(self, tmp_path, capsys, monkeypatch):
        env_out = tmp_path / "env.csv"
        flag_out = tmp_path / "flag.csv"
        default_out = tmp_path / "default.csv"
        monkeypatch.setenv("MSULAB_SEED", "424242")
        run(capsys, "generate", "--rule", "uniform", "--cards", "4", "--m", "50",
            "--out", str(env_out))
        run(capsys, "generate", "--rule", "uniform", "--cards", "4", "--m", "50",
            "--seed", "424242", "--out", str(flag_out))
        monkeypatch.delenv("MSULAB_SEED")
        run(capsys, "generate", "--rule", "uniform", "--cards", "4", "--m", "50",
            "--out", str(default_out))
        assert env_out.read_bytes() == flag_out.read_bytes()
        assert env_out.read_bytes() != default_out.read_bytes()

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
            "sweep": {"kind": "sample_size", "start": 20, "stop": 24},
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
            "sweep": {"kind": "cardinality", "values": [2, 3]},
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
            "sweep": {"kind": "sample_size", "values": [0, 12]},
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
            "sweep": {"kind": "sample_size", "values": [12]},
            "groups": [group("xor", "xor_pair", 2), group("mk", "kononenko", 2)],
            "tracked": [{"label": "set", "groups": ["xor", "mk"]}],
            field: value,
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code, out, err = run(capsys, "experiment", "--config", str(path))
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and "Traceback" not in err

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
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run(
            [sys.executable, "-m", "msulab", "recommend", "--cards", ",".join(["2"] * 10)],
            capture_output=True, text=True, timeout=10, env=env,
        )
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

    def test_cells_from_cards(self, capsys):
        code, out, _ = run(capsys, "chi2-scan", "--cards", "2,2", "--class-card", "2")
        assert code == 0
        assert out.splitlines()[1].startswith("8,7,")

    def test_nan_factor_exits_1(self, capsys):
        code, out, err = run(capsys, "chi2-scan", "--cells", "8", "--factor", "nan")
        assert code == 1
        assert out == ""
        assert "factor must be finite" in err and "Traceback" not in err

    def test_requires_one_source(self, capsys):
        with pytest.raises(SystemExit):
            main(["chi2-scan"])
