import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from haarforge import fileio, linalg, samplers
from haarforge.cli import EXIT_INTERNAL, main
from haarforge.randstream import RandomStream
from haarforge.samplers import SAMPLERS, qr_batch, sample_batch, so_euler_batch

SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")


def run_cli(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-m", "haarforge", *args],
                          capture_output=True, text=True, env=env)
    return proc.returncode, proc.stdout, proc.stderr


class TestFileFormats:
    def test_json_roundtrip_bit_exact(self):
        mats = qr_batch(RandomStream(500), 3, 4, "complex")
        text = fileio.matrices_to_json("u", 3, "qr", 500, mats)
        payload, back = fileio.json_to_matrices(text)
        assert payload["group"] == "u" and payload["n"] == 3
        assert np.array_equal(back, mats)

    def test_csv_roundtrip_bit_exact_complex(self):
        mats = qr_batch(RandomStream(501), 3, 3, "complex")
        text = fileio.matrices_to_csv("u", 3, "qr", 501, mats, "complex")
        meta, back = fileio.csv_to_matrices(text)
        assert meta["kind"] == "complex" and int(meta["count"]) == 3
        assert np.array_equal(back, mats)

    def test_csv_roundtrip_bit_exact_real(self):
        mats = so_euler_batch(RandomStream(502), 4, 2)
        text = fileio.matrices_to_csv("so", 4, "euler", 502, mats, "real")
        _, back = fileio.csv_to_matrices(text)
        assert np.array_equal(back.real, mats)
        assert np.all(back.imag == 0.0)

    def test_csv_roundtrip_permutations(self, tmp_path):
        out = tmp_path / "perms.csv"
        assert main(["sample", "--group", "sn", "--n", "7", "--count", "5",
                     "--seed", "9", "--streams", "2", "--format", "csv",
                     "--out", str(out)]) == 0
        meta, words = fileio.csv_to_matrices(out.read_text())
        assert meta["kind"] == "permutation" and int(meta["count"]) == 5
        assert words == sample_batch("sn", 7, 5, seed=9, streams=2)
        assert all(type(x) is int for w in words for x in w)

    def test_csv_header_required(self):
        with pytest.raises(ValueError):
            fileio.csv_to_matrices("1.0,2.0\n")


class TestSampleCommand:
    def test_sample_orthogonal_and_deterministic(self, tmp_path):
        args = ["sample", "--group", "so", "--n", "4", "--count", "2",
                "--method", "euler", "--seed", "7"]
        code1, out1, _ = run_cli(*args)
        code2, out2, _ = run_cli(*args)
        assert code1 == 0 and out1 == out2
        payload, mats = fileio.json_to_matrices(out1)
        assert payload["seed"] == 7 and len(mats) == 2
        for m in mats:
            assert np.abs(m.conj().T @ m - np.eye(4)).max() <= 1e-13
            assert np.all(m.imag == 0.0)

    def test_sample_csv_file_output(self, tmp_path):
        out = tmp_path / "mats.csv"
        code, _, _ = run_cli("sample", "--group", "u", "--n", "3", "--count", "2",
                             "--seed", "3", "--format", "csv", "--out", str(out))
        assert code == 0
        meta, mats = fileio.csv_to_matrices(out.read_text())
        assert meta["group"] == "u" and len(mats) == 2
        for m in mats:
            assert np.abs(m.conj().T @ m - np.eye(3)).max() <= 1e-13

    def test_sample_permutations_one_line(self):
        code, out, _ = run_cli("sample", "--group", "sn", "--n", "5",
                               "--count", "3", "--seed", "1")
        assert code == 0
        payload = json.loads(out)
        assert "matrices" not in payload
        assert all(sorted(p) == [1, 2, 3, 4, 5] for p in payload["permutations"])

    def test_invalid_combination_exits_2(self):
        code, _, err = run_cli("sample", "--group", "so", "--n", "4",
                               "--method", "qr")
        assert code == 2 and "not valid" in err

    def test_accepts_exactly_the_table_pairs(self, capsys):
        tags = dict.fromkeys(tag for tag, _ in SAMPLERS)
        methods = dict.fromkeys(method for _, method in SAMPLERS)
        for tag in tags:
            for method in methods:
                code = main(["sample", "--group", tag, "--method", method,
                             "--n", "2", "--count", "2", "--seed", "5"])
                out, err = capsys.readouterr()
                if (tag, method) in SAMPLERS:
                    assert code == 0 and json.loads(out)["seed"] == 5
                else:
                    assert code == 2 and "not valid" in err

    def test_io_failure_exits_3(self):
        code, _, _ = run_cli("sample", "--group", "so", "--n", "3",
                             "--out", "/nonexistent-dir/x.json")
        assert code == 3

    def test_usage_error_exits_2(self):
        code, _, _ = run_cli("sample", "--group", "nope", "--n", "3")
        assert code == 2

    def test_plain_value_error_exits_internal(self, monkeypatch, capsys):
        # only UsageError means bad input; any other ValueError is a bug
        def fail(*args, **kwargs):
            raise ValueError("injected")

        monkeypatch.setattr(samplers, "sample_batch", fail)
        assert main(["sample", "--group", "so", "--n", "3"]) == EXIT_INTERNAL == 4
        assert "internal error: injected" in capsys.readouterr().err


class TestMomentsCommand:
    def test_p_zero_is_exact(self):
        code, out, _ = run_cli("moments", "--group", "so", "--n", "4",
                               "--p", "0", "--count", "200", "--seed", "2")
        assert code == 0
        rep = json.loads(out)
        assert rep["exact"] == 1.0 and rep["estimate"] == 1.0
        assert rep["std_error"] == 0.0 and rep["pass"]

    def test_n5_p1_matches_one_fifth(self):
        code, out, _ = run_cli("moments", "--group", "so", "--n", "5",
                               "--p", "1", "--count", "40000", "--seed", "3")
        rep = json.loads(out)
        assert code == 0 and rep["exact"] == pytest.approx(0.2, rel=1e-12)
        assert rep["pass"] and abs(rep["z_score"]) <= 5.0

    def test_joint_outside_derivation_flag(self):
        code, out, _ = run_cli("moments", "--group", "so", "--n", "3",
                               "--p", "1", "--q", "1", "--count", "40000",
                               "--seed", "4")
        rep = json.loads(out)
        assert code == 0 and rep["outside_derivation_range"]
        assert rep["exact"] == pytest.approx(2.0 / 15.0, rel=1e-12)
        assert rep["pass"]

    def test_wrong_group_exits_2(self):
        code, _, _ = run_cli("moments", "--group", "u", "--n", "3", "--p", "1")
        assert code == 2

    def test_single_sample_exits_2(self, capsys):
        code = main(["moments", "--group", "so", "--n", "3", "--p", "1",
                     "--count", "1"])
        out, err = capsys.readouterr()
        assert code == 2 and out == "" and "--count >= 2" in err


class TestVolumesCommand:
    def test_so3_with_quadrature(self):
        code, out, _ = run_cli("volumes", "--group", "so", "--n", "3")
        rep = json.loads(out)
        assert code == 0
        assert rep["closed_form"] == pytest.approx(2.0 ** 4.5 * np.pi ** 2)
        assert rep["checked"] and rep["quadrature_rel_error"] <= 1e-6

    def test_u_large_reports_quotients(self):
        code, out, _ = run_cli("volumes", "--group", "u", "--n", "7")
        rep = json.loads(out)
        assert code == 0 and rep["checked"] is None
        assert "u/o" in rep["quotients"]

    def test_sp_rejected(self):
        code, _, _ = run_cli("volumes", "--group", "sp", "--n", "2")
        assert code == 2


class TestSpectraCommand:
    def test_phase_dump_count_and_range(self):
        code, out, _ = run_cli("spectra", "--n", "6", "--method", "cmv",
                               "--count", "40", "--seed", "5")
        rep = json.loads(out)
        assert code == 0 and len(rep["phases"]) == 240
        ph = np.asarray(rep["phases"])
        assert ph.min() >= 0.0 and ph.max() < 2.0 * np.pi

    def test_full_alias(self):
        code, out, _ = run_cli("spectra", "--n", "3", "--method", "full",
                               "--count", "5", "--seed", "6")
        assert code == 0 and json.loads(out)["method"] == "euler"

    @pytest.mark.parametrize("error", [linalg.NotUnitaryError, linalg.ConvergenceError])
    def test_numerical_failure_exits_internal(self, monkeypatch, capsys, error):
        def fail(stack):
            raise error("injected")

        monkeypatch.setattr(linalg, "eigenphases_batch", fail)
        assert main(["spectra", "--n", "4", "--count", "2"]) == EXIT_INTERNAL == 4
        assert "internal error: injected" in capsys.readouterr().err

    def test_one_batch_per_lane(self, monkeypatch, capsys):
        calls = []
        batch = linalg.eigenphases_batch

        def spy(stack):
            calls.append(len(stack))
            return batch(stack)

        monkeypatch.setattr(linalg, "eigenphases_batch", spy)
        assert main(["spectra", "--n", "5", "--count", "7", "--streams", "3"]) == 0
        assert calls == [3, 2, 2]
        assert len(json.loads(capsys.readouterr().out)["phases"]) == 35


class TestVerifyPlumbing:
    def test_criterion_functions_are_deterministic(self):
        # cheap stand-in for running the whole battery twice
        from haarforge.verify import criterion_3, criterion_7
        a = criterion_3(seed=1)
        b = criterion_3(seed=1)
        assert [c["detail"] for c in a.checks] == [c["detail"] for c in b.checks]
        a = criterion_7(seed=1)
        b = criterion_7(seed=1)
        assert [c["detail"] for c in a.checks] == [c["detail"] for c in b.checks]

    def test_main_entrypoint_inproc(self, capsys):
        assert main(["volumes", "--group", "so", "--n", "2"]) == 0
        out = capsys.readouterr().out
        assert json.loads(out)["closed_form"] == pytest.approx(2.0 ** 1.5 * np.pi)
