import hashlib
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


IMPORT_CONTRACT = """
import contextlib, importlib, io, json, pkgutil, sys
import haarforge
from haarforge import cli, verify

for mod in pkgutil.iter_modules(haarforge.__path__):
    if mod.name != "__main__":
        importlib.import_module("haarforge." + mod.name)
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv) for argv in (
        ["sample", "--group", "u", "--n", "3", "--count", "2"],
        ["spectra", "--n", "4", "--count", "2"],
        ["volumes", "--group", "so", "--n", "3"],
        ["moments", "--group", "so", "--n", "3", "--p", "1", "--count", "50"],
    )]
before = sorted(m for m in sys.modules if m.startswith("scipy"))
verify.criterion_9(1)
print(json.dumps({"codes": codes, "before": before,
                  "after": sorted(m for m in sys.modules if m.startswith("scipy"))}))
"""


def test_scipy_loads_only_for_a_test_statistic():
    # the library and the sample/spectra/volumes/moments commands load no
    # scipy module; criterion 9's chi-square loads scipy.special, and only
    # criterion 4's quadrature would load scipy.integrate
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-c", IMPORT_CONTRACT],
                          capture_output=True, text=True, env=env, check=True)
    got = json.loads(proc.stdout)
    assert got["codes"] == [0, 0, 0, 0]
    assert got["before"] == []
    assert "scipy.special" in got["after"]
    assert "scipy.integrate" not in got["after"]


class TestFileFormats:
    def test_json_roundtrip_bit_exact(self):
        mats = qr_batch(RandomStream(500), 3, 4, "complex")
        text = fileio.matrices_to_json("u", 3, "qr", 500, mats)
        payload, back = fileio.json_to_matrices(text)
        assert payload["group"] == "u" and payload["n"] == 3
        assert np.array_equal(back, mats)

    def test_csv_roundtrip_bit_exact_complex(self):
        mats = qr_batch(RandomStream(501), 3, 3, "complex")
        text = fileio.matrices_to_csv("u", 3, "qr", 501, mats)
        meta, back = fileio.csv_to_matrices(text)
        assert meta["kind"] == "complex" and int(meta["count"]) == 3
        assert np.array_equal(back, mats)

    def test_csv_roundtrip_bit_exact_real(self):
        mats = so_euler_batch(RandomStream(502), 4, 2)
        text = fileio.matrices_to_csv("so", 4, "euler", 502, mats)
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
        assert np.array_equal(words, sample_batch("sn", 7, 5, seed=9, streams=2))
        assert words.dtype == np.int64

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

    @pytest.mark.parametrize("args,report", [
        (["--n", "5", "--p", "1", "--count", "200", "--seed", "3"],
         '{"group": "so", "n": 5, "p": 1.0, "q": null, "count": 200, "seed": 3, '
         '"exact": 0.20000000000000007, "estimate": 0.18625199715822233, '
         '"std_error": 0.014019696127068715, "z_score": 0.9806206009867504, '
         '"pass": true}'),
        (["--n", "3", "--p", "1", "--q", "0.5", "--count", "300", "--seed", "4",
          "--streams", "2"],
         '{"group": "so", "n": 3, "p": 1.0, "q": 0.5, "count": 300, "seed": 4, '
         '"exact": 0.1875, "estimate": 0.17150387251964744, '
         '"std_error": 0.0128636726860449, "z_score": 1.243511699244796, '
         '"pass": true, "outside_derivation_range": true}'),
        (["--n", "6", "--p", "0.5", "--q", "1.5", "--count", "500", "--seed", "5"],
         '{"group": "so", "n": 6, "p": 0.5, "q": 1.5, "count": 500, "seed": 5, '
         '"exact": 0.03417968750000003, "estimate": 0.03133765785903242, '
         '"std_error": 0.002956509437957063, "z_score": 0.9612787310875085, '
         '"pass": true}'),
    ], ids=["single", "joint-small-n", "joint"])
    def test_report_bytes_pinned(self, capsys, args, report):
        assert main(["moments", "--group", "so", *args]) == 0
        assert capsys.readouterr().out == report + "\n"

    @pytest.mark.parametrize("args", [["--n", "1", "--p", "1"],
                                      ["--n", "4", "--p", "-1"],
                                      ["--n", "4", "--p", "1", "--q", "-0.5"],
                                      ["--n", "4", "--p", "nan"],
                                      ["--n", "4", "--p", "inf"],
                                      ["--n", "4", "--p", "1", "--q", "nan"],
                                      ["--n", "4", "--p", "1", "--q", "inf"]])
    def test_out_of_range_exponents_exit_2(self, capsys, args):
        code = main(["moments", "--group", "so", "--count", "10", *args])
        out, err = capsys.readouterr()
        assert code == 2 and out == "" and err.startswith("error: need n >= 2")


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

    # SHA-256 of the report text, taken when cmd_volumes kept its own copy
    # of the quadrature domain
    REPORT_DIGESTS = {
    ("so", 1): "6f5c6b361952c10b58e71fc98f1ab2ff7e5736d4469f7901a03f7ba2adfb3a5a",
    ("so", 2): "c9882170e0c2eaeae27a68a451608c8e9c1db23c7472b9bec063e7cc9e9505bf",
    ("so", 3): "4c37add44b88a0a00e70783358ab26e5abf2b0b442cb8e44f46f664c80cb62dd",
    ("so", 4): "7e53f4e9e60872f3ae9e93250e985b522df2a5cba6fb10907254a3625a2499d4",
    ("o", 1): "cd4cf3763eb3db19854f80865e4fd69c69c269cb8770b28e61f40cd3bd59630a",
    ("o", 2): "0b4467fa911c218e4ea84377b68691c34749de92e14bf6c0889ffa00464da9a5",
    ("o", 3): "76a5bafef76920d0292acf57992ffd73317c222172062053ceb10f161804d911",
    ("o", 4): "b5758dd2fa76eed2295c56de7504252b644987660a28c2a3ddad767d599a3a8e",
    ("u", 1): "5bcf5b8a604ccd7aae9e2ac7091344cc46979bd0542b8e05e88a9d097f337c7d",
    ("u", 2): "9a548c856816501f94a6d33973de4adfbd6ea4bb4a8767a045b99314e3cf0a2b",
    ("u", 3): "9dcb709f1ff8dfdb889febed84e1357f51e352152afb5fce735d985d8f24136e",
    ("u", 4): "bc76271e6176d10d3453b65ef28393209fc045ae399a40586b58ea66fd609833",
    }

    @pytest.mark.parametrize("group,n", list(REPORT_DIGESTS))
    def test_checked_exactly_where_quadrature_runs(self, group, n, capsys):
        assert main(["volumes", "--group", group, "--n", str(n)]) == 0
        out = capsys.readouterr().out
        rep = json.loads(out)
        quadrature = (group, n) in {("so", 2), ("so", 3), ("u", 1), ("u", 2)}
        assert (rep["checked"] is not None) == quadrature == ("quadrature" in rep)
        assert hashlib.sha256(out.encode()).hexdigest() == self.REPORT_DIGESTS[(group, n)]


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

    def test_out_of_memory_exits_internal(self, monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise MemoryError()

        monkeypatch.setattr(samplers, "sample_batch", fail)
        assert main(["sample", "--group", "so", "--n", "3"]) == EXIT_INTERNAL
        err = capsys.readouterr().err
        assert "internal error: out of memory" in err and "Traceback" not in err

    def test_one_eigenphase_batch_over_all_lanes(self, monkeypatch, capsys):
        calls = []
        batch = linalg.eigenphases_batch

        def spy(stack):
            calls.append(len(stack))
            return batch(stack)

        monkeypatch.setattr(linalg, "eigenphases_batch", spy)
        assert main(["spectra", "--n", "5", "--count", "7", "--streams", "3"]) == 0
        assert calls == [7]
        assert len(json.loads(capsys.readouterr().out)["phases"]) == 35

    # SHA-256 of the stdout of every run below, in order, taken when each
    # lane's matrices went through their own eigenphase call
    GRID_DIGEST = "de6266ba6a0784dbcf9d97ebc2bc511424ab8e1279ecdccd9a6e7235a3408ba6"

    def test_stdout_over_methods_sizes_and_lanes_pinned(self, capsys):
        h = hashlib.sha256()
        for method in ("euler", "hessenberg", "cmv"):
            for n in (2, 3, 6, 9, 16):
                for count, streams in ((1, 1), (2, 1), (2, 2), (7, 3), (50, 4), (30, 1)):
                    for fmt in ("json", "csv"):
                        assert main(["spectra", "--method", method, "--n", str(n),
                                     "--count", str(count), "--streams", str(streams),
                                     "--seed", str(n), "--format", fmt]) == 0
                        h.update(capsys.readouterr().out.encode())
        assert h.hexdigest() == self.GRID_DIGEST


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
