import argparse
import hashlib
import json
import math
import os
import pathlib
import subprocess
import sys
import time

import numpy as np
import pytest

from haarforge import cli, fileio, linalg, samplers
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


SCIPY_FREE = """
import contextlib, importlib, io, json, pkgutil, sys


class NoScipy:  # scipy and every scipy.* module fail to import
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is not importable here")


sys.meta_path.insert(0, NoScipy())
import numpy as np
import haarforge
from haarforge import analytics, cli, verify

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
passed = [verify.CRITERIA[k - 1](1).passed for k in (4, 8, 9)]
u = np.linspace(0.0, 1.0, 200)
analytics.ks_test(u, lambda v: v)
analytics.ks_two_sample(u[::2], u[1::2])
print(json.dumps({"codes": codes, "passed": passed}))
"""


def test_the_library_commands_and_criteria_4_and_8_run_with_scipy_unimportable():
    # the library, the sample/spectra/volumes/moments commands, criteria 4
    # (quadrature), 8 (normal CDF) and 9 (chi-square) and the two KS tests
    # run and pass in a process where every scipy import raises
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-c", SCIPY_FREE],
                          capture_output=True, text=True, env=env, check=True)
    got = json.loads(proc.stdout)
    assert got == {"codes": [0, 0, 0, 0], "passed": [True, True, True]}


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

    @pytest.mark.parametrize("group,n,size", [("so", 16, 256), ("sp", 8, 256), ("sn", 16, 16),
                                              ("u", 10 ** 9, 10 ** 18)])
    def test_stack_over_the_entry_limit_exits_2_before_drawing(self, monkeypatch, capsys,
                                                              group, n, size):
        # the refusal is tested by its check: the sampler only records its call
        drawn = []

        def record(tag, n, count, method, **kwargs):
            drawn.append(count)
            return np.empty((0, n) if tag == "sn" else (0, 1, 1))

        monkeypatch.setattr(samplers, "sample_batch", record)
        at_limit = cli.SAMPLE_MAX_ENTRIES // size  # 0 when one sample is over the limit
        for count in ((at_limit, at_limit + 1) if at_limit else (1,)):
            code = main(["sample", "--group", group, "--n", str(n), "--count", str(count)])
            out, err = capsys.readouterr()
            if count * size <= cli.SAMPLE_MAX_ENTRIES:
                assert code == 0 and json.loads(out)
            else:
                assert code == 2 and f"limit of {cli.SAMPLE_MAX_ENTRIES:,} entries" in err
        assert drawn == ([at_limit] if at_limit else [])

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

    @pytest.mark.parametrize("args,message", [
        (["--n", "9000", "--count", "2"], "entries per sample stack"),
        (["--n", "2", "--count", "70000", "--streams", "70000"], "lanes, above the limit"),
    ], ids=["entries", "lanes"])
    def test_stack_over_a_limit_exits_2_before_drawing(self, monkeypatch, capsys,
                                                       args, message):
        def fail(*args, **kwargs):
            pytest.fail("moments drew a stack over a limit")

        monkeypatch.setattr(samplers, "sample_batch", fail)
        code = main(["moments", "--group", "so", "--p", "1", *args])
        out, err = capsys.readouterr()
        assert code == 2 and out == "" and message in err

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
                                      ["--n", "4", "--p", "1", "--q", "inf"],
                                      ["--n", "3", "--p", "1e308"],
                                      ["--n", "5", "--p", "1e20"],
                                      ["--n", "5", "--p", "1", "--q", "1e20"]])
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

    @pytest.mark.parametrize("group,n", [("u", 60), ("so", 90), ("o", 84), ("u", 49)])
    def test_underflowing_volume_exits_2(self, group, n, capsys):
        assert main(["volumes", "--group", group, "--n", str(n)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "underflows" in err

    def test_huge_n_exits_2_at_once(self, capsys):
        t0 = time.perf_counter()
        assert main(["volumes", "--group", "so", "--n", "1000000000"]) == 2
        assert time.perf_counter() - t0 < 1.0
        assert "argument --n: n must lie in [1, 100]" in capsys.readouterr().err

    def test_no_zero_or_infinite_volume_printed(self, capsys):
        # every size up to the first underflow prints; o stops at o/o1, u at u/u1
        for group, last in (("so", 85), ("o", 83), ("u", 48)):
            printed = []
            for n in range(1, 101):
                code = main(["volumes", "--group", group, "--n", str(n)])
                out = capsys.readouterr().out
                if code:
                    assert code == 2 and out == ""
                    continue
                rep = json.loads(out)
                vols = [rep["closed_form"], *rep.get("quotients", {}).values()]
                assert all(0.0 < v < math.inf for v in vols), (group, n)
                printed.append(n)
            assert printed == list(range(1, last + 1))

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

    @pytest.mark.parametrize("n", [2, 64, 10 ** 5])
    def test_stack_over_the_entry_limit_exits_2_before_drawing(self, monkeypatch, capsys, n):
        # the refusal is tested by its check: the draw records its call and
        # returns one identity, so nothing large is allocated
        drawn = []

        def record(gen, n, count, seed, streams):
            drawn.append(count)
            return np.eye(n)[None]

        monkeypatch.setattr(samplers, "_draw_lanes", record)
        at_limit = cli.SAMPLE_MAX_ENTRIES // (n * n)  # 0 when one matrix is over the limit
        for count in ((at_limit, at_limit + 1) if at_limit else (1,)):
            code = main(["spectra", "--n", str(n), "--count", str(count)])
            out, err = capsys.readouterr()
            if count * n * n <= cli.SAMPLE_MAX_ENTRIES:
                assert code == 0 and json.loads(out)["count"] == count
            else:
                assert code == 2 and out == ""
                assert f"limit of {cli.SAMPLE_MAX_ENTRIES:,} entries" in err
        assert drawn == ([at_limit] if at_limit else [])

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
    GRID_DIGEST = "027a109f70d95c63b8c18671ef915f87f382486bcb55054b468721517ffbd38d"

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


SAMPLE_SO3 = ["sample", "--group", "so", "--n", "3"]


@pytest.mark.parametrize("argv,message", [
    (SAMPLE_SO3 + ["--count", "0"], "argument --count: count >= 1 required"),
    (SAMPLE_SO3 + ["--streams", "0"], "argument --streams: streams >= 1 required"),
    (SAMPLE_SO3 + ["--n", "0"], "argument --n: n >= 1 required"),
    (SAMPLE_SO3 + ["--count", "abc"], "argument --count: invalid int value: 'abc'"),
    (["verify", "--level", "0"], "argument --level: level must lie in (0, 0.1]"),
    (["verify", "--level", "0.2"], "argument --level: level must lie in (0, 0.1]"),
], ids=["count-0", "streams-0", "n-0", "count-abc", "level-0", "level-0.2"])
def test_option_values_rejected_by_the_parser(argv, message):
    # argparse rejects the value itself: exit 2, no output, no traceback
    code, out, err = run_cli(*argv)
    assert code == 2 and out == "" and "Traceback" not in err
    assert err.rstrip().endswith(message)


@pytest.mark.parametrize("argv,stack", [
    (["sample", "--group", "sn", "--n", "1"], np.empty((0, 1), dtype=np.int64)),
    (["spectra", "--n", "2"], np.eye(2)[None]),
], ids=["sample", "spectra"])
def test_lanes_over_the_limit_exit_2_before_drawing(monkeypatch, capsys, argv, stack):
    # the refusal is tested by its check: the lane splitter only records its
    # call, so no request near the limit is drawn
    drawn = []

    def record(draw, n, count, seed, streams):
        drawn.append((count, streams))
        return stack

    monkeypatch.setattr(samplers, "_draw_lanes", record)
    limit = cli.MAX_LANES
    cases = [(limit, limit, 0), (limit + 1, limit, 0), (limit, 1 << 24, 0),
             (limit + 1, limit + 1, 2), (1 << 24, 1 << 24, 2)]
    for count, streams, want in cases:
        code = main(argv + ["--count", str(count), "--streams", str(streams)])
        out, err = capsys.readouterr()
        assert code == want
        if want:
            assert out == "" and f"above the limit of {limit:,}" in err
    assert drawn == [(count, streams) for count, streams, want in cases if not want]


class TestParserReuse:
    RUNS = [
        ["sample", "--group", "u", "--n", "3", "--count", "2", "--streams", "2"],
        ["spectra", "--n", "4", "--count", "3", "--method", "cmv"],
        ["volumes", "--group", "so", "--n", "3"],
        ["moments", "--group", "so", "--n", "3", "--p", "1", "--count", "50"],
    ]

    def outputs(self, tmp_path, capsys):
        """(exit code, file bytes, exit code, stdout) of each run, to a file and to stdout."""
        got = []
        for i, argv in enumerate(self.RUNS):
            path = tmp_path / f"run{i}.out"
            to_file = main(argv + ["--out", str(path)])
            to_stdout = main(argv)
            got.append((to_file, path.read_bytes(), to_stdout, capsys.readouterr().out))
        return got

    def test_failed_and_help_calls_leave_the_shared_parser_as_it_was(self, monkeypatch,
                                                                    tmp_path, capsys):
        before = self.outputs(tmp_path, capsys)
        # each failing call sets options that the runs leave at their defaults
        assert main(SAMPLE_SO3 + ["--seed", "9", "--format", "csv", "--count", "0"]) == 2
        assert main(["sample", "--group", "sn", "--n", "3", "--method", "qr",
                     "--seed", "9", "--streams", "3"]) == 2

        def fail(*args, **kwargs):
            raise ValueError("injected")

        with monkeypatch.context() as patch:
            patch.setattr(samplers, "sample_batch", fail)
            assert main(SAMPLE_SO3 + ["--format", "csv", "--seed", "9"]) == EXIT_INTERNAL
        assert main(["--help"]) == 0
        assert "usage: haar-forge" in capsys.readouterr().out
        assert self.outputs(tmp_path, capsys) == before

    def test_one_parser_serves_every_call(self, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def spy(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        cli.build_parser.cache_clear()
        monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
        codes = [main(["volumes", "--group", "so", "--n", str(n)]) for n in range(4, 14)]
        assert codes == [0] * 10 and main(SAMPLE_SO3 + ["--count", "0"]) == 2
        assert len(built) == 6  # the top-level parser and one per subcommand


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
