"""scripts/bench_pair.py: the summary of alternating parent/change runs,
on synthetic run output.  No benchmark process is started here; the
timeout test starts one Python process, a fake run that sleeps."""

import importlib.util
import json
import re
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_pair", ROOT / "scripts" / "bench_pair.py")
bench_pair = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pair)


def _result(**values):
    return {"correct": True, "attempted": 10, "failed": 0,
            "metrics": {name: {"value": v, "unit": "x"} for name, v in values.items()}}


def test_parse_run_reads_the_last_two_lines():
    report = {"workload": "check", "digest_sha256": "ab12"}
    stdout = "noise\n" + json.dumps({"report": report}) + "\n" + json.dumps(_result(a=1.0)) + "\n\n"
    got_report, got_result = bench_pair.parse_run(stdout)
    assert got_report == report and got_result["metrics"]["a"]["value"] == 1.0


def test_spread_gives_median_and_inclusive_quartiles():
    got = bench_pair.spread([4.0, 1.0, 3.0, 2.0, 5.0])
    assert (got["q1"], got["median"], got["q3"]) == (2.0, 3.0, 4.0)
    assert got["values"] == [4.0, 1.0, 3.0, 2.0, 5.0]
    assert bench_pair.spread([7.0]) == {"values": [7.0], "median": 7.0, "q1": 7.0, "q3": 7.0}


def test_summarize_counts_the_pairs_the_change_wins_by_each_metrics_sense():
    parent = [_result(op_p50_ms=2.1, items_per_s=100.0, peak_rss_mb=97.5),
              _result(op_p50_ms=2.2, items_per_s=110.0, peak_rss_mb=105.5),
              _result(op_p50_ms=2.0, items_per_s=90.0, peak_rss_mb=97.5)]
    change = [_result(op_p50_ms=1.8, items_per_s=120.0, peak_rss_mb=97.5),
              _result(op_p50_ms=1.9, items_per_s=100.0, peak_rss_mb=97.4),
              _result(op_p50_ms=2.3, items_per_s=95.0, peak_rss_mb=105.5)]
    better = {"op_p50_ms": "lower", "items_per_s": "higher", "peak_rss_mb": "lower"}
    got = bench_pair.summarize(list(zip(parent, change)), better)
    assert got["op_p50_ms"]["change_better_in"] == 2
    assert got["items_per_s"]["change_better_in"] == 2
    assert got["peak_rss_mb"]["change_better_in"] == 1  # a tie is no win
    assert all(m["pairs"] == 3 for m in got.values())
    assert got["op_p50_ms"]["parent"]["median"] == 2.1
    assert got["op_p50_ms"]["change"]["median"] == 1.9
    assert got["peak_rss_mb"]["change"]["values"] == [97.5, 97.4, 105.5]


def test_summarize_needs_every_metric_in_every_run():
    with pytest.raises(KeyError):
        bench_pair.summarize([(_result(a=1.0), _result(b=1.0))], {"a": "lower"})


def test_simd_target_lists_the_dispatch_targets_this_host_runs():
    got = bench_pair.simd_target()
    assert got["baseline"] and set(got["dispatch_on_host"]) <= set(got["dispatch"])


def test_source_digest_hashes_the_sources_alone(tmp_path):
    def tree(name, body=b"x = 1\n"):
        root = tmp_path / name
        for rel, data in (("src/pkg/a.py", body), ("perfbench/run.py", b"run\n"),
                          ("scripts/bench_pair.py", b"pair\n"), ("README.md", name.encode())):
            (root / rel).parent.mkdir(parents=True, exist_ok=True)
            (root / rel).write_bytes(data)
        return root

    first, second = tree("first"), tree("second")  # differ outside the sources only
    for junk in ("src/pkg/__pycache__/a.cpython-312.pyc", "src/pkg.egg-info/PKG-INFO"):
        (second / junk).parent.mkdir(parents=True)
        (second / junk).write_bytes(b"built")
    assert bench_pair.source_digest(first) == bench_pair.source_digest(second)
    assert bench_pair.source_digest(tree("third", b"x = 2\n")) != bench_pair.source_digest(first)
    (first / "src/pkg/a.py").rename(first / "src/pkg/b.py")  # a path is hashed too
    assert bench_pair.source_digest(first) != bench_pair.source_digest(second)


def test_per_layer_keeps_each_sides_traced_rows_as_printed(monkeypatch, tmp_path):
    # three alternating traced runs per side; each row's value is their median
    rows = {"parent": [{"linalg.self_s": v, "fileio.write.self_s": 0.0} for v in (0.3, 0.1, 0.2)],
            "change": [{"linalg.self_s": v, "fileio.write.self_s": 0.0} for v in (0.1, 0.5, 0.2)]}
    calls = []

    def fake_run(cmd, cwd, **kwargs):
        side = Path(cwd).name
        calls.append(cmd)
        metrics = rows[side][sum(Path(c[1]).parts[-3] == side for c in calls) - 1]
        result = {"correct": True, "attempted": 3, "failed": 0,
                  "metrics": {k: {"value": v, "unit": "s"} for k, v in metrics.items()}}
        stdout = json.dumps({"report": {"trace": 1}}) + "\n" + json.dumps(result) + "\n"
        return bench_pair.subprocess.CompletedProcess(cmd, 0, stdout=stdout, stderr="")

    monkeypatch.setattr(bench_pair.subprocess, "run", fake_run)
    sides = {"parent": tmp_path / "parent", "change": tmp_path / "change"}
    got = bench_pair.per_layer(sides, "export", 3, 20)
    assert list(got) == ["parent", "change"]
    assert got["parent"]["linalg.self_s"] == {"value": 0.2, "unit": "s", "values": [0.3, 0.1, 0.2]}
    assert got["change"]["linalg.self_s"] == {"value": 0.2, "unit": "s", "values": [0.1, 0.5, 0.2]}
    assert got["change"]["fileio.write.self_s"]["values"] == [0.0] * 3  # a stale row stays
    assert all(c[c.index("--workload") + 1:] == ["export", "--seed", "3", "--seconds", "20",
                                                 "--trace", "1"] for c in calls)
    assert [Path(c[1]).parts[-3] for c in calls] == ["parent", "change", "change", "parent",
                                                     "parent", "change"]


def test_a_run_past_its_timeout_names_the_tree_workload_and_seed(tmp_path):
    script = tmp_path / "perfbench" / "run.py"
    script.parent.mkdir()
    script.write_text("import time\ntime.sleep(60)\n")
    start = time.monotonic()
    message = re.escape(f"{tmp_path} draw seed 4 did not finish in 0.5 s")
    with pytest.raises(RuntimeError, match=message):
        bench_pair.run_once(tmp_path, "draw", 4, 20, timeout=0.5)
    assert time.monotonic() - start < 30  # the sleeping run was stopped


def test_the_default_timeout_follows_the_run_seconds(monkeypatch, tmp_path):
    seen = []

    def fake_run(cmd, **kwargs):
        seen.append(kwargs["timeout"])
        raise bench_pair.subprocess.TimeoutExpired(cmd, kwargs["timeout"])

    monkeypatch.setattr(bench_pair.subprocess, "run", fake_run)
    for seconds in (20, 5):
        message = f"check seed 1 did not finish in {10 * seconds + 60} s"
        with pytest.raises(RuntimeError, match=message):
            bench_pair.run_once(tmp_path, "check", 1, seconds)
    assert seen == [260, 110]


def _fake_tree(root: Path, body: str) -> Path:
    (root / "src" / "haarforge").mkdir(parents=True)
    (root / "src" / "haarforge" / "__main__.py").write_text(body)
    return root


def test_a_command_reports_its_childs_wall_time_and_own_max_rss(tmp_path):
    # the fake haar-forge records its argv and holds 64 MiB it has written to
    tree = _fake_tree(tmp_path / "tree", "import sys\n"
                      "open('argv.txt', 'w').write(' '.join(sys.argv[1:]))\n"
                      "held = bytearray(64 << 20)\nheld[::4096] = b'x' * (16 << 10)\n")
    got = bench_pair.run_command(tree, ["-m", "haarforge", "verify", "--seed", "3"])
    assert (tree / "argv.txt").read_text() == "verify --seed 3"
    assert set(got) == {"wall_s", "max_rss_mb"} and got["wall_s"] > 0
    assert 64 <= got["max_rss_mb"] < 1024


def test_a_failing_command_names_the_tree_and_its_exit_code(tmp_path):
    tree = _fake_tree(tmp_path / "tree", "import sys\nsys.exit('no battery here')\n")
    message = re.escape(f"{tree} python -m haarforge verify --seed 1 exited 1:\nno battery here")
    with pytest.raises(RuntimeError, match=message):
        bench_pair.run_command(tree, ["-m", "haarforge", "verify", "--seed", "1"])


def test_the_read_back_row_reads_one_file_through_each_sides_own_reader(tmp_path):
    # the fake haar-forge writes its argv to --out, and verify writes nothing;
    # each fake fileio records which tree read which text, and each fake
    # criterion the seed it ran at, in a file of its own
    main = ("import sys\nargv = sys.argv[1:]\n"
            "if argv[0] == 'sample':\n"
            "    open(argv[argv.index('--out') + 1], 'w').write(' '.join(argv))\n")
    reader = ("import pathlib\ndef json_to_matrices(text):\n"
              "    pathlib.Path('read.txt').write_text(text)\n")
    battery = ("import pathlib\nCRITERIA = [lambda seed, k=k: pathlib.Path(f'criterion_{k}.txt')"
               ".write_text(str(seed)) for k in range(1, 13)]\n")
    sides = {}
    for side in ("parent", "change"):
        tree = sides[side] = _fake_tree(tmp_path / side, main)
        (tree / "src" / "haarforge" / "fileio.py").write_text(reader)
        (tree / "src" / "haarforge" / "verify.py").write_text(battery)
    files = tmp_path / "files"
    files.mkdir()
    got = bench_pair.commands(sides, 4, files)
    sample = "sample --group o --method qr --n 16 --count 2000 --seed 4"
    assert list(got) == ["verify --seed 4", *(f"criterion {k} --seed 4" for k in range(1, 13)),
                         f"json_to_matrices of {sample}"]
    for row in got.values():
        assert list(row) == ["parent", "change"]
        assert all(set(v) == {"wall_s", "max_rss_mb"} for v in row.values())
        assert all(len(m["values"]) == bench_pair.COMMAND_PASSES
                   for v in row.values() for m in v.values())
    for tree in sides.values():
        assert (tree / "read.txt").read_text() == f"{sample} --out {files / 'read_back.json'}"
        assert sorted(p.name for p in tree.glob("criterion_*.txt")) == sorted(
            f"criterion_{k}.txt" for k in range(1, 13))
        assert {p.read_text() for p in tree.glob("criterion_*.txt")} == {"4"}


def test_each_command_row_is_the_median_of_alternating_runs(monkeypatch, tmp_path):
    # the k-th run of a row on a side reads k seconds and rss[k - 1] MB
    rss = [150.0, 140.0, 160.0]
    calls = []

    def fake_run_command(tree, args, timeout=600):
        calls.append((tree.name, tuple(args)))
        k = calls.count(calls[-1])
        return {"wall_s": float(k), "max_rss_mb": rss[k - 1]}

    monkeypatch.setattr(bench_pair, "run_command", fake_run_command)
    sides = {"parent": tmp_path / "parent", "change": tmp_path / "change"}
    got = bench_pair.commands(sides, 2, tmp_path)
    assert bench_pair.COMMAND_PASSES == 3
    for row in got.values():
        for side in ("parent", "change"):
            assert row[side] == {"wall_s": {"value": 2.0, "values": [1.0, 2.0, 3.0]},
                                 "max_rss_mb": {"value": 150.0, "values": rss}}
    verify = ("-m", "haarforge", "verify", "--seed", "2")
    assert [tree for tree, args in calls if args == verify] == [
        "parent", "change", "change", "parent", "parent", "change"]
    assert len(calls) == 1 + 2 * 3 * len(got)  # the sample file is written once
