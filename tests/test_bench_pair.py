"""scripts/bench_pair.py: the summary of alternating parent/change runs,
on synthetic run output (no benchmark process is started here)."""

import importlib.util
import json
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
