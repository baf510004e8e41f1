"""Alternating benchmark pairs of a parent revision and the working tree.

Usage: python scripts/bench_pair.py --parent REV --out BENCH_<pr>.json
           [--pairs check=10,draw=10,export=10] [--seed 1]

Unpacks ``git archive REV`` into a temporary directory, then runs
``perfbench/run.py`` of each tree in turn, for BENCHMARK.json's
``run_seconds`` each: pair i of a workload runs both trees at seed SEED + i,
the parent first in even pairs and the working tree first in odd ones, so
that a drift of the host's speed falls on both sides.  The file written
holds, per workload and end-to-end metric of BENCHMARK.json, each side's
values, median and quartiles and the number of pairs in which the working
tree did better; each pair's cycle-0 output digests; the parent's commit
and the working tree's HEAD (and whether it had uncommitted changes); each
side's ``source_digest``, so that the runs can be tied to any commit whose
sources hash the same; and the numpy, scipy and OpenBLAS versions and
numpy's SIMD target, on which those digests depend.  After a workload's
pairs, each tree runs it three more times with ``--trace 1`` at seed SEED,
in alternating order, and the per-layer metrics they print are kept under
the workload's ``per_layer``, parent first: each row as printed, its
``value`` the median of the three runs and ``values`` all three, in run
order.  Before the pairs, each tree runs these commands three times each
in a child process, the trees taking turns to go first, parent first
(``commands``): ``haar-forge verify --seed SEED``; each criterion alone,
``verify.CRITERIA[k-1](SEED)`` for k = 1 .. 12, so that the criterion
that sets the battery's peak shows; and a read of one 2,000-matrix O(16)
JSON file, written once by the parent's ``haar-forge sample``, through
its own ``fileio.json_to_matrices``.  Each command's wall seconds and the
child's own max RSS (``ru_maxrss`` in MB of 2^20 bytes, the unit of
perfbench's ``peak_rss_mb``) are kept under ``commands``, per side and
metric: ``value`` the median of the three runs and ``values`` all three,
in run order.  Run it from a quiet host:
every process runs on its own, one after the other.  A run still going
after ten times ``run_seconds`` and a minute more (ten minutes for a
command) is stopped, and the script fails with the tree and the workload
and seed, or command, of that run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
import threading
import time
from io import BytesIO
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# the files whose bytes decide what a pair runs and how it is summarised
SOURCES = ("src", "perfbench", "scripts/bench_pair.py")
TRACED_PASSES = 3  # --trace 1 runs per side and workload
COMMAND_PASSES = 3  # runs per side of each commands row
READ_SAMPLE = ["--group", "o", "--method", "qr", "--n", "16", "--count", "2000"]
READ_BACK = ("import sys; from haarforge import fileio; "
             "fileio.json_to_matrices(open(sys.argv[1], encoding='utf-8').read())")
CRITERIA = 12  # the length of verify.CRITERIA: one command row per criterion
RUN_CRITERION = ("import sys; from haarforge import verify; "
                 "verify.CRITERIA[int(sys.argv[1]) - 1](int(sys.argv[2]))")


def parse_run(stdout: str) -> tuple[dict, dict]:
    """The report and result objects of one perfbench run: its last two lines."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def spread(values) -> dict:
    """The values with their median and quartiles (inclusive method)."""
    values = list(values)
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"values": values, "median": median, "q1": q1, "q3": q3}


def summarize(pairs, better: dict) -> dict:
    """Per metric of ``better`` (name -> "lower" or "higher"), both sides'
    spread and how many of the pairs the change won.  ``pairs`` holds one
    (parent, change) pair of result objects per seed."""
    out = {}
    for name, sense in better.items():
        parent = [p["metrics"][name]["value"] for p, _ in pairs]
        change = [c["metrics"][name]["value"] for _, c in pairs]
        wins = sum((c < p) if sense == "lower" else (c > p) for p, c in zip(parent, change))
        out[name] = {"better": sense, "parent": spread(parent), "change": spread(change),
                     "change_better_in": wins, "pairs": len(pairs)}
    return out


def simd_target() -> dict:
    """numpy's compiled baseline and dispatch targets, and the CPU features
    of those targets that this host has."""
    from numpy._core import _multiarray_umath as umath

    return {"baseline": list(umath.__cpu_baseline__), "dispatch": list(umath.__cpu_dispatch__),
            "dispatch_on_host": [f for f in umath.__cpu_dispatch__
                                 if umath.__cpu_features__.get(f)]}


def source_digest(tree: Path) -> str:
    """sha256 over the path (relative to ``tree``) and bytes of each file of
    SOURCES, in path order, bytecode and egg-info left out: the same for a
    commit's ``git archive`` and for a working tree that holds its files."""
    files = sorted(path for top in map(tree.joinpath, SOURCES)
                   for path in ([top] if top.is_file() else top.rglob("*"))
                   if path.is_file() and not any(
                       part == "__pycache__" or part.endswith(".egg-info")
                       for part in path.parts))
    digest = hashlib.sha256()
    for path in files:
        digest.update(path.relative_to(tree).as_posix().encode() + b"\0")
        digest.update(hashlib.sha256(path.read_bytes()).digest())
    return digest.hexdigest()


def run_once(tree: Path, workload: str, seed: int, seconds: float,
             trace: int = 0, timeout: float | None = None) -> tuple[dict, dict]:
    """One perfbench run of ``tree`` for ``seconds``; RuntimeError if it
    exits nonzero or is still running after ``timeout`` seconds, by default
    ten times ``seconds`` and a minute more (a run stops at the first cycle
    end past ``seconds``, and a traced run is slower)."""
    if timeout is None:
        timeout = 10 * seconds + 60
    try:
        proc = subprocess.run([sys.executable, str(tree / "perfbench" / "run.py"),
                               "--workload", workload, "--seed", str(seed),
                               "--seconds", str(seconds), "--trace", str(trace)],
                              cwd=tree, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"{tree} {workload} seed {seed} did not finish "
                           f"in {timeout:g} s") from None
    if proc.returncode != 0:
        raise RuntimeError(f"{tree} {workload} seed {seed} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return parse_run(proc.stdout)


def alternating(sides: dict, passes: int, run) -> dict:
    """``run(tree)`` of each side's tree ``passes`` times, the sides taking
    turns to go first; each side's results in run order."""
    order = list(sides)
    runs = {side: [] for side in order}
    for i in range(passes):
        for side in (order if i % 2 == 0 else order[::-1]):
            runs[side].append(run(sides[side]))
    return runs


def medians(passes) -> dict:
    """Per name of the first of ``passes`` (dicts of name -> value), the
    median of its values and the values in run order."""
    out = {}
    for name in passes[0]:
        values = [run[name] for run in passes]
        out[name] = {"value": statistics.median(values), "values": values}
    return out


def per_layer(sides: dict, workload: str, seed: int, seconds: float) -> dict:
    """Each side's per-layer metrics from TRACED_PASSES ``--trace 1`` runs
    of its tree, the sides taking turns to go first: every row as printed,
    stale rows included, with ``value`` the median of its runs' values and
    ``values`` those values in run order."""
    runs = alternating(sides, TRACED_PASSES, lambda tree: run_once(
        tree, workload, seed, seconds, trace=1)[1]["metrics"])
    out = {}
    for side, passes in runs.items():
        values = medians([{name: row["value"] for name, row in metrics.items()}
                          for metrics in passes])
        out[side] = {name: {**passes[0][name], **row} for name, row in values.items()}
    return out


def run_command(tree: Path, args, timeout: float = 600) -> dict:
    """Wall seconds and max RSS (MB) of ``python *args`` on ``tree``'s
    sources, run once in a child process whose own rusage ``os.wait4``
    reads; RuntimeError if it exits nonzero or is still running after
    ``timeout`` seconds."""
    with tempfile.TemporaryFile() as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], cwd=tree,
                                env=dict(os.environ, PYTHONPATH=str(tree / "src")),
                                stdout=subprocess.DEVNULL, stderr=err)
        watchdog = threading.Timer(timeout, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read().decode(errors="replace")
    name = f"{tree} python {' '.join(args)}"
    if wall >= timeout:
        raise RuntimeError(f"{name} did not finish in {timeout:g} s")
    if proc.returncode != 0:
        raise RuntimeError(f"{name} exited {proc.returncode}:\n{stderr[-2000:]}")
    return {"wall_s": wall, "max_rss_mb": usage.ru_maxrss / 1024.0}


def commands(sides: dict, seed: int, tmp: Path) -> dict:
    """``run_command`` of each row, COMMAND_PASSES times per side, the sides
    taking turns to go first: ``haar-forge verify --seed SEED``, each
    criterion k alone at SEED, then a read of the READ_SAMPLE file at SEED
    (written into ``tmp`` once, by the first side) through the side's own
    ``fileio.json_to_matrices``.  Per row, side and metric: the median of
    the runs as ``value``, and the runs as ``values``."""
    first = next(iter(sides.values()))
    path = str(tmp / "read_back.json")
    run_command(first, ["-m", "haarforge", "sample", *READ_SAMPLE, "--seed", str(seed),
                        "--out", path])
    rows = {f"verify --seed {seed}": ["-m", "haarforge", "verify", "--seed", str(seed)],
            **{f"criterion {k} --seed {seed}": ["-c", RUN_CRITERION, str(k), str(seed)]
               for k in range(1, CRITERIA + 1)},
            f"json_to_matrices of sample {' '.join(READ_SAMPLE)} --seed {seed}":
                ["-c", READ_BACK, path]}
    return {name: {side: medians(runs) for side, runs in alternating(
        sides, COMMAND_PASSES, lambda tree: run_command(tree, args)).items()}
        for name, args in rows.items()}


def git(*cmd: str) -> str:
    """The stripped output of a git command run in this repository."""
    return subprocess.run(["git", *cmd], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def unpack(rev: str, into: Path) -> Path:
    """``git archive rev`` of this repository, extracted under ``into``."""
    tar = subprocess.run(["git", "archive", rev], cwd=ROOT, capture_output=True, check=True)
    with tarfile.open(fileobj=BytesIO(tar.stdout)) as archive:
        archive.extractall(into, filter="data")
    return into


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="git revision of the parent side")
    ap.add_argument("--out", required=True, type=Path)
    ap.add_argument("--pairs", default="check=10,draw=10,export=10",
                    help="workload=pairs, comma-separated, run in this order")
    ap.add_argument("--seed", type=int, default=1, help="the seed of pair 0")
    args = ap.parse_args(argv)
    plan = [(w, int(k)) for w, _, k in (item.partition("=") for item in args.pairs.split(","))]
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    change = f"working tree at {git('rev-parse', 'HEAD')}"
    if git("status", "--porcelain", "--untracked-files=no"):
        change += " with uncommitted changes"
    result = {"parent": git("rev-parse", args.parent), "change": change, "seconds": seconds,
              "simd": simd_target(), "workloads": {}}
    with tempfile.TemporaryDirectory() as tmp, tempfile.TemporaryDirectory() as files:
        sides = {"parent": unpack(args.parent, Path(tmp)), "change": ROOT}
        result["source_digest"] = {side: source_digest(tree) for side, tree in sides.items()}
        result["commands"] = commands(sides, args.seed, Path(files))
        for workload, count in plan:
            pairs, digests = [], []
            for i in range(count):
                seed = args.seed + i
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                runs = {side: run_once(sides[side], workload, seed, seconds)
                        for side in order}
                pairs.append((runs["parent"][1], runs["change"][1]))
                digests.append({"seed": seed, "first": order[0],
                                **{side: runs[side][0]["digest_sha256"] for side in order}})
                meta = runs["change"][0]["meta"]
                print(f"{workload} pair {i + 1}/{count} seed {seed}: " + ", ".join(
                    f"{side} op_p50_ms {runs[side][1]['metrics']['op_p50_ms']['value']:.3f}"
                    for side in order), file=sys.stderr)
            result["versions"] = {"numpy": meta["numpy"], "scipy": meta["scipy"],
                                  "blas": meta["blas"], "python": meta["python"]}
            result["workloads"][workload] = {
                "metrics": summarize(pairs, better), "digests": digests,
                "digests_equal": all(d["parent"] == d["change"] for d in digests),
                "failed": [[p["failed"], c["failed"]] for p, c in pairs],
                "per_layer": per_layer(sides, workload, args.seed, seconds)}
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
