"""haar-forge benchmark: one closed-loop workload per run, outputs checked.

    python3 perfbench/run.py --workload draw|export|check --seed N \
        --seconds S --trace 0|1

Run it from the root of a source checkout; the package is imported from
``src/``.  One op starts when the previous one returns.  The run repeats
whole cycles of its workload (see ``workloads.py``), at least three and
until ``--seconds`` have passed, so every run does the same mix of work.
Each op's output is checked outside the op timing; an op that raises or
fails its check counts as failed.

``--trace 0`` prints the end-to-end metrics: setup_s (median of fresh
processes that import the package and draw once), items_per_s (items over
the summed op time of the whole run), op_p50_ms and op_tail_ms (over every
op of the run), and peak_rss_mb.  Every time among them is given at the
reference host speed of ``pace.py``: the measured time scaled by a fixed
probe timed beside it, so that the host's drift between runs cancels.  The
report line also holds the times as measured.  The run is pinned to one
core.  ``--trace 1`` runs an untraced pass for half the time and then a
traced pass over the same cycles, and prints the per-layer metrics of
``layers.py``; the spans are written to ``.perfbench_run/``.  The last
line of standard output is the result object; the line before it is a
report with the run's metadata, the SHA-256 digest of the first cycle's
outputs, and the bases of the per-layer ratios.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

# numpy, scipy and the modules of this directory that import them are
# imported inside functions: main() must set the BLAS thread count first.

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".perfbench_run"
SETUP_REPEATS = 5
SETUP_PROBES = 3  # probes before and after each fresh process
MIN_CYCLES = 3  # every op spec runs at least three times in a run
L2_BYTES = 2 * 2 ** 20  # fallbacks when sysfs does not say
L3_BYTES = 105 * 2 ** 20
LIMITS = [
    "no system-wide tracing: spans come from wrappers around haarforge's "
    "public functions, installed by the benchmark",
    "no hardware performance counters",
    "no page-cache drops",
    "no stacks of 4x the last-level cache: 420 MiB stacks do not fit the "
    "memory and time budget",
    "the L3 is shared with the host's other tenants",
]
SETUP_CODE = (
    "from haarforge import analytics, cli, euler, fileio, linalg, randstream, "
    "samplers, spectra, verify\n"
    "samplers.sample_batch('so', 3, 1, seed=0)\n")


def quantile(sorted_vals, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile, q in (0, 1).

    A weighted mean of all order statistics, weighted by a beta density
    centred on q, so one op moving past its neighbour does not make the
    estimate jump the way a single order statistic does.
    """
    import numpy as np
    from scipy.special import betainc

    n = len(sorted_vals)
    edges = betainc(q * (n + 1), (1.0 - q) * (n + 1), np.arange(n + 1) / n)
    return float(np.dot(np.diff(edges), sorted_vals))


def tail_percentile(n_ops: int) -> float:
    """The highest percentile with at least ten of ``n_ops`` beyond it."""
    return max(50.0, 100.0 * (1.0 - 10.0 / n_ops))


def setup_seconds(pace) -> list[tuple[float, float]]:
    """(start, wall seconds) of fresh processes that import every module and
    draw once, each between probes of the host speed."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        for _ in range(SETUP_PROBES):
            pace.probe()
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", SETUP_CODE], env=env,
                                stdout=subprocess.DEVNULL)
        # A blocking wait returns the moment the child exits; a wait with a
        # timeout polls and rounds the time up to 50 ms steps.  The watchdog
        # kills a child that hangs.
        watchdog = threading.Timer(120, proc.kill)
        watchdog.start()
        try:
            rc = proc.wait()
        finally:
            watchdog.cancel()
        times.append((t0, time.perf_counter() - t0))
        if rc != 0:
            raise RuntimeError(f"the set-up process exited {rc}")
    for _ in range(SETUP_PROBES):
        pace.probe()
    return times


def run_pass(workload, seed, tmp, seconds=None, cycles=None, tracer=None, small=False,
             pace=None, min_cycles=MIN_CYCLES):
    """Run whole cycles: ``cycles`` of them, or at least ``min_cycles`` and
    until ``seconds`` of wall time have passed.  ``pace``, if given, probes the
    host speed between ops.

    Returns (op records, cycles run, digest of cycle 0, failure messages).
    """
    from workloads import cycle as make_cycle

    records, failures = [], []
    digest = hashlib.sha256()
    start = time.perf_counter()
    done = 0
    while (done < cycles if cycles is not None else
           done < min_cycles or time.perf_counter() - start < seconds):
        for op in make_cycle(workload, seed, done, tmp, small=small):
            rec = {"label": op.label, "items": op.items, "ok": True}
            if pace is not None:
                pace.tick()
            if tracer is not None:
                tracer.op = len(records)
            t0 = time.perf_counter()
            try:
                out = op.run()
            except Exception as exc:  # a failed op; the run goes on
                traceback.print_exc()
                rec["ok"] = False
                failures.append(f"{op.label}: {traceback.format_exception_only(exc)[-1].strip()}")
            rec["t0"], rec["dt"] = t0, time.perf_counter() - t0
            if tracer is not None:
                tracer.op = None
            if rec["ok"]:
                with tracer.paused() if tracer is not None else nullcontext():
                    try:
                        canon = op.check(out)
                    except Exception as exc:
                        traceback.print_exc()
                        rec["ok"] = False
                        failures.append(f"{op.label}: {exc!r}")
                    else:
                        if done == 0:
                            digest.update(op.label.encode() + b"\0" + canon)
                if op.out_path and os.path.exists(op.out_path):
                    rec["bytes_out"] = os.path.getsize(op.out_path)
                    os.remove(op.out_path)
            records.append(rec)
        done += 1
    return records, done, digest.hexdigest(), failures


def adjust(records, pace):
    """Add each op's time at the reference speed to its record, as "adj"."""
    for r in records:
        r["adj"] = pace.adjust(r["t0"], r["dt"])
    return records


def end_to_end(records, cycles, setup, pace):
    """End-to-end metrics over every op of the run, at the reference speed.

    ``records`` are the ops of ``cycles`` whole cycles, ``setup`` holds
    (start, seconds) of the fresh processes and ``pace`` the probes taken
    beside them and between the ops.  The tail percentile is chosen for the
    shortest run, MIN_CYCLES cycles, so that every run reports the same one.
    Returns the metrics and, for the report, their bases and the same
    metrics as measured.
    """
    from pace import REF_PROBE_S

    ok = [r for r in records if r["ok"]]
    if not ok:
        raise RuntimeError("every op failed")
    items = sum(r["items"] for r in ok)
    lat = sorted(r["adj"] for r in adjust(ok, pace))
    raw = sorted(r["dt"] for r in ok)
    p = tail_percentile(len(records) // cycles * MIN_CYCLES)
    setup_adj = [pace.adjust(t0, dt) for t0, dt in setup]
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": {"value": statistics.median(setup_adj), "unit": "s"},
        "items_per_s": {"value": items / sum(lat), "unit": "1/s"},
        "op_p50_ms": {"value": quantile(lat, 0.5) * 1e3, "unit": "ms"},
        "op_tail_ms": {"value": quantile(lat, p / 100.0) * 1e3, "unit": "ms"},
        "peak_rss_mb": {"value": rss_kib / 1024.0, "unit": "MB"},
    }
    measured = {
        "setup_s": statistics.median(dt for _, dt in setup),
        "items_per_s": items / sum(raw),
        "op_p50_ms": quantile(raw, 0.5) * 1e3,
        "op_tail_ms": quantile(raw, p / 100.0) * 1e3,
    }
    probe = sorted(pace.seconds)
    return metrics, {
        "op_tail_percentile": f"p{p:.2f}", "ops": len(records), "ops_timed": len(ok),
        "items": items, "failed_frac": (len(records) - len(ok)) / len(records),
        "times": "at the reference speed of pace.py", "measured": measured,
        "setup_runs_s": [dt for _, dt in setup],
        "probe": {"ref_s": REF_PROBE_S, "count": len(probe),
                  "median_s": statistics.median(probe), "min_s": probe[0],
                  "max_s": probe[-1]},
    }


def yardstick(n, count, seed, repeats=5):
    """Median seconds of np.linalg.qr on a (count, n, n) Gaussian stack."""
    import numpy as np

    stack = np.random.default_rng(seed).standard_normal((count, n, n))
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        np.linalg.qr(stack)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _cache_sizes():
    caches = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(base.glob("index*")):
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            size = (idx / "size").read_text().strip()
            shared = (idx / "shared_cpu_list").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            mult = {"K": 2 ** 10, "M": 2 ** 20}.get(size[-1], 1)
            caches[f"L{level}"] = {"bytes": int(size.rstrip("KM")) * mult, "shared_cpus": shared}
    return caches


def _blas():
    """(thread count, config string) from the OpenBLAS that numpy loaded."""
    with open("/proc/self/maps") as fh:
        libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and "/" in ln})
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                get_n = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                get_c = getattr(lib, f"{prefix}get_config{suffix}", None)
                if get_n is not None and get_c is not None:
                    get_n.restype, get_c.restype = ctypes.c_int, ctypes.c_char_p
                    return get_n(), get_c().decode()
    return int(os.environ["OPENBLAS_NUM_THREADS"]), "unknown"


def metadata(workload):
    import numpy
    import scipy

    from workloads import DRAW, stack_bytes

    threads, config = _blas()
    caches = _cache_sizes()
    l2 = caches.get("L2", {}).get("bytes", L2_BYTES)
    l3 = caches.get("L3", {}).get("bytes", L3_BYTES)
    meta = {
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "blas_threads": threads, "blas": config,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "caches": caches, "limits": LIMITS,
        "loop": "closed, one client, one process",
    }
    if workload == "draw":
        meta["draw_stacks"] = []
        for fn, group, method, n, count, streams in DRAW:
            size = stack_bytes(group, n, count)
            meta["draw_stacks"].append({"op": f"{fn} {group}/{method} n={n} count={count}",
                                        "bytes": size, "x_L2": size / l2, "x_L3": size / l3})
    return meta


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("draw", "export", "check"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (SRC / "haarforge" / "__init__.py").is_file():
        print(f"error: no haarforge sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2

    # One BLAS thread: no LAPACK call here is larger than 64 x 64, too small
    # for OpenBLAS to split, but an idle worker spins on the second core after
    # each call and slows the Python thread beside it (on the 2-core
    # reference VM, draw ran 17% faster and half as noisy with one thread).
    # BLAS reads the count when numpy loads, so set it before any import.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    # One core: the host's speed differs between the cores it lends us, so
    # the probes of pace.py describe only the core they ran on.  Pinned, the
    # ops, the probes and the set-up processes (which inherit the mask) all
    # run on the same one.
    cores = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, cores[:1])
    sys.path.insert(0, str(SRC))
    import layers
    from pace import Pace

    tmp = RUN_DIR / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        pace = Pace()
        setup = setup_seconds(pace) if not args.trace else []
        run_pass(args.workload, args.seed, tmp, cycles=1, small=True)  # warm-up
        report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace}
        if not args.trace:
            records, cycles, digest, failures = run_pass(
                args.workload, args.seed, tmp, seconds=args.seconds, pace=pace)
            metrics, extra = end_to_end(records, cycles, setup, pace)
            report.update(extra)
        else:
            # one cycle at least, so that a check run with tracing fits
            # the time of a timed run
            plain, cycles, digest, failures = run_pass(
                args.workload, args.seed, tmp, seconds=args.seconds / 2, pace=pace,
                min_cycles=1)
            tracer = layers.make_tracer()
            tracer.install()
            try:
                traced, _, _, more = run_pass(args.workload, args.seed, tmp,
                                              cycles=cycles, tracer=tracer, pace=pace)
            finally:
                tracer.restore()
            if not tracer.restored():
                raise RuntimeError("a traced function was not restored")
            failures += more
            big = layers.largest_so_euler(tracer)
            yard = (*big, yardstick(*big, args.seed)) if big else None
            adjust(plain + traced, pace)
            metrics, bases = layers.per_layer(tracer, traced, plain, yard)
            records = plain + traced
            span_file = RUN_DIR / f"trace-{args.workload}-seed{args.seed}.json"
            span_file.write_text(json.dumps(tracer.dump()))
            report.update(bases=bases, spans_file=str(span_file.relative_to(ROOT)))
        failed = sum(not r["ok"] for r in records)
        report.update(cycles=cycles, digest_sha256=digest, digest_scope="outputs of cycle 0",
                      failures=failures[:20], meta=metadata(args.workload))
    finally:
        for f in tmp.glob("*"):
            f.unlink()
        tmp.rmdir()
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": failed == 0, "attempted": len(records),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
