"""The ``haar-forge`` command line front end.

Subcommands: sample, moments, volumes, spectra and verify; README's
"Command line" gives them, their bounds and the exit codes (``EXIT_*``).
sample and spectra write the text pieces of a ``fileio`` writer as they
come.  Every command is deterministic given (--seed, --streams).

The argparse parser is the only declaration of each option: its default,
its choices and its range (a ``type=`` parser).  A UsageError covers the
checks that span options, made before anything is drawn.

``main`` can be called any number of times in one process: every call
parses with one parser, built on the first call and shared by all later
ones, so callers must not mutate what ``build_parser`` returns.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from contextlib import nullcontext

import numpy as np

from haarforge import analytics, fileio, linalg, samplers, spectra, verify

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_INTERNAL = 4

SAMPLE_MAX_ENTRIES = 1 << 26  # entries of one sample/spectra stack: 512 MiB real, 1 GiB complex
MAX_LANES = 1 << 16  # --streams lanes of one sample/spectra stack, each with its own stream


class UsageError(ValueError):
    pass


def _write_out(chunks, out: str | None) -> None:
    """Write the text pieces ``chunks`` to ``out`` (stdout for None or "-")
    as they come, then a newline unless the text ends with one."""
    with (nullcontext(sys.stdout) if out is None or out == "-"
          else open(out, "w", encoding="utf-8")) as fh:
        last = ""
        for last in chunks:
            fh.write(last)
        if not last.endswith("\n"):
            fh.write("\n")


def _bound_stack(count: int, size: int, streams: int) -> None:
    """UsageError if ``count`` samples of ``size`` entries exceed SAMPLE_MAX_ENTRIES,
    or if ``streams`` splits them into more than MAX_LANES lanes."""
    if count * size > SAMPLE_MAX_ENTRIES:
        raise UsageError(f"--count {count} samples of {size} entries each exceed "
                         f"the limit of {SAMPLE_MAX_ENTRIES:,} entries per sample stack")
    if min(count, streams) > MAX_LANES:
        raise UsageError(f"--count {count} over --streams {streams} needs "
                         f"{min(count, streams):,} lanes, above the limit of {MAX_LANES:,}")


def cmd_sample(args: argparse.Namespace) -> int:
    group = args.group
    method = args.method or samplers.DEFAULT_METHOD[group]
    try:
        entry = samplers.sampler(group, method)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    _bound_stack(args.count, math.prod(entry.shape(args.n)), args.streams)
    result = samplers.sample_batch(group, args.n, args.count, method=method,
                                   seed=args.seed, streams=args.streams)
    write = fileio.json_chunks if args.format == "json" else fileio.csv_chunks
    _write_out(write(group, args.n, method, args.seed, result), args.out)
    return EXIT_OK


def cmd_moments(args: argparse.Namespace) -> int:
    if args.count < 2:
        raise UsageError("moments need --count >= 2 for a standard error")
    try:
        exact = (analytics.moment_single(args.n, args.p) if args.q is None
                 else analytics.moment_joint(args.n, args.p, args.q))
    except ValueError as exc:
        raise UsageError(str(exc))
    _bound_stack(args.count, args.n * args.n, args.streams)
    mats = samplers.sample_batch("so", args.n, args.count, method="euler",
                                 seed=args.seed, streams=args.streams)
    vals = np.abs(mats[:, args.n - 1, args.n - 1]) ** (2.0 * args.p)
    if args.q is not None:
        vals = vals * np.abs(mats[:, args.n - 2, args.n - 2]) ** (2.0 * args.q)
    est, se = analytics.mean_and_error(vals)
    check = analytics.moment_check(exact, est, se)
    report = {
        "group": args.group, "n": args.n, "p": args.p, "q": args.q,
        "count": args.count, "seed": args.seed,
        "exact": exact, "estimate": est, "std_error": se,
        "z_score": check.statistic, "pass": check.passed,
    }
    if args.q is not None and args.n < 4:  # the joint form is derived for n >= 4
        report["outside_derivation_range"] = True
    _write_out([json.dumps(report)], args.out)
    return EXIT_OK


def cmd_volumes(args: argparse.Namespace) -> int:
    n = args.n
    quotients = {"o": ("o/o1",), "u": ("u/u1", "u/o")}.get(args.group, ())
    try:
        vols = {tag: analytics.volume(tag, n) for tag in (args.group, *quotients)}
    except ValueError as exc:
        raise UsageError(str(exc))
    report = {"group": args.group, "n": n, "closed_form": vols.pop(args.group)}
    if quotients:
        report["quotients"] = vols
    if n in analytics.QUADRATURE_DOMAIN.get(args.group, ()):
        got, refine = analytics.volume_quadrature(args.group, n)
        rel = abs(got - report["closed_form"]) / report["closed_form"]
        report["quadrature"] = got
        report["quadrature_rel_error"] = rel
        report["quadrature_refine_delta"] = refine
        report["checked"] = bool(rel <= analytics.QUADRATURE_RTOL)
    else:
        report["checked"] = None
    _write_out([json.dumps(report)], args.out)
    return EXIT_OK


def _spectral_models():  # built per call, so that a rebound draw function is the one run
    return {"euler": samplers.so_euler_batch, "hessenberg": spectra.hessenberg_batch,
            "cmv": spectra.cmv_batch}


def cmd_spectra(args: argparse.Namespace) -> int:
    method = "euler" if args.method == "full" else args.method
    if args.n < 2:
        raise UsageError("need n >= 2")
    _bound_stack(args.count, args.n * args.n, args.streams)
    phases = linalg.eigenphases_batch(samplers._draw_lanes(
        _spectral_models()[method], args.n, args.count, args.seed, args.streams))
    _write_out(fileio.phase_chunks(args.format, args.n, method, args.seed, args.count, phases),
               args.out)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    results, ok = verify.run_all(seed=args.seed, level=args.level, echo=print)
    if args.out:
        payload = {
            "seed": args.seed, "level": args.level, "all_passed": ok,
            "criteria": [
                {"name": r.name, "passed": r.passed, "elapsed": r.elapsed,
                 "checks": r.checks}
                for r in results
            ],
        }
        _write_out([json.dumps(payload)], args.out)
    return EXIT_OK if ok else EXIT_VERIFY


def _checked(convert, ok, message):
    """An argparse ``type=``: ``convert`` the text, then reject the value
    with ``message`` unless ``ok(value)``."""
    def parse(text):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(message)
        return value
    parse.__name__ = convert.__name__  # argparse's "invalid int value: 'x'"
    return parse


def _at_least_one(name):
    return _checked(int, lambda v: v >= 1, f"{name} >= 1 required")


def _add_common(p, count_default=None, n_max=None):
    """--n (<= ``n_max``) and --out; with a ``count_default`` also --count, --seed, --streams."""
    n_type = _at_least_one("n") if n_max is None else _checked(
        int, lambda v: 1 <= v <= n_max, f"n must lie in [1, {n_max}]")
    p.add_argument("--n", type=n_type, required=True, help="group dimension parameter")
    if count_default is not None:
        p.add_argument("--count", type=_at_least_one("count"), default=count_default)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--streams", type=_at_least_one("streams"), default=1,
                       help="sibling streams (reproducible batch lanes)")
    p.add_argument("--out", default=None, help="output path (default stdout)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one ``haar-forge`` parser of this process, built on first use."""
    ap = argparse.ArgumentParser(
        prog="haar-forge",
        description="Sample the classical compact groups with invariant "
                    "measure and verify the constructions.")
    sub = ap.add_subparsers(dest="command_name", required=True)

    p = sub.add_parser("sample", help="draw group elements to JSON/CSV")
    p.add_argument("--group", required=True, choices=samplers.GROUP_TAGS)
    p.add_argument("--method", default=None,
                   choices=list(dict.fromkeys(m for _, m in samplers.SAMPLERS)),
                   help="construction; valid (group, method) pairs: "
                        + ", ".join(f"{t} {m}" for t, m in samplers.SAMPLERS)
                        + " (the first listed for a group is its default)")
    p.add_argument("--format", default="json", choices=["json", "csv"])
    _add_common(p, count_default=1)

    p = sub.add_parser("moments", help="closed-form entry moments vs Monte Carlo")
    p.add_argument("--group", required=True, choices=["so"])
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--q", type=float, default=None)
    _add_common(p, count_default=100_000)

    p = sub.add_parser("volumes", help="group volumes and quadrature cross-checks")
    p.add_argument("--group", required=True, choices=["so", "o", "u"])
    _add_common(p, n_max=100)  # every volume printed underflows from n = 86

    p = sub.add_parser("spectra", help="dump eigenphase samples")
    p.add_argument("--method", default="hessenberg", choices=[*_spectral_models(), "full"])
    p.add_argument("--format", default="json", choices=["json", "csv"])
    _add_common(p, count_default=100)

    p = sub.add_parser("verify", help="run the full acceptance battery")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--level", default=analytics.DEFAULT_LEVEL,
                   type=_checked(float, lambda v: 0.0 < v <= 0.1,
                                 "level must lie in (0, 0.1]"))
    p.add_argument("--out", default=None)
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for usage errors already
        return int(exc.code) if exc.code is not None else EXIT_USAGE
    # looked up per call, so a cmd_* rebound after the parser was built still runs
    command = globals()[f"cmd_{args.command_name}"]
    try:
        return command(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, linalg.ConvergenceError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except MemoryError:
        print("internal error: out of memory", file=sys.stderr)
        return EXIT_INTERNAL
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
