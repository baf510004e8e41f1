"""The ``haar-forge`` command line front end.

Subcommands: sample (matrices to JSON/CSV), moments (closed form vs Monte
Carlo), volumes (closed forms plus quadrature cross-checks), spectra
(eigenphase dumps), verify (the full acceptance battery).

Exit codes: 0 success, 1 verification failure, 2 usage error (a
UsageError, raised for every invalid input), 3 I/O error, 4 internal error
(a numerical precondition or certificate failed, a redraw loop gave up, any
other ValueError, or a MemoryError, reported as "out of memory").
Every command is deterministic given (--seed, --streams).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from haarforge import analytics, fileio, linalg, samplers, spectra, verify

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_INTERNAL = 4


class UsageError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    """Validated invocation record shared by the subcommands."""

    command: str
    group: str | None = None
    n: int | None = None
    method: str | None = None
    count: int = 1
    seed: int = 0
    streams: int = 1
    out: str | None = None
    format: str = "json"
    level: float = analytics.DEFAULT_LEVEL
    p: float | None = None
    q: float | None = None

    def __post_init__(self):
        if self.count < 1:
            raise UsageError("count >= 1 required")
        if not 0.0 < self.level <= 0.1:
            raise UsageError("level must lie in (0, 0.1]")
        if self.streams < 1:
            raise UsageError("streams >= 1 required")
        if self.n is not None and self.n < 1:
            raise UsageError("n >= 1 required")


def _write_out(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
        return
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(text if text.endswith("\n") else text + "\n")


def cmd_sample(cfg: RunConfig) -> int:
    group = cfg.group
    method = cfg.method or samplers.DEFAULT_METHOD.get(group)
    sampler = samplers.SAMPLERS.get((group, method))
    if sampler is None:
        raise UsageError(f"method {method!r} is not valid for group {group!r}")
    result = samplers.sample_batch(group, cfg.n, cfg.count, method=method,
                                   seed=cfg.seed, streams=cfg.streams)
    if sampler.kind == "permutation":
        text = (fileio.permutations_to_json(cfg.n, method, cfg.seed, result)
                if cfg.format == "json"
                else fileio.permutations_to_csv(cfg.n, method, cfg.seed, result))
    else:
        text = (fileio.matrices_to_json(group, cfg.n, method, cfg.seed, result)
                if cfg.format == "json"
                else fileio.matrices_to_csv(group, cfg.n, method, cfg.seed,
                                            result, sampler.kind))
    _write_out(text, cfg.out)
    return EXIT_OK


def cmd_moments(cfg: RunConfig) -> int:
    if cfg.group != "so":
        raise UsageError("moment formulas cover the special orthogonal group; "
                         "use --group so")
    if cfg.count < 2:
        raise UsageError("moments need --count >= 2 for a standard error")
    try:
        exact = (analytics.moment_single(cfg.n, cfg.p) if cfg.q is None
                 else analytics.moment_joint(cfg.n, cfg.p, cfg.q))
    except ValueError as exc:
        raise UsageError(str(exc))
    mats = samplers.sample_batch("so", cfg.n, cfg.count, method="euler",
                                 seed=cfg.seed, streams=cfg.streams)
    vals = np.abs(mats[:, cfg.n - 1, cfg.n - 1]) ** (2.0 * cfg.p)
    if cfg.q is not None:
        vals = vals * np.abs(mats[:, cfg.n - 2, cfg.n - 2]) ** (2.0 * cfg.q)
    est = float(vals.mean())
    se = float(vals.std(ddof=1) / math.sqrt(cfg.count))
    check = analytics.moment_check(exact, est, se)
    report = {
        "group": cfg.group, "n": cfg.n, "p": cfg.p, "q": cfg.q,
        "count": cfg.count, "seed": cfg.seed,
        "exact": exact, "estimate": est, "std_error": se,
        "z_score": check.statistic, "pass": check.passed,
    }
    if cfg.q is not None and cfg.n < 4:  # the joint form is derived for n >= 4
        report["outside_derivation_range"] = True
    _write_out(json.dumps(report), cfg.out)
    return EXIT_OK


def cmd_volumes(cfg: RunConfig) -> int:
    if cfg.group not in ("so", "o", "u"):
        raise UsageError("volumes cover --group so, o, u")
    n = cfg.n
    report = {"group": cfg.group, "n": n,
              "closed_form": analytics.volume(cfg.group, n)}
    if cfg.group == "o":
        report["quotients"] = {"o/o1": analytics.volume("o/o1", n)}
    if cfg.group == "u":
        report["quotients"] = {"u/u1": analytics.volume("u/u1", n),
                               "u/o": analytics.volume("u/o", n)}
    if n in analytics.QUADRATURE_DOMAIN.get(cfg.group, ()):
        got, refine = analytics.volume_quadrature(cfg.group, n)
        rel = abs(got - report["closed_form"]) / report["closed_form"]
        report["quadrature"] = got
        report["quadrature_rel_error"] = rel
        report["quadrature_refine_delta"] = refine
        report["checked"] = bool(rel <= 1e-6)
    else:
        report["checked"] = None
    _write_out(json.dumps(report), cfg.out)
    return EXIT_OK


def cmd_spectra(cfg: RunConfig) -> int:
    method = cfg.method or "hessenberg"
    if method == "full":
        method = "euler"
    if method not in ("euler", "hessenberg", "cmv"):
        raise UsageError("spectra methods: euler (full product), hessenberg, cmv")
    if cfg.n < 2:
        raise UsageError("need n >= 2")
    gen = {"euler": samplers.so_euler_batch,
           "hessenberg": spectra.hessenberg_batch,
           "cmv": spectra.cmv_batch}[method]
    mats = samplers._draw_lanes(gen, cfg.n, cfg.count, cfg.seed, cfg.streams)
    phases = linalg.eigenphases_batch(mats).ravel().tolist()
    if cfg.format == "json":
        text = json.dumps({"n": cfg.n, "method": method, "seed": cfg.seed,
                           "count": cfg.count, "phases": phases})
    else:
        lines = [f"# haar-forge spectra n={cfg.n} method={method} "
                 f"seed={cfg.seed} count={cfg.count}"]
        for i in range(0, len(phases), cfg.n):
            lines.append(",".join(repr(p) for p in phases[i:i + cfg.n]))
        text = "\n".join(lines) + "\n"
    _write_out(text, cfg.out)
    return EXIT_OK


def cmd_verify(cfg: RunConfig) -> int:
    results, ok = verify.run_all(seed=cfg.seed, level=cfg.level, echo=print)
    if cfg.out:
        payload = {
            "seed": cfg.seed, "level": cfg.level, "all_passed": ok,
            "criteria": [
                {"name": r.name, "passed": r.passed, "elapsed": r.elapsed,
                 "checks": r.checks}
                for r in results
            ],
        }
        _write_out(json.dumps(payload), cfg.out)
    return EXIT_OK if ok else EXIT_VERIFY


def _add_common(p, count_default=1):
    p.add_argument("--n", type=int, required=True, help="group dimension parameter")
    p.add_argument("--count", type=int, default=count_default)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--streams", type=int, default=1,
                   help="sibling streams (reproducible batch lanes)")
    p.add_argument("--out", default=None, help="output path (default stdout)")


def build_parser() -> argparse.ArgumentParser:
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
    _add_common(p)
    p.set_defaults(fn=cmd_sample)

    p = sub.add_parser("moments", help="closed-form entry moments vs Monte Carlo")
    p.add_argument("--group", required=True, choices=samplers.GROUP_TAGS)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--q", type=float, default=None)
    _add_common(p, count_default=100_000)
    p.set_defaults(fn=cmd_moments)

    p = sub.add_parser("volumes", help="group volumes and quadrature cross-checks")
    p.add_argument("--group", required=True, choices=samplers.GROUP_TAGS)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_volumes)

    p = sub.add_parser("spectra", help="dump eigenphase samples")
    p.add_argument("--method", default="hessenberg",
                   choices=["euler", "full", "hessenberg", "cmv"])
    p.add_argument("--format", default="json", choices=["json", "csv"])
    _add_common(p, count_default=100)
    p.set_defaults(fn=cmd_spectra)

    p = sub.add_parser("verify", help="run the full acceptance battery")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--level", type=float, default=analytics.DEFAULT_LEVEL)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_verify)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for usage errors already
        return int(exc.code) if exc.code is not None else EXIT_USAGE
    try:
        ns = vars(args).copy()
        ns.pop("command_name", None)
        fn = ns.pop("fn")
        cfg = RunConfig(command=fn.__name__.removeprefix("cmd_"), **ns)
        return fn(cfg)
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
