"""The three workloads: their op tables, and one op = timed call + output check.

A workload is a table of op specs.  One cycle runs every spec once (the
fast ones FAST_REPEATS times) in a fixed order, with library seeds drawn
from ``(workload, run seed, cycle)``, so each cycle does the same mix of
work and the same run seed gives the same inputs.  The library receives
only the generated ``(group, n, count, method, seed, streams)`` values.

draw    interleaved batched draws over every (group, method) pair plus the
        circular ensembles and the Hessenberg/CMV models.  Stacks range from
        a few KiB, bound by Python overhead, to 5-8 MiB, 2.5 to 4 times the
        2 MiB per-core L2.  Euler composition, the angle laws and the
        permutation composition do the work; fileio, eigenphases and
        quadrature do none.  An item is one group element.
export  ``haar-forge sample --out`` in JSON and CSV, read back with
        ``fileio``: the serialization layer, writes beside reads, and the
        peak RSS of building a whole batch as text.  An item is one element
        written and read back.
check   ``haar-forge spectra`` (per-matrix eigenphases), the short verify
        criteria and the SO(3) volume quadrature: Sturm bisection,
        elimination determinants and per-node densities.  Criteria 1, 3 and
        8 are left out (5 s, 27 s and 10 s on a 2-core box; the quadrature
        op takes criterion 3's per-node density path), and so is criterion
        4, which times scipy's nested quadrature rather than haarforge.  An
        item is one op.
"""

from __future__ import annotations

import dataclasses
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import gates
from gates import require
from haarforge import analytics, cli, fileio, randstream, samplers, spectra, verify

WORKLOADS = ("draw", "export", "check")

# The verify battery runs at its acceptance seed, the seed the test suite
# asserts.  Each criterion holds about twenty statistical checks at level
# 0.001, so over the many seeds of a benchmark campaign a false alarm would
# be expected and would show as a failed op although no output is wrong.
# The run seed still sets where the criteria fall in each cycle.
ACCEPTANCE_SEED = 1

# phases are located to 1e-12 and merged within 1e-9 when degenerate
PHASE_TOL = 1e-8

# The fast ops (a few ms each) run this many times per cycle, with fresh
# seeds, so that the op latency quantiles of a run rest on more samples
# than the cycle count alone gives them.
FAST_REPEATS = 3


@dataclass
class Op:
    label: str
    items: int
    run: Callable[[], Any]            # the timed call
    check: Callable[[Any], bytes]     # raises GateError; returns digest bytes
    corrupt: Callable[[Any], Any]     # a copy with one sign flipped (self-test)
    out_path: str | None = None


# --- draw ---------------------------------------------------------------------

# (fn, group, method, n, count, streams); fn "sample" goes through sample_batch.
# The medium and large stacks: 0.25-1 MiB, and 2.5-4x the 2 MiB L2.
DRAW_LARGE = [
    ("sample", "so", "euler", 16, 512, 2),
    ("sample", "so", "euler", 16, 2560, 1),
    ("sample", "so", "euler", 64, 16, 2),
    ("sample", "o", "euler", 32, 64, 1),
    ("sample", "o", "euler", 16, 512, 2),
    ("sample", "u", "euler", 16, 256, 2),
    ("sample", "u", "euler", 16, 1792, 1),
    ("sample", "u", "euler", 32, 32, 2),
    ("sample", "sp", "euler", 8, 256, 1),
    ("sample", "sp", "euler", 8, 1536, 2),
    ("sample", "sp", "euler", 16, 16, 1),
    ("sample", "o", "qr", 32, 128, 2),
    ("sample", "o", "qr", 64, 192, 1),
    ("sample", "o", "householder", 32, 128, 1),
    ("sample", "o", "householder", 64, 224, 2),
    ("sample", "u", "qr", 32, 64, 1),
    ("sample", "u", "qr", 32, 384, 2),
    ("sample", "u", "householder", 32, 64, 2),
    ("sample", "u", "householder", 32, 384, 1),
    ("sample", "sn", "bubble", 16, 64, 1),
    ("sample", "sn", "bubble", 64, 4096, 2),
    ("coe_batch", "coe", "qr", 16, 256, 1),
    ("cse_batch", "cse", "qr", 8, 128, 1),
    ("hessenberg_batch", "hessenberg", "rotations", 64, 256, 1),
    ("cmv_batch", "cmv", "rotations", 64, 256, 1),
]
# The small stacks, bound by per-call Python overhead: every pair at 1-16 elements.
DRAW_SMALL = [("sample", group, method, n, count, streams)
         for group, method in (("so", "euler"), ("o", "euler"), ("o", "qr"),
                               ("o", "householder"), ("u", "euler"), ("u", "qr"),
                               ("u", "householder"), ("sp", "euler"), ("sn", "bubble"))
         for n, count, streams in ((4, 1, 1), (6, 4, 2), (8, 16, 1), (12, 8, 2))]
DRAW_SMALL += [(fn, group, method, n, count, 1)
         for fn, group, method in (("coe_batch", "coe", "qr"), ("cse_batch", "cse", "qr"),
                                   ("hessenberg_batch", "hessenberg", "rotations"),
                                   ("cmv_batch", "cmv", "rotations"))
         for n, count in ((4, 2), (8, 16))]
DRAW = DRAW_LARGE + DRAW_SMALL

COMPLEX = {"u", "sp", "coe", "cse"}


def matrix_dim(group: str, n: int) -> int:
    return 2 * n if group in ("sp", "cse") else n


def stack_bytes(group: str, n: int, count: int) -> int:
    if group == "sn":
        return count * n * 8
    d = matrix_dim(group, n)
    return count * d * d * (16 if group in COMPLEX else 8)


def check_matrices(group: str, n: int, count: int, out) -> bytes:
    """The structural gate for one draw; returns the digest bytes."""
    if group == "sn":
        return gates.permutations(out, n, count).tobytes()
    d = matrix_dim(group, n)
    m = gates.stack(out, count, d, complex_ok=group in COMPLEX)
    gates.unitary(m)
    if group in ("so", "hessenberg", "cmv"):
        gates.det_plus_one(m)
    if group == "o":
        gates.det_unimodular(m)
    if group == "sp":
        gates.symplectic(m)
    if group == "coe":
        gates.symmetric(m)
    if group == "cse":
        gates.self_dual(m)
    if group == "hessenberg":
        gates.zero_outside_band(m, lower=d, upper=1)
    if group == "cmv":
        gates.zero_outside_band(m, lower=2, upper=2)
    return np.ascontiguousarray(m).tobytes()


def flip_array(a):
    """Copy of ``a`` with the sign of its largest entry in the first element flipped."""
    a = np.array(a, copy=True)
    first = a[0]
    first.flat[int(np.argmax(np.abs(first)))] *= -1
    return a


def flip_words(words):
    words = [list(w) for w in words]
    words[0][0] = -words[0][0]
    return [tuple(w) for w in words]


def _draw_op(spec, seed: int) -> Op:
    fn, group, method, n, count, streams = spec
    if fn == "sample":
        def run():
            return samplers.sample_batch(group, n, count, method=method,
                                         seed=seed, streams=streams)
    else:
        mod = spectra if fn in ("hessenberg_batch", "cmv_batch") else samplers

        def run():
            return getattr(mod, fn)(randstream.RandomStream(seed, 0), n, count)
    return Op(label=f"{fn} {group}/{method} n={n} count={count} streams={streams}",
              items=count, run=run,
              check=lambda out: check_matrices(group, n, count, out),
              corrupt=flip_words if group == "sn" else flip_array)


# --- export -------------------------------------------------------------------

# (group, method, n, count, format, streams).  The twelve 200-matrix O(16)
# files (about 1.5 MB of JSON each) show the memory of building a batch as
# text.  They are a tenth of the ops, so the op_tail_ms percentile (ten ops
# from the top of a three-cycle run) falls among them and not in the sparse
# gap below them.
EXPORT_LARGE = [("o", "qr", 16, 200, "json", streams) for streams in (1, 2)] * 6
EXPORT_SMALL = [
    ("so", "euler", 4, 120, "json", 1),
    ("so", "euler", 8, 40, "csv", 2),
    ("so", "euler", 16, 12, "json", 2),
    ("o", "euler", 6, 40, "csv", 1),
    ("o", "qr", 16, 24, "json", 1),
    ("o", "qr", 16, 24, "csv", 2),
    ("o", "householder", 8, 60, "json", 2),
    ("o", "householder", 8, 60, "csv", 1),
    ("u", "euler", 4, 60, "json", 1),
    ("u", "euler", 4, 60, "csv", 2),
    ("u", "qr", 8, 30, "json", 2),
    ("u", "qr", 8, 30, "csv", 1),
    ("u", "householder", 16, 10, "json", 1),
    ("u", "householder", 16, 10, "csv", 2),
    ("sp", "euler", 2, 80, "json", 2),
    ("sp", "euler", 2, 80, "csv", 1),
    ("sn", "bubble", 16, 400, "json", 1),
    ("sn", "bubble", 16, 400, "csv", 2),
    ("sn", "bubble", 50, 200, "json", 2),
    ("sn", "bubble", 50, 200, "csv", 1),
]
# small files: every pair, 1-4 elements, both formats
EXPORT_SMALL += [(group, method, n, count, fmt, streams)
                 for group, method, n in (("so", "euler", 4), ("o", "euler", 6),
                                          ("o", "qr", 8), ("o", "householder", 6),
                                          ("u", "euler", 4), ("u", "qr", 6),
                                          ("u", "householder", 8), ("sp", "euler", 3),
                                          ("sn", "bubble", 12))
                 for fmt, count, streams in (("json", 1, 1), ("csv", 4, 2))]


def _read_permutation_csv(text: str):
    """fileio has no CSV reader for permutations; this is the check's own."""
    lines = text.splitlines()
    require(lines[0].startswith("# haar-forge group=sn"), "missing sn CSV header")
    return [tuple(int(t) for t in line.split(",")) for line in lines[1:] if line]


def _export_op(spec, seed: int, tmp: Path) -> Op:
    group, method, n, count, fmt, streams = spec
    path = str(tmp / f"sample.{fmt}")
    argv = ["sample", "--group", group, "--method", method, "--n", str(n),
            "--count", str(count), "--seed", str(seed), "--streams", str(streams),
            "--format", fmt, "--out", path]

    def run():
        rc = cli.main(argv)
        if rc != 0:
            raise RuntimeError(f"haar-forge sample exited {rc}")
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        if group == "sn" and fmt == "csv":
            return text  # written only: the library cannot read it back
        reader = fileio.json_to_matrices if fmt == "json" else fileio.csv_to_matrices
        return reader(text)

    def check(out) -> bytes:
        want = samplers.sample_batch(group, n, count, method=method,
                                     seed=seed, streams=streams)
        if group == "sn":
            got = _read_permutation_csv(out) if fmt == "csv" else out[1]
            gates.bits_equal(np.asarray(got, dtype=np.int64),
                             np.asarray(want, dtype=np.int64))
        else:
            meta, mats = out
            require(str(meta["group"]) == group and int(meta["n"]) == n
                    and int(meta["seed"]) == seed, f"metadata {meta} != the request")
            if group in COMPLEX:
                gates.bits_equal(mats, want)
            else:
                gates.bits_equal(np.ascontiguousarray(mats.real), want)
                require(not np.any(mats.imag), "real group read back with imaginary parts")
        with open(path, "rb") as fh:
            return fh.read()

    def corrupt(out):
        if group == "sn" and fmt == "csv":
            head, first, rest = out.split("\n", 2)
            return "\n".join([head, "-" + first, rest])
        meta, data = out
        return meta, (flip_words(data) if group == "sn" else flip_array(data))

    return Op(label=f"sample {group}/{method} n={n} count={count} {fmt} streams={streams}",
              items=count, run=run, check=check, corrupt=corrupt, out_path=path)


# --- check --------------------------------------------------------------------

CRITERIA = (2, 5, 6, 7, 9, 10, 11, 12)

# spectra (method, n, count, streams): one or two matrices per call at even
# n = 6..16; a single matrix runs in one lane whatever --streams says
SPECTRA = [(method, n, count, streams)
           for n in range(6, 17, 2)
           for count, streams in ((1, 1), (2, 1), (2, 2))
           for method in ("hessenberg", "cmv", "euler")]


def _lanes(count: int, streams: int):
    lanes = max(1, min(streams, count))
    base, rem = divmod(count, lanes)
    return [base + (1 if i < rem else 0) for i in range(lanes)]


def _spectra_op(spec, seed: int, tmp: Path) -> Op:
    method, n, count, streams = spec
    path = str(tmp / "spectra.json")
    argv = ["spectra", "--method", method, "--n", str(n), "--count", str(count),
            "--seed", str(seed), "--streams", str(streams), "--out", path]

    def run():
        rc = cli.main(argv)
        if rc != 0:
            raise RuntimeError(f"haar-forge spectra exited {rc}")
        with open(path, encoding="utf-8") as fh:
            return fh.read()

    def check(text) -> bytes:
        payload = json.loads(text)
        phases = np.asarray(payload["phases"], dtype=float)
        require(phases.shape == (n * count,), f"{phases.size} phases for {count} x n={n}")
        require(bool(((phases >= 0.0) & (phases < 2.0 * np.pi)).all()),
                "phase outside [0, 2 pi)")
        gen = {"euler": samplers.so_euler_batch, "hessenberg": spectra.hessenberg_batch,
               "cmv": spectra.cmv_batch}[method]
        mats = np.concatenate([gen(randstream.RandomStream(seed, lane), n, c)
                               for lane, c in enumerate(_lanes(count, streams))])
        ref = np.angle(np.linalg.eigvals(mats))
        for i in range(count):
            gates.circular_match(phases[i * n:(i + 1) * n], ref[i], PHASE_TOL)
        return text.encode()

    def corrupt(text):
        payload = json.loads(text)
        ph = payload["phases"]
        k = next(i for i, p in enumerate(ph) if 0.1 < p % np.pi < np.pi - 0.1)
        ph[k] = -ph[k]
        return json.dumps(payload)

    return Op(label=f"spectra {method} n={n} count={count} streams={streams}",
              items=1, run=run, check=check, corrupt=corrupt, out_path=path)


def _criterion_op(k: int) -> Op:
    def run():
        return getattr(verify, f"criterion_{k}")(ACCEPTANCE_SEED)

    def check(res) -> bytes:
        failing = [c["label"] for c in res.checks if not c["passed"]]
        require(res.passed and not failing, f"criterion {k} failed: {failing}")
        return json.dumps([res.name] + [[c["label"], c["passed"], c["detail"]]
                                        for c in res.checks]).encode()

    return Op(label=f"criterion_{k}", items=1, run=run, check=check,
              corrupt=lambda res: dataclasses.replace(res, passed=False))


def _quadrature_op() -> Op:
    def check(out) -> bytes:
        value, refine = out
        exact = analytics.volume("so", 3)
        rel = abs(value - exact) / exact
        require(rel <= 1e-6, f"quadrature relative error {rel:.3e} > 1e-6")
        return repr((float(value), float(refine))).encode()

    return Op(label="volume_quadrature so 3", items=1,
              run=lambda: analytics.volume_quadrature("so", 3), check=check,
              corrupt=lambda out: (-out[0], out[1]))


# --- cycles -------------------------------------------------------------------


def _small(spec, n_at, count_at, n_max, count_max):
    spec = list(spec)
    spec[n_at] = min(spec[n_at], n_max)
    spec[count_at] = min(spec[count_at], count_max)
    return tuple(spec)


def _spread(major, minor):
    """``major`` in order, with ``minor`` spread evenly between its items."""
    out, placed = [], 0
    for i, op in enumerate(major):
        out.append(op)
        while placed < (i + 1) * len(minor) // len(major):
            out.append(minor[placed])
            placed += 1
    return out


def cycle(workload: str, seed: int, index: int, tmp: Path, small: bool = False):
    """The ops of one cycle; ``small`` gives the self-test sizes.

    The order is fixed, with the slow ops spread evenly among the fast ones,
    so that seeds differ only in the values drawn, not in how the ops share
    the allocator and the caches.
    """
    rng = random.Random(f"{workload}:{seed}:{index}")

    def seeds(specs):
        return [(s, rng.randrange(2 ** 31)) for s in specs]

    if workload == "draw":
        def ops(specs):
            return [_draw_op(_small(s, 3, 4, 8, 8) if small else s, sd)
                    for s, sd in seeds(specs)]
        return _spread(ops(DRAW_SMALL * FAST_REPEATS), ops(DRAW_LARGE))
    if workload == "export":
        def ops(specs):
            return [_export_op(_small(s, 2, 3, 6, 4) if small else s, sd, tmp)
                    for s, sd in seeds(specs)]
        return _spread(ops(EXPORT_SMALL * FAST_REPEATS), ops(EXPORT_LARGE))
    if workload == "check":
        spectra_ops = [_spectra_op(_small(s, 1, 2, 8, 2) if small else s, sd, tmp)
                       for s, sd in seeds(SPECTRA * FAST_REPEATS)]
        slow = [_criterion_op(k) for k in ((7, 9, 10) if small else CRITERIA)]
        return _spread(spectra_ops, slow + [_quadrature_op()])
    raise ValueError(f"unknown workload {workload!r}")
