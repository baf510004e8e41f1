"""What the traced run instruments, and the per-layer metrics made from it.

Each haarforge module is a layer.  Its public functions get spans; the hot
per-node functions in COUNTED get call counters instead.  WORK says what
each span records about its call (items, variates, rotations, bytes), and
``per_layer`` turns spans, counters and op records into the metrics that
``BENCHMARK.json`` lists under ``per_layer``, each with its base.
"""

from __future__ import annotations

import importlib
from collections import Counter, defaultdict

import numpy as np

from tracer import Tracer
from workloads import CRITERIA

MODULES = ("randstream", "linalg", "euler", "samplers", "spectra",
           "analytics", "fileio", "verify", "cli")

RANDSTREAM_METHODS = ("__init__", "sibling", "uniform", "gaussian", "cos_theta_so",
                      "phi_unitary", "rho_symplectic", "sin2phi_quaternion")

COUNTED = ("euler.density_so", "euler.density_u",
           "linalg.charpoly_eval", "linalg.determinant")

SAMPLER_FNS = ("so_euler_batch", "u_euler_batch", "sp_euler_batch", "qr_batch",
               "householder_batch", "permutation_batch", "coe_batch", "cse_batch")


TESTS = ("analytics.ks_test", "analytics.ks_two_sample", "analytics.chi_square",
         "analytics.moment_check")
WRITERS = ("fileio.matrices_to_json", "fileio.permutations_to_json",
           "fileio.matrices_to_csv", "fileio.permutations_to_csv")
READERS = ("fileio.json_to_matrices", "fileio.csv_to_matrices")


def _arg(args, kwargs, pos, name, default=None):
    return args[pos] if len(args) > pos else kwargs.get(name, default)


def _rotations(args, kwargs, result):
    """B * n(n-1)/2 two-plane factors for an SO/U stack (n = d)."""
    b, d = result.shape[0], result.shape[-1]
    return b * d * (d - 1) // 2


def _sp_blocks(args, kwargs, result):
    """B * n(n-1)/2 quaternion blocks for a 2n x 2n stack."""
    b, n = result.shape[0], result.shape[-1] // 2
    return b * n * (n - 1) // 2


def _quadrature_nodes(args, kwargs, result):
    tag, n = _arg(args, kwargs, 0, "tag"), _arg(args, kwargs, 1, "n")
    nodes = _arg(args, kwargs, 2, "nodes", 24)
    dim = n * (n - 1) // 2 if tag == "so" else (1 if n == 1 else 4)
    return nodes ** dim + (nodes + nodes // 2) ** dim  # coarse and 3/2-refined grids


def _checks(args, kwargs, result):
    return [sum(not c["passed"] for c in result.checks), len(result.checks)]


def _size(args, kwargs, result):
    return int(np.size(result))


def _n_count(args, kwargs, result):
    return [int(_arg(args, kwargs, 1, "n")), int(_arg(args, kwargs, 2, "count"))]


def _householder(args, kwargs, result):
    cplx = _arg(args, kwargs, 3, "kind") == "complex"
    return [int(_arg(args, kwargs, 1, "n")), int(_arg(args, kwargs, 2, "count")), int(cplx)]


WORK = {
    **{f"samplers.{fn}": _n_count for fn in SAMPLER_FNS},
    "samplers.householder_batch": _householder,
    **{f"randstream.RandomStream.{m}": _size for m in RANDSTREAM_METHODS[2:]},
    "euler.compose_so_batch": _rotations,
    "euler.compose_u_batch": _rotations,
    "euler.compose_sp_batch": _sp_blocks,
    "spectra.rotation_product_batch":
        lambda args, kwargs, result: result.shape[0] * len(_arg(args, kwargs, 1, "order")),
    "analytics.volume_quadrature": _quadrature_nodes,
    **{f"verify.criterion_{k}": _checks for k in range(1, 13)},
    **{w: (lambda args, kwargs, result: len(result)) for w in WRITERS},
    **{r: (lambda args, kwargs, result: len(_arg(args, kwargs, 0, "text"))) for r in READERS},
}


def make_tracer():
    mods = [importlib.import_module(f"haarforge.{m}") for m in MODULES]
    stream_cls = importlib.import_module("haarforge.randstream").RandomStream
    return Tracer(mods, {stream_cls: RANDSTREAM_METHODS}, COUNTED, WORK)


def largest_so_euler(tracer):
    """(n, count) of the largest so_euler_batch call, or None."""
    idx = tracer.names.index("samplers.so_euler_batch")
    calls = [tuple(rec[5]) for rec in tracer.spans if rec[0] == idx and rec[5]]
    return max(calls, key=lambda nc: (nc[0] * nc[0] * nc[1], nc)) if calls else None


def per_layer(tracer, traced_ops, plain_ops, yardstick):
    """Per-layer metrics and their bases from one traced pass.

    ``traced_ops`` and ``plain_ops`` are the op records of the traced pass
    and of the untraced pass over the same cycles, with their times at the
    reference speed ("adj"); ``yardstick`` is
    (n, count, seconds per np.linalg.qr call) for the largest SO Euler stack,
    or None when the workload draws none.
    """
    names, spans = tracer.names, tracer.spans
    self_ns = tracer.self_times_ns()
    by_name = defaultdict(list)  # qualified name -> span indices
    kids = defaultdict(list)     # span index -> direct child indices
    self_by_name = Counter()
    for i, rec in enumerate(spans):
        by_name[names[rec[0]]].append(i)
        kids[rec[3]].append(i)
        self_by_name[names[rec[0]]] += self_ns[i]

    def qual(i):
        return names[spans[i][0]]

    def outer(name):
        """Spans of ``name`` not directly inside another span of ``name``."""
        return [i for i in by_name[name] if spans[i][3] < 0 or qual(spans[i][3]) != name]

    def incl_s(name, idx=None):
        idx = outer(name) if idx is None else idx
        return sum(spans[i][2] - spans[i][1] for i in idx) / 1e9

    def self_s(prefixes):
        return sum(v for k, v in self_by_name.items() if k.startswith(prefixes)) / 1e9

    def work_sum(name, idx=None, key=None):
        idx = by_name[name] if idx is None else idx
        vals = [spans[i][5] for i in idx if spans[i][5] is not None]
        return sum(key(v) if key else v for v in vals)

    def ratio(num, den):
        return num / den if den else 0.0

    def children(i, name):
        return [j for j in kids[i] if qual(j) == name]

    m, base = {}, {}

    def put(name, value, unit, **bases):
        m[name] = {"value": float(value), "unit": unit}
        if bases:
            base[name] = bases

    op_ns = sum(r["dt"] for r in traced_ops) * 1e9
    top_ns = sum(rec[2] - rec[1] for rec in spans if rec[3] < 0 and rec[4] is not None)

    # randstream
    rs_self = self_s("randstream.")
    top_rs = [i for i in range(len(spans)) if qual(i).startswith("randstream.")
              and spans[i][5] is not None
              and (spans[i][3] < 0 or not qual(spans[i][3]).startswith("randstream."))]
    variates = sum(spans[i][5] for i in top_rs)
    put("randstream.self_s", rs_self, "s")
    put("randstream.ns_per_variate", ratio(rs_self * 1e9, variates), "ns",
        variates_returned=variates)
    angles = work_sum("randstream.RandomStream.cos_theta_so")
    gauss = sum(spans[j][5] for i in by_name["randstream.RandomStream.cos_theta_so"]
                for j in children(i, "randstream.RandomStream.gaussian"))
    put("randstream.gaussians_per_so_angle", ratio(gauss, angles), "ratio",
        so_angle_variates=angles, gaussians=gauss)

    # euler
    so_u = outer("euler.compose_so_batch") + outer("euler.compose_u_batch")
    rotations = work_sum(None, so_u)
    compose_s = incl_s(None, so_u) + incl_s("euler.compose_sp_batch")
    put("euler.compose.self_s", compose_s, "s")
    put("euler.compose.ns_per_rotation", ratio(incl_s(None, so_u) * 1e9, rotations), "ns",
        rotations=rotations)
    blocks = work_sum("euler.compose_sp_batch")
    put("euler.compose_sp.ns_per_block",
        ratio(incl_s("euler.compose_sp_batch") * 1e9, blocks), "ns", blocks=blocks)
    nodes = work_sum("analytics.volume_quadrature")
    density = sum(v for (fn, _), v in tracer.counts.items()
                  if fn in ("euler.density_so", "euler.density_u"))
    put("euler.density.calls_per_node", ratio(density, nodes), "ratio",
        quadrature_nodes=nodes, density_calls=density)

    # samplers
    for fn in SAMPLER_FNS:
        name = f"samplers.{fn}"
        idx = outer(name)
        items = work_sum(name, idx, key=lambda v: v[1])
        put(f"{name}.us_per_item", ratio(incl_s(name, idx) * 1e6, items), "us", items=items)
    put("samplers.self_s", self_s("samplers."), "s")
    qr_outer = outer("samplers.qr_batch")
    redrawn = work_sum("samplers.qr_batch",
                       [i for i in by_name["samplers.qr_batch"] if i not in set(qr_outer)],
                       key=lambda v: v[1])
    put("samplers.qr_batch.redraws", redrawn, "count",
        qr_items=work_sum("samplers.qr_batch", qr_outer, key=lambda v: v[1]))
    hh_calls = by_name["samplers.householder_batch"]
    extra = 0
    for i in hh_calls:
        n, _, cplx = spans[i][5]
        extra += len(children(i, "randstream.RandomStream.gaussian")) - n * (1 + cplx)
    put("samplers.householder_batch.redraws", extra, "count",
        householder_calls=len(hh_calls),
        expected_gaussian_calls_per_call="n real, 2n complex")

    # yardstick
    if yardstick:
        n, count, qr_s = yardstick
        same = [i for i in outer("samplers.so_euler_batch") if tuple(spans[i][5]) == (n, count)]
        euler_us = ratio(incl_s(None, same) * 1e6, count * len(same))
        qr_us = qr_s * 1e6 / count
    else:
        n = count = 0
        euler_us = qr_us = 0.0
    put("yardstick.np_qr.us_per_matrix", qr_us, "us", n=n, count=count)
    put("samplers.so_euler_batch.vs_np_qr", ratio(euler_us, qr_us), "ratio",
        so_euler_us_per_matrix=euler_us, n=n, count=count)

    # spectra
    rp = "spectra.rotation_product_batch"
    rp_rot = work_sum(rp)
    put(f"{rp}.self_s", self_s(rp), "s")
    put(f"{rp}.ns_per_rotation", ratio(incl_s(rp) * 1e9, rp_rot), "ns", rotations=rp_rot)

    # linalg
    eig = outer("linalg.eigenphases")
    cp = tracer.counts[("linalg.charpoly_eval", "linalg.eigenphases")]
    put("linalg.eigenphases.calls", len(eig), "count")
    put("linalg.eigenphases.ms_per_call", ratio(incl_s(None, eig) * 1e3, len(eig)), "ms",
        calls=len(eig))
    put("linalg.charpoly_evals_per_eigenphases", ratio(cp, len(eig)), "ratio",
        eigenphases_calls=len(eig), charpoly_evals=cp)
    put("linalg.self_s", self_s("linalg."), "s")

    # analytics
    put("analytics.volume_quadrature.us_per_node",
        ratio(incl_s("analytics.volume_quadrature") * 1e6, nodes), "us", nodes=nodes)
    put("analytics.reynolds_average.self_s", self_s("analytics.reynolds_average"), "s")
    put("analytics.tests.self_s", self_s(TESTS), "s")

    # verify
    for k in CRITERIA:
        name = f"verify.criterion_{k}"
        calls = len(by_name[name])
        put(f"{name}.s", ratio(incl_s(name), calls), "s", calls=calls)
    checks = [spans[i][5] for k in range(1, 13) for i in by_name[f"verify.criterion_{k}"]]
    failed, total = sum(c[0] for c in checks), sum(c[1] for c in checks)
    put("verify.checks_failed_frac", ratio(failed, total), "frac", checks=total)

    # fileio
    w_s, r_s = self_s(WRITERS), self_s(READERS)
    w_b = sum(work_sum(w) for w in WRITERS)
    r_b = sum(work_sum(r) for r in READERS)
    put("fileio.write.self_s", w_s, "s")
    put("fileio.read.self_s", r_s, "s")
    put("fileio.write_mb_per_s", ratio(w_b / 1e6, w_s), "MB/s", bytes=w_b)
    put("fileio.read_mb_per_s", ratio(r_b / 1e6, r_s), "MB/s", bytes=r_b)
    put("fileio.bytes", w_b, "B", written=w_b, read=r_b)

    # cli
    put("cli.main.self_s", self_s("cli."), "s", main_calls=len(by_name["cli.main"]))
    put("cli.bytes_written", sum(r.get("bytes_out", 0) for r in traced_ops), "B")

    # harness: tracing overhead (the same cycles traced against untraced, at
    # the reference speed, so that the host's drift between the passes
    # cancels) and who holds the op time
    traced_s = sum(r["adj"] for r in traced_ops)
    plain_s = sum(r["adj"] for r in plain_ops)
    put("trace.overhead_frac", ratio(traced_s - plain_s, plain_s), "frac",
        traced_s=traced_s, untraced_s=plain_s, ops=len(traced_ops),
        spans=len(spans))
    module_self = Counter()
    for i in range(len(spans)):
        if spans[i][4] is not None:
            module_self[qual(i).split(".")[0]] += self_ns[i]
    for mod in MODULES:
        put(f"{mod}.self_frac", ratio(module_self[mod], op_ns), "frac")
    put("harness.self_frac", ratio(op_ns - top_ns, op_ns), "frac")
    return m, base
