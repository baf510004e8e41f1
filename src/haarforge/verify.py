"""The verification battery behind ``haar-forge verify``.

Each criterion function is deterministic given (seed, level) and returns a
CriterionResult holding one or more named checks.  The same functions back
the acceptance test suite, so the CLI and pytest agree by construction.

The ``_criterion(title)`` decorator is the registry: it appends
``criterion_<k>`` to CRITERIA, taking k from the function name, times the
call and names the result "<k> <title>".  Criterion k draws from the stream
ids ``100*k + lane``, so criteria stay independent under one seed; the
fixed group elements of criteria 11 and 12 come from ``9900 + lane``.

Only a draw's statistics outlive it: each sample stack is reduced to the
arrays or numbers its checks read before the next draw is made, so a
criterion's peak memory is one draw's own peak, not the sum of its stacks.

Oracles used here are independent of the construction they check:
Gauss-Legendre quadrature on the two analytic halves of the square for
criterion 4, checked against the exact 16 pi and 8 pi^2; LAPACK
determinants for the recurrence (``linalg.charpoly_eval``, one
``np.linalg.det`` call on the stack of all trials of one n); exact
probability-tree enumeration for permutations; and cross-sampler /
cross-construction two-sample tests elsewhere.  The enumeration weighs the
decision bits by exact fractions and composes them with each kernel of the
draws' own ``samplers._compose_cosets``, so criterion 9 certifies the
composition that sampling runs.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from haarforge import analytics, samplers, spectra
from haarforge.analytics import (
    DEFAULT_LEVEL,
    TestReport,
    chi_square,
    ks_test,
    ks_two_sample,
    moment_check,
)
from haarforge.linalg import (
    ConvergenceError,
    adjoint_residual,
    charpoly_eval,
    eigenphases_batch,
    symplectic_form,
    symplectic_residual,
)
from haarforge.randstream import RandomStream
from haarforge.samplers import sampler

TWO_PI = 2.0 * np.pi

_FIXED_SID = 9900  # stream-id base of the fixed group elements

CRITERIA = []  # criterion_1 .. criterion_12, in order, filled by _criterion


@dataclass
class CriterionResult:
    name: str
    passed: bool
    checks: list = field(default_factory=list)
    elapsed: float = 0.0

    def lines(self):
        out = []
        for c in self.checks:
            tag = "pass" if c["passed"] else "FAIL"
            out.append(f"    [{tag}] {c['label']}: {c['detail']}")
        return out


def _check(label: str, passed: bool, detail: str, statistic=None, critical=None,
           level=None) -> dict:
    """One check line; a statistical one also carries its numbers, with
    margin = critical - statistic (>= 0 exactly when it passes), and None
    for checks that are no test.  A number that is not finite, such as a
    NaN statistic and its margin, is None too, so the JSON stays valid."""
    margin = None if statistic is None else critical - statistic

    def finite(x):
        return x if x is None or math.isfinite(x) else None
    return {"label": label, "passed": bool(passed), "detail": detail,
            "statistic": finite(statistic), "critical": finite(critical),
            "margin": finite(margin), "level": level}


def _from_report(r: TestReport) -> dict:
    return _check(r.label or r.method, r.passed,
                  f"{r.method} stat={r.statistic:.4g} crit={r.critical:.4g}",
                  r.statistic, r.critical, r.details.get("level"))


def _criterion(title: str):
    """Register ``criterion_<k>(seed, level, sid, checks)`` as CRITERIA[k-1],
    ``criterion_<k>(seed, level)``: the body gets ``sid = 100*k`` and an empty
    ``checks`` list to fill, and the call is timed into a CriterionResult."""
    def register(body):
        k = int(body.__name__.removeprefix("criterion_"))
        assert k == len(CRITERIA) + 1, f"{body.__name__} registered out of order"

        def run(seed: int, level: float = DEFAULT_LEVEL) -> CriterionResult:
            t0 = time.perf_counter()
            checks = []
            body(seed, level, 100 * k, checks)
            return CriterionResult(name=f"{k} {title}",
                                   passed=all(c["passed"] for c in checks),
                                   checks=checks, elapsed=time.perf_counter() - t0)
        run.__name__ = run.__qualname__ = body.__name__
        run.__doc__ = body.__doc__
        CRITERIA.append(run)
        return run
    return register


# --- criterion 1: single-entry moment oracle --------------------------------


@_criterion("single-entry moments (beta law)")
def criterion_1(seed, level, sid, checks):
    """<|X_NN|^{2p}> over 1e5 Haar SO(N) samples matches the gamma closed
    form within 5 standard errors, N = 2..8, p in {1/2, 1, 2, 3}; <= 60 s."""
    t0 = time.perf_counter()
    count = 100_000
    for n in range(2, 9):
        entry = np.abs(samplers.so_euler_batch(RandomStream(seed, sid + n), n, count)
                       [:, n - 1, n - 1])
        for p in (0.5, 1.0, 2.0, 3.0):
            est, se = analytics.mean_and_error(entry ** (2.0 * p))
            rep = moment_check(analytics.moment_single(n, p), est, se,
                               label=f"moment N={n} p={p}")
            checks.append(_from_report(rep))
    elapsed = time.perf_counter() - t0
    checks.append(_check("runtime <= 60 s", elapsed <= 60.0, f"{elapsed:.1f} s"))


# --- criterion 2: joint moment and gamma reduction ---------------------------


@_criterion("joint moments (Pfaff-Saalschutz form)")
def criterion_2(seed, level, sid, checks):
    count, chunk = 1_000_000, 100_000  # chunk sets each draw's size: it defines the stream
    s = RandomStream(seed, sid)

    def reduced(stack):  # only the statistic outlives a draw, not its stack
        return (stack[:, 2, 2] ** 2) * (stack[:, 1, 1] ** 2)

    total, total_sq = 0.0, 0.0
    for _ in range(count // chunk):
        vals = reduced(samplers.so_euler_batch(s, 3, chunk))
        total += vals.sum()
        total_sq += (vals * vals).sum()
    est = total / count
    var = total_sq / count - est * est
    se = math.sqrt(var / count)
    rep = moment_check(analytics.moment_joint(3, 1, 1), est, se,
                       label="joint moment N=3 p=q=1 (= 2/15)")
    checks.append(_from_report(rep))
    worst = 0.0
    for n in range(4, 11):
        for p in (0.0, 0.5, 1.0, 1.5, 2.0, 3.0):
            a = analytics.moment_joint(n, p, 0.0)
            b = analytics.moment_single(n, p)
            worst = max(worst, abs(a - b) / abs(b))
    checks.append(_check("moment_joint(N,p,0) == moment_single (rel 1e-14)",
                         worst <= 1e-14, f"worst rel {worst:.2e}"))


# --- criterion 3: volumes by quadrature and sphere-ratio identities ----------


@_criterion("volumes and sphere-area ratios")
def criterion_3(seed, level, sid, checks):
    for tag, ns in analytics.QUADRATURE_DOMAIN.items():
        for n in ns:
            got, refine = analytics.volume_quadrature(tag, n)
            want = analytics.volume(tag, n)
            rel = abs(got - want) / want
            checks.append(_check(f"quadrature vol {tag}({n})", rel <= analytics.QUADRATURE_RTOL,
                                 f"quad={got:.10g} closed={want:.10g} rel={rel:.2e} "
                                 f"refine-delta={refine:.2e}"))
    worst_so = max(abs(a / b - 1.0) for a, b in
                   (analytics.so_volume_sphere_ratio(n) for n in range(2, 21)))
    worst_u = max(abs(a / b - 1.0) for a, b in
                  (analytics.u_volume_sphere_ratio(n) for n in range(1, 21)))
    checks.append(_check("SO sphere-area ratio identity N<=20", worst_so <= 1e-12,
                         f"worst rel {worst_so:.2e}"))
    checks.append(_check("U sphere-area ratio identity N<=20", worst_u <= 1e-12,
                         f"worst rel {worst_u:.2e}"))


# --- criterion 4: circular-ensemble normalizations ---------------------------


def _abs_diff_integral(beta: float) -> float:
    """int over [0,2pi)^2 of |e^{i a} - e^{i b}|^beta by Gauss-Legendre in (b, s)
    on the square's analytic halves: a = b + s(2pi - b) above the diagonal, a = s b below."""
    def halves(axes):
        b, s = axes
        up, down = TWO_PI - b, b
        return (up * (2.0 * np.sin(0.5 * s * up)) ** beta
                + down * (2.0 * np.sin(0.5 * (1.0 - s) * down)) ** beta)
    return analytics._tensor_gl([(0.0, TWO_PI), (0.0, 1.0)], halves, analytics.QUADRATURE_NODES)


@_criterion("COE/CUE normalization constants")
def criterion_4(seed, level, sid, checks):
    raw1 = _abs_diff_integral(1.0)
    rel1 = abs(raw1 - 16.0 * math.pi) / (16.0 * math.pi)
    checks.append(_check("raw beta=1 integral = 16*pi", rel1 <= 1e-8,
                         f"quad={raw1:.12g} rel={rel1:.2e}"))
    raw2 = _abs_diff_integral(2.0)
    rel2 = abs(raw2 - 8.0 * math.pi ** 2) / (8.0 * math.pi ** 2)
    checks.append(_check("raw beta=2 integral = 8*pi^2", rel2 <= 1e-8,
                         f"quad={raw2:.12g} rel={rel2:.2e}"))
    c2 = analytics.coe_normalization(2)
    rel3 = abs(c2 - raw1 / TWO_PI ** 2) / c2
    checks.append(_check("C_2 = 4/pi under the (2*pi)^-N convention",
                         rel3 <= 1e-8, f"stated={c2:.12g} rel={rel3:.2e}"))
    ct2 = analytics.cue_normalization(2)
    rel4 = abs(ct2 - raw2) / ct2
    checks.append(_check("C~_2 = 8*pi^2 raw", rel4 <= 1e-8,
                         f"stated={ct2:.12g} rel={rel4:.2e}"))


# --- criterion 5: cross-sampler equivalence on SO(6) --------------------------


def _so_conditioned(method, seed, sid, n, count):
    """count det=+1 samples from the O(n) sampler of ``method``.

    Raises ConvergenceError when a round of 1.2*count + 64 draws keeps no
    det=+1 matrix (probability 2^-64 for a Haar sampler).
    """
    s = RandomStream(seed, sid)
    out = []
    have = 0
    while have < count:
        draw = sampler("o", method).draw(s, n, int(count * 1.2) + 64)
        sign, _ = np.linalg.slogdet(draw)
        keep = draw[sign > 0]
        if not len(keep):
            raise ConvergenceError(
                f"O({n}) {method} sampler gave {len(draw)} draws without det = +1")
        out.append(keep)
        have += len(keep)
    return np.concatenate(out, axis=0)[:count]


@_criterion("cross-sampler equivalence SO(6)")
def criterion_5(seed, level, sid, checks):
    n, count = 6, 10_000
    stats = {
        "tr": lambda m: np.einsum("bii->b", m).real,
        "entry11": lambda m: m[:, 0, 0].real.copy(),
    }

    def reduced(stack):  # only the statistics outlive a draw, not its stack
        return {sname: fn(stack) for sname, fn in stats.items()}

    sets = [("euler", reduced(sampler("so", "euler").draw(RandomStream(seed, sid), n, count)))]
    for lane, method in enumerate(("qr", "householder"), start=1):
        try:  # a sampler with no det = +1 draws fails here, not the battery
            sets.append((method, reduced(_so_conditioned(method, seed, sid + lane, n, count))))
        except ConvergenceError as exc:
            checks.append(_check(f"{method} gives det = +1 draws", False, str(exc)))
    for sname in stats:
        for (la, ma), (lb, mb) in itertools.combinations(sets, 2):
            rep = ks_two_sample(ma[sname], mb[sname], level=level,
                                label=f"{sname}: {la} vs {lb}")
            checks.append(_from_report(rep))


# --- criterion 6: spectral equivalence and zero structure ---------------------


@_criterion("spectral equivalence (Hessenberg / CMV / full)")
def criterion_6(seed, level, sid, checks):
    n, count = 6, 10_000
    full = samplers.so_euler_batch(RandomStream(seed, sid), n, count)
    hess = spectra.hessenberg_batch(RandomStream(seed, sid + 1), n, count)
    cmv = spectra.cmv_batch(RandomStream(seed, sid + 2), n, count)
    i, j = np.indices((n, n))
    hess_zero = float(np.abs(hess[:, j > i + 1]).max())
    checks.append(_check("Hessenberg zero pattern (<= 1e-15)",
                         hess_zero <= 1e-15, f"max |entry| {hess_zero:.2e}"))
    cmv_zero = float(np.abs(cmv[:, abs(i - j) > 2]).max())
    checks.append(_check("CMV bandwidth <= 2 (zeros <= 1e-15)",
                         cmv_zero <= 1e-15, f"max |entry| {cmv_zero:.2e}"))
    phases = {name: spectra.so_min_eigenphase_batch(m)
              for name, m in (("full", full), ("hessenberg", hess), ("cmv", cmv))}
    for (la, pa), (lb, pb) in itertools.combinations(phases.items(), 2):
        rep = ks_two_sample(pa, pb, level=level,
                            label=f"min eigenphase: {la} vs {lb}")
        checks.append(_from_report(rep))


# --- criterion 7: characteristic-polynomial recurrence ------------------------


@_criterion("Hessenberg charpoly recurrence")
def criterion_7(seed, level, sid, checks):
    """chi_n(lam) by the recurrence matches det(lam I - E) by LAPACK's LU
    within 1e-10 (1 + |lam|)^n over 100 trials, n = 2..10 in turn.  A trial
    draws its n-1 cosines, then its 20 complex lam as one block of 40
    uniforms (re, im interleaved); the trials of each n are then checked
    in one array pass of each kind."""
    s = RandomStream(seed, sid)
    draws = [(s.uniform(-1.0, 1.0, size=1 + trial % 9),
              s.uniform(-2.0, 2.0, size=40).view(complex)) for trial in range(100)]
    worst = []
    for n in range(2, 11):
        c, lam = (np.array(x) for x in zip(*draws[n - 2::9]))  # (T, n-1), (T, 20)
        chi = spectra.charpoly_recurrence(c[:, None], lam)
        det = charpoly_eval(spectra.hessenberg_entries(c)[:, None], lam)
        worst.append((np.abs(chi - det) / (1e-10 * (1.0 + np.abs(lam)) ** n)).max())
    worst_ratio = float(np.max(worst))  # NaN fails the check
    checks.append(_check("recurrence matches elimination determinant",
                         worst_ratio <= 1.0,
                         f"worst |chi - det| / bound = {worst_ratio:.3g}"))


# --- criterion 8: limit laws ---------------------------------------------------


def _poisson1_bins(values: np.ndarray, level: float, label: str) -> TestReport:
    kmax = 5
    counts = np.array([(values == k).sum() for k in range(kmax)]
                      + [(values >= kmax).sum()], dtype=float)
    probs = np.array([math.exp(-1.0) / math.factorial(k) for k in range(kmax)])
    probs = np.append(probs, 1.0 - probs.sum())
    return chi_square(counts, probs * len(values), level=level, label=label)


def _normal_cdf(x: np.ndarray) -> np.ndarray:
    """Phi(x) = erfc(-x / sqrt 2) / 2 of each value of the (n,) array x."""
    return 0.5 * np.fromiter(map(math.erfc, (x * -math.sqrt(0.5)).tolist()), float, len(x))


@_criterion("limit laws (normal trace, Poisson fixed points)")
def criterion_8(seed, level, sid, checks):
    count = 100_000
    series = spectra.trace_series_so_batch(
        RandomStream(seed, sid), 200, count)
    checks.append(_from_report(ks_test(series, _normal_cdf, level=level,
                                       label="trace series (200 terms) vs normal")))
    perm_series = spectra.trace_series_perm_batch(
        RandomStream(seed, sid + 1), 500, count)
    checks.append(_from_report(_poisson1_bins(
        perm_series, level, "permutation series vs Poisson(1)")))
    lines = samplers.permutation_batch(RandomStream(seed, sid + 2), 50, count)
    fixed = (lines == np.arange(50)).sum(axis=1)
    checks.append(_from_report(_poisson1_bins(
        fixed, level, "fixed points at N=50 vs Poisson(1)")))


# --- criterion 9: permutation uniformity ---------------------------------------


def _exact_word_distribution(n: int, compose=None):
    """Probability of each permutation under the weighted bit tree, exactly;
    the bit patterns are coset-major, coset j in columns j(j-1)/2 ..
    j(j+1)/2 - 1, and composed by ``compose``, by default the sampler's own
    _compose_cosets, or one of its kernels."""
    keys = [(i, j) for j in range(1, n) for i in range(1, j + 1)]
    patterns = np.array(list(itertools.product((0, 1), repeat=len(keys))))
    lines = (compose or samplers._compose_cosets)(
        lambda j, out: np.equal(patterns[:, j * (j - 1) // 2:j * (j + 1) // 2], 0, out=out),
        n, len(patterns))
    dist = {}
    for pattern, line in zip(patterns.tolist(), map(tuple, lines.tolist())):
        prob = Fraction(1)
        for (i, _), bit in zip(keys, pattern):
            p1 = Fraction(i, i + 1)
            prob *= p1 if bit else (1 - p1)
        dist[line] = dist.get(line, Fraction(0)) + prob
    return dist


def _lehmer_index(lines: np.ndarray) -> np.ndarray:
    """Factorial-base rank of each 0-based one-line permutation row.  The
    lines are compared batch last, one narrow (count,) column against
    another, which is several times faster than comparing int64 rows."""
    count, n = lines.shape
    cols = lines.T.astype(samplers._index_dtype(n))
    idx = np.zeros(count, dtype=np.int64)
    for pos in range(n):
        idx *= n - pos
        for later in cols[pos + 1:]:
            idx += later < cols[pos]
    return idx


@_criterion("permutation uniformity")
def criterion_9(seed, level, sid, checks):
    # _compose_cosets would give the 64 patterns to its rotations alone, so
    # each of its kernels enumerates them
    dists = [_exact_word_distribution(4, compose)
             for compose in (samplers._wave_cosets, samplers._rotate_cosets)]
    exact_ok = all(len(dist) == 24 and all(p == Fraction(1, 24) for p in dist.values())
                   for dist in dists)
    dev = max(abs(float(p) - 1 / 24) for dist in dists for p in dist.values())
    checks.append(_check("exact enumeration N=4: each sigma has mass 1/24",
                         exact_ok, f"{min(map(len, dists))} permutations, max dev {dev:.1e}"))
    n, count = 6, 100_000
    lines = samplers.permutation_batch(RandomStream(seed, sid), n, count)
    counts = np.bincount(_lehmer_index(lines), minlength=math.factorial(n))
    expected = np.full(math.factorial(n), count / math.factorial(n))
    checks.append(_from_report(chi_square(counts, expected, level=level,
                                          label="empirical uniformity N=6")))


# --- criterion 10: structural residuals ----------------------------------------


@_criterion("structural residuals of every sampler")
def criterion_10(seed, level, sid, checks):
    count = 50
    batteries = [("so", "euler", 3), ("so", "euler", 8), ("o", "qr", 6),
                 ("o", "householder", 6), ("u", "euler", 5), ("u", "qr", 5),
                 ("u", "householder", 5)]
    for tag, method, n in batteries:
        sid += 1
        mats = sampler(tag, method).draw(RandomStream(seed, sid), n, count)
        worst = float(adjoint_residual(mats).max())
        checks.append(_check(f"{tag} {method} N={n}: unitarity <= 1e-13*N",
                             worst <= 1e-13 * n, f"max residual {worst:.2e}"))
    for n in (1, 2, 3):
        sid += 1
        mats = samplers.sp_euler_batch(RandomStream(seed, sid), n, count)
        wu = float(adjoint_residual(mats).max())
        ws = float(symplectic_residual(mats).max())
        ok = wu <= 1e-13 * 2 * n and ws <= 1e-12 * n
        checks.append(_check(f"sp euler n={n}: unitary + symplectic residuals",
                             ok, f"unitary {wu:.2e}, symplectic {ws:.2e}"))
    sid += 1
    words = samplers.permutation_batch(RandomStream(seed, sid), 5, count)
    perm_ok = bool((np.sort(words, axis=1) == np.arange(5)).all())
    checks.append(_check("sn: every sample is a permutation", perm_ok, "bijections"))
    sid += 1
    coe = samplers.coe_batch(RandomStream(seed, sid), 4, count)
    sym = float(np.abs(coe - np.swapaxes(coe, 1, 2)).max())
    wu = float(adjoint_residual(coe).max())
    checks.append(_check("coe N=4: symmetry <= 1e-13, unitary <= 1e-13*N",
                         sym <= 1e-13 and wu <= 1e-13 * 4,
                         f"symmetry {sym:.2e}, unitary {wu:.2e}"))
    sid += 1
    cse = samplers.cse_batch(RandomStream(seed, sid), 2, count)
    z = symplectic_form(4)
    dual = np.einsum("ij,bkj,kl->bil", -z, cse, z)  # Z^{-1} S^T Z
    self_dual = float(np.abs(dual - cse).max())
    ph = eigenphases_batch(cse[:10])
    pair_ok = bool(np.all(np.abs(ph[:, 1::2] - ph[:, 0::2]) <= 1e-8))
    checks.append(_check("cse n=2: self-duality <= 1e-12, phases doubly degenerate",
                         self_dual <= 1e-12 and pair_ok,
                         f"self-duality {self_dual:.2e}, pairing {'ok' if pair_ok else 'BROKEN'}"))


# --- criterion 11: Haar invariance under a fixed group element ------------------


def _fixed_elements(seed: int):
    s = RandomStream(seed, _FIXED_SID)
    return {
        "so": samplers.so_euler_batch(s, 5, 1)[0],
        "o": samplers.qr_batch(s, 5, 1, "real")[0],
        "u": samplers.qr_batch(s, 5, 1, "complex")[0],
        "sp": samplers.sp_euler_batch(s, 5, 1)[0],
        "u10": samplers.qr_batch(s, 10, 1, "complex")[0],
        "sn": np.roll(np.eye(5), 2, axis=0),
    }


@_criterion("Haar invariance under fixed elements")
def criterion_11(seed, level, sid, checks):
    count = 10_000
    fixed = _fixed_elements(seed)

    # only the (1,1) entry is tested, so only that entry of each moved
    # matrix is formed, by move(stack): (A M B)_{11} = A[0] @ M @ B[:, 0].
    # Each draw is passed in, so only its check outlives it.
    def compare(label, stack, move):
        rep = ks_two_sample(stack[:, 0, 0].real, move(stack).real, level=level, label=label)
        checks.append(_from_report(rep))

    plans = [("so", "euler"), ("o", "qr"), ("o", "householder"), ("u", "euler"),
             ("u", "qr"), ("u", "householder"), ("sp", "euler")]
    for tag, method in plans:
        sid += 1
        compare(f"left-invariance: {tag} {method}",
                sampler(tag, method).draw(RandomStream(seed, sid), 5, count),
                lambda m: m[:, :, 0] @ fixed[tag][0])

    # binary entries: compare the (1,1) hit frequencies directly at 5 sigma
    def frequencies(stack):
        return stack[:, 0, 0].mean(), (stack[:, :, 0] @ fixed["sn"][0]).mean()

    sid += 1
    pa, pb = frequencies(samplers.permutation_matrices(
        samplers.permutation_batch(RandomStream(seed, sid), 5, count)))
    se = math.sqrt(2 * 0.2 * 0.8 / count)
    checks.append(_check("left-invariance: sn (entry frequency, 5 sigma)",
                         abs(pa - pb) <= 5 * se, f"|{pa:.4f} - {pb:.4f}|"))

    # circular ensembles transform by congruence, the action preserving
    # their symmetry class: S -> W^T S W (COE), S -> W^D S W (CSE)
    sid += 1
    w = fixed["u"]
    compare("congruence-invariance: coe", samplers.coe_batch(RandomStream(seed, sid), 5, count),
            lambda m: (w[:, 0] @ m) @ w[:, 0])
    sid += 1
    w = fixed["u10"]
    z10 = symplectic_form(10)
    wd = -z10 @ w.T @ z10
    compare("congruence-invariance: cse", samplers.cse_batch(RandomStream(seed, sid), 5, count),
            lambda m: (wd[0] @ m) @ w[:, 0])


# --- criterion 12: the averaging operator ---------------------------------------


@_criterion("group-averaging (Reynolds) operator")
def criterion_12(seed, level, sid, checks):
    samples = 200_000
    x = np.array([1.0, 0.0, 0.0])

    def f(m, v):
        return (m[:, 0, :] @ v) ** 4

    mean1, se1 = analytics.reynolds_average(
        f, "o", 3, RandomStream(seed, sid), samples, x)
    target = analytics.moment_single(3, 2.0)  # = 1/5
    checks.append(_from_report(moment_check(
        target, mean1, se1, label="<x1^4> over O(3) = 1/5")))
    q0 = samplers.so_euler_batch(RandomStream(seed, _FIXED_SID + 1), 3, 1)[0]
    mean2, se2 = analytics.reynolds_average(
        f, "o", 3, RandomStream(seed, sid + 1), samples, q0 @ x)
    comb = math.sqrt(se1 * se1 + se2 * se2)
    checks.append(_check("rotation invariance of the average",
                         abs(mean1 - mean2) <= 5 * comb,
                         f"|{mean1:.6f} - {mean2:.6f}| <= 5*{comb:.2e}"))


# --- runner ----------------------------------------------------------------------


def run_all(seed: int = 1, level: float = DEFAULT_LEVEL, echo=print):
    """Run every acceptance criterion; returns (results, all_passed)."""
    results = []
    for fn in CRITERIA:
        res = fn(seed, level)
        results.append(res)
        if echo is not None:
            flag = "PASS" if res.passed else "FAIL"
            echo(f"[{flag}] criterion {res.name}  ({res.elapsed:.1f} s)")
            for line in res.lines():
                echo(line)
    return results, all(r.passed for r in results)
