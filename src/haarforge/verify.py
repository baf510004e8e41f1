"""The verification battery behind ``haar-forge verify``.

Each criterion function is deterministic given (seed, level) and returns a
CriterionResult holding one or more named checks.  The same functions back
the acceptance test suite, so the CLI and pytest agree by construction.

Oracles used here are independent of the construction they check:
adaptive quadrature for integrals, elimination determinants for the
recurrence, exact probability-tree enumeration for permutations, and
cross-sampler / cross-construction two-sample tests elsewhere.  The
enumeration weighs the decision bits by exact fractions and composes them
with the draws' own ``samplers._compose_cosets``, so criterion 9 certifies
the composition that sampling runs.

scipy is imported only where a check needs it: scipy.integrate inside
criterion 4's quadrature (_abs_diff_integral), scipy.special inside
criterion 8 (the normal CDF ndtr) and the KS and chi-square tests of
analytics.  The first criterion of a process that needs it, criterion 4 in
run_all, includes the one-time import in its reported seconds.
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
from haarforge.samplers import SAMPLERS, GroupId

TWO_PI = 2.0 * np.pi

# stream ids are allocated per criterion (hundreds) and lane (units) so
# criteria stay independent and reproducible under one seed
_SID = {"c1": 100, "c2": 200, "c3": 300, "c4": 400, "c5": 500, "c6": 600,
        "c7": 700, "c8": 800, "c9": 900, "c10": 1000, "c11": 1100,
        "c12": 1200, "fixed": 9900}


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


def _check(label: str, passed: bool, detail: str) -> dict:
    return {"label": label, "passed": bool(passed), "detail": detail}


def _from_report(r: TestReport) -> dict:
    return _check(r.label or r.method, r.passed,
                  f"{r.method} stat={r.statistic:.4g} crit={r.critical:.4g}")


def _finish(name, checks, t0):
    return CriterionResult(name=name, passed=all(c["passed"] for c in checks),
                           checks=checks, elapsed=time.perf_counter() - t0)


# --- criterion 1: single-entry moment oracle --------------------------------


def criterion_1(seed: int, level: float = DEFAULT_LEVEL) -> CriterionResult:
    """<|X_NN|^{2p}> over 1e5 Haar SO(N) samples matches the gamma closed
    form within 5 standard errors, N = 2..8, p in {1/2, 1, 2, 3}; <= 60 s."""
    t0 = time.perf_counter()
    checks = []
    count = 100_000
    for n in range(2, 9):
        s = RandomStream(seed, _SID["c1"] + n)
        mats = samplers.so_euler_batch(s, n, count)
        entry = np.abs(mats[:, n - 1, n - 1])
        for p in (0.5, 1.0, 2.0, 3.0):
            vals = entry ** (2.0 * p)
            est = float(vals.mean())
            se = float(vals.std(ddof=1) / math.sqrt(count))
            rep = moment_check(analytics.moment_single(n, p), est, se,
                               label=f"moment N={n} p={p}")
            checks.append(_from_report(rep))
    elapsed = time.perf_counter() - t0
    checks.append(_check("runtime <= 60 s", elapsed <= 60.0, f"{elapsed:.1f} s"))
    return _finish("1 single-entry moments (beta law)", checks, t0)


# --- criterion 2: joint moment and gamma reduction ---------------------------


def criterion_2(seed: int, level: float = DEFAULT_LEVEL) -> CriterionResult:
    t0 = time.perf_counter()
    checks = []
    count, chunk = 1_000_000, 100_000
    s = RandomStream(seed, _SID["c2"])
    total, total_sq, seen = 0.0, 0.0, 0
    while seen < count:
        mats = samplers.so_euler_batch(s, 3, chunk)
        vals = (mats[:, 2, 2] ** 2) * (mats[:, 1, 1] ** 2)
        total += vals.sum()
        total_sq += (vals * vals).sum()
        seen += chunk
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
    return _finish("2 joint moments (Pfaff-Saalschutz form)", checks, t0)


# --- criterion 3: volumes by quadrature and sphere-ratio identities ----------


def criterion_3(seed: int, level: float = DEFAULT_LEVEL) -> CriterionResult:
    t0 = time.perf_counter()
    checks = []
    for tag, n in (("so", 2), ("so", 3), ("u", 1), ("u", 2)):
        got, refine = analytics.volume_quadrature(tag, n)
        want = analytics.volume(tag, n)
        rel = abs(got - want) / want
        checks.append(_check(f"quadrature vol {tag}({n})", rel <= 1e-6,
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
    return _finish("3 volumes and sphere-area ratios", checks, t0)


# --- criterion 4: circular-ensemble normalizations ---------------------------


def _abs_diff_integral(beta: float) -> float:
    """int over [0,2pi)^2 of |e^{i a} - e^{i b}|^beta by nested quadrature."""
    from scipy import integrate

    def inner(b):
        val, _ = integrate.quad(
            lambda a: (2.0 * abs(math.sin(0.5 * (a - b)))) ** beta,
            0.0, TWO_PI, points=[b], limit=200, epsabs=1e-11, epsrel=1e-11)
        return val
    val, _ = integrate.quad(inner, 0.0, TWO_PI, limit=200,
                            epsabs=1e-9, epsrel=1e-9)
    return val


def criterion_4(seed: int, level: float = DEFAULT_LEVEL) -> CriterionResult:
    t0 = time.perf_counter()
    checks = []
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
    return _finish("4 COE/CUE normalization constants", checks, t0)


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
        draw = SAMPLERS[("o", method)].draw(s, n, int(count * 1.2) + 64)
        sign, _ = np.linalg.slogdet(draw)
        keep = draw[sign > 0]
        if not len(keep):
            raise ConvergenceError(
                f"O({n}) {method} sampler gave {len(draw)} draws without det = +1")
        out.append(keep)
        have += len(keep)
    return np.concatenate(out, axis=0)[:count]


def criterion_5(seed: int, level: float = DEFAULT_LEVEL) -> CriterionResult:
    t0 = time.perf_counter()
    n, count = 6, 10_000
    sets = [("euler", SAMPLERS[("so", "euler")].draw(
        RandomStream(seed, _SID["c5"]), n, count))]
    for sid, method in enumerate(("qr", "householder"), start=_SID["c5"] + 1):
        sets.append((method, _so_conditioned(method, seed, sid, n, count)))
    stats = {
        "tr": lambda m: np.einsum("bii->b", m).real,
        "entry11": lambda m: m[:, 0, 0].real,
    }
    checks = []
    for sname, fn in stats.items():
        for (la, ma), (lb, mb) in itertools.combinations(sets, 2):
            rep = ks_two_sample(fn(ma), fn(mb), level=level,
                                label=f"{sname}: {la} vs {lb}")
            checks.append(_from_report(rep))
    return _finish("5 cross-sampler equivalence SO(6)", checks, t0)


# --- criterion 6: spectral equivalence and zero structure ---------------------


def criterion_6(seed: int, level: float = DEFAULT_LEVEL) -> CriterionResult:
    t0 = time.perf_counter()
    n, count = 6, 10_000
    full = samplers.so_euler_batch(RandomStream(seed, _SID["c6"]), n, count)
    hess = spectra.hessenberg_batch(RandomStream(seed, _SID["c6"] + 1), n, count)
    cmv = spectra.cmv_batch(RandomStream(seed, _SID["c6"] + 2), n, count)
    checks = []
    hess_zero = max(float(np.abs(hess[:, i, j]).max())
                    for i in range(n) for j in range(n) if j > i + 1)
    checks.append(_check("Hessenberg zero pattern (<= 1e-15)",
                         hess_zero <= 1e-15, f"max |entry| {hess_zero:.2e}"))
    cmv_zero = max(float(np.abs(cmv[:, i, j]).max())
                   for i in range(n) for j in range(n) if abs(i - j) > 2)
    checks.append(_check("CMV bandwidth <= 2 (zeros <= 1e-15)",
                         cmv_zero <= 1e-15, f"max |entry| {cmv_zero:.2e}"))
    phases = {name: spectra.so_min_eigenphase_batch(m)
              for name, m in (("full", full), ("hessenberg", hess), ("cmv", cmv))}
    for (la, pa), (lb, pb) in itertools.combinations(phases.items(), 2):
        rep = ks_two_sample(pa, pb, level=level,
                            label=f"min eigenphase: {la} vs {lb}")
        checks.append(_from_report(rep))
    return _finish("6 spectral equivalence (Hessenberg / CMV / full)", checks, t0)


# --- criterion 7: characteristic-polynomial recurrence ------------------------


def criterion_7(seed: int, level: float = DEFAULT_LEVEL) -> CriterionResult:
    t0 = time.perf_counter()
    s = RandomStream(seed, _SID["c7"])
    worst_ratio = 0.0
    for trial in range(100):
        n = 2 + trial % 9  # n in 2..10
        c = s.uniform(-1.0, 1.0, size=n - 1)
        mat = spectra.hessenberg_entries(c)
        for _ in range(20):
            lam = complex(s.uniform(-2.0, 2.0), s.uniform(-2.0, 2.0))
            chi = spectra.charpoly_recurrence(c, lam)
            det = charpoly_eval(mat, lam)
            bound = 1e-10 * (1.0 + abs(lam)) ** n
            worst_ratio = max(worst_ratio, abs(chi - det) / bound)
    check = _check("recurrence matches elimination determinant",
                   worst_ratio <= 1.0,
                   f"worst |chi - det| / bound = {worst_ratio:.3g}")
    return _finish("7 Hessenberg charpoly recurrence", [check], t0)


# --- criterion 8: limit laws ---------------------------------------------------


def _poisson1_bins(values: np.ndarray, level: float, label: str) -> TestReport:
    kmax = 5
    counts = np.array([(values == k).sum() for k in range(kmax)]
                      + [(values >= kmax).sum()], dtype=float)
    probs = np.array([math.exp(-1.0) / math.factorial(k) for k in range(kmax)])
    probs = np.append(probs, 1.0 - probs.sum())
    return chi_square(counts, probs * len(values), level=level, label=label)


def criterion_8(seed: int, level: float = DEFAULT_LEVEL) -> CriterionResult:
    from scipy.special import ndtr
    t0 = time.perf_counter()
    checks = []
    count = 100_000
    series = spectra.trace_series_so_batch(
        RandomStream(seed, _SID["c8"]), 200, count)
    checks.append(_from_report(ks_test(series, ndtr, level=level,
                                       label="trace series (200 terms) vs normal")))
    perm_series = spectra.trace_series_perm_batch(
        RandomStream(seed, _SID["c8"] + 1), 500, count)
    checks.append(_from_report(_poisson1_bins(
        perm_series, level, "permutation series vs Poisson(1)")))
    lines = samplers.permutation_batch(RandomStream(seed, _SID["c8"] + 2), 50, count)
    fixed = (lines == np.arange(50)).sum(axis=1)
    checks.append(_from_report(_poisson1_bins(
        fixed, level, "fixed points at N=50 vs Poisson(1)")))
    return _finish("8 limit laws (normal trace, Poisson fixed points)", checks, t0)


# --- criterion 9: permutation uniformity ---------------------------------------


def _exact_word_distribution(n: int):
    """Probability of each permutation under the weighted bit tree, exactly;
    the bit patterns are coset-major, coset j in columns j(j-1)/2 ..
    j(j+1)/2 - 1, and composed by the sampler's own _compose_cosets."""
    keys = [(i, j) for j in range(1, n) for i in range(1, j + 1)]
    patterns = np.array(list(itertools.product((0, 1), repeat=len(keys))))
    lines = samplers._compose_cosets(
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
    """Factorial-base rank of each 0-based one-line permutation row."""
    count, n = lines.shape
    idx = np.zeros(count, dtype=np.int64)
    for pos in range(n):
        smaller = (lines[:, pos + 1:] < lines[:, pos][:, None]).sum(axis=1)
        idx = idx * (n - pos) + smaller
    return idx


def criterion_9(seed: int, level: float = DEFAULT_LEVEL) -> CriterionResult:
    t0 = time.perf_counter()
    checks = []
    dist = _exact_word_distribution(4)
    exact_ok = (len(dist) == 24
                and all(p == Fraction(1, 24) for p in dist.values()))
    checks.append(_check("exact enumeration N=4: each sigma has mass 1/24",
                         exact_ok, f"{len(dist)} permutations, "
                         f"max dev {max(abs(float(p) - 1 / 24) for p in dist.values()):.1e}"))
    n, count = 6, 100_000
    lines = samplers.permutation_batch(RandomStream(seed, _SID["c9"]), n, count)
    counts = np.bincount(_lehmer_index(lines), minlength=math.factorial(n))
    expected = np.full(math.factorial(n), count / math.factorial(n))
    checks.append(_from_report(chi_square(counts, expected, level=level,
                                          label="empirical uniformity N=6")))
    return _finish("9 permutation uniformity", checks, t0)


# --- criterion 10: structural residuals ----------------------------------------


def criterion_10(seed: int, level: float = DEFAULT_LEVEL) -> CriterionResult:
    t0 = time.perf_counter()
    checks = []
    count = 50
    batteries = [("so", "euler", 3), ("so", "euler", 8), ("o", "qr", 6),
                 ("o", "householder", 6), ("u", "euler", 5), ("u", "qr", 5),
                 ("u", "householder", 5)]
    sid = _SID["c10"]
    for tag, method, n in batteries:
        sid += 1
        mats = SAMPLERS[(tag, method)].draw(RandomStream(seed, sid), n, count)
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
    words = samplers.sample_batch("sn", 5, count, seed=seed, streams=1)
    perm_ok = bool((np.sort(words, axis=1) == np.arange(1, 6)).all())
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
    return _finish("10 structural residuals of every sampler", checks, t0)


# --- criterion 11: Haar invariance under a fixed group element ------------------


def _fixed_elements(seed: int):
    s = RandomStream(seed, _SID["fixed"])
    return {
        "so": samplers.so_euler_batch(s, 5, 1)[0],
        "o": samplers.qr_batch(s, 5, 1, "real")[0],
        "u": samplers.qr_batch(s, 5, 1, "complex")[0],
        "sp": samplers.sp_euler_batch(s, 5, 1)[0],
        "u10": samplers.qr_batch(s, 10, 1, "complex")[0],
        "sn": np.roll(np.eye(5), 2, axis=0),
    }


def criterion_11(seed: int, level: float = DEFAULT_LEVEL) -> CriterionResult:
    t0 = time.perf_counter()
    count = 10_000
    fixed = _fixed_elements(seed)
    checks = []
    sid = _SID["c11"]

    # only the (1,1) entry is tested, so only that entry of each moved
    # matrix is formed: (A M B)_{11} = A[0] @ M @ B[:, 0]
    def compare(label, mats, moved11):
        rep = ks_two_sample(mats[:, 0, 0].real, moved11.real, level=level, label=label)
        checks.append(_from_report(rep))

    plans = [("so", "euler"), ("o", "qr"), ("o", "householder"), ("u", "euler"),
             ("u", "qr"), ("u", "householder"), ("sp", "euler")]
    for tag, method in plans:
        sid += 1
        mats = SAMPLERS[(tag, method)].draw(RandomStream(seed, sid), 5, count)
        compare(f"left-invariance: {tag} {method}", mats, mats[:, :, 0] @ fixed[tag][0])

    sid += 1
    lines = samplers.permutation_batch(RandomStream(seed, sid), 5, count)
    mats = samplers.permutation_matrices(lines)
    # binary entries: compare the (1,1) hit frequencies directly at 5 sigma
    pa, pb = mats[:, 0, 0].mean(), (mats[:, :, 0] @ fixed["sn"][0]).mean()
    se = math.sqrt(2 * 0.2 * 0.8 / count)
    checks.append(_check("left-invariance: sn (entry frequency, 5 sigma)",
                         abs(pa - pb) <= 5 * se, f"|{pa:.4f} - {pb:.4f}|"))

    # circular ensembles transform by congruence, the action preserving
    # their symmetry class: S -> W^T S W (COE), S -> W^D S W (CSE)
    sid += 1
    coe = samplers.coe_batch(RandomStream(seed, sid), 5, count)
    w = fixed["u"]
    compare("congruence-invariance: coe", coe, (w[:, 0] @ coe) @ w[:, 0])
    sid += 1
    cse = samplers.cse_batch(RandomStream(seed, sid), 5, count)
    w = fixed["u10"]
    z10 = symplectic_form(10)
    wd = -z10 @ w.T @ z10
    compare("congruence-invariance: cse", cse, (wd[0] @ cse) @ w[:, 0])
    return _finish("11 Haar invariance under fixed elements", checks, t0)


# --- criterion 12: the averaging operator ---------------------------------------


def criterion_12(seed: int, level: float = DEFAULT_LEVEL) -> CriterionResult:
    t0 = time.perf_counter()
    checks = []
    samples = 200_000
    x = np.array([1.0, 0.0, 0.0])

    def f(m, v):
        return (m[:, 0, :] @ v) ** 4

    mean1, se1 = analytics.reynolds_average(
        f, GroupId("o", 3), RandomStream(seed, _SID["c12"]), samples, x)
    target = analytics.moment_single(3, 2.0)  # = 1/5
    checks.append(_from_report(moment_check(
        target, mean1, se1, label="<x1^4> over O(3) = 1/5")))
    q0 = samplers.so_euler_batch(RandomStream(seed, _SID["fixed"] + 1), 3, 1)[0]
    mean2, se2 = analytics.reynolds_average(
        f, GroupId("o", 3), RandomStream(seed, _SID["c12"] + 1), samples, q0 @ x)
    comb = math.sqrt(se1 * se1 + se2 * se2)
    checks.append(_check("rotation invariance of the average",
                         abs(mean1 - mean2) <= 5 * comb,
                         f"|{mean1:.6f} - {mean2:.6f}| <= 5*{comb:.2e}"))
    return _finish("12 group-averaging (Reynolds) operator", checks, t0)


# --- runner ----------------------------------------------------------------------


CRITERIA = [criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
            criterion_6, criterion_7, criterion_8, criterion_9, criterion_10,
            criterion_11, criterion_12]


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
