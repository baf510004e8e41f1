"""Closed-form group quantities and the statistical test primitives.

All gamma-function expressions are evaluated in log space (volumes
overflow naive products near N ~ 30).  The statistical helpers return
TestReport records with asymptotic critical values at a configurable
level; the library-wide default level is 0.001 so a suite of many tests
keeps a small false-failure probability.

The KS and chi-square tests take their critical values from
scipy.special (kolmogi, chdtri), imported inside ks_test, ks_two_sample and
chi_square: importing this module loads no scipy, and the first such call
in a process pays the one-time import.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import exp, inf, lgamma, log, pi

import numpy as np

from haarforge import samplers
from haarforge.euler import angle_pairs, density_so, density_u
from haarforge.randstream import RandomStream

DEFAULT_LEVEL = 0.001

TWO_PI = 2.0 * pi

QUADRATURE_DOMAIN = {"so": range(2, 4), "u": range(1, 3)}  # volume_quadrature's (tag, n)


# --- moments ---------------------------------------------------------------


def moment_single(n: int, p: float) -> float:
    """<|X_{NN}|^{2p}> over Haar SO(n):
    Gamma(p + 1/2) Gamma(n/2) / (Gamma(1/2) Gamma(p + n/2))."""
    if n < 2 or not 0.0 <= p < inf:
        raise ValueError("need n >= 2 and a finite p >= 0")
    return exp(lgamma(p + 0.5) + lgamma(n / 2.0)
               - lgamma(0.5) - lgamma(p + n / 2.0))


def moment_joint(n: int, p: float, q: float) -> float:
    """<|X_{NN}|^{2p} |X_{N-1,N-1}|^{2q}> over Haar SO(n).

    The closed form is exact for n >= 4; for n = 2, 3 it is evaluated as
    written and callers should cross-check against Monte Carlo (the
    four-angle derivation does not cover those sizes).
    """
    if n < 2 or not (0.0 <= p < inf and 0.0 <= q < inf):
        raise ValueError("need n >= 2 and finite p, q >= 0")
    h = (n - 1) / 2.0
    return exp(lgamma(p + 0.5) + lgamma(q + 0.5) + lgamma(h + p + q)
               + lgamma(n / 2.0) + lgamma(h)
               - 2.0 * lgamma(0.5) - lgamma(h + p) - lgamma(h + q)
               - lgamma(n / 2.0 + p + q))


def beta_integral_T(alpha: float, beta: float) -> float:
    """T(a, b) = int_0^pi |sin t|^a |cos t|^b dt
    = Gamma((a+1)/2) Gamma((b+1)/2) / Gamma((a+b)/2 + 1)."""
    if alpha <= -1.0 or beta <= -1.0:
        raise ValueError("need alpha, beta > -1")
    return exp(lgamma((alpha + 1.0) / 2.0) + lgamma((beta + 1.0) / 2.0)
               - lgamma((alpha + beta) / 2.0 + 1.0))


# --- volumes and normalizations ---------------------------------------------

def log_volume(tag: str, n: int) -> float:
    """Natural log of the group / quotient volume for the supported tags."""
    if n < 1:
        raise ValueError("n >= 1 required")
    if tag == "so":
        return (log(0.5) + n * (n + 3) / 4.0 * log(2.0)
                + sum(k / 2.0 * log(pi) - lgamma(k / 2.0) for k in range(1, n + 1)))
    if tag == "o":
        return log(2.0) + log_volume("so", n)
    if tag == "o/o1":
        # vol O(N) reduced by 2^{-N}: first entry of each column positive
        return log_volume("o", n) - n * log(2.0)
    if tag == "u":
        return (n * (n + 1) / 2.0 * log(2.0)
                + sum(k * log(pi) - lgamma(k) for k in range(1, n + 1)))
    if tag == "u/u1":
        # vol U(N) reduced by (2*pi)^{-N}
        return log_volume("u", n) - n * log(TWO_PI)
    if tag == "u/o":
        # equals 2^{N(N+1)/2} vol U(N) / vol O(N); the closed product form is
        # 2^{N(N+3)/4} prod_l pi^{(l+1)/2}/Gamma((l+1)/2)
        return (n * (n + 3) / 4.0 * log(2.0)
                + sum((l + 1) / 2.0 * log(pi) - lgamma((l + 1) / 2.0)
                      for l in range(1, n + 1)))
    raise ValueError(f"unsupported volume tag {tag!r}")


def volume(tag: str, n: int) -> float:
    return exp(log_volume(tag, n))


def sphere_area(n: int, radius: float = 1.0) -> float:
    """Surface area of the radius-R sphere in R^n:
    A_{n-1}(R) = R^{n-1} * 2 pi^{n/2} / Gamma(n/2).

    Ratio identities: vol SO(N)/vol SO(N-1) = A_{N-1}(sqrt 2) evaluated as
    sphere_area(N, sqrt(2)), and vol U(N)/vol U(N-1)
    = sphere_area(2N, sqrt(2)) / sqrt(2).
    """
    if n < 1 or radius <= 0.0:
        raise ValueError("need n >= 1 and radius > 0")
    return exp((n - 1) * log(radius) + log(2.0) + n / 2.0 * log(pi)
               - lgamma(n / 2.0))


def so_volume_sphere_ratio(n: int):
    """(vol SO(n)/vol SO(n-1), A_{n-1}(sqrt 2)) - equal in exact arithmetic."""
    if n < 2:
        raise ValueError("n >= 2 required")
    return (exp(log_volume("so", n) - log_volume("so", n - 1)),
            sphere_area(n, np.sqrt(2.0)))


def u_volume_sphere_ratio(n: int):
    """(vol U(n)/vol U(n-1), A_{2n-1}(sqrt 2)/sqrt 2); vol U(0) := 1."""
    if n < 1:
        raise ValueError("n >= 1 required")
    prev = log_volume("u", n - 1) if n > 1 else 0.0
    return (exp(log_volume("u", n) - prev),
            sphere_area(2 * n, np.sqrt(2.0)) / np.sqrt(2.0))


def coe_normalization(n: int) -> float:
    """Gamma(n/2 + 1) / Gamma(3/2)^n: the eigenvalue-density normalization
    of symmetric unitary matrices, with the raw angle integral divided by
    (2*pi)^n (see coe_normalization_raw for the undivided integral)."""
    if n < 1:
        raise ValueError("n >= 1 required")
    return exp(lgamma(n / 2.0 + 1.0) - n * lgamma(1.5))


def coe_normalization_raw(n: int) -> float:
    """int over [0, 2*pi)^n of prod_{j<k} |e^{i t_k} - e^{i t_j}|,
    equal to (2*pi)^n * coe_normalization(n)."""
    return exp(n * log(TWO_PI) + lgamma(n / 2.0 + 1.0) - n * lgamma(1.5))


def cue_normalization(n: int) -> float:
    """int over [0, 2*pi)^n of prod_{j<k} |e^{i t_k} - e^{i t_j}|^2 = (2*pi)^n n!."""
    if n < 1:
        raise ValueError("n >= 1 required")
    return exp(n * log(TWO_PI) + lgamma(n + 1.0))


# --- quadrature cross-checks for the Euler densities -------------------------


def _tensor_gl(dims, fn, nodes: int) -> float:
    """Tensor-product Gauss-Legendre integral of fn over boxes ``dims``;
    ``fn(*columns)`` gets one flat coordinate array per axis, once per grid,
    and returns the integrand at every node (a scalar is broadcast)."""
    pts, wts = [], []
    for lo, hi in dims:
        x, w = np.polynomial.legendre.leggauss(nodes)
        pts.append(0.5 * (hi - lo) * x + 0.5 * (hi + lo))
        wts.append(0.5 * (hi - lo) * w)
    grids = np.meshgrid(*pts, indexing="ij")
    weight = np.ones_like(grids[0])
    for axis, w in enumerate(wts):
        shape = [1] * len(dims)
        shape[axis] = -1
        weight = weight * w.reshape(shape)
    vals = np.broadcast_to(fn(*(g.ravel() for g in grids)), (weight.size,))
    return float((vals * weight.ravel()).sum())


def volume_quadrature(tag: str, n: int, nodes: int = 24):
    """Integrate the implemented Euler density over its angle ranges.

    Supported: QUADRATURE_DOMAIN (so with n = 2, 3; u with n = 1, 2).  Returns
    (value, refine) where refine is the change under a 3/2 node refinement,
    a convergence certificate for the tensor Gauss-Legendre rule.
    """
    if n not in QUADRATURE_DOMAIN.get(tag, ()):
        raise ValueError("quadrature cross-check supports so (2<=n<=3), u (n<=2)")
    if tag == "so":
        pairs = angle_pairs(n)
        dims = [(0.0, TWO_PI) if j == 1 else (0.0, pi) for (j, k) in pairs]

        def fn(*theta):
            return density_so(n, dict(zip(pairs, theta)))
    else:
        # U(2) axes: phi_{1,2}, psi_{1,2}, alpha_1, alpha_2; only phi enters
        dims = [(0.0, TWO_PI)] if n == 1 else [(0.0, pi / 2.0)] + [(0.0, TWO_PI)] * 3

        def fn(*angles):
            return density_u(n, {(1, 2): angles[0]} if n == 2 else {})
    coarse = _tensor_gl(dims, fn, nodes)
    fine = _tensor_gl(dims, fn, nodes + nodes // 2)
    return fine, abs(fine - coarse)


# --- the group-averaging (Reynolds) operator ---------------------------------


def reynolds_average(f, group: samplers.GroupId, stream: RandomStream,
                     samples: int, x=None, exact: bool = False):
    """Monte Carlo group average (1/S) sum_k f(M_k, x) with standard error.

    ``f(stack, x)`` maps the (S, d, d) stack of sampled matrices to its S
    real values, e.g. ``lambda m, v: np.abs((m @ v)[:, 0]) ** 2`` (a scalar
    is broadcast; any other shape raises ValueError, and so does a value
    with a nonzero imaginary part).  For the permutation group with n <= 8,
    ``exact=True`` replaces sampling by the stack of all n! matrices
    (standard error 0).  Averaging any f produces an invariant of the group
    action; constants are reproduced exactly.
    """
    sampler = samplers.SAMPLERS[(group.tag, samplers.DEFAULT_METHOD[group.tag])]
    perm = sampler.kind == "permutation"
    exact = exact and perm
    if exact:
        if group.n > 8:
            raise ValueError("exact enumeration supported for n <= 8")
        mats = np.array(list(itertools.permutations(range(group.n))))
    elif samples < 2:
        raise ValueError("samples >= 2 required")
    else:
        mats = sampler.draw(stream, group.n, samples)
    if perm:
        mats = samplers.permutation_matrices(mats)
    vals = np.asarray(f(mats, x))
    if np.iscomplexobj(vals) and np.any(vals.imag):
        raise ValueError("f must return real values")
    vals = np.asarray(vals.real, dtype=float)
    if vals.ndim and vals.shape != (len(mats),):
        raise ValueError(f"f must return a scalar or shape ({len(mats)},), not {vals.shape}")
    vals = np.broadcast_to(vals, (len(mats),))
    se = 0.0 if exact else float(vals.std(ddof=1) / np.sqrt(samples))
    return float(vals.mean()), se


# --- statistical test primitives ---------------------------------------------


@dataclass(frozen=True)
class TestReport:
    """Outcome of one statistical check; passes iff statistic <= critical."""

    __test__ = False  # keep pytest collection away from this value class

    statistic: float
    critical: float
    n: int
    passed: bool
    method: str  # "ks" | "chi-square" | "moment-z"
    label: str = ""
    details: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.passed != (self.statistic <= self.critical):
            raise ValueError("pass flag inconsistent with statistic/critical")


def _report(stat, crit, n, method, label, **details):
    return TestReport(statistic=float(stat), critical=float(crit), n=int(n),
                      passed=bool(stat <= crit), method=method, label=label,
                      details=details)


def ks_test(samples, cdf, level: float = DEFAULT_LEVEL, label: str = "") -> TestReport:
    """One-sample Kolmogorov-Smirnov test against a vectorized CDF: ``cdf``
    maps the sorted (n,) sample to its (n,) CDF values in one call (any
    other shape raises ValueError)."""
    from scipy.special import kolmogi
    x = np.sort(np.asarray(samples, dtype=float))
    n = len(x)
    if n < 50:
        raise ValueError("one-sample KS needs at least 50 samples")
    f = np.asarray(cdf(x), dtype=float)
    if f.shape != x.shape:
        raise ValueError(f"cdf must return shape {x.shape}, not {f.shape}")
    grid = np.arange(1, n + 1) / n
    d = max(float(np.max(grid - f)), float(np.max(f - (grid - 1.0 / n))))
    crit = kolmogi(level) / np.sqrt(n)
    return _report(d, crit, n, "ks", label, level=level)


def ks_two_sample(a, b, level: float = DEFAULT_LEVEL, label: str = "") -> TestReport:
    """Two-sample Kolmogorov-Smirnov test."""
    from scipy.special import kolmogi
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    na, nb = len(a), len(b)
    if na < 100 or nb < 100:
        raise ValueError("two-sample KS needs at least 100 samples per side")
    allv = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, allv, side="right") / na
    cdf_b = np.searchsorted(b, allv, side="right") / nb
    d = float(np.abs(cdf_a - cdf_b).max())
    crit = kolmogi(level) * np.sqrt(1.0 / na + 1.0 / nb)
    return _report(d, crit, na + nb, "ks", label, level=level, n_a=na, n_b=nb)


def chi_square(counts, expected, level: float = DEFAULT_LEVEL,
               label: str = "") -> TestReport:
    """Chi-square goodness of fit against fully specified expected counts."""
    from scipy.special import chdtri
    counts = np.asarray(counts, dtype=float)
    expected = np.asarray(expected, dtype=float)
    if counts.shape != expected.shape or counts.ndim != 1:
        raise ValueError("counts and expected must be equal-length vectors")
    if np.any(expected <= 0.0):
        raise ValueError("expected counts must be positive")
    if np.any(expected < 5.0):
        raise ValueError("expected counts below 5: merge bins first")
    stat = float(((counts - expected) ** 2 / expected).sum())
    dof = len(counts) - 1
    crit = float(chdtri(dof, level))
    return _report(stat, crit, int(counts.sum()), "chi-square", label,
                   level=level, dof=dof)


def moment_check(exact: float, estimate: float, se: float,
                 z_max: float = 5.0, label: str = "") -> TestReport:
    """|z|-score check of a Monte Carlo estimate against an exact value."""
    z = 0.0 if se == 0.0 and estimate == exact else \
        abs(estimate - exact) / (se if se > 0.0 else 1e-300)
    return _report(z, z_max, 0, "moment-z", label,
                   exact=exact, estimate=estimate, std_error=se)
