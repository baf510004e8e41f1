"""Closed-form group quantities and the statistical test primitives.

All gamma-function expressions are evaluated in log space (volumes
overflow naive products near N ~ 30).  The statistical helpers return
TestReport records with asymptotic critical values at a configurable
level; the library-wide default level is 0.001 so a suite of many tests
keeps a small false-failure probability.

The KS and chi-square tests solve for their critical values with numpy
and math alone, once per level (and dof).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache, reduce
from math import erfc, exp, inf, lgamma, log, nan, pi, sqrt

import numpy as np

from haarforge import samplers
from haarforge.euler import density_so, density_u, row_j
from haarforge.linalg import TWO_PI
from haarforge.randstream import RandomStream

DEFAULT_LEVEL = 0.001

QUADRATURE_DOMAIN = {"so": range(2, 4), "u": range(1, 3)}  # volume_quadrature's (tag, n)
QUADRATURE_NODES = 24  # Gauss-Legendre nodes per axis of the coarse grid
QUADRATURE_RTOL = 1e-6  # volume_quadrature's relative error against the closed form

MOMENT_Z_MAX = 5.0  # moment_check passes within this many standard errors

# Largest exponent the moment closed forms take.  The log-gamma difference
# loses about p * 1e-16 of relative accuracy: 1.2e-9 for moment_single(5, p)
# at p = 1e6 (against mpmath), 2e-6 at 1e10, and nothing is left by 1e15.
MOMENT_EXPONENT_MAX = 1e6


# --- moments ---------------------------------------------------------------


def moment_single(n: int, p: float) -> float:
    """<|X_{NN}|^{2p}> over Haar SO(n):
    Gamma(p + 1/2) Gamma(n/2) / (Gamma(1/2) Gamma(p + n/2)), for
    0 <= p <= MOMENT_EXPONENT_MAX (ValueError otherwise)."""
    if n < 2 or not 0.0 <= p <= MOMENT_EXPONENT_MAX:
        raise ValueError(f"need n >= 2 and 0 <= p <= {MOMENT_EXPONENT_MAX:g}")
    return exp(lgamma(p + 0.5) + lgamma(n / 2.0)
               - lgamma(0.5) - lgamma(p + n / 2.0))


def moment_joint(n: int, p: float, q: float) -> float:
    """<|X_{NN}|^{2p} |X_{N-1,N-1}|^{2q}> over Haar SO(n).

    The closed form is exact for n >= 4; for n = 2, 3 it is evaluated as
    written and callers should cross-check against Monte Carlo (the
    four-angle derivation does not cover those sizes).  p and q must lie
    in [0, MOMENT_EXPONENT_MAX] (ValueError otherwise).
    """
    if n < 2 or not (0.0 <= p <= MOMENT_EXPONENT_MAX
                     and 0.0 <= q <= MOMENT_EXPONENT_MAX):
        raise ValueError(f"need n >= 2 and 0 <= p, q <= {MOMENT_EXPONENT_MAX:g}")
    h = (n - 1) / 2.0
    return exp(lgamma(p + 0.5) + lgamma(q + 0.5) + lgamma(h + p + q)
               + lgamma(n / 2.0) + lgamma(h)
               - 2.0 * lgamma(0.5) - lgamma(h + p) - lgamma(h + q)
               - lgamma(n / 2.0 + p + q))


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
    """exp(log_volume(tag, n)); ValueError where it underflows a normal float."""
    value = exp(log_volume(tag, n))
    if value < np.finfo(float).tiny:
        raise ValueError(f"vol {tag}({n}) = exp({log_volume(tag, n):.6g}) underflows a float")
    return value


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
    of symmetric unitary matrices: the integral over [0, 2*pi)^n of
    prod_{j<k} |e^{i t_k} - e^{i t_j}|, divided by (2*pi)^n."""
    if n < 1:
        raise ValueError("n >= 1 required")
    return exp(lgamma(n / 2.0 + 1.0) - n * lgamma(1.5))


def cue_normalization(n: int) -> float:
    """int over [0, 2*pi)^n of prod_{j<k} |e^{i t_k} - e^{i t_j}|^2 = (2*pi)^n n!."""
    if n < 1:
        raise ValueError("n >= 1 required")
    return exp(n * log(TWO_PI) + lgamma(n + 1.0))


# --- quadrature cross-checks for the Euler densities -------------------------


def _tensor_gl(dims, fn, nodes: int) -> float:
    """Tensor-product Gauss-Legendre integral of fn over boxes ``dims``;
    ``fn(axes)`` gets the list of node vectors, one per axis, each shaped to
    broadcast along its own axis of the grid, once per grid, and returns the
    integrand broadcastable to the grid (an axis it does not read stays
    length 1, and a scalar is broadcast)."""
    pts, wts = [], []
    for axis, (lo, hi) in enumerate(dims):
        x, w = np.polynomial.legendre.leggauss(nodes)
        x = 0.5 * (hi - lo) * x + 0.5 * (hi + lo)
        pts.append(x.reshape((nodes,) + (1,) * (len(dims) - 1 - axis)))
        wts.append(0.5 * (hi - lo) * w)
    weight = reduce(np.multiply.outer, wts)
    return float((fn(pts) * weight).sum())


def volume_quadrature(tag: str, n: int):
    """Integrate the implemented Euler density over its angle ranges.

    Supported: QUADRATURE_DOMAIN (so with n = 2, 3; u with n = 1, 2).  Returns
    (value, refine) where refine is the change from QUADRATURE_NODES to 3/2
    as many nodes per axis, a convergence certificate for the tensor
    Gauss-Legendre rule.
    """
    if n not in QUADRATURE_DOMAIN.get(tag, ()):
        raise ValueError("quadrature cross-check supports so (2<=n<=3), u (n<=2)")
    density = density_so if tag == "so" else density_u
    if tag == "so":
        dims = [(0.0, TWO_PI) if j == 1 else (0.0, pi) for j in row_j(n)]
    else:  # U(2) axes: phi_{1,2}, psi_{1,2}, alpha_1, alpha_2; only phi enters
        dims = [(0.0, TWO_PI)] if n == 1 else [(0.0, pi / 2.0)] + [(0.0, TWO_PI)] * 3
    rows = n * (n - 1) // 2  # the packed angle axes come first
    coarse, fine = (_tensor_gl(dims, lambda axes: density(axes[:rows]), nodes)
                    for nodes in (QUADRATURE_NODES, QUADRATURE_NODES + QUADRATURE_NODES // 2))
    return fine, abs(fine - coarse)


# --- the group-averaging (Reynolds) operator ---------------------------------


def reynolds_average(f, tag: str, n: int, stream: RandomStream,
                     samples: int, x=None, exact: bool = False):
    """Monte Carlo group average (1/S) sum_k f(M_k, x) with standard error,
    over group ``tag`` at n, drawn by the tag's default sampler.

    ``f(stack, x)`` maps the (S, d, d) stack of sampled matrices to its S
    real values, e.g. ``lambda m, v: np.abs((m @ v)[:, 0]) ** 2`` (a scalar
    is broadcast; any other shape raises ValueError, and so does a value
    with a nonzero imaginary part).  For the permutation group with n <= 8,
    ``exact=True`` replaces sampling by the stack of all n! matrices
    (standard error 0); on any other group it raises ValueError.  Averaging
    any f produces an invariant of the group action; constants are
    reproduced exactly.
    """
    entry = samplers.sampler(tag)
    entry.shape(n)  # ValueError unless n is an int >= 1
    perm = entry.kind == "permutation"
    if exact and not perm:
        raise ValueError(f"exact enumeration needs the permutation group, not {tag}")
    if exact:
        if n > 8:
            raise ValueError("exact enumeration supported for n <= 8")
        mats = np.array(list(itertools.permutations(range(n))))
    elif samples < 2:
        raise ValueError("samples >= 2 required")
    else:
        mats = entry.draw(stream, n, samples)
    if perm:
        mats = samplers.permutation_matrices(mats)
    vals = np.asarray(f(mats, x))
    if np.iscomplexobj(vals) and np.any(vals.imag):
        raise ValueError("f must return real values")
    vals = np.asarray(vals.real, dtype=float)
    if vals.ndim and vals.shape != (len(mats),):
        raise ValueError(f"f must return a scalar or shape ({len(mats)},), not {vals.shape}")
    vals = np.broadcast_to(vals, (len(mats),))
    return (float(vals.mean()), 0.0) if exact else mean_and_error(vals)


def mean_and_error(vals):
    """(mean, std(ddof=1) / sqrt(len)) of the sample ``vals``, as floats."""
    return float(vals.mean()), float(vals.std(ddof=1) / np.sqrt(len(vals)))


# --- statistical test primitives ---------------------------------------------


@dataclass(frozen=True)
class TestReport:
    """Outcome of one statistical check; passes iff statistic <= critical."""

    __test__ = False  # keep pytest collection away from this value class

    statistic: float
    critical: float
    n: int
    method: str  # "ks" | "chi-square" | "moment-z"
    label: str = ""
    details: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return bool(self.statistic <= self.critical)  # False for a NaN statistic


def _report(stat, crit, n, method, label, **details):
    return TestReport(statistic=float(stat), critical=float(crit), n=int(n),
                      method=method, label=label, details=details)


def _check_level(level: float) -> None:
    if not 0.0 < level < 1.0:  # a NaN level fails too
        raise ValueError(f"level must lie in (0, 1), not {level!r}")


def _upper_quantile(sf_pdf, level: float, lo: float, hi: float) -> float:
    """The x in (lo, hi] at which a decreasing survival function falls to
    ``level``, where ``sf_pdf(x)`` gives (sf, density) and sf(hi) <= level.
    Newton steps on log sf start at hi (log sf has derivative -density/sf);
    a step that would leave the bracket halves it instead."""
    x = hi
    for _ in range(200):
        sf, pdf = sf_pdf(x)
        if sf > level:
            lo = x
        else:
            hi = x
        step = log(sf / level) * sf / pdf if sf > 0.0 and pdf > 0.0 else inf
        if abs(step) <= 1e-9 * x:  # quadratic convergence: x + step is the root
            return x + step
        if hi - lo <= 1e-15 * hi:
            return x
        x = x + step if lo < x + step < hi else 0.5 * (lo + hi)
    raise ArithmeticError(f"no upper quantile found at level {level!r}")


def _kolmogorov_sf_pdf(x: float):
    """Kolmogorov's limit law of sqrt(n) D_n: its survival function
    2 sum_k (-1)^(k-1) exp(-2 k^2 x^2) and density, to double precision
    for x >= 0.1 (Marsaglia, Tsang & Wang, J. Stat. Softw. 8, 2003)."""
    k = np.arange(1.0, 2.0 + 5.0 / x)
    terms = np.exp(-2.0 * (k * x) ** 2)
    terms[1::2] *= -1.0
    return 2.0 * float(terms.sum()), 8.0 * x * float((k * k * terms).sum())


def _kolmogorov_cdf_pdf(u: float):
    """Kolmogorov's CDF at x = 1/u, which falls as u grows, by Jacobi's form
    sqrt(2 pi) u sum_k exp(-(2k-1)^2 pi^2 u^2 / 8), and minus its derivative
    in u, to double precision for x <= 1.5 (six terms): a sum of positive
    terms, where the survival series cancels near 1."""
    a = (np.arange(1.0, 12.0, 2.0) * (pi * u)) ** 2 / 8.0
    terms = np.exp(-a)
    return (sqrt(2.0 * pi) * u * float(terms.sum()),
            sqrt(2.0 * pi) * float(((2.0 * a - 1.0) * terms).sum()))


@lru_cache
def _kolmogorov_quantile(level: float) -> float:
    """Upper ``level`` quantile of Kolmogorov's law.  Up to level 0.5 it is
    solved on the survival series from x0 with 2 exp(-2 x0^2) = level,
    which bounds it from above.  Above 0.5 the quantile lies below the
    median 0.828, and 1/x is solved on Jacobi's form of the CDF, at
    1 - level (exact there).  Every level below 1 puts it above 0.1,
    where both forms have their accuracy."""
    _check_level(level)
    if level > 0.5:
        return 1.0 / _upper_quantile(_kolmogorov_cdf_pdf, 1.0 - level, 1.0 / 0.83, 10.0)
    return _upper_quantile(_kolmogorov_sf_pdf, level, 0.1, sqrt(0.5 * (log(2.0) - log(level))))


def _chi2_sf_pdf(x: float, dof: int):
    """Survival function and density of chi-square with integer ``dof``.
    With a = dof/2 and y = x/2, sf is erfc(sqrt y) for odd dof, plus the
    sum over e = a-1, a-2, ... > -1/2 of exp(e log y - y - lgamma(e+1)).
    The first term (twice the density) is taken in log space, each later
    one from it by the ratio e/y."""
    y, a = 0.5 * x, 0.5 * dof
    top = exp((a - 1.0) * log(y) - y - lgamma(a))
    sf = erfc(sqrt(y)) if dof % 2 else 0.0
    if dof > 1:
        sf += top * (1.0 + float(np.cumprod(np.arange(a - 1.0, 0.75, -1.0) / y).sum()))
    return sf, 0.5 * top


@lru_cache
def _chi2_quantile(level: float, dof: int) -> float:
    """Upper ``level`` quantile of chi-square with ``dof`` >= 1, from
    dof + 2 sqrt(dof t) + 2t, t = -log(level), which bounds it from above
    (Laurent & Massart, Ann. Statist. 28, 2000, Lemma 1)."""
    _check_level(level)
    t = -log(level)
    return _upper_quantile(lambda x: _chi2_sf_pdf(x, dof), level, 0.0,
                           dof + 2.0 * sqrt(dof * t) + 2.0 * t)


def ks_test(samples, cdf, level: float = DEFAULT_LEVEL, label: str = "") -> TestReport:
    """One-sample Kolmogorov-Smirnov test against a vectorized CDF: ``cdf``
    maps the sorted (n,) sample to its (n,) CDF values in one call (any
    other shape raises ValueError)."""
    x = np.sort(np.asarray(samples, dtype=float))
    n = len(x)
    if n < 50:
        raise ValueError("one-sample KS needs at least 50 samples")
    f = np.asarray(cdf(x), dtype=float)
    if f.shape != x.shape:
        raise ValueError(f"cdf must return shape {x.shape}, not {f.shape}")
    grid = np.arange(1, n + 1) / n
    d = max(float(np.max(grid - f)), float(np.max(f - (grid - 1.0 / n))))
    crit = _kolmogorov_quantile(level) / np.sqrt(n)
    return _report(d, crit, n, "ks", label, level=level)


def ks_two_sample(a, b, level: float = DEFAULT_LEVEL, label: str = "") -> TestReport:
    """Two-sample Kolmogorov-Smirnov test; a NaN in either sample makes the
    statistic NaN, so the test fails."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    na, nb = len(a), len(b)
    if na < 100 or nb < 100:
        raise ValueError("two-sample KS needs at least 100 samples per side")
    allv = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, allv, side="right") / na
    cdf_b = np.searchsorted(b, allv, side="right") / nb
    d = nan if np.isnan(a[-1]) or np.isnan(b[-1]) else float(np.abs(cdf_a - cdf_b).max())
    crit = _kolmogorov_quantile(level) * np.sqrt(1.0 / na + 1.0 / nb)
    return _report(d, crit, na + nb, "ks", label, level=level, n_a=na, n_b=nb)


def chi_square(counts, expected, level: float = DEFAULT_LEVEL,
               label: str = "") -> TestReport:
    """Chi-square goodness of fit against fully specified expected counts,
    in at least two bins."""
    counts = np.asarray(counts, dtype=float)
    expected = np.asarray(expected, dtype=float)
    if counts.shape != expected.shape or counts.ndim != 1:
        raise ValueError("counts and expected must be equal-length vectors")
    if len(counts) < 2:
        raise ValueError("chi-square needs at least two bins")
    if np.any(expected <= 0.0):
        raise ValueError("expected counts must be positive")
    if np.any(expected < 5.0):
        raise ValueError("expected counts below 5: merge bins first")
    stat = float(((counts - expected) ** 2 / expected).sum())
    dof = len(counts) - 1
    crit = _chi2_quantile(level, dof)
    return _report(stat, crit, int(counts.sum()), "chi-square", label,
                   level=level, dof=dof)


def moment_check(exact: float, estimate: float, se: float,
                 label: str = "") -> TestReport:
    """|z|-score check of a Monte Carlo estimate against an exact value,
    passing within MOMENT_Z_MAX standard errors; z is NaN, and the check
    fails, unless the standard error is finite and >= 0."""
    if not 0.0 <= se < inf:  # a NaN se fails this too
        z = nan
    elif se == 0.0 and estimate == exact:
        z = 0.0
    else:
        z = abs(estimate - exact) / (se or 1e-300)
    return _report(z, MOMENT_Z_MAX, 0, "moment-z", label,
                   exact=exact, estimate=estimate, std_error=se)
