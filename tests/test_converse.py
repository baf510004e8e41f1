"""The converse half of Hurwitz's theorem, tested as a distribution.

Read probabilistically, the theorem has two halves: Euler angles drawn
independently from their beta laws compose to a Haar matrix (the Euler
samplers rest on this), and the Euler angles of a Haar matrix are
independent with those laws.  This module tests the second half on
matrices from the constructions that use no Euler angles, QR and
Householder, through ``extract_angles_so`` / ``extract_angles_u``.

The design is fixed here, seeds included, and was not tuned to the data:

* Draws: SO(6) x 20,000 by QR and SO(6) x 20,000 by Householder, each
  det-conditioned by ``verify._so_conditioned``; U(4) x 20,000 by QR.
* Marginal laws, one-sample KS:
  SO: (1 + cos theta_{j,k}) / 2 ~ Beta(j/2, j/2) for j >= 2 and
  theta_{1,k} / 2pi ~ U(0, 1);
  U: sin^2 phi_{j,k} ~ Beta(j, 1); psi_{j,k} and alpha_2 .. alpha_n ~
  U(0, 2pi); n alpha_1 mod 2pi ~ U(0, 2pi).  alpha_1 itself is not
  uniform: by convention it is arg(det V) / n.
* Independence: Spearman rho over every pair of those variables (ranks,
  so the monotone transforms above change no p-value), 105 pairs per SO
  set and 120 for U.
* Level: family-wise 1e-3, Bonferroni over all 376 tests (15 + 105 per SO
  set, 16 + 120 for U), so every p-value must exceed 1e-3 / 376.
"""

import numpy as np
import pytest
from scipy import stats

from haarforge import samplers, verify
from haarforge.euler import angle_pairs, extract_angles_so, extract_angles_u
from haarforge.randstream import RandomStream

TWO_PI = 2.0 * np.pi
SEED = 1512
COUNT = 20_000
FAMILY_LEVEL = 1e-3
TESTS = 376
THRESHOLD = FAMILY_LEVEL / TESTS


def _so_variables(method, sid, n=6):
    """(label, x, cdf) per angle: x ~ cdf under the converse."""
    theta = extract_angles_so(verify._so_conditioned(method, SEED, sid, n, COUNT))
    out = []
    for (j, k), t in theta.items():
        if j == 1:
            out.append((f"theta{j}{k}/2pi", t / TWO_PI, stats.uniform().cdf))
        else:
            out.append((f"(1+cos theta{j}{k})/2", 0.5 * (1.0 + np.cos(t)),
                        stats.beta(j / 2.0, j / 2.0).cdf))
    return out


def _u_variables(sid, n=4):
    phi, psi, alpha = extract_angles_u(
        samplers.qr_batch(RandomStream(SEED, sid), n, COUNT, "complex"))
    uniform = stats.uniform(0.0, TWO_PI).cdf
    out = []
    for j, k in angle_pairs(n):
        out.append((f"sin^2 phi{j}{k}", np.sin(phi[(j, k)]) ** 2, stats.beta(j, 1.0).cdf))
        out.append((f"psi{j}{k}", psi[(j, k)], uniform))
    out.append(("n alpha1 mod 2pi", np.mod(n * alpha[:, 0], TWO_PI), uniform))
    out.extend((f"alpha{i + 1}", alpha[:, i], uniform) for i in range(1, n))
    return out


SETS = {
    "so6-qr": (lambda: _so_variables("qr", 1), 15, 105),
    "so6-householder": (lambda: _so_variables("householder", 2), 15, 105),
    "u4-qr": (lambda: _u_variables(3), 16, 120),
}


@pytest.fixture(scope="module")
def pvalues():
    """Per set: {label: KS p} and {(label, label): Spearman p}."""
    out = {}
    for name, (build, _, _) in SETS.items():
        variables = build()
        marginal = {label: stats.kstest(x, law).pvalue for label, x, law in variables}
        p = stats.spearmanr(np.column_stack([x for _, x, _ in variables])).pvalue
        labels = [label for label, _, _ in variables]
        pairs = {(labels[a], labels[b]): p[a, b]
                 for a in range(len(labels)) for b in range(a + 1, len(labels))}
        out[name] = marginal, pairs
    return out


def test_bonferroni_count_is_the_registered_one(pvalues):
    assert sum(len(m) + len(i) for m, i in pvalues.values()) == TESTS


@pytest.mark.parametrize("name", list(SETS))
def test_marginal_laws(pvalues, name):
    marginal, _ = pvalues[name]
    assert len(marginal) == SETS[name][1]
    worst = min(marginal, key=marginal.get)
    assert marginal[worst] > THRESHOLD, f"{worst}: KS p = {marginal[worst]:.3g}"


@pytest.mark.parametrize("name", list(SETS))
def test_pairwise_independence(pvalues, name):
    _, pairs = pvalues[name]
    assert len(pairs) == SETS[name][2]
    worst = min(pairs, key=pairs.get)
    assert pairs[worst] > THRESHOLD, f"{worst}: Spearman p = {pairs[worst]:.3g}"
