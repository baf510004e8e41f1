"""Law guards for the composed U and Sp Euler samplers that need no pin:
exact finite-n trace moments at n = 3, from 10^5 draws each.

For Haar U(n), E|tr U|^(2k) = k! while k <= n; for Haar USp(2n), tr V is
real with E (tr V)^2 = 1 and E (tr V)^4 = 3 (Gaussian moments while the
order is at most n + 1), and E tr V^2 = -1 (Diaconis & Shahshahani 1994).
The traces come from the matrices, not from their eigenphases.  The
seeds, the size and the bound |z| <= 5 were fixed before the first run;
an angle law taken at j = 1 for every j moves these moments by |z| = 37-62
(ROADMAP items 2(b) and 13).
"""

import math

import numpy as np
import pytest

from haarforge import samplers
from haarforge.randstream import RandomStream

N, COUNT, Z_MAX = 3, 100_000, 5.0


def _z(values, exact):
    values = np.asarray(values, dtype=float)
    return (values.mean() - exact) / (values.std(ddof=1) / math.sqrt(len(values)))


@pytest.fixture(scope="module")
def sp_traces():
    v = samplers.sp_euler_batch(RandomStream(281), N, COUNT)
    return np.einsum("bii->b", v), np.einsum("bij,bji->b", v, v)


@pytest.fixture(scope="module")
def u_traces():
    return np.einsum("bii->b", samplers.u_euler_batch(RandomStream(282), N, COUNT))


def test_sp_trace_is_real(sp_traces):
    tr, tr2 = sp_traces
    assert np.abs(tr.imag).max() <= 1e-12 and np.abs(tr2.imag).max() <= 1e-12


@pytest.mark.parametrize("moment,exact", [("tr V^2", -1.0), ("(tr V)^2", 1.0),
                                          ("(tr V)^4", 3.0)])
def test_sp_trace_moments(sp_traces, moment, exact):
    tr, tr2 = sp_traces[0].real, sp_traces[1].real
    values = {"tr V^2": tr2, "(tr V)^2": tr ** 2, "(tr V)^4": tr ** 4}[moment]
    assert abs(_z(values, exact)) <= Z_MAX


@pytest.mark.parametrize("k", [1, 2])
def test_u_trace_moments(u_traces, k):
    assert abs(_z(np.abs(u_traces) ** (2 * k), math.factorial(k))) <= Z_MAX
