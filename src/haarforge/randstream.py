"""Seeded, reproducible randomness plus the special angle distributions.

The bit source is Philox keyed by ``(seed, stream_id)``: replaying an
identical call sequence on an identical key reproduces every output bit for
bit, and distinct stream ids give independent lanes.  Each method gives
its law and draw order; every draw takes its array shape ``size``, and only
``uniform`` also has a scalar form (``size`` None returns a float).

A stream is single-owner: do not share one instance across concurrent
tasks; create siblings with distinct ``stream_id`` instead.
"""

from __future__ import annotations

import math

import numpy as np

from haarforge.linalg import _redraw


class RandomStream:
    """Deterministic stream of uniforms, Gaussians and angle variates."""

    def __init__(self, seed: int, stream_id: int = 0):
        self.seed = int(seed) & 0xFFFFFFFFFFFFFFFF
        self.stream_id = int(stream_id) & 0xFFFFFFFFFFFFFFFF
        key = np.array([self.seed, self.stream_id], dtype=np.uint64)
        self._gen = np.random.Generator(np.random.Philox(key=key))

    def sibling(self, stream_id: int) -> "RandomStream":
        """Independent stream with the same seed and a new stream_id."""
        return RandomStream(self.seed, stream_id)

    # -- primitive draws --------------------------------------------------

    def uniform(self, lo: float = 0.0, hi: float = 1.0, size=None):
        """Uniform on [lo, hi).  Raises ValueError when lo >= hi."""
        if not lo < hi:
            raise ValueError(f"need lo < hi, got [{lo}, {hi})")
        r = self._gen.random(size)
        if lo == 0.0 and hi == 1.0:
            return r
        r *= hi - lo  # in place: the bits of lo + (hi - lo) * r
        r += lo
        return r

    _CHUNK = 1 << 20  # variates per chunk; with m below, this defines the stream
    _BLOCK = 1 << 14  # pairs per sub-block: its temporaries stay in L2

    def gaussian(self, size, out=None):
        """Standard normal variates of shape ``size``; with ``out``, a 1-D
        array (it may be strided) of that many entries, filled in place and
        returned.  Either way the stream is the same."""
        # polar Box-Muller: draw (u, v) uniform on (-1, 1)^2, accept when
        # s = u^2 + v^2 lies in (0, 1), emit u*sqrt(-2 ln s / s) followed by
        # the matching v-components, chunk by chunk.  A chunk's m u-uniforms
        # and m v-uniforms are one random(2m) draw r, mapped in place; each
        # sub-block of pairs writes its accepted u*f and v*f to the fronts of
        # r's halves, so the scratch is r alone (1.4x the chunk's variates).
        k = _count(size)
        flat = np.empty(k) if out is None else out
        if flat.shape != (k,):
            raise ValueError(f"out must have shape ({k},), not {flat.shape}")
        filled = 0
        while filled < k:
            need = min(self._CHUNK, k - filled)
            m = max(8, int(need * 0.7) + 16)
            r = self._gen.random(2 * m)
            r *= 2.0
            r -= 1.0
            took = 0
            for i in range(0, m, self._BLOCK):
                e = min(i + self._BLOCK, m)
                u, v = r[i:e], r[m + i:m + e]
                s = u * u
                s += v * v
                ok = s < 1.0
                ok &= s > 0.0
                keep = np.flatnonzero(ok)  # one index array serves three gathers
                s = s.take(keep)
                f = np.log(s)
                f *= -2.0
                f /= s
                np.sqrt(f, out=f)
                end = took + len(f)
                np.multiply(u.take(keep), f, out=r[took:end])
                np.multiply(v.take(keep), f, out=r[m + took:m + end])
                took = end
            take_u = min(took, need)
            flat[filled:filled + take_u] = r[:take_u]
            filled += take_u
            if filled < k:
                take_v = min(took, k - filled)
                flat[filled:filled + take_v] = r[m:m + take_v]
                filled += take_v
            del r, u, v  # free this chunk's uniforms before the next draw
        return flat.reshape(size) if out is None else out

    # -- angle laws --------------------------------------------------------

    def cos_theta_so(self, j, size):
        """cos(theta) of an SO Euler angle: g / sqrt(g^2 + 2 G).

        g is one standard Gaussian and G ~ standard_gamma(j/2), so 2 G ~
        chi^2_j stands for g_1^2 + ... + g_j^2 and the ratio is
        g_{j+1} / |(g_1, ..., g_{j+1})|: the density on (-1, 1) is
        proportional to (1 - s^2)^((j-2)/2), i.e. (1 + s)/2 ~ Beta(j/2, j/2).
        ``j`` is an int or an int array that broadcasts against ``size``.  Draw
        order: all Gaussians of the block, then all gamma variates; a zero
        denominator (probability zero) redraws both for the affected entries,
        and ConvergenceError follows REDRAW_ROUNDS rounds that leave one.
        """
        j = np.asarray(j)
        if np.any(j < 1):
            raise ValueError("j >= 1 required")
        shape = (int(size),) if np.ndim(size) == 0 else tuple(size)
        if np.broadcast_shapes(j.shape, shape) != shape:
            raise ValueError(f"j of shape {j.shape} does not broadcast to {shape}")
        g = self.gaussian(shape)
        den = self._gen.standard_gamma(0.5 * j, size=shape)
        den *= 2.0
        den += g * g

        def redo(bad):
            g[bad] = self.gaussian(int(bad.sum()))
            den[bad] = g[bad] ** 2 + 2.0 * self._gen.standard_gamma(
                np.broadcast_to(0.5 * j, shape)[bad])

        _redraw(lambda: den == 0.0, redo, "a zero SO angle denominator")
        g /= np.sqrt(den)
        return g

    def phi_unitary(self, j: int, size):
        """phi = arcsin(xi^(1/(2j))) on [0, pi/2]: density ~ cos(phi) sin(phi)^(2j-1)."""
        if j < 1:
            raise ValueError("j >= 1 required")
        return phi_unitary_law(self._gen.random(size), j)

    def rho_symplectic(self, j: int, size):
        """rho on [0, pi/2] with density ~ cos^3(rho) sin(rho)^(4j-1).

        Equivalently sin^2(rho) ~ Beta(2j, 2), realized exactly as the
        second largest of 2j+1 independent uniforms.
        """
        if j < 1:
            raise ValueError("j >= 1 required")
        u = self._gen.random((_count(size), 2 * j + 1))
        return rho_symplectic_law(u, j).reshape(size)

    def sin2phi_quaternion(self, size):
        """phi = arcsin(sqrt(xi)) on [0, pi/2]: density ~ sin(2 phi)."""
        return sin2phi_law(self._gen.random(size))


# The angle laws as maps of their uniforms, for draws that take the uniforms
# of many angles in one block.  j is a Python int, so ``**`` gets a scalar
# exponent (u ** 0.5 takes numpy's sqrt path, an array of 0.5 does not), and
# arcsin runs on the contiguous result: its bits differ on a negative-stride
# view.


def phi_unitary_law(u, j: int):
    """The phi_unitary(j) angles of uniforms u."""
    return np.arcsin(u ** (1.0 / (2.0 * j)))


def rho_symplectic_law(u, j: int):
    """The rho_symplectic(j) angles of (..., 2j+1) uniforms u, one per row of
    the last axis; u is partitioned in place."""
    u.partition(2 * j - 1, axis=-1)
    return np.arcsin(np.sqrt(u[..., 2 * j - 1]))


def sin2phi_law(u):
    """The sin2phi_quaternion angles of uniforms u."""
    return np.arcsin(np.sqrt(u))


def _count(size) -> int:
    """Number of variates in an int or tuple ``size`` (np.prod costs a call)."""
    return int(size) if isinstance(size, (int, np.integer)) else int(math.prod(size))
