"""Mean-to-information-content map for symmetric Gaussian LLRs.

An LLR message modeled as N(m, 2m) carries mutual information

    J(m) = 1 - E[log2(1 + exp(-L))],   L ~ N(m, 2m),

a strictly increasing bijection from [0, inf) onto [0, 1).  J and its inverse
sit inside every density-evolution and design loop here, so both are served
from a table built once by vectorized Gauss-Legendre quadrature, whose nodes
and weights come from Newton's method on the Legendre three-term recurrence,
and interpolated with `Pchip`, this module's monotone cubic Hermite
interpolant (scipy's PCHIP slopes and arithmetic, bit for bit).  Beyond the
last knot the approach to 1 is continued by an exponential tail fit; the
inverse is a table-bracketed Newton iteration on the forward interpolant.
The module needs numpy only.

All functions accept scalars or arrays and are safe for concurrent callers
once the table exists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_LN2 = math.log(2.0)
# Largest representable IC strictly below 1; j_of_mean never exceeds this.
_IC_MAX = float(np.nextafter(1.0, 0.0))
# Inverse inputs are clamped here when clamping is requested (composition use).
IC_CLAMP = 1.0 - 1e-12

_TABLE_M_MAX = 130.0
_TABLE_SIZE = 4096
_GL_NODES = 1200


class Pchip:
    """Monotone piecewise cubic Hermite interpolant through (x, y).

    The knot slopes are Fritsch-Carlson's, as scipy's PchipInterpolator sets
    them (a weighted harmonic mean of the neighboring secant slopes inside,
    a shape-preserving one-sided estimate at the ends), and the value and
    slope on an interval are evaluated in the operation order of scipy's
    PPoly, so both equal PchipInterpolator(x, y) and its derivative bit for
    bit, except at the last knot, where this returns y[-1] exactly and the
    end slope as its slope.

    x must be strictly increasing and finite; callers keep their inputs in
    [x[0], x[-1]], and there is no extrapolation.
    """

    def __init__(self, x, y) -> None:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        h = np.diff(x)
        secant = np.diff(y) / h
        d = _pchip_slopes(h, secant)
        t = (d[:-1] + d[1:] - 2 * secant) / h
        # One row per interval, (x_i, c3, c2, c1, c0, 2 c1, 3 c0), plus a
        # row (x[-1], y[-1], d[-1], 0, ...) that the last knot evaluates on.
        rows = np.zeros((x.size, 7))
        rows[:, 0] = x
        rows[:, 1] = y
        rows[:, 2] = d
        rows[:-1, 3] = (secant - d[:-1]) / h - t
        rows[:-1, 4] = t / h
        rows[:, 5] = 2.0 * rows[:, 3]
        rows[:, 6] = 3.0 * rows[:, 4]
        self._rows = rows
        self._knots = x[1:]

    def _locate(self, v):
        v = np.asarray(v, dtype=float)
        row = self._rows.take(np.searchsorted(self._knots, v, side="right"), axis=0)
        return row, v - row[..., 0]

    def __call__(self, v) -> np.ndarray:
        row, s = self._locate(v)
        return _poly_value(row, s)

    def value_and_slope(self, v) -> tuple[np.ndarray, np.ndarray]:
        """The interpolant and its derivative at v, from one locate."""
        row, s = self._locate(v)
        z = s * s
        slope = row[..., 2] + row[..., 5] * s
        slope += row[..., 6] * z
        return _poly_value(row, s), slope


def _poly_value(row, s):
    # Power sum c3 + c2 s + c1 s^2 + c0 s^3 in PPoly's order.
    out = row[..., 1] + row[..., 2] * s
    z = s * s
    out += row[..., 3] * z
    z *= s
    out += row[..., 4] * z
    return out


def _pchip_slopes(h: np.ndarray, secant: np.ndarray) -> np.ndarray:
    if h.size == 1:
        return np.repeat(secant, 2)
    sign = np.sign(secant)
    flat = (sign[1:] != sign[:-1]) | (secant[1:] == 0) | (secant[:-1] == 0)
    w1 = 2 * h[1:] + h[:-1]
    w2 = h[1:] + 2 * h[:-1]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        whmean = (w1 / secant[:-1] + w2 / secant[1:]) / (w1 + w2)
    d = np.zeros(h.size + 1)
    d[1:-1][~flat] = 1.0 / whmean[~flat]
    d[0] = _pchip_end_slope(h[0], h[1], secant[0], secant[1])
    d[-1] = _pchip_end_slope(h[-1], h[-2], secant[-1], secant[-2])
    return d


def _pchip_end_slope(h0: float, h1: float, m0: float, m1: float) -> float:
    # One-sided three-point estimate, limited to preserve shape.
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def _legendre(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_n(x) and P_n'(x) by the three-term recurrence, for |x| < 1."""
    p_prev, p = np.ones_like(x), x
    for j in range(2, n + 1):
        p_prev, p = p, ((2 * j - 1) * x * p - (j - 1) * p_prev) / j
    return p, n * (x * p - p_prev) / (x * x - 1.0)


def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes (ascending) and weights of the n-point Gauss-Legendre rule, n even.

    Newton's method on P_n for all positive roots at once, started from
    cos(pi (k - 1/4) / (n + 1/2)) and run until no step exceeds a few ulps;
    the negative half is the mirror image.
    """
    k = np.arange(1, n // 2 + 1)
    x = np.cos(math.pi * (k - 0.25) / (n + 0.5))
    for _ in range(10):
        p, dp = _legendre(n, x)
        step = p / dp
        x = x - step
        if np.max(np.abs(step)) <= 4.0 * np.finfo(float).eps:
            break
    _, dp = _legendre(n, x)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    return np.concatenate((-x, x[::-1])), np.concatenate((w, w[::-1]))


def _j_by_quadrature(ms: np.ndarray) -> np.ndarray:
    """Gauss-Legendre evaluation of the defining integral, vectorized over m.

    Two coordinate systems keep the integrand resolved at every scale: for
    m < 1 the Gaussian is narrow, so integrate in standardized z; for m >= 1
    the log2(1+e^-v) factor has unit scale and all integrand mass lies in
    v in [-100, 100].
    """
    nodes, weights = _gauss_legendre(_GL_NODES)
    out = np.zeros_like(ms)

    small = (ms > 0.0) & (ms < 1.0)
    if small.any():
        m = ms[small][:, None]
        z = 60.0 * nodes[None, :]
        f = np.logaddexp(0.0, -(m + np.sqrt(2.0 * m) * z)) * np.exp(-0.5 * z * z)
        total = (f * (60.0 * weights)[None, :]).sum(axis=1)
        out[small] = 1.0 - total / (_LN2 * math.sqrt(2.0 * math.pi))

    big = ms >= 1.0
    if big.any():
        m = ms[big][:, None]
        v = 100.0 * nodes
        # The log2(1+e^-v) factor is m-independent; fold it into the weights.
        wf = 100.0 * weights * np.logaddexp(0.0, -v)
        total = (wf[None, :] * np.exp(-np.square(v[None, :] - m) / (4.0 * m))).sum(axis=1)
        out[big] = 1.0 - total / (_LN2 * np.sqrt(4.0 * math.pi * m[:, 0]))

    return out


class _JTable:
    def __init__(self) -> None:
        m = np.concatenate(([0.0], np.geomspace(1e-7, _TABLE_M_MAX, _TABLE_SIZE)))
        j = _j_by_quadrature(m)
        j[0] = 0.0
        j = np.minimum(np.maximum.accumulate(j), 1.0)

        # Drop the saturated tail: knots past 1 - few*eps carry no information
        # and would break the strict monotonicity the inverse needs.
        keep = (1.0 - j) > 4.0 * np.finfo(float).eps
        last = int(np.argmin(keep)) if not keep.all() else len(j)
        self.m = m[:last]
        self.j = j[:last]

        self.fwd = Pchip(self.m, self.j)

        # Inverse seed interpolant; abscissa must strictly increase.
        inc = np.concatenate(([True], np.diff(self.j) > 0.0))
        self.inv_seed = Pchip(self.j[inc], self.m[inc])

        # Exponential tail 1 - J ~ exp(a - b m), fitted on the last knots.
        tail = self.m >= self.m[-1] - 20.0
        b, a = np.polyfit(self.m[tail], np.log1p(-self.j[tail]), 1)
        self.tail_a = float(a)
        self.tail_b = float(-b)
        self.m_max = float(self.m[-1])
        self.j_max = float(self.j[-1])

    def evaluate(self, m: np.ndarray) -> np.ndarray:
        m = np.asarray(m, dtype=float)
        out = np.asarray(self.fwd(np.minimum(m, self.m_max)))
        tail = m > self.m_max
        if tail.any():
            out[tail] = 1.0 - np.exp(self.tail_a - self.tail_b * m[tail])
        return np.minimum(np.maximum(out, 0.0), _IC_MAX)

    def invert(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        m = np.minimum(np.maximum(self.inv_seed(np.minimum(x, self.j_max)), 0.0), self.m_max)

        # A couple of Newton steps polish the seed to machine accuracy.
        for _ in range(3):
            f, d = self.fwd.value_and_slope(m)
            m = np.minimum(np.maximum(m - (f - x) / np.maximum(d, 1e-300), 0.0), self.m_max)

        # Bisection rescue for any point Newton failed to settle (rare,
        # only near the flat saturating end of the table).
        bad = np.abs(self.evaluate(m) - x) > 1e-9
        if bad.any():
            lo = np.zeros(int(bad.sum()))
            hi = np.full(int(bad.sum()), self.m_max)
            xb = x[bad]
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                below = self.evaluate(mid) < xb
                lo = np.where(below, mid, lo)
                hi = np.where(below, hi, mid)
            m[bad] = 0.5 * (lo + hi)
        return m


_table: _JTable | None = None


def _get_table() -> _JTable:
    global _table
    if _table is None:
        _table = _JTable()
    return _table


def _as_float_array(value, name: str) -> tuple[np.ndarray, bool]:
    arr = np.asarray(value, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    return arr, arr.ndim == 0


def j_of_mean(m):
    """Information content of a symmetric Gaussian LLR with mean m.

    Strictly increasing, j_of_mean(0) == 0, and the result always lies in
    [0, 1).  Raises ValueError for negative or non-finite means.
    """
    arr, scalar = _as_float_array(m, "mean")
    if np.any(arr < 0.0):
        raise ValueError("mean must be nonnegative")
    out = _get_table().evaluate(arr)
    return float(out) if scalar else out


def mean_of_ic(x, clamp: bool = False):
    """Inverse of j_of_mean.

    Accepts IC values in [0, 1).  With clamp=True, inputs are first clipped
    to [0, 1 - 1e-12] instead of raising, which is how the evolution
    compositions absorb values that have drifted onto the boundary.
    """
    arr, scalar = _as_float_array(x, "ic")
    if clamp:
        arr = np.clip(arr, 0.0, IC_CLAMP)
    elif np.any(arr < 0.0) or np.any(arr >= 1.0):
        raise ValueError("ic must lie in [0, 1)")
    out = _get_table().invert(arr)
    return float(out) if scalar else out


def clip_ic(x):
    """Clamp composed IC values back into [0, 1]."""
    return np.clip(x, 0.0, 1.0)


@dataclass(frozen=True)
class ChannelParam:
    """BIAWGN channel constants derived from the noise level.

    x0 is the channel capacity J(2/sigma^2), the ceiling of every IC
    trajectory; f0 = Jinv(1 - x0) is the check-direction offset the channel
    observation contributes.
    """

    sigma2: float
    x0: float
    f0: float

    @property
    def sigma(self) -> float:
        return math.sqrt(self.sigma2)


def channel_from_sigma(sigma: float) -> ChannelParam:
    """Channel constants for noise standard deviation sigma > 0."""
    if not (isinstance(sigma, (int, float)) and math.isfinite(sigma)) or sigma <= 0.0:
        raise ValueError("sigma must be a positive finite number")
    sigma2 = float(sigma) ** 2
    x0 = j_of_mean(2.0 / sigma2)
    f0 = mean_of_ic(1.0 - x0, clamp=True)
    return ChannelParam(sigma2=sigma2, x0=x0, f0=f0)


def channel_from_capacity(capacity: float) -> ChannelParam:
    """Channel constants for a target capacity in (0, 1)."""
    if not (0.0 < capacity < 1.0):
        raise ValueError("capacity must lie in (0, 1)")
    sigma = math.sqrt(2.0 / mean_of_ic(capacity))
    return channel_from_sigma(sigma)
