"""Mean-to-information-content map for symmetric Gaussian LLRs.

An LLR message modeled as N(m, 2m) carries mutual information

    J(m) = 1 - E[log2(1 + exp(-L))],   L ~ N(m, 2m),

a strictly increasing bijection from [0, inf) onto [0, 1).  J and its inverse
sit inside every density-evolution and design loop here, so both are served
from a table built once by vectorized Gauss-Legendre quadrature and
interpolated with a monotone cubic (PCHIP).  Beyond the last knot the
approach to 1 is continued by an exponential tail fit; the inverse is a
table-bracketed Newton iteration on the forward interpolant.

All functions accept scalars or arrays and are safe for concurrent callers
once the table exists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import PchipInterpolator

_LN2 = math.log(2.0)
# Largest representable IC strictly below 1; j_of_mean never exceeds this.
_IC_MAX = float(np.nextafter(1.0, 0.0))
# Inverse inputs are clamped here when clamping is requested (composition use).
IC_CLAMP = 1.0 - 1e-12

_TABLE_M_MAX = 130.0
_TABLE_SIZE = 4096
_GL_NODES = 1200


def _j_by_quadrature(ms: np.ndarray) -> np.ndarray:
    """Gauss-Legendre evaluation of the defining integral, vectorized over m.

    Two coordinate systems keep the integrand resolved at every scale: for
    m < 1 the Gaussian is narrow, so integrate in standardized z; for m >= 1
    the log2(1+e^-v) factor has unit scale and all integrand mass lies in
    v in [-100, 100].
    """
    from scipy.special import roots_legendre

    nodes, weights = roots_legendre(_GL_NODES)
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

        self.fwd = PchipInterpolator(self.m, self.j, extrapolate=False)
        self.der = self.fwd.derivative()

        # Inverse seed interpolant; abscissa must strictly increase.
        inc = np.concatenate(([True], np.diff(self.j) > 0.0))
        self.inv_seed = PchipInterpolator(self.j[inc], self.m[inc], extrapolate=False)

        # Exponential tail 1 - J ~ exp(a - b m), fitted on the last knots.
        tail = self.m >= self.m[-1] - 20.0
        b, a = np.polyfit(self.m[tail], np.log1p(-self.j[tail]), 1)
        self.tail_a = float(a)
        self.tail_b = float(-b)
        self.m_max = float(self.m[-1])
        self.j_max = float(self.j[-1])

    def evaluate(self, m: np.ndarray) -> np.ndarray:
        m = np.asarray(m, dtype=float)
        out = np.empty_like(m)
        inside = m <= self.m_max
        if inside.any():
            out[inside] = self.fwd(m[inside])
        if not inside.all():
            out[~inside] = 1.0 - np.exp(self.tail_a - self.tail_b * m[~inside])
        return np.clip(out, 0.0, _IC_MAX)

    def invert(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        m = np.asarray(self.inv_seed(np.minimum(x, self.j_max)), dtype=float)
        m = np.clip(np.nan_to_num(m, nan=self.m_max), 0.0, self.m_max)

        # A couple of Newton steps polish the seed to machine accuracy.
        for _ in range(3):
            d = np.maximum(self.der(m), 1e-300)
            m = np.clip(m - (self.fwd(m) - x) / d, 0.0, self.m_max)

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
