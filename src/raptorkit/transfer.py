"""Extrinsic IC transfer functions of the precode.

Three kinds: the analytic LDPC composition (one check stage feeding the
variable stage, with the full variable degree i on the outgoing side since
the message leaves the precode), monotone-interpolated tabulated curves
loaded from files, and the null transfer that turns the joint analysis into
the plain LT-only (tandem) one.

Also computes the precode decoding threshold: the smallest a-priori IC at
which the precode's own density evolution, fed that IC at every variable
node and nothing else, converges.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np

from .degrees import LdpcEnsemble
from .jfunction import Pchip, clip_ic, j_of_mean, mean_of_ic

KIND_NULL = "null"
KIND_ANALYTIC = "analytic_ldpc"
KIND_TABULATED = "tabulated"


class TransferFileError(ValueError):
    pass


@dataclass(frozen=True)
class PrecodeThreshold:
    x_p: float


class TransferFunction:
    """Map from a-priori IC (out of the LT code) to extrinsic IC returned by
    the precode.  Immutable after construction; evaluation is vectorized."""

    def __init__(self, kind, ensemble=None, interp=None, knots=None):
        self.kind = kind
        self.ensemble = ensemble
        self._interp = interp
        self.knots = knots

    @classmethod
    def null(cls) -> "TransferFunction":
        return cls(KIND_NULL)

    @classmethod
    def analytic_ldpc(cls, ensemble: LdpcEnsemble) -> "TransferFunction":
        return cls(KIND_ANALYTIC, ensemble=ensemble)

    @classmethod
    def tabulated(cls, xs, ts) -> "TransferFunction":
        """Monotone cubic interpolation of the knots (xs, ts), which must be
        finite, with xs strictly increasing from exactly 0 to exactly 1.
        The curve passes through every knot exactly."""
        xs = np.asarray(xs, dtype=float)
        ts = np.asarray(ts, dtype=float)
        if xs.ndim != 1 or xs.shape != ts.shape:
            raise ValueError("transfer knots: x and T must be 1-D and of equal length")
        if xs.size < 2:
            raise ValueError("transfer knots: need at least two")
        if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ts))):
            raise ValueError("transfer knots must be finite")
        if np.any(np.diff(xs) <= 0.0):
            raise ValueError("transfer knots: x must be strictly increasing")
        if xs[0] != 0.0 or xs[-1] != 1.0:
            raise ValueError("transfer knots must span exactly [0, 1]")
        return cls(KIND_TABULATED, interp=Pchip(xs, ts), knots=(xs, ts))

    def evaluate(self, x):
        arr = np.asarray(x, dtype=float)
        if np.any(arr < 0.0) or np.any(arr > 1.0):
            raise ValueError("transfer input must lie in [0, 1]")
        if self.kind == KIND_NULL:
            out = np.zeros_like(arr)
        elif self.kind == KIND_ANALYTIC:
            out = _analytic_eval(self.ensemble, arr)
        else:
            out = clip_ic(self._interp(arr))
        return float(out) if arr.ndim == 0 else out


def _analytic_eval(ens: LdpcEnsemble, x: np.ndarray) -> np.ndarray:
    """One precode iteration: check stage on 1-x, then the variable stage
    aggregated over all i edges (extrinsic w.r.t. the LT side only)."""
    shape = x.shape
    xf = np.atleast_1d(x)
    mu = mean_of_ic(1.0 - xf, clamp=True)  # (T,)
    s = np.zeros_like(xf)
    for j, w in ens.check_edge.items():
        s += w * j_of_mean((j - 1) * mu)
    inner = mean_of_ic(clip_ic(1.0 - s), clamp=True)
    out = np.zeros_like(xf)
    for i, w in ens.var_edge.items():
        out += w * j_of_mean(i * inner)
    return clip_ic(out).reshape(shape)


def ldpc_de_converges(ens: LdpcEnsemble, apriori_ic, max_iters: int = 2000,
                      target: float = 1.0 - 1e-6):
    """Scalar IC density evolution of the precode alone: constant a-priori IC
    at every variable node, no channel observation.  True when the
    variable-side IC reaches the target within the iteration budget.

    A 1-D array of a-priori ICs runs one independent DE per lane and returns
    a boolean array; a scalar returns a bool.  Lane by lane the arithmetic is
    that of the scalar run, so the verdicts are the same.

    A lane also stops, with False, when an iteration leaves its state y
    exactly (==) where it was.  The state of the DE is y alone (the
    a-priori mean is constant), so that y is a fixed point: every later
    iteration repeats the same v, which has not reached the target.  This
    exit is exact, not a tolerance; it saves the budget on failing lanes.
    """
    lam_deg, lam_w = zip(*sorted(ens.var_edge.items()))
    rho_deg, rho_w = zip(*sorted(ens.check_edge.items()))
    lam_deg = np.array(lam_deg, dtype=float)
    lam_w = np.array(lam_w)
    rho_deg = np.array(rho_deg, dtype=float)
    rho_w = np.array(rho_w)

    x = np.asarray(apriori_ic, dtype=float)
    m_a = np.atleast_1d(mean_of_ic(x, clamp=True))
    converged = np.zeros(m_a.size, dtype=bool)
    lanes = np.arange(m_a.size)  # lanes still iterating
    y = np.zeros(m_a.size)
    for _ in range(max_iters):
        if not lanes.size:
            break
        v = _lane_dot(lam_w, j_of_mean((lam_deg - 1.0) * mean_of_ic(y, clamp=True)[:, None]
                                       + m_a[:, None]))
        done = v >= target
        converged[lanes[done]] = True
        live = ~done
        lanes, y, m_a, v = lanes[live], y[live], m_a[live], v[live]
        s = _lane_dot(rho_w, j_of_mean((rho_deg - 1.0) * mean_of_ic(1.0 - v, clamp=True)[:, None]))
        y_next = np.minimum(np.maximum(1.0 - s, 0.0), 1.0)
        moving = y_next != y
        lanes, y, m_a = lanes[moving], y_next[moving], m_a[moving]
    return bool(converged[0]) if x.ndim == 0 else converged


def _lane_dot(w: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """np.dot(w, row) for every row.  One np.dot per row rounds each sum as
    the scalar DE does, whatever order or fused multiply-adds the BLAS uses
    (a matrix-vector product may differ in the last bit)."""
    return np.array([np.dot(w, r) for r in rows])


# Bisection halvings settled per threshold_xp round: 2^6 - 1 = 63 DE lanes.
_ROUND_BITS = 6


def threshold_xp(t: TransferFunction, ensemble: LdpcEnsemble, tol: float = 1e-4) -> PrecodeThreshold:
    """Smallest a-priori IC at which the precode decodes, by bisection.

    Returns x_p = 1 for ensembles whose density evolution never converges.

    x_p is the upper end of the bracket left when [0, 1] has been halved
    until it is no wider than tol.  The halvings are taken up to
    `_ROUND_BITS` at a time: one array call runs the DE on every interior
    point lo + (hi - lo) k / 2^r of the bracket, then the r bisection steps
    are replayed on those verdicts.  Every midpoint the bisection tests is
    one of these points, and each is a dyadic rational with few bits, so
    it is exact in floating point and equal to the bisection's
    0.5 * (lo + hi).  A lane's verdict is that of a scalar run at the same
    IC, so the bracket, and x_p, are the bisection's bit for bit.  The
    replay does not assume the verdict is monotone in the IC.
    """
    if t.kind != KIND_ANALYTIC:
        raise ValueError("threshold_xp requires an analytic LDPC transfer")
    if not (0.0 < tol < 1e-2):
        raise ValueError("tol must lie in (0, 1e-2)")
    if not ldpc_de_converges(ensemble, 1.0 - 1e-9):
        return PrecodeThreshold(x_p=1.0)
    halvings, width = 0, 1.0
    while width > tol:
        width *= 0.5
        halvings += 1
    lo, hi = 0.0, 1.0
    while halvings:
        r = min(_ROUND_BITS, halvings)
        n = 1 << r
        ok = ldpc_de_converges(ensemble, lo + (hi - lo) * np.arange(1, n) / n)
        a, b = 0, n
        for _ in range(r):
            mid = (a + b) // 2
            if ok[mid - 1]:
                b = mid
            else:
                a = mid
        lo, hi = lo + (hi - lo) * a / n, lo + (hi - lo) * b / n
        halvings -= r
    return PrecodeThreshold(x_p=hi)


def load_tabulated(path) -> TransferFunction:
    """Load a two-column "x T" transfer table.

    The x column must be strictly ascending, start at 0, and all values must
    lie in [0, 1]; the endpoint (1, 1) is appended when absent.  A final row
    at x = 1 with T != 1 is rejected: every non-null transfer satisfies
    T(1) = 1.
    """
    xs: list[float] = []
    ts: list[float] = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise TransferFileError(f"{path}:{lineno}: expected 'x T', got {raw!r}")
            try:
                x = float(parts[0])
                tv = float(parts[1])
            except ValueError as exc:
                raise TransferFileError(f"{path}:{lineno}: {exc}") from exc
            if not (0.0 <= x <= 1.0) or not (0.0 <= tv <= 1.0):
                raise TransferFileError(f"{path}:{lineno}: values outside [0, 1]")
            if xs and x <= xs[-1]:
                raise TransferFileError(f"{path}:{lineno}: x column not strictly ascending")
            if not xs and x != 0.0:
                raise TransferFileError(f"{path}:{lineno}: table must start at x = 0")
            if ts and tv < ts[-1]:
                raise TransferFileError(f"{path}:{lineno}: T column not nondecreasing")
            xs.append(x)
            ts.append(tv)
    if len(xs) < 2:
        raise TransferFileError(f"{path}: need at least two rows")
    if xs[-1] == 1.0:
        if ts[-1] != 1.0:
            raise TransferFileError(f"{path}: T(1) must equal 1 (use the null kind for no transfer)")
    else:
        xs.append(1.0)
        ts.append(1.0)
    return TransferFunction.tabulated(xs, ts)


def save_tabulated(t: TransferFunction, path, points: int = 201) -> None:
    """Sample a transfer at adaptively chosen knots and write the table.

    Knots are refined greedily where monotone-cubic interpolation of the
    current knot set disagrees most with the curve, so steep transfer knees
    (high-d_c precodes) stay resolved with modest tables.
    """
    if t.kind == KIND_NULL:
        raise ValueError("the null transfer has no table representation (T(1) != 1)")
    if points < 2:
        raise ValueError("at least two table points required")
    dense = np.linspace(0.0, 1.0, 4001)
    vals = np.asarray(t.evaluate(dense), dtype=float)
    vals[-1] = 1.0
    knots = [0, dense.size - 1]
    while len(knots) < points:
        interp = Pchip(dense[knots], vals[knots])(dense)
        err = np.abs(interp - vals)
        err[knots] = 0.0
        worst = int(np.argmax(err))
        if err[worst] <= 1e-12:
            break
        bisect.insort(knots, worst)
    with open(path, "w") as fh:
        fh.write("# precode extrinsic transfer: x T\n")
        for i in knots:
            fh.write(f"{float(dense[i])!r} {float(vals[i])!r}\n")
