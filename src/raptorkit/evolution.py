"""One-iteration IC evolution of the joint decoder, trajectories, and the
analytic design bounds.

The update tracked here is the IC of messages leaving the rateless check
nodes.  Writing m(.) for the inverse J map, one iteration from x is

    x_ext = J(alpha m(x))                        extrinsic IC handed to the precode
    g     = sum_i iota_i J((i-1) m(x) + m(T(x_ext)))     input-symbol stage
    F(x)  = 1 - sum_j omega_j J((j-1) m(1-g) + f0)       check stage + channel

F is affine in the edge weights omega_j once g is known, which is what makes
the design problem a linear program; the decomposition helpers below are
shared with the LP assembly for exactly that reason.

Update order follows the Jacobi reading: T is evaluated at the extrinsic IC
computed from the same x passed in.  The channel offset f0 enters the check
stage additively.  All composed values are clamped back into [0, 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .degrees import InputEnsemble, OutputDegreeDistribution
from .jfunction import ChannelParam, clip_ic, j_of_mean, mean_of_ic
from .transfer import TransferFunction


@dataclass(frozen=True)
class EvolutionContext:
    channel: ChannelParam
    input_ensemble: InputEnsemble
    transfer: TransferFunction
    dist: OutputDegreeDistribution

    @property
    def alpha(self) -> float:
        return self.input_ensemble.alpha


def extrinsic_ic(alpha: float, x_u):
    """IC passed from the LT code to the precode: J(alpha * Jinv(x_u))."""
    if alpha <= 0.0:
        raise ValueError("alpha must be positive")
    return j_of_mean(alpha * mean_of_ic(x_u, clamp=True))


def inner_ic(channel: ChannelParam, ens: InputEnsemble, transfer: TransferFunction, x_u):
    """Input-symbol-stage IC g for one or many x_u values (omega-independent)."""
    xs = np.atleast_1d(np.asarray(x_u, dtype=float))
    mu = mean_of_ic(xs, clamp=True)
    x_ext = j_of_mean(ens.alpha * mu)
    m_t = mean_of_ic(transfer.evaluate(x_ext), clamp=True)
    degs, ws = ens.edge_arrays()
    args = (degs - 1)[None, :] * mu[:, None] + m_t[:, None]
    g = j_of_mean(args) @ ws
    return clip_ic(g)


def check_stage_coeffs(channel: ChannelParam, g, degrees) -> np.ndarray:
    """Coefficient a_d(x) = J((d-1) Jinv(1-g) + f0) of edge weight omega_d in
    1 - F; rows follow g, columns follow degrees."""
    g = np.atleast_1d(np.asarray(g, dtype=float))
    degs = np.asarray(degrees, dtype=float)
    nu = mean_of_ic(1.0 - g, clamp=True)
    return j_of_mean((degs - 1.0)[None, :] * nu[:, None] + channel.f0)


def _step(ctx: EvolutionContext, xs) -> tuple[np.ndarray, np.ndarray]:
    """The one evolution composition: input-stage IC g and F(x) per x value."""
    g = inner_ic(ctx.channel, ctx.input_ensemble, ctx.transfer, xs)
    degs, ws = ctx.dist.edge_arrays()
    return g, clip_ic(1.0 - check_stage_coeffs(ctx.channel, g, degs) @ ws)


def evolve_f(ctx: EvolutionContext, x_u: float) -> float:
    """One joint-decoding iteration of the rateless-side IC."""
    if not (0.0 <= x_u <= 1.0):
        raise ValueError("x_u must lie in [0, 1]")
    return float(evolve_f_grid(ctx, [x_u])[0])


def evolve_f_grid(ctx: EvolutionContext, xs) -> np.ndarray:
    """evolve_f over an array of x values in one vectorized sweep."""
    xs = np.asarray(xs, dtype=float)
    if np.any(xs < 0.0) or np.any(xs > 1.0):
        raise ValueError("x values must lie in [0, 1]")
    return _step(ctx, xs)[1]


@dataclass(frozen=True)
class Trajectory:
    x_u: np.ndarray
    x_v: np.ndarray
    x_ext: np.ndarray
    verdict: str  # "converged" or "stalled"
    fixed_point: float
    target: float | None = field(default=None)

    def __len__(self) -> int:
        return len(self.x_u)


def run_trajectory(ctx: EvolutionContext, max_iters: int = 5000, tol: float = 1e-8,
                   target: float | None = None) -> Trajectory:
    """Iterate the evolution map from 0 and record (x_u, x_v, x_ext) per step.

    Stops when the step shrinks below tol or the budget runs out.  With a
    target IC supplied, the verdict is "converged" when the final extrinsic
    IC reaches it; without one, reaching the fixed point converges trivially.
    """
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")
    xs, vs, es = [], [], []
    x = 0.0
    for _ in range(max_iters):
        g, f = _step(ctx, [x])
        x_new = float(f[0])
        xs.append(x_new)
        vs.append(float(g[0]))
        es.append(float(extrinsic_ic(ctx.alpha, x_new)))
        if abs(x_new - x) < tol:
            x = x_new
            break
        x = x_new
    final_ext = es[-1]
    if target is None:
        verdict = "converged"
    else:
        verdict = "converged" if final_ext >= target else "stalled"
    return Trajectory(
        x_u=np.array(xs), x_v=np.array(vs), x_ext=np.array(es),
        verdict=verdict, fixed_point=x, target=target,
    )


def alpha_min(channel: ChannelParam, x_p: float) -> float:
    """Smallest mean input degree that can lift the capacity-limited
    extrinsic IC over the precode threshold: sigma^2 Jinv(x_p) / 2."""
    if not (0.0 <= x_p < 1.0):
        raise ValueError("x_p must lie in [0, 1)")
    return channel.sigma2 * mean_of_ic(x_p) / 2.0


def delta_max(alpha: float, channel: ChannelParam, x_p: float) -> float:
    """Largest convergence margin delta such that J(alpha Jinv(x0 - delta))
    still reaches the precode threshold."""
    amin = alpha_min(channel, x_p)  # checks x_p
    if alpha < amin:
        raise ValueError(f"alpha {alpha} below alpha_min {amin}")
    return channel.x0 - j_of_mean(mean_of_ic(x_p) / alpha)


def stability_floor_omega2(alpha: float, channel: ChannelParam) -> float:
    """Lower bound on the degree-2 edge weight for the decoder to keep moving
    near 0 when omega_1 = 0: the slope limit omega_2 (alpha-1) e^(-f0/4)
    must exceed 1."""
    if alpha <= 1.0:
        raise ValueError("the stability bound requires alpha > 1")
    return 1.0 / ((alpha - 1.0) * math.exp(-channel.f0 / 4.0))
