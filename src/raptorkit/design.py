"""Output-degree-distribution optimizer.

For a fixed mean input degree alpha the one-iteration IC map is affine in
the edge weights, so maximizing the LT rate (equivalently minimizing
sum omega_d / d) under the convergence, start, and stability constraints is
a linear program:

    C1  sum_d omega_d = 1
    C2  sum_d omega_d a_d(x_t) <= 1 - x_t - margin   on a grid over [0, x0 - delta]
    C3  omega_1 J(2/sigma^2)   >= eps + margin
    C4  omega_2 (alpha-1) e^(-f0/4) >= 1 + margin

Strict inequalities become non-strict with a small margin so a feasible LP
vertex verifiably satisfies the strict originals.  Every optimum is
re-checked a posteriori by direct evolution evaluation on a 4x finer grid;
a failure flags the result instead of passing silently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .degrees import OutputDegreeDistribution, poisson_input, rate_lt
from .evolution import (
    EvolutionContext,
    alpha_min,
    check_stage_coeffs,
    delta_max,
    evolve_f_grid,
    inner_ic,
    stability_floor_omega2,
)
from .jfunction import ChannelParam
from .simplex import LpProblem, LpSolution, solve_lp
from .transfer import TransferFunction


class ConfigError(ValueError):
    pass


class DesignError(RuntimeError):
    pass


@dataclass(frozen=True)
class DesignConfig:
    """Design-run parameters.

    delta_policy "fixed" uses the given delta at every alpha; "auto" sets
    delta to auto_delta_fraction of the largest margin the precode threshold
    allows at that alpha, which is how a precode-aware sweep trades LT
    convergence depth against the precode finishing the job.
    """

    channel: ChannelParam
    transfer: TransferFunction
    x_p: float = 0.0
    alpha_grid: tuple[float, ...] = (21.0,)
    delta: float = 0.04
    delta_policy: str = "fixed"
    auto_delta_fraction: float = 0.95
    epsilon_start: float = 0.005
    degree_support: tuple[int, ...] = tuple(range(1, 101))
    grid_points: int = 200
    strict_margin: float = 1e-6
    tail_tol: float = 1e-10

    def __post_init__(self):
        if not self.degree_support:
            raise ConfigError("degree support is empty")
        if any(int(d) != d or d < 1 for d in self.degree_support):
            raise ConfigError("degree support must contain positive integers")
        if self.grid_points < 50:
            raise ConfigError("grid_points must be at least 50")
        if self.x_p >= 1.0:
            raise ConfigError(f"x_p = {self.x_p!r}: a precode that needs a-priori IC "
                              "x_p >= 1 never decodes; x_p must lie in [0, 1)")
        if not self.x_p >= 0.0:
            raise ConfigError(f"x_p = {self.x_p!r} lies outside [0, 1)")
        if self.delta_policy not in ("fixed", "auto"):
            raise ConfigError("delta_policy must be 'fixed' or 'auto'")
        if self.delta_policy == "auto":
            if not (0.0 < self.auto_delta_fraction < 1.0):
                raise ConfigError("auto_delta_fraction must lie in (0, 1)")
            if self.x_p <= 0.0:
                raise ConfigError("delta_policy='auto' needs a positive precode threshold x_p")
        elif self.delta <= 0.0 or self.delta >= self.channel.x0:
            raise ConfigError("delta must lie in (0, x0)")
        if self.epsilon_start <= 0.0:
            raise ConfigError("epsilon_start must be positive")
        if self.strict_margin < 0.0:
            raise ConfigError("strict_margin must be nonnegative")
        if not self.alpha_grid or any(a <= 0 for a in self.alpha_grid):
            raise ConfigError("alpha_grid must hold positive values")
        object.__setattr__(self, "alpha_grid", tuple(sorted(self.alpha_grid)))
        object.__setattr__(self, "degree_support", tuple(sorted(set(int(d) for d in self.degree_support))))

    def effective_delta(self, alpha: float) -> float:
        """Convergence margin used at this alpha, checked against the bound
        the precode threshold imposes."""
        if self.x_p > 0.0:
            amin = alpha_min(self.channel, self.x_p)
            if alpha < amin:
                raise ConfigError(f"alpha {alpha:g} below alpha_min {amin:g}")
            dmax = delta_max(alpha, self.channel, self.x_p)
        else:
            dmax = self.channel.x0
        if self.delta_policy == "auto":
            return self.auto_delta_fraction * dmax
        if self.delta > dmax:
            raise ConfigError(f"delta {self.delta:g} exceeds delta_max {dmax:g} at alpha {alpha:g}")
        return self.delta


@dataclass
class DesignResult:
    distribution: OutputDegreeDistribution | None
    alpha: float
    rate_lt: float | None
    lp_status: str  # "optimal" or "infeasible"
    constraint_report: dict = field(default_factory=dict)
    verified: bool = False

    @property
    def feasible(self) -> bool:
        return self.lp_status == "optimal"


def build_lp(cfg: DesignConfig, alpha: float) -> LpProblem:
    """Assemble the rate-maximization LP at one alpha."""
    degs = np.array(cfg.degree_support, dtype=np.int64)
    ens = poisson_input(alpha, cfg.tail_tol)
    x0 = cfg.channel.x0
    f0 = cfg.channel.f0
    margin = cfg.strict_margin
    delta = cfg.effective_delta(alpha)

    xs = np.linspace(0.0, x0 - delta, cfg.grid_points)
    g = inner_ic(cfg.channel, ens, cfg.transfer, xs)
    coeff = check_stage_coeffs(cfg.channel, g, degs)  # (T, D)

    n = degs.size
    rows_ub = [coeff]
    rhs_ub = [1.0 - xs - margin]

    # C3: start condition, flipped to <= form.
    c3 = np.zeros(n)
    if 1 in cfg.degree_support:
        c3[np.searchsorted(degs, 1)] = -x0
    rows_ub.append(c3[None, :])
    rhs_ub.append(np.array([-(cfg.epsilon_start + margin)]))

    # C4: stability slope, flipped to <= form.  Without degree 2 in the
    # support the row has no coefficients and the LP comes back infeasible.
    c4 = np.zeros(n)
    if 2 in cfg.degree_support and alpha > 1.0:
        c4[np.searchsorted(degs, 2)] = -(alpha - 1.0) * math.exp(-f0 / 4.0)
    rows_ub.append(c4[None, :])
    rhs_ub.append(np.array([-(1.0 + margin)]))

    problem = LpProblem(
        c=1.0 / degs.astype(float),
        a_ub=np.vstack(rows_ub),
        b_ub=np.concatenate(rhs_ub),
        a_eq=np.ones((1, n)),
        b_eq=np.array([1.0]),
        meta={"degrees": degs, "grid": xs, "coeff": coeff, "alpha": alpha, "delta": delta},
    )
    return problem


def _verify(cfg: DesignConfig, alpha: float, dist: OutputDegreeDistribution,
            delta: float) -> tuple[bool, dict]:
    """Direct evolution check of C2-C4 on a grid 4x finer than the LP's, up
    to x0 - delta with the delta the LP was built with."""
    ens = poisson_input(alpha, cfg.tail_tol)
    ctx = EvolutionContext(channel=cfg.channel, input_ensemble=ens,
                           transfer=cfg.transfer, dist=dist)
    xs = np.linspace(0.0, cfg.channel.x0 - delta, cfg.grid_points * 4)
    fx = evolve_f_grid(ctx, xs)
    c2_slack = float(np.min(fx - xs))
    f_at_zero = float(fx[0])
    c3_slack = f_at_zero - cfg.epsilon_start
    omega2 = dist.edge_weights.get(2, 0.0)
    if alpha > 1.0:
        c4_slack = omega2 - stability_floor_omega2(alpha, cfg.channel)
    else:
        c4_slack = -math.inf
    report = {
        "c2_min_slack": c2_slack,
        "c3_slack": c3_slack,
        "c4_slack": c4_slack,
        "f_at_zero": f_at_zero,
        "fine_grid_points": xs.size,
        "delta": delta,
    }
    ok = c2_slack > 0.0 and c3_slack > 0.0 and c4_slack > 0.0
    return ok, report


def optimize_distribution(cfg: DesignConfig, alpha: float) -> DesignResult:
    """Solve the design LP at one alpha and verify the optimum."""
    problem = build_lp(cfg, alpha)
    sol: LpSolution = solve_lp(problem)
    if not sol.optimal:
        return DesignResult(
            distribution=None, alpha=alpha, rate_lt=None, lp_status="infeasible")
    degs = problem.meta["degrees"]
    weights = {int(d): float(w) for d, w in zip(degs, sol.x) if w > 1e-12}
    dist = OutputDegreeDistribution.from_edge_weights(weights)
    verified, report = _verify(cfg, alpha, dist, problem.meta["delta"])
    report["lp_cost"] = sol.cost
    return DesignResult(
        distribution=dist,
        alpha=alpha,
        rate_lt=rate_lt(dist, alpha),
        lp_status="optimal",
        constraint_report=report,
        verified=verified,
    )


@dataclass
class SweepResult:
    best: DesignResult
    results: list[DesignResult]

    def profile(self) -> list[tuple[float, float | None]]:
        return [(r.alpha, r.rate_lt) for r in self.results]


def sweep_alpha(cfg: DesignConfig) -> SweepResult:
    """Optimize at every alpha on the grid and keep the max-rate feasible result.

    Grid points that violate the alpha_min bound are recorded as infeasible
    rather than aborting the sweep.
    """
    results = []
    for a in cfg.alpha_grid:
        try:
            results.append(optimize_distribution(cfg, a))
        except ConfigError as exc:
            results.append(DesignResult(
                distribution=None, alpha=a, rate_lt=None, lp_status="infeasible",
                constraint_report={"error": str(exc)},
            ))
    usable = [r for r in results if r.feasible]
    if not usable:
        statuses = ", ".join(f"alpha={r.alpha:g}:{r.lp_status}" for r in results)
        raise DesignError(f"no feasible design on the alpha grid ({statuses})")
    best = max(usable, key=lambda r: r.rate_lt)
    return SweepResult(best=best, results=results)
