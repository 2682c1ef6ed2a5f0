"""Self-contained dense two-phase simplex for the design LPs.

Problems here are small (a few hundred rows and columns), so a dense tableau
with Dantzig pricing is plenty; after a run of degenerate pivots the pricing
falls back to Bland's rule, which cannot cycle.  Phase 1 starts from an
all-artificial basis; redundant rows discovered there are dropped.

Canonical form accepted: minimize c.x subject to A_ub x <= b_ub,
A_eq x = b_eq, x >= 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

_RC_TOL = 1e-10      # reduced-cost optimality tolerance
_PIV_TOL = 1e-9      # smallest acceptable pivot element
_DEGEN_RATIO = 1e-11  # ratio below this counts as a degenerate step
_DEGEN_LIMIT = 64    # consecutive degenerate pivots before Bland's rule
_FEAS_TOL = 1e-9     # phase-1 objective above this certifies infeasibility


class LpError(RuntimeError):
    """Numerical breakdown; never returned as a silent wrong answer."""


@dataclass
class LpProblem:
    c: np.ndarray
    a_ub: np.ndarray
    b_ub: np.ndarray
    a_eq: np.ndarray
    b_eq: np.ndarray
    meta: dict = field(default_factory=dict)


@dataclass
class LpSolution:
    status: str  # "optimal" or "infeasible"
    x: np.ndarray | None
    cost: float | None
    infeasibility: float = 0.0
    # worst terminal reduced-cost violation; bounds the duality gap direction
    certificate: float = 0.0

    @property
    def optimal(self) -> bool:
        return self.status == "optimal"


class _Tableau:
    """Rows x (columns + rhs) tableau with the objective carried as the last row."""

    def __init__(self, a: np.ndarray, b: np.ndarray):
        m, n = a.shape
        self.m = m
        self.n = n
        self.t = np.zeros((m + 1, n + 1))
        self.t[:m, :n] = a
        self.t[:m, n] = b
        self.basis = np.full(m, -1, dtype=int)
        self.pivots = 0
        self.degenerate_run = 0

    def set_objective(self, cost: np.ndarray) -> None:
        self.t[self.m, : self.n] = cost
        self.t[self.m, self.n] = 0.0
        # cancel the basis columns so the last row holds reduced costs
        for i, j in enumerate(self.basis):
            cj = self.t[self.m, j]
            if cj != 0.0:
                self.t[self.m] -= cj * self.t[i]

    def pivot(self, row: int, col: int) -> None:
        piv = self.t[row, col]
        self.t[row] /= piv
        factors = self.t[:, col].copy()
        factors[row] = 0.0
        self.t -= np.outer(factors, self.t[row])
        self.t[:, col] = 0.0
        self.t[row, col] = 1.0
        self.basis[row] = col
        self.pivots += 1

    def solve(self, allowed: np.ndarray, max_pivots: int) -> None:
        """Run pivots until the reduced costs over allowed columns are clean."""
        bland = False
        while True:
            rc = self.t[self.m, : self.n]
            candidates = np.flatnonzero(allowed & (rc < -_RC_TOL))
            if candidates.size == 0:
                return
            if bland:
                col = int(candidates[0])
            else:
                col = int(candidates[np.argmin(rc[candidates])])

            colvals = self.t[: self.m, col]
            rhs = self.t[: self.m, self.n]
            pos = colvals > _PIV_TOL
            if not pos.any():
                raise LpError("unbounded direction encountered")
            ratios = np.full(self.m, np.inf)
            ratios[pos] = rhs[pos] / colvals[pos]
            best = ratios.min()
            ties = np.flatnonzero(ratios <= best + 1e-12)
            # smallest basis index among ties keeps Bland's rule valid
            row = int(ties[np.argmin(self.basis[ties])])

            if best < _DEGEN_RATIO:
                self.degenerate_run += 1
                if self.degenerate_run > _DEGEN_LIMIT:
                    bland = True
            else:
                self.degenerate_run = 0

            self.pivot(row, col)
            if self.pivots > max_pivots:
                raise LpError(f"pivot budget exhausted ({max_pivots})")

    def drop_rows(self, rows: list[int]) -> None:
        keep = [i for i in range(self.m) if i not in rows]
        self.t = np.vstack([self.t[keep], self.t[self.m :]])
        self.basis = self.basis[keep]
        self.m = len(keep)


def solve_lp(problem: LpProblem) -> LpSolution:
    """Optimal basic feasible solution of the problem, or an infeasibility
    certificate (the residual phase-1 objective)."""
    c = np.asarray(problem.c, dtype=float)
    a_ub = np.asarray(problem.a_ub, dtype=float).reshape(-1, c.size)
    b_ub = np.asarray(problem.b_ub, dtype=float)
    a_eq = np.asarray(problem.a_eq, dtype=float).reshape(-1, c.size)
    b_eq = np.asarray(problem.b_eq, dtype=float)

    n = c.size
    mu = b_ub.size
    me = b_eq.size
    m = mu + me
    if m == 0:
        raise LpError("problem has no constraints")

    a = np.vstack([np.hstack([a_ub, np.eye(mu)]), np.hstack([a_eq, np.zeros((me, mu))])])
    b = np.concatenate([b_ub, b_eq])
    neg = b < 0.0
    a[neg] *= -1.0
    b[neg] *= -1.0

    n_struct = n + mu
    full = np.hstack([a, np.eye(m)])
    tab = _Tableau(full, b)
    tab.basis = np.arange(n_struct, n_struct + m)

    max_pivots = 200 * (m + n_struct) + 2000

    # Phase 1: minimize the artificial mass.
    phase1_cost = np.concatenate([np.zeros(n_struct), np.ones(m)])
    tab.set_objective(phase1_cost)
    allowed = np.ones(n_struct + m, dtype=bool)
    tab.solve(allowed, max_pivots)
    infeas = float(tab.t[tab.m, tab.n])  # objective row rhs = -value
    infeasibility = max(0.0, -infeas)
    if infeasibility > _FEAS_TOL:
        return LpSolution(status="infeasible", x=None, cost=None, infeasibility=infeasibility)

    # Drive leftover artificials out of the basis; drop redundant rows.
    redundant: list[int] = []
    for i in range(tab.m):
        if tab.basis[i] >= n_struct:
            row = tab.t[i, :n_struct]
            nz = np.flatnonzero(np.abs(row) > _PIV_TOL)
            if nz.size:
                tab.pivot(i, int(nz[0]))
            else:
                redundant.append(i)
    if redundant:
        tab.drop_rows(redundant)

    # Phase 2 over structural columns only.
    tab.t = np.hstack([tab.t[:, :n_struct], tab.t[:, -1:]])
    tab.n = n_struct
    phase2_cost = np.concatenate([c, np.zeros(mu)])
    tab.set_objective(phase2_cost)
    tab.degenerate_run = 0
    tab.solve(np.ones(n_struct, dtype=bool), max_pivots)

    x_full = np.zeros(n_struct)
    rhs = tab.t[: tab.m, tab.n]
    if np.any(rhs < -1e-7):
        raise LpError("basis solution went negative beyond tolerance")
    x_full[tab.basis] = np.maximum(rhs, 0.0)
    x = x_full[:n]

    # Direct substitution guards against drift accumulated by the pivots.
    if b_ub.size and np.any(a_ub @ x > b_ub + 1e-7):
        raise LpError("returned vertex violates an inequality row")
    if b_eq.size and np.any(np.abs(a_eq @ x - b_eq) > 1e-7):
        raise LpError("returned vertex violates an equality row")
    certificate = float(max(0.0, -tab.t[tab.m, : tab.n].min()))
    return LpSolution(status="optimal", x=x, cost=float(np.dot(c, x)),
                      certificate=certificate)
