"""The design LPs, solved by HiGHS's dual simplex through scipy.

Canonical form accepted: minimize c.x subject to A_ub x <= b_ub,
A_eq x = b_eq, x >= 0.  The answer is an optimal vertex, or the infeasible
status.

Presolve is off: on the design LPs it makes HiGHS slower.  The feasibility
tolerances are pinned at 1e-10: at HiGHS's default of 1e-7 it returns
vertices that violate a row by up to 6e-8, and designed rates then move by
up to 3e-8.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linprog

_HIGHS_OPTIONS = {
    "presolve": False,
    "primal_feasibility_tolerance": 1e-10,
    "dual_feasibility_tolerance": 1e-10,
}
_HIGHS_INFEASIBLE = 2
_ROW_TOL = 1e-7  # a-posteriori check of the returned vertex


class LpError(RuntimeError):
    """Solver failure; never returned as a silent wrong answer."""


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

    @property
    def optimal(self) -> bool:
        return self.status == "optimal"


def solve_lp(problem: LpProblem) -> LpSolution:
    """Optimal vertex of the problem, or the infeasible status."""
    c = np.asarray(problem.c, dtype=float)
    a_ub = np.asarray(problem.a_ub, dtype=float).reshape(-1, c.size)
    b_ub = np.asarray(problem.b_ub, dtype=float)
    a_eq = np.asarray(problem.a_eq, dtype=float).reshape(-1, c.size)
    b_eq = np.asarray(problem.b_eq, dtype=float)

    res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, bounds=(0, None),
                  method="highs-ds", options=_HIGHS_OPTIONS)
    if res.status == _HIGHS_INFEASIBLE:
        return LpSolution(status="infeasible", x=None, cost=None)
    if res.status != 0:
        raise LpError(f"HiGHS status {res.status}: {res.message}")
    x = np.maximum(res.x, 0.0)

    # Direct substitution: the vertex must satisfy the rows it was asked to.
    if np.any(a_ub @ x > b_ub + _ROW_TOL):
        raise LpError("returned vertex violates an inequality row")
    if np.any(np.abs(a_eq @ x - b_eq) > _ROW_TOL):
        raise LpError("returned vertex violates an equality row")
    return LpSolution(status="optimal", x=x, cost=float(np.dot(c, x)))
