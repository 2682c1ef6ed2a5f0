import numpy as np
import pytest
from scipy.optimize import linprog

import oracles
from raptorkit.simplex import LpProblem, solve_lp


def lp(c, a_ub=None, b_ub=None, a_eq=None, b_eq=None):
    c = np.asarray(c, float)
    n = c.size
    return LpProblem(
        c=c,
        a_ub=np.zeros((0, n)) if a_ub is None else np.asarray(a_ub, float),
        b_ub=np.zeros(0) if b_ub is None else np.asarray(b_ub, float),
        a_eq=np.zeros((0, n)) if a_eq is None else np.asarray(a_eq, float),
        b_eq=np.zeros(0) if b_eq is None else np.asarray(b_eq, float),
    )


def test_one_variable_lower_bound():
    sol = solve_lp(lp([1.0], a_ub=[[-1.0]], b_ub=[-3.0]))
    assert sol.optimal
    assert sol.x[0] == pytest.approx(3.0, abs=1e-10)
    assert sol.cost == pytest.approx(3.0, abs=1e-10)


def test_infeasible_certificate():
    sol = solve_lp(lp([1.0], a_ub=[[-1.0], [1.0]], b_ub=[-1.0, 0.0]))
    assert sol.status == "infeasible"
    assert sol.x is None


def test_zero_row_infeasibility():
    # 0.x >= 1 can never hold; mirrors a stability row without its degree
    sol = solve_lp(lp([1.0, 0.5], a_ub=[[0.0, 0.0]], b_ub=[-1.0]))
    assert sol.status == "infeasible"


def test_equality_simplex_vertex():
    # min x1 + 2 x2 + 3 x3 on the simplex
    sol = solve_lp(lp([1.0, 2.0, 3.0], a_eq=[[1.0, 1.0, 1.0]], b_eq=[1.0]))
    assert sol.optimal
    assert sol.cost == pytest.approx(1.0, abs=1e-10)
    assert sol.x == pytest.approx([1.0, 0.0, 0.0], abs=1e-10)


def test_five_variable_vertex_enumeration(rng):
    for _ in range(25):
        n = 5
        c = rng.normal(size=n)
        a_ub = np.vstack([rng.normal(size=(4, n)), np.ones(n)])
        b_ub = np.concatenate([rng.uniform(0.5, 2.0, size=4), [5.0]])
        a_eq = rng.normal(size=(1, n))
        b_eq = a_eq @ rng.uniform(0.0, 1.0, size=n)
        expected = oracles.lp_vertex_enumeration(c, a_ub, b_ub, a_eq, b_eq)
        sol = solve_lp(lp(c, a_ub, b_ub, a_eq, b_eq))
        if expected is None:
            assert sol.status == "infeasible"
        else:
            assert sol.optimal
            assert sol.cost == pytest.approx(expected, abs=1e-8)


def test_against_scipy_reference(rng):
    for _ in range(60):
        n = int(rng.integers(2, 10))
        mu = int(rng.integers(1, 14))
        me = int(rng.integers(0, 3))
        c = rng.normal(size=n)
        a_ub = np.vstack([rng.normal(size=(mu, n)), np.ones(n)])
        b_ub = np.concatenate([rng.uniform(0.2, 3.0, size=mu), [8.0]])
        a_eq = rng.normal(size=(me, n))
        b_eq = a_eq @ rng.uniform(0.0, 1.0, size=n) if me else np.zeros(0)
        sol = solve_lp(lp(c, a_ub, b_ub, a_eq, b_eq))
        ref = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq if me else None,
                      b_eq=b_eq if me else None, bounds=(0, None), method="highs")
        assert sol.optimal == ref.success
        if sol.optimal:
            assert sol.cost == pytest.approx(ref.fun, abs=1e-7)
            assert np.all(sol.x >= -1e-9)
            assert np.all(a_ub @ sol.x <= b_ub + 1e-8)


def test_degenerate_problem_terminates():
    # classic cycling-prone instance (Beale); Bland fallback must terminate
    c = [-0.75, 150.0, -0.02, 6.0]
    a_ub = [[0.25, -60.0, -1.0 / 25.0, 9.0],
            [0.5, -90.0, -1.0 / 50.0, 3.0],
            [0.0, 0.0, 1.0, 0.0]]
    b_ub = [0.0, 0.0, 1.0]
    sol = solve_lp(lp(c, a_ub, b_ub))
    assert sol.optimal
    assert sol.cost == pytest.approx(-0.05, abs=1e-9)


def test_redundant_rows_dropped():
    sol = solve_lp(lp([1.0, 1.0],
                      a_eq=[[1.0, 1.0], [2.0, 2.0]], b_eq=[1.0, 2.0]))
    assert sol.optimal
    assert sol.cost == pytest.approx(1.0, abs=1e-10)
