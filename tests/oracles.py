"""Independent reference implementations used to pin expected test values.

Everything here is deliberately written straight from the defining
integrals/recursions with scipy quadrature and root finding, sharing no code
with the package under test.  Slow is fine; these run once per session (the
module-level table) or per pinned value.
"""

import math

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq


def j_quad(m):
    """Mutual information of an LLR ~ N(m, 2m), by adaptive quadrature.

    Integrated in standardized coordinates v = m + sqrt(2m) z so the Gaussian
    weight has unit scale for every m.
    """
    if m == 0.0:
        return 0.0
    sd = math.sqrt(2.0 * m)

    def integrand(z):
        # logaddexp keeps log(1 + e^-v) finite for large negative v
        return np.logaddexp(0.0, -(m + sd * z)) / math.log(2.0) * math.exp(-0.5 * z * z)

    # Mass sits near z = 0 (Gaussian) and near z = -sqrt(2m) (product saddle).
    z_saddle = -sd
    lo = min(z_saddle, 0.0) - 60.0
    total = 0.0
    for a, b in ((lo, z_saddle), (z_saddle, 0.0), (0.0, 60.0)):
        if a < b:
            total += quad(integrand, a, b, epsabs=1e-15, epsrel=1e-12, limit=400)[0]
    return 1.0 - total / math.sqrt(2.0 * math.pi)


def j_inv_quad(x, m_hi=200.0):
    """Inverse of j_quad by bracketed root finding."""
    if x <= 0.0:
        return 0.0
    return brentq(lambda m: j_quad(m) - x, 1e-12, m_hi, xtol=1e-11, rtol=1e-13)


class JTableOracle:
    """Linearly interpolated J/J^-1 over a dense uniform grid of quadrature values.

    Cheap enough for the density-evolution oracles, built differently from the
    package implementation (uniform grid + linear interpolation).
    """

    def __init__(self, m_max=80.0, n=8001):
        self.m = np.linspace(0.0, m_max, n)
        self.j = np.array([j_quad(v) for v in self.m])

    def J(self, m):
        m = np.minimum(np.asarray(m, dtype=float), self.m[-1])
        return np.interp(m, self.m, self.j)

    def Jinv(self, x):
        x = np.clip(np.asarray(x, dtype=float), 0.0, self.j[-1])
        return np.interp(x, self.j, self.m)


_table = None


def j_table():
    global _table
    if _table is None:
        _table = JTableOracle()
    return _table


def poisson_edge_coeffs(alpha, tail_tol=1e-12):
    """Edge-degree weights e^-a a^(i-1)/(i-1)! for i = 1.., truncated and renormalized."""
    coeffs = []
    term = math.exp(-alpha)  # i = 1 term
    total = 0.0
    i = 1
    while total < 1.0 - tail_tol and i < 4000:
        coeffs.append(term)
        total += term
        term *= alpha / i
        i += 1
    w = np.array(coeffs)
    return w / w.sum()


def ldpc_transfer_quad(lam, rho, x, jf=j_quad, jinv=j_inv_quad):
    """Extrinsic IC transfer of an LDPC ensemble: one check stage into the
    variable stage, straight from the defining composition."""
    s = sum(rj * jf((j - 1) * jinv(1.0 - x)) for j, rj in rho.items()) if x < 1.0 else 0.0
    inner = min(max(1.0 - s, 0.0), 1.0 - 1e-12)
    return sum(li * jf(i * jinv(inner)) for i, li in lam.items())


def evolve_one_step_quad(omega, alpha, sigma, x_u, transfer=None):
    """One IC-evolution step, composed term by term with quadrature J.

    omega: dict edge-degree -> weight.  transfer: None for the no-precode case,
    else a callable x -> T(x).
    """
    x0 = j_quad(2.0 / sigma**2)
    f0 = j_inv_quad(1.0 - x0)
    mu = j_inv_quad(x_u) if x_u < 1.0 else j_inv_quad(1.0 - 1e-12)
    x_ext = j_quad(alpha * mu)
    t_val = transfer(x_ext) if transfer is not None else 0.0
    m_t = j_inv_quad(min(t_val, 1.0 - 1e-12))
    iota = poisson_edge_coeffs(alpha)
    g = sum(w * j_quad((i + 1 - 1) * mu + m_t) for i, w in enumerate(iota, start=0))
    g = min(max(g, 0.0), 1.0)
    nu = j_inv_quad(1.0 - g) if g > 0.0 else j_inv_quad(1.0 - 1e-12)
    out = 1.0 - sum(w * j_quad((j - 1) * nu + f0) for j, w in omega.items())
    return min(max(out, 0.0), 1.0)


def ldpc_de_converges(lam, rho, apriori_ic, max_iters=2000, target=1.0 - 1e-6):
    """Scalar IC density evolution of an LDPC code fed only a constant a-priori
    IC at every variable node (no channel observation)."""
    tab = j_table()
    m_a = float(tab.Jinv(apriori_ic))
    y = 0.0
    for _ in range(max_iters):
        mv = tab.Jinv(y)
        v = sum(li * tab.J((i - 1) * mv + m_a) for i, li in lam.items())
        if v >= target:
            return True
        s = sum(rj * tab.J((j - 1) * tab.Jinv(1.0 - v)) for j, rj in rho.items())
        y = min(max(1.0 - s, 0.0), 1.0)
    return False


def ldpc_threshold_bisect(lam, rho, tol=1e-4):
    """Smallest a-priori IC at which ldpc_de_converges succeeds."""
    lo, hi = 0.0, 1.0
    if not ldpc_de_converges(lam, rho, 1.0 - 1e-9):
        return 1.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if ldpc_de_converges(lam, rho, mid):
            hi = mid
        else:
            lo = mid
    return hi


def lp_vertex_enumeration(c, a_ub, b_ub, a_eq, b_eq, tol=1e-9):
    """Optimal cost of min c.x st A_ub x <= b_ub, A_eq x = b_eq, x >= 0 by
    enumerating every basic solution.  Tiny problems only."""
    import itertools

    c = np.asarray(c, float)
    n = c.size
    rows = [(np.asarray(r, float), float(v), "ub") for r, v in zip(a_ub, b_ub)]
    rows += [(np.asarray(r, float), float(v), "eq") for r, v in zip(a_eq, b_eq)]
    for i in range(n):
        e = np.zeros(n)
        e[i] = -1.0  # -x_i <= 0, i.e. x_i >= 0
        rows.append((e, 0.0, "bound"))
    best = None
    for combo in itertools.combinations(range(len(rows)), n):
        a = np.array([rows[i][0] for i in combo])
        b = np.array([rows[i][1] for i in combo])
        if abs(np.linalg.det(a)) < 1e-12:
            continue
        x = np.linalg.solve(a, b)
        if np.any(x < -tol):
            continue
        feas = all(
            (kind == "eq" and abs(r @ x - v) <= tol)
            or (kind != "eq" and r @ x <= v + tol)
            for r, v, kind in rows
        )
        if feas:
            cost = float(c @ x)
            if best is None or cost < best:
                best = cost
    return best


def random_tree_factor_graph(rng, max_vars=12):
    """Random cycle-free Tanner graph: list of checks, each a dict with
    'vars' (distinct variable ids) and optional 'llr' (channel observation,
    making it a rateless-style check)."""
    n_vars = int(rng.integers(2, max_vars + 1))
    parent = list(range(n_vars))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    checks = []
    components = n_vars
    while components > 1 or len(checks) < 1:
        deg = int(rng.integers(1, 4))
        roots = {}
        for v in rng.permutation(n_vars):
            r = find(int(v))
            if r not in roots:
                roots[r] = int(v)
            if len(roots) == deg:
                break
        chosen = list(roots.values())
        if len(chosen) < deg:
            deg = len(chosen)
            chosen = chosen[:deg]
        first = chosen[0]
        for v in chosen[1:]:
            ra, rb = find(first), find(v)
            if ra != rb:
                parent[ra] = rb
                components -= 1
        dynamic = bool(rng.random() < 0.7) or deg == 1
        llr = float(rng.normal(0.0, 2.0)) if dynamic else None
        checks.append({"vars": chosen, "llr": llr})
        if len(checks) > 4 * n_vars:
            break
    return n_vars, checks


def exact_marginals(n_vars, checks):
    """Brute-force posterior LLR of every variable by summing over all 2^n
    configurations; dynamic checks weight by their observation likelihood,
    static checks are hard parity constraints."""
    p0 = np.zeros(n_vars)
    p1 = np.zeros(n_vars)
    num = np.zeros(n_vars)
    den = np.zeros(n_vars)
    for cfgi in range(1 << n_vars):
        bits = np.array([(cfgi >> i) & 1 for i in range(n_vars)])
        w = 1.0
        for chk in checks:
            par = int(bits[chk["vars"]].sum() & 1)
            if chk["llr"] is None:
                if par:
                    w = 0.0
                    break
            else:
                # weight prop. to exp(+llr/2) for parity 0, exp(-llr/2) for parity 1
                w *= math.exp(0.5 * chk["llr"] * (1.0 - 2.0 * par))
        if w == 0.0:
            continue
        num += np.where(bits == 0, w, 0.0)
        den += np.where(bits == 1, w, 0.0)
    with np.errstate(divide="ignore"):
        return np.log(num) - np.log(den)


def leave_one_out_products(messages, edge_check, n_checks, check_llrs=None, clip=30.0):
    """Per edge, the product of tanh(m/2) over the other edges of its check
    (messages clipped to [-clip, clip]), times tanh(llr/2) of the check's
    channel value when check_llrs is given.  One check at a time, in plain
    Python floats."""
    members = [[] for _ in range(n_checks)]
    for e, c in enumerate(edge_check):
        members[int(c)].append(e)
    out = [0.0] * len(messages)
    for c, edges in enumerate(members):
        for e in edges:
            prod = 1.0 if check_llrs is None else math.tanh(0.5 * float(check_llrs[c]))
            for o in edges:
                if o != e:
                    prod *= math.tanh(0.5 * min(max(float(messages[o]), -clip), clip))
            out[e] = prod
    return out
