"""Degree-distribution algebra: node/edge views, Poisson input ensembles,
LT rate accounting, and the distribution file format.

Distributions are sparse integer-degree -> weight mappings so designers can
restrict supports to arbitrary degree sets.  Node view Omega gives the
probability that a fresh output symbol has degree d; the edge view is
omega_d proportional to d * Omega_d.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

_SUM_TOL = 1e-9


class DistributionError(ValueError):
    pass


def _validated(weights, what: str) -> dict[int, float]:
    if not weights:
        raise DistributionError(f"{what}: empty distribution")
    clean: dict[int, float] = {}
    for deg, w in weights.items():
        d = int(deg)
        if d < 1 or d != deg:
            raise DistributionError(f"{what}: degree {deg!r} is not a positive integer")
        w = float(w)
        if not math.isfinite(w) or w < 0.0:
            raise DistributionError(f"{what}: weight {w!r} at degree {d} is negative or non-finite")
        if w > 0.0:
            clean[d] = clean.get(d, 0.0) + w
    total = sum(clean.values())
    if total <= 0.0:
        raise DistributionError(f"{what}: all weights are zero")
    if abs(total - 1.0) > _SUM_TOL:
        raise DistributionError(f"{what}: weights sum to {total!r}, not 1")
    return dict(sorted(clean.items()))


def node_to_edge(node_weights) -> dict[int, float]:
    """Edge-view weights omega_d = d*Omega_d / sum_k k*Omega_k."""
    node = _validated(node_weights, "node weights")
    mean = sum(d * w for d, w in node.items())
    return {d: d * w / mean for d, w in node.items()}


def edge_to_node(edge_weights) -> dict[int, float]:
    """Inverse of node_to_edge: Omega_d proportional to omega_d / d."""
    edge = _validated(edge_weights, "edge weights")
    inv_mean = sum(w / d for d, w in edge.items())
    return {d: (w / d) / inv_mean for d, w in edge.items()}


@dataclass(frozen=True)
class OutputDegreeDistribution:
    """Output-symbol degree distribution in both node and edge views."""

    node_weights: dict[int, float]
    edge_weights: dict[int, float]

    @classmethod
    def from_node_weights(cls, weights) -> "OutputDegreeDistribution":
        node = _validated(weights, "node weights")
        return cls(node_weights=node, edge_weights=node_to_edge(node))

    @classmethod
    def from_edge_weights(cls, weights) -> "OutputDegreeDistribution":
        edge = _validated(weights, "edge weights")
        return cls(node_weights=edge_to_node(edge), edge_weights=edge)

    def degrees(self) -> list[int]:
        return sorted(self.node_weights)

    def node_mean(self) -> float:
        """Average output degree, i.e. the derivative of the node polynomial at 1."""
        return sum(d * w for d, w in self.node_weights.items())

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        degs = np.array(sorted(self.edge_weights), dtype=np.int64)
        return degs, np.array([self.edge_weights[int(d)] for d in degs])

    def node_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        degs = np.array(sorted(self.node_weights), dtype=np.int64)
        return degs, np.array([self.node_weights[int(d)] for d in degs])


def rate_lt(dist: OutputDegreeDistribution, alpha: float) -> float:
    """A-posteriori LT rate: average output degree over average input degree."""
    if alpha <= 0.0:
        raise DistributionError("alpha must be positive")
    return dist.node_mean() / alpha


@dataclass(frozen=True)
class InputEnsemble:
    """Poisson(alpha) input-symbol ensemble in edge view, truncated.

    edge_coeffs[i] = e^-alpha alpha^(i-1)/(i-1)! renormalized after dropping
    a tail of mass below the requested tolerance.
    """

    alpha: float
    edge_coeffs: dict[int, float]
    tail_tol: float = field(default=1e-10, compare=False)

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        degs = np.array(sorted(self.edge_coeffs), dtype=np.int64)
        return degs, np.array([self.edge_coeffs[int(d)] for d in degs])


def poisson_input(alpha: float, tail_tol: float = 1e-10) -> InputEnsemble:
    """Truncated Poisson input ensemble with mean node degree alpha."""
    if alpha <= 0.0:
        raise DistributionError("alpha must be positive")
    if not (0.0 < tail_tol < 1e-3):
        raise DistributionError("tail_tol must lie in (0, 1e-3)")
    coeffs = []
    term = math.exp(-alpha)  # edge degree 1
    cum = 0.0
    i = 1
    while cum < 1.0 - tail_tol:
        coeffs.append(term)
        cum += term
        term *= alpha / i
        i += 1
        if i > 500000:  # pragma: no cover - unreachable for sane alpha
            raise DistributionError("poisson truncation did not converge")
    total = sum(coeffs)
    edge = {d: w / total for d, w in enumerate(coeffs, start=1)}
    return InputEnsemble(alpha=float(alpha), edge_coeffs=edge, tail_tol=tail_tol)


@dataclass(frozen=True)
class LdpcEnsemble:
    """Edge-perspective LDPC degree distributions lambda (variable) and rho (check)."""

    var_edge: dict[int, float]
    check_edge: dict[int, float]

    def __post_init__(self):
        object.__setattr__(self, "var_edge", _validated(self.var_edge, "lambda"))
        object.__setattr__(self, "check_edge", _validated(self.check_edge, "rho"))
        if min(self.var_edge) < 2 or min(self.check_edge) < 2:
            raise DistributionError("LDPC edge degrees must be at least 2")

    @property
    def design_rate(self) -> float:
        inv_var = sum(w / d for d, w in self.var_edge.items())
        inv_chk = sum(w / d for d, w in self.check_edge.items())
        return 1.0 - inv_chk / inv_var

    @classmethod
    def regular(cls, d_v: int, d_c: int) -> "LdpcEnsemble":
        return cls(var_edge={d_v: 1.0}, check_edge={d_c: 1.0})


def write_distribution(dist: OutputDegreeDistribution, path) -> None:
    """Write node-view weights, one "degree weight" pair per line."""
    with open(path, "w") as fh:
        fh.write("# output degree distribution, node view: degree weight\n")
        for d in dist.degrees():
            fh.write(f"{d} {float(dist.node_weights[d])!r}\n")


def read_distribution(path) -> OutputDegreeDistribution:
    """Read a node-view distribution file; '#' starts a comment."""
    weights: dict[int, float] = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise DistributionError(f"{path}:{lineno}: expected 'degree weight', got {raw!r}")
            try:
                deg = int(parts[0])
                w = float(parts[1])
            except ValueError as exc:
                raise DistributionError(f"{path}:{lineno}: {exc}") from exc
            if deg in weights:
                raise DistributionError(f"{path}:{lineno}: duplicate degree {deg}")
            weights[deg] = w
    return OutputDegreeDistribution.from_node_weights(weights)
