"""Belief propagation over the combined Tanner graph.

Input-symbol variable nodes carry no channel observation; rateless
("dynamic") check nodes each hold the channel LLR of their received output
symbol, precode ("static") check nodes hold none.  Messages flood within a
subgraph pass; a joint iteration is one dynamic pass then one static pass,
each followed by a variable update over every edge.  Tandem decoding runs
the rateless subgraph alone, freezes the per-symbol totals, and feeds them
to the precode subgraph as a-priori values.

Check updates run in the log-tanh domain with explicit zero tracking, so
all-zero initial messages and saturated channel values are exact rather
than special-cased through division.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .codec import ChannelOutput, LdpcCode, LtStream

DEFAULT_CLIP = 30.0
_ATANH_CAP = 1.0 - 1e-16


@dataclass
class TannerGraph:
    k: int
    dyn_edge_var: np.ndarray
    dyn_edge_check: np.ndarray
    dyn_llrs: np.ndarray
    stat_edge_var: np.ndarray
    stat_edge_check: np.ndarray
    n_dyn_checks: int = 0
    n_stat_checks: int = 0

    def __post_init__(self):
        self.n_dyn_checks = int(self.dyn_llrs.size)
        self.n_stat_checks = 0 if self.stat_edge_check.size == 0 else int(self.stat_edge_check.max()) + 1

    @classmethod
    def from_stream(cls, stream: LtStream, channel: ChannelOutput,
                    code: LdpcCode | None = None) -> "TannerGraph":
        n_sym = len(stream)
        if channel.llrs.size != n_sym:
            raise ValueError("one channel LLR per generated output symbol required")
        dyn_var = stream.neighbors.astype(np.int64)
        dyn_check = np.repeat(np.arange(n_sym, dtype=np.int64), stream.degrees)
        if code is not None:
            if code.n != stream.k:
                raise ValueError("precode length must equal the stream's input count")
            stat_var = code.check_neighbors.astype(np.int64).ravel()
            stat_check = np.repeat(np.arange(code.m, dtype=np.int64), code.d_c)
        else:
            stat_var = np.zeros(0, dtype=np.int64)
            stat_check = np.zeros(0, dtype=np.int64)
        return cls(k=stream.k, dyn_edge_var=dyn_var, dyn_edge_check=dyn_check,
                   dyn_llrs=np.asarray(channel.llrs, dtype=float),
                   stat_edge_var=stat_var, stat_edge_check=stat_check)


@dataclass
class DecodeResult:
    bits: np.ndarray
    totals: np.ndarray
    iterations: int
    converged: bool
    llr_trace: list[float] = field(default_factory=list)


def _check_pass(v2c: np.ndarray, edge_check: np.ndarray, n_checks: int,
                check_llr: np.ndarray | None, clip: float) -> np.ndarray:
    """Outgoing check messages 2 atanh(prod tanh(m/2)) excluding each edge's
    own contribution; dynamic checks fold their channel LLR into the product."""
    # each step below is the same float operation as in the plain formula,
    # done in place where it can be, to touch fewer fresh edge-sized arrays
    t = np.clip(v2c, -clip, clip)
    t *= 0.5
    np.tanh(t, out=t)
    zero = np.flatnonzero(t == 0.0)
    neg = t < 0.0
    logt = np.abs(t)
    with np.errstate(divide="ignore"):
        np.log(logt, out=logt)
    logt[zero] = 0.0

    sum_log = np.bincount(edge_check, weights=logt, minlength=n_checks)
    n_zero = np.bincount(edge_check[zero], minlength=n_checks)
    n_neg = np.bincount(edge_check, weights=neg, minlength=n_checks).astype(np.int64)

    if check_llr is not None:
        tch = np.tanh(0.5 * check_llr)
        chz = tch == 0.0
        with np.errstate(divide="ignore"):
            chlog = np.where(chz, 0.0, np.log(np.abs(np.where(chz, 1.0, tch))))
        sum_log = sum_log + chlog
        n_zero = n_zero + chz
        n_neg = n_neg + (tch < 0.0)

    # Zero messages contribute logt = 0 and neg = False, so the leave-one-out
    # subtraction below is already exact for them; only the zero COUNT of the
    # other factors decides whether the outgoing product collapses to 0.
    out = sum_log[edge_check]
    out -= logt
    np.exp(out, out=out)
    np.minimum(out, _ATANH_CAP, out=out)
    np.arctanh(out, out=out)
    out *= 2.0
    # sign -1.0 where the other factors hold an odd number of negatives
    flip = (n_neg & 1).astype(bool)[edge_check] ^ neg
    sign = np.multiply(flip, -2.0, out=t)
    sign += 1.0
    out *= sign
    if n_zero.any():
        z_other = n_zero[edge_check]
        z_other[zero] -= 1
        out[z_other > 0] = 0.0
    return np.clip(out, -clip, clip, out=out)


def check_update(incoming, channel_llr: float | None = None, clip: float = DEFAULT_CLIP) -> np.ndarray:
    """Single-check convenience form of the batched update."""
    inc = np.asarray(incoming, dtype=float)
    llr = None if channel_llr is None else np.array([float(channel_llr)])
    return _check_pass(inc, np.zeros(inc.size, dtype=np.int64), 1, llr, clip)


def variable_update(incoming, apriori: float = 0.0) -> tuple[np.ndarray, float]:
    """Leave-one-out sums at a variable node plus its total LLR."""
    inc = np.asarray(incoming, dtype=float)
    total = float(inc.sum() + apriori)
    return total - inc, total


def _hard_bits(totals: np.ndarray) -> np.ndarray:
    # ties (exactly zero LLR) resolve to bit 0
    return (totals < 0.0).astype(np.uint8)


def _parities(edge_check: np.ndarray, edge_var: np.ndarray, n_checks: int,
              bits: np.ndarray) -> np.ndarray:
    """Parity of the hard bits at each check of one subgraph."""
    return np.bincount(edge_check, weights=bits[edge_var], minlength=n_checks).astype(np.int64) & 1


def _dyn_ok(g: TannerGraph, bits: np.ndarray) -> bool:
    return np.array_equal(_parities(g.dyn_edge_check, g.dyn_edge_var, g.n_dyn_checks, bits),
                          g.dyn_llrs < 0.0)


def _stat_ok(g: TannerGraph, bits: np.ndarray) -> bool:
    return not _parities(g.stat_edge_check, g.stat_edge_var, g.n_stat_checks, bits).any()


def _parities_ok(graph: TannerGraph, bits: np.ndarray) -> bool:
    if graph.n_dyn_checks == 0 and graph.n_stat_checks == 0:
        return False  # nothing observed, nothing to satisfy
    # the smaller static subgraph first; both must hold either way
    return ((graph.n_stat_checks == 0 or _stat_ok(graph, bits))
            and (graph.n_dyn_checks == 0 or _dyn_ok(graph, bits)))


class _MessageState:
    """Check-to-variable messages of both subgraphs, with each subgraph's
    per-variable sum cached when its messages are replaced.

    bincount sums start from +0.0, so they never hold -0.0 and adding the
    cached sums gives the same bits as accumulating onto a zero array.
    """

    def __init__(self, graph: TannerGraph):
        self.graph = graph
        self.c2v_dyn = np.zeros(graph.dyn_edge_var.size)
        self.c2v_stat = np.zeros(graph.stat_edge_var.size)
        self.sum_dyn = np.zeros(graph.k)
        self.sum_stat = np.zeros(graph.k)

    def dyn_pass(self, tot: np.ndarray, clip: float) -> None:
        """Dynamic check pass from the per-variable totals `tot`."""
        g = self.graph
        if g.dyn_edge_var.size == 0:
            return  # bincount of no edges would give integer sums
        v2c = tot[g.dyn_edge_var]
        v2c -= self.c2v_dyn
        self.c2v_dyn = _check_pass(v2c, g.dyn_edge_check, g.n_dyn_checks, g.dyn_llrs, clip)
        self.sum_dyn = np.bincount(g.dyn_edge_var, weights=self.c2v_dyn, minlength=g.k)

    def stat_pass(self, tot: np.ndarray, clip: float) -> None:
        """Static check pass from the per-variable totals `tot`."""
        g = self.graph
        v2c = tot[g.stat_edge_var]
        v2c -= self.c2v_stat
        self.c2v_stat = _check_pass(v2c, g.stat_edge_check, g.n_stat_checks, None, clip)
        self.sum_stat = np.bincount(g.stat_edge_var, weights=self.c2v_stat, minlength=g.k)

    def totals(self) -> np.ndarray:
        if self.graph.n_stat_checks:
            return self.sum_dyn + self.sum_stat
        return self.sum_dyn


def decode_joint(graph: TannerGraph, max_iters: int = 300, clip: float = DEFAULT_CLIP,
                 early_stop: bool = True) -> DecodeResult:
    """Alternate one rateless pass and one precode pass per global iteration.

    Stops once hard decisions satisfy every parity; early_stop=False runs the
    full budget, which is what message-settled totals (tree marginals) need.
    """
    st = _MessageState(graph)
    g = graph
    bits = np.zeros(g.k, dtype=np.uint8)
    totals = st.totals()
    trace: list[float] = []
    converged = False
    iters = 0
    for iters in range(1, max_iters + 1):
        st.dyn_pass(totals, clip)
        if g.n_stat_checks:
            st.stat_pass(st.totals(), clip)
        totals = st.totals()
        bits = _hard_bits(totals)
        trace.append(float(np.mean(np.abs(totals))))
        if early_stop and _parities_ok(g, bits):
            converged = True
            break
    if not early_stop:
        converged = _parities_ok(g, bits)
    return DecodeResult(bits=bits, totals=totals, iterations=iters,
                        converged=converged, llr_trace=trace)


def decode_tandem(graph: TannerGraph, lt_iters: int = 300, precode_iters: int = 100,
                  clip: float = DEFAULT_CLIP) -> DecodeResult:
    """Rateless BP to completion first, then precode BP seeded with the
    frozen extrinsic totals as a-priori values."""
    st = _MessageState(graph)
    g = graph
    trace: list[float] = []
    iters = 0
    for _ in range(lt_iters):
        iters += 1
        st.dyn_pass(st.sum_dyn, clip)
        trace.append(float(np.mean(np.abs(st.sum_dyn))))
        if _dyn_ok(g, _hard_bits(st.sum_dyn)):
            break

    apriori = totals = st.sum_dyn
    if g.n_stat_checks:
        for _ in range(precode_iters):
            iters += 1
            st.stat_pass(totals, clip)
            totals = st.sum_stat + apriori
            trace.append(float(np.mean(np.abs(totals))))
            if _stat_ok(g, _hard_bits(totals)):
                break
    bits = _hard_bits(totals)
    return DecodeResult(bits=bits, totals=totals, iterations=iters,
                        converged=_parities_ok(g, bits), llr_trace=trace)
