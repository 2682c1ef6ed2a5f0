"""In-memory spans around the package's public functions, for the traced run.

The package imports its callees by name (``from .jfunction import
mean_of_ic``), so a wrapper must replace the name the *calling* module holds;
methods are replaced on their class.  The package itself is not edited:
`NameSwap` swaps the names and puts them back, both for the tracer's spans
and for the capture of outputs the checks read (``workloads.Capture``).

A span is (name, start, end, parent index, trial id).  The benchmark opens a
root span per operation; a span's self time is its duration minus the
durations of its direct children.  The self time of the glue between the
package's modules (the benchmark's root span, ``cli.main`` and
``harness.run_ber_curve``) must stay under `GLUE_MAX` of the traced time:
a public callee of the glue left unwrapped would land there.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np
from raptorkit import cli, design, evolution, harness, jfunction, transfer
from raptorkit.decoder import TannerGraph
from raptorkit.transfer import TransferFunction

ROOT_SPAN = "bench.op"
# Modules whose self time is glue rather than work of a traced module.
GLUE_MODULES = ("bench", "cli", "harness")
GLUE_MAX = 0.05


class NameSwap:
    """Replaces attributes with wrappers and puts the originals back.
    `wrap(fn)` returns the replacement of fn; a classmethod's function is
    wrapped and re-bound as a classmethod."""

    def __init__(self):
        self._saved: list = []

    def install(self, owner, attr: str, wrap) -> None:
        raw = owner.__dict__[attr]
        new = classmethod(wrap(raw.__func__)) if isinstance(raw, classmethod) else wrap(raw)
        self._saved.append((owner, attr, raw))
        setattr(owner, attr, new)

    def restore(self) -> None:
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved = []



def _lp_size(tracer, args, kwargs, problem):
    tracer.counts["design.lp_rows"] = problem.a_ub.shape[0] + problem.a_eq.shape[0]
    tracer.counts["design.lp_cols"] = problem.c.size


def _jinv_elems(tracer, args, kwargs, result):
    tracer.counts["jfunction.jinv_elems"] += np.size(args[0] if args else kwargs["x"])


def _inner_points(tracer, args, kwargs, result):
    tracer.counts["evolution.inner_ic_points"] += np.size(args[3] if len(args) > 3 else kwargs["x_u"])


# (owner whose attribute the caller reads, attribute, span name, post-call hook)
WRAPS = [
    (jfunction, "_JTable", "jfunction.table_build", None),
    (jfunction, "j_of_mean", "jfunction.j", None),
    (transfer, "j_of_mean", "jfunction.j", None),
    (evolution, "j_of_mean", "jfunction.j", None),
    (jfunction, "mean_of_ic", "jfunction.jinv", _jinv_elems),
    (transfer, "mean_of_ic", "jfunction.jinv", _jinv_elems),
    (evolution, "mean_of_ic", "jfunction.jinv", _jinv_elems),
    (cli, "channel_from_sigma", "jfunction.channel", None),
    (harness, "channel_from_sigma", "jfunction.channel", None),
    (cli, "threshold_xp", "transfer.threshold", None),
    (transfer, "ldpc_de_converges", "transfer.de_run", None),
    (TransferFunction, "evaluate", "transfer.eval", None),
    (design, "inner_ic", "evolution.inner_ic", _inner_points),
    (evolution, "inner_ic", "evolution.inner_ic", _inner_points),
    (design, "check_stage_coeffs", "evolution.check_coeffs", None),
    (evolution, "check_stage_coeffs", "evolution.check_coeffs", None),
    (design, "evolve_f_grid", "evolution.grid_eval", None),
    (cli, "sweep_alpha", "design.sweep", None),
    (design, "optimize_distribution", "design.optimize", None),
    (design, "build_lp", "design.build_lp", _lp_size),
    (design, "_verify", "design.verify", None),
    (design, "solve_lp", "simplex.solve", None),
    (harness, "build_regular_ldpc", "codec.ldpc_build", None),
    (harness, "ldpc_encode", "codec.ldpc_encode", None),
    (harness, "lt_generate", "codec.lt_generate", None),
    (harness, "awgn_llr", "codec.awgn", None),
    (TannerGraph, "from_stream", "decoder.graph_build", None),
    (harness, "decode_joint", "decoder.decode", None),
    (harness, "decode_tandem", "decoder.decode", None),
    (harness, "run_ber_curve", "harness.run_ber_curve", None),
    (cli, "main", "cli.main", None),
]


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: dict = defaultdict(float)
        self.trial = -1
        self._stack: list[int] = []
        self._swap = NameSwap()

    def _wrapped(self, fn, name, hook):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.trial)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return wrapper

    def install(self, wraps=None) -> None:
        for owner, attr, name, hook in WRAPS if wraps is None else wraps:
            self._swap.install(owner, attr, lambda fn, name=name, hook=hook:
                               self._wrapped(fn, name, hook))

    def uninstall(self) -> None:
        self._swap.restore()

    @contextmanager
    def op(self, trial: int):
        """Root span of one operation."""
        self.trial = trial
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[idx] = (ROOT_SPAN, start, end, -1, trial)
            self.trial = -1

    def summary(self) -> tuple[dict, dict, dict]:
        """Over the spans inside operations: total duration and call count
        per span name, and self time per module (the name's first part)."""
        total = defaultdict(float)
        calls = defaultdict(int)
        self_time = defaultdict(float)
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for (name, start, end, _, trial), inner in zip(self.spans, child):
            if trial >= 0:
                total[name] += end - start
                calls[name] += 1
                self_time[name.split(".", 1)[0]] += end - start - inner
        return dict(total), dict(calls), dict(self_time)
