"""The benchmark's four workloads: their inputs, one operation each, and the
checks every operation's output must pass.

An operation is one design run (the code behind ``raptorkit design``) or one
simulation trial (``run_ber_curve`` with one trial at one overhead).  The
package is imported from the ``src`` directory of the checkout this file
sits in, never from an installed copy.  A workload can also drive the
frozen copy in ``baseline/``, imported as ``raptorkit_baseline`` (see
run.py).
"""

from __future__ import annotations

import importlib
import importlib.util
import io
import json
import math
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
BASELINE = BENCH_DIR / "baseline"
INPUTS = BENCH_DIR / "inputs"

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import raptorkit  # noqa: E402

if SRC not in Path(raptorkit.__file__).resolve().parents:
    raise ImportError(f"raptorkit was imported from {raptorkit.__file__}, not from {SRC}")

from tracing import NameSwap  # noqa: E402

SIGMA = 0.9787  # capacity 0.5
GOLDEN_TOL = 1e-9
# A bare-LT frame above threshold may keep a few isolated wrong bits; more
# than this share of wrong information bits is a decoder failure.
LT_FAILURE_SHARE = 0.01

# Full-size parameters.  The reasons for each workload are in NOTES.md.
PARAMS = {
    "design_precode": {"kind": "design", "config": "design_precode.ini"},
    "design_plain": {"kind": "design", "config": "design_plain.ini"},
    "sim_lt_above": {
        "kind": "sim", "distribution": "lt_ref_alpha21.txt", "k_info": 10_000,
        "precode": None, "zero_codeword": True, "schedules": ["joint"],
        "overhead": 0.20, "max_iters": 100, "tandem_precode_iters": 60,
    },
    "sim_raptor_near": {
        "kind": "sim", "distribution": "raptor_jd_best.txt", "k_info": 9500,
        "precode": [3, 60, 10_000], "zero_codeword": False,
        "schedules": ["joint", "tandem"],
        "overhead": 0.10, "max_iters": 150, "tandem_precode_iters": 60,
    },
}

# Toy sizes for the benchmark's own test: same code paths, seconds in total.
# The smoke precode design takes x_p from its config instead of computing it.
SMOKE_PARAMS = {
    "design_precode": {"kind": "design", "config": "smoke_design_precode.ini"},
    "design_plain": {"kind": "design", "config": "smoke_design_plain.ini"},
    "sim_lt_above": {**PARAMS["sim_lt_above"], "k_info": 1000, "overhead": 0.40,
                     "max_iters": 40},
    "sim_raptor_near": {**PARAMS["sim_raptor_near"], "k_info": 1140,
                        "precode": [3, 60, 1200], "max_iters": 30,
                        "tandem_precode_iters": 10},
}

WORKLOADS = tuple(PARAMS)


class OpFailure(RuntimeError):
    """An operation that did not produce an output to check."""


@dataclass
class OpResult:
    """One operation: its wall time, the output the traced run must
    reproduce, the checks it failed, and the values per-layer metrics use."""

    wall_s: float
    output: object
    failures: list[str]
    stats: dict = field(default_factory=dict)


def baseline_package():
    """The frozen seed package in baseline/, imported as raptorkit_baseline
    beside the checkout's raptorkit (its imports are all relative)."""
    name = "raptorkit_baseline"
    if name not in sys.modules:
        path = BASELINE / "raptorkit"
        spec = importlib.util.spec_from_file_location(
            name, path / "__init__.py", submodule_search_locations=[str(path)])
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return sys.modules[name]


def load_goldens() -> dict:
    with open(INPUTS / "goldens.json") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# Design workloads


def run_design(cli, config: Path, workdir: Path) -> dict:
    """Run ``raptorkit design`` in-process and read its report back."""
    out = workdir / "design_dist.txt"
    report = workdir / "design_report.txt"
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = cli.main(["design", "--config", str(config), "--out", str(out),
                         "--report", str(report)])
    if code != 0:
        raise OpFailure(f"raptorkit design exited {code}: {err.getvalue().strip()}")
    return parse_report(report)


def parse_report(path: Path) -> dict:
    """Best alpha, its rate and verification flag, and the alpha profile
    (alpha, rate or None, verified) from a design report."""
    best = None
    profile = []
    with open(path) as fh:
        for line in fh:
            words = line.split()
            if words[:2] == ["best", "alpha"]:
                best = {"alpha": float(words[2]), "rate_lt": float(words[4]),
                        "verified": words[6] == "True"}
            elif words[:1] == ["alpha"] and len(words) == 8:
                rate = None if words[5] == "-" else float(words[5])
                profile.append([float(words[1]), words[3], rate, words[7] == "True"])
    if best is None:
        raise OpFailure(f"no best-alpha line in {path}")
    return {"best": best, "profile": profile}


def check_design(output: dict, golden: dict) -> list[str]:
    failures = []
    best, ref = output["best"], golden["best"]
    if not best["verified"]:
        failures.append("best design not verified")
    for key in ("alpha", "rate_lt"):
        if abs(best[key] - ref[key]) > GOLDEN_TOL:
            failures.append(f"best {key} {best[key]!r} != golden {ref[key]!r}")
    got = {p[0]: p[2] for p in output["profile"]}
    want = {p[0]: p[2] for p in golden["profile"]}
    if set(got) != set(want):
        failures.append(f"alpha grid {sorted(got)} != golden {sorted(want)}")
    for alpha in sorted(set(got) & set(want)):
        a, b = got[alpha], want[alpha]
        if (a is None) != (b is None) or (a is not None and abs(a - b) > GOLDEN_TOL):
            failures.append(f"rate at alpha {alpha:g}: {a!r} != golden {b!r}")
    return failures


def design_stats(output: dict) -> dict:
    profile = output["profile"]
    return {"alphas": len(profile),
            "alphas_feasible": sum(p[1] == "optimal" for p in profile),
            "alphas_verified": sum(p[3] for p in profile)}


# ---------------------------------------------------------------------------
# Simulation workloads


class Capture:
    """Records what the harness encodes and decodes, so each trial's output
    can be checked.  It wraps the names the harness module holds and stores
    return values only; it measures nothing.  It stays installed for the
    whole run, traced or not."""

    def __init__(self, harness):
        self.harness = harness
        self.encoded: list = []   # (code, codeword)
        self.decodes: list = []   # (schedule, graph, lt_iters, DecodeResult)
        self._swap = NameSwap()

    def install(self) -> None:
        def wrap_encode(fn):
            def ldpc_encode(code, info_bits):
                word = fn(code, info_bits)
                self.encoded.append((code, word))
                return word
            return ldpc_encode

        def wrap_decode(schedule):
            def wrap(fn):
                def decode(graph, **kwargs):
                    result = fn(graph, **kwargs)
                    self.decodes.append((schedule, graph, kwargs.get("lt_iters"), result))
                    return result
                return decode
            return wrap

        self._swap.install(self.harness, "ldpc_encode", wrap_encode)
        self._swap.install(self.harness, "decode_joint", wrap_decode("joint"))
        self._swap.install(self.harness, "decode_tandem", wrap_decode("tandem"))

    def uninstall(self) -> None:
        self._swap.restore()

    def take(self) -> tuple[list, list]:
        encoded, decodes = self.encoded, self.decodes
        self.encoded, self.decodes = [], []
        return encoded, decodes


def sim_config(harness, params: dict, dist, schedule: str, master_seed: int):
    precode = params["precode"]
    return harness.ExperimentConfig(
        k_info=params["k_info"], distribution=dist, sigma=SIGMA,
        overheads=(params["overhead"],), trials=1, schedule=schedule,
        max_iters=params["max_iters"],
        tandem_precode_iters=params["tandem_precode_iters"],
        precode=None if precode is None else tuple(precode),
        master_seed=master_seed, workers=1,
        zero_codeword=params["zero_codeword"],
    )


def trial_seed(seed: int, index: int) -> int:
    """Master seed of trial pair `index` in a run with workload seed `seed`."""
    return int(np.random.SeedSequence(seed, spawn_key=(index,)).generate_state(1, np.uint64)[0])


def edge_iterations(schedule: str, graph, lt_iters, iterations: int) -> int:
    """Edges the decoder's check passes touched.  A joint iteration visits
    both subgraphs; tandem visits the rateless subgraph for its first
    lt_iters iterations and the precode afterwards.  (Tandem's rateless
    phase stops early only when the hard decisions reproduce every received
    hard decision, which a noisy frame never does.)"""
    dyn, stat = graph.dyn_edge_var.size, graph.stat_edge_var.size
    if schedule == "joint":
        return iterations * (dyn + stat)
    lt = min(iterations, lt_iters)
    return lt * dyn + (iterations - lt) * stat


def check_trial(params: dict, record, encoded: list, decodes: list) -> tuple[list[str], dict]:
    """Output checks of one trial and the decoder statistics it yields."""
    failures = []
    k_info = params["k_info"]
    if len(decodes) != 1:
        return [f"expected one decode, saw {len(decodes)}"], {}
    schedule, graph, lt_iters, result = decodes[0]
    if not (np.all(np.isfinite(result.totals)) and math.isfinite(record.ber)):
        failures.append("non-finite decoder totals or BER")
    if params["zero_codeword"]:
        word = np.zeros(graph.k, dtype=np.uint8)
    else:
        if len(encoded) != 1:
            return failures + [f"expected one encoded codeword, saw {len(encoded)}"], {}
        code, word = encoded[0]
        if code.syndrome(word).any():
            failures.append("transmitted codeword has a nonzero syndrome")
        if k_info > code.info_length:
            failures.append(f"k_info {k_info} exceeds the precode information length "
                            f"{code.info_length}")
    if params["precode"] is None and record.bit_errors > LT_FAILURE_SHARE * k_info:
        failures.append(f"decoder failure: {record.bit_errors} of {k_info} information bits wrong")
    stats = {
        "schedule": schedule,
        "iterations": result.iterations,
        "converged": int(result.converged),
        "frame_ok": int(np.array_equal(result.bits, word)),
        "edge_iters": edge_iterations(schedule, graph, lt_iters, result.iterations),
        "lt_symbols": int(graph.dyn_llrs.size),
        "lt_edges": int(graph.dyn_edge_var.size),
        "bit_errors": record.bit_errors,
        "frame_errors": record.frame_errors,
        "info_bits": k_info,
    }
    return failures, stats


# ---------------------------------------------------------------------------


class Workload:
    """One workload at full or smoke size.  `unit(i)` runs the i-th unit of
    work: one design run, or one trial per schedule on trial seed i.  It
    drives `package`, the checkout's raptorkit unless told otherwise.  Use
    it as a context manager: a simulation workload's capture is installed
    inside the block."""

    def __init__(self, name: str, seed: int, smoke: bool = False, package=raptorkit):
        if name not in PARAMS:
            raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
        self.name = name
        self.seed = seed
        self.params = (SMOKE_PARAMS if smoke else PARAMS)[name]
        self.kind = self.params["kind"]
        self.cli, self.harness, self.jfunction = (
            importlib.import_module(f"{package.__name__}.{module}")
            for module in ("cli", "harness", "jfunction"))
        if self.kind == "design":
            self.config = INPUTS / self.params["config"]
            key = ("smoke_" if smoke else "") + name
            self.golden = load_goldens()[key]
        else:
            degrees = importlib.import_module(f"{package.__name__}.degrees")
            self.dist = degrees.read_distribution(INPUTS / self.params["distribution"])
            self.capture = Capture(self.harness)

    def __enter__(self):
        if self.kind == "sim":
            self.capture.install()
        return self

    def __exit__(self, *exc):
        if self.kind == "sim":
            self.capture.uninstall()

    def describe(self) -> dict:
        return {"name": self.name, "seed": self.seed, "sigma": SIGMA, **self.params}

    def unit(self, index: int, workdir: Path, timed) -> list[OpResult]:
        """Run unit `index`; `timed(index, fn)` runs fn and returns
        (wall seconds, result)."""
        if self.kind == "design":
            return [self._design_op(index, workdir, timed)]
        master_seed = trial_seed(self.seed, index)
        return [self._trial_op(index, master_seed, schedule, timed)
                for schedule in self.params["schedules"]]

    def _design_op(self, index, workdir, timed) -> OpResult:
        wall, output, error = attempt(index, lambda: run_design(self.cli, self.config, workdir), timed)
        if error:
            return OpResult(wall, None, [error])
        return OpResult(wall, output, check_design(output, self.golden), design_stats(output))

    def _trial_op(self, index, master_seed, schedule, timed) -> OpResult:
        cfg = sim_config(self.harness, self.params, self.dist, schedule, master_seed)
        self.capture.take()
        wall, records, error = attempt(index, lambda: self.harness.run_ber_curve(cfg), timed)
        encoded, decodes = self.capture.take()
        if error:
            return OpResult(wall, None, [error])
        record = records[0]
        failures, stats = check_trial(self.params, record, encoded, decodes)
        output = (schedule, master_seed, record.n_output, record.bit_errors, record.frame_errors)
        return OpResult(wall, output, failures, stats)


def attempt(index: int, fn, timed):
    """(wall seconds, output, error message or None) of one operation; an
    exception fails the operation without stopping the run."""
    t0 = perf_counter()
    try:
        wall, output = timed(index, fn)
    except Exception as exc:  # the run goes on; the failure is counted
        return perf_counter() - t0, None, f"{type(exc).__name__}: {exc}"
    return wall, output, None
