"""Batch campaigns: BER-versus-overhead simulation and threshold prediction.

Overhead accounting: receiving n output symbols for k_info information bits
gives total rate k_info/n, and the overhead relative to a capacity-C channel
is (n C / k_info) - 1.  Campaigns therefore transmit
ceil(k_info (1+overhead) / C) symbols per point.

Reproducibility: every trial derives its generator streams from the master
seed through SeedSequence spawn keys (overhead_index, trial_index, role), so
results are independent of execution order and worker count, and a repeated
campaign with the same master seed emits a byte-identical CSV.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .codec import (
    LtStream,
    awgn_llr,
    build_regular_ldpc,
    child_seed,
    lt_generate,
    ldpc_encode,
    substream,
)
from .decoder import TannerGraph, decode_joint, decode_tandem
from .degrees import OutputDegreeDistribution, rate_lt
from .evolution import EvolutionContext, run_trajectory
from .jfunction import ChannelParam, channel_from_sigma
from .transfer import TransferFunction

CSV_HEADER = "overhead,n_output,trials,bit_errors,frame_errors,ber,fer,schedule,seed"

_ROLE_PRECODE = 0
_ROLE_STREAM = 1
_ROLE_NOISE = 2
_ROLE_INFO = 3


class ExperimentError(ValueError):
    pass


@dataclass(frozen=True)
class ExperimentConfig:
    k_info: int
    distribution: OutputDegreeDistribution
    sigma: float
    overheads: tuple[float, ...]
    trials: int
    schedule: str = "joint"
    max_iters: int = 300
    tandem_precode_iters: int = 100
    precode: tuple[int, int, int] | None = None  # (d_v, d_c, n)
    master_seed: int = 0
    workers: int = 1
    zero_codeword: bool = True
    clip: float = 30.0

    def __post_init__(self):
        if self.k_info < 1:
            raise ExperimentError("k_info must be positive")
        if self.trials < 1:
            raise ExperimentError("trials must be at least 1")
        if any(o <= -1.0 for o in self.overheads) or not self.overheads:
            raise ExperimentError("overheads must be a nonempty list of values > -1")
        if self.schedule not in ("joint", "tandem"):
            raise ExperimentError("schedule must be 'joint' or 'tandem'")
        if self.sigma <= 0.0:
            raise ExperimentError("sigma must be positive")
        if self.precode is not None:
            d_v, d_c, n = self.precode
            if n * d_v % d_c != 0:
                raise ExperimentError(f"precode ({d_v},{d_c}) with n={n}: n*d_v not divisible by d_c")
            info_length = n - n * d_v // d_c
            if self.k_info > info_length:
                raise ExperimentError(f"k_info = {self.k_info} exceeds the precode's information "
                                      f"length n - n*d_v/d_c = {info_length}")
        object.__setattr__(self, "overheads", tuple(float(o) for o in self.overheads))

    @property
    def capacity(self) -> float:
        return channel_from_sigma(self.sigma).x0

    @property
    def n_input(self) -> int:
        """Number of LT input symbols: the precode length, or k_info bare."""
        return self.precode[2] if self.precode else self.k_info


@dataclass(frozen=True)
class ExperimentRecord:
    overhead: float
    n_output: int
    trials: int
    bit_errors: int
    frame_errors: int
    ber: float
    fer: float
    schedule: str
    seed: int

    def csv_row(self) -> str:
        return (f"{self.overhead:.10g},{self.n_output},{self.trials},{self.bit_errors},"
                f"{self.frame_errors},{self.ber:.10g},{self.fer:.10g},{self.schedule},{self.seed}")


def overhead_to_symbols(k_info: int, capacity: float, overhead: float) -> int:
    """Output symbols to receive so the total rate sits `overhead` above
    the capacity-minimal count."""
    if not (0.0 < capacity < 1.0):
        raise ExperimentError("capacity must lie in (0, 1)")
    if overhead <= -1.0:
        raise ExperimentError("overhead must exceed -1")
    return math.ceil(k_info * (1.0 + overhead) / capacity)


def _run_trial(cfg: ExperimentConfig, n_output: int, oi: int, ti: int) -> tuple[int, int]:
    """One transmission + decode; returns (bit errors, frame error) counted
    over the k_info information positions."""
    k = cfg.n_input
    code = None
    if cfg.precode is not None:
        d_v, d_c, n = cfg.precode
        code = build_regular_ldpc(n, d_v, d_c,
                                  seed=child_seed(cfg.master_seed, oi, ti, _ROLE_PRECODE),
                                  check_rank=not cfg.zero_codeword)

    if cfg.zero_codeword:
        input_bits = np.zeros(k, dtype=np.uint8)
        info_ref = np.zeros(cfg.k_info, dtype=np.uint8)
        info_positions = np.arange(cfg.k_info)
    else:
        rng_info = substream(cfg.master_seed, oi, ti, _ROLE_INFO)
        if code is not None:
            enc = code._enc()
            info_full = rng_info.integers(0, 2, code.info_length).astype(np.uint8)
            input_bits = ldpc_encode(code, info_full)
            info_positions = enc.free_cols[: cfg.k_info]
            info_ref = info_full[: cfg.k_info]
        else:
            input_bits = rng_info.integers(0, 2, k).astype(np.uint8)
            info_positions = np.arange(cfg.k_info)
            info_ref = input_bits[: cfg.k_info]

    stream = LtStream(dist=cfg.distribution, k=k,
                      seed=child_seed(cfg.master_seed, oi, ti, _ROLE_STREAM))
    out_bits = lt_generate(stream, n_output, input_bits)
    channel = awgn_llr(out_bits, cfg.sigma,
                       rng=substream(cfg.master_seed, oi, ti, _ROLE_NOISE))
    graph = TannerGraph.from_stream(stream, channel, code)

    if cfg.schedule == "joint":
        result = decode_joint(graph, max_iters=cfg.max_iters, clip=cfg.clip)
    else:
        result = decode_tandem(graph, lt_iters=cfg.max_iters,
                               precode_iters=cfg.tandem_precode_iters, clip=cfg.clip)

    errs = int(np.sum(result.bits[info_positions] != info_ref))
    return errs, int(errs > 0)


def run_ber_curve(cfg: ExperimentConfig, csv_path=None) -> list[ExperimentRecord]:
    """Simulate every overhead point; rows are aggregated over trials and
    written incrementally in (overhead, trial) order."""
    capacity = cfg.capacity
    records: list[ExperimentRecord] = []
    fh = open(csv_path, "w") if csv_path is not None else None
    try:
        if fh:
            fh.write(CSV_HEADER + "\n")
        for oi, overhead in enumerate(cfg.overheads):
            n_output = overhead_to_symbols(cfg.k_info, capacity, overhead)
            tasks = [(cfg, n_output, oi, ti) for ti in range(cfg.trials)]
            if cfg.workers > 1:
                with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
                    outcomes = list(pool.map(_trial_star, tasks))
            else:
                outcomes = [_run_trial(*t) for t in tasks]
            bit_errors = sum(o[0] for o in outcomes)
            frame_errors = sum(o[1] for o in outcomes)
            rec = ExperimentRecord(
                overhead=overhead, n_output=n_output, trials=cfg.trials,
                bit_errors=bit_errors, frame_errors=frame_errors,
                ber=bit_errors / (cfg.trials * cfg.k_info),
                fer=frame_errors / cfg.trials,
                schedule=cfg.schedule, seed=cfg.master_seed,
            )
            records.append(rec)
            if fh:
                fh.write(rec.csv_row() + "\n")
                fh.flush()
    finally:
        if fh:
            fh.close()
    return records


def _trial_star(args):
    return _run_trial(*args)


@dataclass(frozen=True)
class ThresholdPrediction:
    reachable: bool
    epsilon_star: float | None
    rate_lt: float
    x_ext_final: float
    fixed_point: float
    stall_point: float | None = field(default=None)


def predict_threshold(distribution: OutputDegreeDistribution, channel: ChannelParam,
                      transfer: TransferFunction, x_p: float, alpha: float,
                      precode_rate: float = 1.0, max_iters: int = 5000,
                      tol: float = 1e-9) -> ThresholdPrediction:
    """Evolution verdict at the design operating point plus the implied
    minimal overhead.

    Receiving k alpha / avg_degree symbols is exactly the operating point the
    evolution with mean input degree alpha describes, so a converging
    trajectory certifies overhead C alpha / (R_p avg_degree) - 1.  Success
    requires x_ext to clear x_p strictly, beyond evaluation noise, so a
    never-starting distribution (omega_1 = 0) reports unreachable rather
    than trivially converged.
    """
    from .degrees import poisson_input

    ens = poisson_input(alpha)
    ctx = EvolutionContext(channel=channel, input_ensemble=ens,
                           transfer=transfer, dist=distribution)
    traj = run_trajectory(ctx, max_iters=max_iters, tol=tol, target=x_p)
    r_lt = rate_lt(distribution, alpha)
    eps_star = channel.x0 * alpha / (precode_rate * distribution.node_mean()) - 1.0
    reachable = float(traj.x_ext[-1]) > x_p + 1e-9
    return ThresholdPrediction(
        reachable=reachable,
        epsilon_star=eps_star if reachable else None,
        rate_lt=r_lt,
        x_ext_final=float(traj.x_ext[-1]),
        fixed_point=traj.fixed_point,
        stall_point=None if reachable else traj.fixed_point,
    )
