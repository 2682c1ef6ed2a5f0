"""raptorkit: design and bit-true simulation of raptor/LT codes on the BIAWGN channel."""

from .codec import (
    ChannelOutput,
    LdpcCode,
    LtStream,
    awgn_llr,
    build_regular_ldpc,
    lt_generate,
    ldpc_encode,
)
from .decoder import (
    DecodeResult,
    TannerGraph,
    check_update,
    decode_joint,
    decode_tandem,
    variable_update,
)
from .degrees import (
    InputEnsemble,
    LdpcEnsemble,
    OutputDegreeDistribution,
    edge_to_node,
    node_to_edge,
    poisson_input,
    rate_lt,
    read_distribution,
    write_distribution,
)
from .design import (
    DesignConfig,
    DesignResult,
    SweepResult,
    build_lp,
    optimize_distribution,
    sweep_alpha,
)
from .evolution import (
    EvolutionContext,
    Trajectory,
    alpha_min,
    delta_max,
    evolve_f,
    extrinsic_ic,
    run_trajectory,
    stability_floor_omega2,
)
from .harness import (
    ExperimentConfig,
    ExperimentRecord,
    ThresholdPrediction,
    overhead_to_symbols,
    predict_threshold,
    run_ber_curve,
)
from .jfunction import (
    ChannelParam,
    channel_from_capacity,
    channel_from_sigma,
    j_of_mean,
    mean_of_ic,
)
from .simplex import LpProblem, LpSolution, solve_lp
from .transfer import (
    PrecodeThreshold,
    TransferFunction,
    load_tabulated,
    save_tabulated,
    threshold_xp,
)

__all__ = [
    "ChannelOutput", "LdpcCode", "LtStream", "awgn_llr", "build_regular_ldpc",
    "lt_generate", "ldpc_encode",
    "DecodeResult", "TannerGraph", "check_update", "decode_joint",
    "decode_tandem", "variable_update",
    "InputEnsemble", "LdpcEnsemble", "OutputDegreeDistribution",
    "edge_to_node", "node_to_edge", "poisson_input", "rate_lt",
    "read_distribution", "write_distribution",
    "DesignConfig", "DesignResult", "SweepResult", "build_lp",
    "optimize_distribution", "sweep_alpha",
    "EvolutionContext", "Trajectory", "alpha_min", "delta_max", "evolve_f",
    "extrinsic_ic", "run_trajectory", "stability_floor_omega2",
    "ExperimentConfig", "ExperimentRecord", "ThresholdPrediction",
    "overhead_to_symbols", "predict_threshold", "run_ber_curve",
    "ChannelParam", "channel_from_capacity", "channel_from_sigma",
    "j_of_mean", "mean_of_ic",
    "LpProblem", "LpSolution", "solve_lp",
    "PrecodeThreshold", "TransferFunction",
    "load_tabulated", "save_tabulated", "threshold_xp",
]
