"""Energy-efficiency optimization for downlink cell-free massive MIMO with zero-forcing."""

from .propagation import (
    ChannelRealization,
    MmseStats,
    Topology,
    draw_realization,
    generate_topology,
    large_scale_fading,
    mmse_stats,
    wrapped_distance,
)
from .zfstats import (
    SingularChannelError,
    ZfStatistics,
    estimate_zf_statistics,
    validate_sinr,
    zf_matrix,
)
from .power import (
    PowerAllocation,
    PowerParams,
    QosSpec,
    check_feasibility,
    energy_efficiency,
    equal_power_allocation,
    make_power_params,
    per_user_rate,
    reduced_energy_efficiency,
    total_power,
)
from .inner import ConstraintSet, feasible_point, solve_inner
from .dinkelbach import solve_pce
from .sca import Surrogate, build_surrogate, sca_step, solve_ipce
from .harness import (
    ExperimentConfig,
    Instance,
    ResultRow,
    build_instance,
    run_point,
    run_topology,
    sweep_m,
    sweep_rho_f,
)
from .reports import KktReport, SolveReport

__all__ = [
    "ChannelRealization",
    "ConstraintSet",
    "ExperimentConfig",
    "Instance",
    "KktReport",
    "MmseStats",
    "PowerAllocation",
    "PowerParams",
    "QosSpec",
    "ResultRow",
    "SingularChannelError",
    "SolveReport",
    "Surrogate",
    "Topology",
    "ZfStatistics",
    "build_instance",
    "build_surrogate",
    "check_feasibility",
    "draw_realization",
    "energy_efficiency",
    "equal_power_allocation",
    "estimate_zf_statistics",
    "feasible_point",
    "generate_topology",
    "large_scale_fading",
    "make_power_params",
    "mmse_stats",
    "per_user_rate",
    "reduced_energy_efficiency",
    "run_point",
    "run_topology",
    "sca_step",
    "solve_inner",
    "solve_ipce",
    "solve_pce",
    "sweep_m",
    "sweep_rho_f",
    "total_power",
    "validate_sinr",
    "wrapped_distance",
    "zf_matrix",
]
