"""Numerical toolkit for one-shot quantum state redistribution."""

from .decoupling import (
    CutPartition,
    DecouplingBounds,
    DecouplingResiduals,
    HaarAverageCheck,
    bounds,
    find_simultaneous_unitary,
    haar_average_check,
    residual,
)
from .iid import (
    DegenerateProjectionError,
    GuardExceededError,
    IidAllocation,
    IidExperimentReport,
    InfeasibleAllocationError,
    TypicalProjector,
    TypicalSpec,
    allocate_partition,
    iid_experiment,
    project_typical,
    tensor_power,
    typical_stats,
)
from .metrics import (
    ResourceRates,
    conditional_mutual_information,
    mutual_information,
    purity,
    resource_rates,
    trace_distance,
    trace_norm,
    von_neumann_entropy,
)
from .protocol import (
    ProtocolPlan,
    ProtocolReport,
    build_plan,
    eta_bounds,
    run_forward,
    run_reverse,
)
from .qstate import (
    DensityOperator,
    InvariantViolation,
    LayoutError,
    LinearMap,
    PureState,
    SystemLayout,
    apply,
    maximally_entangled,
    maximally_mixed,
    merge_subsystems,
    partial_trace,
    permute,
    purify,
    relabel,
    split_subsystem,
    state_from_json,
    state_to_json,
    tensor,
)
from .sampling import (
    GENERATOR_VERSION,
    SeededStream,
    haar_unitary,
    random_density,
    random_pure_state,
)
from .uhlmann import FactoredIsometry, UhlmannResult, cross_operator, uhlmann_isometry

__version__ = "0.1.0"
