"""Data-driven simulation and prediction for linear parameter-varying systems.

The package makes the Hankel-matrix route to LPV trajectories executable:

* :mod:`lpvdd.coeffs`: exact calculus of polynomial coefficient functions of
  time-shifted scheduling samples.
* :mod:`lpvdd.signals`: finite trajectories, Hankel matrices, Kronecker
  extensions.
* :mod:`lpvdd.models`: state-space and input-output model forms, kernel
  representations, JSON interchange.
* :mod:`lpvdd.analysis`: structural observability/reachability and
  persistence-of-excitation rank checks.
* :mod:`lpvdd.simulation`: simulators, window response maps, initial-state
  estimation.
* :mod:`lpvdd.prediction`: output prediction, span membership, and
  annihilator extraction from one measured data sequence.
* :mod:`lpvdd.cli`: command-line front end (``lpvdd simulate|predict|check``).
"""

from .analysis import (
    MinimalityReport,
    PeReport,
    StructuralRankReport,
    check_pe,
    is_struct_observable,
    is_struct_reachable,
    minimality_report,
    obsv_eval,
    obsv_matrix,
    reach_eval,
    reach_matrix,
    structural_rank,
)
from .coeffs import CoeffMatrix, PolyCoeff, SchedVar
from .errors import (
    DimensionMismatch,
    InconsistentTrajectory,
    IntervalMismatch,
    InvalidModel,
    InvalidShape,
    LpvError,
    NonAdjacentIntervals,
    RankDeficientObservability,
    WindowOutOfRange,
)
from .experiments import Query, generate_query, generate_record
from .models import (
    KernelRep,
    LpvIoModel,
    LpvSsModel,
    ValidationReport,
    example_verhoek,
    io_to_kernel,
    load_model,
    model_from_dict,
    model_to_dict,
    random_affine_ss,
    save_model,
    validate,
)
from .prediction import (
    DataRecord,
    LeftNullspace,
    MembershipResult,
    PredictionResult,
    PredictorSystem,
    build_predictor,
    left_nullspace,
    predict,
    span_membership,
)
from .signals import (
    Trajectory,
    concat,
    hankel,
    kron_extend,
    kron_signal,
    read_trajectory_csv,
    sched_block_diag,
    trajectory_from_csv,
    trajectory_to_csv,
    vec,
    write_trajectory_csv,
)
from .simulation import (
    InitialStateEstimate,
    SimResult,
    estimate_initial_state,
    impulse_coeff,
    propagate_state,
    response_map,
    simulate_io,
    simulate_ss,
    toeplitz,
    toeplitz_eval,
)

__version__ = "0.1.0"
