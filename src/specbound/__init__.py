"""Certified spectral-radius bounds for power-series matrix functions."""

from .bounds import BestBoundReport, BoundResult, best_bound
from .errors import (
    DimMismatch,
    EigenFailure,
    GenerationFailure,
    NoConvergence,
    NormOverflow,
    OutOfDisk,
    SpecboundError,
    UnknownFamily,
)
from .harness import (
    FAMILIES_PAIR,
    FAMILIES_SINGLE,
    InstanceSpec,
    SweepConfig,
    TrialRecord,
    gen_commuting_pair,
    gen_matrix,
    oracle_radii,
    run_sweep,
    summarize,
    write_summary_json,
    write_trials_csv,
)
from .matrices import (
    as_matrix,
    load_matrix,
    operator_norm,
    save_matrix,
    spectral_radius,
)
from .series import (
    PowerSeries,
    catalog,
    eval_companion,
    from_coefficients,
    lookup,
    truncation_order,
)

__version__ = "0.1.0"
