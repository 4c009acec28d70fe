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
    gen_commuting_pair,
    gen_matrix,
    oracle_radii,
    run_sweep,
    write_summary_json,
    write_trials_csv,
)
from .matrices import as_matrix, load_matrix, save_matrix
from .series import (
    PowerSeries,
    eval_companion,
    from_coefficients,
    lookup,
)

__version__ = "0.1.0"
