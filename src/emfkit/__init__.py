"""emfkit: low-rank matrix recovery under asymmetric least squares.

Fits rank-k factorizations whose entries estimate conditional expectiles
of the observations, making recovery robust to skewed noise.  Includes
exact inner-subproblem solvers, deterministic synthetic-data generators,
evaluation metrics and a CLI experiment harness.
"""

__version__ = "0.1.0"

from .core import (
    DuplicateEntryError,
    EmfConfig,
    EntryObservations,
    FactorPair,
    GeneralObservations,
    ObservationSet,
    SolveReport,
    StopReason,
    as_matrix,
)
from .emf import DegenerateInitError, fit, svd_init
from .loss import scalar_expectile
from .metrics import (
    BinSpec,
    DenominatorTooSmallError,
    ErrorSummary,
    binned_summaries,
    empirical_cdf,
    relative_errors,
    relative_errors_at,
    summarize,
)
from .rng import Pcg32
from .subsolver import SingularDesignError, SubproblemResult, solve_y
from .synth import (
    SyntheticInstance,
    apply_measurements,
    chi_square_noise,
    gaussian_measurements,
    gen_low_rank,
    make_completion_instance,
    sample_mask,
)

__all__ = [
    "__version__",
    "as_matrix",
    "FactorPair",
    "EntryObservations",
    "GeneralObservations",
    "ObservationSet",
    "EmfConfig",
    "SolveReport",
    "StopReason",
    "DuplicateEntryError",
    "scalar_expectile",
    "solve_y",
    "SubproblemResult",
    "SingularDesignError",
    "svd_init",
    "fit",
    "DegenerateInitError",
    "gen_low_rank",
    "chi_square_noise",
    "sample_mask",
    "gaussian_measurements",
    "apply_measurements",
    "make_completion_instance",
    "SyntheticInstance",
    "relative_errors",
    "relative_errors_at",
    "empirical_cdf",
    "summarize",
    "binned_summaries",
    "ErrorSummary",
    "BinSpec",
    "DenominatorTooSmallError",
    "Pcg32",
]
