"""primecensus: census of primes in [x, x**2] with estimators and evaluation.

The package is organized around one data spine: the census engine produces
(x, x**2, prime count) records; storage persists them; the model, fitting
and evaluation modules consume them; plotting renders them.  The
combinatorial counter in ``pi_oracle`` is a deliberately independent
implementation used to cross-check the engine.
"""

from .census import (
    CensusRecord,
    SweepCheckpoint,
    census_sweep,
    count_in_range,
    read_checkpoint,
    run_census,
    write_checkpoint,
)
from .errors import (
    CensusFormatError,
    CensusGapError,
    CensusHeaderError,
    CensusOrderError,
    CensusRowError,
    CensusSquareError,
    CheckpointError,
    CheckpointIntegrityError,
    DomainError,
    PrimeCensusError,
    RangeTooLargeError,
    SingularDesignError,
)
from .evaluation import (
    EvaluationSummary,
    MatchClass,
    SeriesPoint,
    difference_series,
    evaluate_difference_model,
    evaluate_model,
    ratio_series,
)
from .fitting import FitResult, fit_hyperbolic_z, fit_line, fit_log_linear, fit_power, power_coefficient
from .models import (
    ALL_MODEL_KINDS,
    BERTRAND,
    CONIC,
    COUNT_MODEL_KINDS,
    CUSTOM_RATIO,
    DEFAULT_CONSTANTS,
    DIFFERENCE_LINE,
    HYPERBOLIC,
    POLYNOMIAL,
    POWER_SERIES,
    ModelSpec,
    model_spec,
    predict,
)
from .pi_oracle import count_in_range_oracle, pi_prefix, prime_pi
from .plotting import PlotConfig, render, render_to_file
from .storage import read_census, read_constants, write_census, write_constants

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
