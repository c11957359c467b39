"""Volatility diagnostics for financial price series.

Ingest closing-price CSVs, normalize calendars, derive log-returns, and run
four diagnostics with known behavior on seeded synthetic oracles:
descriptive statistics (with rolling windows), approximate entropy,
empirical mean-excess curves, and maximum-to-sum moment traces.
"""

from .apen import ApenParams, RMode, apen
from .errors import (
    AllZeroError,
    DuplicateDateError,
    EmptySeriesError,
    InvalidParameterError,
    MissingColumnError,
    NegativeValueError,
    NonPositivePriceError,
    TailscopeError,
    TooFewPointsError,
    TooShortError,
    UnparsableRowError,
    WindowTooLargeError,
    WindowTooSmallError,
    ZeroToleranceError,
)
from .evt import (
    MaxSumTrace,
    MefCurve,
    MefShape,
    Verdict,
    classify_shape,
    fitted_slope,
    max_to_sum,
    mean_excess,
    mean_excess_at,
)
from .series import (
    Frequency,
    PriceSeries,
    ReturnKind,
    ReturnSeries,
    fill_weekend,
    ingest_csv,
    log_returns,
    resample,
)
from .stats import RollingSeries, RollingStatistic, StatsSummary, rolling, summarize
from .synth import Family, GeneratorSpec, generate

__version__ = "0.1.0"

__all__ = [
    "ApenParams",
    "RMode",
    "apen",
    "MaxSumTrace",
    "MefCurve",
    "MefShape",
    "Verdict",
    "classify_shape",
    "fitted_slope",
    "max_to_sum",
    "mean_excess",
    "mean_excess_at",
    "Frequency",
    "PriceSeries",
    "ReturnKind",
    "ReturnSeries",
    "fill_weekend",
    "ingest_csv",
    "log_returns",
    "resample",
    "RollingSeries",
    "RollingStatistic",
    "StatsSummary",
    "rolling",
    "summarize",
    "Family",
    "GeneratorSpec",
    "generate",
    "TailscopeError",
    "MissingColumnError",
    "UnparsableRowError",
    "NonPositivePriceError",
    "DuplicateDateError",
    "EmptySeriesError",
    "TooShortError",
    "WindowTooSmallError",
    "WindowTooLargeError",
    "ZeroToleranceError",
    "NegativeValueError",
    "TooFewPointsError",
    "AllZeroError",
    "InvalidParameterError",
]
