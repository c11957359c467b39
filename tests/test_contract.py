"""The input contract, in one table.

Every public function that takes an array raises its documented
TailscopeError subclass, and no warning, on NaN, on either infinity, on too
few values, and on a negative value where it needs non-negative ones. Every
integer parameter rejects bools and floats and accepts numpy integers. Cases
that another test file already covers are left out of the table.
"""

import warnings

import numpy as np
import pytest

from tailscope import (
    ApenParams,
    Family,
    GeneratorSpec,
    InvalidParameterError,
    NegativeValueError,
    TooFewPointsError,
    TooShortError,
    WindowTooLargeError,
    apen,
    classify_shape,
    max_to_sum,
    mean_excess,
    mean_excess_at,
    rolling,
    rolling_apen,
    summarize,
)

VALUES = np.linspace(1.0, 2.0, 40)

# name: (call on an array, fewest values it takes, its too-short error, needs values >= 0)
ARRAY_FUNCTIONS = {
    "summarize": (summarize, 2, TooShortError, False),
    "rolling std_dev": (lambda v: rolling(v, 5, "std_dev"), 5, WindowTooLargeError, False),
    "rolling coeff_variation": (
        lambda v: rolling(v, 5, "coeff_variation"), 5, WindowTooLargeError, False
    ),
    "rolling apen": (lambda v: rolling(v, 5, "apen"), 5, WindowTooLargeError, False),
    "apen": (apen, 4, TooShortError, False),
    "rolling_apen": (lambda v: rolling_apen(v, 5), 5, WindowTooLargeError, False),
    "mean_excess": (mean_excess, 10, TooShortError, True),
    # No value lies above the threshold of an empty sample.
    "mean_excess_at": (lambda v: mean_excess_at(v, 1.5), 1, InvalidParameterError, False),
    "classify_shape thresholds": (
        lambda v: classify_shape(v, np.linspace(3.0, 1.0, v.size)), 5, TooFewPointsError, False
    ),
    "classify_shape mean excess": (
        lambda v: classify_shape(np.linspace(1.0, 2.0, v.size), v), 5, TooFewPointsError, False
    ),
    "max_to_sum": (lambda v: max_to_sum(v, 2), 2, TooShortError, True),
}

COVERED = {
    *(("summarize", rule) for rule in ("nan", "inf", "-inf", "short")),
    *((f"rolling {stat}", "nan") for stat in ("std_dev", "coeff_variation", "apen")),
    ("rolling std_dev", "short"),
    ("apen", "nan"),
    ("apen", "short"),
    ("rolling_apen", "short"),
    ("mean_excess", "short"),
    ("mean_excess", "negative"),
    ("max_to_sum", "short"),
    ("max_to_sum", "negative"),
}

BAD_VALUE = {"nan": np.nan, "inf": np.inf, "-inf": -np.inf, "negative": -1.0}


def _array_cases():
    for name, (_, _, _, non_negative) in ARRAY_FUNCTIONS.items():
        rules = ["nan", "inf", "-inf", "short"] + (["negative"] if non_negative else [])
        yield from ((name, rule) for rule in rules if (name, rule) not in COVERED)


@pytest.mark.parametrize("name", ARRAY_FUNCTIONS)
def test_array_functions_accept_the_base_values(name):
    ARRAY_FUNCTIONS[name][0](VALUES.copy())


@pytest.mark.parametrize("name, rule", list(_array_cases()))
def test_array_rule(name, rule):
    call, min_n, short_error, _ = ARRAY_FUNCTIONS[name]
    values = VALUES.copy()
    if rule == "short":
        values, error = values[: min_n - 1], short_error
    else:
        values[7] = BAD_VALUE[rule]
        error = NegativeValueError if rule == "negative" else InvalidParameterError
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error):
            call(values)


@pytest.mark.parametrize("threshold", [np.nan, np.inf, -np.inf])
def test_mean_excess_at_threshold_must_be_finite(threshold):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidParameterError):
            mean_excess_at(VALUES, threshold)


INTEGER_PARAMETERS = {
    "m": lambda k: ApenParams(m=k),
    "window": lambda k: rolling(VALUES, k, "std_dev"),
    "p": lambda k: max_to_sum(VALUES, k),
    "n": lambda k: GeneratorSpec(Family.GAUSSIAN, n=k, seed=1),
    "seed": lambda k: GeneratorSpec(Family.GAUSSIAN, n=10, seed=k),
}


@pytest.mark.parametrize("name", INTEGER_PARAMETERS)
@pytest.mark.parametrize("bad", [True, 2.0])
def test_integer_rule_rejects_bools_and_floats(name, bad):
    with pytest.raises(InvalidParameterError):
        INTEGER_PARAMETERS[name](bad)


@pytest.mark.parametrize("name", INTEGER_PARAMETERS)
def test_integer_rule_accepts_numpy_integers(name):
    INTEGER_PARAMETERS[name](np.int64(2))


GRID = VALUES.reshape(8, 5)

# name: (a call on an input of the wrong shape, the error it raises). Arrays
# must be 1-D; mean_excess_at's threshold and GeneratorSpec's parameters 0-d.
WRONG_SHAPE = {
    "summarize 2-D": (lambda: summarize(GRID), InvalidParameterError),
    "summarize None": (lambda: summarize(None), InvalidParameterError),
    "rolling 2-D": (lambda: rolling(GRID, 5, "std_dev"), InvalidParameterError),
    "rolling apen 2-D": (lambda: rolling(GRID, 5, "apen"), InvalidParameterError),
    "rolling 2-D smaller than the window": (
        lambda: rolling(np.ones((3, 3)), 10, "std_dev"), InvalidParameterError
    ),
    "apen 2-D": (lambda: apen(GRID), InvalidParameterError),
    "mean_excess 2-D": (lambda: mean_excess(GRID), InvalidParameterError),
    "max_to_sum 2-D": (lambda: max_to_sum(GRID, 2), InvalidParameterError),
    "mean_excess_at 2-D": (lambda: mean_excess_at(GRID, 1.5), InvalidParameterError),
    "mean_excess_at threshold 1-D": (
        lambda: mean_excess_at(VALUES, [1.0, 1.5]), InvalidParameterError
    ),
    "GeneratorSpec parameter 1-D": (
        lambda: GeneratorSpec(Family.GAUSSIAN, n=10, seed=1, mu=[0.0]), InvalidParameterError
    ),
}


@pytest.mark.parametrize("name", WRONG_SHAPE)
def test_dimension_rule(name):
    call, error = WRONG_SHAPE[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error):
            call()
