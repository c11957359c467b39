"""The input contract, in one table.

Every public function that takes an array raises its documented
TailscopeError subclass, and no warning, on NaN, on either infinity, on too
few values, and on a negative value where it needs non-negative ones. Every
integer parameter rejects bools and floats and accepts numpy integers. Input
that is not numeric and a string that is none of an enum's choices raise
InvalidParameterError. Cases that another test file already covers are left
out of the table.
"""

import datetime as dt
import warnings

import numpy as np
import pytest

from tailscope import (
    ApenParams,
    Family,
    Frequency,
    GeneratorSpec,
    InvalidParameterError,
    MefShape,
    NegativeValueError,
    PriceSeries,
    TailscopeError,
    ReturnKind,
    ReturnSeries,
    RMode,
    RollingStatistic,
    TooFewPointsError,
    TooShortError,
    Verdict,
    WindowTooLargeError,
    apen,
    classify_shape,
    fitted_slope,
    max_to_sum,
    mean_excess,
    mean_excess_at,
    resample,
    rolling,
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
    "ApenParams.resolve_r": (ApenParams().resolve_r, 4, TooShortError, False),
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


DAYS = PriceSeries("x", Frequency.DAILY, [dt.date(2020, 1, 1), dt.date(2020, 1, 2)], [1.0, 2.0])

# name: (a call with a parameter of the wrong type or an unknown choice, what
# the InvalidParameterError says). Numeric strings such as "0.1" convert, as
# numpy converts them; anything numpy cannot convert is not numeric.
BAD_TYPE = {
    "summarize strings": (lambda: summarize(["a", "b"]), "values must be numeric"),
    "summarize ragged": (lambda: summarize([[1.0, 2.0], [3.0]]), "values must be numeric"),
    "summarize beyond float64": (lambda: summarize([10**400, 1]), "values must be numeric"),
    "rolling strings": (lambda: rolling(["a"] * 10, 5, "std_dev"), "values must be numeric"),
    "apen string": (lambda: apen("abcdef"), "values must be numeric"),
    "mean_excess strings": (lambda: mean_excess(["a"] * 20), "values must be numeric"),
    "mean_excess_at threshold string": (
        lambda: mean_excess_at(VALUES, "x"), "threshold must be numeric"
    ),
    "classify_shape strings": (
        lambda: classify_shape("abcde", np.arange(5.0)), "thresholds must be numeric"
    ),
    "max_to_sum dict": (lambda: max_to_sum({"a": 1}, 2), "values must be numeric"),
    "GeneratorSpec mu": (
        lambda: GeneratorSpec(Family.GAUSSIAN, n=10, seed=1, mu="x"), "mu must be numeric"
    ),
    "ApenParams r_value string": (lambda: ApenParams(r_value="x"), "r_value must be numeric"),
    "ApenParams r_value NaN": (lambda: ApenParams(r_value=np.nan), "r_value must be finite"),
    "ApenParams r_value 1-D": (lambda: ApenParams(r_value=[0.2]), "r_value must be a scalar"),
    "mean_excess trim_fraction None": (
        lambda: mean_excess(VALUES, None), "trim_fraction must be finite"
    ),
    "mean_excess trim_fraction NaN": (
        lambda: mean_excess(VALUES, np.nan), "trim_fraction must be finite"
    ),
    "mean_excess trim_fraction 1-D": (
        lambda: mean_excess(VALUES, np.array([0.1, 0.2])), "trim_fraction must be a scalar"
    ),
    "rolling statistic": (lambda: rolling(VALUES, 5, "foo"), "RollingStatistic must be one of"),
    "ApenParams r_mode": (lambda: ApenParams(r_mode="z"), "RMode must be one of"),
    "resample target": (lambda: resample(DAYS, "foo"), "Frequency must be one of"),
    "PriceSeries frequency": (
        lambda: PriceSeries("x", "foo", DAYS.dates, DAYS.closes), "Frequency must be one of"
    ),
    "GeneratorSpec family": (lambda: GeneratorSpec("q", n=10, seed=1), "Family must be one of"),
    "PriceSeries closes strings": (
        lambda: PriceSeries("x", "daily", DAYS.dates[:1], ["a"]), "closes must be numeric"
    ),
    "ReturnSeries ragged values": (
        lambda: ReturnSeries("x", "daily", "signed", DAYS.dates, [[1.0], [2.0, 3.0]]),
        "values must be numeric",
    ),
    "PriceSeries string dates": (
        lambda: PriceSeries("x", "daily", ["2020-01-01", "2020-01-03"], [1.0, 2.0]),
        "dates must be datetime.date objects, not str",
    ),
    "ReturnSeries datetime dates": (
        lambda: ReturnSeries("x", "daily", "signed", [dt.datetime(2020, 1, 1, 12)], [0.5]),
        "dates must be datetime.date objects, not datetime",
    ),
    "ApenParams.resolve_r string": (
        lambda: ApenParams().resolve_r("abc"), "values must be numeric"
    ),
}


@pytest.mark.parametrize("name", BAD_TYPE)
def test_type_rule(name):
    call, message = BAD_TYPE[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidParameterError, match=message):
            call()


def test_numeric_strings_convert():
    assert mean_excess(VALUES, "0.1").trimmed == mean_excess(VALUES, 0.1).trimmed
    assert ApenParams(r_value="0.5").r_value == 0.5


@pytest.mark.parametrize(
    "enum",
    [RMode, RollingStatistic, Frequency, ReturnKind, MefShape, Verdict, Family],
    ids=lambda enum: enum.__name__,
)
def test_unknown_choice_names_the_choices(enum):
    with pytest.raises(InvalidParameterError) as raised:
        enum("no such choice")
    assert all(member.value in str(raised.value) for member in enum)
    assert all(enum(member.value) is member for member in enum)


_RNG = np.random.default_rng(1000)
_NORMAL, _UNIFORM = _RNG.normal(size=60), _RNG.uniform(1.0, 2.0, 60)

# name: an input at an extreme of float64. Functions that need values >= 0
# take their absolute values.
EXTREME_INPUTS = {
    "normal * 2**1000": np.ldexp(_NORMAL, 1000),
    "normal * 2**-1000": np.ldexp(_NORMAL, -1000),
    "uniform(1, 2) * 2**1000": np.ldexp(_UNIFORM, 1000),
    "uniform(1, 2) * 2**-1000": np.ldexp(_UNIFORM, -1000),
    "+-1.7e308 alternating": np.resize([1.7e308, -1.7e308], 60),
    "up to 1.7e308": np.linspace(1e307, 1.7e308, 60),
    "subnormals": _RNG.integers(1, 2**20, 60) * 5e-324,
    "1e300 dynamic range": _RNG.choice([-1.0, 1.0], 60) * 10.0 ** _RNG.uniform(-150, 150, 60),
    "1e200 then 1e-150": np.concatenate(
        (1e200 * _RNG.normal(size=30), 1e-150 * _RNG.normal(size=30))
    ),
}


def _curve_points(v):
    a = np.unique(v)
    return a, np.abs(a[::-1])


# name: a public call on an extreme input, and its result as an array of
# the floats it holds, which must be finite (rolling CV may be NaN).
EXTREME_CALLS = {
    "summarize": lambda v: [x for x in vars(summarize(v)).values() if x is not None],
    "rolling std_dev": lambda v: rolling(v, 20, "std_dev").values,
    "rolling coeff_variation": lambda v: rolling(v, 20, "coeff_variation").values,
    "rolling apen": lambda v: rolling(v, 20, "apen").values,
    "apen relative": lambda v: apen(v),
    "apen absolute r=1": lambda v: apen(v, ApenParams(r_mode="absolute", r_value=1.0)),
    "ApenParams.resolve_r": lambda v: ApenParams().resolve_r(v),
    "mean_excess": lambda v: mean_excess(np.abs(v)).mean_excess,
    "mean_excess_at": lambda v: mean_excess_at(v, float(np.sort(v)[v.size // 2])),
    "classify_shape": lambda v: [classify_shape(*_curve_points(v)) is not None],
    "fitted_slope": lambda v: fitted_slope(mean_excess(np.abs(v))),
    "max_to_sum p=4": lambda v: max_to_sum(np.abs(v), 4).ratios,
}


@pytest.mark.parametrize("values", EXTREME_INPUTS)
@pytest.mark.parametrize("call", EXTREME_CALLS)
def test_extreme_inputs_give_a_finite_answer_or_a_tailscope_error(call, values):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            got = np.asarray(EXTREME_CALLS[call](EXTREME_INPUTS[values].copy()), dtype=np.float64)
        except TailscopeError:
            return
    if call == "rolling coeff_variation":
        got = got[~np.isnan(got)]
    assert np.isfinite(got).all()


@pytest.mark.parametrize("values", EXTREME_INPUTS)
def test_rolling_sd_is_each_windows_summarize_to_the_bit(values):
    v = EXTREME_INPUTS[values]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = rolling(v.copy(), 20, "std_dev").values
        want = np.array([summarize(v[i : i + 20]).std_dev for i in range(v.size - 19)])
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


# The statistic of one window alone, as rolling writes it: None is NaN.
WINDOW_STATISTIC = {
    "coeff_variation": lambda w: np.nan if (cv := summarize(w).coeff_variation) is None else cv,
    "apen": apen,
}


@pytest.mark.parametrize("values", EXTREME_INPUTS)
@pytest.mark.parametrize("statistic", WINDOW_STATISTIC)
def test_rolling_cv_and_apen_are_each_windows_own_to_the_bit(statistic, values):
    v = EXTREME_INPUTS[values]
    one = WINDOW_STATISTIC[statistic]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = rolling(v.copy(), 20, statistic).values
        want = np.array([one(v[i : i + 20]) for i in range(v.size - 19)])
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
