import warnings

import numpy as np
import pytest
import scipy.stats

from tailscope.errors import InvalidParameterError
from tailscope.synth import Family, GeneratorSpec, generate


class TestDeterminism:
    def test_identical_specs_bit_identical(self):
        spec = GeneratorSpec(Family.LOGNORMAL, n=10_000, seed=99, mu=0.3, sigma=1.2)
        np.testing.assert_array_equal(generate(spec), generate(spec))

    def test_different_seeds_differ(self):
        a = generate(GeneratorSpec(Family.EXPONENTIAL, n=100, seed=1))
        b = generate(GeneratorSpec(Family.EXPONENTIAL, n=100, seed=2))
        assert not np.array_equal(a, b)


class TestAnalyticMoments:
    def test_exponential_mean(self):
        values = generate(GeneratorSpec(Family.EXPONENTIAL, n=1_000_000, seed=7, lam=1.0))
        assert 0.99 <= values.mean() <= 1.01

    def test_pareto_mean(self):
        # analytic mean alpha * x_min / (alpha - 1) = 3
        values = generate(GeneratorSpec(Family.PARETO, n=1_000_000, seed=7, alpha=1.5, x_min=1.0))
        assert 2.85 <= values.mean() <= 3.15


class TestFamilyRelations:
    def test_gpd_zero_shape_equals_exponential(self):
        gpd = generate(GeneratorSpec(Family.GPD, n=50_000, seed=321, xi=0.0, beta=1.0))
        exponential = generate(GeneratorSpec(Family.EXPONENTIAL, n=50_000, seed=321, lam=1.0))
        np.testing.assert_array_equal(gpd, exponential)

    def test_gpd_negative_shape_is_bounded(self):
        values = generate(GeneratorSpec(Family.GPD, n=100_000, seed=5, xi=-0.5, beta=1.0))
        assert (values >= 0.0).all()
        assert values.max() <= 1.0 / 0.5  # beta / |xi|

    def test_tail_families_nonnegative(self):
        for family, kwargs in [
            (Family.EXPONENTIAL, dict(lam=2.0)),
            (Family.GPD, dict(xi=0.3, beta=2.0)),
            (Family.LOGNORMAL, dict(mu=-1.0, sigma=0.8)),
            (Family.PARETO, dict(alpha=2.0, x_min=0.5)),
        ]:
            values = generate(GeneratorSpec(family, n=10_000, seed=13, **kwargs))
            assert (values >= 0.0).all()


class TestDistributionShape:
    KS_CASES = [
        (Family.GAUSSIAN, dict(mu=1.0, sigma=2.0), scipy.stats.norm(loc=1.0, scale=2.0)),
        (Family.EXPONENTIAL, dict(lam=2.0), scipy.stats.expon(scale=0.5)),
        (Family.GPD, dict(xi=0.5, beta=1.0), scipy.stats.genpareto(c=0.5, scale=1.0)),
        (Family.LOGNORMAL, dict(mu=0.0, sigma=1.0), scipy.stats.lognorm(s=1.0, scale=1.0)),
        (Family.PARETO, dict(alpha=1.5, x_min=1.0), scipy.stats.pareto(b=1.5, scale=1.0)),
    ]

    @pytest.mark.parametrize("family,kwargs,dist", KS_CASES, ids=[c[0].value for c in KS_CASES])
    def test_kolmogorov_smirnov_below_one_percent(self, family, kwargs, dist):
        values = generate(GeneratorSpec(family, n=100_000, seed=2718, **kwargs))
        statistic = scipy.stats.kstest(values, dist.cdf).statistic
        assert statistic < 0.01


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(family=Family.GAUSSIAN, n=10, seed=1, sigma=0.0),
            dict(family=Family.LOGNORMAL, n=10, seed=1, sigma=-1.0),
            dict(family=Family.EXPONENTIAL, n=10, seed=1, lam=0.0),
            dict(family=Family.GPD, n=10, seed=1, beta=0.0),
            dict(family=Family.PARETO, n=10, seed=1, alpha=0.0),
            dict(family=Family.PARETO, n=10, seed=1, x_min=0.0),
            dict(family=Family.GAUSSIAN, n=0, seed=1),
            dict(family=Family.GAUSSIAN, n=10, seed=-1),
            dict(family=Family.GPD, n=10, seed=1, xi=float("inf")),
        ],
    )
    def test_invalid_parameters(self, kwargs):
        with pytest.raises(InvalidParameterError):
            GeneratorSpec(**kwargs)


OVERFLOWING_SPECS = [
    dict(family=Family.PARETO, alpha=0.001),
    dict(family=Family.GAUSSIAN, mu=1e308, sigma=1e308),
    dict(family=Family.EXPONENTIAL, lam=1e-308),
    dict(family=Family.LOGNORMAL, sigma=400.0),
]


@pytest.mark.parametrize("kwargs", OVERFLOWING_SPECS, ids=lambda kw: kw["family"].value)
def test_draws_beyond_float64_raise_without_warning(kwargs):
    spec = GeneratorSpec(n=50, seed=0, **kwargs)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidParameterError, match="exceed the float64 range"):
            generate(spec)
