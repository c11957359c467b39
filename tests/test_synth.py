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


def test_gpd_shape_whose_product_overflows_draws_within_its_bound():
    """xi * e overflows to -inf for xi = -1e308, yet every draw is finite and
    lies in [0, beta / |xi|]; only the draws themselves decide an overflow."""
    spec = GeneratorSpec(Family.GPD, n=1_000, seed=3, xi=-1e308, beta=1e300)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = generate(spec)
    assert ((values >= 0.0) & (values <= 1e300 / 1e308)).all()


def test_ndtri_port_is_bit_identical_to_scipy():
    """The Cephes port against scipy.special.ndtri, compared as int64 bit
    patterns so that a -0.0 or a last-bit difference counts."""
    from scipy.special import ndtri

    from tailscope.synth import _EXP_M2, _ndtri

    rng = np.random.default_rng(20260901)
    log_uniform = 10.0 ** rng.uniform(-320.0, 0.0, 200_000)
    complements = 1.0 - 10.0 ** rng.uniform(-16.0, 0.0, 10_000)
    k = np.arange(1.0, 2_001.0)
    edges = [0.5, np.nextafter(1.0, 0.0)]
    for edge in (5e-324, _EXP_M2, 1.0 - _EXP_M2, np.exp(-32.0)):
        edges += [np.nextafter(edge, 0.0), edge, np.nextafter(edge, 1.0)]
    u = np.concatenate([
        rng.random(1_000_000), log_uniform, complements, k * 2.0**-53, 1.0 - k * 2.0**-53, edges,
    ])
    u = u[(u > 0.0) & (u < 1.0)]
    mismatched = u[_ndtri(u).view(np.int64) != ndtri(u).view(np.int64)]
    assert mismatched.tolist() == []
    # Each of Cephes' three approximations is exercised: the central one and both tails.
    y = np.minimum(u, 1.0 - u)
    tail_x = np.sqrt(-2.0 * np.log(y[y <= _EXP_M2]))
    assert (y > _EXP_M2).any() and (tail_x < 7.9).any() and (tail_x > 8.1).any()
