"""Seeded synthetic samples from closed-form quantile transforms.

These generators serve as analytic oracles for the diagnostics: their mean
excess shapes and moment behavior are known exactly.

Stream contract, stable across versions: uniforms are the float64 stream of
numpy's PCG64 bit generator seeded with the spec's integer seed, i.e.
``np.random.Generator(np.random.PCG64(seed)).random(n)``. Draws landing on
exactly 0.0 are redrawn from the same stream, so u lies in (0, 1). With
e = -ln(1 - u), samples are:

    gaussian(mu, sigma)    mu + sigma * ndtri(u)
    lognormal(mu, sigma)   exp(mu + sigma * ndtri(u))
    exponential(lam)       e / lam
    gpd(xi, beta)          beta * e                      if xi == 0
                           (beta / xi) * ((1-u)^(-xi) - 1)  otherwise,
                           computed as (beta / xi) * expm1(xi * e)
    pareto(alpha, x_min)   x_min * (1 - u)^(-1/alpha) = x_min * exp(e / alpha)

ndtri is the standard normal quantile (scipy.special.ndtri). Every family
consumes the same uniforms, so gpd(xi=0, beta=1) reproduces
exponential(lam=1) bit for bit under the same seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, _as_finite_array, _as_int, _Choice, _freeze


class Family(_Choice):
    GAUSSIAN = "gaussian"
    EXPONENTIAL = "exponential"
    GPD = "gpd"
    LOGNORMAL = "lognormal"
    PARETO = "pareto"


@dataclass(frozen=True)
class GeneratorSpec:
    """Distribution family, size, seed, and family parameters.

    Only the parameters of the chosen family are consulted: mu/sigma for
    gaussian and lognormal, lam for exponential, xi/beta for gpd, and
    alpha/x_min for pareto. Identical specs produce bit-identical samples.
    """

    family: Family
    n: int
    seed: int
    mu: float = 0.0
    sigma: float = 1.0
    lam: float = 1.0
    xi: float = 0.0
    beta: float = 1.0
    alpha: float = 1.0
    x_min: float = 1.0

    def __post_init__(self):
        _freeze(self, family=Family)
        object.__setattr__(self, "n", _as_int(self.n, "n must be an integer >= 1", low=1))
        seed = _as_int(self.seed, "seed must be a non-negative integer", low=0)
        object.__setattr__(self, "seed", seed)
        for name in ("mu", "sigma", "lam", "xi", "beta", "alpha", "x_min"):
            value = float(_as_finite_array(getattr(self, name), name=name, ndim=0))
            object.__setattr__(self, name, value)
        positive = {
            Family.GAUSSIAN: ("sigma",),
            Family.LOGNORMAL: ("sigma",),
            Family.EXPONENTIAL: ("lam",),
            Family.GPD: ("beta",),
            Family.PARETO: ("alpha", "x_min"),
        }[self.family]
        for name in positive:
            if getattr(self, name) <= 0.0:
                raise InvalidParameterError(f"{name} must be > 0 for {self.family.value}")


def generate(spec: GeneratorSpec) -> np.ndarray:
    """Draw ``spec.n`` independent samples; see the module docstring for the
    exact stream and quantile formulas. Parameters under which a draw would
    exceed float64 raise InvalidParameterError, and no warning."""
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    u = rng.random(spec.n)
    while (zero := u == 0.0).any():
        u[zero] = rng.random(int(zero.sum()))
    if spec.family in (Family.GAUSSIAN, Family.LOGNORMAL):
        from scipy.special import ndtri  # deferred: scipy costs more to import than numpy

        t = ndtri(u)
    else:
        t = -np.log1p(-u)
    # Each draw and each step to it grow with t, so a draw overflows only if one at an end
    # of t does; those two are drawn first in Python floats, which overflow without a warning.
    exp, expm1 = _bounded(math.exp), _bounded(math.expm1)
    if not all(math.isfinite(_draw(spec, float(end), exp, expm1)) for end in (t.min(), t.max())):
        raise InvalidParameterError(f"{spec.family.value} draws exceed the float64 range")
    return _draw(spec, t, np.exp, np.expm1)


def _bounded(fn):
    """``fn`` on one float: inf where its argument is not finite or its result is."""
    return lambda x: fn(x) if -math.inf < x <= math.log(np.finfo(np.float64).max) else math.inf


def _draw(spec: GeneratorSpec, t, exp, expm1):
    """The draws at ``t`` (ndtri(u) or e) by the module's formulas."""
    if spec.family in (Family.GAUSSIAN, Family.LOGNORMAL):
        z = spec.mu + spec.sigma * t
        return z if spec.family is Family.GAUSSIAN else exp(z)
    if spec.family is Family.EXPONENTIAL:
        return t / spec.lam
    if spec.family is Family.GPD:
        if spec.xi == 0.0:
            return spec.beta * t
        return (spec.beta / spec.xi) * expm1(spec.xi * t)
    return spec.x_min * exp(t / spec.alpha)
