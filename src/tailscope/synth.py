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

ndtri is the standard normal quantile, computed by a numpy port of Cephes'
ndtri (the routine scipy.special.ndtri wraps) that takes libm's log; on
x86-64 it is bit-identical to scipy's. Every family consumes the same
uniforms, so gpd(xi=0, beta=1) reproduces exponential(lam=1) bit for bit
under the same seed. numpy is the module's only dependency.
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
    t = _ndtri(u) if spec.family in (Family.GAUSSIAN, Family.LOGNORMAL) else -np.log1p(-u)
    with np.errstate(over="ignore", invalid="ignore"):
        draws = _draw(spec, t)
    if not np.isfinite(draws).all():
        raise InvalidParameterError(f"{spec.family.value} draws exceed the float64 range")
    return draws


def _draw(spec: GeneratorSpec, t: np.ndarray) -> np.ndarray:
    """The draws at ``t`` (ndtri(u) or e) by the module's formulas."""
    if spec.family in (Family.GAUSSIAN, Family.LOGNORMAL):
        z = spec.mu + spec.sigma * t
        return z if spec.family is Family.GAUSSIAN else np.exp(z)
    if spec.family is Family.EXPONENTIAL:
        return t / spec.lam
    if spec.family is Family.GPD:
        if spec.xi == 0.0:
            return spec.beta * t
        return (spec.beta / spec.xi) * np.expm1(spec.xi * t)
    return spec.x_min * np.exp(t / spec.alpha)


_NDTRI_CHUNK = 65_536  # uniforms per pass of _ndtri
# Cephes ndtri.c (S. L. Moshier): the rational approximations scipy.special.ndtri
# evaluates, in Cephes' order. Each Q's implicit leading 1.0 is written out.
_EXP_M2 = 0.13533528323661269189  # e**-2
_SQRT_2PI = 2.50662827463100050242
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
       1.39312609387279679503e1, -1.23916583867381258016e0)
_Q0 = (1.0, 1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
       -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
       4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_Q1 = (1.0, 1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
       1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
       1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
       3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_Q2 = (1.0, 6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
       2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
       2.89247864745380683936e-6, 6.79019408009981274425e-9)


def _horner(x: np.ndarray, coefs: tuple) -> np.ndarray:
    """Cephes' polevl: the polynomial in x with ``coefs``, highest power first,
    in place; ``v *= x`` is x * v, and each step rounds twice, as Cephes' does."""
    v = x * coefs[0]
    v += coefs[1]
    for c in coefs[2:]:
        v *= x
        v += c
    return v


def _log(a: np.ndarray) -> np.ndarray:
    """libm's log of each value, which Cephes calls; np.log may differ in the last bit."""
    return np.fromiter(map(math.log, a.tolist()), np.float64, a.size)


def _ndtri(u: np.ndarray) -> np.ndarray:
    """The standard normal quantile of each u in (0, 1), bit for bit as Cephes'
    ndtri computes it in IEEE double arithmetic with libm's log.

    The values are taken _NDTRI_CHUNK at a time, so that the temporaries,
    and the Python float lists that ``_log`` hands to math.log, stay small
    whatever the input's size."""
    out = np.empty_like(u)
    for start in range(0, u.size, _NDTRI_CHUNK):
        out[start : start + _NDTRI_CHUNK] = _ndtri_chunk(u[start : start + _NDTRI_CHUNK])
    return out


def _ndtri_chunk(u: np.ndarray) -> np.ndarray:
    """``_ndtri`` of one chunk; each tail value takes only the rational
    approximation of its own range (P1/Q1 below x = 8, P2/Q2 from it on)."""
    upper = u > 1.0 - _EXP_M2
    y = np.where(upper, 1.0 - u, u)
    out = np.empty_like(y)
    central = y > _EXP_M2
    c = y[central] - 0.5
    c2 = c * c
    out[central] = (c + c * (c2 * _horner(c2, _P0) / _horner(c2, _Q0))) * _SQRT_2PI
    tail = ~central
    x = np.sqrt(-2.0 * _log(y[tail]))
    near = x < 8.0
    correction = np.empty_like(x)
    for part, p, q in ((near, _P1, _Q1), (~near, _P2, _Q2)):
        z = 1.0 / x[part]
        correction[part] = z * _horner(z, p) / _horner(z, q)
    x = (x - _log(x) / x) - correction
    out[tail] = np.where(upper[tail], x, -x)
    return out
