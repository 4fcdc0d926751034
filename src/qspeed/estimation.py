"""Monte Carlo verification of the estimation-theoretic bounds.

State discrimination, Cramér-Rao checks, and median-unbiased dispersion
bounds, driven by counter-based randomness: each routine consumes one
Philox stream in which every trial owns a fixed block of counters, so
chunked and serial evaluation agree bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from . import matcore, quantum
from .classical import gen_fisher
from .errors import InvalidInputError, NumericalConsistencyError
from .seeding import generator

_NORM_TOL = 1e-6
_QUAD_RTOL = 1e-10
_SQRT_2PI = math.sqrt(2.0 * math.pi)


# -- continuous models ------------------------------------------------


@dataclass(frozen=True)
class ContinuousModel:
    """Parametric density p(x | theta) with a sampler and Fisher data.

    ``pdf(x, theta)`` evaluates the density elementwise, ``sampler(theta,
    shape, rng)`` draws samples, and ``dpdf(x, theta)`` is the derivative
    in theta when available (otherwise a central difference with a step of
    1e-5 times the width 1 / p(theta | theta) is used).
    ``f1_analytic`` / ``f2_analytic`` short-circuit the quadrature in
    :meth:`f1` / :meth:`f2`.  The density is checked to integrate to one
    at theta = 0 on construction.
    """

    pdf: Callable
    sampler: Callable
    dpdf: Callable | None = None
    f1_analytic: Callable | None = None
    f2_analytic: Callable | None = None
    name: str = "model"

    def __post_init__(self):
        total = self._integral(lambda x: self.pdf(x, 0.0), 0.0)
        if abs(total - 1.0) > _NORM_TOL:
            raise InvalidInputError(
                f"density of {self.name!r} integrates to {total:.8g}, not 1"
            )

    def _width(self, theta: float) -> float:
        """w = 1 / p(theta | theta), the density's own width, or 1 where
        that is not a positive finite float."""
        p = float(self.pdf(theta, theta))
        return 1.0 / p if 0 < p < math.inf and 1.0 / p < math.inf else 1.0

    def _integral(self, fn, theta: float) -> float:
        """Integral of fn(x) over the real line, split at theta, where a
        location family may be kinked.  It runs in x = theta + w v, with w
        the width, so no integral depends on the scale."""
        w = self._width(theta)
        return sum(matcore.integrate(
            lambda v: w * fn(theta + w * v), lo, hi, 0.0, _QUAD_RTOL,
            f"the quadrature of {self.name!r}")
            for lo, hi in ((-math.inf, 0.0), (0.0, math.inf)))

    def sample(self, theta: float, shape, rng: np.random.Generator) -> np.ndarray:
        return np.asarray(self.sampler(theta, shape, rng), dtype=float)

    def _dpdf(self, x, theta: float):
        if self.dpdf is not None:
            return self.dpdf(x, theta)
        step = 1e-5 * self._width(theta)
        return (self.pdf(x, theta + step) - self.pdf(x, theta - step)) / (2 * step)

    def f1(self, theta: float) -> float:
        """Integral of |dp/dtheta|, the alpha = 1 Fisher-type information."""
        if self.f1_analytic is not None:
            return float(self.f1_analytic(theta))
        return self._integral(lambda x: np.abs(self._dpdf(x, theta)), theta)

    def f2(self, theta: float) -> float:
        """The Fisher information, integral of (dp/dtheta)^2 / p."""
        if self.f2_analytic is not None:
            return float(self.f2_analytic(theta))

        def integrand(x):
            p = self.pdf(x, theta)
            if p <= 1e-300:
                return 0.0
            d = self._dpdf(x, theta)
            return d / p * d

        return self._integral(integrand, theta)


def _require_scale(value: float, name: str) -> None:
    """Reject a scale whose square is not a positive normal float: the
    densities and Fisher informations divide by it."""
    value = float(value)
    if not (value > 0 and np.finfo(float).tiny <= value * value < math.inf):
        raise InvalidInputError(
            f"{name} must be positive with a normal float square, got {value}"
        )


def _location(g, psi, sampler, f1: float, f2: float, s: float,
              name: str) -> ContinuousModel:
    """Location family p(x | theta) = g(u) / s with u = (x - theta) / s,
    from the standard density g and its score psi(u) = -g'(u) / g(u), so
    that dp/dtheta = (g(u) / s) psi(u) / s.  The formulas see only u,
    which is of order 1 wherever the density is, at any scale."""

    def pdf(x, theta):
        return g((np.asarray(x, dtype=float) - theta) / s) / s

    def dpdf(x, theta):
        u = (np.asarray(x, dtype=float) - theta) / s
        return g(u) / s * psi(u) / s

    return ContinuousModel(pdf=pdf, sampler=sampler, dpdf=dpdf,
                           f1_analytic=lambda theta: f1,
                           f2_analytic=lambda theta: f2, name=name)


def gaussian_location(sigma: float = 1.0) -> ContinuousModel:
    """Normal location family with known scale."""
    _require_scale(sigma, "sigma")
    return _location(
        lambda u: np.exp(-0.5 * u * u) / _SQRT_2PI, lambda u: u,
        lambda theta, shape, rng: theta + sigma * rng.standard_normal(shape),
        math.sqrt(2.0 / math.pi) / sigma, 1.0 / (sigma * sigma), sigma,
        "gaussian")


def cauchy_location(gamma: float = 1.0) -> ContinuousModel:
    """Cauchy location family; heavy tails, no mean."""
    _require_scale(gamma, "gamma")
    return _location(
        lambda u: 1.0 / (math.pi * (1.0 + u * u)),
        lambda u: 2.0 * u / (1.0 + u * u),
        lambda theta, shape, rng: theta + gamma * rng.standard_cauchy(shape),
        2.0 / (math.pi * gamma), 1.0 / (2.0 * gamma * gamma), gamma,
        "cauchy")


def laplace_location(scale: float = 1.0) -> ContinuousModel:
    """Laplace location family; the sample median is its efficient estimator."""
    _require_scale(scale, "scale")
    return _location(
        lambda u: np.exp(-np.abs(u)) / 2.0, np.sign,
        lambda theta, shape, rng: rng.laplace(theta, scale, shape),
        1.0 / scale, 1.0 / (scale * scale), scale, "laplace")


# -- sampling ---------------------------------------------------------


def _require_replicas(trials, m, too_few="at least 100 replicas are needed"):
    """(trials, m) as ints; fewer than 100 trials raises ``too_few``."""
    trials, m = int(trials), int(m)
    if trials < 100:
        raise InvalidInputError(too_few)
    if m < 1:
        raise InvalidInputError("sample size m must be >= 1")
    return trials, m


def _draw(p: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Outcome indices of the distribution p at uniforms u in [0, 1), by
    inverting its cumulative sum."""
    cum = np.cumsum(p)
    return np.minimum(np.searchsorted(cum, u * cum[-1], side="right"),
                      p.size - 1)


# -- state discrimination ---------------------------------------------


def discrimination_probability(rho, sigma) -> float:
    """Best single-shot success rate for equal priors: (1 + D_1(rho, sigma)) / 2."""
    return 0.5 * (1.0 + quantum.trace_distance(rho, sigma))


def discrimination_povm(rho, sigma) -> quantum.POVM:
    """The optimal two-outcome measurement: the positive-part projector of rho - sigma."""
    rho, sigma = matcore.require_states(rho, sigma)
    _, _, e_plus, _ = matcore.jordan_hahn(rho - sigma)
    return quantum.POVM([e_plus, np.eye(rho.shape[0]) - e_plus])


def discrimination_game(rho, sigma, povm: quantum.POVM, trials: int,
                        seed: int = 0) -> float:
    """Empirical success rate of the guessing game under a given measurement.

    Each trial prepares rho or sigma with equal probability, samples an
    outcome, and guesses by maximum likelihood between the two induced
    distributions.  Trial t reads the fixed counter slots (2t, 2t + 1) of
    the seeded stream.
    """
    trials = int(trials)
    if trials < 1:
        raise InvalidInputError("trials must be >= 1")
    p = quantum.induced_dist(rho, povm)
    q = quantum.induced_dist(sigma, povm)
    guess_first = p >= q
    rng = generator(seed)
    u = rng.random((trials, 2))
    prepared_first = u[:, 0] < 0.5
    outcomes = np.where(prepared_first, _draw(p, u[:, 1]), _draw(q, u[:, 1]))
    success = guess_first[outcomes] == prepared_first
    return float(np.mean(success))


# -- median-unbiased estimation ---------------------------------------


@dataclass(frozen=True)
class MedianCheck:
    """Empirical balance of an estimator around the true parameter."""

    fraction: float
    stderr: float
    trials: int
    m: int
    balanced: bool


def median_check(model: ContinuousModel, estimator: Callable, theta: float,
                 trials: int, m: int, seed: int = 0) -> MedianCheck:
    """Fraction of replicas with estimate <= theta, ties counted one half.

    A median-unbiased estimator balances at one half; ``balanced`` is the
    3-sigma binomial verdict.
    """
    trials, m = _require_replicas(
        trials, m, "at least 100 trials are needed for a 3-sigma balance verdict")
    rng = generator(seed)
    samples = model.sample(theta, (trials, m), rng)
    estimates = np.array([float(estimator(samples[t])) for t in range(trials)])
    below = np.count_nonzero(estimates < theta)
    ties = np.count_nonzero(estimates == theta)
    fraction = (below + 0.5 * ties) / trials
    stderr = math.sqrt(0.25 / trials)
    balanced = abs(fraction - 0.5) <= 3.0 * stderr
    return MedianCheck(fraction=float(fraction), stderr=float(stderr),
                       trials=trials, m=m, balanced=balanced)


@dataclass(frozen=True)
class EstimationResult:
    """Dispersion of a median-unbiased estimator against its speed bound."""

    dispersion: float
    bound: float
    stderr: float
    m: int
    trials: int
    satisfied: bool

    def __post_init__(self):
        if not self.stderr > 0:
            raise NumericalConsistencyError("standard error must be positive")
        if self.dispersion < 0:
            raise NumericalConsistencyError("dispersion must be nonnegative")

    def to_json(self) -> dict:
        return asdict(self)


def _kde_at(points: np.ndarray, at: float) -> tuple[float, float]:
    """Gaussian kernel density at one point with its standard error.

    Silverman bandwidth on the replicas; the variance of the estimate is
    g R(K) / (n h) with R(K) = 1 / (2 sqrt(pi)) for the Gaussian kernel.
    """
    n = points.size
    spread = float(np.std(points))
    q75, q25 = np.percentile(points, [75.0, 25.0])
    iqr = float(q75 - q25)
    width = min(spread, iqr / 1.34) if iqr > 0 else spread
    if width <= 0:
        raise NumericalConsistencyError(
            "degenerate replicas: kernel bandwidth collapsed to zero"
        )
    h = 0.9 * width * n ** (-0.2)
    z = (at - points) / h
    g = float(np.mean(np.exp(-0.5 * z * z))) / (h * _SQRT_2PI)
    var_g = g / (2.0 * math.sqrt(math.pi) * n * h)
    return g, math.sqrt(max(var_g, 0.0))


def median_dispersion_vs_bound(model: ContinuousModel, theta: float, m: int,
                               trials: int, seed: int = 0) -> EstimationResult:
    """Monte Carlo dispersion of the sample median against the 1/f_1 bound.

    Replicas of the m-sample median are kernel-density estimated at theta;
    inverting the asymptotic normal peak, g = sqrt(m / (2 pi)) / sigma_1,
    converts the peak density into a per-sample dispersion sigma_1, which
    is compared with the single-sample bound 1/f_1.  ``satisfied`` asserts
    dispersion >= bound - 3 stderr, with the standard error propagated
    from the density estimate.  The replicas and theta are first divided
    by a power of two, which is exact, so no step overflows or underflows
    however wide or narrow the model.
    """
    trials, m = _require_replicas(trials, m)
    f1 = model.f1(theta)
    if not math.isfinite(f1) or f1 < 0:
        raise InvalidInputError(f"f_1 at theta is not finite: {f1}")
    bound = math.inf if f1 == 0.0 else 1.0 / f1
    rng = generator(seed)
    samples = model.sample(theta, (trials, m), rng)
    medians = np.median(samples, axis=1)
    unit = matcore.pow2_scale(medians)
    g, g_err = _kde_at(medians / unit, theta / unit)
    if g <= 0:
        raise NumericalConsistencyError("estimated peak density vanished")
    scale = math.sqrt(m / (2.0 * math.pi))
    dispersion = unit * (scale / g)
    stderr = unit * (scale * g_err / (g * g))
    satisfied = dispersion >= bound - 3.0 * stderr
    return EstimationResult(dispersion=float(dispersion), bound=float(bound),
                            stderr=float(stderr), m=m, trials=trials,
                            satisfied=bool(satisfied))


def quantum_median_bound(fam: quantum.ParametricFamily, theta: float) -> float:
    """Floor on median-unbiased dispersion over all measurements: 1 / F_1."""
    f1 = quantum.trace_speed(fam, theta)
    if f1 <= 0.0:
        return math.inf
    return 1.0 / f1


def quantum_median_chain(fam: quantum.ParametricFamily, theta: float):
    """The full chain behind the quantum median bound.

    Returns (bound, povm, induced distribution): the trace-speed-optimal
    measurement induces a classical model whose 1/f_1 matches 1/F_1, so
    the classical machinery can take over from there.
    """
    bound = quantum_median_bound(fam, theta)
    povm = quantum.optimal_povm(fam, theta, target="trace_speed")
    induced = quantum.induced_parametric(fam, theta, povm)
    return bound, povm, induced


# -- Cramér-Rao -------------------------------------------------------


@dataclass(frozen=True)
class CramerRaoReport:
    """Empirical variance of an estimator against 1 / (m f_2).

    ``satisfied`` is None when nothing is asserted: a detected bias, a
    non-convergent variance, or an infinite bound.
    """

    variance: float
    bound: float
    quantum_bound: float | None
    stderr: float
    biased: bool
    convergent: bool
    satisfied: bool | None

    def to_json(self) -> dict:
        return asdict(self)


def cramer_rao_check(model_or_family, theta: float, estimator: Callable,
                     m: int, trials: int, seed: int = 0) -> CramerRaoReport:
    """Empirical Cramér-Rao check: variance >= 1 / (m f_2) - 3 stderr.

    For a continuous model the estimator maps each m-sample row to a
    number.  For a parametric family, outcomes of the Fisher-optimal
    measurement are sampled instead, the estimator maps outcome-index
    rows to a number, and the quantum bound 1 / (m F_2) is also reported.
    The bias check is empirical; a biased or non-convergent run reports
    ``satisfied`` as None rather than asserting the bound.
    """
    trials, m = _require_replicas(trials, m)
    rng = generator(seed)
    quantum_bound = None
    if isinstance(model_or_family, quantum.ParametricFamily):
        fam = model_or_family
        povm = quantum.optimal_povm(fam, theta, target="qfi")
        induced = quantum.induced_parametric(fam, theta, povm)
        f2 = gen_fisher(induced, 2.0)
        big_f2 = quantum.qfi(fam, theta)
        quantum_bound = math.inf if big_f2 <= 0 else 1.0 / (m * big_f2)
        samples = _draw(induced.weights, rng.random((trials, m)))
    else:
        model = model_or_family
        f2 = model.f2(theta)
        samples = model.sample(theta, (trials, m), rng)
    bound = math.inf if f2 <= 0 else 1.0 / (m * f2)
    estimates = np.array([float(estimator(samples[t])) for t in range(trials)])

    mean = float(np.mean(estimates))
    centered = estimates - mean
    variance = float(np.sum(centered * centered)) / (trials - 1)
    se_mean = math.sqrt(variance / trials)
    biased = abs(mean - theta) > 3.0 * max(se_mean, 1e-300)

    half = estimates[: trials // 2]
    var_half = float(np.var(half, ddof=1))
    convergent = abs(variance - var_half) <= 0.5 * max(variance, 1e-300)

    mu4 = float(np.mean(centered ** 4))
    stderr = math.sqrt(max(mu4 - variance * variance, 0.0) / trials)

    if biased or not convergent or not math.isfinite(bound):
        satisfied = None
    else:
        satisfied = variance >= bound - 3.0 * stderr
    return CramerRaoReport(variance=variance, bound=float(bound),
                           quantum_bound=quantum_bound,
                           stderr=float(stderr), biased=bool(biased),
                           convergent=bool(convergent), satisfied=satisfied)
