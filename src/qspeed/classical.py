"""Classical statistical distances, generalized Fisher information, and speeds.

Distributions are plain probability vectors.  A parametrized distribution
carries its pointwise derivative d p_x / dtheta, from which the
generalized Fisher information

    f_alpha = sum_x p_x |p'_x / p_x|^alpha

and the Schatten-type quantity

    sf_alpha = (sum_x |p'_x|^alpha)^(1/alpha)

are computed, together with the associated statistical speeds and the
classical lower bounds on estimation uncertainty.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, InvalidInputError
from .matcore import (P_FLOOR, power_mean, power_sum, require_alpha,
                      require_finite_alpha)

SUM_TOL = 1e-9
NEG_CLIP = 1e-12


# One function per invariant of a distribution, as in matcore: it returns
# the violation's size, or 0.0 when the invariant holds.


def negativity_violation(p: np.ndarray) -> float:
    """-min_x p_x when it exceeds NEG_CLIP."""
    low = float(np.min(p))
    return -low if low < -NEG_CLIP else 0.0


def sum_violation(x: np.ndarray, target: float) -> float:
    """|sum_x x_x - target| when it exceeds SUM_TOL."""
    dev = abs(float(np.sum(x)) - target)
    return dev if dev > SUM_TOL else 0.0


def as_prob(weights, name: str = "weights") -> np.ndarray:
    """Validate a probability vector: sums to 1, entries >= -1e-12 (clipped)."""
    p = np.asarray(weights, dtype=float).ravel()
    if p.size == 0:
        raise InvalidInputError(f"{name} is empty")
    if not np.all(np.isfinite(p)):
        raise InvalidInputError(f"{name} has non-finite entries")
    neg = negativity_violation(p)
    if neg:
        raise InvalidInputError(f"{name} has negative entry {-neg:.3e}")
    if sum_violation(p, 1.0):
        raise InvalidInputError(
            f"{name} sums to {float(np.sum(p)):.12g}, expected 1"
        )
    return np.clip(p, 0.0, None)


@dataclass(frozen=True)
class ParametricDist:
    """A probability vector together with its derivative in the parameter.

    The derivative must conserve normalization: sum_x p'_x = 0.
    """

    weights: np.ndarray
    derivative: np.ndarray

    def __post_init__(self):
        p = as_prob(self.weights)
        dp = np.asarray(self.derivative, dtype=float).ravel()
        if dp.shape != p.shape:
            raise InvalidInputError(
                f"derivative length {dp.size} does not match weights length {p.size}"
            )
        if not np.all(np.isfinite(dp)):
            raise InvalidInputError("derivative has non-finite entries")
        if sum_violation(dp, 0.0):
            raise InvalidInputError(
                f"derivative sums to {np.sum(dp):.3e}, normalization not conserved"
            )
        object.__setattr__(self, "weights", p)
        object.__setattr__(self, "derivative", dp)

    def __len__(self) -> int:
        return self.weights.size


def _check_pair(p: np.ndarray, q: np.ndarray):
    if p.shape != q.shape:
        raise InvalidInputError(
            f"distributions have different lengths {p.size} and {q.size}"
        )


# Above this order p^(1/alpha) - q^(1/alpha) cancels.  Against mpmath on
# 101 random pairs at n <= 8, its worst relative error grows as eps*alpha:
# 8.4e-14 at alpha = 100, 2.1e-12 at 1e3 (the 12th printed digit), 1.7e-3
# at 1e12.  q^(1/alpha) expm1(ln(p/q)/alpha) stays under 2e-15 throughout.
_CANCEL_ALPHA = 100.0


def dist_alpha(p, q, alpha: float) -> float:
    """d_alpha(p,q) = (1/2 sum_x |p_x^(1/alpha) - q_x^(1/alpha)|^alpha)^(1/alpha).

    Hellinger distance at alpha=2, Kolmogorov distance at alpha=1.  Above
    alpha = 100 each difference with p_x, q_x > 0 is taken as
    q_x^(1/alpha) expm1((ln p_x - ln q_x)/alpha), which does not cancel.
    """
    require_finite_alpha(alpha, "d_alpha")
    p = as_prob(p, "p")
    q = as_prob(q, "q")
    _check_pair(p, q)
    root_q = q ** (1.0 / alpha)
    x = p ** (1.0 / alpha) - root_q
    if alpha > _CANCEL_ALPHA:
        on = (p > 0) & (q > 0)
        x[on] = root_q[on] * np.expm1((np.log(p[on]) - np.log(q[on])) / alpha)
    return power_mean(x, alpha, 0.5)


def dist_schatten_alpha(p, q, alpha: float) -> float:
    """sd_alpha(p,q) = (1/2 sum_x |p_x - q_x|^alpha)^(1/alpha), and
    max_x |p_x - q_x| at alpha = inf."""
    require_alpha(alpha)
    p = as_prob(p, "p")
    q = as_prob(q, "q")
    _check_pair(p, q)
    return power_mean(p - q, alpha, 0.5)


def _fisher_terms(d: ParametricDist, alpha: float):
    """(x, w) with f_alpha = sum_x w |x|^alpha, or None where it diverges.

    Outcomes with p_x <= p_floor and |p'_x| <= p_floor contribute nothing.
    An outcome with p_x <= p_floor but |p'_x| > p_floor means the support
    itself moves with the parameter: f_alpha diverges for alpha > 1, while
    for alpha = 1 the outcome contributes |p'_x| (x = p'_x, w = 1).
    """
    require_finite_alpha(alpha, "f_alpha")
    p = d.weights
    dp = d.derivative
    live = p > P_FLOOR
    dead_moving = ~live & (np.abs(dp) > P_FLOOR)
    if alpha == 1:
        return dp[live | dead_moving], 1.0
    if np.any(dead_moving):
        return None
    pl = p[live]
    return dp[live] / pl, pl


def _fisher_root(d: ParametricDist, alpha: float, scale: float = 1.0) -> float:
    """(scale f_alpha)^(1/alpha), taken of the sum, not of the rounded f_alpha
    (which underflows at large alpha); +inf where f_alpha diverges."""
    terms = _fisher_terms(d, alpha)
    if terms is None:
        return float("inf")
    return power_mean(terms[0], alpha, scale * terms[1])


def gen_fisher(d: ParametricDist, alpha: float) -> float:
    """Generalized Fisher information f_alpha = sum_x p_x |p'_x/p_x|^alpha;
    +inf, rather than an error, where the support moves (_fisher_terms)."""
    terms = _fisher_terms(d, alpha)
    if terms is None:
        return float("inf")
    return float(power_sum(terms[0], alpha, terms[1]))


def schatten_fisher(d: ParametricDist, alpha: float) -> float:
    """sf_alpha = (sum_x |p'_x|^alpha)^(1/alpha).  Coincides with f_1 at alpha=1."""
    require_alpha(alpha)
    return power_mean(d.derivative, alpha)


def classical_speed(d: ParametricDist, alpha: float, family: str = "power") -> float:
    """Statistical speed of a parametrized distribution.

    family "power":    s_alpha = (1/alpha) (f_alpha / 2)^(1/alpha),
                       which reduces to sqrt(f_2 / 8) at alpha = 2;
    family "schatten": ss_alpha = 2^(-1/alpha) sf_alpha.
    """
    require_alpha(alpha)
    if family == "power":
        return _fisher_root(d, alpha, 0.5) / alpha
    if family == "schatten":
        return float(2.0 ** (-1.0 / alpha) * schatten_fisher(d, alpha))
    raise InvalidInputError(f"unknown speed family {family!r}")


def moment_lower_bound(d: ParametricDist, outcomes, alpha: float, g: float) -> float:
    """Moment-based lower bound on f_alpha^(1/alpha).

    For an observable M with outcome values m_x and any reference value g,

        f_alpha^(1/alpha) >= |d<M>/dtheta| / (sum_x p_x |m_x - g|^beta)^(1/beta)

    with the conjugate exponent beta = alpha/(alpha-1).  f_alpha is not
    defined at alpha = inf, so neither is the bound.
    """
    require_finite_alpha(alpha, "f_alpha")
    if alpha == 1:
        raise InvalidInputError(f"moment bound requires alpha > 1, got {alpha}")
    m = np.asarray(outcomes, dtype=float).ravel()
    if m.shape != d.weights.shape:
        raise InvalidInputError("outcome vector length does not match distribution")
    if not np.all(np.isfinite(m)):
        raise InvalidInputError("outcome values must be finite")
    beta = alpha / (alpha - 1.0)
    numer = abs(float(np.sum(d.derivative * m)))
    denom = power_mean(m - g, beta, d.weights)
    if denom <= P_FLOOR:
        raise DegenerateInputError(
            "moment bound undefined: all probability mass sits at m_x = g"
        )
    return numer / denom


def barankin_bound(d: ParametricDist, beta: float) -> float:
    """Lower bound 1/f_alpha^(1/alpha) on the beta-th absolute central moment
    of any unbiased estimator, with alpha = beta/(beta-1).  beta = 2 is the
    Cramer-Rao bound 1/sqrt(f_2)."""
    if not (beta > 1):
        raise InvalidInputError(f"barankin bound requires beta > 1, got {beta}")
    root = _fisher_root(d, beta / (beta - 1.0))
    return 1.0 / root if root else float("inf")


FIT_WINDOW = 0.2  # stay inside the linear regime of the distance expansion


def speed_from_samples(snapshots, alpha: float, family: str = "schatten"):
    """Estimate a statistical speed from sampled distributions.

    snapshots is a list of (theta_i, weights) pairs on a monotone theta
    grid; the first entry is the reference point.  Distances from the
    reference are fitted as distance = speed * (theta_i - theta_0) by
    least squares through the origin, restricted to the window of points
    with distance below 0.2.  Returns (slope, rms residual).  Sampling
    noise makes the estimate a lower bound on the underlying speed.
    """
    require_alpha(alpha)
    if family not in ("power", "schatten"):
        raise InvalidInputError(f"unknown speed family {family!r}")
    if len(snapshots) < 3:
        raise InvalidInputError(f"need at least 3 snapshots, got {len(snapshots)}")
    thetas = np.asarray([float(t) for t, _ in snapshots])
    steps = np.diff(thetas)
    if not (np.all(steps > 0) or np.all(steps < 0)):
        raise InvalidInputError("theta grid must be strictly monotone")
    dist = dist_alpha if family == "power" else dist_schatten_alpha
    p0 = as_prob(snapshots[0][1], "reference snapshot")
    ts, ds = [], []
    for t, w in snapshots[1:]:
        dv = dist(w, p0, alpha)
        if dv >= FIT_WINDOW:
            break
        ts.append(abs(t - thetas[0]))
        ds.append(dv)
    if not ts:
        raise InvalidInputError("no snapshots inside the linear fit window")
    ts = np.asarray(ts)
    ds = np.asarray(ds)
    slope = float(np.sum(ts * ds) / np.sum(ts * ts))
    residual = float(np.sqrt(np.mean((ds - slope * ts) ** 2)))
    return slope, residual


def product_dist(a: ParametricDist, b: ParametricDist) -> ParametricDist:
    """Joint distribution of two independent parametrized distributions.

    p_{xy} = p_x q_y with derivative p'_x q_y + p_x q'_y (same parameter).
    """
    w = np.outer(a.weights, b.weights).ravel()
    dw = (np.outer(a.derivative, b.weights)
          + np.outer(a.weights, b.derivative)).ravel()
    return ParametricDist(w, dw)


def mixture_dist(dists, weights) -> ParametricDist:
    """Convex mixture of parametrized distributions over the same outcomes."""
    weights = np.asarray(weights, dtype=float)
    if sum_violation(weights, 1.0) or np.min(weights) < 0:
        raise InvalidInputError("mixture weights must be a probability vector")
    if weights.shape != (len(dists),):
        raise InvalidInputError(
            f"{weights.size} mixture weights for {len(dists)} distributions")
    for d in dists[1:]:
        _check_pair(dists[0].weights, d.weights)
    w = sum(q * d.weights for q, d in zip(weights, dists))
    dw = sum(q * d.derivative for q, d in zip(weights, dists))
    return ParametricDist(w, dw)
