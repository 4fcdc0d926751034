"""Classical distance, Fisher-information, and speed tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qspeed import classical
from qspeed.classical import ParametricDist
from qspeed.errors import DegenerateInputError, InvalidInputError
from qspeed.seeding import generator


def trig_dist(theta):
    """p = (cos^2, sin^2) with derivative (-sin 2t, sin 2t)."""
    return ParametricDist(
        [np.cos(theta) ** 2, np.sin(theta) ** 2],
        [-np.sin(2 * theta), np.sin(2 * theta)],
    )


def random_prob(rng, n):
    p = rng.random(n) + 1e-3
    return p / p.sum()


def random_pdist(rng, n):
    p = random_prob(rng, n)
    dp = rng.normal(size=n)
    dp -= dp.mean()
    return ParametricDist(p, dp)


# -- distances --------------------------------------------------------


def test_dist_alpha_identical():
    p = [0.3, 0.7]
    for alpha in (1.0, 1.5, 2.0, 3.0):
        assert classical.dist_alpha(p, p, alpha) == 0.0


@pytest.mark.parametrize("alpha", [1.0, 1.5, 2.0, 4.0])
def test_dist_alpha_maximal(alpha):
    assert classical.dist_alpha([1, 0], [0, 1], alpha) == pytest.approx(1.0)


def test_dist_alpha_half():
    assert classical.dist_alpha([1, 0], [0.5, 0.5], 1.0) == pytest.approx(0.5)


def test_dist_alpha_rejects_bad_input():
    with pytest.raises(InvalidInputError):
        classical.dist_alpha([1, 0], [0.5, 0.5], 0.9)
    with pytest.raises(InvalidInputError):
        classical.dist_alpha([1, 0], [0.5, 0.25, 0.25], 1.0)


def test_dist_schatten_examples():
    assert classical.dist_schatten_alpha([0.4, 0.6], [0.4, 0.6], 2.0) == 0.0
    assert classical.dist_schatten_alpha([1, 0], [0, 1], 2.0) == pytest.approx(1.0)


@pytest.mark.parametrize("seed", range(6))
def test_dist_schatten_at_alpha_inf_is_max_difference(seed):
    # (1/2 sum |p - q|^alpha)^(1/alpha) tends to max |p - q|, which is also
    # the Schatten distance of the diagonal states diag(p) and diag(q)
    from qspeed import quantum

    rng = generator(203, seed)
    p, q = random_prob(rng, 4), random_prob(rng, 4)
    sd = classical.dist_schatten_alpha(p, q, np.inf)
    assert sd == np.max(np.abs(p - q))
    assert sd == pytest.approx(
        quantum.schatten_distance(np.diag(p), np.diag(q), np.inf), abs=1e-15)
    assert sd == pytest.approx(classical.dist_schatten_alpha(p, q, 400.0),
                               rel=1e-2)
    assert classical.dist_schatten_alpha([1, 0], [0.5, 0.5], np.inf) == 0.5


@pytest.mark.parametrize("seed", range(10))
def test_dist_families_coincide_at_alpha_one(seed):
    rng = generator(200, seed)
    p = random_prob(rng, 4)
    q = random_prob(rng, 4)
    assert classical.dist_alpha(p, q, 1.0) == pytest.approx(
        classical.dist_schatten_alpha(p, q, 1.0), abs=1e-14)


@pytest.mark.parametrize("seed", range(12))
def test_metric_axioms(seed):
    rng = generator(201, seed)
    n = 3 + seed % 3
    p, q, r = (random_prob(rng, n) for _ in range(3))
    for dist in (classical.dist_alpha, classical.dist_schatten_alpha):
        for alpha in (1.0, 1.7, 2.0, 3.0):
            dpq = dist(p, q, alpha)
            assert dpq == pytest.approx(dist(q, p, alpha), abs=1e-14)
            assert dist(p, p, alpha) <= 1e-12
            assert dpq <= dist(p, r, alpha) + dist(r, q, alpha) + 1e-12
            assert -1e-12 <= dpq <= 1.0 + 1e-12


@pytest.mark.parametrize("seed", range(12))
def test_distance_ordering_in_alpha(seed):
    # d_alpha^alpha <= d_beta^beta for alpha >= beta
    rng = generator(202, seed)
    p = random_prob(rng, 4)
    q = random_prob(rng, 4)
    alphas = [1.0, 1.5, 2.0, 3.0, 5.0]
    vals = [classical.dist_alpha(p, q, a) ** a for a in alphas]
    for lo, hi in zip(vals[1:], vals[:-1]):
        assert lo <= hi + 1e-12


# -- generalized Fisher information -----------------------------------


def test_gen_fisher_trig_family():
    d = trig_dist(np.pi / 6)
    assert classical.gen_fisher(d, 2.0) == pytest.approx(4.0, abs=1e-12)
    assert classical.gen_fisher(d, 1.0) == pytest.approx(np.sqrt(3.0), abs=1e-12)


@pytest.mark.parametrize("theta", [0.1, 0.4, 1.0, 1.4])
def test_gen_fisher_trig_family_is_four_everywhere(theta):
    assert classical.gen_fisher(trig_dist(theta), 2.0) == pytest.approx(
        4.0, abs=1e-10)


def test_gen_fisher_stationary():
    d = ParametricDist([0.5, 0.5], [0.0, 0.0])
    for alpha in (1.0, 2.0, 3.0):
        assert classical.gen_fisher(d, alpha) == 0.0


def test_gen_fisher_moving_support():
    # mass leaving a zero-probability outcome: divergent for alpha > 1,
    # finite contribution |p'| for alpha = 1
    d = ParametricDist([1.0, 0.0], [-0.5, 0.5])
    assert classical.gen_fisher(d, 2.0) == np.inf
    assert classical.gen_fisher(d, 1.0) == pytest.approx(1.0)


def test_schatten_fisher_values():
    d = trig_dist(np.pi / 4)
    assert classical.schatten_fisher(d, 1.0) == pytest.approx(2.0)
    assert classical.schatten_fisher(d, 2.0) == pytest.approx(np.sqrt(2.0))
    zero = ParametricDist([0.5, 0.5], [0.0, 0.0])
    assert classical.schatten_fisher(zero, 3.0) == 0.0


@pytest.mark.parametrize("seed", range(12))
def test_fisher_root_ordering(seed):
    # f_beta^(1/beta) >= f_alpha^(1/alpha) for beta >= alpha
    rng = generator(203, seed)
    d = random_pdist(rng, 5)
    alphas = [1.0, 1.5, 2.0, 3.0, 6.0]
    roots = [classical.gen_fisher(d, a) ** (1.0 / a) for a in alphas]
    for lo, hi in zip(roots[:-1], roots[1:]):
        assert hi >= lo - 1e-10 * max(1.0, lo)


@pytest.mark.parametrize("seed", range(10))
def test_fisher_convexity_under_mixing(seed):
    rng = generator(204, seed)
    a = random_pdist(rng, 4)
    b = random_pdist(rng, 4)
    lam = rng.random()
    mix = classical.mixture_dist([a, b], [lam, 1 - lam])
    for alpha in (1.0, 2.0, 3.0):
        bound = lam * classical.gen_fisher(a, alpha) \
            + (1 - lam) * classical.gen_fisher(b, alpha)
        assert classical.gen_fisher(mix, alpha) <= bound + 1e-10


def test_mixture_needs_one_weight_per_distribution_over_one_outcome_set():
    # zip truncated the weights, so [d1, d2] with [1.0] returned d1, and
    # distributions of different lengths raised numpy's broadcast error
    rng = generator(206)
    a, b, c = random_pdist(rng, 3), random_pdist(rng, 3), random_pdist(rng, 4)
    with pytest.raises(InvalidInputError,
                       match="1 mixture weights for 2 distributions"):
        classical.mixture_dist([a, b], [1.0])
    with pytest.raises(InvalidInputError,
                       match="distributions have different lengths 3 and 4"):
        classical.mixture_dist([a, c], [0.5, 0.5])


@pytest.mark.parametrize("seed", range(10))
def test_fisher_subadditivity_on_products(seed):
    rng = generator(205, seed)
    a = random_pdist(rng, 3)
    b = random_pdist(rng, 4)
    joint = classical.product_dist(a, b)
    for alpha in (1.0, 1.5, 3.0):
        root = classical.gen_fisher(joint, alpha) ** (1.0 / alpha)
        parts = classical.gen_fisher(a, alpha) ** (1.0 / alpha) \
            + classical.gen_fisher(b, alpha) ** (1.0 / alpha)
        assert root <= parts + 1e-10
    # the standard Fisher information is exactly additive
    f2 = classical.gen_fisher(joint, 2.0)
    assert f2 == pytest.approx(
        classical.gen_fisher(a, 2.0) + classical.gen_fisher(b, 2.0),
        rel=1e-10)


# -- speeds -----------------------------------------------------------


def test_classical_speed_power():
    d = trig_dist(np.pi / 6)  # f_2 = 4
    assert classical.classical_speed(d, 2.0, "power") == pytest.approx(
        np.sqrt(2.0) / 2.0)


def test_classical_speed_zero_derivative():
    d = ParametricDist([0.5, 0.5], [0.0, 0.0])
    assert classical.classical_speed(d, 2.0, "power") == 0.0
    assert classical.classical_speed(d, 2.0, "schatten") == 0.0


def test_classical_speed_families_coincide_at_alpha_one():
    d = trig_dist(0.7)
    s_power = classical.classical_speed(d, 1.0, "power")
    s_schatten = classical.classical_speed(d, 1.0, "schatten")
    assert s_power == pytest.approx(s_schatten, abs=1e-14)
    assert s_power == pytest.approx(classical.gen_fisher(d, 1.0) / 2.0)


def test_classical_speed_rejects_unknown_family():
    with pytest.raises(InvalidInputError):
        classical.classical_speed(trig_dist(0.3), 2.0, "other")


@pytest.mark.parametrize("theta", [0.3, 0.7, 1.1])
def test_speed_matches_distance_derivative(theta):
    # central finite difference of the distance reproduces the speed
    for alpha, family, dist in (
            (2.0, "power", classical.dist_alpha),
            (1.0, "schatten", classical.dist_schatten_alpha),
            (3.0, "schatten", classical.dist_schatten_alpha)):
        speed = classical.classical_speed(trig_dist(theta), alpha, family)
        prev = None
        for h in (1e-3, 1e-4):
            fd = dist(trig_dist(theta + h).weights,
                      trig_dist(theta - h).weights, alpha) / (2 * h)
            err = abs(fd - speed)
            assert err <= 50 * h * max(1.0, speed)
            if prev is not None:
                assert err <= prev + 1e-12  # refining h improves the match
            prev = err


# -- large alpha: power sums below the float range --------------------

SKEW = ParametricDist([0.6, 0.4], [0.1, -0.1])


def _log_domain_dist_alpha(p, q, alpha):
    """d_alpha by an independent route: p^(1/a) - q^(1/a) as
    q^(1/a) expm1(ln(p/q)/a), which does not cancel, and the mean taken
    on logarithms."""
    logs = [alpha * math.log(abs(qi ** (1 / alpha)
                                 * math.expm1(math.log(pi / qi) / alpha)))
            for pi, qi in zip(p, q)]
    top = max(logs)
    mean = 0.5 * sum(math.exp(v - top) for v in logs)
    return math.exp((top + math.log(mean)) / alpha)


@pytest.mark.parametrize("alpha", [50.0, 200.0, 1000.0])
def test_dist_alpha_does_not_underflow(alpha):
    p, q = [0.6, 0.4], [0.5, 0.5]
    want = _log_domain_dist_alpha(p, q, alpha)
    assert classical.dist_alpha(p, q, alpha) == pytest.approx(want, rel=1e-9)


@pytest.mark.parametrize("alpha, want", [
    (1e12, 2.2314355131387552e-13), (1e17, 2.2314355131420975e-18)])
def test_dist_alpha_does_not_cancel_at_huge_alpha(alpha, want):
    # want from mpmath at 50 digits; p^(1/alpha) - q^(1/alpha) kept three
    # digits at 1e12 and none at 1e17, where both roots round to 1
    got = classical.dist_alpha([0.6, 0.4], [0.5, 0.5], alpha)
    assert got == pytest.approx(want, rel=1e-10, abs=0)


def test_power_sums_keep_their_value_at_large_alpha():
    assert classical.dist_schatten_alpha([0.6, 0.4], [0.5, 0.5], 1000) == \
        pytest.approx(0.1, rel=1e-12)
    assert classical.schatten_fisher(SKEW, 400) == \
        pytest.approx(0.1 * 2 ** (1 / 400), rel=1e-12)
    assert classical.classical_speed(SKEW, 500, "schatten") == \
        pytest.approx(0.1, rel=1e-12)
    # (f_alpha / 2)^(1/alpha) = (0.6 (1/6)^a + 0.4 (1/4)^a)^(1/a) / 2^(1/a),
    # taken of the sum: f_1000 itself rounds to 0
    assert classical.gen_fisher(SKEW, 1000) == 0.0
    want = 0.25 * (0.2 + 0.3 * (2 / 3) ** 1000) ** (1 / 1000) / 1000
    assert classical.classical_speed(SKEW, 1000, "power") == \
        pytest.approx(want, rel=1e-12)


def test_barankin_bound_near_beta_one_is_finite():
    # alpha = 1001: 1/f_alpha^(1/alpha) = 4 (0.4 + 0.6 (2/3)^alpha)^(-1/alpha)
    beta = 1.001
    alpha = beta / (beta - 1.0)
    want = 4.0 * (0.4 + 0.6 * (2 / 3) ** alpha) ** (-1 / alpha)
    assert classical.barankin_bound(SKEW, beta) == pytest.approx(want,
                                                                 rel=1e-12)


_weights = st.lists(st.floats(0.0, 1.0), min_size=2, max_size=6)


@given(alpha=st.floats(1.0, 1e300), a=_weights, b=_weights,
       tilt=st.sampled_from([1.0, 1e-3, 1e-9]))
@settings(max_examples=200)
def test_dist_schatten_alpha_between_max_and_root_n_times_max(
        alpha, a, b, tilt):
    n = min(len(a), len(b))
    a, b = np.asarray(a[:n]) + 1e-3, np.asarray(b[:n]) + 1e-3
    p = a / a.sum()
    q = (1 - tilt) * p + tilt * b / b.sum()  # tilt sets the size of p - q
    p, q = classical.as_prob(p), classical.as_prob(q / q.sum())
    top = float(np.max(np.abs(p - q)))
    sd = classical.dist_schatten_alpha(p, q, alpha)
    slack = 1e-12 * top
    assert 2 ** (-1 / alpha) * top - slack <= sd
    assert sd <= (n / 2) ** (1 / alpha) * top + slack
    assert abs(classical.dist_schatten_alpha(p, q, 1e300) - top) <= \
        1e-12 * top


# -- estimation-side bounds -------------------------------------------


def test_moment_lower_bound_trig():
    # two-outcome observable m = (1, -1) saturates the alpha = 2 bound:
    # the bound equals f_2^(1/2) = 2 for this family
    theta = np.pi / 6
    d = trig_dist(theta)
    g = float(np.sum(d.weights * np.array([1.0, -1.0])))
    bound = classical.moment_lower_bound(d, [1.0, -1.0], 2.0, g)
    assert bound == pytest.approx(2.0, abs=1e-12)
    assert bound <= classical.gen_fisher(d, 2.0) ** 0.5 + 1e-12


@pytest.mark.parametrize("seed", range(8))
def test_moment_lower_bound_never_exceeds_fisher_root(seed):
    rng = generator(206, seed)
    d = random_pdist(rng, 5)
    m = rng.normal(size=5)
    g = float(np.sum(d.weights * m))
    for alpha in (1.5, 2.0, 3.0):
        bound = classical.moment_lower_bound(d, m, alpha, g)
        root = classical.gen_fisher(d, alpha) ** (1.0 / alpha)
        assert bound <= root + 1e-9 * max(1.0, root)


def test_moment_lower_bound_zero_derivative():
    d = ParametricDist([0.5, 0.5], [0.0, 0.0])
    assert classical.moment_lower_bound(d, [1.0, -1.0], 2.0, 0.0) == 0.0


def test_moment_lower_bound_degenerate():
    d = trig_dist(0.5)
    with pytest.raises(DegenerateInputError):
        classical.moment_lower_bound(d, [1.0, 1.0], 2.0, 1.0)


def gaussian_grid_dist(sigma=1.0, span=5.5, step=0.01):
    # span stops where the cell weights still clear the probability floor;
    # the truncated tail mass is far below the assertion tolerance
    x = np.arange(-span, span + step, step)
    pdf = np.exp(-x * x / (2 * sigma * sigma)) / (sigma * np.sqrt(2 * np.pi))
    w = pdf * step
    dw = (x / sigma ** 2) * pdf * step  # -d pdf(x - theta)/d theta at theta=0
    w = w / w.sum()
    dw = dw - dw.mean()
    return ParametricDist(w, dw)


def test_barankin_bound_gaussian():
    d = gaussian_grid_dist()
    # f_2 of the discretized unit Gaussian is 1/sigma^2 = 1
    assert classical.gen_fisher(d, 2.0) == pytest.approx(1.0, abs=2e-3)
    assert classical.barankin_bound(d, 2.0) == pytest.approx(1.0, abs=2e-3)


def test_barankin_bound_edge_cases():
    flat = ParametricDist([0.5, 0.5], [0.0, 0.0])
    assert classical.barankin_bound(flat, 2.0) == np.inf
    moving = ParametricDist([1.0, 0.0], [-0.5, 0.5])
    assert classical.barankin_bound(moving, 2.0) == 0.0
    with pytest.raises(InvalidInputError):
        classical.barankin_bound(flat, 1.0)


# -- speed from sampled snapshots -------------------------------------


def test_speed_from_samples_trig():
    theta0 = np.pi / 4
    grid = [theta0 + k * 0.01 for k in range(4)]
    snaps = [(t, trig_dist(t).weights) for t in grid]
    slope, residual = classical.speed_from_samples(snaps, 1.0, "schatten")
    # ss_1 at pi/4 is sin(pi/2) = 1
    assert slope == pytest.approx(1.0, abs=1e-3)
    assert residual <= 1e-3


def test_speed_from_samples_constant():
    snaps = [(0.1 * k, [0.5, 0.5]) for k in range(4)]
    slope, residual = classical.speed_from_samples(snaps, 1.0)
    assert slope == 0.0
    assert residual == 0.0


def test_speed_from_samples_preconditions():
    snaps = [(0.0, [1, 0]), (0.1, [0.99, 0.01])]
    with pytest.raises(InvalidInputError):
        classical.speed_from_samples(snaps, 1.0)
    bad_grid = [(0.0, [1, 0]), (0.2, [0.99, 0.01]), (0.1, [0.98, 0.02])]
    with pytest.raises(InvalidInputError):
        classical.speed_from_samples(bad_grid, 1.0)


def test_speed_from_samples_is_lower_bound_on_concave_curve():
    # at theta = pi/4 the distance curve bends downward, so the
    # through-origin fit sits at or below the instantaneous speed
    theta0 = np.pi / 4
    grid = [theta0 + k * 0.02 for k in range(6)]
    snaps = [(t, trig_dist(t).weights) for t in grid]
    slope, _ = classical.speed_from_samples(snaps, 2.0, "schatten")
    true = classical.classical_speed(trig_dist(theta0), 2.0, "schatten")
    assert slope <= true + 1e-9
    assert slope == pytest.approx(true, abs=0.01)
