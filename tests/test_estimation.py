"""Monte Carlo estimation checks: discrimination games, median-unbiased
dispersion against 1/f_1, and empirical Cramér-Rao verdicts."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qspeed import estimation, oracle, quantum
from qspeed.classical import gen_fisher
from qspeed.errors import InvalidInputError
from qspeed.estimation import (ContinuousModel, cauchy_location,
                               cramer_rao_check, discrimination_game,
                               discrimination_povm,
                               discrimination_probability, gaussian_location,
                               laplace_location, median_check,
                               median_dispersion_vs_bound,
                               quantum_median_bound, quantum_median_chain)
from qspeed.quantum import POVM, ParametricFamily

from conftest import MEDIAN_BOUNDS, PLUS_RHO, SZ, Z0, plus_family

MODELS = {
    "gaussian": gaussian_location,
    "cauchy": cauchy_location,
    "laplace": laplace_location,
}

# -- continuous models ------------------------------------------------


@pytest.mark.parametrize("name", sorted(MODELS))
def test_model_analytic_fisher_values(name):
    model = MODELS[name](1.0)
    assert model.f1(0.3) == pytest.approx(MEDIAN_BOUNDS[name] ** -1, rel=1e-12)
    f2 = {"gaussian": 1.0, "cauchy": 0.5, "laplace": 1.0}[name]
    assert model.f2(0.3) == pytest.approx(f2, rel=1e-12)


@pytest.mark.parametrize("name", sorted(MODELS))
def test_model_quadrature_matches_analytic(name):
    # the integrals ran in units of 1, so a gaussian of width 1e-8
    # integrated to 0 and one of width 1e8 to -8e-9, with IntegrationWarnings;
    # at 1e100 the x-unit formulas gave f_2 = 0 (and cauchy f_1 = 0), and at
    # 1e-100 they overflowed
    for scale in (1e-100, 1e-8, 1e-4, 1.0, 1e4, 1e8, 1e100):
        base = MODELS[name](scale)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            blind = ContinuousModel(pdf=base.pdf, sampler=base.sampler,
                                    dpdf=base.dpdf, name=name + "-quad")
            assert blind.f1(0.0) == pytest.approx(base.f1(0.0), rel=1e-6)
            assert blind.f2(0.0) == pytest.approx(base.f2(0.0), rel=1e-6)


@settings(max_examples=60)
@given(st.sampled_from(sorted(MODELS)), st.integers(-153, 153))
def test_median_dispersion_scales_with_the_model(name, exponent):
    # every quadrature of a model runs in the density's own width and the
    # kernel density in a power of two of the replicas, so a scale of
    # 10^exponent only rescales the check
    scale = 10.0 ** exponent
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        model = MODELS[name](scale)
        got = median_dispersion_vs_bound(model, 0.0, 5, 100, seed=7)
    unit = median_dispersion_vs_bound(MODELS[name](1.0), 0.0, 5, 100, seed=7)
    for field in ("dispersion", "bound", "stderr"):
        assert getattr(got, field) / scale == pytest.approx(
            getattr(unit, field), rel=1e-12)
    assert got.satisfied == unit.satisfied


def test_model_finite_difference_derivative_fallback():
    base = gaussian_location(1.0)
    blind = ContinuousModel(pdf=base.pdf, sampler=base.sampler)
    assert blind.f2(0.0) == pytest.approx(1.0, rel=1e-4)


@pytest.mark.parametrize("name", sorted(MODELS))
def test_model_finite_difference_step_follows_the_width(name):
    # the central-difference step was 1e-5 whatever the scale: gaussian at
    # 1e-6 reported f_2 = 1.3e53 (true 1e12), and at 1e3 and 1e6 the
    # quadrature did not reach its tolerance
    for scale in (1e-100, 1e-6, 1.0, 1e3, 1e6, 1e100):
        base = MODELS[name](scale)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            blind = ContinuousModel(pdf=base.pdf, sampler=base.sampler,
                                    name=name + "-fd")
            assert blind.f1(0.0) == pytest.approx(base.f1(0.0), rel=1e-9)
            assert blind.f2(0.0) == pytest.approx(base.f2(0.0), rel=1e-9)


def test_model_rejects_unnormalized_density():
    base = gaussian_location(1.0)
    with pytest.raises(InvalidInputError):
        ContinuousModel(pdf=lambda x, theta: 2.0 * base.pdf(x, theta),
                        sampler=base.sampler)


def test_model_factories_reject_bad_scale():
    for factory in (gaussian_location, cauchy_location, laplace_location):
        with pytest.raises(InvalidInputError):
            factory(0.0)
        with pytest.raises(InvalidInputError):
            factory(-1.0)


@pytest.mark.parametrize("scale", [1e-320, 1e-160, 1e160, 1e300, math.nan])
def test_model_factories_reject_a_scale_whose_square_is_not_normal(scale):
    # the densities divide by the square; reject it before any numpy step
    for factory in (gaussian_location, cauchy_location, laplace_location):
        with pytest.raises(InvalidInputError, match="normal float square"):
            factory(scale)


def test_model_scale_dependence():
    assert gaussian_location(2.0).f2(0.0) == pytest.approx(0.25)
    assert cauchy_location(2.0).f1(0.0) == pytest.approx(1.0 / math.pi)
    assert laplace_location(0.5).f1(0.0) == pytest.approx(2.0)


@pytest.mark.parametrize("name", sorted(MODELS))
def test_model_sampler_is_centered(name):
    from qspeed.seeding import generator
    model = MODELS[name](1.0)
    samples = model.sample(0.7, 20001, generator(500))
    # the median is the location parameter for all three families
    assert float(np.median(samples)) == pytest.approx(0.7, abs=0.05)


# -- state discrimination ---------------------------------------------


def test_discrimination_probability_values():
    assert discrimination_probability(Z0, PLUS_RHO) == pytest.approx(
        0.5 * (1.0 + 1.0 / math.sqrt(2.0)))
    assert discrimination_probability(Z0, Z0) == pytest.approx(0.5)
    assert discrimination_probability(Z0, np.diag([0.0, 1.0])) == \
        pytest.approx(1.0)


def test_discrimination_povm_is_complete_and_optimal():
    povm = discrimination_povm(Z0, PLUS_RHO)
    assert len(povm.elements) == 2
    total = sum(povm.elements)
    assert np.allclose(total, np.eye(2), atol=1e-12)
    # Born-rule success of ML guessing equals the Helstrom rate
    p = quantum.induced_dist(Z0, povm)
    q = quantum.induced_dist(PLUS_RHO, povm)
    success = 0.5 * sum(max(pi, qi) for pi, qi in zip(p, q))
    assert success == pytest.approx(discrimination_probability(Z0, PLUS_RHO),
                                    abs=1e-12)


def test_discrimination_game_matches_theory():
    povm = discrimination_povm(Z0, PLUS_RHO)
    trials = 200000
    rate = discrimination_game(Z0, PLUS_RHO, povm, trials, seed=1)
    target = discrimination_probability(Z0, PLUS_RHO)
    sigma = math.sqrt(target * (1.0 - target) / trials)
    assert abs(rate - target) <= 3.0 * sigma


def test_discrimination_game_suboptimal_measurement():
    z_basis = POVM([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    trials = 200000
    rate = discrimination_game(Z0, PLUS_RHO, z_basis, trials, seed=2)
    sigma = math.sqrt(0.25 / trials)
    # z-basis ML guessing succeeds with rate 3/4, below the Helstrom rate
    assert rate == pytest.approx(0.75, abs=3.0 * sigma)
    assert rate < discrimination_probability(Z0, PLUS_RHO)


def test_discrimination_game_deterministic():
    povm = discrimination_povm(Z0, PLUS_RHO)
    a = discrimination_game(Z0, PLUS_RHO, povm, 5000, seed=7)
    b = discrimination_game(Z0, PLUS_RHO, povm, 5000, seed=7)
    assert a == b
    c = discrimination_game(Z0, PLUS_RHO, povm, 5000, seed=8)
    assert a != c


def test_discrimination_game_rejects_bad_trials():
    povm = discrimination_povm(Z0, PLUS_RHO)
    with pytest.raises(InvalidInputError):
        discrimination_game(Z0, PLUS_RHO, povm, 0)


# -- median balance ---------------------------------------------------


def test_median_check_sample_median_is_balanced():
    report = median_check(gaussian_location(1.0), np.median, 0.4,
                          trials=400, m=11, seed=3)
    assert report.balanced
    assert report.fraction == pytest.approx(0.5, abs=3.0 * report.stderr)
    assert report.trials == 400 and report.m == 11


def test_median_check_flags_shifted_estimator():
    report = median_check(gaussian_location(1.0),
                          lambda row: np.median(row) + 0.5, 0.0,
                          trials=400, m=31, seed=4)
    assert not report.balanced
    assert report.fraction < 0.2


def test_median_check_validation():
    model = gaussian_location(1.0)
    with pytest.raises(InvalidInputError):
        median_check(model, np.median, 0.0, trials=99, m=11)
    with pytest.raises(InvalidInputError):
        median_check(model, np.median, 0.0, trials=100, m=0)


# -- median dispersion vs 1/f_1 ---------------------------------------


@pytest.mark.parametrize("name", sorted(MODELS))
def test_median_dispersion_near_bound(name):
    # the sample median saturates 1/f_1 asymptotically for symmetric
    # unimodal location families, so the dispersion lands on the bound
    model = MODELS[name](1.0)
    res = median_dispersion_vs_bound(model, 0.0, m=101, trials=4000,
                                     seed=10 + len(name))
    assert res.bound == pytest.approx(MEDIAN_BOUNDS[name], rel=1e-12)
    assert res.dispersion == pytest.approx(MEDIAN_BOUNDS[name], rel=0.08)
    assert res.satisfied


def test_median_dispersion_deterministic():
    model = cauchy_location(1.0)
    a = median_dispersion_vs_bound(model, 0.0, m=21, trials=300, seed=11)
    b = median_dispersion_vs_bound(model, 0.0, m=21, trials=300, seed=11)
    assert a == b


def test_median_dispersion_shifted_theta():
    res = median_dispersion_vs_bound(laplace_location(1.0), 2.5, m=51,
                                     trials=2000, seed=12)
    assert res.satisfied
    assert res.dispersion == pytest.approx(1.0, rel=0.12)


def test_median_dispersion_validation():
    model = gaussian_location(1.0)
    with pytest.raises(InvalidInputError):
        median_dispersion_vs_bound(model, 0.0, m=11, trials=99)
    with pytest.raises(InvalidInputError):
        median_dispersion_vs_bound(model, 0.0, m=0, trials=100)


def test_estimation_result_json_shape():
    res = median_dispersion_vs_bound(gaussian_location(1.0), 0.0, m=21,
                                     trials=300, seed=13)
    js = res.to_json()
    assert set(js) == {"dispersion", "bound", "stderr", "m", "trials",
                       "satisfied"}
    assert js["m"] == 21 and js["trials"] == 300


# -- quantum floor ----------------------------------------------------


def test_quantum_median_bound_values():
    assert quantum_median_bound(plus_family(), 0.0) == pytest.approx(1.0,
                                                                     abs=1e-12)
    frozen = ParametricFamily.unitary(SZ / 2, np.array([1.0, 0.0]))
    assert quantum_median_bound(frozen, 0.0) == math.inf


def test_quantum_median_chain_attains_floor():
    bound, povm, induced = quantum_median_chain(plus_family(), 0.0)
    assert bound == pytest.approx(1.0, abs=1e-12)
    total = sum(povm.elements)
    assert np.allclose(total, np.eye(2), atol=1e-9)
    # the optimal measurement loses nothing: 1/f_1 equals 1/F_1
    assert gen_fisher(induced, 1.0) == pytest.approx(1.0 / bound, abs=1e-9)


@pytest.mark.parametrize("index", range(8))
def test_no_measurement_beats_quantum_floor(index):
    fam = plus_family()
    floor = quantum_median_bound(fam, 0.0)
    povm = oracle.random_instances("povm", 2, 600, count=8)[index]
    induced = quantum.induced_parametric(fam, 0.0, povm)
    f1 = gen_fisher(induced, 1.0)
    if f1 <= 0.0:
        return  # an uninformative measurement has an infinite bound
    assert 1.0 / f1 >= floor - 1e-9


# -- Cramér-Rao -------------------------------------------------------


def test_cramer_rao_gaussian_mean_saturates():
    report = cramer_rao_check(gaussian_location(1.0), 0.0, np.mean,
                              m=25, trials=600, seed=20)
    assert not report.biased
    assert report.convergent
    assert report.satisfied is True
    assert report.quantum_bound is None
    assert report.bound == pytest.approx(1.0 / 25.0, rel=1e-12)
    assert report.variance == pytest.approx(report.bound, rel=0.25)


def test_cramer_rao_cauchy_median_above_bound():
    report = cramer_rao_check(cauchy_location(1.0), 0.0, np.median,
                              m=41, trials=600, seed=21)
    assert report.satisfied is True
    # median variance approaches (pi/2)^2 / m, above the bound 2/m
    assert report.variance > report.bound


def test_cramer_rao_flags_bias():
    report = cramer_rao_check(gaussian_location(1.0), 0.0,
                              lambda row: np.mean(row) + 0.5,
                              m=25, trials=400, seed=22)
    assert report.biased
    assert report.satisfied is None


def test_cramer_rao_family_branch():
    fam = plus_family()
    povm = quantum.optimal_povm(fam, 0.0, target="qfi")
    induced = quantum.induced_parametric(fam, 0.0, povm)
    f2 = gen_fisher(induced, 2.0)
    p = np.asarray(induced.weights, dtype=float)
    dp = np.asarray(induced.derivative, dtype=float)
    score = dp / np.maximum(p, 1e-300) / f2

    report = cramer_rao_check(fam, 0.0, lambda row: np.mean(score[row]),
                              m=40, trials=600, seed=23)
    assert report.quantum_bound is not None
    # the Fisher-optimal measurement makes both floors coincide
    assert report.quantum_bound == pytest.approx(report.bound, abs=1e-10)
    assert not report.biased
    assert report.satisfied is True
    assert report.variance == pytest.approx(report.bound, rel=0.3)


def test_cramer_rao_validation():
    model = gaussian_location(1.0)
    with pytest.raises(InvalidInputError):
        cramer_rao_check(model, 0.0, np.mean, m=10, trials=99)
    with pytest.raises(InvalidInputError):
        cramer_rao_check(model, 0.0, np.mean, m=0, trials=100)


def test_cramer_rao_report_json_shape():
    report = cramer_rao_check(gaussian_location(1.0), 0.0, np.mean,
                              m=10, trials=200, seed=24)
    js = report.to_json()
    assert set(js) == {"variance", "bound", "quantum_bound", "stderr",
                       "biased", "convergent", "satisfied"}
