"""Linear-algebra kernel tests: eigendecomposition, Schatten norms,
Jordan-Hahn decomposition, superoperator vectorization."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qspeed import matcore
from qspeed.errors import InvalidInputError
from qspeed.seeding import generator

from conftest import SZ, random_hermitian

SX = np.array([[0, 1], [1, 0]], dtype=complex)


def random_matrix(rng, dim):
    return rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))


# -- hermitian_eig ----------------------------------------------------


def test_eig_diagonal():
    w, v = matcore.hermitian_eig(np.diag([3.0, 1.0]))
    assert np.allclose(w, [1.0, 3.0])
    assert np.allclose(np.abs(v), [[0, 1], [1, 0]])


def test_eig_sigma_x():
    w, v = matcore.hermitian_eig(SX)
    assert np.allclose(w, [-1.0, 1.0])
    minus = np.array([1, -1]) / np.sqrt(2)
    plus = np.array([1, 1]) / np.sqrt(2)
    # eigenvectors defined up to phase
    assert abs(abs(np.vdot(v[:, 0], minus)) - 1) < 1e-12
    assert abs(abs(np.vdot(v[:, 1], plus)) - 1) < 1e-12


def test_eig_zero_matrix():
    w, _ = matcore.hermitian_eig(np.zeros((3, 3)))
    assert np.allclose(w, 0.0)


def test_eig_rejects_non_hermitian():
    with pytest.raises(InvalidInputError):
        matcore.hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize("scale", [1e-200, 1.0, 1e200])
def test_require_hermitian_symmetrizes_without_overflow(scale):
    rng = generator(9)
    for dim in (1, 2, 5):
        a = scale * random_hermitian(rng, dim)
        a += 1e-12 * scale * random_matrix(rng, dim)  # within HERM_TOL
        tol = max(1e-9, 1e-11 * scale)
        # halving before adding equals the reference (A + A^dag)/2 exactly
        assert np.array_equal(matcore.require_hermitian(a, tol=tol),
                              (a + a.conj().T) / 2)
    big = matcore.require_hermitian(np.diag([1e308, -1e308]))
    assert np.array_equal(big, np.diag([1e308, -1e308]))


@pytest.mark.parametrize("a", [
    [[0, 1e308], [-1e308, 0]],
    [[0, 1.7e308 + 1.7e308j], [-1.7e308 + 1.7e308j, 0]],
    [[1.7e308j, 0], [0, 0]],
])
def test_hermiticity_defect_overflows_to_inf_silently(a):
    a = np.asarray(a, dtype=complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert matcore.hermiticity_defect(a) == math.inf
        with pytest.raises(InvalidInputError, match=r"max\|A - A\^dag\| = inf"):
            matcore.require_hermitian(a)


def test_hermiticity_defect_matches_the_direct_difference():
    # forming the difference on A/4 and scaling back is exact away from
    # subnormals, so finite defects keep their bits
    rng = generator(10)
    for scale in (1e-300, 1e-3, 1.0, 1e200, 1e307):
        for dim in (1, 2, 5):
            a = scale * random_matrix(rng, dim)
            want = float(np.max(np.abs(a - a.conj().T)))
            assert matcore.hermiticity_defect(a) == want
    near = np.array([[0, 1.7e308 + 1.7e308j], [1.6e308 - 1.7e308j, 0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert matcore.hermiticity_defect(near) == float(
            np.max(np.abs(near - near.conj().T)))


@pytest.mark.parametrize("seed", range(8))
def test_eig_residual_and_orthonormality(seed):
    rng = generator(seed)
    dim = 2 + seed % 5
    a = random_hermitian(rng, dim)
    w, v = matcore.hermitian_eig(a)
    scale = max(float(np.linalg.norm(a, 2)), 1.0)
    assert np.linalg.norm(a @ v - v * w) <= 1e-10 * scale
    assert np.linalg.norm(v.conj().T @ v - np.eye(dim)) <= 1e-10
    assert np.all(np.diff(w) >= 0)


# -- schatten_norm ----------------------------------------------------


def test_schatten_norm_examples():
    assert matcore.schatten_norm(np.eye(2), 1.0) == pytest.approx(2.0)
    assert matcore.schatten_norm(SZ, 2.0) == pytest.approx(np.sqrt(2.0))
    assert matcore.schatten_norm(np.diag([3.0, 4.0]), np.inf) == pytest.approx(4.0)


def test_schatten_norm_rejects_alpha_below_one():
    with pytest.raises(InvalidInputError):
        matcore.schatten_norm(np.eye(2), 0.5)


@pytest.mark.parametrize("seed", range(10))
def test_schatten_norm_monotone_in_alpha(seed):
    rng = generator(100, seed)
    a = random_matrix(rng, 2 + seed % 4)
    alphas = [1.0, 1.3, 2.0, 3.0, 7.0, np.inf]
    norms = [matcore.schatten_norm(a, al) for al in alphas]
    for lo, hi in zip(norms, norms[1:]):
        assert lo >= hi - 1e-12 * max(1.0, lo)


@pytest.mark.parametrize("seed", range(10))
def test_schatten_norm_triangle_and_unitary_invariance(seed):
    rng = generator(101, seed)
    dim = 2 + seed % 4
    a = random_matrix(rng, dim)
    b = random_matrix(rng, dim)
    q, _ = np.linalg.qr(random_matrix(rng, dim))
    for alpha in (1.0, 2.0, 3.5, np.inf):
        na = matcore.schatten_norm(a, alpha)
        assert matcore.schatten_norm(a + b, alpha) <= \
            na + matcore.schatten_norm(b, alpha) + 1e-10
        assert matcore.schatten_norm(q @ a @ q.conj().T, alpha) == \
            pytest.approx(na, rel=1e-10, abs=1e-12)


# -- power_mean -------------------------------------------------------


def _plain_mean(x, alpha, w=1.0):
    """The formula as the callers wrote it before power_mean existed."""
    ax = np.abs(np.asarray(x, dtype=float))
    total = w * np.sum(ax ** alpha) if np.ndim(w) == 0 \
        else np.sum(w * ax ** alpha)
    return float(np.sqrt(total) if alpha == 2 else total ** (1.0 / alpha))


@pytest.mark.parametrize("seed", range(8))
def test_power_mean_keeps_the_plain_formula_bit_for_bit(seed):
    # wherever the plain sum is a normal float, the kernel is the formula
    rng = generator(110, seed)
    x = rng.normal(size=1 + seed) * 10.0 ** rng.integers(-5, 6)
    p = rng.random(x.size)
    for alpha in (1.0, 1.5, 2.0, 3.0, 7.25):
        for w in (1.0, 0.5, p / 2):
            assert matcore.power_mean(x, alpha, w) == _plain_mean(x, alpha, w)
    assert matcore.power_mean(x, math.inf) == float(np.max(np.abs(x)))


@pytest.mark.parametrize("x, alpha, want", [
    ([0.5, -0.1], 1100, 0.5 * (1 + 0.2 ** 1100) ** (1 / 1100)),
    ([0.5, -0.1], 1e308, 0.5),
    ([1e-200, -1e-200], 2, math.sqrt(2.0) * 1e-200),
    ([3e-160, 4e-160], 2, 5e-160),       # subnormal sum
    ([3e200, 4e200], 2, 5e200),           # overflowing sum
    ([0.0, 0.0], 3, 0.0),
    ([], 3, 0.0),
])
def test_power_mean_rescales_a_sum_outside_the_normal_range(x, alpha, want):
    assert matcore.power_mean(x, alpha) == pytest.approx(want, rel=1e-14)


def test_power_mean_is_inf_only_beyond_the_float_range():
    assert matcore.power_mean([1e308, 1e308], 1) == math.inf
    assert matcore.power_mean([1e308, 1e308], 2) == math.sqrt(2.0) * 1e308


@pytest.mark.parametrize("alpha", [1100, 2000, 1e308])
def test_schatten_norm_does_not_underflow_at_large_alpha(alpha):
    got = matcore.schatten_norm(np.diag([0.5, -0.1]), alpha)
    assert got == pytest.approx(0.5, rel=1e-12)


@pytest.mark.parametrize("scale", [1e-10, 1e-200])
def test_schatten_norm_measures_small_non_hermitian_matrices(scale):
    # |A - A^dag| is under the absolute HERM_TOL here, and the norm of the
    # Hermitian part (0 for the diagonal) was returned in place of A's
    a = np.diag([0.0, scale * 1j])
    b = scale * random_matrix(generator(102, 0), 3)
    sv = np.linalg.svd(b, compute_uv=False)
    h = matcore.hermitian_part(b)
    for alpha in (1.0, 2.0, 3.5, math.inf):
        assert matcore.schatten_norm(a, alpha) == \
            pytest.approx(scale, rel=1e-12, abs=0)
        assert matcore.schatten_norm(b, alpha) == \
            pytest.approx(matcore.power_mean(sv, alpha), rel=1e-12, abs=0)
        # an exactly Hermitian input still takes the eigvalsh path
        assert matcore.schatten_norm(h, alpha) == \
            matcore.power_mean(np.linalg.eigvalsh(h), alpha)


_alphas = st.floats(1.0, 1e300)


@given(alpha=_alphas, dim=st.integers(1, 4), hermitian=st.booleans(),
       scale=st.sampled_from([1e-300, 1e-100, 1e-3, 1.0, 1e100, 1e300]),
       entries=st.lists(st.floats(-1.0, 1.0), min_size=32, max_size=32))
@settings(max_examples=200)
def test_schatten_norm_between_max_and_root_d_times_max(
        alpha, dim, hermitian, scale, entries):
    e = np.asarray(entries)
    a = scale * (e[:dim * dim] + 1j * e[16:16 + dim * dim]).reshape(dim, dim)
    if hermitian:
        a = matcore.hermitian_part(a)
    # max sigma as schatten_norm sees it: a matrix within
    # HERM_TOL * min(1, max|A|) of Hermitian is measured by its Hermitian part
    top = matcore.schatten_norm(a, math.inf)
    sf = matcore.schatten_norm(a, alpha)
    slack = 1e-12 * top
    assert top - slack <= sf <= dim ** (1.0 / alpha) * top + slack
    assert abs(matcore.schatten_norm(a, 1e300) - top) <= 1e-12 * top


# -- jordan_hahn ------------------------------------------------------


def test_jordan_hahn_sigma_z():
    x_plus, x_minus, e_plus, e_minus = matcore.jordan_hahn(SZ)
    assert np.allclose(x_plus, np.diag([1.0, 0.0]))
    assert np.allclose(x_minus, np.diag([0.0, -1.0]))
    assert np.allclose(e_plus, np.diag([1.0, 0.0]))
    assert np.allclose(e_minus, np.diag([0.0, 1.0]))


def test_jordan_hahn_psd_input():
    a = np.diag([2.0, 0.5])
    x_plus, x_minus, _, _ = matcore.jordan_hahn(a)
    assert np.allclose(x_plus, a)
    assert np.allclose(x_minus, 0.0)


def test_jordan_hahn_zero():
    x_plus, x_minus, e_plus, e_minus = matcore.jordan_hahn(np.zeros((2, 2)))
    for m in (x_plus, x_minus, e_plus, e_minus):
        assert np.allclose(m, 0.0)


@pytest.mark.parametrize("seed", range(10))
def test_jordan_hahn_reconstruction(seed):
    rng = generator(102, seed)
    a = random_hermitian(rng, 2 + seed % 5)
    x_plus, x_minus, e_plus, e_minus = matcore.jordan_hahn(a)
    scale = max(float(np.linalg.norm(a, 2)), 1.0)
    assert np.linalg.norm(a - (x_plus + x_minus), 2) <= 1e-10 * scale
    absa = x_plus - x_minus
    assert float(np.trace(absa).real) == pytest.approx(
        matcore.schatten_norm(a, 1.0), rel=1e-10, abs=1e-12)
    # projectors are orthogonal idempotents
    assert np.linalg.norm(e_plus @ e_plus - e_plus) <= 1e-10
    assert np.linalg.norm(e_minus @ e_minus - e_minus) <= 1e-10
    assert np.linalg.norm(e_plus @ e_minus) <= 1e-10


# -- superoperators ---------------------------------------------------


def test_commutator_map_identity_commutes():
    rng = generator(103)
    h = random_hermitian(rng, 3)
    op = matcore.Superoperator.from_hamiltonian(h)
    assert np.linalg.norm(op.apply(np.eye(3) / 3)) <= 1e-12


def test_commutator_map_matches_direct_commutator():
    h = SZ / 2
    plus = np.full((2, 2), 0.5, dtype=complex)
    op = matcore.Superoperator.from_hamiltonian(h)
    direct = -1j * (h @ plus - plus @ h)
    assert np.linalg.norm(op.apply(plus) - direct) <= 1e-12
    assert abs(np.trace(op.apply(plus))) <= 1e-12


@pytest.mark.parametrize("seed", range(6))
def test_commutator_map_random_operands(seed):
    rng = generator(104, seed)
    dim = 2 + seed % 3
    h = random_hermitian(rng, dim)
    op = matcore.Superoperator.from_hamiltonian(h)
    x = random_matrix(rng, dim)
    direct = -1j * (h @ x - x @ h)
    assert np.linalg.norm(op.apply(x) - direct) <= 1e-12 * max(
        1.0, float(np.linalg.norm(direct)))
    assert abs(np.trace(op.apply(x))) <= 1e-10


def test_superoperator_preserves_hermiticity():
    rng = generator(105)
    h = random_hermitian(rng, 3)
    gamma = random_hermitian(rng, 3)
    for op in (matcore.Superoperator.from_hamiltonian(h),
               matcore.Superoperator.from_non_hermitian(h, gamma)):
        assert op.hermiticity_preservation_defect() <= 1e-10
        assert op.hermiticity_preservation_defect() == 0.0  # exact test
        x = random_hermitian(rng, 3)
        out = op.apply(x)
        assert matcore.hermiticity_defect(out) <= 1e-10


def test_superoperator_attributes_cannot_be_reassigned():
    op = matcore.Superoperator.from_non_hermitian(SZ / 2, np.diag([0.3, 0.1]))
    for name in ("matrix", "dim", "kind", "h", "gamma"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(op, name, getattr(op, name))


def test_superoperator_arrays_are_read_only():
    op = matcore.Superoperator.from_non_hermitian(SZ / 2, np.diag([0.3, 0.1]))
    for a in (op.matrix, op.h, op.gamma):
        with pytest.raises(ValueError, match="read-only"):
            a[0, 0] = 1.0


def test_editing_the_input_leaves_the_superoperator_unchanged():
    rng = generator(108)
    m = matcore.Superoperator.from_hamiltonian(random_hermitian(rng, 2)).matrix
    m = m.copy()
    op = matcore.Superoperator.from_matrix(m)
    x = random_matrix(rng, 2)
    before = op.apply(x)
    m *= 3.0  # a superoperator that shared m would now triple its image
    assert np.array_equal(op.apply(x), before)


def test_hermiticity_preservation_defect_is_exact():
    # S M S only permutes entries of M: compare with the explicit swap
    rng = generator(107)
    for dim in (1, 2, 3):
        m = rng.normal(size=(dim ** 2,) * 2) + 1j * rng.normal(size=(dim ** 2,) * 2)
        swap = np.zeros((dim ** 2, dim ** 2))
        for i in range(dim):
            for j in range(dim):
                swap[j + i * dim, i + j * dim] = 1.0
        defect = matcore.Superoperator(m, dim).hermiticity_preservation_defect()
        assert defect == np.max(np.abs(m.conj() - swap @ m @ swap))
    broken = np.eye(4, dtype=complex)
    broken[0, 1] = 1.0
    op = matcore.Superoperator.from_matrix(broken)
    assert op.hermiticity_preservation_defect() == 1.0


def test_vec_unvec_roundtrip():
    rng = generator(106)
    x = random_matrix(rng, 3)
    assert np.array_equal(matcore.unvec(matcore.vec(x), 3), x)


def test_superoperator_from_matrix_rejects_bad_side():
    with pytest.raises(InvalidInputError):
        matcore.Superoperator.from_matrix(np.eye(3))


def test_herm_fun():
    sq = matcore.herm_fun(np.diag([4.0, 9.0]), np.sqrt)
    assert np.allclose(sq, np.diag([2.0, 3.0]))


def test_require_density_validates():
    with pytest.raises(InvalidInputError):
        matcore.require_density(np.diag([0.6, 0.3]))  # trace 0.9
    with pytest.raises(InvalidInputError):
        matcore.require_density(np.diag([1.5, -0.5]))  # negative eigenvalue
    rho = matcore.require_density(np.diag([0.75, 0.25]))
    assert rho.shape == (2, 2)


# -- golden_rows ------------------------------------------------------


def test_golden_rows_brackets_each_row_peak():
    # peaks spread over the bracket; every row stops within tol of its own
    peak = np.linspace(-0.12, 0.12, 41)
    lo, hi = np.full(41, -0.13), np.full(41, 0.13)

    def fn(t):
        return np.cos(3.0 * (t - peak))

    t, v = matcore.golden_rows(fn, lo, hi, 1e-8)
    assert np.max(np.abs(t - peak)) <= 1e-8
    assert np.array_equal(v, fn(t))


def test_golden_rows_returns_the_midpoint_of_a_bracket_within_tol():
    # a tol wider than [0, 1] stops the section before its first step
    lo, hi = np.zeros(3), np.ones(3)

    def fn(t):
        return -(t - 0.2) ** 2

    t, v = matcore.golden_rows(fn, lo, hi, 2.0)
    assert np.array_equal(t, np.full(3, 0.5))
    assert np.array_equal(v, fn(t))


# -- one alpha domain across the package ------------------------------


def _alpha_takers():
    """Every public function taking an order alpha, as alpha -> value, and
    whether alpha = inf is defined for it."""
    from qspeed import bounds, classical, oracle, quantum

    h = np.diag([0.5, -0.5]).astype(complex)
    plus = np.full((2, 2), 0.5, dtype=complex)
    fam = quantum.ParametricFamily.unitary(h, plus)
    dist = classical.ParametricDist([0.5, 0.5], [0.25, -0.25])
    snaps = [(0.01 * k, [0.5 + 0.01 * k, 0.5 - 0.01 * k]) for k in range(4)]
    psi = np.array([1.0, 1.0]) / np.sqrt(2.0)
    part = bounds.Partition(((0,), (1,)), (np.kron(h, np.eye(2)),
                                           np.kron(np.eye(2), h)))
    cfg = oracle.SearchConfig(restarts=1)
    return [
        ("schatten_norm", lambda a: matcore.schatten_norm(h, a), True),
        ("dist_alpha", lambda a: classical.dist_alpha([1, 0], [0.5, 0.5], a),
         False),
        ("dist_schatten_alpha",
         lambda a: classical.dist_schatten_alpha([1, 0], [0.5, 0.5], a), True),
        ("gen_fisher", lambda a: classical.gen_fisher(dist, a), False),
        ("moment_lower_bound", lambda a: classical.moment_lower_bound(
            dist, [1.0, -1.0], a, 0.0), False),
        ("schatten_fisher", lambda a: classical.schatten_fisher(dist, a), True),
        ("classical_speed",
         lambda a: classical.classical_speed(dist, a, "schatten"), True),
        ("speed_from_samples",
         lambda a: classical.speed_from_samples(snaps, a)[0], True),
        ("schatten_distance",
         lambda a: quantum.schatten_distance(plus, np.eye(2) / 2, a), True),
        ("schatten_speed", lambda a: quantum.schatten_speed(fam, 0.0, a), True),
        ("statistical_speed",
         lambda a: quantum.statistical_speed(fam, 0.0, "schatten", a), True),
        ("nonhermitian_pure_speed",
         lambda a: quantum.nonhermitian_pure_speed(psi, h, 0 * h, a), True),
        ("thermal_gen_fisher",
         lambda a: quantum.thermal_gen_fisher(h, 1.0, a), False),
        ("weak_value_fisher", lambda a: quantum.weak_value_fisher(
            psi, h, quantum.basis_povm(2), a), False),
        ("superop_norm", lambda a: bounds.superop_norm(
            matcore.Superoperator.from_hamiltonian(h), a,
            restarts=1).value, True),
        ("ksep_bound", lambda a: bounds.ksep_bound(2, 1, a), True),
        ("asep_bound", lambda a: bounds.asep_bound(np.eye(4) / 4, part, a),
         True),
        ("witness", lambda a: bounds.witness(fam, alpha=a).bound, True),
        ("curve_length", lambda a: bounds.curve_length(
            fam, 0.0, 0.1, "schatten", a, tol=1e-6), True),
        ("finite_diff_speed", lambda a: oracle.finite_diff_speed(
            fam, 0.0, "schatten", a)[0], True),
        ("brute_force_max", lambda a: oracle.brute_force_max(
            fam, 0.0, "sf_alpha", a, cfg)[0], True),
    ]


_ALPHA_TAKERS = _alpha_takers()
# orders whose conjugate exponent alpha/(alpha - 1) must be finite
_ABOVE_ONE = {"moment_lower_bound"}


@pytest.mark.parametrize("name, fn, inf_defined", _ALPHA_TAKERS,
                         ids=[t[0] for t in _ALPHA_TAKERS])
def test_one_alpha_domain(name, fn, inf_defined):
    for bad in (0.5, math.nan, -math.inf):
        with pytest.raises(InvalidInputError) as exc:
            fn(bad)
        assert str(exc.value) == f"alpha must be >= 1 or inf, got {bad}"
    if name in _ABOVE_ONE:
        with pytest.raises(InvalidInputError):
            fn(1.0)
        assert math.isfinite(fn(1.5))
    else:
        assert math.isfinite(fn(1.0))
    if inf_defined:
        assert math.isfinite(fn(math.inf))
    else:
        with pytest.raises(InvalidInputError):
            fn(math.inf)


def test_finite_alpha_check():
    matcore.require_finite_alpha(1.0, "f_alpha")
    with pytest.raises(InvalidInputError,
                       match="alpha must be >= 1 or inf, got nan"):
        matcore.require_finite_alpha(math.nan, "f_alpha")
    with pytest.raises(InvalidInputError,
                       match="alpha = inf is not defined for d_alpha"):
        matcore.require_finite_alpha(math.inf, "d_alpha")


# -- power-of-two scaler ----------------------------------------------


@pytest.mark.parametrize("top", [5e-324, 1e-200, 0.3, 1.0, 1.5, 3.0, 1e300])
def test_pow2_scale_scales_the_largest_part_into_one_two(top):
    # the scaler was clamped at 1, so entries below 1 were never scaled up
    a = np.array([[0.5 * top, -1j * top], [0.25 * top, 0.0]])
    scale = matcore.pow2_scale(a)
    assert math.frexp(scale)[0] == 0.5  # a power of two
    assert 1.0 <= top / scale < 2.0


def test_pow2_scale_of_an_all_zero_array_is_one():
    assert matcore.pow2_scale(np.zeros((2, 2), dtype=complex)) == 1.0


# -- validation -------------------------------------------------------


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: matcore.as_matrix(np.ones((2, 3))),
                 "matrix must be square, got shape (2, 3)", id="square"),
    pytest.param(lambda: matcore.as_matrix([[1.0, math.nan], [0.0, 1.0]]),
                 "matrix has non-finite entries", id="finite"),
    pytest.param(lambda: matcore.require_h_gamma(SZ, np.eye(3)),
                 "H and Gamma must have the same shape", id="h-gamma-shape"),
    pytest.param(lambda: matcore.require_state([math.inf, 0.0]),
                 "psi has non-finite entries", id="state-finite"),
    pytest.param(lambda: matcore.require_state([1.0, 1.0]),
                 "psi has squared norm 2, expected 1", id="state-norm"),
    pytest.param(lambda: matcore.Superoperator(np.eye(3), 2),
                 "superoperator matrix must be 4x4 for dim 2, got (3, 3)",
                 id="superop-shape"),
    pytest.param(lambda: matcore.Superoperator.from_hamiltonian(SZ).apply(
                     np.eye(3)),
                 "operand dim 3 does not match superoperator dim 2",
                 id="apply-dim"),
])
def test_matcore_validation_raises(call, message):
    with pytest.raises(InvalidInputError) as info:
        call()
    assert str(info.value) == message
