"""Linear-algebra kernel tests: eigendecomposition, Schatten norms,
Jordan-Hahn decomposition, superoperator vectorization."""

import math

import numpy as np
import pytest

from qspeed import matcore
from qspeed.errors import InvalidInputError
from qspeed.seeding import generator

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)


def random_hermitian(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (a + a.conj().T) / 2


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
    op = matcore.commutator_map(h)
    assert np.linalg.norm(op.apply(np.eye(3) / 3)) <= 1e-12


def test_commutator_map_matches_direct_commutator():
    h = SZ / 2
    plus = np.full((2, 2), 0.5, dtype=complex)
    op = matcore.commutator_map(h)
    direct = -1j * matcore.commutator(h, plus)
    assert np.linalg.norm(op.apply(plus) - direct) <= 1e-12
    assert abs(np.trace(op.apply(plus))) <= 1e-12


@pytest.mark.parametrize("seed", range(6))
def test_commutator_map_random_operands(seed):
    rng = generator(104, seed)
    dim = 2 + seed % 3
    h = random_hermitian(rng, dim)
    op = matcore.commutator_map(h)
    x = random_matrix(rng, dim)
    direct = -1j * matcore.commutator(h, x)
    assert np.linalg.norm(op.apply(x) - direct) <= 1e-12 * max(
        1.0, float(np.linalg.norm(direct)))
    assert abs(np.trace(op.apply(x))) <= 1e-10


def test_superoperator_preserves_hermiticity():
    rng = generator(105)
    h = random_hermitian(rng, 3)
    gamma = random_hermitian(rng, 3)
    for op in (matcore.commutator_map(h),
               matcore.Superoperator.from_non_hermitian(h, gamma)):
        assert op.hermiticity_preservation_defect() <= 1e-10
        assert op.hermiticity_preservation_defect() == 0.0  # exact test
        x = random_hermitian(rng, 3)
        out = op.apply(x)
        assert matcore.hermiticity_defect(out) <= 1e-10


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


def test_matrix_abs_and_herm_fun():
    a = np.diag([2.0, -3.0])
    assert np.allclose(matcore.matrix_abs(a), np.diag([2.0, 3.0]))
    sq = matcore.herm_fun(np.diag([4.0, 9.0]), np.sqrt)
    assert np.allclose(sq, np.diag([2.0, 3.0]))


def test_require_density_validates():
    with pytest.raises(InvalidInputError):
        matcore.require_density(np.diag([0.6, 0.3]))  # trace 0.9
    with pytest.raises(InvalidInputError):
        matcore.require_density(np.diag([1.5, -0.5]))  # negative eigenvalue
    rho = matcore.require_density(np.diag([0.75, 0.25]))
    assert rho.shape == (2, 2)


def test_spectral_projectors_cluster_degenerate():
    values, projs = matcore.spectral_projectors(np.diag([1.0, 1.0, 2.0]))
    assert len(values) == 2
    assert np.allclose(values, [1.0, 2.0])
    assert float(np.trace(projs[0]).real) == pytest.approx(2.0)
    assert float(np.trace(projs[1]).real) == pytest.approx(1.0)


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
         lambda a: classical.dist_schatten_alpha([1, 0], [0.5, 0.5], a), False),
        ("gen_fisher", lambda a: classical.gen_fisher(dist, a), False),
        ("schatten_fisher", lambda a: classical.schatten_fisher(dist, a), True),
        ("classical_speed",
         lambda a: classical.classical_speed(dist, a, "schatten"), True),
        ("speed_from_samples",
         lambda a: classical.speed_from_samples(snaps, a)[0], False),
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
            matcore.commutator_map(h), a, restarts=1).value, True),
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


@pytest.mark.parametrize("name, fn, inf_defined", _ALPHA_TAKERS,
                         ids=[t[0] for t in _ALPHA_TAKERS])
def test_one_alpha_domain(name, fn, inf_defined):
    for bad in (0.5, math.nan, -math.inf):
        with pytest.raises(InvalidInputError) as exc:
            fn(bad)
        assert str(exc.value) == f"alpha must be >= 1 or inf, got {bad}"
    assert math.isfinite(fn(1.0))
    if inf_defined:
        assert math.isfinite(fn(math.inf))
