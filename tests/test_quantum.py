"""Quantum distance, speed, SLD, and optimal-measurement tests."""

import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from qspeed import classical, matcore, oracle, quantum
from qspeed.errors import (DegenerateInputError, InvalidInputError,
                          NumericalConsistencyError)
from qspeed.quantum import POVM, ParametricFamily
from qspeed.seeding import generator

from conftest import (KINDS, PLUS, SZ, ghz, haar_state, random_density,
                      random_hermitian)


def jz(n_qubits):
    # the diagonal built bit by bit, independent of bounds.collective_spin
    diag = []
    for idx in range(2 ** n_qubits):
        ones = bin(idx).count("1")
        diag.append((n_qubits - 2 * ones) / 2.0)
    return np.diag(diag).astype(complex)


# -- induced distributions --------------------------------------------


def test_induced_dist_diagonal():
    povm = quantum.basis_povm(2)
    p = quantum.induced_dist(np.diag([0.75, 0.25]), povm)
    assert np.allclose(p, [0.75, 0.25])


def test_induced_dist_trivial_povm():
    povm = POVM([np.eye(2)])
    p = quantum.induced_dist(np.diag([0.5, 0.5]), povm)
    assert np.allclose(p, [1.0])


def test_induced_parametric_matches_finite_difference():
    fam = ParametricFamily.unitary(SZ / 2, PLUS)
    povm = quantum.basis_povm(2)
    d = quantum.induced_parametric(fam, 0.3, povm)
    h = 1e-6
    p_hi = quantum.induced_dist(fam.state_at(0.3 + h), povm)
    p_lo = quantum.induced_dist(fam.state_at(0.3 - h), povm)
    assert np.allclose(d.derivative, (p_hi - p_lo) / (2 * h), atol=1e-8)


def test_expectations_rejects_a_wrong_dimension():
    povm = quantum.basis_povm(2)
    with pytest.raises(InvalidInputError,
                       match="state dimension does not match POVM"):
        povm.expectations(np.eye(3))


# -- fidelity and distances -------------------------------------------


def test_fidelity_identical_and_orthogonal():
    rho = np.diag([0.5, 0.5])
    assert quantum.fidelity(rho, rho) == pytest.approx(1.0)
    assert quantum.bures_distance(rho, rho) == pytest.approx(0.0)
    z0 = np.diag([1.0, 0.0])
    z1 = np.diag([0.0, 1.0])
    assert quantum.fidelity(z0, z1) == pytest.approx(0.0, abs=1e-12)
    assert quantum.bures_distance(z0, z1) == pytest.approx(1.0)


def test_bures_distance_of_close_states_does_not_cancel():
    # for commuting states D_2^2 = 1 - sum sqrt(p q), which is
    # sum (sqrt p - sqrt q)^2 / 2 = 5.0e-13: far below the rounding of 1 - F
    p = np.array([0.5 + 1e-6, 0.5 - 1e-6])
    exact = np.sqrt(0.5 * np.sum((np.sqrt(p) - np.sqrt(0.5)) ** 2))
    v = oracle.haar_unitary(2, generator(84))
    rho, sigma = (v * p) @ v.conj().T, np.eye(2) / 2
    assert quantum.bures_distance(rho, sigma) == pytest.approx(exact,
                                                               rel=1e-9)


def test_fidelity_pure_overlap():
    z0 = np.diag([1.0, 0.0]).astype(complex)
    plus = np.outer(PLUS, PLUS)
    assert quantum.fidelity(z0, plus) == pytest.approx(1 / np.sqrt(2.0))


def test_trace_distance_examples():
    z0 = np.diag([1.0, 0.0])
    z1 = np.diag([0.0, 1.0])
    plus = np.outer(PLUS, PLUS)
    assert quantum.trace_distance(z0, z0) == pytest.approx(0.0)
    assert quantum.trace_distance(z0, z1) == pytest.approx(1.0)
    assert quantum.trace_distance(z0, plus) == pytest.approx(1 / np.sqrt(2.0))


def test_schatten_distance_examples():
    z0 = np.diag([1.0, 0.0])
    z1 = np.diag([0.0, 1.0])
    assert quantum.schatten_distance(z0, z1, 2.0) == pytest.approx(1.0)
    rho = np.diag([0.7, 0.3])
    assert quantum.schatten_distance(rho, z0, 1.0) == pytest.approx(
        quantum.trace_distance(rho, z0))


@pytest.mark.parametrize("seed", range(10))
def test_fuchs_van_de_graaf(seed):
    rng = generator(300, seed)
    dim = 2 + seed % 3
    rho = random_density(rng, dim)
    sigma = random_density(rng, dim)
    d1 = quantum.trace_distance(rho, sigma)
    f = quantum.fidelity(rho, sigma)
    assert d1 <= np.sqrt(1 - f * f) + 1e-10
    # equality for pure states
    a = haar_state(rng, dim)
    b = haar_state(rng, dim)
    pa, pb = np.outer(a, a.conj()), np.outer(b, b.conj())
    fp = quantum.fidelity(pa, pb)
    assert quantum.trace_distance(pa, pb) == pytest.approx(
        np.sqrt(1 - fp * fp), abs=1e-9)


@pytest.mark.parametrize("seed", range(10))
def test_distance_ordering_d2_vs_d1(seed):
    rng = generator(301, seed)
    rho = random_density(rng, 3)
    sigma = random_density(rng, 3)
    d1 = quantum.trace_distance(rho, sigma)
    d2 = quantum.bures_distance(rho, sigma)
    assert d2 * d2 <= d1 + 1e-10


# -- SLD and Fisher information ---------------------------------------


def test_sld_pure_state():
    fam = ParametricFamily.unitary(SZ / 2, PLUS)
    res = quantum.sld(fam, 0.0)
    # for pure states L = 2 drho/dtheta
    assert np.allclose(res.operator, 2 * fam.derivative_at(0.0), atol=1e-9)
    assert res.support_dim == 1


def test_sld_residual_invariant():
    rng = generator(302)
    fam = ParametricFamily.unitary(random_hermitian(rng, 3),
                                   random_density(rng, 3))
    theta = 0.4
    rho = fam.state_at(theta)
    drho = fam.derivative_at(theta)
    op = quantum.sld(fam, theta).operator
    assert np.linalg.norm(0.5 * (op @ rho + rho @ op) - drho) <= 1e-8


def test_sld_thermal_family():
    h = np.diag([0.0, 1.0, 2.5]).astype(complex)
    fam = quantum.thermal_family(h)
    beta = 0.7
    rho = fam.state_at(beta)
    mean = float(np.trace(rho @ h).real)
    res = quantum.sld(fam, beta)
    assert np.allclose(res.operator, mean * np.eye(3) - h, atol=1e-8)


def test_sld_stationary_family():
    fam = ParametricFamily.unitary(np.eye(2), np.diag([0.5, 0.5]))
    assert np.allclose(quantum.sld(fam, 0.0).operator, 0.0)


def test_sld_rejects_support_escape():
    # jump operator pumping population into an unoccupied level: the
    # derivative acquires first-order weight outside the support of rho,
    # so the Fisher information is formally infinite
    a = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)  # |1><0|
    n = a.conj().T @ a
    mat = (np.kron(a.conj(), a)
           - 0.5 * (np.kron(np.eye(2), n) + np.kron(n.T, np.eye(2))))
    op = matcore.Superoperator.from_matrix(mat)
    fam = ParametricFamily.lindblad(op, np.diag([1.0, 0.0]))
    with pytest.raises(InvalidInputError):
        quantum.sld(fam, 0.0)
    with pytest.raises(InvalidInputError):
        quantum.qfi(fam, 0.0)


def test_qfi_plus_state():
    fam = ParametricFamily.unitary(SZ / 2, PLUS)
    assert quantum.qfi(fam, 0.0) == pytest.approx(1.0, abs=1e-10)


def test_qfi_maximally_mixed():
    fam = ParametricFamily.unitary(SZ / 2, np.eye(2) / 2)
    assert quantum.qfi(fam, 0.0) == pytest.approx(0.0, abs=1e-12)


def test_qfi_ghz():
    fam = ParametricFamily.unitary(jz(3), ghz(3))
    assert quantum.qfi(fam, 0.0) == pytest.approx(9.0, abs=1e-8)
    assert quantum.trace_speed(fam, 0.0) == pytest.approx(3.0, abs=1e-9)


# -- speeds -----------------------------------------------------------


def test_trace_speed_plus_state():
    fam = ParametricFamily.unitary(SZ / 2, PLUS)
    assert quantum.trace_speed(fam, 0.0) == pytest.approx(1.0)


def test_trace_speed_thermal_qubit():
    fam = quantum.thermal_family(np.diag([0.0, 1.0]))
    beta = np.log(3.0)
    assert quantum.trace_speed(fam, beta) == pytest.approx(3.0 / 8.0, abs=1e-10)
    assert quantum.qfi(fam, beta) == pytest.approx(3.0 / 16.0, abs=1e-10)


def test_schatten_speed_plus_state():
    fam = ParametricFamily.unitary(SZ / 2, PLUS)
    assert quantum.schatten_speed(fam, 0.0, 2.0) == pytest.approx(
        1 / np.sqrt(2.0))
    assert quantum.statistical_speed(fam, 0.0, "schatten", 2.0) == \
        pytest.approx(0.5)  # speed equals DeltaH for pure states


@pytest.mark.parametrize("seed", range(8))
def test_schatten_speed_alpha_one_is_trace_speed(seed):
    rng = generator(303, seed)
    fam = ParametricFamily.unitary(random_hermitian(rng, 3),
                                   random_density(rng, 3))
    assert quantum.schatten_speed(fam, 0.2, 1.0) == pytest.approx(
        quantum.trace_speed(fam, 0.2), rel=1e-12)


@pytest.mark.parametrize("seed", range(8))
def test_schatten_chain_is_monotone(seed):
    rng = generator(304, seed)
    fam = ParametricFamily.unitary(random_hermitian(rng, 4),
                                   random_density(rng, 4))
    alphas = [1.0, 1.5, 2.0, 3.0, np.inf]
    vals = [quantum.schatten_speed(fam, 0.0, a) for a in alphas]
    for hi, lo in zip(vals, vals[1:]):
        assert hi >= lo - 1e-12 * max(1.0, hi)


@pytest.mark.parametrize("seed", range(8))
def test_hs_speed_closed_forms(seed):
    # alpha = 2: diagonalization-free Frobenius form, and for unitary
    # families SS_2^2 = Tr(rho^2 H^2) - Tr((H rho)^2)
    rng = generator(305, seed)
    h = random_hermitian(rng, 3)
    rho = random_density(rng, 3)
    fam = ParametricFamily.unitary(h, rho)
    sf2 = quantum.schatten_speed(fam, 0.0, 2.0)
    drho = fam.derivative_at(0.0)
    assert sf2 == pytest.approx(
        float(np.sqrt(np.trace(drho @ drho.conj().T).real)), rel=1e-10)
    ss2 = quantum.statistical_speed(fam, 0.0, "schatten", 2.0)
    direct = float(np.trace(rho @ rho @ h @ h).real
                   - np.trace(h @ rho @ h @ rho).real)
    assert ss2 ** 2 == pytest.approx(direct, rel=1e-8, abs=1e-12)


@pytest.mark.parametrize("seed", range(8))
def test_f1_bounded_by_sqrt_f2_mixed(seed):
    rng = generator(306, seed)
    dim = 2 + seed % 3
    fam = ParametricFamily.unitary(random_hermitian(rng, dim),
                                   random_density(rng, dim))
    f1 = quantum.trace_speed(fam, 0.1)
    f2 = quantum.qfi(fam, 0.1)
    assert f1 <= np.sqrt(f2) + 1e-9


@pytest.mark.parametrize("seed", range(8))
def test_f1_equals_sqrt_f2_pure(seed):
    rng = generator(307, seed)
    dim = 2 + seed % 4
    fam = ParametricFamily.unitary(random_hermitian(rng, dim),
                                   haar_state(rng, dim))
    f1 = quantum.trace_speed(fam, 0.0)
    f2 = quantum.qfi(fam, 0.0)
    assert abs(f1 - np.sqrt(f2)) <= 1e-8 * max(1.0, f1)


def test_hilbert_schmidt_cross_check():
    rng = generator(308)
    h = random_hermitian(rng, 3)
    rho = random_density(rng, 3)
    fam = ParametricFamily.unitary(h, rho)
    f2 = quantum.qfi(fam, 0.0)
    ss2 = quantum.statistical_speed(fam, 0.0, "schatten", 2.0)
    prev = None
    for theta in (1e-2, 1e-3):
        d2 = quantum.schatten_distance(rho, fam.state_at(theta), 2.0)
        rate = d2 / theta
        assert 4 * rate * rate <= f2 + 1e-6
        err = abs(rate - ss2)
        if prev is not None:
            assert err < prev
        prev = err
    assert prev <= 1e-4 * max(ss2, 1.0)


@pytest.mark.parametrize("seed", range(6))
def test_bhatia_davis_on_unitary_families(seed):
    rng = generator(309, seed)
    h = random_hermitian(rng, 3)
    rho = random_density(rng, 3)
    fam = ParametricFamily.unitary(h, rho)
    w = np.linalg.eigvalsh(h)
    mean = float(np.trace(rho @ h).real)
    cap = 4.0 * (w[-1] - mean) * (mean - w[0])
    assert quantum.qfi(fam, 0.0) <= cap + 1e-9


@pytest.mark.parametrize("seed", range(6))
def test_f1_convex_and_subadditive(seed):
    rng = generator(310, seed)
    h = random_hermitian(rng, 3)
    ra = random_density(rng, 3)
    rb = random_density(rng, 3)
    lam = rng.random()
    fam_a = ParametricFamily.unitary(h, ra)
    fam_b = ParametricFamily.unitary(h, rb)
    fam_mix = ParametricFamily.unitary(h, lam * ra + (1 - lam) * rb)
    fa = quantum.trace_speed(fam_a, 0.0)
    fb = quantum.trace_speed(fam_b, 0.0)
    assert quantum.trace_speed(fam_mix, 0.0) <= lam * fa + (1 - lam) * fb + 1e-10

    hab = np.kron(h, np.eye(3)) + np.kron(np.eye(3), h)
    fam_prod = ParametricFamily.unitary(hab, np.kron(ra, rb))
    assert quantum.trace_speed(fam_prod, 0.0) <= fa + fb + 1e-9


# -- optimal measurements ---------------------------------------------


@pytest.mark.parametrize("seed", range(6))
def test_optimal_povm_attains_quantum_values(seed):
    rng = generator(311, seed)
    dim = 2 + seed % 2
    fam = ParametricFamily.unitary(random_hermitian(rng, dim),
                                   random_density(rng, dim))
    theta = 0.3
    povm_tr = quantum.optimal_povm(fam, theta, target="trace_speed")
    d_tr = quantum.induced_parametric(fam, theta, povm_tr)
    assert classical.gen_fisher(d_tr, 1.0) == pytest.approx(
        quantum.trace_speed(fam, theta), abs=1e-8)
    for alpha in (1.5, 2.0, 3.0):
        assert classical.schatten_fisher(d_tr, alpha) == pytest.approx(
            quantum.schatten_speed(fam, theta, alpha), abs=1e-8)
    povm_q = quantum.optimal_povm(fam, theta, target="qfi")
    d_q = quantum.induced_parametric(fam, theta, povm_q)
    assert classical.gen_fisher(d_q, 2.0) == pytest.approx(
        quantum.qfi(fam, theta), abs=1e-8)


def test_optimal_povm_thermal_targets_coincide():
    h = np.diag([0.0, 1.0, 2.5]).astype(complex)
    fam = quantum.thermal_family(h)
    beta = 0.9
    e_proj = [np.diag([1.0, 0, 0]), np.diag([0, 1.0, 0]), np.diag([0, 0, 1.0])]

    def matches_energy_basis(povm):
        for el in povm:
            assert any(np.allclose(el, p, atol=1e-8) for p in e_proj)

    matches_energy_basis(quantum.optimal_povm(fam, beta, "trace_speed"))
    matches_energy_basis(quantum.optimal_povm(fam, beta, "qfi"))


def test_optimal_povm_pure_family_targets_coincide():
    rng = generator(312)
    fam = ParametricFamily.unitary(random_hermitian(rng, 3),
                                   haar_state(rng, 3))
    povm_tr = quantum.optimal_povm(fam, 0.0, "trace_speed")
    povm_q = quantum.optimal_povm(fam, 0.0, "qfi")
    # same projector sets up to ordering
    for el in povm_tr:
        assert any(np.allclose(el, other, atol=1e-7) for other in povm_q)


def test_optimal_povm_completeness():
    rng = generator(313)
    fam = ParametricFamily.unitary(random_hermitian(rng, 4),
                                   random_density(rng, 4))
    povm = quantum.optimal_povm(fam, 0.0, "trace_speed")
    total = sum(np.asarray(e) for e in povm)
    assert np.linalg.norm(total - np.eye(4)) <= 1e-9


def test_eigenbasis_povm_passes_the_full_check():
    # _from_basis checks completeness only; every element it builds must
    # still pass POVM()'s per-element Hermiticity and positivity checks
    for dim in range(2, 9):
        for k in range(12):
            rng = generator(314, dim, k)
            g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            g[:, rng.integers(1, dim + 1):] = 0.0  # rank-deficient when cut
            a = g @ g.conj().T if k % 2 else g + g.conj().T
            povm = quantum._eigenbasis_povm(a)
            checked = POVM(list(povm.elements))
            assert all(np.array_equal(x, y) for x, y in zip(checked, povm))


def test_from_basis_rejects_a_non_unitary_basis():
    v = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
    with pytest.raises(InvalidInputError,
                       match="POVM elements sum to identity only within"):
        POVM._from_basis(v, [[0], [1]])


# -- the stacked POVM kernel against the per-element code it replaced --


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def random_unitary(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return np.linalg.qr(g)[0]


# (dim, n) with n rank-1 groups and the rest of the dim columns as one
# null group: n = 1, full rank, and counts in between
SINGLETON_COUNTS = [
    (2, 1), (2, 2), (3, 1), (3, 2), (3, 3), (8, 1), (8, 4), (8, 8),
    (39, 1), (39, 20), (39, 39), (40, 1), (40, 39), (40, 40),
    (41, 1), (41, 37), (41, 38), (41, 39), (41, 41),
    (45, 1), (45, 31), (45, 32), (45, 33), (45, 45),
    (64, 1), (64, 15), (64, 16), (64, 17), (64, 64),
    (90, 1), (90, 7), (90, 8), (90, 9), (90, 90),
    (128, 1), (128, 3), (128, 4), (128, 5), (128, 128),
    (130, 1), (130, 2), (130, 3), (130, 4), (130, 130),
]


@pytest.mark.parametrize("dim, n", SINGLETON_COUNTS)
def test_from_basis_matches_the_per_group_matmul(dim, n):
    v = random_unitary(generator(901, dim, n), dim)
    groups = [[k] for k in range(n)]
    if n < dim:
        groups.append(list(range(n, dim)))
    povm = POVM._from_basis(v, groups)
    assert len(povm) == len(groups)
    for e, group in zip(povm, groups):
        b = v[:, group]
        assert same_bits(e, matcore.hermitian_part(b @ b.conj().T))


@pytest.mark.parametrize("dim", [2, 5, 16, 41, 64])
def test_eigenbasis_povm_of_a_rank_deficient_operator(dim):
    rng = generator(902, dim)
    rank = max(1, dim // 3)
    g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    for a in (g @ g.conj().T, g @ np.diag(np.where(np.arange(rank) % 2, 1.0,
                                                     -1.0)) @ g.conj().T):
        a = matcore.hermitian_part(a)
        w, v = np.linalg.eigh(a)
        # the tolerance the eigenvalues replaced: n eps max(||A||_2, 1)
        null = np.abs(w) <= dim * np.finfo(float).eps * max(
            float(np.linalg.norm(a, 2)), 1.0)
        assert np.count_nonzero(null) == dim - rank
        assert np.array_equal(null, np.abs(w) <= matcore.zero_tol(w))
        groups = [[k] for k in np.flatnonzero(~null)] + [np.flatnonzero(null)]
        povm = quantum._eigenbasis_povm(a)
        assert len(povm) == len(groups)
        for e, group in zip(povm, groups):
            b = v[:, group]
            assert same_bits(e, matcore.hermitian_part(b @ b.conj().T))


def _general_povm(rng, dim, count):
    """S^(-1/2) A_k S^(-1/2) for random PSD A_k summing to S."""
    parts = []
    for _ in range(count):
        g = rng.normal(size=(dim, 2)) + 1j * rng.normal(size=(dim, 2))
        parts.append(g @ g.conj().T)
    w, v = np.linalg.eigh(sum(parts))
    root = (v / np.sqrt(w)) @ v.conj().T
    return POVM([root @ a @ root for a in parts])


def _stacked_povms():
    povms = []
    for dim in (2, 3, 7, 32, 128):
        rng = generator(903, dim)
        povms.append(_general_povm(rng, dim, dim + 2))
        povms.append(POVM._from_basis(
            random_unitary(rng, dim),
            [[k] for k in range(dim // 2)] + [list(range(dim // 2, dim))]))
        povms.append(quantum.basis_povm(dim))
        povms.append(oracle.random_instance("povm", dim, 903, 0))
        # a rank-deficient operator: its null space is one multi-column group
        g = rng.normal(size=(dim, 2)) + 1j * rng.normal(size=(dim, 2))
        povms.append(quantum._eigenbasis_povm(g @ g.conj().T))
    return povms


def test_traces_match_the_per_element_trace():
    eps = np.finfo(float).eps
    for povm in _stacked_povms():
        dim = povm.dim
        rng = generator(904, dim, len(povm))
        rho = random_density(rng, dim)
        x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        for operand in (rho, random_hermitian(rng, dim), x):
            ref = np.array([np.trace(e @ operand).real for e in povm])
            tol = 2 * dim * dim * eps * np.array(
                [np.sum(np.abs(e) * np.abs(operand.T)) for e in povm])
            assert np.all(np.abs(povm.expectations(operand) - ref) <= tol)
            if operand is rho:
                got = povm.probabilities(rho)
                assert np.all(np.abs(got - np.clip(ref, 0.0, None)) <= tol)


def test_stacked_povm_round_trips_through_its_elements():
    for povm in _stacked_povms():
        again = POVM(list(povm))
        assert len(again) == len(povm)
        assert all(same_bits(a, b) for a, b in zip(again, povm))


def test_povm_takes_its_own_stack():
    povm = oracle.random_instance("povm", 5, 905, 0)
    stack = np.stack(povm.elements)
    again = POVM(stack)
    assert len(again) == len(povm)
    assert all(same_bits(a, b) for a, b in zip(again, povm))
    with pytest.raises(InvalidInputError, match="at least one element"):
        POVM(np.empty((0, 2, 2), dtype=complex))


@pytest.mark.parametrize("columns", [[0, 1], [0, 1, 2, 2]],
                         ids=["missing", "repeated"])
def test_from_basis_needs_every_column_once(columns):
    v = random_unitary(generator(906), 3)
    groups = [[k] for k in columns[:-2]] + [columns[-2:]]
    with pytest.raises(InvalidInputError,
                       match="POVM elements sum to identity only within"):
        POVM._from_basis(v, groups)


def test_basis_povm_iterates_to_the_same_bits():
    for dim in (3, 64, 128):
        g = generator(907, dim).normal(size=(dim, dim // 2 + 1))
        povm = quantum._eigenbasis_povm(g @ g.T)
        first = [e.copy() for e in povm]
        assert len(first) == len(povm) == dim // 2 + 2
        assert all(same_bits(a, b) for a, b in zip(first, povm))
        assert all(same_bits(a, b) for a, b in zip(first, povm.elements))


def test_optimal_povms_store_only_their_basis():
    # one (d, d, d) stack of projectors is 32 MiB at d = 128
    dim = 128
    rng = generator(908, dim)
    fam = ParametricFamily.unitary(random_hermitian(rng, dim),
                                   random_density(rng, dim))
    tracemalloc.start()
    try:
        for target in ("trace_speed", "qfi"):
            povm = quantum.optimal_povm(fam, 0.3, target)
            quantum.induced_parametric(fam, 0.3, povm)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20


def test_each_call_evaluates_the_family_once(monkeypatch):
    expm = quantum._expm
    calls = []

    def counted(a):
        calls.append(a)
        return expm(a)

    monkeypatch.setattr(quantum, "_expm", counted)
    h = np.array([[0.0, 0.5], [0.5, 0.0]], dtype=complex)
    # Gamma vanishes on the initial state, so the trace is stationary at
    # theta = 0 and the induced distribution is normalized
    fam = ParametricFamily.non_hermitian(h, np.diag([0.0, 0.3]),
                                         np.diag([1.0, 0.0]))
    for fn in (lambda: quantum.qfi(fam, 0.0),
               lambda: quantum.sld(fam, 0.0),
               lambda: quantum.induced_parametric(fam, 0.0,
                                                  quantum.basis_povm(2)),
               lambda: quantum.optimal_povm(fam, 0.0, "qfi")):
        calls.clear()
        fn()
        assert len(calls) == 1


GOLDEN = Path(__file__).parent / "golden"


def pinned_families():
    """Ten seeded families at theta = 0.37: every kind with a mixed state,
    three kinds with a pure state, and two rank-deficient mixed states."""
    def inst(kind, dim, index):
        return oracle.random_instance(kind, dim, 41, index)

    dim = 3
    h = inst("hermitian", dim, 0)
    jump = 0.3 * inst("hermitian", dim, 1)
    ada = jump.conj().T @ jump
    eye = np.eye(dim)
    lindblad = (-1j * (np.kron(eye, h) - np.kron(h.T, eye))
                + np.kron(jump.conj(), jump)
                - 0.5 * np.kron(eye, ada) - 0.5 * np.kron(ada.T, eye))
    gamma = 0.2 * inst("density", dim, 2)
    mixed = inst("density", dim, 3)
    pure = inst("pure", dim, 4)
    psi, phi = inst("pure", 4, 5), inst("pure", 4, 6)
    rank2 = 0.7 * np.outer(psi, psi.conj()) + 0.3 * np.outer(phi, phi.conj())
    h4 = inst("hermitian", 4, 7)
    orbit = ParametricFamily.unitary(h, mixed)
    grid = [0.37 + 0.05 * (k - 3) for k in range(7)]
    return {
        "unitary-mixed": ParametricFamily.unitary(h, mixed),
        "non_hermitian-mixed": ParametricFamily.non_hermitian(h, gamma, mixed),
        "lindblad-mixed": ParametricFamily.lindblad(lindblad, mixed),
        "thermal": ParametricFamily.thermal(h),
        "table-mixed": ParametricFamily.table(
            [(t, orbit.state_at(t)) for t in grid]),
        "unitary-pure": ParametricFamily.unitary(h, pure),
        "non_hermitian-pure": ParametricFamily.non_hermitian(h, gamma, pure),
        "lindblad-pure": ParametricFamily.lindblad(lindblad, pure),
        "unitary-rank2": ParametricFamily.unitary(h4, rank2),
        "non_hermitian-rank2": ParametricFamily.non_hermitian(
            h4, 0.2 * inst("density", 4, 8), rank2),
    }


def pinned_values(fam, theta=0.37):
    res = quantum.sld(fam, theta)
    return {
        "F1": np.float64(quantum.trace_speed(fam, theta)),
        "F2": np.float64(quantum.qfi(fam, theta)),
        "sld": res.operator,
        "support": np.int64(res.support_dim),
        "povm_qfi": np.stack(quantum.optimal_povm(fam, theta, "qfi").elements),
        "povm_trace": np.stack(
            quantum.optimal_povm(fam, theta, "trace_speed").elements),
    }


_PINNED = pinned_families()


@pytest.mark.parametrize("name", sorted(_PINNED))
def test_pinned_speeds_and_povms(name):
    # exact bits: reports print these with 12 digits, and a zero whose
    # sign flips prints as -0
    with np.load(GOLDEN / "points.npz") as want:
        for key, value in pinned_values(_PINNED[name]).items():
            assert np.array_equal(value, want[f"{name}/{key}"]), key


# -- pure-state two-projector measurement -----------------------------


def test_two_projector_povm_plus_state():
    povm = quantum.pure_two_projector_povm(PLUS, SZ / 2)
    fam = ParametricFamily.unitary(SZ / 2, PLUS)
    d = quantum.induced_parametric(fam, 0.0, povm)
    for alpha in (1.0, 1.5, 2.0, 3.0):
        root = classical.gen_fisher(d, alpha) ** (1.0 / alpha)
        assert root == pytest.approx(1.0, abs=1e-8)  # 2 DeltaH = 1


def test_two_projector_povm_construction_overlaps():
    rng = generator(314)
    psi = haar_state(rng, 4)
    h = random_hermitian(rng, 4)
    povm = quantum.pure_two_projector_povm(psi, h)
    p_plus, p_minus = povm.elements[0], povm.elements[1]
    # orthogonal projectors, each catching half of |psi>
    assert abs(float(np.trace(p_plus @ p_minus).real)) <= 1e-10
    assert float(np.real(psi.conj() @ p_plus @ psi)) == pytest.approx(0.5)
    assert float(np.real(psi.conj() @ p_minus @ psi)) == pytest.approx(0.5)


def test_two_projector_povm_rejects_eigenstate():
    with pytest.raises(DegenerateInputError):
        quantum.pure_two_projector_povm(np.array([1.0, 0.0]), SZ / 2)


# -- non-Hermitian pure-state speeds ----------------------------------


def test_nonhermitian_reduces_to_hermitian():
    val = quantum.nonhermitian_pure_speed(PLUS, SZ / 2, np.zeros((2, 2)), 1.0)
    assert val == pytest.approx(1.0)
    for alpha in (1.5, 2.0, 4.0):
        speed = 2.0 ** (-1.0 / alpha) * quantum.nonhermitian_pure_speed(
            PLUS, SZ / 2, np.zeros((2, 2)), alpha)
        assert speed == pytest.approx(0.5)  # DeltaH for all alpha


def test_nonhermitian_scalar_gamma():
    gamma = 0.8
    val = quantum.nonhermitian_pure_speed(
        PLUS, SZ / 2, gamma * np.eye(2), 1.0)
    assert val == pytest.approx(2 * np.sqrt(0.25 + gamma ** 2))


@pytest.mark.parametrize("seed", range(6))
def test_nonhermitian_matches_family_trace_speed(seed):
    rng = generator(315, seed)
    dim = 2 + seed % 3
    psi = haar_state(rng, dim)
    h = random_hermitian(rng, dim)
    gamma = random_hermitian(rng, dim)
    closed = quantum.nonhermitian_pure_speed(psi, h, gamma, 1.0)
    fam = ParametricFamily.non_hermitian(h, gamma, psi)
    assert quantum.trace_speed(fam, 0.0) == pytest.approx(closed, abs=1e-8)


@pytest.mark.parametrize("alpha", [1.0, 3.0, 1100.0, np.inf])
def test_nonhermitian_closed_form_with_negative_mean_gamma(alpha):
    # drho has eigenvalues -g +- v, so alpha = inf gives v + |g|, which is
    # v - g here: <Gamma> < 0
    psi = np.array([1.0, 1.0j, 0.5]) / 1.5
    h = np.array([[0.3, 0.1, 0.0], [0.1, -0.2, 0.05], [0.0, 0.05, 0.4]])
    gamma = np.diag([-0.3, 0.1, 0.2])
    assert float(np.vdot(psi, gamma @ psi).real) < 0
    closed = quantum.nonhermitian_pure_speed(psi, h, gamma, alpha)
    fam = ParametricFamily.non_hermitian(h, gamma, psi)
    assert closed == pytest.approx(quantum.schatten_speed(fam, 0.0, alpha),
                                   rel=1e-12)


# -- thermal families -------------------------------------------------


@pytest.mark.parametrize("theta", [np.inf, -np.inf, np.nan])
def test_every_kind_rejects_a_non_finite_theta(theta):
    h = np.diag([0.5, -0.5])
    plus = np.full((2, 2), 0.5)
    orbit = ParametricFamily.unitary(h, plus)
    families = [
        orbit,
        ParametricFamily.non_hermitian(h, 0.1 * np.eye(2), plus),
        ParametricFamily.lindblad(matcore.Superoperator.from_hamiltonian(h),
                                  plus),
        ParametricFamily.thermal(h),
        ParametricFamily.table([(t, orbit.state_at(t)) for t in (0, 1, 2)]),
    ]
    for fam in families:
        for evaluate in (fam.state_at, fam.at):
            with pytest.raises(InvalidInputError, match="theta must be finite"):
                evaluate(theta)


def test_thermal_gen_fisher_qubit():
    h = np.diag([0.0, 1.0])
    beta = np.log(3.0)
    assert quantum.thermal_gen_fisher(h, beta, 1.0) == pytest.approx(3.0 / 8.0)
    assert quantum.thermal_gen_fisher(h, beta, 2.0) == pytest.approx(3.0 / 16.0)
    assert 3.0 / 8.0 <= np.sqrt(3.0 / 16.0)  # F_1 <= sqrt(F_2)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("beta, message", [
    (1e308, "Gibbs weights at beta = 1e[+]308 overflow"),
    (np.inf, "beta must be finite, got inf"),
    (np.nan, "beta must be finite, got nan")])
def test_thermal_gen_fisher_rejects_overflowing_beta(beta, message):
    # the Gibbs weights came out nan, after RuntimeWarnings at 1e308 and
    # inf and silently at nan
    with pytest.raises(InvalidInputError, match=message):
        quantum.thermal_gen_fisher(np.diag([10.0, -10.0]), beta)


def test_thermal_freezes_out():
    fam = quantum.thermal_family(np.diag([0.0, 1.0]))
    assert quantum.trace_speed(fam, 30.0) == pytest.approx(0.0, abs=1e-10)
    assert quantum.qfi(fam, 30.0) == pytest.approx(0.0, abs=1e-10)


def test_thermal_degenerate_hamiltonian():
    fam = quantum.thermal_family(2.0 * np.eye(3))
    assert quantum.trace_speed(fam, 1.0) == pytest.approx(0.0, abs=1e-12)
    assert quantum.qfi(fam, 1.0) == pytest.approx(0.0, abs=1e-12)


def test_thermal_overflow_guard():
    h = np.diag([0.0, 500.0])
    fam = quantum.thermal_family(h)
    rho = fam.state_at(3.0)
    assert np.isfinite(rho).all()
    assert float(np.trace(rho).real) == pytest.approx(1.0)


# -- weak values ------------------------------------------------------


def test_weak_value_fisher_two_projector():
    povm = quantum.pure_two_projector_povm(PLUS, SZ / 2)
    for alpha in (1.0, 2.0, 3.0):
        assert quantum.weak_value_fisher(PLUS, SZ / 2, povm, alpha) == \
            pytest.approx(1.0, abs=1e-10)  # (2 DeltaH)^alpha = 1


def test_weak_value_fisher_basis_cases():
    z_basis = quantum.basis_povm(2)
    # z probabilities are invariant under z rotations: no information
    assert quantum.weak_value_fisher(PLUS, SZ / 2, z_basis, 2.0) == \
        pytest.approx(0.0, abs=1e-12)
    y_plus = np.array([1.0, 1j]) / np.sqrt(2.0)
    y_minus = np.array([1.0, -1j]) / np.sqrt(2.0)
    y_basis = POVM([np.outer(y_plus, y_plus.conj()),
                    np.outer(y_minus, y_minus.conj())])
    assert quantum.weak_value_fisher(PLUS, SZ / 2, y_basis, 2.0) == \
        pytest.approx(1.0, abs=1e-12)


def test_weak_value_fisher_matches_induced_distribution():
    rng = generator(316)
    psi = haar_state(rng, 3)
    h = random_hermitian(rng, 3)
    q, _ = np.linalg.qr(rng.normal(size=(3, 3))
                        + 1j * rng.normal(size=(3, 3)))
    povm = POVM([np.outer(q[:, k], q[:, k].conj()) for k in range(3)])
    fam = ParametricFamily.unitary(h, psi)
    d = quantum.induced_parametric(fam, 0.0, povm)
    for alpha in (1.0, 2.0, 2.5):
        assert quantum.weak_value_fisher(psi, h, povm, alpha) == \
            pytest.approx(classical.gen_fisher(d, alpha), abs=1e-10)


def test_weak_value_fisher_skips_an_outcome_of_zero_probability():
    # psi has no weight on |2>, so that outcome has no weak value; the
    # induced distribution is (numerically) zero there too
    rng = generator(320)
    psi = np.append(haar_state(rng, 2), 0.0)
    h = random_hermitian(rng, 3)
    povm = quantum.basis_povm(3)
    d = quantum.induced_parametric(ParametricFamily.unitary(h, psi), 0.0, povm)
    for alpha in (1.0, 2.0, 2.5):
        assert quantum.weak_value_fisher(psi, h, povm, alpha) == \
            pytest.approx(classical.gen_fisher(d, alpha), abs=1e-10)


def test_weak_value_fisher_checks_dimensions():
    # numpy's matmul raised a ValueError on either mismatch
    with pytest.raises(InvalidInputError,
                       match="state and H dimensions differ"):
        quantum.weak_value_fisher(PLUS, np.eye(3), quantum.basis_povm(2))
    with pytest.raises(InvalidInputError,
                       match="state dimension does not match POVM"):
        quantum.weak_value_fisher(PLUS, SZ, quantum.basis_povm(3))


def test_weak_value_fisher_h_eigenbasis_is_zero():
    assert quantum.weak_value_fisher(PLUS, SZ / 2,
                                     quantum.basis_povm(2), 2.0) == \
        pytest.approx(0.0, abs=1e-12)


# -- family plumbing --------------------------------------------------


def test_unitary_family_evolves():
    fam = ParametricFamily.unitary(SZ / 2, PLUS)
    rho = fam.state_at(np.pi)
    minus = np.array([1.0, -1.0]) / np.sqrt(2.0)
    assert np.allclose(rho, np.outer(minus, minus.conj()), atol=1e-10)


def test_family_derivative_traces():
    rng = generator(317)
    h = random_hermitian(rng, 3)
    gamma = random_hermitian(rng, 3) + 3 * np.eye(3)
    rho0 = random_density(rng, 3)
    fam_u = ParametricFamily.unitary(h, rho0)
    assert abs(np.trace(fam_u.derivative_at(0.5))) <= 1e-9
    fam_nh = ParametricFamily.non_hermitian(h, gamma, rho0)
    drho = fam_nh.derivative_at(0.0)
    expect = -2.0 * float(np.trace(rho0 @ gamma).real)
    assert float(np.trace(drho).real) == pytest.approx(expect, abs=1e-9)


def test_lindblad_family_matches_unitary():
    rng = generator(318)
    h = random_hermitian(rng, 3)
    rho0 = random_density(rng, 3)
    fam_u = ParametricFamily.unitary(h, rho0)
    fam_l = ParametricFamily.lindblad(
        matcore.Superoperator.from_hamiltonian(h), rho0)
    for theta in (0.0, 0.4):
        assert np.allclose(fam_l.state_at(theta), fam_u.state_at(theta),
                           atol=1e-9)
        assert np.allclose(fam_l.derivative_at(theta),
                           fam_u.derivative_at(theta), atol=1e-8)


def test_table_family_derivative():
    h = SZ / 2
    fam_u = ParametricFamily.unitary(h, np.diag([0.7, 0.3]) + 0.2 * np.array(
        [[0, 1], [1, 0]]))
    grid = np.linspace(-0.02, 0.02, 5)
    points = [(t, fam_u.state_at(t)) for t in grid]
    fam_t = ParametricFamily.table(points)
    assert np.allclose(fam_t.derivative_at(0.0), fam_u.derivative_at(0.0),
                       atol=1e-7)


def test_table_family_derivative_within_its_truncation_error():
    # on a unitary orbit the k-th derivative is (-i ad_H)^k rho, of
    # operator norm at most (2 ||H||)^k.  The central difference at grid
    # index 1 and n - 2 is then off by at most h^2/6 (2 ||H||)^3, and the
    # Richardson step inside by at most h^4/18 (2 ||H||)^5
    rng = generator(319)
    h = random_hermitian(rng, 3)
    h = h / np.linalg.norm(h, 2)
    orbit = ParametricFamily.unitary(h, random_density(rng, 3))
    step = 0.05
    grid = 0.37 + step * np.arange(-3, 4)
    table = ParametricFamily.table([(t, orbit.state_at(t)) for t in grid])

    def error(theta):
        return np.linalg.norm(table.derivative_at(theta)
                              - orbit.derivative_at(theta), 2)

    for theta in (grid[1], grid[-2]):
        assert error(theta) <= step ** 2 / 6 * 2.0 ** 3
    for theta in grid[2:-2]:
        assert error(theta) <= step ** 4 / 18 * 2.0 ** 5


def test_family_rejects_bad_inputs():
    with pytest.raises(InvalidInputError):
        ParametricFamily.unitary(np.array([[0.0, 1.0], [0.0, 0.0]]), PLUS)
    with pytest.raises(InvalidInputError):
        ParametricFamily.table([(0.0, np.diag([1.0, 0.0]))])
    decaying = matcore.Superoperator.from_non_hermitian(
        SZ / 2, 0.5 * np.eye(2))
    with pytest.raises(InvalidInputError):
        ParametricFamily.lindblad(decaying, np.diag([0.5, 0.5]))


# -- immutable families -----------------------------------------------



def family_with_inputs(kind):
    """(family, the caller's arrays it was built from).  Every input is a
    writable complex array, which a constructor could keep as it is."""
    h = np.array([[0.5, 0.2], [0.2, -0.5]], dtype=complex)
    psi = PLUS.astype(complex)
    rho = np.array([[0.7, 0.2], [0.2, 0.3]], dtype=complex)
    if kind == "unitary":
        return ParametricFamily.unitary(h, psi), [h, psi]
    if kind == "non_hermitian":
        gamma = np.diag([0.0, 0.3]).astype(complex)
        return ParametricFamily.non_hermitian(h, gamma, rho), [h, gamma, rho]
    if kind == "lindblad":
        m = matcore.Superoperator.from_hamiltonian(h).matrix.copy()
        return ParametricFamily.lindblad(m, psi), [m, psi]
    if kind == "thermal":
        return ParametricFamily.thermal(h), [h]
    orbit = ParametricFamily.unitary(h, rho)
    grid = (0.0, 0.5, 1.0, 1.5, 2.0)
    states = [np.array(orbit.state_at(t)) for t in grid]
    return ParametricFamily.table(list(zip(grid, states))), states


def test_family_attributes_cannot_be_reassigned():
    for kind in KINDS:
        fam, _ = family_with_inputs(kind)
        for name in ("kind", "dim", "h", "gamma", "superop", "rho0", "psi0"):
            with pytest.raises(AttributeError):
                setattr(fam, name, None)


def test_family_arrays_are_read_only():
    held = []
    for kind in KINDS:
        fam, _ = family_with_inputs(kind)
        held += [a for a in (fam.h, fam.gamma, fam.rho0, fam.psi0)
                 if a is not None]
    held.append(family_with_inputs("lindblad")[0].superop.matrix)
    held.append(family_with_inputs("table")[0].state_at(1.0))
    assert len(held) == 11
    for a in held:
        with pytest.raises(ValueError, match="read-only"):
            a[(0,) * a.ndim] = 0.0


def test_editing_the_inputs_leaves_the_family_unchanged():
    for kind in KINDS:
        fam, inputs = family_with_inputs(kind)
        point = [x.copy() for x in fam.at(1.0)]
        held = [None if a is None else a.copy()
                for a in (fam.h, fam.gamma, fam.rho0, fam.psi0)]
        for a in inputs:
            assert a.flags.writeable
            a *= 3.0
        assert all(np.array_equal(x, y) for x, y in zip(fam.at(1.0), point))
        for a, b in zip(held, (fam.h, fam.gamma, fam.rho0, fam.psi0)):
            assert (a is None and b is None) or np.array_equal(a, b), kind


def test_lindblad_family_keeps_its_own_generator():
    eye = np.eye(2)
    h = SZ / 2
    m = -1j * (np.kron(eye, h) - np.kron(h.T, eye))
    fam = ParametricFamily.lindblad(m, np.full((2, 2), 0.5))
    assert quantum.qfi(fam, 0.3) == pytest.approx(1.0)
    m *= 3.0  # a family that shared m would now give 9
    assert quantum.qfi(fam, 0.3) == pytest.approx(1.0)
    m[0, 0] = -1.0  # no longer conserves trace
    assert np.trace(fam.state_at(0.3)).real == pytest.approx(1.0)


def test_evaluation_is_defined_on_the_family_class():
    # perfbench's tracer wraps these entries of the class dict
    for name in ("state_at", "at", "derivative_at"):
        assert name in ParametricFamily.__dict__


@pytest.mark.parametrize("kind", KINDS)
def test_at_evaluates_its_state_through_state_at(kind, monkeypatch):
    fam, _ = family_with_inputs(kind)
    state_at = ParametricFamily.state_at
    calls = []

    def counted(self, theta):
        calls.append(theta)
        return state_at(self, theta)

    monkeypatch.setattr(ParametricFamily, "state_at", counted)
    fam.at(1.0)
    assert calls == [1.0]
