"""Speed caps: spectral limits, superoperator norms, separability bounds,
spin squeezing, curve length, and the entanglement witness."""

import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from qspeed import bounds, matcore, oracle, quantum
from qspeed.bounds import Partition
from qspeed.errors import (DegenerateInputError, InvalidInputError,
                          NumericalConsistencyError)
from qspeed.quantum import ParametricFamily
from qspeed.seeding import generator

from conftest import (PLUS, SZ, ghz, haar_state, jz, random_density,
                      random_hermitian)


# -- collective spin and embedding ------------------------------------


def test_collective_spin_spectrum():
    for n in (1, 2, 3):
        j = bounds.collective_spin(n, [0, 0, 1])
        w = np.linalg.eigvalsh(j.operator)
        assert w[0] == pytest.approx(-n / 2, abs=1e-12)
        assert w[-1] == pytest.approx(n / 2, abs=1e-12)


def test_collective_spin_rejects_bad_direction():
    with pytest.raises(InvalidInputError):
        bounds.collective_spin(2, [0, 0, 2.0])
    with pytest.raises(InvalidInputError):
        bounds.collective_spin(2, [0, 0])


@pytest.mark.parametrize("n_qubits", [1, 4])
def test_collective_spin_normalizes_a_near_unit_direction(n_qubits):
    # J_n was built from n itself, so a direction admitted 5e-10 off unit
    # length moved the spectrum off +-N/2 and raised
    near = bounds.collective_spin(n_qubits, [1 + 5e-10, 0, 0])
    unit = bounds.collective_spin(n_qubits, [1, 0, 0])
    assert np.array_equal(near.operator, unit.operator)
    assert np.array_equal(near.direction, unit.direction)


def test_embed_qubit_places_operator():
    op = bounds.embed_qubit(SZ, 1, 2)
    assert np.allclose(op, np.kron(np.eye(2), SZ))
    with pytest.raises(InvalidInputError):
        bounds.embed_qubit(SZ, 2, 2)


# -- spectral limits --------------------------------------------------


def test_heisenberg_limit_values():
    limit = bounds.heisenberg_limit(np.diag([0.0, 1.0, 3.0]))
    assert limit.f1_max == pytest.approx(3.0)
    assert limit.f2_max == pytest.approx(9.0)


def test_heisenberg_limit_saturated_by_extremal_superposition():
    h = np.diag([0.0, 1.0, 3.0]).astype(complex)
    psi = np.array([1.0, 0.0, 1.0]) / np.sqrt(2.0)
    fam = ParametricFamily.unitary(h, psi)
    limit = bounds.heisenberg_limit(h)
    assert quantum.trace_speed(fam, 0.0) == pytest.approx(limit.f1_max,
                                                          abs=1e-9)
    assert quantum.qfi(fam, 0.0) == pytest.approx(limit.f2_max, abs=1e-8)


@pytest.mark.parametrize("seed", range(6))
def test_heisenberg_limit_caps_random_states(seed):
    rng = generator(400, seed)
    h = random_hermitian(rng, 4)
    fam = ParametricFamily.unitary(h, random_density(rng, 4))
    limit = bounds.heisenberg_limit(h)
    assert quantum.trace_speed(fam, 0.0) <= limit.f1_max + 1e-9
    assert quantum.qfi(fam, 0.0) <= limit.f2_max + 1e-8


def test_bhatia_davis_bound_values():
    assert bounds.bhatia_davis_bound(SZ, np.diag([1.0, 0.0])) == \
        pytest.approx(0.0)
    plus = np.outer(PLUS, PLUS)
    assert bounds.bhatia_davis_bound(SZ, plus) == pytest.approx(4.0)


@pytest.mark.parametrize("seed", range(6))
def test_bhatia_davis_tightens_heisenberg(seed):
    rng = generator(401, seed)
    h = random_hermitian(rng, 3)
    rho = random_density(rng, 3)
    bd = bounds.bhatia_davis_bound(h, rho)
    fam = ParametricFamily.unitary(h, rho)
    assert quantum.qfi(fam, 0.0) <= bd + 1e-8
    assert bd <= bounds.heisenberg_limit(h).f2_max + 1e-12


# -- induced superoperator norm ---------------------------------------


def test_superop_norm_commutator_equals_gap():
    op = matcore.Superoperator.from_hamiltonian(np.diag([0.0, 1.0]))
    res = bounds.superop_norm(op, 1.0, restarts=8, seed=0)
    assert res.converged
    assert res.value == pytest.approx(1.0, abs=1e-6)
    # the reported value is attained by the reported state
    attained = matcore.schatten_norm(
        op.apply(np.outer(res.state, res.state.conj())), 1.0)
    assert attained == pytest.approx(res.value, abs=1e-10)


def test_superop_norm_commutator_alpha_two():
    # || -i[H, psi psi^dag] ||_2 = sqrt(2) Delta_psi H, maximized at gap/2
    op = matcore.Superoperator.from_hamiltonian(np.diag([0.0, 1.0]))
    res = bounds.superop_norm(op, 2.0, restarts=8, seed=0)
    assert res.value == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-6)


@pytest.mark.parametrize("seed", range(4))
def test_superop_norm_random_hamiltonian_gap(seed):
    rng = generator(402, seed)
    h = random_hermitian(rng, 3)
    w = np.linalg.eigvalsh(h)
    res = bounds.superop_norm(matcore.Superoperator.from_hamiltonian(h), 1.0,
                              restarts=12, seed=seed)
    assert res.value == pytest.approx(float(w[-1] - w[0]), abs=1e-6)


def test_superop_norm_deterministic():
    op = matcore.Superoperator.from_hamiltonian(np.diag([0.0, 0.3, 1.0]))
    a = bounds.superop_norm(op, 1.0, restarts=6, seed=5)
    b = bounds.superop_norm(op, 1.0, restarts=6, seed=5)
    assert a.value == b.value
    assert np.array_equal(a.state, b.state)


def test_superop_norm_rejects_non_hermiticity_preserving():
    mat = np.eye(4, dtype=complex)
    mat[0, 1] = 1.0  # breaks L[X]^dag = L[X^dag]
    op = matcore.Superoperator.from_matrix(mat)
    with pytest.raises(InvalidInputError):
        bounds.superop_norm(op, 1.0, restarts=2, seed=0)


def _random_map(seed, dim=2):
    rng = generator(403, seed)
    side = dim * dim
    return rng.normal(size=(side, side)) + 1j * rng.normal(size=(side, side))


def test_superop_norm_refuses_a_small_non_preserving_map():
    # an absolute floor in the tolerance let the map through once scaled
    # down: its defect 2.8e-12 sat below 1e-9 * max(|M|, 1)
    op = matcore.Superoperator.from_matrix(1e-12 * _random_map(0))
    assert op.hermiticity_preservation_defect() > 1e-12
    with pytest.raises(InvalidInputError, match="preserve Hermiticity"):
        bounds.superop_norm(op, 1.0, restarts=2, seed=0)


def _hermiticity_check_passes(mat):
    try:
        bounds.superop_norm(matcore.Superoperator.from_matrix(mat), 1.0,
                            restarts=1, seed=0)
    except InvalidInputError as err:
        assert "preserve Hermiticity" in str(err)
        return False
    return True


def test_superop_norm_hermiticity_check_is_scale_free():
    # c M with c = 2^k has exactly c times M's defect and norm, so the
    # check must accept c M exactly when it accepts M; the maps straddle
    # the 1e-9 relative tolerance
    rng = generator(404)
    h = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    preserving = matcore.Superoperator.from_non_hermitian(
        h + h.conj().T, np.diag([0.4, 0.1])).matrix
    maps = [preserving + eps * _random_map(1)
            for eps in (0.0, 1e-11, 1e-10, 1e-9, 1e-8, 1.0)]
    passes = [_hermiticity_check_passes(mat) for mat in maps]
    assert True in passes and False in passes
    for k in range(-60, 61):
        assert [_hermiticity_check_passes(2.0 ** k * mat)
                for mat in maps] == passes, k


@pytest.mark.parametrize("restarts", [0, -2])
def test_superop_norm_needs_a_restart(restarts):
    op = matcore.Superoperator.from_hamiltonian(np.diag([0.0, 3.0]))
    with pytest.raises(InvalidInputError, match="restarts must be >= 1"):
        bounds.superop_norm(op, 1.0, restarts=restarts)


def test_superop_norm_of_a_huge_generator_warns_nothing():
    # the Frobenius scale and the gradient norms overflowed before
    op = matcore.Superoperator.from_hamiltonian(np.diag([5e307, -5e307]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = bounds.superop_norm(op, 1.0, restarts=4, seed=0)
    assert res.value == pytest.approx(1e308, rel=1e-9)


# The regression table: superop_norm's values at the commit before its
# dual ascent, one per run of superop_corpus().  A value may rise, since
# a better ascent finds a higher attained value, but not fall.
SUPEROP_TABLE = Path(__file__).parent / "golden" / "superop.npz"


def lindblad_matrix(h, jump):
    """Column-stacked matrix of L[r] = -i[H, r] + A r A^dag - {A^dag A, r}/2."""
    dim = h.shape[0]
    eye = np.eye(dim)
    ada = jump.conj().T @ jump
    return (-1j * (np.kron(eye, h) - np.kron(h.T, eye))
            + np.kron(jump.conj(), jump)
            - 0.5 * np.kron(eye, ada) - 0.5 * np.kron(ada.T, eye))


def superop_corpus():
    """Run name -> (map, alpha, restarts, seed).

    Four seeded maps H plus one jump 0.3 G (G Ginibre) at each of d = 2,
    3, 4, each at alpha in {1, 1.5, 2, 3, inf} with 32 restarts; and the
    matrix map of the bound-local golden report at restarts 1, 4 and 32
    and seeds 0-11.
    """
    runs = {}
    for dim in (2, 3, 4):
        for k in range(4):
            h = oracle.random_instance("hermitian", dim, 43, k)
            rng = generator(43, dim, k)
            jump = 0.3 * (rng.standard_normal((dim, dim))
                          + 1j * rng.standard_normal((dim, dim)))
            op = matcore.Superoperator.from_matrix(lindblad_matrix(h, jump))
            for alpha in ("1", "1.5", "2", "3", "inf"):
                runs[f"d{dim}-map{k}-alpha{alpha}"] = (op, float(alpha), 32, k)
    # the golden family's lindblad generator: seed 17, instances 0 and 3
    golden = matcore.Superoperator.from_matrix(lindblad_matrix(
        oracle.random_instance("hermitian", 2, 17, 0),
        0.3 * oracle.random_instance("hermitian", 2, 17, 3)))
    for restarts in (1, 4, 32):
        for seed in range(12):
            runs[f"golden-r{restarts}-seed{seed}"] = (golden, 1.0, restarts,
                                                     seed)
    return runs


SUPEROP_CORPUS = superop_corpus()


@pytest.mark.parametrize("name", sorted(SUPEROP_CORPUS))
def test_superop_norm_meets_the_regression_table(name):
    op, alpha, restarts, seed = SUPEROP_CORPUS[name]
    res = bounds.superop_norm(op, alpha, restarts=restarts, seed=seed)
    with np.load(SUPEROP_TABLE) as table:
        recorded = float(table[name])
    assert res.value >= recorded * (1.0 - 1e-9)
    assert res.converged
    # attained by its own state, and below the cap sqrt(d) ||M||_op
    out = op.apply(np.outer(res.state, res.state.conj()))
    attained = matcore.schatten_norm((out + out.conj().T) / 2, alpha)
    assert attained == pytest.approx(res.value, rel=1e-9)
    assert res.value <= math.sqrt(op.dim) * np.linalg.norm(op.matrix, 2)


def dual_gap(op, psi, alpha):
    """lambda_max(herm L^dag[S]) / ||Y||_alpha - 1 at Y = herm L[psi psi^dag],
    with S the dual of Y of unit beta-norm, 1/alpha + 1/beta = 1.

    Tr{S L[rho]} <= ||L[rho]||_alpha for every state rho, and psi attains
    ||Y||_alpha = Tr{S Y}; a state where the gap is positive is not a
    stationary point of the ascent.
    """
    y = op.apply(np.outer(psi, psi.conj()))
    w, v = np.linalg.eigh((y + y.conj().T) / 2)
    r = np.abs(w) / np.max(np.abs(w))
    s = (v * (np.sign(w) * r ** (alpha - 1.0))) @ v.conj().T
    beta = math.inf if alpha == 1 else 1.0 if math.isinf(alpha) else (
        alpha / (alpha - 1.0))
    s /= matcore.schatten_norm(s, beta)
    adj = matcore.unvec(op.matrix.conj().T @ matcore.vec(s), op.dim)
    top = np.linalg.eigvalsh((adj + adj.conj().T) / 2)[-1]
    return top / matcore.schatten_norm((y + y.conj().T) / 2, alpha) - 1.0


@pytest.mark.parametrize("name", ["golden-r4-seed8"] + [
    f"d{dim}-map0-alpha{alpha}" for dim in (2, 3, 4)
    for alpha in ("1", "1.5", "2", "3", "inf")])
def test_superop_norm_state_is_stationary(name):
    op, alpha, restarts, seed = SUPEROP_CORPUS[name]
    res = bounds.superop_norm(op, alpha, restarts=restarts, seed=seed)
    assert dual_gap(op, res.state, alpha) <= 1e-11


def bloch_grid_max(op, alpha):
    """max ||herm L[psi psi^dag]||_alpha over a 181 x 360 grid of qubit
    pure states (polar angle by 1 degree, azimuth by 1 degree)."""
    t, p = np.meshgrid(np.linspace(0.0, math.pi, 181),
                       np.linspace(0.0, 2.0 * math.pi, 360, endpoint=False))
    psi = np.stack([np.cos(t / 2).ravel(),
                    np.exp(1j * p.ravel()) * np.sin(t / 2).ravel()], axis=1)
    # rows are vec(psi psi^dag) = (psi psi^dag)^T flattened
    rho = (psi[:, :, None].conj() * psi[:, None, :]).reshape(-1, 4)
    y = (rho @ op.matrix.T).reshape(-1, 2, 2).swapaxes(1, 2)
    w = np.abs(np.linalg.eigvalsh((y + y.conj().swapaxes(1, 2)) / 2))
    if math.isinf(alpha):
        return float(w.max())
    return float((np.sum(w ** alpha, axis=1) ** (1.0 / alpha)).max())


@pytest.mark.parametrize("alpha", [1.0, 2.0, math.inf])
@pytest.mark.parametrize("k", range(4))
def test_superop_norm_beats_a_bloch_sphere_grid(k, alpha):
    # an independent reference: the supremum runs over qubit pure states,
    # which the grid covers densely; these maps conserve trace
    op = SUPEROP_CORPUS[f"d2-map{k}-alpha1"][0]
    res = bounds.superop_norm(op, alpha, seed=k)
    assert res.value >= bloch_grid_max(op, alpha)


# -- non-Hermitian speed caps -----------------------------------------


def test_nonhermitian_bound_reduces_to_gap():
    res = bounds.nonhermitian_speed_bound(np.diag([0.0, 1.0]),
                                          np.zeros((2, 2)))
    assert res.f1_bound == pytest.approx(1.0, abs=1e-9)
    assert res.f2_bound == pytest.approx(1.0, abs=1e-9)
    assert res.r_opt == pytest.approx(0.5, abs=1e-6)


def test_nonhermitian_bound_scalar_gamma():
    gamma = 1.0
    res = bounds.nonhermitian_speed_bound(SZ / 2, gamma * np.eye(2))
    assert res.f1_bound == pytest.approx(2 * np.sqrt(gamma ** 2 + 0.25),
                                         abs=1e-9)
    assert res.f2_bound == pytest.approx(4 * (gamma ** 2 + 0.25), abs=1e-8)
    assert res.r_opt == pytest.approx(0.0, abs=1e-6)


def test_nonhermitian_bound_pure_dephasing_uses_full_norm():
    # H = 0: the cap is 2 ||Gamma||_inf, which differs from the largest
    # eigenvalue when Gamma has a large negative branch
    res = bounds.nonhermitian_speed_bound(np.zeros((2, 2)),
                                          np.diag([1.0, -3.0]))
    assert res.f1_bound == pytest.approx(6.0, abs=1e-8)


def test_nonhermitian_bound_commuting_apex_case():
    # one parabola dominates at its apex: min is |g_2| at r = h_2
    res = bounds.nonhermitian_speed_bound(np.diag([1.0, 2.0]),
                                          np.diag([0.5, 3.0]))
    assert res.f1_bound == pytest.approx(6.0, abs=1e-8)
    assert res.r_opt == pytest.approx(2.0, abs=1e-6)


def test_nonhermitian_bound_commuting_crossing_case():
    res = bounds.nonhermitian_speed_bound(np.diag([0.0, 2.0]), np.eye(2))
    assert res.f1_bound == pytest.approx(2 * np.sqrt(2.0), abs=1e-8)
    assert res.r_opt == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("seed", range(10))
def test_nonhermitian_bound_caps_pure_speeds(seed):
    rng = generator(403, seed)
    dim = 2 + seed % 3
    h = random_hermitian(rng, dim)
    gamma = random_hermitian(rng, dim)
    cap = bounds.nonhermitian_speed_bound(h, gamma)
    psi = haar_state(rng, dim)
    f1 = quantum.nonhermitian_pure_speed(psi, h, gamma, 1.0)
    assert f1 <= cap.f1_bound + 1e-8 * max(1.0, cap.f1_bound)


@pytest.mark.parametrize("seed", range(6))
def test_nonhermitian_bound_caps_superop_norm(seed):
    rng = generator(404, seed)
    h = random_hermitian(rng, 2)
    gamma = random_hermitian(rng, 2)
    op = matcore.Superoperator.from_non_hermitian(h, gamma)
    norm = bounds.superop_norm(op, 1.0, restarts=8, seed=seed)
    cap = bounds.nonhermitian_speed_bound(h, gamma)
    assert norm.value <= cap.f1_bound + 1e-6


def pinned_pair(index):
    """Seeded (H, Gamma) pairs: 14 generic at d = 2-4, then 6 commuting 2x2."""
    rng = generator(4071, index)
    if index < 14:
        dim = 2 + index % 3
        return random_hermitian(rng, dim), random_hermitian(rng, dim)
    h = np.diag(rng.normal(size=2)).astype(complex)
    gamma = np.diag(rng.uniform(-2.0, 2.0, size=2)).astype(complex)
    if index >= 17:  # the same commuting pair in a rotated basis
        _, v = np.linalg.eigh(random_hermitian(rng, 2))
        h, gamma = v @ h @ v.conj().T, v @ gamma @ v.conj().T
    return h, gamma


# (f1_bound, f2_bound, r_opt) for pinned_pair(i), recorded from a scalar
# golden-section search; the shared row-wise one takes the same branches
# and must reproduce them bit for bit
NONHERMITIAN_PINS = [
    (5.524842433821063, 30.52388391854985, 0.08836118244815291),
    (9.227660543598052, 85.1497191078763, -0.08119428670932477),
    (9.621910718172597, 92.58116586848469, -0.25187635136943687),
    (7.8640442931950085, 61.843192645332984, 0.2691414155174213),
    (5.90952582695592, 34.92249549945905, -1.1353368512537232),
    (7.885396850084726, 62.17948348332612, 0.6909177866515148),
    (4.571107094712023, 20.895020071326588, -0.15757204025747695),
    (7.156821248573794, 51.22009038403736, -0.9631862209563837),
    (9.211909904332689, 84.8592840855427, -0.17029683516636612),
    (4.209938784642889, 17.72358457044044, 0.25230152018818697),
    (6.57341869464011, 43.20983333504409, -0.600110533420815),
    (9.581346099754002, 91.80219308327123, 0.08324605755050202),
    (2.8621390655394126, 8.191840030486821, -0.3140001508297444),
    (4.926431323646899, 24.269725586609333, 0.27504392070276173),
    (1.9572930681894358, 3.8309961547824156, -0.8390252339466433),
    (3.4361021370319467, 11.80679789611551, -0.6225469860585431),
    (3.674301158680654, 13.500489004681999, 0.454039231686825),
    (3.7993187350307376, 14.434822850355564, -1.8417555091587874),
    (1.4244794351100312, 2.0291416610513937, 0.1723411523890668),
    (1.6906727346455823, 2.8583742956739715, 0.26122178670023644),
]


@pytest.mark.parametrize("index", range(len(NONHERMITIAN_PINS)))
def test_nonhermitian_bound_pinned_values(index):
    h, gamma = pinned_pair(index)
    res = bounds.nonhermitian_speed_bound(h, gamma)
    assert tuple(res) == NONHERMITIAN_PINS[index]


def test_nonhermitian_bound_reads_gamma_in_a_degenerate_h():
    # every basis is an eigenbasis of H = I, and Gamma = sigma_x / 2 is not
    # diagonal in the one eigh returns; the closed form read Gamma's
    # diagonal, 0, and its cross-check against the search's 0.5 raised
    gamma = np.array([[0.0, 0.5], [0.5, 0.0]])
    assert bounds._dephasing_min_norm(np.eye(2), gamma) is None
    res = bounds.nonhermitian_speed_bound(np.eye(2), gamma)
    assert res.f1_bound == pytest.approx(1.0, abs=1e-9)
    assert res.f2_bound == pytest.approx(1.0, abs=1e-9)
    op = matcore.Superoperator.from_non_hermitian(np.eye(2), gamma)
    assert bounds.local_generator_sep_bound([op]) == pytest.approx(1.0,
                                                                   abs=1e-9)


# -- separability caps ------------------------------------------------


def test_ksep_bound_arithmetic():
    assert bounds.ksep_bound(4, 1, 1.0) == pytest.approx(2.0)
    assert bounds.ksep_bound(10, 3, 1.0) == pytest.approx(np.sqrt(28.0))
    assert bounds.ksep_bound(9, 1, 1.0) == pytest.approx(3.0)
    assert bounds.ksep_bound(4, 4, 2.0) == pytest.approx(4.0 / np.sqrt(2.0))
    assert bounds.ksep_bound(4, 1, np.inf) == pytest.approx(1.0)


def test_ksep_bound_monotone_in_k():
    vals = [bounds.ksep_bound(6, k, 1.0) for k in range(1, 7)]
    for lo, hi in zip(vals, vals[1:]):
        assert lo <= hi + 1e-12


def test_ksep_bound_rejects_bad_k():
    with pytest.raises(InvalidInputError):
        bounds.ksep_bound(4, 0, 1.0)
    with pytest.raises(InvalidInputError):
        bounds.ksep_bound(4, 5, 1.0)


def bell_partition():
    h0 = bounds.embed_qubit(SZ / 2, 0, 2)
    h1 = bounds.embed_qubit(SZ / 2, 1, 2)
    return Partition(((0,), (1,)), (h0, h1))


def test_partition_validation():
    h0 = bounds.embed_qubit(SZ / 2, 0, 2)
    h1 = bounds.embed_qubit(SZ / 2, 1, 2)
    Partition(((0,), (1,)), (h0, h1))
    with pytest.raises(InvalidInputError):
        Partition(((0,), (0,)), (h0, h1))  # overlap
    with pytest.raises(InvalidInputError):
        Partition(((0,), (2,)), (h0, h1))  # gap in coverage
    with pytest.raises(InvalidInputError):
        Partition(((0,), (1,)), (h0,))  # one Hamiltonian short
    with pytest.raises(InvalidInputError):
        Partition(((0,), (1,)), (h0, SZ / 2))  # mixed dimensions
    with pytest.raises(InvalidInputError):
        Partition(((0,), (1.5,)), (h0, h1))  # fractional site
    with pytest.raises(InvalidInputError):
        Partition(((0,), (1,)), (np.eye(1), np.eye(1)))  # a level per site
    assert Partition(((0,), (1.0,)), (h0, h1)).blocks == ((0,), (1,))


def test_asep_bound_bell_pair():
    bell = np.outer(ghz(2), ghz(2).conj())
    assert bounds.asep_bound(bell, bell_partition(), 1.0) == \
        pytest.approx(np.sqrt(2.0))
    fam = ParametricFamily.unitary(jz(2), ghz(2))
    assert quantum.trace_speed(fam, 0.0) == pytest.approx(2.0, abs=1e-9)


def test_local_generator_sep_bound_hamiltonian_kind():
    for n in (2, 3, 4):
        maps = [matcore.Superoperator.from_hamiltonian(SZ / 2)
                for _ in range(n)]
        assert bounds.local_generator_sep_bound(maps) == pytest.approx(
            float(n), abs=1e-9)


def test_local_generator_sep_bound_matches_exact_for_matrix_kind():
    # the same commutator generator submitted as a bare matrix goes
    # through the optimizer and must land on the same value
    h2 = SZ / 2
    exact_map = matcore.Superoperator.from_hamiltonian(h2)
    blind = matcore.Superoperator.from_matrix(exact_map.matrix)
    exact = bounds.local_generator_sep_bound([exact_map, exact_map])
    found = bounds.local_generator_sep_bound([blind, blind], seed=1,
                                             restarts=12)
    assert found == pytest.approx(exact, abs=1e-5)


# -- spin squeezing ---------------------------------------------------


def test_spin_squeezing_css_is_one():
    for n in (2, 3):
        plus_n = PLUS
        for _ in range(n - 1):
            plus_n = np.kron(plus_n, PLUS)
        rho = np.outer(plus_n, plus_n.conj())
        xi = bounds.spin_squeezing_xi(
            rho, n, ([0, 1, 0], [0, 0, 1], [1, 0, 0]), beta=2.0)
        assert xi == pytest.approx(1.0, abs=1e-9)


def test_spin_squeezing_moment_ordering():
    rng = generator(405)
    rho = random_density(rng, 4)
    triad = ([0, 1, 0], [0, 0, 1], [1, 0, 0])
    try:
        xi2 = bounds.spin_squeezing_xi(rho, 2, triad, beta=2.0)
    except DegenerateInputError:
        pytest.skip("random state has vanishing mean spin")
    for beta in (2.5, 3.0, 4.0):
        assert bounds.spin_squeezing_xi(rho, 2, triad, beta=beta) >= \
            xi2 - 1e-9 * max(1.0, xi2)


def test_spin_squeezing_rejects_bad_inputs():
    plus2 = np.kron(PLUS, PLUS)
    rho = np.outer(plus2, plus2.conj())
    with pytest.raises(InvalidInputError):
        bounds.spin_squeezing_xi(rho, 2, ([0, 1, 0], [0, 0, 1], [1, 0, 0]),
                                 beta=1.5)
    with pytest.raises(InvalidInputError):
        bounds.spin_squeezing_xi(rho, 2, ([0, 1, 0], [0, 1, 0], [1, 0, 0]))
    ghz3 = np.outer(ghz(3), ghz(3).conj())
    with pytest.raises(DegenerateInputError):
        bounds.spin_squeezing_xi(ghz3, 3, ([0, 1, 0], [0, 0, 1], [1, 0, 0]))


def test_spin_squeezing_normalizes_a_near_unit_triad():
    # the collective spin of the first axis, 5e-10 off unit length, raised
    zero2 = np.zeros((4, 4))
    zero2[0, 0] = 1.0
    near = bounds.spin_squeezing_xi(zero2, 2,
                                    [[1 + 5e-10, 0, 0], [0, 1, 0], [0, 0, 1]])
    unit = bounds.spin_squeezing_xi(zero2, 2, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert near == unit


# -- curve length -----------------------------------------------------


def test_curve_length_constant_speed():
    fam = ParametricFamily.unitary(SZ / 2, PLUS)
    length = bounds.curve_length(fam, 0.0, np.pi, kind="schatten", alpha=2.0)
    assert length == pytest.approx(np.pi / 2.0, abs=1e-8)
    length_b = bounds.curve_length(fam, 0.0, np.pi, kind="bures")
    assert length_b == pytest.approx(np.pi * np.sqrt(1.0 / 8.0), abs=1e-8)


def test_curve_length_interval_rules():
    fam = ParametricFamily.unitary(SZ / 2, PLUS)
    assert bounds.curve_length(fam, 0.3, 0.3) == 0.0
    with pytest.raises(InvalidInputError):
        bounds.curve_length(fam, 1.0, 0.0)


def test_curve_length_additive():
    rng = generator(406)
    fam = ParametricFamily.unitary(random_hermitian(rng, 2),
                                   random_density(rng, 2))
    whole = bounds.curve_length(fam, 0.0, 1.0, kind="trace")
    split = bounds.curve_length(fam, 0.0, 0.37, kind="trace") \
        + bounds.curve_length(fam, 0.37, 1.0, kind="trace")
    assert whole == pytest.approx(split, abs=1e-7)


def thermal_bures_length(h, beta_start, beta_end):
    """The Gibbs family's Bures length: its speed sqrt(Var_beta H / 8)
    integrated by scipy's quad."""
    import scipy.integrate

    w = np.linalg.eigvalsh(h)

    def speed(beta):
        p = np.exp(-beta * (w - w.min()))
        p /= p.sum()
        mean = np.sum(p * w)
        return np.sqrt(np.sum(p * (w - mean) ** 2) / 8.0)

    value, _ = scipy.integrate.quad(speed, beta_start, beta_end,
                                    epsabs=1e-13, epsrel=1e-13)
    return value


def counted_speeds(monkeypatch, limit=1000):
    """The thetas at which curve_length evaluates a speed; past ``limit``
    evaluations an assertion fails, so a quadrature that never stops fails
    the test instead of hanging it."""
    calls = []
    speed = quantum.statistical_speed

    def counted(*args, **kwargs):
        calls.append(args[1])
        assert len(calls) <= limit, "the quadrature does not stop"
        return speed(*args, **kwargs)

    monkeypatch.setattr(quantum, "statistical_speed", counted)
    return calls


def test_curve_length_bisects_a_varying_speed(monkeypatch):
    # a Gibbs family's speed varies with beta, so one 5-point rule cannot
    # meet the tolerance; QUADPACK's first 21-point Gauss-Kronrod rule does
    h = random_hermitian(generator(409), 3)
    calls = counted_speeds(monkeypatch)
    length = bounds.curve_length(ParametricFamily.thermal(h), 0.2, 2.0,
                                 kind="bures")
    assert len(calls) > 5
    assert length == pytest.approx(thermal_bures_length(h, 0.2, 2.0),
                                   abs=1e-8)


def test_curve_length_raises_when_the_tolerance_is_out_of_reach(monkeypatch):
    # QUADPACK detects roundoff that keeps it from 1e-300 (after 483 speeds)
    fam = ParametricFamily.thermal(random_hermitian(generator(409), 3))
    counted_speeds(monkeypatch)
    with pytest.raises(NumericalConsistencyError,
                       match="curve-length quadrature did not reach the "
                             "requested tolerance"):
        bounds.curve_length(fam, 0.2, 2.0, kind="bures", tol=1e-300)


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
def test_curve_length_rejects_a_tolerance_that_is_not_positive_finite(
        monkeypatch, tol):
    fam = ParametricFamily.thermal(random_hermitian(generator(409), 3))
    calls = counted_speeds(monkeypatch)
    with pytest.raises(InvalidInputError, match="tol must be positive"):
        bounds.curve_length(fam, 0.2, 2.0, kind="bures", tol=tol)
    assert calls == []


# -- witness ----------------------------------------------------------


def test_witness_flags_bell_pair():
    fam = ParametricFamily.unitary(jz(2), ghz(2))
    report = bounds.witness(fam, kind="ksep", alpha=1.0, k=1)
    assert report.verdict == "entangled"
    assert report.speed == pytest.approx(2.0, abs=1e-9)
    assert report.bound == pytest.approx(np.sqrt(2.0))


def test_witness_undecided_on_product_state():
    plus2 = np.kron(PLUS, PLUS)
    fam = ParametricFamily.unitary(jz(2), plus2)
    report = bounds.witness(fam, kind="ksep", alpha=1.0, k=1)
    assert report.verdict == "undecided"
    assert report.speed <= report.bound * (1 + 1e-9)


def test_witness_asep_kind():
    part = bell_partition()
    fam = ParametricFamily.unitary(jz(2), ghz(2))
    report = bounds.witness(fam, kind="asep", alpha=1.0, partition=part)
    assert report.verdict == "entangled"
    assert report.bound == pytest.approx(np.sqrt(2.0))
    with pytest.raises(InvalidInputError):
        bounds.witness(fam, kind="asep", alpha=1.0)  # no partition


def test_witness_accepts_state_generator_pairs():
    report = bounds.witness(np.outer(ghz(2), ghz(2).conj()), jz(2),
                            kind="ksep", alpha=1.0)
    assert report.verdict == "entangled"
    with pytest.raises(InvalidInputError):
        bounds.witness(np.outer(ghz(2), ghz(2).conj()), kind="ksep")


def test_witness_on_a_bare_state_builds_the_family():
    # an (h, gamma) pair builds the non-Hermitian family and a
    # superoperator the Lindblad family of the state
    rng = generator(410)
    rho = random_density(rng, 4)
    h, gamma = random_hermitian(rng, 4), 0.2 * random_density(rng, 4)
    sup = matcore.Superoperator.from_hamiltonian(h)
    for spec, fam in (((h, gamma), ParametricFamily.non_hermitian(h, gamma,
                                                                  rho)),
                      (sup, ParametricFamily.lindblad(sup, rho))):
        for alpha in (1.0, 2.0):
            assert bounds.witness(rho, spec, kind="ksep", alpha=alpha,
                                  theta=0.3) == \
                bounds.witness(fam, kind="ksep", alpha=alpha, theta=0.3)


def test_witness_rejects_non_qubit_register():
    fam = ParametricFamily.unitary(np.diag([0.0, 1.0, 2.0]),
                                   haar_state(generator(407), 3))
    with pytest.raises(InvalidInputError):
        bounds.witness(fam, kind="ksep")


def test_witness_report_json_shape():
    fam = ParametricFamily.unitary(jz(2), ghz(2))
    js = bounds.witness(fam, kind="ksep", alpha=1.0).to_json()
    assert set(js) == {"speed", "bound", "kind", "alpha", "verdict"}


def test_ghz_speed_values():
    for n in (2, 3, 4):
        fam = ParametricFamily.unitary(jz(n), ghz(n))
        assert quantum.trace_speed(fam, 0.0) == pytest.approx(float(n),
                                                              abs=1e-9)
        assert quantum.qfi(fam, 0.0) == pytest.approx(float(n * n), abs=1e-8)


# -- validation -------------------------------------------------------


AXES = ([1, 0, 0], [0, 1, 0], [0, 0, 1])
ZERO2 = np.diag([1.0, 0.0, 0.0, 0.0])


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: bounds.embed_qubit(np.eye(3), 0, 1),
                 "site operator must be 2x2, got (3, 3)", id="embed-shape"),
    pytest.param(lambda: bounds.bhatia_davis_bound(SZ, np.eye(3) / 3),
                 "dimension mismatch: H is 2, rho is 3", id="bhatia-dim"),
    pytest.param(lambda: bounds.asep_bound(np.eye(2) / 2, bell_partition(), 1.0),
                 "dimension mismatch: partition is 4, rho is 2", id="asep-dim"),
    pytest.param(lambda: Partition((), ()),
                 "partition needs at least one block", id="no-block"),
    pytest.param(lambda: Partition(((0,), ()), (np.eye(2), np.eye(2))),
                 "partition blocks must be nonempty", id="empty-block"),
    pytest.param(lambda: bounds.local_generator_sep_bound([np.eye(4)]),
                 "local generators must be superoperators", id="local-kind"),
    pytest.param(lambda: bounds.spin_squeezing_xi(ZERO2, 2, AXES[:2]),
                 "directions must be three 3-vectors", id="triad-count"),
    pytest.param(lambda: bounds.spin_squeezing_xi(
                     ZERO2, 2, ([2, 0, 0], [0, 1, 0], [0, 0, 1])),
                 "triad vectors must be unit length within 1e-9",
                 id="triad-length"),
    pytest.param(lambda: bounds.spin_squeezing_xi(
                     ZERO2, 2, ([1, 0, 0], [1, 0, 0], [0, 0, 1])),
                 "triad vectors must be orthogonal within 1e-9",
                 id="triad-orthogonal"),
    pytest.param(lambda: bounds.spin_squeezing_xi(np.eye(2) / 2, 2, AXES),
                 "rho dimension 2 does not match 2 qubits", id="xi-dim"),
    pytest.param(lambda: bounds.witness(
                     ParametricFamily.unitary(SZ / 2, PLUS), SZ / 2),
                 "a parametric family already carries its generator",
                 id="family-and-generator"),
    pytest.param(lambda: bounds.witness(
                     ParametricFamily.unitary(SZ / 2, PLUS), kind="wsep"),
                 "unknown bound kind 'wsep'", id="witness-kind"),
])
def test_bounds_validation_raises(call, message):
    with pytest.raises(InvalidInputError) as info:
        call()
    assert str(info.value) == message
