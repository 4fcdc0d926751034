"""Brute-force verifiers: random instances, finite-difference speeds with
error bars, and the measurement-search maximizer."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qspeed import matcore, oracle, quantum
from qspeed.errors import InvalidInputError
from qspeed.oracle import (SearchConfig, brute_force_max, finite_diff_speed,
                           haar_unitary, random_instance, random_instances)
from qspeed.quantum import ParametricFamily
from qspeed.seeding import generator

SZ = np.diag([1.0, -1.0]).astype(complex)
PLUS = np.array([1.0, 1.0]) / np.sqrt(2.0)
Z0 = np.diag([1.0, 0.0]).astype(complex)
PLUS_RHO = np.full((2, 2), 0.5, dtype=complex)

FAST = SearchConfig(restarts=8, seed=0)


def plus_family():
    return ParametricFamily.unitary(SZ / 2, PLUS)


def random_qubit_family(seed):
    rng = generator(700, seed)
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    h = (g + g.conj().T) / 2
    g2 = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho = g2 @ g2.conj().T
    rho = rho / np.trace(rho).real
    return ParametricFamily.unitary(h, rho)


# -- config and random instances --------------------------------------


def test_search_config_validation():
    SearchConfig(restarts=1)
    with pytest.raises(InvalidInputError):
        SearchConfig(restarts=0)


def test_haar_unitary_is_unitary_and_seeded():
    u = haar_unitary(4, generator(701))
    assert np.allclose(u.conj().T @ u, np.eye(4), atol=1e-12)
    v = haar_unitary(4, generator(701))
    assert np.array_equal(u, v)


def test_random_instances_density():
    for rho in random_instances("density", 3, 702, count=4):
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
        assert matcore.hermiticity_defect(rho) < 1e-12
        assert np.linalg.eigvalsh(rho)[0] > -1e-12


def test_random_instances_pure_and_hermitian():
    for psi in random_instances("pure", 4, 703, count=3):
        assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)
    for h in random_instances("hermitian", 3, 704, count=3):
        assert matcore.hermiticity_defect(h) < 1e-12


def test_random_instances_povm():
    for povm in random_instances("povm", 3, 705, count=3):
        total = sum(povm.elements)
        assert np.allclose(total, np.eye(3), atol=1e-10)
        for e in povm.elements:
            assert np.allclose(e @ e, e, atol=1e-10)  # rank-1 projector


def test_random_instances_product_state():
    for psi in random_instances("product_state", 3, 706, count=3):
        assert psi.shape == (8,)
        assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)
        for cut in (2, 4):
            s = np.linalg.svd(psi.reshape(cut, -1), compute_uv=False)
            assert s[0] == pytest.approx(1.0, abs=1e-12)  # Schmidt rank 1


def test_random_instances_keyed_by_index():
    long = random_instances("density", 3, 707, count=5)
    short = random_instances("density", 3, 707, count=3)
    for a, b in zip(short, long):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("kind, dim", [("density", 3), ("pure", 4),
                                       ("hermitian", 3), ("povm", 2),
                                       ("product_state", 3)])
def test_random_instance_matches_list_path(kind, dim):
    # the single-instance path returns the list path's entry bit for bit
    listed = random_instances(kind, dim, 708, count=6)
    for index in (0, 2, 5):
        one = random_instance(kind, dim, 708, index)
        if kind == "povm":
            assert len(one) == len(listed[index])
            for a, b in zip(one, listed[index]):
                assert np.array_equal(a, b)
        else:
            assert np.array_equal(one, listed[index])


def test_random_instances_validation():
    with pytest.raises(InvalidInputError):
        random_instances("werner", 2, 0)
    with pytest.raises(InvalidInputError):
        random_instance("werner", 2, 0, 3)
    with pytest.raises(InvalidInputError):
        random_instances("density", 0, 0)
    with pytest.raises(InvalidInputError):
        random_instances("density", 2, 0, count=-1)


# -- finite-difference speeds -----------------------------------------


def test_finite_diff_matches_bures_speed():
    # the step keeps truncation above the rounding noise of the fidelity
    est, bar = finite_diff_speed(plus_family(), 0.2, kind="bures", h=3e-3)
    assert abs(est - math.sqrt(1.0 / 8.0)) <= bar
    assert bar < 1e-5


def test_finite_diff_matches_trace_speed():
    est, bar = finite_diff_speed(plus_family(), 0.0, kind="trace")
    assert abs(est - 0.5) <= bar


def test_finite_diff_matches_schatten_speeds():
    # pure-state speeds equal Delta H = 1/2 for every alpha
    for alpha in (1.5, 2.0, 3.0):
        est, bar = finite_diff_speed(plus_family(), 0.1, kind="schatten",
                                     alpha=alpha)
        assert abs(est - 0.5) <= bar
    est, bar = finite_diff_speed(plus_family(), 0.1, kind="schatten",
                                 alpha=math.inf)
    assert abs(est - 0.5) <= bar  # sup norm of the derivative


@pytest.mark.parametrize("seed", range(5))
def test_finite_diff_bar_brackets_closed_forms(seed):
    fam = random_qubit_family(seed)
    est, bar = finite_diff_speed(fam, 0.3, kind="trace")
    assert abs(est - quantum.trace_speed(fam, 0.3) / 2.0) <= bar
    est, bar = finite_diff_speed(fam, 0.3, kind="bures", h=3e-3)
    assert abs(est - math.sqrt(quantum.qfi(fam, 0.3) / 8.0)) <= bar
    for alpha in (1.5, 3.0):
        est, bar = finite_diff_speed(fam, 0.3, kind="schatten", alpha=alpha)
        target = 2.0 ** (-1.0 / alpha) * quantum.schatten_speed(fam, 0.3,
                                                                alpha)
        assert abs(est - target) <= bar


def test_finite_diff_validation():
    fam = plus_family()
    with pytest.raises(InvalidInputError):
        finite_diff_speed(fam, 0.0, h=1e-7)
    with pytest.raises(InvalidInputError):
        finite_diff_speed(fam, 0.0, h=0.1)
    with pytest.raises(InvalidInputError):
        finite_diff_speed(fam, 0.0, alpha=0.5)
    with pytest.raises(InvalidInputError):
        finite_diff_speed(fam, 0.0, kind="hellinger")


# -- measurement search -----------------------------------------------


def test_search_attains_trace_speed():
    value, povm = brute_force_max(plus_family(), 0.0, "f_alpha", 1.0,
                                  cfg=FAST)
    assert value == pytest.approx(1.0, abs=1e-6)
    assert value <= 1.0 + 1e-9
    total = sum(povm.elements)
    assert np.allclose(total, np.eye(2), atol=1e-10)


def test_search_attains_qfi():
    value, _ = brute_force_max(plus_family(), 0.0, "f_alpha", 2.0, cfg=FAST)
    assert value == pytest.approx(1.0, abs=1e-6)
    assert value <= 1.0 + 1e-9


def test_search_attains_schatten_speed():
    value, _ = brute_force_max(plus_family(), 0.0, "sf_alpha", 2.0, cfg=FAST)
    assert value == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-6)
    value, _ = brute_force_max(plus_family(), 0.0, "sf_alpha", math.inf,
                               cfg=FAST)
    assert value == pytest.approx(0.5, abs=1e-6)


def test_search_attains_qutrit_closed_forms():
    h = np.diag([0.0, 1.0, 3.0]).astype(complex)
    psi = np.array([1.0, 0.0, 1.0]) / np.sqrt(2.0)
    fam = ParametricFamily.unitary(h, psi)
    cfg = SearchConfig(restarts=16, seed=1)
    value, _ = brute_force_max(fam, 0.0, "f_alpha", 1.0, cfg=cfg)
    assert value == pytest.approx(3.0, abs=1e-6)  # 2 Delta H
    value, _ = brute_force_max(fam, 0.0, "f_alpha", 2.0, cfg=cfg)
    assert value == pytest.approx(9.0, abs=1e-6)  # 4 (Delta H)^2


@pytest.mark.parametrize("seed", range(4))
def test_search_never_exceeds_closed_forms(seed):
    fam = random_qubit_family(seed)
    f1 = quantum.trace_speed(fam, 0.0)
    f2 = quantum.qfi(fam, 0.0)
    value, _ = brute_force_max(fam, 0.0, "f_alpha", 1.0, cfg=FAST)
    assert value <= f1 + 1e-9 * max(1.0, f1)
    value, _ = brute_force_max(fam, 0.0, "f_alpha", 2.0, cfg=FAST)
    assert value <= f2 + 1e-9 * max(1.0, f2)
    for alpha in (1.5, 3.0):
        cap = quantum.schatten_speed(fam, 0.0, alpha)
        value, _ = brute_force_max(fam, 0.0, "sf_alpha", alpha, cfg=FAST)
        assert value <= cap + 1e-9 * max(1.0, cap)


def test_search_attains_trace_distance():
    value, _ = brute_force_max(Z0, 0.0, "d_alpha", 1.0, cfg=FAST,
                               partner=PLUS_RHO)
    assert value == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-6)
    assert value <= 1.0 / math.sqrt(2.0) + 1e-9


def test_search_attains_hellinger_distance():
    value, _ = brute_force_max(Z0, 0.0, "d_alpha", 2.0, cfg=FAST,
                               partner=PLUS_RHO)
    target = quantum.bures_distance(Z0, PLUS_RHO)
    assert value == pytest.approx(target, abs=1e-6)
    assert value <= target + 1e-9


def test_search_attains_schatten_distances():
    for alpha, target in ((1.0, 1.0 / math.sqrt(2.0)),
                          (2.0, 1.0 / math.sqrt(2.0)),
                          (math.inf, 1.0 / math.sqrt(2.0))):
        value, _ = brute_force_max(Z0, 0.0, "sd_alpha", alpha, cfg=FAST,
                                   partner=PLUS_RHO)
        assert value == pytest.approx(target, abs=1e-6)
        assert value <= target + 1e-9


def test_search_accepts_family_with_partner():
    fam = plus_family()
    value, _ = brute_force_max(fam, math.pi / 2, "d_alpha", 1.0, cfg=FAST,
                               partner=PLUS_RHO)
    target = quantum.trace_distance(fam.state_at(math.pi / 2), PLUS_RHO)
    assert value == pytest.approx(target, abs=1e-6)


def test_search_deterministic():
    a, pa = brute_force_max(plus_family(), 0.0, "f_alpha", 1.5, cfg=FAST)
    b, pb = brute_force_max(plus_family(), 0.0, "f_alpha", 1.5, cfg=FAST)
    assert a == b
    for ea, eb in zip(pa.elements, pb.elements):
        assert np.array_equal(ea, eb)


def test_search_dimension_guard():
    rho = np.eye(5, dtype=complex) / 5.0
    with pytest.raises(InvalidInputError):
        brute_force_max(rho, 0.0, "d_alpha", 1.0, cfg=FAST,
                        partner=np.eye(5, dtype=complex) / 5.0)


def test_search_objective_validation():
    fam = plus_family()
    with pytest.raises(InvalidInputError):
        brute_force_max(fam, 0.0, "g_alpha", 1.0, cfg=FAST)
    with pytest.raises(InvalidInputError):
        brute_force_max(fam, 0.0, "f_alpha", math.inf, cfg=FAST)
    with pytest.raises(InvalidInputError):
        brute_force_max(fam, 0.0, "d_alpha", math.inf, cfg=FAST,
                        partner=PLUS_RHO)
    with pytest.raises(InvalidInputError):
        brute_force_max(fam, 0.0, "f_alpha", 0.5, cfg=FAST)
    with pytest.raises(InvalidInputError):
        brute_force_max(fam, 0.0, "d_alpha", 1.0, cfg=FAST)  # no partner
    with pytest.raises(InvalidInputError):
        brute_force_max(fam, 0.0, "f_alpha", 1.0, cfg=FAST,
                        partner=PLUS_RHO)  # stray partner
    with pytest.raises(InvalidInputError):
        brute_force_max(Z0, 0.0, "f_alpha", 1.0, cfg=FAST)  # not a family


# values the scalar search (one restart after another) returned for these
# inputs; the batched search must reproduce them
PINNED = {
    (2, "f_alpha", 1.0): 2.1681157183157804,
    (2, "f_alpha", 1.5): 3.192446933797024,
    (2, "f_alpha", 2.0): 4.700725768007938,
    (2, "sf_alpha", 1.5): 1.7208345860216292,
    (2, "sf_alpha", 3.0): 1.3658273160569976,
    (2, "sf_alpha", math.inf): 1.0840578591578904,
    (2, "d_alpha", 1.0): 0.8032117532564097,
    (2, "d_alpha", 2.0): 0.6413526323178637,
    (2, "sd_alpha", 1.5): 0.8032117532564097,
    (2, "sd_alpha", math.inf): 0.8032117532564099,
    (3, "f_alpha", 1.0): 1.794946666404987,
    (3, "f_alpha", 1.5): 2.794336634584954,
    (3, "f_alpha", 2.0): 4.608065380178097,
    (3, "sf_alpha", 1.5): 1.3554397463956023,
    (3, "sf_alpha", 3.0): 1.0615229877583305,
    (3, "sf_alpha", math.inf): 0.8974733332024954,
    (3, "d_alpha", 1.0): 0.737918185309735,
    (3, "d_alpha", 2.0): 0.6228118611947683,
    (3, "sd_alpha", 1.5): 0.7209973714140161,
    (3, "sd_alpha", math.inf): 0.7379181853097361,
}


@pytest.mark.parametrize("dim, objective, alpha", sorted(PINNED))
def test_search_pinned_values(dim, objective, alpha):
    if objective in ("f_alpha", "sf_alpha"):
        fam = ParametricFamily.unitary(
            random_instance("hermitian", dim, 4100 + dim, 0),
            random_instance("density", dim, 4200 + dim, 0))
        value, _ = brute_force_max(fam, 0.0, objective, alpha, cfg=FAST)
    else:
        value, _ = brute_force_max(
            random_instance("density", dim, 4300 + dim, 0), 0.0, objective,
            alpha, cfg=FAST,
            partner=random_instance("density", dim, 4400 + dim, 0))
    assert value == pytest.approx(PINNED[dim, objective, alpha], rel=1e-12)


def test_search_restarts_past_one_block():
    fam = random_qubit_family(9)
    block = oracle._BLOCK
    one, _ = brute_force_max(fam, 0.0, "f_alpha", 1.5,
                             cfg=SearchConfig(restarts=block))
    more = [brute_force_max(fam, 0.0, "f_alpha", 1.5,
                            cfg=SearchConfig(restarts=block + 1))[0]
            for _ in range(2)]
    assert more[0] == more[1]
    assert more[0] >= one


def test_search_blocks_bound_the_batch(monkeypatch):
    fam = random_qubit_family(10)
    cfg = SearchConfig(restarts=7, seed=2)
    whole, _ = brute_force_max(fam, 0.0, "f_alpha", 2.0, cfg=cfg)
    sizes = []
    search_block = oracle._search_block

    def recording(rho, x, starts, *args):
        sizes.append(len(starts))
        return search_block(rho, x, starts, *args)

    monkeypatch.setattr(oracle, "_BLOCK", 3)
    monkeypatch.setattr(oracle, "_search_block", recording)
    split, _ = brute_force_max(fam, 0.0, "f_alpha", 2.0, cfg=cfg)
    assert sizes == [3, 3, 1]
    assert split == pytest.approx(whole, rel=1e-12)


_entry = st.floats(-5.0, 5.0, allow_nan=False, allow_infinity=False)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(h=st.tuples(_entry, _entry, _entry, _entry),
       bloch=st.tuples(_entry, _entry, _entry))
def test_search_never_exceeds_closed_forms_property(h, bloch):
    ham = np.array([[h[0], h[2] + 1j * h[3]], [h[2] - 1j * h[3], h[1]]])
    r = np.array(bloch) / max(5.0, float(np.linalg.norm(bloch)))
    rho = 0.5 * np.array([[1.0 + r[2], r[0] - 1j * r[1]],
                          [r[0] + 1j * r[1], 1.0 - r[2]]])
    fam = ParametricFamily.unitary(ham, rho)
    closed = {("f_alpha", 1.0): quantum.trace_speed(fam, 0.0),
              ("f_alpha", 2.0): quantum.qfi(fam, 0.0)}
    for alpha in (1.5, 3.0, math.inf):
        closed["sf_alpha", alpha] = quantum.schatten_speed(fam, 0.0, alpha)
    cfg = SearchConfig(restarts=2, seed=0)
    for (objective, alpha), cap in closed.items():
        value, _ = brute_force_max(fam, 0.0, objective, alpha, cfg=cfg)
        assert value <= cap + 1e-9 * max(1.0, cap)
