"""Acceptance suite: the nine pass/fail properties of the package.

Each test is self-contained, seeded, and states its tolerance inline.
"""

import math
import time

import numpy as np
import pytest
import scipy.linalg

from qspeed import bounds, classical, estimation, matcore, oracle, quantum
from qspeed.classical import ParametricDist, dist_alpha, gen_fisher
from qspeed.oracle import SearchConfig, brute_force_max, finite_diff_speed
from qspeed.quantum import ParametricFamily
from qspeed.seeding import generator

from conftest import SZ, ghz, jz


def unitary_family(dim: int, seed: int, index: int, pure: bool = False):
    h = oracle.random_instance("hermitian", dim, seed, index)
    if pure:
        psi = oracle.random_instance("pure", dim, seed + 1, index)
        return ParametricFamily.unitary(h, psi)
    rho = oracle.random_instance("density", dim, seed + 1, index)
    return ParametricFamily.unitary(h, rho)


def test_criterion_01():
    # POVM maximization commutes with the closed forms: the searched
    # maxima of f_1, f_2, sf_alpha never exceed F_1, F_2, SF_alpha by more
    # than 1e-9 and attain them within 1e-6 for alpha in {1, 2}; 200
    # seeded qubit and qutrit families, restarts=32, under 5 minutes.
    start = time.monotonic()
    cfg = SearchConfig(restarts=32, seed=0)
    for index in range(200):
        dim = 2 if index % 2 == 0 else 3
        fam = unitary_family(dim, 1000 + 10 * dim, index)
        closed = {
            ("f_alpha", 1.0): quantum.trace_speed(fam, 0.0),
            ("f_alpha", 2.0): quantum.qfi(fam, 0.0),
        }
        for alpha in (1.0, 1.5, 2.0, 3.0):
            closed[("sf_alpha", alpha)] = quantum.schatten_speed(fam, 0.0,
                                                                 alpha)
        for (objective, alpha), cap in closed.items():
            value, _ = brute_force_max(fam, 0.0, objective, alpha, cfg=cfg)
            assert value <= cap + 1e-9 * max(1.0, cap)
            if alpha in (1.0, 2.0):
                assert value >= cap - 1e-6 * max(1.0, cap)
    assert time.monotonic() - start <= 300.0


def test_criterion_02():
    # pure states saturate F_1 = sqrt(F_2) within 1e-8 on 500 random pure
    # families of dim <= 8, non-Hermitian generators included; mixed
    # states stay strictly below.
    dims = [2, 3, 4, 5, 6, 7, 8]
    for index in range(500):
        dim = dims[index % len(dims)]
        seed = 1100 + 10 * dim
        h = oracle.random_instance("hermitian", dim, seed, index)
        psi = oracle.random_instance("pure", dim, seed + 1, index)
        if index % 5 == 2:
            gamma = oracle.random_instance("hermitian", dim, seed + 2, index)
            fam = ParametricFamily.non_hermitian(h, gamma, psi)
        else:
            fam = ParametricFamily.unitary(h, psi)
        f1 = quantum.trace_speed(fam, 0.0)
        f2 = quantum.qfi(fam, 0.0)
        assert abs(f1 - math.sqrt(f2)) <= 1e-8 * max(1.0, f1)
    for index in range(60):
        dim = 2 + index % 3
        fam = unitary_family(dim, 1150 + 10 * dim, index)
        f1 = quantum.trace_speed(fam, 0.0)
        f2 = quantum.qfi(fam, 0.0)
        assert f1 <= math.sqrt(f2) + 1e-9
        if dim > 2:
            # qubit unitary families saturate even when mixed (the Bloch
            # vector rotates rigidly); higher dims are strictly below
            assert math.sqrt(f2) - f1 > 1e-9


def test_criterion_03():
    # the two-projector measurement turns every alpha into the same
    # number: f_alpha^{1/alpha} = 2 Delta H within 1e-8, 100 random
    # (psi, H) qubit and qutrit pairs.
    for index in range(100):
        dim = 2 if index % 2 == 0 else 3
        seed = 1200 + 10 * dim
        h = oracle.random_instance("hermitian", dim, seed, index)
        psi = oracle.random_instance("pure", dim, seed + 1, index)
        mean = float((psi.conj() @ h @ psi).real)
        second = float((psi.conj() @ h @ h @ psi).real)
        delta = math.sqrt(max(second - mean * mean, 0.0))
        povm = quantum.pure_two_projector_povm(psi, h)
        fam = ParametricFamily.unitary(h, psi)
        induced = quantum.induced_parametric(fam, 0.0, povm)
        for alpha in (1.0, 1.25, 1.5, 2.0, 3.0):
            value = gen_fisher(induced, alpha) ** (1.0 / alpha)
            assert abs(value - 2.0 * delta) <= 1e-8 * max(1.0, delta)


def _fuchs_caves_pair(rho, sigma):
    # eigenbasis of sigma^{-1/2} |sqrt(sigma) rho^{1/2}| ... the projective
    # measurement attaining the classical root fidelity
    rs = scipy.linalg.sqrtm(sigma)
    rs = (rs + rs.conj().T) / 2
    inner = scipy.linalg.sqrtm(rs @ rho @ rs)
    inner = (inner + inner.conj().T) / 2
    ris = np.linalg.inv(rs)
    m = ris @ inner @ ris
    _, v = np.linalg.eigh((m + m.conj().T) / 2)
    dim = rho.shape[0]
    p = np.array([float((v[:, j].conj() @ rho @ v[:, j]).real)
                  for j in range(dim)])
    q = np.array([float((v[:, j].conj() @ sigma @ v[:, j]).real)
                  for j in range(dim)])
    return np.clip(p, 0.0, None), np.clip(q, 0.0, None)


def test_criterion_04():
    # hierarchy chains hold with zero violations beyond 1e-9 slack, at
    # least 200 random instances each.
    alphas = (1.0, 1.25, 1.5, 2.0, 3.0)

    # d_alpha^alpha is monotone decreasing in alpha
    for index in range(220):
        rng = generator(1300, index)
        dim = 2 + index % 7
        p = rng.dirichlet(np.ones(dim))
        q = rng.dirichlet(np.ones(dim))
        powers = [dist_alpha(p, q, a) ** a for a in alphas]
        for lo, hi in zip(powers[1:], powers[:-1]):
            assert lo <= hi + 1e-9

    # f_alpha^{1/alpha} is monotone increasing in alpha
    for index in range(220):
        rng = generator(1310, index)
        dim = 2 + index % 7
        w = 0.05 + rng.random(dim)
        w = w / w.sum()
        d = rng.normal(size=dim)
        d -= d.mean()
        dist = ParametricDist(w, d)
        roots = [gen_fisher(dist, a) ** (1.0 / a) for a in alphas]
        for lo, hi in zip(roots[:-1], roots[1:]):
            assert hi >= lo - 1e-9

    # SF_alpha is monotone decreasing in alpha, anchored at F_1
    for index in range(200):
        dim = 2 + index % 3
        fam = unitary_family(dim, 1320 + 10 * dim, index)
        f1 = quantum.trace_speed(fam, 0.0)
        chain = [quantum.schatten_speed(fam, 0.0, a)
                 for a in (1.0, 1.5, 2.0, 3.0, math.inf)]
        assert abs(chain[0] - f1) <= 1e-9 * max(1.0, f1)
        for hi, lo in zip(chain[:-1], chain[1:]):
            assert lo <= hi + 1e-9

    # D_2^2 <= D_alpha^alpha <= D_1 through the fidelity-optimal
    # measurement on mixed pairs
    for index in range(200):
        dim = 2 + index % 2
        rho = oracle.random_instance("density", dim, 1330, index)
        sigma = oracle.random_instance("density", dim, 1331, index)
        d1 = quantum.trace_distance(rho, sigma)
        d2sq = quantum.bures_distance(rho, sigma) ** 2
        assert d2sq <= d1 + 1e-9
        p, q = _fuchs_caves_pair(rho, sigma)
        assert abs(dist_alpha(p, q, 2.0) ** 2 - d2sq) <= 1e-9
        for alpha in (1.25, 1.5, 1.75):
            mid = dist_alpha(p, q, alpha) ** alpha
            assert d2sq <= mid + 1e-9
            assert mid <= d1 + 1e-9

    # pure-state sandwich: 1 - |<Psi|Phi>| <= D_alpha^alpha
    # <= sqrt(1 - |<Psi|Phi>|^2), via the mirror measurement whose two
    # outcomes attain both ends
    for index in range(200):
        dim = 2 + index % 3
        psi = oracle.random_instance("pure", dim, 1340, index)
        phi = oracle.random_instance("pure", dim, 1341, index)
        o = complex(psi.conj() @ phi)
        if abs(o) > 1e-12:
            phi = phi * (o.conjugate() / abs(o))  # real overlap
        o = abs(o)
        rho = np.outer(psi, psi.conj())
        tau = np.outer(phi, phi.conj())
        assert abs(quantum.bures_distance(rho, tau) ** 2 - (1 - o)) <= 1e-9
        assert abs(quantum.trace_distance(rho, tau)
                   - math.sqrt(1 - o * o)) <= 1e-9
        b = psi + phi
        m = psi - phi
        b = b / np.linalg.norm(b)
        m = m - (b.conj() @ m) * b
        m = m / np.linalg.norm(m)
        a_vec = (b + m) / math.sqrt(2.0)
        c_vec = (b - m) / math.sqrt(2.0)
        povm = quantum.POVM([
            np.outer(a_vec, a_vec.conj()),
            np.outer(c_vec, c_vec.conj()),
            np.eye(dim) - np.outer(a_vec, a_vec.conj())
            - np.outer(c_vec, c_vec.conj()),
        ])
        p = quantum.induced_dist(rho, povm)
        q = quantum.induced_dist(tau, povm)
        for alpha in (1.0, 1.25, 1.5, 2.0):
            mid = dist_alpha(p, q, alpha) ** alpha
            assert 1 - o <= mid + 1e-9
            assert mid <= math.sqrt(1 - o * o) + 1e-9


def test_criterion_05():
    # speeds are distance derivatives: finite differences of the Bures,
    # trace, and Schatten distances match S_2, S_1, and the Schatten
    # speeds within the Richardson error bar; 100 random families.
    for index in range(100):
        dim = 2 if index % 5 < 3 else 3
        fam = unitary_family(dim, 1400 + 10 * dim, index)
        theta = 0.3
        est, bar = finite_diff_speed(fam, theta, kind="trace")
        assert abs(est - quantum.trace_speed(fam, theta) / 2.0) <= bar
        # larger Bures step keeps truncation above the fidelity rounding
        est, bar = finite_diff_speed(fam, theta, kind="bures", h=3e-3)
        assert abs(est - math.sqrt(quantum.qfi(fam, theta) / 8.0)) <= bar
        for alpha in (1.5, 3.0):
            est, bar = finite_diff_speed(fam, theta, kind="schatten",
                                         alpha=alpha)
            target = 2.0 ** (-1.0 / alpha) * quantum.schatten_speed(
                fam, theta, alpha)
            assert abs(est - target) <= bar


def test_criterion_06():
    # reference numbers: separable cap N, Heisenberg cap N^2, GHZ speeds,
    # sqrt(N) one-entangled-qubit cap, and the thermal qubit pair.
    for n in (2, 3, 4):
        local = [matcore.Superoperator.from_hamiltonian(SZ / 2)
                 for _ in range(n)]
        assert bounds.local_generator_sep_bound(local) == pytest.approx(
            float(n), abs=1e-9)
        assert bounds.heisenberg_limit(jz(n)).f2_max == pytest.approx(
            float(n * n), abs=1e-9)
        fam = ParametricFamily.unitary(jz(n), ghz(n))
        assert quantum.trace_speed(fam, 0.0) == pytest.approx(float(n),
                                                              abs=1e-9)
        assert quantum.qfi(fam, 0.0) == pytest.approx(float(n * n), abs=1e-9)
        assert bounds.ksep_bound(n, 1, 1.0) == pytest.approx(math.sqrt(n),
                                                             abs=1e-12)
    thermal = quantum.thermal_family(np.diag([0.0, 1.0]))
    beta = math.log(3.0)
    assert quantum.trace_speed(thermal, beta) == pytest.approx(0.375,
                                                               abs=1e-10)
    assert quantum.qfi(thermal, beta) == pytest.approx(0.1875, abs=1e-10)


def test_criterion_07():
    # non-Hermitian chain: the pure-state closed form matches the
    # finite-difference trace speed of the integrated evolution within
    # 1e-6 on 100 random qubit triples, and the commuting 2x2 shift
    # minimum matches an independent 1-D minimization within 1e-8.
    for index in range(100):
        h = oracle.random_instance("hermitian", 2, 1500, index)
        gamma = oracle.random_instance("hermitian", 2, 1501, index)
        psi = oracle.random_instance("pure", 2, 1502, index)
        closed = quantum.nonhermitian_pure_speed(psi, h, gamma, 1.0)
        fam = ParametricFamily.non_hermitian(h, gamma, psi)
        est, _ = finite_diff_speed(fam, 0.0, kind="trace")
        assert abs(2.0 * est - closed) <= 1e-6 * max(1.0, closed)

    for index in range(60):
        rng = generator(1510, index)
        u = oracle.haar_unitary(2, rng)
        hvals = np.sort(rng.normal(size=2) * 2.0)
        gvals = rng.normal(size=2) * 2.0
        h = (u * hvals) @ u.conj().T
        gamma = (u * gvals) @ u.conj().T
        res = bounds.nonhermitian_speed_bound(h, gamma)

        def q(r):
            return max(math.hypot(hvals[0] - r, gvals[0]),
                       math.hypot(hvals[1] - r, gvals[1]))

        lo = float(hvals[0]) - float(np.abs(gvals).max()) - 1.0
        hi = float(hvals[1]) + float(np.abs(gvals).max()) + 1.0
        grid = np.linspace(lo, hi, 20001)
        j = int(np.argmin([q(r) for r in grid]))
        a, b = grid[max(j - 1, 0)], grid[min(j + 1, len(grid) - 1)]
        for _ in range(200):  # bisect the convex objective
            m1 = a + (b - a) / 3
            m2 = b - (b - a) / 3
            if q(m1) < q(m2):
                b = m2
            else:
                a = m1
        qmin = q(0.5 * (a + b))
        assert abs(2.0 * qmin - res.f1_bound) <= 1e-8 * max(1.0,
                                                            res.f1_bound)


def test_criterion_08():
    # estimation chain: discrimination reproduces (1 + D_1)/2 at 1e6
    # trials within 3 binomial sigma; the Cauchy median dispersion lands
    # within 5% of pi/2 (m=101, 20000 replicas, under 2 minutes); no
    # model violates the dispersion bound beyond 3 sigma; no measurement
    # beats the quantum bound 1/F_1.
    z0 = np.diag([1.0, 0.0]).astype(complex)
    plus = np.full((2, 2), 0.5, dtype=complex)
    trials = 1_000_000
    povm = estimation.discrimination_povm(z0, plus)
    rate = estimation.discrimination_game(z0, plus, povm, trials, seed=3)
    target = estimation.discrimination_probability(z0, plus)
    sigma = math.sqrt(target * (1.0 - target) / trials)
    assert abs(rate - target) <= 3.0 * sigma

    rho = oracle.random_instances("density", 3, 1600)[0]
    tau = oracle.random_instances("density", 3, 1601)[0]
    povm = estimation.discrimination_povm(rho, tau)
    rate = estimation.discrimination_game(rho, tau, povm, trials, seed=4)
    target = estimation.discrimination_probability(rho, tau)
    sigma = math.sqrt(target * (1.0 - target) / trials)
    assert abs(rate - target) <= 3.0 * sigma

    start = time.monotonic()
    cauchy = estimation.median_dispersion_vs_bound(
        estimation.cauchy_location(1.0), 0.0, m=101, trials=20000, seed=5)
    assert time.monotonic() - start <= 120.0
    assert abs(cauchy.dispersion - math.pi / 2.0) <= 0.05 * math.pi / 2.0
    assert cauchy.satisfied

    for factory, seed in ((estimation.gaussian_location, 6),
                          (estimation.laplace_location, 7)):
        res = estimation.median_dispersion_vs_bound(
            factory(1.0), 0.0, m=101, trials=5000, seed=seed)
        assert res.satisfied

    fams = [ParametricFamily.unitary(SZ / 2,
                                     np.array([1.0, 1.0]) / math.sqrt(2.0)),
            unitary_family(2, 1610, 0)]
    for fam in fams:
        big_f1 = quantum.trace_speed(fam, 0.0)
        povms = [quantum.optimal_povm(fam, 0.0, target="trace_speed"),
                 quantum.basis_povm(2)]
        povms += oracle.random_instances("povm", 2, 1620, count=6)
        for povm in povms:
            induced = quantum.induced_parametric(fam, 0.0, povm)
            f1 = gen_fisher(induced, 1.0)
            # measured information never beats the quantum value, so the
            # quantum dispersion bound 1/F_1 is the lowest floor
            assert f1 <= big_f1 * (1.0 + 1e-9) + 1e-12


def test_criterion_09():
    # the witness never calls a product state entangled (500 random
    # product states, ksep and asep caps, alpha in {1, 2}) and does flag
    # the Bell pair and the GHZ triple.
    singles = {
        n: bounds.Partition(
            tuple((i,) for i in range(n)),
            tuple(bounds.embed_qubit(SZ / 2, i, n) for i in range(n)),
        )
        for n in (2, 3)
    }
    for index in range(500):
        n = 2 if index % 2 == 0 else 3
        psi = oracle.random_instance("product_state", n, 1700, index)
        fam = ParametricFamily.unitary(jz(n), psi)
        for alpha in (1.0, 2.0):
            assert bounds.witness(fam, kind="ksep", alpha=alpha,
                                  k=1).verdict == "undecided"
            assert bounds.witness(fam, kind="asep", alpha=alpha,
                                  partition=singles[n]).verdict == "undecided"

    for n, state in ((2, ghz(2)), (3, ghz(3))):
        fam = ParametricFamily.unitary(jz(n), state)
        for alpha in (1.0, 2.0):
            assert bounds.witness(fam, kind="ksep", alpha=alpha,
                                  k=1).verdict == "entangled"
            assert bounds.witness(fam, kind="asep", alpha=alpha,
                                  partition=singles[n]).verdict == "entangled"
