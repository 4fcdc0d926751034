"""General properties of the statistical speeds (arXiv:1712.04661) as
hypothesis properties over seeded families of every kind."""

import subprocess
import sys
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qspeed import oracle, quantum
from qspeed.errors import InvalidInputError
from qspeed.quantum import ParametricFamily

from conftest import KINDS

THETA = 0.37


def build_family(kind: str, dim: int, seed: int, pure: bool):
    """A family of the given kind from oracle.random_instance draws.

    Only unitary families take a pure state: the others would leave the
    support of rho, where the QFI is not finite.  Gamma and the jump are
    Hermitian; Gamma is PSD, so the non_hermitian trace only decays."""
    def inst(name, index):
        return oracle.random_instance(name, dim, seed, index)

    h = inst("hermitian", 0)
    rho = inst("density", 1)
    if kind == "unitary":
        return ParametricFamily.unitary(h, inst("pure", 2) if pure else rho)
    if kind == "non_hermitian":
        return ParametricFamily.non_hermitian(h, 0.5 * inst("density", 2),
                                              rho)
    if kind == "lindblad":
        jump = 0.3 * inst("hermitian", 2)
        ada, eye = jump.conj().T @ jump, np.eye(dim)
        m = (-1j * (np.kron(eye, h) - np.kron(h.T, eye))
             + np.kron(jump.conj(), jump)
             - 0.5 * np.kron(eye, ada) - 0.5 * np.kron(ada.T, eye))
        return ParametricFamily.lindblad(m, rho)
    if kind == "thermal":
        return ParametricFamily.thermal(h)
    orbit = ParametricFamily.unitary(h, rho)
    grid = THETA + 0.01 * np.arange(-2, 3)
    return ParametricFamily.table([(t, orbit.state_at(t)) for t in grid])


families = st.builds(build_family, st.sampled_from(KINDS),
                     st.integers(2, 4), st.integers(0, 2 ** 31 - 1),
                     st.booleans())


@settings(max_examples=120)
@given(families)
def test_trace_speed_squared_is_at_most_the_qfi(fam):
    f1 = quantum.trace_speed(fam, THETA)
    f2 = quantum.qfi(fam, THETA)
    assert f1 * f1 <= f2 * (1.0 + 1e-12)
    if fam.kind == "unitary" and fam.psi0 is not None:
        assert abs(f1 * f1 - f2) <= 1e-8 * f2


@settings(max_examples=60)
@given(families)
def test_far_theta_evaluates_finite_or_raises_invalid_input(fam):
    # an overflowing state or derivative raises, and no RuntimeWarning leaks
    for theta in (t * sign for t in (1e2, 1e150, 1e300, 1e308)
                  for sign in (1.0, -1.0)):
        try:
            rho, drho = fam.at(theta)
        except InvalidInputError:
            continue
        assert np.all(np.isfinite(rho)) and np.all(np.isfinite(drho))


@settings(max_examples=100)
@given(families)
def test_schatten_speed_does_not_increase_in_alpha(fam):
    # ||X||_alpha is nonincreasing in alpha for any matrix X = drho
    speeds = [quantum.schatten_speed(fam, THETA, alpha)
              for alpha in (1.0, 1.5, 2.0, 3.0, np.inf)]
    for lower, higher in zip(speeds[1:], speeds):
        assert lower <= higher * (1.0 + 1e-12)


@settings(max_examples=100)
@given(st.integers(2, 4), st.integers(0, 2 ** 31 - 1), st.booleans(),
       st.floats(-40.0, 40.0))
def test_unitary_speeds_do_not_depend_on_theta(dim, seed, pure, theta):
    # drho(theta) = U_theta (-i[H, rho_0]) U_theta^dagger has the spectrum
    # of drho(0), and rho(theta) that of rho_0
    fam = build_family("unitary", dim, seed, pure)
    speeds = (quantum.trace_speed, quantum.qfi,
              lambda f, t: quantum.schatten_speed(f, t, 1.5),
              lambda f, t: quantum.schatten_speed(f, t, 3.0))
    for speed in speeds:
        here, there = speed(fam, theta), speed(fam, 0.0)
        assert abs(here - there) <= 1e-12 * there


def draw_state(dim: int, seed: int, index: int, pure: bool):
    return oracle.random_instance("pure" if pure else "density", dim, seed,
                                  index)


def as_density(state):
    return np.outer(state, state.conj()) if state.ndim == 1 else state


@settings(max_examples=80)
@given(st.integers(2, 3), st.integers(2, 3), st.integers(0, 2 ** 31 - 1),
       st.booleans(), st.booleans())
def test_qfi_is_additive_over_independent_systems(d_a, d_b, seed, pure_a,
                                                  pure_b):
    h_a = oracle.random_instance("hermitian", d_a, seed, 0)
    h_b = oracle.random_instance("hermitian", d_b, seed, 1)
    rho_a = draw_state(d_a, seed, 2, pure_a)
    rho_b = draw_state(d_b, seed, 3, pure_b)
    h_ab = np.kron(h_a, np.eye(d_b)) + np.kron(np.eye(d_a), h_b)
    # two vectors or two matrices give the product's vector or matrix
    rho_ab = (np.kron(rho_a, rho_b) if pure_a == pure_b
              else np.kron(as_density(rho_a), as_density(rho_b)))
    f_ab = quantum.qfi(ParametricFamily.unitary(h_ab, rho_ab), THETA)
    f_a = quantum.qfi(ParametricFamily.unitary(h_a, rho_a), THETA)
    f_b = quantum.qfi(ParametricFamily.unitary(h_b, rho_b), THETA)
    assert abs(f_ab - (f_a + f_b)) <= 1e-9 * (f_a + f_b)


@settings(max_examples=80)
@given(st.integers(2, 3), st.integers(2, 3), st.integers(0, 2 ** 31 - 1),
       st.booleans())
def test_speeds_do_not_increase_under_a_partial_trace(d_s, d_e, seed, pure):
    h = oracle.random_instance("hermitian", d_s, seed, 0)
    rho_se = as_density(draw_state(d_s * d_e, seed, 1, pure))
    rho_s = np.trace(rho_se.reshape(d_s, d_e, d_s, d_e), axis1=1, axis2=3)
    joint = ParametricFamily.unitary(np.kron(h, np.eye(d_e)), rho_se)
    reduced = ParametricFamily.unitary(h, rho_s)
    for speed in (quantum.trace_speed, quantum.qfi):
        assert speed(reduced, THETA) <= speed(joint, THETA) * (1.0 + 1e-12)


# -- a failing property reports like any failing test ------------------

_FAILING_PROPERTY = """
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_a_failing_property(n):
    assert n < 0


def test_a_plain_test_after_it():
    pass
"""


def test_a_failing_property_does_not_end_the_session(tmp_path):
    # hypothesis's report hook imports libcst, which warns with a
    # DeprecationWarning; under this suite's warning filters that ended
    # the session with an INTERNALERROR before the next test ran
    (tmp_path / "test_failing.py").write_text(_FAILING_PROPERTY)
    config = Path(__file__).resolve().parents[1] / "pyproject.toml"
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(config), "--rootdir", str(tmp_path), "test_failing.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout
    assert proc.returncode == 1
