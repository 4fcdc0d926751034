"""General properties of the statistical speeds (arXiv:1712.04661) as
hypothesis properties over seeded families of every kind."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qspeed import oracle, quantum
from qspeed.errors import InvalidInputError
from qspeed.quantum import ParametricFamily

THETA = 0.37
KINDS = ("unitary", "non_hermitian", "lindblad", "thermal", "table")


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
