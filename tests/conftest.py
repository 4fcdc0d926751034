"""Test-wide settings and the builders that several test files share.

Every property test runs under one hypothesis profile: the same examples
on every run (derandomize), no example database on disk, and no
deadline, since the first call of a test may pay numpy's and scipy's
warm-up.  A test still sets its own ``max_examples``.

The builders and constants below are imported by the test files with
``from conftest import ...``.
"""

import math

import numpy as np
from hypothesis import settings

from qspeed import bounds
from qspeed.quantum import ParametricFamily

settings.register_profile("qspeed", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("qspeed")

SZ = np.diag([1.0, -1.0]).astype(complex)
PLUS = np.array([1.0, 1.0]) / np.sqrt(2.0)
Z0 = np.diag([1.0, 0.0]).astype(complex)
PLUS_RHO = np.full((2, 2), 0.5, dtype=complex)
KINDS = ("unitary", "non_hermitian", "lindblad", "thermal", "table")
# per-sample dispersion bound 1/f_1 of each estimation model at unit scale
MEDIAN_BOUNDS = {
    "gaussian": math.sqrt(math.pi / 2.0),
    "cauchy": math.pi / 2.0,
    "laplace": 1.0,
}


def haar_state(rng, dim):
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return psi / np.linalg.norm(psi)


def random_hermitian(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (a + a.conj().T) / 2


def random_density(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = g @ g.conj().T
    return m / np.trace(m).real


def jz(n_qubits):
    """The collective spin J_z = sum_i sigma_z^(i) / 2."""
    return bounds.collective_spin(n_qubits, [0.0, 0.0, 1.0]).operator


def ghz(n_qubits):
    psi = np.zeros(2 ** n_qubits, dtype=complex)
    psi[0] = psi[-1] = 1 / np.sqrt(2.0)
    return psi


def plus_family():
    """|+> rotated by sigma_z / 2: F_1 = F_2 = 1 at every theta."""
    return ParametricFamily.unitary(SZ / 2, PLUS)
