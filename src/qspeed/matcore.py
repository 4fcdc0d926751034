"""Dense complex linear algebra at small dimension.

Hermitian eigendecompositions, Schatten norms, matrix absolute values,
the Jordan-Hahn decomposition of a Hermitian operator, and superoperators
stored as dim^2 x dim^2 matrices acting on column-vectorized operators.

All operations are pure functions on numpy arrays; nothing here mutates
its input.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidInputError

# Absolute tolerances for Hermiticity and trace checks; spectral
# tolerances scale with dimension and norm (backward-stable eigensolver
# error model).
HERM_TOL = 1e-9
TRACE_TOL = 1e-9
P_FLOOR = 1e-12
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def require_alpha(alpha: float) -> None:
    """Reject an order outside [1, inf]; NaN fails the comparison too."""
    if not alpha >= 1:
        raise InvalidInputError(f"alpha must be >= 1 or inf, got {alpha}")


def psd_tol(dim: int, norm_inf: float) -> float:
    """Tolerance for negative eigenvalues of a nominally PSD matrix."""
    return dim * 1e-12 * max(norm_inf, 1.0)


def zero_tol(a: np.ndarray) -> float:
    """Spectral splitting tolerance: eigenvalues this close to zero are
    treated as zero (assigned to neither sign in jordan_hahn)."""
    a = np.asarray(a)
    scale = float(np.linalg.norm(a, 2)) if a.size else 0.0
    return a.shape[0] * np.finfo(float).eps * max(scale, 1.0)


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate a finite square complex matrix and return it as ndarray."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidInputError(f"{name} must be square, got shape {a.shape}")
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise InvalidInputError(f"{name} has non-finite entries")
    return a


def hermiticity_defect(a: np.ndarray) -> float:
    """max |A - A^dag|, entrywise."""
    return float(np.max(np.abs(a - a.conj().T))) if a.size else 0.0


def hermitian_part(a: np.ndarray) -> np.ndarray:
    """(A + A^dag)/2 as A/2 + (A/2)^dag, which cannot overflow and, halving
    being exact, is the same matrix for finite inputs that do not underflow
    (a zero may change sign)."""
    h = a / 2
    h += h.conj().T
    return h


# One function per input invariant: it returns the violation's size, or 0.0
# when the invariant holds.  The validators raise from these, and
# `qspeed validate` reports them.


def hermiticity_violation(a: np.ndarray, tol: float = HERM_TOL) -> float:
    """max |A - A^dag| when it exceeds tol."""
    defect = hermiticity_defect(a)
    return defect if defect > tol else 0.0


def trace_violation(a: np.ndarray) -> float:
    """|Re Tr A - 1| when it exceeds TRACE_TOL."""
    dev = abs(float(a.trace().real) - 1.0)
    return dev if dev > TRACE_TOL else 0.0


def positivity_violation(h: np.ndarray) -> float:
    """-lambda_min of a Hermitian matrix when lambda_min < -psd_tol."""
    w = np.linalg.eigvalsh(h)
    if w.size and w[0] < -psd_tol(h.shape[0], float(np.max(np.abs(w)))):
        return float(-w[0])
    return 0.0


def require_hermitian(a, name: str = "operator", tol: float = HERM_TOL) -> np.ndarray:
    """Validate Hermiticity within tol; return the exactly Hermitian part."""
    a = as_matrix(a, name)
    defect = hermiticity_violation(a, tol)
    if defect:
        raise InvalidInputError(
            f"{name} is not Hermitian: max|A - A^dag| = {defect:.3e} > {tol:.1e}"
        )
    return hermitian_part(a)


def require_density(rho, name: str = "rho") -> np.ndarray:
    """Validate a density matrix: Hermitian, unit trace, PSD within tolerance."""
    rho = require_hermitian(rho, name)
    if trace_violation(rho):
        raise InvalidInputError(
            f"{name} has trace {float(rho.trace().real):.12g}, expected 1"
        )
    neg = positivity_violation(rho)
    if neg:
        raise InvalidInputError(
            f"{name} has negative eigenvalue {-neg:.3e} beyond tolerance"
        )
    return rho


def require_h_gamma(h, gamma) -> tuple[np.ndarray, np.ndarray]:
    """Validate the Hermitian pair of a generator H_eff = H - i Gamma."""
    h = require_hermitian(h, "H")
    gamma = require_hermitian(gamma, "Gamma")
    if gamma.shape != h.shape:
        raise InvalidInputError("H and Gamma must have the same shape")
    return h, gamma


def require_state(psi, name: str = "psi") -> np.ndarray:
    """Validate a normalized pure state vector."""
    psi = np.asarray(psi, dtype=complex).ravel()
    if not np.all(np.isfinite(psi.real)) or not np.all(np.isfinite(psi.imag)):
        raise InvalidInputError(f"{name} has non-finite entries")
    nrm = float(np.vdot(psi, psi).real)
    if abs(nrm - 1.0) > TRACE_TOL:
        raise InvalidInputError(f"{name} has squared norm {nrm:.12g}, expected 1")
    return psi


def hermitian_eig(a) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian operator.

    Returns (w, V) with eigenvalues w ascending and orthonormal
    eigenvectors in the columns of V, so that A = V diag(w) V^dag.
    """
    a = require_hermitian(a)
    return np.linalg.eigh(a)


def herm_fun(a, f) -> np.ndarray:
    """Apply a scalar function to a Hermitian operator through its spectrum."""
    w, v = hermitian_eig(a)
    return (v * f(w)) @ v.conj().T


def matrix_abs(a) -> np.ndarray:
    """|A| = sqrt(A^dag A) for Hermitian A, computed spectrally."""
    return herm_fun(a, np.abs)


def schatten_norm(a, alpha: float) -> float:
    """Schatten alpha-norm (sum of singular values^alpha)^(1/alpha).

    alpha = +inf returns the largest singular value.  Hermitian inputs
    take the cheaper eigvalsh path; the singular values are then the
    absolute eigenvalues.
    """
    require_alpha(alpha)
    a = as_matrix(a)
    if a.size == 0:
        return 0.0
    if not hermiticity_violation(a):
        sv = np.abs(np.linalg.eigvalsh(hermitian_part(a)))
    else:
        sv = np.linalg.svd(a, compute_uv=False)
    if np.isinf(alpha):
        return float(np.max(sv))
    if alpha == 1:
        return float(np.sum(sv))
    if alpha == 2:
        return float(np.sqrt(np.sum(sv * sv)))
    return float(np.sum(sv ** alpha) ** (1.0 / alpha))


def jordan_hahn(a) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Jordan-Hahn decomposition A = X_plus + X_minus.

    X_plus is PSD, X_minus is NSD, and E_plus/E_minus project onto the
    strictly positive/negative eigenspaces.  |A| = X_plus - X_minus.
    Eigenvalues within zero_tol of 0 belong to neither projector.
    """
    a = require_hermitian(a)
    w, v = np.linalg.eigh(a)
    tol = zero_tol(a)
    pos = w > tol
    neg = w < -tol
    vp = v[:, pos]
    vn = v[:, neg]
    x_plus = (vp * w[pos]) @ vp.conj().T
    x_minus = (vn * w[neg]) @ vn.conj().T
    e_plus = vp @ vp.conj().T
    e_minus = vn @ vn.conj().T
    return x_plus, x_minus, e_plus, e_minus


def spectral_projectors(a, cluster_tol: float | None = None):
    """Distinct eigenvalues of a Hermitian operator and their projectors.

    Eigenvalues closer than cluster_tol are merged into one cluster; the
    returned projectors are basis-independent within clusters.  Returns
    (values, projectors) with values ascending.
    """
    a = require_hermitian(a)
    w, v = np.linalg.eigh(a)
    if cluster_tol is None:
        cluster_tol = zero_tol(a)
    values = []
    projectors = []
    i = 0
    n = len(w)
    while i < n:
        j = i + 1
        while j < n and w[j] - w[j - 1] <= cluster_tol:
            j += 1
        block = v[:, i:j]
        values.append(float(np.mean(w[i:j])))
        projectors.append(block @ block.conj().T)
        i = j
    return np.asarray(values), projectors


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b - b @ a


def golden_rows(fn, a: np.ndarray, b: np.ndarray,
                tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Golden-section maximum of fn on each row's bracket [a, b].

    ``fn`` maps an array of one point per row to the rows' values.  Every
    row takes the branch that its own comparison fc > fd picks (ties go
    right) and stops once its bracket is at most ``tol``.  Returns
    (midpoints, values); minimize by negating fn.
    """
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = fn(c), fn(d)
    while True:
        live = b - a > tol
        n_live = np.count_nonzero(live)
        if not n_live:
            break
        left = fc > fd  # the maximum lies in [a, d]
        na = np.where(left, a, c)
        nb = np.where(left, d, b)
        w = _INV_PHI * (nb - na)
        t = np.where(left, nb - w, na + w)
        ft = fn(t)
        step = (na, nb, np.where(left, t, d), np.where(left, c, t),
                np.where(left, ft, fd), np.where(left, fc, ft))
        if n_live < live.size:
            step = [np.where(live, new, old)
                    for new, old in zip(step, (a, b, c, d, fc, fd))]
        a, b, c, d, fc, fd = step
    t = 0.5 * (a + b)
    return t, fn(t)


def vec(x: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization."""
    return np.asarray(x).T.reshape(-1)


def unvec(v: np.ndarray, dim: int) -> np.ndarray:
    return np.asarray(v).reshape(dim, dim).T


class Superoperator:
    """Linear map on operators, stored on column-vectorized operators.

    With column stacking, vec(A X B) = (B^T kron A) vec(X), so the
    commutator map L[rho] = -i[H, rho] has matrix -i(I kron H - H^T kron I).
    The kind flag records how the map was built: "hamiltonian" for
    commutator maps, "non_hermitian" for rho -> -i(H_eff rho - rho H_eff^dag)
    with H_eff = H - i Gamma, or "matrix" for an explicit matrix.
    """

    def __init__(self, matrix, dim: int, kind: str = "matrix",
                 h: np.ndarray | None = None, gamma: np.ndarray | None = None):
        matrix = as_matrix(matrix, "superoperator matrix")
        if matrix.shape[0] != dim * dim:
            raise InvalidInputError(
                f"superoperator matrix must be {dim * dim}x{dim * dim} for dim {dim}, "
                f"got {matrix.shape}"
            )
        self.matrix = matrix
        self.dim = dim
        self.kind = kind
        self.h = h
        self.gamma = gamma

    @classmethod
    def from_hamiltonian(cls, h) -> "Superoperator":
        """The commutator map rho -> -i[H, rho]."""
        h = require_hermitian(h, "H")
        dim = h.shape[0]
        eye = np.eye(dim)
        m = -1j * (np.kron(eye, h) - np.kron(h.T, eye))
        return cls(m, dim, kind="hamiltonian", h=h)

    @classmethod
    def from_non_hermitian(cls, h, gamma) -> "Superoperator":
        """The map rho -> -i(H_eff rho - rho H_eff^dag), H_eff = H - i Gamma."""
        h, gamma = require_h_gamma(h, gamma)
        dim = h.shape[0]
        h_eff = h - 1j * gamma
        eye = np.eye(dim)
        # rho H_eff^dag vectorizes to (conj(H_eff) kron I) vec(rho)
        m = -1j * (np.kron(eye, h_eff) - np.kron(h_eff.conj(), eye))
        return cls(m, dim, kind="non_hermitian", h=h, gamma=gamma)

    @classmethod
    def from_matrix(cls, m) -> "Superoperator":
        m = as_matrix(m, "superoperator matrix")
        side = m.shape[0]
        dim = int(round(np.sqrt(side)))
        if dim * dim != side:
            raise InvalidInputError(
                f"superoperator matrix side {side} is not a perfect square"
            )
        return cls(m, dim, kind="matrix")

    def apply(self, x) -> np.ndarray:
        x = as_matrix(x, "operand")
        if x.shape[0] != self.dim:
            raise InvalidInputError(
                f"operand dim {x.shape[0]} does not match superoperator dim {self.dim}"
            )
        return unvec(self.matrix @ vec(x), self.dim)

    def hermiticity_preservation_defect(self) -> float:
        """max |conj(M) - S M S|, entrywise, with S the vec-transpose swap.

        L[X^dag] = L[X]^dag for every X exactly when conj(M) = S M S,
        since vec(X^dag) = conj(S vec(X)).  S M S only permutes entries:
        row and column index i + j d become j + i d.
        """
        d = self.dim
        sms = self.matrix.reshape(d, d, d, d).transpose(1, 0, 3, 2)
        sms = sms.reshape(d * d, d * d)
        return float(np.max(np.abs(self.matrix.conj() - sms)))


def commutator_map(h) -> Superoperator:
    """Superoperator for rho -> -i[H, rho]."""
    return Superoperator.from_hamiltonian(h)
