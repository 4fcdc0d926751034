"""Dense complex linear algebra at small dimension.

Hermitian eigendecompositions, power means and Schatten norms, the
Jordan-Hahn decomposition of a Hermitian operator, and superoperators
stored as dim^2 x dim^2 matrices acting on column-vectorized operators.

All operations are pure functions on numpy arrays; nothing here mutates
its input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, NumericalConsistencyError

# Absolute tolerances for Hermiticity and trace checks; spectral
# tolerances scale with dimension and norm (backward-stable eigensolver
# error model).
HERM_TOL = 1e-9
TRACE_TOL = 1e-9
P_FLOOR = 1e-12
_TINY = np.finfo(float).tiny  # the smallest normal float
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def require_alpha(alpha: float) -> None:
    """Reject an order outside [1, inf]; NaN fails the comparison too."""
    if not alpha >= 1:
        raise InvalidInputError(f"alpha must be >= 1 or inf, got {alpha}")


def require_finite_alpha(alpha: float, quantity: str) -> None:
    """require_alpha, and reject alpha = inf, where quantity is undefined."""
    require_alpha(alpha)
    if math.isinf(alpha):
        raise InvalidInputError(f"alpha = inf is not defined for {quantity}")


def psd_tol(dim: int, norm_inf: float) -> float:
    """Tolerance for negative eigenvalues of a nominally PSD matrix."""
    return dim * 1e-12 * max(norm_inf, 1.0)


def zero_tol(w: np.ndarray) -> float:
    """Spectral splitting tolerance from the eigenvalues w of a Hermitian
    operator, whose 2-norm is max |w|: eigenvalues this close to zero are
    treated as zero (assigned to neither sign in jordan_hahn)."""
    scale = float(np.max(np.abs(w))) if len(w) else 0.0
    return len(w) * np.finfo(float).eps * max(scale, 1.0)


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate a finite square complex matrix and return it as ndarray."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidInputError(f"{name} must be square, got shape {a.shape}")
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise InvalidInputError(f"{name} has non-finite entries")
    return a


def hermiticity_defect(a: np.ndarray) -> float:
    """max |A - A^dag|, entrywise.  Formed on A/4, which cannot overflow;
    scaling by 4 is exact for entries that are not subnormal, and the
    Python float product gives inf, without a warning, where it overflows."""
    if not a.size:
        return 0.0
    q = a / 4
    return float(np.max(np.abs(q - q.conj().T))) * 4


def hermitian_part(a: np.ndarray) -> np.ndarray:
    """(A + A^dag)/2 as A/2 + (A/2)^dag, which cannot overflow and, halving
    being exact, is the same matrix for finite inputs that do not underflow
    (a zero may change sign).  A stack (..., d, d) is taken matrix by
    matrix."""
    h = np.divide(a, 2)
    h += h.conj().swapaxes(-1, -2)
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


def require_states(rho, sigma) -> tuple[np.ndarray, np.ndarray]:
    """Validate two density matrices of one dimension."""
    rho = require_density(rho, "rho")
    sigma = require_density(sigma, "sigma")
    if rho.shape != sigma.shape:
        raise InvalidInputError("states have different dimensions")
    return rho, sigma


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


def power_sum(x, alpha: float, weights=1.0):
    """sum_x w |x|^alpha in plain floating point, which may underflow or
    overflow.  alpha = 1 sums |x| and alpha = 2 squares by multiplying; a
    scalar weight multiplies the sum, an array weights the terms."""
    ax = np.abs(x)
    terms = ax if alpha == 1 else ax * ax if alpha == 2 else ax ** alpha
    if np.ndim(weights) == 0:
        return weights * np.sum(terms)
    return np.sum(weights * terms)


def power_mean(x, alpha: float, weights=1.0) -> float:
    """(sum_x w |x|^alpha)^(1/alpha) for nonnegative weights w, and max |x|
    at alpha = inf.

    The root of the plain sum (sqrt at alpha = 2) is returned whenever
    that sum is a normal float.  A sum that underflows to 0 or a subnormal,
    or overflows, is recomputed as s (sum_x w (|x|/s)^alpha)^(1/alpha)
    with s = max |x|, so the result is right across alpha in [1, inf];
    it is inf only where the mean itself exceeds the float range.
    """
    if not np.size(x):
        return 0.0
    if math.isinf(alpha):
        return float(np.max(np.abs(x)))
    with np.errstate(over="ignore"):
        total = power_sum(x, alpha, weights)
        if _TINY <= total < math.inf:
            return float(np.sqrt(total) if alpha == 2
                         else total ** (1.0 / alpha))
        ax = np.abs(x)
        s = np.max(ax)
        if s == 0:
            return 0.0
        return float(s * power_sum(ax / s, alpha, weights) ** (1.0 / alpha))


def schatten_norm(a, alpha: float) -> float:
    """Schatten alpha-norm (sum of singular values^alpha)^(1/alpha).

    alpha = +inf returns the largest singular value.  Hermitian inputs
    take the cheaper eigvalsh path; the singular values are then the
    absolute eigenvalues.  The Hermiticity tolerance is HERM_TOL scaled by
    min(1, max|A|), so a matrix with entries far below 1 is not mistaken
    for its Hermitian part.  The sum is power_mean's, so it neither
    underflows nor overflows; a norm that exceeds the float range raises
    NumericalConsistencyError.
    """
    require_alpha(alpha)
    a = as_matrix(a)
    # max|A| (taken on A/4, which cannot overflow) matters only for a
    # defect in (0, HERM_TOL]
    defect = hermiticity_defect(a)
    if defect and (defect > HERM_TOL
                   or defect > HERM_TOL * float(np.max(np.abs(a / 4))) * 4):
        sv = np.linalg.svd(a, compute_uv=False)
    else:
        sv = np.linalg.eigvalsh(hermitian_part(a))
    norm = power_mean(sv, alpha)
    if math.isinf(norm):
        raise NumericalConsistencyError(
            f"the Schatten {alpha:g}-norm exceeds the float range"
        )
    return norm


def jordan_hahn(a) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Jordan-Hahn decomposition A = X_plus + X_minus.

    X_plus is PSD, X_minus is NSD, and E_plus/E_minus project onto the
    strictly positive/negative eigenspaces.  |A| = X_plus - X_minus.
    Eigenvalues within zero_tol of 0 belong to neither projector.
    """
    a = require_hermitian(a)
    w, v = np.linalg.eigh(a)
    tol = zero_tol(w)
    pos = w > tol
    neg = w < -tol
    vp = v[:, pos]
    vn = v[:, neg]
    x_plus = (vp * w[pos]) @ vp.conj().T
    x_minus = (vn * w[neg]) @ vn.conj().T
    e_plus = vp @ vp.conj().T
    e_minus = vn @ vn.conj().T
    return x_plus, x_minus, e_plus, e_minus


def golden_rows(fn, a: np.ndarray, b: np.ndarray,
                tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Golden-section maximum of fn on each row's bracket [a, b].

    ``fn`` maps an array of one point per row to the rows' values.  Every
    row takes the branch that its own comparison fc > fd picks (ties go
    right), and all rows step until every bracket is at most ``tol``, so
    rows of one starting width stop on the same step.  Returns
    (midpoints, values); minimize by negating fn.
    """
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = fn(c), fn(d)
    while np.count_nonzero(b - a > tol):  # cheaper than np.any per call
        left = fc > fd  # the maximum lies in [a, d]
        na = np.where(left, a, c)
        nb = np.where(left, d, b)
        w = _INV_PHI * (nb - na)
        t = np.where(left, nb - w, na + w)
        ft = fn(t)
        a, b, c, d, fc, fd = (na, nb, np.where(left, t, d),
                              np.where(left, c, t), np.where(left, ft, fd),
                              np.where(left, fc, ft))
    t = 0.5 * (a + b)
    return t, fn(t)


def integrate(fn, a: float, b: float, epsabs: float, epsrel: float,
              what: str) -> float:
    """QUADPACK's integral of fn over [a, b], whose ends may be infinite.
    A failure that QUADPACK reports, or a value that is not finite, raises
    NumericalConsistencyError, so no IntegrationWarning is printed."""
    # imported here, so that only processes that integrate pay for scipy
    import scipy.integrate

    out = scipy.integrate.quad(fn, a, b, epsabs=epsabs, epsrel=epsrel,
                               limit=200, full_output=1)
    if len(out) > 3 or not math.isfinite(out[0]):  # out[3]: QUADPACK's failure
        raise NumericalConsistencyError(
            f"{what} did not reach the requested tolerance")
    return float(out[0])


def pow2_scale(a: np.ndarray) -> float:
    """The largest power of two at or below max(|Re a|, |Im a|), or 1 where
    a is all zero.  Dividing by it is exact wherever the quotient stays
    normal, and it takes the largest part of a into [1, 2)."""
    top = max(float(np.max(np.abs(a.real))), float(np.max(np.abs(a.imag))))
    return math.ldexp(1.0, math.frexp(top)[1] - 1) if top > 0 else 1.0


def frozen(a: np.ndarray) -> np.ndarray:
    """a itself, made read-only; a must be an array its holder owns."""
    a.setflags(write=False)
    return a


def vec(x: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization."""
    return np.asarray(x).T.reshape(-1)


def unvec(v: np.ndarray, dim: int) -> np.ndarray:
    return np.asarray(v).reshape(dim, dim).T


@dataclass(frozen=True, eq=False)
class Superoperator:
    """Linear map on operators, stored on column-vectorized operators.

    With column stacking, vec(A X B) = (B^T kron A) vec(X), so the
    commutator map L[rho] = -i[H, rho] has matrix -i(I kron H - H^T kron I).
    The kind flag records how the map was built: "hamiltonian" for
    commutator maps, "non_hermitian" for rho -> -i(H_eff rho - rho H_eff^dag)
    with H_eff = H - i Gamma, or "matrix" for an explicit matrix.

    A superoperator is immutable: no attribute can be reassigned, and
    ``matrix``, ``h`` and ``gamma`` are its own read-only copies.
    """

    matrix: np.ndarray
    dim: int
    kind: str = "matrix"
    h: np.ndarray | None = None
    gamma: np.ndarray | None = None

    def __post_init__(self):
        dim = self.dim
        matrix = as_matrix(self.matrix, "superoperator matrix")
        if matrix.shape[0] != dim * dim:
            raise InvalidInputError(
                f"superoperator matrix must be {dim * dim}x{dim * dim} for dim {dim}, "
                f"got {matrix.shape}"
            )
        for name, a in (("matrix", matrix), ("h", self.h),
                        ("gamma", self.gamma)):
            if a is not None:
                object.__setattr__(self, name, frozen(np.array(a)))

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
