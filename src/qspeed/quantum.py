"""Quantum statistical distances and speeds with their optimal measurements.

A parametrized family rho(theta) exposes its state and derivative; from
the derivative the module computes

    trace speed      F_1 = Tr|drho/dtheta|            (max of f_1 over POVMs)
    Fisher speed     F_2 = Tr{rho L^2}                (max of f_2 over POVMs)
    Schatten speeds  SF_alpha = ||drho/dtheta||_alpha (max of sf_alpha)

where L is the symmetric logarithmic derivative, together with the
measurements that attain them and closed forms for pure states, thermal
states, and non-Hermitian generators H_eff = H - i Gamma.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .classical import ParametricDist, as_prob
from .errors import (DegenerateInputError, InvalidInputError,
                     NumericalConsistencyError)
from .matcore import (P_FLOOR, Superoperator, as_matrix, frozen,
                      hermiticity_defect, hermitian_part, positivity_violation,
                      power_mean, power_sum, require_alpha, require_density,
                      require_finite_alpha, require_h_gamma, require_hermitian,
                      require_state, require_states, schatten_norm, unvec, vec,
                      zero_tol)

COMPLETENESS_TOL = 1e-9


def _expm(a: np.ndarray) -> np.ndarray:
    # scipy is imported here, not at module level: its import takes several
    # times as long as numpy's, and only the non_hermitian and lindblad kinds
    # need it.  The lookup goes through the module on every call so that a
    # patched scipy.linalg.expm is seen.
    import scipy.linalg

    return scipy.linalg.expm(a)


def completeness_violation(elements) -> float:
    """max |sum_k E_k - I|, entrywise, when it exceeds COMPLETENESS_TOL."""
    total = sum(elements)
    defect = float(np.max(np.abs(total - np.eye(total.shape[0]))))
    return defect if defect > COMPLETENESS_TOL else 0.0


class POVM:
    """A positive-operator-valued measure: PSD elements summing to identity.

    ``POVM([...])`` stores its k elements as one (k, d, d) stack.  A
    projective measurement made by ``_from_basis`` stores only its basis,
    O(d^2), and builds its elements when iterated.  ``elements`` is the
    tuple of all elements.
    """

    def __init__(self, elements):
        elements = list(elements)
        if not elements:
            raise InvalidInputError("POVM needs at least one element")
        elems = []
        dim = None
        for k, e in enumerate(elements):
            e = require_hermitian(e, f"POVM element {k}")
            if dim is None:
                dim = e.shape[0]
            elif e.shape[0] != dim:
                raise InvalidInputError("POVM elements have mixed dimensions")
            neg = positivity_violation(e)
            if neg:
                raise InvalidInputError(
                    f"POVM element {k} has negative eigenvalue {-neg:.3e}"
                )
            elems.append(e)
        stack = np.stack(elems)
        _require_complete(stack)
        self._stack = stack
        self.dim = dim

    @classmethod
    def _from_basis(cls, v: np.ndarray, groups) -> "POVM":
        """Projectors B B^dag onto the column groups B = v[:, group] of a
        unitary v, kept as the columns w = v[:, concatenate(groups)] and
        the group sizes.  A Gram matrix is PSD, and the projectors sum to
        w w^dag, so only that is checked: a missing or a repeated column
        fails it."""
        povm = cls.__new__(cls)
        povm._stack = None
        povm._w = np.asarray(v, dtype=complex)[:, np.concatenate(groups)]
        povm._sizes = [len(g) for g in groups]
        povm.dim = v.shape[0]
        _require_complete([povm._w @ povm._w.conj().T])
        return povm

    def __len__(self) -> int:
        return len(self._sizes if self._stack is None else self._stack)

    def __iter__(self):
        if self._stack is None:
            return self._basis_elements()
        return iter(self._stack)

    @property
    def elements(self) -> tuple:
        return tuple(self)

    def _basis_elements(self):
        """The projectors B B^dag of a basis POVM, one column group B at a
        time."""
        w, lo = self._w, 0
        for size in self._sizes:
            b = w[:, lo:lo + size]
            yield hermitian_part(b @ b.conj().T)
            lo += size

    def _traces(self, x, name: str) -> np.ndarray:
        """Re Tr{E_k X} for every element.  A stack is one contraction,
        Tr{E X} = sum_ij E_ij X_ji.  A basis takes one matmul X W and the
        products b^dag (X b) of its columns b, as one batch; a group B
        sums its columns, Tr{B B^dag X} = sum_b b^dag X b."""
        x = as_matrix(x, name)
        if x.shape[0] != self.dim:
            raise InvalidInputError("state dimension does not match POVM")
        if self._stack is None:
            w = self._w
            cols = np.matmul(w.conj().T[:, None, :],
                             (x @ w).T[:, :, None])[:, 0, 0].real
            if len(self._sizes) == self.dim:  # all rank-1; skips a cumsum
                return cols
            return np.add.reduceat(cols, np.cumsum([0] + self._sizes[:-1]))
        k = len(self._stack)
        return (self._stack.reshape(k, -1) @ x.T.reshape(-1)).real

    def probabilities(self, rho) -> np.ndarray:
        return np.clip(self._traces(rho, "rho"), 0.0, None)

    def expectations(self, x) -> np.ndarray:
        """Tr{E_k X} for an arbitrary operator X (no clipping)."""
        return self._traces(x, "operand")


def _require_complete(elements) -> None:
    defect = completeness_violation(elements)
    if defect:
        raise InvalidInputError(
            f"POVM elements sum to identity only within {defect:.3e}"
        )


def basis_povm(dim: int) -> POVM:
    """Computational-basis projective measurement."""
    return POVM._from_basis(np.eye(dim, dtype=complex),
                            [[k] for k in range(dim)])


def _boltzmann(w: np.ndarray, beta: float) -> np.ndarray:
    """Gibbs weights e^{-beta w_m} / Z of the energies w."""
    a = -beta * w
    a -= np.max(a)  # overflow guard
    e = np.exp(a)
    return e / np.sum(e)


def _initial_state(state, dim: int):
    """Read-only (rho0, psi0) of a state vector or a density matrix; psi0
    is None for a density matrix."""
    state = np.asarray(state, dtype=complex)
    psi0 = frozen(require_state(state).copy()) if state.ndim == 1 else None
    rho0 = (require_density(state) if psi0 is None
            else np.outer(psi0, psi0.conj()))
    if rho0.shape[0] != dim:
        raise InvalidInputError(
            f"state dim {rho0.shape[0]} does not match generator dim {dim}"
        )
    return frozen(rho0), psi0


@dataclass(frozen=True, eq=False, repr=False)
class ParametricFamily:
    """A one-parameter family of states rho(theta) with analytic derivative.

    Kinds:
      unitary        rho(t) = e^{-iHt} rho0 e^{iHt},   drho = -i[H, rho]
      non_hermitian  rho(t) = e^{-iH_eff t} rho0 e^{iH_eff^dag t},
                     drho = -i(H_eff rho - rho H_eff^dag), H_eff = H - i Gamma;
                     the trace decays and is deliberately not renormalized
      lindblad       rho(t) = unvec(e^{Lt} vec rho0) for a trace-conserving
                     superoperator L, drho = L[rho]
      thermal        rho(beta) = e^{-beta H}/Z, parameter is beta
      table          states sampled on a uniform theta grid; derivative by
                     central differences, Richardson-corrected when two
                     neighbors are available on each side

    A family is immutable: no attribute can be reassigned and each array
    it holds is its own read-only copy.  Each constructor builds the
    closures ``_state(theta) -> rho`` and ``_slope(theta, rho) -> drho``.
    """

    kind: str
    dim: int
    _state: Callable[[float], np.ndarray]
    _slope: Callable[[float, np.ndarray], np.ndarray]
    h: np.ndarray | None = None
    gamma: np.ndarray | None = None
    superop: Superoperator | None = None
    rho0: np.ndarray | None = None
    psi0: np.ndarray | None = None

    # -- constructors -------------------------------------------------

    @classmethod
    def unitary(cls, h, state) -> "ParametricFamily":
        h = frozen(require_hermitian(h, "H"))
        rho0, psi0 = _initial_state(state, h.shape[0])
        hw, hv = map(frozen, np.linalg.eigh(h))

        def rho_at(theta):
            u = (hv * np.exp(-1j * hw * theta)) @ hv.conj().T
            return u @ rho0 @ u.conj().T

        return cls("unitary", h.shape[0], rho_at,
                   lambda theta, rho: -1j * (h @ rho - rho @ h),
                   h=h, rho0=rho0, psi0=psi0)

    @classmethod
    def non_hermitian(cls, h, gamma, state) -> "ParametricFamily":
        h, gamma = map(frozen, require_h_gamma(h, gamma))
        h_eff = frozen(h - 1j * gamma)
        gen = frozen(-1j * h_eff)
        rho0, psi0 = _initial_state(state, h.shape[0])

        def rho_at(theta):
            e = _expm(gen * theta)
            return e @ rho0 @ e.conj().T

        def slope(theta, rho):
            return -1j * (h_eff @ rho - rho @ h_eff.conj().T)

        return cls("non_hermitian", h.shape[0], rho_at, slope, h=h,
                   gamma=gamma, rho0=rho0, psi0=psi0)

    @classmethod
    def lindblad(cls, superop: Superoperator, state) -> "ParametricFamily":
        if not isinstance(superop, Superoperator):
            superop = Superoperator.from_matrix(superop)
        dim, m = superop.dim, superop.matrix
        rho0, psi0 = _initial_state(state, dim)
        # the kind promises trace conservation: Tr L[X] = 0 for all X
        trace_row = vec(np.eye(dim)).conj() @ m
        scale = max(float(np.max(np.abs(m))), 1.0)
        if float(np.max(np.abs(trace_row))) > COMPLETENESS_TOL * scale:
            raise InvalidInputError(
                "lindblad generator does not conserve trace; use the "
                "non_hermitian kind for trace-decaying evolutions"
            )
        return cls("lindblad", dim,
                   lambda theta: unvec(_expm(m * theta) @ vec(rho0), dim),
                   lambda theta, rho: unvec(m @ vec(rho), dim),
                   superop=superop, rho0=rho0, psi0=psi0)

    @classmethod
    def thermal(cls, h) -> "ParametricFamily":
        h = frozen(require_hermitian(h, "H"))
        hw, hv = map(frozen, np.linalg.eigh(h))

        def slope(beta, rho):
            p = _boltzmann(hw, beta)
            mean = float(np.sum(p * hw))
            return (hv * (p * (mean - hw))) @ hv.conj().T

        return cls("thermal", h.shape[0],
                   lambda beta: (hv * _boltzmann(hw, beta)) @ hv.conj().T,
                   slope, h=h)

    @classmethod
    def table(cls, points) -> "ParametricFamily":
        if len(points) < 3:
            raise InvalidInputError("table family needs at least 3 grid points")
        thetas = frozen(np.asarray([float(t) for t, _ in points]))
        steps = np.diff(thetas)
        if np.any(steps <= 0):
            raise InvalidInputError("table thetas must be strictly increasing")
        h = float(np.mean(steps))
        if np.max(np.abs(steps - h)) > 1e-9 * max(abs(h), 1.0):
            raise InvalidInputError("table family requires a uniform theta grid")
        states = tuple(frozen(require_density(s, f"table state {k}"))
                       for k, (_, s) in enumerate(points))
        dim, n = states[0].shape[0], len(states)
        if any(s.shape[0] != dim for s in states):
            raise InvalidInputError("table states have mixed dimensions")

        def index(theta):
            i = int(np.argmin(np.abs(thetas - theta)))
            if abs(thetas[i] - theta) > 1e-9 * max(1.0, abs(theta)):
                raise InvalidInputError(
                    f"theta {theta} is not on the table grid")
            return i

        def slope(theta, rho):
            i = index(theta)
            if i == 0 or i == n - 1:
                raise InvalidInputError(
                    "table derivative needs an interior grid point")
            d1 = (states[i + 1] - states[i - 1]) / (2 * h)
            if 2 <= i <= n - 3:
                d2 = (states[i + 2] - states[i - 2]) / (4 * h)
                return (4 * d1 - d2) / 3
            return d1

        return cls("table", dim, lambda theta: states[index(theta)], slope)

    # -- evaluation ---------------------------------------------------

    def state_at(self, theta: float) -> np.ndarray:
        """rho(theta), with an error in place of numpy's warnings where it
        overflows the float range (a growing mode, or a huge theta)."""
        theta = float(theta)
        if not math.isfinite(theta):
            raise InvalidInputError(f"theta must be finite, got {theta}")
        with np.errstate(over="ignore", invalid="ignore"):
            rho = self._state(theta)
        if not np.isfinite(rho).all():
            raise InvalidInputError(
                f"the evolved state at theta = {theta:g} overflows the float "
                "range")
        return rho

    def at(self, theta: float) -> tuple[np.ndarray, np.ndarray]:
        """(rho, drho/dtheta) at theta; the state is evaluated once and the
        derivative is built from it.  The Hermiticity defect of drho is
        finite exactly when drho is, so it is also the overflow check."""
        theta = float(theta)
        rho = self.state_at(theta)
        with np.errstate(over="ignore", invalid="ignore"):
            d = self._slope(theta, rho)
            defect = hermiticity_defect(d)
            if not math.isfinite(defect):
                raise InvalidInputError(
                    f"the derivative at theta = {theta:g} overflows the "
                    "float range")
            if defect > 1e-8 and defect > 1e-8 * float(np.max(np.abs(d))):
                raise NumericalConsistencyError(
                    f"family derivative lost Hermiticity: defect {defect:.3e}"
                )
        return rho, hermitian_part(d)

    def derivative_at(self, theta: float) -> np.ndarray:
        return self.at(theta)[1]


def thermal_family(h) -> ParametricFamily:
    """Gibbs family rho(beta) = e^{-beta H} / Tr e^{-beta H}."""
    return ParametricFamily.thermal(h)


# -- induced classical statistics -------------------------------------


def induced_dist(rho, povm: POVM) -> np.ndarray:
    """Measurement probabilities p_x = Tr{E_x rho}."""
    rho = require_density(rho)
    return as_prob(povm.probabilities(rho), "induced distribution")


def induced_parametric(fam: ParametricFamily, theta: float, povm: POVM) -> ParametricDist:
    """Induced distribution and its derivative p'_x = Tr{E_x drho/dtheta}."""
    rho, drho = fam.at(theta)
    return ParametricDist(povm.probabilities(rho), povm.expectations(drho))


# -- distances --------------------------------------------------------


def _state_roots(rho, sigma) -> list[np.ndarray]:
    """[sqrt(rho), sqrt(sigma)] of two validated states."""
    roots = []
    for x in require_states(rho, sigma):
        w, v = np.linalg.eigh(x)
        roots.append((v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T)
    return roots


def fidelity(rho, sigma) -> float:
    """Uhlmann fidelity F(rho, sigma) = Tr sqrt(sqrt(rho) sigma sqrt(rho)).

    Computed as the nuclear norm of sqrt(rho) sqrt(sigma); equals
    |<psi|phi>| for pure states.
    """
    sr, ss = _state_roots(rho, sigma)
    f = float(np.sum(np.linalg.svd(sr @ ss, compute_uv=False)))
    return min(max(f, 0.0), 1.0)


def bures_distance(rho, sigma) -> float:
    """D_2(rho, sigma) = sqrt(1 - F(rho, sigma)), normalized to [0, 1].

    Computed in the polar form ||sqrt(rho) - sqrt(sigma) U||_2 / sqrt(2),
    where U = W V^dag from the SVD sqrt(sigma) sqrt(rho) = W S V^dag
    maximizes Re Tr{sqrt(rho) sqrt(sigma) U} = F.  Unlike 1 - F, the
    difference does not cancel when the states are close.
    """
    sr, ss = _state_roots(rho, sigma)
    w, _, vh = np.linalg.svd(ss @ sr)
    d = np.linalg.norm(sr - ss @ (w @ vh)) / math.sqrt(2.0)
    return min(float(d), 1.0)


def trace_distance(rho, sigma) -> float:
    """D_1(rho, sigma) = (1/2)||rho - sigma||_1."""
    rho, sigma = require_states(rho, sigma)
    return 0.5 * schatten_norm(rho - sigma, 1)


def schatten_distance(rho, sigma, alpha: float) -> float:
    """SD_alpha(rho, sigma) = ((1/2) Tr|rho - sigma|^alpha)^(1/alpha)."""
    require_alpha(alpha)
    rho, sigma = require_states(rho, sigma)
    return float(0.5 ** (1.0 / alpha) * schatten_norm(rho - sigma, alpha))


# -- SLD and speeds ---------------------------------------------------


@dataclass(frozen=True)
class SLDResult:
    """Symmetric logarithmic derivative restricted to the support of rho."""

    operator: np.ndarray
    support_dim: int


def _support_blocks(rho, drho):
    """Eigenbasis pieces shared by sld and qfi, with the escape check.

    Returns (v, d, denom, live, qsum, support) where d is the derivative in
    the eigenbasis of rho, live marks eigenvalue pairs lambda_i + lambda_j
    above the support cutoff dim * 1e-12 * max |lambda|, qsum is the Fisher
    sum over the live pairs and support counts the eigenvalues above the
    cutoff.  A derivative
    entry inside the null-null block would contribute roughly
    |d|^2 / cutoff if the block were included; when that lost term is
    non-negligible against the live sum the Fisher information is
    formally infinite and a rank-deficiency error is raised.  Measuring
    the lost contribution rather than the raw entry keeps nearly-frozen
    full-rank states (a thermal family at large beta) computable: their
    null-block entries scale with the vanishing eigenvalue itself.
    """
    w, v = np.linalg.eigh(rho)
    tol = rho.shape[0] * 1e-12 * max(float(np.max(np.abs(w))), 1e-300)
    d = v.conj().T @ drho @ v
    denom = w[:, None] + w[None, :]
    live = denom > tol
    with np.errstate(over="ignore"):
        qsum = float(np.sum(np.where(live, 2.0 * np.abs(d) ** 2
                                     / np.where(live, denom, 1.0), 0.0)))
    if not math.isfinite(qsum):
        raise NumericalConsistencyError(
            "the quantum Fisher information is not a finite float"
        )
    null = w <= tol
    if np.any(null):
        block = d[np.ix_(null, null)]
        try:
            lost = float(np.max(np.abs(block))) ** 2 / tol
        except OverflowError:
            lost = math.inf
        if lost > 1e-8 * max(1.0, qsum):
            raise InvalidInputError(
                "derivative has support outside the support of rho; "
                "the Fisher information is formally infinite"
            )
    return v, d, denom, live, qsum, int(np.sum(~null))


def sld(fam: ParametricFamily, theta: float) -> SLDResult:
    """Solve drho/dtheta = (L rho + rho L)/2 on the support of rho.

    In the eigenbasis of rho, <i|L|j> = 2 <i|drho|j> / (lambda_i + lambda_j)
    wherever lambda_i + lambda_j exceeds the support cutoff; other entries
    are zero.  If the derivative has weight on the null-null block the
    Fisher information is formally infinite and a rank-deficiency error is
    raised.
    """
    v, d, denom, live, _, support = _support_blocks(*fam.at(theta))
    l_eig = np.where(live, 2.0 * d / np.where(live, denom, 1.0), 0.0)
    op = hermitian_part(v @ l_eig @ v.conj().T)
    return SLDResult(operator=op, support_dim=support)


def qfi(fam: ParametricFamily, theta: float) -> float:
    """Quantum Fisher information F_2 = Tr{rho L^2}.

    Evaluated as sum_{ij} 2 |<i|drho|j>|^2 / (lambda_i + lambda_j) over the
    support, which is algebraically identical and numerically tighter.
    """
    return _support_blocks(*fam.at(theta))[4]


def trace_speed(fam: ParametricFamily, theta: float) -> float:
    """F_1 = Tr|drho/dtheta|; the quantum speed is S_1 = F_1 / 2."""
    return schatten_norm(fam.derivative_at(theta), 1)


def schatten_speed(fam: ParametricFamily, theta: float, alpha: float) -> float:
    """SF_alpha = ||drho/dtheta||_alpha; the speed is 2^(-1/alpha) SF_alpha."""
    require_alpha(alpha)
    return schatten_norm(fam.derivative_at(theta), alpha)


def statistical_speed(fam: ParametricFamily, theta: float, kind: str = "bures",
                      alpha: float = 2.0) -> float:
    """Quantum statistical speed of the named kind.

    kind "bures": S_2 = sqrt(F_2 / 8); kind "trace": S_1 = F_1 / 2;
    kind "schatten": 2^(-1/alpha) ||drho/dtheta||_alpha.
    """
    if kind == "bures":
        return float(np.sqrt(qfi(fam, theta) / 8.0))
    if kind == "trace":
        return trace_speed(fam, theta) / 2.0
    if kind == "schatten":
        return float(2.0 ** (-1.0 / alpha) * schatten_speed(fam, theta, alpha))
    raise InvalidInputError(f"unknown speed kind {kind!r}")


# -- optimal measurements ---------------------------------------------


def _eigenbasis_povm(a: np.ndarray) -> POVM:
    """Rank-1 eigenprojectors of a Hermitian operator; the null space is
    merged into a single projector so the arbitrary rotation inside it
    never leaks into the output."""
    a = require_hermitian(a)
    w, v = np.linalg.eigh(a)
    null = np.abs(w) <= zero_tol(w)
    groups = [[k] for k in np.flatnonzero(~null)]
    if null.any():
        groups.append(np.flatnonzero(null))
    return POVM._from_basis(v, groups)


def optimal_povm(fam: ParametricFamily, theta: float,
                 target: str = "trace_speed") -> POVM:
    """Measurement attaining the requested quantum speed.

    Targets "trace_speed" and "schatten" measure in the eigenbasis of
    drho/dtheta; target "qfi" measures in the eigenbasis of the SLD.
    Feeding the result back through the classical module reproduces
    f_1 = F_1, sf_alpha = SF_alpha, and f_2 = F_2 respectively.
    """
    if target in ("trace_speed", "schatten"):
        return _eigenbasis_povm(fam.derivative_at(theta))
    if target == "qfi":
        return _eigenbasis_povm(sld(fam, theta).operator)
    raise InvalidInputError(f"unknown optimal_povm target {target!r}")


def pure_two_projector_povm(psi, h) -> POVM:
    """The two-projector measurement that is optimal for pure states.

    With |chi> = (H - <H>)|psi> / DeltaH, the projectors onto
    |phi_+-> = (|psi> +- i|chi>)/sqrt(2) (plus the orthogonal complement
    in dim > 2) give f_alpha^(1/alpha) = 2 DeltaH for every alpha >= 1.
    """
    psi = require_state(psi)
    h = require_hermitian(h, "H")
    if h.shape[0] != psi.size:
        raise InvalidInputError("state and H dimensions differ")
    hpsi = h @ psi
    mean = float(np.vdot(psi, hpsi).real)
    var = float(np.vdot(hpsi, hpsi).real) - mean ** 2
    if var <= max(1e-24, (1e-12 * np.linalg.norm(h, 2)) ** 2):
        raise DegenerateInputError(
            "state is an eigenstate of H (zero variance); the two-projector "
            "measurement is undefined"
        )
    chi = (hpsi - mean * psi) / np.sqrt(var)
    phi_plus = (psi + 1j * chi) / np.sqrt(2.0)
    phi_minus = (psi - 1j * chi) / np.sqrt(2.0)
    elements = [np.outer(phi_plus, phi_plus.conj()),
                np.outer(phi_minus, phi_minus.conj())]
    if psi.size > 2:
        elements.append(np.eye(psi.size) - elements[0] - elements[1])
    return POVM(elements)


def nonhermitian_pure_speed(psi, h, gamma, alpha: float = 1.0) -> float:
    """Closed-form Schatten speed of a pure state under H_eff = H - i Gamma.

    Returns SF_alpha = (|v+g|^alpha + |v-g|^alpha)^(1/alpha), the Schatten
    norm of drho's two eigenvalues -g +- v, with
    v = sqrt(<H_eff^dag H_eff> - <H>^2) and g = <Gamma>; alpha = 1 is the
    trace speed F_1 = 2v, and alpha = inf gives v + |g|.  The quantum speed
    carries the extra factor 2^(-1/alpha).  With Gamma = 0 this reduces to
    F_1 = 2 DeltaH and speed DeltaH for every alpha.
    """
    require_alpha(alpha)
    psi = require_state(psi)
    h = require_hermitian(h, "H")
    gamma = require_hermitian(gamma, "Gamma")
    if h.shape[0] != psi.size or gamma.shape[0] != psi.size:
        raise InvalidInputError("state and generator dimensions differ")
    h_eff = h - 1j * gamma
    u = h_eff @ psi
    mean_h = float(np.vdot(psi, h @ psi).real)
    g = float(np.vdot(psi, gamma @ psi).real)
    radicand = float(np.vdot(u, u).real) - mean_h ** 2
    scale = max(float(np.vdot(u, u).real), 1.0)
    if radicand < -1e-10 * scale:
        raise NumericalConsistencyError(
            f"negative radicand {radicand:.3e} in pure-state speed"
        )
    v = float(np.sqrt(max(radicand, 0.0)))
    if v - abs(g) < -1e-10 * max(v, 1.0):  # |g| <= v holds exactly
        raise NumericalConsistencyError(
            f"speed eigenvalue {v - abs(g):.3e} below zero"
        )
    return power_mean(np.array([v + g, v - g]), alpha)


def thermal_gen_fisher(h, beta: float, alpha: float = 2.0) -> float:
    """f_alpha of a Gibbs family: the alpha-th absolute central moment of
    the energy, sum_m p_m |eps_m - <H>|^alpha, with Boltzmann weights."""
    require_finite_alpha(alpha, "f_alpha")
    beta = float(beta)
    if not math.isfinite(beta):
        raise InvalidInputError(f"beta must be finite, got {beta}")
    w = np.linalg.eigh(require_hermitian(h, "H"))[0]
    with np.errstate(over="ignore", invalid="ignore"):
        p = _boltzmann(w, beta)
    if not np.all(np.isfinite(p)):
        raise InvalidInputError(
            f"the Gibbs weights at beta = {beta:g} overflow the float range"
        )
    mean = float(np.sum(p * w))
    return float(power_sum(w - mean, alpha, p))


def weak_value_fisher(psi, h, povm: POVM, alpha: float = 2.0) -> float:
    """f_alpha of a projective measurement on a pure state via weak values.

    f_alpha = 2^alpha sum_x p_x |Im w_x|^alpha with the weak value
    w_x = <x|H|psi> / <x|psi> and p_x = |<x|psi>|^2; outcomes with
    p_x <= p_floor are skipped.  Equals gen_fisher of the induced
    distribution for the unitary family generated by H.
    """
    require_finite_alpha(alpha, "f_alpha")
    psi = require_state(psi)
    h = require_hermitian(h, "H")
    if h.shape[0] != psi.size:
        raise InvalidInputError("state and H dimensions differ")
    if povm.dim != psi.size:
        raise InvalidInputError("state dimension does not match POVM")
    weights, im = [], []
    for k, e in enumerate(povm):
        if float(np.max(np.abs(e @ e - e))) > 1e-8:
            raise InvalidInputError(
                f"POVM element {k} is not a projector; weak values need a "
                "projective measurement"
            )
        p = float(np.vdot(psi, e @ psi).real)
        if p <= P_FLOOR:
            continue
        # v = E|psi>/sqrt(p) is the relevant unit vector in range(E);
        # for rank-1 E it is the measured basis vector itself
        amp = np.vdot(psi, e @ (h @ psi)) / p
        weights.append(p)
        im.append(amp.imag)
    return float(2.0 ** alpha * power_sum(im, alpha, np.array(weights)))
