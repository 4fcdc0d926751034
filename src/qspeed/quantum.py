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

from dataclasses import dataclass

import numpy as np

from .classical import ParametricDist, as_prob
from .errors import (DegenerateInputError, InvalidInputError,
                     NumericalConsistencyError)
from .matcore import (P_FLOOR, Superoperator, as_matrix, hermiticity_defect,
                      positivity_violation, require_alpha, require_density,
                      require_h_gamma, require_hermitian, require_state,
                      schatten_norm, vec, zero_tol)

COMPLETENESS_TOL = 1e-9


def _expm(a: np.ndarray) -> np.ndarray:
    # scipy is imported here, not at module level: its import takes several
    # times as long as numpy's, and only the non_hermitian and lindblad kinds
    # need it.  The lookup goes through the module on every call so that a
    # patched scipy.linalg.expm is seen.
    import scipy.linalg

    return scipy.linalg.expm(a)


def sld_tol(rho: np.ndarray) -> float:
    """Support cutoff for the SLD: eigenvalue pairs with lambda_i + lambda_j
    at or below this are excluded from the inversion."""
    w = np.linalg.eigvalsh(rho)
    return rho.shape[0] * 1e-12 * max(float(np.max(np.abs(w))), 1e-300)


def completeness_violation(elements) -> float:
    """max |sum_k E_k - I|, entrywise, when it exceeds COMPLETENESS_TOL."""
    total = sum(elements)
    defect = float(np.max(np.abs(total - np.eye(total.shape[0]))))
    return defect if defect > COMPLETENESS_TOL else 0.0


class POVM:
    """A positive-operator-valued measure: PSD elements summing to identity."""

    def __init__(self, elements):
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
        defect = completeness_violation(elems)
        if defect:
            raise InvalidInputError(
                f"POVM elements sum to identity only within {defect:.3e}"
            )
        self.elements = tuple(elems)
        self.dim = dim

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def probabilities(self, rho) -> np.ndarray:
        rho = as_matrix(rho, "rho")
        if rho.shape[0] != self.dim:
            raise InvalidInputError("state dimension does not match POVM")
        p = np.array([float(np.trace(e @ rho).real) for e in self.elements])
        return np.clip(p, 0.0, None)

    def expectations(self, x) -> np.ndarray:
        """Tr{E_k X} for an arbitrary operator X (no clipping)."""
        x = as_matrix(x, "operand")
        return np.array([float(np.trace(e @ x).real) for e in self.elements])


def basis_povm(dim: int) -> POVM:
    """Computational-basis projective measurement."""
    eye = np.eye(dim)
    return POVM([np.outer(eye[:, k], eye[:, k]) for k in range(dim)])


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
    """

    def __init__(self, kind: str, dim: int):
        self.kind = kind
        self.dim = dim
        self.h = None
        self.gamma = None
        self.superop = None
        self.rho0 = None
        self.psi0 = None

    # -- constructors -------------------------------------------------

    @classmethod
    def unitary(cls, h, state) -> "ParametricFamily":
        h = require_hermitian(h, "H")
        fam = cls("unitary", h.shape[0])
        fam.h = h
        fam._set_initial_state(state)
        fam._hw, fam._hv = np.linalg.eigh(h)
        return fam

    @classmethod
    def non_hermitian(cls, h, gamma, state) -> "ParametricFamily":
        h, gamma = require_h_gamma(h, gamma)
        fam = cls("non_hermitian", h.shape[0])
        fam.h = h
        fam.gamma = gamma
        fam._h_eff = h - 1j * gamma
        fam._set_initial_state(state)
        return fam

    @classmethod
    def lindblad(cls, superop: Superoperator, state) -> "ParametricFamily":
        if not isinstance(superop, Superoperator):
            superop = Superoperator.from_matrix(superop)
        fam = cls("lindblad", superop.dim)
        fam.superop = superop
        fam._set_initial_state(state)
        # the kind promises trace conservation: Tr L[X] = 0 for all X
        trace_row = vec(np.eye(superop.dim)).conj() @ superop.matrix
        scale = max(float(np.max(np.abs(superop.matrix))), 1.0)
        if float(np.max(np.abs(trace_row))) > COMPLETENESS_TOL * scale:
            raise InvalidInputError(
                "lindblad generator does not conserve trace; use the "
                "non_hermitian kind for trace-decaying evolutions"
            )
        return fam

    @classmethod
    def thermal(cls, h) -> "ParametricFamily":
        h = require_hermitian(h, "H")
        fam = cls("thermal", h.shape[0])
        fam.h = h
        fam._hw, fam._hv = np.linalg.eigh(h)
        return fam

    @classmethod
    def table(cls, points) -> "ParametricFamily":
        if len(points) < 3:
            raise InvalidInputError("table family needs at least 3 grid points")
        thetas = np.asarray([float(t) for t, _ in points])
        steps = np.diff(thetas)
        if np.any(steps <= 0):
            raise InvalidInputError("table thetas must be strictly increasing")
        h = float(np.mean(steps))
        if np.max(np.abs(steps - h)) > 1e-9 * max(abs(h), 1.0):
            raise InvalidInputError("table family requires a uniform theta grid")
        states = [require_density(s, f"table state {k}")
                  for k, (_, s) in enumerate(points)]
        fam = cls("table", states[0].shape[0])
        for s in states:
            if s.shape[0] != fam.dim:
                raise InvalidInputError("table states have mixed dimensions")
        fam._thetas = thetas
        fam._states = states
        fam._step = h
        return fam

    def _set_initial_state(self, state):
        state = np.asarray(state, dtype=complex)
        if state.ndim == 1:
            self.psi0 = require_state(state)
            self.rho0 = np.outer(self.psi0, self.psi0.conj())
        else:
            self.rho0 = require_density(state)
        if self.rho0.shape[0] != self.dim:
            raise InvalidInputError(
                f"state dim {self.rho0.shape[0]} does not match generator dim {self.dim}"
            )

    # -- evaluation ---------------------------------------------------

    def state_at(self, theta: float) -> np.ndarray:
        theta = float(theta)
        if self.kind == "unitary":
            u = (self._hv * np.exp(-1j * self._hw * theta)) @ self._hv.conj().T
            return u @ self.rho0 @ u.conj().T
        if self.kind == "non_hermitian":
            e = _expm(-1j * self._h_eff * theta)
            return e @ self.rho0 @ e.conj().T
        if self.kind == "lindblad":
            prop = _expm(self.superop.matrix * theta)
            from .matcore import unvec
            return unvec(prop @ vec(self.rho0), self.dim)
        if self.kind == "thermal":
            p = self._boltzmann(theta)
            return (self._hv * p) @ self._hv.conj().T
        if self.kind == "table":
            i = self._grid_index(theta)
            return self._states[i]
        raise InvalidInputError(f"unknown family kind {self.kind!r}")

    def derivative_at(self, theta: float) -> np.ndarray:
        theta = float(theta)
        if self.kind == "unitary":
            rho = self.state_at(theta)
            d = -1j * (self.h @ rho - rho @ self.h)
        elif self.kind == "non_hermitian":
            rho = self.state_at(theta)
            d = -1j * (self._h_eff @ rho - rho @ self._h_eff.conj().T)
        elif self.kind == "lindblad":
            d = self.superop.apply(self.state_at(theta))
        elif self.kind == "thermal":
            p = self._boltzmann(theta)
            mean = float(np.sum(p * self._hw))
            d = (self._hv * (p * (mean - self._hw))) @ self._hv.conj().T
        elif self.kind == "table":
            d = self._table_derivative(theta)
        else:
            raise InvalidInputError(f"unknown family kind {self.kind!r}")
        defect = hermiticity_defect(d)
        scale = max(float(np.max(np.abs(d))), 1.0)
        if defect > 1e-8 * scale:
            raise NumericalConsistencyError(
                f"family derivative lost Hermiticity: defect {defect:.3e}"
            )
        return (d + d.conj().T) / 2

    def _boltzmann(self, beta: float) -> np.ndarray:
        a = -beta * self._hw
        a -= np.max(a)  # overflow guard
        w = np.exp(a)
        return w / np.sum(w)

    def _grid_index(self, theta: float) -> int:
        i = int(np.argmin(np.abs(self._thetas - theta)))
        if abs(self._thetas[i] - theta) > 1e-9 * max(1.0, abs(theta)):
            raise InvalidInputError(
                f"theta {theta} is not on the table grid"
            )
        return i

    def _table_derivative(self, theta: float) -> np.ndarray:
        i = self._grid_index(theta)
        n = len(self._states)
        if i == 0 or i == n - 1:
            raise InvalidInputError(
                "table derivative needs an interior grid point"
            )
        h = self._step
        d1 = (self._states[i + 1] - self._states[i - 1]) / (2 * h)
        if 2 <= i <= n - 3:
            d2 = (self._states[i + 2] - self._states[i - 2]) / (4 * h)
            return (4 * d1 - d2) / 3
        return d1


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
    p = povm.probabilities(fam.state_at(theta))
    dp = povm.expectations(fam.derivative_at(theta))
    return ParametricDist(p, dp)


# -- distances --------------------------------------------------------


def _require_states(rho, sigma) -> tuple[np.ndarray, np.ndarray]:
    rho = require_density(rho, "rho")
    sigma = require_density(sigma, "sigma")
    if rho.shape != sigma.shape:
        raise InvalidInputError("states have different dimensions")
    return rho, sigma


def fidelity(rho, sigma) -> float:
    """Uhlmann fidelity F(rho, sigma) = Tr sqrt(sqrt(rho) sigma sqrt(rho)).

    Computed as the nuclear norm of sqrt(rho) sqrt(sigma); equals
    |<psi|phi>| for pure states.
    """
    rho, sigma = _require_states(rho, sigma)
    wr, vr = np.linalg.eigh(rho)
    ws, vs = np.linalg.eigh(sigma)
    sr = (vr * np.sqrt(np.clip(wr, 0.0, None))) @ vr.conj().T
    ss = (vs * np.sqrt(np.clip(ws, 0.0, None))) @ vs.conj().T
    f = float(np.sum(np.linalg.svd(sr @ ss, compute_uv=False)))
    return min(max(f, 0.0), 1.0)


def bures_distance(rho, sigma) -> float:
    """D_2(rho, sigma) = sqrt(1 - F(rho, sigma)), normalized to [0, 1]."""
    return float(np.sqrt(max(1.0 - fidelity(rho, sigma), 0.0)))


def trace_distance(rho, sigma) -> float:
    """D_1(rho, sigma) = (1/2)||rho - sigma||_1."""
    rho, sigma = _require_states(rho, sigma)
    return 0.5 * schatten_norm(rho - sigma, 1)


def schatten_distance(rho, sigma, alpha: float) -> float:
    """SD_alpha(rho, sigma) = ((1/2) Tr|rho - sigma|^alpha)^(1/alpha)."""
    require_alpha(alpha)
    rho, sigma = _require_states(rho, sigma)
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
    the eigenbasis of rho, live marks eigenvalue pairs above the support
    cutoff, qsum is the Fisher sum over the live pairs and support counts
    the eigenvalues above the cutoff.  A derivative
    entry inside the null-null block would contribute roughly
    |d|^2 / cutoff if the block were included; when that lost term is
    non-negligible against the live sum the Fisher information is
    formally infinite and a rank-deficiency error is raised.  Measuring
    the lost contribution rather than the raw entry keeps nearly-frozen
    full-rank states (a thermal family at large beta) computable: their
    null-block entries scale with the vanishing eigenvalue itself.
    """
    w, v = np.linalg.eigh(rho)
    tol = sld_tol(rho)
    d = v.conj().T @ drho @ v
    denom = w[:, None] + w[None, :]
    live = denom > tol
    qsum = float(np.sum(np.where(live, 2.0 * np.abs(d) ** 2
                                 / np.where(live, denom, 1.0), 0.0)))
    null = w <= tol
    if np.any(null):
        block = d[np.ix_(null, null)]
        if block.size:
            lost = float(np.max(np.abs(block))) ** 2 / tol
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
    rho = fam.state_at(theta)
    drho = fam.derivative_at(theta)
    v, d, denom, live, _, support = _support_blocks(rho, drho)
    l_eig = np.where(live, 2.0 * d / np.where(live, denom, 1.0), 0.0)
    op = v @ l_eig @ v.conj().T
    op = (op + op.conj().T) / 2
    return SLDResult(operator=op, support_dim=support)


def qfi(fam: ParametricFamily, theta: float) -> float:
    """Quantum Fisher information F_2 = Tr{rho L^2}.

    Evaluated as sum_{ij} 2 |<i|drho|j>|^2 / (lambda_i + lambda_j) over the
    support, which is algebraically identical and numerically tighter.
    """
    rho = fam.state_at(theta)
    drho = fam.derivative_at(theta)
    return _support_blocks(rho, drho)[4]


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
    tol = zero_tol(a)
    elements = []
    null_cols = []
    for k in range(len(w)):
        if abs(w[k]) <= tol:
            null_cols.append(k)
        else:
            col = v[:, k:k + 1]
            elements.append(col @ col.conj().T)
    if null_cols:
        block = v[:, null_cols]
        elements.append(block @ block.conj().T)
    return POVM(elements)


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

    Returns SF_alpha = ((v+g)^alpha + (v-g)^alpha)^(1/alpha) with
    v = sqrt(<H_eff^dag H_eff> - <H>^2) and g = <Gamma>; alpha = 1 is the
    trace speed F_1 = 2v.  The quantum speed carries the extra factor
    2^(-1/alpha).  With Gamma = 0 this reduces to F_1 = 2 DeltaH and
    speed DeltaH for every alpha.
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
    lo = v - g
    if lo < 0:
        # |g| <= v holds exactly; tolerate roundoff only
        if lo < -1e-10 * max(v, 1.0):
            raise NumericalConsistencyError(
                f"speed eigenvalue {lo:.3e} below zero"
            )
        lo = 0.0
    if np.isinf(alpha):
        return v + g
    return float(((v + g) ** alpha + lo ** alpha) ** (1.0 / alpha))


def thermal_gen_fisher(h, beta: float, alpha: float = 2.0) -> float:
    """f_alpha of a Gibbs family: the alpha-th absolute central moment of
    the energy, sum_m p_m |eps_m - <H>|^alpha, with Boltzmann weights."""
    require_alpha(alpha)
    fam = ParametricFamily.thermal(h)
    p = fam._boltzmann(float(beta))
    mean = float(np.sum(p * fam._hw))
    return float(np.sum(p * np.abs(fam._hw - mean) ** alpha))


def weak_value_fisher(psi, h, povm: POVM, alpha: float = 2.0) -> float:
    """f_alpha of a projective measurement on a pure state via weak values.

    f_alpha = 2^alpha sum_x p_x |Im w_x|^alpha with the weak value
    w_x = <x|H|psi> / <x|psi> and p_x = |<x|psi>|^2; outcomes with
    p_x <= p_floor are skipped.  Equals gen_fisher of the induced
    distribution for the unitary family generated by H.
    """
    require_alpha(alpha)
    psi = require_state(psi)
    h = require_hermitian(h, "H")
    total = 0.0
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
        total += p * abs(amp.imag) ** alpha
    return float(2.0 ** alpha * total)
