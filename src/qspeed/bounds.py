"""Upper bounds on statistical speeds and the witnesses built from them.

Covers spectral (Heisenberg-type) limits, induced superoperator norms,
separability speed caps for qubit registers and general partitions,
spin-squeezing coefficients, non-Hermitian shift-minimized bounds, and
curve length along a state path.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import NamedTuple, Sequence

import numpy as np

from . import matcore, quantum
from .errors import (
    DegenerateInputError,
    InvalidInputError,
    NumericalConsistencyError,
)
from .matcore import Superoperator, require_alpha
from .seeding import generator

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


# -- collective spins on qubit registers ------------------------------


def embed_qubit(op, site: int, n_qubits: int) -> np.ndarray:
    """Extend a single-qubit operator to an n-qubit register by identity padding."""
    op = matcore.as_matrix(op, "site operator")
    if op.shape != (2, 2):
        raise InvalidInputError(f"site operator must be 2x2, got {op.shape}")
    if not 0 <= site < n_qubits:
        raise InvalidInputError(
            f"site {site} outside a register of {n_qubits} qubits"
        )
    out = np.eye(1, dtype=complex)
    for j in range(n_qubits):
        out = np.kron(out, op if j == site else np.eye(2, dtype=complex))
    return out


@dataclass(frozen=True)
class CollectiveSpin:
    """Total spin component J_n = (1/2) sum_i n.sigma_i on a qubit register."""

    n_qubits: int
    direction: np.ndarray
    operator: np.ndarray


def collective_spin(n_qubits: int, direction) -> CollectiveSpin:
    """Build J_n for a unit direction n; its spectrum runs from -N/2 to N/2."""
    n_qubits = int(n_qubits)
    if n_qubits < 1:
        raise InvalidInputError("qubit count must be positive")
    vec = np.asarray(direction, dtype=float).reshape(-1)
    if vec.shape != (3,):
        raise InvalidInputError("direction must be a 3-vector")
    if abs(float(np.linalg.norm(vec)) - 1.0) > 1e-9:
        raise InvalidInputError("direction must be a unit vector within 1e-9")
    single = 0.5 * (vec[0] * PAULI_X + vec[1] * PAULI_Y + vec[2] * PAULI_Z)
    dim = 2 ** n_qubits
    op = np.zeros((dim, dim), dtype=complex)
    for j in range(n_qubits):
        op += embed_qubit(single, j, n_qubits)
    w = np.linalg.eigvalsh(op)
    half = 0.5 * n_qubits
    if abs(float(w[-1]) - half) > 1e-10 or abs(float(w[0]) + half) > 1e-10:
        raise NumericalConsistencyError(
            "collective spin spectrum departs from +-N/2"
        )
    return CollectiveSpin(n_qubits=n_qubits, direction=vec, operator=op)


# -- spectral limits --------------------------------------------------


class HeisenbergLimit(NamedTuple):
    f1_max: float
    f2_max: float


def heisenberg_limit(h) -> HeisenbergLimit:
    """Largest trace speed and quadratic Fisher any state can reach under H.

    The spectral gap lmax - lmin caps F_1 and its square caps F_2; an equal
    superposition of the extremal eigenvectors saturates both.
    """
    h = matcore.require_hermitian(h, "H")
    w = np.linalg.eigvalsh(h)
    # Python floats overflow to inf silently, where numpy would warn
    gap = float(w[-1]) - float(w[0])
    if not math.isfinite(gap * gap):
        raise NumericalConsistencyError(
            f"Heisenberg limit overflows: the squared spectral gap of "
            f"{gap:.6g} is not a finite float"
        )
    return HeisenbergLimit(f1_max=gap, f2_max=gap * gap)


def bhatia_davis_bound(h, rho) -> float:
    """State-dependent cap on F_2: 4 (lmax - <H>)(<H> - lmin)."""
    h = matcore.require_hermitian(h, "H")
    rho = matcore.require_density(rho)
    if rho.shape != h.shape:
        raise InvalidInputError(
            f"dimension mismatch: H is {h.shape[0]}, rho is {rho.shape[0]}"
        )
    w = np.linalg.eigvalsh(h)
    mean = float(np.real(np.trace(rho @ h)))
    hi = max(float(w[-1]) - mean, 0.0)
    lo = max(mean - float(w[0]), 0.0)
    value = 4.0 * hi * lo
    if not math.isfinite(value):
        raise NumericalConsistencyError(
            f"Bhatia-Davis bound overflows: 4 (lmax - <H>)(<H> - lmin) with "
            f"factors {hi:.6g} and {lo:.6g} is not a finite float"
        )
    return value


# -- induced superoperator norm ---------------------------------------


# A restart stops once a step raises its value by at most _GAIN_TOL of it,
# or after _MAX_ITERS steps.  Restarts advance _BLOCK rows at a time.
_MAX_ITERS = 1000
_GAIN_TOL = 1e-12
_BLOCK = 256


class SuperopNorm(NamedTuple):
    value: float
    state: np.ndarray
    converged: bool


def _dual(m: np.ndarray, psi: np.ndarray, alpha: float):
    """(||Y||_alpha, S) for each row psi: Y = herm L[psi psi^dag] =
    V diag(w) V^dag, and S = V diag(sign w (|w|/max|w|)^(alpha-1)) V^dag is
    a positive multiple of the S with ||S||_beta = 1 and Tr{S Y} = ||Y||_alpha
    (1/alpha + 1/beta = 1)."""
    n, dim = psi.shape
    rho = psi[:, :, None].conj() * psi[:, None, :]  # (psi psi^dag)^T
    y = (rho.reshape(n, -1) @ m.T).reshape(n, dim, dim).swapaxes(1, 2)
    w, v = np.linalg.eigh(matcore.hermitian_part(y))
    top = np.max(np.abs(w), axis=1)
    r = np.abs(w) / np.where(top > 0, top, 1.0)[:, None]
    value = top if math.isinf(alpha) else (
        top * np.sum(r ** alpha, axis=1) ** (1.0 / alpha))
    s = (v * (np.sign(w) * r ** (alpha - 1.0))[:, None, :]) @ v.conj().swapaxes(1, 2)
    return value, s


def superop_norm(op: Superoperator, alpha: float, *, restarts: int = 32,
                 seed: int = 0) -> SuperopNorm:
    """Induced norm sup ||L[|psi><psi|]||_alpha over unit vectors psi.

    The supremum over density operators is attained on pure states.  The
    search is Boyd's power method, from seeded random states run as one
    stack, on M divided exactly by a power of two: a step moves each state
    to the top eigenvector of herm L^dag[S], S the dual of its image (see
    _dual).  That state maximizes Tr{S L[rho]} <= ||L[rho]||_alpha (Hölder),
    so a move never lowers the value; it is kept only where the value
    rises.  The returned value is attained by the returned state, hence a
    certified lower bound on the supremum; ``converged`` is False when the
    best run only stopped at the iteration cap.  Deterministic for a fixed
    seed.
    """
    require_alpha(alpha)
    restarts = int(restarts)
    if restarts < 1:
        raise InvalidInputError("restarts must be >= 1")
    dim, scale = op.dim, _pow2_scale(op.matrix)
    m = op.matrix / scale  # exact; no norm of m overflows
    defect = op.hermiticity_preservation_defect()
    if defect > 1e-9 * max(scale * float(np.linalg.norm(m)), 1.0):
        raise InvalidInputError(
            "superoperator must preserve Hermiticity "
            f"(max|conj(M) - S M S| = {defect:.3g})"
        )
    best = (-math.inf, None, False)
    for lo in range(0, restarts, _BLOCK):
        z = np.stack([generator(seed, start).standard_normal(2 * dim)
                      for start in range(lo, min(lo + _BLOCK, restarts))])
        psi = z[:, :dim] + 1j * z[:, dim:]
        psi /= np.linalg.norm(psi, axis=1)[:, None]
        val, s = _dual(m, psi, alpha)
        live = np.ones(len(psi), dtype=bool)
        for _ in range(_MAX_ITERS):
            # L^dag[S] = unvec(M^dag vec S), by rows
            adj = s.swapaxes(1, 2).reshape(len(s), -1) @ m.conj()
            adj = adj.reshape(s.shape).swapaxes(1, 2)
            cand = np.linalg.eigh(matcore.hermitian_part(adj))[1][:, :, -1]
            cval, cs = _dual(m, cand, alpha)
            up = live & (cval > val)
            live &= cval - val > _GAIN_TOL * cval
            psi[up], val[up], s[up] = cand[up], cval[up], cs[up]
            if not live.any():
                break
        k = int(val.argmax())  # the first row with the largest value
        if val[k] > best[0]:
            best = (val[k], psi[k], not live[k])
    _, state, converged = best
    out = op.apply(np.outer(state, state.conj()))
    value = matcore.schatten_norm(0.5 * (out + out.conj().T), alpha)
    return SuperopNorm(value=value, state=state, converged=converged)


# -- non-Hermitian shift-minimized bound ------------------------------


class NonHermitianBound(NamedTuple):
    f1_bound: float
    f2_bound: float
    r_opt: float


def _dephasing_min_norm(h: np.ndarray, gamma: np.ndarray) -> tuple[float, float]:
    """Closed-form min_r ||H - i Gamma - r I||_inf for commuting 2x2 pairs.

    The squared norm is the larger of two parabolas (h_i - r)^2 + g_i^2
    with (h_i, g_i) paired by a common eigenvector.  The minimum sits at
    the apex of the parabola with the larger offset when that apex lies
    below the other parabola, and otherwise at their unique crossing r_0,
    where both parabolas take the value y_0.
    """
    w, v = np.linalg.eigh(h)
    gvals = np.real(np.diag(v.conj().T @ gamma @ v))
    h1, h2 = float(w[1]), float(w[0])
    g1, g2 = float(gvals[1]), float(gvals[0])
    span = abs(h1 - h2)
    if span <= 1e-14 * max(1.0, abs(h1), abs(h2)):
        return max(abs(g1), abs(g2)), 0.5 * (h1 + h2)
    if g1 * g1 >= span * span + g2 * g2:
        return abs(g1), h1
    if g2 * g2 >= span * span + g1 * g1:
        return abs(g2), h2
    r0 = 0.5 * (h1 + h2) + (g1 * g1 - g2 * g2) / (2.0 * (h1 - h2))
    y0 = (span * span / 4.0
          + 0.5 * (g1 * g1 + g2 * g2)
          + (g1 * g1 - g2 * g2) ** 2 / (4.0 * span * span))
    return math.sqrt(y0), r0


def _pow2_scale(a: np.ndarray) -> float:
    """The largest power of two at or below max(|Re a|, |Im a|), or 1."""
    top = max(float(np.max(np.abs(a.real))), float(np.max(np.abs(a.imag))))
    return math.ldexp(1.0, max(math.frexp(top)[1] - 1, 0))


def _commute_2x2(h: np.ndarray, gamma: np.ndarray) -> bool:
    """||[H, Gamma]||_F <= 1e-12 max(||H||_F ||Gamma||_F, 1), without overflow.

    Each matrix is first divided by a power of two, which leaves its
    entries below 2 in real and imaginary part.  That division is exact, so
    wherever neither the scaled nor the unscaled products overflow or
    underflow, the test decides as the unscaled one does, bit for bit;
    matrices with entries below 2 are not scaled at all.
    """
    sh, sg = _pow2_scale(h), _pow2_scale(gamma)
    hs, gs = h / sh, gamma / sg
    comm = float(np.linalg.norm(matcore.commutator(hs, gs)))
    scale = float(np.linalg.norm(hs)) * float(np.linalg.norm(gs))
    return comm <= 1e-12 * max(scale, 1.0 / sh / sg)


def nonhermitian_speed_bound(h, gamma) -> NonHermitianBound:
    """Speed caps for evolution generated by H - i Gamma.

    Minimizes q(r) = ||H - i Gamma - r I||_inf over real shifts; then
    F_1 <= 2 min q and F_2 <= 4 (min q)^2.  q is the norm of an affine
    family, hence convex, so a grid scan plus golden-section search over
    [lmin(H) - ||Gamma||_inf, lmax(H) + ||Gamma||_inf] finds the global
    minimum.  Commuting 2x2 pairs use the closed form of the two-parabola
    crossing and are cross-checked against the search.  Raises
    NumericalConsistencyError when the interval or the caps overflow.
    """
    h, gamma = matcore.require_h_gamma(h, gamma)
    dim = h.shape[0]
    heff = h - 1j * gamma
    eye = np.eye(dim)

    def q(r: float) -> float:
        return matcore.schatten_norm(heff - r * eye, math.inf)

    wh = np.linalg.eigvalsh(h)
    gnorm = float(np.abs(np.linalg.eigvalsh(gamma)).max())
    lo = float(wh[0]) - gnorm
    hi = float(wh[-1]) + gnorm
    if not math.isfinite(hi - lo):
        raise NumericalConsistencyError(
            f"non-Hermitian speed bound overflows: the shift interval "
            f"[{lo:.6g}, {hi:.6g}] has no finite width"
        )
    if hi - lo <= 1e-15 * max(1.0, abs(hi), abs(lo)):
        q_min, r_min = q(lo), lo
    else:
        grid = np.linspace(lo, hi, 65)
        vals = [q(r) for r in grid]
        j = int(np.argmin(vals))
        a = float(grid[max(j - 1, 0)])
        b = float(grid[min(j + 1, len(grid) - 1)])
        tol = 1e-12 * max(1.0, hi - lo)
        r, neg_q = matcore.golden_rows(
            lambda t: np.array([-q(float(t[0]))]),
            np.array([a]), np.array([b]), tol)
        r_min, q_min = float(r[0]), -float(neg_q[0])
    # Python floats overflow to inf silently
    if not math.isfinite(4.0 * q_min * q_min):
        raise NumericalConsistencyError(
            f"non-Hermitian speed bound overflows: 4 q^2 with q = "
            f"{q_min:.6g} is not a finite float"
        )

    if dim == 2 and _commute_2x2(h, gamma):
        closed, r_closed = _dephasing_min_norm(h, gamma)
        if abs(closed - q_min) > 1e-8 * max(1.0, closed):
            raise NumericalConsistencyError(
                "closed-form dephasing bound disagrees with the shift search: "
                f"{closed:.12g} vs {q_min:.12g}"
            )
        q_min, r_min = closed, r_closed
    return NonHermitianBound(f1_bound=2.0 * q_min,
                             f2_bound=4.0 * q_min * q_min,
                             r_opt=float(r_min))


# -- separability speed caps ------------------------------------------


def ksep_bound(n_qubits: int, k: int, alpha: float) -> float:
    """Schatten-speed cap for registers with at most k entangled qubits.

    2^((1-alpha)/alpha) sqrt(s k^2 + r^2) with s = floor(N/k), r = N - s k.
    A measured speed above this value witnesses entanglement of more than
    k qubits; k = 1, alpha = 1 reduces to sqrt(N).
    """
    n = int(n_qubits)
    k = int(k)
    if n < 1:
        raise InvalidInputError("qubit count must be positive")
    if not 1 <= k <= n:
        raise InvalidInputError(f"k must satisfy 1 <= k <= N, got k={k}, N={n}")
    require_alpha(alpha)
    s, r = divmod(n, k)
    expo = -1.0 if alpha == math.inf else (1.0 - alpha) / alpha
    return float(2.0 ** expo * math.sqrt(s * k * k + r * r))


def _site(s) -> int:
    if not float(s).is_integer():
        raise InvalidInputError(f"partition site {s!r} is not an integer")
    return int(s)


@dataclass(frozen=True)
class Partition:
    """Disjoint grouping of register sites with one Hamiltonian per block.

    Blocks must cover sites 0..N-1 exactly once; each block Hamiltonian is
    a Hermitian operator on the full register and should act nontrivially
    only inside its block for the separability cap to apply.
    """

    blocks: tuple
    hamiltonians: tuple

    def __post_init__(self):
        blocks = tuple(tuple(_site(s) for s in block) for block in self.blocks)
        if not blocks:
            raise InvalidInputError("partition needs at least one block")
        seen: set[int] = set()
        for block in blocks:
            if not block:
                raise InvalidInputError("partition blocks must be nonempty")
            if seen & set(block):
                raise InvalidInputError("partition blocks must be disjoint")
            seen |= set(block)
        n = len(seen)
        if seen != set(range(n)):
            raise InvalidInputError(
                f"partition blocks must cover sites 0..{n - 1} exactly"
            )
        hams = tuple(matcore.require_hermitian(hk, f"H_{i}")
                     for i, hk in enumerate(self.hamiltonians))
        if len(hams) != len(blocks):
            raise InvalidInputError(
                f"{len(blocks)} blocks but {len(hams)} Hamiltonians"
            )
        dims = {hk.shape[0] for hk in hams}
        if len(dims) != 1:
            raise InvalidInputError("block Hamiltonians must share one dimension")
        dim = dims.pop()
        if dim < 2 ** n:
            raise InvalidInputError(
                f"register dimension {dim} is below 2**{n}: every one of the "
                f"{n} sites needs at least two levels"
            )
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "hamiltonians", hams)

    @property
    def dim(self) -> int:
        return self.hamiltonians[0].shape[0]

    def total(self) -> np.ndarray:
        """The summed generator H = sum_k H_k."""
        out = np.zeros_like(self.hamiltonians[0])
        for hk in self.hamiltonians:
            out = out + hk
        return out


def asep_bound(rho, part: Partition, alpha: float) -> float:
    """Speed cap for states separable across a partition, evaluated on rho.

    2^(1/alpha) sqrt(sum_k Var_rho(H_k)); the bound is state-dependent, so
    it is computed on the submitted state.  The variances are taken on
    H_k / s, with s the largest power-of-two scale of the H_k, and the cap
    is multiplied back by s: the division is exact, so the cap has the bits
    of the unscaled sum wherever that sum does not overflow.  Raises
    NumericalConsistencyError when the cap exceeds the float range.
    """
    rho = matcore.require_density(rho)
    require_alpha(alpha)
    if rho.shape[0] != part.dim:
        raise InvalidInputError(
            f"dimension mismatch: partition is {part.dim}, rho is {rho.shape[0]}"
        )
    scale = max(_pow2_scale(hk) for hk in part.hamiltonians)
    total = 0.0
    for hk in part.hamiltonians:
        hk = hk / scale
        mean = float(np.real(np.trace(rho @ hk)))
        mean_sq = float(np.real(np.trace(rho @ hk @ hk)))
        total += max(mean_sq - mean * mean, 0.0)
    cap = scale * float(2.0 ** (1.0 / alpha) * math.sqrt(total))
    if not math.isfinite(cap):
        raise NumericalConsistencyError(
            "partition-separable cap overflows: it is not a finite float")
    return cap


def local_generator_sep_bound(local_maps: Sequence[Superoperator], *,
                              seed: int = 0, restarts: int = 32) -> float:
    """Cap on F_2 for fully separable states under independent local maps.

    Additivity plus convexity give F_2 <= sum_i ||L_i||_1^2 with each norm
    taken on the local space.  Commutator maps contribute their exact
    spectral gap squared (the Heisenberg limit), shifted non-Hermitian maps
    contribute 4 min_r ||H_eff - r I||_inf^2, and explicit-matrix maps fall
    back to the seeded norm optimizer.  Raises NumericalConsistencyError
    when the sum overflows.
    """
    total = 0.0
    for i, op in enumerate(local_maps):
        if not isinstance(op, Superoperator):
            raise InvalidInputError("local generators must be superoperators")
        if op.kind == "hamiltonian":
            total += heisenberg_limit(op.h).f2_max
        elif op.kind == "non_hermitian":
            total += nonhermitian_speed_bound(op.h, op.gamma).f2_bound
        else:
            norm = superop_norm(op, 1.0, seed=seed + i, restarts=restarts)
            total += norm.value ** 2
    if not math.isfinite(total):
        raise NumericalConsistencyError(
            "separable local-generator bound overflows: the summed caps are "
            "not a finite float"
        )
    return float(total)


# -- spin squeezing ---------------------------------------------------


def spin_squeezing_xi(rho, n_qubits: int, directions, beta: float = 2.0) -> float:
    """Generalized spin-squeezing coefficient of order beta.

    xi_beta = sqrt(N) <|J_n1 - <J_n1>|^beta>^(1/beta) / |<J_n3>| over an
    orthonormal triad (n1, n2, n3); values below 1 are impossible for
    fully separable states.  beta = 2 recovers the variance-based
    coefficient, and xi_beta >= xi_2 by moment ordering, which is enforced
    as a consistency check.
    """
    rho = matcore.require_density(rho)
    if not beta >= 2.0:
        raise InvalidInputError(f"moment order must satisfy beta >= 2, got {beta}")
    triad = [np.asarray(d, dtype=float).reshape(-1) for d in directions]
    if len(triad) != 3 or any(v.shape != (3,) for v in triad):
        raise InvalidInputError("directions must be three 3-vectors")
    for i in range(3):
        if abs(float(np.linalg.norm(triad[i])) - 1.0) > 1e-9:
            raise InvalidInputError("triad vectors must be unit length within 1e-9")
        for j in range(i + 1, 3):
            if abs(float(triad[i] @ triad[j])) > 1e-9:
                raise InvalidInputError("triad vectors must be orthogonal within 1e-9")
    n1, _, n3 = triad
    j1 = collective_spin(n_qubits, n1).operator
    j3 = collective_spin(n_qubits, n3).operator
    if rho.shape[0] != j1.shape[0]:
        raise InvalidInputError(
            f"rho dimension {rho.shape[0]} does not match {n_qubits} qubits"
        )
    mean3 = float(np.real(np.trace(rho @ j3)))
    if abs(mean3) <= 1e-12:
        raise DegenerateInputError(
            "mean spin along the reference axis vanishes; the coefficient is undefined"
        )
    mean1 = float(np.real(np.trace(rho @ j1)))
    centered = j1 - mean1 * np.eye(j1.shape[0])
    moment_op = matcore.herm_fun(centered, lambda x: np.abs(x) ** beta)
    moment = max(float(np.real(np.trace(rho @ moment_op))), 0.0)
    var = max(float(np.real(np.trace(rho @ centered @ centered))), 0.0)
    root_n = math.sqrt(n_qubits)
    xi = root_n * moment ** (1.0 / beta) / abs(mean3)
    xi2 = root_n * math.sqrt(var) / abs(mean3)
    if xi < xi2 - 1e-9 * max(1.0, xi2):
        raise NumericalConsistencyError(
            f"moment ordering violated: xi_{beta} = {xi:.12g} < xi_2 = {xi2:.12g}"
        )
    return float(xi)


# -- curve length -----------------------------------------------------

def curve_length(fam: quantum.ParametricFamily, theta_start: float,
                 theta_end: float, kind: str = "bures",
                 alpha: float = 2.0, *, tol: float = 1e-8) -> float:
    """Length of the state path: the chosen speed integrated over theta.

    QUADPACK quadrature to absolute tolerance ``tol`` (1e-8 by default),
    which must be positive and finite; raises NumericalConsistencyError
    when the quadrature cannot reach it.
    """
    a, b = float(theta_start), float(theta_end)
    if not a <= b:
        raise InvalidInputError("interval must satisfy theta_start <= theta_end")
    tol = float(tol)
    if not 0 < tol < math.inf:
        raise InvalidInputError(f"tol must be positive and finite, got {tol}")
    if a == b:
        return 0.0
    return matcore.integrate(
        lambda t: quantum.statistical_speed(fam, t, kind=kind, alpha=alpha),
        a, b, tol, 0.0, "curve-length quadrature")


# -- witness plumbing -------------------------------------------------


@dataclass(frozen=True)
class WitnessReport:
    """Outcome of comparing a measured speed with a separability cap."""

    speed: float
    bound: float
    kind: str
    alpha: float
    verdict: str

    def to_json(self) -> dict:
        return asdict(self)


def _as_family(subject, generator_spec) -> quantum.ParametricFamily:
    if isinstance(subject, quantum.ParametricFamily):
        if generator_spec is not None:
            raise InvalidInputError(
                "a parametric family already carries its generator"
            )
        return subject
    if generator_spec is None:
        raise InvalidInputError(
            "a bare state needs a generator: a Hermitian matrix, an "
            "(h, gamma) pair, or a superoperator"
        )
    if isinstance(generator_spec, Superoperator):
        return quantum.ParametricFamily.lindblad(generator_spec, subject)
    if isinstance(generator_spec, (tuple, list)) and len(generator_spec) == 2:
        h, gamma = generator_spec
        return quantum.ParametricFamily.non_hermitian(h, gamma, subject)
    return quantum.ParametricFamily.unitary(generator_spec, subject)


def witness(subject, generator_spec=None, *, kind: str = "ksep",
            alpha: float = 1.0, theta: float = 0.0, k: int = 1,
            partition: Partition | None = None) -> WitnessReport:
    """Entanglement test: measured speed against a separability cap.

    ``subject`` is a parametric family, or a state combined with
    ``generator_spec`` (Hermitian matrix for unitary evolution, an
    (h, gamma) pair, or a superoperator).  kind "ksep" caps qubit
    registers in which at most k qubits are entangled; kind "asep" caps
    states separable across ``partition``.  The verdict is "entangled"
    only when the speed exceeds the cap by a 1e-9 relative margin, so the
    witness never fires on numerical noise.
    """
    require_alpha(alpha)
    fam = _as_family(subject, generator_spec)
    rho, drho = fam.at(theta)
    speed = matcore.schatten_norm(drho, alpha)
    if kind == "ksep":
        dim = fam.dim
        n = int(round(math.log2(dim)))
        if 2 ** n != dim:
            raise InvalidInputError(
                f"the k-entangled cap needs a qubit register, got dim {dim}"
            )
        bound = ksep_bound(n, k, alpha)
    elif kind == "asep":
        if partition is None:
            raise InvalidInputError("the partition cap needs a partition")
        bound = asep_bound(rho, partition, alpha)
    else:
        raise InvalidInputError(f"unknown bound kind {kind!r}")
    verdict = "entangled" if speed > bound * (1.0 + 1e-9) else "undecided"
    return WitnessReport(speed=float(speed), bound=float(bound), kind=kind,
                         alpha=float(alpha), verdict=verdict)
