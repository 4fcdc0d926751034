"""Independent brute-force verifiers used by the test suite.

Provides a POVM-search maximizer for the measured (classical) quantities,
finite-difference speed estimates with error bars, and seeded random
instance generators.  Everything here is deliberately simple so it can
serve as an oracle for the closed forms elsewhere in the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import matcore, quantum
from .errors import InvalidInputError
from .matcore import P_FLOOR
from .seeding import generator

MAX_SEARCH_DIM = 4

_OBJECTIVES = ("f_alpha", "sf_alpha", "d_alpha", "sd_alpha")

# angle grid for the 1-D Givens search; the restricted objective is a
# function of cos(2t), sin(2t), so one period is covered
_GRID = [-math.pi / 2 + k * math.pi / 25 for k in range(25)]
_SPACING = math.pi / 25


@dataclass(frozen=True)
class SearchConfig:
    """Knobs for the POVM search; defaults match the test suite."""

    restarts: int = 32
    max_sweeps: int = 60
    step_tol: float = 1e-12
    seed: int = 0

    def __post_init__(self):
        if int(self.restarts) < 1:
            raise InvalidInputError("restarts must be >= 1")


# -- random instances -------------------------------------------------


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a Ginibre matrix with phase fix."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    d = np.diag(r)
    return q * (d / np.abs(d))


def _ginibre_density(dim: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return rho / np.real(np.trace(rho))


def _haar_pure(dim: int, rng: np.random.Generator) -> np.ndarray:
    psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return psi / np.linalg.norm(psi)


def _gue_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (g + g.conj().T) / 2.0


def random_instance(kind: str, dim: int, seed: int, index: int):
    """The seeded random input keyed by (seed, index).

    kind "density": Ginibre density matrices; "pure": Haar state vectors;
    "hermitian": GUE-style observables; "povm": rank-1 projective
    measurements from Haar unitaries; "product_state": tensor products of
    Haar qubit states, where ``dim`` counts qubits.
    """
    dim = int(dim)
    if dim < 1:
        raise InvalidInputError("dimension must be positive")
    rng = generator(seed, index)
    if kind == "density":
        return _ginibre_density(dim, rng)
    if kind == "pure":
        return _haar_pure(dim, rng)
    if kind == "hermitian":
        return _gue_hermitian(dim, rng)
    if kind == "povm":
        u = haar_unitary(dim, rng)
        return quantum.POVM([np.outer(u[:, j], u[:, j].conj())
                             for j in range(dim)])
    if kind == "product_state":
        psi = np.ones(1, dtype=complex)
        for q in range(dim):
            psi = np.kron(psi, _haar_pure(2, generator(seed, index, q)))
        return psi
    raise InvalidInputError(f"unsupported instance kind {kind!r}")


def random_instances(kind: str, dim: int, seed: int, count: int = 1) -> list:
    """The first ``count`` instances of :func:`random_instance`."""
    count = int(count)
    if count < 0:
        raise InvalidInputError("count must be nonnegative")
    return [random_instance(kind, dim, seed, i) for i in range(count)]


# -- finite-difference speeds -----------------------------------------


def _raw_distance(a: np.ndarray, b: np.ndarray, kind: str, alpha: float) -> float:
    # raw norms, so subnormalized states from decaying families still work
    if kind == "trace":
        return 0.5 * matcore.schatten_norm(a - b, 1)
    if kind == "schatten":
        if math.isinf(alpha):
            return matcore.schatten_norm(a - b, math.inf)
        return float(2.0 ** (-1.0 / alpha) * matcore.schatten_norm(a - b, alpha))
    if kind == "bures":
        return quantum.bures_distance(a, b)
    raise InvalidInputError(f"unknown distance kind {kind!r}")


def finite_diff_speed(fam: quantum.ParametricFamily, theta: float,
                      kind: str = "bures", alpha: float = 2.0,
                      h: float = 1e-4) -> tuple[float, float]:
    """Forward-difference speed D(rho(theta+h), rho(theta)) / h with a bar.

    Step-halving Richardson extrapolation of the first-order forward
    difference: with R(h) and R(h/2), the estimate is 2 R(h/2) - R(h).
    Returns (estimate, error bar); the bar combines the extrapolation
    shift with a noise floor and bounds the truncation error in practice.
    """
    if not 1e-6 <= h <= 1e-2:
        raise InvalidInputError(f"step must satisfy 1e-6 <= h <= 1e-2, got {h}")
    if not math.isinf(alpha) and not alpha >= 1.0:
        raise InvalidInputError(f"alpha must be >= 1 or inf, got {alpha}")
    base = fam.state_at(theta)
    r1 = _raw_distance(fam.state_at(theta + h), base, kind, alpha) / h
    r2 = _raw_distance(fam.state_at(theta + h / 2), base, kind, alpha) / (h / 2)
    estimate = 2.0 * r2 - r1
    bar = abs(estimate - r2) + 1e-9 * max(1.0, abs(estimate))
    return float(estimate), float(bar)


# -- POVM search ------------------------------------------------------


def _make_cell(objective: str, alpha: float):
    """Scalar per-outcome contribution cell(p, x) for the 1-D angle search."""
    if objective == "f_alpha":
        if alpha == 1.0:
            return lambda p, x: abs(x)

        def cell_f(p: float, x: float) -> float:
            # floor-clamped denominator can only lower the value, keeping
            # the search a valid lower bound on the closed form
            pc = p if p > P_FLOOR else P_FLOOR
            return pc * (abs(x) / pc) ** alpha

        return cell_f
    if objective == "sf_alpha":
        if math.isinf(alpha):
            return lambda p, x: abs(x)
        return lambda p, x: abs(x) ** alpha
    if objective == "d_alpha":
        inv = 1.0 / alpha

        def cell_d(p: float, x: float) -> float:
            pp = p if p > 0.0 else 0.0
            qq = x if x > 0.0 else 0.0
            return 0.5 * abs(pp ** inv - qq ** inv) ** alpha

        return cell_d
    if objective == "sd_alpha":
        if math.isinf(alpha):
            def cell_sd_inf(p: float, x: float) -> float:
                return abs(p - (x if x > 0.0 else 0.0))

            return cell_sd_inf

        def cell_sd(p: float, x: float) -> float:
            return 0.5 * abs(p - (x if x > 0.0 else 0.0)) ** alpha

        return cell_sd
    raise InvalidInputError(
        f"objective must be one of {_OBJECTIVES}, got {objective!r}"
    )


def _reduce(total: float, objective: str, alpha: float) -> float:
    if objective == "f_alpha" or math.isinf(alpha):
        return float(total)
    return float(total ** (1.0 / alpha))


def _golden_max(fn, a: float, b: float, tol: float) -> tuple[float, float]:
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = fn(c), fn(d)
    while b - a > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = fn(d)
    t = 0.5 * (a + b)
    return t, fn(t)


def _resolve_inputs(fam, theta: float, objective: str, partner):
    if objective in ("f_alpha", "sf_alpha"):
        if not isinstance(fam, quantum.ParametricFamily):
            raise InvalidInputError(
                f"the {objective} objective needs a parametric family"
            )
        if partner is not None:
            raise InvalidInputError("partner state only applies to distances")
        return fam.state_at(theta), fam.derivative_at(theta)
    if objective in ("d_alpha", "sd_alpha"):
        if partner is None:
            raise InvalidInputError(
                f"the {objective} objective needs a partner state"
            )
        rho = fam.state_at(theta) if isinstance(fam, quantum.ParametricFamily) \
            else matcore.require_density(fam)
        return rho, matcore.require_density(partner)
    raise InvalidInputError(
        f"objective must be one of {_OBJECTIVES}, got {objective!r}"
    )


def brute_force_max(fam, theta: float, objective: str, alpha: float,
                    cfg: SearchConfig | None = None,
                    partner=None) -> tuple[float, quantum.POVM]:
    """Maximize a measured quantity over rank-1 projective measurements.

    Parametrizes the measurement by a unitary basis and runs seeded random
    starts followed by Givens-rotation coordinate ascent.  For an index
    pair and phase, the rotated probabilities are sinusoids in twice the
    angle and only two outcomes change, so each move is an angle-grid scan
    plus golden-section refinement with O(1) evaluations.  Restriction to
    projective measurements is enough to attain the closed-form maxima.
    Returns (best value, best measurement).
    """
    if cfg is None:
        cfg = SearchConfig()
    if not math.isinf(alpha) and not alpha >= 1.0:
        raise InvalidInputError(f"alpha must be >= 1 or inf, got {alpha}")
    if math.isinf(alpha) and objective in ("f_alpha", "d_alpha"):
        raise InvalidInputError(f"alpha = inf is not defined for {objective}")
    rho, x = _resolve_inputs(fam, theta, objective, partner)
    dim = rho.shape[0]
    if dim > MAX_SEARCH_DIM:
        raise InvalidInputError(
            f"search dimension {dim} exceeds the cost guard {MAX_SEARCH_DIM}"
        )
    cell = _make_cell(objective, alpha)
    use_max = math.isinf(alpha)
    pairs = [(i, j) for i in range(dim) for j in range(i + 1, dim)]

    def diag_cells(u: np.ndarray) -> list[float]:
        p = np.real(np.diag(u.conj().T @ rho @ u))
        q = np.real(np.diag(u.conj().T @ x @ u))
        return [cell(float(p[k]), float(q[k])) for k in range(dim)]

    best_total = -math.inf
    best_u = np.eye(dim, dtype=complex)
    for start in range(int(cfg.restarts)):
        rng = generator(cfg.seed, start)
        u = haar_unitary(dim, rng)
        a = u.conj().T @ rho @ u
        b = u.conj().T @ x @ u
        cells = diag_cells(u)
        total = max(cells) if use_max else sum(cells)
        for _ in range(int(cfg.max_sweeps)):
            sweep_gain = 0.0
            for (i, j) in pairs:
                for phase in (0.0, math.pi / 2):
                    w = 1.0 if phase == 0.0 else -1j
                    ma = 0.5 * float(np.real(a[i, i] + a[j, j]))
                    da = 0.5 * float(np.real(a[i, i] - a[j, j]))
                    ca = float((w * a[i, j]).real)
                    mb = 0.5 * float(np.real(b[i, i] + b[j, j]))
                    db = 0.5 * float(np.real(b[i, i] - b[j, j]))
                    cb = float((w * b[i, j]).real)
                    if use_max:
                        rest = max((cells[k] for k in range(dim)
                                    if k not in (i, j)), default=0.0)

                        def pair_total(t: float) -> float:
                            c2, s2 = math.cos(2 * t), math.sin(2 * t)
                            pi_ = ma + da * c2 + ca * s2
                            xi_ = mb + db * c2 + cb * s2
                            return max(rest, cell(pi_, xi_),
                                       cell(2 * ma - pi_, 2 * mb - xi_))
                    else:
                        rest = total - cells[i] - cells[j]

                        def pair_total(t: float) -> float:
                            c2, s2 = math.cos(2 * t), math.sin(2 * t)
                            pi_ = ma + da * c2 + ca * s2
                            xi_ = mb + db * c2 + cb * s2
                            return rest + cell(pi_, xi_) \
                                + cell(2 * ma - pi_, 2 * mb - xi_)

                    vals = [pair_total(t) for t in _GRID]
                    kbest = max(range(len(_GRID)), key=vals.__getitem__)
                    t0 = _GRID[kbest]
                    t_star, v_star = _golden_max(
                        pair_total, t0 - _SPACING, t0 + _SPACING, 1e-8
                    )
                    if vals[kbest] > v_star:
                        t_star, v_star = t0, vals[kbest]
                    if v_star > total + cfg.step_tol:
                        c, s = math.cos(t_star), math.sin(t_star)
                        g = np.array([[c, -s * np.exp(1j * phase)],
                                      [s * np.exp(-1j * phase), c]],
                                     dtype=complex)
                        for mat in (a, b):
                            mat[:, [i, j]] = mat[:, [i, j]] @ g
                            mat[[i, j], :] = g.conj().T @ mat[[i, j], :]
                        u[:, [i, j]] = u[:, [i, j]] @ g
                        cells[i] = cell(float(np.real(a[i, i])),
                                        float(np.real(b[i, i])))
                        cells[j] = cell(float(np.real(a[j, j])),
                                        float(np.real(b[j, j])))
                        sweep_gain += v_star - total
                        total = max(cells) if use_max else sum(cells)
            if sweep_gain <= cfg.step_tol:
                break
        if total > best_total:
            best_total = total
            best_u = u.copy()

    value = _reduce(best_total, objective, alpha)
    povm = quantum.POVM(
        [np.outer(best_u[:, j], best_u[:, j].conj()) for j in range(dim)]
    )
    return float(value), povm
