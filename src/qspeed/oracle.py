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
from .errors import InvalidInputError, NumericalConsistencyError
from .matcore import (P_FLOOR, golden_rows, require_alpha,
                      require_finite_alpha)
from .seeding import generator

MAX_SEARCH_DIM = 4

_OBJECTIVES = ("f_alpha", "sf_alpha", "d_alpha", "sd_alpha")

# angle grid for the 1-D Givens search; the restricted objective is a
# function of cos(2t), sin(2t), so one period is covered
_GRID = np.array([-math.pi / 2 + k * math.pi / 25 for k in range(25)])
_GRID_C2 = np.array([math.cos(2 * t) for t in _GRID])
_GRID_S2 = np.array([math.sin(2 * t) for t in _GRID])
_SPACING = math.pi / 25

# a Givens move or a sweep must raise a restart's total by more than
# _STEP_TOL to count; a restart stops after _MAX_SWEEPS sweeps at most
_STEP_TOL = 1e-12
_MAX_SWEEPS = 60

# restarts advance together as one stack of rows, at most this many at a
# time, so memory stays O(_BLOCK d^2) for any restart count
_BLOCK = 256


@dataclass(frozen=True)
class SearchConfig:
    """Restart count and seed of the POVM search; defaults match the tests."""

    restarts: int = 32
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
    require_alpha(alpha)
    base = fam.state_at(theta)
    r1 = _raw_distance(fam.state_at(theta + h), base, kind, alpha) / h
    r2 = _raw_distance(fam.state_at(theta + h / 2), base, kind, alpha) / (h / 2)
    estimate = 2.0 * r2 - r1
    bar = abs(estimate - r2) + 1e-9 * max(1.0, abs(estimate))
    return float(estimate), float(bar)


# -- POVM search ------------------------------------------------------


def _make_cell(objective: str, alpha: float):
    """Per-outcome contribution cell(p, x), elementwise on arrays."""
    # np.float_power rounds as the C library's pow does; np.power's SIMD
    # loop can differ in the last bit, which moves the searched optimum.
    # np.fmax(p, f) is `p if p > f else f`, a NaN p included.
    pw = np.float_power
    if objective == "f_alpha":
        if alpha == 1.0:
            return lambda p, x: np.abs(x)

        def cell_f(p: np.ndarray, x: np.ndarray) -> np.ndarray:
            # floor-clamped denominator can only lower the value, keeping
            # the search a valid lower bound on the closed form
            pc = np.fmax(p, P_FLOOR)
            return pc * pw(np.abs(x) / pc, alpha)

        return cell_f
    if objective == "sf_alpha":
        if math.isinf(alpha):
            return lambda p, x: np.abs(x)
        return lambda p, x: pw(np.abs(x), alpha)
    if objective == "d_alpha":
        inv = 1.0 / alpha

        def cell_d(p: np.ndarray, x: np.ndarray) -> np.ndarray:
            pp = np.fmax(p, 0.0)
            qq = np.fmax(x, 0.0)
            return 0.5 * pw(np.abs(pw(pp, inv) - pw(qq, inv)), alpha)

        return cell_d
    if objective == "sd_alpha":
        if math.isinf(alpha):
            def cell_sd_inf(p: np.ndarray, x: np.ndarray) -> np.ndarray:
                return np.abs(p - np.fmax(x, 0.0))

            return cell_sd_inf

        def cell_sd(p: np.ndarray, x: np.ndarray) -> np.ndarray:
            return 0.5 * pw(np.abs(p - np.fmax(x, 0.0)), alpha)

        return cell_sd
    raise InvalidInputError(
        f"objective must be one of {_OBJECTIVES}, got {objective!r}"
    )


def _reduce(total: float, objective: str, alpha: float) -> float:
    if objective == "f_alpha" or math.isinf(alpha):
        return float(total)
    return float(total ** (1.0 / alpha))


def _resolve_inputs(fam, theta: float, objective: str, partner):
    if objective in ("f_alpha", "sf_alpha"):
        if not isinstance(fam, quantum.ParametricFamily):
            raise InvalidInputError(
                f"the {objective} objective needs a parametric family"
            )
        if partner is not None:
            raise InvalidInputError("partner state only applies to distances")
        return fam.at(theta)
    if objective in ("d_alpha", "sd_alpha"):
        if partner is None:
            raise InvalidInputError(
                f"the {objective} objective needs a partner state"
            )
        rho = (fam.state_at(theta)
               if isinstance(fam, quantum.ParametricFamily) else fam)
        return matcore.require_states(rho, partner)
    raise InvalidInputError(
        f"objective must be one of {_OBJECTIVES}, got {objective!r}"
    )


def _total(cells: np.ndarray, use_max: bool) -> np.ndarray:
    if use_max:
        return cells.max(axis=1)
    # left to right: np.sum groups the terms differently, which can
    # change the last bit of the total
    total = cells[:, 0]
    for k in range(1, cells.shape[1]):
        total = total + cells[:, k]
    return total


def _givens_move(a, b, u, cells, total, gain, i: int, j: int, phase: float,
                 cell, use_max: bool) -> None:
    """One Givens move on the pair (i, j) at one phase, for every row.

    Scans the angle grid, refines the best grid point by golden section
    and applies the rotation to the rows whose total it raises by more
    than ``_STEP_TOL``; updates the arrays in place.
    """
    w = 1.0 if phase == 0.0 else -1j
    ma = 0.5 * (a[:, i, i].real + a[:, j, j].real)[:, None]
    da = 0.5 * (a[:, i, i].real - a[:, j, j].real)[:, None]
    ca = (w * a[:, i, j]).real[:, None]
    mb = 0.5 * (b[:, i, i].real + b[:, j, j].real)[:, None]
    db = 0.5 * (b[:, i, i].real - b[:, j, j].real)[:, None]
    cb = (w * b[:, i, j]).real[:, None]
    ma2, mb2 = 2 * ma, 2 * mb
    if use_max:
        others = [k for k in range(cells.shape[1]) if k not in (i, j)]
        rest = (cells[:, others].max(axis=1) if others
                else np.zeros(len(cells)))[:, None]
    else:
        rest = (total - cells[:, i] - cells[:, j])[:, None]

    def pair_total(c2: np.ndarray, s2: np.ndarray) -> np.ndarray:
        pi_ = ma + da * c2 + ca * s2
        xi_ = mb + db * c2 + cb * s2
        if use_max:
            return np.maximum(np.maximum(rest, cell(pi_, xi_)),
                              cell(ma2 - pi_, mb2 - xi_))
        return rest + cell(pi_, xi_) + cell(ma2 - pi_, mb2 - xi_)

    vals = pair_total(_GRID_C2, _GRID_S2)
    kbest = vals.argmax(axis=1)  # the first of tied maxima
    v0 = vals[np.arange(len(vals)), kbest]
    t0 = _GRID[kbest][:, None]
    t_star, v_star = golden_rows(
        lambda t: pair_total(np.cos(2 * t), np.sin(2 * t)),
        t0 - _SPACING, t0 + _SPACING, 1e-8,
    )
    t_star, v_star = t_star[:, 0], v_star[:, 0]
    grid_wins = v0 > v_star
    t_star = np.where(grid_wins, _GRID[kbest], t_star)
    v_star = np.where(grid_wins, v0, v_star)
    rows = np.flatnonzero(v_star > total + _STEP_TOL)
    if not rows.size:
        return
    c, s = np.cos(t_star[rows]), np.sin(t_star[rows])
    g = np.empty((rows.size, 2, 2), dtype=complex)
    g[:, 0, 0] = c
    g[:, 0, 1] = -s * np.exp(1j * phase)
    g[:, 1, 0] = s * np.exp(-1j * phase)
    g[:, 1, 1] = c
    gh = g.conj().transpose(0, 2, 1)
    ij = [i, j]
    for mat in (a, b, u):
        sub = mat[rows]
        sub[:, :, ij] = sub[:, :, ij] @ g
        if mat is not u:
            sub[:, ij, :] = gh @ sub[:, ij, :]
        mat[rows] = sub
    for k in ij:
        cells[rows, k] = cell(a[rows, k, k].real, b[rows, k, k].real)
    gain[rows] += v_star[rows] - total[rows]
    total[rows] = _total(cells[rows], use_max)


def _search_block(rho, x, starts, seed: int, cell,
                  use_max: bool) -> tuple[np.ndarray, np.ndarray]:
    """Coordinate ascent from the given restarts, run as one stack.

    Returns each restart's final total and unitary.
    """
    dim = rho.shape[0]
    pairs = [(i, j) for i in range(dim) for j in range(i + 1, dim)]
    u = np.stack([haar_unitary(dim, generator(seed, s)) for s in starts])
    uh = u.conj().transpose(0, 2, 1)
    a = uh @ rho @ u
    b = uh @ x @ u
    cells = cell(np.diagonal(a, axis1=1, axis2=2).real,
                 np.diagonal(b, axis1=1, axis2=2).real)
    total = _total(cells, use_max)
    final_total = np.empty(len(starts))
    final_u = np.empty_like(u)
    ids = np.arange(len(starts))  # the rows still climbing
    for _ in range(_MAX_SWEEPS):
        gain = np.zeros(len(ids))
        for (i, j) in pairs:
            for phase in (0.0, math.pi / 2):
                _givens_move(a, b, u, cells, total, gain, i, j, phase, cell,
                             use_max)
        done = gain <= _STEP_TOL
        if done.any():
            final_total[ids[done]] = total[done]
            final_u[ids[done]] = u[done]
            keep = ~done
            ids, a, b, u = ids[keep], a[keep], b[keep], u[keep]
            cells, total = cells[keep], total[keep]
            if not ids.size:
                break
    final_total[ids] = total
    final_u[ids] = u
    return final_total, final_u


def brute_force_max(fam, theta: float, objective: str, alpha: float,
                    cfg: SearchConfig | None = None,
                    partner=None) -> tuple[float, quantum.POVM]:
    """Maximize a measured quantity over rank-1 projective measurements.

    Parametrizes the measurement by a unitary basis and runs seeded random
    starts followed by Givens-rotation coordinate ascent.  For an index
    pair and phase, the rotated probabilities are sinusoids in twice the
    angle and only two outcomes change, so each move is an angle-grid scan
    plus golden-section refinement with O(1) evaluations.  The restarts
    advance together as a stack of arrays, in blocks of at most ``_BLOCK``
    rows.  Restriction to projective measurements is enough to attain the
    closed-form maxima.  Returns (best value, best measurement).
    """
    if cfg is None:
        cfg = SearchConfig()
    if objective in ("f_alpha", "d_alpha"):
        require_finite_alpha(alpha, objective)
    else:
        require_alpha(alpha)
    rho, x = _resolve_inputs(fam, theta, objective, partner)
    dim = rho.shape[0]
    if dim > MAX_SEARCH_DIM:
        raise InvalidInputError(
            f"search dimension {dim} exceeds the cost guard {MAX_SEARCH_DIM}"
        )
    cell = _make_cell(objective, alpha)
    use_max = math.isinf(alpha)
    restarts = int(cfg.restarts)
    best_total = -math.inf
    best_u = np.eye(dim, dtype=complex)
    for lo in range(0, restarts, _BLOCK):
        starts = range(lo, min(lo + _BLOCK, restarts))
        with np.errstate(over="ignore", invalid="ignore"):
            totals, us = _search_block(rho, x, starts, cfg.seed, cell,
                                       use_max)
        if not np.all(np.isfinite(totals)):
            raise NumericalConsistencyError(
                f"the {objective} search exceeds the float range at "
                f"alpha = {alpha:g}"
            )
        k = int(totals.argmax())  # the first row with the largest total
        if totals[k] > best_total:
            best_total = float(totals[k])
            best_u = us[k]

    value = _reduce(best_total, objective, alpha)
    povm = quantum.POVM(
        [np.outer(best_u[:, j], best_u[:, j].conj()) for j in range(dim)]
    )
    return float(value), povm
