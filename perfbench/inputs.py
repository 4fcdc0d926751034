"""Seeded inputs for the benchmark, made with the benchmark's own code.

Every matrix comes from a numpy Generator keyed by (workload seed, tag,
index), so the same seed always gives the same inputs, and the inputs do
not depend on qspeed's own instance generators.  A family is described by
a plain dict (a "spec") of numpy arrays; ``build_family`` turns it into a
``qspeed.quantum.ParametricFamily`` and ``family_to_json`` into the CLI's
file format.
"""

from __future__ import annotations

import json
import math

import numpy as np

KINDS = ("unitary", "non_hermitian", "lindblad", "thermal", "table")

# table families: uniform grid, evaluated at an interior point where the
# Richardson-corrected derivative applies
TABLE_POINTS = 7
TABLE_STEP = 0.05


def rng_for(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), *[int(k) for k in key]])


def ginibre(rng: np.random.Generator, d: int) -> np.ndarray:
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


def gue(rng: np.random.Generator, d: int) -> np.ndarray:
    """GUE-style observable, the generator distribution of the acceptance
    criteria."""
    g = ginibre(rng, d)
    return (g + g.conj().T) / 2.0


def hermitian(rng: np.random.Generator, d: int) -> np.ndarray:
    """GUE-style observable scaled so its spectrum stays O(1) in d."""
    return gue(rng, d) / math.sqrt(2.0 * d)


def density(rng: np.random.Generator, d: int) -> np.ndarray:
    """Full-rank Ginibre density matrix."""
    g = ginibre(rng, d)
    rho = g @ g.conj().T
    rho = (rho + rho.conj().T) / 2
    return rho / np.trace(rho).real


def pure(rng: np.random.Generator, d: int) -> np.ndarray:
    psi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return psi / np.linalg.norm(psi)


def decay(rng: np.random.Generator, d: int, strength: float = 0.2) -> np.ndarray:
    """Positive semidefinite Gamma, so the non-Hermitian trace decays."""
    g = ginibre(rng, d)
    gam = g @ g.conj().T
    gam = (gam + gam.conj().T) / 2
    return strength * gam / np.max(np.abs(np.linalg.eigvalsh(gam)))


def lindblad_matrix(h: np.ndarray, jump: np.ndarray) -> np.ndarray:
    """Column-stacked matrix of L[r] = -i[H, r] + A r A^dag - {A^dag A, r}/2."""
    d = h.shape[0]
    eye = np.eye(d)
    ada = jump.conj().T @ jump
    return (-1j * (np.kron(eye, h) - np.kron(h.T, eye))
            + np.kron(jump.conj(), jump)
            - 0.5 * np.kron(eye, ada) - 0.5 * np.kron(ada.T, eye))


def unitary_orbit(h: np.ndarray, rho0: np.ndarray, thetas) -> list:
    """States e^{-iHt} rho0 e^{iHt} on a grid, symmetrized."""
    w, v = np.linalg.eigh(h)
    out = []
    for t in thetas:
        u = (v * np.exp(-1j * w * t)) @ v.conj().T
        r = u @ rho0 @ u.conj().T
        out.append((r + r.conj().T) / 2)
    return out


def family_spec(seed: int, kind: str, d: int, index: int,
                pure_state: bool = False) -> dict:
    """Arrays for one family of the given kind and dimension."""
    rng = rng_for(seed, KINDS.index(kind), d, index, int(pure_state))
    h = hermitian(rng, d)
    state = pure(rng, d) if pure_state else density(rng, d)
    if kind == "unitary":
        return {"kind": kind, "hamiltonian": h, "state": state}
    if kind == "non_hermitian":
        return {"kind": kind, "h": h, "gamma": decay(rng, d), "state": state}
    if kind == "lindblad":
        jump = 0.3 * ginibre(rng, d) / math.sqrt(d)
        return {"kind": kind, "superop": lindblad_matrix(h, jump),
                "state": state}
    if kind == "thermal":
        return {"kind": kind, "hamiltonian": h}
    if kind == "table":
        t0 = float(rng.uniform(0.0, 1.0))
        grid = [t0 + k * TABLE_STEP for k in range(TABLE_POINTS)]
        rho0 = np.outer(state, state.conj()) if state.ndim == 1 else state
        return {"kind": kind,
                "points": list(zip(grid, unitary_orbit(h, rho0, grid)))}
    raise ValueError(f"unknown kind {kind!r}")


def criterion_family(rng: np.random.Generator, d: int) -> dict:
    """Unitary family drawn as in acceptance criteria 1 and 5: a GUE
    generator and a Ginibre density matrix."""
    return {"kind": "unitary", "hamiltonian": gue(rng, d),
            "state": density(rng, d)}


def thetas_for(spec: dict, rng: np.random.Generator, count: int) -> list:
    """Evaluation points: interior Richardson grid points for tables,
    inverse temperatures in [0.2, 1] for thermal, times in [0.1, 1] else."""
    if spec["kind"] == "table":
        grid = [t for t, _ in spec["points"]]
        inner = grid[2:-2]
        return [inner[k % len(inner)] for k in range(count)]
    lo = 0.2 if spec["kind"] == "thermal" else 0.1
    return [float(t) for t in rng.uniform(lo, 1.0, size=count)]


def build_family(spec: dict):
    """The qspeed family for a spec (a call into qspeed.quantum)."""
    from qspeed import matcore, quantum

    fam = quantum.ParametricFamily
    kind = spec["kind"]
    if kind == "unitary":
        return fam.unitary(spec["hamiltonian"], spec["state"])
    if kind == "non_hermitian":
        return fam.non_hermitian(spec["h"], spec["gamma"], spec["state"])
    if kind == "lindblad":
        return fam.lindblad(matcore.Superoperator.from_matrix(spec["superop"]),
                            spec["state"])
    if kind == "thermal":
        return fam.thermal(spec["hamiltonian"])
    return fam.table(spec["points"])


# -- JSON files in the CLI's format -----------------------------------


def matrix_json(a) -> dict:
    a = np.asarray(a, dtype=complex)
    return {"dim": int(a.shape[0]),
            "entries": [[[float(z.real), float(z.imag)] for z in row]
                        for row in a]}


def family_to_json(spec: dict) -> dict:
    out = {"kind": spec["kind"]}
    for key, value in spec.items():
        if key == "kind":
            continue
        if key == "points":
            out[key] = [{"theta": float(t), "state": matrix_json(s)}
                        for t, s in value]
        else:
            out[key] = matrix_json(value)
    return out


def write_json(path, obj) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
    return str(path)
