"""JSON input handling and deterministic report serialization.

File schemas: a matrix is {"dim": n, "entries": [[[re, im], ...], ...]}
row-major; a distribution is {"weights": [...]} with an optional
"derivative"; snapshots are a list of {"theta": t, "weights": [...]};
a family is {"kind": ..., ...} per the parametric-family kinds; a POVM
is {"elements": [<matrix>, ...]}; a partition is {"blocks": [[site,
...], ...], "hamiltonians": [<matrix>, ...]}; the --locals list of
``bound --kind local`` holds {"kind": "hamiltonian", "hamiltonian":
<matrix>}, {"kind": "non_hermitian", "h": <matrix>, "gamma": <matrix>}
or {"kind": "matrix", "matrix": <superoperator matrix>}.  Reports are
emitted with 12 significant digits so identical inputs and seeds produce
byte-identical output.  bounds is imported inside partition_from_json
only, so a command that reads no partition never loads it.
"""

from __future__ import annotations

import json
import math

import numpy as np

from . import classical, matcore, quantum
from .errors import InvalidInputError

_ROLES = ("auto", "density", "hermitian", "povm", "prob", "family", "snapshots")


# -- loading ----------------------------------------------------------


def load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InvalidInputError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidInputError(
            f"{path}: malformed JSON at line {exc.lineno} column {exc.colno}: "
            f"{exc.msg}"
        ) from exc
    except ValueError as exc:
        # an integer literal past Python's int-digit limit
        raise InvalidInputError(f"{path}: unreadable number: {exc}") from exc
    except RecursionError:
        raise InvalidInputError(
            f"{path}: JSON nesting exceeds the parser's depth limit"
        ) from None


def _require_number(value, field: str) -> float:
    # json.loads accepts the NaN and Infinity literals, and 1e999 as inf
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InvalidInputError(f"{field} must be a number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:
        x = math.inf
    if not math.isfinite(x):
        raise InvalidInputError(f"{field} must be a finite number, got {value!r}")
    return x


def _field(obj: dict, key: str, missing: str):
    """obj[key]; an absent key raises '<missing> field "<key>"'."""
    if key not in obj:
        raise InvalidInputError(f"{missing} field \"{key}\"")
    return obj[key]


def matrix_from_json(obj, name: str = "matrix") -> np.ndarray:
    if not isinstance(obj, dict):
        raise InvalidInputError(f"{name} must be an object with dim and entries")
    dim, entries = [_field(obj, key, f"{name}: missing")
                    for key in ("dim", "entries")]
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        raise InvalidInputError(f"{name}: \"dim\" must be a positive integer")
    if not isinstance(entries, list) or len(entries) != dim:
        raise InvalidInputError(f"{name}: \"entries\" must hold {dim} rows")
    out = np.empty((dim, dim), dtype=complex)
    for i, row in enumerate(entries):
        if not isinstance(row, list) or len(row) != dim:
            raise InvalidInputError(
                f"{name}: entries[{i}] must hold {dim} cells"
            )
        for j, cell in enumerate(row):
            if not isinstance(cell, list) or len(cell) != 2:
                raise InvalidInputError(
                    f"{name}: entries[{i}][{j}] must be a [re, im] pair"
                )
            re = _require_number(cell[0], f"{name}: entries[{i}][{j}][0]")
            im = _require_number(cell[1], f"{name}: entries[{i}][{j}][1]")
            out[i, j] = complex(re, im)
    return out


def matrix_to_json(a) -> dict:
    a = matcore.as_matrix(a)
    return {
        "dim": int(a.shape[0]),
        "entries": [[[float(np.real(a[i, j])), float(np.imag(a[i, j]))]
                     for j in range(a.shape[1])] for i in range(a.shape[0])],
    }


def load_matrix(path: str, name: str = "matrix") -> np.ndarray:
    return matrix_from_json(load_json(path), name)


def prob_from_json(obj, name: str = "distribution"):
    if not isinstance(obj, dict) or "weights" not in obj:
        raise InvalidInputError(f"{name} must be an object with \"weights\"")
    weights = obj["weights"]
    if not isinstance(weights, list) or not weights:
        raise InvalidInputError(f"{name}: \"weights\" must be a nonempty list")
    w = np.array([_require_number(v, f"{name}: weights[{i}]")
                  for i, v in enumerate(weights)])
    deriv = None
    if "derivative" in obj:
        derivative = obj["derivative"]
        if not isinstance(derivative, list) or len(derivative) != len(weights):
            raise InvalidInputError(
                f"{name}: \"derivative\" must match \"weights\" in length"
            )
        deriv = np.array([_require_number(v, f"{name}: derivative[{i}]")
                          for i, v in enumerate(derivative)])
    return w, deriv


def snapshots_from_json(obj):
    if not isinstance(obj, list) or len(obj) < 1:
        raise InvalidInputError("snapshots must be a nonempty list")
    out = []
    for i, item in enumerate(obj):
        if not isinstance(item, dict) or "theta" not in item \
                or "weights" not in item:
            raise InvalidInputError(
                f"snapshots[{i}] must be an object with \"theta\" and \"weights\""
            )
        theta = _require_number(item["theta"], f"snapshots[{i}].theta")
        w, _ = prob_from_json({"weights": item["weights"]}, f"snapshots[{i}]")
        out.append((theta, w))
    return out


def povm_to_json(povm: quantum.POVM) -> dict:
    return {"elements": [matrix_to_json(e) for e in povm]}


# the matrix fields of each family kind, in the order that the
# constructor ParametricFamily.<kind> takes them
_FAMILY_FIELDS = {
    "unitary": ("hamiltonian", "state"),
    "non_hermitian": ("h", "gamma", "state"),
    "lindblad": ("superop", "state"),
    "thermal": ("hamiltonian",),
}


def family_from_json(obj, name: str = "family") -> quantum.ParametricFamily:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise InvalidInputError(f"{name} must be an object with \"kind\"")
    kind = obj["kind"]
    missing = f"{name}: kind {kind!r} requires"
    if isinstance(kind, str) and kind in _FAMILY_FIELDS:
        # each field is checked just before it is parsed
        mats = [matrix_from_json(_field(obj, key, missing), f"{name}.{key}")
                for key in _FAMILY_FIELDS[kind]]
        return getattr(quantum.ParametricFamily, kind)(*mats)
    if kind == "table":
        points = _field(obj, "points", missing)
        if not isinstance(points, list) or len(points) < 3:
            raise InvalidInputError(
                f"{name}: \"points\" must list at least 3 snapshots"
            )
        parsed = []
        for i, item in enumerate(points):
            if not isinstance(item, dict) or "theta" not in item \
                    or "state" not in item:
                raise InvalidInputError(
                    f"{name}: points[{i}] must hold \"theta\" and \"state\""
                )
            theta = _require_number(item["theta"], f"{name}: points[{i}].theta")
            state = matrix_from_json(item["state"], f"{name}: points[{i}].state")
            parsed.append((theta, state))
        return quantum.ParametricFamily.table(parsed)
    raise InvalidInputError(
        f"{name}: \"kind\" must be one of unitary, non_hermitian, lindblad, "
        f"thermal, table; got {kind!r}"
    )


def load_family(path: str) -> quantum.ParametricFamily:
    return family_from_json(load_json(path))


def partition_from_json(obj, name: str = "partition"):
    from . import bounds

    if not isinstance(obj, dict) or "blocks" not in obj \
            or "hamiltonians" not in obj:
        raise InvalidInputError(
            f"{name} must be an object with \"blocks\" and \"hamiltonians\""
        )
    blocks = obj["blocks"]
    hams = obj["hamiltonians"]
    if not isinstance(blocks, list) or not isinstance(hams, list):
        raise InvalidInputError(
            f"{name}: \"blocks\" and \"hamiltonians\" must be lists"
        )
    parsed_blocks = []
    for i, block in enumerate(blocks):
        if not isinstance(block, list):
            raise InvalidInputError(f"{name}: blocks[{i}] must be a list of sites")
        parsed_blocks.append(tuple(
            _require_number(s, f"{name}: blocks[{i}][{j}]")
            for j, s in enumerate(block)
        ))
    parsed_hams = [matrix_from_json(hk, f"{name}: hamiltonians[{i}]")
                   for i, hk in enumerate(hams)]
    return bounds.Partition(tuple(parsed_blocks), tuple(parsed_hams))


def load_partition(path: str):
    return partition_from_json(load_json(path))


# the constructor and matrix fields of each --locals kind
_LOCAL_KINDS = {
    "hamiltonian": (matcore.Superoperator.from_hamiltonian, ("hamiltonian",)),
    "non_hermitian": (matcore.Superoperator.from_non_hermitian, ("h", "gamma")),
    "matrix": (matcore.Superoperator.from_matrix, ("matrix",)),
}


def _local_map(spec, name: str) -> matcore.Superoperator:
    if not isinstance(spec, dict) or "kind" not in spec:
        raise InvalidInputError(f"{name} must be an object with \"kind\"")
    kind = spec["kind"]
    if not isinstance(kind, str) or kind not in _LOCAL_KINDS:
        raise InvalidInputError(
            f"{name}: \"kind\" must be hamiltonian, non_hermitian, or matrix; "
            f"got {kind!r}"
        )
    build, keys = _LOCAL_KINDS[kind]
    # every field is checked before any is parsed
    values = [_field(spec, key, f"{name}: missing") for key in keys]
    return build(*(matrix_from_json(v, f"{name}.{key}")
                   for key, v in zip(keys, values)))


def load_local_maps(path: str) -> list:
    specs = load_json(path)
    if not isinstance(specs, list) or not specs:
        raise InvalidInputError(
            "--locals must point to a nonempty JSON list of generators"
        )
    return [_local_map(spec, f"locals[{i}]")
            for i, spec in enumerate(specs)]


# -- report serialization ---------------------------------------------


def _format_scalar(obj) -> str | None:
    """The JSON text of a bool, None, int or float report value, and None
    for any other value; CSV prints the same text without quotes."""
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if not isinstance(obj, (float, np.floating)):
        return None
    x = float(obj)
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return "%.12g" % x


def dump_report(obj, indent: int = 0) -> str:
    """Serialize a report deterministically with 12 significant digits."""
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = ",\n".join(
            f"{pad}  {json.dumps(str(k))}: {dump_report(v, indent + 1)}"
            for k, v in obj.items()
        )
        return "{\n" + inner + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [dump_report(v, indent + 1) for v in obj]
        if all(len(s) <= 24 and "\n" not in s for s in items):
            return "[" + ", ".join(items) + "]"
        inner = ",\n".join(f"{pad}  {s}" for s in items)
        return "[\n" + inner + "\n" + pad + "]"
    text = _format_scalar(obj)
    if text is not None:
        return text
    if isinstance(obj, str):
        return json.dumps(obj)
    raise InvalidInputError(f"cannot serialize {type(obj).__name__} in a report")


def _flatten(obj, prefix: str, rows: list):
    if isinstance(obj, dict):
        for k, v in obj.items():
            _flatten(v, f"{prefix}.{k}" if prefix else str(k), rows)
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            _flatten(v, f"{prefix}[{i}]", rows)
    else:
        text = _format_scalar(obj)
        rows.append((prefix, str(obj) if text is None else text.strip('"')))


def report_to_csv(obj) -> str:
    """Flatten a report into key,value rows with the same formatted values."""
    rows: list = []
    _flatten(obj, "", rows)
    return "\n".join(f"{k},{v}" for k, v in rows)


# -- validation diagnostics -------------------------------------------


def _detect_role(obj) -> str:
    if isinstance(obj, list):
        return "snapshots"
    if isinstance(obj, dict):
        if "entries" in obj:
            return "density"
        if "elements" in obj:
            return "povm"
        if "weights" in obj:
            return "prob"
        if "kind" in obj:
            return "family"
    raise InvalidInputError(
        "cannot detect the file role; expected a matrix, POVM, distribution, "
        "family, or snapshot list"
    )


def validate_file(path: str, role: str = "auto"):
    """Run the library's input checks on a file and report each violation.

    The checks are the ones the library raises from (matcore, quantum and
    classical), but every violation is reported rather than the first.
    Returns (resolved role, diagnostics); each diagnostic carries the
    check name, the violation magnitude, and a message.
    """
    if role not in _ROLES:
        raise InvalidInputError(f"role must be one of {_ROLES}, got {role!r}")
    obj = load_json(path)
    if role == "auto":
        role = _detect_role(obj)
    diags: list = []

    def flag(check: str, magnitude: float, message: str) -> None:
        if magnitude:  # 0.0 is a pass; NaN is a failure without a size
            diags.append({"check": check, "magnitude": magnitude,
                          "message": message})

    def hermitian(a: np.ndarray, name: str) -> np.ndarray:
        asym = matcore.hermiticity_violation(a)
        flag("hermiticity", asym, f"{name}: max asymmetry entry {asym:.6g}")
        return matcore.hermitian_part(a)

    def positive(h: np.ndarray, name: str) -> None:
        neg = matcore.positivity_violation(h)
        flag("positivity", neg, f"{name}: negative eigenvalue {-neg:.6g}")

    def normalized(w: np.ndarray, name: str) -> None:
        dev = classical.sum_violation(w, 1.0)
        flag("normalization", dev, f"{name}: sum deviation {dev:.6g}")

    if role in ("density", "hermitian"):
        h = hermitian(matrix_from_json(obj), "matrix")
        if role == "density":
            dev = matcore.trace_violation(h)
            flag("trace", dev, f"matrix: trace deviation {dev:.6g}")
            positive(h, "matrix")
    elif role == "povm":
        if not isinstance(obj, dict) or "elements" not in obj \
                or not isinstance(obj["elements"], list) or not obj["elements"]:
            raise InvalidInputError(
                "povm must be an object with a nonempty \"elements\" list"
            )
        mats = [matrix_from_json(e, f"elements[{i}]")
                for i, e in enumerate(obj["elements"])]
        if len({m.shape[0] for m in mats}) != 1:
            raise InvalidInputError("povm elements must share one dimension")
        parts = []
        for i, m in enumerate(mats):  # elements need not have unit trace
            parts.append(hermitian(m, f"elements[{i}]"))
            positive(parts[-1], f"elements[{i}]")
        defect = quantum.completeness_violation(parts)
        flag("completeness", defect, f"povm: completeness defect {defect:.6g}")
    elif role == "prob":
        w, deriv = prob_from_json(obj)
        neg = classical.negativity_violation(w)
        flag("positivity", neg, f"weights: negative entry {-neg:.6g}")
        normalized(w, "weights")
        if deriv is not None:
            dsum = classical.sum_violation(deriv, 0.0)
            flag("derivative-sum", dsum,
                 f"derivative: sum deviation {dsum:.6g}")
    elif role == "family":
        try:
            family_from_json(obj)
        except InvalidInputError as exc:
            flag("family", math.nan, str(exc))
    elif role == "snapshots":
        try:
            snaps = snapshots_from_json(obj)
        except InvalidInputError as exc:
            flag("snapshots", math.nan, str(exc))
        else:
            for i, (_, w) in enumerate(snaps):
                normalized(w, f"snapshots[{i}]")
            thetas = [t for t, _ in snaps]
            if any(b <= a for a, b in zip(thetas, thetas[1:])):
                flag("grid", math.nan,
                     "snapshots: theta grid must increase strictly")
    return role, diags
