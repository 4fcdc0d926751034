"""JSON schemas, deterministic report serialization, and file validation."""

import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qspeed import classical, jsonio, matcore, quantum
from qspeed.errors import InvalidInputError


def test_matrix_round_trip():
    a = np.array([[0.5, 0.25 - 0.75j], [0.25 + 0.75j, 0.5]])
    again = jsonio.matrix_from_json(jsonio.matrix_to_json(a))
    assert np.allclose(again, a, atol=0.0)


def test_matrix_field_errors_name_the_cell():
    good = jsonio.matrix_to_json(np.eye(2))
    bad = {"dim": 2, "entries": [[[1.0, 0.0], [0.0, 0.0]],
                                 [[0.0, 0.0], [1.0]]]}
    with pytest.raises(InvalidInputError, match=r"entries\[1\]\[1\]"):
        jsonio.matrix_from_json(bad)
    with pytest.raises(InvalidInputError, match="dim"):
        jsonio.matrix_from_json({"entries": good["entries"]})
    with pytest.raises(InvalidInputError, match="entries"):
        jsonio.matrix_from_json({"dim": 2})
    with pytest.raises(InvalidInputError, match="rows"):
        jsonio.matrix_from_json({"dim": 3, "entries": good["entries"]})


def test_prob_from_json():
    w, d = jsonio.prob_from_json({"weights": [0.25, 0.75],
                                  "derivative": [1.0, -1.0]})
    assert np.array_equal(w, [0.25, 0.75])
    assert np.array_equal(d, [1.0, -1.0])
    w, d = jsonio.prob_from_json({"weights": [1.0]})
    assert d is None
    with pytest.raises(InvalidInputError, match="length"):
        jsonio.prob_from_json({"weights": [0.5, 0.5], "derivative": [1.0]})


def test_snapshots_from_json():
    rows = jsonio.snapshots_from_json([
        {"theta": 0.0, "weights": [1.0, 0.0]},
        {"theta": 0.5, "weights": [0.5, 0.5]},
    ])
    assert rows[1][0] == 0.5
    with pytest.raises(InvalidInputError, match=r"snapshots\[0\]"):
        jsonio.snapshots_from_json([{"weights": [1.0]}])


def test_povm_round_trip():
    povm = quantum.POVM([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    again = quantum.POVM([jsonio.matrix_from_json(e)
                          for e in jsonio.povm_to_json(povm)["elements"]])
    for a, b in zip(again.elements, povm.elements):
        assert np.allclose(a, b, atol=0.0)


def test_family_kind_dispatch():
    h = jsonio.matrix_to_json(np.diag([0.5, -0.5]))
    plus = jsonio.matrix_to_json(np.full((2, 2), 0.5))
    fam = jsonio.family_from_json(
        {"kind": "unitary", "hamiltonian": h, "state": plus})
    assert isinstance(fam, quantum.ParametricFamily)
    with pytest.raises(InvalidInputError, match="requires field"):
        jsonio.family_from_json({"kind": "unitary", "hamiltonian": h})
    with pytest.raises(InvalidInputError, match="kind"):
        jsonio.family_from_json({"kind": "adiabatic"})
    with pytest.raises(InvalidInputError, match="at least 3"):
        jsonio.family_from_json(
            {"kind": "table",
             "points": [{"theta": 0.0, "state": plus},
                        {"theta": 0.1, "state": plus}]})


_SCALAR = {"dim": 1, "entries": [[[1.0, 0.0]]]}


@pytest.mark.parametrize("specs, message", [
    ({}, "--locals must point to a nonempty JSON list of generators"),
    ([], "--locals must point to a nonempty JSON list of generators"),
    ([3], 'locals[0] must be an object with "kind"'),
    ([{"kind": "hamiltonian"}], 'locals[0]: missing field "hamiltonian"'),
    ([{"kind": "non_hermitian", "h": _SCALAR}],
     'locals[0]: missing field "gamma"'),
    ([{"kind": "matrix"}], 'locals[0]: missing field "matrix"'),
    ([{"kind": "matrix", "matrix": _SCALAR}, {"kind": "x"}],
     "locals[1]: \"kind\" must be hamiltonian, non_hermitian, or matrix; "
     "got 'x'"),
])
def test_load_local_maps_names_the_bad_entry(tmp_path, specs, message):
    path = tmp_path / "locals.json"
    path.write_text(json.dumps(specs))
    with pytest.raises(InvalidInputError) as exc:
        jsonio.load_local_maps(str(path))
    assert str(exc.value) == message


def test_dump_report_formatting():
    report = {
        "name": "check",
        "value": 1.0 / 3.0,
        "flag": True,
        "missing": None,
        "count": 3,
        "edge": math.inf,
        "hole": math.nan,
        "vector": [1.0, 2.0, 3.0],
    }
    text = jsonio.dump_report(report)
    assert '"value": 0.333333333333' in text
    assert '"flag": true' in text
    assert '"missing": null' in text
    assert '"count": 3' in text
    assert '"edge": "inf"' in text
    assert '"hole": "nan"' in text
    assert '"vector": [1, 2, 3]' in text
    assert jsonio.dump_report(report) == text  # deterministic


def test_dump_report_rejects_unknown_types():
    with pytest.raises(InvalidInputError):
        jsonio.dump_report({"x": object()})


def test_report_to_csv_flattens_paths():
    report = {"a": {"b": 0.5, "c": [1.0, 2.0]}, "d": True}
    text = jsonio.report_to_csv(report)
    lines = text.strip().splitlines()
    assert "a.b,0.5" in lines
    assert "a.c[0],1" in lines
    assert "a.c[1],2" in lines
    assert "d,true" in lines


def test_validate_file_roles(tmp_path):
    rho = tmp_path / "rho.json"
    rho.write_text(jsonio.dump_report(jsonio.matrix_to_json(np.eye(2) / 2)))
    role, diags = jsonio.validate_file(str(rho))
    assert role == "density" and diags == []

    prob = tmp_path / "p.json"
    prob.write_text('{"weights": [0.5, 0.6]}')
    role, diags = jsonio.validate_file(str(prob))
    assert role == "prob"
    assert any("sum" in d["message"] for d in diags)

    with pytest.raises(InvalidInputError, match="role"):
        jsonio.validate_file(str(rho), role="tensor")


def test_validate_file_povm_completeness(tmp_path):
    path = tmp_path / "povm.json"
    half = jsonio.matrix_to_json(np.diag([1.0, 0.0]))
    path.write_text(jsonio.dump_report({"elements": [half]}))
    role, diags = jsonio.validate_file(str(path))
    assert role == "povm"
    assert any("completeness" in d["message"] for d in diags)


# -- validate runs the library's checks --------------------------------

# perturbation sizes straddling each tolerance: HERM_TOL, TRACE_TOL,
# COMPLETENESS_TOL and SUM_TOL are 1e-9, NEG_CLIP is 1e-12
_SCALES = st.sampled_from([0.0, 1e-13, 5e-12, 4e-10, 1e-9, 2.5e-9, 1e-6, 0.05])
_UNIT = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)


def _perturbation(data, shape, scale):
    noise = np.array(data.draw(st.lists(_UNIT, min_size=2 * math.prod(shape),
                                        max_size=2 * math.prod(shape))))
    return scale * (noise[::2] + 1j * noise[1::2]).reshape(shape)


def _accepts(build) -> bool:
    try:
        build()
    except InvalidInputError:
        return False
    return True


def _validates(obj, role: str) -> bool:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.json"
        path.write_text(json.dumps(obj))
        _, diags = jsonio.validate_file(str(path), role)
    return diags == []


@settings(max_examples=60)
@given(data=st.data(), dim=st.integers(1, 3), scale=_SCALES,
       low=st.sampled_from([0.0, -5e-13, -5e-12, -1e-3]))
def test_validate_matches_library_on_matrices(data, dim, scale, low):
    p = np.linspace(1.0, 2.0, dim)
    p = p / p.sum()
    p[0] += low  # a slightly negative eigenvalue, or a trace defect
    p[-1] -= low
    a = np.diag(p) + _perturbation(data, (dim, dim), scale)
    obj = jsonio.matrix_to_json(a)
    assert _validates(obj, "density") == _accepts(
        lambda: matcore.require_density(a))
    assert _validates(obj, "hermitian") == _accepts(
        lambda: matcore.require_hermitian(a))


@settings(max_examples=60)
@given(data=st.data(), dim=st.integers(1, 3), scale=_SCALES,
       low=st.sampled_from([0.0, -5e-12, -1e-3]))
def test_validate_matches_library_on_povms(data, dim, scale, low):
    elements = []
    for k in range(dim):
        e = np.zeros((dim, dim), dtype=complex)
        e[k, k] = 1.0
        elements.append(e + _perturbation(data, (dim, dim), scale))
    elements[0][0, 0] += low
    obj = {"elements": [jsonio.matrix_to_json(e) for e in elements]}
    assert _validates(obj, "povm") == _accepts(lambda: quantum.POVM(elements))


@settings(max_examples=60)
@given(data=st.data(), n=st.integers(1, 4), scale=_SCALES,
       low=st.sampled_from([0.0, -5e-13, -5e-12, -1e-3]),
       with_derivative=st.booleans())
def test_validate_matches_library_on_weights(data, n, scale, low,
                                             with_derivative):
    w = np.full(n, 1.0 / n) + _perturbation(data, (n,), scale).real
    w[0] += low
    obj = {"weights": w.tolist()}
    if with_derivative:
        dw = np.linspace(-1.0, 1.0, n) + _perturbation(data, (n,), scale).real
        obj["derivative"] = dw.tolist()
        build = lambda: classical.ParametricDist(w, dw)  # noqa: E731
    else:
        build = lambda: classical.as_prob(w)  # noqa: E731
    assert _validates(obj, "prob") == _accepts(build)
