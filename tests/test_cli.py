"""Command line round-trips: report contents, formats, seeds, exit codes."""

import json
import math
import subprocess
import sys
import warnings
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from qspeed import classical, jsonio, oracle, quantum
from qspeed.cli import main
from qspeed.errors import NumericalConsistencyError

from conftest import KINDS

SQ8 = math.sqrt(1.0 / 8.0)


def matrix_json(a):
    a = np.asarray(a, dtype=complex)
    return {
        "dim": a.shape[0],
        "entries": [[[float(a[i, j].real), float(a[i, j].imag)]
                     for j in range(a.shape[0])] for i in range(a.shape[0])],
    }


Z0 = matrix_json(np.diag([1.0, 0.0]))
PLUS_RHO = matrix_json(np.full((2, 2), 0.5))
HZ_HALF = matrix_json(np.diag([0.5, -0.5]))
BELL = np.zeros((4, 4))
BELL[np.ix_([0, 3], [0, 3])] = 0.5
JZ2 = matrix_json(np.diag([1.0, 0.0, 0.0, -1.0]))

PLUS_FAMILY = {"kind": "unitary", "hamiltonian": HZ_HALF, "state": PLUS_RHO}
BELL_FAMILY = {"kind": "unitary", "hamiltonian": JZ2,
               "state": matrix_json(BELL)}
BELL_PARTITION = {
    "blocks": [[0], [1]],
    "hamiltonians": [matrix_json(np.diag([0.5, 0.5, -0.5, -0.5])),
                     matrix_json(np.diag([0.5, -0.5, 0.5, -0.5]))],
}


def write(tmp_path, name, obj):
    # a str is written as is: the raw text of a malformed file
    path = tmp_path / name
    path.write_text(obj if isinstance(obj, str) else json.dumps(obj))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 0, err
    return json.loads(out)


# -- speed ------------------------------------------------------------


def test_speed_report_values(tmp_path, capsys):
    fam = write(tmp_path, "fam.json", PLUS_FAMILY)
    report = run_json(capsys, ["speed", "--family", fam, "--alpha", "2"])
    assert report["F1"] == pytest.approx(1.0, abs=1e-9)
    assert report["F2"] == pytest.approx(1.0, abs=1e-9)
    assert report["SFalpha"] == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-9)
    assert report["S1"] == pytest.approx(0.5, abs=1e-9)
    assert report["S2"] == pytest.approx(SQ8, abs=1e-9)
    assert report["SSalpha"] == pytest.approx(0.5, abs=1e-9)


def test_speed_non_hermitian_family(tmp_path, capsys):
    spec = {"kind": "non_hermitian", "h": HZ_HALF,
            "gamma": matrix_json(np.diag([0.2, 0.0])), "state": PLUS_RHO}
    fam = write(tmp_path, "fam.json", spec)
    report = run_json(capsys, ["speed", "--family", fam, "--theta", "0.3"])
    expected = jsonio.family_from_json(spec)
    assert report["F1"] == pytest.approx(quantum.trace_speed(expected, 0.3),
                                         rel=1e-11)
    assert report["F2"] == pytest.approx(quantum.qfi(expected, 0.3), rel=1e-11)


def test_speed_povm_flag(tmp_path, capsys):
    fam = write(tmp_path, "fam.json", PLUS_FAMILY)
    report = run_json(capsys, ["speed", "--family", fam, "--povm", "qfi"])
    assert report["povm_target"] == "qfi"
    elements = report["povm"]["elements"]
    total = np.zeros((2, 2), dtype=complex)
    for e in elements:
        cells = e["entries"]
        total += np.array([[complex(*c) for c in row] for row in cells])
    assert np.allclose(total, np.eye(2), atol=1e-9)


def test_speed_at_large_alpha_is_not_zero(tmp_path, capsys):
    # drho has eigenvalues +-1/2: SF_alpha = 2^(1/alpha)/2, SS_alpha = 1/2
    fam = write(tmp_path, "fam.json", PLUS_FAMILY)
    report = run_json(capsys, ["speed", "--family", fam, "--theta", "0.3",
                               "--alpha", "1100"])
    # reports carry 12 significant digits
    assert report["SFalpha"] == pytest.approx(0.5 * 2 ** (1 / 1100),
                                              rel=1e-11)
    assert report["SSalpha"] == pytest.approx(0.5, rel=1e-11)


@pytest.mark.parametrize("theta", ["inf", "-inf", "nan"])
def test_speed_rejects_a_non_finite_theta(tmp_path, capsys, theta):
    fam = write(tmp_path, "fam.json", PLUS_FAMILY)
    code, out, err = run(capsys, ["speed", "--family", fam,
                                  f"--theta={theta}"])
    assert (code, out) == (2, "")
    assert err == f"qspeed: error: theta must be finite, got {theta}\n"


# -- distance ---------------------------------------------------------


def test_distance_matrices(tmp_path, capsys):
    a = write(tmp_path, "a.json", Z0)
    b = write(tmp_path, "b.json", PLUS_RHO)
    report = run_json(capsys, ["distance", a, b, "--alpha", "2"])
    assert report["D1"] == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-9)
    assert report["D2"] == pytest.approx(
        math.sqrt(1.0 - 1.0 / math.sqrt(2.0)), abs=1e-9)
    assert report["Dalpha"] == pytest.approx(report["D2"], abs=1e-12)
    assert report["SDalpha"] == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-9)


def test_distance_probs(tmp_path, capsys):
    a = write(tmp_path, "p.json", {"weights": [0.5, 0.5]})
    b = write(tmp_path, "q.json", {"weights": [0.9, 0.1]})
    report = run_json(capsys, ["distance", a, b, "--alpha", "1"])
    assert report["D1"] == pytest.approx(0.4, abs=1e-12)
    assert report["Dalpha"] == pytest.approx(0.4, abs=1e-12)
    assert report["SDalpha"] == pytest.approx(0.4, abs=1e-12)
    target = classical.dist_alpha([0.5, 0.5], [0.9, 0.1], 2.0)
    assert report["D2"] == pytest.approx(target, abs=1e-12)


def test_distance_probs_at_alpha_inf(tmp_path, capsys):
    # d_alpha has no alpha = inf member; sd_inf is max |p - q|, as for the
    # oracle's sd_alpha objective and for density matrices
    a = write(tmp_path, "p.json", {"weights": [1.0, 0.0]})
    b = write(tmp_path, "q.json", {"weights": [0.5, 0.5]})
    report = run_json(capsys, ["distance", a, b, "--alpha", "inf"])
    assert report["Dalpha"] is None
    assert report["SDalpha"] == 0.5
    assert report["D1"] == 0.5


def test_distances_at_large_alpha_are_not_zero(tmp_path, capsys):
    rho = write(tmp_path, "rho.json", matrix_json([[0.7, 0.1], [0.1, 0.3]]))
    mixed = write(tmp_path, "mixed.json", matrix_json(np.eye(2) / 2))
    report = run_json(capsys, ["distance", rho, mixed, "--alpha", "1100"])
    # rho - I/2 has eigenvalues +-sqrt(0.05), so SD_alpha = sqrt(0.05)
    assert report["SDalpha"] == pytest.approx(math.sqrt(0.05), rel=1e-11)
    p = write(tmp_path, "p.json", {"weights": [0.6, 0.4]})
    q = write(tmp_path, "q.json", {"weights": [0.5, 0.5]})
    report = run_json(capsys, ["distance", p, q, "--alpha", "200"])
    # (1/2 sum |p^(1/200) - q^(1/200)|^200)^(1/200), computed in logs
    diff = [math.expm1(math.log(x / 0.5) / 200) * 0.5 ** (1 / 200)
            for x in (0.6, 0.4)]
    top = max(abs(d) for d in diff)
    want = top * (0.5 * sum((abs(d) / top) ** 200 for d in diff)) ** (1 / 200)
    assert report["Dalpha"] == pytest.approx(want, rel=1e-9)
    assert report["Dalpha"] == pytest.approx(1.107e-3, rel=1e-3)


def test_distance_mixed_inputs(tmp_path, capsys):
    a = write(tmp_path, "p.json", {"weights": [0.5, 0.5]})
    b = write(tmp_path, "b.json", Z0)
    code, _, err = run(capsys, ["distance", a, b])
    assert code == 2
    assert "both" in err


# -- witness ----------------------------------------------------------


def test_witness_flags_bell(tmp_path, capsys):
    fam = write(tmp_path, "bell.json", BELL_FAMILY)
    report = run_json(capsys, ["witness", "--family", fam, "--kind", "ksep",
                               "--alpha", "1"])
    assert report["verdict"] == "entangled"
    assert report["speed"] == pytest.approx(2.0, abs=1e-9)
    assert report["bound"] == pytest.approx(math.sqrt(2.0), abs=1e-9)


def test_witness_sees_bell_at_large_alpha(tmp_path, capsys):
    # SF_alpha = 2^(1/alpha) against the cap 2^(1/alpha) sqrt(2) / 2
    fam = write(tmp_path, "bell.json", BELL_FAMILY)
    report = run_json(capsys, ["witness", "--family", fam, "--kind", "ksep",
                               "--alpha", "2000"])
    assert report["speed"] == pytest.approx(2 ** (1 / 2000), rel=1e-11)
    assert report["verdict"] == "entangled"


def test_witness_asep_partition(tmp_path, capsys):
    fam = write(tmp_path, "bell.json", BELL_FAMILY)
    part = write(tmp_path, "part.json", BELL_PARTITION)
    report = run_json(capsys, ["witness", "--family", fam, "--kind", "asep",
                               "--partition", part])
    assert report["verdict"] == "entangled"
    assert report["bound"] == pytest.approx(math.sqrt(2.0), abs=1e-9)


# -- bound ------------------------------------------------------------


def test_bound_heisenberg(tmp_path, capsys):
    h = write(tmp_path, "h.json", matrix_json(np.diag([0.0, 1.0, 3.0])))
    report = run_json(capsys, ["bound", "--kind", "heisenberg",
                               "--hamiltonian", h])
    assert report["f1_max"] == pytest.approx(3.0)
    assert report["f2_max"] == pytest.approx(9.0)


def test_bound_missing_flag(tmp_path, capsys):
    code, _, err = run(capsys, ["bound", "--kind", "heisenberg"])
    assert code == 2
    assert "--hamiltonian" in err


@pytest.mark.parametrize("h", [np.diag([1e308, -1e308]),
                               np.array([[0.0, 1e308], [1e308, 0.0]]),
                               np.diag([1e200, -1e200])])
def test_bound_heisenberg_overflow_exits_3(tmp_path, capsys, h):
    path = write(tmp_path, "h.json", matrix_json(h))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, ["bound", "--kind", "heisenberg",
                                      "--hamiltonian", path])
    assert code == 3
    assert out == ""
    assert len(err.splitlines()) == 1
    assert "overflow" in err
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []


@pytest.mark.parametrize("kind, inputs", [
    ("bhatia_davis", {"hamiltonian": np.diag([1e200, -1e200]),
                      "state": np.eye(2) / 2.0}),
    ("nonhermitian", {"hamiltonian": np.diag([1e200, -1e200]),
                      "gamma": np.diag([1e300, 0.0])}),
    # gap^2 = 4e400 overflows inside the Heisenberg limit
    ("local", {"locals": [{"kind": "hamiltonian", "hamiltonian":
                           matrix_json(np.diag([1e200, -1e200]))}]}),
    # each gap^2 = 1e308 is finite, their sum is not
    ("local", {"locals": [{"kind": "hamiltonian", "hamiltonian":
                           matrix_json(np.diag([5e153, -5e153]))}] * 2}),
])
def test_bound_overflow_exits_3(tmp_path, capsys, kind, inputs):
    argv = ["bound", "--kind", kind]
    for flag, m in inputs.items():
        obj = m if isinstance(m, list) else matrix_json(m)
        argv += ["--" + flag, write(tmp_path, flag + ".json", obj)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, argv)
    assert code == 3
    assert out == ""
    assert len(err.splitlines()) == 1
    assert "overflows" in err
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []


def test_bound_ksep(capsys):
    report = run_json(capsys, ["bound", "--kind", "ksep", "--n-qubits", "4",
                               "--k", "1", "--alpha", "1"])
    assert report["value"] == pytest.approx(2.0)


def test_bound_bhatia_davis(tmp_path, capsys):
    h = write(tmp_path, "h.json", matrix_json(np.diag([1.0, -1.0])))
    s = write(tmp_path, "s.json", PLUS_RHO)
    report = run_json(capsys, ["bound", "--kind", "bhatia_davis",
                               "--hamiltonian", h, "--state", s])
    assert report["value"] == pytest.approx(4.0, abs=1e-9)


def test_bound_asep(tmp_path, capsys):
    s = write(tmp_path, "bell.json", matrix_json(BELL))
    part = write(tmp_path, "part.json", BELL_PARTITION)
    report = run_json(capsys, ["bound", "--kind", "asep", "--state", s,
                               "--partition", part, "--alpha", "1"])
    assert report["value"] == pytest.approx(math.sqrt(2.0), abs=1e-9)


def test_bound_asep_rejects_fractional_site(tmp_path, capsys):
    s = write(tmp_path, "bell.json", matrix_json(BELL))
    part = write(tmp_path, "part.json",
                 dict(BELL_PARTITION, blocks=[[0], [1.9]]))
    code, out, err = run(capsys, ["bound", "--kind", "asep", "--state", s,
                                  "--partition", part, "--alpha", "1"])
    assert code == 2
    assert out == ""
    assert "1.9" in err and "integer" in err


def test_bound_asep_rejects_register_below_two_levels_per_site(tmp_path,
                                                              capsys):
    s = write(tmp_path, "one.json", matrix_json([[1.0]]))
    part = write(tmp_path, "part.json",
                 {"blocks": [[0], [1]],
                  "hamiltonians": [matrix_json([[1.0]]),
                                   matrix_json([[2.0]])]})
    code, out, err = run(capsys, ["bound", "--kind", "asep", "--state", s,
                                  "--partition", part, "--alpha", "1"])
    assert code == 2
    assert out == ""
    assert "2**2" in err


def test_bound_nonhermitian(tmp_path, capsys):
    h = write(tmp_path, "h.json", HZ_HALF)
    g = write(tmp_path, "g.json", matrix_json(np.eye(2)))
    report = run_json(capsys, ["bound", "--kind", "nonhermitian",
                               "--hamiltonian", h, "--gamma", g])
    assert report["f1_bound"] == pytest.approx(math.sqrt(5.0), abs=1e-8)
    assert report["f2_bound"] == pytest.approx(5.0, abs=1e-7)
    assert report["r_opt"] == pytest.approx(0.0, abs=1e-6)


def test_bound_local(tmp_path, capsys):
    spec = [{"kind": "hamiltonian", "hamiltonian": HZ_HALF},
            {"kind": "hamiltonian", "hamiltonian": HZ_HALF}]
    locals_path = write(tmp_path, "locals.json", spec)
    report = run_json(capsys, ["bound", "--kind", "local",
                               "--locals", locals_path])
    assert report["value"] == pytest.approx(2.0, abs=1e-9)


def run_process(argv):
    return subprocess.run([sys.executable, "-m", "qspeed.cli"] + argv,
                          capture_output=True, text=True)


def test_bound_nonhermitian_large_entries_warn_nothing(tmp_path):
    # the 2x2 commutativity test overflowed numpy's matmul and norm here,
    # and its RuntimeWarnings reached stderr next to a correct report
    h = write(tmp_path, "h.json", matrix_json(1e200 * np.eye(2)))
    g = write(tmp_path, "g.json", matrix_json(np.diag([1e150, 0.0])))
    proc = run_process(["bound", "--kind", "nonhermitian",
                        "--hamiltonian", h, "--gamma", g])
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert proc.stdout == ('{\n  "kind": "nonhermitian",\n'
                           '  "f1_bound": 2e+150,\n  "f2_bound": 4e+300,\n'
                           '  "r_opt": 1e+200\n}\n')


@pytest.mark.parametrize("restarts", ["0", "-2"])
def test_bound_local_rejects_restarts_below_one(tmp_path, capsys, restarts):
    # with no restart the norm search returned -1, and the cap printed 1
    # for the commutator map of H = diag(0, 3), whose squared norm is 9
    h, eye = np.diag([0.0, 3.0]), np.eye(2)
    m = -1j * (np.kron(eye, h) - np.kron(h.T, eye))
    path = write(tmp_path, "locals.json",
                 [{"kind": "matrix", "matrix": matrix_json(m)}])
    code, out, err = run(capsys, ["bound", "--kind", "local", "--locals",
                                  path, "--restarts", restarts])
    assert (code, out) == (2, "")
    assert err == "qspeed: error: restarts must be >= 1\n"


@pytest.mark.parametrize("family", [
    {"kind": "lindblad", "superop": matrix_json(np.diag([0.0, 1.0, 1.0, 0.0])),
     "state": PLUS_RHO},
    {"kind": "non_hermitian", "h": matrix_json(np.zeros((2, 2))),
     "gamma": matrix_json(np.diag([-1.0, 0.0])), "state": PLUS_RHO},
], ids=["lindblad", "non_hermitian"])
def test_speed_of_an_overflowing_evolution_exits_2(tmp_path, family):
    # a growing mode overflows e^{theta L}: scipy's and numpy's
    # RuntimeWarnings reached stderr before an error on an internal operand
    fam = write(tmp_path, "fam.json", family)
    proc = run_process(["speed", "--family", fam, "--theta", "1000"])
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == ("qspeed: error: the evolved state at theta = "
                           "1000 overflows the float range\n")


UNITARY_10 = {"kind": "unitary",
              "hamiltonian": matrix_json(np.diag([10.0, -10.0])),
              "state": PLUS_RHO}


@pytest.mark.parametrize("family, argv", [
    (UNITARY_10, ["speed", "--theta", "1e308"]),
    (UNITARY_10, ["witness", "--theta", "1e308"]),
    ({"kind": "thermal", "hamiltonian": matrix_json(np.diag([10.0, -10.0]))},
     ["speed", "--theta", "1e308"]),
    ({"kind": "non_hermitian", "h": matrix_json(np.zeros((2, 2))),
      "gamma": matrix_json(np.diag([-1.0, 0.0])), "state": PLUS_RHO},
     ["speed", "--theta", "355"]),
], ids=["unitary-speed", "unitary-witness", "thermal", "non_hermitian-slope"])
def test_an_overflowing_family_prints_one_error_line(tmp_path, family, argv):
    # numpy's RuntimeWarnings reached stderr before "matrix has non-finite
    # entries"; at theta = 355 the non_hermitian state is finite and its
    # derivative overflows
    fam = write(tmp_path, "fam.json", family)
    proc = run_process(argv[:1] + ["--family", fam] + argv[1:])
    assert (proc.returncode, proc.stdout) == (2, "")
    assert len(proc.stderr.splitlines()) == 1
    assert "overflows the float range" in proc.stderr


def _asep_files(tmp_path, state, h0, h1):
    s = write(tmp_path, "state.json", matrix_json(state))
    part = write(tmp_path, "part.json",
                 {"blocks": [[0], [1]],
                  "hamiltonians": [matrix_json(h0), matrix_json(h1)]})
    return s, part


# rho = |+><+| (x) |0><0| under H_0 = 1e200 sz (x) I and H_1 = I (x) sz: the
# cap 2^(1/alpha) sqrt(Var H_0 + Var H_1) is 2^(1/alpha) 1e200
SZ = np.diag([1.0, -1.0])
ASEP_STATE = np.kron(np.full((2, 2), 0.5), np.diag([1.0, 0.0]))
ASEP_H0, ASEP_H1 = 1e200 * np.kron(SZ, np.eye(2)), np.kron(np.eye(2), SZ)


@pytest.mark.parametrize("alpha, value", [("1", "2e+200"),
                                          ("2", "1.41421356237e+200")])
def test_bound_asep_of_a_large_generator_is_finite(tmp_path, alpha, value):
    # Var H_0 = 1e400 overflowed: "value": "inf" with exit 0 and warnings
    s, part = _asep_files(tmp_path, ASEP_STATE, ASEP_H0, ASEP_H1)
    proc = run_process(["bound", "--kind", "asep", "--state", s,
                        "--partition", part, "--alpha", alpha])
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout)["value"] == float(value)
    assert f'"value": {value}\n' in proc.stdout


def test_witness_asep_of_a_large_generator_is_finite(tmp_path):
    s, part = _asep_files(tmp_path, ASEP_STATE, ASEP_H0, ASEP_H1)
    fam = write(tmp_path, "fam.json",
                {"kind": "unitary",
                 "hamiltonian": matrix_json(ASEP_H0 + ASEP_H1),
                 "state": matrix_json(ASEP_STATE)})
    proc = run_process(["witness", "--family", fam, "--kind", "asep",
                        "--partition", part, "--alpha", "1"])
    assert (proc.returncode, proc.stderr) == (0, "")
    report = json.loads(proc.stdout)
    assert (report["speed"], report["bound"]) == (2e200, 2e200)


def test_bound_asep_beyond_the_float_range_exits_3(tmp_path):
    # each of two 1e308 sz blocks has variance 1e616 on |++><++|
    s, part = _asep_files(tmp_path, np.full((4, 4), 0.25),
                          1e308 * np.kron(SZ, np.eye(2)),
                          1e308 * np.kron(np.eye(2), SZ))
    proc = run_process(["bound", "--kind", "asep", "--state", s,
                        "--partition", part, "--alpha", "1"])
    assert (proc.returncode, proc.stdout) == (3, "")
    assert len(proc.stderr.splitlines()) == 1
    assert "cap overflows" in proc.stderr


def test_bound_nonhermitian_unbounded_shift_interval_exits_3(tmp_path):
    h = write(tmp_path, "h.json", matrix_json(np.diag([1e308, -1e308])))
    g = write(tmp_path, "g.json", matrix_json(np.diag([1e308, 0.0])))
    proc = run_process(["bound", "--kind", "nonhermitian",
                        "--hamiltonian", h, "--gamma", g])
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1
    assert "shift interval" in proc.stderr


def test_speed_overflowing_fisher_information_exits_3(tmp_path):
    # F_2 = 4 Var(H) = 4e400 is not a finite float
    spec = {"kind": "unitary",
            "hamiltonian": matrix_json(np.diag([1e200, -1e200])),
            "state": PLUS_RHO}
    fam = write(tmp_path, "fam.json", spec)
    proc = run_process(["speed", "--family", fam, "--povm", "qfi"])
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1
    assert "Warning" not in proc.stderr
    assert "Fisher information is not a finite float" in proc.stderr


def test_speed_derivative_symmetrisation_does_not_overflow(tmp_path):
    # drho has entries of 1e308: (d + d^dag) / 2 overflowed and the valid
    # input was reported as "matrix has non-finite entries" with exit 2
    spec = {"kind": "unitary",
            "hamiltonian": matrix_json(np.diag([1e308, -1e308])),
            "state": PLUS_RHO}
    fam = write(tmp_path, "fam.json", spec)
    proc = run_process(["speed", "--family", fam])
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1
    assert "Warning" not in proc.stderr
    assert "the Schatten 1-norm exceeds the float range" in proc.stderr


@pytest.mark.parametrize("scale, alpha, code", [
    (1e200, "2", 0), (1e200, "3", 0), (1e308, "1", 3)])
def test_witness_schatten_norm_overflow(tmp_path, scale, alpha, code):
    # sum sigma^alpha overflowed here and the report said "speed": "inf"
    spec = {"kind": "unitary",
            "hamiltonian": matrix_json(np.diag([scale, -scale] * 2)),
            "state": matrix_json(np.full((4, 4), 0.25))}
    fam = write(tmp_path, "fam.json", spec)
    proc = run_process(["witness", "--family", fam, "--kind", "ksep",
                        "--alpha", alpha])
    assert proc.returncode == code
    assert "Warning" not in proc.stderr
    if code == 0:
        assert proc.stderr == ""
        report = json.loads(proc.stdout)
        assert all(math.isfinite(report[key]) for key in ("speed", "bound"))
    else:
        assert proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1
        assert "exceeds the float range" in proc.stderr


# -- estimate ---------------------------------------------------------


def test_estimate_discrimination(tmp_path, capsys):
    rho = write(tmp_path, "rho.json", Z0)
    sigma = write(tmp_path, "sigma.json", PLUS_RHO)
    report = run_json(capsys, ["estimate", "--rho", rho, "--sigma", sigma,
                               "--trials", "20000", "--seed", "1"])
    assert report["mode"] == "discrimination"
    optimal = 0.5 * (1.0 + 1.0 / math.sqrt(2.0))
    assert report["optimal"] == pytest.approx(optimal, abs=1e-9)
    sigma3 = 3.0 * math.sqrt(optimal * (1 - optimal) / 20000)
    assert report["success_rate"] == pytest.approx(optimal, abs=sigma3)


def test_estimate_median_mode(capsys):
    report = run_json(capsys, ["estimate", "--model", "laplace", "--m", "51",
                               "--trials", "300", "--seed", "2"])
    assert report["mode"] == "median"
    assert report["bound"] == pytest.approx(1.0)
    assert isinstance(report["satisfied"], bool)


@pytest.mark.parametrize("model", ["gaussian", "cauchy", "laplace"])
def test_estimate_rejects_a_subnormal_square_scale(capsys, model):
    code, out, err = run(capsys, ["estimate", "--model", model,
                                  "--scale", "1e-320"])
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and "normal float square" in err


@pytest.mark.parametrize("scale", ["1e-6", "1e6"])
def test_estimate_model_at_a_far_scale_warns_nothing(scale):
    # the density was integrated in units of 1: at 1e-6 quad saw only zeros
    # and at 1e6 its IntegrationWarnings reached stderr, and both exited 2
    proc = run_process(["estimate", "--model", "gaussian", "--scale", scale,
                        "--m", "21", "--trials", "200"])
    assert (proc.returncode, proc.stderr) == (0, "")
    # reports carry 12 significant digits
    assert json.loads(proc.stdout)["bound"] == pytest.approx(
        math.sqrt(math.pi / 2.0) * float(scale), rel=1e-11)


@pytest.mark.parametrize("argv", [
    ["estimate", "--rho", "a.json", "--sigma", "b.json"],
    ["oracle", "--objective", "d_alpha", "--state", "a.json", "--partner",
     "b.json"],
    ["oracle", "--objective", "sd_alpha", "--state", "a.json", "--partner",
     "b.json"]], ids=["estimate", "d_alpha", "sd_alpha"])
def test_state_pair_of_two_dimensions_exits_2(tmp_path, capsys, monkeypatch,
                                              argv):
    # numpy's broadcast or matmul error escaped as a traceback with exit 1
    write(tmp_path, "a.json", Z0)
    write(tmp_path, "b.json", matrix_json(np.eye(3) / 3))
    monkeypatch.chdir(tmp_path)
    assert run(capsys, argv) == (
        2, "", "qspeed: error: states have different dimensions\n")


def test_estimate_requires_model_or_pair(capsys):
    code, _, err = run(capsys, ["estimate"])
    assert code == 2
    assert "--model" in err or "model" in err


# -- oracle -----------------------------------------------------------


def test_oracle_agrees_with_closed_form(tmp_path, capsys):
    fam = write(tmp_path, "fam.json", PLUS_FAMILY)
    report = run_json(capsys, ["oracle", "--objective", "f_alpha",
                               "--alpha", "1", "--family", fam,
                               "--restarts", "8", "--seed", "0"])
    assert report["closed_form"] == pytest.approx(1.0, abs=1e-9)
    assert report["brute_force"] == pytest.approx(1.0, abs=1e-6)
    assert abs(report["discrepancy"]) <= 1e-6


def test_oracle_distance_objective(tmp_path, capsys):
    a = write(tmp_path, "a.json", Z0)
    b = write(tmp_path, "b.json", PLUS_RHO)
    report = run_json(capsys, ["oracle", "--objective", "d_alpha",
                               "--alpha", "1", "--state", a, "--partner", b,
                               "--restarts", "8", "--seed", "0"])
    assert report["closed_form"] == pytest.approx(1.0 / math.sqrt(2.0),
                                                  abs=1e-9)
    assert abs(report["discrepancy"]) <= 1e-6


@pytest.mark.parametrize("scale, objective, alpha", [
    (1.0, "f_alpha", "400"), (1.0, "f_alpha", "1500"),
    (20.0, "sf_alpha", "400")])
def test_oracle_overflowing_search_prints_one_error_line(tmp_path, scale,
                                                         objective, alpha):
    # the search's cells overflowed float_power: numpy's warnings reached
    # stderr, then f_alpha printed "brute_force": "inf" with exit 0 and
    # sf_alpha blamed the closed form for an inf search value
    fam = write(tmp_path, "fam.json", dict(
        PLUS_FAMILY, hamiltonian=matrix_json(np.diag([0.5, -0.5]) * scale)))
    proc = run_process(["oracle", "--objective", objective, "--alpha", alpha,
                        "--family", fam, "--theta", "0.3"])
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr == (
        f"qspeed: numerical consistency failure: the {objective} search "
        f"exceeds the float range at alpha = {alpha}\n")


# -- validate ---------------------------------------------------------


def test_validate_accepts_density(tmp_path, capsys):
    path = write(tmp_path, "rho.json", Z0)
    report = run_json(capsys, ["validate", path])
    assert report["role"] == "density"
    assert report["valid"] is True
    assert report["diagnostics"] == []


def test_validate_flags_broken_trace(tmp_path, capsys):
    path = write(tmp_path, "bad.json", matrix_json(np.diag([0.5, 0.4])))
    code, out, _ = run(capsys, ["validate", path])
    assert code == 2
    report = json.loads(out)
    assert report["valid"] is False
    assert any("trace" in d["message"] for d in report["diagnostics"])


def test_validate_malformed_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"dim": 2, "entries": [[')
    code, _, err = run(capsys, ["validate", str(path)])
    assert code == 2
    assert "line 1 column" in err


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e999"])
def test_validate_rejects_non_finite_entries(tmp_path, capsys, literal):
    path = tmp_path / "rho.json"
    path.write_text('{"dim": 2, "entries": [[[%s, 0], [0, 0]], '
                    '[[0, 0], [0.5, 0]]]}' % literal)
    code, out, err = run(capsys, ["validate", str(path), "--as", "density"])
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert "entries[0][0][0] must be a finite number" in err


def test_validate_rejects_huge_integer_literal(tmp_path, capsys):
    # past Python's int-digit limit json.loads raises a plain ValueError
    path = tmp_path / "rho.json"
    path.write_text('{"dim": 2, "entries": [[[%s, 0], [0, 0]], '
                    '[[0, 0], [0.5, 0]]]}' % ("1" * 5000))
    code, out, err = run(capsys, ["validate", str(path)])
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert "rho.json" in err and "digits" in err


def test_validate_rejects_deep_nesting(tmp_path, capsys):
    # the JSON decoder raises RecursionError past the recursion limit
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000 + "]" * 200_000)
    code, out, err = run(capsys, ["validate", str(path)])
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert "deep.json" in err and "nesting" in err


def test_validate_reports_huge_negative_eigenvalue(tmp_path, capsys):
    # the Hermitian part of these entries overflowed when formed as
    # (A + A^dag)/2, and the file passed as valid
    a = np.array([[0.5, 1e308], [1e308, 0.5]])
    path = write(tmp_path, "rho.json", matrix_json(a))
    code, out, _ = run(capsys, ["validate", path])
    assert code == 2
    assert [d["check"] for d in json.loads(out)["diagnostics"]] == ["positivity"]


def test_validate_role_override(tmp_path, capsys):
    path = write(tmp_path, "h.json", matrix_json(np.diag([0.5, 0.4])))
    report = run_json(capsys, ["validate", path, "--as", "hermitian"])
    assert report["role"] == "hermitian"
    assert report["valid"] is True  # no trace rule for plain observables


def test_missing_file(capsys):
    code, _, err = run(capsys, ["speed", "--family", "/nonexistent.json"])
    assert code == 2
    assert "cannot read" in err


# -- output discipline ------------------------------------------------


def test_reports_are_byte_identical(tmp_path, capsys):
    fam = write(tmp_path, "fam.json", PLUS_FAMILY)
    argv = ["speed", "--family", fam, "--alpha", "1.5"]
    _, first, _ = run(capsys, argv)
    _, second, _ = run(capsys, argv)
    assert first == second


def test_csv_format(tmp_path, capsys):
    fam = write(tmp_path, "fam.json", PLUS_FAMILY)
    code, out, _ = run(capsys, ["speed", "--family", fam, "--format", "csv"])
    assert code == 0
    rows = dict(line.split(",", 1) for line in out.strip().splitlines())
    assert float(rows["F1"]) == pytest.approx(1.0, abs=1e-9)
    assert float(rows["S1"]) == pytest.approx(0.5, abs=1e-9)


def test_seed_env_variable(tmp_path, capsys, monkeypatch):
    rho = write(tmp_path, "rho.json", Z0)
    sigma = write(tmp_path, "sigma.json", PLUS_RHO)
    argv = ["estimate", "--rho", rho, "--sigma", sigma, "--trials", "500"]
    monkeypatch.setenv("QSPEED_SEED", "7")
    _, from_env, _ = run(capsys, argv)
    monkeypatch.delenv("QSPEED_SEED")
    _, explicit, _ = run(capsys, argv + ["--seed", "7"])
    assert from_env == explicit


def test_seed_env_must_be_integer(tmp_path, capsys, monkeypatch):
    rho = write(tmp_path, "rho.json", Z0)
    sigma = write(tmp_path, "sigma.json", PLUS_RHO)
    monkeypatch.setenv("QSPEED_SEED", "soon")
    code, _, err = run(capsys, ["estimate", "--rho", rho, "--sigma", sigma,
                                "--trials", "500"])
    assert code == 2
    assert "QSPEED_SEED" in err


def test_consistency_failure_exits_3(tmp_path, capsys, monkeypatch):
    def boom(fam, theta):
        raise NumericalConsistencyError("cross-check failed")

    monkeypatch.setattr("qspeed.quantum.trace_speed", boom)
    fam = write(tmp_path, "fam.json", PLUS_FAMILY)
    code, _, err = run(capsys, ["speed", "--family", fam])
    assert code == 3
    assert "consistency" in err


def test_console_script_runs(tmp_path):
    fam = write(tmp_path, "fam.json", PLUS_FAMILY)
    proc = subprocess.run([sys.executable, "-m", "qspeed.cli", "speed",
                           "--family", fam], capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["F1"] == pytest.approx(1.0, abs=1e-9)


_SCIPY_PROBE = """
import contextlib, io, json, sys

def loaded(prefix):
    return sorted(m for m in sys.modules if m.startswith(prefix))

import qspeed
after_package = loaded("qspeed.")
import qspeed.cli
after_import = loaded("scipy")
with contextlib.redirect_stdout(io.StringIO()):
    code = qspeed.cli.main(["speed", "--family", sys.argv[1], "--povm", "qfi"])
print(json.dumps({"after_package": after_package,
                  "after_import": after_import, "code": code,
                  "after_speed": loaded("scipy"),
                  "qspeed_after_speed": loaded("qspeed.")}))
"""


def test_cli_loads_no_scipy_for_unitary_speed(tmp_path):
    # scipy is imported only where expm and quad run, the package loads
    # its modules on first use, and the CLI imports bounds, estimation
    # and oracle only in the handlers that use them; an eager import
    # would add its start-up cost to every qspeed process
    fam = write(tmp_path, "fam.json", PLUS_FAMILY)
    proc = subprocess.run([sys.executable, "-c", _SCIPY_PROBE, fam],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    probe = json.loads(proc.stdout)
    assert probe["after_package"] == []
    assert probe["after_import"] == []
    assert probe["code"] == 0
    assert probe["after_speed"] == []
    unused = {"qspeed.bounds", "qspeed.estimation", "qspeed.oracle"}
    assert unused.isdisjoint(probe["qspeed_after_speed"])


def test_package_names_are_looked_up_in_their_modules(monkeypatch):
    import qspeed

    star = {}
    exec("from qspeed import *", star)
    assert len(qspeed.__all__) == len(set(qspeed.__all__)) == 75
    assert set(qspeed.__all__) <= set(star) & set(dir(qspeed))
    for name in qspeed.__all__:
        obj = star[name]
        assert getattr(sys.modules[obj.__module__], name) is obj
        assert getattr(qspeed, name) is obj
    # not cached: a name patched in its module is seen through the package
    sentinel = object()
    monkeypatch.setattr(quantum, "qfi", sentinel)
    assert qspeed.qfi is sentinel
    with pytest.raises(AttributeError, match="no_such_name"):
        qspeed.no_such_name


# -- golden reports ---------------------------------------------------

GOLDEN = Path(__file__).parent / "golden"


def golden_family(kind, dim):
    """A seeded family of the given kind in the CLI's JSON format; every
    golden report evaluates it at theta = 0.37."""
    def inst(name, index):
        return oracle.random_instance(name, dim, 17, index)

    h, rho = inst("hermitian", 0), inst("density", 1)
    if kind == "unitary":
        return {"kind": kind, "hamiltonian": matrix_json(h),
                "state": matrix_json(rho)}
    if kind == "non_hermitian":
        return {"kind": kind, "h": matrix_json(h),
                "gamma": matrix_json(0.2 * inst("density", 2)),
                "state": matrix_json(rho)}
    if kind == "lindblad":
        jump = 0.3 * inst("hermitian", 3)
        ada = jump.conj().T @ jump
        eye = np.eye(dim)
        m = (-1j * (np.kron(eye, h) - np.kron(h.T, eye))
             + np.kron(jump.conj(), jump)
             - 0.5 * np.kron(eye, ada) - 0.5 * np.kron(ada.T, eye))
        return {"kind": kind, "superop": matrix_json(m),
                "state": matrix_json(rho)}
    if kind == "thermal":
        return {"kind": kind, "hamiltonian": matrix_json(h)}
    orbit = quantum.ParametricFamily.unitary(h, rho)
    grid = [0.37 + 0.05 * (k - 3) for k in range(7)]
    return {"kind": kind, "points": [
        {"theta": t, "state": matrix_json(orbit.state_at(t))} for t in grid]}


def _golden_family_file(kind, dim):
    return {"family.json": golden_family(kind, dim)}


def _golden_register():
    """A seeded two-qubit unitary family, generated by a sum of local
    terms, and the partition of those terms (the ksep and asep goldens)."""
    def local(index):
        return oracle.random_instance("hermitian", 2, 19, index)

    h1 = np.kron(local(0), np.eye(2))
    h2 = np.kron(np.eye(2), local(1))
    fam = {"kind": "unitary", "hamiltonian": matrix_json(h1 + h2),
           "state": matrix_json(oracle.random_instance("density", 4, 19, 2))}
    part = {"blocks": [[0], [1]],
            "hamiltonians": [matrix_json(h1), matrix_json(h2)]}
    return {"family.json": fam, "partition.json": part,
            "state.json": fam["state"]}


def _golden_bound_inputs():
    """A seeded qutrit Hamiltonian, decay matrix and state, and one local
    generator of each kind (the bound goldens)."""
    def inst(name, dim, index):
        return oracle.random_instance(name, dim, 29, index)

    h2 = matrix_json(inst("hermitian", 2, 3))
    local = [{"kind": "hamiltonian", "hamiltonian": h2},
             {"kind": "non_hermitian", "h": h2,
              "gamma": matrix_json(0.2 * inst("density", 2, 4))},
             {"kind": "matrix",
              "matrix": golden_family("lindblad", 2)["superop"]}]
    return {"h.json": matrix_json(inst("hermitian", 3, 0)),
            "gamma.json": matrix_json(0.2 * inst("density", 3, 1)),
            "state.json": matrix_json(inst("density", 3, 2)),
            "locals.json": local}


def _golden_pair(kind):
    """Two seeded qutrit states, or the diagonals of two seeded qutrit
    states as distributions (the distance goldens)."""
    rho, sigma = (oracle.random_instance("density", 3, 23, i) for i in (0, 1))
    if kind == "states":
        return {"a.json": matrix_json(rho), "b.json": matrix_json(sigma)}
    return {"a.json": {"weights": np.diag(rho).real.tolist()},
            "b.json": {"weights": np.diag(sigma).real.tolist()}}


def _golden_cases():
    """Case name -> (input builder, argv); argv names the inputs by file
    name."""
    speed = ["speed", "--theta", "0.37", "--family", "family.json", "--povm"]
    cases = {}
    for kind in KINDS:
        for dim in (2, 3):
            fam = partial(_golden_family_file, kind, dim)
            cases[f"speed-{kind}-d{dim}-qfi"] = (fam, speed + ["qfi"])
            cases[f"speed-{kind}-d{dim}-trace_speed"] = (
                fam, speed + ["trace_speed", "--alpha", "3"])
    cases["oracle-unitary-d2"] = (
        partial(_golden_family_file, "unitary", 2),
        ["oracle", "--objective", "f_alpha", "--alpha", "2", "--theta",
         "0.37", "--restarts", "8", "--seed", "3", "--povm", "--family",
         "family.json"])
    oracle_argv = ["oracle", "--restarts", "4", "--seed", "3", "--objective"]
    for objective, alpha in (("f_alpha", "1"), ("f_alpha", "1.5"),
                             ("sf_alpha", "3")):
        cases[f"oracle-{objective}-alpha{alpha}"] = (
            partial(_golden_family_file, "unitary", 2),
            oracle_argv + [objective, "--alpha", alpha, "--theta", "0.37",
                           "--family", "family.json"])
    for objective, alpha in (("d_alpha", "1"), ("d_alpha", "2"),
                             ("d_alpha", "3"), ("sd_alpha", "2")):
        cases[f"oracle-{objective}-alpha{alpha}"] = (
            partial(_golden_pair, "states"),
            oracle_argv + [objective, "--alpha", alpha, "--state", "a.json",
                           "--partner", "b.json"])
    for alpha in ("1", "1.5", "2", "3", "inf"):
        for kind in ("states", "dists"):
            cases[f"distance-{kind}-alpha{alpha}"] = (
                partial(_golden_pair, kind),
                ["distance", "a.json", "b.json", "--alpha", alpha])
    for alpha in ("1", "2", "3", "inf"):
        witness = ["witness", "--family", "family.json", "--theta", "0.37",
                   "--alpha", alpha]
        cases[f"witness-ksep-alpha{alpha}"] = (
            _golden_register, witness + ["--kind", "ksep"])
        cases[f"witness-asep-alpha{alpha}"] = (
            _golden_register,
            witness + ["--kind", "asep", "--partition", "partition.json"])
    bound = ["bound", "--hamiltonian", "h.json", "--gamma", "gamma.json",
             "--state", "state.json", "--kind"]
    cases["bound-heisenberg"] = (_golden_bound_inputs, bound + ["heisenberg"])
    cases["bound-bhatia_davis"] = (
        _golden_bound_inputs, bound + ["bhatia_davis"])
    cases["bound-nonhermitian"] = (
        _golden_bound_inputs, bound + ["nonhermitian"])
    # a CSV report has no .json golden, so its .txt golden holds exit 0
    for kind in ("heisenberg", "nonhermitian"):
        cases[f"bound-{kind}-csv"] = (
            _golden_bound_inputs, bound + [kind, "--format", "csv"])
    cases["bound-ksep"] = (
        dict, ["bound", "--kind", "ksep", "--n-qubits", "3", "--k", "2",
               "--alpha", "1.5"])
    cases["bound-asep"] = (
        _golden_register,
        ["bound", "--kind", "asep", "--state", "state.json", "--partition",
         "partition.json", "--alpha", "2"])
    cases["bound-local"] = (
        _golden_bound_inputs,
        ["bound", "--kind", "local", "--locals", "locals.json",
         "--restarts", "4", "--seed", "6"])
    cases["estimate-cauchy"] = (
        dict, ["estimate", "--model", "cauchy", "--scale", "0.5", "--m",
               "21", "--trials", "200", "--seed", "5"])
    cases["estimate-discrimination"] = (
        partial(_golden_pair, "states"),
        ["estimate", "--rho", "a.json", "--sigma", "b.json", "--trials",
         "500", "--seed", "4"])
    cases["validate-density"] = (
        partial(_golden_pair, "states"), ["validate", "a.json"])
    cases["validate-malformed"] = (
        lambda: {"a.json": '{"dim": 2, "entries": [['}, ["validate", "a.json"])
    cases["validate-nonhermitian"] = (
        lambda: {"a.json": matrix_json([[0.5, 0.1], [0.3, 0.5]])},
        ["validate", "a.json"])
    cases["validate-family"] = (
        lambda: {"a.json": golden_family("unitary", 2)},
        ["validate", "a.json"])
    cases["validate-family-missing-field"] = (
        lambda: {"a.json": {"kind": "unitary"}},
        ["validate", "a.json", "--as", "family"])
    cases["validate-snapshots"] = (
        lambda: {"a.json": [{"theta": 0.0, "weights": [0.5, 0.5]},
                            {"theta": 0.0, "weights": [0.75, 0.5]}]},
        ["validate", "a.json"])
    cases["exit2-estimate-without-mode"] = (dict, ["estimate"])
    cases["exit3-heisenberg-overflow"] = (
        lambda: {"h.json": matrix_json(np.diag([1e308, -1e308]))},
        ["bound", "--kind", "heisenberg", "--hamiltonian", "h.json"])
    return cases


GOLDEN_CASES = _golden_cases()


@pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
def test_report_matches_golden(case, tmp_path, capsys, monkeypatch):
    # stdout must stay byte-identical for fixed inputs and seeds; each
    # golden file holds the report printed when the case was recorded.
    # The inputs are named relative to the working directory, so paths
    # in reports and errors do not depend on tmp_path.
    build, argv = GOLDEN_CASES[case]
    for name, obj in build().items():
        write(tmp_path, name, obj)
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, argv)
    golden = GOLDEN / f"{case}.json"
    if golden.exists():
        assert (code, err) == (0, "")
    else:  # an exit path: its golden also holds the exit code and stderr
        golden = GOLDEN / f"{case}.txt"
        out = f"exit {code}\n{err}{out}"
    assert out == golden.read_text(encoding="utf-8")
