"""Command line round-trips: report contents, formats, seeds, exit codes."""

import json
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest

from qspeed import classical, jsonio, quantum
from qspeed.cli import main
from qspeed.errors import NumericalConsistencyError

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
    path = tmp_path / name
    path.write_text(json.dumps(obj))
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


def test_bound_nonhermitian_unbounded_shift_interval_exits_3(tmp_path):
    h = write(tmp_path, "h.json", matrix_json(np.diag([1e308, -1e308])))
    g = write(tmp_path, "g.json", matrix_json(np.diag([1e308, 0.0])))
    proc = run_process(["bound", "--kind", "nonhermitian",
                        "--hamiltonian", h, "--gamma", g])
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1
    assert "shift interval" in proc.stderr


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
import qspeed, qspeed.cli

def scipy_modules():
    return sorted(m for m in sys.modules
                  if m == "scipy" or m.startswith("scipy."))

after_import = scipy_modules()
with contextlib.redirect_stdout(io.StringIO()):
    code = qspeed.cli.main(["speed", "--family", sys.argv[1], "--povm", "qfi"])
print(json.dumps({"after_import": after_import, "code": code,
                  "after_speed": scipy_modules()}))
"""


def test_cli_loads_no_scipy_for_unitary_speed(tmp_path):
    # scipy is imported only where expm and quad run; an eager import
    # would add its start-up cost to every qspeed process
    fam = write(tmp_path, "fam.json", PLUS_FAMILY)
    proc = subprocess.run([sys.executable, "-c", _SCIPY_PROBE, fam],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    probe = json.loads(proc.stdout)
    assert probe["after_import"] == []
    assert probe["code"] == 0
    assert probe["after_speed"] == []
