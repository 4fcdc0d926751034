"""The four workloads: their inputs, their op cycle and each op's check.

A workload's setup generates the inputs from the workload seed and builds
the families; it returns a ``Plan`` whose ``ops`` are one cycle.  A run
repeats the cycle a fixed number of times.  An op is ``(label, fn)`` where
``fn(checks)`` does the work and records failed checks on ``checks``; an
op fails when it raises or records a failed check.

Workloads and why (see README.md for the metrics each one moves):

* sweep   in-process speed reports on small families (d in 2, 3, 4, 8):
          Python overhead, validation and repeated evaluation dominate.
* large   the same op at d in 32, 64, 128: LAPACK-bound.
* verify  oracle searches, finite differences, superoperator norms and
          Monte Carlo estimators, mirroring acceptance criteria 1, 5, 8.
* cli     one ``python -m qspeed.cli`` process per op: start-up and
          import dominate.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import subprocess
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import inputs
from qspeed import bounds, classical, estimation, jsonio, matcore, oracle, quantum

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Kinds exempt from the induced-distribution check: the non_hermitian
# trace decays by design, so induced_parametric raises InvalidInputError
# (the probabilities do not sum to 1).
INDUCED_EXEMPT = ("non_hermitian",)

# thetas per dimension: sweep has 84 ops a cycle, large 28.  One point per
# kind at d=128 keeps large's cycle near 4 s, so a run repeats it 5 times;
# 12 ops at d=64 put large's median among like ops.
SWEEP_THETAS = {2: 3, 3: 3, 4: 3, 8: 3}
LARGE_KINDS = ("unitary", "thermal", "non_hermitian", "table")
LARGE_THETAS = {32: 3, 64: 3, 128: 1}
VERIFY_FAMILIES = 2
SEARCH_RESTARTS = 32
SUPEROP_RESTARTS = 8
CLI_TIMEOUT_S = 120


class Checks:
    """Failed checks and observations of one op."""

    def __init__(self):
        self.failures: list[str] = []
        self.obs: dict = {}

    def ok(self, cond, what: str):
        if not cond:
            self.failures.append(what)

    def close(self, got, want, rel: float, what: str):
        got, want = float(got), float(want)
        self.ok(math.isfinite(got) and math.isfinite(want)
                and abs(got - want) <= rel * abs(want),
                f"{what}: {got!r} vs {want!r} (rel {rel:g})")

    def finite(self, values, what: str):
        self.ok(all(math.isfinite(float(v)) for v in values),
                f"{what}: non-finite value")


@dataclass
class Plan:
    ops: list                       # one cycle: (label, fn) pairs in order
    work: Path | None = None        # input files, removed by close()

    def repeat(self, cycles: int):
        for _ in range(cycles):
            yield from self.ops

    def close(self):
        if self.work is not None:
            shutil.rmtree(self.work, ignore_errors=True)
            with contextlib.suppress(OSError):
                self.work.parent.rmdir()  # only when no other run uses it


def _build(spec: dict, tracer):
    span = tracer.span("quantum.family_build") if tracer \
        else contextlib.nullcontext()
    with span:
        return inputs.build_family(spec)


def _qubits(d: int):
    n = d.bit_length() - 1
    return n if 2 ** n == d else None


# -- sweep and large: one full speed report per (family, theta) -------


def speed_report_op(fam, kind: str, theta: float, d: int):
    n_qubits = _qubits(d)

    def op(c: Checks):
        f1 = quantum.trace_speed(fam, theta)
        f2 = quantum.qfi(fam, theta)
        sf = [quantum.schatten_speed(fam, theta, a) for a in (1.5, 3.0)]
        povm_f2 = quantum.optimal_povm(fam, theta, target="qfi")
        povm_f1 = quantum.optimal_povm(fam, theta, target="trace_speed")
        values = [f1, f2, *sf]
        if kind not in INDUCED_EXEMPT:
            f2m = classical.gen_fisher(
                quantum.induced_parametric(fam, theta, povm_f2), 2.0)
            f1m = classical.gen_fisher(
                quantum.induced_parametric(fam, theta, povm_f1), 1.0)
            c.close(f2m, f2, 1e-8, "f_2 of the qfi POVM equals F_2")
            c.close(f1m, f1, 1e-8, "f_1 of the trace POVM equals F_1")
            values += [f2m, f1m]
        if n_qubits is not None:
            w = bounds.witness(fam, kind="ksep", alpha=1.0, theta=theta)
            c.close(w.speed, f1, 1e-12, "witness speed equals F_1")
            c.close(w.bound, math.sqrt(n_qubits), 1e-12,
                    "1-separable cap equals sqrt(N)")
            c.ok(w.verdict == ("entangled" if w.speed > w.bound * (1 + 1e-9)
                               else "undecided"), "witness verdict")
            values += [w.speed, w.bound]
        c.ok(f1 <= math.sqrt(f2) + 1e-9, "F_1 <= sqrt(F_2) + 1e-9")
        c.finite(values, "speed report")
        c.ok(all(np.isfinite(e).all() for p in (povm_f2, povm_f1) for e in p),
             "POVM elements are finite")

    return (f"speed/{kind}/d{d}", op)


def _speed_plan(seed: int, tag: int, kinds, thetas: dict, tracer,
                pure_kinds=()) -> Plan:
    ops = []
    variants = [(k, False) for k in kinds] + [(k, True) for k in pure_kinds]
    for v, (kind, pure_state) in enumerate(variants):
        for d, count in thetas.items():
            spec = inputs.family_spec(seed, kind, d, tag, pure_state)
            fam = _build(spec, tracer)
            rng = inputs.rng_for(seed, tag, 100 + v, d)
            for theta in inputs.thetas_for(spec, rng, count):
                ops.append(speed_report_op(fam, kind, theta, d))
    return Plan(ops=ops)


def setup_sweep(seed: int, tracer=None) -> Plan:
    # pure states take the rank-deficient SLD path; a pure table family is
    # left out because its finite-difference derivative leaks into the
    # null space, which qfi rightly rejects as infinite Fisher information
    return _speed_plan(seed, 0, inputs.KINDS, SWEEP_THETAS, tracer,
                       pure_kinds=("unitary", "non_hermitian"))


def setup_large(seed: int, tracer=None) -> Plan:
    return _speed_plan(seed, 1, LARGE_KINDS, LARGE_THETAS, tracer)


# -- verify: criteria 1, 5 and 8 at reduced counts --------------------


def search_op(fam, d: int, objective: str, alpha: float):
    cfg = oracle.SearchConfig(restarts=SEARCH_RESTARTS, seed=0)

    def op(c: Checks):
        if objective == "f_alpha":
            cap = (quantum.trace_speed(fam, 0.0) if alpha == 1.0
                   else quantum.qfi(fam, 0.0))
        else:
            cap = quantum.schatten_speed(fam, 0.0, alpha)
        value, _ = oracle.brute_force_max(fam, 0.0, objective, alpha, cfg=cfg)
        scale = max(1.0, cap)
        c.ok(value <= cap + 1e-9 * scale,
             f"search {objective} alpha={alpha} stays below the closed form")
        if objective == "f_alpha":
            c.ok(value >= cap - 1e-6 * scale,
                 f"search {objective} alpha={alpha} attains the closed form")
            c.obs["gap"] = (cap - value) / scale

    return (f"search/{objective}{alpha:g}/d{d}", op)


def finite_diff_op(fam, d: int):
    theta = 0.3

    def op(c: Checks):
        est, bar = oracle.finite_diff_speed(fam, theta, kind="trace")
        c.ok(abs(est - quantum.trace_speed(fam, theta) / 2.0) <= bar,
             "trace distance slope equals S_1")
        # larger Bures step keeps truncation above the fidelity rounding
        est, bar = oracle.finite_diff_speed(fam, theta, kind="bures", h=3e-3)
        c.ok(abs(est - math.sqrt(quantum.qfi(fam, theta) / 8.0)) <= bar,
             "Bures distance slope equals S_2")
        for alpha in (1.5, 3.0):
            est, bar = oracle.finite_diff_speed(fam, theta, kind="schatten",
                                                alpha=alpha)
            target = 2.0 ** (-1.0 / alpha) * quantum.schatten_speed(
                fam, theta, alpha)
            c.ok(abs(est - target) <= bar,
                 f"Schatten distance slope equals the speed at {alpha}")

    return (f"finite_diff/d{d}", op)


def superop_op(sop, upper: float, seed: int):
    def op(c: Checks):
        res = bounds.superop_norm(sop, 1.0, restarts=SUPEROP_RESTARTS,
                                  seed=seed)
        out = sop.apply(np.outer(res.state, res.state.conj()))
        attained = matcore.schatten_norm((out + out.conj().T) / 2, 1.0)
        c.close(attained, res.value, 1e-9, "norm is attained by its state")
        c.ok(res.value <= upper, "norm below sqrt(d) ||M||_op")
        c.obs["converged"] = bool(res.converged)

    return ("superop_norm/d2", op)


def _binomial_op(label: str, rho, sigma, trials: int, seed: int):
    def op(c: Checks):
        povm = estimation.discrimination_povm(rho, sigma)
        rate = estimation.discrimination_game(rho, sigma, povm, trials,
                                              seed=seed)
        target = estimation.discrimination_probability(rho, sigma)
        sigma_ = math.sqrt(target * (1.0 - target) / trials)
        c.ok(abs(rate - target) <= 3.0 * sigma_,
             "discrimination rate within 3 sigma of (1 + D_1)/2")
        c.obs["samples"] = trials

    return (label, op)


def _median_op(label: str, model, m: int, trials: int, seed: int,
               pi_half: bool):
    def op(c: Checks):
        res = estimation.median_dispersion_vs_bound(model, 0.0, m=m,
                                                    trials=trials, seed=seed)
        c.ok(res.satisfied, "median dispersion meets the 1/f_1 bound")
        if pi_half:
            c.ok(abs(res.dispersion - math.pi / 2.0) <= 0.05 * math.pi / 2.0,
                 "Cauchy median dispersion within 5% of pi/2")
        c.obs["samples"] = m * trials

    return (label, op)


def _cramer_rao_op(m: int, trials: int, seed: int):
    def op(c: Checks):
        rep = estimation.cramer_rao_check(estimation.gaussian_location(1.0),
                                          0.0, np.mean, m=m, trials=trials,
                                          seed=seed)
        c.ok(rep.satisfied is True, "sample mean meets the Cramer-Rao floor")
        c.obs["samples"] = m * trials

    return ("cramer_rao/gaussian", op)


def _random_instances_op(seed: int, first: list):
    def op(c: Checks):
        got = oracle.random_instances("density", 3, seed, count=8)
        if not first:
            first.extend(got)
        c.ok(len(got) == 8 and all(np.array_equal(a, b)
                                   for a, b in zip(got, first)),
             "instances repeat bit for bit")
        for rho in got:
            matcore.require_density(rho)

    return ("random_instances/density3", op)


# Monte Carlo verdicts are 3-sigma tests with a small false-alarm rate per
# input; they run on the fixed inputs and stream seeds of acceptance
# criterion 8, so a failed verdict always means the program changed.
MC_SEED = 1600


def _monte_carlo_ops() -> list:
    z0 = np.diag([1.0, 0.0]).astype(complex)
    plus = np.full((2, 2), 0.5, dtype=complex)
    rng = inputs.rng_for(MC_SEED, 0)
    rho, tau = inputs.density(rng, 3), inputs.density(rng, 3)
    return [
        _binomial_op("discrimination/qubit", z0, plus, 1_000_000, 3),
        _binomial_op("discrimination/qutrit", rho, tau, 1_000_000, 4),
        _median_op("median/cauchy", estimation.cauchy_location(1.0),
                   101, 20000, 5, True),
        _median_op("median/gaussian", estimation.gaussian_location(1.0),
                   101, 5000, 6, False),
        _median_op("median/laplace", estimation.laplace_location(1.0),
                   101, 5000, 7, False),
        _cramer_rao_op(20, 2000, 8),
    ]


# A search's cost depends on the family and on the search's own random
# starts, and varies fourfold across random families.  The searches
# therefore run on fixed families (the first of a bank drawn once, as
# criterion 1 draws them) with criterion 1's search seed, so their cost
# is the same for every workload seed; the other verify inputs come from
# the workload seed.
SEARCH_BANK_SEED = 20171212


def setup_verify(seed: int, tracer=None) -> Plan:
    ops = []
    for k in range(VERIFY_FAMILIES):
        for d in (2, 3):
            rng = inputs.rng_for(SEARCH_BANK_SEED, k, d)
            fam = _build(inputs.criterion_family(rng, d), tracer)
            for objective, alpha in (("f_alpha", 1.0), ("f_alpha", 2.0),
                                     ("sf_alpha", 1.5), ("sf_alpha", 3.0)):
                ops.append(search_op(fam, d, objective, alpha))
    for k in range(VERIFY_FAMILIES):
        for d in (2, 3):
            fam = _build(inputs.criterion_family(
                inputs.rng_for(seed, 1000 + k, d), d), tracer)
            ops.append(finite_diff_op(fam, d))
    for k in range(VERIFY_FAMILIES):
        rng = inputs.rng_for(seed, 2000 + k)
        m = inputs.lindblad_matrix(inputs.hermitian(rng, 2),
                                   0.3 * inputs.ginibre(rng, 2))
        upper = math.sqrt(2.0) * float(np.linalg.norm(m, 2))
        ops.append(superop_op(matcore.Superoperator.from_matrix(m), upper,
                              seed + k))
    ops.extend(_monte_carlo_ops())
    ops.append(_random_instances_op(seed, []))
    return Plan(ops=ops)


# -- cli: one process per op ------------------------------------------


@dataclass
class CliCase:
    label: str
    argv: list
    code: int                        # expected exit code
    expect: dict = field(default_factory=dict)   # inputs the checks need
    stdout: str | None = None        # in-process output, set by prepare
    library: dict = field(default_factory=dict)  # report key -> value


def _cli_cases(seed: int, work: Path) -> list:
    cases = []
    rng = inputs.rng_for(seed, 3000)
    files = {}
    for kind in inputs.KINDS:
        for d in (2, 8):
            spec = inputs.family_spec(seed, kind, d, 3000)
            path = inputs.write_json(work / f"family-{kind}-{d}.json",
                                     inputs.family_to_json(spec))
            files[kind, d] = path
            theta = inputs.thetas_for(spec, rng, 1)[0]
            cases.append(CliCase(f"speed/{kind}/d{d}",
                                 ["speed", "--family", path, "--theta",
                                  repr(theta), "--povm", "qfi"], 0,
                                 {"theta": theta}))
    a, b = inputs.density(rng, 4), inputs.density(rng, 4)
    pa = inputs.write_json(work / "rho.json", inputs.matrix_json(a))
    pb = inputs.write_json(work / "sigma.json", inputs.matrix_json(b))
    cases.append(CliCase("distance", ["distance", pa, pb], 0))

    theta = float(rng.uniform(0.1, 1.0))
    cases.append(CliCase("witness/ksep",
                         ["witness", "--family", files["unitary", 8],
                          "--kind", "ksep", "--theta", repr(theta)], 0,
                         {"theta": theta}))
    h1, h2 = inputs.hermitian(rng, 2), inputs.hermitian(rng, 2)
    eye = np.eye(2)
    local = [np.kron(h1, eye), np.kron(eye, h2)]
    fam4 = {"kind": "unitary", "hamiltonian": local[0] + local[1],
            "state": inputs.density(rng, 4)}
    pf = inputs.write_json(work / "family-bipartite.json",
                           inputs.family_to_json(fam4))
    pp = inputs.write_json(work / "partition.json",
                           {"blocks": [[0], [1]],
                            "hamiltonians": [inputs.matrix_json(x)
                                             for x in local]})
    cases.append(CliCase("witness/asep",
                         ["witness", "--family", pf, "--kind", "asep",
                          "--partition", pp, "--theta", repr(theta)], 0,
                         {"theta": theta}))

    ph = inputs.write_json(work / "h8.json",
                           inputs.matrix_json(inputs.hermitian(rng, 8)))
    cases.append(CliCase("bound/heisenberg",
                         ["bound", "--kind", "heisenberg", "--hamiltonian", ph],
                         0))
    ph4 = inputs.write_json(work / "h4.json",
                            inputs.matrix_json(inputs.hermitian(rng, 4)))
    pg4 = inputs.write_json(work / "gamma4.json",
                            inputs.matrix_json(inputs.decay(rng, 4)))
    cases.append(CliCase("bound/nonhermitian",
                         ["bound", "--kind", "nonhermitian", "--hamiltonian",
                          ph4, "--gamma", pg4], 0))
    n = int(rng.integers(4, 9))
    k = int(rng.integers(1, n + 1))
    cases.append(CliCase("bound/ksep",
                         ["bound", "--kind", "ksep", "--n-qubits", str(n),
                          "--k", str(k), "--alpha", "1.5"], 0))

    pv = inputs.write_json(work / "valid.json",
                           inputs.matrix_json(inputs.density(rng, 3)))
    cases.append(CliCase("validate/density",
                         ["validate", pv, "--as", "density"], 0))
    bad = work / "malformed.json"
    bad.write_text('{"dim": 2, "entries": [[[1.0, 0.0], [0.0, 0.0]],',
                   encoding="utf-8")
    cases.append(CliCase("validate/malformed", ["validate", str(bad)], 2))
    skew = inputs.hermitian(rng, 3)
    skew[0, 1] += 0.25
    pn = inputs.write_json(work / "nonhermitian.json", inputs.matrix_json(skew))
    cases.append(CliCase("validate/nonhermitian",
                         ["validate", pn, "--as", "hermitian"], 2,
                         {"asymmetry": float(np.max(np.abs(skew - skew.conj().T)))}))

    mc_seed = int(rng.integers(0, 2 ** 31))
    cases.append(CliCase("estimate/cauchy",
                         ["estimate", "--model", "cauchy", "--m", "21",
                          "--trials", "400", "--seed", str(mc_seed)], 0,
                         {"seed": mc_seed}))
    cases.append(CliCase("oracle/f2",
                         ["oracle", "--objective", "f_alpha", "--alpha", "2",
                          "--family", files["unitary", 2], "--theta", "0.25",
                          "--restarts", "8", "--seed", str(mc_seed)], 0,
                         {"seed": mc_seed}))
    return cases


def _library_values(case: CliCase) -> dict:
    """The numbers a case's report must show, from direct library calls."""
    argv = case.argv
    arg = dict(zip(argv[1::2], argv[2::2])) if argv[0] != "distance" else {}
    if argv[0] == "speed":
        fam = jsonio.load_family(arg["--family"])
        t = case.expect["theta"]
        return {"F1": quantum.trace_speed(fam, t), "F2": quantum.qfi(fam, t),
                "SFalpha": quantum.schatten_speed(fam, t, 2.0)}
    if argv[0] == "distance":
        rho, sigma = (jsonio.load_matrix(p) for p in argv[1:3])
        return {"D1": quantum.trace_distance(rho, sigma),
                "D2": quantum.bures_distance(rho, sigma),
                "SDalpha": quantum.schatten_distance(rho, sigma, 2.0)}
    if argv[0] == "witness":
        fam = jsonio.load_family(arg["--family"])
        part = (jsonio.load_partition(arg["--partition"])
                if "--partition" in arg else None)
        w = bounds.witness(fam, kind=arg["--kind"], alpha=1.0,
                           theta=case.expect["theta"], partition=part)
        return {"speed": w.speed, "bound": w.bound}
    if argv[0] == "bound":
        kind = arg["--kind"]
        if kind == "heisenberg":
            lim = bounds.heisenberg_limit(jsonio.load_matrix(arg["--hamiltonian"]))
            return {"f1_max": lim.f1_max, "f2_max": lim.f2_max}
        if kind == "nonhermitian":
            nhb = bounds.nonhermitian_speed_bound(
                jsonio.load_matrix(arg["--hamiltonian"]),
                jsonio.load_matrix(arg["--gamma"]))
            return {"f1_bound": nhb.f1_bound, "f2_bound": nhb.f2_bound,
                    "r_opt": nhb.r_opt}
        return {"value": bounds.ksep_bound(int(arg["--n-qubits"]),
                                           int(arg["--k"]), 1.5)}
    if argv[0] == "estimate":
        res = estimation.median_dispersion_vs_bound(
            estimation.cauchy_location(1.0), 0.0, 21, 400,
            seed=case.expect["seed"])
        return {"dispersion": res.dispersion, "bound": res.bound,
                "stderr": res.stderr}
    if argv[0] == "oracle":
        fam = jsonio.load_family(arg["--family"])
        value, _ = oracle.brute_force_max(
            fam, 0.25, "f_alpha", 2.0,
            oracle.SearchConfig(restarts=8, seed=case.expect["seed"]))
        return {"brute_force": value, "closed_form": quantum.qfi(fam, 0.25)}
    return {}


def check_cli_output(case: CliCase, code: int, out: str, c: Checks):
    c.ok(code == case.code, f"exit code {code}, expected {case.code}")
    c.ok(out == case.stdout, "stdout differs from the in-process call")
    c.ok('"nan"' not in out, "report contains nan")
    if not out:
        c.ok(case.code == 2, "empty stdout")
        return
    report = json.loads(out)
    for key, want in case.library.items():
        c.close(report[key], want, 1e-10, f"{case.label} {key}")
    if case.label == "validate/nonhermitian":
        diag = report["diagnostics"]
        c.ok(not report["valid"] and diag and diag[0]["check"] == "hermiticity",
             "non-Hermitian input is flagged")
        if diag:
            c.close(diag[0]["magnitude"], case.expect["asymmetry"], 1e-10,
                    "reported asymmetry")
    if case.label == "validate/density":
        c.ok(report["valid"] is True, "valid density accepted")


def prepare_cli(cases: list):
    """Record each case's in-process stdout and its library values."""
    from qspeed import cli

    for case in cases:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(case.argv)
        if code != case.code:
            raise RuntimeError(f"{case.label}: in-process exit code {code}")
        case.stdout = buf.getvalue()
        case.library = _library_values(case)


def cli_op(case: CliCase, command: list):
    """Run ``command + argv``; the environment must put src on PYTHONPATH
    (run.py does)."""
    def op(c: Checks):
        proc = subprocess.run(command + case.argv, capture_output=True,
                              text=True, cwd=ROOT, timeout=CLI_TIMEOUT_S)
        check_cli_output(case, proc.returncode, proc.stdout, c)

    return (f"cli/{case.label}", op)


def setup_cli(seed: int, tracer=None) -> Plan:
    work = ROOT / ".bench_work" / f"cli-{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    return Plan(ops=_cli_cases(seed, work), work=work)


def cli_ops(plan: Plan, command: list) -> Plan:
    """The cases of a cli plan as ops that run ``command + argv``."""
    return Plan(ops=[cli_op(case, command) for case in plan.ops],
                work=plan.work)


SETUPS = {"sweep": setup_sweep, "large": setup_large,
          "verify": setup_verify, "cli": setup_cli}
