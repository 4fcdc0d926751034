"""qspeed benchmark: run one workload once and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {sweep,large,verify,cli} \
        --seed N --seconds S --trace {0,1}

``--workload all`` runs the four in turn and prints their metrics as a
table.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The line before it holds
metadata (versions, op counts, the tail percentile used, failed checks).

* ``--trace 0`` times the op cycle with nothing installed and reports the
  end-to-end metrics.
* ``--trace 1`` alternates untraced and traced cycles (spans around
  qspeed's public calls, see tracing.py), then, for the in-process
  workloads, runs one cycle with exact counters.  It reports the
  per-layer metrics.

A run repeats a fixed op cycle ``round(seconds * CYCLES_PER_SECOND)``
times; it is never a time-boxed loop, so the op mix does not change with
the program's speed.  Each op's latency is the fastest of its
repetitions: on the shared 2-core sandbox this was tuned on, identical
work ran up to 1.6x slower while a neighbour was busy, CPU time included,
and best-of-cycles cut the run-to-run spread of sweep's throughput from
15% to 2%.  The wall-clock figures are kept in the metadata.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# One CPU for the run and every process it starts: in alternating runs on
# the 2-vCPU sandbox this was tuned on, unpinned runs spread three times
# as much (20% against 6% on large's throughput).
if hasattr(os, "sched_setaffinity"):
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("sweep", "large", "verify", "cli")

# Whole cycles per second of --seconds, calibrated so that a run measures
# about --seconds on a 2-core x86-64 sandbox.
CYCLES_PER_SECOND = {"sweep": 4.8, "large": 0.25, "verify": 0.4, "cli": 0.1}

# set-ups repeated in child processes after the timed phase; setup_s is
# the median over these and the run's own set-up
SETUP_REPEATS = 4

END_TO_END = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "ok_ratio": "1",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

_SPAN_FNS = ("state_at", "derivative_at", "qfi", "trace_speed",
             "schatten_speed", "optimal_povm", "induced_parametric")
PER_LAYER = {
    "cli.spawn_ms": "ms",
    "cli.import_ms": "ms",
    "cli.main_ms": "ms",
    "cli.scipy_modules_loaded": "count",
    "jsonio.load_family.self_ms": "ms",
    "jsonio.dump_report.self_ms": "ms",
    **{f"quantum.{fn}.{kind}": unit for fn in _SPAN_FNS
       for kind, unit in (("self_ms", "ms"), ("calls", "1/op"))},
    "quantum.family_build.self_ms": "ms",
    "matcore.schatten_norm.self_ms": "ms",
    "matcore.require_density.self_ms": "ms",
    "linalg.eigh_per_op": "1/op",
    "linalg.eigvalsh_per_op": "1/op",
    "linalg.svd_per_op": "1/op",
    "linalg.expm_per_op": "1/op",
    "classical.gen_fisher.self_ms": "ms",
    "bounds.witness.self_ms": "ms",
    "bounds.superop_norm.self_ms": "ms",
    "bounds.superop_norm.converged_ratio": "1",
    "oracle.brute_force_max.self_ms": "ms",
    "oracle.brute_force_max.calls": "1/op",
    "oracle.brute_force_max.pycalls_per_search": "1/search",
    "oracle.brute_force_max.gap_max": "1",
    "oracle.finite_diff_speed.self_ms": "ms",
    "oracle.random_instances.self_ms": "ms",
    "estimation.median_dispersion_vs_bound.self_ms": "ms",
    "estimation.cramer_rao_check.self_ms": "ms",
    "estimation.discrimination_game.self_ms": "ms",
    "estimation.samples_per_s": "1/s",
    "trace.overhead_ratio": "1",
}

_MC_SPANS = ("estimation.median_dispersion_vs_bound",
             "estimation.cramer_rao_check", "estimation.discrimination_game")


class Phase:
    """Latencies, failures and observations of the ops run in a phase."""

    def __init__(self):
        self.lat, self.failures, self.obs = [], [], []
        self.wall = 0.0

    def run(self, ops) -> "Phase":
        from workloads import Checks

        start = time.perf_counter()
        for label, fn in ops:
            checks = Checks()
            t0 = time.perf_counter()
            try:
                fn(checks)
            except Exception as exc:  # a raising op is a failed op
                checks.failures.append(f"raised {type(exc).__name__}: {exc}")
            self.lat.append(time.perf_counter() - t0)
            if checks.failures:
                self.failures.append(f"{label}: {'; '.join(checks.failures)}")
            self.obs.append(checks.obs)
        self.wall += time.perf_counter() - start
        return self

    def best(self, per_cycle: int) -> list:
        """Each op's fastest latency over the cycles of the phase."""
        return [min(self.lat[i::per_cycle]) for i in range(per_cycle)]

    def ops_per_s(self, per_cycle: int) -> float:
        return per_cycle / sum(self.best(per_cycle))


def tail(lat: list) -> tuple:
    """(percentile, value, samples beyond): the highest of p90 and p75
    with at least 10 samples beyond it, else p75."""
    cuts = statistics.quantiles(lat, n=100, method="inclusive")
    for p in (90, 75):
        beyond = sum(1 for x in lat if x > cuts[p - 1])
        if beyond >= 10:
            return p, cuts[p - 1], beyond
    return 75, cuts[74], sum(1 for x in lat if x > cuts[74])


def setup(name: str, seed: int, tracer=None):
    """Import qspeed, generate the inputs and build the families."""
    t0 = time.perf_counter()
    import workloads

    origin = Path(sys.modules["qspeed"].__file__).resolve().parent
    if origin != (SRC / "qspeed").resolve():
        sys.exit(f"run.py: imported qspeed from {origin}, not from {SRC}")
    plan = workloads.SETUPS[name](seed, tracer)
    return plan, time.perf_counter() - t0


def setup_in_children(args, count: int) -> list:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--setup-only"]
    out = []
    for _ in range(count):
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {proc.stderr.strip()}")
        out.append(float(proc.stdout.split()[-1]))
    return out


def metadata(args, cycles: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    head = ROOT / ".git" / "HEAD"
    commit = None
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else None
        commit = ref
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((SRC / "qspeed").rglob("*.py")))
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "cycles": cycles,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ[v] for v in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": commit, "src_lines": src_lines,
    }


def end_to_end(args, cycles: int, meta: dict):
    plan, setup_s = setup(args.workload, args.seed)
    import workloads

    try:
        if args.workload == "cli":
            workloads.prepare_cli(plan.ops)
            plan = workloads.cli_ops(plan, [sys.executable, "-m", "qspeed.cli"])
        per_cycle = len(plan.ops)
        phase = Phase().run(plan.repeat(cycles))
        who = (resource.RUSAGE_CHILDREN if args.workload == "cli"
               else resource.RUSAGE_SELF)
        peak_kib = resource.getrusage(who).ru_maxrss
    finally:
        plan.close()
    setups = [setup_s] + setup_in_children(args, SETUP_REPEATS)
    best = phase.best(per_cycle)
    p, tail_s, beyond = tail(best)
    n = len(phase.lat)
    meta.update(ops=n, ops_per_cycle=per_cycle, tail_percentile=p,
                tail_beyond=beyond, wall_ops_per_s=n / phase.wall,
                wall_op_p50_ms=statistics.median(phase.lat) * 1e3,
                setup_samples_s=setups, failures=phase.failures[:10])
    metrics = {
        "ops_per_s": phase.ops_per_s(per_cycle),
        "op_p50_ms": statistics.median(best) * 1e3,
        "op_tail_ms": tail_s * 1e3,
        "ok_ratio": (n - len(phase.failures)) / n,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_kib / 1024.0,
    }
    return [phase], metrics, END_TO_END


def per_layer(args, cycles: int, meta: dict):
    import tracing

    setup_tracer = tracing.Tracer()
    plan, _ = setup(args.workload, args.seed, setup_tracer)
    values = dict.fromkeys(PER_LAYER, 0.0)
    build = setup_tracer.summary().get("quantum.family_build")
    if build:
        values["quantum.family_build.self_ms"] = build["self_s"] * 1e3
    per_cycle = len(plan.ops)
    try:
        if args.workload == "cli":
            phases, spans = _cli_traced(plan, cycles, values)
        else:
            phases, spans = _in_process_traced(plan, cycles, values)
    finally:
        plan.close()
    plain, traced = phases[0], phases[1]
    n = len(traced.lat)
    for name, tot in spans.items():
        for key, field, scale in (("self_ms", "self_s", 1e3),
                                  ("calls", "calls", 1.0)):
            if f"{name}.{key}" in values:
                values[f"{name}.{key}"] = tot[field] * scale / n
    gaps = [o["gap"] for o in traced.obs if "gap" in o]
    if gaps:
        values["oracle.brute_force_max.gap_max"] = max(gaps)
    conv = [o["converged"] for o in traced.obs if "converged" in o]
    if conv:
        values["bounds.superop_norm.converged_ratio"] = sum(conv) / len(conv)
    mc_s = sum(spans[s]["total_s"] for s in _MC_SPANS if s in spans)
    if mc_s > 0:
        values["estimation.samples_per_s"] = sum(
            o.get("samples", 0) for o in traced.obs) / mc_s
    values["trace.overhead_ratio"] = (traced.ops_per_s(per_cycle)
                                      / plain.ops_per_s(per_cycle))
    meta.update(ops=n, ops_per_cycle=per_cycle,
                failures=[f for ph in phases for f in ph.failures][:10])
    return phases, values, PER_LAYER


def _in_process_traced(plan, cycles: int, values: dict):
    import tracing

    # untraced and traced cycles alternate, so both see the same machine
    plain, traced, counted = Phase(), Phase(), Phase()
    tracer = tracing.Tracer()
    for _ in range(cycles):
        plain.run(plan.ops)
        tracer.install()
        try:
            traced.run(plan.ops)
        finally:
            tracer.uninstall()
    counter = tracing.Counter()
    counter.install()
    try:
        counted.run(plan.ops)
    finally:
        counter.uninstall()
    per_op = len(plan.ops)
    for fn in ("eigh", "eigvalsh", "svd", "expm"):
        values[f"linalg.{fn}_per_op"] = counter.calls.get(f"linalg.{fn}", 0) / per_op
    if counter.searches:
        values["oracle.brute_force_max.pycalls_per_search"] = (
            counter.pycalls / counter.searches)
    return [plain, traced, counted], tracer.summary()


def _cli_traced(plan, cycles: int, values: dict):
    import workloads

    workloads.prepare_cli(plan.ops)
    trace_file = ROOT / ".bench_work" / f"cli-trace-{os.getpid()}.jsonl"
    trace_file.unlink(missing_ok=True)
    plain_ops = workloads.cli_ops(plan, [sys.executable, "-m", "qspeed.cli"])
    traced_ops = workloads.cli_ops(
        plan, [sys.executable, str(HERE / "cli_traced.py"), str(trace_file)])
    plain, traced = Phase(), Phase()
    try:
        # untraced and traced calls alternate, so both see the same machine
        for a, b in zip(plain_ops.repeat(cycles), traced_ops.repeat(cycles)):
            plain.run([a])
            traced.run([b])
        lines = [json.loads(line) for line in
                 trace_file.read_text(encoding="utf-8").splitlines()]
    finally:
        trace_file.unlink(missing_ok=True)
    spawn = []
    for _ in range(5):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=60)
        spawn.append(time.perf_counter() - t0)
    values["cli.spawn_ms"] = statistics.median(spawn) * 1e3
    values["cli.import_ms"] = statistics.median(x["import_s"] for x in lines) * 1e3
    values["cli.main_ms"] = statistics.median(x["main_s"] for x in lines) * 1e3
    values["cli.scipy_modules_loaded"] = max(x["scipy_modules"] for x in lines)
    spans: dict = {}
    for line in lines:
        for name, tot in line["spans"].items():
            acc = spans.setdefault(name, dict.fromkeys(tot, 0))
            for key, value in tot.items():
                acc[key] += value
    return [plain, traced], spans


def run_all(args) -> int:
    """Run every workload in its own process and print its metrics."""
    ok = True
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT)
        if proc.returncode != 0:
            print(proc.stderr, end="", file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.splitlines()[-1])
        ok = ok and result["correct"]
        for metric, m in result["metrics"].items():
            print(f"{name:7} {metric:46} {m['value']:<14.6g} {m['unit']}")
        print(f"{name:7} {'ops attempted / failed':46} "
              f"{result['attempted']} / {result['failed']}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    args.seed %= 2 ** 32  # numpy and qspeed seeds must be non-negative
    if not (SRC / "qspeed" / "__init__.py").is_file():
        print(f"run.py: no qspeed sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([os.environ["PYTHONPATH"]]
                      if os.environ.get("PYTHONPATH") else []))

    if args.workload == "all":
        return run_all(args)
    if args.setup_only:
        plan, seconds = setup(args.workload, args.seed)
        plan.close()
        print(repr(seconds))
        return 0

    cycles = max(1, round(args.seconds * CYCLES_PER_SECOND[args.workload]))
    meta: dict = {}
    run = per_layer if args.trace else end_to_end
    phases, metrics, units = run(args, cycles, meta)
    meta = {**metadata(args, cycles), **meta}
    attempted = sum(len(ph.lat) for ph in phases)
    failed = sum(len(ph.failures) for ph in phases)
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
