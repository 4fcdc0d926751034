"""Command line interface.

Subcommands: speed, distance, witness, bound, estimate, oracle,
validate.  Reports go to stdout as JSON (default) or key,value CSV with
12 significant digits; identical inputs and seeds produce byte-identical
output.  Exit codes: 0 success, 2 invalid input (including malformed
JSON, reported with line and column), 3 numerical-consistency failure.
The default seed comes from QSPEED_SEED when set.  bounds, estimation
and oracle are imported by the handlers that use them, so speed,
distance and validate never load them.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from . import classical, jsonio, quantum
from .errors import InvalidInputError, NumericalConsistencyError, QSpeedError

_POVM_TARGETS = ("trace_speed", "qfi", "schatten")


def _resolve_seed(args) -> int:
    if getattr(args, "seed", None) is not None:
        return int(args.seed)
    raw = os.environ.get("QSPEED_SEED")
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError:
        raise InvalidInputError(
            f"QSPEED_SEED must be an integer, got {raw!r}"
        ) from None


def _add_common(p: argparse.ArgumentParser, seed: bool = False) -> None:
    p.add_argument("--format", choices=("json", "csv"), default="json",
                   help="report format (default json)")
    if seed:
        p.add_argument("--seed", type=int, default=None,
                       help="RNG seed (default: QSPEED_SEED or 0)")


# -- handlers ---------------------------------------------------------


def _cmd_speed(args):
    fam = jsonio.load_family(args.family)
    theta = float(args.theta)
    alpha = float(args.alpha)
    f1 = quantum.trace_speed(fam, theta)
    f2 = quantum.qfi(fam, theta)
    sf = quantum.schatten_speed(fam, theta, alpha)
    report = {
        "theta": theta,
        "alpha": alpha,
        "F1": f1,
        "F2": f2,
        "SFalpha": sf,
        "S1": 0.5 * f1,
        "S2": math.sqrt(max(f2, 0.0) / 8.0),
        "SSalpha": 2.0 ** (-1.0 / alpha) * sf,
    }
    if args.povm is not None:
        povm = quantum.optimal_povm(fam, theta, target=args.povm)
        report["povm_target"] = args.povm
        report["povm"] = jsonio.povm_to_json(povm)
    return report, 0


def _cmd_distance(args):
    a = jsonio.load_json(args.a)
    b = jsonio.load_json(args.b)
    alpha = float(args.alpha)
    a_prob = isinstance(a, dict) and "weights" in a
    b_prob = isinstance(b, dict) and "weights" in b
    if a_prob != b_prob:
        raise InvalidInputError(
            "both inputs must be distributions or both must be matrices"
        )
    if a_prob:
        p, _ = jsonio.prob_from_json(a, "first distribution")
        q, _ = jsonio.prob_from_json(b, "second distribution")
        report = {
            "alpha": alpha,
            "D1": classical.dist_alpha(p, q, 1.0),
            "D2": classical.dist_alpha(p, q, 2.0),
            # d_alpha is not defined at alpha = inf
            "Dalpha": None if math.isinf(alpha) else
            classical.dist_alpha(p, q, alpha),
            "SDalpha": classical.dist_schatten_alpha(p, q, alpha),
        }
    else:
        rho = jsonio.matrix_from_json(a, "first state")
        sigma = jsonio.matrix_from_json(b, "second state")
        d1 = quantum.trace_distance(rho, sigma)
        d2 = quantum.bures_distance(rho, sigma)
        report = {
            "alpha": alpha,
            "D1": d1,
            "D2": d2,
            # no closed form away from alpha in {1, 2}
            "Dalpha": {1.0: d1, 2.0: d2}.get(alpha),
            "SDalpha": quantum.schatten_distance(rho, sigma, alpha),
        }
    return report, 0


def _cmd_witness(args):
    from . import bounds

    fam = jsonio.load_family(args.family)
    partition = None
    if args.partition is not None:
        partition = jsonio.load_partition(args.partition)
    report = bounds.witness(
        fam, kind=args.kind, alpha=float(args.alpha),
        theta=float(args.theta), k=int(args.k), partition=partition,
    ).to_json()
    return report, 0


def _require_arg(args, name: str, kind: str):
    value = getattr(args, name)
    if value is None:
        flag = "--" + name.replace("_", "-")
        raise InvalidInputError(f"bound kind {kind!r} requires {flag}")
    return value


def _cmd_bound(args):
    from . import bounds

    kind = args.kind
    seed = _resolve_seed(args)
    if kind == "heisenberg":
        h = jsonio.load_matrix(_require_arg(args, "hamiltonian", kind), "H")
        report = {"kind": kind, **bounds.heisenberg_limit(h)._asdict()}
    elif kind == "bhatia_davis":
        h = jsonio.load_matrix(_require_arg(args, "hamiltonian", kind), "H")
        rho = jsonio.load_matrix(_require_arg(args, "state", kind), "state")
        report = {"kind": kind, "value": bounds.bhatia_davis_bound(h, rho)}
    elif kind == "ksep":
        n = int(_require_arg(args, "n_qubits", kind))
        report = {
            "kind": kind, "n_qubits": n, "k": int(args.k),
            "alpha": float(args.alpha),
            "value": bounds.ksep_bound(n, int(args.k), float(args.alpha)),
        }
    elif kind == "asep":
        rho = jsonio.load_matrix(_require_arg(args, "state", kind), "state")
        part = jsonio.load_partition(_require_arg(args, "partition", kind))
        report = {
            "kind": kind, "alpha": float(args.alpha),
            "value": bounds.asep_bound(rho, part, float(args.alpha)),
        }
    elif kind == "nonhermitian":
        h = jsonio.load_matrix(_require_arg(args, "hamiltonian", kind), "H")
        gamma = jsonio.load_matrix(_require_arg(args, "gamma", kind), "Gamma")
        report = {"kind": kind,
                  **bounds.nonhermitian_speed_bound(h, gamma)._asdict()}
    else:  # local
        maps = jsonio.load_local_maps(_require_arg(args, "locals", kind))
        value = bounds.local_generator_sep_bound(
            maps, seed=seed, restarts=int(args.restarts)
        )
        report = {"kind": kind, "value": value}
    return report, 0


# --model NAME builds estimation.NAME_location(scale)
_MODELS = ("cauchy", "gaussian", "laplace")


def _cmd_estimate(args):
    from . import estimation

    seed = _resolve_seed(args)
    if args.rho is not None or args.sigma is not None:
        if args.rho is None or args.sigma is None:
            raise InvalidInputError(
                "discrimination mode needs both --rho and --sigma"
            )
        rho = jsonio.load_matrix(args.rho, "rho")
        sigma = jsonio.load_matrix(args.sigma, "sigma")
        povm = estimation.discrimination_povm(rho, sigma)
        rate = estimation.discrimination_game(
            rho, sigma, povm, int(args.trials), seed=seed
        )
        report = {
            "mode": "discrimination",
            "trials": int(args.trials),
            "success_rate": rate,
            "optimal": estimation.discrimination_probability(rho, sigma),
        }
        return report, 0
    if args.model is None:
        raise InvalidInputError(
            "estimate needs either --model or a --rho/--sigma pair"
        )
    model = getattr(estimation, f"{args.model}_location")(float(args.scale))
    result = estimation.median_dispersion_vs_bound(
        model, float(args.theta), int(args.m), int(args.trials), seed=seed
    )
    report = {"mode": "median", "model": args.model, "scale": float(args.scale)}
    report.update(result.to_json())
    return report, 0


def _cmd_oracle(args):
    from . import oracle

    seed = _resolve_seed(args)
    objective = args.objective
    alpha = float(args.alpha)
    cfg = oracle.SearchConfig(restarts=int(args.restarts), seed=seed)
    report = {"objective": objective, "alpha": alpha}
    if objective in ("f_alpha", "sf_alpha"):
        if args.family is None:
            raise InvalidInputError(f"objective {objective!r} needs --family")
        fam = jsonio.load_family(args.family)
        theta = float(args.theta)
        value, povm = oracle.brute_force_max(fam, theta, objective, alpha, cfg)
        report["theta"] = theta
        if objective == "f_alpha":
            speed = {1.0: quantum.trace_speed, 2.0: quantum.qfi}.get(alpha)
            closed = None if speed is None else speed(fam, theta)
        else:
            closed = quantum.schatten_speed(fam, theta, alpha)
    else:
        if args.state is None or args.partner is None:
            raise InvalidInputError(
                f"objective {objective!r} needs --state and --partner"
            )
        rho = jsonio.load_matrix(args.state, "state")
        sigma = jsonio.load_matrix(args.partner, "partner")
        value, povm = oracle.brute_force_max(
            rho, 0.0, objective, alpha, cfg, partner=sigma
        )
        if objective == "d_alpha":
            dist = {1.0: quantum.trace_distance,
                    2.0: quantum.bures_distance}.get(alpha)
            closed = None if dist is None else dist(rho, sigma)
        else:
            closed = quantum.schatten_distance(rho, sigma, alpha)
    report["brute_force"] = value
    report["closed_form"] = closed
    report["discrepancy"] = None if closed is None else closed - value
    if closed is not None and value > closed + 1e-6 * max(1.0, abs(closed)):
        raise NumericalConsistencyError(
            f"search value {value:.12g} exceeds the closed form "
            f"{closed:.12g} for {objective} at alpha={alpha:g}"
        )
    if args.povm:
        report["povm"] = jsonio.povm_to_json(povm)
    return report, 0


def _cmd_validate(args):
    role, diags = jsonio.validate_file(args.path, role=getattr(args, "as_role"))
    report = {
        "path": args.path,
        "role": role,
        "valid": not diags,
        "diagnostics": diags,
    }
    return report, 0 if not diags else 2


# -- parser -----------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qspeed",
        description="Statistical distances and speeds of parametrized "
                    "quantum states",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("speed", help="speeds of a parametric family")
    p.add_argument("--family", required=True, help="family JSON file")
    p.add_argument("--theta", type=float, default=0.0)
    p.add_argument("--alpha", type=float, default=2.0)
    p.add_argument("--povm", choices=_POVM_TARGETS, default=None,
                   help="include the optimal POVM for this target")
    _add_common(p)
    p.set_defaults(func=_cmd_speed)

    p = sub.add_parser("distance", help="distances between two states or "
                                        "two distributions")
    p.add_argument("a", help="first state or distribution JSON file")
    p.add_argument("b", help="second state or distribution JSON file")
    p.add_argument("--alpha", type=float, default=2.0)
    _add_common(p)
    p.set_defaults(func=_cmd_distance)

    p = sub.add_parser("witness", help="entanglement test via speed caps")
    p.add_argument("--family", required=True, help="family JSON file")
    p.add_argument("--kind", choices=("ksep", "asep"), default="ksep")
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--theta", type=float, default=0.0)
    p.add_argument("--k", type=int, default=1,
                   help="entangled-block size for kind ksep")
    p.add_argument("--partition", default=None,
                   help="partition JSON file for kind asep")
    _add_common(p)
    p.set_defaults(func=_cmd_witness)

    p = sub.add_parser("bound", help="speed caps and limits")
    p.add_argument("--kind", required=True,
                   choices=("heisenberg", "bhatia_davis", "ksep", "asep",
                            "nonhermitian", "local"))
    p.add_argument("--hamiltonian", default=None, help="matrix JSON file")
    p.add_argument("--gamma", default=None, help="matrix JSON file")
    p.add_argument("--state", default=None, help="matrix JSON file")
    p.add_argument("--partition", default=None, help="partition JSON file")
    p.add_argument("--locals", default=None,
                   help="JSON list of local generator specs")
    p.add_argument("--n-qubits", dest="n_qubits", type=int, default=None)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--restarts", type=int, default=32)
    _add_common(p, seed=True)
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("estimate", help="estimation-error checks")
    p.add_argument("--model", choices=_MODELS, default=None)
    p.add_argument("--scale", type=float, default=1.0,
                   help="model scale (sigma, gamma, or b)")
    p.add_argument("--theta", type=float, default=0.0)
    p.add_argument("--m", type=int, default=101,
                   help="samples per replica (odd)")
    p.add_argument("--trials", type=int, default=2000)
    p.add_argument("--rho", default=None,
                   help="first state for a discrimination game")
    p.add_argument("--sigma", default=None,
                   help="second state for a discrimination game")
    _add_common(p, seed=True)
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("oracle", help="brute-force POVM search cross-check")
    p.add_argument("--objective", required=True,
                   choices=("f_alpha", "sf_alpha", "d_alpha", "sd_alpha"))
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--family", default=None,
                   help="family JSON file (f_alpha, sf_alpha)")
    p.add_argument("--theta", type=float, default=0.0)
    p.add_argument("--state", default=None,
                   help="first state (d_alpha, sd_alpha)")
    p.add_argument("--partner", default=None,
                   help="second state (d_alpha, sd_alpha)")
    p.add_argument("--restarts", type=int, default=32)
    p.add_argument("--povm", action="store_true",
                   help="include the maximizing POVM")
    _add_common(p, seed=True)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("validate", help="check a JSON file's invariants")
    p.add_argument("path", help="file to check")
    p.add_argument("--as", dest="as_role", default="auto",
                   choices=jsonio._ROLES,
                   help="role to validate against (default: detect)")
    _add_common(p)
    p.set_defaults(func=_cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report, code = args.func(args)
    except NumericalConsistencyError as exc:
        print(f"qspeed: numerical consistency failure: {exc}", file=sys.stderr)
        return 3
    except InvalidInputError as exc:
        print(f"qspeed: error: {exc}", file=sys.stderr)
        return 2
    except QSpeedError as exc:
        print(f"qspeed: error: {exc}", file=sys.stderr)
        return 3
    if args.format == "csv":
        print(jsonio.report_to_csv(report))
    else:
        print(jsonio.dump_report(report))
    return code


if __name__ == "__main__":
    sys.exit(main())
