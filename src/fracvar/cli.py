"""Command-line interface: constants tables, operator evaluation, oracles, suites.

Exit codes: 0 success (for ``verify``: all cases pass), 1 any ``verify``
case failed, 2 usage error (also an unknown ``--quad`` or config ``"quad"``
field), 3 quadrature budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import closed_forms as cf
from . import operators as ops
from .constants import ball_volume, hardy_constants, mu, nu
from .fields import HalfSpace, VectorField, field_from_json
from .quadrature import QuadratureBudgetError, QuadSpec
from .suites import SUITE_NAMES, reports_to_csv, run_all, run_suite

__all__ = ["main"]


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _load_field_arg(text: str):
    if text.startswith("@"):
        with open(text[1:], "r", encoding="utf-8") as fh:
            return field_from_json(json.load(fh))
    return field_from_json(text)


def _parse_points(text: str, dim: int) -> np.ndarray:
    # ';' separates points, ',' separates coordinates; for 1-d fields a plain
    # comma-separated list is also accepted as a list of points
    if dim == 1 and ";" not in text:
        return np.asarray([[float(v)] for v in text.split(",") if v.strip()], dtype=float)
    pts = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        coords = [float(v) for v in chunk.split(",")]
        if len(coords) != dim:
            raise ValueError(f"point {chunk!r} has {len(coords)} coords, field dim is {dim}")
        pts.append(coords)
    return np.asarray(pts, dtype=float)


def _cmd_constants(args: argparse.Namespace) -> int:
    n, a = args.n, args.alpha
    c_half, gamma_spector, c_max = hardy_constants(n, a)
    row = [
        str(n), _fmt(a), _fmt(mu(n, a)), _fmt(nu(n, 1.0 - a)),
        _fmt(c_half), _fmt(gamma_spector), _fmt(c_max), _fmt(ball_volume(n)),
    ]
    print("n,alpha,mu,nu_1_minus_alpha,c_half,gamma_spector,c_max,omega_n")
    print(",".join(row))
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    field = _load_field_arg(args.field)
    pts = _parse_points(args.points, field.dim)
    spec = QuadSpec.from_overrides(json.loads(args.quad)) if args.quad else None
    rows = []
    for p in pts:
        if args.op == "grad":
            res = ops.frac_gradient(field, args.alpha, p, spec, detail=True)
            value, err, evals = res.require("fractional gradient"), res.err_estimate, res.evals_used
        elif args.op == "div":
            if field.dim != 1:
                raise ValueError("div via the CLI takes a 1-d field (single component)")
            phi = VectorField(components=(field,))
            res = ops.frac_divergence(phi, args.alpha, p, spec, detail=True)
            value, err, evals = ((res.require("fractional divergence"),), res.err_estimate,
                                 res.evals_used)
        elif args.op == "riesz":
            res = ops.riesz_potential(field, args.alpha, p, spec, detail=True)
            value, err, evals = (res.require("Riesz potential"),), res.err_estimate, res.evals_used
        elif args.op == "laplacian":
            res = ops.frac_laplacian(field, args.alpha, p, spec, detail=True)
            value, err, evals = ((res.require("fractional Laplacian"),), res.err_estimate,
                                 res.evals_used)
        elif args.op == "nlgrad":
            if args.field2 is None:
                raise ValueError("nlgrad needs a second field (--field2)")
            other = _load_field_arg(args.field2)
            res = ops.nl_gradient(field, other, args.alpha, p, spec, detail=True)
            value, err, evals = (tuple(res.require("non-local gradient").tolist()),
                                 res.err_estimate, res.evals_used)
        else:
            raise ValueError(f"unknown op {args.op}")
        rows.append(
            ",".join([_fmt(v) for v in p] + [_fmt(v) for v in np.atleast_1d(value)]
                     + [_fmt(err), str(evals)])
        )
    print("\n".join(rows))
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    name = args.name
    if name == "halfspace":
        H = HalfSpace.make([float(v) for v in args.nu.split(",")],
                           [float(v) for v in args.x0.split(",")] if args.x0 else None)
        g = cf.half_space_gradient(args.alpha, H, _parse_points(args.point, H.dim)[0])
        print(",".join(_fmt(v) for v in g))
    elif name == "hyperplane":
        H = HalfSpace.make([float(v) for v in args.nu.split(",")],
                           [float(v) for v in args.x0.split(",")] if args.x0 else None)
        print(_fmt(cf.riesz_hyperplane(args.alpha, H, _parse_points(args.point, H.dim)[0])))
    elif name == "gamma-radial":
        print(_fmt(cf.gamma_radial_integral(args.n, args.alpha)))
    elif name == "interval":
        hardy_integral, variation, constant = cf.interval_identities(args.alpha)
        print("hardy_integral,variation,hardy_constant")
        print(",".join(_fmt(v) for v in (hardy_integral, variation, constant)))
    elif name == "weight":
        print(_fmt(cf.weight_w(args.n, args.alpha, args.t, args.r)))
    elif name == "f-alpha":
        print(_fmt(cf.f_alpha_closed(args.alpha, args.x)))
    else:
        raise ValueError(f"unknown oracle {name}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    config = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            config = json.load(fh)
    if args.alpha:
        config["alphas"] = tuple(args.alpha)
    if args.suite == "all":
        reports, code = run_all(config)
    else:
        spec = QuadSpec.from_overrides(config["quad"]) if "quad" in config else None
        report = run_suite(args.suite, config.get("alphas"), spec)
        reports, code = [report], (0 if report.passed else 1)
    csv_text = reports_to_csv(reports)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(csv_text)
    else:
        sys.stdout.write(csv_text)
    for rep in reports:
        n_pass = sum(1 for c in rep.cases if c.passed)
        status = "pass" if rep.passed else "FAIL"
        print(
            f"[{status}] {rep.suite}: {n_pass}/{len(rep.cases)} cases"
            f" ({rep.wall_time:.2f}s)",
            file=sys.stderr,
        )
    return code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracvar",
        description="Fractional gradient family: constants, operators, closed forms, "
        "and verification suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_const = sub.add_parser("constants", help="print the constant table row for (n, alpha)")
    p_const.add_argument("--n", type=int, required=True)
    p_const.add_argument("--alpha", type=float, required=True)
    p_const.set_defaults(func=_cmd_constants)

    p_eval = sub.add_parser("eval", help="evaluate an operator at points")
    p_eval.add_argument("--op", choices=("grad", "div", "riesz", "laplacian", "nlgrad"),
                        required=True)
    p_eval.add_argument("--alpha", type=float, required=True,
                        help="operator order (the potential order s for riesz)")
    p_eval.add_argument("--field", required=True, help="inline JSON or @file.json")
    p_eval.add_argument("--field2", help="second field for nlgrad")
    p_eval.add_argument("--points", required=True,
                        help="semicolon-separated points, comma-separated coords")
    p_eval.add_argument("--quad", help="QuadSpec overrides as JSON")
    p_eval.set_defaults(func=_cmd_eval)

    p_oracle = sub.add_parser("oracle", help="closed-form oracle values")
    p_oracle.add_argument("--name", required=True,
                          choices=("halfspace", "hyperplane", "gamma-radial", "interval",
                                   "weight", "f-alpha"))
    p_oracle.add_argument("--alpha", type=float, required=True)
    p_oracle.add_argument("--n", type=int, default=1)
    p_oracle.add_argument("--nu", default="1")
    p_oracle.add_argument("--x0", default=None)
    p_oracle.add_argument("--point", default="1")
    p_oracle.add_argument("--t", type=float, default=0.0)
    p_oracle.add_argument("--r", type=float, default=1.0)
    p_oracle.add_argument("--x", type=float, default=2.0)
    p_oracle.set_defaults(func=_cmd_oracle)

    p_verify = sub.add_parser("verify", help="run verification suites, emit CSV")
    p_verify.add_argument("--suite", default="all", choices=SUITE_NAMES + ("all",))
    p_verify.add_argument("--alpha", type=float, action="append",
                          help="override the order grid (repeatable)")
    p_verify.add_argument("--config", help="JSON config file")
    p_verify.add_argument("--out", help="CSV output path (default stdout)")
    p_verify.set_defaults(func=_cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except QuadratureBudgetError as exc:
        print(f"quadrature budget exceeded: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
