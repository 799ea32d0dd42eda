"""Command-line front end.

Subcommands:
    classify     coefficient class and generators of an equation file
    determine    the split determining system with catalog tags
    integrate    method-of-steps run, CSV trajectory out
    verify       classify + integrate + both invariance checks
    paper-suite  built-in scenario matrix, one instance per class

Equation files are JSON: keys a, b, c, d, k, h (each a descriptor with
kind zero / const / closed / numeric-table), plus r, t0.  Reports are
emitted as sorted-key JSON so identical inputs give identical bytes.
"""

from __future__ import annotations

import argparse
import ast
import json
import math
import operator
import os
import sys

import numpy as np

from .classify import classify
from .detsys import canonical_constraints, determine, reduce_ansatz
from .equation import NdeSpec
from .flowverify import TOL_FIN, TOL_INF, check_generator, interior_samples
from .ndesolve import integrate, residual
from .suite import run_suite
from .symexpr import ExprError, render


_NUM_NAMES = {"pi": math.pi, "e": math.e}
_NUM_BINOPS = {ast.Add: operator.add, ast.Sub: operator.sub,
               ast.Mult: operator.mul, ast.Div: operator.truediv,
               ast.Pow: operator.pow}


def _num_eval(node):
    """Float arithmetic over numbers, pi and e; any other syntax is
    refused.  Literals become floats, so a power overflows at once instead
    of building a huge integer."""
    if isinstance(node, ast.Expression):
        return _num_eval(node.body)
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        return float(node.value)
    if isinstance(node, ast.Name) and node.id in _NUM_NAMES:
        return _NUM_NAMES[node.id]
    if isinstance(node, ast.BinOp) and type(node.op) in _NUM_BINOPS:
        return _NUM_BINOPS[type(node.op)](_num_eval(node.left),
                                          _num_eval(node.right))
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return -_num_eval(node.operand)
    raise ValueError(f"{type(node).__name__} is not allowed")


def _num(text):
    """Numeric CLI argument; accepts pi-bearing arithmetic like 3*pi/2."""
    try:
        return float(_num_eval(ast.parse(text, mode="eval")))
    except Exception as err:
        raise argparse.ArgumentTypeError(f"bad numeric value {text!r}: "
                                         f"{err}") from None


def _emit(payload, args, name):
    text = json.dumps(payload, indent=2, sort_keys=True, default=str)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, name)
        with open(path, "w") as fh:
            fh.write(text + "\n")
        print(f"wrote {path}")
    else:
        print(text)


def _load_spec(args):
    try:
        return NdeSpec.load(args.spec)
    except FileNotFoundError:
        print(f"error: spec file {args.spec!r} not found", file=sys.stderr)
        sys.exit(1)
    except (ExprError, ValueError) as err:  # bad JSON is a ValueError
        print(f"error: malformed spec file: {err}", file=sys.stderr)
        sys.exit(1)


def cmd_classify(args):
    result = classify(_load_spec(args))
    payload = result.to_json()
    _emit(payload, args, "classification.json")
    if not args.json:
        print(f"case: {payload['case']}"
              + (" (degenerate)" if result.degenerate else ""))
        for g in result.generators:
            mark = "" if g.status == "admitted" else "  [candidate]"
            print(f"  {g.label}{mark}")
        for w in result.warnings:
            print(f"  warning: {w}")
    if result.out_of_taxonomy:
        return 2
    if result.warnings:
        return 3
    return 0


def cmd_determine(args):
    spec = _load_spec(args)
    reduced = reduce_ansatz(determine(spec))
    canonical = canonical_constraints(reduced)
    payload = {
        "reduced": reduced.to_report(),
        "canonical": canonical.to_report(),
    }
    if not spec.k.is_const:
        payload["notes"] = [
            "k varies: the delayed-acceleration row forces the time part "
            "of the infinitesimal pair to vanish"]
    _emit(payload, args, "determining.json")
    if not args.json:
        for eq in reduced.nontrivial():
            tag = eq.catalog_id or "-"
            print(f"  [{tag:10s}] {render(eq.monomial)}: "
                  f"{render(eq.residual)} = 0")
    return 0


def cmd_integrate(args):
    spec = _load_spec(args)
    traj = integrate(spec, args.theta, args.T, args.steps)
    # short of t_end, which has no interval to its right
    samples = np.linspace(spec.t0 + 0.1 * spec.r, traj.t_end, 97)[:-1]
    res = residual(traj, spec, samples)
    out_dir = args.out or "."
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "trajectory.csv")
    traj.to_csv(path)
    print(f"wrote {path}")
    print(f"max residual on [{samples[0]:.3g}, {traj.t_end:.3g}): "
          f"{res:.3e}")
    return 0


def cmd_verify(args):
    spec = _load_spec(args)
    result = classify(spec)
    t_end = args.T if args.T is not None else spec.t0 + 3 * spec.r
    traj = integrate(spec, args.theta, t_end, args.steps)
    rho = integrate(spec, args.rho_seed, t_end, args.steps)
    samples = interior_samples(traj, spec)
    reports = []
    for idx, gen in enumerate(result.admitted):
        curves = []
        reports.append({"generator": gen.label, "deltas": list(args.delta),
                        **check_generator(traj, gen, spec, samples,
                                          args.delta, rho, args.tol_inf,
                                          args.tol_fin, curves)})
        if args.curves and args.out:
            try:
                curve = curves[0]  # the image for the first delta
                if isinstance(curve, ExprError):
                    raise curve
                os.makedirs(args.out, exist_ok=True)
                path = os.path.join(args.out, f"curve_{idx}.csv")
                curve.to_csv(path)
                reports[-1]["curve_csv"] = path
            except ExprError as err:
                reports[-1]["curve_csv"] = f"failed: {err}"
    payload = {"case": result.case_id or "out-of-taxonomy",
               "reports": reports,
               "candidates": [g.label for g in result.generators
                              if g.status != "admitted"],
               "pass": all(rep["pass"] for rep in reports)}
    _emit(payload, args, "verification.json")
    if not args.json:
        for rep in reports:
            fin = rep["finite_residual"]
            print(f"  {rep['generator']:46s} inf="
                  f"{rep['infinitesimal_residual']:.2e} fin="
                  + ("failed" if fin is None else f"{fin:.2e}")
                  + f" {'pass' if rep['pass'] else 'FAIL'}")
    return 0 if payload["pass"] else 3


def cmd_paper_suite(args):
    results = run_suite(only=args.only, steps=args.steps, delta=args.delta0)
    payload = {"scenarios": [r.to_json() for r in results],
               "pass": all(r.ok for r in results)}
    _emit(payload, args, "paper_suite.json")
    if not args.json:
        for r in results:
            print(f"  {r.name:5s} case={r.case:16s} "
                  f"{'pass' if r.ok else 'FAIL'}")
        print("all scenarios pass" if payload["pass"]
              else "some scenarios FAILED")
    return 0 if payload["pass"] else 3


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ndelie",
        description="Lie point symmetries of second-order linear neutral "
                    "delay differential equations")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, spec=True):
        if spec:
            p.add_argument("--spec", required=True,
                           help="equation JSON file")
        p.add_argument("--json", action="store_true",
                       help="machine-readable output only")
        p.add_argument("--out", help="directory for report files")

    p = sub.add_parser("classify", help="coefficient class and generators")
    common(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("determine", help="split determining system")
    common(p)
    p.set_defaults(func=cmd_determine)

    p = sub.add_parser("integrate", help="method-of-steps integration")
    common(p)
    p.add_argument("--theta", required=True, help="initial function in t")
    p.add_argument("--T", type=_num, required=True,
                   help="end time (t0 + whole delays); accepts 3*pi")
    p.add_argument("--steps", type=int, default=64,
                   help="steps per delay interval (>= 16)")
    p.set_defaults(func=cmd_integrate)

    p = sub.add_parser("verify", help="invariance checks for the admitted "
                                      "generators")
    common(p)
    p.add_argument("--theta", required=True, help="initial function in t")
    p.add_argument("--rho-seed", default="sin(t)",
                   help="seed for the solution-slot generator")
    p.add_argument("--T", type=_num, default=None,
                   help="end time; defaults to t0 + 3 r")
    p.add_argument("--steps", type=int, default=64)
    p.add_argument("--delta", type=_num, nargs="+", default=[0.25],
                   help="group parameters for the finite check")
    p.add_argument("--tol-inf", type=float, default=TOL_INF)
    p.add_argument("--tol-fin", type=float, default=TOL_FIN)
    p.add_argument("--curves", action="store_true",
                   help="with --out, export transformed curves as CSV")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("paper-suite",
                       help="built-in scenario matrix, one instance per "
                            "coefficient class")
    common(p, spec=False)
    p.add_argument("--only", help="run a single scenario by name")
    p.add_argument("--steps", type=int, default=64)
    p.add_argument("--delta0", type=_num, default=0.25,
                   help="group parameter for the finite checks")
    p.set_defaults(func=cmd_paper_suite)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ExprError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
