"""Command-line front end: load system files, run checks, emit reports.

Each subcommand is a thin shell over library functions that return
reports, and takes only the flags it reads.  Exit codes: 0 when every
requested check passes, 1 on a verification failure, 2 on usage or file
errors, including a number out of range in a flag and input files whose
shapes or nodes do not fit together.
``--out`` writes the machine-readable document: a report for verification
subcommands, a loadable system file for producing subcommands (random,
parseval, dual, dsum, transform).  The document is built only when
``--out`` is given.  Machine output is canonical JSON and
contains no timing, so identical inputs and seeds give byte-identical
artifacts.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np
import orjson

from .atomic import (
    atomic_equiv_check,
    atomic_wrt_frame_operator,
    transform_combined,
    transform_shift,
)
from .direct_sum import canonical_dual, direct_sum_laws, parseval_report, parsevalize
from .errors import (
    DegenerateKError,
    GFusionError,
    OperatorRangeError,
    ParameterError,
    ShapeError,
    SystemFileError,
)
from .measure import WeightProfile, validate_nodes
from .operators import ORDER_TOL, Operator
from .pair import (
    PairSystem,
    bounded_below_analysis,
    pair_adjoint_and_norm,
    perturbation_bound,
    symmetric_perturbation,
)
from .random_systems import random_system
from .report import EXACT, VerificationReport, _save_canonical
from .resolution import canonical_resolution_report, frame_from_resolution_report
from .systems import GFusionSystem, frame_bounds, kgf_report
from .sysio import SCHEMA_VERSION, load_operator, load_system, system_to_document

PASS, FAIL, USAGE = 0, 1, 2


def _checked(kind, least=None):
    """An argparse type: a finite ``kind`` value, at least ``least`` when given."""
    def parse(text: str):
        try:
            value = kind(text)
            if math.isfinite(value) and (least is None or value >= least):
                return value
        except ValueError:
            pass
        bound = "" if least is None else f" >= {least}"
        raise argparse.ArgumentTypeError(f"expected a finite {kind.__name__}{bound}, got {text!r}")
    return parse


_FLAGS = {
    "--tol": dict(type=_checked(float, 0), default=ORDER_TOL,
                  help=f"relative tolerance (default {ORDER_TOL:g})"),
    "--trials": dict(type=_checked(int, 1), default=100,
                     help="random directions of the perturbation_bound hypothesis check"),
    "--seed": dict(type=_checked(int, 0), default=0, help="random seed"),
}


def _finish(parser: argparse.ArgumentParser, handler, *names: str, system=True) -> None:
    """Finish a subcommand: its SYSTEM file, the shared flags in ``names``, --out, ``handler``."""
    if system:
        parser.add_argument("system")
    for name in names:
        parser.add_argument(name, **_FLAGS[name])
    parser.add_argument("--out", default=None, help="write the machine-readable output here")
    parser.set_defaults(handler=handler)


def _report_document(command: str, parameters: dict, reports: list[VerificationReport]) -> dict:
    ordered = sorted(reports, key=lambda r: r.name)
    return {
        "version": SCHEMA_VERSION,
        "kind": "report",
        "command": command,
        "parameters": parameters,
        "passed": all(r.passed for r in ordered),
        "reports": [r.to_dict() for r in ordered],
    }


def _print_reports(reports: list[VerificationReport]) -> None:
    for rep in sorted(reports, key=lambda r: r.name):
        status = "PASS" if rep.passed else "FAIL"
        print(f"[{status}] {rep.name}")
        for key in sorted(rep.residuals):
            print(f"    {key} = {rep.residuals[key]:.6g} (tol {rep.tolerance_for(key):.6g})")
        for key in sorted(rep.constants):
            print(f"    {key} = {rep.constants[key]:.6g}")
        if rep.provenance != EXACT:
            print(f"    provenance: {rep.provenance}")
        for note in rep.notes:
            print(f"    note: {note}")


# --- subcommand handlers ------------------------------------------------
# Each gets the parsed arguments and the tolerance (None without --tol)
# and returns its reports with the report parameters or the system it produced.

def _cmd_check(args, tol):
    system = load_system(args.system)
    reports = [
        validate_nodes(system.nodes, WeightProfile(system.weights)),
        frame_bounds(system, tol).report(tol),
    ]
    return reports, {"tol": tol, "system": args.system}


def _cmd_kgf(args, tol):
    system, k = load_system(args.system), load_operator(args.K)
    reports = [_naming_flags({"lower": "--A"}, kgf_report, system, k, args.A, tol)]
    params = {"tol": tol, "system": args.system, "K": args.K}
    if args.A is not None:
        params["A"] = args.A
    return reports, params


def _cmd_resolve(args, tol):
    system = load_system(args.system)
    reports = [canonical_resolution_report(system, tol), frame_from_resolution_report(system, tol)]
    return reports, {"tol": tol, "system": args.system}


def _cmd_atomic(args, tol):
    system = load_system(args.system)
    reports = [atomic_wrt_frame_operator(system, tol) if args.K is None
               else atomic_equiv_check(system, load_operator(args.K), tol)]
    return reports, {"tol": tol, "system": args.system, "K": args.K or "frame-operator"}


def _cmd_transform(args, tol):
    unread = [flag for flag, value in (("--G", args.G), ("--K", args.K)) if value is not None]
    if unread and not args.xi:
        raise ParameterError(f"{', '.join(unread)}: read only by the combined transform, "
                             "which needs --xi")
    if args.xi and args.G is None:
        raise ParameterError("--G: required by the combined transform (--xi)")
    system, l_op = load_system(args.system), load_operator(args.L)
    if args.xi:
        xi, g_op = load_system(args.xi), load_operator(args.G)
        k_op = (Operator.identity(system.ambient_dim) if args.K is None
                else load_operator(args.K))
        try:
            produced, report = transform_combined(system, xi, l_op, g_op, k_op, tol)
        except DegenerateKError as err:  # a zero K bounds nothing: a usage error
            raise SystemFileError(f"transform: {err}") from err
    else:
        produced, report = transform_shift(system, l_op, tol)
    return [report], produced


def _naming_flags(flags: dict, check, *args):
    """``check(*args)``; its :class:`ParameterError` names the flag of the parameter it rejects.

    ``flags`` maps each parameter of ``check`` that a flag sets to that flag.
    """
    try:
        return check(*args)
    except ParameterError as err:
        raise ParameterError(f"{flags[err.parameter]}: {err}", err.parameter) from err


def _cmd_pair(args, tol):
    pair = PairSystem(load_system(args.system), load_system(args.xi))
    # A lambda not given takes the library's default, which may skip its check.
    lam2 = 0.0 if args.lambda2 is None else args.lambda2
    reports = [
        pair_adjoint_and_norm(pair, tol),
        bounded_below_analysis(pair, tol),
        _naming_flags({"lambda1": "--lambda1", "lambda2": "--lambda2"},
                      perturbation_bound, pair, args.lambda1, lam2, args.trials, args.seed, tol),
        _naming_flags({"lam": "--lam"}, symmetric_perturbation, pair, args.lam, tol),
    ]
    return reports, {
        "tol": tol, "trials": args.trials, "seed": args.seed,
        "system": args.system, "xi": args.xi,
    }


def _cmd_dsum(args, tol):
    system, report = direct_sum_laws(load_system(args.system), load_system(args.xi))
    return [report], system


def _cmd_parseval(args, tol):
    flat = parsevalize(load_system(args.system))
    return [parseval_report(flat, tol)], flat


def _cmd_dual(args, tol):
    dual, report = canonical_dual(load_system(args.system), tol)
    return [report], dual


def _cmd_random(args, tol):
    system = random_system(np.random.default_rng(args.seed), args.dim, args.nodes)
    reports = [validate_nodes(system.nodes, WeightProfile(system.weights))]
    return reports, system


# --- parser -------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cgfusion",
        description="Verify and transform weighted-subspace measurement systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="frame bounds and classification")
    _finish(p, _cmd_check, "--tol")

    p = sub.add_parser("kgf", help="lower-bound certificate against an operator")
    p.add_argument("--K", required=True, help="operator file")
    p.add_argument("--A", type=_checked(float), default=None, help="lower bound to certify")
    _finish(p, _cmd_kgf, "--tol")

    p = sub.add_parser("resolve", help="resolution-of-identity suite")
    _finish(p, _cmd_resolve, "--tol")

    p = sub.add_parser("atomic", help="atomic decomposition checks")
    p.add_argument("--K", default=None, help="operator file (default: frame operator)")
    _finish(p, _cmd_atomic, "--tol")

    p = sub.add_parser("transform", help="shift or combined system transform")
    p.add_argument("--L", required=True, help="operator file")
    p.add_argument("--G", default=None, help="operator file (combined transform)")
    p.add_argument("--K", default=None, help="operator file (combined transform)")
    p.add_argument("--xi", default=None, help="second system file (combined transform)")
    _finish(p, _cmd_transform, "--tol")

    p = sub.add_parser("pair", help="mixed-operator laws and perturbation bounds")
    p.add_argument("--xi", required=True, help="second system file")
    p.add_argument("--lambda1", type=_checked(float), default=None)
    p.add_argument("--lambda2", type=_checked(float), default=None)
    p.add_argument("--lam", type=_checked(float), default=None)
    _finish(p, _cmd_pair, "--tol", "--trials", "--seed")

    p = sub.add_parser("dsum", help="direct sum of two systems")
    p.add_argument("--xi", required=True, help="second system file")
    _finish(p, _cmd_dsum)

    p = sub.add_parser("parseval", help="canonical Parseval version")
    _finish(p, _cmd_parseval, "--tol")

    p = sub.add_parser("dual", help="canonical dual system")
    _finish(p, _cmd_dual, "--tol")

    p = sub.add_parser("random", help="generate a seeded random system")
    p.add_argument("--dim", type=_checked(int, 1), default=4)
    p.add_argument("--nodes", type=_checked(int, 1), default=3)
    _finish(p, _cmd_random, "--seed", system=False)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        reports, output = args.handler(args, getattr(args, "tol", None))
    except (SystemFileError, ParameterError, ShapeError, OperatorRangeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return USAGE
    except GFusionError as err:
        print(f"verification failed: {err}", file=sys.stderr)
        return FAIL
    _print_reports(reports)
    if args.out:
        # Rebinding ``output`` releases a produced system before the text is built.
        if isinstance(output, GFusionSystem):
            output = system_to_document(output)
        else:
            output = _report_document(args.command, output, reports)
        try:
            _save_canonical(output, args.out)
        except OSError as err:
            print(f"error: {args.out}: cannot write: {err.strerror or err}", file=sys.stderr)
            return USAGE
        except orjson.JSONEncodeError as err:  # a value JSON text cannot hold
            print(f"error: {args.out}: cannot write: {err}", file=sys.stderr)
            return USAGE
        print(f"wrote {args.out}")
    return PASS if all(r.passed for r in reports) else FAIL


if __name__ == "__main__":
    sys.exit(main())
