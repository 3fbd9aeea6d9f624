"""Command-line surface: coefficient tables, decompositions, identity suites.

Exit codes are part of the contract:
  0  success / all checks pass
  1  internal failure
  2  usage error (bad arguments, safety caps)
  3  mathematical no-solution (decompose) or a failing verification

stdout carries data only; diagnostics go to stderr.  The environment
variable QDIV_MAX_ORDER (default 2000) caps every --order as a safety net.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from typing import Optional, Sequence

from ._certify import decompose_row
from .macmahon import Family, gen_direct, gen_explicit, gen_recurrence, oracle_a, oracle_c
from .quasimodular import NoDecompositionError, check_basis_size, decompose
from .series import QSeries, run_scope
from .verify import (
    VerificationReport,
    verify_method_agreement,
    verify_quasimodularity,
    verify_theorem_f,
    verify_theorem_g,
)

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_USAGE = 2
EXIT_NO_SOLUTION = 3

DEFAULT_MAX_ORDER = 2000
ORACLE_ORDER_CAP = 60

SUITES = ("all", "theorem-f", "theorem-g", "agreement", "quasimodular")


class UsageError(Exception):
    pass


def _max_order() -> int:
    raw = os.environ.get("QDIV_MAX_ORDER", "")
    if not raw:
        return DEFAULT_MAX_ORDER
    try:
        cap = int(raw)
    except ValueError:
        raise UsageError(f"QDIV_MAX_ORDER must be an integer, got {raw!r}")
    if cap < 0:
        raise UsageError(f"QDIV_MAX_ORDER must be nonnegative, got {raw!r}")
    return cap


def _check_order(order: int) -> None:
    if order < 0:
        raise UsageError("--order must be nonnegative")
    cap = _max_order()
    if order > cap:
        raise UsageError(
            f"--order {order} exceeds the safety cap {cap} (set QDIV_MAX_ORDER to raise it)"
        )


def _check_basis_size(weight_bound: int, order: int) -> None:
    """`check_basis_size` with its refusal as a usage error, before any series is built."""
    try:
        check_basis_size(weight_bound, order)
    except ValueError as e:
        raise UsageError(str(e)) from None


def _emit(text: str, output_path: Optional[str]) -> None:
    """Write text to --output, or to stdout without one; a path that cannot
    be written is a usage error."""
    if output_path:
        try:
            with open(output_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as e:
            raise UsageError(f"cannot write --output {output_path}: {e.strerror or e}") from None
    else:
        sys.stdout.write(text)


# -- coeffs ---------------------------------------------------------------------


def cmd_coeffs(args: argparse.Namespace) -> int:
    family = Family(args.family)
    _check_order(args.order)
    if args.k < 0:
        raise UsageError("--k must be nonnegative")
    if args.method == "oracle":
        if args.k < 1:
            raise UsageError("--method oracle requires --k >= 1")
        if args.order > ORACLE_ORDER_CAP and not args.allow_slow:
            raise UsageError(
                f"--method oracle is exponential; --order > {ORACLE_ORDER_CAP} "
                "requires --allow-slow"
            )
        oracle = oracle_a if family is Family.A else oracle_c
        coeffs = [0] + [oracle(n, args.k) for n in range(1, args.order + 1)]
        series = QSeries(coeffs, args.order)
    elif args.method == "direct":
        series = gen_direct(family, args.k, args.order)
    else:
        if args.k < 1:
            raise UsageError(f"--method {args.method} requires --k >= 1")
        fn = gen_explicit if args.method == "explicit" else gen_recurrence
        series = fn(family, args.k, args.order)

    if args.format == "json":
        obj = {
            "family": family.value,
            "k": args.k,
            "method": args.method,
            **series.to_json_obj(),
        }
        text = json.dumps(obj, indent=2) + "\n"
    elif args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        for n in range(1, args.order + 1):
            writer.writerow([n, str(series.coefficient(n))])
        text = buf.getvalue()
    else:
        lines = [
            f"{n}\t{series.coefficient(n)}" for n in range(1, args.order + 1)
        ]
        text = "\n".join(lines) + ("\n" if lines else "")
    _emit(text, args.output)
    return EXIT_OK


# -- decompose ------------------------------------------------------------------


def cmd_decompose(args: argparse.Namespace) -> int:
    if args.k < 1:
        raise UsageError("--k must be >= 1")
    _check_order(args.order)
    weight_bound = 2 * args.k if args.weight_bound is None else args.weight_bound
    _check_basis_size(weight_bound, args.order)
    try:
        dec = decompose_row(args.k, weight_bound, args.order)
        if dec is None:  # the exact solve, by this module's name: traced as cli.decompose
            dec = decompose(gen_direct(Family.A, args.k, args.order), weight_bound, args.order,
                            f"A_{args.k}")
    except NoDecompositionError as e:
        if args.format == "json":
            obj = {
                "status": "no-solution",
                "target": f"A_{args.k}",
                "weight_bound": e.weight_bound,
                "stage": e.stage,
                "witness_exponent": e.exponent,
                "target_coefficient": str(e.lhs),
                "candidate_coefficient": None if e.rhs is None else str(e.rhs),
            }
            _emit(json.dumps(obj, indent=2) + "\n", args.output)
        else:
            _emit(f"{e}\n", args.output)
        return EXIT_NO_SOLUTION

    if args.format == "json":
        _emit(json.dumps(dec.to_json_obj(), indent=2) + "\n", args.output)
    else:
        lines = [
            f"target A_{args.k}  weight_bound {dec.weight_bound}  "
            f"verified_order {dec.verified_order}"
        ]
        for mono, coeff in dec.terms.items():
            lines.append(f"{mono}: {coeff}")
        if dec.ambiguous:
            lines.append("note: solution space had positive dimension; "
                         "free monomials pinned to zero")
        _emit("\n".join(lines) + "\n", args.output)
    return EXIT_OK


# -- verify ---------------------------------------------------------------------


def _run_suites(suite: str, k_max: int, order: int) -> list[VerificationReport]:
    reports: list[VerificationReport] = []
    if suite in ("all", "agreement"):
        for family in (Family.A, Family.C):
            for k in range(k_max, 0, -1):  # largest first: one row table build
                reports.append(verify_method_agreement(family, k, order))
    if suite in ("all", "quasimodular"):
        reports.append(verify_quasimodularity(k_max, order))
    if suite in ("all", "theorem-f"):
        reports.append(verify_theorem_f(k_max, order))
    if suite in ("all", "theorem-g"):
        reports.append(verify_theorem_g(k_max, order))
    reports.sort(
        key=lambda r: (r.identity_name, json.dumps(r.parameters, sort_keys=True))
    )
    return reports


def cmd_verify(args: argparse.Namespace) -> int:
    _check_order(args.order)
    if args.k_max < 0:
        raise UsageError("--k-max must be nonnegative")
    if args.suite in ("all", "agreement", "quasimodular") and args.k_max < 1:
        raise UsageError(f"--suite {args.suite} requires --k-max >= 1")
    if args.suite in ("all", "quasimodular"):
        _check_basis_size(2 * args.k_max, args.order)
    reports = _run_suites(args.suite, args.k_max, args.order)
    if args.format == "json":
        text = json.dumps([r.to_json_obj() for r in reports], indent=2) + "\n"
    else:
        text = "\n".join(r.summary_line() for r in reports) + "\n"
    sys.stdout.write(text)
    return EXIT_OK if all(r.passed for r in reports) else EXIT_NO_SOLUTION


# -- parser ---------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qdiv",
        description=(
            "Exact computation and verification of the generalized "
            "sum-of-divisors generating functions, their theta identities, "
            "and quasi-modular decompositions."
        ),
        epilog=(
            "exit codes: 0 success/all-pass, 1 internal error, 2 usage error, "
            "3 mathematical no-solution or failed verification"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("coeffs", help="coefficient table of A_k or C_k")
    p.add_argument("--family", required=True, choices=["A", "C"])
    p.add_argument("--k", required=True, type=int)
    p.add_argument("--order", required=True, type=int)
    p.add_argument(
        "--method",
        default="direct",
        choices=["direct", "explicit", "recurrence", "oracle"],
    )
    p.add_argument("--format", default="text", choices=["text", "csv", "json"])
    p.add_argument("--output", default=None, metavar="PATH")
    p.add_argument(
        "--allow-slow",
        action="store_true",
        help=f"permit --method oracle beyond order {ORACLE_ORDER_CAP}",
    )
    p.set_defaults(handler=cmd_coeffs)

    p = sub.add_parser(
        "decompose", help="decompose A_k over the E2/E4/E6 monomial basis"
    )
    p.add_argument("--k", required=True, type=int)
    p.add_argument("--order", required=True, type=int)
    p.add_argument(
        "--weight-bound",
        type=int,
        default=None,
        help="even weight bound for the monomial basis (default 2k)",
    )
    p.add_argument("--format", default="text", choices=["text", "json"])
    p.add_argument("--output", default=None, metavar="PATH")
    p.set_defaults(handler=cmd_decompose)

    p = sub.add_parser("verify", help="run identity verification suites")
    p.add_argument("--suite", default="all", choices=list(SUITES))
    p.add_argument("--k-max", dest="k_max", type=int, default=4)
    p.add_argument("--order", type=int, default=100)
    p.add_argument("--format", default="text", choices=["text", "json"])
    p.set_defaults(handler=cmd_verify)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:  # argparse exits 2 on usage errors, 0 on --help
        return int(e.code or 0)
    try:
        with run_scope():  # one memo per command: nothing outlives it
            return args.handler(args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except Exception:
        import traceback  # loaded only when a command fails

        traceback.print_exc()
        return EXIT_INTERNAL


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
