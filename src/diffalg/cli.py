"""Command-line surface.

Commands:

    check          run the passivity decision and print the report
    reduce         divide a target polynomial by the system, with trace
    syzygies       print the pair generators of the leading derivatives
    quotient       print the principal/parametric census of a passive system
    ranking-audit  check the ranking's shift-compatibility axioms

Exit codes: 0 passive / success, 1 input or structural error, 2 obstructed,
3 inconsistent, 4 step budget exceeded.  Output is deterministic: the same
input bytes produce the same output bytes.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from .algebra import poly_from_json, poly_to_json, to_text
from .errors import ReductionLimitError, StructuralError
from .normal import reduce
from .passivity import (
    EXIT_FOR_VERDICT,
    PASSIVE,
    coincident_lead_analysis,
    decide_passivity,
    is_passive,
    quotient_census,
)
from .problem import Problem, load_problem
from .ranking import audit_compatibility
from .syzygy import tau_generators

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_OBSTRUCTED = 2
EXIT_INCONSISTENT = 3
EXIT_RESOURCE = 4


def _emit(payload: dict, pretty_lines: Optional[list[str]], pretty: bool) -> None:
    if pretty and pretty_lines is not None:
        for line in pretty_lines:
            print(line)
    else:
        print(json.dumps(payload, indent=2, sort_keys=True))


def _build_system(problem: Problem):
    """Deduplicate coincident leads.  Returns (system, report) where a None
    system means the duplicates do not merge."""
    report = coincident_lead_analysis(problem.forms, problem.ranking, problem.bounds.max_steps)
    return report.system, report


def _emit_coincidence(coincidence, pretty: bool) -> int:
    """Report coincident leads that do not merge; the verdict sets the exit code."""
    payload = {"verdict": coincidence.verdict, "coincident_leads": coincidence.to_json()}
    _emit(payload, [f"verdict: {coincidence.verdict} (coincident leads)"], pretty)
    return EXIT_FOR_VERDICT[coincidence.verdict]


def cmd_check(args) -> int:
    problem = load_problem(args.file, args.ranking)
    order_bound = args.order if args.order is not None else problem.bounds.order_bound
    max_steps = args.max_steps if args.max_steps is not None else problem.bounds.max_steps
    system, coincidence = _build_system(problem)
    if system is None:
        return _emit_coincidence(coincidence, args.pretty)
    report = is_passive(system, order_bound, max_steps)
    payload = report.to_json()
    if coincidence.relations:
        payload["coincident_leads"] = coincidence.to_json()
    lines = [f"verdict: {report.verdict}"]
    for pair in report.pairs:
        lines.append(
            f"pair ({pair.pair[0]}, {pair.pair[1]}): {pair.status};"
            f" remainder = {to_text(pair.remainder)}"
        )
    if report.census is not None:
        lines.append(
            f"parametric derivatives up to order {report.census.order_bound}:"
            f" {len(report.census.parametric)}"
        )
    _emit(payload, lines, args.pretty)
    return report.exit_code


def cmd_reduce(args) -> int:
    problem = load_problem(args.file, args.ranking)
    max_steps = args.max_steps if args.max_steps is not None else problem.bounds.max_steps
    try:
        target_data = json.loads(args.target)
    except json.JSONDecodeError as exc:
        raise StructuralError(f"bad --target polynomial: {exc}") from None
    target = poly_from_json(problem.ctx, target_data)
    system, coincidence = _build_system(problem)
    if system is None:
        raise StructuralError(
            f"system has coincident leads that do not merge (verdict {coincidence.verdict})"
        )
    result = reduce(target, system, max_steps)
    payload = {
        "remainder": poly_to_json(result.remainder),
        "trace": [step.to_json() for step in result.trace],
    }
    lines = [f"remainder: {to_text(result.remainder)}", f"steps: {len(result.trace)}"]
    _emit(payload, lines, args.pretty)
    return EXIT_OK


def cmd_syzygies(args) -> int:
    problem = load_problem(args.file, args.ranking)
    system, coincidence = _build_system(problem)
    if system is None:
        raise StructuralError(
            f"system has coincident leads that do not merge (verdict {coincidence.verdict})"
        )
    taus = tau_generators(system.leads())
    payload = {"taus": [t.to_json() for t in taus]}
    lines = [
        f"tau[{t.i},{t.j}]: shifts {tuple(t.shift_i)} / {tuple(t.shift_j)}" for t in taus
    ] or ["no pairs"]
    _emit(payload, lines, args.pretty)
    return EXIT_OK


def cmd_quotient(args) -> int:
    problem = load_problem(args.file, args.ranking)
    order_bound = args.order if args.order is not None else problem.bounds.order_bound
    max_steps = args.max_steps if args.max_steps is not None else problem.bounds.max_steps
    system, coincidence = _build_system(problem)
    if system is None:
        return _emit_coincidence(coincidence, args.pretty)
    report = decide_passivity(system, max_steps)
    if report.verdict != PASSIVE:
        payload = {"error": "census requires a passive system", "verdict": report.verdict}
        _emit(payload, [f"not passive: verdict {report.verdict}"], args.pretty)
        return report.exit_code
    census = quotient_census(system, order_bound)
    payload = census.to_json()
    lines = [
        f"order bound {census.order_bound}:"
        f" {len(census.principal)} principal, {len(census.parametric)} parametric"
    ]
    _emit(payload, lines, args.pretty)
    return EXIT_OK


def cmd_ranking_audit(args) -> int:
    problem = load_problem(args.file, args.ranking, gate_ranking=False)
    report = audit_compatibility(
        problem.ranking,
        args.samples,
        exhaustive_order=args.exhaustive_order,
        seed=args.seed,
    )
    payload = report.to_json()
    lines = [f"{len(report.counterexamples)} counterexamples"]
    _emit(payload, lines, args.pretty)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Usage errors are input errors (exit 1): argparse's own exit code 2
    would read as the verdict obstructed."""

    def error(self, message):
        raise StructuralError(message)


def count(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a nonnegative integer, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="diffalg",
        description="Exact passivity checks for solved-form differential systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("file", help="problem file (JSON)")
        p.add_argument("--ranking", help="override the file's ranking", default=None)
        p.add_argument("--max-steps", type=count, default=None, dest="max_steps")
        p.add_argument("--pretty", action="store_true", help="human-oriented output")

    p_check = sub.add_parser("check", help="passivity decision")
    common(p_check)
    p_check.add_argument("--order", type=count, default=None, help="census order bound")
    p_check.set_defaults(func=cmd_check)

    p_reduce = sub.add_parser("reduce", help="divide a polynomial by the system")
    common(p_reduce)
    p_reduce.add_argument("--target", required=True, help="polynomial JSON")
    p_reduce.set_defaults(func=cmd_reduce)

    p_syz = sub.add_parser("syzygies", help="pair generators of the leads")
    common(p_syz)
    p_syz.set_defaults(func=cmd_syzygies)

    p_quot = sub.add_parser("quotient", help="principal/parametric census")
    common(p_quot)
    p_quot.add_argument("--order", type=count, default=None, help="census order bound")
    p_quot.set_defaults(func=cmd_quotient)

    p_audit = sub.add_parser("ranking-audit", help="check the ranking axioms")
    common(p_audit)
    p_audit.add_argument("--samples", type=count, default=10000)
    p_audit.add_argument("--exhaustive-order", type=count, default=3, dest="exhaustive_order")
    p_audit.add_argument("--seed", type=int, default=0)
    p_audit.set_defaults(func=cmd_ranking_audit)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except json.JSONDecodeError as exc:
        print(f"parse error at line {exc.lineno} column {exc.colno}: {exc.msg}", file=sys.stderr)
        return EXIT_INPUT
    except FileNotFoundError as exc:
        print(f"cannot open {exc.filename}", file=sys.stderr)
        return EXIT_INPUT
    except StructuralError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ReductionLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE


def entry() -> None:
    sys.exit(main())
