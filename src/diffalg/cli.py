"""Command-line surface.

Commands:

    check          run the passivity decision and print the report
    reduce         divide a target polynomial by the system, with trace
    syzygies       print the pair generators of the leading derivatives
    quotient       print the principal/parametric census of a passive system
    ranking-audit  check the ranking's shift-compatibility axioms

Exit codes: 0 passive / success, 1 input or structural error, 2 obstructed,
3 inconsistent, 4 step or enumeration budget exceeded.  Output is
deterministic: the same input bytes produce the same output bytes.

A process runs one command, so the parser is a table and render() replaces
json.dumps: argparse's first build and the indenting encoder cost more than
most commands' algebra.  A report's to_json() tree holds its polynomials and
variables as DiffPoly, Deriv and Indep objects; render() writes them in
place, each monomial fragment built once per indent.
"""

from __future__ import annotations

import functools
import json
import re
import sys
from json.encoder import encode_basestring_ascii
from math import comb
from typing import Callable, NoReturn, Optional

from .algebra import Deriv, DiffPoly, Indep, poly_from_json, to_text
from .errors import EnumerationLimitError, ReductionLimitError, StructuralError
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
from .ranking import SAMPLE_ORDER, audit_compatibility
from .syzygy import tau_generators

EXIT_INPUT = 1
EXIT_RESOURCE = 4


def render(obj) -> str:
    """json.dumps(plain, indent=2, sort_keys=True), byte for byte, where plain
    is obj with each DiffPoly leaf as poly_to_json gives it and each Deriv or
    Indep leaf as var_to_json does.  Besides those, obj may hold dicts with
    str keys, lists, plain tuples, str, int, bool and None; any other value
    raises TypeError.  The fragment cache lives for this call only."""
    return _render(obj, "\n", {})


def _render(obj, newline: str, cache: dict) -> str:
    """obj at the indent that newline ends in; cache maps (monomial, indent)
    to its text."""
    kind = type(obj)
    if kind is Deriv:  # tuples, so matched on exact type before the tuple branch
        return _deriv_template(len(obj.order), newline) % (obj.i, *obj.order)
    if kind is Indep:
        return "[" + newline + '  "x",' + newline + "  " + str(obj.j) + newline + "]"
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None or obj is True or obj is False:
        return "null" if obj is None else "true" if obj else "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    inner = newline + "  "
    if kind is DiffPoly:
        field, items, ends = inner + "  ", [], "[]"
        for m, c in obj.sorted_terms():
            text = cache.get((m, field))
            if text is None:
                text = cache[m, field] = _render([[v, e] for v, e in m], field, cache)
            items.append(f'{{{field}"c": "{c}",{field}"m": {text}{inner}}}')
    elif isinstance(obj, dict):
        # encode_basestring_ascii raises TypeError on a key that is not a str
        items = [encode_basestring_ascii(k) + ": " + _render(v, inner, cache) for k, v in sorted(obj.items())]
        ends = "{}"
    elif kind is list or kind is tuple:
        items, ends = [_render(item, inner, cache) for item in obj], "[]"
    else:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
    return ends[0] + inner + ("," + inner).join(items) + newline + ends[1] if items else ends


@functools.cache
def _deriv_template(length: int, newline: str) -> str:
    """The %-template of a Deriv whose order has this length, at the indent
    that newline ends in."""
    inner = newline + "  "
    deep = inner + "  "
    order = "[" + deep + ("," + deep).join(["%d"] * length) + inner + "]"
    return "[" + inner + '"u",' + inner + "%d," + inner + order + newline + "]"


def _emit(pretty: bool, payload: Callable[[], dict], lines: Callable[[], list[str]]) -> None:
    """Print lines() under --pretty, else render(payload()): only the printed
    form is built."""
    print("\n".join(lines()) if pretty else render(payload()))


def _emit_coincidence(coincidence, pretty: bool) -> int:
    """Report coincident leads that do not merge; the verdict sets the exit code."""
    _emit(pretty, lambda: {"verdict": coincidence.verdict, "coincident_leads": coincidence.to_json()},
          lambda: [f"verdict: {coincidence.verdict} (coincident leads)"])
    return EXIT_FOR_VERDICT[coincidence.verdict]


def _load(file, ranking, max_steps=None, order=None) -> Problem:
    """The problem with --max-steps and --order, when given, as its bounds:
    every phase of the command reads one budget."""
    problem = load_problem(file, ranking)
    given = {"max_steps": max_steps, "order_bound": order}
    return problem._replace(bounds=problem.bounds._replace(
        **{key: value for key, value in given.items() if value is not None}))


def _merged_system(problem: Problem):
    """The merged system for commands with no verdict to report unmerged leads."""
    coincidence = coincident_lead_analysis(problem.forms, problem.ranking, problem.bounds.max_steps)
    if coincidence.system is None:
        raise StructuralError(
            f"system has coincident leads that do not merge (verdict {coincidence.verdict})"
        )
    return coincidence.system


def cmd_check(file, ranking, max_steps, pretty, order) -> int:
    problem = _load(file, ranking, max_steps, order)
    coincidence = coincident_lead_analysis(problem.forms, problem.ranking, problem.bounds.max_steps)
    if coincidence.system is None:
        return _emit_coincidence(coincidence, pretty)
    bounds = problem.bounds
    report = is_passive(coincidence.system, bounds.order_bound, bounds.max_steps, bounds.max_enumeration)

    def payload() -> dict:
        out = report.to_json()
        if coincidence.relations:
            out["coincident_leads"] = coincidence.to_json()
        return out

    def lines() -> list[str]:
        out = [f"verdict: {report.verdict}"] + [
            f"pair ({p.pair[0]}, {p.pair[1]}): {p.status}; remainder = {to_text(p.remainder)}" for p in report.pairs
        ]
        if report.census is not None:
            out.append(
                f"parametric derivatives up to order {report.census.order_bound}:"
                f" {len(report.census.parametric)}"
            )
        return out

    _emit(pretty, payload, lines)
    return report.exit_code


def cmd_reduce(file, ranking, max_steps, pretty, target) -> int:
    problem = _load(file, ranking, max_steps)
    try:
        target_data = json.loads(target)
    except json.JSONDecodeError as exc:
        raise StructuralError(f"bad --target polynomial: {exc}") from None
    poly = poly_from_json(problem.ctx, target_data, "--target")
    result = reduce(poly, _merged_system(problem), problem.bounds.max_steps)
    _emit(pretty, lambda: {
        "remainder": result.remainder,
        "trace": [step.to_json() for step in result.trace],
    }, lambda: [f"remainder: {to_text(result.remainder)}", f"steps: {len(result.trace)}"])
    return 0


def cmd_syzygies(file, ranking, pretty) -> int:
    taus = tau_generators(_merged_system(load_problem(file, ranking)).leads())
    _emit(pretty, lambda: {"taus": [t.to_json() for t in taus]}, lambda: [
        f"tau[{t.i},{t.j}]: shifts {tuple(t.shift_i)} / {tuple(t.shift_j)}" for t in taus
    ] or ["no pairs"])
    return 0


def cmd_quotient(file, ranking, max_steps, pretty, order) -> int:
    problem = _load(file, ranking, max_steps, order)
    coincidence = coincident_lead_analysis(problem.forms, problem.ranking, problem.bounds.max_steps)
    if coincidence.system is None:
        return _emit_coincidence(coincidence, pretty)
    report = decide_passivity(coincidence.system, problem.bounds.max_steps)
    if report.verdict != PASSIVE:
        _emit(pretty, lambda: {"error": "census requires a passive system", "verdict": report.verdict},
              lambda: [f"not passive: verdict {report.verdict}"])
        return report.exit_code
    census = quotient_census(coincidence.system, problem.bounds.order_bound, problem.bounds.max_enumeration)
    _emit(pretty, census.to_json, lambda: [f"order bound {census.order_bound}:"
                                           f" {len(census.principal)} principal, {len(census.parametric)} parametric"])
    return 0


def cmd_ranking_audit(file, ranking, pretty, samples, exhaustive_order, seed) -> int:
    problem = load_problem(file, ranking, gate_ranking=False)
    n, m, limit = problem.ctx.n, problem.ctx.m, problem.bounds.max_enumeration
    pool = m * comb(n + exhaustive_order, n)  # the exhaustive pass compares every pair in every direction
    for phase, size, items in (("ranking audit exhaustive pass", pool * pool * n, "(u, v, direction) triples"),
                               ("ranking audit sampled pass", comb(n + SAMPLE_ORDER, n), "multi-indices")):
        if size > limit:
            raise EnumerationLimitError(phase, size, limit, items)
    report = audit_compatibility(problem.ranking, samples, exhaustive_order=exhaustive_order, seed=seed)
    _emit(pretty, report.to_json, lambda: [f"{len(report.counterexamples)} counterexamples"])
    return 0


# -- argument parsing ------------------------------------------------------------


def count(text: str) -> int:
    value = int(text)
    if value < 0:
        raise StructuralError(f"must be a nonnegative integer, got {value}")
    return value


REQUIRED = object()
HELP = ("-h", "--help")
# flag -> (converter, default), no converter for a switch; the handler takes
# it as the keyword max_steps for --max-steps.  Every command takes one file
# and the COMMON flags; the commands that rewrite also take a step budget.
COMMON = {"--ranking": (str, None), "--pretty": (None, False)}
BUDGETED = {"--ranking": COMMON["--ranking"], "--max-steps": (count, None), "--pretty": COMMON["--pretty"]}
COMMANDS = {  # command -> (handler, summary, its flags in usage order)
    "check": (cmd_check, "passivity decision", {**BUDGETED, "--order": (count, None)}),
    "reduce": (cmd_reduce, "divide a polynomial by the system", {**BUDGETED, "--target": (str, REQUIRED)}),
    "syzygies": (cmd_syzygies, "pair generators of the leads", COMMON),
    "quotient": (cmd_quotient, "principal/parametric census", {**BUDGETED, "--order": (count, None)}),
    "ranking-audit": (cmd_ranking_audit, "check the ranking axioms", {
        **COMMON, "--samples": (count, 10000), "--exhaustive-order": (count, 3), "--seed": (int, 0)}),
}


def _usage(command: str) -> str:
    _, summary, flags = COMMANDS[command]
    words = [f"diffalg {command} file"]
    for flag, (convert, default) in flags.items():
        word = flag if convert is None else f"{flag} {flag[2:].upper()}"
        words.append(word if default is REQUIRED else f"[{word}]")
    return " ".join(words) + "\n    " + summary


def _help(command: Optional[str]) -> NoReturn:
    """Print the help of one command, or of all, from the table and exit 0."""
    print(f"usage: {_usage(command)}" if command else
          "usage: diffalg <cmd> file [options]\n\n" + "\n".join(map(_usage, COMMANDS)))
    raise SystemExit(0)


def _is_value(token: str) -> bool:
    """The file or a flag's value, not a flag: as in argparse, "-" and
    negative numbers are values."""
    return token[:1] != "-" or token == "-" or re.fullmatch(r"-\d+|-\d*\.\d+", token) is not None


def parse_args(argv: list[str]):
    """(handler, keyword arguments) for argv, or StructuralError with
    argparse's message.  Flags go before or after the file, as `--flag value`
    or `--flag=value`; the last repeat wins.  -h or --help prints the help
    and exits 0."""
    if argv and argv[0] in HELP:
        _help(None)
    if not argv:
        raise StructuralError("the following arguments are required: command")
    if argv[0] not in COMMANDS:
        choices = ", ".join(map(repr, COMMANDS))
        raise StructuralError(f"argument command: invalid choice: {argv[0]!r} (choose from {choices})")
    handler, _, flags = COMMANDS[argv[0]]
    values = {"file": REQUIRED, **{flag: default for flag, (_, default) in flags.items()}}
    extras: list[str] = []
    tokens = iter(argv[1:])
    for token in tokens:
        flag, eq, text = token.partition("=")
        if _is_value(token):
            if values["file"] is REQUIRED:
                values["file"] = token
            else:
                extras.append(token)
        elif token in HELP:
            _help(argv[0])
        elif flag not in flags:
            extras.append(token)
        elif flags[flag][0] is None:
            if eq:
                raise StructuralError(f"argument {flag}: ignored explicit argument {text!r}")
            values[flag] = True
        else:
            if not eq:
                text = next(tokens, None)
                if text is None or not _is_value(text):
                    raise StructuralError(f"argument {flag}: expected one argument")
            convert = flags[flag][0]
            try:
                values[flag] = convert(text)
            except StructuralError as exc:
                raise StructuralError(f"argument {flag}: {exc}") from None
            except ValueError:
                raise StructuralError(f"argument {flag}: invalid {convert.__name__} value: {text!r}") from None
    missing = [name for name, value in values.items() if value is REQUIRED]
    if missing:
        raise StructuralError(f"the following arguments are required: {', '.join(missing)}")
    if extras:
        raise StructuralError(f"unrecognized arguments: {' '.join(extras)}")
    return handler, {name.lstrip("-").replace("-", "_"): value for name, value in values.items()}


def main(argv: Optional[list[str]] = None) -> int:
    try:
        handler, kwargs = parse_args(sys.argv[1:] if argv is None else argv)
        return handler(**kwargs)
    except json.JSONDecodeError as exc:
        print(f"parse error at line {exc.lineno} column {exc.colno}: {exc.msg}", file=sys.stderr)
        return EXIT_INPUT
    except FileNotFoundError as exc:
        print(f"cannot open {exc.filename}", file=sys.stderr)
        return EXIT_INPUT
    except StructuralError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (ReductionLimitError, EnumerationLimitError) as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE


def entry() -> None:
    sys.exit(main())
