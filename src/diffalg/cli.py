"""Command-line surface.

Commands:

    check          run the passivity decision and print the report
    reduce         divide a target polynomial by the system, with trace
    syzygies       print the pair generators of the leading derivatives
    quotient       print the principal/parametric census of a passive system
    ranking-audit  check the ranking's shift-compatibility axioms

Exit codes: 0 passive / success, 1 input or structural error, 2 obstructed,
3 inconsistent, 4 step or enumeration budget exceeded or a result too long
to print.  Output is deterministic: the same input bytes produce the same
output bytes.  main() alone maps errors to exit codes, the interpreter's
ValueError for an integer too long to print among them.

A process runs one command, so the parser is a table and render() replaces
json.dumps: argparse's first build and the indenting encoder cost more than
most commands' algebra.  A report's to_json() tree holds DiffPoly, Deriv,
Indep and SolvedForm objects; render() writes them in place as fragments
of one list, joined once, and fills a census list of Derivs from one
%-template.  _write() prints output and errors alike.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from collections.abc import Callable
from json.encoder import encode_basestring_ascii

from .algebra import Deriv, DiffPoly, Indep, monomial_sort_key, poly_from_json, to_text
from .errors import EnumerationLimitError, ParseError, ReductionLimitError, StructuralError, UnreadableFileError
from .multiindex import count_up_to_order
from .normal import SolvedForm, reduce
from .passivity import (
    EXIT_FOR_VERDICT,
    PASSIVE,
    coincident_lead_analysis,
    decide_passivity,
    is_passive,
    quotient_census,
)
from .problem import Problem, load_problem, parse_json
from .ranking import SAMPLE_ORDER, audit_compatibility
from .syzygy import tau_generators

EXIT_INPUT = 1
EXIT_RESOURCE = 4


def render(obj) -> str:
    """json.dumps(plain, indent=2, sort_keys=True), byte for byte, where plain
    is obj with each DiffPoly leaf as poly_to_json gives it, each Deriv or
    Indep leaf as var_to_json does and each SolvedForm leaf as the dict of
    its lead and tail so converted.  Besides those, obj may hold dicts with
    str keys, lists, plain tuples, str, int, bool and None, each of exactly
    that type; any other value raises TypeError, and an integer too long to
    print the interpreter's ValueError.  Fragments and the monomial cache
    live for this call only."""
    out: list[str] = []
    _render(obj, "\n", out, {})
    return "".join(out)


def _render(obj, newline: str, out: list[str], cache: dict) -> None:
    """Append obj's text at the indent that newline ends in; cache maps each
    indent to a dict from monomial to (sort key, the term's text after its
    coefficient)."""
    kind, inner = type(obj), newline + "  "
    if kind is DiffPoly:
        field, terms = inner + "  ", obj.terms
        memo = cache.setdefault(field, {})
        for m in terms:
            if m not in memo:
                memo[m] = (monomial_sort_key(m), f'",{field}"m": {_monomial_text(m, field)}{inner}}}')
        rows = sorted(zip(map(memo.__getitem__, terms), terms.values()), reverse=True)
        opening = "{" + field + '"c": "'
        items = ("," + inner + opening).join([f"{c}{after}" for (_, after), c in rows])
        out.append("[" + inner + opening + items + newline + "]" if rows else "[]")
    elif kind is dict:
        sep = "{" + inner
        for key, value in sorted(obj.items()):
            # encode_basestring_ascii raises TypeError on a key that is not a str
            out.append(sep + encode_basestring_ascii(key) + ": ")
            _render(value, inner, out, cache)
            sep = "," + inner
        out.append(newline + "}" if obj else "{}")
    elif kind is list or kind is tuple:
        args = _census_args(obj)
        if args:  # a census list: one template, repeated and filled once
            template = ("," + inner).join([_deriv_template(len(obj[0].order), inner)] * len(obj))
            out.append(("[" + inner + template + newline + "]") % tuple(args))
        else:
            sep = "[" + inner
            for item in obj:
                out.append(sep)
                _render(item, inner, out, cache)
                sep = "," + inner
            out.append(newline + "]" if obj else "[]")
    elif kind is str:
        out.append(encode_basestring_ascii(obj))
    elif kind is Deriv or kind is Indep:
        out.append(_var_text(obj, newline))
    elif kind is int:
        out.append(int.__repr__(obj))
    elif obj is None or obj is True or obj is False:
        out.append("null" if obj is None else "true" if obj else "false")
    elif kind is SolvedForm:  # as {"lead": obj.lead, "tail": obj.tail}
        out.append("{" + inner + '"lead": ' + _var_text(obj.lead, inner) + "," + inner + '"tail": ')
        _render(obj.tail, inner, out, cache)
        out.append(newline + "}")
    else:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _census_args(obj) -> list | None:
    """The unknown and order entries of every item, flattened, when obj holds
    Derivs only and their orders share one length ([] when obj is empty);
    else None."""
    length = len(obj[0].order) if obj and type(obj[0]) is Deriv else -1
    args: list[int] = []
    for v in obj:
        if type(v) is not Deriv or len(v.order) != length:
            return None
        args.append(v.i)
        args += v.order
    return args


def _var_text(v, newline: str) -> str:
    """A Deriv or Indep at the indent that newline ends in."""
    if v.i:
        return _deriv_template(len(v.order), newline) % (v.i, *v.order)
    return "[" + newline + '  "x",' + newline + "  " + str(v.j) + newline + "]"


def _monomial_text(m: tuple, newline: str) -> str:
    """Monomial m as its [[variable, exponent], ...] list at this indent."""
    pair, inner = newline + "  ", newline + "    "
    items = ["[" + inner + _var_text(v, inner) + "," + inner + str(e) + pair + "]" for v, e in m]
    return "[" + pair + ("," + pair).join(items) + newline + "]" if m else "[]"


@functools.cache
def _deriv_template(length: int, newline: str) -> str:
    """The %-template of a Deriv whose order has this length, at the indent
    that newline ends in."""
    inner = newline + "  "
    deep = inner + "  "
    order = "[" + deep + ("," + deep).join(["%d"] * length) + inner + "]"
    return "[" + inner + '"u",' + inner + "%d," + inner + order + newline + "]"


def _write(text: str, stream) -> None:
    """Print text to stream (stdout or stderr).  A reader that closes the
    pipe early (`| head`) does not turn the command into a traceback: the
    stream is pointed at os.devnull, so the flush at exit stays quiet, and
    the command keeps its exit code."""
    try:
        print(text, file=stream)
        stream.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, stream.fileno())
        os.close(devnull)


def _emit(pretty: bool, payload: Callable[[], dict], lines: Callable[[], list[str]]) -> None:
    """Write lines() under --pretty, else render(payload()): only the printed
    form is built."""
    _write("\n".join(lines()) if pretty else render(payload()), sys.stdout)


def _emit_coincidence(coincidence, pretty: bool) -> int:
    """Report coincident leads that do not merge; the verdict sets the exit code."""
    _emit(pretty, lambda: {"verdict": coincidence.verdict, "coincident_leads": coincidence.to_json()},
          lambda: [f"verdict: {coincidence.verdict} (coincident leads)"])
    return EXIT_FOR_VERDICT[coincidence.verdict]


def _load(file, ranking, max_steps=None, order=None) -> Problem:
    """The problem with --max-steps and --order, when given, as its bounds:
    the merged system holds them, and every phase of the command reads them
    there."""
    problem = load_problem(file, ranking)
    given = {key: value for key, value in (("max_steps", max_steps), ("order_bound", order)) if value is not None}
    return problem._replace(bounds=problem.bounds._replace(**given)) if given else problem


def _merged_system(problem: Problem):
    """The merged system for commands with no verdict to report unmerged leads."""
    coincidence = coincident_lead_analysis(problem.forms, problem.ranking, problem.bounds)
    if coincidence.system is None:
        raise StructuralError(
            f"system has coincident leads that do not merge (verdict {coincidence.verdict})"
        )
    return coincidence.system


def cmd_check(file, ranking, max_steps, pretty, order) -> int:
    problem = _load(file, ranking, max_steps, order)
    coincidence = coincident_lead_analysis(problem.forms, problem.ranking, problem.bounds)
    if coincidence.system is None:
        return _emit_coincidence(coincidence, pretty)
    report = is_passive(coincidence.system)

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
    return EXIT_FOR_VERDICT[report.verdict]


def cmd_reduce(file, ranking, max_steps, pretty, target) -> int:
    problem = _load(file, ranking, max_steps)
    try:
        target_data = parse_json(target, "--target")
    except json.JSONDecodeError as exc:
        raise StructuralError(f"bad --target polynomial: {exc}") from None
    poly = poly_from_json(problem.ctx, target_data, "--target")
    result = reduce(poly, _merged_system(problem))
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
    coincidence = coincident_lead_analysis(problem.forms, problem.ranking, problem.bounds)
    if coincidence.system is None:
        return _emit_coincidence(coincidence, pretty)
    report = decide_passivity(coincidence.system)
    if report.verdict != PASSIVE:
        _emit(pretty, lambda: {"error": "census requires a passive system", "verdict": report.verdict},
              lambda: [f"not passive: verdict {report.verdict}"])
        return EXIT_FOR_VERDICT[report.verdict]
    census = quotient_census(coincidence.system)
    _emit(pretty, census.to_json, lambda: [f"order bound {census.order_bound}:"
                                           f" {len(census.principal)} principal, {len(census.parametric)} parametric"])
    return 0


def cmd_ranking_audit(file, ranking, pretty, samples, exhaustive_order, seed) -> int:
    if not samples:  # count admits 0, but the sampled pass draws at least one
        raise StructuralError("argument --samples: must be a positive integer, got 0")
    problem = load_problem(file, ranking, gate_ranking=False)
    n, m = problem.ctx
    pool = m * count_up_to_order(n, exhaustive_order)  # the exhaustive pass compares every pair in every direction
    problem.bounds.check_enumeration("ranking audit exhaustive pass", pool * pool * n, "(u, v, direction) triples")
    problem.bounds.check_enumeration("ranking audit sampled pass", count_up_to_order(n, SAMPLE_ORDER), "multi-indices")
    problem.bounds.check_enumeration("ranking audit sampled pass", samples, "samples")
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


def _help(command: str | None):
    """Print the help of one command, or of all, from the table and exit 0."""
    _write(f"usage: {_usage(command)}" if command else
           "usage: diffalg <cmd> file [options]\n\n" + "\n".join(map(_usage, COMMANDS)), sys.stdout)
    raise SystemExit(0)


def _is_value(token: str) -> bool:
    """The file or a flag's value, not a flag: as in argparse, "-" and
    negative numbers are values.  A negative number is "-" and decimal
    digits, with at most one point and a digit after it.  A forked child's
    first four tokens cost 75 us this way and 102 us with a precompiled regex."""
    if token[:1] != "-" or token == "-":
        return True
    whole, dot, frac = token[1:].partition(".")
    if dot:
        return (not whole or whole.isdecimal()) and frac.isdecimal()
    return whole.isdecimal()


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


def main(argv: list[str] | None = None) -> int:
    try:
        handler, kwargs = parse_args(sys.argv[1:] if argv is None else argv)
        return handler(**kwargs)
    except json.JSONDecodeError as exc:
        message, code = f"parse error at line {exc.lineno} column {exc.colno}: {exc.msg}", EXIT_INPUT
    except ParseError as exc:
        message, code = f"parse error: {exc}", EXIT_INPUT
    except UnreadableFileError as exc:
        message, code = f"cannot open {exc}", EXIT_INPUT
    except StructuralError as exc:
        message, code = f"input error: {exc}", EXIT_INPUT
    except (ReductionLimitError, EnumerationLimitError) as exc:
        message, code = f"resource limit: {exc}", EXIT_RESOURCE
    except ValueError as exc:  # str() of a result past sys.get_int_max_str_digits(); input is caught where read
        if "integer string conversion" not in str(exc):
            raise
        message, code = (f"resource limit: a result holds an integer of more than {sys.get_int_max_str_digits()}"
                         " digits, the interpreter's limit for integer string conversion", EXIT_RESOURCE)
    _write(message, sys.stderr)
    return code


def entry() -> None:
    sys.exit(main())
