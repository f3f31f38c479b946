"""Problem files: the JSON surface for systems of solved equations.

Schema:

    {
      "n": 2, "m": 1,
      "ranking": <a name in ranking.NAMED_RANKINGS> | {"weights": [[...], ...]},
      "equations": [
        {"lead": ["u", i, [a, ...]], "tail": [ {"c": "p/q", "m": [...]}, ... ]}
      ],
      "bounds": {"order_bound": 6, "max_steps": 100000, "max_enumeration": 1000000}
    }

"ranking", "bounds" and the fields of "bounds" are optional.  Integer fields
reject JSON booleans, and keys the schema does not name are rejected.

A weight ranking is accepted only when it satisfies both shift axioms, which
ranking.shift_violation decides exactly: every direction column of the
weight matrix must be lexicographically positive.  A rule that fails is
rejected with the same first counterexample the sampled check
(audit_compatibility, the ranking-audit command) reports.
"""

from __future__ import annotations

import json
import sys
from collections import namedtuple

from .algebra import Context, Deriv, poly_from_json, var_from_json
from .errors import ParseError, StructuralError, UnreadableFileError, quote
from .normal import Bounds, SolvedForm
from .ranking import DEFAULT_RANKING, NAMED_RANKINGS, Ranking, shift_violation

Problem = namedtuple("Problem", "ctx ranking forms bounds")  # forms: the SolvedForms in file order


def parse_json(text: str, source: str):
    """json.loads(text), with JSON nested past the decoder's recursion limit,
    or an integer longer than the interpreter converts, raised as a
    ParseError that names its source."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ParseError(f"JSON nested too deeply in {source}") from None
    except json.JSONDecodeError:
        raise
    except ValueError:  # int() of more digits than sys.get_int_max_str_digits()
        raise ParseError(f"integer in {source} exceeds the interpreter's integer string conversion limit"
                         f" of {sys.get_int_max_str_digits()} digits") from None


def read_text(path: str) -> str:
    """The file's text as a text-mode open() reads it: decoded strictly as
    UTF-8, with CR LF and a lone CR read as LF, so JSON error positions
    count the same lines.  The bytes are read in binary mode: a child forked
    after import paid 246 us for its first text-mode read of heat.json, 141 us
    for this one (medians of 300 alternated children, 2-CPU container)."""
    try:
        with open(path, "rb") as file:
            data = file.read()
    except OSError:
        raise UnreadableFileError(path) from None
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not valid UTF-8 (byte {exc.start})") from None
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


def _require(data: dict, key: str, kind, where: str):
    if key not in data:
        raise StructuralError(f"{where}: missing field {quote(key)}")
    value = data[key]
    if type(value) is not kind:
        raise StructuralError(
            f"{where}.{key}: expected {kind.__name__}, got {type(value).__name__}"
        )
    return value


def _known_fields(data: dict, allowed: tuple[str, ...], where: str) -> None:
    for key in data:
        if key not in allowed:
            raise StructuralError(f"{where}: unknown field {quote(key)}")


def problem_from_dict(data: dict, gate_ranking: bool = True) -> Problem:
    if not isinstance(data, dict):
        raise StructuralError("problem file must be a JSON object")
    _known_fields(data, ("n", "m", "ranking", "equations", "bounds"), "problem")
    n = _require(data, "n", int, "problem")
    m = _require(data, "m", int, "problem")
    ctx = Context(n, m)
    raw_bounds = data.get("bounds", {})
    if not isinstance(raw_bounds, dict):
        raise StructuralError("problem.bounds: expected object")
    _known_fields(raw_bounds, Bounds._fields, "problem.bounds")
    for key, value in raw_bounds.items():
        if type(value) is not int or value < 0:
            raise StructuralError(f"problem.bounds.{key}: expected nonnegative integer")
    bounds = Bounds(**raw_bounds)
    # a ranking row holds n + 1 entries and a built-in writes two: a huge n exceeds the budget
    bounds.check_enumeration("ranking", 2 * (n + 1), "weight entries")

    ranking_spec = data.get("ranking", DEFAULT_RANKING)
    ranking = Ranking.from_spec(ctx, ranking_spec)
    violation = shift_violation(ranking) if gate_ranking else None
    if violation is not None:
        raise StructuralError(
            "weight ranking fails the compatibility audit;"
            f" first counterexample: {quote(violation.to_json())}"
        )

    equations = _require(data, "equations", list, "problem")
    forms: list[SolvedForm] = []
    for idx, entry in enumerate(equations):
        where = f"equations[{idx}]"
        if not isinstance(entry, dict):
            raise StructuralError(f"{where}: expected object")
        _known_fields(entry, ("lead", "tail"), where)
        raw_lead = _require(entry, "lead", list, where)
        try:
            lead = var_from_json(ctx, raw_lead)
        except StructuralError as exc:
            raise StructuralError(f"{where}.lead: {exc}") from None
        if not isinstance(lead, Deriv):
            raise StructuralError(f"{where}.lead: must be a derivative variable")
        tail = poly_from_json(ctx, _require(entry, "tail", list, where), f"{where}.tail")
        try:
            forms.append(SolvedForm(lead, tail))
        except StructuralError as exc:
            raise StructuralError(f"{where}: {exc}") from None

    return Problem(ctx, ranking, forms, bounds)


def load_problem(
    path: str, ranking_override: str | None = None, gate_ranking: bool = True
) -> Problem:
    """Parse a problem file.  A ranking override is either one of the
    built-in names or inline JSON for a weight rule.  gate_ranking=False skips
    the compatibility gate so the audit command itself can examine a failing
    rule."""
    data = parse_json(read_text(path), path)
    if ranking_override is not None:
        if not isinstance(data, dict):
            raise StructuralError("problem file must be a JSON object")
        if ranking_override in NAMED_RANKINGS:
            data["ranking"] = ranking_override
        else:
            try:
                data["ranking"] = parse_json(ranking_override, "--ranking")
            except json.JSONDecodeError as exc:
                raise StructuralError(f"bad --ranking value: {exc}") from None
    return problem_from_dict(data, gate_ranking)
