"""Self-test of the output checks: each checker must reject corrupted
copies of an output it accepted, so a passing run means the outputs were
checked and not skipped."""

from __future__ import annotations

import copy
import json
from fractions import Fraction

from .check import Mismatch

def bump_first_coefficient(node):
    """Change the first coefficient found, walking keys in sorted order;
    returns whether one was found."""
    if isinstance(node, dict):
        if isinstance(node.get("c"), str):
            c = Fraction(node["c"]) + 1
            node["c"] = str(c or Fraction(2))
            return True
        return any(bump_first_coefficient(node[k]) for k in sorted(node))
    if isinstance(node, list):
        return any(bump_first_coefficient(x) for x in node)
    return False


def corruptions(result):
    code, out, err = result["code"], result["out"], result["err"]
    yield "wrong exit code", (code + 1) % 5, out, err
    try:
        rep = json.loads(out)
    except json.JSONDecodeError:
        return
    bumped = copy.deepcopy(rep)
    if bump_first_coefficient(bumped):
        yield "one coefficient changed", code, json.dumps(bumped), err
    gens = (rep.get("normalized_slice") or {}).get("generators")
    if gens:
        dropped = copy.deepcopy(rep)
        dropped["normalized_slice"]["generators"].pop(len(gens) // 2)
        yield "one slice generator dropped", code, json.dumps(dropped), err
    if rep.get("parametric"):
        dropped = copy.deepcopy(rep)
        dropped["parametric"].pop()
        yield "one census entry dropped", code, json.dumps(dropped), err


def run(checker, samples):
    """samples: (command, result) pairs the checker accepted.  Tests the first
    of each kind of command; returns a list of failures."""
    errors, seen = [], set()
    for cmd, result in samples:
        prob = checker.problems[cmd["problem"]]
        kind = (prob["family"], cmd["kind"], prob.get("compatible"), "twin" in prob)
        if kind in seen:
            continue
        seen.add(kind)
        for label, code, out, err in corruptions(result):
            try:
                checker.check(cmd, code, out, err)
            except Mismatch:
                continue
            errors.append(f"self-test: {cmd['id']} accepted with {label}")
    return errors
