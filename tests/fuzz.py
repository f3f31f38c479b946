"""Seeded mutation fuzzer for the command line.

    PYTHONPATH=src python tests/fuzz.py SEED CASES

Each case takes a problem file from problems/, mutates it (a value of
another type, a dropped or added key, deep nesting, an extreme integer) and
runs one command on it with mutated --order, --max-steps, --ranking and
--target values, and ranking-audit's --samples, --exhaustive-order and
--seed.  Every cli.main call must return an exit code 0-4 and
raise nothing.  The script caps its own address space and CPU time, and
each case gets FUZZ_CASE_S of wall time.  The last line of stdout is one
JSON object: {"cases": CASES, "exit_codes": {code: count}, "failures":
[...]}, each failure with its argv, the file it ran on and what went wrong.

Targets are small fixed polynomials: a target that grows in terms under
substitution has no budget to stop it yet.  A file's max_steps and
max_enumeration stay at or below their defaults: a file that raises a
budget asks for the work it allows, and may take that long.
"""

from __future__ import annotations

import io
import json
import random
import resource
import signal
import sys
import tempfile
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from diffalg import Bounds
from diffalg.cli import main

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"
AS_LIMIT = 1 << 30  # bytes of address space for the whole run
CPU_LIMIT = 60  # seconds of CPU for the whole run
FUZZ_CASE_S = 2.0

NEST = "\0nest\0"  # placeholder replaced by deeply nested JSON text
EXTREME_INTS = [0, -1, 1, 2, 7, 2**31, 2**63, -(2**63), 10**8, 10**30, 10**100, int("9" * 4300)]
ODD_VALUES = [None, True, False, 0, -3, 1.5, "", "u", "1/0", "x", [], [1], {}, {"c": "1"}, [["u", 1, [1]]], NEST]
KEYS = ["n", "m", "ranking", "equations", "bounds", "lead", "tail", "c", "m", "order_bound", "max_steps",
        "max_enumeration", "weights", "extra"]
COMMANDS = ["check", "quotient", "reduce", "syzygies", "ranking-audit"]
# flag values; a flag takes one of its BAD values with probability BAD_SHARE
ORDERS = ["0", "1", "3", "8", "1000000", str(10**30)]
STEPS = ["0", "1", "5", "40", str(10**30)]
BAD_COUNTS = ["-1", "x", "1.5", ""]
SAMPLES = ["1", "50", str(10**6 + 1), str(10**30)]  # the default 10,000 samples take 0.3 s a case
SEEDS = ["0", "-7", str(10**30)]
BAD_SEEDS = ["x", "1.5", ""]
RANKINGS = ["orderly", "elimination", '{"weights": [[0, 1, 1], [1, 0, 0]]}', '"orderly"']
BAD_RANKINGS = ["bogus", '{"weights": []}', '{"weights": [[0, -1, 1]]}', "[1]", "{", "null"]
BAD_SHARE = 0.2
TARGETS = [
    "[]",
    '[{"c": "1", "m": [[["u", 1, [2, 1]], 1]]}]',
    '[{"c": "-2/3", "m": [[["u", 1, [1, 0]], 2], [["x", 1], 1]]}, {"c": "5", "m": []}]',
    '[{"c": "1", "m": [[["u", 2, [0, 3]], 1]]}]',
    '[{"c": "1", "m": [[["u", 1, [1, 1, 1]], 1]]}]',
    '[{"c": "1", "m": [[["x", 9], 1]]}]',
    '[{"c": "1/0", "m": []}]',
    '[{"c": 1, "m": []}]',
    '{"c": "1"}',
    "[",
    "[[[[[[[[]]]]]]]]",
]


class CaseTimeout(BaseException):
    """A case ran past FUZZ_CASE_S; a BaseException, so cli.main cannot catch it."""


def _nodes(value, path=()):
    """Every (path, node) of a JSON tree, the root first."""
    yield path, value
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _nodes(item, path + (key,))
    elif isinstance(value, list):
        for idx, item in enumerate(value):
            yield from _nodes(item, path + (idx,))


def _replace(tree, path, value):
    if not path:
        return value
    parent = tree
    for step in path[:-1]:
        parent = parent[step]
    parent[path[-1]] = value
    return tree


def _fresh(value):
    """A copy of a JSON value, so no two places in a tree share one list or dict."""
    return json.loads(json.dumps(value))


def mutate(rng: random.Random, data):
    """data with one mutation applied; data itself is changed in place."""
    nodes = list(_nodes(data))
    kind = rng.choice(["type", "type", "drop", "add", "nest", "int", "int", "int"])
    if kind == "int":
        ints = [path for path, node in nodes if type(node) is int] or [path for path, _ in nodes]
        return _replace(data, rng.choice(ints), rng.choice(EXTREME_INTS))
    if kind in ("drop", "add"):
        dicts = [node for _, node in nodes if isinstance(node, dict)]
        if dicts:
            target = rng.choice(dicts)
            if kind == "drop" and target:
                del target[rng.choice(list(target))]
            else:
                target[rng.choice(KEYS)] = _fresh(rng.choice(ODD_VALUES + EXTREME_INTS))
            return data
    path = rng.choice([path for path, _ in nodes])
    return _replace(data, path, NEST if kind == "nest" else _fresh(rng.choice(ODD_VALUES)))


def _value(rng: random.Random, good: list[str], bad: list[str]) -> str:
    return rng.choice(bad if rng.random() < BAD_SHARE else good)


def draw(rng: random.Random, corpus: list) -> tuple[list[str], str]:
    """One case: the command with its flags, and the file's text."""
    data = _fresh(rng.choice(corpus))
    for _ in range(rng.choice([0, 1, 1, 2, 3])):
        data = mutate(rng, data)
    budgets = data.get("bounds") if isinstance(data, dict) else None
    if isinstance(budgets, dict):
        for key in ("max_steps", "max_enumeration"):
            if type(budgets.get(key)) is int:
                budgets[key] = min(budgets[key], getattr(Bounds(), key))
    text = json.dumps(data).replace(json.dumps(NEST), "[" * (depth := rng.choice([50, 5000])) + "]" * depth)
    command = rng.choice(COMMANDS)
    flags: list[str] = []
    if rng.random() < 0.4:
        flags += ["--ranking", _value(rng, RANKINGS, BAD_RANKINGS)]
    if command in ("check", "quotient", "reduce") and rng.random() < 0.5:
        flags += ["--max-steps", _value(rng, STEPS, BAD_COUNTS)]
    if command in ("check", "quotient") and rng.random() < 0.5:
        flags += ["--order", _value(rng, ORDERS, BAD_COUNTS)]
    if command == "reduce":
        flags += ["--target", rng.choice(TARGETS)]
    if command == "ranking-audit":
        flags += ["--samples", _value(rng, SAMPLES, BAD_COUNTS + ["0"])]
        if rng.random() < 0.5:
            flags += ["--exhaustive-order", _value(rng, ORDERS, BAD_COUNTS)]
        if rng.random() < 0.5:
            flags += ["--seed", _value(rng, SEEDS, BAD_SEEDS)]
    return [command, *flags], text


def _alarm(signum, frame):
    raise CaseTimeout()


def run(seed: int, cases: int, workdir: Path) -> tuple[dict[int, int], list[dict]]:
    """Draw and run the cases: how many ended in each exit code, and the
    failures, each with its argv and file."""
    rng = random.Random(seed)
    corpus = [json.loads(path.read_text()) for path in sorted(PROBLEMS.glob("*.json"))]
    signal.signal(signal.SIGALRM, _alarm)
    codes: dict[int, int] = {}
    failures = []
    for case in range(cases):
        argv, text = draw(rng, corpus)
        path = workdir / f"case{case}.json"
        path.write_text(text)
        argv = [argv[0], str(path), *argv[1:]]
        out, err = io.StringIO(), io.StringIO()
        problem = None
        signal.setitimer(signal.ITIMER_REAL, FUZZ_CASE_S)
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = main(argv)
            codes[code] = codes.get(code, 0) + 1
            if code not in range(5):
                problem = f"exit code {code!r}"
        except CaseTimeout:
            problem = f"ran past {FUZZ_CASE_S} s"
        except Exception:  # every escape is a finding; an interrupt still stops the run
            problem = traceback.format_exc(limit=-3)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        if problem is not None:
            failures.append({"case": case, "argv": argv[:1] + argv[2:], "file": text[:300], "problem": problem})
    return codes, failures


if __name__ == "__main__":
    resource.setrlimit(resource.RLIMIT_AS, (AS_LIMIT, AS_LIMIT))
    resource.setrlimit(resource.RLIMIT_CPU, (CPU_LIMIT, CPU_LIMIT))
    seed, cases = int(sys.argv[1]), int(sys.argv[2])
    with tempfile.TemporaryDirectory() as tmp:
        codes, failures = run(seed, cases, Path(tmp))
    print(json.dumps({"cases": cases, "exit_codes": codes, "failures": failures}, sort_keys=True))
