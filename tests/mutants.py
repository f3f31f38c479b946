"""The mutation gate: every listed fault must fail tier-1.

    python tests/mutants.py

A mutant replaces one exact text, which must occur exactly once, in one
file.  The script copies src/, tests/, problems/, perfbench/ (the tests
import it) and pyproject.toml into a temporary directory, and for each
mutant writes the mutated file there, runs

    python -m pytest -x -q -p no:cacheprovider

with PYTHONPATH=src, and restores the file.  A mutant is killed when pytest
exits nonzero.  A survivor fails the gate unless EQUIVALENT names it with
the reason it cannot change a result.  The script prints one line per
mutant (killed or survived, seconds, the first failing test), then one JSON
summary line, and exits 1 on an unlisted survivor or on a mutant whose old
text does not occur exactly once.  Mutation analysis as in DeMillo, Lipton
& Sayward, "Hints on test data selection" (IEEE Computer 11, 1978).
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "problems", "perfbench", "pyproject.toml")
RUN_TIMEOUT_S = 900  # a mutant that makes tier-1 hang counts as killed when this passes

Mutant = namedtuple("Mutant", "path old new fault")

ALG, NORMAL, PASS, CLI = (f"src/diffalg/{name}.py" for name in ("algebra", "normal", "passivity", "cli"))
RANK, PROB, MI = (f"src/diffalg/{name}.py" for name in ("ranking", "problem", "multiindex"))
ORACLE = "tests/reference/oracle.py"

MUTANTS = [
    # -- kernels: D_k, the prolongation path, the rule, reduce
    Mutant(ALG, "c * e if e > 1 else c", "c * e if e > 1 and not is_x else c",
           "D_k drops the exponent factor of x_j^e"),
    Mutant(ALG, "_times_deriv(m[pos + 1:], shift_deriv(v, k))", "_times_deriv(m[pos + 1:], v)",
           "D_k's chain rule keeps u_a where it must write u_(a + e_k)"),
    Mutant(ALG, "if is_x and v.j != k:", "if is_x:", "D_k drops the x_k partial"),
    Mutant(NORMAL, "for k, reps in enumerate(shift):", "for k, reps in enumerate(shift[:-1]):",
           "a prolongation skips the derivations in the last direction"),
    Mutant(NORMAL, "key=lambda e: (sum(e[1].order), e[1].order), reverse=True)",
           "key=lambda e: (sum(e[1].order), e[1].order))", "find_principal takes the farthest lead first"),
    Mutant(NORMAL, "insort(ranks, top)", "ranks.insert(0, top)", "reduce rewrites a principal derivative out of order"),
    # -- the slice and its certificate
    Mutant(NORMAL, "elif derived != first[1]:", "elif False:", "the slice never compares its candidates"),
    Mutant(NORMAL, "        len(leads) == len(forms)\n", "        True\n",
           "certify_slice accepts two forms with one lead"),
    Mutant(NORMAL, "sum(v.order) <= order_bound and rule(v) is not None for v in leads",
           "sum(v.order) <= order_bound for v in leads", "certify_slice accepts a parametric lead"),
    Mutant(NORMAL, "and all(eq.lead in leads for eq in sys.equations if sum(eq.lead.order) <= order_bound)",
           "and True", "certify_slice accepts a slice without an equation's own lead"),
    Mutant(NORMAL, "for v in within for k in range(1, sys.ctx.n + 1))", "for v in within for k in range(1, sys.ctx.n))",
           "certify_slice does not check closure in the last direction"),
    Mutant(NORMAL, "tails_reduced = all(rule(w) is None for f in forms for w in f.tail.support_derivs())",
           "tails_reduced = True", "certify_slice accepts a tail that holds a principal derivative"),
    # -- verdicts and the pair guard
    Mutant(PASS, "return OBSTRUCTED if remainder.support_derivs() else INCONSISTENT",
           "return INCONSISTENT if remainder.support_derivs() else OBSTRUCTED",
           "_status swaps obstructed and inconsistent"),
    Mutant(PASS, "if join in combination.support_derivs():", "if False:", "check_pair's join guard is off"),
    # -- budgets: each comparison and each charge
    Mutant(NORMAL, "if size > self.max_enumeration:", "if size >= self.max_enumeration:",
           "check_enumeration refuses a walk of exactly max_enumeration items"),
    Mutant(NORMAL, "if steps > max_steps:\n            raise ReductionLimitError(max_steps, to_text(f))",
           "if steps >= max_steps:\n            raise ReductionLimitError(max_steps, to_text(f))",
           "normal_form refuses a first charge of exactly max_steps"),
    Mutant(NORMAL, "if steps > max_steps:\n                    raise ReductionLimitError(max_steps, to_text(image))",
           "if steps > max_steps + 1:\n                    raise ReductionLimitError(max_steps, to_text(image))",
           "a memo fill may overrun max_steps by one"),
    Mutant(NORMAL, "if len(trace) >= max_steps:", "if len(trace) > max_steps:",
           "reduce takes one step past max_steps"),
    Mutant(NORMAL, 'check_enumeration("prolongation", sum(shift) * len(shift))',
           'check_enumeration("prolongation", sum(shift))', "a prolongation is not charged for the ambient's width"),
    Mutant(NORMAL, "m * mi.count_up_to_order(n, self.bounds.order_bound) * n)",
           "m * mi.count_up_to_order(n, self.bounds.order_bound))",
           "the census charge counts derivatives, not index entries"),
    Mutant(PROB, 'check_enumeration("ranking", 2 * (n + 1), "weight entries")',
           'check_enumeration("ranking", 2, "weight entries")', "a huge n is not charged for its ranking rows"),
    Mutant(MI, "if c.bit_length() > SIZE_BITS:", "if c.bit_length() >= SIZE_BITS:",
           "count_up_to_order stops one bit early"),
    # -- the ranking gate and the one constructor
    Mutant(RANK, "if first <= 0:", "if first < 0:", "shift_violation passes a zero direction column"),
    Mutant(RANK, "if not isinstance(rows, list) or not rows:", "if not isinstance(rows, list):",
           "from_spec accepts an empty weight matrix"),
    Mutant(RANK, "if not isinstance(row, list):", "if not isinstance(row, (list, str)):",
           "from_spec takes a string as a weight row"),
    Mutant(RANK, "if len(row) != ctx.n + 1:", "if len(row) < ctx.n + 1:", "from_spec accepts a weight row too long"),
    Mutant(NORMAL, "(idx, zero): -eq.tail for", "(idx, zero): eq.tail for", "a rule rewrites its lead to +tail"),
    Mutant(NORMAL, "if eq.tail.ctx != ranking.ctx:", "if False:",
           "a system takes an equation of another ambient than its ranking"),
    # -- output and refusal texts
    Mutant(CLI, "for key, value in sorted(obj.items()):", "for key, value in obj.items():",
           "render writes keys in insertion order"),
    Mutant(CLI, 'if "integer string conversion" not in str(exc):', "if True:",
           "the digit-limit ValueError escapes as a traceback"),
    Mutant(PASS, "top derivative {quote(var_to_json(join))} failed", "top derivative {join} failed",
           "the join guard prints a Python repr"),
    Mutant(MI, "length mismatch: {quote(list(a))} vs {quote(list(b))}", "length mismatch: {a} vs {b}",
           "a length mismatch prints Python tuples"),
    # -- the audited input paths
    Mutant(PROB, '.replace("\\r\\n", "\\n").replace("\\r", "\\n")', '.replace("\\r\\n", "\\n")',
           "read_text keeps a lone CR"),
    Mutant(ALG, "return Fraction(int(p), int(q)) if q else Fraction(int(p))",
           "return Fraction(int(p)) if q else Fraction(int(p))", "the rational split drops the denominator"),
    Mutant(CLI, "return whole.isdecimal()", "return whole.isdigit()",
           "the negative-number test takes a superscript digit"),
    # -- the test oracles
    Mutant(ORACLE, "sys.ranking.key(shifted) <= class_bound", "sys.ranking.key(shifted) < class_bound",
           "prolong's class filter is strict"),
    Mutant(ORACLE, "mi.add(shift, leads[pos].order)", "shift", "coordinate_image drops the lead's order"),
    Mutant(ORACLE, "(tau.j, mi.add(sigma, tau.shift_j))", "(tau.j, tau.shift_j)",
           "tau_vector ignores sigma on its second coordinate"),
    Mutant(ORACLE, "solution[t * k:(t + 1) * k]", "solution[t * k + 1:(t + 1) * k + 1]",
           "membership reads each cofactor one column late"),
]

EQUIVALENT: dict[str, str] = {}  # fault -> why the mutant cannot change a result


def check_texts() -> list[str]:
    """A line for every mutant whose old text does not occur exactly once."""
    bad = []
    for number, mutant in enumerate(MUTANTS, start=1):
        count = (ROOT / mutant.path).read_text().count(mutant.old)
        if count != 1:
            bad.append(f"{number:>3} {mutant.path}: old text occurs {count} times")
    return bad


def first_failure(output: str) -> str:
    """The first FAILED or ERROR line of pytest's short summary, or its last line."""
    found = re.search(r"^(?:FAILED|ERROR) (\S+)", output, re.MULTILINE)
    if found:
        return found.group(1)
    lines = output.strip().splitlines()
    return lines[-1] if lines else ""


def main() -> int:
    bad = check_texts()
    if bad:
        print("\n".join(bad))
        return 1
    survivors, killed = [], 0
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    with tempfile.TemporaryDirectory(prefix="mutants-") as work:
        ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache", "_run")
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                shutil.copytree(source, Path(work) / name, ignore=ignore)
            else:
                shutil.copy2(source, Path(work) / name)
        for number, mutant in enumerate(MUTANTS, start=1):
            target = Path(work) / mutant.path
            original = target.read_text()
            target.write_text(original.replace(mutant.old, mutant.new))
            start = time.perf_counter()
            try:
                proc = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"],
                                      cwd=work, env=env, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
                code, where = proc.returncode, first_failure(proc.stdout + proc.stderr)
            except subprocess.TimeoutExpired:
                code, where = -1, f"timeout after {RUN_TIMEOUT_S} s"
            finally:
                target.write_text(original)
            seconds = time.perf_counter() - start
            if code != 0:
                killed += 1
                state = "killed"
            elif mutant.fault in EQUIVALENT:
                state, where = "equivalent", EQUIVALENT[mutant.fault]
            else:
                state = "SURVIVED"
                survivors.append(number)
            print(f"{number:>3} {state:<10} {seconds:6.1f} s  {mutant.fault}  [{where}]", flush=True)
    print(json.dumps({"mutants": len(MUTANTS), "killed": killed, "survivors": survivors}))
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
