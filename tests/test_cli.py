"""The command-line surface: parsing, verdicts, exit codes, determinism."""

import copy
import errno
import io
import json
import os
import pickle
import random
import re
import resource
import subprocess
import sys
from fractions import Fraction
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import pytest

from diffalg import (Context, DiffPoly, Ranking, SolvedForm, SolvedSystem, StructuralError, coincident_lead_analysis,
                     is_passive, poly_from_json, poly_to_json, reduce)
import diffalg
from diffalg import cli
from diffalg.algebra import Deriv, Indep, var_to_json
from diffalg.cli import COMMANDS, COMMON, main, render
from diffalg.syzygy import TauPair
from diffalg.problem import Bounds, load_problem, problem_from_dict
import diffalg.problem as problem_module

import gen
from test_golden import COMMANDS as GOLDEN_COMMANDS, _argv as golden_argv

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"
SRC = PROBLEMS.parent / "src"
HEAT = str(PROBLEMS / "heat.json")


def run_cli(*argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


def run_cli_full(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_check_exit_codes():
    assert run_cli("check", str(PROBLEMS / "heat.json"))[0] == 0
    assert run_cli("check", str(PROBLEMS / "gradient_consistent.json"))[0] == 0
    assert run_cli("check", str(PROBLEMS / "gradient_inconsistent.json"))[0] == 3
    assert run_cli("check", str(PROBLEMS / "obstructed.json"))[0] == 2
    assert run_cli("check", str(PROBLEMS / "coincident_clash.json"))[0] == 3
    assert run_cli("check", str(PROBLEMS / "coincident_merge.json"))[0] == 0


def test_check_heat_report():
    code, out = run_cli("check", str(PROBLEMS / "heat.json"))
    report = json.loads(out)
    assert report["verdict"] == "passive"
    assert report["census"]["parametric_total"] == 5
    assert report["normalized_slice"]["certified"] is True


def test_check_inconsistent_remainder_is_one():
    _, out = run_cli("check", str(PROBLEMS / "gradient_inconsistent.json"))
    report = json.loads(out)
    assert report["verdict"] == "inconsistent"
    assert report["pairs"][0]["remainder"] == [{"c": "1", "m": []}]


def test_reduce_command():
    target = json.dumps([{"c": "1", "m": [[["u", 1, [1, 1]], 1]]}])
    code, out = run_cli(
        "reduce", str(PROBLEMS / "gradient_consistent.json"), "--target", target
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["remainder"] == []
    assert payload["trace"] == [{"eq": 0, "shift": [0, 1], "eliminated": ["u", 1, [1, 1]]}]
    code, out = run_cli("reduce", str(PROBLEMS / "heat.json"), "--target", "[]")
    assert json.loads(out)["remainder"] == []


def test_reduce_plain_target_passthrough():
    target = json.dumps([{"c": "1", "m": [[["x", 1], 1]]}])
    _, out = run_cli("reduce", str(PROBLEMS / "heat.json"), "--target", target)
    assert json.loads(out)["remainder"] == [{"c": "1", "m": [[["x", 1], 1]]}]


def test_repeated_factors_merge(tmp_path):
    target = json.dumps([{"c": "1", "m": [[["x", 1], 1], [["x", 1], 2]]}, {"c": "-1", "m": [[["x", 1], 3]]}])
    _, out = run_cli("reduce", HEAT, "--target", target)
    assert json.loads(out)["remainder"] == []
    data = json.loads(Path(HEAT).read_text())
    u01 = ["u", 1, [0, 1]]
    outputs = []
    for factors in ([[u01, 2]], [[u01, 1], [u01, 1]]):
        data["equations"][0]["tail"] = [{"c": "-1", "m": factors}]
        path = tmp_path / f"square{len(factors)}.json"
        path.write_text(json.dumps(data))
        outputs.append(run_cli_full("check", str(path)))
    assert outputs[0] == outputs[1]


def test_syzygies_command():
    code, out = run_cli("syzygies", str(PROBLEMS / "gradient_consistent.json"))
    assert code == 0
    assert json.loads(out)["taus"] == [
        {"i": 0, "j": 1, "shift_i": [0, 1], "shift_j": [1, 0]}
    ]


def test_quotient_command():
    code, out = run_cli("quotient", str(PROBLEMS / "heat.json"), "--order", "2")
    assert code == 0
    assert json.loads(out)["parametric_total"] == 5
    code, _ = run_cli("quotient", str(PROBLEMS / "obstructed.json"))
    assert code == 2


def test_ranking_audit_command():
    code, out = run_cli(
        "ranking-audit", str(PROBLEMS / "heat.json"), "--samples", "500"
    )
    assert code == 0
    report = json.loads(out)
    assert report["ok"] is True and report["counterexamples"] == []


def test_ranking_audit_refuses_an_audit_too_large(tmp_path):
    # 680 derivatives up to order 3 in 14 directions: 680^2 * 14 pair checks,
    # refused before the audit enumerates any, under the default budget
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"n": 14, "m": 1, "equations": []}))
    start = perf_counter()
    limited = run_cli_full("ranking-audit", str(path))
    assert perf_counter() - start < 2
    assert limited == (4, "", "resource limit: ranking audit exhaustive pass would enumerate 6473600"
                              " (u, v, direction) triples, above max_enumeration 1000000\n")
    # the sampled pass draws from the C(2 + 8, 2) = 45 indices up to order 8,
    # and its samples are charged too
    path.write_text(json.dumps({"n": 2, "m": 1, "equations": [], "bounds": {"max_enumeration": 45}}))
    assert run_cli_full("ranking-audit", str(path), "--exhaustive-order", "1", "--samples", "45")[0] == 0
    assert run_cli_full("ranking-audit", str(path), "--exhaustive-order", "2", "--samples", "50") == (
        4, "", "resource limit: ranking audit exhaustive pass would enumerate 72 (u, v, direction) triples,"
               " above max_enumeration 45\n")
    path.write_text(json.dumps({"n": 2, "m": 1, "equations": [], "bounds": {"max_enumeration": 44}}))
    assert run_cli_full("ranking-audit", str(path), "--exhaustive-order", "0", "--samples", "50") == (
        4, "", "resource limit: ranking audit sampled pass would enumerate 45 multi-indices,"
               " above max_enumeration 44\n")


def test_ranking_audit_charges_its_samples(tmp_path):
    # each sample is one (u, v, direction) triple: 1000001 of them are refused
    # before the audit draws any, under the default budget
    start = perf_counter()
    limited = run_cli_full("ranking-audit", HEAT, "--samples", "1000001")
    assert perf_counter() - start < 1
    assert limited == (4, "", "resource limit: ranking audit sampled pass would enumerate 1000001 samples,"
                              " above max_enumeration 1000000\n")
    path = tmp_path / "small.json"
    path.write_text(json.dumps({"n": 2, "m": 1, "equations": [], "bounds": {"max_enumeration": 50}}))
    assert run_cli_full("ranking-audit", str(path), "--exhaustive-order", "1", "--samples", "50")[0] == 0
    assert run_cli_full("ranking-audit", str(path), "--exhaustive-order", "1", "--samples", "51") == (
        4, "", "resource limit: ranking audit sampled pass would enumerate 51 samples, above max_enumeration 50\n")


def test_ranking_override():
    code, out = run_cli(
        "check", str(PROBLEMS / "heat.json"), "--ranking", "elimination"
    )
    assert code == 0
    assert json.loads(out)["verdict"] == "passive"


@pytest.mark.parametrize("spec", ["true", '{"weights": [[0, 1, 1]], "rows": 1}', '"grevlex"', "[[0, 1, 1]]"])
def test_bad_ranking_spec_is_printed_as_json(tmp_path, spec):
    expected = (1, "", f'input error: bad ranking spec {spec}; expected "orderly", "elimination",'
                       ' or {"weights": [[...], ...]}\n')
    assert run_cli_full("check", HEAT, "--ranking", spec) == expected
    data = json.loads(Path(HEAT).read_text())
    data["ranking"] = json.loads(spec)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(data))
    assert run_cli_full("check", str(path)) == expected


def test_a_power_of_an_image_is_built_by_squaring(tmp_path):
    # one rewrite of u_(2,0)^E by heat's u_(2,0) -> u_(0,1) needs the E-th
    # power of the image: squaring builds it in O(log E) products, where one
    # product at a time would take 10^9 of them
    target = json.dumps([{"c": "1", "m": [[["u", 1, [2, 0]], 10 ** 9]]}])
    start = perf_counter()
    reduced = run_cli_full("reduce", HEAT, "--target", target, "--pretty")
    assert perf_counter() - start < 1
    assert reduced == (0, "remainder: u[1,(0,1)]^1000000000\nsteps: 1\n", "")
    # u_(2,0) = u_(0,1)^E and u_(0,1) = x1: every normal form of the pair
    # check and the slice substitutes x1 into a power near E = 10^6
    path = tmp_path / "power.json"
    path.write_text(json.dumps({"n": 2, "m": 1, "equations": [
        {"lead": ["u", 1, [2, 0]], "tail": [{"c": "-1", "m": [[["u", 1, [0, 1]], 10 ** 6]]}]},
        {"lead": ["u", 1, [0, 1]], "tail": [{"c": "-1", "m": [[["x", 1], 1]]}]},
    ]}))
    start = perf_counter()
    code, out, err = run_cli_full("check", str(path))
    assert perf_counter() - start < 1
    report = json.loads(out)
    assert (code, err, report["verdict"]) == (0, "", "passive")
    lead = {(f["lead"][1], tuple(f["lead"][2])): f["tail"] for f in report["normalized_slice"]["generators"]}
    assert lead[(1, (2, 0))] == [{"c": "-1", "m": [[["x", 1], 10 ** 6]]}]


def test_malformed_json_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 2,\n  "m": }')
    assert main(["check", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "line 2" in err and "column" in err


DEEP = "[" * 200_000


def test_deep_nesting_is_a_parse_error(tmp_path):
    # the JSON decoder recurses once per level; its RecursionError is a parse
    # error, whichever input nests: the file, --target or an inline --ranking
    deep = tmp_path / "deep.json"
    deep.write_text(DEEP)
    for argv, source in ((["check", str(deep)], deep), (["reduce", HEAT, "--target", DEEP], "--target"),
                         (["check", HEAT, "--ranking", DEEP], "--ranking")):
        assert run_cli_full(*argv) == (1, "", f"parse error: JSON nested too deeply in {source}\n")


def test_missing_file_exit_1():
    assert run_cli("check", "/nonexistent/problem.json")[0] == 1


def test_unreadable_or_non_utf8_file_exits_1(tmp_path):
    # a directory, and files that are not UTF-8 (a UTF-16 byte order mark, a
    # bad continuation byte at offset 15): exit 1 with the path, no traceback
    utf16, late = tmp_path / "utf16.json", tmp_path / "late.json"
    utf16.write_bytes(b"\xff\xfe{\x00}\x00")
    late.write_bytes(b'{"n": 1, "m": "\xc3\x28"}')
    for path, message in [(tmp_path, f"cannot open {tmp_path}"),
                          (utf16, f"parse error: {utf16} is not valid UTF-8 (byte 0)"),
                          (late, f"parse error: {late} is not valid UTF-8 (byte 15)")]:
        proc = subprocess.run([sys.executable, "-m", "diffalg", "check", str(path)], capture_output=True, text=True,
                              env=SRC_ENV)
        assert "Traceback" not in proc.stderr
        assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", message + "\n")


def test_a_failed_read_names_its_path(monkeypatch):
    # the open succeeds and the read fails, so the OSError carries no file name
    class FailingRead(io.BytesIO):
        def read(self, size=-1):
            raise OSError(errno.EIO, os.strerror(errno.EIO))

    monkeypatch.setattr(problem_module, "open", lambda path, mode: FailingRead(), raising=False)
    assert run_cli_full("check", HEAT) == (1, "", f"cannot open {HEAT}\n")


def test_line_ends_read_as_in_text_mode(tmp_path):
    # CR LF and a lone CR each end a line, so a parse error keeps the line and
    # column a text-mode read gives; the raw bytes would put it on line 2
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'{"n": 1,\r\n "m": 1,\r "equations": [,]}')
    assert run_cli_full("check", str(bad)) == (1, "", "parse error at line 3 column 16: Expecting value\n")
    with pytest.raises(json.JSONDecodeError) as raw:
        json.loads(bad.read_bytes().decode())
    assert (raw.value.lineno, raw.value.colno) == (2, 25)
    crlf = tmp_path / "heat.json"
    crlf.write_bytes(Path(HEAT).read_bytes().replace(b"\n", b"\r\n"))
    assert crlf.read_bytes().count(b"\r\n") > 1
    assert load_problem(str(crlf)) == load_problem(HEAT)
    assert run_cli_full("check", str(crlf)) == run_cli_full("check", HEAT)


def test_a_file_of_several_chunks_loads_whole(tmp_path):
    # whitespace padding makes the file several 64 KiB blocks long and puts
    # a CR LF across the first block boundary
    text = Path(HEAT).read_bytes()
    assert text.startswith(b"{")
    padded = tmp_path / "heat.json"
    padded.write_bytes(b"{" + b" " * ((1 << 16) - 2) + b"\r\n" + text[1:-1] + b"\n \t\r" * (1 << 16) + text[-1:])
    assert padded.read_bytes()[(1 << 16) - 1:(1 << 16) + 1] == b"\r\n"
    assert padded.stat().st_size > 4 * (1 << 16)
    assert load_problem(str(padded)) == load_problem(HEAT)
    assert run_cli_full("check", str(padded)) == run_cli_full("check", HEAT)


def test_semantic_errors_exit_1(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n": 2, "m": 1, "equations": [{"lead": ["x", 1], "tail": []}]}))
    assert run_cli("check", str(bad))[0] == 1
    bad.write_text(json.dumps({"n": 2, "m": 1, "equations": [
        {"lead": ["u", 1, [1, 0]], "tail": [{"c": "1", "m": [[["u", 1, [1, 0]], 1]]}]}
    ]}))
    assert run_cli("check", str(bad))[0] == 1


def test_resource_limit_exit_4(tmp_path):
    target = json.dumps([{"c": "1", "m": [[["u", 1, [2, 1]], 1]]}])
    code, _ = run_cli(
        "reduce", str(PROBLEMS / "heat.json"), "--target", target, "--max-steps", "0"
    )
    assert code == 4


@pytest.mark.parametrize("command", ["check", "quotient"])
def test_max_enumeration_refuses_a_census_too_large(tmp_path, command):
    # C(4002, 2) derivatives up to order 2 in 4000 directions, 4000 index
    # entries each: refused before the census enumerates any, under the
    # default budget of 10^6
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"n": 4000, "m": 1, "equations": [], "bounds": {"order_bound": 2}}))
    start = perf_counter()
    limited = run_cli_full(command, str(path))
    assert perf_counter() - start < 1
    assert limited == (4, "", "resource limit: census would enumerate 32024004000 index entries,"
                              " above max_enumeration 1000000\n")
    # 100001 derivatives up to order 1 fit a budget of 10^6 derivatives, but
    # not their 10^10 index entries
    path.write_text(json.dumps({"n": 100000, "m": 1, "equations": [], "bounds": {"order_bound": 1}}))
    start = perf_counter()
    limited = run_cli_full(command, str(path))
    assert perf_counter() - start < 1
    assert limited == (4, "", "resource limit: census would enumerate 10000100000 index entries,"
                              " above max_enumeration 1000000\n")
    # the budget is n * m * C(n + order_bound, n) = 3 * 2 * 10 = 60 entries,
    # at most as large as allowed
    path.write_text(json.dumps({"n": 3, "m": 2, "equations": [], "bounds": {"order_bound": 2, "max_enumeration": 60}}))
    code, out, err = run_cli_full(command, str(path))
    assert (code, err) == (0, "")
    assert json.loads(out).get("census", json.loads(out))["parametric_total"] == 20
    assert run_cli_full(command, str(path), "--order", "3")[0] == 4
    path.write_text(json.dumps({"n": 3, "m": 2, "equations": [], "bounds": {"order_bound": 2, "max_enumeration": 59}}))
    assert run_cli_full(command, str(path)) == (4, "", "resource limit: census would enumerate 60 index entries,"
                                                       " above max_enumeration 59\n")


def _address_space_cap(limit=512 << 20):
    """A child's preexec: at most limit bytes of address space, so a command
    that would allocate gigabytes fails in the child, not on the host."""
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


@pytest.mark.parametrize("n", [10**30, 10**8])
@pytest.mark.parametrize("argv", [["check"], ["quotient"], ["reduce", "--target", "[]"], ["syzygies"],
                                  ["ranking-audit"]], ids=["check", "quotient", "reduce", "syzygies", "audit"])
def test_a_huge_n_exceeds_the_budget(tmp_path, n, argv):
    # a built-in ranking's two rows hold n + 1 entries each; charged against
    # max_enumeration before the ranking is built, a huge n exits 4 instead of
    # overflowing [1] * n (10**30) or allocating gigabytes (10**8)
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"n": n, "m": 1, "equations": []}))
    proc = subprocess.run([sys.executable, "-m", "diffalg", argv[0], str(path), *argv[1:]], capture_output=True,
                          text=True, env=SRC_ENV, preexec_fn=_address_space_cap)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        4, "", f"resource limit: ranking would enumerate {2 * (n + 1)} weight entries,"
               " above max_enumeration 1000000\n")


def test_a_prolongation_of_huge_order_exceeds_the_budget(tmp_path):
    # each derivation of a new prolongation counts its n index entries
    # against max_enumeration before any is applied: at n = 2 the pair of
    # u_(1,0) and u_(2**31,1) prolongs the first equation 2**31 times, and
    # reducing u_(0,2**31) by u_(0,1) = x1 prolongs it 2**31 - 1 times; at
    # n = 1000 the pair of u_(e1) = -u_(e2) and u_(20000 e2) = -x1 prolongs
    # the first 20000 times, which the width makes 2 * 10**7 entries
    wide = tmp_path / "wide.json"
    wide.write_text(json.dumps({"n": 1000, "m": 1, "equations": [
        {"lead": ["u", 1, [1] + [0] * 999], "tail": [{"c": "1", "m": [[["u", 1, [0, 1] + [0] * 998], 1]]}]},
        {"lead": ["u", 1, [0, 20000] + [0] * 998], "tail": [{"c": "1", "m": [[["x", 1], 1]]}]}]}))
    path = tmp_path / "deep.json"
    path.write_text(json.dumps({"n": 2, "m": 1, "equations": [
        {"lead": ["u", 1, [1, 0]], "tail": []},
        {"lead": ["u", 1, [2**31, 1]], "tail": [{"c": "-1", "m": [[["x", 2], 1]]}]}]}))
    target = json.dumps([{"c": "1", "m": [[["u", 1, [0, 2**31]], 1]]}])
    start = perf_counter()
    checked = run_cli_full("check", str(path))
    path.write_text(json.dumps({"n": 2, "m": 1, "equations": [
        {"lead": ["u", 1, [0, 1]], "tail": [{"c": "-1", "m": [[["x", 1], 1]]}]}]}))
    reduced = run_cli_full("reduce", str(path), "--target", target)
    widened = run_cli_full("check", str(wide), "--order", "0")
    assert perf_counter() - start < 1
    assert checked == (4, "", "resource limit: prolongation would enumerate 4294967296 index entries,"
                              " above max_enumeration 1000000\n")
    assert reduced == (4, "", "resource limit: prolongation would enumerate 4294967294 index entries,"
                              " above max_enumeration 1000000\n")
    assert widened == (4, "", "resource limit: prolongation would enumerate 20000000 index entries,"
                              " above max_enumeration 1000000\n")


def test_a_one_variable_census_is_linear_in_its_order(tmp_path):
    # at n = 1 each grade holds one index: 20001 of them take well under 1 s
    path = tmp_path / "line.json"
    path.write_text(json.dumps({"n": 1, "m": 1, "equations": []}))
    start = perf_counter()
    code, out, err = run_cli_full("quotient", str(path), "--order", "20000")
    assert perf_counter() - start < 1
    assert (code, json.loads(out)["parametric_total"], err) == (0, 20001, "")


@pytest.mark.parametrize("argv", [["check"], ["quotient"], ["reduce", "--target", "[]"]],
                         ids=["check", "quotient", "reduce"])
def test_max_steps_reaches_coincident_leads(tmp_path, argv):
    # the file's budget of 0 cannot reduce the duplicate's difference
    # u_(0,1) - x1; --max-steps replaces it in every phase, that one included
    path = tmp_path / "coincident_budget.json"
    path.write_text(json.dumps({"n": 2, "m": 1, "ranking": "orderly", "bounds": {"max_steps": 0},
                                "equations": [
        {"lead": ["u", 1, [1, 0]], "tail": [{"c": "-1", "m": [[["u", 1, [0, 1]], 1]]}]},
        {"lead": ["u", 1, [0, 1]], "tail": [{"c": "-1", "m": [[["x", 1], 1]]}]},
        {"lead": ["u", 1, [1, 0]], "tail": [{"c": "-1", "m": [[["x", 1], 1]]}]},
    ]}))
    limited = run_cli_full(argv[0], str(path), *argv[1:])
    assert limited == (4, "", "resource limit: reduction exceeded 0 steps; last state: u[1,(0,1)] - x[1]\n")
    code, out, err = run_cli_full(argv[0], str(path), *argv[1:], "--max-steps", "100")
    assert err == "" and code == (0 if argv[0] == "reduce" else 3)
    if argv[0] == "check":
        assert json.loads(out)["coincident_leads"]["relations"][0]["status"] == "merged"


@pytest.mark.parametrize("command", ["check", "quotient", "reduce"])
def test_one_engine_per_command(monkeypatch, command):
    # one system, with its memos and its one solvability check, serves every
    # phase of a command (coincident leads, pairs, slice, reduce); nothing
    # autoreduces
    import diffalg.normal as normal

    calls = {"system": 0, "solvable": 0}
    init, solvable = normal.SolvedSystem.__init__, normal.check_conditionally_solvable

    def counted_init(self, *args):
        calls["system"] += 1
        init(self, *args)

    def counted_solvable(sys_):
        calls["solvable"] += 1
        return solvable(sys_)

    def no_autoreduce(*args):
        raise AssertionError("a command autoreduced")

    monkeypatch.setattr(normal.SolvedSystem, "__init__", counted_init)
    monkeypatch.setattr(normal, "check_conditionally_solvable", counted_solvable)
    monkeypatch.setattr(normal, "autoreduce", no_autoreduce)
    for path in sorted(PROBLEMS.glob("*.json")):
        n = json.loads(path.read_text())["n"]
        target = json.dumps([{"c": "1", "m": [[["u", 1, [1] * n], 1]]}])
        extra = ["--target", target] if command == "reduce" else []
        calls.update(system=0, solvable=0)
        code, _, _ = run_cli_full(command, str(path), *extra)
        assert code in (0, 1, 2, 3), path.name
        assert calls == {"system": 1, "solvable": 1}, path.name


def test_weight_ranking_audit_gate(tmp_path):
    data = json.loads((PROBLEMS / "heat.json").read_text())
    data["ranking"] = {"weights": [[1, 0, 0]]}  # ignores the exponent: fails (b)
    bad = tmp_path / "gated.json"
    bad.write_text(json.dumps(data))
    assert run_cli("check", str(bad))[0] == 1
    # the audit command itself bypasses the gate and reports the failure
    code, out = run_cli("ranking-audit", str(bad), "--samples", "200")
    assert code == 0
    report = json.loads(out)
    assert report["ok"] is False and report["counterexamples"]


def test_determinism_all_commands_all_problems():
    commands = {
        "check": [],
        "syzygies": [],
        "quotient": ["--order", "3"],
        "ranking-audit": ["--samples", "300"],
        "reduce": ["--target", json.dumps([{"c": "1", "m": [[["u", 1, [1, 1]], 1]]}])],
    }
    for path in sorted(PROBLEMS.glob("*.json")):
        for command, extra in commands.items():
            argv = [command, str(path)] + extra
            first = run_cli_full(*argv)
            second = run_cli_full(*argv)
            assert first == second, (path.name, command)


def problem_to_dict(problem):
    """Inverse of problem_from_dict up to JSON formatting."""
    rk = problem.ranking
    return {
        "n": problem.ctx.n,
        "m": problem.ctx.m,
        "ranking": {"weights": [[str(x) for x in row] for row in rk.weights]} if rk.kind == "weights" else rk.kind,
        "equations": [{"lead": var_to_json(f.lead), "tail": poly_to_json(f.tail)} for f in problem.forms],
        "bounds": problem.bounds._asdict(),
    }


def test_problem_round_trip():
    # parse -> serialize -> parse is the identity on the whole corpus
    for path in sorted(PROBLEMS.glob("*.json")):
        problem = load_problem(str(path))
        again = problem_from_dict(json.loads(json.dumps(problem_to_dict(problem))))
        assert again.ctx == problem.ctx
        assert again.ranking == problem.ranking
        assert again.forms == problem.forms
        assert again.bounds == problem.bounds
        raw = json.loads(path.read_text())
        for entry, form in zip(raw["equations"], problem.forms):
            assert poly_from_json(problem.ctx, poly_to_json(form.tail)) == form.tail
            assert poly_from_json(problem.ctx, entry["tail"]) == form.tail


def test_problem_validation(tmp_path):
    with pytest.raises(StructuralError):
        problem_from_dict({"n": 2})
    with pytest.raises(StructuralError):
        problem_from_dict({"n": 2, "m": 1, "equations": [], "bounds": {"order": 3}})
    with pytest.raises(StructuralError):
        problem_from_dict({"n": 2, "m": 1, "equations": [], "ranking": "lex"})
    term = {"c": "1", "m": [], "cc": "1"}
    with pytest.raises(StructuralError, match=r'^equations\[0\]\.tail\[0\]: unknown field "cc"$'):
        problem_from_dict({"n": 2, "m": 1, "equations": [{"lead": ["u", 1, [1, 0]], "tail": [term]}]})
    with pytest.raises(StructuralError, match=r"^equations\[0\]\.lead: u index 5 out of range 1\.\.1$"):
        problem_from_dict({"n": 2, "m": 1, "equations": [{"lead": ["u", 5, [2, 0]], "tail": []}]})
    problem = problem_from_dict({"n": 2, "m": 1, "equations": []})
    assert problem.bounds.order_bound == 6 and problem.bounds.max_steps == 100000
    assert problem.bounds.max_enumeration == 10 ** 6
    # a tail that holds its own lead is named in the file's notation
    own = tmp_path / "own_lead.json"
    own.write_text(json.dumps({"n": 1, "m": 1, "equations": [
        {"lead": ["u", 1, [1]], "tail": [{"c": "1", "m": [[["u", 1, [1]], 1]]}]}]}))
    assert run_cli_full("check", str(own)) == (
        1, "", "input error: equations[0]: tail of solved form depends on its own lead ['u', 1, [1]]\n")


SRC_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "diffalg", "check", str(PROBLEMS / "heat.json")],
        capture_output=True,
        text=True,
        env=SRC_ENV,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["verdict"] == "passive"


LONG, HALF = "1" * 5000, "1" * 2501  # past the interpreter's default 4300 digits, and half of that
LONG_INPUT = " exceeds the interpreter's integer string conversion limit of 4300 digits"
LONG_RESULT = ("resource limit: a result holds an integer of more than 4300 digits,"
               " the interpreter's limit for integer string conversion")
HALF_TAIL = {"n": 2, "m": 1, "equations": [{"lead": ["u", 1, [2, 0]],
                                            "tail": [{"c": HALF, "m": [[["u", 1, [0, 1]], 1]]}]}]}
HALF_TARGET = [{"c": HALF, "m": [[["u", 1, [2, 0]], 1]]}, {"c": "1", "m": [[["u", 1, [4, 0]], 1]]}]


@pytest.mark.parametrize("problem, argv, code, message", [
    (None, ["reduce", HEAT, "--target", json.dumps([{"c": LONG, "m": []}])], 1,
     "input error: --target[0]: rational of 5000 characters" + LONG_INPUT),
    (None, ["reduce", HEAT, "--target", f'[{{"c": {LONG}, "m": []}}]'], 1,
     "parse error: integer in --target" + LONG_INPUT),
    ('{"n": %s, "m": 1, "equations": []}' % LONG, ["check"], 1, "parse error: integer in {path}" + LONG_INPUT),
    (json.dumps(HALF_TAIL), ["reduce", "--target", json.dumps(HALF_TARGET[:1])], 4, LONG_RESULT),
    (json.dumps(HALF_TAIL), ["reduce", "--target", json.dumps(HALF_TARGET[:1]), "--pretty"], 4, LONG_RESULT),
    (json.dumps(HALF_TAIL), ["check"], 4, LONG_RESULT),
    # the budget error's own text would print a 5001-digit coefficient
    (json.dumps(HALF_TAIL), ["reduce", "--target", json.dumps(HALF_TARGET), "--max-steps", "2"], 4, LONG_RESULT),
    # a 4300-digit weight puts u_(2)'s class key, which the solvability
    # violation prints, at 4301 digits
    (json.dumps({"n": 1, "m": 1, "ranking": {"weights": [["1", "9" * 4300]]}, "equations": [
        {"lead": ["u", 1, [1]], "tail": [{"c": "1", "m": [[["u", 1, [2]], 1]]}]}]}), ["check"], 4, LONG_RESULT),
    # the census size 7 * m of a 4300-digit m is too long to print itself
    ('{"n": 1, "m": %s, "equations": []}' % ("9" * 4300), ["check"], 4,
     "resource limit: census would enumerate at least 2**14287 index entries, above max_enumeration 1000000"),
    # reduce refuses an unsolvable system by its violations, whose tail class
    # starts with the order 1 + (4300 nines) of u_(1, 99...9)
    ('{"n": 2, "m": 1, "equations": [{"lead": ["u", 1, [2, 0]], "tail": [{"c": "1", "m": [[["u", 1, [1, %s]], 1]]}]}]}'
     % ("9" * 4300), ["reduce", "--target", "[]"], 4, LONG_RESULT),
    # the budget error names the pair's combination, which holds u1_(0, 10**4300)
    (json.dumps({"n": 2, "m": 2, "ranking": "elimination", "equations": [
        {"lead": ["u", 2, [1, 0]], "tail": [{"c": "1", "m": [[["u", 1, [0, int("9" * 4300)]], 1]]}]},
        {"lead": ["u", 2, [0, 1]], "tail": [{"c": "1", "m": [[["u", 1, [1, 0]], 1]]}]},
        {"lead": ["u", 1, [1, 0]], "tail": []}]}), ["check", "--max-steps", "0"], 4, LONG_RESULT),
], ids=["rational", "json-integer", "file-integer", "reduce", "reduce-pretty", "check", "budget-message", "class-key",
        "census-size", "violation", "order-entry"])
def test_integers_past_the_digit_limit_end_cleanly(tmp_path, problem, argv, code, message):
    # the interpreter refuses to convert an integer of more than 4300 digits
    # to or from text: input past it exits 1, a result past it exits 4
    path = tmp_path / "long.json"
    if problem is not None:
        path.write_text(problem)
        argv = argv[:1] + [str(path)] + argv[1:]
    env = {key: value for key, value in SRC_ENV.items() if key != "PYTHONINTMAXSTRDIGITS"}
    proc = subprocess.run([sys.executable, "-m", "diffalg", *argv], capture_output=True, text=True, env=env)
    assert "Traceback" not in proc.stderr
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, "", message.format(path=path) + "\n")


@pytest.mark.parametrize("text, code", [("not a digit limit", None), (
    "Exceeds the limit (4300 digits) for integer string conversion: value has 5001 digits", 4)])
def test_only_the_digit_limit_value_error_exits_4(monkeypatch, text, code):
    # main turns the interpreter's digit-limit ValueError into exit 4 and lets
    # any other ValueError, a bug, surface as a traceback
    def handler(**kwargs):
        raise ValueError(text)

    monkeypatch.setitem(COMMANDS, "syzygies", (handler, *COMMANDS["syzygies"][1:]))
    if code is None:
        with pytest.raises(ValueError, match=text):
            main(["syzygies", HEAT])
    else:
        assert run_cli_full("syzygies", HEAT) == (code, "", LONG_RESULT + "\n")


@pytest.mark.parametrize("argv", [["check", "--order", str(10**30)], ["quotient", "--order", str(10**30)],
                                  ["ranking-audit", "--exhaustive-order", str(10**30)]],
                         ids=["check", "quotient", "audit"])
def test_a_huge_order_in_a_wide_ambient_is_refused_at_once(tmp_path, argv):
    # C(10**5 + 10**30, 10**5) has millions of bits; its count stops once it
    # passes 2**10**4 bits, so the refusal prints a lower bound at once
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"n": 100000, "m": 1, "equations": []}))
    start = perf_counter()
    code, out, err = run_cli_full(argv[0], str(path), *argv[1:])
    assert perf_counter() - start < 1
    assert (code, out) == (4, "")
    assert re.fullmatch(r"resource limit: (census|ranking audit exhaustive pass) would enumerate at least 2\*\*\d+"
                        r" (index entries|\(u, v, direction\) triples), above max_enumeration 1000000\n", err)
    assert int(re.search(r"2\*\*(\d+)", err).group(1)) >= 10**4


@pytest.mark.parametrize("argv, code", [(["check", HEAT], 0), (["check", str(PROBLEMS / "obstructed.json")], 2),
                                        (["ranking-audit", HEAT], 0), (["check", HEAT, "--pretty"], 0), (["-h"], 0)])
def test_closed_stdout_is_not_a_traceback(argv, code):
    # `diffalg check f.json | head -c 10`, made certain: the reader is gone
    # before the command writes
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, "-m", "diffalg", *argv], stdout=write, stderr=subprocess.PIPE,
                              text=True, env=SRC_ENV)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (code, "")


@pytest.mark.parametrize("argv, code", [
    (["check", str(PROBLEMS / "missing.json")], 1),
    (["reduce", HEAT, "--target", '[{"c":"1","m":[[["u",1,[2,1]],1]]}]', "--max-steps", "0"], 4),
])
def test_closed_stderr_keeps_the_exit_code(argv, code):
    # the error message meets a closed pipe; the exit code still names the
    # failure, not the lost message
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, "-m", "diffalg", *argv], stdout=subprocess.PIPE, stderr=write,
                              text=True, env=SRC_ENV)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stdout) == (code, "")


def test_pretty_mode_runs():
    code, out = run_cli("check", str(PROBLEMS / "heat.json"), "--pretty")
    assert code == 0 and out.startswith("verdict: passive")


def test_check_coincident_leads_obstructed(tmp_path):
    # the tail difference u_(0,1) is parametric: a derived relation, exit 2
    path = tmp_path / "coincident_obstructed.json"
    path.write_text(json.dumps({"n": 2, "m": 1, "ranking": "orderly", "equations": [
        {"lead": ["u", 1, [1, 0]], "tail": [{"c": "-1", "m": [[["u", 1, [0, 1]], 1]]}]},
        {"lead": ["u", 1, [1, 0]], "tail": []},
    ]}))
    code, out, err = run_cli_full("check", str(path))
    assert code == 2 and err == ""
    assert json.loads(out)["verdict"] == "obstructed"


def test_quotient_coincident_leads_like_check():
    path = str(PROBLEMS / "coincident_clash.json")
    assert run_cli_full("quotient", path) == run_cli_full("check", path)
    code, out, _ = run_cli_full("quotient", path)
    assert code == 3 and json.loads(out)["verdict"] == "inconsistent"


def test_quotient_decides_without_slice(monkeypatch):
    import diffalg.cli
    import diffalg.passivity

    def no_slice(*args):
        raise AssertionError("quotient built a normalized slice")

    census_calls = []
    census = diffalg.cli.quotient_census

    def counted(*args):
        census_calls.append(args)
        return census(*args)

    monkeypatch.setattr(diffalg.passivity, "normalized_slice", no_slice)
    monkeypatch.setattr(diffalg.passivity, "quotient_census", counted)
    monkeypatch.setattr(diffalg.cli, "quotient_census", counted)
    code, out = run_cli("quotient", str(PROBLEMS / "heat.json"), "--order", "2")
    assert code == 0 and json.loads(out)["parametric_total"] == 5
    assert len(census_calls) == 1


def test_weight_gate_never_runs_the_sampled_audit(monkeypatch):
    import diffalg.problem
    import diffalg.ranking

    def no_audit(*args, **kwargs):
        raise AssertionError("the load-time gate ran the sampled audit")

    for module in (diffalg.ranking, diffalg.problem):
        monkeypatch.setattr(module, "audit_compatibility", no_audit, raising=False)
    data = json.loads((PROBLEMS / "weights_heat.json").read_text())
    assert problem_from_dict(data).ranking.kind == "weights"
    data["ranking"] = {"weights": [[0, 1, 0], [0, 0, -1]]}
    with pytest.raises(StructuralError, match="fails the compatibility audit"):
        problem_from_dict(data)


def test_weight_gate_message(tmp_path):
    data = json.loads((PROBLEMS / "heat.json").read_text())
    data["ranking"] = {"weights": [[0, 1, 0], [0, 0, -1]]}  # direction 2 falls
    bad = tmp_path / "gated.json"
    bad.write_text(json.dumps(data))
    assert run_cli_full("check", str(bad)) == (1, "", (
        "input error: weight ranking fails the compatibility audit; first counterexample:"
        ' {"axiom": "b", "u": ["u", 1, [0, 0]], "v": null, "direction": 2}\n'
    ))


@pytest.mark.parametrize("edit", [
    pytest.param(lambda d: d.update(n=True), id="n"),
    pytest.param(lambda d: d.update(m=True), id="m"),
    pytest.param(lambda d: d["bounds"].update(order_bound=True), id="order_bound"),
    # the retired bound is no field at all, whatever its value
    pytest.param(lambda d: d["bounds"].update(degree_bound=False), id="degree_bound"),
    pytest.param(lambda d: d["bounds"].update(max_steps=True), id="max_steps"),
    pytest.param(lambda d: d["bounds"].update(max_enumeration=True), id="max_enumeration"),
    pytest.param(lambda d: d.update(ranking={"weights": [[0, True, 1], [1, 0, 0], [0, 1, 0]]}),
                 id="weight"),
    pytest.param(lambda d: d["equations"][0].update(lead=["u", True, [2, 0]]), id="u_index"),
    pytest.param(lambda d: d["equations"][0].update(lead=["u", 1, [2, False]]), id="multi_index"),
    pytest.param(lambda d: d["equations"][0]["tail"][0].update(m=[[["u", 1, [0, 1]], True]]),
                 id="exponent"),
    pytest.param(lambda d: d["equations"][0]["tail"][0].update(m=[[["x", True], 1]]), id="x_index"),
    pytest.param(lambda d: d["equations"][0]["tail"][0].update(c=True), id="coefficient"),
    pytest.param(lambda d: d.update(rankng="elimination"), id="top_level_key"),
    pytest.param(lambda d: d.update(bound=d.pop("bounds")), id="bounds_key"),
    pytest.param(lambda d: d["equations"][0].update(tial=[]), id="equation_key"),
    pytest.param(lambda d: d["equations"][0]["tail"][0].update(cc="1"), id="term_key"),
])
def test_booleans_are_not_numbers(tmp_path, edit):
    data = json.loads((PROBLEMS / "heat.json").read_text())
    edit(data)
    bad = tmp_path / "bool.json"
    bad.write_text(json.dumps(data))
    code, out, err = run_cli_full("check", str(bad))
    assert (code, out) == (1, "") and err.startswith("input error: ")
    if "degree_bound" in data.get("bounds", {}):
        assert err == 'input error: problem.bounds: unknown field "degree_bound"\n'


@pytest.mark.parametrize("argv", [
    ["check", "--order", "-1"],
    ["quotient", "--order", "-2"],
    ["check", "--max-steps", "-1"],
    ["reduce", "--max-steps", "-1", "--target", "[]"],
    ["ranking-audit", "--samples", "-5"],
    ["ranking-audit", "--exhaustive-order", "-3"],
])
def test_negative_counts_exit_1(argv):
    code, out, err = run_cli_full(argv[0], str(PROBLEMS / "heat.json"), *argv[1:])
    assert (code, out) == (1, "")
    assert err.startswith("input error: ") and "must be a nonnegative integer" in err


@pytest.mark.parametrize("argv", [
    ["check", "--order", "x"],
    ["check", "--bogus"],
    ["check", "--json"],
    ["reduce"],
])
def test_usage_errors_exit_1(argv):
    code, out, err = run_cli_full(argv[0], str(PROBLEMS / "heat.json"), *argv[1:])
    assert (code, out) == (1, "") and err.startswith("input error: ")


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "-h"])
    assert exc.value.code == 0 and "usage: diffalg check" in capsys.readouterr().out


# -- the table-driven parser ---------------------------------------------------------


@pytest.mark.parametrize("argv, message", [
    ([], "the following arguments are required: command"),
    (["foo"], "argument command: invalid choice: 'foo'"
              " (choose from 'check', 'reduce', 'syzygies', 'quotient', 'ranking-audit')"),
    (["check"], "the following arguments are required: file"),
    (["check", "--bogus"], "the following arguments are required: file"),
    (["reduce"], "the following arguments are required: file, --target"),
    (["reduce", HEAT], "the following arguments are required: --target"),
    (["check", HEAT, "--order"], "argument --order: expected one argument"),
    (["check", HEAT, "--order", "--pretty"], "argument --order: expected one argument"),
    (["check", HEAT, "--order", "x"], "argument --order: invalid count value: 'x'"),
    (["check", HEAT, "--order", "-1"], "argument --order: must be a nonnegative integer, got -1"),
    (["check", HEAT, "--order=-1"], "argument --order: must be a nonnegative integer, got -1"),
    (["ranking-audit", HEAT, "--seed", "x"], "argument --seed: invalid int value: 'x'"),
    (["check", HEAT, "--bogus"], "unrecognized arguments: --bogus"),
    (["check", HEAT, "extra"], "unrecognized arguments: extra"),
    (["check", HEAT, "--bogus", "x", "extra"], "unrecognized arguments: --bogus x extra"),
    (["syzygies", HEAT, "--order", "1"], "unrecognized arguments: --order 1"),
    (["check", HEAT, "--pretty=1"], "argument --pretty: ignored explicit argument '1'"),
    (["syzygies", HEAT, "--max-steps", "0"], "unrecognized arguments: --max-steps 0"),
    (["ranking-audit", HEAT, "--max-steps=0"], "unrecognized arguments: --max-steps=0"),
    (["ranking-audit", HEAT, "--samples", "0"], "argument --samples: must be a positive integer, got 0"),
])
def test_usage_error_messages(argv, message):
    assert run_cli_full(*argv) == (1, "", f"input error: {message}\n")


def test_flag_forms():
    wanted = run_cli_full("quotient", HEAT, "--order", "2")
    assert wanted[0] == 0 and wanted != run_cli_full("quotient", HEAT, "--order", "1")
    assert run_cli_full("quotient", HEAT, "--order=2") == wanted
    assert run_cli_full("quotient", "--order", "2", HEAT) == wanted
    assert run_cli_full("quotient", "--order=1", HEAT, "--order", "2") == wanted  # the last one wins
    assert run_cli_full("ranking-audit", "--seed", "-3", HEAT, "--samples=50")[0] == 0
    target = json.dumps([{"c": "1", "m": []}])
    assert run_cli_full("reduce", f"--target={target}", HEAT) == run_cli_full("reduce", HEAT, "--target", target)


@pytest.mark.parametrize("token", [
    "", "-", "--", "x", "-x", "--x", "-5", "-05", "-.5", "-5.", "-.", "-1.2", "-1.2.3", "-1e3", "-1_0", "- 5",
    "-5 ", "-5\n", "-+5", "--5", "-٣", "-١.٢", "-²", "-½", "-Ⅻ", "-５", "-5.²", "-.٣",
])
def test_is_value_matches_the_negative_number_pattern(token):
    # the regex-free test reads "-" + \d+ or "-" + \d*.\d+ exactly as
    # re.fullmatch does: \d is a Unicode decimal digit, as for str.isdecimal
    pattern = token[:1] != "-" or token == "-" or re.fullmatch(r"-\d+|-\d*\.\d+", token) is not None
    assert cli._is_value(token) == pattern


@pytest.mark.parametrize("command", [None, *COMMANDS])
@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_help_forms(capsys, command, flag):
    argv = [flag] if command is None else [command, HEAT, flag, "--bogus"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out = capsys.readouterr().out
    assert exc.value.code == 0
    if command is None:
        assert out.startswith("usage: diffalg <cmd>") and all(f"diffalg {c} file" in out for c in COMMANDS)
    else:
        assert out.startswith(f"usage: diffalg {command} file")
        assert all(option in out for option in [*COMMON, *COMMANDS[command][2]])
        assert ("--max-steps" in out) == (command in ("check", "reduce", "quotient"))


SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_python(code, *args, **kwargs):
    """Run code in a fresh interpreter with src first on the path."""
    return subprocess.run([sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]); " + code, SRC, *args],
                          capture_output=True, text=True, **kwargs)


def test_check_path_loads_no_argparse():
    # argparse's first build loads gettext and locale, and dataclasses loads
    # inspect; a process that runs one command cannot afford them
    proc = run_python(
        "from diffalg.cli import main; main(['check', sys.argv[2]]);"
        " print(sorted({'argparse', 'gettext', 'locale', 'dataclasses', 'inspect'}"
        " & set(sys.modules)), file=sys.stderr)", HEAT)
    assert proc.returncode == 0 and json.loads(proc.stdout)["verdict"] == "passive"
    assert proc.stderr == "[]\n"


def test_benchmark_tracer_installs():
    # perfbench/trace.py wraps the per-layer functions by module attribute
    # name, so each one it reads must stay where it is, and the phases of a
    # traced check must still call them through those names; this system's
    # pair check and slice substitute normal forms
    path = str(PROBLEMS / "elim_system.json")
    proc = run_python(
        "import json; sys.path.insert(0, sys.argv[2]); from perfbench.trace import Tracer, summarize;"
        " tracer = Tracer(); tracer.install(); from diffalg.cli import main;"
        " code = tracer.command(main, ['check', sys.argv[3]]);"
        " print(json.dumps([code, summarize(tracer.payload())[0]]), file=sys.stderr)", str(Path(SRC).parent), path)
    assert proc.returncode == 0, proc.stderr
    code, metrics = json.loads(proc.stderr)
    assert (code, proc.stdout, "") == run_cli_full("check", path)
    for span in ("problem.load_ms", "passivity.coincident_ms", "passivity.pairs_ms", "passivity.census_ms",
                 "normal.slice_ms"):
        assert metrics[span] > 0, span
    assert metrics["passivity.pair_count"] == metrics["normal.solvable_calls"] == 1
    assert metrics["normal.find_principal_calls"] > 0 and metrics["multiindex.indices_yielded"] > 0
    # every normal form substitutes through DiffPoly.substitute, the name the tracer wraps
    assert metrics["algebra.substitute_calls"] > 0 and metrics["algebra.peak_terms"] > 0


def test_benchmark_traced_mode_reports_every_metric():
    # the benchmark's --trace 1 mode: the tracer wraps the engine's kernels by
    # name (normal.autoreduce, normal.find_principal, syzygy.operator_apply,
    # DiffPoly.total_derivative, ...), and a traced check must still run and
    # yield every per-layer metric; the slice derives through total_derivative
    proc = run_python(
        "import json; sys.path.insert(0, sys.argv[2]); from perfbench.trace import METRICS, Tracer, summarize;"
        " tracer = Tracer(); tracer.install(); from diffalg import cli;"
        " code = tracer.command(cli.main, ['check', sys.argv[3]]);"
        " print(json.dumps([code, list(METRICS), summarize(tracer.payload())[0]]), file=sys.stderr)",
        str(Path(SRC).parent), str(PROBLEMS / "grad3.json"))
    assert proc.returncode == 0, proc.stderr
    code, names, metrics = json.loads(proc.stderr)
    assert code == 0 and json.loads(proc.stdout)["verdict"] == "passive"
    assert names and set(names) <= set(metrics)
    assert metrics["algebra.total_derivative_calls"] > 0 and metrics["normal.slice_ms"] > 0


def test_package_exports_load_lazily():
    proc = run_python("import diffalg; print(sorted(m for m in sys.modules if m.startswith('diffalg.')))")
    assert proc.returncode == 0 and proc.stdout == "[]\n"
    namespace = {}
    exec("from diffalg import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == diffalg.__all__ and len(diffalg.__all__) == 35
    for name in diffalg.__all__:
        assert getattr(diffalg, name) is namespace[name]
        assert name in dir(diffalg)
    assert not {"ClassKey", "ModuleVector", "NormalForm"} & set(diffalg.__all__)
    with pytest.raises(AttributeError):
        diffalg.nope
    with pytest.raises(ImportError):
        from diffalg import nope  # noqa: F401
    with pytest.raises(ImportError):
        from diffalg import NormalForm  # noqa: F401


# -- start-up ---------------------------------------------------------------------


def test_package_ships_only_what_the_cli_loads():
    # every module of the package is one `import diffalg.cli` loads, so the
    # package ships no test-only code; __main__ is `python -m diffalg`, which
    # runs a command when imported.  Every public name resolves, and resolving
    # them all loads no module beyond that closure
    proc = run_python(
        "import json, pkgutil, diffalg, diffalg.cli;"
        " loaded = lambda: sorted(m.split('.', 1)[1] for m in sys.modules if m.startswith('diffalg.'));"
        " shipped = sorted(m.name for m in pkgutil.iter_modules(diffalg.__path__) if m.name != '__main__');"
        " by_cli = loaded(); [getattr(diffalg, name) for name in diffalg.__all__];"
        " print(json.dumps([shipped, by_cli, loaded()]))")
    assert proc.returncode == 0, proc.stderr
    shipped, by_cli, by_exports = json.loads(proc.stdout)
    assert by_cli == shipped and by_exports == shipped
    assert {"algebra", "cli", "normal", "passivity", "syzygy"} <= set(shipped)


def test_check_imports_no_typing():
    # typing costs a fresh process about 6 ms; site-packages may import it
    # themselves, so the interpreter runs without them (-S)
    proc = subprocess.run(
        [sys.executable, "-S", "-c", "import sys; sys.path.insert(0, sys.argv[1]); from diffalg.cli import main;"
         " code = main(['check', sys.argv[2]]); print(code, 'typing' in sys.modules, file=sys.stderr)", SRC, HEAT],
        capture_output=True, text=True)
    assert json.loads(proc.stdout)["verdict"] == "passive"
    assert proc.stderr == "0 False\n"


def test_commands_import_nothing_at_run_time():
    # the benchmark forks after `import diffalg.cli`, so a module a command
    # imported late would be compiled again in every child
    argvs = [golden_argv(label, path) for label in GOLDEN_COMMANDS for path in sorted(PROBLEMS.glob("*.json"))
             if label.split()[0] in ("check", "quotient", "reduce", "syzygies")]
    proc = run_python(
        "import io, json; from contextlib import redirect_stderr, redirect_stdout; import diffalg.cli;"
        " before = set(sys.modules)\n"
        "for argv in json.loads(sys.argv[2]):\n"
        "    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()): diffalg.cli.main(argv)\n"
        "print(sorted(set(sys.modules) - before))", json.dumps(argvs), cwd=PROBLEMS.parent)
    assert len(argvs) == 70 and (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr


def records():
    """One instance of every record type of the CLI's import closure, from
    real runs."""
    problem = load_problem(str(PROBLEMS / "gradient_consistent.json"))
    system = SolvedSystem(problem.forms, problem.ranking)
    report = is_passive(system)
    merged = coincident_lead_analysis(load_problem(str(PROBLEMS / "coincident_merge.json")).forms, problem.ranking)
    result = reduce(DiffPoly.variable(problem.ctx, Deriv(1, (2, 1))), system)
    audit = diffalg.audit_compatibility(Ranking.from_weights(problem.ctx, [[1, -1, 0]]), 5)
    return [Indep(2), problem.forms[0].lead, problem.ctx, problem.forms[0], system.solvability,
            result.trace[0], result, report.normalized, report.pairs[0], report.census, report,
            merged.relations[0], merged, problem.bounds, problem, audit.counterexamples[0], audit,
            report.pairs[0].tau]


def test_records_behave_as_plain_tuples():
    cases = records()
    assert len({type(r) for r in cases}) == 18
    for r in cases:
        kind, plain = type(r), tuple(r)
        assert not hasattr(r, "__dict__") and "__annotations__" not in vars(kind), kind
        assert r == plain and plain == r and len(r._fields) == len(plain) == len(kind._fields)
        assert r._asdict() == dict(zip(r._fields, plain))
        for same in (r._replace(), copy.copy(r), copy.deepcopy(r), pickle.loads(pickle.dumps(r))):
            assert type(same) is kind and same == r, kind
        assert r._replace(**{r._fields[-1]: None})[:-1] == plain[:-1]
        try:
            expected = hash(plain)
        except TypeError:
            with pytest.raises(TypeError):
                hash(r)
        else:
            assert hash(r) == expected
    # the hot constructors are the generated ones, or one __new__ over them
    assert Deriv.__bases__ == (tuple,) and Deriv(1, (0,)) == (1, (0,))
    assert Indep(3) == (0, 3) and Context(2, 1) == (2, 1)


# -- the JSON renderer ----------------------------------------------------------------

TEXT = ["a", "Z", "0", " ", '"', "\\", "/", "\n", "\t", "\x00", "\x1f", "\x7f", "é", "日", "\u2028",
        "\U0001f600", "\ud800"]


def random_payload(rng, depth=0, leaf=None):
    """A JSON tree to depth 4; with leaf, some scalars are leaf(rng) objects."""
    kind = rng.randrange(7 if depth < 4 else 3)
    if kind == 0:
        return leaf(rng) if leaf and rng.random() < 0.7 else rng.choice([None, True, False])
    if kind == 1:
        return rng.choice([0, -1, 2 ** 64 + 1, -(10 ** 30), rng.randint(-10 ** 6, 10 ** 6)])
    if kind == 2:
        return "".join(rng.choice(TEXT) for _ in range(rng.randrange(6)))
    items = [random_payload(rng, depth + 1, leaf) for _ in range(rng.randrange(4))]
    if kind == 3:
        return items
    if kind == 4:
        return tuple(items)
    return {"".join(rng.choice(TEXT) for _ in range(rng.randrange(4))): item for item in items}


def random_leaf(rng):
    """A DiffPoly, Deriv or Indep over n in 1..3: constants, x-only monomials,
    exponents above 1 and, scaled, large p/q coefficients of either sign."""
    ctx = Context(rng.randint(1, 3), rng.randint(1, 2))
    if rng.random() < 0.4:
        return gen.rand_variable(rng, ctx, 3)
    f = gen.rand_poly(rng, ctx)
    return f * Fraction(-(10 ** 30) - 7, 3 ** 40) if rng.random() < 0.3 else f


def random_form(rng):
    """A SolvedForm over n in 1..3: a random tail of order at most 4 under a
    lead of order above it."""
    ctx = Context(rng.randint(1, 3), rng.randint(1, 2))
    lead = Deriv(rng.randint(1, ctx.m), tuple(e + 5 for e in gen.rand_index(rng, ctx.n, 3)))
    return SolvedForm(lead, gen.rand_poly(rng, ctx))


def plain(obj):
    """obj with its DiffPoly, Deriv and Indep leaves as poly_to_json and
    var_to_json give them, and each SolvedForm as the dict of its lead and
    tail so given: the reference that render must match."""
    if type(obj) is DiffPoly:
        return poly_to_json(obj)
    if type(obj) in (Deriv, Indep):
        return var_to_json(obj)
    if type(obj) is SolvedForm:
        return {"lead": var_to_json(obj.lead), "tail": poly_to_json(obj.tail)}
    if isinstance(obj, dict):
        return {k: plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [plain(v) for v in obj]
    return obj


def assert_renders_plain(obj):
    assert render(obj) == json.dumps(plain(obj), indent=2, sort_keys=True)


def test_render_matches_json_dumps():
    rng = random.Random(6)
    payloads = [[], {}, [[]], {"": {}}, ([], {}, ()), {"b": [[], [{}]], "a": None}]
    payloads += [random_payload(rng) for _ in range(600)]
    for obj in payloads:
        assert render(obj) == json.dumps(obj, indent=2, sort_keys=True)
    ctx1, ctx = Context(1, 1), Context(2, 2)
    x1, u = DiffPoly.variable(ctx, Indep(1)), DiffPoly.variable(ctx, Deriv(2, (0, 3)))
    f = (x1 * x1 * u - DiffPoly(ctx, {(): Fraction(-22, 7)})) * u + x1 * Fraction(10 ** 20, 3)
    edges = [
        DiffPoly(ctx), DiffPoly(ctx, {(): Fraction(-5, 3)}), x1 * x1 * DiffPoly.variable(ctx, Indep(2)),
        f, DiffPoly.variable(ctx1, Deriv(1, (4,))) * DiffPoly.variable(ctx1, Indep(1)), Deriv(1, (2,)), Indep(3),
    ]
    # one monomial, and one variable, at several indents in a single call
    payloads = edges + [edges, {"a": f, "b": [f, [f, {"c": (f, Deriv(2, (0, 3)))}]]}]
    payloads += [random_payload(rng, leaf=random_leaf) for _ in range(400)]
    # Derivs of order lengths 2 and 3 next to Indep(2) and Indep(3) at one
    # indent, bare and inside monomials: a Deriv template is cached under its
    # order length, which must not meet a fragment cached under a variable
    ctx3 = Context(3, 2)
    d2, d3 = Deriv(1, (0, 3)), Deriv(2, (1, 0, 2))
    p2 = DiffPoly.variable(ctx, d2) * DiffPoly.variable(ctx, Indep(2)) + DiffPoly.variable(ctx, Deriv(1, (3, 0)))
    p3 = DiffPoly.variable(ctx3, d3) * DiffPoly.variable(ctx3, Indep(3)) - DiffPoly.variable(ctx3, Deriv(1, (0, 3, 0)))
    mixed = [d2, Indep(2), d3, Indep(3), p2, p3, Deriv(1, (3, 0)), Deriv(1, (0, 3, 0))]
    payloads += [mixed, {"a": mixed, "b": [p3, d3, Indep(3), p2, d2, Indep(2)], "c": (d2, [d3, [Indep(2)]])}]
    # lists of Derivs render in one template pass: mixed order lengths, a
    # Deriv list that turns into something else later, and a tuple
    derivs = [d2, d3, Deriv(1, (4,)), d2, Deriv(2, (1, 1, 1, 1))]
    payloads += [derivs, [d2, d3, Indep(2)], [d2, d2, p2], [d3, [d2]], [d2, None], (d2, d3), {"t": (d3, d3)}, [[d2]]]
    # slice generators: SolvedForm leaves bare, in lists, at several indents
    # and next to lists of Derivs, with an empty tail and a large coefficient
    fa, fb = SolvedForm(Deriv(2, (2, 2)), p2), SolvedForm(Deriv(1, (0, 0, 4)), p3)
    fc, fd = SolvedForm(Deriv(1, (1, 1)), DiffPoly(ctx)), SolvedForm(Deriv(1, (0, 0)), f)
    payloads += [fa, fc, [fa, fb, fc, fd], {"g": [fc, fd], "h": {"i": fa}}, (fa, [fb, [fc, [fd]]]),
                 [d2, d2, fa], [fa, d2, d2], {"d": [d2, d2], "f": [fb, fb], "e": [d3, fb]}, [[fa], [d2, d2], fa.tail]]
    payloads += [random_payload(rng, leaf=random_form) for _ in range(150)]
    # census-sized reports: an empty system with n = 8 at bound 4, and heat
    # with n = 6 at bound 5, whose slice has 84 generators
    empty_ctx = Context(8, 1)
    census = is_passive(SolvedSystem((), Ranking.from_spec(empty_ctx, "orderly"), Bounds(order_bound=4))).to_json()
    heat = problem_from_dict(gen.family_problem(random.Random(3), "heat", 6, 5))
    report = is_passive(SolvedSystem(heat.forms, heat.ranking, Bounds(order_bound=5))).to_json()
    assert len(census["census"]["parametric"]) == 495 and len(report["normalized_slice"]["generators"]) == 84
    payloads += [census, report]
    for obj in payloads:
        assert_renders_plain(obj)


@pytest.mark.parametrize("obj", [1.5, {1: "a"}, {"a": {(1,): 2}}, [Fraction(1, 2)], {"a": {1, 2}},
                                 Bounds(), [TauPair(0, 1, (0, 1), (1, 0))]])
def test_render_rejects_other_types(obj):
    with pytest.raises(TypeError):
        render(obj)


def emitted_payloads(monkeypatch, *argvs):
    """The JSON tree each command would render, in order."""
    trees = []
    monkeypatch.setattr(cli, "_emit", lambda pretty, payload, lines: trees.append(payload()))
    for argv in argvs:
        main(list(argv))
    return trees


def test_reports_render_as_their_plain_json(monkeypatch, tmp_path):
    """Every report renders as json.dumps of its plain tree: the corpus under
    check, quotient and reduce, output-heavy families and seeded random
    systems, some with coincident leads."""
    argvs = []
    for path in sorted(PROBLEMS.glob("*.json")):
        n = json.loads(path.read_text())["n"]
        target = json.dumps([{"c": "1", "m": [[["u", 1, [1] * n], 1]]}, {"c": "-2/3", "m": [[["x", 1], 2]]}])
        argvs += [("check", str(path)), ("quotient", str(path)), ("reduce", str(path), "--target", target)]
    rng = random.Random(11)
    for family, n, bound in [("heat", 4, 4), ("riccati", 3, 4), ("elimination", 2, 4)]:
        path = tmp_path / f"{family}.json"
        path.write_text(json.dumps(gen.family_problem(rng, family, n, bound)))
        argvs += [("check", str(path)), ("quotient", str(path))]
    trees = emitted_payloads(monkeypatch, *argvs)
    assert len(trees) == len(argvs) - 1  # reduce exits 1 on coincident_clash.json
    assert [tree["verdict"] for tree in trees[-6::2]] == ["passive"] * 3
    for _ in range(40):
        ctx = Context(rng.randint(1, 3), rng.randint(1, 2))
        system = gen.rand_solved_system(rng, ctx, Ranking.from_spec(ctx, "orderly"), rng.randint(1, 4))
        forms = list(system.equations)
        xs = [Indep(j) for j in range(1, ctx.n + 1)]
        forms += [SolvedForm(eq.lead, eq.tail + gen.rand_poly_over(rng, ctx, xs)) for eq in forms[:rng.randint(0, 2)]]
        coincidence = coincident_lead_analysis(forms, system.ranking, Bounds(order_bound=3))
        trees.append(coincidence.to_json())
        if coincidence.system is not None:
            trees.append(is_passive(coincidence.system).to_json())
            result = reduce(gen.rand_poly(rng, ctx), coincidence.system)
            trees.append({"remainder": result.remainder, "trace": [step.to_json() for step in result.trace]})
    assert any(relation["remainder"] for tree in trees for relation in tree.get("relations", []))
    for tree in trees:
        assert_renders_plain(tree)


# -- malformed input names where it sits --------------------------------------------


@pytest.mark.parametrize("weights, message", [
    ([5], "weight row 0: expected a list, got int"),
    ([[0, 1, 1], "x"], "weight row 1: expected a list, got str"),
    (3, "weight ranking needs a non-empty list of rows"),
    ([], "weight ranking needs a non-empty list of rows"),
    ([["1e3", 1, 1]], "weight row 0: bad rational \"1e3\"; expected a decimal-free 'p' or 'p/q' string"),
    ([[0, 1, 1], [" 1", 0, 0]], "weight row 1: bad rational \" 1\"; expected a decimal-free 'p' or 'p/q' string"),
    ([[0, "1.5", 1]], "weight row 0: bad rational \"1.5\"; expected a decimal-free 'p' or 'p/q' string"),
    ([[0, 1, 1], [0, "1/0", 0]], "weight row 1: bad rational \"1/0\"; expected a decimal-free 'p' or 'p/q' string"),
    ([[0, 1.5, 1]], "weight row 0: bad rational 1.5; expected a decimal-free 'p' or 'p/q' string"),
    ([["2\n", 1, 1]], "weight row 0: bad rational \"2\\n\"; expected a decimal-free 'p' or 'p/q' string"),
])
def test_weight_ranking_shape(tmp_path, weights, message):
    data = json.loads(Path(HEAT).read_text())
    data["ranking"] = {"weights": weights}
    path = tmp_path / "shape.json"
    path.write_text(json.dumps(data))
    expected = (1, "", f"input error: {message}\n")
    assert run_cli_full("check", str(path)) == expected
    assert run_cli_full("check", HEAT, "--ranking", json.dumps({"weights": weights})) == expected


@pytest.mark.parametrize("term, message", [
    ({"c": "1"}, "expected object with 'c' and 'm'"),
    (5, "expected object with 'c' and 'm'"),
    ({"c": "1", "m": [], "cc": 1}, 'unknown field "cc"'),
    ({"c": "0.5", "m": []}, "bad rational \"0.5\"; expected a decimal-free 'p' or 'p/q' string"),
    ({"c": "1", "m": 5}, "'m' must be a list of factors, got 5"),
    ({"c": "1", "m": [[["u", 1, [0, 1]], 0]]}, "exponent must be a positive integer, got 0"),
    ({"c": "1", "m": [[["u", 7, [0, 1]], 1]]}, "u index 7 out of range 1..1"),
    ({"c": "2\n", "m": []}, "bad rational \"2\\n\"; expected a decimal-free 'p' or 'p/q' string"),
    ({"c": "\u0663", "m": []}, "bad rational \"\\u0663\"; expected a decimal-free 'p' or 'p/q' string"),
])
def test_term_errors_name_their_path(tmp_path, term, message):
    data = json.loads(Path(HEAT).read_text())
    data["equations"][0]["tail"].append(term)
    path = tmp_path / "term.json"
    path.write_text(json.dumps(data))
    assert run_cli_full("check", str(path)) == (1, "", f"input error: equations[0].tail[1]: {message}\n")
    target = json.dumps([{"c": "1", "m": []}, term])
    assert run_cli_full("reduce", HEAT, "--target", target) == (1, "", f"input error: --target[1]: {message}\n")


def test_mutated_problems_and_flags_end_cleanly():
    # tests/fuzz.py runs every case in one child under its own address-space
    # and CPU caps, each case under a wall-time alarm
    proc = subprocess.run([sys.executable, str(Path(__file__).with_name("fuzz.py")), "1", "1000"],
                          capture_output=True, text=True, env=SRC_ENV, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["failures"] == []
    # the draws reach every verdict and every error, not only the parser
    assert sorted(report["exit_codes"]) == ["0", "1", "2", "3", "4"]
    assert sum(report["exit_codes"].values()) == report["cases"] == 1000
