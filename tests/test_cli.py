"""The command-line surface: parsing, verdicts, exit codes, determinism."""

import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import pytest

from diffalg import (Context, DiffPoly, Ranking, SolvedForm, StructuralError, coincident_lead_analysis, is_passive,
                     poly_from_json, poly_to_json, reduce)
import diffalg
from diffalg import cli
from diffalg.algebra import Deriv, Indep, var_to_json
from diffalg.cli import COMMANDS, COMMON, main, render
from diffalg.syzygy import TauPair
from diffalg.problem import Bounds, load_problem, problem_from_dict

import gen

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
    # the sampled pass draws from the C(2 + 8, 2) = 45 indices up to order 8
    path.write_text(json.dumps({"n": 2, "m": 1, "equations": [], "bounds": {"max_enumeration": 45}}))
    assert run_cli_full("ranking-audit", str(path), "--exhaustive-order", "1", "--samples", "50")[0] == 0
    assert run_cli_full("ranking-audit", str(path), "--exhaustive-order", "2", "--samples", "50") == (
        4, "", "resource limit: ranking audit exhaustive pass would enumerate 72 (u, v, direction) triples,"
               " above max_enumeration 45\n")
    path.write_text(json.dumps({"n": 2, "m": 1, "equations": [], "bounds": {"max_enumeration": 44}}))
    assert run_cli_full("ranking-audit", str(path), "--exhaustive-order", "0", "--samples", "50") == (
        4, "", "resource limit: ranking audit sampled pass would enumerate 45 multi-indices,"
               " above max_enumeration 44\n")


def test_ranking_override():
    code, out = run_cli(
        "check", str(PROBLEMS / "heat.json"), "--ranking", "elimination"
    )
    assert code == 0
    assert json.loads(out)["verdict"] == "passive"


def test_malformed_json_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 2,\n  "m": }')
    assert main(["check", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "line 2" in err and "column" in err


def test_missing_file_exit_1():
    assert run_cli("check", "/nonexistent/problem.json")[0] == 1


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
    # C(4002, 2) derivatives up to order 2 in 4000 directions: refused before
    # the census enumerates any, under the default budget of 10^6
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"n": 4000, "m": 1, "equations": [], "bounds": {"order_bound": 2}}))
    start = perf_counter()
    limited = run_cli_full(command, str(path))
    assert perf_counter() - start < 1
    assert limited == (4, "", "resource limit: census would enumerate 8006001 derivatives,"
                              " above max_enumeration 1000000\n")
    # the budget is m * C(n + order_bound, n), at most as large as allowed
    path.write_text(json.dumps({"n": 3, "m": 2, "equations": [], "bounds": {"order_bound": 2, "max_enumeration": 20}}))
    code, out, err = run_cli_full(command, str(path))
    assert (code, err) == (0, "")
    assert json.loads(out).get("census", json.loads(out))["parametric_total"] == 20
    assert run_cli_full(command, str(path), "--order", "3")[0] == 4


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


def test_problem_validation():
    with pytest.raises(StructuralError):
        problem_from_dict({"n": 2})
    with pytest.raises(StructuralError):
        problem_from_dict({"n": 2, "m": 1, "equations": [], "bounds": {"order": 3}})
    with pytest.raises(StructuralError):
        problem_from_dict({"n": 2, "m": 1, "equations": [], "ranking": "lex"})
    term = {"c": "1", "m": [], "cc": "1"}
    with pytest.raises(StructuralError, match=r"^equations\[0\]\.tail\[0\]: unknown field 'cc'$"):
        problem_from_dict({"n": 2, "m": 1, "equations": [{"lead": ["u", 1, [1, 0]], "tail": [term]}]})
    with pytest.raises(StructuralError, match=r"^equations\[0\]\.lead: u index 5 out of range 1\.\.1$"):
        problem_from_dict({"n": 2, "m": 1, "equations": [{"lead": ["u", 5, [2, 0]], "tail": []}]})
    problem = problem_from_dict({"n": 2, "m": 1, "equations": []})
    assert problem.bounds.order_bound == 6 and problem.bounds.max_steps == 100000
    assert problem.bounds.max_enumeration == 10 ** 6


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "diffalg", "check", str(PROBLEMS / "heat.json")],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))},
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["verdict"] == "passive"


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
        " {'axiom': 'b', 'u': ['u', 1, [0, 0]], 'v': None, 'direction': 2}\n"
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
        assert err == "input error: problem.bounds: unknown field 'degree_bound'\n"


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


def run_python(code, *args):
    """Run code in a fresh interpreter with src first on the path."""
    return subprocess.run([sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]); " + code, SRC, *args],
                          capture_output=True, text=True)


def test_check_path_loads_no_argparse():
    # argparse's first build loads gettext and locale, and dataclasses loads
    # inspect; a process that runs one command cannot afford them, nor the
    # membership oracle, which only the tests use
    proc = run_python(
        "from diffalg.cli import main; main(['check', sys.argv[2]]);"
        " print(sorted({'argparse', 'gettext', 'locale', 'dataclasses', 'inspect', 'diffalg.oracle'}"
        " & set(sys.modules)), file=sys.stderr)", HEAT)
    assert proc.returncode == 0 and json.loads(proc.stdout)["verdict"] == "passive"
    assert proc.stderr == "[]\n"


def test_benchmark_tracer_installs():
    # perfbench/trace.py wraps the per-layer functions by module attribute
    # name, so each one it reads must stay where it is
    proc = run_python("sys.path.insert(0, sys.argv[2]); from perfbench.trace import Tracer; Tracer().install()",
                      str(Path(SRC).parent))
    assert proc.returncode == 0, proc.stderr


def test_package_exports_load_lazily():
    proc = run_python("import diffalg; print(sorted(m for m in sys.modules if m.startswith('diffalg.')))")
    assert proc.returncode == 0 and proc.stdout == "[]\n"
    namespace = {}
    exec("from diffalg import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == diffalg.__all__ and len(diffalg.__all__) == 42
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
    return f.scale(Fraction(-(10 ** 30) - 7, 3 ** 40)) if rng.random() < 0.3 else f


def plain(obj):
    """obj with its DiffPoly, Deriv and Indep leaves as poly_to_json and
    var_to_json give them: the reference that render must match."""
    if type(obj) is DiffPoly:
        return poly_to_json(obj)
    if type(obj) in (Deriv, Indep):
        return var_to_json(obj)
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
    f = (x1 * x1 * u - DiffPoly.constant(ctx, Fraction(-22, 7))) * u + x1.scale(Fraction(10 ** 20, 3))
    edges = [
        DiffPoly.zero(ctx), DiffPoly.constant(ctx, Fraction(-5, 3)), x1 * x1 * DiffPoly.variable(ctx, Indep(2)),
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
        system = gen.rand_solved_system(rng, ctx, Ranking.orderly(ctx), rng.randint(1, 4))
        forms = list(system.equations)
        xs = [Indep(j) for j in range(1, ctx.n + 1)]
        forms += [SolvedForm(eq.lead, eq.tail + gen.rand_poly_over(rng, ctx, xs)) for eq in forms[:rng.randint(0, 2)]]
        coincidence = coincident_lead_analysis(forms, system.ranking)
        trees.append(coincidence.to_json())
        if coincidence.system is not None:
            trees.append(is_passive(coincidence.system, 3).to_json())
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
    ([["1e3", 1, 1]], "weight row 0: bad rational '1e3'; expected a decimal-free 'p' or 'p/q' string"),
    ([[0, 1, 1], [" 1", 0, 0]], "weight row 1: bad rational ' 1'; expected a decimal-free 'p' or 'p/q' string"),
    ([[0, "1.5", 1]], "weight row 0: bad rational '1.5'; expected a decimal-free 'p' or 'p/q' string"),
    ([[0, 1, 1], [0, "1/0", 0]], "weight row 1: bad rational '1/0'; expected a decimal-free 'p' or 'p/q' string"),
    ([[0, 1.5, 1]], "weight row 0: bad rational 1.5; expected a decimal-free 'p' or 'p/q' string"),
    ([["2\n", 1, 1]], "weight row 0: bad rational '2\\n'; expected a decimal-free 'p' or 'p/q' string"),
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
    ({"c": "1", "m": [], "cc": 1}, "unknown field 'cc'"),
    ({"c": "0.5", "m": []}, "bad rational '0.5'; expected a decimal-free 'p' or 'p/q' string"),
    ({"c": "1", "m": 5}, "'m' must be a list of factors, got 5"),
    ({"c": "1", "m": [[["u", 1, [0, 1]], 0]]}, "exponent must be a positive integer, got 0"),
    ({"c": "1", "m": [[["u", 7, [0, 1]], 1]]}, "u index 7 out of range 1..1"),
    ({"c": "2\n", "m": []}, "bad rational '2\\n'; expected a decimal-free 'p' or 'p/q' string"),
    ({"c": "\u0663", "m": []}, "bad rational '\u0663'; expected a decimal-free 'p' or 'p/q' string"),
])
def test_term_errors_name_their_path(tmp_path, term, message):
    data = json.loads(Path(HEAT).read_text())
    data["equations"][0]["tail"].append(term)
    path = tmp_path / "term.json"
    path.write_text(json.dumps(data))
    assert run_cli_full("check", str(path)) == (1, "", f"input error: equations[0].tail[1]: {message}\n")
    target = json.dumps([{"c": "1", "m": []}, term])
    assert run_cli_full("reduce", HEAT, "--target", target) == (1, "", f"input error: --target[1]: {message}\n")
