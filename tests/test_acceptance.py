"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Every check is either exhaustive, or randomized with a fixed seed and a
stated minimum count; a single failure fails the criterion.  Each test prints
one PASS line so a plain `pytest -s tests/test_acceptance.py` reads as a
checklist.
"""

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from itertools import product
from pathlib import Path

from diffalg import (
    Context,
    DiffPoly,
    Ranking,
    SolvedForm,
    SolvedSystem,
    audit_compatibility,
    is_passive,
    normalized_slice,
    quotient_census,
    reduce,
)
from diffalg import multiindex as mi
from diffalg.cli import main

import gen
from reference.oracle import MembershipInstance, divide_by_normalized, membership, prolong, syzygy_oracle

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"


def report(criterion, text):
    print(f"ACCEPTANCE {criterion}: PASS - {text}")


def _ctx_poly_helpers(ctx):
    x = lambda j: DiffPoly.variable(ctx, ctx.x(j))  # noqa: E731
    u = lambda *a: DiffPoly.variable(ctx, ctx.u(1, a))  # noqa: E731
    return x, u


def test_criterion_1_derivation_laws():
    rng = random.Random(1001)
    pairs = 0
    while pairs < 1000:
        ctx = Context(rng.randint(1, 3), rng.randint(1, 3))
        f = gen.rand_poly(rng, ctx, terms=3, max_degree=3, max_order=4)
        g = gen.rand_poly(rng, ctx, terms=3, max_degree=3, max_order=4)
        pairs += 1
        k = rng.randint(1, ctx.n)
        assert (f * g).total_derivative(k) == (
            f.total_derivative(k) * g + f * g.total_derivative(k)
        )
        if ctx.n >= 2:
            i, j = rng.sample(range(1, ctx.n + 1), 2)
            assert f.total_derivative(i).total_derivative(j) == f.total_derivative(
                j
            ).total_derivative(i)
    report(1, f"Leibniz and commutation exact on {pairs} random pairs")


def test_criterion_2_diamond_join_identity():
    checked = 0
    for n in (1, 2, 3):
        entries = list(range(6))
        for a in product(entries, repeat=n):
            for b in product(entries, repeat=n):
                j = tuple(map(max, a, b))
                assert mi.add(a, mi.diamond(a, b)) == j
                assert mi.add(b, mi.diamond(b, a)) == j
                checked += 1
    report(2, f"diamond/join identity exhaustive on {checked} pairs (entries <= 5)")


def test_criterion_3_remainder_uniqueness():
    rng = random.Random(1003)
    runs = 0
    while runs < 200:
        ctx = Context(rng.randint(1, 3), rng.randint(1, 2))
        forms = gen.rand_normalized_set(rng, ctx, rng.randint(1, 4))
        f = gen.rand_poly(rng, ctx, terms=4, max_degree=3, max_order=3)
        order1 = list(range(len(forms)))
        order2 = order1[:]
        rng.shuffle(order1)
        rng.shuffle(order2)
        r1 = divide_by_normalized(f, forms, order1)
        r2 = divide_by_normalized(f, forms, order2)
        assert r1 == r2
        assert not (r1.support_derivs() & {b.lead for b in forms})
        runs += 1
    report(3, f"identical remainders under {runs} pairs of shuffled division orders")


def test_criterion_4_decomposition_certified():
    rng = random.Random(1004)
    certified = 0
    while certified < 50:
        ctx = Context(2, rng.randint(1, 2))
        rk = Ranking.from_spec(ctx, "orderly")
        sys_ = gen.rand_solved_system(
            rng, ctx, rk, rng.randint(1, 2), max_order=2, tail_terms=1, tail_degree=1
        )
        f = gen.rand_poly(rng, ctx, terms=2, max_degree=2, max_order=2)
        res = reduce(f, sys_)
        diff = f - res.remainder
        if not diff:
            continue
        bound = max(
            gen.max_eliminated_order(res),
            gen.max_deriv_order(f),
            max(sum(eq.lead.order) for eq in sys_.equations),
        )
        gens = prolong(sys_, bound)
        base_degree = max(gen.degree(f), gen.degree(diff), 1)
        cert = None
        for degree in (base_degree, base_degree + 2):
            cert = membership(MembershipInstance(diff, gens, degree, bound))
            if cert is not None:
                break
        assert cert is not None, f"refused at bounds: {diff}"
        assert cert.expand(gens) == diff
        certified += 1
    report(4, f"{certified} reduction decompositions certified, zero refusals")


def test_criterion_5_syzygy_generation():
    rng = random.Random(1005)
    instances = 0
    total = 0
    while instances < 20:
        n = rng.randint(1, 3)
        ctx = Context(n, rng.randint(1, 2))
        k = rng.randint(2, 5)
        leads = gen.rand_distinct_leads(rng, ctx, k, max_order=3)
        bound = rng.randint(2, 4)
        result = syzygy_oracle(leads, bound)
        assert result.ok, result.failures[:1]
        for cert in result.certified:
            assert cert.expand(result.taus) == cert.syzygy
        total += len(result.spanning)
        instances += 1
    report(5, f"{total} slice syzygies certified over {instances} random lead sets")


def test_criterion_6_ranking_axioms():
    checked = 0
    for ctx in (Context(2, 2), Context(3, 2)):
        for rk in (Ranking.from_spec(ctx, "orderly"), Ranking.from_spec(ctx, "elimination")):
            audit = audit_compatibility(rk, 10000, exhaustive_order=5)
            assert audit.ok, audit.counterexamples[:3]
            checked += audit.checked_a + audit.checked_b
    broken = Ranking.from_weights(Context(2, 2), [[1, 0, 0]])
    bad = audit_compatibility(broken, 10000, exhaustive_order=5)
    assert not bad.ok
    assert any(c.axiom == "b" for c in bad.counterexamples)
    report(6, f"built-ins clean over {checked} checks; broken ranking caught")


def test_criterion_7_canonical_verdicts():
    def run(name):
        out = io.StringIO()
        with redirect_stdout(out):
            code = main(["check", str(PROBLEMS / name)])
        return code, json.loads(out.getvalue())

    code, rep = run("heat.json")
    assert code == 0 and rep["verdict"] == "passive"
    code, rep = run("gradient_consistent.json")
    assert code == 0 and rep["verdict"] == "passive"
    assert all(p["status"] == "satisfied" and p["remainder"] == [] for p in rep["pairs"])
    code, rep = run("gradient_inconsistent.json")
    assert code == 3 and rep["verdict"] == "inconsistent"
    assert rep["pairs"][0]["remainder"] == [{"c": "1", "m": []}]
    report(7, "heat/gradient verdicts and exit codes exact; remainder exactly 1")


def test_criterion_8_quotient_census():
    ctx = Context(2, 1)
    rk = Ranking.from_spec(ctx, "orderly")
    x, u = _ctx_poly_helpers(ctx)
    heat = SolvedSystem((SolvedForm(ctx.u(1, (2, 0)), -u(0, 1)),), rk)
    census2 = quotient_census(gen.with_bounds(heat, order_bound=2))
    assert len(census2.parametric) == 5
    for bound in range(9):
        census = quotient_census(gen.with_bounds(heat, order_bound=bound))
        expected = {
            a for a in mi.iter_up_to_order(2, bound) if not (a[0] >= 2)
        }
        assert {v.order for v in census.parametric} == expected
        assert {v.order for v in census.principal} == {
            a for a in mi.iter_up_to_order(2, bound) if a[0] >= 2
        }
    report(8, "heat census matches brute-force cone complement for bounds 0..8")


def _passive_suite():
    ctx21 = Context(2, 1)
    rk21 = Ranking.from_spec(ctx21, "orderly")
    x, u = _ctx_poly_helpers(ctx21)
    zero = DiffPoly(ctx21)
    heat = SolvedSystem((SolvedForm(ctx21.u(1, (2, 0)), -u(0, 1)),), rk21)
    grad = SolvedSystem(
        (SolvedForm(ctx21.u(1, (1, 0)), zero), SolvedForm(ctx21.u(1, (0, 1)), -x(2))),
        rk21,
    )
    pair = SolvedSystem(
        (SolvedForm(ctx21.u(1, (2, 0)), -u(0, 1)), SolvedForm(ctx21.u(1, (0, 1)), zero)),
        rk21,
    )
    ctx22 = Context(2, 2)
    rk22 = Ranking.from_spec(ctx22, "elimination")
    u1 = lambda *a: DiffPoly.variable(ctx22, ctx22.u(1, a))  # noqa: E731
    elim = SolvedSystem(
        (
            SolvedForm(ctx22.u(2, (1, 0)), -u1(0, 1)),
            SolvedForm(ctx22.u(2, (0, 1)), -u1(1, 0)),
            SolvedForm(ctx22.u(1, (2, 0)), -u1(0, 2)),
        ),
        rk22,
    )
    return [heat, grad, pair, elim]


def test_criterion_9_theorem_coherence():
    rng = random.Random(1009)
    targets = 0
    for sys_ in _passive_suite():
        rep = is_passive(gen.with_bounds(sys_, order_bound=4))
        assert rep.verdict == "passive"
        assert rep.normalized.certified
        # leads of the bounded normalized presentation == orbit within bound
        orbit = set()
        for eq in sys_.equations:
            room = 4 - sum(eq.lead.order)
            for shift in mi.iter_up_to_order(sys_.ctx.n, max(room, -1)):
                orbit.add(
                    type(eq.lead)(eq.lead.i, mi.add(eq.lead.order, shift))
                )
        assert {f.lead for f in rep.normalized.forms} == orbit
        for _ in range(30):
            f = gen.rand_poly(rng, sys_.ctx, terms=3, max_degree=2, max_order=3)
            res = reduce(f, sys_)
            bound = max(3, gen.max_eliminated_order(res), gen.max_deriv_order(f))
            forms = normalized_slice(gen.with_bounds(sys_, order_bound=bound)).forms
            assert divide_by_normalized(f, forms) == res.remainder
            targets += 1
    assert targets >= 100
    report(9, f"normalized slices match orbits; reduce == divide on {targets} targets")


def test_criterion_10_cli_determinism():
    commands = {
        "check": [],
        "syzygies": [],
        "quotient": ["--order", "3"],
        "ranking-audit": ["--samples", "300"],
        "reduce": ["--target", json.dumps([{"c": "1", "m": [[["u", 1, [1, 1]], 1]]}])],
    }
    runs = 0
    for path in sorted(PROBLEMS.glob("*.json")):
        for command, extra in commands.items():
            argv = [command, str(path)] + extra

            def once():
                out, err = io.StringIO(), io.StringIO()
                with redirect_stdout(out), redirect_stderr(err):
                    code = main(list(argv))
                return code, out.getvalue(), err.getvalue()

            assert once() == once(), (path.name, command)
            runs += 1
    report(10, f"byte-identical stdout/stderr across two runs for {runs} command/file pairs")
