"""Ranking comparison rules, class keys, the exact compatibility test and the
sampled audit."""

import random
from fractions import Fraction
from typing import NamedTuple, Optional

import pytest

from diffalg import BASE, Context, DiffPoly, Ranking, StructuralError, audit_compatibility
from diffalg import multiindex as mi
from diffalg.algebra import Deriv, shift_deriv
from diffalg.ranking import NAMED_RANKINGS, SAMPLE_ORDER, AuditReport, Counterexample, class_to_json, shift_violation

import gen
from reference import linalg

CTX = Context(2, 2)
ORD = Ranking.from_spec(CTX, "orderly")
ELIM = Ranking.from_spec(CTX, "elimination")


def D(i, *order):
    return CTX.u(i, order)


def is_total(rk: Ranking) -> bool:
    """Whether W has full column rank: exactly the condition for equal keys
    to imply equal variables for every number of unknowns m.  A rank-deficient
    W can still separate the variables when m is small (with m = 1 the column
    of the unknown index never matters)."""
    n = rk.ctx.n
    units = [tuple(int(t == k) for t in range(n + 1)) for k in range(1, n + 1)] if rk.units else []
    return linalg.rank([dict(enumerate(row)) for row in (*rk.weights, *units)], n + 1) == n + 1


class Lead(NamedTuple):
    deriv: object
    block_tie: bool


def leading_derivative(rk: Ranking, f: DiffPoly) -> Optional[Lead]:
    """The ranking-maximal derivative variable of f, or None when f has no
    derivative variables.  When the top block of a coarse ranking holds
    several support derivatives, the (i, alpha)-lexicographically largest is
    returned with block_tie set."""
    derivs = f.support_derivs()
    if not derivs:
        return None
    top_key = max(rk.key(v) for v in derivs)
    block = [v for v in derivs if rk.key(v) == top_key]
    return Lead(max(block, key=lambda v: (v.i, v.order)), len(block) > 1)


def broken_ranking(ctx):
    # compares the unknown index only: shifts leave the key unchanged,
    # so axiom (b) fails with equality
    return Ranking.from_weights(ctx, [[1] + [0] * ctx.n])


def test_orderly_compare():
    assert ORD.key(D(1, 0, 1)) < ORD.key(D(1, 2, 0))
    assert ORD.key(D(1, 1, 0)) < ORD.key(D(2, 1, 0))
    assert ORD.key(D(1, 1, 1)) == ORD.key(D(1, 1, 1))
    assert ORD.key(D(1, 1, 1)) < ORD.key(D(1, 2, 0))  # same order, lex on alpha


def test_elimination_compare():
    for a in [(0, 0), (5, 5), (0, 3)]:
        for b in [(0, 0), (1, 0)]:
            assert ELIM.key(D(1, *a)) < ELIM.key(D(2, *b))


def test_class_key_ordering():
    assert BASE == () and BASE < (0, 1)
    assert (1, 1) < (1, 2)
    assert ORD.key(D(1, 0, 0)) > BASE and type(ORD.key(D(1, 0, 0))) is tuple
    assert class_to_json(BASE) == "base"
    assert class_to_json((2, 1, 2, 0)) == [2, 1, 2, 0]


def test_class_of():
    x1 = DiffPoly.variable(CTX, CTX.x(1))
    assert ORD.class_of(x1 * x1 + DiffPoly(CTX, {(): 1})) == BASE
    f = DiffPoly.variable(CTX, D(1, 0, 1)) + DiffPoly.variable(CTX, D(1, 2, 0))
    assert ORD.class_of(f) == ORD.key(D(1, 2, 0))
    assert ORD.class_of(f * -7) == ORD.class_of(f)
    assert ORD.class_of(DiffPoly(CTX)) == BASE


def test_class_of_sum_bound():
    rng = random.Random(77)
    for _ in range(40):
        f, g = gen.rand_poly(rng, CTX), gen.rand_poly(rng, CTX)
        cf, cg, cs = ORD.class_of(f), ORD.class_of(g), ORD.class_of(f + g)
        assert cs <= max(cf, cg)
        if cf != cg:
            assert cs == max(cf, cg)


def test_leading_derivative():
    f = DiffPoly.variable(CTX, D(1, 2, 0)) - DiffPoly.variable(CTX, D(1, 0, 1))
    lead = leading_derivative(ORD, f)
    assert lead.deriv == D(1, 2, 0) and not lead.block_tie
    assert leading_derivative(ORD, DiffPoly.variable(CTX, CTX.x(1))) is None
    g = DiffPoly.variable(CTX, D(2, 0, 1)) + DiffPoly.variable(CTX, D(1, 5, 5))
    assert leading_derivative(ELIM, g).deriv == D(2, 0, 1)


def test_leading_derivative_block_tie():
    # single-row weight rule: total order only -> coarse blocks
    coarse = Ranking.from_weights(CTX, [[0, 1, 1]])
    f = DiffPoly.variable(CTX, D(1, 1, 0)) + DiffPoly.variable(CTX, D(1, 0, 1))
    lead = leading_derivative(coarse, f)
    assert lead.block_tie
    assert lead.deriv == D(1, 1, 0)  # lexicographically largest in the block


def test_compare_totality_transitivity():
    rng = random.Random(78)
    for rk in (ORD, ELIM):
        for _ in range(200):
            u, v, w = (gen.rand_deriv(rng, CTX, 4) for _ in range(3))
            ku, kv, kw = rk.key(u), rk.key(v), rk.key(w)
            assert (ku < kv) + (ku == kv) + (kv < ku) == 1
            if is_total(rk) and ku == kv:
                assert u == v
            if ku <= kv and kv <= kw:
                assert ku <= kw


def test_audit_builtin_rankings_clean():
    for rk in (ORD, ELIM, Ranking.from_spec(Context(3, 3), "orderly")):
        report = audit_compatibility(rk, 2000, exhaustive_order=3)
        assert report.ok, report.counterexamples[:3]
        assert report.checked_a > 0 and report.checked_b > 0


def test_audit_weight_ranking_clean():
    rk = Ranking.from_weights(CTX, [[0, 1, 1], [1, 0, 0], [0, 1, 0]])
    assert audit_compatibility(rk, 2000).ok


def test_audit_broken_ranking_reports_b():
    report = audit_compatibility(broken_ranking(CTX), 500)
    assert not report.ok
    assert any(c.axiom == "b" for c in report.counterexamples)
    bad = next(c for c in report.counterexamples if c.axiom == "b")
    rk = broken_ranking(CTX)
    assert rk.key(bad.u) == rk.key(shift_deriv(bad.u, bad.direction))


def test_audit_negated_weights_fail():
    # negated total order: shifting strictly decreases the key
    rk = Ranking.from_weights(CTX, [[0, -1, -1], [1, 0, 0], [0, 1, 0]])
    report = audit_compatibility(rk, 500)
    assert any(c.axiom == "b" for c in report.counterexamples)


def test_axioms_hold_randomized():
    rng = random.Random(79)
    for rk in (ORD, ELIM):
        for _ in range(300):
            u = gen.rand_deriv(rng, CTX, 5)
            v = gen.rand_deriv(rng, CTX, 5)
            k = rng.randint(1, CTX.n)
            su, sv = shift_deriv(u, k), shift_deriv(v, k)
            assert rk.key(u) < rk.key(su)
            if rk.key(u) < rk.key(v):
                assert rk.key(su) < rk.key(sv)


def test_derivation_preserves_class_order():
    # when the shifted top derivatives survive with nonzero coefficient,
    # strict class order is preserved by every total derivative
    rng = random.Random(80)
    checked = 0
    for _ in range(400):
        f1, f2 = gen.rand_poly(rng, CTX), gen.rand_poly(rng, CTX)
        lead1, lead2 = leading_derivative(ORD, f1), leading_derivative(ORD, f2)
        if lead1 is None or lead2 is None:
            continue
        if not ORD.class_of(f1) < ORD.class_of(f2):
            continue
        for k in range(1, CTX.n + 1):
            d1, d2 = f1.total_derivative(k), f2.total_derivative(k)
            s1 = shift_deriv(lead1.deriv, k)
            s2 = shift_deriv(lead2.deriv, k)
            if s1 not in d1.support_derivs() or s2 not in d2.support_derivs():
                continue
            checked += 1
            assert ORD.class_of(d1) < ORD.class_of(d2)
    assert checked > 50


def test_from_spec():
    assert Ranking.from_spec(CTX, "orderly") == ORD
    assert Ranking.from_spec(CTX, "elimination") == ELIM
    rk = Ranking.from_spec(CTX, {"weights": [["1/2", 1, 0], [0, 0, 1], [0, 1, 0]]})
    assert rk.kind == "weights"
    with pytest.raises(StructuralError):
        Ranking.from_spec(CTX, "grevlex")
    with pytest.raises(StructuralError):
        Ranking.from_spec(CTX, {"weights": [[1, 0]]})  # wrong row width
    with pytest.raises(StructuralError):
        Ranking.from_spec(CTX, {"weights": []})


def test_sample_budget_validation():
    with pytest.raises(StructuralError):
        audit_compatibility(ORD, 0)


def rand_weight_entry(rng):
    num = rng.randint(-3, 3)
    if rng.random() < 0.3:
        return f"{num}/{rng.randint(1, 4)}"
    return num


def rand_weight_rows(rng, n):
    """Rows of n + 1 entries, with whole zero columns and columns led by a
    negative entry mixed in, so both verdicts are common."""
    rows = [[rand_weight_entry(rng) for _ in range(n + 1)] for _ in range(rng.randint(1, n + 2))]
    for k in range(1, n + 1):
        shape = rng.random()
        if shape < 0.15:
            for row in rows:
                row[k] = 0
        elif shape < 0.3:
            rows[0][k] = str(-(abs(Fraction(rows[0][k])) or 1))
        elif shape < 0.7:
            rows[0][k] = str(abs(Fraction(rows[0][k])) or 1)
    return rows


def test_shift_violation_matches_sampled_audit():
    # the exact load-time test and the sampled oracle take the same decision
    # and, on a rejected rule, report the same first counterexample
    rng = random.Random(81)
    verdicts = {True: 0, False: 0}
    for _ in range(160):
        ctx = Context(rng.randint(1, 3), rng.randint(1, 2))
        rk = Ranking.from_weights(ctx, rand_weight_rows(rng, ctx.n))
        audit = audit_compatibility(rk, 100, exhaustive_order=1, seed=rng.randrange(1000))
        violation = shift_violation(rk)
        assert (violation is None) == audit.ok, rk.weights
        if violation is not None:
            assert violation == audit.counterexamples[0], rk.weights
        verdicts[audit.ok] += 1
    assert min(verdicts.values()) >= 30, verdicts


def test_shift_violation_columns():
    assert shift_violation(ORD) is None and shift_violation(ELIM) is None
    assert shift_violation(Ranking.from_weights(CTX, [[0, 1, 1], [1, 0, 0], [0, 1, 0]])) is None
    # column 1 is (1, -9), lexicographically positive; column 2 is zero
    assert shift_violation(Ranking.from_weights(CTX, [[5, 1, 0], [0, -9, 0]])) == Counterexample(
        "b", D(1, 0, 0), None, 2
    )
    assert shift_violation(Ranking.from_weights(CTX, [[0, 0, 1], [0, "-1/2", 1]])).direction == 1


def test_weight_key_parts_are_fractions():
    rk = Ranking.from_weights(CTX, [["1/2", 1, 0], [0, 0, 1], [0, 1, 0]])
    key = rk.key(D(2, 3, 1))
    assert key == (Fraction(4), Fraction(1), Fraction(3))
    assert all(type(p) is Fraction for p in key)
    assert class_to_json(key) == ["4", "1", "3"]
    # every part is the rational dot product of its row with (i, alpha)
    rng = random.Random(82)
    for _ in range(100):
        ctx = Context(rng.randint(1, 3), rng.randint(1, 2))
        rk = Ranking.from_weights(ctx, rand_weight_rows(rng, ctx.n))
        v = gen.rand_deriv(rng, ctx, 4)
        vec = (v.i,) + v.order
        expected = tuple(sum(w * Fraction(x) for w, x in zip(row, vec)) for row in rk.weights)
        assert rk.key(v) == expected
        assert all(type(p) is Fraction for p in rk.key(v))


def test_weight_rows_reject_booleans():
    with pytest.raises(StructuralError):
        Ranking.from_weights(CTX, [[0, True, 0]])


def test_builtin_keys_are_the_closed_forms():
    # the weight matrices of the built-ins reproduce (|a|, i) + a and
    # (i, |a|) + a exactly, as ints
    for n, m in [(1, 1), (2, 2), (3, 1), (3, 3), (4, 2)]:
        ctx = Context(n, m)
        orderly, elimination = Ranking.from_spec(ctx, "orderly"), Ranking.from_spec(ctx, "elimination")
        for v in ctx.derivs(4):
            a = sum(v.order)
            assert orderly.key(v) == (a, v.i) + v.order
            assert elimination.key(v) == (v.i, a) + v.order
            assert all(type(p) is int for p in orderly.key(v) + elimination.key(v))


def test_builtins_pass_the_column_test_by_computation():
    for rk in (ORD, ELIM, Ranking.from_spec(Context(4, 1), "orderly"), Ranking.from_spec(Context(1, 3), "elimination")):
        assert rk.weights and shift_violation(rk) is None
    # the name decides nothing: a falling column under a built-in's label fails
    relabelled = Ranking(CTX, "orderly", ((Fraction(0), Fraction(1), Fraction(-1)),))
    assert shift_violation(relabelled) == Counterexample("b", D(1, 0, 0), None, 2)


def test_builtin_unit_rows_stay_implicit():
    # a built-in holds its two leading rows and implicit unit rows: keys, rank
    # and shift verdict equal those of the full matrix written out
    for n, m in [(n, m) for n in range(1, 5) for m in (1, 2)]:
        ctx = Context(n, m)
        for name, leading in NAMED_RANKINGS.items():
            named = Ranking.from_spec(ctx, name)
            units = [[int(t == k) for t in range(n + 1)] for k in range(1, n + 1)]
            full = Ranking.from_weights(ctx, leading(n) + units)
            assert len(named.weights) == 2 and named.units and not full.units
            assert is_total(named) and is_total(full)
            assert shift_violation(named) is None and shift_violation(full) is None
            assert all(named.key(v) == full.key(v) for v in ctx.derivs(3))
    # under a built-in's name a unit row settles a column the weight rows
    # leave at zero; a weight rule has only the rows it gives
    assert shift_violation(Ranking(CTX, "orderly", ((1, 0, 0),))) is None
    assert shift_violation(Ranking(CTX, "weights", ((1, 0, 0),))) == Counterexample("b", D(1, 0, 0), None, 1)
    assert is_total(Ranking(CTX, "orderly", ((1, 0, 0),)))
    assert not is_total(Ranking(CTX, "weights", ((1, 0, 0),)))
    assert not is_total(Ranking(CTX, "orderly", ((0, 1, 1),)))
    assert Ranking(CTX, "weights", ORD.weights) != ORD
    assert Ranking(CTX, "weights", ORD.weights).key(D(1, 2, 0)) == ORD.key(D(1, 2, 0))[:2]
    # 4000 directions: two rows of 4001 entries, not 4002
    wide = Ranking.from_spec(Context(4000, 1), "orderly")
    assert sum(map(len, wide.weights)) == 2 * 4001
    assert wide.key(Deriv(1, (0,) * 3999 + (2,))) == (2, 1) + (0,) * 3999 + (2,)


def test_is_total_is_full_column_rank():
    encoded_orderly = Ranking.from_weights(CTX, [[0, 1, 1], [1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert is_total(ORD) and is_total(ELIM) and is_total(encoded_orderly)
    assert not is_total(Ranking.from_weights(CTX, [[0, 1, 1]]))
    # rank 2 of 3: (1, -1, 1) is in the kernel, so u^2_(0,1) and u^1_(1,0)
    # tie; with one unknown the same rows separate every variable
    rows = [[0, 1, 1], [1, 1, 0]]
    deficient = Ranking.from_weights(CTX, rows)
    assert not is_total(deficient) and shift_violation(deficient) is None
    assert deficient.key(D(2, 0, 1)) == deficient.key(D(1, 1, 0))
    one = Context(2, 1)
    keys = {Ranking.from_weights(one, rows).key(v) for v in one.derivs(4)}
    assert len(keys) == len(list(one.derivs(4)))


def reference_audit(rk: Ranking, sample_budget: int, exhaustive_order: int = 3, seed: int = 0):
    """audit_compatibility as it was first written: u < v is decided again in
    every direction.  The reference for the per-pair loop."""
    ctx = rk.ctx
    found = {}
    checked_a = checked_b = 0

    def check_b(u, k):
        nonlocal checked_b
        checked_b += 1
        if not rk.key(u) < rk.key(shift_deriv(u, k)):
            found.setdefault(Counterexample("b", u, None, k))

    def check_a(u, v, k):
        nonlocal checked_a
        if not rk.key(u) < rk.key(v):
            return
        checked_a += 1
        if not rk.key(shift_deriv(u, k)) < rk.key(shift_deriv(v, k)):
            found.setdefault(Counterexample("a", u, v, k))

    pool = list(ctx.derivs(exhaustive_order))
    for u in pool:
        for k in range(1, ctx.n + 1):
            check_b(u, k)
    for u in pool:
        for v in pool:
            for k in range(1, ctx.n + 1):
                check_a(u, v, k)

    rng = random.Random(seed)
    indices = list(mi.iter_up_to_order(ctx.n, SAMPLE_ORDER))
    for _ in range(sample_budget):
        u = Deriv(rng.randint(1, ctx.m), rng.choice(indices))
        v = Deriv(rng.randint(1, ctx.m), rng.choice(indices))
        k = rng.randint(1, ctx.n)
        check_b(u, k)
        check_a(u, v, k)
    return AuditReport(exhaustive_order, sample_budget, checked_a, checked_b, list(found))


def test_audit_matches_the_per_direction_reference(monkeypatch):
    # same counters and the same counterexamples in the same order, on
    # seeded weight rankings of both verdicts, with fewer key computations
    calls = {"n": 0}
    key = Ranking.key

    def counted_key(self, v):
        calls["n"] += 1
        return key(self, v)

    monkeypatch.setattr(Ranking, "key", counted_key)
    rng = random.Random(16)
    verdicts = {True: 0, False: 0}
    for _ in range(60):
        ctx = Context(rng.randint(1, 3), rng.randint(1, 2))
        rk = Ranking.from_weights(ctx, rand_weight_rows(rng, ctx.n))
        budget, order, seed = rng.randint(1, 60), rng.randint(0, 2), rng.randrange(1000)
        calls["n"] = 0
        report = audit_compatibility(rk, budget, exhaustive_order=order, seed=seed)
        fast_calls, calls["n"] = calls["n"], 0
        assert report == reference_audit(rk, budget, exhaustive_order=order, seed=seed), rk.weights
        assert fast_calls <= calls["n"]
        verdicts[shift_violation(rk) is None] += 1
    assert min(verdicts.values()) >= 15, verdicts
