"""Pair compatibility checks, verdicts, coincident leads, and the census."""

import itertools
import json
import random
from pathlib import Path

import pytest

from diffalg import (
    Bounds,
    Context,
    DiffPoly,
    EnumerationLimitError,
    Ranking,
    ReductionLimitError,
    SolvedForm,
    SolvedSystem,
    StructuralError,
    autoreduce,
    check_pair,
    coincident_lead_analysis,
    decide_passivity,
    is_passive,
    normalized_slice,
    operator_apply,
    quotient_census,
    reduce,
    tau_generators,
)
from diffalg import multiindex as mi
from diffalg.algebra import Deriv
from diffalg.cli import render
from diffalg.normal import find_principal, iter_orbit
from diffalg.problem import load_problem, problem_from_dict

import gen
from reference.oracle import (MembershipInstance, divide_by_normalized, membership, prolong, tau_vector,
                              variables_within_class)

CTX = Context(2, 1)
ORD = Ranking.from_spec(CTX, "orderly")


def X(j, ctx=CTX):
    return DiffPoly.variable(ctx, ctx.x(j))


def U(*order, i=1, ctx=CTX):
    return DiffPoly.variable(ctx, ctx.u(i, order))


def D(*order, i=1, ctx=CTX):
    return ctx.u(i, order)


def system(*forms, rk=ORD):
    return SolvedSystem(tuple(forms), rk)


def heat():
    return system(SolvedForm(D(2, 0), -U(0, 1)))


def gradient(rhs2):
    return system(
        SolvedForm(D(1, 0), DiffPoly(CTX)),
        SolvedForm(D(0, 1), -rhs2),
    )


def obstructed():
    return system(
        SolvedForm(D(2, 0), -U(0, 1)),
        SolvedForm(D(1, 1), -U(1, 0)),
    )


def test_check_pair_satisfied():
    sys_ = gradient(X(2))
    taus = tau_generators(sys_.leads())
    result = check_pair(sys_, taus[0])
    assert result.status == "satisfied"
    assert not result.combination and not result.remainder


def test_check_pair_inconsistent():
    sys_ = gradient(X(1))
    result = check_pair(sys_, tau_generators(sys_.leads())[0])
    assert result.status == "inconsistent"
    assert result.remainder == DiffPoly(CTX, {(): 1})


def test_check_pair_obstructed():
    sys_ = obstructed()
    result = check_pair(sys_, tau_generators(sys_.leads())[0])
    assert result.status == "obstructed"
    assert result.remainder == U(0, 1) - U(0, 2)


def test_is_passive_heat():
    report = is_passive(gen.with_bounds(heat(), order_bound=2))
    assert report.verdict == "passive"
    assert report.pairs == []
    assert report.exit_code == 0
    assert report.theta == ORD.key(D(2, 0))
    assert report.normalized is not None and report.normalized.certified


def test_is_passive_gradient_verdicts():
    ok = is_passive(gradient(X(2)))
    assert ok.verdict == "passive" and ok.exit_code == 0
    assert all(p.status == "satisfied" for p in ok.pairs)
    bad = is_passive(gradient(X(1)))
    assert bad.verdict == "inconsistent" and bad.exit_code == 3
    assert bad.pairs[0].remainder == DiffPoly(CTX, {(): 1})
    assert bad.census is None and bad.normalized is None
    obs = is_passive(obstructed())
    assert obs.verdict == "not-passive" and obs.exit_code == 2


def test_is_passive_unsolvable_system():
    sys_ = system(SolvedForm(D(0, 1), -U(2, 0)))
    report = is_passive(sys_)
    assert report.verdict == "not-passive"
    assert not report.solvability.ok and report.pairs == []


def test_is_passive_empty_system():
    report = is_passive(gen.with_bounds(system(), order_bound=3))
    assert report.verdict == "passive"
    assert report.theta is None
    assert len(report.census.parametric) == 10  # all of order <= 3, n = m = ...


def test_verdict_stable_under_autoreduce():
    for sys_ in (heat(), gradient(X(2)), gradient(X(1)), obstructed()):
        assert is_passive(sys_).verdict == is_passive(autoreduce(sys_)).verdict


def test_satisfied_pairs_oracle_certified():
    # each satisfied combination really lies in the bounded prolonged ideal
    sys_ = gradient(X(2))
    taus = tau_generators(sys_.leads())
    for tau in taus:
        result = check_pair(sys_, tau)
        assert result.status == "satisfied"
        if not result.combination:
            continue
        gens = prolong(sys_, 3)
        inst = MembershipInstance(result.combination, gens, 3, 3)
        cert = membership(inst)
        assert cert is not None and cert.verify(inst)


def test_obstruction_is_genuine():
    # the obstruction remainder is not reachable from orbit elements whose
    # class stays at or below the combination's class
    sys_ = obstructed()
    result = check_pair(sys_, tau_generators(sys_.leads())[0])
    assert result.status == "obstructed"
    bound = result.class_bound
    gens = prolong(sys_, 4, class_bound=bound)
    pool = variables_within_class(CTX, ORD, bound, 4)
    inst = MembershipInstance(result.remainder, gens, 3, 4, pool=pool)
    assert membership(inst) is None


def test_quotient_census_heat():
    census = quotient_census(gen.with_bounds(heat(), order_bound=2))
    parametric = {(v.i, v.order) for v in census.parametric}
    assert parametric == {(1, (0, 0)), (1, (1, 0)), (1, (0, 1)), (1, (1, 1)), (1, (0, 2))}
    assert census.counts == {0: 1, 1: 2, 2: 2}


def test_quotient_census_empty_system():
    ctx = Context(1, 1)
    sys_ = SolvedSystem((), Ranking.from_spec(ctx, "orderly"))
    census = quotient_census(gen.with_bounds(sys_, order_bound=5))
    assert len(census.parametric) == 6 and census.principal == []


def test_quotient_census_gradient_cone():
    census = quotient_census(gen.with_bounds(gradient(X(2)), order_bound=3))
    assert [(v.i, v.order) for v in census.parametric] == [(1, (0, 0))]
    assert census.counts == {0: 1, 1: 0, 2: 0, 3: 0}


def test_census_brute_force_cone_match():
    # independent enumeration: parametric iff no lead divides the exponent
    for sys_, bound in ((heat(), 5), (gradient(X(2)), 4), (obstructed(), 4)):
        census = quotient_census(gen.with_bounds(sys_, order_bound=bound))
        leads = [(eq.lead.i, eq.lead.order) for eq in sys_.equations]
        expected = set()
        from diffalg import multiindex as mi

        for a in mi.iter_up_to_order(2, bound):
            covered = any(
                i == 1 and all(x >= y for x, y in zip(a, order)) for i, order in leads
            )
            if not covered:
                expected.add((1, a))
        assert {(v.i, v.order) for v in census.parametric} == expected


def test_census_monotone_under_extension():
    base = heat()
    extended = system(
        SolvedForm(D(2, 0), -U(0, 1)),
        SolvedForm(D(0, 1), DiffPoly(CTX)),
    )
    assert is_passive(extended).verdict == "passive"
    c_base = quotient_census(gen.with_bounds(base, order_bound=5)).counts
    c_ext = quotient_census(gen.with_bounds(extended, order_bound=5)).counts
    assert all(c_ext[o] <= c_base[o] for o in c_base)


def test_passive_reduce_divide_agreement():
    rng = random.Random(70)
    for sys_ in (heat(), gradient(X(2))):
        report = is_passive(sys_)
        assert report.verdict == "passive"
        for _ in range(25):
            f = gen.rand_poly(rng, CTX, terms=3, max_degree=2, max_order=3)
            res = reduce(f, sys_)
            bound = max(3, gen.max_eliminated_order(res), gen.max_deriv_order(f))
            forms = normalized_slice(gen.with_bounds(sys_, order_bound=bound)).forms
            assert divide_by_normalized(f, forms) == res.remainder


def test_coincident_leads_merge():
    eq = SolvedForm(D(1, 0), -X(2))
    report = coincident_lead_analysis([eq, SolvedForm(D(1, 0), -X(2))], ORD)
    assert report.verdict == "ok"
    assert len(report.system.equations) == 1
    assert report.relations[0].status == "merged"


def test_coincident_leads_contradiction():
    report = coincident_lead_analysis(
        [SolvedForm(D(1, 0), -X(2)), SolvedForm(D(1, 0), -X(1))], ORD
    )
    assert report.verdict == "inconsistent"
    assert report.system is None
    assert report.relations[0].remainder == X(2) - X(1)


def test_coincident_leads_derived_relation():
    report = coincident_lead_analysis(
        [SolvedForm(D(1, 1), -X(2)), SolvedForm(D(1, 1), -U(0, 1))], ORD
    )
    assert report.verdict == "obstructed"
    assert report.relations[0].status == "obstructed"


def test_coincident_leads_distinct_passthrough():
    forms = [SolvedForm(D(1, 0), DiffPoly(CTX)), SolvedForm(D(0, 1), -X(2))]
    report = coincident_lead_analysis(forms, ORD)
    assert report.verdict == "ok" and report.relations == []
    assert list(report.system.equations) == forms


def test_check_pair_requires_solvable():
    sys_ = system(SolvedForm(D(0, 1), -U(2, 0)), SolvedForm(D(1, 0), DiffPoly(CTX)))
    taus = tau_generators(sys_.leads())
    with pytest.raises(StructuralError):
        check_pair(sys_, taus[0])


# -- the memoized normal-form engine against the reference reduce --------------

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"


def random_systems(seed, count, passive_only=False):
    """Seeded random solved systems; with passive_only, only passive draws."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        ctx = Context(rng.randint(1, 3), rng.randint(1, 2))
        rk = Ranking.from_spec(ctx, "orderly") if rng.random() < 0.6 else Ranking.from_spec(ctx, "elimination")
        sys_ = gen.rand_solved_system(rng, ctx, rk, rng.randint(1, 4))
        if not passive_only or decide_passivity(sys_).verdict == "passive":
            out.append((rng, sys_))
    return out


def test_engine_matches_reduce_randomized():
    verdicts = set()
    for rng, sys_ in random_systems(71, 60):
        verdicts.add(decide_passivity(sys_).verdict)
        for _ in range(3):
            f = gen.rand_poly(rng, sys_.ctx, terms=3, max_degree=2, max_order=4)
            expected = reduce(f, sys_).remainder
            assert sys_.normal_form(f) == expected  # memo warm from earlier calls
            assert SolvedSystem(sys_.equations, sys_.ranking).normal_form(f) == expected  # memo cold
    assert verdicts == {"passive", "not-passive", "inconsistent"}


def test_memo_state_is_invisible_randomized():
    # the memos live on a value compared by equations and ranking: warm or
    # left half filled by an exceeded budget, they change neither equality
    # nor any output byte
    partial_fills = 0
    for rng, sys_ in random_systems(75, 60):
        sys_.normal_form(gen.rand_poly(rng, sys_.ctx, terms=3, max_degree=2, max_order=3))
        f = gen.rand_poly(rng, sys_.ctx, terms=3, max_degree=2, max_order=6)
        for budget in itertools.count():
            filled = len(sys_._nf) + len(sys_._prolonged)
            sys_.bounds = Bounds(max_steps=budget)
            try:
                sys_.normal_form(f)
                break
            except ReductionLimitError:
                partial_fills += len(sys_._nf) + len(sys_._prolonged) > filled
        fresh = SolvedSystem(sys_.equations, sys_.ranking)
        assert sys_ == fresh
        sys_.bounds = fresh.bounds = Bounds(order_bound=rng.randint(0, 3))
        assert render(is_passive(sys_).to_json()) == render(is_passive(fresh).to_json())
    assert partial_fills >= 10


def test_census_matches_find_principal_randomized():
    # the census reads the orbit set; find_principal is the per-variable
    # reference, and counts tally the parametric derivatives order by order
    draws = [(sys_, rng.randint(0, 4)) for rng, sys_ in random_systems(73, 60)]
    rng = random.Random(77)
    for _ in range(30):
        ctx = Context(rng.randint(1, 3), 2)
        rk = Ranking.from_spec(ctx, "orderly") if rng.random() < 0.5 else Ranking.from_spec(ctx, "elimination")
        draws.append((gen.rand_solved_system(rng, ctx, rk, rng.randint(1, 4)), rng.randint(0, 4)))
    wide = SolvedSystem((), Ranking.from_spec(Context(9, 2), "orderly"))
    draws.append((wide, 3))
    for sys_, bound in draws:
        census = quotient_census(gen.with_bounds(sys_, order_bound=bound))
        derivs = list(sys_.ctx.derivs(bound))
        assert census.principal == sorted(
            (v for v in derivs if find_principal(sys_, v) is not None), key=lambda v: (v.i, v.order)
        )
        assert census.parametric == sorted(
            (v for v in derivs if find_principal(sys_, v) is None), key=lambda v: (v.i, v.order)
        )
        assert census.counts == {t: sum(sum(v.order) == t for v in census.parametric) for t in range(bound + 1)}
    assert quotient_census(wide).to_json()["parametric_total"] == 2 * 220


def test_max_enumeration_refuses_census_and_slice():
    # m * C(n + bound, n) = 2 * C(5, 3) = 20 derivatives up to order 2, of
    # n = 3 index entries each: 60 entries pass a budget of 60, not of 59
    ctx = Context(3, 2)
    forms = (SolvedForm(ctx.u(1, (1, 0, 0)), DiffPoly(ctx)),)

    def at(limit):
        return SolvedSystem(forms, Ranking.from_spec(ctx, "orderly"), Bounds(order_bound=2, max_enumeration=limit))

    sys_ = SolvedSystem(forms, Ranking.from_spec(ctx, "orderly"), Bounds(order_bound=2))
    assert is_passive(at(60)) == is_passive(sys_)
    assert quotient_census(at(60)) == quotient_census(sys_) and normalized_slice(at(60)) == normalized_slice(sys_)
    for phase, run in [("census", quotient_census), ("normalized slice", normalized_slice), ("census", is_passive)]:
        with pytest.raises(EnumerationLimitError) as caught:
            run(at(59))
        assert (caught.value.phase, caught.value.size, caught.value.limit) == (phase, 60, 59)
        assert str(caught.value) == f"{phase} would enumerate 60 index entries, above max_enumeration 59"
    # the verdict itself enumerates nothing: a not-passive system keeps its report
    bad = SolvedSystem((SolvedForm(ctx.u(1, (0, 1, 0)), -DiffPoly.variable(ctx, ctx.u(1, (2, 0, 0)))),),
                       Ranking.from_spec(ctx, "orderly"), Bounds(order_bound=2, max_enumeration=0))
    assert is_passive(bad).verdict == "not-passive"


def find_principal_reference(sys_, v):
    """find_principal's rule as a scan of every equation, in place of its
    nearest-first table: a length check, then dominance and the shift entry
    by entry; the smallest |shift| wins, ties broken lexicographically on
    the shift."""
    best = None
    for idx, eq in enumerate(sys_.equations):
        a, b = eq.lead.order, v.order
        if eq.lead.i != v.i:
            continue
        if len(a) != len(b):
            raise StructuralError(f"multi-index length mismatch: {a} vs {b}")
        if any(y < x for x, y in zip(a, b)):
            continue
        shift = tuple(y - x for x, y in zip(a, b))
        rank = (sum(shift), shift)
        if best is None or rank < best[0]:
            best = (rank, idx, shift)
    return None if best is None else (best[1], best[2])


def test_find_principal_matches_reference():
    found = 0
    for _, sys_ in random_systems(76, 60):
        for v in sys_.ctx.derivs(4):
            expected = find_principal_reference(sys_, v)
            assert find_principal(sys_, v) == expected
            found += expected is not None
    assert found >= 500
    ctx = Context(3, 2)
    zero = DiffPoly(ctx)
    # u_(0,1,0) and u_(1,0,0) both reach u_(1,1,0) by a shift of order 1:
    # the lexicographically smaller shift (0,1,0) picks the second equation
    tie = SolvedSystem((SolvedForm(ctx.u(1, (0, 1, 0)), zero), SolvedForm(ctx.u(1, (1, 0, 0)), zero)),
                       Ranking.from_spec(ctx, "orderly"))
    # u_(1,0,0) divides u_(2,1,0), which divides u_(3,1,1): the nearer lead wins
    nested = SolvedSystem((SolvedForm(ctx.u(1, (1, 0, 0)), zero), SolvedForm(ctx.u(1, (2, 1, 0)), zero)),
                          Ranking.from_spec(ctx, "orderly"))
    cases = [(tie, (1, 1, 0), (1, (0, 1, 0))), (tie, (2, 2, 1), (1, (1, 2, 1))),
             (nested, (2, 1, 0), (1, (0, 0, 0))), (nested, (3, 1, 1), (1, (1, 0, 1))),
             (nested, (3, 0, 2), (0, (2, 0, 2))), (nested, (0, 4, 4), None)]
    for sys_, order, expected in cases:
        v = ctx.u(1, order)
        assert find_principal(sys_, v) == find_principal_reference(sys_, v) == expected
        assert find_principal(sys_, ctx.u(2, order)) is None
    # a derivative of the wrong length is an error wherever a lead of its
    # unknown is compared with it, and parametric where none is
    for finder in (find_principal, find_principal_reference):
        with pytest.raises(StructuralError):
            finder(tie, Deriv(1, (1, 1)))
        assert finder(tie, Deriv(2, (1, 1))) is None


def test_find_principal_matches_reference_with_many_leads():
    # one unknown with 8 to 12 distinct leads of order <= 4 at n = 3, so the
    # table's order decides among several dominated leads
    ctx = Context(3, 1)
    zero = DiffPoly(ctx)
    pool = list(mi.iter_up_to_order(3, 4))
    crowded = 0
    for seed in range(8):
        rng = random.Random(seed)
        leads = rng.sample(pool, rng.randint(8, 12))
        sys_ = SolvedSystem([SolvedForm(ctx.u(1, a), zero) for a in leads], Ranking.from_spec(ctx, "orderly"))
        for v in ctx.derivs(6):
            assert find_principal(sys_, v) == find_principal_reference(sys_, v)
            crowded = max(crowded, sum(mi.try_subtract(a, v.order) is not None for a in leads))
    assert crowded >= 3


def test_incremental_slice_matches_reduce_randomized():
    elements = 0
    for _, sys_ in random_systems(72, 60, passive_only=True):
        result = normalized_slice(gen.with_bounds(sys_, order_bound=4))
        assert result.coherent
        tails = {form.lead: form.tail for form in result.forms}
        for idx, shift, v in iter_orbit(sys_, 4):
            prolonged = sys_.equations[idx].tail.total_derivative_multi(shift)
            assert tails[v] == reduce(prolonged, sys_).remainder
            elements += 1
    assert elements >= 800


def test_slice_equals_slice_of_autoreduced_randomized():
    # a passive system and its autoreduced system give every polynomial one
    # normal form, so is_passive slices the decided system itself
    draws = random_systems(74, 300, passive_only=True)
    for path in sorted(PROBLEMS.glob("*.json")):
        problem = load_problem(str(path))
        sys_ = coincident_lead_analysis(problem.forms, problem.ranking).system
        if sys_ is not None and decide_passivity(sys_).verdict == "passive":
            draws.append((random.Random(path.name), sys_))
    assert len(draws) >= 305
    for rng, sys_ in draws:
        gen.with_bounds(sys_, order_bound=rng.randint(0, 4))
        expected = normalized_slice(autoreduce(sys_)).to_json()
        assert normalized_slice(sys_).to_json() == expected
        assert is_passive(sys_).normalized.to_json() == expected


def test_unchecked_records_are_valid():
    """The census, the orbit walk and the slice build their Derivs and slice
    forms with tuple.__new__, unchecked: each must equal the record the
    validating constructor builds, on the corpus, seeded passive systems
    and seeded passive families."""
    draws = [sys_ for _, sys_ in random_systems(75, 40, passive_only=True)]
    for path in sorted(PROBLEMS.glob("*.json")):
        problem = load_problem(str(path))
        draws.append(coincident_lead_analysis(problem.forms, problem.ranking, problem.bounds).system)
    for seed, family in enumerate(("heat", "riccati", "gradient", "elimination")):
        problem = problem_from_dict(gen.family_problem(random.Random(seed), family, 3, 4))
        draws.append(SolvedSystem(problem.forms, problem.ranking, problem.bounds))
    forms = 0
    for sys_ in draws:
        if sys_ is None or decide_passivity(sys_).verdict != "passive":
            continue
        ctx, census, result = sys_.ctx, quotient_census(sys_), normalized_slice(sys_)
        orbit = [v for _, _, v in iter_orbit(sys_, sys_.bounds.order_bound)]
        for v in census.principal + census.parametric + orbit + [f.lead for f in result.forms]:
            assert type(v) is Deriv and v == ctx.u(v.i, v.order)
        for f in result.forms:
            assert type(f) is SolvedForm and f == SolvedForm(f.lead, f.tail)
            forms += 1
    assert forms >= 1000


def test_orbit_is_sorted_with_predecessors_first():
    # SolvedSystem.orbit is the one order of the census and the slice: tuple
    # order, in which each one-step predecessor v - e_k comes before v
    walked = 0
    for rng, sys_ in random_systems(78, 60):
        orbit = list(gen.with_bounds(sys_, order_bound=rng.randint(0, 4)).orbit())
        assert orbit == sorted({v for _, _, v in iter_orbit(sys_, sys_.bounds.order_bound)})
        place = {v: pos for pos, v in enumerate(orbit)}
        for pos, (i, a) in enumerate(orbit):
            for k in range(len(a)):
                prev = Deriv(i, a[:k] + (a[k] - 1,) + a[k + 1:]) if a[k] else None
                assert place.get(prev, -1) < pos
                walked += prev in place
    assert walked >= 400


def test_census_principal_are_the_slice_leads():
    # the census's principal list and the slice's leads are one list, in one
    # order, on the corpus and on seeded passive systems
    draws = [sys_ for _, sys_ in random_systems(79, 40, passive_only=True)]
    for path in sorted(PROBLEMS.glob("*.json")):
        problem = load_problem(str(path))
        draws.append(coincident_lead_analysis(problem.forms, problem.ranking, problem.bounds).system)
    compared = 0
    for sys_ in draws:
        report = None if sys_ is None else is_passive(sys_)
        if report is not None and report.verdict == "passive":
            assert report.census.principal == [f.lead for f in report.normalized.forms]
            compared += len(report.census.principal)
    assert compared >= 300


def test_orbit_follows_a_reassigned_bound():
    # the orbit memo is keyed by the order bound, so reassigning sys.bounds on
    # a warm system gives the new bound's orbit, and the old one again after
    sys_ = system(SolvedForm(D(1, 0), -X(2)), SolvedForm(D(0, 2), -U(1, 0)))
    orbits = {}
    for bound in (3, 1, 4, 3):
        orbits[bound] = list(gen.with_bounds(sys_, order_bound=bound).orbit())
        assert orbits[bound] == sorted({v for _, _, v in iter_orbit(sys_, bound)})
        assert quotient_census(sys_).principal == orbits[bound]
    assert orbits[1] == [D(1, 0)]
    assert len(orbits[3]) < len(orbits[4])


def test_engine_step_budget():
    sys_ = gen.with_bounds(obstructed(), max_steps=0)
    with pytest.raises(ReductionLimitError):
        sys_.normal_form(U(2, 1))
    sys_.bounds = Bounds()
    assert sys_.normal_form(U(2, 1)) == reduce(U(2, 1), sys_).remainder
    # a warm memo still charges the call's own substitutions
    sys_.bounds = Bounds(max_steps=0)
    with pytest.raises(ReductionLimitError):
        sys_.normal_form(U(2, 1))
    assert sys_.normal_form(X(1)) == X(1)
    with pytest.raises(ReductionLimitError):
        check_pair(sys_, tau_generators(sys_.leads())[0])


def test_one_bound_reaches_every_phase():
    # Bounds(max_steps=0) on the system, and no argument of the call, stops
    # each phase at its first substitution; the default budget lets it finish
    reducible = (SolvedForm(D(1, 0), -X(2)), SolvedForm(D(0, 2), -U(1, 0)))
    coincident = [SolvedForm(D(1, 0), -U(0, 1)), SolvedForm(D(0, 1), -X(1)), SolvedForm(D(1, 0), -X(1))]
    phases = {
        "check_pair": lambda b: check_pair(gen.with_bounds(obstructed(), **b), tau_generators(obstructed().leads())[0]),
        "normalized_slice": lambda b: normalized_slice(gen.with_bounds(obstructed(), order_bound=3, **b)),
        "reduce": lambda b: reduce(U(2, 1), gen.with_bounds(obstructed(), **b)),
        "autoreduce": lambda b: autoreduce(SolvedSystem(reducible, ORD, Bounds(**b))),
        "coincident_lead_analysis": lambda b: coincident_lead_analysis(coincident, ORD, Bounds(**b)),
    }
    for name, run in phases.items():
        run({})
        with pytest.raises(ReductionLimitError, match=r"^reduction exceeded 0 steps"):
            run({"max_steps": 0})
    # the systems a phase builds hold the bounds it was given
    bounds = Bounds(order_bound=2, max_steps=7)
    assert autoreduce(SolvedSystem(reducible, ORD, bounds)).bounds == bounds
    assert coincident_lead_analysis(coincident[:2], ORD, bounds).system.bounds == bounds
    assert SolvedSystem(reducible, ORD).bounds == Bounds() == (6, 10**5, 10**6)


def test_pair_combination_matches_operator_apply():
    pairs = 0
    for path in sorted(PROBLEMS.glob("*.json")):
        problem = load_problem(str(path))
        sys_ = coincident_lead_analysis(problem.forms, problem.ranking).system
        if sys_ is None:
            continue
        for tau in tau_generators(sys_.leads()):
            expected = operator_apply(tau_vector(tau), sys_)
            assert check_pair(sys_, tau).combination == expected
            pairs += 1
    assert pairs >= 5


def test_slice_local_coherence_flags_obstruction():
    # u_(2,1) is reached from u_(1,1) along x1 and from u_(2,0) along x2;
    # the two tails differ because the pair is obstructed
    result = normalized_slice(gen.with_bounds(obstructed(), order_bound=3))
    assert not result.coherent
    assert result.mismatches[0] == {
        "lead": D(2, 1),
        "first": {"from": D(1, 1), "direction": 1},
        "second": {"from": D(2, 0), "direction": 2},
    }
    assert json.loads(render(result.mismatches[0])) == {
        "lead": ["u", 1, [2, 1]],
        "first": {"from": ["u", 1, [1, 1]], "direction": 1},
        "second": {"from": ["u", 1, [2, 0]], "direction": 2},
    }
    assert normalized_slice(gen.with_bounds(heat(), order_bound=3)).coherent
