"""Solved systems, orbit division, autoreduction, normalized sets."""

import json
import random
from pathlib import Path
from time import perf_counter

import pytest

from diffalg import (
    Context,
    DiffPoly,
    Ranking,
    ReductionLimitError,
    SolvedForm,
    SolvedSystem,
    StructuralError,
    autoreduce,
    check_conditionally_solvable,
    find_principal,
    normalized_slice,
    reduce,
    to_text,
)

from diffalg.cli import render
from diffalg.normal import Bounds, ReduceResult, ReduceStep, certify_slice
from diffalg.passivity import decide_passivity
from diffalg.problem import problem_from_dict

import gen
from gen import C, CTX, D, U, X, heat, system
from reference.oracle import MembershipInstance, divide_by_normalized, iter_orbit, membership, prolong

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"


def test_solved_form_rejects_self_dependence():
    with pytest.raises(StructuralError):
        SolvedForm(D(1, 0), U(1, 0) + X(1))
    SolvedForm(D(1, 0), U(0, 1))  # other derivatives are fine at this level


def test_system_rejects_coincident_leads():
    eq = SolvedForm(D(1, 0), -X(2))
    with pytest.raises(StructuralError):
        system(eq, eq)
    # and an equation of another ambient than its ranking
    with pytest.raises(StructuralError, match="^equation ambient differs from ranking ambient$"):
        system(eq, rk=Ranking.from_spec(Context(3, 1), "orderly"))


def test_check_conditionally_solvable():
    assert check_conditionally_solvable(system(SolvedForm(D(2, 0), -U(0, 1)))).ok
    bad = check_conditionally_solvable(system(SolvedForm(D(0, 1), -U(2, 0))))
    assert not bad.ok and bad.violations[0]["eq"] == 0
    assert check_conditionally_solvable(system(SolvedForm(D(1, 0), X(2)))).ok


def test_find_principal():
    sys_ = system(SolvedForm(D(2, 0), DiffPoly(CTX)))
    assert find_principal(sys_, D(3, 1)) == (0, (1, 1))
    assert find_principal(sys_, D(1, 0)) is None
    ctx2 = Context(2, 2)
    sys2 = SolvedSystem(
        (SolvedForm(ctx2.u(1, (2, 0)), DiffPoly(ctx2)),), Ranking.from_spec(ctx2, "orderly")
    )
    assert find_principal(sys2, ctx2.u(2, (0, 0))) is None


def test_find_principal_minimal_shift():
    sys_ = system(
        SolvedForm(D(1, 0), DiffPoly(CTX)),
        SolvedForm(D(2, 1), -U(0, 1)),
    )
    # both leads divide u_(2,1); the second needs shift (0,0), the first (1,1)
    assert find_principal(sys_, D(2, 1)) == (1, (0, 0))
    assert find_principal(sys_, D(3, 1)) == (1, (1, 0))


def test_reduce_examples():
    sys_ = system(SolvedForm(D(1, 0), -X(2)))
    res = reduce(U(1, 1), sys_)
    assert res.remainder == C(1)
    assert [s.to_json() for s in res.trace] == [{"eq": 0, "shift": (0, 1), "eliminated": D(1, 1)}]
    assert json.loads(render(res.trace[0].to_json()))["eliminated"] == ["u", 1, [1, 1]]
    assert not reduce(U(2, 0), sys_).remainder
    f = gen.power(X(1), 2) + C(3)
    assert reduce(f, sys_).remainder == f


def test_reduce_requires_solvable():
    bad = system(SolvedForm(D(0, 1), -U(2, 0)))
    with pytest.raises(StructuralError):
        reduce(U(1, 1), bad)


def test_reduce_step_budget():
    sys_ = system(SolvedForm(D(1, 0), -X(2)))
    with pytest.raises(ReductionLimitError):
        reduce(U(1, 1), gen.with_bounds(sys_, max_steps=0))


def test_reduce_idempotent_and_linear():
    rng = random.Random(31)
    for _ in range(30):
        ctx = Context(2, rng.randint(1, 2))
        rk = Ranking.from_spec(ctx, "orderly")
        sys_ = gen.rand_solved_system(rng, ctx, rk, rng.randint(1, 3))
        f = gen.rand_poly(rng, ctx, terms=3, max_degree=2, max_order=3)
        g = gen.rand_poly(rng, ctx, terms=3, max_degree=2, max_order=3)
        rf = reduce(f, sys_).remainder
        rg = reduce(g, sys_).remainder
        assert reduce(rf, sys_).remainder == rf
        assert reduce(f + g, sys_).remainder == rf + rg


def test_remainder_free_of_principal_derivatives():
    rng = random.Random(32)
    for _ in range(25):
        ctx = Context(2, 2)
        rk = Ranking.from_spec(ctx, "orderly")
        sys_ = gen.rand_solved_system(rng, ctx, rk, 2)
        f = gen.rand_poly(rng, ctx, terms=3, max_degree=2, max_order=3)
        r = reduce(f, sys_).remainder
        assert all(find_principal(sys_, v) is None for v in r.support_derivs())


def reduce_reference(f, sys_):
    """Greatest-first division the direct way: every step scans the support
    with find_principal and prolongs the chosen rule afresh."""
    rk = sys_.ranking
    trace, current = [], f
    while True:
        hits = [(v, *hit) for v in current.support_derivs() if (hit := find_principal(sys_, v)) is not None]
        if not hits:
            return ReduceResult(current, trace)
        v, idx, shift = max(hits, key=lambda h: (rk.key(h[0]), (h[0].i, h[0].order)))
        replacement = (-sys_.equations[idx].tail).total_derivative_multi(shift)
        current = current.substitute({v: replacement})
        trace.append(ReduceStep(idx, shift, v))


def test_reduce_on_engine_memo_equals_reference():
    # several targets per system, so later calls read rules and prolongations
    # the earlier ones memoized
    rng = random.Random(35)
    steps = 0
    for _ in range(80):
        ctx = Context(rng.randint(1, 3), rng.randint(1, 2))
        rk = rng.choice([Ranking.from_spec(ctx, "orderly"), Ranking.from_spec(ctx, "elimination")])
        sys_ = gen.rand_solved_system(rng, ctx, rk, rng.randint(1, 3))
        for _ in range(4):
            f = gen.rand_poly(rng, ctx, terms=4, max_degree=2, max_order=4)
            expected, got = reduce_reference(f, sys_), reduce(f, sys_)
            assert got.trace == expected.trace
            assert got.remainder == expected.remainder
            assert to_text(got.remainder) == to_text(expected.remainder)
            steps += len(got.trace)
    assert steps > 250


def test_reduce_is_linear_in_a_long_chain():
    # u_x = u and the target u_(1) + ... + u_(N): each of the N steps rewrites
    # one term, so a loop that rescans and rebuilds the whole polynomial on
    # every step is quadratic in N and misses the time limit by far.  The
    # answer has a closed form: u_(k) -> u_(k-1) for k = N down to 1, and the
    # remainder N u.  The quadratic reference is tied in on a shorter chain.
    ctx = Context(1, 1)
    sys_ = SolvedSystem((SolvedForm(ctx.u(1, (1,)), -DiffPoly.variable(ctx, ctx.u(1, (0,)))),),
                        Ranking.from_spec(ctx, "orderly"))

    def chain(n):
        return DiffPoly(ctx, {((ctx.u(1, (k,)), 1),): 1 for k in range(1, n + 1)})

    start = perf_counter()
    got = reduce(chain(2000), sys_)
    assert perf_counter() - start < 1
    assert got.trace == [ReduceStep(0, (k - 1,), ctx.u(1, (k,))) for k in range(2000, 0, -1)]
    assert got.remainder == DiffPoly(ctx, {((ctx.u(1, (0,)), 1),): 2000})
    got, expected = reduce(chain(200), sys_), reduce_reference(chain(200), sys_)
    assert got.trace == expected.trace and got.remainder == expected.remainder


# ranking with u_(1,0) below u_(0,1): order first, then unknown, then alpha_2;
# total for n = 2 and passes the audit
Y_FIRST = Ranking.from_spec(CTX, {"weights": [[0, 1, 1], [1, 0, 0], [0, 0, 1]]})


def test_autoreduce_example():
    sys_ = system(
        SolvedForm(D(1, 0), -X(2)),
        SolvedForm(D(0, 1), -X(1) - U(1, 0)),
        rk=Y_FIRST,
    )
    out = autoreduce(sys_)
    assert out.equations[0] == sys_.equations[0]
    # second solved form becomes  u_(0,1) = x1 + x2
    assert -out.equations[1].tail == X(1) + X(2)


def test_autoreduce_fixed_point_and_singleton():
    sys_ = system(
        SolvedForm(D(1, 0), -X(2)),
        SolvedForm(D(0, 1), -X(1) - X(2)),
    )
    assert autoreduce(sys_) == sys_
    single = system(SolvedForm(D(1, 0), DiffPoly(CTX)))
    assert autoreduce(single) == single


def test_autoreduce_refusal_names_the_unsolvable_equation():
    # u_(1,0) = -u_(0,2) has a tail above its lead under the orderly
    # ranking: the refusal names that equation by its own index, 1, and a
    # single unsolvable equation is refused as normal_form refuses it
    sys_ = system(SolvedForm(D(2, 0), -X(1)), SolvedForm(D(1, 0), -U(0, 2)))
    with pytest.raises(StructuralError, match=r"^system is not conditionally solvable: \[\{'eq': 1, "):
        autoreduce(sys_)
    with pytest.raises(StructuralError, match=r"^system is not conditionally solvable: \[\{'eq': 0, "):
        autoreduce(system(SolvedForm(D(1, 0), -U(0, 2))))


def test_autoreduce_preserves_ideal():
    # both presentations generate the same bounded ideal slice; the reduced
    # tails must be mutually reachable
    sys_ = system(
        SolvedForm(D(1, 0), -X(2)),
        SolvedForm(D(0, 1), -X(1) - U(1, 0)),
        rk=Y_FIRST,
    )
    out = autoreduce(sys_)
    gens_before = prolong(sys_, 2)
    gens_after = prolong(out, 2)
    for eq in out.equations:
        inst = MembershipInstance(DiffPoly.variable(CTX, eq.lead) + eq.tail, gens_before, 2, 2)
        assert membership(inst) is not None
    for eq in sys_.equations:
        inst = MembershipInstance(DiffPoly.variable(CTX, eq.lead) + eq.tail, gens_after, 2, 2)
        assert membership(inst) is not None


def test_normalized_generators_unique_for_equal_lead_sets():
    # two presentations of one ideal with identical leads autoreduce to
    # structurally identical tails
    b1 = system(
        SolvedForm(D(1, 0), -X(2)),
        SolvedForm(D(0, 1), -X(1)),
    )
    c = C(3)
    b2 = system(
        SolvedForm(D(1, 0), -X(2) + c * (U(0, 1) - X(1))),
        SolvedForm(D(0, 1), -X(1)),
    )
    assert autoreduce(b1) == autoreduce(b2)


def test_divide_by_normalized_examples():
    ctx = Context(2, 2)
    b = [
        SolvedForm(ctx.u(1, (0, 0)), -DiffPoly.variable(ctx, ctx.x(1))),
        SolvedForm(ctx.u(2, (0, 0)), -DiffPoly.variable(ctx, ctx.x(2))),
    ]
    f = DiffPoly.variable(ctx, ctx.u(1, (0, 0))) * DiffPoly.variable(ctx, ctx.u(2, (0, 0)))
    x1x2 = DiffPoly.variable(ctx, ctx.x(1)) * DiffPoly.variable(ctx, ctx.x(2))
    assert divide_by_normalized(f, b) == x1x2
    g = gen.power(DiffPoly.variable(ctx, ctx.x(1)), 3)
    assert divide_by_normalized(g, b) == g
    lead0 = DiffPoly.variable(ctx, ctx.u(1, (0, 0)))
    assert divide_by_normalized(lead0, b) == -b[0].tail


def test_divide_by_normalized_rejects_unnormalized():
    b = [
        SolvedForm(D(1, 0), -U(0, 1)),
        SolvedForm(D(0, 1), -X(1)),
    ]
    # first tail mentions the second lead
    with pytest.raises(StructuralError):
        divide_by_normalized(X(1), b)
    with pytest.raises(StructuralError):
        divide_by_normalized(X(1), [b[1], b[1]])


def test_divide_order_independence_randomized():
    rng = random.Random(33)
    for _ in range(60):
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
        lead_set = {b.lead for b in forms}
        assert not (r1.support_derivs() & lead_set)


def test_normalized_slice_heat():
    sys_ = system(SolvedForm(D(2, 0), -U(0, 1)))
    result = normalized_slice(gen.with_bounds(sys_, order_bound=3))
    assert result.coherent
    leads = {f.lead for f in result.forms}
    assert leads == {D(2, 0), D(3, 0), D(2, 1)}
    by_lead = {f.lead: f for f in result.forms}
    assert -by_lead[D(2, 0)].tail == U(0, 1)
    assert -by_lead[D(3, 0)].tail == U(1, 1)
    assert -by_lead[D(2, 1)].tail == U(0, 2)


def test_slice_missing_or_extra_lead_is_not_certified():
    # leads_match_orbit compares the leads with find_principal, not with the
    # orbit walk that built the slice
    sys_ = system(SolvedForm(D(2, 0), -U(0, 1)))
    result = normalized_slice(gen.with_bounds(sys_, order_bound=4))
    assert result.leads_match_orbit and result.certified
    for drop in range(len(result.forms)):
        forms = result.forms[:drop] + result.forms[drop + 1:]
        dropped = certify_slice(sys_, forms, result.mismatches)
        assert not dropped.leads_match_orbit and not dropped.certified
        assert dropped.to_json()["leads_match_orbit"] is False
    # u_(0,1) is parametric below the bound; u_(0,4) is parametric at it, where closure asks nothing
    for extra in (SolvedForm(D(0, 1), DiffPoly(CTX)), SolvedForm(D(0, 4), DiffPoly(CTX)), result.forms[0]):
        padded = certify_slice(sys_, result.forms + [extra], result.mismatches)
        assert not padded.leads_match_orbit and not padded.certified
    # the same leads, but one tail holds the principal u_(2,0): not reduced
    dirty = [SolvedForm(f.lead, f.tail + U(2, 0)) if f.lead == D(3, 0) else f for f in result.forms]
    unreduced = certify_slice(sys_, dirty, result.mismatches)
    assert unreduced.leads_match_orbit and not unreduced.tails_reduced and not unreduced.certified
    assert unreduced.to_json()["tails_reduced"] is False


def test_normalized_slice_agrees_with_reduce():
    sys_ = system(
        SolvedForm(D(1, 0), DiffPoly(CTX)),
        SolvedForm(D(0, 1), -X(2)),
    )
    rng = random.Random(34)
    for _ in range(20):
        f = gen.rand_poly(rng, CTX, terms=3, max_degree=2, max_order=3)
        res = reduce(f, sys_)
        bound = max(3, gen.max_eliminated_order(res))
        forms = normalized_slice(gen.with_bounds(sys_, order_bound=bound)).forms
        assert divide_by_normalized(f, forms) == res.remainder


def test_engine_rewrite_cycle_ends_in_step_budget():
    # key(u_a) = (-2, -2 - a) falls with a, which no ranking may do: the
    # prolonged rule u_2 -> -u_2 - x1*u_3 brings u_2 back, so rewriting
    # never ends and both division paths stop at the budget
    ctx = Context(1, 1)
    rk = Ranking.from_spec(ctx, {"weights": [[-2, 0], [-2, -1]]})
    u2 = DiffPoly.variable(ctx, ctx.u(1, (2,)))
    sys_ = SolvedSystem((SolvedForm(ctx.u(1, (1,)), X(1, ctx) * u2),), rk, Bounds(max_steps=50))
    with pytest.raises(ReductionLimitError):
        sys_.normal_form(u2)
    with pytest.raises(ReductionLimitError):
        reduce(u2, sys_)


# -- the slice's NF(D_k T) -----------------------------------------------------------

FAMILIES = [("heat", 3, 5), ("heat", 4, 3), ("riccati", 2, 5), ("riccati", 3, 3), ("gradient", 2, 5),
            ("gradient", 3, 4), ("elimination", 2, 4), ("elimination", 3, 3)]


def family_system(seed, family, n, bound):
    problem = problem_from_dict(gen.family_problem(random.Random(seed), family, n, bound))
    return SolvedSystem(problem.forms, problem.ranking)


def orbit_tails(sys_, bound):
    """{v: NF(v)} for every orbit element v up to the bound, each from its
    own normal form on a copy of the system with its own memos."""
    reference = SolvedSystem(sys_.equations, sys_.ranking)
    orbit = {v for _, _, v in iter_orbit(sys_, bound)}
    return {v: reference.normal_form(DiffPoly.variable(sys_.ctx, v)) for v in orbit}


def check_slice_tails(sys_, bound):
    """The slice derives each shifted lead's tail T as NF(D_k T') from a
    predecessor's; v + T lies in the ideal, so T must be -NF(v).  Returns
    whether some tail is nonzero."""
    result = normalized_slice(gen.with_bounds(sys_, order_bound=bound))
    assert result.certified
    assert {f.lead: -f.tail for f in result.forms} == orbit_tails(sys_, bound)
    return any(f.tail for f in result.forms)


@pytest.mark.parametrize("seed, family, n, bound", [(seed, *case) for seed, case in enumerate(FAMILIES)])
def test_derived_normal_form_on_families(seed, family, n, bound):
    assert check_slice_tails(family_system(seed, family, n, bound), bound)


def test_derived_normal_form_on_random_systems():
    """The slice check on seeded passive draws."""
    rng = random.Random(17)
    passive = nonzero = 0
    while passive < 12:
        ctx = Context(rng.randint(1, 3), rng.randint(1, 2))
        sys_ = gen.rand_solved_system(rng, ctx, Ranking.from_spec(ctx, "orderly"), rng.randint(1, 4))
        if decide_passivity(sys_).verdict == "passive":
            passive += 1
            nonzero += check_slice_tails(sys_, 3)
    assert nonzero >= 6


def test_derived_normal_form_preconditions():
    sys_ = system(SolvedForm(D(2, 0), -U(0, 1)))
    with pytest.raises(StructuralError):
        sys_.normal_form(U(0, 1).total_derivative(3))
    with pytest.raises(StructuralError):
        sys_.normal_form(DiffPoly.variable(Context(3, 1), Context(3, 1).u(1, (0, 1, 0))).total_derivative(1))
    with pytest.raises(ReductionLimitError, match=r"last state: u\[1,\(2,1\)\]"):
        gen.with_bounds(sys_, max_steps=0).normal_form(U(1, 1).total_derivative(1))
    # u_(4,0) -> u_(2,1) -> u_(0,2): the second step is charged while filling the memo
    with pytest.raises(ReductionLimitError, match=r"^reduction exceeded 1 steps; last state: u\[1,\(2,1\)\]$"):
        gen.with_bounds(heat(), max_steps=1).normal_form(U(4, 0))
    assert gen.with_bounds(heat(), max_steps=2).normal_form(U(4, 0)) == U(0, 2)


def smallest_budget(argv):
    """The smallest --max-steps with which the command gives its exit code
    under the file's own budget, by bisection; every smaller one exits 4."""
    def code(*flags):
        return gen.run_cli(*argv, *flags)[0]

    goal, lo, hi = code(), 0, Bounds().max_steps
    while lo < hi:
        mid = (lo + hi) // 2
        if code("--max-steps", str(mid)) == goal:
            hi = mid
        else:
            lo = mid + 1
    assert hi == 0 or code("--max-steps", str(hi - 1)) == 4
    return hi


# problem -> least --max-steps with which (check, quotient) stop exiting 4
LEAST_BUDGETS = {
    "coincident_clash.json": (0, 0), "coincident_merge.json": (0, 0), "elim_system.json": (1, 1),
    "empty.json": (0, 0), "grad3.json": (0, 0), "gradient_consistent.json": (0, 0),
    "gradient_inconsistent.json": (0, 0), "heat.json": (0, 0), "obstructed.json": (1, 1),
    "weights_heat.json": (0, 0), "heat3_5.json": (2, 0), "heat4_3.json": (0, 0), "riccati2_5.json": (2, 2),
    "riccati3_3.json": (2, 2), "gradient2_5.json": (0, 0), "gradient3_4.json": (0, 0),
    "elimination2_4.json": (4, 0), "elimination3_3.json": (4, 0),
}


def test_slice_budget_boundary_does_not_move(tmp_path):
    """A slice candidate NF(D_k T) costs what normal_form charges on D_k T:
    one step per principal derivative of D_k T, memo fills included.  The
    least budget `check` and `quotient` need on the corpus and on seeded
    family problems is pinned, so a change to that charge, or to the order
    in which the slice fills the memo, shows here."""
    paths = sorted(PROBLEMS.glob("*.json"))
    for seed, (family, n, bound) in enumerate(FAMILIES):
        paths.append(tmp_path / f"{family}{n}_{bound}.json")
        paths[-1].write_text(json.dumps(gen.family_problem(random.Random(seed), family, n, bound)))
    assert {path.name: (smallest_budget(["check", str(path)]), smallest_budget(["quotient", str(path)]))
            for path in paths} == LEAST_BUDGETS
