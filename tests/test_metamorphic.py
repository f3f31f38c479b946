"""Metamorphic relations: the decision run on a system and on its image
under a symmetry of the theory must agree, with no solve in between, so
they check verdicts, census and slice at any size the engine decides.

R1 permutes the directions by pi: u_alpha -> u_{pi(alpha)}, x_j -> x_{pi(j)},
and the ranking becomes the weight rule whose direction columns are the old
weight matrix's columns permuted by pi (a named ranking's unit rows
included), so every derivative keeps its key.  A passive system stays
passive, and its census and slice map one to one.  On any other system only
the verdict is compared: find_principal breaks ties between leads in index
order, so single pair statuses may move.

R2 translates the independent variables, x_j -> x_j + c_j in every tail.
Translation commutes with every D_k, so the verdict, every pair status and
every remainder map exactly, passive or not; on a passive system the census
is equal and every slice tail maps.

The systems come from tests/gen.py, from the four benchmark workloads of
perfbench/gen.py at seeds 1 and 2, and from two of its families at scale
size, heat n=5 bound 10 and elimination n=4 bound 6 with random.Random(3),
where bounded membership is out of reach; perfbench/ is only imported.
"""

import random
import sys
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

from diffalg import Context, DiffPoly, Ranking, SolvedForm, coincident_lead_analysis, is_passive, monomial
from diffalg import multiindex as mi
from diffalg.algebra import Deriv, Indep
from diffalg.errors import StructuralError
from diffalg.passivity import PASSIVE
from diffalg.problem import Problem, problem_from_dict
from diffalg.ranking import shift_violation

import gen

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from perfbench import gen as workloads  # noqa: E402


SCALE = {"scale:heat5_10": (workloads.heat, 5, 10), "scale:elim4_6": (workloads.elimination, 4, 6)}


@lru_cache(maxsize=None)
def systems() -> tuple:
    """(name, Problem) for every seeded system both relations run on."""
    out = []
    for workload in workloads.WORKLOADS:
        for seed in (1, 2):
            for name, prob in workloads.build(workload, seed)[0].items():
                try:
                    out.append((f"{workload}:{seed}:{name}", problem_from_dict(prob["data"])))
                except StructuralError:  # a weight rule the load gate refuses
                    pass
    rng = random.Random(27)
    for family, n, bound in (("heat", 3, 4), ("riccati", 2, 4), ("gradient", 3, 3), ("elimination", 2, 3)):
        out.append((f"family:{family}", problem_from_dict(gen.family_problem(rng, family, n, bound))))
    for t in range(40):
        ctx = Context(rng.randint(2, 3), rng.randint(1, 2))
        rk = Ranking.from_spec(ctx, rng.choice(("orderly", "elimination")))
        sys_ = gen.rand_solved_system(rng, ctx, rk, rng.randint(1, 4))
        out.append((f"random:{t}", Problem(ctx, rk, list(sys_.equations), sys_.bounds._replace(order_bound=4))))
    for name, (family, n, bound) in SCALE.items():
        out.append((name, problem_from_dict(family(name, random.Random(3), n, bound)["data"])))
    return tuple(out)


def run(problem: Problem, forms=None):
    """(coincidence report, passivity report or None) of the problem, with
    forms in place of its own when given."""
    coincidence = coincident_lead_analysis(problem.forms if forms is None else forms, problem.ranking,
                                           problem.bounds)
    return coincidence, None if coincidence.system is None else is_passive(coincidence.system)


@lru_cache(maxsize=None)
def original(name: str):
    """run() of the named system as generated, shared by both relations."""
    return run(dict(systems())[name])


def verdict(outcome) -> str:
    coincidence, report = outcome
    return coincidence.verdict if report is None else report.verdict


def translation(ctx: Context):
    """p -> p with x_j replaced by x_j + c_j, for small nonzero rationals c_j."""
    images = {Indep(j): DiffPoly.variable(ctx, Indep(j)) + DiffPoly(ctx, {(): Fraction((-1) ** j * j, 3)})
              for j in range(1, ctx.n + 1)}
    return lambda p: p.substitute(images)


def permutation(ctx: Context, pi: tuple):
    """The (variable, polynomial, multi-index) maps of the direction
    permutation that sends direction j to pi[j - 1] + 1."""
    def index(a):
        out = [0] * len(a)
        for j, e in enumerate(a):
            out[pi[j]] = e
        return tuple(out)

    def var(v):
        return Indep(pi[v.j - 1] + 1) if isinstance(v, Indep) else Deriv(v.i, index(v.order))

    def poly(p):
        return DiffPoly(ctx, {monomial((var(v), e) for v, e in m): c for m, c in p.terms.items()})

    return var, poly, index


def permuted_ranking(rk: Ranking, index) -> Ranking:
    """The weight rule whose direction columns are rk's, implicit unit rows
    included, permuted as index permutes a multi-index."""
    n = rk.ctx.n
    units = [tuple(int(t == k) for t in range(n + 1)) for k in range(1, n + 1)] if rk.units else []
    rows = [[str(row[0])] + [str(w) for w in index(row[1:])] for row in (*rk.weights, *units)]
    return Ranking.from_weights(rk.ctx, rows)


def test_r2_translation_maps_verdicts_remainders_and_slices():
    passive = set()
    for name, problem in systems():
        shift = translation(problem.ctx)
        forms = [SolvedForm(f.lead, shift(f.tail)) for f in problem.forms]
        (coin, report), (coin2, report2) = original(name), run(problem, forms)
        assert coin2.verdict == coin.verdict, name
        assert [(r.lead, r.status) for r in coin2.relations] == [(r.lead, r.status) for r in coin.relations], name
        assert [r.remainder for r in coin2.relations] == [shift(r.remainder) for r in coin.relations], name
        assert (report is None) == (report2 is None), name
        if report is None:
            continue
        assert report2.verdict == report.verdict, name
        assert [(p.pair, p.status) for p in report2.pairs] == [(p.pair, p.status) for p in report.pairs], name
        assert [p.remainder for p in report2.pairs] == [shift(p.remainder) for p in report.pairs], name
        if report.verdict == PASSIVE:
            passive.add(name)
            assert report2.census == report.census, name
            assert [f.lead for f in report2.normalized.forms] == [f.lead for f in report.normalized.forms], name
            assert [f.tail for f in report2.normalized.forms] == [shift(f.tail) for f in report.normalized.forms]
            assert report2.normalized.certified and report.normalized.certified, name
    assert len(passive) >= 40 and set(SCALE) <= passive, sorted(passive)


def test_r1_direction_permutation_maps_passive_systems():
    passive, compared = set(), 0
    for name, problem in systems():
        n = problem.ctx.n  # at least 2 on every system here
        pi = tuple(random.Random(name).sample(range(n), n))
        if pi == tuple(range(n)):
            pi = pi[1:] + pi[:1]
        var, poly, index = permutation(problem.ctx, pi)
        ranking = permuted_ranking(problem.ranking, index)
        assert shift_violation(ranking) is None, name
        forms = [SolvedForm(var(f.lead), poly(f.tail)) for f in problem.forms]
        outcome = original(name)
        permuted = run(problem._replace(ranking=ranking, forms=forms))
        assert verdict(permuted) == verdict(outcome), (name, pi)
        compared += 1
        report, report2 = outcome[1], permuted[1]
        if report is None or report.verdict != PASSIVE:
            continue
        passive.add(name)
        census, census2 = report.census, report2.census
        assert census2.counts == census.counts, (name, pi)
        assert set(census2.principal) == set(map(var, census.principal)), (name, pi)
        assert set(census2.parametric) == set(map(var, census.parametric)), (name, pi)
        forms2 = {f.lead: f.tail for f in report2.normalized.forms}
        assert forms2 == {var(f.lead): poly(f.tail) for f in report.normalized.forms}, (name, pi)
        assert report2.normalized.certified, (name, pi)
    assert len(passive) >= 40 and compared > len(passive) and set(SCALE) <= passive, (sorted(passive), compared)
