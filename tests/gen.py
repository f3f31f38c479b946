"""Seeded random generators shared by the test modules."""

from fractions import Fraction
import random

from diffalg import Bounds, Context, DiffPoly, SolvedForm, SolvedSystem, monomial, poly_to_json
from diffalg import multiindex as mi
from diffalg.algebra import Deriv, Indep, var_to_json


def degree(f):
    """Total degree of f; 0 for the zero polynomial."""
    return max((sum(e for _, e in m) for m in f.terms), default=0)


def max_deriv_order(f):
    """Largest |alpha| among f's support derivatives; 0 if there are none."""
    return max((sum(v.order) for v in f.support_derivs()), default=0)


def max_eliminated_order(result):
    """Largest |alpha| a reduce trace eliminated; 0 for an empty trace."""
    return max((sum(s.eliminated.order) for s in result.trace), default=0)


def with_bounds(sys_, **fields):
    """sys_, its bounds now Bounds(**fields): the other fields at their defaults."""
    sys_.bounds = Bounds(**fields)
    return sys_


def power(f, e):
    """f ** e by repeated multiplication, for e >= 0."""
    result = DiffPoly(f.ctx, {(): 1})
    for _ in range(e):
        result = result * f
    return result


def partial(f, v):
    """Formal partial derivative of f with respect to the single variable v."""
    acc = {}
    for m, c in f.terms.items():
        exps = dict(m)
        e = exps.pop(v, 0)
        if e:
            dm = monomial([*exps.items(), (v, e - 1)])
            acc[dm] = acc.get(dm, 0) + c * e
    return DiffPoly(f.ctx, acc)


def rand_index(rng, n, max_order):
    return rng.choice(list(mi.iter_up_to_order(n, max_order)))


def rand_deriv(rng, ctx, max_order):
    return Deriv(rng.randint(1, ctx.m), rand_index(rng, ctx.n, max_order))


def rand_variable(rng, ctx, max_order):
    if rng.random() < 0.3:
        return Indep(rng.randint(1, ctx.n))
    return rand_deriv(rng, ctx, max_order)


def rand_coeff(rng):
    num = rng.choice([-5, -3, -2, -1, 1, 2, 3, 4, 5])
    den = rng.choice([1, 1, 2, 3])
    return Fraction(num, den)


def rand_monomial(rng, ctx, max_degree, max_order):
    degree = rng.randint(0, max_degree)
    factors = {}
    for _ in range(degree):
        v = rand_variable(rng, ctx, max_order)
        factors[v] = factors.get(v, 0) + 1
    return monomial(factors.items())


def rand_poly(rng, ctx, terms=4, max_degree=3, max_order=4):
    acc = {}
    for _ in range(rng.randint(1, terms)):
        m = rand_monomial(rng, ctx, max_degree, max_order)
        acc[m] = acc.get(m, Fraction(0)) + rand_coeff(rng)
    return DiffPoly(ctx, acc)


def rand_poly_over(rng, ctx, pool, terms=3, max_degree=2):
    """Random polynomial whose variables come from the given pool."""
    acc = {}
    for _ in range(rng.randint(0, terms)):
        degree = rng.randint(0, max_degree)
        factors = {}
        for _ in range(degree):
            if not pool:
                break
            v = rng.choice(pool)
            factors[v] = factors.get(v, 0) + 1
        m = monomial(factors.items())
        acc[m] = acc.get(m, Fraction(0)) + rand_coeff(rng)
    return DiffPoly(ctx, acc)


def rand_distinct_leads(rng, ctx, k, max_order=3):
    candidates = [
        Deriv(i, a)
        for i in range(1, ctx.m + 1)
        for a in mi.iter_up_to_order(ctx.n, max_order)
    ]
    rng.shuffle(candidates)
    return candidates[:k]


def rand_normalized_set(rng, ctx, k, max_order=3):
    """Solved forms with pairwise-distinct leads and tails over the
    complementary (parametric) variables only."""
    leads = rand_distinct_leads(rng, ctx, k, max_order)
    lead_set = set(leads)
    pool = [Indep(j) for j in range(1, ctx.n + 1)]
    pool += [
        Deriv(i, a)
        for i in range(1, ctx.m + 1)
        for a in mi.iter_up_to_order(ctx.n, max_order)
        if Deriv(i, a) not in lead_set
    ]
    return [SolvedForm(lead, rand_poly_over(rng, ctx, pool)) for lead in leads]


def rand_solved_system(rng, ctx, ranking, k, max_order=3, tail_terms=2, tail_degree=2):
    """Conditionally solvable by construction: every tail variable ranks
    strictly below its lead."""
    leads = rand_distinct_leads(rng, ctx, k, max_order)
    forms = []
    for lead in leads:
        below = [
            Deriv(i, a)
            for i in range(1, ctx.m + 1)
            for a in mi.iter_up_to_order(ctx.n, max_order)
            if ranking.key(Deriv(i, a)) < ranking.key(lead)
        ]
        pool = [Indep(j) for j in range(1, ctx.n + 1)] + below
        forms.append(SolvedForm(lead, rand_poly_over(rng, ctx, pool, tail_terms, tail_degree)))
    return SolvedSystem(tuple(forms), ranking)


def family_problem(rng, family, n, bound):
    """A problem-file dict of an output-heavy passive family with seeded
    coefficients: "heat" u_{x1 x1} = sum_k c_k u_{x_k} (n >= 2), "riccati"
    u_{x_k} = a_k u^2, "gradient" u_{x_k} = D_k phi for a potential phi in
    the x's, or "elimination", heat on u^1 and u^2_{x_k} = D_k Q for
    Q = a u^1_{x1} u^1 + b x_1 u^1_{x_n} under the elimination ranking."""
    ctx = Context(n, 2 if family == "elimination" else 1)
    zero = (0,) * n

    def unit(k):
        return tuple(int(t == k) for t in range(1, n + 1))

    def u(i, a):
        return DiffPoly.variable(ctx, Deriv(i, a)) * rng.choice([1, 2, 3, -1, -2])

    if family == "riccati":
        eqs = [(Deriv(1, unit(k)), u(1, zero) * u(1, zero)) for k in range(1, n + 1)]
    elif family == "gradient":
        phi = rand_poly_over(rng, ctx, [Indep(j) for j in range(1, n + 1)], terms=4, max_degree=4)
        eqs = [(Deriv(1, unit(k)), phi.total_derivative(k)) for k in range(1, n + 1)]
    else:
        tail = DiffPoly(ctx)
        for k in range(2, n + 1):
            tail = tail + u(1, unit(k))
        eqs = [(Deriv(1, (2,) + zero[1:]), tail)]
        if family == "elimination":
            q = u(1, unit(1)) * u(1, zero) + DiffPoly.variable(ctx, Indep(1)) * u(1, unit(n))
            eqs += [(Deriv(2, unit(k)), q.total_derivative(k)) for k in range(1, n + 1)]
    return {
        "n": n,
        "m": ctx.m,
        "ranking": "elimination" if family == "elimination" else "orderly",
        "equations": [{"lead": var_to_json(v), "tail": poly_to_json(t)} for v, t in eqs],
        "bounds": {"order_bound": bound},
    }
