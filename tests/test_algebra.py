"""Ring arithmetic, derivations, substitution, and serialization."""

import copy
import pickle
import random
from fractions import Fraction
from functools import cmp_to_key

import pytest

from diffalg import (
    Context,
    DiffPoly,
    StructuralError,
    monomial,
    poly_from_json,
    poly_to_json,
    to_text,
)
from diffalg.algebra import (_RATIONAL_RE, Deriv, Indep, _frac_from_str, monomial_product, monomial_sort_key,
                             shift_deriv, var_from_json, var_to_json)

import gen

CTX = Context(2, 1)


def X(j, ctx=CTX):
    return DiffPoly.variable(ctx, ctx.x(j))


def U(*order, i=1, ctx=CTX):
    return DiffPoly.variable(ctx, ctx.u(i, order))


def C(c, ctx=CTX):
    return DiffPoly(ctx, {(): c})


def test_context_validation():
    with pytest.raises(StructuralError):
        Context(0, 1)
    with pytest.raises(StructuralError):
        CTX.x(3)
    with pytest.raises(StructuralError):
        CTX.u(2, (0, 0))
    with pytest.raises(StructuralError):
        CTX.u(1, (0, 0, 0))


def test_ring_ops():
    assert (X(1) + U(0, 0)) + (-X(1)) == U(0, 0)
    assert U(0, 0) * U(0, 0) == gen.power(U(0, 0), 2)
    f = X(1) * U(1, 0) + C(Fraction(3, 2))
    assert not f * 0
    assert f - f == DiffPoly(CTX)
    assert 2 * f == f + f


def test_ambient_mismatch():
    other = Context(2, 2)
    with pytest.raises(StructuralError):
        X(1) + DiffPoly.variable(other, other.x(1))


def test_partial():
    assert gen.partial(gen.power(X(1), 2), CTX.x(1)) == 2 * X(1)
    assert gen.partial(U(1, 0) * X(2), CTX.u(1, (1, 0))) == X(2)
    assert not gen.partial(X(1), CTX.u(1, (0, 0)))


def test_total_derivative():
    assert U(0, 0).total_derivative(1) == U(1, 0)
    assert (X(1) * U(0, 0)).total_derivative(1) == U(0, 0) + X(1) * U(1, 0)
    assert not X(1).total_derivative(2)


def test_total_derivative_multi():
    f = X(1) * U(0, 1) + C(7)
    assert f.total_derivative_multi((0, 0)) == f
    assert U(0, 0).total_derivative_multi((1, 1)) == U(1, 1)
    assert gen.power(X(1), 2).total_derivative_multi((2, 0)) == C(2)


def test_substitute():
    v = CTX.u(1, (0, 0))
    f = gen.power(U(0, 0), 2)
    assert f.substitute({v: X(1) + C(1)}) == gen.power(X(1), 2) + 2 * X(1) + C(1)
    g = X(1) * U(1, 0) + U(0, 0)
    assert g.substitute({v: U(0, 0)}) == g
    assert X(1).substitute({v: U(1, 1)}) == X(1)


def test_support_derivs():
    assert (gen.power(X(1), 2) + C(3)).support_derivs() == set()
    ctx = Context(2, 2)
    f = DiffPoly.variable(ctx, ctx.u(1, (1, 0))) * DiffPoly.variable(ctx, ctx.u(2, (0, 1)))
    assert f.support_derivs() == {ctx.u(1, (1, 0)), ctx.u(2, (0, 1))}
    assert DiffPoly(CTX).support_derivs() == set()
    # the x's are told apart by their unknown index 0: the same set as a scan
    # with isinstance, on seeded polynomials that mix x's and u's
    rng, mixed = random.Random(94), 0
    for _ in range(300):
        ctx = Context(rng.randint(1, 3), rng.randint(1, 3))
        f = gen.rand_poly(rng, ctx, terms=6)
        variables = {v for m in f.terms for v, _ in m}
        assert f.support_derivs() == {v for v in variables if isinstance(v, Deriv)}
        mixed += any(isinstance(v, Indep) for v in variables) and any(isinstance(v, Deriv) for v in variables)
    assert mixed >= 150


def test_leibniz_and_commutation_randomized():
    rng = random.Random(421)
    for _ in range(60):
        ctx = Context(rng.randint(1, 3), rng.randint(1, 3))
        f = gen.rand_poly(rng, ctx)
        g = gen.rand_poly(rng, ctx)
        for k in range(1, ctx.n + 1):
            assert (f * g).total_derivative(k) == f.total_derivative(k) * g + f * g.total_derivative(k)
        if ctx.n >= 2:
            assert f.total_derivative(1).total_derivative(2) == f.total_derivative(2).total_derivative(1)


def test_derivative_linearity_randomized():
    rng = random.Random(422)
    for _ in range(40):
        ctx = Context(2, 2)
        f, g = gen.rand_poly(rng, ctx), gen.rand_poly(rng, ctx)
        c = gen.rand_coeff(rng)
        assert (f + g * c).total_derivative(1) == f.total_derivative(1) + g.total_derivative(1) * c
        v = gen.rand_variable(rng, ctx, 4)
        assert gen.partial(f + g * c, v) == gen.partial(f, v) + gen.partial(g, v) * c


def test_semigroup_action_randomized():
    rng = random.Random(423)
    for _ in range(25):
        ctx = Context(2, 1)
        f = gen.rand_poly(rng, ctx, terms=3, max_degree=2, max_order=2)
        a = gen.rand_index(rng, 2, 2)
        b = gen.rand_index(rng, 2, 2)
        lhs = f.total_derivative_multi(a).total_derivative_multi(b)
        from diffalg import multiindex as mi

        assert lhs == f.total_derivative_multi(mi.add(a, b))


def var_key(v):
    """The canonical variable order spelled out: x's first by index, then u's
    by (unknown, exponent).  Variables compare as tuples in this order."""
    if isinstance(v, Indep):
        return (0, v.j)
    return (1, v.i) + v.order


def test_variable_tuple_order_matches_var_key():
    rng = random.Random(431)
    mixed = 0
    for _ in range(400):
        ctx = Context(rng.randint(1, 4), rng.randint(1, 3))
        a, b = (gen.rand_variable(rng, ctx, 3) for _ in range(2))
        assert (a < b) == (var_key(a) < var_key(b))
        assert (a == b) == (var_key(a) == var_key(b))
        mixed += type(a) is not type(b)
    assert mixed > 100


def test_indep_copies_and_pickles():
    ctx = Context(2, 1)
    x = Indep(2)
    f = DiffPoly.variable(ctx, x) * U(1, 0) - C(Fraction(1, 3))
    for clone in (copy.copy, copy.deepcopy, lambda obj: pickle.loads(pickle.dumps(obj))):
        y = clone(x)
        assert y == x and type(y) is Indep and y.j == 2 and y < Deriv(1, (0, 0))
        g = clone(f)
        assert g == f and hash(g) == hash(f)
        assert {type(v) for m in g.terms for v, _ in m} == {Indep, Deriv}


def test_shift_deriv_is_a_plain_deriv():
    # shift_deriv builds its result with tuple.__new__: it must still be
    # exactly a Deriv (render dispatches on the type), equal, hash and pickle
    # like Deriv(i, order)
    rng = random.Random(432)
    for _ in range(100):
        ctx = Context(rng.randint(1, 4), rng.randint(1, 3))
        v = gen.rand_deriv(rng, ctx, 3)
        k = rng.randint(1, ctx.n)
        w = shift_deriv(v, k)
        expected = Deriv(v.i, tuple(a + (j == k - 1) for j, a in enumerate(v.order)))
        assert type(w) is Deriv and w == expected and hash(w) == hash(expected)
        assert (w.i, w.order) == (v.i, expected.order)
        clone = pickle.loads(pickle.dumps(w))
        assert type(clone) is Deriv and clone == expected


def monomial_cmp_reference(a, b):
    """The display order as a comparator: graded, then lexicographic with
    priority to the greatest variable.  Walk both pair lists from their
    largest variable down; the first position where either the variable or
    its exponent is larger decides."""
    da, db = sum(e for _, e in a), sum(e for _, e in b)
    if da != db:
        return 1 if da > db else -1
    ia, ib = len(a) - 1, len(b) - 1
    while ia >= 0 or ib >= 0:
        if ia < 0:
            return -1
        if ib < 0:
            return 1
        (va, xa), (vb, xb) = a[ia], b[ib]
        ka, kb = var_key(va), var_key(vb)
        if ka != kb:
            return 1 if ka > kb else -1
        if xa != xb:
            return 1 if xa > xb else -1
        ia -= 1
        ib -= 1
    return 0


def test_monomial_order():
    one = monomial()
    x1 = monomial([(CTX.x(1), 1)])
    x2 = monomial([(CTX.x(2), 1)])
    u = monomial([(CTX.u(1, (0, 0)), 1)])
    key = monomial_sort_key
    assert key(one) < key(x1)  # degree first
    assert key(x1) < key(x2)  # greater variable wins at equal degree
    assert key(x2) < key(u)  # x variables rank below u variables
    assert key(u) == key(u)


def test_monomial_sort_key_matches_reference_comparator():
    rng = random.Random(428)
    for _ in range(60):
        ctx = Context(rng.randint(1, 3), rng.randint(1, 2))
        monos = list({gen.rand_monomial(rng, ctx, 4, 2) for _ in range(25)})
        rng.shuffle(monos)
        assert sorted(monos, key=monomial_sort_key) == sorted(monos, key=cmp_to_key(monomial_cmp_reference))
        for a in monos[:8]:
            for b in monos:
                ka, kb = monomial_sort_key(a), monomial_sort_key(b)
                assert (ka > kb) - (ka < kb) == monomial_cmp_reference(a, b)


def test_monomial_canonicalizes_outside_pairs():
    x1, x2, u = CTX.x(1), CTX.x(2), CTX.u(1, (1, 0))
    assert monomial() == ()
    assert monomial([(u, 2), (x2, 0), (x1, 1)]) == ((x1, 1), (u, 2))
    assert monomial([(x2, 0)]) == ()
    assert monomial([(x1, 1), (x1, 2)]) == ((x1, 3),)
    assert monomial([(u, 1), (x1, 1), (u, 1), (x2, 0)]) == ((x1, 1), (u, 2))
    assert type(monomial([(x1, 1)])) is tuple
    with pytest.raises(StructuralError):
        monomial([(x1, 1), (u, -1)])


def test_json_round_trip_examples():
    f = gen.power(X(1), 2) * U(2, 0) - C(Fraction(3, 4)) * U(0, 1) + C(5)
    data = poly_to_json(f)
    assert poly_from_json(CTX, data) == f
    assert poly_to_json(poly_from_json(CTX, data)) == data
    assert poly_to_json(DiffPoly(CTX)) == []
    assert poly_from_json(CTX, []) == DiffPoly(CTX)


def test_json_round_trip_randomized():
    rng = random.Random(424)
    for _ in range(50):
        ctx = Context(rng.randint(1, 3), rng.randint(1, 2))
        f = gen.rand_poly(rng, ctx)
        assert poly_from_json(ctx, poly_to_json(f)) == f


def test_json_merges_repeated_monomials_and_drops_zero_terms():
    x1, u = ["x", 1], ["u", 1, [1, 0]]
    data = [{"c": "0", "m": [[u, 1]]}, {"c": "2/3", "m": [[u, 1], [x1, 2]]}, {"c": 3, "m": []},
            {"c": "-2/3", "m": [[x1, 1], [u, 1], [x1, 1]]}, {"c": "1/2", "m": [[x1, 1]]}]
    p = poly_from_json(CTX, data)
    assert p == C(Fraction(1, 2)) * X(1) + C(3)
    assert_canonical(p)
    assert poly_from_json(CTX, data[:1]).terms == {}


def test_var_json():
    assert var_to_json(CTX.x(2)) == ["x", 2]
    assert var_to_json(CTX.u(1, (2, 0))) == ["u", 1, [2, 0]]
    assert var_from_json(CTX, ["u", 1, [0, 1]]) == CTX.u(1, (0, 1))
    with pytest.raises(StructuralError):
        var_from_json(CTX, ["y", 1])
    with pytest.raises(StructuralError):
        var_from_json(CTX, ["u", 1, [0, -1]])


def test_json_rejects_bad_terms():
    with pytest.raises(StructuralError):
        poly_from_json(CTX, [{"c": "0.5", "m": []}])  # decimals are not rationals
    with pytest.raises(StructuralError):
        poly_from_json(CTX, [{"c": "1", "m": [[["x", 1], 0]]}])
    with pytest.raises(StructuralError):
        poly_from_json(CTX, {"c": "1"})


def test_rationals_parse_as_fraction_does():
    # _frac_from_str builds the Fraction from the two integers of the string
    # it has matched; Fraction(s) is the reference
    rng = random.Random(19)

    def digits(count, first="0123456789"):
        return rng.choice(first) + "".join(rng.choice("0123456789") for _ in range(count - 1))

    strings = ["0", "-0", "00", "007", "-007", "-0/7", "0/1", "6/4", "-10/15", "0004/6", "-000/12",
               "1" + "0" * 39, "-" + "9" * 40 + "/" + "3" * 40]
    for _ in range(500):
        p = digits(rng.randint(1, 40))
        q = "/" + digits(rng.randint(1, 40), "123456789") if rng.random() < 0.6 else ""
        strings.append(rng.choice(["", "-"]) + p + q)
    for s in strings:
        assert _RATIONAL_RE.fullmatch(s), s
        value = _frac_from_str(s)
        assert type(value) is Fraction and value == Fraction(s), s


def test_to_text():
    assert to_text(U(2, 0) - U(0, 1)) == "u[1,(2,0)] - u[1,(0,1)]"
    assert to_text(DiffPoly(CTX)) == "0"
    assert to_text(C(Fraction(-1, 2)) * gen.power(X(1), 2)) == "-1/2*x[1]^2"


# -- kernel cross-checks ----------------------------------------------------------


def substitute_reference(f, v, g):
    """Single-variable substitution the slow way: each touched term's
    expansion is added to a fresh copy of the accumulator."""
    powers = {0: DiffPoly(f.ctx, {(): 1})}
    out, untouched = DiffPoly(f.ctx), {}
    for m, c in f.terms.items():
        e = dict(m).get(v, 0)
        if e == 0:
            untouched[m] = c
            continue
        while e not in powers:
            top = max(powers)
            powers[top + 1] = powers[top] * g
        out = out + DiffPoly(f.ctx, {monomial((w, x) for w, x in m if w != v): c}) * powers[e]
    return out + DiffPoly(f.ctx, untouched)


def assert_canonical(p):
    for m, c in p.terms.items():
        assert type(m) is tuple
        assert type(c) is Fraction and c != 0
        assert all(type(e) is int and e > 0 for _, e in m)
        keys = [var_key(v) for v, _ in m]
        assert all(a < b for a, b in zip(keys, keys[1:]))


def free_of(rng, ctx, keys):
    """A random polynomial whose support avoids every variable in keys."""
    g = gen.rand_poly(rng, ctx, terms=3, max_degree=2, max_order=2)
    return DiffPoly(ctx, {m: c for m, c in g.terms.items() if not any(v in keys for v, _ in m)})


def test_substitute_all_equals_a_fold_of_single_substitutions():
    rng = random.Random(425)
    hit = zero = high = 0
    for _ in range(240):
        ctx = Context(rng.randint(1, 3), rng.randint(1, 2))
        f = gen.rand_poly(rng, ctx, terms=5, max_degree=3, max_order=2)
        present = sorted({v for m in f.terms for v, _ in m}, key=var_key)
        pool = present + [gen.rand_variable(rng, ctx, 2)]
        keys = set(rng.sample(pool, min(len(pool), rng.randint(1, 3))))
        images = {v: DiffPoly(ctx) if rng.random() < 0.15 else free_of(rng, ctx, keys) for v in keys}
        if rng.random() < 0.5:  # a key at exponent 3..5, next to other factors
            key = DiffPoly.variable(ctx, rng.choice(sorted(keys, key=var_key)))
            f = f + gen.power(key, rng.randint(3, 5)) * gen.rand_poly(rng, ctx, terms=2, max_degree=2, max_order=2)
        folded = f
        for v, g in images.items():
            folded = substitute_reference(folded, v, g)
        result = f.substitute(images)
        assert result == folded
        assert_canonical(result)
        hit += bool(keys & set(present))
        hits = [(v, e) for m in f.terms for v, e in m if v in keys]
        zero += any(not images[v] for v, _ in hits)
        high += any(e >= 3 for _, e in hits)
    assert hit > 150 and zero > 40 and high > 80


def test_substitute_all_powers_equal_repeated_products():
    # one call needs every power of v up to 40, in shuffled order, so powers
    # come from the squares built for earlier monomials and from new ones
    rng = random.Random(427)
    ctx = Context(2, 1)
    v, w = ctx.u(1, (1, 0)), ctx.u(1, (0, 1))
    g = DiffPoly.variable(ctx, w) * 2 - DiffPoly.variable(ctx, Indep(1))
    for _ in range(5):
        exponents = rng.sample(range(1, 41), 40)
        f = DiffPoly(ctx, {monomial([(v, e), (Indep(2), t)]): 1 for t, e in enumerate(exponents)})
        assert f.substitute({v: g}) == substitute_reference(f, v, g)
    assert DiffPoly(ctx, {monomial([(v, 7)]): 1}).substitute({v: g}) == gen.power(g, 7)


def test_monomial_product_equals_merged_pairs():
    rng = random.Random(426)
    for _ in range(300):
        ctx = Context(rng.randint(1, 3), rng.randint(1, 2))
        a, b = (gen.rand_monomial(rng, ctx, 4, 2) for _ in range(2))
        merged = dict(a)
        for v, e in b:
            merged[v] = merged.get(v, 0) + e
        assert monomial_product(a, b) == monomial(merged.items())


def test_kernel_results_are_canonical():
    rng = random.Random(427)
    for _ in range(120):
        ctx = Context(rng.randint(1, 3), rng.randint(1, 2))
        f, g = gen.rand_poly(rng, ctx), gen.rand_poly(rng, ctx)
        c = gen.rand_coeff(rng)
        v = gen.rand_variable(rng, ctx, 3)
        results = [
            f + g, f - g, f + (-f), f - f, -f, f * g, f * DiffPoly(ctx), f * (-f),
            f * c, f * 0, Fraction(0) * f, 2 * f, f * 3,
            f.substitute({v: g}), f.substitute({v: DiffPoly(ctx)}), f.substitute({}),
        ] + [f.total_derivative(k) for k in range(1, ctx.n + 1)]
        for p in results:
            assert_canonical(p)
    f = X(1) * U(1, 0) + C(Fraction(3, 2))
    assert (f + (-f)).terms == {} and (f * 0).terms == {} and not f - f
    assert (X(1) * U(0, 0) - U(0, 0) * X(1)).terms == {}
