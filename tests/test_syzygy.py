"""Pair generators, the module action, and the brute-force generation check."""

import random
from fractions import Fraction

import pytest

from diffalg import (
    Context,
    DiffPoly,
    Ranking,
    SolvedForm,
    SolvedSystem,
    StructuralError,
    operator_apply,
    tau_generators,
)
from diffalg import multiindex as mi

import gen
from reference.oracle import CertifiedSyzygy, certify_combination, module_apply, syzygy_oracle, tau_vector

CTX = Context(2, 1)
ORD = Ranking.from_spec(CTX, "orderly")


def U(*order, i=1, ctx=CTX):
    return ctx.u(i, order)


def P(*order, i=1, ctx=CTX):
    return DiffPoly.variable(ctx, ctx.u(i, order))


def test_tau_generators_same_unknown():
    taus = tau_generators([U(2, 0), U(0, 1)])
    assert len(taus) == 1
    assert taus[0].to_json() == {"i": 0, "j": 1, "shift_i": (0, 1), "shift_j": (2, 0)}


def test_tau_generators_distinct_unknowns_empty():
    ctx = Context(2, 2)
    assert tau_generators([ctx.u(1, (1, 0)), ctx.u(2, (0, 1))]) == []


def test_tau_generators_reject_duplicates():
    with pytest.raises(StructuralError):
        tau_generators([U(1, 0), U(1, 0)])


def test_module_apply():
    leads = [U(2, 0), U(0, 1)]
    taus = tau_generators(leads)
    assert module_apply(tau_vector(taus[0]), leads) == {}
    e1 = {(0, mi.zero(2)): Fraction(1)}  # the first basis vector
    assert module_apply(e1, leads) == {U(2, 0): Fraction(1)}
    shift = {(0, (1, 0)): Fraction(1)}
    assert module_apply(shift, [U(0, 0)]) == {U(1, 0): Fraction(1)}
    for pos in (2, -1):  # positions outside 0..k-1
        with pytest.raises(StructuralError):
            module_apply({(pos, mi.zero(2)): Fraction(1)}, leads)


def test_every_tau_is_a_syzygy_randomized():
    rng = random.Random(90)
    for _ in range(40):
        ctx = Context(rng.randint(1, 3), rng.randint(1, 2))
        leads = gen.rand_distinct_leads(rng, ctx, rng.randint(2, 5))
        for tau in tau_generators(leads):
            assert module_apply(tau_vector(tau), leads) == {}


def test_operator_apply_cross_derivatives():
    h1 = gen.rand_poly(random.Random(91), CTX, terms=2, max_degree=1, max_order=0)
    sys_ = SolvedSystem(
        (SolvedForm(U(1, 0), h1), SolvedForm(U(0, 1), DiffPoly(CTX))), ORD
    )
    taus = tau_generators([U(1, 0), U(0, 1)])
    combination = operator_apply(tau_vector(taus[0]), sys_)
    assert combination == h1.total_derivative(2)  # the u_(1,1) terms cancel
    assert operator_apply({}, sys_) == DiffPoly(CTX)
    with pytest.raises(StructuralError):
        operator_apply({(2, (0, 0)): Fraction(1)}, sys_)


def test_operator_apply_heat_pair():
    # leads u_(2,0), u_(0,2) with tails -u_(0,1) and 0: the combination is
    # exactly -u_(0,3)
    sys_ = SolvedSystem(
        (
            SolvedForm(U(2, 0), -P(0, 1)),
            SolvedForm(U(0, 2), DiffPoly(CTX)),
        ),
        ORD,
    )
    taus = tau_generators([U(2, 0), U(0, 2)])
    assert taus[0].shift_i == (0, 2) and taus[0].shift_j == (2, 0)
    assert operator_apply(tau_vector(taus[0]), sys_) == -P(0, 3)


def test_operator_apply_top_cancellation_randomized():
    rng = random.Random(92)
    for _ in range(30):
        ctx = Context(2, rng.randint(1, 2))
        rk = Ranking.from_spec(ctx, "orderly")
        sys_ = gen.rand_solved_system(rng, ctx, rk, rng.randint(2, 3))
        leads = sys_.leads()
        for tau in tau_generators(leads):
            joined = ctx.u(leads[tau.i].i, tuple(map(max, leads[tau.i].order, leads[tau.j].order)))
            combination = operator_apply(tau_vector(tau), sys_)
            assert joined not in combination.support_derivs()
            if combination:
                assert rk.class_of(combination) < rk.key(joined)


def test_factorization_of_matching_shift_pairs():
    # any two shifts landing on one derivative factor through the tau pair
    rng = random.Random(93)
    for _ in range(60):
        n = rng.randint(1, 3)
        alpha = gen.rand_index(rng, n, 3)
        beta = gen.rand_index(rng, n, 3)
        if alpha == beta:
            continue
        # build shifts mu, eta with mu + alpha == eta + beta
        extra = gen.rand_index(rng, n, 2)
        mu = mi.add(mi.diamond(alpha, beta), extra)
        eta = mi.add(mi.diamond(beta, alpha), extra)
        assert mi.add(mu, alpha) == mi.add(eta, beta)
        sigma = mi.try_subtract(tuple(map(max, alpha, beta)), mi.add(mu, alpha))
        assert sigma == extra
        ctx = Context(n, 1)
        pair = tau_generators([ctx.u(1, alpha), ctx.u(1, beta)])[0]
        direct = {(0, mu): Fraction(1), (1, eta): Fraction(-1)}
        assert {(pos, mi.add(sigma, shift)): c for (pos, shift), c in tau_vector(pair).items()} == direct
        assert tau_vector(pair, sigma) == direct
        assert CertifiedSyzygy(direct, {(0, sigma): Fraction(1)}).expand([pair]) == direct


def test_syzygy_oracle_certifies_small_example():
    leads = [U(2, 0), U(0, 1)]
    result = syzygy_oracle(leads, 3)
    assert result.ok
    assert result.spanning  # the slice is not trivial
    for cert in result.certified:
        assert cert.expand(result.taus) == cert.syzygy
        assert module_apply(cert.syzygy, leads) == {}


def test_syzygy_oracle_trivial_cases():
    ctx = Context(2, 2)
    distinct = [ctx.u(1, (1, 0)), ctx.u(2, (0, 1))]
    assert syzygy_oracle(distinct, 3).spanning == []
    assert syzygy_oracle([U(1, 1)], 4).spanning == []
    assert syzygy_oracle([], 2).spanning == []


def test_binomial_syzygy_certified():
    # (X^beta, -X^alpha) annihilates (u_alpha, u_beta) and factors through
    # the canonical pair generator
    alpha, beta = (2, 0), (0, 1)
    leads = [U(*alpha), U(*beta)]
    d = {(0, beta): Fraction(1), (1, alpha): Fraction(-1)}
    assert module_apply(d, leads) == {}
    taus = tau_generators(leads)
    cert = certify_combination(d, taus, leads, 3)
    assert cert is not None
    assert cert.expand(taus) == d
    # the cofactor is the single monomial min(alpha, beta)
    assert cert.combination == {(0, (0, 0)): Fraction(1)}


def test_binomial_syzygy_certified_padded():
    # same binomial inside a longer tuple, zero-padded on unrelated positions
    ctx = Context(2, 2)
    alpha, beta = (1, 2), (3, 0)
    leads = [ctx.u(1, alpha), ctx.u(1, beta), ctx.u(2, (0, 0))]
    d = {(0, beta): Fraction(1), (1, alpha): Fraction(-1)}  # nothing at position 2
    assert module_apply(d, leads) == {}
    taus = tau_generators(leads)
    assert len(taus) == 1  # only the shared-unknown pair
    cert = certify_combination(d, taus, leads, 4)
    assert cert is not None and cert.expand(taus) == d
    assert cert.combination == {(0, (1, 0)): Fraction(1)}  # min(alpha, beta)
