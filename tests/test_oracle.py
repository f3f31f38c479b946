"""Bounded membership certificates and their agreement with reduction."""

import random

import pytest

from diffalg import Context, DiffPoly, Ranking, SolvedForm, StructuralError, reduce

import gen
from gen import C, CTX, D, ORD, U, X, gradient, heat, system
from reference.oracle import MembershipInstance, membership, prolong, variables_within_class


def test_prolong_counts():
    sys_ = system(SolvedForm(D(1, 0), DiffPoly(CTX)))
    polys = prolong(sys_, 2)
    assert [p for p in polys] == [U(1, 0), U(1, 1), U(2, 0)]
    assert prolong(sys_, 0) == []
    # second-order lead within bound 3: shifts (0,0), (0,1), (1,0)
    assert len(prolong(heat(), 3)) == 3


def test_membership_trivial():
    gens = [U(1, 0) + X(2), U(0, 1)]
    inst = MembershipInstance(gens[0], gens, 2, 2)
    cert = membership(inst)
    assert cert is not None and cert.verify(inst)
    zero_inst = MembershipInstance(DiffPoly(CTX), gens, 2, 2)
    zcert = membership(zero_inst)
    assert zcert is not None and not zcert.expand(gens)


def test_membership_no_generators():
    assert membership(MembershipInstance(DiffPoly(CTX), [], 2, 2)) is not None
    assert membership(MembershipInstance(X(1), [], 2, 2)) is None


def test_membership_detects_simple_combination():
    gens = [U(0, 0) - X(1), U(0, 1)]
    target = X(2) * (U(0, 0) - X(1)) + U(0, 1) * U(0, 1)
    inst = MembershipInstance(target, gens, 2, 2)
    cert = membership(inst)
    assert cert is not None and cert.verify(inst)


def test_membership_refuses_non_member():
    # x1 is not in the ideal generated by u_(0,1): every member has each
    # monomial divisible by some derivative of u
    inst = MembershipInstance(X(1), [U(0, 1)], 3, 3)
    assert membership(inst) is None


def test_membership_ambient_mismatch():
    other = Context(2, 2)
    with pytest.raises(StructuralError):
        MembershipInstance(X(1), [DiffPoly.variable(other, other.x(1))], 2, 2)


def test_agreement_with_reduce_trace():
    rng = random.Random(60)
    done = 0
    while done < 12:
        ctx = Context(2, 1)
        rk = Ranking.from_spec(ctx, "orderly")
        sys_ = gen.rand_solved_system(rng, ctx, rk, rng.randint(1, 2), max_order=2,
                                      tail_terms=1, tail_degree=1)
        f = gen.rand_poly(rng, ctx, terms=2, max_degree=2, max_order=2)
        res = reduce(f, sys_)
        if not res.trace:
            continue
        done += 1
        diff = f - res.remainder
        bound = max(gen.max_eliminated_order(res), gen.max_deriv_order(f), 2)
        gens = prolong(sys_, bound)
        for degree in (max(gen.degree(f), 1), max(gen.degree(f), 1) + 2):
            cert = membership(MembershipInstance(diff, gens, degree, bound))
            if cert is not None:
                assert cert.expand(gens) == diff
                break
        else:
            raise AssertionError(f"no certificate at bounds for {diff}")


def test_negative_control_inconsistent_gradient():
    # the pair combination reduces to 1: derivable from the full prolonged
    # ideal, but not from orbit elements of class base or below --
    # the obstruction is genuine, not a reduction artifact
    sys_ = gradient(X(1))
    one = C(1)

    full = prolong(sys_, 3)
    found = membership(MembershipInstance(one, full, 3, 3))
    assert found is not None and found.expand(full) == one

    from diffalg.ranking import BASE

    restricted = prolong(sys_, 3, class_bound=BASE)
    assert restricted == []
    pool = variables_within_class(CTX, ORD, BASE, 3)
    assert pool == [CTX.x(1), CTX.x(2)]  # no derivative ranks at or below base
    assert membership(MembershipInstance(one, restricted, 3, 3, pool=pool)) is None


def test_class_restricted_prolong_filters():
    sys_ = heat()
    key = ORD.key(D(2, 0))
    gens = prolong(sys_, 4, class_bound=key)
    # only the unshifted equation has lead class <= class(u_(2,0))
    assert len(gens) == 1
    pool = variables_within_class(CTX, ORD, key, 4)
    assert CTX.x(1) in pool and D(0, 1) in pool and D(2, 0) in pool and D(1, 1) in pool
    assert D(0, 3) not in pool  # order 3 ranks above u_(2,0) under the orderly rule
