"""Monoid arithmetic of exponent multi-indices."""

import tracemalloc
from itertools import islice, product
from math import comb, factorial
from time import perf_counter

import pytest

from diffalg import StructuralError
from diffalg import multiindex as mi
from diffalg.errors import SIZE_BITS


def test_add():
    assert mi.add((1, 0), (0, 2)) == (1, 2)
    assert mi.add((0, 0), (3, 1)) == (3, 1)
    assert mi.add((2, 1), (1, 3)) == (3, 4)


def test_diamond():
    assert mi.diamond((2, 1), (1, 3)) == (0, 2)
    assert mi.diamond((1, 3), (2, 1)) == (1, 0)
    for a in [(0, 0), (2, 1), (5, 0), (1, 2, 3)]:
        assert mi.diamond(a, a) == (0,) * len(a)


def test_try_subtract():
    assert mi.try_subtract((1, 0), (2, 3)) == (1, 3)
    assert mi.try_subtract((2, 0), (1, 5)) is None
    assert mi.try_subtract((3, 1), (3, 1)) == (0, 0)


def test_try_subtract_inverts_add():
    for a in product(range(4), repeat=2):
        for c in product(range(4), repeat=2):
            assert mi.try_subtract(a, mi.add(a, c)) == c


def test_diamond_join_identity_exhaustive():
    # add(a, diamond(a, b)) == add(b, diamond(b, a)) == join(a, b)
    for n in (1, 2, 3):
        entries = range(4) if n < 3 else range(3)
        for a in product(entries, repeat=n):
            for b in product(entries, repeat=n):
                j = tuple(map(max, a, b))
                assert mi.add(a, mi.diamond(a, b)) == j
                assert mi.add(b, mi.diamond(b, a)) == j


def test_diamond_zero_iff_dominates():
    for a in product(range(4), repeat=2):
        for b in product(range(4), repeat=2):
            dominates = all(x >= y for x, y in zip(a, b))
            assert (mi.diamond(a, b) == (0, 0)) == dominates


def test_length_mismatch_raises():
    with pytest.raises(StructuralError):
        mi.add((1, 0), (1, 0, 0))
    with pytest.raises(StructuralError):
        mi.diamond((1,), (1, 0))
    with pytest.raises(StructuralError):
        mi.try_subtract((1, 0, 0), (1, 0))


def test_validate():
    assert mi.validate([2, 0, 1], 3) == (2, 0, 1)
    with pytest.raises(StructuralError):
        mi.validate((1, -1), 2)
    with pytest.raises(StructuralError):
        mi.validate((1, 0), 3)


def test_iter_up_to_order():
    got = list(mi.iter_up_to_order(2, 2))
    assert got == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]
    assert len(list(mi.iter_up_to_order(3, 5))) == 56


def test_iter_up_to_order_matches_filtered_product():
    for n in range(1, 6):
        for bound in range(6):
            expected = [
                a
                for total in range(bound + 1)
                for a in product(range(total + 1), repeat=n)
                if sum(a) == total
            ]
            assert list(mi.iter_up_to_order(n, bound)) == expected


def test_iter_up_to_order_linear_in_output():
    # 861 indices; the filtered product would visit 3^40 tuples
    got = list(mi.iter_up_to_order(40, 2))
    assert len(got) == 1 + 40 + 40 * 41 // 2
    assert got[-1] == (2,) + (0,) * 39
    # at n = 1 each grade yields its one index without a pool of t + 1 entries
    start = perf_counter()
    assert list(mi.iter_up_to_order(1, 20000)) == [(t,) for t in range(20001)]
    assert perf_counter() - start < 1


def test_iter_up_to_order_is_lazy_and_output_linear():
    # grade 2 at n = 4000 holds C(4001, 2) indices; a lazy enumeration
    # yields the first ones without building the rest of the grade
    start = perf_counter()
    assert next(mi.iter_up_to_order(4000, 2)) == (0,) * 4000
    assert perf_counter() - start < 1
    start = perf_counter()
    head = islice(mi.iter_up_to_order(4000, 2), 5000)
    kept = {t: a for t, a in enumerate(head) if t in (1, 4000, 4001, 4002)}
    assert perf_counter() - start < 10
    assert kept == {1: (0,) * 3999 + (1,), 4000: (1,) + (0,) * 3999,
                    4001: (0,) * 3998 + (0, 2), 4002: (0,) * 3998 + (1, 1)}
    # memory follows the indices taken, not the grade
    tracemalloc.start()
    try:
        for a in islice(mi.iter_up_to_order(4000, 2), 1000):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 10 ** 6


def test_count_up_to_order_is_the_binomial_or_a_lower_bound_past_the_threshold():
    # exact below 2**SIZE_BITS; past it, a bound between 2**SIZE_BITS and
    # C(n + t, n), which is what an "at least 2**k" refusal prints
    for n in [*range(1, 40), 100, 1000, 4000, 100000]:
        for t in [*range(40), 100, 1000, 5000]:
            exact, got = comb(n + t, n), mi.count_up_to_order(n, t)
            if exact < 2**SIZE_BITS:
                assert got == exact, (n, t)
            else:
                assert 2**SIZE_BITS <= got <= exact, (n, t)
    # a huge ambient and a huge order: each factor at least doubles the count
    start = perf_counter()
    assert mi.count_up_to_order(10**30, 10**30).bit_length() > SIZE_BITS
    assert perf_counter() - start < 1


def _least_reaching(j: int, bits: int) -> int:
    """The least b with C(b + j, j) of at least the given bit length: with r
    the j-th root of 2**(bits - 1) * j!, (b+1)...(b+j) passes r**j between
    b = r - j and b = r."""
    x = factorial(j) << (bits - 1)
    r = 1 << -(-x.bit_length() // j)  # Newton from above ends on the floor of the root
    while (s := ((j - 1) * r + x // r ** (j - 1)) // j) < r:
        r = s
    return next(b for b in range(max(r - j, 0), r + 1) if comb(b + j, j).bit_length() >= bits)


def test_count_up_to_order_at_the_size_edge():
    # each step at least doubles the count, so a step that lands on exactly
    # SIZE_BITS bits is still below 2**SIZE_BITS and must not end the walk;
    # for every step j of walks of length s, the least larger entry b whose
    # step j reaches SIZE_BITS or SIZE_BITS + 1 bits, and b - 1
    below = above = 0
    for s in (1, 2, 3, 5):
        for j in range(1, s + 1):
            for bits in (SIZE_BITS, SIZE_BITS + 1):
                b = _least_reaching(j, bits)
                for big in (b - 1, b):
                    for n, t in ((s, big), (big, s)):
                        exact, got = comb(n + t, n), mi.count_up_to_order(n, t)
                        if exact < 2**SIZE_BITS:
                            assert got == exact, (n, t)
                            below += 1
                        else:
                            assert 2**SIZE_BITS <= got <= exact, (n, t)
                            above += 1
    assert below and above
