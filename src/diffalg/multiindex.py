"""Arithmetic on exponent multi-indices: fixed-length tuples over the naturals.

A multi-index is a plain tuple of nonnegative ints of length n (the number of
independent variables).  The diamond product of a and b is the shift that
raises a to the componentwise join of a and b.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import combinations_with_replacement
from operator import add as _add, le, sub

from .errors import SIZE_BITS, StructuralError, quote

Index = tuple[int, ...]


def validate(a: Index, n: int) -> Index:
    a = tuple(a)
    if len(a) != n:
        raise StructuralError(f"multi-index {quote(list(a))} has length {len(a)}, expected {n}")
    if any(type(e) is not int or e < 0 for e in a):
        raise StructuralError(f"multi-index {quote(list(a))} has a negative or non-integer entry")
    return a


def _same_length(a: Index, b: Index) -> None:
    if len(a) != len(b):
        raise StructuralError(f"multi-index length mismatch: {quote(list(a))} vs {quote(list(b))}")


def add(a: Index, b: Index) -> Index:
    _same_length(a, b)
    return tuple(map(_add, a, b))


def diamond(a: Index, b: Index) -> Index:
    """The shift that raises a to the componentwise maximum of a and b."""
    _same_length(a, b)
    return tuple(max(x, y) - x for x, y in zip(a, b))


def try_subtract(a: Index, b: Index) -> Index | None:
    """b - a when b dominates a componentwise, else None."""
    _same_length(a, b)
    return tuple(map(sub, b, a)) if all(map(le, a, b)) else None


def iter_up_to_order(n: int, bound: int) -> Iterator[Index]:
    """All multi-indices of length n with total order <= bound, graded then
    lexicographic, ascending.  An index a of order t is the difference
    sequence of its partial sums c = (a_1, a_1 + a_2, ...), a nondecreasing
    choice of n - 1 values in 0..t that combinations_with_replacement()
    yields in exactly this order; each index costs O(n) in C and grades are
    produced lazily, so the cost is linear in the output.  At n = 1 the one
    empty choice gets an empty pool: 0..t would make each grade cost t."""
    for total in range(bound + 1):
        top = (total,)
        for c in combinations_with_replacement(range(total + 1) if n > 1 else (), n - 1):
            yield tuple(map(sub, c + top, (0,) + c))


def count_up_to_order(n: int, bound: int) -> int:
    """C(n + bound, n), the length of iter_up_to_order(n, bound), or a lower
    bound past 2**SIZE_BITS: step j leaves C(big + j, j), each factor (big +
    j) / j is at least 2, and so at most SIZE_BITS + 1 steps run."""
    small, big = sorted((n, bound))
    c = 1
    for j in range(1, small + 1):
        c = c * (big + j) // j
        if c.bit_length() > SIZE_BITS:
            break
    return c
