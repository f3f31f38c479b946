"""Syzygies of leading-derivative sets.

Leads act as a monomial module: an operator monomial X^nu sends u^i_alpha to
u^i_{alpha+nu}.  A module vector is a finite combination of coordinates
X^shift e_position, held as a dict {(position, shift): coefficient} without
zero entries; it is a syzygy of the lead list when the combined image
vanishes.  For two leads on the same unknown, the canonical generator pairs
the diamond shifts:

    tau_ij = X^{diamond(a_i, a_j)} e_i - X^{diamond(a_j, a_i)} e_j

which shifts both leads onto their join.  operator_apply() applies a vector
to the full equations.  The formal image of a vector on the leads and the
independent check that the tau pairs generate every syzygy serve only the
tests, and live beside them in tests/reference/.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from typing import Sequence

from . import multiindex as mi
from .algebra import Deriv, DiffPoly
from .errors import StructuralError
from .normal import SolvedSystem

Vector = dict[tuple[int, mi.Index], Fraction]  # (position, shift) -> coefficient, no zeros


class TauPair(namedtuple("TauPair", "i j shift_i shift_j")):
    """Canonical syzygy generator for positions i < j with leads on one
    unknown: X^{shift_i} e_i - X^{shift_j} e_j."""

    __slots__ = ()

    def to_json(self) -> dict:
        return self._asdict()


def tau_generators(leads: Sequence[Deriv]) -> list[TauPair]:
    """One generator per position pair sharing an unknown; positions with
    different unknowns admit no relation.  Duplicate leads are rejected."""
    if len(set(leads)) != len(leads):
        raise StructuralError("duplicate leads have no canonical generator set")
    out = []
    for i in range(len(leads)):
        for j in range(i + 1, len(leads)):
            if leads[i].i != leads[j].i:
                continue
            a, b = leads[i].order, leads[j].order
            out.append(TauPair(i, j, mi.diamond(a, b), mi.diamond(b, a)))
    return out


def _check_positions(d: Vector, k: int, what: str) -> None:
    for pos, _ in d:
        if not 0 <= pos < k:
            raise StructuralError(f"module vector position {pos} is outside 0..{k - 1} for {k} {what}")


def operator_apply(d: Vector, sys: SolvedSystem) -> DiffPoly:
    """Apply the vector to the full equations: operator monomials act as
    iterated total derivatives.  For a syzygy of the leads, every lead-derived
    top term cancels and only derived tails remain."""
    _check_positions(d, len(sys.equations), "equations")
    total = DiffPoly(sys.ctx)
    for (pos, shift), c in d.items():
        total = total + sys.equations[pos].poly().total_derivative_multi(shift) * c
    return total
