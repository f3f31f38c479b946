"""Syzygies of leading-derivative sets.

Leads act as a monomial module: an operator monomial X^nu sends u^i_alpha to
u^i_{alpha+nu}.  A module vector is a finite combination of coordinates
X^shift e_position, held as a dict {(position, shift): coefficient} without
zero entries; it is a syzygy of the lead list when the combined image
vanishes.  For two leads on the same unknown, the canonical generator pairs
the diamond shifts:

    tau_ij = X^{diamond(a_i, a_j)} e_i - X^{diamond(a_j, a_i)} e_j

which shifts both leads onto their join.  syzygy_oracle() independently
recomputes every syzygy in a bounded slice by exact linear algebra and
certifies each one as an operator combination of the tau generators.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from . import linalg, multiindex as mi
from .algebra import Deriv, DiffPoly
from .errors import StructuralError
from .normal import SolvedSystem

Vector = dict[tuple[int, mi.Index], Fraction]  # (position, shift) -> coefficient, no zeros


class TauPair(NamedTuple):
    """Canonical syzygy generator for positions i < j with leads on one
    unknown: X^{shift_i} e_i - X^{shift_j} e_j."""

    i: int
    j: int
    shift_i: mi.Index
    shift_j: mi.Index

    def vector(self) -> Vector:
        return {(self.i, self.shift_i): Fraction(1), (self.j, self.shift_j): Fraction(-1)}

    def to_json(self) -> dict:
        return {
            "i": self.i,
            "j": self.j,
            "shift_i": list(self.shift_i),
            "shift_j": list(self.shift_j),
        }


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


def module_apply(d: Vector, leads: Sequence[Deriv]) -> dict[Deriv, Fraction]:
    """The formal combination sum_i d_i . lead_i under the shift action,
    collected exactly; an empty dict means d is a syzygy of the leads."""
    _check_positions(d, len(leads), "leads")
    out: dict[Deriv, Fraction] = {}
    for (pos, shift), c in d.items():
        target = Deriv(leads[pos].i, mi.add(shift, leads[pos].order))
        val = out.get(target, Fraction(0)) + c
        if val:
            out[target] = val
        else:
            out.pop(target, None)
    return out


def operator_apply(d: Vector, sys: SolvedSystem) -> DiffPoly:
    """Apply the vector to the full equations: operator monomials act as
    iterated total derivatives.  For a syzygy of the leads, every lead-derived
    top term cancels and only derived tails remain."""
    _check_positions(d, len(sys.equations), "equations")
    total = DiffPoly.zero(sys.ctx)
    for (pos, shift), c in d.items():
        total = total + sys.equations[pos].poly().total_derivative_multi(shift).scale(c)
    return total


# -- independent generation check ---------------------------------------------


class CertifiedSyzygy(NamedTuple):
    syzygy: Vector
    combination: Vector  # keyed (tau index t, sigma): the sum of c X^sigma tau_t

    def expand(self, taus: Sequence[TauPair]) -> Vector:
        total: Vector = {}
        for (t, sigma), c in self.combination.items():
            for (pos, shift), x in taus[t].vector().items():
                coord = (pos, mi.add(sigma, shift))
                total[coord] = total.get(coord, Fraction(0)) + c * x
        return {coord: c for coord, c in total.items() if c}


class SyzygyOracleResult(NamedTuple):
    degree_bound: int
    taus: list[TauPair]
    spanning: list[Vector]
    certified: list[CertifiedSyzygy]
    failures: list[Vector]

    @property
    def ok(self) -> bool:
        return not self.failures


def _slice_columns(leads: Sequence[Deriv], degree_bound: int):
    """Coordinates (position, shift) with |shift| <= bound, grouped by the
    target derivative they map to."""
    n = len(leads[0].order)
    coords: list[tuple[int, mi.Index]] = []
    fibers: dict[Deriv, list[int]] = {}
    for pos, lead in enumerate(leads):
        for shift in mi.iter_up_to_order(n, degree_bound):
            col = len(coords)
            coords.append((pos, shift))
            target = Deriv(lead.i, mi.add(shift, lead.order))
            fibers.setdefault(target, []).append(col)
    return coords, fibers


def certify_combination(
    sv: Vector,
    taus: Sequence[TauPair],
    leads: Sequence[Deriv],
    degree_bound: int,
) -> Optional[CertifiedSyzygy]:
    """Express sv as sum_{t, sigma} c X^sigma tau_t with |sigma| bounded.

    Both coordinates of any column X^sigma tau_t map onto the same target
    derivative, so the module equation splits exactly by target: each fiber
    is certified by its own small exact solve.  None when some fiber has no
    bounded combination.
    """
    fibers: dict[Deriv, Vector] = {}
    for (pos, shift), c in sv.items():
        target = Deriv(leads[pos].i, mi.add(shift, leads[pos].order))
        fibers.setdefault(target, {})[(pos, shift)] = c

    combo: Vector = {}
    for target in sorted(fibers):
        cert_cols: list[tuple[int, mi.Index]] = []
        columns: list[Vector] = []
        for t, tau in enumerate(taus):
            if leads[tau.i].i != target.i:
                continue
            join_order = mi.add(leads[tau.i].order, tau.shift_i)
            sigma = mi.try_subtract(join_order, target.order)
            if sigma is None or mi.order(sigma) > degree_bound:
                continue
            cert_cols.append((t, sigma))
            columns.append({(pos, mi.add(sigma, shift)): c for (pos, shift), c in tau.vector().items()})

        solution = linalg.solve_labeled(columns, fibers[target])
        if solution is None:
            return None
        # each (t, sigma) maps onto one target, so no column recurs in a later fiber
        combo.update((col, c) for col, c in zip(cert_cols, solution) if c)
    return CertifiedSyzygy(sv, combo)


def syzygy_oracle(leads: Sequence[Deriv], degree_bound: int) -> SyzygyOracleResult:
    """Recompute, by exact linear algebra, every syzygy with operator degree
    at most degree_bound, and certify each as a bounded operator combination
    of the tau generators.

    The action matrix is graded by target derivative, so its kernel is the
    direct sum of per-target kernels; each fiber contributes one small exact
    system.  An uncertifiable syzygy is recorded as a failure together with
    the offending vector.
    """
    if degree_bound < 0:
        raise StructuralError("degree_bound must be >= 0")
    taus = tau_generators(leads)
    if not leads:
        return SyzygyOracleResult(degree_bound, taus, [], [], [])
    coords, fibers = _slice_columns(leads, degree_bound)

    spanning: list[Vector] = []
    for target in sorted(fibers):
        cols = fibers[target]
        if len(cols) < 2:
            continue
        # one row: the coefficients of every coordinate mapping onto target
        rows = [{t: Fraction(1) for t in range(len(cols))}]
        for vec in linalg.nullspace(rows, len(cols)):
            sv = {coords[cols[t]]: c for t, c in enumerate(vec) if c}
            if sv:
                spanning.append(sv)

    certified: list[CertifiedSyzygy] = []
    failures: list[Vector] = []
    for sv in spanning:
        cert = certify_combination(sv, taus, leads, degree_bound)
        if cert is None:
            failures.append(sv)
        else:
            certified.append(cert)
    return SyzygyOracleResult(degree_bound, taus, spanning, certified, failures)
