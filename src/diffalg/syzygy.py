"""Syzygies of leading-derivative sets.

Leads act as a monomial module: an operator monomial X^nu sends u^i_alpha to
u^i_{alpha+nu}.  A module vector (one operator polynomial per equation) is a
syzygy of the lead list when the combined image vanishes.  For two leads on
the same unknown, the canonical generator pairs the diamond shifts:

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

OpPoly = dict[mi.Index, Fraction]  # operator polynomial: shift -> coefficient


def _cleanup(p: OpPoly) -> OpPoly:
    return {s: c for s, c in p.items() if c}


class ModuleVector:
    """k operator polynomials, one per equation position."""

    __slots__ = ("comps",)

    def __init__(self, comps: Sequence[OpPoly]):
        self.comps = tuple(_cleanup(dict(c)) for c in comps)

    @classmethod
    def zero(cls, k: int) -> "ModuleVector":
        return cls([{} for _ in range(k)])

    @property
    def k(self) -> int:
        return len(self.comps)

    def is_zero(self) -> bool:
        return all(not c for c in self.comps)

    def __eq__(self, other):
        return isinstance(other, ModuleVector) and self.comps == other.comps

    def __hash__(self):
        return hash(tuple(frozenset(c.items()) for c in self.comps))

    def __repr__(self):
        parts = []
        for pos, comp in enumerate(self.comps):
            for shift, c in sorted(comp.items()):
                parts.append(f"{c}*X^{shift}e{pos}")
        return "ModuleVector(" + " + ".join(parts or ["0"]) + ")"

    def __add__(self, other: "ModuleVector") -> "ModuleVector":
        if self.k != other.k:
            raise StructuralError("module vector length mismatch")
        out = []
        for a, b in zip(self.comps, other.comps):
            merged = dict(a)
            for s, c in b.items():
                merged[s] = merged.get(s, Fraction(0)) + c
            out.append(merged)
        return ModuleVector(out)

    def __neg__(self) -> "ModuleVector":
        return ModuleVector([{s: -c for s, c in comp.items()} for comp in self.comps])

    def __sub__(self, other: "ModuleVector") -> "ModuleVector":
        return self + (-other)

    def scale(self, c) -> "ModuleVector":
        c = Fraction(c)
        return ModuleVector([{s: c * x for s, x in comp.items()} for comp in self.comps])

    def monomial_mul(self, sigma: mi.Index) -> "ModuleVector":
        """Multiply every component by the operator monomial X^sigma."""
        return ModuleVector(
            [{mi.add(sigma, s): c for s, c in comp.items()} for comp in self.comps]
        )

    def entries(self):
        """Iterate (position, shift, coefficient)."""
        for pos, comp in enumerate(self.comps):
            for s, c in comp.items():
                yield pos, s, c


class TauPair(NamedTuple):
    """Canonical syzygy generator for positions i < j with leads on one
    unknown: X^{shift_i} e_i - X^{shift_j} e_j."""

    i: int
    j: int
    shift_i: mi.Index
    shift_j: mi.Index

    def vector(self, k: int) -> ModuleVector:
        comps: list[OpPoly] = [{} for _ in range(k)]
        comps[self.i] = {self.shift_i: Fraction(1)}
        comps[self.j] = {self.shift_j: Fraction(-1)}
        return ModuleVector(comps)

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


def module_apply(d: ModuleVector, leads: Sequence[Deriv]) -> dict[Deriv, Fraction]:
    """The formal combination sum_i d_i . lead_i under the shift action,
    collected exactly; an empty dict means d is a syzygy of the leads."""
    if d.k != len(leads):
        raise StructuralError(f"module vector has {d.k} components for {len(leads)} leads")
    out: dict[Deriv, Fraction] = {}
    for pos, shift, c in d.entries():
        target = Deriv(leads[pos].i, mi.add(shift, leads[pos].order))
        val = out.get(target, Fraction(0)) + c
        if val:
            out[target] = val
        else:
            out.pop(target, None)
    return out


def operator_apply(d: ModuleVector, sys: SolvedSystem) -> DiffPoly:
    """Apply the vector to the full equations: operator monomials act as
    iterated total derivatives.  For a syzygy of the leads, every lead-derived
    top term cancels and only derived tails remain."""
    if d.k != len(sys.equations):
        raise StructuralError(
            f"module vector has {d.k} components for {len(sys.equations)} equations"
        )
    total = DiffPoly.zero(sys.ctx)
    for pos, shift, c in d.entries():
        total = total + sys.equations[pos].poly().total_derivative_multi(shift).scale(c)
    return total


# -- independent generation check ---------------------------------------------


class CertifiedSyzygy(NamedTuple):
    syzygy: ModuleVector
    combination: dict[int, OpPoly]  # tau index -> operator cofactor

    def expand(self, taus: Sequence[TauPair], k: int) -> ModuleVector:
        total = ModuleVector.zero(k)
        for t, cofactor in self.combination.items():
            base = taus[t].vector(k)
            for sigma, c in cofactor.items():
                total = total + base.monomial_mul(sigma).scale(c)
        return total


class SyzygyOracleResult(NamedTuple):
    degree_bound: int
    taus: list[TauPair]
    spanning: list[ModuleVector]
    certified: list[CertifiedSyzygy]
    failures: list[ModuleVector]

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
    sv: ModuleVector,
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
    k = len(leads)
    fibers: dict[Deriv, dict[tuple[int, mi.Index], Fraction]] = {}
    for pos, shift, c in sv.entries():
        target = Deriv(leads[pos].i, mi.add(shift, leads[pos].order))
        fibers.setdefault(target, {})[(pos, shift)] = c

    combo: dict[int, OpPoly] = {}
    for target in sorted(fibers, key=lambda d: (d.i, d.order)):
        cert_cols: list[tuple[int, mi.Index]] = []
        col_vectors: list[ModuleVector] = []
        for t, tau in enumerate(taus):
            if leads[tau.i].i != target.i:
                continue
            join_order = mi.add(leads[tau.i].order, tau.shift_i)
            sigma = mi.try_subtract(join_order, target.order)
            if sigma is None or mi.order(sigma) > degree_bound:
                continue
            cert_cols.append((t, sigma))
            col_vectors.append(tau.vector(k).monomial_mul(sigma))

        columns = [{(pos, shift): c for pos, shift, c in vec.entries()} for vec in col_vectors]
        solution = linalg.solve_labeled(columns, fibers[target])
        if solution is None:
            return None
        for col, c in enumerate(solution):
            if c:
                t, sigma = cert_cols[col]
                combo.setdefault(t, {})[sigma] = combo.get(t, {}).get(sigma, Fraction(0)) + c
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
    k = len(leads)
    coords, fibers = _slice_columns(leads, degree_bound)

    spanning: list[ModuleVector] = []
    for target in sorted(fibers, key=lambda d: (d.i, d.order)):
        cols = fibers[target]
        if len(cols) < 2:
            continue
        # one row: the coefficients of every coordinate mapping onto target
        rows = [{t: Fraction(1) for t in range(len(cols))}]
        for vec in linalg.nullspace(rows, len(cols)):
            comps: list[OpPoly] = [{} for _ in range(k)]
            for t, c in enumerate(vec):
                if c:
                    pos, shift = coords[cols[t]]
                    comps[pos][shift] = comps[pos].get(shift, Fraction(0)) + c
            sv = ModuleVector(comps)
            if not sv.is_zero():
                spanning.append(sv)

    certified: list[CertifiedSyzygy] = []
    failures: list[ModuleVector] = []
    for sv in spanning:
        cert = certify_combination(sv, taus, leads, degree_bound)
        if cert is None:
            failures.append(sv)
        else:
            certified.append(cert)
    return SyzygyOracleResult(degree_bound, taus, spanning, certified, failures)
