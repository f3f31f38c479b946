"""Independent cross-checks used by the tests; the package never imports them.

Bounded ideal membership: membership of a target in the ideal spanned by a
finite generator list is decided, at explicit bounds, by solving one exact
linear system for the cofactors.  A certificate is checkable by plain
polynomial arithmetic; a refusal only means "not at these bounds" and is
treated as non-membership solely in negative controls where the bounds
provably dominate.

The syzygy oracle: syzygy_oracle() recomputes every syzygy of a lead list in
a bounded slice by exact linear algebra and certifies each one as an
operator combination of syzygy.tau_generators().

divide_by_normalized() is the one-shot division by a normalized set, whose
tails mention no lead at all, that SolvedSystem.normal_form() must agree with.

A module vector is held as syzygy.Vector, {(position, shift): coefficient};
module_apply() is its formal image under the shift action on a lead list.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import combinations_with_replacement
from typing import Optional, Sequence

from diffalg import multiindex as mi
from diffalg.algebra import Context, Deriv, DiffPoly, Indep, Variable, monomial, monomial_sort_key
from diffalg.errors import StructuralError
from diffalg.normal import SolvedForm, SolvedSystem, iter_orbit
from diffalg.syzygy import TauPair, Vector, _check_positions, tau_generators

from . import linalg


def prolong(sys: SolvedSystem, order_bound: int, class_bound=None) -> list[DiffPoly]:
    """All derivative images of the equations whose shifted lead stays within
    the order bound, as explicit polynomials.

    With class_bound, only those whose shifted lead has ranking class at most
    class_bound: the generator list for the class-restricted membership
    question, whether a polynomial of a given class is reachable from orbit
    elements that do not exceed that class.
    """
    return [
        sys.equations[idx].poly().total_derivative_multi(shift)
        for idx, shift, shifted in iter_orbit(sys, order_bound)
        if class_bound is None or sys.ranking.key(shifted) <= class_bound
    ]


def variables_within_class(ctx: Context, rk, class_bound, order_bound: int) -> list[Variable]:
    """Cofactor pool for class-restricted membership: every independent
    variable plus every derivative of class at most class_bound, up to the
    order bound."""
    pool: list[Variable] = [Indep(j) for j in range(1, ctx.n + 1)]
    pool += [v for v in ctx.derivs(order_bound) if rk.key(v) <= class_bound]
    return sorted(pool)


class MembershipInstance(namedtuple("MembershipInstance", "target generators cofactor_degree order_bound pool")):
    """pool holds the cofactor variables; None infers them."""

    __slots__ = ()

    def __new__(cls, target, generators, cofactor_degree, order_bound, pool=None):
        for g in generators:
            if g.ctx != target.ctx:
                raise StructuralError("generator ambient differs from target ambient")
        return super().__new__(cls, target, generators, cofactor_degree, order_bound, pool)


class Certificate(namedtuple("Certificate", "cofactors")):
    __slots__ = ()

    def expand(self, generators: list[DiffPoly]) -> DiffPoly:
        if not generators:
            raise StructuralError("certificate without generators")
        total = DiffPoly(generators[0].ctx)
        for q, g in zip(self.cofactors, generators):
            total = total + q * g
        return total

    def verify(self, inst: MembershipInstance) -> bool:
        if not inst.generators:
            return not inst.target and not self.cofactors
        return self.expand(inst.generators) == inst.target


def _default_pool(inst: MembershipInstance) -> list[Variable]:
    """Every independent variable and every derivative of order at most
    order_bound that the target or a generator mentions."""
    pool: set[Variable] = {Indep(j) for j in range(1, inst.target.ctx.n + 1)}
    pool.update(v for p in (inst.target, *inst.generators) for mono in p.terms for v, _ in mono
                if not isinstance(v, Deriv) or mi.order(v.order) <= inst.order_bound)
    return sorted(pool)


def _monomials_over(pool: Sequence[Variable], degree: int) -> list[tuple]:
    out = [()]
    for d in range(1, degree + 1):
        for combo in combinations_with_replacement(pool, d):
            out.append(monomial((v, combo.count(v)) for v in set(combo)))
    return sorted(set(out), key=monomial_sort_key)


def membership(inst: MembershipInstance) -> Optional[Certificate]:
    """Search for cofactors q_i with  target = sum q_i * g_i,  each q_i
    supported on monomials over the pool with total degree at most
    cofactor_degree.  Returns the certificate, or None (refusal at bounds)."""
    ctx = inst.target.ctx
    if not inst.generators:
        return Certificate([]) if not inst.target else None
    pool = list(inst.pool) if inst.pool is not None else _default_pool(inst)
    basis = _monomials_over(pool, inst.cofactor_degree)

    columns = [(DiffPoly(ctx, {mono: 1}) * g).terms for g in inst.generators for mono in basis]
    solution = linalg.solve_labeled(columns, inst.target.terms)
    if solution is None:
        return None

    # the basis holds each monomial once, so a cofactor reads its slice of the solution
    k = len(basis)
    return Certificate([DiffPoly(ctx, {mono: c for mono, c in zip(basis, solution[t * k:(t + 1) * k]) if c})
                        for t in range(len(inst.generators))])


# -- division by a normalized set ---------------------------------------------


def divide_by_normalized(
    f: DiffPoly,
    forms: Sequence[SolvedForm],
    order: Optional[Sequence[int]] = None,
) -> DiffPoly:
    """Remainder of f modulo a normalized set: pairwise-distinct leads, every
    tail free of every lead.  Substitution order is irrelevant to the result;
    an explicit order may be passed to exercise exactly that."""
    leads = [b.lead for b in forms]
    if len(set(leads)) != len(leads):
        raise StructuralError("normalized set has coincident leads")
    lead_set = set(leads)
    for pos, b in enumerate(forms):
        if f.ctx != b.ctx:
            raise StructuralError("ambient mismatch in normalized set")
        overlap = b.tail.support_derivs() & lead_set
        if overlap:
            raise StructuralError(
                f"set is not normalized: tail {pos} mentions lead(s) {sorted((v.i, v.order) for v in overlap)}"
            )
    seq = list(order) if order is not None else list(range(len(forms)))
    if sorted(seq) != list(range(len(forms))):
        raise StructuralError("order must be a permutation of the form indices")
    out = f
    for pos in seq:
        out = out.substitute(forms[pos].lead, forms[pos].rhs())
    return out


# -- the module action and the independent generation check ---------------------


def coordinate_image(leads: Sequence[Deriv], pos: int, shift: mi.Index) -> Deriv:
    """The derivative the coordinate X^shift e_pos maps to: leads[pos] shifted."""
    return Deriv(leads[pos].i, mi.add(shift, leads[pos].order))


def tau_vector(tau: TauPair, sigma: Optional[mi.Index] = None) -> Vector:
    """X^sigma tau = X^{sigma+shift_i} e_i - X^{sigma+shift_j} e_j as a module
    vector; sigma defaults to 0."""
    sigma = sigma or mi.zero(len(tau.shift_i))
    return {(tau.i, mi.add(sigma, tau.shift_i)): Fraction(1), (tau.j, mi.add(sigma, tau.shift_j)): Fraction(-1)}


def module_apply(d: Vector, leads: Sequence[Deriv]) -> dict[Deriv, Fraction]:
    """The formal combination sum_i d_i . lead_i under the shift action,
    collected exactly; an empty dict means d is a syzygy of the leads."""
    _check_positions(d, len(leads), "leads")
    out: dict[Deriv, Fraction] = {}
    for (pos, shift), c in d.items():
        target = coordinate_image(leads, pos, shift)
        val = out.get(target, Fraction(0)) + c
        if val:
            out[target] = val
        else:
            out.pop(target, None)
    return out


class CertifiedSyzygy(namedtuple("CertifiedSyzygy", "syzygy combination")):
    """combination is keyed (tau index t, sigma): the sum of c X^sigma tau_t."""

    __slots__ = ()

    def expand(self, taus: Sequence[TauPair]) -> Vector:
        total: Vector = {}
        for (t, sigma), c in self.combination.items():
            for coord, x in tau_vector(taus[t], sigma).items():
                total[coord] = total.get(coord, Fraction(0)) + c * x
        return {coord: c for coord, c in total.items() if c}


class SyzygyOracleResult(namedtuple("SyzygyOracleResult", "degree_bound taus spanning certified failures")):
    __slots__ = ()

    @property
    def ok(self) -> bool:
        return not self.failures


def _slice_columns(leads: Sequence[Deriv], degree_bound: int):
    """Coordinates (position, shift) with |shift| <= bound, grouped by the
    target derivative they map to."""
    n = len(leads[0].order)
    coords: list[tuple[int, mi.Index]] = []
    fibers: dict[Deriv, list[int]] = {}
    for pos in range(len(leads)):
        for shift in mi.iter_up_to_order(n, degree_bound):
            fibers.setdefault(coordinate_image(leads, pos, shift), []).append(len(coords))
            coords.append((pos, shift))
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
        fibers.setdefault(coordinate_image(leads, pos, shift), {})[(pos, shift)] = c

    combo: Vector = {}
    for target in sorted(fibers):
        cert_cols: list[tuple[int, mi.Index]] = []
        columns: list[Vector] = []
        for t, tau in enumerate(taus):
            join = coordinate_image(leads, tau.i, tau.shift_i)
            sigma = mi.try_subtract(join.order, target.order) if join.i == target.i else None
            if sigma is None or mi.order(sigma) > degree_bound:
                continue
            cert_cols.append((t, sigma))
            columns.append(tau_vector(tau, sigma))

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
        # each basis vector has a 1 in its free column, so none is zero
        spanning += [{coords[cols[t]]: c for t, c in enumerate(vec) if c} for vec in linalg.nullspace(rows, len(cols))]

    certs = [certify_combination(sv, taus, leads, degree_bound) for sv in spanning]
    return SyzygyOracleResult(degree_bound, taus, spanning, [cert for cert in certs if cert is not None],
                              [sv for sv, cert in zip(spanning, certs) if cert is None])
