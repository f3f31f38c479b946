"""Brute-force bounded ideal-membership certificates.

This is the independent cross-check used by the tests: membership of a target
in the ideal spanned by a finite generator list is decided, at explicit
bounds, by solving one exact linear system for the cofactors.  A certificate
is checkable by plain polynomial arithmetic; a refusal only means "not at
these bounds" and is treated as non-membership solely in negative controls
where the bounds provably dominate.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement
from typing import NamedTuple, Optional, Sequence

from . import linalg, multiindex as mi
from .algebra import (
    Context,
    Deriv,
    DiffPoly,
    Indep,
    Variable,
    monomial,
    monomial_sort_key,
    poly_to_json,
    var_key,
)
from .errors import StructuralError
from .normal import SolvedSystem, iter_orbit


def prolong(sys: SolvedSystem, order_bound: int) -> list[DiffPoly]:
    """All derivative images of the equations whose shifted lead stays within
    the order bound, as explicit polynomials."""
    return [
        sys.equations[idx].poly().total_derivative_multi(shift)
        for idx, shift, _ in iter_orbit(sys, order_bound)
    ]


def prolong_within_class(sys: SolvedSystem, class_bound, order_bound: int) -> list[DiffPoly]:
    """Prolongations whose shifted lead has ranking class at most class_bound.

    This is the generator list for the class-restricted membership question:
    whether a polynomial of a given class is reachable from orbit elements
    that do not exceed that class.
    """
    return [
        sys.equations[idx].poly().total_derivative_multi(shift)
        for idx, shift, shifted in iter_orbit(sys, order_bound)
        if sys.ranking.key(shifted) <= class_bound
    ]


def variables_within_class(ctx: Context, rk, class_bound, order_bound: int) -> list[Variable]:
    """Cofactor pool for class-restricted membership: every independent
    variable plus every derivative of class at most class_bound, up to the
    order bound."""
    pool: list[Variable] = [Indep(j) for j in range(1, ctx.n + 1)]
    pool += [v for v in ctx.derivs(order_bound) if rk.key(v) <= class_bound]
    return sorted(pool, key=var_key)


class MembershipInstance(NamedTuple("MembershipInstance", [
    ("target", DiffPoly),
    ("generators", list[DiffPoly]),
    ("cofactor_degree", int),
    ("order_bound", int),
    ("pool", Optional[Sequence[Variable]]),  # cofactor variables; None infers them
])):
    __slots__ = ()

    def __new__(cls, target, generators, cofactor_degree, order_bound, pool=None):
        for g in generators:
            if g.ctx != target.ctx:
                raise StructuralError("generator ambient differs from target ambient")
        return super().__new__(cls, target, generators, cofactor_degree, order_bound, pool)


class Certificate(NamedTuple):
    cofactors: list[DiffPoly]

    def expand(self, generators: list[DiffPoly]) -> DiffPoly:
        total = DiffPoly.zero(generators[0].ctx) if generators else None
        if total is None:
            raise StructuralError("certificate without generators")
        for q, g in zip(self.cofactors, generators):
            total = total + q * g
        return total

    def verify(self, inst: MembershipInstance) -> bool:
        if not inst.generators:
            return inst.target.is_zero() and not self.cofactors
        return self.expand(inst.generators) == inst.target

    def to_json(self) -> list:
        return [poly_to_json(q) for q in self.cofactors]


def _default_pool(inst: MembershipInstance) -> list[Variable]:
    ctx = inst.target.ctx
    pool: set[Variable] = {Indep(j) for j in range(1, ctx.n + 1)}
    for p in [inst.target, *inst.generators]:
        for mono in p.terms:
            for v, _ in mono:
                pool.add(v)
    kept = [
        v
        for v in pool
        if not isinstance(v, Deriv) or mi.order(v.order) <= inst.order_bound
    ]
    return sorted(kept, key=var_key)


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
        return Certificate([]) if inst.target.is_zero() else None
    pool = list(inst.pool) if inst.pool is not None else _default_pool(inst)
    basis = _monomials_over(pool, inst.cofactor_degree)

    columns = [(DiffPoly(ctx, {mono: 1}) * g).terms for g in inst.generators for mono in basis]
    solution = linalg.solve_labeled(columns, inst.target.terms)
    if solution is None:
        return None

    cofactors = []
    pos = 0
    for _ in inst.generators:
        terms: dict[tuple, Fraction] = {}
        for mono in basis:
            c = solution[pos]
            pos += 1
            if c:
                terms[mono] = terms.get(mono, Fraction(0)) + c
        cofactors.append(DiffPoly(ctx, terms))
    return Certificate(cofactors)
