"""Rankings of derivative variables and the shift-compatibility audit.

A ranking is a total preorder on the derivative variables u^i_alpha, given by
a weight matrix W: rows of linear functionals on (i, alpha), applied in
order, first difference decides (Riquier's weight rules).  The key of
u^i_alpha is the vector W (i, alpha), a plain tuple: keys compare as tuples,
and the empty key BASE sits below every other.  The two built-ins are named
weight matrices, each followed by one unit row per direction:

    orderly      rows [0,1..1], [1,0..0]: compare |alpha|, then i, then alpha
    elimination  rows [1,0..0], [0,1..1]: compare i, then |alpha|, then alpha

A weight rule with too few rows is a legitimate coarse ranking (distinct
variables may tie); the tie shows up as equal class keys and is flagged
wherever a single leading derivative is required.

Being usable for reduction demands two axioms about the shift action
u^i_alpha -> u^i_{alpha+e_k}:

    (a)  u < v  implies  shift_k(u) < shift_k(v)   for every direction k
    (b)  u < shift_k(u)                            for every direction k

shift_violation decides both axioms exactly, in O(n * rows), for every
ranking.  A shift adds the same column W e_k to the key of every variable,
and lexicographic order is invariant under translation, so (a) always holds;
(b) holds exactly when every direction column W e_k (k = 1..n) is
lexicographically positive.  shift_violation is the gate a problem file
passes at load.

audit_compatibility is the independent sampled check behind the
ranking-audit command: it checks both axioms on an exhaustive bounded range
plus a sampled range and reports every counterexample verbatim.  It never
raises: a failed audit is a result, not an error.
"""

from __future__ import annotations

import random
from collections import namedtuple
from fractions import Fraction
from math import lcm
from operator import mul

from . import multiindex as mi
from .algebra import Context, Deriv, DiffPoly, Rational, _frac_from_str, shift_deriv, var_to_json
from .errors import StructuralError, quote


BASE = ()  # the class key of a polynomial with no derivative variables


def class_to_json(key: tuple):
    """A class key as the reports print it: "base" for BASE, else its parts,
    Fractions as strings."""
    if not key:
        return "base"
    return [p if isinstance(p, int) else str(p) for p in key]


RankingSpec = str | dict

# The leading rows of each named ranking over n directions; one unit row per
# direction follows them.
NAMED_RANKINGS = {
    "orderly": lambda n: [[0] + [1] * n, [1] + [0] * n],
    "elimination": lambda n: [[1] + [0] * n, [0] + [1] * n],
}
DEFAULT_RANKING = "orderly"


class Ranking:
    """A weight matrix over the derivative variables of one ambient.  kind is
    a built-in's name (integer rows, then one unit row per direction, kept
    implicit in units so that a ranking costs O(n) to build and a key O(n) to
    compute) or "weights" (Fraction rows, all given).  Equal when ambient,
    kind and weights are."""

    __slots__ = ("ctx", "kind", "weights", "units", "_rows", "_dens")

    def __init__(self, ctx: Context, kind: str, weights: tuple[tuple[Rational, ...], ...]):
        self.ctx = ctx
        self.kind = kind
        self.weights = weights
        self.units = kind != "weights"
        # W as integer rows and one common denominator per row, so a key part
        # is one integer dot product, not a Fraction product per entry.
        self._dens = tuple(lcm(*(w.denominator for w in row)) for row in weights)
        self._rows = tuple(tuple(w.numerator * (d // w.denominator) for w in row)
                           for row, d in zip(weights, self._dens))

    def __eq__(self, other):
        return isinstance(other, Ranking) and (self.ctx, self.kind, self.weights) == (
            other.ctx, other.kind, other.weights)

    @classmethod
    def from_spec(cls, ctx: Context, spec: RankingSpec) -> "Ranking":
        if isinstance(spec, str) and spec in NAMED_RANKINGS:
            return cls(ctx, spec, tuple(map(tuple, NAMED_RANKINGS[spec](ctx.n))))
        if not (isinstance(spec, dict) and set(spec) == {"weights"}):
            raise StructuralError(
                f"bad ranking spec {quote(spec)}; expected \"orderly\", \"elimination\","
                ' or {"weights": [[...], ...]}'
            )
        rows = spec["weights"]
        if not isinstance(rows, list) or not rows:
            raise StructuralError("weight ranking needs a non-empty list of rows")
        parsed = []
        for r, row in enumerate(rows):
            if not isinstance(row, list):
                raise StructuralError(f"weight row {r}: expected a list, got {type(row).__name__}")
            if len(row) != ctx.n + 1:
                raise StructuralError(
                    f"weight row {r} has {len(row)} entries, expected {ctx.n + 1}"
                    " (one for the unknown index, then one per direction)"
                )
            try:
                parsed.append(tuple(map(_frac_from_str, row)))
            except StructuralError as exc:
                raise StructuralError(f"weight row {r}: {exc}") from None
        return cls(ctx, "weights", tuple(parsed))

    # -- comparison ----------------------------------------------------------

    def key(self, v: Deriv) -> tuple:
        """W (i, alpha), one integer dot product per row of weights, then alpha
        itself for the unit rows.  Parts are ints for a named ranking and
        Fractions for a weight rule, as class_to_json shows."""
        self.ctx.check_var(v)
        vec = (v.i,) + v.order
        dots = tuple(sum(map(mul, row, vec)) for row in self._rows)
        return dots + v.order if self.units else tuple(map(Fraction, dots, self._dens))

    # -- induced structure on polynomials -------------------------------------

    def class_of(self, f: DiffPoly) -> tuple:
        """The maximal key among the derivative variables of f; base when f
        has none (including f = 0)."""
        return max((self.key(v) for v in f.support_derivs()), default=BASE)


# -- compatibility audit -------------------------------------------------------


class Counterexample(namedtuple("Counterexample", "axiom u v direction")):
    """axiom is "a" or "b"; v is None for axiom (b)."""

    __slots__ = ()

    def to_json(self) -> dict:
        return {
            "axiom": self.axiom,
            "u": var_to_json(self.u),
            "v": var_to_json(self.v) if self.v is not None else None,
            "direction": self.direction,
        }


def shift_violation(rk: Ranking) -> Counterexample | None:
    """The exact compatibility test: None when both axioms hold, else the
    axiom-(b) counterexample (u^1_0, shift e_k) for the smallest direction k
    whose weight column is not lexicographically positive.  That is the
    first counterexample audit_compatibility reports for the same rule,
    since its exhaustive pass starts with axiom (b) on u^1_0, k = 1..n."""
    for k in range(1, rk.ctx.n + 1):
        first = next((row[k] for row in rk.weights if row[k]), int(rk.units))
        if first <= 0:
            return Counterexample("b", Deriv(1, (0,) * rk.ctx.n), None, k)
    return None


class AuditReport(namedtuple("AuditReport", "exhaustive_order samples checked_a checked_b counterexamples")):
    __slots__ = ()

    @property
    def ok(self) -> bool:
        return not self.counterexamples

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "exhaustive_order": self.exhaustive_order,
            "samples": self.samples,
            "checked_a": self.checked_a,
            "checked_b": self.checked_b,
            "counterexamples": [c.to_json() for c in self.counterexamples],
        }


SAMPLE_ORDER = 8  # the sampled pass draws derivatives of order at most this


def audit_compatibility(rk: Ranking, sample_budget: int, exhaustive_order: int = 3, seed: int = 0) -> AuditReport:
    """Check axioms (a) and (b) for every shift direction.

    Exhaustive part: all derivative variables of order <= exhaustive_order.
    Sampled part: sample_budget random pairs of order <= SAMPLE_ORDER.
    Counterexamples are recorded verbatim; duplicates are not deduplicated
    beyond the first occurrence per (axiom, u, v, direction).
    """
    if sample_budget < 1:
        raise StructuralError("sample_budget must be >= 1")
    ctx = rk.ctx
    found: dict[Counterexample, None] = {}  # in first-seen order
    checked_a = checked_b = 0

    def check_b(u: Deriv, k: int) -> None:
        nonlocal checked_b
        checked_b += 1
        if not rk.key(u) < rk.key(shift_deriv(u, k)):
            found.setdefault(Counterexample("b", u, None, k))

    def check_a(u: Deriv, v: Deriv, k: int) -> None:
        """Axiom (a) in direction k for a pair already known to have u < v."""
        nonlocal checked_a
        checked_a += 1
        if not rk.key(shift_deriv(u, k)) < rk.key(shift_deriv(v, k)):
            found.setdefault(Counterexample("a", u, v, k))

    pool = list(ctx.derivs(exhaustive_order))
    directions = range(1, ctx.n + 1)
    for u in pool:
        for k in directions:
            check_b(u, k)
    keys = list(map(rk.key, pool))  # u < v decided once per pair, not once per direction
    for u, ku in zip(pool, keys):
        for v, kv in zip(pool, keys):
            if ku < kv:
                for k in directions:
                    check_a(u, v, k)

    rng = random.Random(seed)
    indices = list(mi.iter_up_to_order(ctx.n, SAMPLE_ORDER))
    for _ in range(sample_budget):
        u = Deriv(rng.randint(1, ctx.m), rng.choice(indices))
        v = Deriv(rng.randint(1, ctx.m), rng.choice(indices))
        k = rng.randint(1, ctx.n)
        check_b(u, k)
        if rk.key(u) < rk.key(v):
            check_a(u, v, k)
    return AuditReport(exhaustive_order, sample_budget, checked_a, checked_b, list(found))
