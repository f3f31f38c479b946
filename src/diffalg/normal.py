"""Solved forms, division with remainder, and autoreduction.

An equation is stored as f = lead + tail where lead is a single derivative
variable and tail is a polynomial not depending on it; the induced rewrite
rule is lead -> -tail.  A system under a ranking is conditionally solvable
when every tail's class sits strictly below its lead's class; that descent is
what makes the rewriting terminate.

reduce() eliminates, greatest first, every derivative variable lying in some
equation's orbit (the principal derivatives), by substituting the prolonged
rewrite rule into the terms whose greatest principal derivative it is.  The
remainder depends only on the x's and the parametric derivatives, and is the
fixpoint of the substitution find_principal() fixes, nearest lead first:
rewrite order changes only the trace.
SolvedSystem.normal_form() computes that fixpoint from normal forms memoized
on the system itself; autoreduce() takes every tail's from it, and the slice
each candidate tail NF(D_k T) as normal_form(T.total_derivative(k)).
SolvedSystem.split() walks every derivative up to the order bound once and
puts it on its side, principal (the orbit of the leads) or parametric, each
call charged; the census reads both halves and the slice walks the first.
A system holds its Bounds, and every phase run on it reads its budgets there.
"""

from __future__ import annotations

from bisect import insort
from collections import namedtuple
from collections.abc import Sequence
from fractions import Fraction
from itertools import repeat
from operator import le

from . import multiindex as mi
from .algebra import Context, Deriv, DiffPoly, Variable, _accumulate, shift_deriv, to_text, var_to_json
from .errors import EnumerationLimitError, ReductionLimitError, StructuralError
from .ranking import Ranking, class_to_json


class Bounds(namedtuple("Bounds", "order_bound max_steps max_enumeration", defaults=(6, 10**5, 10**6))):
    """A system's limits: the order bound of its census and slice, the
    rewriting steps of one call, and the multi-index entries one walk may
    enumerate."""

    __slots__ = ()

    def check_enumeration(self, phase: str, size: int, items: str = "index entries") -> None:
        """Refuse, naming the phase, a walk over more than max_enumeration items."""
        if size > self.max_enumeration:
            raise EnumerationLimitError(phase, size, self.max_enumeration, items)


class SolvedForm(namedtuple("SolvedForm", "lead tail")):
    """f = lead + tail, with tail free of lead."""

    __slots__ = ()

    def __new__(cls, lead: Deriv, tail: DiffPoly) -> "SolvedForm":
        tail.ctx.check_var(lead)
        if lead in tail.support_derivs():
            raise StructuralError(f"tail of solved form depends on its own lead {var_to_json(lead)}")
        return super().__new__(cls, lead, tail)


class SolvedSystem:
    """A finite list of solved forms over one ambient, with its ranking, its
    bounds, and the memoized normal form modulo its orbit.  Conditional
    solvability is checked once, on construction.  Equal when equations and
    ranking are; the bounds and the memos are not compared.
    """

    __slots__ = ("equations", "ranking", "bounds", "solvability", "_nearest", "_rule", "_nf", "_prolonged", "_splits")

    def __init__(self, equations: Sequence[SolvedForm], ranking: Ranking, bounds: Bounds = Bounds()):
        self.equations = tuple(equations)
        self.ranking = ranking
        self.bounds = bounds
        for eq in self.equations:
            if eq.tail.ctx != ranking.ctx:
                raise StructuralError("equation ambient differs from ranking ambient")
        leads = self.leads()
        if len(set(leads)) != len(leads):
            raise StructuralError(
                "coincident leads; run coincident_lead_analysis on the raw list first"
            )
        self.solvability = check_conditionally_solvable(self)
        self._nearest: dict[int, list] = {}  # unknown -> [(|a|, lead order a, equation)], ascending
        for idx, (i, a) in enumerate(leads):
            insort(self._nearest.setdefault(i, []), (sum(a), a, idx))
        self._rule: dict[Deriv, tuple[int, mi.Index] | None] = {}
        self._nf: dict[Deriv, DiffPoly] = {}
        self._splits: dict[int, tuple[dict[Deriv, None], list[Deriv]]] = {}  # order bound -> split()
        zero = (0,) * ranking.ctx.n
        self._prolonged = {(idx, zero): -eq.tail for idx, eq in enumerate(self.equations)}

    def __eq__(self, other):
        return isinstance(other, SolvedSystem) and (self.equations, self.ranking) == (
            other.equations, other.ranking)

    @property
    def ctx(self) -> Context:
        return self.ranking.ctx

    def leads(self) -> list[Deriv]:
        return [eq.lead for eq in self.equations]

    def rule(self, v: Deriv) -> tuple[int, mi.Index] | None:
        """find_principal(self, v), memoized: the (equation, shift) whose
        prolonged rule rewrites v, or None when v is parametric."""
        try:
            return self._rule[v]
        except KeyError:  # a miss: None is a cached value too
            self._rule[v] = find_principal(self, v)
            return self._rule[v]

    def prolongation(self, idx: int, shift: mi.Index) -> DiffPoly:
        """D^shift of equation idx's rewrite image -tail; a new one is charged
        |shift| * n index entries, n per derivation, against max_enumeration."""
        if (idx, shift) in self._prolonged:
            return self._prolonged[(idx, shift)]
        self.bounds.check_enumeration("prolongation", sum(shift) * len(shift))
        step = (0,) * len(shift)
        poly = self._prolonged[(idx, step)]
        for k, reps in enumerate(shift):
            for _ in range(reps):
                step = step[:k] + (step[k] + 1,) + step[k + 1:]
                if (idx, step) not in self._prolonged:
                    self._prolonged[(idx, step)] = poly.total_derivative(k + 1)
                poly = self._prolonged[(idx, step)]
        return poly

    def split(self, phase: str = "orbit") -> tuple[dict[Deriv, None], list[Deriv]]:
        """Every derivative up to the order bound, principal (as dict keys:
        the orbit of the leads) or parametric, each half sorted by (unknown,
        multi-index): the census and slice order.  Memoized per bound; every
        call first refuses, naming phase, a walk whose m * C(n + bound, n)
        derivatives hold more index entries, n each, than max_enumeration
        (the count stops past 2**SIZE_BITS).

        One walk per unknown takes each multi-index a once, in lexicographic
        order, and applies find_principal's dominance test to the leads of
        order <= |a|: a prefix of the unknown's lead table, so no table per
        order is built.  The lead that dominated the last principal index is
        tried first, since lexicographic neighbours mostly share it.  Derivs
        are built unchecked by tuple.__new__."""
        n, m = self.ctx
        bound = self.bounds.order_bound
        self.bounds.check_enumeration(phase, m * mi.count_up_to_order(n, bound) * n)
        if bound not in self._splits:
            indices = sorted(mi.iter_up_to_order(n, bound))
            principal: dict[Deriv, None] = {}
            parametric: list[Deriv] = []
            for i in range(1, m + 1):
                leads = self._nearest.get(i, ())
                derivs = map(tuple.__new__, repeat(Deriv), zip(repeat(i), indices))
                if not leads:
                    parametric += derivs
                    continue
                last = leads[0][1]
                for v in derivs:
                    a = v[1]
                    if all(map(le, last, a)):
                        principal[v] = None
                        continue
                    t = sum(a)
                    for s, b, _ in leads:
                        if s > t:
                            parametric.append(v)
                            break
                        if b is not last and all(map(le, b, a)):
                            principal[v] = None
                            last = b
                            break
                    else:
                        parametric.append(v)
            self._splits[bound] = principal, parametric
        return self._splits[bound]

    def require_reducible(self, f: DiffPoly) -> None:
        """Raise unless the system is conditionally solvable and f shares its
        ambient: the preconditions of normal_form and of reduce alike."""
        if not self.solvability.ok:
            raise StructuralError(f"system is not conditionally solvable: {self.solvability.violations}")
        if f.ctx != self.ctx:
            raise StructuralError("polynomial ambient differs from system ambient")

    def normal_form(self, f: DiffPoly) -> DiffPoly:
        """reduce(f, self).remainder: f with every principal v replaced by
        NF(v) = NF(D^shift rhs), for find_principal's (equation, shift) of v.
        NF(v) is memoized per principal v, and each prolongation D^shift(rhs)
        is built as D_k of a cached predecessor.  bounds.max_steps bounds
        the substitutions of one call, memo fills included.
        """
        self.require_reducible(f)
        images = self._images(f)
        return f.substitute(images) if images else f

    def _images(self, f: DiffPoly) -> dict[Deriv, DiffPoly]:
        """{v: NF(v)} for the principal v in f's support, memoized at one step
        per substitution, memo fills included; f names an overrun."""
        top = [v for v in f.support_derivs() if self.rule(v) is not None]
        steps, max_steps = len(top), self.bounds.max_steps
        if steps > max_steps:
            raise ReductionLimitError(max_steps, to_text(f))
        # Explicit stack: a derivative's first visit charges its image's
        # substitutions and pushes the normal forms still missing, its second
        # fills its own.  A rewrite cycle (no ranking has one) recharges until
        # the budget runs out.
        stack: list[tuple[Deriv, list[Deriv] | None]] = [(v, None) for v in top]
        while stack:
            v, hits = stack.pop()
            if v in self._nf:
                continue
            image = self.prolongation(*self._rule[v])
            if hits is None:
                hits = [w for w in image.support_derivs() if self.rule(w) is not None]
                steps += len(hits)
                if steps > max_steps:
                    raise ReductionLimitError(max_steps, to_text(image))
                stack.append((v, hits))
                stack.extend((w, None) for w in hits if w not in self._nf)
            else:
                # One simultaneous substitution equals substituting the hits
                # one by one: every image is a normal form, so it holds no
                # principal derivative that a later hit would rewrite.
                self._nf[v] = image.substitute({w: self._nf[w] for w in hits}) if hits else image
        return {v: self._nf[v] for v in top}


class SolvabilityReport(namedtuple("SolvabilityReport", "ok violations")):
    __slots__ = ()

    def to_json(self) -> dict:
        return self._asdict()


def check_conditionally_solvable(sys: SolvedSystem) -> SolvabilityReport:
    """Every equation must have class(tail) strictly below class(lead)."""
    rk = sys.ranking
    violations = []
    for idx, eq in enumerate(sys.equations):
        lead_key = rk.key(eq.lead)
        tail_key = rk.class_of(eq.tail)
        if not tail_key < lead_key:
            violations.append(
                {
                    "eq": idx,
                    "lead": var_to_json(eq.lead),
                    "lead_class": class_to_json(lead_key),
                    "tail_class": class_to_json(tail_key),
                }
            )
    return SolvabilityReport(ok=not violations, violations=violations)


def find_principal(sys: SolvedSystem, v: Deriv) -> tuple[int, mi.Index] | None:
    """The equation whose lead's orbit contains v, with the shift, nearest
    lead first: the smallest |shift| = |v| - |a| wins, ties broken by the
    lexicographically smallest shift v - a.  That is the first lead a that v
    dominates in its unknown's lead table read backwards, largest (|a|, a)
    first.  None when v is parametric; a lead of another length than v is a
    StructuralError."""
    for _, a, idx in reversed(sys._nearest.get(v.i, ())):
        shift = mi.try_subtract(a, v.order)
        if shift is not None:
            return idx, shift
    return None


class ReduceStep(namedtuple("ReduceStep", "eq shift eliminated")):
    __slots__ = ()

    def to_json(self) -> dict:
        return self._asdict()


ReduceResult = namedtuple("ReduceResult", "remainder trace")  # trace: the ReduceSteps in order


def reduce(f: DiffPoly, sys: SolvedSystem) -> ReduceResult:
    """Divide f by the orbit of the system, greatest principal derivative
    first, and return the remainder with the full rewrite trace.  Each term
    waits in the bucket of its greatest principal derivative v, ranked by
    (key(v), v); bucket None holds the remainder's terms.  A term that holds
    the greatest v of all has it as its greatest, so a step rewrites v in
    that bucket alone.  Rules and prolonged rules come from the system's
    memos (SolvedSystem.rule and .prolongation)."""
    sys.require_reducible(f)
    ctx, rk, rule, max_steps = sys.ctx, sys.ranking, sys.rule, sys.bounds.max_steps
    buckets: dict[Deriv | None, dict[tuple, Fraction]] = {None: {}}
    ranks: list[tuple[tuple, Deriv]] = []  # (key(v), v) of every bucket v but None, ascending
    ranked: dict[Variable, tuple | None] = {}  # v -> (key(v), v) for a principal v, None otherwise

    def place(terms: dict[tuple, Fraction]) -> None:
        for m, c in terms.items():
            top = None
            for v, _ in m:
                if v in ranked:
                    r = ranked[v]
                else:
                    r = ranked[v] = (rk.key(v), v) if v[0] and rule(v) is not None else None
                if r is not None and (top is None or r > top):
                    top = r
            v = None if top is None else top[1]
            if v not in buckets:
                buckets[v] = {}
                insort(ranks, top)
            _accumulate(buckets[v], m, c)

    place(f.terms)
    trace: list[ReduceStep] = []
    while ranks:
        v = ranks.pop()[1]
        terms = buckets.pop(v)
        if not terms:  # cancellation emptied it
            continue
        if len(trace) >= max_steps:
            for bucket in buckets.values():
                terms.update(bucket)
            raise ReductionLimitError(max_steps, to_text(DiffPoly._of(ctx, terms)))
        idx, shift = rule(v)
        place(DiffPoly._of(ctx, terms).substitute({v: sys.prolongation(idx, shift)}).terms)
        trace.append(ReduceStep(idx, shift, v))
    return ReduceResult(DiffPoly._of(ctx, buckets[None]), trace)


def autoreduce(sys: SolvedSystem) -> SolvedSystem:
    """Every tail replaced by its normal form on sys itself, in one pass and
    with sys's memos; the result has sys's ranking and bounds.

    That is reduction against the other equations' orbits: every derivative
    met while reducing tail_s ranks strictly below lead_s, and every element
    of lead_s's orbit ranks at or above lead_s, so the whole system never
    rewrites tail_s with equation s.
    """
    return SolvedSystem(tuple(SolvedForm(eq.lead, sys.normal_form(eq.tail)) for eq in sys.equations),
                        sys.ranking, sys.bounds)


class SliceResult(namedtuple("SliceResult", "order_bound forms mismatches leads_match_orbit tails_reduced")):
    """Bounded normalized presentation of a system's orbit ideal: one solved
    form per orbit derivative within the order bound, tail fully reduced;
    certified when coherent, with leads exactly the principal derivatives up
    to the bound and no principal in a tail."""

    __slots__ = ()

    @property
    def coherent(self) -> bool:
        return not self.mismatches

    @property
    def certified(self) -> bool:
        return self.coherent and self.leads_match_orbit and self.tails_reduced

    def to_json(self) -> dict:
        return {
            "order_bound": self.order_bound,
            "certified": self.certified,
            "coherent": self.coherent,
            "leads_match_orbit": self.leads_match_orbit,
            "tails_reduced": self.tails_reduced,
            "generators": list(self.forms),
        }


def normalized_slice(sys: SolvedSystem) -> SliceResult:
    """Normalized presentation within the system's order bound; defined for
    passive systems, where every way of reaching an orbit derivative gives
    one tail.

    The orbit is walked in SolvedSystem.split's order, where each v - e_k
    comes before v.  A lead, whose rule has a zero shift, gets NF(tail), and
    a shifted lead v gets NF(D_k T(v - e_k)) from each one-step predecessor
    in the orbit.  Every candidate must agree with the first; disagreements
    are recorded as mismatches (the local coherence check of Riquier/Janet).
    Predecessors and forms are built unchecked by tuple.__new__: a tail is
    a normal form, free of every principal derivative and so of its lead.
    """
    tails: dict[Deriv, DiffPoly] = {}
    mismatches: list[dict] = []
    for v in sys.split("normalized slice")[0]:
        first = None  # (source, tail) of the first candidate
        idx, shift = sys.rule(v)
        if not any(shift):
            first = {"eq": idx}, sys.normal_form(sys.equations[idx].tail)
        a = v.order
        for k in range(len(a)):
            prev = tuple.__new__(Deriv, (v.i, a[:k] + (a[k] - 1,) + a[k + 1:])) if a[k] else None
            if prev in tails:
                derived = sys.normal_form(tails[prev].total_derivative(k + 1))
                if first is None:
                    first = {"from": prev, "direction": k + 1}, derived
                elif derived != first[1]:
                    mismatches.append({"lead": v, "first": first[0], "second": {"from": prev, "direction": k + 1}})
        tails[v] = first[1]
    forms = [tuple.__new__(SolvedForm, item) for item in tails.items()]
    return certify_slice(sys, forms, mismatches)


def certify_slice(sys: SolvedSystem, forms: list[SolvedForm], mismatches: list[dict]) -> SliceResult:
    """Check a slice from its forms alone, apart from the orbit walk: its
    leads must be the derivatives up to the system's order bound that
    find_principal calls principal, and no tail may hold one.  Principal
    leads that include each equation's lead and are closed under
    v -> v + e_k within the bound are that set: a principal w is a lead
    raised one step at a time to w."""
    rule, order_bound = sys.rule, sys.bounds.order_bound
    leads = {f.lead for f in forms}
    within = [v for v in leads if sum(v.order) < order_bound]
    leads_match_orbit = (
        len(leads) == len(forms)
        and all(sum(v.order) <= order_bound and rule(v) is not None for v in leads)
        and all(eq.lead in leads for eq in sys.equations if sum(eq.lead.order) <= order_bound)
        and all(shift_deriv(v, k) in leads for v in within for k in range(1, sys.ctx.n + 1))
    )
    tails_reduced = all(rule(w) is None for f in forms for w in f.tail.support_derivs())
    return SliceResult(order_bound, forms, mismatches, leads_match_orbit, tails_reduced)
