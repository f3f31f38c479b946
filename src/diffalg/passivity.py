"""The passivity decision for solved systems, with its quotient report.

For every pair of equations whose leads share an unknown, the paired diamond
shifts raise both leads onto their common join; the difference of the two
prolonged equations drops strictly below that join.  Reducing it against the
system decides the pair:

    remainder 0                      the pair is compatible (satisfied)
    remainder without derivatives    a nonzero relation among the x's alone
                                     (inconsistent)
    anything else                    a genuine obstruction, reported verbatim

A system is passive when it is conditionally solvable and every pair is
satisfied.  Passive systems get a census of principal versus parametric
derivatives up to an order bound (the bounded shape of the quotient algebra)
and a normalized bounded presentation whose leads are exactly the orbit of
the leading derivatives.  Every phase reads its budgets and the order bound
from the system's Bounds.  Obstructed systems are reported, never repaired.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import filterfalse, repeat
from math import comb
from typing import Sequence

from . import multiindex as mi
from .algebra import Deriv, DiffPoly
from .errors import StructuralError
from .normal import Bounds, SolvedForm, SolvedSystem, normalized_slice
from .ranking import Ranking, class_to_json
from .syzygy import TauPair, tau_generators

SATISFIED = "satisfied"
OBSTRUCTED = "obstructed"
INCONSISTENT = "inconsistent"

PASSIVE = "passive"
NOT_PASSIVE = "not-passive"

EXIT_FOR_VERDICT = {PASSIVE: 0, NOT_PASSIVE: 2, OBSTRUCTED: 2, INCONSISTENT: 3}


def _status(remainder: DiffPoly, zero: str) -> str:
    """zero for a zero remainder, inconsistent for one free of derivatives,
    obstructed otherwise."""
    if not remainder:
        return zero
    return OBSTRUCTED if remainder.support_derivs() else INCONSISTENT


def _verdict(statuses: set[str], obstructed: str, ok: str) -> str:
    if INCONSISTENT in statuses:
        return INCONSISTENT
    return obstructed if OBSTRUCTED in statuses else ok


class CompatibilityResult(namedtuple("CompatibilityResult", "pair tau combination remainder status class_bound")):
    __slots__ = ()

    def to_json(self) -> dict:
        return {
            "i": self.pair[0],
            "j": self.pair[1],
            "shift_i": list(self.tau.shift_i),
            "shift_j": list(self.tau.shift_j),
            "combination": self.combination,
            "remainder": self.remainder,
            "status": self.status,
            "class_bound": class_to_json(self.class_bound),
        }


def check_pair(sys: SolvedSystem, tau: TauPair) -> CompatibilityResult:
    """Decide one cross-derivative pair by reduction.

    The generator applied to the equations, D^{s_i} eq_i - D^{s_j} eq_j,
    loses the shifted join of the two leads identically; what is left,
    D^{s_j} rhs_j - D^{s_i} rhs_i from the system's cached prolongations, is
    reduced and classified by its remainder.
    """
    combination = sys.prolongation(tau.j, tau.shift_j) - sys.prolongation(tau.i, tau.shift_i)
    lead_i = sys.equations[tau.i].lead
    join = Deriv(lead_i.i, mi.add(lead_i.order, tau.shift_i))
    if join in combination.support_derivs():
        raise StructuralError(
            f"pair ({tau.i}, {tau.j}): top derivative {join} failed to cancel"
        )
    remainder = sys.normal_form(combination)
    return CompatibilityResult(
        pair=(tau.i, tau.j),
        tau=tau,
        combination=combination,
        remainder=remainder,
        status=_status(remainder, SATISFIED),
        class_bound=sys.ranking.class_of(combination),
    )


class Census(namedtuple("Census", "order_bound principal parametric counts")):
    """counts maps a total order to its number of parametric derivatives."""

    __slots__ = ()

    def to_json(self) -> dict:
        return {
            "order_bound": self.order_bound,
            "principal": list(self.principal),
            "parametric": list(self.parametric),
            "counts": {str(o): c for o, c in sorted(self.counts.items())},
            "parametric_total": len(self.parametric),
        }


def quotient_census(sys: SolvedSystem) -> Census:
    """Classify every derivative variable up to the system's order bound as
    principal (in some lead's orbit) or parametric (free in the quotient).
    Up to the bound, the principal ones are exactly SolvedSystem.orbit, in
    its order, so order t holds m * C(n + t - 1, t) derivatives less
    the orbit's.  The multi-indices are enumerated once for all m unknowns
    into Derivs built unchecked by tuple.__new__."""
    sys.require_enumerable("census")
    n, m = sys.ctx
    order_bound = sys.bounds.order_bound
    orbit = sys.orbit()
    indices = sorted(mi.iter_up_to_order(n, order_bound))
    parametric: list[Deriv] = []
    for i in range(1, m + 1):
        derivs = map(tuple.__new__, repeat(Deriv), zip(repeat(i), indices))
        parametric += filterfalse(orbit.__contains__, derivs)
    counts = {t: m * comb(n + t - 1, t) for t in range(order_bound + 1)}
    for _, a in orbit:
        counts[sum(a)] -= 1
    return Census(order_bound, list(orbit), parametric, counts)


class PassivityReport(namedtuple("PassivityReport", "verdict theta solvability pairs census normalized",
                                 defaults=(None, None))):
    __slots__ = ()

    @property
    def exit_code(self) -> int:
        return EXIT_FOR_VERDICT[self.verdict]

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "theta": class_to_json(self.theta) if self.theta is not None else None,
            "solvable": self.solvability.to_json(),
            "pairs": [p.to_json() for p in self.pairs],
            "census": self.census.to_json() if self.census is not None else None,
            "normalized_slice": self.normalized.to_json() if self.normalized is not None else None,
        }


def decide_passivity(sys: SolvedSystem) -> PassivityReport:
    """The passivity verdict: solvability, theta and every pair decided.

    theta is the least class among the equations' leads: shifting only
    raises class, so the orbit minimum is attained on the equations
    themselves.
    """
    solvability = sys.solvability
    theta = min((sys.ranking.key(eq.lead) for eq in sys.equations), default=None)
    if not solvability.ok:
        return PassivityReport(NOT_PASSIVE, theta, solvability, [])
    pairs = [check_pair(sys, tau) for tau in tau_generators(sys.leads())]
    verdict = _verdict({p.status for p in pairs}, NOT_PASSIVE, PASSIVE)
    return PassivityReport(verdict, theta, solvability, pairs)


def is_passive(sys: SolvedSystem) -> PassivityReport:
    """Full passivity decision.

    On a passive verdict the report also gets the quotient census and the
    certified bounded normalized presentation.  A passive system gives every
    polynomial one normal form, the one its autoreduced system gives too, so
    the slice runs on the decided system itself and reuses the normal forms
    that its pair checks memoized there.
    """
    report = decide_passivity(sys)
    if report.verdict != PASSIVE:
        return report
    return report._replace(census=quotient_census(sys), normalized=normalized_slice(sys))


# -- coincident leads ----------------------------------------------------------


class DerivedRelation(namedtuple("DerivedRelation", "lead first_eq second_eq remainder status")):
    """status is "merged", "inconsistent" or "obstructed"."""

    __slots__ = ()

    def to_json(self) -> dict:
        return self._asdict()


class CoincidenceReport(namedtuple("CoincidenceReport", "verdict system relations")):
    """verdict is "ok", "inconsistent" or "obstructed"; system is the merged
    SolvedSystem, None unless the verdict is "ok"."""

    __slots__ = ()

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "relations": [r.to_json() for r in self.relations],
        }


def coincident_lead_analysis(
    raw: Sequence[SolvedForm], ranking: Ranking, bounds: Bounds = Bounds()
) -> CoincidenceReport:
    """Merge equations sharing a lead, or report what keeps them apart.

    For each duplicate the tail difference (class strictly below the shared
    lead) is reduced against the deduplicated system, which holds the
    bounds.  Zero means a true duplicate; a nonzero base remainder is a
    contradiction among the x's; a nonzero remainder with derivatives is a
    derived relation the input must already imply, reported rather than
    dropped.
    """
    first_at: dict[Deriv, int] = {}
    keep: list[SolvedForm] = []
    dupes: list[tuple[int, int, SolvedForm]] = []
    for idx, form in enumerate(raw):
        if form.lead in first_at:
            dupes.append((first_at[form.lead], idx, form))
        else:
            first_at[form.lead] = idx
            keep.append(form)
    base = SolvedSystem(tuple(keep), ranking, bounds)
    if not dupes:
        return CoincidenceReport("ok", base, [])

    relations: list[DerivedRelation] = []
    for first_idx, dup_idx, form in dupes:
        diff = form.tail - raw[first_idx].tail
        remainder = base.normal_form(diff) if base.solvability.ok else diff
        status = _status(remainder, "merged")
        relations.append(DerivedRelation(form.lead, first_idx, dup_idx, remainder, status))
    verdict = _verdict({r.status for r in relations}, OBSTRUCTED, "ok")
    return CoincidenceReport(verdict, base if verdict == "ok" else None, relations)
