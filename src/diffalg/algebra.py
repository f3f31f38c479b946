"""Exact differential polynomials over the rationals.

The variable set has two kinds of members: independent variables x_j
(j in 1..n) and derivative variables u^i_alpha (unknown i in 1..m, exponent
alpha a multi-index of length n).  A DiffPoly is a finitely supported
rational-linear combination of monomials in these variables, kept canonical:
no zero coefficients, no zero exponents, structural equality.

Variables are tuples that carry the canonical order: x_j is (0, j) and
u^i_alpha is (i, alpha) with i >= 1, so plain tuple comparison puts the x's
first by index, then the u's by (unknown, exponent).  A monomial is a plain
tuple of (variable, positive exponent) pairs sorted in that order, so () is
1 and equal monomials are equal tuples; hashing, equality and sorting run
in C.  monomial() builds one from outside pairs,
monomial_product() multiplies two, and monomial_sort_key() fixes the
display order.

Total derivative operators D_k combine the partial derivative with respect
to x_k with the chain rule over every derivative variable:

    D_k f = df/dx_k + sum over (i, alpha) of df/du^i_alpha * u^i_{alpha+e_k}

The sum is finite because f has finite support.  All arithmetic is exact
(fractions.Fraction); nothing in this module rounds.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple, Optional, Union

from . import multiindex as mi
from .errors import StructuralError


class Indep(NamedTuple("Indep", [("i", int), ("j", int)])):
    """The independent variable x_j, as the tuple (i, j) = (0, j): below
    every Deriv, whose unknown index i is at least 1.  No dict or set holds
    both variables and plain tuples."""

    __slots__ = ()

    def __new__(cls, j: int) -> "Indep":
        return super().__new__(cls, 0, j)

    def __getnewargs__(self) -> tuple:
        return (self.j,)


class Deriv(NamedTuple):
    """The derivative variable u^i_alpha (a tuple, like Indep)."""

    i: int
    order: mi.Index


Variable = Union[Indep, Deriv]

Rational = Union[Fraction, int]


def shift_deriv(v: Deriv, k: int) -> Deriv:
    """u^i_alpha -> u^i_{alpha+e_k}, for a direction k in 1..n."""
    a = v.order
    return Deriv(v.i, a[:k - 1] + (a[k - 1] + 1,) + a[k:])


class Context(NamedTuple("Context", [("n", int), ("m", int)])):
    """Ambient dimensions: n independent variables, m unknowns.

    Every polynomial carries its context; mixing contexts is a structural
    error.  Variables should be built through x() and u() so index bounds are
    checked at the boundary.
    """

    __slots__ = ()

    def __new__(cls, n: int, m: int) -> "Context":
        if n < 1 or m < 1:
            raise StructuralError(f"ambient ({n}, {m}) must be positive")
        return super().__new__(cls, n, m)

    def x(self, j: int) -> Indep:
        if not 1 <= j <= self.n:
            raise StructuralError(f"x index {j} out of range 1..{self.n}")
        return Indep(j)

    def u(self, i: int, order: Iterable[int]) -> Deriv:
        if not 1 <= i <= self.m:
            raise StructuralError(f"u index {i} out of range 1..{self.m}")
        return Deriv(i, mi.validate(order, self.n))

    def check_var(self, v: Variable) -> Variable:
        if isinstance(v, Indep):
            return self.x(v.j)
        return self.u(v.i, v.order)

    def derivs(self, order_bound: int) -> Iterator[Deriv]:
        """Every u^i_alpha with |alpha| <= order_bound, unknown by unknown."""
        for i in range(1, self.m + 1):
            for a in mi.iter_up_to_order(self.n, order_bound):
                yield Deriv(i, a)


def monomial(pairs: Iterable[tuple[Variable, int]] = ()) -> tuple:
    """The canonical monomial of outside (variable, exponent) pairs: the
    exponents of a repeated variable added, zero exponents dropped, sorted;
    a negative exponent is an error."""
    exps: dict[Variable, int] = {}
    for v, e in pairs:
        if e < 0:
            raise StructuralError("negative exponent in monomial")
        exps[v] = exps.get(v, 0) + e
    return tuple(sorted((v, e) for v, e in exps.items() if e))


def monomial_product(a: tuple, b: tuple) -> tuple:
    """The product of two canonical monomials: their sorted pairs merged."""
    out, i, j = [], 0, 0
    while i < len(a) and j < len(b):
        va, vb = a[i][0], b[j][0]
        if va == vb:
            out.append((va, a[i][1] + b[j][1]))
            i, j = i + 1, j + 1
        elif va < vb:
            out.append(a[i])
            i += 1
        else:
            out.append(b[j])
            j += 1
    return tuple(out) + a[i:] + b[j:]


def _times_deriv(exps: tuple, w: Deriv) -> tuple:
    """Canonical pairs of exps times the one variable w: an insert, cheaper
    than monomial_product's general merge."""
    for t, (v, e) in enumerate(exps):
        if v >= w:
            if v == w:
                return exps[:t] + ((w, e + 1),) + exps[t + 1:]
            return exps[:t] + ((w, 1),) + exps[t:]
    return exps + ((w, 1),)


def monomial_sort_key(m: tuple) -> tuple:
    """Graded, then lexicographic toward the greatest variable: the pairs are
    compared from the greatest variable down, by variable, then exponent.  x
    variables rank below u variables.  Fixes display and serialization order
    only."""
    return (sum(e for _, e in m), m[::-1])


def _accumulate(res: dict[tuple, Fraction], m: tuple, c: Fraction) -> None:
    """res[m] += c for a nonzero c, keeping res free of zero coefficients."""
    old = res.get(m)
    if old is None:
        res[m] = c
    else:
        c += old
        if c:
            res[m] = c
        else:
            del res[m]


class DiffPoly:
    """Immutable sparse polynomial: monomial -> nonzero Fraction.  Arithmetic
    builds each result canonical in one pass and wraps it with _of;
    DiffPoly(ctx, terms) canonicalizes outside input."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: Context, terms: Optional[dict[tuple, Rational]] = None):
        canonical: dict[tuple, Fraction] = {}
        if terms:
            for m, c in terms.items():
                c = Fraction(c)
                if c:
                    canonical[m] = c
        self.ctx = ctx
        self.terms = canonical

    # -- constructors -------------------------------------------------------

    @classmethod
    def _of(cls, ctx: Context, terms: dict[tuple, Fraction]) -> "DiffPoly":
        """Wrap a dict that is already canonical: every value a nonzero Fraction."""
        p = object.__new__(cls)
        p.ctx = ctx
        p.terms = terms
        return p

    @classmethod
    def zero(cls, ctx: Context) -> "DiffPoly":
        return cls._of(ctx, {})

    @classmethod
    def constant(cls, ctx: Context, c: Rational) -> "DiffPoly":
        return cls(ctx, {(): c})

    @classmethod
    def variable(cls, ctx: Context, v: Variable) -> "DiffPoly":
        return cls._of(ctx, {((ctx.check_var(v), 1),): Fraction(1)})

    # -- basics --------------------------------------------------------------

    def _check_ctx(self, other: "DiffPoly") -> None:
        if self.ctx != other.ctx:
            raise StructuralError(f"ambient mismatch: {self.ctx} vs {other.ctx}")

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (
            isinstance(other, DiffPoly)
            and self.ctx == other.ctx
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.ctx, frozenset(self.terms.items())))

    def __repr__(self):
        return f"DiffPoly({to_text(self)})"

    def __add__(self, other: "DiffPoly") -> "DiffPoly":
        self._check_ctx(other)
        res = dict(self.terms)
        for m, c in other.terms.items():
            _accumulate(res, m, c)
        return DiffPoly._of(self.ctx, res)

    def __neg__(self) -> "DiffPoly":
        return DiffPoly._of(self.ctx, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "DiffPoly") -> "DiffPoly":
        return self + (-other)

    def __mul__(self, other: Union["DiffPoly", Rational]) -> "DiffPoly":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check_ctx(other)
        res: dict[tuple, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                _accumulate(res, monomial_product(m1, m2), c1 * c2)
        return DiffPoly._of(self.ctx, res)

    def __rmul__(self, other: Rational) -> "DiffPoly":
        return self.scale(other)

    def scale(self, c: Rational) -> "DiffPoly":
        if not c:
            return DiffPoly.zero(self.ctx)
        if not isinstance(c, Fraction):
            c = Fraction(c)
        return DiffPoly._of(self.ctx, {m: c * x for m, x in self.terms.items()})

    # -- calculus ------------------------------------------------------------

    def total_derivative(self, k: int) -> "DiffPoly":
        """D_k: the x_k partial plus the chain-rule sum over all derivative
        variables present in the support."""
        n = self.ctx.n
        if not 1 <= k <= n:
            raise StructuralError(f"direction {k} out of range 1..{n}")
        res: dict[tuple, Fraction] = {}
        for m, c in self.terms.items():
            for pos, (v, e) in enumerate(m):
                is_x = isinstance(v, Indep)
                if is_x and v.j != k:
                    continue
                head = m[:pos] + ((v, e - 1),) if e > 1 else m[:pos]
                # x's sort first, so only u's follow a u
                rest = m[pos + 1:] if is_x else _times_deriv(m[pos + 1:], shift_deriv(v, k))
                _accumulate(res, head + rest, c * e if e > 1 else c)
        return DiffPoly._of(self.ctx, res)

    def total_derivative_multi(self, a: mi.Index) -> "DiffPoly":
        """D^a, evaluated direction by direction in ascending direction index.
        The result is independent of that traversal order."""
        mi.validate(a, self.ctx.n)
        f = self
        for k, reps in enumerate(a, start=1):
            for _ in range(reps):
                f = f.total_derivative(k)
        return f

    # -- structure -----------------------------------------------------------

    def substitute(self, v: Variable, g: "DiffPoly") -> "DiffPoly":
        """Replace every occurrence of v by g, expanded and canonicalized."""
        return self.substitute_all({v: g})

    def substitute_all(self, images: dict[Variable, "DiffPoly"]) -> "DiffPoly":
        """Replace every variable v in images by images[v], all at once (an
        image's own variables are not substituted again), expanded into one
        accumulator.  Each power of an image is built once per call."""
        for g in images.values():
            self._check_ctx(g)
        powers: dict[Variable, list[DiffPoly]] = {}

        def power(v: Variable, e: int) -> "DiffPoly":
            built = powers.setdefault(v, [images[v]])
            while len(built) < e:
                built.append(built[-1] * images[v])
            return built[e - 1]

        res: dict[tuple, Fraction] = {}
        for m, c in self.terms.items():
            hits = [(v, e) for v, e in m if v in images]
            if not hits:
                _accumulate(res, m, c)
                continue
            factor = power(*hits[0])
            for v, e in hits[1:]:
                factor = factor * power(v, e)
            rest = tuple(p for p in m if p[0] not in images)
            for fm, fc in factor.terms.items():
                _accumulate(res, monomial_product(rest, fm), c * fc)
        return DiffPoly._of(self.ctx, res)

    def support_derivs(self) -> set[Deriv]:
        """All derivative variables with nonzero coefficient somewhere in f.
        Empty exactly when f lies in the plain polynomial ring over the x's."""
        out: set[Deriv] = set()
        for m in self.terms:
            for v, _ in m:
                if isinstance(v, Deriv):
                    out.add(v)
        return out

    def sorted_terms(self) -> list[tuple[tuple, Fraction]]:
        """Terms in descending canonical monomial order (leading first)."""
        terms = self.terms
        return [(m, terms[m]) for m in sorted(terms, key=monomial_sort_key, reverse=True)]


# -- serialization -----------------------------------------------------------


def var_to_json(v: Variable) -> list:
    if isinstance(v, Indep):
        return ["x", v.j]
    return ["u", v.i, list(v.order)]


def var_from_json(ctx: Context, data) -> Variable:
    if not isinstance(data, list) or not data or data[0] not in ("x", "u"):
        raise StructuralError(f"bad variable {data!r}; expected ['x', j] or ['u', i, [a...]]")
    if data[0] == "x":
        if len(data) != 2 or type(data[1]) is not int:
            raise StructuralError(f"bad independent variable {data!r}")
        return ctx.x(data[1])
    if len(data) != 3 or type(data[1]) is not int or not isinstance(data[2], list):
        raise StructuralError(f"bad derivative variable {data!r}")
    return ctx.u(data[1], data[2])


_RATIONAL_RE = re.compile(r"-?[0-9]+(/[1-9][0-9]*)?")


def _frac_from_str(s) -> Fraction:
    if type(s) is int:
        return Fraction(s)
    if isinstance(s, str) and _RATIONAL_RE.fullmatch(s):
        return Fraction(s)
    raise StructuralError(f"bad rational {s!r}; expected a decimal-free 'p' or 'p/q' string")


def poly_to_json(p: DiffPoly) -> list:
    """List of {"c": rational string, "m": [[variable, exponent], ...]},
    leading term first.  Round-trips bit-exactly."""
    out = []
    for m, c in p.sorted_terms():
        out.append({"c": str(c), "m": [[var_to_json(v), e] for v, e in m]})
    return out


def poly_from_json(ctx: Context, data, where: str = "polynomial") -> DiffPoly:
    """Parse poly_to_json's format; an error in term t names it as where[t]."""
    if not isinstance(data, list):
        raise StructuralError(f"polynomial must be a list of terms, got {type(data).__name__}")
    acc: dict[tuple, Fraction] = {}
    for t, term in enumerate(data):
        try:
            if not isinstance(term, dict) or "c" not in term or "m" not in term:
                raise StructuralError("expected object with 'c' and 'm'")
            unknown = [key for key in term if key not in ("c", "m")]
            if unknown:
                raise StructuralError(f"unknown field {unknown[0]!r}")
            c = _frac_from_str(term["c"])
            if not isinstance(term["m"], list):
                raise StructuralError(f"'m' must be a list of factors, got {term['m']!r}")
            pairs = []
            for entry in term["m"]:
                if not isinstance(entry, list) or len(entry) != 2:
                    raise StructuralError(f"bad factor {entry!r}")
                v, e = var_from_json(ctx, entry[0]), entry[1]
                if type(e) is not int or e <= 0:
                    raise StructuralError(f"exponent must be a positive integer, got {e!r}")
                pairs.append((v, e))
        except StructuralError as exc:
            raise StructuralError(f"{where}[{t}]: {exc}") from None
        if c:
            _accumulate(acc, monomial(pairs), c)
    return DiffPoly._of(ctx, acc)


# -- human-readable rendering (logs only, never parsed back) ------------------


def _var_text(v: Variable) -> str:
    if isinstance(v, Indep):
        return f"x[{v.j}]"
    return f"u[{v.i},({','.join(str(e) for e in v.order)})]"


def _mono_text(m: tuple) -> str:
    if not m:
        return "1"
    return "*".join(
        _var_text(v) + (f"^{e}" if e > 1 else "") for v, e in m
    )


def to_text(p: DiffPoly) -> str:
    if p.is_zero():
        return "0"
    parts = []
    for idx, (m, c) in enumerate(p.sorted_terms()):
        neg = c < 0
        mag = -c if neg else c
        if m and mag == 1:
            body = _mono_text(m)
        elif m:
            body = f"{mag}*{_mono_text(m)}"
        else:
            body = str(mag)
        if idx == 0:
            parts.append(("-" if neg else "") + body)
        else:
            parts.append(("- " if neg else "+ ") + body)
    return " ".join(parts)
