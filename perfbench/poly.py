"""Exact differential polynomials, written apart from diffalg.

The benchmark builds its problem files and checks diffalg's answers with this
module alone, so a fault in diffalg's algebra cannot hide itself in a check.

A variable is ("x", j) or ("u", i, alpha) with alpha a tuple.  A monomial is a
sorted tuple of (variable, exponent) pairs; a polynomial is a dict from
monomial to nonzero Fraction.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial


def var_sort_key(v):
    return (0, v[1]) if v[0] == "x" else (1, v[1]) + v[2]


def mono(pairs) -> tuple:
    acc: dict = {}
    for v, e in pairs:
        acc[v] = acc.get(v, 0) + e
    return tuple(sorted(((v, e) for v, e in acc.items() if e), key=lambda p: var_sort_key(p[0])))


def X(j: int) -> dict:
    return {mono([(("x", j), 1)]): Fraction(1)}


def U(i: int, alpha) -> dict:
    return {mono([(("u", i, tuple(alpha)), 1)]): Fraction(1)}


def const(c) -> dict:
    c = Fraction(c)
    return {(): c} if c else {}


def add(*polys) -> dict:
    out: dict = {}
    for p in polys:
        for m, c in p.items():
            s = out.get(m, 0) + c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
    return out


def scale(p: dict, c) -> dict:
    c = Fraction(c)
    return {m: c * x for m, x in p.items()} if c else {}


def sub(p: dict, q: dict) -> dict:
    return add(p, scale(q, -1))


def mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = mono(m1 + m2)
            s = out.get(m, 0) + c1 * c2
            if s:
                out[m] = s
            else:
                out.pop(m, None)
    return out


def power(p: dict, e: int) -> dict:
    out = const(1)
    for _ in range(e):
        out = mul(out, p)
    return out


def derivs(p: dict) -> set:
    """The derivative variables u^i_alpha occurring in p."""
    return {v for m in p for v, _ in m if v[0] == "u"}


def shift(v, k: int):
    """u^i_alpha -> u^i_{alpha + e_k}, k in 1..n."""
    alpha = list(v[2])
    alpha[k - 1] += 1
    return ("u", v[1], tuple(alpha))


def total_derivative(p: dict, k: int) -> dict:
    """D_k: d/dx_k plus the chain rule over every derivative variable."""
    out: dict = {}
    for m, c in p.items():
        for pos, (v, e) in enumerate(m):
            rest = list(m[:pos]) + ([(v, e - 1)] if e > 1 else []) + list(m[pos + 1:])
            if v[0] == "x":
                if v[1] != k:
                    continue
                term = mono(rest)
            else:
                term = mono(rest + [(shift(v, k), 1)])
            s = out.get(term, 0) + c * e
            if s:
                out[term] = s
            else:
                out.pop(term, None)
    return out


def total_derivative_multi(p: dict, alpha) -> dict:
    for k, reps in enumerate(alpha, start=1):
        for _ in range(reps):
            p = total_derivative(p, k)
    return p


def substitute(p: dict, images: dict) -> dict:
    """Replace each variable v with images[v] wherever images has it."""
    out: dict = {}
    for m, c in p.items():
        term = const(c)
        kept = []
        for v, e in m:
            if v in images:
                term = mul(term, power(images[v], e))
            else:
                kept.append((v, e))
        out = add(out, mul(term, {mono(kept): Fraction(1)}))
    return out


def compositions(n: int, total: int):
    """All alpha in N^n with |alpha| == total."""
    if n == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in compositions(n - 1, total - head):
            yield (head,) + rest


def up_to_order(n: int, bound: int):
    for total in range(bound + 1):
        yield from compositions(n, total)


def multinomial(beta) -> int:
    out = factorial(sum(beta))
    for b in beta:
        out //= factorial(b)
    return out


def dominates(lead_alpha, alpha) -> bool:
    return all(b >= a for a, b in zip(lead_alpha, alpha))


def is_principal(v, leads) -> bool:
    """u^i_beta is principal iff some lead u^i_alpha has alpha <= beta."""
    return any(lead[1] == v[1] and dominates(lead[2], v[2]) for lead in leads)


# -- JSON surface ----------------------------------------------------------------


def var_from_json(data):
    return ("x", data[1]) if data[0] == "x" else ("u", data[1], tuple(data[2]))


def var_to_json(v) -> list:
    return ["x", v[1]] if v[0] == "x" else ["u", v[1], list(v[2])]


def from_json(terms) -> dict:
    out: dict = {}
    for t in terms:
        m = mono((var_from_json(v), e) for v, e in t["m"])
        c = Fraction(t["c"])
        if m in out:
            raise ValueError(f"monomial {m} listed twice")
        if not c:
            raise ValueError("zero coefficient listed")
        out[m] = c
    return out


def to_json(p: dict) -> list:
    return [
        {"c": str(c), "m": [[var_to_json(v), e] for v, e in m]}
        for m, c in sorted(p.items(), key=lambda t: [var_sort_key(v) + (e,) for v, e in t[0]])
    ]
