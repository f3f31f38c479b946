"""Exact sparse linear algebra over the rationals.

Rows are dicts column -> Fraction.  Everything is computed with exact
rational pivoting; there is no tolerance anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Hashable, Optional, Sequence

Row = dict[int, Fraction]


def _eliminate(rows: list[Row], rhs: Optional[list[Fraction]], ncols: int):
    """Forward elimination to reduced form.  Returns (pivot_rows, pivot_cols)
    where pivot_rows[t] has leading 1 in pivot_cols[t] and zeros in every
    other pivot column.  rhs, when given, is carried along in place."""
    pivot_rows: list[Row] = []
    pivot_rhs: list[Fraction] = []
    pivot_cols: list[int] = []
    work = [dict(r) for r in rows]
    b = list(rhs) if rhs is not None else [Fraction(0)] * len(rows)

    for col in range(ncols):
        pick = None
        for t, row in enumerate(work):
            if row.get(col):
                pick = t
                break
        if pick is None:
            continue
        row = work.pop(pick)
        val = b.pop(pick)
        inv = Fraction(1) / row[col]
        row = {c: x * inv for c, x in row.items()}
        val = val * inv
        # clear this column from earlier pivot rows and the remaining work
        for others, others_rhs in ((pivot_rows, pivot_rhs), (work, b)):
            for t, other in enumerate(others):
                f = other.get(col)
                if f:
                    for c, x in row.items():
                        nxt = other.get(c, Fraction(0)) - f * x
                        if nxt:
                            other[c] = nxt
                        else:
                            other.pop(c, None)
                    others_rhs[t] -= f * val
        pivot_rows.append(row)
        pivot_rhs.append(val)
        pivot_cols.append(col)

    return pivot_rows, pivot_rhs, pivot_cols, work, b


def solve(rows: list[Row], rhs: list[Fraction], ncols: int) -> Optional[list[Fraction]]:
    """One exact solution of A x = b with free variables set to zero, or None
    when the system is inconsistent."""
    pivot_rows, pivot_rhs, pivot_cols, leftover, leftover_rhs = _eliminate(rows, rhs, ncols)
    for t, row in enumerate(leftover):
        if not row and leftover_rhs[t]:
            return None
    x = [Fraction(0)] * ncols
    for t, col in enumerate(pivot_cols):
        # pivot rows are reduced against each other; free columns contribute 0
        x[col] = pivot_rhs[t]
    return x


def solve_labeled(
    columns: Sequence[dict[Hashable, Fraction]], target: dict[Hashable, Fraction]
) -> Optional[list[Fraction]]:
    """solve() with columns and right-hand side keyed by row label; rows come
    in order of first appearance over the columns, then the target."""
    index: dict[Hashable, int] = {}
    rows: list[Row] = []
    rhs: list[Fraction] = []
    for col, entries in enumerate([*columns, target]):
        for label, c in entries.items():
            if label not in index:
                index[label] = len(rows)
                rows.append({})
                rhs.append(Fraction(0))
            if col < len(columns):
                rows[index[label]][col] = c
            else:
                rhs[index[label]] = c
    return solve(rows, rhs, len(columns))


def nullspace(rows: list[Row], ncols: int) -> list[list[Fraction]]:
    """Basis of the solution space of A x = 0, one vector per free column."""
    pivot_rows, _, pivot_cols, _, _ = _eliminate(rows, None, ncols)
    pivot_set = set(pivot_cols)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for t, col in enumerate(pivot_cols):
            coeff = pivot_rows[t].get(free)
            if coeff:
                vec[col] = -coeff
        basis.append(vec)
    return basis


def rank(rows: list[Row], ncols: int) -> int:
    _, _, pivot_cols, _, _ = _eliminate(rows, None, ncols)
    return len(pivot_cols)
