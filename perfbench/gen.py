"""Seeded problem files and command lists for the four workloads.

Every workload is a fixed skeleton of problem shapes and sizes; the seed
draws the coefficients, potentials, random systems, weight matrices and the
order of the commands.  The skeleton keeps the cost of a run's command mix
nearly the same from seed to seed, so the figures measure the program and
not the draw.

A problem is a dict: "name", "family", "data" (the problem file's JSON),
"params" (what the checks need about the family) and, for weight rankings,
"twin" (the built-in ranking the weights encode) and "compatible".
"""

from __future__ import annotations

import json
from fractions import Fraction
import random

from . import poly as P

COEFFS = (1, 2, 3, -1, -2)


def unit(n: int, k: int) -> tuple:
    return tuple(1 if t == k - 1 else 0 for t in range(n))


def problem(name, family, n, m, ranking, equations, bound, **params) -> dict:
    return {
        "name": name,
        "family": family,
        "params": params,
        "data": {
            "n": n,
            "m": m,
            "ranking": ranking,
            "equations": [{"lead": P.var_to_json(lead), "tail": P.to_json(tail)} for lead, tail in equations],
            "bounds": {"order_bound": bound},
        },
    }


# -- families ----------------------------------------------------------------------


def riccati(name, rng, n, p, bound):
    """u_{x_k} = a_k u^p for k = 1..n."""
    a = [rng.choice(COEFFS) for _ in range(n)]
    u0 = ("u", 1, (0,) * n)
    eqs = [(("u", 1, unit(n, k)), {P.mono([(u0, p)]): Fraction(-a[k - 1])}) for k in range(1, n + 1)]
    return problem(name, "riccati", n, 1, "orderly", eqs, bound, p=p, a=a)


def heat_equation(n, c, i=1):
    """u^i_{x1 x1} = sum_{k>=2} c_k u^i_{x_k}, as (lead, tail)."""
    tail = P.add(*(P.scale(P.U(i, unit(n, k)), -c[k - 2]) for k in range(2, n + 1)))
    return ("u", i, (2,) + (0,) * (n - 1)), tail


def heat(name, rng, n, bound, ranking="orderly"):
    c = [rng.choice(COEFFS) for _ in range(n - 1)]
    return problem(name, "heat", n, 1, ranking, [heat_equation(n, c)], bound, c=c)


def potential(rng, n, degree, terms):
    """A polynomial in the x's with the given number of terms, the first of
    the given total degree."""
    phi: dict = {}
    while len(phi) < terms:
        d = degree if not phi else rng.randint(1, degree)
        gamma = [0] * n
        for _ in range(d):
            gamma[rng.randrange(n)] += 1
        m = P.mono((("x", j + 1), e) for j, e in enumerate(gamma))
        phi.setdefault(m, Fraction(rng.choice(COEFFS)))
    return phi


def gradient(name, rng, n, bound, degree, ranking="orderly", perturb=False):
    """u_{x_k} = d phi / d x_k; with perturb, one component gets an extra
    term whose cross derivatives do not cancel, so the system is
    inconsistent."""
    phi = potential(rng, n, degree, 4)
    tails = [P.scale(P.total_derivative(phi, k), -1) for k in range(1, n + 1)]
    params = {"phi": P.to_json(phi)}
    family = "gradient"
    if perturb:
        k0 = rng.randint(1, n)
        j = rng.choice([t for t in range(1, n + 1) if t != k0])
        delta = P.add(P.scale(P.X(j), rng.choice(COEFFS)), P.scale(P.mul(P.X(j), P.X(k0)), rng.choice(COEFFS)))
        tails[k0 - 1] = P.sub(tails[k0 - 1], delta)
        family = "gradient_perturbed"
    eqs = [(("u", 1, unit(n, k)), tails[k - 1]) for k in range(1, n + 1)]
    return problem(name, family, n, 1, ranking, eqs, bound, **params)


def elimination(name, rng, n, bound, ranking="elimination"):
    """Two unknowns: heat on u^1 and u^2_{x_k} = D_k Q for a seeded
    differential polynomial Q in u^1 and the x's, of fixed shape."""
    c = [rng.choice(COEFFS) for _ in range(n - 1)]

    def low():
        return ("u", 1, unit(n, rng.randint(1, n)) if rng.random() < 0.7 else (0,) * n)

    q = P.add(
        P.scale(P.mul(P.U(1, low()[2]), P.U(1, low()[2])), rng.choice(COEFFS)),
        P.scale(P.mul(P.X(rng.randint(1, n)), P.U(1, low()[2])), rng.choice(COEFFS)),
        P.scale(P.U(1, unit(n, rng.randint(1, n))), rng.choice(COEFFS)),
    )
    eqs = [heat_equation(n, c)]
    eqs += [(("u", 2, unit(n, k)), P.scale(P.total_derivative(q, k), -1)) for k in range(1, n + 1)]
    return problem(name, "elim", n, 2, ranking, eqs, bound, c=c, q=P.to_json(q))


def empty(name, n, m, bound):
    return problem(name, "empty", n, m, "orderly", [], bound)


def orderly_key(v):
    return (sum(v[2]), v[1]) + v[2]


def random_system(name, rng, n, m, k, bound):
    """Like tests/gen.rand_solved_system: k equations of order <= 3 in n
    independent variables and m unknowns, each tail ranking strictly below
    its lead under orderly."""
    pool = [("u", i, a) for i in range(1, m + 1) for a in P.up_to_order(n, 3)]
    rng.shuffle(pool)
    eqs = []
    for lead in pool[:k]:
        below = [("x", j) for j in range(1, n + 1)]
        below += [v for v in sorted(pool, key=orderly_key) if orderly_key(v) < orderly_key(lead)]
        eqs.append((lead, random_poly(rng, below, terms=2, degree=2)))
    return problem(name, "random", n, m, "orderly", eqs, bound)


def random_poly(rng, pool, terms, degree, least=0):
    out: dict = {}
    for _ in range(rng.randint(least, terms)):
        factors = [(rng.choice(pool), 1) for _ in range(rng.randint(0, degree))]
        out = P.add(out, {P.mono(factors): Fraction(rng.choice(COEFFS), rng.choice((1, 1, 2, 3)))})
    return out


# -- rankings --------------------------------------------------------------------------


def orderly_weights(n):
    return [[0] + [1] * n, [1] + [0] * n] + [[0] + list(unit(n, k)) for k in range(1, n + 1)]


def elimination_weights(n):
    return [[1] + [0] * n, [0] + [1] * n] + [[0] + list(unit(n, k)) for k in range(1, n + 1)]


def weight_key(rows, v):
    vec = (v[1],) + v[2]
    return tuple(sum(Fraction(w) * x for w, x in zip(row, vec)) for row in rows)


def column_positive(rows, k) -> bool:
    """Whether direction column k (1..n) is lexicographically positive."""
    for row in rows:
        if row[k]:
            return row[k] > 0
    return False


def compatible(rows) -> bool:
    """Axiom (a) holds for every weight matrix; axiom (b) holds iff every
    direction column is lexicographically positive."""
    return all(column_positive(rows, k) for k in range(1, len(rows[0])))


def tails_below_leads(rows, equations) -> bool:
    return all(
        all(weight_key(rows, v) < weight_key(rows, lead) for v in P.derivs(tail))
        for lead, tail in equations
    )


def random_weights(rng, n, want_compatible, equations):
    """A seeded weight matrix that is compatible (and keeps every tail below
    its lead) or, when asked, incompatible."""
    while True:
        rows = [[rng.randint(-1, 2) for _ in range(n + 1)] for _ in range(n + 1)]
        if not want_compatible:
            k = rng.randint(1, n)
            first = next((row for row in rows if row[k]), rows[0])
            first[k] = -abs(first[k]) or -1
            return rows
        if compatible(rows) and tails_below_leads(rows, equations):
            return rows


def equations_of(prob):
    return [
        (P.var_from_json(eq["lead"]), P.from_json(eq["tail"])) for eq in prob["data"]["equations"]
    ]


def reranked(prob, name, rows, twin=None):
    out = json.loads(json.dumps(prob))
    out["name"] = name
    out["data"]["ranking"] = {"weights": rows}
    out["compatible"] = compatible(rows)
    if twin is not None:
        out["twin"] = twin
    return out


# -- workloads ----------------------------------------------------------------------


def command(prob, kind, target=None):
    return {"problem": prob["name"], "kind": kind, "target": target}


def passive(rng):
    probs = [riccati(f"riccati{n}_{p}_{b}", rng, n, p, b) for n, p, b in
             ((2, 2, 6), (2, 3, 5), (3, 2, 5), (3, 3, 4), (4, 2, 4))]
    probs += [gradient(f"grad{n}_{b}", rng, n, b, degree) for n, b, degree in
              ((2, 6, 7), (3, 5, 6), (4, 4, 5))]
    probs += [elimination(f"elim{n}_{b}", rng, n, b) for n, b in ((2, 5), (3, 3))]
    cmds = [command(p, kind) for p in probs for kind in ("check", "quotient")]
    return probs, cmds


def wide(rng):
    heats = [heat(f"heat{n}_{b}", rng, n, b) for n, b in
             ((6, 5), (7, 4), (8, 4), (9, 3), (10, 3), (10, 2))]
    empties = [empty(f"empty{n}_{m}_{b}", n, m, b) for n, m, b in ((8, 1, 4), (10, 1, 2), (9, 2, 3))]
    probs = heats + empties
    check_only = ("heat10_3", "empty9_2_3")
    cmds = [command(p, kind) for p in probs for kind in ("check", "quotient")
            if kind == "check" or p["name"] not in check_only]
    return probs, cmds


def obstructed(rng):
    # Every (n, m, k) with n in {2, 3}, m in {1, 2} and 3 to 5 equations, five
    # times over.  n = 1 is left out: nested leads make its pair checks trivial.
    shapes = [(n, m, k) for n in (2, 3) for m in (1, 2) for k in (3, 4, 5)] * 5
    probs = [random_system(f"random{t}", rng, *shape, 3) for t, shape in enumerate(shapes)]
    cmds = [command(p, "check") for p in probs]
    for p in probs:
        n, m = p["data"]["n"], p["data"]["m"]
        pool = [("x", j) for j in range(1, n + 1)]
        pool += [("u", i, a) for i in range(1, m + 1) for a in P.up_to_order(n, 4)]
        cmds.append(command(p, "reduce", random_poly(rng, pool, terms=3, degree=2, least=1)))
    grads = [gradient(f"gradbad{t}", rng, rng.randint(2, 3), 3, 4, perturb=True) for t in range(4)]
    probs += grads
    cmds += [command(p, "check") for p in grads]
    return probs, cmds


def weighted(rng):
    heat2 = heat("heat2", rng, 2, 3)
    heat3 = heat("heat3", rng, 3, 2)
    grad2 = gradient("grad2", rng, 2, 3, 4)
    elim2 = elimination("elim2", rng, 2, 3)
    bases = [heat2, grad2, elim2]
    for b in bases:
        b["name"] += "_twin"
    probs = [
        reranked(heat2, "heat2_orderly", orderly_weights(2), twin="heat2_twin"),
        reranked(heat3, "heat3_w", random_weights(rng, 3, True, equations_of(heat3))),
        reranked(grad2, "grad2_elimination", elimination_weights(2), twin="grad2_twin"),
        reranked(elim2, "elim2_elimination", elimination_weights(2), twin="elim2_twin"),
        reranked(elim2, "elim2_w", random_weights(rng, 2, True, equations_of(elim2))),
        reranked(heat2, "heat2_bad", random_weights(rng, 2, False, [])),
    ]
    heat2["data"]["ranking"] = "orderly"
    grad2["data"]["ranking"] = "elimination"
    kinds = {"elim2_elimination": "quotient", "grad2_elimination": "quotient"}
    cmds = [command(p, kinds.get(p["name"], "check")) for p in probs]
    return probs + bases, cmds


WORKLOADS = {"passive": passive, "wide": wide, "obstructed": obstructed, "weighted": weighted}


def build(workload: str, seed: int):
    """The workload's problems (by name) and its command list in seeded order."""
    rng = random.Random(f"{workload}:{seed}")
    probs, cmds = WORKLOADS[workload](rng)
    rng.shuffle(cmds)
    for idx, cmd in enumerate(cmds):
        cmd["id"] = f"{idx:03d}-{cmd['kind']}-{cmd['problem']}"
    return {p["name"]: p for p in probs}, cmds
