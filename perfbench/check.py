"""Checks of diffalg's outputs against computations made apart from it.

Nothing here calls diffalg or compares with a stored copy of an earlier
output.  Each check recomputes what the method must produce:

- Riccati u_{x_k} = a_k u^p: passive; only u itself is parametric; the slice
  tail of u_alpha is -a^alpha c_k u^{1+k(p-1)}, k = |alpha|,
  c_k = prod_{j<k} (1 + j(p-1)).
- heat u_{x1x1} = sum_k c_k u_{x_k}: the census count at order t is
  #{alpha : |alpha| = t, alpha_1 <= 1}; the slice tail of u_alpha is
  -(sum_k c_k D_k)^{floor(alpha_1/2)} u_{(alpha_1 mod 2, alpha_2, ...)},
  expanded by the multinomial theorem.
- gradient u_{x_k} = d_k phi: the slice tail of u_alpha is -d^alpha phi; with
  one perturbed component the verdict is inconsistent and every pair
  remainder is the cross-derivative difference of the tails.
- two unknowns under elimination: heat on u^1 and u^2_{x_k} = D_k Q; the
  slice tail of u^2_alpha is -NF(D^alpha Q), NF replacing each principal
  u^1 derivative by its heat closed form.
- random systems: every remainder mentions only parametric derivatives (an
  independent dominance test) and equals greatest-first division done here;
  the verdict and exit code follow from the remainders; `reduce` traces
  replay to their remainder; a passive draw's census is a brute-force count
  and its slice tails are normal forms.
- weight rankings: the gate accepts exactly the matrices whose direction
  columns are lexicographically positive; class keys, verdicts, remainders,
  census and slice agree with the built-in ranking a matrix encodes.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import comb

from . import gen, poly as P

EXIT_FOR_VERDICT = {"passive": 0, "not-passive": 2, "inconsistent": 3}
PASSIVE_FAMILIES = ("riccati", "heat", "gradient", "elim", "empty")


class Mismatch(Exception):
    """An output that the method could not have produced."""


def expect(cond, msg):
    if not cond:
        raise Mismatch(msg)


def key_function(spec):
    if spec == "orderly":
        return lambda v: tuple(Fraction(x) for x in gen.orderly_key(v))
    if spec == "elimination":
        return lambda v: tuple(Fraction(x) for x in (v[1], sum(v[2])) + v[2])
    return lambda v: gen.weight_key(spec["weights"], v)


def class_from_json(data):
    return () if data == "base" else tuple(Fraction(x) for x in data)


class System:
    """A problem's equations and ranking, parsed apart from diffalg."""

    def __init__(self, prob):
        data = prob["data"]
        self.prob = prob
        self.n, self.m = data["n"], data["m"]
        self.bound = data["bounds"]["order_bound"]
        self.equations = gen.equations_of(prob)
        self.leads = [lead for lead, _ in self.equations]
        self.key = key_function(data["ranking"])

    def class_of(self, p):
        return max((self.key(v) for v in P.derivs(p)), default=())

    def principal(self, v) -> bool:
        return P.is_principal(v, self.leads)

    def parametric_only(self, p) -> bool:
        return not any(self.principal(v) for v in P.derivs(p))

    def prolonged(self, idx, alpha):
        lead, tail = self.equations[idx]
        return P.total_derivative_multi(P.add({P.mono([(lead, 1)]): Fraction(1)}, tail), alpha)

    def pairs(self):
        """(i, j, shift_i, shift_j, combination) for every pair of leads on
        one unknown: both leads shifted onto their join."""
        out = []
        for i, a in enumerate(self.leads):
            for j in range(i + 1, len(self.leads)):
                b = self.leads[j]
                if a[1] != b[1]:
                    continue
                si = tuple(max(x, y) - x for x, y in zip(a[2], b[2]))
                sj = tuple(max(x, y) - y for x, y in zip(a[2], b[2]))
                out.append((i, j, si, sj, P.sub(self.prolonged(i, si), self.prolonged(j, sj))))
        return out

    def rule(self, v):
        """(equation, shift) that rewrites the principal derivative v: the
        smallest shift by order, then lexicographically, then the first
        equation."""
        return min(
            ((sum(s), s), idx, s)
            for idx, (lead, _) in enumerate(self.equations)
            if lead[1] == v[1] and P.dominates(lead[2], v[2])
            for s in [tuple(b - a for a, b in zip(lead[2], v[2]))]
        )[1:]

    def greatest_principal(self, p):
        principal = [w for w in P.derivs(p) if self.principal(w)]
        return max(principal, key=lambda w: (self.key(w), (w[1], w[2])), default=None)

    def image(self, idx, shift):
        """The prolonged rewrite image of equation idx: -D^shift tail."""
        return P.scale(P.total_derivative_multi(self.equations[idx][1], shift), -1)

    def reduce(self, p, limit=10**5):
        """Greatest-first division by the orbit of the equations."""
        for _ in range(limit):
            v = self.greatest_principal(p)
            if v is None:
                return p
            p = P.substitute(p, {v: self.image(*self.rule(v))})
        raise Mismatch("independent reduction exceeded its step limit")

    def orbit(self):
        return {
            ("u", lead[1], alpha)
            for lead in self.leads
            for alpha in P.up_to_order(self.n, self.bound)
            if P.dominates(lead[2], alpha)
        }


# -- closed forms ------------------------------------------------------------------


def riccati_tail(params, v):
    p, a = params["p"], params["a"]
    k = sum(v[2])
    coeff = Fraction(-1)
    for j in range(k):
        coeff *= 1 + j * (p - 1)
    for ak, e in zip(a, v[2]):
        coeff *= Fraction(ak) ** e
    n = len(v[2])
    return {P.mono([(("u", 1, (0,) * n), 1 + k * (p - 1))]): coeff}


def heat_normal_form(c, v):
    """u^i_alpha modulo u^i_{x1x1} = sum_{k>=2} c_k u^i_{x_k}, by the
    multinomial theorem."""
    i, alpha = v[1], v[2]
    q, r = divmod(alpha[0], 2)
    out: dict = {}
    for beta in P.compositions(len(alpha) - 1, q):
        coeff = Fraction(P.multinomial(beta))
        for ck, e in zip(c, beta):
            coeff *= Fraction(ck) ** e
        target = (r,) + tuple(x + y for x, y in zip(alpha[1:], beta))
        out = P.add(out, P.scale(P.U(i, target), coeff))
    return out


def heat_tail(params, v):
    return P.scale(heat_normal_form(params["c"], v), -1)


def gradient_tail(params, v):
    return P.scale(P.total_derivative_multi(P.from_json(params["phi"]), v[2]), -1)


def elim_tail(params, v):
    if v[1] == 1:
        return heat_tail(params, v)
    dq = P.total_derivative_multi(P.from_json(params["q"]), v[2])
    images = {w: heat_normal_form(params["c"], w) for w in P.derivs(dq) if w[2][0] >= 2}
    return P.scale(P.substitute(dq, images), -1)


CLOSED_TAILS = {"riccati": riccati_tail, "heat": heat_tail, "gradient": gradient_tail, "elim": elim_tail}


def census_counts(family, n, m, t):
    """Parametric derivatives of total order t, by formula."""
    if family == "empty":
        return m * comb(t + n - 1, n - 1)
    heat = comb(t + n - 2, n - 2) + (comb(t + n - 3, n - 2) if t else 0)
    if family == "heat":
        return heat
    if family == "elim":
        return heat + (t == 0)
    return int(t == 0)


# -- report checks -------------------------------------------------------------------


def check_census(sysm, census):
    expect(census["order_bound"] == sysm.bound, "census order bound")
    every = [("u", i, a) for i in range(1, sysm.m + 1) for a in P.up_to_order(sysm.n, sysm.bound)]
    every.sort(key=lambda v: (v[1], v[2]))
    principal = [v for v in every if sysm.principal(v)]
    parametric = [v for v in every if not sysm.principal(v)]
    expect([P.var_from_json(v) for v in census["principal"]] == principal, "census principal list")
    expect([P.var_from_json(v) for v in census["parametric"]] == parametric, "census parametric list")
    counts = {str(t): sum(1 for v in parametric if sum(v[2]) == t) for t in range(sysm.bound + 1)}
    expect(census["counts"] == counts, "census counts")
    expect(census["parametric_total"] == len(parametric), "census total")
    family = sysm.prob["family"]
    if family in PASSIVE_FAMILIES:
        for t in range(sysm.bound + 1):
            expect(counts[str(t)] == census_counts(family, sysm.n, sysm.m, t), f"census count at order {t}")


def check_pairs(sysm, rep):
    """Pair list, shifts, combinations, class bounds and statuses; returns
    (combination, remainder) for each pair."""
    theta = min((sysm.key(lead) for lead in sysm.leads), default=None)
    got_theta = None if rep["theta"] is None else class_from_json(rep["theta"])
    expect(got_theta == theta, "theta")
    expected = sysm.pairs()
    expect(len(rep["pairs"]) == len(expected), "number of pairs")
    remainders = []
    for pair, (i, j, si, sj, comb_) in zip(rep["pairs"], expected):
        expect((pair["i"], pair["j"]) == (i, j), "pair positions")
        expect((tuple(pair["shift_i"]), tuple(pair["shift_j"])) == (si, sj), f"pair ({i}, {j}) shifts")
        expect(P.from_json(pair["combination"]) == comb_, f"pair ({i}, {j}) combination")
        expect(class_from_json(pair["class_bound"]) == sysm.class_of(comb_), f"pair ({i}, {j}) class bound")
        remainder = P.from_json(pair["remainder"])
        expect(sysm.parametric_only(remainder), f"pair ({i}, {j}) remainder has a principal derivative")
        expect(remainder == sysm.reduce(comb_), f"pair ({i}, {j}) remainder differs from greatest-first division")
        if not remainder:
            status = "satisfied"
        elif not P.derivs(remainder):
            status = "inconsistent"
        else:
            status = "obstructed"
        expect(pair["status"] == status, f"pair ({i}, {j}) status")
        remainders.append((comb_, remainder))
    return remainders


def check_slice(sysm, ns, tail_of):
    expect(ns["order_bound"] == sysm.bound, "slice order bound")
    for flag in ("certified", "coherent", "leads_match_orbit", "tails_reduced"):
        expect(ns[flag] is True, f"slice not {flag}")
    gens = {}
    for g in ns["generators"]:
        lead = P.var_from_json(g["lead"])
        expect(lead not in gens, "slice lead listed twice")
        gens[lead] = P.from_json(g["tail"])
    expect(set(gens) == sysm.orbit(), "slice leads differ from the orbit of the leads")
    for lead, tail in gens.items():
        expect(sysm.parametric_only(tail), f"slice tail of {lead} has a principal derivative")
        if tail_of is None:
            idx, shift = sysm.rule(lead)
            normal_form = sysm.reduce(sysm.image(idx, shift))
            expect(tail == P.scale(normal_form, -1), f"slice tail of {lead} is not its normal form")
        else:
            expect(tail == tail_of(lead), f"slice tail of {lead} differs from its closed form")


def check_report(sysm, code, rep):
    """A `check` report: verdict and exit code from the pair remainders;
    census and slice for passive systems."""
    solvable = all(sysm.class_of(tail) < sysm.key(lead) for lead, tail in sysm.equations)
    expect(solvable, "generated system is not conditionally solvable")
    expect(rep["solvable"] == {"ok": True, "violations": []}, "solvability report")
    pairs = check_pairs(sysm, rep)
    if sysm.prob["family"] == "gradient_perturbed":
        # The combination lies in the x's alone, so it is its own remainder.
        for comb_, remainder in pairs:
            expect(remainder == comb_ and not P.derivs(comb_), "perturbed gradient pair remainder")
    remainders = [r for _, r in pairs]
    if any(r and not P.derivs(r) for r in remainders):
        verdict = "inconsistent"
    elif any(remainders):
        verdict = "not-passive"
    else:
        verdict = "passive"
    expect(rep["verdict"] == verdict, f"verdict {rep['verdict']}, remainders say {verdict}")
    expect(code == EXIT_FOR_VERDICT[verdict], f"exit code {code} for verdict {verdict}")
    if verdict != "passive":
        expect(rep["census"] is None and rep["normalized_slice"] is None, "census of a system not passive")
        return verdict
    check_census(sysm, rep["census"])
    closed = CLOSED_TAILS.get(sysm.prob["family"])
    tail_of = None if closed is None else (lambda v: closed(sysm.prob["params"], v))
    check_slice(sysm, rep["normalized_slice"], tail_of)
    return verdict


def check_reduce(sysm, target, code, rep):
    """Replay the trace: each step eliminates the greatest principal
    derivative of the current polynomial by the prolonged equation."""
    expect(code == 0, f"reduce exit code {code}")
    current = target
    for step in rep["trace"]:
        v = P.var_from_json(step["eliminated"])
        expect(v == sysm.greatest_principal(current), f"trace eliminates {v}, not the greatest principal derivative")
        expect((step["eq"], tuple(step["shift"])) == sysm.rule(v), f"trace rewrites {v} by the wrong equation")
        current = P.substitute(current, {v: sysm.image(step["eq"], step["shift"])})
    expect(P.from_json(rep["remainder"]) == current, "remainder differs from the replayed trace")
    expect(sysm.parametric_only(current), "remainder has a principal derivative")


def check_rejected(prob, code, out, err):
    expect(code == 1 and not out, f"incompatible ranking accepted (exit {code})")
    expect("compatibility audit" in err, "rejection names no audit failure")


def same_numbers(a, b):
    """Equal up to class keys, which compare as numbers."""
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(
            same_numbers(a[k], b[k]) if k not in ("theta", "class_bound", "lead_class", "tail_class")
            else (a[k] is None) == (b[k] is None) and (a[k] is None or class_from_json(a[k]) == class_from_json(b[k]))
            for k in a
        )
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(same_numbers(x, y) for x, y in zip(a, b))
    return a == b


class Checker:
    """Checks one workload's outputs.  run_twin(problem, kind) runs the
    built-in twin of a weight-ranked problem and returns (code, out, err)."""

    def __init__(self, problems, run_twin):
        self.problems = problems
        self.run_twin = run_twin
        self.systems = {}
        self.twins = {}

    def system(self, name):
        if name not in self.systems:
            self.systems[name] = System(self.problems[name])
        return self.systems[name]

    def check(self, cmd, code, out: str, err: str):
        """Raise Mismatch unless the output is one the method must give."""
        try:
            self._check(cmd, code, out, err)
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise Mismatch(f"malformed output: {exc!r}") from None

    def _check(self, cmd, code, out, err):
        prob = self.problems[cmd["problem"]]
        if prob.get("compatible") is False:
            expect(not gen.compatible(prob["data"]["ranking"]["weights"]), "generator made a compatible matrix")
            return check_rejected(prob, code, out, err)
        if "compatible" in prob:
            expect(gen.compatible(prob["data"]["ranking"]["weights"]), "generator made an incompatible matrix")
        expect(code != 70, f"command raised:\n{err}")
        try:
            rep = json.loads(out)
        except json.JSONDecodeError as exc:
            raise Mismatch(f"output is not JSON: {exc}") from None
        sysm = self.system(prob["name"])
        if cmd["kind"] == "reduce":
            check_reduce(sysm, cmd["target"], code, rep)
        elif cmd["kind"] == "quotient":
            expect(prob["family"] in PASSIVE_FAMILIES, "quotient of a system not known passive")
            expect(code == 0, f"quotient exit code {code}")
            check_census(sysm, rep)
        else:
            verdict = check_report(sysm, code, rep)
            if prob["family"] in PASSIVE_FAMILIES:
                expect(verdict == "passive", f"passive family reported {verdict}")
            if prob["family"] == "gradient_perturbed":
                expect(verdict == "inconsistent", f"perturbed gradient reported {verdict}")
        if "twin" in prob:
            twin = (prob["twin"], cmd["kind"])
            if twin not in self.twins:
                self.twins[twin] = self.run_twin(*twin)
            t_code, t_out, _ = self.twins[twin]
            expect(t_code == code, f"exit code {code}, built-in twin gives {t_code}")
            expect(same_numbers(rep, json.loads(t_out)), "output differs from the built-in twin's")
