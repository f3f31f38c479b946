"""Per-layer tracing of one diffalg command, from outside the program.

install() wraps the public functions behind the per-layer metrics, both in
the module that defines each one and where passivity, normal, problem or cli
imported it.  It runs in the forked child that executes the command, so an
untraced command never sees a wrapper.

A span is [name, start, end, parent index]; spans stay in memory and the
child hands them to the benchmark when the command ends.  Counters count
calls at the same boundaries.  Enumeration time is the time spent inside
the steps of multiindex.iter_up_to_order, charged to the span open at each
step.
"""

from __future__ import annotations

from time import perf_counter

ROOT = "cli"

COUNTERS = (
    "ranking.key_calls",
    "passivity.pair_count",
    "normal.reduce_calls",
    "normal.reduce_steps",
    "normal.solvable_calls",
    "normal.find_principal_calls",
    "multiindex.indices_yielded",
    "algebra.substitute_calls",
    "algebra.total_derivative_calls",
    "algebra.peak_terms",
)

# span name -> per-layer metric of its time
SPAN_METRICS = {
    "problem.load": "problem.load_ms",
    "ranking.audit": "ranking.audit_ms",
    "passivity.coincident": "passivity.coincident_ms",
    "passivity.pairs": "passivity.pairs_ms",
    "syzygy.operator_apply": "syzygy.operator_apply_ms",
    "normal.slice": "normal.slice_ms",
    "normal.autoreduce": "normal.autoreduce_ms",
    "normal.reduce": "normal.reduce_ms",
    "passivity.census": "passivity.census_ms",
}

ENUM = "multiindex.enum"

METRICS = tuple(SPAN_METRICS.values()) + ("multiindex.enum_ms", "cli.self_ms") + COUNTERS


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.enum_under: dict = {}
        self.counts = dict.fromkeys(COUNTERS, 0)

    # -- wrappers ------------------------------------------------------------------

    def timed(self, name, fn, after=None):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if after is not None:
                after(result)
            return result

        return wrapper

    def counted(self, name, fn, after=None):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            result = fn(*args, **kwargs)
            if after is not None:
                after(result)
            return result

        return wrapper

    def enumerated(self, fn):
        counts, stack, under = self.counts, self.stack, self.enum_under

        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                t0 = perf_counter()
                try:
                    item = next(inner)
                except StopIteration:
                    item = None
                top = stack[-1] if stack else -1
                under[top] = under.get(top, 0.0) + perf_counter() - t0
                if item is None:
                    return
                counts["multiindex.indices_yielded"] += 1
                yield item

        return wrapper

    # -- installation ----------------------------------------------------------------

    def install(self):
        from diffalg import algebra, cli, multiindex, normal, passivity, problem, ranking, syzygy

        counts = self.counts

        def patch(modules, attr, wrapper):
            for mod in modules:
                if hasattr(mod, attr):
                    setattr(mod, attr, wrapper)

        def reduced(result):
            counts["normal.reduce_steps"] += len(result.trace)

        def substituted(result):
            counts["algebra.peak_terms"] = max(counts["algebra.peak_terms"], len(result.terms))

        def counted_pair(result):
            counts["passivity.pair_count"] += 1

        users = (normal, passivity, problem, cli)
        patch(users, "reduce", self.timed(
            "normal.reduce", self.counted("normal.reduce_calls", normal.reduce, reduced)))
        patch(users, "autoreduce", self.timed("normal.autoreduce", normal.autoreduce))
        patch(users, "normalized_slice", self.timed("normal.slice", normal.normalized_slice))
        patch(users, "check_conditionally_solvable",
              self.counted("normal.solvable_calls", normal.check_conditionally_solvable))
        patch(users, "find_principal", self.counted("normal.find_principal_calls", normal.find_principal))
        patch(users, "check_pair", self.timed("passivity.pairs", passivity.check_pair, counted_pair))
        patch(users, "quotient_census", self.timed("passivity.census", passivity.quotient_census))
        patch(users, "coincident_lead_analysis",
              self.timed("passivity.coincident", passivity.coincident_lead_analysis))
        patch((syzygy,) + users, "operator_apply", self.timed("syzygy.operator_apply", syzygy.operator_apply))
        patch(users, "load_problem", self.timed("problem.load", problem.load_problem))
        patch((ranking,) + users, "audit_compatibility",
              self.timed("ranking.audit", ranking.audit_compatibility))
        multiindex.iter_up_to_order = self.enumerated(multiindex.iter_up_to_order)
        ranking.Ranking.key = self.counted("ranking.key_calls", ranking.Ranking.key)
        algebra.DiffPoly.substitute = self.counted(
            "algebra.substitute_calls", algebra.DiffPoly.substitute, substituted)
        algebra.DiffPoly.total_derivative = self.counted(
            "algebra.total_derivative_calls", algebra.DiffPoly.total_derivative)

    def command(self, main, argv):
        return self.timed(ROOT, main)(argv)

    def payload(self):
        return {"spans": self.spans, "enum_under": self.enum_under, "counts": self.counts}


# -- summaries (in the benchmark process) ----------------------------------------------


def summarize(payload):
    """Per-layer metrics of one traced command, and self time by span name.

    A span's time counts toward its metric unless an enclosing span has the
    same name.  Self time is a span's duration less its child spans and the
    enumeration steps taken directly under it."""
    spans, under = payload["spans"], payload["enum_under"]
    metrics = {metric: 0.0 for metric in SPAN_METRICS.values()}
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    self_time = {ENUM: sum(under.values())}
    for idx, (name, start, end, parent) in enumerate(spans):
        own = end - start - child_time[idx] - under.get(idx, 0.0)
        self_time[name] = self_time.get(name, 0.0) + own
        if name in SPAN_METRICS and not _nested_in_same(spans, idx):
            metrics[SPAN_METRICS[name]] += end - start
    metrics = {k: v * 1000 for k, v in metrics.items()}
    metrics["multiindex.enum_ms"] = self_time[ENUM] * 1000
    metrics["cli.self_ms"] = self_time.get(ROOT, 0.0) * 1000
    metrics.update(payload["counts"])
    return metrics, {k: v * 1000 for k, v in self_time.items()}


def _nested_in_same(spans, idx):
    name, parent = spans[idx][0], spans[idx][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False
