"""Benchmark of diffalg's passivity decision.

    python3 perfbench/run.py --workload passive --seed 1 --seconds 22 --trace 0

Builds the workload's problem files from the seed, then runs diffalg's
`check`, `quotient` and `reduce` commands on them in a closed loop: one
client, one command at a time.  Each command runs in a child forked after
diffalg is imported, so no state carries from one command to the next, as
none carries between a user's separate invocations.  The loop repeats whole
rounds of the seeded command list until the timed commands have taken
--seconds.  Every output is checked afterwards, outside the timed region.

The last line of standard output is one JSON object: correct, attempted,
failed and the metrics (end-to-end with --trace 0, per-layer with --trace 1).
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import io
import json
import marshal
import math
import os
import shutil
import statistics
import struct
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
if __package__ in (None, ""):
    sys.path.insert(0, str(ROOT))

from perfbench import gen, poly, selftest  # noqa: E402
from perfbench.check import Checker, Mismatch  # noqa: E402
from perfbench.trace import METRICS, Tracer, summarize  # noqa: E402

SETUP_REPEATS = 7
CRASH = 70  # exit code of a child whose command raised
FRAME = struct.Struct("<3Q")  # sizes of stdout, stderr and trace payload

# Host speed.  The host's load swings this machine's speed by up to 1.8x
# within minutes, so every time is scaled to a reference speed.  Between
# commands, for CAL_SHARE of the command time, the run times calibration
# slices: a child, forked like a command's, that runs a fixed piece of the
# benchmark's own exact arithmetic.  Each round's times are divided by that
# round's median slice time over CAL_REF_S, the median on a 2-core Xeon
# container at 2.0 GHz with its host quiet.
CAL_SHARE = 0.1
CAL_REF_S = 3.25e-3
CAL_POLY = poly.power(poly.add(poly.U(1, (0, 0)), poly.X(1), poly.const(Fraction(1, 3))), 4)


def calibrate(argv):
    poly.total_derivative_multi(CAL_POLY, (2, 2))
    return 0


class Calibrator:
    """A helper process that times calibration slices on request.  It is
    forked before diffalg is imported, so its size, and with it the cost of
    its forks, does not depend on diffalg: no change to diffalg can move the
    scale."""

    def __init__(self):
        req_r, self.req_w = os.pipe()
        self.res_r, res_w = os.pipe()
        self.pid = os.fork()
        if self.pid == 0:  # the helper never returns
            try:
                os.close(self.req_w)
                os.close(self.res_r)
                while os.read(req_r, 1):
                    os.write(res_w, struct.pack("<d", run_command(calibrate, [])[4]))
            finally:
                os._exit(0)
        os.close(req_r)
        os.close(res_w)

    def slice(self):
        os.write(self.req_w, b"s")
        return struct.unpack("<d", os.read(self.res_r, 8))[0]

    def factor(self, slices):
        """How much slower than the reference the host ran during these slices."""
        return statistics.median(slices) / CAL_REF_S

    def close(self):
        os.close(self.req_w)  # the helper reads end of file and exits
        os.close(self.res_r)
        os.waitpid(self.pid, 0)


def run_command(main, argv, tracer=None):
    """Run one command in a forked child; return (exit code, stdout, stderr,
    trace payload, seconds, peak RSS in KiB).  The time runs from the fork
    to the reaped child and includes reading its output."""
    r, w = os.pipe()
    t0 = perf_counter()
    pid = os.fork()
    if pid == 0:  # the child never returns
        code = CRASH
        try:
            os.close(r)
            out, err = io.StringIO(), io.StringIO()
            sys.stdout, sys.stderr = out, err
            trace = b""
            try:
                if tracer is None:
                    code = main(argv)
                else:
                    tracer.install()
                    code = tracer.command(main, argv)
                    trace = marshal.dumps(tracer.payload())
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else CRASH
            except BaseException:
                err.write(traceback.format_exc())
                code = CRASH
            blobs = [out.getvalue().encode(), err.getvalue().encode(), trace]
            with os.fdopen(w, "wb") as pipe:
                pipe.write(FRAME.pack(*map(len, blobs)) + b"".join(blobs))
        finally:
            os._exit(code)
    os.close(w)
    chunks = []
    while chunk := os.read(r, 1 << 20):
        chunks.append(chunk)
    os.close(r)
    _, status, usage = os.wait4(pid, 0)
    seconds = perf_counter() - t0
    data = b"".join(chunks)
    if len(data) < FRAME.size:  # the child died before writing
        data = FRAME.pack(0, 0, 0)
    n_out, n_err, _ = FRAME.unpack_from(data)
    body = data[FRAME.size:]
    out, err, trace = body[:n_out], body[n_out:n_out + n_err], body[n_out + n_err:]
    return os.waitstatus_to_exitcode(status), out.decode(), err.decode(), trace, seconds, usage.ru_maxrss


def setup(workload, seed, workdir, calibrator):
    """Import diffalg afresh, generate the workload and write its problem
    files.  Returns (seconds at reference speed, cli.main, problems,
    commands)."""
    factor = calibrator.factor([calibrator.slice() for _ in range(9)])
    t0 = perf_counter()
    for name in [m for m in sys.modules if m == "diffalg" or m.startswith("diffalg.")]:
        del sys.modules[name]
    cli = importlib.import_module("diffalg.cli")
    problems, commands = gen.build(workload, seed)
    workdir.mkdir(parents=True, exist_ok=True)
    for prob in problems.values():
        (workdir / f"{prob['name']}.json").write_text(json.dumps(prob["data"]))
    for cmd in commands:
        cmd["argv"] = [cmd["kind"], str(workdir / f"{cmd['problem']}.json")]
        if cmd["target"] is not None:
            cmd["argv"] += ["--target", json.dumps(poly.to_json(cmd["target"]))]
    return (perf_counter() - t0) / factor, cli.main, problems, commands


class Run:
    """One run: the timed loop, the checks and the metrics."""

    def __init__(self, main, commands, outdir, calibrator):
        self.main = main
        self.calibrator = calibrator
        self.commands = commands
        self.outdir = outdir
        self.latency = {cmd["id"]: [] for cmd in commands}  # at reference speed
        self.outputs = {}  # (command id, digest) -> [executions, file of the output]
        self.timed = {False: 0.0, True: 0.0}  # command seconds, untraced and traced
        self.scaled = {False: 0.0, True: 0.0}  # the same at reference speed
        self.calibration = 0.0  # seconds spent in calibration slices
        self.factors = []  # speed factor of each round
        self.peak_kib = 0
        self.traced = []  # (per-layer metrics, self time by span) of each traced command
        self.spans = {}  # command id -> spans of its first traced execution

    def loop(self, seconds, trace):
        """Whole rounds of the command list until the timed commands have
        taken the given seconds.  A traced run alternates untraced and traced
        rounds; the untraced ones give its overhead."""
        while self.timed[False] + self.timed[True] < seconds:
            self.round(False)
            if trace:
                self.round(True)

    def round(self, traced):
        times, slices = [], []
        for cmd in self.commands:
            tracer = Tracer() if traced else None
            code, out, err, trace, seconds, kib = run_command(self.main, cmd["argv"], tracer)
            self.timed[traced] += seconds
            times.append(seconds)
            self.peak_kib = max(self.peak_kib, kib)
            self.record(cmd, code, out, err)
            if traced and trace:
                payload = marshal.loads(trace)
                self.traced.append(summarize(payload))
                self.spans.setdefault(cmd["id"], payload["spans"])
            while not slices or self.calibration < CAL_SHARE * sum(self.timed.values()):
                slices.append(self.calibrator.slice())
                self.calibration += slices[-1]
        factor = self.calibrator.factor(slices)
        self.factors.append(factor)
        self.scaled[traced] += sum(times) / factor
        if not traced:
            for cmd, seconds in zip(self.commands, times):
                self.latency[cmd["id"]].append(seconds / factor)

    def record(self, cmd, code, out, err):
        """Keep each distinct output of a command on disk, for the checks."""
        digest = hashlib.sha256(f"{code}\0{out}\0{err}".encode()).hexdigest()
        entry = self.outputs.get((cmd["id"], digest))
        if entry is None:
            path = self.outdir / f"{cmd['id']}-{len(self.outputs)}.json"
            path.write_text(json.dumps({"code": code, "out": out, "err": err}))
            entry = self.outputs[(cmd["id"], digest)] = [0, path]
        entry[0] += 1

    def check(self, checker):
        """Check each distinct output once.  Returns (attempted, failed,
        messages, accepted outputs for the self-test)."""
        by_id = {cmd["id"]: cmd for cmd in self.commands}
        attempted = failed = 0
        messages, accepted = [], []
        for (cid, _), (count, path) in sorted(self.outputs.items()):
            result = json.loads(path.read_text())
            attempted += count
            try:
                checker.check(by_id[cid], result["code"], result["out"], result["err"])
                accepted.append((by_id[cid], result))
            except Mismatch as exc:
                failed += count
                messages.append(f"{cid}: {exc}")
        return attempted, failed, messages, accepted

    def end_to_end(self, setup_s):
        medians = [statistics.median(v) for v in self.latency.values()]
        count = sum(len(v) for v in self.latency.values())
        return {
            "commands_per_s": (count / self.scaled[False], "1/s"),
            "latency_geomean_ms": (math.exp(statistics.fmean(math.log(m * 1000) for m in medians)), "ms"),
            "peak_rss_mb": (self.peak_kib / 1024, "MB"),
            "setup_s": (setup_s, "s"),
        }

    def per_layer(self):
        traced = max(len(self.traced), 1)
        out = {
            name: (sum(m[name] for m, _ in self.traced) / traced, "ms" if name.endswith("_ms") else "count")
            for name in METRICS
        }
        out["trace.overhead_pct"] = ((self.scaled[True] / self.scaled[False] - 1) * 100, "%")
        return out

    def self_times(self):
        """Mean self time per command, by span name and by layer."""
        by_span: dict = {}
        for _, self_ms in self.traced:
            for name, ms in self_ms.items():
                by_span[name] = by_span.get(name, 0.0) + ms / len(self.traced)
        by_layer: dict = {}
        for name, ms in by_span.items():
            layer = name.split(".")[0]
            by_layer[layer] = by_layer.get(layer, 0.0) + ms
        return by_span, by_layer

    def write_trace(self, path):
        """Spans of each command's first traced execution, with self times."""
        by_span, by_layer = self.self_times()
        spans = [
            {"command": cid, "name": name, "start": start, "end": end, "parent": parent}
            for cid, recs in self.spans.items()
            for name, start, end, parent in recs
        ]
        path.write_text(json.dumps({"self_ms_by_span": by_span, "self_ms_by_layer": by_layer, "spans": spans}))
        for label, table in (("layer", by_layer), ("span", by_span)):
            print(f"self time per command by {label} (ms): " + ", ".join(
                f"{k} {v:.2f}" for k, v in sorted(table.items(), key=lambda kv: -kv[1])), file=sys.stderr)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "diffalg" / "__init__.py").is_file():
        print(f"no diffalg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # One CPU for the benchmark and every child it forks: a command then finds
    # the caches its parent warmed, and the calibration slices time the CPU
    # the commands ran on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    rundir = ROOT / "perfbench" / "_run" / f"{args.workload}-{args.seed}-{os.getpid()}"
    calibrator = Calibrator()
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            seconds, cli_main, problems, commands = setup(args.workload, args.seed, rundir / "problems", calibrator)
            setups.append(seconds)
        (rundir / "outputs").mkdir()
        run = Run(cli_main, commands, rundir / "outputs", calibrator)
        run.loop(args.seconds, args.trace == 1)

        def run_twin(name, kind):
            code, out, err, *_ = run_command(cli_main, [kind, str(rundir / "problems" / f"{name}.json")])
            return code, out, err

        checker = Checker(problems, run_twin)
        attempted, failed, messages, accepted = run.check(checker)
        selftest_errors = selftest.run(checker, accepted)
        for line in messages + selftest_errors:
            print(line, file=sys.stderr)
        if args.trace:
            metrics = run.per_layer()
            run.write_trace(rundir.parent / f"trace-{args.workload}-{args.seed}.json")
        else:
            metrics = run.end_to_end(statistics.median(setups))
            count = sum(len(v) for v in run.latency.values())
            print(f"unscaled commands_per_s {count / run.timed[False]:.4f};"
                  f" host speed factor median {statistics.median(run.factors):.3f}"
                  f" (range {min(run.factors):.3f}-{max(run.factors):.3f})", file=sys.stderr)
    finally:
        calibrator.close()
        shutil.rmtree(rundir, ignore_errors=True)
    result = {
        "correct": failed == 0 and not selftest_errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
