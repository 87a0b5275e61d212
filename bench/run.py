"""numideal benchmark: time to verdict, verdict correctness and per-stage cost.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of worked, random, degenerate, wide (bench/README.md says what
each holds and why), or `all`, which runs each workload in its own process.
Run it from anywhere in a checkout; it imports the checkout's src/.

The load is a closed loop: one caller submits the next input only after the
previous verdict returns, with no threads, and CLI subprocesses run one at a
time.  Passes over the workload's inputs repeat for S seconds after one
untimed warm-up input.  Every answer is checked against the reference table
of bench/workloads.py.

Human-readable lines come first; the last line of stdout is one JSON object
{correct, attempted, failed, metrics}.  With --trace 0 the metrics are the
end-to-end ones.  With --trace 1 the run spends half its time untraced and
half with boundary wrappers installed, and the metrics are the per-layer ones
of the traced half plus the tracing overhead; the spans are written to
.bench_trace/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".bench_trace"

WORKLOADS = ("worked", "random", "degenerate", "wide")
SETUP_PROBES = 5
CLI_TIMEOUT_S = 120

END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "verdict_p50_ms": "ms",
    "verdict_p90_ms": "ms",
    "right_answer_ratio": "ratio",
    "ok_op_ratio": "ratio",
    "cli_analyze_ms": "ms",
    "cli_member_ms": "ms",
    "peak_rss_mb": "MiB",
}


# Durations are rescaled to a reference machine speed.  On the 2-vCPU
# virtual machines this benchmark was written on, each CPU changes speed by up
# to 2x within a second, independently of the other.  A fixed exact-arithmetic
# kernel, timed every SAMPLE_INTERVAL_S on the benchmark's own CPU, tracks
# that: over a minute of repeated numerator_ideal(degenerate), raw times
# spread 12 % and rescaled ones 2 %.
SAMPLE_INTERVAL_S = 0.05
KERNEL_NOMINAL_S = 0.25e-3


def _kernel():
    acc = Fraction(0)
    for k in range(1, 40):
        acc += Fraction(k, k + 3) * Fraction(2 * k + 1, 7)
    return acc


class SpeedClock:
    """While entered, SIGALRM times the kernel every SAMPLE_INTERVAL_S,
    between the bytecodes of whatever the process is running."""

    def __init__(self):
        self.samples = []
        self.spent = 0.0  # seconds spent sampling, taken out of durations

    def _sample(self, signum=None, frame=None):
        t0 = time.perf_counter()
        best = math.inf
        for _ in range(2):
            k0 = time.perf_counter()
            _kernel()
            best = min(best, time.perf_counter() - k0)
        self.samples.append(best)
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        self._sample()
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def timed(self, fn):
        """fn() and its duration at reference speed: raw seconds scaled by
        the mean kernel time around and while it ran."""
        n0, spent0 = len(self.samples), self.spent
        t0 = time.perf_counter()
        result = fn()
        raw = time.perf_counter() - t0 - (self.spent - spent0)
        return result, raw * self.factor_since(n0)

    def factor_since(self, n0: int) -> float:
        # two samples from just before, so a call shorter than the interval
        # still gets a mean of several
        return KERNEL_NOMINAL_S / statistics.fmean(self.samples[max(0, n0 - 2):])


def _env() -> dict:
    return {**os.environ, "PYTHONPATH": str(SRC)}


def nearest_rank(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


@dataclass
class Tally:
    """Operations and answers of a run, over every pass."""

    attempted: int = 0
    failed: int = 0
    checked: int = 0
    wrong: int = 0
    unexpected: int = 0  # wrong answers not listed in workloads.KNOWN_WRONG
    oracle_checked: int = 0
    oracle_wrong: int = 0
    cli_analyze_s: list = field(default_factory=list)
    cli_member_s: list = field(default_factory=list)
    notes: Counter = field(default_factory=Counter)

    def fail(self, message: str):
        self.failed += 1
        self.notes[f"failed: {message}"] += 1


def _generators_match(expected, got) -> bool:
    for k, gen in enumerate(expected):
        if isinstance(gen, set):
            return set(got[k:]) == gen
        if k >= len(got) or got[k] != gen:
            return False
    return len(got) == len(expected)


class Bench:
    def __init__(self, engine, clock):
        self.engine = engine
        self.clock = clock
        self.tracer = None
        self.cli_import_ms = []

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer is not None else nullcontext()

    # -- one operation, one answer -----------------------------------------

    def _op(self, tally, what, fn, *args, **kwargs):
        tally.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # any error the program raises fails the operation
            tally.fail(f"{what}: {type(exc).__name__}: {exc}")
            return None

    def _judge(self, tally, inp, name, expected, got) -> bool:
        tally.checked += 1
        if name.endswith("generators"):
            right = _generators_match(expected, got)
        else:
            right = got == expected
        if right:
            return True
        tally.wrong += 1
        known = inp.known_wrong.get(name, object()) == got
        tally.unexpected += not known
        shown = "a different list" if name.endswith("generators") else got
        tally.notes[
            f"wrong: {inp.name} {name}: expected {expected}, got {shown}"
            + (" (known)" if known else "")
        ] += 1
        return False

    def _judge_ideal(self, tally, inp, got: dict, printed: bool, prefix="") -> bool:
        expected = {
            "case": inp.case,
            "L_or_K": inp.L_or_K,
            "H": inp.H_text if printed else inp.H,
            "generators": inp.generator_texts if printed else inp.generators,
        }
        right = True
        for name, value in expected.items():
            if value is not None:
                right &= self._judge(tally, inp, prefix + name, value, got[name])
        return right

    @staticmethod
    def _expected_verdict(check) -> str:
        return "InIdeal" if check.in_ideal else "NotInIdeal"

    # -- one input ---------------------------------------------------------

    def run_input(self, inp, tally, with_cli=True):
        """Ideal and membership verdicts, then the oracle and the CLI calls,
        which are not part of the verdict latency.  Returns the latency and
        the time of all of the input's work, both at reference speed, and
        whether every timed answer came back and was right."""
        engine = self.engine
        with self.span("bench.input"):
            verdicts = {}

            def verdict_work():
                desc = self._op(
                    tally, f"{inp.name} numerator_ideal",
                    engine.numerator_ideal, inp.p, order=inp.order,
                )
                for check in inp.checks:
                    if desc is None:
                        tally.attempted += 1
                        tally.fail(f"{inp.name} membership: no ideal")
                        continue
                    v = self._op(
                        tally, f"{inp.name} membership {check.label}",
                        engine.membership, inp.p, check.q, order=inp.order, ideal=desc,
                    )
                    if v is not None:
                        verdicts[check.label] = v.verdict.value
                return desc

            desc, latency = self.clock.timed(verdict_work)
            total = latency

            clean = desc is not None and len(verdicts) == len(inp.checks)
            if desc is not None:
                got = {
                    "case": desc.case.value,
                    "L_or_K": desc.L_or_K,
                    "H": desc.H,
                    "generators": desc.generators,
                }
                clean &= self._judge_ideal(tally, inp, got, printed=False)
            for check in inp.checks:
                v = verdicts.get(check.label)
                if v == "Indeterminate":
                    tally.fail(f"{inp.name} membership {check.label}: Indeterminate")
                    clean = False
                elif v is not None:
                    clean &= self._judge(
                        tally, inp, check.label, self._expected_verdict(check), v
                    )

            if inp.oracle and desc is not None:
                results, secs = self.clock.timed(
                    lambda: [
                        self._op(
                            tally, f"{inp.name} oracle {check.label}",
                            engine.boundedness_oracle, inp.p, check.q, ideal=desc,
                        )
                        for check in inp.checks
                    ]
                )
                total += secs
                for check, res in zip(inp.checks, results):
                    if res is None:
                        continue
                    tally.oracle_checked += 1
                    if res["divergent"] == check.in_ideal:
                        tally.oracle_wrong += 1
                        tally.notes[
                            f"oracle: {inp.name} {check.label}: divergent="
                            f"{res['divergent']} contradicts {self._expected_verdict(check)}"
                        ] += 1

            if with_cli and inp.cli:
                total += self._run_cli_input(inp, tally)
        return latency, total, clean

    def _run_cli_input(self, inp, tally) -> float:
        """`analyze` and `member` through the CLI; returns their time."""
        order = ["--order", str(inp.order), "--format", "json"]
        tally.attempted += 1
        rc, out, err, analyze_s = self.cli(["analyze", inp.text, *order])
        tally.cli_analyze_s.append(analyze_s)
        if rc == 0:
            self._judge_ideal(tally, inp, json.loads(out), printed=True, prefix="cli ")
        else:
            tally.fail(f"{inp.name} cli analyze: exit {rc}: {err.strip()[-200:]}")

        check = inp.checks[-1]
        tally.attempted += 1
        rc, out, err, member_s = self.cli(["member", inp.text, check.text, *order])
        tally.cli_member_s.append(member_s)
        got = {0: "InIdeal", 3: "NotInIdeal"}.get(rc)
        if got is None:
            tally.fail(f"{inp.name} cli member: exit {rc}: {err.strip()[-200:]}")
        else:
            self._judge(
                tally, inp, f"cli {check.label}", self._expected_verdict(check), got
            )
        return analyze_s + member_s

    def cli(self, args):
        """One `numideal` subprocess; returns (exit code, stdout, stderr,
        seconds at reference speed)."""
        if self.tracer is None:
            spans_path = None
            cmd = [sys.executable, "-m", "numideal.cli", *args]
        else:
            TRACE_DIR.mkdir(exist_ok=True)
            spans_path = TRACE_DIR / f"cli-{os.getpid()}.json"
            cmd = [sys.executable, str(BENCH / "cli_traced.py"), str(spans_path), *args]
        with self.span("bench.cli") as idx:
            try:
                proc, secs = self.clock.timed(
                    lambda: subprocess.run(
                        cmd, capture_output=True, text=True, env=_env(), cwd=ROOT,
                        timeout=CLI_TIMEOUT_S,
                    )
                )
            except subprocess.TimeoutExpired:
                return None, "", f"timed out after {CLI_TIMEOUT_S} s", CLI_TIMEOUT_S
            if spans_path is not None and spans_path.exists():
                extra = self.tracer.merge(spans_path, idx)
                self.cli_import_ms.append(extra["import_ms"])
                spans_path.unlink()
        return proc.returncode, proc.stdout, proc.stderr, secs

    # -- passes ------------------------------------------------------------

    def run_pass(self, inputs, tally):
        """Returns the pass time and each input's latency, at reference
        speed, and the pass's raw wall time."""
        latencies, clean = [], []
        secs = 0.0
        t0 = time.perf_counter()
        for inp in inputs:
            lat, total, ok = self.run_input(inp, tally)
            latencies.append(lat)
            clean.append(ok)
            secs += total
        wall = time.perf_counter() - t0
        # an input that failed or answered wrongly ranks slower than every
        # success: it counts as having waited for the whole pass
        return secs, [lat if ok else secs for lat, ok in zip(latencies, clean)], wall

    def measure(self, inputs, seconds: float, tally):
        """Whole passes while the next one is expected to end in time; at
        least one."""
        passes = []
        start = time.perf_counter()
        while True:
            passes.append(self.run_pass(inputs, tally))
            if time.perf_counter() - start + passes[-1][2] > seconds:
                return passes


def measure_setup(clock, workload: str, seed: int) -> float:
    """Median over fresh interpreters of import plus input construction,
    at reference speed."""
    times = []
    for _ in range(SETUP_PROBES):
        n0 = len(clock.samples)
        proc = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), workload, str(seed)],
            capture_output=True, text=True, env=_env(), cwd=ROOT, timeout=120,
            check=True,
        )
        # the probe times itself; scale by the speed seen while it ran
        times.append(float(proc.stdout.split()[-1]) * clock.factor_since(n0))
    return statistics.median(times)


def end_to_end_metrics(passes, tally, setup_s) -> dict:
    checked = tally.checked + tally.oracle_checked
    # each input's median over the passes, then a percentile over inputs
    per_input = [statistics.median(lats) for lats in zip(*(lat for _, lat, _ in passes))]
    return {
        "setup_s": setup_s,
        "pass_s": statistics.median(secs for secs, _, _ in passes),
        "verdict_p50_ms": 1e3 * nearest_rank(per_input, 0.5),
        "verdict_p90_ms": 1e3 * nearest_rank(per_input, 0.9),
        "right_answer_ratio": 1 - (tally.wrong + tally.oracle_wrong) / checked,
        "ok_op_ratio": 1 - tally.failed / tally.attempted,
        "cli_analyze_ms": 1e3 * statistics.median(tally.cli_analyze_s),
        "cli_member_ms": 1e3 * statistics.median(tally.cli_member_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def _coeff_bits(c) -> int:
    return max(
        part.numerator.bit_length() + part.denominator.bit_length()
        for part in (c.re, c.im)
    )


def layer_units() -> dict:
    """Every per-layer metric name and its unit."""
    from tracer import COUNTED, SPANNED

    units = {}
    for name in SPANNED.values():
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_ms"] = "ms"
    for name in COUNTED.values():
        units[f"{name}.calls"] = "count"
    units.update(
        {
            "branch.phi_terms": "count",
            "branch.phi_coeff_bits": "bits",
            "closure.monomialize.ok_ratio": "ratio",
            "cli.import_ms": "ms",
            "trace.spans": "count",
            "trace.overhead_s": "s",
            "trace.overhead_ratio": "ratio",
            "wrong_verdicts": "count",
            "failed_ratio": "ratio",
            "oracle_disagreements": "count",
        }
    )
    return units


def per_layer_metrics(bench, untraced, traced, setup_range, pass_range, counts0, tally):
    """Per traced pass, except construct.*, which is per traced set-up."""
    from tracer import COUNTED, SPANNED, layer_totals

    tracer = bench.tracer
    n = len(traced)
    totals = layer_totals(tracer.spans, *pass_range)
    setup_totals = layer_totals(tracer.spans, *setup_range)
    out = {}
    for name in SPANNED.values():
        t, div = (setup_totals, 1) if name.startswith("construct.") else (totals, n)
        out[f"{name}.calls"] = t[name]["calls"] / div
        out[f"{name}.self_ms"] = 1e3 * t[name]["self_s"] / div
    for name in COUNTED.values():
        out[f"{name}.calls"] = (tracer.counts[name] - counts0[name]) / n
    phis = [sol.phi.poly.terms for sol in tracer.results["branch.solve_branch"]]
    out["branch.phi_terms"] = statistics.fmean(map(len, phis)) if phis else 0.0
    out["branch.phi_coeff_bits"] = (
        statistics.fmean(max(map(_coeff_bits, t.values()), default=0) for t in phis)
        if phis else 0.0
    )
    mono = totals["closure.monomialize"]
    # no attempt, no wasted work
    out["closure.monomialize.ok_ratio"] = mono["ok"] / mono["calls"] if mono["calls"] else 1.0
    out["cli.import_ms"] = statistics.median(bench.cli_import_ms) if bench.cli_import_ms else 0.0
    out["trace.spans"] = (pass_range[1] - pass_range[0]) / n
    plain = statistics.median(secs for secs, _, _ in untraced)
    overhead = statistics.median(secs for secs, _, _ in traced) - plain
    out["trace.overhead_s"] = overhead
    out["trace.overhead_ratio"] = overhead / plain
    all_passes = len(untraced) + n
    out["wrong_verdicts"] = tally.wrong / all_passes
    out["failed_ratio"] = tally.failed / tally.attempted
    out["oracle_disagreements"] = tally.oracle_wrong / all_passes
    return out


def run_workload(args, clock) -> tuple:
    setup_s = None if args.trace else measure_setup(clock, args.workload, args.seed)
    sys.path.insert(0, str(SRC))
    import workloads
    from numideal import engine

    inputs = workloads.build(args.workload, args.seed)
    bench = Bench(engine, clock)
    bench.run_input(inputs[0], Tally(), with_cli=False)  # warm-up, not counted
    tally = Tally()
    if not args.trace:
        passes = bench.measure(inputs, args.seconds, tally)
        metrics = end_to_end_metrics(passes, tally, setup_s)
        return metrics, END_TO_END, passes, tally, bench.clock.samples

    from tracer import Tracer

    untraced = bench.measure(inputs, args.seconds / 2, tally)
    bench.tracer = tracer = Tracer()
    tracer.install()
    lo = len(tracer.spans)
    with tracer.span("bench.setup"):
        inputs = workloads.build(args.workload, args.seed)
    mid = len(tracer.spans)
    counts0 = Counter(tracer.counts)
    tracer.results.clear()
    traced = bench.measure(inputs, args.seconds / 2, tally)
    metrics = per_layer_metrics(
        bench, untraced, traced, (lo, mid), (mid, len(tracer.spans)), counts0, tally
    )
    TRACE_DIR.mkdir(exist_ok=True)
    tracer.dump(
        str(TRACE_DIR / f"{args.workload}-seed{args.seed}.json"),
        workload=args.workload, seed=args.seed,
    )
    return metrics, layer_units(), untraced + traced, tally, bench.clock.samples


def report(args, metrics, units, passes, tally, clock_samples):
    n_inputs = len(passes[0][1])
    print(
        f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
        f"passes {len(passes)}  inputs/pass {n_inputs}  "
        f"verdict samples {n_inputs * len(passes)}"
    )
    for name, value in metrics.items():
        print(f"  {name:40s} {value:14.6g} {units[name]}")
    per_pass = len(passes)
    for name, value, unit in (
        ("wrong_verdicts", tally.wrong / per_pass, "count/pass"),
        ("failed_ratio", tally.failed / tally.attempted, "ratio"),
        ("oracle_disagreements", tally.oracle_wrong / per_pass, "count/pass"),
        ("cli calls", len(tally.cli_analyze_s) + len(tally.cli_member_s), "count"),
    ):
        if name not in metrics:
            print(f"  {name:40s} {value:14.6g} {unit}")
    walls = [wall for _, _, wall in passes]
    print(f"  {'raw wall time per pass':40s} {statistics.median(walls):14.6g} s")
    print(
        f"  {'calibration kernel (median)':40s} "
        f"{1e3 * statistics.median(clock_samples):14.6g} ms"
        f"  (reference {1e3 * KERNEL_NOMINAL_S:g} ms)"
    )
    for note, count in sorted(tally.notes.items()):
        print(f"  {count:3d}x {note}")
    print(
        json.dumps(
            {
                "correct": tally.unexpected == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )


def run_all(args) -> int:
    """Each workload in its own process; prints their lines and one JSON
    line with every metric prefixed by its workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
            ],
            capture_output=True, text=True, cwd=ROOT,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "numideal" / "__init__.py").is_file():
        print(
            f"error: {SRC / 'numideal'} not found; run from a checkout of the repository",
            file=sys.stderr,
        )
        return 2
    if args.workload == "all":
        return run_all(args)
    # the CPUs change speed independently of each other, so the workload,
    # its subprocesses and the speed samples share one CPU
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    with SpeedClock() as clock:
        results = run_workload(args, clock)
    report(args, *results)
    return 0


if __name__ == "__main__":
    sys.exit(main())
