#!/usr/bin/env python3
"""Layered benchmark of sympjoint with checked results.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {algebra,decide,symbolic,cli} \
        --seed N --seconds S --trace {0,1} [--size {full,tiny}]

One client drives a closed loop: each op starts after the previous one has
returned, in one process (the ``cli`` workload runs one child process at a
time).  The op list of a pass is generated from ``--seed`` alone and passes
repeat until ``--seconds`` is spent.  Every op result is checked against a
ground truth known by construction (see workloads.py).

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates an
untraced and a traced pass and reports the per-layer metrics (see spans.py)
and the tracing overhead.  The next-to-last stdout line is a JSON report
(environment, op mix, failures by name, result checksum, sample counts); the
last line is ``{"correct", "attempted", "failed", "metrics"}``.
``correct`` is true when no op failed other than the ops declared
``known_defect``; ``failed`` counts every failed op, known defects included.
"""

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from itertools import cycle
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
SETUP_SAMPLES = 5
CLI_TIMEOUT_S = 120
CALIBRATION_REF_S = 0.010  # about calibrate() on the machine it was tuned on, see SpeedGauge
CALIBRATE_EVERY_S = 0.25

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "pass_frac": "ratio",
}

ELIM = {"exact.rank", "exact.nullspace", "exact.solve", "exact.inverse", "exact.det", "exact.solve_vector"}
CLI_SUBCOMMANDS = ("invariants", "syzygy_check", "equiv", "dims", "symmetrize", "discretize")
PER_LAYER_UNITS = {
    "exact.rat_ops": "count",
    "exact.self_s": "s",
    "exact.pfaffian_calls": "count",
    "exact.pfaffian_s": "s",
    "exact.elim_calls": "count",
    "exact.elim_s": "s",
    "invariants.self_s": "s",
    "invariants.gram_calls": "count",
    "invariants.gram_per_op": "ratio",
    "poly.self_s": "s",
    "poly.mul_calls": "count",
    "poly.term_pairs": "count",
    "poly.substitute_s": "s",
    "normal_form.self_s": "s",
    "normal_form.genericity_calls": "count",
    "normal_form.genericity_per_op": "ratio",
    "normal_form.witness_s": "s",
    "field_generators.self_s": "s",
    "field_generators.jacobian_s": "s",
    "symmetric.self_s": "s",
    "symmetric.graded_dim_s": "s",
    "symmetric.generator_search_s": "s",
    "symmetric.reynolds_calls": "count",
    "symmetric.samples": "count",
    "symmetric.samples_per_dim": "ratio",
    "variants.self_s": "s",
    "variants.contact_calls": "count",
    "cli.python_ms": "ms",
    "cli.startup_ms": "ms",
    "cli.import_ms": "ms",
    "cli.discretize_import_ms": "ms",
    **{f"cli.{sub}_ms": "ms" for sub in CLI_SUBCOMMANDS},
    "trace.untraced_wall_s": "s",
    "trace.traced_wall_s": "s",
    "trace.overhead_s": "s",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("algebra", "decide", "symbolic", "cli"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    p.add_argument("--setup-only", action="store_true", help="build the inputs, print 'ready' and exit")
    return p.parse_args(argv)


def child_env():
    env = dict(os.environ)
    env["SYMPJOINT_RAT_BACKEND"] = "fraction"
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class CliRunner:
    """Runs ``python -m sympjoint.cli`` in a child process, one at a time.

    With ``importtime`` set, children run under ``-X importtime`` and the
    cumulative import times of the top-level sympjoint modules are kept.
    """

    def __init__(self):
        self.env = child_env()
        self.importtime = False
        self.imports = []  # per child: {module: cumulative microseconds}

    def __call__(self, argv):
        flags = ["-X", "importtime"] if self.importtime else []
        proc = self.python(*flags, "-m", "sympjoint.cli", *argv)
        if self.importtime:
            self.imports.append(parse_importtime(proc.stderr))
        return proc.returncode, proc.stdout, proc.stderr

    def python(self, *argv):
        return subprocess.run(
            [sys.executable, *argv], cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=CLI_TIMEOUT_S,
        )


def parse_importtime(stderr):
    """Top-level ``-X importtime`` entries of the sympjoint package."""
    out = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        _, cumulative, name = line.split("|")
        if name.startswith("  ") or not name.strip().startswith("sympjoint"):
            continue
        out[name.strip()] = int(cumulative)
    return out


# ---------------------------------------------------------------------------
# Running ops


class Outcome:
    def __init__(self):
        self.attempted = 0
        self.failures = Counter()
        self.errors = {}
        self.known = set()
        self.digests = {}  # op name -> digest of its raw result in the first pass

    def add(self, op, raw, summary, error):
        self.attempted += 1
        if op.name not in self.digests:
            text = error if error is not None else op.fingerprint(raw)
            self.digests[op.name] = hashlib.sha256(text.encode()).hexdigest()
        if error is None and summary == op.expect:
            return
        self.failures[op.name] += 1
        if op.known_defect:
            self.known.add(op.name)
        self.errors.setdefault(op.name, error or f"got {summary!r}, expected {op.expect!r}")

    @property
    def failed(self):
        return sum(self.failures.values())

    @property
    def unexpected(self):
        return sorted(set(self.failures) - self.known)

    def checksum(self):
        """Hash of the raw results (not the summaries), so a wrong answer the
        checks let through still changes it."""
        blob = json.dumps(sorted(self.digests.items()))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def run_op(op, tracer=None):
    """Time one op, then check it untimed; return (seconds, raw, summary, error)."""
    if tracer is not None:
        root = tracer.begin_op(op.name)
    t0 = time.perf_counter()
    try:
        raw, error = op.run(), None
    except Exception as exc:  # an unexpected exception is a failed op, not a crashed run
        raw, error = None, f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - t0
    if tracer is not None:
        tracer.end_op(root, t0, t0 + elapsed)
    if error is not None:
        return elapsed, None, None, error
    try:
        return elapsed, raw, op.summarize(raw), None
    except Exception as exc:
        return elapsed, raw, None, f"check raised {type(exc).__name__}: {exc}"


def run_pass(ops, outcome, gauge, tracer=None, after=None):
    """One pass over the op list, checking every result.

    Returns (op, seconds, gauge mark) per op; ``after(op)`` runs after each
    op, outside its timed interval.
    """
    timings = []
    for op in ops:
        mark = gauge.mark()
        elapsed, raw, summary, error = run_op(op, tracer)
        outcome.add(op, raw, summary, error)
        timings.append((op, elapsed, mark))
        gauge.after(elapsed)
        if after is not None:
            after(op)
    gauge.close()
    return timings


def keep_going(start, passes, seconds):
    """Start another pass when at least half of it fits in the time left."""
    elapsed = time.perf_counter() - start
    return elapsed + 0.5 * elapsed / passes < seconds


# ---------------------------------------------------------------------------
# Measurements


class SpeedGauge:
    """Tracks the machine's current speed with a fixed stdlib workload.

    On a shared machine the speed of a CPU flips between a fast and a slow
    state for seconds at a time, and every op slows with it (by 1.2x to 1.5x
    on the machine the benchmark was tuned on).  So the end-to-end times are
    normalized: each interval is multiplied by CALIBRATION_REF_S over the
    median of the four calibration timings taken around it (two before, two
    after).  The calibration is interpreter work on tuples, dicts and small
    ints, like the bookkeeping around the library's arithmetic, and runs no
    code under test, so a change to the library moves the normalized times
    as it moves the raw ones.
    """

    def __init__(self):
        self.samples = [calibrate()]
        self.since = 0.0

    def mark(self):
        """Index of the calibration that precedes the next timed interval."""
        return len(self.samples) - 1

    def after(self, elapsed):
        self.since += elapsed
        if self.since >= CALIBRATE_EVERY_S:
            self.close()

    def close(self):
        self.samples.append(calibrate())
        self.since = 0.0

    def normalized(self, elapsed, mark):
        around = self.samples[max(0, mark - 1) : mark + 3]
        return elapsed * CALIBRATION_REF_S / statistics.median(around)

    def wall(self, timings):
        """Normalized sum of the (op, seconds, mark) intervals of a pass."""
        return sum(self.normalized(elapsed, mark) for _, elapsed, mark in timings)


def calibrate():
    t0 = time.perf_counter()
    table = {}
    for i in range(1, 6000):
        key = tuple(sorted(((i % 7, 1), (i % 5, 2), (i % 3, 1))))
        table[key] = table.get(key, 0) + i * 3 - 1
    return time.perf_counter() - t0


def setup_sample(args):
    """Time from spawning a fresh process to its first possible op."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload, "--seed", str(args.seed),
           "--size", args.size, "--setup-only"]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait()
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up child failed (exit {code})")
    return elapsed


def quantile(samples, q):
    """Exclusive-method quantile, q in (0, 1), as statistics.quantiles gives it."""
    if len(samples) == 1:
        return samples[0]
    cuts = statistics.quantiles(samples, n=100)
    return cuts[round(q * 100) - 1]


def timed_run(args, ops):
    outcome = Outcome()
    gauge = SpeedGauge()
    timings = []  # (op, seconds, gauge mark)
    start = time.perf_counter()
    passes = 0
    while True:
        timings += run_pass(ops, outcome, gauge)
        passes += 1
        if not keep_going(start, passes, args.seconds):
            break
    if args.workload == "cli":
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    setups = []
    for _ in range(SETUP_SAMPLES):
        mark = gauge.mark()
        setups.append((setup_sample(args), mark))
        gauge.close()
    gauge.close()

    def summary(normalize):
        lat = defaultdict(list)
        for op, elapsed, mark in timings:
            lat[op.name].append(normalize(elapsed, mark))
        medians = [statistics.median(lat[op.name]) for op in ops]
        return medians, {
            "setup_s": statistics.median(normalize(t, mark) for t, mark in setups),
            "wall_s": sum(medians),
            "op_p50_ms": 1000 * statistics.median(medians),
            "op_p90_ms": 1000 * quantile(medians, 0.9),
        }

    medians, metrics = summary(gauge.normalized)
    _, raw_metrics = summary(lambda elapsed, mark: elapsed)
    metrics["peak_rss_mb"] = peak_kb / 1024
    metrics["pass_frac"] = 1 - outcome.failed / outcome.attempted
    per_op = f"{len(ops)} op latencies, each the median of {passes} passes"
    extra = {
        "passes": passes,
        "samples": {
            "setup_s": f"median of {len(setups)} fresh processes",
            "wall_s": "sum of " + per_op,
            "op_p50_ms": per_op,
            "op_p90_ms": per_op,
            "op_p90_ms_beyond": len(ops) - int(0.9 * (len(ops) + 1)),
        },
        "calibration": {
            "ref_s": CALIBRATION_REF_S,
            "median_s": statistics.median(gauge.samples),
            "count": len(gauge.samples),
        },
        "unnormalized": raw_metrics,
        "op_median_ms": {op.name: round(1000 * t, 3) for op, t in zip(ops, medians)},
    }
    return metrics, E2E_UNITS, outcome, extra


def traced_run(args, ops, runner):
    """Alternate untraced and traced passes; per-layer metrics from the traced ones."""
    outcome = Outcome()
    gauge = SpeedGauge()
    plain, traced = [], []  # per pass: (op, seconds, gauge mark)
    start = time.perf_counter()
    if args.workload == "cli":
        # A bare interpreter and an `import sympjoint.cli` child, in turn,
        # after each untraced op, timed against the same gauge as the ops.
        codes = {"cli.python_ms": "pass", "cli.startup_ms": "import sympjoint.cli"}
        baselines = {name: [] for name in codes}  # (seconds, gauge mark)
        turn = cycle(codes)

        def after(op):
            name = next(turn)
            mark = gauge.mark()
            t0 = time.perf_counter()
            proc = runner.python("-c", codes[name])
            elapsed = time.perf_counter() - t0
            proc.check_returncode()
            baselines[name].append((elapsed, mark))
            gauge.after(elapsed)

        while True:
            plain.append(run_pass(ops, outcome, gauge, after=after))
            runner.importtime = True
            traced.append(run_pass(ops, outcome, gauge))
            runner.importtime = False
            if not keep_going(start, len(traced), args.seconds):
                break
        metrics = cli_layer_metrics(plain, baselines, runner, gauge)
        extra = {}
    else:
        from spans import Tracer

        tracer = Tracer()
        while True:
            plain.append(run_pass(ops, outcome, gauge))
            tracer.install(HOOKS)
            try:
                traced.append(run_pass(ops, outcome, gauge, tracer=tracer))
            finally:
                tracer.uninstall()
            if not keep_going(start, len(traced), args.seconds):
                break
        metrics, extra = layer_metrics(tracer, len(traced), len(ops))
        OUT.mkdir(parents=True, exist_ok=True)
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.dump(spans_path)
        extra["spans_file"] = str(spans_path.relative_to(ROOT))
    metrics["trace.untraced_wall_s"] = statistics.median(map(gauge.wall, plain))
    metrics["trace.traced_wall_s"] = statistics.median(map(gauge.wall, traced))
    metrics["trace.overhead_s"] = metrics["trace.traced_wall_s"] - metrics["trace.untraced_wall_s"]
    for name in PER_LAYER_UNITS:
        metrics.setdefault(name, 0)
    extra["passes"] = {"untraced": len(plain), "traced": len(traced)}
    return metrics, PER_LAYER_UNITS, outcome, extra


def _mul_hook(counts, args, result):
    other = args[1]
    counts["term_pairs"] += len(args[0].terms) * (len(other.terms) if hasattr(other, "terms") else 1)


def _graded_dim_hook(counts, args, result):
    counts["graded_dim_sum"] += result


HOOKS = {
    "poly.MultiPoly.__mul__": _mul_hook,
    "poly.MultiPoly.__rmul__": _mul_hook,
    "symmetric.graded_dim": _graded_dim_hook,
}


def layer_metrics(tracer, passes, ops_per_pass):
    from spans import CALLS, LAYER, NAME, PARENT, TOTAL

    recs = tracer.records
    selfs = tracer.self_times()
    layer_self = Counter()
    for rec, s in zip(recs, selfs):
        layer_self[rec[LAYER]] += s

    def calls(pred):
        return sum(rec[CALLS] for rec in recs if pred(rec)) / passes

    def inclusive(names):
        return sum(rec[TOTAL] for rec in tracer.outermost(set(names))) / passes

    def named(*names):
        return lambda rec: rec[NAME] in names

    def parent_name(rec):
        return recs[rec[PARENT]][NAME] if rec[PARENT] is not None else None

    samples = calls(lambda r: r[NAME] == "invariants.random_config" and recs[r[PARENT]][LAYER] == "symmetric")
    dim_samples = calls(lambda r: r[NAME] == "invariants.random_config" and parent_name(r) == "symmetric.graded_dim")
    dims = tracer.counts["graded_dim_sum"] / passes
    gram_calls = calls(named("invariants.gram"))
    genericity_calls = calls(named("normal_form.genericity"))
    m = {
        "exact.rat_ops": tracer.counts["rat_ops"] / passes,
        "exact.pfaffian_calls": calls(named("exact.pfaffian")),
        "exact.pfaffian_s": inclusive(["exact.pfaffian"]),
        "exact.elim_calls": sum(rec[CALLS] for rec in tracer.outermost(ELIM)) / passes,
        "exact.elim_s": inclusive(ELIM),
        "invariants.gram_calls": gram_calls,
        "invariants.gram_per_op": gram_calls / ops_per_pass,
        "poly.mul_calls": calls(named("poly.MultiPoly.__mul__", "poly.MultiPoly.__rmul__")),
        "poly.term_pairs": tracer.counts["term_pairs"] / passes,
        "poly.substitute_s": inclusive(["poly.MultiPoly.substitute"]),
        "normal_form.genericity_calls": genericity_calls,
        "normal_form.genericity_per_op": genericity_calls / ops_per_pass,
        "normal_form.witness_s": inclusive(["normal_form.recover_transform"]),
        "field_generators.jacobian_s": inclusive(["field_generators.jacobian_rank", "field_generators.generic_jacobian_rank"]),
        "symmetric.graded_dim_s": inclusive(["symmetric.graded_dim"]),
        "symmetric.generator_search_s": inclusive(["symmetric.generator_search"]),
        "symmetric.reynolds_calls": calls(named("symmetric.reynolds")),
        "symmetric.samples": samples,
        "symmetric.samples_per_dim": dim_samples / dims if dims else 0,
        "variants.contact_calls": calls(lambda r: r[LAYER] == "variants" and r[NAME].split(".")[-1].startswith("contact")),
    }
    for layer in ("exact", "invariants", "poly", "normal_form", "field_generators", "symmetric", "variants"):
        m[f"{layer}.self_s"] = layer_self[layer] / passes
    total = sum(layer_self.values())
    share = {layer: round(s / total, 4) for layer, s in layer_self.most_common()} if total else {}
    return m, {"self_time_share": share}


def cli_layer_metrics(plain, baselines, runner, gauge):
    def median_ms(samples):
        return 1000 * statistics.median(gauge.normalized(*sample) for sample in samples) if samples else 0

    def import_ms(pick):
        vals = [sum(v for k, v in imp.items() if pick(k)) for imp in runner.imports]
        return statistics.median(vals) / 1000 if vals else 0

    by_kind = defaultdict(list)  # per subcommand: (seconds, gauge mark) of the untraced calls
    for timings in plain:
        for op, elapsed, mark in timings:
            if not op.known_defect:
                by_kind[op.kind].append((elapsed, mark))
    m = {name: median_ms(samples) for name, samples in baselines.items()}
    m["cli.import_ms"] = import_ms(lambda k: True)
    m["cli.discretize_import_ms"] = import_ms(lambda k: k == "sympjoint.discretize")
    for sub in CLI_SUBCOMMANDS:
        m[f"cli.{sub}_ms"] = median_ms(by_kind[sub])
    return m


# ---------------------------------------------------------------------------


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "sympjoint" / "__init__.py").is_file():
        print(f"perfbench: no sympjoint sources under {SRC}", file=sys.stderr)
        return 2
    # Ops, calibration and child processes share one CPU, so the calibration
    # sees the speed the ops see.  The workloads are single-threaded.
    nproc = len(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    os.environ["SYMPJOINT_RAT_BACKEND"] = "fraction"
    sys.path.insert(0, str(SRC))
    import sympjoint
    import workloads

    if sympjoint.BACKEND != "fraction":
        print(f"perfbench: backend is {sympjoint.BACKEND}, expected fraction", file=sys.stderr)
        return 2

    runner = CliRunner()
    workdir = OUT / f"work-{os.getpid()}"
    try:
        ops = workloads.build(args.workload, args.seed, args.size, workdir, runner)
        if args.setup_only:
            print("ready", flush=True)
            return 0
        gc.collect()
        gc.freeze()  # the inputs stay out of the collector's scans during timed ops
        if args.trace:
            metrics, units, outcome, extra = traced_run(args, ops, runner)
        else:
            metrics, units, outcome, extra = timed_run(args, ops)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    kinds = Counter(op.kind for op in ops)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "trace": args.trace,
        "seconds": args.seconds,
        "loop": "closed, 1 client",
        "env": {
            "backend": sympjoint.BACKEND,
            "python": platform.python_version(),
            "nproc": nproc,
            "pinned_cpu": min(os.sched_getaffinity(0)),
        },
        "ops_per_pass": len(ops),
        "op_mix": dict(sorted(kinds.items())),
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "fail_frac": outcome.failed / outcome.attempted,
        "failures": {name: {"count": c, "known_defect": name in outcome.known, "detail": outcome.errors[name]}
                     for name, c in sorted(outcome.failures.items())},
        "checksum": outcome.checksum(),
        **extra,
    }
    print(json.dumps({"report": report}, default=str))
    result = {
        "correct": not outcome.unexpected,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
