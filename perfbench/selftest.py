#!/usr/bin/env python3
"""Self-test of the benchmark.  Run from the root of a checkout:

    python3 perfbench/selftest.py

It checks that
  1. a tiny-size run of every workload, untraced and traced, prints exactly
     the metrics BENCHMARK.json names, with their units, and ``correct``;
  2. a deliberately wrong expected value shows up as a failed op, by name,
     lowers ``pass_frac`` and makes ``correct`` false, on every workload;
  3. from a directory holding only BENCHMARK.json and perfbench/, the
     benchmark exits non-zero without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

problems = []


def check(cond, message):
    print(("ok    " if cond else "FAIL  ") + message)
    if not cond:
        problems.append(message)


def bench(cwd, *argv):
    cmd = [sys.executable, "perfbench/run.py", *argv]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def emits_every_metric(spec):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for w in spec["workloads"]:
            proc = bench(ROOT, "--workload", w["name"], "--seed", "3", "--seconds", "1", "--trace", str(trace), "--size", "tiny")
            label = f"{w['name']} --trace {trace}"
            if proc.returncode != 0:
                check(False, f"{label} exited {proc.returncode}: {proc.stderr[-300:]}")
                continue
            lines = proc.stdout.splitlines()
            result = json.loads(lines[-1])
            report = json.loads(lines[-2])["report"]
            check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label}: result keys")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            check(got == want, f"{label}: emits the {len(want)} {key} metrics with their units")
            check(result["correct"] and result["attempted"] >= 1, f"{label}: correct, {result['attempted']} attempted")
            check(report["env"]["backend"] == "fraction", f"{label}: backend fraction recorded")
            known = sorted(n for n, f in report["failures"].items() if f["known_defect"])
            if w["name"] in ("decide", "cli"):
                check(len(known) == 2, f"{label}: the two known defects listed by name: {known}")


def wrong_expectation_fails():
    sys.path.insert(0, str(ROOT / "src"))
    os.environ["SYMPJOINT_RAT_BACKEND"] = "fraction"
    import workloads

    runner = run.CliRunner()
    for name in workloads.WORKLOADS:
        workdir = run.OUT / f"selftest-{os.getpid()}"
        try:
            ops = workloads.build(name, 3, "tiny", workdir, runner)
            victim = next(op for op in ops if not op.known_defect)
            victim.expect = {"deliberately": "wrong"}
            args = run.parse_args(["--workload", name, "--seed", "3", "--seconds", "0.01", "--size", "tiny"])
            metrics, _, outcome, _ = run.timed_run(args, ops)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        check(outcome.unexpected == [victim.name], f"{name}: wrong expectation fails {victim.name} by name")
        frac = metrics["pass_frac"]
        check(frac == 1 - outcome.failed / outcome.attempted < 1, f"{name}: pass_frac falls to {frac:.4f}")


def bare_directory_refuses():
    bare = run.OUT / f"bare-{os.getpid()}"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        (bare / "perfbench").mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for f in HERE.iterdir():
            if f.is_file():
                shutil.copy(f, bare / "perfbench")
        proc = bench(bare, "--workload", "decide", "--seed", "1", "--seconds", "1", "--trace", "0")
        printed_result = any(line.startswith('{"correct"') for line in proc.stdout.splitlines())
        check(proc.returncode != 0 and not printed_result, f"bare directory: exit {proc.returncode}, no result printed")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    emits_every_metric(spec)
    wrong_expectation_fails()
    bare_directory_refuses()
    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
