#!/usr/bin/env python3
"""End-to-end benchmark of replicated runs and the model checker.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cpu-4k --seed 1 --seconds 20 --trace 0

Builds perfbench/perfbench.exe with dune into .bench_build, then:

  --trace 0  times the workload with tracing off (one `measure` process
             that ran only this workload) and pays set-up in fresh
             `setup` processes; prints every end-to-end metric;
  --trace 1  runs the traced run (`trace` process) and prints every
             per-layer metric.

Human-readable lines come first; the last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.
The exit code is 0 only when every operation passed its checks.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "perfbench.exe")
# Fresh set-up processes per backend, half before and half after the
# measurement so drift in host speed weighs on both; setup_s sums the
# interp and threaded medians.
SETUP_PROCESSES = 10
DEADLINE_S = 170  # every run must end within 180 s


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def load_spec():
    try:
        with open("BENCHMARK.json") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")


def build():
    for path in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(path):
            fail(f"{path} is missing: run from the root of a full checkout")
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
           "./perfbench/perfbench.exe"]
    try:
        r = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if r.returncode != 0 or not os.path.exists(EXE):
        sys.stderr.write(r.stdout)
        fail("build failed")


def child(args, timeout):
    """Run one perfbench.exe process; return (its RESULT object, the
    human-readable lines it printed)."""
    try:
        r = subprocess.run([EXE] + args, stdout=subprocess.PIPE,
                           stderr=subprocess.PIPE, text=True,
                           timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        fail(f"{' '.join(args)}: timed out")
    lines = r.stdout.splitlines()
    results = [l for l in lines if l.startswith("RESULT ")]
    if r.returncode != 0 or not results:
        sys.stderr.write(r.stderr)
        fail(f"{' '.join(args)}: exited {r.returncode} without a result")
    return json.loads(results[-1][len("RESULT "):]), \
        [l for l in lines if not l.startswith("RESULT ")]


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args()
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if a.workload not in names:
        fail(f"unknown workload {a.workload!r} (one of {', '.join(names)})")
    seconds = a.seconds if a.seconds is not None else spec["run_seconds"]
    start = time.monotonic()
    build()
    common = ["--workload", a.workload, "--seed", str(a.seed)]

    def left():
        return DEADLINE_S - (time.monotonic() - start)

    if a.trace:
        res, lines = child(["trace"] + common + ["--seconds", str(seconds)],
                           left())
        metrics = res["metrics"]
        expected = spec["per_layer"]
    else:
        setups = {"interp": [], "threaded": []}

        def set_up(n):
            for _ in range(n):
                for backend in setups:
                    s, _ = child(["setup"] + common + ["--backend", backend],
                                 left())
                    setups[backend].append(s["metrics"]["setup_s"]["value"])

        set_up(SETUP_PROCESSES // 2)
        res, lines = child(["measure"] + common + ["--seconds", str(seconds)],
                           left())
        metrics = res["metrics"]
        set_up(SETUP_PROCESSES - SETUP_PROCESSES // 2)
        # at the nominal host speed the measure process observed
        metrics["setup_s"] = {
            "value": res["scale"] * sum(statistics.median(v)
                                        for v in setups.values()),
            "unit": "s",
        }
        expected = spec["end_to_end"]
    for line in lines:
        print(line)
    missing = [m["name"] for m in expected if m["name"] not in metrics]
    if missing:
        fail(f"metrics missing from the run: {', '.join(missing)}")
    for m in expected:
        if metrics[m["name"]]["unit"] != m["unit"]:
            fail(f"{m['name']}: unit {metrics[m['name']]['unit']!r}, "
                 f"BENCHMARK.json says {m['unit']!r}")
    metrics = {m["name"]: {"value": metrics[m["name"]]["value"],
                           "unit": m["unit"]} for m in expected}
    for name, m in metrics.items():
        print(f"{name:32s} {m['value']:.6g} {m['unit']}")
    failed = res["failed"]
    out = {"correct": failed == 0, "attempted": res["attempted"],
           "failed": failed, "metrics": metrics}
    print(json.dumps(out))
    sys.exit(0 if failed == 0 else 1)


if __name__ == "__main__":
    main()
