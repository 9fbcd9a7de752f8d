#!/usr/bin/env python3
"""The repo benchmark: builds the simulator and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload suite --seed 1 --seconds 20 --trace 0

Workloads: suite, pressure, cell, chain (see perfbench/README.md).

--trace 0 measures the untraced program for --seconds and reports the
end-to-end metrics BENCHMARK.json declares. --trace 1 runs the same untraced
measurement, then one traced run (event profile, forwarding observer, touch
listeners, and on `cell` a serial replay), and reports the per-layer metrics.
Every run checks the simulated output; a failed check counts as a failed
operation and the exit status is 1. The last line of stdout is the result:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench)
and is a no-op once the tree is built.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("suite", "pressure", "cell", "chain")
METRIC_NAME = re.compile(r"^[A-Za-z0-9_.-]+$")

# What each workload must (and must not) exercise, checked on every traced
# run: a layer that reads 0 where it should work, or works where it should
# not, means the workload no longer measures what it says it measures.
LAYER_EXPECTATIONS = {
    "os.kswapd_runs": {"pressure"},
    "snapshot.restores_planned": {"cell"},
    "router.migration_barriers": {"cell"},
    "os.touch_calls": {"chain"},
    "faas.events": {"suite", "pressure", "cell"},
}


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def build():
    """Configures and builds the benchmark binary; returns its path."""
    out = build_dir()
    configure = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", out,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(configure, check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", out, "--target", "perfbench", "-j",
                    str(os.cpu_count() or 1)],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(out, "perfbench")


def source_digest():
    """sha256 over the simulator and benchmark sources (the checkout may not
    be a git repository, so this is what identifies the code measured)."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def host_block(binary):
    host = json.loads(subprocess.run([binary, "host"], check=True, capture_output=True,
                                     text=True).stdout)
    commit = "none"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        result = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                capture_output=True, text=True)
        commit = result.stdout.strip() or "none"
    host["commit"] = commit
    host["source_digest"] = source_digest()
    return host


def run_child(binary, workload, seed, seconds, traced):
    cmd = [binary, "run", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    env = dict(os.environ)
    env.pop("DESICCANT_EVENT_PROFILE", None)
    if traced:
        cmd.append("--traced")
        env["DESICCANT_EVENT_PROFILE"] = "1"
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env)
    if proc.stderr:
        log(proc.stderr.rstrip())
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"perfbench run exited {proc.returncode} without output")
    return json.loads(lines[-1])


def check_reps(result):
    """Per-repetition failures: the program's own checks, plus determinism —
    every repetition of one seed must reproduce the first one's outputs."""
    reps = result["reps"]
    first = reps[0]
    failures = []
    for i, rep in enumerate(reps):
        problems = list(rep["failures"])
        for key in ("fingerprint", "completed", "p99_ms", "goodput_rps", "frozen_mib"):
            if rep[key] != first[key]:
                problems.append(f"{key} {rep[key]} differs from repetition 0 ({first[key]})")
        failures.append(problems)
    return failures


def end_to_end(result):
    reps = result["reps"]
    first = reps[0]
    return {
        "wall_s": statistics.median([r["setup_s"] + r["run_s"] for r in reps]),
        "setup_s": statistics.median([r["setup_s"] for r in reps]),
        "cpu_s": statistics.median([r["cpu_s"] for r in reps]),
        "peak_rss_mib": result["peak_rss_mib"],
        "sim_req_per_s": statistics.median([r["completed"] / r["run_s"] for r in reps]),
        "sim_p99_ms": first["p99_ms"],
        "sim_goodput_rps": first["goodput_rps"],
        "sim_frozen_mib": first["frozen_mib"],
    }


def derived_layer_metrics(traced_rep, untraced):
    """Per-layer metrics that compare the traced run with the untraced one.
    The engine speedup divides by the untraced run phase: the event profile's
    shared counters slow the threaded replay, not the serial one."""
    run_s = statistics.median([r["run_s"] for r in untraced["reps"]])
    wall_s = statistics.median([r["setup_s"] + r["run_s"] for r in untraced["reps"]])
    serial_s = traced_rep["layers"].get("engine.serial_s", 0)
    return {
        "bench.trace_overhead": (traced_rep["setup_s"] + traced_rep["run_s"]) / wall_s,
        "engine.speedup": serial_s / run_s if serial_s > 0 else 0.0,
    }


def layer_failures(workload, layers):
    problems = []
    for name, exercised_on in LAYER_EXPECTATIONS.items():
        value = layers.get(name, 0)
        if workload in exercised_on and value <= 0:
            problems.append(f"{name} is 0 but {workload} must exercise it")
        if workload not in exercised_on and value != 0:
            problems.append(f"{name} is {value:g} but only {sorted(exercised_on)} exercise it")
    return problems


def metric_failures(declared, metrics):
    problems = [f"metric name {name!r} is not [A-Za-z0-9_.-]+"
                for name in metrics if not METRIC_NAME.match(name)]
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        problems.append(f"metrics not measured: {', '.join(missing)}")
    return problems


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    binary = build()
    host = host_block(binary)
    print("host: " + json.dumps(host, sort_keys=True))

    untraced = run_child(binary, args.workload, args.seed, args.seconds, traced=False)
    failures = check_reps(untraced)
    e2e = end_to_end(untraced)
    first = untraced["reps"][0]
    print(f"workload {args.workload} seed {args.seed}: {len(untraced['reps'])} repetitions, "
          f"fingerprint {first['fingerprint']}, {first['latency_samples']} latency samples, "
          f"offered {first['offered_rps']:.2f} rps, {first['oom_kills']} OOM kills")

    if args.trace == 0:
        declared = spec["end_to_end"]
        metrics = e2e
    else:
        declared = spec["per_layer"]
        traced = run_child(binary, args.workload, args.seed, args.seconds, traced=True)
        rep = traced["reps"][0]
        problems = list(rep["failures"])
        if rep["fingerprint"] != first["fingerprint"]:
            problems.append(f"traced fingerprint {rep['fingerprint']} differs from the "
                            f"untraced {first['fingerprint']}")
        problems += layer_failures(args.workload, rep["layers"])
        failures.append(problems)
        metrics = dict(rep["layers"])
        metrics.update(derived_layer_metrics(rep, untraced))
        spans_path = os.path.join(build_dir(), "spans",
                                  f"{args.workload}-seed{args.seed}.json")
        os.makedirs(os.path.dirname(spans_path), exist_ok=True)
        with open(spans_path, "w") as f:
            json.dump({"host": host, "spans": rep["spans"]}, f)
        log(f"spans written to {os.path.relpath(spans_path, ROOT)}")

    failures[-1] += metric_failures(declared, metrics)

    for i, problems in enumerate(failures):
        for problem in problems:
            print(f"CHECK FAILED (operation {i}): {problem}")
    units = {m["name"]: m["unit"] for m in declared}
    for m in declared:
        if m["name"] in metrics:
            print(f"  {m['name']:36s} {metrics[m['name']]:>18.6g} {m['unit']}")

    failed = sum(1 for problems in failures if problems)
    result = {
        "correct": failed == 0,
        "attempted": len(failures),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units if name in metrics},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except (subprocess.CalledProcessError, RuntimeError, OSError, ValueError) as error:
        log(f"perfbench: {error}")
        sys.exit(2)
