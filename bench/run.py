"""The germcalc benchmark.

    python3 bench/run.py --workload corpus|moved|scan --seed N --seconds S --trace 0|1
    python3 bench/run.py --smoke

Run from the root of a checkout.  Every pass of a workload runs in a fresh
process (bench/passrun.py), one after another, single-threaded; times are
CPU seconds of the pass process (see passrun.py).  With --trace 0 the run
makes passes until the next one would take the measured time past S seconds
(at least one pass), and reports the end-to-end metrics named in
BENCHMARK.json.  With --trace 1 it makes one untraced and one traced pass on
the same inputs, requires identical answers, and reports the per-layer
metrics and the tracing overhead.  The line before the result carries the
details: op latency median and tail with its percentile, op counts, failed
ops and the machine.  The last line is the result object.  --smoke runs every workload at
minimal size in both modes and checks that every named metric is emitted.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("corpus", "moved", "scan")

# A run must end within 180 s; children are killed past this budget.
RUN_BUDGET_S = 170
# Set-up is measured in every pass process and in this many extra processes
# that stop after set-up, and reported as the median.
SETUP_SAMPLES = 5
# The tail percentile leaves at least this many ops beyond it.
TAIL_BEYOND = 10


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def check_layout() -> None:
    for rel in ("src/germcalc/__init__.py", "corpus"):
        if not os.path.exists(os.path.join(ROOT, rel)):
            raise BenchError(f"{rel} is missing: run from a germcalc checkout")


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("GERMCALC_")}
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(workload, seed, pass_index, deadline, *flags) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("run budget exhausted")
    cmd = [sys.executable, os.path.join(BENCH_DIR, "passrun.py"), workload,
           str(seed), str(pass_index), *flags]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), text=True,
                              capture_output=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} pass {pass_index} exceeded the budget")
    if proc.returncode != 0:
        raise BenchError(f"{workload} pass {pass_index} exited "
                         f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def latencies(ops) -> list[float]:
    """Op latencies, a failed op counting as slower than any completed op."""
    return [op["latency_s"] if op["error"] is None else float("inf")
            for op in ops]


def tail(ops) -> tuple[float, float, int]:
    """(latency, percentile, ops beyond) at the highest percentile that leaves
    at least TAIL_BEYOND ops beyond it; the slowest op when a pass is
    smaller."""
    lat = sorted(latencies(ops))
    n = len(lat)
    rank = n - TAIL_BEYOND if n > TAIL_BEYOND else n
    return lat[rank - 1], 100.0 * rank / n, n - rank


def end_to_end(passes, setups) -> tuple[dict, dict]:
    """The end-to-end metrics, each timing figure taken per pass and the
    median over the passes reported, and the details printed beside them.

    The latency percentiles go to the details only: on `moved` the ops near
    them last 10-100 ms and run within a few seconds of each other, and the
    host's speed changes moved them by a quarter to a third from run to run.
    """
    ops = [op for p in passes for op in p["ops"]]
    ok = sum(op["error"] is None for op in ops)
    tails = [tail(p["ops"]) for p in passes]
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": statistics.median(
            sum(op["error"] is None for op in p["ops"]) / p["cpu_s"]
            for p in passes),
        "ok_share": ok / len(ops),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    details = {
        "passes": len(passes),
        "ops_per_pass": [len(p["ops"]) for p in passes],
        "pass_cpu_s": [p["cpu_s"] for p in passes],
        "pass_wall_s": [p["wall_s"] for p in passes],
        "op_p50_s": statistics.median(
            statistics.median(latencies(p["ops"])) for p in passes),
        "op_tail_s": statistics.median(t for t, _, _ in tails),
        "op_tail_percentile": tails[0][1],
        "op_tail_beyond": tails[0][2],
        "setup_samples": len(setups),
        "failed_ops": [(op["op"], op["error"]) for op in ops
                       if op["error"] is not None],
    }
    return metrics, details


def measure(workload, seed, seconds, smoke=False) -> tuple[dict, dict, list]:
    deadline = time.monotonic() + RUN_BUDGET_S
    flags = ["--smoke"] if smoke else []
    # the first process may compile bytecode; its set-up time is not kept
    run_child(workload, seed, 0, deadline, "--setup-only", *flags)
    passes = []
    while True:
        passes.append(run_child(workload, seed, len(passes), deadline, *flags))
        measured = sum(p["cpu_s"] for p in passes)
        if measured + measured / len(passes) > seconds:
            break
    setups = [p["setup_s"] for p in passes]
    while len(setups) < SETUP_SAMPLES:
        setups.append(run_child(workload, seed, 0, deadline, "--setup-only",
                                *flags)["setup_s"])
    metrics, details = end_to_end(passes, setups)
    ops = [op for p in passes for op in p["ops"]]
    return metrics, details, ops


def measure_traced(workload, seed, smoke=False) -> tuple[dict, dict, list]:
    deadline = time.monotonic() + RUN_BUDGET_S
    flags = ["--smoke"] if smoke else []
    plain = run_child(workload, seed, 0, deadline, *flags)
    traced = run_child(workload, seed, 0, deadline, "--trace", *flags)
    layers = dict(traced["layers"])
    layers.setdefault("cli.known_failures", 0)
    layers["trace.overhead"] = traced["cpu_s"] / plain["cpu_s"]
    ops = plain["ops"] + traced["ops"]
    mismatched = [a["op"] for a, b in zip(plain["ops"], traced["ops"])
                  if a.get("answer") != b.get("answer")
                  or (a["error"] is None) != (b["error"] is None)]
    for op in traced["ops"]:
        if op["op"] in mismatched and op["error"] is None:
            op["error"] = "traced answer differs from untraced answer"
    details = {
        "untraced_cpu_s": plain["cpu_s"], "traced_cpu_s": traced["cpu_s"],
        "traced_answers_differ": mismatched,
        "failed_ops": [(op["op"], op["error"]) for op in ops
                       if op["error"] is not None],
        "called": {k[:-len(".calls")]: v
                   for k, v in sorted(traced["layers"].items())
                   if k.endswith(".calls") and v},
    }
    return layers, details, ops


def machine() -> dict:
    src = os.path.join(ROOT, "src", "germcalc")
    lines = 0
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), encoding="utf-8") as fh:
                lines += sum(1 for _ in fh)
    uname = os.uname()
    return {"machine": f"{uname.sysname} {uname.release} {uname.machine}",
            "nproc": len(os.sched_getaffinity(0)),
            "python": sys.version.split()[0],
            "src_lines": lines}


def select(values: dict, specs: list) -> dict:
    missing = [s["name"] for s in specs if s["name"] not in values]
    if missing:
        raise BenchError(f"metrics not produced: {missing}")
    return {s["name"]: {"value": values[s["name"]], "unit": s["unit"]}
            for s in specs}


def run(workload, seed, seconds, trace, smoke=False) -> dict:
    spec = load_spec()
    if trace:
        values, details, ops = measure_traced(workload, seed, smoke)
        metrics = select(values, spec["per_layer"])
    else:
        values, details, ops = measure(workload, seed, seconds, smoke)
        metrics = select(values, spec["end_to_end"])
    failed = sum(op["error"] is not None for op in ops)
    details.update(workload=workload, seed=seed, seconds=seconds,
                   trace=trace, **machine())
    print(json.dumps({"details": details}))
    return {"correct": failed == 0, "attempted": len(ops), "failed": failed,
            "metrics": metrics}


def smoke() -> int:
    bad = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            result = run(workload, 1, 0, trace, smoke=True)
            print(json.dumps(result))
            if not result["correct"]:
                bad += 1
                print(f"smoke: {workload} trace={trace} has failed ops",
                      file=sys.stderr)
    print("smoke: " + ("FAIL" if bad else "PASS"))
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    try:
        check_layout()
        if args.smoke:
            return smoke()
        if args.workload is None:
            parser.error("--workload is required")
        result = run(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
