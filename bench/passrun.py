"""One pass of one workload in a fresh process.

Usage (started by run.py, from the root of a checkout):
    python3 bench/passrun.py WORKLOAD SEED PASS_INDEX [--trace] [--smoke]
        [--setup-only]

Times are CPU seconds of this process (time.process_time).  The program is
single-threaded and CPU-bound, so on an idle machine they equal wall time;
on a shared host they leave out the time other tenants take from the CPU,
which made wall time vary by a quarter from run to run.  Set-up time is the
CPU time from process start (interpreter start, the germcalc import and input
generation) to the first op.  The ops run one after another; the answers are
checked after the last op, outside the timed region.  The last line of
stdout is one JSON object with the per-op records.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import sys
import time
import traceback

import tracing

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _import_program():
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import germcalc
    if not os.path.abspath(germcalc.__file__).startswith(src + os.sep):
        raise ImportError(f"germcalc imported from {germcalc.__file__}, "
                          f"not from {src}")


def layer_stats(tracer, ops_wall: float) -> dict:
    """The named per-layer figures of one traced pass."""
    out = {}
    for name, st in tracer.stats.items():
        out[f"{name}.calls"] = st.calls
        out[f"{name}.self_s"] = st.self_s
        out[f"{name}.total_s"] = st.total_s
    sb = tracer.stats["stdbasis.standard_basis"]
    distinct = len(tracer.keys.get("stdbasis.standard_basis", ()))
    out["stdbasis.standard_basis.distinct_inputs"] = distinct
    out["stdbasis.standard_basis.repeat_share"] = (
        1 - distinct / sb.calls if sb.calls else 0.0)
    out["stdbasis.standard_basis.cap_hits"] = sb.extra.get("cap_hits", 0)
    nf = tracer.stats["stdbasis.mora_normal_form"]
    out["stdbasis.mora_normal_form.zero_share"] = (
        nf.extra.get("zeros", 0) / nf.calls if nf.calls else 0.0)
    out["modops.matrix_rank.cells"] = (
        tracer.stats["modops.matrix_rank"].extra.get("cells", 0))
    out["invariants.milnor_chain.distinct_inputs"] = len(
        tracer.keys.get("invariants.milnor_chain", ()))
    covered = 0.0
    for module in tracing.MODULES:
        out[f"{module}.self_s"] = tracer.module_self_s(module)
        covered += out[f"{module}.self_s"]
    out["trace.self_coverage"] = covered / ops_wall if ops_wall else 0.0
    return out


def main(argv: list[str]) -> int:
    workload, seed, pass_index = argv[:3]
    flags = set(argv[3:])
    trace, smoke = "--trace" in flags, "--smoke" in flags
    _import_program()
    import workloads
    tracer = None
    if trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    tmp_dir = os.path.join(ROOT, f".bench_tmp-{os.getpid()}")
    os.makedirs(tmp_dir, exist_ok=True)
    try:
        ops = workloads.build(workload, ROOT, tmp_dir, int(seed),
                              int(pass_index), smoke)
        result = {"setup_s": time.process_time()}
        if "--setup-only" not in flags:
            result.update(run_ops(ops, tracer, workloads))
            if tracer is not None and workload == "corpus" and not smoke:
                result["layers"]["cli.known_failures"] = (
                    workloads.probe_known_failures(ROOT, tmp_dir))
        result["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def run_ops(ops, tracer, workloads) -> dict:
    records = []
    answers = []
    if tracer is not None:
        tracer.enabled = True
    start, start_wall = time.process_time(), time.perf_counter()
    for name, run, _ in ops:
        t0 = time.process_time()
        try:
            answer, error = run(), None
        except Exception as exc:  # an op that raises is a failed op
            answer, error = None, f"{type(exc).__name__}: {exc}"
        records.append({"op": name, "latency_s": time.process_time() - t0,
                        "error": error})
        answers.append(answer)
    cpu = time.process_time() - start
    wall = time.perf_counter() - start_wall
    if tracer is not None:
        tracer.enabled = False
    for record, answer, (_, _, check) in zip(records, answers, ops):
        if record["error"] is not None:
            continue
        try:
            check(answer)
        except workloads.CheckFailed as exc:
            record["error"] = f"wrong answer: {exc}"
        except Exception:
            record["error"] = "check raised: " + traceback.format_exc(limit=2)
        record["answer"] = answer
    out = {"cpu_s": cpu, "wall_s": wall, "ops": records}
    if tracer is not None:
        out["layers"] = layer_stats(tracer, wall)
    return out


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
