"""Benchmark for codetoneo4j_ray: full build, incremental rebuild, graph
queries and document dedup.

    python3 perfbench/run.py --workload full_build --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

Run from the repository root. Each invocation is one fresh process with
its own Ray session sized to the host's CPUs. It

1. makes the workload's inputs from ``--seed`` (``perfbench/inputs.py``)
   and repeats that set-up ``setup_repeats`` times;
2. with ``--trace 0``, runs the workload's operation in a closed loop
   (one client, one operation at a time) for ``--seconds`` seconds and
   reports medians; with ``--trace 1``, runs it once untraced and once
   traced, and reports per-layer metrics and the tracing overhead;
3. checks every operation's output against the workload's reference
   outside the timed region;
4. prints host facts, input sizes and each metric with its unit, then,
   as the last line, one JSON object with ``correct``, ``attempted``,
   ``failed`` and ``metrics``.

``--workload all`` runs every workload in its own process and prints
all of their lines.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

from workloads import DEDUP_OPS, GRAPH_OPS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_ROOT = os.path.join(ROOT, ".bench_work")
# Ray's session directory; kept short because AF_UNIX socket paths
# below it are limited to 107 bytes.
RAY_TEMP = os.path.join(ROOT, ".r")
OBJECT_STORE_BYTES = 512 << 20

END_TO_END = (
    ("wall_s", "s"),
    ("files_per_s", "1/s"),
    ("setup_s", "s"),
    ("driver_peak_rss_mb", "MB"),
)

HANDLER_NAMES = (
    "csharp", "razor", "typescript", "javascript", "css", "html", "xaml",
    "xml", "json", "csproj", "dart", "package_json", "pubspec_yaml",
)
LAYER_NAMES = (
    "extractors", "stages.extract", "stages.link", "stages.bucketing",
    "stages.canonicalize", "stages.materialize", "state",
    "pipelines.incremental", "pipelines.graph_ops", "pipelines.data_ops",
    "other",
)
# (name, unit, better). Listed in BENCHMARK.json in this order.
PER_LAYER = (
    *[(f"extractors.{h}.{k}", u, "lower" if k == "parse_s" else "higher")
      for h in HANDLER_NAMES for k, u in (("parse_s", "s"), ("files", "count"))],
    ("extractors.parse_failures", "count", "lower"),
    ("stages.extract.skim_s", "s", "lower"),
    ("stages.extract.extract_s", "s", "lower"),
    *[(f"stages.extract.records_{rt}_rows", "count", "higher")
      for rt in ("symbol", "mention", "file", "url")],
    ("stages.link.mentions_in", "count", "higher"),
    ("stages.link.mentions_resolved", "count", "higher"),
    ("stages.link.resolved_ratio", "ratio", "higher"),
    ("state.records_checkpoint_s", "s", "lower"),
    ("state.records_checkpoint_upstream_s", "s", "lower"),
    ("pipelines.incremental.changed_files", "count", "lower"),
    ("pipelines.incremental.edited_files", "count", "higher"),
    ("pipelines.incremental.useful_reextract_ratio", "ratio", "higher"),
    ("pipelines.incremental.deletion_mismatched_rows", "count", "lower"),
    ("stages.bucketing.edge_distinct_tasks_s", "s", "lower"),
    ("stages.bucketing.edge_distinct_groupby_s", "s", "lower"),
    ("stages.bucketing.bucket_skew", "ratio", "lower"),
    *[(f"pipelines.graph_ops.{op}_s", "s", "lower") for op in GRAPH_OPS],
    *[(f"pipelines.data_ops.{op}_s", "s", "lower") for op in DEDUP_OPS],
    ("pipelines.data_ops.exact_groups", "count", "higher"),
    ("pipelines.data_ops.minhash_pairs", "count", "higher"),
    ("pipelines.data_ops.cluster_docs", "count", "higher"),
    ("pipelines.data_ops.clusters", "count", "higher"),
    ("ray_data.noop_pipeline_s", "s", "lower"),
    *[(f"{layer}.s", "s", "lower") for layer in LAYER_NAMES],
    ("trace.untraced_wall_s", "s", "lower"),
    ("trace.traced_wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

# Which end-to-end metric each per-layer metric should move, and where.
# BENCHMARK.json's schema has no field for this, so it lives here and
# every traced run prints it.
LAYER_MOVES = (
    ("extractors.*", "full_build.wall_s; incremental_rebuild hardly at all"),
    ("stages.extract.skim_s", "full_build.wall_s and incremental_rebuild.wall_s "
     "(the incremental path re-skims the whole corpus)"),
    ("stages.extract.extract_s, stages.extract.records_*", "full_build.wall_s"),
    ("stages.link.*", "full_build.wall_s and incremental_rebuild.wall_s"),
    ("stages.canonicalize.s, stages.materialize.s",
     "full_build.wall_s and incremental_rebuild.wall_s"),
    ("state.records_checkpoint_s", "incremental_rebuild.wall_s (critical "
     "path); not full_build, where the write runs in the background"),
    ("state.records_checkpoint_upstream_s", "incremental_rebuild.wall_s: the "
     "lazy stage-1 plan that the checkpoint write executes"),
    ("pipelines.incremental.*", "incremental_rebuild.wall_s"),
    ("pipelines.incremental.deletion_mismatched_rows", "no wall: rows by "
     "which an incremental rebuild of the commit plus deletions differs from "
     "a full rebuild (a known defect, measured, not gated)"),
    ("stages.bucketing.*", "graph_queries.wall_s; doc_dedup somewhat"),
    ("pipelines.graph_ops.*", "graph_queries.wall_s only"),
    ("pipelines.data_ops.*", "doc_dedup.wall_s only"),
    ("(graph_queries, doc_dedup)", "not timed workloads: measured in the "
     "full_build traced run, over the graph it builds"),
    ("ray_data.noop_pipeline_s", "floor under every per-operation wall"),
    ("<layer>.s", "self time of the layer within the traced operation"),
)

# The workloads BENCHMARK.json lists. graph_queries and doc_dedup run
# inside the full_build traced run (see workloads.py).
WORKLOAD_NAMES = ("full_build", "incremental_rebuild")
# An operation slower than this multiple of the run's median wall is
# reported as stalled (see timed()).
STALL_FACTOR = 2.0


def nproc() -> int:
    """What coreutils' ``nproc`` prints: the CPUs this process may run
    on, capped by ``OMP_NUM_THREADS`` when that is set."""
    n = len(os.sched_getaffinity(0))
    try:
        omp = int(os.environ.get("OMP_NUM_THREADS", "").split(",")[0])
    except ValueError:
        return n
    return min(n, omp) if omp > 0 else n


def start_ray():
    paths = [ROOT, HERE] + [p for p in os.environ.get("PYTHONPATH", "").split(
        os.pathsep) if p]
    # Ray workers import the package and the benchmark modules from here
    os.environ["PYTHONPATH"] = os.pathsep.join(paths)
    sys.path.insert(0, ROOT)
    import ray
    import ray.data

    # "session_<date>_<time>_<usec>_<pid>/sockets/plasma_store" adds ~75
    temp = RAY_TEMP if len(RAY_TEMP) + 75 <= 107 else None
    if temp is None:
        print(f"# checkout path too long for Ray sockets; using Ray's "
              f"default temp dir", file=sys.stderr)
    ray.init(num_cpus=nproc(), object_store_memory=OBJECT_STORE_BYTES,
             include_dashboard=False, logging_level="ERROR",
             log_to_driver=False, _temp_dir=temp)
    ray.data.DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)
    logging.getLogger("ray").setLevel(logging.ERROR)
    return ray


def noop_pipeline_s() -> float:
    """Fixed cost of one tiny Ray Data pipeline: the floor every
    per-operation wall sits on."""
    import ray.data

    walls = []
    for _ in range(3):
        t0 = time.perf_counter()
        ray.data.from_items([{"x": i} for i in range(8)]).map_batches(
            lambda b: b).materialize()
        walls.append(time.perf_counter() - t0)
    return statistics.median(walls)


def host_facts() -> dict:
    import pyarrow
    import ray

    return {"nproc": nproc(), "cpus_visible": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "ray": ray.__version__, "pyarrow": pyarrow.__version__,
            "machine": platform.machine()}


def timed(wl, seconds: float) -> dict:
    walls, captured, op_errors = [], [], 0
    t_start = time.perf_counter()
    while True:
        wl.before_op()
        t0 = time.perf_counter()
        try:
            result = wl.op()
        except Exception:  # noqa: BLE001 — a failed operation is counted
            traceback.print_exc(file=sys.stderr)
            op_errors += 1
            result = None
        walls.append(time.perf_counter() - t0)
        if result is not None:
            captured.append(wl.capture(result))
        if time.perf_counter() - t_start >= seconds:
            break
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failed = op_errors + _check(wl, captured)
    wall = statistics.median(walls)
    return {
        "attempted": len(walls), "failed": failed, "walls": walls,
        # builds in one Ray session now and then stall for 10-20 s; the
        # median absorbs a stall, this count shows it
        "stalled": sum(w > STALL_FACTOR * wall for w in walls),
        "metrics": {"wall_s": wall,
                    "files_per_s": wl.sizes["corpus_files"] / wall,
                    "driver_peak_rss_mb": rss_mb},
    }


def _check(wl, captured: list) -> int:
    try:
        return wl.check(captured)
    except Exception:  # noqa: BLE001 — a check that cannot run fails all
        traceback.print_exc(file=sys.stderr)
        return len(captured)


def traced(wl) -> dict:
    from tracing import Tracer

    wl.before_op()
    t0 = time.perf_counter()
    first = wl.capture(wl.op())
    untraced = time.perf_counter() - t0

    tracer = Tracer()
    tracer.install()
    try:
        wl.before_op()
        with tracer.span(f"{wl.name}.op") as root:
            result = wl.op(tracer)
    finally:
        tracer.uninstall()
    tracer.op_root = root.idx
    second = wl.capture(result)
    failed = _check(wl, [first, second])

    # a layer the workload does not exercise (graph_ops on
    # incremental_rebuild, say) reads 0
    metrics = {name: 0.0 for name, _, _ in PER_LAYER}
    metrics.update(wl.probe(tracer))
    for layer, s in tracer.layer_self_times(tracer.op_root).items():
        metrics[f"{layer}.s"] = s
    spans_path = os.path.join(WORK_ROOT, f"trace-{wl.name}-{wl.seed}.jsonl")
    tracer.dump(spans_path)
    info = {"spans": os.path.relpath(spans_path, ROOT),
            "operators_by_layer": {
                layer: {k: round(v, 4) for k, v in t.items()}
                for layer, t in tracer.operator_totals(tracer.op_root).items()}}
    metrics["ray_data.noop_pipeline_s"] = noop_pipeline_s()
    metrics["trace.untraced_wall_s"] = untraced
    metrics["trace.traced_wall_s"] = root.duration
    metrics["trace.overhead_s"] = root.duration - untraced
    if tracer.errors:
        info["stats_capture_errors"] = tracer.errors
    # a handler added to the package after BENCHMARK.json was written
    # shows here rather than in the JSON, whose names are fixed
    known = {name for name, _, _ in PER_LAYER}
    info["unlisted_metrics"] = {k: v for k, v in metrics.items() if k not in known}
    metrics = {k: v for k, v in metrics.items()
               if k in known and k not in wl.unmeasured}
    return {"attempted": 2 + wl.extra_attempted,
            "failed": failed + wl.extra_failed, "metrics": metrics,
            "trace": info,
            "walls": [untraced, root.duration]}


def run_one(args) -> int:
    from workloads import WORKLOADS, DigestStore, code_version

    work = os.path.join(WORK_ROOT, f"{args.workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    ray = None
    try:
        t0 = time.perf_counter()
        ray = start_ray()
        ray_start_s = time.perf_counter() - t0
        version = code_version(ROOT)
        wl = WORKLOADS[args.workload](work, args.seed,
                                      DigestStore(WORK_ROOT, version))
        setup_walls = []
        for _ in range(wl.setup_repeats):
            t0 = time.perf_counter()
            wl.setup()
            setup_walls.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        wl.warm_up()
        warm_up_s = time.perf_counter() - t0
        if args.trace:
            out = traced(wl)
        else:
            out = timed(wl, args.seconds)
            out["metrics"]["setup_s"] = statistics.median(setup_walls)
        facts = host_facts()
    finally:
        if ray is not None:
            ray.shutdown()
        shutil.rmtree(work, ignore_errors=True)
        shutil.rmtree(RAY_TEMP, ignore_errors=True)

    units = dict((n, u) for n, u in END_TO_END)
    units.update((n, u) for n, u, _ in PER_LAYER)
    print(f"# host: {json.dumps(facts)}")
    print(f"# workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace} code_version={version}")
    print(f"# inputs: {json.dumps(wl.sizes)}; files_per_s counts corpus files")
    print(f"# ray_start_s={ray_start_s:.3f} warm_up_s={warm_up_s:.3f} "
          f"setup_walls={[round(w, 3) for w in setup_walls]}")
    print(f"# op_walls={[round(w, 3) for w in out['walls']]}")
    if "stalled" in out:
        print(f"stalled_ops {out['stalled']} count ({out['stalled']} of "
              f"{out['attempted']} operations took more than "
              f"{STALL_FACTOR:g}x the median wall)")
    print(f"# check: {json.dumps(wl.details)}")
    if wl.unmeasured:
        print(f"# not measured (run failed): {', '.join(wl.unmeasured)}")
    if args.trace:
        print(f"# trace: {json.dumps(out['trace'])}")
        for metric, moves in LAYER_MOVES:
            print(f"# moves: {metric} -> {moves}")
    error_rate = out["failed"] / max(1, out["attempted"])
    print(f"error_rate {error_rate:.4f} ratio "
          f"({out['failed']} of {out['attempted']} operations failed or "
          f"failed their check)")
    for name, value in out["metrics"].items():
        print(f"{name} {value:.6g} {units[name]}")
    result = {
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in out["metrics"].items()},
    }
    print(json.dumps(result), flush=True)
    return 0


def run_all(args) -> int:
    """Every workload in its own fresh process."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT, check=False)
        elapsed = time.perf_counter() - t0
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"# {name}: exit code {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print(f"## {name} (process wall {elapsed:.1f} s)")
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for metric, v in res["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = v
    print(json.dumps(combined), flush=True)
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "codetoneo4j_ray", "__init__.py")):
        print(f"codetoneo4j_ray package not found under {ROOT}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
