"""Benchmark harness.

Runs the headline pipelines over $GRAFT_SF_DIR (default
/root/testdata/sf0.1) at $RAY_GRAFT_CPUS CPUs (default 32) and prints
ONE JSON line:

  {"metric": ..., "value": total_sec, "unit": "sec",
   "queries": {name: sec, ...}, "sf": ..., "num_cpus": N,
   "kg_files": n, "kg_files_per_sec": r, "kg_incremental_...": ...,
   "ray_data_executions": {name: n, ...}}

``ray_data_executions`` counts the Ray Data executions each timed
query runs, in its call and in the ``.count()`` that consumes it.

``kg_incremental`` times ``build_graph_incremental`` over ``kg_build``'s
output after a seeded 1% of the C# files rename one member; it runs
under ``GRAFT_BENCH_ONLY=kg`` too.

``--scaling`` runs the kg_build pipeline in two fresh processes
(num_cpus=8 then 32) on the same pre-generated input and reports both
throughputs + scaling efficiency (the sandbox stand-in for the north
rule's N vs 4N node clusters).
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import time


def run_benchmarks(sf_dir: str, num_cpus: int) -> dict:
    import ray
    import ray.data

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=num_cpus,
            include_dashboard=False,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False

    from codetoneo4j_ray.pipelines import data_ops, multimodal
    from codetoneo4j_ray.pipelines.build_graph import build_graph
    from codetoneo4j_ray.sources.synth import (
        corpus_dir_for_sf,
        ensure_corpus,
        ensure_packages,
    )

    # pre-generate + warm the page cache and the Ray worker pool (untimed):
    # worker-process import costs are identical at every parallelism level
    # and would otherwise swamp the scaling signal at bench scale
    corpus_path = ensure_corpus(sf_dir)
    # package-metadata side table: the gate's kg path passes it
    # (ensure_kg), so the bench flagship must too — without it the
    # url records (dep HAS_URL url) are silently absent
    packages_path = ensure_packages(sf_dir)
    with open(corpus_path, "rb") as f:
        while f.read(1 << 24):
            pass
    import codetoneo4j_ray.extractors  # noqa: F401

    def _warm(batch):
        import codetoneo4j_ray.extractors  # noqa: F401
        return batch

    ray.data.range(num_cpus * 4).map_batches(_warm, batch_size=1).count()

    out_dir = os.path.join(corpus_dir_for_sf(sf_dir), f"bench_out_{num_cpus}")
    shutil.rmtree(out_dir, ignore_errors=True)

    timings: dict[str, float] = {}
    extras: dict = {}

    t0 = time.perf_counter()
    metrics = build_graph(corpus_path, out_dir, resume=False,
                          packages_path=packages_path)
    timings["kg_build"] = round(time.perf_counter() - t0, 3)
    extras["kg_nodes"] = metrics["nodes"]
    extras["kg_edges"] = metrics["edges"]
    extras["kg_files"] = metrics["files"]
    extras["kg_files_per_sec"] = round(metrics["files"] / timings["kg_build"], 1)
    if metrics.get("stage1_sec"):
        timings["kg_stage1"] = metrics["stage1_sec"]

    # incremental rebuild on top of kg_build's output, after a commit
    # that renames one member in 1% of the C# files (the edit is untimed)
    from codetoneo4j_ray.pipelines.incremental import build_graph_incremental

    edited = os.path.join(corpus_dir_for_sf(sf_dir),
                          f"bench_edited_{num_cpus}.parquet")
    extras["kg_incremental_edited_files"] = rename_members(corpus_path, edited)
    incr_dir = f"{out_dir}_incremental"
    shutil.rmtree(incr_dir, ignore_errors=True)
    t0 = time.perf_counter()
    inc = build_graph_incremental(edited, out_dir, incr_dir,
                                  packages_path=packages_path)
    timings["kg_incremental"] = round(time.perf_counter() - t0, 3)
    for k in ("changed_files", "skimmed_files"):
        extras[f"kg_incremental_{k}"] = inc[k]
    extras["kg_incremental_skim_sec"] = inc["stage_sec"]["skim"]

    only_kg = os.environ.get("GRAFT_BENCH_ONLY") == "kg"
    from ray.data._internal.execution.streaming_executor import (
        StreamingExecutor,
    )

    executions = extras["ray_data_executions"] = {}

    def timed(name, fn):
        """Time ``fn(sf_dir).count()`` and count the Ray Data executions
        it runs, in the call and in the count."""
        if only_kg:
            return 0
        real, runs = StreamingExecutor.execute, []

        def counted(self, *args, **kwargs):
            runs.append(1)
            return real(self, *args, **kwargs)

        StreamingExecutor.execute = counted
        try:
            t = time.perf_counter()
            ds = fn(sf_dir)
            n = ds.count()
            timings[name] = round(time.perf_counter() - t, 3)
        finally:
            StreamingExecutor.execute = real
        executions[name] = len(runs)
        return n

    timed("doc_dedup_exact", data_ops.doc_dedup_exact)
    timed("doc_dedup_minhash", data_ops.doc_dedup_minhash)
    timed("dup_clusters", data_ops.dup_clusters)
    timed("doc_simhash", data_ops.doc_simhash)
    timed("doc_ngram_jaccard", data_ops.doc_ngram_jaccard)
    timed("ann_topk", data_ops.ann_topk)
    timed("ann_ivf", data_ops.ann_ivf)
    timed("embedding_near_dup", data_ops.embedding_near_dup)
    timed("text_stats", data_ops.text_stats)
    timed("lang_id", data_ops.lang_id)
    timed("doc_fingerprint", data_ops.doc_fingerprint)
    timed("doc_scrub", data_ops.doc_scrub)
    timed("doc_winnow", data_ops.doc_winnow)
    timed("stratified_sample", data_ops.stratified_sample)
    timed("group_quota", data_ops.group_quota)
    timed("doc_pack", data_ops.doc_pack)
    timed("doc_chunk", data_ops.doc_chunk)
    timed("doc_repetition", data_ops.doc_repetition)
    timed("decontaminate", data_ops.decontaminate)
    timed("events_tumbling", data_ops.events_tumbling)
    timed("events_hopping", data_ops.events_hopping)
    timed("events_sessionize", data_ops.events_sessionize)
    timed("events_asof_join", data_ops.events_asof_join)
    timed("top_orders", data_ops.top_orders)
    timed("top_tokens", data_ops.top_tokens)
    timed("doc_quality", data_ops.doc_quality)
    timed("embedding_kmeans", data_ops.embedding_kmeans)
    timed("embedding_quantize", data_ops.embedding_quantize)
    timed("revenue_by_nation", data_ops.revenue_by_nation)
    timed("pricing_summary", data_ops.pricing_summary)
    timed("media_decode_meta", multimodal.media_decode_meta)
    timed("media_frame_sample", multimodal.media_frame_sample)

    # commit subgraph over the synthetic commits side table
    from codetoneo4j_ray.pipelines.kg_queries import (
        q_kg_authored,
        q_kg_commit_edges,
        q_kg_commits,
    )

    timed("kg_commits", q_kg_commits)
    timed("kg_commit_edges", q_kg_commit_edges)
    timed("kg_authored", q_kg_authored)

    # graph analytics over the final edge table + retrieval index
    from codetoneo4j_ray.pipelines.graph_ops import (
        kg_bfs_depth,
        kg_components,
        kg_pagerank,
        kg_sssp,
        kg_triangles,
    )

    timed("inverted_index", data_ops.inverted_index)
    timed("tfidf_topk", data_ops.tfidf_topk)
    timed("price_quantiles", data_ops.price_quantiles)
    timed("orders_running_total", data_ops.orders_running_total)
    # the five graph ops read the once-per-corpus KG cache's edge table
    # (ensure_kg: a full build_graph run plus the oracle side tables),
    # built lazily by whichever runs first; time that build as its own
    # entry so the per-op numbers don't depend on cache temperature
    # (a cold cache adds the whole build to whichever op runs first).
    # Still inside the suite total.
    if not only_kg:
        from codetoneo4j_ray.pipelines.kg_queries import ensure_kg

        t0 = time.perf_counter()
        ensure_kg(sf_dir)
        timings["kg_edge_cache"] = round(time.perf_counter() - t0, 3)
    timed("kg_pagerank", kg_pagerank)
    timed("kg_triangles", kg_triangles)
    timed("kg_components", kg_components)
    timed("kg_bfs_depth", kg_bfs_depth)
    timed("kg_sssp", kg_sssp)

    total = round(sum(timings.values()), 3)
    return {
        "metric": "kg_build + data-ops wall time",
        "value": total,
        "unit": "sec",
        "queries": timings,
        "sf": sf_dir,
        "num_cpus": num_cpus,
        **extras,
    }


_METHOD_DECL = re.compile(
    r"^\s*(?:public|private|protected|internal)\s[^=;(]*?\b([A-Z]\w*)\(",
    re.M,
)


def rename_members(corpus_path: str, out_path: str, share: float = 0.01,
                   seed: int = 7) -> int:
    """Write a copy of the corpus in which a seeded ``share`` of the C#
    files that declare a method each rename one of them, at its
    declaration and at every call in the file. Returns the files
    edited."""
    import random

    import pyarrow as pa
    import pyarrow.parquet as pq

    table = pq.read_table(corpus_path)
    paths = table["path"].to_pylist()
    content = table["content"].to_pylist()
    csharp = [i for i, p in enumerate(paths)
              if p.endswith(".cs") and _METHOD_DECL.search(content[i])]
    rng = random.Random(seed)
    edited = sorted(rng.sample(csharp, max(1, round(share * len(csharp)))))
    for i in edited:
        name = rng.choice(sorted(
            {m.group(1) for m in _METHOD_DECL.finditer(content[i])}))
        content[i] = re.sub(rf"\b{name}\(", f"{name}Renamed(", content[i])
    table = table.set_column(table.schema.get_field_index("content"),
                             "content", pa.array(content, pa.string()))
    pq.write_table(table, out_path)
    return len(edited)


def _burn(n: int) -> int:
    s = 0
    for i in range(n):
        s += i * i % 7
    return s


def _burn_time(procs: int, work: int = 192, unit: int = 2_000_000) -> float:
    """Wall time of a fixed pure-CPU workload split over ``procs``
    processes — the host-speed probe the ceiling is computed from."""
    import multiprocessing as mp

    t0 = time.perf_counter()
    with mp.Pool(procs) as p:
        p.map(_burn, [unit] * work)
    return time.perf_counter() - t0


def measure_env_ceiling(lo: int = 8, hi: int = 32) -> float:
    """The sandbox's parallel-scaling ceiling: speedup/(hi/lo) of a pure
    CPU-bound multiprocessing workload. Virtualized hosts cap well below
    1.0 (frequency scaling / steal / memory bandwidth); pipeline scaling
    efficiency should be read against this ceiling."""
    return round((_burn_time(lo) / _burn_time(hi)) / (hi / lo), 3)


def run_scaling(sf_dir: str, lo: int = 8, hi: int = 32) -> dict:
    """Same job, two parallelism levels, fresh processes, INTERLEAVED
    lo/hi/lo/hi so a drifting host prices both CPU levels equally
    (VERDICT r4 item 5): with monotone drift, each level's pair
    brackets the other's, and the per-level means cancel the drift to
    first order — no clean host window required.

    Defaults to a 4x corpus (sf0.2-scale) unless GRAFT_SCALING_SF_DIR is
    set: at the default bench scale the synthetic files are tiny and
    Ray's exchange latency dominates; the larger input runs the pipeline
    in the bandwidth-bound regime it is designed for.

    Every phase is still SANDWICHED between two host-speed probes (same
    pure-CPU burn, same proc count as the phase); the ceiling comes
    from per-level probe means, so VM slowdown during one phase lowers
    that phase's probe too instead of mispricing the whole run."""
    sf_dir = os.environ.get("GRAFT_SCALING_SF_DIR", "/root/testdata/sf0.2")
    # pre-generate the corpus once so all runs read identical input
    from codetoneo4j_ray.sources.synth import ensure_corpus

    ensure_corpus(sf_dir)

    def one(ncpu: int) -> tuple[dict, float, float]:
        env = dict(os.environ, RAY_GRAFT_CPUS=str(ncpu), GRAFT_SF_DIR=sf_dir,
                   GRAFT_BENCH_ONLY=os.environ.get("GRAFT_BENCH_ONLY", "kg"))
        probe_before = _burn_time(ncpu)
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__)],
            env=env, capture_output=True, text=True, check=True,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        ).stdout
        probe_after = _burn_time(ncpu)
        burn = (probe_before + probe_after) / 2
        drift = probe_after / probe_before
        return json.loads(out.strip().splitlines()[-1]), burn, drift

    phases: dict[int, list[tuple[dict, float, float]]] = {lo: [], hi: []}
    for ncpu in (lo, hi, lo, hi):
        phases[ncpu].append(one(ncpu))

    def mean(xs):
        return sum(xs) / len(xs)

    t_lo_runs = [r["queries"]["kg_build"] for r, _b, _d in phases[lo]]
    t_hi_runs = [r["queries"]["kg_build"] for r, _b, _d in phases[hi]]
    burn_lo = mean([b for _r, b, _d in phases[lo]])
    burn_hi = mean([b for _r, b, _d in phases[hi]])
    t_lo, t_hi = mean(t_lo_runs), mean(t_hi_runs)
    eff = (t_lo / t_hi) / (hi / lo)
    # phase-paired ceiling: lo-phase host speed over hi-phase host speed
    ceiling = round((burn_lo / burn_hi) / (hi / lo), 3)
    return {
        "metric": "kg_build scaling efficiency",
        "sf": sf_dir,
        "interleave": f"{lo}/{hi}/{lo}/{hi}",
        f"sec_{lo}": round(t_lo, 3),
        f"sec_{hi}": round(t_hi, 3),
        f"sec_{lo}_runs": t_lo_runs,
        f"sec_{hi}_runs": t_hi_runs,
        f"files_per_sec_{lo}": round(mean(
            [r["kg_files_per_sec"] for r, _b, _d in phases[lo]]), 1),
        f"files_per_sec_{hi}": round(mean(
            [r["kg_files_per_sec"] for r, _b, _d in phases[hi]]), 1),
        f"stage1_sec_{lo}": [r["queries"].get("kg_stage1")
                             for r, _b, _d in phases[lo]],
        f"stage1_sec_{hi}": [r["queries"].get("kg_stage1")
                             for r, _b, _d in phases[hi]],
        f"burn_sec_{lo}": round(burn_lo, 3),
        f"burn_sec_{hi}": round(burn_hi, 3),
        f"probe_drift_{lo}": [round(d, 3) for _r, _b, d in phases[lo]],
        f"probe_drift_{hi}": [round(d, 3) for _r, _b, d in phases[hi]],
        "speedup": round(t_lo / t_hi, 3),
        "scaling_efficiency": round(eff, 3),
        "env_parallel_ceiling": ceiling,
        "scaling_efficiency_normalized": round(eff / ceiling, 3) if ceiling else None,
    }


def main() -> None:
    sf_dir = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
    num_cpus = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
    if "--scaling" in sys.argv:
        print(json.dumps(run_scaling(sf_dir)))
        return
    result = run_benchmarks(sf_dir, num_cpus)
    print(json.dumps(result))
    import ray

    ray.shutdown()


if __name__ == "__main__":
    main()
