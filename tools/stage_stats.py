"""Print Ray Data per-stage stats for the flagship pipeline.

Usage:  python tools/stage_stats.py [sf_dir]

Runs stage 1 over the synthetic corpus and prints its ``ds.stats()`` —
wall/cpu/memory per operator, the feedback loop used while tuning
(block coalescing, bucket counts, narrow projections; see BASELINE.md
§2) — then stages 2–4 from the checkpoint, which run as raw tasks
(``build_graph._graph_tail``) with no Ray Data operators, so only their
row counts are printed."""

from __future__ import annotations

import os
import shutil
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def main() -> None:
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False,
                 logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    from codetoneo4j_ray.pipelines.build_graph import (
        graph_from_records,
        read_corpus,
    )
    from codetoneo4j_ray.stages.extract import build_type_index, extract_records
    from codetoneo4j_ray.sources.synth import ensure_corpus

    corpus_path = ensure_corpus(sf_dir)
    out = "/tmp/c2n4j_stats"
    shutil.rmtree(out, ignore_errors=True)

    corpus = read_corpus(corpus_path)
    records = extract_records(corpus, build_type_index(corpus))
    records.write_parquet(f"{out}/records", partition_cols=["rec_type"])
    print("=" * 70)
    print("STAGE 1 (extraction → records checkpoint)")
    print(records.stats())

    outputs = graph_from_records(records_dir=f"{out}/records")
    print("=" * 70)
    for name in ("nodes", "edges", "files"):
        print(f"OUTPUT {name}: {outputs[name].count()} rows")
    ray.shutdown()


if __name__ == "__main__":
    main()
