"""Print per-stage stats for the flagship pipeline.

Usage:  python tools/stage_stats.py [sf_dir]

Runs stage 1 over the synthetic corpus as the build does (raw tasks,
no Ray Data operators) and prints its block counts, records size and
the read/skim/extract walls, then stages 2–4 over the same records,
printing only their row counts."""

from __future__ import annotations

import os
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
        StageWalls,
        extract_corpus,
        graph_from_records,
        read_corpus_blocks,
    )
    from codetoneo4j_ray.sources.synth import ensure_corpus

    corpus_path = ensure_corpus(sf_dir)
    walls = StageWalls()
    corpus = read_corpus_blocks(corpus_path)
    walls.lap("read")
    records, _ = extract_corpus(corpus, walls=walls)
    print("=" * 70)
    print("STAGE 1 (read → skim → extraction)")
    print(f"corpus blocks: {len(corpus.refs)}, records blocks: "
          f"{len(records.refs)}, records rows: {records.rows}, "
          f"in-memory bytes: {records.nbytes}")
    print({k: v for k, v in walls.sec.items() if v})

    outputs = graph_from_records(records)
    print("=" * 70)
    for name in ("nodes", "edges", "files"):
        print(f"OUTPUT {name}: {outputs[name].count()} rows")
    ray.shutdown()


if __name__ == "__main__":
    main()
