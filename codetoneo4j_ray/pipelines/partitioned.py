"""Partitioned, resumable extraction (per-partition lineage + metrics).

The corpus is deterministically split into P partitions by
``crc32(repo) % P`` — repos never straddle partitions, so the per-repo
type index stays partition-local and every downstream stage can reuse
the same partitioning key. Each partition extracts independently into

    out_dir/records/part-{i:05d}/   + out_dir/records-part-{i:05d}.manifest.json

with lineage (input fingerprint, row/record counts, wall time) in the
manifest. A re-run skips partitions whose manifest matches — the
recovery unit for a 10^12-file run is one partition, not the job.
(The reference has no intra-run checkpointing; its --diff-base is a
coarse restart-with-filter, SolutionProcessor.cs:82-97.)
"""

from __future__ import annotations

import time
import zlib

import pyarrow as pa
import ray.data

from codetoneo4j_ray.extractors.accessibility import DEFAULT_MIN_ACCESSIBILITY
from codetoneo4j_ray.pipelines.build_graph import read_corpus_pinned
from codetoneo4j_ray.stages.extract import build_type_index, extract_records
from codetoneo4j_ray.state.manifest import (
    corpus_fingerprint,
    read_manifest,
    write_manifest,
)


def repo_partition(repo: str, num_partitions: int) -> int:
    return zlib.crc32(repo.encode("utf-8")) % num_partitions


def extract_partitioned(
    input_path: str,
    out_dir: str,
    num_partitions: int = 8,
    min_accessibility: str = DEFAULT_MIN_ACCESSIBILITY,
    resume: bool = True,
) -> dict:
    """Stage 1 with per-partition checkpoints; returns per-partition metrics."""
    config = {"min_accessibility": min_accessibility, "p": num_partitions, "v": 2}
    fp = corpus_fingerprint(input_path, config)
    records_root = f"{out_dir}/records"
    results: dict[str, dict] = {}

    # purge partition dirs outside the current range: a rerun with a
    # smaller num_partitions would otherwise leave stale part dirs that
    # records_dataset() silently includes, duplicating every record
    import os as _os
    import re as _re
    import shutil as _shutil

    if _os.path.isdir(records_root):
        for name in _os.listdir(records_root):
            m = _re.fullmatch(r"part-(\d{5})", name)
            if m and int(m.group(1)) >= num_partitions:
                _shutil.rmtree(_os.path.join(records_root, name),
                               ignore_errors=True)
                stale = _os.path.join(
                    out_dir, f"records-{name}.manifest.json"
                )
                if _os.path.exists(stale):
                    _os.remove(stale)

    # pinned once, on the first partition that is not skipped: every
    # partition filters the same blocks, and a fully resumed run reads
    # nothing
    corpus = None
    for i in range(num_partitions):
        part = f"part-{i:05d}"
        manifest = read_manifest(out_dir, f"records-{part}")
        if resume and manifest is not None and manifest.get("fingerprint") == fp:
            results[part] = {**manifest["metrics"], "skipped": True}
            continue
        t0 = time.perf_counter()
        if corpus is None:
            corpus = read_corpus_pinned(input_path)

        def in_partition(batch: pa.Table, idx=i) -> pa.Table:
            repos = batch["repo"].to_pylist()
            keep = [repo_partition(r, num_partitions) == idx for r in repos]
            return batch.filter(pa.array(keep, pa.bool_()))

        part_corpus = corpus.map_batches(in_partition, batch_format="pyarrow")
        indices = build_type_index(part_corpus)
        records = extract_records(part_corpus, indices, min_accessibility)
        part_dir = f"{records_root}/{part}"
        import shutil

        shutil.rmtree(part_dir, ignore_errors=True)
        records.write_parquet(part_dir)
        from codetoneo4j_ray.pipelines.build_graph import _parquet_rows

        metrics = {
            "records": _parquet_rows(part_dir),
            "repos": len(indices),
            "wall_sec": round(time.perf_counter() - t0, 3),
        }
        write_manifest(out_dir, f"records-{part}", fp, metrics)
        results[part] = metrics
    return results


def records_dataset(out_dir: str) -> ray.data.Dataset:
    """All completed partitions as one record stream. Block count is
    bounded like build_graph.read_records — Ray's default read
    parallelism otherwise splits the checkpoint into hundreds of tiny
    blocks, one downstream task each (see that docstring)."""
    from codetoneo4j_ray.stages.bucketing import target_blocks

    return ray.data.read_parquet(
        f"{out_dir}/records", override_num_blocks=target_blocks()
    )


def purge_partition(out_dir: str, partition: int) -> None:
    """PurgeData analog (Neo4jService.PurgeData / Cypher/PurgeData.cypher):
    a batch engine purges by deleting the partition's output prefix."""
    import os
    import shutil

    part = f"part-{partition:05d}"
    shutil.rmtree(f"{out_dir}/records/{part}", ignore_errors=True)
    m = f"{out_dir}/records-{part}.manifest.json"
    if os.path.exists(m):
        os.remove(m)
