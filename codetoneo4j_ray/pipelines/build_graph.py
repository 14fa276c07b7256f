"""Flagship pipeline: Parquet corpus → canonical KG triple tables.

    read_parquet (repo,path,commit,lang,content)
      → [1a] type-index skim (C# rows only)            map_batches
      → [1b] extraction                                 task map_batches
            ⇒ records pinned in the object store; records/ parquet
              checkpoint (resumable) written in the background
      → [2a] deferred-INVOKES resolution                broadcast member index
      → [2b] endpoint semi-join                         broadcast key set
      → [3]  node / edge / file dedup                   fused into [4]'s sort
      → [4]  structural edges, sort, write_parquet      nodes/ edges/ files/

Stages 2–4 (``write_graph``, shared with ``build_graph_incremental``)
run one thread per output table over the pinned records.

``resolve_mode`` alone picks how stages 1 and 2 run, from what the Ray
session reports: the broadcast path above on one node with fewer than
32 CPUs while the corpus fits the driver-memory budget; otherwise the
partitioned path, where stage 1 extracts in repo-keyed buckets
(``extract_records_partitioned``) and [2a]+[2b] are one repo-keyed
exchange (``resolve_link_fused``), with no driver-side index.

Every shuffle is metadata-only (keys + record rows); file *content*
never moves past stage 1b. The reference's pipeline equivalence is the
full-index run (``SolutionProcessor.ProcessSolution``, SURVEY §3.1).
"""

from __future__ import annotations

import os

import pyarrow as pa
import ray.data

from codetoneo4j_ray.extractors.accessibility import DEFAULT_MIN_ACCESSIBILITY
from codetoneo4j_ray.stages.extract import build_type_index, extract_records
from codetoneo4j_ray.stages.link import (
    build_member_indices,
    resolve_edges_broadcast,
    resolve_link_fused,
    resolve_mentions,
    symbol_key_set,
)
from codetoneo4j_ray.stages.materialize import (
    finalize_files,
    finalize_nodes,
    structural_edges,
)
from codetoneo4j_ray.state.manifest import (
    corpus_fingerprint,
    stage_is_complete,
    write_manifest,
)

CORPUS_COLUMNS = ["repo", "path", "commit", "lang", "content"]


def read_corpus(
    input_path: str, content_bytes: int | None = None
) -> ray.data.Dataset:
    """The corpus in ``blocks_for(content bytes, cluster_cpus())``
    blocks: every downstream op inherits the count (extraction runs one
    task per block, so each CPU gets one), and Ray's all-to-all
    exchanges degrade quadratically with it. ``content_bytes`` is
    :func:`corpus_content_bytes`, read here from the footers when the
    caller has not already."""
    from codetoneo4j_ray.stages.bucketing import blocks_for, cluster_cpus

    if content_bytes is None:
        content_bytes = corpus_content_bytes(input_path)
    return ray.data.read_parquet(
        input_path, columns=CORPUS_COLUMNS,
        override_num_blocks=blocks_for(content_bytes, cluster_cpus()),
    )


def read_corpus_pinned(
    input_path: str, content_bytes: int | None = None
) -> ray.data.Dataset:
    """:func:`read_corpus`, materialized into the object store when the
    corpus content fits a quarter of the cluster's object-store memory
    (``ray.cluster_resources()``; no Ray session yet → stream). The rest
    of the store holds the pinned records and the exchange blocks.

    Stage 1 reads the corpus twice (pass-A skim + pass-B extraction),
    and a single-parquet-file corpus split into several blocks drips
    through the streaming executor block by block; pinning the blocks
    once makes both passes read local plasma. At 100 TB the corpus is
    many files (parallel read tasks, no drip) and exceeds the budget,
    so it streams."""
    if content_bytes is None:
        content_bytes = corpus_content_bytes(input_path)
    ds = read_corpus(input_path, content_bytes)
    store = (ray.cluster_resources().get("object_store_memory", 0)
             if ray.is_initialized() else 0)
    if content_bytes is not None and content_bytes <= int(store) // 4:
        ds = ds.materialize()
    return ds


def read_parquet_sized(path: str, **kwargs) -> ray.data.Dataset:
    """``read_parquet`` in ``blocks_for`` of the files' footer bytes
    (:func:`parquet_bytes`) blocks. Ray's default read parallelism
    splits a metadata-sized file into a dozen blocks, and every
    downstream map runs one task per block."""
    from codetoneo4j_ray.stages.bucketing import blocks_for

    return ray.data.read_parquet(
        path, override_num_blocks=blocks_for(parquet_bytes(path)), **kwargs
    )


def read_records(records_dir: str, rec_type: str | None = None) -> ray.data.Dataset:
    """Read the (hive-partitioned by rec_type) records checkpoint, sized
    from its footers (:func:`read_parquet_sized`).

    ``rec_type=...`` reads only that partition's files — the row-group
    pruning that lets the files/symbols stages skip the mention bulk.
    A partition dir that was never written (e.g. a corpus producing zero
    mentions) reads as a typed empty dataset, not a crash."""
    if rec_type is None:
        return read_parquet_sized(records_dir)
    part_dir = f"{records_dir}/rec_type={rec_type}"
    if not os.path.isdir(part_dir):
        from codetoneo4j_ray.stages.extract import RECORD_SCHEMA

        # partition-dir reads drop the hive column; match that shape
        empty = pa.schema([f for f in RECORD_SCHEMA if f.name != "rec_type"])
        return ray.data.from_arrow(empty.empty_table())
    return read_parquet_sized(part_dir)


def _structural_input(records_dir, symbols, files):
    """symbol ∪ file ∪ url partitions, re-tagged with the hive column
    (partition-dir reads drop it) — the mention bulk never gets read."""
    import functools
    import os

    def tag(batch: pa.Table, rt: str) -> pa.Table:
        # partition-dir reads usually drop the hive column, but some
        # writers keep it — only add when absent
        if "rec_type" in batch.column_names:
            return batch
        return batch.append_column(
            "rec_type", pa.array([rt] * batch.num_rows, pa.string())
        )

    parts = [
        symbols.map_batches(functools.partial(tag, rt="symbol"),
                            batch_format="pyarrow"),
        files.map_batches(functools.partial(tag, rt="file"),
                          batch_format="pyarrow"),
    ]
    url_dir = f"{records_dir}/rec_type=url"
    if os.path.isdir(url_dir) and any(
        f.endswith(".parquet") for f in os.listdir(url_dir)
    ):
        parts.append(
            read_records(records_dir, "url").map_batches(
                functools.partial(tag, rt="url"), batch_format="pyarrow"
            )
        )
    ds = parts[0]
    for p in parts[1:]:
        ds = ds.union(p)
    return ds


def _record_parts(records, records_dir):
    """(symbols, files, raw_mentions, structural-input) from either a
    hive-partitioned checkpoint dir (partition-pruned reads) or an
    in-memory record stream."""
    if records_dir is not None:
        symbols = read_records(records_dir, "symbol")
        files = read_records(records_dir, "file")
        raw_mentions = read_records(records_dir, "mention")
        # structural edges derive only from symbol/file/url rows — skip
        # the mention partition (the bulk of the checkpoint) entirely
        records = _structural_input(records_dir, symbols, files)
    else:
        symbols = records.filter(expr="rec_type == 'symbol'")
        files = records.filter(expr="rec_type == 'file'")
        raw_mentions = records.filter(expr="rec_type == 'mention'")
        # same mention-skip as the checkpoint path: structural edges
        # never derive from mention rows (structural_edges_batch has no
        # mention branch), so drop the bulk before the Python row scan
        records = records.filter(expr="rec_type != 'mention'")
    return symbols, files, raw_mentions, records


def _symbol_edges(raw_mentions, symbols, mode):
    """Stage-2 resolved + endpoint-checked (subj, pred, obj) edges (lazy).

    On the broadcast path this call does the serial driver work (member
    index + symbol-key set, built concurrently); callers that don't need
    edges should avoid it."""
    if mode == "partitioned":
        # one repo-keyed exchange resolves + endpoint-checks the bulk
        return resolve_link_fused(raw_mentions, symbols)
    # the two driver-side broadcast structures read disjoint record
    # partitions (mention vs symbol) — build them concurrently so the
    # serial plan-build latency is max(t_members, t_keys), not the sum
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=2) as pool:
        fut_members = pool.submit(build_member_indices, raw_mentions)
        fut_keys = pool.submit(symbol_key_set, symbols)
        member_indices = fut_members.result()
        symbol_keys = fut_keys.result()
    return resolve_edges_broadcast(
        resolve_mentions(raw_mentions, member_indices), symbol_keys
    )


def _edges_output(raw_mentions, symbols, records, mode, no_key, num_blocks):
    from codetoneo4j_ray.stages.canonicalize import distinct_sorted

    # dedup/distinct fused into the output's range-partitioned sort: ONE
    # exchange (see canonicalize.lww_sorted for the exactness argument)
    return distinct_sorted(
        _symbol_edges(raw_mentions, symbols, mode).union(
            structural_edges(records, include_project=not no_key)
        ),
        num_blocks,
    )


def _nodes_output(symbols, num_blocks):
    from codetoneo4j_ray.stages.canonicalize import _TIEBREAK, lww_sorted

    # finalize (truncate-8000 + projection) runs BEFORE the node shuffle
    # so untruncated doc strings never move
    return lww_sorted(finalize_nodes(symbols), "key", _TIEBREAK, num_blocks)


def _files_output(files, num_blocks):
    from codetoneo4j_ray.stages.canonicalize import _FILE_TIEBREAK, lww_sorted

    return lww_sorted(finalize_files(files), "key", _FILE_TIEBREAK, num_blocks)


def _output_blocks(records, records_dir) -> int:
    """Block count of the three output sorts: ``blocks_for`` the pinned
    records' bytes (block metadata), or the checkpoint's footer bytes
    when stages 2–4 read it instead."""
    from codetoneo4j_ray.stages.bucketing import blocks_for

    if records is not None:
        return blocks_for(records.size_bytes())
    return blocks_for(parquet_bytes(records_dir))


# The broadcast path assembles the type index, the member index and the
# symbol-key set on the driver; together they grew driver RSS by 1.5-1.6
# bytes per byte of corpus content on sf0.1 (39 MB) and 2.7 on sf0.01
# (0.4 MB). Rounded up to the larger.
_DRIVER_BYTES_PER_CONTENT_BYTE = 3
# On one node the partitioned path has been measured faster at 32 CPUs
# (sf0.1 and the 10x corpus) and slower at 1 and 4 CPUs (the benchmark
# corpus, sf0.01, sf0.1); README has the walls. Counts in between are
# unmeasured.
_PARTITIONED_MIN_CPUS = 32


def _footers(path: str) -> list:
    """Parquet footers (``FileMetaData``) of ``path`` or of every
    ``.parquet`` file below it."""
    import pyarrow.parquet as pq

    paths = []
    if os.path.isdir(path):
        for root, _dirs, files in os.walk(path):
            paths += [os.path.join(root, f) for f in files
                      if f.endswith(".parquet")]
    else:
        paths = [path]
    return [pq.ParquetFile(p).metadata for p in paths]


def parquet_bytes(path: str) -> int:
    """Uncompressed bytes of every row group under ``path``, from the
    footers only (no data read)."""
    return sum(md.row_group(rg).total_byte_size
               for md in _footers(path) for rg in range(md.num_row_groups))


def corpus_content_bytes(input_path: str) -> int | None:
    """Uncompressed byte size of the corpus ``content`` column, from
    parquet footers only (no data read). None when the estimate can't
    be made (missing column / non-parquet input)."""
    total = 0
    seen = False
    try:
        for md in _footers(input_path):
            names = {md.schema.column(i).name: i
                     for i in range(md.num_columns)}
            if "content" not in names:
                continue
            ci = names["content"]
            for rg in range(md.num_row_groups):
                total += md.row_group(rg).column(ci).total_uncompressed_size
                seen = True
    except Exception:  # noqa: BLE001 — estimator must never break a build
        return None
    return total if seen else None


def resolve_mode(corpus_bytes: int | None = None) -> str:
    """The one place that picks the stage-1/2 path, from what the Ray
    session reports: "partitioned" when more than one alive node is
    attached (the broadcast path's driver-side structures must never be
    built on a real cluster), when the session has at least
    ``_PARTITIONED_MIN_CPUS`` CPUs (where partitioned was measured
    faster), or when the broadcast path's driver structures, estimated
    from ``corpus_bytes``, would pass a quarter of the memory Ray
    reports (a single node on a huge corpus must not assemble a
    corpus-scale index on the driver either); "broadcast" otherwise,
    and with no Ray session. Both paths write byte-identical outputs."""
    try:
        alive = sum(1 for n in ray.nodes() if n.get("Alive"))
        resources = ray.cluster_resources()
    except Exception:  # noqa: BLE001 — no Ray session yet
        return "broadcast"
    if alive > 1 or resources.get("CPU", 0) >= _PARTITIONED_MIN_CPUS:
        return "partitioned"
    driver_bytes = (corpus_bytes or 0) * _DRIVER_BYTES_PER_CONTENT_BYTE
    if driver_bytes > resources.get("memory", 0) / 4:
        return "partitioned"
    return "broadcast"


def graph_from_records(
    records: ray.data.Dataset | None = None,
    records_dir: str | None = None,
    no_key: bool = False,
    corpus_bytes: int | None = None,
) -> dict[str, ray.data.Dataset]:
    """Stages 2–4 from a (re-readable) record stream.

    Pass ``records_dir`` (hive-partitioned checkpoint) for partition-
    pruned reads, or an in-memory/materialized ``records`` dataset.
    Stage 2 runs on the path ``resolve_mode(corpus_bytes)`` picks.
    Returns lazy datasets: nodes, edges, files.
    """
    mode = resolve_mode(corpus_bytes)
    if records is not None:
        records = records.materialize()
    nb = _output_blocks(records, records_dir)
    symbols, files, raw_mentions, records = _record_parts(records, records_dir)
    return {
        "nodes": _nodes_output(symbols, nb),
        "edges": _edges_output(raw_mentions, symbols, records, mode, no_key,
                               nb),
        "files": _files_output(files, nb),
    }


def build_graph(
    input_path: str,
    out_dir: str,
    min_accessibility: str = DEFAULT_MIN_ACCESSIBILITY,
    resume: bool = True,
    packages_path: str | None = None,
    no_key: bool = False,
    batch_size: int = 64,
) -> dict:
    """Full run with a records checkpoint; returns metrics."""
    content_bytes = corpus_content_bytes(input_path)
    mode = resolve_mode(content_bytes)
    pkg_stat = None
    if packages_path is not None:
        import os

        st = os.stat(packages_path)
        pkg_stat = f"{st.st_size}:{st.st_mtime_ns}"
    config = {"min_accessibility": min_accessibility, "v": 3,
              "packages": packages_path, "packages_stat": pkg_stat,
              "no_key": no_key}
    fp = corpus_fingerprint(input_path, config)

    import time

    pkg_meta = None
    if packages_path is not None:
        from codetoneo4j_ray.stages.extract import load_pkg_meta

        pkg_meta = load_pkg_meta(packages_path)

    records = None
    t0 = time.perf_counter()
    if not (resume and stage_is_complete(out_dir, "records", fp)):
        corpus = read_corpus_pinned(input_path, content_bytes)
        if mode == "partitioned":
            # multi-node configuration end-to-end: the repo-bucketed
            # extraction holds per-bucket indices only — nothing on the
            # driver or any worker grows with corpus size
            from codetoneo4j_ray.stages.extract import (
                extract_records_partitioned,
            )

            records = extract_records_partitioned(
                corpus, min_accessibility, pkg_meta=pkg_meta, no_key=no_key
            )
        else:
            records = extract_records(
                corpus, build_type_index(corpus), min_accessibility,
                pkg_meta=pkg_meta, no_key=no_key, batch_size=batch_size,
            )
    metrics = write_graph(out_dir, fp, mode, no_key, records, t0)
    metrics["mode"] = mode
    write_manifest(out_dir, "graph", fp, metrics)
    return metrics


def write_graph(
    out_dir: str,
    fp: str,
    mode: str,
    no_key: bool,
    records: ray.data.Dataset | None,
    t0: float,
    files_post=None,
) -> dict:
    """Stages 2–4 into ``out_dir``'s nodes/, edges/ and files/; returns
    their row counts and ``stage1_sec``.

    ``records`` (the lazy stage-1 stream, started at ``t0``) is pinned
    in the object store — metadata-sized, spillable — and stages 2–4
    read the pinned blocks, so the ``records/`` checkpoint comes off the
    critical path: a background thread writes it, then its manifest
    (under ``fp``), so a crash mid-write re-runs stage 1; a failed write
    is re-raised once the outputs are written. ``records=None`` reads
    the existing checkpoint. ``files_post`` maps the files output."""
    import shutil
    import threading
    import time
    from concurrent.futures import ThreadPoolExecutor

    records_dir = f"{out_dir}/records"
    _stub_fsspec_http()
    stage1_sec = 0.0
    ckpt_thread = None
    ckpt_err: list[BaseException] = []
    if records is not None:
        records = records.materialize()
        stage1_sec = round(time.perf_counter() - t0, 3)

        def _write_ckpt() -> None:
            # hive-partition the checkpoint by rec_type (partition-
            # pruned reads on resume); block count bounded at the read
            try:
                shutil.rmtree(records_dir, ignore_errors=True)
                records.write_parquet(records_dir,
                                      partition_cols=["rec_type"])
                write_manifest(out_dir, "records", fp,
                               {"rows": _parquet_rows(records_dir),
                                "wall_sec": stage1_sec})
            except BaseException as e:  # re-raised at the join below
                ckpt_err.append(e)

        ckpt_thread = threading.Thread(target=_write_ckpt, daemon=True)
        ckpt_thread.start()

    # One thread per output table, each building its own plan — the
    # nodes/files writes start streaming immediately while the edges
    # thread does the serial stage-2 prep (broadcast-mode member index +
    # key set), overlapping that latency instead of gating all three
    # writes behind it.
    nb = _output_blocks(records, records_dir)
    symbols, files, raw_mentions, records_in = _record_parts(
        records, records_dir if records is None else None
    )
    metrics: dict = {}

    def write_one(name: str) -> tuple[str, int]:
        if name == "nodes":
            ds = _nodes_output(symbols, nb)
        elif name == "files":
            ds = _files_output(files, nb)
            if files_post is not None:
                ds = files_post(ds)
        else:
            ds = _edges_output(raw_mentions, symbols, records_in, mode,
                               no_key, nb)
        path = f"{out_dir}/{name}"
        shutil.rmtree(path, ignore_errors=True)
        ds.write_parquet(path)
        return name, _parquet_rows(path)

    with ThreadPoolExecutor(max_workers=3) as pool:
        for name, rows in pool.map(write_one, ("nodes", "edges", "files")):
            metrics[name] = rows
    if ckpt_thread is not None:
        ckpt_thread.join()
        if ckpt_err:
            # a swallowed checkpoint failure would report success while
            # leaving a partial, manifest-less records dir behind
            raise RuntimeError(
                "records checkpoint write failed"
            ) from ckpt_err[0]
    metrics["stage1_sec"] = stage1_sec
    return metrics


def _stub_fsspec_http() -> None:
    """Make fsspec.implementations.http importable for concurrent writers.

    Ray's write path lazily imports it per call; in this environment the
    real module fails (no aiohttp) and two threads importing at once can
    leave a half-initialized module cached, raising ImportError past
    Ray's ModuleNotFoundError guard. A stub HTTPFileSystem (only ever
    used in isinstance checks, which correctly return False) removes the
    race."""
    import sys
    import types

    try:
        from fsspec.implementations.http import HTTPFileSystem  # noqa: F401

        return
    except ImportError:
        pass
    sys.modules.pop("fsspec.implementations.http", None)
    mod = types.ModuleType("fsspec.implementations.http")

    class HTTPFileSystem:  # noqa: N801 — name must match the real class
        pass

    mod.HTTPFileSystem = HTTPFileSystem
    sys.modules["fsspec.implementations.http"] = mod


def _parquet_rows(path: str) -> int:
    """Row count from parquet footers — no dataset re-read."""
    return sum(md.num_rows for md in _footers(path))
