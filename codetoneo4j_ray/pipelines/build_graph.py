"""Flagship pipeline: Parquet corpus → canonical KG triple tables.

    read_parquet (repo,path,commit,lang,content)
      → [1a] type-index skim (C# rows only)            map_batches
      → [1b] extraction                                 task map_batches
            ⇒ records/ parquet checkpoint (resumable)
      → [2a] deferred-INVOKES resolution                broadcast member index
      → [2b] endpoint semi-join                         broadcast key set
      → [3]  node / edge / file dedup                   combine + groupby
      → [4]  structural edges, sort, write_parquet      nodes/ edges/ files/

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
    resolve_mentions,
    strip_internal,
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


def read_corpus(input_path: str) -> ray.data.Dataset:
    from codetoneo4j_ray.stages.bucketing import target_blocks

    # bound block count up front: every downstream op inherits it, and
    # Ray's all-to-all exchanges degrade quadratically with block count
    return ray.data.read_parquet(
        input_path, columns=CORPUS_COLUMNS, override_num_blocks=target_blocks()
    )


def read_corpus_pinned(input_path: str) -> ray.data.Dataset:
    """:func:`read_corpus`, materialized into the object store when the
    corpus content fits a byte budget (``GRAFT_CORPUS_PIN_BUDGET_BYTES``,
    default 4 GiB).

    A single-parquet-file corpus is read by ONE task whose SplitBlocks
    output drips through the streaming executor block by block (measured
    ~3.3 s for a 0.1 s read at bench scale) — and stage 1 pays that drip
    twice (pass-A skim + pass-B extraction). Pinning the blocks once
    makes both passes read local plasma (skim map 3.7 → 0.7 s). At
    100 TB the corpus is many files (parallel read tasks, no drip) and
    exceeds any sane budget, so it streams exactly as before."""
    ds = read_corpus(input_path)
    budget = int(os.environ.get("GRAFT_CORPUS_PIN_BUDGET_BYTES", 4 << 30))
    try:
        est = corpus_content_bytes(input_path)
    except Exception:  # noqa: BLE001 — non-parquet / odd input: stream
        est = None
    if est is not None and est <= budget:
        ds = ds.materialize()
    return ds


def extract_to_records(
    corpus: ray.data.Dataset,
    min_accessibility: str = DEFAULT_MIN_ACCESSIBILITY,
    pkg_meta: dict | None = None,
    no_key: bool = False,
    batch_size: int = 64,
) -> ray.data.Dataset:
    """Stages 1a+1b, returning the unified record stream (lazy)."""
    indices = build_type_index(corpus)
    return extract_records(
        corpus, indices, min_accessibility,
        pkg_meta=pkg_meta, no_key=no_key, batch_size=batch_size,
    )


def read_records(records_dir: str, rec_type: str | None = None) -> ray.data.Dataset:
    """Read the (hive-partitioned by rec_type) records checkpoint.

    ``rec_type=...`` reads only that partition's files — the row-group
    pruning that lets the files/symbols stages skip the mention bulk.
    A partition dir that was never written (e.g. a corpus producing zero
    mentions) reads as a typed empty dataset, not a crash.

    Block count is bounded to target_blocks() like the corpus read:
    Ray's default read parallelism splits the mention partition into
    ~13 blocks per file (208 at bench scale), and every downstream map
    runs one task per block while the output sort's shuffle-object
    count grows with fan-in — bounding at the source is cheaper than
    coalescing after."""
    from codetoneo4j_ray.stages.bucketing import target_blocks

    if rec_type is None:
        return ray.data.read_parquet(
            records_dir, override_num_blocks=target_blocks()
        )
    part_dir = f"{records_dir}/rec_type={rec_type}"
    if not os.path.isdir(part_dir):
        from codetoneo4j_ray.stages.extract import RECORD_SCHEMA

        # partition-dir reads drop the hive column; match that shape
        empty = pa.schema([f for f in RECORD_SCHEMA if f.name != "rec_type"])
        return ray.data.from_arrow(empty.empty_table())
    return ray.data.read_parquet(
        part_dir, override_num_blocks=target_blocks()
    )


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
    """Stage-2 resolved+endpoint-checked (subj, pred, obj) edges and the
    resolved mention stream (both lazy).

    In broadcast mode this call does the serial driver work (member
    index + symbol-key set, built concurrently); callers that don't need
    edges should avoid it."""
    mention_cols = ["subj", "pred", "obj", "repo", "ctx_kind", "ctx_name",
                    "ctx_receiver", "ctx_argc"]
    if mode == "partitioned":
        from codetoneo4j_ray.stages.link import (
            resolve_link_fused,
            resolve_mentions_partitioned,
        )

        # one repo-keyed exchange resolves + endpoint-checks the
        # repo-prefixed bulk; only non-prefixed keys take the two tiny
        # global semi-join exchanges
        sym_edges = resolve_link_fused(raw_mentions, symbols)
        # resolved mention stream only if a consumer asks (lazy — unused
        # by build_graph, which never writes mentions_raw)
        resolved = resolve_mentions_partitioned(raw_mentions)
    else:
        # the two driver-side broadcast structures read disjoint record
        # partitions (mention vs symbol) — build them concurrently so the
        # serial plan-build latency is max(t_members, t_keys), not the sum
        from concurrent.futures import ThreadPoolExecutor

        def _keys() -> set:
            keys_df = symbols.select_columns(["key"]).to_pandas()
            return set(keys_df["key"]) if "key" in keys_df.columns else set()

        with ThreadPoolExecutor(max_workers=2) as pool:
            fut_members = pool.submit(build_member_indices, raw_mentions)
            fut_keys = pool.submit(_keys)
            member_indices = fut_members.result()
            symbol_keys = fut_keys.result()

        # narrow the mention stream before the resolve/join stages — only
        # the resolution context columns travel, never the symbol payload
        mentions = strip_internal(raw_mentions.select_columns(mention_cols))
        resolved = resolve_mentions(mentions, member_indices)

        sym_edges = resolve_edges_broadcast(
            resolved.select_columns(["subj", "pred", "obj"]), symbol_keys
        )
    return sym_edges, resolved


def _edges_output(raw_mentions, symbols, records, mode, no_key):
    from codetoneo4j_ray.stages.canonicalize import distinct_sorted

    sym_edges, resolved = _symbol_edges(raw_mentions, symbols, mode)
    # dedup/distinct fused into the output's range-partitioned sort: ONE
    # exchange (see canonicalize.lww_sorted for the exactness argument)
    edges = distinct_sorted(
        sym_edges.union(structural_edges(records,
                                         include_project=not no_key))
    )
    return edges, resolved


def _nodes_output(symbols):
    from codetoneo4j_ray.stages.canonicalize import _TIEBREAK, lww_sorted

    # finalize (truncate-8000 + projection) runs BEFORE the node shuffle
    # so untruncated doc strings never move
    return lww_sorted(finalize_nodes(symbols), "key", _TIEBREAK)


def _files_output(files):
    from codetoneo4j_ray.stages.canonicalize import _FILE_TIEBREAK, lww_sorted

    return lww_sorted(finalize_files(files), "key", _FILE_TIEBREAK)


# "auto" stays broadcast only while the corpus (and hence the
# driver-assembled type-index / member-index / key-set, which scale
# with it) fits a single node comfortably. Content bytes are a crude
# upper proxy — the indices are a small fraction of content — so the
# default is sized for a 128 GiB node with ample headroom. Override
# per deployment via GRAFT_BROADCAST_BUDGET_BYTES.
_BROADCAST_BUDGET_DEFAULT = 8 << 30  # 8 GiB of corpus content


def broadcast_byte_budget() -> int:
    return int(
        os.environ.get("GRAFT_BROADCAST_BUDGET_BYTES",
                       _BROADCAST_BUDGET_DEFAULT)
    )


def corpus_content_bytes(input_path: str) -> int | None:
    """Uncompressed byte size of the corpus ``content`` column, from
    parquet footers only (no data read). None when the estimate can't
    be made (missing column / non-parquet input)."""
    import pyarrow.parquet as pq

    paths = []
    if os.path.isdir(input_path):
        for root, _dirs, files in os.walk(input_path):
            paths += [os.path.join(root, f) for f in files
                      if f.endswith(".parquet")]
    else:
        paths = [input_path]
    total = 0
    seen = False
    try:
        for p in paths:
            md = pq.ParquetFile(p).metadata
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


def resolve_mode(mode: str, corpus_bytes: int | None = None) -> str:
    """Resolve "auto" to a concrete linking mode: "partitioned" when
    more than one alive node is attached (the broadcast-mode
    driver-side structures must never be the default on a real
    cluster) OR when the corpus-content estimate exceeds the broadcast
    byte budget (a single fat node on a huge corpus must not assemble
    a corpus-scale index on the driver either); "broadcast" otherwise
    (lowest latency while the index fits one machine). Explicit modes
    pass through so either can still be forced per run."""
    if mode != "auto":
        return mode
    if corpus_bytes is not None and corpus_bytes > broadcast_byte_budget():
        return "partitioned"
    try:
        alive = [n for n in ray.nodes() if n.get("Alive")]
    except Exception:
        return "broadcast"
    return "partitioned" if len(alive) > 1 else "broadcast"


def graph_from_records(
    records: ray.data.Dataset | None = None,
    records_dir: str | None = None,
    mode: str = "auto",
    no_key: bool = False,
) -> dict[str, ray.data.Dataset]:
    """Stages 2–4 from a (re-readable) record stream.

    Pass ``records_dir`` (hive-partitioned checkpoint) for partition-
    pruned reads, or an in-memory/materialized ``records`` dataset.

    ``mode``:
      - "auto"        — partitioned iff the cluster has >1 node
        (``resolve_mode``).
      - "broadcast"   — member index + symbol-key set built on the driver
        and broadcast via ray.put: lowest latency while they fit one node.
      - "partitioned" — stage 2 runs as hash-partitioned bucket joins on
        ``repo`` / key with zero serial driver work: the multi-node
        configuration (scaling benches run this mode).
    Returns lazy datasets: nodes, edges, files, mentions_raw.
    """
    mode = resolve_mode(mode)
    symbols, files, raw_mentions, records = _record_parts(records, records_dir)
    edges, resolved = _edges_output(raw_mentions, symbols, records, mode,
                                    no_key)
    return {
        "nodes": _nodes_output(symbols),
        "edges": edges,
        "files": _files_output(files),
        "mentions_raw": resolved,
    }


def build_graph(
    input_path: str,
    out_dir: str,
    min_accessibility: str = DEFAULT_MIN_ACCESSIBILITY,
    resume: bool = True,
    mode: str = "auto",
    packages_path: str | None = None,
    no_key: bool = False,
    batch_size: int = 64,
) -> dict:
    """Full run with a records checkpoint; returns metrics."""
    # the footer scan only matters (and only runs) when mode is "auto":
    # explicit modes pass straight through resolve_mode
    mode = resolve_mode(mode, corpus_bytes=(
        corpus_content_bytes(input_path) if mode == "auto" else None))
    pkg_stat = None
    if packages_path is not None:
        import os

        st = os.stat(packages_path)
        pkg_stat = f"{st.st_size}:{st.st_mtime_ns}"
    config = {"min_accessibility": min_accessibility, "v": 3,
              "packages": packages_path, "packages_stat": pkg_stat,
              "no_key": no_key}
    fp = corpus_fingerprint(input_path, config)
    records_dir = f"{out_dir}/records"

    import shutil
    import time

    pkg_meta = None
    if packages_path is not None:
        from codetoneo4j_ray.stages.extract import load_pkg_meta

        pkg_meta = load_pkg_meta(packages_path)

    stage1_sec = 0.0
    in_mem = None
    ckpt_thread = None
    if not (resume and stage_is_complete(out_dir, "records", fp)):
        t0 = time.perf_counter()
        shutil.rmtree(records_dir, ignore_errors=True)
        corpus = read_corpus_pinned(input_path)
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
            records = extract_to_records(corpus, min_accessibility,
                                         pkg_meta=pkg_meta, no_key=no_key,
                                         batch_size=batch_size)
        # Pin the record stream in the object store (records are
        # metadata-sized — symbols/mentions/file rows, never file
        # content — so the pinned footprint is a small fraction of the
        # corpus and spillable) and hand stages 2–4 the pinned blocks
        # directly: the checkpoint parquet round-trip (write, then
        # partition reads at the head of every output's serial chain)
        # comes OFF the critical path. The checkpoint itself still gets
        # written — resumability unchanged — but in a background thread
        # that overlaps stage 2–4 compute; its manifest only lands
        # after the write completes, so a crash mid-write re-runs
        # stage 1 exactly as before.
        _stub_fsspec_http()
        in_mem = records.materialize()
        stage1_sec = round(time.perf_counter() - t0, 3)

        ckpt_err: list[BaseException] = []

        def _write_ckpt() -> None:
            # hive-partition the checkpoint by rec_type (partition-
            # pruned reads on resume); block count bounded at the read
            try:
                in_mem.write_parquet(records_dir,
                                     partition_cols=["rec_type"])
                write_manifest(out_dir, "records", fp,
                               {"rows": _parquet_rows(records_dir),
                                "wall_sec": stage1_sec})
            except BaseException as e:  # re-raised at the join below
                ckpt_err.append(e)

        import threading

        ckpt_thread = threading.Thread(target=_write_ckpt, daemon=True)
        ckpt_thread.start()

    # Stages 2–4: one thread per output table, each building its own
    # plan — the nodes/files writes start streaming immediately while the
    # edges thread does the serial stage-2 prep (broadcast-mode member
    # index + key set), overlapping that latency instead of gating all
    # three writes behind it.
    from concurrent.futures import ThreadPoolExecutor

    _stub_fsspec_http()
    symbols, files, raw_mentions, records_in = _record_parts(
        in_mem, records_dir if in_mem is None else None
    )
    metrics: dict = {}

    def write_one(name: str) -> tuple[str, int]:
        if name == "nodes":
            ds = _nodes_output(symbols)
        elif name == "files":
            ds = _files_output(files)
        else:
            ds, _resolved = _edges_output(raw_mentions, symbols, records_in,
                                          mode, no_key)
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
    metrics["mode"] = mode
    write_manifest(out_dir, "graph", fp, metrics)
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
    import os

    import pyarrow.parquet as pq

    total = 0
    for root, _dirs, files in os.walk(path):
        for f in files:
            if f.endswith(".parquet"):
                total += pq.ParquetFile(os.path.join(root, f)).metadata.num_rows
    return total
