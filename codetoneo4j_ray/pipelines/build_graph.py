"""Flagship pipeline: Parquet corpus → canonical KG triple tables.

    read_parquet (repo,path,commit,lang,content)
      → [1a] type-index skim (C# rows only)            map_batches
      → [1b] extraction                                 task map_batches
            ⇒ records pinned in the object store; records/ parquet
              checkpoint (resumable) written in the background
      → stages 2–4, raw tasks over the pinned records blocks:
        wave 1  one scan task per block        member/base rows, declared
                                               keys, bounded key samples
        driver  member index + key set (broadcast), range bounds
        wave 2  one map task per block         [2a] deferred-INVOKES
                                               resolution, [2b] endpoint
                                               check, [4] structural edges,
                                               node/file finalize, map-side
                                               [3] dedup, range split
        wave 3  one task per (output, range)   [3] sort + dedup, write
                                               nodes|edges|files/part-k

Stages 2–4 (``write_graph``, shared with ``build_graph_incremental``)
run no Ray Data sort and no driver collect: every output is range-
partitioned on its key (``stages.canonicalize``), so each part file is
sorted and the parts in name order are globally sorted.

``resolve_mode`` alone picks how stages 1 and 2 run, from what the Ray
session reports: the broadcast path above on one node with fewer than
32 CPUs while the corpus fits the driver-memory budget; otherwise the
partitioned path, where stage 1 extracts in repo-keyed buckets
(``extract_records_partitioned``) and [2a]+[2b] are one repo-keyed
exchange (``resolve_link_fused``), with no driver-side index, whose
bucket outputs feed the edges' range split.

Every shuffle is metadata-only (keys + record rows); file *content*
never moves past stage 1b. The reference's pipeline equivalence is the
full-index run (``SolutionProcessor.ProcessSolution``, SURVEY §3.1).
"""

from __future__ import annotations

import os
import shutil

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray
import ray.data

from codetoneo4j_ray.extractors.accessibility import DEFAULT_MIN_ACCESSIBILITY
from codetoneo4j_ray.extractors.csharp.extractor import BASE_PRED, MEMBER_PRED
from codetoneo4j_ray.schema import TRIPLE_SCHEMA
from codetoneo4j_ray.stages.canonicalize import (
    EDGES,
    FILES,
    NODES,
    SAMPLE_KEYS,
    canonical,
    key_sample,
    range_bounds,
    reduce_range,
    split_ranges,
)
from codetoneo4j_ray.stages.extract import (
    RECORD_SCHEMA,
    build_type_index,
    extract_records,
)
from codetoneo4j_ray.stages.link import (
    MENTION_COLS,
    _endpoint_filter_batch,
    _member_indices,
    _resolve_batch,
    resolve_link_fused,
)
from codetoneo4j_ray.stages.materialize import (
    finalize_files,
    finalize_nodes,
    structural_edges_batch,
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


_INTERNAL_PREDS = pa.array([MEMBER_PRED, BASE_PRED], pa.string())
_MEMBER_COLS = ["repo", "pred", "subj", "obj", "ctx_name", "ctx_argc"]
_OUTPUTS = (("nodes", NODES), ("edges", EDGES), ("files", FILES))


def _of_type(block: pa.Table, rt, rec_type: str) -> pa.Table:
    return block.filter(pc.equal(rt, rec_type))


def _internal(mentions: pa.Table):
    """Mask of the internal __MEMBER__/__BASE__ rows among mentions."""
    return pc.is_in(mentions["pred"], value_set=_INTERNAL_PREDS)


@ray.remote
def _scan_block(block: pa.Table, broadcast: bool, rate: float):
    """Wave 1 over one records block: (member/base rows, declared keys)
    for the broadcast path's driver structures (None otherwise), and the
    key samples of the node, edge and file outputs (None at rate 0)."""
    rt = block["rec_type"]
    symbols = _of_type(block, rt, "symbol")
    mentions = _of_type(block, rt, "mention")
    internal = _internal(mentions)
    members = keys = samples = None
    if broadcast:
        members = mentions.filter(internal).select(_MEMBER_COLS)
        keys = symbols["key"]
    if rate:
        # edge subjects: mention subjects and the DECLARES side of the
        # structural edges — the bulk of both; bounds only set balance
        subjects = pa.chunked_array(
            mentions.filter(pc.invert(internal))["subj"].chunks
            + symbols["file_key"].chunks, pa.string())
        samples = (key_sample(symbols["key"], rate),
                   key_sample(subjects, rate),
                   key_sample(_of_type(block, rt, "file")["key"], rate))
    return members, keys, samples


@ray.remote
def _map_block(block: pa.Table, link_refs, bounds, no_key: bool):
    """Wave 2 over one records block: every output's map side. Returns
    the pieces of nodes, edges and files, one per range of each (in
    that order), then (mentions_in, mentions_resolved).

    ``link_refs`` = (member-index ref, key-set ref) resolves and
    endpoint-checks the block's mentions (broadcast path); None leaves
    them to ``resolve_link_fused`` (partitioned path)."""
    rt = block["rec_type"]
    mentions = _of_type(block, rt, "mention")
    mentions = mentions.filter(pc.invert(_internal(mentions)))
    edges = [structural_edges_batch(block.filter(pc.not_equal(rt, "mention")),
                                    include_project=not no_key)]
    resolved = 0
    if link_refs is not None:
        index_ref, keys_ref = link_refs
        linked = _resolve_batch(mentions.select(MENTION_COLS), index_ref)
        linked = _endpoint_filter_batch(linked.select(["subj", "pred", "obj"]),
                                        keys_ref)
        resolved = linked.num_rows
        edges.append(linked)
    # finalize (truncate-8000 + projection) runs before the split, so
    # untruncated doc strings never move
    tables = (
        finalize_nodes(_of_type(block, rt, "symbol")),
        pa.concat_tables(edges, promote_options="permissive"),
        finalize_files(_of_type(block, rt, "file")),
    )
    pieces = [p for t, (_, canon), b in zip(tables, _OUTPUTS, bounds)
              for p in split_ranges(canonical(t, canon), canon.split, b)]
    return (*pieces, (mentions.num_rows, resolved))


@ray.remote
def _map_link_block(block: pa.Table, bounds):
    """Wave 2 over one ``resolve_link_fused`` output block (partitioned
    path): the edges' range pieces, then the resolved-row count."""
    edges = canonical(block.select(["subj", "pred", "obj"]), EDGES)
    return (*split_ranges(edges, EDGES.split, bounds),
            pc.sum(block["n"]).as_py())


def _empty_output(name: str, files_post=None) -> pa.Table:
    """The empty table of one output, with the schema its rows have."""
    if name == "edges":
        return TRIPLE_SCHEMA.empty_table()
    empty = RECORD_SCHEMA.empty_table()
    if name == "nodes":
        return finalize_nodes(empty)
    files = finalize_files(empty)
    return files if files_post is None else files_post(
        files, lambda keys: pa.array([False] * len(keys), pa.bool_()))


def _block_refs(ds: ray.data.Dataset) -> list:
    """Refs of the materialized ``ds``'s non-empty blocks (empty ones
    can lack the schema)."""
    return [br for bundle in ds.iter_internal_ref_bundles()
            for br, meta in bundle.blocks if meta.num_rows]


def _graph_tail(records: ray.data.Dataset, mode: str, no_key: bool,
                out_dir: str | None = None, files_post=None):
    """Stages 2–4 over the pinned ``records`` as three raw-task waves
    (module docstring). Each output has up to ``blocks_for(records'
    bytes)`` ranges. With ``out_dir`` every non-empty range is written
    to ``{out_dir}/{output}/part-{k:05d}.parquet``. ``files_post`` runs
    in each files reduce task (see ``reduce_range``).

    Returns ({output: [(table ref, rows)] per range}, mentions_in,
    mentions_resolved). Every task submitted here has finished when it
    returns or raises."""
    from codetoneo4j_ray.stages.bucketing import blocks_for

    blocks = _block_refs(records)
    num_ranges = blocks_for(records.size_bytes())
    nrows = records.count()
    rate = min(1.0, SAMPLE_KEYS / nrows) if num_ranges > 1 and nrows else 0.0
    broadcast = mode != "partitioned"
    submitted: list = []

    def submit(refs):
        submitted.extend(refs if isinstance(refs, (list, tuple)) else [refs])
        return refs

    try:
        scans = []
        if broadcast or rate:
            scans = ray.get([submit(_scan_block.remote(b, broadcast, rate))
                             for b in blocks])
        link_refs = None
        if broadcast:
            members = [m for m, _, _ in scans if m.num_rows]
            index = (_member_indices(pa.concat_tables(members).to_pandas())
                     if members else {})
            keys = frozenset(k for _, ks, _ in scans for k in ks.to_pylist())
            link_refs = (ray.put(index), ray.put(keys))
        bounds = [range_bounds([s[i] for _, _, s in scans if s is not None],
                               num_ranges) for i in range(len(_OUTPUTS))]
        nret = sum(len(b) + 1 for b in bounds) + 1
        maps = [submit(_map_block.options(num_returns=nret).remote(
            b, link_refs, bounds, no_key)) for b in blocks]
        link_maps = []
        if not broadcast:
            linked = resolve_link_fused(
                records.filter(expr="rec_type == 'mention'"),
                records.filter(expr="rec_type == 'symbol'"),
            )
            link_maps = [submit(_map_link_block.options(
                num_returns=len(bounds[1]) + 2).remote(b, bounds[1]))
                for b in _block_refs(linked)]

        outputs: dict = {}
        offset = 0
        for (name, canon), b in zip(_OUTPUTS, bounds):
            path = None
            if out_dir is not None:
                path = f"{out_dir}/{name}"
                shutil.rmtree(path, ignore_errors=True)
                os.makedirs(path)
            post = files_post if name == "files" else None
            outputs[name] = []
            for k in range(len(b) + 1):
                pieces = [m[offset + k] for m in maps]
                if name == "edges":
                    pieces += [m[k] for m in link_maps]
                part = f"{path}/part-{k:05d}.parquet" if path else None
                outputs[name].append(submit(reduce_range.remote(
                    canon, part, post, b, k, *pieces)))
            offset += len(b) + 1
        rows = iter(ray.get([r for refs in outputs.values() for _, r in refs]))
        outputs = {name: [(t, next(rows)) for t, _ in refs]
                   for name, refs in outputs.items()}
        for name, parts in outputs.items():
            if out_dir is not None and not any(n for _, n in parts):
                # an empty output still reads back: one empty part
                pq.write_table(_empty_output(name, files_post),
                               f"{out_dir}/{name}/part-00000.parquet")
        counts = ray.get([m[-1] for m in maps])
        mentions_in = sum(n for n, _ in counts)
        resolved = (sum(r for _, r in counts)
                    + sum(ray.get([m[-1] for m in link_maps])))
    finally:
        # no task outlives the build, on success or error
        if submitted:
            ray.wait(submitted, num_returns=len(submitted),
                     fetch_local=False)
    return outputs, mentions_in, resolved


def graph_from_records(
    records: ray.data.Dataset | None = None,
    records_dir: str | None = None,
    no_key: bool = False,
    corpus_bytes: int | None = None,
) -> dict[str, ray.data.Dataset]:
    """Stages 2–4 from a records stream or a ``records_dir`` checkpoint,
    on the path ``resolve_mode(corpus_bytes)`` picks, without writing:
    returns the nodes, edges and files (each sorted by key) as datasets
    over the reduce tasks' tables."""
    if records is None:
        records = read_records(records_dir)
    outputs, _, _ = _graph_tail(records.materialize(),
                                resolve_mode(corpus_bytes), no_key)
    out = {}
    for name, parts in outputs.items():
        tables = [t for t, rows in parts if rows]
        out[name] = (ray.data.from_arrow_refs(tables) if tables
                     else ray.data.from_arrow(_empty_output(name)))
    return out


def build_graph(
    input_path: str,
    out_dir: str,
    min_accessibility: str = DEFAULT_MIN_ACCESSIBILITY,
    resume: bool = True,
    packages_path: str | None = None,
    no_key: bool = False,
    batch_size: int | None = None,
) -> dict:
    """Full run with a records checkpoint; returns metrics."""
    content_bytes = corpus_content_bytes(input_path)
    mode = resolve_mode(content_bytes)
    pkg_stat = None
    if packages_path is not None:
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
    their row counts, ``mentions_in`` (non-internal mention rows),
    ``mentions_resolved`` (rows left after resolution and the endpoint
    check, before the distinct) and ``stage1_sec``.

    ``records`` (the lazy stage-1 stream, started at ``t0``) is pinned
    in the object store — metadata-sized, spillable — and stages 2–4
    run as raw tasks over the pinned blocks (``_graph_tail``), so the
    ``records/`` checkpoint comes off the critical path: a background
    thread writes it, then its manifest (under ``fp``), so a crash
    mid-write re-runs stage 1; a failed write is re-raised once the
    outputs are written. ``records=None`` pins the existing checkpoint
    instead, so a resumed build sizes its ranges from the same
    in-memory bytes as a fresh one. ``files_post(table, in_range)``
    runs in each files reduce task after the dedup."""
    import threading
    import time

    records_dir = f"{out_dir}/records"
    _stub_fsspec_http()
    stage1_sec = 0.0
    ckpt_thread = None
    ckpt_err: list[BaseException] = []
    if records is not None:
        records = records.materialize()
        stage1_sec = round(time.perf_counter() - t0, 3)

        def _write_ckpt() -> None:
            # hive-partition the checkpoint by rec_type (the incremental
            # diff reads only rec_type=file); block count bounded at the
            # read
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
    else:
        records = read_records(records_dir).materialize()

    try:
        outputs, mentions_in, resolved = _graph_tail(
            records, mode, no_key, out_dir, files_post)
    finally:
        if ckpt_thread is not None:
            ckpt_thread.join()
    if ckpt_err:
        # a swallowed checkpoint failure would report success while
        # leaving a partial, manifest-less records dir behind
        raise RuntimeError("records checkpoint write failed") from ckpt_err[0]
    metrics: dict = {name: sum(rows for _, rows in parts)
                     for name, parts in outputs.items()}
    metrics["mentions_in"] = mentions_in
    metrics["mentions_resolved"] = resolved
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
