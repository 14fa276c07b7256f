"""Flagship pipeline: Parquet corpus → canonical KG triple tables.

Every stage runs as raw Ray tasks over pinned blocks; no Ray Data
execution is on the build path:

      raw read tasks                            corpus blocks (repo, path,
                                                commit, lang, content),
                                                pinned under the budget
      → [1a] pass A: one skim task per block    type-index rows, written
                                                as type_index/part-k →
                                                one task per repo bucket
                                                pins its repos' type
                                                indices
      → [1b] pass B: one extraction task        records blocks, pinned in
             per block, with its repos'         the object store
             type-index buckets
      → stages 2–4, raw tasks over the pinned records blocks:
        wave 1  one scan task per block        member/base rows + declared
                                               keys split by repo bucket,
                                               bounded key samples; the
                                               block written as
                                               records/rec_type=X/part-k
        driver  records manifest, range bounds; tasks sized from the
                index rows' bytes pin per-repo member indices + key sets
        wave 2  one map task per block         [2a] deferred-INVOKES
                                               resolution, [2b] endpoint
                                               check against the block's
                                               repos' buckets, [4]
                                               structural edges, node/file
                                               finalize, map-side [3]
                                               dedup, range split
        wave 3  one task per (output, range)   [3] sort + dedup, write
                                               nodes|edges|files/part-k

Each wave ends at a driver barrier, where the build takes that stage's
wall (``stage_sec`` in its metrics, :class:`StageWalls`).

Beside the outputs, a build leaves the state an incremental rebuild
(``pipelines.incremental``) starts from: ``records/``, the stage-1
records checkpoint, and ``type_index/``, the pass-A rows with the path
each came from, each with its manifest. Whenever stage 1 runs both
manifests are dropped first and both directories rewritten, and
``type_index/`` is complete before the records manifest is written, so
a resumed build keeps the type index its records came from.

Every index stages 1 and 2 need is keyed by repo — the reference
indexes one solution per run and resolves every cross-reference inside
it, and in the corpus model a repo is a solution — so each index lives
in a repo-keyed bucket store, built by raw tasks and never fetched by
the driver, and a task holds only the indices of the repos in its
block. Nothing on the driver grows with the corpus, and no content or
mention row moves by repo.

Both builds run stage 1 through one driver, ``extract_corpus`` (an
incremental rebuild hands it its delta), and stages 2–4 through one
entry, ``write_graph``, which writes the outputs. Stages 2–4 run no Ray
Data sort and no driver collect: every output is range-partitioned on
its key (``stages.canonicalize``), so each part file is sorted and the
parts in name order are globally sorted.

Every shuffle is metadata-only (keys + record rows); file *content*
never moves past stage 1b. The reference's pipeline equivalence is the
full-index run (``SolutionProcessor.ProcessSolution``, SURVEY §3.1).
"""

from __future__ import annotations

import functools
import os
import shutil
import time

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray

from codetoneo4j_ray.extractors.accessibility import DEFAULT_MIN_ACCESSIBILITY
from codetoneo4j_ray.schema import TRIPLE_SCHEMA
from codetoneo4j_ray.stages.bucketing import (
    Blocks,
    BucketStore,
    blocks_for,
    cluster_cpus,
    footers,
    parquet_bytes,
    parquet_files,
    plan_reads,
    read_blocks,
    keyed_store,
    split_table,
)
from codetoneo4j_ray.stages.canonicalize import (
    EDGES,
    FILES,
    NODES,
    SAMPLE_KEYS,
    canonical,
    key_sample,
    owned_by,
    range_bounds,
    reduce_range,
    split_ranges,
)
from codetoneo4j_ray.stages.extract import (
    RECORD_SCHEMA,
    build_type_index,
    extract_blocks,
    joined_keys,
    load_pkg_meta,
)
from codetoneo4j_ray.stages.link import (
    MENTION_COLS,
    _index_blobs,
    index_rows,
    internal_mask,
    link_block,
)
from codetoneo4j_ray.stages.materialize import (
    finalize_files,
    finalize_nodes,
    structural_edges_batch,
)
from codetoneo4j_ray.state.manifest import (
    corpus_fingerprint,
    remove_manifest,
    stage_is_complete,
    write_manifest,
)

CORPUS_COLUMNS = ["repo", "path", "commit", "lang", "content"]
# the pass-A rows' directory (and manifest) beside records/
TYPE_INDEX = "type_index"


def read_corpus_blocks(input_path: str,
                       batch_size: int | None = None) -> Blocks:
    """The corpus in ``blocks_for(content bytes, cluster_cpus())`` raw
    read blocks (:func:`~codetoneo4j_ray.stages.bucketing.plan_reads`):
    every stage-1 pass runs one task per block, so each CPU gets one.
    The content bytes are :func:`corpus_content_bytes`, from the
    footers; ``batch_size`` caps a block's rows where the files
    allow.

    When the content fits a quarter of the cluster's object-store
    memory (``ray.cluster_resources()``; no Ray session → over budget)
    raw read tasks pin the blocks once and both passes (pass-A skim,
    pass-B extraction) reuse the refs; this returns once they have
    finished. The rest of the store holds the records and the exchange
    blocks. Over the budget (the 100 TB shape) the blocks are
    :class:`~codetoneo4j_ray.stages.bucketing.ParquetSlice` specs and
    each pass's tasks read their own slice, so the corpus is read once
    per pass (an incremental rebuild's sha256 pass included) and never
    held whole."""
    content_bytes = corpus_content_bytes(input_path)
    pieces = plan_reads(input_path, blocks_for(content_bytes, cluster_cpus()),
                        CORPUS_COLUMNS, batch_size)
    store = (ray.cluster_resources().get("object_store_memory", 0)
             if ray.is_initialized() else 0)
    if content_bytes is not None and content_bytes <= int(store) // 4:
        return read_blocks(pieces)
    return Blocks(pieces, None, content_bytes)


def _as_records(fn, table: pa.Table) -> pa.Table:
    """A checkpoint table in ``RECORD_SCHEMA`` (schema column order and
    types), then ``fn`` when given."""
    table = pa.table(
        {f.name: (table[f.name].cast(f.type) if f.name in table.column_names
                  else pa.nulls(table.num_rows, f.type))
         for f in RECORD_SCHEMA}, schema=RECORD_SCHEMA)
    return fn(table) if fn is not None else table


def read_records_blocks(records_dir: str, rec_type: str | None = None,
                        fn=None) -> Blocks:
    """The records checkpoint (or its ``rec_type`` partition) read by raw
    tasks into ``RECORD_SCHEMA`` blocks, ``fn(table)`` applied in each
    task; ``blocks_for(footer bytes, cluster_cpus())`` blocks. Any
    ``*.parquet`` under ``rec_type=*/`` is read, whatever wrote it (the
    scan wave's ``part-{k:05d}.parquet``, or an older build's Ray Data
    partitioned write); ``rec_type`` comes from the directory name. A
    partition never written reads as no blocks."""
    path = records_dir if rec_type is None else f"{records_dir}/rec_type={rec_type}"
    if not os.path.isdir(path):
        return Blocks([], 0, 0)
    pieces = plan_reads(path, blocks_for(parquet_bytes(path), cluster_cpus()))
    return read_blocks(pieces, functools.partial(_as_records, fn))


class StageWalls:
    """Per-stage walls of one build (``stage_sec`` in its metrics), each
    taken at the driver barrier that ends the stage's wave: a wall runs
    from the previous barrier to its own, so the walls add up to the
    build's wall up to the last barrier. ``scan`` includes the records
    checkpoint; a stage a build does not run reads 0."""

    STAGES = ("read", "skim", "extract", "scan", "map", "reduce")

    def __init__(self) -> None:
        self.sec = dict.fromkeys(self.STAGES, 0.0)
        self._start = self._last = time.perf_counter()

    def lap(self, stage: str) -> None:
        now = time.perf_counter()
        self.sec[stage] = round(self.sec[stage] + now - self._last, 4)
        self._last = now

    def elapsed(self) -> float:
        return time.perf_counter() - self._start


def corpus_content_bytes(input_path: str) -> int | None:
    """Uncompressed byte size of the corpus ``content`` column, from
    parquet footers only (no data read). None when the estimate can't
    be made (missing column / non-parquet input)."""
    total = 0
    seen = False
    try:
        for md in footers(input_path):
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


_OUTPUTS = (("nodes", NODES), ("edges", EDGES), ("files", FILES))


def _of_type(block: pa.Table, rt, rec_type: str) -> pa.Table:
    return block.filter(pc.equal(rt, rec_type))


def _write_parts(block: pa.Table, rt, records_dir: str, k: int) -> None:
    """Block ``k``'s rows as records checkpoint files, one per rec_type
    present: ``{records_dir}/rec_type=X/part-{k:05d}.parquet`` (the
    hive layout; the directory carries the column)."""
    for value in pc.unique(rt).to_pylist():
        part_dir = f"{records_dir}/rec_type={value}"
        os.makedirs(part_dir, exist_ok=True)
        pq.write_table(_of_type(block, rt, value).drop_columns(["rec_type"]),
                       f"{part_dir}/part-{k:05d}.parquet")


@ray.remote
def _scan_block(block: pa.Table, num_buckets: int, rate: float,
                records_dir: str | None, k: int):
    """Wave 1 over records block ``k``: its link-index rows
    (``link.index_rows``) split into ``num_buckets`` repo buckets, one
    return each, then (the key samples of the node, edge and file
    outputs, None at rate 0; with ``records_dir``, the error of writing
    the block as the records checkpoint, None when it was written; the
    link-index rows' bytes)."""
    rt = block["rec_type"]
    err = None
    if records_dir is not None:
        try:
            _write_parts(block, rt, records_dir, k)
        except Exception as e:  # noqa: BLE001 — reported by the driver
            err = e
    samples = None
    if rate:
        symbols = _of_type(block, rt, "symbol")
        mentions = _of_type(block, rt, "mention")
        # edge subjects: mention subjects and the DECLARES side of the
        # structural edges — the bulk of both; bounds only set balance
        subjects = pa.chunked_array(
            mentions.filter(pc.invert(internal_mask(mentions)))["subj"].chunks
            + symbols["file_key"].chunks, pa.string())
        samples = (key_sample(symbols["key"], rate),
                   key_sample(subjects, rate),
                   key_sample(_of_type(block, rt, "file")["key"], rate))
    rows = index_rows(block)
    return (*split_table(rows, ["repo"], num_buckets),
            (samples, err, rows.nbytes))


@ray.remote
def _map_block(block: pa.Table, link_store: BucketStore, bounds,
               no_key: bool):
    """Wave 2 over one records block: every output's map side, the
    block's mentions resolved and endpoint-checked against their repos'
    buckets of ``link_store``. Returns the pieces of nodes, edges and
    files, one per range of each (in that order), then (mentions_in,
    mentions_resolved)."""
    rt = block["rec_type"]
    mentions = _of_type(block, rt, "mention")
    mentions = mentions.filter(pc.invert(internal_mask(mentions)))
    linked = link_block(mentions.select(MENTION_COLS), link_store)
    edges = pa.concat_tables(
        [structural_edges_batch(block.filter(pc.not_equal(rt, "mention")),
                                include_project=not no_key), linked],
        promote_options="permissive")
    # finalize (truncate-8000 + projection) runs before the split, so
    # untruncated doc strings never move
    tables = (
        finalize_nodes(_of_type(block, rt, "symbol")),
        edges,
        finalize_files(_of_type(block, rt, "file")),
    )
    pieces = [p for t, (_, canon), b in zip(tables, _OUTPUTS, bounds)
              for p in split_ranges(canonical(t, canon), canon.split, b)]
    return (*pieces, (mentions.num_rows, linked.num_rows))


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


def extract_corpus(
    corpus: Blocks,
    out_dir: str,
    fp: str,
    min_accessibility: str = DEFAULT_MIN_ACCESSIBILITY,
    packages_path: str | None = None,
    no_key: bool = False,
    walls: StageWalls | None = None,
    changed: set | None = None,
    carried: list = (),
    stale=None,
) -> tuple[Blocks, int]:
    """Stage 1 of a build into ``out_dir`` over the corpus blocks.

    First drops ``out_dir``'s records and type-index manifests: stage 1
    rewrites both directories, and a run cut short must leave neither
    looking complete. Then pass A (``build_type_index``), whose tasks
    write ``{out_dir}/type_index/``, followed by its manifest (``fp``
    and the part count, so a reader can tell a whole type index from a
    cut one); then pass B (``extract_blocks``), one extraction task per
    block with its repos' type indices and the package metadata of
    ``packages_path``. ``walls`` gets the skim and extract walls.

    An incremental rebuild passes its delta: ``changed``, the
    (repo, path) keys pass A skims and pass B extracts (None: every
    file; empty: pass B does not run), and ``carried`` and ``stale``,
    the prior type-index slices and the keys whose rows they drop (see
    ``build_type_index``). Returns (the records, the files pass A
    skimmed)."""
    walls = walls or StageWalls()
    for stage in ("records", TYPE_INDEX):
        remove_manifest(out_dir, stage)
    pkg_meta = None if packages_path is None else load_pkg_meta(packages_path)
    changed_ref = None if changed is None else ray.put(joined_keys(changed))
    type_dir = f"{out_dir}/{TYPE_INDEX}"
    type_store, skimmed = build_type_index(corpus, type_dir, changed_ref,
                                           carried, stale)
    write_manifest(out_dir, TYPE_INDEX, fp,
                   {"parts": len(parquet_files(type_dir))})
    walls.lap("skim")
    records = Blocks([], 0, 0)
    if changed is None or changed:
        records = extract_blocks(corpus, type_store, min_accessibility,
                                 pkg_meta, no_key, changed_ref)
    walls.lap("extract")
    return records, skimmed


def build_graph(
    input_path: str,
    out_dir: str,
    min_accessibility: str = DEFAULT_MIN_ACCESSIBILITY,
    resume: bool = True,
    packages_path: str | None = None,
    no_key: bool = False,
    batch_size: int | None = None,
) -> dict:
    """Full run with a records checkpoint and a type index; returns
    metrics. ``batch_size`` caps the rows of a corpus block (see
    :func:`read_corpus_blocks`)."""
    walls = StageWalls()
    pkg_stat = None
    if packages_path is not None:
        st = os.stat(packages_path)
        pkg_stat = f"{st.st_size}:{st.st_mtime_ns}"
    config = {"min_accessibility": min_accessibility, "v": 3,
              "packages": packages_path, "packages_stat": pkg_stat,
              "no_key": no_key}
    fp = corpus_fingerprint(input_path, config)

    records = None
    skimmed = 0
    if not (resume and stage_is_complete(out_dir, "records", fp)):
        corpus = read_corpus_blocks(input_path, batch_size)
        walls.lap("read")
        records, skimmed = extract_corpus(
            corpus, out_dir, fp, min_accessibility, packages_path, no_key,
            walls)
    metrics = write_graph(out_dir, fp, no_key, records, walls)
    metrics["skimmed_files"] = skimmed
    write_manifest(out_dir, "graph", fp, metrics)
    return metrics


def write_graph(
    out_dir: str,
    fp: str,
    no_key: bool,
    records: Blocks | None,
    walls: StageWalls,
    files_post=None,
) -> dict:
    """Stages 2–4 into ``out_dir``'s nodes/, edges/ and files/, as three
    raw-task waves over the pinned ``records`` blocks (module
    docstring). Each output has up to ``blocks_for(records' bytes)``
    ranges, and the link index is split in as many repo buckets (its
    rows are a part of the records). Every non-empty range is written
    to ``{output}/part-{k:05d}.parquet``, and an empty output as one
    empty part. ``files_post(table, in_range)`` runs in each files
    reduce task after the dedup (see ``reduce_range``).

    The scan wave also writes the ``records/`` checkpoint; its manifest
    (under ``fp``) follows the wave, so a crash mid-write re-runs stage
    1, and a failed part or manifest write raises
    ``RuntimeError("records checkpoint write failed")``.
    ``records=None`` reads the existing checkpoint instead (a resumed
    build), sized from the same in-memory bytes as a fresh one. The
    graph manifest is dropped first, so a run cut short leaves none.

    Returns the outputs' row counts, ``mentions_in`` (non-internal
    mention rows), ``mentions_resolved`` (rows left after resolution
    and the endpoint check, before the distinct), ``stage1_sec`` and
    ``stage_sec`` (the ``walls``, started when the build started).
    Every task submitted here has finished when it returns or
    raises."""
    remove_manifest(out_dir, "graph")
    records_dir = f"{out_dir}/records"
    checkpoint = None
    stage1_sec = 0.0
    if records is None:
        records = read_records_blocks(records_dir)
        walls.lap("read")
    else:
        stage1_sec = round(walls.elapsed(), 3)
        shutil.rmtree(records_dir, ignore_errors=True)
        checkpoint = (fp, {"rows": records.rows, "wall_sec": stage1_sec})
    blocks = records.refs
    num_ranges = blocks_for(records.nbytes)
    nrows = records.rows
    rate = min(1.0, SAMPLE_KEYS / nrows) if num_ranges > 1 and nrows else 0.0
    scan_dir = records_dir if checkpoint is not None else None
    submitted: list = []

    def submit(refs):
        submitted.extend(refs if isinstance(refs, (list, tuple)) else [refs])
        return refs

    try:
        scan = _scan_block.options(num_returns=num_ranges + 1)
        scans = [submit(scan.remote(b, num_ranges, rate, scan_dir, k))
                 for k, b in enumerate(blocks)]
        metas = ray.get([s[-1] for s in scans])
        if checkpoint is not None:
            failed = [e for _, e, _ in metas if e is not None]
            try:
                if failed:
                    raise failed[0]
                write_manifest(out_dir, "records", *checkpoint)
            except Exception as e:
                # a swallowed failure would report success while leaving
                # a partial, manifest-less records dir behind
                raise RuntimeError("records checkpoint write failed") from e
        walls.lap("scan")
        # tasks sized from the index rows' bytes pin the per-repo
        # indices, finished before any map task reads them; no index
        # row reaches the driver
        link_store = keyed_store([s[:-1] for s in scans], num_ranges,
                                 _index_blobs, sum(n for *_, n in metas))
        bounds = [range_bounds([s[i] for s, _, _ in metas if s is not None],
                               num_ranges) for i in range(len(_OUTPUTS))]
        nret = sum(len(b) + 1 for b in bounds) + 1
        maps = [submit(_map_block.options(num_returns=nret).remote(
            b, link_store, bounds, no_key)) for b in blocks]

        reduces = []
        offset = 0
        for (name, canon), b in zip(_OUTPUTS, bounds):
            path = f"{out_dir}/{name}"
            shutil.rmtree(path, ignore_errors=True)
            os.makedirs(path)
            post = files_post if name == "files" else None
            reduces.append([submit(reduce_range.remote(
                canon, f"{path}/part-{k:05d}.parquet", post,
                functools.partial(owned_by, b, k),
                *[m[offset + k] for m in maps])) for k in range(len(b) + 1)])
            offset += len(b) + 1
        counts = ray.get([m[-1] for m in maps])
        walls.lap("map")
        metrics: dict = {}
        for (name, _), refs in zip(_OUTPUTS, reduces):
            metrics[name] = sum(ray.get(refs))
            if not metrics[name]:
                # an empty output still reads back: one empty part
                pq.write_table(_empty_output(name, files_post),
                               f"{out_dir}/{name}/part-00000.parquet")
        walls.lap("reduce")
    finally:
        # no task outlives the build, on success or error
        if submitted:
            ray.wait(submitted, num_returns=len(submitted),
                     fetch_local=False)
    metrics["mentions_in"] = sum(n for n, _ in counts)
    metrics["mentions_resolved"] = sum(r for _, r in counts)
    metrics["stage1_sec"] = stage1_sec
    metrics["stage_sec"] = dict(walls.sec)
    return metrics
