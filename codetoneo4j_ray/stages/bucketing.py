"""Bucketed group-apply: the scalable alternative to a per-key group map.

Ray Data's ``groupby(key)`` group map invokes Python once per group —
with millions of distinct keys that is pure interpreter overhead, on
top of a sort-based exchange. Instead we
hash keys into a bounded number of buckets, split every input block
into per-bucket object-store pieces with raw tasks (one wave), then run
a *vectorized* pandas function once per bucket in one task per bucket;
every row of a given key lands in exactly one bucket, so per-key
semantics (dedup, LWW winner, aggregation) stay exact. The one split
wave has two consumers: the apply wave that runs once
(:func:`bucketed_apply_tasks`), and :func:`keyed_store`, the only way
a :class:`BucketStore` gets pinned for keyed lookups
(:func:`build_bucket_store` is the split wave plus ``keyed_store``).

Every block and bucket count on the build path comes from one rule,
:func:`blocks_for`: the bytes the stage carries over Ray Data's own
minimum block size, capped by ``target_blocks()`` (~2× the cluster's
CPUs) and floored at the cluster's CPUs for CPU-bound stages. Every
block and bucket costs a task, so a metadata-sized stage runs in one
block on any cluster, and only data that fills blocks spreads out. The
exchanges size themselves after materializing their input, from its
block metadata, and hash inside the split tasks, so choosing the count
costs no second execution. Hot single keys are still collapsed
beforehand by map-side combine in the callers.

No library op runs a Ray Data execution inside its call: the build's
stages, the graph ops, the commit folds and the data and media ops hold
:class:`Blocks` (refs of Arrow tables in the object store, with their
rows and in-memory bytes), read parquet with raw tasks over
:class:`ParquetSlice` specs (:func:`read_blocks`), and feed the same
split/apply primitive with them, which then returns :class:`Blocks`.
Only a Dataset handed in (the graph ops' Dataset wrappers, the
benchmark's bucketing probe) costs its one materialize.

Worker processes keep two caches. Consumers that read a pinned bucket
more than once (index lookups, iterative graph ops) go through
:func:`cached_view`, keyed by the bucket's pinned objects and bounded by
the Arrow bytes its views were built from (:func:`cache_bound`, a
quarter of the memory Ray reports per CPU). An object broadcast to
every task of a stage as one ref (a key set, package metadata, a
centroid table) goes through :func:`cached_get`, keyed by its ref and
bounded at ``BROADCAST_CACHE_MAX`` (8) objects.
"""

from __future__ import annotations

import functools
import os
import pickle
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray.data

# not used by the library: the benchmark's bucket-skew probe reads it
DEFAULT_BUCKETS = 64


def cluster_cpus() -> int:
    """CPUs the Ray session reports (8 with no session)."""
    try:
        return int(ray.cluster_resources().get("CPU", 8))
    except Exception:  # noqa: BLE001
        return 8


def target_blocks() -> int:
    """Upper bound on the block count of any all-to-all op: ~2× cluster
    CPUs.

    Ray's sort-based exchanges scale O(blocks²) in task count; feeding
    them hundreds of tiny blocks dominates wall time at small scale.
    """
    return max(8, min(256, cluster_cpus() * 2))


def blocks_for(nbytes: int | None, min_blocks: int = 1) -> int:
    """Block (or bucket) count for a stage carrying ``nbytes``: one per
    ``DataContext.target_min_block_size`` (Ray Data's floor on block
    size), at least ``min_blocks``, at most ``target_blocks()``. CPU-
    bound stages pass ``min_blocks=cluster_cpus()`` so every CPU gets
    a block. An unknown size (None) gets the cap."""
    cap = target_blocks()
    if nbytes is None:
        return cap
    per_block = ray.data.DataContext.get_current().target_min_block_size
    return min(cap, max(min_blocks, -(-int(nbytes) // per_block), 1))


@dataclass
class Blocks:
    """A stage's data as raw-task blocks: ``refs`` of Arrow tables in the
    object store (or :class:`ParquetSlice` specs each consumer reads
    itself), their total ``rows`` and in-memory ``nbytes`` (None when
    unknown). Empty tables need not be listed."""

    refs: list
    rows: int | None = None
    nbytes: int | None = None

    @classmethod
    def of(cls, refs: list, sizes: list) -> "Blocks":
        """The non-empty ``refs`` among tables of (rows, bytes)
        ``sizes``."""
        return cls([r for r, (n, _) in zip(refs, sizes) if n],
                   sum(n for n, _ in sizes), sum(b for _, b in sizes))

    def __add__(self, other: "Blocks") -> "Blocks":
        def total(a, b):
            return None if a is None or b is None else a + b

        return Blocks(self.refs + other.refs, total(self.rows, other.rows),
                      total(self.nbytes, other.nbytes))

    @classmethod
    def of_dataset(cls, ds: ray.data.Dataset) -> "Blocks":
        """``ds`` materialized (its one execution), as the refs of its
        non-empty blocks with their sizes from the block metadata."""
        refs, sizes = [], []
        for bundle in ds.materialize().iter_internal_ref_bundles():
            for ref, meta in zip(bundle.block_refs, bundle.metadata):
                refs.append(ref)
                sizes.append((meta.num_rows, meta.size_bytes))
        return cls.of(refs, sizes)

    def dataset(self) -> ray.data.Dataset:
        """The blocks as a Dataset, in order, with no execution; with no
        blocks, an empty one without columns."""
        if not self.refs:
            return ray.data.from_pandas(pd.DataFrame())
        return ray.data.from_arrow_refs(self.refs)

    def table(self) -> pa.Table | None:
        """The pinned tables concatenated on the driver (None when
        empty): only for metadata-sized results."""
        tabs = [t for t in ray.get(self.refs) if t.num_rows]
        return (pa.concat_tables(tabs, promote_options="permissive")
                if tabs else None)


def parquet_files(path: str) -> list[str]:
    """``path`` itself, or every ``.parquet`` file below it, sorted."""
    if not os.path.isdir(path):
        return [path]
    return sorted(os.path.join(root, f) for root, _dirs, files in os.walk(path)
                  for f in files if f.endswith(".parquet"))


@dataclass(frozen=True)
class ParquetSlice:
    """One block of a raw-task read: whole files, or rows [start, stop)
    of one file (``rows``). A slice reads only the row groups it
    overlaps. A ``key=value`` parent directory (hive layout) adds
    column ``key`` when the files lack it."""

    paths: tuple
    columns: tuple | None = None
    rows: tuple | None = None

    def read(self) -> pa.Table:
        tabs = [self._read_file(p) for p in self.paths]
        return (tabs[0] if len(tabs) == 1
                else pa.concat_tables(tabs, promote_options="permissive"))

    def _read_file(self, path: str) -> pa.Table:
        f = pq.ParquetFile(path)
        names = f.schema_arrow.names
        cols = (None if self.columns is None
                else [c for c in self.columns if c in names])
        if self.rows is None:
            t = f.read(columns=cols)
        else:
            start, stop = self.rows
            md, first, groups = f.metadata, 0, []
            for g in range(md.num_row_groups):
                n = md.row_group(g).num_rows
                if first < stop and first + n > start:
                    if not groups:
                        offset = first
                    groups.append(g)
                first += n
            t = f.read_row_groups(groups, columns=cols).slice(
                start - offset, stop - start)
        key, sep, value = os.path.basename(os.path.dirname(path)).partition("=")
        if sep and key not in names and (self.columns is None
                                         or key in self.columns):
            t = t.append_column(key, pa.array([value] * t.num_rows,
                                              pa.string()))
        return t


def footers(path: str) -> list:
    """Parquet footers (``FileMetaData``) of ``path`` or of every
    ``.parquet`` file below it."""
    return [pq.ParquetFile(p).metadata for p in parquet_files(path)]


def parquet_bytes(path: str) -> int:
    """Uncompressed bytes of every row group under ``path``, from the
    footers only (no data read)."""
    return sum(md.row_group(rg).total_byte_size
               for md in footers(path) for rg in range(md.num_row_groups))


def plan_reads(path: str, num_blocks: int | None = None, columns=None,
               max_rows: int | None = None) -> list[ParquetSlice]:
    """About ``num_blocks`` (default ``blocks_for(parquet_bytes(path))``)
    read blocks over the parquet files of ``path``: contiguous groups of
    whole files when there are at least that many files, else each file
    cut into equal row slices. ``max_rows`` raises the count to at least
    total rows / ``max_rows``. Row counts come from the footers (no data
    read)."""
    paths = parquet_files(path)
    if not paths:
        return []
    if num_blocks is None:
        num_blocks = blocks_for(parquet_bytes(path))
    cols = tuple(columns) if columns is not None else None
    rows = [pq.ParquetFile(p).metadata.num_rows for p in paths]
    if max_rows:
        num_blocks = max(num_blocks, -(-sum(rows) // max_rows))
    if len(paths) >= num_blocks:
        cuts = np.linspace(0, len(paths), num_blocks + 1).astype(int)
        return [ParquetSlice(tuple(paths[a:b]), cols)
                for a, b in zip(cuts[:-1], cuts[1:]) if b > a]
    per_file = -(-num_blocks // len(paths))
    out = []
    for p, n in zip(paths, rows):
        cuts = np.unique(np.linspace(0, n, min(per_file, max(n, 1)) + 1)
                         .astype(int))
        out += [ParquetSlice((p,), cols, (int(a), int(b)))
                for a, b in zip(cuts[:-1], cuts[1:])]
    return out


def load_block(block) -> pa.Table | None:
    """A block as a table: a :class:`ParquetSlice` is read here, a
    pandas block converted."""
    if isinstance(block, ParquetSlice):
        return block.read()
    if isinstance(block, pd.DataFrame):
        return pa.Table.from_pandas(block, preserve_index=False)
    return block


@ray.remote(num_returns=2)
def _read_block(piece, fn):
    """One read task: the block (a slice is read here), through ``fn``
    when given, and its (rows, in-memory bytes)."""
    table = load_block(piece)
    if fn is not None:
        table = fn(table)
    return table, (table.num_rows, table.nbytes)


def read_blocks(pieces: list, fn=None) -> Blocks:
    """One raw task per block (a :class:`ParquetSlice` to read, or a
    pinned table's ref), ``fn(table)`` applied inside it; returns once
    every task has finished, with the non-empty tables' refs, rows and
    in-memory bytes."""
    refs = [_read_block.remote(p, fn) for p in pieces]
    return Blocks.of([t for t, _ in refs], ray.get([s for _, s in refs]))


def coalesce(ds: ray.data.Dataset, num_blocks: int) -> ray.data.Dataset:
    """Merge ``ds`` down to ``num_blocks`` blocks. Never splits: a
    dataset whose plan already yields at most that many blocks passes
    through untouched (no repartition barrier at all)."""
    known = ds._plan.initial_num_blocks()
    if known is not None and known <= num_blocks:
        return ds
    return ds.repartition(num_blocks)


def _key_strings(batch: pa.Table, col: str) -> pa.ChunkedArray:
    """Key column as a non-null utf8 array. Bucket identity is free to
    change (callers only require same-key → same-bucket, deterministic
    across blocks and processes), so the exact string form of non-string
    keys doesn't matter — only that Arrow's cast is deterministic."""
    arr = batch[col]
    if not pa.types.is_string(arr.type):
        try:
            arr = pc.cast(arr, pa.string())
        except pa.ArrowError:  # exotic types (binary/nested): slow path
            arr = pa.array([str(v) for v in arr.to_pylist()], pa.string())
    return pc.fill_null(arr, "\x00null")


def _hash_bucket(joined: pa.ChunkedArray | pa.Array, num_buckets: int) -> pa.Array:
    """Vectorized deterministic string hash → bucket id. pandas'
    hash_array is a C-level siphash with a fixed key — stable across
    processes (unlike Python's randomized str hash) and ~2 orders of
    magnitude faster than a per-row Python crc loop.

    categorize=False is LOAD-BEARING: the default categorize=True path
    is not a pure per-value function — the same string hashes
    differently depending on the surrounding array (empirically chunk-
    dependent), which silently breaks cross-block co-bucketing."""
    obj = joined.to_numpy(zero_copy_only=False)
    h = pd.util.hash_array(np.asarray(obj, dtype=object), categorize=False) % num_buckets
    return pa.array(h.astype(np.int32), pa.int32())


def _bucket_ids(table: pa.Table, key_cols: list[str], num_buckets: int) -> pa.Array:
    """Bucket id of every row of ``table`` by ``key_cols``; all 0 for
    empty ``key_cols`` (one global group)."""
    if not key_cols or not table.num_rows:
        return pa.array(np.zeros(table.num_rows, np.int32), pa.int32())
    cols = [_key_strings(table, c) for c in key_cols]
    if len(cols) == 1:
        joined = cols[0]
    else:
        # \x1f (unit separator), not \x00: pandas' vectorized string
        # concat silently truncates at NUL. Separator collisions only
        # coarsen bucket identity, never split a key.
        joined = pc.binary_join_element_wise(*cols, "\x1f")
    return _hash_bucket(joined, num_buckets)


def add_bucket_column(
    ds: ray.data.Dataset, key_cols: list[str], num_buckets: int
) -> ray.data.Dataset:
    def add(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "__bucket", _bucket_ids(batch, key_cols, num_buckets)
        )

    return ds.map_batches(add, batch_format="pyarrow")


# not used by the library: the benchmark's bucketing probe times this
# sort-based groupby exchange against bucketed_apply_tasks
def bucketed_apply(
    ds: ray.data.Dataset,
    key_cols: list[str],
    bucket_fn,
    num_buckets: int | None = None,
    keep_bucket: bool = False,
) -> ray.data.Dataset:
    """Hash rows into buckets by key_cols; run ``bucket_fn(pandas_df)``
    once per bucket (vectorized). fn must not depend on bucket identity.
    ``num_buckets`` defaults to ``target_blocks()``.

    ``keep_bucket=True`` re-attaches the group's bucket id to the output
    rows — valid ONLY when fn's output keys are drawn from the group's
    input keys (dedup/aggregate/LWW), so every output row still hashes
    to the same bucket. Lets iterative consumers skip re-hashing."""

    def apply(group: pd.DataFrame) -> pd.DataFrame:
        bucket = group["__bucket"].iloc[0] if len(group) else 0
        out = bucket_fn(group.drop(columns="__bucket"))
        if keep_bucket:
            out = out.copy()
            out["__bucket"] = np.int32(bucket)
        return out

    if num_buckets is None:
        num_buckets = target_blocks()
    return (
        coalesce(add_bucket_column(ds, key_cols, num_buckets), target_blocks())
        .groupby("__bucket")
        .map_groups(apply, batch_format="pandas")
    )


@ray.remote(num_returns=2)
def _apply_bucket_pieces(fn, *pieces):
    """One bucket's task: ``fn`` over the pandas concatenation of the
    bucket's pieces (``fn`` may return a DataFrame or an Arrow table),
    or the plain Arrow concatenation when ``fn`` is None. Returns
    (table or None, (rows, in-memory bytes)): the sizes are their own
    small object so the driver learns which buckets are empty without
    fetching tables. A piece may be any block :func:`load_block` reads
    (the blocks of a one-bucket split)."""
    tabs = [t for t in map(load_block, pieces)
            if t is not None and t.num_rows]
    if not tabs:
        return None, (0, 0)
    # permissive: blocks of a unioned input legitimately disagree on
    # all-null column types (null vs the real dtype) — promote like the
    # sort-based exchange did instead of failing the concat
    table = pa.concat_tables(tabs, promote_options="permissive")
    if fn is not None:
        table = fn(table.to_pandas())
        if not len(table):
            # empty frames re-infer object columns as null-type through
            # Arrow — drop the block instead of poisoning the union schema
            return None, (0, 0)
        if isinstance(table, pd.DataFrame):
            table = pa.Table.from_pandas(table, preserve_index=False)
    return table, (table.num_rows, table.nbytes)


@ray.remote
def _split_block(num_buckets: int, key_cols: list[str], *blocks):
    """One split task: block(s) (tables or :class:`ParquetSlice` specs)
    hashed by ``key_cols`` into ``num_buckets`` pieces (None for empty
    buckets). Returned as num_returns=K+1 objects (the pieces, then the
    rows split) so the driver only ever holds refs, never data."""
    tables = [t for t in map(load_block, blocks) if t.num_rows]
    if not tables:
        return (*[None] * num_buckets, 0)
    # permissive: blocks of a unioned input can disagree on all-null
    # column types (null vs the real dtype)
    body = (tables[0] if len(tables) == 1
            else pa.concat_tables(tables, promote_options="permissive"))
    return (*split_table(body, key_cols, num_buckets), body.num_rows)


def _split_wave(blocks: Blocks, key_cols: list[str], num_buckets: int) -> list:
    """The one split wave: ``blocks`` grouped into at most
    ``blocks_for(input bytes, cluster_cpus())`` split tasks, each
    returning its ``num_buckets`` piece refs, in input order. Groups
    are contiguous chunks, so per-bucket row order is identical to an
    ungrouped split; grouping keeps a fragmented input from creating
    O(blocks × buckets) tiny objects, whose creation and registration,
    not the split, dominates the wave once blocks outnumber CPUs. One
    bucket runs no split task."""
    refs = blocks.refs
    if num_buckets == 1:
        # nothing to split: each block is its one bucket's piece, which
        # the consumer task loads itself
        return [[ref] for ref in refs]
    ngroups = min(len(refs), blocks_for(blocks.nbytes, cluster_cpus()))
    cuts = np.linspace(0, len(refs), ngroups + 1).astype(int)
    split = _split_block.options(num_returns=num_buckets + 1)
    return [split.remote(num_buckets, key_cols, *refs[a:b])[:-1]
            for a, b in zip(cuts[:-1], cuts[1:])]


def bucketed_apply_tasks(
    ds: ray.data.Dataset | Blocks,
    key_cols: list[str],
    bucket_fn,
) -> ray.data.Dataset | Blocks:
    """Hash rows into ``blocks_for(input bytes)`` buckets by ``key_cols``
    with one split wave, then run ``bucket_fn(pandas_df)`` once per
    bucket in one task per bucket — no sort-based groupby exchange.
    Every row of a key lands in exactly one bucket, and ``bucket_fn``
    must not depend on bucket identity. Empty ``key_cols`` (one global
    group) use one bucket. Each apply task concatenates its bucket's
    pieces itself, so the split needs no consolidating wave. Empty
    buckets produce no block: each task returns its sizes beside its
    table, and the driver fetches only the sizes.

    A Dataset in (materialized once, sized from its block metadata)
    gives a Dataset out; :class:`Blocks` in give Blocks out."""
    blocks = ds if isinstance(ds, Blocks) else Blocks.of_dataset(ds)
    num_buckets = blocks_for(blocks.nbytes) if key_cols else 1
    per_group = _split_wave(blocks, key_cols, num_buckets)
    refs = [_apply_bucket_pieces.remote(bucket_fn, *[pg[k] for pg in per_group])
            for k in range(num_buckets)]
    out = Blocks.of([t for t, _ in refs], ray.get([s for _, s in refs]))
    return out if isinstance(ds, Blocks) else out.dataset()


def split_by_ids(table: pa.Table | None, ids, n: int) -> list:
    """``table``'s rows cut into ``n`` pieces by their ``ids`` in
    [0, ``n``), keeping input order within each piece; an empty piece
    is None. The one split of the package: hash buckets
    (:func:`split_table`), key ranges (``canonicalize.split_ranges``)
    and the graph ops' node-id ranges all cut through it."""
    if table is None or not table.num_rows:
        return [None] * n
    if n == 1:
        return [table]
    if isinstance(ids, (pa.Array, pa.ChunkedArray)):
        ids = ids.to_numpy(zero_copy_only=False)
    order = np.argsort(ids, kind="stable")
    cuts = np.searchsorted(ids[order], np.arange(n + 1))
    return [table.take(order[a:b]) if b > a else None
            for a, b in zip(cuts[:-1], cuts[1:])]


def split_table(table: pa.Table, key_cols: list[str], num_buckets: int) -> list:
    """``table``'s rows in ``num_buckets`` pieces (None for an empty
    one) by the hash of ``key_cols``: the split of the split wave, also
    run by raw tasks that split their own output for
    :func:`keyed_store`."""
    ids = _bucket_ids(table, key_cols, num_buckets) if num_buckets > 1 else None
    return split_by_ids(table, ids, num_buckets)


# ---------------------------------------------------------------------------
# Pinned bucket store: the partitioned-broadcast side of lookup joins.
# The big side is hashed into per-bucket object-store pieces ONCE;
# consumers (raw tasks) fetch only the buckets they touch and keep them
# in the worker cache below.
# At cluster scale each piece lives in the object store (spillable) and
# is served to whichever node asks. A store sized by blocks_for keeps
# buckets near a block's size until the cap, past which, at a fixed
# cluster size, a bucket grows with the data and must still fit a
# worker's heap.
# ---------------------------------------------------------------------------


class BucketStore:
    """Handle to rows pinned as per-bucket object-store pieces.

    ``pieces[k]`` is the list of ObjectRefs whose concatenation holds
    bucket k (one object, shared by the buckets of its run: see
    :func:`keyed_store`). Serializable — ship it inside tasks; consumers
    read buckets through :func:`cached_view`, so a fetched bucket
    survives across the tasks and stages each reused worker process
    runs."""

    def __init__(self, pieces: list[list], num_buckets: int):
        self.pieces = pieces
        self.num_buckets = num_buckets


def pinned(refs: list) -> list:
    """``refs`` once their tasks have finished. Consumers get pinned
    refs inside a store or a list (unresolved, so the worker cache keys
    on their identity), which Ray does not wait for: a task blocked on
    one in ``ray.get`` gives up its CPU, and Ray starts another worker
    process to run what it waits on."""
    ray.wait(refs, num_returns=len(refs), fetch_local=False)
    return refs


def build_bucket_store(blocks: Blocks, key_cols: list[str],
                       reduce_fn=None) -> BucketStore:
    """``blocks`` pinned as a store keyed by ``key_cols``: one split
    wave into ``blocks_for(input bytes)`` buckets, then
    :func:`keyed_store`, which at that count pins every bucket in an
    object of its own."""
    num_buckets = blocks_for(blocks.nbytes)
    return keyed_store(_split_wave(blocks, key_cols, num_buckets),
                       num_buckets, reduce_fn, blocks.nbytes)


def keyed_store(per_group: list, num_buckets: int, reduce_fn,
                nbytes: int) -> BucketStore:
    """The one way a :class:`BucketStore` gets pinned: the pieces of
    split tasks (``per_group``: each task's ``num_buckets`` piece refs,
    from :func:`split_table`, in input order) concatenated per bucket,
    through ``reduce_fn(pandas_df)`` when given — a dedup or per-key
    aggregate in the same task, whose output keys must hash to the
    bucket of the input keys they came from, or lookups miss; an empty
    output pins None. Runs of adjacent buckets are pinned in
    ``blocks_for(nbytes)`` tasks, ``nbytes`` being the rows' bytes, so
    a split whose count came from an upper bound costs only the tasks
    its rows need; a bucket's pinned object then also holds the other
    buckets of its run, which keyed lookups (:func:`load_blobs`) skip.
    Returns once every pinned object has finished (:func:`pinned`)."""
    runs = np.array_split(np.arange(num_buckets),
                          min(num_buckets, blocks_for(nbytes)))
    refs = pinned([_apply_bucket_pieces.remote(
        reduce_fn, *[pg[k] for k in run for pg in per_group])[0]
        for run in runs])
    return BucketStore([[ref] for ref, run in zip(refs, runs) for _ in run],
                       num_buckets)


def blob_frame(key: str, objs: dict) -> pd.DataFrame:
    """``objs`` as rows of (``key``, pickled ``blob``): a store's
    ``reduce_fn`` output that :func:`load_blobs` reads back by key."""
    return pd.DataFrame({key: list(objs),
                         "blob": [pickle.dumps(o) for o in objs.values()]})


def load_blobs(store: BucketStore, key: str, values) -> dict:
    """{value: unpickled blob} of the :func:`blob_frame` rows of
    ``store`` whose ``key`` is in ``values``, fetching only the buckets
    those values hash to, each unpickled once per worker process
    (:func:`cached_view`)."""
    values = np.array(sorted(set(values)), dtype=object)
    ids = _bucket_ids(pa.table({key: values}), [key],
                      store.num_buckets).to_numpy()
    out: dict = {}
    for k in np.unique(ids):
        blobs = cached_view(store.pieces[int(k)], ("blobs", key),
                            functools.partial(_unpickle_blobs, key))
        out.update((v, blobs[v]) for v in values[ids == k] if v in blobs)
    return out


def _unpickle_blobs(key: str, table: pa.Table | None) -> dict:
    if table is None:
        return {}
    return dict(zip(table[key].to_pylist(),
                    map(pickle.loads, table["blob"].to_pylist())))


# ---------------------------------------------------------------------------
# The worker-process bucket cache. Ray reuses worker processes across the
# tasks and stages of a session, so each process keeps the views it built
# of pinned buckets (a pandas frame, unpickled blobs, a key → value
# Series), keyed by the hex ids of the bucket's pinned objects and the
# view's name: an iterative op's rounds and a build stage's tasks fetch
# and build each view once per process. It holds no ObjectRef or store
# handle, so a store nobody else holds is freed in the object store, and
# it drops least-recently-used views once the Arrow bytes they were
# built from pass :func:`cache_bound`.
# ---------------------------------------------------------------------------

# (pinned object ids, view name) → (view, Arrow bytes it was built from)
_VIEWS: OrderedDict = OrderedDict()


@functools.cache
def cache_bound() -> int:
    """Arrow bytes whose views one worker process keeps: a quarter of
    the ``memory`` Ray reports per CPU, since a view (pandas columns,
    Python objects) outweighs the Arrow bytes it was built from. Asked
    once per process: each ask is a round trip to Ray's control
    store."""
    res = ray.cluster_resources()
    return int(res.get("memory", 0) / max(res.get("CPU", 1), 1)) // 4


def cached_view(refs: list, view, build):
    """``build(table)`` for the bucket pinned as ``refs`` (``table`` is
    their Arrow concatenation, None when every piece is empty), from
    this process's cache or built once and kept under ``view``, the
    name of what ``build`` makes. A view larger than the bound is
    returned but not kept."""
    key = (tuple(r.hex() for r in refs), view)
    hit = _VIEWS.get(key)
    if hit is not None:
        _VIEWS.move_to_end(key)
        return hit[0]
    tabs = [t for t in ray.get(list(refs)) if t is not None]
    table = pa.concat_tables(tabs, promote_options="permissive") if tabs else None
    value = build(table)
    _VIEWS[key] = (value, table.nbytes if table is not None else 0)
    held, bound = sum(n for _, n in _VIEWS.values()), cache_bound()
    while held > bound:
        held -= _VIEWS.popitem(last=False)[1][1]
    return value


# The worker-process broadcast cache: a task's first ask for a broadcast
# ref pays one ray.get from the local object store, later tasks on the
# same worker hit the dict. Least-recently-used objects drop past
# BROADCAST_CACHE_MAX: a long-lived session broadcasts many refs (one
# per k-means iteration, one per build), and unbounded, every one would
# stay pinned in every worker for the session's lifetime.
BROADCAST_CACHE_MAX = 8
_BROADCAST_CACHE: dict = {}


def cached_get(ref):
    """``ray.get(ref)`` of a broadcast object, once per worker process
    while it stays among the ``BROADCAST_CACHE_MAX`` most recently
    used."""
    obj = _BROADCAST_CACHE.pop(ref, None)
    if obj is None:
        obj = ray.get(ref)
        while len(_BROADCAST_CACHE) >= BROADCAST_CACHE_MAX:
            _BROADCAST_CACHE.pop(next(iter(_BROADCAST_CACHE)))
    _BROADCAST_CACHE[ref] = obj  # re-insert = move to MRU position
    return obj


def bucket_frame(refs: list) -> pd.DataFrame:
    """The bucket pinned as ``refs`` as one pandas frame (empty, with no
    columns, when it holds no rows), through the worker cache."""
    return cached_view(refs, "frame", _to_frame)


def _to_frame(table: pa.Table | None) -> pd.DataFrame:
    return table.to_pandas() if table is not None else pd.DataFrame()
