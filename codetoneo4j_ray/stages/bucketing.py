"""Bucketed group-apply: the scalable alternative to per-key map_groups.

``groupby(key).map_groups(fn)`` invokes Python once per group — with
millions of distinct keys that is pure interpreter overhead. Instead we
hash keys into a bounded number of buckets, split every input block
into per-bucket object-store pieces with raw tasks (one wave), then run
a *vectorized* pandas function once per bucket in one task per bucket;
every row of a given key lands in exactly one bucket, so per-key
semantics (dedup, LWW winner, aggregation) stay exact. The same split
either feeds that apply wave once (:func:`bucketed_apply_tasks`) or is
pinned as a :class:`BucketStore` that iterative and lookup consumers
read many times (:func:`build_bucket_store`, optionally reduced per
bucket on the way in). The bucket count is the reduce-side parallelism;
it comes from the cluster (``target_blocks()``), not a constant,
because every bucket costs a task. Hot single keys are still collapsed
beforehand by map-side combine in the callers.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

# not used by the library: the benchmark's bucket-skew probe reads it
DEFAULT_BUCKETS = 64


def target_blocks() -> int:
    """Sensible block count for all-to-all ops: ~2× cluster CPUs.

    Ray's sort-based exchanges scale O(blocks²) in task count; feeding
    them hundreds of tiny blocks dominates wall time at small scale.
    """
    import ray

    try:
        cpus = int(ray.cluster_resources().get("CPU", 8))
    except Exception:  # noqa: BLE001
        cpus = 8
    return max(8, min(256, cpus * 2))


def coalesce(ds: ray.data.Dataset) -> ray.data.Dataset:
    """Repartition down to target_blocks() when the dataset is fragmented."""
    return ds.repartition(target_blocks())


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


def add_bucket_column(
    ds: ray.data.Dataset, key_cols: list[str], num_buckets: int
) -> ray.data.Dataset:
    def add(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return batch.append_column("__bucket", pa.array([], pa.int32()))
        if not key_cols:  # single global group (small final reductions)
            return batch.append_column(
                "__bucket", pa.array([0] * batch.num_rows, pa.int32())
            )
        cols = [_key_strings(batch, c) for c in key_cols]
        if len(cols) == 1:
            joined = cols[0]
        else:
            # \x1f (unit separator), not \x00: pandas' vectorized string
            # concat silently truncates at NUL, and hash_bucket_frame
            # must reproduce this join byte-for-byte map-side. Separator
            # collisions only coarsen bucket identity, never split a key.
            joined = pc.binary_join_element_wise(*cols, "\x1f")
        return batch.append_column("__bucket", _hash_bucket(joined, num_buckets))

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
        coalesce(add_bucket_column(ds, key_cols, num_buckets))
        .groupby("__bucket")
        .map_groups(apply, batch_format="pandas")
    )


@ray.remote(num_returns=2)
def _apply_bucket_pieces(fn, *pieces):
    """One bucket's task: ``fn`` over the pandas concatenation of the
    bucket's pieces, or the plain Arrow concatenation when ``fn`` is
    None. Returns (table or None, non_empty): the flag is its own small
    object so the driver learns which buckets are empty without
    fetching tables."""
    tabs = [t for t in pieces if t is not None and t.num_rows]
    if not tabs:
        return None, False
    # permissive: blocks of a unioned input legitimately disagree on
    # all-null column types (null vs the real dtype) — promote like the
    # sort-based exchange did instead of failing the concat
    table = pa.concat_tables(tabs, promote_options="permissive")
    if fn is None:
        return table, True
    out = fn(table.to_pandas())
    if not len(out):
        # empty frames re-infer object columns as null-type through
        # Arrow — drop the block instead of poisoning the union schema
        return None, False
    return pa.Table.from_pandas(out, preserve_index=False), True


def bucketed_apply_tasks(
    ds: ray.data.Dataset,
    key_cols: list[str],
    bucket_fn,
    num_buckets: int | None = None,
) -> ray.data.Dataset:
    """Hash rows into buckets by ``key_cols`` with raw split tasks, then
    run ``bucket_fn(pandas_df)`` once per bucket in one task per bucket
    (:func:`apply_store`) — no sort-based groupby exchange. Every row
    of a key lands in exactly one bucket, and ``bucket_fn`` must not
    depend on bucket identity. ``num_buckets`` defaults to
    ``target_blocks()``; empty ``key_cols`` (one global group) always
    use one bucket. The split is left unconsolidated: the apply task
    concatenates its bucket's pieces anyway, so a per-bucket concat
    layer would only add a task wave plus one extra object-store copy
    of the whole input."""
    if not key_cols:
        num_buckets = 1
    elif num_buckets is None:
        num_buckets = target_blocks()
    store = build_bucket_store(
        add_bucket_column(ds, key_cols, num_buckets), None, num_buckets,
        consolidate=False,
    )
    return apply_store(store, bucket_fn)


def sampled_range_bounds(
    ds: ray.data.Dataset,
    col: str,
    num_ranges: int,
    sample_cap: int = 65536,
) -> np.ndarray:
    """Quantile boundaries for a MONOTONE range-bucketing of an int64
    order key — the skew-safe replacement for a fixed-width ranger
    (``key // width``), which collapses to a handful of buckets when
    keys are sparse or clustered. Callers assign
    ``r = np.searchsorted(bounds, key, side="right")``; r is monotone
    in the key, so ordered two-pass prefix scans stay exact regardless
    of which ranger produced it — only balance changes.

    One column-pruned pass samples keys by a deterministic hash
    threshold sized from row-count metadata, so the driver holds at
    most ~sample_cap values no matter the dataset size, and repeated
    runs see the same sample. Returns a sorted, deduped int64 array
    (possibly shorter than num_ranges-1; empty for empty/tiny inputs —
    everything then lands in range 0, which is correct, just
    unbalanced at toy scale)."""
    n = ds.count()
    if not n:
        return np.array([], dtype="int64")
    rate = min(1.0, sample_cap / n)
    thresh = np.uint64(int(rate * 2**64)) if rate < 1.0 else None

    def samp(b: pa.Table) -> pa.Table:
        v = b[col].to_numpy(zero_copy_only=False).astype("int64")
        if thresh is not None:
            h = pd.util.hash_array(v, categorize=False)
            v = v[h < thresh]
        return pa.table({col: pa.array(v, pa.int64())})

    sample = (
        ds.select_columns([col])
        .map_batches(samp, batch_format="pyarrow")
        .to_pandas()[col]
        .to_numpy()
    )
    if sample.size == 0:
        return np.array([], dtype="int64")
    qs = np.quantile(
        sample, np.arange(1, num_ranges) / num_ranges, method="lower"
    ).astype("int64")
    return np.unique(qs)


def hash_bucket_series(s: pd.Series, num_buckets: int) -> np.ndarray:
    """Map-side bucket ids for a pandas column — the SAME hash as
    add_bucket_column on a single key column, so rows tagged here
    co-locate with keep_bucket=True outputs of that key. Non-string
    dtypes are stringified first, matching _key_strings' Arrow cast
    (int64 → decimal string)."""
    if s.dtype != object:
        s = s.astype(str)
    obj = s.to_numpy(dtype=object, copy=False)
    h = pd.util.hash_array(np.asarray(obj, dtype=object), categorize=False)
    return (h % num_buckets).astype(np.int32)


def hash_bucket_frame(
    df: pd.DataFrame, cols: list[str], num_buckets: int
) -> np.ndarray:
    """Map-side bucket ids over multiple STRING key columns — matches
    add_bucket_column's \\x1f-joined key exactly (string, non-null
    columns only; see the separator note in add_bucket_column — NUL
    would be truncated by pandas' vectorized string concat)."""
    if len(cols) == 1:
        return hash_bucket_series(df[cols[0]], num_buckets)
    joined = df[cols[0]]
    for c in cols[1:]:
        joined = joined + "\x1f" + df[c]
    return hash_bucket_series(joined, num_buckets)


# ---------------------------------------------------------------------------
# Pinned bucket store: the partitioned-broadcast side of iterative and
# lookup joins. The big side is hashed into per-bucket object-store
# pieces ONCE; consumers (raw tasks and map_batches callables) fetch
# only the buckets they touch and keep them in a per-process cache.
# This is what lets PageRank move the edge list a single time instead
# of once per iteration, and lets wedge-closing in triangle counting
# avoid shuffling the wedge stream.
# At cluster scale each piece lives in the object store (spillable) and
# is served to whichever node asks. Callers size the store with
# target_blocks(), so at a fixed cluster size a bucket grows with the
# data and must still fit a worker's heap.
# ---------------------------------------------------------------------------


@ray.remote
def _split_block(num_buckets: int, *blocks):
    """One shuffle map task: split pre-bucketed block(s) into K pieces
    (None for empty buckets). Returned as num_returns=K objects so the
    driver only ever holds refs, never data. Accepts several blocks per
    task (grouped by the caller) so a fragmented input doesn't create
    O(blocks × buckets) tiny objects — object creation/registration,
    not the filter, dominates the wave once blocks outnumber CPUs."""
    tables = []
    for block in blocks:
        if isinstance(block, pd.DataFrame):
            block = pa.Table.from_pandas(block, preserve_index=False)
        if block.num_rows and "__bucket" in block.column_names:
            tables.append(block)
    if not tables:
        # num_returns=1 makes the whole return value ONE object — a
        # 1-tuple would reach consumers ununwrapped
        return None if num_buckets == 1 else tuple([None] * num_buckets)
    # permissive: blocks of a unioned input can disagree on all-null
    # column types (null vs the real dtype)
    table = (
        tables[0]
        if len(tables) == 1
        else pa.concat_tables(tables, promote_options="permissive")
    )
    ids = table["__bucket"].to_numpy(zero_copy_only=False)
    body = table.drop_columns(["__bucket"])
    if num_buckets == 1:
        return body
    out = []
    for k in range(num_buckets):
        mask = ids == k
        out.append(body.filter(pa.array(mask)) if mask.any() else None)
    return tuple(out)


class BucketStore:
    """Handle to a dataset pinned as per-bucket object-store pieces.

    ``pieces[k]`` is the list of ObjectRefs whose concatenation is the
    full content of bucket k (minus the __bucket column). Serializable —
    ship it inside map_batches callables; consumers go through
    :func:`process_cache` so the fetched buckets survive across stages
    in each reused worker process."""

    def __init__(self, pieces: list[list], num_buckets: int):
        self.pieces = pieces
        self.num_buckets = num_buckets
        first = next((p[0] for p in pieces if p), None)
        self.token = f"{first.hex() if first is not None else ''}:{num_buckets}"


def build_bucket_store(
    ds: ray.data.Dataset,
    key_cols: list[str] | None,
    num_buckets: int,
    consolidate: bool = True,
    reduce_fn=None,
) -> BucketStore:
    """Pin ``ds`` into a BucketStore keyed by ``key_cols``. Pass
    key_cols=None when rows already carry __bucket (tagged map-side)
    to skip the re-hash pass.

    Input blocks are grouped to at most ~2× cluster CPUs split tasks
    (contiguous chunks, so per-bucket row order is identical to an
    ungrouped split): a fragmented input would otherwise create
    O(blocks × buckets) tiny objects in the split wave.

    ``reduce_fn(pandas_df)`` runs once per bucket over the bucket's
    whole content and its output is what gets pinned — a dedup or
    per-key aggregate in the same task that consolidates the bucket,
    so a reduced store costs one split wave plus one task per bucket,
    and an empty output pins None. Its output keys must hash to the
    bucket of the input keys they came from (dedup, aggregate, or
    columns attached per key), or lookups against the store miss.

    Without ``reduce_fn``, ``consolidate=True`` (default) still runs
    that per-bucket task as a plain concat whenever the split produced
    multiple pieces: a store handle then carries num_buckets refs
    instead of num_groups × num_buckets. The handle rides inside every
    task of every consumer stage, and each ObjectRef costs
    serialization + ownership registration per task — for an iterative
    consumer (PageRank, label propagation) the unconsolidated 64×64 ref
    matrix dominated per-iteration wall time. One-shot consumers
    (``bucketed_apply_tasks``) pass ``consolidate=False``: their single
    apply wave concatenates the pieces itself."""
    if key_cols is not None:
        ds = add_bucket_column(ds, key_cols, num_buckets)
    mat = ds.materialize()
    block_refs = [
        br
        for bundle in mat.iter_internal_ref_bundles()
        for br in bundle.block_refs
    ]
    ngroups = target_blocks()
    if len(block_refs) > ngroups:
        bounds = np.linspace(0, len(block_refs), ngroups + 1).astype(int)
        groups = [
            block_refs[a:b] for a, b in zip(bounds[:-1], bounds[1:]) if b > a
        ]
    else:
        groups = [[r] for r in block_refs]
    split = _split_block.options(num_returns=num_buckets)
    per_group = [split.remote(num_buckets, *grp) for grp in groups]
    if num_buckets == 1:
        # num_returns=1 yields a bare ObjectRef, not a 1-list
        per_group = [[r] for r in per_group]
    pieces = [[pg[k] for pg in per_group] for k in range(num_buckets)]
    if reduce_fn is not None or (consolidate and len(per_group) > 1):
        pieces = [[_apply_bucket_pieces.remote(reduce_fn, *p)[0]] for p in pieces]
    return BucketStore(pieces, num_buckets)


def apply_store(store: BucketStore, fn) -> ray.data.Dataset:
    """Run ``fn(pandas_df)`` once per bucket of ``store`` (one task per
    bucket) and return the outputs as a Dataset. Empty buckets produce
    no block: each task returns a non-empty flag beside its table, and
    the driver fetches only the flags."""
    refs = [_apply_bucket_pieces.remote(fn, *p) for p in store.pieces]
    flags = ray.get([flag for _, flag in refs])
    done = [table for (table, _), ok in zip(refs, flags) if ok]
    if not done:
        return ray.data.from_pandas(pd.DataFrame())
    return ray.data.from_arrow_refs(done)


class BucketCache:
    """LRU over BucketStore buckets (as pandas frames), one per store in
    each worker process (see :func:`process_cache`). The cap bounds the
    worker's heap: a re-fetch after eviction hits the local object
    store, not a recompute."""

    def __init__(self, store: BucketStore, cap: int = 16):
        self._store = store
        self._cap = cap
        self._cache: dict[int, pd.DataFrame] = {}

    def bucket_df(self, k: int) -> pd.DataFrame:
        hit = self._cache.pop(k, None)
        if hit is not None:
            self._cache[k] = hit  # refresh LRU position
            return hit
        tables = [t for t in ray.get(self._store.pieces[k]) if t is not None]
        if tables:
            df = pa.concat_tables(tables).to_pandas()
        else:
            df = pd.DataFrame()
        if len(self._cache) >= self._cap:
            self._cache.pop(next(iter(self._cache)))
        self._cache[k] = df
        return df


_PROCESS_BUCKET_CACHES: dict[str, BucketCache] = {}
_MAX_PROCESS_STORES = 4


def process_cache(store: BucketStore, cap: int = 16) -> BucketCache:
    """Worker-process-level BucketCache, keyed by the store's identity.
    Ray reuses worker processes across the stages of a session, so an
    iterative pipeline's later stages hit buckets already fetched by
    earlier ones — without paying actor-pool startup per stage. Only
    the most recent _MAX_PROCESS_STORES stores stay cached: a session
    running many queries would otherwise accumulate every query's
    pinned tables in every worker's heap."""
    c = _PROCESS_BUCKET_CACHES.pop(store.token, None)
    if c is None:
        c = BucketCache(store, cap)
        while len(_PROCESS_BUCKET_CACHES) >= _MAX_PROCESS_STORES:
            _PROCESS_BUCKET_CACHES.pop(next(iter(_PROCESS_BUCKET_CACHES)))
    _PROCESS_BUCKET_CACHES[store.token] = c  # re-insert = LRU refresh
    return c
