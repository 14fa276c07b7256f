"""Invariants of the central shuffle primitive (stages/bucketing.py).

Every exchange in the engine rides on three properties:
1. the bucket hash (_bucket_ids) is a pure per-value function: a value
   lands in the same bucket whatever table or block it arrives in;
2. bucketed_apply co-locates all rows of a key in exactly one group,
   and keep_bucket re-tags outputs with ids that re-hash to themselves;
3. a BucketStore round-trips its source rows exactly, partitioned so
   that bucket k holds precisely the rows hashing to k.
"""

from __future__ import annotations

import time
from itertools import groupby

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from codetoneo4j_ray.stages import bucketing
from codetoneo4j_ray.stages.bucketing import (
    Blocks,
    _bucket_ids,
    add_bucket_column,
    bucket_frame,
    bucketed_apply,
    build_bucket_store,
)

K = 16


def _force_buckets(monkeypatch, n: int) -> None:
    """Make ``blocks_for`` give ``n`` for any input of at least ``n``
    bytes: every exchange then runs ``n`` buckets."""
    import ray.data

    monkeypatch.setattr(bucketing, "target_blocks", lambda: n)
    monkeypatch.setattr(ray.data.DataContext.get_current(),
                        "target_min_block_size", 1)


def _blocks(frames: list[pd.DataFrame]) -> Blocks:
    """``frames`` as raw-task blocks: one pinned Arrow table each."""
    import ray

    tabs = [pa.Table.from_pandas(f, preserve_index=False) for f in frames]
    return Blocks.of([ray.put(t) for t in tabs],
                     [(t.num_rows, t.nbytes) for t in tabs])


def _hash(values, n: int = K) -> list[int]:
    """Bucket ids of ``values`` as one key column."""
    return _bucket_ids(pa.table({"a": values}), ["a"], n).to_pylist()


def _arrow_buckets(values: list[str]) -> list[int]:
    """Bucket ids via the Arrow block path."""
    import ray.data

    t = pa.table({"a": pa.array(values, pa.string())})
    ds = add_bucket_column(ray.data.from_arrow(t), ["a"], K)
    return [r["__bucket"] for r in ds.take_all()]


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(st.lists(st.text(min_size=0, max_size=12), min_size=1, max_size=20))
def test_map_side_hash_matches_arrow_path_single_key(ray_session, vals):
    """One table of the values, one table per value and the Arrow block
    path give every value the same bucket."""
    got = _hash(pa.array(vals, pa.string()))
    assert got == _arrow_buckets(vals)
    assert got == [_hash(pa.array([v], pa.string()))[0] for v in vals]


def test_int_keys_hash_like_their_decimal_strings(ray_session):
    import ray.data

    ints = [0, 1, 7, 123456789, 2**40]
    t = pa.table({"a": pa.array(ints, pa.int64())})
    arrow = [
        r["__bucket"]
        for r in add_bucket_column(ray.data.from_arrow(t), ["a"], K).take_all()
    ]
    table_ints = _hash(pa.array(ints, pa.int64()))
    table_strs = _hash(pa.array([str(i) for i in ints], pa.string()))
    assert arrow == table_ints == table_strs


def test_bucketed_apply_colocates_keys_and_keep_bucket_is_fixed_point(
    ray_session,
):
    import ray.data

    rng = np.random.default_rng(7)
    keys = [f"k{int(x)}" for x in rng.integers(0, 40, size=500)]
    ds = ray.data.from_pandas(
        [
            pd.DataFrame({"key": keys[i::4], "v": 1})
            for i in range(4)
        ]
    )

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("key", as_index=False).agg(n=("v", "sum"))

    out = bucketed_apply(ds, ["key"], per_bucket, K, keep_bucket=True)
    df = out.to_pandas()
    # every key reduced in exactly one group → one output row per key
    assert not df["key"].duplicated().any()
    assert df["n"].sum() == 500
    # keep_bucket ids re-hash to themselves (the iterative-loop contract)
    rehash = _hash(pa.array(df["key"], pa.string()))
    assert list(df["__bucket"]) == rehash


def test_bucket_store_round_trip_partitions_exactly(ray_session,
                                                   monkeypatch):
    df = pd.DataFrame(
        {
            "key": [f"n{i}" for i in range(300)],
            "val": np.arange(300, dtype="int64"),
        }
    )
    _force_buckets(monkeypatch, K)
    store = build_bucket_store(
        _blocks([df.iloc[i::3].reset_index(drop=True) for i in range(3)]),
        ["key"])
    assert store.num_buckets == K
    seen = []
    for k in range(K):
        part = bucket_frame(store.pieces[k])
        if part.empty:
            continue
        # bucket k holds exactly the rows whose key hashes to k
        assert set(_hash(pa.array(part["key"], pa.string()))) == {k}
        seen.append(part)
    got = (
        pd.concat(seen, ignore_index=True)
        .sort_values("key")
        .reset_index(drop=True)
    )
    exp = df.sort_values("key").reset_index(drop=True)
    pd.testing.assert_frame_equal(got[["key", "val"]], exp)


def test_bucket_cache_eviction_refetches_consistently(ray_session,
                                                    monkeypatch):
    import ray

    df = pd.DataFrame({"key": [f"x{i}" for i in range(64)], "v": 1})
    _force_buckets(monkeypatch, K)
    store = build_bucket_store(_blocks([df]), ["key"])
    # a bound of about two buckets' bytes
    biggest = max(t.nbytes for p in store.pieces for t in ray.get(p)
                  if t is not None)
    monkeypatch.setattr(bucketing, "cache_bound", lambda: 2 * biggest)
    first = {k: bucket_frame(store.pieces[k]).copy() for k in range(K)}
    # everything but the last few got evicted; refetch must agree
    again = {k: bucket_frame(store.pieces[k]) for k in range(K)}
    for k in range(K):
        pd.testing.assert_frame_equal(
            first[k].reset_index(drop=True), again[k].reset_index(drop=True)
        )


def _held_bytes() -> int:
    return sum(n for _, n in bucketing._VIEWS.values())


def test_bucket_cache_holds_at_most_its_bound(ray_session, monkeypatch):
    """Loading more buckets than fit keeps the cache's held bytes at or
    under its bound, and a bucket read again after its eviction holds
    the same rows."""
    import ray

    df = pd.DataFrame({"key": [f"y{i}" for i in range(400)],
                       "v": np.arange(400, dtype="int64")})
    _force_buckets(monkeypatch, K)
    store = build_bucket_store(_blocks([df]), ["key"])
    sizes = [sum(t.nbytes for t in ray.get(p) if t is not None)
             for p in store.pieces]
    bound = sum(sizes) // 3
    monkeypatch.setattr(bucketing, "cache_bound", lambda: bound)
    first = {}
    for k in range(K):
        first[k] = bucket_frame(store.pieces[k]).copy()
        assert _held_bytes() <= bound
    cached = [key for key in bucketing._VIEWS
              if key[0] in {tuple(r.hex() for r in p) for p in store.pieces}]
    assert 0 < len(cached) < K
    for k in range(K):
        pd.testing.assert_frame_equal(bucket_frame(store.pieces[k]), first[k])
        assert _held_bytes() <= bound
    assert sum(len(f) for f in first.values()) == 400


def test_bucket_cache_holds_no_object_refs(ray_session, monkeypatch):
    """The cache keeps the views it built (frames, unpickled blobs,
    key → value Series), never the ObjectRefs or store handles they
    were fetched through, so a store nobody else holds is freed."""
    import gc
    import weakref

    import ray

    from codetoneo4j_ray.stages.bucketing import (
        BucketStore,
        blob_frame,
        cached_view,
        load_blobs,
    )

    df = pd.DataFrame({"repo": [f"r{i}" for i in range(40)],
                       "val": np.arange(40, dtype="int64")})
    _force_buckets(monkeypatch, 4)
    blobs = build_bucket_store(
        _blocks([df]), ["repo"],
        lambda d: blob_frame(
            "repo", {r: {"v": int(v)} for r, v in zip(d["repo"], d["val"])}))
    frames = build_bucket_store(_blocks([df]), ["repo"])
    assert load_blobs(blobs, "repo", ["r1", "r7"]) == {
        "r1": {"v": 1}, "r7": {"v": 7}}
    for k in range(4):
        bucket_frame(frames.pieces[k])
        cached_view(frames.pieces[k], ("series", "repo", "val"),
                    lambda t: t.to_pandas().set_index("repo")["val"])
    assert len(bucketing._VIEWS) >= 6

    def walk(obj):
        yield obj
        if isinstance(obj, dict):
            for kv in obj.items():
                yield from walk(kv)
        elif isinstance(obj, (tuple, list)):
            for x in obj:
                yield from walk(x)
        elif isinstance(obj, pd.DataFrame):
            for c in obj:
                yield from walk(list(obj[c]))
        elif isinstance(obj, pd.Series):
            yield from walk(list(obj.index) + list(obj))

    held = list(walk(list(bucketing._VIEWS.items())))
    assert not [o for o in held if isinstance(o, (ray.ObjectRef, BucketStore))]
    gone = [weakref.ref(blobs), weakref.ref(frames)]
    del blobs, frames
    gc.collect()
    assert all(r() is None for r in gone)


def test_assign_order_ids_dense_and_order_preserving(ray_session,
                                                     monkeypatch):
    """The graph ops' key encoding over 157 shuffled keys in 5 blocks,
    split in 4 key ranges: the ids are 0..156 in key order (a key's id
    is its range's offset plus its row in the range's sorted keys)."""
    import ray
    import ray.data

    from codetoneo4j_ray.pipelines.graph_ops import encode_graph
    from codetoneo4j_ray.stages.bucketing import Blocks

    vals = [f"s{i:03d}" for i in range(157)]
    rng = np.random.default_rng(3)
    shuffled = list(rng.permutation(vals))
    ds = ray.data.from_pandas(
        [
            pd.DataFrame({"subj": shuffled[i::5], "obj": shuffled[i::5]})
            for i in range(5)
        ]
    )
    monkeypatch.setattr(bucketing, "target_blocks", lambda: 4)
    monkeypatch.setattr(ray.data.DataContext.get_current(),
                        "target_min_block_size", 1)
    graph = encode_graph(Blocks.of_dataset(ds))
    assert graph.num_ranges == 4
    keys = pa.concat_tables(ray.get(graph.nodes))["node"].to_pylist()
    adj = pa.concat_tables(ray.get(graph.adj)).to_pandas()
    ids = pd.DataFrame({"node": [keys[i] for i in adj["src"]],
                        "nid": adj["src"]}).sort_values("node")
    assert list(ids["nid"]) == list(range(157))
    assert list(ids["node"]) == sorted(vals)
    assert list(graph.offsets) == [0, *np.cumsum(
        [len(t) for t in ray.get(graph.nodes)])]


def test_split_by_ids_matches_the_three_splits_it_replaced():
    """``split_by_ids`` cuts a table with one hot id and several empty
    ids into the pieces the three splits it replaced gave, row for
    row: K boolean filters (``split_table``), a stable argsort with a
    searchsorted cut (``canonicalize.split_ranges``) and K pandas masks
    (the graph ops' routing); an empty piece is None either way."""
    from codetoneo4j_ray.stages.bucketing import split_by_ids

    n = 7
    rng = np.random.default_rng(11)
    ids = np.where(rng.random(500) < 0.8, 3, rng.choice([0, 5], 500))
    table = pa.table({"row": np.arange(500), "v": rng.integers(0, 9, 500)})
    filters = [table.filter(pa.array(ids == k)) if (ids == k).any() else None
               for k in range(n)]
    order = np.argsort(ids, kind="stable")
    cuts = np.searchsorted(ids[order], np.arange(n + 1))
    ranges = [table.take(order[a:b]) if b > a else None
              for a, b in zip(cuts[:-1], cuts[1:])]
    df = table.to_pandas()
    masks = [None] * n
    for k in np.unique(ids):
        masks[int(k)] = pa.Table.from_pandas(df[ids == k],
                                             preserve_index=False)
    got = split_by_ids(table, ids, n)
    assert [p is None for p in got] == [k not in (0, 3, 5) for k in range(n)]
    for old in (filters, ranges, masks):
        assert [None if p is None else p.to_pylist() for p in got] == [
            None if p is None else p.to_pylist() for p in old]
    assert split_by_ids(table, np.zeros(500, int), 1) == [table]
    assert split_by_ids(table.slice(0, 0), ids[:0], n) == [None] * n
    assert split_by_ids(None, None, n) == [None] * n


def test_stores_return_with_every_piece_pinned(ray_session, monkeypatch):
    """``build_bucket_store`` and ``keyed_store`` return only once every
    pinned object has finished, so consumers never block on one in
    ``ray.get``. The keyed store's split count is an upper bound (8
    buckets) over rows that fill 3 pinning tasks, so each pinned object
    holds a run of buckets; ``load_blobs`` still finds every key."""
    import ray

    from codetoneo4j_ray.stages.bucketing import (
        blob_frame,
        keyed_store,
        load_blobs,
        split_table,
    )

    def _slow_blobs(df: pd.DataFrame) -> pd.DataFrame:
        # long enough for an unwaited pin to be seen unfinished
        time.sleep(0.3)
        return blob_frame("repo",
                          {r: int(v) for r, v in zip(df["repo"], df["v"])})

    df = pd.DataFrame({"repo": [f"r{i}" for i in range(60)],
                       "v": np.arange(60, dtype="int64")})
    want = dict(zip(df["repo"], df["v"]))

    def all_done(store) -> bool:
        refs = list({r for p in store.pieces for r in p})
        done, _ = ray.wait(refs, num_returns=len(refs), timeout=0,
                           fetch_local=False)
        return len(done) == len(refs)

    _force_buckets(monkeypatch, 3)
    store = build_bucket_store(_blocks([df.iloc[:30], df.iloc[30:]]),
                               ["repo"], _slow_blobs)
    assert store.num_buckets == 3 and all_done(store)
    assert load_blobs(store, "repo", want) == want

    split = ray.remote(num_returns=8)(
        lambda t: tuple(split_table(t, ["repo"], 8)))
    tabs = [pa.Table.from_pandas(d, preserve_index=False)
            for d in (df.iloc[:20], df.iloc[20:])]
    per_group = [split.remote(t) for t in tabs]
    store = keyed_store(per_group, 8, _slow_blobs, sum(t.nbytes for t in tabs))
    assert all_done(store)
    runs = [len(list(g)) for _, g in groupby(p[0] for p in store.pieces)]
    assert runs == [3, 3, 2]
    assert load_blobs(store, "repo", want) == want
    assert load_blobs(store, "repo", ["r5", "missing"]) == {"r5": 5}


def test_bucketed_apply_empty_input(ray_session):
    import ray.data

    ds = ray.data.from_pandas(
        [pd.DataFrame({"key": pd.Series([], dtype=object)})]
    )
    out = bucketed_apply(ds, ["key"], lambda df: df, K)
    assert out.count() == 0


def test_bucket_store_consolidates_multi_block_input(ray_session,
                                                    monkeypatch):
    """A store built from multi-block input must hold ONE object per
    bucket (ref count per handle = num_buckets, not blocks x buckets):
    the handle rides inside every consumer task, and per-task
    ObjectRef registration once dominated iterative op wall time."""
    _force_buckets(monkeypatch, K)
    store = build_bucket_store(_blocks(
        [pd.DataFrame({"key": [f"k{i}-{b}" for i in range(50)]})
         for b in range(6)]), ["key"])
    assert len({p[0] for p in store.pieces}) == K
    assert all(len(p) == 1 for p in store.pieces)
    # content unchanged by consolidation: every input row in exactly one bucket
    total = sum(len(bucket_frame(store.pieces[k])) for k in range(K))
    assert total == 300


def test_bucketed_apply_tasks_matches_groupby_path(ray_session, monkeypatch):
    """The raw-task bucketed apply (split tasks + one task per bucket)
    must produce the same multiset of rows as the groupby-based
    bucketed_apply for a key-preserving aggregate."""
    import ray.data

    from codetoneo4j_ray.stages.bucketing import (
        bucketed_apply,
        bucketed_apply_tasks,
    )

    def _count_per_key(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("key", as_index=False).agg(n=("v", "sum"))

    df = pd.DataFrame(
        {"key": [f"k{i % 17}" for i in range(400)], "v": range(400)}
    )
    ds = ray.data.from_pandas([df.iloc[:150], df.iloc[150:]])
    a = (
        bucketed_apply(ds, ["key"], _count_per_key, K)
        .to_pandas().sort_values("key").reset_index(drop=True)
    )
    ds2 = ray.data.from_pandas([df.iloc[:150], df.iloc[150:]])
    _force_buckets(monkeypatch, K)
    b = (
        bucketed_apply_tasks(ds2, ["key"], _count_per_key)
        .to_pandas().sort_values("key").reset_index(drop=True)
    )
    assert a.equals(b)
    assert len(a) == 17


def test_bucketed_apply_tasks_empty_input(ray_session):
    import ray.data

    from codetoneo4j_ray.stages.bucketing import bucketed_apply_tasks

    def _count_per_key(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("key", as_index=False).agg(n=("v", "sum"))

    ds = ray.data.from_pandas(
        pd.DataFrame({"key": pd.Series([], dtype=str),
                      "v": pd.Series([], dtype="int64")})
    )
    out = bucketed_apply_tasks(ds, ["key"], _count_per_key)
    assert out.count() == 0


def test_bucketed_apply_tasks_single_bucket(ray_session, monkeypatch):
    """One-bucket regression: Ray's num_returns=1 yields a bare
    ObjectRef whose value is the whole return — the split task must
    return the piece itself, not a 1-tuple."""
    import ray.data

    from codetoneo4j_ray.stages.bucketing import bucketed_apply_tasks

    def _total(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"n": [int(df["v"].sum())]})

    ds = ray.data.from_pandas(
        pd.DataFrame({"key": ["a", "b", "a"], "v": [1, 2, 3]})
    )
    _force_buckets(monkeypatch, 1)
    out = bucketed_apply_tasks(ds, ["key"], _total).to_pandas()
    assert out["n"].tolist() == [6]
    assert bucketed_apply_tasks(ds, [], _total).to_pandas()["n"].tolist() == [6]


def test_grouped_split_preserves_bucket_row_order(ray_session, monkeypatch):
    """A fragmented input (blocks >> split groups) must reach each
    bucket fn as the CONTIGUOUS concatenation of its rows in global
    block order — grouping the split wave (bucketing._split_wave)
    chunks contiguously precisely so per-bucket row order is identical
    to an ungrouped per-block split, keeping order-sensitive bucket fns
    (LWW tie-breaks) deterministic and unchanged."""
    import ray.data

    from codetoneo4j_ray.stages.bucketing import bucketed_apply_tasks

    def _rows_in_order(df: pd.DataFrame) -> pd.DataFrame:
        # identity fn that tags arrival order within the bucket
        out = df.copy()
        out["pos"] = range(len(out))
        return out

    # 120 single-row blocks > target_blocks() = 4 split groups, so the
    # grouped path is exercised; "seq" records global block order
    frames = [
        pd.DataFrame({"key": [f"k{i % 5}"], "seq": [i]}) for i in range(120)
    ]
    ds = ray.data.from_pandas(frames)
    _force_buckets(monkeypatch, 4)
    out = (
        bucketed_apply_tasks(ds, ["key"], _rows_in_order)
        .to_pandas()
        .sort_values(["key", "pos"])
        .reset_index(drop=True)
    )
    assert len(out) == 120
    # within every key, arrival order == ascending global block order
    for _, g in out.groupby("key"):
        assert g["seq"].is_monotonic_increasing


def test_bucketed_apply_tasks_sizes_from_target_blocks(ray_session,
                                                       monkeypatch):
    """With no count, the raw-task exchange sizes its buckets from the
    input bytes, capped by target_blocks(): at most that many output
    blocks (empty buckets dropped), the same rows as the groupby path.
    A []-keyed global reduction runs in one bucket whatever
    target_blocks() says."""
    import ray.data

    from codetoneo4j_ray.stages import bucketing

    monkeypatch.setattr(bucketing, "target_blocks", lambda: 3)

    def _count_per_key(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("key", as_index=False).agg(n=("v", "sum"))

    def _total(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"n": [int(df["n"].sum())]})

    df = pd.DataFrame(
        {"key": [f"k{i % 200}" for i in range(600)], "v": range(600)}
    )

    def ds():
        return ray.data.from_pandas([df.iloc[:250], df.iloc[250:]])

    tasks = bucketing.bucketed_apply_tasks(ds(), ["key"], _count_per_key)
    assert tasks.num_blocks() <= 3
    got = tasks.to_pandas().sort_values("key").reset_index(drop=True)
    want = (
        bucketing.bucketed_apply(ds(), ["key"], _count_per_key)
        .to_pandas().sort_values("key").reset_index(drop=True)
    )
    assert len(got) == 200
    assert got.equals(want)

    total = bucketing.bucketed_apply_tasks(tasks, [], _total)
    assert total.num_blocks() == 1
    assert total.to_pandas()["n"].tolist() == [sum(range(600))]


def test_blocks_for_sizes_from_bytes(ray_session, monkeypatch):
    """blocks_for: one block per target_min_block_size of input, at
    least min_blocks, at most target_blocks(); unknown size → the cap."""
    import ray
    import ray.data

    from codetoneo4j_ray.stages import bucketing
    from codetoneo4j_ray.stages.bucketing import blocks_for, cluster_cpus

    per_block = ray.data.DataContext.get_current().target_min_block_size
    cap = bucketing.target_blocks()
    assert blocks_for(0) == 1
    assert blocks_for(10) == 1
    assert blocks_for(per_block) == 1
    assert blocks_for(per_block + 1) == 2
    assert blocks_for(10**15) == cap
    assert blocks_for(None) == cap
    assert blocks_for(10, min_blocks=3) == 3
    # a CPU-bound stage keeps one block per CPU even on tiny input
    monkeypatch.setattr(ray, "cluster_resources", lambda: {"CPU": 32.0})
    assert cluster_cpus() == 32
    assert blocks_for(10, min_blocks=cluster_cpus()) >= 32


def test_global_reduction_stays_one_bucket(ray_session, monkeypatch):
    """A []-keyed reduction runs in one bucket even when the byte rule
    would give every other exchange the cap."""
    import ray.data

    from codetoneo4j_ray.stages import bucketing

    _force_buckets(monkeypatch, 4)
    df = pd.DataFrame({"key": [f"k{i % 50}" for i in range(500)],
                       "v": range(500)})
    ds = ray.data.from_pandas([df.iloc[:250], df.iloc[250:]])
    keyed = bucketing.bucketed_apply_tasks(
        ds, ["key"], lambda d: d
    ).materialize()
    assert keyed.num_blocks() > 1
    total = bucketing.bucketed_apply_tasks(
        keyed, [], lambda d: pd.DataFrame({"n": [int(d["v"].sum())]}),
    )
    assert total.num_blocks() == 1
    assert total.to_pandas()["n"].tolist() == [sum(range(500))]


def test_coalesce_never_raises_block_count(ray_session):
    import ray.data

    from codetoneo4j_ray.stages.bucketing import coalesce

    df = pd.DataFrame({"a": range(100)})
    one = ray.data.from_pandas(df)
    assert coalesce(one, 8).materialize().num_blocks() == 1
    six = ray.data.from_pandas([df.iloc[i::6] for i in range(6)])
    merged = coalesce(six, 2).materialize()
    assert merged.num_blocks() == 2
    assert sorted(merged.to_pandas()["a"]) == list(range(100))


def test_build_writes_outputs_sized_from_records(ray_session, tmp_path):
    """A metadata-sized build writes each output in at most
    blocks_for(records bytes) files, not one per target_blocks()."""
    import os

    from codetoneo4j_ray.pipelines.build_graph import build_graph, parquet_bytes
    from codetoneo4j_ray.sources.synth import ensure_corpus
    from codetoneo4j_ray.stages.bucketing import blocks_for

    out = str(tmp_path / "kg")
    build_graph(ensure_corpus("/root/testdata/sf0.001"), out, resume=False)
    want = blocks_for(parquet_bytes(f"{out}/records"))
    for name in ("nodes", "edges", "files"):
        files = [f for f in os.listdir(f"{out}/{name}")
                 if f.endswith(".parquet")]
        assert 1 <= len(files) <= want, (name, len(files), want)
