"""Invariants of the central shuffle primitive (stages/bucketing.py).

Every exchange in the engine rides on three properties:
1. the bucket hash is a pure per-value function, identical between the
   Arrow block path (add_bucket_column) and the pandas map-side path
   (hash_bucket_series / hash_bucket_frame);
2. bucketed_apply co-locates all rows of a key in exactly one group,
   and keep_bucket re-tags outputs with ids that re-hash to themselves;
3. a BucketStore round-trips its source rows exactly, partitioned so
   that bucket k holds precisely the rows hashing to k.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from codetoneo4j_ray.stages.bucketing import (
    BucketCache,
    add_bucket_column,
    bucketed_apply,
    build_bucket_store,
    hash_bucket_frame,
    hash_bucket_series,
)

K = 16


def _arrow_buckets(values: list[str], cols: int = 1) -> list[int]:
    """Bucket ids via the Arrow block path."""
    import ray.data

    if cols == 1:
        t = pa.table({"a": pa.array(values, pa.string())})
        keys = ["a"]
    else:
        t = pa.table(
            {
                "a": pa.array([v[0] for v in values], pa.string()),
                "b": pa.array([v[1] for v in values], pa.string()),
            }
        )
        keys = ["a", "b"]
    ds = add_bucket_column(ray.data.from_arrow(t), keys, K)
    return [r["__bucket"] for r in ds.take_all()]


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(st.lists(st.text(min_size=0, max_size=12), min_size=1, max_size=20))
def test_map_side_hash_matches_arrow_path_single_key(ray_session, vals):
    got = list(hash_bucket_series(pd.Series(vals, dtype=object), K))
    assert got == _arrow_buckets(vals)


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    st.lists(
        st.tuples(
            st.text(min_size=0, max_size=8), st.text(min_size=0, max_size=8)
        ),
        min_size=1,
        max_size=15,
    )
)
def test_map_side_hash_matches_arrow_path_two_keys(ray_session, pairs):
    df = pd.DataFrame(
        {"a": [p[0] for p in pairs], "b": [p[1] for p in pairs]}
    )
    got = list(hash_bucket_frame(df, ["a", "b"], K))
    assert got == _arrow_buckets(pairs, cols=2)


def test_int_keys_hash_like_their_decimal_strings(ray_session):
    import ray.data

    ints = [0, 1, 7, 123456789, 2**40]
    t = pa.table({"a": pa.array(ints, pa.int64())})
    arrow = [
        r["__bucket"]
        for r in add_bucket_column(ray.data.from_arrow(t), ["a"], K).take_all()
    ]
    pandas_ints = list(hash_bucket_series(pd.Series(ints, dtype="int64"), K))
    pandas_strs = list(
        hash_bucket_series(pd.Series([str(i) for i in ints], dtype=object), K)
    )
    assert arrow == pandas_ints == pandas_strs


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
    rehash = hash_bucket_series(df["key"], K)
    assert list(df["__bucket"]) == list(rehash)


def test_bucket_store_round_trip_partitions_exactly(ray_session):
    import ray.data

    df = pd.DataFrame(
        {
            "key": [f"n{i}" for i in range(300)],
            "val": np.arange(300, dtype="int64"),
        }
    )
    ds = ray.data.from_pandas([df.iloc[i::3].reset_index(drop=True) for i in range(3)])
    store = build_bucket_store(ds, ["key"], K)
    cache = BucketCache(store)
    seen = []
    for k in range(K):
        part = cache.bucket_df(k)
        if part.empty:
            continue
        # bucket k holds exactly the rows whose key hashes to k
        assert set(hash_bucket_series(part["key"], K)) == {k}
        seen.append(part)
    got = (
        pd.concat(seen, ignore_index=True)
        .sort_values("key")
        .reset_index(drop=True)
    )
    exp = df.sort_values("key").reset_index(drop=True)
    pd.testing.assert_frame_equal(got[["key", "val"]], exp)


def test_bucket_cache_eviction_refetches_consistently(ray_session):
    import ray.data

    df = pd.DataFrame({"key": [f"x{i}" for i in range(64)], "v": 1})
    store = build_bucket_store(ray.data.from_pandas([df]), ["key"], K)
    cache = BucketCache(store, cap=2)
    first = {k: cache.bucket_df(k).copy() for k in range(K)}
    # everything but the last two got evicted; refetch must agree
    again = {k: cache.bucket_df(k) for k in range(K)}
    for k in range(K):
        pd.testing.assert_frame_equal(
            first[k].reset_index(drop=True), again[k].reset_index(drop=True)
        )


def test_assign_order_ids_dense_and_order_preserving(ray_session):
    import ray.data

    from codetoneo4j_ray.pipelines.graph_ops import assign_order_ids

    vals = [f"s{i:03d}" for i in range(157)]
    rng = np.random.default_rng(3)
    shuffled = list(rng.permutation(vals))
    ds = ray.data.from_pandas(
        [
            pd.DataFrame({"node": shuffled[i::5]})
            for i in range(5)
        ]
    )
    ids = assign_order_ids(ds).to_pandas().sort_values("node")
    assert list(ids["nid"]) == list(range(157))
    assert list(ids["node"]) == sorted(vals)


def test_bucketed_apply_empty_input(ray_session):
    import ray.data

    ds = ray.data.from_pandas(
        [pd.DataFrame({"key": pd.Series([], dtype=object)})]
    )
    out = bucketed_apply(ds, ["key"], lambda df: df, K)
    assert out.count() == 0


def test_bucket_store_consolidates_multi_block_input(ray_session):
    """A store built from a multi-block dataset must hold ONE object per
    bucket (ref count per handle = num_buckets, not blocks x buckets):
    the handle rides inside every consumer map task, and per-task
    ObjectRef registration once dominated iterative op wall time."""
    import ray
    import ray.data

    from codetoneo4j_ray.stages.bucketing import BucketCache, build_bucket_store

    ds = ray.data.from_pandas(
        [pd.DataFrame({"key": [f"k{i}-{b}" for i in range(50)]}) for b in range(6)]
    )
    store = build_bucket_store(ds, ["key"], K)
    assert all(len(p) == 1 for p in store.pieces)
    # content unchanged by consolidation: every input row in exactly one bucket
    total = sum(len(BucketCache(store).bucket_df(k)) for k in range(K))
    assert total == 300


def test_bucketed_apply_tasks_matches_groupby_path(ray_session):
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
    b = (
        bucketed_apply_tasks(ds2, ["key"], _count_per_key, K)
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
    out = bucketed_apply_tasks(ds, ["key"], _count_per_key, K)
    assert out.count() == 0


def test_bucketed_apply_tasks_single_bucket(ray_session):
    """num_buckets=1 regression: Ray's num_returns=1 yields a bare
    ObjectRef whose value is the whole return — the split task must
    return the piece itself, not a 1-tuple."""
    import ray.data

    from codetoneo4j_ray.stages.bucketing import bucketed_apply_tasks

    def _total(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"n": [int(df["v"].sum())]})

    ds = ray.data.from_pandas(
        pd.DataFrame({"key": ["a", "b", "a"], "v": [1, 2, 3]})
    )
    out = bucketed_apply_tasks(ds, [], _total, num_buckets=1).to_pandas()
    assert out["n"].tolist() == [6]


def test_grouped_split_preserves_bucket_row_order(ray_session):
    """A fragmented input (blocks >> split groups) must reach each
    bucket fn as the CONTIGUOUS concatenation of its rows in global
    block order — grouping the split wave (bucketing.build_bucket_store)
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

    # 120 single-row blocks > target_blocks() in the 4-CPU test session,
    # so the grouped path is exercised; "seq" records global block order
    frames = [
        pd.DataFrame({"key": [f"k{i % 5}"], "seq": [i]}) for i in range(120)
    ]
    ds = ray.data.from_pandas(frames)
    out = (
        bucketed_apply_tasks(ds, ["key"], _rows_in_order, 4)
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
    """With no count, the raw-task exchange uses target_blocks() buckets:
    at most that many output blocks (empty buckets dropped), the same
    rows as the groupby path. A []-keyed global reduction runs in one
    bucket whatever target_blocks() says."""
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
