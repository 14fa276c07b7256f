"""Stage 3 — canonicalization (global dedup), as a range-partitioned
raw-task exchange.

Reproduces Neo4j MERGE semantics:
  - nodes:  ``MERGE (n:src__Symbol {key}) SET …`` = one row per key,
    last-writer-wins (``Cypher/UpsertSymbols.cypher:2``). The reference's
    winner is nondeterministic (parallel flush order); we use a
    deterministic tie-break: max row under _TIEBREAK.
  - edges:  ``apoc.merge.relationship`` = distinct (subj, pred, obj)
    (``Cypher/MergeRelationships.cypher:4``).

Both dedups run in one exchange with the output's sort:
  1. map side, per input block — :func:`canonical` (sort + dedup)
     collapses hot keys (``pkg:*`` deps and ``System.*`` targets appear
     once per *file*) before anything moves, then :func:`split_ranges`
     cuts the block into one piece per key range;
  2. one :func:`reduce_range` task per range concatenates its pieces,
     runs :func:`canonical` again and writes ``part-{k:05d}.parquet``.

The ranges come from fixed bounds: :func:`range_bounds` over the
bounded per-block samples of :func:`key_sample`. :func:`range_ids` is a
pure function of the split column, so every row of a key (and every
copy of an edge, which shares its subj) lands in one range and the
per-range reduce is globally exact. Ranges are ordered by key and each
part is sorted, so the parts read back in name order are globally
sorted. The bounds only decide balance, never the result.

:func:`sorted_fold` runs the same exchange for any per-key fold with a
sorted output, returning the ranges as pinned blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray

from codetoneo4j_ray.stages.bucketing import (
    Blocks,
    blocks_for,
    load_block,
    split_by_ids,
)

# Total tie-break order: replicated exactly in the DuckDB oracles.
_TIEBREAK = ["path", "start_line", "end_line", "repo", "namespace", "kind", "accessibility"]
_FILE_TIEBREAK = ["path", "repo"]

# Sampled keys per output the driver holds (in expectation) to place
# the range bounds; one block never returns more than twice this.
SAMPLE_KEYS = 4096


@dataclass(frozen=True)
class Canon:
    """How one output is canonicalized: ``split`` is the column its
    ranges split on, ``order`` its full sort order (``split`` first),
    and the last row of each run of equal ``unique`` columns survives."""

    split: str
    order: tuple
    unique: tuple


NODES = Canon("key", ("key", *_TIEBREAK), ("key",))
FILES = Canon("key", ("key", *_FILE_TIEBREAK), ("key",))
EDGES = Canon("subj", ("subj", "pred", "obj"), ("subj", "pred", "obj"))


def canonical(table: pa.Table, canon: Canon) -> pa.Table:
    """``table`` sorted by ``canon.order`` with one row per ``canon.unique``
    value: the last in sort order (the LWW winner; for edges, where
    ``unique`` is every column, a plain distinct).

    Nulls sort first, matching the oracle's ORDER BY … DESC under
    DuckDB's default NULLS LAST (null = smallest), so a NULL-tiebreak row
    never beats a non-NULL one. The sort is stable."""
    if not table.num_rows:
        return table
    table = _sorted(table, canon.order)
    dup = (table.select(list(canon.unique)).to_pandas()
           .duplicated(keep="last").to_numpy())
    return table.filter(pa.array(~dup)) if dup.any() else table


def _sorted(table: pa.Table, order) -> pa.Table:
    """``table`` in a stable sort by the columns ``order``, nulls first."""
    return table.take(pc.sort_indices(
        table, sort_keys=[(c, "ascending") for c in order],
        null_placement="at_start"))


def key_sample(keys, rate: float) -> np.ndarray:
    """Sorted sample of the non-null ``keys`` (of any one orderable
    type) whose hash falls below ``rate`` — a pure function of each
    key, so the union over blocks is the same however the rows are
    blocked — thinned evenly to at most 2 × ``SAMPLE_KEYS``. ``rate`` =
    ``SAMPLE_KEYS`` / rows keeps the driver's total near
    ``SAMPLE_KEYS``. Numeric keys stay in their numpy type (strings
    come out as objects), so a numeric sample costs no Python object
    per key."""
    v = pc.drop_null(keys).to_numpy(zero_copy_only=False)
    if rate < 1.0:
        h = pd.util.hash_array(v, categorize=False)
        v = v[h < np.uint64(int(rate * 2**64))]
    v = np.sort(v)
    cap = 2 * SAMPLE_KEYS
    if len(v) > cap:
        v = v[np.linspace(0, len(v) - 1, cap).astype(int)]
    return v


def range_bounds(samples: list[np.ndarray], num_ranges: int) -> np.ndarray:
    """At most ``num_ranges - 1`` sorted, distinct bounds at the
    quantiles of the pooled samples; an output has ``len(bounds) + 1``
    ranges (one when there is nothing to split)."""
    pooled = [s for s in samples if s is not None and len(s)]
    if num_ranges <= 1 or not pooled:
        return np.array([], dtype=object)
    s = np.sort(np.concatenate(pooled))
    picks = s[(np.arange(1, num_ranges) * len(s)) // num_ranges]
    return np.unique(picks)


def range_ids(keys, bounds: np.ndarray) -> np.ndarray:
    """Range of each key: the count of bounds ≤ key (nulls go to 0).
    Keys and bounds share one orderable type (strings compare by code
    point, as DuckDB's ORDER BY does)."""
    ids = np.zeros(len(keys), dtype=np.int64)
    if len(bounds):
        valid = pc.is_valid(keys).to_numpy(zero_copy_only=False)
        v = pc.drop_null(keys).to_numpy(zero_copy_only=False)
        ids[valid] = np.searchsorted(bounds, v, side="right")
    return ids


def split_ranges(table: pa.Table | None, col: str,
                 bounds: np.ndarray) -> list:
    """``table`` cut into ``len(bounds) + 1`` pieces by :func:`range_ids`
    of ``col``; an empty piece is None."""
    ids = None if table is None else range_ids(table[col], bounds)
    return split_by_ids(table, ids, len(bounds) + 1)


def owned_by(bounds: np.ndarray, k: int, keys) -> pa.Array:
    """Mask of the ``keys`` that range ``k`` of ``bounds`` owns."""
    return pa.array(range_ids(keys, bounds) == k)


@ray.remote
def reduce_range(canon: Canon, path: str, post, in_range, *pieces) -> int:
    """One range of one output: :func:`canonical` over its pieces, then
    ``post(table or None, in_range)`` when given, where
    ``in_range(keys)`` masks the keys the range owns (``owned_by`` bound
    to the output's bounds and the range). A non-empty result is
    written to ``path`` (a range with no rows writes no file); returns
    its rows."""
    tabs = [t for t in pieces if t is not None and t.num_rows]
    # permissive: pieces can disagree on all-null column types
    table = (canonical(pa.concat_tables(tabs, promote_options="permissive"),
                       canon) if tabs else None)
    if post is not None:
        table = post(table, in_range)
    rows = table.num_rows if table is not None else 0
    if rows:
        pq.write_table(table, path)
    return rows


@ray.remote
def _range_sample(block, col: str, rate: float) -> np.ndarray:
    return key_sample(load_block(block)[col], rate)


@ray.remote
def _range_split(block, col: str, bounds: np.ndarray):
    return tuple(split_ranges(load_block(block), col, bounds))


@ray.remote(num_returns=2)
def _fold_range(fold, order, *pieces):
    """One range of :func:`sorted_fold`, as (table or None, sizes)."""
    tabs = [t for t in map(load_block, pieces) if t is not None and t.num_rows]
    if not tabs:
        return None, (0, 0)
    table = fold(pa.concat_tables(tabs, promote_options="permissive"))
    if isinstance(table, pd.DataFrame):
        table = pa.Table.from_pandas(table, preserve_index=False)
    if not table.num_rows:  # an empty frame's object columns are null-type
        return None, (0, 0)
    table = _sorted(table, order)
    return table, (table.num_rows, table.nbytes)


def sorted_fold(blocks: Blocks, order, fold) -> Blocks:
    """``fold(table)`` (an Arrow table in, a table or pandas frame out)
    per key range of ``blocks``, then a stable sort by the columns
    ``order``, nulls first: the non-empty ranges come back in key order,
    so the blocks are globally sorted. ``blocks_for(input bytes)``
    ranges split on ``order[0]``, so a fold keyed on columns that
    include it is exact: a sample wave places the bounds and one split
    task per block cuts it; one range has neither."""
    col, num_ranges = order[0], blocks_for(blocks.nbytes)
    bounds = range_bounds([] if num_ranges == 1 else ray.get([
        _range_sample.remote(b, col, min(1.0, SAMPLE_KEYS / blocks.rows))
        for b in blocks.refs]), num_ranges)
    if len(bounds):
        split = _range_split.options(num_returns=len(bounds) + 1)
        pieces = [split.remote(b, col, bounds) for b in blocks.refs]
    else:
        pieces = [[b] for b in blocks.refs]
    refs = [_fold_range.remote(fold, order, *[p[k] for p in pieces])
            for k in range(len(bounds) + 1)]
    return Blocks.of([t for t, _ in refs], ray.get([s for _, s in refs]))
