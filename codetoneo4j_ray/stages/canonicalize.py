"""Stage 3 — canonicalization (global dedup).

Reproduces Neo4j MERGE semantics:
  - nodes:  ``MERGE (n:src__Symbol {key}) SET …`` = one row per key,
    last-writer-wins (``Cypher/UpsertSymbols.cypher:2``). The reference's
    winner is nondeterministic (parallel flush order); we use a
    deterministic tie-break: max row under _TIEBREAK.
  - edges:  ``apoc.merge.relationship`` = distinct (subj, pred, obj)
    (``Cypher/MergeRelationships.cypher:4``).

Both dedups fuse into the output's range-partitioned sort, two phases:
  1. map-side combine — per-batch dedup collapses hot keys (``pkg:*``
     deps and ``System.*`` targets appear once per *file*) before any
     shuffle, so no reducer sees more than one row per key per block;
  2. per-block reduce after the sort — equal keys share a sort block,
     so each block dedups vectorized in pandas, instead of one Python
     call per key.
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa
import ray.data

from codetoneo4j_ray.stages.bucketing import coalesce, target_blocks

# Total tie-break order: replicated exactly in the DuckDB oracles.
_TIEBREAK = ["path", "start_line", "end_line", "repo", "namespace", "kind", "accessibility"]
_FILE_TIEBREAK = ["path", "repo"]


def _winner_last(df: pd.DataFrame, key: str, order: list[str]) -> pd.DataFrame:
    # na_position='first' makes NULL the minimum, matching the oracle's
    # ORDER BY … DESC under DuckDB's default NULLS LAST (null = smallest);
    # pandas' default ('last') would let a NULL-tiebreak row win instead
    df = df.sort_values([key] + order, kind="stable", na_position="first")
    return df.drop_duplicates(subset=[key], keep="last")


def lww_sorted(
    ds: ray.data.Dataset, key: str, order: list[str],
    num_blocks: int | None = None,
) -> ray.data.Dataset:
    """Exact LWW dedup fused into the output sort — ONE exchange.

    Ray's range-partitioned sort assigns every row with equal sort-key to
    the same reduce partition (boundary assignment is a pure function of
    the value), and each sort reduce emits exactly one block per
    partition (``sort_task_spec.py:148-161`` → ``merge_sorted_blocks``,
    no dynamic splitting). So after ``sort(key)`` every equal-key run is
    fully contained in one block, and a per-block (batch_size=None)
    vectorized winner-pick is globally exact. Map-side combine first so
    hot keys collapse to ≤1 row per input block before the shuffle.

    The sort runs in at most ``num_blocks`` blocks (default
    ``target_blocks()``); the build passes ``blocks_for`` of the pinned
    records' bytes.
    """

    def winner(batch: pa.Table) -> pa.Table:
        df = _winner_last(batch.to_pandas(), key, order)
        return pa.Table.from_pandas(df, preserve_index=False, schema=batch.schema)

    # coalesce is a cheap block merge (no all-to-all) — without it the
    # sort inherits one reduce partition per upstream block and the
    # shuffle-object count grows quadratically
    return (
        coalesce(ds.map_batches(winner, batch_format="pyarrow"),
                 num_blocks or target_blocks())
        .sort(key)
        .map_batches(winner, batch_format="pyarrow", batch_size=None)
    )


def distinct_sorted(
    edges: ray.data.Dataset, num_blocks: int | None = None
) -> ray.data.Dataset:
    """Exact distinct (subj, pred, obj) fused into the output sort — ONE
    exchange (same equal-keys-share-a-block argument and block count as
    lww_sorted)."""

    def local(batch: pa.Table) -> pa.Table:
        df = batch.select(["subj", "pred", "obj"]).to_pandas().drop_duplicates()
        return pa.Table.from_pandas(df, preserve_index=False)

    def block_distinct(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas().drop_duplicates()
        return pa.Table.from_pandas(df, preserve_index=False, schema=batch.schema)

    return (
        coalesce(edges.map_batches(local, batch_format="pyarrow"),
                 num_blocks or target_blocks())
        .sort(["subj", "pred", "obj"])
        .map_batches(block_distinct, batch_format="pyarrow", batch_size=None)
    )
