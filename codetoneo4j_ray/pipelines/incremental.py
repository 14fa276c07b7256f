"""Incremental rebuild — the reference's ``--diff-base`` analog.

The reference restarts with a git-diff filter and marks deleted files
(``SolutionProcessor.cs:82-97,301-324``, ``Cypher/MarkFileAsDeleted.cypher``).
For a Parquet corpus the equivalent is a content diff against the prior
run's per-file records:

  changed  = handled rows whose sha256 differs from (or is absent in)
             the prior file records → re-extracted (stage 1 on the delta)
  deleted  = prior file records' (repo, path) absent from the new corpus
             → their records dropped; tombstoned in files/ and listed
             in the run manifest
  carried  = everything else        → prior records reused verbatim

The incremental files/ table carries ``deleted`` / ``deleted_at``
columns (``Cypher/MarkFileAsDeleted.cypher:1-5``,
``SolutionProcessor.cs:84-92``): live rows are deleted=false /
deleted_at=null; a deleted file keeps its prior-run properties as a
tombstone row with deleted=true and the run's timestamp. Tombstones
chain: a file deleted two runs ago stays tombstoned with its ORIGINAL
deleted_at; a tombstoned file that reappears in the corpus is
re-extracted and returns to live (the tombstone drops). A fresh full
build (new index) has no tombstones and keeps the base schema.

Stage 1 cost scales with the delta, not the corpus (the full-corpus
type-index skim overlaps the diff). Stages 2–4 rerun over the merged
in-memory records (metadata-sized) through ``build_graph.write_graph``,
the full build's raw-task tail, which writes ``records/`` in the
background; the tombstone rows join each files range in its reduce
task, after the LWW dedup (``_files_with_tombstones``).
"""

from __future__ import annotations

import functools
import os
import time

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray
import ray.data

from codetoneo4j_ray.extractors.accessibility import DEFAULT_MIN_ACCESSIBILITY
from codetoneo4j_ray.functions.text import sha256_hex
from codetoneo4j_ray.pipelines.build_graph import (
    _block_refs,
    corpus_content_bytes,
    read_corpus_pinned,
    read_parquet_sized,
    read_records,
    resolve_mode,
    write_graph,
)
from codetoneo4j_ray.stages.extract import (
    RECORD_SCHEMA,
    build_type_index,
    extract_records,
    extract_records_partitioned,
    has_handler,
)
from codetoneo4j_ray.stages.materialize import finalize_files
from codetoneo4j_ray.state.manifest import corpus_fingerprint, write_manifest


def _joined_keys(keys: set[tuple[str, str]]) -> pa.Array:
    """(repo, path) set → Arrow string array for vectorized pc.is_in."""
    return pa.array([f"{r}\x00{p}" for r, p in keys], pa.string())


def _join_cols(batch: pa.Table) -> pa.Array:
    return pc.binary_join_element_wise(batch["repo"], batch["path"], "\x00")


def _diff_vs_prior(
    corpus: ray.data.Dataset, prior_out_dir: str
) -> tuple[set[tuple[str, str]], list[tuple[str, str]],
           list[tuple[str, str, int]]]:
    """Bucketed (repo, path) diff of corpus sha256 vs the prior run.

    A distributed anti/semi-join — neither the corpus universe nor the
    prior file table is ever collected on the driver; only the *diff*
    (changed + deleted + carried-tombstone keys, delta-sized by
    definition) comes back. Three sides meet in each bucket:

      c = current corpus rows some handler takes (the others yield no
          records, so they are never changed, carried or dropped)
      p = the prior run's file records, one per extracted (repo, path)
          (not the files table: it keeps one row per file key, and
          repo-less keys such as ``client/package.json`` recur across
          repos, so every other repo's copy would count as changed)
      t = the prior files table's tombstones
      changed   = c absent from p, or present with a different sha —
                  includes resurrections (c matching only a tombstone)
      deleted   = p absent from c (newly deleted this run)
      tombstone = t absent from c (stays deleted; original deleted_at
                  rides along so the stamp never refreshes)

    Returns (changed_keys, deleted_keys sorted,
    carried_tombstones sorted [(repo, path, deleted_at_sec)])."""
    import pandas as pd

    from codetoneo4j_ray.stages.bucketing import bucketed_apply_tasks

    def side_rows(batch: pa.Table, side: str, sha256,
                  deleted_at=None) -> pa.Table:
        n = batch.num_rows
        return pa.table(
            {
                "repo": batch["repo"],
                "path": batch["path"],
                "sha256": sha256,
                "deleted_at": (pa.nulls(n, pa.int64()) if deleted_at is None
                               else deleted_at),
                "side": pa.array([side] * n, pa.string()),
            }
        )

    def cur_meta(batch: pa.Table) -> pa.Table:
        batch = batch.filter(
            pa.array([has_handler(p) for p in batch["path"].to_pylist()],
                     pa.bool_())
        )
        shas = [sha256_hex(c) for c in batch["content"].to_pylist()]
        return side_rows(batch, "c", pa.array(shas, pa.string()))

    def prior_live(batch: pa.Table) -> pa.Table:
        return side_rows(batch, "p", batch["sha256"])

    def prior_tombs(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.fill_null(batch["deleted"], False))
        return side_rows(batch, "t", batch["sha256"],
                         pc.cast(batch["deleted_at"], pa.int64()))

    cur = corpus.map_batches(cur_meta, batch_format="pyarrow")
    prior = read_records(f"{prior_out_dir}/records", "file").map_batches(
        prior_live, batch_format="pyarrow"
    )
    prior_files = read_parquet_sized(f"{prior_out_dir}/files")
    if "deleted" in prior_files.schema().names:
        prior = prior.union(
            prior_files.map_batches(prior_tombs, batch_format="pyarrow")
        )

    def diff(df: pd.DataFrame) -> pd.DataFrame:
        c = df[df["side"] == "c"]
        p = df[df["side"] == "p"]
        t = df[df["side"] == "t"]
        m = c.merge(p[["repo", "path", "sha256"]], on=["repo", "path"],
                    how="outer", suffixes=("_c", "_p"), indicator=True)
        changed = m[
            (m["_merge"] == "left_only")
            | ((m["_merge"] == "both") & (m["sha256_c"] != m["sha256_p"]))
        ]
        deleted = m[m["_merge"] == "right_only"]
        if len(t):
            tm = t.merge(c[["repo", "path"]], on=["repo", "path"],
                         how="left", indicator=True)
            tomb = tm[tm["_merge"] == "left_only"]
        else:
            tomb = t
        import numpy as np

        return pd.DataFrame(
            {
                "repo": pd.concat(
                    [changed["repo"], deleted["repo"], tomb["repo"]],
                    ignore_index=True,
                ).to_numpy(),
                "path": pd.concat(
                    [changed["path"], deleted["path"], tomb["path"]],
                    ignore_index=True,
                ).to_numpy(),
                "status": ["changed"] * len(changed)
                + ["deleted"] * len(deleted) + ["tomb"] * len(tomb),
                "deleted_at": np.concatenate([
                    np.full(len(changed) + len(deleted), -1, dtype=np.int64),
                    tomb["deleted_at"].to_numpy(dtype=np.int64)
                    if len(tomb) else np.array([], dtype=np.int64),
                ]),
            }
        )

    out = bucketed_apply_tasks(cur.union(prior), ["repo", "path"], diff).to_pandas()
    if "status" not in out.columns:
        return set(), [], []
    changed = set(
        zip(out.loc[out["status"] == "changed", "repo"],
            out.loc[out["status"] == "changed", "path"])
    )
    deleted = sorted(
        zip(out.loc[out["status"] == "deleted", "repo"],
            out.loc[out["status"] == "deleted", "path"])
    )
    t_rows = out.loc[out["status"] == "tomb"]
    tombstones = sorted(
        (r, p_, int(d))
        for r, p_, d in zip(t_rows["repo"], t_rows["path"],
                            t_rows["deleted_at"])
    )
    return changed, deleted, tombstones


def _tombstone_blocks(
    prior_files_dir: str,
    deleted: list[tuple[str, str]],
    carried_tombs: list[tuple[str, str, int]],
    deleted_at_sec: int | None,
) -> list:
    """Pinned blocks of tombstone rows (``MarkFileAsDeleted.cypher:1-5``):
    a deleted file keeps its prior-run properties with deleted=true and
    its deletion stamp (new deletions get this run's stamp; carried
    tombstones keep their original). Tombstone props come from a
    broadcast-filtered scan of the prior files table — the broadcast is
    the delta-sized key set, never a file table. No deletions → []."""
    import time

    run_ts = int(time.time()) if deleted_at_sec is None else int(deleted_at_sec)
    stamp = {(r, p): run_ts for r, p in deleted}
    stamp.update({(r, p): ts for r, p, ts in carried_tombs})
    if not stamp:
        return []
    keys_ref = ray.put(_joined_keys(set(stamp)))
    stamp_ref = ray.put(stamp)

    def tomb_rows(batch: pa.Table) -> pa.Table:
        from codetoneo4j_ray.stages.link import _cached_get

        keys: pa.Array = _cached_get(keys_ref)
        sel = batch.filter(pc.is_in(_join_cols(batch), value_set=keys))
        n = sel.num_rows
        stamps: dict = _cached_get(stamp_ref)
        ts = [stamps[(r, p)] for r, p in
              zip(sel["repo"].to_pylist(), sel["path"].to_pylist())]
        out = finalize_files(sel)
        out = out.append_column("deleted", pa.array([True] * n, pa.bool_()))
        return out.append_column("deleted_at", pa.array(ts, pa.int64()))

    return _block_refs(read_parquet_sized(prior_files_dir).map_batches(
        tomb_rows, batch_format="pyarrow"
    ).materialize())


def _files_with_tombstones(tomb_blocks: list, live: pa.Table | None,
                           in_range) -> pa.Table | None:
    """One files range of an incremental build (``write_graph``'s
    ``files_post``): the live rows, deleted=false / deleted_at=null,
    plus the tombstone rows whose key the range owns, sorted by key
    (live rows first among equal keys)."""
    parts = []
    if live is not None:
        n = live.num_rows
        parts.append(
            live.append_column("deleted", pa.array([False] * n, pa.bool_()))
            .append_column("deleted_at", pa.nulls(n, pa.int64())))
    if tomb_blocks:
        parts += [t.filter(in_range(t["key"])) for t in ray.get(tomb_blocks)]
    if not parts:
        return None
    out = pa.concat_tables(parts)
    return out.take(pc.sort_indices(out, sort_keys=[("key", "ascending")]))


def build_graph_incremental(
    input_path: str,
    prior_out_dir: str,
    out_dir: str,
    min_accessibility: str = DEFAULT_MIN_ACCESSIBILITY,
    packages_path: str | None = None,
    no_key: bool = False,
    batch_size: int | None = None,
    deleted_at_sec: int | None = None,
) -> dict:
    """Rebuild against a prior run: extract only changed files.

    ``packages_path`` and ``no_key`` must match the full run's — the
    incremental==full contract includes the URL side-table lookups and
    the key scheme of re-extracted files (a mixed-key graph would stop
    linking carried and re-extracted symbols).

    ``deleted_at_sec`` stamps this run's NEW tombstones (defaults to the
    wall clock); carried tombstones keep their original stamp.
    """
    if os.path.realpath(out_dir) == os.path.realpath(prior_out_dir):
        raise ValueError(
            "out_dir must differ from prior_out_dir: the carried-records "
            "read is lazy, and rebuilding in place would delete the prior "
            "checkpoint before it is read"
        )
    t0 = time.perf_counter()
    fp = corpus_fingerprint(input_path, {
        "incremental": True, "min_accessibility": min_accessibility,
        "packages": packages_path, "no_key": no_key,
        "prior": os.path.realpath(prior_out_dir),
    })
    pkg_meta = None
    if packages_path is not None:
        from codetoneo4j_ray.stages.extract import load_pkg_meta

        pkg_meta = load_pkg_meta(packages_path)
    content_bytes = corpus_content_bytes(input_path)
    corpus = read_corpus_pinned(input_path, content_bytes)
    # pass-A type index over the FULL corpus: a changed file may reference
    # types/namespaces declared in unchanged files (receiver typing, base
    # chains, global usings) — the incremental==full contract requires the
    # same compilation-wide knowledge the reference re-opens per run
    # (SolutionProcessor.cs:256-279). Stage-1 *parse* cost still scales
    # with the delta; the skim is the cheap declaration pass. The index
    # (and stage 2's) is corpus-sized, so the path follows build_graph's
    # choice.
    mode = resolve_mode(content_bytes)
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=1) as pool:
        # the broadcast skim needs no diff result: overlap the two
        fut_diff = pool.submit(_diff_vs_prior, corpus, prior_out_dir)
        indices = build_type_index(corpus) if mode == "broadcast" else None
        changed, deleted, carried_tombs = fut_diff.result()

    # re-extract only the changed rows (broadcast of the *delta* key set —
    # bounded by the diff size, never the corpus)
    changed_ref = ray.put(_joined_keys(changed))

    def changed_only(batch: pa.Table) -> pa.Table:
        from codetoneo4j_ray.stages.link import _cached_get

        keys: pa.Array = _cached_get(changed_ref)
        joined = _join_cols(batch)
        return batch.filter(pc.is_in(joined, value_set=keys))

    delta = corpus.map_batches(changed_only, batch_format="pyarrow")

    stale = changed | set(deleted) | {(r, p) for r, p, _ in carried_tombs}
    stale_ref = ray.put(_joined_keys(stale))

    if mode == "partitioned":
        new_records = extract_records_partitioned(
            delta, min_accessibility, pkg_meta=pkg_meta, no_key=no_key,
            index_corpus=corpus,
        )
    else:
        new_records = extract_records(delta, indices, min_accessibility,
                                      pkg_meta=pkg_meta, no_key=no_key,
                                      batch_size=batch_size)

    def drop_stale(batch: pa.Table) -> pa.Table:
        from codetoneo4j_ray.stages.link import _cached_get

        stale_keys: pa.Array = _cached_get(stale_ref)
        joined = _join_cols(batch)
        return batch.filter(pc.invert(pc.is_in(joined, value_set=stale_keys)))

    carried = read_records(f"{prior_out_dir}/records").map_batches(
        drop_stale, batch_format="pyarrow"
    )
    if changed:
        # both stage-1 paths emit RECORD_SCHEMA; partition-column reads
        # reorder columns, so align the carried side before the union
        merged = new_records.union(carried.select_columns(RECORD_SCHEMA.names))
    else:
        # empty delta → extraction yields a schemaless empty dataset
        # (Ray drops all-empty schemas); carry the prior records alone
        merged = carried

    metrics: dict = {
        "changed_files": len(changed),
        "deleted_files": len(deleted),
        "deleted": [f"{r}:{p}" for r, p in deleted][:1000],
    }
    tomb_blocks = _tombstone_blocks(f"{prior_out_dir}/files", deleted,
                                    carried_tombs, deleted_at_sec)
    metrics.update(write_graph(
        out_dir, fp, mode, no_key, merged, t0,
        files_post=functools.partial(_files_with_tombstones, tomb_blocks),
    ))
    # counted from the output: a deleted (repo, path) whose file key
    # another repo still holds leaves no tombstone row
    metrics["tombstones"] = pc.sum(
        pq.read_table(f"{out_dir}/files", columns=["deleted"])["deleted"]
    ).as_py() if metrics["files"] else 0
    write_manifest(out_dir, "graph", fp, metrics)
    return metrics
