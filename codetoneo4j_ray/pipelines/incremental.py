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

Every step is a raw-task wave over pinned blocks, as in the full build:

  read     the corpus blocks (``build_graph.read_corpus_blocks``), and
           the prior file records and tombstones (raw read tasks)
  diff     one task per corpus block returns its handled files'
           (repo, path, sha256) (``_current_side``), which meet the
           prior sides in ``_diff``, a (repo, path)-bucketed exchange
  stage 1  ``build_graph.extract_corpus``, the full build's stage-1
           driver, handed the delta:
  pass A   the skim of the changed files only (the changed-key filter
           runs inside the skim tasks), plus raw read tasks over the
           prior run's ``type_index/`` that drop the stale keys
           (changed, deleted and carried tombstones); both write their
           rows as this run's ``type_index/`` and feed the type-index
           store. The skim is a per-row function of (repo, path,
           content), every path it reads has a handler (so it is on the
           diff's current side), and assembly sorts its rows, so the
           carried and fresh rows give the per-repo indices a full skim
           gives
  pass B   extraction of the changed files only (the changed-key filter
           runs inside the tasks, which load their block's repos' type
           indices as in the full build); the carried records come from
           raw read tasks over the prior checkpoint, which drop the
           stale keys; the tombstone rows from raw read tasks over
           the prior files/
  tail     ``build_graph.write_graph``, the full build's raw-task tail,
           whose scan wave writes ``records/``; the tombstone rows join
           each files range in its reduce task, after the LWW dedup
           (``_files_with_tombstones``).

Stage-1 parse cost (pass A and pass B) scales with the delta, not the
corpus; what still reads every corpus row is the sha256 of the diff.
The prior output must hold a complete ``type_index/`` (every build
writes one) and a graph manifest with its records' fingerprint;
without them the rebuild raises and asks for a full build.
"""

from __future__ import annotations

import functools
import os
import time

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray

from codetoneo4j_ray.extractors.accessibility import DEFAULT_MIN_ACCESSIBILITY
from codetoneo4j_ray.functions.text import sha256_hex
from codetoneo4j_ray.pipelines.build_graph import (
    TYPE_INDEX,
    StageWalls,
    extract_corpus,
    read_corpus_blocks,
    read_records_blocks,
    write_graph,
)
from codetoneo4j_ray.stages.bucketing import (
    Blocks,
    ParquetSlice,
    bucketed_apply_tasks,
    parquet_files,
    plan_reads,
    read_blocks,
)
from codetoneo4j_ray.stages.extract import (
    filter_keys,
    has_handler,
    joined_keys,
)
from codetoneo4j_ray.stages.materialize import finalize_files
from codetoneo4j_ray.state.manifest import (
    corpus_fingerprint,
    read_manifest,
    write_manifest,
)


def _side_rows(side: str, table: pa.Table, sha256=None,
               deleted_at=None) -> pa.Table:
    """One side of the diff: (repo, path, sha256, deleted_at, side)."""
    n = table.num_rows
    return pa.table({
        "repo": table["repo"],
        "path": table["path"],
        "sha256": table["sha256"] if sha256 is None else sha256,
        "deleted_at": (pa.nulls(n, pa.int64()) if deleted_at is None
                       else deleted_at),
        "side": pa.array([side] * n, pa.string()),
    })


def _current_side(block: pa.Table) -> pa.Table:
    """c: the corpus rows some handler takes (the others yield no
    records, so they are never changed, carried or dropped), one raw
    task per corpus block."""
    block = block.filter(pa.array(
        [has_handler(p) for p in block["path"].to_pylist()], pa.bool_()))
    return _side_rows("c", block, pa.array(
        [sha256_hex(c) for c in block["content"].to_pylist()], pa.string()))


def _tombstone_side(table: pa.Table) -> pa.Table:
    """t: the prior files table's tombstone rows."""
    table = table.filter(pc.fill_null(table["deleted"], False))
    return _side_rows("t", table,
                      deleted_at=pc.cast(table["deleted_at"], pa.int64()))


def _prior_sides(prior_out_dir: str) -> Blocks:
    """The diff's prior sides, read by raw tasks: p, the prior run's
    file records, one per extracted (repo, path) (not the files table:
    it keeps one row per file key, and repo-less keys such as
    ``client/package.json`` recur across repos, so every other repo's
    copy would count as changed); t, the prior files table's
    tombstones (when it has the ``deleted`` column)."""
    prior = read_records_blocks(f"{prior_out_dir}/records", "file",
                                functools.partial(_side_rows, "p"))
    files_dir = f"{prior_out_dir}/files"
    if "deleted" in pq.read_schema(parquet_files(files_dir)[0]).names:
        prior += read_blocks(plan_reads(files_dir), _tombstone_side)
    return prior


def _prior_type_index(prior_out_dir: str) -> list[ParquetSlice]:
    """Read slices over the prior run's ``type_index/``, which must be
    whole: its manifest's part count matches the directory, and its
    fingerprint, and the graph manifest's (stages 2–4 drop it first, so
    a build cut short there leaves none), the records manifest's.
    Anything else, such as an output written before builds kept their
    type index, raises a ValueError."""
    path = f"{prior_out_dir}/{TYPE_INDEX}"
    meta = read_manifest(prior_out_dir, TYPE_INDEX)
    records = read_manifest(prior_out_dir, "records")
    graph = read_manifest(prior_out_dir, "graph")
    parts = parquet_files(path) if os.path.isdir(path) else []
    if (meta is None or records is None or graph is None
            or meta["fingerprint"] != records["fingerprint"]
            or graph["fingerprint"] != records["fingerprint"]
            or meta["metrics"]["parts"] != len(parts)):
        raise ValueError(
            f"{path} or the prior's graph outputs are missing or "
            "incomplete: an incremental rebuild needs a whole prior run; "
            "run a full build (build_graph) into the prior output first")
    return plan_reads(path)


def _diff_bucket(df: pd.DataFrame) -> pd.DataFrame:
    """One (repo, path) bucket of the diff (see :func:`_diff`)."""
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
    return pd.DataFrame({
        "repo": pd.concat([changed["repo"], deleted["repo"], tomb["repo"]],
                          ignore_index=True).to_numpy(),
        "path": pd.concat([changed["path"], deleted["path"], tomb["path"]],
                          ignore_index=True).to_numpy(),
        "status": ["changed"] * len(changed)
        + ["deleted"] * len(deleted) + ["tomb"] * len(tomb),
        "deleted_at": np.concatenate([
            np.full(len(changed) + len(deleted), -1, dtype=np.int64),
            tomb["deleted_at"].to_numpy(dtype=np.int64)
            if len(tomb) else np.array([], dtype=np.int64),
        ]),
    })


def _diff(current: Blocks, prior: Blocks) -> tuple[
        set[tuple[str, str]], list[tuple[str, str]],
        list[tuple[str, str, int]]]:
    """Bucketed (repo, path) diff of the corpus sha256 vs the prior run.

    A distributed anti/semi-join — neither the corpus universe nor the
    prior file table is ever collected on the driver; only the *diff*
    (changed + deleted + carried-tombstone keys, delta-sized by
    definition) comes back. Three sides meet in each bucket:

      c = ``current`` (:func:`_current_side`)
      p, t = ``prior`` (:func:`_prior_sides`)
      changed   = c absent from p, or present with a different sha —
                  includes resurrections (c matching only a tombstone)
      deleted   = p absent from c (newly deleted this run)
      tombstone = t absent from c (stays deleted; original deleted_at
                  rides along so the stamp never refreshes)

    Returns (changed_keys, deleted_keys sorted,
    carried_tombstones sorted [(repo, path, deleted_at_sec)])."""
    out = bucketed_apply_tasks(current + prior, ["repo", "path"],
                               _diff_bucket).table()
    if out is None:
        return set(), [], []
    out = out.to_pandas()

    def keys(status: str) -> pd.DataFrame:
        return out.loc[out["status"] == status]

    changed = set(zip(keys("changed")["repo"], keys("changed")["path"]))
    deleted = sorted(zip(keys("deleted")["repo"], keys("deleted")["path"]))
    t_rows = keys("tomb")
    tombstones = sorted(
        (r, p_, int(d)) for r, p_, d in
        zip(t_rows["repo"], t_rows["path"], t_rows["deleted_at"]))
    return changed, deleted, tombstones


@ray.remote
def _tombstone_rows(files: ParquetSlice, keys: pa.Array,
                    stamps: dict) -> pa.Table:
    """The tombstone rows (``MarkFileAsDeleted.cypher:1-5``) from the
    prior files table: a deleted file keeps its prior-run properties
    with deleted=true and its deletion stamp."""
    sel = filter_keys(files.read(), keys, keep=True)
    ts = [stamps[(r, p)] for r, p in
          zip(sel["repo"].to_pylist(), sel["path"].to_pylist())]
    out = finalize_files(sel)
    out = out.append_column(
        "deleted", pa.array([True] * sel.num_rows, pa.bool_()))
    return out.append_column("deleted_at", pa.array(ts, pa.int64()))


def _tombstone_blocks(
    prior_files_dir: str,
    deleted: list[tuple[str, str]],
    carried_tombs: list[tuple[str, str, int]],
    deleted_at_sec: int | None,
) -> list:
    """Refs of the tombstone rows, one raw task per read slice of the
    prior files table (new deletions get this run's stamp; carried
    tombstones keep their original). What moves is the delta-sized key
    set, never a file table. No deletions → []."""
    run_ts = int(time.time()) if deleted_at_sec is None else int(deleted_at_sec)
    stamp = {(r, p): run_ts for r, p in deleted}
    stamp.update({(r, p): ts for r, p, ts in carried_tombs})
    if not stamp:
        return []
    keys = joined_keys(stamp)
    return [_tombstone_rows.remote(files, keys, stamp)
            for files in plan_reads(prior_files_dir)]


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
    """Rebuild against a prior run: skim and extract only changed files.
    The prior run's output must hold a complete ``type_index/`` (see
    :func:`_prior_type_index`), or this raises a ValueError.

    ``packages_path`` and ``no_key`` must match the full run's — the
    incremental==full contract includes the URL side-table lookups and
    the key scheme of re-extracted files (a mixed-key graph would stop
    linking carried and re-extracted symbols). ``batch_size`` is
    ``build_graph``'s.

    ``deleted_at_sec`` stamps this run's NEW tombstones (defaults to the
    wall clock); carried tombstones keep their original stamp.
    """
    if os.path.realpath(out_dir) == os.path.realpath(prior_out_dir):
        raise ValueError(
            "out_dir must differ from prior_out_dir: rebuilding in place "
            "would overwrite the prior checkpoint the rebuild reads"
        )
    carried = _prior_type_index(prior_out_dir)
    walls = StageWalls()
    fp = corpus_fingerprint(input_path, {
        "incremental": True, "min_accessibility": min_accessibility,
        "packages": packages_path, "no_key": no_key,
        "prior": os.path.realpath(prior_out_dir),
    })
    corpus = read_corpus_blocks(input_path, batch_size)
    prior = _prior_sides(prior_out_dir)
    walls.lap("read")
    changed, deleted, carried_tombs = _diff(
        read_blocks(corpus.refs, _current_side), prior)
    # delta-sized key sets, never the corpus
    stale = changed | set(deleted) | {(r, p) for r, p, _ in carried_tombs}
    stale_ref = ray.put(joined_keys(stale))
    # a changed file may reference types/namespaces declared in unchanged
    # files (receiver typing, base chains, global usings): the type
    # index holds every file's rows, the prior run's for the unchanged
    # ones, as the reference re-opens the whole compilation per run
    # (SolutionProcessor.cs:256-279)
    records, skimmed = extract_corpus(
        corpus, out_dir, fp, min_accessibility, packages_path, no_key, walls,
        changed, carried, stale_ref)
    records += read_records_blocks(
        f"{prior_out_dir}/records", fn=functools.partial(
            filter_keys, keys=stale_ref, keep=False))
    tomb_blocks = _tombstone_blocks(f"{prior_out_dir}/files", deleted,
                                    carried_tombs, deleted_at_sec)
    # the carried records and tombstones add to the extract wall
    walls.lap("extract")

    metrics: dict = {
        "changed_files": len(changed),
        "deleted_files": len(deleted),
        "deleted": [f"{r}:{p}" for r, p in deleted][:1000],
        "skimmed_files": skimmed,
    }
    metrics.update(write_graph(
        out_dir, fp, no_key, records, walls,
        files_post=functools.partial(_files_with_tombstones, tomb_blocks),
    ))
    # counted from the output: a deleted (repo, path) whose file key
    # another repo still holds leaves no tombstone row
    metrics["tombstones"] = pc.sum(
        pq.read_table(f"{out_dir}/files", columns=["deleted"])["deleted"]
    ).as_py() if metrics["files"] else 0
    write_manifest(out_dir, "graph", fp, metrics)
    return metrics
