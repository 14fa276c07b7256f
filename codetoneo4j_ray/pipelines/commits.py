"""Commit-subgraph pipeline — the reference's git ingestion, portable.

The reference shells out to ``git log`` and folds per-file history
driver-side (``VersionControl/GitService.cs:17-94``,
``GitLogParser.cs:65-114``); a Parquet corpus carries no git repo, so
the same facts arrive as an optional ``commits`` side table
``(repo, hash, author, email, date, message, changed_paths,
changed_deleted)``, pinned by one raw read wave (:func:`read_commits`),
and every fold is a map side over those blocks plus one sorted
key-range fold (``stages.canonicalize.sorted_fold``); no Ray Data
execution runs here:

  - Commit nodes + COMMITTED / PART_OF_PROJECT / MODIFIED_FILE edges
    reproduce ``Cypher/UpsertCommit.cypher:1-20``: Author MERGEd by
    name, Commit by hash, Project matched by repoKey, one
    MODIFIED_FILE edge per changed file.
  - The per-(file, author) AUTHORED fold (firstCommit = min date,
    lastCommit = max date, commitCount) reproduces
    ``GitLogParser.BuildFileMetadata`` + ``Cypher/UpsertFile.cypher:31-36``.

Key namespace: triples flatten Neo4j's per-label key spaces
(``src__Author {name}``, ``src__Commit {hash}`` —
``Graph/GraphSchema.cs:8-12``), so author nodes key as
``author:{name}`` and commits as ``commit:{hash}``; Project keys stay
``lower(repo)`` and File keys stay relative paths, matching the
structural edges in stages/materialize.py.
"""

from __future__ import annotations

import functools
import os
import shutil

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray

from codetoneo4j_ray.schema import TRIPLE_SCHEMA
from codetoneo4j_ray.stages.bucketing import (
    Blocks,
    BucketStore,
    _bucket_ids,
    build_bucket_store,
    cached_view,
    parquet_files,
    plan_reads,
    read_blocks,
)
from codetoneo4j_ray.stages.canonicalize import (
    EDGES,
    Canon,
    canonical,
    sorted_fold,
)

COMMITTED = "src__COMMITTED"
PART_OF_PROJECT = "src__PART_OF_PROJECT"
MODIFIED_FILE = "src__MODIFIED_FILE"
AUTHORED = "src__AUTHORED"
_AUTHORED = ("author", "path", "first_sec", "last_sec", "commit_count")


# one row per commit hash (MERGE (c:src__Commit {hash}) — last writer
# wins on props; hashes are globally unique so dedup is a safety net,
# deterministic by full-column tiebreak)
COMMIT_NODES = Canon("hash", ("hash", "repo", "author", "email",
                              "date_sec", "message"), ("hash",))


def read_commits(commits_path: str) -> Blocks:
    """The commits table pinned by one raw read wave; every fold maps
    these refs."""
    return read_blocks(plan_reads(commits_path))


def _date_sec(col: pd.Series) -> pd.Series:
    # tz-aware us timestamps → epoch seconds (engine-exact vs DuckDB)
    return (col.astype("int64") // 1_000_000).astype("int64")


def _fold(commits: Blocks, rows, order, fold) -> Blocks:
    """``sorted_fold`` over the ``rows(block)`` of every commits block."""
    return sorted_fold(read_blocks(commits.refs, rows), order, fold)


def _canonical_fold(commits: Blocks, rows, canon: Canon) -> Blocks:
    """``canonical`` on every block's ``rows`` and again per range."""
    fold = functools.partial(canonical, canon=canon)
    return _fold(commits, lambda b: fold(rows(b)), canon.order, fold)


def _node_rows(batch: pa.Table) -> pa.Table:
    date_sec = pa.array(_date_sec(batch["date"].to_pandas()), pa.int64())
    return pa.table({c: date_sec if c == "date_sec" else batch[c]
                     for c in COMMIT_NODES.order})


def commit_nodes(commits: Blocks) -> Blocks:
    """One row per commit hash, sorted by hash (``COMMIT_NODES``)."""
    return _canonical_fold(commits, _node_rows, COMMIT_NODES)


def _edge_rows(batch: pa.Table) -> pa.Table:
    commit = pc.binary_join_element_wise("commit:", batch["hash"], "")
    paths = batch["changed_paths"]
    # the Project key is lower(repo) as in the structural edges
    project = pa.array([r.lower() for r in batch["repo"].to_pylist()])
    return pa.concat_tables(
        pa.table([s, pa.repeat(pa.scalar(p), len(s)), o], schema=TRIPLE_SCHEMA)
        for s, p, o in (
            (pc.binary_join_element_wise("author:", batch["author"], ""),
             COMMITTED, commit),
            (commit, PART_OF_PROJECT, project),
            (pc.take(commit, pc.list_parent_indices(paths)), MODIFIED_FILE,
             pc.list_flatten(paths))))


def commit_edges(commits: Blocks) -> Blocks:
    """COMMITTED + PART_OF_PROJECT + MODIFIED_FILE triples, distinct +
    sorted (each cypher MERGE is a distinct edge)."""
    return _canonical_fold(commits, _edge_rows, EDGES)


def _date_stats(cols: tuple, table: pa.Table) -> pd.DataFrame:
    """Per ``cols[:2]`` key of version rows, the min and max commit date
    and the commit count, as columns ``cols[2:]``."""
    first, last, count = cols[2:]
    return table.to_pandas().groupby(list(cols[:2]), as_index=False).agg(
        **{first: ("date_sec", "min"), last: ("date_sec", "max"),
           count: ("date_sec", "size")})


def authored_stats(commits: Blocks) -> Blocks:
    """The AUTHORED fold: per (file, author) min/max commit date + count
    (``GitLogParser.cs:83-99`` authorMap fold, one edge per pair with
    firstCommit/lastCommit/commitCount props —
    ``UpsertFile.cypher:31-36``)."""
    return _fold(commits, _version_rows, _AUTHORED[:2],
                 functools.partial(_date_stats, _AUTHORED))


# internal list separator for the version fold: U+001F cannot appear in
# commit hashes and is rejected by git ref syntax checks in practice;
# the joined form keeps every exchange all-string (no per-block Arrow
# list-type inference) and IS the strict-oracle-comparable shape
_SEP = "\x1f"


def _version_rows(batch: pa.Table) -> pa.Table:
    """The map side of the per-file folds: one (repo, hash, author, tags,
    date_sec, path) row per changed path of each commit, its tag list
    pre-joined, so the exploded frame stays all-scalar through the
    exchange."""
    df = batch.select(["repo", "hash", "author", "date", "changed_paths",
                       "tags"]).to_pandas()
    df["date_sec"] = _date_sec(df["date"])
    df["tags"] = [
        _SEP.join(lst) if lst is not None and len(lst) else ""
        for lst in df["tags"]
    ]
    df = df.drop(columns="date").explode("changed_paths")
    df = df.rename(columns={"changed_paths": "path"})
    df = df.dropna(subset=["path"])
    return pa.Table.from_pandas(df, preserve_index=False)


def _fold_versions(df: pd.DataFrame) -> pd.DataFrame:
    """The version fold's reduce side: one (repo, path, commits_csv,
    tags_csv) row per file of ``df``'s version rows."""
    df = df.sort_values(["repo", "path", "date_sec", "hash"],
                        ascending=[True, True, False, True],
                        kind="stable")

    def fold_tags(s: pd.Series) -> str:
        return _SEP.join(sorted(
            {t for joined in s if joined for t in joined.split(_SEP)}
        ))

    return df.groupby(["repo", "path"], sort=False, as_index=False).agg(
        commits_csv=("hash", _SEP.join),
        tags_csv=("tags", fold_tags),
    )


def file_versions(commits: Blocks) -> Blocks:
    """Per-file commit-hash list + distinct tag list, as joined strings.

    The ``FileMetadata.Commits``/``Tags`` fold (``GitLogParser.cs:83-114``
    hashes list + tag refs set) that ``UpsertFile.cypher:12-13`` stores
    on every File node (``f.commits = file.commits, f.tags = file.tags``).

    - ``commits_csv``: hashes in git-log output order — newest first
      (date desc, hash asc tiebreak for determinism), \\x1f-joined.
    - ``tags_csv``: distinct tags of the file's commits, sorted,
      \\x1f-joined ('' when none). The reference's case-insensitive
      HashSet keeps first-seen casing in insertion order; sorted-distinct
      is the deterministic analog.

    ``attach_file_versions`` pins the same fold as a store and
    materializes the real list columns onto the files table.
    """
    return _fold(commits, _version_rows, ("repo", "path"),
                 lambda table: _fold_versions(table.to_pandas()))


def _version_lists(table: pa.Table | None) -> dict:
    """{(repo, path): (commits, tags)} of a pinned bucket of the fold."""
    if table is None:
        return {}
    return {
        (r, p): (c.split(_SEP) if c else [], t.split(_SEP) if t else [])
        for r, p, c, t in zip(*(table[col].to_pylist() for col in (
            "repo", "path", "commits_csv", "tags_csv")))
    }


@ray.remote
def _attach_part(src: str, dst: str, versions: BucketStore) -> int:
    """One files part written to ``dst`` with its rows' ``commits`` /
    ``tags`` lists appended (empty for untracked files), every input
    column and the row order kept; looks up only the buckets of
    ``versions`` its (repo, path) keys hash to. Returns its rows."""
    files = pq.read_table(src)
    found: dict = {}
    ids = _bucket_ids(files, ["repo", "path"], versions.num_buckets)
    for k in np.unique(ids.to_numpy()):
        found.update(cached_view(versions.pieces[int(k)], "versions",
                                 _version_lists))
    hits = [found.get(key, ([], [])) for key in zip(
        files["repo"].to_pylist(), files["path"].to_pylist())]
    out = files.append_column(
        "commits", pa.array([c for c, _ in hits], pa.list_(pa.string())))
    out = out.append_column(
        "tags", pa.array([t for _, t in hits], pa.list_(pa.string())))
    pq.write_table(out, dst)
    return out.num_rows


def attach_file_versions(files_dir: str, commits: Blocks,
                         out_dir: str) -> int:
    """``files_dir``'s parts ⇒ the same parts under ``out_dir``, each
    with ``commits``/``tags`` list columns; returns the rows written.

    The version fold is pinned as a store keyed by (repo, path)
    (``build_bucket_store`` over the commits blocks' version rows, with
    the fold as its reduce), then one raw task per ``part-*.parquet``
    maps its rows: files with no git history get empty lists, exactly
    as the reference upserts empty ``file.commits`` / ``file.tags`` for
    untracked files (UpsertFile.cypher:12-13). No files row moves: each
    part keeps its name, columns (an incremental's
    ``deleted``/``deleted_at`` too) and key order."""
    versions = build_bucket_store(read_blocks(commits.refs, _version_rows),
                                  ["repo", "path"], _fold_versions)
    os.makedirs(out_dir)
    return sum(ray.get([
        _attach_part.remote(src, f"{out_dir}/{os.path.basename(src)}",
                            versions)
        for src in parquet_files(files_dir)]))


def file_history(commits: Blocks) -> Blocks:
    """Per-file created/lastModified/commit count (the FileMetadata fold:
    ``GitLogParser.cs:70-81`` created=min, lastModified=max; commit list
    length as n_commits)."""
    return _fold(commits, _version_rows, ("repo", "path"), functools.partial(
        _date_stats, ("repo", "path", "created_sec", "modified_sec",
                      "n_commits")))


@ray.remote
def _write_part(table: pa.Table, path: str) -> None:
    pq.write_table(table, path)


def write_commit_graph(commits_path: str, out_dir: str) -> dict:
    """The ``--commits`` pass over a built ``out_dir``: ``commit_nodes/``,
    ``commit_edges/`` and ``authored/`` written as one
    ``part-{k:05d}.parquet`` per non-empty key range (an empty table as
    one empty part), and ``files/`` rewritten with its rows'
    ``commits``/``tags`` lists. Returns the three tables' rows."""
    commits = read_commits(commits_path)
    counts = {}
    for name, fold, cols in (("commit_nodes", commit_nodes, COMMIT_NODES.order),
                             ("commit_edges", commit_edges, EDGES.order),
                             ("authored", authored_stats, _AUTHORED)):
        path = f"{out_dir}/{name}"
        shutil.rmtree(path, ignore_errors=True)
        os.makedirs(path)
        out = fold(commits)
        ray.get([_write_part.remote(ref, f"{path}/part-{k:05d}.parquet")
                 for k, ref in enumerate(out.refs)])
        if not out.refs:  # every integer column is a *_sec or *_count
            pq.write_table(pa.schema([
                (c, pa.int64() if c.endswith(("_sec", "_count"))
                 else pa.string()) for c in cols]).empty_table(),
                f"{path}/part-00000.parquet")
        counts[name] = out.rows

    # File nodes carry their commit/tag lists (UpsertFile.cypher:12-13
    # ``f.commits = file.commits, f.tags = file.tags``): rewrite files/
    # part by part with the list columns appended, atomically via a
    # sibling dir swap
    files_dir = f"{out_dir}/files"
    if os.path.isdir(files_dir):
        tmp = f"{out_dir}/files.withversions"
        shutil.rmtree(tmp, ignore_errors=True)
        attach_file_versions(files_dir, commits, tmp)
        old = f"{out_dir}/files.old"
        shutil.rmtree(old, ignore_errors=True)
        os.rename(files_dir, old)
        os.rename(tmp, files_dir)
        shutil.rmtree(old, ignore_errors=True)
    return counts
