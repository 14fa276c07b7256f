"""Commit-subgraph pipeline — the reference's git ingestion, portable.

The reference shells out to ``git log`` and folds per-file history
driver-side (``VersionControl/GitService.cs:17-94``,
``GitLogParser.cs:65-114``); a Parquet corpus carries no git repo, so
the same facts arrive as an optional ``commits`` side table
``(repo, hash, author, email, date, message, changed_paths,
changed_deleted)`` and every fold becomes a distributed aggregate:

  - Commit nodes + COMMITTED / PART_OF_PROJECT / MODIFIED_FILE edges
    reproduce ``Cypher/UpsertCommit.cypher:1-20``: Author MERGEd by
    name, Commit by hash, Project matched by repoKey, one
    MODIFIED_FILE edge per changed file.
  - The per-(file, author) AUTHORED fold (firstCommit = min date,
    lastCommit = max date, commitCount) reproduces
    ``GitLogParser.BuildFileMetadata`` + ``Cypher/UpsertFile.cypher:31-36``
    as map-side partials + a bucketed merge — one metadata shuffle.

Key namespace: triples flatten Neo4j's per-label key spaces
(``src__Author {name}``, ``src__Commit {hash}`` —
``Graph/GraphSchema.cs:8-12``), so author nodes key as
``author:{name}`` and commits as ``commit:{hash}``; Project keys stay
``lower(repo)`` and File keys stay relative paths, matching the
structural edges in stages/materialize.py.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import ray.data

from codetoneo4j_ray.stages.bucketing import (
    Blocks,
    BucketStore,
    _bucket_ids,
    bucketed_apply_tasks,
    build_bucket_store,
    cached_view,
    parquet_files,
)

COMMITTED = "src__COMMITTED"
PART_OF_PROJECT = "src__PART_OF_PROJECT"
MODIFIED_FILE = "src__MODIFIED_FILE"
AUTHORED = "src__AUTHORED"


def read_commits(commits_path: str) -> ray.data.Dataset:
    return ray.data.read_parquet(commits_path)


def _date_sec(col: pd.Series) -> pd.Series:
    # tz-aware us timestamps → epoch seconds (engine-exact vs DuckDB)
    return (col.astype("int64") // 1_000_000).astype("int64")


def _fold(commits: ray.data.Dataset, partial, keys: list[str], merge,
          values: list[str]) -> ray.data.Dataset:
    """``merge`` over the ``partial`` rows of ``commits`` in one
    ``keys``-bucketed exchange, as columns ``keys + values`` sorted by
    ``keys``."""
    return (bucketed_apply_tasks(
        commits.map_batches(partial, batch_format="pyarrow"), keys, merge)
        .select_columns(keys + values).sort(keys))


def commit_nodes(commits: ray.data.Dataset) -> ray.data.Dataset:
    """One row per commit hash (MERGE (c:src__Commit {hash}) — last
    writer wins on props; hashes are globally unique so dedup is a
    safety net, deterministic by full-column tiebreak)."""
    _TIE = ["hash", "repo", "author", "email", "date_sec", "message"]

    def local(batch: pa.Table) -> pa.Table:
        df = batch.select(
            ["hash", "repo", "author", "email", "date", "message"]
        ).to_pandas()
        df["date_sec"] = _date_sec(df["date"])
        df = df.drop(columns="date")
        df = df.sort_values(_TIE, kind="stable", na_position="first")
        return pa.Table.from_pandas(
            df.drop_duplicates(subset=["hash"], keep="last"),
            preserve_index=False,
        )

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(_TIE, kind="stable", na_position="first")
        return df.drop_duplicates(subset=["hash"], keep="last")

    return _fold(commits, local, ["hash"], merge,
                 ["repo", "author", "email", "date_sec", "message"])


def commit_edges(commits: ray.data.Dataset) -> ray.data.Dataset:
    """COMMITTED + PART_OF_PROJECT + MODIFIED_FILE triples, distinct +
    sorted (each cypher MERGE is a distinct edge)."""

    def explode(batch: pa.Table) -> pa.Table:
        hashes = batch["hash"].to_pylist()
        repos = batch["repo"].to_pylist()
        authors = batch["author"].to_pylist()
        changed = batch["changed_paths"].to_pylist()
        subjs: list[str] = []
        preds: list[str] = []
        objs: list[str] = []
        for h, repo, author, paths in zip(hashes, repos, authors, changed):
            ck = f"commit:{h}"
            subjs.append(f"author:{author}")
            preds.append(COMMITTED)
            objs.append(ck)
            subjs.append(ck)
            preds.append(PART_OF_PROJECT)
            objs.append(repo.lower())
            for p in paths or []:
                subjs.append(ck)
                preds.append(MODIFIED_FILE)
                objs.append(p)
        return pa.table(
            {
                "subj": pa.array(subjs, pa.string()),
                "pred": pa.array(preds, pa.string()),
                "obj": pa.array(objs, pa.string()),
            }
        )

    def local(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas().drop_duplicates()
        return pa.Table.from_pandas(df, preserve_index=False)

    return (
        bucketed_apply_tasks(
            commits.map_batches(explode, batch_format="pyarrow")
            .map_batches(local, batch_format="pyarrow"),
            ["subj", "pred", "obj"],
            lambda df: df.drop_duplicates(),
        )
        .sort(["subj", "pred", "obj"])
    )


def authored_stats(commits: ray.data.Dataset) -> ray.data.Dataset:
    """The AUTHORED fold: per (file, author) min/max commit date + count
    (``GitLogParser.cs:83-99`` authorMap fold, one edge per pair with
    firstCommit/lastCommit/commitCount props —
    ``UpsertFile.cypher:31-36``). Map-side partials collapse each
    (path, author) to one row per block before the single shuffle."""

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.select(["author", "date", "changed_paths"]).to_pandas()
        df["date_sec"] = _date_sec(df["date"])
        df = df.drop(columns="date").explode("changed_paths")
        df = df.rename(columns={"changed_paths": "path"})
        df = df.dropna(subset=["path"])
        g = df.groupby(["author", "path"], as_index=False).agg(
            first_sec=("date_sec", "min"),
            last_sec=("date_sec", "max"),
            commit_count=("date_sec", "size"),
        )
        return pa.Table.from_pandas(g, preserve_index=False)

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby(["author", "path"], as_index=False).agg(
            first_sec=("first_sec", "min"),
            last_sec=("last_sec", "max"),
            commit_count=("commit_count", "sum"),
        )

    return _fold(commits, partial, ["author", "path"], merge,
                 ["first_sec", "last_sec", "commit_count"])


# internal list separator for the version fold: U+001F cannot appear in
# commit hashes and is rejected by git ref syntax checks in practice;
# the joined form keeps every exchange all-string (no per-block Arrow
# list-type inference) and IS the strict-oracle-comparable shape
_SEP = "\x1f"


def _version_rows(batch: pa.Table) -> pa.Table:
    """The version fold's map side: one (repo, hash, tags, date_sec,
    path) row per changed path of each commit, its tag list pre-joined,
    so the exploded frame stays all-scalar through the exchange."""
    df = batch.select(["repo", "hash", "date", "changed_paths", "tags"]
                      ).to_pandas()
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


def file_versions(commits: ray.data.Dataset) -> ray.data.Dataset:
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

    One (repo, path)-bucketed exchange; list building needs every commit
    of a file co-located, so there is no map-side combine beyond the
    explode projection. ``attach_file_versions`` pins the same fold as a
    store and materializes the real list columns onto the files table.
    """
    return _fold(commits, _version_rows, ["repo", "path"], _fold_versions,
                 ["commits_csv", "tags_csv"])


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


def attach_file_versions(files_dir: str, commits: ray.data.Dataset,
                         out_dir: str) -> int:
    """``files_dir``'s parts ⇒ the same parts under ``out_dir``, each
    with ``commits``/``tags`` list columns; returns the rows written.

    The version fold is pinned as a store keyed by (repo, path)
    (``build_bucket_store`` with the fold as its reduce), then one raw
    task per ``part-*.parquet`` maps its rows: files with no git history
    get empty lists, exactly as the reference upserts empty
    ``file.commits`` / ``file.tags`` for untracked files
    (UpsertFile.cypher:12-13). No files row moves: each part keeps its
    name, columns (an incremental's ``deleted``/``deleted_at`` too) and
    key order."""
    versions = build_bucket_store(
        Blocks.of_dataset(
            commits.map_batches(_version_rows, batch_format="pyarrow")),
        ["repo", "path"], _fold_versions)
    os.makedirs(out_dir)
    return sum(ray.get([
        _attach_part.remote(src, f"{out_dir}/{os.path.basename(src)}",
                            versions)
        for src in parquet_files(files_dir)]))


def file_history(commits: ray.data.Dataset) -> ray.data.Dataset:
    """Per-file created/lastModified/commit count (the FileMetadata fold:
    ``GitLogParser.cs:70-81`` created=min, lastModified=max; commit list
    length as n_commits)."""

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.select(["date", "changed_paths", "repo"]).to_pandas()
        df["date_sec"] = _date_sec(df["date"])
        df = df.drop(columns="date").explode("changed_paths")
        df = df.rename(columns={"changed_paths": "path"})
        df = df.dropna(subset=["path"])
        g = df.groupby(["repo", "path"], as_index=False).agg(
            created_sec=("date_sec", "min"),
            modified_sec=("date_sec", "max"),
            n_commits=("date_sec", "size"),
        )
        return pa.Table.from_pandas(g, preserve_index=False)

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby(["repo", "path"], as_index=False).agg(
            created_sec=("created_sec", "min"),
            modified_sec=("modified_sec", "max"),
            n_commits=("n_commits", "sum"),
        )

    return _fold(commits, partial, ["repo", "path"], merge,
                 ["created_sec", "modified_sec", "n_commits"])
