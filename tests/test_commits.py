"""Commit subgraph: UpsertCommit / AUTHORED-fold semantics on a tiny
hand-built commits table (reference: Cypher/UpsertCommit.cypher:1-20,
GitLogParser.BuildFileMetadata, Cypher/UpsertFile.cypher:31-36)."""

from __future__ import annotations

import datetime as dt

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

UTC = dt.timezone.utc


def _write(tmp_path, rows):
    from codetoneo4j_ray.sources.synth import _COMMITS_SCHEMA

    cols = list(zip(*rows))
    t = pa.table(
        {f.name: pa.array(list(cols[i]), f.type)
         for i, f in enumerate(_COMMITS_SCHEMA)},
        schema=_COMMITS_SCHEMA,
    )
    p = str(tmp_path / "commits.parquet")
    pq.write_table(t, p)
    return p


ROWS = [
    ("RepoA", "h1", "Ada", "ada@x", dt.datetime(2024, 1, 1, tzinfo=UTC),
     "first", ["src/A.cs", "src/B.cs"], [False, False], ["v1.0"]),
    ("RepoA", "h2", "Ada", "ada@x", dt.datetime(2024, 1, 3, tzinfo=UTC),
     "second", ["src/A.cs"], [False], []),
    ("RepoA", "h3", "Bob", "bob@x", dt.datetime(2024, 1, 2, tzinfo=UTC),
     "third", ["src/B.cs", "src/C.cs"], [False, True], ["v1.1"]),
]


@pytest.fixture(scope="module")
def commits_ds(ray_session, tmp_path_factory):
    import ray.data

    p = _write(tmp_path_factory.mktemp("commits"), ROWS)
    return ray.data.read_parquet(p)


def test_commit_nodes(commits_ds):
    from codetoneo4j_ray.pipelines.commits import commit_nodes

    df = commit_nodes(commits_ds).to_pandas()
    assert list(df["hash"]) == ["h1", "h2", "h3"]
    assert df.loc[df["hash"] == "h1", "date_sec"].iloc[0] == int(
        dt.datetime(2024, 1, 1, tzinfo=UTC).timestamp()
    )


def test_commit_edges_shapes(commits_ds):
    from codetoneo4j_ray.pipelines.commits import commit_edges

    edges = set(map(tuple, commit_edges(commits_ds).to_pandas().values))
    assert ("author:Ada", "src__COMMITTED", "commit:h1") in edges
    assert ("author:Ada", "src__COMMITTED", "commit:h2") in edges
    assert ("commit:h1", "src__PART_OF_PROJECT", "repoa") in edges
    assert ("commit:h3", "src__MODIFIED_FILE", "src/C.cs") in edges
    # 3 COMMITTED + 3 PART_OF_PROJECT + 5 MODIFIED_FILE
    assert len(edges) == 11


def test_authored_fold(commits_ds):
    from codetoneo4j_ray.pipelines.commits import authored_stats

    df = authored_stats(commits_ds).to_pandas()
    ada_a = df[(df["author"] == "Ada") & (df["path"] == "src/A.cs")].iloc[0]
    assert ada_a["commit_count"] == 2
    assert ada_a["first_sec"] == int(dt.datetime(2024, 1, 1, tzinfo=UTC).timestamp())
    assert ada_a["last_sec"] == int(dt.datetime(2024, 1, 3, tzinfo=UTC).timestamp())
    bob_b = df[(df["author"] == "Bob") & (df["path"] == "src/B.cs")].iloc[0]
    assert bob_b["commit_count"] == 1


def test_file_history_fold(commits_ds):
    from codetoneo4j_ray.pipelines.commits import file_history

    df = file_history(commits_ds).to_pandas()
    a = df[df["path"] == "src/A.cs"].iloc[0]
    assert a["n_commits"] == 2
    assert a["created_sec"] == int(dt.datetime(2024, 1, 1, tzinfo=UTC).timestamp())
    assert a["modified_sec"] == int(dt.datetime(2024, 1, 3, tzinfo=UTC).timestamp())
    b = df[df["path"] == "src/B.cs"].iloc[0]
    assert b["n_commits"] == 2
    assert b["created_sec"] == int(dt.datetime(2024, 1, 1, tzinfo=UTC).timestamp())
    assert b["modified_sec"] == int(dt.datetime(2024, 1, 2, tzinfo=UTC).timestamp())


def test_synth_commits_deterministic(ray_session):
    from codetoneo4j_ray.sources.synth import ensure_commits

    p = ensure_commits("/root/testdata/sf0.001")
    t1 = pq.read_table(p)
    assert t1.num_rows > 0
    # paths referenced by commits exist in the corpus
    from codetoneo4j_ray.sources.synth import ensure_corpus

    corpus = pq.read_table(ensure_corpus("/root/testdata/sf0.001"),
                           columns=["repo", "path"])
    valid = set(zip(corpus["repo"].to_pylist(), corpus["path"].to_pylist()))
    for repo, paths in zip(t1["repo"].to_pylist(),
                           t1["changed_paths"].to_pylist()):
        for p_ in paths:
            assert (repo, p_) in valid


def test_file_versions_fold(commits_ds):
    """Per-file commits (newest first) + distinct sorted tags
    (FileMetadata.Commits/Tags — GitLogParser.cs:83-114)."""
    from codetoneo4j_ray.pipelines.commits import _SEP, file_versions

    df = file_versions(commits_ds).to_pandas().set_index("path")
    assert df.loc["src/A.cs", "commits_csv"] == _SEP.join(["h2", "h1"])
    assert df.loc["src/A.cs", "tags_csv"] == "v1.0"
    assert df.loc["src/B.cs", "commits_csv"] == _SEP.join(["h3", "h1"])
    assert df.loc["src/B.cs", "tags_csv"] == _SEP.join(["v1.0", "v1.1"])
    assert df.loc["src/C.cs", "commits_csv"] == "h3"
    assert df.loc["src/C.cs", "tags_csv"] == "v1.1"


def test_attach_file_versions(commits_ds, tmp_path):
    """Each files part is rewritten under its own name with commits/tags
    LIST columns appended, rows in order; untracked files get empty
    lists (UpsertFile.cypher:12-13)."""
    import os

    from codetoneo4j_ray.pipelines.commits import attach_file_versions

    def file_row(key, path):
        return {
            "key": key, "path": path, "file_name": path.rsplit("/", 1)[-1],
            "namespace": "", "sha256": "x", "language": "csharp",
            "technology": "dotnet", "repo": "RepoA", "commit": "c0",
        }

    files = tmp_path / "files"
    files.mkdir()
    pq.write_table(pa.Table.from_pylist(
        [file_row("k-a", "src/A.cs"), file_row("k-c", "src/C.cs")]),
        files / "part-00000.parquet")
    pq.write_table(pa.Table.from_pylist([file_row("k-d", "src/D.cs")]),
                   files / "part-00001.parquet")
    out_dir = str(tmp_path / "out")
    assert attach_file_versions(str(files), commits_ds, out_dir) == 3
    assert sorted(os.listdir(out_dir)) == ["part-00000.parquet",
                                           "part-00001.parquet"]
    out = pq.read_table(out_dir).to_pandas()
    assert list(out["key"]) == ["k-a", "k-c", "k-d"]
    out = out.set_index("key")
    assert list(out.loc["k-a", "commits"]) == ["h2", "h1"]
    assert list(out.loc["k-a", "tags"]) == ["v1.0"]
    assert list(out.loc["k-c", "commits"]) == ["h3"]
    assert list(out.loc["k-d", "commits"]) == []
    assert list(out.loc["k-d", "tags"]) == []
    # original file columns survive the join
    assert out.loc["k-a", "sha256"] == "x"
    assert out.loc["k-d", "language"] == "csharp"


def test_synth_commits_have_tags(ray_session):
    from codetoneo4j_ray.sources.synth import ensure_commits

    t = pq.read_table(ensure_commits("/root/testdata/sf0.001"))
    assert "tags" in t.schema.names
    tag_lists = [l for l in t["tags"].to_pylist() if l]
    assert tag_lists, "synthetic history should carry some tags"
