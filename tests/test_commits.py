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
def commits_path(ray_session, tmp_path_factory):
    return _write(tmp_path_factory.mktemp("commits"), ROWS)


@pytest.fixture(scope="module")
def commits(commits_path):
    from codetoneo4j_ray.pipelines.commits import read_commits

    return read_commits(commits_path)


FOLDS = ("commit_nodes", "commit_edges", "authored_stats", "file_history",
         "file_versions")


def test_commit_nodes(commits):
    from codetoneo4j_ray.pipelines.commits import commit_nodes

    df = commit_nodes(commits).table().to_pandas()
    assert list(df["hash"]) == ["h1", "h2", "h3"]
    assert df.loc[df["hash"] == "h1", "date_sec"].iloc[0] == int(
        dt.datetime(2024, 1, 1, tzinfo=UTC).timestamp()
    )


def test_commit_edges_shapes(commits):
    from codetoneo4j_ray.pipelines.commits import commit_edges

    edges = set(map(tuple, commit_edges(commits).table().to_pandas().values))
    assert ("author:Ada", "src__COMMITTED", "commit:h1") in edges
    assert ("author:Ada", "src__COMMITTED", "commit:h2") in edges
    assert ("commit:h1", "src__PART_OF_PROJECT", "repoa") in edges
    assert ("commit:h3", "src__MODIFIED_FILE", "src/C.cs") in edges
    # 3 COMMITTED + 3 PART_OF_PROJECT + 5 MODIFIED_FILE
    assert len(edges) == 11


def test_authored_fold(commits):
    from codetoneo4j_ray.pipelines.commits import authored_stats

    df = authored_stats(commits).table().to_pandas()
    ada_a = df[(df["author"] == "Ada") & (df["path"] == "src/A.cs")].iloc[0]
    assert ada_a["commit_count"] == 2
    assert ada_a["first_sec"] == int(dt.datetime(2024, 1, 1, tzinfo=UTC).timestamp())
    assert ada_a["last_sec"] == int(dt.datetime(2024, 1, 3, tzinfo=UTC).timestamp())
    bob_b = df[(df["author"] == "Bob") & (df["path"] == "src/B.cs")].iloc[0]
    assert bob_b["commit_count"] == 1


def test_file_history_fold(commits):
    from codetoneo4j_ray.pipelines.commits import file_history

    df = file_history(commits).table().to_pandas()
    a = df[df["path"] == "src/A.cs"].iloc[0]
    assert a["n_commits"] == 2
    assert a["created_sec"] == int(dt.datetime(2024, 1, 1, tzinfo=UTC).timestamp())
    assert a["modified_sec"] == int(dt.datetime(2024, 1, 3, tzinfo=UTC).timestamp())
    b = df[df["path"] == "src/B.cs"].iloc[0]
    assert b["n_commits"] == 2
    assert b["created_sec"] == int(dt.datetime(2024, 1, 1, tzinfo=UTC).timestamp())
    assert b["modified_sec"] == int(dt.datetime(2024, 1, 2, tzinfo=UTC).timestamp())


def test_folds_equal_across_blocks_and_ranges(commits, commits_path,
                                              monkeypatch):
    """Every fold over the commits read in two blocks, split into
    several key ranges, equals the one-block, one-range fold: rows,
    types and order."""
    import ray.data

    from codetoneo4j_ray.pipelines import commits as cm
    from codetoneo4j_ray.stages import bucketing

    one = {f: getattr(cm, f)(commits) for f in FOLDS}
    assert all(len(one[f].refs) == 1 for f in FOLDS)
    two = bucketing.read_blocks(bucketing.plan_reads(commits_path, 2))
    assert len(two.refs) == 2
    monkeypatch.setattr(ray.data.DataContext.get_current(),
                        "target_min_block_size", 1)
    monkeypatch.setattr(bucketing, "target_blocks", lambda: 3)
    for f in FOLDS:
        many = getattr(cm, f)(two)
        if f in FOLDS[:3]:  # the others split on repo: one range
            assert len(many.refs) > 1, f
        assert many.table().equals(one[f].table()), f


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


def test_file_versions_fold(commits):
    """Per-file commits (newest first) + distinct sorted tags
    (FileMetadata.Commits/Tags — GitLogParser.cs:83-114)."""
    from codetoneo4j_ray.pipelines.commits import _SEP, file_versions

    df = file_versions(commits).table().to_pandas().set_index("path")
    assert df.loc["src/A.cs", "commits_csv"] == _SEP.join(["h2", "h1"])
    assert df.loc["src/A.cs", "tags_csv"] == "v1.0"
    assert df.loc["src/B.cs", "commits_csv"] == _SEP.join(["h3", "h1"])
    assert df.loc["src/B.cs", "tags_csv"] == _SEP.join(["v1.0", "v1.1"])
    assert df.loc["src/C.cs", "commits_csv"] == "h3"
    assert df.loc["src/C.cs", "tags_csv"] == "v1.1"


def test_attach_file_versions(commits, tmp_path):
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
    assert attach_file_versions(str(files), commits, out_dir) == 3
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


def test_write_commit_graph_empty_table(commits, tmp_path):
    """An empty commits table writes each commit table as one empty
    part with the columns and types the folds give, and counts 0
    rows."""
    import os

    from codetoneo4j_ray.pipelines import commits as cm
    from codetoneo4j_ray.sources.synth import _COMMITS_SCHEMA

    path = str(tmp_path / "commits.parquet")
    pq.write_table(_COMMITS_SCHEMA.empty_table(), path)
    out = str(tmp_path / "out")
    counts = cm.write_commit_graph(path, out)
    assert counts == {"commit_nodes": 0, "commit_edges": 0, "authored": 0}
    for name, fold in (("commit_nodes", cm.commit_nodes),
                       ("commit_edges", cm.commit_edges),
                       ("authored", cm.authored_stats)):
        assert os.listdir(f"{out}/{name}") == ["part-00000.parquet"]
        table = pq.read_table(f"{out}/{name}/part-00000.parquet")
        assert table.num_rows == 0
        assert table.schema.equals(fold(commits).table().schema), name
