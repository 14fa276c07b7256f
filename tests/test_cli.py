"""CLI surface (Program.cs analog) + --no-key end-to-end."""

from __future__ import annotations

import pyarrow as pa
import pyarrow.parquet as pq

from codetoneo4j_ray.schema import CORPUS_SCHEMA

ROWS = [
    ("MyRepo", "src/A.cs", "c" * 40, "csharp",
     "namespace N;\npublic class A { public void M() { } }"),
]


def _corpus(tmp_path, rows=ROWS, name="corpus.parquet"):
    cols = list(zip(*rows))
    t = pa.table(
        {f.name: pa.array(list(cols[i]), pa.string())
         for i, f in enumerate(CORPUS_SCHEMA)},
        schema=CORPUS_SCHEMA,
    )
    p = str(tmp_path / name)
    pq.write_table(t, p)
    return p


def _commits(tmp_path):
    """A commits side table: two commits of MyRepo's src/A.cs."""
    import datetime as dt

    from codetoneo4j_ray.sources.synth import _COMMITS_SCHEMA

    utc = dt.timezone.utc
    commit_rows = [
        ("MyRepo", "h1", "Ada", "ada@x", dt.datetime(2024, 1, 1, tzinfo=utc),
         "m", ["src/A.cs"], [False], ["v1.0"]),
        ("MyRepo", "h2", "Ada", "ada@x", dt.datetime(2024, 1, 2, tzinfo=utc),
         "m", ["src/A.cs"], [False], []),
    ]
    cols = list(zip(*commit_rows))
    ct = pa.table(
        {f.name: pa.array(list(cols[i]), f.type)
         for i, f in enumerate(_COMMITS_SCHEMA)},
        schema=_COMMITS_SCHEMA,
    )
    cp = str(tmp_path / "commits.parquet")
    pq.write_table(ct, cp)
    return cp


def test_no_key_drops_repo_prefix_and_project_edges(ray_session, tmp_path):
    """--no-key: repoKey null → keys ':{display}' and no Project edges
    (OptionsBinder.cs:89-99, UpsertFile.cypher OPTIONAL MATCH)."""
    import ray.data as rd

    from codetoneo4j_ray.pipelines.build_graph import build_graph

    p = _corpus(tmp_path)
    out = str(tmp_path / "out")
    build_graph(p, out, no_key=True)
    nodes = rd.read_parquet(f"{out}/nodes").to_pandas()
    assert ":N.A" in set(nodes["key"])           # null repoKey prefix
    edges = rd.read_parquet(f"{out}/edges").to_pandas()
    assert not (edges["pred"] == "src__HAS_FILE").any()
    # DECLARES + linking still work against the ':'-prefixed keys
    assert ((edges["pred"] == "src__DECLARES")
            & (edges["obj"] == ":N.A")).any()


def test_cli_build_and_purge(ray_session, tmp_path, monkeypatch, capsys):
    """``build`` prints the build's own statistics: a wall for every
    stage, and node, edge and file counts equal to the rows of the
    written tables. ``purge`` removes the output."""
    from codetoneo4j_ray import cli
    from codetoneo4j_ray.pipelines.build_graph import StageWalls

    p = _corpus(tmp_path)
    out = str(tmp_path / "cli_out")
    # ray already initialised by the fixture — cli must not re-init/shutdown
    monkeypatch.setattr("ray.shutdown", lambda: None)
    rc = cli.main(["build", "--input", p, "--output", out])
    assert rc == 0
    import json
    import os

    metrics = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert metrics["nodes"] >= 2 and os.path.isdir(f"{out}/edges")
    assert set(metrics["stage_sec"]) == set(StageWalls.STAGES)
    for name in ("nodes", "edges", "files"):
        assert metrics[name] == pq.read_table(f"{out}/{name}").num_rows, name

    rc = cli.main(["purge", "--output", out, "--yes"])
    assert rc == 0
    assert not os.path.exists(out)


def test_cli_supported_files(capsys):
    from codetoneo4j_ray import cli

    assert cli.main(["--show-supported-files"]) == 0
    out = capsys.readouterr().out
    assert "csharp" in out and "pubspec.yaml" in out


def test_cli_build_with_commits_attaches_file_versions(
    ray_session, tmp_path, monkeypatch, capsys
):
    """--commits rewrites files/ with commits/tags list columns
    (UpsertFile.cypher:12-13 f.commits/f.tags) and writes the three
    commit tables as ``part-*.parquet`` in key order, each equal to its
    fold, with the printed counts equal to the written rows."""
    import json
    import os

    import ray.data as rd

    from codetoneo4j_ray import cli
    from codetoneo4j_ray.pipelines import commits as cm

    p = _corpus(tmp_path)
    cp = _commits(tmp_path)
    out = str(tmp_path / "cli_commits_out")
    monkeypatch.setattr("ray.shutdown", lambda: None)
    rc = cli.main(["build", "--input", p, "--output", out, "--commits", cp])
    assert rc == 0
    metrics = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    files = rd.read_parquet(f"{out}/files").to_pandas().set_index("path")
    assert list(files.loc["src/A.cs", "commits"]) == ["h2", "h1"]
    assert list(files.loc["src/A.cs", "tags"]) == ["v1.0"]
    commits = cm.read_commits(cp)
    for name, fold, order in (
            ("commit_nodes", cm.commit_nodes, ["hash"]),
            ("commit_edges", cm.commit_edges, ["subj", "pred", "obj"]),
            ("authored", cm.authored_stats, ["author", "path"])):
        assert os.listdir(f"{out}/{name}") == ["part-00000.parquet"], name
        table = pq.read_table(f"{out}/{name}/part-00000.parquet")
        assert table.equals(table.sort_by([(c, "ascending") for c in order]))
        assert table.equals(fold(commits).table()), name
        assert metrics[name] == table.num_rows > 0, name


def test_cli_commits_run_no_ray_data_execution(ray_session, tmp_path,
                                               monkeypatch, capsys):
    """``build --commits`` and ``incremental --commits`` finish with
    ``ray.data.read_parquet``, ``Dataset.materialize``,
    ``Dataset.write_parquet`` and every Ray Data execution raising."""
    import ray.data
    from ray.data._internal.execution.streaming_executor import (
        StreamingExecutor,
    )

    from codetoneo4j_ray import cli

    def no_ray_data(*args, **kwargs):
        raise AssertionError("a Ray Data execution ran")

    monkeypatch.setattr(ray.data, "read_parquet", no_ray_data)
    for obj, name in ((ray.data.Dataset, "materialize"),
                      (ray.data.Dataset, "write_parquet"),
                      (StreamingExecutor, "execute")):
        monkeypatch.setattr(obj, name, no_ray_data)
    monkeypatch.setattr("ray.shutdown", lambda: None)
    p, cp = _corpus(tmp_path), _commits(tmp_path)
    v1, v2 = str(tmp_path / "v1"), str(tmp_path / "v2")
    assert cli.main(["build", "--input", p, "--output", v1,
                     "--commits", cp]) == 0
    assert cli.main(["incremental", "--input", p, "--prior", v1,
                     "--output", v2, "--commits", cp]) == 0
    capsys.readouterr()
    for out in (v1, v2):
        files = pq.read_table(f"{out}/files")
        assert files["commits"].to_pylist() == [["h2", "h1"]]


def test_cli_version_is_the_package_version(capsys):
    import codetoneo4j_ray
    from codetoneo4j_ray import cli

    assert cli.main(["--version"]) == 0
    assert capsys.readouterr().out == (
        f"codetoneo4j_ray {codetoneo4j_ray.__version__}\n")


def test_cli_incremental_with_commits_keeps_tombstones(
    ray_session, tmp_path, monkeypatch, capsys
):
    """``incremental --commits`` keeps the files table's deletion marks
    beside the commits/tags lists (MarkFileAsDeleted.cypher:1-5 and
    UpsertFile.cypher:12-13 on one File node): the deleted file's row
    has deleted=true and its stamp, every live row has its lists, and a
    second incremental from that output carries the tombstone with its
    original stamp."""
    import os

    import pandas as pd

    from codetoneo4j_ray import cli

    gone = ("MyRepo", "src/Gone.cs", "c" * 40, "csharp",
            "namespace N;\npublic class Gone { }")
    p1 = _corpus(tmp_path, ROWS + [gone], "v1.parquet")
    p2 = _corpus(tmp_path, ROWS, "v2.parquet")
    cp = _commits(tmp_path)
    monkeypatch.setattr("ray.shutdown", lambda: None)
    outs = [str(tmp_path / f"o{i}") for i in (1, 2, 3)]
    assert cli.main(["build", "--input", p1, "--output", outs[0]]) == 0
    for prior, out in zip(outs, outs[1:]):
        assert cli.main(["incremental", "--input", p2, "--prior", prior,
                         "--output", out, "--commits", cp]) == 0
    capsys.readouterr()
    stamps = []
    for out in outs[1:]:
        assert not os.path.exists(f"{out}/files.withversions")
        files = pq.read_table(f"{out}/files").to_pandas().set_index("path")
        assert list(files["deleted"]) == [False, True]
        live, tomb = files.loc["src/A.cs"], files.loc["src/Gone.cs"]
        assert list(live["commits"]) == ["h2", "h1"]
        assert list(live["tags"]) == ["v1.0"]
        assert pd.isna(live["deleted_at"])
        assert list(tomb["commits"]) == [] and list(tomb["tags"]) == []
        stamps.append(tomb["deleted_at"])
    assert stamps[0] > 0 and stamps[1] == stamps[0]


def test_build_graph_honors_byte_budget(ray_session, tmp_path, report_memory):
    """End-to-end: no driver structure of the build grows with the
    corpus, so a cluster reporting 1 byte of memory builds the corpus
    and writes the same outputs as one with memory to spare."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data as rd

    from codetoneo4j_ray.pipelines.build_graph import build_graph

    p = str(tmp_path / "corpus.parquet")
    pq.write_table(
        pa.table({
            "repo": ["r", "r"],
            "path": ["src/A.cs", "src/B.cs"],
            "commit": ["c1", "c1"],
            "lang": ["cs", "cs"],
            "content": [
                "namespace N { public class A { public void M() { "
                "var b = new B(); b.Go(); } } }",
                "namespace N { public class B { public void Go() {} } }",
            ],
        }),
        p,
    )
    out_a = str(tmp_path / "out_spare")
    m_a = build_graph(p, out_a, resume=False)

    report_memory(1)
    out_b = str(tmp_path / "out_1_byte")
    m_b = build_graph(p, out_b, resume=False)
    assert {k: m_b[k] for k in ("nodes", "edges", "files")} == {
        k: m_a[k] for k in ("nodes", "edges", "files")}

    for table in ("nodes", "edges", "files"):
        a = rd.read_parquet(f"{out_a}/{table}").to_pandas()
        b = rd.read_parquet(f"{out_b}/{table}").to_pandas()
        pd_testing_cols = sorted(a.columns)
        assert len(a) > 0, table
        assert a[pd_testing_cols].equals(b[pd_testing_cols])


def test_checkpoint_write_failure_surfaces(ray_session, tmp_path,
                                           monkeypatch):
    """A failure to write the records manifest after the scan wave has
    written the records checkpoint must fail the build, not report
    success over a partial, manifest-less checkpoint dir."""
    import pytest

    import codetoneo4j_ray.pipelines.build_graph as bg

    real_write = bg.write_manifest

    def boom(out_dir, stage, fp, meta=None):
        if stage == "records":
            raise OSError("disk full (simulated)")
        return real_write(out_dir, stage, fp, meta)

    monkeypatch.setattr(bg, "write_manifest", boom)
    p = _corpus(tmp_path)
    out = str(tmp_path / "out_ckpt_fail")
    with pytest.raises(RuntimeError, match="checkpoint write failed"):
        bg.build_graph(p, out, no_key=True)


def test_corpus_pin_budget(ray_session, monkeypatch, tmp_path):
    """read_corpus_blocks pins a small corpus with raw read tasks, and
    both stage-1 passes reuse the pinned refs; when the content estimate
    exceeds a quarter of the object-store memory the cluster reports it
    hands out read slices instead, so each pass re-reads — the 100 TB
    shape must never try to pin the input. Both builds write the same
    outputs."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray

    from codetoneo4j_ray.pipelines import build_graph as bg
    from codetoneo4j_ray.stages.bucketing import ParquetSlice

    p = str(tmp_path / "corpus.parquet")
    pq.write_table(
        pa.table({"repo": ["r"], "path": ["a.cs"], "commit": ["c"],
                  "lang": ["cs"], "content": ["class A {}" * 50]}),
        p,
    )
    pinned = bg.read_corpus_blocks(p)
    assert pinned.refs and all(isinstance(r, ray.ObjectRef)
                               for r in pinned.refs)
    assert pinned.table().num_rows == 1

    est = bg.corpus_content_bytes(p)
    real = ray.cluster_resources()

    def store_of(nbytes):
        monkeypatch.setattr("ray.cluster_resources", lambda: {
            **real, "CPU": 4.0, "object_store_memory": nbytes})

    store_of(4.0 * est)  # the estimate exactly fills the budget
    assert isinstance(bg.read_corpus_blocks(p).refs[0], ray.ObjectRef)
    store_of(4.0 * est - 4)
    streamed = bg.read_corpus_blocks(p)
    assert all(isinstance(r, ParquetSlice) for r in streamed.refs)
    assert sum(r.read().num_rows for r in streamed.refs) == 1

    # what each stage-1 pass is handed, per build
    passes: list = []
    for name in ("build_type_index", "extract_blocks"):
        def record(corpus, *args, _real=getattr(bg, name), **kwargs):
            passes.append(list(corpus.refs))
            return _real(corpus, *args, **kwargs)

        monkeypatch.setattr(bg, name, record)

    def graph(out: str) -> dict:
        bg.build_graph(p, out, resume=False)
        return {n: pq.read_table(f"{out}/{n}").to_pylist()
                for n in ("nodes", "edges", "files")}

    store_of(4.0 * est)
    under = graph(str(tmp_path / "under"))
    skim, extract = passes
    assert skim == extract and isinstance(skim[0], ray.ObjectRef)
    passes.clear()
    store_of(4.0 * est - 4)
    over = graph(str(tmp_path / "over"))
    skim, extract = passes
    assert skim == extract and isinstance(skim[0], ParquetSlice)
    assert under == over and under["nodes"]


def test_checkpoint_part_write_failure_surfaces(ray_session, tmp_path,
                                                monkeypatch):
    """A records part file the scan wave fails to write (here: a plain
    file sits where the records dir must go) fails the build with the
    checkpoint error, and no graph manifest lands."""
    import os
    import shutil

    import pytest

    import codetoneo4j_ray.pipelines.build_graph as bg
    from codetoneo4j_ray.state.manifest import read_manifest

    real_rmtree = shutil.rmtree

    def rmtree(path, *args, **kwargs):
        real_rmtree(path, *args, **kwargs)
        if str(path).endswith("/records"):
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w") as f:
                f.write("in the way")

    monkeypatch.setattr(bg.shutil, "rmtree", rmtree)
    out = str(tmp_path / "out_part_fail")
    with pytest.raises(RuntimeError, match="checkpoint write failed"):
        bg.build_graph(_corpus(tmp_path), out)
    assert read_manifest(out, "graph") is None
