"""Incremental rebuild: only changed files re-extracted; deletions drop."""

from __future__ import annotations

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from codetoneo4j_ray.schema import CORPUS_SCHEMA


def _corpus(rows):
    cols = list(zip(*rows))
    return pa.table(
        {f.name: pa.array(list(cols[i]), pa.string())
         for i, f in enumerate(CORPUS_SCHEMA)},
        schema=CORPUS_SCHEMA,
    )


V1 = [
    ("r1", "src/A.cs", "c" * 40, "csharp",
     "namespace N;\npublic class A { public void M() {} }"),
    ("r1", "src/B.cs", "c" * 40, "csharp",
     "namespace N;\npublic class B { public void Old() {} }"),
    ("r1", "src/Gone.cs", "c" * 40, "csharp",
     "namespace N;\npublic class Gone { }"),
]
V2 = [
    V1[0],  # unchanged
    ("r1", "src/B.cs", "d" * 40, "csharp",
     "namespace N;\npublic class B { public void New() {} }"),  # changed
    # src/Gone.cs deleted
    ("r1", "src/C.cs", "d" * 40, "csharp",
     "namespace N;\npublic class C { }"),  # added
]


@pytest.fixture(scope="module")
def incr(ray_session, tmp_path_factory):
    base = tmp_path_factory.mktemp("incr")
    p1, p2 = str(base / "v1.parquet"), str(base / "v2.parquet")
    pq.write_table(_corpus(V1), p1)
    pq.write_table(_corpus(V2), p2)
    from codetoneo4j_ray.pipelines.build_graph import build_graph
    from codetoneo4j_ray.pipelines.incremental import build_graph_incremental

    out1, out2 = str(base / "out1"), str(base / "out2")
    build_graph(p1, out1)
    metrics = build_graph_incremental(p2, out1, out2)

    # a from-scratch build of v2 must equal the incremental one
    out_full = str(base / "out_full")
    build_graph(p2, out_full)
    import ray.data as rd

    return {
        "metrics": metrics,
        "incr": {n: rd.read_parquet(f"{out2}/{n}").to_pandas()
                 for n in ("nodes", "edges", "files")},
        "full": {n: rd.read_parquet(f"{out_full}/{n}").to_pandas()
                 for n in ("nodes", "edges", "files")},
    }


def test_delta_detection(incr):
    m = incr["metrics"]
    assert m["changed_files"] == 2  # B changed + C added
    assert m["deleted_files"] == 1
    assert m["deleted"] == ["r1:src/Gone.cs"]


def _sorted_rows(df):
    """Row-order-insensitive canonical form: Ray's read_parquet
    concatenates file fragments, so two reads of identically-sorted
    outputs can disagree on block order under load; global output
    ORDER itself is asserted by the strict oracle hash tests."""
    df = df.reset_index(drop=True)
    return df.iloc[
        df.astype(str).apply(lambda r: "\x00".join(r), axis=1).argsort(kind="stable")
    ].reset_index(drop=True)


def test_incremental_equals_full_rebuild(incr):
    for n in ("nodes", "edges", "files"):
        a = incr["incr"][n].reset_index(drop=True)
        b = incr["full"][n].reset_index(drop=True)
        if n == "files":
            # the incremental table additionally carries tombstones
            # (MarkFileAsDeleted analog) — live rows must equal the
            # fresh full rebuild exactly
            a = a[~a["deleted"]].drop(columns=["deleted", "deleted_at"])
            a = a.reset_index(drop=True)
        assert _sorted_rows(a).equals(_sorted_rows(b)), f"{n} differs"


def test_deleted_file_tombstone(incr):
    """Deleted files stay as tombstone rows with their prior properties
    (MarkFileAsDeleted.cypher:1-5: deleted=true, deletedAt set)."""
    files = incr["incr"]["files"]
    tomb = files[files["deleted"]]
    assert list(tomb["path"]) == ["src/Gone.cs"]
    assert tomb["deleted_at"].notna().all()
    assert tomb["sha256"].notna().all()  # prior props carried
    # tombstones and live rows are disjoint key sets
    assert not (set(tomb["key"]) & set(files.loc[~files["deleted"], "key"]))


def test_old_symbols_gone_new_present(incr):
    keys = set(incr["incr"]["nodes"]["key"])
    assert "r1:N.B.New()" in keys
    assert "r1:N.B.Old()" not in keys
    assert "r1:N.Gone" not in keys
    assert "r1:N.C" in keys


def test_unhandled_rows_never_count_as_changed(ray_session, tmp_path):
    """Rows no handler takes (docs, images, excluded dirs) yield no
    records, so editing, adding or keeping them changes nothing:
    ``changed_files`` counts only the edited + added handled files."""
    from codetoneo4j_ray.pipelines.build_graph import build_graph
    from codetoneo4j_ray.pipelines.incremental import build_graph_incremental
    import ray.data as rd

    def other(path, text):
        return ("r1", path, "c" * 40, "", text)

    v1 = V1 + [other("README.md", "# r1"), other("img/logo.png", "\x89PNG"),
               other("bin/Gen.cs", "namespace G;\npublic class Gen { }")]
    v2 = V2 + [other("README.md", "# r1, edited"),
               other("img/logo.png", "\x89PNG"),
               other("docs/notes.txt", "added"),
               other("bin/Gen.cs", "namespace G;\npublic class Gen2 { }")]
    p1, p2 = str(tmp_path / "v1.parquet"), str(tmp_path / "v2.parquet")
    pq.write_table(_corpus(v1), p1)
    pq.write_table(_corpus(v2), p2)
    out1, out2, out_full = (str(tmp_path / d) for d in ("o1", "o2", "of"))
    build_graph(p1, out1)
    m = build_graph_incremental(p2, out1, out2)
    build_graph(p2, out_full)

    assert m["changed_files"] == 2  # B edited + C added
    assert m["deleted"] == ["r1:src/Gone.cs"]
    for n in ("nodes", "edges", "files"):
        a = rd.read_parquet(f"{out2}/{n}").to_pandas()
        b = rd.read_parquet(f"{out_full}/{n}").to_pandas()
        if n == "files":  # live rows only (tombstones are incremental-only)
            a = a[~a["deleted"]].drop(columns=["deleted", "deleted_at"])
        assert _sorted_rows(a).equals(_sorted_rows(b)), f"{n} differs"


def test_shared_file_key_across_repos(ray_session, tmp_path):
    """Non-C# file keys are repo-less paths, so two repos' copies of
    ``web/site.css`` share one files-table row. The diff runs against
    the per-(repo, path) file records instead: unchanged copies are not
    re-extracted, and deleting one repo's copy drops its records."""
    from codetoneo4j_ray.pipelines.build_graph import build_graph
    from codetoneo4j_ray.pipelines.incremental import build_graph_incremental
    import ray.data as rd

    def row(repo, path, text, commit="c" * 40):
        return (repo, path, commit, "", text)

    shared = [row("ra", "web/site.css", ".a { color: red; }\n"),
              row("rb", "web/site.css", ".b { color: blue; }\n"),
              row("rc", "web/site.css", ".c { color: green; }\n")]
    cs = row("ra", "src/A.cs", "namespace N;\npublic class A { }")
    v1 = shared + [cs]
    v2 = shared[:1] + shared[2:] + [
        row("ra", "src/A.cs", "namespace N;\npublic class A2 { }", "d" * 40)
    ]
    p1, p2 = str(tmp_path / "v1.parquet"), str(tmp_path / "v2.parquet")
    pq.write_table(_corpus(v1), p1)
    pq.write_table(_corpus(v2), p2)
    out1, out2, out_full = (str(tmp_path / d) for d in ("o1", "o2", "of"))
    build_graph(p1, out1)
    m = build_graph_incremental(p2, out1, out2)
    build_graph(p2, out_full)

    assert m["changed_files"] == 1  # only src/A.cs
    assert m["deleted"] == ["rb:web/site.css"]
    for n in ("nodes", "edges", "files"):
        a = rd.read_parquet(f"{out2}/{n}").to_pandas()
        b = rd.read_parquet(f"{out_full}/{n}").to_pandas()
        if n == "files":  # live rows only (tombstones are incremental-only)
            a = a[~a["deleted"]].drop(columns=["deleted", "deleted_at"])
        assert _sorted_rows(a).equals(_sorted_rows(b)), f"{n} differs"


def test_incremental_cross_file_reference(ray_session, tmp_path):
    """A changed file calling a method declared in an UNCHANGED file must
    keep its INVOKES edge — the pass-A type index has to cover the full
    corpus, not just the delta (incremental == full contract)."""
    lib = ("namespace Lib;\npublic class Helper {\n"
           "  public void Go() { }\n}")
    v1 = [
        ("r1", "src/A.cs", "c" * 40, "csharp", lib),
        ("r1", "src/B.cs", "c" * 40, "csharp",
         "using Lib;\nnamespace App;\npublic class B {\n"
         "  public void Run() { var h = new Helper(); h.Go(); }\n}"),
    ]
    v2 = [
        v1[0],  # Lib/Helper UNCHANGED
        ("r1", "src/B.cs", "d" * 40, "csharp",
         "using Lib;\nnamespace App;\npublic class B {\n"
         "  public void Run2() { var h = new Helper(); h.Go(); }\n}"),
    ]
    p1, p2 = str(tmp_path / "v1.parquet"), str(tmp_path / "v2.parquet")
    pq.write_table(_corpus(v1), p1)
    pq.write_table(_corpus(v2), p2)
    from codetoneo4j_ray.pipelines.build_graph import build_graph
    from codetoneo4j_ray.pipelines.incremental import build_graph_incremental

    out1, out2, out_full = (str(tmp_path / d) for d in ("o1", "o2", "of"))
    build_graph(p1, out1)
    build_graph_incremental(p2, out1, out2)
    build_graph(p2, out_full)
    import ray.data as rd

    incr_edges = rd.read_parquet(f"{out2}/edges").to_pandas()
    full_edges = rd.read_parquet(f"{out_full}/edges").to_pandas()
    assert incr_edges.reset_index(drop=True).equals(
        full_edges.reset_index(drop=True)
    )
    inv = incr_edges[incr_edges["pred"] == "src__INVOKES"]
    assert ("r1:App.B.Run2()", "r1:Lib.Helper.Go()") in set(
        zip(inv["subj"], inv["obj"])
    )


def test_incremental_no_key_equals_full(ray_session, tmp_path):
    """--no-key must thread into incremental re-extraction: a mixed-key
    graph (prior no-key records + repo-prefixed delta records) would
    stop carried and re-extracted symbols from merging."""
    import ray.data as rd

    from codetoneo4j_ray.pipelines.build_graph import build_graph
    from codetoneo4j_ray.pipelines.incremental import build_graph_incremental

    p1, p2 = str(tmp_path / "v1.parquet"), str(tmp_path / "v2.parquet")
    pq.write_table(_corpus(V1), p1)
    pq.write_table(_corpus(V2), p2)
    out1 = str(tmp_path / "out1")
    out2 = str(tmp_path / "out2")
    out_full = str(tmp_path / "out_full")
    build_graph(p1, out1, no_key=True)
    build_graph_incremental(p2, out1, out2, no_key=True)
    build_graph(p2, out_full, no_key=True)
    for n in ("nodes", "edges", "files"):
        a = rd.read_parquet(f"{out2}/{n}").to_pandas().reset_index(drop=True)
        b = (rd.read_parquet(f"{out_full}/{n}").to_pandas()
             .reset_index(drop=True))
        if n == "files":  # live rows only (tombstones are incremental-only)
            a = (a[~a["deleted"]].drop(columns=["deleted", "deleted_at"])
                 .reset_index(drop=True))
        assert _sorted_rows(a).equals(_sorted_rows(b)), f"{n} differs"
    keys = set(rd.read_parquet(f"{out2}/nodes").to_pandas()["key"])
    assert ":N.B.New()" in keys and "r1:N.B.New()" not in keys


def test_tombstone_chain_and_resurrection(ray_session, tmp_path):
    """Tombstones carry across chained incrementals with their ORIGINAL
    deleted_at; a reappearing file returns to live and re-extracts."""
    from codetoneo4j_ray.pipelines.build_graph import build_graph
    from codetoneo4j_ray.pipelines.incremental import build_graph_incremental
    import ray.data as rd

    a = ("r1", "src/A.cs", "c" * 40, "csharp",
         "namespace N;\npublic class A { }")
    gone = ("r1", "src/Gone.cs", "c" * 40, "csharp",
            "namespace N;\npublic class Gone { }")
    p1, p2, p3 = (str(tmp_path / f"v{i}.parquet") for i in (1, 2, 3))
    pq.write_table(_corpus([a, gone]), p1)
    pq.write_table(_corpus([a]), p2)            # Gone deleted
    pq.write_table(_corpus([a, gone]), p3)      # Gone resurrected

    out1 = str(tmp_path / "o1")
    build_graph(p1, out1)

    out2 = str(tmp_path / "o2")
    m2 = build_graph_incremental(p2, out1, out2, deleted_at_sec=111)
    f2 = rd.read_parquet(f"{out2}/files").to_pandas()
    t2 = f2[f2["deleted"]]
    assert list(t2["path"]) == ["src/Gone.cs"]
    assert list(t2["deleted_at"]) == [111]
    assert m2["tombstones"] == 1

    # chained run, Gone still absent: stamp must NOT refresh
    out3 = str(tmp_path / "o3")
    m3 = build_graph_incremental(p2, out2, out3, deleted_at_sec=222)
    f3 = rd.read_parquet(f"{out3}/files").to_pandas()
    t3 = f3[f3["deleted"]]
    assert list(t3["path"]) == ["src/Gone.cs"]
    assert list(t3["deleted_at"]) == [111]      # original stamp carried
    assert m3["deleted_files"] == 0 and m3["tombstones"] == 1

    # resurrection: Gone reappears → re-extracted, tombstone drops
    out4 = str(tmp_path / "o4")
    m4 = build_graph_incremental(p3, out3, out4, deleted_at_sec=333)
    f4 = rd.read_parquet(f"{out4}/files").to_pandas()
    assert not f4["deleted"].any()
    assert "src/Gone.cs" in set(f4["path"])
    nodes4 = rd.read_parquet(f"{out4}/nodes").to_pandas()
    assert "r1:N.Gone" in set(nodes4["key"])    # symbols re-extracted
    assert m4["changed_files"] == 1 and m4["tombstones"] == 0


def test_incremental_checkpoint_write_failure_surfaces(
    ray_session, tmp_path, monkeypatch,
):
    """A failure to write the records manifest fails the incremental
    rebuild too, and no graph manifest lands: a later rebuild must
    never take a partial records dir as its prior."""
    import codetoneo4j_ray.pipelines.build_graph as bg
    from codetoneo4j_ray.pipelines.incremental import build_graph_incremental
    from codetoneo4j_ray.state.manifest import read_manifest

    p1, p2 = str(tmp_path / "v1.parquet"), str(tmp_path / "v2.parquet")
    pq.write_table(_corpus(V1), p1)
    pq.write_table(_corpus(V2), p2)
    out1, out2 = str(tmp_path / "o1"), str(tmp_path / "o2")
    bg.build_graph(p1, out1)

    real_write = bg.write_manifest

    def boom(out_dir, stage, fp, meta=None):
        if stage == "records":
            raise OSError("disk full (simulated)")
        return real_write(out_dir, stage, fp, meta)

    monkeypatch.setattr(bg, "write_manifest", boom)
    with pytest.raises(RuntimeError, match="checkpoint write failed"):
        build_graph_incremental(p2, out1, out2)
    assert read_manifest(out2, "graph") is None


def test_chained_incremental_over_same_corpus(ray_session, tmp_path):
    """A rebuild whose prior is an incremental run over the same corpus
    changes nothing: no file re-extracts, every output row and the
    records count per rec_type equal the prior's. The second run reads
    the first's records/, so this also pins that the checkpoint the
    scan wave writes is complete when the first rebuild returns."""
    import os

    import ray.data as rd

    from codetoneo4j_ray.pipelines.build_graph import build_graph
    from codetoneo4j_ray.pipelines.incremental import build_graph_incremental
    from codetoneo4j_ray.stages.bucketing import footers

    p1, p2 = str(tmp_path / "v1.parquet"), str(tmp_path / "v2.parquet")
    pq.write_table(_corpus(V1), p1)
    pq.write_table(_corpus(V2), p2)
    out1, out2, out3 = (str(tmp_path / d) for d in ("o1", "o2", "o3"))
    build_graph(p1, out1)
    build_graph_incremental(p2, out1, out2, deleted_at_sec=111)
    m = build_graph_incremental(p2, out2, out3, deleted_at_sec=222)

    assert m["changed_files"] == 0 and m["deleted_files"] == 0
    for n in ("nodes", "edges", "files"):
        a = rd.read_parquet(f"{out2}/{n}").to_pandas()
        b = rd.read_parquet(f"{out3}/{n}").to_pandas()
        assert _sorted_rows(a).equals(_sorted_rows(b)), f"{n} differs"

    def rows_per_rec_type(out: str) -> dict[str, int]:
        rec = f"{out}/records"
        return {d: sum(md.num_rows for md in footers(f"{rec}/{d}"))
                for d in os.listdir(rec)}

    prior = rows_per_rec_type(out2)
    assert {"rec_type=symbol", "rec_type=file"} <= set(prior)
    assert rows_per_rec_type(out3) == prior


@pytest.mark.parametrize("forced_by", ["second_node", "low_memory"])
def test_incremental_partitioned_equals_single_node(
    ray_session, tmp_path, add_alive_node, report_memory, forced_by,
):
    """With a second alive node, or 1 byte of reported memory, the
    incremental build (one path on any cluster) writes the same nodes,
    edges and files, tombstones included, as on one node with the
    memory to spare."""
    import ray.data as rd

    from codetoneo4j_ray.pipelines import build_graph as bg
    from codetoneo4j_ray.pipelines import incremental as inc
    from codetoneo4j_ray.sources.synth import ensure_corpus

    rows = pq.read_table(ensure_corpus("/root/testdata/sf0.001")).to_pylist()
    cs = [i for i, r in enumerate(rows) if r["path"].endswith(".cs")]
    first = rows[cs[0]]
    # edit the first C# file, delete the last, add one
    v2 = [r for i, r in enumerate(rows) if i not in (cs[0], cs[-1])]
    v2.append(dict(first, commit="d" * 40,
                   content=first["content"] + "\n// edited\n"))
    v2.append(dict(first, path="src/Added/Extra.cs", commit="d" * 40,
                   content="namespace Added;\npublic class Extra {\n"
                           "  public void Go() { var e = new Extra();"
                           " e.Stop(); }\n"
                           "  public void Stop() { }\n}\n"))
    p1, p2 = str(tmp_path / "v1.parquet"), str(tmp_path / "v2.parquet")
    pq.write_table(pa.Table.from_pylist(rows, schema=CORPUS_SCHEMA), p1)
    pq.write_table(pa.Table.from_pylist(v2, schema=CORPUS_SCHEMA), p2)
    out1 = str(tmp_path / "out1")
    bg.build_graph(p1, out1)

    def incremental(out: str) -> dict:
        m = inc.build_graph_incremental(p2, out1, out,
                                        deleted_at_sec=1_700_000_000)
        assert m["changed_files"] == 2 and m["deleted_files"] == 1
        return {n: rd.read_parquet(f"{out}/{n}").to_pandas()
                for n in ("nodes", "edges", "files")}

    single = incremental(str(tmp_path / "out_single"))
    if forced_by == "second_node":
        add_alive_node()
    else:
        report_memory(1)
    multi = incremental(str(tmp_path / "out_multi"))

    assert multi["files"]["deleted"].sum() == 1
    inv = multi["edges"][multi["edges"]["pred"] == "src__INVOKES"]
    assert any(o.endswith("Added.Extra.Stop()") for o in inv["obj"])
    for n in ("nodes", "edges", "files"):
        a, b = single[n], multi[n]
        assert list(a.columns) == list(b.columns), n
        assert (a.dtypes == b.dtypes).all(), n
        assert _sorted_rows(a).equals(_sorted_rows(b)), f"{n} differs"


def test_incremental_over_a_ray_data_checkpoint(incr, tmp_path):
    """A prior checkpoint written the earlier way — Ray Data's
    ``write_parquet(partition_cols=["rec_type"])``, with Ray's part file
    names — still serves as the prior of an incremental rebuild, which
    equals a full rebuild."""
    import os
    import shutil

    import pyarrow.dataset as pds
    import ray.data as rd

    from codetoneo4j_ray.pipelines.build_graph import build_graph
    from codetoneo4j_ray.pipelines.incremental import build_graph_incremental

    p1, p2 = str(tmp_path / "v1.parquet"), str(tmp_path / "v2.parquet")
    pq.write_table(_corpus(V1), p1)
    pq.write_table(_corpus(V2), p2)
    out1, out2 = str(tmp_path / "o1"), str(tmp_path / "o2")
    build_graph(p1, out1)
    records = pds.dataset(f"{out1}/records", format="parquet",
                          partitioning="hive").to_table()
    shutil.rmtree(f"{out1}/records")
    rd.from_arrow(records).write_parquet(f"{out1}/records",
                                         partition_cols=["rec_type"])
    parts = [f for d in os.listdir(f"{out1}/records")
             for f in os.listdir(f"{out1}/records/{d}")]
    assert parts and not any(f.startswith("part-") for f in parts)

    m = build_graph_incremental(p2, out1, out2)
    assert m["changed_files"] == 2 and m["deleted_files"] == 1
    for n in ("nodes", "edges", "files"):
        a = rd.read_parquet(f"{out2}/{n}").to_pandas()
        if n == "files":
            assert list(a.loc[a["deleted"], "path"]) == ["src/Gone.cs"]
            a = a[~a["deleted"]].drop(columns=["deleted", "deleted_at"])
        b = incr["full"][n]
        assert _sorted_rows(a).equals(_sorted_rows(b)), f"{n} differs"


# A chain of commits: v2 edits the type another file calls, edits a CSS
# file, deletes a file and adds one that calls the edited type; v3 (built
# on v2's incremental output) edits the caller, edits a project-root
# manifest and deletes another file.
LIB = ("namespace Lib;\npublic class Helper {\n  public int Count { get; }\n"
       "  public void Go() { }\n}")
APP = ("using Lib;\nnamespace App;\npublic class B {\n"
       "  public void Run() { var h = new Helper(); h.Go(); }\n}")
CHAIN_V1 = [
    ("r1", "src/Lib.cs", "c" * 40, "csharp", LIB),
    ("r1", "src/App.cs", "c" * 40, "csharp", APP),
    ("r1", "src/Gone.cs", "c" * 40, "csharp",
     "namespace App;\npublic class Gone { }"),
    ("r1", "src/Other.cs", "c" * 40, "csharp",
     "global using Lib;\nnamespace App;\npublic class Other { }"),
    ("r1", "web/site.css", "c" * 40, "css", ".a { color: red; }\n"),
    ("r1", "client/package.json", "c" * 40, "json", '{"name": "web"}'),
    ("r2", "src/Lib.cs", "c" * 40, "csharp", LIB),
]
CHAIN_V2 = [
    ("r1", "src/Lib.cs", "d" * 40, "csharp",
     LIB.replace("Go()", "Go2()").replace(
         "{ }\n}", "{ }\n  public void Stop() { }\n}")),
    CHAIN_V1[1], CHAIN_V1[3],
    ("r1", "web/site.css", "d" * 40, "css", ".a { color: blue; }\n"),
    CHAIN_V1[5], CHAIN_V1[6],
    ("r1", "src/Extra.cs", "d" * 40, "csharp",
     "using Lib;\nnamespace App;\npublic class Extra {\n"
     "  public void Go() { var h = new Helper(); h.Stop(); }\n}"),
]
CHAIN_V3 = [
    CHAIN_V2[0],
    ("r1", "src/App.cs", "e" * 40, "csharp",
     APP.replace("h.Go();", "h.Go2(); h.Stop();")),
    CHAIN_V2[3],
    ("r1", "client/package.json", "e" * 40, "json", '{"name": "web2"}'),
    CHAIN_V2[5], CHAIN_V2[6],
]


def _tables(out: str) -> dict:
    """The live rows of ``out``'s outputs and its type-index rows, each
    in a row-order-insensitive form."""
    res = {}
    for n in ("nodes", "edges", "files", "type_index"):
        df = pq.read_table(f"{out}/{n}").to_pandas()
        if "deleted" in df:  # live rows only
            df = df[~df["deleted"]].drop(columns=["deleted", "deleted_at"])
        res[n] = _sorted_rows(df)
    return res


def _run_chain(base) -> dict:
    """Full builds of every version, and v2, v3 as chained incrementals."""
    from codetoneo4j_ray.pipelines.build_graph import build_graph
    from codetoneo4j_ray.pipelines.incremental import build_graph_incremental

    res: dict = {"full": {}, "incr": {}, "metrics": {}}
    for i, rows in enumerate((CHAIN_V1, CHAIN_V2, CHAIN_V3), 1):
        p = str(base / f"v{i}.parquet")
        pq.write_table(_corpus(rows), p)
        out = str(base / f"full{i}")
        res["metrics"][f"full{i}"] = build_graph(p, out, resume=False)
        res["full"][i] = _tables(out)
        if i > 1:
            prior = str(base / ("full1" if i == 2 else "incr2"))
            out = str(base / f"incr{i}")
            res["metrics"][f"incr{i}"] = build_graph_incremental(
                p, prior, out, deleted_at_sec=111 * i)
            res["incr"][i] = _tables(out)
    return res


@pytest.fixture(scope="module")
def chain(ray_session, tmp_path_factory):
    return _run_chain(tmp_path_factory.mktemp("chain"))


def test_chained_incremental_equals_full_rebuild(chain):
    """An incremental built on an incremental output, after commits that
    edit a type another file calls and delete files, writes the live
    rows and the type-index rows of a full rebuild."""
    for i in (2, 3):
        for n, want in chain["full"][i].items():
            assert chain["incr"][i][n].equals(want), (i, n)
    edges = chain["incr"][3]["edges"]
    inv = set(zip(edges.loc[edges["pred"] == "src__INVOKES", "subj"],
                  edges.loc[edges["pred"] == "src__INVOKES", "obj"]))
    assert {("r1:App.B.Run()", "r1:Lib.Helper.Go2()"),
            ("r1:App.B.Run()", "r1:Lib.Helper.Stop()"),
            ("r1:App.Extra.Go()", "r1:Lib.Helper.Stop()")} <= inv
    m = chain["metrics"]
    assert (m["incr2"]["changed_files"], m["incr2"]["deleted_files"]) == (3, 1)
    assert (m["incr3"]["changed_files"], m["incr3"]["deleted_files"]) == (2, 1)


def test_skimmed_files_counts_what_pass_a_reads(chain):
    """A full build skims every C# source and project-root manifest; an
    incremental skims only the changed ones (not the edited CSS file)."""
    from codetoneo4j_ray.stages.extract import skims

    m = chain["metrics"]
    for i, rows in enumerate((CHAIN_V1, CHAIN_V2, CHAIN_V3), 1):
        assert m[f"full{i}"]["skimmed_files"] == sum(
            skims(r[1]) for r in rows) > 0
    assert m["incr2"]["skimmed_files"] == 2  # Lib.cs, Extra.cs
    assert m["incr3"]["skimmed_files"] == 2  # App.cs, package.json


def test_incremental_over_the_pin_budget(chain, tmp_path):
    """With the corpus over the pin budget (each task reads its own
    ``ParquetSlice``), the chain writes what the pinned chain writes."""
    import ray

    from codetoneo4j_ray.pipelines.build_graph import read_corpus_blocks
    from codetoneo4j_ray.stages.bucketing import ParquetSlice

    real = ray.cluster_resources
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("ray.cluster_resources",
                   lambda: {**real(), "object_store_memory": 4.0})
        p = str(tmp_path / "probe.parquet")
        pq.write_table(_corpus(CHAIN_V1), p)
        assert all(isinstance(b, ParquetSlice)
                   for b in read_corpus_blocks(p).refs)
        streamed = _run_chain(tmp_path)
    for kind in ("full", "incr"):
        for i, tables in chain[kind].items():
            for n, want in tables.items():
                assert streamed[kind][i][n].equals(want), (kind, i, n)
    assert streamed["metrics"]["incr3"]["skimmed_files"] == 2


def test_every_path_pass_a_reads_has_a_handler():
    """Pass A reads only paths some handler takes, so every file with
    type-index rows is on the incremental diff's current side."""
    from codetoneo4j_ray.sources.synth import ensure_corpus
    from codetoneo4j_ray.stages.extract import has_handler, skim_batch, skims

    corpus = pq.read_table(ensure_corpus("/root/testdata/sf0.001"),
                           columns=["repo", "path", "content"])
    extra = pa.table({
        "repo": ["r"] * 3,
        "path": ["Foo.CS", "web/Package.JSON", "bin/X.cs"],
        "content": ["public class Foo { }", '{"name": "w"}',
                    "public class X { }"],
    })
    table = pa.concat_tables([corpus, extra])
    paths = table["path"].to_pylist()
    assert all(has_handler(p) for p in paths if skims(p))
    read = set(skim_batch(table)["path"].to_pylist())
    assert read and all(skims(p) for p in read)
    assert "web/Package.JSON" in read
    assert not {"Foo.CS", "bin/X.cs"} & read


def test_incremental_refuses_an_incomplete_prior_type_index(ray_session,
                                                            tmp_path):
    """A prior output without a whole ``type_index/`` (one part gone, the
    directory gone, or no manifest, as in outputs written before builds
    kept it) fails the rebuild with a ValueError naming the directory
    and asking for a full build; nothing is written."""
    import os
    import shutil

    from codetoneo4j_ray.pipelines.build_graph import build_graph
    from codetoneo4j_ray.pipelines.incremental import build_graph_incremental
    from codetoneo4j_ray.state.manifest import read_manifest

    p1, p2 = str(tmp_path / "v1.parquet"), str(tmp_path / "v2.parquet")
    pq.write_table(_corpus(V1), p1)
    pq.write_table(_corpus(V2), p2)
    out1 = str(tmp_path / "o1")
    build_graph(p1, out1)
    parts = sorted(os.listdir(f"{out1}/type_index"))
    assert len(parts) > 1

    def one_part_gone(d):
        os.remove(f"{d}/type_index/{parts[-1]}")

    def dir_gone(d):
        shutil.rmtree(f"{d}/type_index")

    def no_manifest(d):
        os.remove(f"{d}/type_index.manifest.json")

    for damage in (one_part_gone, dir_gone, no_manifest):
        prior = str(tmp_path / damage.__name__)
        shutil.copytree(out1, prior)
        damage(prior)
        out = str(tmp_path / f"{damage.__name__}_out")
        with pytest.raises(ValueError, match="type_index.*full build"):
            build_graph_incremental(p2, prior, out)
        assert not os.path.exists(out)
        assert read_manifest(out, "graph") is None
    build_graph_incremental(p2, out1, str(tmp_path / "o2"))


def test_type_index_write_failure_surfaces(ray_session, tmp_path,
                                           monkeypatch):
    """A type-index part that fails to write (here: a directory sits where
    the part file goes) fails a fresh build and an incremental one with
    the type-index error before any records or graph manifest is
    written. The failed build over an earlier complete output leaves
    neither its records nor its type index looking complete."""
    import os

    from codetoneo4j_ray.pipelines.build_graph import build_graph
    from codetoneo4j_ray.pipelines.incremental import build_graph_incremental
    from codetoneo4j_ray.state.manifest import read_manifest

    p1, p2 = str(tmp_path / "v1.parquet"), str(tmp_path / "v2.parquet")
    pq.write_table(_corpus(V1), p1)
    pq.write_table(_corpus(V2), p2)
    out1, out2 = str(tmp_path / "o1"), str(tmp_path / "o2")
    build_graph(p1, out1)
    real = os.makedirs

    def makedirs(path, *args, **kwargs):
        real(path, *args, **kwargs)
        if str(path).endswith("/type_index"):
            real(f"{path}/part-00000.parquet")

    monkeypatch.setattr(os, "makedirs", makedirs)
    for build in (lambda: build_graph_incremental(p2, out1, out2),
                  lambda: build_graph(p2, out1)):
        with pytest.raises(RuntimeError, match="type index write failed"):
            build()
    for out, stages in ((out1, ("type_index", "records")),
                        (out2, ("type_index", "records", "graph"))):
        for stage in stages:
            assert read_manifest(out, stage) is None, (out, stage)


def test_corpus_without_csharp_writes_empty_type_index_parts(ray_session,
                                                             tmp_path):
    """A corpus with no C# file and no manifest still writes its type
    index, as empty parts, so an incremental over it finds it whole."""
    import os

    from codetoneo4j_ray.pipelines.build_graph import build_graph
    from codetoneo4j_ray.pipelines.incremental import build_graph_incremental

    def row(path, text, commit="c" * 40):
        return ("r1", path, commit, "", text)

    v1 = [row("web/index.html", "<html></html>"),
          row("web/site.css", ".a { }")]
    v2 = [row("web/index.html", "<html><body></body></html>", "d" * 40),
          v1[1]]
    p1, p2 = str(tmp_path / "v1.parquet"), str(tmp_path / "v2.parquet")
    pq.write_table(_corpus(v1), p1)
    pq.write_table(_corpus(v2), p2)
    out1, out2 = str(tmp_path / "o1"), str(tmp_path / "o2")
    assert build_graph(p1, out1)["skimmed_files"] == 0
    parts = os.listdir(f"{out1}/type_index")
    assert parts and pq.read_table(f"{out1}/type_index").num_rows == 0
    m = build_graph_incremental(p2, out1, out2)
    assert m["changed_files"] == 1 and m["skimmed_files"] == 0
    assert os.listdir(f"{out2}/type_index")


def test_rebuild_refuses_a_prior_cut_short_in_stages_2_4(ray_session,
                                                         tmp_path,
                                                         monkeypatch):
    """A resumed build over a complete output whose files reduce raises
    (here: a directory sits where its part file goes) leaves no graph
    manifest beside the partial tables. A rebuild from it, or from a
    prior whose graph manifest carries another fingerprint than its
    records, raises the full-build ValueError and writes nothing."""
    import os
    import shutil

    from codetoneo4j_ray.pipelines.build_graph import build_graph
    from codetoneo4j_ray.pipelines.incremental import build_graph_incremental
    from codetoneo4j_ray.state.manifest import read_manifest, write_manifest

    p1, p2 = str(tmp_path / "v1.parquet"), str(tmp_path / "v2.parquet")
    pq.write_table(_corpus(V1), p1)
    pq.write_table(_corpus(V2), p2)
    out1 = str(tmp_path / "o1")
    build_graph(p1, out1)

    cut = str(tmp_path / "cut")
    shutil.copytree(out1, cut)
    real = os.makedirs

    def makedirs(path, *args, **kwargs):
        real(path, *args, **kwargs)
        if str(path).endswith("/files"):
            real(f"{path}/part-00000.parquet")

    with monkeypatch.context() as m:
        m.setattr(os, "makedirs", makedirs)
        with pytest.raises(OSError):
            build_graph(p1, cut)
    assert read_manifest(cut, "records") is not None  # stage 1 was resumed
    assert read_manifest(cut, "graph") is None

    other = str(tmp_path / "other_fp")
    shutil.copytree(out1, other)
    graph = read_manifest(other, "graph")
    write_manifest(other, "graph", "another build", graph["metrics"])

    for prior in (cut, other):
        out = f"{prior}_out"
        with pytest.raises(ValueError, match="full build"):
            build_graph_incremental(p2, prior, out)
        assert not os.path.exists(out)


def test_tombstones_read_in_several_slices(ray_session, tmp_path,
                                           monkeypatch):
    """The prior files table read in several slices (block size patched
    down) gives the tombstone rows, stamps and row order of a one-slice
    read, for new deletions and for carried tombstones alike."""
    import ray.data

    from codetoneo4j_ray.pipelines.build_graph import build_graph, parquet_bytes
    from codetoneo4j_ray.pipelines.incremental import build_graph_incremental
    from codetoneo4j_ray.stages import bucketing

    rows = [("r1", f"src/F{i}.cs", "c" * 40, "csharp",
             f"namespace N;\npublic class F{i} {{ }}") for i in range(6)]
    p1, p2 = str(tmp_path / "v1.parquet"), str(tmp_path / "v2.parquet")
    pq.write_table(_corpus(rows), p1)
    pq.write_table(_corpus(rows[:2]), p2)  # F2..F5 deleted
    out1 = str(tmp_path / "o1")
    build_graph(p1, out1)

    def slices(files_dir):
        return bucketing.plan_reads(
            files_dir, bucketing.blocks_for(parquet_bytes(files_dir)))

    def chain(name):
        o2, o3 = str(tmp_path / f"{name}2"), str(tmp_path / f"{name}3")
        build_graph_incremental(p2, out1, o2, deleted_at_sec=111)
        build_graph_incremental(p2, o2, o3, deleted_at_sec=222)
        return [pq.read_table(f"{o}/files").to_pandas() for o in (o2, o3)]

    whole = chain("whole")
    assert len(slices(f"{out1}/files")) == 1
    monkeypatch.setattr(bucketing, "target_blocks", lambda: 4)
    monkeypatch.setattr(ray.data.DataContext.get_current(),
                        "target_min_block_size", 1)
    assert len(slices(f"{out1}/files")) > 1
    sliced = chain("sliced")
    for a, b in zip(whole, sliced):
        tomb = a[a["deleted"]]
        assert list(tomb["path"]) == [f"src/F{i}.cs" for i in range(2, 6)]
        assert list(tomb["deleted_at"]) == [111] * 4
        assert a.equals(b)
