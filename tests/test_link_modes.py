"""Broadcast vs partitioned stage-1/2 equivalence, and the helpers
both paths share.

``resolve_mode`` picks the partitioned path when more than one alive
node is attached; these tests force it on one node by reporting a
second alive node through ``ray.nodes`` (the ``add_alive_node``
fixture).
"""

from __future__ import annotations

import pyarrow as pa
import pytest


@pytest.fixture(scope="module", autouse=True)
def _ray(ray_session):
    yield


def test_partitioned_join_matches_broadcast():
    """Both endpoint semi-joins keep exactly the mentions a plain-Python
    semi-join keeps: dangling subj or obj dropped, the self-loop kept,
    duplicates kept by the broadcast probe (the fused partitioned
    exchange deduplicates, so it is compared as a set)."""
    import ray.data

    from codetoneo4j_ray.stages.link import (
        MENTION_COLS,
        resolve_edges_broadcast,
        resolve_link_fused,
    )

    keys = [f"k{i}" for i in range(50)]
    mentions = []
    for i in range(200):
        s = f"k{i % 60}"          # some subjects dangle (k50..k59)
        o = f"k{(i * 7) % 70}"    # some objects dangle
        mentions.append((s, "src__INVOKES", o))
    mentions.append(("k1", "src__CONTAINS", "k1"))   # self-loop
    mentions.append(("k2", "src__CONTAINS", "k3"))
    mentions.append(("k2", "src__CONTAINS", "k3"))   # duplicate row
    mentions.append(("k2", "src__CONTAINS", "k51"))  # subj ok, obj dangling
    mentions.append(("k52", "src__CONTAINS", "k2"))  # obj ok, subj dangling

    key_set = set(keys)
    expected = sorted(m for m in mentions if m[0] in key_set and m[2] in key_set)
    assert ("k1", "src__CONTAINS", "k1") in expected
    assert expected.count(("k2", "src__CONTAINS", "k3")) == 2
    assert len(expected) < len(mentions)

    n = len(mentions)
    m_ds = ray.data.from_arrow(
        pa.table(
            {
                "subj": pa.array([m[0] for m in mentions]),
                "pred": pa.array([m[1] for m in mentions]),
                "obj": pa.array([m[2] for m in mentions]),
                "repo": pa.array(["r"] * n),
                "ctx_kind": pa.array([""] * n),
                "ctx_name": pa.nulls(n, pa.string()),
                "ctx_receiver": pa.nulls(n, pa.string()),
                "ctx_argc": pa.nulls(n, pa.int32()),
            }
        ).select(MENTION_COLS)
    )
    s_ds = ray.data.from_arrow(
        pa.table({"key": pa.array(keys), "repo": pa.array(["r"] * len(keys))})
    )

    broadcast = resolve_edges_broadcast(m_ds, key_set).to_pandas()
    assert list(broadcast.columns) == ["subj", "pred", "obj"]
    assert sorted(map(tuple, broadcast.values)) == expected

    fused = resolve_link_fused(m_ds, s_ds).to_pandas()
    assert sorted(map(tuple, fused[["subj", "pred", "obj"]].values)) == sorted(
        set(expected)
    )


def test_resolve_deferred_fallback_keys_and_drops():
    """The deferred-INVOKES loop both paths run: a declared member wins;
    unresolved calls and constructors keep an approximate repo-prefixed
    key (constructor name without namespace or generic arguments);
    unresolved method groups are dropped."""
    from codetoneo4j_ray.stages.link import MemberIndex, _resolve_deferred

    idx = MemberIndex()
    idx.members[("N.A", "Go")].append((0, "r:N.A.Go()"))
    rows = [  # (repo, kind, name, receiver, argc)
        ("R", "call", "Go", "N.A", 0),
        ("R", "call", "Stop", "N.A", 1),
        ("R", "ctor", "", "N.List<T>", 2),
        ("R", "mgroup", "Nope", "N.A", -2),
        ("Other", "call", "Go", "N.A", 0),  # repo with no member index
    ]
    repos, kinds, names, recvs, argcs = map(list, zip(*rows))
    objs = [""] * len(rows)
    drop = _resolve_deferred({"R": idx}, repos, kinds, names, recvs, argcs,
                             objs)
    assert list(drop) == [False, False, False, True, False]
    assert objs == ["r:N.A.Go()", "r:N.A.Stop(~1)", "r:N.List<T>.List(~2)",
                    "", "other:N.A.Go(~0)"]


def test_type_index_assembly_ignores_row_order():
    """Both stage-1 paths assemble type indices from pass-A rows that
    arrive in shuffle order; partial-class fragments and global usings
    must merge the same way whatever that order."""
    from codetoneo4j_ray.stages.extract import _assemble_type_indices, skim_batch

    files = [
        ("r", "src/A1.cs", "namespace N;\npublic partial class A : IOne"
                           " { public int X { get; } }"),
        ("r", "src/A2.cs", "namespace N;\npublic partial class A : ITwo"
                           " { public int Y; }"),
        ("r", "src/G.cs", "global using N;\nglobal using System;"),
        ("r", "client/package.json", '{"name": "web"}'),
        ("s", "src/B.cs", "namespace M;\npublic struct B<T> { }"),
    ]
    df = skim_batch(pa.table({
        "repo": [f[0] for f in files],
        "path": [f[1] for f in files],
        "content": [f[2] for f in files],
    })).to_pandas()

    def shape(indices):
        return {repo: (list(i.types.items()), i.global_usings,
                       sorted(i.namespaces), i.npm_roots, i.pub_roots)
                for repo, i in indices.items()}

    want = shape(_assemble_type_indices(df))
    assert want["r"][0][0][1].bases == ("IOne", "ITwo")
    for seed in range(3):
        shuffled = df.sample(frac=1, random_state=seed)
        assert shape(_assemble_type_indices(shuffled)) == want


def _graph_both_paths(records_dir, add_alive_node, fused_link_calls):
    """{table: (single-node frame, two-node frame)} from one checkpoint,
    checking that each run took the path it should."""
    from codetoneo4j_ray.pipelines.build_graph import graph_from_records

    def tables():
        out = graph_from_records(records_dir=records_dir)
        return {n: out[n].to_pandas().reset_index(drop=True)
                for n in ("nodes", "edges", "files")}

    single = tables()
    assert not fused_link_calls
    add_alive_node()
    multi = tables()
    assert fused_link_calls
    return {n: (single[n], multi[n]) for n in single}


def test_graph_modes_output_identical(tmp_path, add_alive_node,
                                      fused_link_calls):
    """broadcast vs partitioned (fused repo-local linking) must produce
    byte-identical nodes/edges/files over the full synthetic corpus —
    the exactness contract of the repo-prefix local-check optimization."""
    from codetoneo4j_ray.pipelines.build_graph import read_corpus
    from codetoneo4j_ray.sources.synth import ensure_corpus
    from codetoneo4j_ray.stages.extract import build_type_index, extract_records

    corpus = read_corpus(ensure_corpus("/root/testdata/sf0.001"))
    records_dir = str(tmp_path / "records")
    extract_records(corpus, build_type_index(corpus)).write_parquet(
        records_dir, partition_cols=["rec_type"]
    )
    both = _graph_both_paths(records_dir, add_alive_node, fused_link_calls)
    for name in ("nodes", "edges", "files"):
        da, db = both[name]
        assert list(da.columns) == list(db.columns), name
        assert da.equals(db), f"{name} differs between modes"


def test_kg_cache_is_the_build_output(tmp_path, monkeypatch, add_alive_node,
                                      fused_link_calls):
    """``ensure_kg`` runs the full build, so on a two-node session the KG
    cache links on the partitioned path, and the kg_edges query (the
    built edges/ table) equals the DuckDB oracle's recomputation of
    stages 2-4 from records/."""
    import duckdb

    from codetoneo4j_ray.pipelines.kg_queries import (
        ensure_kg,
        oracle_kg,
        q_kg_edges,
    )
    from codetoneo4j_ray.sources import synth

    monkeypatch.setattr(synth, "_CORPUS_ROOT", str(tmp_path))
    add_alive_node()
    sf = "sf0.001"
    ensure_kg(sf)
    assert fused_link_calls
    got = q_kg_edges(sf).to_pandas()[["subj", "pred", "obj"]]
    exp = duckdb.sql(oracle_kg(sf)["kg_edges"]).df()
    assert list(exp.columns) == ["subj", "pred", "obj"]
    assert len(got) == len(exp) > 0
    assert (sorted(map(tuple, got.itertuples(index=False)))
            == sorted(map(tuple, exp.itertuples(index=False))))


def test_stage1_partitioned_matches_task_path(tmp_path):
    """Repo-bucketed extraction (no driver index) must produce the same
    record multiset as the broadcast-index task path."""
    import pandas as pd

    from codetoneo4j_ray.pipelines.build_graph import read_corpus
    from codetoneo4j_ray.sources.synth import ensure_corpus
    from codetoneo4j_ray.stages.extract import (
        build_type_index,
        extract_records,
        extract_records_partitioned,
    )

    corpus = read_corpus(ensure_corpus("/root/testdata/sf0.001"))
    a = extract_records(corpus, build_type_index(corpus)).to_pandas()
    b = extract_records_partitioned(corpus).to_pandas()
    assert list(a.columns) == list(b.columns)
    key_cols = list(a.columns)
    a_s = a.sort_values(key_cols, kind="stable").reset_index(drop=True)
    b_s = b.sort_values(key_cols, kind="stable").reset_index(drop=True)
    pd.testing.assert_frame_equal(a_s, b_s, check_dtype=True)


def test_modes_agree_on_cross_repo_shaped_corpus(tmp_path, add_alive_node,
                                                 fused_link_calls):
    """The fused repo-local endpoint check is exact because every
    handler's mention endpoints are self-declared, repo-prefixed, or
    pkg:/url: (also self-declared) — a mention can never be satisfied
    ONLY by another repo. This corpus shapes the tempting counterexample
    (repo A imports a file only repo B has) and asserts the modes still
    agree byte-for-byte."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from codetoneo4j_ray.pipelines.build_graph import read_corpus
    from codetoneo4j_ray.schema import CORPUS_SCHEMA
    from codetoneo4j_ray.stages.extract import build_type_index, extract_records

    rows = [
        # each repo needs a package.json ancestor for TS analysis to run
        # (TypeScriptHandlerBase.cs:36-41)
        ("repoA", "client/package.json", "c" * 40, "json",
         '{"name": "client-a"}'),
        ("repoB", "client/package.json", "c" * 40, "json",
         '{"name": "client-b"}'),
        ("repoA", "client/src/app.ts", "c" * 40, "typescript",
         'import { fmt } from "./util";\nexport function go() { fmt(1); }\n'),
        # repoB declares client/src/util.ts — repoA does NOT
        ("repoB", "client/src/util.ts", "c" * 40, "typescript",
         "export function fmt(n: number): string { return String(n); }\n"),
        # same path, DIFFERENT content across repos
        ("repoA", "web/site.css", "c" * 40, "css", ".a { color: red; }\n"),
        ("repoB", "web/site.css", "c" * 40, "css", ".b { color: blue; }\n"),
    ]
    cols = list(zip(*rows))
    t = pa.table(
        {f.name: pa.array(list(cols[i]), pa.string())
         for i, f in enumerate(CORPUS_SCHEMA)},
        schema=CORPUS_SCHEMA,
    )
    p = str(tmp_path / "c.parquet")
    pq.write_table(t, p)
    records_dir = str(tmp_path / "records")
    corpus = read_corpus(p)
    extract_records(corpus, build_type_index(corpus)).write_parquet(
        records_dir, partition_cols=["rec_type"]
    )
    both = _graph_both_paths(records_dir, add_alive_node, fused_link_calls)
    for name in ("nodes", "edges", "files"):
        da, db = both[name]
        assert da.equals(db), f"{name} differs"


def test_outputs_do_not_depend_on_bucket_count(tmp_path, monkeypatch,
                                               add_alive_node,
                                               fused_link_calls):
    """Every exchange takes its bucket count from ``target_blocks()``;
    the graph must not depend on it. On both paths, a full build and an
    incremental rebuild over an edited copy write the same nodes, edges
    and files (as multisets) with 1 bucket as with 5."""
    import pyarrow.parquet as pq
    import ray.data as rd

    from codetoneo4j_ray.pipelines.build_graph import build_graph
    from codetoneo4j_ray.pipelines.incremental import build_graph_incremental
    from codetoneo4j_ray.schema import CORPUS_SCHEMA
    from codetoneo4j_ray.sources.synth import ensure_corpus
    from codetoneo4j_ray.stages import bucketing

    v1 = ensure_corpus("/root/testdata/sf0.001")
    rows = pq.read_table(v1).to_pylist()
    cs = [i for i, r in enumerate(rows) if r["path"].endswith(".cs")]
    first = rows[cs[0]]
    # edit the first C# file, delete the last, add one
    edited = [r for i, r in enumerate(rows) if i not in (cs[0], cs[-1])]
    edited.append(dict(first, commit="d" * 40,
                       content=first["content"] + "\n// edited\n"))
    edited.append(dict(first, path="src/Added/Extra.cs", commit="d" * 40,
                       content="namespace Added;\npublic class Extra { }\n"))
    v2 = str(tmp_path / "v2.parquet")
    pq.write_table(pa.Table.from_pylist(edited, schema=CORPUS_SCHEMA), v2)

    def tables(out: str) -> dict:
        return {n: sorted(map(tuple, rd.read_parquet(f"{out}/{n}").to_pandas()
                              .astype(str).itertuples(index=False)))
                for n in ("nodes", "edges", "files")}

    def build(path: str, nb: int) -> tuple[dict, dict]:
        monkeypatch.setattr(bucketing, "target_blocks", lambda: nb)
        full = str(tmp_path / f"{path}_{nb}_full")
        incr = str(tmp_path / f"{path}_{nb}_incr")
        build_graph(v1, full)
        build_graph_incremental(v2, full, incr, deleted_at_sec=1_700_000_000)
        return tables(full), tables(incr)

    for path in ("broadcast", "partitioned"):
        if path == "partitioned":
            add_alive_node()
        one, five = build(path, 1), build(path, 5)
        assert bool(fused_link_calls) == (path == "partitioned")
        for run, a, b in zip(("full", "incremental"), one, five):
            for n in a:
                assert len(a[n]) > 0, (path, run, n)
                assert a[n] == b[n], f"{path} {run} {n} differs"
