"""The one stage-1/2 path: per-repo indices in repo-keyed bucket
stores, built by raw tasks and loaded per block, never on the driver;
its outputs on any cluster shape, and the helpers it runs.

The digests below were recorded from the two paths this one replaced
(a broadcast path, with driver-built indices, and a partitioned path,
with repo-keyed exchanges), which agreed on them.
"""

from __future__ import annotations

import hashlib
import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

# {output: (rows, digest)} of the outputs a build writes over sf0.001
# (tests/test_graph_tail.py FULL) and over the cross-repo-shaped corpus
# below
SF_GRAPH = {"nodes": (271, "a98facd5751c0ab7"),
            "edges": (1180, "3330f7b26a7e9ec7"),
            "files": (41, "afe0d7e6f8f35427")}
XREPO_GRAPH = {"nodes": (4, "75ffeb81c5598312"),
               "edges": (14, "f6539e8b95c10728"),
               "files": (4, "3fe9730e76bca41a")}
OUTPUTS = ("nodes", "edges", "files")


@pytest.fixture(scope="module", autouse=True)
def _ray(ray_session):
    yield


def _digest(t: pa.Table) -> tuple[int, str]:
    """(rows, order-insensitive digest of every row)."""
    cols = sorted(t.column_names)
    rows = sorted(repr(r) for r in zip(*[t[c].to_pylist() for c in cols]))
    h = hashlib.sha256("\n".join([repr(cols)] + rows).encode())
    return t.num_rows, h.hexdigest()[:16]


def _out_digests(out: str) -> dict:
    """{output: (rows, digest)} of a build's output directory."""
    import pyarrow.dataset as pds

    return {n: _digest(pds.dataset(f"{out}/{n}", format="parquet").to_table())
            for n in OUTPUTS}


def test_resolve_deferred_fallback_keys_and_drops():
    """The deferred-INVOKES loop of step A: a declared member wins;
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
    """Pass A assembles type indices from rows that arrive in bucket
    order; partial-class fragments and global usings must merge the
    same way whatever that order."""
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


def test_graph_modes_output_identical(tmp_path, add_alive_node):
    """A build over sf0.001 writes the digests both former paths wrote,
    on one node and on a session reporting a second alive node."""
    from codetoneo4j_ray.pipelines.build_graph import build_graph
    from codetoneo4j_ray.sources.synth import ensure_corpus

    corpus = ensure_corpus("/root/testdata/sf0.001")
    build_graph(corpus, str(tmp_path / "one"), resume=False)
    assert _out_digests(str(tmp_path / "one")) == SF_GRAPH
    add_alive_node()
    build_graph(corpus, str(tmp_path / "two"), resume=False)
    assert _out_digests(str(tmp_path / "two")) == SF_GRAPH


def test_kg_cache_is_the_build_output(tmp_path, monkeypatch, add_alive_node):
    """``ensure_kg`` runs the full build (here on a session reporting a
    second alive node), and the kg_edges query (the built edges/ table)
    equals the DuckDB oracle's recomputation of stages 2-4 from
    records/, which joins the resolved-mention side table that
    ``ensure_kg`` derives with raw tasks."""
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
    got = q_kg_edges(sf).to_pandas()[["subj", "pred", "obj"]]
    exp = duckdb.sql(oracle_kg(sf)["kg_edges"]).df()
    assert list(exp.columns) == ["subj", "pred", "obj"]
    assert len(got) == len(exp) > 0
    assert (sorted(map(tuple, got.itertuples(index=False)))
            == sorted(map(tuple, exp.itertuples(index=False))))


def test_modes_agree_on_cross_repo_shaped_corpus(tmp_path, add_alive_node):
    """The repo-local endpoint check is exact because every handler's
    mention endpoints are self-declared, repo-prefixed, or pkg:/url:
    (also self-declared) — a mention can never be satisfied ONLY by
    another repo. This corpus shapes the tempting counterexample (repo
    A imports a file only repo B has) and the graph keeps the digests
    the global check wrote, on one node and under a second node."""

    from codetoneo4j_ray.pipelines.build_graph import build_graph
    from codetoneo4j_ray.schema import CORPUS_SCHEMA

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
    build_graph(p, str(tmp_path / "one"), resume=False)
    assert _out_digests(str(tmp_path / "one")) == XREPO_GRAPH
    add_alive_node()
    build_graph(p, str(tmp_path / "two"), resume=False)
    assert _out_digests(str(tmp_path / "two")) == XREPO_GRAPH


def test_outputs_do_not_depend_on_bucket_count(tmp_path, monkeypatch):
    """Every block and bucket count comes from ``blocks_for``, capped by
    ``target_blocks()``; the graph must not depend on it. With a 1-byte
    minimum block size every count reaches the cap, so a full build and
    an incremental rebuild over an edited copy run with 1 bucket and
    with 5, and must write the same nodes, edges and files (as
    multisets). The 5-bucket builds write each output in at least 2
    files, so more than one bucket was exercised."""
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
                for n in OUTPUTS}

    def build(nb: int) -> tuple[dict, dict]:
        monkeypatch.setattr(bucketing, "target_blocks", lambda: nb)
        full = str(tmp_path / f"{nb}_full")
        incr = str(tmp_path / f"{nb}_incr")
        # batch_size=8: at the default 64 the 56-file corpus reaches
        # extraction as one block, i.e. one records block, and the
        # output exchanges never merge more blocks than they get
        build_graph(v1, full, batch_size=8)
        build_graph_incremental(v2, full, incr, batch_size=8,
                                deleted_at_sec=1_700_000_000)
        if nb > 1:
            for out in (full, incr):
                for n in OUTPUTS:
                    written = [f for f in os.listdir(f"{out}/{n}")
                               if f.endswith(".parquet")]
                    assert len(written) >= 2, (out, n, written)
        return tables(full), tables(incr)

    monkeypatch.setattr(rd.DataContext.get_current(),
                        "target_min_block_size", 1)
    one, five = build(1), build(5)
    for run, a, b in zip(("full", "incremental"), one, five):
        for n in a:
            assert len(a[n]) > 0, (run, n)
            assert a[n] == b[n], f"{run} {n} differs"


# per repo: A calls B's own and inherited methods, D constructs A and
# calls it, E-H pad the repo to eight files
_REPO_FILES = {
    "src/A.cs": "namespace N { public class A { public void Run() { "
                "var b = new B(); b.Go(); b.Base(); } } }",
    "src/B.cs": "namespace N { public class B : C { public void Go() { } } }",
    "src/C.cs": "namespace N { public class C { public void Base() { } } }",
    "src/D.cs": "namespace N { public class D { public void M() { "
                "new A().Run(); } } }",
    **{f"src/{c}.cs": f"namespace N {{ public class {c} {{ }} }}"
       for c in "EFGH"},
}
_REPOS = ("alpha", "bravo", "charlie", "delta")


def _repo_rows(repo: str) -> list[dict]:
    return [{"repo": repo, "path": p, "commit": "c" * 40, "lang": "cs",
             "content": c} for p, c in _REPO_FILES.items()]


def _one_repo_per_block(tmp_path, monkeypatch):
    """At a 1-byte minimum block size (so every store has the cap of
    8 buckets): a corpus dir of one file per repo, read in blocks of one
    repo each, and one file of the same rows dealt round-robin, read in
    blocks that each hold every repo. Returns (dir, file)."""
    import ray.data

    from codetoneo4j_ray.schema import CORPUS_SCHEMA

    monkeypatch.setattr(ray.data.DataContext.get_current(),
                        "target_min_block_size", 1)
    by_repo = tmp_path / "by_repo"
    by_repo.mkdir()
    for repo in _REPOS:
        pq.write_table(pa.Table.from_pylist(_repo_rows(repo),
                                            schema=CORPUS_SCHEMA),
                       str(by_repo / f"{repo}.parquet"))
    dealt = [r for rows in zip(*map(_repo_rows, _REPOS)) for r in rows]
    mixed = str(tmp_path / "mixed.parquet")
    pq.write_table(pa.Table.from_pylist(dealt, schema=CORPUS_SCHEMA), mixed)
    return str(by_repo), mixed


def _block_repos(corpus) -> list[set]:
    import ray

    return [set(ray.get(b)["repo"].to_pylist()) for b in corpus.refs]


def test_no_index_is_built_on_the_driver(tmp_path, monkeypatch):
    """No type index, member index or key set is assembled in, or put
    into the object store from, the driver process, on fresh, resumed
    and incremental builds and in ``ensure_kg``'s side table: the
    assembly functions, wrapped wherever the package holds them, never
    run here, and ``ray.put`` is never handed an index; yet the builds
    write the recorded outputs."""
    import sys

    import ray

    from codetoneo4j_ray.extractors.csharp.types import RepoTypeIndex
    from codetoneo4j_ray.pipelines.build_graph import build_graph
    from codetoneo4j_ray.pipelines.incremental import build_graph_incremental
    from codetoneo4j_ray.pipelines.kg_queries import ensure_kg
    from codetoneo4j_ray.sources import synth
    from codetoneo4j_ray.stages import extract, link

    pids: list[tuple[str, int]] = []
    for name, real in (("_assemble_type_indices",
                        extract._assemble_type_indices),
                       ("_member_indices", link._member_indices)):
        def wrapped(*args, _real=real, _name=name, **kwargs):
            pids.append((_name, os.getpid()))
            return _real(*args, **kwargs)

        for mod in list(sys.modules.values()):
            if (getattr(mod, "__name__", "").startswith("codetoneo4j_ray")
                    and getattr(mod, name, None) is real):
                monkeypatch.setattr(mod, name, wrapped)

    def is_index(obj) -> bool:
        values = obj.values() if isinstance(obj, dict) else ()
        return isinstance(obj, (frozenset, RepoTypeIndex,
                                link.MemberIndex)) or any(
            isinstance(v, (RepoTypeIndex, link.MemberIndex)) for v in values)

    real_put = ray.put

    def put(obj, *args, **kwargs):
        assert not is_index(obj), f"the driver put a {type(obj).__name__}"
        return real_put(obj, *args, **kwargs)

    monkeypatch.setattr(ray, "put", put)

    from codetoneo4j_ray.schema import CORPUS_SCHEMA

    v1 = synth.ensure_corpus("/root/testdata/sf0.001")
    rows = pq.read_table(v1).to_pylist()
    rows.append(dict(rows[0], path="src/Added/Extra.cs", content=(
        "namespace Added;\npublic class Extra {\n"
        "  public void Go() { var e = new Extra(); e.Stop(); }\n"
        "  public void Stop() { }\n}\n")))
    v2 = str(tmp_path / "v2.parquet")
    pq.write_table(pa.Table.from_pylist(rows, schema=CORPUS_SCHEMA), v2)
    full, incr = str(tmp_path / "full"), str(tmp_path / "incr")
    build_graph(v1, full, resume=False)
    assert _out_digests(full) == SF_GRAPH
    assert build_graph(v1, full)["stage1_sec"] == 0.0  # resumed
    assert _out_digests(full) == SF_GRAPH
    assert build_graph_incremental(v2, full, incr)["changed_files"] == 1
    # resolved through the added repo's member index
    assert any(e["pred"] == "src__INVOKES"
               and e["subj"].endswith("Added.Extra.Go()")
               and e["obj"].endswith("Added.Extra.Stop()")
               for e in pq.read_table(f"{incr}/edges").to_pylist())
    monkeypatch.setattr(synth, "_CORPUS_ROOT", str(tmp_path / "kg"))
    ensure_kg("sf0.001")
    assert not [pid for _, pid in pids if pid == os.getpid()], pids


def test_tasks_load_only_their_repos_buckets(tmp_path, monkeypatch):
    """With one repo per corpus block (and so per records block) and 8
    buckets in each store, every extraction task and every stage-2 map
    task fetches only the bucket its own repo hashes to, from the type
    store and the link store. The task bodies run in this process,
    where bucket loads are recorded."""
    import ray

    from codetoneo4j_ray.extractors.accessibility import (
        DEFAULT_MIN_ACCESSIBILITY,
    )
    from codetoneo4j_ray.pipelines import build_graph as bg
    from codetoneo4j_ray.stages import bucketing
    from codetoneo4j_ray.stages.extract import (
        _extract_block,
        build_type_index,
        extract_blocks,
    )
    from codetoneo4j_ray.stages.link import _index_blobs

    by_repo, _ = _one_repo_per_block(tmp_path, monkeypatch)
    corpus = bg.read_corpus_blocks(by_repo)
    assert all(len(r) == 1 for r in _block_repos(corpus))
    assert len(corpus.refs) > len(_REPOS)

    fetched: list[tuple[str, ...]] = []
    real = bucketing.cached_view

    def cached_view(refs, view, build):
        fetched.append(tuple(r.hex() for r in refs))
        return real(refs, view, build)

    monkeypatch.setattr(bucketing, "cached_view", cached_view)

    def own_bucket(repo: str, store) -> set:
        k = bucketing._bucket_ids(pa.table({"repo": [repo]}), ["repo"],
                                  store.num_buckets)[0].as_py()
        return {tuple(r.hex() for r in store.pieces[int(k)])}

    type_store, _ = build_type_index(corpus)
    assert type_store.num_buckets == 8
    for block, (repo,) in zip(corpus.refs, _block_repos(corpus)):
        fetched.clear()
        records, _ = _extract_block._function(
            ray.get(block), type_store, [], DEFAULT_MIN_ACCESSIBILITY,
            False, None)
        assert records.num_rows and set(fetched) == own_bucket(
            repo, type_store), (repo, fetched)

    records = extract_blocks(corpus, type_store)
    assert all(len(r) == 1 for r in _block_repos(records))
    # the build's scan wave and bucket pinning (``write_graph``)
    n = bucketing.blocks_for(records.nbytes)
    assert n == 8
    scans = [bg._scan_block.options(num_returns=n + 1).remote(
        b, n, 0.0, None, k) for k, b in enumerate(records.refs)]
    link_store = bucketing.keyed_store(
        [s[:-1] for s in scans], n, _index_blobs,
        sum(m[-1] for m in ray.get([s[-1] for s in scans])))
    bounds = [bg.range_bounds([], 1)] * len(bg._OUTPUTS)
    resolved = 0
    for block, (repo,) in zip(records.refs, _block_repos(records)):
        fetched.clear()
        *_, (mentions, linked) = bg._map_block._function(
            ray.get(block), link_store, bounds, False)
        resolved += linked
        # a block without mentions to link fetches nothing
        assert set(fetched) == (own_bucket(repo, link_store) if mentions
                                else set()), (repo, fetched)
    assert resolved > 0


def test_block_layout_does_not_change_the_graph(tmp_path, monkeypatch):
    """The corpus of the test above, with its rows dealt round-robin so
    that every block holds every repo (each task then loads every
    repo's bucket), builds the same graph as when each block holds one
    repo."""
    from codetoneo4j_ray.pipelines import build_graph as bg

    by_repo, mixed = _one_repo_per_block(tmp_path, monkeypatch)
    assert all(r == set(_REPOS) for r in _block_repos(
        bg.read_corpus_blocks(mixed)))
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    bg.build_graph(by_repo, out_a, resume=False)
    bg.build_graph(mixed, out_b, resume=False)
    want = _out_digests(out_a)
    assert want["edges"][0] > 0
    assert _out_digests(out_b) == want
