"""End-to-end pipeline tests on the synthetic corpus (Ray session)."""

from __future__ import annotations

import hashlib
import os

import pyarrow.parquet as pq
import pytest

from codetoneo4j_ray.sources.synth import generate_corpus


@pytest.fixture(scope="module")
def graph_out(ray_session, tmp_path_factory):
    import ray.data

    base = tmp_path_factory.mktemp("graph")
    corpus_path = str(base / "corpus.parquet")
    pq.write_table(generate_corpus(2, 2), corpus_path)
    from codetoneo4j_ray.pipelines.build_graph import build_graph

    out = str(base / "out")
    metrics = build_graph(corpus_path, out)
    return {
        "corpus_path": corpus_path,
        "out": out,
        "metrics": metrics,
        "nodes": ray.data.read_parquet(f"{out}/nodes").to_pandas(),
        "edges": ray.data.read_parquet(f"{out}/edges").to_pandas(),
        "files": ray.data.read_parquet(f"{out}/files").to_pandas(),
    }


def test_counts_nonzero(graph_out):
    m = graph_out["metrics"]
    assert m["nodes"] > 50 and m["edges"] > 100 and m["files"] > 20


def test_node_keys_unique_and_sorted(graph_out):
    nodes = graph_out["nodes"]
    assert nodes["key"].is_unique
    assert list(nodes["key"]) == sorted(nodes["key"])


def test_edges_distinct_and_sorted(graph_out):
    e = graph_out["edges"]
    assert not e.duplicated().any()
    t = list(map(tuple, e[["subj", "pred", "obj"]].values))
    assert t == sorted(t)


def test_partial_class_single_node(graph_out):
    nodes = graph_out["nodes"]
    order = nodes[nodes["key"] == "acme-app-0:Acme0.Models.Order"]
    assert len(order) == 1
    # members from both partial files still CONTAINS-linked
    e = graph_out["edges"]
    cont = e[(e.pred == "src__CONTAINS") & (e.subj == "acme-app-0:Acme0.Models.Order")]
    assert "acme-app-0:Acme0.Models.Order.Describe()" in set(cont.obj)
    assert "acme-app-0:Acme0.Models.Order.AuditLabel()" in set(cont.obj)


def test_declares_from_both_partial_files(graph_out):
    e = graph_out["edges"]
    dec = e[(e.pred == "src__DECLARES") & (e.obj == "acme-app-0:Acme0.Models.Order")]
    assert set(dec.subj) == {
        "src/Acme0/Models/Order.cs",
        "src/Acme0/Models/Order.More.cs",
    }


def test_resolved_edges_have_both_endpoints(graph_out):
    nodes = set(graph_out["nodes"]["key"])
    e = graph_out["edges"]
    symsym = e[e.pred.isin(["src__INVOKES"])]
    assert len(symsym) > 0
    assert symsym.subj.isin(nodes).all() and symsym.obj.isin(nodes).all()


def test_dangling_mentions_dropped(graph_out):
    e = graph_out["edges"]
    # Console.WriteLine / System usings never become resolved edges
    assert not e.obj.str.contains("System.Console", regex=False).any()
    deps = e[(e.pred == "src__DEPENDS_ON") & (e.subj.str.endswith(".cs"))]
    assert len(deps) == 0  # file-keyed DEPENDS_ON subjects are not symbols


def test_base_chain_invoke_resolved(graph_out):
    e = graph_out["edges"]
    inv = e[e.pred == "src__INVOKES"]
    assert (
        "acme-app-0:Acme0.Services.BaseService.Touch()" in set(inv.obj)
    )  # base.Touch() resolved to the declaring base type


def test_sha256_invariant(graph_out):
    corpus = pq.read_table(graph_out["corpus_path"]).to_pandas()
    files = graph_out["files"]
    merged = files.merge(corpus, on=["repo", "path"], suffixes=("", "_c"))
    assert len(merged) >= len(files)
    for _, row in merged.iterrows():
        assert row["sha256"] == hashlib.sha256(row["content"].encode()).hexdigest()


def test_excluded_dirs_absent(graph_out):
    files = graph_out["files"]
    assert not files.path.str.startswith("bin/").any()
    assert not files.path.str.contains("node_modules").any()


def test_hot_key_pkg_dedup(graph_out):
    nodes = graph_out["nodes"]
    # Newtonsoft.Json referenced by every repo → exactly one node
    assert (nodes["key"] == "pkg:Newtonsoft.Json").sum() == 1
    e = graph_out["edges"]
    projdeps = e[(e.pred == "src__DEPENDS_ON") & (e.obj == "pkg:Newtonsoft.Json")]
    assert set(projdeps.subj) == {"acme-app-0", "acme-app-1"}


def test_has_tag_edges(graph_out):
    e = graph_out["edges"]
    tags = e[e.pred == "src__HAS_TAG"]
    assert ("acme-app-0:Acme0.Models.Widget", "src__HAS_TAG", "Acme0") in set(
        map(tuple, tags.values)
    )
    assert "Models" in set(tags.obj)


def test_truncation_applied(graph_out):
    nodes = graph_out["nodes"]
    docs = nodes["documentation"].dropna()
    assert (docs.str.len() <= 8000).all()
    assert (docs.str.len() == 8000).any()  # the >8000-char fixture got cut


def test_resume_skips_extraction(graph_out, ray_session):
    from codetoneo4j_ray.pipelines.build_graph import build_graph
    from codetoneo4j_ray.state.manifest import read_manifest

    m1 = read_manifest(graph_out["out"], "records")
    t1 = m1["completed_at"]
    build_graph(graph_out["corpus_path"], graph_out["out"])  # rerun
    m2 = read_manifest(graph_out["out"], "records")
    assert m2["completed_at"] == t1  # records stage skipped (fingerprint match)


def test_entry_contract(ray_session):
    import sys

    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    import __ray_entry__ as em

    ds = em.entry()
    assert ds.count() > 0
    qs = em.queries()
    sql = em.oracle_sql()
    assert set(sql) <= set(qs)
    # full inventory pin: every registered query must carry a strict
    # DuckDB oracle except the three documented rows-only ops — catches
    # silent gate/queries drift (round 3 lost the media entries to a
    # driver-side omission; this keeps the repo side honest)
    rows_only = {"kg_mentions_raw", "ann_ivf", "embedding_kmeans"}
    assert set(qs) - set(sql) == rows_only
    assert len(qs) == 53
    assert {"media_decode_meta", "media_frame_sample"} <= set(sql)


def _range_exchange(tables, canon, num_ranges):
    """The build's canonicalize exchange over ``tables`` (one per map
    task): sample, bounds, map-side dedup + range split, one reduce task
    per range writing its part; the parts read back in order."""
    import os
    import tempfile

    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray

    from codetoneo4j_ray.stages.canonicalize import (
        canonical,
        key_sample,
        range_bounds,
        reduce_range,
        split_ranges,
    )

    bounds = range_bounds([key_sample(t[canon.split], 1.0) for t in tables],
                          num_ranges)
    pieces = [split_ranges(canonical(t, canon), canon.split, bounds)
              for t in tables]
    with tempfile.TemporaryDirectory() as out:
        parts = [f"{out}/part-{k:05d}.parquet" for k in range(len(bounds) + 1)]
        ray.get([reduce_range.remote(canon, part, None, None,
                                     *[p[k] for p in pieces])
                 for k, part in enumerate(parts)])
        return pa.concat_tables([pq.read_table(p) for p in parts
                                 if os.path.exists(p)])


def _blocks(df, n):
    import numpy as np
    import pyarrow as pa

    return [pa.Table.from_pandas(df.iloc[idx], preserve_index=False)
            for idx in np.array_split(np.arange(len(df)), n)]


def test_lww_null_tiebreak_matches_oracle(ray_session):
    """Duplicate key where one candidate has NULL in a tiebreak column:
    the winner must be the greatest non-NULL row (NULL = smallest),
    matching the DuckDB oracle's ORDER BY … DESC under NULLS LAST."""
    import pandas as pd

    from codetoneo4j_ray.stages.canonicalize import NODES

    rows = pd.DataFrame(
        {
            "key": ["k", "k"],
            "path": ["a.cs", "a.cs"],
            "start_line": [1, 1],
            "end_line": [2, 2],
            "repo": ["r", "r"],
            "namespace": [None, "N"],  # NULL vs non-NULL tiebreak
            "kind": ["Class", "Class"],
            "accessibility": ["Public", "Public"],
        }
    )
    out = _range_exchange(_blocks(rows, 1), NODES, 1).to_pandas()
    assert len(out) == 1
    assert out.iloc[0]["namespace"] == "N"  # non-NULL row wins


def test_sort_fused_dedup_hot_key_stress(ray_session):
    """Regression guard for the range exchange's invariant: the range
    split is a pure function of the key, so every equal-key run lands
    in one reduce task. A 50k-copy hot key + 100k distinct keys across
    64 input blocks must collapse to exactly one winner, the greatest
    tiebreak, and come out globally sorted."""
    import pandas as pd

    from codetoneo4j_ray.stages.canonicalize import EDGES, Canon

    n_hot, n_uniq = 50_000, 100_000
    df = pd.DataFrame(
        {
            "key": ["hot"] * n_hot + [f"k{i:06d}" for i in range(n_uniq)],
            "path": [f"p{i % 977}" for i in range(n_hot)] + ["p"] * n_uniq,
        }
    )
    lww = Canon("key", ("key", "path"), ("key",))
    out = _range_exchange(_blocks(df, 64), lww, 8).to_pandas()
    assert len(out) == n_uniq + 1
    assert out["key"].is_unique
    # winner = lexicographic max of the tiebreak strings
    assert out.loc[out["key"] == "hot", "path"].iloc[0] == max(
        f"p{i % 977}" for i in range(n_hot)
    )
    assert list(out["key"]) == sorted(out["key"])  # globally sorted

    trip = pd.DataFrame(
        {
            "subj": ["s"] * n_hot + [f"s{i}" for i in range(n_uniq)],
            "pred": ["P"] * (n_hot + n_uniq),
            "obj": ["o"] * (n_hot + n_uniq),
        }
    )
    tout = _range_exchange(_blocks(trip, 64), EDGES, 8).to_pandas()
    assert len(tout) == n_uniq + 1
    assert not tout.duplicated().any()
