"""Graph analytics: fixed-point PageRank + degree-oriented triangles.

Unit fixtures with hand-computable answers, plus end-to-end strict
oracle comparisons over the sf0.001 KG (the same contract the driver
gate runs at sf0.01).
"""

from __future__ import annotations

import duckdb
import pytest

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module", autouse=True)
def _ray(ray_session):
    yield


def _pairs_ds(pairs):
    import ray.data

    return ray.data.from_items(
        [{"subj": a, "pred": "p", "obj": b} for a, b in pairs]
    )


def _ref_pagerank(pairs, iters=5, scale=10**9):
    """Driver-side integer reference implementation."""
    nodes = sorted({x for p in pairs for x in p})
    pairs = sorted(set(pairs))
    out: dict[str, list[str]] = {}
    for a, b in pairs:
        out.setdefault(a, []).append(b)
    r = {n: scale for n in nodes}
    base = 15 * scale // 100
    for _ in range(iters):
        contrib = {n: 0 for n in nodes}
        for a, dsts in out.items():
            share = r[a] // len(dsts)
            for b in dsts:
                contrib[b] += share
        r = {n: base + 85 * contrib[n] // 100 for n in nodes}
    return r


def test_pagerank_matches_integer_reference():
    from codetoneo4j_ray.pipelines.graph_ops import pagerank_over

    # chain + hub + dangling sink; includes a duplicate edge (two preds)
    pairs = [
        ("a", "b"), ("b", "c"), ("c", "a"), ("a", "c"),
        ("d", "a"), ("d", "b"), ("d", "c"), ("e", "d"), ("a", "b"),
    ]
    got = pagerank_over(_pairs_ds(pairs)).to_pandas()
    ref = _ref_pagerank(pairs)
    assert list(got["node"]) == sorted(ref)
    assert {n: r for n, r in zip(got["node"], got["rank_fp"])} == ref
    # rank mass: base floor for the never-cited node
    assert got.set_index("node")["rank_fp"]["e"] == 15 * 10**9 // 100


def test_pagerank_star_symmetry():
    from codetoneo4j_ray.pipelines.graph_ops import pagerank_over

    pairs = [("hub", f"leaf{i}") for i in range(5)]
    got = pagerank_over(_pairs_ds(pairs)).to_pandas().set_index("node")
    leafs = [int(got["rank_fp"][f"leaf{i}"]) for i in range(5)]
    assert len(set(leafs)) == 1  # symmetric leaves rank identically
    assert int(got["rank_fp"]["hub"]) < leafs[0]


def test_components_on_known_graph():
    from codetoneo4j_ray.pipelines.graph_ops import components_over

    # two components (one reached only against edge direction) + an
    # isolated self-loop node; duplicate/parallel edges included
    pairs = [
        ("b", "a"), ("b", "c"), ("c", "d"), ("d", "c"),
        ("x", "y"), ("y", "x"), ("z", "z"),
    ]
    got = components_over(_pairs_ds(pairs)).to_pandas()
    assert dict(zip(got["node"], got["comp"])) == {
        "a": "a", "b": "a", "c": "a", "d": "a",
        "x": "x", "y": "x", "z": "z",
    }
    assert list(got["node"]) == sorted(got["node"])


def test_components_50_node_path_is_one_component():
    from codetoneo4j_ray.pipelines.graph_ops import components_over

    # a 50-node path: diameter 49, far beyond any fixed iteration
    # budget — propagation + pointer-jumping must still converge to a
    # single component labeled by the lexicographic minimum
    chain = [(f"n{i:02d}", f"n{i+1:02d}") for i in range(49)]
    got = components_over(_pairs_ds(chain)).to_pandas()
    assert len(got) == 50
    assert set(got["comp"]) == {"n00"}


def test_components_raises_instead_of_returning_partial_labels():
    import pytest as _pytest

    from codetoneo4j_ray.pipelines.graph_ops import components_over

    chain = [(f"n{i:02d}", f"n{i+1:02d}") for i in range(30)]
    with _pytest.raises(RuntimeError, match="did not converge"):
        components_over(_pairs_ds(chain), max_iters=3)


def test_components_iters_must_be_positive():
    import pytest as _pytest

    from codetoneo4j_ray.pipelines.graph_ops import components_over

    with _pytest.raises(ValueError):
        components_over(_pairs_ds([("a", "b")]), max_iters=0)


def _edges_ds(rows):
    import ray.data

    return ray.data.from_items(
        [{"subj": a, "pred": p, "obj": b} for a, p, b in rows]
    )


def test_bfs_depth_on_known_graph():
    from codetoneo4j_ray.pipelines.graph_ops import bfs_depth_over

    # root r (HAS_FILE subject): r->f->s1->s2 chain, a shortcut r->s2,
    # an edge INTO the root (must not create depth), and an island x->y
    rows = [
        ("r", "HAS_FILE", "f"),
        ("f", "DECLARES", "s1"),
        ("s1", "INVOKES", "s2"),
        ("r", "DEPENDS_ON", "s2"),
        ("s1", "INVOKES", "r"),
        ("x", "INVOKES", "y"),
    ]
    got = bfs_depth_over(_edges_ds(rows), roots_pred="HAS_FILE").to_pandas()
    assert dict(zip(got["node"], got["depth"])) == {
        "r": 0, "f": 1, "s1": 2, "s2": 1,
    }


def test_bfs_depth_20_hop_chain_fully_reached():
    from codetoneo4j_ray.pipelines.graph_ops import bfs_depth_over

    # a 20-hop chain: BFS runs until the wave empties, so every node
    # gets its true depth (no fixed iteration budget truncates it)
    rows = [("n00", "HAS_FILE", "n01")] + [
        (f"n{i:02d}", "INVOKES", f"n{i+1:02d}") for i in range(1, 20)
    ]
    got = bfs_depth_over(_edges_ds(rows), roots_pred="HAS_FILE").to_pandas()
    depths = dict(zip(got["node"], got["depth"]))
    assert len(depths) == 21
    assert all(depths[f"n{i:02d}"] == i for i in range(21))


def test_bfs_depth_raises_instead_of_truncating():
    import pytest as _pytest

    from codetoneo4j_ray.pipelines.graph_ops import bfs_depth_over

    rows = [("n00", "HAS_FILE", "n01")] + [
        (f"n{i:02d}", "INVOKES", f"n{i+1:02d}") for i in range(1, 20)
    ]
    with _pytest.raises(RuntimeError, match="did not converge"):
        bfs_depth_over(_edges_ds(rows), roots_pred="HAS_FILE", max_iters=3)


def test_sssp_weighted_vs_hop_shortest_path():
    from codetoneo4j_ray.pipelines.graph_ops import sssp_over

    # root r; the DIRECT semantic edge r->s1 costs 3, the structural
    # 2-hop route r->f->s1 costs 1+1=2 — weighted distance must pick
    # the cheaper MORE-hop route (BFS depth would say 1)
    rows = [
        ("r", "HAS_FILE", "f"),
        ("f", "DECLARES", "s1"),
        ("r", "INVOKES", "s1"),
        ("s1", "INVOKES", "s2"),
        ("x", "INVOKES", "y"),  # unreachable island
    ]
    got = sssp_over(
        _edges_ds(rows),
        roots_pred="HAS_FILE",
        cheap_preds=("HAS_FILE", "DECLARES"),
    ).to_pandas()
    assert dict(zip(got["node"], got["dist"])) == {
        "r": 0, "f": 1, "s1": 2, "s2": 5,
    }


def test_sssp_budget_excludes_far_nodes():
    from codetoneo4j_ray.pipelines.graph_ops import sssp_over

    # a 4-hop semantic chain at weight 3/hop: with budget 7 only the
    # first two hops (3, 6) fit
    rows = [("r", "HAS_FILE", "n1")] + [
        (f"n{i}", "INVOKES", f"n{i+1}") for i in range(1, 5)
    ]
    got = sssp_over(
        _edges_ds(rows),
        roots_pred="HAS_FILE",
        cheap_preds=("HAS_FILE",),
        budget=7,
    ).to_pandas()
    d = dict(zip(got["node"], got["dist"]))
    assert d == {"r": 0, "n1": 1, "n2": 4, "n3": 7}


def test_sssp_raises_instead_of_truncating():
    import pytest as _pytest

    from codetoneo4j_ray.pipelines.graph_ops import sssp_over

    rows = [("r", "HAS_FILE", "n1")] + [
        (f"n{i}", "INVOKES", f"n{i+1}") for i in range(1, 20)
    ]
    with _pytest.raises(RuntimeError, match="did not converge"):
        sssp_over(_edges_ds(rows), roots_pred="HAS_FILE",
                  cheap_preds=("HAS_FILE",), max_iters=3)


def test_kg_sssp_matches_oracle():
    from codetoneo4j_ray.pipelines.graph_ops import kg_sssp

    got = kg_sssp(SF).to_pandas()
    exp = _oracle("kg_sssp")
    assert len(got) == len(exp) > 0
    assert list(got["node"]) == list(exp["node"])
    assert list(got["dist"]) == list(exp["dist"])


def test_kg_bfs_depth_matches_oracle():
    from codetoneo4j_ray.pipelines.graph_ops import kg_bfs_depth

    got = kg_bfs_depth(SF).to_pandas()
    exp = _oracle("kg_bfs_depth")
    assert len(got) == len(exp) > 0
    assert list(got["node"]) == list(exp["node"])
    assert list(got["depth"]) == list(exp["depth"])


def test_triangles_on_known_graph():
    from codetoneo4j_ray.pipelines.graph_ops import triangles_over

    # K4 on {a,b,c,d}: 4 triangles, every node in C(3,2)=3 of them;
    # plus a pendant edge and a self-loop (both must not count)
    k4 = [(x, y) for x in "abcd" for y in "abcd" if x < y]
    pairs = k4 + [("d", "e"), ("e", "e")]
    got = triangles_over(_pairs_ds(pairs)).to_pandas()
    assert dict(zip(got["node"], got["n_tri"])) == {
        "a": 3, "b": 3, "c": 3, "d": 3
    }


def test_triangles_direction_and_pred_collapse():
    from codetoneo4j_ray.pipelines.graph_ops import triangles_over

    # triangle expressed with mixed directions + parallel edges
    pairs = [("a", "b"), ("b", "a"), ("c", "b"), ("a", "c")]
    got = triangles_over(_pairs_ds(pairs)).to_pandas()
    assert dict(zip(got["node"], got["n_tri"])) == {"a": 1, "b": 1, "c": 1}


# ---------------------------------------------------------------------------
# end-to-end strict oracle parity at sf0.001
# ---------------------------------------------------------------------------


def _oracle(name: str):
    from codetoneo4j_ray.pipelines.kg_queries import ensure_kg, oracle_kg

    ensure_kg(SF)
    return duckdb.sql(oracle_kg(SF)[name]).df()


def test_kg_pagerank_matches_oracle():
    from codetoneo4j_ray.pipelines.graph_ops import kg_pagerank

    got = kg_pagerank(SF).to_pandas()
    exp = _oracle("kg_pagerank")
    assert len(got) == len(exp) > 0
    assert list(got["node"]) == list(exp["node"])
    assert list(got["rank_fp"]) == list(exp["rank_fp"])


def test_kg_components_matches_oracle():
    from codetoneo4j_ray.pipelines.graph_ops import kg_components

    got = kg_components(SF).to_pandas()
    exp = _oracle("kg_components")
    assert len(got) == len(exp) > 0
    assert list(got["node"]) == list(exp["node"])
    assert list(got["comp"]) == list(exp["comp"])


def test_kg_triangles_matches_oracle():
    from codetoneo4j_ray.pipelines.graph_ops import kg_triangles

    got = kg_triangles(SF).to_pandas()
    exp = _oracle("kg_triangles")
    assert len(got) == len(exp) > 0  # the KG must actually have triangles
    assert list(got["node"]) == list(exp["node"])
    assert list(got["n_tri"]) == list(exp["n_tri"])


def test_inverted_index_matches_oracle():
    from codetoneo4j_ray.pipelines.data_ops import (
        inverted_index,
        inverted_index_oracle_sql,
    )

    got = inverted_index(SF).to_pandas()
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS "
        f"SELECT * FROM read_parquet('{SF}/documents.parquet')"
    )
    exp = con.execute(inverted_index_oracle_sql()).df()
    assert len(got) == len(exp) > 0
    assert list(got["token"]) == list(exp["token"])
    assert list(got["df"]) == list(exp["df"])
    assert list(got["postings_csv"]) == list(exp["postings_csv"])


def test_tfidf_topk_matches_oracle():
    from codetoneo4j_ray.pipelines.data_ops import (
        tfidf_topk,
        tfidf_topk_oracle_sql,
    )

    got = tfidf_topk(SF).to_pandas()
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS "
        f"SELECT * FROM read_parquet('{SF}/documents.parquet')"
    )
    exp = con.execute(tfidf_topk_oracle_sql()).df()
    assert len(got) == len(exp) > 0
    for col in ("doc_id", "token", "tf", "df", "score"):
        assert list(got[col]) == list(exp[col]), col


def test_tfidf_topk_ranking_fixture(tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq

    from codetoneo4j_ray.pipelines.data_ops import tfidf_topk

    # 4 docs; "common" appears everywhere (df=4), "rare" once (df=1);
    # doc 0 repeats "rare" so tf matters; ties break by token
    docs = pa.table(
        {
            "doc_id": pa.array([0, 1, 2, 3], pa.int64()),
            "text": pa.array(
                [
                    "rare rare common zz aa",
                    "common common",
                    "common mid",
                    "common mid",
                ],
                pa.string(),
            ),
        }
    )
    pq.write_table(docs, str(tmp_path / "documents.parquet"))
    got = tfidf_topk(str(tmp_path), k=2).to_pandas()
    d0 = got[got["doc_id"] == 0]
    # doc 0: rare tf=2 df=1 -> score 8; aa/zz tf=1 df=1 -> 4; common 1
    assert list(d0["token"]) == sorted(["rare", "aa"])
    assert int(d0[d0["token"] == "rare"]["score"].iloc[0]) == 8
    d1 = got[got["doc_id"] == 1]
    # doc 1 has only "common": tf=2 df=4 -> score 2; k caps at available
    assert list(d1["token"]) == ["common"]
    assert int(d1["score"].iloc[0]) == 2


def test_price_quantiles_matches_oracle():
    from codetoneo4j_ray.pipelines.data_ops import (
        price_quantiles,
        price_quantiles_oracle_sql,
    )

    got = price_quantiles(SF).to_pandas()
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW lineitem AS "
        f"SELECT * FROM read_parquet('{SF}/lineitem.parquet')"
    )
    exp = con.execute(price_quantiles_oracle_sql()).df()
    assert len(got) == len(exp) > 0
    for col in got.columns:
        assert list(got[col]) == list(exp[col]), col


def test_price_quantiles_rank_edges(tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq

    from codetoneo4j_ray.pipelines.data_ops import price_quantiles

    # n=20 exercises the 0.95 boundary: ceil(19*20/20) = rank 19 —
    # float ceil(0.95*20) would round to 20 (0.95 is not representable)
    prices = [float(i) for i in range(1, 21)]  # cents = 100..2000
    t = pa.table(
        {
            "l_returnflag": pa.array(["A"] * 20, pa.string()),
            "l_linestatus": pa.array(["F"] * 20, pa.string()),
            "l_extendedprice": pa.array(prices, pa.float64()),
        }
    )
    pq.write_table(t, str(tmp_path / "lineitem.parquet"))
    got = price_quantiles(str(tmp_path)).to_pandas().iloc[0]
    assert got["n_rows"] == 20
    assert got["p25"] == 500  # rank ceil(20/4)=5 -> 5.00
    assert got["p50"] == 1000
    assert got["p75"] == 1500
    assert got["p95"] == 1900  # rank 19, NOT 20


def test_orders_running_total_matches_oracle():
    from codetoneo4j_ray.pipelines.data_ops import (
        ORDERS_RUNNING_TOTAL_SQL,
        orders_running_total,
    )

    got = orders_running_total(SF).to_pandas()
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW orders AS "
        f"SELECT * FROM read_parquet('{SF}/orders.parquet')"
    )
    exp = con.execute(ORDERS_RUNNING_TOTAL_SQL).df()
    assert len(got) == len(exp) > 0
    for col in ("o_custkey", "o_orderkey", "run_cents"):
        assert list(got[col]) == list(exp[col]), col


def test_inverted_index_caps_postings(tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq

    from codetoneo4j_ray.pipelines.data_ops import inverted_index

    docs = pa.table(
        {
            "doc_id": pa.array(list(range(10)), pa.int64()),
            "text": pa.array(["common word"] * 10, pa.string()),
        }
    )
    pq.write_table(docs, str(tmp_path / "documents.parquet"))
    got = inverted_index(str(tmp_path), max_postings=3).to_pandas()
    row = got[got["token"] == "common"].iloc[0]
    assert row["df"] == 10
    assert row["postings_csv"] == "0,1,2"


def test_components_max_iters_is_exact():
    # ADVICE r4: the budget is exact — max_iters below _CHAIN_CHECKPOINT
    # must still be honored (a 3-node path needs 2 rounds + 1 quiet one)
    import pytest as _pytest

    from codetoneo4j_ray.pipelines.graph_ops import components_over

    path3 = [("a", "b"), ("b", "c")]
    with _pytest.raises(RuntimeError, match="did not converge"):
        components_over(_pairs_ds(path3), max_iters=1)
    got = components_over(_pairs_ds(path3), max_iters=3).to_pandas()
    assert set(got["comp"]) == {"a"}


def test_bfs_depth_never_exceeds_max_iters():
    # ADVICE r4: a chain whose max finite depth is max_iters+1 must
    # RAISE at exactly max_iters — not converge at the next checkpoint
    # and return depths the oracle's capped walk never generates.
    # Chain depths 0..5; max_iters=4 is not a _CHAIN_CHECKPOINT multiple.
    import pytest as _pytest

    from codetoneo4j_ray.pipelines.graph_ops import bfs_depth_over

    rows = [("n00", "HAS_FILE", "n01")] + [
        (f"n{i:02d}", "INVOKES", f"n{i+1:02d}") for i in range(1, 5)
    ]
    with _pytest.raises(RuntimeError, match="did not converge"):
        bfs_depth_over(_edges_ds(rows), roots_pred="HAS_FILE", max_iters=4)
    got = bfs_depth_over(
        _edges_ds(rows), roots_pred="HAS_FILE", max_iters=6
    ).to_pandas()
    assert dict(zip(got["node"], got["depth"])) == {
        f"n{i:02d}": i for i in range(6)
    }


def _int_pairs_ds(pairs):
    import ray.data

    return ray.data.from_items(
        [{"src": int(a), "dst": int(b)} for a, b in pairs]
    )


def test_components_over_int_known_graph():
    from codetoneo4j_ray.pipelines.graph_ops import components_over_int

    # sparse, non-dense int64 ids (incl. one beyond 2**53 to catch any
    # float round-trip) — numeric MIN semantics, not lexicographic:
    # 9 < 10 even though "9" > "10"
    big = 2**60 + 7
    pairs = [(10, 9), (9, 1000), (big, big - 1), (42, 42)]
    got = components_over_int(_int_pairs_ds(pairs)).to_pandas()
    assert dict(zip(got["node"], got["comp"])) == {
        9: 9, 10: 9, 1000: 9, big - 1: big - 1, big: big - 1, 42: 42,
    }
    assert list(got["node"]) == sorted(got["node"])
    assert str(got["comp"].dtype) == "int64"


def test_components_over_int_long_path_converges():
    from codetoneo4j_ray.pipelines.graph_ops import components_over_int

    chain = [(i * 3 + 5, (i + 1) * 3 + 5) for i in range(60)]
    got = components_over_int(_int_pairs_ds(chain)).to_pandas()
    assert len(got) == 61
    assert set(got["comp"]) == {5}


def test_components_over_int_raises_past_max_iters():
    import pytest as _pytest

    from codetoneo4j_ray.pipelines.graph_ops import components_over_int

    chain = [(i, i + 1) for i in range(40)]
    with _pytest.raises(RuntimeError, match="did not converge"):
        components_over_int(_int_pairs_ds(chain), max_iters=2)
    with _pytest.raises(ValueError):
        components_over_int(_int_pairs_ds(chain), max_iters=0)


def test_iterative_ops_single_bucket():
    """num_buckets=1 is a legal configuration of every raw-task loop:
    Ray returns a bare ObjectRef under num_returns=1 (no tuple unpack),
    which the step/jump tasks and the driver loop must both normalize
    (_kret / _route_by_bucket's K==1 unwrap)."""
    import ray.data

    from codetoneo4j_ray.pipelines.graph_ops import (
        bfs_depth_over,
        components_over,
        components_over_int,
        pagerank_over,
        sssp_over,
        triangles_over,
    )

    got = components_over_int(
        _int_pairs_ds([(10, 9), (9, 1000), (42, 42)]), num_buckets=1
    ).to_pandas()
    assert dict(zip(got["node"], got["comp"])) == {
        9: 9, 10: 9, 1000: 9, 42: 42,
    }

    # f1 -> s1 -> s2 plus the closing s2 -> f1: one triangle, and no
    # new shortest path from the root
    edges = ray.data.from_items(
        [
            {"subj": "repo:r", "obj": "f1", "pred": "src__HAS_FILE"},
            {"subj": "f1", "obj": "s1", "pred": "src__DECLARES"},
            {"subj": "s1", "obj": "s2", "pred": "sym__INVOKES"},
            {"subj": "s2", "obj": "f1", "pred": "sym__INVOKES"},
        ]
    )
    pairs = edges.select_columns(["subj", "obj"])
    for nb in (1, 2):
        cc = components_over(pairs, num_buckets=nb).to_pandas()
        assert set(cc["comp"]) == {"f1"}
        assert len(cc) == 4
        bfs = bfs_depth_over(edges, num_buckets=nb).to_pandas()
        assert dict(zip(bfs["node"], bfs["depth"])) == {
            "repo:r": 0, "f1": 1, "s1": 2, "s2": 3,
        }
        dist = sssp_over(edges, num_buckets=nb).to_pandas()
        assert len(dist) == 4
        pr = pagerank_over(pairs, num_buckets=nb).to_pandas()
        assert len(pr) == 4
        assert (pr["rank_fp"] > 0).all()
        tri = triangles_over(pairs, num_buckets=nb).to_pandas()
        assert dict(zip(tri["node"], tri["n_tri"])) == {
            "f1": 1, "s1": 1, "s2": 1,
        }


def test_graph_ops_run_without_sort_based_exchange(monkeypatch):
    """Every graph op runs on the raw-task exchange alone: with
    ray.data.Dataset.groupby made to raise, the five string ops and
    components_over_int still match their DuckDB oracles on a graph
    with a triangle, a self-loop and an unreachable island."""
    import pandas as pd
    import ray.data

    from codetoneo4j_ray.pipelines import graph_ops

    rows = [
        ("r", "src__HAS_FILE", "f"),
        ("f", "src__DECLARES", "a"),
        ("a", "sym__INVOKES", "b"),
        ("b", "sym__INVOKES", "c"),
        ("c", "sym__INVOKES", "a"),
        ("b", "sym__DEPENDS_ON", "b"),
        ("x", "sym__INVOKES", "y"),
    ]

    def no_groupby(*_a, **_k):
        raise AssertionError("sort-based groupby exchange used")

    monkeypatch.setattr(ray.data.Dataset, "groupby", no_groupby)
    con = duckdb.connect()
    con.register(
        "edge_rows", pd.DataFrame(rows, columns=["subj", "pred", "obj"])
    )
    cte = "all_edges AS (SELECT subj, pred, obj FROM edge_rows)"

    def canon(df):
        return sorted(map(tuple, df.astype(str).to_numpy().tolist()))

    for op in ("pagerank", "components", "bfs_depth", "sssp", "triangles"):
        got = getattr(graph_ops, f"{op}_over")(_edges_ds(rows)).to_pandas()
        want = con.execute(getattr(graph_ops, f"{op}_oracle_sql")(cte)).df()
        assert len(got) > 0, op
        assert list(got.columns) == list(want.columns), op
        assert canon(got) == canon(want), op

    ids = {n: i for i, n in enumerate(sorted({r[0] for r in rows}
                                             | {r[2] for r in rows}))}
    int_rows = [(ids[a], p, ids[b]) for a, p, b in rows]
    con.register(
        "int_rows", pd.DataFrame(int_rows, columns=["subj", "pred", "obj"])
    )
    got = graph_ops.components_over_int(
        _int_pairs_ds([(a, b) for a, _, b in int_rows])
    ).to_pandas()
    want = con.execute(graph_ops.components_oracle_sql(
        "all_edges AS (SELECT subj, pred, obj FROM int_rows)")).df()
    assert canon(got) == canon(want)


def test_reduce_by_matches_pandas_groupby():
    """_reduce_by (the per-key int64 sum/min inside the rank, label and
    triangle-count tasks) equals pandas' groupby, sums past 2**53
    included, and passes empty input through."""
    import numpy as np
    import pandas as pd

    from codetoneo4j_ray.pipelines.graph_ops import _reduce_by

    rng = np.random.default_rng(5)
    keys = rng.integers(-50, 50, 500) * 2**40
    vals = rng.integers(0, 2**58, 500)
    for op, how in ((np.add, "sum"), (np.minimum, "min")):
        k, v = _reduce_by(keys, vals, op)
        ref = pd.Series(vals).groupby(keys).agg(how)
        assert k.tolist() == ref.index.tolist()
        assert v.tolist() == ref.tolist()
    k, v = _reduce_by([], [])
    assert len(k) == len(v) == 0
