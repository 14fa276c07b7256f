"""Training-data op tests over the sf0.001 testdata + tiny synthetic inputs."""

from __future__ import annotations

import numpy as np
import pytest

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module", autouse=True)
def _ray(ray_session):
    yield


def test_doc_dedup_exact_groups_by_text():
    from codetoneo4j_ray.pipelines.data_ops import doc_dedup_exact

    df = doc_dedup_exact(SF).to_pandas()
    import pyarrow.parquet as pq

    docs = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "text"]).to_pandas()
    expected = docs.groupby("text").agg(doc_id=("doc_id", "min"), n_dups=("doc_id", "size"))
    expected = expected.sort_values("doc_id").reset_index(drop=True)
    assert list(df["doc_id"]) == list(expected["doc_id"])
    assert list(df["n_dups"]) == list(expected["n_dups"])


def test_minhash_finds_planted_near_dup(tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq

    from codetoneo4j_ray.pipelines.data_ops import doc_dedup_minhash

    base = ("the quick brown fox jumps over the lazy dog and runs far away "
            "into the deep green forest tonight while stars shine bright "
            "above the quiet valley where rivers flow gently toward the sea")
    near = base + " tonight"  # one appended word → Jaccard ≈ 0.97
    texts = [base, near, "completely different text about database systems",
             "another unrelated short document entirely"]
    pq.write_table(
        pa.table({"doc_id": pa.array(range(4), pa.int64()),
                  "text": pa.array(texts, pa.string())}),
        str(tmp_path / "documents.parquet"),
    )
    pairs = doc_dedup_minhash(str(tmp_path)).to_pandas()
    assert (0, 1) in set(map(tuple, pairs[["doc_a", "doc_b"]].values))
    assert len(pairs) == 1


def test_simhash_similar_docs_close():
    from codetoneo4j_ray.pipelines.data_ops import doc_simhash

    df = doc_simhash(SF).to_pandas()
    assert len(df) == 500
    assert df["simhash"].str.len().eq(16).all()


def _full_matrix(sf_dir):
    import pyarrow.parquet as pq

    t = pq.read_table(f"{sf_dir}/embeddings.parquet").to_pandas()
    t = t.sort_values("vec_id")
    ids = t["vec_id"].to_numpy()
    mat = np.stack([np.asarray(v, dtype=np.float64) for v in t["embedding"]])
    return ids, mat


def test_ann_topk_matches_numpy_bruteforce():
    from codetoneo4j_ray.pipelines.data_ops import ann_topk

    df = ann_topk(SF).to_pandas()
    ids, mat = _full_matrix(SF)
    n = mat / np.linalg.norm(mat, axis=1, keepdims=True)
    sims = n[:8] @ n.T
    for qi in range(8):
        order = []
        for j in np.argsort(-sims[qi], kind="stable"):
            if ids[j] == ids[qi]:
                continue
            order.append((int(np.floor(sims[qi][j] * 1e6)), int(ids[j])))
        order.sort(key=lambda t: (-t[0], t[1]))
        expect = [v for _s, v in order[:10]]
        got = list(df[df.query_id == ids[qi]].sort_values("rank")["vec_id"])
        assert got == expect


def test_ann_ivf_mostly_agrees_with_exact():
    from codetoneo4j_ray.pipelines.data_ops import ann_ivf, ann_topk

    exact = ann_topk(SF).to_pandas()
    approx = ann_ivf(SF).to_pandas()
    agree = 0
    for q in exact.query_id.unique():
        e = set(exact[exact.query_id == q].vec_id)
        a = set(approx[approx.query_id == q].vec_id)
        agree += len(e & a) / len(e)
    # uniform random vectors are IVF's worst case (no cluster structure);
    # the clustered-data test below asserts the real ≥0.9 recall bar
    assert agree / exact.query_id.nunique() >= 0.5


def test_ann_ivf_recall_on_clustered_data(tmp_path):
    """On cluster-structured embeddings (the workload IVF exists for),
    recall vs exact top-k must be ≥0.9 probing 4/16 cells."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from codetoneo4j_ray.pipelines.data_ops import ann_ivf, ann_topk

    rng = np.random.RandomState(11)
    dim, n_clusters, per = 24, 12, 50
    centers = rng.randn(n_clusters, dim) * 4
    mat = np.concatenate(
        [centers[c] + rng.randn(per, dim) * 0.4 for c in range(n_clusters)]
    )
    perm = rng.permutation(len(mat))
    mat = mat[perm]
    ids = np.arange(len(mat), dtype=np.int64)
    pq.write_table(
        pa.table({"vec_id": pa.array(ids, pa.int64()),
                  "embedding": pa.array([list(map(float, v)) for v in mat],
                                        pa.list_(pa.float64()))}),
        str(tmp_path / "embeddings.parquet"),
    )
    exact = ann_topk(str(tmp_path)).to_pandas()
    approx = ann_ivf(str(tmp_path)).to_pandas()
    agree = 0
    for q in exact.query_id.unique():
        e = set(exact[exact.query_id == q].vec_id)
        a = set(approx[approx.query_id == q].vec_id)
        agree += len(e & a) / len(e)
    assert agree / exact.query_id.nunique() >= 0.9


def test_embedding_near_dup_recall_vs_bruteforce(tmp_path):
    """Cell-blocked near-dup recovers ≥90% of brute-force pairs with no
    false positives, on planted duplicates (the sf0.001 embeddings have
    no pairs at any threshold — max off-diagonal cosine ≈ 0.48)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from codetoneo4j_ray.pipelines.data_ops import embedding_near_dup

    rng = np.random.RandomState(5)
    dim = 16
    base = rng.randn(60, dim)
    rows = [base]
    # plant 30 near-duplicates: tiny perturbations of the first 30 vectors
    rows.append(base[:30] + 0.01 * rng.randn(30, dim))
    mat = np.concatenate(rows)
    ids = np.arange(len(mat), dtype=np.int64)
    pq.write_table(
        pa.table({"vec_id": pa.array(ids, pa.int64()),
                  "embedding": pa.array([list(map(float, v)) for v in mat],
                                        pa.list_(pa.float64()))}),
        str(tmp_path / "embeddings.parquet"),
    )
    threshold = 0.95
    # exact_cutoff=0 forces the IVF-cell-blocked approximate path (the
    # default cutoff would route this 90-vector fixture to the exact
    # scan, which test_embedding_near_dup_exact_path covers)
    got = set(
        map(tuple,
            embedding_near_dup(str(tmp_path), threshold=threshold,
                               exact_cutoff=0)
            .to_pandas()[["vec_a", "vec_b"]].values)
    )
    n = mat / np.linalg.norm(mat, axis=1, keepdims=True)
    sims = n @ n.T
    exact = set()
    ai, bi = np.nonzero(sims >= threshold)
    for i, j in zip(ai, bi):
        if ids[i] < ids[j]:
            exact.add((int(ids[i]), int(ids[j])))
    assert len(exact) >= 30
    assert not (got - exact), "cell-blocked output contains false positives"
    assert len(got & exact) / len(exact) >= 0.9


def test_embedding_near_dup_exact_path(tmp_path):
    """Below the cutoff the op is EXACT: pairs and sim_micro equal the
    brute-force reference bit-for-bit (this is the path the driver's
    strict DuckDB oracle checks)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from codetoneo4j_ray.pipelines.data_ops import embedding_near_dup

    rng = np.random.RandomState(11)
    mat = rng.randn(120, 16)
    ids = np.arange(100, 100 + len(mat), dtype=np.int64)
    pq.write_table(
        pa.table({"vec_id": pa.array(ids, pa.int64()),
                  "embedding": pa.array([list(map(float, v)) for v in mat],
                                        pa.list_(pa.float64()))}),
        str(tmp_path / "embeddings.parquet"),
    )
    threshold = 0.3
    got = embedding_near_dup(str(tmp_path), threshold=threshold).to_pandas()
    n = mat / np.linalg.norm(mat, axis=1, keepdims=True)
    micro = np.floor((n @ n.T) * 1_000_000).astype(np.int64)
    thr_micro = int(np.floor(threshold * 1_000_000))
    exact = sorted(
        (int(ids[i]), int(ids[j]), int(micro[i, j]))
        for i, j in zip(*np.nonzero(micro >= thr_micro))
        if ids[i] < ids[j]
    )
    assert len(exact) >= 20
    assert list(map(tuple, got[["vec_a", "vec_b", "sim_micro"]].values)) == exact


def test_embedding_near_dup_empty_input_yields_no_pairs():
    # sf0.001 embeddings have no near-dups at 0.95 (max cosine ≈ 0.48);
    # empty result must not error (Ray drops the schema of all-empty
    # datasets — a known engine behavior, same as round 1)
    from codetoneo4j_ray.pipelines.data_ops import embedding_near_dup

    assert embedding_near_dup(SF).count() == 0


def test_minhash_pairs_match_exact_jaccard_reference():
    """Distributed shingle-join verification == inline broadcast reference
    on the sf0.001 documents table (same candidates, same Jaccard)."""
    import pyarrow.parquet as pq

    from codetoneo4j_ray.pipelines.data_ops import (
        _LSH_BANDS,
        _MINHASH_PERMS,
        _minhash_sig,
        _shingles,
        doc_dedup_minhash,
    )

    got = set(
        map(tuple, doc_dedup_minhash(SF).to_pandas()[["doc_a", "doc_b"]].values)
    )
    docs = pq.read_table(f"{SF}/documents.parquet",
                         columns=["doc_id", "text"]).to_pandas()
    sh = {int(r.doc_id): _shingles(r.text) for r in docs.itertuples()}
    rows_per_band = _MINHASH_PERMS // _LSH_BANDS
    import hashlib

    buckets: dict = {}
    for doc_id, s in sh.items():
        sig = _minhash_sig(s)
        for b in range(_LSH_BANDS):
            chunk = sig[b * rows_per_band : (b + 1) * rows_per_band]
            key = (b, hashlib.blake2b(chunk.tobytes(), digest_size=8).hexdigest())
            buckets.setdefault(key, []).append(doc_id)
    expect = set()
    for ids in buckets.values():
        ids = sorted(set(ids))
        for i, a in enumerate(ids):
            for b in ids[i + 1 :]:
                sa, sb = sh[a], sh[b]
                union = len(sa | sb)
                j = (len(sa & sb) / union) if union else 1.0
                if j >= 0.8:
                    expect.add((a, b))
    assert got == expect


def test_ngram_jaccard_banded_equals_bruteforce(tmp_path):
    """Size-band blocking must emit exactly the brute-force pair set —
    qualifying pairs always land in the same or adjacent log2 band."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from codetoneo4j_ray.pipelines.data_ops import _shingles, doc_ngram_jaccard

    base = ("alpha beta gamma delta epsilon zeta eta theta iota kappa "
            "lambda mu nu xi omicron pi rho sigma tau upsilon")
    texts = [
        base,                         # 0
        base + " extra",              # 1: near-dup of 0 (same band)
        base + " " + base,            # 2: 2x length (adjacent band vs 0/1)
        "totally different words here about completely other topics now",
        "short text",
    ]
    sources = ["s1"] * 5
    pq.write_table(
        pa.table({"doc_id": pa.array(range(5), pa.int64()),
                  "text": pa.array(texts, pa.string()),
                  "source": pa.array(sources, pa.string())}),
        str(tmp_path / "documents.parquet"),
    )
    got = set(map(tuple, doc_ngram_jaccard(str(tmp_path), threshold=0.5)
                  .to_pandas()[["doc_a", "doc_b"]].values))
    expect = set()
    sh = [_shingles(t) for t in texts]
    for i in range(5):
        for j in range(i + 1, 5):
            union = len(sh[i] | sh[j])
            jac = (len(sh[i] & sh[j]) / union) if union else 1.0
            if jac >= 0.5:
                expect.add((i, j))
    assert (0, 1) in expect  # sanity: the planted near-dup qualifies
    assert got == expect


def test_text_stats_shapes():
    from codetoneo4j_ray.pipelines.data_ops import text_stats

    df = text_stats(SF).to_pandas()
    assert len(df) == 500
    assert (df.n_chars > 0).all() and (df.n_tokens > 0).all()


def test_lang_id_is_deterministic():
    from codetoneo4j_ray.pipelines.data_ops import lang_id

    a = lang_id(SF).to_pandas()
    b = lang_id(SF).to_pandas()
    assert a.equals(b)


def test_events_tumbling_totals():
    from codetoneo4j_ray.pipelines.data_ops import events_tumbling

    import pyarrow.parquet as pq

    df = events_tumbling(SF).to_pandas()
    raw = pq.read_table(f"{SF}/events.parquet").to_pandas()
    assert df["n_events"].sum() == len(raw)
    assert df["sum_milli"].sum() == int(np.floor(raw["value"] * 1000).sum())


def test_revenue_by_nation_matches_pandas():
    from codetoneo4j_ray.pipelines.data_ops import revenue_by_nation

    import pyarrow.parquet as pq

    df = revenue_by_nation(SF).to_pandas()
    li = pq.read_table(f"{SF}/lineitem.parquet").to_pandas()
    orders = pq.read_table(f"{SF}/orders.parquet").to_pandas()
    cust = pq.read_table(f"{SF}/customer.parquet").to_pandas()
    nation = pq.read_table(f"{SF}/nation.parquet").to_pandas()
    j = (li.merge(orders, left_on="l_orderkey", right_on="o_orderkey")
           .merge(cust, left_on="o_custkey", right_on="c_custkey")
           .merge(nation, left_on="c_nationkey", right_on="n_nationkey"))
    j["rc"] = np.floor(j.l_extendedprice * (1 - j.l_discount) * 100).astype("int64")
    exp = j.groupby("n_name")["rc"].sum().sort_index()
    got = df.set_index("n_name")["revenue_cents"]
    # dtype must stay exact int64 — the driver hash stringifies values,
    # so a float64 promotion ('123.0' vs '123') is a correctness failure
    assert got.dtype == np.int64 and df["n_items"].dtype == np.int64
    assert got.to_dict() == exp.to_dict()


def test_media_decode_stub():
    from codetoneo4j_ray.pipelines.multimodal import media_decode_meta

    df = media_decode_meta(SF).to_pandas()
    assert len(df) == 500
    assert (df.width == df.n_bytes % 640).all()
    assert (df.n_frames == df.n_bytes % 16).all()


_ONE_CPU_MEDIA = """
import ray
from ray.data import DataContext

ray.init(address="local", num_cpus=1, include_dashboard=False,
         logging_level="ERROR", object_store_memory=256 * 1024**2)
DataContext.get_current().enable_progress_bars = False
try:
    from codetoneo4j_ray.pipelines.multimodal import (
        media_decode_meta,
        media_frame_sample,
    )

    print(media_decode_meta({sf!r}).count(),
          media_frame_sample({sf!r}).count())
finally:
    ray.shutdown()
"""


def test_media_decode_runs_on_one_cpu_session():
    """The decode stage needs no CPU of its own beyond the tasks it
    runs: both media queries finish on a one-CPU Ray session."""
    import os
    import signal
    import subprocess
    import sys

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(
               p for p in (root, os.environ.get("PYTHONPATH")) if p)}
    env.pop("RAY_ADDRESS", None)
    # its own process group, so a hung session's Ray processes are
    # killed with it
    proc = subprocess.Popen(
        [sys.executable, "-c", _ONE_CPU_MEDIA.format(sf=SF)], cwd=root,
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True)
    try:
        out, err = proc.communicate(timeout=150)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    assert proc.returncode == 0, err[-2000:]
    n_meta, n_frames = map(int, out.split()[-2:])
    assert n_meta == 500 and n_frames > 0


def test_ann_and_pricing_run_without_sort_based_exchange(monkeypatch):
    """ann_topk, ann_ivf and pricing_summary run on the raw-task
    exchange alone: with ray.data.Dataset.groupby made to raise,
    ann_topk and pricing_summary match their DuckDB oracles and ann_ivf
    (approximate, no strict oracle) its own unpatched output."""
    import duckdb
    import pandas as pd
    import ray.data

    import __ray_entry__ as entry
    from codetoneo4j_ray.pipelines import data_ops

    ivf = data_ops.ann_ivf(SF).to_pandas()

    def no_groupby(*_a, **_k):
        raise AssertionError("sort-based groupby exchange used")

    monkeypatch.setattr(ray.data.Dataset, "groupby", no_groupby)
    pd.testing.assert_frame_equal(data_ops.ann_ivf(SF).to_pandas(), ivf)
    con = duckdb.connect()
    for t in ("embeddings", "lineitem"):
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                    f"read_parquet('{SF}/{t}.parquet')")
    oracles = entry.oracle_sql()
    for name in ("ann_topk", "pricing_summary"):
        got = getattr(data_ops, name)(SF).to_pandas()
        want = con.execute(oracles[name]).fetchdf()
        assert len(got) > 0, name
        assert list(got.columns) == list(want.columns), name
        assert got.astype(str).equals(want.astype(str)), name


def test_events_sessionize_gap_semantics(tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq
    import numpy as np

    from codetoneo4j_ray.pipelines.data_ops import events_sessionize

    base = np.datetime64("2024-01-01T00:00:00", "us")
    mins = np.timedelta64(60, "s")
    rows = [
        (1, 7, base),                    # user 7, session 1
        (2, 7, base + 10 * mins),        # same session (gap 10m)
        (3, 7, base + 50 * mins),        # new session (gap 40m > 30m)
        (4, 9, base),                    # user 9, own session
    ]
    pq.write_table(
        pa.table({
            "event_id": pa.array([r[0] for r in rows], pa.int64()),
            "user_id": pa.array([r[1] for r in rows], pa.int64()),
            "ts": pa.array([r[2] for r in rows], pa.timestamp("us")),
            "value": pa.array([0.0] * 4, pa.float64()),
        }),
        str(tmp_path / "events.parquet"),
    )
    df = events_sessionize(str(tmp_path)).to_pandas()
    got = {(r.user_id, r.session_id): r.n_events for r in df.itertuples()}
    assert got == {(7, 1): 2, (7, 2): 1, (9, 1): 1}


def test_top_tokens_matches_counter():
    from collections import Counter

    import pyarrow.parquet as pq

    from codetoneo4j_ray.pipelines.data_ops import top_tokens

    df = top_tokens(SF).to_pandas()
    docs = pq.read_table(f"{SF}/documents.parquet", columns=["text"]).to_pandas()
    c = Counter()
    for t in docs["text"]:
        c.update(t.lower().split())
    expect = sorted(c.items(), key=lambda kv: (-kv[1], kv[0]))[:50]
    got = list(zip(df["token"], df["n"]))
    assert got == expect


def test_embedding_kmeans_deterministic_partition():
    from codetoneo4j_ray.pipelines.data_ops import embedding_kmeans

    a = embedding_kmeans(SF, k=4, iters=3).to_pandas()
    b = embedding_kmeans(SF, k=4, iters=3).to_pandas()
    assert a.equals(b)
    assert a["cluster_id"].nunique() >= 2
    assert len(a) == 500


def test_events_hopping_window_membership(tmp_path):
    """Each event lands in exactly window/hop = 4 hopping windows whose
    [start, start+3600) range contains it."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from codetoneo4j_ray.pipelines.data_ops import events_hopping

    base = np.datetime64("2024-01-01T02:07:00", "us")  # sec = offset 7620
    pq.write_table(
        pa.table({
            "event_id": pa.array([1], pa.int64()),
            "user_id": pa.array([5], pa.int64()),
            "ts": pa.array([base], pa.timestamp("us")),
            "value": pa.array([2.5], pa.float64()),
        }),
        str(tmp_path / "events.parquet"),
    )
    df = events_hopping(str(tmp_path)).to_pandas()
    sec = int(base.astype("datetime64[s]").astype("int64"))
    expect_starts = [(sec // 900) * 900 - i * 900 for i in range(4)]
    assert sorted(df["window_start"]) == sorted(expect_starts)
    assert (df["n_events"] == 1).all() and (df["sum_milli"] == 2500).all()
    for w in df["window_start"]:
        assert w <= sec < w + 3600


def test_doc_winnow_properties():
    """Winnowing guarantees: deterministic, ≥1 selection per window span,
    selection count ≤ gram count, identical docs → identical digests."""
    from codetoneo4j_ray.pipelines.data_ops import doc_winnow

    a = doc_winnow(SF).to_pandas()
    b = doc_winnow(SF).to_pandas()
    assert a.equals(b)
    assert len(a) == 500
    nonempty = a[a["n_grams"] > 0]
    assert (nonempty["n_selected"] >= 1).all()
    assert (nonempty["n_selected"] <= nonempty["n_grams"]).all()
    # density: winnowing selects ~2/(w+1) of positions; sanity bound
    frac = nonempty["n_selected"] / nonempty["n_grams"]
    assert frac.mean() < 0.75


def test_events_asof_join_semantics(tmp_path):
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from codetoneo4j_ray.pipelines.data_ops import events_asof_join

    base = np.datetime64("2024-01-01T00:00:00", "us")
    sec = np.timedelta64(1, "s")
    rows = [
        # (event_id, user_id, ts_offset_sec, type)
        (1, 7, 0, "click"),      # before any signup -> dropped
        (2, 7, 10, "signup"),    # ref itself: no prior ref -> dropped
        (3, 7, 25, "click"),     # -> ref 2, gap 15
        (4, 7, 40, "signup"),    # -> ref 2 (strictly prior), gap 30
        (5, 7, 41, "view"),      # -> ref 4 (latest), gap 1
        (6, 9, 5, "view"),       # other user, no signup -> dropped
    ]
    pq.write_table(
        pa.table({
            "event_id": pa.array([r[0] for r in rows], pa.int64()),
            "user_id": pa.array([r[1] for r in rows], pa.int64()),
            "ts": pa.array([base + r[2] * sec for r in rows], pa.timestamp("us")),
            "event_type": pa.array([r[3] for r in rows], pa.string()),
        }),
        str(tmp_path / "events.parquet"),
    )
    df = events_asof_join(str(tmp_path)).to_pandas()
    got = {r.event_id: (r.ref_event_id, r.gap_sec) for r in df.itertuples()}
    assert got == {3: (2, 15), 4: (2, 30), 5: (4, 1)}
    assert df["ref_event_id"].dtype == np.int64
    assert df["gap_sec"].dtype == np.int64


def test_sketch_oracles_edge_cases(tmp_path):
    """Python ops vs their DuckDB oracle SQL on inputs the sf0.01 gate
    never sees: empty docs, <3-word docs, leading/trailing whitespace,
    sub-k-gram texts. Pins the '' sentinel-shingle contract."""
    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq

    from codetoneo4j_ray.pipelines.data_ops import (
        doc_dedup_minhash,
        doc_ngram_jaccard,
        doc_winnow,
        minhash_oracle_sql,
        ngram_jaccard_oracle_sql,
        winnow_oracle_sql,
    )

    texts = [
        "",                                   # 0 empty
        "",                                   # 1 empty (pairs with 0)
        "one two",                            # 2 short (<3 words)
        "one two",                            # 3 short dup (pairs with 2)
        " ".join(f"w{i}" for i in range(21)),              # 4
        " ".join(f"w{i}" for i in range(20)) + " zz",      # 5 near-dup (J=0.9)
        "  leading   and trailing whitespace text here  ", # 6
        "tiny",                               # 7 < 8 bytes (winnow 0-gram)
        "12345678901",                        # 8 -> 4..11 bytes (short winnow)
    ]
    pq.write_table(
        pa.table({
            "doc_id": pa.array(range(len(texts)), pa.int64()),
            "text": pa.array(texts, pa.string()),
            "source": pa.array(["s"] * len(texts), pa.string()),
        }),
        str(tmp_path / "documents.parquet"),
    )
    con = duckdb.connect()
    con.execute(
        "CREATE VIEW documents AS SELECT * FROM "
        f"read_parquet('{tmp_path}/documents.parquet')"
    )

    for op, sql in [
        (doc_dedup_minhash, minhash_oracle_sql()),
        (doc_ngram_jaccard, ngram_jaccard_oracle_sql()),
        (doc_winnow, winnow_oracle_sql()),
    ]:
        ray_df = op(str(tmp_path)).to_pandas().reset_index(drop=True)
        ora_df = con.execute(sql).fetchdf().reset_index(drop=True)
        assert list(ray_df.columns) == list(ora_df.columns), op.__name__
        assert ray_df.astype(str).equals(ora_df.astype(str)), (
            op.__name__, ray_df, ora_df
        )

    # the edge pairs actually fired
    pairs = set(
        map(tuple, doc_dedup_minhash(str(tmp_path)).to_pandas().values)
    )
    assert (0, 1) in pairs and (2, 3) in pairs and (4, 5) in pairs


def test_top_orders_topk_ties(tmp_path):
    """Revenue ties at the k boundary break by orderkey asc, and the
    per-bucket top-k + global merge stays exact across buckets."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from codetoneo4j_ray.pipelines.data_ops import top_orders

    nk = 30
    pq.write_table(
        pa.table({
            "c_custkey": pa.array(range(nk), pa.int64()),
            "c_mktsegment": pa.array(["BUILDING"] * nk, pa.string()),
        }),
        str(tmp_path / "customer.parquet"),
    )
    od = np.datetime64("1998-01-01", "us")
    pq.write_table(
        pa.table({
            "o_orderkey": pa.array(range(nk), pa.int64()),
            "o_custkey": pa.array(range(nk), pa.int64()),
            "o_orderdate": pa.array([od] * nk, pa.timestamp("us")),
            "o_orderpriority": pa.array(["1-URGENT"] * nk, pa.string()),
        }),
        str(tmp_path / "orders.parquet"),
    )
    sd = np.datetime64("1999-01-01", "us")
    # every order has identical revenue -> top-10 must be orderkeys 0..9
    pq.write_table(
        pa.table({
            "l_orderkey": pa.array(range(nk), pa.int64()),
            "l_extendedprice": pa.array([100.0] * nk, pa.float64()),
            "l_discount": pa.array([0.0] * nk, pa.float64()),
            "l_shipdate": pa.array([sd] * nk, pa.timestamp("us")),
        }),
        str(tmp_path / "lineitem.parquet"),
    )
    df = top_orders(str(tmp_path)).to_pandas()
    assert list(df["o_orderkey"]) == list(range(10))
    assert (df["revenue_cents"] == 10000).all()
    assert df["revenue_cents"].dtype == np.int64


def test_doc_scrub_redactions(tmp_path):
    """Oracle parity on text that actually contains emails/digit runs
    (the sf testdata has none, so the gate alone is weak evidence)."""
    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq

    import __ray_entry__ as entry
    from codetoneo4j_ray.pipelines.data_ops import doc_scrub

    texts = [
        "call 555123 or mail bob.smith+x@ex-ample.co.uk now",
        "v1.2 has 12 bugs, build 4711 fixed 007 of them",
        "no digits here",
        "a@b c@d.e 999",
        "",
    ]
    pq.write_table(
        pa.table({
            "doc_id": pa.array(range(len(texts)), pa.int64()),
            "text": pa.array(texts, pa.string()),
        }),
        str(tmp_path / "documents.parquet"),
    )
    ray_df = doc_scrub(str(tmp_path)).to_pandas()
    assert list(ray_df["n_emails"]) == [1, 0, 0, 2, 0]
    assert list(ray_df["n_nums"]) == [1, 2, 0, 1, 0]

    con = duckdb.connect()
    con.execute(
        "CREATE VIEW documents AS SELECT * FROM "
        f"read_parquet('{tmp_path}/documents.parquet')"
    )
    ora_df = con.execute(entry.oracle_sql()["doc_scrub"]).fetchdf()
    assert ray_df.astype(str).equals(ora_df.astype(str))


def test_text_oracles_adversarial_whitespace(tmp_path):
    """Every text-family op vs its DuckDB oracle on input the sf corpora
    never contain: \\x0b/\\x0c/NBSP (where Python's and RE2's \\s
    disagree), unicode case, empty and punct-only docs. Pins the
    explicit-whitespace-class contract."""
    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq

    import __ray_entry__ as entry
    from codetoneo4j_ray.pipelines import data_ops

    texts = [
        "plain words the and of to a in is that it for more pad pad",
        "tab\tsep\nnewline\rcr and\x0bvertical\x0cformfeed mix",
        "nbsp\xa0joined und der die das nicht ein zu mit von ja",
        "\t leading tabs and trailing \n\n",
        "",
        "!!! ??? ,,, ;;; :::",
        "Ümlaut Çedilla İstanbul STRASSE weiß",
        "digits 123 456789 and email a.b@c-d.e here",
        "le la les et est une de pas pour oui",
    ]
    pq.write_table(
        pa.table({
            "doc_id": pa.array(range(len(texts)), pa.int64()),
            "text": pa.array(texts, pa.string()),
            "source": pa.array(["s"] * len(texts), pa.string()),
        }),
        str(tmp_path / "documents.parquet"),
    )
    con = duckdb.connect()
    con.execute(
        "CREATE VIEW documents AS SELECT * FROM "
        f"read_parquet('{tmp_path}/documents.parquet')"
    )
    oracles = entry.oracle_sql()
    for name in ["text_stats", "doc_quality", "lang_id", "doc_simhash",
                 "top_tokens", "doc_fingerprint", "doc_scrub"]:
        op = getattr(data_ops, name)
        ray_df = op(str(tmp_path)).to_pandas().reset_index(drop=True)
        ora_df = con.execute(oracles[name]).fetchdf().reset_index(drop=True)
        assert list(ray_df.columns) == list(ora_df.columns), name
        assert ray_df.astype(str).equals(ora_df.astype(str)), (
            name, ray_df, ora_df
        )


def test_events_hopping_non_divisible_hop(tmp_path):
    """window=3600, hop=1400: membership must follow w <= t < w+window
    exactly (the naive k = window//hop explode misses/overshoots)."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from codetoneo4j_ray.pipelines.data_ops import events_hopping

    base = np.datetime64("2024-01-01T00:00:00", "us")
    secs = [0, 1399, 1400, 2800, 3000, 4199, 4200]
    pq.write_table(
        pa.table({
            "event_id": pa.array(range(len(secs)), pa.int64()),
            "user_id": pa.array([1] * len(secs), pa.int64()),
            "ts": pa.array([base + np.timedelta64(s, "s") for s in secs],
                           pa.timestamp("us")),
            "value": pa.array([1.0] * len(secs), pa.float64()),
        }),
        str(tmp_path / "events.parquet"),
    )
    df = events_hopping(str(tmp_path), window_sec=3600, hop_sec=1400).to_pandas()
    got = {(r.window_start): r.n_events for r in df.itertuples()}
    epoch0 = 1704067200  # 2024-01-01T00:00:00Z
    want = {}
    for t0 in secs:
        t = epoch0 + t0
        w = (t // 1400) * 1400
        while w > t - 3600:
            want[w] = want.get(w, 0) + 1
            w -= 1400
    assert got == want


def test_minhash_identical_doc_flood_is_not_quadratic(tmp_path):
    """An identical-document flood (the normal case in crawl dedup) must
    collapse to ONE LSH representative per distinct text — the candidate
    stage emits zero pairs for a single-text corpus — while the output
    still carries every C(g,2) duplicate pair, plus cross-group pairs
    for near-dup (but unequal) texts."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from codetoneo4j_ray.pipelines.data_ops import doc_dedup_minhash

    base = ("alpha beta gamma delta epsilon zeta eta theta iota kappa "
            "lambda mu nu xi omicron pi rho sigma tau upsilon chi psi")
    n_flood = 10_000
    texts = [base] * n_flood + [base + " omega"] + [
        "totally different words about completely other topics right here"
    ] * 3
    ids = list(range(len(texts)))
    pq.write_table(
        pa.table({"doc_id": pa.array(ids, pa.int64()),
                  "text": pa.array(texts, pa.string())}),
        str(tmp_path / "documents.parquet"),
    )
    ds = doc_dedup_minhash(str(tmp_path))
    n = ds.count()
    # flood pairs + cross pairs (near-dup text x flood, J=22/23>=0.8)
    # + C(3,2) pairs of the second exact-dup group
    expect = n_flood * (n_flood - 1) // 2 + n_flood + 3
    assert n == expect
    # spot-check the cross-group expansion reached every flood member
    head = ds.take(3)
    assert [(r["doc_a"], r["doc_b"]) for r in head] == [(0, 1), (0, 2), (0, 3)]


def test_stratified_sample_deterministic_and_rate_bounded():
    import hashlib

    import pyarrow.parquet as pq

    from codetoneo4j_ray.pipelines.data_ops import (
        _SAMPLE_RATE_DEFAULT_MICRO,
        _SAMPLE_RATE_MICRO,
        stratified_sample,
    )

    df = stratified_sample(SF).to_pandas()
    docs = pq.read_table(
        f"{SF}/documents.parquet", columns=["doc_id", "lang"]
    ).to_pandas()

    # exact membership: recompute the keep predicate per row
    def kept(doc_id, lang):
        h = int.from_bytes(
            hashlib.md5(str(doc_id).encode()).digest()[:8], "big"
        )
        rate = _SAMPLE_RATE_MICRO.get(lang, _SAMPLE_RATE_DEFAULT_MICRO)
        return h % 1_000_000 < rate

    expect = sorted(
        int(r.doc_id) for r in docs.itertuples() if kept(r.doc_id, r.lang)
    )
    assert list(df["doc_id"]) == expect
    # two identical runs pick the same rows (seedless determinism)
    df2 = stratified_sample(SF).to_pandas()
    assert list(df2["doc_id"]) == list(df["doc_id"])


def test_group_quota_caps_and_ranks_per_lang(tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq

    from codetoneo4j_ray.pipelines.data_ops import group_quota

    # 3 langs x 10 docs; n_chars ties inside each lang exercise the
    # doc_id ASC tiebreak
    rows = []
    for li, lang in enumerate(["aa", "bb", "cc"]):
        for j in range(10):
            rows.append((li * 100 + j, lang, 50 + (j % 4)))
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array([r[0] for r in rows], pa.int64()),
                "lang": pa.array([r[1] for r in rows], pa.string()),
                "n_chars": pa.array([r[2] for r in rows], pa.int64()),
            }
        ),
        str(tmp_path / "documents.parquet"),
    )
    df = group_quota(str(tmp_path), quota=4).to_pandas()
    assert len(df) == 12  # 4 per lang
    assert list(df["rank"]) == [1, 2, 3, 4] * 3
    # per lang: top-4 by (n_chars desc, doc_id asc) == the four j%4==3,
    # then j%4==2 docs with smallest doc_id first
    for li, lang in enumerate(["aa", "bb", "cc"]):
        sub = df[df["lang"] == lang]
        assert list(sub["doc_id"]) == [
            li * 100 + 3, li * 100 + 7, li * 100 + 2, li * 100 + 6
        ]
        assert list(sub["n_chars"]) == [53, 53, 52, 52]
    assert str(df["rank"].dtype) == "int64"


def test_dup_clusters_transitive_chain(tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq

    from codetoneo4j_ray.pipelines.data_ops import (
        doc_dedup_minhash,
        dup_clusters,
    )

    # Sliding windows (22 words, stride 2) over distinct words: adjacent
    # docs share 18/22 trigram shingles (J = 0.818 >= 0.8), distance-2
    # docs only 16/24 (J = 0.667 < 0.8) -> the pair graph is a PATH, so
    # min-label propagation needs multiple rounds to reach the far end.
    words = [f"w{i:03d}" for i in range(40)]
    chain = [" ".join(words[i * 2 : i * 2 + 22]) for i in range(6)]
    trio = ["identical duplicate text payload right here okay"] * 3
    single = ["nothing like anything else in this corpus at all",
              "another lonely document with its own words only"]
    ids = [0, 1, 2, 3, 4, 5, 10, 11, 12, 20, 21]
    texts = chain + trio + single
    pq.write_table(
        pa.table({"doc_id": pa.array(ids, pa.int64()),
                  "text": pa.array(texts, pa.string())}),
        str(tmp_path / "documents.parquet"),
    )

    df = dup_clusters(str(tmp_path)).to_pandas()
    got = dict(zip(df["doc_id"], df["cluster_rep"]))

    # independent check: union-find over the op's own verified pairs
    pairs = doc_dedup_minhash(str(tmp_path)).to_pandas()
    parent = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in zip(pairs["doc_a"], pairs["doc_b"]):
        ra, rb = find(int(a)), find(int(b))
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    expect = {x: find(x) for x in parent}
    assert got == expect

    # the planted structure resolved as designed: one 6-doc path
    # cluster repped by 0, one exact-dup trio repped by 10, singletons
    # absent
    assert {got[i] for i in range(6)} == {0}
    assert {got[i] for i in (10, 11, 12)} == {10}
    assert 20 not in got and 21 not in got
    assert str(df["doc_id"].dtype) == "int64"
    assert str(df["cluster_rep"].dtype) == "int64"


def test_doc_pack_prefix_sum_crosses_range_buckets(tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq

    from codetoneo4j_ray.pipelines.data_ops import doc_pack

    # 400 docs, 2 langs interleaved, varying sizes — far more docs than
    # range buckets, so almost every in-bucket cumsum needs a nonzero
    # base offset from the driver's pass-1 summary
    ids = list(range(400))
    langs = ["en" if i % 2 == 0 else "fr" for i in ids]
    sizes = [100 + (i * 37) % 250 for i in ids]
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "lang": pa.array(langs, pa.string()),
                "n_chars": pa.array(sizes, pa.int64()),
            }
        ),
        str(tmp_path / "documents.parquet"),
    )
    df = doc_pack(str(tmp_path), capacity=512).to_pandas()
    assert len(df) == 400

    # reference: plain per-lang running sum in (lang, doc_id) order
    import pandas as pd

    ref = pd.DataFrame({"doc_id": ids, "lang": langs, "n_chars": sizes})
    ref = ref.sort_values(["lang", "doc_id"])
    ref["cum_before"] = (
        ref.groupby("lang")["n_chars"].cumsum() - ref["n_chars"]
    )
    ref["pack_id"] = ref["cum_before"] // 512
    got = df.reset_index(drop=True)
    exp = ref[["lang", "doc_id", "cum_before", "pack_id"]].reset_index(
        drop=True
    )
    assert list(got["doc_id"]) == list(exp["doc_id"])
    assert list(got["cum_before"]) == list(exp["cum_before"])
    assert list(got["pack_id"]) == list(exp["pack_id"])
    assert str(got["cum_before"].dtype) == "int64"
    assert str(got["pack_id"].dtype) == "int64"
    # sanity: the op really produced many packs per lang
    assert df.groupby("lang")["pack_id"].nunique().min() > 10


def test_doc_pack_sparse_clustered_ids_stay_exact(tmp_path):
    """A fixed-width ``id // width`` ranger collapses this corpus into
    one hot bucket (ids live in two narrow clusters 12 orders of
    magnitude apart); the sampled-quantile ranger must keep the scan
    exact regardless of the boundary set it picks."""
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    from codetoneo4j_ray.pipelines.data_ops import doc_pack

    ids = list(range(200)) + [10**12 + i for i in range(200)]
    langs = ["en" if i % 2 == 0 else "fr" for i in range(400)]
    sizes = [100 + (i * 37) % 250 for i in range(400)]
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "lang": pa.array(langs, pa.string()),
                "n_chars": pa.array(sizes, pa.int64()),
            }
        ),
        str(tmp_path / "documents.parquet"),
    )
    df = doc_pack(str(tmp_path), capacity=512).to_pandas()
    ref = pd.DataFrame({"doc_id": ids, "lang": langs, "n_chars": sizes})
    ref = ref.sort_values(["lang", "doc_id"])
    ref["cum_before"] = (
        ref.groupby("lang")["n_chars"].cumsum() - ref["n_chars"]
    )
    ref["pack_id"] = ref["cum_before"] // 512
    assert list(df["doc_id"]) == list(ref["doc_id"])
    assert list(df["cum_before"]) == list(ref["cum_before"])
    assert list(df["pack_id"]) == list(ref["pack_id"])


def test_range_bounds_balance_skewed_keys():
    """The quantile ranger doc_pack uses (``key_sample`` per batch,
    pooled by ``range_bounds``) must spread clustered/sparse keys
    roughly evenly across ranges where a fixed-width ranger would put
    ~all rows in one bucket."""
    import numpy as np
    import pyarrow as pa

    from codetoneo4j_ray.stages.canonicalize import (
        SAMPLE_KEYS,
        key_sample,
        range_bounds,
    )

    # 10k keys: half clustered at 0..4999, half at 1e12..1e12+4999
    keys = np.concatenate(
        [np.arange(5000, dtype=np.int64), 10**12 + np.arange(5000, dtype=np.int64)]
    )
    rate = SAMPLE_KEYS / len(keys)
    batches = np.array_split(np.random.default_rng(5).permutation(keys), 4)
    bounds = range_bounds([key_sample(pa.array(b), rate) for b in batches],
                          8).astype("int64")
    assert 1 <= len(bounds) <= 7
    r = np.searchsorted(bounds, keys, side="right")
    counts = np.bincount(r, minlength=len(bounds) + 1)
    # every range non-trivial: no range holds more than half the rows
    assert counts.max() <= len(keys) // 2 + 2500
    # monotone in the key by construction
    assert (np.diff(r[np.argsort(keys, kind="stable")]) >= 0).all()


def _write_docs(tmp_path, texts, ids=None):
    import pyarrow as pa
    import pyarrow.parquet as pq

    ids = list(range(len(texts))) if ids is None else ids
    pq.write_table(
        pa.table({"doc_id": pa.array(ids, pa.int64()),
                  "text": pa.array(texts, pa.string())}),
        str(tmp_path / "documents.parquet"),
    )


def test_decontaminate_flags_planted_overlap(tmp_path):
    """Doc sharing an 8-gram with the benchmark slice (id % 31 == 0) is
    flagged with the distinct-gram count; short and disjoint docs are
    clean; benchmark docs never appear in the output."""
    from codetoneo4j_ray.pipelines.data_ops import decontaminate

    bench = "alpha beta gamma delta epsilon zeta eta theta iota kappa"
    # ids: 0 and 31 are benchmark; 1 copies 9 of bench's words -> two
    # overlapping 8-grams; 2 is disjoint; 3 is shorter than 8 words
    _write_docs(tmp_path, [
        bench,
        "alpha beta gamma delta epsilon zeta eta theta iota nope",
        "totally unrelated words one two three four five six seven eight",
        "short doc",
        "lambda mu nu xi omicron pi rho sigma tau upsilon",
    ], ids=[0, 1, 2, 3, 31])
    df = decontaminate(str(tmp_path)).to_pandas().set_index("doc_id")
    assert sorted(df.index) == [1, 2, 3]
    assert df.loc[1, "n_contam"] == 2 and bool(df.loc[1, "contaminated"])
    assert df.loc[2, "n_contam"] == 0 and not bool(df.loc[2, "contaminated"])
    assert df.loc[3, "n_contam"] == 0


def test_doc_repetition_flags_planted_repeats(tmp_path):
    """Duplicate-line mass and a dominating bigram trip the Gopher-style
    thresholds; a varied doc keeps; empty doc is all-zero and keeps."""
    from codetoneo4j_ray.pipelines.data_ops import doc_repetition

    dup_lines = "same line\nsame line\nsame line\nunique"
    rep_bigram = "spam ham " * 20  # 'ham spam'/'spam ham' dominate
    varied = ("one two three four five six seven eight nine ten\n"
              "eleven twelve thirteen fourteen fifteen sixteen")
    _write_docs(tmp_path, [dup_lines, rep_bigram.strip(), varied, ""])
    df = doc_repetition(str(tmp_path)).to_pandas().set_index("doc_id")
    # 3*9=27 of 33 line chars are in duplicate lines
    assert df.loc[0, "dup_line_frac_micro"] == 27 * 1_000_000 // 33
    assert not bool(df.loc[0, "keep"])
    # 'spam ham' appears 20x of 39 bigrams -> > 0.2
    assert df.loc[1, "top_bigram_frac_micro"] == 20 * 1_000_000 // 39
    assert not bool(df.loc[1, "keep"])
    assert bool(df.loc[2, "keep"])
    assert df.loc[3, "n_lines"] == 0
    assert df.loc[3, "dup_line_frac_micro"] == 0
    assert bool(df.loc[3, "keep"])


def test_doc_chunk_boundaries_and_unicode(tmp_path):
    """Chunk windows are character-based (non-ASCII safe), overlap by
    size-stride, an exact-size doc yields ceil-strided chunks, and an
    empty doc yields one empty chunk."""
    import hashlib

    from codetoneo4j_ray.pipelines.data_ops import doc_chunk

    long = "ä" * 1001          # 3 chunks at stride 400 (starts 0/400/800)
    exact = "b" * 500          # starts 0 and 400 -> 2 chunks
    _write_docs(tmp_path, [long, exact, ""])
    df = doc_chunk(str(tmp_path)).to_pandas()
    g = df.set_index(["doc_id", "chunk_idx"])
    assert list(df[df.doc_id == 0]["n_chunk_chars"]) == [500, 500, 201]
    assert g.loc[(0, 0), "chunk_md5"] == hashlib.md5(
        ("ä" * 500).encode()).hexdigest()
    assert list(df[df.doc_id == 1]["n_chunk_chars"]) == [500, 100]
    assert g.loc[(1, 1), "chunk_md5"] == hashlib.md5(
        ("b" * 100).encode()).hexdigest()
    assert list(df[df.doc_id == 2]["n_chunk_chars"]) == [0]
    assert g.loc[(2, 0), "chunk_md5"] == hashlib.md5(b"").hexdigest()


# every data and media op bench.py times
_BENCH_OPS = (
    "doc_dedup_exact", "doc_dedup_minhash", "dup_clusters", "doc_simhash",
    "doc_ngram_jaccard", "ann_topk", "ann_ivf", "embedding_near_dup",
    "text_stats", "lang_id", "doc_fingerprint", "doc_scrub", "doc_winnow",
    "stratified_sample", "group_quota", "doc_pack", "doc_chunk",
    "doc_repetition", "decontaminate", "events_tumbling", "events_hopping",
    "events_sessionize", "events_asof_join", "top_orders", "top_tokens",
    "doc_quality", "embedding_kmeans", "embedding_quantize",
    "revenue_by_nation", "pricing_summary", "inverted_index", "tfidf_topk",
    "price_quantiles", "orders_running_total", "media_decode_meta",
    "media_frame_sample",
)


def test_ops_run_no_ray_data_execution(monkeypatch):
    """Every op bench.py times runs on raw tasks alone: with
    ``ray.data.read_parquet`` and ``Dataset.materialize`` raising, no op
    runs a Ray Data execution inside its call, and each returns what it
    returned unpatched."""
    import pandas as pd
    import ray.data
    from ray.data._internal.execution.streaming_executor import (
        StreamingExecutor,
    )

    from codetoneo4j_ray.pipelines import data_ops, multimodal

    ops = {name: getattr(data_ops, name, None) or getattr(multimodal, name)
           for name in _BENCH_OPS}
    want = {name: op(SF).to_pandas() for name, op in ops.items()}

    def forbidden(*_a, **_k):
        raise AssertionError("Ray Data read or materialize used")

    real = StreamingExecutor.execute
    runs = []

    def counted(self, *args, **kwargs):
        runs.append(1)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(ray.data, "read_parquet", forbidden)
    monkeypatch.setattr(ray.data.Dataset, "materialize", forbidden)
    monkeypatch.setattr(StreamingExecutor, "execute", counted)
    for name, op in ops.items():
        del runs[:]
        ds = op(SF)
        assert not runs, name
        pd.testing.assert_frame_equal(ds.to_pandas(), want[name], obj=name)


def test_keyed_ops_equal_across_ranges(monkeypatch):
    """The ops whose keyed merge and output sort run as one sorted fold,
    plus doc_dedup_minhash, doc_pack and top_orders, return the same
    rows, dtypes and row order from one read block, bucket and key
    range as from four."""
    import functools

    import pandas as pd
    import ray.data

    from codetoneo4j_ray.pipelines import data_ops
    from codetoneo4j_ray.stages import bucketing

    ops = {name: getattr(data_ops, name) for name in (
        "inverted_index", "group_quota", "tfidf_topk", "embedding_quantize",
        "ann_topk", "events_tumbling", "events_hopping", "events_sessionize",
        "orders_running_total", "revenue_by_nation", "price_quantiles",
        "pricing_summary", "doc_dedup_minhash", "doc_pack", "top_orders")}
    # the IVF path, whose cell pairs meet in the distinct's fold
    ops["embedding_near_dup"] = functools.partial(
        data_ops.embedding_near_dup, threshold=0.4, exact_cutoff=0)
    got, ranges = {}, {}
    for n in (1, 4):
        monkeypatch.setattr(bucketing, "target_blocks", lambda: n)
        monkeypatch.setattr(ray.data.DataContext.get_current(),
                            "target_min_block_size", 1)
        for name, op in ops.items():
            ds = op(SF)
            ranges[name] = ds._plan.initial_num_blocks()
            df = ds.to_pandas()
            assert len(df), name
            got.setdefault(name, df)
            pd.testing.assert_frame_equal(df, got[name], obj=name)
    # all but top_orders' one global bucket and a sample that may miss
    # every key of a low-cardinality split column ran several ranges
    assert sum(r > 1 for r in ranges.values()) >= len(ops) - 2, ranges


def test_train_centroids_sample_the_first_rows(monkeypatch):
    """The IVF/k-means training sample is the first ``sample_rows`` rows
    in file order, gathered across read blocks."""
    import pyarrow.parquet as pq
    import ray
    import ray.data

    from codetoneo4j_ray.pipelines.data_ops import _read, _train_centroids
    from codetoneo4j_ray.stages import bucketing

    head = pq.read_table(f"{SF}/embeddings.parquet").slice(0, 300)
    want = _train_centroids(
        bucketing.Blocks.of([ray.put(head)], [(head.num_rows, head.nbytes)]),
        8, sample_rows=300)
    monkeypatch.setattr(bucketing, "target_blocks", lambda: 4)
    monkeypatch.setattr(ray.data.DataContext.get_current(),
                        "target_min_block_size", 1)
    emb = _read(SF, "embeddings")
    assert len(emb.refs) == 4 and emb.rows == 500
    np.testing.assert_array_equal(_train_centroids(emb, 8, sample_rows=300),
                                  want)
