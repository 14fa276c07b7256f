"""Broadcast vs hash-partitioned endpoint semi-join equivalence."""

from __future__ import annotations

import pyarrow as pa
import pytest


@pytest.fixture(scope="module", autouse=True)
def _ray(ray_session):
    yield


def test_partitioned_join_matches_broadcast():
    import ray.data

    from codetoneo4j_ray.stages.link import (
        resolve_edges_broadcast,
        resolve_edges_partitioned,
    )

    keys = [f"k{i}" for i in range(50)]
    mentions = []
    for i in range(200):
        s = f"k{i % 60}"          # some subjects dangle (k50..k59)
        o = f"k{(i * 7) % 70}"    # some objects dangle
        mentions.append((s, "src__INVOKES", o))
    mentions.append(("k1", "src__CONTAINS", "k1"))   # self-loop
    mentions.append(("k2", "src__CONTAINS", "k51"))  # subj ok, obj dangling
    mentions.append(("k2", "src__CONTAINS", "k51"))  # duplicate of the above

    m_ds = ray.data.from_arrow(
        pa.table(
            {
                "subj": pa.array([m[0] for m in mentions]),
                "pred": pa.array([m[1] for m in mentions]),
                "obj": pa.array([m[2] for m in mentions]),
            }
        )
    )
    s_ds = ray.data.from_arrow(pa.table({"key": pa.array(keys)}))

    broadcast = resolve_edges_broadcast(m_ds, set(keys)).to_pandas()
    partitioned = resolve_edges_partitioned(m_ds, s_ds, num_buckets=8).to_pandas()

    b = set(map(tuple, broadcast[["subj", "pred", "obj"]].drop_duplicates().values))
    p = set(map(tuple, partitioned[["subj", "pred", "obj"]].values))
    assert b == p
    assert ("k1", "src__CONTAINS", "k1") in p
    assert not any(o == "k51" for _s, _p2, o in p)


def test_graph_modes_output_identical(tmp_path):
    """broadcast vs partitioned (fused repo-local linking) must produce
    byte-identical nodes/edges/files over the full synthetic corpus —
    the exactness contract of the repo-prefix local-check optimization."""
    from codetoneo4j_ray.pipelines.build_graph import (
        extract_to_records,
        graph_from_records,
        read_corpus,
    )
    from codetoneo4j_ray.sources.synth import ensure_corpus

    corpus = read_corpus(ensure_corpus("/root/testdata/sf0.001"))
    records_dir = str(tmp_path / "records")
    extract_to_records(corpus).write_parquet(
        records_dir, partition_cols=["rec_type"]
    )
    a = graph_from_records(records_dir=records_dir, mode="broadcast")
    b = graph_from_records(records_dir=records_dir, mode="partitioned")
    for name in ("nodes", "edges", "files"):
        da = a[name].to_pandas().reset_index(drop=True)
        db = b[name].to_pandas().reset_index(drop=True)
        assert list(da.columns) == list(db.columns), name
        assert da.equals(db), f"{name} differs between modes"


def test_stage1_partitioned_matches_task_path(tmp_path):
    """Repo-bucketed extraction (no driver index) must produce the same
    record multiset as the broadcast-index task path."""
    import pandas as pd

    from codetoneo4j_ray.pipelines.build_graph import (
        extract_to_records,
        read_corpus,
    )
    from codetoneo4j_ray.sources.synth import ensure_corpus
    from codetoneo4j_ray.stages.extract import extract_records_partitioned

    corpus = read_corpus(ensure_corpus("/root/testdata/sf0.001"))
    a = extract_to_records(corpus).to_pandas()
    b = extract_records_partitioned(corpus).to_pandas()
    assert list(a.columns) == list(b.columns)
    key_cols = list(a.columns)
    a_s = a.sort_values(key_cols, kind="stable").reset_index(drop=True)
    b_s = b.sort_values(key_cols, kind="stable").reset_index(drop=True)
    pd.testing.assert_frame_equal(a_s, b_s, check_dtype=True)


def test_modes_agree_on_cross_repo_shaped_corpus(tmp_path):
    """The fused repo-local endpoint check is exact because every
    handler's mention endpoints are self-declared, repo-prefixed, or
    pkg:/url: (also self-declared) — a mention can never be satisfied
    ONLY by another repo. This corpus shapes the tempting counterexample
    (repo A imports a file only repo B has) and asserts the modes still
    agree byte-for-byte."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from codetoneo4j_ray.pipelines.build_graph import (
        extract_to_records,
        graph_from_records,
        read_corpus,
    )
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
    records_dir = str(tmp_path / "records")
    extract_to_records(read_corpus(p)).write_parquet(
        records_dir, partition_cols=["rec_type"]
    )
    a = graph_from_records(records_dir=records_dir, mode="broadcast")
    b = graph_from_records(records_dir=records_dir, mode="partitioned")
    for name in ("nodes", "edges", "files"):
        da = a[name].to_pandas().reset_index(drop=True)
        db = b[name].to_pandas().reset_index(drop=True)
        assert da.equals(db), f"{name} differs"
