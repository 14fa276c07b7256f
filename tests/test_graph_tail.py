"""Stages 2–4 as raw tasks over the pinned records (``build_graph.
write_graph``): the exchange contract, its edge cases, the stage-2
counts it reports, and the block counts around it.

The sf0.001 digests below are the outputs of the Ray Data sort-based
tail this exchange replaced (a fresh build, and an incremental rebuild
with an edit, an addition and a deletion). Recompute them with
``_digests`` whenever the build's output changes on purpose.
"""

from __future__ import annotations

import hashlib
import os

import pyarrow as pa
import pyarrow.dataset as pds
import pyarrow.parquet as pq
import pytest

SF = "sf0.001"  # corpus scale for sources.synth.ensure_corpus
DELETED_AT = 1_700_000_000
FULL = {"nodes": (271, "a98facd5751c0ab7"), "edges": (1180, "3330f7b26a7e9ec7"),
        "files": (41, "afe0d7e6f8f35427")}
INCR = {"nodes": (270, "52888a57cb63caaf"), "edges": (1175, "0b9f837b26a909e4"),
        "files": (42, "62b3529610e87442")}
OUTPUTS = ("nodes", "edges", "files")
# Session shapes a build runs on: "broadcast" is the one-node session
# and "partitioned" the two-node one (``add_alive_node``), named after
# the paths those sessions once chose. The build takes one path on both.
SESSIONS = ["broadcast", "partitioned"]


@pytest.fixture(scope="module", autouse=True)
def _ray(ray_session):
    yield


def _digests(out: str) -> dict:
    """{output: (rows, order-insensitive digest of every row)}."""
    res = {}
    for n in OUTPUTS:
        t = pds.dataset(f"{out}/{n}", format="parquet").to_table()
        cols = sorted(t.column_names)
        rows = sorted(repr(r) for r in zip(*[t[c].to_pylist() for c in cols]))
        h = hashlib.sha256("\n".join([repr(cols)] + rows).encode())
        res[n] = (t.num_rows, h.hexdigest()[:16])
    return res


def _parts(out: str, name: str) -> list[str]:
    return sorted(f for f in os.listdir(f"{out}/{name}")
                  if f.endswith(".parquet"))


def _assert_sorted(out: str) -> None:
    """The part files, read in name order, are globally sorted."""
    for n in OUTPUTS:
        t = pa.concat_tables([pq.read_table(f"{out}/{n}/{f}")
                              for f in _parts(out, n)])
        cols = ["subj", "pred", "obj"] if n == "edges" else ["key"]
        rows = list(zip(*[t[c].to_pylist() for c in cols]))
        assert rows == sorted(rows), n


def _edited_corpus(tmp_path) -> str:
    """sf0.001 with its first C# file edited, its last deleted and one
    file added."""
    from codetoneo4j_ray.schema import CORPUS_SCHEMA
    from codetoneo4j_ray.sources.synth import ensure_corpus

    rows = pq.read_table(ensure_corpus(SF)).to_pylist()
    cs = [i for i, r in enumerate(rows) if r["path"].endswith(".cs")]
    first = rows[cs[0]]
    edited = [r for i, r in enumerate(rows) if i not in (cs[0], cs[-1])]
    edited.append(dict(first, commit="d" * 40,
                       content=first["content"] + "\n// edited\n"))
    edited.append(dict(first, path="src/Added/Extra.cs", commit="d" * 40,
                       content="namespace Added;\npublic class Extra { }\n"))
    path = str(tmp_path / "v2.parquet")
    pq.write_table(pa.Table.from_pylist(edited, schema=CORPUS_SCHEMA), path)
    return path


@pytest.fixture
def no_sort_in_tail(monkeypatch):
    """``Dataset.sort`` raises anywhere; ``Dataset.to_pandas`` and
    ``take_all`` raise while ``write_graph`` (stages 2–4) runs."""
    import ray.data

    from codetoneo4j_ray.pipelines import build_graph as bg
    from codetoneo4j_ray.pipelines import incremental as inc

    def no_sort(*args, **kwargs):
        raise AssertionError("Dataset.sort ran")

    monkeypatch.setattr(ray.data.Dataset, "sort", no_sort)
    in_tail: list[int] = []
    for name in ("to_pandas", "take_all"):
        def guarded(self, *args, _real=getattr(ray.data.Dataset, name),
                    _name=name, **kwargs):
            assert not in_tail, f"Dataset.{_name} collected in stages 2-4"
            return _real(self, *args, **kwargs)

        monkeypatch.setattr(ray.data.Dataset, name, guarded)
    real = bg.write_graph

    def write_graph(*args, **kwargs):
        in_tail.append(1)
        try:
            return real(*args, **kwargs)
        finally:
            in_tail.pop()

    monkeypatch.setattr(bg, "write_graph", write_graph)
    monkeypatch.setattr(inc, "write_graph", write_graph)


@pytest.mark.parametrize("path", SESSIONS)
def test_stages_2_4_run_without_sort_or_collect(path, tmp_path,
                                                no_sort_in_tail,
                                                add_alive_node):
    """With ``Dataset.sort`` raising and no driver collect allowed in
    stages 2–4, a fresh build, a resumed build and an incremental
    rebuild with a deletion (tombstones) finish on a one-node and on a
    two-node session, with the sort-based tail's outputs, globally
    sorted."""
    from codetoneo4j_ray.pipelines.build_graph import build_graph
    from codetoneo4j_ray.pipelines.incremental import build_graph_incremental
    from codetoneo4j_ray.sources.synth import ensure_corpus

    if path == "partitioned":
        add_alive_node()
    v1, v2 = ensure_corpus(SF), _edited_corpus(tmp_path)
    full, incr = str(tmp_path / "full"), str(tmp_path / "incr")
    build_graph(v1, full, resume=False)
    assert _digests(full) == FULL
    _assert_sorted(full)
    resumed = build_graph(v1, full)
    assert resumed["stage1_sec"] == 0.0  # read the checkpoint
    assert _digests(full) == FULL
    _assert_sorted(full)
    m = build_graph_incremental(v2, full, incr, deleted_at_sec=DELETED_AT)
    assert m["deleted_files"] == 1 and m["tombstones"] == 1
    assert _digests(incr) == INCR
    _assert_sorted(incr)


def test_empty_range_writes_no_file(tmp_path, monkeypatch):
    """A range that receives no rows writes no part file, and the
    output still reads back whole and in key order. A bound below every
    key ("") leaves range 0 of every output empty."""
    import numpy as np

    from codetoneo4j_ray.pipelines import build_graph as bg
    from codetoneo4j_ray.sources.synth import ensure_corpus

    real = bg.range_bounds
    monkeypatch.setattr(bg, "range_bounds", lambda samples, n: np.concatenate(
        [np.array([""], dtype=object), real(samples, n)]))
    out = str(tmp_path / "kg")
    bg.build_graph(ensure_corpus(SF), out, resume=False)
    for n in OUTPUTS:
        parts = _parts(out, n)
        assert parts and "part-00000.parquet" not in parts, (n, parts)
    assert _digests(out) == FULL
    _assert_sorted(out)


@pytest.mark.parametrize("path", SESSIONS)
def test_build_without_csharp_files(path, tmp_path, add_alive_node):
    """A corpus with no C# files and zero mention rows (bare HTML and
    package.json files: file rows only, so no node either) builds on a
    one-node and on a two-node session, and every output reads back —
    the empty nodes output as one empty part with the nodes schema."""
    import ray.data

    from codetoneo4j_ray.pipelines.build_graph import build_graph
    from codetoneo4j_ray.schema import CORPUS_SCHEMA

    rows = [
        ("r", "web/index.html", "c" * 40, "html", "<html><body></body></html>"),
        ("r", "client/package.json", "c" * 40, "json", '{"name": "c"}'),
        ("s", "web/index.html", "c" * 40, "html", "<html></html>"),
    ]
    p = str(tmp_path / "c.parquet")
    pq.write_table(pa.Table.from_pylist(
        [dict(zip(CORPUS_SCHEMA.names, r)) for r in rows],
        schema=CORPUS_SCHEMA), p)
    if path == "partitioned":
        add_alive_node()
    out = str(tmp_path / "kg")
    m = build_graph(p, out, resume=False)
    assert not os.path.isdir(f"{out}/records/rec_type=mention")
    assert m["mentions_in"] == m["mentions_resolved"] == 0
    assert (m["nodes"], m["edges"], m["files"]) == (0, 3, 2)
    for n in OUTPUTS:
        ds = ray.data.read_parquet(f"{out}/{n}")
        assert ds.count() == m[n], n
    assert "documentation" in ray.data.read_parquet(f"{out}/nodes").columns()
    _assert_sorted(out)


def test_stage2_counts_from_the_tasks(tmp_path, add_alive_node):
    """``mentions_in`` is the checkpoint's non-internal mention rows,
    ``mentions_resolved`` (after resolution and the endpoint check,
    before the distinct) is no more, and a session reporting two nodes
    reports the same values."""
    import pyarrow.compute as pc

    from codetoneo4j_ray.extractors.csharp.extractor import (
        BASE_PRED,
        MEMBER_PRED,
    )
    from codetoneo4j_ray.pipelines.build_graph import build_graph
    from codetoneo4j_ray.sources.synth import ensure_corpus

    v1 = ensure_corpus(SF)
    one = build_graph(v1, str(tmp_path / "one"), resume=False)
    pred = pq.read_table(f"{tmp_path}/one/records/rec_type=mention",
                         columns=["pred"])["pred"]
    internal = pc.is_in(pred, value_set=pa.array([MEMBER_PRED, BASE_PRED]))
    want = len(pred) - pc.sum(internal).as_py()
    assert one["mentions_in"] == want > 0
    assert 0 < one["mentions_resolved"] <= one["mentions_in"]
    add_alive_node()
    two = build_graph(v1, str(tmp_path / "two"), resume=False)
    for k in ("mentions_in", "mentions_resolved"):
        assert two[k] == one[k], k


def test_resumed_build_writes_the_fresh_part_files(tmp_path, monkeypatch):
    """A resumed build pins the checkpoint and sizes its ranges from
    the same in-memory bytes as a fresh build: the same part files per
    output, with equal rows. At a 150 kB minimum block size the sf0.001
    records (~340 kB in memory, ~80–110 kB of parquet footer bytes)
    take 3 ranges either way, not 3 fresh and 1 resumed."""
    import ray.data

    from codetoneo4j_ray.pipelines.build_graph import build_graph
    from codetoneo4j_ray.sources.synth import ensure_corpus

    monkeypatch.setattr(ray.data.DataContext.get_current(),
                        "target_min_block_size", 150_000)
    out = str(tmp_path / "kg")
    fresh = build_graph(ensure_corpus(SF), out, resume=False)
    fresh_parts = {n: _parts(out, n) for n in OUTPUTS}
    assert max(len(p) for p in fresh_parts.values()) > 1
    digests = _digests(out)
    resumed = build_graph(ensure_corpus(SF), out)
    assert resumed["stage1_sec"] == 0.0
    assert {n: _parts(out, n) for n in OUTPUTS} == fresh_parts
    assert {n: resumed[n] for n in OUTPUTS} == {n: fresh[n] for n in OUTPUTS}
    assert _digests(out) == digests


def test_extraction_keeps_the_corpus_block_count(monkeypatch, tmp_path):
    """At 4 CPUs with a 1-byte minimum block size, extraction yields
    one records block per corpus block (one task per block),
    so the corpus read's CPU floor reaches extraction."""
    import ray.data

    from codetoneo4j_ray.pipelines.build_graph import (
        extract_corpus,
        read_corpus_blocks,
    )
    from codetoneo4j_ray.sources.synth import ensure_corpus

    monkeypatch.setattr(ray.data.DataContext.get_current(),
                        "target_min_block_size", 1)
    corpus = read_corpus_blocks(ensure_corpus(SF))
    records, _ = extract_corpus(corpus, str(tmp_path), "fp")
    assert len(corpus.refs) > 1
    assert len(records.refs) == len(corpus.refs)


# {rec_type: (rows, digest)} of the records checkpoint, recorded from
# the Ray Data stage 1 this raw-task stage 1 replaced (same builds as
# FULL and INCR)
RECORDS_FULL = {"file": (52, "666d7c90bd867d9c"),
                "mention": (790, "fcdfdd72ac0aaff6"),
                "symbol": (308, "600495b4b3961e89")}
RECORDS_INCR = {"file": (52, "a50e5319b68e9898"),
                "mention": (788, "fadfadaaefb3bf73"),
                "symbol": (307, "d38e2af3bca62c29")}


def _records_digests(out: str) -> dict:
    """{rec_type: (rows, digest)} of ``out``'s records checkpoint."""
    res = {}
    for d in sorted(os.listdir(f"{out}/records")):
        t = pds.dataset(f"{out}/records/{d}", format="parquet").to_table()
        cols = sorted(c for c in t.column_names if c != "rec_type")
        rows = sorted(repr(r) for r in zip(*[t[c].to_pylist() for c in cols]))
        h = hashlib.sha256("\n".join([repr(cols)] + rows).encode())
        res[d.split("=", 1)[1]] = (t.num_rows, h.hexdigest()[:16])
    return res


@pytest.mark.parametrize("path", SESSIONS)
def test_build_runs_no_ray_data_execution(path, tmp_path, monkeypatch,
                                          add_alive_node):
    """With ``ray.data.read_parquet``, ``Dataset.materialize``,
    ``Dataset.write_parquet`` and every Ray Data execution raising, a
    fresh build, a resumed build and an incremental rebuild with a
    deletion finish on a one-node and on a two-node session, with the
    Ray Data stage 1's outputs and records checkpoint."""
    import ray.data
    from ray.data._internal.execution.streaming_executor import (
        StreamingExecutor,
    )

    from codetoneo4j_ray.pipelines.build_graph import build_graph
    from codetoneo4j_ray.pipelines.incremental import build_graph_incremental
    from codetoneo4j_ray.sources.synth import ensure_corpus

    def no_ray_data(*args, **kwargs):
        raise AssertionError("a Ray Data execution ran")

    monkeypatch.setattr(ray.data, "read_parquet", no_ray_data)
    for obj, name in ((ray.data.Dataset, "materialize"),
                      (ray.data.Dataset, "write_parquet"),
                      (StreamingExecutor, "execute")):
        monkeypatch.setattr(obj, name, no_ray_data)
    if path == "partitioned":
        add_alive_node()
    v1, v2 = ensure_corpus(SF), _edited_corpus(tmp_path)
    full, incr = str(tmp_path / "full"), str(tmp_path / "incr")
    build_graph(v1, full, resume=False)
    assert _digests(full) == FULL
    assert _records_digests(full) == RECORDS_FULL
    assert build_graph(v1, full)["stage1_sec"] == 0.0  # read the checkpoint
    assert _digests(full) == FULL
    m = build_graph_incremental(v2, full, incr, deleted_at_sec=DELETED_AT)
    assert m["deleted_files"] == 1 and m["tombstones"] == 1
    assert _digests(incr) == INCR
    assert _records_digests(incr) == RECORDS_INCR


def test_stage_walls_add_up_to_the_build(tmp_path):
    """``stage_sec`` holds the read, skim, extract, scan, map and reduce
    walls of a fresh, a resumed and an incremental build: none is
    negative, and together they cover the build's wall to within 5%
    without exceeding it."""
    import time

    from codetoneo4j_ray.pipelines.build_graph import StageWalls, build_graph
    from codetoneo4j_ray.pipelines.incremental import build_graph_incremental
    from codetoneo4j_ray.sources.synth import ensure_corpus

    v1, v2 = ensure_corpus(SF), _edited_corpus(tmp_path)
    full, incr = str(tmp_path / "full"), str(tmp_path / "incr")
    for build in (lambda: build_graph(v1, full, resume=False),
                  lambda: build_graph(v1, full),
                  lambda: build_graph_incremental(v2, full, incr)):
        t0 = time.perf_counter()
        walls = build()["stage_sec"]
        wall = time.perf_counter() - t0
        assert tuple(walls) == StageWalls.STAGES
        assert all(s >= 0 for s in walls.values()), walls
        assert 0.95 * wall <= sum(walls.values()) <= wall, (walls, wall)
