"""Per-partition extraction: partition invariants, resume, purge."""

from __future__ import annotations

import pyarrow.parquet as pq
import pytest

from codetoneo4j_ray.sources.synth import generate_corpus


@pytest.fixture(scope="module")
def part_out(ray_session, tmp_path_factory):
    base = tmp_path_factory.mktemp("part")
    corpus_path = str(base / "corpus.parquet")
    pq.write_table(generate_corpus(4, 2), corpus_path)
    from codetoneo4j_ray.pipelines.partitioned import extract_partitioned

    out = str(base / "out")
    results = extract_partitioned(corpus_path, out, num_partitions=4)
    return {"corpus": corpus_path, "out": out, "results": results}


def test_all_partitions_have_manifests(part_out):
    results = part_out["results"]
    assert len(results) == 4
    total = sum(r["records"] for r in results.values())
    assert total > 0
    assert all("wall_sec" in r or r.get("skipped") for r in results.values())


def test_repos_do_not_straddle_partitions(part_out):
    import ray.data

    from codetoneo4j_ray.pipelines.partitioned import repo_partition

    for i in range(4):
        path = f"{part_out['out']}/records/part-{i:05d}"
        try:
            repos = set(
                r["repo"]
                for r in ray.data.read_parquet(path)
                .select_columns(["repo"])
                .take_all()
            )
        except FileNotFoundError:
            continue
        assert all(repo_partition(r, 4) == i for r in repos)


def test_resume_skips_completed(part_out):
    from codetoneo4j_ray.pipelines.partitioned import extract_partitioned

    again = extract_partitioned(part_out["corpus"], part_out["out"], num_partitions=4)
    assert all(r.get("skipped") for r in again.values())


def test_purge_and_reprocess_one_partition(part_out):
    from codetoneo4j_ray.pipelines.partitioned import (
        extract_partitioned,
        purge_partition,
    )

    purge_partition(part_out["out"], 2)
    again = extract_partitioned(part_out["corpus"], part_out["out"], num_partitions=4)
    assert not again["part-00002"].get("skipped")
    assert all(
        again[f"part-{i:05d}"].get("skipped") for i in (0, 1, 3)
    )


def test_graph_from_partitioned_records(part_out):
    from codetoneo4j_ray.pipelines.build_graph import graph_from_records
    from codetoneo4j_ray.pipelines.partitioned import records_dataset

    records = records_dataset(part_out["out"])
    nodes = graph_from_records(records)["nodes"]
    assert nodes.count() > 100


def test_corpus_pinned_once_and_not_on_resume(part_out, monkeypatch):
    """The corpus is pinned once per run, on the first partition that is
    not skipped; a fully resumed run reads nothing."""
    from codetoneo4j_ray.pipelines import partitioned

    calls = []
    orig = partitioned.read_corpus_pinned

    def counting(path):
        calls.append(path)
        return orig(path)

    monkeypatch.setattr(partitioned, "read_corpus_pinned", counting)
    corpus, out = part_out["corpus"], part_out["out"]
    again = partitioned.extract_partitioned(corpus, out, num_partitions=4)
    assert all(r.get("skipped") for r in again.values())
    assert calls == []

    partitioned.purge_partition(out, 0)
    partitioned.purge_partition(out, 3)
    again = partitioned.extract_partitioned(corpus, out, num_partitions=4)
    assert [p for p, r in again.items() if not r.get("skipped")] == [
        "part-00000", "part-00003"
    ]
    assert calls == [corpus]
