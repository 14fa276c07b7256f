"""Multimodal column plumbing (decode stubbed — no image/audio libs here).

Pattern for 100 TB media pipelines: opaque ``binary`` payload column +
typed metadata, small decode slices (payload × slice rows × concurrent
tasks must fit the worker heap), decode/feature stages as plain batch
functions that run inside the raw tasks of one sorted key-range fold
(``canonicalize.sorted_fold``) over the payloads' pinned read blocks,
with no Ray Data execution. A real codec would load
once per worker process (behind ``functools.cache``) where
:func:`media_decode` calls ``_fake_decode``; this container has no
imaging libraries, so the decode is a deterministic fake over the
payload bytes — the Ray-side plumbing (schema, slice sizing, output
layout) is real and tested.
"""

from __future__ import annotations

import pyarrow as pa
import ray.data

from codetoneo4j_ray.stages.bucketing import Blocks, plan_reads, read_blocks
from codetoneo4j_ray.stages.canonicalize import sorted_fold

MEDIA_SCHEMA = pa.schema(
    [
        ("media_id", pa.int64()),
        ("payload", pa.binary()),
        ("media_type", pa.string()),
    ]
)


def _fake_decode(payload: bytes) -> dict:
    """Deterministic stand-in for an image/audio decode.

    A real implementation would raise NotImplementedError without the
    codec; the fake keeps the stage testable and oracle-checkable."""
    n = len(payload)
    return {
        "n_bytes": n,
        "width": n % 640,
        "height": (n * 7) % 480,
        "n_frames": n % 16,
    }


def media_decode(batch: pa.Table) -> pa.Table:
    """Decode stage: one call per small batch of binary payloads →
    typed metadata."""
    metas = [_fake_decode(p) for p in batch["payload"].to_pylist()]
    return pa.table(
        {
            "media_id": batch["media_id"].cast(pa.int64()),
            **{c: pa.array([m[c] for m in metas], pa.int64())
               for c in ("n_bytes", "width", "height", "n_frames")},
        }
    )


def media_from_documents(sf_dir: str) -> Blocks:
    """Wrap documents.text as opaque binary payloads (media_id=doc_id),
    pinned by one raw read task per block."""

    def wrap(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        texts = batch["text"].to_pylist()
        return pa.table(
            {
                "media_id": pa.array(ids, pa.int64()),
                "payload": pa.array([t.encode("utf-8") for t in texts], pa.binary()),
                "media_type": pa.array(["image/fake"] * len(ids), pa.string()),
            },
            schema=MEDIA_SCHEMA,
        )

    return read_blocks(plan_reads(f"{sf_dir}/documents.parquet",
                                  columns=["doc_id", "text"]), wrap)


def _decoded(table: pa.Table) -> pa.Table:
    """Decode in 64-row slices (shared by every media query so slice
    sizing lives in one place): with real media each row is MBs and a
    slice × concurrent tasks must fit in the worker heap."""
    return pa.concat_tables([media_decode(table.slice(i, 64))
                             for i in range(0, table.num_rows, 64)])


def media_decode_meta(sf_dir: str) -> ray.data.Dataset:
    """documents → binary payloads → decode → typed metadata."""
    return sorted_fold(media_from_documents(sf_dir), ["media_id"],
                       _decoded).dataset()


def media_frame_sample(sf_dir: str, stride: int = 2) -> ray.data.Dataset:
    """Decode → frame-sample expansion: every ``stride``-th frame index
    becomes its own row with a deterministic per-frame feature digest
    (the real pipeline would emit a decoded frame tensor / embedding
    here). The expansion is the flat-map shape of video pipelines: row
    counts grow by the sample factor, so it runs AFTER the exchange,
    inside each key range's task, right after that range's decode."""
    import hashlib

    def sample(batch: pa.Table) -> pa.Table:
        out_id: list[int] = []
        out_idx: list[int] = []
        out_md5: list[str] = []
        for mid, nb, nf in zip(
            batch["media_id"].to_pylist(),
            batch["n_bytes"].to_pylist(),
            batch["n_frames"].to_pylist(),
        ):
            for i in range(0, nf, stride):
                out_id.append(mid)
                out_idx.append(i)
                out_md5.append(
                    hashlib.md5(f"{mid}:{i}:{nb}".encode()).hexdigest()
                )
        return pa.table(
            {
                "media_id": pa.array(out_id, pa.int64()),
                "frame_idx": pa.array(out_idx, pa.int64()),
                "frame_md5": pa.array(out_md5, pa.string()),
            }
        )

    return sorted_fold(media_from_documents(sf_dir), ["media_id", "frame_idx"],
                       lambda t: sample(_decoded(t))).dataset()
