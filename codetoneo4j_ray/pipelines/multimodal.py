"""Multimodal column plumbing (decode stubbed — no image/audio libs here).

Pattern for 100 TB media pipelines: opaque ``binary`` payload column +
typed metadata, small batches (payload × batch_size × concurrent tasks
must fit the worker heap), decode/feature stages as plain batch
functions that run in Ray Data's task pool. A real codec would load
once per worker process (behind ``functools.cache``) where
:func:`media_decode` calls ``_fake_decode``; this container has no
imaging libraries, so the decode is a deterministic fake over the
payload bytes — the Ray-side plumbing (schema, batch sizing, output
layout) is real and tested.
"""

from __future__ import annotations

import pyarrow as pa
import ray.data

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


def media_from_documents(sf_dir: str) -> ray.data.Dataset:
    """Wrap documents.text as opaque binary payloads (media_id=doc_id)."""

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

    return ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    ).map_batches(wrap, batch_format="pyarrow")


def _decoded(sf_dir: str) -> ray.data.Dataset:
    """documents → binary payloads → decode (shared by every media query
    so batch sizing lives in one place).

    batch_size kept small: with real media each row is MBs and a batch ×
    concurrent tasks must fit in the worker heap."""
    return media_from_documents(sf_dir).map_batches(
        media_decode, batch_format="pyarrow", batch_size=64
    )


def media_decode_meta(sf_dir: str) -> ray.data.Dataset:
    """documents → binary payloads → decode → typed metadata."""
    return _decoded(sf_dir).sort("media_id")


def media_frame_sample(sf_dir: str, stride: int = 2) -> ray.data.Dataset:
    """Decode → frame-sample expansion: every ``stride``-th frame index
    becomes its own row with a deterministic per-frame feature digest
    (the real pipeline would emit a decoded frame tensor / embedding
    here). The expansion is the flat-map shape of video pipelines: row
    counts grow by the sample factor, so it runs AFTER the decode and
    before any shuffle, letting the streaming executor pipeline the
    fan-out."""
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

    return (
        _decoded(sf_dir)
        .map_batches(sample, batch_format="pyarrow")
        .sort(["media_id", "frame_idx"])
    )
