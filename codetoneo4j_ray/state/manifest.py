"""Per-stage / per-partition checkpoint manifests.

The reference has no intra-run checkpointing (its ``--diff-base`` is a
coarse restart-with-filter, ``SolutionProcessor.cs:82-97,301-324``). For
a 10^12-file batch run the north rule requires per-partition lineage +
metrics and resume-by-skip; this module implements it:

  out_dir/
    records/ type_index/ …       (stage-1 checkpoint, pass-A rows)
    nodes/ edges/ files/ …       (graph outputs)
    <stage>.manifest.json        {stage, fingerprint, completed_at, metrics}

for the stages ``records``, ``type_index``, ``graph`` and, in the
query KG cache, ``kgcache``. A stage is skipped on re-run when its
manifest exists and its input fingerprint (file names + sizes +
pipeline config) still matches. Writes are atomic (tmp file + rename),
and a stage's manifest is dropped before its outputs are rewritten.
"""

from __future__ import annotations

import hashlib
import json
import os
import time


def corpus_fingerprint(input_path: str, config: dict | None = None) -> str:
    """Fingerprint of the input parquet file set + pipeline config."""
    h = hashlib.sha256()
    paths: list[str] = []
    if os.path.isdir(input_path):
        for root, _dirs, files in os.walk(input_path):
            for f in sorted(files):
                if f.endswith(".parquet"):
                    paths.append(os.path.join(root, f))
    else:
        paths.append(input_path)
    for p in sorted(paths):
        st = os.stat(p)
        # nanosecond mtime + parquet footer row count: a file rewritten
        # in place within the same second at identical byte size still
        # changes the fingerprint (whole-second mtime alone does not)
        try:
            import pyarrow.parquet as pq

            rows = pq.ParquetFile(p).metadata.num_rows
        except Exception:  # noqa: BLE001 — non-parquet input
            rows = -1
        h.update(f"{p}:{st.st_size}:{st.st_mtime_ns}:{rows}".encode())
    if config:
        h.update(json.dumps(config, sort_keys=True).encode())
    return h.hexdigest()


def _manifest_path(out_dir: str, stage: str) -> str:
    return os.path.join(out_dir, f"{stage}.manifest.json")


def write_manifest(out_dir: str, stage: str, fingerprint: str, metrics: dict) -> None:
    os.makedirs(out_dir, exist_ok=True)
    payload = {
        "stage": stage,
        "fingerprint": fingerprint,
        "completed_at": time.time(),
        "metrics": metrics,
    }
    path = _manifest_path(out_dir, stage)
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(payload, f, indent=2)
    os.replace(tmp, path)


def read_manifest(out_dir: str, stage: str) -> dict | None:
    path = _manifest_path(out_dir, stage)
    if not os.path.exists(path):
        return None
    try:
        with open(path) as f:
            return json.load(f)
    except (json.JSONDecodeError, OSError):
        return None


def remove_manifest(out_dir: str, stage: str) -> None:
    """Drop ``stage``'s manifest (if any) before its outputs are
    rewritten, so no later run takes them for complete."""
    try:
        os.remove(_manifest_path(out_dir, stage))
    except FileNotFoundError:
        pass


def stage_is_complete(out_dir: str, stage: str, fingerprint: str) -> bool:
    m = read_manifest(out_dir, stage)
    return m is not None and m.get("fingerprint") == fingerprint
