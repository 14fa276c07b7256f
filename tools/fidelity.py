"""Fidelity indicator on real code, per language.

Runs the full stage-1 + stage-2 pipeline over the reference's own
source trees (C#: src/, TS: tools/ts-analyzer/src, Dart:
tools/dart-analyzer/lib+bin) and reports, for each:

* files / symbols / raw INVOKES mentions extracted;
* resolved-INVOKES %: the fraction of INVOKES candidate mentions that
  survive resolution + the both-endpoint check against repo-declared
  symbols — the rest target framework/SDK members, which the
  reference's MergeRelationships also silently drops (SURVEY §1.5).

The three languages share ONE definition, so the numbers are
comparable: the C# figure contextualizes the Dart/TS heuristic deltas
(capitalized-callee ctor detection, no re-export resolution) the same
way BASELINE.md's C# 41% has since round 2. Usage:

    python tools/fidelity.py            # all three trees, JSON line
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

# manifests ride along: the TS/Dart handlers analyze only inside a
# project root (package.json / pubspec.yaml), matching the reference's
# no-project-root skip behavior — without them extraction is (correctly)
# file-hash-only
TREES = {
    "csharp": ("/root/reference/src", (".cs",)),
    "typescript": ("/root/reference/tools/ts-analyzer",
                   (".ts", "package.json")),
    "dart": ("/root/reference/tools/dart-analyzer",
             (".dart", "pubspec.yaml")),
}


def _corpus_rows(root: str, exts: tuple[str, ...]) -> list[dict]:
    rows = []
    for r, _dirs, files in os.walk(root):
        for f in sorted(files):
            if not f.endswith(exts):
                continue
            p = os.path.join(r, f)
            try:
                with open(p, encoding="utf-8", errors="replace") as fh:
                    content = fh.read()
            except OSError:
                continue
            rows.append(
                {
                    "repo": "ref",
                    "path": os.path.relpath(p, root),
                    "commit": "HEAD",
                    "lang": exts[0].lstrip("."),
                    "content": content,
                }
            )
    return rows


def measure(root: str, exts: tuple[str, ...]) -> dict:
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray

    from codetoneo4j_ray.pipelines.build_graph import extract_corpus
    from codetoneo4j_ray.stages.bucketing import Blocks, build_bucket_store
    from codetoneo4j_ray.stages.link import (
        MENTION_COLS,
        _index_blobs,
        index_rows,
        internal_mask,
        link_block,
    )

    rows = _corpus_rows(root, exts)
    corpus = Blocks([ray.put(pa.Table.from_pylist(rows))])
    # stage 1 writes its type index beside the records, as in a build
    with tempfile.TemporaryDirectory() as out:
        records, _ = extract_corpus(corpus, out, "fidelity")
    # stage 2 as the build runs it: the per-repo index store, then
    # steps A and B over the mentions (a tree's records fit the driver)
    table = records.table()
    index = index_rows(table)
    store = build_bucket_store(
        Blocks([ray.put(index)], index.num_rows, index.nbytes), ["repo"],
        _index_blobs)
    rt = table["rec_type"]
    mentions = table.filter(pc.equal(rt, "mention"))
    mentions = mentions.filter(pc.invert(internal_mask(mentions)))

    def count_invokes(t: pa.Table) -> int:
        return pc.sum(pc.match_substring(t["pred"], "INVOKES")).as_py() or 0

    n_raw = count_invokes(mentions)
    n_resolved = count_invokes(link_block(mentions.select(MENTION_COLS),
                                          store))
    return {
        "files": len(rows),
        "symbols": pc.sum(pc.equal(rt, "symbol")).as_py() or 0,
        "invokes_raw": n_raw,
        "invokes_resolved": n_resolved,
        "resolved_pct": round(100.0 * n_resolved / n_raw, 1) if n_raw else None,
    }


def main() -> int:
    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False,
                 logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    sys.path.insert(0, "/root/repo")

    out = {}
    for lang, (root, exts) in TREES.items():
        if not os.path.isdir(root):
            out[lang] = {"error": f"missing tree {root}"}
            continue
        out[lang] = measure(root, exts)
    print(json.dumps(out))
    ray.shutdown()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
