"""Stage 4 — structural edges and the node/file output projections.

Structural (flush-time) edges the reference creates outside the
relBuffer, reproduced here from the record stream:

  Project HAS_FILE File      — UpsertFile.cypher:18-24
  File    DECLARES Symbol    — UpsertSymbols.cypher:20-22 (from s.fileKey)
  Symbol  HAS_TAG  Tag       — Neo4jFlushService.cs:90-94 + UpsertTags.cypher
  Dep     HAS_URL  Url       — UpsertDependencyUrls.cypher:7-8
  Project DEPENDS_ON Dep     — UpsertDependencies.cypher:8-13
                               (DependencyIngestor analog: handler pkg deps)
"""

from __future__ import annotations

import pyarrow as pa

from codetoneo4j_ray.functions.tags import parse_namespace_tags
from codetoneo4j_ray.functions.text import truncate_indexed
from codetoneo4j_ray.schema import (
    DECLARES,
    DEPENDS_ON,
    HAS_FILE,
    HAS_TAG,
    HAS_URL,
    TRIPLE_SCHEMA,
)

_TRIPLE_COLS = ["subj", "pred", "obj"]


def _triples(subjs, preds, objs) -> pa.Table:
    return pa.table(
        {
            "subj": pa.array(subjs, pa.string()),
            "pred": pa.array(preds, pa.string()),
            "obj": pa.array(objs, pa.string()),
        },
        schema=TRIPLE_SCHEMA,
    )


def structural_edges_batch(batch: pa.Table, include_project: bool = True) -> pa.Table:
    """records batch → structural triples (vector-ish, one pass).

    ``include_project=False`` reproduces ``--no-key``: with a null
    repoKey the UpsertFile/UpsertDependencies cyphers' OPTIONAL MATCH on
    the Project node finds nothing, so no Project HAS_FILE / Project
    DEPENDS_ON edges are created (UpsertFile.cypher:18-24)."""
    rec_type = batch["rec_type"].to_pylist()
    keys = batch["key"].to_pylist()
    file_keys = batch["file_key"].to_pylist()
    repos = batch["repo"].to_pylist()
    namespaces = batch["namespace"].to_pylist()
    kinds = batch["kind"].to_pylist()
    dep_keys = batch["dep_key"].to_pylist()
    url_keys = batch["url_key"].to_pylist()
    subjs: list[str] = []
    preds: list[str] = []
    objs: list[str] = []
    # a batch holds many symbols of few namespaces: parse each once
    tags_of: dict[str, list[str]] = {}
    for i, rt in enumerate(rec_type):
        if rt == "symbol":
            # File DECLARES Symbol (every raw row; MERGE dedups later)
            subjs.append(file_keys[i])
            preds.append(DECLARES)
            objs.append(keys[i])
            ns = namespaces[i]
            if ns and ns.strip():
                tags = tags_of.get(ns)
                if tags is None:
                    tags = tags_of[ns] = parse_namespace_tags(ns)
                for tag in tags:
                    subjs.append(keys[i])
                    preds.append(HAS_TAG)
                    objs.append(tag)
            if kinds[i] == "Dependency" and include_project:
                # Project DEPENDS_ON Dependency (DependencyIngestor analog)
                subjs.append(repos[i].lower())
                preds.append(DEPENDS_ON)
                objs.append(keys[i])
        elif rt == "file":
            if include_project:
                subjs.append(repos[i].lower())
                preds.append(HAS_FILE)
                objs.append(keys[i])
        elif rt == "url":
            subjs.append(dep_keys[i])
            preds.append(HAS_URL)
            objs.append(url_keys[i])
    return _triples(subjs, preds, objs)


_NODE_COLS = [
    "key", "name", "kind", "class", "fqn", "accessibility", "file_key",
    "path", "start_line", "end_line", "documentation", "comments",
    "namespace", "version", "language", "technology", "repo",
]
_FILE_COLS = [
    "key", "path", "file_name", "namespace", "sha256", "language",
    "technology", "repo", "commit",
]


def finalize_nodes(symbols: pa.Table) -> pa.Table:
    """Symbol rows → node rows: the 8000-char indexed-string truncation
    (Neo4jFlushService.cs:76-77) and the output projection."""
    out = symbols.select(_NODE_COLS)
    for col in ("documentation", "comments"):
        out = out.set_column(
            out.schema.get_field_index(col), col,
            pa.array([truncate_indexed(v) for v in out[col].to_pylist()],
                     pa.string()),
        )
    return out


def finalize_files(files: pa.Table) -> pa.Table:
    """File rows → the files output's projection."""
    return files.select(_FILE_COLS)
