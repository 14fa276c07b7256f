"""Stage 1 — extraction over the corpus.

Two passes, neither of which shuffles file content:

  pass A  ``build_type_index``  — a cheap declaration skim over C# rows
          producing the repo-wide type index (types, namespaces, global
          usings). The index is metadata (≪ content) and is broadcast to
          pass B via ``ray.put`` — the reference gets the same knowledge
          from the Roslyn Compilation (``SolutionProcessor.cs:256-279``).

  pass B  ``extract_records``   — a task ``map_batches`` running every
          handler; emits one unified Arrow record stream tagged
          ``rec_type ∈ {symbol, mention, file, url}`` so a single parse
          produces all outputs (split later by cheap filters).

On the partitioned path (``pipelines.build_graph.resolve_mode``)
``extract_records_partitioned`` runs both passes in one repo-keyed
bucket exchange instead: each bucket assembles only its repos' type
indices (the same key stage 2's linking reuses), so no index is
broadcast.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray
import ray.data

from codetoneo4j_ray.config import is_excluded, resolve_handler
from codetoneo4j_ray.extractors import extract_file
from codetoneo4j_ray.extractors.accessibility import DEFAULT_MIN_ACCESSIBILITY
from codetoneo4j_ray.extractors.csharp.extractor import skim_file
from codetoneo4j_ray.extractors.csharp.types import RepoTypeIndex
from codetoneo4j_ray.functions.text import sha256_hex
from codetoneo4j_ray.stages.link import REPO_SALT, _cached_get

# Unified stage-1 record schema (symbol ∪ mention ∪ file ∪ url columns).
RECORD_SCHEMA = pa.schema(
    [
        ("rec_type", pa.string()),
        # symbol columns
        ("key", pa.string()),
        ("name", pa.string()),
        ("kind", pa.string()),
        ("class", pa.string()),
        ("fqn", pa.string()),
        ("accessibility", pa.string()),
        ("file_key", pa.string()),
        ("path", pa.string()),
        ("start_line", pa.int32()),
        ("end_line", pa.int32()),
        ("documentation", pa.string()),
        ("comments", pa.string()),
        ("namespace", pa.string()),
        ("version", pa.string()),
        ("language", pa.string()),
        ("technology", pa.string()),
        ("repo", pa.string()),
        # mention columns
        ("subj", pa.string()),
        ("pred", pa.string()),
        ("obj", pa.string()),
        ("ctx_kind", pa.string()),
        ("ctx_name", pa.string()),
        ("ctx_receiver", pa.string()),
        ("ctx_argc", pa.int32()),
        ("ctx_namespace", pa.string()),
        ("ctx_usings", pa.string()),
        # file columns
        ("sha256", pa.string()),
        ("file_name", pa.string()),
        ("commit", pa.string()),
        # url columns
        ("dep_key", pa.string()),
        ("url_key", pa.string()),
    ]
)

# shared empty index for repos the pass-A skim produced no rows for
_NO_SKIM_INDEX = RepoTypeIndex()

_TYPE_INDEX_SCHEMA = pa.schema(
    [
        ("rec_type", pa.string()),       # "type" | "global_using"
        ("repo", pa.string()),
        ("full_name", pa.string()),
        ("arity", pa.int32()),
        ("is_value", pa.bool_()),
        ("kind", pa.string()),
        ("bases", pa.string()),
        ("type_params", pa.string()),
        ("members", pa.string()),
        ("file_key", pa.string()),
        ("text", pa.string()),
        ("is_static", pa.bool_()),
        ("alias", pa.string()),
    ]
)


def _is_csharp_row(path: str) -> bool:
    return path.endswith(".cs") and not is_excluded(path)


def _manifest_name(path: str, content: str) -> tuple[str, str | None] | None:
    """(ecosystem, declared name|None) for project-root manifest rows.

    package.json name per analyzer.ts:55-60; pubspec.yaml first 'name:'
    line per analyzer_service.dart:109-114. Unparseable manifests still
    mark a root (name None → basename fallback at the use site)."""
    base = path.rsplit("/", 1)[-1].lower()
    if base == "package.json":
        try:
            import json

            name = json.loads(content).get("name")
        except Exception:
            name = None
        return "npm", (name if isinstance(name, str) and name else None)
    if base == "pubspec.yaml":
        for line in content.splitlines():
            t = line.strip()
            if t.startswith("name:"):
                return "pub", (t[len("name:"):].strip() or None)
        return "pub", None
    return None


def skim_batch(batch: pa.Table) -> pa.Table:
    """Pass-A batch fn: C# declaration skim + project-root manifest
    markers → type-index rows."""
    from codetoneo4j_ray.functions.text import dirname

    rows: list[dict] = []
    repos = batch["repo"].to_pylist()
    paths = batch["path"].to_pylist()
    contents = batch["content"].to_pylist()
    for repo, path, content in zip(repos, paths, contents):
        if is_excluded(path):
            continue
        m = _manifest_name(path, content)
        if m is not None:
            rows.append(
                {"rec_type": "pkg_root", "repo": repo, "kind": m[0],
                 "full_name": m[1], "file_key": dirname(path)}
            )
            continue
        if not path.endswith(".cs"):
            continue
        type_rows, using_rows = skim_file(repo, path, content)
        for r in type_rows:
            r["rec_type"] = "type"
            rows.append(r)
        for r in using_rows:
            r["rec_type"] = "global_using"
            rows.append(r)
    return pa.Table.from_pylist(rows, schema=_TYPE_INDEX_SCHEMA)


def _assemble_type_indices(df) -> dict[str, RepoTypeIndex]:
    """Per-repo type indices from pass-A rows (a DataFrame in the
    ``_TYPE_INDEX_SCHEMA`` columns)."""
    from codetoneo4j_ray.extractors.csharp.extractor import parse_member_types
    from codetoneo4j_ray.extractors.csharp.types import TypeInfo

    # deterministic fragment/using order regardless of shuffle arrival
    # (partial-class merge + first-matching-using resolution); type rows
    # carry no file, so fragments of one type order by their content
    df = df.sort_values(
        ["repo", "rec_type", "full_name", "arity", "file_key", "text",
         "bases", "type_params", "members"],
        kind="stable",
    )
    out: dict[str, RepoTypeIndex] = {}
    for repo, g in df.groupby("repo", sort=False):
        idx = out[repo] = RepoTypeIndex()
        for rec, full, arity, isval, kind, bases, tparams, mem, fk, text in zip(
            g["rec_type"].to_numpy(), g["full_name"].to_numpy(),
            g["arity"].to_numpy(), g["is_value"].to_numpy(),
            g["kind"].to_numpy(), g["bases"].to_numpy(),
            g["type_params"].to_numpy(), g["members"].to_numpy(),
            g["file_key"].to_numpy(), g["text"].to_numpy(),
        ):
            if rec == "type":
                idx.add_type(
                    TypeInfo(
                        full, int(arity), bool(isval), kind,
                        tuple(b for b in bases.split(";") if b),
                        tuple(p for p in tparams.split(";") if p),
                        parse_member_types(mem),
                    )
                )
            elif rec == "pkg_root":
                roots = idx.npm_roots if kind == "npm" else idx.pub_roots
                roots[fk] = full if isinstance(full, str) else None
            else:
                idx.global_usings.append((fk, text))
    return out


def build_type_index(corpus: ray.data.Dataset) -> dict[str, RepoTypeIndex]:
    """Run pass A and assemble per-repo indices on the driver.

    The result is metadata-sized (one row per declared type / global
    using); ``take_all`` here is bounded and intentional. The
    partitioned path (``extract_records_partitioned``) keeps it a
    Dataset hash-partitioned by repo instead.
    """
    import pickle

    import pandas as pd

    from codetoneo4j_ray.stages.bucketing import bucketed_apply_tasks

    idx_rows = corpus.map_batches(skim_batch, batch_format="pyarrow")

    # assemble per-repo indices INSIDE bucketed tasks (repo-partitioned —
    # the pipeline-wide key); the driver only unpickles one blob per repo
    def assemble(df: pd.DataFrame) -> pd.DataFrame:
        indices = _assemble_type_indices(df)
        return pd.DataFrame({"repo": list(indices),
                             "blob": [pickle.dumps(i) for i in indices.values()]})

    blobs = bucketed_apply_tasks(idx_rows, ["repo"], assemble).take_all()
    return {r["repo"]: pickle.loads(r["blob"]) for r in blobs}


def _records_table(
    repos, paths, commits, contents,
    indices: dict[str, RepoTypeIndex],
    min_accessibility: str,
    pkg_meta: dict | None,
    no_key: bool,
) -> pa.Table:
    """Run every handler over parallel corpus columns; one unified
    record table (the per-file assembly both stage-1 paths share)."""
    rows: list[dict] = []
    for repo, path, commit, content in zip(repos, paths, commits, contents):
        # repos with no skim rows get the shared empty index rather
        # than None: in pipeline context "no manifest anywhere" must
        # mean the TS/Dart handlers SKIP analysis (the reference's
        # no-project-root behavior), not the unit-test fallback
        ctx = extract_file(
            repo, path, content, min_accessibility,
            indices.get(repo, _NO_SKIM_INDEX), pkg_meta, no_key,
        )
        if ctx is None:
            continue
        for s in ctx.symbols:
            s["rec_type"] = "symbol"
            rows.append(s)
        for m in ctx.mentions:
            m["rec_type"] = "mention"
            m["path"] = path
            rows.append(m)
        for u in ctx.urls:
            u["rec_type"] = "url"
            u["path"] = path
            rows.append(u)
        ns = ctx.file_namespace_override
        if ns is None and ctx.namespace:
            ns = ctx.namespace
        rows.append(
            {"rec_type": "file", "key": ctx.file_key, "path": path,
             "file_name": path.rsplit("/", 1)[-1], "namespace": ns,
             "sha256": sha256_hex(content), "language": ctx.language,
             "technology": ctx.technology, "repo": repo, "commit": commit}
        )
    # Arrow's native pylist ingestion: absent keys → null, one C++ pass
    # instead of len(schema) × len(rows) Python dict lookups (3× faster)
    return pa.Table.from_pylist(rows, schema=RECORD_SCHEMA)


def extract_batch(
    batch: pa.Table,
    index_ref=None,
    pkg_meta_ref=None,
    min_accessibility: str = DEFAULT_MIN_ACCESSIBILITY,
    no_key: bool = False,
) -> pa.Table:
    """Pass-B batch fn. The broadcast type index and package metadata
    are fetched once per worker through the stage-2 broadcast cache, so
    tasks keep the handler state warm without holding a CPU between
    batches the way a pool actor does."""
    indices = _cached_get(index_ref) if index_ref is not None else {}
    pkg_meta = _cached_get(pkg_meta_ref) if pkg_meta_ref is not None else None
    return _records_table(
        batch["repo"].to_pylist(), batch["path"].to_pylist(),
        batch["commit"].to_pylist(), batch["content"].to_pylist(),
        indices, min_accessibility, pkg_meta, no_key,
    )


def extract_records(
    corpus: ray.data.Dataset,
    indices: dict[str, RepoTypeIndex] | None = None,
    min_accessibility: str = DEFAULT_MIN_ACCESSIBILITY,
    batch_size: int | None = None,
    pkg_meta: dict | None = None,
    no_key: bool = False,
) -> ray.data.Dataset:
    """corpus → unified record stream (task ``map_batches``, Arrow in/out).

    ``batch_size=None`` extracts each corpus block as one batch, so the
    records keep the corpus read's block count (its CPU floor); a row
    count bundles small blocks until a batch has that many rows."""
    import functools

    return corpus.map_batches(
        functools.partial(
            extract_batch,
            index_ref=ray.put(indices) if indices is not None else None,
            pkg_meta_ref=ray.put(pkg_meta) if pkg_meta is not None else None,
            min_accessibility=min_accessibility,
            no_key=no_key,
        ),
        batch_format="pyarrow",
        batch_size=batch_size,
    )


def extract_records_partitioned(
    corpus: ray.data.Dataset,
    min_accessibility: str = DEFAULT_MIN_ACCESSIBILITY,
    pkg_meta: dict | None = None,
    no_key: bool = False,
    index_corpus: ray.data.Dataset | None = None,
) -> ray.data.Dataset:
    """Fully-partitioned stage 1: no driver-resident type index.

    Pass-A skim rows and corpus rows hash-partition by ``repo`` (the
    pipeline-wide key); each bucket assembles ONLY its repos' type
    indices and extracts its repos' files. Content crosses the wire once
    (the repo exchange) instead of zero, but no structure on any single
    node grows with corpus size — the multi-node configuration the
    broadcast index cannot provide (its dict grows with total declared
    types). The broadcast-index task path stays the single-node default.

    Each repo's corpus rows split into ``REPO_SALT`` sub-buckets by path
    hash, and the (metadata-sized) skim rows replicate to every
    sub-bucket of their repo: extraction — the priciest Python stage —
    would otherwise cap its parallelism at the repo count, with the
    largest repo gating the whole pass. Exact: each file is extracted once, in
    a bucket holding its repo's full type index.

    ``index_corpus`` (default: ``corpus``) is what the type indices are
    skimmed from: an incremental run extracts only its changed rows but
    indexes the whole corpus.
    """
    import pandas as pd

    from codetoneo4j_ray.stages.bucketing import (
        bucketed_apply_tasks,
        cluster_cpus,
    )

    pkg_ref = ray.put(pkg_meta) if pkg_meta is not None else None

    # shared union schema: corpus columns + type-index columns + __side
    def corpus_side(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        cols = {"__side": pa.array(["c"] * n, pa.string())}
        for name in ("repo", "path", "commit", "content"):
            cols[name] = batch[name]
        for fld in _TYPE_INDEX_SCHEMA:
            if fld.name not in cols:
                cols[fld.name] = pa.nulls(n, fld.type)
        t = pa.table(cols)
        h = pd.util.hash_array(
            np.asarray(batch["path"].to_pylist(), dtype=object),
            categorize=False,
        )
        return t.append_column(
            "__salt", pa.array((h % REPO_SALT).astype("int32"), pa.int32())
        )

    def index_side(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        cols = {"__side": pa.array(["i"] * n, pa.string())}
        for fld in _TYPE_INDEX_SCHEMA:
            cols[fld.name] = batch[fld.name]
        for name in ("path", "commit", "content"):
            if name not in cols:
                cols[name] = pa.nulls(n, pa.string())
        t = pa.table(cols)
        # replicate skim rows into every salted bucket of their repo
        reps = [
            t.append_column("__salt", pa.array([k] * n, pa.int32()))
            for k in range(REPO_SALT)
        ]
        return pa.concat_tables(reps)

    if index_corpus is None:
        index_corpus = corpus
    idx_rows = index_corpus.map_batches(
        skim_batch, batch_format="pyarrow"
    ).map_batches(
        index_side, batch_format="pyarrow"
    )
    both = corpus.map_batches(corpus_side, batch_format="pyarrow").union(idx_rows)

    def extract_bucket(df: pd.DataFrame) -> pd.DataFrame:
        meta = ray.get(pkg_ref) if pkg_ref is not None else None
        indices = _assemble_type_indices(df[df["__side"] == "i"])
        c_part = df[df["__side"] == "c"]
        # pandas out for the bucket machinery; to_schema restores types
        return _records_table(
            c_part["repo"], c_part["path"], c_part["commit"],
            c_part["content"], indices, min_accessibility, meta, no_key,
        ).to_pandas()

    def to_schema(batch: pa.Table) -> pa.Table:
        # pandas bucket outputs back to the canonical arrow record schema
        cols = {}
        for fld in RECORD_SCHEMA:
            if fld.name in batch.column_names:
                col = batch[fld.name]
                col = (
                    pa.nulls(batch.num_rows, fld.type)
                    if pa.types.is_null(col.type)
                    else col.combine_chunks().cast(fld.type)
                )
            else:
                col = pa.nulls(batch.num_rows, fld.type)
            cols[fld.name] = col
        return pa.table(cols, schema=RECORD_SCHEMA)

    # extraction is CPU-bound: at least one bucket per CPU
    return bucketed_apply_tasks(
        both, ["repo", "__salt"], extract_bucket, min_buckets=cluster_cpus()
    ).map_batches(to_schema, batch_format="pyarrow")


def load_pkg_meta(packages_path: str) -> dict:
    """Read the package-metadata side table into the per-ecosystem lookup
    handlers consult: ``nuget`` keyed (name_lower, version) — the nuspec
    cache resolves exact versions (CsprojHandler.cs:157-200) — and
    ``npm`` keyed by name — node_modules holds the already-resolved
    version (PackageJsonHandler.cs:169-199)."""
    import pyarrow.parquet as pq

    t = pq.read_table(packages_path)
    cols = t.column_names
    ecosystems = (
        t["ecosystem"].to_pylist() if "ecosystem" in cols
        else ["nuget"] * t.num_rows
    )
    out: dict = {"nuget": {}, "npm": {}}
    for eco, name, version, purl, rurl in zip(
        ecosystems, t["name"].to_pylist(), t["version"].to_pylist(),
        t["project_url"].to_pylist(), t["repository_url"].to_pylist(),
    ):
        if eco == "npm":
            out["npm"][name] = (purl, rurl)
        else:
            out["nuget"][(name.lower(), version)] = (purl, rurl)
    return out


def has_handler(path: str) -> bool:
    return not is_excluded(path) and resolve_handler(path) is not None
