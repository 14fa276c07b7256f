"""Stage 1 — extraction over the corpus, as raw Ray tasks over the
corpus blocks (``pipelines.build_graph.read_corpus_blocks``: pinned
table refs, or read slices each task reads itself). Two passes, neither
of which shuffles file content:

  pass A  ``build_type_index``  — one skim task per corpus block: a cheap
          declaration skim over C# rows (plus project-root manifest
          markers) producing type-index rows, reduced into a repo-keyed
          bucket store of per-repo indices. The index is metadata (≪
          content) and never reaches the driver — the reference gets
          the same knowledge from the Roslyn Compilation of one solution
          (``SolutionProcessor.cs:256-279``; here a repo is a solution).
          An incremental build's skim task also returns the block's
          (repo, path, sha256) rows, so one pass over the content feeds
          the diff too.

  pass B  ``extract_blocks``    — one extraction task per corpus block
          running every handler with the type indices of the block's
          repos, loaded from their buckets; emits one unified Arrow
          record table per block tagged ``rec_type ∈ {symbol, mention,
          file, url}`` so a single parse produces all outputs (split
          later by cheap filters). An incremental build's changed-key
          filter runs inside the task.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc
import ray

from codetoneo4j_ray.config import is_excluded, resolve_handler
from codetoneo4j_ray.extractors import extract_file
from codetoneo4j_ray.extractors.accessibility import DEFAULT_MIN_ACCESSIBILITY
from codetoneo4j_ray.extractors.csharp.extractor import skim_file
from codetoneo4j_ray.extractors.csharp.types import RepoTypeIndex
from codetoneo4j_ray.functions.text import sha256_hex
from codetoneo4j_ray.stages.bucketing import (
    Blocks,
    BucketStore,
    blob_frame,
    build_bucket_store,
    load_block,
    load_blobs,
)
from codetoneo4j_ray.stages.link import _cached_get

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


def joined_keys(keys) -> pa.Array:
    """(repo, path) pairs → Arrow string array for vectorized pc.is_in."""
    return pa.array([f"{r}\x00{p}" for r, p in keys], pa.string())


def _join_cols(table: pa.Table) -> pa.Array:
    return pc.binary_join_element_wise(table["repo"], table["path"], "\x00")


def filter_keys(table: pa.Table, keys, keep: bool) -> pa.Table:
    """The rows of ``table`` whose (repo, path) is (``keep``) or is not
    in ``keys``: a :func:`joined_keys` array, or a ref to one (fetched
    once per worker through the broadcast cache); None keeps every
    row."""
    if keys is None:
        return table
    if isinstance(keys, ray.ObjectRef):
        keys = _cached_get(keys)
    mask = pc.is_in(_join_cols(table), value_set=keys)
    return table.filter(mask if keep else pc.invert(mask))


@ray.remote(num_returns=3)
def _skim_block(block, extra):
    """Pass A over one corpus block: its type-index rows, ``extra(block)``
    (an empty table without ``extra``), and the (rows, bytes) of both."""
    block = load_block(block)
    skim = skim_batch(block)
    more = extra(block) if extra is not None else pa.table({})
    return skim, more, ((skim.num_rows, skim.nbytes),
                        (more.num_rows, more.nbytes))


def _assemble_blobs(df):
    """One repo bucket of pass-A rows → (repo, pickled RepoTypeIndex)."""
    return blob_frame("repo", _assemble_type_indices(df))


def build_type_index(corpus: Blocks, extra=None):
    """Pass A: one skim task per corpus block, its rows reduced into a
    repo-keyed :class:`~codetoneo4j_ray.stages.bucketing.BucketStore`
    of per-repo type indices (repo is the pipeline-wide key), sized
    from the rows' bytes. The store is metadata-sized (one row per
    declared type / global using) and the driver never fetches it:
    each pass-B task loads only its block's repos. ``extra(block)``
    runs in the same tasks over the same blocks (the incremental
    diff's current side), so one pass over the content feeds both.

    Returns (the type-index store, ``extra``'s rows as
    :class:`Blocks`); every skim and assembly task has finished."""
    refs = [_skim_block.remote(b, extra) for b in corpus.refs]
    sizes = ray.get([s for _, _, s in refs])
    skims = Blocks.of([r[0] for r in refs], [s[0] for s in sizes])
    more = Blocks.of([r[1] for r in refs], [s[1] for s in sizes])
    return build_bucket_store(skims, ["repo"], _assemble_blobs), more


def _records_table(
    repos, paths, commits, contents,
    indices: dict[str, RepoTypeIndex],
    min_accessibility: str,
    pkg_meta: dict | None,
    no_key: bool,
) -> pa.Table:
    """Run every handler over parallel corpus columns; one unified
    record table."""
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


@ray.remote(num_returns=2)
def _extract_block(block, type_store: BucketStore, pkg_refs: list,
                   min_accessibility: str, no_key: bool, changed):
    """Pass B over one corpus block (its ``changed`` rows only, when
    given): the records table and its (rows, bytes). The type indices
    of the block's repos come from ``type_store``'s buckets; the
    package metadata (in ``pkg_refs``, a list so Ray passes the ref;
    empty without) is fetched once per worker through the broadcast
    cache."""
    block = filter_keys(load_block(block), changed, keep=True)
    repos = block["repo"].to_pylist()
    pkg_meta = _cached_get(pkg_refs[0]) if pkg_refs else None
    table = _records_table(
        repos, block["path"].to_pylist(),
        block["commit"].to_pylist(), block["content"].to_pylist(),
        load_blobs(type_store, "repo", repos), min_accessibility, pkg_meta,
        no_key,
    )
    return table, (table.num_rows, table.nbytes)


def extract_blocks(
    corpus: Blocks,
    type_store: BucketStore,
    min_accessibility: str = DEFAULT_MIN_ACCESSIBILITY,
    pkg_meta: dict | None = None,
    no_key: bool = False,
    changed_ref=None,
) -> Blocks:
    """Pass B: one extraction task per corpus block, so the records keep
    the corpus read's block count (its CPU floor), each task holding
    only its block's repos' type indices (``type_store``, from
    :func:`build_type_index`). ``changed_ref`` (a :func:`joined_keys`
    ref) extracts only those files. Returns once every task has
    finished."""
    pkg_refs = [ray.put(pkg_meta)] if pkg_meta is not None else []
    refs = [_extract_block.remote(b, type_store, pkg_refs, min_accessibility,
                                  no_key, changed_ref) for b in corpus.refs]
    return Blocks.of([t for t, _ in refs], ray.get([s for _, s in refs]))


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
