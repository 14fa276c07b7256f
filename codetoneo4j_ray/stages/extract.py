"""Stage 1 — extraction over the corpus, as raw Ray tasks over the
corpus blocks (``pipelines.build_graph.read_corpus_blocks``: pinned
table refs, or read slices each task reads itself). Two passes, neither
of which shuffles file content:

  pass A  ``build_type_index``  — one skim task per corpus block: a full
          C# parse of every C# row, keeping only its declarations (plus
          project-root manifest markers), producing type-index rows,
          reduced into a repo-keyed bucket store of per-repo indices.
          The index is metadata (≪ content) and never reaches the
          driver — the reference gets the same knowledge from the
          Roslyn Compilation of one solution
          (``SolutionProcessor.cs:256-279``; here a repo is a solution).
          Each task also writes its rows as a ``type_index/`` part of
          the build's output. An incremental build skims only its
          changed files and carries the prior run's rows of the others
          (read back from the prior ``type_index/``), so its parse work
          scales with the delta.

  pass B  ``extract_blocks``    — one extraction task per corpus block
          running every handler with the type indices of the block's
          repos, loaded from their buckets; emits one unified Arrow
          record table per block tagged ``rec_type ∈ {symbol, mention,
          file, url}`` so a single parse produces all outputs (split
          later by cheap filters). An incremental build's changed-key
          filter runs inside the task.
"""

from __future__ import annotations

import os
import shutil

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
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
    ParquetSlice,
    blob_frame,
    build_bucket_store,
    cached_get,
    load_block,
    load_blobs,
)

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
        ("path", pa.string()),           # the corpus row it came from
    ]
)

_MANIFESTS = ("package.json", "pubspec.yaml")


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


def skims(path: str) -> bool:
    """Whether pass A reads ``path``: a C# source or a project-root
    manifest outside the excluded directories. Every such path has a
    handler, so it is on an incremental diff's current side."""
    return not is_excluded(path) and (
        path.endswith(".cs") or path.rsplit("/", 1)[-1].lower() in _MANIFESTS)


def skim_batch(batch: pa.Table) -> pa.Table:
    """Pass-A batch fn: C# declaration skim + project-root manifest
    markers → type-index rows, each with the path it came from."""
    from codetoneo4j_ray.functions.text import dirname

    rows: list[dict] = []
    repos = batch["repo"].to_pylist()
    paths = batch["path"].to_pylist()
    contents = batch["content"].to_pylist()
    for repo, path, content in zip(repos, paths, contents):
        if not skims(path):
            continue
        m = _manifest_name(path, content)
        if m is not None:
            rows.append(
                {"rec_type": "pkg_root", "repo": repo, "kind": m[0],
                 "full_name": m[1], "file_key": dirname(path), "path": path}
            )
            continue
        type_rows, using_rows = skim_file(repo, path, content)
        for rec, found in (("type", type_rows), ("global_using", using_rows)):
            for r in found:
                r["rec_type"] = rec
                r["path"] = path
                rows.append(r)
    return pa.Table.from_pylist(rows, schema=_TYPE_INDEX_SCHEMA)


def _assemble_type_indices(df) -> dict[str, RepoTypeIndex]:
    """Per-repo type indices from pass-A rows (a DataFrame in the
    ``_TYPE_INDEX_SCHEMA`` columns)."""
    from codetoneo4j_ray.extractors.csharp.extractor import parse_member_types
    from codetoneo4j_ray.extractors.csharp.types import TypeInfo

    # deterministic fragment/using order regardless of shuffle arrival
    # (partial-class merge + first-matching-using resolution); type rows
    # carry no file, so fragments of one type order by their content.
    # The keys cover every column read below, so the indices depend on
    # the rows alone: an incremental build's carried and fresh rows
    # assemble as a full skim's do.
    df = df.sort_values(
        ["repo", "rec_type", "full_name", "arity", "file_key", "text",
         "bases", "type_params", "members", "kind", "is_value"],
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
        keys = cached_get(keys)
    mask = pc.is_in(_join_cols(table), value_set=keys)
    return table.filter(mask if keep else pc.invert(mask))


def _written(rows: pa.Table, skimmed: int, part: str | None):
    """A pass-A task's returns: ``rows``, then (their rows and bytes,
    ``skimmed``, the error of writing them as ``part``, None when
    written or not asked)."""
    err = None
    if part is not None:
        try:
            pq.write_table(rows, part)
        except OSError as e:  # reported by the driver
            err = e
    return rows, (rows.num_rows, rows.nbytes, skimmed, err)


@ray.remote(num_returns=2)
def _skim_block(block, changed, part: str | None):
    """Pass A over one corpus block (its ``changed`` rows only, when
    given), counting the files it skims (see :func:`_written`)."""
    block = filter_keys(load_block(block), changed, keep=True)
    skimmed = sum(map(skims, block["path"].to_pylist()))
    return _written(skim_batch(block), skimmed, part)


@ray.remote(num_returns=2)
def _carried_block(piece: ParquetSlice, stale, part: str | None):
    """The rows of a prior run's type index in ``piece`` whose
    (repo, path) is not ``stale`` (see :func:`_written`)."""
    return _written(filter_keys(piece.read(), stale, keep=False), 0, part)


def _assemble_blobs(df):
    """One repo bucket of pass-A rows → (repo, pickled RepoTypeIndex)."""
    return blob_frame("repo", _assemble_type_indices(df))


def build_type_index(corpus: Blocks, part_dir: str | None = None,
                     changed=None, carried: list = (),
                     stale=None) -> tuple[BucketStore, int]:
    """Pass A: one skim task per corpus block, its rows reduced into a
    repo-keyed :class:`~codetoneo4j_ray.stages.bucketing.BucketStore`
    of per-repo type indices (repo is the pipeline-wide key), sized
    from the rows' bytes. The store is metadata-sized (one row per
    declared type / global using) and the driver never fetches it:
    each pass-B task loads only its block's repos.

    ``changed`` (a :func:`joined_keys` array or ref) skims only those
    files; ``carried`` (:class:`ParquetSlice` specs over a prior run's
    ``type_index/``) adds one task per slice with the prior rows whose
    (repo, path) is not in ``stale``: an incremental build's pass A.
    With ``part_dir`` (cleared first) every task writes its rows, empty
    or not, as ``{part_dir}/part-{k:05d}.parquet``; a failed write
    raises ``RuntimeError("type index write failed")``.

    Returns (the type-index store, the files skimmed); every task has
    finished."""
    if part_dir is not None:
        shutil.rmtree(part_dir, ignore_errors=True)
        try:
            os.makedirs(part_dir)
        except OSError as e:
            raise RuntimeError("type index write failed") from e

    def part(k: int) -> str | None:
        return None if part_dir is None else f"{part_dir}/part-{k:05d}.parquet"

    refs = [_skim_block.remote(b, changed, part(k))
            for k, b in enumerate(corpus.refs)]
    refs += [_carried_block.remote(p, stale, part(len(corpus.refs) + k))
             for k, p in enumerate(carried)]
    metas = ray.get([m for _, m in refs])
    failed = [err for *_, err in metas if err is not None]
    if failed:
        raise RuntimeError("type index write failed") from failed[0]
    rows = Blocks.of([t for t, _ in refs], [m[:2] for m in metas])
    return (build_bucket_store(rows, ["repo"], _assemble_blobs),
            sum(m[2] for m in metas))


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
    pkg_meta = cached_get(pkg_refs[0]) if pkg_refs else None
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
