"""Stage 2 — entity linking.

Two sub-steps, mirroring what the reference gets from the Roslyn
semantic model + Neo4j MERGE semantics:

  A. ``resolve_mentions`` — finalize deferred INVOKES targets by member
     lookup (name + arity) against the repo-wide member index, walking
     the resolved internal base-type chain (Roslyn resolves inherited
     calls to the declaring base type). The member index is built on
     the driver from stage-1's internal ``__MEMBER__`` / ``__BASE__``
     rows (``build_member_indices``) and broadcast with ``ray.put``.

  B. ``resolve_edges_broadcast`` — the endpoint semi-join:
     ``Cypher/MergeRelationships.cypher:2-4`` MATCHes BOTH endpoints as
     existing ``src__Symbol`` nodes, silently dropping dangling refs.
     The small side (``symbol_key_set``) is broadcast and probed per
     batch.

``resolve_link_fused`` runs both steps in one repo-keyed bucket
exchange with no driver-side structure — the path
``pipelines.build_graph.resolve_mode`` picks on a multi-node cluster, at
32 or more CPUs, or when the broadcast structures would not fit the
reported memory.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from codetoneo4j_ray.extractors.csharp.extractor import BASE_PRED, MEMBER_PRED

_MAX_BASE_DEPTH = 16

_OP_METADATA = {
    "+": "op_Addition", "-": "op_Subtraction", "*": "op_Multiply",
    "/": "op_Division", "%": "op_Modulus", "==": "op_Equality",
    "!=": "op_Inequality",
}

_UNOP_METADATA = {
    "!": "op_LogicalNot", "~": "op_OnesComplement", "-": "op_UnaryNegation",
    "+": "op_UnaryPlus", "++": "op_Increment", "--": "op_Decrement",
}


# ---------------------------------------------------------------------------
# member index
# ---------------------------------------------------------------------------


class MemberIndex:
    """Per-repo: (type display, member name) → [(argc, key)] + base chains."""

    def __init__(self) -> None:
        self.members: dict[tuple[str, str], list[tuple[int, str]]] = defaultdict(list)
        self.bases: dict[str, list[str]] = defaultdict(list)

    def lookup_all(self, type_display: str, name: str) -> list[str]:
        """All candidate member keys of one type (no base walk)."""
        return [k for _a, k in self.members.get((type_display, name), [])]

    def lookup(self, type_display: str, name: str, argc: int,
               skip_self: bool = False) -> str | None:
        """Resolve to a declared member key, walking internal bases."""
        seen: set[str] = set()
        frontier = list(self.bases.get(type_display, [])) if skip_self else [type_display]
        depth = 0
        while frontier and depth < _MAX_BASE_DEPTH:
            nxt: list[str] = []
            for t in frontier:
                if t in seen:
                    continue
                seen.add(t)
                cands = self.members.get((t, name))
                if cands:
                    exact = [k for a, k in cands if a == argc]
                    pool = exact or [k for _a, k in cands]
                    return min(pool)
                nxt.extend(self.bases.get(t, []))
            frontier = nxt
            depth += 1
        return None


# the columns stage 2 reads from the mention partition
MENTION_COLS = ["subj", "pred", "obj", "repo", "ctx_kind", "ctx_name",
                "ctx_receiver", "ctx_argc"]


def _member_indices(df) -> dict[str, MemberIndex]:
    """Per-repo member indices from ``__MEMBER__``/``__BASE__`` rows
    (a DataFrame holding only those rows)."""
    out: dict[str, MemberIndex] = {}
    for repo, pred, subj, obj, name, argc in zip(
        df["repo"].to_numpy(), df["pred"].to_numpy(), df["subj"].to_numpy(),
        df["obj"].to_numpy(), df["ctx_name"].to_numpy(),
        df["ctx_argc"].to_numpy(),
    ):
        idx = out.get(repo)
        if idx is None:
            idx = out[repo] = MemberIndex()
        if pred == MEMBER_PRED:
            idx.members[(subj, name)].append((int(argc), obj))
        else:
            idx.bases[subj].append(obj)
    return out


def build_member_indices(records: ray.data.Dataset) -> dict[str, MemberIndex]:
    """Collect the internal __MEMBER__/__BASE__ rows (metadata-sized)."""
    df = (
        records.filter(
            expr=f"pred == '{MEMBER_PRED}' or pred == '{BASE_PRED}'"
        )
        .select_columns(["repo", "pred", "subj", "obj", "ctx_name", "ctx_argc"])
        .to_pandas()
    )
    return _member_indices(df) if len(df) else {}


# ---------------------------------------------------------------------------
# step A: resolve deferred INVOKES
# ---------------------------------------------------------------------------


# Worker-local cache for broadcast objects: map_batches *tasks* reuse the
# already-warm worker pool (no actor spin-up); the first task per worker
# pays one zero-copy local-object-store ray.get, later tasks hit the dict.
# Bounded LRU — long-lived sessions broadcast many refs (one per k-means
# iteration, one per pipeline run); unbounded, every ref stays pinned in
# every worker for the session's lifetime.
_BROADCAST_CACHE_MAX = 8
_BROADCAST_CACHE: dict = {}


def _cached_get(ref):
    obj = _BROADCAST_CACHE.pop(ref, None)
    if obj is None:
        obj = ray.get(ref)
        while len(_BROADCAST_CACHE) >= _BROADCAST_CACHE_MAX:
            _BROADCAST_CACHE.pop(next(iter(_BROADCAST_CACHE)))
    _BROADCAST_CACHE[ref] = obj  # re-insert = move to MRU position
    return obj


# call-site kinds with no IMethodSymbol fallback: unresolved, Roslyn
# emits nothing for them
_DROP_UNRESOLVED = ("mgroup", "cast", "conv", "binop", "unop")


def _resolve_deferred(indices: dict[str, MemberIndex], repos, kinds, names,
                      recvs, argcs, objs) -> np.ndarray:
    """Resolve deferred call sites in place and return the drop mask.

    ``objs[i]`` becomes the declared member key. Unresolved call targets
    keep an approximate ``repo:{recv}.{name}(~n)`` key — present in raw
    mentions (like Roslyn's external-method keys), never matching a
    declared symbol, hence dropped by step B, exactly as the reference's
    dangling refs are dropped by MergeRelationships."""
    drop = np.zeros(len(kinds), dtype=bool)
    for i, (repo, kind, name, recv, argc) in enumerate(
        zip(repos, kinds, names, recvs, argcs)
    ):
        argc = int(argc)
        key = _lookup_site(indices.get(repo), kind, recv, name, argc)
        if key is None:
            if kind in _DROP_UNRESOLVED:
                drop[i] = True
                continue
            simple = (recv.rsplit(".", 1)[-1].split("<", 1)[0]
                      if kind == "ctor" else name)
            key = f"{repo.lower()}:{recv}.{simple}(~{argc})"
        objs[i] = key
    return drop


def _resolve_batch(batch: pa.Table, index_ref=None) -> pa.Table:
    """Fills ``obj`` for deferred mentions; passes keyed ones through.

    Only the deferred rows (``ctx_kind`` set and not "member") cross into
    Python; the pass-through majority stays in Arrow and the updated
    ``obj`` column is spliced back with ``pc.replace_with_mask``.
    """
    kinds_col = batch["ctx_kind"]
    dmask = pc.fill_null(
        pc.and_(
            pc.not_equal(kinds_col, pa.scalar("")),
            pc.not_equal(kinds_col, pa.scalar("member")),
        ),
        False,
    )
    if not pc.any(dmask).as_py():
        return batch
    sub = batch.filter(dmask)
    objs = sub["obj"].to_pylist()
    drop_local = _resolve_deferred(
        _cached_get(index_ref), sub["repo"].to_pylist(),
        sub["ctx_kind"].to_pylist(), sub["ctx_name"].to_pylist(),
        sub["ctx_receiver"].to_pylist(), sub["ctx_argc"].to_pylist(), objs,
    )
    obj_col = batch["obj"]
    if isinstance(obj_col, pa.ChunkedArray):
        obj_col = obj_col.combine_chunks()
    mask_arr = dmask.combine_chunks() if isinstance(dmask, pa.ChunkedArray) else dmask
    new_obj = pc.replace_with_mask(obj_col, mask_arr, pa.array(objs, pa.string()))
    batch = batch.set_column(
        batch.schema.get_field_index("obj"), "obj", new_obj
    )
    if drop_local.any():
        keep = np.ones(len(batch), dtype=bool)
        keep[np.nonzero(mask_arr.to_numpy(zero_copy_only=False))[0][drop_local]] = False
        batch = batch.filter(pa.array(keep))
    return batch


def _lookup_site(idx: "MemberIndex | None", kind: str, recv: str, name: str,
                 argc: int) -> str | None:
    if idx is None:
        return None
    if kind == "ctor":
        return idx.lookup(recv, ".ctor", argc)
    if kind == "call_base":
        return idx.lookup(recv, name, argc, skip_self=True)
    if kind == "cast":
        # conversion ops can live on the target (recv) or source (ctx_name)
        # type; pick by the operator's own signature embedded in the key:
        #   {container}.explicit operator {target}({source})
        cands: list[str] = []
        for t in (recv, name):
            if t:
                cands += idx.lookup_all(t, "op_Explicit")
                cands += idx.lookup_all(t, "op_Implicit")
        if not cands:
            return None
        if recv:
            sig = [k for k in cands if f" operator {recv}(" in k]
            if sig:
                cands = sig
        if name:
            src = [k for k in cands if k.endswith(f"({name})")]
            if src:
                cands = src
        return min(cands)
    if kind == "conv":
        # implicit conversion: ops on target (recv) or source (name) type,
        # implicit only, signature-matched
        cands = idx.lookup_all(recv, "op_Implicit") + idx.lookup_all(name, "op_Implicit")
        if not cands:
            return None
        sig = [k for k in cands if f" operator {recv}(" in k]
        if sig:
            cands = sig
        src = [k for k in cands if k.endswith(f"({name})")]
        if src:
            cands = src
        return min(cands)
    if kind == "binop":
        op, _sep, right = name.partition("\x1f")
        meta = _OP_METADATA.get(op)
        if meta is None:
            return None
        cands = idx.lookup_all(recv, meta) + idx.lookup_all(right, meta)
        if not cands:
            return None
        sig = [k for k in cands if k.endswith(f"({recv}, {right})")]
        if sig:
            cands = sig
        return min(cands)
    if kind == "unop":
        meta = _UNOP_METADATA.get(name)
        if meta is None:
            return None
        cands = [k for k in idx.lookup_all(recv, meta)
                 if k.endswith(f"({recv})")] or idx.lookup_all(recv, meta)
        return min(cands) if cands else None
    # 'call' (argc=-2 ⇒ method group, any overload) and 'mgroup'
    return idx.lookup(recv, name, argc)


def resolve_mentions(
    raw_mentions: ray.data.Dataset,
    member_indices: dict[str, MemberIndex],
) -> ray.data.Dataset:
    """Step A over the raw mention partition: narrow to ``MENTION_COLS``
    (the symbol payload never travels), drop the internal
    __MEMBER__/__BASE__ rows, resolve deferred call sites against the
    broadcast member indices."""
    import functools

    index_ref = ray.put(member_indices)
    return (
        raw_mentions.select_columns(MENTION_COLS)
        .filter(expr=f"pred != '{MEMBER_PRED}' and pred != '{BASE_PRED}'")
        .map_batches(
            functools.partial(_resolve_batch, index_ref=index_ref),
            batch_format="pyarrow",
        )
    )


# ---------------------------------------------------------------------------
# step B: endpoint semi-join (MergeRelationships semantics)
# ---------------------------------------------------------------------------


def _endpoint_filter_batch(batch: pa.Table, keys_ref=None) -> pa.Table:
    # probe against the broadcast frozenset: the hash table is built ONCE
    # (driver-side) and deserialized once per worker via _cached_get —
    # pc.is_in(value_set=...) would rebuild a |keys|-sized hash table on
    # EVERY batch, which measured ~60 ms/call at 240 k keys and dominated
    # the edges pipeline's CPU
    keys: frozenset = _cached_get(keys_ref)
    keep = pa.array(
        [s in keys and o in keys
         for s, o in zip(batch["subj"].to_pylist(), batch["obj"].to_pylist())],
        pa.bool_(),
    )
    return batch.filter(keep)


def symbol_key_set(symbols: ray.data.Dataset) -> set[str]:
    """The declared-symbol keys step B broadcasts (driver-collected)."""
    keys_df = symbols.select_columns(["key"]).to_pandas()
    return set(keys_df["key"]) if "key" in keys_df.columns else set()


def resolve_edges_broadcast(
    mentions: ray.data.Dataset,
    symbol_keys: set[str],
) -> ray.data.Dataset:
    """(subj, pred, obj) of the mentions whose endpoints are both
    declared: an inner join against the declared-symbol key set,
    broadcast once via ``ray.put`` and probed per batch (no shuffle)."""
    import functools

    keys_ref = ray.put(frozenset(symbol_keys))
    return mentions.select_columns(["subj", "pred", "obj"]).map_batches(
        functools.partial(_endpoint_filter_batch, keys_ref=keys_ref),
        batch_format="pyarrow",
    )


# ---------------------------------------------------------------------------
# fused partitioned linking: one big exchange + small global leftovers
# ---------------------------------------------------------------------------

_KEY_PRED = "__KEYROW__"

# Sub-buckets per repo on the partitioned path (stage-1 extraction and
# the fused linking exchange): each repo's bulk rows split ``REPO_SALT``
# ways by hash, and its metadata-sized side rows are replicated into
# every sub-bucket, so a corpus of few large repos does not cap the
# exchange's parallelism at the repo count.
REPO_SALT = 4


def _bucket_resolve_and_filter(df):
    """Per-repo-bucket: build member indices, resolve deferred mentions,
    and endpoint-check BOTH endpoints against the repo-local key set.

    Exactness argument — why repo-local equals the global semi-join:
    a run of the reference indexes ONE solution; every symbol
    cross-reference it emits is intra-solution, and in the corpus model
    a repo IS a solution. Concretely every mention endpoint is either
    (a) a repo-prefixed key (``{repo.lower()}:...``, SymbolMapper.cs:43-47),
    declarable only by this repo, or (b) a file-key-anchored / ``pkg:`` /
    ``url:`` key emitted by a handler that declares the matching symbol
    in the same file (TextSymbolMapper keys, PackageDependencyHandlerBase
    .cs:28-45). Either way the declaring candidates live in this repo, so
    membership in the repo-local key set decides exactly what the global
    set would. (Pathological cross-repo key collisions — same relative
    path, different content, one side's symbol accessibility-filtered —
    could in principle diverge; the path-equivalence tests and the strict
    kg_edges oracle check this continuously.)
    """
    import pandas as pd

    is_key = (df["pred"] == _KEY_PRED).to_numpy()
    internal = df["pred"].isin((MEMBER_PRED, BASE_PRED)).to_numpy()

    keys_by_repo: dict[str, set] = {}
    for repo, key in zip(df["repo"].to_numpy()[is_key],
                         df["subj"].to_numpy()[is_key]):
        keys_by_repo.setdefault(repo, set()).add(key)

    indices = _member_indices(df.loc[internal])

    out = df.loc[~(is_key | internal)].copy()
    if not len(out):
        return pd.DataFrame(
            {"subj": pd.Series([], dtype=str), "pred": pd.Series([], dtype=str),
             "obj": pd.Series([], dtype=str)}
        )

    deferred = (out["ctx_kind"] != "").to_numpy()
    if deferred.any():
        objs = out["obj"].to_numpy(copy=True)
        d_objs = objs[deferred]
        d_drop = _resolve_deferred(
            indices, out["repo"].to_numpy()[deferred],
            out["ctx_kind"].to_numpy()[deferred],
            out["ctx_name"].to_numpy()[deferred],
            out["ctx_receiver"].to_numpy()[deferred],
            out["ctx_argc"].to_numpy()[deferred], d_objs,
        )
        objs[deferred] = d_objs
        out["obj"] = objs
        if d_drop.any():
            drop = np.zeros(len(out), dtype=bool)
            drop[np.nonzero(deferred)[0][d_drop]] = True
            out = out.loc[~drop]

    # vectorized per-repo membership check on both endpoints
    keep = np.ones(len(out), dtype=bool)
    for repo, grp in out.groupby("repo", sort=False):
        kset = keys_by_repo.get(repo, set())
        loc = out.index.get_indexer(grp.index)
        keep[loc] = (
            grp["subj"].isin(kset).to_numpy()
            & grp["obj"].isin(kset).to_numpy()
        )
    out = out.loc[keep]
    # local distinct: all of a repo's mentions share this bucket, so this
    # is a combine; the global distinct fuses into the final sort
    return out[["subj", "pred", "obj"]].drop_duplicates()


def resolve_link_fused(
    raw_mentions: ray.data.Dataset,
    symbols: ray.data.Dataset,
) -> ray.data.Dataset:
    """Fully-partitioned stage 2 for edges in ONE exchange.

    Mentions, the internal __MEMBER__/__BASE__ rows AND the declared-key
    rows all hash-partition by ``repo`` — the pipeline-wide key — so each
    bucket resolves deferred INVOKES and endpoint-checks both ends
    against its repos' key sets with zero driver state and zero further
    exchanges (see _bucket_resolve_and_filter for why repo-local checks
    are exact). Output is (subj, pred, obj) with per-bucket distinct
    applied; callers fuse the global distinct + sort into one exchange
    via canonicalize.distinct_sorted.

    Each repo's mention rows split into ``REPO_SALT`` sub-buckets by
    subj hash, REPLICATING the (index-sized) key/member/base
    side rows into every salted bucket of their repo — a corpus of few
    large repos would otherwise cap reduce parallelism at the repo
    count while each bucket runs the Python resolution loop serially.
    Exact by construction: every salted bucket sees its repo's full
    index + key set, resolution is per-row, and duplicate triples share
    a subj (same salt) so the local distinct still combines them."""
    from codetoneo4j_ray.stages.bucketing import bucketed_apply_tasks

    def keys_as_rows(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        return pa.table(
            {
                "subj": batch["key"],
                "pred": pa.array([_KEY_PRED] * n, pa.string()),
                "obj": pa.nulls(n, pa.string()),
                "repo": batch["repo"],
                "ctx_kind": pa.array([""] * n, pa.string()),
                "ctx_name": pa.nulls(n, pa.string()),
                "ctx_receiver": pa.nulls(n, pa.string()),
                "ctx_argc": pa.nulls(n, pa.int32()),
            }
        )

    e1_in = raw_mentions.select_columns(MENTION_COLS).union(
        symbols.select_columns(["key", "repo"]).map_batches(
            keys_as_rows, batch_format="pyarrow"
        )
    )

    def add_salt(batch: pa.Table) -> pa.Table:
        import pandas as pd

        # keep the Arrow schema explicit: a pandas round-trip re-infers
        # all-null columns as null-type and int32 NaNs as double, which
        # breaks the per-bucket concat
        schema = batch.schema.append(pa.field("__salt", pa.int32()))
        df = batch.to_pandas()
        if not len(df):
            df["__salt"] = pd.Series([], dtype="int32")
            return pa.Table.from_pandas(df, schema=schema,
                                        preserve_index=False)
        side = df["pred"].isin((_KEY_PRED, MEMBER_PRED, BASE_PRED)).to_numpy()
        m = df.loc[~side].copy()
        h = pd.util.hash_array(
            m["subj"].to_numpy(dtype=object), categorize=False
        )
        m["__salt"] = (h % REPO_SALT).astype("int32")
        parts = [m]
        sd = df.loc[side]
        for k in range(REPO_SALT):
            r = sd.copy()
            r["__salt"] = np.int32(k)
            parts.append(r)
        return pa.Table.from_pandas(
            pd.concat(parts, ignore_index=True), schema=schema,
            preserve_index=False,
        )

    salted = e1_in.map_batches(add_salt, batch_format="pyarrow")
    # raw split-tasks + one resolve task per bucket: the one-shot
    # linking exchange skips the groupby's sort/sample machinery
    return bucketed_apply_tasks(salted, ["repo", "__salt"],
                                _bucket_resolve_and_filter)
