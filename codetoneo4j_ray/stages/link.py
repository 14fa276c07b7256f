"""Stage 2 — entity linking.

Two sub-steps, mirroring what the reference gets from the Roslyn
semantic model + Neo4j MERGE semantics:

  A. resolve deferred INVOKES targets by member lookup (name + arity)
     against the repo's member index, walking the resolved internal
     base-type chain (Roslyn resolves inherited calls to the declaring
     base type). ``_member_indices`` assembles it from stage-1's
     internal ``__MEMBER__`` / ``__BASE__`` rows; ``_resolve_batch``
     probes it.

  B. the endpoint semi-join: ``Cypher/MergeRelationships.cypher:2-4``
     MATCHes BOTH endpoints as existing ``src__Symbol`` nodes, silently
     dropping dangling refs. ``_endpoint_filter_batch`` probes each
     mention's endpoints against its repo's declared-key set.

Both indices are keyed by repo: the reference indexes one solution per
run and resolves every cross-reference inside it
(``SolutionProcessor.cs:256-279``), and in the corpus model a repo is a
solution. ``index_rows`` takes a records block's share of them, and
``_index_blobs`` reduces one repo bucket of those rows into a
per-repo (member index, key set) blob of a bucket store; ``link_block``
(steps A and B) and ``resolve_block`` (step A, for the KG oracle's
side table) load only the buckets of the repos in front of them. The
build's stage 2–4 map tasks run ``link_block``
(``pipelines.build_graph``).

Why the repo-local endpoint check equals a global one: every mention
endpoint is either (a) a repo-prefixed key (``{repo.lower()}:...``,
SymbolMapper.cs:43-47), declarable only by this repo, or (b) a
file-key-anchored / ``pkg:`` / ``url:`` key emitted by a handler that
declares the matching symbol in the same file (TextSymbolMapper keys,
PackageDependencyHandlerBase.cs:28-45). Either way the declaring
candidates live in the mention's repo. (Pathological cross-repo key
collisions — same relative path, different content, one side's symbol
accessibility-filtered — could in principle diverge; the strict
kg_edges oracle, which checks globally, tests this continuously.)
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from codetoneo4j_ray.extractors.csharp.extractor import BASE_PRED, MEMBER_PRED
from codetoneo4j_ray.stages.bucketing import BucketStore, blob_frame, load_blobs

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


# ---------------------------------------------------------------------------
# step A: resolve deferred INVOKES
# ---------------------------------------------------------------------------

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


def _resolve_batch(batch: pa.Table,
                   indices: dict[str, MemberIndex]) -> pa.Table:
    """Fills ``obj`` for deferred mentions from the per-repo member
    ``indices``; passes keyed ones through.

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
        indices, sub["repo"].to_pylist(),
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


# ---------------------------------------------------------------------------
# step B: endpoint semi-join (MergeRelationships semantics)
# ---------------------------------------------------------------------------


def _endpoint_filter_batch(batch: pa.Table,
                           keys: dict[str, frozenset]) -> pa.Table:
    """The rows of ``batch`` whose subj and obj are both declared keys
    of the row's repo (``keys``): a frozenset probe per row, where
    ``pc.is_in(value_set=...)`` would rebuild a key-set-sized hash
    table on every call."""
    none: frozenset = frozenset()
    keep = pa.array(
        [s in ks and o in ks for s, o, ks in zip(
            batch["subj"].to_pylist(), batch["obj"].to_pylist(),
            (keys.get(r, none) for r in batch["repo"].to_pylist()))],
        pa.bool_(),
    )
    return batch.filter(keep)


# ---------------------------------------------------------------------------
# the per-repo index store
# ---------------------------------------------------------------------------

_INTERNAL_PREDS = pa.array([MEMBER_PRED, BASE_PRED], pa.string())

# a records block's share of the link index: its __MEMBER__/__BASE__
# rows, and its declared keys as rows with a null pred (key in subj)
_INDEX_SCHEMA = pa.schema([
    ("repo", pa.string()), ("pred", pa.string()), ("subj", pa.string()),
    ("obj", pa.string()), ("ctx_name", pa.string()),
    ("ctx_argc", pa.int32()),
])


def internal_mask(mentions: pa.Table):
    """Mask of the internal __MEMBER__/__BASE__ rows among mentions."""
    return pc.is_in(mentions["pred"], value_set=_INTERNAL_PREDS)


def index_rows(block: pa.Table) -> pa.Table:
    """A records block's share of the link index, in ``_INDEX_SCHEMA``:
    its internal mention rows and its symbols' declared keys."""
    rt = block["rec_type"]
    mentions = block.filter(pc.equal(rt, "mention"))
    members = mentions.filter(internal_mask(mentions))
    symbols = block.filter(pc.equal(rt, "symbol"))
    n = symbols.num_rows
    keys = pa.table({
        "repo": symbols["repo"], "pred": pa.nulls(n, pa.string()),
        "subj": symbols["key"], "obj": pa.nulls(n, pa.string()),
        "ctx_name": pa.nulls(n, pa.string()),
        "ctx_argc": pa.nulls(n, pa.int32()),
    }, schema=_INDEX_SCHEMA)
    return pa.concat_tables(
        [members.select(_INDEX_SCHEMA.names).cast(_INDEX_SCHEMA), keys])


def _index_blobs(df):
    """One repo bucket of :func:`index_rows` → (repo, pickled (member
    index, frozenset of declared keys)), a bucket-store reduce."""
    is_key = df["pred"].isna().to_numpy()
    indices = _member_indices(df.loc[~is_key])
    keys: dict[str, set] = {}
    for repo, key in zip(df["repo"].to_numpy()[is_key],
                         df["subj"].to_numpy()[is_key]):
        keys.setdefault(repo, set()).add(key)
    return blob_frame("repo", {
        repo: (indices.get(repo) or MemberIndex(),
               frozenset(keys.get(repo, ())))
        for repo in sorted(set(indices) | set(keys))})


def resolve_block(mentions: pa.Table, store: BucketStore) -> pa.Table:
    """Step A over non-internal mention rows (``MENTION_COLS``) against
    the member indices of their repos in ``store``."""
    indices = load_blobs(store, "repo", mentions["repo"].to_pylist())
    return _resolve_batch(mentions, {r: i for r, (i, _) in indices.items()})


def link_block(mentions: pa.Table, store: BucketStore) -> pa.Table:
    """Steps A and B over non-internal mention rows (``MENTION_COLS``)
    against the indices of their repos in ``store``: the (subj, pred,
    obj) rows left, duplicates kept."""
    indices = load_blobs(store, "repo", mentions["repo"].to_pylist())
    resolved = _resolve_batch(mentions,
                              {r: i for r, (i, _) in indices.items()})
    return _endpoint_filter_batch(
        resolved, {r: k for r, (_, k) in indices.items()}
    ).select(["subj", "pred", "obj"])
