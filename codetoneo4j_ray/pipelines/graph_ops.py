"""Graph analytics over the FINAL KG edge table.

The reference stops at materializing the graph into Neo4j, where a
consumer's first analytical queries are centrality and cohesion
(degree — already covered by kg_degree_topk — plus PageRank, triangle
counts, connected components, BFS layering and weighted distance).
These run here as distributed Ray pipelines over the same canonical
(subj, pred, obj) table the sinks emit.

Strict-oracle design notes:

* ``kg_pagerank`` is a FIXED-POINT power iteration: ranks are scaled
  BIGINTs and every step is integer arithmetic (floor division), so
  the result is exactly order-independent — float summation would make
  a distributed run non-reproducible and could never value-hash-match
  a SQL oracle. Dangling-node mass is dropped (not redistributed),
  matching the unrolled-CTE oracle literally.
* ``kg_components`` runs min-label propagation TO CONVERGENCE (the
  frontier empties), accelerated by periodic pointer-jumping, so the
  output is the true connected components — the oracle is an
  until-fixpoint recursive reachability CTE, not an unrolled
  approximation. A high safety bound raises instead of returning
  partial labels.
* ``kg_bfs_depth`` and ``kg_sssp`` likewise run until the wave
  empties (BFS is the unit-weight case of the same relaxation); the
  safety bound / distance budget doubles as the oracle's walk cap, so
  whenever the Ray side succeeds the two are exactly equal.
* ``kg_triangles`` counts each triangle once via degree-ordered
  orientation (every triangle has exactly one vertex whose two other
  corners are both out-neighbors under a total order on (degree, key)),
  which also bounds per-node wedge generation by O(sqrt(m)) out-degree
  — the standard scalable MapReduce triangle plan. The oracle
  enumerates triangles independently with a key-ordered 3-way
  self-join; the per-node counts must agree exactly.

Scale plan (the part that matters at 100 TB): all five ops first map
node keys to dense ORDER-PRESERVING int64 ids (assign_order_ids), so
every edge-sized exchange and every per-iteration exchange carries
8-byte integers instead of repeated long symbol strings
(``repo:Namespace.Type.Method(params)``). The int-encoded edge list
crosses exactly one exchange — the split into a pinned per-bucket
BucketStore (stages/bucketing), deduped (and degree-attached where an
op needs it) by the one task per bucket that consolidates the store —
and every repeated or data-amplifying join becomes a bucket-local
lookup against those pieces:

* PageRank's ``iters`` steps shuffle only node-sized rank rows plus
  map-side-combined contribution partials between per-bucket tasks.
* Components/BFS/SSSP propagate int64 labels against the pinned
  adjacency with frontier (delta) filtering; pointer-jumping turns
  path-shaped component convergence from O(diameter) into O(log n)
  rounds.
* Triangle counting orients, generates and closes wedges inside one
  task per bucket of the pinned symmetric adjacency, so the wedge
  stream — the largest intermediate in any triangle plan, O(m^1.5)
  rows — never enters an exchange; only per-node counts do.
"""

from __future__ import annotations

import functools

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data

from codetoneo4j_ray.stages.bucketing import (
    apply_store,
    bucket_frame,
    build_bucket_store,
    bucketed_apply_tasks,
    cached_view,
    hash_bucket_series,
    target_blocks,
)

PAGERANK_SCALE = 1_000_000_000  # rank fixed-point unit (1e-9 of total mass)
PAGERANK_ITERS = 5
TRIANGLE_TOPK_K = 20

# int64 overflow guard for 85 * sum(contrib): per-node contribution
# sums are bounded by the total rank mass, which never exceeds
# num_nodes * scale (each step's total is 0.15*n*scale + 0.85 * the
# incoming mass, a contraction) — so validating n*scale up-front
# covers every map-side partial and reduce-side sum in every
# iteration. At SCALE=1e9 that is ~1e8 nodes; shrink SCALE for
# larger graphs.
_MAX_SAFE_SUM = (2**63 - 1) // 85

# convergence-safety bounds: iteration PAST convergence is the
# identity, so these are pure runaway guards that RAISE rather than
# ever returning partial labels. With pointer-jumping, component
# convergence is O(log diameter)-ish — 512 rounds is astronomically
# conservative. BFS needs O(eccentricity-from-roots) rounds; a code
# KG deeper than 256 hops from its repo roots trips the guard loudly
# (raise max_iters AND the oracle cap together — they must agree).
CC_MAX_ITERS = 512
BFS_MAX_ITERS = 256

# pointer-jump cadence of the components loop: the label loop tests
# convergence after every round, and every _CHAIN_CHECKPOINT-th round
# (when the loop goes on) it also jumps labels to their labels' labels
_CHAIN_CHECKPOINT = 3

# rounds executed by the most recent convergence loop of each op in
# this process — introspection for benchmarks/tests (the loops are
# driver-side, so a plain module dict is accurate per session)
LAST_RUN_ROUNDS: dict[str, int] = {}


def _dedup(df: pd.DataFrame) -> pd.DataFrame:
    return df.drop_duplicates()


def _dedup_deg(df: pd.DataFrame) -> pd.DataFrame:
    """Per-bucket reduce of an int adjacency: distinct (src, dst) plus
    d = out-degree of src — exact, because every row of a src lands in
    src's bucket."""
    df = df.drop_duplicates().copy()
    df["d"] = df["src"].map(df["src"].value_counts()).astype("int64")
    return df[["src", "dst", "d"]]


def _reduce_by(keys, vals, op=np.add) -> tuple[np.ndarray, np.ndarray]:
    """Per-key ``op`` reduction (np.add: sum, np.minimum: min) of int64
    ``vals``: (distinct keys ascending, reduced values), int64
    throughout — no float64 detour to round sums past 2**53."""
    keys = np.asarray(keys, dtype="int64")
    vals = np.asarray(vals, dtype="int64")
    if not len(keys):
        return keys, vals
    order = np.argsort(keys, kind="stable")
    keys, vals = keys[order], vals[order]
    starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
    return keys[starts], op.reduceat(vals, starts)


def _pair_rows(b: pa.Table, sym: bool = False, loops: bool = True) -> pa.Table:
    """Block-distinct (src, dst) string pairs from an edge block's
    (subj, obj); ``sym`` adds the reverse of every pair, ``loops=False``
    drops self-loops."""
    s = b["subj"].to_numpy(zero_copy_only=False)
    o = b["obj"].to_numpy(zero_copy_only=False)
    if not loops:
        keep = s != o
        s, o = s[keep], o[keep]
    if sym:
        s, o = np.concatenate([s, o]), np.concatenate([o, s])
    df = pd.DataFrame({"src": s, "dst": o}).drop_duplicates()
    return pa.Table.from_pandas(df, preserve_index=False)


# ---------------------------------------------------------------------------
# int64 node-id encoding shared by all five ops
# ---------------------------------------------------------------------------


def _ibucket(values, num_buckets: int) -> np.ndarray:
    """Bucket ids for int64 keys — the numeric analog of
    hash_bucket_series, without the stringify round-trip. Only valid
    for co-locating with stores whose tags were ALSO produced by this
    function (the graph ops' nid-keyed stores), never with
    add_bucket_column's string-cast buckets."""
    arr = np.asarray(values, dtype="int64")
    h = pd.util.hash_array(arr, categorize=False)
    return (h % num_buckets).astype(np.int32)


@ray.remote
def _stamp_ids(block, offset: int):
    """Stamp a sorted node block with its global dense rank range."""
    if isinstance(block, pd.DataFrame):
        t = pa.Table.from_pandas(block, preserve_index=False)
    else:
        t = block
    if t.num_rows == 0 or "node" not in t.column_names:
        # Ray drops the schema of empty blocks through sort
        return pa.table(
            {
                "node": pa.array([], pa.string()),
                "nid": pa.array([], pa.int64()),
            }
        )
    return pa.table(
        {
            "node": t["node"],
            "nid": pa.array(
                np.arange(offset, offset + t.num_rows, dtype="int64")
            ),
        }
    )


def assign_order_ids(nodes: ray.data.Dataset) -> ray.data.Dataset:
    """(node: string, distinct) → (node, nid: int64) with nid the dense
    ORDER-PRESERVING rank of node in global key order — so integer MIN
    over nids agrees with lexicographic MIN over keys. One Ray sort
    range-partitions the keys; per-block offsets come from block
    METADATA only (a driver-side prefix over block row counts, never
    rows); ids are stamped by raw tasks over the sorted block refs
    (the same block-ref pattern as build_bucket_store)."""
    snodes = nodes.sort("node").materialize()
    refs: list = []
    counts: list[int] = []
    for bundle in snodes.iter_internal_ref_bundles():
        for ref, meta in zip(bundle.block_refs, bundle.metadata):
            refs.append(ref)
            counts.append(meta.num_rows)
    if not refs:
        return ray.data.from_arrow(
            pa.table(
                {
                    "node": pa.array([], pa.string()),
                    "nid": pa.array([], pa.int64()),
                }
            )
        )
    offsets = np.concatenate([[0], np.cumsum(counts[:-1])]).tolist()
    return ray.data.from_arrow_refs(
        [_stamp_ids.remote(r, int(off)) for r, off in zip(refs, offsets)]
    )


class _LookupJoin:
    """Map-side id lookups against a pinned store: batch values are
    grouped by the bucket their key hashes to and mapped through that
    bucket's key→val Series (first row per key). The indexed Series is
    built once per bucket per worker process (:func:`cached_view`) —
    never per batch — so the per-batch cost is pure hash + take.
    Integer keys hash through _ibucket, strings through
    hash_bucket_series — matching how each kind of store is tagged at
    build time."""

    def __init__(self, store):
        self._store = store
        self._k = store.num_buckets

    def _bucket_series(self, k: int, key: str, val: str) -> pd.Series:
        return cached_view(self._store.pieces[k], ("series", key, val),
                           functools.partial(_key_series, key, val))

    def _mapping(self, values: pd.Series, key: str, val: str) -> pd.Series:
        if pd.api.types.is_integer_dtype(values):
            ids = _ibucket(values.to_numpy(), self._k)
        else:
            ids = hash_bucket_series(values, self._k)
        vnp = values.to_numpy()
        out = np.empty(len(values), dtype=object)
        for k in np.unique(ids):
            mask = ids == k
            s = self._bucket_series(int(k), key, val)
            out[mask] = pd.Series(vnp[mask]).map(s).to_numpy()
        return pd.Series(out, index=values.index)


def _key_series(key: str, val: str, table: pa.Table | None) -> pd.Series:
    """A bucket's ``key`` → ``val`` Series, first row per key."""
    if table is None:
        return pd.Series(dtype=object)
    df = table.select([key, val]).to_pandas()
    return df.drop_duplicates(key).set_index(key)[val]


class _EncodeAdj(_LookupJoin):
    """(src, dst) strings → int64 nids, tagged map-side with the
    bucket of src's nid so the encoded adjacency splits on 8-byte keys
    straight into a BucketStore. ``extra`` names int64 columns (e.g.
    edge weights) copied through unchanged."""

    def __init__(self, store, extra: tuple[str, ...] = ()):
        super().__init__(store)
        self._extra = extra

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        if not len(batch):
            cols = {
                "src": pd.Series([], dtype="int64"),
                "dst": pd.Series([], dtype="int64"),
            }
            for c in self._extra:
                cols[c] = pd.Series([], dtype="int64")
            cols["__bucket"] = pd.Series([], dtype="int32")
            return pd.DataFrame(cols)
        out = pd.DataFrame(
            {
                "src": self._mapping(batch["src"], "node", "nid").astype("int64"),
                "dst": self._mapping(batch["dst"], "node", "nid").astype("int64"),
            }
        )
        for c in self._extra:
            out[c] = batch[c].astype("int64").to_numpy()
        out["__bucket"] = _ibucket(out["src"], self._k)
        return out


class _Decode(_LookupJoin):
    """The last step of every string-keyed op: (node: nid, ``val``) →
    (node, ``out``) with node mapped back to its key through the
    reverse (nid → node) store, and ``val`` too when ``val_is_nid``
    (component labels); otherwise ``val`` stays int64. Rows whose
    ``val`` exceeds ``max_val`` (unreached / over-budget labels) are
    dropped first."""

    def __init__(self, store, val: str, out: str,
                 val_is_nid: bool = False, max_val: int | None = None):
        super().__init__(store)
        self._val = val
        self._out = out
        self._val_is_nid = val_is_nid
        self._max_val = max_val

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        if self._max_val is not None:
            batch = batch[batch[self._val] <= self._max_val]
        if not len(batch):
            return pd.DataFrame(
                {
                    "node": pd.Series([], dtype=object),
                    self._out: pd.Series(
                        [], dtype=object if self._val_is_nid else "int64"
                    ),
                }
            )
        if self._val_is_nid:
            vals = self._mapping(batch[self._val], "nid", "node")
        else:
            vals = batch[self._val].astype("int64")
        return pd.DataFrame(
            {
                "node": self._mapping(batch["node"], "nid", "node").to_numpy(),
                self._out: vals.to_numpy(),
            }
        )


def _decode(ds: ray.data.Dataset, rev_store, val: str,
            out: str, **kw) -> ray.data.Dataset:
    """nid-keyed result rows → string-keyed output, sorted by node."""
    return ds.map_batches(
        _Decode(rev_store, val, out, **kw),
        batch_format="pandas",
        batch_size=None,
    ).sort("node")


def _assign_ids(pairs: ray.data.Dataset, src: str, dst: str,
                num_buckets: int) -> tuple:
    """Dense id assignment over the endpoint set of ``pairs``' ``src``
    and ``dst`` columns. Returns (ids, id_store, rev_store):

    * ids — materialized (node: string, nid: int64), order-preserving;
    * id_store — node → nid BucketStore (string-hashed);
    * rev_store — nid → node BucketStore (_ibucket-tagged)."""

    def endpoints(b: pa.Table) -> pa.Table:
        vals = pd.unique(
            np.concatenate(
                [
                    b[src].to_numpy(zero_copy_only=False),
                    b[dst].to_numpy(zero_copy_only=False),
                ]
            )
        )
        return pa.table({"node": pa.array(vals, pa.string())})

    def tag_by_nid(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["__bucket"] = _ibucket(df["nid"], num_buckets)
        return df

    nodes = bucketed_apply_tasks(
        pairs.map_batches(endpoints, batch_format="pyarrow"),
        ["node"],
        _dedup,
        num_buckets,
    )
    ids = assign_order_ids(nodes).materialize()
    id_store = build_bucket_store(ids, ["node"], num_buckets)
    rev_store = build_bucket_store(
        ids.map_batches(tag_by_nid, batch_format="pandas"), None, num_buckets
    )
    return ids, id_store, rev_store


_KG_ID_CACHE: dict[tuple, tuple] = {}


def _kg_id_tables(sf_dir: str, num_buckets: int):
    """Once-per-session dense id assignment over the KG edge table's
    endpoint set, shared by all five kg_* graph ops: the node set (and
    its order-preserving nids) is identical for pagerank / components /
    BFS / SSSP and a superset for triangles (which drops self-loop-only
    nodes — a superset mapping preserves order on any subset), so the
    endpoint exchange, the global sort, and both id stores are built
    once per corpus per session instead of once per op. Returns
    _assign_ids' (ids, id_store, rev_store); the Ray objects stay alive
    while the cache holds them (driver-owned refs)."""
    from codetoneo4j_ray.pipelines.kg_queries import ensure_kg

    path = ensure_kg(sf_dir)["edges"]
    key = (path, num_buckets)
    hit = _KG_ID_CACHE.get(key)
    if hit is not None:
        return hit
    edges = ray.data.read_parquet(
        path, columns=["subj", "obj"], override_num_blocks=num_buckets
    )
    out = _assign_ids(edges, "subj", "obj", num_buckets)
    while len(_KG_ID_CACHE) >= 4:
        _KG_ID_CACHE.pop(next(iter(_KG_ID_CACHE)))
    _KG_ID_CACHE[key] = out
    return out


def _kg_over(sf_dir: str, op, columns: list[str], **kw) -> ray.data.Dataset:
    """Run the ``*_over`` op on the once-per-corpus built edge table
    (``ensure_kg``'s edges/), with the session's shared id tables."""
    from codetoneo4j_ray.pipelines.kg_queries import ensure_kg

    nb = target_blocks()
    edges = ray.data.read_parquet(
        ensure_kg(sf_dir)["edges"], columns=columns, override_num_blocks=nb
    )
    return op(edges, num_buckets=nb, id_tables=_kg_id_tables(sf_dir, nb), **kw)


def _encode_pairs(
    pairs: ray.data.Dataset,
    num_buckets: int,
    reduce_fn=_dedup,
    id_tables: tuple | None = None,
    extra: tuple[str, ...] = (),
):
    """Shared front half of every string-keyed op: (src, dst) string
    pairs → dense int64 ids and the int-encoded adjacency pinned as a
    BucketStore keyed by _ibucket(src).

    Returns (ids, rev_store, adj): ``ids`` and ``rev_store`` as in
    _assign_ids, and ``adj`` the store, reduced per bucket by
    ``reduce_fn`` — plain dedup by default; pagerank and triangles pass
    _dedup_deg, which also attaches exact out-degrees. Its split is the
    ONLY edge-sized exchange of the plan, and it carries 8-byte keys.
    ``id_tables`` supplies a prebuilt (ids, id_store, rev_store)
    covering (at least) the pairs' endpoints — the kg_* wrappers share
    one via _kg_id_tables."""
    if id_tables is None:
        # read twice (endpoints, then encode): pin it once
        pairs = pairs.materialize()
        id_tables = _assign_ids(pairs, "src", "dst", num_buckets)
    ids, id_store, rev_store = id_tables
    enc = pairs.map_batches(
        _EncodeAdj(id_store, extra=extra),
        batch_format="pandas",
        batch_size=None,
    )
    adj = build_bucket_store(enc, None, num_buckets, reduce_fn=reduce_fn)
    return ids, rev_store, adj


# ---------------------------------------------------------------------------
# PageRank
# ---------------------------------------------------------------------------


def kg_pagerank(
    sf_dir: str,
    iters: int = PAGERANK_ITERS,
    scale: int = PAGERANK_SCALE,
) -> ray.data.Dataset:
    """Fixed-point PageRank over the final KG edge table (see
    :func:`pagerank_over`). Reads the once-per-corpus built edge table
    (``ensure_kg``'s edges/) — pred collapse to pairs still
    happens inside pagerank_over."""
    return _kg_over(sf_dir, pagerank_over, ["subj", "obj"],
                    iters=iters, scale=scale)


@ray.remote
def _rt_pr_step(lbl, num_buckets, adj_refs):
    """One bucket's contribution map: per-dst partial sums of
    r(u) // outdeg(u) over this bucket's pinned adjacency piece,
    map-side combined and routed by dst bucket."""
    empty = _route_empty(num_buckets)
    if lbl is None or lbl.num_rows == 0:
        return empty
    adj = bucket_frame(adj_refs)
    if adj.empty:
        return empty
    df = lbl.to_pandas()
    m = adj.merge(df[["node", "r"]], left_on="src", right_on="node")
    if m.empty:
        return empty
    node, c = _reduce_by(
        m["dst"], m["r"].astype("int64") // m["d"].astype("int64")
    )
    return _route_by_bucket(
        pd.DataFrame({"node": node, "c": c}), "node", num_buckets
    )


@ray.remote
def _rt_pr_reduce(lbl, base, *partials):
    """One bucket's power step: r' = base + 85*sum(contribs)//100 for
    every node this bucket owns (dangling targets survive because the
    node list comes from the bucket's own label table, never from the
    contribution stream)."""
    if lbl is None or lbl.num_rows == 0:
        return pa.table(
            {"node": pa.array([], pa.int64()), "r": pa.array([], pa.int64())}
        )
    m = lbl.to_pandas()[["node"]].copy()
    tabs = [t for t in partials if t is not None]
    if tabs:
        cat = pa.concat_tables(tabs)
        node, c = _reduce_by(cat["node"].to_numpy(), cat["c"].to_numpy())
        s = pd.Series(c, index=node)
        # reindex keeps int64 end-to-end — a left merge would go
        # through float64 and round sums past 2**53 (mass can reach
        # _MAX_SAFE_SUM ≈ 1.1e17)
        m["c"] = s.reindex(m["node"].to_numpy(), fill_value=0).to_numpy()
    else:
        m["c"] = np.int64(0)
    m["r"] = (base + 85 * m["c"].astype("int64") // 100).astype("int64")
    return pa.Table.from_pandas(m[["node", "r"]], preserve_index=False)


def pagerank_over(
    edges: ray.data.Dataset,
    iters: int = PAGERANK_ITERS,
    scale: int = PAGERANK_SCALE,
    num_buckets: int | None = None,
    id_tables: tuple | None = None,
) -> ray.data.Dataset:
    """Fixed-point PageRank (damping 0.85, ``iters`` synchronous steps)
    over distinct (subj, obj) pairs of an edge dataset.

    Update rule, all-BIGINT:  r'(v) = 15*scale//100
    + 85 * sum_{u->v}( r(u) // outdeg(u) ) // 100.

    Output: (node, rank_fp) for every node appearing in any edge,
    sorted by node. Node keys are first densely int64-encoded
    (_encode_pairs), so the one edge exchange and the pinned,
    degree-attached adjacency carry 8-byte keys. Each step is K
    contribution tasks over the pinned adjacency plus K reduce tasks
    over node-sized rank rows, chained by ObjectRefs alone: the driver
    never waits on a step, only on the final decode. The ranks are
    pure arithmetic over the graph structure, so the encoding cannot
    change any output value."""

    if num_buckets is None:
        # buckets double as reduce parallelism AND per-iteration task
        # fan-in; scale them with the cluster instead of a fixed 64
        num_buckets = target_blocks()

    ids, rev_store, store = _encode_pairs(
        edges.map_batches(_pair_rows, batch_format="pyarrow"),
        num_buckets,
        reduce_fn=_dedup_deg,
        id_tables=id_tables,
    )
    # up-front overflow validation: contribution sums are bounded by
    # the total mass n*scale (see _MAX_SAFE_SUM note) — checking here
    # also covers the map-side partial sums, and cannot be fooled by
    # silent int64 wraparound the way a post-hoc max() check could.
    n_nodes = ids.count()
    if n_nodes * scale > _MAX_SAFE_SUM:
        raise OverflowError(
            "pagerank fixed-point mass num_nodes*scale exceeds int64/85; "
            "lower scale"
        )

    base = 15 * scale // 100

    def init_rank(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "node": df["nid"].astype("int64"),
                "r": np.int64(scale),
                "__bucket": _ibucket(df["nid"], num_buckets),
            }
        )

    ranks = ids.map_batches(init_rank, batch_format="pandas")

    if iters > 0:
        # raw-task power iteration (see the raw-task core note): each
        # step is K contribution tasks + K reduce tasks chained purely
        # by ObjectRefs — the driver never syncs until the decode
        rank_refs = _label_store_refs(ranks, num_buckets)
        for _ in range(iters):
            partials = [
                _kret(_rt_pr_step.options(num_returns=num_buckets).remote(
                    rank_refs[k], num_buckets, store.pieces[k]
                ), num_buckets)
                for k in range(num_buckets)
            ]
            rank_refs = [
                _rt_pr_reduce.remote(
                    rank_refs[k], base,
                    *[partials[j][k] for j in range(num_buckets)],
                )
                for k in range(num_buckets)
            ]
        ranks = ray.data.from_arrow_refs(rank_refs)

    return _decode(ranks, rev_store, "r", "rank_fp")


def pagerank_oracle_sql(
    edges_cte: str,
    iters: int = PAGERANK_ITERS,
    scale: int = PAGERANK_SCALE,
) -> str:
    """Unrolled fixed-iteration power-step CTE chain (no recursion —
    the node list must be re-joined every step for dangling nodes,
    which a recursive CTE's single self-reference cannot express).
    BIGINT throughout; ``//`` is DuckDB integer division, and sum() is
    cast back from HUGEINT so the schema stays BIGINT."""
    base = 15 * scale // 100
    steps = []
    prev = "r0"
    for i in range(1, iters + 1):
        steps.append(
            f"""r{i} AS (
            SELECT n.node,
                   CAST({base} + 85 * COALESCE(c.s, 0) // 100 AS BIGINT) AS r
            FROM pr_nodes n LEFT JOIN (
                SELECT p.obj AS node,
                       CAST(sum(r.r // d.d) AS BIGINT) AS s
                FROM {prev} r
                JOIN pr_deg d ON d.node = r.node
                JOIN pr_pairs p ON p.subj = r.node
                GROUP BY p.obj
            ) c ON c.node = n.node
        )"""
        )
        prev = f"r{i}"
    chain = ",\n        ".join(steps)
    return f"""
        WITH {edges_cte},
        pr_pairs AS (SELECT DISTINCT subj, obj FROM all_edges),
        pr_nodes AS (
            SELECT subj AS node FROM pr_pairs
            UNION SELECT obj FROM pr_pairs
        ),
        pr_deg AS (
            SELECT subj AS node, count(*) AS d FROM pr_pairs GROUP BY subj
        ),
        r0 AS (
            SELECT node, CAST({scale} AS BIGINT) AS r FROM pr_nodes
        ),
        {chain}
        SELECT node, r AS rank_fp FROM {prev} ORDER BY node
    """


# ---------------------------------------------------------------------------
# Connected components (min-label propagation to convergence)
# ---------------------------------------------------------------------------


def kg_components(sf_dir: str, max_iters: int = CC_MAX_ITERS) -> ray.data.Dataset:
    """True connected components (min-label ids) over the final KG
    edge table (see :func:`components_over`), from the once-per-corpus
    built edge table."""
    return _kg_over(sf_dir, components_over, ["subj", "obj"],
                    max_iters=max_iters)


# ---------------------------------------------------------------------------
# Raw-task iterative core
#
# The per-round exchange of an iterative fixpoint is node-sized (8-byte
# labels), but a Ray Data sort-based exchange costs ~2 s of planning +
# sort-stage scheduling per round regardless of payload — at sf0.1 the
# actual label exchange inside a pagerank round was ~0.6 s of a 2.6 s
# round. So the inner loops run as raw Ray tasks over bucket-pinned
# label tables instead (the one place the Dataset API genuinely can't
# express the semantics cheaply: a per-round bucket→bucket all-to-all
# with driver-free chaining). Partitioning contract: labels for bucket
# k are exactly the nodes with _ibucket(nid) == k, matching the pinned
# adjacency's _ibucket(src) tags, so step task k needs only adjacency
# piece k and emits candidate partials routed by _ibucket(dst). Each
# round is K step tasks (num_returns=K min-combined partials) + K
# reduce tasks (num_returns=2: new labels + (changed, rows)); the driver
# syncs only on K tiny int pairs per round. Step tasks read their
# adjacency piece through the worker bucket cache (bucketing.bucket_frame),
# so a reused worker process fetches each piece once across all rounds.
# At cluster scale every object stays in the object store and K scales
# with the cluster (target_blocks), exactly like the BucketStore pieces.
# ---------------------------------------------------------------------------


def _empty_label_tbl() -> pa.Table:
    return pa.table(
        {
            "node": pa.array([], pa.int64()),
            "lbl": pa.array([], pa.int64()),
            "chg": pa.array([], pa.bool_()),
        }
    )


def _route_by_bucket(df: pd.DataFrame, col, num_buckets: int):
    """Split ``df`` into a K-tuple of per-bucket Arrow tables (None for
    empty buckets) routed by _ibucket(df[col]). With K == 1 the bare
    element is returned instead: these values are task returns under
    ``num_returns=K``, and Ray only unpacks a tuple when K > 1."""
    if df.empty:
        return _route_empty(num_buckets)
    ids = _ibucket(df[col], num_buckets)
    out: list = [None] * num_buckets
    for k in np.unique(ids):
        out[int(k)] = pa.Table.from_pandas(
            df[ids == k], preserve_index=False
        )
    return out[0] if num_buckets == 1 else tuple(out)


def _route_empty(num_buckets: int):
    """The all-empty value of _route_by_bucket for K buckets."""
    return None if num_buckets == 1 else tuple([None] * num_buckets)


def _kret(refs, num_buckets: int) -> list:
    """Normalize ``options(num_returns=K).remote(...)``: Ray hands back
    a bare ObjectRef when K == 1, a list otherwise — callers index
    ``refs[k]`` either way."""
    return [refs] if num_buckets == 1 else refs


@ray.remote
def _rt_min_step(lbl, num_buckets, cutoff, weight_col, adj_refs):
    """One bucket's propagation map: min-combined neighbor candidates
    (node, cand = lbl + edge weight, or lbl when ``weight_col`` is
    None) for this bucket's frontier rows, routed by dst bucket.
    ``adj_refs`` arrives unresolved (inside a list) so the
    worker-process cache can key on ref identity."""
    empty = _route_empty(num_buckets)
    if lbl is None or lbl.num_rows == 0:
        return empty
    df = lbl.to_pandas()
    fr = df[df["chg"]]
    if cutoff is not None:
        fr = fr[fr["lbl"] < cutoff]
    if fr.empty:
        return empty
    adj = bucket_frame(adj_refs)
    if adj.empty:
        return empty
    m = adj.merge(fr[["node", "lbl"]], left_on="src", right_on="node")
    if m.empty:
        return empty
    step = m[weight_col] if weight_col else 0
    node, cand = _reduce_by(m["dst"], m["lbl"] + step, np.minimum)
    return _route_by_bucket(
        pd.DataFrame({"node": node, "cand": cand}), "node", num_buckets
    )


@ray.remote(num_returns=2)
def _rt_min_reduce(lbl, *partials):
    """One bucket's reduce: lbl ← min(lbl, candidates); returns the new
    label table and (how many labels changed, rows) — the driver's
    convergence signal and, once converged, which buckets hold labels
    (K int pairs per round, never tables)."""
    if lbl is None or lbl.num_rows == 0:
        return _empty_label_tbl(), (0, 0)
    tabs = [t for t in partials if t is not None]
    df = lbl.to_pandas()
    if not tabs:
        if bool(df["chg"].any()):
            df = df.copy()
            df["chg"] = False
            return pa.Table.from_pandas(df, preserve_index=False), (0, len(df))
        return lbl, (0, len(df))
    cat = pa.concat_tables(tabs)
    node, cand = _reduce_by(cat["node"].to_numpy(), cat["cand"].to_numpy(),
                            np.minimum)
    old = df["lbl"].to_numpy()
    # int64-preserving lookup: reindex with an int fill never routes
    # through float64 (a left merge would, silently rounding values
    # past 2**53); int64-max loses every min() against a real label
    c = pd.Series(cand, index=node).reindex(
        df["node"].to_numpy(), fill_value=np.iinfo(np.int64).max
    ).to_numpy()
    new = np.minimum(old, c)
    chg = new < old
    out = pd.DataFrame(
        {"node": df["node"].astype("int64"), "lbl": new.astype("int64"),
         "chg": chg}
    )
    return (pa.Table.from_pandas(out, preserve_index=False),
            (int(chg.sum()), len(out)))


@ray.remote
def _rt_jump_seek(lbl, num_buckets):
    """Pointer-jump phase 1: every label row asks bucket-of-lbl for its
    own label. Emits (node, val=lbl, chg, key=lbl) routed by
    _ibucket(lbl)."""
    if lbl is None or lbl.num_rows == 0:
        return _route_empty(num_buckets)
    df = lbl.to_pandas()
    seek = pd.DataFrame(
        {
            "key": df["lbl"].astype("int64"),
            "node": df["node"].astype("int64"),
            "val": df["lbl"].astype("int64"),
            "chg": df["chg"].astype(bool),
        }
    )
    return _route_by_bucket(seek, "key", num_buckets)


@ray.remote
def _rt_jump_answer(lbl, num_buckets, *seeks):
    """Pointer-jump phase 2: this bucket resolves key → its label for
    every seeker; answers (node, lbl=min(val, lbl(lbl)), chg|lowered)
    are routed back by _ibucket(node)."""
    tabs = [t for t in seeks if t is not None]
    if not tabs:
        return _route_empty(num_buckets)
    s = pa.concat_tables(tabs).to_pandas()
    if lbl is None or lbl.num_rows == 0:
        prov = pd.Series(dtype="int64")
    else:
        p = lbl.to_pandas()
        prov = p.set_index("node")["lbl"]
    j = s["key"].map(prov).fillna(s["val"]).astype("int64")
    lowered = j.to_numpy() < s["val"].to_numpy()
    out = pd.DataFrame(
        {
            "node": s["node"].astype("int64").to_numpy(),
            "lbl": np.minimum(j.to_numpy(), s["val"].to_numpy()),
            "chg": s["chg"].to_numpy() | lowered,
        }
    )
    return _route_by_bucket(out, "node", num_buckets)


@ray.remote
def _rt_concat_labels(*tabs):
    ts = [t for t in tabs if t is not None and t.num_rows]
    return pa.concat_tables(ts) if ts else _empty_label_tbl()


def _rt_pointer_jump(label_refs: list, num_buckets: int) -> list:
    seeks = [
        _kret(_rt_jump_seek.options(num_returns=num_buckets).remote(
            label_refs[k], num_buckets
        ), num_buckets)
        for k in range(num_buckets)
    ]
    answers = [
        _kret(_rt_jump_answer.options(num_returns=num_buckets).remote(
            label_refs[k], num_buckets,
            *[seeks[j][k] for j in range(num_buckets)],
        ), num_buckets)
        for k in range(num_buckets)
    ]
    return [
        _rt_concat_labels.remote(*[answers[j][k] for j in range(num_buckets)])
        for k in range(num_buckets)
    ]


def _label_store_refs(labels: ray.data.Dataset, num_buckets: int) -> list:
    """Pin a __bucket-tagged label dataset as one ObjectRef per bucket
    (None possible for empty buckets — the loop tasks tolerate it)."""
    store = build_bucket_store(labels, None, num_buckets)
    return [p[0] for p in store.pieces]


def _rt_label_loop(
    adj,
    label_refs: list,
    num_buckets: int,
    *,
    cutoff: int | None = None,
    weight_col: str | None = None,
    max_iters: int,
    op_name: str,
    jump: bool = False,
    raise_msg: str,
) -> list:
    """Run min-label propagation rounds over bucket-pinned labels until
    the frontier empties; raise past ``max_iters`` (exact — convergence
    is tested every round). Returns the final label refs of the buckets
    that hold labels (at least one ref), so sparse graphs' empty
    buckets never reach the output."""
    rounds = 0
    while True:
        partials = [
            _kret(_rt_min_step.options(num_returns=num_buckets).remote(
                label_refs[k], num_buckets, cutoff, weight_col,
                adj.pieces[k],
            ), num_buckets)
            for k in range(num_buckets)
        ]
        results = [
            _rt_min_reduce.remote(
                label_refs[k],
                *[partials[j][k] for j in range(num_buckets)],
            )
            for k in range(num_buckets)
        ]
        label_refs = [r[0] for r in results]
        stats = ray.get([r[1] for r in results])
        rounds += 1
        if sum(changed for changed, _ in stats) == 0:
            LAST_RUN_ROUNDS[op_name] = rounds
            kept = [r for r, (_, rows) in zip(label_refs, stats) if rows]
            return kept or label_refs[:1]
        if rounds >= max_iters:
            raise RuntimeError(raise_msg.format(max_iters=max_iters))
        if jump and rounds % _CHAIN_CHECKPOINT == 0:
            label_refs = _rt_pointer_jump(label_refs, num_buckets)


@ray.remote
def _rt_init_labels_from_adj(*pieces):
    """Seed a bucket's label table from its pinned symmetric adjacency
    piece: distinct src = exactly this bucket's node set (symmetry puts
    every endpoint on the src side of its own bucket), label = own id.
    Runs next to the pinned object — no extra exchange for init."""
    tabs = [t for t in pieces if t is not None and t.num_rows]
    if not tabs:
        return _empty_label_tbl()
    src = np.unique(
        np.concatenate(
            [t.column("src").to_numpy(zero_copy_only=False) for t in tabs]
        ).astype("int64")
    )
    return pa.table(
        {
            "node": pa.array(src, pa.int64()),
            "lbl": pa.array(src, pa.int64()),
            "chg": pa.array(np.ones(len(src), bool)),
        }
    )


def _components(adj, num_buckets: int, max_iters: int, op_name: str,
                who: str) -> ray.data.Dataset:
    """The one components core: labels seeded per bucket from the
    pinned SYMMETRIC int adjacency, min-label rounds with pointer
    jumps until the frontier empties. Returns (node, lbl, chg) label
    rows, lbl = the minimum int id of node's component."""
    label_refs = _rt_label_loop(
        adj,
        [
            _rt_init_labels_from_adj.remote(*adj.pieces[k])
            for k in range(num_buckets)
        ],
        num_buckets,
        max_iters=max_iters,
        op_name=op_name,
        jump=True,
        raise_msg=(
            who + " did not converge within {max_iters} "
            "min-label rounds; raise max_iters"
        ),
    )
    return ray.data.from_arrow_refs(label_refs)


def components_over(
    edges: ray.data.Dataset,
    max_iters: int = CC_MAX_ITERS,
    num_buckets: int | None = None,
    id_tables: tuple | None = None,
) -> ray.data.Dataset:
    """TRUE connected components over the symmetric closure of the
    distinct (subj, obj) pairs: every node starts labeled with its own
    key; synchronous min-label rounds (each taking the MIN over its
    own and all neighbors' labels) run UNTIL THE FRONTIER EMPTIES,
    with a pointer-jump (label ← label-of-label) every
    _CHAIN_CHECKPOINT rounds so path-shaped components converge in
    O(log n) rounds rather than O(diameter). At the fixpoint every
    node's label is exactly its component's minimum key — this is the
    real CC semantics, and the oracle (components_oracle_sql) is an
    until-fixpoint recursive reachability query, not an unrolled
    approximation.

    ``max_iters`` is a pure runaway guard: if the frontier is still
    non-empty after that many propagation rounds the op RAISES rather
    than returning partial labels (with jumping, hitting 512 would
    take a graph beyond any physical size).

    Plan: encode → components_over_int's core → decode. The
    symmetric pairs map to dense ORDER-PRESERVING int64 ids
    (assign_order_ids, so integer MIN agrees with lexicographic MIN)
    and are pinned, deduped, as the adjacency store in the one edge
    exchange; the label loop then runs on those ids exactly as
    components_over_int does, and only the final labels map back to
    keys. Output (node, comp), sorted by node."""
    if max_iters < 1:
        raise ValueError("components_over requires max_iters >= 1")
    if num_buckets is None:
        num_buckets = target_blocks()
    _ids, rev_store, adj = _encode_pairs(
        edges.map_batches(_pair_rows, fn_kwargs={"sym": True},
                          batch_format="pyarrow"),
        num_buckets,
        id_tables=id_tables,
    )
    labels = _components(adj, num_buckets, max_iters, "components",
                         "components_over")
    return _decode(labels, rev_store, "lbl", "comp",
                   val_is_nid=True)


def components_over_int(
    pairs: ray.data.Dataset,
    *,
    max_iters: int = CC_MAX_ITERS,
    num_buckets: int | None = None,
    src: str = "src",
    dst: str = "dst",
    op_name: str = "components_int",
) -> ray.data.Dataset:
    """components_over for pairs whose endpoints are ALREADY int64:
    skips the string-id encode/decode round trip entirely — numeric
    MIN over the caller's own ids is the wanted semantics, so the
    pinned adjacency, per-round 8-byte label exchanges, and the final
    output all carry those ids directly. Symmetrizes map-side; one
    edge-sized exchange total (the store split, deduped per bucket);
    labels seeded per bucket from the pinned adjacency (no init
    exchange). Returns (node, comp) sorted by node; raises past
    ``max_iters`` like components_over (exact bound)."""
    if max_iters < 1:
        raise ValueError("components_over_int requires max_iters >= 1")
    if num_buckets is None:
        num_buckets = target_blocks()

    def sym(b: pa.Table) -> pa.Table:
        a = b[src].to_numpy(zero_copy_only=False).astype("int64")
        c = b[dst].to_numpy(zero_copy_only=False).astype("int64")
        df = pd.DataFrame(
            {
                "src": np.concatenate([a, c]),
                "dst": np.concatenate([c, a]),
            }
        ).drop_duplicates()
        df["__bucket"] = _ibucket(df["src"], num_buckets)
        return pa.Table.from_pandas(df, preserve_index=False)

    adj = build_bucket_store(
        pairs.map_batches(sym, batch_format="pyarrow"), None, num_buckets,
        reduce_fn=_dedup,
    )

    def finish(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "node": batch.column("node"),
                "comp": batch.column("lbl"),
            }
        )

    return (
        _components(adj, num_buckets, max_iters, op_name, op_name)
        .map_batches(finish, batch_format="pyarrow")
        .sort("node")
    )


def components_oracle_sql(edges_cte: str) -> str:
    """TRUE connected components, until fixpoint: recursive
    reachability over the symmetric closure — reach(v) accumulates the
    labels of every node that can reach v, and UNION-dedup on the
    (node, lbl) pair guarantees termination on cycles — then MIN per
    node. Independent of the Ray side's propagation/jumping schedule,
    so it checks the real CC semantics, not an iteration count."""
    return f"""
        WITH RECURSIVE {edges_cte},
        cc_pairs AS (SELECT DISTINCT subj, obj FROM all_edges),
        cc_sym AS (
            SELECT subj AS src, obj AS dst FROM cc_pairs
            UNION SELECT obj, subj FROM cc_pairs
        ),
        cc_nodes AS (SELECT DISTINCT src AS node FROM cc_sym),
        cc_reach(node, lbl) AS (
            SELECT node, node FROM cc_nodes
            UNION
            SELECT e.dst, r.lbl FROM cc_reach r JOIN cc_sym e ON e.src = r.node
        )
        SELECT node, min(lbl) AS comp FROM cc_reach GROUP BY node ORDER BY node
    """


# ---------------------------------------------------------------------------
# Multi-source BFS depth and weighted shortest distance from repo roots
# ---------------------------------------------------------------------------

BFS_ROOT_PRED = "src__HAS_FILE"  # repo → file edges (see materialize.py preds)
_UNREACHED = 2**62  # depth sentinel; +iters stays far below int64 max

# edge costs: structural containment (repo→file, file→symbol) is cheap,
# semantic hops (INVOKES / DEPENDS_ON / HAS_TAG / HAS_URL / ...) cost
# more — so dist ranks "how far from the project surface a symbol sits
# semantically", not just hop count. Fixed integer weights keep the
# whole op BIGINT-exact for the strict oracle.
_SSSP_CHEAP_PREDS = ("src__HAS_FILE", "src__DECLARES")
_SSSP_CHEAP_W = 1
_SSSP_FAR_W = 3
SSSP_MAX_DIST = 255  # distance budget: output contract AND oracle walk cap
SSSP_MAX_ITERS = 256  # ≥ budget/min-weight rounds always suffice


def kg_bfs_depth(sf_dir: str, max_iters: int = BFS_MAX_ITERS) -> ray.data.Dataset:
    """Directed BFS depth from the repo roots (subjects of
    BFS_ROOT_PRED edges) over the final KG edge table (see
    :func:`bfs_depth_over`), from the once-per-corpus built edge
    table."""
    return _kg_over(sf_dir, bfs_depth_over, ["subj", "pred", "obj"],
                    max_iters=max_iters)


def kg_sssp(sf_dir: str, max_iters: int = SSSP_MAX_ITERS) -> ray.data.Dataset:
    """Weighted shortest distance from the repo roots over the final KG
    edge table (see :func:`sssp_over`), from the once-per-corpus built
    edge table."""
    return _kg_over(sf_dir, sssp_over, ["subj", "pred", "obj"],
                    max_iters=max_iters)


class _InitDist(_LookupJoin):
    """ids (node, nid) → bucket-tagged label rows: 0 for the nodes the
    roots store holds, the unreached sentinel for every other node."""

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        if not len(batch):
            return pd.DataFrame(
                {
                    "node": pd.Series([], dtype="int64"),
                    "lbl": pd.Series([], dtype="int64"),
                    "chg": pd.Series([], dtype=bool),
                    "__bucket": pd.Series([], dtype="int32"),
                }
            )
        is_root = self._mapping(batch["node"], "node", "is_root").notna()
        return pd.DataFrame(
            {
                "node": batch["nid"].astype("int64"),
                "lbl": np.where(is_root, 0, _UNREACHED).astype("int64"),
                "chg": True,
                "__bucket": _ibucket(batch["nid"], self._k),
            }
        )


def _root_distance_over(
    edges: ray.data.Dataset,
    *,
    roots_pred: str,
    cheap_preds: tuple[str, ...],
    far_w: int,
    budget: int,
    max_iters: int,
    num_buckets: int | None,
    id_tables: tuple | None,
    op_name: str,
    out: str,
    raise_msg: str,
) -> ray.data.Dataset:
    """The body shared by bfs_depth_over and sssp_over: multi-source
    min-distance relaxation over the directed distinct (subj, obj, w)
    edges, w = _SSSP_CHEAP_W for ``cheap_preds`` and ``far_w``
    otherwise, from the distinct subjects of ``roots_pred`` edges, run
    until the frontier empties. Output (node, ``out``) for every node
    at distance ≤ ``budget``, sorted by node.

    Same machinery as components (dense int64 ids, pinned int-encoded
    adjacency — the weight rides in it, never an exchange — frontier
    steps, one node-sized exchange per round) minus the pointer jump
    (distances are not node ids, so shortcutting does not apply);
    roots are marked by store lookup, never a driver-side collection.
    ``budget`` is also the frontier cutoff: a node at distance ≥
    budget cannot relax any neighbor to ≤ budget (weights ≥ 1), and
    every ≤-budget path's prefixes are below it, so pruning loses
    nothing."""
    if num_buckets is None:
        num_buckets = target_blocks()
    cheap = set(cheap_preds)

    def wpairs(b: pa.Table) -> pa.Table:
        df = b.to_pandas()[["subj", "pred", "obj"]]
        w = np.where(df["pred"].isin(cheap), _SSSP_CHEAP_W, far_w)
        out = pd.DataFrame(
            {"src": df["subj"], "dst": df["obj"], "w": w.astype("int64")}
        ).drop_duplicates()
        return pa.Table.from_pandas(out, preserve_index=False)

    ids, rev_store, adj = _encode_pairs(
        edges.map_batches(wpairs, batch_format="pyarrow"), num_buckets,
        id_tables=id_tables, extra=("w",),
    )

    def root_rows(b: pa.Table) -> pa.Table:
        df = b.to_pandas()
        r = df.loc[df["pred"] == roots_pred, ["subj"]].drop_duplicates()
        return pa.table(
            {
                "node": pa.array(r["subj"].to_numpy(), pa.string()),
                "is_root": pa.array(np.ones(len(r), "int64")),
            }
        )

    roots_store = build_bucket_store(
        edges.map_batches(root_rows, batch_format="pyarrow"), ["node"],
        num_buckets, reduce_fn=_dedup,
    )
    labels = ids.map_batches(
        _InitDist(roots_store),
        batch_format="pandas",
        batch_size=None,
    )
    # convergence is tested every round, so a graph whose max finite
    # distance needs max_iters+1 rounds RAISES at exactly max_iters — it
    # can never converge past the bound and return distances the
    # oracle's capped walk doesn't generate
    label_refs = _rt_label_loop(
        adj,
        _label_store_refs(labels, num_buckets),
        num_buckets,
        cutoff=budget,
        weight_col="w",
        max_iters=max_iters,
        op_name=op_name,
        raise_msg=raise_msg,
    )
    return _decode(ray.data.from_arrow_refs(label_refs), rev_store, "lbl",
                   out, max_val=budget)


def bfs_depth_over(
    edges: ray.data.Dataset,
    roots_pred: str = BFS_ROOT_PRED,
    max_iters: int = BFS_MAX_ITERS,
    num_buckets: int | None = None,
    id_tables: tuple | None = None,
) -> ray.data.Dataset:
    """Multi-source BFS over the DIRECTED distinct (subj, obj) pairs,
    run UNTIL THE WAVE EMPTIES: roots (distinct subjects of
    ``roots_pred`` edges) start at depth 0, everything else at an
    unreached sentinel; each synchronous round takes
    min(depth, min over in-neighbors (their depth + 1)). Output
    (node, depth) for every REACHABLE node — true shortest hop counts,
    sorted by node.

    ``max_iters`` is the convergence-safety bound: BFS needs exactly
    max-finite-depth rounds, so if the wave is still moving after
    ``max_iters`` rounds the op RAISES rather than returning truncated
    depths. The oracle caps its recursive walk at the same bound, so
    whenever the Ray side succeeds the two are exactly equal — raise
    both together for unusually deep graphs.

    The unit-weight case of sssp_over's relaxation
    (_root_distance_over), with no budget short of the sentinel."""
    if max_iters < 1:
        raise ValueError("bfs_depth_over requires max_iters >= 1")
    return _root_distance_over(
        edges, roots_pred=roots_pred, cheap_preds=(), far_w=1,
        budget=_UNREACHED - 1, max_iters=max_iters,
        num_buckets=num_buckets, id_tables=id_tables, op_name="bfs",
        out="depth",
        raise_msg=(
            "bfs_depth_over did not converge within {max_iters} "
            "rounds; raise max_iters (and the oracle cap) together"
        ),
    )


def bfs_depth_oracle_sql(
    edges_cte: str,
    roots_pred: str = BFS_ROOT_PRED,
    max_depth: int = BFS_MAX_ITERS,
) -> str:
    """True BFS depths via a recursive walk capped at ``max_depth``
    (the cap guarantees termination on cycles; UNION dedups the
    (node, d) pairs so cycle spinning is bounded by n*max_depth rows).
    min(d) per node is the shortest hop count for every node whose
    true depth is ≤ the cap — and the Ray side RAISES beyond the same
    bound, so whenever it returns at all the two agree exactly."""
    return f"""
        WITH RECURSIVE {edges_cte},
        bfs_adj AS (SELECT DISTINCT subj AS src, obj AS dst FROM all_edges),
        bfs_roots AS (
            SELECT DISTINCT subj AS node FROM all_edges
            WHERE pred = '{roots_pred}'
        ),
        bfs_walk(node, d) AS (
            SELECT node, CAST(0 AS BIGINT) FROM bfs_roots
            UNION
            SELECT e.dst, w.d + 1
            FROM bfs_walk w JOIN bfs_adj e ON e.src = w.node
            WHERE w.d < {max_depth}
        )
        SELECT node, min(d) AS depth FROM bfs_walk
        GROUP BY node ORDER BY node
    """


def sssp_over(
    edges: ray.data.Dataset,
    roots_pred: str = BFS_ROOT_PRED,
    cheap_preds: tuple[str, ...] = _SSSP_CHEAP_PREDS,
    budget: int = SSSP_MAX_DIST,
    max_iters: int = SSSP_MAX_ITERS,
    num_buckets: int | None = None,
    id_tables: tuple | None = None,
) -> ray.data.Dataset:
    """Multi-source WEIGHTED shortest distance (synchronous Bellman-Ford
    relaxation with frontier deltas) over the directed distinct
    (subj, obj, w) edges, where w = _SSSP_CHEAP_W for ``cheap_preds``
    and _SSSP_FAR_W otherwise: roots (subjects of ``roots_pred`` edges)
    start at 0; each round takes min(dist, min over in-edges
    (src dist + w)). Runs until the frontier empties; output
    (node, dist) for every node with dist ≤ ``budget``, sorted by node.

    The budget is the op's contract on BOTH sides: the oracle caps its
    recursive walk at the same total cost (which also bounds its cycle
    expansion), and budget-pruning the Ray frontier is exact because
    every ≤-budget path's prefixes are themselves ≤ budget. Positive
    integer weights bound convergence by budget/min-weight rounds, so
    ``max_iters`` = 256 can only trip on a genuine runaway — and then
    it RAISES rather than returning partial distances (see
    _root_distance_over for the shared plan)."""
    if max_iters < 1:
        raise ValueError("sssp_over requires max_iters >= 1")
    return _root_distance_over(
        edges, roots_pred=roots_pred, cheap_preds=tuple(cheap_preds),
        far_w=_SSSP_FAR_W, budget=budget, max_iters=max_iters,
        num_buckets=num_buckets, id_tables=id_tables, op_name="sssp",
        out="dist",
        raise_msg=(
            "sssp_over did not converge within {max_iters} "
            "relaxation rounds; raise max_iters"
        ),
    )


def sssp_oracle_sql(
    edges_cte: str,
    roots_pred: str = BFS_ROOT_PRED,
    budget: int = SSSP_MAX_DIST,
) -> str:
    """True weighted shortest distances via a recursive walk whose
    total cost is capped at ``budget`` (the cap both matches the Ray
    side's output contract and bounds cycle expansion — UNION dedups
    (node, d) pairs, d ≤ budget, so the walk set is finite)."""
    return f"""
        WITH RECURSIVE {edges_cte},
        sssp_adj AS (
            SELECT DISTINCT subj AS src, obj AS dst,
                   CAST(CASE WHEN pred IN ('src__HAS_FILE', 'src__DECLARES')
                        THEN {_SSSP_CHEAP_W} ELSE {_SSSP_FAR_W} END
                        AS BIGINT) AS w
            FROM all_edges
        ),
        sssp_roots AS (
            SELECT DISTINCT subj AS node FROM all_edges
            WHERE pred = '{roots_pred}'
        ),
        sssp_walk(node, d) AS (
            SELECT node, CAST(0 AS BIGINT) FROM sssp_roots
            UNION
            SELECT e.dst, w.d + e.w
            FROM sssp_walk w JOIN sssp_adj e ON e.src = w.node
            WHERE w.d + e.w <= {budget}
        )
        SELECT node, min(d) AS dist FROM sssp_walk
        GROUP BY node ORDER BY node
    """


# ---------------------------------------------------------------------------
# Triangle counting
# ---------------------------------------------------------------------------


def kg_triangles(sf_dir: str, k: int = TRIANGLE_TOPK_K) -> ray.data.Dataset:
    """Triangle participation top-k over the final KG edge table (see
    :func:`triangles_over`). Reads the once-per-corpus built edge table
    (``ensure_kg``'s edges/); the canonical-undirected-pair
    collapse still folds preds/directions."""
    return _kg_over(sf_dir, triangles_over, ["subj", "obj"], k=k)


class _BucketTriangles(_LookupJoin):
    """One bucket of the pinned symmetric, degree-attached adjacency
    (src, dst, d = deg(src)) → per-node triangle-participation partial
    counts (node, n_tri), tagged by _ibucket(node) for the count merge.

    In one task: look up deg(dst) in dst's own bucket (where dst is a
    src row), keep the edges oriented from their (degree, nid)-smaller
    endpoint — every oriented out-edge of a src sits in src's bucket,
    so wedges (center = src, a < b its oriented out-neighbors) are
    generated locally — and close each wedge by looking (a, b) up in
    a's bucket. The O(m^1.5) wedge rows never leave the task."""

    def __call__(self, adj: pd.DataFrame) -> pd.DataFrame:
        s = adj["src"].to_numpy(dtype="int64")
        t = adj["dst"].to_numpy(dtype="int64")
        ds = adj["d"].to_numpy(dtype="int64")
        dt = self._mapping(adj["dst"], "src", "d").to_numpy(dtype="int64")
        # (degree, nid) order ≡ (degree, key) order: nids preserve it
        fwd = (ds < dt) | ((ds == dt) & (s < t))
        o = pd.DataFrame({"center": s[fwd], "a": t[fwd]})
        wedges = o.merge(o.rename(columns={"a": "b"}), on="center")
        wedges = wedges[wedges["a"] < wedges["b"]]
        ka = _ibucket(wedges["a"], self._k)
        hits = []
        for k in np.unique(ka):
            e = bucket_frame(self._store.pieces[int(k)])[["src", "dst"]]
            m = wedges[ka == k].merge(
                e.rename(columns={"src": "a", "dst": "b"}), on=["a", "b"]
            )
            hits += [m["center"], m["a"], m["b"]]
        cnt = (
            pd.concat(hits).value_counts()
            if hits
            else pd.Series([], dtype="int64")
        )
        nodes = cnt.index.to_numpy(dtype="int64")
        return pd.DataFrame(
            {
                "node": nodes,
                "n_tri": cnt.to_numpy().astype("int64"),
                "__bucket": _ibucket(nodes, self._k),
            }
        )


def triangles_over(
    edges: ray.data.Dataset,
    k: int = TRIANGLE_TOPK_K,
    num_buckets: int | None = None,
    id_tables: tuple | None = None,
) -> ray.data.Dataset:
    """Top-k nodes by triangle participation over the undirected,
    self-loop-free distinct pair graph of an edge dataset.

    Plan (Cohen's degree-oriented MapReduce scheme), entirely over
    dense int64 node ids: symmetric self-loop-free string pairs
    map-side → int encoding pinned as the symmetric adjacency with
    exact degrees attached (_encode_pairs: the one edge exchange) →
    one task per bucket orients, generates and closes wedges by
    bucket lookups (_BucketTriangles: no exchange) → count merge (one
    node-sized exchange) + local top-k / global top-k, tie-broken by
    nid ≡ key order → decode the ≤k winners back to strings. Output
    (node, n_tri), ordered by node."""

    if num_buckets is None:
        num_buckets = target_blocks()

    _ids, rev_store, adj = _encode_pairs(
        edges.map_batches(_pair_rows, fn_kwargs={"sym": True, "loops": False},
                          batch_format="pyarrow"),
        num_buckets,
        reduce_fn=_dedup_deg,
        id_tables=id_tables,
    )
    partials = apply_store(adj, _BucketTriangles(adj))

    def topk(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(
            ["n_tri", "node"], ascending=[False, True], kind="stable"
        ).head(k)
        df["n_tri"] = df["n_tri"].astype("int64")
        return df

    def merge_counts(df: pd.DataFrame) -> pd.DataFrame:
        node, n_tri = _reduce_by(df["node"], df["n_tri"])
        return topk(pd.DataFrame({"node": node, "n_tri": n_tri}))

    counts = apply_store(
        build_bucket_store(partials, None, num_buckets, consolidate=False),
        merge_counts,
    )
    winners = bucketed_apply_tasks(counts, [], topk)
    return _decode(winners, rev_store, "n_tri", "n_tri")


def triangles_oracle_sql(edges_cte: str, k: int = TRIANGLE_TOPK_K) -> str:
    """Independent enumeration: key-ordered canonical triangles via a
    3-way self-join, then per-node participation counts."""
    return f"""
        WITH {edges_cte},
        tri_und AS (
            SELECT DISTINCT least(subj, obj) AS a, greatest(subj, obj) AS b
            FROM (SELECT DISTINCT subj, obj FROM all_edges)
            WHERE subj <> obj
        ),
        tri AS (
            SELECT e1.a AS x, e1.b AS y, e2.b AS z
            FROM tri_und e1
            JOIN tri_und e2 ON e2.a = e1.b
            JOIN tri_und e3 ON e3.a = e1.a AND e3.b = e2.b
        ),
        pernode AS (
            SELECT node, count(*) AS n_tri FROM (
                SELECT x AS node FROM tri
                UNION ALL SELECT y FROM tri
                UNION ALL SELECT z FROM tri
            ) GROUP BY node
        ),
        ranked AS (
            SELECT node, n_tri, row_number() OVER (
                ORDER BY n_tri DESC, node
            ) AS rn FROM pernode
        )
        SELECT node, n_tri FROM ranked WHERE rn <= {k} ORDER BY node
    """
