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

Scale plan (the part that matters at 100 TB): all five ops run on one
encoded graph (:func:`encode_graph`), built and iterated by raw Ray
tasks with no Ray Data execution:

* Node keys become dense ORDER-PRESERVING int64 ids through the
  sample → bounds → split exchange of the build's graph tail
  (``canonicalize.key_sample`` / ``range_bounds`` / ``range_ids``):
  each key range sorts its distinct endpoints, so a key's id is its
  range's offset plus its position, the offsets a prefix over the
  ranges' counts. No global sort, and integer MIN or order over ids
  is key MIN or order (code-point order for strings, as in DuckDB's
  ORDER BY), so every edge-sized and per-iteration exchange carries
  8-byte integers instead of repeated long symbol strings
  (``repo:Namespace.Type.Method(params)``).
* The edges cross one exchange, encoded map-side into (src, dst, pred
  code) rows split by the range of src and pinned, distinct, one
  object per range: the directed adjacency. Its symmetric view
  (components, triangles) is derived from it by one more int-only
  exchange; per-op views (out-degrees, weights, roots) are derived
  inside the bucket tasks through the worker cache
  (``bucketing.cached_view``).
* The range is the bucket of everything after: range k's labels are
  the ids in [offset[k], offset[k+1]), a row routes to
  ``searchsorted(offsets, id)``, each range decodes its own rows, and
  the decoded ranges concatenated in order are sorted by node.
* The range count is ``blocks_for(adjacency bytes)``: a graph that
  fits one block runs in one range on any cluster.

On that substrate:

* PageRank's ``iters`` steps shuffle only node-sized rank rows plus
  map-side-combined contribution partials between per-range tasks.
* Components/BFS/SSSP propagate int64 labels against the pinned
  adjacency with frontier (delta) filtering; pointer-jumping turns
  path-shaped component convergence from O(diameter) into O(log n)
  rounds.
* Triangle counting orients, generates and closes wedges inside one
  task per range of the symmetric adjacency, so the wedge stream —
  the largest intermediate in any triangle plan, O(m^1.5) rows —
  never enters an exchange; only per-node counts do.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from codetoneo4j_ray.stages.bucketing import (
    Blocks,
    blocks_for,
    bucket_frame,
    cached_view,
    load_block,
    parquet_files,
    pinned,
    plan_reads,
    read_blocks,
    split_by_ids,
)
from codetoneo4j_ray.stages.canonicalize import (
    SAMPLE_KEYS,
    key_sample,
    range_bounds,
    range_ids,
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


# ---------------------------------------------------------------------------
# The encoded graph shared by all five ops
# ---------------------------------------------------------------------------

# directed adjacency rows: node ids and the edge's pred code (its index
# in the graph's sorted preds; -1 for an edge table without preds)
_ADJ = pa.schema([("src", pa.int64()), ("dst", pa.int64()),
                  ("pred", pa.int32())])
_SYM = pa.schema([("src", pa.int64()), ("dst", pa.int64())])
_ADJ_ROW_BYTES = sum(f.type.bit_width for f in _ADJ) // 8


@dataclass
class EncodedGraph:
    """An edge table as dense int64 node ids (module docstring). Range
    k holds the ids [``offsets[k]``, ``offsets[k + 1]``): ``nodes[k]`` is
    the ref of its sorted distinct keys (column ``node``; None for an
    empty range) and ``adj[k]`` of its directed (src, dst, pred) rows,
    src in the range. ``preds`` are the sorted distinct preds the pred
    codes index."""

    nodes: list
    offsets: np.ndarray
    preds: list
    adj: list
    _sym: list | None = None

    @property
    def num_ranges(self) -> int:
        return len(self.adj)

    def ranges(self):
        """(first id, end id) of each range."""
        return zip(self.offsets[:-1].tolist(), self.offsets[1:].tolist())

    def code(self, pred: str) -> int | None:
        return self.preds.index(pred) if pred in self.preds else None

    def sym(self) -> list:
        """Per range, the ref of the distinct symmetric (src, dst) rows
        with src in the range; built on first use by one int-only
        exchange of the directed adjacency."""
        if self._sym is None:
            n = self.num_ranges
            rev = [_split_remote(_rt_symmetric, n, a, self.offsets)
                   for a in self.adj]
            self._sym = pinned([_rt_distinct.remote(
                _SYM, *[r[k] for r in rev]) for k in range(n)])
        return self._sym


def _endpoints(table: pa.Table) -> pa.ChunkedArray:
    return pa.chunked_array(table["subj"].chunks + table["obj"].chunks,
                            table["subj"].type)


def _routed(df: pd.DataFrame, col: str, offsets: np.ndarray) -> tuple:
    """A routing task's returns: ``df``'s rows as Arrow pieces, one per
    range of their ``col`` ids (None when empty), then the row count
    (a last return keeps the pieces a list at one range)."""
    n = len(offsets) - 1
    if df.empty:
        return (*[None] * n, 0)
    ids = np.searchsorted(offsets, df[col].to_numpy(), side="right") - 1
    table = pa.Table.from_pandas(df, preserve_index=False)
    return (*split_by_ids(table, ids, n), len(df))


def _split_remote(task, n: int, *args) -> list:
    """Submit a routing task (:func:`_routed`); its ``n`` piece refs."""
    return task.options(num_returns=n + 1).remote(*args)[:-1]


@ray.remote
def _rt_sample(block, rate: float) -> np.ndarray:
    """An edge block's endpoint key sample."""
    return key_sample(_endpoints(load_block(block)), rate)


@ray.remote
def _rt_split_keys(block, bounds: np.ndarray):
    """An edge block's distinct endpoint keys, one piece per key range,
    then the block's distinct preds."""
    table = load_block(block)
    keys = pc.drop_null(pc.unique(_endpoints(table)))
    preds = (pc.drop_null(pc.unique(table["pred"])).to_pylist()
             if "pred" in table.column_names else [])
    return (*split_by_ids(pa.table({"node": keys}), range_ids(keys, bounds),
                          len(bounds) + 1), preds)


@ray.remote(num_returns=2)
def _rt_range_nodes(*pieces):
    """A key range's node table (its distinct keys, sorted: a key's id
    is the range's offset plus its row) and its node count."""
    tabs = [t for t in pieces if t is not None]
    if not tabs:
        return None, 0
    keys = pc.unique(pa.concat_tables(tabs)["node"])
    keys = keys.take(pc.sort_indices(keys))
    return pa.table({"node": keys}), len(keys)


def _key_index(table: pa.Table) -> pd.Index:
    return pd.Index(table["node"].to_numpy(zero_copy_only=False))


def _ids(keys, nodes: list, offsets: np.ndarray,
         bounds: np.ndarray) -> np.ndarray:
    """int64 node ids of ``keys``, every one a node, looked up in the
    node tables of their ranges."""
    r = range_ids(keys, bounds)
    v = keys.to_numpy(zero_copy_only=False)
    out = np.empty(len(v), dtype=np.int64)
    for k in np.unique(r):
        m = r == k
        index = cached_view([nodes[k]], "index", _key_index)
        out[m] = offsets[k] + index.get_indexer(v[m])
    return out


@ray.remote
def _rt_encode(block, nodes: list, offsets: np.ndarray, bounds: np.ndarray,
               preds: list):
    """An edge block as distinct (src, dst, pred) int rows routed by the
    range of src."""
    table = load_block(block)
    pred = (pd.Index(preds).get_indexer(
        table["pred"].to_numpy(zero_copy_only=False))
        if "pred" in table.column_names else np.full(table.num_rows, -1))
    df = pd.DataFrame({
        "src": _ids(table["subj"], nodes, offsets, bounds),
        "dst": _ids(table["obj"], nodes, offsets, bounds),
        "pred": pred.astype("int32"),
    }).drop_duplicates()
    return _routed(df, "src", offsets)


@ray.remote
def _rt_symmetric(adj: pa.Table, offsets: np.ndarray):
    """A range's directed pairs and their reverses, distinct, routed by
    the range of their new src."""
    adj = adj.to_pandas()
    df = pd.DataFrame({
        "src": np.concatenate([adj["src"], adj["dst"]]),
        "dst": np.concatenate([adj["dst"], adj["src"]]),
    }).drop_duplicates()
    return _routed(df, "src", offsets)


@ray.remote
def _rt_distinct(schema: pa.Schema, *pieces) -> pa.Table:
    """A range's pinned adjacency: the distinct rows of its pieces."""
    tabs = [t for t in pieces if t is not None]
    if not tabs:
        return schema.empty_table()
    df = pa.concat_tables(tabs).to_pandas().drop_duplicates()
    return pa.Table.from_pandas(df, schema=schema, preserve_index=False)


def encode_graph(edges: Blocks) -> EncodedGraph:
    """Encode the (subj, obj[, pred]) rows of ``edges`` (keys of any one
    orderable type) into an :class:`EncodedGraph` in
    ``blocks_for(adjacency bytes)`` key ranges, by raw tasks: a key
    sample wave (when there is more than one range), then one wave per
    block splitting its distinct endpoints by range, one task per range
    sorting its keys, one wave per block encoding and routing its edges,
    and one task per range pinning its distinct adjacency rows. The
    driver holds only samples, counts and preds."""
    rows = edges.rows
    num_ranges = blocks_for(None if rows is None else rows * _ADJ_ROW_BYTES)
    bounds = np.array([], dtype=object)
    if num_ranges > 1 and edges.refs:
        rate = min(1.0, SAMPLE_KEYS / (2 * rows)) if rows else 1.0
        bounds = range_bounds(
            ray.get([_rt_sample.remote(b, rate) for b in edges.refs]),
            num_ranges)
    n = len(bounds) + 1
    split = [_rt_split_keys.options(num_returns=n + 1).remote(b, bounds)
             for b in edges.refs]
    ranges = [_rt_range_nodes.remote(*[s[k] for s in split])
              for k in range(n)]
    counts = ray.get([c for _, c in ranges])
    preds = sorted(set().union(*ray.get([s[-1] for s in split])))
    offsets = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
    nodes = [t for t, _ in ranges]
    enc = [_split_remote(_rt_encode, n, b, nodes, offsets, bounds, preds)
           for b in edges.refs]
    adj = [_rt_distinct.remote(_ADJ, *[e[k] for e in enc]) for k in range(n)]
    return EncodedGraph(nodes, offsets, preds, pinned(adj))


def _over(edges: Blocks | ray.data.Dataset, op, **kw):
    """``op(encoded edges, **kw)``: :class:`Blocks` in, Blocks out; a
    Dataset in (its one execution, the materialize), a Dataset out."""
    if isinstance(edges, Blocks):
        return op(encode_graph(edges), **kw)
    return op(encode_graph(Blocks.of_dataset(edges)), **kw).dataset()


# encoded KG edge tables, keyed by their part files and mtimes: the
# kg_* ops of a session share one per corpus (the last four corpora)
_KG_GRAPHS: dict[tuple, EncodedGraph] = {}


def _kg(sf_dir: str, op, **kw) -> ray.data.Dataset:
    """``op`` on the encoded edge table of ``ensure_kg(sf_dir)``, read
    by raw tasks once per corpus and session."""
    from codetoneo4j_ray.pipelines.kg_queries import ensure_kg

    path = ensure_kg(sf_dir)["edges"]
    key = tuple((f, os.stat(f).st_mtime_ns) for f in parquet_files(path))
    graph = _KG_GRAPHS.get(key)
    if graph is None:
        graph = encode_graph(read_blocks(plan_reads(
            path, columns=["subj", "pred", "obj"])))
        while len(_KG_GRAPHS) >= 4:
            _KG_GRAPHS.pop(next(iter(_KG_GRAPHS)))
        _KG_GRAPHS[key] = graph
    return op(graph, **kw).dataset()


@ray.remote(num_returns=2)
def _rt_decode(table: pa.Table, nodes: list, offsets: np.ndarray, val: str,
               out: str, val_is_nid: bool, max_val: int | None):
    """(node, ``val``) id rows → (node, ``out``) key rows sorted by node,
    ``val`` decoded too when it holds ids (component labels); rows
    whose ``val`` exceeds ``max_val`` (unreached or over budget) are
    dropped. Returns the table and its (rows, bytes)."""
    df = table.to_pandas()
    if max_val is not None:
        df = df[df[val] <= max_val]
    df = df.sort_values("node", kind="stable")
    vals = df[val].to_numpy().astype("int64")
    out_table = pa.table({
        "node": _keys(df["node"].to_numpy(), nodes, offsets),
        out: _keys(vals, nodes, offsets) if val_is_nid else pa.array(vals),
    })
    return out_table, (out_table.num_rows, out_table.nbytes)


def _keys(ids: np.ndarray, nodes: list, offsets: np.ndarray):
    """The keys of node ``ids``, in order, taken from the node tables of
    their ranges."""
    r = np.searchsorted(offsets, ids, side="right") - 1
    order = np.argsort(r, kind="stable")
    ids, r = ids[order], r[order]
    parts = [ray.get(nodes[k])["node"].take(ids[r == k] - offsets[k])
             for k in np.unique(r)]
    if not parts:
        return pa.array([], pa.null())
    return pa.chunked_array(parts).take(np.argsort(order))


def _decode(refs: list, graph: EncodedGraph, out: str, val: str = "lbl",
            val_is_nid: bool = False, max_val: int | None = None) -> Blocks:
    """:func:`_rt_decode` over each of ``refs``; the non-empty results in
    order, so sorted by node."""
    done = [_rt_decode.remote(t, graph.nodes, graph.offsets, val, out,
                              val_is_nid, max_val) for t in refs]
    return Blocks.of([t for t, _ in done], ray.get([s for _, s in done]))


@ray.remote
def _rt_init_labels(lo: int, hi: int, fill: int | None, roots=None):
    """The label table (node, lbl, chg) of the range of ids [lo, hi):
    each node labeled with its own id when ``fill`` is None, else with
    ``fill`` except 0 for the roots, given as (adjacency refs, pred
    code): the subjects of that pred's edges."""
    node = np.arange(lo, hi, dtype=np.int64)
    lbl = node.copy() if fill is None else np.full(len(node), fill, np.int64)
    if roots is not None:
        adj_refs, code = roots
        adj = bucket_frame(adj_refs)
        lbl[np.isin(node, adj.loc[adj["pred"] == code, "src"])] = 0
    return pa.table({"node": node, "lbl": lbl,
                     "chg": np.ones(len(node), dtype=bool)})


# ---------------------------------------------------------------------------
# PageRank
# ---------------------------------------------------------------------------


def kg_pagerank(
    sf_dir: str,
    iters: int = PAGERANK_ITERS,
    scale: int = PAGERANK_SCALE,
) -> ray.data.Dataset:
    """Fixed-point PageRank over the final KG edge table (see
    :func:`pagerank_over`), on the once-per-corpus encoded edge table
    (``ensure_kg``'s edges/)."""
    return _kg(sf_dir, _pagerank, iters=iters, scale=scale)


def _out_degrees(table: pa.Table) -> pd.DataFrame:
    """Distinct directed (src, dst) pairs with d = src's out-degree:
    exact, because every pair of a src sits in src's range."""
    df = table.select(["src", "dst"]).to_pandas().drop_duplicates()
    df["d"] = df["src"].map(df["src"].value_counts()).astype("int64")
    return df


@ray.remote
def _rt_pr_step(lbl: pa.Table, offsets: np.ndarray, adj_refs: list):
    """One range's contribution map: per-dst partial sums of
    r(u) // outdeg(u) over its pinned adjacency, map-side combined and
    routed by the range of dst."""
    adj = cached_view(adj_refs, "out_degrees", _out_degrees)
    m = adj.merge(lbl.select(["node", "lbl"]).to_pandas(),
                  left_on="src", right_on="node")
    node, c = _reduce_by(m["dst"], m["lbl"] // m["d"])
    return _routed(pd.DataFrame({"node": node, "c": c}), "node", offsets)


@ray.remote
def _rt_pr_reduce(lbl: pa.Table, base: int, *partials):
    """One range's power step: r' = base + 85*sum(contribs)//100 for
    every node of the range (dangling targets survive because the node
    list comes from the range's own rank table, never from the
    contribution stream)."""
    node = lbl["node"].to_numpy()
    c = np.zeros(len(node), dtype=np.int64)
    tabs = [t for t in partials if t is not None]
    if tabs:
        cat = pa.concat_tables(tabs)
        keys, sums = _reduce_by(cat["node"].to_numpy(), cat["c"].to_numpy())
        # reindex keeps int64 end-to-end — a left merge would go
        # through float64 and round sums past 2**53 (mass can reach
        # _MAX_SAFE_SUM ≈ 1.1e17)
        c = pd.Series(sums, index=keys).reindex(node, fill_value=0).to_numpy()
    return pa.table({"node": node, "lbl": base + 85 * c // 100})


def _pagerank(graph: EncodedGraph, iters: int, scale: int) -> Blocks:
    # up-front overflow validation: contribution sums are bounded by
    # the total mass n*scale (see _MAX_SAFE_SUM note) — checking here
    # also covers the map-side partial sums, and cannot be fooled by
    # silent int64 wraparound the way a post-hoc max() check could.
    if int(graph.offsets[-1]) * scale > _MAX_SAFE_SUM:
        raise OverflowError(
            "pagerank fixed-point mass num_nodes*scale exceeds int64/85; "
            "lower scale"
        )
    base = 15 * scale // 100
    n = graph.num_ranges
    # each step is K contribution tasks + K reduce tasks chained purely
    # by ObjectRefs — the driver never syncs until the decode
    ranks = [_rt_init_labels.remote(lo, hi, scale)
             for lo, hi in graph.ranges()]
    for _ in range(iters):
        partials = [_split_remote(_rt_pr_step, n, ranks[k], graph.offsets,
                                  [graph.adj[k]]) for k in range(n)]
        ranks = [_rt_pr_reduce.remote(ranks[k], base,
                                      *[p[k] for p in partials])
                 for k in range(n)]
    return _decode(ranks, graph, "rank_fp")


def pagerank_over(
    edges: Blocks | ray.data.Dataset,
    iters: int = PAGERANK_ITERS,
    scale: int = PAGERANK_SCALE,
) -> Blocks | ray.data.Dataset:
    """Fixed-point PageRank (damping 0.85, ``iters`` synchronous steps)
    over distinct (subj, obj) pairs of an edge table (:class:`Blocks`
    or a Dataset; the result is of the same kind).

    Update rule, all-BIGINT:  r'(v) = 15*scale//100
    + 85 * sum_{u->v}( r(u) // outdeg(u) ) // 100.

    Output: (node, rank_fp) for every node appearing in any edge,
    sorted by node. Each step is one contribution task per range over
    the pinned adjacency (out-degrees derived in the task) plus one
    reduce task per range over node-sized rank rows. The ranks are
    pure arithmetic over the graph structure, so the encoding cannot
    change any output value."""
    return _over(edges, _pagerank, iters=iters, scale=scale)


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
    edge table (see :func:`components_over`), on the once-per-corpus
    encoded edge table."""
    return _kg(sf_dir, _components, max_iters=max_iters)


# ---------------------------------------------------------------------------
# Raw-task iterative core
#
# The per-round exchange of an iterative fixpoint is node-sized (8-byte
# labels), but a Ray Data sort-based exchange costs ~2 s of planning +
# sort-stage scheduling per round regardless of payload — at sf0.1 the
# actual label exchange inside a pagerank round was ~0.6 s of a 2.6 s
# round. So the inner loops run as raw Ray tasks over range-pinned label
# tables (a per-round range→range all-to-all with driver-free
# chaining). Partitioning contract: range k's labels are exactly the
# ids in [offsets[k], offsets[k+1]), matching the pinned adjacency's
# src ranges, so step task k needs only adjacency object k and routes
# its candidate partials by searchsorted(offsets, dst). Each round is K
# step tasks (num_returns=K+1: min-combined partials, then a row count)
# + K reduce tasks (num_returns=2: new labels + (changed, rows)); the
# driver syncs only on K tiny int pairs per round. Step tasks read
# their adjacency through the worker bucket cache
# (bucketing.cached_view), so a reused worker process fetches each
# range and derives its per-op view once across all rounds and ops.
# K = blocks_for(adjacency bytes), so a graph that fits a block runs in
# one range and at cluster scale K grows with the data up to the
# cluster's cap.
# ---------------------------------------------------------------------------


def _weighted(weights: tuple, table: pa.Table) -> pd.DataFrame:
    """Distinct directed (src, dst, w): w = _SSSP_CHEAP_W for the pred
    codes in ``weights[0]``, ``weights[1]`` for the rest."""
    cheap, far_w = weights
    df = table.to_pandas()
    w = np.where(df["pred"].isin(cheap), _SSSP_CHEAP_W, far_w)
    return pd.DataFrame({"src": df["src"], "dst": df["dst"],
                         "w": w.astype("int64")}).drop_duplicates()


@ray.remote
def _rt_min_step(lbl: pa.Table, offsets: np.ndarray, cutoff, weights,
                 adj_refs: list):
    """One range's propagation map: min-combined neighbor candidates
    (node, cand = lbl + edge weight) for its frontier rows, routed by
    the range of dst. ``weights`` = (cheap pred codes, far weight) over
    the directed adjacency, or None over the symmetric one (weight 0).
    ``adj_refs`` arrives unresolved (inside a list) so the worker cache
    can key on ref identity."""
    df = lbl.to_pandas()
    fr = df[df["chg"]]
    if cutoff is not None:
        fr = fr[fr["lbl"] < cutoff]
    if fr.empty:
        return _routed(fr, "node", offsets)
    if weights is None:
        adj = bucket_frame(adj_refs)
    else:
        adj = cached_view(adj_refs, ("weighted", weights),
                          functools.partial(_weighted, weights))
    m = adj.merge(fr[["node", "lbl"]], left_on="src", right_on="node")
    step = m["w"] if weights is not None else 0
    node, cand = _reduce_by(m["dst"], m["lbl"] + step, np.minimum)
    return _routed(pd.DataFrame({"node": node, "cand": cand}), "node",
                   offsets)


@ray.remote(num_returns=2)
def _rt_min_reduce(lbl: pa.Table, *partials):
    """One range's reduce: lbl ← min(lbl, candidates); returns the new
    label table and (how many labels changed, rows) — the driver's
    convergence signal and, once converged, which ranges hold labels
    (K int pairs per round, never tables)."""
    if lbl.num_rows == 0:
        return lbl, (0, 0)
    tabs = [t for t in partials if t is not None]
    df = lbl.to_pandas()
    if not tabs:
        if bool(df["chg"].any()):
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
def _rt_jump_seek(lbl: pa.Table, offsets: np.ndarray):
    """Pointer-jump phase 1: every label row asks the range of its lbl
    for that node's own label. Emits (key=lbl, node, val=lbl, chg)
    routed by the range of lbl."""
    df = lbl.to_pandas()
    seek = pd.DataFrame(
        {
            "key": df["lbl"].astype("int64"),
            "node": df["node"].astype("int64"),
            "val": df["lbl"].astype("int64"),
            "chg": df["chg"].astype(bool),
        }
    )
    return _routed(seek, "key", offsets)


@ray.remote
def _rt_jump_answer(lbl: pa.Table, offsets: np.ndarray, *seeks):
    """Pointer-jump phase 2: this range resolves key → its label for
    every seeker; answers (node, lbl=min(val, lbl(lbl)), chg|lowered)
    are routed back by the range of node."""
    tabs = [t for t in seeks if t is not None]
    if not tabs:
        return _routed(pd.DataFrame(), "node", offsets)
    s = pa.concat_tables(tabs).to_pandas()
    p = lbl.to_pandas()
    j = s["key"].map(p.set_index("node")["lbl"]).fillna(s["val"]).astype("int64")
    lowered = j.to_numpy() < s["val"].to_numpy()
    out = pd.DataFrame(
        {
            "node": s["node"].astype("int64").to_numpy(),
            "lbl": np.minimum(j.to_numpy(), s["val"].to_numpy()),
            "chg": s["chg"].to_numpy() | lowered,
        }
    )
    return _routed(out, "node", offsets)


@ray.remote
def _rt_concat_labels(*tabs):
    ts = [t for t in tabs if t is not None]
    return (pa.concat_tables(ts) if ts
            else pa.table({"node": pa.array([], pa.int64()),
                           "lbl": pa.array([], pa.int64()),
                           "chg": pa.array([], pa.bool_())}))


def _rt_pointer_jump(label_refs: list, offsets: np.ndarray) -> list:
    n = len(label_refs)
    seeks = [_split_remote(_rt_jump_seek, n, label_refs[k], offsets)
             for k in range(n)]
    answers = [_split_remote(_rt_jump_answer, n, label_refs[k], offsets,
                             *[s[k] for s in seeks]) for k in range(n)]
    return [_rt_concat_labels.remote(*[a[k] for a in answers])
            for k in range(n)]


def _rt_label_loop(
    adj: list,
    label_refs: list,
    offsets: np.ndarray,
    *,
    cutoff: int | None = None,
    weights: tuple | None = None,
    max_iters: int,
    op_name: str,
    jump: bool = False,
    raise_msg: str,
) -> list:
    """Run min-label propagation rounds over range-pinned labels until
    the frontier empties; raise past ``max_iters`` (exact — convergence
    is tested every round). Returns the final label refs of the ranges
    that hold labels (at least one ref), so sparse graphs' empty
    ranges never reach the output."""
    n = len(label_refs)
    rounds = 0
    while True:
        partials = [_split_remote(_rt_min_step, n, label_refs[k], offsets,
                                  cutoff, weights, [adj[k]])
                    for k in range(n)]
        results = [_rt_min_reduce.remote(label_refs[k],
                                         *[p[k] for p in partials])
                   for k in range(n)]
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
            label_refs = _rt_pointer_jump(label_refs, offsets)


def _components(graph: EncodedGraph, max_iters: int) -> Blocks:
    """Every node labeled with its own id, min-label rounds over the
    symmetric adjacency with pointer jumps until the frontier empties;
    the labels decoded to the component's minimum key."""
    if max_iters < 1:
        raise ValueError("components_over requires max_iters >= 1")
    label_refs = _rt_label_loop(
        graph.sym(),
        [_rt_init_labels.remote(lo, hi, None) for lo, hi in graph.ranges()],
        graph.offsets,
        max_iters=max_iters,
        op_name="components",
        jump=True,
        raise_msg=(
            "components_over did not converge within {max_iters} "
            "min-label rounds; raise max_iters"
        ),
    )
    return _decode(label_refs, graph, "comp", val_is_nid=True)


def components_over(
    edges: Blocks | ray.data.Dataset,
    max_iters: int = CC_MAX_ITERS,
) -> Blocks | ray.data.Dataset:
    """TRUE connected components over the symmetric closure of the
    distinct (subj, obj) pairs of an edge table (:class:`Blocks` or a
    Dataset; the result is of the same kind): every node starts labeled
    with its own key; synchronous min-label rounds (each taking the MIN
    over its own and all neighbors' labels) run UNTIL THE FRONTIER
    EMPTIES, with a pointer-jump (label ← label-of-label) every
    _CHAIN_CHECKPOINT rounds so path-shaped components converge in
    O(log n) rounds rather than O(diameter). At the fixpoint every
    node's label is exactly its component's minimum key — this is the
    real CC semantics, and the oracle (components_oracle_sql) is an
    until-fixpoint recursive reachability query, not an unrolled
    approximation. Keys may be of any one orderable type: int64 keys
    (``data_ops.dup_clusters``' doc ids) get numeric MIN.

    ``max_iters`` is a pure runaway guard: if the frontier is still
    non-empty after that many propagation rounds the op RAISES rather
    than returning partial labels (with jumping, hitting 512 would
    take a graph beyond any physical size).

    The labels run on the order-preserving int64 ids (integer MIN is
    key MIN) over the pinned symmetric adjacency, and only the final
    labels map back to keys. Output (node, comp), sorted by node."""
    return _over(edges, _components, max_iters=max_iters)


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
    :func:`bfs_depth_over`), on the once-per-corpus encoded edge
    table."""
    return _kg(sf_dir, _bfs_depth, roots_pred=BFS_ROOT_PRED,
               max_iters=max_iters)


def kg_sssp(sf_dir: str, max_iters: int = SSSP_MAX_ITERS) -> ray.data.Dataset:
    """Weighted shortest distance from the repo roots over the final KG
    edge table (see :func:`sssp_over`), on the once-per-corpus encoded
    edge table."""
    return _kg(sf_dir, _sssp, roots_pred=BFS_ROOT_PRED,
               cheap_preds=_SSSP_CHEAP_PREDS, budget=SSSP_MAX_DIST,
               max_iters=max_iters)


def _root_distance(
    graph: EncodedGraph,
    *,
    roots_pred: str,
    cheap_preds: tuple[str, ...],
    far_w: int,
    budget: int,
    max_iters: int,
    op_name: str,
    out: str,
    raise_msg: str,
) -> Blocks:
    """The body shared by bfs_depth_over and sssp_over: multi-source
    min-distance relaxation over the directed distinct (subj, obj, w)
    edges, w = _SSSP_CHEAP_W for ``cheap_preds`` and ``far_w``
    otherwise, from the distinct subjects of ``roots_pred`` edges, run
    until the frontier empties. Output (node, ``out``) for every node
    at distance ≤ ``budget``, sorted by node.

    Same machinery as components minus the pointer jump (distances are
    not node ids, so shortcutting does not apply): the weights and the
    roots are derived from the pinned adjacency's pred codes inside the
    range tasks, never by an exchange or a driver-side collection.
    ``budget`` is also the frontier cutoff: a node at distance ≥
    budget cannot relax any neighbor to ≤ budget (weights ≥ 1), and
    every ≤-budget path's prefixes are below it, so pruning loses
    nothing."""
    root = graph.code(roots_pred)
    cheap = tuple(c for c in map(graph.code, cheap_preds) if c is not None)
    labels = [
        _rt_init_labels.remote(lo, hi, _UNREACHED,
                               None if root is None else ([a], root))
        for (lo, hi), a in zip(graph.ranges(), graph.adj)
    ]
    # convergence is tested every round, so a graph whose max finite
    # distance needs max_iters+1 rounds RAISES at exactly max_iters — it
    # can never converge past the bound and return distances the
    # oracle's capped walk doesn't generate
    label_refs = _rt_label_loop(
        graph.adj,
        labels,
        graph.offsets,
        cutoff=budget,
        weights=(cheap, far_w),
        max_iters=max_iters,
        op_name=op_name,
        raise_msg=raise_msg,
    )
    return _decode(label_refs, graph, out, max_val=budget)


def _bfs_depth(graph: EncodedGraph, roots_pred: str, max_iters: int) -> Blocks:
    if max_iters < 1:
        raise ValueError("bfs_depth_over requires max_iters >= 1")
    return _root_distance(
        graph, roots_pred=roots_pred, cheap_preds=(), far_w=1,
        budget=_UNREACHED - 1, max_iters=max_iters, op_name="bfs",
        out="depth",
        raise_msg=(
            "bfs_depth_over did not converge within {max_iters} "
            "rounds; raise max_iters (and the oracle cap) together"
        ),
    )


def bfs_depth_over(
    edges: Blocks | ray.data.Dataset,
    roots_pred: str = BFS_ROOT_PRED,
    max_iters: int = BFS_MAX_ITERS,
) -> Blocks | ray.data.Dataset:
    """Multi-source BFS over the DIRECTED distinct (subj, obj) pairs of
    an edge table (:class:`Blocks` or a Dataset; the result is of the
    same kind), run UNTIL THE WAVE EMPTIES: roots (distinct subjects of
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

    The unit-weight case of sssp_over's relaxation (_root_distance),
    with no budget short of the sentinel."""
    return _over(edges, _bfs_depth, roots_pred=roots_pred,
                 max_iters=max_iters)


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


def _sssp(graph: EncodedGraph, roots_pred: str, cheap_preds: tuple,
          budget: int, max_iters: int) -> Blocks:
    if max_iters < 1:
        raise ValueError("sssp_over requires max_iters >= 1")
    return _root_distance(
        graph, roots_pred=roots_pred, cheap_preds=tuple(cheap_preds),
        far_w=_SSSP_FAR_W, budget=budget, max_iters=max_iters,
        op_name="sssp", out="dist",
        raise_msg=(
            "sssp_over did not converge within {max_iters} "
            "relaxation rounds; raise max_iters"
        ),
    )


def sssp_over(
    edges: Blocks | ray.data.Dataset,
    roots_pred: str = BFS_ROOT_PRED,
    cheap_preds: tuple[str, ...] = _SSSP_CHEAP_PREDS,
    budget: int = SSSP_MAX_DIST,
    max_iters: int = SSSP_MAX_ITERS,
) -> Blocks | ray.data.Dataset:
    """Multi-source WEIGHTED shortest distance (synchronous Bellman-Ford
    relaxation with frontier deltas) over the directed distinct
    (subj, obj, w) edges of an edge table (:class:`Blocks` or a
    Dataset; the result is of the same kind), where w = _SSSP_CHEAP_W
    for ``cheap_preds`` and _SSSP_FAR_W otherwise: roots (subjects of
    ``roots_pred`` edges) start at 0; each round takes min(dist, min
    over in-edges (src dist + w)). Runs until the frontier empties;
    output (node, dist) for every node with dist ≤ ``budget``, sorted
    by node.

    The budget is the op's contract on BOTH sides: the oracle caps its
    recursive walk at the same total cost (which also bounds its cycle
    expansion), and budget-pruning the Ray frontier is exact because
    every ≤-budget path's prefixes are themselves ≤ budget. Positive
    integer weights bound convergence by budget/min-weight rounds, so
    ``max_iters`` = 256 can only trip on a genuine runaway — and then
    it RAISES rather than returning partial distances (see
    _root_distance for the shared plan)."""
    return _over(edges, _sssp, roots_pred=roots_pred,
                 cheap_preds=tuple(cheap_preds), budget=budget,
                 max_iters=max_iters)


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
    :func:`triangles_over`), on the once-per-corpus encoded edge
    table; the symmetric view folds preds and directions."""
    return _kg(sf_dir, _triangles, k=k)


def _tri_view(table: pa.Table) -> tuple[pd.DataFrame, pd.Series]:
    """A range's self-loop-free symmetric (src, dst, d = deg(src)) rows
    and its src → degree Series."""
    df = table.to_pandas()
    df = df[df["src"] != df["dst"]]
    deg = df["src"].value_counts()
    return df.assign(d=df["src"].map(deg).astype("int64")), deg


@ray.remote
def _rt_triangles(k: int, offsets: np.ndarray, sym: list):
    """Range ``k`` of the symmetric adjacency → per-node triangle
    partial counts (node, n_tri) routed by the range of node.

    In one task: look up deg(dst) in dst's own range (where dst is a
    src row), keep the edges oriented from their (degree, id)-smaller
    endpoint — every oriented out-edge of a src sits in src's range,
    so wedges (center = src, a < b its oriented out-neighbors) are
    generated locally — and close each wedge by looking (a, b) up in
    a's range. The O(m^1.5) wedge rows never leave the task."""
    def view(r):
        return cached_view([sym[r]], "triangles", _tri_view)

    adj = view(k)[0]
    s = adj["src"].to_numpy(dtype="int64")
    t = adj["dst"].to_numpy(dtype="int64")
    ds = adj["d"].to_numpy(dtype="int64")
    rt = np.searchsorted(offsets, t, side="right") - 1
    dt = np.empty(len(t), dtype="int64")
    for r in np.unique(rt):
        dt[rt == r] = view(r)[1].reindex(t[rt == r]).to_numpy()
    # (degree, id) order ≡ (degree, key) order: ids preserve it
    fwd = (ds < dt) | ((ds == dt) & (s < t))
    o = pd.DataFrame({"center": s[fwd], "a": t[fwd]})
    wedges = o.merge(o.rename(columns={"a": "b"}), on="center")
    wedges = wedges[wedges["a"] < wedges["b"]]
    ra = np.searchsorted(offsets, wedges["a"].to_numpy(), side="right") - 1
    hits = []
    for r in np.unique(ra):
        e = view(r)[0][["src", "dst"]]
        m = wedges[ra == r].merge(
            e.rename(columns={"src": "a", "dst": "b"}), on=["a", "b"]
        )
        hits += [m["center"], m["a"], m["b"]]
    cnt = pd.concat(hits).value_counts() if hits else pd.Series([], dtype="int64")
    return _routed(
        pd.DataFrame({"node": cnt.index.to_numpy(dtype="int64"),
                      "n_tri": cnt.to_numpy().astype("int64")}),
        "node", offsets,
    )


@ray.remote
def _rt_top_counts(k: int, *parts) -> pa.Table:
    """The top ``k`` (n_tri desc, node asc — id order is key order) of
    the per-node sums of the (node, n_tri) count ``parts``."""
    tabs = [t for t in parts if t is not None]
    cat = pa.concat_tables(tabs) if tabs else pa.table(
        {"node": pa.array([], pa.int64()), "n_tri": pa.array([], pa.int64())})
    node, n_tri = _reduce_by(cat["node"].to_numpy(), cat["n_tri"].to_numpy())
    df = pd.DataFrame({"node": node, "n_tri": n_tri}).sort_values(
        ["n_tri", "node"], ascending=[False, True], kind="stable"
    ).head(k)
    return pa.Table.from_pandas(df, preserve_index=False)


def _triangles(graph: EncodedGraph, k: int) -> Blocks:
    sym, n = graph.sym(), graph.num_ranges
    partials = [_split_remote(_rt_triangles, n, r, graph.offsets, sym)
                for r in range(n)]
    tops = [_rt_top_counts.remote(k, *[p[r] for p in partials])
            for r in range(n)]
    return _decode([_rt_top_counts.remote(k, *tops)], graph, "n_tri",
                   val="n_tri")


def triangles_over(
    edges: Blocks | ray.data.Dataset,
    k: int = TRIANGLE_TOPK_K,
) -> Blocks | ray.data.Dataset:
    """Top-k nodes by triangle participation over the undirected,
    self-loop-free distinct pair graph of an edge table
    (:class:`Blocks` or a Dataset; the result is of the same kind).

    Plan (Cohen's degree-oriented MapReduce scheme), entirely over
    dense int64 node ids: one task per range of the symmetric
    adjacency (degrees derived in the task) orients, generates and
    closes wedges by range lookups (no exchange) → count merge (one
    node-sized exchange) + per-range top-k → global top-k, tie-broken
    by id ≡ key order → decode the ≤k winners back to keys. Output
    (node, n_tri), ordered by node."""
    return _over(edges, _triangles, k=k)


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
