"""Large-scale training-data operations over the driver's testdata tables.

Every op runs on the build's raw-task substrate: one raw read task per
parquet block (``_read``, the per-block map inside it), keyed merges on
the hash exchange (:func:`bucketed_apply_tasks` over :class:`Blocks`)
and every sorted output from one sorted key-range fold
(``canonicalize.sorted_fold``), which also runs the merge when its keys
include the sort's first column. An op returns its finished blocks as
a Dataset (``Blocks.dataset()``) and runs no Ray Data execution. Ops
with float outputs use per-row ``floor(x * K) → int64`` before summing
so Ray and the DuckDB oracle agree bit-exactly regardless of summation
order.
"""

from __future__ import annotations

import hashlib
import re

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from codetoneo4j_ray.stages.bucketing import (
    Blocks,
    blocks_for,
    bucketed_apply_tasks,
    cached_get,
    cluster_cpus,
    footers,
    plan_reads,
    read_blocks,
)
from codetoneo4j_ray.stages.canonicalize import (
    SAMPLE_KEYS,
    key_sample,
    range_bounds,
    sorted_fold,
)


def _read(sf_dir: str, table: str, columns=None, fn=None) -> Blocks:
    """``table`` of ``sf_dir`` pinned by one raw read task per block,
    each mapped through ``fn(block)`` when given."""
    return read_blocks(
        plan_reads(f"{sf_dir}/{table}.parquet", columns=columns), fn)


def _same(table: pa.Table) -> pa.Table:
    """The fold of a sorted fold that only orders its rows."""
    return table


# ---------------------------------------------------------------------------
# exact dedup: hash-partition by content hash + per-group first
# ---------------------------------------------------------------------------


def doc_dedup_exact(sf_dir: str) -> ray.data.Dataset:
    """One row per distinct text: (doc_id = min id, n_dups). The combine
    step collapses duplicates per read block before the exchange."""

    def combine(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        df["h"] = [
            hashlib.sha256(t.encode("utf-8")).hexdigest() for t in df["text"]
        ]
        g = df.groupby("h", as_index=False).agg(
            doc_id=("doc_id", "min"), n_dups=("doc_id", "size")
        )
        return pa.Table.from_pandas(g, preserve_index=False)

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("h", as_index=False).agg(
            doc_id=("doc_id", "min"), n_dups=("n_dups", "sum")
        )

    groups = bucketed_apply_tasks(
        _read(sf_dir, "documents", ["doc_id", "text"], combine), ["h"], merge)
    return sorted_fold(groups, ["doc_id"],
                       lambda t: t.select(["doc_id", "n_dups"])).dataset()


# ---------------------------------------------------------------------------
# MinHash + LSH near-dup: shingle → minhash → band → bucket groupby
# ---------------------------------------------------------------------------

_MINHASH_PERMS = 64
_LSH_BANDS = 16  # 16 bands × 4 rows
_MERSENNE = (1 << 61) - 1


def _sql_lower(text: str) -> str:
    """lower() matching DuckDB/utf8proc's SIMPLE case map. Python's
    str.lower() applies full Unicode casing — the unconditional
    multi-char entry (U+0130 'İ' -> 'i' + combining dot) and the
    contextual final-sigma rule both diverge from utf8proc's 1:1 map.
    Charwise lowering (with 'İ' pre-mapped) reproduces the simple map;
    the isascii() fast path keeps the common case on the fast C
    implementation."""
    if text.isascii():
        return text.lower()
    return "".join(c.lower() for c in text.replace("\u0130", "i"))


_WS_SPLIT = re.compile(r"[ \t\n\r]+")


def _words(text: str) -> list[str]:
    """Word split matching the oracle contract exactly: runs of
    space/tab/newline/CR. Python's bare str.split() also splits on
    \x0b/\x0c/\x1c-\x1f/NBSP etc., which the RE2 class in the DuckDB
    oracles does not — this helper makes the Python side total over
    arbitrary input, not just the common-whitespace testdata."""
    return [w for w in _WS_SPLIT.split(text) if w]


def _shingles(text: str, k: int = 3) -> set[int]:
    words = _words(_sql_lower(text))
    if len(words) < k:
        return {hash_bytes(" ".join(words))} if words else set()
    return {hash_bytes(" ".join(words[i : i + k])) for i in range(len(words) - k + 1)}


def _shingle_strs(text: str, k: int = 3) -> set[str]:
    """Word k-gram strings. An empty doc yields the sentinel '' shingle so
    the DuckDB oracle (which joins on shingle strings) sees the same set
    algebra: empty-vs-empty J=1, empty-vs-anything-else J=0."""
    words = _words(_sql_lower(text))
    if len(words) < k:
        return {" ".join(words)}
    return {" ".join(words[i : i + k]) for i in range(len(words) - k + 1)}


def _md5_64(s: str) -> int:
    """First 8 bytes of md5, big-endian — bit-identical to DuckDB's
    ('0x' || substring(md5(s), 1, 16))::UBIGINT."""
    return int.from_bytes(hashlib.md5(s.encode()).digest()[:8], "big")


def _minhash_shingles(text: str) -> set[int]:
    return {_md5_64(s) for s in _shingle_strs(text)}


def hash_bytes(s: str) -> int:
    # masked to 61 bits so signatures fit int64 arithmetic
    return (
        int.from_bytes(hashlib.blake2b(s.encode(), digest_size=8).digest(), "big")
        & _MERSENNE
    )


_rng = np.random.RandomState(7)
_A_U64 = _rng.randint(1, 1 << 62, size=_MINHASH_PERMS).astype(np.uint64) | np.uint64(1)
_MIX = np.uint64(0x9E3779B97F4A7C15)  # splitmix64 odd constant
# per-permutation salt (p+1) for the band bucket fold, so identical
# minhash values at different positions contribute distinct terms
_POS_SALT = np.arange(1, _MINHASH_PERMS + 1, dtype=np.uint64)


def _minhash_sig(sh: set[int]) -> np.ndarray:
    """64 min-hash values via xor-multiply mixing (wraparound uint64 —
    the standard practical stand-in for min-wise independent perms)."""
    if not sh:
        return np.full(_MINHASH_PERMS, np.iinfo(np.uint64).max, dtype=np.uint64)
    x = np.fromiter(sh, dtype=np.uint64, count=len(sh))
    with np.errstate(over="ignore"):
        vals = (x[None, :] ^ _A_U64[:, None]) * _MIX
        vals ^= vals >> np.uint64(29)
        vals *= _MIX
    return vals.min(axis=1)


def doc_dedup_minhash(
    sf_dir: str, jaccard_threshold: float = 0.8
) -> ray.data.Dataset:
    """Near-duplicate pairs (a < b) with band-LSH candidates verified by
    exact shingle Jaccard. Returns (doc_a, doc_b).

    The three bucketed exchanges (band→candidates, attach_a, verify_b)
    are one-shot, so they run as raw split+per-bucket tasks
    (:func:`bucketed_apply_tasks`) rather than sort-based groupbys —
    the same exactness contract, minus the sort/sample machinery whose
    fixed latency dominated this op.

    The shingle hash (md5-derived), permutation mixing (mod-2^64
    xor-multiply) and band buckets (a position-salted multiply-sum fold
    to ONE u64 per band — order-insensitive, so SQL SUM replicates it
    bit-exactly, and an 8-byte exchange payload instead of a ~80-char
    decimal string) are all chosen to be bit-exactly replicable in
    ANSI-ish SQL, so the whole sketch — not just the verified pairs —
    is covered by a STRICT DuckDB oracle (see ``minhash_oracle_sql``).
    A fold collision (~2^-64) could only ADD an LSH candidate, which the
    exact-Jaccard verify then filters identically on both sides.

    Identical-document floods — the normal case in crawl dedup — are
    collapsed INSIDE the band exchange: each band row carries md5(text),
    and within a (band, bucket) group all copies of a text collapse to
    one representative (min doc_id) before any pair is emitted, so a
    flood of N copies yields zero LSH candidate pairs instead of
    O(N^2)*16. Signatures depend only on text, so candidates over
    representatives plus the final expansion (verified rep pairs x group
    members, and intra-group pairs which have Jaccard 1) is provably the
    same pair set as running LSH over every document. Membership rows
    ('m', emitted once per distinct text from band 0, which every copy
    of a text shares) ride the two existing verification exchanges, so
    the collapse adds NO exchange: the op still runs band/pairs ->
    attach_a -> verify_b -> sorted fold. Distinct-but-near-identical floods
    still cost O(pairs) — the size of the required output."""

    return sorted_fold(_minhash_pairs(sf_dir, jaccard_threshold),
                       ["doc_a", "doc_b"], _same).dataset()


def _minhash_pairs(sf_dir: str, jaccard_threshold: float) -> Blocks:
    """The verified (doc_a, doc_b) pairs of :func:`doc_dedup_minhash`,
    unsorted."""
    rows_per_band = _MINHASH_PERMS // _LSH_BANDS

    def to_bands(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        texts = batch["text"].to_pylist()
        out_band, out_bucket, out_id, out_h = [], [], [], []
        bands = list(range(_LSH_BANDS))
        for doc_id, text in zip(ids, texts):
            sig = _minhash_sig(_minhash_shingles(text))
            h = hashlib.md5(text.encode("utf-8")).hexdigest()
            # per-band u64 fold: salt each minhash with its perm index,
            # remix, SUM mod 2^64 (order-insensitive → SQL-replicable)
            with np.errstate(over="ignore"):
                mixed = (sig ^ _POS_SALT) * _MIX
            buckets = mixed.reshape(_LSH_BANDS, rows_per_band).sum(
                axis=1, dtype=np.uint64
            )
            out_band.extend(bands)
            out_bucket.extend(buckets.tolist())
            out_id.extend([doc_id] * _LSH_BANDS)
            out_h.extend([h] * _LSH_BANDS)
        return pa.table(
            {
                "band": pa.array(out_band, pa.int32()),
                "bucket": pa.array(out_bucket, pa.uint64()),
                "doc_id": pa.array(out_id, pa.int64()),
                "h": pa.array(out_h, pa.string()),
            }
        )

    def bucket_pairs(df: pd.DataFrame) -> pd.DataFrame:
        """Per (band, bucket): collapse exact dups by text hash, emit
        all-pairs over the representatives as candidate rows ('c'), and —
        from band 0 only, which every copy of a text lands in — one
        membership row ('m') per duplicated text with the sorted member
        ids (singleton groups get no 'm' row; the verifiers fall back to
        [rep]). Output rows use the verification-join schema directly.
        The collapse itself is vectorized (sort + drop_duplicates +
        transform-size); Python loops only touch groups that actually
        emit something — buckets with >=2 distinct texts and texts with
        >=2 copies, both rare in a healthy corpus."""
        keys: list[int] = []
        others: list[object] = []
        mems: list[object] = []
        sides: list[str] = []
        df = df.sort_values("doc_id", kind="stable")
        reps = df.drop_duplicates(subset=["band", "bucket", "h"], keep="first")
        sizes = reps.groupby(["band", "bucket"], sort=False)["doc_id"].transform(
            "size"
        )
        for _k, group in reps[sizes >= 2].groupby(["band", "bucket"], sort=False):
            ids = np.sort(group["doc_id"].to_numpy(dtype=np.int64))
            for i, a in enumerate(ids):
                for b in ids[i + 1 :]:
                    keys.append(int(a))
                    others.append(int(b))
                    mems.append(None)
                    sides.append("c")
        b0 = df[df["band"] == 0]
        if len(b0):
            hsz = b0.groupby("h", sort=False)["doc_id"].transform("size")
            for _h, g in b0[hsz >= 2].groupby("h", sort=False):
                ids = np.unique(g["doc_id"].to_numpy(dtype=np.int64))
                keys.append(int(ids[0]))
                others.append(None)
                mems.append(ids.tobytes())
                sides.append("m")
        return pd.DataFrame(
            {
                "key": pd.Series(keys, dtype="int64"),
                "other": pd.Series(others, dtype="object"),
                "sh": pd.Series([None] * len(keys), dtype="object"),
                "mem": pd.Series(mems, dtype="object"),
                "side": pd.Series(sides, dtype="object"),
            }
        )

    # Exact-Jaccard verification, fully distributed: candidates bucket-join
    # back to per-doc shingle sets on rep_a, then rep_b (two co-partitioned
    # exchanges of metadata-sized rows) — no whole-corpus driver state.
    def doc_shingles(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        texts = batch["text"].to_pylist()
        blobs = [
            np.fromiter(sorted(_minhash_shingles(t)), dtype=np.uint64).tobytes()
            for t in texts
        ]
        n = len(ids)
        return pa.table(
            {
                "key": pa.array(ids, pa.int64()),
                "other": pa.nulls(n, pa.int64()),
                "sh": pa.array(blobs, pa.binary()),
                "mem": pa.nulls(n, pa.binary()),
                "side": pa.array(["s"] * n, pa.string()),
            }
        )

    def attach_a(df: pd.DataFrame) -> pd.DataFrame:
        s = df[df["side"] == "s"]
        sh_map = dict(zip(s["key"], s["sh"]))
        m = df[df["side"] == "m"]
        mem_map = dict(zip(m["key"], m["mem"]))
        c = df[df["side"] == "c"]
        # every copy of a candidate pair (from different LSH bands) lands
        # in this bucket (keyed by rep_a) — dedup here, no extra exchange
        c = c.drop_duplicates(subset=["key", "other"])
        # re-key candidates on rep_b for the second pass, carrying rep_a's
        # shingles + members; membership rows pass through under the SAME
        # key so they land with rep_b-keyed work in verify_b
        mem_a = [
            mem_map.get(k) if mem_map.get(k) is not None
            else np.int64(k).tobytes()
            for k in c["key"]
        ]
        out = pd.DataFrame(
            {
                "key": c["other"].astype("int64"),
                "other": c["key"].astype("int64"),
                "sh": c["key"].map(sh_map),
                "mem": pd.Series(mem_a, dtype="object", index=c.index),
                "side": "c",
            }
        )
        if len(m):
            out = pd.concat(
                [out, m[["key", "other", "sh", "mem", "side"]]],
                ignore_index=True,
            )
        return out

    def verify_b(df: pd.DataFrame) -> pd.DataFrame:
        s = df[df["side"] == "s"]
        sh_map = dict(zip(s["key"], s["sh"]))
        m = df[df["side"] == "m"]
        mem_map = dict(zip(m["key"], m["mem"]))
        c = df[df["side"] == "c"]
        outs_a: list[np.ndarray] = []
        outs_b: list[np.ndarray] = []
        for b, a, sh_a, mem_a in zip(c["key"], c["other"], c["sh"], c["mem"]):
            sa = np.frombuffer(sh_a if sh_a is not None else b"", dtype=np.uint64)
            sb = np.frombuffer(sh_map.get(b, b""), dtype=np.uint64)
            inter = len(np.intersect1d(sa, sb, assume_unique=True))
            union = len(sa) + len(sb) - inter
            j = (inter / union) if union else 1.0
            if j >= jaccard_threshold:
                # expand rep pair -> all cross-group doc pairs (groups are
                # disjoint, so min/max orientation never yields x == y)
                ma = np.frombuffer(mem_a if mem_a is not None else b"",
                                   dtype=np.int64)
                mb_blob = mem_map.get(b)
                mb = (
                    np.frombuffer(mb_blob, dtype=np.int64)
                    if mb_blob is not None
                    else np.array([b], dtype=np.int64)
                )
                if len(ma) == 0:
                    ma = np.array([a], dtype=np.int64)
                xs = np.repeat(ma, len(mb))
                ys = np.tile(mb, len(ma))
                outs_a.append(np.minimum(xs, ys))
                outs_b.append(np.maximum(xs, ys))
        # intra-group pairs: every pair of exact duplicates has Jaccard 1.
        # Each membership row appears exactly once (band-0 emission), so
        # its C(g,2) pairs are emitted exactly once — the required output.
        for mem in m["mem"]:
            ids = np.frombuffer(mem, dtype=np.int64)  # sorted ascending
            g = len(ids)
            if g < 2:
                continue
            for i in range(g - 1):
                outs_a.append(np.full(g - 1 - i, ids[i], dtype=np.int64))
                outs_b.append(ids[i + 1 :])
        if outs_a:
            oa = np.concatenate(outs_a)
            ob = np.concatenate(outs_b)
        else:
            oa = ob = np.array([], dtype=np.int64)
        return pd.DataFrame(
            {"doc_a": pd.Series(oa, dtype="int64"),
             "doc_b": pd.Series(ob, dtype="int64")}
        )

    _JOIN_SCHEMA = pa.schema(
        [("key", pa.int64()), ("other", pa.int64()),
         ("sh", pa.binary()), ("mem", pa.binary()), ("side", pa.string())]
    )

    def norm(batch) -> pa.Table:
        # empty pandas buckets infer null-typed columns; cast to canonical
        if isinstance(batch, pd.DataFrame):
            batch = pa.Table.from_pandas(batch, preserve_index=False)
        cols = {}
        for fld in _JOIN_SCHEMA:
            if fld.name not in batch.column_names:
                cols[fld.name] = pa.nulls(batch.num_rows, fld.type)
                continue
            col = batch[fld.name]
            cols[fld.name] = (
                pa.nulls(batch.num_rows, fld.type)
                if pa.types.is_null(col.type)
                else col.combine_chunks().cast(fld.type)
            )
        return pa.table(cols, schema=_JOIN_SCHEMA)

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    # the shingle rows join both verification passes
    shingles = read_blocks(docs.refs, lambda t: norm(doc_shingles(t)))
    cand = bucketed_apply_tasks(read_blocks(docs.refs, to_bands),
                                ["band", "bucket"],
                                lambda df: norm(bucket_pairs(df)))
    pass_a = bucketed_apply_tasks(cand + shingles, ["key"],
                                  lambda df: norm(attach_a(df)))
    return bucketed_apply_tasks(pass_a + shingles, ["key"], verify_b)


_SHINGLE_SQL = r"""
    docs AS (
        SELECT doc_id,
               list_filter(regexp_split_to_array(lower(text), '[ \t\n\r]+'),
                           w -> w <> '') AS ws
        FROM documents
    ),
    sh AS (
        SELECT DISTINCT doc_id, shingle FROM (
            SELECT doc_id,
                   ws[i] || ' ' || ws[i+1] || ' ' || ws[i+2] AS shingle
            FROM docs, UNNEST(range(1, len(ws) - 1)) AS t(i)
            WHERE len(ws) >= 3
            UNION ALL
            SELECT doc_id, COALESCE(array_to_string(ws, ' '), '') AS shingle
            FROM docs WHERE len(ws) < 3
        )
    )
"""


def minhash_oracle_sql(jaccard_threshold: float = 0.8) -> str:
    """STRICT DuckDB replica of doc_dedup_minhash: same md5-64 shingle
    hash, same 64 xor-multiply permutations mod 2^64 (UBIGINT xor/shift,
    HUGEINT products), same 16×4 banding, same exact-Jaccard verify.
    The permutation constants are formatted in from _A_U64 so Python and
    SQL can never drift."""
    mix = int(_MIX)
    m64 = 1 << 64
    perms = ",\n        ".join(
        f"({i}, {int(a)}::UBIGINT)" for i, a in enumerate(_A_U64)
    )
    return f"""
        WITH {_SHINGLE_SQL},
        hv AS (
            SELECT doc_id,
                   ('0x' || substring(md5(shingle), 1, 16))::UBIGINT AS h
            FROM sh
        ),
        perms(p, a) AS (VALUES
        {perms}
        ),
        mixed AS (
            SELECT doc_id, p,
                   ((xor(x1, x1 >> 29)::UHUGEINT * {mix}) % {m64}::UHUGEINT)::UBIGINT AS v
            FROM (
                SELECT doc_id, p,
                       ((xor(h, a)::UHUGEINT * {mix}) % {m64}::UHUGEINT)::UBIGINT AS x1
                FROM hv CROSS JOIN perms
            )
        ),
        sig AS (SELECT doc_id, p, min(v) AS v FROM mixed GROUP BY doc_id, p),
        bands AS (
            SELECT doc_id, p // 4 AS band,
                   (sum(((xor(v, (p + 1)::UBIGINT)::UHUGEINT * {mix})
                         % {m64}::UHUGEINT)::UBIGINT)::UHUGEINT
                    % {m64}::UHUGEINT)::UBIGINT AS bucket
            FROM sig GROUP BY doc_id, p // 4
        ),
        cand AS (
            SELECT DISTINCT a.doc_id AS doc_a, b.doc_id AS doc_b
            FROM bands a JOIN bands b
              ON a.band = b.band AND a.bucket = b.bucket
             AND a.doc_id < b.doc_id
        ),
        sizes AS (SELECT doc_id, count(*) AS n FROM sh GROUP BY doc_id),
        inter AS (
            SELECT c.doc_a, c.doc_b, count(*) AS i
            FROM cand c
            JOIN sh sa ON sa.doc_id = c.doc_a
            JOIN sh sb ON sb.doc_id = c.doc_b AND sb.shingle = sa.shingle
            GROUP BY c.doc_a, c.doc_b
        )
        SELECT c.doc_a AS doc_a, c.doc_b AS doc_b
        FROM cand c
        JOIN sizes na ON na.doc_id = c.doc_a
        JOIN sizes nb ON nb.doc_id = c.doc_b
        LEFT JOIN inter ON inter.doc_a = c.doc_a AND inter.doc_b = c.doc_b
        WHERE COALESCE(inter.i, 0)::DOUBLE
              / (na.n + nb.n - COALESCE(inter.i, 0)) >= {jaccard_threshold}
        ORDER BY c.doc_a, c.doc_b
    """


def dup_clusters(
    sf_dir: str, jaccard_threshold: float = 0.8, max_iters: int = 50
) -> ray.data.Dataset:
    """Connected components over the MinHash near-dup pair graph — the
    canonical dedup post-step (pick ONE representative per transitive
    duplicate cluster, not per pair). Returns (doc_id, cluster_rep) for
    every doc that appears in at least one near-dup pair, where
    cluster_rep = min doc_id of its component, sorted by doc_id.

    Runs graph_ops' ``components_over`` on the int64 (doc_a, doc_b)
    pairs: the doc ids are keys like any other (numeric MIN, numeric
    order), the symmetric pair adjacency is exchanged ONCE and pinned,
    then each min-label round is one raw task per id range exchanging
    only 8-byte (node, label) rows, with pointer-jumping at
    checkpoints, until the frontier empties. Per-round traffic is
    bounded by the pair graph, never the corpus; convergence is exact
    (raise past max_iters rather than returning partial labels — the
    oracle is a true transitive closure)."""
    from codetoneo4j_ray.pipelines.graph_ops import components_over

    pairs = read_blocks(_minhash_pairs(sf_dir, jaccard_threshold).refs,
                        lambda t: t.rename_columns(["subj", "obj"]))
    comp = components_over(pairs, max_iters=max_iters)
    return read_blocks(comp.refs, lambda t: t.rename_columns(
        ["doc_id", "cluster_rep"])).dataset()


def dup_clusters_oracle_sql(jaccard_threshold: float = 0.8) -> str:
    """STRICT DuckDB replica of dup_clusters: the minhash pair oracle as
    a CTE, then transitive closure via a recursive CTE; cluster_rep =
    least(self, min reachable). ``pairs`` and ``edges`` are
    materialized: inlined, DuckDB re-runs the pair oracle at every
    recursion step."""
    return f"""
        WITH RECURSIVE pairs AS MATERIALIZED (
            {minhash_oracle_sql(jaccard_threshold)}),
        edges AS MATERIALIZED (
            SELECT doc_a AS u, doc_b AS v FROM pairs
            UNION ALL
            SELECT doc_b, doc_a FROM pairs
        ),
        reach(u, v) AS (
            SELECT u, v FROM edges
            UNION
            SELECT r.u, e.v FROM reach r JOIN edges e ON r.v = e.u
        )
        SELECT u AS doc_id,
               CAST(least(u, min(v)) AS BIGINT) AS cluster_rep
        FROM reach GROUP BY u ORDER BY doc_id
    """


def ngram_jaccard_oracle_sql(threshold: float = 0.5) -> str:
    """STRICT DuckDB replica of doc_ngram_jaccard. The Ray op's log2
    size-banding is a pure prune (J >= t forces |A|/|B| in [t, 1/t], so
    band distance >= 2 implies J < t); the oracle just scores all
    same-source pairs. Empty docs carry the '' sentinel shingle on both
    sides (J=1 empty-vs-empty, J=0 otherwise)."""
    return f"""
        WITH docs0 AS (
            SELECT doc_id, source,
                   list_filter(regexp_split_to_array(lower(text), '[ \t\n\r]+'),
                               w -> w <> '') AS ws
            FROM documents
        ),
        docs AS (SELECT doc_id, ws FROM docs0),
        sh AS (
            SELECT DISTINCT doc_id, shingle FROM (
                SELECT doc_id,
                       ws[i] || ' ' || ws[i+1] || ' ' || ws[i+2] AS shingle
                FROM docs, UNNEST(range(1, len(ws) - 1)) AS t(i)
                WHERE len(ws) >= 3
                UNION ALL
                SELECT doc_id, COALESCE(array_to_string(ws, ' '), '') AS shingle
                FROM docs WHERE len(ws) < 3
            )
        ),
        sizes AS (SELECT doc_id, count(*) AS n FROM sh GROUP BY doc_id),
        cand AS (
            SELECT a.doc_id AS doc_a, b.doc_id AS doc_b
            FROM docs0 a JOIN docs0 b
              ON a.source = b.source AND a.doc_id < b.doc_id
        ),
        inter AS (
            SELECT c.doc_a, c.doc_b, count(*) AS i
            FROM cand c
            JOIN sh sa ON sa.doc_id = c.doc_a
            JOIN sh sb ON sb.doc_id = c.doc_b AND sb.shingle = sa.shingle
            GROUP BY c.doc_a, c.doc_b
        )
        SELECT c.doc_a AS doc_a, c.doc_b AS doc_b
        FROM cand c
        JOIN sizes na ON na.doc_id = c.doc_a
        JOIN sizes nb ON nb.doc_id = c.doc_b
        LEFT JOIN inter ON inter.doc_a = c.doc_a AND inter.doc_b = c.doc_b
        WHERE COALESCE(inter.i, 0)::DOUBLE
              / (na.n + nb.n - COALESCE(inter.i, 0)) >= {threshold}
        ORDER BY c.doc_a, c.doc_b
    """


def winnow_oracle_sql(k: int = 8, window: int = 4) -> str:
    """STRICT DuckDB replica of doc_winnow. Bytes come from
    hex(encode(lower(text))) (corpus is ASCII, so Python str.lower() and
    SQL lower() agree); the polynomial rolling hash is a UHUGEINT modular
    sum with the same B^j mod 2^64 coefficients; the rightmost-min-per-
    window rule is encoded as min over (g * 2^32 + (2^32-1-pos)) so one
    window-frame MIN yields both the min value and its rightmost
    position."""
    B = 1_000_003
    m64 = 1 << 64
    # coefficients split into 32-bit halves: sum(byte * c) would force a
    # UHUGEINT aggregate, which DuckDB lossily promotes to DOUBLE; with
    # halves, each partial sum fits exact BIGINT->HUGEINT aggregation and
    # the mod-2^64 recombine is scalar (exact) UHUGEINT arithmetic
    pw = ", ".join(
        "({}, {}::BIGINT, {}::BIGINT)".format(
            j,
            pow(B, k - 1 - j, m64) & 0xFFFFFFFF,
            pow(B, k - 1 - j, m64) >> 32,
        )
        for j in range(k)
    )
    return f"""
        WITH raw AS (
            SELECT doc_id, hex(encode(lower(text))) AS hx,
                   octet_length(encode(lower(text))) AS n
            FROM documents
        ),
        bytes AS (
            SELECT doc_id, i, ('0x' || substr(hx, 2*i - 1, 2))::UBIGINT AS b
            FROM raw, UNNEST(range(1, n + 1)) AS t(i)
        ),
        pw(j, clo, chi) AS (VALUES {pw}),
        grams AS (
            SELECT doc_id, p,
                   ((slo::UHUGEINT
                     + (shi::UHUGEINT % 4294967296::UHUGEINT)
                       * 4294967296::UHUGEINT)
                    % {m64}::UHUGEINT)::UBIGINT AS g
            FROM (
                SELECT b.doc_id, b.i - pw.j AS p,
                       sum(CAST(b.b AS BIGINT) * pw.clo) AS slo,
                       sum(CAST(b.b AS BIGINT) * pw.chi) AS shi
                FROM bytes b CROSS JOIN pw
                WHERE b.i - pw.j >= 1
                GROUP BY b.doc_id, b.i - pw.j
                HAVING count(*) = {k}
            )
        ),
        enc AS (
            SELECT doc_id, p, g,
                   g::UHUGEINT * 4294967296::UHUGEINT
                       + (4294967295 - p)::UHUGEINT AS e
            FROM grams
        ),
        wins AS (
            SELECT doc_id, p AS w,
                   min(e) OVER (PARTITION BY doc_id ORDER BY p
                                ROWS BETWEEN CURRENT ROW
                                AND {window - 1} FOLLOWING) AS me,
                   count(*) OVER (PARTITION BY doc_id) AS ng
            FROM enc
        ),
        sel AS (
            SELECT DISTINCT doc_id,
                   4294967295 - CAST(me % 4294967296::UHUGEINT AS BIGINT) AS pos,
                   CAST(me // 4294967296::UHUGEINT AS UBIGINT) AS v
            FROM wins WHERE w <= ng - {window - 1}
        ),
        short_sel AS (
            SELECT doc_id, min(g) AS v FROM grams
            GROUP BY doc_id HAVING count(*) BETWEEN 1 AND {window - 1}
        ),
        dig AS (
            SELECT doc_id, count(*) AS n_selected,
                   md5(string_agg(CAST(v AS VARCHAR), ',' ORDER BY pos))
                       AS digest
            FROM sel GROUP BY doc_id
            UNION ALL
            SELECT doc_id, 1, md5(CAST(v AS VARCHAR)) FROM short_sel
        )
        SELECT r.doc_id AS doc_id,
               greatest(r.n - {k - 1}, 0)::BIGINT AS n_grams,
               COALESCE(d.n_selected, 0)::BIGINT AS n_selected,
               COALESCE(d.digest, md5('')) AS digest
        FROM raw r LEFT JOIN dig d ON r.doc_id = d.doc_id
        ORDER BY r.doc_id
    """


# ---------------------------------------------------------------------------
# benchmark n-gram decontamination
# ---------------------------------------------------------------------------

# word-8-gram is the published decontamination convention (GPT-3 /
# Gopher eval-overlap filtering); the benchmark stand-in is the
# deterministic doc_id % 31 slice of the corpus.
_DECON_NGRAM = 8
_DECON_BENCH_MOD = 31


def _gram_strs(text: str, k: int) -> set[str]:
    """Distinct word k-grams; docs shorter than k words have none (no
    sentinel — a too-short doc cannot be contaminated)."""
    words = _words(_sql_lower(text))
    if len(words) < k:
        return set()
    return {" ".join(words[i : i + k]) for i in range(len(words) - k + 1)}


def decontaminate(
    sf_dir: str, k: int = _DECON_NGRAM, bench_mod: int = _DECON_BENCH_MOD
) -> ray.data.Dataset:
    """Benchmark decontamination: flag training docs sharing any word
    k-gram with the benchmark slice (doc_id % bench_mod == 0 — the
    deterministic stand-in for an eval suite). Returns one row per
    NON-benchmark doc: (doc_id, n_contam = distinct shared grams,
    contaminated).

    Scale shape: the benchmark side is bounded-small by definition
    (eval suites are MBs against a 100 TB corpus), so its distinct
    grams reduce per block, union once on the driver, and broadcast
    via ray.put — the production pattern (a hash/bloom set of eval
    n-grams shipped to every worker). The training-side scan is then
    a pure map inside the output's sorted fold."""
    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def bench_grams(batch: pa.Table) -> pa.Table:
        # Arrow-side slice to the 1/bench_mod benchmark rows BEFORE any
        # Python conversion — the pass reads every text column byte
        # regardless, but only materializes the bench slice as objects
        did = batch["doc_id"]
        rem = pc.subtract(did, pc.multiply(pc.divide(did, bench_mod), bench_mod))
        batch = batch.filter(pc.equal(rem, 0))
        out: set[str] = set()
        for text in batch["text"].to_pylist():
            out.update(_gram_strs(text, k))
        return pa.table({"gram": pa.array(sorted(out), pa.string())})

    grams = read_blocks(docs.refs, bench_grams).table()
    ref = ray.put(set() if grams is None else set(grams["gram"].to_pylist()))

    def scan(batch: pa.Table) -> pa.Table:
        bset = cached_get(ref)
        out_id: list[int] = []
        out_n: list[int] = []
        for did, text in zip(
            batch["doc_id"].to_pylist(), batch["text"].to_pylist()
        ):
            if did % bench_mod == 0:
                continue
            out_id.append(int(did))
            out_n.append(len(_gram_strs(text, k) & bset))
        return pa.table(
            {
                "doc_id": pa.array(out_id, pa.int64()),
                "n_contam": pa.array(out_n, pa.int64()),
                "contaminated": pa.array([n > 0 for n in out_n], pa.bool_()),
            }
        )

    return sorted_fold(docs, ["doc_id"], scan).dataset()


def decontaminate_oracle_sql(
    k: int = _DECON_NGRAM, bench_mod: int = _DECON_BENCH_MOD
) -> str:
    """STRICT DuckDB replica of decontaminate — joins on the gram
    strings themselves (the Ray side intersects the same strings, so
    there is no hash-collision caveat)."""
    return f"""
        WITH w AS (
            SELECT doc_id,
                   list_filter(regexp_split_to_array(lower(text),
                               '[ \t\n\r]+'), x -> x <> '') AS ws
            FROM documents
        ),
        g AS (
            SELECT DISTINCT doc_id,
                   array_to_string(ws[i:i+{k - 1}], ' ') AS gram
            FROM w, UNNEST(range(1, len(ws) - {k - 2})) AS t(i)
            WHERE len(ws) >= {k}
        ),
        bench AS (
            SELECT DISTINCT gram FROM g WHERE doc_id % {bench_mod} = 0
        ),
        hits AS (
            SELECT g.doc_id, count(*) AS n_contam
            FROM g JOIN bench USING (gram)
            WHERE g.doc_id % {bench_mod} <> 0
            GROUP BY g.doc_id
        )
        SELECT d.doc_id,
               COALESCE(h.n_contam, 0)::BIGINT AS n_contam,
               COALESCE(h.n_contam, 0) > 0 AS contaminated
        FROM documents d LEFT JOIN hits h ON d.doc_id = h.doc_id
        WHERE d.doc_id % {bench_mod} <> 0
        ORDER BY d.doc_id
    """


# ---------------------------------------------------------------------------
# SimHash near-dup fingerprints
# ---------------------------------------------------------------------------


def doc_simhash(sf_dir: str) -> ray.data.Dataset:
    """64-bit SimHash per document: (doc_id, simhash hex).

    The word hash is the first 8 bytes of md5 (big-endian) so the sketch
    is bit-exactly replicable in the DuckDB oracle (md5 + bit math in
    SQL) — a STRICT check on an LSH sketch, not just a rows-only one."""

    def simhash(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        texts = batch["text"].to_pylist()
        bit_idx = np.arange(64, dtype=np.uint64)
        out = []
        for text in texts:
            acc = np.zeros(64, dtype=np.int64)
            for w in set(_words(_sql_lower(text))):
                h = np.uint64(_md5_64(w))
                bits = (h >> bit_idx) & np.uint64(1)
                acc += np.where(bits == np.uint64(1), 1, -1)
            val = 0
            for b in np.nonzero(acc > 0)[0]:
                val |= 1 << int(b)
            out.append(f"{val:016x}")
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "simhash": pa.array(out, pa.string()),
            }
        )

    return sorted_fold(_read(sf_dir, "documents", ["doc_id", "text"]),
                       ["doc_id"], simhash).dataset()


# ---------------------------------------------------------------------------
# n-gram Jaccard pair scoring (exact, bucketed by length band)
# ---------------------------------------------------------------------------


def doc_ngram_jaccard(sf_dir: str, threshold: float = 0.5) -> ray.data.Dataset:
    """Exact word-3-gram Jaccard ≥ threshold pairs within source groups,
    sub-blocked by shingle-count band so one hot source is never O(n²):
    J(A,B) ≥ t ⇒ |A|/|B| ∈ [t, 1/t], so with log₂ size bands a
    qualifying pair's bands differ by at most D = ceil(log2(1/t)).
    Each doc lands in buckets (band .. band+D); a pair is emitted only
    where max(band_a, band_b) == bucket band — every qualifying pair
    exactly once, all-pairs cost bounded per (source, band). D=1 at the
    default t=0.5; smaller thresholds widen the span instead of
    silently dropping cross-band pairs."""
    import math

    if not 0.0 < threshold <= 1.0:
        raise ValueError("threshold must be in (0, 1]")
    span = max(0, math.ceil(math.log2(1.0 / threshold)))

    def to_bands(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        texts = batch["text"].to_pylist()
        sources = batch["source"].to_pylist()
        o_id, o_src, o_band, o_bucket, o_sh = [], [], [], [], []
        for doc_id, text, src in zip(ids, texts, sources):
            sh = _shingles(text)
            band = int(math.log2(len(sh))) if sh else -1
            blob = np.fromiter(sorted(sh), dtype=np.uint64).tobytes()
            for bucket in range(band, band + span + 1):
                o_id.append(doc_id)
                o_src.append(src)
                o_band.append(band)
                o_bucket.append(bucket)
                o_sh.append(blob)
        return pa.table(
            {
                "doc_id": pa.array(o_id, pa.int64()),
                "source": pa.array(o_src, pa.string()),
                "band": pa.array(o_band, pa.int32()),
                "bucket": pa.array(o_bucket, pa.int32()),
                "sh": pa.array(o_sh, pa.binary()),
            }
        )

    def pairs(df: pd.DataFrame) -> pd.DataFrame:
        out: list[tuple[int, int]] = []
        for (_src, bucket), g in df.groupby(["source", "bucket"], sort=False):
            rows = sorted(
                zip(g["doc_id"], g["band"], g["sh"])
            )
            for i in range(len(rows)):
                for j in range(i + 1, len(rows)):
                    a, band_a, sa_b = rows[i]
                    b, band_b, sb_b = rows[j]
                    if a == b or max(band_a, band_b) != bucket:
                        continue
                    sa = np.frombuffer(sa_b, dtype=np.uint64)
                    sb = np.frombuffer(sb_b, dtype=np.uint64)
                    inter = len(np.intersect1d(sa, sb, assume_unique=True))
                    union = len(sa) + len(sb) - inter
                    jac = (inter / union) if union else 1.0
                    if jac >= threshold:
                        out.append((a, b) if a < b else (b, a))
        if not out:
            return pd.DataFrame({"doc_a": pd.Series([], dtype="int64"),
                                 "doc_b": pd.Series([], dtype="int64")})
        return pd.DataFrame(sorted(set(out)), columns=["doc_a", "doc_b"])

    banded = _read(sf_dir, "documents", ["doc_id", "text", "source"], to_bands)
    return sorted_fold(bucketed_apply_tasks(banded, ["source", "bucket"], pairs),
                       ["doc_a", "doc_b"], _same).dataset()


# ---------------------------------------------------------------------------
# embedding near-dup + ANN top-k (brute-force cosine vs broadcast matrix)
# ---------------------------------------------------------------------------


def _batch_matrix(batch: pa.Table) -> tuple[np.ndarray, np.ndarray]:
    vec_ids = np.asarray(batch["vec_id"].to_pylist(), dtype=np.int64)
    m = np.stack(
        [np.asarray(v, dtype=np.float64) for v in batch["embedding"].to_pylist()]
    )
    return vec_ids, m


def _query_vectors(emb: Blocks, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Embeddings of the n smallest vec_ids — distributed min-k (per-block
    partial top-n, driver merge of n-row partials), never the full table."""

    def partial(batch: pa.Table) -> pa.Table:
        return batch.sort_by("vec_id").slice(0, n)

    return _batch_matrix(
        read_blocks(emb.refs, partial).table().sort_by("vec_id").slice(0, n))


def _train_centroids(
    emb: Blocks, n_cells: int, sample_rows: int = 4096, iters: int = 5,
    normalize: bool = True, seed: int = 13,
) -> np.ndarray:
    """Spherical k-means-lite centroids from a BOUNDED head sample (the
    IVF training convention: the first ``sample_rows`` rows in file
    order) — k×dim result, sample never exceeds ``sample_rows``
    regardless of table size."""
    heads, tabs = read_blocks(emb.refs, lambda t: t.slice(0, sample_rows)), []
    for ref in heads.refs:  # fetched in order, only until the sample is full
        tabs.append(ray.get(ref))
        if sum(t.num_rows for t in tabs) >= sample_rows:
            break
    m = _batch_matrix(pa.concat_tables(tabs).slice(0, sample_rows))[1]
    if normalize:
        m = m / np.linalg.norm(m, axis=1, keepdims=True)
    rng = np.random.RandomState(seed)
    centers = m[rng.choice(len(m), size=min(n_cells, len(m)), replace=False)].copy()
    for _ in range(iters):
        assign = np.argmax(m @ centers.T, axis=1)
        for c in range(len(centers)):
            members = m[assign == c]
            if len(members):
                v = members.mean(axis=0)
                centers[c] = v / (np.linalg.norm(v) or 1.0) if normalize else v
    return centers


def embedding_quantize(sf_dir: str) -> ray.data.Dataset:
    """Int8 scalar quantization per vector (the ANN-serving prep step):
    scale = 127/max|x|, q_i = floor(x_i * scale). Returns
    (vec_id, scale_micro, q_md5) where q_md5 digests the comma-joined
    quantized vector — a per-element-exact, scalar-shaped audit of the
    whole quantization, strict-oracle-checkable (both sides do the same
    float64 divide/multiply/floor). Pure map, no shuffle until the
    output sort."""

    def quant(batch: pa.Table) -> pa.Table:
        ids = batch["vec_id"].to_pylist()
        embs = batch["embedding"].to_pylist()
        scales, digests = [], []
        for v in embs:
            x = np.asarray(v, dtype=np.float64)
            m = np.abs(x).max() if len(x) else 0.0
            scale = (127.0 / m) if m > 0 else 0.0
            q = np.floor(x * scale).astype(np.int64)
            scales.append(int(np.floor(scale * 1_000_000)))
            digests.append(
                hashlib.md5(",".join(str(int(e)) for e in q).encode())
                .hexdigest()
            )
        return pa.table(
            {
                "vec_id": pa.array(ids, pa.int64()),
                "scale_micro": pa.array(scales, pa.int64()),
                "q_md5": pa.array(digests, pa.string()),
            }
        )

    return sorted_fold(_read(sf_dir, "embeddings"), ["vec_id"], quant).dataset()


def _topk_per_query(scored: Blocks, k: int) -> ray.data.Dataset:
    """Per-query top-k merge of both ann ops: one sorted fold on
    query_id, the ``k`` best rows of each query_id (highest sim_micro,
    then lowest vec_id), ranked from 1, in one vectorized task per key
    range."""

    def topk(table: pa.Table) -> pd.DataFrame:
        df = table.to_pandas().sort_values(
            ["query_id", "sim_micro", "vec_id"], ascending=[True, False, True],
            kind="stable").groupby("query_id", sort=False).head(k)
        return pd.DataFrame({
            "query_id": df["query_id"].to_numpy(),
            "rank": df.groupby("query_id", sort=False).cumcount().to_numpy() + 1,
            "vec_id": df["vec_id"].to_numpy(),
            "sim_micro": df["sim_micro"].to_numpy(),
        })

    return sorted_fold(scored, ["query_id", "rank"], topk).dataset()


def ann_topk(sf_dir: str, n_queries: int = 8, k: int = 10) -> ray.data.Dataset:
    """Brute-force cosine top-k against a broadcast query matrix.

    Exactness note: sim_micro = floor(cosine * 1e6) is strict-oracle-
    compared, but Ray (numpy blocked summation) and DuckDB
    (list_cosine_similarity, sequential) compute the cosine with
    different float64 orderings — a pair whose value lies within ~1 ULP
    of an integer/1e6 boundary could floor differently. Probability
    ~1e-10 per pair at 64 dims; accepted for this op (the sketch ops use
    integer-exact constructions instead).

    Queries = embeddings of the first n_queries vec_ids; numpy matmul
    per block against the broadcast query matrix (``ray.put`` once).
    Ties broken by vec_id ascending."""
    emb = _read(sf_dir, "embeddings")
    q_ids, q = _query_vectors(emb, n_queries)
    qn = q / np.linalg.norm(q, axis=1, keepdims=True)
    q_ref = ray.put((q_ids, qn))

    def score(batch: pa.Table) -> pa.Table:
        b_q_ids, b_qn = cached_get(q_ref)
        vec_ids = np.asarray(batch["vec_id"].to_pylist(), dtype=np.int64)
        m = np.stack(
            [np.asarray(v, dtype=np.float64) for v in batch["embedding"].to_pylist()]
        )
        m = m / np.linalg.norm(m, axis=1, keepdims=True)
        sims = b_qn @ m.T  # (Q, B)
        out_q, out_v, out_s = [], [], []
        for qi in range(sims.shape[0]):
            for bi in range(sims.shape[1]):
                if vec_ids[bi] == b_q_ids[qi]:
                    continue  # exclude self
                out_q.append(int(b_q_ids[qi]))
                out_v.append(int(vec_ids[bi]))
                out_s.append(float(sims[qi, bi]))
        return pa.table(
            {
                "query_id": pa.array(out_q, pa.int64()),
                "vec_id": pa.array(out_v, pa.int64()),
                "sim_micro": pa.array(
                    [int(np.floor(s * 1_000_000)) for s in out_s], pa.int64()
                ),
            }
        )

    return _topk_per_query(read_blocks(emb.refs, score), k)


# Below this row count the near-dup pair search runs EXACT (distributed
# scan against a once-broadcast normalized matrix — bounded at
# cutoff × dim float64, ~50 MB for 100k × 64) and is therefore
# SQL-replicable; above it the IVF-cell-blocked approximate path takes
# over. The driver gate exercises the exact path at a threshold the
# synthetic embeddings actually reach (max pairwise cosine ≈ 0.51).
_NEAR_DUP_EXACT_CUTOFF = 100_000
_NEAR_DUP_GATE_THRESHOLD = 0.4


def _micro_floor(x: float) -> int:
    return int(np.floor(x * 1_000_000))


def _near_dup_exact(emb: Blocks, threshold: float) -> ray.data.Dataset:
    """Exact all-pairs cosine ≥ threshold, (vec_a < vec_b, sim_micro).

    Distributed scan: the full normalized matrix (bounded by
    ``_NEAR_DUP_EXACT_CUTOFF`` — the caller checked) broadcasts once via
    ray.put; each block scores its rows against it and emits only the
    a < b half, so every qualifying pair is produced exactly once, by
    the block holding its smaller id."""
    thr_micro = _micro_floor(threshold)
    table = emb.table()
    if table is None:
        return ray.data.from_arrow(
            pa.table({"vec_a": pa.array([], pa.int64()),
                      "vec_b": pa.array([], pa.int64()),
                      "sim_micro": pa.array([], pa.int64())})
        )
    ids_all, m_all = _batch_matrix(table)
    mn_all = m_all / np.linalg.norm(m_all, axis=1, keepdims=True)
    ref = ray.put((ids_all, mn_all))

    def scan(batch: pa.Table) -> pa.Table:
        b_ids_all, b_mn_all = cached_get(ref)
        b_ids, bm = _batch_matrix(batch)
        bmn = bm / np.linalg.norm(bm, axis=1, keepdims=True)
        micro = np.floor((bmn @ b_mn_all.T) * 1_000_000).astype(np.int64)
        ai, bj = np.nonzero(micro >= thr_micro)
        a = b_ids[ai]
        b = b_ids_all[bj]
        keep = a < b
        return pa.table(
            {
                "vec_a": pa.array(a[keep], pa.int64()),
                "vec_b": pa.array(b[keep], pa.int64()),
                "sim_micro": pa.array(micro[ai[keep], bj[keep]], pa.int64()),
            }
        )

    return sorted_fold(read_blocks(emb.refs, scan), ["vec_a", "vec_b"],
                       _same).dataset()


def near_dup_oracle_sql(threshold: float = _NEAR_DUP_GATE_THRESHOLD) -> str:
    """DuckDB replica of the exact near-dup path (same floor(·1e6)
    threshold arithmetic as the Ray scan — thr_micro derives from the
    identical Python expression, so engine and oracle cannot drift)."""
    return f"""
        SELECT a.vec_id AS vec_a, b.vec_id AS vec_b,
               CAST(floor(list_cosine_similarity(
                   CAST(a.embedding AS DOUBLE[]),
                   CAST(b.embedding AS DOUBLE[])) * 1000000) AS BIGINT)
                   AS sim_micro
        FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
        WHERE CAST(floor(list_cosine_similarity(
                  CAST(a.embedding AS DOUBLE[]),
                  CAST(b.embedding AS DOUBLE[])) * 1000000) AS BIGINT)
              >= {_micro_floor(threshold)}
        ORDER BY vec_a, vec_b
    """


def embedding_near_dup(
    sf_dir: str, threshold: float = 0.95, n_cells: int = 16, n_assign: int = 2,
    exact_cutoff: int = _NEAR_DUP_EXACT_CUTOFF,
) -> ray.data.Dataset:
    """Near-duplicate pairs (a < b, sim_micro) with cosine ≥ threshold.

    EXACT below ``exact_cutoff`` rows (distributed scan against a
    bounded broadcast matrix — strict DuckDB oracle at the gate);
    APPROXIMATE IVF-cell-blocked above it, where recall < 1.0 by
    design: a qualifying pair whose top-``n_assign`` cell assignments
    are disjoint is missed (raise ``n_assign`` to trade cost for
    recall; the seeded clustered-fixture pytest pins recall ≥ 0.9 on
    the IVF path with ``exact_cutoff=0``). Sample-trained centroids
    partition the space; each vector lands in its ``n_assign`` nearest
    cells (multi-assignment keeps boundary-straddling near-dups in a
    shared cell); all-pairs cosine runs only within cells via a
    hash-partitioned bucket exchange. No full-matrix broadcast on the
    IVF path — per-worker state is the k×dim centroid block."""
    emb = _read(sf_dir, "embeddings")
    if emb.rows <= exact_cutoff:
        return _near_dup_exact(emb, threshold)
    thr_micro = _micro_floor(threshold)
    centers = _train_centroids(emb, n_cells)
    c_ref = ray.put(centers)

    def assign_cells(batch: pa.Table) -> pa.Table:
        c = cached_get(c_ref)
        vec_ids, m = _batch_matrix(batch)
        mn = m / np.linalg.norm(m, axis=1, keepdims=True)
        sims = mn @ c.T
        near = np.argsort(-sims, axis=1)[:, :n_assign]
        n_rows = len(vec_ids)
        return pa.table(
            {
                "cell": pa.array(near.ravel().astype("int64"), pa.int64()),
                "vec_id": pa.array(np.repeat(vec_ids, n_assign), pa.int64()),
                "vec": pa.array(
                    [mn[i].tobytes() for i in range(n_rows) for _ in range(n_assign)],
                    pa.binary(),
                ),
            }
        )

    def cell_pairs(df: pd.DataFrame) -> pd.DataFrame:
        out_a: list[int] = []
        out_b: list[int] = []
        out_s: list[int] = []
        for _cell, g in df.groupby("cell", sort=False):
            g = g.drop_duplicates(subset="vec_id")
            ids = g["vec_id"].to_numpy()
            m = np.stack([np.frombuffer(v, dtype=np.float64) for v in g["vec"]])
            micro = np.floor((m @ m.T) * 1_000_000).astype(np.int64)
            ai, bi = np.nonzero(micro >= thr_micro)
            for i, j in zip(ai, bi):
                a, b = int(ids[i]), int(ids[j])
                if a < b:
                    out_a.append(a)
                    out_b.append(b)
                    out_s.append(int(micro[i, j]))
        return pd.DataFrame(
            {"vec_a": pd.Series(out_a, dtype="int64"),
             "vec_b": pd.Series(out_b, dtype="int64"),
             "sim_micro": pd.Series(out_s, dtype="int64")}
        )

    pairs = bucketed_apply_tasks(read_blocks(emb.refs, assign_cells),
                                 ["cell"], cell_pairs)
    # a pair found in both of its shared cells appears twice → distinct
    return sorted_fold(pairs, ["vec_a", "vec_b"],
                       lambda t: t.to_pandas().drop_duplicates()).dataset()


def ann_ivf(sf_dir: str, n_queries: int = 8, k: int = 10, n_cells: int = 16,
            n_probe: int = 4) -> ray.data.Dataset:
    """IVF ANN as a distributed pipeline: centroids train on a bounded
    sample (driver holds k×dim only); the inverted-file *scan* runs as
    one raw task per pinned block — each assigns its vectors to cells and
    scores them against only the queries probing that cell set;
    per-query top-k merges as in ann_topk. Approximate — recall vs
    ann_topk in pytest."""
    emb = _read(sf_dir, "embeddings")
    centers = _train_centroids(emb, n_cells)
    q_ids, q = _query_vectors(emb, n_queries)
    qn = q / np.linalg.norm(q, axis=1, keepdims=True)
    probe = np.argsort(-(qn @ centers.T), axis=1)[:, :n_probe]
    ref = ray.put((centers, q_ids, qn, probe))

    def scan(batch: pa.Table) -> pa.Table:
        c, b_q_ids, b_qn, b_probe = cached_get(ref)
        vec_ids, m = _batch_matrix(batch)
        mn = m / np.linalg.norm(m, axis=1, keepdims=True)
        assign = np.argmax(mn @ c.T, axis=1)
        sims = b_qn @ mn.T  # (Q, B)
        out_q, out_v, out_s = [], [], []
        for qi in range(len(b_q_ids)):
            mask = np.isin(assign, b_probe[qi]) & (vec_ids != b_q_ids[qi])
            for bi in np.nonzero(mask)[0]:
                out_q.append(int(b_q_ids[qi]))
                out_v.append(int(vec_ids[bi]))
                out_s.append(int(np.floor(sims[qi, bi] * 1_000_000)))
        return pa.table(
            {
                "query_id": pa.array(out_q, pa.int64()),
                "vec_id": pa.array(out_v, pa.int64()),
                "sim_micro": pa.array(out_s, pa.int64()),
            }
        )

    return _topk_per_query(read_blocks(emb.refs, scan), k)


def embedding_kmeans(sf_dir: str, k: int = 8, iters: int = 10) -> ray.data.Dataset:
    """Deterministic distributed k-means over the embedding column:
    (vec_id, cluster_id). Centers iterate on the driver (k×dim floats —
    tiny); per-iteration assignment + partial sums run as one raw task
    per pinned block, merged driver-side — the classic broadcast-iterate
    loop."""
    # read and pin the embeddings once: the seed sample, every iteration
    # and the final assignment map the same blocks; the centers seed
    # from a BOUNDED head sample (never the full table)
    emb = _read(sf_dir, "embeddings")
    centers = _train_centroids(
        emb, k, sample_rows=max(1024, 64 * k), iters=0,
        normalize=False, seed=29,
    )

    def nearest(batch: pa.Table, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        m = _batch_matrix(batch)[1]
        return m, ((m[:, None, :] - c[None, :, :]) ** 2).sum(axis=2).argmin(axis=1)

    for _ in range(iters):
        ref = ray.put(centers)

        def partials(batch: pa.Table) -> pa.Table:
            m, assign = nearest(batch, cached_get(ref))
            rows_c = np.unique(assign)
            return pa.table(
                {
                    "cluster": pa.array(rows_c, pa.int32()),
                    "n": pa.array([int((assign == ci).sum()) for ci in rows_c],
                                  pa.int64()),
                    "s": pa.array([m[assign == ci].sum(axis=0).tolist()
                                   for ci in rows_c], pa.list_(pa.float64())),
                }
            )

        parts = read_blocks(emb.refs, partials).table().to_pandas()
        for ci in range(len(centers)):
            sel = parts[parts["cluster"] == ci]
            n = sel["n"].sum()
            if n > 0:
                centers[ci] = np.sum(np.stack(sel["s"].to_list()), axis=0) / n

    ref = ray.put(centers)

    def assign_final(batch: pa.Table) -> pa.Table:
        assign = nearest(batch, cached_get(ref))[1]
        return pa.table({"vec_id": batch["vec_id"],
                         "cluster_id": pa.array(assign.astype("int64"), pa.int64())})

    return sorted_fold(emb, ["vec_id"], assign_final).dataset()


# ---------------------------------------------------------------------------
# text analysis
# ---------------------------------------------------------------------------

# explicit whitespace class: RE2's \s is [ \t\n\f\r] but Python ASCII \s
# also includes \x0b — spelling it out keeps both engines identical
_TOKEN_PATTERN = r"[A-Za-z]+|[0-9]|[^A-Za-z0-9 \t\n\f\r]"

_STOPWORDS = {
    "en": {"the", "and", "of", "to", "a", "in", "is", "that", "it", "for"},
    "de": {"der", "die", "das", "und", "ist", "nicht", "ein", "zu", "mit", "von"},
    "fr": {"le", "la", "les", "et", "est", "un", "une", "de", "pas", "pour"},
    "es": {"el", "la", "los", "y", "es", "un", "una", "de", "no", "por"},
}


def text_stats(sf_dir: str) -> ray.data.Dataset:
    """(doc_id, n_chars, n_tokens, n_punct) — SQL-replicable quality stats."""
    import re

    tok = re.compile(_TOKEN_PATTERN, re.ASCII)  # match RE2/DuckDB \s semantics

    def stats(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        texts = batch["text"].to_pylist()
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "n_chars": pa.array([len(t) for t in texts], pa.int64()),
                "n_tokens": pa.array([len(tok.findall(t)) for t in texts], pa.int64()),
                "n_punct": pa.array(
                    [sum(1 for c in t if c in ".,!?;:") for t in texts], pa.int64()
                ),
            }
        )

    return sorted_fold(_read(sf_dir, "documents", ["doc_id", "text"]),
                       ["doc_id"], stats).dataset()


def lang_id(sf_dir: str) -> ray.data.Dataset:
    """Stopword-vote language ID heuristic: (doc_id, lang_pred)."""

    def classify(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        texts = batch["text"].to_pylist()
        preds = []
        for t in texts:
            words = set(_words(_sql_lower(t)))
            best, best_n = "unknown", 0
            for lang in sorted(_STOPWORDS):
                hits = len(words & _STOPWORDS[lang])
                if hits > best_n:
                    best, best_n = lang, hits
            preds.append(best)
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "lang_pred": pa.array(preds, pa.string()),
            }
        )

    return sorted_fold(_read(sf_dir, "documents", ["doc_id", "text"]),
                       ["doc_id"], classify).dataset()


def top_tokens(sf_dir: str, k: int = 50) -> ray.data.Dataset:
    """Corpus-wide top-k token counts (whitespace tokens, lowercased):
    the heavy-hitter aggregate — per-block partial counts collapse each
    hot token to one row per block before the exchange."""

    def partial(batch: pa.Table) -> pa.Table:
        counts: dict[str, int] = {}
        for text in batch["text"].to_pylist():
            for tok in _words(_sql_lower(text)):
                counts[tok] = counts.get(tok, 0) + 1
        return pa.table(
            {
                "token": pa.array(list(counts.keys()), pa.string()),
                "n": pa.array(list(counts.values()), pa.int64()),
            }
        )

    def top(df: pd.DataFrame) -> pd.DataFrame:
        # top-k with deterministic ties: n desc, token asc
        return df.sort_values(["n", "token"], ascending=[False, True],
                              kind="stable").head(k)

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        return top(df.groupby("token", as_index=False).agg(n=("n", "sum")))

    def final(df: pd.DataFrame) -> pd.DataFrame:
        df = top(df).reset_index(drop=True)
        df["rank"] = df.index + 1
        return df[["rank", "token", "n"]]

    # each token bucket keeps its own top k; the one global bucket ranks
    # those, in rank order
    merged = bucketed_apply_tasks(_read(sf_dir, "documents", ["text"], partial),
                                  ["token"], merge)
    return bucketed_apply_tasks(merged, [], final).dataset()


_INDEX_MAX_POSTINGS = 256


def inverted_index(
    sf_dir: str, max_postings: int = _INDEX_MAX_POSTINGS
) -> ray.data.Dataset:
    """Distributed inverted index: (token, df, postings_csv) per distinct
    token (same whitespace/lowercase tokenization as top_tokens).

    ``df`` is the exact document frequency; ``postings_csv`` is the
    posting list capped at the first ``max_postings`` ascending doc_ids
    — the cap bounds the row size for stop-word-grade tokens whose true
    posting list is the whole corpus (at index-serving scale the tail
    of a hot posting list lives in the next index shard, not one row).
    Per-block (token, doc_id) pairs are already distinct (a doc's text
    is one row), so the sorted fold by token is the only exchange."""

    def pairs(batch: pa.Table) -> pa.Table:
        toks: list[str] = []
        ids: list[int] = []
        for doc_id, text in zip(
            batch["doc_id"].to_pylist(), batch["text"].to_pylist()
        ):
            for tok in set(_words(_sql_lower(text))):
                toks.append(tok)
                ids.append(doc_id)
        return pa.table(
            {
                "token": pa.array(toks, pa.string()),
                "doc_id": pa.array(ids, pa.int64()),
            }
        )

    def merge(table: pa.Table) -> pd.DataFrame:
        df = table.to_pandas().sort_values(["token", "doc_id"], kind="stable")
        freq = df.groupby("token", sort=False).size().rename("df")
        df["rn"] = df.groupby("token", sort=False).cumcount()
        capped = df[df["rn"] < max_postings].copy()
        capped["doc_str"] = capped["doc_id"].astype("string").astype(object)
        post = (
            capped.groupby("token", sort=False)["doc_str"]
            .agg(",".join)
            .rename("postings_csv")
        )
        out = pd.concat([freq, post], axis=1).reset_index()
        out["df"] = out["df"].astype("int64")
        out["postings_csv"] = out["postings_csv"].fillna("")
        return out[["token", "df", "postings_csv"]]

    parts = _read(sf_dir, "documents", ["doc_id", "text"], pairs)
    return sorted_fold(parts, ["token"], merge).dataset()


def inverted_index_oracle_sql(max_postings: int = _INDEX_MAX_POSTINGS) -> str:
    return f"""
        WITH toks AS (
            SELECT DISTINCT doc_id, token FROM (
                SELECT doc_id, unnest(regexp_split_to_array(
                    trim(lower(text)), '[ \t\n\r]+')) AS token
                FROM documents
            ) WHERE token <> ''
        ),
        r AS (
            SELECT token, doc_id, row_number() OVER (
                PARTITION BY token ORDER BY doc_id
            ) AS rn FROM toks
        )
        SELECT token, count(*) AS df,
               COALESCE(string_agg(
                   CASE WHEN rn <= {max_postings}
                        THEN CAST(doc_id AS VARCHAR) END,
                   ',' ORDER BY doc_id), '') AS postings_csv
        FROM r GROUP BY token ORDER BY token
    """


_TFIDF_K = 5


def tfidf_topk(sf_dir: str, k: int = _TFIDF_K) -> ray.data.Dataset:
    """Integer-scored TF-IDF: the top-``k`` terms per document by
    ``score = tf * N // df`` (same monotone ranking as tf·(N/df), but
    all-BIGINT so a distributed run is hash-exact against SQL — float
    log-idf could never be). Ties break by token.

    Plan: per-block exact (doc_id, token, tf) triples (a doc is one
    row, so tf is exact map-side) → ONE exchange bucketed by token
    attaches df (= group size, since (doc,token) rows are distinct) and
    the score → ONE sorted fold by doc_id takes the per-doc top-k. N is
    a parquet-metadata count, not a materialization. Output (doc_id,
    token, tf, df, score) ordered by (doc_id, token)."""
    n_docs = sum(md.num_rows for md in footers(f"{sf_dir}/documents.parquet"))

    def tf_pairs(batch: pa.Table) -> pa.Table:
        ids: list[int] = []
        toks: list[str] = []
        tfs: list[int] = []
        for doc_id, text in zip(
            batch["doc_id"].to_pylist(), batch["text"].to_pylist()
        ):
            cnt: dict[str, int] = {}
            for w in _words(_sql_lower(text)):
                cnt[w] = cnt.get(w, 0) + 1
            for t, c in cnt.items():
                ids.append(doc_id)
                toks.append(t)
                tfs.append(c)
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "token": pa.array(toks, pa.string()),
                "tf": pa.array(tfs, pa.int64()),
            }
        )

    def attach_df(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["df"] = df.groupby("token")["token"].transform("size").astype("int64")
        df["score"] = (df["tf"].astype("int64") * n_docs) // df["df"]
        return df[["doc_id", "token", "tf", "df", "score"]]

    with_df = bucketed_apply_tasks(
        _read(sf_dir, "documents", ["doc_id", "text"], tf_pairs), ["token"],
        attach_df)

    def topk(table: pa.Table) -> pd.DataFrame:
        df = table.to_pandas().sort_values(
            ["doc_id", "score", "token"],
            ascending=[True, False, True],
            kind="stable",
        )
        df = df[df.groupby("doc_id").cumcount() < k]
        return df[["doc_id", "token", "tf", "df", "score"]]

    return sorted_fold(with_df, ["doc_id", "token"], topk).dataset()


def tfidf_topk_oracle_sql(k: int = _TFIDF_K) -> str:
    return f"""
        WITH toks AS (
            SELECT doc_id, token FROM (
                SELECT doc_id, unnest(regexp_split_to_array(
                    trim(lower(text)), '[ \t\n\r]+')) AS token
                FROM documents
            ) WHERE token <> ''
        ),
        tfq AS (
            SELECT doc_id, token, count(*) AS tf
            FROM toks GROUP BY doc_id, token
        ),
        dfq AS (SELECT token, count(*) AS df FROM tfq GROUP BY token),
        n AS (SELECT count(*) AS n FROM documents),
        scored AS (
            SELECT tfq.doc_id, tfq.token, tfq.tf, dfq.df,
                   CAST(tfq.tf * n.n // dfq.df AS BIGINT) AS score
            FROM tfq JOIN dfq USING (token) CROSS JOIN n
        ),
        ranked AS (
            SELECT *, row_number() OVER (
                PARTITION BY doc_id ORDER BY score DESC, token
            ) AS rn FROM scored
        )
        SELECT doc_id, token, tf, df, score FROM ranked
        WHERE rn <= {k} ORDER BY doc_id, token
    """


def doc_quality(sf_dir: str) -> ray.data.Dataset:
    """Gopher-style quality gate with integer/bool outputs (SQL-exact):
    (doc_id, n_chars, n_words, punct_per_100_chars, keep)."""

    def score(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        texts = batch["text"].to_pylist()
        n_chars, n_words, punct100, keeps = [], [], [], []
        for t in texts:
            nc = len(t)
            nw = len(_words(t))
            np_ = sum(1 for c in t if c in ".,!?;:")
            p100 = (np_ * 100) // nc if nc else 0
            n_chars.append(nc)
            n_words.append(nw)
            punct100.append(p100)
            keeps.append(50 <= nc <= 100_000 and nw >= 10 and p100 <= 20)
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "n_chars": pa.array(n_chars, pa.int64()),
                "n_words": pa.array(n_words, pa.int64()),
                "punct_per_100_chars": pa.array(punct100, pa.int64()),
                "keep": pa.array(keeps, pa.bool_()),
            }
        )

    return sorted_fold(_read(sf_dir, "documents", ["doc_id", "text"]),
                       ["doc_id"], score).dataset()


def doc_repetition(sf_dir: str) -> ray.data.Dataset:
    """Gopher-style repetition signals (integer-exact, SQL-replicable):
    (doc_id, n_lines, dup_line_frac_micro, top_bigram_frac_micro, keep).

    dup_line_frac = chars in lines whose content repeats within the doc
    (all occurrences) / chars in all non-empty lines; top_bigram_frac =
    occurrences of the most frequent word 2-gram / total 2-grams.
    keep = dup_line_frac < 0.30 AND top_bigram_frac < 0.20 — the Gopher
    repetition-filter shape. Pure per-doc map inside the output's
    sorted fold."""

    def score(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        texts = batch["text"].to_pylist()
        n_lines_l, dup_l, big_l, keeps = [], [], [], []
        for t in texts:
            lines = [ln for ln in t.split("\n") if ln != ""]
            counts: dict[str, int] = {}
            for ln in lines:
                counts[ln] = counts.get(ln, 0) + 1
            total = sum(len(ln) for ln in lines)
            dup = sum(len(ln) * c for ln, c in counts.items() if c > 1)
            dup_micro = (dup * 1_000_000) // total if total else 0
            words = _words(_sql_lower(t))
            n_big = len(words) - 1
            if n_big >= 1:
                bc: dict[str, int] = {}
                for i in range(n_big):
                    g = words[i] + " " + words[i + 1]
                    bc[g] = bc.get(g, 0) + 1
                max_c = max(bc.values())
                big_micro = (max_c * 1_000_000) // n_big
            else:
                big_micro = 0
            n_lines_l.append(len(lines))
            dup_l.append(dup_micro)
            big_l.append(big_micro)
            keeps.append(dup_micro < 300_000 and big_micro < 200_000)
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "n_lines": pa.array(n_lines_l, pa.int64()),
                "dup_line_frac_micro": pa.array(dup_l, pa.int64()),
                "top_bigram_frac_micro": pa.array(big_l, pa.int64()),
                "keep": pa.array(keeps, pa.bool_()),
            }
        )

    return sorted_fold(_read(sf_dir, "documents", ["doc_id", "text"]),
                       ["doc_id"], score).dataset()


def doc_repetition_oracle_sql() -> str:
    """STRICT DuckDB replica of doc_repetition (integer micro-fraction
    arithmetic matches the Python // exactly)."""
    return r"""
        WITH lines AS (
            SELECT doc_id, unnest(list_filter(
                string_split(text, chr(10)), l -> l <> '')) AS line
            FROM documents
        ),
        lc AS (
            SELECT doc_id, line, count(*) AS c, length(line) AS n
            FROM lines GROUP BY doc_id, line
        ),
        linestats AS (
            SELECT doc_id,
                   sum(c) AS n_lines,
                   sum(n * c) AS total_chars,
                   sum(CASE WHEN c > 1 THEN n * c ELSE 0 END) AS dup_chars
            FROM lc GROUP BY doc_id
        ),
        w AS (
            SELECT doc_id,
                   list_filter(regexp_split_to_array(lower(text),
                               '[ \t\n\r]+'), x -> x <> '') AS ws
            FROM documents
        ),
        bg AS (
            SELECT doc_id, ws[i] || ' ' || ws[i+1] AS gram
            FROM w, UNNEST(range(1, len(ws))) AS t(i)
            WHERE len(ws) >= 2
        ),
        bgc AS (
            SELECT doc_id, gram, count(*) AS c FROM bg
            GROUP BY doc_id, gram
        ),
        top AS (
            SELECT doc_id, c,
                   sum(c) OVER (PARTITION BY doc_id) AS n_big,
                   row_number() OVER (
                       PARTITION BY doc_id ORDER BY c DESC, gram
                   ) AS rn
            FROM bgc
        )
        SELECT d.doc_id,
               COALESCE(ls.n_lines, 0)::BIGINT AS n_lines,
               CASE WHEN COALESCE(ls.total_chars, 0) > 0
                    THEN (ls.dup_chars * 1000000) // ls.total_chars
                    ELSE 0 END::BIGINT AS dup_line_frac_micro,
               COALESCE(CASE WHEN t.n_big >= 1
                    THEN (t.c * 1000000) // t.n_big END, 0)::BIGINT
                   AS top_bigram_frac_micro,
               (CASE WHEN COALESCE(ls.total_chars, 0) > 0
                     THEN (ls.dup_chars * 1000000) // ls.total_chars
                     ELSE 0 END < 300000)
               AND (COALESCE(CASE WHEN t.n_big >= 1
                        THEN (t.c * 1000000) // t.n_big END, 0) < 200000)
                   AS keep
        FROM documents d
        LEFT JOIN linestats ls ON d.doc_id = ls.doc_id
        LEFT JOIN top t ON d.doc_id = t.doc_id AND t.rn = 1
        ORDER BY d.doc_id
    """


def doc_winnow(
    sf_dir: str, k: int = 8, window: int = 4
) -> ray.data.Dataset:
    """Winnowing document fingerprints (Schleimer/Wilkerson/Aiken):
    character k-gram rolling hashes, minimum per sliding window
    (rightmost on ties), deduplicated selections digested per doc.
    Per-row vectorized numpy; no shuffle at all until the output sort.
    Returns (doc_id, n_grams, n_selected, digest)."""
    B = np.uint64(1_000_003)
    powers = B ** np.arange(k - 1, -1, -1, dtype=np.uint64)

    def winnow(batch: pa.Table) -> pa.Table:
        from numpy.lib.stride_tricks import sliding_window_view

        ids = batch["doc_id"].to_pylist()
        texts = batch["text"].to_pylist()
        n_grams_l, n_sel_l, digest_l = [], [], []
        for text in texts:
            data = np.frombuffer(
                _sql_lower(text).encode("utf-8", "replace"), dtype=np.uint8
            ).astype(np.uint64)
            if len(data) < k:
                n_grams_l.append(0)
                n_sel_l.append(0)
                digest_l.append(hashlib.md5(b"").hexdigest())
                continue
            with np.errstate(over="ignore"):
                grams = sliding_window_view(data, k) @ powers  # (n-k+1,)
            if len(grams) < window:
                sel = [int(grams.min())]
            else:
                wins = sliding_window_view(grams, window)
                # rightmost minimum per window: argmin over the reversed
                # window picks the LAST position on ties
                rev_arg = np.argmin(wins[:, ::-1], axis=1)
                pos = np.arange(len(wins)) + (window - 1 - rev_arg)
                # winnowing keeps each (position, hash) selection once
                uniq = np.unique(pos)
                sel = grams[uniq].tolist()
            n_grams_l.append(len(grams))
            n_sel_l.append(len(sel))
            # decimal-joined digest: md5 is VARCHAR-only in DuckDB, so the
            # strict oracle hashes the same canonical string
            digest_l.append(
                hashlib.md5(",".join(str(int(v)) for v in sel).encode()).hexdigest()
            )
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "n_grams": pa.array(n_grams_l, pa.int64()),
                "n_selected": pa.array(n_sel_l, pa.int64()),
                "digest": pa.array(digest_l, pa.string()),
            }
        )

    return sorted_fold(_read(sf_dir, "documents", ["doc_id", "text"]),
                       ["doc_id"], winnow).dataset()


def doc_scrub(sf_dir: str) -> ray.data.Dataset:
    """PII-style scrub pass: redact digit runs (>=3) to '<NUM>' and
    '@'-containing tokens to '<EMAIL>'; returns per doc the redaction
    counts and the md5 of the scrubbed text — the shape of a
    training-data cleaning stage (scrub + audit trail), fully
    vectorizable and oracle-exact (same RE2-safe patterns both sides)."""
    import re

    num = re.compile(r"[0-9]{3,}", re.ASCII)
    email = re.compile(r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+", re.ASCII)

    def scrub(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        texts = batch["text"].to_pylist()
        n_nums, n_emails, digests = [], [], []
        for t in texts:
            t2, ne = email.subn("<EMAIL>", t)
            t3, nn = num.subn("<NUM>", t2)
            n_emails.append(ne)
            n_nums.append(nn)
            digests.append(hashlib.md5(t3.encode()).hexdigest())
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "n_emails": pa.array(n_emails, pa.int64()),
                "n_nums": pa.array(n_nums, pa.int64()),
                "scrubbed_md5": pa.array(digests, pa.string()),
            }
        )

    return sorted_fold(_read(sf_dir, "documents", ["doc_id", "text"]),
                       ["doc_id"], scrub).dataset()


def doc_fingerprint(sf_dir: str) -> ray.data.Dataset:
    """Normalized-text digest fingerprint: md5(lower(ws-collapsed text))."""
    import re

    ws = re.compile(r"[ \t\n\f\r]+")  # == RE2 \s, minus Python's \x0b

    def fp(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        texts = batch["text"].to_pylist()
        out = [
            hashlib.md5(_sql_lower(ws.sub(" ", t)).encode("utf-8")).hexdigest()
            for t in texts
        ]
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "fingerprint": pa.array(out, pa.string()),
            }
        )

    return sorted_fold(_read(sf_dir, "documents", ["doc_id", "text"]),
                       ["doc_id"], fp).dataset()


# per-language keep rates (parts per million) for stratified_sample; the
# oracle SQL is generated from these same constants so they cannot drift.
_SAMPLE_RATE_MICRO: dict[str, int] = {"en": 500_000}
_SAMPLE_RATE_DEFAULT_MICRO = 250_000


def stratified_sample(sf_dir: str) -> ray.data.Dataset:
    """Deterministic per-language hash sampling (the data-mixing
    primitive): keep a document iff ``h(doc_id) mod 1e6 <
    rate_micro(lang)`` where h is the first 8 bytes of
    md5(str(doc_id)), big-endian. Seedless and content-independent, so
    the keep decision for a given doc is identical at any scale,
    partitioning or rerun — what makes the sample reproducible and
    joinable against other tables sampled the same way. Pure filter
    map: zero shuffle until the output sort."""

    def keep(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        langs = batch["lang"].to_pylist()
        mask = []
        for i, lg in zip(ids, langs):
            h = int.from_bytes(
                hashlib.md5(str(i).encode()).digest()[:8], "big"
            )
            rate = _SAMPLE_RATE_MICRO.get(lg, _SAMPLE_RATE_DEFAULT_MICRO)
            mask.append(h % 1_000_000 < rate)
        return batch.filter(pa.array(mask, pa.bool_()))

    return sorted_fold(_read(sf_dir, "documents", ["doc_id", "lang", "n_chars"]),
                       ["doc_id"], keep).dataset()


def group_quota(sf_dir: str, quota: int = 40) -> ray.data.Dataset:
    """Per-language document cap (the curation quota step): keep the
    top ``quota`` docs per lang by (n_chars DESC, doc_id ASC) and rank
    them 1..quota. Map-side partial top-k per block bounds the exchange
    to quota × langs rows per block; the sorted fold by lang re-ranks
    globally — the same partial/merge shape as top_tokens, so no
    language group ever has to fit unpruned in one task."""

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas().sort_values(
            ["lang", "n_chars", "doc_id"], ascending=[True, False, True]
        )
        df = df.groupby("lang", as_index=False, sort=False).head(quota)
        return pa.Table.from_pandas(df, preserve_index=False)

    def merge(table: pa.Table) -> pd.DataFrame:
        df = table.to_pandas().sort_values(
            ["lang", "n_chars", "doc_id"], ascending=[True, False, True]
        )
        df = df.groupby("lang", as_index=False, sort=False).head(quota).copy()
        df["rank"] = (df.groupby("lang").cumcount() + 1).astype("int64")
        return df[["lang", "rank", "doc_id", "n_chars"]]

    parts = _read(sf_dir, "documents", ["doc_id", "lang", "n_chars"], partial)
    return sorted_fold(parts, ["lang", "rank"], merge).dataset()


_PACK_CAPACITY = 2048  # chars per pack; shared into the oracle SQL


def doc_pack(sf_dir: str, capacity: int = _PACK_CAPACITY) -> ray.data.Dataset:
    """Sequence packing (the LLM-training batch-prep step): assign each
    doc, in (lang, doc_id) order, its running char offset and the pack
    (capacity-sized bin) that offset falls in.

    An ordered prefix sum is inherently sequential, so it's computed as
    the classic two-pass distributed scan: docs range-bucket by a
    monotone map of the order key (r from sampled-quantile boundaries,
    at least one r-bucket per cluster CPU — balanced even when
    doc_ids are sparse or clustered, where a fixed-width ``id // width``
    ranger would collapse to a few hot buckets); pass 1 reduces each
    (lang, r) to ONE partial sum and the driver prefix-sums that
    summary — a structure bounded by langs × bucket count (the
    parallelism knob), never by rows; pass 2 broadcasts the per-bucket
    base offsets and computes exact in-bucket cumsums vectorized, one
    bucketed exchange. The ranger only affects balance: r is monotone
    in doc_id under ANY boundary set, so the scan stays exact. The
    documents are read once; every pass maps their pinned blocks."""
    docs = _read(sf_dir, "documents", ["doc_id", "lang", "n_chars"])
    rate = min(1.0, SAMPLE_KEYS / docs.rows) if docs.rows else 1.0

    def sample(batch: pa.Table) -> pa.Table:
        return pa.table({"k": pa.array(key_sample(batch["doc_id"], rate),
                                       pa.int64())})

    samples = read_blocks(docs.refs, sample).table()
    bounds = range_bounds([] if samples is None else [samples["k"].to_numpy()],
                          blocks_for(docs.nbytes, cluster_cpus())).astype("int64")

    def add_r(batch: pa.Table) -> pa.Table:
        r = np.searchsorted(
            bounds, batch["doc_id"].to_numpy(zero_copy_only=False), side="right"
        )
        return batch.append_column("r", pa.array(r.astype("int64"), pa.int64()))

    with_r = read_blocks(docs.refs, add_r)

    def partial(batch: pa.Table) -> pa.Table:
        g = (
            batch.to_pandas()
            .groupby(["lang", "r"], as_index=False)["n_chars"]
            .sum()
        )
        return pa.Table.from_pandas(g, preserve_index=False)

    # driver-side merge of METADATA-scale partials: one row per
    # (block, lang, r) in, one per (lang, r) out — bounded by the
    # bucket count, independent of row count
    parts = read_blocks(with_r.refs, partial).table().to_pandas()
    sums = (
        parts.groupby(["lang", "r"], as_index=False)["n_chars"]
        .sum()
        .sort_values(["lang", "r"])
    )
    sums["base"] = (
        sums.groupby("lang")["n_chars"].cumsum() - sums["n_chars"]
    ).astype("int64")
    off_ref = ray.put(sums[["lang", "r", "base"]])

    def pack(df: pd.DataFrame) -> pd.DataFrame:
        off = cached_get(off_ref)
        df = df.sort_values(["lang", "r", "doc_id"])
        cum = (
            df.groupby(["lang", "r"])["n_chars"].cumsum() - df["n_chars"]
        ).to_numpy()
        base = df.merge(off, on=["lang", "r"], how="left")["base"].to_numpy()
        out = pd.DataFrame(
            {
                "lang": df["lang"].to_numpy(),
                "doc_id": df["doc_id"].to_numpy(),
                "cum_before": (base + cum).astype("int64"),
            }
        )
        out["pack_id"] = (out["cum_before"] // capacity).astype("int64")
        return out

    packed = bucketed_apply_tasks(with_r, ["lang", "r"], pack)
    return sorted_fold(packed, ["lang", "doc_id"], _same).dataset()


_CHUNK_SIZE = 500  # chars per chunk; shared into the oracle SQL
_CHUNK_STRIDE = 400  # 100-char overlap


def doc_chunk(
    sf_dir: str, size: int = _CHUNK_SIZE, stride: int = _CHUNK_STRIDE
) -> ray.data.Dataset:
    """Fixed-window chunking with overlap (RAG / context-window prep):
    each doc expands to ceil-strided character windows — rows
    (doc_id, chunk_idx, n_chunk_chars, chunk_md5). An empty doc yields
    one empty chunk (chunkers must not silently drop rows). Pure
    flat-map expansion after the exchange — the 100 TB-safe shape: the
    documents split by doc_id range, and each range's task expands and
    sorts only its own rows."""

    def chunk(batch: pa.Table) -> pa.Table:
        out_id, out_idx, out_n, out_md5 = [], [], [], []
        for did, text in zip(
            batch["doc_id"].to_pylist(), batch["text"].to_pylist()
        ):
            for ci, start in enumerate(range(0, max(len(text), 1), stride)):
                piece = text[start : start + size]
                out_id.append(int(did))
                out_idx.append(ci)
                out_n.append(len(piece))
                out_md5.append(hashlib.md5(piece.encode()).hexdigest())
        return pa.table(
            {
                "doc_id": pa.array(out_id, pa.int64()),
                "chunk_idx": pa.array(out_idx, pa.int64()),
                "n_chunk_chars": pa.array(out_n, pa.int64()),
                "chunk_md5": pa.array(out_md5, pa.string()),
            }
        )

    return sorted_fold(_read(sf_dir, "documents", ["doc_id", "text"]),
                       ["doc_id", "chunk_idx"], chunk).dataset()


def doc_chunk_oracle_sql(
    size: int = _CHUNK_SIZE, stride: int = _CHUNK_STRIDE
) -> str:
    """STRICT DuckDB replica of doc_chunk (substring is 1-based and
    character-counted in DuckDB, matching Python str slicing; md5 runs
    over the UTF-8 bytes in both engines)."""
    return f"""
        SELECT doc_id,
               t.i // {stride} AS chunk_idx,
               length(substring(text, t.i + 1, {size})) AS n_chunk_chars,
               md5(substring(text, t.i + 1, {size})) AS chunk_md5
        FROM documents,
             UNNEST(range(0, greatest(length(text), 1), {stride})) AS t(i)
        ORDER BY doc_id, chunk_idx
    """


# ---------------------------------------------------------------------------
# events: tumbling-window aggregate (streaming-shaped workload, batch form)
# ---------------------------------------------------------------------------


def events_tumbling(sf_dir: str) -> ray.data.Dataset:
    """Per (user, hour) tumbling window: count + exact integer value sum
    (floor(value*1000) per row so the oracle matches bit-exactly).
    Map-side partials per block, then one sorted fold that merges them."""

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        # integer hour bucket (epoch secs // 3600): engine-exact vs DuckDB
        df["window_hour"] = df["ts"].astype("datetime64[s]").astype("int64") // 3600
        df["value_milli"] = np.floor(df["value"] * 1000).astype("int64")
        g = df.groupby(["user_id", "window_hour"], as_index=False).agg(
            n_events=("event_id", "size"), sum_milli=("value_milli", "sum")
        )
        return pa.Table.from_pandas(g, preserve_index=False)

    def merge(table: pa.Table) -> pd.DataFrame:
        return table.to_pandas().groupby(
            ["user_id", "window_hour"], as_index=False
        ).agg(n_events=("n_events", "sum"), sum_milli=("sum_milli", "sum"))

    parts = _read(sf_dir, "events", ["event_id", "ts", "user_id", "value"],
                  partial)
    return sorted_fold(parts, ["user_id", "window_hour"], merge).dataset()


def events_hopping(
    sf_dir: str, window_sec: int = 3600, hop_sec: int = 900
) -> ray.data.Dataset:
    """Hopping (sliding) window per user: 1h windows advancing every
    15min — each event lands in window_sec/hop_sec = 4 windows. The
    map-side explode assigns each event its window starts (pure
    arithmetic, no state), partials collapse per block, then one sorted
    fold merges them: the streaming-window shape expressed batch-first.
    Membership is w <= t < w + window over hop-aligned w — exact for
    any window/hop ratio (an event sits in ceil(window/hop) or one
    fewer windows when hop does not divide window)."""
    k = -(-window_sec // hop_sec)  # ceil

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        df["sec"] = df["ts"].astype("datetime64[s]").astype("int64")
        df["value_milli"] = np.floor(df["value"] * 1000).astype("int64")
        frames = []
        base = (df["sec"] // hop_sec) * hop_sec
        for i in range(k):
            w = df[["user_id", "value_milli"]].copy()
            w["window_start"] = base - i * hop_sec
            # trailing window may no longer cover the event when
            # hop does not divide window
            w = w[w["window_start"] > df["sec"] - window_sec]
            frames.append(w)
        exploded = pd.concat(frames, ignore_index=True)
        g = exploded.groupby(["user_id", "window_start"], as_index=False).agg(
            n_events=("value_milli", "size"), sum_milli=("value_milli", "sum")
        )
        return pa.Table.from_pandas(g, preserve_index=False)

    def merge(table: pa.Table) -> pd.DataFrame:
        return table.to_pandas().groupby(
            ["user_id", "window_start"], as_index=False
        ).agg(n_events=("n_events", "sum"), sum_milli=("sum_milli", "sum"))

    parts = _read(sf_dir, "events", ["ts", "user_id", "value"], partial)
    return sorted_fold(parts, ["user_id", "window_start"], merge).dataset()


def events_sessionize(sf_dir: str, gap_sec: int = 1800) -> ray.data.Dataset:
    """Session windows per user (gap > 30 min starts a new session):
    (user_id, session_id, n_events, start_sec, end_sec).

    The streaming-shaped pattern from the guide: partition by key, sort
    by ts within the partition, window inside the group. Users split
    into key ranges; each range sessionizes all its users vectorized."""

    def to_secs(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        df["sec"] = df["ts"].astype("datetime64[s]").astype("int64")
        return pa.Table.from_pandas(
            df[["user_id", "event_id", "sec"]], preserve_index=False
        )

    def sessionize(table: pa.Table) -> pd.DataFrame:
        df = table.to_pandas().sort_values(["user_id", "sec", "event_id"],
                                           kind="stable")
        new_user = df["user_id"].ne(df["user_id"].shift())
        gap = df["sec"].diff().gt(gap_sec)
        # global running session counter, then renumbered 1..n per user
        df["session_id"] = (new_user | gap).cumsum()
        df["session_id"] = (
            df.groupby("user_id", sort=False)["session_id"]
            .transform(lambda s: s - s.iloc[0] + 1)
        )
        g = df.groupby(["user_id", "session_id"], as_index=False).agg(
            n_events=("event_id", "size"),
            start_sec=("sec", "min"),
            end_sec=("sec", "max"),
        )
        return g

    secs = _read(sf_dir, "events", ["event_id", "ts", "user_id"], to_secs)
    return sorted_fold(secs, ["user_id", "session_id"], sessionize).dataset()


def events_asof_join(sf_dir: str, ref_type: str = "signup") -> ray.data.Dataset:
    """As-of join (inner): each event matched to the most recent
    strictly-prior event of the same user with event_type == ref_type.
    Returns (event_id, user_id, ref_event_id, gap_sec) sorted by event_id.

    Ray Data has no as-of join operator; the distributed plan is the
    standard one — co-partition by the as-of key (user_id), sort each
    partition once by (ts, event_id), then the match is a vectorized
    forward-fill merge. The partitioning assumption: all rows of one key
    share a bucket (bucketed_apply_tasks guarantees it), so no cross-partition
    time ordering is ever needed."""

    def prep(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        df["us"] = df["ts"].astype("datetime64[us]").astype("int64")
        df["is_ref"] = df["event_type"] == ref_type
        return pa.Table.from_pandas(
            df[["event_id", "user_id", "us", "is_ref"]], preserve_index=False
        )

    def asof(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["user_id", "us", "event_id"], kind="stable")
        # globally shift+ffill the (ref id, ref us, ref user) triple; a
        # carried value is valid only while still on the same user — the
        # sort keeps each user's rows contiguous, so one vectorized pass
        # handles every user in the bucket (no per-group Python)
        rid = df["event_id"].where(df["is_ref"]).shift(1).ffill()
        rus = df["us"].where(df["is_ref"]).shift(1).ffill()
        ruid = df["user_id"].where(df["is_ref"]).shift(1).ffill()
        ok = ruid.eq(df["user_id"]) & rid.notna()
        out = pd.DataFrame(
            {
                "event_id": df.loc[ok, "event_id"].astype("int64"),
                "user_id": df.loc[ok, "user_id"].astype("int64"),
                "ref_event_id": rid[ok].astype("int64"),
                "gap_sec": (
                    df.loc[ok, "us"] // 1_000_000
                    - rus[ok].astype("int64") // 1_000_000
                ).astype("int64"),
            }
        )
        return out

    events = _read(sf_dir, "events", ["event_id", "ts", "user_id", "event_type"],
                   prep)
    return sorted_fold(bucketed_apply_tasks(events, ["user_id"], asof),
                       ["event_id"], _same).dataset()


# ---------------------------------------------------------------------------
# relational: broadcast-join revenue per nation (TPC-H Q5-ish shape)
# ---------------------------------------------------------------------------


def top_orders(
    sf_dir: str, segment: str = "BUILDING", cutoff: str = "1998-07-01",
    k: int = 10,
) -> ray.data.Dataset:
    """TPC-H Q3 shape: top-k unshipped orders by discounted revenue for
    one market segment. Distributed plan with no broadcast at all:
    customer (linear in TPC-H — not a dimension at 100 TB) is filtered
    to the segment per block and semi-joins orders in a hash-partitioned
    bucket join on custkey; the surviving (orderkey, date, priority)
    stream then meets lineitem — pre-aggregated per block — in a second
    bucket join on orderkey; each bucket emits its local top-k and one
    global merge ranks k·buckets candidate rows (exact, since an order
    lives in exactly one bucket). Returns
    (o_orderkey, orderdate_sec, o_orderpriority, revenue_cents)."""
    cut = pd.Timestamp(cutoff)

    def cust_side(batch: pa.Table) -> pa.Table:
        sel = batch.filter(pc.equal(batch["c_mktsegment"], segment))
        n = sel.num_rows
        return pa.table(
            {
                "custkey": pc.cast(sel["c_custkey"], pa.int64()),
                "orderkey": pa.nulls(n, pa.int64()),
                "orderdate_sec": pa.nulls(n, pa.int64()),
                "priority": pa.nulls(n, pa.string()),
                "side": pa.array(["c"] * n, pa.string()),
            }
        )

    def orders_key_side(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        df = df[df["o_orderdate"] < cut]
        n = len(df)
        return pa.table(
            {
                "custkey": pa.array(df["o_custkey"], pa.int64()),
                "orderkey": pa.array(df["o_orderkey"], pa.int64()),
                "orderdate_sec": pa.array(
                    df["o_orderdate"].astype("datetime64[s]").astype("int64"),
                    pa.int64(),
                ),
                "priority": pa.array(df["o_orderpriority"], pa.string()),
                "side": pa.array(["o"] * n, pa.string()),
            }
        )

    def seg_orders(df: pd.DataFrame) -> pa.Table:
        keys = df.loc[df["side"] == "c", "custkey"]
        o = df.loc[df["side"] == "o"]
        o = o[o["custkey"].isin(set(keys))]
        n = len(o)
        return pa.table(
            {
                "orderkey": pa.array(o["orderkey"].astype("int64"), pa.int64()),
                "orderdate_sec": pa.array(o["orderdate_sec"].astype("int64"),
                                          pa.int64()),
                "priority": pa.array(o["priority"], pa.string()),
                "revenue_cents": pa.nulls(n, pa.int64()),
                "side": pa.array(["o"] * n, pa.string()),
            }
        )

    cust = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"], cust_side)
    order_keys = _read(
        sf_dir, "orders",
        ["o_orderkey", "o_custkey", "o_orderdate", "o_orderpriority"],
        orders_key_side)
    orders = bucketed_apply_tasks(cust + order_keys, ["custkey"], seg_orders)

    def lineitem_side(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        df = df[df["l_shipdate"] > cut]
        df["rev_cents"] = np.floor(
            df["l_extendedprice"] * (1 - df["l_discount"]) * 100
        ).astype("int64")
        g = df.groupby("l_orderkey", as_index=False).agg(
            revenue_cents=("rev_cents", "sum")
        )
        n = len(g)
        return pa.table(
            {
                "orderkey": pa.array(g["l_orderkey"], pa.int64()),
                "orderdate_sec": pa.nulls(n, pa.int64()),
                "priority": pa.nulls(n, pa.string()),
                "revenue_cents": pa.array(g["revenue_cents"], pa.int64()),
                "side": pa.array(["l"] * n, pa.string()),
            }
        )

    items = _read(
        sf_dir, "lineitem",
        ["l_orderkey", "l_extendedprice", "l_discount", "l_shipdate"],
        lineitem_side)

    def topk(df: pd.DataFrame) -> pd.DataFrame:
        return df.sort_values(
            ["revenue_cents", "o_orderkey"], ascending=[False, True],
            kind="stable",
        ).head(k)

    def join_bucket(df: pd.DataFrame) -> pd.DataFrame:
        o = df.loc[df["side"] == "o",
                   ["orderkey", "orderdate_sec", "priority"]]
        li = df.loc[df["side"] == "l", ["orderkey", "revenue_cents"]]
        li = li.groupby("orderkey", as_index=False).agg(
            revenue_cents=("revenue_cents", "sum")
        )
        m = li.merge(o, on="orderkey", how="inner")
        out = pd.DataFrame(
            {
                "o_orderkey": m["orderkey"].astype("int64"),
                "orderdate_sec": m["orderdate_sec"].astype("int64"),
                "o_orderpriority": m["priority"],
                "revenue_cents": m["revenue_cents"].astype("int64"),
            }
        )
        return topk(out)

    joined = bucketed_apply_tasks(orders + items, ["orderkey"], join_bucket)
    # the one global bucket holds the k winners, in o_orderkey order
    return bucketed_apply_tasks(
        joined, [], lambda df: topk(df).sort_values("o_orderkey")).dataset()


def revenue_by_nation(sf_dir: str) -> ray.data.Dataset:
    """lineitem ⋈ orders ⋈ customer ⋈ nation (TPC-H Q5-ish).

    Join topology for fact-scale inputs: only nation (25 rows, the one
    true dimension) is broadcast. Customer — linear in TPC-H, NOT a
    dimension at 100 TB — meets orders in a hash-partitioned bucket
    join on custkey (stage A); the (orderkey, n_name) stream then meets
    lineitem in a second bucket join on orderkey (stage B) with
    lineitem pre-aggregated per (orderkey) inside its read tasks first,
    so that exchange carries one row per order, not one per line item;
    a sorted fold by n_name merges the per-bucket sums. No table but
    nation is ever collected on the driver."""
    nation = _read(sf_dir, "nation", ["n_nationkey", "n_name"]).table()
    nation_ref = ray.put(dict(zip(nation["n_nationkey"].to_pylist(),
                                  nation["n_name"].to_pylist())))

    def cust_side(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        df["n_name"] = df["c_nationkey"].map(cached_get(nation_ref))
        n = len(df)
        return pa.table(
            {
                "custkey": pa.array(df["c_custkey"], pa.int64()),
                "orderkey": pa.nulls(n, pa.int64()),
                "n_name": pa.array(df["n_name"], pa.string()),
                "side": pa.array(["c"] * n, pa.string()),
            }
        )

    def orders_key_side(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        return pa.table(
            {
                "custkey": pc.cast(batch["o_custkey"], pa.int64()),
                "orderkey": pc.cast(batch["o_orderkey"], pa.int64()),
                "n_name": pa.nulls(n, pa.string()),
                "side": pa.array(["o"] * n, pa.string()),
            }
        )

    def attach_nation(df: pd.DataFrame) -> pa.Table:
        c = df.loc[df["side"] == "c", ["custkey", "n_name"]]
        o = df.loc[df["side"] == "o", ["custkey", "orderkey"]]
        m = o.merge(c, on="custkey", how="inner")
        n = len(m)
        return pa.table(
            {
                "orderkey": pa.array(m["orderkey"].astype("int64"), pa.int64()),
                "n_name": pa.array(m["n_name"], pa.string()),
                "revenue_cents": pa.nulls(n, pa.int64()),
                "n_items": pa.nulls(n, pa.int64()),
                "side": pa.array(["o"] * n, pa.string()),
            }
        )

    cust = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"], cust_side)
    orders_keys = _read(sf_dir, "orders", ["o_orderkey", "o_custkey"],
                        orders_key_side)
    orders = bucketed_apply_tasks(cust + orders_keys, ["custkey"],
                                  attach_nation)

    def lineitem_side(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        df["rev_cents"] = np.floor(
            df["l_extendedprice"] * (1 - df["l_discount"]) * 100
        ).astype("int64")
        g = df.groupby("l_orderkey", as_index=False).agg(
            revenue_cents=("rev_cents", "sum"), n_items=("l_orderkey", "size")
        )
        n = len(g)
        return pa.table(
            {
                "orderkey": pa.array(g["l_orderkey"], pa.int64()),
                "n_name": pa.nulls(n, pa.string()),
                "revenue_cents": pa.array(g["revenue_cents"], pa.int64()),
                "n_items": pa.array(g["n_items"], pa.int64()),
                "side": pa.array(["l"] * n, pa.string()),
            }
        )

    items = _read(sf_dir, "lineitem",
                  ["l_orderkey", "l_extendedprice", "l_discount"],
                  lineitem_side)

    def join_bucket(df: pd.DataFrame) -> pd.DataFrame:
        o = df.loc[df["side"] == "o", ["orderkey", "n_name"]]
        li = df.loc[df["side"] == "l", ["orderkey", "revenue_cents", "n_items"]]
        li = li.groupby("orderkey", as_index=False).agg(
            revenue_cents=("revenue_cents", "sum"), n_items=("n_items", "sum")
        )
        m = li.merge(o, on="orderkey", how="inner")
        g = m.groupby("n_name", as_index=False).agg(
            revenue_cents=("revenue_cents", "sum"), n_items=("n_items", "sum")
        )
        # the union's null-padded side promotes int64→float64 in pandas;
        # restore exact integer output
        g["revenue_cents"] = g["revenue_cents"].astype("int64")
        g["n_items"] = g["n_items"].astype("int64")
        return g

    def merge(table: pa.Table) -> pd.DataFrame:
        g = table.to_pandas().groupby("n_name", as_index=False).agg(
            revenue_cents=("revenue_cents", "sum"), n_items=("n_items", "sum")
        )
        g["revenue_cents"] = g["revenue_cents"].astype("int64")
        g["n_items"] = g["n_items"].astype("int64")
        return g

    partial = bucketed_apply_tasks(orders + items, ["orderkey"], join_bucket)
    return sorted_fold(partial, ["n_name"], merge).dataset()


def orders_running_total(sf_dir: str) -> ray.data.Dataset:
    """Per-customer ordered running total of order value in cents —
    the keyed-window-scan primitive (SUM ... OVER (PARTITION BY
    custkey ORDER BY orderdate, orderkey)). custkey is high-cardinality
    so the one hash exchange distributes evenly; each bucket then sorts
    ONLY its own customers' orders and cumsums vectorized — no global
    sort, no driver state. Output (o_custkey, o_orderkey, run_cents)
    ordered by (o_custkey, o_orderkey)."""

    def to_cents(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        df["cents"] = np.floor(df["o_totalprice"] * 100).astype("int64")
        df["ts"] = df["o_orderdate"].astype("int64")
        return pa.Table.from_pandas(
            df[["o_custkey", "o_orderkey", "ts", "cents"]],
            preserve_index=False,
        )

    def scan(table: pa.Table) -> pd.DataFrame:
        df = table.to_pandas().sort_values(["o_custkey", "ts", "o_orderkey"],
                                           kind="stable")
        run = df.groupby("o_custkey", sort=False)["cents"].cumsum()
        return pd.DataFrame(
            {
                "o_custkey": df["o_custkey"].astype("int64"),
                "o_orderkey": df["o_orderkey"].astype("int64"),
                "run_cents": run.astype("int64"),
            }
        )

    orders = _read(sf_dir, "orders",
                   ["o_custkey", "o_orderkey", "o_orderdate", "o_totalprice"],
                   to_cents)
    return sorted_fold(orders, ["o_custkey", "o_orderkey"], scan).dataset()


ORDERS_RUNNING_TOTAL_SQL = """
    SELECT o_custkey, o_orderkey,
           CAST(sum(CAST(floor(o_totalprice * 100) AS BIGINT)) OVER (
               PARTITION BY o_custkey
               ORDER BY o_orderdate, o_orderkey
               ROWS UNBOUNDED PRECEDING
           ) AS BIGINT) AS run_cents
    FROM orders
    ORDER BY o_custkey, o_orderkey
"""


_QUANTILES = ((25, (1, 4)), (50, (1, 2)), (75, (3, 4)), (95, (19, 20)))


def price_quantiles(sf_dir: str) -> ray.data.Dataset:
    """Exact per-(returnflag, linestatus) price percentiles
    (p25/p50/p75/p95, percentile_disc semantics: the value at 1-indexed
    sorted rank ceil(q·n)) over integer cents.

    Scale plan: a low-cardinality group key makes "co-locate the group
    and sort it" a non-starter at 100 TB (one group ≈ the whole
    table), so the quantiles come from a VALUE HISTOGRAM instead:
    per-block partial counts per (group, price) → one well-distributed
    exchange keyed by (group, price) → one tiny sorted fold collapsing
    each group's histogram (bounded by the price domain, never row
    count) into cumulative ranks. Ranks use integer ceil division —
    float ceil(0.95·n) rounds wrong for exact multiples (0.95 is not
    representable), which a strict value-hash oracle would catch."""

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        df["p"] = np.floor(df["l_extendedprice"] * 100).astype("int64")
        g = df.groupby(
            ["l_returnflag", "l_linestatus", "p"], as_index=False
        ).agg(cnt=("p", "size"))
        g["cnt"] = g["cnt"].astype("int64")
        return pa.Table.from_pandas(g, preserve_index=False)

    hist = bucketed_apply_tasks(
        _read(sf_dir, "lineitem",
              ["l_returnflag", "l_linestatus", "l_extendedprice"], partial),
        ["l_returnflag", "l_linestatus", "p"],
        lambda df: df.groupby(
            ["l_returnflag", "l_linestatus", "p"], as_index=False
        ).agg(cnt=("cnt", "sum")),
    )

    def quantiles(table: pa.Table) -> pd.DataFrame:
        rows = []
        for (rf, ls), g in table.to_pandas().groupby(
                ["l_returnflag", "l_linestatus"]):
            g = g.sort_values("p")
            cum = g["cnt"].cumsum().to_numpy()
            n = int(cum[-1])
            p = g["p"].to_numpy()
            row = {"l_returnflag": rf, "l_linestatus": ls, "n_rows": n}
            for name, (num, den) in _QUANTILES:
                rank = (num * n + den - 1) // den  # integer ceil(num*n/den)
                row[f"p{name}"] = int(p[np.searchsorted(cum, rank)])
            rows.append(row)
        return pd.DataFrame(rows)

    return sorted_fold(hist, ["l_returnflag", "l_linestatus"],
                       quantiles).dataset()


def price_quantiles_oracle_sql() -> str:
    picks = ",\n               ".join(
        f"max(CASE WHEN rn = ({num}*n + {den} - 1) // {den} THEN p END) AS p{name}"
        for name, (num, den) in _QUANTILES
    )
    return f"""
        WITH pr AS (
            SELECT l_returnflag, l_linestatus,
                   CAST(floor(l_extendedprice * 100) AS BIGINT) AS p
            FROM lineitem
        ),
        r AS (
            SELECT l_returnflag, l_linestatus, p,
                   row_number() OVER (
                       PARTITION BY l_returnflag, l_linestatus ORDER BY p
                   ) AS rn,
                   count(*) OVER (
                       PARTITION BY l_returnflag, l_linestatus
                   ) AS n
            FROM pr
        )
        SELECT l_returnflag, l_linestatus, CAST(n AS BIGINT) AS n_rows,
               {picks}
        FROM r
        GROUP BY l_returnflag, l_linestatus, n
        ORDER BY l_returnflag, l_linestatus
    """


def pricing_summary(sf_dir: str) -> ray.data.Dataset:
    """TPC-H Q1-shaped integer-exact pricing summary by return flag/status."""

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        df["qty_i"] = np.floor(df["l_quantity"] * 100).astype("int64")
        df["price_i"] = np.floor(df["l_extendedprice"] * 100).astype("int64")
        df["disc_price_i"] = np.floor(
            df["l_extendedprice"] * (1 - df["l_discount"]) * 100
        ).astype("int64")
        g = df.groupby(["l_returnflag", "l_linestatus"], as_index=False).agg(
            sum_qty=("qty_i", "sum"),
            sum_base_price=("price_i", "sum"),
            sum_disc_price=("disc_price_i", "sum"),
            count_order=("l_quantity", "size"),
        )
        return pa.Table.from_pandas(g, preserve_index=False)

    keys = ["l_returnflag", "l_linestatus"]
    partials = _read(sf_dir, "lineitem",
                     [*keys, "l_quantity", "l_extendedprice", "l_discount"],
                     partial)
    return sorted_fold(
        partials, keys,
        lambda t: t.to_pandas().groupby(keys, as_index=False).sum()).dataset()
