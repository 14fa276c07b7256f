"""KG queries over the synthetic corpus + their DuckDB oracles.

The driver's correctness gate runs each ``queries()`` callable AND its
``oracle_sql()`` string side-by-side. C# parsing is not SQL-expressible,
so the oracle contract is: ``ensure_kg`` runs the full build
(``build_graph``) once per scale factor, which writes the stage-1
``records/`` checkpoint (deterministic: same corpus ⇒ same records) and
the ``nodes/``, ``edges/`` and ``files/`` tables. The queries read those
tables, the build's actual output; the DuckDB oracles recompute stages
2–4 — linking semi-join, dedup, structural-edge derivation, sort — in
SQL from ``records/`` alone. Parsing itself is covered by the
snippet-level pytest suite (tests/test_csharp_extractor.py etc.),
mirroring the reference's test split (SURVEY §5). The files oracle
additionally recomputes sha256 from the corpus content in SQL, checking
the per-row hash invariant.
"""

from __future__ import annotations

import os
import shutil

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray
import ray.data

from codetoneo4j_ray.extractors.csharp.extractor import BASE_PRED, MEMBER_PRED
from codetoneo4j_ray.functions.tags import parse_namespace_tags
from codetoneo4j_ray.pipelines import commits as commit_folds
from codetoneo4j_ray.pipelines.build_graph import build_graph, read_records_blocks
from codetoneo4j_ray.sources.synth import (
    corpus_dir_for_sf,
    ensure_commits,
    ensure_corpus,
    ensure_packages,
)
from codetoneo4j_ray.stages.bucketing import (
    Blocks,
    bucketed_apply_tasks,
    build_bucket_store,
    plan_reads,
    read_blocks,
)
from codetoneo4j_ray.stages.canonicalize import sorted_fold
from codetoneo4j_ray.stages.link import (
    MENTION_COLS,
    _index_blobs,
    index_rows,
    internal_mask,
    resolve_block,
)
from codetoneo4j_ray.state.manifest import corpus_fingerprint, stage_is_complete, write_manifest

_KG_CONFIG = {"min_accessibility": "Private", "kg_cache_v": 19}


def kg_paths(sf_dir: str) -> dict[str, str]:
    base = os.path.join(corpus_dir_for_sf(sf_dir), "out")
    return {
        "out": base,
        "corpus": os.path.join(corpus_dir_for_sf(sf_dir), "corpus.parquet"),
        "records": os.path.join(base, "records"),
        "nodes": os.path.join(base, "nodes"),
        "edges": os.path.join(base, "edges"),
        "files": os.path.join(base, "files"),
        "mentions": os.path.join(base, "mentions_resolved"),
        "tags_map": os.path.join(base, "tags_map.parquet"),
    }


_RESOLVED_SCHEMA = pa.schema([(c, pa.string())
                              for c in ("subj", "pred", "obj", "repo")])


@ray.remote
def _write_resolved(block: pa.Table, store, path: str) -> None:
    """One records block's non-internal mentions after step A, written
    to ``path`` as (subj, pred, obj, repo)."""
    block = block.filter(pc.invert(internal_mask(block)))
    resolved = resolve_block(block.select(MENTION_COLS), store)
    pq.write_table(resolved.select(_RESOLVED_SCHEMA.names), path)


def _distinct_namespaces(table: pa.Table) -> pa.Table:
    return pa.table({"namespace": pc.unique(pc.drop_null(table["namespace"]))})


def ensure_kg(sf_dir: str) -> dict[str, str]:
    """Generate the corpus and build its graph once per scale factor.

    ``build_graph`` writes records/, nodes/, edges/ and files/; the two
    oracle-only side tables (resolved mentions, namespace tags) are then
    derived from records/."""
    corpus_path = ensure_corpus(sf_dir)
    paths = kg_paths(sf_dir)
    fp = corpus_fingerprint(corpus_path, _KG_CONFIG)
    if stage_is_complete(paths["out"], "kgcache", fp):
        return paths
    metrics = build_graph(corpus_path, paths["out"], resume=False,
                          packages_path=ensure_packages(sf_dir))

    # stage-2 step A over the mention partition with the build's own
    # per-repo member-index buckets, one raw task per block; the oracle
    # reads the resolved mentions back from parquet
    mentions = read_records_blocks(paths["records"], "mention")
    store = build_bucket_store(
        read_records_blocks(paths["records"], "mention", fn=index_rows),
        ["repo"], _index_blobs)
    shutil.rmtree(paths["mentions"], ignore_errors=True)
    os.makedirs(paths["mentions"])
    ray.get([_write_resolved.remote(
        b, store, f"{paths['mentions']}/part-{k:05d}.parquet")
        for k, b in enumerate(mentions.refs)])
    if not mentions.refs:
        pq.write_table(_RESOLVED_SCHEMA.empty_table(),
                       f"{paths['mentions']}/part-00000.parquet")

    # namespace → tag side table so the oracle can join instead of
    # reimplementing the PascalCase splitter in SQL. Each read task
    # keeps only its block's distinct namespaces, so the driver only
    # ever receives metadata-sized tables — never a corpus-sized column.
    found = read_records_blocks(paths["records"], "symbol",
                                fn=_distinct_namespaces).table()
    distinct_ns = (set(found["namespace"].to_pylist()) if found is not None
                   else ())
    ns_col, tag_col = [], []
    for ns in sorted(n for n in distinct_ns if n is not None and n.strip()):
        for tag in parse_namespace_tags(ns):
            ns_col.append(ns)
            tag_col.append(tag)
    pq.write_table(
        pa.table({"namespace": pa.array(ns_col, pa.string()),
                  "tag": pa.array(tag_col, pa.string())}),
        paths["tags_map"],
    )
    write_manifest(paths["out"], "kgcache", fp, metrics)
    return paths


# ---------------------------------------------------------------------------
# Ray-side queries (read the build's output tables)
# ---------------------------------------------------------------------------


def _read_table(sf_dir: str, name: str) -> ray.data.Dataset:
    """One output table of the KG cache: its parts read in name order,
    which is key order, by one raw read task per block."""
    return read_blocks(plan_reads(ensure_kg(sf_dir)[name])).dataset()


def _group_counts(path: str, by: list[str], then=None) -> Blocks:
    """Row count per ``by`` group of the table at ``path`` as column
    ``n``, sorted by ``by``: per-block partial counts in the read tasks,
    then one merge per key range; ``then`` maps each merged range."""

    def partial(b: pa.Table) -> pa.Table:
        df = b.to_pandas().groupby(by, as_index=False).size()
        return pa.Table.from_pandas(df.rename(columns={"size": "n"}),
                                    preserve_index=False)

    def merge(table: pa.Table) -> pd.DataFrame:
        df = table.to_pandas().groupby(by, as_index=False).agg(
            n=("n", "sum"))
        return df if then is None else then(df)

    return sorted_fold(read_blocks(plan_reads(path, columns=by), partial),
                       by, merge)


def q_kg_nodes(sf_dir: str) -> ray.data.Dataset:
    return _read_table(sf_dir, "nodes")


def q_kg_edges(sf_dir: str) -> ray.data.Dataset:
    return _read_table(sf_dir, "edges")


def q_kg_files(sf_dir: str) -> ray.data.Dataset:
    return _read_table(sf_dir, "files")


def q_kg_symbol_kinds(sf_dir: str) -> ray.data.Dataset:
    """Node count per (language, kind) — aggregate sanity."""
    return _group_counts(ensure_kg(sf_dir)["nodes"],
                         ["language", "kind"]).dataset()


def q_kg_pred_counts(sf_dir: str) -> ray.data.Dataset:
    """Edge count per predicate over the final edge table."""
    return _group_counts(ensure_kg(sf_dir)["edges"], ["pred"]).dataset()


def _commit_fold(sf_dir: str, fold) -> ray.data.Dataset:
    return fold(commit_folds.read_commits(ensure_commits(sf_dir))).dataset()


def q_kg_commits(sf_dir: str) -> ray.data.Dataset:
    """Commit nodes (UpsertCommit.cypher:1-3 MERGE by hash)."""
    return _commit_fold(sf_dir, commit_folds.commit_nodes)


def q_kg_commit_edges(sf_dir: str) -> ray.data.Dataset:
    """COMMITTED / PART_OF_PROJECT / MODIFIED_FILE triples."""
    return _commit_fold(sf_dir, commit_folds.commit_edges)


def q_kg_authored(sf_dir: str) -> ray.data.Dataset:
    """Per-(author, file) AUTHORED fold with first/last/count props."""
    return _commit_fold(sf_dir, commit_folds.authored_stats)


def q_kg_file_history(sf_dir: str) -> ray.data.Dataset:
    """Per-file created/lastModified/commit-count fold."""
    return _commit_fold(sf_dir, commit_folds.file_history)


def q_kg_file_versions(sf_dir: str) -> ray.data.Dataset:
    """Per-file commit list (newest first) + distinct tag list, in the
    \\x1f-joined strict-comparable form — the ``f.commits`` / ``f.tags``
    File-node properties (UpsertFile.cypher:12-13, GitLogParser.cs:83-114)."""
    return _commit_fold(sf_dir, commit_folds.file_versions)


def q_kg_mentions_raw(sf_dir: str) -> ray.data.Dataset:
    """Raw mention triples (relBuffer analog, pre-linking) — rows-only."""
    order = ["subj", "pred", "obj"]
    return sorted_fold(read_blocks(plan_reads(ensure_kg(sf_dir)["mentions"],
                                              columns=order)),
                       order, lambda table: table).dataset()


# ---------------------------------------------------------------------------
# DuckDB oracles (read the same parquet artifacts)
# ---------------------------------------------------------------------------


def _p(path: str) -> str:
    return f"read_parquet('{path}/*.parquet')"


def _p_hive(path: str) -> str:
    return f"read_parquet('{path}/*/*.parquet', hive_partitioning=1)"


def oracle_kg(sf_dir: str) -> dict[str, str]:
    paths = kg_paths(sf_dir)
    records = _p_hive(paths["records"])
    mentions = _p(paths["mentions"])
    corpus = f"read_parquet('{paths['corpus']}')"
    tags_map = f"read_parquet('{paths['tags_map']}')"
    commits = (
        "read_parquet('"
        + os.path.join(corpus_dir_for_sf(sf_dir), "commits.parquet")
        + "')"
    )

    edges_cte = f"""
        sym AS (SELECT * FROM {records} WHERE rec_type = 'symbol'),
        keys AS (SELECT DISTINCT key FROM sym),
        men AS (
            SELECT subj, pred, obj FROM {mentions}
            WHERE pred NOT IN ('{MEMBER_PRED}', '{BASE_PRED}')
        ),
        all_edges AS (
            SELECT m.subj, m.pred, m.obj
            FROM men m
            JOIN keys k1 ON m.subj = k1.key
            JOIN keys k2 ON m.obj = k2.key
            UNION ALL
            SELECT file_key, 'src__DECLARES', key FROM sym
            UNION ALL
            SELECT lower(repo), 'src__HAS_FILE', key
            FROM {records} WHERE rec_type = 'file'
            UNION ALL
            SELECT s.key, 'src__HAS_TAG', t.tag
            FROM sym s JOIN {tags_map} t ON s.namespace = t.namespace
            UNION ALL
            SELECT lower(repo), 'src__DEPENDS_ON', key
            FROM sym WHERE kind = 'Dependency'
            UNION ALL
            SELECT dep_key, 'src__HAS_URL', url_key
            FROM {records} WHERE rec_type = 'url'
        )
    """

    nodes_dedup = f"""
        SELECT * FROM (
            SELECT key, name, kind, "class", fqn, accessibility, file_key,
                   path, start_line, end_line,
                   substr(documentation, 1, 8000) AS documentation,
                   substr(comments, 1, 8000) AS comments,
                   namespace, version, language, technology, repo,
                   row_number() OVER (
                       PARTITION BY key
                       ORDER BY path DESC, start_line DESC, end_line DESC, repo DESC, namespace DESC, kind DESC, accessibility DESC
                   ) AS rn
            FROM {records} WHERE rec_type = 'symbol'
        ) WHERE rn = 1
    """
    return {
        "kg_nodes": f"""
            SELECT key, name, kind, "class", fqn, accessibility, file_key,
                   path, start_line, end_line, documentation, comments,
                   namespace, version, language, technology, repo
            FROM ({nodes_dedup}) ORDER BY key
        """,
        "kg_edges": f"""
            WITH {edges_cte}
            SELECT DISTINCT subj, pred, obj FROM all_edges
            ORDER BY subj, pred, obj
        """,
        "kg_files": f"""
            WITH filed AS (
                SELECT * FROM (
                    SELECT key, path, file_name, namespace, language,
                           technology, repo, commit,
                           row_number() OVER (
                               PARTITION BY key ORDER BY path DESC, repo DESC
                           ) AS rn
                    FROM {records} WHERE rec_type = 'file'
                ) WHERE rn = 1
            )
            SELECT DISTINCT f.key, f.path, f.file_name, f.namespace,
                   sha256(c.content) AS sha256,
                   f.language, f.technology, f.repo, f.commit
            FROM filed f
            JOIN {corpus} c ON f.repo = c.repo AND f.path = c.path
            ORDER BY f.key
        """,
        "kg_commits": f"""
            SELECT hash, repo, author, email,
                   CAST(floor(epoch(date)) AS BIGINT) AS date_sec, message
            FROM (
                SELECT *, row_number() OVER (
                    PARTITION BY hash
                    ORDER BY repo DESC, author DESC, email DESC,
                             epoch(date) DESC, message DESC
                ) AS rn FROM {commits}
            ) WHERE rn = 1 ORDER BY hash
        """,
        "kg_commit_edges": f"""
            WITH e AS (
                SELECT 'author:' || author AS subj,
                       'src__COMMITTED' AS pred,
                       'commit:' || hash AS obj
                FROM {commits}
                UNION ALL
                SELECT 'commit:' || hash, 'src__PART_OF_PROJECT', lower(repo)
                FROM {commits}
                UNION ALL
                SELECT 'commit:' || hash, 'src__MODIFIED_FILE',
                       unnest(changed_paths)
                FROM {commits}
            )
            SELECT DISTINCT subj, pred, obj FROM e ORDER BY subj, pred, obj
        """,
        "kg_authored": f"""
            SELECT author, path,
                   min(sec) AS first_sec, max(sec) AS last_sec,
                   count(*) AS commit_count
            FROM (
                SELECT author,
                       CAST(floor(epoch(date)) AS BIGINT) AS sec,
                       unnest(changed_paths) AS path
                FROM {commits}
            )
            GROUP BY author, path ORDER BY author, path
        """,
        "kg_file_history": f"""
            SELECT repo, path,
                   min(sec) AS created_sec, max(sec) AS modified_sec,
                   count(*) AS n_commits
            FROM (
                SELECT repo,
                       CAST(floor(epoch(date)) AS BIGINT) AS sec,
                       unnest(changed_paths) AS path
                FROM {commits}
            )
            GROUP BY repo, path ORDER BY repo, path
        """,
        "kg_file_versions": f"""
            WITH x AS (
                SELECT repo, hash,
                       CAST(floor(epoch(date)) AS BIGINT) AS sec,
                       unnest(changed_paths) AS path, tags
                FROM {commits}
            ),
            cc AS (
                SELECT repo, path,
                       string_agg(hash, chr(31) ORDER BY sec DESC, hash ASC)
                           AS commits_csv
                FROM x GROUP BY repo, path
            ),
            tc AS (
                SELECT repo, path,
                       string_agg(tag, chr(31) ORDER BY tag) AS tags_csv
                FROM (SELECT DISTINCT repo, path, unnest(tags) AS tag FROM x)
                GROUP BY repo, path
            )
            SELECT cc.repo, cc.path, cc.commits_csv,
                   COALESCE(tc.tags_csv, '') AS tags_csv
            FROM cc LEFT JOIN tc
                ON cc.repo = tc.repo AND cc.path = tc.path
            ORDER BY cc.repo, cc.path
        """,
        "kg_symbol_kinds": f"""
            SELECT language, kind, count(*) AS n
            FROM ({nodes_dedup})
            GROUP BY language, kind ORDER BY language, kind
        """,
        "kg_degree_topk": f"""
            WITH {edges_cte},
            deg AS (
                SELECT subj, count(*) AS n
                FROM (SELECT DISTINCT subj, pred, obj FROM all_edges)
                GROUP BY subj
            ),
            ranked AS (
                SELECT subj, n, row_number() OVER (
                    ORDER BY n DESC, subj
                ) AS rn FROM deg
            )
            SELECT subj, n FROM ranked WHERE rn <= {DEGREE_TOPK_K} ORDER BY subj
        """,
        "kg_pred_counts": f"""
            WITH {edges_cte}
            SELECT pred, count(*) AS n
            FROM (SELECT DISTINCT subj, pred, obj FROM all_edges)
            GROUP BY pred ORDER BY pred
        """,
        "kg_pagerank": _graph_ops().pagerank_oracle_sql(edges_cte),
        "kg_triangles": _graph_ops().triangles_oracle_sql(edges_cte),
        "kg_components": _graph_ops().components_oracle_sql(edges_cte),
        "kg_bfs_depth": _graph_ops().bfs_depth_oracle_sql(edges_cte),
        "kg_sssp": _graph_ops().sssp_oracle_sql(edges_cte),
    }


def _graph_ops():
    from codetoneo4j_ray.pipelines import graph_ops

    return graph_ops


DEGREE_TOPK_K = 20


def q_kg_degree_topk(sf_dir: str, k: int = DEGREE_TOPK_K) -> ray.data.Dataset:
    """Top-k node keys by out-degree over the final edge table — the
    graph-analytics heavy-hitter a KG consumer runs first. Same partial/
    merge/global-top-k pattern as top_tokens: per-block counts, exact
    merge per subj range, per-range local top-k, then one global top-k
    task, which sorts its k rows by subj."""

    def topk(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["n", "subj"], ascending=[False, True],
                            kind="stable").head(k)
        df["n"] = df["n"].astype("int64")
        return df

    per_subj = _group_counts(ensure_kg(sf_dir)["edges"], ["subj"], then=topk)
    return bucketed_apply_tasks(
        per_subj, [], lambda df: topk(df).sort_values("subj")).dataset()
