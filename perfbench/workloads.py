"""The benchmark's workloads.

The two timed workloads drive the package through its public entry
points:

* ``setup()`` makes the inputs (and, for the incremental rebuild, the
  prior graph); it is repeated ``setup_repeats`` times;
* ``op()`` is one closed-loop operation, timed by the runner;
* ``capture(result)`` keeps what the check needs, outside the timed
  region;
* ``check(captured)`` compares every operation's output with the
  workload's reference and returns the number of failed operations;
* ``probe(tracer)`` records the per-layer counters of the traced run.

The read side (``GraphQueries``, ``DocDedup``) is measured, and checked
against the package's DuckDB oracles, inside the full_build traced run.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys
import time
import traceback

import inputs

# A fixed tombstone stamp keeps incremental outputs identical across runs.
DELETED_AT_SEC = 1_700_000_000

GRAPH_OPS = ("pagerank", "components", "bfs_depth", "sssp", "triangles")
DEDUP_OPS = ("doc_dedup_exact", "doc_dedup_minhash", "dup_clusters")

# A run must end within 180 s. The read-side probes of the full_build
# traced run take ~45 s; past this mark they are skipped, which fails
# the run and leaves these metrics out.
_STARTED = time.perf_counter()
READ_SIDE_PROBE_DEADLINE_S = 90
READ_SIDE_METRICS = (
    *[f"pipelines.graph_ops.{op}_s" for op in GRAPH_OPS],
    *[f"pipelines.data_ops.{op}_s" for op in DEDUP_OPS],
    "pipelines.data_ops.exact_groups", "pipelines.data_ops.minhash_pairs",
    "pipelines.data_ops.cluster_docs", "pipelines.data_ops.clusters",
    "stages.bucketing.edge_distinct_tasks_s",
    "stages.bucketing.edge_distinct_groupby_s",
    "stages.bucketing.bucket_skew",
)
# The incremental traced run takes ~80 s before its deletion probe,
# which takes ~35 s more.
DELETION_PROBE_DEADLINE_S = 120


# --- output comparison -------------------------------------------------------


def _norm(v):
    if v is None:
        return None
    if hasattr(v, "item"):
        v = v.item()
    if isinstance(v, float) and v != v:
        return None
    return v


def canon_rows(df) -> list[tuple]:
    """Order-insensitive canonical form of a result frame: columns by
    name, values as plain Python, rows sorted."""
    if df is None or len(df.columns) == 0:
        return []
    cols = sorted(df.columns)
    rows = [tuple(_norm(v) for v in r) for r in df[cols].itertuples(index=False)]
    return sorted(rows, key=repr)


def read_table(path: str, columns=None):
    import pyarrow.dataset as pds

    return pds.dataset(path, format="parquet").to_table(columns=columns).to_pandas()


def digest(rows: list[tuple]) -> str:
    h = hashlib.sha256()
    for r in rows:
        h.update(repr(r).encode())
        h.update(b"\n")
    return h.hexdigest()


def mismatched(a: list[tuple], b: list[tuple]) -> int:
    """Rows in one multiset and not the other."""
    from collections import Counter

    ca, cb = Counter(a), Counter(b)
    return sum(((ca - cb) + (cb - ca)).values())


def graph_rows(out_dir: str, live_files_only: bool = False,
               file_cols: list[str] | None = None) -> dict[str, list[tuple]]:
    tables = {}
    for name in ("nodes", "edges", "files"):
        df = read_table(f"{out_dir}/{name}")
        if name == "files" and live_files_only:
            if "deleted" in df.columns:
                df = df[~df["deleted"].fillna(False).astype(bool)]
            df = df[file_cols] if file_cols else df
        tables[name] = canon_rows(df)
    return tables


def code_version(root: str) -> str:
    """Hash of the package sources and of the benchmark's own modules:
    the output of a build is compared only with builds of the same code
    and inputs."""
    h = hashlib.sha256()
    for top in ("codetoneo4j_ray", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for fn in sorted(f for f in filenames if f.endswith(".py")):
                path = os.path.join(dirpath, fn)
                h.update(os.path.relpath(path, root).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read() + b"\0")
    return h.hexdigest()[:16]


class DigestStore:
    """Per-seed output digests persisted in the work directory under the
    code version, so runs of one seed (traced or not) of the same code in
    one checkout can be compared."""

    def __init__(self, root: str, version: str):
        self.dir = os.path.join(root, "digests", version)
        os.makedirs(self.dir, exist_ok=True)

    def check(self, key: str, value: str) -> bool:
        path = os.path.join(self.dir, f"{key}.json")
        if os.path.exists(path):
            with open(path) as f:
                return json.load(f)["digest"] == value
        tmp = f"{path}.{os.getpid()}"
        with open(tmp, "w") as f:
            json.dump({"digest": value}, f)
        os.replace(tmp, path)
        return True


# --- workloads ---------------------------------------------------------------


class Workload:
    name = ""
    setup_repeats = 3

    def __init__(self, work: str, seed: int, digests: DigestStore):
        self.work, self.seed, self.digests = work, seed, digests
        self.sizes: dict = {}
        self.details: dict = {}
        # operations run and failed by a traced run's probes
        self.extra_attempted = self.extra_failed = 0
        # per-layer metrics a traced run's probes did not measure
        self.unmeasured: tuple = ()

    def warm_up(self) -> None:
        """Untimed work after set-up that starts Ray's workers, so the
        first timed operation runs on warm workers like the rest."""

    def before_op(self) -> None:
        """Untimed preparation of the next operation."""


def _build(corpus: str, out: str) -> dict:
    from codetoneo4j_ray.pipelines.build_graph import build_graph

    shutil.rmtree(out, ignore_errors=True)
    return build_graph(corpus, out, resume=False)


def _parquet_rows(path: str) -> int:
    import pyarrow.dataset as pds

    if not os.path.isdir(path):
        return 0
    return pds.dataset(path, format="parquet").count_rows()


def _records_counts(out_dir: str) -> dict[str, int]:
    rec = f"{out_dir}/records"
    return {rt: _parquet_rows(f"{rec}/rec_type={rt}")
            for rt in ("symbol", "mention", "file", "url")}


def _extractor_probe(rows: list[dict]) -> dict:
    """Per-handler parse time and file count, from timing
    ``extractors.extract_file`` per row in this process."""
    from codetoneo4j_ray.config import HANDLERS, is_excluded, resolve_handler
    from codetoneo4j_ray.extractors import extract_file
    from codetoneo4j_ray.extractors.accessibility import (
        DEFAULT_MIN_ACCESSIBILITY,
    )

    out = {f"extractors.{h.name}.{k}": 0.0
           for h in HANDLERS for k in ("parse_s", "files")}
    failures = 0
    for r in rows:
        if is_excluded(r["path"]):
            continue
        h = resolve_handler(r["path"])
        if h is None:
            continue
        t0 = time.perf_counter()
        try:
            extract_file(r["repo"], r["path"], r["content"],
                         DEFAULT_MIN_ACCESSIBILITY)
        except Exception:  # noqa: BLE001 — counted, the loop goes on
            failures += 1
        out[f"extractors.{h.name}.parse_s"] += time.perf_counter() - t0
        out[f"extractors.{h.name}.files"] += 1
    out["extractors.parse_failures"] = failures
    return out


def _build_probe(tracer, out_dir: str) -> dict:
    """Stage counters and times of one traced build."""
    attributed = tracer.attribute(tracer.op_root)
    skim = tracer.total("stages.extract.build_type_index")
    extract = sum(r["busy_s"] for r in attributed
                  if r["layer"] == "stages.extract"
                  and "stages.extract.build_type_index" not in r["under"])
    resolved = sum(r["rows_out"] for r in attributed
                   if r["last_token_layer"] == "stages.link"
                   and r["layer"] == "stages.link"
                   and "stages.link.build_member_indices" not in r["under"])
    counts = _records_counts(out_dir)
    mentions = counts["mention"]
    m = {
        "stages.extract.skim_s": skim,
        "stages.extract.extract_s": extract,
        "stages.link.mentions_in": mentions,
        "stages.link.mentions_resolved": resolved,
        "stages.link.resolved_ratio": resolved / mentions if mentions else 0.0,
    }
    # on incremental_rebuild the checkpoint write is what executes the lazy
    # stage 1, so its wall is split into the write and that upstream work
    (m["state.records_checkpoint_s"],
     m["state.records_checkpoint_upstream_s"]) = tracer.write_split(
        "state.records_checkpoint", tracer.op_root)
    for rt, n in counts.items():
        m[f"stages.extract.records_{rt}_rows"] = n
    return m


class FullBuild(Workload):
    """``build_graph`` over a seeded many-repo corpus."""

    name = "full_build"
    # set-up takes milliseconds here; many repeats steady its median
    setup_repeats = 15

    def setup(self) -> None:
        self.corpus = f"{self.work}/corpus.parquet"
        self.out = f"{self.work}/out"
        table = inputs.write_corpus(self.corpus, self.seed)
        self.sizes = {"corpus_files": table.num_rows,
                      "repos": inputs.CORPUS_REPOS,
                      "content_bytes": sum(len(c) for c in
                                           table["content"].to_pylist())}

    def warm_up(self) -> None:
        tiny = f"{self.work}/warm_up.parquet"
        inputs.write_corpus(tiny, self.seed, repos=1)
        _build(tiny, f"{self.work}/warm_up")

    def before_op(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)

    def op(self, tracer=None):
        return _build(self.corpus, self.out)

    def capture(self, result):
        return digest([r for t in graph_rows(self.out).values() for r in t])

    def check(self, captured: list) -> int:
        # every build of a seed, in this run and in earlier runs of the
        # same checkout (traced or not), must give the same outputs
        ok = [c == captured[0] and self.digests.check(
            f"{self.name}-{self.seed}", c) for c in captured]
        self.details["digest"] = captured[0][:16]
        return ok.count(False)

    def probe(self, tracer) -> dict:
        import pyarrow.parquet as pq

        rows = pq.read_table(self.corpus).to_pylist()
        m = _build_probe(tracer, self.out)
        m.update(_extractor_probe(rows))
        # the read side has no timed workload (see GraphQueries); measure
        # it here, over the graph this build wrote
        if time.perf_counter() - _STARTED > READ_SIDE_PROBE_DEADLINE_S:
            # the skip is a failed operation, and its metrics are left
            # out rather than reported as 0
            self.details["read_side"] = "skipped: run past its deadline"
            self.extra_attempted += 1
            self.extra_failed += 1
            self.unmeasured = READ_SIDE_METRICS
            return m
        for side in (GraphQueries(self.out), DocDedup(self.work, self.seed)):
            try:
                m.update(side.run(tracer))
            except Exception:  # noqa: BLE001 — counted, the run goes on
                traceback.print_exc(file=sys.stderr)
                side.failed += 1
            self.extra_attempted += 1
            self.extra_failed += int(side.failed > 0)
            self.details[side.name] = side.details
        return m


class IncrementalRebuild(Workload):
    """``build_graph_incremental`` over a seeded commit to the corpus that
    setup built once: member-changing edits and additions.

    The incremental path gets deletions wrong (stale ``HAS_FILE`` and
    ``DEPENDS_ON`` edges of a deleted repo-less non-C# file; unchanged
    C# files keeping types resolved against a deleted file), so the
    timed commit deletes nothing. The traced run measures the same
    commit with deletions and reports its mismatched rows as the
    ``pipelines.incremental.deletion_mismatched_rows`` metric."""

    name = "incremental_rebuild"
    setup_repeats = 1

    def setup(self) -> None:
        base = f"{self.work}/base.parquet"
        self.edited = f"{self.work}/edited.parquet"
        self.with_deletions = f"{self.work}/edited_deletions.parquet"
        self.prior = f"{self.work}/prior"
        self.out = f"{self.work}/inc"
        import pyarrow.parquet as pq

        table = inputs.write_corpus(base, self.seed)
        edited, self.spec = inputs.edit_corpus(table, self.seed, delete=False)
        pq.write_table(edited, self.edited)
        self.edited_rows = edited.to_pylist()
        with_deletions, spec = inputs.edit_corpus(table, self.seed)
        pq.write_table(with_deletions, self.with_deletions)
        self.deleted = spec["deleted"]
        _build(base, self.prior)
        self.sizes = {"corpus_files": edited.num_rows,
                      "repos": inputs.CORPUS_REPOS,
                      **{k: len(v) for k, v in self.spec.items()},
                      "deleted_in_traced_deletion_probe": len(self.deleted)}

    def before_op(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)

    def op(self, tracer=None):
        return self._incremental(self.edited, self.out)

    def _incremental(self, corpus: str, out: str) -> dict:
        from codetoneo4j_ray.pipelines.incremental import (
            build_graph_incremental,
        )

        return build_graph_incremental(corpus, self.prior, out,
                                       deleted_at_sec=DELETED_AT_SEC)

    def capture(self, result):
        self.changed_files = result["changed_files"]
        return self._live_rows(self.out)

    def _live_rows(self, out: str) -> dict[str, list[tuple]]:
        file_cols = list(read_table(f"{self.prior}/files").columns)
        return graph_rows(out, live_files_only=True, file_cols=file_cols)

    def _mismatches(self, corpus: str, captured: list) -> list[dict]:
        """Rows by which each incremental output differs from a
        from-scratch build of ``corpus`` (file rows: live rows only)."""
        ref_out = f"{self.work}/reference"
        _build(corpus, ref_out)
        ref = graph_rows(ref_out)
        shutil.rmtree(ref_out, ignore_errors=True)
        return [{name: mismatched(tables[name], ref[name]) for name in ref}
                for tables in captured]

    def check(self, captured: list) -> int:
        bad = self._mismatches(self.edited, captured)
        self.details["mismatched_rows"] = bad[-1]
        return sum(any(b.values()) for b in bad)

    def probe(self, tracer) -> dict:
        edited = set(self.spec["edited"]) | set(self.spec["added"])
        rows = [r for r in self.edited_rows
                if f"{r['repo']}:{r['path']}" in edited]
        m = _build_probe(tracer, self.out)
        m.update(_extractor_probe(rows))
        m["pipelines.incremental.changed_files"] = self.changed_files
        m["pipelines.incremental.edited_files"] = len(edited)
        m["pipelines.incremental.useful_reextract_ratio"] = (
            len(edited) / self.changed_files if self.changed_files else 0.0)
        m.update(self._deletion_probe())
        return m

    def _deletion_probe(self) -> dict:
        """The known deletion defect, measured and not gated: the same
        commit plus deletions, compared with a from-scratch build."""
        name = "pipelines.incremental.deletion_mismatched_rows"
        if time.perf_counter() - _STARTED > DELETION_PROBE_DEADLINE_S:
            # like the read-side probes: a skip fails the run and leaves
            # the metric out
            self.details["deletion_probe"] = "skipped: run past its deadline"
            self.extra_attempted += 1
            self.extra_failed += 1
            self.unmeasured += (name,)
            return {}
        out = f"{self.work}/inc_deletions"
        self._incremental(self.with_deletions, out)
        bad = self._mismatches(self.with_deletions, [self._live_rows(out)])[0]
        shutil.rmtree(out, ignore_errors=True)
        self.details["deletion_probe"] = {"deleted": self.deleted,
                                          "mismatched_rows": bad}
        return {name: sum(bad.values())}


def _duck():
    import duckdb

    con = duckdb.connect()
    con.execute(f"SET threads = {os.cpu_count() or 1}")
    return con


class GraphQueries:
    """The five iterative graph operators over the ``edges/`` table of a
    built graph, checked against the package's DuckDB oracles, and one
    edge distinct through both exchange primitives of ``stages.bucketing``.

    Not a timed workload: one sweep of the five operators varies by ~10%
    from run to run on a one-CPU host, and the runs needed to average
    that out do not fit the benchmark's time budget next to the two
    build workloads. The full_build traced run measures it."""

    name = "graph_queries"

    def __init__(self, out_dir: str):
        self.edges = f"{out_dir}/edges"
        self.details: dict = {"edges": _parquet_rows(self.edges)}
        self.failed = 0

    def run(self, tracer) -> dict:
        import ray.data

        from codetoneo4j_ray.pipelines import graph_ops

        m, results = {}, {}
        for op in GRAPH_OPS:
            with tracer.span(f"pipelines.graph_ops.{op}",
                             "pipelines.graph_ops") as s:
                edges = ray.data.read_parquet(self.edges)
                results[op] = getattr(graph_ops, f"{op}_over")(edges).to_pandas()
            m[f"pipelines.graph_ops.{op}_s"] = s.duration
        self.failed += self._check(results)
        m.update(self._bucketing(tracer))
        return m

    def _check(self, results: dict) -> int:
        from codetoneo4j_ray.pipelines import graph_ops

        cte = (f"all_edges AS (SELECT subj, pred, obj FROM "
               f"read_parquet('{self.edges}/*.parquet'))")
        con = _duck()
        bad = {op: canon_rows(results[op]) != canon_rows(con.execute(
            getattr(graph_ops, f"{op}_oracle_sql")(cte)).df())
            for op in GRAPH_OPS}
        con.close()
        self.details["oracle_mismatches"] = bad
        return int(any(bad.values()))

    def _bucketing(self, tracer) -> dict:
        import pandas as pd
        import ray.data

        from codetoneo4j_ray.stages import bucketing

        m = {}
        keys = ["subj", "pred", "obj"]
        edges = ray.data.read_parquet(self.edges)
        with tracer.span("stages.bucketing.edge_distinct_tasks",
                         "stages.bucketing") as s:
            n_tasks = bucketing.bucketed_apply_tasks(
                edges, keys, pd.DataFrame.drop_duplicates).count()
        m["stages.bucketing.edge_distinct_tasks_s"] = s.duration
        with tracer.span("stages.bucketing.edge_distinct_groupby",
                         "stages.bucketing") as s:
            n_groupby = bucketing.bucketed_apply(
                edges, keys, pd.DataFrame.drop_duplicates).count()
        m["stages.bucketing.edge_distinct_groupby_s"] = s.duration
        want = len(read_table(self.edges, keys).drop_duplicates())
        self.details["edge_distinct_rows"] = [n_tasks, n_groupby, want]
        self.failed += int(n_tasks != want or n_groupby != want)
        per_bucket = bucketing.add_bucket_column(
            edges, keys, bucketing.DEFAULT_BUCKETS
        ).select_columns(["__bucket"]).to_pandas()["__bucket"].value_counts()
        per_bucket = per_bucket.reindex(range(bucketing.DEFAULT_BUCKETS),
                                        fill_value=0)
        m["stages.bucketing.bucket_skew"] = (
            float(per_bucket.max()) / max(1.0, float(per_bucket.median())))
        return m


class DocDedup:
    """Exact dedup, MinHash near-dup pairs and near-dup clusters over a
    seeded ``documents.parquet``, checked against the package's DuckDB
    oracles.

    Not a timed workload, for the reason given on GraphQueries. The
    full_build traced run measures it."""

    name = "doc_dedup"

    def __init__(self, work: str, seed: int):
        self.docs_dir = f"{work}/docs"
        os.makedirs(self.docs_dir, exist_ok=True)
        table = inputs.write_documents(f"{self.docs_dir}/documents.parquet",
                                       seed)
        self.details: dict = {"documents": table.num_rows,
                              "text_bytes": sum(table["n_chars"].to_pylist())}
        self.failed = 0

    def run(self, tracer) -> dict:
        from codetoneo4j_ray.pipelines import data_ops

        m, results = {}, {}
        for op in DEDUP_OPS:
            with tracer.span(f"pipelines.data_ops.{op}",
                             "pipelines.data_ops") as s:
                results[op] = getattr(data_ops, op)(self.docs_dir).to_pandas()
            m[f"pipelines.data_ops.{op}_s"] = s.duration
        clusters = results["dup_clusters"]
        m.update({
            "pipelines.data_ops.exact_groups": len(results["doc_dedup_exact"]),
            "pipelines.data_ops.minhash_pairs": len(results["doc_dedup_minhash"]),
            "pipelines.data_ops.cluster_docs": len(clusters),
            "pipelines.data_ops.clusters": (
                clusters["cluster_rep"].nunique() if len(clusters) else 0),
        })
        self.failed += self._check(results)
        return m

    def _check(self, results: dict) -> int:
        from codetoneo4j_ray.pipelines import data_ops

        con = _duck()
        con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                    f"read_parquet('{self.docs_dir}/documents.parquet')")
        minhash_sql = data_ops.minhash_oracle_sql()
        con.execute(f"CREATE TABLE minhash_pairs AS {minhash_sql}")
        clusters_sql = data_ops.dup_clusters_oracle_sql()
        # the cluster oracle embeds the pair oracle; reuse its result
        if minhash_sql not in clusters_sql:
            raise RuntimeError("dup_clusters oracle no longer embeds the "
                               "minhash oracle; update the benchmark check")
        clusters_sql = clusters_sql.replace(minhash_sql,
                                            "SELECT * FROM minhash_pairs")
        sql = {
            # the reference query of __ray_entry__.oracle_sql()
            "doc_dedup_exact": "SELECT min(doc_id) AS doc_id, count(*) AS "
                               "n_dups FROM documents GROUP BY text",
            "doc_dedup_minhash": "SELECT * FROM minhash_pairs",
            "dup_clusters": clusters_sql,
        }
        bad = {op: canon_rows(results[op]) != canon_rows(con.execute(q).df())
               for op, q in sql.items()}
        con.close()
        self.details["oracle_mismatches"] = bad
        return int(any(bad.values()))


WORKLOADS = {w.name: w for w in (FullBuild, IncrementalRebuild)}
