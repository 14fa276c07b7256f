"""Ray-Data-native knowledge-graph construction engine.

Reproduces the extraction semantics of ChaseFlorell/CodeToNeo4j (a .NET
Roslyn → Neo4j CLI) as raw Ray tasks over pinned Arrow blocks, read from
a Parquet corpus of ``(repo, path, commit, lang, content)`` rows, emitting
canonical ``(subj, pred, obj)`` triple tables instead of Neo4j writes.

Layout:
    schema        Arrow schemas for every table crossing a stage boundary
    config        handler registry (extension → extractor / language / technology)
    functions/    pure scalar/vector functions (tags, urls, hashing, paths)
    extractors/   per-language symbol+mention extractors (stage 1 inner loop)
    stages/       raw-task stages: extract, link, canonicalize, materialize
    pipelines/    end-to-end pipelines (build_graph flagship, data ops)
    sources/      corpus reader + deterministic synthetic corpus generator
    state/        per-partition checkpoint manifests (resume support)
"""

__version__ = "0.1.0"
