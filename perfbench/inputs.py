"""Seeded input generators for the benchmark.

Everything the program reads is written here, from ``--seed`` alone:

* the source corpus: ``sources.synth.generate_corpus`` with a fixed
  shape, written as one parquet file;
* the edit set applied to a copy of that corpus: member-changing edits,
  deletions and additions;
* a ``documents.parquet`` table in the testdata schema (doc_id, text,
  lang, source, n_chars) with planted exact and near duplicates.

The same seed always gives byte-identical inputs; different seeds give
inputs of the same size, so run-to-run spread comes from the system,
not from the input size.
"""

from __future__ import annotations

import random
import re

import pyarrow as pa
import pyarrow.parquet as pq

# Corpus shape: many small repos. 28 rows per repo at filler 3, about
# 78% of them handled, so 14 repos give ~390 rows and ~300 indexed files.
CORPUS_REPOS = 14
CORPUS_FILLER = 3

# Edit set: ~1% of files get member-changing edits, plus a few
# deletions and additions.
EDIT_SHARE = 0.01
N_DELETIONS = 3
N_ADDITIONS = 2

# Many short texts; the DuckDB MinHash oracle used by the check costs
# ~1 ms per shingle, so the table stays small.
N_DOCS = 300

_METHOD_DECL = re.compile(
    r"^\s*(?:public|private|protected|internal)\s[^=;(]*?\b([A-Z]\w*)\(",
    re.M,
)


def write_corpus(path: str, seed: int, repos: int = CORPUS_REPOS) -> pa.Table:
    from codetoneo4j_ray.sources.synth import generate_corpus

    table = generate_corpus(repos, CORPUS_FILLER, seed)
    pq.write_table(table, path)
    return table


def _handled(path: str) -> bool:
    from codetoneo4j_ray.config import is_excluded, resolve_handler

    return not is_excluded(path) and resolve_handler(path) is not None


def edit_corpus(table: pa.Table, seed: int,
                delete: bool = True) -> tuple[pa.Table, dict]:
    """A seeded edited copy of ``table`` and a description of the edits.

    * edits: ~1% of the handled files, C# files whose declared members
      change (one method is renamed at its declaration and every call in
      the file);
    * deletions: one C# file, one non-C# file and one file of any kind.
      Non-C# file keys are repo-less paths (``client/package.json``) that
      recur in every repo, so deleting one exercises tombstoning of a
      key that other repos still hold;
    * additions: a new C# class that calls into its repo, and a new JSON
      config file.

    With ``delete=False`` the deletions are drawn but not applied, so
    the edits and additions are the same as with ``delete=True``.

    Returns ``(edited_table, {"edited": [...], "deleted": [...],
    "added": [...]})`` with ``repo:path`` entries; ``deleted`` is empty
    when ``delete`` is False.
    """
    rng = random.Random(seed * 1_000_003 + 17)
    rows = table.to_pylist()
    commit_of: dict[str, str] = {}
    for r in rows:
        commit_of.setdefault(r["repo"], r["commit"])
    # a (repo, path) key can occur twice in a corpus; edit and delete by
    # key so every copy of a file changes together
    by_key: dict[tuple[str, str], list[int]] = {}
    for i, r in enumerate(rows):
        by_key.setdefault((r["repo"], r["path"]), []).append(i)
    keys = sorted(k for k in by_key if _handled(k[1]))
    csharp = [k for k in keys if k[1].endswith(".cs")
              and _METHOD_DECL.search(rows[by_key[k][0]]["content"])]
    other = [k for k in keys if not k[1].endswith(".cs")]

    n_edit = max(2, round(EDIT_SHARE * len(keys)))
    edited = rng.sample(csharp, n_edit)
    for k in edited:
        for i in by_key[k]:
            rows[i] = dict(rows[i], content=_rename_member(rows[i]["content"], rng))

    remaining_cs = [k for k in csharp if k not in edited]
    deleted = [rng.choice(remaining_cs), rng.choice(other)]
    pool = [k for k in keys if k not in edited and k not in deleted]
    deleted += rng.sample(pool, N_DELETIONS - len(deleted))
    if not delete:
        deleted = []
    drop = {i for k in deleted for i in by_key[k]}
    rows = [r for i, r in enumerate(rows) if i not in drop]

    repos = sorted({k[0] for k in keys})
    added = []
    for n in range(N_ADDITIONS):
        repo = rng.choice(repos)
        app = "Acme" + repo.rsplit("-", 1)[-1]
        if n % 2 == 0:
            path = f"src/{app}/Workers/Added{seed % 1000}x{n}.cs"
            content = _new_class(app, f"Added{seed % 1000}x{n}", rng)
            lang = "csharp"
        else:
            path = f"config/added{seed % 1000}x{n}.json"
            content = '{\n  "name": "added-%d",\n  "size": %d\n}\n' % (
                n, rng.randrange(1000))
            lang = "json"
        rows.append({"repo": repo, "path": path, "commit": commit_of[repo],
                     "lang": lang, "content": content})
        added.append((repo, path))

    edited_table = pa.Table.from_pylist(rows, schema=table.schema)
    spec = {
        "edited": [f"{r}:{p}" for r, p in edited],
        "deleted": [f"{r}:{p}" for r, p in deleted],
        "added": [f"{r}:{p}" for r, p in added],
    }
    return edited_table, spec


def _rename_member(content: str, rng: random.Random) -> str:
    names = sorted({m.group(1) for m in _METHOD_DECL.finditer(content)})
    name = rng.choice(names)
    return re.sub(rf"\b{name}\(", f"{name}Edited{rng.randrange(1000)}(",
                  content)


def _new_class(app: str, cls: str, rng: random.Random) -> str:
    steps = "\n".join(
        f"        public int Step{i}(int x) {{ return _w.Id + x * {rng.randrange(1, 9)}; }}"
        for i in range(3)
    )
    return f"""using System;
using {app}.Models;

namespace {app}.Workers
{{
    public class {cls}
    {{
        private readonly Widget _w = new Widget({rng.randrange(100)});

{steps}

        public void Run()
        {{
            _w.AddTag("{cls.lower()}");
            Step0(1);
        }}
    }}
}}
"""


# --- documents -------------------------------------------------------------

_SYLLABLES = [
    "ka", "lo", "mi", "ren", "tu", "sha", "vo", "pel", "dri", "na", "ok",
    "zu", "fa", "gri", "hel", "ix", "jo", "que", "bar", "st", "en", "um",
]
_LANGS = ["de", "en", "es", "fr"]
_STOPWORDS = {"de": "der die und", "en": "the and of", "es": "el la de",
              "fr": "le la et"}
_SOURCES = ["crawl", "forum", "wiki"]


def documents_table(seed: int, n_docs: int = N_DOCS) -> pa.Table:
    """Many short texts over a zipf-weighted pseudo-word vocabulary.
    Every 20th document is an exact duplicate of the one 20 before it;
    every 17th is a near duplicate of the one 17 before it with its last
    word replaced, which keeps shingle Jaccard above the 0.8 threshold
    for texts this short."""
    import numpy as np

    rng = np.random.RandomState(seed % (2**32))
    vocab = sorted({
        "".join(_SYLLABLES[j] for j in rng.randint(0, len(_SYLLABLES), 3))
        for _ in range(4000)
    })
    vocab_arr = np.array(vocab, dtype=object)
    weights = 1.0 / np.arange(1, len(vocab) + 1)
    weights /= weights.sum()
    texts: list[str] = []
    langs: list[str] = []
    for i in range(n_docs):
        if i % 20 == 7 and i >= 20:
            texts.append(texts[i - 20])
            langs.append(langs[i - 20])
            continue
        if i % 17 == 3 and i >= 17:
            words = texts[i - 17].split()
            words[-1] = str(vocab_arr[int(rng.randint(0, len(vocab)))])
            texts.append(" ".join(words))
            langs.append(langs[i - 17])
            continue
        lang = _LANGS[int(rng.randint(0, len(_LANGS)))]
        n = int(rng.randint(16, 28))
        body = vocab_arr[rng.choice(len(vocab), size=n, p=weights)]
        texts.append(_STOPWORDS[lang] + " " + " ".join(body))
        langs.append(lang)
    sources = [_SOURCES[int(x)] for x in rng.randint(0, len(_SOURCES), n_docs)]
    return pa.table({
        "doc_id": pa.array(range(n_docs), pa.int64()),
        "text": pa.array(texts, pa.string()),
        "lang": pa.array(langs, pa.string()),
        "source": pa.array(sources, pa.string()),
        "n_chars": pa.array([len(t) for t in texts], pa.int64()),
    })


def write_documents(path: str, seed: int) -> pa.Table:
    table = documents_table(seed)
    pq.write_table(table, path, row_group_size=4096)
    return table
