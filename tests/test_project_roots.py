"""Project-root resolution for the node ecosystems, porting the
reference's analyzer expectations:

  - TS/JS project name = nearest-ancestor package.json 'name', basename
    fallback (``tools/ts-analyzer/test/analyzer.test.ts:25-40``,
    ``src/analyzer.ts:52-66``); paths in fqns are project-relative; a
    file with no package.json ancestor keeps its File record but skips
    analysis (``TypeScriptHandlerBase.cs:36-41``).
  - Dart package name = nearest-ancestor pubspec.yaml 'name:'
    (``analyzer_service.dart:104-117``); no-pubspec files skip analysis
    (``DartHandler.cs:34-40``).

Unit cases drive extract_file with a hand-built RepoTypeIndex; the
end-to-end case runs the pass-A skim + pass-B extraction over a small
corpus so the manifest collection itself is exercised.
"""

from __future__ import annotations

import pyarrow as pa

from codetoneo4j_ray.extractors import extract_file
from codetoneo4j_ray.extractors.csharp.types import RepoTypeIndex


def idx(npm=None, pub=None) -> RepoTypeIndex:
    i = RepoTypeIndex()
    i.npm_roots = dict(npm or {})
    i.pub_roots = dict(pub or {})
    return i


# ---- TS/JS unit cases -------------------------------------------------

def test_ts_uses_package_json_name():
    ctx = extract_file(
        "some-repo", "client/src/app.ts", "export class Foo {}",
        "Private", repo_index=idx(npm={"client": "my-app"}),
    )
    s = ctx.symbols[0]
    assert s["fqn"] == "@my-app/src/app.ts::Foo"
    assert s["namespace"] == "@my-app/src"
    # symbol keys stay solution-relative (fileKey-based)
    assert s["key"].startswith("client/src/app.ts:")


def test_ts_basename_fallback_when_no_name():
    ctx = extract_file(
        "some-repo", "client/src/app.ts", "export class Foo {}",
        "Private", repo_index=idx(npm={"client": None}),
    )
    assert ctx.symbols[0]["fqn"] == "@client/src/app.ts::Foo"


def test_ts_corpus_root_manifest():
    ctx = extract_file(
        "some-repo", "src/app.ts", "export class Foo {}",
        "Private", repo_index=idx(npm={"": "rootapp"}),
    )
    assert ctx.symbols[0]["fqn"] == "@rootapp/src/app.ts::Foo"


def test_ts_corpus_root_manifest_basename_falls_back_to_repo():
    ctx = extract_file(
        "some-repo", "src/app.ts", "export class Foo {}",
        "Private", repo_index=idx(npm={"": None}),
    )
    assert ctx.symbols[0]["fqn"] == "@some-repo/src/app.ts::Foo"


def test_ts_nearest_root_wins():
    ctx = extract_file(
        "r", "client/src/app.ts", "export class Foo {}",
        "Private", repo_index=idx(npm={"": "outer", "client": "inner"}),
    )
    assert ctx.symbols[0]["fqn"] == "@inner/src/app.ts::Foo"


def test_ts_no_manifest_ancestor_skips_analysis():
    ctx = extract_file(
        "r", "client/src/app.ts", "export class Foo {}",
        "Private", repo_index=idx(npm={"other": "x"}),
    )
    assert ctx is not None  # the File record survives
    assert ctx.symbols == [] and ctx.mentions == []


def test_ts_import_from_name_is_project_relative():
    ctx = extract_file(
        "r", "client/src/app.ts", 'import { x } from "./util";\n',
        "Private", repo_index=idx(npm={"client": "my-app"}),
    )
    (m,) = ctx.mentions
    # from-name = project-relative path; to-file resolution stays
    # solution-relative (TypeScriptHandlerBase.cs:94-108 re-prefixing)
    assert m["subj"] == "client/src/app.ts:file:src/app.ts:1"
    assert m["obj"] == "client/src/util.ts:file:client/src/util.ts"


# ---- Dart unit cases ----------------------------------------------------

def test_dart_uses_pubspec_name():
    ctx = extract_file(
        "r", "mobile/lib/main.dart", "class App {}\n",
        "Private", repo_index=idx(pub={"mobile": "my_pkg"}),
    )
    s = ctx.symbols[0]
    assert s["fqn"] == "package:my_pkg/lib/main.dart::App"
    assert s["namespace"] == "package:my_pkg/lib"


def test_dart_root_level_file_namespace_dot():
    ctx = extract_file(
        "r", "mobile/main.dart", "class App {}\n",
        "Private", repo_index=idx(pub={"mobile": "my_pkg"}),
    )
    # p.dirname('main.dart') == '.' and the visitor keeps it
    # (ast_visitor.dart:26-30)
    assert ctx.symbols[0]["namespace"] == "package:my_pkg/."


def test_dart_no_pubspec_ancestor_skips_analysis():
    ctx = extract_file(
        "r", "mobile/lib/main.dart", "class App {}\n",
        "Private", repo_index=idx(npm={"mobile": "wrong-ecosystem"}),
    )
    assert ctx is not None and ctx.symbols == []


# ---- end-to-end: skim collects manifests, extraction consumes them ------

def test_pipeline_collects_manifest_roots(ray_session, tmp_path):
    import pyarrow.parquet as pq

    from codetoneo4j_ray.pipelines.build_graph import (
        extract_corpus,
        read_corpus_blocks,
    )
    from codetoneo4j_ray.schema import CORPUS_SCHEMA

    rows = [
        ("repoX", "client/package.json", "c" * 40, "json",
         '{"name": "web-client", "dependencies": {}}'),
        ("repoX", "client/src/app.ts", "c" * 40, "typescript",
         "export class AppRoot {}\n"),
        # TS file OUTSIDE any package.json dir → analysis skipped
        ("repoX", "scripts/tool.ts", "c" * 40, "typescript",
         "export class Tool {}\n"),
        ("repoX", "mobile/pubspec.yaml", "c" * 40, "yaml",
         "name: mobile_pkg\ndependencies:\n  http: ^0.13.0\n"),
        ("repoX", "mobile/lib/main.dart", "c" * 40, "dart",
         "class App {}\n"),
    ]
    cols = list(zip(*rows))
    t = pa.table(
        {f.name: pa.array(list(cols[i]), pa.string())
         for i, f in enumerate(CORPUS_SCHEMA)},
        schema=CORPUS_SCHEMA,
    )
    p = str(tmp_path / "c.parquet")
    pq.write_table(t, p)
    recs = extract_corpus(read_corpus_blocks(p), str(tmp_path / "out"),
                          "fp")[0].table().to_pandas()
    sym = recs[recs["rec_type"] == "symbol"]
    fqns = set(sym["fqn"])
    assert "@web-client/src/app.ts::AppRoot" in fqns
    assert "package:mobile_pkg/lib/main.dart::App" in fqns
    # the rootless TS file contributed no symbols…
    assert not any("Tool" in f for f in fqns)
    # …but its File record exists
    files = recs[recs["rec_type"] == "file"]
    assert "scripts/tool.ts" in set(files["path"])
