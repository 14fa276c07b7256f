"""Triple P/R harness: the pipeline's resolved edge set vs a hand-derived
expected set encoding the reference's semantics (BASELINE.json target:
P/R ≥ 0.95 on .NET solution fixtures). The expected triples are
enumerated manually from the reference's rules:

  - CONTAINS type→member (RoslynSymbolProcessor.cs:167,287)
  - DEPENDS_ON type→membertype, only when both endpoints are declared
    symbols (MergeRelationships.cypher:2-4 drops the rest)
  - INVOKES method→callee with semantic resolution
  - DECLARES file→symbol (UpsertSymbols.cypher:20-22)
  - HAS_FILE project→file (UpsertFile.cypher:18-24)
  - HAS_TAG symbol→namespace-tags (Neo4jFlushService.cs:90-94)
"""

from __future__ import annotations

import pyarrow as pa
import pytest

from codetoneo4j_ray.schema import CORPUS_SCHEMA

ITEM_CS = """namespace Lib.Models;
public class Item
{
    public int Id { get; set; }
    public Item(int id) { Id = id; }
    public string Label() { return ""; }
}
public enum State { On, Off }
"""

SERVICE_CS = """using System;
using Lib.Models;
namespace Lib.Services;
public class ItemService
{
    public Item Make(int id)
    {
        var item = new Item(id);
        item.Label();
        Log();
        return item;
    }
    private void Log() { }
}
"""

FILES = {
    "src/Lib/Models/Item.cs": ITEM_CS,
    "src/Lib/Services/ItemService.cs": SERVICE_CS,
}

_ITEM = "fix:Lib.Models.Item"
_STATE = "fix:Lib.Models.State"
_SVC = "fix:Lib.Services.ItemService"
_F_ITEM = "src/Lib/Models/Item.cs"
_F_SVC = "src/Lib/Services/ItemService.cs"

EXPECTED = set()
for t, members in {
    _ITEM: [f"{_ITEM}.Id", f"{_ITEM}.Item(int)", f"{_ITEM}.Label()"],
    _STATE: [f"{_STATE}.On", f"{_STATE}.Off"],
    _SVC: [f"{_SVC}.Make(int)", f"{_SVC}.Log()"],
}.items():
    for m in members:
        EXPECTED.add((t, "src__CONTAINS", m))
EXPECTED.add((_SVC, "src__DEPENDS_ON", _ITEM))  # Make's return type
EXPECTED |= {
    (f"{_SVC}.Make(int)", "src__INVOKES", f"{_ITEM}.Item(int)"),
    (f"{_SVC}.Make(int)", "src__INVOKES", f"{_ITEM}.Label()"),
    (f"{_SVC}.Make(int)", "src__INVOKES", f"{_SVC}.Log()"),
}
for f, syms in {
    _F_ITEM: [_ITEM, f"{_ITEM}.Id", f"{_ITEM}.Item(int)", f"{_ITEM}.Label()",
              _STATE, f"{_STATE}.On", f"{_STATE}.Off"],
    _F_SVC: [_SVC, f"{_SVC}.Make(int)", f"{_SVC}.Log()"],
}.items():
    for s in syms:
        EXPECTED.add((f, "src__DECLARES", s))
EXPECTED.add(("fix", "src__HAS_FILE", _F_ITEM))
EXPECTED.add(("fix", "src__HAS_FILE", _F_SVC))
for s in [_ITEM, f"{_ITEM}.Id", f"{_ITEM}.Item(int)", f"{_ITEM}.Label()",
          _STATE, f"{_STATE}.On", f"{_STATE}.Off"]:
    EXPECTED.add((s, "src__HAS_TAG", "Lib"))
    EXPECTED.add((s, "src__HAS_TAG", "Models"))
for s in [_SVC, f"{_SVC}.Make(int)", f"{_SVC}.Log()"]:
    EXPECTED.add((s, "src__HAS_TAG", "Lib"))
    EXPECTED.add((s, "src__HAS_TAG", "Services"))


@pytest.fixture(scope="module")
def emitted(ray_session, tmp_path_factory):
    import pyarrow.parquet as pq

    from codetoneo4j_ray.pipelines.build_graph import build_graph

    rows = [("fix", p, "c" * 40, "csharp", c) for p, c in FILES.items()]
    cols = list(zip(*rows))
    tmp = tmp_path_factory.mktemp("emitted")
    corpus, out = str(tmp / "corpus.parquet"), str(tmp / "out")
    pq.write_table(pa.table(
        {f.name: pa.array(list(cols[i]), pa.string())
         for i, f in enumerate(CORPUS_SCHEMA)},
        schema=CORPUS_SCHEMA,
    ), corpus)
    build_graph(corpus, out)
    edges = pq.read_table(f"{out}/edges").to_pandas()
    return set(map(tuple, edges[["subj", "pred", "obj"]].values))


def test_precision_recall(emitted):
    tp = len(emitted & EXPECTED)
    precision = tp / len(emitted)
    recall = tp / len(EXPECTED)
    missing = EXPECTED - emitted
    extra = emitted - EXPECTED
    assert precision >= 0.95, f"precision={precision}; extra={sorted(extra)[:10]}"
    assert recall >= 0.95, f"recall={recall}; missing={sorted(missing)[:10]}"


def test_exact_match(emitted):
    # stronger than the 0.95 gate: this fixture should match exactly
    assert emitted == EXPECTED
