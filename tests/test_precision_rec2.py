"""Second P/R fixture: operator / conversion / method-group semantics
through the FULL pipeline (extraction → linking → canonicalize)."""

from __future__ import annotations

import pyarrow as pa
import pytest

from codetoneo4j_ray.schema import CORPUS_SCHEMA

MONEY_CS = """namespace Fin;
public class Money
{
    public static Money operator +(Money a, Money b) { return a; }
    public static implicit operator Money(int cents) { return new Money(); }
    public static explicit operator int(Money m) { return 0; }
    public Money() { }
}
"""

LEDGER_CS = """namespace Fin;
public class Ledger
{
    public void Post()
    {
        var a = new Money();
        var b = new Money();
        var c = a + b;
        Money d = 100;
        int cents = (int)a;
        System.Action cb = Flush;
    }
    public void Flush() { }
}
"""

_M = "fix2:Fin.Money"
_L = "fix2:Fin.Ledger"
_F_M = "src/Fin/Money.cs"
_F_L = "src/Fin/Ledger.cs"

EXPECTED_INVOKES = {
    # the implicit-conversion operator's own body news up a Money
    # (operator bodies are BaseMethodDeclarationSyntax → scanned)
    (f"{_M}.implicit operator {_M[5:]}(int)", "src__INVOKES", f"{_M}.Money()"),
    (f"{_L}.Post()", "src__INVOKES", f"{_M}.Money()"),
    (f"{_L}.Post()", "src__INVOKES", f"{_M}.operator +({_M[5:]}, {_M[5:]})"),
    (f"{_L}.Post()", "src__INVOKES", f"{_M}.implicit operator {_M[5:]}(int)"),
    (f"{_L}.Post()", "src__INVOKES", f"{_M}.explicit operator int({_M[5:]})"),
    (f"{_L}.Post()", "src__INVOKES", f"{_L}.Flush()"),
}


@pytest.fixture(scope="module")
def emitted(ray_session, tmp_path_factory):
    import pyarrow.parquet as pq

    from codetoneo4j_ray.pipelines.build_graph import build_graph

    rows = [("fix2", _F_M, "c" * 40, "csharp", MONEY_CS),
            ("fix2", _F_L, "c" * 40, "csharp", LEDGER_CS)]
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


def test_invokes_precision_recall(emitted):
    got = {t for t in emitted if t[1] == "src__INVOKES"}
    assert got == EXPECTED_INVOKES
