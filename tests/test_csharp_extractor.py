"""Snippet-level C# extraction tests — the compile-a-snippet pattern of
RoslynSymbolProcessorTests / MemberDependencyExtractorTests, expected
values derived from the reference's key/display semantics (SURVEY §1.4)."""

from __future__ import annotations

import pyarrow as pa

from codetoneo4j_ray.extractors import extract_file
from codetoneo4j_ray.extractors.csharp.extractor import BASE_PRED, MEMBER_PRED
from codetoneo4j_ray.extractors.csharp.types import RepoTypeIndex
from codetoneo4j_ray.stages.extract import _assemble_type_indices, skim_batch


def run(files: dict[str, str], min_acc: str = "Private", repo: str = "repo"):
    """Every file extracted with the repo's type index, built as pass A
    builds it: the skim rows of every file, assembled per repo."""
    rows = skim_batch(pa.table({"repo": [repo] * len(files),
                                "path": list(files),
                                "content": list(files.values())}))
    idx = _assemble_type_indices(rows.to_pandas()).get(repo, RepoTypeIndex())
    out = {}
    for path, content in files.items():
        out[path] = extract_file(repo, path, content, min_acc, idx)
    return out


def keys(ctx):
    return {s["key"] for s in ctx.symbols}


def mentions(ctx, pred=None):
    return {
        (m["subj"], m["pred"], m["obj"])
        for m in ctx.mentions
        if m["pred"] not in (BASE_PRED, MEMBER_PRED)
        and (pred is None or m["pred"] == pred)
    }


class TestSymbols:
    def test_class_and_members(self):
        ctx = run({"src/A.cs": """namespace MyNs;
/// <summary>Doc here.</summary>
public class Foo
{
    // a counter
    public int Count { get; set; }
    private string _name = "x";
    public event System.EventHandler Changed;
    public Foo(int a) { }
    public string Render(int n, string fmt) { return fmt; }
}
"""})["src/A.cs"]
        got = keys(ctx)
        assert "repo:MyNs.Foo" in got
        assert "repo:MyNs.Foo.Count" in got
        assert "repo:MyNs.Foo._name" in got
        assert "repo:MyNs.Foo.Changed" in got
        assert "repo:MyNs.Foo.Foo(int)" in got
        assert "repo:MyNs.Foo.Render(int, string)" in got
        by_key = {s["key"]: s for s in ctx.symbols}
        t = by_key["repo:MyNs.Foo"]
        assert t["kind"] == "NamedType"
        assert t["accessibility"] == "Public"
        assert t["namespace"] == "MyNs"
        assert t["fqn"].startswith("global::MyNs.Foo")
        assert "<summary>Doc here.</summary>" in t["documentation"]
        assert by_key["repo:MyNs.Foo.Count"]["comments"] == "// a counter"
        assert by_key["repo:MyNs.Foo.Foo(int)"]["name"] == ".ctor"
        assert by_key["repo:MyNs.Foo.Foo(int)"]["kind"] == "Method"

    def test_generic_arity_in_keys(self):
        ctx = run({"src/A.cs": """using System.Collections.Generic;
namespace N;
public class Box<T>
{
    public Dictionary<string, List<int>> Map { get; set; }
    public T Get<U>(U seed) { return default; }
}
"""})["src/A.cs"]
        got = keys(ctx)
        assert "repo:N.Box<T>" in got
        assert "repo:N.Box<T>.Map" in got
        assert "repo:N.Box<T>.Get<U>(U)" in got
        deps = mentions(ctx, "src__DEPENDS_ON")
        assert (
            "repo:N.Box<T>",
            "src__DEPENDS_ON",
            "repo:System.Collections.Generic.Dictionary<string, System.Collections.Generic.List<int>>",
        ) in deps

    def test_enum_interface_record_struct(self):
        ctx = run({"src/A.cs": """namespace N;
public enum Color { Red, Green }
public interface IThing { void Go(); }
public record Person(string Name, int Age);
public struct Point { public int X; }
"""})["src/A.cs"]
        got = keys(ctx)
        assert {"repo:N.Color", "repo:N.Color.Red", "repo:N.Color.Green",
                "repo:N.IThing", "repo:N.IThing.Go()", "repo:N.Person",
                "repo:N.Point", "repo:N.Point.X"} <= got
        by_key = {s["key"]: s for s in ctx.symbols}
        assert by_key["repo:N.Color.Red"]["kind"] == "Field"
        # interface members default Public (gate passes at Private min)
        assert by_key["repo:N.IThing.Go()"]["accessibility"] == "Public"
        cont = mentions(ctx, "src__CONTAINS")
        assert ("repo:N.Color", "src__CONTAINS", "repo:N.Color.Red") in cont

    def test_nested_type_contains(self):
        ctx = run({"src/A.cs": """namespace N;
public class Outer
{
    public class Inner { public void M() { } }
    public enum Kind { A }
}
"""})["src/A.cs"]
        cont = mentions(ctx, "src__CONTAINS")
        assert ("repo:N.Outer", "src__CONTAINS", "repo:N.Outer.Inner") in cont
        assert ("repo:N.Outer", "src__CONTAINS", "repo:N.Outer.Kind") in cont
        assert ("repo:N.Outer.Inner", "src__CONTAINS", "repo:N.Outer.Inner.M()") in cont

    def test_accessibility_gate(self):
        src = {"src/A.cs": """namespace N;
public class C
{
    public void Pub() { }
    internal void Int() { }
    private void Priv() { }
}
"""}
        pub = run(src, min_acc="Public")["src/A.cs"]
        assert "repo:N.C.Pub()" in keys(pub)
        assert "repo:N.C.Int()" not in keys(pub)
        assert "repo:N.C.Priv()" not in keys(pub)
        internal = run(src, min_acc="Internal")["src/A.cs"]
        assert "repo:N.C.Int()" in keys(internal)
        assert "repo:N.C.Priv()" not in keys(internal)

    def test_not_applicable_min_indexes_everything(self):
        ctx = run({"src/A.cs": "namespace N; public class C { private int _x; }"},
                  min_acc="NotApplicable")["src/A.cs"]
        assert "repo:N.C._x" in keys(ctx)

    def test_partial_class_same_key(self):
        out = run({
            "src/A.cs": "namespace N;\npublic partial class P { public void A() {} }",
            "src/B.cs": "namespace N;\npublic partial class P { public void B() {} }",
        })
        assert "repo:N.P" in keys(out["src/A.cs"])
        assert "repo:N.P" in keys(out["src/B.cs"])
        assert ("repo:N.P", "src__CONTAINS", "repo:N.P.B()") in mentions(out["src/B.cs"])

    def test_nullable_and_arrays(self):
        ctx = run({"src/A.cs": """namespace N;
public class C
{
    public int? MaybeInt { get; set; }
    public string? MaybeName { get; set; }
    public int[] Nums;
    public (int, string) Pair;
}
"""})["src/A.cs"]
        deps = mentions(ctx, "src__DEPENDS_ON")
        objs = {o for _s, _p, o in deps}
        assert "repo:int?" in objs          # nullable value type keeps '?'
        assert "repo:string" in objs        # nullable annotation dropped
        assert "repo:int[]" in objs
        assert "repo:(int, string)" in objs

    def test_crlf_line_numbers(self):
        ctx = run({"src/A.cs": "namespace N\r\n{\r\n    public class C\r\n    {\r\n    }\r\n}\r\n"})["src/A.cs"]
        by_key = {s["key"]: s for s in ctx.symbols}
        assert by_key["repo:N.C"]["start_line"] == 3

    def test_top_level_delegate_skipped_nested_kept(self):
        ctx = run({"src/A.cs": """namespace N;
public delegate void TopHandler(int x);
public class C
{
    public delegate string Formatter(int x);
}
"""})["src/A.cs"]
        got = keys(ctx)
        assert "repo:N.TopHandler" not in got  # DelegateDeclarationSyntax ∉ BaseTypeDeclarationSyntax
        assert "repo:N.C.Formatter" in got
        assert ("repo:N.C", "src__CONTAINS", "repo:N.C.Formatter") in mentions(ctx)


class TestUsingsAndDeps:
    def test_external_vs_internal_usings(self):
        out = run({
            "src/A.cs": "namespace MyApp.Models;\npublic class M { }",
            "src/B.cs": """using System;
using MyApp.Models;
using System.Text;
namespace MyApp.Services;
public class S { }
""",
        })
        deps = mentions(out["src/B.cs"], "src__DEPENDS_ON")
        assert ("src/B.cs", "src__DEPENDS_ON", "repo:System") in deps
        assert ("src/B.cs", "src__DEPENDS_ON", "repo:System.Text") in deps
        # internal namespace → no edge (AddDependsOnIfExternal)
        assert ("src/B.cs", "src__DEPENDS_ON", "repo:MyApp.Models") not in deps

    def test_global_usings_propagate(self):
        out = run({
            "src/G.cs": "global using System.Linq;\n",
            "src/B.cs": "namespace N;\npublic class C { }",
        })
        deps = mentions(out["src/B.cs"], "src__DEPENDS_ON")
        assert ("src/B.cs", "src__DEPENDS_ON", "repo:System.Linq") in deps

    def test_void_return_dep(self):
        ctx = run({"src/A.cs": "namespace N;\npublic class C { public void M() {} }"})["src/A.cs"]
        assert ("repo:N.C", "src__DEPENDS_ON", "repo:void") in mentions(ctx)


class TestInvokes:
    def test_cross_file_call_and_ctor(self):
        out = run({
            "src/Svc.cs": """namespace N;
public class Svc
{
    public string Format(int id) { return ""; }
}
""",
            "src/Use.cs": """namespace N;
public class Use
{
    public void Run()
    {
        var s = new Svc();
        s.Format(1);
    }
}
""",
        })
        inv = [m for m in out["src/Use.cs"].mentions if m["pred"] == "src__INVOKES"]
        # deferred at extraction; check context captured
        assert {(m["ctx_kind"], m["ctx_receiver"], m["ctx_name"], m["ctx_argc"])
                for m in inv} == {
            ("ctor", "N.Svc", "", 0),
            ("call", "N.Svc", "Format", 1),
        }

    def test_field_receiver_and_overloads(self):
        out = run({
            "src/A.cs": """namespace N;
public class Svc
{
    public Svc() { }
    public void Reg(int a) { }
    public void Reg(int a, bool b) { }
}
public class Use
{
    private readonly Svc _svc = new Svc();
    public void Go()
    {
        _svc.Reg(1);
        _svc.Reg(1, true);
    }
}
""",
        })
        inv = {(m["ctx_receiver"], m["ctx_name"], m["ctx_argc"])
               for m in out["src/A.cs"].mentions if m["pred"] == "src__INVOKES"}
        assert ("N.Svc", "Reg", 1) in inv
        assert ("N.Svc", "Reg", 2) in inv

    def test_per_method_seen_callees_dedup(self):
        ctx = run({"src/A.cs": """namespace N;
public class C
{
    public void M() { Helper(); Helper(); Helper(); }
    private void Helper() { }
}
"""})["src/A.cs"]
        inv = [m for m in ctx.mentions if m["pred"] == "src__INVOKES"]
        assert len(inv) == 1


class TestOperatorsAndMethodGroups:
    SRC = {"src/A.cs": """namespace N;
public class Temp
{
    public static explicit operator int(Temp t) { return 0; }
    public static implicit operator Temp(int v) { return new Temp(); }
    public Temp() { }
}
public class Use
{
    public void Go()
    {
        var t = new Temp();
        int x = (int)t;
        var t2 = (Temp)5;
        System.Action a = Run;
        Helper(Step);
    }
    public void Run() { }
    private void Step() { }
    private void Helper(System.Action cb) { }
}
"""}

    def _resolved_invokes(self):
        out = run(self.SRC)
        ctx = out["src/A.cs"]
        # emulate stage-2 member resolution in-process
        from codetoneo4j_ray.stages.link import MemberIndex, _lookup_site

        idx = MemberIndex()
        for m in ctx.mentions:
            if m["pred"] == MEMBER_PRED:
                idx.members[(m["subj"], m["ctx_name"])].append(
                    (m["ctx_argc"], m["obj"])
                )
            elif m["pred"] == BASE_PRED:
                idx.bases[m["subj"]].append(m["obj"])
        resolved = set()
        for m in ctx.mentions:
            if m["pred"] != "src__INVOKES":
                continue
            key = _lookup_site(idx, m["ctx_kind"], m["ctx_receiver"],
                               m["ctx_name"], m["ctx_argc"])
            if key is not None:
                resolved.add((m["subj"], key))
        return resolved

    def test_explicit_cast_resolves_conversion_operator(self):
        resolved = self._resolved_invokes()
        # (int)t → Temp's explicit conversion (source-type lookup)
        assert ("repo:N.Use.Go()",
                "repo:N.Temp.explicit operator int(N.Temp)") in resolved
        # (Temp)5 → Temp's implicit conversion (target-type lookup)
        assert ("repo:N.Use.Go()",
                "repo:N.Temp.implicit operator N.Temp(int)") in resolved

    def test_method_groups_resolve(self):
        resolved = self._resolved_invokes()
        assert ("repo:N.Use.Go()", "repo:N.Use.Run()") in resolved
        assert ("repo:N.Use.Go()", "repo:N.Use.Step()") in resolved

    def test_operator_symbols_emitted(self):
        out = run(self.SRC)
        got = keys(out["src/A.cs"])
        assert "repo:N.Temp.explicit operator int(N.Temp)" in got
        assert "repo:N.Temp.implicit operator N.Temp(int)" in got


class TestUserDefinedOperators:
    SRC = {"src/A.cs": """namespace N;
public class Money
{
    public static Money operator +(Money a, Money b) { return a; }
    public static bool operator ==(Money a, Money b) { return true; }
    public static bool operator !=(Money a, Money b) { return false; }
    public static implicit operator Money(int cents) { return new Money(); }
    public Money() { }
}
public class Use
{
    public void Go()
    {
        var m1 = new Money();
        var m2 = new Money();
        var m3 = m1 + m2;
        bool eq = m1 == m2;
        Money m4 = 500;
        int plain = 1 + 2;
    }
}
"""}

    def _resolved(self):
        from codetoneo4j_ray.stages.link import MemberIndex, _lookup_site

        ctx = run(self.SRC)["src/A.cs"]
        idx = MemberIndex()
        for m in ctx.mentions:
            if m["pred"] == MEMBER_PRED:
                idx.members[(m["subj"], m["ctx_name"])].append(
                    (m["ctx_argc"], m["obj"])
                )
        out = set()
        for m in ctx.mentions:
            if m["pred"] == "src__INVOKES" and m["ctx_kind"]:
                key = _lookup_site(idx, m["ctx_kind"], m["ctx_receiver"],
                                   m["ctx_name"], m["ctx_argc"])
                if key is not None:
                    out.add(key)
        return out

    def test_binary_operator_use(self):
        resolved = self._resolved()
        assert "repo:N.Money.operator +(N.Money, N.Money)" in resolved
        assert "repo:N.Money.operator ==(N.Money, N.Money)" in resolved

    def test_implicit_conversion_on_initializer(self):
        assert "repo:N.Money.implicit operator N.Money(int)" in self._resolved()

    def test_builtin_operators_emit_nothing(self):
        # 1 + 2 → no user-defined op → no resolved key
        assert not any("int, int" in k for k in self._resolved())


class TestUnaryOperators:
    SRC = {"src/A.cs": """namespace N;
public class Flag
{
    public static Flag operator !(Flag f) { return f; }
    public static Flag operator ++(Flag f) { return f; }
    public Flag() { }
}
public class Use
{
    public void Go()
    {
        var f = new Flag();
        var g = !f;
        f++;
        int x = 5;
        bool b = !true;
        x++;
    }
}
"""}

    def _resolved(self):
        from codetoneo4j_ray.stages.link import MemberIndex, _lookup_site

        ctx = run(self.SRC)["src/A.cs"]
        idx = MemberIndex()
        for m in ctx.mentions:
            if m["pred"] == MEMBER_PRED:
                idx.members[(m["subj"], m["ctx_name"])].append(
                    (m["ctx_argc"], m["obj"])
                )
        out = set()
        for m in ctx.mentions:
            if m["pred"] == "src__INVOKES" and m["ctx_kind"]:
                key = _lookup_site(idx, m["ctx_kind"], m["ctx_receiver"],
                                   m["ctx_name"], m["ctx_argc"])
                if key is not None:
                    out.add(key)
        return out

    def test_unary_operators_resolve(self):
        resolved = self._resolved()
        assert "repo:N.Flag.operator !(N.Flag)" in resolved
        assert "repo:N.Flag.operator ++(N.Flag)" in resolved

    def test_builtin_unary_emits_nothing(self):
        assert not any("(int)" in k or "(bool)" in k for k in self._resolved())


def test_calls_inside_interpolated_strings():
    # Roslyn walks interpolation holes (DescendantNodes); so do we
    ctx = run({"src/A.cs": """namespace N;
public class C
{
    public void Go()
    {
        var msg = $"value: {Fmt(1)}, padded {Fmt(2),10:N2}";
    }
    public string Fmt(int x) { return ""; }
}
"""})["src/A.cs"]
    inv = [(m["ctx_receiver"], m["ctx_name"], m["ctx_argc"])
           for m in ctx.mentions if m["pred"] == "src__INVOKES"]
    assert ("N.C", "Fmt", 1) in inv


def test_cross_file_receiver_typing():
    # inherited + partial-fragment fields typed via the pass-A index
    out = run({
        "src/Base.cs": "namespace N;\npublic class Base { protected Svc _svc; }",
        "src/Svc.cs": "namespace N;\npublic class Svc { public void Ping() { } }",
        "src/P1.cs": "namespace N;\npublic partial class P : Base { private Svc _other; }",
        "src/P2.cs": """namespace N;
public partial class P
{
    public void Go()
    {
        _svc.Ping();
        _other.Hint();
    }
}
""",
    })
    inv = {(m["ctx_receiver"], m["ctx_name"])
           for m in out["src/P2.cs"].mentions if m["pred"] == "src__INVOKES"}
    assert ("N.Svc", "Ping") in inv   # inherited field, declared in Base.cs
    assert ("N.Svc", "Hint") in inv   # partial-fragment field from P1.cs


def test_chain_and_conversion_positions():
    out = run({"src/A.cs": """namespace N;
public class Client { public void Send() { } }
public class Svc { public Client Conn { get; set; } }
public class Money
{
    public static implicit operator Money(int cents) { return new Money(); }
    public Money() { }
}
public class Use
{
    private Svc _svc;
    private Money _m;
    public Money Go(int c)
    {
        _svc.Conn.Send();
        _m = 250;
        return c;
    }
}
"""})
    inv = {(m["ctx_kind"], m["ctx_receiver"], m["ctx_name"])
           for m in out["src/A.cs"].mentions if m["pred"] == "src__INVOKES"}
    # property-chain receiver resolved through the index
    assert ("call", "N.Client", "Send") in inv
    # assignment- and return-position implicit conversions (dedup to one)
    assert ("conv", "N.Money", "int") in inv


def test_event_forms():
    # field-like (multi-declarator), accessor-form, nullable event types
    ctx = run({"src/A.cs": """using System;
namespace N;
public class C
{
    public event EventHandler A, B;
    public event EventHandler Custom { add { } remove { } }
    public event EventHandler? MaybeNull;
}
"""})["src/A.cs"]
    got = keys(ctx)
    assert {"repo:N.C.A", "repo:N.C.B", "repo:N.C.Custom", "repo:N.C.MaybeNull"} <= got
    by_key = {s["key"]: s for s in ctx.symbols}
    assert by_key["repo:N.C.Custom"]["kind"] == "Event"
    deps = mentions(ctx, "src__DEPENDS_ON")
    # event type dep emitted per declarator (System.EventHandler resolved)
    assert ("repo:N.C", "src__DEPENDS_ON", "repo:System.EventHandler") in deps


def test_partial_fragment_merge_order_independent():
    # reversed fragment order: the method-bearing fragment arrives first,
    # the field-bearing fragment second — the pass-A index must MERGE
    # partial declarations (Roslyn semantics), not keep the first one
    out = run({
        "src/Svc.cs": "namespace N;\npublic class Svc { public void Ping() { } }",
        # zz_ prefix also defeats the deterministic file_key sort
        "src/A_Methods.cs": """namespace N;
public partial class P
{
    public void Go() { _other.Hint(); }
}
""",
        "src/zz_Fields.cs": "namespace N;\npublic partial class P { private Svc _other; }",
    })
    inv = {(m["ctx_receiver"], m["ctx_name"])
           for m in out["src/A_Methods.cs"].mentions
           if m["pred"] == "src__INVOKES"}
    assert ("N.Svc", "Hint") in inv


def test_where_constraints_keep_members():
    # a 'where' clause must not swallow the type body (or, on generic
    # methods, the following member)
    out = run({
        "src/R.cs": """namespace N;
public class Repo<T> where T : class
{
    public int Count { get; set; }
    public void Add(T item) { Helper(item); }
    public TResult Map<TResult>(int x) where TResult : new() { return Make(x); }
    public void After() { }
    void Helper(T item) { }
    TResult Make<TResult>(int x) where TResult : new() { return default; }
}
""",
    })
    names = {s["name"] for s in out["src/R.cs"].symbols}
    assert {"Count", "Add", "Map", "After", "Helper"} <= names
    inv = {m["ctx_name"] for m in out["src/R.cs"].mentions
           if m["pred"] == "src__INVOKES"}
    assert {"Helper", "Make"} <= inv


def test_generic_initializer_no_phantom_field():
    out = run({
        "src/F.cs": """namespace N;
public class C
{
    private readonly System.Collections.Generic.Dictionary<string, int> _map
        = new System.Collections.Generic.Dictionary<string, int>();
    int threshold = a < b ? 1 : 2;
    int other = 5;
}
""",
    })
    fields = [s["name"] for s in out["src/F.cs"].symbols
              if s["kind"] == "Field"]
    assert sorted(fields) == ["_map", "other", "threshold"]


def test_scan_body_rejects_sub_parser_for_other_tokens():
    """A shared sub-parser must be built over the same token list that
    scan_body scans; a mismatched one is refused, not silently used."""
    import pytest

    from codetoneo4j_ray.extractors.csharp.calls import scan_body
    from codetoneo4j_ray.extractors.csharp.parser import _Parser, parse_csharp

    code = parse_csharp("{ Foo(1); }").code
    other = parse_csharp("{ Bar(2); }").code
    sites = scan_body(code, (0, len(code)), {}, {}, sub=_Parser(code, {}))
    assert [s.name for s in sites] == ["Foo"]
    with pytest.raises(AssertionError):
        scan_body(code, (0, len(code)), {}, {}, sub=_Parser(other, {}))
