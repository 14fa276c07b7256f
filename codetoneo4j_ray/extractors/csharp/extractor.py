"""C# symbol / mention emission.

Pass A  ``skim_file``    → per-file TypeInfo + global-using rows for the
                           repo-wide type index (no content shuffle: the
                           index is metadata, broadcast to pass B).
Pass B  ``extract_csharp`` → symbols + mentions with final keys, using the
                           index for Roslyn-equivalent name resolution.

Semantics ported from RoslynSymbolProcessor.cs / MemberDependencyExtractor.cs
/ SymbolMapper.cs (file:line cites inline).
"""

from __future__ import annotations

from codetoneo4j_ray.extractors import accessibility as acc
from codetoneo4j_ray.extractors.base import FileContext
from codetoneo4j_ray.extractors.csharp.calls import CallSite, scan_body
from codetoneo4j_ray.extractors.csharp.parser import (
    CsFileParse,
    CsMember,
    CsTypeDecl,
    _Parser,
    parse_csharp,
)
from codetoneo4j_ray.extractors.csharp.types import (
    RepoTypeIndex,
    Resolver,
    ResolutionScope,
    TypeRef,
)
from codetoneo4j_ray.schema import CONTAINS, DEPENDS_ON, INVOKES

BASE_PRED = "__BASE__"      # internal rows: (type display) → (resolved base display)
MEMBER_PRED = "__MEMBER__"  # internal rows: (type display, name, argc) → member key
# Both are consumed by stage-2 linking and removed before materialize.


# ---------------------------------------------------------------------------
# Pass A: type-index skim
# ---------------------------------------------------------------------------


def skim_file(repo: str, file_key: str, content: str) -> tuple[list[dict], list[dict]]:
    """Returns (type_rows, global_using_rows) for the repo type index."""
    try:
        parsed = parse_csharp(content)
    except RecursionError:
        return [], []
    type_rows: list[dict] = []

    def walk(decl: CsTypeDecl, containing_names: tuple[str, ...]):
        full = _full_name(decl.namespace, containing_names, decl.name)
        members = "\x1e".join(
            f"{m.name}\x1d{m.type.written()}"
            for m in decl.members
            if m.kind in ("field", "property", "event") and m.type is not None
        )
        type_rows.append(
            {
                "repo": repo,
                "full_name": full,
                "arity": len(decl.type_params),
                "is_value": decl.kind in ("struct", "enum", "record_struct"),
                "kind": decl.kind,
                "bases": ";".join(b.written() for b in decl.bases),
                "type_params": ";".join(decl.type_params),
                "members": members,
            }
        )
        for n in decl.nested:
            walk(n, containing_names + (decl.name,))

    for t in parsed.types:
        if not t.containing:
            walk(t, ())
    using_rows = [
        {"repo": repo, "file_key": file_key, "text": u.text, "is_static": u.is_static,
         "alias": u.alias or ""}
        for u in parsed.usings
        if u.is_global
    ]
    return type_rows, using_rows


def parse_member_types(blob: str | None) -> dict:
    if not blob:
        return {}
    out = {}
    for rec in blob.split("\x1e"):
        name, _sep, text = rec.partition("\x1d")
        if name and text:
            out[name] = text
    return out


def _full_name(ns: str, containing: tuple[str, ...], name: str) -> str:
    parts = ([ns] if ns else []) + list(containing) + [name]
    return ".".join(parts)


# ---------------------------------------------------------------------------
# Pass B: emission
# ---------------------------------------------------------------------------


def extract_csharp(ctx: FileContext, min_accessibility: str, index: RepoTypeIndex) -> None:
    try:
        parsed = parse_csharp(ctx.content)
    except RecursionError:
        return
    em = _Emitter(ctx, min_accessibility, index, parsed)
    em.run()


class _Emitter:
    def __init__(self, ctx, min_acc, index, parsed: CsFileParse):
        self.ctx = ctx
        self.min_acc = min_acc
        self.min_lv = acc.level(min_acc)
        self.index = index
        self.parsed = parsed
        # one body sub-parser per file, shared across member scans
        self._body_sub = _Parser(parsed.code, {})
        self.resolver = Resolver(index)
        own_usings = [u.text for u in parsed.usings if not u.is_static and u.alias is None]
        global_other = [
            text for fk, text in index.global_usings
        ]
        self.usings = tuple(dict.fromkeys(own_usings + global_other))
        self.aliases = {
            u.alias: u.text for u in parsed.usings if u.alias is not None
        }
        # CSharpHandler.cs:38-43: file namespace = first type's containing ns
        self.file_namespace: str | None = None
        for t in parsed.types:
            self.file_namespace = t.namespace or "<global namespace>"
            break
        if self.file_namespace is not None:
            self.ctx.file_namespace_override = (
                self.file_namespace if self.file_namespace != "<global namespace>" else None
            )

    # -------------------------------------------------------------
    def run(self) -> None:
        self._emit_using_dependencies()
        for t in self.parsed.types:
            if not t.containing:
                self._emit_type(t, parent_display=None)

    # -- usings (RoslynSymbolProcessor.cs:46-104) ------------------
    def _emit_using_dependencies(self) -> None:
        seen: set[str] = set()
        file_key = self.ctx.file_key
        rk = self.ctx.repo_key
        for u in self.parsed.usings:
            dep = self._using_dep_key(u.text)
            if dep is None:
                continue
            key = f"{rk}:{dep}"
            if key not in seen:
                seen.add(key)
                self.ctx.add_mention(file_key, DEPENDS_ON, key)
        # global usings from OTHER files of the repo
        # (RoslynSymbolProcessor.cs:68-104; same-file trees skipped)
        for src_fk, text in self.index.global_usings:
            if src_fk == file_key:
                continue
            dep = self._using_dep_key(text)
            if dep is None:
                continue
            key = f"{rk}:{dep}"
            if key not in seen:
                seen.add(key)
                self.ctx.add_mention(file_key, DEPENDS_ON, key)

    def _using_dep_key(self, text: str) -> str | None:
        """DEPENDS_ON target display for a using, or None when internal.

        AddDependsOnIfExternal: namespaces/types of the *current assembly*
        (≈ declared in this repo) produce no edge; external ones produce
        ``repo:{display}`` (MemberDependencyExtractor.cs:42-75).
        """
        if self.index.has_namespace(text):
            return None
        # using static of an internal type / alias target
        scope = self._scope("", (), frozenset())
        parts = text.replace("::", ".").split(".")
        r = self.resolver.resolve_named(parts, 0, scope)
        if r.found and r.info is not None:
            return None  # internal type (using static)
        return text

    # -- scopes ----------------------------------------------------
    def _scope(self, ns: str, containing: tuple[str, ...], tparams: frozenset[str]) -> ResolutionScope:
        return ResolutionScope(ns, self.usings, self.aliases, tparams, containing)

    # -- types -----------------------------------------------------
    def _emit_type(self, decl: CsTypeDecl, parent_display: str | None) -> None:
        # DelegateDeclarationSyntax is not BaseTypeDeclarationSyntax → the
        # reference's flat type walk skips top-level delegates entirely
        # (RoslynSymbolProcessor.cs:106); nested ones surface as members.
        if decl.kind == "delegate" and parent_display is None:
            return

        ns = decl.namespace
        containing_full = tuple(
            _full_name(ns, decl.containing[:i], decl.containing[i])
            for i in range(len(decl.containing) - 1, -1, -1)
        )
        outer_tparams = self._containing_type_params(decl)
        tparams = frozenset(decl.type_params) | outer_tparams
        scope = self._scope(ns, containing_full, tparams)

        display = self._type_display(decl, parent_display)
        declared = _type_accessibility(decl)
        # gate: RoslynSymbolProcessor.cs:117-121
        if not (acc.level(declared) >= self.min_lv or acc.level(declared) == acc.NOT_APPLICABLE):
            return

        key = f"{self.ctx.repo_key}:{display}"
        type_ns = ns if ns else "<global namespace>"
        self.ctx.add_symbol(
            key,
            decl.name,
            "NamedType",
            decl.name,
            f"global::{display}",
            decl.start_line,
            decl.end_line,
            accessibility=declared,
            documentation=_doc_xml(decl.doc, f"T:{_doc_id_type(decl)}"),
            comments=decl.comments,
            namespace=type_ns,
        )
        # resolved base-type info for stage-2 member lookup (internal rows)
        for b in decl.bases:
            r = self.resolver.display(b, scope)
            if r.found:
                self.ctx.add_mention(display, BASE_PRED, r.display)

        if decl.kind == "enum":
            for m in decl.members:
                self._emit_enum_member(decl, m, key, display)
            return

        member_types = self._member_type_map(decl, scope)
        for m in decl.members:
            self._emit_member(decl, m, key, display, scope, member_types)
        for n in decl.nested:
            self._emit_nested(decl, n, key, display)

    def _containing_type_params(self, decl: CsTypeDecl) -> frozenset[str]:
        params: set[str] = set()
        chain: list[CsTypeDecl] = []

        def find(types: list[CsTypeDecl], path: tuple[str, ...]) -> None:
            if not path:
                return
            for t in types:
                if t.name == path[0]:
                    chain.append(t)
                    find(t.nested, path[1:])
                    return

        find([t for t in self.parsed.types if not t.containing], decl.containing)
        for t in chain:
            params.update(t.type_params)
        return frozenset(params)

    def _type_display(self, decl: CsTypeDecl, parent_display: str | None) -> str:
        own = decl.name + (f"<{', '.join(decl.type_params)}>" if decl.type_params else "")
        if parent_display is not None:
            return f"{parent_display}.{own}"
        return f"{decl.namespace}.{own}" if decl.namespace else own

    def _member_type_map(self, decl: CsTypeDecl,
                         scope: ResolutionScope) -> dict[str, TypeRef]:
        """Receiver typing map: repo-wide (partial-class fragments and
        internal base classes via the pass-A index), same-file declarations
        winning on name clashes."""
        out: dict[str, TypeRef] = {}
        # walk internal base chain (depth-capped), bases first so closer
        # declarations override
        chain: list = []
        info = self.index.lookup(
            _full_name(decl.namespace, decl.containing, decl.name),
            len(decl.type_params),
        )
        seen = set()
        frontier = [info] if info is not None else []
        depth = 0
        while frontier and depth < 4:
            nxt = []
            for ti in frontier:
                if ti is None or ti.full_name in seen:
                    continue
                seen.add(ti.full_name)
                chain.append(ti)
                for btext in ti.bases:
                    tref = _parse_type_text(btext)
                    if tref is None or tref.form != "named":
                        continue
                    r = self.resolver.resolve_named(
                        tref.parts, len(tref.args), scope
                    )
                    if r.info is not None:
                        nxt.append(r.info)
            frontier = nxt
            depth += 1
        for ti in reversed(chain):
            for name, text in ti.member_types.items():
                tref = _parse_type_text(text)
                if tref is not None:
                    out[name] = tref
        for m in decl.members:
            if m.kind in ("field", "property", "event") and m.type is not None:
                out[m.name] = m.type
        return out

    # -- enum members (RoslynSymbolProcessor.cs:152-175) ----------
    def _emit_enum_member(self, decl, m: CsMember, type_key: str, type_display: str) -> None:
        # enum members are always emitted: Roslyn reports them as Public
        # and the AccessibilityFilter never gates Public members
        mkey = f"{self.ctx.repo_key}:{type_display}.{m.name}"
        self.ctx.add_symbol(
            mkey, m.name, "Field", m.name, m.name,
            m.start_line, m.end_line,
            accessibility="Public",
            documentation=_doc_xml(m.doc, f"F:{_doc_id_type(decl)}.{m.name}"),
            comments=m.comments,
            namespace=self.file_namespace,
        )
        self.ctx.add_mention(type_key, CONTAINS, mkey)

    # -- nested types as members (tds.Members walk) ---------------
    def _emit_nested(self, outer: CsTypeDecl, nested: CsTypeDecl, outer_key: str, outer_display: str) -> None:
        declared = _type_accessibility(nested)
        below = acc.is_below_minimum(declared, self.min_acc)
        display = self._type_display(nested, outer_display)
        key = f"{self.ctx.repo_key}:{display}"
        if not below:
            # member-position record for the nested type (ProcessMemberSymbol)
            self.ctx.add_symbol(
                key, nested.name, "NamedType", nested.name, f"global::{display}",
                nested.start_line, nested.end_line,
                accessibility=declared,
                documentation=_doc_xml(nested.doc, f"T:{_doc_id_type(nested)}"),
                comments=nested.comments,
                namespace=self.file_namespace,
            )
            self.ctx.add_mention(outer_key, CONTAINS, key)
        # the flat DescendantNodes walk also emits it as a type of its own
        self._emit_type(nested, parent_display=outer_display)

    # -- members ---------------------------------------------------
    def _emit_member(
        self,
        decl: CsTypeDecl,
        m: CsMember,
        type_key: str,
        type_display: str,
        scope: ResolutionScope,
        member_types: dict[str, TypeRef],
    ) -> None:
        declared = _member_accessibility(decl, m)
        if acc.is_below_minimum(declared, self.min_acc, m.explicit_iface is not None):
            return
        mscope = ResolutionScope(
            scope.namespace, scope.usings, scope.aliases,
            scope.type_params | frozenset(m.type_params), scope.containing,
        )
        rk = self.ctx.repo_key
        kind, name, display_member = self._member_display(decl, m, type_display, mscope)
        key = f"{rk}:{display_member}"
        self.ctx.add_symbol(
            key, name, kind, name,
            _member_fqn(m, name),
            m.start_line, m.end_line,
            accessibility=declared,
            documentation=_doc_xml(m.doc, _member_doc_id(decl, m, mscope, self.resolver)),
            comments=m.comments,
            namespace=self.file_namespace,
        )
        self.ctx.add_mention(type_key, CONTAINS, key)
        if m.kind in ("method", "ctor", "operator", "conversion", "dtor"):
            self.ctx.add_deferred_mention(
                type_display, MEMBER_PRED, "member", m.name, "",
                len(m.params or []),
            )
            self.ctx.mentions[-1]["obj"] = key

        # DEPENDS_ON from member types (MemberDependencyExtractor.cs:233-303)
        if m.kind in ("method", "ctor", "operator", "conversion", "dtor"):
            for p in m.params or []:
                if p.type is None:
                    continue
                r = self.resolver.display(p.type, mscope)
                if r.found:  # IErrorTypeSymbol params are skipped
                    self.ctx.add_mention(type_key, DEPENDS_ON, f"{rk}:{r.display}")
            if m.kind != "ctor" and m.type is not None:
                r = self.resolver.display(m.type, mscope)
                if r.found:
                    self.ctx.add_mention(type_key, DEPENDS_ON, f"{rk}:{r.display}")
        elif m.kind in ("property", "indexer"):
            if m.type is not None:
                r = self.resolver.display(m.type, mscope)
                if r.found:
                    self.ctx.add_mention(type_key, DEPENDS_ON, f"{rk}:{r.display}")
        elif m.kind == "field":
            if m.type is not None:
                r = self.resolver.display(m.type, mscope)
                if r.found:
                    self.ctx.add_mention(type_key, DEPENDS_ON, f"{rk}:{r.display}")
        elif m.kind == "event":
            # events: Nullable<T> unwrapped, emitted even if unresolved
            # (ExtractEventDependencies has no error-type check)
            t = m.type
            if t is not None:
                if t.form == "nullable":
                    t = t.inner
                elif t.form == "named" and t.parts[-1] == "Nullable" and len(t.args) == 1:
                    t = t.args[0]
                r = self.resolver.display(t, mscope)
                self.ctx.add_mention(type_key, DEPENDS_ON, f"{rk}:{r.display}")

        # INVOKES (ExtractMethodExecutes: BaseMethodDeclarationSyntax only)
        if m.kind in ("method", "ctor", "operator", "conversion", "dtor") and m.body:
            self._emit_invokes(decl, m, key, type_display, mscope, member_types)

    def _emit_invokes(self, decl, m: CsMember, member_key: str, type_display: str,
                      scope: ResolutionScope, member_types: dict[str, TypeRef]) -> None:
        params = {p.name: p.type for p in (m.params or []) if p.type is not None and p.name}
        method_names = frozenset(
            mm.name for mm in decl.members if mm.kind == "method"
        )
        ret = m.type if m.kind == "method" else None
        sites = scan_body(self.parsed.code, m.body, params, member_types,
                          method_names, ret, sub=self._body_sub)
        seen: set[tuple] = set()  # per-method seenCallees dedup
        for s in sites:
            rec = self._site_receiver_display(s, type_display, scope)
            if rec is None:
                continue
            receiver_display, ctx_kind = rec
            name = s.name
            if ctx_kind in ("cast", "conv", "binop", "unop"):
                name = getattr(self, "_cast_source", "")
            sig = (ctx_kind, receiver_display, name, s.argc)
            if sig in seen:
                continue
            seen.add(sig)
            self.ctx.add_deferred_mention(
                member_key, INVOKES, ctx_kind,
                name, receiver_display, s.argc,
                scope.namespace, ";".join(scope.usings),
            )

    def _site_receiver_display(self, s: CallSite, type_display: str,
                               scope: ResolutionScope) -> tuple[str, str] | None:
        if s.kind == "ctor":
            r = self.resolver.display(s.receiver, scope)
            return (r.display, "ctor")
        if s.kind == "cast":
            r = self.resolver.display(s.receiver, scope)
            src = self.resolver.display(s.source, scope) if s.source else None
            src_ok = src is not None and src.found
            if not r.found and not src_ok:
                return None
            # ctx_name carries the source-type display (conversion ops may
            # be declared on either side); see _lookup_site
            self._cast_source = src.display if src_ok else ""
            return (r.display if r.found else "", "cast")
        if s.kind == "mgroup":
            r = self.resolver.display(s.receiver, scope)
            return (r.display, "mgroup") if r.found else None
        if s.kind == "unop":
            r = self.resolver.display(s.receiver, scope)
            if not r.found or r.info is None:
                return None  # only internal types can declare the operator
            self._cast_source = s.name
            return (r.display, "unop")
        if s.kind in ("conv", "binop"):
            left = self.resolver.display(s.receiver, scope)
            right = self.resolver.display(s.source, scope) if s.source else None
            # only when an INTERNAL type is involved can a user-defined
            # operator/conversion exist in this repo
            internal = (left.found and left.info is not None) or (
                right is not None and right.found and right.info is not None
            )
            if not internal or right is None:
                return None
            if s.kind == "conv":
                self._cast_source = right.display
                return (left.display, "conv")
            self._cast_source = f"{s.name}\x1f{right.display}"
            return (left.display, "binop")
        if s.kind == "call_base":
            return (type_display, "call_base")
        if s.receiver is not None:
            r = self.resolver.display(s.receiver, scope)
            if not r.found:
                return None
            # walk a property/field chain off the typed head through the
            # index's member-type map (x.Prop.Sub.M() → type of Sub)
            info = r.info
            display = r.display
            for member in s.receiver_chain:
                if info is None:
                    return None
                text = info.member_types.get(member)
                if text is None:
                    return None
                tref = _parse_type_text(text)
                if tref is None:
                    return None
                r2 = self.resolver.display(tref, scope)
                if not r2.found:
                    return None
                info = r2.info
                display = r2.display
            return (display, "call")
        if s.receiver_chain:
            r = self.resolver.resolve_named(list(s.receiver_chain), 0, scope)
            return (r.display, "call") if r.found else None
        return (type_display, "call")  # implicit this

    # -- display building -----------------------------------------
    def _member_display(self, decl: CsTypeDecl, m: CsMember, type_display: str,
                        scope: ResolutionScope) -> tuple[str, str, str]:
        """(kind, name, ErrorMessageFormat display) for a member."""
        rz = self.resolver

        def params_str(params) -> str:
            out = []
            for p in params or []:
                mods = [x for x in p.modifiers if x in ("ref", "out", "in", "params")]
                r = rz.display(p.type, scope) if p.type is not None else None
                txt = r.display if r is not None else "?"
                out.append((" ".join(mods) + " " + txt).strip())
            return ", ".join(out)

        if m.kind == "method":
            tp = f"<{', '.join(m.type_params)}>" if m.type_params else ""
            prefix = f"{m.explicit_iface}." if m.explicit_iface else ""
            disp = f"{type_display}.{prefix}{m.name}{tp}({params_str(m.params)})"
            name = f"{m.explicit_iface}.{m.name}" if m.explicit_iface else m.name
            return "Method", name, disp
        if m.kind == "ctor":
            return "Method", ".ctor", f"{type_display}.{decl.name}({params_str(m.params)})"
        if m.kind == "dtor":
            return "Method", "Finalize", f"{type_display}.~{decl.name}()"
        if m.kind == "operator":
            return ("Method", m.name,
                    f"{type_display}.operator {m.op_token}({params_str(m.params)})")
        if m.kind == "conversion":
            target = rz.display(m.type, scope).display if m.type else "?"
            word = "implicit" if m.name == "op_Implicit" else "explicit"
            return ("Method", m.name,
                    f"{type_display}.{word} operator {target}({params_str(m.params)})")
        if m.kind == "indexer":
            return "Property", "this[]", f"{type_display}.this[{params_str(m.params)}]"
        if m.kind == "property":
            prefix = f"{m.explicit_iface}." if m.explicit_iface else ""
            name = f"{m.explicit_iface}.{m.name}" if m.explicit_iface else m.name
            return "Property", name, f"{type_display}.{prefix}{m.name}"
        if m.kind == "event":
            return "Event", m.name, f"{type_display}.{m.name}"
        # field
        return "Field", m.name, f"{type_display}.{m.name}"


# ---------------------------------------------------------------------------
# accessibility defaults (C# language rules, per Roslyn DeclaredAccessibility)
# ---------------------------------------------------------------------------


def _explicit_accessibility(mods: list[str]) -> str | None:
    has_public = "public" in mods
    has_private = "private" in mods
    has_protected = "protected" in mods
    has_internal = "internal" in mods
    if has_public:
        return "Public"
    if has_protected and has_internal:
        return "ProtectedOrInternal"
    if has_private and has_protected:
        return "ProtectedAndInternal"
    if has_protected:
        return "Protected"
    if has_internal:
        return "Internal"
    if has_private:
        return "Private"
    return None


def _type_accessibility(decl: CsTypeDecl) -> str:
    explicit = _explicit_accessibility(decl.modifiers)
    if explicit:
        return explicit
    return "Private" if decl.containing else "Internal"


def _member_accessibility(decl: CsTypeDecl, m: CsMember) -> str:
    if m.explicit_iface is not None:
        return "Private"
    explicit = _explicit_accessibility(m.modifiers)
    if explicit:
        return explicit
    if decl.kind == "interface":
        return "Public"
    if m.kind == "dtor":
        return "Protected"
    if m.kind in ("operator", "conversion"):
        return "Public"  # operators must be public
    if m.kind == "ctor" and "static" in m.modifiers:
        return "Private"
    return "Private"


# ---------------------------------------------------------------------------
# documentation XML (GetDocumentationCommentXml analog)
# ---------------------------------------------------------------------------


_TYPE_TEXT_CACHE: dict[str, "TypeRef | None"] = {}


def _parse_type_text(text: str):
    """Parse a written type text into a TypeRef (memoized)."""
    if text in _TYPE_TEXT_CACHE:
        return _TYPE_TEXT_CACHE[text]
    from codetoneo4j_ray.extractors.csharp.lexer import tokenize
    from codetoneo4j_ray.extractors.csharp.parser import _Parser, parse_type_ref

    toks = [t for t in tokenize(text) if t.kind not in ("comment", "doc")]
    p = _Parser(toks, {})
    tref = parse_type_ref(p)
    _TYPE_TEXT_CACHE[text] = tref
    return tref


def _doc_xml(doc: str | None, doc_id: str) -> str | None:
    if doc is None or not doc.strip():
        return None
    return f'<member name="{doc_id}">\n{doc}\n</member>'


def _doc_id_type(decl: CsTypeDecl) -> str:
    full = _full_name(decl.namespace, decl.containing, decl.name)
    if decl.type_params:
        full += f"`{len(decl.type_params)}"
    return full


def _member_doc_id(decl: CsTypeDecl, m: CsMember, scope, resolver) -> str:
    base = f"{_doc_id_type(decl)}.{m.name.replace('.ctor', '#ctor')}"
    prefix = {"method": "M", "ctor": "M", "dtor": "M", "operator": "M",
              "conversion": "M", "property": "P", "indexer": "P",
              "field": "F", "event": "E", "enum_member": "F"}.get(m.kind, "M")
    if m.kind in ("method", "ctor", "operator", "conversion") and m.params:
        metas = []
        for p in m.params:
            r = resolver.display(p.type, scope) if p.type is not None else None
            metas.append((r.fqn_meta or r.display) if r is not None else "?")
        base += "(" + ",".join(metas) + ")"
    return f"{prefix}:{base}"


def _member_fqn(m: CsMember, name: str) -> str:
    """FullyQualifiedFormat has no member options → members display as their
    bare name (+ method type params)."""
    if m.kind == "method" and m.type_params:
        return f"{name}<{', '.join(m.type_params)}>"
    return name
