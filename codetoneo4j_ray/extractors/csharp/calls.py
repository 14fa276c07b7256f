"""Call-site scanning over captured method-body token ranges.

Approximates MemberDependencyExtractor.ExtractMethodExecutes
(``Technologies/DotNet/CSharp/MemberDependencyExtractor.cs:77-181``):
invocations, object creations, method groups, explicit casts, binary and
unary operator uses, and initializer implicit conversions, with
per-method callee dedup (``:90,218-230``). Residual deltas are listed in
``__init__.py``. A flat token scan naturally attributes lambda-body
calls to the containing method, like Roslyn's DescendantNodes walk.
"""

from __future__ import annotations

from dataclasses import dataclass

from codetoneo4j_ray.extractors.csharp.lexer import Token
from codetoneo4j_ray.extractors.csharp.parser import PREDEFINED, _Parser, parse_type_ref
from codetoneo4j_ray.extractors.csharp.types import TypeRef

_SKIP_PAREN_KEYWORDS = frozenset({"nameof", "typeof", "sizeof", "default"})
_NOT_CALLS = frozenset(
    "if while for foreach switch catch using lock return throw when is as in "
    "do else yield await case fixed stackalloc checked unchecked new var "
    "true false null this base out ref get set init add remove value where "
    "select from let join orderby group by on equals into ascending descending".split()
)
_STMT_BOUNDARY = frozenset({";", "{", "}", "(", ","})


@dataclass
class CallSite:
    kind: str                    # 'call' | 'call_base' | 'ctor' | 'cast' | 'mgroup'
    name: str                    # method name, or '' for ctor/cast
    receiver: TypeRef | None     # receiver/constructed/cast-target type
    receiver_chain: tuple[str, ...]  # raw chain when receiver type unknown
    argc: int
    line: int
    source: TypeRef | None = None  # cast operand type when known (conversion
                                   # operators may live on the source type)


def scan_body(
    code: list[Token],
    span: tuple[int, int],
    param_types: dict[str, TypeRef],
    member_types: dict[str, TypeRef],
    method_names: frozenset[str] = frozenset(),
    return_type: TypeRef | None = None,
    sub: "_Parser | None" = None,
) -> list[CallSite]:
    """Scan one body token range for call sites.

    param_types: method parameter name → type; member_types: containing
    type's field/property name → type; method_names: the containing
    type's method names (same-file knowledge — the cross-file
    partial-class slice is a documented recall delta), used to spot
    method-group references (MemberDependencyExtractor.cs:152-168).
    """
    start, end = span
    locals_map: dict[str, TypeRef] = dict(param_types)
    sites: list[CallSite] = []
    # leading_trivia falls back to [] past the lead list's end, so the
    # trivia-free sub-parser passes an empty lead list; callers scanning
    # many members of one file pass a shared ``sub`` so the parser's
    # per-file value table is built once, not once per member
    # a parser built for another token list would silently scan the
    # wrong stream: only ``sub.i`` is reset per construct
    assert sub is None or sub.code is code, (
        "scan_body: shared sub-parser built for other tokens")
    if sub is None:
        sub = _Parser(code, {})
    i = start
    if i < end and code[i].value == "{":
        i += 1
        end -= 1  # exclude closing brace
    while i < end:
        t = code[i]
        v = t.value

        # skip nameof(...) / typeof(...) / sizeof(...) / default(...)
        if t.kind == "id" and v in _SKIP_PAREN_KEYWORDS and _peek(code, i + 1) == "(":
            i = _skip_balanced_from(code, i + 1, end)
            continue

        # foreach (Type x in ...)
        if t.kind == "id" and v == "foreach" and _peek(code, i + 1) == "(":
            sub.i = i + 2
            tref = parse_type_ref(sub)
            if tref is not None and sub.tok() and sub.tok().kind == "id":
                name = sub.advance().value
                if sub.val() == "in" and not (len(tref.parts) == 1 and tref.parts[0] == "var"):
                    locals_map[name] = tref
            i += 1
            continue

        # new Type(...) / new Type { ... }
        if t.kind == "id" and v == "new":
            sub.i = i + 1
            tref = parse_type_ref(sub)
            if tref is None or tref.form == "array":
                i += 1
                continue
            j = sub.i
            nxt = _peek(code, j)
            if nxt == "(":
                argc = _count_args(code, j, end)
                sites.append(CallSite("ctor", "", tref, (), argc, t.line))
                # var x = new T(...) pattern → register local
                _maybe_register_new_local(code, i, tref, locals_map)
                i = _skip_balanced_from(code, j, end)
                continue
            if nxt == "{":
                sites.append(CallSite("ctor", "", tref, (), 0, t.line))
                _maybe_register_new_local(code, i, tref, locals_map)
                i = j
                continue
            if nxt == "[":
                i = j  # array creation with sizes
                continue
            i = j if j > i + 1 else i + 1
            continue

        # explicit cast: '(' Type ')' expr — conversion-operator INVOKES
        # candidate (MemberDependencyExtractor.cs:126-133); stage 2 keeps
        # it only when the target type declares a conversion operator.
        if v == "(":
            prev = code[i - 1].value if i - 1 > start else ""
            if prev in ("=", "(", ",", "return", "=>", "+", "-", "*", "/") or i == start + 1:
                close = _skip_balanced_from(code, i, end) - 1
                sub.i = i + 1
                tref = parse_type_ref(sub)
                after = _peek(code, close + 1)
                after_kind = code[close + 1].kind if close + 1 < end else ""
                is_predefined = (
                    tref is not None and tref.form == "named"
                    and len(tref.parts) == 1 and not tref.args
                    and tref.parts[0] in PREDEFINED
                )
                plausible_type = tref is not None and tref.form == "named" and (
                    is_predefined
                    or tref.parts[0][:1].isupper()
                    or len(tref.parts) > 1
                    or bool(tref.args)
                )
                if (
                    plausible_type
                    and sub.i == close
                    and (after_kind in ("id", "str", "num") or after == "(")
                ):
                    source = None
                    if after_kind == "id":
                        source = (
                            locals_map.get(code[close + 1].value)
                            or member_types.get(code[close + 1].value)
                        )
                    if not is_predefined or source is not None:
                        sites.append(
                            CallSite("cast", "", tref, (), -1, t.line, source)
                        )

        # local declaration:  Type name = / Type name ;
        if (
            t.kind == "id"
            and v not in _NOT_CALLS
            and (i == start + 1 or code[i - 1].value in _STMT_BOUNDARY)
        ):
            sub.i = i
            tref = parse_type_ref(sub)
            if (
                tref is not None
                and sub.i > i
                and sub.tok() is not None
                and sub.tok().kind == "id"
                and sub.val(1) in ("=", ";")
                and sub.val() not in _NOT_CALLS
            ):
                name = sub.tok().value
                if not (tref.form == "named" and tref.parts == ["var"] and not tref.args):
                    locals_map[name] = tref
                    # implicit conversion candidate on the initializer
                    # (EqualsValueClauseSyntax — MemberDependencyExtractor.cs
                    # :172-181,236-246): Type x = <known-typed expr>;
                    if sub.val(1) == "=":
                        src = _expr_head_type(code, sub.i + 2, end, locals_map,
                                              member_types)
                        if src is not None and src.written() != tref.written():
                            sites.append(
                                CallSite("conv", "", tref, (), -1, t.line, src)
                            )
                            i = sub.i + 3  # skip single-token initializer
                            continue
                    i = sub.i  # continue scanning from the declared name
                    continue

        # invocation: [chain .] Name [<targs>] ( args )
        if t.kind == "id" and v not in _NOT_CALLS:
            j = i + 1
            # optional generic args
            if _peek(code, j) == "<":
                sub.i = j
                if sub.val_is_generic_ok():
                    gspan_end = _matching_angle(code, j, end)
                    if gspan_end is not None and _peek(code, gspan_end + 1) == "(":
                        j = gspan_end + 1
            if _peek(code, j) == "(":
                site = _build_call(code, i, j, end, locals_map, member_types, start)
                if site is not None:
                    sites.append(site)
                i += 1
                continue
            # method group: a method name used as a value, not invoked
            # (delegate assignment / argument / return) —
            # MemberDependencyExtractor.cs:152-168. argc=-2 = any overload;
            # the 'mgroup' kind is dropped in stage 2 when no method
            # matches (a property access resolves to no IMethodSymbol).
            prev = code[i - 1].value if i - 1 >= start else ""
            nxt = _peek(code, i + 1)
            _VALUE_POS = ("=", "(", ",", "return", "=>")
            if nxt in (")", ",", ";"):
                if prev in _VALUE_POS and v in method_names:
                    sites.append(CallSite("call", v, None, (), -2, t.line))
                elif prev in (".", "?.") and i - 2 >= start:
                    recv_t = code[i - 2]
                    before = code[i - 3].value if i - 3 >= start else ""
                    if recv_t.kind == "id" and before in _VALUE_POS:
                        tref = (
                            locals_map.get(recv_t.value)
                            or member_types.get(recv_t.value)
                        )
                        if tref is not None:
                            sites.append(CallSite("mgroup", v, tref, (), -2, t.line))

        # implicit conversion at return position: 'return <typed single>;'
        if (
            t.kind == "id" and v == "return" and return_type is not None
        ):
            src = _expr_head_type(code, i + 1, end, locals_map, member_types)
            if src is not None and src.written() != return_type.written():
                sites.append(CallSite("conv", "", return_type, (), -1, t.line, src))

        # implicit conversion at assignment: 'target = <typed single>;'
        # ('=' is a lone token: '=='/'=>'/'+=' lex as single other tokens)
        if t.kind == "punct" and v == "=" and i - 1 > start and i + 1 < end:
            tgt_t = code[i - 1]
            if tgt_t.kind == "id":
                target = locals_map.get(tgt_t.value) or member_types.get(tgt_t.value)
                src = _expr_head_type(code, i + 1, end, locals_map, member_types)
                if (
                    target is not None
                    and src is not None
                    and src.written() != target.written()
                ):
                    sites.append(CallSite("conv", "", target, (), -1, t.line, src))

        # user-defined unary operator use: op <typed operand> / <typed>++/--
        # (Prefix/PostfixUnaryExpressionSyntax — MemberDependencyExtractor
        # .cs:135-151); stage 2 keeps it only for user-defined operators.
        if t.kind == "punct" and v in _UNOP_PREFIX and i + 1 < end:
            prev = code[i - 1].value if i - 1 > start else "("
            if prev in _PREFIX_BOUNDARY:
                ot = _operand_type(code, i + 1, locals_map, member_types)
                if ot is not None:
                    sites.append(CallSite("unop", v, ot, (), -1, t.line))
        if t.kind == "punct" and v in ("++", "--") and i - 1 > start:
            ot = _operand_type(code, i - 1, locals_map, member_types)
            if ot is not None:
                sites.append(CallSite("unop", v, ot, (), -1, t.line))

        # user-defined binary operator use: <typed operand> op <typed operand>
        # (BinaryExpressionSyntax — MemberDependencyExtractor.cs:110-124);
        # stage 2 keeps it only when either operand type declares the op.
        if (
            t.kind == "punct"
            and v in _BINOPS
            and i - 1 > start
            and i + 1 < end
        ):
            lt = _operand_type(code, i - 1, locals_map, member_types)
            rt = _operand_type(code, i + 1, locals_map, member_types)
            if lt is not None and rt is not None:
                sites.append(CallSite("binop", v, lt, (), -1, t.line, rt))
        i += 1
    return sites


_BINOPS = ("+", "-", "*", "/", "%", "==", "!=")
_UNOP_PREFIX = ("!", "~", "-", "+", "++", "--")
_PREFIX_BOUNDARY = frozenset(
    ("=", "(", ",", ";", "return", "=>", "&&", "||", "==", "!=", "{", "[")
)


def _expr_head_type(code: list[Token], i: int, end: int, locals_map, member_types):
    """Type of a simple expression head: literal or known identifier,
    only when the whole initializer is that single token (next is ';')."""
    if i >= end or i + 1 >= end or code[i + 1].value != ";":
        return None
    t = code[i]
    if t.kind == "num":
        name = "double" if ("." in t.value or "e" in t.value.lower()) else "int"
        return TypeRef(form="named", parts=[name])
    if t.kind == "str":
        return TypeRef(form="named", parts=["string"])
    if t.kind == "char":
        return TypeRef(form="named", parts=["char"])
    if t.kind == "id":
        if t.value in ("true", "false"):
            return TypeRef(form="named", parts=["bool"])
        return locals_map.get(t.value) or member_types.get(t.value)
    return None


def _operand_type(code: list[Token], i: int, locals_map, member_types):
    """Type of a single-token operand at i (for operator-use detection)."""
    t = code[i]
    if t.kind == "num":
        name = "double" if ("." in t.value or "e" in t.value.lower()) else "int"
        return TypeRef(form="named", parts=[name])
    if t.kind == "str":
        return TypeRef(form="named", parts=["string"])
    if t.kind == "id" and t.value not in _NOT_CALLS:
        return locals_map.get(t.value) or member_types.get(t.value)
    return None


def _peek(code: list[Token], i: int) -> str:
    return code[i].value if i < len(code) else ""


def _skip_balanced_from(code: list[Token], i: int, end: int) -> int:
    depth = 0
    while i < end:
        v = code[i].value
        if v in "([{":
            depth += 1
        elif v in ")]}":
            depth -= 1
            if depth == 0:
                return i + 1
        i += 1
    return end


def _matching_angle(code: list[Token], i: int, end: int) -> int | None:
    depth = 0
    while i < end:
        v = code[i].value
        if v == "<":
            depth += 1
        elif v == ">":
            depth -= 1
            if depth == 0:
                return i
        elif v in (";", "{"):
            return None
        i += 1
    return None


def _count_args(code: list[Token], i: int, end: int) -> int:
    """At '(' — count top-level commas; 0 when immediately ')'"""
    depth = 0
    commas = 0
    has_any = False
    while i < end:
        v = code[i].value
        if v in "([{":
            depth += 1
        elif v in ")]}":
            depth -= 1
            if depth == 0:
                break
        elif depth == 1:
            if v == ",":
                commas += 1
            else:
                has_any = True
        i += 1
    return commas + 1 if has_any or commas else 0


def _maybe_register_new_local(
    code: list[Token], new_idx: int, tref: TypeRef, locals_map: dict[str, TypeRef]
) -> None:
    """Handle `var x = new T(...)`: look back for `var x =` before `new`."""
    if new_idx >= 3 and code[new_idx - 1].value == "=":
        name_t = code[new_idx - 2]
        var_t = code[new_idx - 3]
        if name_t.kind == "id" and var_t.kind == "id" and var_t.value == "var":
            locals_map[name_t.value] = tref


def _build_call(
    code: list[Token],
    name_idx: int,
    paren_idx: int,
    end: int,
    locals_map: dict[str, TypeRef],
    member_types: dict[str, TypeRef],
    body_start: int,
) -> CallSite | None:
    name_t = code[name_idx]
    argc = _count_args(code, paren_idx, end)
    # walk the receiver chain backwards:  a.b.c.Name(
    chain: list[str] = []
    k = name_idx - 1
    while k - 1 >= body_start and code[k].value in (".", "?."):
        prev = code[k - 1]
        if prev.kind == "id":
            chain.append(prev.value)
            k -= 2
        elif prev.value in (")", "]") or prev.kind in ("str", "char", "num"):
            return None  # computed receiver (chained call / literal): not resolvable
        else:
            break
    chain.reverse()
    line = name_t.line
    name = name_t.value.lstrip("@")
    if not chain or chain == ["this"]:
        return CallSite("call", name, None, (), argc, line)
    if chain == ["base"]:
        return CallSite("call_base", name, None, (), argc, line)
    head = chain[0]
    if head == "this" and len(chain) > 1:
        chain = chain[1:]
        head = chain[0]
    tref = locals_map.get(head) or member_types.get(head)
    if tref is not None:
        if len(chain) == 1:
            return CallSite("call", name, tref, (), argc, line)
        # property/field chain off a typed head (x.Prop.M()): the
        # extractor walks the remaining members through the type index
        return CallSite("call", name, tref, tuple(chain[1:]), argc, line)
    # static call via (possibly qualified) type name
    return CallSite("call", name, None, tuple(chain), argc, line)
