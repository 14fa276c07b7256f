"""Type references, name resolution and Roslyn-style display strings.

Reproduces the two display formats the reference depends on
(``Graph/Mapping/SymbolMapper.cs:12,44``):

  - CSharpErrorMessageFormat  → symbol keys: fully qualified without
    ``global::``, keyword names for special types (``int``, ``string``),
    generic args expanded, nullable value types as ``T?``, nullable
    reference annotations dropped, arrays/tuples in C# syntax.
  - FullyQualifiedFormat      → the ``fqn`` column: ``global::``-prefixed
    metadata-style names (``global::System.Int32``).

Resolution walks C# lookup order: type parameters → containing types'
nested types → enclosing namespaces (innermost out) → using-imported
namespaces → a table of well-known BCL types. Unresolved names display
as written (Roslyn's UseErrorTypeSymbolName behavior).
"""

from __future__ import annotations

from dataclasses import dataclass, field

# ---------------------------------------------------------------------------
# Special types: metadata name → C# keyword (UseSpecialTypes)
# ---------------------------------------------------------------------------
SPECIAL_TYPES = {
    "System.Boolean": "bool",
    "System.Byte": "byte",
    "System.SByte": "sbyte",
    "System.Char": "char",
    "System.Decimal": "decimal",
    "System.Double": "double",
    "System.Single": "float",
    "System.Int32": "int",
    "System.UInt32": "uint",
    "System.Int64": "long",
    "System.UInt64": "ulong",
    "System.Int16": "short",
    "System.UInt16": "ushort",
    "System.Object": "object",
    "System.String": "string",
    "System.Void": "void",
}
KEYWORD_TYPES = {v: k for k, v in SPECIAL_TYPES.items()}

VALUE_KEYWORDS = frozenset(
    k for k in KEYWORD_TYPES if k not in ("object", "string", "void")
)

# Well-known BCL types: simple name → (namespace, is_value_type, arities).
# Public .NET API surface knowledge; extend as fixtures need.
_B = {
    "System": [
        ("Boolean", True), ("Byte", True), ("SByte", True), ("Char", True),
        ("Decimal", True), ("Double", True), ("Single", True), ("Int32", True),
        ("UInt32", True), ("Int64", True), ("UInt64", True), ("Int16", True),
        ("UInt16", True), ("Object", False), ("String", False), ("Void", True),
        ("DateTime", True), ("DateTimeOffset", True), ("TimeSpan", True),
        ("Guid", True), ("DateOnly", True), ("TimeOnly", True), ("IntPtr", True),
        ("UIntPtr", True), ("Exception", False), ("ArgumentException", False),
        ("ArgumentNullException", False), ("InvalidOperationException", False),
        ("NotImplementedException", False), ("NotSupportedException", False),
        ("EventArgs", False), ("EventHandler", False, (0, 1)),
        ("Action", False, (0, 1, 2, 3, 4)), ("Func", False, (1, 2, 3, 4, 5)),
        ("Predicate", False, (1,)), ("Comparison", False, (1,)),
        ("Nullable", True, (1,)), ("Lazy", False, (1,)), ("Tuple", False, (1, 2, 3, 4)),
        ("ValueTuple", True, (1, 2, 3, 4)), ("Uri", False), ("Random", False),
        ("Console", False), ("Math", False), ("Convert", False), ("Enum", False),
        ("ValueType", False), ("Delegate", False), ("MulticastDelegate", False),
        ("Array", False), ("Attribute", False), ("ObsoleteAttribute", False),
        ("FlagsAttribute", False), ("SerializableAttribute", False),
        ("IDisposable", False), ("IAsyncDisposable", False),
        ("IComparable", False, (0, 1)), ("IEquatable", False, (1,)),
        ("IFormattable", False), ("Span", True, (1,)), ("ReadOnlySpan", True, (1,)),
        ("Memory", True, (1,)), ("ReadOnlyMemory", True, (1,)),
        ("ArraySegment", True, (1,)), ("WeakReference", False, (0, 1)),
        ("GC", False), ("Environment", False), ("AppDomain", False),
        ("OperationCanceledException", False), ("AggregateException", False),
        ("FormatException", False), ("OverflowException", False),
        ("IndexOutOfRangeException", False), ("NullReferenceException", False),
        ("KeyNotFoundException", False), ("StringComparison", True),
        ("StringSplitOptions", True), ("BitConverter", False), ("Buffer", False),
        ("Index", True), ("Range", True), ("Version", False), ("Type", False),
        ("Activator", False), ("TimeZoneInfo", False), ("IServiceProvider", False),
        ("IObservable", False, (1,)), ("IObserver", False, (1,)),
        ("IProgress", False, (1,)), ("Progress", False, (1,)),
        ("ICloneable", False), ("EventHandler", False, (0, 1)),
    ],
    "System.Collections": [
        ("IEnumerable", False), ("IEnumerator", False), ("ICollection", False),
        ("IList", False), ("IDictionary", False), ("ArrayList", False),
        ("Hashtable", False), ("BitArray", False),
    ],
    "System.Collections.Generic": [
        ("List", False, (1,)), ("Dictionary", False, (2,)), ("HashSet", False, (1,)),
        ("SortedSet", False, (1,)), ("SortedDictionary", False, (2,)),
        ("SortedList", False, (2,)), ("Queue", False, (1,)), ("Stack", False, (1,)),
        ("LinkedList", False, (1,)), ("LinkedListNode", False, (1,)),
        ("IEnumerable", False, (1,)), ("IEnumerator", False, (1,)),
        ("ICollection", False, (1,)), ("IList", False, (1,)),
        ("IDictionary", False, (2,)), ("IReadOnlyList", False, (1,)),
        ("IReadOnlyCollection", False, (1,)), ("IReadOnlyDictionary", False, (2,)),
        ("ISet", False, (1,)), ("IReadOnlySet", False, (1,)),
        ("KeyValuePair", True, (2,)), ("Comparer", False, (1,)),
        ("EqualityComparer", False, (1,)), ("IComparer", False, (1,)),
        ("IEqualityComparer", False, (1,)), ("PriorityQueue", False, (2,)),
    ],
    "System.Collections.Concurrent": [
        ("ConcurrentDictionary", False, (2,)), ("ConcurrentQueue", False, (1,)),
        ("ConcurrentStack", False, (1,)), ("ConcurrentBag", False, (1,)),
        ("BlockingCollection", False, (1,)),
    ],
    "System.Collections.ObjectModel": [
        ("ObservableCollection", False, (1,)), ("Collection", False, (1,)),
        ("ReadOnlyCollection", False, (1,)),
    ],
    "System.Threading": [
        ("CancellationToken", True), ("CancellationTokenSource", False),
        ("Thread", False), ("Interlocked", False), ("Monitor", False),
        ("SemaphoreSlim", False), ("Mutex", False), ("AutoResetEvent", False),
        ("ManualResetEvent", False), ("ManualResetEventSlim", False),
        ("ReaderWriterLockSlim", False), ("Timer", False),
    ],
    "System.Threading.Tasks": [
        ("Task", False, (0, 1)), ("ValueTask", True, (0, 1)),
        ("TaskCompletionSource", False, (0, 1)), ("Parallel", False),
        ("TaskScheduler", False), ("TaskFactory", False),
    ],
    "System.Threading.Channels": [
        ("Channel", False, (0, 1)), ("ChannelReader", False, (1,)),
        ("ChannelWriter", False, (1,)),
    ],
    "System.Text": [
        ("StringBuilder", False), ("Encoding", False), ("UTF8Encoding", False),
        ("Rune", True),
    ],
    "System.Text.Json": [
        ("JsonDocument", False), ("JsonElement", True), ("JsonSerializer", False),
        ("JsonSerializerOptions", False), ("JsonException", False),
        ("JsonValueKind", True),
    ],
    "System.Text.RegularExpressions": [
        ("Regex", False), ("Match", False), ("MatchCollection", False),
        ("Group", False), ("Capture", False), ("RegexOptions", True),
    ],
    "System.IO": [
        ("Stream", False), ("MemoryStream", False), ("FileStream", False),
        ("StreamReader", False), ("StreamWriter", False), ("TextReader", False),
        ("TextWriter", False), ("BinaryReader", False), ("BinaryWriter", False),
        ("File", False), ("Directory", False), ("Path", False),
        ("FileInfo", False), ("DirectoryInfo", False), ("IOException", False),
        ("FileNotFoundException", False),
    ],
    "System.Linq": [
        ("Enumerable", False), ("Queryable", False), ("IQueryable", False, (0, 1)),
        ("IGrouping", False, (2,)), ("ILookup", False, (2,)),
        ("IOrderedEnumerable", False, (1,)),
    ],
    "System.Net.Http": [
        ("HttpClient", False), ("HttpRequestMessage", False),
        ("HttpResponseMessage", False), ("HttpContent", False),
        ("StringContent", False), ("HttpMethod", False),
    ],
    "System.Diagnostics": [
        ("Stopwatch", False), ("Debug", False), ("Trace", False),
        ("Process", False), ("Activity", False),
    ],
    "System.Globalization": [
        ("CultureInfo", False), ("NumberStyles", True), ("DateTimeStyles", True),
    ],
    "System.ComponentModel": [
        ("INotifyPropertyChanged", False), ("PropertyChangedEventArgs", False),
        ("PropertyChangedEventHandler", False), ("BackgroundWorker", False),
    ],
    "System.Security.Cryptography": [
        ("SHA256", False), ("MD5", False), ("Aes", False),
        ("RandomNumberGenerator", False),
    ],
    "System.Runtime.CompilerServices": [
        ("CallerMemberNameAttribute", False), ("MethodImplAttribute", False),
    ],
    "Microsoft.Extensions.Logging": [
        ("ILogger", False, (0, 1)), ("ILoggerFactory", False), ("LogLevel", True),
    ],
    "Microsoft.Extensions.DependencyInjection": [
        ("IServiceCollection", False), ("ServiceCollection", False),
        ("ServiceProvider", False),
    ],
}

# BCL lookup: simple name → list of (namespace, is_value, arity-set)
BCL_TYPES: dict[str, list[tuple[str, bool, frozenset[int]]]] = {}
for _ns, _entries in _B.items():
    for _e in _entries:
        _name, _isval = _e[0], _e[1]
        _arities = frozenset(_e[2]) if len(_e) > 2 else frozenset({0})
        BCL_TYPES.setdefault(_name, []).append((_ns, _isval, _arities))

BCL_NAMESPACES = frozenset(
    ns_part
    for ns in _B
    for ns_part in [".".join(ns.split(".")[: i + 1]) for i in range(len(ns.split(".")))]
) | frozenset({"System.Collections.Specialized", "System.Net", "System.Linq.Expressions",
               "System.Reflection", "System.Runtime", "System.Xml", "System.Xml.Linq",
               "Microsoft.Extensions", "System.Runtime.Serialization"})


# ---------------------------------------------------------------------------
# Type reference AST
# ---------------------------------------------------------------------------


@dataclass
class TypeRef:
    """One parsed type reference.

    form: 'named' | 'tuple' | 'array' | 'nullable' | 'pointer'
    """

    form: str = "named"
    parts: list[str] = field(default_factory=list)        # named: dotted parts
    args: list["TypeRef"] = field(default_factory=list)   # named: generic args
    elements: list[tuple["TypeRef", str]] = field(default_factory=list)  # tuple: (type, name)
    inner: "TypeRef | None" = None                        # array/nullable/pointer
    rank: int = 1                                         # array: number of commas + 1

    def written(self) -> str:
        """The type as written (error-type fallback display)."""
        if self.form == "named":
            base = ".".join(self.parts)
            if self.args:
                return f"{base}<{', '.join(a.written() for a in self.args)}>"
            return base
        if self.form == "tuple":
            return "(" + ", ".join(
                t.written() + (f" {n}" if n else "") for t, n in self.elements
            ) + ")"
        if self.form == "array":
            return self.inner.written() + "[" + "," * (self.rank - 1) + "]"
        if self.form == "nullable":
            return self.inner.written() + "?"
        if self.form == "pointer":
            return self.inner.written() + "*"
        return ""


@dataclass
class TypeInfo:
    """One declared type in the repo-wide type index (pass-A output)."""

    full_name: str       # dotted: Ns.Outer.Inner (no generic args)
    arity: int
    is_value: bool       # struct / enum / record struct
    kind: str            # class|struct|interface|enum|record|record_struct|delegate
    bases: tuple[str, ...] = ()   # base-list type texts as written (resolved in stage 2)
    type_params: tuple[str, ...] = ()
    # field/property/event name → type text as written: repo-wide receiver
    # typing (covers partial-class fragments in other files)
    member_types: dict = field(default_factory=dict)


class RepoTypeIndex:
    """Per-repo symbol-table slice used for name resolution.

    Built by the pass-A skim (stages.extract.build_type_index) into a
    repo-keyed bucket store, from which each pass-B extraction task
    loads the indices of its block's repos.
    """

    def __init__(self) -> None:
        self.types: dict[tuple[str, int], TypeInfo] = {}   # (full_name, arity) → info
        self.namespaces: set[str] = set()
        self.global_usings: list[tuple[str, str]] = []     # (source file_key, namespace text)
        # project-root markers for the node ecosystems, dir → declared
        # name (None when the manifest has no parseable name): the
        # FindProjectRoot walk of TypeScriptHandlerBase.cs:116 /
        # DartHandler.cs:104 over the corpus's own manifest rows
        self.npm_roots: dict[str, str | None] = {}   # dirs holding package.json
        self.pub_roots: dict[str, str | None] = {}   # dirs holding pubspec.yaml

    def add_type(self, info: TypeInfo) -> None:
        key = (info.full_name, info.arity)
        existing = self.types.get(key)
        if existing is None:
            self.types[key] = info
        else:
            # partial declarations merge into ONE symbol (Roslyn
            # semantics): the member map and base list are the union of
            # all fragments. First fragment wins per member name; callers
            # feed fragments in a deterministically sorted order, so the
            # merge result never depends on shuffle arrival order.
            for name, text in info.member_types.items():
                existing.member_types.setdefault(name, text)
            if info.bases:
                existing.bases = tuple(
                    dict.fromkeys(existing.bases + info.bases)
                )
            if not existing.type_params and info.type_params:
                existing.type_params = info.type_params
        ns = info.full_name.rsplit(".", 1)[0] if "." in info.full_name else ""
        while ns:
            self.namespaces.add(ns)
            ns = ns.rsplit(".", 1)[0] if "." in ns else ""

    def lookup(self, full_name: str, arity: int) -> TypeInfo | None:
        return self.types.get((full_name, arity))

    def has_namespace(self, ns: str) -> bool:
        return ns in self.namespaces


@dataclass
class ResolutionScope:
    """Where a name appears: namespace chain, usings, type params, containing types."""

    namespace: str                      # e.g. "A.B.C" ("" at global)
    usings: tuple[str, ...]             # imported namespaces (plain usings)
    aliases: dict[str, str]             # alias → target text
    type_params: frozenset[str]         # in-scope generic parameter names
    containing: tuple[str, ...] = ()    # containing type full names, innermost first


@dataclass
class Resolved:
    display: str       # ErrorMessageFormat text
    fqn_meta: str      # metadata-style dotted name ("System.Int32"), "" if n/a
    is_value: bool
    found: bool        # resolved to a real (repo or BCL) type
    info: TypeInfo | None = None


class Resolver:
    def __init__(self, index: RepoTypeIndex):
        self.index = index

    # -- name lookup ----------------------------------------------------
    def resolve_named(self, parts: list[str], arity: int, scope: ResolutionScope) -> Resolved:
        first = parts[0].lstrip("@")
        # keyword types
        if len(parts) == 1 and arity == 0 and first in KEYWORD_TYPES:
            meta = KEYWORD_TYPES[first]
            return Resolved(first, meta, first in VALUE_KEYWORDS, True)
        # alias substitution
        if first in scope.aliases:
            target = scope.aliases[first]
            parts = target.split(".") + parts[1:]
            first = parts[0]
        # generic type parameter
        if len(parts) == 1 and arity == 0 and first in scope.type_params:
            return Resolved(first, "", False, True)
        dotted = ".".join(p.lstrip("@") for p in parts)
        # fully/partially qualified probes, C# lookup order
        candidates: list[str] = []
        #   nested inside containing types (innermost out)
        for ct in scope.containing:
            candidates.append(f"{ct}.{dotted}")
        #   enclosing namespaces innermost out, then global
        ns = scope.namespace
        while ns:
            candidates.append(f"{ns}.{dotted}")
            ns = ns.rsplit(".", 1)[0] if "." in ns else ""
        candidates.append(dotted)
        #   usings
        for u in scope.usings:
            candidates.append(f"{u}.{dotted}")
        for cand in candidates:
            info = self.index.lookup(cand, arity)
            if info is not None:
                return Resolved(cand, cand, info.is_value, True, info)
        # BCL
        if len(parts) == 1:
            for ns_b, isval, arities in BCL_TYPES.get(first, []):
                if arity in arities and (
                    ns_b in scope.usings
                    or scope.namespace == ns_b
                    or scope.namespace.startswith(ns_b + ".")
                ):
                    return self._bcl(ns_b, first, arity, isval)
            # implicit System for ubiquitous types even without usings?  No —
            # Roslyn needs the using; unresolved otherwise.
        else:
            # qualified: System.Int32 / System.Collections.Generic.List
            ns_b = ".".join(parts[:-1])
            simple = parts[-1]
            for ns_known, isval, arities in BCL_TYPES.get(simple, []):
                if ns_known == ns_b and arity in arities:
                    return self._bcl(ns_b, simple, arity, isval)
        return Resolved(dotted, "", False, False)

    def _bcl(self, ns: str, simple: str, arity: int, isval: bool) -> Resolved:
        meta = f"{ns}.{simple}"
        if meta in SPECIAL_TYPES:
            kw = SPECIAL_TYPES[meta]
            return Resolved(kw, meta, kw in VALUE_KEYWORDS, True)
        return Resolved(meta, meta, isval, True)

    # -- display --------------------------------------------------------
    def display(self, t: TypeRef, scope: ResolutionScope) -> Resolved:
        """ErrorMessageFormat display of a type reference."""
        if t.form == "named":
            arity = len(t.args)
            base = self.resolve_named(t.parts, arity, scope)
            # Nullable<T> → T?
            if base.fqn_meta == "System.Nullable" and arity == 1:
                inner = self.display(t.args[0], scope)
                return Resolved(f"{inner.display}?", "", True, base.found and inner.found)
            if arity:
                args = [self.display(a, scope) for a in t.args]
                disp = f"{base.display}<{', '.join(a.display for a in args)}>"
                return Resolved(disp, base.fqn_meta, base.is_value, base.found)
            return base
        if t.form == "nullable":
            inner = self.display(t.inner, scope)
            if inner.is_value:
                return Resolved(f"{inner.display}?", inner.fqn_meta, True, inner.found)
            # nullable reference annotation: dropped by ErrorMessageFormat
            return inner
        if t.form == "array":
            inner = self.display(t.inner, scope)
            return Resolved(
                inner.display + "[" + "," * (t.rank - 1) + "]", "", False, inner.found
            )
        if t.form == "pointer":
            inner = self.display(t.inner, scope)
            return Resolved(inner.display + "*", "", False, inner.found)
        if t.form == "tuple":
            elems = []
            ok = True
            for et, name in t.elements:
                r = self.display(et, scope)
                ok = ok and r.found
                elems.append(r.display + (f" {name}" if name else ""))
            return Resolved("(" + ", ".join(elems) + ")", "", True, ok)
        return Resolved(t.written(), "", False, False)
