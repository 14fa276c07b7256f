"""Tracing for the benchmark's traced run (``--trace 1``).

Spans (name, start, end, parent) are kept in memory and summarised at
the end. Three sources feed them, all installed from outside the
package and removed again afterwards:

* benchmark spans, opened with :meth:`Tracer.span` around each call the
  benchmark makes into a layer;
* a small list of eager, driver-side package functions (index builders,
  exchange stores, manifest writes) wrapped in place while tracing. Only
  functions that take and return whole datasets are listed: a function
  that is also shipped to Ray workers as a batch UDF must never be
  wrapped;
* every Ray Data execution, captured at the streaming executor. Its
  per-operator stats (wall, CPU, rows, bytes) are attributed to package
  modules by the function names in the operator name (``MapBatches(
  skim_batch)`` belongs to ``stages.extract``).

A layer's self time is the busy time of the operators attributed to it
plus the self time of its eager spans (span duration minus the child
spans and executions it waited on). Time that maps to no layer is
reported as ``other``.
"""

from __future__ import annotations

import importlib
import inspect
import re
import sys
import threading
import time
import types
from dataclasses import dataclass, field

PKG = "codetoneo4j_ray"

# Layer name -> package module (or subpackage) it covers.
LAYERS = {
    "extractors": "extractors",
    "stages.extract": "stages.extract",
    "stages.link": "stages.link",
    "stages.bucketing": "stages.bucketing",
    "stages.canonicalize": "stages.canonicalize",
    "stages.materialize": "stages.materialize",
    "state": "state",
    "pipelines.incremental": "pipelines.incremental",
    "pipelines.graph_ops": "pipelines.graph_ops",
    "pipelines.data_ops": "pipelines.data_ops",
}
OTHER = "other"

# Eager driver-side functions timed as spans while tracing, as
# "module:function". Missing names are skipped, so the list may outlive
# a refactor; it must only name functions that never run as batch UDFs.
EAGER_FUNCTIONS = (
    "stages.extract:build_type_index",
    "stages.link:build_member_indices",
    "stages.bucketing:build_bucket_store",
    "stages.bucketing:bucketed_apply_tasks",
    "state.manifest:corpus_fingerprint",
    "state.manifest:write_manifest",
    "state.manifest:stage_is_complete",
)

# All-to-all operators carry no function name; they belong to the layer
# of the nearest upstream operator that does.
_EXCHANGE_OPS = ("Sort", "Repartition", "Aggregate", "RandomShuffle",
                 "Zip", "HashShuffle", "Join")
_TOKEN = re.compile(r"\(([A-Za-z_]\w*)\)")


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float = 0.0
    parent: int | None = None
    thread: int = 0
    kind: str = "span"  # "span" | "exec"
    ops: list = field(default_factory=list)  # exec: per-operator stats

    @property
    def duration(self) -> float:
        return max(0.0, self.end - self.start)


def _code_names(code: types.CodeType, out: set) -> None:
    out.add(code.co_name)
    for c in code.co_consts:
        if isinstance(c, types.CodeType):
            _code_names(c, out)


def _module_layer(modname: str) -> str | None:
    rel = modname[len(PKG) + 1:] if modname.startswith(PKG + ".") else ""
    for layer, sub in LAYERS.items():
        if rel == sub or rel.startswith(sub + "."):
            return layer
    return None


def name_index() -> dict[str, set[str]]:
    """Every function and class name defined in a layer module, nested
    ones included, mapped to the layers that define it."""
    index: dict[str, set[str]] = {}
    for modname, mod in list(sys.modules.items()):
        layer = _module_layer(modname)
        if layer is None or mod is None:
            continue
        for obj in vars(mod).values():
            objs = [obj]
            if inspect.isclass(obj) and obj.__module__ == modname:
                index.setdefault(obj.__name__, set()).add(layer)
                objs = list(vars(obj).values())
            for fn in objs:
                if isinstance(fn, (staticmethod, classmethod)):
                    fn = fn.__func__
                if inspect.isfunction(fn) and fn.__module__ == modname:
                    names: set = set()
                    _code_names(fn.__code__, names)
                    for n in names:
                        index.setdefault(n, set()).add(layer)
    for names in index.values():
        names.discard("<lambda>")
    return index


class Tracer:
    """Records spans while installed; see the module docstring."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._undo: list = []
        self._exec_open: dict[int, int] = {}
        self._index: dict[str, set[str]] = {}
        self._root: int | None = None
        # the span of the traced operation, set by the runner
        self.op_root: int | None = None
        self.errors = 0

    # -- spans -------------------------------------------------------------

    def _stack(self) -> list[int]:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def _open(self, name: str, layer: str, kind: str = "span") -> int:
        st = self._stack()
        parent = st[-1] if st else self._root
        with self._lock:
            self.spans.append(Span(name, layer, time.perf_counter(),
                                   parent=parent,
                                   thread=threading.get_ident(), kind=kind))
            return len(self.spans) - 1

    def _close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()

    class _SpanCtx:
        def __init__(self, tracer: "Tracer", name: str, layer: str):
            self.t, self.name, self.layer = tracer, name, layer

        def __enter__(self):
            self.idx = self.t._open(self.name, self.layer)
            self.t._stack().append(self.idx)
            self._main = threading.current_thread() is threading.main_thread()
            if self._main:
                # spans opened on pool threads hang under the innermost
                # span of the main thread
                self.prev_root, self.t._root = self.t._root, self.idx
            return self

        def __exit__(self, *exc):
            self.t._stack().pop()
            self.t._close(self.idx)
            if self._main:
                self.t._root = self.prev_root
            return False

        @property
        def duration(self) -> float:
            return self.t.spans[self.idx].duration

    def span(self, name: str, layer: str = OTHER) -> "Tracer._SpanCtx":
        return Tracer._SpanCtx(self, name, layer)

    # -- install / uninstall ---------------------------------------------

    def install(self) -> None:
        self._index = name_index()
        self._wrap_eager()
        self._hook_write_parquet()
        self._hook_executor()

    def uninstall(self) -> None:
        for obj, attr, orig in reversed(self._undo):
            setattr(obj, attr, orig)
        self._undo.clear()

    def _patch(self, obj, attr: str, new) -> None:
        self._undo.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, new)

    def _wrap_eager(self) -> None:
        for spec in EAGER_FUNCTIONS:
            modrel, fname = spec.split(":")
            try:
                mod = importlib.import_module(f"{PKG}.{modrel}")
            except ImportError:
                continue
            orig = getattr(mod, fname, None)
            if not inspect.isfunction(orig):
                continue
            layer = _module_layer(mod.__name__) or OTHER
            wrapped = self._timed(orig, f"{layer}.{fname}", layer)
            # rebind every reference held by a loaded package module
            for m in list(sys.modules.values()):
                if m is None or not getattr(m, "__name__", "").startswith(PKG):
                    continue
                if getattr(m, fname, None) is orig:
                    self._patch(m, fname, wrapped)

    def _timed(self, fn, name: str, layer: str):
        tracer = self

        def wrapper(*args, **kwargs):
            with tracer.span(name, layer):
                return fn(*args, **kwargs)

        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__wrapped__ = fn
        return wrapper

    def _hook_write_parquet(self) -> None:
        import ray.data

        orig = ray.data.Dataset.write_parquet
        tracer = self

        def write_parquet(ds, path, *args, **kwargs):
            base = str(path).rstrip("/").rsplit("/", 1)[-1]
            if base == "records":
                name, layer = "state.records_checkpoint", "state"
            else:
                name, layer = f"stages.materialize.write_{base}", "stages.materialize"
            with tracer.span(name, layer):
                return orig(ds, path, *args, **kwargs)

        self._patch(ray.data.Dataset, "write_parquet", write_parquet)

    def _hook_executor(self) -> None:
        from ray.data._internal.execution.streaming_executor import (
            StreamingExecutor,
        )

        tracer = self
        orig_execute = StreamingExecutor.execute
        orig_shutdown = StreamingExecutor.shutdown

        def execute(ex, *args, **kwargs):
            idx = tracer._open("ray_data.execution", OTHER, kind="exec")
            tracer._exec_open[id(ex)] = idx
            return orig_execute(ex, *args, **kwargs)

        def shutdown(ex, *args, **kwargs):
            out = orig_shutdown(ex, *args, **kwargs)
            idx = tracer._exec_open.pop(id(ex), None)
            if idx is not None:
                tracer._close(idx)
                try:
                    tracer.spans[idx].ops = _operator_stats(ex)
                except Exception:  # noqa: BLE001 — stats are best effort
                    with tracer._lock:
                        tracer.errors += 1
            return out

        self._patch(StreamingExecutor, "execute", execute)
        self._patch(StreamingExecutor, "shutdown", shutdown)

    # -- attribution -------------------------------------------------------

    def _token_layer(self, token: str, prefer: set[str]) -> str | None:
        cands = self._index.get(token)
        if not cands:
            return None
        if len(cands) == 1:
            return next(iter(cands))
        both = cands & prefer
        return sorted(both)[0] if both else sorted(cands)[0]

    def _context_layer(self, idx: int | None) -> str:
        while idx is not None:
            s = self.spans[idx]
            if s.kind == "span" and s.layer != OTHER:
                return s.layer
            idx = s.parent
        return OTHER

    def _ancestors(self, idx: int | None) -> list[str]:
        names = []
        while idx is not None:
            names.append(self.spans[idx].name)
            idx = self.spans[idx].parent
        return names

    def _under(self, idx: int, root: int | None) -> bool:
        while idx is not None:
            if idx == root:
                return True
            idx = self.spans[idx].parent
        return root is None

    def attribute(self, root: int | None = None) -> list[dict]:
        """One row per executed operator (under span ``root``, if given):
        layer, busy seconds, rows out and the names of the spans it ran
        under."""
        rows = []
        for i, s in enumerate(self.spans):
            if s.kind != "exec" or not self._under(i, root):
                continue
            tokens = [_TOKEN.findall(op["name"]) for op in s.ops]
            prefer = {self._token_layer(t, set()) for ts in tokens for t in ts
                      if self._index.get(t) and len(self._index[t]) == 1}
            ctx = self._context_layer(s.parent)
            upstream = None
            for op, toks in zip(s.ops, tokens):
                layers = [lay for lay in (self._token_layer(t, prefer | {ctx})
                                          for t in toks) if lay]
                last_token_layer = (self._token_layer(toks[-1], prefer | {ctx})
                                    if toks else None)
                if layers:
                    share = {lay: layers.count(lay) / len(layers)
                             for lay in set(layers)}
                    upstream = layers[-1]
                elif op["name"].startswith(_EXCHANGE_OPS) and upstream:
                    share = {upstream: 1.0}
                else:
                    share = {ctx: 1.0}
                for lay, frac in share.items():
                    rows.append({
                        "layer": lay, "op": op["name"],
                        "busy_s": op["wall_s"] * frac,
                        "cpu_s": op["cpu_s"] * frac,
                        "bytes_out": op["bytes_out"] * frac,
                        "rows_out": op["rows_out"] if frac == 1.0 or lay == last_token_layer else 0,
                        "last_token_layer": last_token_layer,
                        "under": self._ancestors(s.parent),
                    })
        return rows

    def layer_self_times(self, root: int) -> dict[str, float]:
        """Self seconds per layer within span ``root``. ``other`` is the
        rest of the root's wall: operators and driver code of no layer,
        Ray scheduling, worker and actor start-up, and waits."""
        out = {layer: 0.0 for layer in LAYERS}
        for r in self.attribute(root):
            if r["layer"] in out:
                out[r["layer"]] += r["busy_s"]
        children = self._children()
        for i, s in enumerate(self.spans):
            if s.kind != "span" or s.layer not in out or not self._under(i, root):
                continue
            out[s.layer] += self._self_time(i, children)
        out[OTHER] = max(0.0, self.spans[root].duration - sum(out.values()))
        return out

    def write_split(self, name: str, root: int) -> tuple[float, float]:
        """Split the wall of the ``write_parquet`` spans called ``name``
        (within span ``root``) in two: the write's own time, which is the
        span's self time plus the busy time of the ``Write`` operators it
        ran; and the rest, which is the upstream operators of the lazy
        plan the write executed and that execution's scheduling and
        start-up waits."""
        children = self._children()
        own = wall = 0.0
        for i, s in enumerate(self.spans):
            if s.name != name or not self._under(i, root):
                continue
            wall += s.duration
            own += self._self_time(i, children)
            for c in children.get(i, []):
                for op in self.spans[c].ops:
                    parts = op["name"].split("->")
                    if parts[-1] == "Write":
                        # a fused operator's time is split evenly
                        own += op["wall_s"] / len(parts)
        return own, max(0.0, wall - own)

    def _children(self) -> dict[int, list[int]]:
        children: dict[int, list[int]] = {}
        for i, s in enumerate(self.spans):
            if s.parent is not None:
                children.setdefault(s.parent, []).append(i)
        return children

    def _self_time(self, idx: int, children: dict[int, list[int]]) -> float:
        """Span duration minus the child spans and executions in it."""
        covered = _union([(self.spans[c].start, self.spans[c].end)
                          for c in children.get(idx, [])])
        return max(0.0, self.spans[idx].duration - covered)

    def operator_totals(self, root: int) -> dict[str, dict[str, float]]:
        """Per layer: operator busy and CPU seconds, rows and bytes out."""
        out: dict[str, dict[str, float]] = {}
        for r in self.attribute(root):
            t = out.setdefault(r["layer"], {"busy_s": 0.0, "cpu_s": 0.0,
                                            "rows_out": 0, "bytes_out": 0})
            for k in t:
                t[k] += r[k]
        return out

    def dump(self, path: str) -> None:
        """Write every span as one JSON line, times relative to the first."""
        import json

        t0 = self.spans[0].start if self.spans else 0.0
        with open(path, "w") as f:
            for i, s in enumerate(self.spans):
                f.write(json.dumps({
                    "id": i, "name": s.name, "layer": s.layer, "kind": s.kind,
                    "start": s.start - t0, "end": s.end - t0,
                    "parent": s.parent, "thread": s.thread, "ops": s.ops,
                }) + "\n")

    def total(self, name: str) -> float:
        return sum(s.duration for s in self.spans if s.name == name)


def _union(intervals: list[tuple[float, float]]) -> float:
    total, cur_s, cur_e = 0.0, None, None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def _operator_stats(ex) -> list[dict]:
    from ray.data._internal.stats import OperatorStatsSummary

    stop = getattr(ex, "_initial_stats", None)
    s = getattr(ex, "_final_stats", None)
    ops = []
    while s is not None and s is not stop:
        multi = len(s.metadata) > 1
        for name, block_stats in s.metadata.items():
            summ = OperatorStatsSummary.from_block_metadata(
                name, block_stats, is_sub_operator=multi)
            ops.append({
                "name": summ.operator_name,
                "wall_s": (summ.wall_time or {}).get("sum", 0.0),
                "cpu_s": (summ.cpu_time or {}).get("sum", 0.0),
                "rows_out": int((summ.output_num_rows or {}).get("sum", 0)),
                "bytes_out": int((summ.output_size_bytes or {}).get("sum", 0)),
            })
        s = s.parents[0] if s.parents else None
    ops.reverse()  # upstream first
    return ops
