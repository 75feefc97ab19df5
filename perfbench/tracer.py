"""In-memory span tracer for the calls into bdsched's layers.

The tracer replaces names that one bdsched module imports from another (for
example ``bdsched.harness.run_cp`` or ``bdsched.analysis.p_set``) with
timing wrappers, so every call across a layer boundary becomes a span:
name, start, end, parent span and instance index.  Spans are kept in flat
arrays while the pass runs and written out afterwards.  A span's self time
is its duration minus its children's, so the self times of all spans sum to
the duration of the root spans.

A name that no longer exists (a later refactor may remove ``p_set`` or
``m_packet``) is reported as absent instead of failing the pass.
"""

from __future__ import annotations

import gzip
import importlib
from array import array
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

#: (span name, module whose attribute is replaced, attribute path).  Names
#: follow the metrics they feed; ``p_set`` is counted per calling layer.  A
#: span's layer is the module that defines the wrapped function, so names with
#: no metric of their own (``m_packet``, the Quad17 arithmetic) are wrapped
#: too: their time then counts in their own layer, not in their caller's.
TARGETS = (
    ("generators.enumerate_instances", "bdsched.harness", "enumerate_instances"),
    ("generators.gen_random", "bdsched.harness", "gen_random"),
    ("generators.greedy_baseline", "bdsched.harness", "greedy_baseline"),
    ("harness.check_instance", "bdsched.harness", "check_instance"),
    ("harness.cross_check_queries", "bdsched.harness", "cross_check_queries"),
    ("cp.run_cp", "bdsched.harness", "run_cp"),
    ("cp.p_set", "bdsched.cp", "p_set"),
    ("analysis.p_set", "bdsched.analysis", "p_set"),
    ("offline.m_packet", "bdsched.offline", "m_packet"),
    ("offline.opt_full", "bdsched.harness", "opt_full"),
    ("offline.solve_partial", "bdsched.offline", "solve_partial"),
    ("offline.solve_partial", "bdsched.harness", "solve_partial"),
    ("offline.brute_force_partial", "bdsched.harness", "brute_force_partial"),
    ("analysis.build_intervals", "bdsched.harness", "build_intervals"),
    ("analysis.check_interval_bounds", "bdsched.harness", "check_interval_bounds"),
    ("analysis.check_lemma_bounds", "bdsched.harness", "check_lemma_bounds"),
    ("analysis.check_forced_opt", "bdsched.harness", "check_forced_opt"),
    ("analysis.check_inclusions", "bdsched.harness", "check_inclusions"),
    ("model.profit", "bdsched.harness", "profit"),
    ("model.instance_hash", "bdsched.harness", "instance_hash"),
    ("model.quad17.compare", "bdsched.model", "Quad17.__lt__"),
    ("model.quad17.compare", "bdsched.model", "Quad17.__le__"),
    ("model.quad17.compare", "bdsched.model", "Quad17.__gt__"),
    ("model.quad17.compare", "bdsched.model", "Quad17.__ge__"),
    ("model.quad17.arith", "bdsched.model", "Quad17.of"),
    ("model.quad17.arith", "bdsched.model", "Quad17.__add__"),
    ("model.quad17.arith", "bdsched.model", "Quad17.__radd__"),
    ("model.quad17.arith", "bdsched.model", "Quad17.__sub__"),
    ("model.quad17.arith", "bdsched.model", "Quad17.__rsub__"),
    ("model.quad17.arith", "bdsched.model", "Quad17.__mul__"),
    ("model.quad17.arith", "bdsched.model", "Quad17.__rmul__"),
    ("model.quad17.arith", "bdsched.model", "Quad17.__neg__"),
)

#: Wrapped names that return an iterator; each next() becomes a span.
ITERATORS = {"generators.enumerate_instances"}

LAYERS = ("generators", "cp", "offline", "analysis", "model", "harness")


@dataclass
class SpanTotals:
    """Aggregate of all spans with one name."""

    calls: int = 0
    inclusive_s: float = 0.0
    self_s: float = 0.0
    durations: list[float] = field(default_factory=list)


def _layer_of(fn) -> str:
    return getattr(fn, "__module__", "").rsplit(".", 1)[-1]


class Tracer:
    """Records spans for calls through the wrapped names while installed."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.names: list[str] = []
        self.layers: list[str] = []
        self._ids: dict[tuple[str, str], int] = {}
        self.name_ix = array("i")
        self.parent = array("i")
        self.instance = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.current_instance = -1
        self.absent: list[str] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.hooks_failed: set[str] = set()
        self._queries: set = set()
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str, layer: str) -> int:
        key = (name, layer)
        nid = self._ids.get(key)
        if nid is None:
            nid = self._ids[key] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
        return nid

    def _open(self, nid: int) -> int:
        i = len(self.start)
        self.name_ix.append(nid)
        self.parent.append(self._stack[-1])
        self.instance.append(self.current_instance)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, layer: str):
        """A span opened by the benchmark itself, e.g. the campaign root."""
        i = self._open(self._name_id(name, layer))
        try:
            yield
        finally:
            self._close(i)

    def _wrap(self, name: str, fn):
        nid = self._name_id(name, _layer_of(fn))
        before, after = self._hooks(name)
        if name in ITERATORS:
            def traced_iter(*args, **kwargs):
                it = iter(fn(*args, **kwargs))
                while True:
                    i = self._open(nid)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self._close(i)
                    yield item

            return traced_iter

        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            i = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(i)
            if after is not None:
                after(result)
            return result

        return traced

    # -- counters read from arguments and results ----------------------------

    def _hooks(self, name: str):
        if name == "harness.check_instance":
            return self._next_instance, None
        if name == "offline.solve_partial":
            return self._count_query, None
        if name == "cp.run_cp":
            return None, self._count_trace
        return None, None

    def _next_instance(self, args) -> None:
        self.current_instance += 1
        self._queries.clear()

    def _count_query(self, args) -> None:
        try:
            q = args[0]
            key = (q.start, q.arrival_end, q.slot_end, q.base_buffer)
        except (AttributeError, IndexError):
            self.hooks_failed.add("offline.solve_partial.unique")
            return
        if key not in self._queries:
            self._queries.add(key)
            self.counts["offline.solve_partial.unique"] += 1

    def _count_trace(self, result) -> None:
        try:
            trace = result[1]
            queries = trace.queries
            self.counts["cp.queries_logged"] += len(queries)
            self.counts["cp.queries_unique"] += len({tuple(q[1:]) for q in queries})
            self.counts["cp.fallback_steps"] += sum(1 for rec in trace.steps if rec.fallback)
        except (AttributeError, IndexError, TypeError):
            self.hooks_failed.add("cp.trace")

    # -- installing ----------------------------------------------------------

    def install(self) -> None:
        """Replace every target that exists; record the others as absent."""
        for name, module, attr in self.targets:
            *owner_path, leaf = attr.split(".")
            try:
                owner = importlib.import_module(module)
                for part in owner_path:
                    owner = getattr(owner, part)
                fn = getattr(owner, leaf)
            except (ImportError, AttributeError):
                self.absent.append(f"{module}.{attr}")
                continue
            raw = vars(owner).get(leaf, fn) if isinstance(owner, type) else fn
            wrapped = self._wrap(name, fn)
            self._undo.append((owner, leaf, raw))
            setattr(owner, leaf, staticmethod(wrapped) if isinstance(raw, staticmethod) else wrapped)

    def uninstall(self) -> None:
        while self._undo:
            owner, leaf, fn = self._undo.pop()
            setattr(owner, leaf, fn)

    # -- results ---------------------------------------------------------------

    def absent_spans(self) -> set[str]:
        """Span names none of whose targets exist."""
        present = {name for name, module, attr in self.targets if f"{module}.{attr}" not in self.absent}
        return {name for name, _, _ in self.targets} - present

    def totals(self, keep=("harness.check_instance",)):
        """Aggregate the spans: per span name (durations kept only for the
        names in `keep`), self seconds per layer, and the summed duration of
        the root spans."""
        start, end, parent = self.start, self.end, self.parent
        n = len(start)
        own = array("d", (end[i] - start[i] for i in range(n)))
        for i in range(n):
            if parent[i] >= 0:
                own[parent[i]] -= end[i] - start[i]
        by_name: dict[str, SpanTotals] = defaultdict(SpanTotals)
        by_layer = dict.fromkeys(LAYERS, 0.0)
        root = 0.0
        for i in range(n):
            nid = self.name_ix[i]
            name, dur = self.names[nid], end[i] - start[i]
            t = by_name[name]
            t.calls += 1
            t.inclusive_s += dur
            t.self_s += own[i]
            if name in keep:
                t.durations.append(dur)
            layer = self.layers[nid]
            by_layer[layer] = by_layer.get(layer, 0.0) + own[i]
            if parent[i] < 0:
                root += dur
        return by_name, by_layer, root

    def write(self, path: Path) -> None:
        """Write every span as a gzip'd TSV row: name, layer, parent, instance, start, end."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("span\tname\tlayer\tparent\tinstance\tstart_s\tend_s\n")
            for i in range(len(self.start)):
                nid = self.name_ix[i]
                out.write(
                    f"{i}\t{self.names[nid]}\t{self.layers[nid]}\t{self.parent[i]}\t{self.instance[i]}\t"
                    f"{self.start[i] - t0:.9f}\t{self.end[i] - t0:.9f}\n"
                )
