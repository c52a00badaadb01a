"""Span tracing of kgr's public functions, installed from outside.

``Tracer.install`` rebinds every wrapped function in every loaded ``kgr``
module namespace that holds the same function object (``cli.py`` binds
``perturb``, ``compare`` and friends by ``from ... import``), wraps
``KnowledgeGraph.from_triples`` and ``HashedBagEmbedder.embed`` on their
classes, and fails loudly when a listed function no longer exists.

Spans are kept in memory: name, start, end, parent span, op id and a few
counters read from the call's arguments or result.  The parent comes from
a thread-local stack; a span opened on a pool thread with an empty stack
hangs under the innermost open span of the thread that began the op, so
``kgr sweep`` cells nest under the ``cli.sweep`` span.  Calls made while
no op is active (output checks) are not recorded.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time

LAYERS = ("graph", "ingest", "ppr", "relevance", "retrieval", "perturb", "metrics", "textgen", "cli")
METHODS = ("relation_swap", "relation_replace", "edge_rewire", "edge_delete")


def _embed_texts(args, kwargs, result):
    return {"texts": len(args[1])}


def _retrieved_triples(args, kwargs, result):
    return {"triples": len(result.retrieved_triples())}


def _result_triples(args, kwargs, result):
    return {"triples": len(result.triples)}


def _ppr_stats(args, kwargs, result):
    return {"iterations": result.iterations_used, "converged": int(result.converged)}


def _edits(args, kwargs, result):
    skipped = sum(1 for rec in result.edit_log if rec.skipped)
    return {"applied": len(result.edit_log) - skipped, "skipped": skipped}


def _first_graph_triples(args, kwargs, result):
    return {"triples": len(args[0].triples)}


def _perturb_label(args, kwargs):
    return "perturb." + args[1].method


def _cli_label(args, kwargs):
    argv = args[0] if args else kwargs.get("argv")
    return "cli." + (argv[0] if argv else "main")


# (module, attribute, observe(args, kwargs, result) -> counters, label(args, kwargs) -> name).
# Hot inner helpers (local_clustering, cosine, verbalize_element, scorer.score)
# are left out on purpose: wrapping them would trace millions of calls.
FUNCTIONS = (
    ("graph", "relation_subgraph", None, None),
    ("ingest", "parse_triples", None, None),
    ("ingest", "read_graph", None, None),
    ("ingest", "khop_subgraph", _result_triples, None),
    ("ppr", "extract_and_prune", None, None),
    ("ppr", "personalized_pagerank", _ppr_stats, None),
    ("ppr", "prune_by_ppr", None, None),
    ("relevance", "rank_graph_elements", None, None),
    ("relevance", "rank_elements", None, None),
    ("relevance", "assign_prizes", None, None),
    ("retrieval", "retrieve", _retrieved_triples, None),
    ("retrieval", "retrieve_triplets", None, None),
    ("retrieval", "retrieve_paths", None, None),
    ("retrieval", "retrieve_subgraph_pcst", None, None),
    ("perturb", "perturb", _edits, _perturb_label),
    ("metrics", "compare", None, None),
    ("metrics", "ats", None, None),
    ("metrics", "sc2d", _first_graph_triples, None),
    ("metrics", "sd2", None, None),
    ("metrics", "fit_baseline_scorer", None, None),
    ("textgen", "build_prompt", None, None),
    ("cli", "main", None, _cli_label),
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "counters")

    def __init__(self, name, start, parent, op):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.counters = None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op = None
        self._lock = threading.Lock()
        self._local = threading.local()
        self._op_stack: list[Span] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin_op(self, op) -> None:
        self.op = op
        self._op_stack = self._stack()

    def end_op(self) -> None:
        self.op = None

    def wrap(self, fn, name, observe=None, label=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            op = tracer.op
            if op is None:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            # A pool thread's first span hangs under the op thread's innermost
            # open span; that thread is blocked waiting for the pool here.
            outer = stack or tracer._op_stack
            parent = outer[-1] if outer else None
            span = Span(label(args, kwargs) if label else name, time.perf_counter(), parent, op)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                with tracer._lock:
                    tracer.spans.append(span)
            if observe is not None:
                span.counters = observe(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every function in ``FUNCTIONS`` wherever kgr binds it."""
        from kgr.graph import KnowledgeGraph
        from kgr.relevance import HashedBagEmbedder

        for layer in LAYERS:
            importlib.import_module("kgr." + layer)
        namespaces = [m for name, m in sorted(sys.modules.items()) if name == "kgr" or name.startswith("kgr.")]
        for layer, attr, observe, label in FUNCTIONS:
            module = sys.modules["kgr." + layer]
            original = getattr(module, attr, None)
            if original is None:
                raise RuntimeError(f"trace target kgr.{layer}.{attr} is gone; update perfbench/tracer.py")
            wrapped = self.wrap(original, f"{layer}.{attr}", observe, label)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, key, wrapped)

        from_triples = KnowledgeGraph.__dict__["from_triples"].__func__
        KnowledgeGraph.from_triples = classmethod(
            self.wrap(from_triples, "graph.from_triples", _result_triples)
        )
        HashedBagEmbedder.embed = self.wrap(HashedBagEmbedder.embed, "relevance.embed", _embed_texts)

    def write(self, path: str) -> None:
        index = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "start": s.start, "end": s.end,
                    "parent": index.get(id(s.parent)), "op": s.op, "counters": s.counters,
                }) + "\n")


def _self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the union of its children's intervals."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(id(s.parent), []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for c in sorted(children.get(id(s), ()), key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[id(s)] = (s.end - s.start) - covered
    return out


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def span_counts(spans: list[Span]) -> dict[str, int]:
    """Spans per layer and per ``layer.function``, for the heavy/idle check."""
    counts: dict[str, int] = {}
    for s in spans:
        for key in (layer_of(s.name), s.name):
            counts[key] = counts.get(key, 0) + 1
    return counts


def per_layer_metrics(tracer: Tracer, ops: int, overhead_ratio: float) -> dict[str, tuple[float, str]]:
    """Per-op busy/self time and counters of the timed ops, by name."""
    timed = [s for s in tracer.spans if isinstance(s.op, int)]
    setup = [s for s in tracer.spans if not isinstance(s.op, int)]
    self_time = _self_times(timed)

    def dur(s):
        return s.end - s.start

    def named(name, pool=timed):
        return [s for s in pool if s.name == name]

    def busy(name):
        return sum(dur(s) for s in named(name)) / ops

    def counter(spans, key):
        return sum((s.counters or {}).get(key, 0) for s in spans)

    def ratio(num, den):
        return num / den if den else 0.0

    m: dict[str, tuple[float, str]] = {}
    for layer in LAYERS[:-1]:  # cli's self time is cli.sweep.self_s below
        m[f"{layer}.self_s"] = (sum(self_time[id(s)] for s in timed if layer_of(s.name) == layer) / ops, "s/op")

    embeds = named("relevance.embed")
    m["relevance.rank_graph_elements.busy_s"] = (busy("relevance.rank_graph_elements"), "s/op")
    m["relevance.embed.busy_s"] = (busy("relevance.embed"), "s/op")
    m["relevance.embed.texts"] = (counter(embeds, "texts") / ops, "count/op")
    m["relevance.rank_elements.busy_s"] = (busy("relevance.rank_elements"), "s/op")
    for fn in ("retrieve_subgraph_pcst", "retrieve_paths", "retrieve_triplets"):
        m[f"retrieval.{fn}.busy_s"] = (busy(f"retrieval.{fn}"), "s/op")
    m["retrieval.triples_out"] = (counter(named("retrieval.retrieve"), "triples") / ops, "count/op")

    perturbs = [s for s in timed if layer_of(s.name) == "perturb" and s.name.split(".")[1] in METHODS]
    for method in METHODS:
        spans = named("perturb." + method)
        edits = counter(spans, "applied") + counter(spans, "skipped")
        m[f"perturb.{method}.busy_s"] = (sum(map(dur, spans)) / ops, "s/op")
        m[f"perturb.{method}.us_per_edit"] = (ratio(1e6 * sum(map(dur, spans)), edits), "us/edit")
    applied, skipped = counter(perturbs, "applied"), counter(perturbs, "skipped")
    m["perturb.edits_applied"] = (applied / ops, "count/op")
    m["perturb.edits_skipped"] = (skipped / ops, "count/op")
    m["perturb.skip_ratio"] = (ratio(skipped, applied + skipped), "ratio")

    for fn in ("sc2d", "ats", "sd2", "fit_baseline_scorer"):
        m[f"metrics.{fn}.busy_s"] = (busy(f"metrics.{fn}"), "s/op")
    sc2ds = named("metrics.sc2d")
    m["metrics.sc2d.us_per_triple"] = (ratio(1e6 * sum(map(dur, sc2ds)), counter(sc2ds, "triples")), "us/triple")

    m["ingest.khop_subgraph.busy_s"] = (busy("ingest.khop_subgraph"), "s/op")
    m["ingest.khop_subgraph.triples_out"] = (counter(named("ingest.khop_subgraph"), "triples") / ops, "count/op")
    pprs = named("ppr.personalized_pagerank")
    m["ppr.personalized_pagerank.busy_s"] = (busy("ppr.personalized_pagerank"), "s/op")
    m["ppr.personalized_pagerank.iterations"] = (ratio(counter(pprs, "iterations"), len(pprs)), "count/call")
    m["ppr.personalized_pagerank.converged_ratio"] = (ratio(counter(pprs, "converged"), len(pprs)), "ratio")
    m["ppr.prune_by_ppr.busy_s"] = (busy("ppr.prune_by_ppr"), "s/op")

    builds = named("graph.from_triples")
    m["graph.from_triples.calls"] = (len(builds) / ops, "count/op")
    m["graph.from_triples.busy_s"] = (busy("graph.from_triples"), "s/op")
    m["graph.from_triples.us_per_triple"] = (ratio(1e6 * sum(map(dur, builds)), counter(builds, "triples")), "us/triple")

    parses = named("ingest.parse_triples", timed + setup)
    m["ingest.parse_triples.busy_s"] = (ratio(sum(map(dur, parses)), len(parses)), "s/call")
    m["textgen.build_prompt.busy_s"] = (busy("textgen.build_prompt"), "s/op")

    sweeps = named("cli.sweep")
    wall = sum(map(dur, sweeps))
    child = sum(dur(s) for s in timed if s.parent is not None and s.parent.name == "cli.sweep")
    m["cli.sweep.self_s"] = (sum(self_time[id(s)] for s in sweeps) / ops, "s/op")
    m["cli.sweep.concurrency"] = (ratio(child, wall), "ratio")

    m["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    return m
