"""The benchmark tracer's targets and the package exports still resolve.

``perfbench/tracer.py`` raises at install time when a function it wraps is
gone, which only a traced benchmark run would notice; this checks its
target table against the library without installing anything.
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import kgr
import kgr.ppr
import kgr.sweep
from kgr.graph import KnowledgeGraph
from kgr.relevance import HashedBagEmbedder

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_exists():
    tracer = load_tracer()
    for layer in tracer.LAYERS:
        importlib.import_module("kgr." + layer)
    for layer, attr, _, _ in tracer.FUNCTIONS:
        assert callable(getattr(importlib.import_module("kgr." + layer), attr, None)), (layer, attr)


def test_sweep_binds_the_traced_functions_it_calls():
    # The tracer rebinds a function in every kgr namespace holding the same
    # object, so the sweep's steps are traced only if bound by name here.
    for layer, attr in [
        ("perturb", "perturb"), ("metrics", "compare"), ("metrics", "fit_baseline_scorer"),
        ("relevance", "rank_graph_elements"), ("relevance", "assign_prizes"),
        ("retrieval", "retrieve"),
    ]:
        assert getattr(kgr.sweep, attr) is getattr(importlib.import_module("kgr." + layer), attr)


def test_extract_and_prune_calls_its_stages_by_module_name(monkeypatch):
    # Traced qa reads ingest.khop_subgraph and ppr time from these spans.
    calls = Counter()
    for name in ("khop_subgraph", "personalized_pagerank", "prune_by_ppr"):
        def counted(*args, _name=name, _fn=getattr(kgr.ppr, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(kgr.ppr, name, counted)
    g = KnowledgeGraph.from_triples([("a", "r", "b"), ("b", "r", "c")])
    kgr.ppr.extract_and_prune(g, ["a"])
    assert calls == {"khop_subgraph": 1, "personalized_pagerank": 1, "prune_by_ppr": 1}


def count_from_triples(monkeypatch) -> list:
    """Wrap ``from_triples`` on the class, as the tracer does it, and
    return the list that each call appends its class to."""
    builds = []
    from_triples = KnowledgeGraph.__dict__["from_triples"].__func__

    def counted(cls, *args, **kwargs):
        builds.append(cls)
        return from_triples(cls, *args, **kwargs)

    monkeypatch.setattr(KnowledgeGraph, "from_triples", classmethod(counted))
    return builds


def test_perturb_builds_its_graph_through_from_triples_once(monkeypatch):
    # Traced damage runs see the graph layer only through from_triples,
    # wrapped on the class as the tracer does it; a perturbed graph built
    # any other way leaves that heavy layer without spans.
    g = KnowledgeGraph.from_triples(
        [("a", "r1", "b"), ("b", "r2", "c"), ("c", "r1", "d"), ("a", "r2", "d")]
    )
    builds = count_from_triples(monkeypatch)
    for method in kgr.METHODS:
        for level in (0.0, 0.5, 1.0):
            builds.clear()
            kgr.perturb(g, kgr.PerturbationSpec(method, level, 7))
            assert builds == [KnowledgeGraph], (method, level)


def test_perturb_carries_the_parents_index_family():
    # A perturbed graph takes its parent's entity order and index and is
    # handed its relation order and id arrays when built, the parent's
    # relation order itself while the label set is unchanged; a fallback to
    # string lookups would only show as a slower damage benchmark.
    g = KnowledgeGraph.from_triples(
        [("a", "r1", "b"), ("b", "r2", "c"), ("c", "r1", "d"), ("a", "r2", "d")]
    )
    for method in kgr.METHODS:
        for level in (0.0, 0.5, 1.0):
            child = kgr.perturb(g, kgr.PerturbationSpec(method, level, 7)).graph
            handed = {"endpoint_ids", "relation_ids", "relation_order"}
            assert handed <= vars(child).keys(), (method, level)
            assert child.entity_order is g.entity_order, (method, level)
            assert child.entity_index is g.entity_index, (method, level)
            if child.relations == g.relations:
                assert child.relation_order is g.relation_order, (method, level)


def test_extracted_graphs_carry_their_index_family():
    # K-hop balls and pruned graphs are gathered from their parent's
    # tables, so they are handed them when built.
    g = KnowledgeGraph.from_triples([("a", "r1", "b"), ("b", "r2", "c"), ("c", "r3", "d")])
    children = [kgr.khop_subgraph(g, ["a"], 1), kgr.ppr.prune_by_ppr(g, dict.fromkeys("abcd", 1.0))]
    for child in children:
        assert {"entity_order", "endpoint_ids", "relation_ids", "relation_order"} <= vars(child).keys()


def test_the_baseline_scorer_reads_its_graphs_tables():
    # The scorer keeps its fitted graph, not copies of its id tables.
    g = KnowledgeGraph.from_triples([("a", "r1", "b"), ("b", "r2", "c")])
    assert kgr.fit_baseline_scorer(g).graph is g


def test_pcst_builds_its_subgraph_through_from_triples_once(monkeypatch):
    # In traced qa this call is the graph layer's only per-op span; a
    # subgraph built any other way leaves that heavy layer without spans.
    g = KnowledgeGraph.from_triples(
        [("a", "r1", "b"), ("b", "r2", "c"), ("c", "r1", "d"), ("x", "r1", "y")]
    )
    builds = count_from_triples(monkeypatch)
    prize_maps = [
        ({}, {}),  # no prizes: the highest-degree entity alone
        ({"a": 3.0, "d": 2.0, "x": 1.0}, {}),
        ({}, {kgr.Triple("b", "r2", "c"): 4.0}),
    ]
    for nodes, edges in prize_maps:
        builds.clear()
        kgr.retrieve_subgraph_pcst(g, kgr.PrizeAssignment(nodes, edges))
        assert builds == [KnowledgeGraph], (nodes, edges)


def test_observed_fields_exist():
    # The tracer's observers read these fields off real calls; a renamed
    # field would only fail a traced benchmark run.
    tracer = load_tracer()
    g = KnowledgeGraph.from_triples([("a", "r", "b"), ("b", "r", "c")])
    ranked = kgr.ppr.personalized_pagerank(g, ["a"])
    assert tracer._ppr_stats((g, ["a"]), {}, ranked) == {
        "iterations": ranked.iterations_used, "converged": int(ranked.converged),
    }
    assert isinstance(ranked.iterations_used, int) and isinstance(ranked.converged, bool)
    # ``embed``'s texts are its second positional argument, after ``self``.
    assert list(inspect.signature(HashedBagEmbedder.embed).parameters)[:2] == ["self", "texts"]
    emb, texts = HashedBagEmbedder(), ["alpha", "beta", "alpha"]
    assert tracer._embed_texts((emb, texts), {}, emb.embed(texts)) == {"texts": 3}


def test_every_export_resolves():
    assert len(set(kgr.__all__)) == len(kgr.__all__)
    for name in kgr.__all__:
        assert getattr(kgr, name, None) is not None, name


def test_importing_the_cli_leaves_scipy_unloaded():
    # Only PPR needs scipy.sparse, and importing it is most of the import
    # time and memory of ``import kgr``; sweep and damage runs never use it.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import sys, kgr, kgr.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


def test_importing_the_cli_leaves_every_http_client_unloaded():
    # Only the two optional services speak HTTP, and ``post_json`` imports
    # the standard library's client on its first request.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (
        "import sys, kgr, kgr.cli; "
        "print(sorted({'requests', 'urllib3', 'urllib.request', 'http.client'} & set(sys.modules)))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"
