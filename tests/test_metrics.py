"""Similarity metrics: frozen hand-derived values and contract checks."""

from __future__ import annotations

import math
import random

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kgr.graph import KnowledgeGraph, relation_subgraph
from kgr.metrics import (
    ats,
    compare,
    distance_to_similarity,
    fit_baseline_scorer,
    sc2d,
    sd2,
)
from kgr.perturb import METHODS, PerturbationSpec, perturb
from conftest import fit_dict_scorer, local_clustering, random_graph


def test_distance_to_similarity_anchors():
    assert distance_to_similarity(0.0) == 1.0
    assert distance_to_similarity(1.0) == 0.5
    assert distance_to_similarity(3.0) == 0.25


def test_baseline_scorer_frequencies():
    g = KnowledgeGraph.from_triples(
        [
            ("a", "likes", "b"),
            ("a", "likes", "c"),
            ("a", "hates", "d"),
            ("x", "likes", "b"),
        ]
    )
    scorer = fit_baseline_scorer(g)
    assert scorer.score("a", "likes", "b") == 1.0  # present
    # Absent (a, likes, d): a's out-edges are 2/3 "likes"; d has no
    # incoming "likes", so that half contributes 0.
    assert scorer.score("a", "likes", "d") == pytest.approx(0.5 * (2 / 3 + 0))
    # Absent (x, hates, b): 0 out-frequency, b receives no "hates".
    assert scorer.score("x", "hates", "b") == 0.0
    # Absent (a, hates, b): out 1/3, in 0.
    assert scorer.score("a", "hates", "b") == pytest.approx(0.5 * (1 / 3))
    assert scorer.score("nobody", "likes", "nothing") == 0.0


NAMES = ["a", "b", "c", "d", "x"]
LABELS = ["r0", "r1", "r2", "r9"]


@st.composite
def graph_over(draw, names, labels):
    """A small graph over the given names and labels, maybe with isolated
    entities and orphan labels (labels without a triple)."""
    triple = st.tuples(st.sampled_from(names), st.sampled_from(labels), st.sampled_from(names))
    triples = draw(st.lists(triple, max_size=25))
    return KnowledgeGraph.from_triples(
        triples,
        extra_entities=draw(st.lists(st.sampled_from(names), max_size=2)),
        extra_relations=draw(st.lists(st.sampled_from(labels), max_size=2)),
    )


@settings(max_examples=300, deadline=None)
@given(
    fitted=graph_over(NAMES[:4], LABELS[:3]).filter(lambda g: g.triples),
    other=graph_over(NAMES, LABELS),
)
def test_batch_scores_equal_the_dict_reference(fitted, other):
    # ``other`` may name entities (x) and relations (r9) the fitted graph
    # lacks, and either graph may carry orphan labels.  Every id triple over
    # each graph's name tables is scored, in one batch and one at a time.
    # The tables are passed as the graph's own tuples, which the fitted
    # graph's scorer uses without a lookup, and as equal copies.
    scorer, reference = fit_baseline_scorer(fitted), fit_dict_scorer(fitted)
    for g in (fitted, other):
        entities, relations = g.entity_order, g.relation_order
        s, r, o = (grid.ravel() for grid in np.indices((len(entities), len(relations), len(entities))))
        expected = [reference.score(entities[i], relations[j], entities[m]) for i, j, m in zip(s, r, o)]
        for tables in ((entities, relations), (list(entities), list(relations))):
            batch = scorer.score_ids(*tables, s, r, o)
            assert batch.dtype == np.float64
            assert batch.tobytes() == np.array(expected, dtype=np.float64).tobytes()
        for t in g.triples:
            one = scorer.score(*t)
            assert type(one) is float and one == reference.score(*t)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    size=st.integers(1, 40_000),
    foreign=st.floats(0.0, 1.0),
)
def test_ats_is_a_left_to_right_sum_of_reference_scores(seed, size, foreign):
    # ``foreign`` is the share of the second graph's triples that are new
    # to the first; the rest are the first graph's own, scoring 1.
    rng = random.Random(seed)
    n, k = max(2, size // 4), 8

    def draw(count):
        return [(f"e{rng.randrange(n)}", f"r{rng.randrange(k)}", f"e{rng.randrange(n)}") for _ in range(count)]

    g = KnowledgeGraph.from_triples(draw(size), extra_entities=[f"e{i}" for i in range(n)])
    kept = [t for t in g.triples if rng.random() >= foreign]
    g_prime = KnowledgeGraph.from_triples(kept + draw(len(g.triples) - len(kept)), extra_entities=g.entities)
    reference = fit_dict_scorer(g)
    total = 0.0
    for t in g_prime.triples:  # what ``sum`` does for floats before Python 3.12
        total += reference.score(*t)
    assert ats(g, g_prime).hex() == (total / len(g_prime.triples)).hex()


def test_fit_rejects_empty_graph():
    with pytest.raises(ValueError):
        fit_baseline_scorer(KnowledgeGraph.from_triples([], extra_entities=["a"]))


def test_ats_identity_is_one():
    rng = random.Random(113)
    for _ in range(10):
        g = random_graph(rng, 10, 20)
        assert ats(g, g) == 1.0


def test_ats_empty_perturbed_graph_is_zero():
    g = KnowledgeGraph.from_triples([("a", "r", "b")])
    empty = KnowledgeGraph.from_triples([], extra_entities=g.entities)
    assert ats(g, empty) == 0.0


def test_ats_matches_hand_recount():
    g = KnowledgeGraph.from_triples(
        [("a", "r1", "b"), ("b", "r1", "c"), ("c", "r2", "a")]
    )
    g_prime = KnowledgeGraph.from_triples(
        [("a", "r1", "b"), ("b", "r2", "c"), ("c", "r2", "b")],
        extra_entities=g.entities,
    )
    # Recount from scratch: out/in frequencies of g, averaged per triple.
    def freq_score(s, r, o):
        if (s, r, o) in {(t.subject, t.relation, t.object) for t in g.triples}:
            return 1.0
        outs = [t for t in g.triples if t.subject == s]
        ins = [t for t in g.triples if t.object == o]
        f_out = sum(t.relation == r for t in outs) / len(outs) if outs else 0.0
        f_in = sum(t.relation == r for t in ins) / len(ins) if ins else 0.0
        return 0.5 * (f_out + f_in)

    expected = sum(
        freq_score(t.subject, t.relation, t.object) for t in g_prime.triples
    ) / len(g_prime.triples)
    assert ats(g, g_prime) == pytest.approx(expected)
    assert 0.0 < ats(g, g_prime) < 1.0


def test_structural_identity_is_one():
    rng = random.Random(127)
    for _ in range(10):
        g = random_graph(rng, 8, 16)
        assert sc2d(g, g) == 1.0
        assert sd2(g, g) == 1.0


def test_sc2d_triangle_vs_path_frozen():
    # One relation; the triangle's clustering vector is (1,1,1), the
    # path's is (0,0,0), so d = sqrt(3) and the similarity is 1/(1+sqrt(3)).
    triangle = KnowledgeGraph.from_triples(
        [("A", "r", "B"), ("B", "r", "C"), ("C", "r", "A")]
    )
    path = KnowledgeGraph.from_triples(
        [("A", "r", "B"), ("B", "r", "C")], extra_entities=["C"]
    )
    expected = 1.0 / (1.0 + math.sqrt(3.0))
    assert sc2d(triangle, path) == pytest.approx(expected, abs=1e-12)


def test_sd2_self_loop_frozen_half():
    # Two relations; the only difference is one self-loop, which raises a
    # single mean-degree entry by exactly 2/2 = 1, giving d = 1 -> 0.5.
    g = KnowledgeGraph.from_triples([("A", "r1", "B"), ("A", "r2", "B")])
    g_prime = KnowledgeGraph.from_triples(
        [("A", "r1", "B"), ("A", "r2", "B"), ("A", "r1", "A")]
    )
    assert sd2(g, g_prime) == pytest.approx(0.5, abs=1e-12)


def test_mean_relation_vectors_directly():
    # r1 forms a triangle (clustering 1 everywhere), r2 a path (all 0).
    g = KnowledgeGraph.from_triples(
        [
            ("A", "r1", "B"),
            ("B", "r1", "C"),
            ("C", "r1", "A"),
            ("A", "r2", "B"),
            ("B", "r2", "C"),
        ]
    )
    np.testing.assert_allclose(g.mean_relation_clustering, [0.5, 0.5, 0.5])
    # Degrees: A and C carry 2+1 endpoints, B carries 2+2, over 2 relations.
    np.testing.assert_allclose(g.mean_relation_degree, [1.5, 2.0, 1.5])


def reference_mean_relation_clustering(g):
    """The per-relation subgraph loop that KnowledgeGraph.mean_relation_clustering replaces."""
    order = g.entity_order
    acc = np.zeros(len(order), dtype=np.float64)
    relations = sorted(g.relations)
    if not relations:
        return acc
    for r in relations:
        sub = relation_subgraph(g, r)
        acc += np.array([local_clustering(sub, v) for v in order], dtype=np.float64)
    return acc / len(relations)


def reference_mean_relation_degree(g):
    acc = np.zeros(len(g.entities), dtype=np.float64)
    if not g.relations:
        return acc
    for t in g.triples:
        acc[g.entity_index[t.subject]] += 1.0
        acc[g.entity_index[t.object]] += 1.0
    return acc / len(g.relations)


def messy_graphs(seed, count):
    """Random graphs with self-loops, parallel edges and orphan relations."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 14)
        g = random_graph(
            rng, n, rng.randint(0, 3 * n), n_relations=rng.randint(1, 4), allow_self_loops=True
        )
        orphans = [f"orphan{i}" for i in range(rng.randint(0, 2))]
        yield KnowledgeGraph.from_triples(
            g.triples, extra_entities=g.entities, extra_relations=orphans
        )


def test_mean_relation_vectors_match_reference_loops_bit_for_bit():
    graphs = list(messy_graphs(701, 300))
    assert any(t.subject == t.object for g in graphs for t in g.triples)
    assert any(
        len({(t.subject, t.object) for t in g.triples}) < len(g.triples) for g in graphs
    )
    assert any(g.relations - {t.relation for t in g.triples} for g in graphs)
    assert any(g.mean_relation_clustering.any() for g in graphs)
    for g in graphs:
        assert np.array_equal(g.mean_relation_clustering, reference_mean_relation_clustering(g))
        assert np.array_equal(g.mean_relation_degree, reference_mean_relation_degree(g))


def hub_graphs(seed, count):
    """Graphs where one entity has 50 or more neighbours in one relation,
    with edges among those neighbours closing triangles through the hub,
    plus self-loops, parallel edges, a second hub relation and an orphan."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(60, 90)
        nodes = [f"e{i}" for i in range(n)]
        hub, leaves = nodes[0], rng.sample(nodes[1:], rng.randint(50, n - 1))
        triples = {(hub, "r0", v) if rng.random() < 0.5 else (v, "r0", hub) for v in leaves}
        triples |= {(rng.choice(leaves), rng.choice(["r0", "r1"]), rng.choice(leaves)) for _ in range(3 * n)}
        triples |= {(hub, "r1", v) for v in rng.sample(leaves, 20)}
        triples |= {(v, "r2", v) for v in rng.sample(nodes, 3)}
        yield KnowledgeGraph.from_triples(triples, extra_entities=nodes, extra_relations=["orphan"])


def test_mean_relation_clustering_on_hub_graphs_matches_reference_bytes():
    rng = random.Random(719)
    for g in hub_graphs(719, 12):
        hub_degree = len({t.object if t.subject == "e0" else t.subject
                          for t in g.triples if t.relation == "r0" and "e0" in (t.subject, t.object)})
        assert hub_degree >= 50
        graphs = [g] + [
            perturb(g, PerturbationSpec(method, rng.choice([0.05, 0.3, 1.0]), rng.randrange(100))).graph
            for method in METHODS
        ]
        for h in graphs:
            expected = reference_mean_relation_clustering(h)
            assert h.mean_relation_clustering.tobytes() == expected.tobytes()
        assert g.mean_relation_clustering[g.entity_index["e0"]] > 0.0


def test_relation_vectors_are_cached_per_graph_and_read_only():
    g = random_graph(random.Random(5), 12, 30)
    for name in ("mean_relation_clustering", "mean_relation_degree"):
        first = getattr(g, name)
        assert getattr(g, name) is first
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[0] = 1.0
    # Comparing many perturbed graphs with one original reuses its vectors
    # and gives the same report as a fresh copy of the original.
    for method in METHODS:
        pg = perturb(g, PerturbationSpec(method, 0.3, 11)).graph
        fresh = KnowledgeGraph.from_triples(g.triples, extra_entities=g.entities)
        assert compare(g, pg) == compare(fresh, pg)


def test_mean_relation_clustering_matches_networkx():
    for g in messy_graphs(709, 150):
        expected = np.zeros(len(g.entities), dtype=np.float64)
        for r in g.relations:
            projection = nx.Graph()
            projection.add_nodes_from(g.entity_order)
            projection.add_edges_from(
                (t.subject, t.object)
                for t in g.triples
                if t.relation == r and t.subject != t.object
            )
            clustering = nx.clustering(projection)
            expected += np.array([clustering[v] for v in g.entity_order])
        if g.relations:
            expected /= len(g.relations)
        np.testing.assert_allclose(g.mean_relation_clustering, expected, rtol=0, atol=1e-12)


def test_zero_relation_graph_gives_zero_vectors():
    g = KnowledgeGraph.from_triples([], extra_entities=["a", "b"])
    np.testing.assert_array_equal(g.mean_relation_clustering, [0.0, 0.0])
    np.testing.assert_array_equal(g.mean_relation_degree, [0.0, 0.0])
    assert sd2(g, g) == 1.0


def test_relation_degree_of_graphs_without_triples_is_zero():
    assert KnowledgeGraph.from_triples([]).mean_relation_degree.shape == (0,)
    g = KnowledgeGraph.from_triples([], extra_entities=["a", "b"], extra_relations=["r"])
    np.testing.assert_array_equal(g.mean_relation_degree, [0.0, 0.0])


def test_entity_mismatch_rejected():
    g = KnowledgeGraph.from_triples([("a", "r", "b")])
    h = KnowledgeGraph.from_triples([("a", "r", "c")])
    with pytest.raises(ValueError):
        sc2d(g, h)
    with pytest.raises(ValueError):
        sd2(g, h)


def test_relation_swap_keeps_sd2_exactly_one():
    # Swapping relations never moves an endpoint, so the degree vector of
    # every node -- and hence SD2 -- is untouched, for any level or seed.
    for seed in range(10):
        g = random_graph(random.Random(600 + seed), 10, 22, n_relations=4)
        for level in (0.2, 0.6, 1.0):
            perturbed = perturb(g, PerturbationSpec("rs", level, seed)).graph
            assert sd2(g, perturbed) == 1.0


def test_all_metrics_bounded_under_random_perturbation():
    rng = random.Random(131)
    for _ in range(50):
        g = random_graph(rng, rng.randint(3, 10), rng.randint(2, 18))
        method = rng.choice(METHODS)
        spec = PerturbationSpec(method, rng.random(), rng.randint(0, 999))
        perturbed = perturb(g, spec).graph
        report = compare(g, perturbed)
        for value in (report.ats, report.sc2d, report.sd2):
            assert 0.0 <= value <= 1.0


@settings(max_examples=300, deadline=None)
@given(
    triples=st.lists(
        st.tuples(st.sampled_from("abcdef"), st.sampled_from(["r1", "r2", "r3"]), st.sampled_from("abcdef")),
        min_size=1,  # ats fits its edge scorer on the original's triples
        max_size=30,
    ),
    isolated=st.lists(st.sampled_from(["x", "y"]), max_size=2),
    method=st.sampled_from(METHODS),
    level=st.just(0.0) | st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_metrics_lie_in_unit_interval_and_level_zero_is_identity(
    triples, isolated, method, level, seed
):
    g = KnowledgeGraph.from_triples(triples, extra_entities=isolated)
    report = compare(g, perturb(g, PerturbationSpec(method, level, seed)).graph)
    for value in (report.ats, report.sc2d, report.sd2):
        assert 0.0 <= value <= 1.0
    if level == 0.0:
        assert report.sc2d == report.sd2 == 1.0


def test_report_json_dict():
    g = KnowledgeGraph.from_triples([("a", "r", "b")])
    report = compare(g, g)
    d = report.to_json_dict(method="edge_delete", level=0.5, seed=3)
    assert d == {
        "ats": 1.0,
        "sc2d": 1.0,
        "sd2": 1.0,
        "method": "edge_delete",
        "level": 0.5,
        "seed": 3,
    }
