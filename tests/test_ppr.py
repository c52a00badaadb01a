"""Personalized PageRank: exact small cases, a linear-solve oracle, pruning."""

from __future__ import annotations

import logging
import random
from collections import deque
from unittest import mock

import networkx as nx
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy import sparse

from kgr import ppr
from kgr.graph import EntityNotFoundError, KnowledgeGraph
from kgr.ingest import khop_subgraph
from kgr.ppr import PprConfig, extract_and_prune, personalized_pagerank, prune_by_ppr
from conftest import assert_same_graph, random_graph


def solve_ppr_dense(g: KnowledgeGraph, seeds, alpha: float, undirected=False) -> dict[str, float]:
    """Oracle: solve the stationary equations directly.

    p = alpha * (M p + (d . p) s) + (1 - alpha) * s, where column j of M
    spreads mass over j's out-edge multiset and d marks dangling nodes.
    """
    order = sorted(g.entities)
    idx = {e: i for i, e in enumerate(order)}
    n = len(order)
    counts = np.zeros((n, n))
    for s, _, o in g.triples:
        counts[idx[o], idx[s]] += 1.0
        if undirected:
            counts[idx[s], idx[o]] += 1.0
    outdeg = counts.sum(axis=0)
    M = np.zeros((n, n))
    nz = outdeg > 0
    M[:, nz] = counts[:, nz] / outdeg[nz]
    dangling = (~nz).astype(float)
    s_vec = np.zeros(n)
    for seed in set(seeds):
        s_vec[idx[seed]] = 1.0 / len(set(seeds))
    A = np.eye(n) - alpha * M - alpha * np.outer(s_vec, dangling)
    p = np.linalg.solve(A, (1.0 - alpha) * s_vec)
    return {e: float(p[i]) for i, e in enumerate(order)}


def test_two_node_cycle_exact():
    # Hand-solved stationary point for A<->B, seed A, alpha 0.5:
    # p_A = 0.5 p_B + 0.5 and p_B = 0.5 p_A  =>  (2/3, 1/3).
    g = KnowledgeGraph.from_triples([("A", "r", "B"), ("B", "r", "A")])
    result = personalized_pagerank(
        g, ["A"], PprConfig(alpha=0.5, tol=1e-12, max_iter=200)
    )
    assert result.converged
    assert result.scores["A"] == pytest.approx(2.0 / 3.0, abs=1e-9)
    assert result.scores["B"] == pytest.approx(1.0 / 3.0, abs=1e-9)


def test_matches_linear_solve_oracle():
    rng = random.Random(43)
    config = PprConfig(alpha=0.5, tol=1e-12, max_iter=200)
    for _ in range(20):
        g = random_graph(rng, rng.randint(2, 12), rng.randint(1, 25))
        seeds = rng.sample(sorted(g.entities), rng.randint(1, 2))
        result = personalized_pagerank(g, seeds, config)
        expected = solve_ppr_dense(g, seeds, config.alpha)
        l1 = sum(abs(result.scores[e] - expected[e]) for e in g.entities)
        assert l1 < 1e-9


def test_scores_sum_to_one_with_dangling():
    # A sink node and an isolated node both shed their mass to the seeds.
    g = KnowledgeGraph.from_triples(
        [("A", "r", "B"), ("B", "r", "C"), ("C", "r", "sink")],
        extra_entities=["isolated"],
    )
    result = personalized_pagerank(g, ["A"])
    assert sum(result.scores.values()) == pytest.approx(1.0, abs=1e-6)
    assert all(v >= 0.0 for v in result.scores.values())
    assert result.converged
    assert result.iterations_used <= 100


def test_seed_mass_lower_bound():
    # Restart alone guarantees the seeds at least (1 - alpha) in total.
    rng = random.Random(47)
    for _ in range(15):
        g = random_graph(rng, 10, 20)
        seeds = rng.sample(sorted(g.entities), 2)
        result = personalized_pagerank(g, seeds)
        assert sum(result.scores[s] for s in seeds) >= (1 - 0.85) - 1e-9


def test_restart_dominates_at_small_alpha():
    g = KnowledgeGraph.from_triples([("A", "r", "B"), ("B", "r", "C")])
    result = personalized_pagerank(g, ["A"], PprConfig(alpha=1e-6))
    assert result.scores["A"] == pytest.approx(1.0, abs=1e-5)


def test_deterministic_bitwise():
    rng = random.Random(53)
    g = random_graph(rng, 15, 40)
    a = personalized_pagerank(g, ["e0", "e3"])
    b = personalized_pagerank(g, ["e0", "e3"])
    assert a.scores == b.scores
    assert a.iterations_used == b.iterations_used


def test_undirected_flag_reaches_upstream_nodes():
    g = KnowledgeGraph.from_triples([("A", "r", "B")])
    directed = personalized_pagerank(g, ["B"])
    undirected = personalized_pagerank(g, ["B"], undirected=True)
    assert undirected.scores["A"] > directed.scores["A"]


def test_validation_errors():
    g = KnowledgeGraph.from_triples([("A", "r", "B")])
    with pytest.raises(ValueError):
        personalized_pagerank(g, [])
    with pytest.raises(EntityNotFoundError):
        personalized_pagerank(g, ["Z"])
    with pytest.raises(ValueError):
        personalized_pagerank(KnowledgeGraph.from_triples([]), ["A"])
    with pytest.raises(ValueError):
        PprConfig(alpha=1.0)
    with pytest.raises(ValueError):
        PprConfig(tol=0.0)
    with pytest.raises(ValueError):
        PprConfig(max_iter=0)


def test_prune_filters_like_a_plain_scan():
    rng = random.Random(59)
    for _ in range(20):
        g = random_graph(rng, 12, 25)
        scores = {e: rng.random() for e in g.entities}
        threshold = 0.4
        pruned = prune_by_ppr(g, scores, threshold)
        kept = {e for e, v in scores.items() if v >= threshold}
        assert pruned.entities == kept
        assert set(pruned.triples) == {
            t for t in g.triples if t.subject in kept and t.object in kept
        }
        # Idempotent: pruning again with the same scores changes nothing.
        assert prune_by_ppr(pruned, scores, threshold) == pruned


def test_prune_missing_scores_rejected():
    g = KnowledgeGraph.from_triples([("A", "r", "B")])
    with pytest.raises(ValueError):
        prune_by_ppr(g, {"A": 1.0}, 0.5)


def test_prune_reads_scores_from_a_vector_a_dict_or_another_graph():
    rng = random.Random(67)
    g = random_graph(rng, 12, 30)
    ranked = personalized_pagerank(g, ["e0", "e5"])
    assert ranked.scores == dict(zip(g.entity_order, ranked.vector.tolist()))
    assert not ranked.vector.flags.writeable
    threshold = sorted(ranked.scores.values())[6]
    pruned = prune_by_ppr(g, ranked, threshold)
    assert_same_graph(pruned, prune_by_ppr(g, dict(ranked.scores), threshold))
    assert_same_graph(pruned, reference_prune(g, ranked, threshold))
    # Scores of a supergraph cover every entity, so they prune a subgraph too.
    part = KnowledgeGraph.from_triples(g.triples[:10], extra_entities=["e0"])
    assert_same_graph(prune_by_ppr(part, ranked, threshold), reference_prune(part, ranked, threshold))
    # Scores of a subgraph miss entities of the whole.
    with pytest.raises(ValueError, match="scores missing"):
        prune_by_ppr(g, personalized_pagerank(part, ["e0"]), threshold)


def test_extract_and_prune_keeps_relevant_region():
    # Two far-apart clusters; extraction around one seed never sees the other.
    left = [(f"L{i}", "r", f"L{i+1}") for i in range(4)]
    right = [(f"R{i}", "r", f"R{i+1}") for i in range(4)]
    g = KnowledgeGraph.from_triples(left + right)
    sub = extract_and_prune(g, ["L0"], hops=2)
    assert sub.entities <= {f"L{i}" for i in range(5)}
    assert "L0" in sub.entities


def test_extract_and_prune_reads_an_iterator_of_seeds_once():
    g = KnowledgeGraph.from_triples([("a", "r", "b"), ("b", "r", "c")])
    assert extract_and_prune(g, iter(["a"])) == extract_and_prune(g, ["a"])
    assert extract_and_prune(g, (s for s in ["a", "c"])) == extract_and_prune(g, ["a", "c"])


def test_extract_and_prune_warns_when_ppr_does_not_converge(caplog):
    g = KnowledgeGraph.from_triples([(f"L{i}", "r", f"L{i+1}") for i in range(4)])
    with caplog.at_level(logging.WARNING, logger="kgr.ppr"):
        capped = extract_and_prune(g, ["L0"], hops=2, config=PprConfig(max_iter=1))
    assert [r.levelno for r in caplog.records] == [logging.WARNING]
    assert "did not converge in 1 iterations" in caplog.text
    assert "for seeds L0;" in caplog.text
    assert "L0" in capped.entities
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="kgr.ppr"):
        extract_and_prune(g, ["L3", "L0", "L4", "L1"], hops=1, config=PprConfig(max_iter=1))
    # At most three seeds are named, in the order given.
    assert [r.levelno for r in caplog.records] == [logging.WARNING]
    assert "for seeds L3, L0, L4 (+1 more);" in caplog.text
    assert "L1" not in caplog.text
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="kgr.ppr"):
        extract_and_prune(g, ["L0"], hops=2)
    assert caplog.records == []


@pytest.mark.parametrize("undirected", [False, True])
def test_matches_networkx_pagerank(undirected):
    # networkx sums parallel edges and keeps self-loops, which is the
    # out-edge multiset walk; dangling mass returns to the seeds.
    rng = random.Random(4091 + undirected)
    config = PprConfig(alpha=0.85, tol=1e-13, max_iter=1000)
    for _ in range(25):
        g = random_graph(rng, rng.randint(2, 15), rng.randint(0, 30), allow_self_loops=True)
        seeds = rng.sample(sorted(g.entities), rng.randint(1, 2))
        nxg = nx.MultiDiGraph()
        nxg.add_nodes_from(g.entities)
        for s, _, o in g.triples:
            nxg.add_edge(s, o)
            if undirected:
                nxg.add_edge(o, s)
        seed_mass = {seed: 1.0 for seed in seeds}
        expected = nx.pagerank(
            nxg, alpha=config.alpha, personalization=seed_mass, dangling=seed_mass,
            tol=1e-14, max_iter=1000,
        )
        result = personalized_pagerank(g, seeds, config, undirected=undirected)
        assert result.converged
        for e in g.entities:
            assert result.scores[e] == pytest.approx(expected[e], abs=1e-9)


# Dict-and-loop references for the three extraction stages, which run on
# the graph's integer endpoint arrays.


def reference_khop(g: KnowledgeGraph, seeds, hops: int) -> KnowledgeGraph:
    neighbors: dict[str, set[str]] = {e: set() for e in g.entities}
    for t in g.triples:
        neighbors[t.subject].add(t.object)
        neighbors[t.object].add(t.subject)
    dist = {s: 0 for s in seeds}
    queue = deque(seeds)
    while queue:
        v = queue.popleft()
        if dist[v] == hops:
            continue
        for u in neighbors[v]:
            if u not in dist:
                dist[u] = dist[v] + 1
                queue.append(u)
    kept = [t for t in g.triples if t.subject in dist and t.object in dist]
    return KnowledgeGraph.from_triples(kept, extra_entities=seeds)


def reference_transition_matrix(g: KnowledgeGraph, undirected: bool):
    n = len(g.entity_order)
    index = g.entity_index
    rows: list[int] = []
    cols: list[int] = []
    outdeg = np.zeros(n, dtype=np.float64)
    for t in g.triples:
        s, o = index[t.subject], index[t.object]
        rows.append(o)
        cols.append(s)
        outdeg[s] += 1.0
        if undirected:
            rows.append(s)
            cols.append(o)
            outdeg[o] += 1.0
    data = np.ones(len(rows), dtype=np.float64)
    for k, c in enumerate(cols):
        data[k] = 1.0 / outdeg[c]
    return sparse.csr_matrix((data, (rows, cols)), shape=(n, n)), outdeg == 0.0


def reference_prune(g: KnowledgeGraph, scores, threshold: float) -> KnowledgeGraph:
    kept = {e for e in g.entities if scores.scores[e] >= threshold}
    survivors = [t for t in g.triples if t.subject in kept and t.object in kept]
    return KnowledgeGraph.from_triples(survivors, extra_entities=kept)


ENTITIES = [f"e{i}" for i in range(7)]
messy_triples = st.lists(
    st.tuples(st.sampled_from(ENTITIES), st.sampled_from(["r0", "r1", "r2"]), st.sampled_from(ENTITIES)),
    max_size=25,
)


@settings(max_examples=300, deadline=None)
@given(
    triples=messy_triples,
    isolated=st.lists(st.sampled_from(ENTITIES + ["lone0", "lone1"]), max_size=3),
    hops=st.integers(0, 3),
    undirected=st.booleans(),
    threshold=st.sampled_from([0.0, 1e-5, 0.01, 0.05, 0.2, 1.0]),
    data=st.data(),
)
def test_extraction_stages_match_reference_loops(triples, isolated, hops, undirected, threshold, data):
    # Self-loops, parallel edges (same ends, other relation), isolated
    # entities and repeated seeds all occur in the drawn graphs.
    g = KnowledgeGraph.from_triples(triples, extra_entities=isolated)
    assume(g.entities)
    seeds = tuple(data.draw(st.lists(st.sampled_from(g.entity_order), min_size=1, max_size=4)))
    sub = khop_subgraph(g, seeds, hops)
    ref_sub = reference_khop(g, seeds, hops)
    assert_same_graph(sub, ref_sub)

    mat, dangling = ppr._transition_matrix(sub, undirected)
    ref_mat, ref_dangling = reference_transition_matrix(ref_sub, undirected)
    for attr in ("data", "indices", "indptr"):
        assert getattr(mat, attr).tobytes() == getattr(ref_mat, attr).tobytes()
    assert np.array_equal(dangling, ref_dangling)

    config = PprConfig(tol=1e-9)
    ranked = personalized_pagerank(sub, seeds, config, undirected)
    with mock.patch.object(ppr, "_transition_matrix", reference_transition_matrix):
        ref_ranked = personalized_pagerank(ref_sub, seeds, config, undirected)
    assert list(ranked.scores) == list(ref_ranked.scores)
    assert np.array(list(ranked.scores.values())).tobytes() == np.array(list(ref_ranked.scores.values())).tobytes()
    assert (ranked.iterations_used, ranked.converged) == (ref_ranked.iterations_used, ref_ranked.converged)

    assert_same_graph(prune_by_ppr(sub, ranked, threshold), reference_prune(ref_sub, ref_ranked, threshold))
