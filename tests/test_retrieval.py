"""Retrieval variants against frozen cases and exhaustive oracles."""

from __future__ import annotations

import heapq
import itertools
import logging
import math
import random
import sys
from fractions import Fraction

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from kgr.graph import KnowledgeGraph, Triple
from kgr.relevance import PrizeAssignment, assign_prizes
from kgr.retrieval import (
    RetrievedKnowledge,
    _best_subtree,
    _expand_greedily,
    _transformed_graph,
    ScoredPath,
    ScoredSubgraph,
    brute_force_best_path,
    brute_force_best_subgraph,
    retrieve,
    retrieve_paths,
    retrieve_subgraph_pcst,
    retrieve_triplets,
    retrieved_from_json_dict,
)
from conftest import in_edges, neighbor_sets, out_edges, random_graph


def prizes_of(nodes=None, edges=None, cost=1.0, k=15):
    return PrizeAssignment(
        node_prizes=dict(nodes or {}),
        edge_prizes=dict(edges or {}),
        edge_cost=cost,
        k=k,
    )


def random_prizes(rng, g, cost=1.0):
    nodes = {v: float(rng.randint(0, 5)) for v in g.entity_order if rng.random() < 0.7}
    edges = {t: float(rng.randint(1, 4)) for t in g.triples if rng.random() < 0.3}
    return prizes_of(nodes, edges, cost=cost)


def assert_connected(g: KnowledgeGraph):
    nodes = sorted(g.entities)
    adj = neighbor_sets(g)
    seen = {nodes[0]}
    frontier = [nodes[0]]
    while frontier:
        v = frontier.pop()
        for u in adj[v]:
            if u not in seen:
                seen.add(u)
                frontier.append(u)
    assert seen == g.entities, "retrieved subgraph is not connected"


CHAIN = KnowledgeGraph.from_triples([("A", "r", "B"), ("B", "r", "C")])


def test_chain_best_path_frozen_score():
    # Node prizes 3, 2, 1 on A-B-C with unit edge costs: A-B collects 5
    # and pays 1, A-B-C collects 6 and pays 2 -- both score 4, and the
    # shorter node sequence wins the tie.
    prizes = prizes_of({"A": 3.0, "B": 2.0, "C": 1.0})
    paths = retrieve_paths(CHAIN, prizes, start_count=3, max_len=4, result_count=3)
    assert paths[0].score == pytest.approx(4.0)
    assert paths[0].nodes == ("A", "B")
    assert paths[1].score == pytest.approx(4.0)
    assert paths[1].nodes == ("A", "B", "C")
    oracle = brute_force_best_path(CHAIN, prizes)
    assert oracle.score == pytest.approx(4.0)


def test_triplets_rank_by_summed_prize():
    g = KnowledgeGraph.from_triples(
        [("A", "r", "B"), ("B", "r", "C"), ("C", "r", "D")]
    )
    prizes = prizes_of({"A": 5.0, "B": 1.0}, {Triple("C", "r", "D"): 10.0})
    result = retrieve_triplets(g, prizes, n=2)
    assert [t for t, _ in result.triplets] == [
        Triple("C", "r", "D"),
        Triple("A", "r", "B"),
    ]
    assert [s for _, s in result.triplets] == [10.0, 6.0]


def test_triplets_tie_breaks_lexicographic():
    g = KnowledgeGraph.from_triples([("B", "r", "B2"), ("A", "r", "A2")])
    result = retrieve_triplets(g, prizes_of(), n=2)
    assert [t.subject for t, _ in result.triplets] == ["A", "B"]


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 30))
def test_triplets_are_the_sorted_reference_on_tie_heavy_prizes(seed, n):
    # Few distinct prizes make many ties; 0.1, 0.2 and 0.7 make the float
    # sum depend on its order.  The maps also name an entity and a triple
    # the graph lacks.
    rng = random.Random(seed)
    g = random_graph(rng, rng.randint(1, 8), rng.randint(0, 24), n_relations=2, allow_self_loops=True)
    values = [0.0, 0.1, 0.2, 0.7, 1.0, 2.0]
    prizes = prizes_of(
        {**{v: rng.choice(values) for v in g.entity_order if rng.random() < 0.7}, "zz": 3.0},
        {**{t: rng.choice(values) for t in g.triples if rng.random() < 0.5}, Triple("zz", "r0", "zz"): 3.0},
    )
    scored = sorted(
        (
            (t, prizes.node_prize(t.subject) + prizes.node_prize(t.object) + prizes.edge_prize(t))
            for t in g.triples
        ),
        key=lambda pair: (-pair[1], pair[0]),
    )
    got = retrieve_triplets(g, prizes, n).triplets
    assert [(t, type(s), s.hex()) for t, s in got] == [(t, float, s.hex()) for t, s in scored[:n]]


def test_triplets_n_larger_than_graph():
    result = retrieve_triplets(CHAIN, prizes_of(), n=50)
    assert len(result.triplets) == 2


def test_triplets_default_n_is_prize_k():
    g = KnowledgeGraph.from_triples([(f"a{i}", "r", f"b{i}") for i in range(20)])
    assert len(retrieve_triplets(g, prizes_of(k=3)).triplets) == 3
    assert len(retrieve_triplets(g, prizes_of(k=17)).triplets) == 17


def test_paths_respect_max_len_and_simplicity():
    rng = random.Random(67)
    for _ in range(15):
        g = random_graph(rng, 8, 18)
        prizes = random_prizes(rng, g)
        for p in retrieve_paths(g, prizes, start_count=8, max_len=3, result_count=50):
            assert len(p.edges) <= 3
            assert len(set(p.nodes)) == len(p.nodes)
            # Every edge really joins consecutive nodes, in either direction.
            for (a, b), t in zip(zip(p.nodes, p.nodes[1:]), p.edges):
                assert {t.subject, t.object} == {a, b} or (
                    t.subject == t.object == a == b
                )


def test_paths_match_exhaustive_oracle_when_all_starts_allowed():
    rng = random.Random(71)
    for _ in range(40):
        g = random_graph(rng, rng.randint(2, 8), rng.randint(1, 16))
        prizes = random_prizes(rng, g, cost=rng.choice([0.5, 1.0, 2.0]))
        top = retrieve_paths(
            g, prizes, start_count=len(g.entities), max_len=4, result_count=1
        )[0]
        oracle = brute_force_best_path(g, prizes, max_len=4)
        assert top.score == pytest.approx(oracle.score, abs=1e-9)


def test_paths_few_starts_can_be_suboptimal_but_never_better():
    rng = random.Random(73)
    for _ in range(20):
        g = random_graph(rng, 8, 14)
        prizes = random_prizes(rng, g)
        greedy = retrieve_paths(g, prizes, start_count=2, max_len=4, result_count=1)
        oracle = brute_force_best_path(g, prizes, max_len=4)
        assert greedy[0].score <= oracle.score + 1e-9


def test_paths_directed_only_flag():
    g = KnowledgeGraph.from_triples([("B", "r", "A"), ("C", "r", "B")])
    prizes = prizes_of({"A": 3.0, "B": 2.0, "C": 1.0})
    free = retrieve_paths(g, prizes, start_count=1, max_len=4, result_count=1)
    forced = retrieve_paths(
        g, prizes, start_count=1, max_len=4, result_count=1, directed_only=True
    )
    # The single start is A (top prize), which has no outgoing edges:
    # only the direction-blind walk can move off it.
    assert free[0].score == pytest.approx(4.0)
    assert len(free[0].edges) == 1
    assert forced[0].nodes == ("A",)
    assert forced[0].score == pytest.approx(3.0)


def test_paths_deterministic():
    rng = random.Random(79)
    g = random_graph(rng, 10, 25)
    prizes = random_prizes(rng, g)
    a = retrieve_paths(g, prizes, result_count=10)
    b = retrieve_paths(g, prizes, result_count=10)
    assert a == b


def heap_and_collect_paths(g, prizes, start_count, max_len, result_count, directed_only):
    """The best-first search that keeps a heap of partial paths, each with
    its visited set, and a list of every path found."""
    starts = sorted(g.entity_order, key=lambda v: (-prizes.node_prize(v), v))[:start_count]
    cost = prizes.edge_cost
    outs, ins = out_edges(g), in_edges(g)
    collected, heap, counter = [], [], itertools.count()
    for v in starts:
        score = prizes.node_prize(v)
        collected.append((score, (v,), ()))
        heapq.heappush(heap, (-score, next(counter), (v,), (), frozenset((v,))))
    while heap:
        neg_score, _, nodes, edges, visited = heapq.heappop(heap)
        score = -neg_score
        if len(edges) >= max_len:
            continue
        incident = [(t, t.object) for t in outs[nodes[-1]]]
        if not directed_only:
            incident += [(t, t.subject) for t in ins[nodes[-1]]]
        for t, nxt in incident:
            if nxt in visited:
                continue
            nscore = score + prizes.node_prize(nxt) + prizes.edge_prize(t) - cost
            collected.append((nscore, nodes + (nxt,), edges + (t,)))
            heapq.heappush(
                heap, (-nscore, next(counter), nodes + (nxt,), edges + (t,), visited | {nxt})
            )
    collected.sort(key=lambda item: (-item[0], item[1], item[2]))
    return [ScoredPath(nodes=n, edges=e, score=s) for s, n, e in collected[:result_count]]


def test_paths_match_heap_and_collect_reference():
    rng = random.Random(5003)
    seen = set()
    for _ in range(1500):
        g = random_graph(
            rng, rng.randint(1, 9), rng.randint(0, 20), n_relations=rng.choice([1, 3]),
            allow_self_loops=rng.random() < 0.5,
        )
        if rng.random() < 0.5:
            prizes = random_prizes(rng, g, cost=rng.choice([0.5, 1.0, 2.0]))
        else:  # non-integer prizes, so any change in summation order would show
            prizes = prizes_of(
                {v: rng.random() for v in g.entity_order}, {t: rng.random() for t in g.triples},
                cost=rng.random(),
            )
        start_count, max_len = rng.randint(1, 4), rng.randint(1, 4)
        directed_only = rng.random() < 0.5
        total = len(heap_and_collect_paths(g, prizes, start_count, max_len, 10**9, directed_only))
        result_count = rng.choice([1, rng.randint(1, total), total, total + 3])
        got = retrieve_paths(g, prizes, start_count, max_len, result_count, directed_only)
        want = heap_and_collect_paths(g, prizes, start_count, max_len, result_count, directed_only)
        assert got == want
        assert [p.score.hex() for p in got] == [p.score.hex() for p in want]
        seen.add((directed_only, result_count < total, result_count > total))
        seen.add(("parallel", len({(t.subject, t.object) for t in g.triples}) < len(g.triples)))
        seen.add(("self-loop", any(t.subject == t.object for t in g.triples)))
    assert {(False, True, False), (True, True, False), (False, False, True), (True, False, True)} <= seen
    assert {("parallel", True), ("self-loop", True)} <= seen
    assert retrieve_paths(KnowledgeGraph.from_triples([]), prizes_of()) == []


def string_walk_paths(g, prizes, start_count, max_len, result_count, directed_only):
    """The path search on entity strings and ``Triple`` objects, with a
    dict prize lookup per step: the reference for the integer-id walk."""
    starts = sorted(g.entity_order, key=lambda v: (-prizes.node_prize(v), v))[:start_count]
    cost = prizes.edge_cost
    outs, ins = out_edges(g), in_edges(g)

    def simple_paths():
        stack = [(prizes.node_prize(v), (v,), ()) for v in starts]
        while stack:
            path = stack.pop()
            yield path
            score, nodes, edges = path
            if len(edges) >= max_len:
                continue
            incident = [(t, t.object) for t in outs[nodes[-1]]]
            if not directed_only:
                incident += [(t, t.subject) for t in ins[nodes[-1]]]
            for t, nxt in incident:
                if nxt not in nodes:
                    nscore = score + prizes.node_prize(nxt) + prizes.edge_prize(t) - cost
                    stack.append((nscore, nodes + (nxt,), edges + (t,)))

    best = heapq.nsmallest(result_count, simple_paths(), key=lambda p: (-p[0], p[1], p[2]))
    return [ScoredPath(nodes=nodes, edges=edges, score=score) for score, nodes, edges in best]


path_triples = st.lists(
    st.tuples(st.sampled_from("abcdef"), st.sampled_from(["r1", "r2"]), st.sampled_from("abcdef")),
    max_size=16,
)
# Few distinct values, so tied prizes and tied path scores are common.
path_prizes = st.sampled_from([0.0, 1.0, 2.0, 0.1, 0.7])


@settings(max_examples=400, deadline=None)
@given(
    triples=path_triples,
    isolated=st.lists(st.sampled_from(["x", "y"]), max_size=2),
    node_prizes=st.lists(path_prizes, min_size=8, max_size=8),
    edge_prizes=st.lists(path_prizes, min_size=16, max_size=16),
    cost=st.sampled_from([0.3, 1.0, 2.0]),
    start_count=st.integers(1, 4),
    max_len=st.integers(1, 4),
    result_count=st.integers(1, 30),
    directed_only=st.booleans(),
)
def test_paths_match_string_walk_reference(
    triples, isolated, node_prizes, edge_prizes, cost, start_count, max_len, result_count, directed_only
):
    # Self-loops and parallel edges (same ends, other relation) occur.
    g = KnowledgeGraph.from_triples(triples, extra_entities=["a", *isolated])
    prizes = prizes_of(
        dict(zip("abcdefxy", node_prizes)), dict(zip(g.triples, edge_prizes)), cost=cost
    )
    args = (start_count, max_len, result_count, directed_only)
    got = retrieve_paths(g, prizes, *args)
    want = string_walk_paths(g, prizes, *args)
    assert got == want
    assert [p.score.hex() for p in got] == [p.score.hex() for p in want]


def test_paths_walk_a_chain_longer_than_the_recursion_limit():
    n = 1100
    assert n > sys.getrecursionlimit()
    names = [f"v{i:04d}" for i in range(n)]
    chain = KnowledgeGraph.from_triples(zip(names, ["r"] * n, names[1:]))
    prizes = prizes_of({v: 1.0 for v in names}, cost=0.5)
    best = retrieve_paths(chain, prizes, start_count=1, max_len=n, result_count=2)
    assert [p.nodes for p in best] == [tuple(names), tuple(names[:-1])]
    assert best[0].score == 1.0 + 0.5 * (n - 1)


def networkx_paths(g, prizes, start_count, max_len, result_count, directed_only):
    """The top paths among every path ``nx.all_simple_edge_paths`` finds,
    plus the 0-edge paths, scored in path order."""
    multigraph = nx.MultiDiGraph() if directed_only else nx.MultiGraph()
    multigraph.add_nodes_from(g.entity_order)
    for i, t in enumerate(g.triples):
        multigraph.add_edge(t.subject, t.object, key=i)
    starts = sorted(g.entity_order, key=lambda v: (-prizes.node_prize(v), v))[:start_count]
    scored = []
    for v in starts:
        scored.append((prizes.node_prize(v), (v,), ()))
        others = set(g.entity_order) - {v}
        for path in nx.all_simple_edge_paths(multigraph, v, others, cutoff=max_len):
            score, nodes = prizes.node_prize(v), [v]
            for _, nxt, i in path:
                score = score + prizes.node_prize(nxt) + prizes.edge_prize(g.triples[i]) - prizes.edge_cost
                nodes.append(nxt)
            scored.append((score, tuple(nodes), tuple(g.triples[i] for _, _, i in path)))
    scored.sort(key=lambda item: (-item[0], item[1], item[2]))
    return [ScoredPath(nodes=n, edges=e, score=s) for s, n, e in scored[:result_count]]


def test_paths_match_networkx_simple_edge_paths():
    rng = random.Random(6007)
    seen = set()
    for _ in range(250):
        g = random_graph(
            rng, rng.randint(1, 8), rng.randint(0, 16), n_relations=rng.choice([1, 3]),
            allow_self_loops=True,
        )
        if rng.random() < 0.5:
            prizes = random_prizes(rng, g, cost=rng.choice([0.5, 1.0, 2.0]))
        else:
            prizes = prizes_of(
                {v: rng.random() for v in g.entity_order}, {t: rng.random() for t in g.triples},
                cost=rng.random(),
            )
        args = (
            len(g.entities) + rng.randint(1, 3),  # start_count above |V|
            rng.randint(1, 5),
            rng.randint(1, 50),
            rng.random() < 0.5,
        )
        got = retrieve_paths(g, prizes, *args)
        assert got == networkx_paths(g, prizes, *args)
        seen.add(("parallel", len({(t.subject, t.object) for t in g.triples}) < len(g.triples)))
        seen.add(("self-loop", any(t.subject == t.object for t in g.triples)))
        seen.add(("directed", args[3]))
    assert {("parallel", True), ("self-loop", True), ("directed", True), ("directed", False)} <= seen


# Prizes and costs that are not exact in binary, so near-ties are common and
# a bound summed in another order than the path could round below a tie.
near_tie_prizes = st.sampled_from([0.1, 0.2, 0.3, 0.7])


@settings(max_examples=300, deadline=None)
@given(
    triples=path_triples,
    node_prizes=st.lists(near_tie_prizes, min_size=6, max_size=6),
    edge_prizes=st.lists(near_tie_prizes, min_size=16, max_size=16),
    cost=near_tie_prizes,
    start_count=st.integers(1, 7),
    max_len=st.integers(1, 5),
    result_count=st.integers(1, 50),
    directed_only=st.booleans(),
)
def test_pruning_keeps_near_ties(
    triples, node_prizes, edge_prizes, cost, start_count, max_len, result_count, directed_only
):
    g = KnowledgeGraph.from_triples(triples, extra_entities=["a"])
    prizes = prizes_of(
        dict(zip("abcdef", node_prizes)), dict(zip(g.triples, edge_prizes)), cost=cost
    )
    args = (start_count, max_len, result_count, directed_only)
    got = retrieve_paths(g, prizes, *args)
    want = string_walk_paths(g, prizes, *args)
    assert got == want
    assert [p.score.hex() for p in got] == [p.score.hex() for p in want]


def path_counts(caplog):
    (record,) = [r for r in caplog.records if r.name == "kgr.retrieval"]
    return record.args  # (visited, pruned)


def test_pruning_visits_a_tenth_of_the_paths_on_a_random_graph(caplog):
    rng = random.Random(2503)
    g = random_graph(rng, 250, 1000, n_relations=10)
    nodes, triples = list(g.entity_order), list(g.triples)
    rng.shuffle(nodes)
    rng.shuffle(triples)
    prizes = assign_prizes(nodes, triples, k=15)
    every_path = heap_and_collect_paths(g, prizes, 5, 4, 10**9, False)
    with caplog.at_level(logging.DEBUG, logger="kgr.retrieval"):
        got = retrieve_paths(g, prizes, start_count=5, max_len=4)
    assert got == every_path[:15]
    visited, pruned = path_counts(caplog)
    assert pruned > 0
    assert visited * 10 < len(every_path)


def test_paths_without_pruning_visit_every_path(caplog):
    # With one result slot per path nothing can fall short, so the counts
    # equal the reference's path count.
    rng = random.Random(2521)
    g = random_graph(rng, 9, 20, allow_self_loops=True)
    prizes = random_prizes(rng, g)
    every_path = heap_and_collect_paths(g, prizes, 9, 4, 10**9, False)
    with caplog.at_level(logging.DEBUG, logger="kgr.retrieval"):
        retrieve_paths(g, prizes, start_count=9, max_len=4, result_count=len(every_path))
    assert path_counts(caplog) == (len(every_path), 0)


def test_paths_with_a_huge_max_len_on_a_tiny_graph_return_at_once():
    g = KnowledgeGraph.from_triples([("a", "r", "b"), ("b", "r", "c"), ("c", "r", "a")])
    prizes = prizes_of({"a": 1.0, "b": 2.0, "c": 3.0}, cost=0.5)
    got = retrieve_paths(g, prizes, start_count=3, max_len=10**9, result_count=100)
    assert got == string_walk_paths(g, prizes, 3, 10**9, 100, False)
    assert max(len(p.edges) for p in got) == 2


@pytest.mark.parametrize("bad", [math.inf, -math.inf, 1e308])
def test_paths_with_non_finite_or_huge_prizes_match_the_reference(bad):
    rng = random.Random(2531)
    g = random_graph(rng, 7, 14)
    prizes = random_prizes(rng, g)
    prizes.node_prizes[g.entity_order[2]] = bad
    for result_count in (1, 3, 10):
        got = retrieve_paths(g, prizes, 7, 4, result_count, False)
        want = string_walk_paths(g, prizes, 7, 4, result_count, False)
        assert [(p.nodes, p.edges) for p in got] == [(p.nodes, p.edges) for p in want]
        assert [p.score.hex() for p in got] == [p.score.hex() for p in want]


def test_pcst_star_keeps_center_alone():
    star = KnowledgeGraph.from_triples([("hub", "r", f"leaf{i}") for i in range(4)])
    result = retrieve_subgraph_pcst(star, prizes_of({"hub": 5.0}))
    assert result.subgraph.entities == {"hub"}
    assert result.subgraph.triples == ()
    assert result.score == pytest.approx(5.0)


def test_pcst_picks_best_component():
    g = KnowledgeGraph.from_triples([("A", "r", "B"), ("X", "r", "Y")])
    prizes = prizes_of({"A": 4.0, "B": 3.0, "X": 2.0, "Y": 2.0})
    result = retrieve_subgraph_pcst(g, prizes)
    assert result.subgraph.entities == {"A", "B"}
    assert result.score == pytest.approx(6.0)
    assert_connected(result.subgraph)


def test_pcst_no_prizes_degenerates_to_hub_node():
    star = KnowledgeGraph.from_triples([("hub", "r", f"leaf{i}") for i in range(3)])
    result = retrieve_subgraph_pcst(star, prizes_of())
    assert result.subgraph.entities == {"hub"}
    assert result.score == 0.0


def test_pcst_without_a_positive_prize_keeps_the_best_single_entity():
    g = KnowledgeGraph.from_triples([("a", "r", "b"), ("b", "r", "c")])
    prizes = prizes_of({"b": -3.0})
    result = retrieve_subgraph_pcst(g, prizes)
    assert (result.subgraph.entities, result.subgraph.triples, result.score) == ({"a"}, (), 0.0)
    assert brute_force_best_subgraph(g, prizes).score == 0.0
    # The highest prize wins, then the highest degree, then the smallest id.
    for node_prizes, best in (({"a": -2.0, "b": -2.0, "c": -1.0}, "c"), ({"a": -1.0, "b": -1.0, "c": -1.0}, "b")):
        result = retrieve_subgraph_pcst(g, prizes_of(node_prizes))
        assert (result.subgraph.entities, result.score) == ({best}, node_prizes[best])


def test_pcst_matches_the_oracle_on_non_positive_prizes():
    rng = random.Random(6131)
    for _ in range(200):
        g = random_graph(rng, rng.randint(1, 8), rng.randint(0, 14), allow_self_loops=rng.random() < 0.5)
        cost = rng.choice([0.5, 1.0, 2.0])
        prizes = prizes_of(
            {v: -rng.choice([0.0, 1.0, rng.random() * 3]) for v in g.entity_order if rng.random() < 0.7},
            {t: rng.choice([0.0, cost, rng.random() * cost]) for t in g.triples if rng.random() < 0.5},
            cost=cost,
        )
        got = retrieve_subgraph_pcst(g, prizes)
        assert got.score == brute_force_best_subgraph(g, prizes).score
        outs, ins = out_edges(g), in_edges(g)
        best = min(g.entity_order, key=lambda v: (-prizes.node_prize(v), -len(outs[v]) - len(ins[v]), v))
        assert (got.subgraph.entity_order, got.subgraph.triples) == ((best,), ())
        assert got.score == prizes.node_prize(best)


def test_pcst_expensive_edge_keeps_single_node():
    g = KnowledgeGraph.from_triples([("A", "r", "B")])
    result = retrieve_subgraph_pcst(g, prizes_of({"A": 1.0, "B": 1.0}, cost=5.0))
    assert len(result.subgraph.entities) == 1
    assert result.score == pytest.approx(1.0)


def test_pcst_edge_prize_pays_for_crossing():
    g = KnowledgeGraph.from_triples([("A", "r", "B")])
    t = Triple("A", "r", "B")
    result = retrieve_subgraph_pcst(g, prizes_of({}, {t: 3.0}, cost=1.0))
    assert result.subgraph.entities == {"A", "B"}
    assert result.subgraph.triples == (t,)
    assert result.score == pytest.approx(2.0)


def test_pcst_near_optimal_and_connected_on_random_instances():
    rng = random.Random(83)
    for _ in range(30):
        g = random_graph(rng, rng.randint(2, 10), rng.randint(1, 20))
        prizes = random_prizes(rng, g, cost=rng.choice([0.5, 1.0, 2.0]))
        got = retrieve_subgraph_pcst(g, prizes)
        opt = brute_force_best_subgraph(g, prizes)
        assert got.score <= opt.score + 1e-9
        assert got.score >= 0.9 * opt.score - 1e-9
        assert_connected(got.subgraph)


def test_pcst_scale_equivariant():
    rng = random.Random(89)
    g = random_graph(rng, 9, 16)
    prizes = random_prizes(rng, g)
    doubled = PrizeAssignment(
        node_prizes={v: 2.0 * p for v, p in prizes.node_prizes.items()},
        edge_prizes={t: 2.0 * p for t, p in prizes.edge_prizes.items()},
        edge_cost=2.0 * prizes.edge_cost,
        k=prizes.k,
    )
    a = retrieve_subgraph_pcst(g, prizes)
    b = retrieve_subgraph_pcst(g, doubled)
    assert b.subgraph == a.subgraph
    assert b.score == pytest.approx(2.0 * a.score)


def test_oracles_refuse_large_graphs():
    rng = random.Random(97)
    g = random_graph(rng, 11, 15)
    with pytest.raises(ValueError):
        brute_force_best_path(g, prizes_of())
    with pytest.raises(ValueError):
        brute_force_best_subgraph(g, prizes_of())


def test_scored_path_validates_lengths():
    with pytest.raises(ValueError):
        ScoredPath(nodes=("A", "B"), edges=(), score=0.0)


def test_retrieved_knowledge_exactly_one_payload():
    with pytest.raises(ValueError):
        RetrievedKnowledge(variant="triplets", prize_k=15, edge_cost=1.0)
    with pytest.raises(ValueError):
        RetrievedKnowledge(
            variant="triplets",
            prize_k=15,
            edge_cost=1.0,
            triplets=(),
            paths=(),
        )
    with pytest.raises(ValueError):
        RetrievedKnowledge(variant="nonsense", prize_k=15, edge_cost=1.0, triplets=())


def test_retrieve_wrapper_and_json_round_trip():
    rng = random.Random(101)
    g = random_graph(rng, 8, 14)
    prizes = random_prizes(rng, g)
    for variant in ("triplets", "paths", "subgraph"):
        result = retrieve(g, prizes, variant=variant)
        assert result.variant == variant
        restored = retrieved_from_json_dict(result.to_json_dict())
        assert restored == result
        assert restored.retrieved_triples() == result.retrieved_triples()
    with pytest.raises(ValueError):
        retrieve(g, prizes, variant="bogus")


def test_json_records_of_the_wrong_shape_are_rejected():
    base = {"prize_k": 15, "edge_cost": 1.0}
    path = {"nodes": ["A"], "triples": []}
    for record, message in [
        ({"variant": "subgraph", "items": [], "scores": []}, "one item, not 0"),
        ({"variant": "subgraph", "items": [path, path], "scores": [1.0, 2.0]}, "one item, not 2"),
        ({"variant": "triplets", "items": [["A", "r", "B"]], "scores": []}, "1 items but 0 scores"),
        ({"variant": "paths", "items": [path], "scores": [1.0, 2.0]}, "1 items but 2 scores"),
        ({"variant": "triplets", "items": ["xyz"], "scores": [1.0]}, "a triple must be a list of three"),
        ({"variant": "triplets", "items": [["A", "r", 3]], "scores": [1.0]}, "a triple must be"),
        ({"variant": "triplets", "items": [["A", "", "B"]], "scores": [1.0]}, "a triple must be"),
        ({"variant": "paths", "items": [{**path, "nodes": "ab"}], "scores": [1.0]}, "nodes must be a list"),
        ({"variant": "paths", "items": [{**path, "triples": ["xyz"]}], "scores": [1.0]}, "a triple must be"),
        ({"variant": "subgraph", "items": [{**path, "nodes": "ab"}], "scores": [1.0]}, "nodes must be a list"),
        ({"variant": "subgraph", "items": [{**path, "triples": ["xyz"]}], "scores": [1.0]}, "a triple must be"),
    ]:
        with pytest.raises(ValueError, match=message):
            retrieved_from_json_dict({**record, **base})


def test_retrieved_triples_per_variant():
    prizes = prizes_of({"A": 3.0, "B": 2.0, "C": 1.0})
    t_ab, t_bc = Triple("A", "r", "B"), Triple("B", "r", "C")
    trip = retrieve(CHAIN, prizes, variant="triplets", n=1)
    assert trip.retrieved_triples() == {t_ab}
    paths = retrieve(CHAIN, prizes, variant="paths", n=2)
    assert paths.retrieved_triples() == {t_ab, t_bc}
    sub = retrieve(CHAIN, prizes, variant="subgraph")
    assert sub.retrieved_triples() <= {t_ab, t_bc}


def test_pcst_enters_components_the_top_roots_miss():
    # The top three prize carriers are isolated nodes; the best subgraph
    # lies in a component none of them reaches.
    r0, r1, r2 = "r0", "r1", "r2"
    t16, t48, t81, t93 = (
        Triple("e1", r0, "e6"),
        Triple("e4", r1, "e8"),
        Triple("e8", r2, "e1"),
        Triple("e9", r2, "e3"),
    )
    g = KnowledgeGraph.from_triples(
        [t16, t48, t81, t93], extra_entities=[f"e{i}" for i in range(10)]
    )
    prizes = prizes_of(
        {"e0": 4, "e2": 4, "e5": 4, "e9": 4, "e4": 3, "e7": 3, "e1": 2, "e3": 2, "e6": 2, "e8": 1},
        {t16: 2, t81: 1},
    )
    got = retrieve_subgraph_pcst(g, prizes)
    assert brute_force_best_subgraph(g, prizes).score == 8.0
    assert got.score == 8.0
    assert got.subgraph.entities == {"e1", "e4", "e6", "e8"}


def full_scan_expand(g, prizes, nodes, triples):
    """The greedy attachment that scans every triple in every round."""
    while True:
        best = None
        for t in g.triples:
            if t in triples or not (t.subject in nodes or t.object in nodes):
                continue
            marginal = prizes.edge_prize(t) - prizes.edge_cost
            if t.subject not in nodes:
                marginal += prizes.node_prize(t.subject)
            if t.object not in nodes:
                marginal += prizes.node_prize(t.object)
            if marginal > 0.0 and (best is None or (-marginal, t) < (-best[0], best[1])):
                best = (marginal, t)
        if best is None:
            return
        triples.add(best[1])
        nodes.update((best[1].subject, best[1].object))


def test_greedy_expansion_matches_full_scan():
    rng = random.Random(3090)
    grown = 0
    for _ in range(200):
        g = random_graph(rng, rng.randint(2, 15), rng.randint(1, 40), allow_self_loops=True)
        prizes = random_prizes(rng, g, cost=rng.choice([0.5, 1.0, 2.0]))
        start = set(rng.sample(g.triples, rng.randint(0, min(3, len(g.triples)))))
        nodes = {v for t in start for v in (t.subject, t.object)} or {rng.choice(g.entity_order)}
        expected_nodes, expected_triples = set(nodes), set(start)
        full_scan_expand(g, prizes, expected_nodes, expected_triples)
        # The library expands entity and triple id sets.
        node_ids = {g.entity_index[v] for v in nodes}
        triple_ids = {g.triples.index(t) for t in start}
        _expand_greedily(_transformed_graph(g, prizes), node_ids, triple_ids)
        nodes = {g.entity_order[v] for v in node_ids}
        start = {g.triples[t] for t in triple_ids}
        assert (nodes, start) == (expected_nodes, expected_triples)
        grown += len(start) > 3
    assert grown > 20


def test_best_subtree_adds_child_gains_in_join_order():
    # (0.2 + 0.1) + 0.3 rounds above (0.2 + 0.3) + 0.1.  Node 3 ties the
    # first sum exactly, so node 0 tops the best subtree (smaller id) only
    # when the gains of its children 1 and 2 are added in the order they
    # joined the tree; in the other order node 3 would win alone.
    # The tree is given as its join order and each position's link
    # ``(parent position, cost, triple id)``.
    order, links = [0, 1, 2, 3], [None, (0, 0.0, 0), (0, 0.0, 0), (0, 1.0, 0)]
    assert set(_best_subtree(order, links, [0.2, 0.1, 0.3, 0.2 + 0.1 + 0.3])) == {0, 1, 2}


# Reference PCST with the same rules written plainly: transformed-graph
# nodes keyed by ("n", entity) / ("v", triple) tuples, a heap push for
# every edge seen, a DFS order and a sort for the best-subtree pick, and
# the full-scan greedy attachment.  The score is the exact sum of its
# float terms, rounded once (see ``exact_sum``).


def exact_sum(terms) -> float:
    """The exact sum of finite floats rounded to the nearest float: what
    ``math.fsum`` returns when it does not overflow, and +-inf past the
    float range."""
    total = sum(map(Fraction, terms), Fraction(0))
    try:
        return float(total)
    except OverflowError:
        return math.inf if total > 0 else -math.inf


def tuple_keyed_pcst(g, prizes):
    cost = prizes.edge_cost
    adjacency = {("n", e): [] for e in g.entities}
    prize_of = {("n", e): prizes.node_prize(e) for e in g.entities}
    for t in g.triples:
        s_key, o_key = ("n", t.subject), ("n", t.object)
        reduced = cost - prizes.edge_prize(t)
        if reduced >= 0.0:
            adjacency[s_key].append((o_key, reduced, t))
            adjacency[o_key].append((s_key, reduced, t))
        else:
            v_key = ("v", t)
            prize_of[v_key] = -reduced
            adjacency[v_key] = [(s_key, 0.0, t), (o_key, 0.0, t)]
            adjacency[s_key].append((v_key, 0.0, t))
            adjacency[o_key].append((v_key, 0.0, t))

    def grow_tree(root, greedy_prizes):
        def priority(c, node):
            return c - prize_of[node] if greedy_prizes else c

        parent = {root: None}
        heap, counter = [], itertools.count()
        for other, c, t in adjacency[root]:
            heapq.heappush(heap, (priority(c, other), next(counter), other, root, c, t))
        while heap:
            _, _, node, par, c, t = heapq.heappop(heap)
            if node in parent:
                continue
            parent[node] = (par, c, t)
            for other, oc, ot in adjacency[node]:
                if other not in parent:
                    heapq.heappush(heap, (priority(oc, other), next(counter), other, node, oc, ot))
        return parent

    def best_subtree(parent, root):
        children = {n: [] for n in parent}
        for node, link in parent.items():
            if link is not None:
                children[link[0]].append(node)
        order, stack = [], [root]
        while stack:
            node = stack.pop()
            order.append(node)
            stack.extend(children[node])
        down, kept_children = {}, {}
        for node in reversed(order):
            value, kept = prize_of[node], []
            for child in children[node]:
                if down[child] - parent[child][1] > 0.0:
                    value += down[child] - parent[child][1]
                    kept.append(child)
            down[node], kept_children[node] = value, kept
        top = max(sorted(down), key=lambda n: down[n])
        selected, stack = {top}, [top]
        while stack:
            for child in kept_children[stack.pop()]:
                selected.add(child)
                stack.append(child)
        return selected

    def from_selection(parent, selected):
        nodes = {key[1] for key in selected if key[0] == "n"}
        triples = set()
        for key in selected:
            if key[0] == "v":
                triples.add(key[1])
                nodes.update((key[1].subject, key[1].object))
            else:
                link = parent.get(key)
                if link is not None and link[0] in selected and link[2] is not None:
                    triples.add(link[2])
        full_scan_expand(g, prizes, nodes, triples)
        score = exact_sum(
            [*(prizes.node_prize(v) for v in nodes), *(prizes.edge_prize(t) - cost for t in triples)]
        )
        return nodes, triples, score

    prized = sorted((k for k, p in prize_of.items() if p > 0.0), key=lambda k: (-prize_of[k], k))
    if not prized:
        outs, ins = out_edges(g), in_edges(g)
        degree = {v: len(outs[v]) + len(ins[v]) for v in g.entity_order}
        best = min(g.entity_order, key=lambda v: (-prizes.node_prize(v), -degree[v], v))
        return ScoredSubgraph(KnowledgeGraph.from_triples((), extra_entities=(best,)), prizes.node_prize(best) + 0.0)
    best_result, reached = None, set()
    for i, root in enumerate(prized):
        if i >= 3 and root in reached:
            continue
        for greedy_prizes in (True, False):
            parent = grow_tree(root, greedy_prizes)
            reached.update(parent)
            nodes, triples, score = from_selection(parent, best_subtree(parent, root))
            key = (-score, tuple(sorted(nodes)), tuple(sorted(triples)))
            if best_result is None or key < best_result[0]:
                best_result = (key, nodes, triples, score)
    _, nodes, triples, score = best_result
    return ScoredSubgraph(KnowledgeGraph.from_triples(triples, extra_entities=nodes), score)


def component_count(g):
    adj = neighbor_sets(g)
    seen, count = set(), 0
    for v in g.entity_order:
        if v in seen:
            continue
        count += 1
        seen.add(v)
        stack = [v]
        while stack:
            for u in adj[stack.pop()]:
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
    return count


def test_pcst_matches_tuple_keyed_reference():
    rng = random.Random(6029)
    seen = set()
    for _ in range(2400):
        g = random_graph(
            rng, rng.randint(1, 12), rng.randint(0, 26), n_relations=rng.choice([1, 3]),
            allow_self_loops=rng.random() < 0.5,
        )
        cost = rng.choice([0.3, 0.5, 1.0, 2.0])
        style = rng.choice(["integer", "fractional", "none"])
        if style == "none":
            prizes = prizes_of(cost=cost)
        elif style == "integer":
            prizes = prizes_of(
                {v: float(rng.randint(0, 5)) for v in g.entity_order if rng.random() < 0.6},
                {t: rng.choice([0.5 * cost, cost, 2.0 * cost, float(rng.randint(1, 4))])
                 for t in g.triples if rng.random() < 0.4},
                cost=cost,
            )
        else:  # non-integer prizes: the score's summation order would show
            prizes = prizes_of(
                {v: rng.random() * 3 for v in g.entity_order if rng.random() < 0.7},
                {t: rng.random() * 3 for t in g.triples if rng.random() < 0.5},
                cost=cost,
            )
        got = retrieve_subgraph_pcst(g, prizes)
        want = tuple_keyed_pcst(g, prizes)
        assert got.subgraph.entities == want.subgraph.entities
        assert got.subgraph.triples == want.subgraph.triples
        assert got.score.hex() == want.score.hex()
        seen.add((style, cost))
        seen.add(("self-loop", any(t.subject == t.object for t in g.triples)))
        seen.add(("parallel", len({(t.subject, t.object) for t in g.triples}) < len(g.triples)))
        seen.add(("isolated", not all(neighbor_sets(g).values())))
        seen.add(("components", min(component_count(g), 3)))
        for t, p in prizes.edge_prizes.items():
            seen.add(("edge prize", (p > cost) - (p < cost)))
    assert {(s, c) for s in ("integer", "fractional", "none") for c in (0.3, 0.5, 1.0, 2.0)} <= seen
    assert {("self-loop", True), ("parallel", True), ("isolated", True)} <= seen
    assert {("components", 1), ("components", 2), ("components", 3)} <= seen
    assert {("edge prize", -1), ("edge prize", 0), ("edge prize", 1)} <= seen


pcst_triples = st.lists(
    st.tuples(st.sampled_from("abcdefg"), st.sampled_from(["r1", "r2"]), st.sampled_from("abcdefg")),
    max_size=18,
)
prize_values = st.floats(0.0, 5.0, allow_nan=False) | st.integers(0, 5).map(float)


@settings(max_examples=300, deadline=None)
@given(
    triples=pcst_triples,
    isolated=st.lists(st.sampled_from(["x", "y"]), max_size=2),
    node_prizes=st.lists(prize_values, min_size=9, max_size=9),
    edge_prizes=st.lists(prize_values, min_size=18, max_size=18),
    cost=st.sampled_from([0.3, 0.5, 1.0, 2.0]),
)
def test_pcst_result_is_connected_scored_and_beats_any_single_element(
    triples, isolated, node_prizes, edge_prizes, cost
):
    g = KnowledgeGraph.from_triples(triples, extra_entities=["a", *isolated])
    prizes = prizes_of(
        dict(zip("abcdefgxy", node_prizes)), dict(zip(g.triples, edge_prizes)), cost=cost
    )
    result = retrieve_subgraph_pcst(g, prizes)
    sub = result.subgraph
    assert sub.entities <= g.entities and set(sub.triples) <= set(g.triples)
    assert_connected(sub)
    assert result.score == math.fsum(
        [*map(prizes.node_prize, sub.entities), *(prizes.edge_prize(t) - cost for t in sub.triples)]
    )
    singles = [prizes.node_prize(v) for v in g.entities] + [
        math.fsum([*map(prizes.node_prize, {t.subject, t.object}), prizes.edge_prize(t) - cost])
        for t in g.triples
    ]
    assert result.score >= max(singles)


def pcst_counts(caplog):
    """``(trees grown, trees stopped at the last carrier, nodes joined,
    transformed-graph size)`` from the one DEBUG line of a PCST call."""
    (record,) = [r for r in caplog.records if r.name == "kgr.retrieval"]
    return record.args


def assert_same_pcst(g, prizes):
    got, want = retrieve_subgraph_pcst(g, prizes), tuple_keyed_pcst(g, prizes)
    assert got.subgraph.entities == want.subgraph.entities
    assert got.subgraph.triples == want.subgraph.triples
    assert got.score.hex() == want.score.hex()


def test_pcst_trees_stop_at_the_last_carrier_and_match_the_reference(caplog):
    # The prize carriers sit in a small core next to the roots, and a long
    # carrier-free tail hangs off the core: a tree that chases prizes has
    # every carrier long before it could span the tail.
    rng = random.Random(7331)
    early = 0
    for _ in range(300):
        core = rng.randint(2, 6)
        tail = rng.randint(10, 40)
        names = [f"c{i}" for i in range(core)] + [f"t{i:02d}" for i in range(tail)]
        # The core is connected: each core node hangs off an earlier one.
        triples = {(f"c{rng.randrange(i)}", rng.choice(["r0", "r1"]), f"c{i}") for i in range(1, core)}
        triples.update((f"c{i}", "r1", f"c{rng.randrange(core)}") for i in range(core))
        for i in range(tail):  # each tail node hangs off the core or an earlier tail node
            up = names[rng.randrange(core + i)]
            triples.add((up, rng.choice(["r0", "r1"]), names[core + i]))
        triples.update(
            (rng.choice(names), "r1", rng.choice(names[core:])) for _ in range(rng.randint(0, tail // 2))
        )
        g = KnowledgeGraph.from_triples(triples, extra_entities=names)
        cost = rng.choice([0.3, 0.5, 1.0, 2.0])
        fractional = rng.random() < 0.5
        value = (lambda: rng.random() * 3) if fractional else (lambda: float(rng.randint(1, 5)))
        core_triples = [t for t in g.triples if t.subject in names[:core] and t.object in names[:core]]
        prizes = prizes_of(
            {v: value() for v in names[:core] if rng.random() < 0.8},
            {t: value() for t in core_triples if rng.random() < 0.4},
            cost=cost,
        )
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="kgr.retrieval"):
            assert_same_pcst(g, prizes)
        if not prizes.node_prizes and all(p <= cost for p in prizes.edge_prizes.values()):
            continue  # no carrier, so no tree
        grown, stopped, joined, size = pcst_counts(caplog)
        assert stopped == grown  # one component holds every carrier
        assert joined <= grown * size
        early += joined < grown * size - tail
    assert early > 250


def test_pcst_roots_past_the_top_three_enter_the_components_they_miss(caplog):
    # The top three carriers share one component; lower carriers spread
    # over components no tree from the top three reaches.
    rng = random.Random(7349)
    for _ in range(200):
        parts = rng.randint(3, 6)
        triples, names, prized = set(), [], {}
        for c in range(parts):
            size = rng.randint(1, 6)
            part = [f"p{c}n{i}" for i in range(size)]
            names += part
            # Connected: each node hangs off an earlier one, plus random extras.
            triples.update((part[rng.randrange(i)], "r0", part[i]) for i in range(1, size))
            triples.update(
                (rng.choice(part), rng.choice(["r0", "r1"]), rng.choice(part)) for _ in range(rng.randint(0, size))
            )
            for v in part:
                if rng.random() < 0.7:
                    prized[v] = 10.0 + rng.random() if c == 0 else rng.random() * 5
        g = KnowledgeGraph.from_triples(triples, extra_entities=names)
        prizes = prizes_of(prized, cost=rng.choice([0.3, 1.0]))
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="kgr.retrieval"):
            assert_same_pcst(g, prizes)
        if not prized:
            continue
        grown, stopped, _, _ = pcst_counts(caplog)
        elsewhere = {v.split("n")[0] for v in prized if not v.startswith("p0n")}
        if elsewhere:  # carriers in several components: no tree holds them all
            assert stopped == 0
        if len([v for v in prized if v.startswith("p0n")]) >= 3:
            assert grown == 2 * (3 + len(elsewhere))


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_pcst_rejects_non_finite_prizes_and_costs(bad):
    g = KnowledgeGraph.from_triples([("a", "r", "b"), ("b", "r", "c")])
    t = Triple("a", "r", "b")
    for prizes in (
        prizes_of({"a": bad, "b": 1.0}),
        prizes_of({"a": 1.0}, {t: bad}),
        prizes_of({"a": 1.0}, cost=bad),
    ):
        with pytest.raises(ValueError, match="must be finite"):
            retrieve_subgraph_pcst(g, prizes)


def test_pcst_with_huge_prizes_matches_the_reference():
    # Prizes of 1e308 are finite, but a score with two of them sums past
    # the float range, where ``math.fsum`` raises: such a candidate scores
    # its exact sum, rounded to inf.
    rng = random.Random(7351)
    outcomes = set()
    for _ in range(400):
        g = random_graph(rng, rng.randint(1, 10), rng.randint(0, 20), allow_self_loops=rng.random() < 0.5)
        value = lambda: rng.choice([1e308, 0.0, rng.random() * 3])
        prizes = prizes_of(
            {v: value() for v in g.entity_order if rng.random() < 0.6},
            {t: value() for t in g.triples if rng.random() < 0.4},
            cost=rng.choice([0.5, 1.0]),
        )
        got, want = retrieve_subgraph_pcst(g, prizes), tuple_keyed_pcst(g, prizes)
        assert (got.subgraph.entities, got.subgraph.triples) == (want.subgraph.entities, want.subgraph.triples)
        assert got.score.hex() == want.score.hex()
        outcomes.add("inf" if math.isinf(got.score) else "huge" if abs(got.score) > 1e300 else "small")
    assert outcomes == {"inf", "huge", "small"}


def test_pcst_scores_with_prizes_of_both_signs_past_the_float_range_are_exact():
    # With -1e308 prizes too, whether ``math.fsum`` overflows depends on the
    # order of its terms; every call returns, and its score is the exact
    # sum of its subgraph's terms, rounded once.
    rng = random.Random(7351)
    outcomes = set()
    for _ in range(400):
        g = random_graph(rng, rng.randint(1, 10), rng.randint(0, 20), allow_self_loops=rng.random() < 0.5)
        value = lambda: rng.choice([1e308, -1e308, 0.0, rng.random() * 3])
        cost = rng.choice([0.5, 1.0])
        prizes = prizes_of(
            {v: value() for v in g.entity_order if rng.random() < 0.6},
            {t: value() for t in g.triples if rng.random() < 0.4},
            cost=cost,
        )
        got = retrieve_subgraph_pcst(g, prizes)
        sub = got.subgraph
        if max([*prizes.node_prizes.values(), *(p - cost for p in prizes.edge_prizes.values()), 0.0]) == 0.0:
            # No prize carrier: one entity alone, scored by its own prize.
            assert (len(sub.entities), sub.triples) == (1, ())
        terms = [*map(prizes.node_prize, sub.entity_order), *(prizes.edge_prize(t) - cost for t in sub.triples)]
        assert got.score.hex() == exact_sum(terms).hex()
        outcomes.add("inf" if math.isinf(got.score) else "huge" if abs(got.score) > 1e300 else "small")
    assert outcomes == {"inf", "huge", "small"}


PCST_SCRIPT = """
import hashlib, random
from kgr import KnowledgeGraph, PrizeAssignment, retrieve_subgraph_pcst
rng = random.Random(7393)
digest = hashlib.sha256()
for _ in range(300):
    names = [f"e{i}" for i in range(rng.randint(2, 30))]
    triples = {(rng.choice(names), rng.choice("rst"), rng.choice(names)) for _ in range(rng.randint(1, 60))}
    g = KnowledgeGraph.from_triples(triples, extra_entities=names)
    value = lambda: rng.choice([1e308, rng.random() * 3, rng.random() * 3])
    prizes = PrizeAssignment(
        {v: value() for v in names if rng.random() < 0.5},
        {t: value() for t in g.triples if rng.random() < 0.3},
        edge_cost=rng.choice([0.3, 0.7, 1.0]),
    )
    try:
        result = retrieve_subgraph_pcst(g, prizes)
        digest.update(repr((result.subgraph.entity_order, result.subgraph.triples, result.score.hex())).encode())
    except OverflowError:
        digest.update(b"overflow")
print(digest.hexdigest())
"""


def test_pcst_bytes_do_not_depend_on_the_hash_seed(tmp_path):
    import os
    import subprocess
    from pathlib import Path

    import kgr

    src = str(Path(kgr.__file__).resolve().parents[1])
    outputs = [
        subprocess.run(
            [sys.executable, "-c", PCST_SCRIPT],
            env={**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": src},
            capture_output=True, text=True, check=True, timeout=120,
        ).stdout
        for hash_seed in ("0", "1")
    ]
    assert outputs[0] == outputs[1] and len(outputs[0]) == 65
