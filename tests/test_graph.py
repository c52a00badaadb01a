"""Graph model: construction invariants, incidence, clustering, stats."""

from __future__ import annotations

import logging
import random
import tracemalloc
from collections import Counter
from itertools import combinations

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import kgr.graph
from kgr.graph import (
    KnowledgeGraph,
    RelationNotFoundError,
    Triple,
    _clustering_cells,
    _keys,
    _triangle_state,
    graph_stats,
    relation_subgraph,
)
from kgr.ingest import khop_subgraph
from kgr.perturb import METHODS, EditRecord, PerturbationSpec, perturb, replay_edit_log
from kgr.ppr import prune_by_ppr
from conftest import assert_same_graph, local_clustering, random_graph

DIAMOND = [
    ("A", "r1", "B"),
    ("A", "r1", "C"),
    ("B", "r2", "D"),
    ("C", "r2", "D"),
]


NODES = [f"e{i}" for i in range(6)]


def _triangle(rel: str = "r") -> KnowledgeGraph:
    return KnowledgeGraph.from_triples(
        [("A", rel, "B"), ("B", rel, "C"), ("C", rel, "A")]
    )


def test_duplicate_triples_collapse():
    g = KnowledgeGraph.from_triples([("A", "r", "B"), ("A", "r", "B")])
    assert g.triples == (Triple("A", "r", "B"),)


def test_construction_is_idempotent_and_sorted():
    rng = random.Random(7)
    for _ in range(25):
        g = random_graph(rng, 12, 25)
        again = KnowledgeGraph.from_triples(g.triples, extra_entities=g.entities)
        assert again == g
        assert list(g.triples) == sorted(g.triples)
        assert list(g.entity_order) == sorted(g.entities)


def test_empty_ids_rejected():
    with pytest.raises(ValueError):
        KnowledgeGraph.from_triples([("A", "", "B")])
    with pytest.raises(ValueError):
        KnowledgeGraph.from_triples([], extra_entities=[""])


@settings(max_examples=200, deadline=None)
@given(
    triples=st.lists(
        st.tuples(st.sampled_from(NODES), st.sampled_from(["r0", "r1", "r2"]), st.sampled_from(NODES)),
        max_size=20,
    ),
    isolated=st.lists(st.sampled_from(["lone0", "lone1"]), max_size=2),
    data=st.data(),
)
def test_from_triples_ignores_input_order_and_repeats(triples, isolated, data):
    g = KnowledgeGraph.from_triples(triples, extra_entities=isolated)
    repeats = data.draw(st.lists(st.sampled_from(triples), max_size=10)) if triples else []
    shuffled = data.draw(st.permutations(triples + repeats))
    h = KnowledgeGraph.from_triples(shuffled, extra_entities=isolated)
    assert h.triples == g.triples
    assert h.entities == g.entities and h.relations == g.relations
    assert_same_graph(h, g)


def test_endpoints_always_in_entity_set():
    rng = random.Random(11)
    for _ in range(20):
        g = random_graph(rng, 10, 20)
        for t in g.triples:
            assert t.subject in g.entities
            assert t.object in g.entities
            assert t.relation in g.relations


@settings(max_examples=300, deadline=None)
@given(
    triples=st.lists(
        st.tuples(st.sampled_from(NODES), st.sampled_from(["r0", "r1", "r2"]), st.sampled_from(NODES)),
        max_size=20,
    ),
    isolated=st.lists(st.sampled_from(NODES + ["lone0", "lone1"]), max_size=3),
    fill=st.sampled_from(["random", "none", "all"]),
    data=st.data(),
)
def test_induced_matches_from_triples_on_endpoint_closed_masks(triples, isolated, fill, data):
    # Graphs without triples, isolated entities, self-loops and parallel
    # edges all occur; the masks may keep nothing or everything.
    g = KnowledgeGraph.from_triples(triples, extra_entities=isolated)
    n, m = len(g.entity_order), len(g.triples)
    if fill == "random":
        entity_mask = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
        dropped = np.array(data.draw(st.lists(st.booleans(), min_size=m, max_size=m)), dtype=bool)
    else:
        entity_mask = np.full(n, fill == "all")
        dropped = np.zeros(m, dtype=bool)
    subjects, objects = g.endpoint_ids
    triple_mask = entity_mask[subjects] & entity_mask[objects] & ~dropped
    child = g._induced(triple_mask, entity_mask)
    kept_entities = [e for e, keep in zip(g.entity_order, entity_mask) if keep]
    kept_triples = [t for t, keep in zip(g.triples, triple_mask) if keep]
    assert_same_graph(child, KnowledgeGraph.from_triples(kept_triples, extra_entities=kept_entities))
    if fill == "all":
        assert_same_graph(child, g)


def test_induced_keeps_only_the_relations_its_triples_use():
    # r1 is an orphan of the parent; each child keeps one of r0 and r2,
    # so its relation ids are renumbered from 0.
    g = KnowledgeGraph.from_triples([("a", "r0", "b"), ("b", "r2", "c")], extra_relations=["r1"])
    everyone = np.ones(3, dtype=bool)
    for kept in range(2):
        triple_mask = np.arange(2) == kept
        child = g._induced(triple_mask, everyone)
        assert child.relations == {g.triples[kept].relation}
        assert child.relation_ids.tolist() == [0]
        assert_same_graph(child, KnowledgeGraph.from_triples([g.triples[kept]], extra_entities="abc"))


@settings(max_examples=300, deadline=None)
@given(
    triples=st.lists(
        st.tuples(st.sampled_from(NODES), st.sampled_from(["r0", "r1", "r2"]), st.sampled_from(NODES)),
        max_size=20,
    ),
    isolated=st.lists(st.sampled_from(["lone0", "lone1"]), max_size=2),
)
@example(triples=[("e0", "r0", "e0"), ("e0", "r1", "e1")], isolated=["lone0"])
@example(triples=[], isolated=[])
def test_incidence_matches_a_linear_scan(triples, isolated):
    # Self-loops, parallel edges, isolated entities and graphs without
    # triples all occur.
    g = KnowledgeGraph.from_triples(triples, extra_entities=isolated)
    indptr, triple_ids = g.incidence
    assert indptr.dtype == triple_ids.dtype == np.intp
    for ids in (indptr, triple_ids):
        assert not ids.flags.writeable
        with pytest.raises(ValueError):
            ids[:1] = 0
    assert len(indptr) == len(g.entity_order) + 1 and indptr[0] == 0
    for i, v in enumerate(g.entity_order):
        # A self-loop touches its entity twice, so it is listed twice.
        expected = [j for j, t in enumerate(g.triples) for end in (t.subject, t.object) if end == v]
        got = triple_ids[indptr[i] : indptr[i + 1]].tolist()
        assert got == expected and got == sorted(got)
        if v in isolated:
            assert got == []
    out_degree = Counter(t.subject for t in g.triples)
    in_degree = Counter(t.object for t in g.triples)
    assert np.diff(indptr).tolist() == [out_degree[v] + in_degree[v] for v in g.entity_order]


def _one_relation(g: KnowledgeGraph) -> KnowledgeGraph:
    """``g`` with every triple relabeled to one relation, so that its
    ``mean_relation_clustering`` is the per-node clustering of ``g``."""
    return KnowledgeGraph.from_triples(
        ((s, "r", o) for s, _, o in g.triples), extra_entities=g.entities
    )


def test_clustering_triangle_and_star():
    tri = _triangle()
    for v in "ABC":
        assert local_clustering(tri, v) == 1.0
    assert list(tri.mean_relation_clustering) == [1.0, 1.0, 1.0]
    assert graph_stats(tri).clustering_coefficient == 1.0
    star = KnowledgeGraph.from_triples(
        [("hub", "r", f"leaf{i}") for i in range(4)]
    )
    assert local_clustering(star, "hub") == 0.0
    assert not star.mean_relation_clustering.any()
    assert graph_stats(star).clustering_coefficient == 0.0


def test_clustering_matches_neighbor_pair_count():
    # Oracle: count adjacent neighbor pairs over the undirected simple
    # projection directly from the triple list.
    rng = random.Random(19)
    for _ in range(25):
        g = random_graph(rng, 10, 22, allow_self_loops=True)
        und = {
            frozenset((s, o)) for s, _, o in g.triples if s != o
        }
        per_node = _one_relation(g).mean_relation_clustering
        for i, v in enumerate(g.entity_order):
            nbrs = {next(iter(e - {v})) for e in und if v in e}
            deg = len(nbrs)
            if deg < 2:
                expected = 0.0
            else:
                tri = sum(
                    1 for a, b in combinations(sorted(nbrs), 2)
                    if frozenset((a, b)) in und
                )
                expected = 2.0 * tri / (deg * (deg - 1))
            got = local_clustering(g, v)
            assert got == pytest.approx(expected)
            assert 0.0 <= got <= 1.0
            assert per_node[i] == got


def test_triple_keys_sort_as_the_id_triples_without_overflow():
    # int64 up to |V|**2 * |R| = 2**62, Python ints above 2**63.
    rng = random.Random(5)
    for n, k in ((7, 3), (2**21, 2**20), (2**32, 5)):
        ids = [(rng.randrange(n), rng.randrange(k), rng.randrange(n)) for _ in range(200)]
        ids += [(n - 1, k - 1, n - 1), (0, 0, 0), (-1, 0, 0), (0, -1, 0), (0, 0, -1)]
        keys = _keys(n, k, *(np.array(column, dtype=np.intp) for column in zip(*ids)))
        assert keys.dtype == (object if n * n * k >= 2**63 else np.int64)
        assert keys.tolist() == [(s * k + r) * n + o if min(s, r, o) >= 0 else -1 for s, r, o in ids]
        valid = range(len(ids) - 3)
        assert sorted(valid, key=keys.__getitem__) == sorted(valid, key=ids.__getitem__)


def assert_id_vocabulary(g: KnowledgeGraph) -> None:
    """The graph's relation order, index and ids and its triple keys equal
    a rebuild from the strings, and ``_find``/``_locate`` agree with a set
    of its triples on every id triple and on unknown names."""
    order = tuple(sorted(g.relations))
    entity_index = {e: i for i, e in enumerate(sorted(g.entities))}
    relation_index = {r: i for i, r in enumerate(order)}
    n, k = len(entity_index), len(order)
    assert g.relation_order == order
    assert g.relation_index == relation_index
    assert g.relation_ids.tolist() == [relation_index[t.relation] for t in g.triples]
    assert g.triple_keys.tolist() == [
        (entity_index[s] * k + relation_index[r]) * n + entity_index[o] for s, r, o in g.triples
    ]
    assert not g.triple_keys.flags.writeable
    present = {t: i for i, t in enumerate(g.triples)}
    names, labels = (*g.entity_order, "zz"), (*order, "r9")
    probes = [Triple(s, r, o) for s in names for r in labels for o in names]
    assert g._locate(probes).tolist() == [present.get(t, -1) for t in probes]
    ids = [(s, r, o) for s in range(-1, n) for r in range(-1, k) for o in range(-1, n)]
    found = g._find(*(np.array(column, dtype=np.intp) for column in zip(*ids)))
    assert found.dtype == np.intp
    assert found.tolist() == [
        present.get((g.entity_order[s], order[r], g.entity_order[o]), -1) if min(s, r, o) >= 0 else -1
        for s, r, o in ids
    ]


LABELS = ["r0", "r1", "r2"]


@st.composite
def graphs_and_logs(draw):
    """A graph with maybe isolated entities and orphan labels, and an
    applicable edit log whose additions may bring a new label (r1a sorts
    between the graph's) or empty a relation."""
    triple = st.tuples(st.sampled_from(NODES), st.sampled_from(LABELS), st.sampled_from(NODES))
    g = KnowledgeGraph.from_triples(
        draw(st.lists(triple, max_size=16)),
        extra_entities=draw(st.lists(st.sampled_from(NODES + ["lone0"]), max_size=2)),
        extra_relations=draw(st.lists(st.sampled_from(LABELS + ["r3"]), max_size=2)),
    )
    log = []
    for t in draw(st.lists(st.sampled_from(g.triples), unique=True, max_size=4)) if g.triples else []:
        op = draw(st.sampled_from(["edge_delete", "relation_replace", "edge_rewire"]))
        if op == "edge_delete":
            log.append(EditRecord(op, t, None))
        elif op == "relation_replace":
            relation = draw(st.sampled_from(LABELS + ["r1a", "r9"]))
            log.append(EditRecord(op, t, t._replace(relation=relation)))
        else:
            log.append(EditRecord(op, t, t._replace(object=draw(st.sampled_from(g.entity_order)))))
    return g, log


TWO = KnowledgeGraph.from_triples([("e0", "r0", "e1"), ("e1", "r2", "e2")], extra_entities=["lone0"])


@settings(max_examples=200, deadline=None)
@given(case=graphs_and_logs())
@example(case=(KnowledgeGraph.from_triples([]), []))
# A relation label the graph lacks.
@example(case=(TWO, [EditRecord("relation_replace", TWO.triples[0], Triple("e0", "r1", "e1"))]))
# A relation emptied, so the ids of the labels after it shift.
@example(case=(TWO, [EditRecord("edge_delete", TWO.triples[0], None)]))
def test_children_carry_the_id_vocabulary_of_their_strings(case):
    # Extracted, pruned, perturbed and replayed children are handed their
    # relation order and id arrays instead of rebuilding them.
    g, log = case
    family = [g, replay_edit_log(g, log)]
    for seed in g.entity_order[:2]:
        family += [khop_subgraph(g, [seed], hops) for hops in (0, 1)]
    family.append(prune_by_ppr(g, {e: float(i % 2) for i, e in enumerate(g.entity_order)}, 0.5))
    family += [perturb(g, PerturbationSpec(method, 0.5, 3)).graph for method in METHODS]
    for h in family:
        assert_id_vocabulary(h)


def unique_clustering(size: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The dense forward-algorithm kernel as it was with ``np.unique`` for
    the simple edges, kept as a reference for the triangle state's bytes."""
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    keep = lo != hi
    pairs = np.unique(lo[keep] * size + hi[keep])
    lo, hi = np.divmod(pairs, size)
    deg = np.bincount(lo, minlength=size) + np.bincount(hi, minlength=size)
    up = deg[lo] <= deg[hi]
    src, dst = np.where(up, lo, hi), np.where(up, hi, lo)
    order = np.argsort(src)
    src, dst = src[order], dst[order]
    later = np.searchsorted(src, src, side="right") - np.arange(len(src)) - 1
    i = np.repeat(np.arange(len(src)), later)
    j = i + 1 + np.arange(len(i)) - np.repeat(np.cumsum(later) - later, later)
    u, w = dst[i], dst[j]
    wanted = np.minimum(u, w) * size + np.maximum(u, w)
    found = pairs[np.minimum(np.searchsorted(pairs, wanted), len(pairs) - 1)] == wanted
    tri = np.bincount(np.concatenate((src[i[found]], u[found], w[found])), minlength=size)
    c = np.zeros(size, dtype=np.float64)
    wedged = deg >= 2
    c[wedged] = 2.0 * tri[wedged] / (deg[wedged] * (deg[wedged] - 1))
    return c


def dense_clustering(size: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Every node's clustering, read off the triangle state."""
    c = np.zeros(size, dtype=np.float64)
    nodes, values = _clustering_cells(_triangle_state(size, a, b), size)
    c[nodes] = values
    return c


@settings(max_examples=300, deadline=None)
@given(
    size=st.integers(1, 9),
    edges=st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)), max_size=40),
)
@example(size=3, edges=[])
@example(size=3, edges=[(0, 0), (1, 1), (2, 2)])  # self-loops only: no simple edge
@example(size=3, edges=[(0, 1), (1, 0), (0, 1), (1, 2), (2, 1), (2, 0), (0, 2)])  # repeats both ways
def test_clustering_matches_the_unique_kernel_bit_for_bit(size, edges):
    a = np.array([u % size for u, _ in edges], dtype=np.intp)
    b = np.array([w % size for _, w in edges], dtype=np.intp)
    got = dense_clustering(size, a, b)
    assert got.dtype == np.float64 and got.tobytes() == unique_clustering(size, a, b).tobytes()
    # The state itself: both directions of each simple edge, and each triangle once.
    simple = {(min(u, w), max(u, w)) for u, w in zip(a.tolist(), b.tolist()) if u != w}
    state = _triangle_state(size, a, b)
    assert state.keys.tolist() == sorted(u * size + w for p in simple for u, w in (p, p[::-1]))
    assert state.rows.tolist() == [
        [u, v, w] for u, v, w in combinations(range(size), 3)
        if {(u, v), (u, w), (v, w)} <= simple
    ]


def test_clustering_of_self_loops_and_repeated_edges():
    # A relation block of self-loops only has an empty simple projection.
    loops = KnowledgeGraph.from_triples(
        [("A", "loop", "A"), ("B", "loop", "B"), ("A", "r", "B"), ("B", "r", "C"), ("C", "r", "A")]
    )
    assert loops.mean_relation_clustering.tolist() == [0.5, 0.5, 0.5]
    empty = np.zeros(0, dtype=np.intp)
    assert dense_clustering(0, empty, empty).tolist() == []
    assert dense_clustering(2, np.array([0, 1]), np.array([0, 1])).tolist() == [0.0, 0.0]
    # Duplicate and antiparallel edges count once in the projection.
    a, b = np.array([0, 1, 0, 1, 2, 2, 0]), np.array([1, 0, 1, 2, 1, 0, 2])
    assert dense_clustering(4, a, b).tolist() == [1.0, 1.0, 1.0, 0.0]
    assert dense_clustering(3, a[:5], b[:5]).tolist() == [0.0, 0.0, 0.0]
    # Edge keys are int64: a block graph too large for them is refused, not wrapped.
    with pytest.raises(OverflowError):
        _triangle_state(3037000500, empty, empty)
    assert _triangle_state(3037000499, empty, empty).keys.tolist() == []


def dense_mean_relation_clustering(g: KnowledgeGraph) -> np.ndarray:
    """The dense kernel's vector as it was: one row of ``unique_clustering``
    per relation block, the rows added in relation order."""
    n, k = len(g.entities), len(g.relations)
    acc = np.zeros(n, dtype=np.float64)
    if k:
        subjects, objects = g.endpoint_ids
        offsets = g.relation_ids * n
        for row in unique_clustering(k * n, subjects + offsets, objects + offsets).reshape(k, n):
            acc += row
        acc /= k
    return acc


def assert_state_is_the_full_kernel(parent: KnowledgeGraph, child: KnowledgeGraph) -> None:
    """``child`` was spliced from ``parent``, which had its triangle state:
    the child inherits a patched state exactly when its relation order is
    the parent's, and that state and its vector equal a fresh graph's."""
    assert ("_triangles" in vars(child)) == (child.relation_order == parent.relation_order)
    fresh = KnowledgeGraph.from_triples(
        child.triples, extra_entities=child.entities, extra_relations=child.relations
    )
    for mine, full in zip(child._triangles, fresh._triangles):
        assert mine.dtype == full.dtype and mine.shape == full.shape and np.array_equal(mine, full)
    vector = child.mean_relation_clustering.tobytes()
    assert vector == fresh.mean_relation_clustering.tobytes()
    assert vector == dense_mean_relation_clustering(child).tobytes()


@st.composite
def perturbation_chains(draw):
    """A graph dense in triangles, with self-loops and parallel and reverse
    edges, and one to three perturbations, each applied to the last result."""
    triple = st.tuples(st.sampled_from(NODES), st.sampled_from(LABELS[:2]), st.sampled_from(NODES))
    g = KnowledgeGraph.from_triples(
        draw(st.lists(triple, max_size=30)),
        extra_entities=NODES,
        extra_relations=draw(st.lists(st.sampled_from(LABELS), max_size=1)),
    )
    spec = st.builds(
        PerturbationSpec,
        st.sampled_from(METHODS),
        st.sampled_from([0.0, 0.1, 0.25, 0.5, 1.0]) | st.floats(0.0, 1.0),
        st.integers(0, 2**16),
    )
    return g, draw(st.lists(spec, min_size=1, max_size=3))


@settings(max_examples=150, deadline=None)
@given(case=perturbation_chains())
@example(case=(KnowledgeGraph.from_triples([]), [PerturbationSpec("relation_swap", 1.0, 0)]))
@example(case=(KnowledgeGraph.from_triples([], extra_entities=NODES), [PerturbationSpec("edge_rewire", 0.5, 1)]))
def test_perturbed_graphs_inherit_the_full_kernels_triangle_state(case):
    g, specs = case
    g._triangles
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kgr.graph, "_PATCH_SHARE", 0)  # patch edits of any size
        for spec in specs:
            child = perturb(g, spec).graph
            assert_state_is_the_full_kernel(g, child)
            g = child


SQUARE = KnowledgeGraph.from_triples(
    [("e0", "r0", "e1"), ("e1", "r0", "e0"), ("e1", "r0", "e2"), ("e2", "r0", "e0"),
     ("e2", "r0", "e3"), ("e3", "r0", "e0"), ("e0", "r1", "e0")]
    + [(f"e{i}", "r1", f"e{i + 1}") for i in range(9)]
)


@settings(max_examples=200, deadline=None)
@given(case=graphs_and_logs())
@example(case=(KnowledgeGraph.from_triples([]), []))
@example(case=(SQUARE, []))  # level 0: nothing changes
# A removed triple whose reverse stays keeps its edge and its triangle.
@example(case=(SQUARE, [EditRecord("edge_delete", Triple("e0", "r0", "e1"), None)]))
# A triple that the log removes and adds back.
@example(case=(SQUARE, [
    EditRecord("edge_delete", Triple("e1", "r0", "e2"), None),
    EditRecord("edge_rewire", Triple("e2", "r0", "e3"), Triple("e1", "r0", "e2")),
]))
# A new edge closing two triangles at once, and one that touches a self-loop.
@example(case=(SQUARE, [
    EditRecord("relation_replace", Triple("e0", "r1", "e0"), Triple("e1", "r0", "e3")),
    EditRecord("edge_rewire", Triple("e3", "r0", "e0"), Triple("e3", "r0", "e3")),
]))
# A relation emptied, and a new label: the relation ids move, so the state is counted anew.
@example(case=(TWO, [EditRecord("edge_delete", TWO.triples[0], None)]))
@example(case=(TWO, [EditRecord("relation_replace", TWO.triples[0], Triple("e0", "r1", "e1"))]))
def test_replayed_graphs_inherit_the_full_kernels_triangle_state(case):
    g, log = case
    g._triangles
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kgr.graph, "_PATCH_SHARE", 0)  # patch edits of any size
        assert_state_is_the_full_kernel(g, replay_edit_log(g, log))


def test_large_edits_are_counted_in_full():
    # An edit that drops and adds at most one triple in eight is patched.
    g = KnowledgeGraph.from_triples(SQUARE.triples)
    g._triangles
    for count, patched in ((2, True), (3, False)):
        child = replay_edit_log(g, [EditRecord("edge_delete", t, None) for t in g.triples[:count]])
        assert ("_triangles" in vars(child)) == patched
        fresh = KnowledgeGraph.from_triples(child.triples, extra_entities=child.entities)
        assert child.mean_relation_clustering.tobytes() == fresh.mean_relation_clustering.tobytes()


def test_triangle_state_logs_how_it_was_made(caplog):
    with caplog.at_level(logging.DEBUG, logger="kgr.graph"):
        g = KnowledgeGraph.from_triples(SQUARE.triples)
        g.mean_relation_clustering
        replay_edit_log(g, [EditRecord("edge_delete", Triple("e1", "r0", "e2"), None)])
    assert [r.getMessage() for r in caplog.records if r.name == "kgr.graph"] == [
        "triangle state counted in full: 14 simple edges, 2 triangles",
        "triangle state patched: 1 edges gone, 0 new; 1 triangles lost, 0 gained",
    ]


def test_clustering_memory_follows_the_triples_not_the_relation_blocks():
    # |V| * |R| = 5M block nodes, but only 2000 triples: the dense kernel
    # peaked at 125 MB here.
    rng = random.Random(7)
    nodes, relations = [f"e{i}" for i in range(5000)], [f"r{i}" for i in range(1000)]
    triples = {(rng.choice(nodes), rng.choice(relations), rng.choice(nodes)) for _ in range(2000)}
    g = KnowledgeGraph.from_triples(triples, extra_entities=nodes, extra_relations=relations)
    g.endpoint_ids, g.relation_ids
    tracemalloc.start()
    try:
        g.mean_relation_clustering
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_stats_clustering_is_the_per_node_mean_bit_for_bit():
    # The per-node reference summed in entity order, as graph_stats documents.
    rng = random.Random(53)
    for _ in range(200):
        g = random_graph(rng, rng.randint(1, 16), rng.randint(0, 50), allow_self_loops=True)
        expected = sum(local_clustering(g, v) for v in g.entity_order) / len(g.entities)
        assert graph_stats(g).clustering_coefficient.hex() == expected.hex()


def test_relation_subgraph_preserves_entities():
    g = KnowledgeGraph.from_triples(DIAMOND)
    sub = relation_subgraph(g, "r1")
    assert sub.entities == g.entities
    assert all(t.relation == "r1" for t in sub.triples)
    assert len(sub.triples) == 2


def test_relation_subgraph_empty_relation():
    g = KnowledgeGraph.from_triples(DIAMOND, extra_relations=["orphan"])
    sub = relation_subgraph(g, "orphan")
    assert sub.entities == g.entities
    assert sub.triples == ()
    with pytest.raises(RelationNotFoundError):
        relation_subgraph(g, "nope")


def test_stats_complete_triangle():
    # Both directions of every pair present: density of the directed
    # simple projection is exactly 1.
    pairs = [("A", "B"), ("B", "C"), ("C", "A")]
    triples = [(a, "r", b) for a, b in pairs] + [(b, "r", a) for a, b in pairs]
    stats = graph_stats(KnowledgeGraph.from_triples(triples))
    assert stats.clustering_coefficient == 1.0
    assert stats.density == 1.0
    assert stats.avg_degree == 2.0
    assert stats.node_count == 3
    assert stats.edge_count == 6


def test_stats_empty_graph_is_all_zero():
    stats = graph_stats(KnowledgeGraph.from_triples([]))
    assert stats == graph_stats(KnowledgeGraph.from_triples([]))
    assert (stats.node_count, stats.edge_count) == (0, 0)
    assert stats.avg_degree == stats.clustering_coefficient == stats.density == 0.0


def test_stats_match_independent_recount():
    # Oracle: recompute every field from the raw edge list.
    rng = random.Random(23)
    g = random_graph(rng, 20, 60, n_relations=4, allow_self_loops=True)
    stats = graph_stats(g)

    n = len(g.entities)
    und = {frozenset((s, o)) for s, _, o in g.triples if s != o}
    directed = {(s, o) for s, _, o in g.triples if s != o}

    def clustering(v: str) -> float:
        nbrs = {next(iter(e - {v})) for e in und if v in e}
        if len(nbrs) < 2:
            return 0.0
        tri = sum(
            1 for a, b in combinations(sorted(nbrs), 2) if frozenset((a, b)) in und
        )
        return 2.0 * tri / (len(nbrs) * (len(nbrs) - 1))

    assert stats.node_count == n
    assert stats.edge_count == len(g.triples)
    assert stats.avg_degree == pytest.approx(2 * len(und) / n)
    assert stats.clustering_coefficient == pytest.approx(
        sum(clustering(v) for v in g.entities) / n
    )
    assert stats.density == pytest.approx(len(directed) / (n * (n - 1)))
    assert 0.0 <= stats.density <= 1.0
    assert 0.0 <= stats.clustering_coefficient <= 1.0


def test_stats_match_networkx():
    # Clustering on the simple undirected projection, isolated nodes
    # counted as 0; density on the simple directed projection.
    rng = random.Random(4127)
    for _ in range(300):
        g = random_graph(rng, rng.randint(1, 14), rng.randint(0, 40), allow_self_loops=True)
        pairs = [(s, o) for s, _, o in g.triples if s != o]
        undirected, directed = nx.Graph(), nx.DiGraph()
        for simple in (undirected, directed):
            simple.add_nodes_from(g.entities)
            simple.add_edges_from(pairs)
        stats = graph_stats(g)
        assert stats.clustering_coefficient == pytest.approx(
            nx.average_clustering(undirected), abs=1e-12
        )
        assert stats.density == pytest.approx(nx.density(directed), abs=1e-12)
