"""Perturbation heuristics: counts, invariants, logs, replay."""

from __future__ import annotations

import json
import logging
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import kgr.graph
from kgr.graph import KnowledgeGraph, Triple
from kgr.metrics import compare, fit_baseline_scorer
from kgr.ingest import serialize
from kgr.perturb import (
    METHODS,
    REPLACE_MODES,
    EditRecord,
    PerturbationSpec,
    edit_log_to_jsonl,
    normalize_method,
    parse_edit_log,
    perturb,
    replay_edit_log,
    round_half_up,
)
from conftest import assert_same_graph, fit_dict_scorer, neighbor_sets, orphan_labels, random_graph

LEVELS = (0.0, 0.1, 0.5, 1.0)


def fixture_graph(seed=107, nodes=12, edges=24):
    return random_graph(random.Random(seed), nodes, edges, n_relations=4)


def test_round_half_up():
    cases = [(0.0, 0), (0.49, 0), (0.5, 1), (0.99, 1), (1.5, 2), (2.5, 3), (3.49, 3)]
    for x, expected in cases:
        assert round_half_up(x) == expected


def test_normalize_method_aliases():
    assert normalize_method("rs") == "relation_swap"
    assert normalize_method("RR") == "relation_replace"
    assert normalize_method(" Er ") == "edge_rewire"
    assert normalize_method("edge_delete") == "edge_delete"
    with pytest.raises(ValueError):
        normalize_method("teleport")


def test_spec_validation():
    with pytest.raises(ValueError):
        PerturbationSpec(method="rs", level=-0.1, seed=0)
    with pytest.raises(ValueError):
        PerturbationSpec(method="rs", level=1.01, seed=0)
    with pytest.raises(ValueError):
        PerturbationSpec(method="nonsense", level=0.5, seed=0)


def test_edge_counts_per_method():
    g = fixture_graph()
    n = len(g.triples)
    for method in METHODS:
        for level in LEVELS:
            for seed in range(10):
                result = perturb(g, PerturbationSpec(method, level, seed))
                if method == "edge_delete":
                    assert len(result.graph.triples) == n - round_half_up(level * n)
                else:
                    assert len(result.graph.triples) == n
                assert result.graph.entities == g.entities


def test_log_record_counts():
    g = fixture_graph()
    n = len(g.triples)
    for level in LEVELS:
        rs = perturb(g, PerturbationSpec("rs", level, 3))
        pairs = min(round_half_up(level * n / 2.0), n // 2)
        assert len(rs.edit_log) == 2 * pairs
        for method in ("rr", "er", "ed"):
            result = perturb(g, PerturbationSpec(method, level, 3))
            assert len(result.edit_log) == round_half_up(level * n)


def test_level_zero_is_identity():
    g = fixture_graph()
    for method in METHODS:
        result = perturb(g, PerturbationSpec(method, 0.0, 9))
        assert result.graph == g
        assert result.edit_log == ()


def test_a_no_op_perturbation_keeps_orphan_labels_and_reports_no_damage():
    # r2 labels one triple and "orphan" none.  A level-0 perturbation leaves
    # the graph as it was, so the relation-averaged vectors must not change.
    g = KnowledgeGraph.from_triples(
        [("a", "r1", "b"), ("b", "r1", "c"), ("c", "r1", "a"), ("a", "r2", "c")],
        extra_relations=["orphan"],
    )
    for method in METHODS:
        pg = perturb(g, PerturbationSpec(method, 0.0, 1))
        assert pg.graph == g and pg.graph.relations == g.relations, method
        report = compare(g, pg.graph)
        assert (report.ats, report.sc2d, report.sd2) == (1.0, 1.0, 1.0), method
    # Deleting r2's only triple drops r2 but keeps the orphan.
    log = [EditRecord("edge_delete", Triple("a", "r2", "c"), None)]
    assert replay_edit_log(g, log).relations == {"r1", "orphan"}


def test_full_deletion_empties_triples_but_keeps_entities():
    g = fixture_graph()
    result = perturb(g, PerturbationSpec("ed", 1.0, 5))
    assert result.graph.triples == ()
    assert result.graph.entities == g.entities


def test_deterministic_per_seed_and_varied_across_seeds():
    g = fixture_graph()
    for method in METHODS:
        spec = PerturbationSpec(method, 0.5, 11)
        assert perturb(g, spec) == perturb(g, spec)
    variants = {perturb(g, PerturbationSpec("ed", 0.5, s)).graph for s in range(6)}
    assert len(variants) > 1


def test_relation_swap_preserves_relation_multiset_and_degrees():
    def endpoint_counts(kg):
        c = Counter()
        for t in kg.triples:
            c[t.subject] += 1
            c[t.object] += 1
        return c

    for seed in range(10):
        g = fixture_graph(seed=200 + seed)
        result = perturb(g, PerturbationSpec("rs", 0.8, seed))
        assert Counter(t.relation for t in result.graph.triples) == Counter(
            t.relation for t in g.triples
        )
        assert endpoint_counts(result.graph) == endpoint_counts(g)


def test_relation_swap_pairs_exchange_relations():
    g = fixture_graph()
    log = perturb(g, PerturbationSpec("rs", 1.0, 21)).edit_log
    assert len(log) % 2 == 0
    for first, second in zip(log[0::2], log[1::2]):
        assert first.op == second.op
        if first.skipped:
            assert first.after == first.before
            assert second.after == second.before
            continue
        # Endpoints stay, relations cross over between the two triples.
        for rec in (first, second):
            assert rec.after.subject == rec.before.subject
            assert rec.after.object == rec.before.object
        assert first.after.relation == second.before.relation
        assert second.after.relation == first.before.relation


def test_edge_rewire_targets_non_neighbors():
    for seed in range(8):
        g = fixture_graph(seed=300 + seed, nodes=14, edges=20)
        result = perturb(g, PerturbationSpec("er", 0.7, seed))
        nbrs = neighbor_sets(g)
        for rec in result.edit_log:
            if rec.skipped:
                continue
            assert rec.after.subject == rec.before.subject
            assert rec.after.relation == rec.before.relation
            v3 = rec.after.object
            assert v3 in g.entities
            assert v3 != rec.before.subject
            assert v3 not in nbrs[rec.before.subject]


def test_edge_rewire_skips_when_no_candidate_exists():
    # Triangle: every node is adjacent to every other, so no rewire
    # target survives the non-neighbor rule.
    g = KnowledgeGraph.from_triples(
        [("a", "r", "b"), ("b", "r", "c"), ("c", "r", "a")]
    )
    result = perturb(g, PerturbationSpec("er", 1.0, 1))
    assert result.graph == g
    assert len(result.edit_log) == 3
    assert all(rec.skipped for rec in result.edit_log)


def test_edge_rewire_finds_the_only_non_neighbor():
    # s is adjacent to every entity but t; each s-edge has its own
    # relation, so all of them can move onto t without colliding.
    others = [f"e{i}" for i in range(48)]
    g = KnowledgeGraph.from_triples(
        [("s", f"r{i}", v) for i, v in enumerate(others)], extra_entities=["t"]
    )
    for seed in range(5):
        result = perturb(g, PerturbationSpec("er", 1.0, seed))
        assert len(result.edit_log) == len(others)
        for rec in result.edit_log:
            assert not rec.skipped
            assert rec.after == Triple("s", rec.before.relation, "t")


def test_edge_rewire_skips_when_the_small_pool_is_used_up():
    # Pool of two (p1, p2) for three same-relation edges: the first two
    # edits take the pool, the third finds only collisions and is skipped.
    g = KnowledgeGraph.from_triples(
        [("s", "r", "x1"), ("s", "r", "x2"), ("s", "r", "x3")],
        extra_entities=["p1", "p2"],
    )
    for seed in range(10):
        log = perturb(g, PerturbationSpec("er", 1.0, seed)).edit_log
        assert [rec.skipped for rec in log] == [False, False, True]
        assert {log[0].after.object, log[1].after.object} == {"p1", "p2"}
        assert log[2].after == log[2].before


def test_relation_replace_follows_scorer_ranking():
    g = fixture_graph(seed=400, nodes=10, edges=20)
    scorer, reference = fit_baseline_scorer(g), fit_dict_scorer(g)
    for mode in ("least_plausible", "most_plausible"):
        result = perturb(
            g, PerturbationSpec("rr", 1.0, 31), scorer=scorer, replace_mode=mode
        )
        current = set(g.triples)
        for rec in result.edit_log:
            e = rec.before
            sign = 1.0 if mode == "least_plausible" else -1.0
            ranked = sorted(
                (sign * reference.score(e.subject, r, e.object), r)
                for r in sorted(g.relations)
                if r != e.relation
            )
            expected = None
            for _, r in ranked:
                candidate = Triple(e.subject, r, e.object)
                if candidate not in current:
                    expected = candidate
                    break
            if rec.skipped:
                assert expected is None
            else:
                assert rec.after == expected
                current = (current - {e}) | {rec.after}
        assert current == set(result.graph.triples)


def test_relation_replace_modes_differ():
    # Three relations with distinct frequencies around the same endpoint
    # pair force least- and most-plausible picks apart.
    g = KnowledgeGraph.from_triples(
        [
            ("s", "hi", "o1"),
            ("s", "hi", "o2"),
            ("s", "lo", "o3"),
            ("q", "md", "o1"),
        ]
    )
    least = perturb(g, PerturbationSpec("rr", 1.0, 7), replace_mode="least_plausible")
    most = perturb(g, PerturbationSpec("rr", 1.0, 7), replace_mode="most_plausible")
    assert least.graph != most.graph


def test_relation_replace_rejects_unknown_mode():
    # The mode is checked up front, so a method that never reads it
    # rejects a bad one too.
    g = fixture_graph()
    for method in ("rr", "ed"):
        with pytest.raises(ValueError, match="unknown replace mode 'median'"):
            perturb(g, PerturbationSpec(method, 0.5, 0), replace_mode="median")


def test_replay_reproduces_perturbed_graph():
    for seed in range(6):
        g = fixture_graph(seed=500 + seed)
        for method in METHODS:
            for level in (0.1, 0.5, 1.0):
                result = perturb(g, PerturbationSpec(method, level, seed))
                assert replay_edit_log(g, result.edit_log) == result.graph


def test_relation_replace_without_edits_fits_no_scorer():
    # The default scorer cannot be fitted on a graph without triples, so
    # it is fitted only once there is an edge to replace.
    empty = KnowledgeGraph.from_triples([], extra_entities=["a", "b"])
    for level in (0.0, 1.0):
        pg = perturb(empty, PerturbationSpec("relation_replace", level, 5))
        assert pg.graph == empty
        assert pg.edit_log == ()
    g = fixture_graph(seed=7)
    assert perturb(g, PerturbationSpec("rr", 0.0, 5)).graph == g


triples_strategy = st.lists(
    st.tuples(
        st.sampled_from("abcdef"), st.sampled_from(["r1", "r2", "r3"]), st.sampled_from("abcdef")
    ),
    max_size=30,
)


@settings(max_examples=200, deadline=None)
@given(
    triples=triples_strategy,
    isolated=st.lists(st.sampled_from(["x", "y"]), max_size=2),
    method=st.sampled_from(METHODS),
    level=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_replay_reproduces_any_perturbation(triples, isolated, method, level, seed):
    g = KnowledgeGraph.from_triples(triples, extra_entities=isolated)
    pg = perturb(g, PerturbationSpec(method, level, seed))
    assert replay_edit_log(g, pg.edit_log) == pg.graph


@settings(max_examples=300, deadline=None)
@given(
    triples=triples_strategy,
    isolated=st.lists(st.sampled_from(["x", "y"]), max_size=2),
    orphans=st.lists(st.sampled_from(["r8", "r9"]), max_size=2),
    method=st.sampled_from(METHODS),
    level=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    seed=st.integers(0, 2**32 - 1),
)
# The one deleted triple is r2's only one, so r2 leaves the graph while r1 stays.
@example(
    triples=[("a", "r1", "b"), ("b", "r1", "c"), ("a", "r2", "c")], isolated=["x"],
    orphans=["r9"], method="edge_delete", level=0.3, seed=1,
)
# The least plausible replacement moves a triple onto the orphan relation r9.
@example(
    triples=[("a", "r1", "b"), ("a", "r2", "b")], isolated=[], orphans=["r9"],
    method="relation_replace", level=1.0, seed=3,
)
def test_perturbed_graph_matches_a_fresh_build(triples, isolated, orphans, method, level, seed):
    # perturb splices its new triples into the parent's at their sorted
    # places; a hash-ordered set of the same triples must give the same
    # layout and id arrays.
    g = KnowledgeGraph.from_triples(triples, extra_entities=isolated, extra_relations=orphans)
    result = perturb(g, PerturbationSpec(method, level, seed)).graph
    assert_same_graph(result, KnowledgeGraph.from_triples(
        set(result.triples), extra_entities=g.entities, extra_relations=orphan_labels(g)
    ))


def string_set_edge_rewire(g, level, seed):
    """Triples and edit log of the rewire rule on entity strings: neighbour
    sets of strings, each draw mapped to its entity before the tests."""
    rng = random.Random(seed)
    shuffled = list(g.triples)
    rng.shuffle(shuffled)
    order, n = g.entity_order, len(g.entity_order)
    adj = neighbor_sets(g)
    current, log = set(g.triples), []
    for e in shuffled[: round_half_up(level * len(shuffled))]:
        nbrs = adj[e.subject]
        tries = min(100, n - len(nbrs) - (e.subject not in nbrs))
        tried, replacement = set(), None
        while len(tried) < tries:
            v3 = order[rng.randrange(n)]
            if v3 == e.subject or v3 in nbrs or v3 in tried:
                continue
            tried.add(v3)
            if Triple(e.subject, e.relation, v3) not in current:
                replacement = Triple(e.subject, e.relation, v3)
                break
        if replacement is None:
            log.append(EditRecord("edge_rewire_skipped", e, e))
            continue
        current = (current - {e}) | {replacement}
        log.append(EditRecord("edge_rewire", e, replacement))
    return current, log


@settings(max_examples=300, deadline=None)
@given(
    triples=triples_strategy,
    lonely=st.sampled_from([0, 2, 130]),
    level=st.one_of(st.just(1.0), st.floats(0.0, 1.0)),
    seed=st.integers(0, 2**32 - 1),
)
# Every node is adjacent to every other: each pool is empty.
@example(triples=[("a", "r1", "b"), ("b", "r1", "c"), ("c", "r1", "a")], lonely=0, level=1.0, seed=4)
# A self-loop on the only subject; two isolated entities form its pool.
@example(triples=[("a", "r1", "a"), ("a", "r2", "b")], lonely=2, level=1.0, seed=0)
def test_edge_rewire_matches_string_set_reference(triples, lonely, level, seed):
    # Self-loops occur; with 130 isolated entities most pools exceed the
    # 100 tries, otherwise they are smaller or empty.
    g = KnowledgeGraph.from_triples(triples, extra_entities=[f"z{i:03d}" for i in range(lonely)])
    pg = perturb(g, PerturbationSpec("er", level, seed))
    expected, log = string_set_edge_rewire(g, level, seed)
    assert edit_log_to_jsonl(pg.edit_log) == edit_log_to_jsonl(log)
    assert serialize(pg.graph) == serialize(KnowledgeGraph.from_triples(expected, extra_entities=g.entities))


def copy_per_edit_relation_swap(g, level, seed):
    """Triples and edit log of the swap rule that copies the set per pair."""
    rng = random.Random(seed)
    shuffled = list(g.triples)
    rng.shuffle(shuffled)
    n_pairs = min(round_half_up(level * len(shuffled) / 2.0), len(shuffled) // 2)
    current, log = set(g.triples), []
    for i in range(n_pairs):
        e1, e2 = shuffled[2 * i], shuffled[2 * i + 1]
        f1 = Triple(e1.subject, e2.relation, e1.object)
        f2 = Triple(e2.subject, e1.relation, e2.object)
        swapped = (current - {e1, e2}) | {f1, f2}
        if len(swapped) == len(current):
            current = swapped
            log += [EditRecord("relation_swap", e1, f1), EditRecord("relation_swap", e2, f2)]
        else:
            log += [EditRecord("relation_swap_skipped", e, e) for e in (e1, e2)]
    return current, log


@settings(max_examples=200, deadline=None)
@given(triples=triples_strategy, level=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
def test_relation_swap_collision_rule_is_unchanged(triples, level, seed):
    g = KnowledgeGraph.from_triples(triples)
    pg = perturb(g, PerturbationSpec("rs", level, seed))
    expected, log = copy_per_edit_relation_swap(g, level, seed)
    assert set(pg.graph.triples) == expected
    assert [rec.skipped for rec in pg.edit_log] == [rec.skipped for rec in log]


def string_set_relation_replace(g, level, seed, mode):
    """Triples and edit log of the replace rule, one target at a time: rank
    the other relations by the string-keyed reference scorer with
    ``sorted``, take the first that does not collide."""
    rng = random.Random(seed)
    shuffled = list(g.triples)
    rng.shuffle(shuffled)
    targets = shuffled[: round_half_up(level * len(shuffled))]
    scorer = fit_dict_scorer(g) if targets else None
    current, log = set(g.triples), []
    for e in targets:
        ranked = sorted(
            ((scorer.score(e.subject, r, e.object), r) for r in sorted(g.relations) if r != e.relation),
            key=(lambda pair: pair) if mode == "least_plausible" else (lambda pair: (-pair[0], pair[1])),
        )
        replacement = None
        for _, r in ranked:
            if Triple(e.subject, r, e.object) not in current:
                replacement = Triple(e.subject, r, e.object)
                break
        if replacement is None:
            log.append(EditRecord("relation_replace_skipped", e, e))
            continue
        current = (current - {e}) | {replacement}
        log.append(EditRecord("relation_replace", e, replacement))
    return current, log


def sequential_reference(g, method, level, seed, mode):
    """Triples and edit log of ``method``, each edit applied to the triple
    set as it is made; no log is replayed."""
    if method == "relation_swap":
        return copy_per_edit_relation_swap(g, level, seed)
    if method == "relation_replace":
        return string_set_relation_replace(g, level, seed, mode)
    if method == "edge_rewire":
        return string_set_edge_rewire(g, level, seed)
    rng = random.Random(seed)
    shuffled = list(g.triples)
    rng.shuffle(shuffled)
    removed = shuffled[: round_half_up(level * len(shuffled))]
    return set(g.triples) - set(removed), [EditRecord("edge_delete", e, None) for e in removed]


@settings(max_examples=400, deadline=None)
@given(
    triples=triples_strategy,
    lonely=st.sampled_from([0, 2, 130]),
    orphans=st.lists(st.sampled_from(["r8", "r9"]), max_size=2),
    method=st.sampled_from(METHODS),
    mode=st.sampled_from(REPLACE_MODES),
    level=st.one_of(st.just(1.0), st.floats(0.0, 1.0)),
    seed=st.integers(0, 2**32 - 1),
)
# A parallel pair swaps onto itself: removed and added triples coincide.
@example(
    triples=[("a", "r1", "b"), ("a", "r2", "b")], lonely=0, orphans=[], method="relation_swap",
    mode="least_plausible", level=1.0, seed=0,
)
# The last replacement lands on the triple the first one freed.
@example(
    triples=[("a", "r1", "b"), ("a", "r3", "b"), ("b", "r2", "a")], lonely=0, orphans=[],
    method="relation_replace", mode="least_plausible", level=1.0, seed=0,
)
def test_every_method_matches_its_sequential_reference(triples, lonely, orphans, method, mode, level, seed):
    # perturb builds its graph by replaying its own log; the references
    # edit a string set one edit at a time, so they check the replay too.
    g = KnowledgeGraph.from_triples(
        triples, extra_entities=[f"z{i:03d}" for i in range(lonely)], extra_relations=orphans
    )
    pg = perturb(g, PerturbationSpec(method, level, seed), replace_mode=mode)
    expected, log = sequential_reference(g, method, level, seed, mode)
    assert edit_log_to_jsonl(pg.edit_log) == edit_log_to_jsonl(log)
    expected_graph = KnowledgeGraph.from_triples(
        expected, extra_entities=g.entities, extra_relations=orphan_labels(g)
    )
    assert serialize(pg.graph) == serialize(expected_graph)
    assert_same_graph(pg.graph, expected_graph)


@settings(max_examples=200, deadline=None)
@given(
    triples=st.lists(
        st.tuples(st.sampled_from("abcd"), st.sampled_from(["r1", "r2", "r3", "r4", "r5"]), st.sampled_from("abcd")),
        max_size=40,
    ),
    orphans=st.lists(st.sampled_from(["r0", "r6"]), max_size=2),
    mode=st.sampled_from(REPLACE_MODES),
    level=st.one_of(st.just(1.0), st.floats(0.0, 1.0)),
    seed=st.integers(0, 2**32 - 1),
)
def test_relation_replace_matches_a_per_target_sorted_reference(triples, orphans, mode, level, seed):
    # Five labels over four entities: scores tie often and candidates
    # collide with present triples, so both the tie rule and the walk past
    # present candidates are exercised.
    g = KnowledgeGraph.from_triples(triples, extra_relations=orphans)
    pg = perturb(g, PerturbationSpec("rr", level, seed), replace_mode=mode)
    expected, log = string_set_relation_replace(g, level, seed, mode)
    assert edit_log_to_jsonl(pg.edit_log) == edit_log_to_jsonl(log)
    assert set(pg.graph.triples) == expected


def test_a_warm_edit_order_gives_what_a_fresh_graph_gives():
    # One graph serves every call, so later calls reuse the edit order its
    # seed drew first; each is checked against a fresh equal graph, whose
    # order is drawn anew.  Seeds interleave, and rewire keeps drawing from
    # the generator state stored with the order.
    g = fixture_graph(seed=808, nodes=30, edges=90)
    warm = KnowledgeGraph.from_triples(g.triples, extra_entities=g.entities)
    for level in (0.1, 0.5, 1.0):
        for seed in (3, 11, 3, 2**40):
            for method in METHODS:
                spec = PerturbationSpec(method, level, seed)
                fresh = KnowledgeGraph.from_triples(g.triples, extra_entities=g.entities)
                reused, drawn = perturb(warm, spec), perturb(fresh, spec)
                assert edit_log_to_jsonl(reused.edit_log) == edit_log_to_jsonl(drawn.edit_log)
                assert_same_graph(reused.graph, drawn.graph)
    # The memo leaves equality and hashing alone.
    assert warm == g and hash(warm) == hash(g)


def test_perturb_logs_one_debug_line_per_call(caplog):
    g = fixture_graph()  # 24 triples
    calls = [("rr", 0.5, 9), ("er", 0.25, 9), ("rs", 0.25, 4), ("ed", 0.0, 9)]
    with caplog.at_level(logging.DEBUG, logger="kgr.perturb"):
        results = [perturb(g, PerturbationSpec(*call)) for call in calls]
    lines = [m for m in caplog.messages if m.startswith("perturb ")]
    expected = []
    for (method, level, seed), targets, order, pg in zip(
        calls, (12, 6, 6, 0), ("drawn", "reused", "drawn", "not needed"), results
    ):
        applied = len(pg.edit_log) - pg.skipped_edits
        expected.append(
            f"perturb {normalize_method(method)} level={level} seed={seed}: {targets} targets, "
            f"{applied} edits applied, {pg.skipped_edits} skipped; edit order {order}"
        )
    assert lines == expected


def test_replay_applies_hand_written_logs_as_one_batch():
    # Replay computes (T - removed) | added over the applied records,
    # whatever order they came in.
    e, x, y, k = Triple("a", "r", "b"), Triple("a", "r", "c"), Triple("a", "r", "d"), Triple("b", "r", "c")
    g = KnowledgeGraph.from_triples([e, k], extra_entities=["c", "d", "z"])
    cases = [
        # A chain e -> x, then x -> y: x is added by one edit and removed by
        # a later one, and the batch keeps it.
        ([EditRecord("edge_rewire", e, x), EditRecord("edge_rewire", x, y)], {k, x, y}),
        # A re-added original: e is deleted, then k moves onto it.
        ([EditRecord("edge_delete", e, None), EditRecord("edge_rewire", k, e)], {e}),
        # An added triple that already exists is kept once.
        ([EditRecord("relation_replace", e, k)], {k}),
        # A skipped record changes nothing.
        ([EditRecord("edge_rewire_skipped", e, e), EditRecord("edge_delete_skipped", k, k)], {e, k}),
    ]
    for log, expected in cases:
        replayed = replay_edit_log(g, log)
        assert replayed.triples == tuple(sorted(expected)), log
        assert_same_graph(replayed, KnowledgeGraph.from_triples(expected, extra_entities=g.entities))


SMALL = ["a", "b", "c", "d"]
GRAPH_TRIPLES = st.builds(Triple, st.sampled_from(SMALL), st.sampled_from(["r0", "r2"]), st.sampled_from(SMALL))
# Added triples may carry the entity z or the label r1, which no graph has
# and which sorts between the graphs' labels.
LOG_TRIPLES = st.builds(
    Triple, st.sampled_from(SMALL + ["z"]), st.sampled_from(["r0", "r1", "r2"]), st.sampled_from(SMALL)
)


@st.composite
def graphs_and_logs(draw):
    """A small graph and a hand-written log whose records mostly name its
    triples, so removals, re-additions and kept additions are common."""
    g = KnowledgeGraph.from_triples(
        draw(st.lists(GRAPH_TRIPLES, max_size=12)), extra_entities=draw(st.lists(st.sampled_from(SMALL), max_size=2))
    )
    named = st.sampled_from(g.triples) | GRAPH_TRIPLES if g.triples else GRAPH_TRIPLES
    record = st.one_of(
        st.builds(EditRecord, st.just("edge_delete"), named, st.none()),
        st.builds(
            EditRecord, st.sampled_from(["edge_rewire", "relation_replace", "relation_swap"]),
            named, named | LOG_TRIPLES,
        ),
        st.builds(lambda op, t: EditRecord(op + "_skipped", t, t), st.sampled_from(METHODS), LOG_TRIPLES),
    )
    return g, draw(st.lists(record, max_size=6))


def _case(triples: list[str], log: list[tuple[str, str, str | None]], isolated: str = ""):
    """A graph of ``"s r o"`` triples and a log of ``(op, before, after)``."""
    g = KnowledgeGraph.from_triples((t.split() for t in triples), extra_entities=isolated)
    return g, [EditRecord(op, Triple(*b.split()), a and Triple(*a.split())) for op, b, a in log]


@settings(max_examples=400, deadline=None)
@given(case=graphs_and_logs())
# A relation label the graph lacks.
@example(case=_case(["a r0 b", "b r2 c"], [("relation_replace", "a r0 b", "a r1 b")]))
# A relation emptied, so the ids of the labels after it shift.
@example(case=_case(["a r0 b", "b r2 c"], [("edge_delete", "a r0 b", None)]))
# An added triple that is kept anyway.
@example(case=_case(["a r0 b", "b r0 c"], [("edge_rewire", "a r0 b", "b r0 c")]))
# A triple removed and added back.
@example(case=_case(["a r0 b", "b r0 c"], [("edge_delete", "a r0 b", None), ("relation_swap", "b r0 c", "a r0 b")]))
# A removed triple that the graph lacks but the log adds.
@example(case=_case(["a r0 b"], [("edge_rewire", "a r0 b", "a r0 c"), ("edge_rewire", "a r0 c", "a r2 c")], "c"))
# A bad removal and a bad addition: the removal is reported.
@example(case=_case(["a r0 b"], [("edge_rewire", "c r0 d", "z r0 b")]))
def test_replay_is_the_batch_rule_on_hand_written_logs(case):
    g, log = case
    applied = [rec for rec in log if not rec.skipped]
    removed = {rec.before for rec in applied}
    added = {rec.after for rec in applied if rec.after is not None}
    if not removed - added <= set(g.triples):
        with pytest.raises(ValueError, match="^edit log removes a triple that is not in the graph$"):
            replay_edit_log(g, log)
    elif not all(t.subject in g.entities and t.object in g.entities for t in added):
        with pytest.raises(ValueError, match="^edit log adds a triple with an entity that is not in the graph$"):
            replay_edit_log(g, log)
    else:
        expected = KnowledgeGraph.from_triples((set(g.triples) - removed) | added, extra_entities=g.entities)
        assert_same_graph(replay_edit_log(g, log), expected)


def test_replay_rejects_an_added_triple_with_an_empty_relation():
    # The spliced triples skip from_triples' checks, so replay makes this one.
    g = KnowledgeGraph.from_triples([("a", "r", "b")])
    with pytest.raises(ValueError, match="^triple with empty field: Triple"):
        replay_edit_log(g, [EditRecord("relation_replace", Triple("a", "r", "b"), Triple("a", "", "b"))])


def test_replay_with_python_int_keys_matches(monkeypatch):
    # Keys that could overflow int64 are Python ints in object arrays.
    # Widening the key space keeps the keys' order, so forcing that path
    # on small graphs must give the same graphs.
    keys = kgr.graph._keys
    monkeypatch.setattr(kgr.graph, "_keys", lambda n, k, *ids: keys(n + 2**40, k + 2**20, *ids))
    assert kgr.graph._keys(1, 1, *[np.zeros(1, np.intp)] * 3).dtype == object
    g = fixture_graph()
    for method in METHODS:
        for level in LEVELS:
            result = perturb(g, PerturbationSpec(method, level, 5))
            assert_same_graph(result.graph, KnowledgeGraph.from_triples(
                (set(g.triples) - {r.before for r in result.edit_log if not r.skipped})
                | {r.after for r in result.edit_log if not r.skipped and r.after is not None},
                extra_entities=g.entities,
            ))
    log = [EditRecord("edge_rewire", g.triples[0], Triple(g.triples[0].subject, "r9", "e0"))]
    assert "r9" in replay_edit_log(g, log).relations


def test_replay_logs_what_it_changed(caplog):
    g, log = _case(
        ["a r0 b", "b r0 c", "c r0 d"],
        [
            ("edge_rewire", "b r0 c", "b r0 d"),
            ("relation_replace", "a r0 b", "c r0 d"),  # c r0 d is kept anyway
            ("edge_delete_skipped", "c r0 d", "c r0 d"),
        ],
    )
    with caplog.at_level(logging.DEBUG, logger="kgr.perturb"):
        replayed = replay_edit_log(g, log)
    assert [" ".join(t) for t in replayed.triples] == ["b r0 d", "c r0 d"]
    assert caplog.messages == ["replay_edit_log: 2 triples removed, 1 added, 1 already present"]


def test_replay_rejects_edits_of_triples_or_entities_the_graph_lacks():
    g = KnowledgeGraph.from_triples([("a", "r", "b")])
    e, stray = Triple("a", "r", "b"), Triple("q", "r", "w")
    # A deletion with an ``after``, of a triple not in the graph, adding new
    # entities: it used to replay to triples (a,r,b), (x,y,z).
    with pytest.raises(ValueError, match="edge_delete must have a null 'after'"):
        parse_edit_log('{"op":"edge_delete","before":["q","r","w"],"after":["x","y","z"]}')
    for log, message in [
        ([EditRecord("edge_delete", stray, Triple("x", "y", "z"))], "removes a triple that is not"),
        ([EditRecord("edge_delete", stray, None)], "removes a triple that is not"),
        ([EditRecord("edge_rewire", e, Triple("a", "r", "z"))], "entity that is not in the graph"),
        ([EditRecord("relation_swap", e, Triple("x", "r", "b"))], "entity that is not in the graph"),
    ]:
        with pytest.raises(ValueError, match=message):
            replay_edit_log(g, log)
    # A skipped record is not applied, so its triples are not checked.
    assert replay_edit_log(g, [EditRecord("edge_rewire_skipped", stray, stray)]) == g
    # Skipped records are written with ``after`` equal to ``before`` and parse back.
    triangle = KnowledgeGraph.from_triples([("a", "r", "b"), ("b", "r", "c"), ("c", "r", "a")])
    log = perturb(triangle, PerturbationSpec("er", 1.0, 1)).edit_log
    assert all(rec.skipped for rec in log)
    assert parse_edit_log(edit_log_to_jsonl(log)) == list(log)


@pytest.mark.parametrize(
    "op, before, after, message",
    [
        ("edge_delete", ["a", "r", "b"], ["a", "r", "c"], "edge_delete must have a null 'after'"),
        ("edge_rewire", ["a", "r", "b"], None, "edge_rewire must have a triple as 'after'"),
        ("relation_swap", ["a", "r", "b"], None, "relation_swap must have a triple as 'after'"),
        ("relation_replace", ["a", "r", "b"], None, "relation_replace must have a triple as"),
        ("edge_rewire_skipped", ["a", "r", "b"], None, "edge_rewire_skipped must have 'after' equal"),
        ("edge_delete_skipped", ["a", "r", "b"], ["a", "r", "c"], "edge_delete_skipped must have"),
        ("relation_swap_skipped", ["a", "r", "b"], ["a", "s", "b"], "relation_swap_skipped must"),
    ],
)
def test_parse_edit_log_checks_after_against_the_op(op, before, after, message):
    line = json.dumps({"op": op, "before": before, "after": after})
    with pytest.raises(ValueError, match=f"^edit log:1: bad record: {message}"):
        parse_edit_log(line)


def test_replay_handles_parallel_edge_relation_swap():
    # Swapping relations across two parallel edges leaves the *set* of
    # triples unchanged; a naive remove-then-add replay would drop one.
    g = KnowledgeGraph.from_triples([("a", "r1", "b"), ("a", "r2", "b")])
    result = perturb(g, PerturbationSpec("rs", 1.0, 0))
    assert result.graph == g
    assert replay_edit_log(g, result.edit_log) == result.graph


def test_edit_log_jsonl_round_trip():
    g = fixture_graph()
    for method in METHODS:
        log = perturb(g, PerturbationSpec(method, 0.6, 13)).edit_log
        text = edit_log_to_jsonl(log)
        assert parse_edit_log(text) == list(log)
        for line in text.strip().splitlines():
            assert line.startswith("{")


def test_parse_edit_log_skips_header_lines():
    # CLI-written logs open with a run-description header; parsing one
    # back must yield only the edit records so replay works unmodified.
    g = fixture_graph()
    log = perturb(g, PerturbationSpec("er", 0.5, 9)).edit_log
    header = '{"record_type": "header", "method": "er", "level": 0.5, "seed": 9}\n'
    assert parse_edit_log(header + edit_log_to_jsonl(log)) == list(log)


@pytest.mark.parametrize(
    "line, message",
    [
        ('{"op": "edge_delete", "before": ["a", "r"', "edit log:2: not valid JSON: "),
        ('["edge_delete", ["a", "r", "b"], null]', "edit log:2: each record must be a JSON object"),
        ('{"op": "edge_delete", "after": null}', "edit log:2: bad record: 'before'"),
        ('{"op": "edge_delete", "before": ["a", "r"]}', "edit log:2: bad record: "),
        ('{"op": "edge_delete", "before": "abc", "after": null}', "edit log:2: bad record: a triple must be"),
        ('{"op": 7, "before": ["a", "r", "b"], "after": null}', "edit log:2: bad record: unknown op 7"),
        ('{"op": "teleport", "before": ["a", "r", "b"]}', "edit log:2: bad record: unknown op 'teleport'"),
        ('{"op": "edge_rewire", "before": ["a", "r", "b"], "after": ["a", "r", ""]}', "edit log:2: bad record: a triple"),
        ('{"op": "edge_rewire", "before": ["a", "r", "b"], "after": []}', "edit log:2: bad record: a triple must"),
    ],
)
def test_parse_edit_log_names_the_bad_line(line, message):
    good = '{"after":null,"before":["a","r","b"],"op":"edge_delete"}\n'
    with pytest.raises(ValueError) as excinfo:
        parse_edit_log(good + line + "\n")
    assert str(excinfo.value).startswith(message)
