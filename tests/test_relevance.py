"""Embedding fallback, ranking, and prize assignment."""

from __future__ import annotations

import functools
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from kgr import relevance
from kgr.graph import KnowledgeGraph, Triple
from kgr.perturb import METHODS, PerturbationSpec, perturb
from kgr.relevance import (
    HashedBagEmbedder,
    PrizeAssignment,
    ServiceEmbedder,
    assign_prizes,
    element_label,
    prize_for_rank,
    rank_elements,
    rank_graph_elements,
    verbalize_element,
)
from kgr.transport import TransportError


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    """Per-element reference for the ranking's matrix product."""
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    denom = float(np.linalg.norm(a)) * float(np.linalg.norm(b))
    if denom == 0.0:
        return 0.0
    return float(np.dot(a, b) / denom)


def reference_embed(texts, dimension=relevance.FALLBACK_DIMENSION):
    """Per-text reference for the embedder's batched bags: one signed bag
    per text, filled token by token, with the unsigned fallback when the
    signed counts cancel out."""
    bucket = functools.cache(functools.partial(relevance._token_bucket, dimension=dimension))
    vectors = []
    for text in texts:
        if not text or not text.strip():
            raise ValueError("cannot embed empty text")
        toks = relevance._tokens(text) or [text.strip()]
        vec = np.zeros(dimension, dtype=np.float64)
        for tok in toks:
            idx, sign = bucket(tok)
            vec[idx] += sign
        norm = float(np.linalg.norm(vec))
        if norm == 0.0:
            for tok in toks:
                idx, _ = bucket(tok)
                vec[idx] += 1.0
            norm = float(np.linalg.norm(vec))
        vectors.append(vec / norm)
    return vectors


def test_element_label():
    assert element_label("http://example.org/Elon_Musk") == "Elon Musk"
    assert element_label("http://example.org/ns#founded_by") == "founded by"
    assert element_label("plain_name") == "plain name"


def test_verbalize_triple():
    t = Triple("Tesla", "founded_by", "Elon_Musk")
    assert verbalize_element(t) == "Tesla founded by Elon Musk"
    assert verbalize_element("Berlin") == "Berlin"


def test_fallback_embedder_deterministic_unit_norm():
    emb = HashedBagEmbedder()
    texts = ["alpha beta", "gamma", "alpha beta"]
    vecs = emb.embed(texts)
    assert len(vecs) == 3
    for v in vecs:
        assert v.shape == (256,)
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-9)
    assert np.array_equal(vecs[0], vecs[2])
    # Same text embedded in a different call still yields the same vector.
    again = emb.embed(["gamma"])[0]
    assert np.array_equal(again, vecs[1])


def test_fallback_embedder_hashes_each_distinct_token_once_per_call(monkeypatch):
    # "w25" and "w35" share a bucket with opposite signs, so their signed
    # bag cancels and the unsigned fallback runs, reusing the same hashes.
    texts = ["alpha beta alpha", "beta gamma", "w25 w35", "w35 w25 w25"]
    one_by_one = [HashedBagEmbedder().embed([t])[0] for t in texts]
    hashed = []
    original = relevance._token_bucket

    def counted(token, dimension):
        hashed.append(token)
        return original(token, dimension)

    monkeypatch.setattr(relevance, "_token_bucket", counted)
    batch = HashedBagEmbedder().embed(texts)
    assert sorted(hashed) == ["alpha", "beta", "gamma", "w25", "w35"]
    assert all(a.tobytes() == b.tobytes() for a, b in zip(batch, one_by_one))
    assert np.count_nonzero(batch[2]) == 1 and batch[2].max() == 1.0


# Words, repeated tokens, punctuation-only pieces, non-ASCII letters
# (which the tokenizer splits on) and the cancelling pair "w25"/"w35".
text_pieces = st.sampled_from(
    ["alpha", "beta", "alpha", "w25", "w35", "?!", "--", "é", "naïve", "東京", "x1", "R2D2", "..."]
)
texts = st.lists(text_pieces, min_size=1, max_size=6).map(" ".join) | st.text(
    alphabet=st.sampled_from("ab1 .,!é東"), min_size=1, max_size=8
).filter(str.strip)


@settings(max_examples=300, deadline=None)
@given(batches=st.lists(st.lists(texts, min_size=1, max_size=8), min_size=1, max_size=3))
@example(batches=[["w25 w35", "alpha alpha beta", "?!", "w25 w35"], ["naïve 東京", "w35 w25 w25", "?!"]])
def test_batched_embed_matches_per_text_loop(batches):
    # Batches may repeat a text within a call and across calls.
    emb = HashedBagEmbedder()
    seen: set[str] = set()
    stats = {"embedded": 0, "hits": 0}
    for batch in batches:
        got = emb.embed(batch)
        want = reference_embed(batch)
        assert [v.tobytes() for v in got] == [v.tobytes() for v in want]
        assert all(not v.flags.writeable for v in got)
        new = set(batch) - seen
        stats["embedded"] += len(new)
        stats["hits"] += len(batch) - len(new)
        seen |= new
        assert emb.memo_stats == stats


def test_fallback_embedder_token_overlap_orders_similarity():
    emb = HashedBagEmbedder()
    q, near, far = emb.embed(["alpha", "alpha beta", "zeta eta theta"])
    assert cosine(q, near) > cosine(q, far)


def test_fallback_embedder_rejects_blank():
    with pytest.raises(ValueError):
        HashedBagEmbedder().embed(["ok", "   "])


def test_cosine_zero_guard():
    z = np.zeros(4)
    assert cosine(z, np.ones(4)) == 0.0


def test_rank_elements_sorted_with_ties_lexicographic():
    rng = random.Random(61)
    emb = HashedBagEmbedder()
    for _ in range(10):
        names = [f"item {rng.randint(0, 30)} {rng.choice('abcdef')}" for _ in range(12)]
        names = sorted(set(names))
        vecs = emb.embed(names)
        query = emb.embed(["item 3 c"])[0]
        ranked = rank_elements(query, dict(zip(names, vecs)))
        sims = [s for _, s in ranked]
        assert sims == sorted(sims, reverse=True)
        for (e1, s1), (e2, s2) in zip(ranked, ranked[1:]):
            if s1 == s2:
                assert e1 < e2
    # Identical vectors rank purely by name.
    same = emb.embed(["north"])[0]
    ranked = rank_elements(same, {"b": same, "a": same, "c": same})
    assert [e for e, _ in ranked] == ["a", "b", "c"]


def test_prize_for_rank_formula():
    for k in (1, 3, 10, 15):
        for rank in range(1, k + 5):
            assert prize_for_rank(rank, k) == max(0, k - rank + 1)
    assert prize_for_rank(1, 15) == 15
    assert prize_for_rank(15, 15) == 1
    assert prize_for_rank(16, 15) == 0


def test_assign_prizes_top_k_only():
    nodes = [f"n{i:02d}" for i in range(20)]
    t = [Triple(f"a{i}", "r", f"b{i}") for i in range(6)]
    prizes = assign_prizes(nodes, t, k=4, edge_cost=2.0)
    assert prizes.node_prize("n00") == 4.0
    assert prizes.node_prize("n03") == 1.0
    assert prizes.node_prize("n04") == 0.0
    assert prizes.node_prize("unknown") == 0.0
    assert prizes.edge_prize(t[0]) == 4.0
    assert prizes.edge_prize(t[4]) == 0.0
    assert prizes.edge_cost == 2.0
    # Zero prizes are not stored, only implied.
    assert len(prizes.node_prizes) == 4
    assert len(prizes.edge_prizes) == 4


def test_assign_prizes_validation():
    with pytest.raises(ValueError):
        assign_prizes([], [], k=0)
    with pytest.raises(ValueError):
        assign_prizes([], [], edge_cost=0.0)


def test_assign_prizes_rejects_k_past_the_float_range():
    assert assign_prizes(["a"], [], k=10**308).node_prizes == {"a": float(10**308)}
    with pytest.raises(ValueError, match="too large"):
        assign_prizes(["a"], [], k=10**309)


def test_prize_assignment_defaults():
    prizes = PrizeAssignment(node_prizes={"a": 1.0}, edge_prizes={})
    assert prizes.k == 15
    assert prizes.edge_cost == 1.0


def test_rank_graph_elements_returns_full_ranking():
    g = KnowledgeGraph.from_triples(
        [
            ("solar_panel", "generates", "electricity"),
            ("wind_turbine", "generates", "electricity"),
            ("coal_plant", "burns", "coal"),
        ]
    )
    nodes, edges = rank_graph_elements(g, "how do solar panels make electricity")
    assert set(nodes) == g.entities
    assert set(edges) == set(g.triples)
    solar_rank = nodes.index("solar_panel")
    coal_rank = nodes.index("coal_plant")
    assert solar_rank < coal_rank


def test_service_embedder_batches_and_normalizes(mock_service):
    def behavior(payload):
        texts = payload["texts"]
        assert len(texts) <= 3
        return 200, {"vectors": [[float(len(t)), 1.0, 0.0] for t in texts]}

    svc = mock_service(behavior)
    emb = ServiceEmbedder(svc.url, batch_size=3)
    vecs = emb.embed([f"text number {i}" for i in range(7)])
    assert len(vecs) == 7
    assert svc.calls == 3  # ceil(7 / 3)
    for v in vecs:
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-9)


def test_service_embedder_retries_then_succeeds(mock_service):
    state = {"n": 0}

    def behavior(payload):
        state["n"] += 1
        if state["n"] == 1:
            return 500, {"error": "transient"}
        return 200, {"vectors": [[1.0, 2.0] for _ in payload["texts"]]}

    svc = mock_service(behavior)
    emb = ServiceEmbedder(svc.url, backoff=0.01)
    vecs = emb.embed(["a", "b"])
    assert len(vecs) == 2
    assert svc.calls == 2


def test_service_embedder_malformed_reply_is_transport_error(mock_service):
    svc = mock_service(lambda payload: (200, {"vectors": [[1.0]]}))
    emb = ServiceEmbedder(svc.url, backoff=0.01)
    with pytest.raises(TransportError) as exc_info:
        emb.embed(["a", "b"])  # one vector for two texts
    # The reply arrived on the first request; it is not retried.
    assert exc_info.value.attempts == 1
    assert svc.calls == 1


def test_service_embedder_exhausts_attempts(mock_service):
    svc = mock_service(lambda payload: (503, {"error": "down"}))
    emb = ServiceEmbedder(svc.url, backoff=0.01)
    with pytest.raises(TransportError) as exc_info:
        emb.embed(["a"])
    assert exc_info.value.attempts == 3
    assert svc.calls == 3


def reference_ranking(elements, query_vec, vectors):
    """The documented rule, one element at a time: cosine rounded to 12
    decimals, descending, ties by element id."""
    sims = {e: round(cosine(query_vec, v), 12) for e, v in zip(elements, vectors)}
    return sorted(elements, key=lambda e: (-sims[e], e))


def reference_rank_graph_elements(g, query):
    emb = HashedBagEmbedder()
    query_vec = emb.embed([query])[0]
    nodes, edges = list(g.entity_order), list(g.triples)
    node_vecs = emb.embed([verbalize_element(n) for n in nodes])
    edge_vecs = emb.embed([verbalize_element(e) for e in edges])
    return (
        reference_ranking(nodes, query_vec, node_vecs),
        reference_ranking(edges, query_vec, edge_vecs),
    )


WORDS = ["royal", "meadow", "golden", "canyon", "coastal", "temple", "lunar", "river", "iron"]


def test_rank_graph_elements_matches_reference_rule():
    rng = random.Random(2402)
    shared = HashedBagEmbedder()
    for _ in range(40):
        names = [
            f"{rng.choice(WORDS)}_{rng.choice(WORDS)}_{rng.randint(0, 9)}" for _ in range(12)
        ]
        relations = ["founded_in", "named_by", "built_by", "near"]
        triples = [
            (rng.choice(names), rng.choice(relations), rng.choice(names)) for _ in range(30)
        ]
        g = KnowledgeGraph.from_triples(triples)
        query = " ".join(rng.sample(WORDS + ["built", "by", "what"], 5))
        expected = reference_rank_graph_elements(g, query)
        assert rank_graph_elements(g, query) == expected
        assert rank_graph_elements(g, query, shared) == expected
        query_vec = shared.embed([query])[0]
        edge_vecs = {t: shared.embed([verbalize_element(t)])[0] for t in g.triples}
        assert [t for t, _ in rank_elements(query_vec, edge_vecs)] == expected[1]


def word_graph(rng: random.Random) -> tuple[KnowledgeGraph, str]:
    """A random graph with word labels, and a query drawn from its words."""
    names = [f"{rng.choice(WORDS)}_{rng.choice(WORDS)}_{rng.randint(0, 9)}" for _ in range(12)]
    relations = ["founded_in", "named_by", "built_by", "near"]
    triples = [(rng.choice(names), rng.choice(relations), rng.choice(names)) for _ in range(30)]
    query = " ".join(rng.sample(WORDS + ["built", "by", "what"], 5))
    return KnowledgeGraph.from_triples(triples, extra_entities=names[:2]), query


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    specs=st.lists(
        st.tuples(st.sampled_from(METHODS), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1)),
        min_size=1, max_size=3,
    ),
    original_first=st.booleans(),
)
def test_memo_backed_ranking_equals_a_fresh_one(seed, specs, original_first):
    # One memo serves the original and its perturbations, in either order.
    g, query = word_graph(random.Random(seed))
    damaged = [perturb(g, PerturbationSpec(*spec)).graph for spec in specs]
    graphs = [g, *damaged] if original_first else [*damaged, g]
    memo, provider = {}, HashedBagEmbedder()
    for graph in graphs:
        assert rank_graph_elements(graph, query, provider, memo) == rank_graph_elements(graph, query)
    assert set(memo) == {x for graph in graphs for x in (*graph.entities, *graph.triples)}


def test_memo_embeds_only_the_elements_it_lacks():
    class Recorder:
        def __init__(self):
            self.texts = []

        def embed(self, texts):
            self.texts += texts
            return HashedBagEmbedder().embed(texts)

    g, query = word_graph(random.Random(7))
    kept, dropped = g.triples[:-1], g.triples[-1]
    memo, recorder = {}, Recorder()
    rank_graph_elements(KnowledgeGraph.from_triples(kept, extra_entities=g.entities), query, recorder, memo)
    recorder.texts.clear()
    assert rank_graph_elements(g, query, recorder, memo) == rank_graph_elements(g, query)
    assert recorder.texts == [query, verbalize_element(dropped)]  # one call, one new triple
    recorder.texts.clear()
    rank_graph_elements(g, query, recorder, memo)
    assert recorder.texts == []  # nothing new: no embed call


def test_equal_cosines_rank_by_id():
    # Both triples score 1/sqrt(18) against this question; the float sums
    # differ in the last bit, and the smaller id must still rank first.
    query = "tell me what royal meadow 1090 was built by"
    a = Triple("golden_meadow_4888", "founded_in", "royal_canyon_7264")
    b = Triple("coastal_temple_2814", "named_by", "lunar_river_3250")
    q, va, vb = HashedBagEmbedder().embed([query, verbalize_element(a), verbalize_element(b)])
    assert cosine(q, va) != cosine(q, vb)
    assert round(cosine(q, va), 12) == round(cosine(q, vb), 12) == round(1 / math.sqrt(18), 12)
    g = KnowledgeGraph.from_triples([a, b])
    _, edges = rank_graph_elements(g, query)
    assert edges == [b, a] == reference_rank_graph_elements(g, query)[1]
    ranked = rank_elements(q, {a: va, b: vb})
    assert [e for e, _ in ranked] == [b, a]
    assert ranked[0][1] == ranked[1][1]


def test_rank_elements_is_cosine_on_unnormalized_vectors():
    q = np.array([3.0, 4.0])
    ranked = rank_elements(q, {"far": np.array([0.0, -2.0]), "near": np.array([6.0, 8.0]),
                               "zero": np.zeros(2)})
    assert ranked == [("near", 1.0), ("zero", 0.0), ("far", -0.8)]
    assert rank_elements(q, {}) == []


def test_embed_memo_shares_read_only_vectors_and_counts_hits(monkeypatch):
    emb = HashedBagEmbedder()
    texts = ["alpha beta", "gamma", "alpha beta", "delta"]
    first = emb.embed(texts)
    one_by_one = [HashedBagEmbedder().embed([t])[0] for t in texts]
    assert all(a.tobytes() == b.tobytes() for a, b in zip(first, one_by_one))
    assert first[0] is first[2]
    assert emb.memo_stats == {"embedded": 3, "hits": 1}
    hashed = []
    original = relevance._token_bucket

    def counted(token, dimension):
        hashed.append(token)
        return original(token, dimension)

    monkeypatch.setattr(relevance, "_token_bucket", counted)
    again = emb.embed(["gamma", "epsilon"])
    assert hashed == ["epsilon"]  # a memo hit hashes nothing
    assert again[0] is first[1]
    assert emb.memo_stats == {"embedded": 4, "hits": 2}
    for vec in first + again:
        assert not vec.flags.writeable
        with pytest.raises(ValueError):
            vec[0] = 1.0
    # The memo is per instance and does not take part in equality.
    assert emb == HashedBagEmbedder()
    assert not HashedBagEmbedder().memo


def test_rank_graph_elements_with_embed_only_provider():
    class PlainProvider:
        def embed(self, texts):
            return HashedBagEmbedder().embed(texts)

    g = KnowledgeGraph.from_triples(
        [("solar_panel", "generates", "electricity"), ("coal_plant", "burns", "coal")]
    )
    question = "how do solar panels make electricity"
    assert rank_graph_elements(g, question, PlainProvider()) == rank_graph_elements(g, question)


def test_rank_graph_elements_embeds_each_element_verbalized():
    class Recorder:
        def __init__(self):
            self.texts = []

        def embed(self, texts):
            self.texts += texts
            return HashedBagEmbedder().embed(texts)

    g = KnowledgeGraph.from_triples(
        [
            ("http://ex.org/Tesla_Inc", "http://ex.org/ns#founded_by", "http://ex.org/Elon_Musk"),
            ("http://ex.org/Elon_Musk", "http://ex.org/ns#founded_by", "http://ex.org/Elon_Musk"),
            ("http://ex.org/Elon_Musk", "knows/", "plain_name"),
            ("knows/", "http://ex.org/ns#founded_by", "Tesla#"),
        ],
        extra_entities=["lonely_node"],
    )
    recorder = Recorder()
    rank_graph_elements(g, "who founded tesla", recorder)
    expected = ["who founded tesla", *map(verbalize_element, g.entity_order)]
    assert recorder.texts == expected + [verbalize_element(t) for t in g.triples]
