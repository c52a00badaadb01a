"""Parsing, canonical serialization, and K-hop neighborhood extraction."""

from __future__ import annotations

import io
import random
from collections import deque

import pytest
from hypothesis import example, given, settings, strategies as st

from kgr.graph import EntityNotFoundError, KnowledgeGraph, Triple
from kgr.ingest import (
    FORMAT_NT,
    ParseError,
    jsonl_line,
    jsonl_records,
    khop_subgraph,
    parse_triples,
    read_queries,
    serialize,
)
from conftest import random_graph


def test_parse_tsv_basic_and_dedup():
    text = "A\tlikes\tB\nA\tlikes\tB\nB\tknows\tC\n"
    g = parse_triples(text)
    assert g.triples == (Triple("A", "likes", "B"), Triple("B", "knows", "C"))
    assert g.entities == {"A", "B", "C"}


def test_parse_tsv_accepts_bytes_and_streams():
    raw = "A\tr\tB\n".encode("utf-8")
    assert parse_triples(raw) == parse_triples(io.BytesIO(raw))


def test_parse_empty_input_gives_empty_graph():
    g = parse_triples("")
    assert g.entities == frozenset()
    assert g.triples == ()


def test_parse_tsv_malformed_line_number():
    with pytest.raises(ParseError) as err:
        parse_triples("A\tr\tB\nA\tB\nC\tr\tD\n")
    assert err.value.line_number == 2
    with pytest.raises(ParseError):
        parse_triples("A\t\tB\n")


def test_parse_nt_round():
    text = (
        "# a comment\n"
        "<http://x/A> <http://x/r> <http://x/B> .\n"
        "<http://x/B>   <http://x/r>   <http://x/C> .\n"
    )
    g = parse_triples(text, FORMAT_NT)
    assert len(g.triples) == 2
    assert "http://x/A" in g.entities


def test_parse_nt_rejects_literals_with_line_number():
    text = '<http://x/A> <http://x/r> "a literal" .\n'
    with pytest.raises(ParseError) as err:
        parse_triples(text, FORMAT_NT)
    assert err.value.line_number == 1
    assert "literal" in str(err.value)


def test_parse_unknown_format():
    with pytest.raises(ValueError):
        parse_triples("", "xml")


def test_serialize_round_trip_random_graphs():
    rng = random.Random(31)
    for _ in range(50):
        g = random_graph(rng, rng.randint(2, 14), rng.randint(1, 30))
        # Drop isolated nodes: the triple format cannot carry them.
        g = KnowledgeGraph.from_triples(g.triples)
        text = serialize(g)
        assert parse_triples(text) == g
        # Fixed point: one extra round trip is byte-identical.
        assert serialize(parse_triples(text)) == text


def test_serialize_is_sorted_and_deterministic():
    g1 = KnowledgeGraph.from_triples([("B", "r", "C"), ("A", "r", "B")])
    g2 = KnowledgeGraph.from_triples([("A", "r", "B"), ("B", "r", "C")])
    assert serialize(g1) == serialize(g2) == "A\tr\tB\nB\tr\tC\n"


CHAIN = [("A", "r", "B"), ("B", "r", "C"), ("C", "r", "D")]


def test_khop_chain():
    g = KnowledgeGraph.from_triples(CHAIN)
    sub = khop_subgraph(g, ("A",), hops=2)
    assert sub.entities == {"A", "B", "C"}
    assert sub.triples == (Triple("A", "r", "B"), Triple("B", "r", "C"))


def test_khop_isolated_seed():
    g = KnowledgeGraph.from_triples(CHAIN, extra_entities=["lonely"])
    sub = khop_subgraph(g, ("lonely",), hops=1)
    assert sub.entities == {"lonely"}
    assert sub.triples == ()


def test_khop_unknown_seed():
    g = KnowledgeGraph.from_triples(CHAIN)
    with pytest.raises(EntityNotFoundError):
        khop_subgraph(g, ("Z",), hops=1)


def test_khop_request_validation():
    g = KnowledgeGraph.from_triples(CHAIN)
    with pytest.raises(ValueError, match="at least one seed"):
        khop_subgraph(g, (), hops=1)
    with pytest.raises(ValueError, match="hops must be >= 0"):
        khop_subgraph(g, ("A",), hops=-1)
    assert khop_subgraph(g, ["A"]) == khop_subgraph(g, ("A",), hops=2)


def _bfs_distances(g: KnowledgeGraph, seeds) -> dict[str, int]:
    # Independent BFS over an adjacency map built directly from triples.
    adj: dict[str, set[str]] = {e: set() for e in g.entities}
    for s, _, o in g.triples:
        adj[s].add(o)
        adj[o].add(s)
    dist = {s: 0 for s in seeds}
    queue = deque(seeds)
    while queue:
        v = queue.popleft()
        for u in adj[v]:
            if u not in dist:
                dist[u] = dist[v] + 1
                queue.append(u)
    return dist


def test_khop_matches_bfs_oracle():
    rng = random.Random(37)
    for _ in range(30):
        g = random_graph(rng, 14, 25)
        seeds = tuple(rng.sample(sorted(g.entities), rng.randint(1, 3)))
        k = rng.randint(0, 3)
        sub = khop_subgraph(g, seeds, hops=k)
        dist = _bfs_distances(g, seeds)
        expected = tuple(
            sorted(
                t
                for t in g.triples
                if dist.get(t.subject, k + 1) <= k and dist.get(t.object, k + 1) <= k
            )
        )
        assert sub.triples == expected
        for seed in seeds:
            assert seed in sub.entities


def test_khop_monotone_in_hops():
    rng = random.Random(41)
    for _ in range(10):
        g = random_graph(rng, 15, 30)
        seeds = (sorted(g.entities)[0],)
        previous: set = set()
        for k in range(4):
            sub = khop_subgraph(g, seeds, hops=k)
            current = set(sub.triples)
            assert previous <= current
            previous = current


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=12,
)
_RECORDS = st.dictionaries(st.text(), _JSON_VALUES, max_size=4).filter(
    lambda record: record.get("record_type") != "header"
)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["record", "blank", "header"]), _RECORDS), max_size=8))
@example([("record", {"q": "Straße → 東京", "x": -0.1, "e": [], "d": {}}), ("blank", {})])
def test_jsonl_codec_round_trip(lines):
    text, expected = "", []
    for lineno, (kind, record) in enumerate(lines, start=1):
        if kind == "record":
            text += jsonl_line(record)
            expected.append((lineno, record))
        elif kind == "blank":
            text += " \t\n"
        else:
            text += jsonl_line({**record, "record_type": "header"})
    assert text.count("\n") == len(lines)
    assert list(jsonl_records(io.StringIO(text), "f")) == expected
    assert list(jsonl_records(text.splitlines(), "f")) == expected


def test_read_queries_skips_blank_and_header_lines(tmp_path):
    path = tmp_path / "q.jsonl"
    path.write_text(
        '{"record_type": "header", "note": "no id"}\n\n{"id": "q1", "question": "x"}\n',
        encoding="utf-8",
    )
    assert read_queries(str(path)) == [{"id": "q1", "question": "x", "seeds": []}]
