"""Shared test helpers: seeded random graphs, a graph layout check,
string-keyed adjacency helpers for reference code, a per-node clustering
reference, a string-keyed edge scorer reference and a local mock HTTP
server."""

from __future__ import annotations

import json
import random
import threading
from collections import Counter
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from operator import itemgetter

import numpy as np
import pytest

from kgr.graph import KnowledgeGraph, Triple


def random_graph(
    rng: random.Random,
    n_nodes: int,
    n_edges: int,
    n_relations: int = 3,
    allow_self_loops: bool = False,
) -> KnowledgeGraph:
    """Random multigraph over entities e0..e{n-1} and relations r0..r{k-1}."""
    nodes = [f"e{i}" for i in range(n_nodes)]
    relations = [f"r{i}" for i in range(n_relations)]
    triples = set()
    attempts = 0
    while len(triples) < n_edges and attempts < n_edges * 20:
        attempts += 1
        s = rng.choice(nodes)
        o = rng.choice(nodes)
        if not allow_self_loops and s == o:
            continue
        triples.add((s, rng.choice(relations), o))
    return KnowledgeGraph.from_triples(triples, extra_entities=nodes)


def assert_same_graph(g: KnowledgeGraph, expected: KnowledgeGraph) -> None:
    """Equal content and layout: entity and relation order and index,
    endpoint and relation id arrays, triple keys and incidence included.  ``expected`` is also rebuilt
    by ``from_triples`` so its indexes come from a fresh lookup."""
    rebuilt = KnowledgeGraph.from_triples(
        expected.triples, extra_entities=expected.entities, extra_relations=expected.relations
    )
    for other in (expected, rebuilt):
        assert g == other
        assert g.relations == other.relations
        assert g.entity_order == other.entity_order
        assert g.entity_index == other.entity_index
        assert g.relation_order == other.relation_order
        assert g.relation_index == other.relation_index
        for mine, theirs in zip(
            (*g.endpoint_ids, g.relation_ids, g.triple_keys, *g.incidence),
            (*other.endpoint_ids, other.relation_ids, other.triple_keys, *other.incidence),
        ):
            assert mine.dtype == theirs.dtype and np.array_equal(mine, theirs)
    subjects, objects = g.endpoint_ids
    assert [g.entity_order[i] for i in subjects] == [t.subject for t in g.triples]
    assert [g.entity_order[i] for i in objects] == [t.object for t in g.triples]
    relations = sorted(g.relations)
    assert [relations[i] for i in g.relation_ids] == [t.relation for t in g.triples]
    assert g.relation_ids.dtype == np.intp
    for ids in (subjects, objects, g.relation_ids, g.triple_keys):
        assert not ids.flags.writeable


def orphan_labels(g: KnowledgeGraph) -> set[str]:
    """The relation labels of ``g`` that no triple uses."""
    return g.relations - {t.relation for t in g.triples}


def out_edges(g: KnowledgeGraph) -> dict[str, list[Triple]]:
    """Each entity's out-going triples in triple order; every entity has an entry."""
    acc: dict[str, list[Triple]] = {e: [] for e in g.entities}
    for t in g.triples:
        acc[t.subject].append(t)
    return acc


def in_edges(g: KnowledgeGraph) -> dict[str, list[Triple]]:
    """Each entity's in-coming triples in triple order; every entity has an entry."""
    acc: dict[str, list[Triple]] = {e: [] for e in g.entities}
    for t in g.triples:
        acc[t.object].append(t)
    return acc


def neighbor_sets(g: KnowledgeGraph) -> dict[str, set[str]]:
    """1-hop neighbours ignoring direction; an entity is its own neighbour
    only through a self-loop."""
    acc: dict[str, set[str]] = {e: set() for e in g.entities}
    for t in g.triples:
        acc[t.subject].add(t.object)
        acc[t.object].add(t.subject)
    return acc


def local_clustering(g: KnowledgeGraph, entity: str) -> float:
    """Per-node reference for the library's clustering: the neighbour-pair
    loop on the undirected simple projection (self-loops ignored).

    c(v) = 2 * tri(v) / (deg(v) * (deg(v) - 1)), and 0.0 when deg(v) < 2.
    """
    adj = neighbor_sets(g)
    nbrs = adj[entity] - {entity}
    deg = len(nbrs)
    if deg < 2:
        return 0.0
    ordered = sorted(nbrs)
    tri = 0
    for i, u in enumerate(ordered):
        u_adj = adj[u]
        for w in ordered[i + 1 :]:
            if w in u_adj:
                tri += 1
    return 2.0 * tri / (deg * (deg - 1))


@dataclass(frozen=True)
class DictEdgeScorer:
    """Reference for the library's baseline scorer, keyed by strings: a
    present triple scores 1, any other the mean of its subject's share of
    out-edges and its object's share of in-edges with that relation
    (``dict.get`` gives 0 for a pair the graph lacks)."""

    triples: frozenset
    out_freq: dict
    in_freq: dict

    def score(self, subject: str, relation: str, object_id: str) -> float:
        if (subject, relation, object_id) in self.triples:
            return 1.0
        return 0.5 * (
            self.out_freq.get((subject, relation), 0.0)
            + self.in_freq.get((object_id, relation), 0.0)
        )


def fit_dict_scorer(g: KnowledgeGraph) -> DictEdgeScorer:
    """The reference scorer fitted on ``g``, with Python int / int frequencies."""
    out_counts = Counter(map(itemgetter(0, 1), g.triples))
    in_counts = Counter(map(itemgetter(2, 1), g.triples))
    out_degree = Counter(map(itemgetter(0), g.triples))
    in_degree = Counter(map(itemgetter(2), g.triples))
    return DictEdgeScorer(
        triples=frozenset((t.subject, t.relation, t.object) for t in g.triples),
        out_freq={key: c / out_degree[key[0]] for key, c in out_counts.items()},
        in_freq={key: c / in_degree[key[0]] for key, c in in_counts.items()},
    )


class _MockHandler(BaseHTTPRequestHandler):
    def do_POST(self):  # noqa: N802 - http.server API
        length = int(self.headers.get("Content-Length", 0))
        payload = json.loads(self.rfile.read(length) or b"{}")
        self.server.last_auth = self.headers.get("Authorization")  # type: ignore[attr-defined]
        status, body, *extra = self.server.behavior(payload)  # type: ignore[attr-defined]
        data = json.dumps(body).encode("utf-8")
        self.send_response(status)
        for name, value in (extra[0] if extra else {}).items():
            self.send_header(name, value)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    do_GET = do_POST  # a followed 301/302/303 arrives as a GET

    def log_message(self, *args):  # silence test output
        pass


class MockService:
    """Tiny local HTTP JSON endpoint with a swappable behavior function.

    ``behavior(payload) -> (status, body_dict[, headers])`` runs per
    request; the call count is tracked so tests can assert on retries.
    """

    def __init__(self, behavior):
        self.calls = 0
        self._behavior = behavior
        self._lock = threading.Lock()
        self._server = ThreadingHTTPServer(("127.0.0.1", 0), _MockHandler)
        self._server.behavior = self._count_and_run
        self._server.last_auth = None
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)
        self._thread.start()

    @property
    def last_auth(self):
        return self._server.last_auth

    def _count_and_run(self, payload):
        with self._lock:
            self.calls += 1
        return self._behavior(payload)

    @property
    def url(self) -> str:
        host, port = self._server.server_address
        return f"http://{host}:{port}/"

    def close(self) -> None:
        self._server.shutdown()
        self._server.server_close()


@pytest.fixture
def mock_service():
    started: list[MockService] = []

    def factory(behavior) -> MockService:
        service = MockService(behavior)
        started.append(service)
        return service

    yield factory
    for service in started:
        service.close()


def echo_generation_behavior(payload):
    """Standard echo mock: answers with a digest of the prompt."""
    prompt = payload.get("prompt", "")
    return 200, {"text": f"ECHO[{len(prompt)}]: {prompt[:80]}", "model": "echo-mock"}
