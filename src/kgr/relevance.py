"""Embedding providers, cosine ranking, and rank-based prize assignment.

Graph elements (entities and triples) are verbalized to short text,
embedded alongside the query, ranked by cosine similarity, and the top
ranks receive integer prizes k, k-1, ..., 1.  Two providers exist: a
remote HTTP service and a fully deterministic hashed bag-of-tokens
fallback that needs no network at all and memoizes its vectors.
"""

from __future__ import annotations

import hashlib
import itertools
import re
from collections import Counter
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .graph import Triple
from .transport import (
    DEFAULT_BACKOFF,
    DEFAULT_MAX_ATTEMPTS,
    DEFAULT_TIMEOUT,
    post_json,
    TransportError,
)

EMBED_URL_ENV = "KGR_EMBED_URL"
EMBED_TOKEN_ENV = "KGR_EMBED_TOKEN"

FALLBACK_DIMENSION = 256
SERVICE_BATCH_SIZE = 128
DEFAULT_K = 15  # prize depth: ranks 1..k earn k..1
DEFAULT_EDGE_COST = 1.0

_TOKEN = re.compile(r"[a-z0-9]+")


def element_label(element_id: str) -> str:
    """Human-readable label for an entity or relation id.

    IRI ids keep only the final path fragment; underscores become spaces.
    """
    tail = element_id.rstrip("/#")
    for sep in ("#", "/"):
        if sep in tail:
            tail = tail.rsplit(sep, 1)[1]
    tail = tail or element_id
    return tail.replace("_", " ")


def verbalize_element(element: str | Triple) -> str:
    """Text form of a graph element: entity label, or the three labels
    of a triple joined by spaces."""
    if isinstance(element, Triple):
        return _triple_text(element, element_label)
    return element_label(element)


def _triple_text(triple: Triple, label) -> str:
    """The one rule joining a triple's subject, relation and object labels."""
    return " ".join(map(label, triple))


def _tokens(text: str) -> list[str]:
    return _TOKEN.findall(text.lower())


def _token_bucket(token: str, dimension: int) -> tuple[int, float]:
    digest = hashlib.sha1(token.encode("utf-8")).digest()
    idx = int.from_bytes(digest[:4], "big") % dimension
    sign = 1.0 if digest[4] & 1 else -1.0
    return idx, sign


@dataclass(frozen=True)
class HashedBagEmbedder:
    """Deterministic offline embedder: signed hashed bag of tokens.

    Token order does not matter and no state is ever learned, so equal
    texts map to bit-identical unit vectors on every platform.  Because
    the embedding is pure, :meth:`embed` memoizes it exactly: each
    distinct text is embedded once per instance, and the memo lives as
    long as the instance.
    """

    dimension: int = FALLBACK_DIMENSION
    memo: dict[str, np.ndarray] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    # "embedded": texts the memo lacked; "hits": texts the memo answered.
    memo_stats: Counter = field(
        default_factory=Counter, init=False, repr=False, compare=False
    )

    def embed(self, texts: Sequence[str]) -> list[np.ndarray]:
        """One unit vector per text.  The vectors are shared through the
        memo, so they are read-only.

        The texts the memo lacks are embedded together: one ``bincount``
        over ``row * dimension + bucket`` builds all their signed bags, a
        row whose signed counts cancel out falls back to its unsigned bag,
        and every row is divided by its norm.  Bag entries are exact
        integers, so the sums and norms do not depend on summation order.
        """
        memo = self.memo
        new = [t for t in dict.fromkeys(texts) if t not in memo]
        if new:
            memo.update(zip(new, self._embed_rows(new)))
        self.memo_stats["embedded"] += len(new)
        self.memo_stats["hits"] += len(texts) - len(new)
        return [memo[t] for t in texts]

    def _embed_rows(self, texts: list[str]) -> np.ndarray:
        """Read-only matrix of the texts' unit vectors, one row per text."""
        if not all(text and text.strip() for text in texts):
            raise ValueError("cannot embed empty text")
        # Punctuation-only input still deserves a stable direction.
        tokens = [_tokens(text) or [text.strip()] for text in texts]
        flat = list(itertools.chain.from_iterable(tokens))
        # Each distinct token is hashed once per call.
        distinct = {tok: i for i, tok in enumerate(dict.fromkeys(flat))}
        hashed = (_token_bucket(tok, self.dimension) for tok in distinct)
        buckets, signs = map(np.array, zip(*hashed))
        which = np.fromiter(map(distinct.__getitem__, flat), np.intp, len(flat))
        shape = (len(texts), self.dimension)
        size = shape[0] * shape[1]
        # Cell ``row * dimension + bucket`` of the flattened bag matrix.
        cells = np.repeat(np.arange(0, size, self.dimension), list(map(len, tokens)))
        cells += buckets[which]
        bags = np.bincount(cells, weights=signs[which], minlength=size).reshape(shape)
        # Row norms without a squared copy of the matrix; the sums of
        # squares are exact integers, as in ``np.linalg.norm``.
        norms = np.sqrt(np.einsum("ij,ij->i", bags, bags))
        cancelled = norms == 0.0
        if cancelled.any():
            # Signed counts cancelled out, so the row is zero; fill it with
            # the unsigned bag instead.
            np.add.at(bags.reshape(-1), cells[cancelled[cells // self.dimension]], 1.0)
            norms[cancelled] = np.linalg.norm(bags[cancelled], axis=1)
        bags /= norms[:, None]
        bags.flags.writeable = False
        return bags


@dataclass(frozen=True)
class ServiceEmbedder:
    """Remote embedding endpoint speaking ``{"texts": [...]}`` ->
    ``{"vectors": [[...]]}``, batched and retried with backoff."""

    url: str
    token: str | None = None
    batch_size: int = SERVICE_BATCH_SIZE
    timeout: float = DEFAULT_TIMEOUT
    max_attempts: int = DEFAULT_MAX_ATTEMPTS
    backoff: float = DEFAULT_BACKOFF

    def embed(self, texts: Sequence[str]) -> list[np.ndarray]:
        for t in texts:
            if not t or not t.strip():
                raise ValueError("cannot embed empty text")
        out: list[np.ndarray] = []
        for start in range(0, len(texts), self.batch_size):
            batch = list(texts[start : start + self.batch_size])
            body, retries = post_json(
                self.url,
                {"texts": batch},
                token=self.token,
                timeout=self.timeout,
                max_attempts=self.max_attempts,
                backoff=self.backoff,
            )
            vectors = body.get("vectors")
            if not isinstance(vectors, list) or len(vectors) != len(batch):
                raise TransportError(
                    "malformed embedding response: expected one vector per text",
                    attempts=retries + 1,
                )
            for row in vectors:
                vec = np.asarray(row, dtype=np.float64)
                if vec.ndim != 1 or vec.size == 0:
                    raise TransportError(
                        "malformed embedding response: bad vector shape",
                        attempts=retries + 1,
                    )
                norm = float(np.linalg.norm(vec))
                if norm == 0.0:
                    raise TransportError(
                        "malformed embedding response: zero vector",
                        attempts=retries + 1,
                    )
                out.append(vec / norm)
        return out


def _similarities(matrix: np.ndarray, query_vec: np.ndarray) -> np.ndarray:
    """Similarity of each (unit) row to the (unit) query, rounded to 12
    decimals so that mathematically equal cosines compare equal whatever
    the float summation order."""
    return np.round(matrix @ query_vec, 12)


def _descending(sims: np.ndarray) -> np.ndarray:
    """Order by descending similarity; position, the element id, breaks ties."""
    return np.lexsort((np.arange(len(sims)), -sims))


def _unit_rows(matrix: np.ndarray) -> np.ndarray:
    """Rows scaled to unit length; zero rows stay zero (similarity 0)."""
    norms = np.linalg.norm(matrix, axis=-1, keepdims=True)
    return np.divide(matrix, norms, out=np.zeros_like(matrix), where=norms > 0.0)


def rank_elements(query_vec: np.ndarray, element_vecs: Mapping) -> list[tuple]:
    """Sort elements by descending cosine similarity to the query.

    Similarities are rounded to 12 decimals and ties break on the
    element id, so equal inputs always produce the same ranking.
    Returns ``(element, similarity)`` pairs.
    """
    elements = sorted(element_vecs)
    if not elements:
        return []
    matrix = _unit_rows(np.stack([np.asarray(element_vecs[e], dtype=np.float64) for e in elements]))
    sims = _similarities(matrix, _unit_rows(np.asarray(query_vec, dtype=np.float64)))
    return [(elements[i], float(sims[i])) for i in _descending(sims)]


@dataclass(frozen=True)
class PrizeAssignment:
    """Integer prizes for ranked nodes/edges plus the uniform edge cost.

    Rank i (1-based) earns ``max(0, k - i + 1)``; anything unranked is
    worth nothing.  Maps may hold scaled (non-integer) values when a
    caller rescales an assignment, the accessors do not care.
    """

    node_prizes: dict[str, float]
    edge_prizes: dict[Triple, float]
    edge_cost: float = DEFAULT_EDGE_COST
    k: int = DEFAULT_K

    def node_prize(self, entity: str) -> float:
        return self.node_prizes.get(entity, 0.0)

    def edge_prize(self, triple: Triple) -> float:
        return self.edge_prizes.get(triple, 0.0)


def prize_for_rank(rank: int, k: int) -> int:
    """Prize of the element at 1-based ``rank``: max(0, k - rank + 1)."""
    if rank < 1:
        raise ValueError("rank is 1-based")
    return max(0, k - rank + 1)


def assign_prizes(
    ranked_nodes: Sequence[str],
    ranked_edges: Sequence[Triple],
    k: int = DEFAULT_K,
    edge_cost: float = DEFAULT_EDGE_COST,
) -> PrizeAssignment:
    """Turn two ranked lists into a prize assignment with shared ``k``.

    ``ranked_*`` must already be in descending relevance order (as
    returned by :func:`rank_elements`).  ``k`` must be >= 1 and within
    the float range, and ``edge_cost`` positive.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    try:
        float(k)
    except OverflowError:
        raise ValueError("k is too large for a float prize") from None
    if edge_cost <= 0.0:
        raise ValueError("edge_cost must be positive")
    node_prizes = {
        node: float(prize_for_rank(i, k))
        for i, node in enumerate(ranked_nodes[:k], start=1)
    }
    edge_prizes = {
        edge: float(prize_for_rank(i, k))
        for i, edge in enumerate(ranked_edges[:k], start=1)
    }
    return PrizeAssignment(
        node_prizes=node_prizes, edge_prizes=edge_prizes, edge_cost=edge_cost, k=k
    )


def rank_graph_elements(
    g, query: str, provider=None, similarities: dict | None = None
) -> tuple[list[str], list[Triple]]:
    """Rank a graph's entities and triples against a query text.

    Returns ``(ranked_nodes, ranked_edges)`` id lists, most relevant
    first, by the rule of :func:`rank_elements`.  Uses a fresh
    deterministic fallback embedder unless a provider is given.
    ``similarities`` memoizes each element's (entity id or triple) rounded
    similarity to ``query``: only the elements it lacks are embedded, in
    one ``provider.embed`` call, and added.  Share it only across rankings
    of one query; sharing also takes the provider to embed a text the same
    way every time, as :func:`kgr.sweep.run_sweep` does for every provider.
    """
    provider = provider or HashedBagEmbedder()
    similarities = {} if similarities is None else similarities
    nodes, edges = g.entity_order, g.triples  # both already in id order
    new_nodes = [e for e in nodes if e not in similarities]
    new_edges = [t for t in edges if t not in similarities]
    if new_nodes or new_edges:
        label = {e: element_label(e) for e in (*nodes, *g.relations)}.__getitem__
        texts = [query, *map(label, new_nodes), *(_triple_text(t, label) for t in new_edges)]
        vectors = np.stack(provider.embed(texts))
        split = 1 + len(new_nodes)
        for new, rows in ((new_nodes, vectors[1:split]), (new_edges, vectors[split:])):
            similarities.update(zip(new, _similarities(rows, vectors[0]).tolist()))

    def ranked(elements):
        sims = np.fromiter(map(similarities.__getitem__, elements), np.float64, len(elements))
        return [elements[i] for i in _descending(sims)]

    return ranked(nodes), ranked(edges)
