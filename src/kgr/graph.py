"""Directed labeled multigraph model for knowledge graphs.

A graph is an immutable collection of (subject, relation, object) triples
plus an entity set that may contain isolated nodes.  Exact duplicate
triples are collapsed on construction and the triple tuple is kept in
lexicographic order, so equal graphs have identical internal layout.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import AbstractSet, Iterable, Iterator, Mapping, NamedTuple

import numpy as np


class EntityNotFoundError(KeyError):
    """Raised when an entity id is not present in a graph."""


class RelationNotFoundError(KeyError):
    """Raised when a relation id is not present in a graph."""


class Triple(NamedTuple):
    """One directed labeled edge."""

    subject: str
    relation: str
    object: str


@dataclass(frozen=True, eq=False)
class KnowledgeGraph:
    """Immutable directed multigraph with string entity/relation ids.

    Build instances through :meth:`from_triples`; the constructor itself
    assumes already-normalized fields.  All derived indexes are computed
    lazily and cached, which is safe because instances never mutate.
    """

    entities: frozenset[str]
    relations: frozenset[str]
    triples: tuple[Triple, ...]

    @classmethod
    def from_triples(
        cls,
        triples: Iterable[tuple[str, str, str]],
        extra_entities: Iterable[str] = (),
        extra_relations: Iterable[str] = (),
    ) -> "KnowledgeGraph":
        """Create a graph from triples, deduplicating and sorting them.

        ``extra_entities`` / ``extra_relations`` add members that have no
        supporting triple (isolated nodes, orphan relation labels).
        Raises ``ValueError`` on empty ids.
        """
        seen: set[Triple] = set()
        for item in triples:
            t = item if isinstance(item, Triple) else Triple(*item)
            if not t.subject or not t.relation or not t.object:
                raise ValueError(f"triple with empty field: {t!r}")
            seen.add(t)
        extra_e = set(extra_entities)
        extra_r = set(extra_relations)
        if "" in extra_e or "" in extra_r:
            raise ValueError("empty entity or relation id")
        ordered = tuple(sorted(seen))
        entities = frozenset(
            {t.subject for t in ordered} | {t.object for t in ordered} | extra_e
        )
        relations = frozenset({t.relation for t in ordered} | extra_r)
        return cls(entities=entities, relations=relations, triples=ordered)

    # -- equality is content equality: same entity set, same triple set.
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, KnowledgeGraph):
            return NotImplemented
        return self.entities == other.entities and self.triples == other.triples

    def __hash__(self) -> int:
        return hash((self.entities, self.triples))

    def __repr__(self) -> str:
        return (
            f"KnowledgeGraph(|V|={len(self.entities)}, "
            f"|R|={len(self.relations)}, |T|={len(self.triples)})"
        )

    @cached_property
    def entity_order(self) -> tuple[str, ...]:
        """Entities in stable lexicographic order (index space for vectors)."""
        return tuple(sorted(self.entities))

    @cached_property
    def entity_index(self) -> dict[str, int]:
        return {e: i for i, e in enumerate(self.entity_order)}

    @cached_property
    def endpoint_ids(self) -> tuple[np.ndarray, np.ndarray]:
        """Subject and object positions in :attr:`entity_order`, one pair per
        triple and aligned with :attr:`triples`.  The arrays are read-only."""
        index = self.entity_index
        count = len(self.triples)
        subjects = np.fromiter((index[t.subject] for t in self.triples), np.intp, count)
        objects = np.fromiter((index[t.object] for t in self.triples), np.intp, count)
        subjects.flags.writeable = objects.flags.writeable = False
        return subjects, objects

    def _induced(self, triple_mask: np.ndarray, entity_mask: np.ndarray) -> "KnowledgeGraph":
        """Subgraph of the triples and entities the boolean masks keep.

        Every kept triple must have both endpoints kept.  A subsequence of
        the sorted, duplicate-free triple tuple is still sorted and
        duplicate-free, so nothing is re-sorted; the child's entity order
        and endpoint arrays are carried over instead of rebuilt.  Members
        are gathered by the kept positions, so the cost follows the child's
        size, not the parent's.
        """
        kept_triples = np.flatnonzero(triple_mask)
        entity_order = _gather(self.entity_order, np.flatnonzero(entity_mask))
        triples = _gather(self.triples, kept_triples)
        child = KnowledgeGraph(
            entities=frozenset(entity_order),
            relations=frozenset(map(itemgetter(1), triples)),
            triples=triples,
        )
        remap = np.cumsum(entity_mask, dtype=np.intp) - 1
        subjects, objects = (remap[ids[kept_triples]] for ids in self.endpoint_ids)
        subjects.flags.writeable = objects.flags.writeable = False
        vars(child).update(entity_order=entity_order, endpoint_ids=(subjects, objects))
        return child

    @cached_property
    def out_index(self) -> dict[str, tuple[Triple, ...]]:
        """Out-edges per entity; every entity has an entry (possibly empty)."""
        acc: dict[str, list[Triple]] = {e: [] for e in self.entities}
        for t in self.triples:
            acc[t.subject].append(t)
        return {e: tuple(ts) for e, ts in acc.items()}

    @cached_property
    def in_index(self) -> dict[str, tuple[Triple, ...]]:
        acc: dict[str, list[Triple]] = {e: [] for e in self.entities}
        for t in self.triples:
            acc[t.object].append(t)
        return {e: tuple(ts) for e, ts in acc.items()}

    @cached_property
    def undirected_neighbors(self) -> dict[str, frozenset[str]]:
        """1-hop neighbor sets ignoring direction; v appears only via self-loop."""
        acc: dict[str, set[str]] = {e: set() for e in self.entities}
        for t in self.triples:
            acc[t.subject].add(t.object)
            acc[t.object].add(t.subject)
        return {e: frozenset(ns) for e, ns in acc.items()}

    @cached_property
    def simple_neighbors(self) -> dict[str, frozenset[str]]:
        """Undirected simple projection: neighbor sets with self-loops dropped."""
        return {
            e: frozenset(n for n in ns if n != e)
            for e, ns in self.undirected_neighbors.items()
        }

    @cached_property
    def mean_relation_clustering(self) -> np.ndarray:
        """Mean over relations of per-relation local clustering vectors.

        Entry i belongs to the i-th entity in lexicographic order.  Each
        relation's clustering is taken on its undirected simple projection
        (self-loops dropped); entities the relation does not touch
        contribute 0.  A graph whose relation set is empty yields the zero
        vector.  The array is read-only.
        """
        index = self.entity_index
        acc = np.zeros(len(index), dtype=np.float64)
        relations = sorted(self.relations)
        if relations:
            adjacency: dict[str, dict[str, set[str]]] = {r: {} for r in relations}
            for t in self.triples:
                if t.subject != t.object:
                    adj = adjacency[t.relation]
                    adj.setdefault(t.subject, set()).add(t.object)
                    adj.setdefault(t.object, set()).add(t.subject)
            for r in relations:  # sorted, so each entry's float sum has a fixed order
                for v, c in _local_clustering(adjacency[r]):
                    acc[index[v]] += c
            acc /= len(relations)
        acc.flags.writeable = False
        return acc

    @cached_property
    def mean_relation_degree(self) -> np.ndarray:
        """Mean over relations of per-relation undirected degree vectors.

        Each triple adds one to the degree of both endpoints inside its own
        relation subgraph (a self-loop therefore adds two to its node).
        The array is read-only.
        """
        n = len(self.entities)
        if self.relations:
            subjects, objects = self.endpoint_ids
            counts = np.bincount(subjects, minlength=n) + np.bincount(objects, minlength=n)
            vec = counts.astype(np.float64) / len(self.relations)
        else:
            vec = np.zeros(n, dtype=np.float64)
        vec.flags.writeable = False
        return vec


def _gather(items: tuple, positions: np.ndarray) -> tuple:
    """``items`` at the given positions, in their order, as a tuple."""
    kept = positions.tolist()
    if len(kept) < 2:  # itemgetter needs an index and returns a bare item for one
        return tuple(items[i] for i in kept)
    return itemgetter(*kept)(items)


@dataclass(frozen=True)
class GraphStats:
    """Basic whole-graph statistics."""

    node_count: int
    edge_count: int
    avg_degree: float
    clustering_coefficient: float
    density: float


def _local_clustering(adj: Mapping[str, AbstractSet[str]]) -> Iterator[tuple[str, float]]:
    """``(v, c(v))`` for every node of degree >= 2 in an undirected simple
    adjacency, c(v) = 2 * tri(v) / (deg(v) * (deg(v) - 1)); c is 0 for the
    other nodes."""
    for v, nbrs in adj.items():
        deg = len(nbrs)
        if deg >= 2:
            # Every edge among v's neighbours is seen from both ends.
            tri = sum(len(adj[u] & nbrs) for u in nbrs) // 2
            yield v, 2.0 * tri / (deg * (deg - 1))


def relation_subgraph(g: KnowledgeGraph, relation: str) -> KnowledgeGraph:
    """Subgraph keeping only triples labeled ``relation``.

    The entity set is preserved verbatim, so per-relation vectors stay
    comparable across relations.  Unknown relation raises
    ``RelationNotFoundError``.
    """
    if relation not in g.relations:
        raise RelationNotFoundError(relation)
    kept = [t for t in g.triples if t.relation == relation]
    return KnowledgeGraph.from_triples(
        kept, extra_entities=g.entities, extra_relations=(relation,)
    )


def graph_stats(g: KnowledgeGraph) -> GraphStats:
    """Node/edge counts, average degree, mean clustering, and density.

    Average degree and clustering use the undirected simple projection;
    density uses the directed simple projection (self-loops excluded).
    An empty graph yields all-zero statistics.
    """
    n = len(g.entities)
    if n == 0:
        return GraphStats(0, 0, 0.0, 0.0, 0.0)
    undirected_simple = {
        frozenset((t.subject, t.object)) for t in g.triples if t.subject != t.object
    }
    directed_simple = {
        (t.subject, t.object) for t in g.triples if t.subject != t.object
    }
    avg_degree = 2.0 * len(undirected_simple) / n
    # Summed in entity order; the nodes left out would each add 0.0.
    clustering = sum(c for _, c in sorted(_local_clustering(g.simple_neighbors))) / n
    density = len(directed_simple) / (n * (n - 1)) if n > 1 else 0.0
    return GraphStats(
        node_count=n,
        edge_count=len(g.triples),
        avg_degree=avg_degree,
        clustering_coefficient=clustering,
        density=density,
    )
