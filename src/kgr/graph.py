"""Directed labeled multigraph model for knowledge graphs.

A graph is an immutable collection of (subject, relation, object) triples
plus an entity set that may contain isolated nodes.  Exact duplicate
triples are collapsed on construction and the triple tuple is kept in
lexicographic order, so equal graphs have identical internal layout.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import compress, count, repeat
from operator import itemgetter
from typing import Iterable, NamedTuple, Sequence

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


class _Canonical(tuple):
    """Triples that are sorted, duplicate-free ``Triple`` instances with
    non-empty fields and endpoints among the given extra entities.
    :meth:`KnowledgeGraph.from_triples` takes them as they are, and its
    extras as the whole entity and relation sets."""


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
        Raises ``ValueError`` on empty ids.  The result does not depend on
        the input's order or repeats.  Deduplication keeps the input's order
        until the sort, so input made of a few sorted runs sorts in about
        one comparison per triple.  A perturbed graph's triples come already
        canonical, with its whole member sets as the extras
        (:meth:`_spliced`), and are taken as they are.
        """
        if type(triples) is _Canonical:
            # A spliced graph's triples, and its whole entity and relation sets.
            return cls(frozenset(extra_entities), frozenset(extra_relations), tuple(triples))
        seen = dict.fromkeys(t if isinstance(t, Triple) else Triple(*t) for t in triples)
        subjects, relations, objects = (set(map(itemgetter(k), seen)) for k in range(3))
        if not (all(subjects) and all(relations) and all(objects)):
            bad = next(t for t in seen if not all(t))
            raise ValueError(f"triple with empty field: {bad!r}")
        extra_e = set(extra_entities)
        extra_r = set(extra_relations)
        if "" in extra_e or "" in extra_r:
            raise ValueError("empty entity or relation id")
        return cls(
            entities=frozenset(subjects | objects | extra_e),
            relations=frozenset(relations | extra_r),
            triples=tuple(sorted(seen)),
        )

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
        index, triples = self.entity_index, self.triples
        return tuple(_lookup_ids(index, map(itemgetter(k), triples), len(triples)) for k in (0, 2))

    @cached_property
    def relation_order(self) -> tuple[str, ...]:
        """Relations in stable lexicographic order (index space of :attr:`relation_ids`)."""
        return tuple(sorted(self.relations))

    @cached_property
    def relation_index(self) -> dict[str, int]:
        return dict(zip(self.relation_order, count()))

    @cached_property
    def relation_ids(self) -> np.ndarray:
        """Each triple's relation as its position in :attr:`relation_order`,
        aligned with :attr:`triples`.  The ``intp`` array is read-only."""
        return _lookup_ids(self.relation_index, map(itemgetter(1), self.triples), len(self.triples))

    @cached_property
    def triple_keys(self) -> np.ndarray:
        """Each triple's integer key (see :func:`_keys`), aligned with
        :attr:`triples` and therefore sorted.  The array is read-only."""
        subjects, objects = self.endpoint_ids
        keys = _keys(len(self.entities), len(self.relations), subjects, self.relation_ids, objects)
        keys.flags.writeable = False
        return keys

    def _induced(self, triple_mask: np.ndarray, entity_mask: np.ndarray) -> "KnowledgeGraph":
        """Subgraph of the triples and entities the boolean masks keep.

        Every kept triple must have both endpoints kept.  A subsequence of
        the sorted, duplicate-free triple tuple is still sorted and
        duplicate-free, so nothing is re-sorted; the child's entity order,
        endpoint arrays and relation ids are carried over instead of
        rebuilt, and its relations are the parent's that a kept triple
        uses.  Members are gathered by the kept positions, so the cost
        follows the child's size, not the parent's.
        """
        kept_triples = np.flatnonzero(triple_mask)
        entity_order = _gather(self.entity_order, np.flatnonzero(entity_mask))
        relation_ids = self.relation_ids[kept_triples]
        used = np.zeros(len(self.relations), dtype=bool)
        used[relation_ids] = True
        relation_order = _gather(self.relation_order, np.flatnonzero(used))
        child = KnowledgeGraph(
            entities=frozenset(entity_order),
            relations=frozenset(relation_order),
            triples=_gather(self.triples, kept_triples),
        )
        remap = np.cumsum(entity_mask, dtype=np.intp) - 1
        subjects, objects = (remap[ids[kept_triples]] for ids in self.endpoint_ids)
        relation_ids = (np.cumsum(used, dtype=np.intp) - 1)[relation_ids]
        subjects.flags.writeable = objects.flags.writeable = relation_ids.flags.writeable = False
        vars(child).update(
            entity_order=entity_order, relation_order=relation_order,
            endpoint_ids=(subjects, objects), relation_ids=relation_ids,
        )
        return child

    def _find(self, subjects, relation_ids, objects) -> np.ndarray:
        """Each id triple's position in :attr:`triples`, or -1 where it is
        absent.  Ids are positions in :attr:`entity_order` and
        :attr:`relation_order`; a triple with an id of -1 is absent."""
        keys = self.triple_keys
        wanted = _keys(len(self.entities), len(self.relations), subjects, relation_ids, objects)
        if not len(keys):
            return np.full(len(wanted), -1, dtype=np.intp)
        # Clipped to the last key, so the array is not copied; no triple has the key -1.
        at = np.minimum(np.searchsorted(keys, wanted), len(keys) - 1)
        return np.where(keys[at] == wanted, at, -1)

    def _locate(self, triples: Sequence[Triple]) -> np.ndarray:
        """Each triple's position in :attr:`triples`, or -1 where it is absent."""
        return self._find(*_columns(self.entity_index, self.relation_index, triples))

    def _spliced(self, dropped: np.ndarray, added: Sequence[Triple]) -> "KnowledgeGraph":
        """This graph without the triples at positions ``dropped``, plus ``added``.

        ``added`` must be sorted and duplicate-free, with endpoints among this
        graph's entities; an added triple that is kept anyway is not added
        twice.  The child keeps this graph's orphan relation labels (those
        without a triple) and carries its entity set, order and index.  Its
        triples and its endpoint and relation ids are this graph's, gathered
        at the kept positions, with the new triples and their ids inserted at
        their sorted slots: only the added triples are looked up by string,
        and nothing is re-sorted.  The slots come from integer keys (see
        :func:`_keys`) over this graph's relations and the added ones, and
        the relation ids are renumbered when a label appears or disappears.
        The child is handed its relation order, this graph's own tuple when
        the label set is unchanged.  It is built by one ``from_triples``
        call, which takes the merged triples as they are.
        """
        own = self.relation_order
        labels = self.relations.union(map(itemgetter(1), added))
        relations = own if len(labels) == len(own) else tuple(sorted(labels))
        index = dict(zip(relations, count()))
        to_union = _lookup_ids(index, own, len(own))
        keep = np.ones(len(self.triples), dtype=bool)
        keep[dropped] = False
        kept = np.flatnonzero(keep)
        subjects, objects = self.endpoint_ids
        mine = subjects[kept], to_union[self.relation_ids[kept]], objects[kept]
        theirs = _columns(self.entity_index, index, added)
        n, k = len(self.entities), len(relations)
        kept_keys, added_keys = _keys(n, k, *mine), _keys(n, k, *theirs)
        slots = np.searchsorted(kept_keys, added_keys)
        fresh = np.append(kept_keys, -1)[slots] != added_keys
        new = tuple(compress(added, fresh.tolist()))
        bad = next((t for t in new if not all(t)), None)
        if bad is not None:
            raise ValueError(f"triple with empty field: {bad!r}")
        subjects, relation_ids, objects = (
            np.insert(ids, slots[fresh], ids_new[fresh]) for ids, ids_new in zip(mine, theirs)
        )
        used = np.zeros(len(relations), dtype=bool)
        used[relation_ids] = True
        # A label no triple uses stays when this graph has it without a
        # triple too; one whose triples were all dropped goes.
        stays = np.ones(len(own), dtype=bool)
        stays[self.relation_ids[dropped]] = False
        used[to_union[stays]] = True
        if not used.all():
            relation_ids = (np.cumsum(used, dtype=np.intp) - 1)[relation_ids]
            relations = tuple(compress(relations, used.tolist()))
        # The kept triples and the new ones at their slots: sorted already.
        pool = self.triples + new
        at = np.insert(kept, slots[fresh], np.arange(len(self.triples), len(pool)))
        child = KnowledgeGraph.from_triples(
            _Canonical(_gather(pool, at)), extra_entities=self.entities, extra_relations=relations
        )
        subjects.flags.writeable = objects.flags.writeable = relation_ids.flags.writeable = False
        vars(child).update(
            entity_order=self.entity_order,
            entity_index=self.entity_index,
            relation_order=relations,
            endpoint_ids=(subjects, objects),
            relation_ids=relation_ids,
        )
        return child

    @cached_property
    def incidence(self) -> tuple[np.ndarray, np.ndarray]:
        """Triples touching each entity, as ``(indptr, triple_ids)``.

        Entity i's triples are ``triple_ids[indptr[i]:indptr[i + 1]]``, in
        ascending id order; a self-loop is listed twice, so ``diff(indptr)``
        is out-degree plus in-degree, and an isolated entity's slice is
        empty.  Both ``intp`` arrays are read-only.
        """
        ends = np.column_stack(self.endpoint_ids).ravel()  # s0, o0, s1, o1, ...
        order = np.argsort(ends, kind="stable")
        indptr = np.searchsorted(ends[order], np.arange(len(self.entities) + 1))
        triple_ids = order // 2
        indptr.flags.writeable = triple_ids.flags.writeable = False
        return indptr, triple_ids

    @cached_property
    def mean_relation_clustering(self) -> np.ndarray:
        """Mean over relations of per-relation local clustering vectors.

        Entry i belongs to the i-th entity in lexicographic order.  Each
        relation's clustering is taken on its undirected simple projection
        (self-loops dropped); entities the relation does not touch
        contribute 0.  A graph whose relation set is empty yields the zero
        vector.  The array is read-only.

        All relations are scored in one pass: relation r's copy of entity v
        is node ``r * |V| + v`` of one graph with a block per relation (see
        :func:`_clustering`).  The triangle counts are exact integers and
        the per-relation rows are added in sorted relation order, so every
        entry is the float that a loop over the relations gives.
        """
        n, count = len(self.entities), len(self.relations)
        acc = np.zeros(n, dtype=np.float64)
        if count:
            subjects, objects = self.endpoint_ids
            offsets = self.relation_ids * n
            for row in _clustering(count * n, subjects + offsets, objects + offsets).reshape(count, n):
                acc += row
            acc /= count
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


def _lookup_ids(index: dict[str, int], names: Iterable[str], size: int) -> np.ndarray:
    """Read-only ``intp`` array of the ids in ``index`` of ``size`` names,
    -1 for a name it lacks."""
    ids = np.fromiter(map(index.get, names, repeat(-1)), np.intp, size)
    ids.flags.writeable = False
    return ids


def _columns(
    entity_index: dict[str, int], relation_index: dict[str, int], triples: Sequence[Triple]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Subject, relation and object ids of each triple (see :func:`_lookup_ids`)."""
    return tuple(
        _lookup_ids(index, map(itemgetter(field), triples), len(triples))
        for index, field in ((entity_index, 0), (relation_index, 1), (entity_index, 2))
    )


def _keys(n_entities: int, n_relations: int, subjects, relation_ids, objects) -> np.ndarray:
    """One integer key ``(s * |R| + r) * |V| + o`` per id triple.

    Entity and relation ids follow string order, so the keys sort exactly
    as the triples do.  A triple with an id of -1 gets the key -1, which no
    triple has.  Keys are int64 unless the largest, ``|V|**2 * |R| - 1``,
    does not fit; they are Python ints in an object array then.
    """
    dtype = np.int64 if n_entities * n_entities * n_relations < 2**63 else object
    keys = (subjects.astype(dtype) * n_relations + relation_ids) * n_entities + objects
    keys[(subjects < 0) | (relation_ids < 0) | (objects < 0)] = -1
    return keys


def _clustering(size: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Local clustering of nodes ``0..size-1`` joined by the edges ``a[i]--b[i]``.

    The edges are projected onto an undirected simple graph (self-loops
    and repeats dropped); c(v) = 2 * tri(v) / (deg(v) * (deg(v) - 1)) for
    nodes of degree >= 2 and 0 otherwise, where tri(v) counts the edges
    among v's neighbours.  Triangles are listed once each by the forward
    algorithm: every edge points from the endpoint of lower (degree, id)
    rank to the higher one, and each pair of one node's out-neighbours
    that is itself an edge closes a triangle.  Hubs keep few out-edges, so
    far fewer pairs are tried than the sum of squared degrees that
    neighbour-set intersections or the product ``A @ A`` would visit.

    The simple edges are the sorted edge keys without adjacent repeats:
    the same array as ``np.unique`` gives, which since numpy 2.3 fills a
    hash table before it sorts, at several times the cost of the sort.
    """
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    keep = lo != hi
    keys = np.sort(lo[keep] * size + hi[keep])
    pairs = keys[np.diff(keys, prepend=-1) != 0]  # sorted keys of the simple edges
    lo, hi = np.divmod(pairs, size)
    deg = np.bincount(lo, minlength=size) + np.bincount(hi, minlength=size)
    up = deg[lo] <= deg[hi]  # lo < hi breaks degree ties
    src, dst = np.where(up, lo, hi), np.where(up, hi, lo)
    order = np.argsort(src)
    src, dst = src[order], dst[order]
    # Pair each out-edge with every later out-edge of the same node.
    later = np.searchsorted(src, src, side="right") - np.arange(len(src)) - 1
    i = np.repeat(np.arange(len(src)), later)
    j = i + 1 + np.arange(len(i)) - np.repeat(np.cumsum(later) - later, later)
    u, w = dst[i], dst[j]
    wanted = np.minimum(u, w) * size + np.maximum(u, w)
    found = pairs[np.minimum(np.searchsorted(pairs, wanted), len(pairs) - 1)] == wanted
    corners = np.concatenate((src[i[found]], u[found], w[found]))
    tri = np.bincount(corners, minlength=size)
    c = np.zeros(size, dtype=np.float64)
    wedged = deg >= 2
    c[wedged] = 2.0 * tri[wedged] / (deg[wedged] * (deg[wedged] - 1))
    return c


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
    The clustering coefficient is the mean of the per-node coefficients
    (0 for nodes of degree < 2), summed in entity order.  An empty graph
    yields all-zero statistics.
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
    clustering = sum(_clustering(n, *g.endpoint_ids).tolist()) / n
    density = len(directed_simple) / (n * (n - 1)) if n > 1 else 0.0
    return GraphStats(
        node_count=n,
        edge_count=len(g.triples),
        avg_degree=avg_degree,
        clustering_coefficient=clustering,
        density=density,
    )
