"""Directed labeled multigraph model for knowledge graphs.

A graph is an immutable collection of (subject, relation, object) triples
plus an entity set that may contain isolated nodes.  Exact duplicate
triples are collapsed on construction and the triple tuple is kept in
lexicographic order, so equal graphs have identical internal layout.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property
from itertools import compress, count, repeat
from operator import itemgetter
from typing import Iterable, NamedTuple, Sequence

import numpy as np

logger = logging.getLogger(__name__)


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
        wanted = _keys(len(self.entities), len(self.relations), subjects, relation_ids, objects)
        return _position(self.triple_keys, wanted)  # no triple has the key -1

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

        When this graph has counted its triangle state (:attr:`_triangles`),
        the label set is unchanged, so the block node ids are too, and the
        edit drops and adds at most one triple in :data:`_PATCH_SHARE`, the
        child is handed that state patched through the edit
        (:func:`_patched`), or shares it when nothing was dropped or added:
        a dropped triple's block edge is gone unless the child keeps its
        reverse or the edit adds it back, and an added triple's edge is new
        unless this graph has it.  Otherwise the child counts its own state
        in full when it is first read.
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
        # The patch needs this graph's block node ids, so its relation order.
        state = vars(self).get("_triangles")
        edited = len(dropped) + len(new)
        if state is not None and relations is own and _PATCH_SHARE * edited <= len(self.triples):
            if edited:
                # A dropped triple's edge stays if its reverse is kept (or the log adds it back).
                (s, o), r = (ids[dropped] for ids in self.endpoint_ids), self.relation_ids[dropped]
                gone = _position(kept_keys, _keys(n, k, o, r, s)) < 0
                state = _patched(
                    state, n * k,
                    _block_edges(n, k, s[gone], r[gone], o[gone]),
                    _block_edges(n, k, *(ids[fresh] for ids in theirs)),
                )
            vars(child)["_triangles"] = state  # read-only arrays, shared when nothing changed
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
    def _triangles(self) -> "_Triangles":
        """The triangle state of the relation blocks: relation r's copy of
        entity v is node ``r * |V| + v`` of one graph with a block per
        relation (see :func:`_triangle_state`).  A spliced child is handed
        its parent's state patched through the edit (:meth:`_spliced`)."""
        n = len(self.entities)
        subjects, objects = self.endpoint_ids
        offsets = self.relation_ids * n
        state = _triangle_state(n * len(self.relations), subjects + offsets, objects + offsets)
        logger.debug(
            "triangle state counted in full: %d simple edges, %d triangles",
            len(state.keys) // 2, len(state.rows),
        )
        return state

    @cached_property
    def mean_relation_clustering(self) -> np.ndarray:
        """Mean over relations of per-relation local clustering vectors.

        Entry i belongs to the i-th entity in lexicographic order.  Each
        relation's clustering is taken on its undirected simple projection
        (self-loops dropped); entities the relation does not touch
        contribute 0.  A graph whose relation set is empty yields the zero
        vector.  The array is read-only.

        The vector is read off the graph's triangle state: only the block
        nodes on a triangle have a non-zero cell, each cell is
        ``2 * tri / (deg * (deg - 1))`` of exact integers, and
        ``np.bincount`` adds each entity's cells in sorted relation order,
        as a loop over the relations does (adding their zeros changes
        nothing).  So every entry is the float that loop gives, and no
        array has |V| * |R| entries.
        """
        n, count = len(self.entities), len(self.relations)
        if count:
            nodes, values = _clustering_cells(self._triangles, n * count)
            vec = np.bincount(nodes % n, weights=values, minlength=n) / count
        else:
            vec = np.zeros(n, dtype=np.float64)
        vec.flags.writeable = False
        return vec

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


class _Triangles(NamedTuple):
    """Exact triangle state of an undirected simple graph on nodes ``0..size-1``.

    ``keys`` holds ``a * size + b`` for both directions of every edge,
    sorted, so node a's neighbours are one run of keys, and its degree is
    that run's length.  ``rows`` lists every triangle once, as ascending
    node ids, the rows in lexicographic order.  Both are read-only ``int64``.
    """

    keys: np.ndarray
    rows: np.ndarray


# A patch costs several times more per edited triple than a full count per
# triple (on a shared 2-CPU host, 0.4-0.8 us against about 0.15 us, from 1k
# to 32k triples), so an edit of more than one triple in _PATCH_SHARE is
# left to the full count.
_PATCH_SHARE = 8

def _frozen(keys: np.ndarray, rows: np.ndarray) -> _Triangles:
    """The state of these arrays, made read-only so that a child can share it."""
    keys.flags.writeable = rows.flags.writeable = False
    return _Triangles(keys, rows)


def _position(sorted_keys: np.ndarray, wanted: np.ndarray) -> np.ndarray:
    """Each wanted key's position in ``sorted_keys``, or -1 where it is absent."""
    if not len(sorted_keys):
        return np.full(len(wanted), -1, dtype=np.intp)
    # Clipped to the last key, so the array is not copied.
    at = np.minimum(np.searchsorted(sorted_keys, wanted), len(sorted_keys) - 1)
    return np.where(sorted_keys[at] == wanted, at, -1)


def _distinct(keys: np.ndarray) -> np.ndarray:
    """The sorted non-negative ``keys`` without repeats: the same array as
    ``np.unique`` gives, which since numpy 2.3 fills a hash table before it
    sorts, at several times the cost of the sort."""
    keys = np.sort(keys)
    return keys[np.diff(keys, prepend=-1) != 0]


def _runs(keys: np.ndarray, size: int, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where each node's run of neighbour keys starts, and its length (the degree)."""
    bounds = np.searchsorted(keys, np.concatenate((nodes, nodes + 1)) * size).reshape(2, -1)
    return bounds[0], bounds[1] - bounds[0]


def _run_lengths(values: np.ndarray) -> np.ndarray:
    """The lengths of the runs of equal entries of sorted non-negative ``values``."""
    return np.diff(np.flatnonzero(np.diff(values, prepend=-1)), append=len(values))


def _reversed(edges: np.ndarray, size: int) -> np.ndarray:
    """The key ``b * size + a`` of each edge key ``a * size + b``."""
    return edges % size * size + edges // size


def _sorted_rows(rows: np.ndarray) -> np.ndarray:
    """Triangle rows with each row ascending, in lexicographic order."""
    rows = np.sort(rows, axis=1)
    return rows[np.lexsort(rows.T[::-1])]


def _triangle_state(size: int, a: np.ndarray, b: np.ndarray) -> _Triangles:
    """The triangle state of nodes ``0..size-1`` joined by the edges ``a[i]--b[i]``.

    The edges are projected onto an undirected simple graph (self-loops
    and repeats dropped).  Triangles are listed once each by the forward
    algorithm (Schank & Wagner, WEA 2005): every edge points from the
    endpoint of lower (degree, id) rank to the higher one, and each pair
    of one node's out-neighbours that is itself an edge closes a triangle.
    Hubs keep few out-edges, so far fewer pairs are tried than the sum of
    squared degrees that neighbour-set intersections would visit.  Every
    array follows the edge count; none has ``size`` entries.  Edge keys
    are ``int64``, so ``size`` must stay below ``2**31.5`` (about 3.04e9).
    """
    if size * size >= 2**63:
        raise OverflowError(f"{size} nodes: edge keys would overflow int64")
    lo, hi = np.minimum(a, b).astype(np.int64), np.maximum(a, b)
    keep = lo != hi
    edges = _distinct(lo[keep] * size + hi[keep])  # the simple edges, lo < hi
    both = np.concatenate((edges, _reversed(edges, size)))
    order = np.argsort(both)
    keys = both[order]
    # A node's degree is the length of its run of keys; ``deg`` is aligned with ``both``.
    runs = _run_lengths(keys // size)
    deg = np.empty(len(keys), dtype=np.intp)
    deg[order] = np.repeat(runs, runs)
    up = deg[: len(edges)] <= deg[len(edges) :]  # lo < hi breaks degree ties
    # Each edge once, from its lower rank: sorted by source, then target.
    src, dst = np.divmod(np.sort(np.where(up, edges, both[len(edges) :])), size)
    # Pair each out-edge with every later out-edge of the same node.
    runs = _run_lengths(src)
    later = np.repeat(np.cumsum(runs), runs) - np.arange(len(src)) - 1
    i = np.repeat(np.arange(len(src)), later)
    j = i + 1 + np.arange(len(i)) - np.repeat(np.cumsum(later) - later, later)
    u, w = dst[i], dst[j]  # u < w
    found = _position(edges, u * size + w) >= 0
    return _frozen(keys, _sorted_rows(np.column_stack((src[i[found]], u[found], w[found]))))


def _block_edges(n: int, k: int, subjects, relation_ids, objects) -> np.ndarray:
    """The key ``lo * n * k + hi`` of the block edge of each id triple that
    is not a self-loop: its ends are the relation's copies ``r * n + v`` of
    subject and object, ``lo`` the smaller (see :attr:`KnowledgeGraph._triangles`)."""
    offsets = relation_ids.astype(np.int64) * n
    a, b = subjects + offsets, objects + offsets
    keep = a != b
    return np.minimum(a, b)[keep] * (n * k) + np.maximum(a, b)[keep]


def _patched(state: _Triangles, size: int, removed: np.ndarray, added: np.ndarray) -> _Triangles:
    """``state`` with the edges ``removed`` taken out and ``added`` put in.

    Both hold keys ``lo * size + hi`` with ``lo < hi``, repeats allowed,
    and every removed edge is in ``state``.  A removed edge that is also
    added stays, and an added edge that ``state`` has already is not new.
    The changed keys are deleted and merged in at their sorted slots, the
    triangles that use a gone edge are dropped, and each new edge is
    closed through the neighbour run of its end of lower degree; a
    triangle with several new edges is found once from each and kept
    once.  So the cost follows the changed edges and the triangles, and
    the result equals :func:`_triangle_state` on the edited edges, array
    for array.
    """
    gone, new = _distinct(removed), _distinct(added)
    gone, new = gone[_position(new, gone) < 0], new[_position(state.keys, new) < 0]
    keep = np.ones(len(state.keys), dtype=bool)
    keep[np.searchsorted(state.keys, np.concatenate((gone, _reversed(gone, size))))] = False
    # Two sorted runs, which a stable sort merges in one pass.
    keys = np.sort(np.concatenate((state.keys[keep], new, _reversed(new, size))), kind="stable")
    a, b, c = state.rows.T
    lost = _position(gone, np.concatenate((a * size + b, a * size + c, b * size + c))) >= 0
    lost = lost.reshape(3, -1).any(axis=0)
    # Each new edge (x, y) and every w next to both; x is the end of lower degree.
    m = len(new)
    lo, hi = np.divmod(new, size)
    at, deg = _runs(keys, size, np.concatenate((lo, hi)))
    near = deg[:m] <= deg[m:]
    x, y = np.where(near, lo, hi), np.where(near, hi, lo)
    at, deg = np.where(near, at[:m], at[m:]), np.minimum(deg[:m], deg[m:])
    edge = np.repeat(np.arange(m), deg)
    w = keys[np.arange(len(edge)) + np.repeat(at - np.cumsum(deg) + deg, deg)] % size
    closed = _position(keys, y[edge] * size + w) >= 0
    edge = edge[closed]
    rows = _sorted_rows(np.concatenate((state.rows[~lost], np.column_stack((x[edge], y[edge], w[closed])))))
    rows = rows[np.diff(rows, axis=0, prepend=-1).any(axis=1)]  # found from two new edges
    kept = len(state.rows) - int(lost.sum())
    logger.debug(
        "triangle state patched: %d edges gone, %d new; %d triangles lost, %d gained",
        len(gone), m, len(state.rows) - kept, len(rows) - kept,
    )
    return _frozen(keys, rows)


def _clustering_cells(state: _Triangles, size: int) -> tuple[np.ndarray, np.ndarray]:
    """The nodes on a triangle, ascending, and each one's local clustering
    ``2 * tri / (deg * (deg - 1))``; every other node's is 0."""
    nodes, tri = np.unique(state.rows, return_counts=True)
    deg = _runs(state.keys, size, nodes)[1]
    return nodes, 2.0 * tri / (deg * (deg - 1))


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
    clustering = sum(_clustering_cells(_triangle_state(n, *g.endpoint_ids), n)[1].tolist()) / n
    density = len(directed_simple) / (n * (n - 1)) if n > 1 else 0.0
    return GraphStats(
        node_count=n,
        edge_count=len(g.triples),
        avg_degree=avg_degree,
        clustering_coefficient=clustering,
        density=density,
    )
