"""Prize-driven retrieval of triples, paths, and connected subgraphs.

All three variants consume one :class:`~kgr.relevance.PrizeAssignment`:

* ``triplets``  -- top-n triples by summed node+edge prize.
* ``paths``     -- the exact top n simple paths from the high-prize start
  nodes, by node prizes plus edge prizes minus edge costs; a branch and
  bound skips every path that provably cannot reach the kept top n.
* ``subgraph``  -- a prize-collecting Steiner-style heuristic that folds
  edge prizes into reduced costs and prunes unprofitable branches; its
  score is a correctly rounded sum, independent of the hash seed.

The path walk and the subgraph heuristic run on entity and triple ids and
map only their results back to strings.

Exhaustive oracles for the path and subgraph objectives are provided for
verification on small graphs (at most 10 nodes, enforced).
"""

from __future__ import annotations

import heapq
import itertools
import logging
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .graph import KnowledgeGraph, Triple, _gather, _lookup_ids
from .ingest import is_id_list, json_triple, jsonl_records
from .relevance import PrizeAssignment

VARIANT_TRIPLETS = "triplets"
VARIANT_PATHS = "paths"
VARIANT_SUBGRAPH = "subgraph"
VARIANTS = (VARIANT_TRIPLETS, VARIANT_PATHS, VARIANT_SUBGRAPH)
DEFAULT_START_COUNT = 5  # path start nodes
DEFAULT_MAX_LEN = 4  # path length cap in edges

logger = logging.getLogger(__name__)

_ORACLE_NODE_LIMIT = 10
_ROOT_COUNT = 3  # top prize carriers every PCST call grows trees from


@dataclass(frozen=True)
class ScoredPath:
    """A simple path with its prize-minus-cost score."""

    nodes: tuple[str, ...]
    edges: tuple[Triple, ...]
    score: float

    def __post_init__(self) -> None:
        if len(self.edges) != len(self.nodes) - 1:
            raise ValueError("a path over n nodes must carry n-1 edges")


@dataclass(frozen=True)
class ScoredSubgraph:
    """A connected subgraph with its collected-prize-minus-cost score."""

    subgraph: KnowledgeGraph
    score: float


@dataclass(frozen=True)
class RetrievedKnowledge:
    """Result of one retrieval call; exactly one payload is populated."""

    variant: str
    prize_k: int
    edge_cost: float
    triplets: tuple[tuple[Triple, float], ...] | None = None
    paths: tuple[ScoredPath, ...] | None = None
    subgraph: ScoredSubgraph | None = None

    def __post_init__(self) -> None:
        populated = sum(
            payload is not None for payload in (self.triplets, self.paths, self.subgraph)
        )
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if populated != 1:
            raise ValueError("exactly one payload must be populated")

    def retrieved_triples(self) -> set[Triple]:
        """The set of triples this result mentions (for overlap measures)."""
        if self.triplets is not None:
            return {t for t, _ in self.triplets}
        if self.paths is not None:
            return {e for p in self.paths for e in p.edges}
        assert self.subgraph is not None
        return set(self.subgraph.subgraph.triples)

    def to_json_dict(self) -> dict:
        items: list
        scores: list[float]
        if self.triplets is not None:
            items = [list(t) for t, _ in self.triplets]
            scores = [s for _, s in self.triplets]
        elif self.paths is not None:
            items = [
                {"nodes": list(p.nodes), "triples": [list(e) for e in p.edges]}
                for p in self.paths
            ]
            scores = [p.score for p in self.paths]
        else:
            assert self.subgraph is not None
            sg = self.subgraph.subgraph
            items = [
                {
                    "nodes": list(sg.entity_order),
                    "triples": [list(t) for t in sg.triples],
                }
            ]
            scores = [self.subgraph.score]
        return {
            "variant": self.variant,
            "items": items,
            "scores": scores,
            "prize_k": self.prize_k,
            "edge_cost": self.edge_cost,
        }


def _prize_lists(g: KnowledgeGraph, prizes: PrizeAssignment) -> tuple[list[float], list[float]]:
    """Node prizes by entity id and edge prizes by triple id, 0.0 where the
    prize maps have no entry.

    The lists start at zero and take the prize maps' entries, so the cost
    of the lookups follows the number of prizes, not the graph.
    """
    nodes, edges = prizes.node_prizes, prizes.edge_prizes
    lists = [0.0] * len(g.entity_order), [0.0] * len(g.triples)
    ids = _lookup_ids(g.entity_index, nodes, len(nodes)), g._locate(list(edges))
    for prize_list, table, at in zip(lists, (nodes, edges), ids):
        for i, p in zip(at.tolist(), table.values()):
            if i >= 0:
                prize_list[i] = p
    return lists


def retrieve_triplets(
    g: KnowledgeGraph, prizes: PrizeAssignment, n: int | None = None
) -> RetrievedKnowledge:
    """Top-``n`` triples by subject + object + edge prize (default ``prizes.k``).

    Ties break on the lexicographic triple, so results are deterministic:
    the triples are sorted already and the sort by score is stable.  An
    empty graph yields an empty result.
    """
    if n is None:
        n = prizes.k
    if n < 1:
        raise ValueError("n must be >= 1")
    node_prize, edge_prize = map(np.asarray, _prize_lists(g, prizes))
    subjects, objects = g.endpoint_ids
    # Added left to right in float64, as Python adds the three prizes.
    scores = node_prize[subjects] + node_prize[objects] + edge_prize
    top = np.argsort(-scores, kind="stable")[:n]
    return RetrievedKnowledge(
        variant=VARIANT_TRIPLETS,
        prize_k=prizes.k,
        edge_cost=prizes.edge_cost,
        triplets=tuple(zip(_gather(g.triples, top), scores[top].tolist())),
    )


def _walk_gain_bounds(
    g: KnowledgeGraph,
    node_prize: list[float],
    edge_prize: list[float],
    cost: float,
    rounds: int,
    directed_only: bool,
) -> list[list[float]]:
    """Row ``d`` bounds, per node, what a simple path of ``d`` edges ending
    there can still gain in its other ``rounds - d`` edges.

    ``B_r[v]`` is the best gain of any walk of at most r steps from v,
    revisits and early stops allowed, so it is at least that of any
    simple path: ``B_0 = 0`` and ``B_r[v] = max(0, max over the moves
    (e, w) off v of edge_prize[e] - cost + node_prize[w] + B_{r-1}[w])``.
    It is summed in another order than a path score, so every row carries
    a rounding allowance scaled to ``rounds`` and the largest prize; when
    prizes are not finite or their sums could overflow, every bound is
    infinite and nothing is pruned.
    """
    node_prizes = np.asarray(node_prize, dtype=float)
    edge_prizes = np.asarray(edge_prize, dtype=float)
    magnitude = float(np.abs(np.concatenate((node_prizes, edge_prizes, [cost]))).max())
    # (3 rounds + 2)**2 bounds each sum's operation count times its size.
    scale = (3 * rounds + 2) ** 2 * magnitude
    if not math.isfinite(scale):
        return [[math.inf] * len(node_prizes)] * (rounds + 1)
    subjects, objects = g.endpoint_ids
    moves = subjects != objects  # a self-loop leads back onto the path
    tails, heads, gain = subjects[moves], objects[moves], edge_prizes[moves] - cost
    if not directed_only:
        tails, heads = np.concatenate((tails, heads)), np.concatenate((heads, tails))
        gain = np.tile(gain, 2)
    gain += node_prizes[heads]
    rows = [np.zeros(len(node_prizes))]
    for _ in range(rounds):
        best = np.zeros(len(node_prizes))
        np.maximum.at(best, tails, gain + rows[-1][heads])
        rows.append(best)
    allowance = scale * 2.0**-50
    return [(row + allowance).tolist() for row in reversed(rows)]


def retrieve_paths(
    g: KnowledgeGraph,
    prizes: PrizeAssignment,
    start_count: int = DEFAULT_START_COUNT,
    max_len: int = DEFAULT_MAX_LEN,
    result_count: int | None = None,
    directed_only: bool = False,
) -> list[ScoredPath]:
    """The ``result_count`` best simple paths (default ``prizes.k``) from
    the ``start_count`` highest-prize nodes.

    The result is exact: the best simple paths (node revisits forbidden,
    at most ``max_len`` edges) by score, ties broken on the node then edge
    sequence.  Traversal ignores edge direction unless ``directed_only``
    is set.  The path score is the sum of node prizes plus edge prizes
    minus edge costs along it, added in path order.

    The search is a depth-first branch and bound.  It keeps the best
    ``result_count`` scores seen so far and drops a path when its score
    plus the most its remaining edges could add (see
    :func:`_walk_gain_bounds`) falls strictly short of the worst of them,
    so tied paths are never dropped.  The bounds take
    ``min(max_len, |V| - 1) + 1`` floats per entity.  No polynomial time
    bound is claimed: on an 8k-entity, 32k-triple graph a ``max_len`` of
    4 took about 0.16-0.43 s per question, and a ``max_len`` of 6 up to
    12.7 s.  The counts of paths visited (scored) and pruned (dropped
    with all their extensions) go to a DEBUG log line.

    The walk runs on integer ids: entity i of ``g.entity_order`` and
    triple j of ``g.triples``, with one prize list per id space and an
    adjacency built from :attr:`KnowledgeGraph.endpoint_ids`.  Both orders
    are sorted, so id sequences compare like the strings and triples they
    stand for; only the kept paths are mapped back.
    """
    if start_count < 1:
        raise ValueError("start_count must be >= 1")
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    if result_count is None:
        result_count = prizes.k
    if result_count < 1:
        raise ValueError("result_count must be >= 1")

    order, triples = g.entity_order, g.triples
    node_prize, edge_prize = _prize_lists(g, prizes)
    # A stable sort, so equal prizes stay in id order, which is entity order.
    starts = sorted(range(len(order)), key=lambda v: -node_prize[v])[:start_count]
    cost = prizes.edge_cost
    # Per node, ``(edge, next node)`` for the edges that leave it.  A
    # self-loop leads back onto the path, so it is left out.
    incident: list[list[tuple[int, int]]] = [[] for _ in order]
    for edge, (s, o) in enumerate(zip(*(ids.tolist() for ids in g.endpoint_ids))):
        if s != o:
            incident[s].append((edge, o))
            if not directed_only:
                incident[o].append((edge, s))
    # A simple path has at most |V| - 1 edges.
    rounds = min(max_len, len(order) - 1)
    bounds = _walk_gain_bounds(g, node_prize, edge_prize, cost, rounds, directed_only)
    visited = pruned = 0

    def candidate_paths():
        # Depth-first with an explicit stack: ``max_len`` is not bounded by
        # the recursion limit, and the stack holds only the untried
        # extensions of the current path.  Each path is yielded as its
        # ``(-score, nodes, edges)`` sort key; a path that cannot reach the
        # kept scores is dropped with all its extensions, on push or on
        # pop, once ``floor`` has risen past it.
        nonlocal visited, pruned
        kept: list[float] = []  # min-heap of the best result_count scores yielded
        floor = -math.inf
        stack = [(node_prize[v], (v,), ()) for v in starts]
        while stack:
            score, nodes, edges = stack.pop()
            depth = len(edges)
            if score + bounds[depth][nodes[-1]] < floor:
                pruned += 1
                continue
            visited += 1
            yield -score, nodes, edges
            if len(kept) < result_count:
                heapq.heappush(kept, score)
                if len(kept) == result_count:
                    floor = kept[0]
            elif score > floor:
                heapq.heapreplace(kept, score)
                floor = kept[0]
            if depth == rounds:
                continue
            reach = bounds[depth + 1]
            for edge, nxt in incident[nodes[-1]]:
                if nxt not in nodes:
                    nscore = score + node_prize[nxt] + edge_prize[edge] - cost
                    if nscore + reach[nxt] < floor:
                        pruned += 1
                    else:
                        stack.append((nscore, nodes + (nxt,), edges + (edge,)))

    # The key is a total order, so the result does not depend on the walk
    # order, and every path of the top n is yielded.
    best = heapq.nsmallest(result_count, candidate_paths())
    logger.debug("retrieve_paths: %d paths visited, %d pruned", visited, pruned)
    return [
        ScoredPath(
            nodes=tuple(map(order.__getitem__, nodes)),
            edges=tuple(map(triples.__getitem__, edges)),
            score=-neg_score,
        )
        for neg_score, nodes, edges in best
    ]


def _json_ids(value) -> list[str]:
    if not is_id_list(value):
        raise ValueError(f"nodes must be a list of non-empty strings, not {value!r}")
    return value


def retrieved_from_json_dict(d: dict) -> RetrievedKnowledge:
    """Inverse of :meth:`RetrievedKnowledge.to_json_dict`; a record of the
    wrong shape raises ``ValueError``."""
    variant = d["variant"]
    prize_k = int(d["prize_k"])
    edge_cost = float(d["edge_cost"])
    items, scores = d["items"], d["scores"]
    if len(items) != len(scores):
        raise ValueError(f"{len(items)} items but {len(scores)} scores")
    if variant == VARIANT_TRIPLETS:
        return RetrievedKnowledge(
            variant=variant,
            prize_k=prize_k,
            edge_cost=edge_cost,
            triplets=tuple(
                (json_triple(item), float(score)) for item, score in zip(items, scores)
            ),
        )
    if variant == VARIANT_PATHS:
        paths = tuple(
            ScoredPath(
                nodes=tuple(_json_ids(item["nodes"])),
                edges=tuple(map(json_triple, item["triples"])),
                score=float(score),
            )
            for item, score in zip(items, scores)
        )
        return RetrievedKnowledge(
            variant=variant, prize_k=prize_k, edge_cost=edge_cost, paths=paths
        )
    if variant == VARIANT_SUBGRAPH:
        if len(items) != 1:
            raise ValueError(f"a subgraph record holds one item, not {len(items)}")
        item = items[0]
        sub = KnowledgeGraph.from_triples(
            map(json_triple, item["triples"]), extra_entities=_json_ids(item["nodes"])
        )
        return RetrievedKnowledge(
            variant=variant,
            prize_k=prize_k,
            edge_cost=edge_cost,
            subgraph=ScoredSubgraph(subgraph=sub, score=float(scores[0])),
        )
    raise ValueError(f"unknown variant {variant!r}")


def read_retrieved(path: str) -> list[tuple[str, str, RetrievedKnowledge]]:
    """Read a ``kgr retrieve`` JSONL file as ``(id, question, knowledge)``
    tuples; a misshapen record or an empty file raises ``ValueError``."""
    records = []
    with open(path, encoding="utf-8") as fh:
        for lineno, rec in jsonl_records(fh, path):
            try:
                knowledge = retrieved_from_json_dict(rec)
            except (KeyError, ValueError, TypeError) as exc:
                raise ValueError(f"{path}:{lineno}: bad record: {exc}")
            records.append((rec.get("id", f"line{lineno}"), rec.get("question", ""), knowledge))
    if not records:
        raise ValueError(f"{path}: no retrieval records found")
    return records


# ---------------------------------------------------------------------------
# Connected-subgraph retrieval (prize-collecting Steiner heuristic)
# ---------------------------------------------------------------------------


class _Transformed(NamedTuple):
    """The transformed graph on integer ids, and the prizes PCST reads.

    Node i < ``entity_count`` is entity i of ``g.entity_order``; each
    triple whose prize exceeds the edge cost adds a virtual node, in
    triple order, that carries the surplus.  ``adjacency[u]`` lists
    ``(v, reduced_cost, triple_id)``: every triple touching an entity, or
    the two ends of a virtual node's triple.  ``edge_prize`` and ``ends``
    (subject and object ids) are indexed by triple id.  ``carriers`` are
    the nodes of positive prize, in no particular order, and ``live`` maps
    an entity to the live triples touching it: those whose prize exceeds
    the cost or with an endpoint of positive prize.  Ids compare like the
    sorted entities and triples they stand for, so ties break on ids.
    """

    adjacency: list[list[tuple[int, float, int]]]
    prize_of: list[float]
    entity_count: int
    edge_prize: list[float]
    ends: list[tuple[int, int]]
    cost: float
    carriers: list[int]
    live: dict[int, list[int]]


def _transformed_graph(g: KnowledgeGraph, prizes: PrizeAssignment) -> _Transformed:
    """Fold each edge prize into a reduced cost over ``g``'s endpoint ids.

    The entity carriers are read off the node prize map, so finding them
    costs one lookup per prize, not one per entity.
    """
    cost = prizes.edge_cost
    prize_of, edge_prize = _prize_lists(g, prizes)
    carriers = [
        v for v in map(g.entity_index.get, prizes.node_prizes) if v is not None and prize_of[v] > 0.0
    ]
    ends = list(zip(*(ids.tolist() for ids in g.endpoint_ids)))
    adjacency: list[list[tuple[int, float, int]]] = [[] for _ in prize_of]
    live: set[int] = set()
    for t, (s, o) in enumerate(ends):
        reduced = cost - edge_prize[t]
        if reduced >= 0.0:
            adjacency[s].append((o, reduced, t))
            adjacency[o].append((s, reduced, t))
        else:
            v = len(prize_of)
            prize_of.append(-reduced)
            carriers.append(v)
            live.add(t)
            adjacency.append([(s, 0.0, t), (o, 0.0, t)])
            adjacency[s].append((v, 0.0, t))
            adjacency[o].append((v, 0.0, t))
    entity_count = len(g.entity_order)
    for v in carriers:
        if v < entity_count:
            live.update(t for _, _, t in adjacency[v])
    live_at: dict[int, list[int]] = {}
    for t in live:
        s, o = ends[t]
        live_at.setdefault(s, []).append(t)
        if o != s:
            live_at.setdefault(o, []).append(t)
    return _Transformed(
        adjacency, prize_of, entity_count, edge_prize, ends, cost, carriers, live_at
    )


def _grow_tree(adjacency, prize_of, root: int, greedy_prizes: bool, carriers: int):
    """Tree of the root's component, grown best-edge-first until it holds
    all ``carriers`` nodes of positive prize (the root being one of them)
    or spans the component.

    With ``greedy_prizes`` the priority is the edge cost minus the new
    node's prize (chase value); without it the priority is the plain
    edge cost (a minimum-spanning-tree shape).  Ties pop in push order.
    Returns ``(order, links, holds_all)``: the nodes in the order they
    joined, each one's ``(parent position in order, cost, triple id)``
    (``None`` for the root), and whether every carrier joined.

    A node is pushed only when its priority is strictly below the lowest
    already queued for it.  That is exact: a skipped entry would sort
    after the queued one (priority not lower, counter larger), so it
    would pop only once the node is in the tree, and be dropped.  So a
    node's first pop is its latest push, whose link is the one kept.

    Stopping at the last carrier is exact for :func:`_best_subtree`: every
    node that would join later heads a subtree without a carrier, so its
    value is at most 0 while its link cost is at least 0, and it can
    neither be kept under a parent nor top the best subtree.
    """
    in_tree = [False] * len(prize_of)
    # Lowest priority queued per node; -inf once the node is in the tree,
    # so no priority beats it.
    lowest = [math.inf] * len(prize_of)
    pushed: list = [None] * len(prize_of)  # each node's link at its latest push
    in_tree[root] = True
    lowest[root] = -math.inf
    order, links = [root], [None]
    heap: list[tuple[float, int, int]] = []
    push, pop = heapq.heappush, heapq.heappop
    node, at, pushes, remaining = root, 0, 0, carriers - 1
    while remaining:
        for other, cost, t in adjacency[node]:
            priority = cost - prize_of[other] if greedy_prizes else cost
            if priority < lowest[other]:
                lowest[other] = priority
                pushed[other] = (at, cost, t)
                pushes += 1
                push(heap, (priority, pushes, other))
        while heap:
            node = pop(heap)[2]
            if not in_tree[node]:
                break
        else:
            return order, links, False
        in_tree[node] = True
        lowest[node] = -math.inf
        at += 1
        order.append(node)
        links.append(pushed[node])
        if prize_of[node] > 0.0:
            remaining -= 1
    return order, links, True


def _best_subtree(order, links, prize_of) -> list[int]:
    """Exact best prize-minus-cost connected subtree of a tree.

    Dynamic program over the tree that :func:`_grow_tree` returns: a
    child's branch is kept only when its value exceeds the edge cost into
    it (net-gain pruning).  Returns the positions in ``order`` of the best
    subtree, its top first; between equal values the subtree topped by the
    smallest node id wins.
    """
    # ``order`` lists every node after its parent, so its reverse visits
    # children first.  A node's kept children therefore fill in reverse
    # join order; gains are added in join order, which fixes the float sum.
    down = list(map(prize_of.__getitem__, order))
    kept: dict[int, list[int]] = {}
    for i in range(len(order) - 1, -1, -1):
        children = kept.get(i)
        if children is not None:
            value = down[i]
            for child in reversed(children):
                value += down[child] - links[child][1]
            down[i] = value
        link = links[i]
        if link is not None and down[i] - link[1] > 0.0:
            kept.setdefault(link[0], []).append(i)

    best = max(down)
    top = min((i for i, value in enumerate(down) if value == best), key=order.__getitem__)
    selected = [top]
    for i in selected:  # grows while it is read: the kept subtree, breadth first
        selected.extend(kept.get(i, ()))
    return selected


def _subgraph_from_selection(tg: _Transformed, order, links, selected):
    """Map selected tree positions back to entity and triple ids.

    The score is node prizes plus edge prizes minus edge costs, summed
    with ``math.fsum``: correctly rounded, so the same for any order the
    sets iterate in.  Where a partial sum leaves the float range, and
    ``fsum`` raises, the exact sum is rounded: to +-inf past the range.
    """
    nodes: set[int] = set()
    triples: set[int] = set()
    top = selected[0]
    for i in selected:
        key = order[i]
        if key >= tg.entity_count:
            t = tg.adjacency[key][0][2]  # the triple this virtual node carries
            triples.add(t)
            nodes.update(tg.ends[t])
        else:
            nodes.add(key)
            if i != top:  # below the top, a node hangs from a selected parent
                triples.add(links[i][2])
    _expand_greedily(tg, nodes, triples)
    prize_of, edge_prize, cost = tg.prize_of, tg.edge_prize, tg.cost
    terms = [*map(prize_of.__getitem__, nodes), *(edge_prize[t] - cost for t in triples)]
    try:
        score = math.fsum(terms)
    except OverflowError:
        from fractions import Fraction  # imports decimal: kept off the import path

        exact = sum(map(Fraction, terms))
        try:
            score = float(exact)
        except OverflowError:
            score = math.inf if exact > 0 else -math.inf
    return nodes, triples, score


def _expand_greedily(tg: _Transformed, nodes: set[int], triples: set[int]) -> None:
    """Attach adjacent edges while any strictly improves the score.

    ``nodes`` and ``triples`` are id sets, grown in place.  A candidate
    must touch the current node set (connectivity); its marginal value is
    the edge gain plus the prize of any newly covered endpoint.  The single
    best candidate is taken per round, ties broken on the triple id.  Only
    live triples (``tg.live``) enter the frontier.  No other triple can
    have a positive marginal while the cost is non-negative.
    """
    prize_of, edge_prize, ends, cost, live = tg.prize_of, tg.edge_prize, tg.ends, tg.cost, tg.live
    frontier: set[int] = set()  # live triples touching ``nodes``, not yet taken
    for v in nodes:
        frontier.update(live.get(v, ()))
    frontier -= triples
    while True:
        best: tuple[float, int] | None = None
        for t in frontier:
            s, o = ends[t]
            marginal = edge_prize[t] - cost
            if s not in nodes:
                marginal += prize_of[s]
            if o not in nodes:
                marginal += prize_of[o]
            if marginal <= 0.0:
                continue
            if best is None or (-marginal, t) < (-best[0], best[1]):
                best = (marginal, t)
        if best is None:
            return
        _, chosen = best
        triples.add(chosen)
        frontier.discard(chosen)
        for v in ends[chosen]:
            if v not in nodes:
                nodes.add(v)
                frontier.update(t for t in live.get(v, ()) if t not in triples)


def retrieve_subgraph_pcst(g: KnowledgeGraph, prizes: PrizeAssignment) -> ScoredSubgraph:
    """One connected subgraph maximizing collected prizes minus edge costs.

    Heuristic: fold each edge prize into a reduced cost (surplus becomes
    a zero-cost virtual node); from each of the top ``_ROOT_COUNT`` prize
    carriers, and from the best carrier of every component those trees
    miss, grow two trees (prize-chasing and cheapest-edge) until every
    carrier has joined or the component is spanned, keep each tree's best
    net-positive subtree, greedily attach any remaining profitable edges,
    and return the best candidate.  With no positive prize anywhere the
    result is the one entity with the highest prize (then the highest
    degree, then the smallest id), scored by that prize.  Raises ``ValueError``
    for an empty graph, or for a NaN or infinite prize or edge cost.

    Every step runs on entity and triple ids; only the winning candidate
    is mapped back, through ``from_triples``.  A tree's heap queues a node
    again only when its priority strictly improves (the entries skipped
    could never win), and scores are correctly rounded sums, so the
    result does not depend on the interpreter's hash seed.  A DEBUG line
    counts the trees grown, those stopped at the last carrier and the
    nodes they joined.
    """
    if not g.entities:
        raise ValueError("cannot retrieve from an empty graph")
    values = itertools.chain(
        (prizes.edge_cost,), prizes.node_prizes.values(), prizes.edge_prizes.values()
    )
    if not all(map(math.isfinite, values)):
        raise ValueError("prizes and the edge cost must be finite")
    tg = _transformed_graph(g, prizes)
    adjacency, prize_of = tg.adjacency, tg.prize_of
    # Roots may be real nodes or the virtual carrier of a prized edge's
    # surplus -- otherwise a graph whose value sits entirely on edges
    # would never be entered at all.
    prized = sorted(tg.carriers, key=lambda key: (-prize_of[key], key))
    if not prized:
        # No entity prize is positive and no edge pays for itself, so one
        # entity is optimal: the highest prize, then the highest degree (an
        # entity's list holds one entry per triple end), then the smallest id.
        best = min(range(tg.entity_count), key=lambda v: (-prize_of[v], -len(adjacency[v]), v))
        return ScoredSubgraph(
            subgraph=KnowledgeGraph.from_triples((), extra_entities=(g.entity_order[best],)),
            score=prize_of[best] + 0.0,  # a -0.0 prize scores 0.0
        )

    best_result: tuple | None = None
    reached: set[int] = set()
    grown = stopped = joined = 0
    for i, root in enumerate(prized):
        # Past the top roots, grow only from the best carrier of each
        # component no tree has entered yet.
        if i >= _ROOT_COUNT and root in reached:
            continue
        for greedy_prizes in (True, False):
            order, links, holds_all = _grow_tree(
                adjacency, prize_of, root, greedy_prizes, len(prized)
            )
            # A tree either spans its component or holds every carrier.
            reached.update(order)
            grown, stopped, joined = grown + 1, stopped + holds_all, joined + len(order)
            selected = _best_subtree(order, links, prize_of)
            nodes, triples, score = _subgraph_from_selection(tg, order, links, selected)
            key = (-score, tuple(sorted(nodes)), tuple(sorted(triples)))
            if best_result is None or key < best_result[0]:
                best_result = (key, score)

    logger.debug(
        "retrieve_subgraph_pcst: %d trees grown, %d stopped at the last prize carrier; "
        "%d nodes joined in all, %d in the transformed graph",
        grown, stopped, joined, len(prize_of),
    )
    assert best_result is not None
    (_, nodes, triples), score = best_result
    sub = KnowledgeGraph.from_triples(
        map(g.triples.__getitem__, triples), map(g.entity_order.__getitem__, nodes)
    )
    return ScoredSubgraph(subgraph=sub, score=score)


def retrieve(
    g: KnowledgeGraph,
    prizes: PrizeAssignment,
    variant: str = VARIANT_TRIPLETS,
    n: int | None = None,
    start_count: int = DEFAULT_START_COUNT,
    max_len: int = DEFAULT_MAX_LEN,
    directed_only: bool = False,
) -> RetrievedKnowledge:
    """Run one retrieval variant and wrap the result uniformly.

    ``n`` counts the triplets or paths returned (default ``prizes.k``);
    the subgraph variant returns one subgraph.
    """
    if variant == VARIANT_TRIPLETS:
        return retrieve_triplets(g, prizes, n)
    if variant == VARIANT_PATHS:
        payload = {"paths": tuple(retrieve_paths(g, prizes, start_count, max_len, n, directed_only))}
    elif variant == VARIANT_SUBGRAPH:
        payload = {"subgraph": retrieve_subgraph_pcst(g, prizes)}
    else:
        raise ValueError(f"unknown variant {variant!r}")
    return RetrievedKnowledge(variant, prizes.k, prizes.edge_cost, **payload)


# ---------------------------------------------------------------------------
# Exhaustive oracles (small graphs only)
# ---------------------------------------------------------------------------


def _check_oracle_size(g: KnowledgeGraph) -> None:
    if len(g.entities) > _ORACLE_NODE_LIMIT:
        raise ValueError(
            f"oracle refuses graphs with more than {_ORACLE_NODE_LIMIT} nodes"
        )


def brute_force_best_path(
    g: KnowledgeGraph, prizes: PrizeAssignment, max_len: int = DEFAULT_MAX_LEN
) -> ScoredPath:
    """Exhaustively enumerate every simple path of at most ``max_len``
    edges (any start node, direction ignored) and return the best one.

    Ties break on the lexicographic node then edge sequence.  Only graphs
    with at most 10 nodes are accepted.
    """
    _check_oracle_size(g)
    if not g.entities:
        raise ValueError("empty graph has no paths")
    if max_len < 0:
        raise ValueError("max_len must be >= 0")
    cost = prizes.edge_cost
    best: tuple[float, tuple[str, ...], tuple[Triple, ...]] | None = None

    def consider(score: float, nodes: tuple[str, ...], edges: tuple[Triple, ...]):
        nonlocal best
        candidate = (-score, nodes, edges)
        if best is None or candidate < (-best[0], best[1], best[2]):
            best = (score, nodes, edges)

    def extend(nodes: tuple[str, ...], edges: tuple[Triple, ...], score: float):
        consider(score, nodes, edges)
        if len(edges) >= max_len:
            return
        tail = nodes[-1]
        for t in g.triples:
            if t.subject == tail and t.object not in nodes:
                nxt = t.object
            elif t.object == tail and t.subject not in nodes:
                nxt = t.subject
            else:
                continue
            extend(
                nodes + (nxt,),
                edges + (t,),
                score + prizes.node_prize(nxt) + prizes.edge_prize(t) - cost,
            )

    for v in g.entity_order:
        extend((v,), (), prizes.node_prize(v))
    assert best is not None
    return ScoredPath(nodes=best[1], edges=best[2], score=best[0])


def brute_force_best_subgraph(
    g: KnowledgeGraph, prizes: PrizeAssignment
) -> ScoredSubgraph:
    """Exact optimum over all connected subgraphs (nodes plus edge set).

    For every non-empty node subset the best edge set is all strictly
    profitable edges plus the cheapest connectors (a minimum spanning
    forest over the remaining reduced costs); subsets that cannot be
    connected are skipped.  Only graphs with at most 10 nodes are
    accepted.
    """
    _check_oracle_size(g)
    if not g.entities:
        raise ValueError("empty graph has no subgraphs")
    entity_list = list(g.entity_order)
    cost = prizes.edge_cost
    best: tuple[float, tuple[str, ...], tuple[Triple, ...]] | None = None

    for mask in range(1, 1 << len(entity_list)):
        subset = {entity_list[i] for i in range(len(entity_list)) if mask >> i & 1}
        inner = [t for t in g.triples if t.subject in subset and t.object in subset]

        comp = {v: v for v in subset}

        def find(v: str) -> str:
            while comp[v] != v:
                comp[v] = comp[comp[v]]
                v = comp[v]
            return v

        chosen: list[Triple] = []
        gain_total = 0.0
        deferred: list[tuple[float, Triple]] = []
        for t in inner:
            gain = prizes.edge_prize(t) - cost
            if gain > 0.0:
                chosen.append(t)
                gain_total += gain
                ra, rb = find(t.subject), find(t.object)
                if ra != rb:
                    comp[ra] = rb
            else:
                deferred.append((-gain, t))
        deferred.sort()
        for weight, t in deferred:
            ra, rb = find(t.subject), find(t.object)
            if ra != rb:
                comp[ra] = rb
                chosen.append(t)
                gain_total -= weight
        roots = {find(v) for v in subset}
        if len(roots) > 1:
            continue
        score = sum(prizes.node_prize(v) for v in subset) + gain_total
        candidate = (-score, tuple(sorted(subset)), tuple(sorted(chosen)))
        if best is None or candidate < (-best[0], best[1], best[2]):
            best = (score, tuple(sorted(subset)), tuple(sorted(chosen)))

    assert best is not None
    return ScoredSubgraph(
        subgraph=KnowledgeGraph.from_triples(best[2], extra_entities=best[1]),
        score=best[0],
    )
