"""Prize-driven retrieval of triples, paths, and connected subgraphs.

All three variants consume one :class:`~kgr.relevance.PrizeAssignment`:

* ``triplets``  -- top-n triples by summed node+edge prize.
* ``paths``     -- enumerated paths, best n kept: every simple path from
  the high-prize start nodes is walked and the top n by score are kept;
  a path is worth its node prizes plus edge prizes minus edge costs.
* ``subgraph``  -- a prize-collecting Steiner-style heuristic that folds
  edge prizes into reduced costs and prunes unprofitable branches.

Exhaustive oracles for the path and subgraph objectives are provided for
verification on small graphs (at most 10 nodes, enforced).
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Iterable

from .graph import KnowledgeGraph, Triple
from .relevance import PrizeAssignment

VARIANT_TRIPLETS = "triplets"
VARIANT_PATHS = "paths"
VARIANT_SUBGRAPH = "subgraph"
VARIANTS = (VARIANT_TRIPLETS, VARIANT_PATHS, VARIANT_SUBGRAPH)

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


def _triple_score(t: Triple, prizes: PrizeAssignment) -> float:
    return (
        prizes.node_prize(t.subject)
        + prizes.node_prize(t.object)
        + prizes.edge_prize(t)
    )


def retrieve_triplets(
    g: KnowledgeGraph, prizes: PrizeAssignment, n: int | None = None
) -> RetrievedKnowledge:
    """Top-``n`` triples by subject + object + edge prize (default ``prizes.k``).

    Ties break on the lexicographic triple, so results are deterministic.
    An empty graph yields an empty result.
    """
    if n is None:
        n = prizes.k
    if n < 1:
        raise ValueError("n must be >= 1")
    scored = sorted(
        ((t, _triple_score(t, prizes)) for t in g.triples),
        key=lambda pair: (-pair[1], pair[0]),
    )
    return RetrievedKnowledge(
        variant=VARIANT_TRIPLETS,
        prize_k=prizes.k,
        edge_cost=prizes.edge_cost,
        triplets=tuple(scored[:n]),
    )


def _incident(
    g: KnowledgeGraph, node: str, directed_only: bool
) -> Iterable[tuple[Triple, str]]:
    """Triples usable to leave ``node``, with the node reached via each."""
    for t in g.out_index[node]:
        yield t, t.object
    if not directed_only:
        for t in g.in_index[node]:
            yield t, t.subject


def retrieve_paths(
    g: KnowledgeGraph,
    prizes: PrizeAssignment,
    start_count: int = 5,
    max_len: int = 4,
    result_count: int | None = None,
    directed_only: bool = False,
) -> list[ScoredPath]:
    """The ``result_count`` best simple paths (default ``prizes.k``) from
    the ``start_count`` highest-prize nodes.

    Every simple path (node revisits forbidden, at most ``max_len``
    edges) is enumerated and the best by score are kept, ties broken on
    the node then edge sequence.  Traversal ignores edge direction unless
    ``directed_only`` is set.  The path score is the sum of node prizes
    plus edge prizes minus edge costs along it.
    """
    if start_count < 1:
        raise ValueError("start_count must be >= 1")
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    if result_count is None:
        result_count = prizes.k
    if result_count < 1:
        raise ValueError("result_count must be >= 1")

    starts = sorted(g.entity_order, key=lambda v: (-prizes.node_prize(v), v))[:start_count]
    cost = prizes.edge_cost

    def simple_paths():
        # Depth-first with an explicit stack: ``max_len`` is not bounded by
        # the recursion limit, and the stack holds only the untried
        # extensions of the current path.
        stack = [(prizes.node_prize(v), (v,), ()) for v in starts]
        while stack:
            path = stack.pop()
            yield path
            score, nodes, edges = path
            if len(edges) >= max_len:
                continue
            for t, nxt in _incident(g, nodes[-1], directed_only):
                if nxt not in nodes:
                    nscore = score + prizes.node_prize(nxt) + prizes.edge_prize(t) - cost
                    stack.append((nscore, nodes + (nxt,), edges + (t,)))

    # The key is a total order, so the result does not depend on the walk order.
    best = heapq.nsmallest(result_count, simple_paths(), key=lambda p: (-p[0], p[1], p[2]))
    return [ScoredPath(nodes=nodes, edges=edges, score=score) for score, nodes, edges in best]


def retrieved_from_json_dict(d: dict) -> RetrievedKnowledge:
    """Inverse of :meth:`RetrievedKnowledge.to_json_dict`."""
    variant = d["variant"]
    prize_k = int(d["prize_k"])
    edge_cost = float(d["edge_cost"])
    items, scores = d["items"], d["scores"]
    if variant == VARIANT_TRIPLETS:
        return RetrievedKnowledge(
            variant=variant,
            prize_k=prize_k,
            edge_cost=edge_cost,
            triplets=tuple(
                (Triple(*item), float(score)) for item, score in zip(items, scores)
            ),
        )
    if variant == VARIANT_PATHS:
        paths = tuple(
            ScoredPath(
                nodes=tuple(item["nodes"]),
                edges=tuple(Triple(*e) for e in item["triples"]),
                score=float(score),
            )
            for item, score in zip(items, scores)
        )
        return RetrievedKnowledge(
            variant=variant, prize_k=prize_k, edge_cost=edge_cost, paths=paths
        )
    if variant == VARIANT_SUBGRAPH:
        item = items[0]
        sub = KnowledgeGraph.from_triples(
            (Triple(*t) for t in item["triples"]), extra_entities=item["nodes"]
        )
        return RetrievedKnowledge(
            variant=variant,
            prize_k=prize_k,
            edge_cost=edge_cost,
            subgraph=ScoredSubgraph(subgraph=sub, score=float(scores[0])),
        )
    raise ValueError(f"unknown variant {variant!r}")


# ---------------------------------------------------------------------------
# Connected-subgraph retrieval (prize-collecting Steiner heuristic)
# ---------------------------------------------------------------------------

# Transformed-graph node keys: ("n", entity) for real nodes and
# ("v", triple) for the virtual node that carries an edge's surplus prize.


def _transformed_graph(g: KnowledgeGraph, prizes: PrizeAssignment):
    cost = prizes.edge_cost
    adjacency: dict[tuple, list[tuple[tuple, float, Triple]]] = {
        ("n", e): [] for e in g.entities
    }
    prize_of: dict[tuple, float] = {
        ("n", e): prizes.node_prize(e) for e in g.entities
    }
    for t in g.triples:
        s_key, o_key = ("n", t.subject), ("n", t.object)
        reduced = cost - prizes.edge_prize(t)
        if reduced >= 0.0:
            adjacency[s_key].append((o_key, reduced, t))
            adjacency[o_key].append((s_key, reduced, t))
        else:
            v_key = ("v", t)
            prize_of[v_key] = -reduced
            adjacency[v_key] = [(s_key, 0.0, t), (o_key, 0.0, t)]
            adjacency[s_key].append((v_key, 0.0, t))
            adjacency[o_key].append((v_key, 0.0, t))
    return adjacency, prize_of


def _grow_tree(adjacency, prize_of, root, greedy_prizes: bool):
    """Spanning tree of the root's component, grown best-edge-first.

    With ``greedy_prizes`` the priority is the edge cost minus the new
    node's prize (chase value); without it the priority is the plain
    edge cost (a minimum-spanning-tree shape).  Returns parent pointers:
    node -> (parent, cost, triple).
    """
    def priority(cost: float, node: tuple) -> float:
        return cost - prize_of[node] if greedy_prizes else cost

    parent: dict[tuple, tuple | None] = {root: None}
    heap: list[tuple[float, int, tuple, tuple, float, Triple | None]] = []
    counter = itertools.count()
    for other, cost, t in adjacency[root]:
        heapq.heappush(heap, (priority(cost, other), next(counter), other, root, cost, t))
    while heap:
        _, _, node, par, cost, t = heapq.heappop(heap)
        if node in parent:
            continue
        parent[node] = (par, cost, t)
        for other, ocost, ot in adjacency[node]:
            if other not in parent:
                heapq.heappush(
                    heap,
                    (priority(ocost, other), next(counter), other, node, ocost, ot),
                )
    return parent


def _best_subtree(parent, prize_of, root):
    """Exact best prize-minus-cost connected subtree of a tree.

    Dynamic program over the tree rooted at ``root``: a child's branch is
    kept only when its value exceeds the edge cost into it (net-gain
    pruning).  Returns ``(score, kept_nodes)``.
    """
    children: dict[tuple, list[tuple]] = {n: [] for n in parent}
    for node, link in parent.items():
        if link is not None:
            children[link[0]].append(node)

    order: list[tuple] = []
    stack = [root]
    while stack:
        node = stack.pop()
        order.append(node)
        stack.extend(children[node])

    down: dict[tuple, float] = {}
    kept_children: dict[tuple, list[tuple]] = {}
    for node in reversed(order):
        value = prize_of[node]
        kept: list[tuple] = []
        for child in children[node]:
            edge_cost = parent[child][1]
            if down[child] - edge_cost > 0.0:
                value += down[child] - edge_cost
                kept.append(child)
        down[node] = value
        kept_children[node] = kept

    top = max(sorted(down), key=lambda n: down[n])
    selected = {top}
    stack = [top]
    while stack:
        node = stack.pop()
        for child in kept_children[node]:
            selected.add(child)
            stack.append(child)
    return down[top], selected


def _subgraph_from_selection(g, prizes, parent, selected):
    """Map selected transformed nodes back to original nodes and triples."""
    nodes: set[str] = {key[1] for key in selected if key[0] == "n"}
    triples: set[Triple] = set()
    for key in selected:
        if key[0] == "v":
            t = key[1]
            triples.add(t)
            nodes.add(t.subject)
            nodes.add(t.object)
        else:
            link = parent.get(key)
            if link is not None and link[0] in selected and link[2] is not None:
                triples.add(link[2])
    _expand_greedily(g, prizes, nodes, triples)
    score = sum(prizes.node_prize(v) for v in nodes) + sum(
        prizes.edge_prize(t) - prizes.edge_cost for t in triples
    )
    return nodes, triples, score


def _expand_greedily(g, prizes, nodes: set[str], triples: set[Triple]) -> None:
    """Attach adjacent edges while any strictly improves the score.

    A candidate must touch the current node set (connectivity); its
    marginal value is the edge gain plus the prize of any newly covered
    endpoint.  The single best candidate is taken per round.
    """
    cost = prizes.edge_cost
    frontier: set[Triple] = set()  # triples touching ``nodes``, not yet taken

    def touch(v: str) -> None:
        frontier.update(t for t in (*g.out_index[v], *g.in_index[v]) if t not in triples)

    for v in nodes:
        touch(v)
    while True:
        best: tuple[float, Triple] | None = None
        for t in frontier:
            marginal = prizes.edge_prize(t) - cost
            if t.subject not in nodes:
                marginal += prizes.node_prize(t.subject)
            if t.object not in nodes:
                marginal += prizes.node_prize(t.object)
            if marginal <= 0.0:
                continue
            if best is None or (-marginal, t) < (-best[0], best[1]):
                best = (marginal, t)
        if best is None:
            return
        _, chosen = best
        triples.add(chosen)
        frontier.discard(chosen)
        for v in (chosen.subject, chosen.object):
            if v not in nodes:
                nodes.add(v)
                touch(v)


def retrieve_subgraph_pcst(g: KnowledgeGraph, prizes: PrizeAssignment) -> ScoredSubgraph:
    """One connected subgraph maximizing collected prizes minus edge costs.

    Heuristic: fold each edge prize into a reduced cost (surplus becomes
    a zero-cost virtual node); from each of the top ``_ROOT_COUNT`` prize
    carriers, and from the best carrier of every component those trees
    miss, grow two spanning trees (prize-chasing and cheapest-edge),
    keep each tree's best net-positive subtree, greedily attach any
    remaining profitable edges, and return the best candidate.  With no
    prizes anywhere the result degenerates to the single highest-degree
    node.
    """
    if not g.entities:
        raise ValueError("cannot retrieve from an empty graph")
    adjacency, prize_of = _transformed_graph(g, prizes)
    # Roots may be real nodes or the virtual carrier of a prized edge's
    # surplus -- otherwise a graph whose value sits entirely on edges
    # would never be entered at all.
    prized = sorted(
        (key for key, p in prize_of.items() if p > 0.0),
        key=lambda key: (-prize_of[key], key),
    )
    if not prized:
        degree = {v: len(g.out_index[v]) + len(g.in_index[v]) for v in g.entity_order}
        best = min(g.entity_order, key=lambda v: (-degree[v], v))
        return ScoredSubgraph(
            subgraph=KnowledgeGraph.from_triples((), extra_entities=(best,)),
            score=0.0,
        )

    best_result: tuple | None = None
    reached: set[tuple] = set()
    for i, root in enumerate(prized):
        # Past the top roots, grow only from the best carrier of each
        # component no tree has entered yet (a tree spans its component).
        if i >= _ROOT_COUNT and root in reached:
            continue
        for greedy_prizes in (True, False):
            parent = _grow_tree(adjacency, prize_of, root, greedy_prizes)
            reached.update(parent)
            _, selected = _best_subtree(parent, prize_of, root)
            nodes, triples, score = _subgraph_from_selection(g, prizes, parent, selected)
            key = (-score, tuple(sorted(nodes)), tuple(sorted(triples)))
            if best_result is None or key < best_result[0]:
                best_result = (key, nodes, triples, score)

    assert best_result is not None
    _, nodes, triples, score = best_result
    return ScoredSubgraph(
        subgraph=KnowledgeGraph.from_triples(triples, extra_entities=nodes),
        score=score,
    )


def retrieve(
    g: KnowledgeGraph,
    prizes: PrizeAssignment,
    variant: str = VARIANT_TRIPLETS,
    n: int | None = None,
    start_count: int = 5,
    max_len: int = 4,
    directed_only: bool = False,
) -> RetrievedKnowledge:
    """Run one retrieval variant and wrap the result uniformly.

    ``n`` counts the triplets or paths returned (default ``prizes.k``);
    the subgraph variant returns one subgraph.
    """
    if variant == VARIANT_TRIPLETS:
        return retrieve_triplets(g, prizes, n)
    if variant == VARIANT_PATHS:
        paths = retrieve_paths(g, prizes, start_count, max_len, n, directed_only)
        return RetrievedKnowledge(
            variant=VARIANT_PATHS,
            prize_k=prizes.k,
            edge_cost=prizes.edge_cost,
            paths=tuple(paths),
        )
    if variant == VARIANT_SUBGRAPH:
        sub = retrieve_subgraph_pcst(g, prizes)
        return RetrievedKnowledge(
            variant=VARIANT_SUBGRAPH,
            prize_k=prizes.k,
            edge_cost=prizes.edge_cost,
            subgraph=sub,
        )
    raise ValueError(f"unknown variant {variant!r}")


# ---------------------------------------------------------------------------
# Exhaustive oracles (small graphs only)
# ---------------------------------------------------------------------------


def _check_oracle_size(g: KnowledgeGraph) -> None:
    if len(g.entities) > _ORACLE_NODE_LIMIT:
        raise ValueError(
            f"oracle refuses graphs with more than {_ORACLE_NODE_LIMIT} nodes"
        )


def brute_force_best_path(
    g: KnowledgeGraph, prizes: PrizeAssignment, max_len: int = 4
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
