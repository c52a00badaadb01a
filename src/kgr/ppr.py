"""Personalized PageRank scoring and score-threshold pruning.

Power iteration of p = alpha * W p + (1 - alpha) * s, where W moves
probability mass along edge direction: column u of W spreads p[u] over
the out-edge multiset of u (parallel edges count with multiplicity).
Mass sitting on dangling nodes (no out-edges) is redistributed onto the
personalization vector s each step, so the scores always sum to one.

The transition matrix and the pruning mask are built from the graph's
endpoint arrays (:attr:`KnowledgeGraph.endpoint_ids`), which are cached
on the immutable graph; pruning thresholds the score vector itself and
keeps a subsequence of the triples, so the pruned graph is built without
re-sorting them.
"""

from __future__ import annotations

import logging
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .graph import EntityNotFoundError, KnowledgeGraph
from .ingest import DEFAULT_HOPS, khop_subgraph

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class PprConfig:
    alpha: float = 0.85
    tol: float = 1e-6
    max_iter: int = 100
    prune_threshold: float = 1e-5

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie strictly between 0 and 1")
        if self.tol <= 0.0:
            raise ValueError("tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.prune_threshold < 0.0:
            raise ValueError("prune_threshold must be non-negative")


@dataclass(frozen=True, eq=False)
class PprScores:
    """Per-entity stationary scores plus iteration diagnostics.

    ``vector[i]`` is the score of ``entity_order[i]``; :attr:`scores` holds
    the same values as a dict, built on first read.
    """

    entity_order: tuple[str, ...]
    vector: np.ndarray
    iterations_used: int
    converged: bool

    @cached_property
    def scores(self) -> dict[str, float]:
        return dict(zip(self.entity_order, self.vector.tolist()))


def _transition_matrix(
    g: KnowledgeGraph, undirected: bool
) -> tuple[sparse.csr_matrix, np.ndarray]:
    """Sparse W with W[v, u] = (# edges u->v) / outdeg(u), plus dangling mask."""
    # Imported here: scipy.sparse is most of ``import kgr``, and only PPR needs it.
    from scipy import sparse

    n = len(g.entity_order)
    subjects, objects = g.endpoint_ids
    if undirected:
        # Per triple, (o, s) comes before (s, o): duplicates sum in triple order.
        rows = np.column_stack((objects, subjects)).ravel()
        cols = np.column_stack((subjects, objects)).ravel()
    else:
        rows, cols = objects, subjects
    outdeg = np.bincount(cols, minlength=n).astype(np.float64)
    data = 1.0 / outdeg[cols]
    mat = sparse.csr_matrix((data, (rows, cols)), shape=(n, n))
    dangling = outdeg == 0.0
    return mat, dangling


def personalized_pagerank(
    g: KnowledgeGraph,
    seeds: Sequence[str],
    config: PprConfig = PprConfig(),
    undirected: bool = False,
) -> PprScores:
    """Run power iteration personalized on ``seeds`` (equal seed mass).

    Iterates until the L1 change drops below ``config.tol`` or
    ``config.max_iter`` sweeps have run.  The walk follows edge direction
    unless ``undirected`` is set.  Raises ``ValueError`` on an empty graph
    or empty seed list, ``EntityNotFoundError`` on unknown seeds.
    """
    if len(g.entities) == 0:
        raise ValueError("cannot rank an empty graph")
    if not seeds:
        raise ValueError("at least one seed entity is required")
    seed_set = set(seeds)
    for seed in seed_set:
        if seed not in g.entities:
            raise EntityNotFoundError(seed)

    order = g.entity_order
    s = np.zeros(len(order), dtype=np.float64)
    share = 1.0 / len(seed_set)
    for seed in seed_set:
        s[bisect_left(order, seed)] = share  # entity_order is sorted

    mat, dangling = _transition_matrix(g, undirected)
    alpha = config.alpha
    p = s.copy()
    iterations = 0
    converged = False
    for iterations in range(1, config.max_iter + 1):
        dangling_mass = float(p[dangling].sum())
        p_next = alpha * (mat.dot(p) + dangling_mass * s) + (1.0 - alpha) * s
        delta = float(np.abs(p_next - p).sum())
        p = p_next
        if delta < config.tol:
            converged = True
            break
    p.flags.writeable = False
    return PprScores(order, p, iterations, converged)


def prune_by_ppr(
    g: KnowledgeGraph,
    scores: PprScores | dict[str, float],
    threshold: float = PprConfig().prune_threshold,
) -> KnowledgeGraph:
    """Drop entities scoring below ``threshold`` and their incident triples.

    Surviving nodes and edges are carried over unchanged; nodes left
    isolated by the cut remain in the graph.  Every entity must have a
    score entry (``ValueError`` otherwise).  Scores that
    :func:`personalized_pagerank` computed on ``g`` itself are thresholded
    as a vector, without a per-entity lookup.
    """
    if isinstance(scores, PprScores) and scores.entity_order == g.entity_order:
        values = scores.vector
    else:
        table = scores.scores if isinstance(scores, PprScores) else scores
        missing = g.entities - table.keys()
        if missing:
            raise ValueError(
                f"scores missing for {len(missing)} entities, e.g. {sorted(missing)[:3]}"
            )
        values = np.array([table[e] for e in g.entity_order])
    kept = values >= threshold
    subjects, objects = g.endpoint_ids
    return g._induced(kept[subjects] & kept[objects], kept)


def extract_and_prune(
    g: KnowledgeGraph,
    seeds: Iterable[str],
    hops: int = DEFAULT_HOPS,
    config: PprConfig = PprConfig(),
    undirected: bool = False,
) -> KnowledgeGraph:
    """K-hop extraction around ``seeds`` followed by PPR pruning.

    Logs a warning naming the seeds (the first three) when PPR stops at
    ``config.max_iter`` unconverged; the pruning then uses the last iterate.
    """
    seeds = tuple(seeds)  # read twice, so an iterator must be materialized
    neighborhood = khop_subgraph(g, seeds, hops)
    ranked = personalized_pagerank(neighborhood, seeds, config, undirected)
    if not ranked.converged:
        shown = ", ".join(seeds[:3]) + (f" (+{len(seeds) - 3} more)" if len(seeds) > 3 else "")
        logger.warning(
            "PPR did not converge in %d iterations (tol %g) for seeds %s; "
            "pruning on the last iterate",
            ranked.iterations_used,
            config.tol,
            shown,
        )
    return prune_by_ppr(neighborhood, ranked, config.prune_threshold)
