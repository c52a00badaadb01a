"""Graph similarity metrics between an original and a perturbed graph.

Three measures, each mapped into [0, 1]:

* ``ats``  -- aggregated triple score: mean plausibility of the second
  graph's triples under an edge scorer fitted to the first graph.
* ``sc2d`` -- similarity of mean per-relation local clustering vectors.
* ``sd2``  -- similarity of mean per-relation degree vectors.

The vector metrics compare |V|-dimensional vectors in the shared
lexicographic entity order (both graphs must have identical entity
sets).  A per-relation vector is averaged over the graph's own relation
set; the L2 distance d between the two means is mapped through
1 - d / (d + 1).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from operator import itemgetter
from typing import Protocol

import numpy as np

from .graph import KnowledgeGraph


class EdgeScorer(Protocol):
    """Anything that can judge the plausibility of a directed triple."""

    def score(self, subject: str, relation: str, object_id: str) -> float: ...


@dataclass(frozen=True)
class BaselineEdgeScorer:
    """Relation-frequency scorer fitted on one graph.

    A triple present in the graph scores 1.  Otherwise the score is the
    mean of two frequencies: how often the relation labels the subject's
    out-edges and how often it labels the object's in-edges.  Entities
    without out-/in-edges contribute 0 to the respective half.
    """

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


def fit_baseline_scorer(g: KnowledgeGraph) -> BaselineEdgeScorer:
    """Fit the frequency scorer; a graph without triples is rejected."""
    if not g.triples:
        raise ValueError("cannot fit an edge scorer on a graph without triples")
    # Counter values are Python ints, so every frequency is a Python float.
    out_counts = Counter(map(itemgetter(0, 1), g.triples))
    in_counts = Counter(map(itemgetter(2, 1), g.triples))
    out_degree = Counter(map(itemgetter(0), g.triples))
    in_degree = Counter(map(itemgetter(2), g.triples))
    out_freq = {key: count / out_degree[key[0]] for key, count in out_counts.items()}
    in_freq = {key: count / in_degree[key[0]] for key, count in in_counts.items()}
    return BaselineEdgeScorer(
        triples=frozenset((t.subject, t.relation, t.object) for t in g.triples),
        out_freq=out_freq,
        in_freq=in_freq,
    )


def ats(g: KnowledgeGraph, g_prime: KnowledgeGraph, scorer: EdgeScorer | None = None) -> float:
    """Mean plausibility of ``g_prime``'s triples under a scorer for ``g``.

    Defaults to the baseline frequency scorer fitted on ``g``.  An empty
    perturbed graph scores 0.
    """
    if scorer is None:
        scorer = fit_baseline_scorer(g)
    if not g_prime.triples:
        return 0.0
    total = sum(scorer.score(t.subject, t.relation, t.object) for t in g_prime.triples)
    return total / len(g_prime.triples)


def distance_to_similarity(d: float) -> float:
    """Map an L2 distance into (0, 1]: identical vectors give exactly 1."""
    return 1.0 - d / (d + 1.0)


def _require_same_entities(g: KnowledgeGraph, g_prime: KnowledgeGraph) -> None:
    if g.entities != g_prime.entities:
        raise ValueError("graphs must share the same entity set")


def sc2d(g: KnowledgeGraph, g_prime: KnowledgeGraph) -> float:
    """Similarity of mean per-relation clustering-coefficient vectors."""
    _require_same_entities(g, g_prime)
    d = float(np.linalg.norm(g.mean_relation_clustering - g_prime.mean_relation_clustering))
    return distance_to_similarity(d)


def sd2(g: KnowledgeGraph, g_prime: KnowledgeGraph) -> float:
    """Similarity of mean per-relation degree vectors."""
    _require_same_entities(g, g_prime)
    d = float(np.linalg.norm(g.mean_relation_degree - g_prime.mean_relation_degree))
    return distance_to_similarity(d)


@dataclass(frozen=True)
class SimilarityReport:
    ats: float
    sc2d: float
    sd2: float

    def to_json_dict(
        self,
        method: str | None = None,
        level: float | None = None,
        seed: int | None = None,
    ) -> dict:
        return {
            "ats": self.ats,
            "sc2d": self.sc2d,
            "sd2": self.sd2,
            "method": method,
            "level": level,
            "seed": seed,
        }


def compare(
    g: KnowledgeGraph, g_prime: KnowledgeGraph, scorer: EdgeScorer | None = None
) -> SimilarityReport:
    """All three similarity metrics between ``g`` and ``g_prime``."""
    return SimilarityReport(
        ats=ats(g, g_prime, scorer), sc2d=sc2d(g, g_prime), sd2=sd2(g, g_prime)
    )
