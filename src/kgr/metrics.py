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

from dataclasses import dataclass
from typing import Protocol, Sequence

import numpy as np

from .graph import KnowledgeGraph, _lookup_ids, _position, _run_lengths


class EdgeScorer(Protocol):
    """Anything that can judge the plausibility of directed triples."""

    def score_ids(
        self, entities: Sequence[str], relations: Sequence[str], subjects, relation_ids, objects
    ) -> np.ndarray:
        """Float64 score of each triple ``(entities[subjects[i]],
        relations[relation_ids[i]], entities[objects[i]])``."""
        ...


@dataclass(frozen=True, eq=False)
class BaselineEdgeScorer:
    """Relation-frequency scorer fitted on one graph.

    A triple present in the graph scores 1.  Otherwise the score is the
    mean of two frequencies: how often the relation labels the subject's
    out-edges and how often it labels the object's in-edges.  Entities
    without out-/in-edges, and entities or relations the graph lacks,
    contribute 0 to the respective half.

    The scorer reads its fitted graph's id tables (entity and relation
    order and index, triple keys) and keeps only the two frequency tables:
    sorted keys ``s * |R| + r`` and ``o * |R| + r`` over the graph's ids,
    each with its ``count / degree``.
    """

    graph: KnowledgeGraph
    out_keys: np.ndarray
    out_freq: np.ndarray
    in_keys: np.ndarray
    in_freq: np.ndarray

    def score(self, subject: str, relation: str, object_id: str) -> float:
        return float(self.score_ids((subject, object_id), (relation,), [0], [0], [1])[0])

    def score_ids(
        self, entities: Sequence[str], relations: Sequence[str], subjects, relation_ids, objects
    ) -> np.ndarray:
        """Score id triples whose ids index the name tables ``entities`` and
        ``relations``.

        The tables are mapped to the fitted graph's ids with one lookup per
        name (none for a table that is the graph's own entity or relation
        order); a name the scorer does not know contributes 0.  Present
        triples are found by their keys, and only the absent ones look up
        frequencies.
        """
        g, k = self.graph, len(self.graph.relations)
        subjects, relation_ids, objects = (
            np.asarray(ids, dtype=np.intp) for ids in (subjects, relation_ids, objects)
        )
        if entities is not g.entity_order:
            entity_map = _lookup_ids(g.entity_index, entities, len(entities))
            subjects, objects = entity_map[subjects], entity_map[objects]
        if relations is not g.relation_order:
            relation_ids = _lookup_ids(g.relation_index, relations, len(relations))[relation_ids]
        scores = np.ones(len(relation_ids), dtype=np.float64)
        absent = g._find(subjects, relation_ids, objects) < 0
        subjects, relation_ids, objects = subjects[absent], relation_ids[absent], objects[absent]
        out_part = _frequency(self.out_keys, self.out_freq, subjects, relation_ids, k)
        in_part = _frequency(self.in_keys, self.in_freq, objects, relation_ids, k)
        scores[absent] = 0.5 * (out_part + in_part)
        return scores


def _frequency(
    sorted_keys: np.ndarray, freq: np.ndarray, ends: np.ndarray, relation_ids: np.ndarray, k: int
) -> np.ndarray:
    """``freq`` at the key ``end * k + r`` of each pair, 0 for a pair the
    table lacks or with an id of -1."""
    at = _position(sorted_keys, np.where((ends < 0) | (relation_ids < 0), -1, ends * k + relation_ids))
    return np.where(at >= 0, freq[at], 0.0)


def _frequency_table(ends: np.ndarray, relation_ids: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Sorted keys ``end * k + r`` with, for each, the share of ``end``'s
    triples that relation r labels (count / degree, in float64 as
    Python's int / int gives it)."""
    keys = np.sort(ends * k + relation_ids)
    counts = _run_lengths(keys)
    unique = keys[np.cumsum(counts) - counts]
    freq = counts / np.bincount(ends)[unique // k]
    unique.flags.writeable = freq.flags.writeable = False
    return unique, freq


def fit_baseline_scorer(g: KnowledgeGraph) -> BaselineEdgeScorer:
    """Fit the frequency scorer; a graph without triples is rejected."""
    if not g.triples:
        raise ValueError("cannot fit an edge scorer on a graph without triples")
    (subjects, objects), k = g.endpoint_ids, len(g.relations)
    return BaselineEdgeScorer(
        g,
        *_frequency_table(subjects, g.relation_ids, k),
        *_frequency_table(objects, g.relation_ids, k),
    )


def ats(g: KnowledgeGraph, g_prime: KnowledgeGraph, scorer: EdgeScorer | None = None) -> float:
    """Mean plausibility of ``g_prime``'s triples under a scorer for ``g``.

    Defaults to the baseline frequency scorer fitted on ``g``.  An empty
    perturbed graph scores 0.  The scores are summed left to right in
    triple order.
    """
    if scorer is None:
        scorer = fit_baseline_scorer(g)
    if not g_prime.triples:
        return 0.0
    subjects, objects = g_prime.endpoint_ids
    scores = scorer.score_ids(
        g_prime.entity_order, g_prime.relation_order, subjects, g_prime.relation_ids, objects
    )
    return float(np.add.accumulate(scores)[-1]) / len(g_prime.triples)


def distance_to_similarity(d: float) -> float:
    """Map an L2 distance into (0, 1]: identical vectors give exactly 1."""
    return 1.0 - d / (d + 1.0)


def _require_same_entities(g: KnowledgeGraph, g_prime: KnowledgeGraph) -> None:
    if g_prime.entities is not g.entities and g.entities != g_prime.entities:
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
