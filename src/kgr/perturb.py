"""Seeded structural perturbations of a knowledge graph.

Four heuristics, each parameterized by a level rho in [0, 1] and a seed:

* ``relation_swap``    -- disjoint edge pairs exchange their relations.
* ``relation_replace`` -- chosen edges get the least plausible other
  relation under an edge scorer (or the most plausible, behind a flag).
* ``edge_rewire``      -- chosen edges keep subject and relation but move
  their object to a uniformly drawn non-neighbor, found by rejection
  sampling over entity ids; at most 100 candidates are tried.
* ``edge_delete``      -- chosen edges are removed outright.

Edges are chosen by deterministically shuffling the canonical triple
order with the given seed, once per call that has an edge to edit, so
equal inputs give equal outputs.  Replace and rewire share one loop: the
first candidate not yet in the working triple set replaces the edge, and
an edge with no candidate left is logged as skipped.  The entity set is
never changed and every edit is logged; the perturbed graph is built by
replaying that log against the original graph (:func:`replay_edit_log`),
so a logged run reproduces its graph exactly.
"""

from __future__ import annotations

import logging
import math
import random
from dataclasses import dataclass
from functools import partial
from typing import Iterable, Iterator, Sequence

from .graph import KnowledgeGraph, Triple
from .ingest import json_triple, jsonl_line, jsonl_records
from .metrics import fit_baseline_scorer

METHOD_RELATION_SWAP = "relation_swap"
METHOD_RELATION_REPLACE = "relation_replace"
METHOD_EDGE_REWIRE = "edge_rewire"
METHOD_EDGE_DELETE = "edge_delete"
METHODS = (
    METHOD_RELATION_SWAP,
    METHOD_RELATION_REPLACE,
    METHOD_EDGE_REWIRE,
    METHOD_EDGE_DELETE,
)

_ALIASES = {
    "rs": METHOD_RELATION_SWAP,
    "rr": METHOD_RELATION_REPLACE,
    "er": METHOD_EDGE_REWIRE,
    "ed": METHOD_EDGE_DELETE,
}

logger = logging.getLogger(__name__)

REPLACE_LEAST_PLAUSIBLE = "least_plausible"
REPLACE_MOST_PLAUSIBLE = "most_plausible"
REPLACE_MODES = (REPLACE_LEAST_PLAUSIBLE, REPLACE_MOST_PLAUSIBLE)

_SKIP_SUFFIX = "_skipped"
_OPS = METHODS + tuple(m + _SKIP_SUFFIX for m in METHODS)


def normalize_method(name: str) -> str:
    """Accept both full method names and the two-letter shorthands."""
    lowered = name.strip().lower()
    if lowered in METHODS:
        return lowered
    if lowered in _ALIASES:
        return _ALIASES[lowered]
    raise ValueError(f"unknown perturbation method {name!r}")


def round_half_up(x: float) -> int:
    """Plain half-up rounding; Python's round() would round half to even."""
    return int(math.floor(x + 0.5))


@dataclass(frozen=True)
class PerturbationSpec:
    method: str
    level: float
    seed: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "method", normalize_method(self.method))
        if not 0.0 <= self.level <= 1.0:
            raise ValueError("level must lie in [0, 1]")


@dataclass(frozen=True)
class EditRecord:
    """One applied (or skipped) edit; ``after`` is None for deletions."""

    op: str
    before: Triple
    after: Triple | None

    @property
    def skipped(self) -> bool:
        return self.op.endswith(_SKIP_SUFFIX)


@dataclass(frozen=True)
class PerturbedGraph:
    graph: KnowledgeGraph
    edit_log: tuple[EditRecord, ...]

    @property
    def skipped_edits(self) -> int:
        """How many logged edits were skipped."""
        return sum(rec.skipped for rec in self.edit_log)


def _relation_swap(shuffled: list[Triple], level: float, current: set[Triple]) -> list[EditRecord]:
    n_pairs = min(round_half_up(level * len(shuffled) / 2.0), len(shuffled) // 2)
    log: list[EditRecord] = []
    for i in range(n_pairs):
        e1, e2 = shuffled[2 * i], shuffled[2 * i + 1]
        f1 = Triple(e1.subject, e2.relation, e1.object)
        f2 = Triple(e2.subject, e1.relation, e2.object)
        # e1 and e2 are still in ``current`` (pairs are disjoint) and
        # f1 != f2, so the swap keeps the triple count unless an f hits a
        # third triple.  A parallel pair (f1 == e2, f2 == e1) swaps onto itself.
        if any(f in current and f != e1 and f != e2 for f in (f1, f2)):
            # The swap would collide with an existing triple and silently
            # shrink the graph; leave the pair untouched instead.
            log.append(EditRecord(METHOD_RELATION_SWAP + _SKIP_SUFFIX, e1, e1))
            log.append(EditRecord(METHOD_RELATION_SWAP + _SKIP_SUFFIX, e2, e2))
            continue
        current.difference_update((e1, e2))
        current.update((f1, f2))
        log.append(EditRecord(METHOD_RELATION_SWAP, e1, f1))
        log.append(EditRecord(METHOD_RELATION_SWAP, e2, f2))
    return log


def _relation_candidates(relations: list[str], scorer, sign: float, e: Triple) -> Iterator[Triple]:
    """``e`` with each other relation, least plausible first (``sign`` 1)
    or most plausible first (``sign`` -1); ties break on the relation."""
    ranked = sorted((sign * scorer.score(e.subject, r, e.object), r) for r in relations if r != e.relation)
    return (Triple(e.subject, r, e.object) for _, r in ranked)


def _rewire_candidates(g: KnowledgeGraph, rng: random.Random, e: Triple) -> Iterator[Triple]:
    """``e`` with its object moved to a non-neighbour of its subject.

    Candidate objects exclude the subject and its original 1-hop
    neighborhood (either direction), per the original graph.  Draw
    uniformly from all entities and reject excluded or already tried ones:
    the distinct candidates come out as a uniform random order of the
    pool, of which the first 100 are tried.  Draws happen only as the
    candidates are consumed.
    """
    n, s = len(g.entities), g.entity_index[e.subject]
    (subjects, objects), (indptr, incident) = g.endpoint_ids, g.incidence
    # The far end of each triple touching s is a neighbour (s itself for a self-loop).
    ts = incident[indptr[s] : indptr[s + 1]]
    nbrs = set((subjects[ts] + objects[ts] - s).tolist())
    tries = min(100, n - len(nbrs) - (s not in nbrs))
    tried: set[int] = set()
    while len(tried) < tries:
        v3 = rng.randrange(n)
        if v3 == s or v3 in nbrs or v3 in tried:
            continue
        tried.add(v3)
        yield Triple(e.subject, e.relation, g.entity_order[v3])


def _replace_each(
    method: str, targets: list[Triple], current: set[Triple], candidates
) -> list[EditRecord]:
    """Replace each target, in order, by its first candidate that is not
    in ``current``, and update ``current``; a target with none left is
    logged as skipped."""
    log: list[EditRecord] = []
    for e in targets:
        replacement = next((c for c in candidates(e) if c not in current), None)
        if replacement is None:
            log.append(EditRecord(method + _SKIP_SUFFIX, e, e))
            continue
        current.discard(e)
        current.add(replacement)
        log.append(EditRecord(method, e, replacement))
    return log


def perturb(
    g: KnowledgeGraph,
    spec: PerturbationSpec,
    scorer=None,
    replace_mode: str = REPLACE_LEAST_PLAUSIBLE,
) -> PerturbedGraph:
    """Apply one perturbation method at ``spec.level`` to ``g``.

    ``scorer`` and ``replace_mode`` are only used by ``relation_replace``,
    but a bad ``replace_mode`` raises ``ValueError`` for every method.  The
    scorer defaults to the baseline frequency scorer, fitted on ``g`` only
    when there is an edge to replace.  The returned graph keeps the original
    entity set; all edits (and skips, e.g. when a rewire target pool is
    empty) are recorded in application order, and the graph is the log
    replayed on ``g``.
    """
    if replace_mode not in REPLACE_MODES:
        raise ValueError(f"unknown replace mode {replace_mode!r}")
    count = round_half_up(spec.level * len(g.triples))
    if not count:
        # Every method's log is empty and nothing would read the generator,
        # so the shuffle is skipped.
        return PerturbedGraph(graph=replay_edit_log(g, ()), edit_log=())
    rng = random.Random(spec.seed)
    shuffled = list(g.triples)
    rng.shuffle(shuffled)
    targets = shuffled[:count]
    # The working triple set; only the methods that add triples read it.
    current = set(g.triples) if spec.method != METHOD_EDGE_DELETE else None
    if spec.method == METHOD_RELATION_SWAP:
        log = _relation_swap(shuffled, spec.level, current)
    elif spec.method == METHOD_EDGE_DELETE:
        log = [EditRecord(METHOD_EDGE_DELETE, e, None) for e in targets]
    elif spec.method == METHOD_EDGE_REWIRE:
        log = _replace_each(spec.method, targets, current, partial(_rewire_candidates, g, rng))
    else:
        if targets and scorer is None:
            scorer = fit_baseline_scorer(g)
        sign = 1.0 if replace_mode == REPLACE_LEAST_PLAUSIBLE else -1.0
        candidates = partial(_relation_candidates, sorted(g.relations), scorer, sign)
        log = _replace_each(spec.method, targets, current, candidates)
    return PerturbedGraph(graph=replay_edit_log(g, log), edit_log=tuple(log))


def replay_edit_log(g: KnowledgeGraph, edit_log: Sequence[EditRecord]) -> KnowledgeGraph:
    """Reapply a log to the graph it was produced from.

    Removals and additions are applied as one batch, ``(T - removed) |
    added``, which makes the replay insensitive to entries whose
    before/after triples overlap (e.g. a relation swap across parallel
    edges).  Raises ``ValueError`` if an applied edit removes a triple
    neither in ``g`` nor added by the log, or adds one with an entity ``g``
    lacks; the removal is checked first.

    The result keeps ``g``'s orphan relation labels, shares its entity
    order and index and inherits its id arrays
    (:meth:`KnowledgeGraph._spliced`), so only the log's triples are looked
    up by string.  A DEBUG line counts the triples removed, added,
    and dropped because they were already present.
    """
    removed = list({rec.before for rec in edit_log if not rec.skipped})
    added = sorted({rec.after for rec in edit_log if not rec.skipped and rec.after is not None})
    at = g._locate(removed)
    if not {t for t, i in zip(removed, at.tolist()) if i < 0}.issubset(added):
        raise ValueError("edit log removes a triple that is not in the graph")
    if not all(t.subject in g.entities and t.object in g.entities for t in added):
        raise ValueError("edit log adds a triple with an entity that is not in the graph")
    dropped = at[at >= 0]
    child = g._spliced(dropped, added)
    fresh = len(child.triples) - len(g.triples) + len(dropped)
    logger.debug(
        "replay_edit_log: %d triples removed, %d added, %d already present",
        len(dropped), fresh, len(added) - fresh,
    )
    return child


def edit_log_to_jsonl(edit_log: Iterable[EditRecord]) -> str:
    """One ``{"op", "before", "after"}`` JSONL line per edit; triples are
    ``[s, r, o]`` lists and ``after`` is null for a deletion."""
    return "".join(
        jsonl_line({"op": rec.op, "before": rec.before, "after": rec.after}) for rec in edit_log
    )


def parse_edit_log(text: str) -> list[EditRecord]:
    """Parse a JSONL edit log into its edit records.

    Blank lines and the header line the CLI writes first are skipped; any
    other line that is not an edit record raises ``ValueError`` naming it.
    ``after`` must be null for ``edge_delete``, a triple for the other
    applied ops and equal to ``before`` for a skipped edit.
    """
    records = []
    for lineno, d in jsonl_records(text.splitlines(), "edit log"):
        try:
            op, after = d["op"], d.get("after")
            if op not in _OPS:
                raise ValueError(f"unknown op {op!r}")
            before = json_triple(d["before"])
            after = None if after is None else json_triple(after)
            if op.endswith(_SKIP_SUFFIX):
                if after != before:
                    raise ValueError(f"{op} must have 'after' equal to 'before'")
            elif (after is None) != (op == METHOD_EDGE_DELETE):
                raise ValueError(f"{op} must have {'a null' if after else 'a triple as'} 'after'")
            records.append(EditRecord(op, before, after))
        except (KeyError, ValueError) as exc:
            raise ValueError(f"edit log:{lineno}: bad record: {exc}") from None
    return records
