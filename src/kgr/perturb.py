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
order with the given seed, so equal inputs give equal outputs.  The
order depends only on the triples and the seed: it is drawn once per
graph and seed and shared by every method and level, and a call with no
edge to edit skips it.  Replace and rewire share one loop: the first
candidate not present after the edits so far replaces the edge, and an
edge with no candidate left is logged as skipped.  The edits are kept as
the triples removed and added, and whether a candidate is one of the
graph's triples is found by integer key for a batch at once, so a call's
Python work follows its edits, not the graph's size.  The entity set is
never changed and every edit is logged; the perturbed graph is built by
replaying that log against the original graph (:func:`replay_edit_log`),
so a logged run reproduces its graph exactly.
"""

from __future__ import annotations

import logging
import math
import random
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .graph import KnowledgeGraph, Triple, _gather
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


class _EditedTriples:
    """A graph's triples T after some edits, ``(T - removed) | added``.

    :meth:`has` is told whether the triple is in T, found by key for a
    batch beforehand (:meth:`KnowledgeGraph._find`).  A target is removed once, while
    present, and no addition is a present triple, so the two sets agree
    with editing a copy of T in place.
    """

    def __init__(self) -> None:
        self.removed: set[Triple] = set()
        self.added: set[Triple] = set()

    def has(self, t: Triple, in_graph: bool) -> bool:
        return t in self.added or (in_graph and t not in self.removed)

    def replace(self, old: Triple, new: Triple) -> None:
        self.removed.add(old)
        self.added.add(new)


def _relation_swap(g: KnowledgeGraph, picked: np.ndarray, pairs: list[Triple]) -> list[EditRecord]:
    """Swap the relations of ``pairs[2i]`` and ``pairs[2i + 1]``, the
    triples at ``picked[2i]`` and ``picked[2i + 1]``, for each i."""
    (subjects, objects), relation_ids = g.endpoint_ids, g.relation_ids[picked]
    s, o = subjects[picked], objects[picked]
    # f1 takes e2's relation and f2 takes e1's.
    f1_in = (g._find(s[0::2], relation_ids[1::2], o[0::2]) >= 0).tolist()
    f2_in = (g._find(s[1::2], relation_ids[0::2], o[1::2]) >= 0).tolist()
    edited = _EditedTriples()
    log: list[EditRecord] = []
    for e1, e2, f1_in_g, f2_in_g in zip(pairs[0::2], pairs[1::2], f1_in, f2_in):
        f1 = Triple(e1.subject, e2.relation, e1.object)
        f2 = Triple(e2.subject, e1.relation, e2.object)
        # e1 and e2 are still present (pairs are disjoint) and f1 != f2, so
        # the swap keeps the triple count unless an f hits a third triple.
        # A parallel pair (f1 == e2, f2 == e1) swaps onto itself.
        swapped = ((f1, f1_in_g), (f2, f2_in_g))
        if any(edited.has(f, in_g) and f != e1 and f != e2 for f, in_g in swapped):
            # The swap would collide with an existing triple and silently
            # shrink the graph; leave the pair untouched instead.
            log.append(EditRecord(METHOD_RELATION_SWAP + _SKIP_SUFFIX, e1, e1))
            log.append(EditRecord(METHOD_RELATION_SWAP + _SKIP_SUFFIX, e2, e2))
            continue
        edited.replace(e1, f1)
        edited.replace(e2, f2)
        log.append(EditRecord(METHOD_RELATION_SWAP, e1, f1))
        log.append(EditRecord(METHOD_RELATION_SWAP, e2, f2))
    return log


def _relation_options(
    g: KnowledgeGraph, scorer, sign: float, picked: np.ndarray, targets: list[Triple]
) -> Iterator[Iterator[tuple[Triple, bool]]]:
    """For each target (the triple at the same place in ``picked``), the
    target with each other relation, least plausible first (``sign`` 1) or
    most plausible first (``sign`` -1), and whether that triple is in ``g``.

    All targets and relations are scored in one batch.  Relation ids follow
    name order and the sort is stable, so ties break on the relation as
    they do in ``sorted``; each row is walked lazily.
    """
    relations, k = g.relation_order, len(g.relations)
    subjects, objects = (np.repeat(ids[picked], k) for ids in g.endpoint_ids)
    relation_ids = np.tile(np.arange(k), len(picked))
    scores = scorer.score_ids(g.entity_order, relations, subjects, relation_ids, objects)
    ranked = np.argsort(sign * scores.reshape(-1, k), axis=1, kind="stable")
    present = (g._find(subjects, relation_ids, objects) >= 0).tolist()
    for i, (e, own, row) in enumerate(zip(targets, g.relation_ids[picked].tolist(), ranked)):
        yield (
            (Triple(e.subject, relations[r], e.object), present[i * k + r])
            for r in row.tolist()
            if r != own
        )


def _rewire_candidates(
    g: KnowledgeGraph, rng: random.Random, picked: np.ndarray, targets: list[Triple]
) -> Iterator[Iterator[tuple[Triple, bool]]]:
    """For each target (the triple at the same place in ``picked``), the
    target with its object moved to a non-neighbour of its subject, and
    False: such a triple is not in ``g``.

    Candidate objects exclude the subject and its original 1-hop
    neighborhood (either direction), per the original graph.  Draw
    uniformly from all entities and reject excluded or already tried ones:
    the distinct candidates come out as a uniform random order of the
    pool, of which the first 100 are tried.  Every target's neighbours are
    gathered from ``g.incidence`` in one pass; draws happen only as the
    candidates are consumed.
    """
    n = len(g.entities)
    (subjects, objects), (indptr, incident) = g.endpoint_ids, g.incidence
    own = subjects[picked]
    starts, sizes = indptr[own], indptr[own + 1] - indptr[own]
    ends = np.cumsum(sizes)
    ts = incident[np.repeat(starts - ends + sizes, sizes) + np.arange(sizes.sum())]
    # The far end of each triple touching a subject s is a neighbour (s itself for a self-loop).
    far = (subjects[ts] + objects[ts] - np.repeat(own, sizes)).tolist()

    def draws(e: Triple, s: int, nbrs: set[int]) -> Iterator[tuple[Triple, bool]]:
        tries = min(100, n - len(nbrs) - (s not in nbrs))
        tried: set[int] = set()
        while len(tried) < tries:
            v3 = rng.randrange(n)
            if v3 == s or v3 in nbrs or v3 in tried:
                continue
            tried.add(v3)
            yield Triple(e.subject, e.relation, g.entity_order[v3]), False

    for e, s, end, size in zip(targets, own.tolist(), ends.tolist(), sizes.tolist()):
        yield draws(e, s, set(far[end - size : end]))


def _replace_each(
    method: str, targets: list[Triple], candidates: Iterable[Iterator[tuple[Triple, bool]]]
) -> list[EditRecord]:
    """Replace each target, in order, by the first of its candidates (the
    iterator at the same place in ``candidates``, each candidate with
    whether it is in the original graph) that is not present after the
    edits so far; a target with none left is logged as skipped."""
    edited = _EditedTriples()
    log: list[EditRecord] = []
    for e, options in zip(targets, candidates):
        replacement = next((c for c, in_g in options if not edited.has(c, in_g)), None)
        if replacement is None:
            log.append(EditRecord(method + _SKIP_SUFFIX, e, e))
            continue
        edited.replace(e, replacement)
        log.append(EditRecord(method, e, replacement))
    return log


def _edit_order(g: KnowledgeGraph, seed) -> tuple[np.ndarray, tuple, bool]:
    """The positions of ``g.triples`` shuffled by ``random.Random(seed)``,
    the generator's state after the shuffle, and whether both came from
    the graph's memo.

    The shuffle depends only on the triples and the seed, so one order
    serves every method and level.  For an ``int`` seed it is kept in a
    dict in ``vars(g)``, as ``cached_property`` keeps its values, which
    leaves ``==`` and ``hash`` alone: |T| positions (8 bytes each) and
    one generator state per seed, freed with the graph.
    """
    memo = vars(g).setdefault("_edit_orders", {}) if type(seed) is int else {}
    reused = seed in memo
    if not reused:
        rng = random.Random(seed)
        order = list(range(len(g.triples)))
        rng.shuffle(order)
        positions = np.fromiter(order, np.intp, len(order))
        positions.flags.writeable = False
        memo[seed] = positions, rng.getstate()
    return (*memo[seed], reused)


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
    replayed on ``g``.  A DEBUG line counts the targets and the applied and
    skipped edits, and says whether the edit order was drawn or reused.
    """
    if replace_mode not in REPLACE_MODES:
        raise ValueError(f"unknown replace mode {replace_mode!r}")
    n = len(g.triples)
    if spec.method == METHOD_RELATION_SWAP:  # disjoint pairs from the front of the order
        count = 2 * min(round_half_up(spec.level * n / 2.0), n // 2)
    else:
        count = round_half_up(spec.level * n)
    if not count:
        # Every method's log is empty and nothing would read the generator,
        # so the shuffle is skipped.
        log, source = [], "not needed"
    else:
        order, state, reused = _edit_order(g, spec.seed)
        source = "reused" if reused else "drawn"
        picked = order[:count]
        targets = list(_gather(g.triples, picked))
        if spec.method == METHOD_RELATION_SWAP:
            log = _relation_swap(g, picked, targets)
        elif spec.method == METHOD_EDGE_DELETE:
            log = [EditRecord(METHOD_EDGE_DELETE, e, None) for e in targets]
        elif spec.method == METHOD_EDGE_REWIRE:
            rng = random.Random()
            rng.setstate(state)  # where the shuffle left the generator
            log = _replace_each(spec.method, targets, _rewire_candidates(g, rng, picked, targets))
        else:
            if scorer is None:
                scorer = fit_baseline_scorer(g)
            sign = 1.0 if replace_mode == REPLACE_LEAST_PLAUSIBLE else -1.0
            log = _replace_each(spec.method, targets, _relation_options(g, scorer, sign, picked, targets))
    if logger.isEnabledFor(logging.DEBUG):
        skipped = sum(rec.skipped for rec in log)
        logger.debug(
            "perturb %s level=%s seed=%s: %d targets, %d edits applied, %d skipped; edit order %s",
            spec.method, spec.level, spec.seed, count, len(log) - skipped, skipped, source,
        )
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
    order and index and inherits its id arrays and, once ``g`` has counted
    it, its triangle state patched through the log
    (:meth:`KnowledgeGraph._spliced`), so only the log's triples are looked
    up by string.  A DEBUG line counts the triples removed, added,
    and dropped because they were already present.
    """
    applied = [rec for rec in edit_log if not rec.skipped]
    removed = list({rec.before for rec in applied})
    added = sorted({rec.after for rec in applied if rec.after is not None})
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
