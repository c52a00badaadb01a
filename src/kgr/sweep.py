"""The OKGQA-P robustness grid as a library function.

Each cell perturbs the graph with one seeded method at one level, scores
the damage (``ats``, ``sc2d``, ``sd2``) and sends every question through
the same rank -> prize -> retrieve chain as on the original graph; the
cell's retrieval overlap is the mean Jaccard similarity of the retrieved
triple sets.  :func:`run_sweep` returns the records, the curve rows and
the run metadata and writes nothing; ``kgr sweep`` writes them to disk.
"""

from __future__ import annotations

import datetime as _dt
import functools
import logging
import time
from collections import Counter
from typing import Sequence

import numpy as np

from .graph import KnowledgeGraph
from .metrics import compare, fit_baseline_scorer
from .perturb import REPLACE_MODES, PerturbationSpec, normalize_method, perturb
from .relevance import HashedBagEmbedder, assign_prizes, rank_graph_elements
from .retrieval import RetrievedKnowledge, retrieve

logger = logging.getLogger(__name__)

_PRIZE_KEYS = ("k", "edge_cost")
_METRICS = ("ats", "sc2d", "sd2", "retrieval_overlap")


def retrieve_for_question(
    g: KnowledgeGraph, question: str, provider=None, settings: dict | None = None, similarities=None
) -> RetrievedKnowledge:
    """Rank ``g`` against ``question``, assign prizes and retrieve.

    ``settings`` passes ``k`` and ``edge_cost`` to :func:`assign_prizes`
    and every other key (``variant``, ``n``, ``start_count``, ``max_len``,
    ``directed_only``) to :func:`retrieve`; a key left out takes that
    function's default; ``similarities`` goes to :func:`rank_graph_elements`.
    """
    settings = settings or {}
    nodes, edges = rank_graph_elements(g, question, provider, similarities)
    prizes = assign_prizes(nodes, edges, **{k: settings[k] for k in _PRIZE_KEYS if k in settings})
    return retrieve(g, prizes, **{k: v for k, v in settings.items() if k not in _PRIZE_KEYS})


def _derive_seeds(root_seed: int, count: int) -> list[int]:
    """Split one root seed into ``count`` independent cell seeds."""
    state = np.random.SeedSequence(root_seed).generate_state(count, dtype=np.uint32)
    return [int(x) for x in state]


def _jaccard(a: set, b: set) -> float:
    if not a and not b:
        return 1.0
    return len(a & b) / len(a | b)


def run_sweep(
    g: KnowledgeGraph,
    queries: Sequence[dict],
    *,
    methods: Sequence[str],
    levels: Sequence[float],
    num_seeds: int,
    root_seed: int,
    replace_mode: str,
    settings: dict | None = None,
    provider=None,
) -> tuple[list[dict], list[str], dict]:
    """Run the method x level x seed grid; return ``(records, curves, meta)``.

    ``queries`` are ``{"id", "question"}`` dicts, ``replace_mode`` goes to
    :func:`perturb` and ``settings`` are the retrieval settings of
    :func:`retrieve_for_question`.  ``records`` is the header (run
    parameters and the settings as given, ``k`` recorded as ``prize_k``)
    followed by one record per cell, ordered by method, level and seed
    value; a cell that raises gets an ``error`` record instead of sinking
    the run.  ``curves`` are the CSV lines of per method x level means
    over the cells that succeeded, and ``meta`` holds timings, skipped
    edits per cell (None for a failed cell) and memo counters.  One embedder
    serves every ranking; without a ``provider`` it is a fresh memoizing
    fallback.  Each question keeps one similarity memo across the grid, so
    the provider embeds only the elements a cell's graph added; a cell
    whose damaged graph equals ``g`` reuses one ``compare(g, g)`` report
    and the baseline retrieval.  A provider is therefore taken to embed a
    text the same way every time.  Raises ``ValueError`` for an empty grid,
    a bad method, level or replace mode, repeated query ids, or a graph
    without triples.
    """
    methods = [normalize_method(m) for m in methods]
    if replace_mode not in REPLACE_MODES:
        raise ValueError(f"unknown replace mode {replace_mode!r}")
    if not methods or not levels or not queries:
        raise ValueError("queries, methods and levels must be non-empty")
    if num_seeds < 1:
        raise ValueError("num_seeds must be >= 1")
    if len({q["id"] for q in queries}) != len(queries):
        raise ValueError("query ids must be unique")
    if not g.triples:
        raise ValueError("graph has no triples; nothing to perturb")
    settings = settings or {}
    provider = provider or HashedBagEmbedder()
    memos: dict[str, dict] = {}
    counts: Counter = Counter()
    cell_seeds = _derive_seeds(root_seed, num_seeds)
    grid = [
        (m, lvl, [PerturbationSpec(m, lvl, seed) for seed in sorted(cell_seeds)])
        for m in methods
        for lvl in levels
    ]

    def retrieved(graph: KnowledgeGraph, q: dict) -> set:
        memo = memos.setdefault(q["question"], {})
        counts["ranked"] += len(graph.entities) + len(graph.triples)
        return retrieve_for_question(graph, q["question"], provider, settings, memo).retrieved_triples()

    started, started_utc = time.perf_counter(), _dt.datetime.now(_dt.timezone.utc)
    scorer = fit_baseline_scorer(g)
    baseline = {q["id"]: retrieved(g, q) for q in queries}
    unchanged_report = functools.cache(lambda: compare(g, g, scorer))

    def run_cell(spec: PerturbationSpec) -> tuple[dict, int | None]:
        """The cell's record and its skipped-edit count (None if it failed)."""
        cell = {"method": spec.method, "level": spec.level, "seed": spec.seed}
        try:
            pg = perturb(g, spec, scorer=scorer, replace_mode=replace_mode)
            # Equal triples and entities mean equal relations too: a perturbed
            # graph keeps g's orphan labels.
            same = pg.graph == g
            report = unchanged_report() if same else compare(g, pg.graph, scorer)
            counts["reused"] += same  # an unchanged graph retrieves the baseline
            per_query = []
            for q in queries:
                base = baseline[q["id"]]
                damaged = base if same else retrieved(pg.graph, q)
                per_query.append({"id": q["id"], "overlap": _jaccard(base, damaged)})
            overlap = sum(p["overlap"] for p in per_query) / len(per_query)
            cell.update(ats=report.ats, sc2d=report.sc2d, sd2=report.sd2,
                        retrieval_overlap=overlap, per_query=per_query)
            return cell, pg.skipped_edits
        except Exception as exc:  # cell failure must not sink the sweep
            logger.debug("sweep cell %s failed", spec, exc_info=True)
            return {**cell, "error": f"{type(exc).__name__}: {exc}"}, None

    header = {
        "record_type": "header",
        "root_seed": root_seed,
        "cell_seeds": cell_seeds,
        "methods": methods,
        "levels": list(levels),
        "num_seeds": num_seeds,
        "query_count": len(queries),
        **{("prize_k" if key == "k" else key): value for key, value in settings.items()},
    }
    records = [header]
    curves = ["method,level,mean_ats,mean_sc2d,mean_sd2,mean_retrieval_overlap,seeds_used"]
    cell_seconds: list[float] = []
    skipped_edits: list[int | None] = []
    for method, level, specs in grid:
        good = []
        for spec in specs:
            cell_start = time.perf_counter()
            record, skipped = run_cell(spec)
            cell_seconds.append(time.perf_counter() - cell_start)
            skipped_edits.append(skipped)
            records.append(record)
            if skipped is not None:
                good.append(record)
        if good:
            means = [sum(r[key] for r in good) / len(good) for key in _METRICS]
            curves.append(",".join([method, repr(level), *map(repr, means), str(len(good))]))

    memo_stats = getattr(provider, "memo_stats", {})
    misses = sum(map(len, memos.values()))  # each memo entry was embedded once
    meta = {
        "started_utc": started_utc.isoformat(),
        "wall_time_s": time.perf_counter() - started,
        "cells": len(cell_seconds),
        "failed_cells": skipped_edits.count(None),
        "cell_seconds": cell_seconds,
        "skipped_edits": skipped_edits,
        # Embedder memo counters; null for a provider without a memo.
        "embedded_texts": memo_stats.get("embedded"),
        "embed_cache_hits": memo_stats.get("hits"),
        # Similarity memo and baseline reuse.
        "similarity_hits": counts["ranked"] - misses,
        "similarity_misses": misses,
        "reused_cells": counts["reused"],
    }
    return records, curves, meta
