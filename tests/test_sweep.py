"""The sweep grid and the shared retrieval chain, called as library functions."""

from __future__ import annotations

import datetime as dt
import json
import random

import numpy as np
import pytest

import kgr.sweep
from kgr.cli import main
from kgr.graph import KnowledgeGraph
from kgr.ingest import serialize
from kgr.metrics import compare, fit_baseline_scorer
from kgr.perturb import METHODS, REPLACE_LEAST_PLAUSIBLE, REPLACE_MODES, PerturbationSpec, perturb
from kgr.relevance import HashedBagEmbedder, assign_prizes, rank_graph_elements
from kgr.retrieval import retrieve
from kgr.sweep import retrieve_for_question, run_sweep
from conftest import fit_dict_scorer, orphan_labels, random_graph
from test_metrics import reference_mean_relation_clustering, reference_mean_relation_degree
from test_perturb import sequential_reference
from test_relevance import reference_rank_graph_elements
from test_retrieval import tuple_keyed_pcst

QUERIES = [
    {"id": "q1", "question": "what links e0 and e3", "seeds": ["e0", "e3"]},
    {"id": "q2", "question": "tell me about e5", "seeds": ["e5"]},
]
CLI_SETTINGS = {
    "variant": "subgraph", "k": 8, "edge_cost": 0.5, "n": None,
    "start_count": 5, "max_len": 4, "directed_only": False,
}


@pytest.fixture
def graph():
    return random_graph(random.Random(4242), 14, 30, n_relations=4)


def grid(g, **overrides):
    kwargs = dict(
        methods=["ed", "rs"], levels=[0.0, 0.5], num_seeds=2, root_seed=9,
        replace_mode=REPLACE_LEAST_PLAUSIBLE,
    )
    kwargs.update(overrides)
    return run_sweep(g, QUERIES, **kwargs)


def test_records_and_curves_match_the_cli_files(graph, tmp_path):
    (tmp_path / "g.tsv").write_text(serialize(graph), encoding="utf-8")
    (tmp_path / "q.jsonl").write_text("".join(json.dumps(q) + "\n" for q in QUERIES))
    argv = [
        "sweep", "--graph", str(tmp_path / "g.tsv"), "--queries", str(tmp_path / "q.jsonl"),
        "--methods", "ed,rs", "--levels", "0.0,0.5", "--num-seeds", "2", "--seed", "9",
        "--variant", "subgraph", "--k", "8", "--edge-cost", "0.5", "--out", str(tmp_path / "out"),
    ]
    assert main(argv) == 0
    records, curves, meta = grid(graph, settings=CLI_SETTINGS)
    jsonl = "".join(json.dumps(r, sort_keys=True, separators=(",", ":")) + "\n" for r in records)
    assert jsonl == (tmp_path / "out" / "records.jsonl").read_text(encoding="utf-8")
    assert "\n".join(curves) + "\n" == (tmp_path / "out" / "curves.csv").read_text()
    written = json.loads((tmp_path / "out" / "meta.json").read_text())
    assert set(meta) == set(written)
    assert meta["skipped_edits"] == written["skipped_edits"]
    assert meta["cells"] == len(records) - 1 == 2 * 2 * 2


def test_cells_match_a_direct_recomputation(graph):
    records = grid(graph, settings=CLI_SETTINGS)[0]
    scorer = fit_baseline_scorer(graph)

    def retrieved(g, question):
        nodes, edges = rank_graph_elements(g, question)
        prizes = assign_prizes(nodes, edges, k=8, edge_cost=0.5)
        return retrieve(g, prizes, variant="subgraph").retrieved_triples()

    for cell in records[1:]:
        spec = PerturbationSpec(cell["method"], cell["level"], cell["seed"])
        damaged = perturb(graph, spec, scorer=scorer).graph
        report = compare(graph, damaged, scorer)
        assert (cell["ats"], cell["sc2d"], cell["sd2"]) == (report.ats, report.sc2d, report.sd2)
        for q, got in zip(QUERIES, cell["per_query"]):
            a, b = retrieved(graph, q["question"]), retrieved(damaged, q["question"])
            assert got == {"id": q["id"], "overlap": len(a & b) / len(a | b) if a | b else 1.0}


def test_meta_times_the_run_from_its_start(graph):
    before = dt.datetime.now(dt.timezone.utc)
    meta = grid(graph)[2]
    after = dt.datetime.now(dt.timezone.utc)
    # Stamped when the run begins, so within the first half of the call.
    assert before <= dt.datetime.fromisoformat(meta["started_utc"]) <= before + (after - before) / 2


def test_header_echoes_the_settings_given(graph):
    header = grid(graph, settings={"variant": "paths", "k": 4, "n": 3})[0][0]
    assert header["methods"] == ["edge_delete", "relation_swap"]
    assert (header["variant"], header["prize_k"], header["n"]) == ("paths", 4, 3)
    assert "k" not in header and "max_len" not in header
    assert "variant" not in grid(graph)[0][0]


def test_omitted_settings_take_the_library_defaults(graph):
    explicit = grid(graph, settings={"k": 15, "edge_cost": 1.0, "variant": "triplets"})
    implicit = grid(graph)
    assert explicit[0][1:] == implicit[0][1:]
    assert explicit[1] == implicit[1]


@pytest.mark.parametrize(
    "overrides",
    [
        {"methods": []},
        {"levels": []},
        {"num_seeds": 0},
        {"levels": [0.0, 1.5]},
        {"methods": ["ed", "melt"]},
        {"methods": ["ed", "rr"], "replace_mode": "bogus"},
    ],
)
def test_bad_grid_raises_before_any_cell(graph, overrides, monkeypatch):
    monkeypatch.setattr("kgr.sweep.perturb", None)  # no cell may run
    with pytest.raises(ValueError):
        grid(graph, **overrides)


def test_repeated_query_ids_raise_before_any_cell(graph, monkeypatch):
    # Each cell compares a question with the baseline of its id.
    monkeypatch.setattr("kgr.sweep.perturb", None)  # no cell may run
    with pytest.raises(ValueError, match="query ids must be unique"):
        run_sweep(graph, [QUERIES[0], {**QUERIES[1], "id": "q1"}], methods=["ed"], levels=[0.1],
                  num_seeds=1, root_seed=9, replace_mode=REPLACE_LEAST_PLAUSIBLE)


def test_graph_without_triples_raises():
    with pytest.raises(ValueError, match="no triples"):
        grid(KnowledgeGraph.from_triples([], extra_entities=["e0"]))


@pytest.mark.parametrize(
    "settings, prize_kwargs, retrieve_kwargs",
    [
        ({}, {}, {}),
        ({"k": 5, "edge_cost": 0.3, "variant": "subgraph"}, {"k": 5, "edge_cost": 0.3},
         {"variant": "subgraph"}),
        ({"variant": "paths", "n": 2, "max_len": 2, "directed_only": True}, {},
         {"variant": "paths", "n": 2, "max_len": 2, "directed_only": True}),
    ],
)
def test_retrieve_for_question_is_the_rank_prize_retrieve_chain(
    graph, settings, prize_kwargs, retrieve_kwargs
):
    question = QUERIES[0]["question"]
    nodes, edges = rank_graph_elements(graph, question)
    expected = retrieve(graph, assign_prizes(nodes, edges, **prize_kwargs), **retrieve_kwargs)
    assert retrieve_for_question(graph, question, HashedBagEmbedder(), settings) == expected


class Unmemoized:
    """One fallback embedder behind a provider that is no
    ``HashedBagEmbedder``: the sweep treats it as it treats a service."""

    def __init__(self):
        self.inner = HashedBagEmbedder()

    def embed(self, texts):
        return self.inner.embed(texts)


def complete_graph():
    """Every entity is a neighbour of every other: no rewire has a target."""
    nodes = [f"e{i}" for i in range(5)]
    return KnowledgeGraph.from_triples(
        (u, f"r{(i + j) % 2}", v) for i, u in enumerate(nodes) for j, v in enumerate(nodes) if u != v
    )


def unchanged_cells(g, records):
    return sum(
        perturb(g, PerturbationSpec(c["method"], c["level"], c["seed"])).graph == g
        for c in records[1:]
    )


FULL_GRID = dict(methods=list(METHODS), levels=[0.0, 0.1, 1.0])


def reference_sweep(g, header, settings, methods, levels):
    """``run_sweep``'s records and curves, every cell ranked afresh: a new
    fallback embedder per ranking, no similarity memo, no reuse."""
    scorer = fit_baseline_scorer(g)

    def retrieved(graph, question):
        return retrieve_for_question(graph, question, HashedBagEmbedder(), settings).retrieved_triples()

    baseline = {q["id"]: retrieved(g, q["question"]) for q in QUERIES}
    records, curves = [header], ["method,level,mean_ats,mean_sc2d,mean_sd2,mean_retrieval_overlap,seeds_used"]
    for method in methods:
        for level in levels:
            cells = []
            for seed in sorted(header["cell_seeds"]):
                damaged = perturb(g, PerturbationSpec(method, level, seed), scorer=scorer).graph
                report = compare(g, damaged, scorer)
                per_query = []
                for q in QUERIES:
                    a, b = baseline[q["id"]], retrieved(damaged, q["question"])
                    per_query.append({"id": q["id"], "overlap": len(a & b) / len(a | b) if a | b else 1.0})
                overlap = sum(p["overlap"] for p in per_query) / len(per_query)
                cells.append({"method": method, "level": level, "seed": seed, "ats": report.ats,
                              "sc2d": report.sc2d, "sd2": report.sd2, "retrieval_overlap": overlap,
                              "per_query": per_query})
            means = [sum(c[key] for c in cells) / len(cells) for key in ("ats", "sc2d", "sd2", "retrieval_overlap")]
            curves.append(",".join([method, repr(level), *map(repr, means), str(len(cells))]))
            records.extend(cells)
    return records, curves


@pytest.mark.parametrize("make_graph", [lambda: random_graph(random.Random(4242), 14, 30, 4), complete_graph])
def test_memo_and_reuse_leave_records_and_curves_unchanged(make_graph):
    g = make_graph()
    for provider in (HashedBagEmbedder(), Unmemoized()):
        records, curves, meta = grid(g, settings=CLI_SETTINGS, provider=provider, **FULL_GRID)
        expected = reference_sweep(g, records[0], CLI_SETTINGS, **FULL_GRID)
        jsonl = [json.dumps(r, sort_keys=True, separators=(",", ":")) for r in records]
        assert jsonl == [json.dumps(r, sort_keys=True, separators=(",", ":")) for r in expected[0]]
        assert curves == expected[1]
        assert meta["failed_cells"] == 0
        # Every level-0.0 cell reuses the baseline, and so does a cell whose
        # edits were all skipped (each edge_rewire cell of the complete graph).
        reused = unchanged_cells(g, records)
        assert meta["reused_cells"] == reused >= 4 * 2 + (4 if make_graph is complete_graph else 0)
        assert meta["similarity_hits"] > 0 < meta["similarity_misses"]


def test_a_pure_sweep_ranks_the_baseline_and_changed_cells_only(graph, monkeypatch):
    calls = []
    rank = kgr.sweep.rank_graph_elements

    def counted(g, query, *args):
        calls.append((g, query))
        return rank(g, query, *args)

    monkeypatch.setattr(kgr.sweep, "rank_graph_elements", counted)
    records, _, meta = grid(graph, **FULL_GRID)
    changed = len(records) - 1 - unchanged_cells(graph, records)
    assert 0 < changed < len(records) - 1
    assert len(calls) == len(QUERIES) * (1 + changed)
    assert calls[: len(QUERIES)] == [(graph, q["question"]) for q in QUERIES]
    assert all(g != graph for g, _ in calls[len(QUERIES):])
    assert meta["reused_cells"] == len(records) - 1 - changed
    calls.clear()
    records, _, meta = grid(graph, provider=Unmemoized(), **FULL_GRID)
    assert len(calls) == len(QUERIES) * (1 + changed)  # any provider reuses the baseline
    assert meta["reused_cells"] == len(records) - 1 - changed


def test_unchanged_cells_reuse_one_compare_report(graph, monkeypatch):
    # The orphan label counts in the relation-averaged vectors, so a report
    # reused for unchanged cells is right only if perturbed graphs keep it.
    g = KnowledgeGraph.from_triples(graph.triples, extra_entities=graph.entities, extra_relations=["orphan"])
    calls = []
    measure = kgr.sweep.compare

    def counted(g, g_prime, scorer):
        calls.append(g_prime)
        return measure(g, g_prime, scorer)

    monkeypatch.setattr(kgr.sweep, "compare", counted)
    records, _, _ = grid(g, **FULL_GRID)
    unchanged = unchanged_cells(g, records)
    assert unchanged >= 4
    assert len(calls) == len(records) - 1 - unchanged + 1
    scorer = fit_baseline_scorer(g)
    for cell in records[1:]:
        damaged = perturb(g, PerturbationSpec(cell["method"], cell["level"], cell["seed"])).graph
        report = measure(g, damaged, scorer)
        assert (cell["ats"], cell["sc2d"], cell["sd2"]) == (report.ats, report.sc2d, report.sd2)
        if damaged == g:
            assert (report.ats, report.sc2d, report.sd2) == (1.0, 1.0, 1.0)


def string_reference_sweep(g, queries, methods, levels, num_seeds, root_seed, mode, settings):
    """The sweep grid's records and curves from the string-level references
    alone: each cell's damaged graph is its method applied one edit at a
    time to a triple set, scored by a dict-keyed scorer and per-relation
    loops, and retrieval ranks, prizes and retrieves on strings.  Nothing
    is read from a graph's id arrays."""
    seeds = [int(x) for x in np.random.SeedSequence(root_seed).generate_state(num_seeds, dtype=np.uint32)]
    scorer = fit_dict_scorer(g)

    def similarity(a, b):
        d = float(np.linalg.norm(a - b))
        return 1.0 - d / (d + 1.0)

    def retrieved(graph, question):
        nodes, edges = reference_rank_graph_elements(graph, question)
        prizes = assign_prizes(nodes, edges, k=settings["k"], edge_cost=settings["edge_cost"])
        if settings["variant"] == "subgraph":
            return set(tuple_keyed_pcst(graph, prizes).subgraph.triples)
        node = prizes.node_prize
        gain = {t: node(t.subject) + node(t.object) + prizes.edge_prize(t) for t in graph.triples}
        return set(sorted(graph.triples, key=lambda t: (-gain[t], t))[: prizes.k])

    baseline = {q["id"]: retrieved(g, q["question"]) for q in queries}
    header = {
        "record_type": "header", "root_seed": root_seed, "cell_seeds": seeds, "methods": list(methods),
        "levels": list(levels), "num_seeds": num_seeds, "query_count": len(queries),
        "variant": settings["variant"], "prize_k": settings["k"], "edge_cost": settings["edge_cost"],
    }
    records, curves = [header], ["method,level,mean_ats,mean_sc2d,mean_sd2,mean_retrieval_overlap,seeds_used"]
    keys = ("ats", "sc2d", "sd2", "retrieval_overlap")
    for method in methods:
        for level in levels:
            cells = []
            for seed in sorted(seeds):
                triples, _ = sequential_reference(g, method, level, seed, mode)
                damaged = KnowledgeGraph.from_triples(
                    triples, extra_entities=g.entities, extra_relations=orphan_labels(g)
                )
                total = 0.0
                for t in damaged.triples:  # added left to right
                    total += scorer.score(*t)
                per_query = []
                for q in queries:
                    a, b = baseline[q["id"]], retrieved(damaged, q["question"])
                    per_query.append({"id": q["id"], "overlap": len(a & b) / len(a | b) if a | b else 1.0})
                cells.append({
                    "method": method, "level": level, "seed": seed,
                    "ats": total / len(damaged.triples) if damaged.triples else 0.0,
                    "sc2d": similarity(
                        reference_mean_relation_clustering(g), reference_mean_relation_clustering(damaged)
                    ),
                    "sd2": similarity(reference_mean_relation_degree(g), reference_mean_relation_degree(damaged)),
                    "retrieval_overlap": sum(p["overlap"] for p in per_query) / len(per_query),
                    "per_query": per_query,
                })
            means = [sum(c[key] for c in cells) / len(cells) for key in keys]
            curves.append(",".join([method, repr(level), *map(repr, means), str(len(cells))]))
            records.extend(cells)
    return records, curves


@pytest.mark.parametrize("variant", ["subgraph", "triplets"])
@pytest.mark.parametrize("mode", REPLACE_MODES)
def test_the_sweep_matches_its_string_level_reference(graph, variant, mode):
    # An orphan label counts in the relation-averaged vectors.
    g = KnowledgeGraph.from_triples(graph.triples, extra_entities=graph.entities, extra_relations=["orphan"])
    assert len(g.entities) == 14
    settings = {"variant": variant, "k": 8, "edge_cost": 0.5}
    grid_args = dict(methods=list(METHODS), levels=[0.0, 0.1, 1.0], num_seeds=2, root_seed=9)
    records, curves, meta = run_sweep(g, QUERIES, **grid_args, replace_mode=mode, settings=settings)
    assert meta["failed_cells"] == 0
    expected_records, expected_curves = string_reference_sweep(g, QUERIES, **grid_args, mode=mode, settings=settings)
    assert records == expected_records
    assert curves == expected_curves
