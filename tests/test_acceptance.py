"""Acceptance gate: eleven numbered end-to-end criteria.

Each criterion is one test named ``test_criterion_NN_*`` so that
``pytest -v`` emits exactly one pass/fail line per criterion; each test
additionally prints a ``[criterion NN] ... PASS`` line (visible with
``-s`` or in captured output) once its assertions all hold.
"""

from __future__ import annotations

import json
import math
import random
import re
import time
from contextlib import contextmanager

import numpy as np
import pytest

from kgr.cli import main
from kgr.graph import KnowledgeGraph
from kgr.ingest import parse_triples, serialize
from kgr.metrics import ats, compare, sc2d, sd2
from kgr.perturb import (
    METHODS,
    PerturbationSpec,
    perturb,
    round_half_up,
)
from kgr.ppr import PprConfig, personalized_pagerank
from kgr.relevance import assign_prizes, prize_for_rank, rank_graph_elements
from kgr.retrieval import (
    brute_force_best_path,
    brute_force_best_subgraph,
    retrieve_paths,
    retrieve_subgraph_pcst,
    retrieve_triplets,
)
from kgr.textgen import PromptTemplate
from conftest import echo_generation_behavior, random_graph
from test_ppr import solve_ppr_dense
from test_retrieval import assert_connected, random_prizes


@contextmanager
def criterion(number: int, title: str):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    print(f"[criterion {number:2d}] {title}: PASS ({elapsed:.2f}s)")


def test_criterion_01_ppr_matches_linear_solve():
    with criterion(1, "power iteration agrees with a dense linear solve"):
        start = time.perf_counter()
        rng = random.Random(11)
        for i in range(25):
            g = random_graph(rng, rng.randint(2, 12), rng.randint(1, 24))
            seeds = rng.sample(sorted(g.entities), rng.randint(1, 3))
            alpha = 0.5 if i % 2 == 0 else 0.85
            config = PprConfig(alpha=alpha, tol=1e-12, max_iter=500)
            scores = personalized_pagerank(g, seeds, config).scores
            expected = solve_ppr_dense(g, seeds, alpha)
            l1 = sum(abs(scores[e] - expected[e]) for e in g.entities)
            assert l1 <= 1e-6

        cycle = KnowledgeGraph.from_triples([("A", "r", "B"), ("B", "r", "A")])
        result = personalized_pagerank(cycle, ["A"], PprConfig(alpha=0.5, tol=1e-12))
        assert result.scores["A"] == pytest.approx(2.0 / 3.0, abs=1e-9)
        assert result.scores["B"] == pytest.approx(1.0 / 3.0, abs=1e-9)
        assert time.perf_counter() - start < 1.0


def test_criterion_02_ppr_mass_and_convergence():
    with criterion(2, "scores sum to 1 and converge within the defaults"):
        rng = random.Random(13)
        fixtures = [random_graph(rng, rng.randint(3, 15), rng.randint(2, 30)) for _ in range(8)]
        # Guaranteed dangling mass: a sink chain and an isolated entity.
        fixtures.append(
            KnowledgeGraph.from_triples(
                [("a", "r", "b"), ("b", "r", "sink")], extra_entities=["island"]
            )
        )
        for g in fixtures:
            seeds = sorted(g.entities)[:2]
            result = personalized_pagerank(g, seeds)  # alpha .85, tol 1e-6, 100 iters
            assert result.converged
            assert result.iterations_used <= 100
            assert sum(result.scores.values()) == pytest.approx(1.0, abs=1e-6)


def test_criterion_03_prize_formula_exhaustive():
    with criterion(3, "rank prize is max(0, k - rank + 1)"):
        for k in (1, 3, 10):
            for rank in range(1, 2 * k + 1):
                assert prize_for_rank(rank, k) == max(0, k - rank + 1)


def test_criterion_04_path_retrieval_matches_oracle():
    with criterion(4, "top-1 path equals the exhaustive simple-path optimum"):
        start = time.perf_counter()
        rng = random.Random(17)
        for _ in range(100):
            g = random_graph(rng, rng.randint(2, 8), rng.randint(1, 16))
            prizes = random_prizes(rng, g, cost=rng.choice([0.5, 1.0, 2.0]))
            # All nodes serve as starts so the search space covers every
            # simple path the oracle enumerates.
            top = retrieve_paths(
                g, prizes, start_count=len(g.entities), max_len=4, result_count=1
            )[0]
            oracle = brute_force_best_path(g, prizes, max_len=4)
            assert top.score == pytest.approx(oracle.score, abs=1e-9)
        assert time.perf_counter() - start < 10.0


def test_criterion_05_pcst_quality_gate():
    with criterion(5, "subgraph heuristic within 0.9 of optimum, connected"):
        start = time.perf_counter()
        rng = random.Random(19)
        for _ in range(50):
            g = random_graph(rng, rng.randint(2, 10), rng.randint(1, 20))
            prizes = random_prizes(rng, g, cost=rng.choice([0.5, 1.0, 2.0]))
            got = retrieve_subgraph_pcst(g, prizes)
            opt = brute_force_best_subgraph(g, prizes)
            assert got.score >= 0.9 * opt.score - 1e-9
            assert got.score <= opt.score + 1e-9
            assert_connected(got.subgraph)
        assert time.perf_counter() - start < 30.0


def test_criterion_06_perturbation_contracts():
    with criterion(6, "edge counts, entity preservation, determinism"):
        g = random_graph(random.Random(23), 12, 24, n_relations=4)
        n = len(g.triples)
        for method in METHODS:
            for level in (0.0, 0.1, 0.5, 1.0):
                for seed in range(10):
                    spec = PerturbationSpec(method, level, seed)
                    result = perturb(g, spec)
                    expected = (
                        n - round_half_up(level * n)
                        if method == "edge_delete"
                        else n
                    )
                    assert len(result.graph.triples) == expected
                    assert result.graph.entities == g.entities
                    assert perturb(g, spec) == result


def test_criterion_07_metric_endpoints_and_bounds():
    with criterion(7, "identity metrics are 1, full deletion drives ats to 0"):
        rng = random.Random(29)
        for _ in range(10):
            g = random_graph(rng, rng.randint(4, 12), rng.randint(3, 20))
            assert ats(g, g) == 1.0
            assert sc2d(g, g) == 1.0
            assert sd2(g, g) == 1.0
            wiped = perturb(g, PerturbationSpec("ed", 1.0, 0)).graph
            assert ats(g, wiped) == 0.0

        for trial in range(1000):
            g = random_graph(rng, rng.randint(3, 10), rng.randint(2, 18))
            spec = PerturbationSpec(
                method=rng.choice(METHODS), level=rng.random(), seed=trial
            )
            report = compare(g, perturb(g, spec).graph)
            assert 0.0 <= report.ats <= 1.0
            assert 0.0 <= report.sc2d <= 1.0
            assert 0.0 <= report.sd2 <= 1.0


def test_criterion_08_relation_swap_sd2_invariance():
    with criterion(8, "relation swaps leave sd2 at exactly 1"):
        for seed in range(10):
            g = random_graph(random.Random(900 + seed), 10, 22, n_relations=4)
            for level in (0.2, 0.6, 1.0):
                perturbed = perturb(g, PerturbationSpec("rs", level, seed)).graph
                assert sd2(g, perturbed) == 1.0


def _overlap_after(g, baseline, question, spec):
    perturbed = perturb(g, spec).graph
    ranked_nodes, ranked_edges = rank_graph_elements(perturbed, question)
    prizes = assign_prizes(ranked_nodes, ranked_edges)
    retrieved = retrieve_triplets(perturbed, prizes).retrieved_triples()
    if not baseline and not retrieved:
        return 1.0
    return len(baseline & retrieved) / len(baseline | retrieved)


def test_criterion_09_retrieval_overlap_degrades_monotonically():
    with criterion(9, "mean retrieval overlap never rises with the level"):
        g = random_graph(random.Random(31), 30, 60, n_relations=5)
        question = "what connects e0 e3 e7 and e12"
        ranked_nodes, ranked_edges = rank_graph_elements(g, question)
        baseline = retrieve_triplets(
            g, assign_prizes(ranked_nodes, ranked_edges)
        ).retrieved_triples()
        levels = (0.0, 0.25, 0.5, 0.75, 1.0)
        for method in ("ed", "er"):
            means = []
            for level in levels:
                vals = [
                    _overlap_after(
                        g, baseline, question, PerturbationSpec(method, level, seed)
                    )
                    for seed in range(20)
                ]
                means.append(sum(vals) / len(vals))
            inversions = [
                later - earlier
                for earlier, later in zip(means, means[1:])
                if later > earlier
            ]
            assert len(inversions) <= 1, (method, means)
            assert all(up <= 0.02 for up in inversions), (method, means)


def test_criterion_10_round_trip_and_sweep_determinism(tmp_path):
    with criterion(10, "serialize/parse fixed point and byte-stable sweeps"):
        rng = random.Random(37)
        for _ in range(100):
            base = random_graph(rng, rng.randint(2, 15), rng.randint(1, 30))
            g = KnowledgeGraph.from_triples(base.triples)  # triple-supported
            text = serialize(g)
            assert parse_triples(text) == g
            assert serialize(parse_triples(text)) == text

        graph_path = tmp_path / "g.tsv"
        graph_path.write_text(serialize(random_graph(rng, 12, 24)), encoding="utf-8")
        queries_path = tmp_path / "q.jsonl"
        queries_path.write_text(
            json.dumps({"id": "q1", "question": "about e0 and e2", "seeds": ["e0"]})
            + "\n",
            encoding="utf-8",
        )
        outputs = []
        for run in ("one", "two"):
            out_dir = tmp_path / run
            code = main(
                [
                    "sweep",
                    "--graph",
                    str(graph_path),
                    "--queries",
                    str(queries_path),
                    "--methods",
                    "ed,rs",
                    "--levels",
                    "0.0,0.5,1.0",
                    "--num-seeds",
                    "2",
                    "--seed",
                    "7",
                    "--out",
                    str(out_dir),
                ]
            )
            assert code == 0
            outputs.append(
                (
                    (out_dir / "records.jsonl").read_bytes(),
                    (out_dir / "curves.csv").read_bytes(),
                )
            )
        assert outputs[0] == outputs[1]


def test_criterion_11_hermetic_pipeline(tmp_path, mock_service):
    with criterion(11, "extract -> retrieve -> generate under five seconds"):
        g = random_graph(random.Random(41), 120, 500, n_relations=6)
        assert len(g.triples) == 500
        graph_path = tmp_path / "g.tsv"
        graph_path.write_text(serialize(g), encoding="utf-8")
        queries = [
            {"id": "q1", "question": "how does e0 relate to e17", "seeds": ["e0", "e17"]},
            {"id": "q2", "question": "what surrounds e55", "seeds": ["e55"]},
            {"id": "q3", "question": "links between e80 and e99", "seeds": ["e80", "e99"]},
        ]
        queries_path = tmp_path / "q.jsonl"
        queries_path.write_text(
            "".join(json.dumps(q) + "\n" for q in queries), encoding="utf-8"
        )
        svc = mock_service(echo_generation_behavior)

        start = time.perf_counter()
        sub_dir = tmp_path / "subgraphs"
        assert (
            main(
                [
                    "extract",
                    "--graph",
                    str(graph_path),
                    "--queries",
                    str(queries_path),
                    "--out",
                    str(sub_dir),
                ]
            )
            == 0
        )
        retrieved_path = tmp_path / "retrieved.jsonl"
        assert (
            main(
                [
                    "retrieve",
                    "--graph-dir",
                    str(sub_dir),
                    "--queries",
                    str(queries_path),
                    "--variant",
                    "triplets",
                    "--out",
                    str(retrieved_path),
                ]
            )
            == 0
        )
        answers_path = tmp_path / "answers.jsonl"
        assert (
            main(
                [
                    "generate",
                    "--retrieved",
                    str(retrieved_path),
                    "--gen-url",
                    svc.url,
                    "--backoff",
                    "0.01",
                    "--out",
                    str(answers_path),
                ]
            )
            == 0
        )
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"pipeline took {elapsed:.2f}s"

        template = PromptTemplate.default()
        with open(answers_path, encoding="utf-8") as fh:
            answers = [json.loads(line) for line in fh if line.strip()]
        assert [a["id"] for a in answers] == ["q1", "q2", "q3"]
        for record, query in zip(answers, queries):
            prompt = record["prompt"]
            # Prompt shape: system preamble, question echoed verbatim,
            # fact lines rendered as (subject, relation, object), and a
            # trailing answer cue.
            assert prompt.startswith(template.system_text)
            assert query["question"] in prompt
            assert re.search(r"^\(\S+, \S+, \S+\)$", prompt, flags=re.MULTILINE)
            assert prompt.rstrip().endswith("Answer:")
            assert record["answer"].startswith("ECHO[")
            assert record["model_id"] == "echo-mock"
