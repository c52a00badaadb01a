"""End-to-end subcommand tests driving ``kgr.cli.main`` in-process."""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import kgr
import kgr.sweep
from kgr.cli import main
from kgr.ingest import parse_triples, read_graph, serialize
from kgr.perturb import (
    PerturbationSpec,
    edit_log_to_jsonl,
    normalize_method,
    parse_edit_log,
    perturb,
    replay_edit_log,
)
from kgr.relevance import verbalize_element
from conftest import echo_generation_behavior, random_graph


@pytest.fixture
def graph_file(tmp_path):
    g = random_graph(random.Random(777), 12, 24, n_relations=4)
    path = tmp_path / "graph.tsv"
    path.write_text(serialize(g), encoding="utf-8")
    return str(path), g


@pytest.fixture
def queries_file(tmp_path):
    rows = [
        {"id": "q1", "question": "what links e0 and e3", "seeds": ["e0", "e3"]},
        {"id": "q2", "question": "tell me about e5", "seeds": ["e5"]},
    ]
    path = tmp_path / "queries.jsonl"
    path.write_text(
        "".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8"
    )
    return str(path)


def read_jsonl(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


class TestStats:
    def test_stdout_json(self, graph_file, capsys):
        path, g = graph_file
        assert main(["stats", "--graph", path]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["node_count"] == len(g.entities)
        assert stats["edge_count"] == len(g.triples)

    def test_out_file(self, graph_file, tmp_path):
        path, _ = graph_file
        out = tmp_path / "stats.json"
        assert main(["stats", "--graph", path, "--out", str(out)]) == 0
        assert "avg_degree" in json.loads(out.read_text())

    def test_missing_graph_is_config_error(self, tmp_path):
        assert main(["stats", "--graph", str(tmp_path / "nope.tsv")]) == 2

    def test_nt_format(self, tmp_path):
        nt = tmp_path / "g.nt"
        nt.write_text(
            "<http://x/a> <http://x/likes> <http://x/b> .\n", encoding="utf-8"
        )
        assert main(["stats", "--graph", str(nt), "--format", "nt"]) == 0


class TestExtract:
    def test_seeds_to_stdout(self, graph_file, capsys):
        path, g = graph_file
        assert main(["extract", "--graph", path, "--seeds", "e0", "--hops", "2"]) == 0
        sub = parse_triples(capsys.readouterr().out)
        assert sub.entities <= g.entities

    def test_queries_write_per_query_files(self, graph_file, queries_file, tmp_path):
        path, _ = graph_file
        out_dir = tmp_path / "subs"
        code = main(
            ["extract", "--graph", path, "--queries", queries_file, "--out", str(out_dir)]
        )
        assert code == 0
        assert (out_dir / "q1.tsv").is_file()
        assert (out_dir / "q2.tsv").is_file()

    def test_seeds_and_queries_are_mutually_exclusive(self, graph_file, queries_file):
        path, _ = graph_file
        args = ["extract", "--graph", path, "--seeds", "e0", "--queries", queries_file]
        assert main(args) == 2
        assert main(["extract", "--graph", path]) == 2

    def test_unknown_seed(self, graph_file):
        path, _ = graph_file
        assert main(["extract", "--graph", path, "--seeds", "ghost"]) == 2

    def test_unknown_seed_in_queries_writes_nothing(self, graph_file, tmp_path):
        path, _ = graph_file
        queries = tmp_path / "q.jsonl"
        queries.write_text(
            json.dumps({"id": "ok", "question": "x", "seeds": ["e0"]})
            + "\n"
            + json.dumps({"id": "bad", "question": "y", "seeds": ["ghost"]})
            + "\n",
            encoding="utf-8",
        )
        out_dir = tmp_path / "outs"
        code = main(
            ["extract", "--graph", path, "--queries", str(queries), "--out", str(out_dir)]
        )
        assert code == 2
        assert not (out_dir / "ok.tsv").exists()

    @pytest.mark.parametrize("qid", ["../escaped", "a/b", "a\\b", ".", ".."])
    def test_query_id_that_is_no_file_name_writes_nothing(self, graph_file, tmp_path, capsys, qid):
        path, _ = graph_file
        queries = tmp_path / "q.jsonl"
        row = {"id": qid, "question": "x", "seeds": ["e0"]}
        queries.write_text(json.dumps(row) + "\n", encoding="utf-8")
        out_dir = tmp_path / "outs"
        code = main(
            ["extract", "--graph", path, "--queries", str(queries), "--out", str(out_dir)]
        )
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {queries}:1: query id ")
        assert not out_dir.exists()
        assert not (tmp_path / "escaped.tsv").exists()

    def test_bad_hops(self, graph_file):
        path, _ = graph_file
        assert main(["extract", "--graph", path, "--seeds", "e0", "--hops", "-1"]) == 2


class TestRetrieve:
    @pytest.mark.parametrize("variant", ["triplets", "paths", "subgraph"])
    def test_variants_produce_jsonl(self, graph_file, queries_file, tmp_path, variant):
        path, _ = graph_file
        out = tmp_path / "retrieved.jsonl"
        code = main(
            [
                "retrieve",
                "--graph",
                path,
                "--queries",
                queries_file,
                "--variant",
                variant,
                "--out",
                str(out),
            ]
        )
        assert code == 0
        records = read_jsonl(out)
        assert [r["id"] for r in records] == ["q1", "q2"]
        for r in records:
            assert r["variant"] == variant
            assert len(r["items"]) == len(r["scores"])
            assert r["prize_k"] == 15

    def test_k_past_the_float_range_exits_2(self, graph_file, queries_file, capsys):
        path, _ = graph_file
        argv = ["retrieve", "--graph", path, "--queries", queries_file, "--k", str(10**309)]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: k is too large")

    def test_graph_dir_mode(self, graph_file, tmp_path):
        path, g = graph_file
        gdir = tmp_path / "per_query"
        gdir.mkdir()
        (gdir / "q1.tsv").write_text(serialize(g), encoding="utf-8")
        queries = tmp_path / "one.jsonl"
        queries.write_text(
            json.dumps({"id": "q1", "question": "про e0", "seeds": []}) + "\n",
            encoding="utf-8",
        )
        out = tmp_path / "r.jsonl"
        code = main(
            [
                "retrieve",
                "--graph-dir",
                str(gdir),
                "--queries",
                str(queries),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert read_jsonl(out)[0]["id"] == "q1"

    def test_query_id_that_is_no_file_name_reads_nothing(self, graph_file, tmp_path, monkeypatch):
        path, g = graph_file
        gdir = tmp_path / "per_query"
        gdir.mkdir()
        (tmp_path / "escaped.tsv").write_text(serialize(g), encoding="utf-8")
        queries = tmp_path / "q.jsonl"
        queries.write_text(json.dumps({"id": "../escaped", "question": "x"}) + "\n", encoding="utf-8")
        opened = []
        real_read_graph = kgr.cli.read_graph
        monkeypatch.setattr(
            kgr.cli, "read_graph", lambda p, fmt: opened.append(p) or real_read_graph(p, fmt)
        )
        code = main(["retrieve", "--graph-dir", str(gdir), "--queries", str(queries)])
        assert code == 2
        assert opened == []

    def test_graph_xor_graph_dir(self, graph_file, queries_file, tmp_path):
        path, _ = graph_file
        both = [
            "retrieve",
            "--graph",
            path,
            "--graph-dir",
            str(tmp_path),
            "--queries",
            queries_file,
        ]
        assert main(both) == 2
        assert main(["retrieve", "--queries", queries_file]) == 2

    def test_bad_variant(self, graph_file, queries_file):
        path, _ = graph_file
        args = [
            "retrieve",
            "--graph",
            path,
            "--queries",
            queries_file,
            "--variant",
            "everything",
        ]
        assert main(args) == 2

    def test_n_counts_paths(self, graph_file, queries_file, tmp_path):
        path, _ = graph_file
        out = tmp_path / "paths.jsonl"
        args = ["retrieve", "--graph", path, "--queries", queries_file, "--variant", "paths"]
        assert main([*args, "--n", "2", "--out", str(out)]) == 0
        assert [len(r["items"]) for r in read_jsonl(out)] == [2, 2]
        assert main([*args, "--result-count", "2"]) == 2

    def test_duplicate_query_ids_rejected(self, graph_file, tmp_path):
        path, _ = graph_file
        queries = tmp_path / "dup.jsonl"
        row = json.dumps({"id": "q", "question": "x", "seeds": []})
        queries.write_text(row + "\n" + row + "\n", encoding="utf-8")
        assert main(["retrieve", "--graph", path, "--queries", str(queries)]) == 2

    def test_subgraph_scores_past_the_float_range_are_infinite(self, graph_file, queries_file, tmp_path):
        # A prize depth of 10**308 gives prizes near 1e308, and two of them
        # sum past the float range.
        path, _ = graph_file
        out = tmp_path / "retrieved.jsonl"
        argv = ["retrieve", "--graph", path, "--queries", queries_file, "--variant", "subgraph"]
        assert main([*argv, "--k", str(10**308), "--out", str(out)]) == 0
        assert [r["scores"] for r in read_jsonl(out)] == [[math.inf], [math.inf]]

    def test_subgraph_bytes_do_not_depend_on_the_hash_seed(self, tmp_path):
        # At edge cost 0.3 a subgraph's score sums non-integer terms over
        # sets, whose iteration order follows the interpreter's hash seed.
        g = random_graph(random.Random(4242), 60, 240, n_relations=5)
        graph = tmp_path / "graph.tsv"
        graph.write_text(serialize(g), encoding="utf-8")
        rng = random.Random(4243)
        rows = [
            {"id": f"q{i}", "question": " ".join(rng.sample(g.entity_order, 3)), "seeds": []}
            for i in range(12)
        ]
        queries = tmp_path / "queries.jsonl"
        queries.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
        src = str(Path(kgr.__file__).resolve().parents[1])
        outputs = []
        for hash_seed in ("0", "1"):
            out = tmp_path / f"retrieved-{hash_seed}.jsonl"
            subprocess.run(
                [
                    sys.executable, "-m", "kgr", "retrieve", "--graph", str(graph),
                    "--queries", str(queries), "--variant", "subgraph",
                    "--edge-cost", "0.3", "--out", str(out),
                ],
                env={**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": src},
                check=True,
                timeout=120,
            )
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]


class TestPerturb:
    def test_perturb_and_measure_bytes_do_not_depend_on_the_hash_seed(self, tmp_path):
        # Every method, with orphan labels and isolated entities; each run
        # writes the damaged graph, its edit log and the measure report.
        g = random_graph(random.Random(4244), 40, 160, n_relations=6)
        g = kgr.KnowledgeGraph.from_triples(
            g.triples, extra_entities=[*g.entities, "zz"], extra_relations=["r9"]
        )
        graph = tmp_path / "graph.tsv"
        graph.write_text(serialize(g), encoding="utf-8")
        script = (
            "import sys\n"
            "from kgr.cli import main\n"
            "graph, out = sys.argv[1:]\n"
            "for method in ('rs', 'rr', 'er', 'ed'):\n"
            "    spec = ['--method', method, '--level', '0.3', '--seed', '5']\n"
            "    verbose = ['-v'] if method == 'rr' else []\n"
            "    assert main([*verbose, 'perturb', '--graph', graph, *spec, '--out', f'{out}/{method}.tsv',\n"
            "                 '--edit-log', f'{out}/{method}.jsonl']) == 0\n"
            "    assert main(['measure', '--graph', graph, '--perturbed', f'{out}/{method}.tsv']) == 0\n"
        )
        src = str(Path(kgr.__file__).resolve().parents[1])
        outputs = []
        for hash_seed in ("0", "1"):
            out = tmp_path / f"out-{hash_seed}"
            out.mkdir()
            run = subprocess.run(
                [sys.executable, "-c", script, str(graph), str(out)],
                env={**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": src},
                capture_output=True,
                check=True,
                text=True,
                timeout=120,
            )
            assert "perturb relation_replace level=0.3 seed=5: 48 targets" in run.stderr
            files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
            assert len(files) == 8
            outputs.append((run.stdout, files))
        assert outputs[0] == outputs[1]

    def test_writes_graph_and_edit_log(self, graph_file, tmp_path):
        path, g = graph_file
        out = tmp_path / "perturbed.tsv"
        log_path = tmp_path / "edits.jsonl"
        code = main(
            [
                "perturb",
                "--graph",
                path,
                "--method",
                "ed",
                "--level",
                "0.5",
                "--seed",
                "4",
                "--out",
                str(out),
                "--edit-log",
                str(log_path),
            ]
        )
        assert code == 0
        perturbed = read_graph(str(out))
        expected = perturb(g, PerturbationSpec("ed", 0.5, 4)).graph
        assert set(perturbed.triples) == set(expected.triples)

        lines = log_path.read_text(encoding="utf-8").splitlines()
        header = json.loads(lines[0])
        assert header == {
            "record_type": "header",
            "method": "edge_delete",
            "level": 0.5,
            "seed": 4,
        }
        log = parse_edit_log("\n".join(lines[1:]))
        assert set(replay_edit_log(g, log).triples) == set(expected.triples)

    def test_method_and_level_required(self, graph_file):
        path, _ = graph_file
        assert main(["perturb", "--graph", path, "--level", "0.5"]) == 2
        assert main(["perturb", "--graph", path, "--method", "ed"]) == 2

    def test_bad_level(self, graph_file):
        path, _ = graph_file
        assert main(["perturb", "--graph", path, "--method", "ed", "--level", "1.5"]) == 2

    def test_replace_mode_flag(self, graph_file, tmp_path):
        path, g = graph_file
        outs = {}
        for mode in ("least_plausible", "most_plausible"):
            out = tmp_path / f"{mode}.tsv"
            code = main(
                [
                    "perturb",
                    "--graph",
                    path,
                    "--method",
                    "rr",
                    "--level",
                    "1.0",
                    "--seed",
                    "2",
                    "--replace-mode",
                    mode,
                    "--out",
                    str(out),
                ]
            )
            assert code == 0
            outs[mode] = out.read_text(encoding="utf-8")
        assert outs["least_plausible"] != outs["most_plausible"]

    def test_skipped_edits_warn_once_and_leave_outputs_alone(self, tmp_path, capsys, caplog):
        # The triangle leaves edge_rewire no legal target, so every edit is
        # skipped; a run that skips nothing logs nothing.
        g = parse_triples("a\tr\tb\nb\tr\tc\nc\tr\ta\n")
        path = tmp_path / "triangle.tsv"
        path.write_text(serialize(g), encoding="utf-8")
        log_path = tmp_path / "edits.jsonl"
        for method, warnings in (("er", ["3 of 3 edge_rewire edits skipped"]), ("ed", [])):
            caplog.clear()
            argv = ["perturb", "--graph", str(path), "--method", method, "--level", "1.0"]
            assert main(argv + ["--seed", "1", "--edit-log", str(log_path)]) == 0
            result = perturb(g, PerturbationSpec(method, 1.0, 1))
            assert capsys.readouterr().out == serialize(result.graph)
            header = {"record_type": "header", "method": normalize_method(method), "level": 1.0, "seed": 1}
            assert log_path.read_text(encoding="utf-8") == (
                json.dumps(header, sort_keys=True, separators=(",", ":")) + "\n"
                + edit_log_to_jsonl(result.edit_log)
            )
            assert [(r.levelname, r.getMessage()) for r in caplog.records] == [
                ("WARNING", message) for message in warnings
            ]

            caplog.clear()
            assert main(["measure", "--graph", str(path), "--method", method, "--level", "1.0"]) == 0
            assert json.loads(capsys.readouterr().out)["method"] == normalize_method(method)
            assert [r.getMessage() for r in caplog.records] == warnings


class TestMeasure:
    def test_inline_perturbation(self, graph_file, capsys):
        path, _ = graph_file
        code = main(
            ["measure", "--graph", path, "--method", "rs", "--level", "0.6", "--seed", "1"]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["method"] == "relation_swap"
        assert report["sd2"] == 1.0
        assert 0.0 <= report["ats"] <= 1.0

    def test_perturbed_file_with_lost_isolated_entities(self, graph_file, tmp_path, capsys):
        path, g = graph_file
        out = tmp_path / "p.tsv"
        assert (
            main(
                [
                    "perturb",
                    "--graph",
                    path,
                    "--method",
                    "ed",
                    "--level",
                    "0.9",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        # Heavy deletion isolates nodes, which a TSV cannot carry; measure
        # must re-attach them rather than fail the entity-set check.
        code = main(["measure", "--graph", path, "--perturbed", str(out)])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["method"] is None
        assert 0.0 <= report["sd2"] <= 1.0

    def test_perturbed_file_with_foreign_entities_rejected(self, graph_file, tmp_path):
        path, _ = graph_file
        bad = tmp_path / "foreign.tsv"
        bad.write_text("e0\tr0\tmartian\n", encoding="utf-8")
        assert main(["measure", "--graph", path, "--perturbed", str(bad)]) == 2

    def test_requires_method_and_level_without_file(self, graph_file):
        path, _ = graph_file
        assert main(["measure", "--graph", path]) == 2
        assert main(["measure", "--graph", path, "--method", "ed"]) == 2

    def test_a_block_graph_past_int64_keys_is_a_usage_error(self, tmp_path, capsys):
        # |V| * |R| = 56001 * 56000 block nodes: sc2d's edge keys would pass int64.
        path = tmp_path / "wide.tsv"
        path.write_text("".join(f"e{i}\tr{i}\te{i + 1}\n" for i in range(56000)), encoding="utf-8")
        assert main(["measure", "--graph", str(path), "--method", "ed", "--level", "0.0"]) == 2
        assert capsys.readouterr().err == "error: 3136056000 nodes: edge keys would overflow int64\n"


class TestSweep:
    def run_sweep(self, graph, queries, out_dir, extra=()):
        return main(
            [
                "sweep",
                "--graph",
                graph,
                "--queries",
                queries,
                "--methods",
                "ed,er",
                "--levels",
                "0.0,0.5,1.0",
                "--num-seeds",
                "2",
                "--seed",
                "123",
                "--out",
                out_dir,
                *extra,
            ]
        )

    def test_grid_outputs(self, graph_file, queries_file, tmp_path):
        path, g = graph_file
        out_dir = tmp_path / "sweep"
        assert self.run_sweep(path, queries_file, str(out_dir)) == 0

        records = read_jsonl(out_dir / "records.jsonl")
        header, cells = records[0], records[1:]
        assert header["record_type"] == "header"
        assert header["methods"] == ["edge_delete", "edge_rewire"]
        assert header["levels"] == [0.0, 0.5, 1.0]
        assert header["root_seed"] == 123
        assert len(header["cell_seeds"]) == 2
        assert len(cells) == 2 * 3 * 2
        # Records come sorted by method, then level, then seed.
        keys = [
            (
                header["methods"].index(c["method"]),
                header["levels"].index(c["level"]),
                c["seed"],
            )
            for c in cells
        ]
        assert keys == sorted(keys)
        for c in cells:
            assert "error" not in c
            assert 0.0 <= c["retrieval_overlap"] <= 1.0
            assert {p["id"] for p in c["per_query"]} == {"q1", "q2"}
        # Level 0 must leave retrieval untouched.
        for c in cells:
            if c["level"] == 0.0:
                assert c["retrieval_overlap"] == 1.0
                assert c["ats"] == 1.0

        csv_lines = (out_dir / "curves.csv").read_text().splitlines()
        assert csv_lines[0].startswith("method,level,")
        assert len(csv_lines) == 1 + 6
        meta = json.loads((out_dir / "meta.json").read_text())
        assert meta["cells"] == 12
        assert meta["failed_cells"] == 0
        assert len(meta["cell_seconds"]) == 12
        # Skipped edits per cell, in record order: edge_delete never skips.
        assert len(meta["skipped_edits"]) == 12
        assert meta["skipped_edits"][:6] == [0] * 6
        assert all(isinstance(n, int) and n >= 0 for n in meta["skipped_edits"])
        # The baseline and every cell whose graph differs from the original
        # rank each question; a cell with the original graph reuses the
        # baseline.  Each question keeps a similarity memo, so a ranking
        # embeds, in one call with the question, only the elements that
        # question has not met.  One embedder serves the sweep: each distinct
        # text is embedded once, every other lookup is a memo hit.  The
        # counters stay out of the byte-stable outputs.
        damaged = [
            perturb(g, PerturbationSpec(c["method"], c["level"], c["seed"])).graph for c in cells
        ]
        ranked = [g] + [graph for graph in damaged if graph != g]
        distinct, lookups, hits, misses = set(), 0, 0, 0
        for question in ("what links e0 and e3", "tell me about e5"):
            met = set()
            for graph in ranked:
                elements = (*graph.entity_order, *graph.triples)
                new = [e for e in elements if e not in met]
                met.update(new)
                hits, misses = hits + len(elements) - len(new), misses + len(new)
                if new:
                    texts = [question, *map(verbalize_element, new)]
                    distinct.update(texts)
                    lookups += len(texts)
        assert meta["reused_cells"] == len(cells) + 1 - len(ranked) >= 4  # every level-0.0 cell
        assert (meta["similarity_hits"], meta["similarity_misses"]) == (hits, misses)
        assert meta["embedded_texts"] == len(distinct)
        assert meta["embed_cache_hits"] == lookups - len(distinct)
        assert "embed" not in (out_dir / "records.jsonl").read_text()
        assert "embed" not in (out_dir / "curves.csv").read_text()

    def test_embedding_service_embeds_only_what_cells_add(
        self, graph_file, queries_file, tmp_path, mock_service
    ):
        path, g = graph_file
        asked = []

        def behavior(payload):
            asked.append(len(payload["texts"]))
            return 200, {"vectors": [[float(len(t)), 1.0] for t in payload["texts"]]}

        svc = mock_service(behavior)
        out_dir = tmp_path / "sweep"
        assert self.run_sweep(path, queries_file, str(out_dir), ["--embed-url", svc.url]) == 0
        meta = json.loads((out_dir / "meta.json").read_text())
        assert meta["embedded_texts"] is None  # the service has no memo of its own
        assert meta["embed_cache_hits"] is None
        # The sweep's similarity memo and baseline reuse serve a service as
        # they serve the fallback: each question asks once for the baseline,
        # and again only for a changed graph holding elements it has not met.
        cells = read_jsonl(out_dir / "records.jsonl")[1:]
        damaged = [
            perturb(g, PerturbationSpec(c["method"], c["level"], c["seed"])).graph for c in cells
        ]
        met, per_question = set(), []
        for graph in [g] + [d for d in damaged if d != g]:
            new = {*graph.entity_order, *graph.triples} - met
            met |= new
            if new:
                per_question.append(1 + len(new))  # the question and its new elements
        assert sorted(asked) == sorted(per_question * 2)  # each of two questions
        assert svc.calls == 2 * len(per_question) == 10
        level0 = [c for c in cells if c["level"] == 0.0]
        assert len(level0) == 4
        assert all(c["retrieval_overlap"] == 1.0 for c in level0)

    def test_rerun_is_byte_identical(self, graph_file, queries_file, tmp_path):
        path, _ = graph_file
        a, b = tmp_path / "a", tmp_path / "b"
        assert self.run_sweep(path, queries_file, str(a)) == 0
        assert self.run_sweep(path, queries_file, str(b)) == 0
        assert (a / "records.jsonl").read_bytes() == (b / "records.jsonl").read_bytes()
        assert (a / "curves.csv").read_bytes() == (b / "curves.csv").read_bytes()

    def test_failed_cells_exit_3(self, graph_file, queries_file, tmp_path, monkeypatch):
        path, _ = graph_file
        real_compare = kgr.sweep.compare

        def flaky_compare(g, gp, scorer=None):
            if len(gp.triples) == len(g.triples):
                raise RuntimeError("synthetic cell failure")
            return real_compare(g, gp, scorer)

        monkeypatch.setattr(kgr.sweep, "compare", flaky_compare)
        out_dir = tmp_path / "sweep"
        assert self.run_sweep(path, queries_file, str(out_dir)) == 3
        records = read_jsonl(out_dir / "records.jsonl")[1:]
        errors = [r for r in records if "error" in r]
        # ed at level 0.0 keeps every triple (2 seeds); er keeps the count
        # at every level (6 cells).
        assert len(errors) == 8
        assert all("synthetic" in r["error"] for r in errors)
        assert all(r["error"] == "RuntimeError: synthetic cell failure" for r in errors)
        meta = json.loads((out_dir / "meta.json").read_text())
        assert meta["failed_cells"] == 8
        assert [n is None for n in meta["skipped_edits"]] == ["error" in r for r in records]
        csv_lines = (out_dir / "curves.csv").read_text().splitlines()
        assert len(csv_lines) == 1 + 2  # only ed at 0.5 and 1.0 have data

    def test_config_file_with_flag_override(self, graph_file, queries_file, tmp_path):
        path, _ = graph_file
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(
            "graph: {graph}\nqueries: {queries}\n"
            "sweep:\n  methods: [ed]\n  levels: [0.0, 1.0]\n  num_seeds: 3\n".format(
                graph=path, queries=queries_file
            ),
            encoding="utf-8",
        )
        out_dir = tmp_path / "cfged"
        code = main(
            [
                "sweep",
                "--config",
                str(cfg),
                "--num-seeds",
                "1",
                "--out",
                str(out_dir),
            ]
        )
        assert code == 0
        header = read_jsonl(out_dir / "records.jsonl")[0]
        assert header["methods"] == ["edge_delete"]  # from config
        assert header["levels"] == [0.0, 1.0]  # from config
        assert header["num_seeds"] == 1  # flag beat config

    def test_header_records_every_retrieval_setting(self, graph_file, queries_file, tmp_path):
        path, _ = graph_file
        headers = {}
        for n in (2, 9):
            out_dir = tmp_path / f"n{n}"
            extra = ["--variant", "paths", "--n", str(n)]
            assert self.run_sweep(path, queries_file, str(out_dir), extra) == 0
            headers[n] = read_jsonl(out_dir / "records.jsonl")[0]
        assert headers[2] != headers[9]
        for n, header in headers.items():
            settings = {
                "variant": "paths", "prize_k": 15, "edge_cost": 1.0, "n": n,
                "start_count": 5, "max_len": 4, "directed_only": False,
            }
            assert {key: header[key] for key in settings} == settings

    def test_bad_level_fails_the_whole_run(self, graph_file, queries_file, tmp_path):
        path, _ = graph_file
        out_dir = tmp_path / "sweep"
        assert self.run_sweep(path, queries_file, str(out_dir), ["--levels", "0.0,1.5"]) == 2
        assert not out_dir.exists()


class TestGenerate:
    def make_retrieved(self, graph_file, queries_file, tmp_path):
        path, _ = graph_file
        out = tmp_path / "retrieved.jsonl"
        assert (
            main(
                [
                    "retrieve",
                    "--graph",
                    path,
                    "--queries",
                    queries_file,
                    "--variant",
                    "triplets",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        return out

    def test_end_to_end_with_echo_endpoint(
        self, graph_file, queries_file, tmp_path, mock_service
    ):
        retrieved = self.make_retrieved(graph_file, queries_file, tmp_path)
        svc = mock_service(echo_generation_behavior)
        out = tmp_path / "answers.jsonl"
        code = main(
            [
                "generate",
                "--retrieved",
                str(retrieved),
                "--gen-url",
                svc.url,
                "--backoff",
                "0.01",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        answers = read_jsonl(out)
        assert [a["id"] for a in answers] == ["q1", "q2"]
        for a in answers:
            assert a["answer"].startswith("ECHO[")
            assert a["model_id"] == "echo-mock"
            assert a["question"] in a["prompt"]
            assert "(" in a["prompt"]  # the rendered triples made it in
        meta = json.loads((out.with_name("answers.jsonl.meta.json")).read_text())
        assert set(meta["latencies_s"]) == {"q1", "q2"}

    def test_header_lines_are_skipped(
        self, graph_file, queries_file, tmp_path, mock_service
    ):
        retrieved = self.make_retrieved(graph_file, queries_file, tmp_path)
        with_header = tmp_path / "with_header.jsonl"
        with_header.write_text(
            json.dumps({"record_type": "header", "anything": 1})
            + "\n"
            + retrieved.read_text(encoding="utf-8"),
            encoding="utf-8",
        )
        svc = mock_service(echo_generation_behavior)
        code = main(
            [
                "generate",
                "--retrieved",
                str(with_header),
                "--gen-url",
                svc.url,
                "--backoff",
                "0.01",
                "--out",
                str(tmp_path / "a.jsonl"),
            ]
        )
        assert code == 0
        assert len(read_jsonl(tmp_path / "a.jsonl")) == 2

    def test_custom_template_files(
        self, graph_file, queries_file, tmp_path, mock_service
    ):
        retrieved = self.make_retrieved(graph_file, queries_file, tmp_path)
        sys_p = tmp_path / "sys.txt"
        body_p = tmp_path / "body.txt"
        sys_p.write_text("CUSTOM SYSTEM", encoding="utf-8")
        body_p.write_text("Q={question}\nF={retrieved_knowledge}", encoding="utf-8")
        svc = mock_service(echo_generation_behavior)
        out = tmp_path / "custom.jsonl"
        code = main(
            [
                "generate",
                "--retrieved",
                str(retrieved),
                "--gen-url",
                svc.url,
                "--template-system",
                str(sys_p),
                "--template-body",
                str(body_p),
                "--backoff",
                "0.01",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert read_jsonl(out)[0]["prompt"].startswith("CUSTOM SYSTEM\n\nQ=")

    def test_template_flags_must_pair(self, graph_file, queries_file, tmp_path):
        retrieved = self.make_retrieved(graph_file, queries_file, tmp_path)
        code = main(
            [
                "generate",
                "--retrieved",
                str(retrieved),
                "--gen-url",
                "http://127.0.0.1:9/",
                "--template-system",
                "only_this.txt",
            ]
        )
        assert code == 2

    def test_unreachable_endpoint_exits_4(self, graph_file, queries_file, tmp_path):
        retrieved = self.make_retrieved(graph_file, queries_file, tmp_path)
        code = main(
            [
                "generate",
                "--retrieved",
                str(retrieved),
                "--gen-url",
                "http://127.0.0.1:9/",
                "--timeout",
                "0.3",
                "--backoff",
                "0.01",
            ]
        )
        assert code == 4

    def test_a_failed_request_keeps_the_answers_that_arrived(
        self, graph_file, queries_file, tmp_path, mock_service, capsys
    ):
        retrieved = self.make_retrieved(graph_file, queries_file, tmp_path)

        def fail_q1(payload):
            if "what links e0 and e3" in payload["prompt"]:
                return 500, {"error": "boom"}
            return echo_generation_behavior(payload)

        svc = mock_service(fail_q1)
        out = tmp_path / "answers.jsonl"
        code = main(
            [
                "generate",
                "--retrieved",
                str(retrieved),
                "--gen-url",
                svc.url,
                "--max-attempts",
                "2",
                "--backoff",
                "0.01",
                "--out",
                str(out),
            ]
        )
        assert code == 4
        failed, answered = read_jsonl(out)
        assert failed == {
            "id": "q1",
            "question": "what links e0 and e3",
            "error": "HTTP 500 (after 2 attempt(s))",
        }
        assert answered["id"] == "q2"
        assert answered["answer"].startswith("ECHO[")
        assert svc.calls == 3  # q1 twice, q2 once
        meta = json.loads((out.with_name("answers.jsonl.meta.json")).read_text())
        assert set(meta["latencies_s"]) == {"q2"}
        assert capsys.readouterr().err == (
            "transport error: 1 of 2 requests failed, first q1: HTTP 500 (after 2 attempt(s))\n"
        )

    def test_nan_temperature_exits_2_before_any_request(
        self, graph_file, queries_file, tmp_path, mock_service, capsys
    ):
        retrieved = self.make_retrieved(graph_file, queries_file, tmp_path)
        svc = mock_service(echo_generation_behavior)
        argv = ["generate", "--retrieved", str(retrieved), "--gen-url", svc.url, "--temperature", "nan"]
        assert main(argv) == 2
        assert svc.calls == 0
        assert "not JSON compliant" in capsys.readouterr().err

    def test_missing_gen_url(self, graph_file, queries_file, tmp_path, monkeypatch):
        monkeypatch.delenv("KGR_GEN_URL", raising=False)
        retrieved = self.make_retrieved(graph_file, queries_file, tmp_path)
        assert main(["generate", "--retrieved", str(retrieved)]) == 2

    @pytest.mark.parametrize("body", [{"text": "   "}, {"completion": "wrong key"}])
    def test_empty_or_textless_answer_exits_4(
        self, graph_file, queries_file, tmp_path, mock_service, body
    ):
        retrieved = self.make_retrieved(graph_file, queries_file, tmp_path)
        svc = mock_service(lambda payload: (200, body))
        code = main(["generate", "--retrieved", str(retrieved), "--gen-url", svc.url])
        assert code == 4

    def test_empty_retrieved_file(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("", encoding="utf-8")
        code = main(
            ["generate", "--retrieved", str(empty), "--gen-url", "http://127.0.0.1:9/"]
        )
        assert code == 2


    @pytest.mark.parametrize(
        "items, scores",
        [
            ('"variant": "subgraph", "items": []', "[]"),
            ('"variant": "triplets", "items": [["a", "r", "b"], ["b", "r", "c"]]', "[2.0]"),
            ('"variant": "paths", "items": [{"nodes": ["a"], "triples": []}]', "[]"),
            ('"variant": "triplets", "items": ["xyz"]', "[1.0]"),
            ('"variant": "paths", "items": [{"nodes": "ab", "triples": []}]', "[1.0]"),
        ],
    )
    def test_misshapen_record_exits_2(self, tmp_path, mock_service, capsys, items, scores):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(
            f'{{{items}, "scores": {scores}, "prize_k": 15, "edge_cost": 1.0}}\n', encoding="utf-8"
        )
        svc = mock_service(echo_generation_behavior)
        code = main(["generate", "--retrieved", str(bad), "--gen-url", svc.url])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {bad}:1: bad record: ")
        assert svc.calls == 0

    def test_non_object_record_exits_2(self, tmp_path, mock_service, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("[1, 2]\n", encoding="utf-8")
        svc = mock_service(echo_generation_behavior)
        code = main(["generate", "--retrieved", str(bad), "--gen-url", svc.url])
        assert code == 2
        assert capsys.readouterr().err == f"error: {bad}:1: each record must be a JSON object\n"
        assert svc.calls == 0


class TestTopLevel:
    def test_no_command_prints_help(self, capsys):
        assert main([]) == 2
        assert "stats" in capsys.readouterr().out

    def test_unknown_command(self, capsys):
        assert main(["teleport"]) == 2

    def test_invalid_yaml_config(self, graph_file, tmp_path):
        path, _ = graph_file
        cfg = tmp_path / "broken.yaml"
        cfg.write_text("methods: [unterminated\n", encoding="utf-8")
        assert main(["stats", "--graph", path, "--config", str(cfg)]) == 2

    def test_non_mapping_config(self, graph_file, tmp_path):
        path, _ = graph_file
        cfg = tmp_path / "list.yaml"
        cfg.write_text("- a\n- b\n", encoding="utf-8")
        assert main(["stats", "--graph", path, "--config", str(cfg)]) == 2

    def test_failed_run_leaves_no_partial_output(self, graph_file, tmp_path):
        path, _ = graph_file
        out = tmp_path / "never.tsv"
        code = main(
            ["perturb", "--graph", path, "--method", "ed", "--level", "7", "--out", str(out)]
        )
        assert code == 2
        assert not out.exists()

    def test_errors_the_library_or_open_raise_exit_2(self, graph_file, tmp_path, capsys):
        path, _ = graph_file
        missing = str(tmp_path / "nope.tsv")
        cases = [
            (["stats", "--graph", missing], "error: [Errno 2] No such file or directory"),
            (["stats", "--graph", path, "--config", missing], "error: [Errno 2]"),
            (["retrieve", "--graph", path, "--queries", missing], "error: [Errno 2]"),
            (["extract", "--graph", path, "--seeds", "ghost"], "error: not found: 'ghost'"),
            (["extract", "--graph", path, "--seeds", ""], "error: at least one seed entity"),
            (["extract", "--graph", path, "--seeds", "e0", "--hops", "-1"], "error: hops must be >= 0"),
        ]
        for argv, message in cases:
            assert main(argv) == 2, argv
            assert capsys.readouterr().err.startswith(message), argv

    def test_only_entity_lookups_map_to_not_found(self, graph_file, monkeypatch):
        # A plain KeyError is a bug in the program, not a missing entity.
        path, _ = graph_file

        def raising(error):
            def handler(args):
                raise error

            return handler

        monkeypatch.setitem(kgr.cli._HANDLERS, "stats", raising(kgr.EntityNotFoundError("x")))
        assert main(["stats", "--graph", path]) == 2
        monkeypatch.setitem(kgr.cli._HANDLERS, "stats", raising(KeyError("x")))
        with pytest.raises(KeyError):
            main(["stats", "--graph", path])

    def test_malformed_graph_reports_config_error(self, tmp_path):
        bad = tmp_path / "bad.tsv"
        bad.write_text("just_one_column\n", encoding="utf-8")
        assert main(["stats", "--graph", str(bad)]) == 2


class TestParser:
    def test_extract_config_section_matches_flags(self, graph_file, tmp_path, capsys):
        path, _ = graph_file
        cfg = tmp_path / "extract.yaml"
        cfg.write_text(
            "graph: {}\nextract:\n  hops: 1\n  alpha: 0.5\n  undirected: true\n".format(path),
            encoding="utf-8",
        )
        assert main(["extract", "--config", str(cfg), "--seeds", "e0"]) == 0
        from_config = capsys.readouterr().out
        flags = ["--hops", "1", "--alpha", "0.5", "--undirected"]
        assert main(["extract", "--graph", path, "--seeds", "e0", *flags]) == 0
        from_flags = capsys.readouterr().out
        assert from_config == from_flags
        assert main(["extract", "--graph", path, "--seeds", "e0"]) == 0
        assert capsys.readouterr().out != from_flags

    def test_bad_config_value_is_config_error(self, graph_file, tmp_path):
        path, _ = graph_file
        cfg = tmp_path / "bad.yaml"
        cfg.write_text("extract:\n  hops: two\n", encoding="utf-8")
        args = ["extract", "--graph", path, "--seeds", "e0", "--config", str(cfg)]
        assert main(args) == 2

    def test_config_value_outside_choices_is_config_error(
        self, graph_file, queries_file, tmp_path, capsys
    ):
        path, _ = graph_file
        cfg = tmp_path / "choices.yaml"
        cfg.write_text("sweep:\n  replace_mode: bogus\n", encoding="utf-8")
        out_dir = tmp_path / "sweep"
        args = [
            "sweep", "--graph", path, "--queries", queries_file, "--out", str(out_dir),
            "--methods", "rr", "--levels", "0.5", "--num-seeds", "1",
        ]
        assert main([*args, "--config", str(cfg)]) == 2
        assert "replace_mode='bogus'" in capsys.readouterr().err
        assert not out_dir.exists()
        assert main([*args, "--replace-mode", "bogus"]) == 2
        for command, key in (("stats", "format"), ("retrieve", "variant")):
            cfg.write_text(f"{key}: bogus\n", encoding="utf-8")
            extra = ["--queries", queries_file] if command == "retrieve" else []
            assert main([command, "--graph", path, *extra, "--config", str(cfg)]) == 2
            assert f"{key}='bogus'" in capsys.readouterr().err

    def test_config_cannot_pick_the_command(self, graph_file, tmp_path, capsys):
        path, _ = graph_file
        cfg = tmp_path / "cmd.yaml"
        cfg.write_text("graph: {}\ncommand: measure\n".format(path), encoding="utf-8")
        assert main(["stats", "--config", str(cfg)]) == 0
        assert "node_count" in json.loads(capsys.readouterr().out)

    def test_flag_the_command_does_not_read_is_rejected(self, graph_file):
        path, _ = graph_file
        assert main(["stats", "--graph", path, "--seed", "1"]) == 2
