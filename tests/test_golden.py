"""Golden digests: the output bytes of the sweep, damage and qa paths.

Every other test checks a stage against its own reference or a rerun
against itself; these pin the bytes themselves, so a change that moves
any output fails here even when it stays self-consistent.  A change that
moves bytes on purpose updates the pin and says why.

The inputs come from ``perfbench/gen.py`` (loaded by path, read-only):
``make_graph`` at the sweep size (250/1000/20) and the damage size
(2000/8000/20).  Questions are chosen by a fixed rule below, not by
``make_queries``, so a change to the benchmark's question draw does not
move them.
"""

from __future__ import annotations

import functools
import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

import kgr
from kgr.ingest import jsonl_line
from kgr.perturb import edit_log_to_jsonl

GEN = Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"

SWEEP_SIZE = (250, 1000, 20)
DAMAGE_SIZE = (2000, 8000, 20)
GRAPH_SEED = 3
QA_QUESTIONS = 30


@functools.cache
def gen():
    spec = importlib.util.spec_from_file_location("perfbench_gen", GEN)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@functools.cache
def graph(size: tuple[int, int, int]) -> kgr.KnowledgeGraph:
    return kgr.parse_triples(gen().to_tsv(gen().make_graph(GRAPH_SEED, *size)))


def questions(g: kgr.KnowledgeGraph, count: int) -> list[dict]:
    """``count`` questions about evenly spaced subjects of ``g``.

    Question i asks about the subject of the triple at position
    ``i * |T| // count`` (in canonical order), in the words of that triple's
    relation and object, through ``gen.QUESTION_STEMS[i % 4]``.
    """
    out = []
    for i in range(count):
        s, r, o = g.triples[i * len(g.triples) // count]
        stem = gen().QUESTION_STEMS[i % len(gen().QUESTION_STEMS)]
        text = stem.format(a=s.replace("_", " "), b=o.replace("_", " "), rel=r.replace("_", " "))
        out.append({"id": f"q{i}", "question": text, "seeds": [s]})
    return out


def sha(parts) -> str:
    return hashlib.sha256("\n".join(parts).encode("utf-8")).hexdigest()


SWEEP_PINS = {
    "triplets": "67566a10ac9523954acc1fb0865599b840edbe0d5d3aae85ba1c6467d20de35e",
    "paths": "dd9e32ff7de1594cfb176ca96a4566c4d328499006ba706d13167cbbde22918d",
    "subgraph": "d13f9e5e196a70a64e210e0af8c163de2ba7137a556a9ac7693fee233d1443ad",
}


@pytest.mark.parametrize("variant", sorted(SWEEP_PINS))
def test_sweep_records_and_curves(variant):
    g = graph(SWEEP_SIZE)
    records, curves, _ = kgr.run_sweep(
        g, questions(g, 3), methods=kgr.METHODS, levels=(0.0, 0.05, 0.1), num_seeds=2,
        root_seed=11, replace_mode="least_plausible", settings={"variant": variant},
    )
    assert sha([*map(jsonl_line, records), *curves]) == SWEEP_PINS[variant]


DAMAGE_PINS = {
    ("relation_swap", 0.01): "1785ae3907c78f210de0837c403046c3ecc3db8fc7c85c23a6b2011d3f4c1c1e",
    ("relation_swap", 0.05): "fb976e3216cc9b4ea1017b66016f9903fbca9b7c73e68dd802a182435c230456",
    ("relation_replace", 0.01): "a18ae887a68f778801bf49c7e1a718cd7717efe77856d3f7b680d60244f0d6d5",
    ("relation_replace", 0.05): "9d44bd31b1dc4c480c6221b6508d00f62eb669a92335927388412399d7d1f676",
    ("edge_rewire", 0.01): "8c83ce20637e9870c3a92288bf8bdd95e4888b8f727a97b840bc31bfd7a90811",
    ("edge_rewire", 0.05): "10ba9d056a38bd89f2f4ae214baff18db437833ca8f6e022eaf269e1be20fc69",
    ("edge_delete", 0.01): "acf03e802abd5587891a318c7f337208049f9b120857845be245b4d4f4403a70",
    ("edge_delete", 0.05): "76edfc36518734e2b0407805b10f80ff2df4eaee07c3035cda3007844fa968c5",
}


@functools.cache
def scorer() -> kgr.BaselineEdgeScorer:
    return kgr.fit_baseline_scorer(graph(DAMAGE_SIZE))


@pytest.mark.parametrize("method,level", sorted(DAMAGE_PINS))
def test_perturb_and_compare(method, level):
    g, seed = graph(DAMAGE_SIZE), 20261
    pg = kgr.perturb(g, kgr.PerturbationSpec(method, level, seed), scorer())
    report = kgr.compare(g, pg.graph, scorer())
    body = json.dumps(report.to_json_dict(method, level, seed), sort_keys=True)
    assert sha([kgr.serialize(pg.graph), edit_log_to_jsonl(pg.edit_log), body]) == DAMAGE_PINS[method, level]


QA_PINS = {
    "extract": "2eadd9f576b22b34b52234407f31d77d64983e7a3d25fa8f446956bbbf8eeefa",
    "rank": "cc0a74ee514c37daef9b4192082314fe4ce238229deb7a1cb1ea0d68010677c4",
    "prize": "8929af80adc786b73db1282a9e1261cc45e37bc97865fbe93d328fa846463536",
    "retrieve": "1a661dc561ff2888792e39cd5476c3477955efd0780ce8cd3c2edf6e7a5f5fe8",
    "prompt": "14ca7251232fe3a442943a2d8d96f77a587ae1f9fe6bdbe2a8fb6fa9faeaf26c",
}


def test_qa_chain():
    """extract -> rank -> prize -> retrieve (rotating variant) -> prompt,
    one digest per stage over every question."""
    g = graph(DAMAGE_SIZE)
    stages = {name: [] for name in QA_PINS}
    for i, q in enumerate(questions(g, QA_QUESTIONS)):
        sub = kgr.extract_and_prune(g, q["seeds"])
        nodes, edges = kgr.rank_graph_elements(sub, q["question"])
        prizes = kgr.assign_prizes(nodes, edges)
        z = kgr.retrieve(sub, prizes, variant=kgr.VARIANTS[i % len(kgr.VARIANTS)])
        stages["extract"].append(kgr.serialize(sub))
        stages["rank"].append(json.dumps([nodes, edges]))
        stages["prize"].append(json.dumps([sorted(prizes.node_prizes.items()), sorted(prizes.edge_prizes.items())]))
        stages["retrieve"].append(json.dumps(z.to_json_dict(), sort_keys=True))
        stages["prompt"].append(kgr.build_prompt(q["question"], z))
    assert {name: sha(parts) for name, parts in stages.items()} == QA_PINS


SECOND_GENERATION_PIN = "1389181e0f0e18ff3c3f8fe1e45040c0d67907e4f3765f8d9003572611bebd6b"


def test_perturb_a_damaged_graph_again():
    """A damaged graph, perturbed again by every method and compared with
    the damaged graph: the path where a child's clustering comes from a
    parent that is itself a perturbed graph."""
    g, seed = graph(DAMAGE_SIZE), 20261
    g.mean_relation_clustering  # so the damaged graph inherits its parent's
    first = kgr.perturb(g, kgr.PerturbationSpec("edge_rewire", 0.05, seed), scorer()).graph
    parts = [json.dumps(kgr.compare(g, first, scorer()).to_json_dict(), sort_keys=True)]
    for method in kgr.METHODS:
        pg = kgr.perturb(first, kgr.PerturbationSpec(method, 0.02, seed + 1))
        report = kgr.compare(first, pg.graph)
        body = json.dumps(report.to_json_dict(method, 0.02, seed + 1), sort_keys=True)
        parts += [kgr.serialize(pg.graph), edit_log_to_jsonl(pg.edit_log), body]
    assert sha(parts) == SECOND_GENERATION_PIN
