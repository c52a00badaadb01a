"""The three benchmark workloads: inputs, one op, and its output check.

Each workload object exposes ``ops`` (the op list, cycled by the timed
loop), ``run(op)`` (the timed call into kgr's public entry points) and
``check(op, out)`` (untimed; raises ``CheckFailed`` or returns the op's
output bytes for the digest).  Library calls go through the ``kgr``
package or module attribute at call time, so the tracer's rebinding
reaches them.
"""

from __future__ import annotations

import json
import math
import os
import random

import gen

METHODS = ("relation_swap", "relation_replace", "edge_rewire", "edge_delete")


class CheckFailed(Exception):
    """An op's output broke one of the benchmark's correctness checks."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def write_inputs(name: str, spec: dict, seed: int, workdir: str) -> None:
    """Generate the workload's graph and question files from ``seed``."""
    size = spec["graph"]
    triples = gen.make_graph(seed, size["entities"], size["triples"], size["relations"])
    with open(os.path.join(workdir, "graph.tsv"), "w", encoding="utf-8", newline="") as fh:
        fh.write(gen.to_tsv(triples))
    count = {"qa": spec.get("questions"), "sweep": spec.get("queries")}.get(name)
    if count:
        queries = gen.make_queries(seed, triples, count)
        with open(os.path.join(workdir, "queries.jsonl"), "w", encoding="utf-8") as fh:
            fh.write(gen.queries_jsonl(queries))


def _connected(nodes, triples) -> bool:
    adjacency = {v: set() for v in nodes}
    for s, _, o in triples:
        adjacency[s].add(o)
        adjacency[o].add(s)
    start = next(iter(adjacency), None)
    seen = {start}
    stack = [start]
    while stack:
        for w in adjacency[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return start is None or len(seen) == len(adjacency)


def _same(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=0.0, abs_tol=1e-9)


class QA:
    """extract_and_prune -> rank -> prizes -> retrieve (rotating) -> prompt."""

    def __init__(self, spec: dict, workdir: str, seed: int):
        import kgr

        self.kgr = kgr
        self.spec = spec
        self.graph = kgr.read_graph(os.path.join(workdir, "graph.tsv"))
        with open(os.path.join(workdir, "queries.jsonl"), encoding="utf-8") as fh:
            questions = [json.loads(line) for line in fh]
        variants = spec["variants"]
        self.ops = [(q, variants[i % len(variants)]) for i, q in enumerate(questions)]

    def run(self, op):
        kgr = self.kgr
        q, variant = op
        sub = kgr.extract_and_prune(self.graph, q["seeds"], hops=self.spec["hops"])
        nodes, edges = kgr.rank_graph_elements(sub, q["question"])
        prizes = kgr.assign_prizes(nodes, edges, k=self.spec["prize_k"])
        z = kgr.retrieve(sub, prizes, variant=variant)
        return sub, prizes, z, kgr.build_prompt(q["question"], z)

    def check(self, op, out) -> bytes:
        q, variant = op
        sub, prizes, z, prompt = out
        sub_triples = set(sub.triples)
        require(set(q["seeds"]) <= sub.entities, "a seed entity was pruned away")
        require(z.variant == variant, "retrieval returned another variant")
        require(z.retrieved_triples() <= sub_triples, "retrieved triples outside the extracted subgraph")
        require(q["question"] in prompt, "prompt does not contain the question")
        cost = prizes.edge_cost
        if z.triplets is not None:
            for t, score in z.triplets:
                expect = prizes.node_prize(t.subject) + prizes.node_prize(t.object) + prizes.edge_prize(t)
                require(_same(score, expect), "triplet score differs from its prizes")
        if z.paths is not None:
            for p in z.paths:
                require(len(set(p.nodes)) == len(p.nodes), "path revisits a node")
                for (a, b), t in zip(zip(p.nodes, p.nodes[1:]), p.edges):
                    require({a, b} == {t.subject, t.object}, "path edge does not join its nodes")
                expect = sum(map(prizes.node_prize, p.nodes)) + sum(prizes.edge_prize(t) - cost for t in p.edges)
                require(_same(p.score, expect), "path score differs from its prizes")
        if z.subgraph is not None:
            sg = z.subgraph.subgraph
            require(_connected(sg.entities, sg.triples), "PCST subgraph is not connected")
            expect = sum(map(prizes.node_prize, sg.entities)) + sum(prizes.edge_prize(t) - cost for t in sg.triples)
            require(_same(z.subgraph.score, expect), "PCST score differs from its recomputed value")
        body = json.dumps(z.to_json_dict(), sort_keys=True)
        return "\n".join((self.kgr.serialize(sub), body, prompt)).encode("utf-8")


class Sweep:
    """One in-process ``kgr sweep`` over all methods per op, default workers."""

    def __init__(self, spec: dict, workdir: str, seed: int):
        from kgr import cli

        self.cli = cli
        self.spec = spec
        self.out = os.path.join(workdir, "sweep_out")
        self.argv = [
            "sweep",
            "--graph", os.path.join(workdir, "graph.tsv"),
            "--queries", os.path.join(workdir, "queries.jsonl"),
            "--out", self.out,
            "--variant", spec["variant"],
            "--levels", ",".join(map(str, spec["levels"])),
            "--num-seeds", str(spec["num_seeds"]),
            "--seed", str(seed),
        ]
        self.ops = [tuple(self.argv)]
        self.workers = None

    def run(self, op):
        return self.cli.main(list(op))

    def check(self, op, rc) -> bytes:
        require(rc == 0, f"kgr sweep exited with code {rc}")
        with open(os.path.join(self.out, "records.jsonl"), "rb") as fh:
            records_bytes = fh.read()
        with open(os.path.join(self.out, "curves.csv"), "rb") as fh:
            curves_bytes = fh.read()
        with open(os.path.join(self.out, "meta.json"), encoding="utf-8") as fh:
            meta = json.load(fh)
        records = [json.loads(line) for line in records_bytes.decode("utf-8").splitlines()]
        require(records[0].get("record_type") == "header", "records.jsonl lacks its header")
        cells = records[1:]
        require(len(cells) == len(METHODS) * len(self.spec["levels"]) * self.spec["num_seeds"], "wrong cell count")
        for cell in cells:
            require("error" not in cell, f"sweep cell failed: {cell.get('error')}")
            for key in ("ats", "sc2d", "sd2", "retrieval_overlap"):
                require(0.0 <= cell[key] <= 1.0, f"{key} outside [0, 1]")
            if cell["level"] == 0.0:
                require(
                    cell["retrieval_overlap"] == cell["sc2d"] == cell["sd2"] == 1.0,
                    "a level-0.0 cell is not identical to the original",
                )
        self.workers = meta.get("workers")
        if self.workers is not None:
            require(self.workers <= len(os.sched_getaffinity(0)), "sweep uses more workers than usable CPUs")
        return records_bytes + curves_bytes


class Damage:
    """``kgr measure`` path: perturb then compare, over methods x levels x seeds."""

    def __init__(self, spec: dict, workdir: str, seed: int):
        import kgr

        self.kgr = kgr
        self.graph = kgr.read_graph(os.path.join(workdir, "graph.tsv"))
        self.scorer = kgr.fit_baseline_scorer(self.graph)
        rng = random.Random(seed)
        seeds = [rng.randrange(2**31) for _ in range(spec["seeds_per_cell"])]
        self.ops = [(m, level, s) for level in spec["levels"] for s in seeds for m in METHODS]

    def run(self, op):
        kgr = self.kgr
        method, level, seed = op
        pg = kgr.perturb(self.graph, kgr.PerturbationSpec(method, level, seed), self.scorer)
        return pg, kgr.compare(self.graph, pg.graph, self.scorer)

    def check(self, op, out) -> bytes:
        from kgr.perturb import edit_log_to_jsonl

        pg, report = out
        require(pg.graph.entities == self.graph.entities, "perturbation changed the entity set")
        require(self.kgr.replay_edit_log(self.graph, pg.edit_log) == pg.graph, "edit log does not replay")
        for key in ("ats", "sc2d", "sd2"):
            require(0.0 <= getattr(report, key) <= 1.0, f"{key} outside [0, 1]")
        body = json.dumps(report.to_json_dict(*op), sort_keys=True)
        return "\n".join((self.kgr.serialize(pg.graph), edit_log_to_jsonl(pg.edit_log), body)).encode("utf-8")


WORKLOADS = {"qa": QA, "sweep": Sweep, "damage": Damage}
