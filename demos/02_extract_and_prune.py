"""
Seed-centered extraction with random-walk pruning
=================================================

Large graphs are cut down in two steps: a K-hop ball around the seed
entities, then personalized PageRank to discard the low-scoring rim.
"""

import random

from kgr import (
    KnowledgeGraph,
    PprConfig,
    extract_and_prune,
    khop_subgraph,
    personalized_pagerank,
    prune_by_ppr,
)

# Synthetic fixture: a dense core of 40 nodes plus 200 spokes hanging off
# random core members, so most of the graph is 1 hop from the core but
# contributes nothing to walks between core nodes.
rng = random.Random(7)
core = [f"core{i}" for i in range(40)]
triples = []
for i, node in enumerate(core):
    for _ in range(3):
        triples.append((node, "linked", rng.choice(core[:i] + core[i + 1 :])))
for j in range(200):
    triples.append((rng.choice(core), "decorates", f"spoke{j}"))
g = KnowledgeGraph.from_triples(triples)
print("full graph:", len(g.entities), "nodes /", len(g.triples), "triples")

# Step 1: the 2-hop ball around two seeds.
seeds = ["core0", "core1"]
ball = khop_subgraph(g, seeds, hops=2)
print("2-hop ball:", len(ball.entities), "nodes")

# Step 2: walk scores.  The restart mass (1 - alpha) keeps the walker
# near the seeds; spokes receive only leaked probability.
scores = personalized_pagerank(ball, seeds, PprConfig(alpha=0.85)).scores
top = sorted(scores, key=lambda v: -scores[v])[:5]
print("highest scores:", [(v, round(scores[v], 4)) for v in top])

pruned = prune_by_ppr(ball, scores, threshold=1e-3)
print("after pruning at 1e-3:", len(pruned.entities), "nodes")

# Or do both steps in one call with the library defaults.
sub = extract_and_prune(g, seeds, hops=2)
print("extract_and_prune:", len(sub.entities), "nodes /", len(sub.triples), "triples")
