"""
Building a knowledge graph and reading its statistics
======================================================

"""

# A graph is just a set of (subject, relation, object) triples; the TSV
# form is one triple per line.
from dataclasses import asdict

from kgr import KnowledgeGraph, graph_stats, khop_subgraph, parse_triples

TSV = """\
tesla\tfounded_by\telon_musk
tesla\tindustry\tautomotive
tesla\tproduct\tmodel_s
model_s\ttype\telectric_car
electric_car\tuses\tbattery
battery\tmade_of\tlithium
spacex\tfounded_by\telon_musk
"""

g = parse_triples(TSV)
print(f"{len(g.entities)} entities, {len(g.relations)} relations, {len(g.triples)} triples")

# Triples are stored deduplicated and sorted, so two graphs built from
# the same facts in any order compare equal.
same = KnowledgeGraph.from_triples(reversed(g.triples))
print("order-independent:", same == g)

# 1-hop neighborhoods ignore edge direction.
print("around elon_musk:", sorted(khop_subgraph(g, ["elon_musk"], 1).entities - {"elon_musk"}))

# Whole-graph statistics: counts, mean degree, clustering, density.
stats = graph_stats(g)
for key, value in asdict(stats).items():
    print(f"  {key}: {value}")
