"""
Three shapes of retrieved knowledge: triples, paths, one subgraph
=================================================================

A question induces prizes on graph elements (top-ranked nodes and edges
earn k, k-1, ... 1); each retrieval variant then collects prize mass in
its own shape.  Without an embedding service the ranking falls back to
a deterministic hashed bag-of-words embedder.
"""

from kgr import (
    assign_prizes,
    parse_triples,
    rank_graph_elements,
    render_knowledge,
    retrieve,
)

g = parse_triples(
    """\
solar_panel\tconverts\tsunlight
solar_panel\tproduces\tdirect_current
inverter\tconverts\tdirect_current
inverter\tproduces\talternating_current
alternating_current\tpowers\thome
battery\tstores\tdirect_current
grid\tsupplies\talternating_current
coal_plant\tsupplies\tgrid
"""
)

question = "how does a solar panel power a home"
ranked_nodes, ranked_edges = rank_graph_elements(g, question)
print("top nodes for the question:", ranked_nodes[:4])

prizes = assign_prizes(ranked_nodes, ranked_edges, k=8, edge_cost=1.0)

# Variant 1: the n highest-prize triples, independent of structure.
triplets = retrieve(g, prizes, variant="triplets", n=4)
print("\n-- triplets --")
print(render_knowledge(triplets))

# Variant 2: enumerated paths, best n kept: every simple path from the
# highest-prize start nodes, scored by prizes collected minus edge costs.
paths = retrieve(g, prizes, variant="paths", n=3)
print("\n-- paths --")
print(render_knowledge(paths))

# Variant 3: one connected subgraph balancing prizes against edge costs
# (a prize-collecting Steiner tree style trade-off).
subgraph = retrieve(g, prizes, variant="subgraph")
print("\n-- subgraph --")
print(render_knowledge(subgraph))
print("subgraph score:", subgraph.subgraph.score)
