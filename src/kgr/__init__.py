"""Knowledge-graph retrieval and robustness toolkit.

Pipeline pieces: K-hop extraction and personalized-PageRank pruning,
prize-based retrieval of triples / paths / connected subgraphs, seeded
graph perturbations with replayable edit logs, and similarity metrics
between an original graph and a perturbed one.
"""

from .graph import (
    EntityNotFoundError,
    GraphStats,
    KnowledgeGraph,
    RelationNotFoundError,
    Triple,
    graph_stats,
    relation_subgraph,
)
from .ingest import (
    FORMAT_NT,
    FORMAT_TSV,
    ParseError,
    khop_subgraph,
    parse_triples,
    read_graph,
    read_queries,
    serialize,
)
from .metrics import (
    BaselineEdgeScorer,
    SimilarityReport,
    ats,
    compare,
    fit_baseline_scorer,
    sc2d,
    sd2,
)
from .perturb import (
    EditRecord,
    METHODS,
    PerturbationSpec,
    PerturbedGraph,
    perturb,
    replay_edit_log,
)
from .ppr import PprConfig, PprScores, extract_and_prune, personalized_pagerank, prune_by_ppr
from .relevance import (
    HashedBagEmbedder,
    PrizeAssignment,
    ServiceEmbedder,
    assign_prizes,
    rank_elements,
    rank_graph_elements,
    verbalize_element,
)
from .retrieval import (
    RetrievedKnowledge,
    ScoredPath,
    ScoredSubgraph,
    VARIANTS,
    brute_force_best_path,
    brute_force_best_subgraph,
    retrieve,
    retrieve_paths,
    retrieve_subgraph_pcst,
    retrieve_triplets,
)
from .sweep import retrieve_for_question, run_sweep
from .textgen import (
    GeneratedAnswer,
    GenerationClient,
    EmptyAnswerError,
    PromptTemplate,
    TemplateError,
    build_prompt,
    render_knowledge,
)
from .transport import TransportError

__version__ = "0.1.0"

__all__ = [
    "BaselineEdgeScorer",
    "EditRecord",
    "EmptyAnswerError",
    "EntityNotFoundError",
    "FORMAT_NT",
    "FORMAT_TSV",
    "GeneratedAnswer",
    "GenerationClient",
    "GraphStats",
    "HashedBagEmbedder",
    "KnowledgeGraph",
    "METHODS",
    "ParseError",
    "PerturbationSpec",
    "PerturbedGraph",
    "PprConfig",
    "PprScores",
    "PrizeAssignment",
    "PromptTemplate",
    "RelationNotFoundError",
    "RetrievedKnowledge",
    "ScoredPath",
    "ScoredSubgraph",
    "ServiceEmbedder",
    "SimilarityReport",
    "TemplateError",
    "TransportError",
    "Triple",
    "VARIANTS",
    "assign_prizes",
    "ats",
    "brute_force_best_path",
    "brute_force_best_subgraph",
    "build_prompt",
    "compare",
    "extract_and_prune",
    "fit_baseline_scorer",
    "graph_stats",
    "khop_subgraph",
    "parse_triples",
    "personalized_pagerank",
    "perturb",
    "prune_by_ppr",
    "rank_elements",
    "rank_graph_elements",
    "read_graph",
    "read_queries",
    "relation_subgraph",
    "render_knowledge",
    "replay_edit_log",
    "retrieve",
    "retrieve_for_question",
    "retrieve_paths",
    "retrieve_subgraph_pcst",
    "retrieve_triplets",
    "run_sweep",
    "sc2d",
    "sd2",
    "serialize",
    "verbalize_element",
]
