"""Deterministic synthetic inputs for the kgr benchmark.

One generator serves every workload.  Every entity is the subject of
the same number of triples while objects have Zipf-like popularity, so a
few entities become hubs as in real knowledge graphs.  Labels are built from words (``iron_tower_812``)
so the hashed bag-of-words embedder sees shared tokens between the
question and the graph.  Equal arguments give identical bytes.
"""

from __future__ import annotations

import itertools
import json
import random

ADJECTIVES = (
    "iron", "amber", "silent", "northern", "golden", "hollow", "crimson",
    "ancient", "lunar", "coastal", "frozen", "royal", "hidden", "swift",
    "emerald", "dusty", "bright", "stone", "velvet", "western",
)
NOUNS = (
    "tower", "river", "harbor", "castle", "forest", "bridge", "temple",
    "market", "valley", "archive", "garden", "station", "mill", "abbey",
    "canyon", "island", "library", "forge", "meadow", "citadel",
)
VERBS = (
    "located", "founded", "owned", "built", "ruled", "named", "linked",
    "traded", "guarded", "mapped", "funded", "visited", "bordered",
    "supplied", "governed", "inspired", "painted", "studied", "restored",
    "claimed",
)
PREPOSITIONS = ("in", "by", "with", "near")
QUESTION_STEMS = (
    "what is {a} {rel}",
    "which places are {rel} {a}",
    "how is {a} connected to {b}",
    "tell me what {a} was {rel}",
)

# Popularity exponent of object endpoints; 1.0 is the classic Zipf law.
ZIPF_EXPONENT = 1.0
# Entities with more than this many times the mean degree count as hubs.
HUB_FACTOR = 4.0
# Largest walk region (triples) a qa question may span.
MAX_WALK_REGION = 400


def entity_labels(n: int, rng: random.Random) -> list[str]:
    words = [f"{a}_{b}" for a, b in itertools.product(ADJECTIVES, NOUNS)]
    return [f"{rng.choice(words)}_{i}" for i in range(n)]


def relation_labels(n: int) -> list[str]:
    combos = [f"{v}_{p}" for p in PREPOSITIONS for v in VERBS]
    if n > len(combos):
        raise ValueError(f"at most {len(combos)} relations")
    return combos[:n]


def _zipf_counts(n: int, total: int) -> list[int]:
    """Split ``total`` over ``n`` ranks in proportion to 1/rank**ZIPF_EXPONENT
    (largest-remainder rounding, so the counts sum to ``total``)."""
    weights = [1.0 / (rank ** ZIPF_EXPONENT) for rank in range(1, n + 1)]
    scale = total / sum(weights)
    raw = [w * scale for w in weights]
    counts = [int(x) for x in raw]
    by_remainder = sorted(range(n), key=lambda i: (counts[i] - raw[i], i))
    for i in by_remainder[: total - sum(counts)]:
        counts[i] += 1
    return counts


def make_graph(
    seed: int, n_entities: int, n_triples: int, n_relations: int
) -> list[tuple[str, str, str]]:
    """Return ``n_triples`` distinct sorted triples without self-loops.

    The degree sequences are fixed and only the wiring depends on
    ``seed`` (a configuration model): every entity is the subject of
    ``n_triples / n_entities`` triples (give or take one), object and
    relation counts follow a Zipf law, and the seed decides which entity
    holds which popularity rank and how the endpoints pair up.  Fixed
    degree sequences keep the graphs of different seeds equally hard.
    """
    rng = random.Random(seed)
    entities = entity_labels(n_entities, rng)
    relations = relation_labels(n_relations)
    popular = entities[:]
    rng.shuffle(popular)
    objects = [e for e, c in zip(popular, _zipf_counts(n_entities, n_triples)) for _ in range(c)]
    labels = [r for r, c in zip(relations, _zipf_counts(n_relations, n_triples)) for _ in range(c)]
    subjects = [entities[i % n_entities] for i in range(n_triples)]
    rng.shuffle(subjects)
    rng.shuffle(labels)
    def ok(t):
        return t[0] != t[2] and t not in triples

    triples: set[tuple[str, str, str]] = set()
    for i in range(n_triples):
        for _ in range(1000):
            t = (subjects[i], labels[i], objects[i])
            if ok(t):
                break
            # Collision (self-loop or duplicate): trade subjects with another
            # slot; a slot already paired must stay valid after the trade.
            j = rng.randrange(n_triples)
            if j < i:
                old = (subjects[j], labels[j], objects[j])
                new = (subjects[i], labels[j], objects[j])
                if not ok(new):
                    continue
                triples.remove(old)
                triples.add(new)
            subjects[i], subjects[j] = subjects[j], subjects[i]
        else:
            raise ValueError("could not wire the degree sequences without collisions")
        triples.add(t)
    return sorted(triples)


def to_tsv(triples: list[tuple[str, str, str]]) -> str:
    return "".join(f"{s}\t{r}\t{o}\n" for s, r, o in triples)


def _question(rng: random.Random, small: set[str], candidates: list[str], incident) -> dict:
    a = rng.choice(candidates)
    s, r, o = rng.choice(incident[a])
    b = o if s == a else s
    seeds = [a, b] if b in small and rng.random() < 0.5 else [a]
    stem = rng.choice(QUESTION_STEMS)
    question = stem.format(
        a=a.replace("_", " "), b=b.replace("_", " "), rel=r.replace("_", " ")
    )
    return {"question": question, "seeds": seeds}


def _walk_region(seeds: list[str], incident, out_edges) -> int:
    """Triples among the entities a directed walk from ``seeds`` reaches
    inside their undirected 2-hop ball.  PPR pruning keeps about this
    region, so it predicts a question's cost without running the program."""
    ball = set(seeds)
    for _ in range(2):
        ball |= {end for v in list(ball) for t in incident[v] for end in (t[0], t[2])}
    seen = set(seeds)
    stack = list(seeds)
    while stack:
        for w in out_edges.get(stack.pop(), ()):
            if w in ball and w not in seen:
                seen.add(w)
                stack.append(w)
    return sum(1 for v in seen for w in out_edges.get(v, ()) if w in seen)


def make_queries(seed: int, triples: list[tuple[str, str, str]], count: int) -> list[dict]:
    """``count`` random questions about 1-2 seed entities, neither a hub.

    The question text reuses the seeds' label words and one of their
    relations, so ranking has real lexical overlap to find.  Questions
    whose walk region (see ``_walk_region``) exceeds ``MAX_WALK_REGION``
    triples are redrawn, as a hub seed would be: ``retrieve_paths`` is
    unbounded on large neighbourhoods.  This is the known defect disclosed
    in ``workloads.json``.
    """
    rng = random.Random(seed ^ 0x5EED)
    incident: dict[str, list[tuple[str, str, str]]] = {}
    out_edges: dict[str, list[str]] = {}
    for t in triples:
        incident.setdefault(t[0], []).append(t)
        incident.setdefault(t[2], []).append(t)
        out_edges.setdefault(t[0], []).append(t[2])
    mean_degree = 2.0 * len(triples) / len(incident)
    small = {e for e, ts in incident.items() if len(ts) <= HUB_FACTOR * mean_degree}
    candidates = sorted(small)
    queries: list[dict] = []
    for _ in range(100 * count):
        q = _question(rng, small, candidates, incident)
        if _walk_region(q["seeds"], incident, out_edges) <= MAX_WALK_REGION:
            queries.append({"id": f"q{len(queries)}", **q})
            if len(queries) == count:
                return queries
    raise ValueError("graph too dense for the walk-region cap")


def queries_jsonl(queries: list[dict]) -> str:
    return "".join(json.dumps(q, sort_keys=True) + "\n" for q in queries)
