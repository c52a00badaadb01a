"""Record file formats, canonical serialization, and K-hop extraction.

Two line-oriented triple formats are supported:

* ``tsv``: ``subject<TAB>relation<TAB>object`` per line, UTF-8, no quoting.
* ``nt``: an N-Triples subset where all three terms are IRIs in angle
  brackets and each statement ends with `` .``.  Literal objects are
  rejected (this library stores entity-to-entity edges only).

Canonical serialization is the TSV format with triples in lexicographic
order, so serializing the same graph always yields identical bytes.
Isolated entities have no representation in the triple formats and are
dropped on a serialize/parse round trip.  Every other kgr record file is
JSONL, written by :func:`jsonl_line` and read by :func:`jsonl_records`.
"""

from __future__ import annotations

import json
import re
from typing import IO, Iterable, Iterator, Sequence

import numpy as np

from .graph import EntityNotFoundError, KnowledgeGraph, Triple

FORMAT_TSV = "tsv"
FORMAT_NT = "nt"
FORMATS = (FORMAT_TSV, FORMAT_NT)
DEFAULT_HOPS = 2  # K-hop budget of extraction

_NT_LINE = re.compile(
    r"^<([^<>\s]+)>\s+<([^<>\s]+)>\s+<([^<>\s]+)>\s*\.$"
)


class ParseError(ValueError):
    """Malformed input line; carries the 1-based line number."""

    def __init__(self, message: str, line_number: int | None = None):
        self.line_number = line_number
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)


def _decode(source: str | bytes | IO) -> str:
    if isinstance(source, str):
        return source
    if isinstance(source, bytes):
        try:
            return source.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"input is not valid UTF-8: {exc}") from exc
    data = source.read()
    return _decode(data)


def _parse_tsv_line(line: str, lineno: int) -> Triple:
    fields = line.split("\t")
    if len(fields) != 3:
        raise ParseError(
            f"expected 3 tab-separated fields, got {len(fields)}", lineno
        )
    s, r, o = fields
    if not s or not r or not o:
        raise ParseError("empty field in triple", lineno)
    return Triple(s, r, o)


def _parse_nt_line(line: str, lineno: int) -> Triple:
    m = _NT_LINE.match(line)
    if not m:
        if '"' in line:
            raise ParseError("literal terms are not supported", lineno)
        raise ParseError("not a valid IRI triple statement", lineno)
    return Triple(m.group(1), m.group(2), m.group(3))


def parse_triples(source: str | bytes | IO, fmt: str = FORMAT_TSV) -> KnowledgeGraph:
    """Parse a triple file into a graph, deduplicating exact repeats.

    ``source`` may be text, bytes, or a file-like object.  Blank lines are
    skipped; ``nt`` additionally skips ``#`` comment lines.  The first
    malformed line raises :class:`ParseError` with its line number.
    """
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r}; expected one of {FORMATS}")
    text = _decode(source)
    triples: list[Triple] = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.rstrip("\r")
        if fmt == FORMAT_TSV:
            if not line.strip():
                continue
            triples.append(_parse_tsv_line(line, lineno))
        else:
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            triples.append(_parse_nt_line(stripped, lineno))
    return KnowledgeGraph.from_triples(triples)


def serialize(g: KnowledgeGraph) -> str:
    """Canonical TSV serialization: sorted triples, LF line endings."""
    return "".join(f"{t.subject}\t{t.relation}\t{t.object}\n" for t in g.triples)


def read_graph(path: str, fmt: str = FORMAT_TSV) -> KnowledgeGraph:
    """:func:`parse_triples` on the file at ``path``; errors name the path."""
    with open(path, "rb") as fh:
        try:
            return parse_triples(fh, fmt)
        except ParseError as exc:
            exc.args = (f"{path}: {exc}",)
            raise


def jsonl_line(record) -> str:
    """One JSONL line with sorted keys and no spaces: equal records, equal bytes."""
    return json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"


def jsonl_records(lines: Iterable[str], source: str) -> Iterator[tuple[int, dict]]:
    """Yield ``(lineno, record)`` per JSON object line, skipping blank and
    ``{"record_type": "header", ...}`` lines.  A line that is not a JSON
    object raises ``ValueError`` starting with ``<source>:<lineno>:``."""
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{source}:{lineno}: not valid JSON: {exc}") from None
        if not isinstance(record, dict):
            raise ValueError(f"{source}:{lineno}: each record must be a JSON object")
        if record.get("record_type") != "header":
            yield lineno, record


def is_id_list(value, length: int | None = None) -> bool:
    """Whether a JSON value is a list of non-empty strings (``length`` of them, if given)."""
    sized = isinstance(value, list) and length in (None, len(value))
    return sized and all(isinstance(x, str) and x for x in value)


def json_triple(value) -> Triple:
    """The triple a JSON record stores as ``[s, r, o]``; any other value
    (a string, a list of other length or with a non-string or empty
    member) raises ``ValueError``."""
    if not is_id_list(value, 3):
        raise ValueError(f"a triple must be a list of three non-empty strings, not {value!r}")
    return Triple(*value)


def read_queries(path: str) -> list[dict]:
    """Read a queries JSONL file into ``{"id", "question", "seeds"}`` dicts.

    Ids are unique and usable as file names (no ``/`` or ``\\``, not ``.``
    or ``..``): extract and retrieve name per-query files after them.  A bad
    record raises ``ValueError`` naming ``path:line``."""
    queries: list[dict] = []
    seen_ids: set[str] = set()
    with open(path, encoding="utf-8") as fh:
        for lineno, rec in jsonl_records(fh, path):
            qid = rec.get("id")
            question = rec.get("question")
            if not isinstance(qid, str) or not qid:
                raise ValueError(f"{path}:{lineno}: missing string field 'id'")
            if qid in (".", "..") or "/" in qid or "\\" in qid:
                raise ValueError(f"{path}:{lineno}: query id {qid!r} is not a usable file name")
            if qid in seen_ids:
                raise ValueError(f"{path}:{lineno}: duplicate query id {qid!r}")
            seen_ids.add(qid)
            if not isinstance(question, str) or not question.strip():
                raise ValueError(f"{path}:{lineno}: missing string field 'question'")
            seeds = rec.get("seeds", [])
            if not is_id_list(seeds):
                raise ValueError(f"{path}:{lineno}: 'seeds' must be a list of ids")
            queries.append({"id": qid, "question": question, "seeds": seeds})
    if not queries:
        raise ValueError(f"{path}: no queries found")
    return queries


def khop_subgraph(g: KnowledgeGraph, seeds: Sequence[str], hops: int = DEFAULT_HOPS) -> KnowledgeGraph:
    """Neighborhood of the seeds within ``hops`` undirected steps.

    A triple is kept exactly when both endpoints lie within the hop budget
    of some seed.  Seeds are always part of the result, even when no triple
    survives.  Raises ``ValueError`` on an empty seed list or a negative
    hop budget and ``EntityNotFoundError`` on unknown seeds.

    Each hop is one vectorized step over the graph's endpoint arrays
    (:attr:`KnowledgeGraph.endpoint_ids`).  They are cached on the
    immutable graph, so many extractions from one graph build them once.
    """
    if not seeds:
        raise ValueError("at least one seed entity is required")
    if hops < 0:
        raise ValueError("hops must be >= 0")
    index = g.entity_index
    for seed in seeds:
        if seed not in index:
            raise EntityNotFoundError(seed)
    subjects, objects = g.endpoint_ids
    ball = np.zeros(len(index), dtype=bool)
    ball[[index[seed] for seed in seeds]] = True
    for _ in range(hops):
        touch = np.flatnonzero(ball[subjects] | ball[objects])
        ball[subjects[touch]] = True
        ball[objects[touch]] = True
    # Every ball member but a seed is an endpoint of a kept triple.
    return g._induced(ball[subjects] & ball[objects], ball)
