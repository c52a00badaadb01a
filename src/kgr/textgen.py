"""Prompt building from retrieved knowledge and answer generation.

The prompt template is plain text with two slots, ``{question}`` and
``{retrieved_knowledge}``, each of which must occur exactly once in the
body.  Slot filling is literal (user text is never re-parsed), so braces
inside a question survive the round trip untouched.

Answer generation POSTs ``{"prompt", "temperature", "top_p"}`` to an
HTTP endpoint that replies ``{"text": ...}``; transient failures are
retried with exponential backoff and at most four requests are kept in
flight at once.
"""

from __future__ import annotations

import functools
import re
import threading
import time
from dataclasses import dataclass, field
from importlib import resources

from .retrieval import RetrievedKnowledge, ScoredPath
from .transport import (
    DEFAULT_BACKOFF,
    DEFAULT_MAX_ATTEMPTS,
    DEFAULT_TIMEOUT,
    TransportError,
    post_json,
)

GEN_URL_ENV = "KGR_GEN_URL"
GEN_TOKEN_ENV = "KGR_GEN_TOKEN"

QUESTION_SLOT = "{question}"
KNOWLEDGE_SLOT = "{retrieved_knowledge}"

DEFAULT_TEMPERATURE = 0.7
DEFAULT_TOP_P = 1.0
DEFAULT_MAX_IN_FLIGHT = 4

_SLOT_RE = re.compile(r"\{(question|retrieved_knowledge)\}")


class TemplateError(ValueError):
    """Template is missing a slot or repeats one."""


class EmptyAnswerError(TransportError):
    """The endpoint answered with an empty completion."""


@dataclass(frozen=True)
class PromptTemplate:
    """System text plus a body pattern carrying the two slots."""

    system_text: str
    body_pattern: str

    def __post_init__(self) -> None:
        for slot in (QUESTION_SLOT, KNOWLEDGE_SLOT):
            count = self.body_pattern.count(slot)
            if count != 1:
                raise TemplateError(
                    f"body must contain {slot} exactly once, found {count}"
                )

    @classmethod
    @functools.cache
    def default(cls) -> "PromptTemplate":
        """The package's template, read once per process and then shared
        (a template is immutable)."""
        pkg = resources.files(__package__) / "templates"
        return cls(
            system_text=(pkg / "default_system.txt").read_text("utf-8").strip("\n"),
            body_pattern=(pkg / "default_body.txt").read_text("utf-8").strip("\n"),
        )

    @classmethod
    def from_files(cls, system_path: str, body_path: str) -> "PromptTemplate":
        with open(system_path, encoding="utf-8") as fh:
            system_text = fh.read().strip("\n")
        with open(body_path, encoding="utf-8") as fh:
            body_pattern = fh.read().strip("\n")
        return cls(system_text=system_text, body_pattern=body_pattern)


def _render_path(path: ScoredPath) -> str:
    if not path.edges:
        return path.nodes[0]
    parts = [path.nodes[0]]
    for node, edge in zip(path.nodes[1:], path.edges):
        parts.append(f" —{edge.relation}→ {node}")
    return "".join(parts)


def render_knowledge(z: RetrievedKnowledge) -> str:
    """One line per retrieved item.

    Triples render as ``(s, r, o)``; paths as ``a —r→ b`` chains in score
    order; a subgraph renders its triple list in canonical order.
    """
    if z.triplets is not None:
        return "\n".join(
            f"({t.subject}, {t.relation}, {t.object})" for t, _ in z.triplets
        )
    if z.paths is not None:
        return "\n".join(_render_path(p) for p in z.paths)
    assert z.subgraph is not None
    return "\n".join(
        f"({t.subject}, {t.relation}, {t.object})"
        for t in z.subgraph.subgraph.triples
    )


def build_prompt(
    question: str,
    knowledge: RetrievedKnowledge | str,
    template: PromptTemplate | None = None,
) -> str:
    """Fill the template slots and prepend the system text.

    ``knowledge`` may be pre-rendered text or a retrieval result.  Slot
    filling is a split-and-join over the pattern, so braces inside the
    question or the facts are preserved verbatim.
    """
    if template is None:
        template = PromptTemplate.default()
    rendered = (
        knowledge if isinstance(knowledge, str) else render_knowledge(knowledge)
    )
    values = {"question": question, "retrieved_knowledge": rendered}
    parts = _SLOT_RE.split(template.body_pattern)
    body = "".join(
        values[piece] if i % 2 else piece for i, piece in enumerate(parts)
    )
    return f"{template.system_text}\n\n{body}"


@dataclass(frozen=True)
class GeneratedAnswer:
    text: str
    model_id: str
    latency_s: float
    retries: int


@dataclass
class GenerationClient:
    """Client for the generation endpoint with an in-flight cap."""

    url: str
    token: str | None = None
    temperature: float = DEFAULT_TEMPERATURE
    top_p: float = DEFAULT_TOP_P
    timeout: float = DEFAULT_TIMEOUT
    max_attempts: int = DEFAULT_MAX_ATTEMPTS
    backoff: float = DEFAULT_BACKOFF
    max_in_flight: int = DEFAULT_MAX_IN_FLIGHT
    _gate: threading.Semaphore = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not self.url:
            raise ValueError("generation endpoint URL is required")
        if self.max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1")
        self._gate = threading.Semaphore(self.max_in_flight)

    def generate(self, prompt: str) -> GeneratedAnswer:
        """POST the prompt and return the completion.

        Raises :class:`TransportError` (with the attempt count) when the
        endpoint keeps failing or its reply has no ``text``, and
        :class:`EmptyAnswerError` when it succeeds with an empty completion.
        """
        payload = {
            "prompt": prompt,
            "temperature": self.temperature,
            "top_p": self.top_p,
        }
        start = time.perf_counter()
        with self._gate:
            body, retries = post_json(
                self.url,
                payload,
                token=self.token,
                timeout=self.timeout,
                max_attempts=self.max_attempts,
                backoff=self.backoff,
            )
        latency = time.perf_counter() - start
        text = body.get("text")
        if not isinstance(text, str):
            raise TransportError(
                "malformed generation response: missing 'text'", attempts=retries + 1
            )
        if not text.strip():
            raise EmptyAnswerError("endpoint returned an empty completion", attempts=retries + 1)
        return GeneratedAnswer(
            text=text,
            model_id=str(body.get("model", "")),
            latency_s=latency,
            retries=retries,
        )
