"""Prompt templates, knowledge rendering, and the generation client."""

from __future__ import annotations

import threading
import time
from importlib import resources

import pytest

from kgr.graph import Triple
from kgr.retrieval import RetrievedKnowledge, ScoredPath, ScoredSubgraph
from kgr.graph import KnowledgeGraph
from kgr.textgen import (
    EmptyAnswerError,
    GenerationClient,
    PromptTemplate,
    TemplateError,
    build_prompt,
    render_knowledge,
)
from kgr.transport import TransportError, post_json
from conftest import echo_generation_behavior


def knowledge_triplets():
    return RetrievedKnowledge(
        variant="triplets",
        prize_k=15,
        edge_cost=1.0,
        triplets=(
            (Triple("Tesla", "founded_by", "Elon_Musk"), 20.0),
            (Triple("Tesla", "industry", "automotive"), 12.0),
        ),
    )


class TestTemplates:
    def test_default_template_has_both_slots_once(self):
        tpl = PromptTemplate.default()
        assert tpl.body_pattern.count("{question}") == 1
        assert tpl.body_pattern.count("{retrieved_knowledge}") == 1
        assert tpl.system_text

    def test_default_template_is_read_once_with_the_files_bytes(self):
        pkg = resources.files("kgr") / "templates"
        on_disk = PromptTemplate.from_files(str(pkg / "default_system.txt"), str(pkg / "default_body.txt"))
        assert PromptTemplate.default() is PromptTemplate.default()
        assert PromptTemplate.default() == on_disk
        assert build_prompt("q?", "facts") == build_prompt("q?", "facts", on_disk)

    def test_missing_or_duplicate_slots_rejected(self):
        with pytest.raises(TemplateError):
            PromptTemplate(system_text="s", body_pattern="{question} only")
        with pytest.raises(TemplateError):
            PromptTemplate(system_text="s", body_pattern="{retrieved_knowledge} only")
        with pytest.raises(TemplateError):
            PromptTemplate(
                system_text="s",
                body_pattern="{question} {question} {retrieved_knowledge}",
            )

    def test_from_files(self, tmp_path):
        sys_p = tmp_path / "sys.txt"
        body_p = tmp_path / "body.txt"
        sys_p.write_text("SYSTEM", encoding="utf-8")
        body_p.write_text("Q: {question}\nK: {retrieved_knowledge}\n", encoding="utf-8")
        tpl = PromptTemplate.from_files(str(sys_p), str(body_p))
        prompt = build_prompt("why?", "fact one", tpl)
        assert prompt == "SYSTEM\n\nQ: why?\nK: fact one"

    def test_braces_in_user_text_survive(self):
        tpl = PromptTemplate(
            system_text="s", body_pattern="Q {question} K {retrieved_knowledge}"
        )
        tricky = "what does {retrieved_knowledge} or {x} mean?"
        prompt = build_prompt(tricky, "knows {braces} too", tpl)
        assert prompt == "s\n\nQ what does {retrieved_knowledge} or {x} mean? K knows {braces} too"

    def test_build_prompt_deterministic(self):
        assert build_prompt("q", knowledge_triplets()) == build_prompt(
            "q", knowledge_triplets()
        )


class TestRendering:
    def test_triplets_render_one_per_line(self):
        text = render_knowledge(knowledge_triplets())
        assert text == (
            "(Tesla, founded_by, Elon_Musk)\n(Tesla, industry, automotive)"
        )

    def test_paths_render_as_arrow_chains(self):
        z = RetrievedKnowledge(
            variant="paths",
            prize_k=15,
            edge_cost=1.0,
            paths=(
                ScoredPath(
                    nodes=("A", "B", "C"),
                    edges=(Triple("A", "r1", "B"), Triple("C", "r2", "B")),
                    score=3.0,
                ),
                ScoredPath(nodes=("D",), edges=(), score=1.0),
            ),
        )
        assert render_knowledge(z) == "A —r1→ B —r2→ C\nD"

    def test_subgraph_renders_canonical_triples(self):
        sub = KnowledgeGraph.from_triples([("b", "r", "c"), ("a", "r", "b")])
        z = RetrievedKnowledge(
            variant="subgraph",
            prize_k=15,
            edge_cost=1.0,
            subgraph=ScoredSubgraph(subgraph=sub, score=2.0),
        )
        assert render_knowledge(z) == "(a, r, b)\n(b, r, c)"

    def test_prompt_contains_question_and_facts(self):
        prompt = build_prompt("who founded Tesla?", knowledge_triplets())
        assert "who founded Tesla?" in prompt
        assert "(Tesla, founded_by, Elon_Musk)" in prompt
        assert prompt.index("who founded") > prompt.index("\n\n")


class TestGenerationClient:
    def test_echo_round_trip(self, mock_service):
        svc = mock_service(echo_generation_behavior)
        client = GenerationClient(url=svc.url, backoff=0.01)
        answer = client.generate("hello graph")
        assert answer.text.startswith("ECHO[11]:")
        assert answer.model_id == "echo-mock"
        assert answer.retries == 0
        assert answer.latency_s >= 0.0

    def test_payload_carries_sampling_parameters(self, mock_service):
        seen = {}

        def behavior(payload):
            seen.update(payload)
            return 200, {"text": "ok"}

        svc = mock_service(behavior)
        GenerationClient(url=svc.url, temperature=0.2, top_p=0.9).generate("p")
        assert seen == {"prompt": "p", "temperature": 0.2, "top_p": 0.9}

    def test_bearer_token_forwarded(self, mock_service):
        svc = mock_service(lambda payload: (200, {"text": "ok"}))
        GenerationClient(url=svc.url, token="sekrit").generate("p")
        assert svc.last_auth == "Bearer sekrit"

    def test_retries_then_succeeds(self, mock_service):
        state = {"n": 0}

        def behavior(payload):
            state["n"] += 1
            if state["n"] <= 2:
                return 500, {"error": "flaky"}
            return 200, {"text": "recovered", "model": "m"}

        svc = mock_service(behavior)
        answer = GenerationClient(url=svc.url, backoff=0.01).generate("p")
        assert answer.text == "recovered"
        assert answer.retries == 2
        assert svc.calls == 3

    def test_persistent_failure_counts_attempts(self, mock_service):
        svc = mock_service(lambda payload: (503, {"error": "down"}))
        client = GenerationClient(url=svc.url, backoff=0.01)
        with pytest.raises(TransportError) as exc_info:
            client.generate("p")
        assert exc_info.value.attempts == 3
        assert svc.calls == 3

    def test_empty_completion_is_its_own_error(self, mock_service):
        svc = mock_service(lambda payload: (200, {"text": "   "}))
        with pytest.raises(EmptyAnswerError):
            GenerationClient(url=svc.url, backoff=0.01).generate("p")

    def test_missing_text_field_fails(self, mock_service):
        svc = mock_service(lambda payload: (200, {"completion": "wrong key"}))
        with pytest.raises(TransportError):
            GenerationClient(url=svc.url, backoff=0.01).generate("p")

    def test_in_flight_cap_respected(self, mock_service):
        active = {"now": 0, "peak": 0}
        lock = threading.Lock()

        def behavior(payload):
            with lock:
                active["now"] += 1
                active["peak"] = max(active["peak"], active["now"])
            time.sleep(0.03)
            with lock:
                active["now"] -= 1
            return 200, {"text": "ok"}

        svc = mock_service(behavior)
        client = GenerationClient(url=svc.url, max_in_flight=3)
        threads = [
            threading.Thread(target=client.generate, args=(f"p{i}",))
            for i in range(9)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert svc.calls == 9
        assert active["peak"] <= 3

    def test_client_validation(self):
        with pytest.raises(ValueError):
            GenerationClient(url="")
        with pytest.raises(ValueError):
            GenerationClient(url="http://x", max_in_flight=0)


class TestTransport:
    def test_connection_refused_raises_transport_error(self):
        with pytest.raises(TransportError) as exc_info:
            post_json("http://127.0.0.1:9/", {}, timeout=0.2, backoff=0.01)
        assert exc_info.value.attempts == 3

    def test_non_object_json_body_rejected(self, mock_service):
        svc = mock_service(lambda payload: (200, ["a", "list"]))
        with pytest.raises(TransportError):
            post_json(svc.url, {}, backoff=0.01)

    @pytest.mark.parametrize("payload", [{"x": float("nan")}, {"x": [float("-inf")]}])
    def test_payload_that_is_not_json_raises_before_any_request(self, mock_service, payload):
        svc = mock_service(lambda payload: (200, {"fine": True}))
        with pytest.raises(ValueError, match="not JSON compliant"):
            post_json(svc.url, payload)
        assert svc.calls == 0

    @pytest.mark.parametrize("url", ["file:///dev/null", "127.0.0.1:9"])
    def test_url_that_is_not_http_raises_before_any_request(self, url):
        with pytest.raises(ValueError, match="http or https"):
            post_json(url, {})

    @pytest.mark.parametrize("code", [301, 302, 303, 307, 308])
    def test_redirect_is_reported_not_followed(self, mock_service, code):
        # Following would resend the bearer token to the host the reply names.
        target = mock_service(lambda payload: (200, {"fine": True}))
        source = mock_service(lambda payload: (code, {}, {"Location": target.url}))
        with pytest.raises(TransportError, match=f"HTTP {code}") as exc_info:
            post_json(source.url, {"x": 1}, token="secret", backoff=0.01)
        assert exc_info.value.attempts == source.calls == 3
        assert source.last_auth == "Bearer secret"
        assert target.calls == 0
        assert target.last_auth is None

    def test_success_returns_body_and_retry_count(self, mock_service):
        svc = mock_service(lambda payload: (200, {"fine": True}))
        body, retries = post_json(svc.url, {"x": 1})
        assert body == {"fine": True}
        assert retries == 0
