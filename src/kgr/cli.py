"""Command-line interface.

Subcommands: extract | retrieve | perturb | measure | sweep | generate |
stats.  A handler checks its options, reads the inputs, calls the library
and writes the outputs; ``retrieve`` and ``sweep`` share
:func:`kgr.sweep.retrieve_for_question`, whose settings are the seven
retrieval flags, and ``sweep`` runs :func:`kgr.sweep.run_sweep`.
argparse is the only option table: each flag is declared once,
with its type and default, and ``kgr <command> --help`` shows every
default.  Any option can also come from a YAML config file
(``--config``), keyed by its flag name with underscores; explicit flags
win over the file, the file wins over built-in defaults.  A config file
may hold flat keys and/or per-command sections::

    graph: data/graph.tsv
    sweep:
      methods: [edge_delete, edge_rewire]
      levels: [0.0, 0.5, 1.0]

Outputs are written atomically (temp file + rename) and are byte-stable
across reruns with equal inputs; wall-clock data goes to separate
metadata files.  Exit codes: 0 success, 2 configuration error, 3 sweep
finished with failed cells, 4 transport failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime as _dt
import json
import logging
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import yaml

from .graph import EntityNotFoundError, KnowledgeGraph, graph_stats
from .ingest import DEFAULT_HOPS, FORMAT_TSV, FORMATS, jsonl_line, read_graph, read_queries, serialize
from .metrics import compare
from .perturb import (
    METHODS,
    PerturbationSpec,
    PerturbedGraph,
    REPLACE_LEAST_PLAUSIBLE,
    REPLACE_MODES,
    edit_log_to_jsonl,
    normalize_method,
    perturb,
)
from .ppr import PprConfig, extract_and_prune
from .relevance import DEFAULT_EDGE_COST, DEFAULT_K, EMBED_TOKEN_ENV, EMBED_URL_ENV
from .relevance import HashedBagEmbedder, ServiceEmbedder
from .retrieval import DEFAULT_MAX_LEN, DEFAULT_START_COUNT, VARIANT_TRIPLETS, VARIANTS, read_retrieved
from .sweep import retrieve_for_question, run_sweep
from .textgen import (
    DEFAULT_TEMPERATURE,
    DEFAULT_TOP_P,
    GEN_TOKEN_ENV,
    GEN_URL_ENV,
    GenerationClient,
    PromptTemplate,
    build_prompt,
)
from .transport import DEFAULT_BACKOFF, DEFAULT_MAX_ATTEMPTS, DEFAULT_TIMEOUT, TransportError

logger = logging.getLogger(__name__)


def _dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        _atomic_write(out_path, text)
    else:
        sys.stdout.write(text)


def _config_defaults(path: str, command: str) -> dict:
    """Parser defaults from a config file: flat keys plus the command's section.

    Scalars become strings and lists comma-joined strings, so config
    values pass through the same ``type=`` casts as flags; booleans stay
    as they are and null keys are left out.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            cfg = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ValueError(f"config file is not valid YAML: {exc}")
    if cfg is None:
        return {}
    if not isinstance(cfg, dict):
        raise ValueError("config file must hold a mapping at the top level")
    section = cfg.get(command, {})
    if not isinstance(section, dict):
        raise ValueError(f"config section {command!r} must be a mapping")
    merged = {k: v for k, v in cfg.items() if not isinstance(v, dict)}
    merged.update(section)
    merged.pop("command", None)  # the subcommand comes from the command line only
    defaults = {}
    for key, value in merged.items():
        if isinstance(value, list):
            value = ",".join(map(str, value))
        if value is not None:
            defaults[str(key)] = value if isinstance(value, bool) else str(value)
    return defaults


def _need(args: argparse.Namespace, key: str):
    value = getattr(args, key)
    if value is None:
        raise ValueError(f"missing required option --{key.replace('_', '-')}")
    return value


def _embedder(args: argparse.Namespace):
    url = args.embed_url or os.environ.get(EMBED_URL_ENV)
    if url:
        token = args.embed_token or os.environ.get(EMBED_TOKEN_ENV) or None
        return ServiceEmbedder(url=url, token=token)
    return HashedBagEmbedder()


def _retrieval_settings(args: argparse.Namespace) -> dict:
    """The seven retrieval flags, as :func:`retrieve_for_question` reads them."""
    keys = ("variant", "k", "edge_cost", "n", "start_count", "max_len", "directed_only")
    return {key: getattr(args, key) for key in keys}


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_stats(args: argparse.Namespace) -> int:
    g = read_graph(_need(args, "graph"), args.format)
    _emit(_dump_json(dataclasses.asdict(graph_stats(g))), args.out)
    return 0


def _cmd_extract(args: argparse.Namespace) -> int:
    config = PprConfig(
        alpha=args.alpha,
        tol=args.tol,
        max_iter=args.max_iter,
        prune_threshold=args.prune_threshold,
    )
    g = read_graph(_need(args, "graph"), args.format)
    if (args.seeds is None) == (args.queries is None):
        raise ValueError("provide exactly one of --seeds or --queries")

    def run(seeds: list[str]) -> KnowledgeGraph:
        return extract_and_prune(g, seeds, args.hops, config, args.undirected)

    if args.seeds is not None:
        _emit(serialize(run(args.seeds)), args.out)
        return 0

    queries = read_queries(args.queries)
    out_dir = _need(args, "out")
    results = []
    for q in queries:
        if not q["seeds"]:
            raise ValueError(f"query {q['id']!r} has no seeds")
        results.append((q["id"], run(q["seeds"])))
    for qid, sub in results:
        _atomic_write(os.path.join(out_dir, f"{qid}.tsv"), serialize(sub))
    return 0


def _cmd_retrieve(args: argparse.Namespace) -> int:
    queries = read_queries(_need(args, "queries"))
    if (args.graph is None) == (args.graph_dir is None):
        raise ValueError("provide exactly one of --graph or --graph-dir")
    provider, settings = _embedder(args), _retrieval_settings(args)
    shared = read_graph(args.graph, args.format) if args.graph else None
    lines: list[str] = []
    for q in queries:
        if shared is not None:
            g = shared
        else:
            g = read_graph(os.path.join(args.graph_dir, f"{q['id']}.tsv"), args.format)
        result = retrieve_for_question(g, q["question"], provider, settings)
        record = {"id": q["id"], "question": q["question"], **result.to_json_dict()}
        lines.append(jsonl_line(record))
    _emit("".join(lines), args.out)
    return 0


def _perturb_and_warn(g: KnowledgeGraph, spec: PerturbationSpec, **options) -> PerturbedGraph:
    """:func:`perturb`, with one warning when edits were skipped, so a run
    without ``--edit-log`` still shows them."""
    result = perturb(g, spec, **options)
    if result.skipped_edits:
        logger.warning(
            "%d of %d %s edits skipped", result.skipped_edits, len(result.edit_log), spec.method
        )
    return result


def _cmd_perturb(args: argparse.Namespace) -> int:
    g = read_graph(_need(args, "graph"), args.format)
    spec = PerturbationSpec(
        method=_need(args, "method"), level=_need(args, "level"), seed=args.seed
    )
    result = _perturb_and_warn(g, spec, replace_mode=args.replace_mode)
    _emit(serialize(result.graph), args.out)
    if args.edit_log:
        header = jsonl_line({"record_type": "header", **dataclasses.asdict(spec)})
        _atomic_write(args.edit_log, header + edit_log_to_jsonl(result.edit_log))
    return 0


def _aligned_perturbed(g: KnowledgeGraph, gp: KnowledgeGraph) -> KnowledgeGraph:
    """Re-attach isolated entities lost by TSV round-tripping."""
    if gp.entities == g.entities:
        return gp
    if not gp.entities <= g.entities:
        extra = sorted(gp.entities - g.entities)[:3]
        raise ValueError(f"perturbed graph has entities unknown to the original, e.g. {extra}")
    return KnowledgeGraph.from_triples(gp.triples, extra_entities=g.entities)


def _cmd_measure(args: argparse.Namespace) -> int:
    g = read_graph(_need(args, "graph"), args.format)
    method, level, seed = args.method, args.level, args.seed
    if args.perturbed:
        gp = _aligned_perturbed(g, read_graph(args.perturbed, args.format))
    else:
        if method is None or level is None:
            raise ValueError("without --perturbed, both --method and --level are required")
        spec = PerturbationSpec(method=method, level=level, seed=seed)
        gp = _perturb_and_warn(g, spec).graph
        method, level, seed = spec.method, spec.level, spec.seed
    report = compare(g, gp)
    normalized = normalize_method(method) if method else None
    _emit(
        _dump_json(report.to_json_dict(method=normalized, level=level, seed=seed)),
        args.out,
    )
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    g = read_graph(_need(args, "graph"), args.format)
    queries = read_queries(_need(args, "queries"))
    out_dir = _need(args, "out")
    records, curves, meta = run_sweep(
        g, queries, methods=args.methods, levels=args.levels, num_seeds=args.num_seeds,
        root_seed=args.seed, settings=_retrieval_settings(args), provider=_embedder(args),
        replace_mode=args.replace_mode,
    )
    _atomic_write(os.path.join(out_dir, "records.jsonl"), "".join(map(jsonl_line, records)))
    _atomic_write(os.path.join(out_dir, "curves.csv"), "\n".join(curves) + "\n")
    _atomic_write(os.path.join(out_dir, "meta.json"), _dump_json(meta))
    if meta["failed_cells"]:
        logger.warning("%d of %d sweep cells failed", meta["failed_cells"], meta["cells"])
        return 3
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    retrieved_path = _need(args, "retrieved")
    url = args.gen_url or os.environ.get(GEN_URL_ENV)
    if not url:
        raise ValueError(f"generation endpoint required (--gen-url or {GEN_URL_ENV})")
    token = args.gen_token or os.environ.get(GEN_TOKEN_ENV) or None

    system_path, body_path = args.template_system, args.template_body
    if (system_path is None) != (body_path is None):
        raise ValueError("--template-system and --template-body go together")
    if system_path:
        template = PromptTemplate.from_files(system_path, body_path)
    else:
        template = PromptTemplate.default()

    prompts = [
        (qid, question, build_prompt(question, knowledge, template))
        for qid, question, knowledge in read_retrieved(retrieved_path)
    ]
    client = GenerationClient(
        url=url,
        token=token,
        temperature=args.temperature,
        top_p=args.top_p,
        timeout=args.timeout,
        max_attempts=args.max_attempts,
        backoff=args.backoff,
    )

    def answer_or_error(item):
        try:
            return client.generate(item[2])
        except TransportError as exc:
            return exc

    pool_size = min(client.max_in_flight, len(prompts))
    with ThreadPoolExecutor(max_workers=pool_size) as pool:
        answers = list(pool.map(answer_or_error, prompts))

    # A failed request gets an error record in its place, so the answers
    # that did arrive are kept; the run still exits 4.
    lines = []
    latencies = {}
    failed = []
    for (qid, question, prompt), answer in zip(prompts, answers):
        if isinstance(answer, TransportError):
            failed.append(f"{qid}: {answer}")
            record = {"id": qid, "question": question, "error": str(answer)}
        else:
            record = {
                "id": qid,
                "question": question,
                "prompt": prompt,
                "answer": answer.text,
                "model_id": answer.model_id,
                "retries": answer.retries,
            }
            latencies[qid] = answer.latency_s
        lines.append(jsonl_line(record))
    _emit("".join(lines), args.out)
    if args.out:
        meta = {
            "endpoint": url,
            "generated_utc": _dt.datetime.now(_dt.timezone.utc).isoformat(),
            "latencies_s": latencies,
        }
        _atomic_write(f"{args.out}.meta.json", _dump_json(meta))
    if failed:
        print(
            f"transport error: {len(failed)} of {len(prompts)} requests failed, "
            f"first {failed[0]}",
            file=sys.stderr,
        )
        return 4
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _comma_list(item):
    """argparse type: a comma-separated list of ``item`` values."""

    def comma_list(text: str) -> list:
        return [item(part.strip()) for part in text.split(",") if part.strip()]

    return comma_list


def build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The ``kgr`` parser and its subparsers by command name.

    Flags shared by several commands live in parent parsers, so each flag
    is declared once; a command accepts only the flags it reads.  Build a
    fresh parser per run: config defaults are set on the shared actions.
    """
    parser = argparse.ArgumentParser(
        prog="kgr",
        description="Knowledge-graph extraction, retrieval, perturbation, and metrics",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    subs = parser.add_subparsers(dest="command")

    def parent() -> argparse.ArgumentParser:
        return argparse.ArgumentParser(add_help=False)

    common = parent()
    common.add_argument("--config", help="YAML config file; flags override it")
    common.add_argument("--out", help="output file (or directory where noted)")
    graph_in = parent()
    graph_in.add_argument("--graph", help="input graph file")
    graph_in.add_argument(
        "--format", choices=FORMATS, default=FORMAT_TSV,
        help="input graph format (default %(default)s)",
    )
    seeded = parent()
    seeded.add_argument(
        "--seed", type=int, default=0,
        help="random seed; sweep derives its cell seeds from it (default %(default)s)",
    )
    queried = parent()
    queried.add_argument("--queries", help="queries JSONL")
    retrieval = parent()
    retrieval.add_argument(
        "--variant", choices=VARIANTS, default=VARIANT_TRIPLETS,
        help="retrieval variant (default %(default)s)",
    )
    retrieval.add_argument("--k", type=int, default=DEFAULT_K, help="prize depth (default %(default)s)")
    retrieval.add_argument(
        "--edge-cost", type=float, default=DEFAULT_EDGE_COST, help="uniform edge cost (default %(default)s)"
    )
    retrieval.add_argument("--n", type=int, help="triplets or paths returned (default k)")
    retrieval.add_argument(
        "--start-count", type=int, default=DEFAULT_START_COUNT, help="path start nodes (default %(default)s)"
    )
    retrieval.add_argument(
        "--max-len", type=int, default=DEFAULT_MAX_LEN, help="path length cap in edges (default %(default)s)"
    )
    retrieval.add_argument(
        "--directed-only", action="store_true", help="paths follow edge direction only"
    )
    retrieval.add_argument("--embed-url", help=f"embedding endpoint (default ${EMBED_URL_ENV})")
    retrieval.add_argument("--embed-token", help=f"bearer token (default ${EMBED_TOKEN_ENV})")
    damage = parent()
    damage.add_argument("--method", help="perturbation method: " + " | ".join(METHODS))
    damage.add_argument("--level", type=float, help="perturbation level in [0, 1]")
    replacing = parent()
    replacing.add_argument(
        "--replace-mode",
        choices=REPLACE_MODES,
        default=REPLACE_LEAST_PLAUSIBLE,
        help="relation_replace candidate order (default %(default)s)",
    )

    def command(name: str, help: str, *parents) -> argparse.ArgumentParser:
        return subs.add_parser(name, help=help, parents=[common, *parents])

    command("stats", "whole-graph statistics as JSON", graph_in)

    p = command("extract", "K-hop extraction plus PPR pruning", graph_in, queried)
    ppr = PprConfig()
    p.add_argument("--seeds", type=_comma_list(str), help="comma-separated seed entity ids")
    p.add_argument("--hops", type=int, default=DEFAULT_HOPS, help="hop budget (default %(default)s)")
    p.add_argument(
        "--alpha", type=float, default=ppr.alpha, help="restart weight (default %(default)s)"
    )
    p.add_argument(
        "--tol", type=float, default=ppr.tol, help="convergence tolerance (default %(default)s)"
    )
    p.add_argument(
        "--max-iter", type=int, default=ppr.max_iter, help="iteration cap (default %(default)s)"
    )
    p.add_argument(
        "--prune-threshold", type=float, default=ppr.prune_threshold,
        help="score cutoff (default %(default)s)",
    )
    p.add_argument("--undirected", action="store_true", help="walk ignores direction")

    p = command("retrieve", "prize-based knowledge retrieval", graph_in, queried, retrieval)
    p.add_argument("--graph-dir", help="directory of per-query <id>.tsv graphs")

    p = command("perturb", "apply one perturbation method", graph_in, seeded, damage, replacing)
    p.add_argument("--edit-log", help="write the edit log JSONL here")

    p = command("measure", "similarity metrics original vs perturbed", graph_in, seeded, damage)
    p.add_argument("--perturbed", help="perturbed graph file (else perturb inline)")

    p = command(
        "sweep", "method x level x seed perturbation grid, cells run serially",
        graph_in, seeded, queried, retrieval, replacing,
    )
    p.add_argument(
        "--methods", type=_comma_list(normalize_method), default=",".join(METHODS),
        help="comma-separated methods (default %(default)s)",
    )
    p.add_argument(
        "--levels", type=_comma_list(float), default="0.0,0.25,0.5,0.75,1.0",
        help="comma-separated levels (default %(default)s)",
    )
    p.add_argument("--num-seeds", type=int, default=5, help="seeds per cell (default %(default)s)")

    p = command("generate", "prompt building and answer generation")
    p.add_argument("--retrieved", help="JSONL produced by `kgr retrieve`")
    p.add_argument("--gen-url", help=f"generation endpoint (default ${GEN_URL_ENV})")
    p.add_argument("--gen-token", help=f"bearer token (default ${GEN_TOKEN_ENV})")
    p.add_argument("--template-system", help="system text file (default built-in)")
    p.add_argument("--template-body", help="body pattern file (default built-in)")
    p.add_argument(
        "--temperature", type=float, default=DEFAULT_TEMPERATURE,
        help="sampling temperature (default %(default)s)",
    )
    p.add_argument("--top-p", type=float, default=DEFAULT_TOP_P, help="nucleus mass (default %(default)s)")
    p.add_argument(
        "--timeout", type=float, default=DEFAULT_TIMEOUT,
        help="request timeout seconds (default %(default)s)",
    )
    p.add_argument(
        "--max-attempts", type=int, default=DEFAULT_MAX_ATTEMPTS,
        help="attempts per request (default %(default)s)",
    )
    p.add_argument(
        "--backoff", type=float, default=DEFAULT_BACKOFF,
        help="base backoff seconds (default %(default)s)",
    )
    return parser, subs.choices


_HANDLERS = {
    "stats": _cmd_stats,
    "extract": _cmd_extract,
    "retrieve": _cmd_retrieve,
    "perturb": _cmd_perturb,
    "measure": _cmd_measure,
    "sweep": _cmd_sweep,
    "generate": _cmd_generate,
}


def main(argv: list[str] | None = None) -> int:
    parser, commands = build_parser()
    try:
        # Flag > config > default: the config file becomes the command's
        # parser defaults, then the command line is parsed against them.
        args, _ = parser.parse_known_args(argv)
        if args.command and args.config:
            commands[args.command].set_defaults(**_config_defaults(args.config, args.command))
        args = parser.parse_args(argv)
        if args.verbose:
            logging.basicConfig(level=logging.DEBUG)
        if not args.command:
            parser.print_help()
            return 2
        # argparse checks ``choices`` on flags but not on defaults, so a
        # config value has to be checked here.
        for action in commands[args.command]._actions:
            value = getattr(args, action.dest, None)
            if action.choices is not None and value not in action.choices:
                allowed = ", ".join(map(str, action.choices))
                raise ValueError(f"config value {action.dest}={value!r} is not one of {allowed}")
        return _HANDLERS[args.command](args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except TransportError as exc:
        print(f"transport error: {exc}", file=sys.stderr)
        return 4
    except EntityNotFoundError as exc:
        print(f"error: not found: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
