"""Command-line interface: simulate, augment-dst, stats, validate.

Exit codes: 0 success, 1 validation failure, 2 configuration/usage error,
3 backend failure, 4 zero successful dialogues. Progress goes to stderr so
stdout stays machine-readable under --json.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import threading
from dataclasses import fields
from pathlib import Path
from urllib.parse import urlsplit

from .backend import (
    CompletionBackend,
    HttpBackendConfig,
    HttpCompletionBackend,
    MockBackend,
    ReplayBackend,
    record_transcript,
)
from .corpus import CorpusError, SeedDataset, load_seed_corpus, save_corpus
from .database import EntityDb, bucketize, default_entity_db, load_entity_db
from .goals import GoalStrategy, RsDistribution, STRATEGIES
from .model import DecodeConfig, GenConfig
from .ontology import Ontology, default_ontology, load_ontology
from .revision import HttpAuxPredictor, LexicalAuxPredictor, slot_value_match_filter
from .simulator import BatchReport, augment_corpus, simulate_batch
from .stats import compute_stats

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_CONFIG = 2
EXIT_BACKEND = 3
EXIT_NO_OUTPUT = 4


class ConfigError(Exception):
    """A bad flag/config value; reported with exit code 2."""


def _progress(message: str) -> None:
    print(message, file=sys.stderr)


def _config_flags(path: str) -> list[str]:
    """The flags a --config file spells: `{"n_shots": 3}` is `--n-shots=3`.

    `true` is a bare flag, `false` and `null` are left out, and any other
    non-string value is passed JSON-encoded.
    """
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"--config: file not found: {p}")
    try:
        data = json.loads(p.read_text("utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"--config: not valid JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise ConfigError("--config: top level must be a JSON object")
    flags = []
    for key, value in data.items():
        if not re.fullmatch(r"\w[\w-]*", key):  # "out=x" must not pass as --out=x
            raise ConfigError(f"--config: {key!r} is not a flag name")
        flag = "--" + key.replace("_", "-")
        if value is True:
            flags.append(flag)
        elif value is not False and value is not None:
            flags.append(f"{flag}={value if isinstance(value, str) else json.dumps(value)}")
    return flags


def _given(args: argparse.Namespace, **dests: str) -> dict:
    """{field: args.<dest>} for each flag that was set, so unset fields keep their defaults."""
    return {name: getattr(args, dest) for name, dest in dests.items()
            if getattr(args, dest, None) is not None}


def _gen_fields(args: argparse.Namespace) -> dict:
    return _given(args, **{f.name: f.name for f in fields(GenConfig)})


def _require_path(flag: str, value: str | None) -> Path:
    if not value:
        raise ConfigError(f"{flag} is required (flag or config file)")
    path = Path(value)
    if not path.exists():
        raise ConfigError(f"{flag}: path does not exist: {path}")
    return path


def _load_ontology(args) -> Ontology:
    if args.ontology is None:
        return default_ontology()
    return load_ontology(_require_path("--ontology", args.ontology))


def _load_corpus(flag: str, value: str | None, ontology: Ontology, strict: bool) -> SeedDataset:
    try:
        return load_seed_corpus(_require_path(flag, value), ontology, strict=strict)
    except CorpusError as exc:
        raise ConfigError(f"{flag}: {exc}") from exc


def _load_seeds(args, ontology: Ontology) -> SeedDataset:
    return _load_corpus("--seed-corpus", args.seed_corpus, ontology, strict=not args.lenient)


def _load_db(args, ontology: Ontology) -> EntityDb:
    if args.db_dir is None:
        return default_entity_db(ontology)
    return load_entity_db(_require_path("--db-dir", args.db_dir), ontology)


def _build_backend(args) -> CompletionBackend:
    if args.backend == "replay":
        backend: CompletionBackend = ReplayBackend(_require_path("--transcript", args.transcript))
    elif args.backend == "mock":
        script = json.loads(_require_path("--mock-script", args.mock_script).read_text("utf-8"))
        if not isinstance(script, list) or not all(isinstance(item, str) for item in script):
            raise ConfigError("--mock-script: expected a JSON array of completion strings")
        backend = MockBackend(script)
    else:
        if not args.endpoint or not args.model:
            raise ConfigError("--endpoint and --model are required for the live backend")
        backend = HttpCompletionBackend(HttpBackendConfig(
            endpoint=args.endpoint, model=args.model,
            **_given(args, concurrency="workers")))
    if args.context_budget is not None:
        backend.context_budget = args.context_budget
    if args.record:
        backend = record_transcript(backend, args.record)
    return backend


def _open_trace(args):
    if not args.trace:
        return None, None
    fh = open(args.trace, "w", encoding="utf-8")
    lock = threading.Lock()

    def sink(event: dict) -> None:
        line = json.dumps(event, ensure_ascii=False)
        with lock:
            fh.write(line + "\n")

    return sink, fh


def _finish(args, dialogues, report: BatchReport, verb: str, unit: str) -> int:
    """Save the corpus, print the report, and map the outcome to an exit code."""
    save_corpus(dialogues, args.out)
    _progress(f"{verb} {report.succeeded}/{report.requested} {unit} -> {args.out}")
    print(json.dumps(report.to_json(), indent=None if args.json else 2))
    if report.succeeded >= 1:
        return EXIT_OK
    if report.failures.get("backend_error"):
        return EXIT_BACKEND
    return EXIT_NO_OUTPUT


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_simulate(args: argparse.Namespace) -> int:
    if not args.out:
        raise ConfigError("--out is required")
    cfg = GenConfig(**_gen_fields(args))
    strategy = GoalStrategy(**_given(args, kind="strategy", n_source_dialogues="n_source_dialogues",
                                     drop_probability="drop_probability"))
    ontology = _load_ontology(args)
    seeds = _load_seeds(args, ontology)
    db = _load_db(args, ontology)
    backend = _build_backend(args)
    remote = HttpAuxPredictor(args.aux_url) if args.aux_url else None
    aux = LexicalAuxPredictor(ontology, seeds) if remote is None else remote
    trace_sink, trace_fh = _open_trace(args)
    try:
        dialogues, report = simulate_batch(
            args.num, strategy, seeds, backend, aux, db, ontology, cfg,
            workers=args.workers or backend.concurrency, trace=trace_sink,
            **_given(args, dist="rs_distribution"))
    finally:
        backend.close()
        if remote is not None:
            remote.close()
        if trace_fh:
            trace_fh.close()
    return _finish(args, dialogues, report, "simulated", "dialogues")


def cmd_augment_dst(args: argparse.Namespace) -> int:
    if not args.out:
        raise ConfigError("--out is required")
    cfg = GenConfig(**_gen_fields(args))
    ontology = _load_ontology(args)
    seeds = _load_seeds(args, ontology)
    backend = _build_backend(args)
    try:
        dialogues, report = augment_corpus(
            seeds, backend, None, ontology, cfg, passes=args.passes)
    finally:
        backend.close()
    return _finish(args, dialogues, report, "augmented", "turns")


def cmd_stats(args: argparse.Namespace) -> int:
    ontology = _load_ontology(args)
    dataset = _load_corpus("--corpus", args.corpus, ontology, strict=False)
    stats = compute_stats(dataset.dialogues)
    if args.json:
        print(json.dumps(stats.to_json()))
        return EXIT_OK
    rows = [
        ("Total dialogs", stats.total_dialogues),
        ("Total turns", stats.total_turns),
        ("Total domains", stats.total_domains),
        ("Avg. turns", f"{stats.avg_turns:.2f}"),
        ("Avg. domains", f"{stats.avg_domains:.2f}"),
        ("Uniq. tokens", stats.unique_tokens),
        ("Uniq. 3-grams", stats.unique_3grams),
        ("Uniq. tokens (system)", stats.unique_tokens_system),
        ("Uniq. 3-grams (system)", stats.unique_3grams_system),
    ]
    width = max(len(label) for label, _ in rows)
    for label, value in rows:
        print(f"{label:<{width}}  {value}")
    return EXIT_OK


def cmd_validate(args: argparse.Namespace) -> int:
    ontology = _load_ontology(args)
    max_turns = GenConfig(**_gen_fields(args)).max_turns
    dataset = _load_corpus("--corpus", args.corpus, ontology, strict=False)
    violations = list(dataset.issues)
    warnings: list[str] = []
    for dlg in dataset:
        if len(dlg.turns) > max_turns:
            warnings.append(f"{dlg.id}: {len(dlg.turns)} turns exceed the cap of {max_turns}")
        for i, turn in enumerate(dlg.turns):
            where = f"{dlg.id} turn {i}"
            filtered = slot_value_match_filter(turn.belief, turn.user_utterance, ontology)
            if filtered != turn.belief:
                missing = set(turn.belief.triples()) - set(filtered.triples())
                for triple in sorted(missing):
                    violations.append(f"{where}: value not expressed in utterance: {triple}")
            if turn.db.domain != "general" or turn.db.bucket != "db_nores":
                expected = bucketize(turn.db.count, ontology.queryable(turn.db.domain))
                if expected != turn.db.bucket:
                    violations.append(
                        f"{where}: db bucket {turn.db.bucket} does not match count "
                        f"{turn.db.count} ({expected})")
            for domain, slot in turn.act.slots_of("inform") + turn.act.slots_of("offerbooked"):
                if f"[value_{slot}]" not in turn.system_response:
                    warnings.append(f"{where}: response lacks placeholder [value_{slot}]")
    for warning in warnings:
        _progress(f"warning: {warning}")
    if args.json:
        print(json.dumps({
            "dialogues": len(dataset),
            "violations": violations,
            "warnings": warnings,
        }))
    elif violations:
        for violation in violations:
            print(violation)
    if violations:
        return EXIT_VIOLATION
    _progress(f"{len(dataset)} dialogues valid")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _positive_int(text: str) -> int:
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected an int >= 1, got {text!r}")
    return int(text)


def _http_url(text: str) -> str:
    """An http(s) URL with a host; anything else is a usage error."""
    try:
        parts = urlsplit(text)
        parts.port  # a port that is not a number raises ValueError
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{text!r}: {exc}") from exc
    if parts.scheme not in ("http", "https") or not parts.hostname:
        raise argparse.ArgumentTypeError(f"expected an http(s) URL with a host, got {text!r}")
    return text


def _json_type(build):
    """An argparse type that decodes JSON and hands it to `build`; errors are usage errors."""
    def parse(text: str):
        try:
            return build(json.loads(text))
        except (TypeError, ValueError) as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc
    return parse


def _rs_distribution(rows) -> RsDistribution:
    return RsDistribution(rows=tuple((int(n), int(lo), int(hi), float(p)) for n, lo, hi, p in rows))


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON object of this command's flags; flags override it")
    parser.add_argument("--ontology", help="ontology JSON (defaults to the bundled one)")
    parser.add_argument("--json", action="store_true", help="machine-readable stdout")


def _add_backend_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--backend", choices=["live", "replay", "mock"], default="replay")
    parser.add_argument("--transcript", help="transcript file for the replay backend")
    parser.add_argument("--mock-script", dest="mock_script",
                        help="JSON array of completions for the mock backend")
    parser.add_argument("--endpoint", help="completions endpoint URL (live backend)")
    parser.add_argument("--model", help="model name (live backend)")
    parser.add_argument("--context-budget", dest="context_budget", type=_positive_int,
                        help="prompt plus max_tokens limit in tokens, for any backend")
    parser.add_argument("--record", help="record all completions to this transcript file")
    parser.add_argument("--rng-seed", dest="rng_seed", type=int)
    parser.add_argument("--retries", type=int)
    parser.add_argument("--n-shots", dest="n_shots", type=int)
    parser.add_argument("--select-temperature", dest="select_temperature", type=float)
    parser.add_argument("--max-slots-per-domain", dest="max_slots_per_domain", type=int)
    parser.add_argument("--decode", type=_json_type(lambda values: DecodeConfig(**values)),
                        help='JSON object of DecodeConfig fields, e.g. \'{"temperature": 0.9}\'')
    parser.add_argument("--seed-corpus", dest="seed_corpus")
    parser.add_argument("--lenient", action="store_true",
                        help="drop invalid seed triplets instead of rejecting the file")
    parser.add_argument("--out")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dialogic",
        description="Expand a seed set of annotated dialogues with LLM-simulated ones.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, summary: str) -> argparse.ArgumentParser:
        # allow_abbrev=False: a misspelt config key must not prefix-match a flag
        p = sub.add_parser(name, help=summary, allow_abbrev=False)
        _add_common(p)
        return p

    p = command("simulate", "simulate full annotated dialogues")
    _add_backend_flags(p)
    p.add_argument("--num", type=_positive_int, default=1, help="number of dialogues to simulate")
    p.add_argument("--strategy", choices=list(STRATEGIES))
    p.add_argument("--n-source-dialogues", dest="n_source_dialogues", type=int)
    p.add_argument("--drop-probability", dest="drop_probability", type=float)
    p.add_argument("--max-domains", dest="max_domains", type=int)
    p.add_argument("--rs-distribution", dest="rs_distribution", type=_json_type(_rs_distribution),
                   help="JSON rows [domains, min slots, max slots, probability] for random goals")
    p.add_argument("--db-dir", dest="db_dir")
    p.add_argument("--max-turns", dest="max_turns", type=int)
    p.add_argument("--workers", type=_positive_int)
    p.add_argument("--trace", help="write per-turn revision traces to this JSONL file")
    p.add_argument("--aux-url", dest="aux_url", type=_http_url,
                   help="external aux model endpoint (HttpAuxPredictor) instead of the lexical one")
    p.set_defaults(func=cmd_simulate)

    p = command("augment-dst", "generate turn-level state-tracking samples")
    _add_backend_flags(p)
    p.add_argument("--passes", type=_positive_int, default=1,
                   help="augmentation passes over the seed corpus")
    p.set_defaults(func=cmd_augment_dst)

    p = command("stats", "print corpus statistics")
    p.add_argument("--corpus")
    p.set_defaults(func=cmd_stats)

    p = command("validate", "re-check corpus invariants")
    p.add_argument("--corpus")
    p.add_argument("--max-turns", dest="max_turns", type=int)
    p.set_defaults(func=cmd_validate)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            # the file's flags go before the command line's, so a flag overrides the file
            args = parser.parse_args([args.command, *_config_flags(args.config), *argv[1:]])
        return args.func(args)
    except SystemExit as exc:  # argparse reports usage errors with exit code 2
        return int(exc.code or 0)
    except (ConfigError, OSError, ValueError) as exc:
        _progress(f"error: {exc}")
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
