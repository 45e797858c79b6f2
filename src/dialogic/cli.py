"""Command-line interface: simulate, augment-dst, stats, validate.

Exit codes: 0 success, 1 validation failure, 2 configuration/usage error,
3 backend failure, 4 zero successful dialogues. Progress goes to stderr so
stdout stays machine-readable under --json.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
from pathlib import Path

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
from .model import DecodeConfig, GenConfig, ValidationError
from .ontology import Ontology, default_ontology, load_ontology
from .revision import LexicalAuxPredictor, slot_value_match_filter
from .simulator import BatchReport, augment_corpus, simulate_batch
from .stats import compute_stats

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_CONFIG = 2
EXIT_BACKEND = 3
EXIT_NO_OUTPUT = 4

_SIMULATE_ONLY_KEYS = ("trace", "workers", "max_turns")


class ConfigError(Exception):
    """A bad flag/config value; reported with exit code 2."""


def _progress(message: str) -> None:
    print(message, file=sys.stderr)


def _load_config_file(path: str | None) -> dict:
    if not path:
        return {}
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"--config: file not found: {p}")
    try:
        data = json.loads(p.read_text("utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"--config: not valid JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise ConfigError("--config: top level must be a JSON object")
    return data


def _setting(args: argparse.Namespace, config: dict, key: str, default=None):
    value = getattr(args, key, None)
    if value is not None:
        return value
    if key in config:
        return config[key]
    return default


def _require_path(flag: str, value: str | None) -> Path:
    if not value:
        raise ConfigError(f"{flag} is required (flag or config file)")
    path = Path(value)
    if not path.exists():
        raise ConfigError(f"{flag}: path does not exist: {path}")
    return path


def _load_ontology(args, config) -> Ontology:
    value = _setting(args, config, "ontology")
    if value is None:
        return default_ontology()
    return load_ontology(_require_path("--ontology", value))


def _load_corpus(flag: str, value: str | None, ontology: Ontology, strict: bool) -> SeedDataset:
    try:
        return load_seed_corpus(_require_path(flag, value), ontology, strict=strict)
    except CorpusError as exc:
        raise ConfigError(f"{flag}: {exc}") from exc


def _load_seeds(args, config, ontology: Ontology) -> SeedDataset:
    return _load_corpus("--seed-corpus", _setting(args, config, "seed_corpus"), ontology,
                        strict=not _setting(args, config, "lenient", False))


def _load_db(args, config, ontology: Ontology) -> EntityDb:
    value = _setting(args, config, "db_dir")
    if value is None:
        return default_entity_db(ontology)
    return load_entity_db(_require_path("--db-dir", value), ontology)


def _gen_config(args, config) -> GenConfig:
    decode_cfg = config.get("decode", {})
    try:
        decode = DecodeConfig(
            temperature=float(decode_cfg.get("temperature", 0.7)),
            top_p=float(decode_cfg.get("top_p", 1.0)),
            frequency_penalty=float(decode_cfg.get("frequency_penalty", 1.0)),
            max_tokens=int(decode_cfg.get("max_tokens", 256)),
        )
        return GenConfig(
            n_shots=int(_setting(args, config, "n_shots", 2)),
            select_temperature=float(_setting(args, config, "select_temperature", 0.2)),
            max_turns=int(_setting(args, config, "max_turns", 12)),
            max_domains=int(_setting(args, config, "max_domains", 4)),
            max_slots_per_domain=int(_setting(args, config, "max_slots_per_domain", 6)),
            decode=decode,
            retries=int(_setting(args, config, "retries", 2)),
            rng_seed=_setting(args, config, "rng_seed"),
        )
    except ValidationError as exc:
        raise ConfigError(str(exc)) from exc


def _build_backend(args, config) -> CompletionBackend:
    kind = _setting(args, config, "backend", "replay")
    if kind == "replay":
        path = _require_path("--transcript", _setting(args, config, "transcript"))
        backend: CompletionBackend = ReplayBackend(path)
    elif kind == "mock":
        script_path = _require_path("--mock-script", _setting(args, config, "mock_script"))
        script = json.loads(script_path.read_text("utf-8"))
        if not isinstance(script, list):
            raise ConfigError("--mock-script: expected a JSON array of completions")
        backend = MockBackend(script)
    elif kind == "live":
        endpoint = _setting(args, config, "endpoint")
        model = _setting(args, config, "model")
        if not endpoint or not model:
            raise ConfigError("--endpoint and --model are required for the live backend")
        backend = HttpCompletionBackend(HttpBackendConfig(
            endpoint=endpoint, model=model,
            concurrency=int(_setting(args, config, "workers", 4)),
            context_budget=int(_setting(args, config, "context_budget", 4096)),
        ))
    else:
        raise ConfigError(f"--backend: unknown kind {kind!r}")
    record = _setting(args, config, "record")
    if record:
        backend = record_transcript(backend, record)
    return backend


def _open_trace(args, config):
    path = _setting(args, config, "trace")
    if not path:
        return None, None
    fh = open(path, "w", encoding="utf-8")
    lock = threading.Lock()

    def sink(event: dict) -> None:
        line = json.dumps(event, ensure_ascii=False)
        with lock:
            fh.write(line + "\n")

    return sink, fh


def _goal_strategy(args, config) -> GoalStrategy:
    kind = _setting(args, config, "strategy", "combination")
    if kind not in STRATEGIES:
        raise ConfigError(f"--strategy: must be one of {', '.join(STRATEGIES)}")
    return GoalStrategy(
        kind=kind,
        n_source_dialogues=int(_setting(args, config, "n_source_dialogues", 2)),
        drop_probability=float(_setting(args, config, "drop_probability", 0.3)),
    )


def _rs_distribution(config) -> RsDistribution:
    rows = config.get("rs_distribution")
    if not rows:
        return RsDistribution()
    return RsDistribution(rows=tuple(
        (int(r[0]), int(r[1]), int(r[2]), float(r[3])) for r in rows))


def _finish(args, dialogues, report: BatchReport, out_path: str, verb: str, unit: str) -> int:
    """Save the corpus, print the report, and map the outcome to an exit code."""
    save_corpus(dialogues, out_path)
    _progress(f"{verb} {report.succeeded}/{report.requested} {unit} -> {out_path}")
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
    config = _load_config_file(args.config)
    if args.num is not None and args.num < 1:
        raise ConfigError("--num must be >= 1")
    n = int(_setting(args, config, "num", 1))
    ontology = _load_ontology(args, config)
    seeds = _load_seeds(args, config, ontology)
    db = _load_db(args, config, ontology)
    cfg = _gen_config(args, config)
    backend = _build_backend(args, config)
    strategy = _goal_strategy(args, config)
    out_path = _setting(args, config, "out")
    if not out_path:
        raise ConfigError("--out is required")
    aux = LexicalAuxPredictor(ontology, seeds)
    trace_sink, trace_fh = _open_trace(args, config)
    workers = _setting(args, config, "workers")
    try:
        dialogues, report = simulate_batch(
            n, strategy, seeds, backend, aux, db, ontology, cfg,
            dist=_rs_distribution(config),
            workers=int(workers) if workers is not None else backend.concurrency,
            trace=trace_sink)
    finally:
        if trace_fh:
            trace_fh.close()
    return _finish(args, dialogues, report, out_path, "simulated", "dialogues")


def cmd_augment_dst(args: argparse.Namespace) -> int:
    config = _load_config_file(args.config)
    simulate_only = [key for key in _SIMULATE_ONLY_KEYS if key in config]
    if simulate_only:
        raise ConfigError(f"--config: {', '.join(simulate_only)} only apply to simulate")
    passes = int(_setting(args, config, "passes", 1))
    if passes < 1:
        raise ConfigError("--passes must be >= 1")
    ontology = _load_ontology(args, config)
    seeds = _load_seeds(args, config, ontology)
    cfg = _gen_config(args, config)
    backend = _build_backend(args, config)
    out_path = _setting(args, config, "out")
    if not out_path:
        raise ConfigError("--out is required")
    dialogues, report = augment_corpus(
        seeds, backend, None, ontology, cfg, passes=passes)
    return _finish(args, dialogues, report, out_path, "augmented", "turns")


def cmd_stats(args: argparse.Namespace) -> int:
    config = _load_config_file(args.config)
    ontology = _load_ontology(args, config)
    dataset = _load_corpus("--corpus", _setting(args, config, "corpus"), ontology, strict=False)
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
    config = _load_config_file(args.config)
    ontology = _load_ontology(args, config)
    max_turns = int(_setting(args, config, "max_turns", 12))
    dataset = _load_corpus("--corpus", _setting(args, config, "corpus"), ontology, strict=False)
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

def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file; flags override its values")
    parser.add_argument("--ontology", help="ontology JSON (defaults to the bundled one)")
    parser.add_argument("--json", action="store_true", help="machine-readable stdout")


def _add_backend_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--backend", choices=["live", "replay", "mock"])
    parser.add_argument("--transcript", help="transcript file for the replay backend")
    parser.add_argument("--mock-script", dest="mock_script",
                        help="JSON array of completions for the mock backend")
    parser.add_argument("--endpoint", help="completions endpoint URL (live backend)")
    parser.add_argument("--model", help="model name (live backend)")
    parser.add_argument("--record", help="record all completions to this transcript file")
    parser.add_argument("--rng-seed", dest="rng_seed", type=int)
    parser.add_argument("--retries", type=int)
    parser.add_argument("--n-shots", dest="n_shots", type=int)
    parser.add_argument("--select-temperature", dest="select_temperature", type=float)
    parser.add_argument("--seed-corpus", dest="seed_corpus")
    parser.add_argument("--lenient", action="store_const", const=True, default=None,
                        help="drop invalid seed triplets instead of rejecting the file")
    parser.add_argument("--out")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dialogic",
        description="Expand a seed set of annotated dialogues with LLM-simulated ones.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="simulate full annotated dialogues")
    _add_common(p)
    _add_backend_flags(p)
    p.add_argument("--num", type=int, help="number of dialogues to simulate")
    p.add_argument("--strategy", choices=list(STRATEGIES))
    p.add_argument("--n-source-dialogues", dest="n_source_dialogues", type=int)
    p.add_argument("--drop-probability", dest="drop_probability", type=float)
    p.add_argument("--db-dir", dest="db_dir")
    p.add_argument("--max-turns", dest="max_turns", type=int)
    p.add_argument("--workers", type=int)
    p.add_argument("--trace", help="write per-turn revision traces to this JSONL file")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("augment-dst", help="generate turn-level state-tracking samples")
    _add_common(p)
    _add_backend_flags(p)
    p.add_argument("--passes", type=int, help="augmentation passes over the seed corpus")
    p.set_defaults(func=cmd_augment_dst)

    p = sub.add_parser("stats", help="print corpus statistics")
    _add_common(p)
    p.add_argument("--corpus")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("validate", help="re-check corpus invariants")
    _add_common(p)
    p.add_argument("--corpus")
    p.add_argument("--max-turns", dest="max_turns", type=int)
    p.set_defaults(func=cmd_validate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse reports usage errors with exit code 2
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ConfigError, OSError, ValueError) as exc:
        _progress(f"error: {exc}")
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
