"""The benchmark's metrics: what `BENCHMARK.json` cannot hold.

`BENCHMARK.json` at the repository root is the one list of workloads and of
metric names, units, directions and bounds; `spec()` reads it. This module
adds what that file has no room for: what each end-to-end metric counts, the
two end-to-end metrics that are printed but carry no bound, and for each
per-layer metric the end-to-end metric it should move and the workloads where
it should move it, so later changes can cite them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

SPEC_PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

WORKLOADS = ("sim-bundled", "sim-multiwoz", "sim-llm-wait", "augment-dst")
SIM = ("sim-bundled", "sim-multiwoz", "sim-llm-wait")


def spec() -> dict:
    return json.loads(SPEC_PATH.read_text("utf-8"))


# what each end-to-end metric counts
NOTES: dict[str, str] = {
    "dialogues_per_s": "successful dialogues (DST: accepted samples) per second of generation "
                       "+ save; seconds of the idle host, except on sim-llm-wait (wall seconds)",
    "turns_per_s": "generated annotated turns per second, timed as dialogues_per_s",
    "backend_calls_per_dialogue": "complete() calls / successful dialogues; exact",
    "prompt_tokens_per_dialogue": "program's own estimate_tokens over every request prompt; exact",
    "completion_tokens_per_dialogue": "program's own estimate_tokens over every completion; exact",
    "peak_rss_mb": "ru_maxrss of the run's process: the loaded inputs, one batch in flight and "
                   "its checks; the synthetic inputs are written by a child process, and each "
                   "set-up repeat frees the previous loaded set first",
    "setup_s": "median over nine repeats, spread over the run, of load_ontology + "
               "load_seed_corpus(strict) + load_entity_db + LexicalAuxPredictor; "
               "seconds of the idle host",
}


@dataclass(frozen=True)
class Printed:
    """An end-to-end metric printed beside the bounded ones, but not in BENCHMARK.json."""

    name: str
    unit: str
    note: str


PRINTED_ONLY: tuple[Printed, ...] = (
    Printed("wall_dialogues_per_s", "1/s",
            "dialogues_per_s in wall seconds, for reference; it swings with the load "
            "other tenants put on the host, so it has no bound"),
    Printed("failed_share", "share",
            "(requested - succeeded) / requested from BatchReport; 0 on every workload "
            "here, so it is printed with the failure kinds but kept out of "
            "BENCHMARK.json, whose metrics may never be 0"),
)


@dataclass(frozen=True)
class Layer:
    moves: str                   # the end-to-end metric it should move
    where: tuple[str, ...]       # ... on these workloads
    note: str = ""


# per-layer metric name -> what it should move, and where
LAYERS: dict[str, Layer] = {
    "goals.generate.ms_per_dialogue": Layer(
        "dialogues_per_s", ("sim-multiwoz",), "near zero on sim-bundled"),
    "exemplar.select.ms_per_dialogue": Layer(
        "dialogues_per_s", ("sim-multiwoz",), "scales with the seed pool"),
    "exemplar.build_prompt.ms_per_dialogue": Layer("dialogues_per_s", ("sim-bundled",)),
    "exemplar.parse.ms_per_turn": Layer(
        "dialogues_per_s", ("sim-bundled",), "parse_user_line + parse_system_line"),
    "exemplar.parse.attempts_per_line": Layer("backend_calls_per_dialogue", SIM),
    "revision.aux_belief.ms_per_turn": Layer(
        "dialogues_per_s", ("sim-multiwoz",), "less on sim-bundled, none on sim-llm-wait"),
    "revision.revise_belief.self_ms_per_turn": Layer(
        "dialogues_per_s", ("sim-bundled",), "merge + filter + validate"),
    "revision.revise_act.ms_per_turn": Layer("dialogues_per_s", ("sim-bundled",)),
    "revision.match_filter.ms_per_sample": Layer(
        "dialogues_per_s", ("augment-dst",), "slot_value_match_filter"),
    "revision.dst_accept_share": Layer(
        "backend_calls_per_dialogue", ("augment-dst",), "accepted samples / filter checks"),
    "revision.over_generation_drops_per_turn": Layer(
        "none: outcome count", SIM, "unchanged by any change that keeps the outputs"),
    "revision.de_generation_fixes_per_turn": Layer(
        "none: outcome count", SIM, "unchanged by any change that keeps the outputs"),
    "revision.act_rule_firings_per_turn": Layer(
        "none: outcome count", SIM, "unchanged by any change that keeps the outputs"),
    "revision.aux_act_share": Layer(
        "none: outcome count", SIM, "unchanged by any change that keeps the outputs"),
    "database.query.ms_per_call": Layer("dialogues_per_s", ("sim-multiwoz",)),
    "database.query.calls_per_turn": Layer("dialogues_per_s", ("sim-multiwoz",)),
    "backend.calls_per_turn": Layer("backend_calls_per_dialogue", WORKLOADS),
    "backend.regenerations_per_turn": Layer(
        "backend_calls_per_dialogue", WORKLOADS, "prompts ending in 'Assistant(<act>): '"),
    "backend.prompt_tokens_per_call": Layer(
        "prompt_tokens_per_dialogue", WORKLOADS, "and dialogues_per_s on sim-llm-wait"),
    "backend.wait_ms_per_dialogue": Layer("dialogues_per_s", ("sim-llm-wait",)),
    "backend.wait_share": Layer(
        "dialogues_per_s", ("sim-llm-wait",),
        "simulated LLM wait / (workers x generation wall time)"),
    "backend.inflight_mean": Layer(
        "dialogues_per_s", ("sim-llm-wait",), "time-weighted mean of backend calls in flight"),
    "backend.scripted_ms_per_call": Layer(
        "none: benchmark's own LLM cost", WORKLOADS, "reported so that it can be subtracted"),
    "simulator.dialogue.self_ms_per_turn": Layer(
        "dialogues_per_s", ("sim-bundled",), "turn-loop bookkeeping inside simulate_dialogue"),
    "simulator.accumulate_state.ms_per_turn": Layer(
        "dialogues_per_s", ("sim-bundled", "sim-multiwoz"),
        "state is rebuilt from every prior turn"),
    "simulator.dialogue.ms_p50": Layer("dialogues_per_s", SIM),
    "simulator.dialogue.ms_p95": Layer("dialogues_per_s", SIM),
    "simulator.dst.turn_belief.ms_per_sample": Layer("dialogues_per_s", ("augment-dst",)),
    "simulator.dst.build_prompt.ms_per_sample": Layer("dialogues_per_s", ("augment-dst",)),
    "simulator.dst.augment.self_ms_per_sample": Layer(
        "dialogues_per_s", ("augment-dst",), "mostly the turn-demo sampler"),
    "textnorm.normalize.calls_per_turn": Layer(
        "dialogues_per_s", ("sim-bundled",), "tokenise-once target"),
    "textnorm.normalize.ms_per_turn": Layer(
        "dialogues_per_s", ("sim-bundled",), "tokenise-once target"),
    "corpus.save.ms_per_dialogue": Layer("dialogues_per_s", WORKLOADS),
    "corpus.load.ms_per_dialogue": Layer(
        "setup_s", ("sim-multiwoz", "augment-dst"), "strict load_seed_corpus of the seed pool"),
    "trace.overhead_share": Layer(
        "none: tracing cost", WORKLOADS, "(traced - untraced) / untraced generation wall time"),
}
