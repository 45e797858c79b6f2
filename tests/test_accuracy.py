"""Belief accuracy of a simulated batch, scored against what the scripted LLM said.

The scripted LLM of the benchmark (`bench/llm.py`) writes each user line by
passing the triples it means to say to `verbalize`, so those triples are the
truth of the line. This test imports that module as `bench/test_bench.py`
does and records every `verbalize` call, keyed by the normalised utterance.
It therefore depends on `bench/llm.py`'s templates and fault rates: a change
to them must keep this test passing.

The `hotel type` convention of this truth: a triple is true only when it was
passed to `verbalize`. "i am looking for a hotel" says no `hotel type is
hotel`; a line says that triple only when its goal prescribes it. Revision's
aux does add `hotel type is hotel` on such lines, so revised precision is
below raw precision and is not asserted here.

A scripted batch is also a fixpoint of revision: `dialogic validate`, which
revises each saved turn again without an aux, finds nothing to change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from dialogic.cli import main
from dialogic.corpus import load_seed_corpus, save_corpus
from dialogic.database import load_entity_db
from dialogic.goals import GoalStrategy, RsDistribution
from dialogic.model import GenConfig
from dialogic.ontology import load_ontology
from dialogic.revision import LexicalAuxPredictor
from dialogic.simulator import augment_corpus, simulate_batch
from dialogic.textnorm import normalize_text

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import llm  # noqa: E402
import synth  # noqa: E402

FAULT_RATES = ("MALFORMED", "OVER_ANNOTATION", "UNDER_ANNOTATION", "BAD_ACT", "DST_OMISSION")


def _slot_triples(belief: dict) -> set[tuple[str, str, str]]:
    return {(d, s, v) for d, slots in belief.items() for s, v in slots.items()}


@pytest.mark.parametrize("faults", ["default", "zero"])
def test_revision_removes_no_true_triple_and_keeps_recall(monkeypatch, seeds, aux, entity_db,
                                                          ontology, faults):
    if faults == "zero":
        for name in FAULT_RATES:
            monkeypatch.setattr(llm, name, 0.0)
    truth = {normalize_text(llm.GOODBYE): set()}  # the goodbye line says no triple
    conflicts = []
    verbalize = llm.verbalize

    def recording(domain, triples, first_mention, draw):
        utterance = verbalize(domain, triples, first_mention, draw)
        said = set(triples)
        if truth.setdefault(normalize_text(utterance), said) != said:
            conflicts.append(utterance)
        return utterance

    monkeypatch.setattr(llm, "verbalize", recording)
    events = []
    dialogues, report = simulate_batch(
        50, GoalStrategy(kind="combination"), seeds, llm.ScriptedLLM(), aux, entity_db,
        ontology, GenConfig(rng_seed=5), trace=events.append)
    assert report.failures == {} and len(dialogues) == 50
    assert conflicts == []
    turns = {(d.id, i): t for d in dialogues for i, t in enumerate(d.turns, 1)}
    assert len(events) == len(turns)

    true_total = raw_hits = revised_hits = 0
    for event in events:
        turn = turns[event["dialogue"], event["turn"]]
        true = truth[turn.user_utterance]
        raw = _slot_triples(event["raw_belief"])
        revised = _slot_triples(turn.belief.to_dict())
        assert true & raw <= revised, (turn.user_utterance, raw, revised)
        true_total += len(true)
        raw_hits += len(true & raw)
        revised_hits += len(true & revised)
    assert true_total > 0
    assert revised_hits >= raw_hits
    if faults == "zero":  # the truth is keyed right: every true triple was annotated
        assert raw_hits == true_total


def _validate_json(capsys, path, *flags):
    code = main(["validate", "--corpus", str(path), "--json", *flags])
    payload = json.loads(capsys.readouterr().out)
    assert code == (1 if payload["violations"] else 0)
    return payload


def _assert_revised(events) -> None:
    """The batch is no trivial fixpoint: revision dropped a value and fired an act rule."""
    assert any(e["over_generation_drops"] for e in events)
    assert any(e["rule_firings"] for e in events)


def _act_changes(payload) -> list[str]:
    return [w for w in payload["warnings"] if "the act rules would change the act" in w]


@pytest.mark.parametrize("kind", ["random", "substitution", "combination"])
def test_a_scripted_batch_on_the_bundled_seeds_is_a_fixpoint_of_revision(
        tmp_path, capsys, seeds, aux, entity_db, ontology, kind):
    events = []
    dialogues, report = simulate_batch(
        12, GoalStrategy(kind=kind), seeds, llm.ScriptedLLM(), aux, entity_db, ontology,
        GenConfig(rng_seed=5), trace=events.append)
    _assert_revised(events)
    assert report.failures == {} and len(dialogues) == 12
    save_corpus(dialogues, tmp_path / "sim.json")
    payload = _validate_json(capsys, tmp_path / "sim.json")
    assert payload["violations"] == [] and _act_changes(payload) == []


def test_a_scripted_batch_on_synthetic_seeds_is_a_fixpoint_of_revision(tmp_path, capsys):
    paths = synth.write_dataset(tmp_path / "data", 5)
    ontology = load_ontology(paths["ontology"])
    seeds = load_seed_corpus(paths["seeds"], ontology)
    events = []
    dialogues, report = simulate_batch(
        12, GoalStrategy(kind="random"), seeds, llm.ScriptedLLM(), LexicalAuxPredictor(
            ontology, seeds), load_entity_db(paths["db"], ontology), ontology,
        GenConfig(rng_seed=5), dist=RsDistribution(rows=((2, 3, 4, 1.0),)),
        trace=events.append)
    _assert_revised(events)
    assert report.failures == {} and len(dialogues) == 12
    save_corpus(dialogues, tmp_path / "sim.json")
    payload = _validate_json(capsys, tmp_path / "sim.json", "--ontology", str(paths["ontology"]))
    assert payload["violations"] == [] and _act_changes(payload) == []


def test_an_augment_pass_over_the_bundled_seeds_validates(tmp_path, capsys, seeds, ontology):
    samples, report = augment_corpus(seeds, llm.ScriptedLLM(), None, ontology,
                                     GenConfig(rng_seed=5))
    assert report.succeeded
    save_corpus(samples, tmp_path / "dst.json")
    assert _validate_json(capsys, tmp_path / "dst.json")["violations"] == []
