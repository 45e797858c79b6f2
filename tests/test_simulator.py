import json
import re
import sys
import threading
import time
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dialogic import revision, simulator
from dialogic.backend import ContextLengthExceeded, MockBackend, record_transcript
from dialogic.corpus import SeedDataset
from dialogic.exemplar import parse_system_line, parse_user_line
from dialogic.goals import GoalStrategy
from dialogic.model import (
    DialogAct, Dialogue, GenConfig, NO_RESULT, Turn, TurnBelief, UserGoal, accumulate_state,
)
from dialogic.revision import HttpAuxPredictor, slot_value_match_filter
from dialogic.simulator import (
    KIND_OTHER,
    KIND_REQMORE,
    KIND_REQUEST,
    SimulationError,
    _query_db,
    augment_dst_turn,
    build_dst_prompt,
    generate_turn_belief,
    simulate_batch,
    simulate_dialogue,
)

from .conftest import (
    TRACE_DB_BUCKETS,
    TRACE_REVISED_ACTS,
    TRACE_REVISED_BELIEFS,
    lexical_aux_server,
    make_rng,
    random_belief,
    run_trace_simulation,
)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import llm  # noqa: E402
import spans  # noqa: E402

BYE_SCRIPT = [
    "[general]): hello , that is all .",
    "[general] [bye]): goodbye .",
]

LOOP_USER = "[hotel] area is south): i want the south ."
LOOP_SYSTEM = "[hotel] [request] area): which area do you want ?"


def looping_mock(user=LOOP_USER, system=LOOP_SYSTEM):
    """Answer every `User(` prompt with `user` and any other with `system`, in any order."""
    def script(req):
        if req.prompt.endswith("User("):
            return user
        return system
    return MockBackend(script)


def simple_goal():
    return UserGoal({"hotel": {"area": "south", "stay": "2"}})


def test_trace_replay_reproduces_revised_rows(trace_replay, trace_pool, aux,
                                              entity_db, ontology):
    dialogue = run_trace_simulation(trace_replay, trace_pool, aux, entity_db, ontology)
    assert dialogue.turns[-1].act.has("bye")
    assert [t.belief.to_dict() for t in dialogue.turns] == TRACE_REVISED_BELIEFS
    assert [t.db.bucket for t in dialogue.turns] == TRACE_DB_BUCKETS
    assert [t.act.to_json() for t in dialogue.turns] == TRACE_REVISED_ACTS


def test_trace_goal_drift_updates_final_goal(trace_replay, trace_pool, aux,
                                             entity_db, ontology):
    dialogue = run_trace_simulation(trace_replay, trace_pool, aux, entity_db, ontology)
    assert dialogue.initial_goal.to_dict() == {
        "hotel": {"area": "south", "stay": "5", "people": "4"},
        "train": {"destination": "birmingham new street", "arrive": "13:06"}}
    assert dialogue.final_goal.get("hotel", "type") == "hotel"
    assert dialogue.final_goal.get("train", "day") == "saturday"
    assert dialogue.final_goal.get("train", "departure") == "cambridge"


def test_trace_prompt_coherence(tmp_path, trace_replay, trace_pool, aux, entity_db, ontology):
    transcript = tmp_path / "prompts.jsonl"
    dialogue = run_trace_simulation(record_transcript(trace_replay, transcript), trace_pool,
                                    aux, entity_db, ontology)
    # the last request asks for the last system line, after every earlier revised line
    last_prompt = json.loads(transcript.read_text().splitlines()[-1])["prompt"]
    lines = last_prompt.split("Conversation3:\n", 1)[1].split("\n")
    assert lines[-1] == "Assistant("
    assert len(lines) == 2 * len(dialogue.turns)
    for i, turn in enumerate(dialogue.turns):
        belief, utterance = parse_user_line(lines[2 * i])
        assert belief == turn.belief
        assert utterance == turn.user_utterance
        if i + 1 < len(dialogue.turns):
            act, resp = parse_system_line(lines[2 * i + 1])
            assert act == turn.act
            assert resp == turn.system_response


def test_raw_annotations_recorded(trace_replay, trace_pool, aux, entity_db, ontology):
    events = []
    dialogue = run_trace_simulation(trace_replay, trace_pool, aux, entity_db, ontology,
                                    trace=events.append)
    assert [e["turn"] for e in events] == list(range(1, len(dialogue.turns) + 1))
    first = events[0]
    assert first["raw_belief"] == {"hotel": {"area": "south", "stay": "5", "people": "4"}}
    assert first["belief"] == dialogue.turns[0].belief.to_dict() != first["raw_belief"]
    assert first["raw_act"] == first["act"] == dialogue.turns[0].act.to_json()


def test_immediate_bye_gives_one_turn(seeds, aux, entity_db, ontology):
    dialogue = simulate_dialogue(
        simple_goal(), seeds, MockBackend(list(BYE_SCRIPT)), aux, entity_db, ontology,
        GenConfig(), make_rng(0))
    assert dialogue.turns[-1].act.has("bye")
    assert len(dialogue.turns) == 1


def test_never_bye_hits_turn_cap(seeds, aux, entity_db, ontology):
    dialogue = simulate_dialogue(
        simple_goal(), seeds, looping_mock(), aux, entity_db, ontology,
        GenConfig(), make_rng(0))
    assert not any(t.act.has("bye") for t in dialogue.turns)
    assert len(dialogue.turns) == 12


def test_unparseable_completion_fails_after_retries(seeds, aux, entity_db, ontology):
    calls = []
    def bad(req):
        calls.append(1)
        return "complete garbage without a close paren"
    with pytest.raises(SimulationError) as err:
        simulate_dialogue(simple_goal(), seeds, MockBackend(bad), aux, entity_db, ontology,
                          GenConfig(retries=2), make_rng(0))
    assert err.value.kind == "parse_error"
    assert len(calls) == 3


def test_revised_act_triggers_response_regeneration(seeds, aux, entity_db, ontology):
    # the mock proposes an act for an undiscussed domain; rules rewrite it and
    # the response must be re-generated conditioned on the revised act
    script = [
        "[hotel] area is south): the south please .",
        "[attraction] [inform] name): how about [value_name] ?",
        "regenerated response text .",
        "[general] [bye]): bye .",
    ]
    # continue to a bye turn after the regenerated one
    script += ["[general]): thanks , bye .", "[general] [bye]): goodbye ."]
    events = []
    dialogue = simulate_dialogue(
        simple_goal(), seeds, MockBackend(list(script)), aux, entity_db, ontology,
        GenConfig(), make_rng(0), trace=events.append)
    first = dialogue.turns[0]
    assert events[0]["raw_act"] == [["attraction", "inform", "name"]]
    assert events[0]["act"] == first.act.to_json() != events[0]["raw_act"]
    assert first.system_response == "regenerated response text ."


def test_db_queries_the_previous_turns_domain_for_a_domain_less_turn(seeds, entity_db,
                                                                     ontology):
    def simulate(script):
        return simulate_dialogue(simple_goal(), seeds, MockBackend(script), None, entity_db,
                                 ontology, GenConfig(), make_rng(0))

    # a domain-less turn after a hotel turn queries hotel against the state;
    # [general] queries nothing, and neither does a domain-less turn after it
    dialogue = simulate([
        "[hotel] area is south): i want the south .", "[hotel] [request] stay): how long ?",
        "): two nights .", "[hotel] [request] people): for how many ?",
        "[general]): thanks .", "[general] [reqmore]): anything else ?",
        "): no .", "[general] [bye]): goodbye .",
    ])
    south = entity_db.query("hotel", {"area": "south"})
    assert south.domain == "hotel" and south != NO_RESULT
    assert [t.db for t in dialogue.turns] == [south, south, NO_RESULT, NO_RESULT]
    # a domain-less first turn has nothing to carry over
    first = simulate(["): hello .", "[general] [bye]): goodbye ."])
    assert [t.db for t in first.turns] == [NO_RESULT]


def walk_back_domain(belief, context):
    """The belief's last task domain, else the last one of the latest turn with any."""
    for b in (belief, *(t.belief for t in reversed(context))):
        if b.task_domains():
            return b.task_domains()[-1]
    return None


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10 ** 6))
def test_carried_query_domain_is_the_walk_back_domain(ontology, entity_db, seed):
    """A domain-less turn queries the previous result's domain, the domain a walk back
    over the older beliefs finds; a turn the walk-back rule left unqueried stays so."""
    rng = make_rng(seed)
    turns = []
    for _ in range(rng.randint(1, 8)):
        roll = rng.random()
        belief = (TurnBelief() if roll < 0.35 else TurnBelief({"general": {}}) if roll < 0.5
                  else random_belief(ontology, rng))
        state = accumulate_state([t.belief for t in turns] + [belief])
        db = _query_db(entity_db, belief, turns)
        queried = (bool(belief.task_domains()) if belief.domains()
                   else bool(turns) and turns[-1].db != NO_RESULT)
        if queried:
            domain = walk_back_domain(belief, turns)
            assert db == entity_db.query(domain, state.entries.get(domain, {}))
        else:
            assert db == NO_RESULT
        turns.append(Turn("", belief, db, DialogAct(), ""))


def test_simulation_error_on_exhausted_backend(seeds, aux, entity_db, ontology):
    with pytest.raises(SimulationError) as err:
        simulate_dialogue(simple_goal(), seeds, MockBackend([LOOP_USER]), aux, entity_db,
                          ontology, GenConfig(), make_rng(0))
    assert err.value.kind == "backend_error"


def test_prompt_budget_enforced(seeds, aux, entity_db, ontology):
    over_budget = looping_mock()
    over_budget.context_budget = 50

    def server_rejects(req):
        raise ContextLengthExceeded("This model's maximum context length is 50 tokens")

    # the client-side budget and the server's own check are one failure kind
    for backend in (over_budget, MockBackend(server_rejects)):
        with pytest.raises(SimulationError) as err:
            simulate_dialogue(simple_goal(), seeds, backend, aux, entity_db, ontology,
                              GenConfig(), make_rng(0))
        assert err.value.kind == "prompt_too_long"
        _, report = simulate_batch(
            2, GoalStrategy(kind="combination"), seeds, backend, aux, entity_db, ontology,
            GenConfig(rng_seed=11))
        assert report.failures == {"prompt_too_long": 2}


# -- batch -------------------------------------------------------------------

def test_batch_runs_and_reports(seeds, aux, entity_db, ontology):
    backend = MockBackend(list(BYE_SCRIPT) * 3)
    dialogues, report = simulate_batch(
        3, GoalStrategy(kind="combination"), seeds, backend, aux, entity_db, ontology,
        GenConfig(rng_seed=11))
    assert len(dialogues) == 3
    assert report.succeeded == 3 and report.failed == 0
    assert [d.id for d in dialogues] == ["sim_0000", "sim_0001", "sim_0002"]
    assert all(d.source == "simulated" for d in dialogues)


@pytest.mark.parametrize("kind", ["random", "substitution"])
def test_batch_runs_random_and_substitution_goals(kind, seeds, aux, entity_db, ontology):
    from dialogic.corpus import dialogue_to_json

    def corpus(workers):
        dialogues, report = simulate_batch(
            4, GoalStrategy(kind=kind), seeds, looping_mock(*BYE_SCRIPT), aux, entity_db, ontology,
            GenConfig(rng_seed=3), workers=workers)
        assert report.succeeded == 4
        assert all(d.initial_goal.slot_count() > 0 for d in dialogues)
        assert all(d.initial_goal.validate(ontology) == [] for d in dialogues)
        return [dialogue_to_json(d) for d in dialogues]

    assert corpus(1) == corpus(2)


def test_batch_counts_slotless_combination_sources_as_config_error(seeds, aux, entity_db,
                                                                   ontology):
    from dialogic.corpus import SeedDataset
    from dialogic.model import Dialogue

    turns = list(seeds.get("SNG01856").turns)
    pool = SeedDataset(dialogues=[
        Dialogue(id=did, initial_goal=UserGoal({domain: {}}), final_goal=UserGoal({domain: {}}),
                 turns=turns, source="seed")
        for did, domain in (("h", "hotel"), ("t", "train"))])
    dialogues, report = simulate_batch(
        2, GoalStrategy(kind="combination"), pool, MockBackend(list(BYE_SCRIPT) * 2), aux,
        entity_db, ontology, GenConfig(rng_seed=11))
    assert dialogues == []
    assert report.failures == {"config_error": 2}
    for note in report.notes:
        assert "no slot to combine" in note and "'h'" in note and "'t'" in note


def test_batch_isolates_failures(seeds, aux, entity_db, ontology):
    # five runs, script exhausts after the fourth dialogue's first completion
    script = list(BYE_SCRIPT) * 3 + [BYE_SCRIPT[0]]
    dialogues, report = simulate_batch(
        5, GoalStrategy(kind="combination"), seeds, MockBackend(script), aux,
        entity_db, ontology, GenConfig(rng_seed=11))
    assert len(dialogues) == 3
    assert report.failed == 2
    assert report.failures.get("backend_error") == 2


def test_batch_records_aux_fault_and_continues(seeds, entity_db, ontology, loopback,
                                                monkeypatch):
    # an HTTP error, a reply that is not an object, a belief that is not
    # domain -> slot -> value, and an answer that comes after the read deadline
    monkeypatch.setattr(revision, "AUX_TIMEOUT_S", 0.3)
    released = threading.Event()

    def late(request, headers):
        released.wait()
        return 200, {"belief": {}}, {}

    answers = [lambda request, headers: (500, {}, {}),
               lambda request, headers: (200, [], {}),
               lambda request, headers: (200, {"belief": {"hotel": "south"}}, {}),
               late]
    try:
        for answer in answers:
            aux = HttpAuxPredictor(loopback(answer))
            started = time.monotonic()
            try:
                dialogues, report = simulate_batch(
                    3, GoalStrategy(kind="combination"), seeds,
                    MockBackend(list(BYE_SCRIPT) * 3), aux, entity_db, ontology,
                    GenConfig(rng_seed=11))
            finally:
                aux.close()
            assert time.monotonic() - started < 10
            assert dialogues == []
            assert report.requested == 3
            assert report.failures == {"aux_error": 3}
    finally:
        released.set()


@pytest.mark.parametrize("workers", [1, 2])
def test_batch_propagates_unclassified_errors(workers, seeds, aux, entity_db, ontology):
    # an error outside the failure taxonomy is a bug, not a failed dialogue;
    # one worker runs the jobs in the calling thread
    callers = set()

    def broken(req):
        callers.add(threading.get_ident())
        raise RuntimeError("bug in the backend")

    with pytest.raises(RuntimeError, match="bug in the backend"):
        simulate_batch(3, GoalStrategy(kind="combination"), seeds, MockBackend(broken), aux,
                       entity_db, ontology, GenConfig(rng_seed=5), workers=workers)
    assert callers
    assert (callers == {threading.get_ident()}) == (workers == 1)


def test_batch_counts_every_failure_under_thread_switching(seeds, aux, entity_db, ontology):
    # workers used to update the report unlocked; a 1 us switch interval made
    # them lose failure counts and notes
    n = 2000
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        dialogues, report = simulate_batch(
            n, GoalStrategy(kind="combination"), seeds, MockBackend([]), aux,
            entity_db, ontology, GenConfig(rng_seed=3), workers=8)
    finally:
        sys.setswitchinterval(interval)
    assert dialogues == []
    assert report.requested == report.failed == n
    assert report.failures == {"backend_error": n}
    assert [note.split(":")[0] for note in report.notes] == [f"sim_{i:04d}" for i in range(n)]


def test_batch_deterministic_with_replay(tmp_path, seeds, aux, entity_db, ontology):
    from dialogic.backend import ReplayBackend, record_transcript

    transcript = tmp_path / "batch.jsonl"
    backend = record_transcript(MockBackend(list(BYE_SCRIPT) * 4), transcript)
    first, _ = simulate_batch(
        4, GoalStrategy(kind="combination"), seeds, backend, aux, entity_db, ontology,
        GenConfig(rng_seed=99))
    second, _ = simulate_batch(
        4, GoalStrategy(kind="combination"), seeds, ReplayBackend(transcript), aux,
        entity_db, ontology, GenConfig(rng_seed=99))
    from dialogic.corpus import dialogue_to_json

    assert [dialogue_to_json(d) for d in first] == [dialogue_to_json(d) for d in second]


def test_replay_reproduces_retried_and_repeated_prompts(tmp_path, seeds, aux, entity_db,
                                                        ontology):
    from dialogic.backend import ReplayBackend, record_transcript
    from dialogic.corpus import save_corpus

    # the first completion is malformed, so the parse retry re-sends the first
    # user prompt; the second run, same goal and rng, sends it a third time
    served = []
    def script(req):
        served.append(req.prompt)
        if len(served) == 1:
            return "no annotation here"
        if req.prompt.endswith("User("):
            return f"[general]): hello {len(served)} , that is all ."
        return "[general] [bye]): goodbye ."

    def two_runs(backend, out):
        dialogues = [
            simulate_dialogue(simple_goal(), seeds, backend, aux, entity_db, ontology,
                              GenConfig(retries=1), make_rng(3), dialogue_id=f"sim_{i}")
            for i in range(2)]
        save_corpus(dialogues, out)
        return out.read_bytes()

    transcript = tmp_path / "retry.jsonl"
    recorded = two_runs(record_transcript(MockBackend(script), transcript), tmp_path / "a.json")
    assert served.count(served[0]) == 3
    assert two_runs(ReplayBackend(transcript), tmp_path / "b.json") == recorded


def test_batch_rejects_zero(seeds, aux, entity_db, ontology):
    with pytest.raises(ValueError):
        simulate_batch(0, GoalStrategy(), seeds, MockBackend("x"), aux,
                       entity_db, ontology, GenConfig())


# -- turn-level generation ------------------------------------------------------

def request_source(seeds):
    return seeds.get("SNG01856")


def test_turn_belief_request_kind(seeds, ontology):
    source = seeds.get("SNG01856")  # turn 0 system act requests hotel area
    belief, kind = generate_turn_belief(source, 1, ontology, make_rng(5))
    assert kind == KIND_REQUEST
    slots = dict.fromkeys(s for _, s, _ in belief.triples())
    assert "area" in slots
    assert len(slots) >= 3
    assert belief.task_domains() == ["hotel"]


def test_turn_belief_reqmore_kind(seeds, ontology):
    source = seeds.get("SNG01856")  # turn 3 system act carries general reqmore
    belief, kind = generate_turn_belief(source, 4, ontology, make_rng(5))
    assert kind == KIND_REQMORE
    domains = belief.task_domains()
    assert len(domains) == 1
    assert domains[0] != "hotel"
    assert 1 <= belief.slot_count() <= 4


def test_turn_belief_other_kind(seeds, ontology):
    source = seeds.get("SNG01856")  # turn 2 follows an inform/offerbook act
    original = set(source.turns[2].belief.entries["hotel"])
    belief, kind = generate_turn_belief(source, 2, ontology, make_rng(5))
    assert kind == KIND_OTHER
    new_slots = set(belief.entries["hotel"])
    assert original - new_slots, "at least one original slot must be dropped"
    assert new_slots - original, "at least one unmentioned slot must be added"


def test_turn_belief_turn_zero_uses_other_rule(seeds, ontology):
    belief, kind = generate_turn_belief(seeds.get("SNG01856"), 0, ontology, make_rng(5))
    assert kind == KIND_OTHER
    assert belief.task_domains() == ["hotel"]


def test_other_turn_belief_opens_the_walk_back_domain(seeds, ontology):
    """An "other" turn's belief stays in the source turn's last task domain, else in the
    latest earlier turn's: a goodbye turn's sample opens the domain talked about before."""
    for source in seeds:
        for turn_idx, turn in enumerate(source.turns):
            for rng_seed in range(5):
                try:
                    belief, kind = generate_turn_belief(source, turn_idx, ontology,
                                                        make_rng(rng_seed))
                except SimulationError:
                    continue
                if kind == KIND_OTHER:
                    domain = walk_back_domain(turn.belief, source.turns[:turn_idx])
                    assert belief.task_domains() == [domain]
    goodbye = Dialogue(
        id="bye", initial_goal=UserGoal(), final_goal=UserGoal(),
        turns=[Turn("a train to ely .", TurnBelief({"train": {"destination": "ely"}}), NO_RESULT,
                    DialogAct((("train", "inform", "id"),)), "[value_id] goes there ."),
               Turn("thanks .", TurnBelief({"general": {}}), NO_RESULT,
                    DialogAct((("general", "welcome", "none"),)), "you are welcome ."),
               Turn("bye .", TurnBelief({"general": {}}), NO_RESULT,
                    DialogAct((("general", "bye", "none"),)), "goodbye .")])
    for turn_idx in (1, 2):
        belief, kind = generate_turn_belief(goodbye, turn_idx, ontology, make_rng(0))
        assert kind == KIND_OTHER
        assert belief.task_domains() == ["train"]


def test_turn_belief_unaugmentable(ontology, seeds):
    # a reqmore turn with every goal domain already mentioned cannot be augmented
    source = seeds.get("SNG01856")
    mention_turns = []
    for domain in ontology.goal_domains():
        slot = next(iter(ontology.schema(domain).informable))
        mention_turns.append(Turn(
            user_utterance=f"something about the {domain} .",
            belief=TurnBelief({domain: {slot: "x"}}),
            db=NO_RESULT, act=DialogAct(), system_response="ok ."))
    reqmore_turn = Turn(
        user_utterance="anything else ?", belief=TurnBelief({"general": {}}),
        db=NO_RESULT, act=DialogAct((("general", "reqmore", "none"),)),
        system_response="more ?")
    rigged = type(source)(
        id="rig", initial_goal=source.initial_goal, final_goal=source.final_goal,
        turns=mention_turns + [reqmore_turn, reqmore_turn], source="seed")
    with pytest.raises(SimulationError) as err:
        generate_turn_belief(rigged, len(rigged.turns) - 1, ontology, make_rng(1))
    assert err.value.kind == "unaugmentable"


def test_turn_belief_rule_conformance_bulk(seeds, ontology):
    source = seeds.get("SNG01856")
    rng = make_rng(31)
    for _ in range(500):
        belief, kind = generate_turn_belief(source, 1, ontology, rng)
        assert kind == KIND_REQUEST
        slots = [s for _, s, _ in belief.triples()]
        assert "area" in slots and len(slots) >= 3


@pytest.mark.parametrize("cap", [1, 2, 3])
def test_turn_beliefs_honour_the_slot_cap(cap, seeds, ontology):
    cfg = GenConfig(max_slots_per_domain=cap)
    observed = seeds.observed_values()
    accepted = dict.fromkeys((KIND_REQUEST, KIND_REQMORE, KIND_OTHER), 0)
    for rng_seed in range(100):
        rng = make_rng(rng_seed)
        for source in seeds:
            for turn_idx in range(len(source.turns)):
                try:
                    belief, kind = generate_turn_belief(
                        source, turn_idx, ontology, rng, cfg=cfg, observed_values=observed)
                except SimulationError as exc:
                    assert exc.kind == "unaugmentable"
                    continue
                assert max(len(slots) for slots in belief.entries.values()) <= cap
                accepted[kind] += 1
    # a request answer needs one answered slot and two added ones
    assert (accepted[KIND_REQUEST] > 0) == (cap == 3)
    assert accepted[KIND_REQMORE] > 0 and accepted[KIND_OTHER] > 0


# -- DST augmentation -------------------------------------------------------------

PRESCRIBED_BELIEF = {"hotel": {"people": "8", "stars": "3", "stay": "2", "day": "tuesday"}}
PRESCRIBED_UTTERANCE = ("please book me a room for 8 people on tuesday . we will be "
                        "staying for 2 nights and would like a 3-star hotel .")


def test_dst_prompt_contains_glossary_and_target(seeds, ontology):
    demos = [(seeds.get("PMUL1576"), 6)]
    prompt = build_dst_prompt(TurnBelief(PRESCRIBED_BELIEF), demos, ontology)
    assert prompt.startswith("Answer the assistant's question on each feature "
                             "you require when booking a hotel.")
    assert '"dontcare"' in prompt
    assert "people: number of people for the hotel booking;" in prompt
    assert "stars: star rating of the hotel;" in prompt
    assert "Assistant: what is your requirement on stay, day, people?" in prompt
    assert prompt.endswith(
        "User([hotel] people is 8 , stars is 3 , stay is 2 , day is tuesday):")


def test_augment_dst_turn_accepts_expressed_belief(seeds, ontology):
    backend = MockBackend(" " + PRESCRIBED_UTTERANCE)
    dialogue = augment_dst_turn(seeds.get("SNG01856"), 2, TurnBelief(PRESCRIBED_BELIEF), seeds,
                                backend, ontology, GenConfig(), make_rng(3),
                                dialogue_id="SNG01856-dst2-p1")
    assert dialogue.id == "SNG01856-dst2-p1"
    assert dialogue.source == "dst_augmented"
    assert len(dialogue.turns) == 3
    new_turn = dialogue.turns[-1]
    assert new_turn.user_utterance == PRESCRIBED_UTTERANCE
    assert new_turn.belief.to_dict() == PRESCRIBED_BELIEF
    assert slot_value_match_filter(
        new_turn.belief, new_turn.user_utterance, ontology) == new_turn.belief


def test_augment_dst_turn_rejects_unexpressed_belief(seeds, ontology):
    backend = MockBackend("i have no requirements at all .")
    with pytest.raises(SimulationError) as err:
        augment_dst_turn(seeds.get("SNG01856"), 2, TurnBelief(PRESCRIBED_BELIEF), seeds,
                         backend, ontology, GenConfig(retries=1), make_rng(3),
                         dialogue_id="SNG01856-dst2-p1")
    assert err.value.kind == "rejected"


def test_augment_dst_turn_takes_n_shots_from_gen_config(seeds, ontology):
    prompts = []

    def answer(req):
        prompts.append(req.prompt)
        return " " + PRESCRIBED_UTTERANCE

    augment_dst_turn(seeds.get("SNG01856"), 2, TurnBelief(PRESCRIBED_BELIEF), seeds,
                     MockBackend(answer), ontology, GenConfig(n_shots=1), make_rng(3),
                     dialogue_id="SNG01856-dst2-p1")
    assert prompts[0].count("Assistant: what is your requirement on") == 1


def test_augment_batch_property(seeds, ontology):
    # a backend that verbalizes whatever belief the prompt prescribes
    from dialogic.exemplar import parse_belief

    def verbalize(req):
        tail = req.prompt.rsplit("User(", 1)[1]
        belief = parse_belief(tail[: tail.rfind("):")])
        words = []
        for domain, slot, value in belief.triples():
            if slot == "none":
                continue
            words.append("no preference" if value == "dontcare" else f"{slot} {value}")
        return " i want " + " and ".join(words) + " ."

    from dialogic.simulator import augment_corpus

    dialogues, report = augment_corpus(
        seeds, MockBackend(verbalize), None, ontology,
        GenConfig(rng_seed=17, retries=0), passes=1)
    assert report.requested == sum(len(d.turns) for d in seeds)
    assert dialogues, "some turns must be augmentable"
    for dlg in dialogues:
        last = dlg.turns[-1]
        assert slot_value_match_filter(
            last.belief, last.user_utterance, ontology) == last.belief


def test_batch_parallel_workers_match_serial(tmp_path, seeds, aux, entity_db, ontology):
    from dialogic.backend import ReplayBackend, record_transcript
    from dialogic.corpus import dialogue_to_json

    transcript = tmp_path / "par.jsonl"
    backend = record_transcript(MockBackend(list(BYE_SCRIPT) * 6), transcript)
    serial, _ = simulate_batch(
        6, GoalStrategy(kind="combination"), seeds, backend, aux, entity_db, ontology,
        GenConfig(rng_seed=5))
    parallel, report = simulate_batch(
        6, GoalStrategy(kind="combination"), seeds, ReplayBackend(transcript), aux,
        entity_db, ontology, GenConfig(rng_seed=5), workers=3)
    assert report.succeeded == 6
    assert [dialogue_to_json(d) for d in parallel] == [dialogue_to_json(d) for d in serial]


def test_http_aux_under_worker_threads_writes_the_in_process_corpus(
        tmp_path, seeds, aux, entity_db, ontology, loopback):
    """Four workers share one HttpAuxPredictor, and with it one HTTP session; the
    corpus they write is the one a single worker writes with the in-process aux."""
    from dialogic.corpus import save_corpus

    asked = []
    remote = HttpAuxPredictor(f"{lexical_aux_server(loopback, asked)}/aux")
    interval = sys.getswitchinterval()
    try:
        for name, predictor, workers in (("local", aux, 1), ("remote", remote, 4)):
            sys.setswitchinterval(1e-6 if workers > 1 else interval)
            dialogues, report = simulate_batch(
                16, GoalStrategy(kind="combination"), seeds, llm.ScriptedLLM(), predictor,
                entity_db, ontology, GenConfig(rng_seed=5), workers=workers)
            assert report.failures == {} and len(dialogues) == 16
            save_corpus(dialogues, tmp_path / f"{name}.json")
    finally:
        sys.setswitchinterval(interval)
        remote.close()
    assert asked.count("belief") > 16 and "act" in asked
    assert (tmp_path / "remote.json").read_bytes() == (tmp_path / "local.json").read_bytes()


# user lines the aux adds to and the filter drops from, and system lines the rules revise
VARIED_USER = [
    "[hotel] area is south , pricerange is cheap): i want a cheap hotel in the south .",
    "[hotel] area is north): a guesthouse with free wifi for 4 people , 2 nights .",
    "[train] destination is cambridge): a train to cambridge leaving after 08:45 on friday .",
    "[restaurant] food is thai): it does not matter , any area is fine .",
    "[hotel] stars is 4): i do n't need parking , 3 stars please .",
]
VARIED_SYSTEM = [
    "[hotel] [request] area): which area ?",
    "[hotel] [inform] choice [offerbook]): there are some , shall i book one ?",
    "[train] [offerbooked] reference): booked .",
    "[restaurant] [inform] food): they serve thai food .",
    "[general] [bye]): goodbye .",
]


def test_batch_workers_share_no_turn_state(seeds, aux, entity_db, ontology):
    """A dialogue's turns and trace events do not depend on what other workers run."""
    import hashlib

    from dialogic.corpus import dialogue_to_json

    def reply(req):  # a function of the prompt alone, whatever the interleaving
        lines = VARIED_USER if req.prompt.endswith("User(") else VARIED_SYSTEM
        return lines[hashlib.sha256(req.prompt.encode()).digest()[0] % len(lines)]

    def run(workers):
        events = []
        dialogues, report = simulate_batch(
            24, GoalStrategy(kind="combination"), seeds, MockBackend(reply), aux, entity_db,
            ontology, GenConfig(rng_seed=11, max_turns=6), workers=workers, trace=events.append)
        events.sort(key=lambda e: (e["dialogue"], e["turn"]))
        return [dialogue_to_json(d) for d in dialogues], events, report.to_json()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        parallel = run(4)
    finally:
        sys.setswitchinterval(interval)
    serial = run(1)
    assert parallel == serial
    _, events, report = serial
    assert report["succeeded"] == 24
    assert len(events) > 48
    assert any(e["over_generation_drops"] for e in events)
    assert any(e["de_generation_fixes"] for e in events)


def test_augment_over_budget_prompt_is_prompt_too_long(seeds, ontology):
    from dialogic.simulator import augment_corpus

    backend = MockBackend(" " + PRESCRIBED_UTTERANCE)
    backend.context_budget = 50
    dialogues, report = augment_corpus(
        seeds, backend, None, ontology, GenConfig(rng_seed=17))
    assert dialogues == []
    assert report.failures["prompt_too_long"] >= 1
    assert set(report.failures) <= {"prompt_too_long", "unaugmentable"}
    assert report.failed == report.requested


def test_augment_classifies_failures_like_simulate(seeds, ontology):
    from dialogic.simulator import augment_corpus

    def broken(req):
        raise ValueError("bad request")

    _, report = augment_corpus(seeds, MockBackend(broken), None, ontology,
                               GenConfig(rng_seed=17))
    assert set(report.failures) <= {"config_error", "unaugmentable"}
    assert report.failures["config_error"] >= 1
    assert report.notes[0].startswith(f"{seeds.dialogues[0].id}-dst0-p1: ")


def test_failure_notes_keep_their_kind_and_text(seeds, aux, entity_db, ontology):
    from dialogic.simulator import augment_corpus

    _, report = simulate_batch(1, GoalStrategy(kind="combination"), seeds, MockBackend("garbage"),
                               aux, entity_db, ontology, GenConfig(rng_seed=3))
    assert report.failures == {"parse_error": 1}
    assert report.notes == [
        "sim_0000: unparseable completion after 3 attempts: unbalanced parentheses (column 12)"]
    _, report = augment_corpus(seeds, MockBackend("i have no requirements at all ."), None,
                               ontology, GenConfig(rng_seed=17))
    assert report.failures == {"rejected": 17, "unaugmentable": 1}
    assert report.notes[0] == ("SNG01856-dst0-p1: SNG01856 turn 0: prescribed belief "
                               "'[hotel] area is south' not expressed within 3 attempts")
    assert report.notes[7] == ("PMUL1576-dst2-p1: PMUL1576 turn 2: fewer than two "
                               "unmentioned slots left in train")


class PeakBackend(MockBackend):
    """Replies as `reply(prompt)` a few ms after the call; records the most calls in flight.

    The first calls wait (1 s at most) until `concurrency` are in flight, so the
    peak shows how many the batch admits however slowly its threads start.
    """

    def __init__(self, concurrency: int, reply):
        super().__init__(lambda req: reply(req.prompt))
        self.concurrency = concurrency
        self.in_flight = self.peak = 0
        self._count = threading.Lock()
        self._full = threading.Event()

    def complete(self, req):
        with self._count:
            self.in_flight += 1
            self.peak = max(self.peak, self.in_flight)
            if self.in_flight >= self.concurrency:
                self._full.set()
        try:
            if not self._full.wait(1.0):
                self._full.set()  # fewer jobs than slots: only the first call waits
            time.sleep(0.003)
            return super().complete(req)
        finally:
            with self._count:
                self.in_flight -= 1


def _verbalize_target(prompt: str) -> str:
    """The DST prompt's prescribed belief, spelled out: a reply of the prompt alone."""
    target = prompt.rsplit("User(", 1)[1].rsplit(")", 1)[0]
    return "i want " + re.sub(r"\[\w+\] ", "", target) + " ."


def test_augment_runs_as_many_samples_at_once_as_the_backend_admits(tmp_path, seeds, ontology):
    from dialogic.corpus import save_corpus
    from dialogic.simulator import augment_corpus

    saved = {}
    interval = sys.getswitchinterval()
    for concurrency in (1, 4):
        backend = PeakBackend(concurrency, _verbalize_target)
        sys.setswitchinterval(1e-6)  # workers interleave as finely as they can
        try:
            dialogues, report = augment_corpus(
                seeds, backend, None, ontology, GenConfig(rng_seed=1), passes=2)
        finally:
            sys.setswitchinterval(interval)
        assert backend.peak == concurrency
        assert report.requested == 36 and report.succeeded >= 20
        save_corpus(dialogues, tmp_path / f"{concurrency}.json")
        saved[concurrency] = (tmp_path / f"{concurrency}.json").read_bytes()
    assert saved[4] == saved[1]


@pytest.mark.parametrize("workers, peak", [(None, 3), (1, 1)])
def test_simulate_batch_runs_the_backends_concurrency_unless_overridden(
        seeds, aux, entity_db, ontology, workers, peak):
    backend = PeakBackend(3, lambda prompt: BYE_SCRIPT[not prompt.endswith("User(")])
    _, report = simulate_batch(
        6, GoalStrategy(kind="combination"), seeds, backend, aux, entity_db, ontology,
        GenConfig(rng_seed=5), workers=workers)
    assert report.succeeded == 6
    assert backend.peak == peak


# -- the requests the LLM reads ---------------------------------------------------

GOLDEN_GOAL = {"hotel": {"stars": "4", "parking": "yes"}}
GOLDEN_TARGET = {"attraction": {"type": "museum", "area": "centre"}}
GOLDEN_SEED = Dialogue(
    id="G1", initial_goal=UserGoal(GOLDEN_GOAL), final_goal=UserGoal(GOLDEN_GOAL),
    turns=[
        Turn("i want a 4 star hotel with free parking .", TurnBelief(GOLDEN_GOAL), NO_RESULT,
             DialogAct((("hotel", "request", "area"),)), "which area would you like ?"),
        Turn("the north , please .", TurnBelief({"hotel": {"area": "north"}}), NO_RESULT,
             DialogAct((("general", "bye", "none"),)), "goodbye ."),
    ])

# `build_prompt` over GOLDEN_SEED for GOLDEN_TARGET, as the loop first renders it
GOLDEN_PROMPT = (
    "The following are conversations between a user and an assistant. The assistant can "
    "help the user to find things that satisfy his requirements. Try to speak differently "
    "in different conversations.\n"
    "\n"
    "Instruction1: You are going to book a hotel, and your requirements for the hotel are "
    "([hotel] stars is 4 , parking is yes). Make sure you get the booking information once "
    "booked.\n"
    "Conversation1:\n"
    "User([hotel] stars is 4 , parking is yes): i want a 4 star hotel with free parking .\n"
    "Assistant([hotel] [request] area): which area would you like ?\n"
    "User([hotel] area is north): the north , please .\n"
    "Assistant([general] [bye]): goodbye .\n"
    "\n"
    "Instruction2: You are going to visit an attraction, and your requirements for the "
    "attraction are ([attraction] type is museum , area is centre).\n"
    "Conversation2:\n"
)
GOLDEN_USER_LINE = ("User([attraction] type is museum , area is centre): "
                    "i am looking for a museum in the centre .\n")
GOLDEN_DST_PROMPT = (
    "Answer the assistant's question on each feature you require when booking an attraction. "
    'Also mention no preference on a feature when your requirement on it is "dontcare".\n'
    "Features:\n"
    "type: what is the type of the attraction, museum, college, church, park, nightclub, "
    "theatre, cinema, swimming pool, architecture, boat, concert hall, entertainment, "
    "multiple sports;\n"
    "area: area of town for the attraction;\n"
    "stars: star rating of the hotel;\n"
    "parking: whether the hotel has free parking;\n"
    "\n"
    "Assistant: what is your requirement on stars, parking?\n"
    "User([hotel] stars is 4 , parking is yes): i want a 4 star hotel with free parking .\n"
    "\n"
    "User([attraction] type is museum , area is centre):"
)


def test_requests_keep_their_bytes(entity_db, ontology):
    """Every kind of request, byte for byte with its stops, from fixed inputs: the first
    user request, the system request, a regeneration and a DST request."""
    script = iter([
        "[attraction] type is museum , area is centre): i am looking for a museum in the centre .",
        "[hotel] [inform] name): how about [value_name] ?",  # the rules revise it
        "there are [value_count] museums in the centre .",
        "[general]): thanks , bye .",
        "[general] [bye]): goodbye .",
        " a museum in the centre , please .",
    ])
    requests = []

    def answer(req):
        requests.append((req.prompt, req.stop))
        return next(script)

    pool = SeedDataset(dialogues=[GOLDEN_SEED])
    simulate_dialogue(UserGoal(GOLDEN_TARGET), pool, MockBackend(answer), None, entity_db,
                      ontology, GenConfig(n_shots=1), make_rng(0))
    augment_dst_turn(GOLDEN_SEED, 1, TurnBelief(GOLDEN_TARGET), pool, MockBackend(answer),
                     ontology, GenConfig(n_shots=1), make_rng(0), dialogue_id="G1-dst1-p1")
    system_stops = ("\nUser", "\nInstruction")
    assert requests[:3] + requests[-1:] == [
        (GOLDEN_PROMPT + "User(", ("\nAssistant",)),
        (GOLDEN_PROMPT + GOLDEN_USER_LINE + "Assistant(", system_stops),
        (GOLDEN_PROMPT + GOLDEN_USER_LINE + "Assistant([general] [reqmore]): ", system_stops),
        (GOLDEN_DST_PROMPT, ("\n",)),
    ]
    # a slot the glossary does not list, of a domain that offers no booking
    assert build_dst_prompt(TurnBelief({"police": {"office": "north"}}), [], ontology) == (
        "Answer the assistant's question on each feature you require when booking a police. "
        'Also mention no preference on a feature when your requirement on it is "dontcare".\n'
        "Features:\n"
        "office: the office of the police;\n"
        "\n"
        "User([police] office is north):")


def _counted(calls: Counter, name: str, fn):
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return wrapper


def test_every_name_the_benchmark_traces_is_called_through_the_simulator(
        monkeypatch, seeds, aux, entity_db, ontology):
    """`bench/spans.py` times a layer by rebinding its name on `dialogic.simulator`, and a
    span that never opens reads 0 in its per-layer metric. So each such name is called
    through the module: `build_prompt` once per dialogue, `build_dst_prompt` once per sample."""
    names = [attr for module, attr, _ in spans.REBOUND if module == "dialogic.simulator"]
    calls = Counter()
    for name in names:
        monkeypatch.setattr(simulator, name, _counted(calls, name, getattr(simulator, name)))
    for kind in ("random", "substitution", "combination"):
        _, report = simulator.simulate_batch(
            1, GoalStrategy(kind=kind), seeds, looping_mock(*BYE_SCRIPT), aux, entity_db,
            ontology, GenConfig(rng_seed=5))
        assert report.succeeded == 1
    _, report = simulator.augment_corpus(
        seeds, MockBackend(lambda req: _verbalize_target(req.prompt)), None, ontology,
        GenConfig(rng_seed=1))
    assert report.succeeded
    assert [name for name in names if not calls[name]] == []
    assert calls["build_prompt"] == calls["simulate_dialogue"] == 3
    assert calls["build_dst_prompt"] == calls["augment_dst_turn"] >= report.succeeded
