import sys
import threading
import time

import pytest

from dialogic import revision
from dialogic.backend import ContextLengthExceeded, MockBackend
from dialogic.exemplar import parse_system_line, parse_user_line
from dialogic.goals import GoalStrategy
from dialogic.model import DialogAct, GenConfig, NO_RESULT, Turn, TurnBelief, UserGoal
from dialogic.revision import HttpAuxPredictor, slot_value_match_filter
from dialogic.simulator import (
    DstAugSpec,
    KIND_OTHER,
    KIND_REQMORE,
    KIND_REQUEST,
    SimulationError,
    SimulationRun,
    augment_dst_turn,
    build_dst_prompt,
    generate_turn_belief,
    simulate_batch,
)

from .conftest import (
    TRACE_DB_BUCKETS,
    TRACE_REVISED_ACTS,
    TRACE_REVISED_BELIEFS,
    make_rng,
    run_trace_simulation,
)

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
    _, dialogue = run_trace_simulation(trace_replay, trace_pool, aux, entity_db, ontology)
    assert dialogue.turns[-1].act.has("bye")
    assert [t.belief.to_dict() for t in dialogue.turns] == TRACE_REVISED_BELIEFS
    assert [t.db.bucket for t in dialogue.turns] == TRACE_DB_BUCKETS
    assert [t.act.to_json() for t in dialogue.turns] == TRACE_REVISED_ACTS


def test_trace_goal_drift_updates_final_goal(trace_replay, trace_pool, aux,
                                             entity_db, ontology):
    _, dialogue = run_trace_simulation(trace_replay, trace_pool, aux, entity_db, ontology)
    assert dialogue.initial_goal.to_dict() == {
        "hotel": {"area": "south", "stay": "5", "people": "4"},
        "train": {"destination": "birmingham new street", "arrive": "13:06"}}
    assert dialogue.final_goal.get("hotel", "type") == "hotel"
    assert dialogue.final_goal.get("train", "day") == "saturday"
    assert dialogue.final_goal.get("train", "departure") == "cambridge"


def test_trace_prompt_coherence(trace_replay, trace_pool, aux, entity_db, ontology):
    run, dialogue = run_trace_simulation(trace_replay, trace_pool, aux, entity_db, ontology)
    tail = run.prompt.split("Conversation3:\n", 1)[1]
    lines = tail.strip().split("\n")
    assert len(lines) == 2 * len(dialogue.turns)
    for i, turn in enumerate(dialogue.turns):
        belief, utterance = parse_user_line(lines[2 * i])
        act, resp = parse_system_line(lines[2 * i + 1])
        assert belief == turn.belief
        assert utterance == turn.user_utterance
        assert act == turn.act
        assert resp == turn.system_response


def test_raw_annotations_recorded(trace_replay, trace_pool, aux, entity_db, ontology):
    _, dialogue = run_trace_simulation(trace_replay, trace_pool, aux, entity_db, ontology)
    first = dialogue.turns[0]
    assert first.gpt_belief.to_dict() == {
        "hotel": {"area": "south", "stay": "5", "people": "4"}}
    assert first.gpt_act == first.act


def test_immediate_bye_gives_one_turn(seeds, aux, entity_db, ontology):
    run = SimulationRun(
        simple_goal(), seeds, MockBackend(list(BYE_SCRIPT)), aux, entity_db, ontology,
        GenConfig(), make_rng(0))
    dialogue = run.run()
    assert dialogue.turns[-1].act.has("bye")
    assert len(dialogue.turns) == 1


def test_never_bye_hits_turn_cap(seeds, aux, entity_db, ontology):
    run = SimulationRun(
        simple_goal(), seeds, looping_mock(), aux, entity_db, ontology,
        GenConfig(), make_rng(0))
    dialogue = run.run()
    assert not any(t.act.has("bye") for t in dialogue.turns)
    assert len(dialogue.turns) == 12


def test_unparseable_completion_fails_after_retries(seeds, aux, entity_db, ontology):
    calls = []
    def bad(req):
        calls.append(1)
        return "complete garbage without a close paren"
    run = SimulationRun(
        simple_goal(), seeds, MockBackend(bad), aux, entity_db, ontology,
        GenConfig(retries=2), make_rng(0))
    with pytest.raises(SimulationError) as err:
        run.run()
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
    run = SimulationRun(
        simple_goal(), seeds, MockBackend(list(script)), aux, entity_db, ontology,
        GenConfig(), make_rng(0))
    dialogue = run.run()
    first = dialogue.turns[0]
    assert first.gpt_act.to_json() == [["attraction", "inform", "name"]]
    assert first.act != first.gpt_act
    assert first.system_response == "regenerated response text ."


def test_db_queries_the_previous_turns_domain_for_a_domain_less_turn(seeds, entity_db,
                                                                     ontology):
    def simulate(script):
        return SimulationRun(simple_goal(), seeds, MockBackend(script), None, entity_db,
                             ontology, GenConfig(), make_rng(0)).run()

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


def test_simulation_error_on_exhausted_backend(seeds, aux, entity_db, ontology):
    run = SimulationRun(
        simple_goal(), seeds, MockBackend([LOOP_USER]), aux, entity_db, ontology,
        GenConfig(), make_rng(0))
    with pytest.raises(SimulationError) as err:
        run.run()
    assert err.value.kind == "backend_error"


def test_prompt_budget_enforced(seeds, aux, entity_db, ontology):
    over_budget = looping_mock()
    over_budget.context_budget = 50

    def server_rejects(req):
        raise ContextLengthExceeded("This model's maximum context length is 50 tokens")

    # the client-side budget and the server's own check are one failure kind
    for backend in (over_budget, MockBackend(server_rejects)):
        run = SimulationRun(simple_goal(), seeds, backend, aux, entity_db, ontology,
                            GenConfig(), make_rng(0))
        with pytest.raises(SimulationError) as err:
            run.run()
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
            SimulationRun(simple_goal(), seeds, backend, aux, entity_db, ontology,
                          GenConfig(retries=1), make_rng(3), dialogue_id=f"sim_{i}").run()
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


# -- DST augmentation -------------------------------------------------------------

PRESCRIBED_BELIEF = {"hotel": {"people": "8", "stars": "3", "stay": "2", "day": "tuesday"}}
PRESCRIBED_UTTERANCE = ("please book me a room for 8 people on tuesday . we will be "
                        "staying for 2 nights and would like a 3-star hotel .")


def test_dst_prompt_contains_glossary_and_target(seeds, ontology):
    spec = DstAugSpec(seeds.get("SNG01856"), 2, KIND_OTHER, TurnBelief(PRESCRIBED_BELIEF))
    demos = [(seeds.get("PMUL1576"), 6)]
    prompt = build_dst_prompt(spec, demos, ontology)
    assert prompt.startswith("Answer the assistant's question on each feature "
                             "you require when booking a hotel.")
    assert '"dontcare"' in prompt
    assert "people: number of people for the hotel booking;" in prompt
    assert "stars: star rating of the hotel;" in prompt
    assert "Assistant: what is your requirement on stay, day, people?" in prompt
    assert prompt.endswith(
        "User([hotel] people is 8 , stars is 3 , stay is 2 , day is tuesday):")


def test_augment_dst_turn_accepts_expressed_belief(seeds, ontology):
    spec = DstAugSpec(seeds.get("SNG01856"), 2, KIND_OTHER, TurnBelief(PRESCRIBED_BELIEF))
    backend = MockBackend(" " + PRESCRIBED_UTTERANCE)
    dialogue = augment_dst_turn(spec, seeds, backend, ontology, GenConfig(), make_rng(3))
    assert dialogue.source == "dst_augmented"
    assert len(dialogue.turns) == 3
    new_turn = dialogue.turns[-1]
    assert new_turn.user_utterance == PRESCRIBED_UTTERANCE
    assert new_turn.belief.to_dict() == PRESCRIBED_BELIEF
    assert slot_value_match_filter(
        new_turn.belief, new_turn.user_utterance, ontology) == new_turn.belief


def test_augment_dst_turn_rejects_unexpressed_belief(seeds, ontology):
    spec = DstAugSpec(seeds.get("SNG01856"), 2, KIND_OTHER, TurnBelief(PRESCRIBED_BELIEF))
    backend = MockBackend("i have no requirements at all .")
    with pytest.raises(SimulationError) as err:
        augment_dst_turn(spec, seeds, backend, ontology,
                         GenConfig(retries=1), make_rng(3))
    assert err.value.kind == "rejected"


def test_augment_dst_turn_takes_n_shots_from_gen_config(seeds, ontology):
    spec = DstAugSpec(seeds.get("SNG01856"), 2, KIND_OTHER, TurnBelief(PRESCRIBED_BELIEF))
    prompts = []

    def answer(req):
        prompts.append(req.prompt)
        return " " + PRESCRIBED_UTTERANCE

    augment_dst_turn(spec, seeds, MockBackend(answer), ontology, GenConfig(n_shots=1),
                     make_rng(3))
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
