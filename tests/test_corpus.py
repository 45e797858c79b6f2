import json
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dialogic.backend import MockBackend
from dialogic.corpus import (
    CorpusError,
    _observed_values,
    dialogue_to_json,
    load_seed_corpus,
    save_corpus,
    turn_to_json,
)
from dialogic.exemplar import parse_belief
from dialogic.model import (
    NO_RESULT,
    SOURCE_SEED,
    SOURCE_SIMULATED,
    DbResult,
    DialogAct,
    Dialogue,
    GenConfig,
    Turn,
    TurnBelief,
    UserGoal,
)
from dialogic.ontology import NONE, Ontology
from dialogic.simulator import augment_corpus
from dialogic.textnorm import normalize_text

from .conftest import SEED_CORPUS_PATH, make_rng, random_goal


def write_corpus(tmp_path, payload, name="c.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def test_empty_corpus(tmp_path, ontology):
    path = write_corpus(tmp_path, {"dialogues": []})
    assert len(load_seed_corpus(path, ontology)) == 0


def test_missing_file(tmp_path, ontology):
    with pytest.raises(FileNotFoundError):
        load_seed_corpus(tmp_path / "nope.json", ontology)


def test_bad_schema_reports_path(tmp_path, ontology):
    path = write_corpus(tmp_path, {"dialogues": [{"id": "x", "goal": {}}]})
    with pytest.raises(CorpusError, match=r"dialogues\[0\]"):
        load_seed_corpus(path, ontology)


def test_reference_dialogue_loads(seeds):
    dlg = seeds.get("SNG01856")
    assert len(dlg.turns) == 5
    assert dlg.turns[1].belief.to_dict() == {"hotel": {"parking": "yes", "pricerange": "cheap"}}
    assert dlg.turns[2].act.triples[0] == ("hotel", "nobook", "day")


def test_strict_mode_rejects_unknown_slot(tmp_path, ontology):
    payload = {"dialogues": [{
        "id": "bad1", "goal": {"hotel": {"color": "red"}},
        "turns": [{"user": "hi", "belief": {}, "act": [], "resp": "hello",
                   "db": {"domain": "general", "count": 0, "bucket": "db_nores"}}],
    }]}
    path = write_corpus(tmp_path, payload)
    with pytest.raises(CorpusError, match="hotel.color"):
        load_seed_corpus(path, ontology)


def test_lenient_mode_drops_and_reports(tmp_path, ontology):
    payload = {"dialogues": [{
        "id": "bad1", "goal": {"hotel": {"color": "red", "area": "south"}},
        "turns": [{"user": "in the south", "belief": {"hotel": {"color": "red"}},
                   "act": [["hotel", "frobnicate", "none"]], "resp": "ok",
                   "db": {"domain": "general", "count": 0, "bucket": "db_nores"}}],
    }]}
    path = write_corpus(tmp_path, payload)
    dataset = load_seed_corpus(path, ontology, strict=False)
    dlg = dataset.dialogues[0]
    assert dlg.final_goal.to_dict() == {"hotel": {"area": "south"}}
    assert dlg.turns[0].belief.to_dict() == {"hotel": {}}
    assert dlg.turns[0].act.is_empty()
    assert any("hotel.color" in issue for issue in dataset.issues)


def test_lenient_mode_admits_per_triple(tmp_path, ontology):
    payload = {"dialogues": [{
        "id": "mixed", "goal": {"spaceship": {"x": "y"}, "train": {}, "hotel": {"area": "south"}},
        "turns": [{"user": "a hotel in the south",
                   "belief": {"general": {"area": "south"}, "hotel": {}, "spaceship": {}},
                   "act": [["spaceship", "inform", "none"], ["hotel", "request", "area"],
                           ["hotel", "request", "color"]], "resp": "ok",
                   "db": {"domain": "general", "count": 0, "bucket": "db_nores"}}],
    }]}
    dataset = load_seed_corpus(write_corpus(tmp_path, payload), ontology, strict=False)
    dlg = dataset.dialogues[0]
    assert dlg.final_goal.to_dict() == {"train": {}, "hotel": {"area": "south"}}
    assert dlg.initial_goal is dlg.final_goal
    assert dlg.turns[0].belief.to_dict() == {"general": {}, "hotel": {}}
    assert dlg.turns[0].act.to_json() == [["hotel", "request", "area"]]
    assert dataset.issues == [
        "mixed dialogues[0].goal: unknown domain 'spaceship'",
        "mixed dialogues[0].turns[0].belief: general domain carries slot 'area'",
        "mixed dialogues[0].turns[0].belief: unknown domain 'spaceship'",
        "mixed dialogues[0].turns[0].act: unknown domain 'spaceship'",
        "mixed dialogues[0].turns[0].act: slot 'color' not permitted in acts of domain 'hotel'",
    ]


def test_save_load_empty_round_trip(tmp_path, ontology):
    out = tmp_path / "empty.json"
    save_corpus([], out)
    assert len(load_seed_corpus(out, ontology)) == 0


def test_save_load_reference_round_trip(tmp_path, ontology, seeds):
    out = tmp_path / "rt.json"
    save_corpus(list(seeds), out)
    again = load_seed_corpus(out, ontology)
    assert [dialogue_to_json(d) for d in again] == [dialogue_to_json(d) for d in seeds]


def test_save_load_random_round_trip(tmp_path, ontology, seeds):
    # structural-equality oracle over generated dialogues
    rng = make_rng(5)
    base = seeds.get("SNG01856")
    dialogues = []
    for i in range(100):
        goal = random_goal(ontology, rng)
        dlg_json = dialogue_to_json(base)
        dlg_json["id"] = f"gen{i:03d}"
        dlg_json["goal"] = goal.to_dict()
        dlg_json["source"] = SOURCE_SIMULATED
        dialogues.append(dlg_json)
    path = write_corpus(tmp_path, {"dialogues": dialogues})
    first = load_seed_corpus(path, ontology, strict=False)
    out = tmp_path / "again.json"
    save_corpus(list(first), out)
    second = load_seed_corpus(out, ontology, strict=False)
    assert [dialogue_to_json(d) for d in first] == [dialogue_to_json(d) for d in second]


def test_observed_values(seeds):
    observed = seeds.observed_values()
    assert "cityroomz" in observed[("hotel", "name")]
    assert "leicester" in observed[("train", "destination")]
    # dontcare never counts as an observed value
    assert "dontcare" not in observed.get(("train", "arrive"), [])


def test_duplicate_ids_rejected(tmp_path, ontology, seeds):
    payload = {"dialogues": [dialogue_to_json(seeds.get("SNG0955"))] * 2}
    path = write_corpus(tmp_path, payload)
    with pytest.raises(CorpusError, match="duplicate"):
        load_seed_corpus(path, ontology)


def _random_dialogues(ontology, seeds, n):
    """Bundled dialogues with random goals, ids and some non-ASCII text."""
    rng = make_rng(17)
    pool = list(seeds)
    out = []
    for i in range(n):
        data = dialogue_to_json(rng.choice(pool))
        data["id"] = f"gen{i:03d}"
        data["goal"] = random_goal(ontology, rng).to_dict()
        data["source"] = SOURCE_SIMULATED
        turn = rng.choice(data["turns"])
        turn["resp"] += rng.choice([" café crème", " 東京 ?", " naïve \"quoted\" \\ text", ""])
        out.append(data)
    return out


def _saved_lines(tmp_path, dialogues):
    out = tmp_path / "saved.json"
    save_corpus(dialogues, out)
    return out, out.read_text(encoding="utf-8").splitlines()


def test_save_layout_one_dialogue_per_line(tmp_path, ontology, seeds):
    random_path = write_corpus(tmp_path, {"dialogues": _random_dialogues(ontology, seeds, 60)},
                               name="random.json")
    for dataset in (seeds, load_seed_corpus(random_path, ontology, strict=False)):
        dialogues = list(dataset)
        out, lines = _saved_lines(tmp_path, dialogues)
        payload = {"dialogues": [dialogue_to_json(d) for d in dialogues]}
        indented = json.dumps(payload, indent=2, ensure_ascii=False)
        assert json.loads(out.read_text(encoding="utf-8")) == json.loads(indented)
        assert len(lines) == len(dialogues) + 2
        assert lines[0] == '{"dialogues": ['
        assert lines[-1] == "]}"
        for line, dialogue in zip(lines[1:-1], payload["dialogues"]):
            assert json.loads(line.removesuffix(",")) == dialogue
    # the random dialogues' non-ASCII text is written as is, not escaped
    text = out.read_text(encoding="utf-8")
    assert "café" in text and "東京" in text
    assert "\\u" not in text


def _mixed_dialogues(ontology, seeds):
    """DST samples that share their sources' turns, and one hand-made dialogue with
    non-ASCII text, a goal that drifted, NO_RESULT, domain-only mentions and an empty act."""
    samples, _ = augment_corpus(seeds, MockBackend(_verbalize), None, ontology,
                                GenConfig(rng_seed=5, retries=0))
    made = Dialogue(
        id="café-1",
        initial_goal=UserGoal({"hotel": {"area": "north"}}),
        final_goal=UserGoal({"hotel": {"area": "north", "stars": "4"}, "train": {}}),
        turns=[Turn("a hotel , 東京 \"quoted\" \\ naïve", TurnBelief({"hotel": {}, "train": {}}),
                    NO_RESULT, DialogAct(), ""),
               Turn("4 stars in the north", TurnBelief({"hotel": {"area": "north", "stars": "4"}}),
                    DbResult("hotel", 2, "db_2"),
                    DialogAct((("hotel", "inform", "choice"), ("general", "reqmore", NONE))),
                    "there are [value_choice] ; crème ?")],
        source=SOURCE_SIMULATED)
    return [*samples, made]


def test_save_writes_each_dialogue_as_dumps_of_dialogue_to_json(tmp_path, ontology, seeds):
    dialogues = _mixed_dialogues(ontology, seeds)
    shared = {id(t) for d in seeds for t in d.turns}
    assert any(id(t) in shared for d in dialogues for t in d.turns)
    _, lines = _saved_lines(tmp_path, dialogues)
    want = [json.dumps(dialogue_to_json(d), ensure_ascii=False) for d in dialogues]
    assert lines == ['{"dialogues": [', *(line + "," for line in want[:-1]), want[-1], "]}"]
    assert '"initial_goal"' in want[-1] and "東京" in want[-1]


def test_dialogue_to_json_is_the_callers_copy(ontology, seeds):
    dialogues = _mixed_dialogues(ontology, seeds)
    before = [json.dumps(dialogue_to_json(d)) for d in dialogues]
    for dlg in dialogues:
        for data in (dialogue_to_json(dlg), {"turns": [turn_to_json(t) for t in dlg.turns]}):
            for goal in (data.get("goal"), data.get("initial_goal")):
                if goal is not None:
                    goal.setdefault("hotel", {})["area"] = "moon"
            for turn in data["turns"]:
                turn["belief"].setdefault("hotel", {})["area"] = "moon"
                turn["belief"]["taxi"] = {}
                turn["act"].append(["general", "bye", NONE])
                for triple in turn["act"]:
                    triple[0] = "moon"
                turn["db"]["count"] = 99
    assert [json.dumps(dialogue_to_json(d)) for d in dialogues] == before


def test_save_empty_corpus_layout(tmp_path):
    out, lines = _saved_lines(tmp_path, [])
    assert json.loads(out.read_text(encoding="utf-8")) == {"dialogues": []}
    assert lines == ['{"dialogues": [', "]}"]


def test_indented_bundled_corpus_still_loads(ontology):
    # the bundled seed file keeps the indented layout; both layouts load
    with open(SEED_CORPUS_PATH, encoding="utf-8") as fh:
        assert fh.read().startswith('{\n  "dialogues": [\n')
    assert len(load_seed_corpus(SEED_CORPUS_PATH, ontology)) == 3


# -- malformed shapes -----------------------------------------------------------

def _one_dialogue(**changes):
    turn = {"user": "hi", "belief": {"hotel": {"area": "north"}}, "act": [], "resp": "hello",
            "db": {"domain": "general", "count": 0, "bucket": "db_nores"}}
    turn.update(changes.pop("turn", {}))
    dialogue = {"id": "d0", "goal": {"hotel": {"area": "north"}}, "turns": [turn]}
    dialogue.update(changes)
    return {"dialogues": [dialogue]}


MALFORMED = [
    pytest.param({"dialogues": None}, r"c\.json: top level must be", id="dialogues-null"),
    pytest.param({"dialogues": 5}, r"c\.json: top level must be", id="dialogues-int"),
    pytest.param(_one_dialogue(goal=5), r"dialogues\[0\]\.goal: must be an object, got 5",
                 id="goal-int"),
    pytest.param(_one_dialogue(goal={"hotel": "x"}),
                 r"dialogues\[0\]\.goal: domain 'hotel' must be an object", id="goal-domain-str"),
    pytest.param(_one_dialogue(initial_goal=[]),
                 r"dialogues\[0\]\.initial_goal: must be an object", id="initial-goal-list"),
    pytest.param(_one_dialogue(initial_goal={"hotel": None}),
                 r"dialogues\[0\]\.initial_goal: domain 'hotel' must be an object",
                 id="initial-goal-domain-null"),
    pytest.param(_one_dialogue(turns=5), r"dialogues\[0\]: turns must be a list", id="turns-int"),
    pytest.param(_one_dialogue(turn={"db": 5}),
                 r"dialogues\[0\]\.turns\[0\]\.db: must be an object", id="db-int"),
    pytest.param(_one_dialogue(turn={"db": {"domain": "hotel", "count": None, "bucket": "db_0"}}),
                 r"dialogues\[0\]\.turns\[0\]\.db: ", id="db-count-null"),
    pytest.param(_one_dialogue(turn={"db": {"domain": "hotel", "count": float("inf"),
                                            "bucket": "db_3"}}),
                 r"dialogues\[0\]\.turns\[0\]\.db: count must be an int", id="db-count-inf"),
    pytest.param(_one_dialogue(turn={"db": {"domain": "hotel", "count": 1.5, "bucket": "db_1"}}),
                 r"dialogues\[0\]\.turns\[0\]\.db: count must be an int",
                 id="db-count-float"),
    pytest.param(_one_dialogue(turn={"db": {"domain": "hotel", "count": True, "bucket": "db_1"}}),
                 r"dialogues\[0\]\.turns\[0\]\.db: count must be an int", id="db-count-bool"),
    pytest.param(_one_dialogue(turn={"db": {"domain": "hotel", "count": "3", "bucket": "db_1"}}),
                 r"dialogues\[0\]\.turns\[0\]\.db: count must be an int", id="db-count-str"),
    pytest.param(_one_dialogue(turn={"db": {"domain": "hotel", "count": -1, "bucket": "db_0"}}),
                 r"dialogues\[0\]\.turns\[0\]\.db: db count must be nonnegative",
                 id="db-count-negative"),
    pytest.param(_one_dialogue(turn={"db": {"domain": 5, "count": 0, "bucket": "db_0"}}),
                 r"dialogues\[0\]\.turns\[0\]\.db: domain must be a string",
                 id="db-domain-int"),
    pytest.param(_one_dialogue(turn={"db": {"domain": "hotel", "count": 0, "bucket": "db_9"}}),
                 r"dialogues\[0\]\.turns\[0\]\.db: unknown db bucket", id="db-bucket-unknown"),
    pytest.param(_one_dialogue(turn={"belief": {"hotel": [1]}}),
                 r"dialogues\[0\]\.turns\[0\]\.belief: domain 'hotel' must be an object",
                 id="belief-domain-list"),
    pytest.param(_one_dialogue(source="bogus"),
                 r"dialogues\[0\]: unknown dialogue source 'bogus'", id="source-unknown"),
    pytest.param(_one_dialogue(turn={"user": None}),
                 r"dialogues\[0\]\.turns\[0\]: user must be a string", id="user-null"),
    pytest.param(_one_dialogue(turn={"resp": 5}),
                 r"dialogues\[0\]\.turns\[0\]: resp must be a string", id="resp-int"),
    pytest.param(_one_dialogue(goal={"hotel": {"type": None}}),
                 r"dialogues\[0\]\.goal: hotel\.type must be a string", id="goal-value-null"),
    pytest.param(_one_dialogue(goal={"hotel": {"stars": 3}}),
                 r"dialogues\[0\]\.goal: hotel\.stars must be a string", id="goal-value-int"),
    pytest.param(_one_dialogue(initial_goal={"hotel": {"parking": True}}),
                 r"dialogues\[0\]\.initial_goal: hotel\.parking must be a string",
                 id="initial-goal-value-bool"),
    pytest.param(_one_dialogue(turn={"belief": {"hotel": {"area": {"a": 1}}}}),
                 r"dialogues\[0\]\.turns\[0\]\.belief: hotel\.area must be a string",
                 id="belief-value-object"),
    pytest.param(_one_dialogue(turn={"belief": {"hotel": {"area": None}}}),
                 r"dialogues\[0\]\.turns\[0\]\.belief: hotel\.area must be a string",
                 id="belief-value-null"),
    pytest.param(_one_dialogue(id=None), r"dialogues\[0\]: id must be a string", id="id-null"),
    pytest.param(_one_dialogue(id=7), r"dialogues\[0\]: id must be a string", id="id-int"),
    pytest.param(_one_dialogue(id=["x"]), r"dialogues\[0\]: id must be a string", id="id-list"),
    pytest.param(_one_dialogue(turn={"belief": []}),
                 r"dialogues\[0\]\.turns\[0\]\.belief: must be an object", id="belief-list"),
    pytest.param(_one_dialogue(turn={"db": {"domain": "hotel", "bucket": "db_0"}}),
                 r"dialogues\[0\]\.turns\[0\]\.db: missing key 'count'", id="db-count-missing"),
    # an act member that is not a string is refused, not read as its str()
    pytest.param(_one_dialogue(turn={"act": [[None, "bye", "none"]]}),
                 r"dialogues\[0\]\.turns\[0\]\.act: \[0\] must be three strings, "
                 r"got \[None, 'bye', 'none'\]", id="act-domain-null"),
    pytest.param(_one_dialogue(turn={"act": [["general", "bye", "none"], ["general", 5, "none"]]}),
                 r"dialogues\[0\]\.turns\[0\]\.act: \[1\] must be", id="act-type-int"),
    pytest.param(_one_dialogue(turn={"act": [["general", "bye", None]]}),
                 r"dialogues\[0\]\.turns\[0\]\.act: \[0\] must be", id="act-slot-null"),
    pytest.param(_one_dialogue(turn={"act": [["general", "bye", 0]]}),
                 r"dialogues\[0\]\.turns\[0\]\.act: \[0\] must be", id="act-slot-int"),
    pytest.param(_one_dialogue(turn={"act": [["general", "bye", False]]}),
                 r"dialogues\[0\]\.turns\[0\]\.act: \[0\] must be", id="act-slot-bool"),
    pytest.param(_one_dialogue(turn={"act": [["general", "bye"]]}),
                 r"dialogues\[0\]\.turns\[0\]\.act: \[0\] must be", id="act-triple-short"),
    # only the slot "none" means slotless: an empty slot is refused, not read as it
    pytest.param(_one_dialogue(turn={"act": [["general", "bye", "none"], ["hotel", "request", ""]]}),
                 r"dialogues\[0\]\.turns\[0\]\.act: \[1\] has an empty slot", id="act-slot-empty"),
    pytest.param(_one_dialogue(turn={"act": "general bye none"}),
                 r"dialogues\[0\]\.turns\[0\]\.act: must be a list of", id="act-str"),
    # a slot named none is not a domain-only mention, and one slot is not spelled twice
    pytest.param(_one_dialogue(turn={"belief": {"hotel": {"none": "cheap"}}}),
                 r"dialogues\[0\]\.turns\[0\]\.belief: hotel\.none is not a slot",
                 id="belief-slot-none"),
    pytest.param(_one_dialogue(goal={"hotel": {"area": "north", "None": "cheap"}}),
                 r"dialogues\[0\]\.goal: hotel\.None is not a slot", id="goal-slot-none-case"),
    pytest.param(_one_dialogue(goal={"hotel": {"book stay": "2", "stay": "3"}}),
                 r"dialogues\[0\]\.goal: hotel\.stay repeats slot 'stay'", id="goal-slot-twice"),
    pytest.param(_one_dialogue(initial_goal={"hotel": {"Area": "north", "area": "south"}}),
                 r"dialogues\[0\]\.initial_goal: hotel\.area repeats slot 'area'",
                 id="initial-goal-slot-twice-case"),
    pytest.param(_one_dialogue(turn={"belief": {"hotel": {"pricerange": "cheap",
                                                          "price range": "cheap"}}}),
                 r"dialogues\[0\]\.turns\[0\]\.belief: hotel\.price range repeats slot "
                 r"'pricerange'", id="belief-slot-twice-alias"),
]


@pytest.mark.parametrize("payload,message", MALFORMED)
def test_malformed_shape_is_corpus_error_naming_its_place(tmp_path, ontology, payload, message):
    path = write_corpus(tmp_path, payload)
    for strict in (True, False):
        with pytest.raises(CorpusError, match=message):
            load_seed_corpus(path, ontology, strict=strict)


@pytest.mark.parametrize("db,problem", [
    ({"domain": "spaceship", "count": 7, "bucket": "db_0"}, "unknown domain 'spaceship'"),
    ({"domain": "hotel", "count": 7, "bucket": "db_0"},
     "bucket 'db_0' does not match count 7 (db_3)"),
    ({"domain": "hotel", "count": 3, "bucket": "db_nores"}, "db_nores with count 3, not 0"),
])
def test_db_result_the_db_could_not_return(tmp_path, ontology, db, problem):
    """Strict load refuses it; lenient load records it and reads the turn as `NO_RESULT`."""
    path = write_corpus(tmp_path, _one_dialogue(turn={"db": db}))
    issue = f"d0 dialogues[0].turns[0].db: {problem}"
    with pytest.raises(CorpusError, match=f"^{re.escape(issue)}$"):
        load_seed_corpus(path, ontology)
    dataset = load_seed_corpus(path, ontology, strict=False)
    assert dataset.dialogues[0].turns[0].db is NO_RESULT
    assert dataset.issues == [issue]


def test_strict_load_reports_the_first_fault_in_file_order(tmp_path, ontology):
    """An ontology fault in the goal comes before a shape fault in a later turn."""
    payload = _one_dialogue(goal={"spaceship": {"x": "y"}})
    payload["dialogues"][0]["turns"].append({"user": "hi", "belief": {}, "act": []})
    path = write_corpus(tmp_path, payload)
    with pytest.raises(CorpusError,
                       match=r"^d0 dialogues\[0\]\.goal: unknown domain 'spaceship'$"):
        load_seed_corpus(path, ontology)
    with pytest.raises(CorpusError, match=r"dialogues\[0\]\.turns\[1\]: missing key 'resp'"):
        load_seed_corpus(path, ontology, strict=False)


# -- the loader against the per-entry builder it replaced -----------------------

def _reference_turn(data, where):
    if not isinstance(data, dict):
        raise CorpusError(f"{where}: turn must be an object")
    for key in ("user", "belief", "act", "resp"):
        if key not in data:
            raise CorpusError(f"{where}: missing key {key!r}")
    db = DbResult.from_json(data["db"]) if "db" in data else NO_RESULT
    return Turn(
        user_utterance=normalize_text(str(data["user"])),
        belief=TurnBelief.from_dict(data["belief"]),
        db=db,
        act=DialogAct.from_triples(data["act"]),
        system_response=normalize_text(str(data["resp"])),
    )


def _reference_dialogue(data, where):
    goal = UserGoal.from_dict(data["goal"])
    initial = UserGoal.from_dict(data["initial_goal"]) if "initial_goal" in data else goal
    turns = [_reference_turn(t, f"{where}.turns[{i}]") for i, t in enumerate(data["turns"])]
    return Dialogue(id=str(data["id"]), initial_goal=initial, final_goal=goal, turns=turns,
                    source=data.get("source", SOURCE_SEED))


def _validate_dialogue(dlg: Dialogue, where: str, ontology: Ontology, strict: bool,
                       issues: list[str]) -> None:
    """Check every triple against the ontology; strict mode raises, lenient drops."""

    def admit(annotation, place: str):
        problems = annotation.validate(ontology)
        if not problems:
            return annotation
        if strict:
            raise CorpusError(f"{dlg.id} {where}.{place}: {problems[0]}")
        issues.extend(f"{dlg.id} {where}.{place}: {problem}" for problem in problems)
        return annotation.admitted(ontology)

    shared_goal = dlg.initial_goal is dlg.final_goal
    dlg.final_goal = admit(dlg.final_goal, "goal")
    dlg.initial_goal = (dlg.final_goal if shared_goal
                        else admit(dlg.initial_goal, "initial_goal"))
    for i, turn in enumerate(dlg.turns):
        turn.belief = admit(turn.belief, f"turns[{i}].belief")
        turn.act = admit(turn.act, f"turns[{i}].act")


def _reference_load(path, ontology, strict):
    """Every entry built and validated on its own, the parsed JSON kept to the end."""
    data = json.loads(path.read_text(encoding="utf-8"))
    issues = []
    dialogues = []
    for i, entry in enumerate(data["dialogues"]):
        dlg = _reference_dialogue(entry, f"dialogues[{i}]")
        _validate_dialogue(dlg, f"dialogues[{i}]", ontology, strict, issues)
        dialogues.append(dlg)
    return dialogues, issues


def _verbalize(req):
    """A DST completion that states the belief the prompt prescribes."""
    tail = req.prompt.rsplit("User(", 1)[1]
    belief = parse_belief(tail[: tail.rfind("):")])
    words = ["no preference" if value == "dontcare" else f"{slot} {value}"
             for _, slot, value in belief.triples() if slot != NONE]
    return " i want " + " and ".join(words) + " ."


def _lenient_payload(seeds):
    """Bundled dialogues with mixed-case, aliased and invalid triples added."""
    dialogues = []
    for n, dlg in enumerate(seeds):
        data = dialogue_to_json(dlg)
        data["id"] = f"lenient{n}"
        data["initial_goal"] = {"Hotel": {"Area": "NORTH"}, "spaceship": {"x": "y"}}
        data["goal"]["hotel"] = {"price range": "Cheap", "color": "red", "Book Stay": "3"}
        for i, turn in enumerate(data["turns"]):
            turn["user"] = turn["user"].upper() + " ?!"
            hotel = turn["belief"].setdefault("hotel", {})
            hotel.pop("people", None)  # "book people" beside "people" names one slot twice
            hotel["book people"] = str(i)
            turn["belief"]["general"] = {"area": "south"}
            turn["act"] += [["hotel", "request", "Price Range"], ["taxi", "frob", "none"],
                            ["hotel", "inform", "color"]]
            if i % 2:
                del turn["db"]
        dialogues.append(data)
    return {"dialogues": dialogues}


@pytest.fixture(scope="module")
def reference_inputs(tmp_path_factory, ontology, seeds):
    """(path, strict) per input: the bundled seeds, an augment_corpus output, a lenient corpus."""
    root = tmp_path_factory.mktemp("reference")
    samples, report = augment_corpus(seeds, MockBackend(_verbalize), None, ontology,
                                     GenConfig(rng_seed=17, retries=0), passes=2)
    assert samples and report.succeeded == len(samples)
    save_corpus(samples, root / "dst.json")
    write_corpus(root, _lenient_payload(seeds), name="lenient.json")
    return {"seeds": (Path(SEED_CORPUS_PATH), True), "dst": (root / "dst.json", True),
            "lenient": (root / "lenient.json", False)}


@pytest.mark.parametrize("name", ["seeds", "dst", "lenient"])
def test_load_equals_per_entry_reference(reference_inputs, ontology, name):
    path, strict = reference_inputs[name]
    expected, expected_issues = _reference_load(path, ontology, strict)
    loaded = load_seed_corpus(path, ontology, strict=strict)
    assert loaded.issues == expected_issues
    assert (len(loaded.issues) > 0) == (name == "lenient")
    assert len(loaded.dialogues) == len(expected) > 0
    for got, want in zip(loaded.dialogues, expected):
        assert got == want  # field for field, the goal and belief types included
        assert (got.initial_goal is got.final_goal) == (want.initial_goal is want.final_goal)
        assert [type(t.belief) for t in got.turns] == [TurnBelief] * len(want.turns)


def _loaded_objects(dataset):
    """(memo, object) per text, value, slot name and DB result of a loaded corpus."""
    for dlg in dataset:
        for tmap in (dlg.final_goal, dlg.initial_goal, *(t.belief for t in dlg.turns)):
            for _, slot, value in tmap.triples():
                yield "slot", slot
                yield "value", value
        for turn in dlg.turns:
            yield "text", turn.user_utterance
            yield "text", turn.system_response
            yield "db", turn.db
            for _, _, slot in turn.act.triples:
                yield "slot", slot


def test_load_shares_equal_texts_within_one_load(reference_inputs, ontology):
    for path, strict in reference_inputs.values():
        first = {}
        for memo, obj in _loaded_objects(load_seed_corpus(path, ontology, strict=strict)):
            assert first.setdefault((memo, obj), obj) is obj
    # the DST samples repeat their source dialogues' turns
    dataset = load_seed_corpus(reference_inputs["dst"][0], ontology)
    utterances = [t.user_utterance for d in dataset for t in d.turns]
    assert len(set(map(id, utterances))) == len(set(utterances)) < len(utterances)
    # texts that only lower, normalize or alias to one text share it too
    path, strict = reference_inputs["lenient"]
    dataset = load_seed_corpus(path, ontology, strict=strict)
    cheap = {id(d.final_goal.get("hotel", "pricerange")) for d in dataset}
    cheap |= {id(value) for d in dataset for t in d.turns
              for _, slot, value in t.belief.triples() if value == "cheap"}
    assert len(cheap) == 1
    slots = {id(slot) for d in dataset for t in d.turns
             for _, _, slot in t.act.triples if slot == "pricerange"}
    assert len(slots) == 1


def test_two_loads_share_no_memo(reference_inputs, ontology):
    path, strict = reference_inputs["dst"]
    first = load_seed_corpus(path, ontology, strict=strict)
    second = load_seed_corpus(path, ontology, strict=strict)
    assert first.dialogues == second.dialogues
    ids = {id(obj) for _, obj in _loaded_objects(first)}
    # interpreter-wide constants are shared by any two loads: NO_RESULT, NONE
    # and the one-character strings CPython keeps
    assert not any(id(obj) in ids for _, obj in _loaded_objects(second)
                   if obj is not NO_RESULT and obj is not NONE and len(str(obj)) > 1)


# -- the streaming reader and the shared turns ----------------------------------

def _distinct_turns(dialogues):
    """The distinct turns, as the JSON each would be saved as, keys in order."""
    return {json.dumps(turn_to_json(t)) for d in dialogues for t in d.turns}


def _random_corpus(rng, seeds, strict):
    """Bundled dialogues rebuilt from a shared pool of turns, so that turns repeat.

    Some turns change: belief keys in another order (equal, but saved
    otherwise), an upper-cased utterance (normalized to the same text),
    non-ASCII text, and, when not strict, a slot the ontology does not know.
    """
    pool = [turn for d in seeds for turn in dialogue_to_json(d)["turns"]]
    dialogues = []
    for n in range(rng.randint(0, 6)):
        data = dialogue_to_json(rng.choice(list(seeds)))
        data["id"] = f"r{n}"
        data["turns"] = []
        for _ in range(rng.randint(1, 4)):
            turn = json.loads(json.dumps(rng.choice(pool)))
            roll = rng.random()
            if roll < 0.15:
                turn["belief"] = {d: dict(reversed(slots.items()))
                                  for d, slots in reversed(turn["belief"].items())}
            elif roll < 0.3:
                turn["user"] = turn["user"].upper()
            elif roll < 0.4:
                turn["resp"] += rng.choice([" café crème", " 東京 ?", " \"quoted\" \\"])
            elif roll < 0.5 and not strict:
                turn["belief"].setdefault("hotel", {})["color"] = "red"
            data["turns"].append(turn)
        if rng.random() < 0.3:
            data["initial_goal"] = {"hotel": {"area": "north"}}
        dialogues.append(data)
    return dialogues


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10 ** 6), strict=st.booleans(),
       indent=st.sampled_from([None, 1, "\t"]),
       separators=st.sampled_from([None, (",", ":"), (" ,\n ", " : ")]),
       ensure_ascii=st.booleans(), extra=st.sampled_from(["", "before", "after", "both"]))
def test_any_layout_loads_as_the_reference(tmp_path_factory, ontology, seeds, seed, strict,
                                           indent, separators, ensure_ascii, extra):
    dialogues = _random_corpus(make_rng(seed), seeds, strict)
    payload = {}
    if extra in ("before", "both"):
        payload["version"] = {"count": float("inf"), "tags": ["a", None, 1.5]}
    payload["dialogues"] = dialogues
    if extra in ("after", "both"):
        payload["notes"] = "other keys are read and dropped"
    path = tmp_path_factory.mktemp("layout") / "c.json"
    path.write_text(json.dumps(payload, indent=indent, separators=separators,
                               ensure_ascii=ensure_ascii), encoding="utf-8")
    expected, expected_issues = _reference_load(path, ontology, strict)
    loaded = load_seed_corpus(path, ontology, strict=strict)
    assert loaded.issues == expected_issues
    assert loaded.dialogues == expected
    # saved again, each dialogue writes what the reference writes, belief order included
    assert ([json.dumps(dialogue_to_json(d)) for d in loaded]
            == [json.dumps(dialogue_to_json(d)) for d in expected])
    # equal turns are one object, and turns that differ never are
    assert len({id(t) for d in loaded for t in d.turns}) == len(_distinct_turns(expected))


def _saved_text(tmp_path, seeds):
    path = tmp_path / "saved.json"
    save_corpus(list(seeds), path)
    return path.read_text(encoding="utf-8")


@settings(max_examples=80, deadline=None)
@given(cut=st.floats(0.0, 1.0, exclude_max=True))
def test_truncated_file_is_a_corpus_error_with_the_decoders_place(tmp_path_factory, ontology,
                                                                  seeds, cut):
    root = tmp_path_factory.mktemp("truncated")
    text = _saved_text(root, seeds)
    path = root / "cut.json"
    path.write_text(text[:int(cut * len(text))], encoding="utf-8")
    try:
        json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        expected = f"{path}: not valid JSON ({exc})"
    else:  # only the closing newline was cut
        assert len(load_seed_corpus(path, ontology)) == len(seeds)
        return
    with pytest.raises(CorpusError) as err:
        load_seed_corpus(path, ontology)
    assert str(err.value) == expected


@pytest.mark.parametrize("text", [
    "", "  \n ", '{"dialogues": []}\n{}', '{"dialogues": []} []',
    '{"dialogues": [] "x": 1}', '{"dialogues" []}', '{"x": nul, "dialogues": []}',
    '{"dialogues": [,]}', '{\n"dialogues": [\n', '{"dialogues": [}',
    "\ufeff" + '{"dialogues": []}',
    # a syntax error after a shape fault is reported, as json.load reports it
    '{"dialogues": null, "x": ]}',
    '[{"dialogues": []}]', '"dialogues"', '{"dialogues": null}', '{"dialogues": {}}',
    '{"dialogue": []}', "{}",
])
def test_damaged_file_is_the_corpus_error_json_load_implies(tmp_path, ontology, text):
    """Invalid JSON is named with the decoder's message and place, a wrong shape as such."""
    path = tmp_path / "c.json"
    path.write_text(text, encoding="utf-8")
    try:
        json.loads(text)
    except json.JSONDecodeError as exc:
        expected = f"{path}: not valid JSON ({exc})"
    else:
        expected = f'{path}: top level must be {{"dialogues": [...]}}'
    for strict in (True, False):
        with pytest.raises(CorpusError) as err:
            load_seed_corpus(path, ontology, strict=strict)
        assert str(err.value) == expected


@pytest.mark.parametrize("text", ['{"dialogues": [],}', '{"dialogues": [], "x": [1,]}'])
def test_trailing_comma_is_not_valid_json(tmp_path, ontology, text):
    """From Python 3.13 `json` names a trailing comma itself, at the comma; the
    reader names the place after it, as earlier versions of `json` do."""
    path = tmp_path / "c.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(CorpusError, match=r"c\.json: not valid JSON \(.*: line 1 column"):
        load_seed_corpus(path, ontology)


def test_fault_in_an_entry_comes_before_a_later_syntax_error(tmp_path, ontology):
    """Each entry is built as it is decoded, so faults are met in file order."""
    path = tmp_path / "c.json"
    path.write_text('{"dialogues": [1 2]}', encoding="utf-8")
    with pytest.raises(CorpusError, match=r"^dialogues\[0\]: dialogue must be an object$"):
        load_seed_corpus(path, ontology)


def test_second_dialogues_key_is_refused(tmp_path, ontology, seeds):
    """json.load keeps the last of two equal keys, which would read an empty corpus here."""
    entry = json.dumps(dialogue_to_json(seeds.get("SNG0955")))
    for text in (f'{{"dialogues": [{entry}], "dialogues": []}}',
                 f'{{"dialogues": [], "x": 1,\n "dialogues": [{entry}]}}',
                 f'{{"dialogues": null, "dialogues": [{entry}]}}'):
        path = tmp_path / "twice.json"
        path.write_text(text, encoding="utf-8")
        for strict in (True, False):
            with pytest.raises(CorpusError, match=r'c?twice\.json: "dialogues" given twice'):
                load_seed_corpus(path, ontology, strict=strict)


def test_dst_samples_reload_with_one_turn_per_distinct_turn(reference_inputs, ontology):
    path, strict = reference_inputs["dst"]
    loaded = load_seed_corpus(path, ontology, strict=strict)
    turns = [t for d in loaded for t in d.turns]
    distinct = _distinct_turns(loaded)
    assert len({id(t) for t in turns}) == len(distinct) < len(turns)
    # equal acts are one object too, across turns that differ
    acts = [t.act for t in turns]
    assert len({id(a) for a in acts}) == len(set(acts)) < len({id(t) for t in turns})


def test_observed_values_read_each_shared_turn_once_as_every_appearance(
        reference_inputs, ontology, monkeypatch):
    path, strict = reference_inputs["dst"]
    loaded = load_seed_corpus(path, ontology, strict=strict)
    seen = {}  # per appearance: every goal and every turn's belief, in corpus order
    for dlg in loaded:
        for tmap in [dlg.final_goal] + [t.belief for t in dlg.turns]:
            for domain, slot, value in tmap.triples():
                if slot != NONE and value not in ("dontcare", NONE):
                    seen.setdefault((domain, slot), {}).setdefault(value, None)
    want = [(key, list(values)) for key, values in seen.items()]
    assert list(loaded.observed_values().items()) == want
    # and each distinct turn's belief is read once
    reads = []
    triples = TurnBelief.triples
    monkeypatch.setattr(TurnBelief, "triples", lambda self: reads.append(self) or triples(self))
    assert list(_observed_values(loaded.dialogues).items()) == want
    appearances = [t for d in loaded for t in d.turns]
    assert len(reads) == len({id(b) for b in reads}) == len({id(t) for t in appearances})
    assert len(reads) < len(appearances)


def test_repeated_bad_turn_is_reported_under_each_place(tmp_path, ontology):
    turn = {"user": "a red hotel", "belief": {"hotel": {"color": "red", "area": "north"}},
            "act": [["hotel", "frobnicate", "none"]], "resp": "ok"}
    payload = {"dialogues": [
        {"id": f"d{n}", "goal": {}, "turns": [turn] * (n + 1)} for n in range(2)]}
    path = write_corpus(tmp_path, payload)
    dataset = load_seed_corpus(path, ontology, strict=False)
    places = ["d0 dialogues[0].turns[0]", "d1 dialogues[1].turns[0]", "d1 dialogues[1].turns[1]"]
    assert dataset.issues == [issue for place in places for issue in (
        f"{place}.belief: hotel.color is not an informable slot",
        f"{place}.act: act 'frobnicate' not permitted in domain 'hotel'")]
    turns = [t for d in dataset for t in d.turns]
    assert all(t is turns[0] for t in turns)
    assert turns[0].belief.to_dict() == {"hotel": {"area": "north"}} and turns[0].act.is_empty()
    with pytest.raises(CorpusError, match=r"^d0 dialogues\[0\]\.turns\[0\]\.belief: "):
        load_seed_corpus(path, ontology)
