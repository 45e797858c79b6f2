import json

import pytest

from dialogic.corpus import (
    CorpusError,
    dialogue_to_json,
    load_seed_corpus,
    save_corpus,
)
from dialogic.model import SOURCE_SIMULATED

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
        "mixed goal: unknown domain 'spaceship'",
        "mixed turns[0].belief: general domain carries slot 'area'",
        "mixed turns[0].belief: unknown domain 'spaceship'",
        "mixed turns[0].act: unknown domain 'spaceship'",
        "mixed turns[0].act: slot 'color' not permitted in acts of domain 'hotel'",
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


def test_save_empty_corpus_layout(tmp_path):
    out, lines = _saved_lines(tmp_path, [])
    assert json.loads(out.read_text(encoding="utf-8")) == {"dialogues": []}
    assert lines == ['{"dialogues": [', "]}"]


def test_indented_bundled_corpus_still_loads(ontology):
    # the bundled seed file keeps the indented layout; both layouts load
    with open(SEED_CORPUS_PATH, encoding="utf-8") as fh:
        assert fh.read().startswith('{\n  "dialogues": [\n')
    assert len(load_seed_corpus(SEED_CORPUS_PATH, ontology)) == 3
