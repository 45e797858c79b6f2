import json
import random
import re
import sys
from importlib import resources
from pathlib import Path

import pytest

from dialogic.cli import main
from dialogic.corpus import load_seed_corpus
from dialogic.database import load_entity_db
from dialogic.exemplar import parse_act, serialize_act
from dialogic.model import DialogAct, accumulate_state
from dialogic.ontology import (
    ACT_TYPES,
    GENERAL_DOMAIN,
    DomainSchema,
    Ontology,
    OntologyError,
    canonical_slot,
    load_ontology,
)

from .conftest import SEED_CORPUS_PATH

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import synth  # noqa: E402


def test_twelve_global_act_types():
    assert len(ACT_TYPES) == 12
    assert {"inform", "request", "offerbook", "offerbooked", "nobook",
            "nooffer", "select", "recommend", "welcome", "greet", "bye",
            "reqmore"} == set(ACT_TYPES)


def test_canonical_slot_aliases():
    assert canonical_slot("book stay") == "stay"
    assert canonical_slot("book people") == "people"
    assert canonical_slot("book day") == "day"
    assert canonical_slot("arriveby") == "arrive"
    assert canonical_slot("leaveat") == "leave"
    assert canonical_slot("star") == "stars"
    assert canonical_slot("area") == "area"


def test_default_ontology_shape(ontology):
    assert set(ontology.domains) == {
        "restaurant", "hotel", "attraction", "taxi", "train",
        "hospital", "police", "general"}
    assert ontology.queryable("hotel")
    assert not ontology.queryable("taxi")
    assert ontology.is_informable("hotel", "stay")
    assert not ontology.is_informable("hotel", "reference")
    assert not ontology.is_informable("spaceship", "area")
    assert ontology.act_permitted("hotel", "nobook")
    assert not ontology.act_permitted("taxi", "offerbook")
    assert ontology.act_permitted("general", "bye")
    assert not ontology.act_permitted("general", "inform")


def test_act_slot_universe(ontology):
    assert ontology.act_slot_permitted("hotel", "choice")
    assert ontology.act_slot_permitted("hotel", "price")
    assert ontology.act_slot_permitted("hotel", "reference")
    assert ontology.act_slot_permitted("train", "id")
    assert ontology.act_slot_permitted("hotel", "none")
    assert not ontology.act_slot_permitted("hotel", "frobnicate")
    # the sets built with the ontology answer as `slot_universe` does, slot by slot;
    # on both ontologies the rule gives the act slots MultiWOZ's domains were listed with
    listed = {"hotel": {"choice", "price"}, "restaurant": {"choice", "price"},
              "attraction": {"choice"}, "train": {"choice"}}
    synthetic, _ = synth.build_ontology(random.Random(5))
    for onto in (ontology, Ontology.from_json(synthetic)):
        # every domain is probed with every slot some domain permits
        probes = set().union(*(s.slot_universe() for s in onto.domains.values()))
        for domain, schema in onto.domains.items():
            universe = schema.slot_universe()
            assert universe == (set(schema.informable) | schema.requestable
                                | listed.get(domain, set())), domain
            for slot in sorted(probes | {"frobnicate"}):
                assert onto.act_slot_permitted(domain, slot) == (slot in universe), (domain, slot)
    # the rule reads the schema's own fields, not its domain's name
    for queryable in (False, True):
        for priced in (False, True):
            informable = {"area": ("north",), **({"pricerange": ("cheap",)} if priced else {})}
            schema = DomainSchema(informable=informable, requestable=frozenset({"phone"}),
                                  acts=frozenset({"inform"}), queryable=queryable)
            expected = ({"area", "phone"} | ({"choice"} if queryable else set())
                        | ({"pricerange", "price"} if priced else set()))
            assert schema.slot_universe() == expected, (queryable, priced)
            onto = Ontology(domains={"xshop": schema})
            for slot in ("area", "pricerange", "price", "choice", "phone", "reference"):
                assert onto.act_slot_permitted("xshop", slot) == (slot in expected), slot
    with pytest.raises(OntologyError, match="unknown domain 'spaceship'"):
        ontology.act_slot_permitted("spaceship", "area")


def test_requestable_slots_are_the_files_own(tmp_path):
    """A domain may request whatever its file lists: the bundled attraction domain
    with an entrance fee and opening hours loads, and a seed act informing the fee
    loads strictly without the fee being a goal slot."""
    data = json.loads(resources.files("dialogic").joinpath("data/ontology.json").read_text("utf-8"))
    data["attraction"]["requestable"] += ["fee", "open"]
    ontology = Ontology.from_json(data)
    assert ontology.act_slot_permitted("attraction", "fee")
    assert not ontology.is_informable("attraction", "fee")
    path = tmp_path / "fee.json"
    path.write_text(json.dumps({"dialogues": [{"id": "FEE1", "goal": {"attraction": {}}, "turns": [
        {"user": "what is the entrance fee of a museum in the centre ?",
         "belief": {"attraction": {"type": "museum", "area": "centre"}},
         "db": {"domain": "attraction", "count": 11, "bucket": "db_3"},
         "act": [["attraction", "inform", "fee"]], "resp": "it is [value_fee] ."}]}]}), "utf-8")
    turn, = load_seed_corpus(path, ontology).dialogues[0].turns
    assert turn.act.triples == (("attraction", "inform", "fee"),)


@pytest.mark.parametrize("slot", ["entrance fee", "fee]", "[fee", "none", "open\thours", ""])
@pytest.mark.parametrize("kind", ["informable", "requestable"])
def test_slot_that_is_not_one_act_token_rejected(tmp_path, capsys, slot, kind):
    """A slot an act line cannot carry as one token is refused by name, built from
    JSON or directly: `entrance fee` would read back from `[attraction] [inform]
    entrance fee` as the two slots `entrance` and `fee`."""
    message = re.escape(f"domain 'attraction': slot {slot!r} is not one act-line token")
    spec = {"informable": {"area": ["centre"]}, "requestable": ["phone"], "acts": ["inform"]}
    if kind == "informable":
        spec["informable"][slot] = []
    else:
        spec["requestable"].append(slot)
    with pytest.raises(OntologyError, match=message):
        Ontology.from_json({"attraction": spec})
    with pytest.raises(OntologyError, match=message):
        Ontology(domains={"attraction": DomainSchema(
            informable={"area": (), **({slot: ()} if kind == "informable" else {})},
            requestable=frozenset({"phone"} | ({slot} if kind == "requestable" else set())),
            acts=frozenset({"inform"}), queryable=True)})
    path = tmp_path / "ontology.json"
    path.write_text(json.dumps({"attraction": spec}), "utf-8")
    code = main(["validate", "--corpus", SEED_CORPUS_PATH, "--ontology", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert re.search(message, err) and "Traceback" not in err


def test_every_act_slot_reads_back_from_an_act_line(ontology):
    """Each slot an act may carry, on the bundled and the synthetic ontology,
    survives `serialize_act` then `parse_act` as itself."""
    synthetic, _ = synth.build_ontology(random.Random(5))
    for onto in (ontology, Ontology.from_json(synthetic)):
        for domain, schema in onto.domains.items():
            act = DialogAct(tuple((domain, "inform", slot)
                                  for slot in sorted(schema.slot_universe())))
            assert parse_act(serialize_act(act)) == act, domain


def test_general_domain_act_restriction():
    with pytest.raises(OntologyError):
        Ontology(domains={"general": DomainSchema(
            informable={}, requestable=frozenset(),
            acts=frozenset({"inform"}), queryable=False)})


def test_unknown_act_type_rejected():
    with pytest.raises(OntologyError, match="unknown act"):
        Ontology(domains={"hotel": DomainSchema(
            informable={}, requestable=frozenset(),
            acts=frozenset({"summon"}), queryable=True)})


def test_ontology_loads_aliased_slot_names(tmp_path):
    path = tmp_path / "ont.json"
    path.write_text(
        '{"hotel": {"informable": {"book stay": ["1", "2"]}, "requestable": [],'
        ' "acts": ["inform"], "queryable": true}}', encoding="utf-8")
    ont = load_ontology(path)
    assert ont.is_informable("hotel", "stay")


@pytest.mark.parametrize("informable", [
    {"price range": ["cheap"], "pricerange": ["moderate"]},
    {"pricerange": ["cheap"], "Price Range": ["moderate"]},
    {"stay": ["1"], "book stay": ["2"]},
])
def test_two_spellings_of_one_informable_slot_rejected(informable):
    """Folding both keys to one slot would keep the last key's values and lose the first's."""
    first, second = informable
    canonical = canonical_slot(first)
    with pytest.raises(OntologyError, match=re.escape(
            f"domain 'hotel': informable keys {first!r} and {second!r} spell one slot "
            f"{canonical!r}")):
        Ontology.from_json({"hotel": {"informable": informable}})


@pytest.mark.parametrize("spec, named", [
    ({"informable": {"area": "north"}}, "informable.area"),
    ({"informable": {"area": None}}, "informable.area"),
    ({"requestable": "phone"}, "requestable"),
    ({"acts": "inform"}, "acts"),
    ({"queryable": "no"}, "queryable"),
    ({"queryable": 1}, "queryable"),
    # values are strings: null is not the sentinel "none", and nothing is coerced
    ({"informable": {"area": ["north", None]}}, "informable.area"),
    ({"informable": {"area": [3]}}, "informable.area"),
    ({"informable": {"area": [True]}}, "informable.area"),
    ({"informable": {"area": [{}]}}, "informable.area"),
])
def test_malformed_schema_value_is_ontology_error(spec, named):
    with pytest.raises(OntologyError, match=f"domain 'hotel': {named} must be a JSON"):
        Ontology.from_json({"hotel": spec})


def test_missing_schema_keys_keep_their_defaults():
    assert Ontology.from_json({"hotel": {}}).schema("hotel") == DomainSchema(
        informable={}, requestable=frozenset(), acts=frozenset(), queryable=False)


def _renamed_dataset(paths: dict[str, Path], out_dir: Path,
                     names: dict[str, str]) -> dict[str, Path]:
    """The data set of `paths` rewritten under `out_dir` with each domain `d` of
    `names` named `names[d]`: in the ontology, the DB file names, the goals,
    beliefs and acts, and each turn's `db.domain`. Values are kept as they are."""
    def rename(domain):
        return names.get(domain, domain)

    out = synth.dataset_paths(out_dir)
    out["db"].mkdir(parents=True)
    ontology = json.loads(paths["ontology"].read_text("utf-8"))
    out["ontology"].write_text(json.dumps({rename(d): spec for d, spec in ontology.items()}),
                               "utf-8")
    for table in paths["db"].glob("*_db.json"):
        domain = table.name[: -len("_db.json")]
        (out["db"] / f"{rename(domain)}_db.json").write_text(table.read_text("utf-8"), "utf-8")
    corpus = json.loads(paths["seeds"].read_text("utf-8"))
    for dialogue in corpus["dialogues"]:
        dialogue["goal"] = {rename(d): slots for d, slots in dialogue["goal"].items()}
        for turn in dialogue["turns"]:
            turn["belief"] = {rename(d): slots for d, slots in turn["belief"].items()}
            turn["act"] = [[rename(d), t, s] for d, t, s in turn["act"]]
            turn["db"]["domain"] = rename(turn["db"]["domain"])
    out["seeds"].write_text(json.dumps(corpus), "utf-8")
    return out


def test_a_renamed_domain_loads_queries_and_validates_as_the_original(tmp_path, capsys):
    """No rule keys on a domain's name: with every task domain of the synthetic
    data renamed, the seeds load strictly, every DB query counts as before, and
    `dialogic validate`, reading each data set's own DB, reports what it reports
    on the original, renamed."""
    paths = synth.write_dataset(tmp_path / "original", 5)
    names = {d: f"x{d}" for d in json.loads(paths["ontology"].read_text("utf-8"))
             if d != GENERAL_DOMAIN}
    runs = []
    for data in (paths, _renamed_dataset(paths, tmp_path / "renamed", names)):
        ontology = load_ontology(data["ontology"])
        seeds = load_seed_corpus(data["seeds"], ontology)  # strict: the first fault raises
        db = load_entity_db(data["db"], ontology)
        counts = []  # per user turn, per task domain of the state so far
        for dialogue in seeds:
            for i in range(len(dialogue.turns)):
                state = accumulate_state(turn.belief for turn in dialogue.turns[:i + 1])
                counts += [(dialogue.id, i, db.query(domain, slots).count)
                           for domain, slots in state.entries.items()]
        code = main(["validate", "--corpus", str(data["seeds"]),
                     "--ontology", str(data["ontology"]), "--db-dir", str(data["db"]), "--json"])
        runs.append((code, counts, capsys.readouterr().out))
    (code, counts, report), (renamed_code, renamed_counts, renamed_report) = runs
    assert len(counts) == 1201 and renamed_counts == counts
    assert re.sub(rf"\bx({'|'.join(names)})\b", r"\1", renamed_report) == report
    assert renamed_code == code == 0
    payload = json.loads(report)
    assert payload["violations"] == [] and len(payload["warnings"]) == 152
