import random
import sys
from pathlib import Path

import pytest

from dialogic.ontology import (
    ACT_TYPES,
    EXTRA_SLOTS,
    DomainSchema,
    Ontology,
    OntologyError,
    canonical_slot,
    load_ontology,
    save_ontology,
)

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
    # the sets built with the ontology answer as `slot_universe` does, slot by slot
    synthetic, _ = synth.build_ontology(random.Random(5))
    for onto in (ontology, Ontology.from_json(synthetic)):
        for domain, schema in onto.domains.items():
            universe = schema.slot_universe(domain)
            for slot in sorted(universe | EXTRA_SLOTS | {"frobnicate"}):
                assert onto.act_slot_permitted(domain, slot) == (slot in universe), (domain, slot)
    with pytest.raises(OntologyError, match="unknown domain 'spaceship'"):
        ontology.act_slot_permitted("spaceship", "area")


def test_requestable_outside_universe_rejected():
    with pytest.raises(OntologyError, match="requestable"):
        Ontology(domains={"hotel": DomainSchema(
            informable={"area": ("south",)},
            requestable=frozenset({"swimming"}),
            acts=frozenset({"inform"}), queryable=True)})


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


def test_ontology_json_round_trip(tmp_path, ontology):
    path = tmp_path / "ont.json"
    save_ontology(ontology, path)
    again = load_ontology(path)
    assert again.to_json() == ontology.to_json()


def test_ontology_loads_aliased_slot_names(tmp_path):
    path = tmp_path / "ont.json"
    path.write_text(
        '{"hotel": {"informable": {"book stay": ["1", "2"]}, "requestable": [],'
        ' "acts": ["inform"], "queryable": true}}', encoding="utf-8")
    ont = load_ontology(path)
    assert ont.is_informable("hotel", "stay")


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
