import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dialogic.model import (
    NO_RESULT,
    DecodeConfig,
    DialogAct,
    DbResult,
    GenConfig,
    TurnBelief,
    UserGoal,
    ValidationError,
    accumulate_state,
)

pytestmark = []


def test_from_dict_canonicalizes_aliases():
    belief = TurnBelief.from_dict({"hotel": {"book stay": "3", "book people": "6"}})
    assert belief.to_dict() == {"hotel": {"stay": "3", "people": "6"}}


def test_domain_only_entry_round_trip():
    belief = TurnBelief.from_dict({"train": {}})
    assert belief.triples() == [("train", "none", "none")]
    assert belief.to_dict() == {"train": {}}


def test_qualified_slots():
    goal = UserGoal({"hotel": {"stay": "2"}, "train": {"day": "monday"}})
    assert goal.qualified_slots() == {"hotel.stay", "train.day"}


def test_accumulate_empty():
    assert accumulate_state([]).is_empty()


def test_accumulate_last_writer_wins():
    deltas = [TurnBelief({"hotel": {"stay": "3"}}), TurnBelief({"hotel": {"stay": "2"}})]
    assert accumulate_state(deltas).to_dict() == {"hotel": {"stay": "2"}}


def test_accumulate_skips_general_and_domain_only():
    deltas = [
        TurnBelief({"hotel": {"area": "south"}}),
        TurnBelief({"train": {}}),
        TurnBelief({"general": {}}),
    ]
    assert accumulate_state(deltas).to_dict() == {"hotel": {"area": "south"}}


def test_accumulate_matches_bruteforce_replay(ontology):
    from .conftest import make_rng, random_belief

    rng = make_rng(11)
    for _ in range(50):
        deltas = [random_belief(ontology, rng) for _ in range(rng.randint(0, 6))]
        replayed = {}
        for delta in deltas:
            for domain, slot, value in delta.triples():
                if domain != "general" and slot != "none":
                    replayed[(domain, slot)] = value
        state = accumulate_state(deltas)
        assert {(d, s): v for d, s, v in state.triples()} == replayed


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_accumulate_associative(data):
    domains = ["hotel", "train"]
    slots = ["area", "stay", "day"]
    values = ["south", "2", "monday"]
    def belief(draw):
        b = TurnBelief()
        for _ in range(draw.draw(st.integers(0, 3))):
            b.set(draw.draw(st.sampled_from(domains)),
                  draw.draw(st.sampled_from(slots)),
                  draw.draw(st.sampled_from(values)))
        return b
    a = [belief(data) for _ in range(data.draw(st.integers(0, 3)))]
    b = [belief(data) for _ in range(data.draw(st.integers(0, 3)))]
    left = accumulate_state(a + b)
    prefix = accumulate_state(a)
    right = accumulate_state([TurnBelief(prefix.entries)] + b)
    assert left.entries == right.entries


def test_dialog_act_validation(ontology):
    act = DialogAct.from_triples([["hotel", "request", "area"]])
    assert act.validate(ontology) == []
    bad = DialogAct.from_triples([["taxi", "offerbook", "none"]])
    assert bad.validate(ontology)
    general_bad = DialogAct.from_triples([["general", "inform", "none"]])
    assert general_bad.validate(ontology)


def test_db_result_invariants():
    with pytest.raises(ValidationError):
        DbResult("hotel", -1, "db_0")
    with pytest.raises(ValidationError):
        DbResult("hotel", 1, "db_9")


def test_db_result_validate_admits_exactly_what_a_query_can_return(ontology):
    returnable = [NO_RESULT, DbResult("hotel", 0, "db_nores"), DbResult("taxi", 0, "db_nores"),
                  DbResult("hotel", 0, "db_0"), DbResult("hotel", 1, "db_1"),
                  DbResult("hotel", 3, "db_2"), DbResult("hotel", 4, "db_3")]
    for db in returnable:
        assert db.validate(ontology) == [] and db.admitted(ontology) is db
    for db, problem in [
        (DbResult("spaceship", 0, "db_nores"), "unknown domain 'spaceship'"),
        (DbResult("hotel", 3, "db_nores"), "db_nores with count 3, not 0"),
        (DbResult("taxi", 2, "db_2"), "bucket 'db_2' in domain 'taxi', which is not queryable"),
        (DbResult("hotel", 4, "db_2"), "bucket 'db_2' does not match count 4 (db_3)"),
    ]:
        assert db.validate(ontology) == [problem]
        assert db.admitted(ontology) is NO_RESULT


def test_gen_config_invariants():
    with pytest.raises(ValidationError):
        GenConfig(select_temperature=0.0)
    with pytest.raises(ValidationError):
        GenConfig(n_shots=0)
    with pytest.raises(ValidationError):
        GenConfig(max_turns=0)
    for bad in ({"retries": -1}, {"max_domains": 0}, {"max_slots_per_domain": 0},
                {"select_temperature": float("nan")}, {"select_temperature": float("inf")}):
        with pytest.raises(ValidationError):
            GenConfig(**bad)
    assert GenConfig(retries=0).retries == 0
    assert GenConfig().max_turns == 12
    assert GenConfig().decode.temperature == 0.7
    assert GenConfig().decode.frequency_penalty == 1.0
    for edge in (-2, 2.0):  # the OpenAI completions range, ends included
        assert DecodeConfig(frequency_penalty=edge).frequency_penalty == edge


@pytest.mark.parametrize("field, value", [
    ("max_tokens", 0), ("max_tokens", -5), ("max_tokens", None), ("max_tokens", 1.5),
    ("max_tokens", True), ("max_tokens", "256"),
    ("temperature", True), ("top_p", None), ("frequency_penalty", "x"),
    ("frequency_penalty", float("nan")), ("frequency_penalty", float("inf")),
    ("frequency_penalty", -7), ("frequency_penalty", 9),
])
def test_decode_config_rejects_bad_values(field, value):
    with pytest.raises(ValidationError, match=field):
        DecodeConfig(**{field: value})
