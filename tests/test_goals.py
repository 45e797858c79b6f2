import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dialogic.goals import (
    GoalStrategy,
    RsDistribution,
    generate_goal_combination,
    generate_goal_random,
    generate_goal_substitution,
    slot_pool,
)
from dialogic.model import GenConfig, UserGoal
from dialogic.ontology import NONE, DomainSchema, Ontology

from .conftest import make_rng


@pytest.fixture()
def hotel_only():
    return Ontology(domains={
        "hotel": DomainSchema(
            informable={
                "type": ("hotel", "guesthouse"),
                "pricerange": ("cheap", "moderate", "expensive"),
                "parking": ("yes", "no"),
                "stars": ("1", "2", "3", "4", "5"),
                "area": ("centre", "north", "south", "east", "west"),
                "stay": ("1", "2", "3"),
            },
            requestable=frozenset({"address", "phone"}),
            acts=frozenset({"inform", "request", "offerbook", "offerbooked", "nooffer"}),
            queryable=True,
        ),
    })


def test_forced_row_single_domain(hotel_only):
    dist = RsDistribution(rows=((1, 4, 6, 1.0),))
    goal = generate_goal_random(hotel_only, dist, make_rng(42))
    assert goal.domains() == ["hotel"]
    assert 4 <= goal.slot_count() <= 6


def test_random_goal_distribution_quick(ontology):
    dist = RsDistribution()
    counts = {1: 0, 2: 0, 3: 0}
    rng = make_rng(3)
    for _ in range(2000):
        goal = generate_goal_random(ontology, dist, rng)
        counts[len(goal.domains())] += 1
    assert abs(counts[1] / 2000 - 0.3) < 0.05
    assert abs(counts[2] / 2000 - 0.6) < 0.05
    assert abs(counts[3] / 2000 - 0.1) < 0.05


def test_random_goal_golden_fixture(ontology):
    # pinned rng fixes the exact goal; guards against silent sampling changes
    goal = generate_goal_random(ontology, RsDistribution(), make_rng(2024))
    assert goal == generate_goal_random(ontology, RsDistribution(), make_rng(2024))
    assert goal.validate(ontology) == []
    assert 1 <= len(goal.domains()) <= 3


def test_random_goal_respects_caps(ontology):
    dist = RsDistribution(rows=((3, 2, 5, 1.0),))
    rng = make_rng(9)
    for _ in range(500):
        goal = generate_goal_random(ontology, dist, rng)
        assert len(goal.domains()) <= 4
        assert all(len(slots) <= 6 for slots in goal.entries.values())
        assert goal.validate(ontology) == []


def test_distribution_must_sum_to_one():
    with pytest.raises(ValueError):
        RsDistribution(rows=((1, 1, 2, 0.5), (2, 1, 2, 0.4)))


def test_substitution_preserves_structure(ontology, seeds):
    source = seeds.get("SNG01856")
    goal = generate_goal_substitution(source, ontology, make_rng(1))
    assert goal.entries.keys() == source.final_goal.entries.keys()
    for domain in goal.entries:
        assert list(goal.entries[domain]) == list(source.final_goal.entries[domain])
    stars_goal = generate_goal_substitution(source, ontology, make_rng(2))
    assert set(stars_goal.entries["hotel"]) == set(source.final_goal.entries["hotel"])


def test_substitution_open_values_kept(ontology, seeds):
    source = seeds.get("PMUL1576")
    goal = generate_goal_substitution(source, ontology, make_rng(4))
    # hotel name is open-valued in the ontology, so the value carries over
    assert goal.get("hotel", "name") == "cityroomz"


def test_substitution_values_from_candidates(ontology, seeds):
    source = seeds.get("SNG0955")
    for attempt in range(20):
        goal = generate_goal_substitution(source, ontology, make_rng(attempt))
        assert goal.get("hotel", "pricerange") in ("cheap", "moderate", "expensive")
        assert goal.get("hotel", "area") in ("centre", "north", "south", "east", "west")


def test_combination_zero_drop_is_union(ontology, seeds):
    from dialogic.corpus import SeedDataset
    from dialogic.model import Dialogue

    def one_domain(did, domain, slots):
        goal = __import__("dialogic").UserGoal({domain: slots})
        src = seeds.get("SNG01856")
        return Dialogue(id=did, initial_goal=goal, final_goal=goal,
                        turns=list(src.turns), source="seed")

    disjoint = SeedDataset(dialogues=[
        one_domain("h", "hotel", {"area": "south", "stars": "4"}),
        one_domain("t", "train", {"day": "monday", "people": "2"}),
    ])
    strategy = GoalStrategy(kind="combination", n_source_dialogues=2, drop_probability=0.0)
    goal, sources = generate_goal_combination(disjoint, ontology, strategy, make_rng(0))
    assert sorted(sources) == ["h", "t"]
    assert {(d, s): v for d, s, v in goal.triples()} == {
        ("hotel", "area"): "south", ("hotel", "stars"): "4",
        ("train", "day"): "monday", ("train", "people"): "2"}


def test_combination_collision_later_source_wins(ontology, seeds):
    strategy = GoalStrategy(kind="combination", n_source_dialogues=2, drop_probability=0.0)
    goal, sources = generate_goal_combination(seeds, ontology, strategy, make_rng(0))
    union = {}
    for sid in sources:
        for d, s, v in seeds.get(sid).final_goal.triples():
            union[(d, s)] = v
    got = {(d, s): v for d, s, v in goal.triples()}
    # after the 4-domain / 6-slot truncation, kept keys carry the union values
    assert set(got) <= set(union)
    for key, value in got.items():
        assert value == union[key]


def test_combination_membership(ontology, seeds):
    strategy = GoalStrategy(kind="combination")
    rng = make_rng(77)
    for _ in range(1000):
        goal, sources = generate_goal_combination(seeds, ontology, strategy, rng)
        assert goal.slot_count() >= 1
        source_triples = set()
        for sid in sources:
            source_triples.update(seeds.get(sid).final_goal.triples())
        assert set(goal.triples()) <= source_triples


def test_combination_refills_a_goal_the_drop_step_empties(ontology, seeds):
    strategy = GoalStrategy(kind="combination", n_source_dialogues=2, drop_probability=0.999)
    goal, sources = generate_goal_combination(seeds, ontology, strategy, make_rng(3))
    union = UserGoal()
    for sid in sources:
        for d, s, v in seeds.get(sid).final_goal.triples():
            union.set(d, s, v)
    survivors = [t for t in union.triples() if t[1] != NONE]
    replay = make_rng(3)
    replay.sample(list(seeds), 2)
    # every slot drew below drop_probability, so the refill drew one survivor
    assert all(replay.random() < strategy.drop_probability for _ in survivors)
    assert list(goal.triples()) == [replay.choice(survivors)]


def test_combination_caps(ontology, seeds):
    strategy = GoalStrategy(kind="combination", drop_probability=0.0)
    cfg = GenConfig(max_domains=1, max_slots_per_domain=2)
    goal, _ = generate_goal_combination(seeds, ontology, strategy, make_rng(5), cfg=cfg)
    assert len(goal.domains()) == 1
    assert goal.slot_count() <= 2


def test_same_seed_reproducible(ontology, seeds):
    strategy = GoalStrategy(kind="combination")
    a, _ = generate_goal_combination(seeds, ontology, strategy, make_rng(123))
    b, _ = generate_goal_combination(seeds, ontology, strategy, make_rng(123))
    assert a == b


def test_substitution_all_singletons_is_identity(seeds):
    from dialogic.ontology import DomainSchema, Ontology

    singleton = Ontology(domains={
        "hotel": DomainSchema(
            informable={
                "type": ("hotel",), "pricerange": ("cheap",), "parking": ("yes",),
                "stars": ("4",), "area": ("south",), "stay": ("2",),
                "day": ("tuesday",), "people": ("6",), "name": (),
                "internet": ("yes",),
            },
            requestable=frozenset({"address"}),
            acts=frozenset({"inform", "request"}),
            queryable=True),
        "general": DomainSchema(
            informable={}, requestable=frozenset(),
            acts=frozenset({"bye", "reqmore", "welcome", "greet"}), queryable=False),
    })
    source = seeds.get("SNG01856")  # goal values coincide with the singletons
    goal = generate_goal_substitution(source, singleton, make_rng(0))
    assert goal == source.final_goal


def test_combination_of_the_two_reference_examples(ontology, seeds):
    from dialogic.corpus import SeedDataset

    pool = SeedDataset(dialogues=[seeds.get("PMUL1576"), seeds.get("SNG0955")])
    strategy = GoalStrategy(kind="combination", n_source_dialogues=2, drop_probability=0.0)
    goal, sources = generate_goal_combination(pool, ontology, strategy, make_rng(2))
    assert sorted(sources) == ["PMUL1576", "SNG0955"]
    # train side survives whole; the 7-slot hotel union truncates to the 6-slot cap
    assert goal.entries["train"] == seeds.get("PMUL1576").final_goal.entries["train"]
    assert len(goal.entries["hotel"]) == 6
    union_keys = {"name", "stay", "day", "people", "pricerange", "area", "parking"}
    assert set(goal.entries["hotel"]) <= union_keys


def _reference_slot_pool(ontology, domain, observed, exclude=frozenset()):
    """The pool as one value-pool lookup per informable slot."""
    def value_pool(slot):
        candidates = ontology.candidates(domain, slot)
        if candidates or not observed:
            return candidates
        return observed.get((domain, slot), [])
    return [s for s in ontology.informable_slots(domain) if s not in exclude and value_pool(s)]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_slot_pool_equals_a_pool_per_slot(ontology, data):
    """`observed` as None, empty or partial, and `exclude` as a set or a frozenset."""
    keys = sorted((d, s) for d, schema in ontology.domains.items() for s in schema.informable)
    names = sorted({s for _, s in keys} | {"color"})
    domain = data.draw(st.sampled_from(sorted(ontology.domains)))
    observed = data.draw(st.none() | st.dictionaries(
        st.sampled_from(keys), st.lists(st.sampled_from(["ely", "12:00", "b"]), max_size=2)))
    exclude = data.draw(st.frozensets(st.sampled_from(names)) | st.sets(st.sampled_from(names)))
    assert slot_pool(ontology, domain, observed, exclude) == _reference_slot_pool(
        ontology, domain, observed, exclude)
    assert slot_pool(ontology, domain, observed) == _reference_slot_pool(ontology, domain, observed)
