import math
import re
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dialogic.corpus import SeedDataset, _KeyedCandidates, key_similarity, similarity_key
from dialogic.exemplar import (
    BOOKING_REMINDER,
    DEFAULT_TASK_DESCRIPTION,
    ParseError,
    build_prompt,
    goal_similarity,
    instruction_sentence,
    parse_act,
    parse_belief,
    parse_goal,
    parse_system_line,
    parse_user_line,
    render_demonstration,
    select_examples,
    selection_probabilities,
    serialize_act,
    serialize_goal,
)
from dialogic.model import DialogAct, Dialogue, TurnBelief, UserGoal

from .conftest import make_rng, random_act, random_belief, random_goal


def goal_of(entries):
    return UserGoal(entries)


def mini_pool(*goals):
    dialogues = []
    for i, goal in enumerate(goals):
        base = Dialogue(
            id=f"d{i}", initial_goal=goal, final_goal=goal,
            turns=[_dummy_turn()], source="seed")
        dialogues.append(base)
    return SeedDataset(dialogues=dialogues)


def _dummy_turn():
    from dialogic.model import NO_RESULT, Turn

    return Turn(
        user_utterance="hello .", belief=TurnBelief({"general": {}}), db=NO_RESULT,
        act=DialogAct((("general", "reqmore", "none"),)), system_response="hi .")


# -- similarity --------------------------------------------------------------

def test_similarity_identity():
    g = goal_of({"hotel": {"stay": "2", "area": "south"}})
    assert goal_similarity(g, g) == 1.0


def test_similarity_disjoint_domains():
    g1 = goal_of({"hotel": {"stay": "2"}})
    g2 = goal_of({"train": {"day": "monday"}})
    assert goal_similarity(g1, g2) == 0.0


def test_similarity_reference_pair():
    # hand-enumerated sets: domains identical, slots intersect 4 of 10
    g1 = goal_of({"hotel": {"area": "south", "stay": "5", "people": "4"},
                  "train": {"destination": "x", "arrive": "y"}})
    g2 = goal_of({"train": {"destination": "a", "departure": "b", "leave": "c",
                            "day": "d", "arrive": "e"},
                  "hotel": {"name": "n", "stay": "4", "day": "t", "people": "8"}})
    assert goal_similarity(g1, g2) == pytest.approx(0.4, abs=1e-12)


def test_similarity_symmetric_and_bounded(ontology):
    rng = make_rng(17)
    for _ in range(200):
        a, b = random_goal(ontology, rng), random_goal(ontology, rng)
        w = goal_similarity(a, b)
        assert 0.0 <= w <= 1.0
        assert w == goal_similarity(b, a)


def test_similarity_empty_goal_rejected():
    with pytest.raises(ValueError):
        goal_similarity(UserGoal(), goal_of({"hotel": {"stay": "2"}}))


# -- selection ---------------------------------------------------------------

def test_probabilities_singleton():
    target = goal_of({"hotel": {"stay": "2"}})
    pool = mini_pool(goal_of({"hotel": {"stay": "3"}}))
    assert selection_probabilities(target, pool, 0.2) == {"d0": 1.0}


def test_probabilities_two_candidates_closed_form():
    target = goal_of({"hotel": {"area": "south", "stay": "5", "people": "4"},
                      "train": {"destination": "x", "arrive": "y"}})
    w04 = goal_of({"train": {"destination": "a", "departure": "b", "leave": "c",
                             "day": "d", "arrive": "e"},
                   "hotel": {"name": "n", "stay": "4", "day": "t", "people": "8"}})
    w02 = goal_of({"hotel": {"stay": "1", "people": "2"}})
    pool = mini_pool(w04, w02)
    probs = selection_probabilities(target, pool, 0.2)
    expect_hi = math.exp(2) / (math.exp(2) + math.exp(1))
    assert probs["d0"] == pytest.approx(expect_hi, abs=1e-9)
    assert probs["d1"] == pytest.approx(1 - expect_hi, abs=1e-9)


def test_probabilities_uniform_on_equal_similarity():
    target = goal_of({"hotel": {"stay": "2"}})
    pool = mini_pool(*[goal_of({"hotel": {"stay": str(i)}}) for i in range(5)])
    probs = selection_probabilities(target, pool, 0.7)
    for p in probs.values():
        assert p == pytest.approx(0.2, abs=1e-9)
    assert sum(probs.values()) == pytest.approx(1.0, abs=1e-9)


def test_sample_exhaustive_draw_is_permutation():
    target = goal_of({"hotel": {"stay": "2"}})
    pool = mini_pool(*[goal_of({"hotel": {"stay": str(i)}}) for i in range(4)])
    drawn = select_examples(target, pool, 4, 0.2, make_rng(0))
    assert sorted(d.id for d in drawn) == ["d0", "d1", "d2", "d3"]


def test_sample_low_temperature_picks_argmax():
    target = goal_of({"hotel": {"area": "south", "stay": "5", "people": "4"},
                      "train": {"destination": "x", "arrive": "y"}})
    best = goal_of({"train": {"destination": "a", "departure": "b", "leave": "c",
                              "day": "d", "arrive": "e"},
                    "hotel": {"name": "n", "stay": "4", "day": "t", "people": "8"}})
    other = goal_of({"hotel": {"stay": "1", "people": "2"}})
    pool = mini_pool(other, best)
    for seed in range(25):
        drawn = select_examples(target, pool, 1, 1e-6, make_rng(seed))
        assert drawn[0].id == "d1"


def test_selection_record_probabilities_renormalize_after_each_draw():
    target = goal_of({"hotel": {"area": "south", "stay": "5", "people": "4"}})
    pool = mini_pool(
        goal_of({"hotel": {"area": "south", "stay": "1"}}),
        goal_of({"hotel": {"people": "2"}}),
        goal_of({"hotel": {"area": "north", "stay": "5", "people": "4"}}),
        goal_of({"train": {"day": "monday"}, "hotel": {"area": "east"}}),
    )
    tau = 0.3
    index = pool.similarity
    drawn = index.goals.draw(index.goal_key(target), 3, tau, make_rng(8))
    assert select_examples(target, pool, 3, tau, make_rng(8)) == [d for d, _, _ in drawn]
    probs = selection_probabilities(target, pool, tau)
    first, _, first_p = drawn[0]
    assert first_p == pytest.approx(probs[first.id], abs=1e-12)
    remaining = dict(probs)
    for dlg, similarity, p in drawn:
        assert similarity == goal_similarity(target, dlg.final_goal)
        assert p == pytest.approx(remaining[dlg.id] / sum(remaining.values()), abs=1e-12)
        del remaining[dlg.id]


def test_sample_too_many_rejected():
    pool = mini_pool(goal_of({"hotel": {"stay": "2"}}))
    with pytest.raises(ValueError):
        select_examples(goal_of({"hotel": {"stay": "1"}}), pool, 2, 0.2, make_rng(0))


def test_sample_frequency_matches_probabilities():
    target = goal_of({"hotel": {"area": "south", "stay": "5", "people": "4"},
                      "train": {"destination": "x", "arrive": "y"}})
    g1 = goal_of({"train": {"destination": "a", "departure": "b", "leave": "c",
                            "day": "d", "arrive": "e"},
                  "hotel": {"name": "n", "stay": "4", "day": "t", "people": "8"}})
    g2 = goal_of({"hotel": {"stay": "1", "people": "2"}})
    pool = mini_pool(g1, g2)
    probs = selection_probabilities(target, pool, 0.2)
    rng = make_rng(4)
    trials = 20000
    hits = sum(
        1 for _ in range(trials)
        if select_examples(target, pool, 1, 0.2, rng)[0].id == "d0")
    assert abs(hits / trials - probs["d0"]) < 0.01


# -- similarity index against the per-pair loops -------------------------------

def _pairwise_similarity(g1, g2):
    """The set-based Jaccard product, pair by pair, as goal_similarity computed it."""
    if g1.is_empty() or g2.is_empty():
        raise ValueError("goal similarity is undefined for empty goals")
    d1, d2 = set(g1.domains()), set(g2.domains())
    s1, s2 = g1.qualified_slots(), g2.qualified_slots()
    domain_jaccard = len(d1 & d2) / len(d1 | d2)
    if not (s1 | s2):
        slot_jaccard = 1.0
    else:
        slot_jaccard = len(s1 & s2) / len(s1 | s2)
    return domain_jaccard * slot_jaccard


def _pairwise_turn_weight(target, belief):
    try:
        return _pairwise_similarity(target, belief)
    except ValueError:
        return 0.0


def _pairwise_draw(weighted, k, tau, rng):
    """Softmax draw without replacement over (item, weight) pairs, one exp per pair."""
    items = [item for item, _ in weighted]
    weights = [w for _, w in weighted]
    drawn = []
    for _ in range(k):
        peak = max(weights)
        exps = [math.exp((w - peak) / tau) for w in weights]
        total = sum(exps)
        x = rng.random() * total
        acc, idx = 0.0, len(exps) - 1
        for i, e in enumerate(exps):
            acc += e
            if x < acc:
                idx = i
                break
        drawn.append((items.pop(idx), weights.pop(idx), exps[idx] / total))
    return drawn


def _pairwise_turns(pool, exclude):
    return [(d, i) for d in pool for i, turn in enumerate(d.turns)
            if turn.belief.slot_count() > 0 and (d.id, i) != exclude]


def _random_pool(ontology, rng):
    """Dialogues whose goals and beliefs repeat, with domain-only and general entries."""
    from dialogic.model import NO_RESULT, Turn

    goals = [random_goal(ontology, rng) for _ in range(4)] + _DOMAIN_ONLY_GOALS
    beliefs = [random_belief(ontology, rng) for _ in range(6)]
    dialogues = []
    for n in range(rng.randint(2, 9)):
        goal = rng.choice(goals).copy()
        turns = [Turn(user_utterance="hello .", belief=rng.choice(beliefs).copy(),
                      db=NO_RESULT, act=DialogAct(), system_response="hi .")
                 for _ in range(rng.randint(1, 4))]
        dialogues.append(Dialogue(id=f"d{n}", initial_goal=goal, final_goal=goal,
                                  turns=turns, source="seed"))
    return SeedDataset(dialogues=dialogues)


_DOMAIN_ONLY_GOALS = [goal_of({"hotel": {}}), goal_of({"general": {}})]


def _random_target_goal(ontology, rng):
    if rng.random() < 0.2:
        return rng.choice(_DOMAIN_ONLY_GOALS).copy()
    return random_goal(ontology, rng)


def _random_target_belief(ontology, rng):
    return TurnBelief() if rng.random() < 0.15 else random_belief(ontology, rng)


def _random_exclude(pool, rng):
    dlg = rng.choice(pool.dialogues)
    return dlg.id, rng.randrange(len(dlg.turns) + 1)  # sometimes no such turn


def test_similarity_index_weights_equal_pairwise_loops(ontology):
    rng = make_rng(23)
    shared_keys = 0
    for _ in range(300):
        pool = _random_pool(ontology, rng)
        index = pool.similarity
        shared_keys += len(index.turns.items) - len(index.turns.keys)
        target = _random_target_goal(ontology, rng)
        expected = [_pairwise_similarity(target, d.final_goal) for d in pool]
        assert index.goal_weights(target) == expected
        assert [goal_similarity(target, d.final_goal) for d in pool] == expected

        belief = _random_target_belief(ontology, rng)
        exclude = _random_exclude(pool, rng)
        turns = _pairwise_turns(pool, exclude)
        weights = index.turns.weights(similarity_key(belief))
        skip = index.turn_position.get(exclude)
        if skip is not None:
            del weights[skip]
        assert weights == [_pairwise_turn_weight(belief, d.turns[i].belief) for d, i in turns]
        assert index.turns.items == _pairwise_turns(pool, None)
    assert shared_keys > 300


def test_similarity_index_empty_targets(ontology):
    pool = _random_pool(ontology, make_rng(5))
    turns = pool.similarity.turns
    assert turns.weights(similarity_key(TurnBelief())) == [0.0] * len(turns.items)
    with pytest.raises(ValueError):
        pool.similarity.goal_weights(UserGoal())
    with pytest.raises(ValueError):
        select_examples(goal_of({"hotel": {"stay": "2"}}),
                        mini_pool(goal_of({"hotel": {"stay": "3"}}), UserGoal()), 1, 0.2,
                        make_rng(0))


def test_indexed_draws_equal_pairwise_draws(ontology):
    from dialogic.simulator import SimulationError, _sample_turn_demos

    for seed in range(500):
        rng = make_rng(seed)
        pool = _random_pool(ontology, rng)
        target = _random_target_goal(ontology, rng)
        k = rng.randint(1, len(pool))
        tau = rng.choice([0.05, 0.2, 1.0])
        index = pool.similarity
        drawn = index.goals.draw(index.goal_key(target), k, tau, make_rng(seed))
        reference_rng = make_rng(seed)
        reference = _pairwise_draw(
            [(d, _pairwise_similarity(target, d.final_goal)) for d in pool], k, tau,
            reference_rng)
        assert [(d.id, w, p) for d, w, p in drawn] == [(d.id, w, p) for d, w, p in reference]
        assert select_examples(target, pool, k, tau, make_rng(seed)) == [
            d for d, _, _ in reference]

        belief = _random_target_belief(ontology, rng)
        exclude = _random_exclude(pool, rng)
        turns = _pairwise_turns(pool, exclude)
        demo_rng = make_rng(seed)
        if not turns:
            with pytest.raises(SimulationError) as err:
                _sample_turn_demos(belief, pool, 2, tau, demo_rng, exclude)
            assert err.value.kind == "unaugmentable"
            continue
        demos = _sample_turn_demos(belief, pool, 2, tau, demo_rng, exclude)
        reference_rng = make_rng(seed)
        reference = _pairwise_draw(
            [((d, i), _pairwise_turn_weight(belief, d.turns[i].belief)) for d, i in turns],
            min(2, len(turns)), tau, reference_rng)
        assert demos == [item for item, _, _ in reference]
        assert demo_rng.random() == reference_rng.random()

    # edge cases of the keyed draw; each candidate is named by its position
    area, both, food, stars = (TurnBelief(entries) for entries in (
        {"hotel": {"area": "north"}}, {"hotel": {"area": "north", "stars": "4"}},
        {"restaurant": {"food": "thai"}}, {"hotel": {"stars": "4"}}))
    cases = [  # (candidate beliefs, target, skip, k, tau)
        ([both, area, both, food], area, 1, 2, 0.2),  # the skip holds the only top weight
        ([food, area, both, both], area, None, 3, 0.05),  # the first draw empties the peak's key
        ([area, both, food, stars], area, None, 4, 1.0),  # k == len(pool)
        ([both], area, None, 1, 0.2),  # one candidate: itemgetter gives a scalar
        ([area, both, both, food, area], area, None, 5, 1e-6),  # exps underflow, sums repeat
        ([area, both, food], TurnBelief(), None, 2, 0.2),  # empty target: every weight 0.0
    ]
    first_draws = []
    for beliefs, target, skip, k, tau in cases:
        candidates = _KeyedCandidates(list(range(len(beliefs))), beliefs)
        weighted = [(i, _pairwise_turn_weight(target, b))
                    for i, b in enumerate(beliefs) if i != skip]
        for seed in range(20):
            rng, reference_rng = make_rng(seed), make_rng(seed)
            drawn = candidates.draw(similarity_key(target), k, tau, rng, skip)
            assert drawn == _pairwise_draw(weighted, k, tau, reference_rng)
            assert rng.getstate() == reference_rng.getstate()
            first_draws.append(drawn[0][0])
    assert first_draws[20:40] == [1] * 20  # the second case did draw the peak out first
    # draws that land exactly on a repeated cumulative sum: [0, 1, 1, 2] at tau=1e-6
    beliefs = [food, area, both, area]
    candidates = _KeyedCandidates(list(range(len(beliefs))), beliefs)
    weighted = [(i, _pairwise_turn_weight(area, b)) for i, b in enumerate(beliefs)]
    for landing in ([0.0], [0.5], [0.5, 0.0]):
        drawn = candidates.draw(similarity_key(area), len(landing), 1e-6,
                                SimpleNamespace(random=iter(landing).__next__))
        assert drawn == _pairwise_draw(weighted, len(landing), 1e-6,
                                       SimpleNamespace(random=iter(landing).__next__))


def test_packed_key_weights_equal_key_similarity():
    # up to 8 slots in each of 10 domains: over 64 qualified slots, so masks span two words
    wide = [TurnBelief({f"d{d}": {f"s{s}": "x" for s in range(d % 8 + 1)}}) for d in range(10)]
    wide += [TurnBelief({f"d{d}": {f"s{s}": "x" for s in range(8)},
                         f"d{d + 1}": {f"s{s}": "x" for s in range(8 - d % 8)}})
             for d in range(0, 10, 2)]
    pools = [
        wide,
        [TurnBelief({"hotel": {"area": "north"}}), TurnBelief({"hotel": {}}),
         TurnBelief({"general": {}}), TurnBelief({"hotel": {}, "restaurant": {"food": "thai"}}),
         TurnBelief({"hotel": {"area": "north"}})],
    ]
    assert len(set().union(*(b.qualified_slots() for b in wide))) > 64
    targets = [
        TurnBelief(),
        TurnBelief({"general": {}}),
        TurnBelief({"hotel": {}}),
        TurnBelief({"hotel": {}, "restaurant": {}}),
        TurnBelief({"taxi": {"leave at": "10:00"}}),  # a domain the pools never saw
        TurnBelief({"hotel": {"parking": "yes"}}),  # slots the pools never saw
        TurnBelief({"hotel": {"area": "north", "parking": "yes"}}),
        TurnBelief({"hotel": {"area": "north"}, "d3": {"s9": "x"}}),
        TurnBelief({"d0": {"s0": "x"}}),
        TurnBelief({"d9": {f"s{s}": "x" for s in range(8)}}),
        TurnBelief({"d4": {"s0": "x", "s7": "x"}, "d5": {"s3": "x"}, "d6": {}}),
    ]
    for beliefs in pools:
        candidates = _KeyedCandidates(list(range(len(beliefs))), beliefs)
        for target in targets:
            key = similarity_key(target)
            expected = [key_similarity(key, similarity_key(b)) for b in beliefs]
            assert candidates.weights(key) == expected
            assert expected == [_pairwise_turn_weight(target, b) for b in beliefs]
            weighted = list(enumerate(expected))
            for seed in range(5):
                rng, reference_rng = make_rng(seed), make_rng(seed)
                k = min(3, len(beliefs))
                assert candidates.draw(key, k, 0.2, rng) == _pairwise_draw(
                    weighted, k, 0.2, reference_rng)


def _random_memo_target(ontology, rng):
    """A DST-like target; sometimes empty, slotless, or with names no pool saw."""
    roll = rng.random()
    if roll < 0.1:
        return TurnBelief()
    if roll < 0.2:
        return TurnBelief({rng.choice(ontology.goal_domains()): {}})  # an empty slot set
    if roll < 0.3:
        return TurnBelief({"spa": {"sauna": "yes"}, "hotel": {"jacuzzi": "yes"}})
    return random_belief(ontology, rng)


def test_warm_memo_draws_equal_fresh_draws(ontology):
    """A row read back from the turn index's memo draws what a fresh index computes."""
    rng = make_rng(37)
    peak_skips = 0
    for _ in range(80):
        turns = _random_pool(ontology, rng).similarity.turns
        n = len(turns.items)
        if n < 2:
            continue
        beliefs = [d.turns[i].belief for d, i in turns.items]
        targets = [_random_memo_target(ontology, rng) for _ in range(10)]
        for target in targets + targets:  # the first pass computes each row, the second reads it
            turns.draw(similarity_key(target), 1, 0.2, make_rng(0))
        assert set(turns._rows) == {similarity_key(t) for t in targets}
        for target in targets:
            key = similarity_key(target)
            fresh = _KeyedCandidates(turns.items, beliefs)
            weights = fresh.weights(key)
            assert turns.weights(key) == weights
            peaks = [i for i, w in enumerate(weights) if w == max(weights)]
            skips = [None, rng.randrange(n)] + (peaks if len(peaks) == 1 else [])
            peak_skips += len(peaks) == 1
            for skip in skips:  # the last: the only candidate of the peak key is skipped
                k, tau, seed = rng.randint(1, n - 1), rng.choice([0.05, 0.2, 1.0]), rng.random()
                warm_rng, fresh_rng = make_rng(seed), make_rng(seed)
                assert (turns.draw(key, k, tau, warm_rng, skip)
                        == fresh.draw(key, k, tau, fresh_rng, skip))
                assert warm_rng.getstate() == fresh_rng.getstate()
    assert peak_skips > 50

    area, both, food = (TurnBelief(entries) for entries in (
        {"hotel": {"area": "north"}}, {"hotel": {"area": "north", "stars": "4"}},
        {"restaurant": {"food": "thai"}}))
    beliefs = [both, area, both, food]
    warm = _KeyedCandidates(list(range(4)), beliefs, memoise=True)
    fresh = _KeyedCandidates(list(range(4)), beliefs)
    warm.draw(similarity_key(area), 1, 0.2, make_rng(0))
    for seed in range(20):  # position 1 is the only candidate at the peak
        warm_rng, fresh_rng = make_rng(seed), make_rng(seed)
        assert (warm.draw(similarity_key(area), 3, 0.2, warm_rng, 1)
                == fresh.draw(similarity_key(area), 3, 0.2, fresh_rng, 1))
        assert warm_rng.getstate() == fresh_rng.getstate()


def test_shared_index_draws_from_threads_equal_one_thread(ontology, seeds):
    """Threads that fill one index's memo at once draw what one thread draws."""
    import sys
    import threading

    rng = make_rng(43)
    targets = [_random_memo_target(ontology, rng) for _ in range(40)]
    jobs = [(similarity_key(rng.choice(targets)), rng.random(), rng.choice([None, 0, 5]))
            for _ in range(400)]

    def draws(turns):
        return [turns.draw(key, 2, 0.2, make_rng(seed), skip) for key, seed, skip in jobs]

    expected = draws(SeedDataset(dialogues=list(seeds)).similarity.turns)
    shared = SeedDataset(dialogues=list(seeds)).similarity.turns
    n_threads = 4  # more than the cores of a small runner
    results, start = [None] * n_threads, threading.Barrier(n_threads)

    def worker(slot):
        start.wait()
        results[slot] = draws(shared)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(slot,)) for slot in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == [expected] * n_threads
    assert len(shared._rows) == len({key for key, _, _ in jobs})


# -- serialization -----------------------------------------------------------

def test_serialize_goal_template_example():
    goal = UserGoal({"hotel": {"stars": "4", "book stay": "2"},
                     "restaurant": {"pricerange": "cheap", "food": "chinese"}})
    assert serialize_goal(goal) == (
        "[hotel] stars is 4 , book stay is 2 "
        "[restaurant] pricerange is cheap , food is chinese")


def test_serialize_domain_only():
    assert serialize_goal(TurnBelief({"general": {}})) == "[general]"
    assert serialize_goal(TurnBelief({"train": {}})) == "[train]"


def test_serialize_act_examples():
    assert serialize_act(DialogAct((("hotel", "request", "area"),))) == "[hotel] [request] area"
    act = DialogAct((("hotel", "offerbooked", "reference"), ("general", "reqmore", "none")))
    assert serialize_act(act) == "[hotel] [offerbooked] reference [general] [reqmore]"
    multi = DialogAct((
        ("hotel", "inform", "price"), ("hotel", "inform", "choice"),
        ("hotel", "inform", "parking"), ("hotel", "inform", "type"),
        ("hotel", "offerbook", "none")))
    assert serialize_act(multi) == "[hotel] [inform] price choice parking type [offerbook]"


def test_parse_goal_inverse(ontology):
    rng = make_rng(23)
    for _ in range(300):
        goal = random_goal(ontology, rng)
        assert parse_goal(serialize_goal(goal)) == goal


def test_parse_belief_inverse(ontology):
    rng = make_rng(29)
    for _ in range(300):
        belief = random_belief(ontology, rng)
        assert parse_belief(serialize_goal(belief)) == belief


def test_parse_act_inverse(ontology):
    rng = make_rng(31)
    for _ in range(300):
        act = random_act(ontology, rng)
        assert parse_act(serialize_act(act)) == act


def test_parse_goal_canonicalizes_aliases():
    parsed = parse_goal("[hotel] book stay is 2 , arriveby is 08:00")
    assert parsed.to_dict() == {"hotel": {"stay": "2", "arrive": "08:00"}}


def test_parse_goal_malformed():
    with pytest.raises(ParseError, match="malformed"):
        parse_goal("[hotel] stay is")
    with pytest.raises(ParseError):
        parse_goal("stay is 2")


def test_parse_act_unknown_act():
    with pytest.raises(ParseError, match="frobnicate"):
        parse_act("[hotel] [frobnicate] x")


def test_parse_act_slot_outside_act():
    with pytest.raises(ParseError):
        parse_act("[hotel] area")


# -- turn lines --------------------------------------------------------------

def test_parse_user_line_reference():
    belief, utterance = parse_user_line("User([hotel] stay is 2): how about only 2 nights .")
    assert belief.to_dict() == {"hotel": {"stay": "2"}}
    assert utterance == "how about only 2 nights ."


def test_parse_user_line_general():
    belief, utterance = parse_user_line("User([general]): no , that will be all . goodbye .")
    assert belief.to_dict() == {"general": {}}
    assert utterance.startswith("no ,")


def test_parse_user_line_empty_annotation():
    belief, utterance = parse_user_line("User(): hmm .")
    assert belief.is_empty()
    assert utterance == "hmm ."


def test_parse_user_line_truncated_value():
    with pytest.raises(ParseError):
        parse_user_line("User([hotel] stay is): too short .")


def test_parse_user_line_unbalanced():
    with pytest.raises(ParseError, match="unbalanced"):
        parse_user_line("User([hotel] stay is 2: no close paren")


def test_parse_system_line_reference():
    act, resp = parse_system_line(
        "Assistant([hotel] [request] area): okay , do you have a specific area "
        "you want to stay in ?")
    assert act.triples == (("hotel", "request", "area"),)
    assert resp.startswith("okay ,")


def test_parse_system_line_empty_act():
    act, resp = parse_system_line("Assistant(): sure , what kind of information do you need ?")
    assert act.is_empty()


def test_parse_system_line_unknown_act():
    with pytest.raises(ParseError):
        parse_system_line("Assistant([hotel] [frobnicate] x): nope .")


# -- demonstrations and prompts ----------------------------------------------

def test_instruction_sentence_single_domain(ontology, seeds):
    goal = seeds.get("SNG01856").final_goal
    sentence = instruction_sentence(goal, ontology)
    assert sentence == (
        "You are going to book a hotel, and your requirements for the hotel are "
        "([hotel] type is hotel , pricerange is cheap , parking is yes , stay is 2 , "
        "day is tuesday , people is 6). " + BOOKING_REMINDER)


def test_instruction_sentence_two_domains(ontology, seeds):
    sentence = instruction_sentence(seeds.get("PMUL1576").final_goal, ontology)
    assert sentence.startswith(
        "You are going to book a train, and your requirements for the train are "
        "([train] destination is leicester , departure is cambridge , leave is 08:45 , "
        "day is saturday , arrive is dontcare). You also want to book a hotel,")
    assert sentence.endswith(BOOKING_REMINDER)


def test_instruction_sentence_attraction_has_no_booking_reminder(ontology):
    goal = UserGoal({"attraction": {"type": "museum", "area": "centre"}})
    sentence = instruction_sentence(goal, ontology)
    assert sentence.startswith("You are going to visit an attraction,")
    assert BOOKING_REMINDER not in sentence


def test_render_demonstration_reference(ontology, seeds):
    text = render_demonstration(seeds.get("SNG01856"), 1, ontology)
    lines = text.split("\n")
    assert lines[0].startswith("Instruction1: You are going to book a hotel")
    assert lines[1] == "Conversation1:"
    assert lines[2] == ("User([hotel] type is hotel , pricerange is cheap): i am looking "
                        "for a place to to stay that has cheap price range it should be "
                        "in a type of hotel .")
    assert lines[3] == ("Assistant([hotel] [request] area): okay , do you have a specific "
                        "area you want to stay in ?")
    assert lines[-1] == "Assistant([general] [bye]): thank you for using our services ."


def test_render_then_parse_round_trip(ontology, seeds):
    dlg = seeds.get("PMUL1576")
    text = render_demonstration(dlg, 2, ontology)
    lines = text.split("\n")[2:]
    for i, turn in enumerate(dlg.turns):
        belief, utterance = parse_user_line(lines[2 * i])
        act, resp = parse_system_line(lines[2 * i + 1])
        assert belief == turn.belief
        assert utterance == turn.user_utterance
        assert act == turn.act
        assert resp == turn.system_response


def test_build_prompt_reference(ontology, seeds, trace_goal):
    examples = [seeds.get("PMUL1576"), seeds.get("SNG0955")]
    prompt = build_prompt(DEFAULT_TASK_DESCRIPTION, examples, trace_goal, ontology=ontology)
    markers = re.findall(r"^Instruction\d+:", prompt, re.M)
    assert markers == ["Instruction1:", "Instruction2:", "Instruction3:"]
    assert prompt.endswith(
        "Instruction3: You are going to book a hotel, and your requirements for the hotel "
        "are ([hotel] area is south , stay is 5 , people is 4). You also want to book a "
        "train, and your requirements for the train are ([train] destination is birmingham "
        "new street , arrive is 13:06). " + BOOKING_REMINDER + "\nConversation3:\n")


def test_build_prompt_numbering_single_example(ontology, seeds, trace_goal):
    prompt = build_prompt("task", [seeds.get("SNG0955")], trace_goal, ontology=ontology)
    assert prompt.rstrip().endswith("Conversation2:")


def test_build_prompt_needs_examples(ontology, trace_goal):
    with pytest.raises(ValueError):
        build_prompt("task", [], trace_goal, ontology=ontology)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_round_trip_property(seed):
    from dialogic.ontology import default_ontology

    ontology = default_ontology()
    rng = make_rng(seed)
    goal = random_goal(ontology, rng)
    assert parse_goal(serialize_goal(goal)) == goal
    act = random_act(ontology, rng)
    assert parse_act(serialize_act(act)) == act


def test_render_minimal_dialogue_two_lines(ontology):
    from dialogic.model import NO_RESULT, Dialogue, Turn

    goal = UserGoal({"general": {}})
    dlg = Dialogue(
        id="mini", initial_goal=goal, final_goal=goal,
        turns=[Turn(user_utterance="hello .", belief=TurnBelief({"general": {}}),
                    db=NO_RESULT, act=parse_act("[general] [bye]"),
                    system_response="goodbye .")],
        source="seed")
    text = render_demonstration(dlg, 1, ontology)
    lines = text.split("\n")
    header = lines.index("Conversation1:")
    assert len(lines) - header - 1 == 2
