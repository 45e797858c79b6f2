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
    assert first_p == probs[first.id]
    remaining = dict(probs)
    for dlg, similarity, p in drawn:
        assert similarity == goal_similarity(target, dlg.final_goal)
        assert p == pytest.approx(remaining[dlg.id] / sum(remaining.values()), abs=1e-12)
        del remaining[dlg.id]


def test_sample_too_many_rejected():
    pool = mini_pool(goal_of({"hotel": {"stay": "2"}}))
    with pytest.raises(ValueError):
        select_examples(goal_of({"hotel": {"stay": "1"}}), pool, 2, 0.2, make_rng(0))


@pytest.mark.parametrize("tau", [-1.0, 0.0, -0.0, math.nan, math.inf, -math.inf])
def test_temperature_not_finite_and_positive_rejected(tau):
    target = goal_of({"hotel": {"stay": "1"}})
    pool = mini_pool(goal_of({"hotel": {"stay": "2"}}), goal_of({"train": {"day": "monday"}}))
    rng = make_rng(0)
    state = rng.getstate()
    with pytest.raises(ValueError, match="temperature must be finite and > 0"):
        select_examples(target, pool, 1, tau, rng)
    assert rng.getstate() == state
    with pytest.raises(ValueError, match="temperature must be finite and > 0"):
        selection_probabilities(target, pool, tau)


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
    """Softmax draw without replacement over (item, weight) pairs, one exp per pair.

    The normalizer is the running sum, left to right, on every Python version.
    """
    items = [item for item, _ in weighted]
    weights = [w for _, w in weighted]
    drawn = []
    for _ in range(k):
        peak = max(weights)
        exps = [math.exp((w - peak) / tau) for w in weights]
        total = 0.0
        for e in exps:
            total += e
        x = rng.random() * total
        acc, idx = 0.0, len(exps) - 1
        for i, e in enumerate(exps):
            acc += e
            if x < acc:
                idx = i
                break
        drawn.append((items.pop(idx), weights.pop(idx), exps[idx] / total))
    return drawn


def _per_key_draw(candidates, k, tau, rng, skip=None):
    """The keyed law, a key at a time, over (weight, key) pairs in pool order; draws positions.

    The keys are walked in the order first seen, the skipped position's
    included. A key weighs exp((w - peak) / tau) per candidate left, peak being
    the top weight left, and the running sum of those masses is the
    normalizer. One uniform x takes the first key whose running sum passes it,
    else the last key with a candidate left; x's offset into that key's mass,
    over one candidate's exp, is the rank of the candidate taken among those
    left, in pool order. Returns (position, weight, probability at its draw).
    """
    keys = list(dict.fromkeys(key for _, key in candidates))
    weight = {key: w for w, key in candidates}
    left = {key: [] for key in keys}
    for position, (_, key) in enumerate(candidates):
        if position != skip:
            left[key].append(position)
    drawn = []
    for _ in range(k):
        peak = max(weight[key] for key in keys if left[key])
        exps = {key: math.exp((weight[key] - peak) / tau) if left[key] else 0.0 for key in keys}
        total = 0.0
        for key in keys:
            total += exps[key] * len(left[key])
        x = rng.random() * total
        before = running = 0.0
        for key in keys:
            before, running = running, running + exps[key] * len(left[key])
            if x < running:
                rank = int(min((x - before) / exps[key], len(left[key]) - 1))
                break
        else:
            key = [key for key in keys if left[key]][-1]
            rank = len(left[key]) - 1
        drawn.append((left[key].pop(rank), weight[key], exps[key] / total))
    return drawn


def _enumerated_keys(keys, target):
    """The keys a draw weighs one by one, by plain loops over `keys`; None where it takes all.

    A target with slots enumerates the keys that share a qualified slot with
    it, a slotless target the slotless keys that share a domain with it, in
    first-seen order; where the target's lists of such keys are together at
    least as long as the key list, every key is enumerated.
    """
    domains, slots = target
    if slots:
        listed = sum(1 for name in slots for key in keys if name in key[1])
        enumerated = [key for key in keys if slots & key[1]]
    else:
        listed = sum(1 for name in domains for key in keys if not key[1] and name in key[0])
        enumerated = [key for key in keys if not key[1] and domains & key[0]]
    return None if listed >= len(keys) else enumerated


def _floor_bucket_draw(candidates, target, k, tau, rng, skip=None):
    """The floor-bucket law, by plain loops over (weight, key) pairs in pool order; draws positions.

    The keys `_enumerated_keys` names are buckets of their own, in first-seen
    order; every other candidate left, in key-then-pool order, is in one floor
    bucket after them, and weighs exactly 0.0. A bucket weighs exp((w - peak) /
    tau) per candidate left, peak being the top weight left, and the running
    sum of those masses is the normalizer. One uniform x takes the first bucket
    whose running sum passes it, else the last bucket with a candidate left;
    x's offset into that bucket's mass, over one candidate's exp, is the rank
    of the candidate taken among those left. Where every key is enumerated the
    floor is empty. Returns (position, weight, probability at its draw).
    """
    keys = list(dict.fromkeys(key for _, key in candidates))
    enumerated = _enumerated_keys(keys, target)
    if enumerated is None:
        enumerated = keys
    weight = {key: w for w, key in candidates}
    bucket_weight = [weight[key] for key in enumerated] + [0.0]
    left = [[] for _ in bucket_weight]
    for key in keys:
        bucket = enumerated.index(key) if key in enumerated else len(enumerated)
        if bucket == len(enumerated):
            assert weight[key] == 0.0
        for position, (_, candidate_key) in enumerate(candidates):
            if candidate_key == key and position != skip:
                left[bucket].append(position)
    drawn = []
    for _ in range(k):
        peak = max(w for w, bucket in zip(bucket_weight, left) if bucket)
        exps = [math.exp((w - peak) / tau) if bucket else 0.0
                for w, bucket in zip(bucket_weight, left)]
        total = 0.0
        for e, bucket in zip(exps, left):
            total += e * len(bucket)
        x = rng.random() * total
        before = running = 0.0
        for i, bucket in enumerate(left):
            before, running = running, running + exps[i] * len(bucket)
            if x < running:
                rank = int(min((x - before) / exps[i], len(bucket) - 1))
                break
        else:
            i = [i for i, bucket in enumerate(left) if bucket][-1]
            rank = len(left[i]) - 1
        drawn.append((left[i].pop(rank), bucket_weight[i], exps[i] / total))
    return drawn


def _assert_draw_follows_law(candidates, maps, target, k, tau, new_rng, skip=None):
    """One keyed draw, by `new_rng()`, against the law; returns the positions drawn.

    The draw is `_floor_bucket_draw`'s, bit for bit, taking the same uniforms.
    Where the rule enumerates every key, that is `_pairwise_draw`'s where every
    candidate has its own key and `_per_key_draw`'s otherwise. Each reported
    probability is the pairwise softmax probability of the candidate drawn,
    among those left, to 1e-12.
    """
    weights = [_pairwise_turn_weight(target, m) for m in maps]
    keys = [similarity_key(m) for m in maps]
    target_key = similarity_key(target)
    rng, reference_rng = new_rng(), new_rng()
    drawn = candidates.draw(target_key, k, tau, rng, skip)
    reference = _floor_bucket_draw(list(zip(weights, keys)), target_key, k, tau,
                                   reference_rng, skip)
    assert drawn == [(candidates.items[p], w, prob) for p, w, prob in reference]
    if hasattr(rng, "getstate"):
        assert rng.getstate() == reference_rng.getstate()
    if _enumerated_keys(list(dict.fromkeys(keys)), target_key) is None:
        if len(set(keys)) == len(keys):
            every_key = _pairwise_draw([(p, w) for p, w in enumerate(weights) if p != skip],
                                       k, tau, new_rng())
        else:
            every_key = _per_key_draw(list(zip(weights, keys)), k, tau, new_rng(), skip)
        assert reference == every_key
    left = [p for p in range(len(maps)) if p != skip]
    for p, _, prob in reference:
        peak = max(weights[q] for q in left)
        exps = {q: math.exp((weights[q] - peak) / tau) for q in left}
        assert abs(prob - exps[p] / math.fsum(exps.values())) <= 1e-12
        left.remove(p)
    return [p for p, _, _ in reference]


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
        assert index.goal_key(target) == similarity_key(target)
        assert [goal_similarity(target, d.final_goal) for d in pool] == expected

        belief = _random_target_belief(ontology, rng)
        turns = _pairwise_turns(pool, None)
        assert index.turns.items == turns
        assert [key_similarity(similarity_key(belief), similarity_key(d.turns[i].belief))
                for d, i in turns] == [_pairwise_turn_weight(belief, d.turns[i].belief)
                                       for d, i in turns]
    assert shared_keys > 300


def test_similarity_index_empty_targets(ontology):
    pool = _random_pool(ontology, make_rng(5))
    keys = pool.similarity.turns.keys
    assert [key_similarity(similarity_key(TurnBelief()), key) for key in keys] == [0.0] * len(keys)
    with pytest.raises(ValueError):
        pool.similarity.goal_key(UserGoal())
    with pytest.raises(ValueError):
        select_examples(goal_of({"hotel": {"stay": "2"}}),
                        mini_pool(goal_of({"hotel": {"stay": "3"}}), UserGoal()), 1, 0.2,
                        make_rng(0))


def test_indexed_draws_equal_pairwise_draws(ontology):
    from dialogic.simulator import SimulationError, _sample_turn_demos

    pools = {"distinct keys": 0, "repeated keys": 0}
    for seed in range(500):
        rng = make_rng(seed)
        pool = _random_pool(ontology, rng)
        target = _random_target_goal(ontology, rng)
        k = rng.randint(1, len(pool))
        tau = rng.choice([0.05, 0.2, 1.0])
        index = pool.similarity
        goals = [d.final_goal for d in pool]
        pools["distinct keys" if len(index.goals.keys) == len(pool) else "repeated keys"] += 1
        drawn = _assert_draw_follows_law(index.goals, goals, target, k, tau,
                                         lambda: make_rng(seed))
        assert select_examples(target, pool, k, tau, make_rng(seed)) == [
            pool.dialogues[p] for p in drawn]

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
        candidates = index.turns
        drawn = _assert_draw_follows_law(
            candidates, [d.turns[i].belief for d, i in candidates.items], belief,
            min(2, len(turns)), tau, lambda: make_rng(seed), index.turn_position(*exclude))
        assert demos == [candidates.items[p] for p in drawn]
        reference_rng = make_rng(seed)
        for _ in drawn:
            reference_rng.random()
        assert demo_rng.getstate() == reference_rng.getstate()
    assert min(pools.values()) > 50

    # edge cases of the keyed draw; each candidate is named by its position
    area, both, food, stars = (TurnBelief(entries) for entries in (
        {"hotel": {"area": "north"}}, {"hotel": {"area": "north", "stars": "4"}},
        {"restaurant": {"food": "thai"}}, {"hotel": {"stars": "4"}}))
    cases = [  # (candidate beliefs, target, skip, k, tau)
        ([both, area, both, food], area, 1, 2, 0.2),  # the skip holds the only top weight
        ([food, area, both, both], area, None, 3, 0.05),  # the first draw empties the peak's key
        ([area, both, food, stars], area, None, 4, 1.0),  # k == len(pool)
        ([both], area, None, 1, 0.2),  # one candidate
        ([area, both, both, food, area], area, None, 5, 1e-6),  # exps underflow, sums repeat
        ([area, both, food], TurnBelief(), None, 2, 0.2),  # empty target: every weight 0.0
        ([area, food, area, both], food, 0, 3, 0.2),  # the skip is its key's first candidate
    ]
    first_draws = []
    for beliefs, target, skip, k, tau in cases:
        candidates = _KeyedCandidates(list(range(len(beliefs))), beliefs)
        for seed in range(20):
            drawn = _assert_draw_follows_law(candidates, beliefs, target, k, tau,
                                             lambda: make_rng(seed), skip)
            first_draws.append(drawn[0])
    assert first_draws[20:40] == [1] * 20  # the second case did draw the peak out first
    # draws that land exactly on a repeated cumulative sum: the buckets are area, both and
    # the floor (food), masses [2, 2, 2] at tau=1e-6, and x = 1.0 lands on the rank-1
    # candidate of the repeated key; a uniform of 1.0, which random() never returns, takes
    # the last candidate left, the floor's, then past a key drawn out by the skip
    beliefs = [food, area, both, area]
    candidates = _KeyedCandidates(list(range(len(beliefs))), beliefs)
    for landing, skip, expected in (([0.0], None, [1]), ([0.5], None, [3]),
                                    ([0.5, 0.0], None, [3, 1]), ([1.0], None, [0]),
                                    ([1.0, 1.0], 2, [0, 3])):
        drawn = _assert_draw_follows_law(
            candidates, beliefs, area, len(landing), 1e-6,
            lambda: SimpleNamespace(random=iter(landing).__next__), skip)
        assert drawn == expected


def test_first_draw_probability_is_selection_probability(ontology):
    rng = make_rng(61)
    for seed in range(200):
        pool = _random_pool(ontology, rng)
        target = _random_target_goal(ontology, rng)
        tau = rng.choice([0.05, 0.2, 1.0])
        probs = selection_probabilities(target, pool, tau)
        index = pool.similarity
        first, _, p = index.goals.draw(index.goal_key(target), 1, tau, make_rng(seed))[0]
        assert p == probs[first.id]
        assert list(probs.values()) == index.goals.probabilities(index.goal_key(target), tau)


def test_repeated_key_draw_frequencies_match_softmax():
    area, both, food = (TurnBelief(entries) for entries in (
        {"hotel": {"area": "north"}}, {"hotel": {"area": "north", "stars": "4"}},
        {"restaurant": {"food": "thai"}}))
    beliefs = [area, both, area, food, both, area]  # 3, 2 and 1 candidates per key
    tau, trials = 0.5, 20000
    candidates = _KeyedCandidates(list(range(len(beliefs))), beliefs)
    exps = [math.exp(_pairwise_turn_weight(area, b) / tau) for b in beliefs]
    total = math.fsum(exps)
    first = [e / total for e in exps]
    second = [sum(first[a] * exps[c] / (total - exps[a]) for a in range(len(exps)) if a != c)
              for c in range(len(exps))]
    counts = [[0] * len(beliefs), [0] * len(beliefs)]
    rng = make_rng(71)
    for _ in range(trials):
        for nth, (position, _, _) in enumerate(candidates.draw(similarity_key(area), 2, tau, rng)):
            counts[nth][position] += 1
    # chi-square with 5 degrees of freedom exceeds 20.5 with probability 0.001
    for observed, expected in zip(counts, (first, second)):
        chi2 = sum((o - trials * p) ** 2 / (trials * p) for o, p in zip(observed, expected))
        assert chi2 < 20.5


def _floor_pool(ontology, rng):
    """Beliefs over many keys, some repeated, with domain-only and general entries."""
    beliefs = [random_belief(ontology, rng) for _ in range(rng.randint(4, 9))]
    beliefs += [rng.choice(beliefs).copy() for _ in range(rng.randint(0, 4))]
    rng.shuffle(beliefs)
    return beliefs


def test_floor_bucket_draws_equal_plain_loop_draws(ontology):
    rng = make_rng(83)
    rules = {"floor": 0, "every key": 0}
    floor_draws = 0
    for _ in range(40):
        beliefs = _floor_pool(ontology, rng)
        candidates = _KeyedCandidates(list(range(len(beliefs))), beliefs)
        keys = list(dict.fromkeys(map(similarity_key, beliefs)))
        union = TurnBelief()
        for belief in beliefs:
            for domain, slot, value in belief.triples():
                union.set(domain, slot, value)
        targets = [_random_dst_target(ontology, rng), rng.choice(beliefs).copy(), union,
                   TurnBelief({"general": {}}), goal_of({"hotel": {}}),
                   goal_of({"general": {}, "taxi": {}}),
                   TurnBelief({"hotel": {"jacuzzi": "yes"}})]  # a slot the pool never saw
        for target in targets:
            enumerated = _enumerated_keys(keys, similarity_key(target))
            rules["every key" if enumerated is None else "floor"] += 1
            tau = rng.choice([0.05, 0.2, 1.0])
            for skip in [None, *range(len(beliefs))]:
                for k in range(1, len(beliefs) + (skip is None)):
                    seed = rng.random()
                    drawn = _assert_draw_follows_law(candidates, beliefs, target, k, tau,
                                                     lambda: make_rng(seed), skip)
                    if enumerated is not None:
                        floor_draws += sum(similarity_key(beliefs[p]) not in enumerated
                                           for p in drawn)
    assert min(rules.values()) > 20
    assert floor_draws > 1000


def test_turn_probabilities_equal_first_floor_draw(ontology):
    rng = make_rng(89)
    checked = 0
    for seed in range(200):
        beliefs = _floor_pool(ontology, rng)
        target = similarity_key(_random_dst_target(ontology, rng))
        if _enumerated_keys(list(dict.fromkeys(map(similarity_key, beliefs))), target) is None:
            continue
        candidates = _KeyedCandidates(list(range(len(beliefs))), beliefs)
        tau = rng.choice([0.05, 0.2, 1.0])
        probs = candidates.probabilities(target, tau)
        first, _, p = candidates.draw(target, 1, tau, make_rng(seed))[0]
        assert p == probs[first]
        assert math.fsum(probs) == pytest.approx(1.0, abs=1e-12)
        checked += 1
    assert checked > 100


def test_dst_sample_frequency_matches_probabilities():
    area, both, stars, food, train, hotel = (TurnBelief(entries) for entries in (
        {"hotel": {"area": "north"}}, {"hotel": {"area": "north", "stars": "4"}},
        {"hotel": {"stars": "4"}}, {"restaurant": {"food": "thai"}},
        {"train": {"day": "monday"}}, {"hotel": {}}))
    beliefs = [food, area, stars, train, both, food, hotel, stars, area, train]
    target = similarity_key(TurnBelief({"hotel": {"area": "south"}}))
    candidates = _KeyedCandidates(list(range(len(beliefs))), beliefs)
    assert _enumerated_keys(list(dict.fromkeys(map(similarity_key, beliefs))), target) == [
        similarity_key(area), similarity_key(both)]
    tau, trials = 0.5, 20000
    probs = candidates.probabilities(target, tau)
    hits = [0] * len(beliefs)
    rng = make_rng(97)
    for _ in range(trials):
        hits[candidates.draw(target, 1, tau, rng)[0][0]] += 1
    for observed, p in zip(hits, probs):
        assert abs(observed / trials - p) < 0.01


class _CountingList(list):
    """A list that counts the items read from it, by index or by iteration."""

    reads = 0

    def __getitem__(self, index):
        self.reads += 1
        return super().__getitem__(index)

    def __iter__(self):
        for item in super().__iter__():
            self.reads += 1
            yield item


def test_draw_cost_does_not_grow_with_candidates():
    area, both, food = (TurnBelief(entries) for entries in (
        {"hotel": {"area": "north"}}, {"hotel": {"area": "north", "stars": "4"}},
        {"restaurant": {"food": "thai"}}))
    keyed = (area, both, food)
    n = 50_000
    items = _CountingList(range(n))
    candidates = _KeyedCandidates(items, (keyed[p % 3] for p in range(n)))
    for seed in range(5):
        items.reads = 0
        drawn = candidates.draw(similarity_key(area), 2, 0.2, make_rng(seed), skip=seed)
        assert items.reads <= 3
        assert len({p for p, _, _ in drawn} | {seed}) == 3

    # the rank within a key at extreme temperatures, and where exps are subnormal
    weight_of = {_pairwise_turn_weight(area, b): b for b in keyed}  # three distinct weights
    for tau in (1e-300, 0.5 / 740, 1e300):
        for seed in range(20):
            for position, w, p in candidates.draw(similarity_key(area), 3, tau, make_rng(seed),
                                                  skip=seed):
                assert keyed[position % 3] is weight_of[w]
                assert 0.0 <= p <= 1.0


def test_wide_pool_draws_follow_key_similarity():
    # up to 8 slots in each of 10 domains: over 64 qualified slots
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
            assert [key_similarity(key, similarity_key(b)) for b in beliefs] == [
                _pairwise_turn_weight(target, b) for b in beliefs]
            for seed in range(5):
                _assert_draw_follows_law(candidates, beliefs, target, min(3, len(beliefs)), 0.2,
                                         lambda: make_rng(seed))


def _random_dst_target(ontology, rng):
    """A DST-like target; sometimes empty, slotless, or with names no pool saw."""
    roll = rng.random()
    if roll < 0.1:
        return TurnBelief()
    if roll < 0.2:
        return TurnBelief({rng.choice(ontology.goal_domains()): {}})  # an empty slot set
    if roll < 0.3:
        return TurnBelief({"spa": {"sauna": "yes"}, "hotel": {"jacuzzi": "yes"}})
    return random_belief(ontology, rng)


def test_shared_index_draws_from_threads_equal_one_thread(ontology, seeds):
    """Threads that draw from one index at once draw what one thread draws."""
    import sys
    import threading

    rng = make_rng(43)
    targets = [_random_dst_target(ontology, rng) for _ in range(40)]
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


def test_parse_goal_column_of_a_repeated_entry():
    """The second `area` entry is reported where it starts, not at the first `area`."""
    text = "[hotel] area is north , area , area"
    with pytest.raises(ParseError) as exc:
        parse_goal(text)
    assert str(exc.value) == "malformed triplet 'area' (column 24)"
    assert text[24:].startswith("area , area")


def test_parse_goal_column_of_an_empty_entry():
    text = "[hotel] area is north ,  , stars is 4"
    with pytest.raises(ParseError) as exc:
        parse_goal(text)
    assert str(exc.value) == "empty slot entry (column 24)"
    assert text[24:].startswith(" , stars")  # nothing between the two separators


def _reference_parse_goal(text, cls=UserGoal):
    """`parse_goal` as it walked the marker matches, its column read by `chunk.find`."""
    from dialogic.ontology import NONE, canonical_slot

    result = cls()
    text = text.strip()
    if not text:
        return result
    markers = list(re.finditer(r"\[([^\[\]]+)\]", text))
    if not markers:
        raise ParseError("expected a [domain] marker", column=0)
    if text[: markers[0].start()].strip():
        raise ParseError("text before the first [domain] marker", column=0)
    for i, marker in enumerate(markers):
        domain = marker.group(1).strip()
        end = markers[i + 1].start() if i + 1 < len(markers) else len(text)
        chunk = text[marker.end():end]
        if not chunk.strip():
            result.set(domain, NONE, NONE)
            continue
        offset = marker.end()
        for item in chunk.split(" , "):
            column = offset + chunk.find(item)
            entry = item.strip()
            if not entry:
                raise ParseError("empty slot entry", column=column)
            slot, sep, value = entry.partition(" is ")
            if not sep or not slot.strip() or not value.strip():
                raise ParseError(f"malformed triplet {entry!r}", column=column)
            result.set(domain, canonical_slot(slot), value.strip())
    return result


def _reference_parse_act(text):
    """`parse_act` as it appended each slotless act type's triple when the next marker came."""
    from dialogic.ontology import ACT_TYPES, NONE, canonical_slot

    text = text.strip()
    if not text:
        return DialogAct()
    tokens = re.findall(r"\[[^\[\]]+\]|[^\s\[\]]+", text)
    triples = []
    domain = act_type = None
    act_has_slot = False

    def flush():
        if domain is not None and act_type is not None and not act_has_slot:
            triples.append((domain, act_type, NONE))

    for tok in tokens:
        if tok.startswith("["):
            name = tok[1:-1].strip()
            if name in ACT_TYPES:
                if domain is None:
                    raise ParseError(f"act type {tok} before any [domain] marker")
                flush()
                act_type, act_has_slot = name, False
            elif domain is not None and act_type is None:
                raise ParseError(f"unknown act type {tok}")
            else:
                flush()
                domain, act_type, act_has_slot = name, None, False
        else:
            if act_type is None:
                raise ParseError(f"slot {tok!r} outside an act type")
            triples.append((domain, act_type, canonical_slot(tok)))
            act_has_slot = True
    flush()
    return DialogAct(tuple(triples))


def _parse_outcome(parse, text):
    try:
        return repr(parse(text))
    except ParseError as exc:
        return "ParseError", str(exc)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 10 ** 6))
def test_parse_goal_and_act_equal_the_marker_walks(seed):
    """Random annotations, well-formed or not: the same annotation, or the same ParseError
    message; a goal entry's column now points at the entry itself."""
    rng = make_rng(seed)
    pieces = ["[hotel]", "[train] ", " [general]", "[inform]", " [request] ", "[bye]",
              " area is north", " , ", "stay is 2", " book stay is 3", " is ", " phone ",
              "arriveby is 08:00", " area", "  ", "x", "[", "]", "[ hotel ]", "none is none"]
    for _ in range(20):
        text = "".join(rng.choices(pieces, k=rng.randint(0, 7)))
        assert _parse_outcome(parse_act, text) == _parse_outcome(_reference_parse_act, text)
        got, want = _parse_outcome(parse_belief, text), _parse_outcome(
            lambda t: _reference_parse_goal(t, TurnBelief), text)
        if got[0] != "ParseError" or "entry" not in got[1] and "triplet" not in got[1]:
            assert got == want, text
            continue
        message, column = re.fullmatch(r"(.*) \(column (\d+)\)", got[1]).groups()
        assert want[1].startswith(message + " (column "), text
        # the reported entry starts at its column, right after a marker or a separator
        head, rest = text.strip()[:int(column)], text.strip()[int(column):].lstrip(" ")
        entry = re.fullmatch(r"malformed triplet '(.*)'", message)
        assert head.endswith(("]", " , ")), text
        assert rest.startswith(entry[1]) if entry else rest[:1] in ("", ",", "["), text


def test_parse_act_unknown_act():
    with pytest.raises(ParseError, match="frobnicate"):
        parse_act("[hotel] [frobnicate] x")


def test_parse_act_slot_outside_act():
    with pytest.raises(ParseError):
        parse_act("[hotel] area")


# -- turn lines --------------------------------------------------------------

def _reference_split_annotated_line(line, prefix):
    """The line split as it walked every character of the annotation for its depth."""
    if not line.startswith(prefix):
        raise ParseError(f"line does not start with {prefix!r}")
    depth = 1
    for i in range(len(prefix), len(line)):
        ch = line[i]
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth == 0:
                annotation = line[len(prefix): i]
                rest = line[i + 1:]
                if not rest.startswith(":"):
                    raise ParseError("expected ':' after the annotation", column=i + 1)
                return annotation, rest[1:].lstrip(" ")
    raise ParseError("unbalanced parentheses", column=len(line))


def _split_outcome(split, line, prefix):
    try:
        return split(line, prefix)
    except ParseError as exc:
        return "ParseError", str(exc)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 10 ** 6))
def test_split_annotated_line_equals_the_depth_walk(seed):
    """Lines with and without nested parentheses, balanced or not, with or without the
    `:` after the annotation: the same pieces or the same ParseError message."""
    from dialogic.exemplar import _split_annotated_line

    rng = make_rng(seed)
    pieces = ["[hotel]", " area is north", " , ", "(", ")", ":", " ", "x", "):", "((", "))"]
    nested = rng.random() < 0.5
    prefix = rng.choice(["User(", "Assistant("])
    for _ in range(20):
        body = "".join(rng.choices(pieces if nested else [p for p in pieces if "(" not in p],
                                   k=rng.randint(0, 8)))
        line = rng.choice([prefix, prefix, "", "User "]) + body
        assert _split_outcome(_split_annotated_line, line, prefix) == \
            _split_outcome(_reference_split_annotated_line, line, prefix), line


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
