import pytest

from dialogic.model import DialogAct, Dialogue, NO_RESULT, Turn, TurnBelief, UserGoal
from dialogic.stats import combined_score, compute_stats


def dialogue_with_texts(pairs, *, domains=("hotel",), did="d0"):
    goal = UserGoal({d: {"area": "south"} for d in domains})
    turns = [
        Turn(user_utterance=u, belief=TurnBelief({"general": {}}), db=NO_RESULT,
             act=DialogAct(), system_response=s)
        for u, s in pairs
    ]
    return Dialogue(id=did, initial_goal=goal, final_goal=goal, turns=turns, source="seed")


def test_empty_corpus_all_zero():
    stats = compute_stats([])
    assert stats.total_dialogues == 0
    assert stats.avg_turns == 0.0
    assert stats.unique_3grams == 0


def test_known_counts_match_brute_force():
    d1 = dialogue_with_texts(
        [("a b c d", "x y z"), ("a b c", "z y x")], domains=("hotel", "train"), did="d1")
    d2 = dialogue_with_texts([("b c d e", "[value_name] is nice .")], did="d2")
    stats = compute_stats([d1, d2])

    texts = ["a b c d", "x y z", "a b c", "z y x", "b c d e", "[value_name] is nice ."]
    tokens = set()
    trigrams = set()
    for text in texts:
        words = text.split()
        tokens.update(words)
        trigrams.update(
            tuple(words[i:i + 3]) for i in range(len(words) - 2))
    assert stats.total_dialogues == 2
    assert stats.total_turns == 3
    assert stats.total_domains == 3
    assert stats.avg_turns == pytest.approx(1.5)
    assert stats.avg_domains == pytest.approx(1.5)
    assert stats.unique_tokens == len(tokens)
    assert stats.unique_3grams == len(trigrams)


def test_system_side_counts_are_subset():
    d = dialogue_with_texts([("user words here now", "sys words here now")])
    stats = compute_stats([d])
    assert stats.unique_tokens_system <= stats.unique_tokens
    assert stats.unique_3grams_system <= stats.unique_3grams
    assert stats.unique_tokens_system == 4
    assert stats.unique_3grams_system == 2


def test_placeholders_count_as_single_tokens():
    d = dialogue_with_texts([("hello", "the [value_name] is in [value_area]")])
    stats = compute_stats([d])
    assert "[value_name]" not in ("",)  # placeholder kept whole by split
    assert stats.unique_tokens == 6


def test_permutation_invariance():
    d1 = dialogue_with_texts([("a b c", "d e f")], did="d1")
    d2 = dialogue_with_texts([("g h i", "j k l")], did="d2")
    assert compute_stats([d1, d2]) == compute_stats([d2, d1])


def test_published_totals_consistency():
    # avg = total / total on all published column totals, to 2 decimal places
    columns = [
        (85, 616, 229, 7.25, 2.69),
        (85, 599, 147, 7.05, 1.73),
        (422, 3510, 1076, 8.32, 2.55),
        (422, 2778, 738, 6.58, 1.75),
        (843, 6634, 2203, 7.87, 2.61),
        (843, 5617, 1471, 6.66, 1.74),
    ]
    for dialogues, turns, domains, avg_turns, avg_domains in columns:
        assert round(turns / dialogues, 2) == avg_turns
        assert round(domains / dialogues, 2) == avg_domains


def test_combined_score_zero():
    assert combined_score(0, 0, 0) == 0


def test_combined_score_reference_rows():
    assert combined_score(49.65, 36.74, 6.90) == pytest.approx(50.09, abs=0.01)
    assert combined_score(80.06, 72.85, 17.87) == pytest.approx(94.33, abs=0.01)


def test_combined_score_rejects_negative():
    with pytest.raises(ValueError):
        combined_score(-1, 0, 0)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("position", range(3))
def test_combined_score_rejects_non_finite(bad, position):
    values = [1.0, 1.0, 1.0]
    values[position] = bad
    with pytest.raises(ValueError, match="finite"):
        combined_score(*values)
