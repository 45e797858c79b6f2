import json
from importlib import resources

from dialogic.textnorm import (
    TokenView,
    find_phrase,
    match_tokens,
    normalize_text,
    parse_time,
)

from .conftest import make_rng


def reference_normalize(text: str) -> str:
    """The per-character loop that `normalize_text` replaces, kept as its oracle."""
    text = text.lower().strip()
    out = []
    for i, ch in enumerate(text):
        if ch in ".:," and 0 < i < len(text) - 1 and text[i - 1].isdigit() and text[i + 1].isdigit():
            out.append(ch)
        elif ch in ".,?!;:":
            out.append(f" {ch} ")
        else:
            out.append(ch)
    return " ".join("".join(out).split())


def reference_find_phrase(haystack: list[str], needle: list[str]) -> int | None:
    """The linear scan that `TokenView.find` replaces, kept as its oracle."""
    if not needle:
        return None
    n = len(needle)
    for i in range(len(haystack) - n + 1):
        if haystack[i : i + n] == needle:
            return i
    # tolerate spacing variants such as "guest house" vs "guesthouse"
    squeezed = "".join(needle)
    if len(needle) > 1:
        for i, tok in enumerate(haystack):
            if tok == squeezed:
                return i
    if n == 1:
        for i in range(len(haystack) - 1):
            if haystack[i] + haystack[i + 1] == squeezed:
                return i
    return None


def test_normalize_detaches_punctuation():
    assert normalize_text("Hello, there.") == "hello , there ."
    assert normalize_text("is it cheap?") == "is it cheap ?"


def test_normalize_keeps_digit_internal_punctuation():
    assert normalize_text("arrives by 13:06.") == "arrives by 13:06 ."
    assert normalize_text("the price is 75.10 pounds") == "the price is 75.10 pounds"


def test_normalize_idempotent():
    text = "no , i just need to make sure it is cheap . oh , and i need parking ."
    assert normalize_text(text) == text


def test_match_tokens_maps_number_words_and_times():
    assert match_tokens("three nights") == ["3", "nights"]
    assert match_tokens("arrive by 08:45") == ["arrive", "by", "8:45"]
    assert match_tokens("a 3-star hotel") == ["a", "3", "star", "hotel"]


def test_contains_phrase_token_boundaries():
    tokens = match_tokens("i need a train to birmingham new street station")
    assert find_phrase(tokens, ["birmingham", "new", "street"]) == 5
    assert find_phrase(tokens, ["birmingham", "street"]) is None
    assert find_phrase(match_tokens("anything else"), ["any"]) is None


def test_contains_phrase_spacing_variants():
    assert find_phrase(match_tokens("a nice guest house"), ["guesthouse"]) == 2
    assert find_phrase(match_tokens("a guesthouse in town"), ["guest", "house"]) == 1


def test_find_phrase_positions():
    tokens = ["a", "train", "to", "leicester"]
    assert find_phrase(tokens, ["leicester"]) == 3
    assert find_phrase(tokens, ["bus"]) is None
    assert find_phrase(tokens, []) is None


# join/split collisions: "a b" and "ab", "ab c" and "a bc", "wi fi" and "wifi"
_PHRASE_ALPHABET = ["a", "b", "ab", "abc", "bc", "wi", "fi", "wifi",
                    "guest", "house", "guesthouse"]


def _random_needle(rng, haystack: list[str]) -> list[str]:
    """A third drawn from the alphabet, a third a run of the haystack, a third a respaced run."""
    form = rng.random()
    if form < 1 / 3 or not haystack:
        return rng.choices(_PHRASE_ALPHABET, k=rng.randint(0, 3))
    start = rng.randrange(len(haystack))
    run = haystack[start : start + rng.randint(1, 3)]
    if form < 2 / 3:
        return run
    if len(run) > 1:
        return ["".join(run)]  # "guest house" -> "guesthouse"
    if len(run[0]) > 1:
        cut = rng.randint(1, len(run[0]) - 1)
        return [run[0][:cut], run[0][cut:]]  # "wifi" -> "wi fi"
    return run


def test_token_view_find_equals_reference_on_random_pairs():
    rng = make_rng(43)
    mismatches = []
    tiers = {"none": 0, "exact": 0, "squeezed": 0, "split": 0}
    for _ in range(120_000):
        haystack = rng.choices(_PHRASE_ALPHABET, k=rng.randint(0, 12))
        needle = _random_needle(rng, haystack)
        expected = reference_find_phrase(haystack, needle)
        if TokenView(haystack).find(needle) != expected:
            mismatches.append((haystack, needle))
        if expected is None:
            tiers["none"] += 1
        elif haystack[expected : expected + len(needle)] == needle:
            tiers["exact"] += 1
        else:
            tiers["squeezed" if len(needle) > 1 else "split"] += 1
    assert mismatches == []
    assert min(tiers.values()) > 10_000, tiers


def test_parse_time():
    assert parse_time("08:45") == 8 * 60 + 45
    assert parse_time("13:06") == 13 * 60 + 6
    assert parse_time("25:00") is None
    assert parse_time("cheap") is None


def _bundled_texts() -> list[str]:
    data = resources.files("dialogic").joinpath("data")
    corpus = json.loads(data.joinpath("seed_corpus.json").read_text("utf-8"))
    texts = [turn[key] for dialogue in corpus["dialogues"]
             for turn in dialogue["turns"] for key in ("user", "resp")]
    for entry in data.joinpath("db").iterdir():
        if entry.name.endswith("_db.json"):
            texts += [str(value) for record in json.loads(entry.read_text("utf-8"))
                      for value in record.values()]
    return texts


def test_normalize_equals_reference_on_bundled_text():
    texts = _bundled_texts()
    assert len(texts) > 400
    assert [normalize_text(t) for t in texts] == [reference_normalize(t) for t in texts]


# "²" is isdigit() but not matched by \d; "٣" is a non-ASCII decimal digit;
# "İ" lowercases to two code points, shifting every later index
_ALPHABET = list("abcxyzAZ0123456789²٣İ-\t\n .,?!;:") + [" ", "1", ".", ":"]


def test_normalize_equals_reference_on_random_strings():
    rng = make_rng(41)
    mismatches = []
    for _ in range(100_000):
        text = "".join(rng.choices(_ALPHABET, k=rng.randint(0, 16)))
        if normalize_text(text) != reference_normalize(text):
            mismatches.append(text)
    assert mismatches == []
