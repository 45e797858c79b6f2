import json
from importlib import resources

from dialogic.textnorm import (
    contains_phrase,
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
    assert contains_phrase(tokens, ["birmingham", "new", "street"])
    assert not contains_phrase(tokens, ["birmingham", "street"])
    assert not contains_phrase(match_tokens("anything else"), ["any"])


def test_contains_phrase_spacing_variants():
    assert contains_phrase(match_tokens("a nice guest house"), ["guesthouse"])
    assert contains_phrase(match_tokens("a guesthouse in town"), ["guest", "house"])


def test_find_phrase_positions():
    tokens = ["a", "train", "to", "leicester"]
    assert find_phrase(tokens, ["leicester"]) == 3
    assert find_phrase(tokens, ["bus"]) is None


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
