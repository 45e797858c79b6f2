"""Text normalization shared by the annotation filter and the entity database.

Both the slot-value match filter and DB constraint matching must agree on what
counts as "the same value", so all token-level normalization lives here.
"""

from __future__ import annotations

import re

# number words mapped to digits for value matching ("three nights" == 3)
NUMBER_WORDS: dict[str, str] = {
    "zero": "0", "one": "1", "two": "2", "three": "3", "four": "4",
    "five": "5", "six": "6", "seven": "7", "eight": "8", "nine": "9",
    "ten": "10", "eleven": "11", "twelve": "12", "thirteen": "13",
    "fourteen": "14", "fifteen": "15", "sixteen": "16", "seventeen": "17",
    "eighteen": "18", "nineteen": "19", "twenty": "20", "thirty": "30",
}

_PUNCT_TOKENS = {".", ",", "?", "!", ";", ":"}
_PUNCT_RE = re.compile(r"[.,?!;:]")
_TIME_RE = re.compile(r"^(\d{1,2}):(\d{2})$")


def _detach(m: re.Match) -> str:
    """One punctuation mark, kept attached only in `.:,` between two digits."""
    ch, text, i = m.group(), m.string, m.start()
    if ch in ".:," and 0 < i < len(text) - 1 and text[i - 1].isdigit() and text[i + 1].isdigit():
        return ch
    return f" {ch} "


def normalize_text(text: str) -> str:
    """Lowercase, detach sentence punctuation, collapse whitespace.

    Punctuation between digits (times like 08:45, prices like 75.10) is kept
    attached so values survive normalization intact. "Digit" means
    `str.isdigit()`, which also holds for superscripts and non-ASCII digits.
    """
    text = text.lower().strip()
    if _PUNCT_RE.search(text) is not None:
        text = _PUNCT_RE.sub(_detach, text)
    return " ".join(text.split())


def norm_token(token: str) -> str:
    """Canonical form of one token: number words to digits, times without a leading zero."""
    token = NUMBER_WORDS.get(token, token)
    m = _TIME_RE.match(token)
    if m:
        return f"{int(m.group(1))}:{m.group(2)}"
    return token


def token_pairs(text: str) -> list[tuple[str, str]]:
    """(surface, normalized) pairs, aligned with the match_tokens sequence."""
    text = normalize_text(text).replace("-", " ")
    return [(t, norm_token(t)) for t in text.split() if t not in _PUNCT_TOKENS]


def match_tokens(text: str) -> list[str]:
    """Token sequence used for value matching (hyphens split, punctuation dropped)."""
    return [norm for _, norm in token_pairs(text)]


class TokenView:
    """One utterance's match tokens, indexed once for every phrase looked up in it.

    `at` maps each token to its positions; `joined` maps each adjacent pair,
    written as one token, to the position of its first half.
    """

    __slots__ = ("tokens", "at", "joined")

    def __init__(self, tokens: list[str]):
        self.tokens = tuple(tokens)
        self.at: dict[str, list[int]] = {}
        self.joined: dict[str, list[int]] = {}
        for i, tok in enumerate(self.tokens):
            self.at.setdefault(tok, []).append(i)
        for i in range(len(self.tokens) - 1):
            self.joined.setdefault(self.tokens[i] + self.tokens[i + 1], []).append(i)

    def positions(self, token: str) -> list[int]:
        """Where token occurs, also split in two ("wi fi" for "wifi")."""
        return self.at.get(token, []) + self.joined.get(token, [])

    def find(self, needle) -> int | None:
        """Index of the first run of needle; else of needle written as one token,
        or of a one-token needle split in two ("guest house" and "guesthouse")."""
        if len(needle) > 1:
            needle = tuple(needle)
            # an exact run starts only where its first two tokens, joined, occur
            for i in self.joined.get(needle[0] + needle[1], ()):
                if self.tokens[i : i + len(needle)] == needle:
                    return i
            hits = self.at.get("".join(needle))
        else:
            hits = (self.at.get(needle[0]) or self.joined.get(needle[0])) if needle else None
        return hits[0] if hits else None


def find_phrase(haystack: list[str], needle: list[str]) -> int | None:
    """Index of the first occurrence of needle as a contiguous token run."""
    return TokenView(haystack).find(needle)


def parse_time(value: str) -> int | None:
    """Minutes after midnight for hh:mm strings, else None."""
    m = _TIME_RE.match(value.strip())
    if not m:
        return None
    hours, minutes = int(m.group(1)), int(m.group(2))
    if hours > 23 or minutes > 59:
        return None
    return hours * 60 + minutes
