"""Text normalization shared by the annotation filter and the entity database.

Both the slot-value match filter and DB constraint matching must agree on what
counts as "the same value", so all token-level normalization lives here, and
so does the one way an input file is read: its text, and the entries of a
JSON array in it.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Callable, Generator, Iterator

# number words mapped to digits for value matching ("three nights" == 3)
NUMBER_WORDS: dict[str, str] = {
    "zero": "0", "one": "1", "two": "2", "three": "3", "four": "4",
    "five": "5", "six": "6", "seven": "7", "eight": "8", "nine": "9",
    "ten": "10", "eleven": "11", "twelve": "12", "thirteen": "13",
    "fourteen": "14", "fifteen": "15", "sixteen": "16", "seventeen": "17",
    "eighteen": "18", "nineteen": "19", "twenty": "20", "thirty": "30",
}


def read_text(path: Path, error: Callable[[str], Exception]) -> str:
    """The UTF-8 text of the file at `path`; any other encoding raises `error("<path>: …")`."""
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 ({exc})") from exc


def read_json(path: Path, error: Callable[[str], Exception]):
    """The JSON value of the file at `path`; text that is not JSON raises `error("<path>: …")`."""
    try:
        return json.loads(read_text(path, error))
    except json.JSONDecodeError as exc:
        raise error(f"{path}: not valid JSON ({exc})") from exc


_WHITESPACE = re.compile(r"[ \t\n\r]*")  # what JSON allows between tokens
# what may follow a member of an array or an object: whitespace, then the ','
# before the next member or the closing bracket, then whitespace
_AFTER_MEMBER = {close: re.compile(rf"[ \t\n\r]*([,\{close}]?)[ \t\n\r]*") for close in "]}"}


def _after_member(text: str, i: int, close: str) -> tuple[bool, int]:
    """Whether the container closes after the member ending at `i`, and where the next
    member starts or the container's closing bracket and whitespace end."""
    m = _AFTER_MEMBER[close].match(text, i)
    if not m[1]:
        raise json.JSONDecodeError("Expecting ',' delimiter", text, m.end())
    return m[1] == close, m.end()


def _array(text: str, i: int, decode) -> Generator[object, None, tuple[bool, int]]:
    """The entries of the value at `text[i]`, if it is an array, each decoded as it is reached.

    Returns whether the value is an array, and where it ends; any other value
    is decoded and dropped.
    """
    if text[i:i + 1] != "[":
        return False, decode(text, i)[1]
    i = _WHITESPACE.match(text, i + 1).end()
    ended = text[i:i + 1] == "]"
    i += ended
    while not ended:
        entry, i = decode(text, i)
        yield entry
        ended, i = _after_member(text, i, "]")
    return True, i


def json_entries(path: Path, error: Callable[[str], Exception],
                 key: str | None = None) -> Iterator:
    """Each entry of a JSON array in the file at `path`, decoded as it is reached.

    The array is the document or, given `key`, that key's value in the
    document's top-level object. The text is read by `read_text` and walked
    as `json.loads` walks it: the values of other keys are decoded and
    dropped, and only the entry being yielded is held. Each fault raises
    `error("<path>: …")`: text that is not JSON, a BOM and data after the
    document included, with `json.loads`' message and place, once every
    entry before the fault has been yielded; a second `key`, which
    `json.loads` would read as the last one, where it is met; and a document
    without the array, once it has been read to its end.
    """
    text = read_text(path, error)
    decode = json.JSONDecoder().raw_decode
    skip = _WHITESPACE.match
    listed = None  # whether the array's place holds an array; None: not reached
    try:
        if text.startswith("\ufeff"):
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
        i = skip(text).end()
        if key is None:
            listed, i = yield from _array(text, i, decode)
        elif text[i:i + 1] != "{":  # any other value is the wrong shape
            _, i = decode(text, i)
        else:
            i = skip(text, i + 1).end()
            closed = text[i:i + 1] == "}"
            i += closed
            while not closed:
                if text[i:i + 1] != '"':
                    raise json.JSONDecodeError(
                        "Expecting property name enclosed in double quotes", text, i)
                at = i
                name, i = decode(text, i)
                i = skip(text, i).end()
                if text[i:i + 1] != ":":
                    raise json.JSONDecodeError("Expecting ':' delimiter", text, i)
                i = skip(text, i + 1).end()
                if name != key:
                    _, i = decode(text, i)
                elif listed is None:
                    listed, i = yield from _array(text, i, decode)
                else:
                    place = json.JSONDecodeError("", text, at)
                    raise error(f'{path}: "{key}" given twice (line {place.lineno} '
                                f"column {place.colno}); the file must give it once")
                closed, i = _after_member(text, i, "}")
        i = skip(text, i).end()
        if i != len(text):
            raise json.JSONDecodeError("Extra data", text, i)
    except json.JSONDecodeError as exc:
        raise error(f"{path}: not valid JSON ({exc})") from exc
    if not listed:
        raise error(f"{path}: expected a JSON array" if key is None
                    else f'{path}: top level must be {{"{key}": [...]}}')


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


class SharedTexts(dict):
    """`shared[text]` is `make(text)`, made once per distinct text; equal results are one string.

    A result is stored under itself, so `make` must map each of its results
    to itself, as `str.lower`, `normalize_text` and `canonical_slot` do. Then
    "North" and "north" share the first "north" made. A loader makes one for
    the call, so that texts that repeat in a file are kept once.
    """

    __slots__ = ("make",)

    def __init__(self, make: Callable[[str], str]):
        super().__init__()
        self.make = make

    def __missing__(self, text: str) -> str:
        made = self.make(text)
        self[text] = made = self.setdefault(made, made)
        return made


def norm_token(token: str) -> str:
    """Canonical form of one token: number words to digits, times without a leading zero."""
    token = NUMBER_WORDS.get(token, token)
    if ":" in token and (m := _TIME_RE.match(token)):
        return f"{int(m.group(1))}:{m.group(2)}"
    return token


def token_pairs(text: str) -> list[tuple[str, str]]:
    """(surface, normalized) pairs, aligned with the match_tokens sequence."""
    text = normalize_text(text).replace("-", " ")
    return [(t, norm_token(t)) for t in text.split() if t not in _PUNCT_TOKENS]


def match_tokens(text: str) -> list[str]:
    """Token sequence used for value matching (hyphens split, punctuation dropped)."""
    return [norm for _, norm in token_pairs(text)]


def value_tokens(value: str) -> tuple[str, ...]:
    """`match_tokens(value)` as a tuple."""
    return tuple(match_tokens(value))


class TokenView:
    """One utterance's match tokens, indexed once for every phrase looked up in it.

    `at` maps each token to its positions; `joined` maps each adjacent pair,
    written as one token, to the position of its first half. `surface` holds
    each token as written, before `norm_token` (the tokens themselves when not
    given), and `text` the utterance the view was built from. A view is
    read-only once built.
    """

    __slots__ = ("tokens", "surface", "text", "at", "joined")

    def __init__(self, tokens: list[str], surface: list[str] | None = None, text: str = ""):
        self.tokens = tuple(tokens)
        self.surface = self.tokens if surface is None else tuple(surface)
        self.text = text
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


def utterance_view(text: str) -> TokenView:
    """The TokenView of `text`'s match tokens, with their surface forms."""
    pairs = token_pairs(text)
    return TokenView([norm for _, norm in pairs], [surface for surface, _ in pairs], text)


def parse_time(value: str) -> int | None:
    """Minutes after midnight for hh:mm strings, else None."""
    m = _TIME_RE.match(value.strip())
    if not m:
        return None
    hours, minutes = int(m.group(1)), int(m.group(2))
    if hours > 23 or minutes > 59:
        return None
    return hours * 60 + minutes
