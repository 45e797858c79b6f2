"""Load/save corpora of annotated dialogues in the interchange JSON schema.

One schema serves seed and generated data alike; a `source` tag distinguishes
provenance. Only revised annotations are persisted; raw LLM annotations belong
to trace files, not the corpus.
"""

from __future__ import annotations

import json
import math
import random
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass, field
from itertools import accumulate, compress
from operator import attrgetter, mul
from pathlib import Path
from typing import Iterable, Iterator

from .model import (
    DialogAct,
    Dialogue,
    DbResult,
    NO_RESULT,
    SOURCE_SEED,
    SOURCES,
    TripletMap,
    Turn,
    TurnBelief,
    UserGoal,
    ValidationError,
)
from .ontology import NONE, Ontology, canonical_slot
from .textnorm import SharedTexts, json_entries, normalize_text


class CorpusError(ValueError):
    """Schema or ontology violation while reading a corpus file."""


SimilarityKey = tuple[frozenset[str], frozenset[str]]


def similarity_key(tmap: TripletMap) -> SimilarityKey:
    """What goal similarity compares: the domain set and the domain-qualified slot set."""
    return frozenset(tmap.entries), frozenset(tmap.qualified_slots())


def key_similarity(a: SimilarityKey, b: SimilarityKey) -> float:
    """Jaccard(domain sets) * Jaccard(slot sets); the slot factor is 1.0 when neither has slots.

    0.0 when no domain is shared, which includes an empty domain set.
    """
    (d1, s1), (d2, s2) = a, b
    shared = len(d1 & d2)
    if not shared:
        return 0.0
    domain_jaccard = shared / (len(d1) + len(d2) - shared)
    shared = len(s1 & s2)
    slots = len(s1) + len(s2) - shared
    slot_jaccard = shared / slots if slots else 1.0
    return domain_jaccard * slot_jaccard


class _KeyedCandidates:
    """Candidates in pool order, each pointing at one of their distinct similarity keys.

    Each distinct key lists its candidates' positions in pool order, and its
    first candidate's offset in key-then-pool order. Each qualified slot lists
    the keys that have it, and each domain the slotless keys that have it, in
    key order. All of it is fixed at construction; worker threads only read it.
    """

    def __init__(self, items: list, maps: Iterable[TripletMap]):
        self.items = items
        distinct: dict[SimilarityKey, int] = {}
        # a kept key is rebuilt from one string per qualified slot and one
        # frozenset per domain set, shared by every kept key that has it
        parts: dict = {}
        self.key_of = []
        for m in maps:
            key = similarity_key(m)
            j = distinct.get(key)
            if j is None:
                domains, slots = key
                key = (parts.setdefault(domains, domains),
                       frozenset([parts.setdefault(s, s) for s in slots]))
                j = distinct[key] = len(distinct)
            self.key_of.append(j)
        self.keys = list(distinct)
        self.positions: list[list[int]] = [[] for _ in self.keys]
        for position, j in enumerate(self.key_of):
            self.positions[j].append(position)
        self.counts = list(map(len, self.positions))
        self.starts = [0, *accumulate(self.counts)][:len(self.keys)]
        self._keys_with_slot: dict[str, list[int]] = {}
        self._slotless_keys_with_domain: dict[str, list[int]] = {}
        for j, (domains, slots) in enumerate(self.keys):
            lists = self._keys_with_slot if slots else self._slotless_keys_with_domain
            for name in slots or domains:
                lists.setdefault(name, []).append(j)

    def _buckets(self, target: SimilarityKey) -> tuple[list[int], list[float], list[int]]:
        """The keys a draw enumerates, ascending, and each bucket's weight and candidates.

        A key weighs above 0.0 only if it shares a qualified slot with the
        target or, for a slotless target, is slotless and shares a domain; a
        draw enumerates those keys, one bucket each, weighed by
        `key_similarity`, and every other key's candidates are the floor
        bucket, last, at weight 0.0. Where the target's lists of such keys are
        together at least as long as the key list, every key is enumerated and
        the floor is empty.
        """
        domains, slots = target
        lists, names = ((self._keys_with_slot, slots) if slots
                        else (self._slotless_keys_with_domain, domains))
        found = [lists[name] for name in names if name in lists]
        if sum(map(len, found)) >= len(self.keys):
            keys = list(range(len(self.keys)))
        else:
            keys = sorted(set().union(*found))
        counts = [self.counts[j] for j in keys]
        counts.append(len(self.items) - sum(counts))
        return keys, [*(key_similarity(target, self.keys[j]) for j in keys), 0.0], counts

    @staticmethod
    def _exps(by_key: list[float], counts: list[int], tau: float) -> tuple[float, list[float]]:
        """The peak weight among the buckets with a candidate left, and exp((w - peak) / tau) each.

        One exp per bucket with a nonzero weight, and one for all zero weights.
        """
        peak = max(compress(by_key, counts))
        zero = math.exp((0.0 - peak) / tau)  # 0.0 <= peak: no overflow guard needed
        # a key above the peak is out of the pool, and its exp could overflow
        return peak, [(math.exp((w - peak) / tau) if w <= peak else 0.0) if w else zero
                      for w in by_key]

    def probabilities(self, target: SimilarityKey, tau: float) -> list[float]:
        """Each candidate's probability of being drawn first, as `draw` reports it."""
        keys, by_key, counts = self._buckets(target)
        _, exps = self._exps(by_key, counts, tau)
        total = list(accumulate(map(mul, exps, counts)))[-1]
        exp_of = dict(zip(keys, exps))  # the floor's exp for every key not enumerated
        return [exp_of.get(j, exps[-1]) / total for j in self.key_of]

    def _floor_position(self, r: int, keys: list[int]) -> int:
        """The pool position of the floor's r-th candidate, from 0, in key-then-pool order.

        The floor holds the candidates of every key but the enumerated `keys`;
        the blocks of those keys, ascending, are stepped over.
        """
        for j in keys:
            if self.starts[j] > r:
                break
            r += self.counts[j]
        key = bisect_right(self.starts, r) - 1
        return self.positions[key][r - self.starts[key]]

    def draw(self, target: SimilarityKey, k: int, tau: float, rng: random.Random,
             skip: int | None = None) -> list[tuple]:
        """Draw k candidates, all but position `skip`, by softmax without replacement.

        Each candidate left weighs exp((w - peak) / tau), so a key weighs that
        times its candidates left. Only the keys that can weigh above 0.0 are
        walked one by one (`_buckets`), in key order; the candidates left
        of every other key weigh exp((0 - peak) / tau) each and form one floor
        bucket, last in the running sum. A draw walks those cumulative masses,
        in C, to pick a key or the floor with one `rng.random()`; the same
        uniform, scaled into that mass, picks which of its candidates left: in
        pool order within a key, in key-then-pool order within the floor. A
        draw costs O(keys sharing a slot with the target), however many
        candidates and other keys the pool has. Where every key is enumerated
        the floor is empty, and where every key also has one candidate it
        draws what a walk over the candidates draws, bit for bit. Returns
        (item, weight, probability at its draw) in draw order.
        """
        keys, by_key, counts = self._buckets(target)
        floor = len(keys)
        taken: dict[int, list[int]] = {}  # bucket -> sorted ranks, within it, of candidates out
        if skip is not None:
            key = self.key_of[skip]
            rank = bisect_left(self.positions[key], skip)
            j = bisect_left(keys, key)
            if j == floor or keys[j] != key:  # the floor ranks it past the keys before it
                rank += self.starts[key] - sum(counts[:j])
                j = floor
            counts[j] -= 1
            taken[j] = [rank]
        drawn, peak = [], None
        for _ in range(k):
            if peak is None:  # the first draw, or the last bucket at the peak was drawn out
                peak, exp_of = self._exps(by_key, counts, tau)
            masses = list(accumulate(map(mul, exp_of, counts)))
            total = masses[-1]
            x = rng.random() * total
            j = bisect_right(masses, x)
            if j == len(masses):  # only a uniform of 1.0 reaches total: the last candidate left
                j = max(compress(range(len(counts)), counts))
                r = counts[j] - 1
            else:  # masses[j - 1] <= x < masses[j], so the bucket's exp is positive
                r = int(min((x - (masses[j - 1] if j else 0.0)) / exp_of[j], counts[j] - 1))
            out = taken.setdefault(j, [])
            for rank in out:  # the r-th rank not out, counted from 0
                if rank > r:
                    break
                r += 1
            insort(out, r)
            position = self._floor_position(r, keys) if j == floor else self.positions[keys[j]][r]
            drawn.append((self.items[position], by_key[j], exp_of[j] / total))
            counts[j] -= 1
            if not counts[j] and by_key[j] == peak:
                peak = None
        return drawn


class SimilarityIndex:
    """The similarity-weighted candidates of a seed pool, keyed once.

    Example selection draws from the dialogues by final goal; DST turn
    demonstrations draw from the user turns with a nonempty belief, as
    (dialogue, turn index) pairs. Both lists are in pool order. A draw
    weighs the distinct keys that can weigh above 0.0 for its target, not each
    candidate, with one `key_similarity` each, takes one exp per key with a
    nonzero weight plus one for all zero weights, and picks a key or the floor
    of all other keys, then one of its candidates.
    """

    def __init__(self, dialogues: list[Dialogue]):
        self.goals = _KeyedCandidates(dialogues, (d.final_goal for d in dialogues))
        turns = [(d, i) for d in dialogues
                 for i, turn in enumerate(d.turns) if turn.belief.slot_count() > 0]
        self.turns = _KeyedCandidates(turns, (d.turns[i].belief for d, i in turns))
        self._first_turn: dict[str, int] = {}  # dialogue id -> position of its first candidate
        for p, (d, _) in enumerate(turns):
            self._first_turn.setdefault(d.id, p)
        self._empty_goal = any(d.final_goal.is_empty() for d in dialogues)

    def turn_position(self, dialogue_id: str, turn_idx: int) -> int | None:
        """The position of that dialogue's turn among `turns.items`; None if it is not one."""
        items = self.turns.items
        p = self._first_turn.get(dialogue_id, len(items))
        while p < len(items) and items[p][0].id == dialogue_id:
            if items[p][1] == turn_idx:
                return p
            p += 1
        return None

    def goal_key(self, target: UserGoal) -> SimilarityKey:
        """The key `target` is weighed by against the dialogues' final goals."""
        if self.goals.items and (target.is_empty() or self._empty_goal):
            raise ValueError("goal similarity is undefined for empty goals")
        return similarity_key(target)


@dataclass
class SeedDataset:
    """An in-memory corpus with id lookup, value statistics and a similarity index.

    The dataset is read-only once constructed: the id map, `observed_values()`
    and `similarity` are built from the dialogues at construction, so neither
    the dialogues nor what those return may be changed afterwards; a loaded
    corpus's dialogues may also share `Turn` objects. Being
    read-only, one dataset can be shared by worker threads without a lock.
    """

    dialogues: list[Dialogue] = field(default_factory=list)
    issues: list[str] = field(default_factory=list)

    def __post_init__(self):
        self._by_id = {d.id: d for d in self.dialogues}
        if len(self._by_id) != len(self.dialogues):
            raise CorpusError("duplicate dialogue ids in corpus")
        self._observed = _observed_values(self.dialogues)
        self.similarity = SimilarityIndex(self.dialogues)

    def __len__(self) -> int:
        return len(self.dialogues)

    def __iter__(self) -> Iterator[Dialogue]:
        return iter(self.dialogues)

    def get(self, dialogue_id: str) -> Dialogue:
        return self._by_id[dialogue_id]

    def observed_values(self) -> dict[tuple[str, str], list[str]]:
        """Values seen for each (domain, slot) across goals and beliefs.

        Built once; every call returns the same dict, which callers must not modify.
        """
        return self._observed


def _observed_values(dialogues: list[Dialogue]) -> dict[tuple[str, str], list[str]]:
    seen: dict[tuple[str, str], dict[str, None]] = {}
    walked: set[int] = set()  # a loaded corpus's dialogues share turns; a turn adds nothing twice
    for dlg in dialogues:
        turns = [t for t in dlg.turns if id(t) not in walked and not walked.add(id(t))]
        for tmap in [dlg.final_goal] + [t.belief for t in turns]:
            for domain, slot, value in tmap.triples():
                if slot == NONE or value in ("dontcare", NONE):
                    continue
                seen.setdefault((domain, slot), {}).setdefault(value, None)
    return {key: list(vals) for key, vals in seen.items()}


def _turn_document(turn: Turn, tmap, act) -> dict:
    return {
        "user": turn.user_utterance,
        "belief": tmap(turn.belief),
        "db": turn.db.to_json(),
        "act": act(turn.act),
        "resp": turn.system_response,
    }


def _document(dialogue: Dialogue, tmap, act) -> dict:
    """The dialogue's JSON document, each goal and belief as `tmap(it)`, each act as `act(it)`."""
    data = {
        "id": dialogue.id,
        "goal": tmap(dialogue.final_goal),
        "turns": [_turn_document(t, tmap, act) for t in dialogue.turns],
        "source": dialogue.source,
    }
    if dialogue.initial_goal != dialogue.final_goal:
        data["initial_goal"] = tmap(dialogue.initial_goal)
    return data


def turn_to_json(turn: Turn) -> dict:
    """The turn's JSON document; the caller owns it, and may change it."""
    return _turn_document(turn, TripletMap.to_dict, DialogAct.to_json)


def dialogue_to_json(dialogue: Dialogue) -> dict:
    """The dialogue's JSON document; the caller owns it, and may change it."""
    return _document(dialogue, TripletMap.to_dict, DialogAct.to_json)


def _require(condition: bool, where: str, message: str) -> None:
    if not condition:
        raise CorpusError(f"{where}: {message}")


class _Load:
    """One corpus load: what it shares, and how it admits each annotation it builds.

    Each distinct utterance or response, value, slot or domain name, DB
    result, act and turn is kept once, however often the file repeats it:
    `text`, `lowered`, `slot` and `domain` stand in for `normalize_text`,
    `str.lower`, `canonical_slot` and the name as written,
    `shared` maps a DB result or act to the first equal one (`NO_RESULT` for
    what a turn without "db" gets), and `turns` holds the turns built so far
    under their (user, resp) strings: one turn, or a list of those that differ.
    """

    def __init__(self, ontology: Ontology, strict: bool):
        self.ontology = ontology
        self.strict = strict
        self.issues: list[str] = []
        self.text = SharedTexts(normalize_text).__getitem__
        self.lowered = SharedTexts(str.lower).__getitem__
        self.slot = SharedTexts(canonical_slot).__getitem__
        self.domain = SharedTexts(str).__getitem__
        self.shared: dict = {NO_RESULT: NO_RESULT}
        self.turns: dict[tuple[str, str], Turn | list[Turn]] = {}

    def read(self, path: Path) -> tuple[list[Dialogue], list[str]]:
        """The dialogues of the file at `path`, and the issues of a lenient load."""
        entries = json_entries(path, CorpusError, "dialogues")
        return ([self.dialogue(entry, f"dialogues[{i}]") for i, entry in enumerate(entries)],
                self.issues)

    def admit(self, annotation, dialogue_id: str, where: str):
        """Strict mode raises on the first problem; lenient records each in `issues`, drops it."""
        problems = annotation.validate(self.ontology)
        if not problems:
            return annotation
        if self.strict:
            raise CorpusError(f"{dialogue_id} {where}: {problems[0]}")
        self.issues.extend(f"{dialogue_id} {where}: {problem}" for problem in problems)
        return annotation.admitted(self.ontology)

    @staticmethod
    def built(where: str, build, data, **kwargs):
        """`build(data, **kwargs)`, its ValidationError a CorpusError with `where` in front."""
        try:
            return build(data, **kwargs)
        except ValidationError as exc:
            raise CorpusError(f"{where}: {exc}") from exc

    def triplet_map(self, cls, data, where: str, dialogue_id: str):
        """`cls.from_dict(data)` via the load's memos, admitted."""
        tmap = self.built(where, cls.from_dict, data, slot_name=self.slot, lowered=self.lowered,
                          domain_name=self.domain)
        return self.admit(tmap, dialogue_id, where)

    def goal(self, data: dict, key: str, where: str, dialogue_id: str) -> UserGoal:
        return self.triplet_map(UserGoal, data[key], f"{where}.{key}", dialogue_id)

    def db_result(self, data: dict, where: str, dialogue_id: str) -> DbResult:
        if "db" not in data:
            return NO_RESULT
        db = self.admit(self.built(f"{where}.db", DbResult.from_json, data["db"]),
                        dialogue_id, f"{where}.db")
        return self.shared.setdefault(db, db)

    def act(self, data: dict, where: str, dialogue_id: str) -> DialogAct:
        act = self.admit(self.built(f"{where}.act", DialogAct.from_triples, data["act"],
                                    slot_name=self.slot),
                         dialogue_id, f"{where}.act")
        return self.shared.setdefault(act, act)

    def turn(self, data: dict, where: str, dialogue_id: str) -> Turn:
        """One turn, each annotation built and admitted in file order; then an
        earlier equal turn of this load, if there is one, stands in for it."""
        _require(isinstance(data, dict), where, "turn must be an object")
        # each message is built only on failure: a load checks every turn and triple
        for key in ("user", "belief", "act", "resp"):
            if key not in data:
                raise CorpusError(f"{where}: missing key {key!r}")
        for key in ("user", "resp"):
            if not isinstance(data[key], str):
                raise CorpusError(f"{where}: {key} must be a string")
        turn = Turn(
            user_utterance=self.text(data["user"]),
            belief=self.triplet_map(TurnBelief, data["belief"], f"{where}.belief", dialogue_id),
            db=self.db_result(data, where, dialogue_id),
            act=self.act(data, where, dialogue_id),
            system_response=self.text(data["resp"]),
        )
        # only turns with the same (shared) user and resp strings are compared
        key = (turn.user_utterance, turn.system_response)
        found = self.turns.setdefault(key, turn)
        if found is turn:
            return turn
        earlier = found if isinstance(found, list) else [found]
        for other in earlier:
            # belief order too: a turn saved again writes the JSON it was read from
            if (other.db is turn.db and other.act is turn.act
                    and other.belief.triples() == turn.belief.triples()):
                return other
        self.turns[key] = [*earlier, turn]
        return turn

    def dialogue(self, data: dict, where: str) -> Dialogue:
        """One dialogue, each annotation admitted as it is built, in file order."""
        _require(isinstance(data, dict), where, "dialogue must be an object")
        for key in ("id", "goal", "turns"):
            _require(key in data, where, f"missing key {key!r}")
        _require(isinstance(data["id"], str), where, "id must be a string")
        dialogue_id = data["id"]
        goal = self.goal(data, "goal", where, dialogue_id)
        initial = (self.goal(data, "initial_goal", where, dialogue_id)
                   if "initial_goal" in data else goal)
        _require(isinstance(data["turns"], list), where, "turns must be a list")
        turns = [self.turn(t, f"{where}.turns[{i}]", dialogue_id)
                 for i, t in enumerate(data["turns"])]
        _require(len(turns) >= 1, where, "dialogue has no turns")
        source = data.get("source", SOURCE_SEED)
        _require(source in SOURCES, where, f"unknown dialogue source {source!r}")
        return Dialogue(id=dialogue_id, initial_goal=initial, final_goal=goal, turns=turns,
                        source=SOURCES[SOURCES.index(source)])  # the tag's string, not the file's


def load_seed_corpus(path: str | Path, ontology: Ontology, *, strict: bool = True) -> SeedDataset:
    """Read a corpus JSON file, validating every dialogue against the ontology.

    Strict mode rejects the file on its first fault, of shape or ontology, in
    file order; lenient mode drops invalid triplets and records them in
    `SeedDataset.issues`, and rejects the file only on a fault of shape.

    The file's text is read once, and each entry of its `"dialogues"` array
    is decoded (`textnorm.json_entries`) and built before the next is
    decoded, so the file's whole JSON tree is never held. Any layout
    `json.load` reads is read, other top-level keys included; a second
    `"dialogues"` key, which `json.load` would read as the last one, is a
    CorpusError. Within one load, equal utterances and responses, values,
    slot names, DB results, acts and turns are one object each: files repeat
    them (a DST-augmented sample repeats its source dialogue's turns), so the
    dialogues of a loaded corpus may share `Turn` objects, as
    `augment_dst_turn`'s samples do, and are read-only. The
    `_Load` that shares them ends with the call.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"corpus file not found: {path}")
    # the text and the memos go before the dataset builds its index
    return SeedDataset(*_Load(ontology, strict).read(path))


def save_corpus(dialogues: Iterable[Dialogue], path: str | Path) -> None:
    """Write dialogues as corpus JSON; output is deterministic for fixed input.

    The file is one `{"dialogues": [...]}` document with one dialogue per
    line, each encoded as it is written. Without indentation `json` encodes
    in C, several times faster than its pure-Python indenting encoder. One
    encoder serves the call, and each line is what `dialogue_to_json` would
    give, encoded from the annotations as held: their `entries` dicts, and
    their act `triples` tuples, which encode as lists do.
    """
    encode = json.JSONEncoder(ensure_ascii=False, check_circular=False).encode
    held = attrgetter("entries"), attrgetter("triples")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('{"dialogues": [')
        separator = "\n"
        for dialogue in dialogues:
            fh.write(separator)
            fh.write(encode(_document(dialogue, *held)))
            separator = ",\n"
        fh.write("\n]}\n")
