"""Load/save corpora of annotated dialogues in the interchange JSON schema.

One schema serves seed and generated data alike; a `source` tag distinguishes
provenance. Only revised annotations are persisted; raw LLM annotations belong
to trace files, not the corpus.
"""

from __future__ import annotations

import json
import math
import random
from array import array
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field
from itertools import accumulate, compress
from pathlib import Path
from typing import Iterable, Iterator

from .model import (
    DialogAct,
    Dialogue,
    DbResult,
    NO_RESULT,
    SOURCE_SEED,
    TripletMap,
    Turn,
    TurnBelief,
    UserGoal,
)
from .ontology import NONE, Ontology
from .textnorm import normalize_text


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


# memoised similarity rows per index hold at most this many weights (8 MB)
_ROW_MEMO_WEIGHTS = 1 << 20


class _KeyedCandidates:
    """Candidates in pool order, each pointing at one of their distinct similarity keys.

    Each domain name and each qualified slot name among the distinct keys gets
    one bit, and each distinct key is stored as (domain mask, domain count,
    slot mask, slot count), so a Jaccard's shared count is a popcount. The bit
    map is fixed at construction; worker threads only read it.

    With `memoise`, the row of weights `_by_key` computes for a target key is
    kept, as an `array('d')`, until the rows hold _ROW_MEMO_WEIGHTS weights;
    later targets are computed and not kept. Worker threads read and write the
    memo without a lock: a row is a pure function of the target and the fixed
    bit map, a single dict store is atomic, and a stored row is never changed.
    So two threads that race on one target store equal rows, and either serves.
    """

    def __init__(self, items: list, maps: Iterable[TripletMap], *, memoise: bool = False):
        self.items = items
        distinct: dict[SimilarityKey, int] = {}
        self.key_of = [distinct.setdefault(similarity_key(m), len(distinct)) for m in maps]
        self.keys = list(distinct)
        self.counts = list(Counter(self.key_of).values())  # keys are numbered as first seen
        self._bit: dict[str, int] = {}
        for domains, slots in self.keys:
            for name in (*domains, *slots):
                self._bit.setdefault(name, 1 << len(self._bit))
        self._packed = [(self._mask(domains), len(domains), self._mask(slots), len(slots))
                        for domains, slots in self.keys]
        self._rows: dict[SimilarityKey, array] | None = {} if memoise else None
        self._row_limit = _ROW_MEMO_WEIGHTS // max(1, len(self.keys))

    def _mask(self, names: frozenset[str]) -> int:
        """The bits of `names`; a name the pool never saw sets none."""
        mask = 0
        for name in names:
            mask |= self._bit.get(name, 0)
        return mask

    def _by_key(self, target: SimilarityKey) -> list[float]:
        """key_similarity(target, key) per distinct key, bit for bit.

        A name the pool never saw sets no bit but counts in the target's size,
        so the integer operands, the divisions and the product are the same.
        """
        domains, slots = target
        dmask, smask = self._mask(domains), self._mask(slots)
        n_domains, n_slots = len(domains), len(slots)
        return [
            shared / (n_domains + key_domains - shared)
            * (s / union if (union := n_slots + key_slots - (s := (smask & key_smask).bit_count()))
               else 1.0)
            if (shared := (dmask & key_dmask).bit_count()) else 0.0
            for key_dmask, key_domains, key_smask, key_slots in self._packed
        ]

    def _row(self, target: SimilarityKey) -> array | list[float]:
        """`_by_key(target)`, from the memo when the index keeps one."""
        rows = self._rows
        if rows is None:
            return self._by_key(target)
        row = rows.get(target)
        if row is None:
            row = array("d", self._by_key(target))
            if len(rows) < self._row_limit:
                rows[target] = row
        return row

    def weights(self, target: SimilarityKey) -> list[float]:
        """key_similarity(target, candidate key) per candidate, one Jaccard per distinct key."""
        by_key = self._row(target)
        return list(map(by_key.__getitem__, self.key_of))

    def draw(self, target: SimilarityKey, k: int, tau: float, rng: random.Random,
             skip: int | None = None) -> list[tuple]:
        """Draw k candidates, all but position `skip`, by softmax without replacement.

        Each draw weighs the candidates left by exp((w - peak) / tau): one exp
        per distinct key with a nonzero weight, and one for all zero weights,
        gathered per candidate again only when the peak changes. Returns
        (item, weight, probability at its draw) in draw order.
        """
        by_key = self._row(target)
        items, key_of, counts = list(self.items), list(self.key_of), list(self.counts)
        if skip is not None:
            del items[skip]
            counts[key_of.pop(skip)] -= 1
        drawn, peak = [], None
        for _ in range(k):
            if peak is None:  # the first draw, or the last key at the peak was drawn out
                peak = max(compress(by_key, counts))
                zero = math.exp((0.0 - peak) / tau)  # 0.0 <= peak: no overflow guard needed
                # a key above the peak is out of the pool, and its exp could overflow
                exp_of = [(math.exp((w - peak) / tau) if w <= peak else 0.0) if w else zero
                          for w in by_key]
                exps = list(map(exp_of.__getitem__, key_of))  # one per candidate left
            total = sum(exps)
            i = min(bisect_right(list(accumulate(exps)), rng.random() * total), len(exps) - 1)
            j = key_of.pop(i)
            drawn.append((items.pop(i), by_key[j], exps.pop(i) / total))
            counts[j] -= 1
            if not counts[j] and by_key[j] == peak:
                peak = None
        return drawn


class SimilarityIndex:
    """The similarity-weighted candidates of a seed pool, keyed once.

    Example selection draws from the dialogues by final goal; DST turn
    demonstrations draw from the user turns with a nonempty belief, as
    (dialogue, turn index) pairs. Both lists are in pool order. A draw
    weighs each distinct key, not each candidate, with two popcounts on its
    packed bitmasks, and takes one exp per key with a nonzero weight plus one
    for all zero weights.

    The turn index keeps each target's row of weights (`_KeyedCandidates`'s
    memo), which worker threads share: a DST target's belief has one domain
    and a few slots, so targets repeat within a pass. Goal targets mostly
    differ, so the goal index keeps no rows.
    """

    def __init__(self, dialogues: list[Dialogue]):
        self.goals = _KeyedCandidates(dialogues, (d.final_goal for d in dialogues))
        turns = [(d, i) for d in dialogues
                 for i, turn in enumerate(d.turns) if turn.belief.slot_count() > 0]
        self.turns = _KeyedCandidates(turns, (d.turns[i].belief for d, i in turns),
                                      memoise=True)
        self.turn_position = {(d.id, i): p for p, (d, i) in enumerate(turns)}
        self._empty_goal = any(d.final_goal.is_empty() for d in dialogues)

    def goal_key(self, target: UserGoal) -> SimilarityKey:
        """The key `target` is weighed by against the dialogues' final goals."""
        if self.goals.items and (target.is_empty() or self._empty_goal):
            raise ValueError("goal similarity is undefined for empty goals")
        return similarity_key(target)

    def goal_weights(self, target: UserGoal) -> list[float]:
        """goal_similarity(target, d.final_goal) for each dialogue, in pool order."""
        return self.goals.weights(self.goal_key(target))


@dataclass
class SeedDataset:
    """An in-memory corpus with id lookup, value statistics and a similarity index.

    The dataset is read-only once constructed: the id map, `observed_values()`
    and `similarity` are built from the dialogues at construction, so neither
    the dialogues nor what those return may be changed afterwards. Being
    read-only, one dataset can be shared by worker threads without a lock;
    the one thing written later, the similarity rows the turn index memoises,
    needs none either (see `_KeyedCandidates`).
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
    for dlg in dialogues:
        for tmap in [dlg.final_goal] + [t.belief for t in dlg.turns]:
            for domain, slot, value in tmap.triples():
                if slot == NONE or value in ("dontcare", NONE):
                    continue
                seen.setdefault((domain, slot), {}).setdefault(value, None)
    return {key: list(vals) for key, vals in seen.items()}


def turn_to_json(turn: Turn) -> dict:
    return {
        "user": turn.user_utterance,
        "belief": turn.belief.to_dict(),
        "db": turn.db.to_json(),
        "act": turn.act.to_json(),
        "resp": turn.system_response,
    }


def dialogue_to_json(dialogue: Dialogue) -> dict:
    data = {
        "id": dialogue.id,
        "goal": dialogue.final_goal.to_dict(),
        "turns": [turn_to_json(t) for t in dialogue.turns],
        "source": dialogue.source,
    }
    if dialogue.initial_goal != dialogue.final_goal:
        data["initial_goal"] = dialogue.initial_goal.to_dict()
    return data


def _require(condition: bool, where: str, message: str) -> None:
    if not condition:
        raise CorpusError(f"{where}: {message}")


def turn_from_json(data: dict, where: str) -> Turn:
    _require(isinstance(data, dict), where, "turn must be an object")
    # each message is built only on failure: a load checks every turn and triple
    for key in ("user", "belief", "act", "resp"):
        if key not in data:
            raise CorpusError(f"{where}: missing key {key!r}")
    try:
        db = DbResult.from_json(data["db"]) if "db" in data else NO_RESULT
    except (KeyError, ValueError) as exc:
        raise CorpusError(f"{where}.db: {exc}") from exc
    _require(isinstance(data["belief"], dict), where, "belief must be an object")
    _require(isinstance(data["act"], list), where, "act must be a list of triples")
    for triple in data["act"]:
        if not isinstance(triple, list) or len(triple) != 3:
            raise CorpusError(f"{where}.act: bad act triple {triple!r}")
    return Turn(
        user_utterance=normalize_text(str(data["user"])),
        belief=TurnBelief.from_dict(data["belief"]),
        db=db,
        act=DialogAct.from_triples(data["act"]),
        system_response=normalize_text(str(data["resp"])),
    )


def dialogue_from_json(data: dict, where: str) -> Dialogue:
    _require(isinstance(data, dict), where, "dialogue must be an object")
    for key in ("id", "goal", "turns"):
        _require(key in data, where, f"missing key {key!r}")
    goal = UserGoal.from_dict(data["goal"])
    initial = UserGoal.from_dict(data["initial_goal"]) if "initial_goal" in data else goal
    turns = [
        turn_from_json(t, f"{where}.turns[{i}]") for i, t in enumerate(data["turns"])
    ]
    _require(len(turns) >= 1, where, "dialogue has no turns")
    return Dialogue(
        id=str(data["id"]),
        initial_goal=initial,
        final_goal=goal,
        turns=turns,
        source=data.get("source", SOURCE_SEED),
    )


def _validate_dialogue(dlg: Dialogue, ontology: Ontology, strict: bool,
                       issues: list[str]) -> None:
    """Check every triple against the ontology; strict mode raises, lenient drops."""

    def admit(annotation, where: str):
        problems = annotation.validate(ontology)
        if not problems:
            return annotation
        if strict:
            raise CorpusError(f"{dlg.id} {where}: {problems[0]}")
        issues.extend(f"{dlg.id} {where}: {problem}" for problem in problems)
        return annotation.admitted(ontology)

    shared_goal = dlg.initial_goal is dlg.final_goal
    dlg.final_goal = admit(dlg.final_goal, "goal")
    dlg.initial_goal = (dlg.final_goal if shared_goal
                        else admit(dlg.initial_goal, "initial_goal"))
    for i, turn in enumerate(dlg.turns):
        turn.belief = admit(turn.belief, f"turns[{i}].belief")
        turn.act = admit(turn.act, f"turns[{i}].act")


def load_seed_corpus(path: str | Path, ontology: Ontology, *, strict: bool = True) -> SeedDataset:
    """Read a corpus JSON file, validating every dialogue against the ontology.

    Strict mode rejects the file on the first invalid triple; lenient mode drops
    invalid triplets and records them in `SeedDataset.issues`.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"corpus file not found: {path}")
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise CorpusError(f"{path}: not valid JSON ({exc})") from exc
    _require(isinstance(data, dict) and "dialogues" in data, str(path),
             'top level must be {"dialogues": [...]}')
    issues: list[str] = []
    dialogues = []
    for i, entry in enumerate(data["dialogues"]):
        dlg = dialogue_from_json(entry, f"dialogues[{i}]")
        _validate_dialogue(dlg, ontology, strict, issues)
        dialogues.append(dlg)
    return SeedDataset(dialogues=dialogues, issues=issues)


def save_corpus(dialogues: Iterable[Dialogue], path: str | Path) -> None:
    """Write dialogues as corpus JSON; output is deterministic for fixed input.

    The file is one `{"dialogues": [...]}` document with one dialogue per
    line, each encoded as it is written. Without indentation `json` encodes
    in C, several times faster than its pure-Python indenting encoder.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('{"dialogues": [')
        separator = "\n"
        for dialogue in dialogues:
            fh.write(separator)
            fh.write(json.dumps(dialogue_to_json(dialogue), ensure_ascii=False))
            separator = ",\n"
        fh.write("\n]}\n")
