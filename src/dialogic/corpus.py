"""Load/save corpora of annotated dialogues in the interchange JSON schema.

One schema serves seed and generated data alike; a `source` tag distinguishes
provenance. Only revised annotations are persisted; raw LLM annotations belong
to trace files, not the corpus.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

from .model import (
    DialogAct,
    Dialogue,
    DbResult,
    NO_RESULT,
    SOURCE_SEED,
    Turn,
    TurnBelief,
    UserGoal,
)
from .ontology import GENERAL_DOMAIN, NONE, Ontology
from .textnorm import normalize_text


class CorpusError(ValueError):
    """Schema or ontology violation while reading a corpus file."""


@dataclass
class SeedDataset:
    """An in-memory corpus with id lookup and value statistics for open slots."""

    dialogues: list[Dialogue] = field(default_factory=list)
    issues: list[str] = field(default_factory=list)

    def __post_init__(self):
        self._by_id = {d.id: d for d in self.dialogues}
        if len(self._by_id) != len(self.dialogues):
            raise CorpusError("duplicate dialogue ids in corpus")

    def __len__(self) -> int:
        return len(self.dialogues)

    def __iter__(self) -> Iterator[Dialogue]:
        return iter(self.dialogues)

    def get(self, dialogue_id: str) -> Dialogue:
        return self._by_id[dialogue_id]

    def observed_values(self) -> dict[tuple[str, str], list[str]]:
        """Values seen for each (domain, slot) across goals and beliefs."""
        seen: dict[tuple[str, str], dict[str, None]] = {}
        maps = []
        for dlg in self.dialogues:
            maps.append(dlg.final_goal)
            maps.extend(t.belief for t in dlg.turns)
        for tmap in maps:
            for domain, slot, value in tmap.triples():
                if slot == NONE or value in ("dontcare", NONE):
                    continue
                seen.setdefault((domain, slot), {}).setdefault(value, None)
        return {key: list(vals) for key, vals in seen.items()}

    def user_turns(self) -> list[tuple[Dialogue, int]]:
        """All (dialogue, turn index) pairs with a non-general, nonempty belief."""
        pool = []
        for dlg in self.dialogues:
            for i, turn in enumerate(dlg.turns):
                if turn.belief.slot_count() > 0:
                    pool.append((dlg, i))
        return pool


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
    for key in ("user", "belief", "act", "resp"):
        _require(key in data, where, f"missing key {key!r}")
    try:
        db = DbResult.from_json(data["db"]) if "db" in data else NO_RESULT
    except (KeyError, ValueError) as exc:
        raise CorpusError(f"{where}.db: {exc}") from exc
    _require(isinstance(data["belief"], dict), where, "belief must be an object")
    _require(isinstance(data["act"], list), where, "act must be a list of triples")
    for triple in data["act"]:
        _require(isinstance(triple, list) and len(triple) == 3, f"{where}.act",
                 f"bad act triple {triple!r}")
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

    def handle(problems: list[str], where: str) -> None:
        for problem in problems:
            message = f"{dlg.id} {where}: {problem}"
            if strict:
                raise CorpusError(message)
            issues.append(message)

    def drop_invalid(tmap) -> None:
        for domain in list(tmap.entries):
            if not ontology.has_domain(domain):
                del tmap.entries[domain]
                continue
            slots = tmap.entries[domain]
            for slot in list(slots):
                if domain == GENERAL_DOMAIN or not ontology.is_informable(domain, slot):
                    del slots[slot]

    handle(dlg.final_goal.validate(ontology), "goal")
    if dlg.initial_goal is not dlg.final_goal:
        handle(dlg.initial_goal.validate(ontology), "initial_goal")
    if not strict:
        drop_invalid(dlg.final_goal)
        drop_invalid(dlg.initial_goal)
    for i, turn in enumerate(dlg.turns):
        handle(turn.belief.validate(ontology), f"turns[{i}].belief")
        handle(turn.act.validate(ontology), f"turns[{i}].act")
        if not strict:
            drop_invalid(turn.belief)
            kept = tuple(
                t for t in turn.act.triples
                if ontology.has_domain(t[0])
                and ontology.act_permitted(t[0], t[1])
                and ontology.act_slot_permitted(t[0], t[2])
            )
            turn.act = DialogAct(kept)


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
    """Write dialogues as corpus JSON; output is deterministic for fixed input."""
    payload = {"dialogues": [dialogue_to_json(d) for d in dialogues]}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, ensure_ascii=False)
        fh.write("\n")
