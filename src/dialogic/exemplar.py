"""Goal similarity, in-context example selection, and the prompt text format.

The text grammar here is the contract between the pipeline and the LLM:
`serialize_*` render annotations into prompt lines and `parse_*` read them
back. Round-trips are exact for ontology-canonical annotations; malformed
text fails fast so the simulation loop can retry.
"""

from __future__ import annotations

import math
import random
import re

from .corpus import SeedDataset, key_similarity, similarity_key
from .model import DialogAct, Dialogue, TripletMap, TurnBelief, UserGoal
from .ontology import ACT_TYPES, NONE, Ontology, canonical_slot

DEFAULT_TASK_DESCRIPTION = (
    "The following are conversations between a user and an assistant. "
    "The assistant can help the user to find things that satisfy his requirements. "
    "Try to speak differently in different conversations."
)

BOOKING_REMINDER = "Make sure you get the booking information once booked."

_DOMAIN_VERBS = {
    "hotel": "book",
    "restaurant": "book",
    "train": "book",
    "taxi": "book",
    "attraction": "visit",
}


class ParseError(ValueError):
    """Annotation text does not follow the serialization grammar."""

    def __init__(self, message: str, column: int | None = None):
        if column is not None:
            message = f"{message} (column {column})"
        super().__init__(message)
        self.column = column


# ---------------------------------------------------------------------------
# similarity and selection
# ---------------------------------------------------------------------------

def goal_similarity(g1: UserGoal, g2: UserGoal) -> float:
    """Jaccard(domain sets) * Jaccard(domain-qualified slot sets), in [0, 1]."""
    if g1.is_empty() or g2.is_empty():
        raise ValueError("goal similarity is undefined for empty goals")
    return key_similarity(similarity_key(g1), similarity_key(g2))


def selection_probabilities(target: UserGoal, pool: SeedDataset,
                            tau: float) -> dict[str, float]:
    """Softmax over goal similarities: p_j = exp(w_j / tau) / sum_k exp(w_k / tau)."""
    if tau <= 0:
        raise ValueError("temperature must be > 0")
    if len(pool) == 0:
        raise ValueError("candidate pool is empty")
    weights = pool.similarity.goal_weights(target)
    peak = max(weights)
    exps = [math.exp((w - peak) / tau) for w in weights]
    total = sum(exps)
    return {d.id: e / total for d, e in zip(pool, exps)}


def select_examples(target: UserGoal, pool: SeedDataset, k: int, tau: float,
                    rng: random.Random) -> list[Dialogue]:
    """Draw k distinct dialogues without replacement, renormalizing after each draw."""
    if k > len(pool):
        raise ValueError(f"cannot sample {k} examples from a pool of {len(pool)}")
    index = pool.similarity
    return [d for d, _, _ in index.goals.draw(index.goal_key(target), k, tau, rng)]


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def serialize_goal(goal: TripletMap) -> str:
    """`[domain] slot is value , slot is value [domain2] ...` in insertion order."""
    parts = []
    for domain, slots in goal.entries.items():
        parts.append(f"[{domain}]")
        if slots:
            parts.append(" , ".join(f"{slot} is {value}" for slot, value in slots.items()))
    return " ".join(parts)


def serialize_act(act: DialogAct) -> str:
    """`[domain] [act_type] slot slot [act_type2] ... [domain2] ...`; slotless acts bare."""
    parts: list[str] = []
    domain = act_type = None
    for d, t, s in act.triples:
        if d != domain:
            parts.append(f"[{d}]")
            domain, act_type = d, None
        if t != act_type:
            parts.append(f"[{t}]")
            act_type = t
        if s != NONE:
            parts.append(s)
    return " ".join(parts)


def parse_goal(text: str, cls=UserGoal) -> UserGoal:
    """Inverse of serialize_goal; slot aliases fold to canonical names."""
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


def parse_belief(text: str) -> TurnBelief:
    return parse_goal(text, cls=TurnBelief)


def parse_act(text: str) -> DialogAct:
    """Inverse of serialize_act. Unknown bracketed tokens in act position fail."""
    text = text.strip()
    if not text:
        return DialogAct()
    tokens = re.findall(r"\[[^\[\]]+\]|[^\s\[\]]+", text)
    triples: list[tuple[str, str, str]] = []
    domain: str | None = None
    act_type: str | None = None
    act_has_slot = False

    def flush() -> None:
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


# ---------------------------------------------------------------------------
# turn lines
# ---------------------------------------------------------------------------

def _split_annotated_line(line: str, prefix: str) -> tuple[str, str]:
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


def parse_user_line(line: str) -> tuple[TurnBelief, str]:
    """`User(<belief>): <utterance>` -> (TurnBelief, utterance). `User():` is empty."""
    annotation, utterance = _split_annotated_line(line.rstrip(), "User(")
    return parse_belief(annotation), utterance


def parse_system_line(line: str) -> tuple[DialogAct, str]:
    """`Assistant(<act>): <response>` -> (DialogAct, response)."""
    annotation, response = _split_annotated_line(line.rstrip(), "Assistant(")
    return parse_act(annotation), response


def format_user_line(belief: TurnBelief, utterance: str) -> str:
    return f"User({serialize_goal(belief)}): {utterance}"


def format_system_line(act: DialogAct, response: str) -> str:
    return f"Assistant({serialize_act(act)}): {response}"


# ---------------------------------------------------------------------------
# demonstrations and prompts
# ---------------------------------------------------------------------------

def _article(noun: str) -> str:
    return "an" if noun[:1] in "aeiou" else "a"


def instruction_sentence(goal: UserGoal, ontology: Ontology) -> str:
    """One requirement sentence per goal domain plus the booking reminder."""
    sentences = []
    for i, domain in enumerate(goal.entries):
        segment = serialize_goal(UserGoal({domain: goal.entries[domain]}))
        verb = _DOMAIN_VERBS.get(domain, "find")
        opening = "You are going to" if i == 0 else "You also want to"
        sentences.append(
            f"{opening} {verb} {_article(domain)} {domain}, "
            f"and your requirements for the {domain} are ({segment})."
        )
    if any(
        ontology.has_domain(d) and "offerbook" in ontology.schema(d).acts
        for d in goal.entries
    ):
        sentences.append(BOOKING_REMINDER)
    return " ".join(sentences)


def render_demonstration(dialogue: Dialogue, index: int, ontology: Ontology) -> str:
    """A full in-context example: instruction, conversation header, turn lines."""
    lines = [
        f"Instruction{index}: {instruction_sentence(dialogue.final_goal, ontology)}",
        f"Conversation{index}:",
    ]
    for turn in dialogue.turns:
        lines.append(format_user_line(turn.belief, turn.user_utterance))
        lines.append(format_system_line(turn.act, turn.system_response))
    return "\n".join(lines)


def estimate_tokens(text: str) -> int:
    """Crude completion-token estimate used for context-budget checks."""
    return (len(text) + 3) // 4


def build_prompt(task_desc: str, examples: list[Dialogue], target_goal: UserGoal,
                 *, ontology: Ontology) -> str:
    """Task description, numbered demonstrations, then the incomplete target entry."""
    if not examples:
        raise ValueError("at least one in-context example is required")
    blocks = [task_desc]
    for i, example in enumerate(examples, start=1):
        blocks.append(render_demonstration(example, i, ontology))
    n = len(examples) + 1
    blocks.append(
        f"Instruction{n}: {instruction_sentence(target_goal, ontology)}\nConversation{n}:"
    )
    return "\n\n".join(blocks) + "\n"
