"""Goal similarity, in-context example selection, and the prompt text format.

The text grammar here is the contract between the pipeline and the LLM:
`serialize_*` render annotations into prompt lines and `parse_*` read them
back. Round-trips are exact for ontology-canonical annotations; malformed
text fails fast so the simulation loop can retry. Every text the LLM reads
or writes is spelled here: line openers, stops, dialogue and DST prompts.
"""

from __future__ import annotations

import math
import random
import re

from .corpus import SeedDataset, key_similarity, similarity_key
from .model import DialogAct, Dialogue, TripletMap, TurnBelief, UserGoal
from .ontology import ACT_TYPES, GENERAL_DOMAIN, NONE, SLOT_TOKEN, Ontology, canonical_slot

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


# ---------------------------------------------------------------------------
# similarity and selection
# ---------------------------------------------------------------------------

def goal_similarity(g1: UserGoal, g2: UserGoal) -> float:
    """Jaccard(domain sets) * Jaccard(domain-qualified slot sets), in [0, 1]."""
    if g1.is_empty() or g2.is_empty():
        raise ValueError("goal similarity is undefined for empty goals")
    return key_similarity(similarity_key(g1), similarity_key(g2))


def _require_temperature(tau: float) -> None:
    if not 0 < tau < math.inf:  # nan fails both comparisons
        raise ValueError(f"temperature must be finite and > 0, got {tau!r}")


def selection_probabilities(target: UserGoal, pool: SeedDataset,
                            tau: float) -> dict[str, float]:
    """Softmax over goal similarities: p_j = exp(w_j / tau) / sum_k exp(w_k / tau).

    Each value is the probability that `select_examples` reports for drawing
    that dialogue first, from the same exps and total.
    """
    _require_temperature(tau)
    if len(pool) == 0:
        raise ValueError("candidate pool is empty")
    index = pool.similarity
    return dict(zip((d.id for d in pool), index.goals.probabilities(index.goal_key(target), tau)))


def select_examples(target: UserGoal, pool: SeedDataset, k: int, tau: float,
                    rng: random.Random) -> list[Dialogue]:
    """Draw k distinct dialogues without replacement, renormalizing after each draw."""
    _require_temperature(tau)
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


_MARKER_RE = re.compile(r"\[([^\[\]]+)\]")
_ACT_TOKEN_RE = re.compile(rf"\[[^\[\]]+\]|{SLOT_TOKEN}")


def parse_goal(text: str, cls=UserGoal) -> UserGoal:
    """Inverse of serialize_goal; slot aliases fold to canonical names."""
    result = cls()
    text = text.strip()
    if not text:
        return result
    parts = _MARKER_RE.split(text)  # the text before the first marker, then domain, chunk, ...
    if len(parts) == 1:
        raise ParseError("expected a [domain] marker", column=0)
    if parts[0].strip():
        raise ParseError("text before the first [domain] marker", column=0)
    for j in range(1, len(parts), 2):
        domain, chunk = parts[j].strip(), parts[j + 1]
        if not chunk.strip():
            result.set(domain, NONE, NONE)
            continue
        items = chunk.split(" , ")
        for k, item in enumerate(items):
            entry = item.strip()
            slot, sep, value = entry.partition(" is ")
            if not sep or not slot.strip() or not value.strip():
                # the entry starts after the text and brackets of parts[:j + 1],
                # then the k items and separators before it
                column = (sum(map(len, parts[:j + 1])) + j + 1
                          + sum(map(len, items[:k])) + 3 * k)
                if not entry:
                    raise ParseError("empty slot entry", column=column)
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
    triples: list[tuple[str, str, str]] = []
    domain: str | None = None
    act_type: str | None = None
    bare = False  # the last triple is the act type's (domain, act_type, none) until a slot follows
    for tok in _ACT_TOKEN_RE.findall(text):
        if tok[0] == "[":
            name = tok[1:-1].strip()
            if name in ACT_TYPES:
                if domain is None:
                    raise ParseError(f"act type {tok} before any [domain] marker")
                act_type, bare = name, True
                triples.append((domain, name, NONE))
            elif domain is not None and act_type is None:
                raise ParseError(f"unknown act type {tok}")
            else:
                domain, act_type = name, None
        elif act_type is None:
            raise ParseError(f"slot {tok!r} outside an act type")
        elif bare:
            triples[-1], bare = (domain, act_type, canonical_slot(tok)), False
        else:
            triples.append((domain, act_type, canonical_slot(tok)))
    return DialogAct(tuple(triples))


# ---------------------------------------------------------------------------
# turn lines
# ---------------------------------------------------------------------------

USER_OPENER = "User("
SYSTEM_OPENER = "Assistant("

# a completion ends where the next line's speaker would start
USER_STOPS = ("\nAssistant",)
SYSTEM_STOPS = ("\nUser", "\nInstruction")
DST_STOPS = ("\n",)


def _split_annotated_line(line: str, prefix: str) -> tuple[str, str]:
    if not line.startswith(prefix):
        raise ParseError(f"line does not start with {prefix!r}")
    start = len(prefix)
    i = line.find(")", start)
    if i == -1:
        raise ParseError("unbalanced parentheses", column=len(line))
    if line.find("(", start, i) != -1:
        # nested parentheses: the annotation closes where the depth returns to 0
        depth = 1
        for i in range(start, len(line)):
            ch = line[i]
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
                if depth == 0:
                    break
        else:
            raise ParseError("unbalanced parentheses", column=len(line))
    annotation = line[start:i]
    rest = line[i + 1:]
    if not rest.startswith(":"):
        raise ParseError("expected ':' after the annotation", column=i + 1)
    return annotation, rest[1:].lstrip(" ")


def parse_user_line(line: str) -> tuple[TurnBelief, str]:
    """`User(<belief>): <utterance>` -> (TurnBelief, utterance). `User():` is empty."""
    annotation, utterance = _split_annotated_line(line.rstrip(), USER_OPENER)
    return parse_belief(annotation), utterance


def parse_system_line(line: str) -> tuple[DialogAct, str]:
    """`Assistant(<act>): <response>` -> (DialogAct, response)."""
    annotation, response = _split_annotated_line(line.rstrip(), SYSTEM_OPENER)
    return parse_act(annotation), response


def format_user_line(belief: TurnBelief, utterance: str) -> str:
    return f"{USER_OPENER}{serialize_goal(belief)}): {utterance}"


def format_system_line(act: DialogAct, response: str) -> str:
    return f"{SYSTEM_OPENER}{serialize_act(act)}): {response}"


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
    if any(ontology.act_permitted(d, "offerbook") for d in goal.entries):
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


# slot glossary lines for the turn-level task description
_SLOT_GLOSSARY: dict[str, str] = {
    "people": "number of people for the {domain} booking",
    "stay": "length of stay at the hotel",
    "day": "day of the {domain} booking",
    "name": "name of the {domain}",
    "stars": "star rating of the hotel",
    "type": "what is the type of the {domain}, {options}",
    "area": "area of town for the {domain}",
    "pricerange": "price range of the {domain}",
    "parking": "whether the hotel has free parking",
    "internet": "whether the hotel has free wifi",
    "food": "type of food served by the restaurant",
    "departure": "place to depart from",
    "destination": "place to travel to",
    "leave": "earliest time to leave",
    "arrive": "latest time to arrive by",
    "time": "time of the {domain} booking",
    "department": "hospital department you need",
}


def _glossary_line(domain: str, slot: str, ontology: Ontology) -> str:
    """One glossary line; only a line that lists the options reads the candidates."""
    template = _SLOT_GLOSSARY.get(slot, "the {slot} of the {domain}")
    options = ", ".join(ontology.candidates(domain, slot)) if "{options}" in template else ""
    text = template.format(domain=domain, slot=slot, options=options or "any value")
    return f"{slot}: {text};"


def build_dst_prompt(belief: TurnBelief, demos: list[tuple[Dialogue, int]],
                     ontology: Ontology) -> str:
    """Task description with a slot glossary, turn demonstrations, target prefix."""
    domain = next((d for d in belief.entries if d != GENERAL_DOMAIN), GENERAL_DOMAIN)
    slots: dict[tuple[str, str], None] = {}  # a slot keeps its first place
    for shown in (belief, *(dlg.turns[i].belief for dlg, i in demos)):
        for d, names in shown.entries.items():
            for s in names:
                slots[d, s] = None
    header = (
        f"Answer the assistant's question on each feature you require when booking "
        f"{_article(domain)} {domain}. "
        'Also mention no preference on a feature when your requirement on it is "dontcare".'
    )
    lines = [header, "Features:"]
    lines += [_glossary_line(d, s, ontology) for d, s in slots]
    blocks = ["\n".join(lines)]
    for dlg, i in demos:
        turn = dlg.turns[i]
        asked = [s for names in turn.belief.entries.values() for s in names]
        blocks.append(
            f"Assistant: what is your requirement on {', '.join(asked)}?\n"
            f"{format_user_line(turn.belief, turn.user_utterance)}")
    blocks.append(f"{USER_OPENER}{serialize_goal(belief)}):")
    return "\n\n".join(blocks)
