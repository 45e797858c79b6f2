"""Annotation verification and revision.

Two failure modes are repaired on the fly: slots the LLM forgot to annotate
(fixed by an auxiliary belief predictor, merged under LLM priority) and slots
it annotated without expressing (removed by the slot-value match filter).
System acts pass through five fixed rules, applied in order to each triple.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .database import BOOKING_SLOTS
from .model import (
    DialogAct,
    DialogueState,
    DbResult,
    SimulationError,
    Triple,
    Turn,
    TurnBelief,
    current_domain,
)
from .ontology import GENERAL_DOMAIN, NONE, Ontology
from .textnorm import TokenView, match_tokens, parse_time, utterance_view, value_tokens

BOOLEAN_SLOTS = ("parking", "internet")

_BOOLEAN_CUES: dict[str, tuple[str, ...]] = {
    "parking": ("parking",),
    "internet": ("internet", "wifi"),
}

_NEGATIONS = {"no", "not", "n't", "without", "dont", "doesnt", "isnt", "never"}

_DONTCARE_CUES: tuple[tuple[str, ...], ...] = (
    ("dontcare",), ("dont", "care"), ("do", "not", "care"), ("do", "n't", "care"),
    ("does", "not", "matter"), ("does", "n't", "matter"), ("doesnt", "matter"),
    ("not", "matter"), ("no", "preference"), ("any",), ("either",),
    ("not", "picky"), ("not", "important"), ("whatever",),
)
# a cue can be found only where its first token, or its spelling as one token,
# is a token or a joined pair of the view
_DONTCARE_KEYS = frozenset(key for cue in _DONTCARE_CUES for key in (cue[0], "".join(cue)))


# ---------------------------------------------------------------------------
# value matching
# ---------------------------------------------------------------------------

def _boolean_match(slot: str, value: str, view: TokenView) -> bool:
    positions = [pos for cue in _BOOLEAN_CUES[slot] for pos in view.positions(cue)]
    if not positions:
        return False
    def negated(pos: int) -> bool:
        return any(t in _NEGATIONS for t in view.tokens[max(0, pos - 3): pos])
    if value == "yes":
        return any(not negated(p) for p in positions)
    if value == "no":
        return any(negated(p) for p in positions)
    return False


def dontcare_expressed(view: TokenView) -> bool:
    if _DONTCARE_KEYS.isdisjoint(view.at) and _DONTCARE_KEYS.isdisjoint(view.joined):
        return False
    return any(view.find(cue) is not None for cue in _DONTCARE_CUES)


def value_expressed(slot: str, value: str, view: TokenView) -> bool:
    """True when the slot value is considered expressed by the (tokenized) utterance."""
    if value == "dontcare":
        return dontcare_expressed(view)
    if slot in _BOOLEAN_CUES and value in ("yes", "no"):
        return _boolean_match(slot, value, view)
    return view.find(value_tokens(value)) is not None


def slot_value_match_filter(belief: TurnBelief, utterance: str,
                            ontology: Ontology) -> TurnBelief:
    """Keep only triples whose value is matched in the utterance.

    Sentinel `none` slots and `general` entries are exempt and pass through.
    """
    return _filter_with_drops(belief, utterance)[0]


def _filter_with_drops(belief: TurnBelief, utterance: str) -> tuple[TurnBelief, list[Triple]]:
    view = utterance_view(utterance)
    kept = TurnBelief()
    dropped: list[Triple] = []
    for domain, slot, value in belief.triples():
        if domain == GENERAL_DOMAIN or slot == NONE or value == NONE:
            kept.set(domain, slot, value)
        elif value_expressed(slot, value, view):
            kept.set(domain, slot, value)
        else:
            dropped.append((domain, slot, value))
    return kept, dropped


# ---------------------------------------------------------------------------
# belief merge and revision
# ---------------------------------------------------------------------------

def merge_beliefs(gpt: TurnBelief, aux: TurnBelief) -> TurnBelief:
    """Key union with LLM priority on collisions; LLM entries come first."""
    merged = gpt.copy()
    for domain, slot, value in aux.triples():
        if slot == NONE:
            merged.entries.setdefault(domain, {})
            continue
        if merged.get(domain, slot) is None:
            merged.set(domain, slot, value)
    return merged


@dataclass(frozen=True)
class RevisionReport:
    """What the revision step changed for one user turn."""

    de_generation_fixes: tuple[Triple, ...] = ()   # aux-only triples that survived
    over_generation_drops: tuple[Triple, ...] = ()  # filtered-out triples
    aux_belief: TurnBelief | None = None


def revise_belief(gpt: TurnBelief, context: list[Turn], utterance: str,
                  aux: "AuxPredictor | None", ontology: Ontology
                  ) -> tuple[TurnBelief, RevisionReport]:
    """B = filter(merge(B_llm, B_aux)); reports fixes and drops."""
    aux_belief = aux.predict_belief(context, utterance) if aux is not None else TurnBelief()
    if aux_belief.validate(ontology):
        aux_belief = aux_belief.admitted(ontology)
    merged = merge_beliefs(gpt, aux_belief)
    final, dropped = _filter_with_drops(merged, utterance)
    fixes = tuple(
        (d, s, v) for d, s, v in final.triples()
        if s != NONE and gpt.get(d, s) is None
    )
    return final, RevisionReport(
        de_generation_fixes=fixes,
        over_generation_drops=tuple(dropped),
        aux_belief=aux_belief,
    )


# ---------------------------------------------------------------------------
# dialog act rules
# ---------------------------------------------------------------------------

FALLBACK_ACT = DialogAct(((GENERAL_DOMAIN, "reqmore", NONE),))
_FALLBACK_FIRING = "fallback: empty act mapped to (general, reqmore, none)"

_OFFER_ACTS = ("inform", "recommend", "select", "offerbook")
_OTHER_BOOKING_SLOTS = frozenset({"stay", "day", "people", "time"})  # domains not in BOOKING_SLOTS


def validate_act(act: DialogAct, context: list[Turn], belief: TurnBelief,
                 belief_state: DialogueState, db: DbResult, ontology: Ontology
                 ) -> tuple[DialogAct, list[str]]:
    """Apply the act rules to each triple in turn; always returns a valid act (never empty).

    The rules read the dialogue so far: the turns of `context`, then `belief`.
    In order; each firing starts with its rule's name:
    1. permitted-acts: drop a triple whose act or slot its domain does not permit.
    2. nooffer-on-empty-db: on a db_0 result, an inform, recommend, select or
       offerbook in the queried domain becomes (domain, nooffer, none).
    3. offerbooked-needs-booking: offerbooked becomes inform unless an act of
       `context` offered a booking in the domain or the state holds one of its
       booking slots.
    4. drop-undiscussed-domains: drop a triple in a task domain that neither the
       state nor any belief of `context` or `belief` mentions.
    5. dedupe: drop a repeat of a triple already kept.
    An act left empty maps to FALLBACK_ACT.
    """
    kept: list[Triple] = []
    firings: list[str] = []
    for d, t, s in act.triples:
        if not ontology.act_permitted(d, t):
            firings.append(f"permitted-acts: dropped ({d}, {t}, {s}); act not permitted for domain")
            continue
        if not ontology.act_slot_permitted(d, s):
            firings.append(f"permitted-acts: dropped ({d}, {t}, {s}); slot not permitted for domain")
            continue
        if db.bucket == "db_0" and d == db.domain and t in _OFFER_ACTS:
            firings.append(f"nooffer-on-empty-db: replaced ({d}, {t}, {s}) with nooffer; "
                           "empty db result")
            t, s = "nooffer", NONE
        if t == "offerbooked" and not (
                any(turn.act.has("offerbook", d) for turn in context)
                or not BOOKING_SLOTS.get(d, _OTHER_BOOKING_SLOTS).isdisjoint(
                    belief_state.entries.get(d, {}))):
            firings.append(f"offerbooked-needs-booking: downgraded ({d}, offerbooked, {s}) "
                           "to inform; no booking context")
            t = "inform"
        if d != GENERAL_DOMAIN and d not in belief_state.entries and d not in belief.entries \
                and not any(d in turn.belief.entries for turn in context):
            firings.append(f"drop-undiscussed-domains: dropped ({d}, {t}, {s}); "
                           "domain never discussed")
            continue
        if (d, t, s) in kept:
            firings.append(f"dedupe: dropped duplicate {(d, t, s)}")
            continue
        kept.append((d, t, s))
    if not kept:
        firings.append(_FALLBACK_FIRING)
        return FALLBACK_ACT, firings
    return DialogAct(tuple(kept)), firings


def revise_act(gpt_act: DialogAct, context: list[Turn], belief: TurnBelief, utterance: str,
               belief_state: DialogueState, db: DbResult, ontology: Ontology,
               aux: "AuxPredictor | None") -> tuple[DialogAct, list[str], bool]:
    """Rule-validate the LLM act; consult the auxiliary act only on outright failure."""
    revised, firings = validate_act(gpt_act, context, belief, belief_state, db, ontology)
    # the rules kept no triple; a valid LLM [general] [reqmore] is no failure
    outright_failure = not gpt_act.is_empty() and firings[-1:] == [_FALLBACK_FIRING]
    if outright_failure and aux is not None:
        aux_act = aux.predict_act(context, utterance, belief, db)
        revised, aux_firings = validate_act(aux_act, context, belief, belief_state, db, ontology)
        firings.extend("aux " + f for f in aux_firings)
        return revised, firings, True
    return revised, firings, False


# ---------------------------------------------------------------------------
# auxiliary predictors
# ---------------------------------------------------------------------------

class AuxPredictor:
    """Interface for the auxiliary annotation model."""

    def predict_belief(self, context: list[Turn], utterance: str) -> TurnBelief:
        raise NotImplementedError

    def predict_act(self, context: list[Turn], utterance: str, belief: TurnBelief,
                    db: DbResult) -> DialogAct:
        raise NotImplementedError


_DOMAIN_KEYWORDS: dict[str, tuple[str, ...]] = {
    "hotel": ("hotel", "hotels", "guesthouse", "guesthouses", "accommodation", "lodging"),
    "restaurant": ("restaurant", "restaurants", "eat", "dine", "dining", "food"),
    "train": ("train", "trains"),
    "taxi": ("taxi", "cab"),
    "attraction": ("attraction", "attractions", "museum", "college", "park", "nightclub",
                   "theatre", "cinema", "church", "architecture", "boat", "entertainment"),
    "hospital": ("hospital",),
    "police": ("police",),
}
_KEYWORD_DOMAIN = {kw: domain for domain, keywords in _DOMAIN_KEYWORDS.items()
                   for kw in keywords}

_DAY_NAMES = ("monday", "tuesday", "wednesday", "thursday", "friday", "saturday", "sunday")

_NUMBER_UNITS = {
    "people": "people", "person": "people", "guests": "people",
    "night": "stay", "nights": "stay",
    "star": "stars", "stars": "stars",
    "ticket": "people", "tickets": "people",
}

_ARRIVE_CUES = {"arrive", "arrives", "arrival", "arriving", "by"}
_LEAVE_CUES = {"leave", "leaves", "leaving", "depart", "departs", "departing", "after"}
_DEPARTURE_CUES = {"from", "leave", "leaves", "leaving", "depart", "departs", "departing"}
_DESTINATION_CUES = {"to", "arrive", "arrives", "arriving", "reach", "reaches"}


def _lexicon_phrase(value: str) -> tuple[str, ...] | None:
    """The tokens a value is found by, or None for a value that fires contextually."""
    if value in ("yes", "no", "dontcare", NONE):
        return None
    tokens = tuple(match_tokens(value))
    # bare digits, day names, and times fire contextually, not lexically
    if not tokens or all(t.isdigit() for t in tokens):
        return None
    if len(tokens) == 1 and (tokens[0] in _DAY_NAMES or parse_time(tokens[0]) is not None):
        return None
    return tokens


class LexicalAuxPredictor(AuxPredictor):
    """Ontology/seed-driven stand-in for a trained auxiliary model.

    Every emitted triple's value (or cue) is present in the normalized
    utterance, so its output always survives the match filter.

    Lexicon phrases are found by index, not by trying each phrase in turn.
    Each phrase is keyed twice: on its first two tokens joined (its only
    token, for a one-token phrase) and on its squeezed spelling ("guest
    house" under "guesthouse"). Every token and joined pair of the
    utterance's `TokenView` names candidates under its key, and `view.find`
    confirms each one and gives its position.
    """

    def __init__(self, ontology: Ontology, seeds=None):
        self.ontology = ontology
        values = [(domain, slot, value)
                  for domain in ontology.goal_domains()
                  for slot in ontology.informable_slots(domain)
                  for value in ontology.candidates(domain, slot)]
        if seeds is not None:
            values += [(domain, slot, value)
                       for (domain, slot), observed in seeds.observed_values().items()
                       if ontology.is_informable(domain, slot)
                       for value in observed]
        phrase_of = cache(_lexicon_phrase)  # values recur across slots and seeds: tokenise once
        self._lexicon: dict[tuple[str, ...], list[Triple]] = {}
        for entry in values:
            phrase = phrase_of(entry[2])
            if phrase is not None:
                bucket = self._lexicon.setdefault(phrase, [])
                if entry not in bucket:
                    bucket.append(entry)
        ranked = sorted(self._lexicon, key=len, reverse=True)
        self._rank = {phrase: i for i, phrase in enumerate(ranked)}
        self._keyed: dict[str, set[tuple[str, ...]]] = {}
        for phrase in ranked:
            for key in ("".join(phrase[:2]), "".join(phrase)):
                self._keyed.setdefault(key, set()).add(phrase)

    def _active_domains(self, view: TokenView, context: list[Turn]) -> list[str]:
        found: dict[str, int] = {}  # domain -> first position of one of its keywords
        for token, positions in view.at.items():
            domain = _KEYWORD_DOMAIN.get(token)
            if domain is not None and positions[0] < found.get(domain, len(view.tokens)):
                found[domain] = positions[0]
        ordered = [d for d, _ in sorted(found.items(), key=lambda kv: kv[1])]
        for turn in reversed(context):
            for domain in reversed(turn.belief.task_domains()):
                if domain not in ordered:
                    ordered.append(domain)
                break
        return ordered

    def _first_with_slot(self, domains: list[str], slot: str) -> str | None:
        for domain in domains:
            if self.ontology.is_informable(domain, slot):
                return domain
        return None

    def _lexicon_hits(self, view: TokenView) -> list[tuple[tuple[str, ...], int]]:
        """(phrase, `view.find` position) for each lexicon phrase in the view, in scan order."""
        candidates = {phrase for keys in (view.at, view.joined) for key in keys
                      for phrase in self._keyed.get(key, ())}
        hits = [(phrase, view.find(phrase)) for phrase in candidates]
        return sorted((hit for hit in hits if hit[1] is not None), key=lambda h: self._rank[h[0]])

    def predict_belief(self, context: list[Turn], utterance: str) -> TurnBelief:
        view = utterance_view(utterance)
        tokens = view.tokens
        domains = self._active_domains(view, context)
        belief = TurnBelief()

        def emit(domain: str, slot: str, value: str) -> None:
            if belief.get(domain, slot) is None:
                belief.set(domain, slot, value)

        # literal values from the lexicon, longest phrases first
        for phrase, pos in self._lexicon_hits(view):
            candidates = self._lexicon[phrase]
            scoped = []
            for domain in domains:
                scoped = [c for c in candidates if c[0] == domain]
                if scoped:
                    break
            if not scoped and len({c[0] for c in candidates}) == 1:
                scoped = list(candidates)
            if not scoped:
                continue
            slots = {c[1] for c in scoped}
            if {"departure", "destination"} <= slots:
                # place names are ambiguous without a direction cue
                window = set(tokens[max(0, pos - 2): pos])
                if window & _DESTINATION_CUES:
                    scoped = [c for c in scoped if c[1] == "destination"]
                elif window & _DEPARTURE_CUES:
                    scoped = [c for c in scoped if c[1] == "departure"]
                else:
                    continue
            emit(*scoped[0])

        # numbers with units: "4 people", "5 nights", "3 star"
        for i, tok in enumerate(tokens[:-1]):
            if tok.isdigit() and tokens[i + 1] in _NUMBER_UNITS:
                slot = _NUMBER_UNITS[tokens[i + 1]]
                domain = self._first_with_slot(domains, slot)
                if domain:
                    emit(domain, slot, tok)

        # day names
        for tok in tokens:
            if tok in _DAY_NAMES:
                domain = self._first_with_slot(domains, "day")
                if domain:
                    emit(domain, "day", tok)

        # clock times with a leave/arrive cue nearby; emit the surface form
        for i, tok in enumerate(tokens):
            if parse_time(tok) is None:
                continue
            window = set(tokens[max(0, i - 3): i])
            slot = None
            if window & _ARRIVE_CUES:
                slot = "arrive"
            elif window & _LEAVE_CUES:
                slot = "leave"
            if slot:
                domain = self._first_with_slot(domains, slot)
                if domain:
                    emit(domain, slot, view.surface[i])

        # boolean slots via cue phrases
        for slot in BOOLEAN_SLOTS:
            domain = self._first_with_slot(domains, slot)
            if domain is None:
                continue
            for value in ("no", "yes"):
                if _boolean_match(slot, value, view):
                    emit(domain, slot, value)
                    break

        # dontcare answers attach to the slots the system just requested
        if dontcare_expressed(view) and context:
            for domain, slot in context[-1].act.slots_of("request"):
                if self.ontology.is_informable(domain, slot):
                    emit(domain, slot, "dontcare")
        return belief

    def predict_act(self, context: list[Turn], utterance: str, belief: TurnBelief,
                    db: DbResult) -> DialogAct:
        domain = current_domain(belief, context)
        if domain is None:
            return FALLBACK_ACT
        if db.bucket == "db_0":
            return DialogAct(((domain, "nooffer", NONE),))
        triples: list[Triple] = []
        if self.ontology.act_permitted(domain, "inform") and db.bucket != "db_nores":
            triples.append((domain, "inform", "choice"))
        if self.ontology.act_permitted(domain, "offerbook"):
            triples.append((domain, "offerbook", NONE))
        if not triples:
            return FALLBACK_ACT
        return DialogAct(tuple(triples))


def _turn_wire(turn: Turn) -> dict:
    return {
        "user": turn.user_utterance,
        "belief": turn.belief.to_dict(),
        "act": turn.act.to_json(),
        "resp": turn.system_response,
    }


AUX_TIMEOUT_S = 30.0  # how long an external aux model may take to answer one request


class HttpAuxPredictor(AuxPredictor):
    """Adapter for an external aux model: one JSON POST per request.

    Belief requests carry {context, utterance}; act requests additionally carry
    {belief, db}. Replies are {"belief": {domain: {slot: value}}} or
    {"act": [[domain, act_type, slot], ...]}. An HTTP or connection error, no
    reply within AUX_TIMEOUT_S, or a reply of any other shape raises
    SimulationError of kind aux_error, which fails only its own dialogue.
    """

    def __init__(self, url: str):
        import requests

        self.url = url
        self._session = requests.Session()

    def _ask(self, context: list[Turn], utterance: str, **extra) -> dict:
        request = {"context": [_turn_wire(t) for t in context], "utterance": utterance, **extra}
        try:
            response = self._session.post(self.url, json=request, timeout=AUX_TIMEOUT_S)
            response.raise_for_status()
            reply = response.json()
        except (OSError, ValueError) as exc:  # requests.RequestException is an OSError
            raise SimulationError(f"aux endpoint {self.url}: {exc}", kind="aux_error") from exc
        if not isinstance(reply, dict):
            raise SimulationError(f"aux endpoint {self.url}: reply is not an object: {reply!r}",
                                  kind="aux_error")
        return reply

    def predict_belief(self, context: list[Turn], utterance: str) -> TurnBelief:
        data = self._ask(context, utterance).get("belief", {})
        if not isinstance(data, dict) or not all(isinstance(s, dict) for s in data.values()):
            raise SimulationError(f"aux endpoint {self.url}: belief is not domain -> slot -> "
                                  f"value: {data!r}", kind="aux_error")
        return TurnBelief.from_dict(data)

    def predict_act(self, context, utterance, belief, db) -> DialogAct:
        reply = self._ask(context, utterance, belief=belief.to_dict(), db=db.to_json())
        triples = reply.get("act", [])
        if not isinstance(triples, list) or not all(
                isinstance(t, list) and len(t) == 3 for t in triples):
            raise SimulationError(f"aux endpoint {self.url}: act is not a list of [domain, "
                                  f"act_type, slot] triples: {triples!r}", kind="aux_error")
        return DialogAct.from_triples(triples)

    def close(self) -> None:
        """Close the adapter's HTTP session and its keep-alive connections."""
        self._session.close()
