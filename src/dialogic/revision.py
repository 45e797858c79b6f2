"""Annotation verification and revision.

Two failure modes are repaired on the fly: slots the LLM forgot to annotate
(fixed by an auxiliary belief predictor, merged under LLM priority) and slots
it annotated without expressing (removed by the slot-value match filter).
System acts pass through five fixed rules, applied in order to each triple.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .corpus import turn_to_json
from .database import EntityDb
from .model import (
    DialogAct,
    DbResult,
    SimulationError,
    Triple,
    Turn,
    TurnBelief,
    ValidationError,
    act_problems,
)
from .ontology import GENERAL_DOMAIN, NONE, Ontology
from .textnorm import TokenView, match_tokens, parse_time, utterance_view, value_tokens

_BOOLEAN_CUES: dict[str, frozenset[str]] = {
    "parking": frozenset({"parking"}),
    "internet": frozenset({"internet", "wifi"}),
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

    Domain-only mentions (slot `none`) and `general` entries are exempt and pass through.
    """
    return _filter_with_drops(belief, utterance_view(utterance))[0]


def _filter_with_drops(belief: TurnBelief, view: TokenView) -> tuple[TurnBelief, list[Triple]]:
    """The kept belief, in `belief`'s order, and the dropped triples.

    A domain whose every slot is dropped is not kept.
    """
    kept = TurnBelief()
    dropped: list[Triple] = []
    for domain, slots in belief.entries.items():
        if domain == GENERAL_DOMAIN or not slots:
            kept.entries[domain] = dict(slots)
            continue
        held = {}
        for slot, value in slots.items():
            if value_expressed(slot, value, view):
                held[slot] = value
            else:
                dropped.append((domain, slot, value))
        if held:
            kept.entries[domain] = held
    return kept, dropped


# ---------------------------------------------------------------------------
# belief merge and revision
# ---------------------------------------------------------------------------

def merge_beliefs(gpt: TurnBelief, aux: TurnBelief) -> TurnBelief:
    """Key union with LLM priority on collisions; LLM entries come first."""
    merged = type(gpt)()
    entries = merged.entries = {domain: dict(slots) for domain, slots in gpt.entries.items()}
    for domain, slots in aux.entries.items():
        held = entries.get(domain)
        if held is None:
            entries[domain] = dict(slots)
        else:
            for slot, value in slots.items():
                held.setdefault(slot, value)
    return merged


@dataclass(frozen=True)
class RevisionReport:
    """What the revision step changed for one user turn."""

    de_generation_fixes: tuple[Triple, ...]   # aux-only triples that survived
    over_generation_drops: tuple[Triple, ...]  # filtered-out triples
    aux_belief: TurnBelief  # admitted; empty without an aux predictor


def revise_belief(gpt: TurnBelief, context: list[Turn], utterance: str,
                  aux: "AuxPredictor | None", ontology: Ontology
                  ) -> tuple[TurnBelief, RevisionReport]:
    """B = filter(merge(B_llm, B_aux)); reports fixes and drops.

    The utterance is tokenised once: the aux and the filter read one view of it.
    """
    view = utterance_view(utterance)
    aux_belief = (aux.predict_belief(context, view).admitted(ontology) if aux is not None
                  else TurnBelief())
    merged = merge_beliefs(gpt, aux_belief)
    final, dropped = _filter_with_drops(merged, view)
    fixes = tuple((domain, slot, value) for domain, slots in final.entries.items()
                  for slot, value in slots.items() if slot not in gpt.entries.get(domain, ()))
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


def validate_act(act: DialogAct, context: list[Turn], belief: TurnBelief, db_result: DbResult,
                 db: EntityDb) -> tuple[DialogAct, list[str]]:
    """Apply the act rules to each triple in turn; always returns a valid act (never empty).

    The rules read the dialogue so far: the turns of `context`, then `belief`.
    In order; each firing starts with its rule's name:
    1. permitted-acts: drop a triple `db.ontology` does not admit
       (`model.act_problems`, as a corpus load does); the firing gives its first reason.
    2. offerbooked-needs-booking: offerbooked becomes inform unless an act of
       `context` offered a booking in the domain or a belief holds a booking slot
       of it: an informable slot its table in `db` lacks (any, with no table).
    3. nooffer-on-empty-db: on a db_0 result, an inform, recommend, select or
       offerbook in the queried domain becomes (domain, nooffer, none), or is
       dropped where the domain permits no nooffer. It runs after rule 2, so a
       downgraded offerbooked never informs on an empty result.
    4. drop-undiscussed-domains: drop a triple in a task domain that no belief
       of `context` or `belief` mentions.
    5. dedupe: drop a repeat of a triple already kept.
    An act left empty maps to FALLBACK_ACT itself; any other result is a new act.
    """
    kept: list[Triple] = []
    firings: list[str] = []
    for d, t, s in act.triples:
        problems = act_problems(db.ontology, d, t, s)
        if problems:
            firings.append(f"permitted-acts: dropped ({d}, {t}, {s}); {problems[0]}")
            continue
        if t == "offerbooked":
            booking = db.ontology.schema(d).informable.keys() - db.held_slots(d)
            if not (any(turn.act.has("offerbook", d) for turn in context)
                    or any(not booking.isdisjoint(b.entries.get(d, ()))
                           for b in (belief, *(turn.belief for turn in context)))):
                firings.append(f"offerbooked-needs-booking: downgraded ({d}, offerbooked, {s}) "
                               "to inform; no booking context")
                t = "inform"
        if db_result.bucket == "db_0" and d == db_result.domain and t in _OFFER_ACTS:
            if not db.ontology.act_permitted(d, "nooffer"):
                firings.append(f"nooffer-on-empty-db: dropped ({d}, {t}, {s}); "
                               "empty db result, no nooffer in the domain")
                continue
            firings.append(f"nooffer-on-empty-db: replaced ({d}, {t}, {s}) with nooffer; "
                           "empty db result")
            t, s = "nooffer", NONE
        # `belief` first: most acts are about its domain, and that case costs one lookup
        if d != GENERAL_DOMAIN and d not in belief.entries \
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
               db_result: DbResult, db: EntityDb, aux: "AuxPredictor | None"
               ) -> tuple[DialogAct, list[str], bool]:
    """Rule-validate the LLM act; consult the auxiliary act only on outright failure."""
    revised, firings = validate_act(gpt_act, context, belief, db_result, db)
    # the rules kept no triple; a valid LLM [general] [reqmore] is a new act, no failure
    if aux is not None and not gpt_act.is_empty() and revised is FALLBACK_ACT:
        aux_act = aux.predict_act(context, utterance, belief, db_result)
        revised, aux_firings = validate_act(aux_act, context, belief, db_result, db)
        firings.extend("aux " + f for f in aux_firings)
        return revised, firings, True
    return revised, firings, False


# ---------------------------------------------------------------------------
# auxiliary predictors
# ---------------------------------------------------------------------------

class AuxPredictor:
    """Interface for the auxiliary annotation model.

    `predict_belief` reads the user turn as the `TokenView` the match filter
    reads too (`view.text` is the utterance); `predict_act` reads the utterance.
    """

    def predict_belief(self, context: list[Turn], view: TokenView) -> TurnBelief:
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

_DAY_NAMES = frozenset({"monday", "tuesday", "wednesday", "thursday", "friday", "saturday",
                        "sunday"})

_NUMBER_UNITS = {
    "people": "people", "person": "people", "guests": "people",
    "night": "stay", "nights": "stay",
    "star": "stars", "stars": "stars",
    "ticket": "people", "tickets": "people",
}

_ARRIVE_CUES = {"arrive", "arrives", "arrival", "arriving", "by"}
_LEAVE_CUES = {"leave", "leaves", "leaving", "depart", "departs", "departing", "after"}
_TIME_CUES = frozenset(_ARRIVE_CUES | _LEAVE_CUES)
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
        keyed: dict[str, list[tuple[str, ...]]] = {}
        for phrase in ranked:
            for key in dict.fromkeys(("".join(phrase[:2]), "".join(phrase))):
                keyed.setdefault(key, []).append(phrase)
        # most keys name one phrase: a tuple holds it in a fraction of a set's memory
        self._keyed: dict[str, tuple[tuple[str, ...], ...]] = {
            key: tuple(phrases) for key, phrases in keyed.items()}

    def _active_domains(self, view: TokenView, context: list[Turn]) -> list[str]:
        found: dict[str, int] = {}  # domain -> first position of one of its keywords
        # a minimum per domain: the order the intersection is walked in does not matter
        for token in _KEYWORD_DOMAIN.keys() & view.at.keys():
            domain, first = _KEYWORD_DOMAIN[token], view.at[token][0]
            if first < found.get(domain, len(view.tokens)):
                found[domain] = first
        ordered = sorted(found, key=found.get)
        for turn in reversed(context):  # each earlier turn's last task domain
            for domain in reversed(turn.belief.entries):
                if domain != GENERAL_DOMAIN:
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
        keyed, rank = self._keyed, self._rank
        candidates = {phrase for index in (view.at, view.joined)
                      for key in keyed.keys() & index.keys() for phrase in keyed[key]}
        hits = [(phrase, pos) for phrase in candidates if (pos := view.find(phrase)) is not None]
        hits.sort(key=lambda hit: rank[hit[0]])
        return hits

    def predict_belief(self, context: list[Turn], view: TokenView) -> TurnBelief:
        tokens = view.tokens
        domains = self._active_domains(view, context)
        belief = TurnBelief()
        entries = belief.entries

        def emit(domain: str, slot: str, value: str) -> None:  # a slot keeps its first value
            entries.setdefault(domain, {}).setdefault(slot, value)

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
        if not _NUMBER_UNITS.keys().isdisjoint(view.at):
            for i, tok in enumerate(tokens[:-1]):
                if tok.isdigit() and tokens[i + 1] in _NUMBER_UNITS:
                    slot = _NUMBER_UNITS[tokens[i + 1]]
                    domain = self._first_with_slot(domains, slot)
                    if domain:
                        emit(domain, slot, tok)

        # day names
        if not _DAY_NAMES.isdisjoint(view.at):
            for tok in tokens:
                if tok in _DAY_NAMES:
                    domain = self._first_with_slot(domains, "day")
                    if domain:
                        emit(domain, "day", tok)

        # clock times with a leave/arrive cue nearby; emit the surface form
        if not _TIME_CUES.isdisjoint(view.at):
            for i, tok in enumerate(tokens):
                if ":" not in tok or parse_time(tok) is None:
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
        for slot, cues in _BOOLEAN_CUES.items():
            if cues.isdisjoint(view.at) and cues.isdisjoint(view.joined):
                continue
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
        domain = db.domain
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


AUX_TIMEOUT_S = 30.0  # how long an external aux model may take to answer one request


class HttpAuxPredictor(AuxPredictor):
    """Adapter for an external aux model: one JSON POST per request.

    Belief requests carry {context, utterance}; act requests additionally carry
    {belief, db}. Replies are {"belief": {domain: {slot: value}}}, each value
    a string, or {"act": [[domain, act_type, slot], ...]}, each member a string.
    An HTTP or connection error, no reply within AUX_TIMEOUT_S, or a reply of
    any other shape, one without its `belief` or `act` key included, raises
    SimulationError of kind aux_error, which fails only its own dialogue.
    """

    def __init__(self, url: str):
        import requests

        self.url = url
        self._session = requests.Session()

    def _ask(self, key: str, build, context: list[Turn], utterance: str, **extra):
        """POST one request and `build` the reply's `key` entry; any fault is an aux_error."""
        # a context turn goes on the wire as in a corpus, without its DB result
        wire = [{k: v for k, v in turn_to_json(t).items() if k != "db"} for t in context]
        request = {"context": wire, "utterance": utterance, **extra}
        try:
            response = self._session.post(self.url, json=request, timeout=AUX_TIMEOUT_S)
            response.raise_for_status()
            reply = response.json()
        except (OSError, ValueError) as exc:  # requests.RequestException is an OSError
            raise SimulationError(f"aux endpoint {self.url}: {exc}", kind="aux_error") from exc
        if not isinstance(reply, dict) or key not in reply:
            raise SimulationError(f"aux endpoint {self.url}: reply is not an object with a "
                                  f"{key!r} key: {reply!r}", kind="aux_error")
        try:
            return build(reply[key])
        except ValidationError as exc:
            raise SimulationError(f"aux endpoint {self.url}: {key} {exc}",
                                  kind="aux_error") from exc

    def predict_belief(self, context: list[Turn], view: TokenView) -> TurnBelief:
        return self._ask("belief", TurnBelief.from_dict, context, view.text)

    def predict_act(self, context, utterance, belief, db) -> DialogAct:
        return self._ask("act", DialogAct.from_triples, context, utterance,
                         belief=belief.to_dict(), db=db.to_json())

    def close(self) -> None:
        """Close the adapter's HTTP session and its keep-alive connections."""
        self._session.close()
