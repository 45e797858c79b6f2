import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dialogic.model import (
    DB_BUCKETS,
    DialogAct,
    DbResult,
    NO_RESULT,
    SimulationError,
    Turn,
    TurnBelief,
    accumulate_state,
)
from dialogic import revision
from dialogic.database import EntityDb, load_entity_db
from dialogic.ontology import ACT_TYPES, GENERAL_DOMAIN, NONE, Ontology, load_ontology
from dialogic.revision import (
    FALLBACK_ACT,
    HttpAuxPredictor,
    merge_beliefs,
    revise_act,
    revise_belief,
    slot_value_match_filter,
    validate_act,
)

from dialogic.textnorm import TokenView, parse_time, utterance_view

from .conftest import make_rng, random_act, random_belief
from .test_ontology import _renamed_dataset, synth
from .test_textnorm import reference_find_phrase


def belief(entries):
    return TurnBelief(entries)


def turn(utterance, belief_entries, act_triples=(), resp=""):
    return Turn(
        user_utterance=utterance, belief=TurnBelief(belief_entries), db=NO_RESULT,
        act=DialogAct(tuple(act_triples)), system_response=resp)


# -- merge -------------------------------------------------------------------

def test_merge_empty_aux_is_identity():
    gpt = belief({"hotel": {"stay": "2"}})
    assert merge_beliefs(gpt, TurnBelief()) == gpt


def test_merge_empty_gpt_takes_aux():
    aux = belief({"hotel": {"area": "dontcare"}})
    assert merge_beliefs(TurnBelief(), aux) == aux


def test_merge_priority_and_union():
    gpt = belief({"hotel": {"stay": "2"}})
    aux = belief({"hotel": {"stay": "3", "day": "tuesday"}})
    merged = merge_beliefs(gpt, aux)
    assert merged.to_dict() == {"hotel": {"stay": "2", "day": "tuesday"}}
    assert list(merged.entries["hotel"]) == ["stay", "day"]  # gpt entries first


def test_merge_key_set_is_union(ontology):
    rng = make_rng(3)
    for _ in range(200):
        gpt, aux = random_belief(ontology, rng), random_belief(ontology, rng)
        merged = merge_beliefs(gpt, aux)
        want = {(d, s) for d, s, _ in gpt.triples() if s != "none"}
        want |= {(d, s) for d, s, _ in aux.triples() if s != "none"}
        assert {(d, s) for d, s, _ in merged.triples() if s != "none"} == want


# -- slot-value match filter ---------------------------------------------------

def test_filter_keeps_only_expressed(ontology):
    b = belief({"hotel": {"area": "south", "stay": "5", "people": "4"}})
    out = slot_value_match_filter(b, "i need a hotel in the south side please .", ontology)
    assert out.to_dict() == {"hotel": {"area": "south"}}


def test_filter_dontcare_cue(ontology):
    b = belief({"train": {"arrive": "dontcare"}})
    assert slot_value_match_filter(b, "it does not matter .", ontology) == b


def test_filter_drops_unexpressed_value(ontology):
    # output is triple-wise subset of input: a fully dropped domain vanishes
    b = belief({"hotel": {"pricerange": "cheap"}})
    out = slot_value_match_filter(b, "i want a place to stay in the north .", ontology)
    assert out.to_dict() == {}


def test_filter_number_words(ontology):
    b = belief({"hotel": {"stay": "3"}})
    assert slot_value_match_filter(b, "three nights please .", ontology) == b


def test_filter_time_leading_zero(ontology):
    b = belief({"train": {"leave": "08:45"}})
    assert slot_value_match_filter(b, "leave after 8:45 .", ontology) == b


def test_filter_boolean_cues(ontology):
    yes = belief({"hotel": {"parking": "yes"}})
    assert slot_value_match_filter(yes, "i need free parking .", ontology) == yes
    no = belief({"hotel": {"internet": "no"}})
    assert slot_value_match_filter(no, "i do not need wifi .", ontology) == no
    assert slot_value_match_filter(no, "no wi fi needed .", ontology) == no  # split spelling
    wrong_polarity = slot_value_match_filter(
        yes, "no parking needed .", ontology)
    assert wrong_polarity.to_dict() == {}


def test_filter_exempt_classes(ontology):
    b = belief({"general": {}, "train": {}})
    assert slot_value_match_filter(b, "anything at all .", ontology) == b


def test_filter_subset_and_idempotent(ontology):
    rng = make_rng(8)
    for _ in range(300):
        b = random_belief(ontology, rng)
        utterance = "i would like a cheap hotel in the south for 2 nights on tuesday ."
        once = slot_value_match_filter(b, utterance, ontology)
        assert set(once.triples()) <= set(b.triples())
        assert slot_value_match_filter(once, utterance, ontology) == once


def _reference_filter_with_drops(b, view):
    """The filter as one `set` per kept triple of `b.triples()`."""
    kept, dropped = TurnBelief(), []
    for domain, slot, value in b.triples():
        if domain == GENERAL_DOMAIN or slot == NONE or revision.value_expressed(slot, value, view):
            kept.set(domain, slot, value)
        else:
            dropped.append((domain, slot, value))
    return kept, dropped


def test_filter_keeps_exempt_entries_and_no_emptied_domain(ontology):
    b = belief({"attraction": {"type": "museum"}, "general": {"area": "north"}, "train": {},
                "hotel": {"stars": "4", "area": "north"}, "restaurant": {}})
    kept, dropped = revision._filter_with_drops(b, utterance_view("a place in the north ."))
    assert repr(kept) == repr(belief({"general": {"area": "north"}, "train": {},
                                      "hotel": {"area": "north"}, "restaurant": {}}))
    assert dropped == [("attraction", "type", "museum"), ("hotel", "stars", "4")]


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 10 ** 6))
def test_filter_equals_a_filter_over_triples(ontology, seed):
    """General entries, domain-only mentions and domains whose every slot is dropped
    come out as from the reference, in the same order."""
    rng = make_rng(seed)
    b, words = TurnBelief(), ["a", "place", "please"]
    for domain in rng.sample(sorted(ontology.domains), rng.randint(0, 4)):
        b.set(domain, NONE, NONE)  # a domain-only mention, unless a slot follows
        names = sorted(ontology.schema(domain).informable) or ["area", "stay"]
        for slot in rng.sample(names, rng.randint(0, min(3, len(names)))):
            value = rng.choice([*(ontology.candidates(domain, slot) or ("ely", "b")), "dontcare"])
            b.set(domain, slot, value)
            if rng.random() < 0.5:
                words.append("no preference" if value == "dontcare" else value)
    rng.shuffle(words)
    view = utterance_view(" ".join(words) + " .")
    kept, dropped = revision._filter_with_drops(b, view)
    want_kept, want_dropped = _reference_filter_with_drops(b, view)
    assert repr(kept) == repr(want_kept)  # the entry order too
    assert dropped == want_dropped


# -- revise_belief -------------------------------------------------------------

def test_revise_identity_when_correct(ontology, aux):
    gpt = belief({"hotel": {"area": "south"}})
    out, report = revise_belief(gpt, [], "somewhere in the south please .", aux, ontology)
    assert out == gpt
    assert report.de_generation_fixes == () and report.over_generation_drops == ()


def test_revise_reference_turn(ontology, aux):
    gpt = belief({"hotel": {"area": "south", "stay": "5", "people": "4"}})
    out, report = revise_belief(
        gpt, [], "i need a hotel in the south side please .", aux, ontology)
    assert out.to_dict() == {"hotel": {"area": "south", "type": "hotel"}}
    assert ("hotel", "type", "hotel") in report.de_generation_fixes
    assert ("hotel", "stay", "5") in report.over_generation_drops
    assert ("hotel", "people", "4") in report.over_generation_drops


def test_revise_drops_unexpressed_none_value(ontology, aux):
    gpt = belief({"hotel": {"area": "none", "pricerange": "cheap"}})
    out, report = revise_belief(gpt, [], "i want a cheap hotel .", aux, ontology)
    assert out.get("hotel", "area") is None
    assert out.get("hotel", "pricerange") == "cheap"
    assert ("hotel", "area", "none") in report.over_generation_drops


def test_revise_dontcare_degeneration(ontology, aux):
    context = [turn(
        "i am looking for a place to stay .", {"hotel": {"type": "hotel"}},
        act_triples=(("hotel", "request", "area"),),
        resp="do you have a specific area you want to stay in ?")]
    out, report = revise_belief(TurnBelief(), context, "it does not matter .", aux, ontology)
    assert out.to_dict() == {"hotel": {"area": "dontcare"}}
    assert report.de_generation_fixes == (("hotel", "area", "dontcare"),)


class ReplyAux(revision.AuxPredictor):
    """An external aux model's belief reply, read as the wire adapter reads it."""

    def __init__(self, reply):
        self.reply = reply

    def predict_belief(self, context, view):
        return TurnBelief.from_dict(self.reply)


def test_revise_admits_aux_reply_per_triple(ontology):
    utterance = "a hotel , and a restaurant in the south ."
    valid = {"hotel": {}, "restaurant": {"area": "south"}}
    for reply, admitted in [
            (valid, valid),
            ({**valid, "spaceship": {"x": "y"}}, valid),
            ({**valid, "general": {"area": "south"}, "taxi": {"color": "red"}},
             {**valid, "general": {}, "taxi": {}})]:
        out, report = revise_belief(TurnBelief(), [], utterance, ReplyAux(reply), ontology)
        assert report.aux_belief.to_dict() == admitted
        assert out.to_dict() == admitted


def test_revise_output_is_filter_fixpoint(ontology, aux):
    rng = make_rng(12)
    utterances = [
        "i need a cheap hotel in the south with free parking .",
        "book a table for 4 people at an italian restaurant on tuesday .",
        "a train to cambridge arriving by 13:06 .",
        "no thank you , that is all .",
    ]
    for _ in range(200):
        gpt = random_belief(ontology, rng)
        utterance = rng.choice(utterances)
        out, _ = revise_belief(gpt, [], utterance, aux, ontology)
        assert slot_value_match_filter(out, utterance, ontology) == out


def test_revise_belief_again_adds_an_aux_value_the_llm_value_hid(ontology, aux):
    """Not a fixpoint: the LLM's area hides the aux's under LLM priority, and the filter
    then drops it as unexpressed; a second revision finds the slot free and adds the aux's."""
    utterance = "i want a guesthouse in the south ."
    once, report = revise_belief(belief({"hotel": {"area": "north"}}), [], utterance, aux,
                                 ontology)
    assert report.aux_belief.get("hotel", "area") == "south"
    assert report.over_generation_drops == (("hotel", "area", "north"),)
    assert once.to_dict() == {"hotel": {"type": "guesthouse"}}
    twice, _ = revise_belief(once, [], utterance, aux, ontology)
    assert twice.to_dict() == {"hotel": {"type": "guesthouse", "area": "south"}}


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 10 ** 6))
def test_revise_belief_is_a_fixpoint_but_for_hidden_aux_values(ontology, seed):
    """A second revision changes nothing unless the filter dropped an LLM entry that
    hid an aux triple under LLM priority: its slot, or for a domain-only aux mention,
    every slot of its domain. It then adds only such aux triples."""
    rng = make_rng(seed)
    gpt, reply = random_belief(ontology, rng), random_belief(ontology, rng)
    for d, s, _ in gpt.triples():  # the aux often answers a slot the LLM filled
        if s != NONE and rng.random() < 0.4:
            reply.set(d, s, rng.choice(ontology.candidates(d, s)))
    values = [v for b in (gpt, reply) for _, s, v in b.triples() if s != NONE]
    words = rng.sample(values, rng.randint(0, len(values))) + ["a", "place", "please"]
    rng.shuffle(words)
    utterance = " ".join(words) + " ."
    aux = ReplyAux(reply.to_dict())
    once, report = revise_belief(gpt, [], utterance, aux, ontology)
    twice, _ = revise_belief(once, [], utterance, aux, ontology)
    merged = merge_beliefs(gpt, report.aux_belief).triples()
    freed = {(d, s, v) for d, s, v in report.aux_belief.triples() if (d, s, v) not in merged
             and (d not in once.entries if s == NONE else once.get(d, s) is None)}
    if not freed:
        assert twice.triples() == once.triples()
    assert set(once.triples()) <= set(twice.triples())
    assert set(twice.triples()) - set(once.triples()) <= freed
    assert slot_value_match_filter(twice, utterance, ontology) == twice


# -- act rules -----------------------------------------------------------------

def test_validate_act_no_rule_fires(entity_db):
    act = DialogAct((("hotel", "request", "area"),))
    out, firings = validate_act(
        act, [], belief({"hotel": {"area": "south"}}), DbResult("hotel", 5, "db_3"), entity_db)
    assert out == act
    assert firings == []


def test_rule_drops_unpermitted_act(entity_db):
    act = DialogAct((("taxi", "offerbook", "none"), ("taxi", "inform", "car"),
                     ("taxi", "inform", "food")))
    out, firings = validate_act(
        act, [], belief({"taxi": {"destination": "airport"}}), DbResult("taxi", 0, "db_nores"),
        entity_db)
    assert out.triples == (("taxi", "inform", "car"),)
    # the reason is the corpus loader's, `model.act_problems`
    assert firings == [
        "permitted-acts: dropped (taxi, offerbook, none); "
        "act 'offerbook' not permitted in domain 'taxi'",
        "permitted-acts: dropped (taxi, inform, food); "
        "slot 'food' not permitted in acts of domain 'taxi'"]


def test_rule_nooffer_on_empty_db(entity_db):
    act = DialogAct((("hotel", "offerbook", "none"),))
    out, _ = validate_act(
        act, [], belief({"hotel": {"area": "south"}}), DbResult("hotel", 0, "db_0"), entity_db)
    assert out.triples == (("hotel", "nooffer", "none"),)


def test_rule_nooffer_collapses_duplicates(entity_db):
    act = DialogAct((
        ("hotel", "inform", "name"), ("hotel", "recommend", "name"),
        ("hotel", "offerbook", "none"), ("hotel", "request", "area")))
    out, _ = validate_act(
        act, [], belief({"hotel": {"area": "south"}}), DbResult("hotel", 0, "db_0"), entity_db)
    assert out.triples == (("hotel", "nooffer", "none"), ("hotel", "request", "area"))


def test_rule_offerbooked_downgraded_without_booking(entity_db):
    act = DialogAct((("hotel", "offerbooked", "reference"),))
    out, firings = validate_act(
        act, [], belief({"hotel": {"area": "south"}}), DbResult("hotel", 1, "db_1"), entity_db)
    assert out.triples == (("hotel", "inform", "reference"),)
    assert any("downgraded" in f for f in firings)


def test_rule_offerbooked_kept_with_booking_slots(entity_db):
    act = DialogAct((("hotel", "offerbooked", "reference"),))
    out, _ = validate_act(
        act, [], belief({"hotel": {"area": "south", "stay": "2"}}), DbResult("hotel", 1, "db_1"),
        entity_db)
    assert out.triples == (("hotel", "offerbooked", "reference"),)


def test_rule_offerbooked_kept_after_offerbook(entity_db):
    act = DialogAct((("hotel", "offerbooked", "reference"),))
    prior = DialogAct((("hotel", "offerbook", "none"),))
    out, _ = validate_act(
        act, [turn("", {}, prior.triples)], belief({"hotel": {"area": "south"}}),
        DbResult("hotel", 1, "db_1"), entity_db)
    assert out.triples == (("hotel", "offerbooked", "reference"),)


def test_rule_offerbooked_books_a_renamed_train_as_train(tmp_path):
    """Booking slots come from the DB, not the domain's name: after a belief
    holding only `day`, a renamed train downgrades offerbooked as train does,
    and after `people`, which no train table holds, both keep it."""
    paths = synth.write_dataset(tmp_path / "original", 5)
    renamed = _renamed_dataset(paths, tmp_path / "renamed", {"train": "xtrain"})
    for data, domain in ((paths, "train"), (renamed, "xtrain")):
        db = load_entity_db(data["db"], load_ontology(data["ontology"]))
        act = DialogAct(((domain, "offerbooked", "reference"),))
        result = DbResult(domain, 1, "db_1")
        out, firings = validate_act(act, [], belief({domain: {"day": "monday"}}), result, db)
        assert out.triples == ((domain, "inform", "reference"),)
        assert firings == [f"offerbooked-needs-booking: downgraded ({domain}, offerbooked, "
                           "reference) to inform; no booking context"]
        booked = belief({domain: {"day": "monday", "people": "2"}})
        assert validate_act(act, [], booked, result, db) == (act, [])


def test_rule_offerbooked_kept_after_any_slot_of_a_domain_without_a_table():
    """A domain with no DB table holds no slot: each informable slot is booking context."""
    ontology = Ontology.from_json({"ferry": {
        "informable": {"port": [], "day": [], "cabin": []}, "requestable": ["reference"],
        "acts": ["inform", "offerbooked"], "queryable": True}})
    db = EntityDb(ontology)
    assert db.held_slots("ferry") == frozenset()
    act = DialogAct((("ferry", "offerbooked", "reference"),))
    for slot in ("port", "day", "cabin"):
        now = belief({"ferry": {slot: "x"}})
        assert validate_act(act, [], now, NO_RESULT, db) == (act, [])
    out, _ = validate_act(act, [], belief({"ferry": {}}), NO_RESULT, db)
    assert out.triples == (("ferry", "inform", "reference"),)


def test_rule_drops_undiscussed_domain(entity_db):
    act = DialogAct((("attraction", "inform", "name"), ("hotel", "request", "area")))
    out, firings = validate_act(
        act, [], belief({"hotel": {"area": "south"}}), DbResult("hotel", 1, "db_1"), entity_db)
    assert out.triples == (("hotel", "request", "area"),)
    assert any("never discussed" in f for f in firings)


def test_rule_dedupe(entity_db):
    act = DialogAct((("hotel", "request", "area"), ("hotel", "request", "area")))
    out, _ = validate_act(
        act, [], belief({"hotel": {"area": "south"}}), DbResult("hotel", 1, "db_1"), entity_db)
    assert out.triples == (("hotel", "request", "area"),)


def test_empty_act_maps_to_reqmore(entity_db):
    out, _ = validate_act(DialogAct(), [], TurnBelief(), NO_RESULT, entity_db)
    assert out == FALLBACK_ACT


def test_validate_act_idempotent(ontology, entity_db):
    rng = make_rng(14)
    rule_names = ("permitted-acts: ", "nooffer-on-empty-db: ", "offerbooked-needs-booking: ",
                  "drop-undiscussed-domains: ", "dedupe: ", "fallback: ")
    now = belief({"hotel": {"area": "south", "stay": "2"},
                  "train": {"day": "monday"},
                  "restaurant": {"food": "thai"},
                  "attraction": {"area": "centre"},
                  "taxi": {"destination": "airport"}})
    for _ in range(300):
        act = random_act(ontology, rng)
        db = DbResult("hotel", *rng.choice([(0, "db_0"), (1, "db_1"), (5, "db_3")]))
        once, firings = validate_act(act, [], now, db, entity_db)
        twice, _ = validate_act(once, [], now, db, entity_db)
        assert twice == once
        assert all(f.startswith(rule_names) for f in firings)
        assert once.validate(ontology) == []


def test_revise_act_consults_aux_on_outright_failure(ontology, entity_db, aux):
    # act entirely in an undiscussed domain is wiped by the rules
    act = DialogAct((("attraction", "inform", "name"),))
    out, firings, used_aux = revise_act(
        act, db_result=DbResult("hotel", 1, "db_1"), db=entity_db, aux=aux, context=[],
        utterance="", belief=belief({"hotel": {"area": "south", "stay": "2"}}))
    assert used_aux
    assert not out.is_empty()
    assert out.validate(ontology) == []


def test_revise_act_keeps_valid_llm_act(entity_db, aux):
    # a valid [general] [reqmore] from the LLM is no outright failure either
    for act in (DialogAct((("hotel", "request", "area"),)), FALLBACK_ACT):
        out, firings, used_aux = revise_act(
            act, db_result=DbResult("hotel", 5, "db_3"), db=entity_db, aux=aux,
            context=[], utterance="", belief=belief({"hotel": {"type": "hotel"}}))
        assert not used_aux
        assert out == act
        assert firings == []


def test_revise_act_reads_mentioned_domains_from_context(entity_db):
    # a domain-only mention adds nothing to the state, yet the domain is discussed
    earlier = turn("any attractions nearby ?", {"attraction": {}})
    now = belief({"hotel": {"area": "south"}})
    act = DialogAct((("attraction", "inform", "address"),))
    for context, kept in (([earlier], True), ([], False)):
        out, firings, _ = revise_act(
            act, db_result=DbResult("hotel", 5, "db_3"), db=entity_db,
            aux=None, context=context, utterance="i want the south .", belief=now)
        assert (out == act) is kept
        assert any(f.startswith("drop-undiscussed-domains") for f in firings) is not kept


# booking slots as a fixed table: on the bundled DB they are the informable
# slots each table lacks, so the reference pins the rule that derives them there
REFERENCE_BOOKING_SLOTS = {
    "hotel": frozenset({"stay", "day", "people"}),
    "restaurant": frozenset({"time", "day", "people"}),
    "train": frozenset({"people"}),
}
REFERENCE_OTHER_BOOKING_SLOTS = frozenset({"stay", "day", "people", "time"})


def reference_validate_act(act, context, belief, state, db, ontology):
    """The act rules as they read a second copy of the dialogue: its accumulated `state`."""
    kept, firings = [], []
    for d, t, s in act.triples:
        if not ontology.act_permitted(d, t):
            firings.append(f"permitted-acts: dropped ({d}, {t}, {s}); act not permitted for domain")
            continue
        if not ontology.act_slot_permitted(d, s):
            firings.append(f"permitted-acts: dropped ({d}, {t}, {s}); slot not permitted for domain")
            continue
        if t == "offerbooked" and not (
                any(turn.act.has("offerbook", d) for turn in context)
                or not REFERENCE_BOOKING_SLOTS.get(d, REFERENCE_OTHER_BOOKING_SLOTS).isdisjoint(
                    state.entries.get(d, {}))):
            firings.append(f"offerbooked-needs-booking: downgraded ({d}, offerbooked, {s}) "
                           "to inform; no booking context")
            t = "inform"
        if db.bucket == "db_0" and d == db.domain and t in revision._OFFER_ACTS:
            if not ontology.act_permitted(d, "nooffer"):
                firings.append(f"nooffer-on-empty-db: dropped ({d}, {t}, {s}); "
                               "empty db result, no nooffer in the domain")
                continue
            firings.append(f"nooffer-on-empty-db: replaced ({d}, {t}, {s}) with nooffer; "
                           "empty db result")
            t, s = "nooffer", NONE
        if d != GENERAL_DOMAIN and d not in state.entries and d not in belief.entries \
                and not any(d in turn.belief.entries for turn in context):
            firings.append(f"drop-undiscussed-domains: dropped ({d}, {t}, {s}); "
                           "domain never discussed")
            continue
        if (d, t, s) in kept:
            firings.append(f"dedupe: dropped duplicate {(d, t, s)}")
            continue
        kept.append((d, t, s))
    if not kept:
        firings.append(revision._FALLBACK_FIRING)
        return FALLBACK_ACT, firings
    return DialogAct(tuple(kept)), firings


def reference_revise_act(gpt_act, context, belief, state, db, ontology, aux):
    revised, firings = reference_validate_act(gpt_act, context, belief, state, db, ontology)
    if not gpt_act.is_empty() and firings[-1:] == [revision._FALLBACK_FIRING]:
        aux_act = aux.predict_act(context, "", belief, db)
        revised, aux_firings = reference_validate_act(aux_act, context, belief, state, db,
                                                      ontology)
        return revised, firings + ["aux " + f for f in aux_firings], True
    return revised, firings, False


_BUCKET_COUNT = {"db_0": 0, "db_1": 1, "db_2": 3, "db_3": 7, "db_nores": 0}


def _random_rule_inputs(ontology, rng):
    """(act, context, belief, db): a random dialogue so far and an act that breaks every rule."""
    context = [turn("", random_belief(ontology, rng).entries, random_act(ontology, rng).triples)
               for _ in range(rng.randint(0, 4))]
    now = random_belief(ontology, rng) if rng.random() < 0.85 else TurnBelief()
    triples = list(random_act(ontology, rng).triples)
    for _ in range(rng.randint(0, 3)):  # acts and slots the ontology may not permit
        triples.append((rng.choice([*ontology.domains, "spaceship"]),
                        rng.choice(sorted(ACT_TYPES)),
                        rng.choice(["none", "area", "stay", "people", "reference", "food",
                                    "color", "choice"])))
    for d in {d for b in [now, *(t.belief for t in context)] for d in b.task_domains()}:
        if rng.random() < 0.5:  # offers and bookings in a discussed domain
            triples.append((d, rng.choice(["offerbooked", "offerbook", "inform"]),
                            rng.choice(["none", "reference", "choice"])))
    if rng.random() < 0.2:
        triples.append(rng.choice(triples))
    rng.shuffle(triples)
    bucket = rng.choice(DB_BUCKETS)
    domain = rng.choice([d for d, _, _ in triples] if rng.random() < 0.7 else [*ontology.domains])
    db = DbResult(domain, _BUCKET_COUNT[bucket], bucket)
    return DialogAct(tuple(triples)), context, now, db


def _rule_and_triple(firing):
    """A firing without its permitted-acts reason, the one text that reads the ontology."""
    head = firing.partition("; ")[0]
    return head if head.removeprefix("aux ").startswith("permitted-acts: ") else firing


def test_validate_act_equals_state_reference(ontology, entity_db):
    """The rules read the beliefs of the dialogue, not a state accumulated from them."""
    rng = make_rng(41)
    fired = {}
    for _ in range(400):
        act, context, now, db = _random_rule_inputs(ontology, rng)
        state = accumulate_state([t.belief for t in context] + [now])
        got, firings = validate_act(act, context, now, db, entity_db)
        want, want_firings = reference_validate_act(act, context, now, state, db, ontology)
        assert got == want
        assert list(map(_rule_and_triple, firings)) == list(map(_rule_and_triple, want_firings))
        for firing in firings:
            rule = firing.split(":")[0]
            fired[rule] = fired.get(rule, 0) + 1
        kept_offerbooked = any(t == "offerbooked" for _, t, _ in got.triples)
        fired["offerbooked kept"] = fired.get("offerbooked kept", 0) + kept_offerbooked
    assert len(fired) == 7 and min(fired.values()) >= 20, fired


def test_revise_act_equals_state_reference(ontology, entity_db, aux):
    rng = make_rng(43)
    used = 0
    for _ in range(400):
        act, context, now, db = _random_rule_inputs(ontology, rng)
        state = accumulate_state([t.belief for t in context] + [now])
        got, firings, used_aux = revise_act(act, context, now, "", db, entity_db, aux)
        want, want_firings, want_used = reference_revise_act(
            act, context, now, state, db, ontology, aux)
        assert (got, used_aux) == (want, want_used)
        assert list(map(_rule_and_triple, firings)) == list(map(_rule_and_triple, want_firings))
        used += used_aux
    assert used >= 10


def test_validate_act_is_a_fixpoint(ontology, entity_db):
    """The rules accept their own output: a second pass changes nothing and fires nothing."""
    rng = make_rng(47)
    for _ in range(400):
        act, context, now, db = _random_rule_inputs(ontology, rng)
        once, _ = validate_act(act, context, now, db, entity_db)
        assert validate_act(once, context, now, db, entity_db) == (once, [])


# -- lexical aux predictor -------------------------------------------------------

def test_aux_act_is_built_for_the_db_results_domain(ontology, aux):
    # the act is about the domain the DB result names, whatever the beliefs name
    hotel = turn("a hotel in the south .",
                 {"train": {"day": "monday"}, "hotel": {"area": "south"}})
    general = turn("thanks .", {"general": {}})
    db = DbResult("hotel", 5, "db_3")
    assert aux.predict_act([hotel, general], "ok .", TurnBelief(), db) == DialogAct((
        ("hotel", "inform", "choice"), ("hotel", "offerbook", "none")))
    # a turn that queried nothing gets no offer
    assert aux.predict_act([general], "ok .", TurnBelief(), NO_RESULT) == FALLBACK_ACT
    assert aux.predict_act([], "ok .", TurnBelief(), NO_RESULT) == FALLBACK_ACT


def test_aux_act_after_a_general_turn_offers_nothing(ontology, aux, entity_db):
    """A domain-less turn after a general-only one queries nothing, and the aux act,
    built for that result, offers no booking in the hotel domain of an older turn."""
    from dialogic.simulator import _query_db

    south = belief({"hotel": {"area": "south"}})
    hotel = Turn("a hotel in the south .", south,
                 entity_db.query("hotel", {"area": "south"}), DialogAct(), "")
    general = turn("thanks .", {"general": {}})
    db = _query_db(entity_db, TurnBelief(), [hotel, general])
    assert db == NO_RESULT
    assert aux.predict_act([hotel, general], "ok .", TurnBelief(), db) == FALLBACK_ACT


def test_aux_detects_values_in_active_domain(ontology, aux):
    out = aux.predict_belief([], utterance_view("i need a cheap hotel in the south ."))
    assert out.get("hotel", "pricerange") == "cheap"
    assert out.get("hotel", "area") == "south"
    assert out.get("hotel", "type") == "hotel"


def test_aux_uses_context_domain(ontology, aux):
    context = [turn("i need a hotel .", {"hotel": {"type": "hotel"}})]
    out = aux.predict_belief(context, utterance_view("4 people for 5 nights starting tuesday ."))
    assert out.get("hotel", "people") == "4"
    assert out.get("hotel", "stay") == "5"
    assert out.get("hotel", "day") == "tuesday"


def test_aux_direction_cues(ontology, aux):
    utterance = "i need a train to birmingham new street from cambridge ."
    out = aux.predict_belief([], utterance_view(utterance))
    assert out.get("train", "destination") == "birmingham new street"
    assert out.get("train", "departure") == "cambridge"


def test_aux_place_without_cue_skipped(ontology, aux):
    out = aux.predict_belief([], utterance_view("trains near cambridge are nice ."))
    assert out.get("train", "destination") is None
    assert out.get("train", "departure") is None


def test_aux_time_cues(ontology, aux):
    out = aux.predict_belief([], utterance_view("i want a train that arrives by 13:06 ."))
    assert out.get("train", "arrive") == "13:06"
    out2 = aux.predict_belief([], utterance_view("the train should leave after 08:45 ."))
    assert out2.get("train", "leave") == "08:45"


def test_aux_output_survives_filter(ontology, aux):
    utterances = [
        "i need a cheap guesthouse with free wifi in the north .",
        "book a thai restaurant for two people on friday .",
        "a train from cambridge to norwich leaving after 10:30 .",
        "it does not matter .",
    ]
    for utterance in utterances:
        out = aux.predict_belief([], utterance_view(utterance))
        assert slot_value_match_filter(out, utterance, ontology) == out


def _linear_lexicon_hits(lexicon, tokens):
    """Reference: every phrase in turn, longest first, through the linear oracle."""
    hits = [(p, reference_find_phrase(tokens, list(p)))
            for p in sorted(lexicon, key=len, reverse=True)]
    return [(p, pos) for p, pos in hits if pos is not None]


def test_aux_lexicon_index_matches_linear_scan(aux):
    assert (("guesthouse",), 2) in aux._lexicon_hits(TokenView(["a", "cheap", "guest", "house"]))
    rng = make_rng(17)
    phrases = list(aux._lexicon)
    filler = ["i", "want", "a", "the", "to", "from", "in", "guest", "house", "north", "by", "7:30"]
    spacing_variants = 0
    for _ in range(2000):
        tokens = []
        for _ in range(rng.randint(0, 12)):
            if rng.random() < 0.6:
                tokens.append(rng.choice(filler))
                continue
            phrase = list(rng.choice(phrases))
            form = rng.random()
            if form < 0.25 and len(phrase) > 1:
                phrase = ["".join(phrase)]  # "concert hall" -> "concerthall"
            elif form < 0.5 and len(phrase) == 1 and len(phrase[0]) > 1:
                cut = rng.randint(1, len(phrase[0]) - 1)
                phrase = [phrase[0][:cut], phrase[0][cut:]]  # "guesthouse" -> "guest house"
            elif form < 0.6 and len(phrase) > 1:
                phrase = phrase[: rng.randint(1, len(phrase) - 1)]
            tokens += phrase
        hits = aux._lexicon_hits(TokenView(tokens))
        assert hits == _linear_lexicon_hits(aux._lexicon, tokens), tokens
        spacing_variants += sum(tokens[pos : pos + len(p)] != list(p) for p, pos in hits)
    assert spacing_variants > 100


def test_dontcare_guard_agrees_with_every_cue_search():
    """The early return must not miss a cue written split or joined ("donotcare")."""
    cues = revision._DONTCARE_CUES
    spellings = [list(cue) for cue in cues] + [["".join(cue)] for cue in cues]
    spellings += [[cue[0][:cut], cue[0][cut:]] for cue in cues if len(cue) == 1
                  for cut in range(1, len(cue[0]))]  # "what ever", "d ontcare"
    spellings += [["".join(cue[:2]), *cue[2:]] for cue in cues if len(cue) > 2]  # "donot care"
    filler = ["i", "do", "not", "need", "it", "care", "no", "matter", "any", "more", "n't"]
    rng = make_rng(29)
    found = 0
    for _ in range(6000):
        tokens = rng.choices(filler, k=rng.randint(0, 6))
        if rng.random() < 0.5:
            spelling = rng.choice(spellings)
            at = rng.randint(0, len(tokens))
            tokens[at:at] = spelling
        view = TokenView(tokens)
        unguarded = any(view.find(cue) is not None for cue in cues)
        assert revision.dontcare_expressed(view) == unguarded, tokens
        found += unguarded
    for spelling in spellings:
        view = TokenView(["well", *spelling, "thanks"])
        assert revision.dontcare_expressed(view) == any(
            view.find(cue) is not None for cue in cues), spelling
    assert revision.dontcare_expressed(TokenView(["donotcare"]))
    assert 1000 < found < 5000


def _reference_active_domains(view, context):
    """Each domain's keywords in turn, as `_active_domains` looked them up before its map."""
    found = {}
    for domain, keywords in revision._DOMAIN_KEYWORDS.items():
        for kw in keywords:
            if kw in view.at:
                pos = view.at[kw][0]
                if domain not in found or pos < found[domain]:
                    found[domain] = pos
    ordered = [d for d, _ in sorted(found.items(), key=lambda kv: kv[1])]
    for past in reversed(context):
        for domain in reversed(past.belief.task_domains()):
            if domain not in ordered:
                ordered.append(domain)
            break
    return ordered


def test_active_domains_keyword_map_equals_per_domain_scan(aux):
    keywords = [kw for kws in revision._DOMAIN_KEYWORDS.values() for kw in kws]
    assert len(revision._KEYWORD_DOMAIN) == len(keywords)  # no keyword names two domains
    rng = make_rng(31)
    contexts = [[], [turn("a hotel", {"hotel": {"area": "north"}})],
                [turn("x", {"train": {}}), turn("y", {"restaurant": {"food": "thai"}})]]
    for _ in range(3000):
        tokens = rng.choices(keywords + ["i", "need", "a", "the"], k=rng.randint(0, 8))
        view, context = TokenView(tokens), rng.choice(contexts)
        assert aux._active_domains(view, context) == _reference_active_domains(view, context)


def _reference_predict_belief(aux, context, view):
    """`LexicalAuxPredictor.predict_belief` as it walked every token in each cue pass."""
    tokens = view.tokens
    domains = _reference_active_domains(view, context)
    belief = TurnBelief()

    def emit(domain, slot, value):
        if belief.get(domain, slot) is None:
            belief.set(domain, slot, value)

    for phrase, pos in aux._lexicon_hits(view):
        candidates = aux._lexicon[phrase]
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
            window = set(tokens[max(0, pos - 2): pos])
            if window & revision._DESTINATION_CUES:
                scoped = [c for c in scoped if c[1] == "destination"]
            elif window & revision._DEPARTURE_CUES:
                scoped = [c for c in scoped if c[1] == "departure"]
            else:
                continue
        emit(*scoped[0])
    for i, tok in enumerate(tokens[:-1]):
        if tok.isdigit() and tokens[i + 1] in revision._NUMBER_UNITS:
            slot = revision._NUMBER_UNITS[tokens[i + 1]]
            domain = aux._first_with_slot(domains, slot)
            if domain:
                emit(domain, slot, tok)
    for tok in tokens:
        if tok in revision._DAY_NAMES:
            domain = aux._first_with_slot(domains, "day")
            if domain:
                emit(domain, "day", tok)
    for i, tok in enumerate(tokens):
        if parse_time(tok) is None:
            continue
        window = set(tokens[max(0, i - 3): i])
        slot = None
        if window & revision._ARRIVE_CUES:
            slot = "arrive"
        elif window & revision._LEAVE_CUES:
            slot = "leave"
        if slot:
            domain = aux._first_with_slot(domains, slot)
            if domain:
                emit(domain, slot, view.surface[i])
    for slot in revision._BOOLEAN_CUES:
        domain = aux._first_with_slot(domains, slot)
        if domain is None:
            continue
        for value in ("no", "yes"):
            if revision._boolean_match(slot, value, view):
                emit(domain, slot, value)
                break
    if revision.dontcare_expressed(view) and context:
        for domain, slot in context[-1].act.slots_of("request"):
            if aux.ontology.is_informable(domain, slot):
                emit(domain, slot, "dontcare")
    return belief


_CUE_CONTEXTS = [
    [],
    [turn("a hotel please .", {"hotel": {"type": "hotel"}},
          act_triples=(("hotel", "request", "area"), ("hotel", "request", "parking")))],
    [turn("a train .", {"train": {}}, act_triples=(("train", "request", "leave"),))],
    [turn("x", {"restaurant": {"food": "thai"}}), turn("y", {"general": {}})],
    [turn("x", {"train": {}}), turn("y", {"hotel": {"area": "north"}, "general": {}})],
]


def test_aux_cue_passes_equal_a_walk_over_every_token(aux):
    """Day names, clock times with and without a leave/arrive cue, boolean cues whole,
    split ("wi fi") or negated, dontcare cues, numbers with units and domain keywords:
    the same triples in the same order as the passes that walked every token."""
    keywords = [kw for kws in revision._DOMAIN_KEYWORDS.values() for kw in kws]
    groups = [
        sorted(revision._DAY_NAMES),
        ["08:45", "13:06", "7:30", "24:10", "12:5", "9:00"],
        sorted(revision._ARRIVE_CUES | revision._LEAVE_CUES),
        ["parking", "internet", "wifi", "wi fi", "inter net", "park ing", "free"],
        sorted(revision._NEGATIONS - {"n't"}) + ["do n't", "without"],
        ["do n't care", "any", "no preference", "whatever", "does not matter"],
        ["2 people", "4 nights", "three star", "5 tickets", "2", "people", "nights"],
        keywords,
        [" ".join(p) for p in list(aux._lexicon)[:400]],
        ["i", "want", "a", "the", "to", "from", "it", "please", ",", "."],
    ]
    rng = make_rng(41)
    emitted = {}
    for _ in range(3000):
        words = [rng.choice(rng.choice(groups)) for _ in range(rng.randint(0, 14))]
        view, context = utterance_view(" ".join(words)), rng.choice(_CUE_CONTEXTS)
        assert aux._active_domains(view, context) == _reference_active_domains(view, context)
        got = aux.predict_belief(context, view)
        want = _reference_predict_belief(aux, context, view)
        assert repr(got) == repr(want), words  # the entry order too
        for _, slot, value in got.triples():
            key = value if value in ("yes", "no", "dontcare") else slot
            emitted[key] = emitted.get(key, 0) + 1
    for key in ("day", "arrive", "leave", "yes", "no", "dontcare", "people", "stay"):
        assert emitted.get(key, 0) >= 30, (key, emitted)


def _reference_merge_beliefs(gpt, aux_belief):
    """`merge_beliefs` as it copied the LLM belief and set each aux triple it lacked."""
    merged = gpt.copy()
    for domain, slot, value in aux_belief.triples():
        if merged.get(domain, slot) is None:
            merged.set(domain, slot, value)
    return merged


def _reference_revise_belief(gpt, context, utterance, aux, ontology):
    """`revise_belief` with the merge above and its fixes read from `triples()`."""
    view = utterance_view(utterance)
    aux_belief = (aux.predict_belief(context, view).admitted(ontology) if aux is not None
                  else TurnBelief())
    merged = _reference_merge_beliefs(gpt, aux_belief)
    final, dropped = revision._filter_with_drops(merged, view)
    fixes = tuple((d, s, v) for d, s, v in final.triples()
                  if s != NONE and gpt.get(d, s) is None)
    return final, fixes, tuple(dropped), aux_belief


def test_revise_belief_equals_a_merge_over_triples(ontology, aux):
    """`general` entries, domain-only mentions, aux slots that collide with LLM slots and
    domains whose every slot is dropped: the same final belief in the same entry order,
    the same drops, fixes and admitted aux belief."""
    rng = make_rng(43)
    seen = {"collision": 0, "emptied": 0, "fix": 0, "general": 0}
    for _ in range(2000):
        gpt, reply = random_belief(ontology, rng), random_belief(ontology, rng)
        for b in (gpt, reply):
            if rng.random() < 0.3:
                b.set(GENERAL_DOMAIN, NONE, NONE)
            if rng.random() < 0.3:
                b.set(rng.choice(ontology.goal_domains()), NONE, NONE)
        for d, s, _ in gpt.triples():
            if s != NONE and rng.random() < 0.4:
                reply.set(d, s, rng.choice(ontology.candidates(d, s)))
        if rng.random() < 0.2:
            reply.set("spaceship", "x", "y")  # not admitted
        values = [v for b in (gpt, reply) for _, s, v in b.triples() if s != NONE]
        words = rng.sample(values, rng.randint(0, len(values))) + ["a", "hotel", "please"]
        rng.shuffle(words)
        utterance = " ".join(words) + " ."
        context = rng.choice(_CUE_CONTEXTS)
        for helper in (ReplyAux(reply.to_dict()), aux, None):
            final, report = revise_belief(gpt, context, utterance, helper, ontology)
            want, fixes, drops, aux_belief = _reference_revise_belief(
                gpt, context, utterance, helper, ontology)
            assert repr(final) == repr(want), (gpt, reply, utterance)
            assert report.de_generation_fixes == fixes
            assert report.over_generation_drops == drops
            assert repr(report.aux_belief) == repr(aux_belief)
            assert repr(merge_beliefs(gpt, aux_belief)) == repr(
                _reference_merge_beliefs(gpt, aux_belief))
            seen["collision"] += any(
                s in gpt.entries.get(d, ()) for d, slots in aux_belief.entries.items()
                for s in slots)
            seen["emptied"] += any(d not in final.entries for d, _, _ in drops)
            seen["fix"] += bool(fixes)
            seen["general"] += GENERAL_DOMAIN in final.entries
    assert min(seen.values()) >= 200, seen


def test_revise_belief_tokenises_the_utterance_once(ontology, aux, monkeypatch):
    from dialogic import textnorm

    calls = []
    token_pairs = textnorm.token_pairs
    monkeypatch.setattr(textnorm, "token_pairs", lambda text: calls.append(text) or
                        token_pairs(text))
    utterance = "a cheap hotel in the north , leaving at 08:45 , i do n't care about parking ."
    out, _ = revise_belief(belief({"hotel": {"area": "north"}}), [], utterance, aux, ontology)
    # the aux and the filter share one view; the rest are the belief's values
    assert calls.count(utterance) == 1
    assert out.get("hotel", "area") == "north"


def test_aux_predict_act_nooffer(ontology, aux):
    act = aux.predict_act([], "", belief({"hotel": {"area": "south"}}),
                          DbResult("hotel", 0, "db_0"))
    assert act.triples == (("hotel", "nooffer", "none"),)


def test_aux_act_and_db_query_read_one_domain(ontology, aux, entity_db):
    """A two-domain belief queries its last task domain, and the aux act is built
    for that domain from the query's result, not for the first domain."""
    from dialogic.simulator import _query_db

    two = belief({"hotel": {"area": "south"}, "restaurant": {"food": "martian"}})
    db = _query_db(entity_db, two, [])
    assert db == DbResult("restaurant", 0, "db_0")
    assert entity_db.query("hotel", {"area": "south"}).count > 0
    assert aux.predict_act([], "", two, db).triples == (("restaurant", "nooffer", "none"),)


# -- external adapter ------------------------------------------------------------

def test_http_adapter_round_trip(loopback):
    handlers, asked = [], []

    def answer(request, headers):
        handlers.append(threading.current_thread())
        asked.append(request)
        if "belief" in request:
            return 200, {"act": [["hotel", "nooffer", "none"]]}, {}
        return 200, {"belief": {"hotel": {"area": "north"}}}, {}

    adapter = HttpAuxPredictor(f"{loopback(answer)}/aux")
    context = [turn("a hotel please", {"hotel": {}}, [("hotel", "request", "area")], "where ?")]
    out = adapter.predict_belief(context, utterance_view("somewhere in the north"))
    assert out.to_dict() == {"hotel": {"area": "north"}}
    # a context turn goes on the wire as in a corpus, without its DB result
    wire = asked[0]["context"]
    assert wire == [{"user": "a hotel please", "belief": {"hotel": {}},
                     "act": [["hotel", "request", "area"]], "resp": "where ?"}]
    assert list(wire[0]) == ["user", "belief", "act", "resp"]
    act = adapter.predict_act([], "x", belief({"hotel": {"area": "north"}}), NO_RESULT)
    assert act.triples == (("hotel", "nooffer", "none"),)
    # close() ends the keep-alive connection, and with it the server's handler thread
    adapter.close()
    handlers[-1].join(timeout=5)
    assert not handlers[-1].is_alive()


# replies that are JSON but not of the wire shape; each used to escape as an
# AttributeError, TypeError or ValueError, a belief value or act member that is
# not a string to be read as its str(), a reply without its key to be read as
# an empty belief or act, a slot named none to be dropped, or a second spelling
# of a slot to overwrite the first, instead of failing as an aux error
@pytest.mark.parametrize("ask, reply", [
    ("belief", []),
    ("belief", "x"),
    ("belief", {"belief": None}),
    ("belief", {"belief": [1]}),
    ("belief", {"belief": {"hotel": "south"}}),
    ("act", {"act": 5}),
    ("act", {"act": [5]}),
    ("act", {"act": [["a", "b"]]}),
    ("act", {"act": ["abc"]}),
    ("belief", {"belief": {"hotel": {"area": None}}}),
    ("belief", {"belief": {"hotel": {"stars": 3}}}),
    ("belief", {"belief": {"hotel": {"parking": True}}}),
    ("belief", {}),
    ("belief", {"beliefs": {"hotel": {"area": "north"}}}),
    ("act", {}),
    ("act", {"acts": [["hotel", "inform", "area"]]}),
    ("act", {"act": [[None, "bye", "none"]]}),
    ("act", {"act": [["general", "bye", 0]]}),
    ("belief", {"belief": {"hotel": {"none": "cheap"}}}),
    ("belief", {"belief": {"hotel": {"None": "cheap"}}}),
    ("belief", {"belief": {"hotel": {"book stay": "2", "stay": "3"}}}),
])
def test_http_adapter_rejects_malformed_reply(loopback, ask, reply):
    adapter = HttpAuxPredictor(f"{loopback(lambda request, headers: (200, reply, {}))}/aux")
    try:
        with pytest.raises(SimulationError, match="aux endpoint") as err:
            if ask == "belief":
                adapter.predict_belief([], utterance_view("somewhere in the north"))
            else:
                adapter.predict_act([], "x", belief({}), NO_RESULT)
        assert err.value.kind == "aux_error"
    finally:
        adapter.close()
