import threading

import pytest

from dialogic.model import (
    DialogAct,
    DialogueState,
    DbResult,
    NO_RESULT,
    SimulationError,
    Turn,
    TurnBelief,
    accumulate_state,
)
from dialogic import revision
from dialogic.revision import (
    FALLBACK_ACT,
    HttpAuxPredictor,
    merge_beliefs,
    revise_act,
    revise_belief,
    slot_value_match_filter,
    validate_act,
)

from dialogic.textnorm import TokenView

from .conftest import make_rng, random_belief
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

    def predict_belief(self, context, utterance):
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


# -- act rules -----------------------------------------------------------------

def ctx_state(entries):
    return DialogueState(entries)


def test_validate_act_no_rule_fires(ontology):
    act = DialogAct((("hotel", "request", "area"),))
    out, firings = validate_act(
        act, [], TurnBelief(), ctx_state({"hotel": {"area": "south"}}),
        DbResult("hotel", 5, "db_3"), ontology)
    assert out == act
    assert firings == []


def test_rule_drops_unpermitted_act(ontology):
    act = DialogAct((("taxi", "offerbook", "none"), ("taxi", "inform", "car"),
                     ("taxi", "inform", "food")))
    out, firings = validate_act(
        act, [], TurnBelief(), ctx_state({"taxi": {"destination": "airport"}}),
        DbResult("taxi", 0, "db_nores"), ontology)
    assert out.triples == (("taxi", "inform", "car"),)
    assert firings == [
        "permitted-acts: dropped (taxi, offerbook, none); act not permitted for domain",
        "permitted-acts: dropped (taxi, inform, food); slot not permitted for domain"]


def test_rule_nooffer_on_empty_db(ontology):
    act = DialogAct((("hotel", "offerbook", "none"),))
    out, _ = validate_act(
        act, [], TurnBelief(), ctx_state({"hotel": {"area": "south"}}),
        DbResult("hotel", 0, "db_0"), ontology)
    assert out.triples == (("hotel", "nooffer", "none"),)


def test_rule_nooffer_collapses_duplicates(ontology):
    act = DialogAct((
        ("hotel", "inform", "name"), ("hotel", "recommend", "name"),
        ("hotel", "offerbook", "none"), ("hotel", "request", "area")))
    out, _ = validate_act(
        act, [], TurnBelief(), ctx_state({"hotel": {"area": "south"}}),
        DbResult("hotel", 0, "db_0"), ontology)
    assert out.triples == (("hotel", "nooffer", "none"), ("hotel", "request", "area"))


def test_rule_offerbooked_downgraded_without_booking(ontology):
    act = DialogAct((("hotel", "offerbooked", "reference"),))
    out, firings = validate_act(
        act, [], TurnBelief(), ctx_state({"hotel": {"area": "south"}}),
        DbResult("hotel", 1, "db_1"), ontology)
    assert out.triples == (("hotel", "inform", "reference"),)
    assert any("downgraded" in f for f in firings)


def test_rule_offerbooked_kept_with_booking_slots(ontology):
    act = DialogAct((("hotel", "offerbooked", "reference"),))
    out, _ = validate_act(
        act, [], TurnBelief(), ctx_state({"hotel": {"area": "south", "stay": "2"}}),
        DbResult("hotel", 1, "db_1"), ontology)
    assert out.triples == (("hotel", "offerbooked", "reference"),)


def test_rule_offerbooked_kept_after_offerbook(ontology):
    act = DialogAct((("hotel", "offerbooked", "reference"),))
    prior = DialogAct((("hotel", "offerbook", "none"),))
    out, _ = validate_act(
        act, [turn("", {}, prior.triples)], TurnBelief(), ctx_state({"hotel": {"area": "south"}}),
        DbResult("hotel", 1, "db_1"), ontology)
    assert out.triples == (("hotel", "offerbooked", "reference"),)


def test_rule_drops_undiscussed_domain(ontology):
    act = DialogAct((("attraction", "inform", "name"), ("hotel", "request", "area")))
    out, firings = validate_act(
        act, [], TurnBelief(), ctx_state({"hotel": {"area": "south"}}),
        DbResult("hotel", 1, "db_1"), ontology)
    assert out.triples == (("hotel", "request", "area"),)
    assert any("never discussed" in f for f in firings)


def test_rule_dedupe(ontology):
    act = DialogAct((("hotel", "request", "area"), ("hotel", "request", "area")))
    out, _ = validate_act(
        act, [], TurnBelief(), ctx_state({"hotel": {"area": "south"}}),
        DbResult("hotel", 1, "db_1"), ontology)
    assert out.triples == (("hotel", "request", "area"),)


def test_empty_act_maps_to_reqmore(ontology):
    out, _ = validate_act(DialogAct(), [], TurnBelief(), ctx_state({}), NO_RESULT, ontology)
    assert out == FALLBACK_ACT


def test_validate_act_idempotent(ontology):
    rng = make_rng(14)
    rule_names = ("permitted-acts: ", "nooffer-on-empty-db: ", "offerbooked-needs-booking: ",
                  "drop-undiscussed-domains: ", "dedupe: ", "fallback: ")
    from .conftest import random_act

    state = ctx_state({"hotel": {"area": "south", "stay": "2"},
                       "train": {"day": "monday"},
                       "restaurant": {"food": "thai"},
                       "attraction": {"area": "centre"},
                       "taxi": {"destination": "airport"}})
    for _ in range(300):
        act = random_act(ontology, rng)
        db = DbResult("hotel", *rng.choice([(0, "db_0"), (1, "db_1"), (5, "db_3")]))
        once, firings = validate_act(act, [], TurnBelief(), state, db, ontology)
        twice, _ = validate_act(once, [], TurnBelief(), state, db, ontology)
        assert twice == once
        assert all(f.startswith(rule_names) for f in firings)
        assert once.validate(ontology) == []


def test_revise_act_consults_aux_on_outright_failure(ontology, aux):
    # act entirely in an undiscussed domain is wiped by the rules
    act = DialogAct((("attraction", "inform", "name"),))
    state = ctx_state({"hotel": {"area": "south", "stay": "2"}})
    out, firings, used_aux = revise_act(
        act, belief_state=state, db=DbResult("hotel", 1, "db_1"), ontology=ontology,
        aux=aux, context=[], utterance="", belief=belief({"hotel": {"area": "south"}}))
    assert used_aux
    assert not out.is_empty()
    assert out.validate(ontology) == []


def test_revise_act_keeps_valid_llm_act(ontology, aux):
    # a valid [general] [reqmore] from the LLM is no outright failure either
    for act in (DialogAct((("hotel", "request", "area"),)), FALLBACK_ACT):
        out, firings, used_aux = revise_act(
            act, belief_state=ctx_state({"hotel": {"type": "hotel"}}),
            db=DbResult("hotel", 5, "db_3"), ontology=ontology, aux=aux,
            context=[], utterance="", belief=belief({"hotel": {"type": "hotel"}}))
        assert not used_aux
        assert out == act
        assert firings == []


def test_revise_act_reads_mentioned_domains_from_context(ontology):
    # a domain-only mention adds nothing to the state, yet the domain is discussed
    earlier = turn("any attractions nearby ?", {"attraction": {}})
    now = belief({"hotel": {"area": "south"}})
    act = DialogAct((("attraction", "inform", "address"),))
    for context, kept in (([earlier], True), ([], False)):
        state = accumulate_state([t.belief for t in context] + [now])
        out, firings, _ = revise_act(
            act, belief_state=state, db=DbResult("hotel", 5, "db_3"), ontology=ontology,
            aux=None, context=context, utterance="i want the south .", belief=now)
        assert (out == act) is kept
        assert any(f.startswith("drop-undiscussed-domains") for f in firings) is not kept


# -- lexical aux predictor -------------------------------------------------------

def test_aux_act_domain_falls_back_to_earlier_turns(ontology, aux):
    # an empty belief takes the last task domain of the latest turn that names one
    hotel = turn("a hotel in the south .",
                 {"train": {"day": "monday"}, "hotel": {"area": "south"}})
    general = turn("thanks .", {"general": {}})
    db = DbResult("hotel", 5, "db_3")
    assert aux.predict_act([hotel, general], "ok .", TurnBelief(), db) == DialogAct((
        ("hotel", "inform", "choice"), ("hotel", "offerbook", "none")))
    # no turn names a task domain
    assert aux.predict_act([general], "ok .", TurnBelief(), NO_RESULT) == FALLBACK_ACT
    assert aux.predict_act([], "ok .", TurnBelief(), NO_RESULT) == FALLBACK_ACT


def test_aux_detects_values_in_active_domain(ontology, aux):
    out = aux.predict_belief([], "i need a cheap hotel in the south .")
    assert out.get("hotel", "pricerange") == "cheap"
    assert out.get("hotel", "area") == "south"
    assert out.get("hotel", "type") == "hotel"


def test_aux_uses_context_domain(ontology, aux):
    context = [turn("i need a hotel .", {"hotel": {"type": "hotel"}})]
    out = aux.predict_belief(context, "4 people for 5 nights starting tuesday .")
    assert out.get("hotel", "people") == "4"
    assert out.get("hotel", "stay") == "5"
    assert out.get("hotel", "day") == "tuesday"


def test_aux_direction_cues(ontology, aux):
    out = aux.predict_belief([], "i need a train to birmingham new street from cambridge .")
    assert out.get("train", "destination") == "birmingham new street"
    assert out.get("train", "departure") == "cambridge"


def test_aux_place_without_cue_skipped(ontology, aux):
    out = aux.predict_belief([], "trains near cambridge are nice .")
    assert out.get("train", "destination") is None
    assert out.get("train", "departure") is None


def test_aux_time_cues(ontology, aux):
    out = aux.predict_belief([], "i want a train that arrives by 13:06 .")
    assert out.get("train", "arrive") == "13:06"
    out2 = aux.predict_belief([], "the train should leave after 08:45 .")
    assert out2.get("train", "leave") == "08:45"


def test_aux_output_survives_filter(ontology, aux):
    utterances = [
        "i need a cheap guesthouse with free wifi in the north .",
        "book a thai restaurant for two people on friday .",
        "a train from cambridge to norwich leaving after 10:30 .",
        "it does not matter .",
    ]
    for utterance in utterances:
        out = aux.predict_belief([], utterance)
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


def test_revise_belief_tokenises_the_utterance_once(ontology, aux, monkeypatch):
    from dialogic import textnorm

    textnorm.utterance_view("")  # forget this thread's view of any earlier turn
    calls = []
    token_pairs = textnorm.token_pairs
    monkeypatch.setattr(textnorm, "token_pairs", lambda text: calls.append(text) or
                        token_pairs(text))
    utterance = "a cheap hotel in the north , leaving at 08:45 , i do n't care about parking ."
    out, _ = revise_belief(belief({"hotel": {"area": "north"}}), [], utterance, aux, ontology)
    assert calls == [utterance]  # the aux and the filter share one view
    assert out.get("hotel", "area") == "north"


def test_aux_predict_act_nooffer(ontology, aux):
    act = aux.predict_act([], "", belief({"hotel": {"area": "south"}}),
                          DbResult("hotel", 0, "db_0"))
    assert act.triples == (("hotel", "nooffer", "none"),)


# -- external adapter ------------------------------------------------------------

def test_http_adapter_round_trip(loopback):
    handlers = []

    def answer(request, headers):
        handlers.append(threading.current_thread())
        if "belief" in request:
            return 200, {"act": [["hotel", "nooffer", "none"]]}, {}
        return 200, {"belief": {"hotel": {"area": "north"}}}, {}

    adapter = HttpAuxPredictor(f"{loopback(answer)}/aux")
    out = adapter.predict_belief([], "somewhere in the north")
    assert out.to_dict() == {"hotel": {"area": "north"}}
    act = adapter.predict_act([], "x", belief({"hotel": {"area": "north"}}), NO_RESULT)
    assert act.triples == (("hotel", "nooffer", "none"),)
    # close() ends the keep-alive connection, and with it the server's handler thread
    adapter.close()
    handlers[-1].join(timeout=5)
    assert not handlers[-1].is_alive()


# replies that are JSON but not of the wire shape; each used to escape as an
# AttributeError, TypeError or ValueError instead of failing as an aux error
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
])
def test_http_adapter_rejects_malformed_reply(loopback, ask, reply):
    adapter = HttpAuxPredictor(f"{loopback(lambda request, headers: (200, reply, {}))}/aux")
    try:
        with pytest.raises(SimulationError, match="aux endpoint") as err:
            if ask == "belief":
                adapter.predict_belief([], "somewhere in the north")
            else:
                adapter.predict_act([], "x", belief({}), NO_RESULT)
        assert err.value.kind == "aux_error"
    finally:
        adapter.close()
