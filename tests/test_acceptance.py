"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Timing bounds are asserted with perf_counter around the checked
operation only.
"""

from __future__ import annotations

import json
import math
import re
import time

import pytest

from dialogic.backend import MockBackend, ReplayBackend, record_transcript
from dialogic.cli import main as cli_main
from dialogic.corpus import SeedDataset
from dialogic.exemplar import (
    parse_act,
    parse_belief,
    parse_goal,
    selection_probabilities,
    serialize_act,
    serialize_goal,
)
from dialogic.goals import RsDistribution, generate_goal_random
from dialogic.model import Dialogue, GenConfig, NO_RESULT, Turn, TurnBelief, UserGoal
from dialogic.revision import slot_value_match_filter
from dialogic.simulator import (
    KIND_OTHER,
    KIND_REQMORE,
    KIND_REQUEST,
    augment_dst_turn,
    generate_turn_belief,
    simulate_dialogue,
)
from dialogic.stats import combined_score, compute_stats

from .conftest import (
    SEED_CORPUS_PATH,
    TRACE_DB_BUCKETS,
    TRACE_REVISED_ACTS,
    TRACE_REVISED_BELIEFS,
    make_rng,
    random_act,
    random_belief,
    random_goal,
    run_trace_simulation,
)


def report(n: int, message: str) -> None:
    print(f"ACCEPTANCE criterion {n}: PASS - {message}")


# -- 1: end-to-end replay of the six-turn reference trace ----------------------

def test_criterion_01_trace_replay(trace_transcript, trace_pool, aux, entity_db, ontology):
    backend = ReplayBackend(trace_transcript)
    start = time.perf_counter()
    dialogue = run_trace_simulation(backend, trace_pool, aux, entity_db, ontology)
    elapsed = time.perf_counter() - start
    assert [t.belief.to_dict() for t in dialogue.turns] == TRACE_REVISED_BELIEFS
    assert [t.db.bucket for t in dialogue.turns] == TRACE_DB_BUCKETS
    assert [t.act.to_json() for t in dialogue.turns] == TRACE_REVISED_ACTS
    assert dialogue.turns[0].belief.get("hotel", "type") == "hotel"
    assert dialogue.turns[0].belief.get("hotel", "stay") is None
    assert dialogue.turns[-1].act.to_json() == [["general", "bye", "none"]]
    assert elapsed < 1.0
    report(1, f"six-turn replay reproduces all revised rows exactly ({elapsed:.3f}s)")


# -- 2: turn-level generation replay -------------------------------------------

DST_BELIEF = {"hotel": {"people": "8", "stars": "3", "stay": "2", "day": "tuesday"}}
DST_COMPLETION = (" please book me a room for 8 people on tuesday . we will be staying "
                  "for 2 nights and would like a 3-star hotel .")


def test_criterion_02_dst_replay(tmp_path, seeds, ontology):
    source, belief = seeds.get("SNG01856"), TurnBelief(DST_BELIEF)
    transcript = tmp_path / "dst.jsonl"
    recorded = record_transcript(MockBackend(DST_COMPLETION), transcript)
    augment_dst_turn(source, 2, belief, seeds, recorded, ontology, GenConfig(), make_rng(3),
                     dialogue_id="SNG01856-dst2-p1")

    backend = ReplayBackend(transcript)
    start = time.perf_counter()
    dialogue = augment_dst_turn(source, 2, belief, seeds, backend, ontology, GenConfig(),
                                make_rng(3), dialogue_id="SNG01856-dst2-p1")
    elapsed = time.perf_counter() - start
    new_turn = dialogue.turns[-1]
    assert new_turn.user_utterance == DST_COMPLETION.strip()
    assert new_turn.belief.to_dict() == DST_BELIEF
    assert slot_value_match_filter(
        new_turn.belief, new_turn.user_utterance, ontology) == new_turn.belief
    assert elapsed < 1.0
    report(2, f"turn-level replay emits the exact target completion ({elapsed:.3f}s)")


# -- 3: similarity and selection against brute-force oracles -------------------

def oracle_similarity(g1: UserGoal, g2: UserGoal) -> float:
    d1 = {d for d, _, _ in g1.triples()}
    d2 = {d for d, _, _ in g2.triples()}
    s1 = {f"{d}.{s}" for d, s, _ in g1.triples() if s != "none"}
    s2 = {f"{d}.{s}" for d, s, _ in g2.triples() if s != "none"}
    inter_d = sum(1 for d in d1 if d in d2)
    union_d = len(d1) + len(d2) - inter_d
    inter_s = sum(1 for s in s1 if s in s2)
    union_s = len(s1) + len(s2) - inter_s
    slot_part = (inter_s / union_s) if union_s else 1.0
    return (inter_d / union_d) * slot_part


def pool_of(goals):
    dialogues = []
    for i, goal in enumerate(goals):
        dialogues.append(Dialogue(
            id=f"p{i}", initial_goal=goal, final_goal=goal,
            turns=[Turn(user_utterance="hi .", belief=TurnBelief({"general": {}}),
                        db=NO_RESULT, act=parse_act("[general] [reqmore]"),
                        system_response="hello .")],
            source="seed"))
    return SeedDataset(dialogues=dialogues)


def test_criterion_03_similarity_and_selection_oracles(ontology):
    from dialogic.exemplar import goal_similarity

    rng = make_rng(303)
    start = time.perf_counter()
    for _ in range(1000):
        a, b = random_goal(ontology, rng), random_goal(ontology, rng)
        assert abs(goal_similarity(a, b) - oracle_similarity(a, b)) <= 1e-12

    pool = pool_of([random_goal(ontology, rng) for _ in range(15)])
    for _ in range(200):
        target = random_goal(ontology, rng)
        for tau in (0.01, 0.2, 1.0, 10.0):
            probs = selection_probabilities(target, pool, tau)
            weights = [oracle_similarity(target, d.final_goal) for d in pool]
            exps = [math.exp(w / tau) for w in weights]
            total = sum(exps)
            direct = [e / total for e in exps]
            got = list(probs.values())
            assert all(abs(p - q) <= 1e-12 for p, q in zip(got, direct))
            assert abs(sum(got) - 1.0) <= 1e-9
            assert got.index(max(got)) == weights.index(max(weights))
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(3, f"similarity/selection match brute-force oracles to 1e-12 ({elapsed:.2f}s)")


# -- 4: serialize/parse round-trips ---------------------------------------------

def test_criterion_04_round_trips(ontology):
    rng = make_rng(404)
    start = time.perf_counter()
    for _ in range(1000):
        goal = random_goal(ontology, rng)
        assert parse_goal(serialize_goal(goal)) == goal
    for _ in range(1000):
        belief = random_belief(ontology, rng)
        assert parse_belief(serialize_goal(belief)) == belief
    for _ in range(1000):
        act = random_act(ontology, rng)
        assert parse_act(serialize_act(act)) == act
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(4, f"3000/3000 goal/belief/act round-trips exact ({elapsed:.2f}s)")


# -- 5: filter soundness fuzz -----------------------------------------------------

ORACLE_NUMBERS = {
    "zero": "0", "one": "1", "two": "2", "three": "3", "four": "4", "five": "5",
    "six": "6", "seven": "7", "eight": "8", "nine": "9", "ten": "10",
    "eleven": "11", "twelve": "12", "thirteen": "13", "fourteen": "14",
    "fifteen": "15", "sixteen": "16", "seventeen": "17", "eighteen": "18",
    "nineteen": "19", "twenty": "20", "thirty": "30",
}

ORACLE_NEGATIONS = {"no", "not", "n't", "without", "dont", "doesnt", "isnt", "never"}

ORACLE_DONTCARE = [
    ["dontcare"], ["dont", "care"], ["do", "not", "care"], ["do", "n't", "care"],
    ["does", "not", "matter"], ["does", "n't", "matter"], ["doesnt", "matter"],
    ["not", "matter"], ["no", "preference"], ["any"], ["either"],
    ["not", "picky"], ["not", "important"], ["whatever"],
]


def oracle_tokens(text: str) -> list[str]:
    text = text.lower().replace("-", " ")
    raw = re.findall(r"\d{1,2}:\d{2}|[a-z0-9']+", text)
    out = []
    for token in raw:
        token = ORACLE_NUMBERS.get(token, token)
        m = re.fullmatch(r"0(\d:\d\d)", token)
        out.append(m.group(1) if m else token)
    return out


def oracle_subseq(tokens: list[str], phrase: list[str]) -> bool:
    n = len(phrase)
    if any(tokens[i:i + n] == phrase for i in range(len(tokens) - n + 1)):
        return True
    squeezed = "".join(phrase)
    if n > 1 and squeezed in tokens:
        return True
    if n == 1:
        return any(tokens[i] + tokens[i + 1] == squeezed for i in range(len(tokens) - 1))
    return False


def oracle_expressed(slot: str, value: str, tokens: list[str]) -> bool:
    if value == "dontcare":
        return any(oracle_subseq(tokens, cue) for cue in ORACLE_DONTCARE)
    if slot in ("parking", "internet") and value in ("yes", "no"):
        cues = ["parking"] if slot == "parking" else ["internet", "wifi"]
        hits = [i for i, t in enumerate(tokens) if t in cues]
        hits += [i for i in range(len(tokens) - 1)
                 if tokens[i] + tokens[i + 1] in cues]
        if not hits:
            return False
        def negated(i):
            return any(t in ORACLE_NEGATIONS for t in tokens[max(0, i - 3):i])
        return any(negated(i) == (value == "no") for i in hits)
    return oracle_subseq(tokens, oracle_tokens(value))


def verbalize_triple(slot: str, value: str, rng) -> str:
    if value == "dontcare":
        return rng.choice(["it does not matter", "i have no preference"])
    if slot == "parking":
        return "with free parking" if value == "yes" else "with no parking"
    if slot == "internet":
        return "with free wifi" if value == "yes" else "without internet"
    if slot == "stay":
        return rng.choice([f"for {value} nights", f"staying {value} nights"])
    if slot == "people":
        return f"for {value} people"
    if slot == "stars":
        return rng.choice([f"{value} stars", f"a {value}-star place"])
    if slot == "leave":
        return f"leaving after {value}"
    if slot == "arrive":
        return f"arriving by {value}"
    if slot == "day":
        return f"on {value}"
    return f"the {value} one"


NOISE = ("please", "thanks", "hello", "i", "would", "like", "something",
         "nice", "today", "also", "maybe", "actually")


def test_criterion_05_filter_soundness_fuzz(ontology):
    rng = make_rng(505)
    start = time.perf_counter()
    checked = 0
    for _ in range(10_000):
        belief = random_belief(ontology, rng)
        pieces = [rng.choice(NOISE) for _ in range(rng.randint(1, 4))]
        for domain, slot, value in belief.triples():
            if slot != "none" and rng.random() < 0.6:
                pieces.append(verbalize_triple(slot, value, rng))
        rng.shuffle(pieces)
        utterance = " ".join(pieces) + " ."
        kept = slot_value_match_filter(belief, utterance, ontology)
        tokens = oracle_tokens(utterance)
        for domain, slot, value in kept.triples():
            if domain == "general" or slot == "none" or value == "none":
                continue
            assert oracle_expressed(slot, value, tokens), (
                f"filter kept unexpressed triple ({domain}, {slot}, {value}) "
                f"in: {utterance}")
            checked += 1
        assert slot_value_match_filter(kept, utterance, ontology) == kept
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(5, f"10000 fuzz pairs sound ({checked} surviving triples verified, "
              f"idempotent; {elapsed:.2f}s)")


# -- 6: goal sampling distribution ------------------------------------------------

def test_criterion_06_goal_distribution(ontology):
    rng = make_rng(606)
    dist = RsDistribution()
    counts = {1: 0, 2: 0, 3: 0}
    start = time.perf_counter()
    for _ in range(10_000):
        goal = generate_goal_random(ontology, dist, rng)
        n = len(goal.domains())
        counts[n] += 1
        assert n <= 4
        assert all(len(slots) <= 6 for slots in goal.entries.values())
    elapsed = time.perf_counter() - start
    for n, expected in ((1, 0.3), (2, 0.6), (3, 0.1)):
        assert abs(counts[n] / 10_000 - expected) <= 0.02, counts
    assert elapsed < 5.0
    report(6, f"10000 goals match the 0.3/0.6/0.1 domain distribution within 2% "
              f"({counts}; {elapsed:.2f}s)")


# -- 7: combined score arithmetic --------------------------------------------------

PUBLISHED_SCORE_ROWS = [
    # (inform, success, bleu, combined) for each published row
    (37.94, 25.53, 6.40, 38.13), (46.45, 33.73, 6.96, 47.05), (49.65, 36.74, 6.90, 50.09),
    (56.81, 40.38, 12.16, 60.76), (64.93, 50.20, 12.37, 70.13), (69.44, 50.30, 12.46, 72.33),
    (55.36, 38.44, 12.25, 59.14), (60.26, 44.94, 12.85, 65.45), (68.67, 44.54, 12.82, 69.43),
    (55.96, 42.44, 7.66, 56.86), (57.96, 46.85, 8.04, 60.44), (58.96, 47.35, 7.86, 61.02),
    (74.05, 60.42, 14.71, 82.70), (72.24, 60.42, 14.91, 81.24), (77.45, 64.93, 13.98, 85.17),
    (68.17, 53.55, 13.58, 74.44), (72.07, 61.26, 15.94, 82.61), (74.67, 60.06, 14.20, 81.56),
    (57.96, 46.85, 8.04, 60.44), (59.26, 47.45, 8.30, 61.65), (62.86, 51.75, 8.16, 65.47),
    (72.24, 60.42, 14.91, 81.24), (78.76, 68.74, 15.92, 89.67), (79.96, 69.84, 15.41, 90.31),
    (72.07, 61.26, 15.94, 82.61), (78.48, 64.46, 15.22, 86.69), (77.98, 63.36, 14.39, 85.06),
    (68.67, 61.05, 10.21, 75.08), (68.38, 61.82, 10.32, 75.42), (68.97, 62.46, 10.21, 75.93),
    (80.06, 72.85, 17.87, 94.33), (79.46, 73.45, 18.52, 94.98), (80.76, 74.15, 18.72, 96.18),
    (83.88, 69.47, 16.33, 93.01), (82.88, 70.97, 19.22, 96.15), (83.08, 71.77, 18.44, 95.87),
]

# two published rows do not satisfy the formula themselves (off by 0.195 and
# 0.755); no implementation of bleu + 0.5*(inform+success) can reproduce them
INCONSISTENT_ROWS = {(64.93, 50.20, 12.37, 70.13), (74.05, 60.42, 14.71, 82.70)}


def test_criterion_07_combined_score():
    consistent = [r for r in PUBLISHED_SCORE_ROWS if r not in INCONSISTENT_ROWS]
    assert len(consistent) == 34
    # closed tolerance bound: a few published rows differ by exactly 0.01,
    # which float representation nudges past the literal constant
    for inform, success, bleu, expected in consistent:
        assert combined_score(inform, success, bleu) == pytest.approx(
            expected, abs=0.01 + 1e-9)
    # the two canonical spot rows are among them
    assert combined_score(49.65, 36.74, 6.90) == pytest.approx(50.09, abs=0.01)
    assert combined_score(80.06, 72.85, 17.87) == pytest.approx(94.33, abs=0.01)
    for inform, success, bleu, published in INCONSISTENT_ROWS:
        deviation = abs(combined_score(inform, success, bleu) - published)
        assert deviation > 0.01, "row became consistent; revisit the defect record"
    report(7, "combined score matches all 34 self-consistent published rows "
              "within 0.01 (2 rows are inconsistent in the source table itself)")


@pytest.mark.xfail(strict=True, reason=(
    "two published rows are internally inconsistent with the combined-score "
    "formula (64.93/50.20/12.37 -> 70.13 deviates 0.195; 74.05/60.42/14.71 -> "
    "82.70 deviates 0.755), so the all-rows form of this criterion is "
    "unattainable for any implementation"))
def test_criterion_07_all_rows_faithful():
    for inform, success, bleu, expected in PUBLISHED_SCORE_ROWS:
        assert combined_score(inform, success, bleu) == pytest.approx(
            expected, abs=0.01 + 1e-9)


# -- 8: corpus statistics ------------------------------------------------------------

def test_criterion_08_stats_consistency():
    published_columns = [
        (85, 616, 229, 7.25, 2.69), (85, 599, 147, 7.05, 1.73),
        (422, 3510, 1076, 8.32, 2.55), (422, 2778, 738, 6.58, 1.75),
        (843, 6634, 2203, 7.87, 2.61), (843, 5617, 1471, 6.66, 1.74),
    ]
    for dialogues, turns, domains, avg_turns, avg_domains in published_columns:
        assert round(turns / dialogues, 2) == avg_turns
        assert round(domains / dialogues, 2) == avg_domains
    assert round(599 / 85, 2) == 7.05

    # brute-force n-gram oracle on a synthetic two-dialogue corpus
    def mini(turn_texts, did):
        goal = UserGoal({"hotel": {"area": "south"}})
        turns = [Turn(user_utterance=u, belief=TurnBelief({"general": {}}),
                      db=NO_RESULT, act=parse_act(""), system_response=s)
                 for u, s in turn_texts]
        return Dialogue(id=did, initial_goal=goal, final_goal=goal, turns=turns,
                        source="seed")

    corpus = [
        mini([("a b c d e", "x y z x y"), ("a b c", "w w w w")], "m0"),
        mini([("c d e f", "z z z y")], "m1"),
    ]
    stats = compute_stats(corpus)
    tokens, trigrams = set(), set()
    for dlg in corpus:
        for turn in dlg.turns:
            for text in (turn.user_utterance, turn.system_response):
                words = text.split()
                tokens |= set(words)
                trigrams |= {tuple(words[i:i + 3]) for i in range(len(words) - 2)}
    assert stats.unique_tokens == len(tokens)
    assert stats.unique_3grams == len(trigrams)
    assert stats.avg_turns == pytest.approx(1.5)
    report(8, "published totals self-consistent to 2 d.p.; n-gram counts match "
              "the brute-force oracle exactly")


# -- 9: turn-level cardinality rules ---------------------------------------------------

def test_criterion_09_dst_rule_conformance(seeds, ontology):
    source = seeds.get("SNG01856")
    rng = make_rng(909)
    start = time.perf_counter()

    request_ctx = {(d, s) for t in source.turns[:1] for d, s, _ in t.belief.triples()}
    for _ in range(10_000):
        belief, kind = generate_turn_belief(source, 1, ontology, rng)
        assert kind == KIND_REQUEST
        slots = {s for _, s, _ in belief.triples()}
        assert belief.task_domains() == ["hotel"]
        assert "area" in slots
        fresh = {s for s in slots if s != "area" and ("hotel", s) not in request_ctx}
        assert len(fresh) >= 2

    reqmore_mentioned = {d for t in source.turns[:4] for d in t.belief.task_domains()}
    for _ in range(10_000):
        belief, kind = generate_turn_belief(source, 4, ontology, rng)
        assert kind == KIND_REQMORE
        domains = belief.task_domains()
        assert len(domains) == 1 and domains[0] not in reqmore_mentioned
        assert 1 <= belief.slot_count() <= 4

    original = set(source.turns[2].belief.entries["hotel"])
    mentioned = {s for t in source.turns[:2] for d, s, _ in t.belief.triples()
                 if d == "hotel"}
    for _ in range(10_000):
        belief, kind = generate_turn_belief(source, 2, ontology, rng)
        assert kind == KIND_OTHER
        slots = set(belief.entries["hotel"])
        assert original - slots, "must drop at least one original slot"
        added = slots - original
        assert added and not (added & mentioned)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(9, f"30000 turn-belief draws satisfy the per-kind cardinality rules "
              f"({elapsed:.2f}s)")


# -- 10: end-to-end determinism ---------------------------------------------------------

BYE_SCRIPT = [
    "[general]): hello , that is all .",
    "[general] [bye]): goodbye .",
]


def test_criterion_10_cli_determinism(tmp_path):
    script = tmp_path / "script.json"
    script.write_text(json.dumps(BYE_SCRIPT * 5), encoding="utf-8")
    transcript = tmp_path / "t.jsonl"
    base = ["simulate", "--seed-corpus", SEED_CORPUS_PATH, "--num", "5",
            "--strategy", "combination", "--rng-seed", "7"]
    assert cli_main(base + ["--backend", "mock", "--mock-script", str(script),
                            "--record", str(transcript),
                            "--out", str(tmp_path / "rec.json")]) == 0
    assert cli_main(base + ["--backend", "replay", "--transcript", str(transcript),
                            "--out", str(tmp_path / "a.json")]) == 0
    assert cli_main(base + ["--backend", "replay", "--transcript", str(transcript),
                            "--out", str(tmp_path / "b.json")]) == 0
    a = (tmp_path / "a.json").read_bytes()
    assert a == (tmp_path / "b.json").read_bytes()
    assert len(json.loads(a)["dialogues"]) == 5
    report(10, "two replayed runs of `simulate --num 5` are byte-identical")


# -- 11: turn cap termination --------------------------------------------------------------

def test_criterion_11_turn_cap(seeds, entity_db, ontology):
    def looping(req):
        if req.prompt.endswith("User("):
            return "[hotel] area is south): i want the south ."
        return "[hotel] [request] area): which area do you want ?"

    goal = UserGoal({"hotel": {"area": "south", "stay": "2"}})
    for i in range(100):
        dialogue = simulate_dialogue(goal, seeds, MockBackend(looping), None, entity_db,
                                     ontology, GenConfig(), make_rng(i))
        assert len(dialogue.turns) == 12
        assert not any(t.act.has("bye") for t in dialogue.turns)
    report(11, "100/100 non-terminating runs stop at exactly 12 turns")
