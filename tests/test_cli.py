import json
import os
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import random

import pytest

import dialogic
from dialogic.backend import MockBackend
from dialogic.cli import main
from dialogic.corpus import save_corpus
from dialogic.goals import GoalStrategy
from dialogic.model import (
    NO_RESULT,
    SOURCE_DST_AUGMENTED,
    DialogAct,
    Dialogue,
    GenConfig,
    Turn,
    TurnBelief,
    UserGoal,
)
from dialogic.simulator import simulate_batch

from .conftest import SEED_CORPUS_PATH, TRACE_SCRIPT, completion_reply, lexical_aux_server

BUNDLED_DB_DIR = Path(dialogic.__file__).parent / "data" / "db"

BYE_SCRIPT = [
    "[general]): hello , that is all .",
    "[general] [bye]): goodbye .",
]


def write_json(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


@pytest.fixture()
def mock_script_file(tmp_path):
    return write_json(tmp_path / "script.json", BYE_SCRIPT * 5)


def simulate_args(tmp_path, out_name="corpus.json", **extra):
    args = [
        "simulate",
        "--seed-corpus", SEED_CORPUS_PATH,
        "--out", str(tmp_path / out_name),
        "--rng-seed", "7",
        "--num", "3",
        "--strategy", "combination",
    ]
    for key, value in extra.items():
        args += [f"--{key.replace('_', '-')}", str(value)]
    return args


def test_simulate_with_mock_and_record(tmp_path, mock_script_file, capsys):
    transcript = tmp_path / "t.jsonl"
    code = main(simulate_args(tmp_path, backend="mock", mock_script=mock_script_file,
                              record=str(transcript)))
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["succeeded"] == 3
    assert transcript.exists()
    corpus = json.loads((tmp_path / "corpus.json").read_text())
    assert len(corpus["dialogues"]) == 3


def test_simulate_replay_determinism(tmp_path, mock_script_file):
    transcript = tmp_path / "t.jsonl"
    assert main(simulate_args(tmp_path, out_name="rec.json", backend="mock",
                              mock_script=mock_script_file, record=str(transcript))) == 0
    assert main(simulate_args(tmp_path, out_name="a.json", backend="replay",
                              transcript=str(transcript))) == 0
    assert main(simulate_args(tmp_path, out_name="b.json", backend="replay",
                              transcript=str(transcript))) == 0
    a = (tmp_path / "a.json").read_bytes()
    b = (tmp_path / "b.json").read_bytes()
    assert a == b
    assert a == (tmp_path / "rec.json").read_bytes()


def test_record_starts_a_fresh_transcript(tmp_path, mock_script_file):
    transcript = tmp_path / "t.jsonl"
    assert main(simulate_args(tmp_path, out_name="first.json", backend="mock",
                              mock_script=mock_script_file, record=str(transcript))) == 0
    other_script = write_json(tmp_path / "other.json", [
        "[general]): hi there , that is everything .", "[general] [bye]): bye now ."] * 5)
    assert main(simulate_args(tmp_path, out_name="second.json", backend="mock",
                              mock_script=other_script, record=str(transcript))) == 0
    second = (tmp_path / "second.json").read_bytes()
    assert second != (tmp_path / "first.json").read_bytes()
    assert main(simulate_args(tmp_path, out_name="replay.json", backend="replay",
                              transcript=str(transcript))) == 0
    assert (tmp_path / "replay.json").read_bytes() == second


@pytest.mark.parametrize("rejected", [{"num": 0}, {"mock_script": "bad.json"}],
                         ids=["num-zero", "mock-script-not-json"])
def test_rejected_run_leaves_an_existing_transcript(tmp_path, monkeypatch, mock_script_file,
                                                    rejected):
    monkeypatch.chdir(tmp_path)
    Path("bad.json").write_text("[", encoding="utf-8")
    transcript = tmp_path / "t.jsonl"
    options = {"backend": "mock", "mock_script": mock_script_file, "record": str(transcript)}
    assert main(simulate_args(tmp_path, **options)) == 0
    recorded = transcript.read_bytes()
    assert main(simulate_args(tmp_path, out_name="rejected.json", **{**options, **rejected})) == 2
    assert transcript.read_bytes() == recorded
    assert not (tmp_path / "rejected.json").exists()


def test_simulate_num_zero_usage_error(tmp_path, mock_script_file):
    code = main(["simulate", "--seed-corpus", SEED_CORPUS_PATH,
                 "--out", str(tmp_path / "x.json"), "--num", "0",
                 "--backend", "mock", "--mock-script", mock_script_file])
    assert code == 2


def test_simulate_missing_ontology_path(tmp_path, mock_script_file, capsys):
    code = main(simulate_args(tmp_path, backend="mock", mock_script=mock_script_file,
                              ontology=str(tmp_path / "missing.json")))
    assert code == 2
    assert "--ontology" in capsys.readouterr().err


def test_simulate_backend_failure_exit_code(tmp_path):
    empty_script = write_json(tmp_path / "empty.json", [])
    code = main(simulate_args(tmp_path, backend="mock", mock_script=empty_script))
    assert code == 3


def test_context_budget_applies_to_mock_backend(tmp_path, mock_script_file, capsys):
    code = main(simulate_args(tmp_path, backend="mock", mock_script=mock_script_file,
                              context_budget=10, num=2))
    assert code == 4
    report = json.loads(capsys.readouterr().out)
    assert report["failures"] == {"prompt_too_long": 2}


def test_simulate_config_file_with_flag_override(tmp_path, mock_script_file, capsys):
    config = write_json(tmp_path / "cfg.json", {
        "seed_corpus": SEED_CORPUS_PATH,
        "backend": "mock",
        "mock_script": mock_script_file,
        "num": 1,
        "rng_seed": 7,
        "out": str(tmp_path / "cfg_out.json"),
    })
    code = main(["simulate", "--config", config, "--num", "2"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["requested"] == 2  # flag wins over config value


def test_validate_on_simulated_corpus(tmp_path, mock_script_file, capsys):
    assert main(simulate_args(tmp_path, backend="mock", mock_script=mock_script_file)) == 0
    capsys.readouterr()
    assert main(["validate", "--corpus", str(tmp_path / "corpus.json")]) == 0


def test_validate_rejects_corrupted_belief(tmp_path, capsys):
    corpus = json.loads(Path(SEED_CORPUS_PATH).read_text("utf-8"))
    corpus["dialogues"][0]["turns"][0]["belief"]["hotel"]["pricerange"] = "expensive"
    path = write_json(tmp_path / "bad.json", corpus)
    code = main(["validate", "--corpus", path])
    assert code == 1
    out = capsys.readouterr().out
    assert "pricerange" in out and "expensive" in out
    assert "SNG01856" in out


def test_validate_seed_corpus_clean(capsys):
    assert main(["validate", "--corpus", SEED_CORPUS_PATH]) == 0


def test_validate_missing_db_dir_is_usage_error(tmp_path, capsys):
    assert main(["validate", "--corpus", SEED_CORPUS_PATH,
                 "--db-dir", str(tmp_path / "missing")]) == 2
    err = capsys.readouterr().err
    assert "--db-dir" in err
    assert "Traceback" not in err


def test_validate_with_the_bundled_db_dir_prints_what_the_default_prints(capsys):
    """The act rules read the DB `--db-dir` names; by default, the bundled one."""
    runs = []
    for extra in ([], ["--db-dir", str(BUNDLED_DB_DIR)]):
        code = main(["validate", "--corpus", SEED_CORPUS_PATH, "--json", *extra])
        runs.append((code, *capsys.readouterr()))
    assert runs[0] == runs[1]
    assert len(json.loads(runs[0][1])["warnings"]) == 4


@pytest.mark.parametrize("db,code", [
    # what the DB returns for a queryable domain whose table is missing
    ({"domain": "hotel", "count": 0, "bucket": "db_nores"}, 0),
    ({"domain": "hotel", "count": 7, "bucket": "db_0"}, 1),
])
def test_validate_checks_db_results_by_what_the_db_returns(tmp_path, capsys, db, code):
    corpus = json.loads(Path(SEED_CORPUS_PATH).read_text("utf-8"))
    corpus["dialogues"][0]["turns"][0]["db"] = db
    path = write_json(tmp_path / "db.json", corpus)
    assert main(["validate", "--corpus", path]) == code
    out = capsys.readouterr().out
    assert ("turns[0].db: bucket 'db_0' does not match count 7 (db_3)" in out) == bool(code)


def test_stats_empty_corpus(tmp_path, capsys):
    path = write_json(tmp_path / "empty.json", {"dialogues": []})
    code = main(["stats", "--corpus", path, "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["total_dialogues"] == 0
    assert payload["avg_turns"] == 0


def test_stats_table_output(capsys):
    code = main(["stats", "--corpus", SEED_CORPUS_PATH])
    assert code == 0
    out = capsys.readouterr().out
    assert "Total dialogs" in out
    assert "Uniq. 3-grams" in out


def test_stats_values_on_seed_corpus(capsys):
    assert main(["stats", "--corpus", SEED_CORPUS_PATH, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["total_dialogues"] == 3
    assert payload["total_turns"] == 18
    assert payload["avg_turns"] == 6.0


def test_augment_dst_with_mock(tmp_path, capsys):
    # one-line verbalization cannot cover every prescribed belief, so allow
    # rejections; accepted samples land in the output corpus
    script = write_json(tmp_path / "dst_script.json",
                        ["i want a cheap hotel in the south for 2 nights ."] * 200)
    code = main([
        "augment-dst", "--seed-corpus", SEED_CORPUS_PATH,
        "--out", str(tmp_path / "aug.json"), "--passes", "1",
        "--backend", "mock", "--mock-script", script,
        "--rng-seed", "5", "--retries", "0", "--json",
    ])
    report = json.loads(capsys.readouterr().out)
    assert report["requested"] == 18
    corpus = json.loads((tmp_path / "aug.json").read_text())
    if report["succeeded"]:
        assert code == 0
        assert all(d["source"] == "dst_augmented" for d in corpus["dialogues"])
    else:
        assert code == 4


def test_augment_dst_passes_upper_bound(tmp_path, capsys):
    script = write_json(tmp_path / "dst_script.json",
                        ["i want a cheap hotel in the south for 2 nights ."] * 400)
    code = main([
        "augment-dst", "--seed-corpus", SEED_CORPUS_PATH,
        "--out", str(tmp_path / "aug2.json"), "--passes", "2",
        "--backend", "mock", "--mock-script", script,
        "--rng-seed", "5", "--retries", "0", "--json",
    ])
    report = json.loads(capsys.readouterr().out)
    assert report["requested"] == 36
    assert report["succeeded"] + report["failed"] == 36
    corpus = json.loads((tmp_path / "aug2.json").read_text())
    assert len(corpus["dialogues"]) <= 36


@pytest.mark.parametrize("flag", ["--out", "--record"])
@pytest.mark.parametrize("command", ["simulate", "augment-dst"])
def test_output_in_a_missing_directory_is_usage_error_before_any_call(
        tmp_path, monkeypatch, mock_script_file, capsys, command, flag):
    calls = []
    complete = MockBackend.complete
    monkeypatch.setattr(MockBackend, "complete",
                        lambda self, req: calls.append(req) or complete(self, req))
    argv = [command, "--seed-corpus", SEED_CORPUS_PATH, "--out", str(tmp_path / "out.json"),
            "--backend", "mock", "--mock-script", mock_script_file]
    if command == "simulate":
        argv += ["--trace", str(tmp_path / "t.jsonl")]
    argv += [flag, str(tmp_path / "nodir" / "x.json")]  # a later --out overrides the first
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert flag in err
    assert "Traceback" not in err
    assert calls == []
    assert not (tmp_path / "t.jsonl").exists()
    assert not (tmp_path / "out.json").exists()


def test_augment_dst_backend_failure_exit_code(tmp_path, capsys):
    empty_script = write_json(tmp_path / "empty.json", [])
    code = main([
        "augment-dst", "--seed-corpus", SEED_CORPUS_PATH,
        "--out", str(tmp_path / "aug.json"), "--rng-seed", "5",
        "--backend", "mock", "--mock-script", empty_script, "--json",
    ])
    assert code == 3
    report = json.loads(capsys.readouterr().out)
    assert report["succeeded"] == 0
    assert report["failures"]["backend_error"] >= 1


def test_unknown_backend_kind(tmp_path, capsys):
    code = main(["simulate", "--seed-corpus", SEED_CORPUS_PATH,
                 "--out", str(tmp_path / "x.json"), "--num", "1",
                 "--backend", "warp"])
    assert code == 2


def test_validate_json_output(tmp_path, capsys):
    corpus = json.loads(Path(SEED_CORPUS_PATH).read_text("utf-8"))
    corpus["dialogues"][0]["turns"][0]["belief"]["hotel"]["stars"] = "5"
    path = write_json(tmp_path / "bad.json", corpus)
    code = main(["validate", "--corpus", path, "--json"])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["dialogues"] == 3
    assert any("stars" in v for v in payload["violations"])


def test_validate_rejects_forbidden_act(tmp_path, capsys):
    corpus = json.loads(Path(SEED_CORPUS_PATH).read_text("utf-8"))
    corpus["dialogues"][0]["turns"][0]["act"].append(["taxi", "offerbook", "none"])
    path = write_json(tmp_path / "bad.json", corpus)
    code = main(["validate", "--corpus", path, "--json"])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert any("act" in v and "offerbook" in v and "taxi" in v for v in payload["violations"])


def test_validate_warns_on_long_dialogue(tmp_path, capsys):
    corpus = json.loads(Path(SEED_CORPUS_PATH).read_text("utf-8"))
    dlg = corpus["dialogues"][2]
    filler = dict(dlg["turns"][-1])
    filler["belief"] = {"general": {}}
    filler["act"] = [["general", "reqmore", "none"]]
    filler["user"] = "anything else i wonder ."
    dlg["turns"] = dlg["turns"][:-1] + [filler] * 13 + [dlg["turns"][-1]]
    path = write_json(tmp_path / "long.json", corpus)
    code = main(["validate", "--corpus", path])
    assert code == 0  # a long seed dialogue is flagged, not rejected
    assert "exceed" in capsys.readouterr().err


def _act_rule_warnings(corpus_path, capsys):
    assert main(["validate", "--corpus", str(corpus_path), "--json"]) == 0
    return [w for w in json.loads(capsys.readouterr().out)["warnings"] if "act rules" in w]


def test_validate_reruns_no_act_rule_on_a_simulated_corpus(tmp_path, capsys, ontology, seeds,
                                                          aux, entity_db):
    """Each simulated act is what the rules returned for its turn, so a re-run changes none."""
    rng = random.Random(3)
    users = ["[hotel] area is north , stars is 4): a hotel in the north with 4 stars .",
             "[hotel] people is 2): for 2 people .", "[train] day is monday): a monday train .",
             "[general]): thanks ."]
    systems = ["[hotel] [offerbooked] reference): booked , [value_reference] .",
               "[hotel] [inform] area [inform] area): it is in the [value_area] .",
               "[taxi] [inform] car [hotel] [inform] choice): a [value_car] .", "): ok .",
               "[hotel] [frob] area [train] [offerbook]): shall i book it ?",
               "[general] [bye]): bye ."]

    def script(req):
        if req.prompt.endswith("User("):
            return rng.choice(users)
        return rng.choice(systems) if req.prompt.endswith("Assistant(") else "ok ."

    events = []
    dialogues, report = simulate_batch(
        6, GoalStrategy(), seeds, MockBackend(script), aux, entity_db, ontology,
        GenConfig(rng_seed=3), trace=events.append)
    assert report.succeeded == 6 and any(e["rule_firings"] for e in events)
    save_corpus(dialogues, tmp_path / "sim.json")
    assert _act_rule_warnings(tmp_path / "sim.json", capsys) == []


def test_validate_warns_once_per_turn_the_act_rules_would_change(tmp_path, capsys):
    corpus = {"dialogues": [{"id": "d", "goal": {"hotel": {"area": "north"}}, "turns": [
        {"user": "a hotel in the north", "belief": {"hotel": {"area": "north"}},
         "db": {"domain": "hotel", "count": 0, "bucket": "db_0"},
         "act": [["hotel", "offerbooked", "reference"]], "resp": "[value_reference] ."}]}]}
    path = write_json(tmp_path / "offerbooked.json", corpus)
    assert _act_rule_warnings(path, capsys) == [
        "d turn 0: the act rules would change the act: offerbooked-needs-booking: downgraded "
        "(hotel, offerbooked, reference) to inform; no booking context | nooffer-on-empty-db: "
        "replaced (hotel, inform, reference) with nooffer; empty db result"]


def test_validate_warns_on_the_bundled_empty_act(capsys):
    assert _act_rule_warnings(SEED_CORPUS_PATH, capsys) == [
        "PMUL1576 turn 5: the act rules would change the act: "
        "fallback: empty act mapped to (general, reqmore, none)"]


def test_validate_skips_the_act_of_a_dst_sample_s_new_turn(tmp_path, capsys, seeds):
    source = seeds.get("PMUL1576").turns
    new_turn = Turn("a place .", TurnBelief(), NO_RESULT, DialogAct(), "")
    samples = [Dialogue(id=f"dst{i}", initial_goal=UserGoal(), final_goal=UserGoal(),
                        turns=source[:i] + [new_turn], source=SOURCE_DST_AUGMENTED)
               for i in range(len(source) + 1)]
    save_corpus(samples, tmp_path / "dst.json")
    # the seed turn whose act is empty warns in each sample that holds it before its new turn
    assert _act_rule_warnings(tmp_path / "dst.json", capsys) == [
        f"dst{i} turn 5: the act rules would change the act: "
        "fallback: empty act mapped to (general, reqmore, none)" for i in range(6, len(source) + 1)]


def _turn(user, belief, act, resp, db=None):
    return {"user": user, "belief": belief, "act": act, "resp": resp, **({"db": db} if db else {})}


def test_validate_output_on_a_hand_made_corpus(tmp_path, capsys):
    """Every kind of finding at once: stdout, the stderr warnings, --json and the exit code."""
    empty = {"domain": "hotel", "count": 0, "bucket": "db_0"}
    corpus = {"dialogues": [
        {"id": "rules", "goal": {"hotel": {"area": "north"}}, "turns": [
            _turn("i want a cheap hotel in the north .",
                  {"hotel": {"pricerange": "cheap", "area": "south"}},
                  [["hotel", "offerbooked", "reference"], ["hotel", "inform", "choice"],
                   ["hotel", "inform", "choice"]], "there are [value_choice] .", empty),
            # every train slot is dropped, so is the domain; drops are reported sorted
            _turn("and a train to ely on friday .",
                  {"train": {"destination": "norwich", "day": "sunday"},
                   "hotel": {"area": "north"}},
                  [["taxi", "inform", "car"]], "a [value_car] .", empty),
            _turn("thanks , bye .", {"general": {}},
                  [["taxi", "offerbook", "none"], ["general", "bye", "none"]], "bye .")]},
        {"id": "dst", "goal": {"hotel": {"area": "north"}}, "source": SOURCE_DST_AUGMENTED,
         "turns": [
             _turn("a hotel in the north .", {"hotel": {"area": "north"}},
                   [["hotel", "offerbooked", "reference"]], "booked , [value_reference] .",
                   {"domain": "hotel", "count": 1, "bucket": "db_1"}),
             _turn("a cheap one .", {"hotel": {"pricerange": "cheap"}}, [], "")]},
    ]}
    path = write_json(tmp_path / "findings.json", corpus)
    violations = [
        "rules dialogues[0].turns[2].act: act 'offerbook' not permitted in domain 'taxi'",
        "rules turn 0: value not expressed in utterance: ('hotel', 'area', 'south')",
        "rules turn 1: value not expressed in utterance: ('hotel', 'area', 'north')",
        "rules turn 1: value not expressed in utterance: ('train', 'day', 'sunday')",
        "rules turn 1: value not expressed in utterance: ('train', 'destination', 'norwich')",
    ]
    replaced = "nooffer-on-empty-db: replaced (hotel, inform, {}) with nooffer; empty db result"
    duplicate = "dedupe: dropped duplicate ('hotel', 'nooffer', 'none')"
    downgraded = ("offerbooked-needs-booking: downgraded (hotel, offerbooked, reference) "
                  "to inform; no booking context")
    warnings = [
        "rules: 3 turns exceed the cap of 2",
        "rules turn 0: response lacks placeholder [value_reference]",
        "rules turn 0: the act rules would change the act: " + " | ".join([
            downgraded, replaced.format("reference"), replaced.format("choice"), duplicate,
            replaced.format("choice"), duplicate]),
        "rules turn 1: the act rules would change the act: drop-undiscussed-domains: dropped "
        "(taxi, inform, car); domain never discussed | "
        "fallback: empty act mapped to (general, reqmore, none)",
        "dst turn 0: the act rules would change the act: " + downgraded,
    ]
    stderr = "".join(f"warning: {w}\n" for w in warnings)
    assert main(["validate", "--corpus", path, "--max-turns", "2"]) == 1
    assert capsys.readouterr() == ("".join(v + "\n" for v in violations), stderr)
    assert main(["validate", "--corpus", path, "--max-turns", "2", "--json"]) == 1
    payload = {"dialogues": 2, "violations": violations, "warnings": warnings}
    assert capsys.readouterr() == (json.dumps(payload) + "\n", stderr)


def test_no_network_under_replay_or_mock(tmp_path, monkeypatch, mock_script_file):
    def explode(*args, **kwargs):
        raise AssertionError("network touched under an offline backend")

    import requests

    monkeypatch.setattr(requests.Session, "post", explode)
    monkeypatch.setattr(requests.Session, "get", explode)
    transcript = tmp_path / "t.jsonl"
    assert main(simulate_args(tmp_path, out_name="m.json", backend="mock",
                              mock_script=mock_script_file,
                              record=str(transcript))) == 0
    assert main(simulate_args(tmp_path, out_name="r.json", backend="replay",
                              transcript=str(transcript))) == 0


OFFLINE_IMPORTS = textwrap.dedent("""
    import sys

    def offline(step):
        assert "requests" not in sys.modules, f"{step} loaded requests"
        assert "concurrent.futures" not in sys.modules, f"{step} loaded the thread pool"

    import dialogic
    offline("import dialogic")
    from dialogic import cli
    from dialogic.backend import HttpBackendConfig, HttpCompletionBackend
    offline("import dialogic.cli")
    tmp, seeds, script, dst_script = sys.argv[1:]
    corpus = f"{tmp}/corpus.json"
    assert cli.main(["simulate", "--seed-corpus", seeds, "--out", corpus, "--num", "2",
                     "--backend", "mock", "--mock-script", script, "--rng-seed", "7"]) == 0
    offline("simulate --backend mock")
    assert cli.main(["augment-dst", "--seed-corpus", seeds, "--out", f"{tmp}/aug.json",
                     "--backend", "mock", "--mock-script", dst_script, "--rng-seed", "5"]) in (0, 4)
    offline("augment-dst --backend mock")
    assert cli.main(["validate", "--corpus", corpus]) == 0
    offline("validate")
    assert cli.main(["stats", "--corpus", corpus, "--json"]) == 0
    offline("stats")
    assert cli.main(["simulate", "--seed-corpus", seeds, "--out", f"{tmp}/pool.json", "--num", "2",
                     "--backend", "mock", "--mock-script", script, "--rng-seed", "7",
                     "--workers", "2"]) == 0
    assert "concurrent.futures" in sys.modules, "a two-worker run did not load the thread pool"
    assert "requests" not in sys.modules, "simulate --workers 2 loaded requests"
    HttpCompletionBackend(HttpBackendConfig(endpoint="http://127.0.0.1:9/v1", model="m")).close()
    assert "requests" in sys.modules, "the live backend did not load requests"
""")


def test_offline_runs_never_import_requests(tmp_path, mock_script_file):
    """A fresh interpreter loads the HTTP stack only when it builds a live backend."""
    dst_script = write_json(tmp_path / "dst_script.json",
                            ["i want a cheap hotel in the south for 2 nights ."] * 200)
    src = str(Path(dialogic.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", OFFLINE_IMPORTS, str(tmp_path), SEED_CORPUS_PATH,
         mock_script_file, dst_script],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_simulate_live_backend_over_socket(tmp_path, loopback, capsys):
    def answer(body, headers):
        user_turn = "\nAssistant" in body["stop"]
        return completion_reply(BYE_SCRIPT[0] if user_turn else BYE_SCRIPT[1])

    url = loopback(answer)
    out = tmp_path / "live.json"
    code = main_within([
        "simulate", "--seed-corpus", SEED_CORPUS_PATH, "--out", str(out),
        "--backend", "live", "--endpoint", f"{url}/v1/completions", "--model", "m",
        "--workers", "4", "--num", "4", "--rng-seed", "7"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["succeeded"] == 4
    assert len(json.loads(out.read_text())["dialogues"]) == 4
    assert main(["validate", "--corpus", str(out)]) == 0


TRACE_EVENT_KEYS = [
    "dialogue", "turn", "raw_belief", "aux_belief", "belief", "over_generation_drops",
    "de_generation_fixes", "db", "raw_act", "act", "rule_firings", "aux_act_used"]


def test_trace_file_written(tmp_path, mock_script_file):
    trace = tmp_path / "trace.jsonl"
    assert main(simulate_args(tmp_path, backend="mock", mock_script=mock_script_file,
                              trace=str(trace))) == 0
    events = [json.loads(line) for line in trace.read_text().splitlines()]
    assert len(events) == 3  # one event per turn, one turn per dialogue
    for event in events:
        assert list(event) == TRACE_EVENT_KEYS


def test_trace_file_written_only_by_a_run_that_starts(tmp_path, mock_script_file):
    trace = tmp_path / "trace.jsonl"
    trace.write_text("kept\n", encoding="utf-8")
    # more shots than seeds: rejected before any dialogue, the trace left as it was
    assert main(simulate_args(tmp_path, backend="mock", mock_script=mock_script_file,
                              n_shots=5, trace=str(trace))) == 2
    assert trace.read_text(encoding="utf-8") == "kept\n"
    # every dialogue fails before its first turn: the run starts, its trace is empty
    assert main(simulate_args(tmp_path, backend="mock", mock_script=mock_script_file,
                              context_budget=10, trace=str(trace))) == 4
    assert trace.read_text(encoding="utf-8") == ""


@pytest.mark.parametrize("command", ["simulate", "augment-dst"])
@pytest.mark.parametrize("decode", [{"temperature": 3}, {"top_p": -0.1}, {"top_p": 1.5}])
def test_out_of_range_decode_is_config_error(tmp_path, mock_script_file, capsys,
                                             command, decode):
    config = write_json(tmp_path / "cfg.json", {"decode": decode})
    code = main([command, "--config", config, "--seed-corpus", SEED_CORPUS_PATH,
                 "--out", str(tmp_path / "x.json"), "--backend", "mock",
                 "--mock-script", mock_script_file])
    assert code == 2
    assert "temperature and top_p" in capsys.readouterr().err
    assert not (tmp_path / "x.json").exists()


def test_retries_flag_leaves_http_retries_alone():
    from dialogic.backend import HttpBackendConfig
    from dialogic.cli import _build_backend, build_parser

    args = build_parser().parse_args([
        "simulate", "--backend", "live", "--endpoint", "http://localhost:9/v1",
        "--model", "m", "--retries", "0"])
    backend = _build_backend(args)
    assert backend.config.retries == HttpBackendConfig(endpoint="", model="").retries > 0


@pytest.mark.parametrize("flag", [
    ["--trace", "x"], ["--db-dir", "db"], ["--max-turns", "3"],
    # the same settings from a --config file
    {"trace": "t.jsonl"}, {"db_dir": "db"}, {"max_turns": 2},
    {"trace": "t.jsonl", "db_dir": "db", "max_turns": 2},
    # goal settings mean nothing to augment-dst, and a misspelt key is no flag
    {"max_domains": 2}, {"strategy": "random"}, {"n_shot": 5},
])
def test_simulate_only_flags_rejected_by_augment_dst(tmp_path, mock_script_file, capsys,
                                                     flag):
    if isinstance(flag, dict):
        config = tmp_path / "c.json"
        config.write_text(json.dumps(flag), encoding="utf-8")
        flag = ["--config", str(config)]
    code = main(["augment-dst", "--seed-corpus", SEED_CORPUS_PATH,
                 "--out", str(tmp_path / "x.json"), "--backend", "mock",
                 "--mock-script", mock_script_file, *flag])
    assert code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments" in err
    assert not (tmp_path / "x.json").exists()


# one reply that expresses the prescribed belief of 3 of the 18 samples at --rng-seed 7
DST_REPLY = "a train from peterborough for 5 people , and british food on tuesday ."


@pytest.mark.parametrize("flag", [["--workers", "3"], {"workers": 3}], ids=["flag", "config"])
def test_augment_dst_takes_workers(tmp_path, monkeypatch, capsys, flag):
    from dialogic import simulator

    counts = []
    run_batch = simulator._run_batch
    monkeypatch.setattr(simulator, "_run_batch", lambda ids, run, cfg, workers: (
        counts.append(workers) or run_batch(ids, run, cfg, workers)))
    script = write_json(tmp_path / "dst_script.json", [DST_REPLY] * 200)
    if isinstance(flag, dict):
        flag = ["--config", write_json(tmp_path / "c.json", flag)]
    argv = ["augment-dst", "--seed-corpus", SEED_CORPUS_PATH, "--backend", "mock",
            "--mock-script", script, "--rng-seed", "7"]
    assert main([*argv, "--out", str(tmp_path / "one.json")]) == 0
    assert main([*argv, "--out", str(tmp_path / "three.json"), *flag]) == 0
    assert counts == [1, 3]
    assert (tmp_path / "three.json").read_bytes() == (tmp_path / "one.json").read_bytes()


@pytest.mark.parametrize("command", ["simulate", "augment-dst"])
@pytest.mark.parametrize("flag", [["--workers", "0"], {"workers": 0}], ids=["flag", "config"])
def test_workers_below_one_is_usage_error(tmp_path, mock_script_file, capsys, command, flag):
    if isinstance(flag, dict):
        flag = ["--config", write_json(tmp_path / "c.json", flag)]
    assert main([command, "--seed-corpus", SEED_CORPUS_PATH, "--out", str(tmp_path / "x.json"),
                 "--backend", "mock", "--mock-script", mock_script_file, *flag]) == 2
    err = capsys.readouterr().err
    assert "--workers" in err
    assert "Traceback" not in err
    assert not (tmp_path / "x.json").exists()


def test_augment_dst_live_runs_the_configs_concurrency(tmp_path, loopback, capsys):
    """Without --workers a live augment-dst has HttpBackendConfig.concurrency calls in flight."""
    lock, full, counts = threading.Lock(), threading.Event(), {"in": 0, "peak": 0}

    def answer(body, headers):
        with lock:
            counts["in"] += 1
            counts["peak"] = max(counts["peak"], counts["in"])
            if counts["in"] >= 4:
                full.set()
        full.wait(1.0)  # so a slow runner still fills every slot once
        full.set()
        time.sleep(0.003)
        with lock:
            counts["in"] -= 1
        return completion_reply(DST_REPLY)

    url = loopback(answer)
    code = main_within([
        "augment-dst", "--seed-corpus", SEED_CORPUS_PATH, "--out", str(tmp_path / "aug.json"),
        "--backend", "live", "--endpoint", f"{url}/v1/completions", "--model", "m",
        "--rng-seed", "7", "--json"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["succeeded"] == 3
    assert counts["peak"] == 4


def main_within(argv, seconds=30.0) -> int:
    """main(argv), failing instead of hanging when it has not returned within `seconds`."""
    outcome = []

    def run():
        try:
            outcome.append(main(argv))
        except BaseException as exc:  # re-raised in the test's own thread
            outcome.append(exc)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(seconds)
    assert outcome, f"main did not return within {seconds}s"
    if isinstance(outcome[0], BaseException):
        raise outcome[0]
    return outcome[0]


LIVE = {"backend": "live", "endpoint": "http://localhost:9/v1", "model": "m"}


@pytest.mark.parametrize("setting, named", [
    ({"n_shot": 5}, "--n-shot"),  # misspelt, and no prefix of --n-shots either
    ({"out=y.json": "z"}, "out=y.json"),
    ({"decode": 5}, "--decode"),
    ({"decode": {"max_tokens": None}}, "max_tokens"),
    ({"decode": {"temp": 0.5}}, "--decode"),
    ({"n_shots": [2]}, "--n-shots"),
    ({"rs_distribution": [[1, 2]]}, "--rs-distribution"),
    ({"max_domains": 0, "strategy": "random"}, "max_domains"),
    ({"max_slots_per_domain": 0}, "max_slots_per_domain"),
    ({**LIVE, "workers": 0}, "--workers"),
    (["--retries", "-1"], "retries"),
    ({"mock_script": "ints.json"}, "--mock-script"),
    ({"context_budget": 0}, "--context-budget"),
    (["--select-temperature", "nan"], "select_temperature"),
    (["--decode", '{"frequency_penalty": NaN}'], "frequency_penalty"),
    (["--strategy", "random", "--rs-distribution", "[[1, 1, 2, NaN]]"], "--rs-distribution"),
    ({"rs_distribution": [[1, 1, 2, 1.5], [2, 1, 2, -0.5]]}, "--rs-distribution"),
    # an aux endpoint must be an http(s) URL with a host
    ({"aux_url": "ftp://127.0.0.1/aux"}, "--aux-url"),
    ({"aux_url": "localhost:8080/aux"}, "--aux-url"),
    ({"aux_url": ""}, "--aux-url"),
    (["--aux-url", "http://"], "--aux-url"),
    (["--aux-url", "https:///aux"], "--aux-url"),
    (["--aux-url", "http://[::1/aux"], "--aux-url"),
    (["--aux-url", "http://127.0.0.1:port/aux"], "--aux-url"),
    # a database file whose array holds a non-object entry
    ({"db_dir": "db"}, "hotel_db.json: entry 1 is not an object"),
    # settings the three bundled seeds are too few for
    ({"n_shots": 5}, "n_shots=5 exceeds the seed pool of 3 dialogues"),
    ({"strategy": "combination", "n_source_dialogues": 9},
     "n_source_dialogues=9 exceeds the seed pool of 3 dialogues"),
    # a count too large for an int, and an ontology whose informable values are a string
    (["--rs-distribution", "[[1e400, 4, 6, 1.0]]"], "--rs-distribution"),
    ({"rs_distribution": [[1e400, 4, 6, 1.0]]}, "--rs-distribution"),
    ({"ontology": "onto.json"}, "--ontology: domain 'hotel': informable.area"),
    # a seed with an empty goal, whose goal similarity is undefined
    ({"seed_corpus": "empty_goal.json"}, "seed dialogue 'EMPTY01' has an empty goal"),
])
def test_malformed_setting_is_usage_error(tmp_path, monkeypatch, mock_script_file, capsys,
                                          setting, named):
    monkeypatch.chdir(tmp_path)
    write_json(tmp_path / "ints.json", [1, 2])
    (tmp_path / "db").mkdir()
    write_json(tmp_path / "db" / "hotel_db.json", [{"name": "x"}, "oops"])
    write_json(tmp_path / "onto.json", {"hotel": {"informable": {"area": "north"}}})
    with open(SEED_CORPUS_PATH, encoding="utf-8") as fh:
        corpus = json.load(fh)
    corpus["dialogues"].append({"id": "EMPTY01", "goal": {}, "turns": [
        {"user": "hello .", "belief": {}, "act": [["general", "bye", "none"]], "resp": "bye ."}]})
    write_json(tmp_path / "empty_goal.json", corpus)
    config = {"seed_corpus": SEED_CORPUS_PATH, "out": "x.json", "trace": "t.jsonl",
              "backend": "mock", "mock_script": mock_script_file}
    flags = setting if isinstance(setting, list) else []
    if isinstance(setting, dict):
        config.update(setting)
    code = main_within(["simulate", "--config", write_json(tmp_path / "c.json", config), *flags])
    err = capsys.readouterr().err
    assert code == 2
    assert named in err
    assert "Traceback" not in err
    assert not (tmp_path / "x.json").exists()
    assert not (tmp_path / "t.jsonl").exists()


@pytest.mark.parametrize("flags,text,named", [
    (["--backend", "replay", "--transcript"], '{"sha256": "x"}\n', "--transcript"),
    (["--backend", "replay", "--transcript"], "[1]\n", "--transcript"),
    (["--backend", "mock", "--mock-script"], "not json\n", "--mock-script"),
], ids=["transcript-no-completion", "transcript-list", "mock-script-not-json"])
def test_malformed_backend_file_is_usage_error(tmp_path, capsys, flags, text, named):
    (tmp_path / "bad.txt").write_text(text, encoding="utf-8")
    argv = simulate_args(tmp_path) + flags + [str(tmp_path / "bad.txt")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert named in err
    assert "Traceback" not in err
    assert not (tmp_path / "corpus.json").exists()


@pytest.mark.parametrize("argv, flag", [
    (["validate", "--corpus"], "--corpus"),
    (["stats", "--corpus"], "--corpus"),
    (["augment-dst", "--backend", "mock", "--mock-script", "SCRIPT", "--seed-corpus"],
     "--seed-corpus"),
    (["validate", "--corpus", SEED_CORPUS_PATH, "--ontology"], "--ontology"),
    (["simulate", "--backend", "mock", "--mock-script", "SCRIPT", "--db-dir"], "--db-dir"),
    (["simulate", "--backend", "mock", "--mock-script"], "--mock-script"),
    (["simulate", "--backend", "replay", "--transcript"], "--transcript"),
    (["simulate", "--config"], "--config"),
], ids=["validate-corpus", "stats-corpus", "seed-corpus", "ontology", "db-dir", "mock-script",
        "transcript", "config"])
def test_non_utf8_file_names_its_flag_and_path(tmp_path, mock_script_file, capsys, argv, flag):
    """A UTF-16 file (it starts \\xff\\xfe) behind any path flag is a usage error naming both."""
    bad = tmp_path / "hotel_db.json"  # a --db-dir reads <domain>_db.json
    bad.write_bytes('[{"name": "x"}]'.encode("utf-16"))
    path = str(tmp_path if flag == "--db-dir" else bad)
    argv = [mock_script_file if arg == "SCRIPT" else arg for arg in argv] + [path]
    if argv[0] not in ("validate", "stats"):
        argv += ["--out", str(tmp_path / "x.json")]
        if flag != "--seed-corpus":
            argv += ["--seed-corpus", SEED_CORPUS_PATH]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"{flag}: " in err
    assert f"{bad}: not UTF-8" in err
    assert "Traceback" not in err
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("argv, flag", [
    (["validate", "--corpus"], "--corpus"),
    (["stats", "--corpus"], "--corpus"),
    (["augment-dst", "--backend", "mock", "--mock-script", "SCRIPT", "--seed-corpus"],
     "--seed-corpus"),
    (["validate", "--corpus", SEED_CORPUS_PATH, "--ontology"], "--ontology"),
    (["simulate", "--backend", "mock", "--mock-script", "SCRIPT", "--db-dir"], "--db-dir"),
    (["simulate", "--backend", "mock", "--mock-script"], "--mock-script"),
    (["simulate", "--config"], "--config"),
], ids=["validate-corpus", "stats-corpus", "seed-corpus", "ontology", "db-dir", "mock-script",
        "config"])
def test_non_json_file_names_its_flag_and_path(tmp_path, mock_script_file, capsys, argv, flag):
    """A UTF-8 file that is not JSON behind any JSON path flag is a usage error naming both."""
    bad = tmp_path / "hotel_db.json"  # a --db-dir reads <domain>_db.json
    bad.write_text('[{"name": "x"}\n', encoding="utf-8")
    path = str(tmp_path if flag == "--db-dir" else bad)
    argv = [mock_script_file if arg == "SCRIPT" else arg for arg in argv] + [path]
    if argv[0] not in ("validate", "stats"):
        argv += ["--out", str(tmp_path / "x.json")]
        if flag != "--seed-corpus":
            argv += ["--seed-corpus", SEED_CORPUS_PATH]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"{flag}: " in err
    with pytest.raises(json.JSONDecodeError) as exc:
        json.loads(bad.read_text(encoding="utf-8"))
    assert f"{bad}: not valid JSON ({exc.value})" in err
    assert "Traceback" not in err
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("text", [None, "{not json\n", "[1]\n"],
                         ids=["missing", "not-json", "array"])
def test_config_file_fault_is_usage_error(tmp_path, mock_script_file, capsys, text):
    config = tmp_path / "run.json"
    if text is not None:
        config.write_text(text, encoding="utf-8")
    argv = ["simulate", "--config", str(config)] + simulate_args(
        tmp_path, backend="mock", mock_script=mock_script_file)[1:]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "--config" in err
    assert "Traceback" not in err
    assert not (tmp_path / "corpus.json").exists()


@pytest.mark.parametrize("payload,place", [
    ({"dialogues": None}, "top level must be"),
    ({"dialogues": [{"id": "d", "goal": 5, "turns": []}]}, "dialogues[0].goal: must be"),
    ({"dialogues": [{"id": "d", "goal": {}, "turns": [
        {"user": "hi", "belief": {"hotel": [1]}, "act": [], "resp": "ok"}]}]},
     "dialogues[0].turns[0].belief: domain 'hotel'"),
])
@pytest.mark.parametrize("command", ["stats", "validate", "simulate"])
def test_malformed_corpus_shape_exits_2(tmp_path, mock_script_file, capsys, payload, place,
                                        command):
    path = write_json(tmp_path / "bad.json", payload)
    if command == "simulate":
        argv = simulate_args(tmp_path, backend="mock", mock_script=mock_script_file)
        argv[argv.index("--seed-corpus") + 1] = path
    else:
        argv = [command, "--corpus", path]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert place in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["stats", "validate"])
def test_second_dialogues_key_exits_2(tmp_path, capsys, command):
    """json.load would read the last list, here an empty corpus that validates clean."""
    entry = json.dumps(json.loads(Path(SEED_CORPUS_PATH).read_text("utf-8"))["dialogues"][0])
    path = tmp_path / "twice.json"
    path.write_text(f'{{"dialogues": [{entry}],\n "dialogues": []}}', encoding="utf-8")
    assert main([command, "--corpus", str(path)]) == 2
    err = capsys.readouterr().err
    assert '"dialogues" given twice (line 2 column 2)' in err
    assert "Traceback" not in err


def test_config_file_and_flags_write_identical_corpora(tmp_path, mock_script_file, capsys):
    assert main(simulate_args(tmp_path, out_name="flags.json", backend="mock",
                              mock_script=mock_script_file, n_shots=1,
                              select_temperature=0.5)) == 0
    config = write_json(tmp_path / "run.json", {
        "seed-corpus": SEED_CORPUS_PATH, "out": str(tmp_path / "config.json"),
        "rng_seed": 7, "num": 3, "strategy": "combination", "backend": "mock",
        "mock-script": mock_script_file, "n_shots": 1, "select-temperature": 0.5,
        "lenient": False, "trace": None, "json": True,
    })
    assert main(["simulate", "--config", config]) == 0
    assert (tmp_path / "config.json").read_bytes() == (tmp_path / "flags.json").read_bytes()


# -- external aux model --------------------------------------------------------

def test_simulate_aux_url_matches_in_process_aux(tmp_path, loopback):
    # the reference dialogue's lines, whose revisions take slots from the aux
    script = write_json(tmp_path / "script.json", TRACE_SCRIPT * 3)
    asked = []
    url = lexical_aux_server(loopback, asked)
    for name, extra in (("local", {}), ("remote", {"aux_url": f"{url}/aux"})):
        assert main_within(simulate_args(tmp_path, f"{name}.json", backend="mock",
                                         mock_script=script, num=2,
                                         trace=str(tmp_path / f"{name}.jsonl"), **extra)) == 0
        assert bool(asked) == (name == "remote")
    assert asked.count("belief") >= 2
    assert (tmp_path / "remote.json").read_bytes() == (tmp_path / "local.json").read_bytes()
    trace = (tmp_path / "local.jsonl").read_text()
    assert (tmp_path / "remote.jsonl").read_text() == trace
    # the aux is what added the hotel type on the first turn
    assert '"aux_belief": {"hotel": {"area": "south", "type": "hotel"}}' in trace


def test_simulate_aux_url_server_error_is_aux_error(tmp_path, loopback, mock_script_file, capsys):
    url = loopback(lambda request, headers: (500, {}, {}))
    code = main_within(simulate_args(tmp_path, backend="mock", mock_script=mock_script_file,
                                     aux_url=url))
    report = json.loads(capsys.readouterr().out)
    assert code == 4
    assert report["requested"] == 3
    assert report["failures"] == {"aux_error": 3}
