import json
import os
import subprocess
import sys
import textwrap
import threading
from pathlib import Path

import pytest

import dialogic
from dialogic.cli import main

from .conftest import SEED_CORPUS_PATH, TRACE_SCRIPT, completion_reply

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


def test_trace_file_written(tmp_path, mock_script_file):
    trace = tmp_path / "trace.jsonl"
    assert main(simulate_args(tmp_path, backend="mock", mock_script=mock_script_file,
                              trace=str(trace))) == 0
    events = [json.loads(line) for line in trace.read_text().splitlines()]
    assert len(events) == 3  # one event per turn, one turn per dialogue
    assert {"dialogue", "turn", "raw_belief", "belief", "db", "act",
            "rule_firings"} <= set(events[0])


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
    ["--trace", "x"], ["--workers", "2"], ["--max-turns", "3"],
    # the same settings from a --config file
    {"trace": "t.jsonl"}, {"workers": 3}, {"max_turns": 2},
    {"trace": "t.jsonl", "workers": 3, "max_turns": 2},
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
])
def test_malformed_setting_is_usage_error(tmp_path, monkeypatch, mock_script_file, capsys,
                                          setting, named):
    monkeypatch.chdir(tmp_path)
    write_json(tmp_path / "ints.json", [1, 2])
    (tmp_path / "db").mkdir()
    write_json(tmp_path / "db" / "hotel_db.json", [{"name": "x"}, "oops"])
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
    ({"dialogues": [{"id": "d", "goal": 5, "turns": []}]}, "dialogues[0]: goal"),
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

def lexical_aux_server(loopback, asked):
    """A loopback aux endpoint that answers as the in-process LexicalAuxPredictor."""
    from dialogic.corpus import load_seed_corpus
    from dialogic.model import NO_RESULT, DbResult, DialogAct, Turn, TurnBelief
    from dialogic.ontology import default_ontology
    from dialogic.revision import LexicalAuxPredictor

    ontology = default_ontology()
    lexical = LexicalAuxPredictor(ontology, load_seed_corpus(SEED_CORPUS_PATH, ontology))

    def answer(request, headers):
        # the wire carries no DB result for a context turn, and the lexical aux reads none
        context = [Turn(t["user"], TurnBelief.from_dict(t["belief"]), NO_RESULT,
                        DialogAct.from_triples(t["act"]), t["resp"])
                   for t in request["context"]]
        if "belief" in request:
            asked.append("act")
            act = lexical.predict_act(context, request["utterance"],
                                      TurnBelief.from_dict(request["belief"]),
                                      DbResult.from_json(request["db"]))
            return 200, {"act": act.to_json()}, {}
        asked.append("belief")
        belief = lexical.predict_belief(context, request["utterance"])
        return 200, {"belief": belief.to_dict()}, {}

    return loopback(answer)


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
