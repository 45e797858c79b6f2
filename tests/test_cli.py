import json
from pathlib import Path

import pytest

from dialogic.cli import main

from .conftest import SEED_CORPUS_PATH

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


def test_trace_file_written(tmp_path, mock_script_file):
    trace = tmp_path / "trace.jsonl"
    assert main(simulate_args(tmp_path, backend="mock", mock_script=mock_script_file,
                              trace=str(trace))) == 0
    events = [json.loads(line) for line in trace.read_text().splitlines()]
    assert len(events) == 3  # one event per turn, one turn per dialogue
    assert {"dialogue", "turn", "raw_belief", "belief", "db", "act",
            "rule_firings"} <= set(events[0])


@pytest.mark.parametrize("command", ["simulate", "augment-dst"])
@pytest.mark.parametrize("decode", [{"temperature": 3}, {"top_p": -0.1}])
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
    backend = _build_backend(args, {})
    assert backend.config.retries == HttpBackendConfig(endpoint="", model="").retries > 0


@pytest.mark.parametrize("flag", [
    ["--trace", "x"], ["--workers", "2"], ["--max-turns", "3"],
    # the same settings from a --config file
    {"trace": "t.jsonl"}, {"workers": 3}, {"max_turns": 2},
    {"trace": "t.jsonl", "workers": 3, "max_turns": 2},
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
    assert "unrecognized arguments" in err or "only apply to simulate" in err
    assert not (tmp_path / "x.json").exists()
