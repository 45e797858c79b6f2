"""Tests of the benchmark's own parts: data generator, scripted LLM, tracing, output.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import dialogic.simulator  # noqa: E402
from dialogic.corpus import SeedDataset, load_seed_corpus, save_corpus  # noqa: E402
from dialogic.database import load_entity_db  # noqa: E402
from dialogic.goals import GoalStrategy  # noqa: E402
from dialogic.model import GenConfig  # noqa: E402
from dialogic.ontology import load_ontology  # noqa: E402
from dialogic.revision import LexicalAuxPredictor  # noqa: E402
from dialogic.simulator import augment_corpus, simulate_batch  # noqa: E402

import metrics  # noqa: E402
import synth  # noqa: E402
import workloads  # noqa: E402
from llm import Latency, ScriptedLLM  # noqa: E402
from spans import REBOUND, Tracer, instrumented, totals  # noqa: E402


def _load(paths):
    ontology = load_ontology(paths["ontology"])
    seeds = load_seed_corpus(paths["seeds"], ontology, strict=True)
    return ontology, seeds, load_entity_db(paths["db"], ontology)


def _bundled():
    return workloads.input_paths(workloads.WORKLOADS["sim-bundled"], ROOT, 0, ROOT)


def test_synthetic_data_loads_strictly_at_the_stated_sizes(tmp_path):
    paths = synth.write_dataset(tmp_path, seed=5)
    ontology, seeds, db = _load(paths)
    assert len(seeds) == 200 and seeds.issues == []
    assert [db.size(d) for d in ("restaurant", "hotel", "attraction", "train")] == \
        [100, 30, 80, 2800]
    phrases = synth.lexicon_phrases(json.loads(paths["ontology"].read_text()))
    assert 1800 <= phrases <= 2300
    aux = LexicalAuxPredictor(ontology, seeds)
    assert len(getattr(aux, "_lexicon", range(phrases))) == phrases


def test_synthetic_data_is_a_function_of_the_seed(tmp_path):
    a = synth.write_dataset(tmp_path / "a", seed=3)
    b = synth.write_dataset(tmp_path / "b", seed=3)
    c = synth.write_dataset(tmp_path / "c", seed=4)
    assert a["seeds"].read_bytes() == b["seeds"].read_bytes()
    assert a["seeds"].read_bytes() != c["seeds"].read_bytes()


def test_every_synthetic_seed_turn_can_be_augmented(tmp_path):
    ontology, seeds, _ = _load(synth.write_dataset(tmp_path, seed=2))
    pool = SeedDataset(seeds.dialogues[:60])
    out, report = augment_corpus(pool, ScriptedLLM(), None, ontology, GenConfig(rng_seed=0))
    assert report.failures == {} and report.succeeded == report.requested == len(out)


def test_scripted_llm_output_does_not_depend_on_threads(tmp_path):
    ontology, seeds, db = _load(_bundled())
    aux = LexicalAuxPredictor(ontology, seeds)
    digests, calls = [], []
    for workers, latency in ((1, None), (2, Latency(round_trip_s=0.0005))):
        llm = ScriptedLLM(latency)
        dialogues, report = simulate_batch(
            30, GoalStrategy(), seeds, llm, aux, db, ontology, GenConfig(rng_seed=9),
            workers=workers)
        assert report.failures == {}
        save_corpus(dialogues, tmp_path / "c.json")
        digests.append((tmp_path / "c.json").read_bytes())
        calls.append(llm.stats.calls)
    assert digests[0] == digests[1] and calls[0] == calls[1]


def test_injected_faults_reach_every_revision_path():
    ontology, seeds, db = _load(_bundled())
    events = []
    llm = ScriptedLLM()
    dialogues, _ = simulate_batch(
        200, GoalStrategy(), seeds, llm, LexicalAuxPredictor(ontology, seeds), db, ontology,
        GenConfig(rng_seed=1), trace=events.append)
    turns = sum(len(d.turns) for d in dialogues)
    assert sum(len(e["over_generation_drops"]) for e in events) > 0
    assert sum(len(e["de_generation_fixes"]) for e in events) > 0
    assert sum(len(e["rule_firings"]) for e in events) > 0
    assert sum(e["aux_act_used"] for e in events) > 0
    assert llm.stats.regenerations > 0
    # more calls than two lines plus regenerations per turn: some parses were retried
    assert llm.stats.calls > 2 * turns + llm.stats.regenerations


def test_tracing_restores_names_and_computes_self_time():
    before = {(m, a): getattr(__import__(m, fromlist=[a]), a) for m, a, _ in REBOUND}
    tracer = Tracer()
    with instrumented(tracer):
        assert dialogic.simulator.revise_belief is not before[("dialogic.simulator",
                                                               "revise_belief")]
        inner = tracer.wrap("inner", lambda: None)
        tracer.wrap("outer", inner)()
    after = {(m, a): getattr(__import__(m, fromlist=[a]), a) for m, a, _ in REBOUND}
    assert after == before
    t = totals(tracer.spans)
    assert t["outer"].self_seconds == t["outer"].seconds - t["inner"].seconds


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_one_run_prints_every_metric_and_passes_its_checks():
    spec = metrics.spec()
    for trace, specs in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
        proc = _run(ROOT, "--workload", "sim-bundled", "--seed", "3", "--seconds", "0.5",
                    "--trace", trace)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert sorted(result["metrics"]) == sorted(m["name"] for m in specs)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "sim-bundled", "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
