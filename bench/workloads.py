"""The four workloads: inputs, timed set-up, timed generation, and output checks.

A run builds a fixed pool of batches from the seed (batch i uses generation
seed `batch_seed(seed, i)`) and cycles through it at least `repeats` times and
until `seconds` of generation time are measured. Counts come from the first
pass over the pool, so they repeat exactly for one seed. A rate divides the
pool's work by the sum over batches of each batch's median run time, taken in
seconds of the idle host (see HostProbe). Every repeat of a batch must
reproduce its corpus byte for byte.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import re
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from dialogic.corpus import CorpusError, load_seed_corpus, save_corpus
from dialogic.database import load_entity_db
from dialogic.goals import GoalStrategy, RsDistribution
from dialogic.model import GenConfig
from dialogic.ontology import load_ontology
from dialogic.revision import LexicalAuxPredictor, slot_value_match_filter
from dialogic.simulator import BatchReport, augment_corpus, simulate_batch

import synth
from llm import CallStats, Latency, ScriptedLLM
from spans import TracedAux, TracedBackend, TracedDb, Tracer, instrumented, totals


@dataclass(frozen=True)
class Workload:
    """How a workload runs; its `why` is in BENCHMARK.json."""

    name: str
    data: str             # "bundled" (shipped with the package) or "synthetic" (synth.py)
    strategy: str | None  # goal strategy for simulate_batch; None runs augment_corpus
    batch: int            # dialogues per simulate_batch call (augment: one pass)
    batch_s: float        # nominal seconds per batch on a 2-core x86 sandbox; sizes the pool
    repeats: int = 3      # each batch runs at least this often; rates use its median run
    workers: int = 1
    latency: Latency | None = None
    # random-goal shapes; sim-multiwoz fixes two domains so that the work per
    # dialogue, and with it the rate, varies little from one seed to the next
    goal_sizes: RsDistribution = RsDistribution()


WORKLOADS = {w.name: w for w in (
    Workload("sim-bundled",
             "bundled", "combination", batch=50, batch_s=0.2),
    Workload("sim-multiwoz",
             "synthetic", "random", batch=10, batch_s=0.3,
             goal_sizes=RsDistribution(rows=((2, 3, 4, 1.0),))),
    Workload("sim-llm-wait",
             "bundled", "combination", batch=20, batch_s=0.9, repeats=2, workers=2,
             latency=Latency()),
    Workload("augment-dst",
             "synthetic", None, batch=1, batch_s=2.8, repeats=5),
)}


def batch_seed(seed: int, index: int) -> int:
    return seed * 1_000_003 + index


def pool_size(w: Workload, seconds: float) -> int:
    return max(1, round(seconds / (w.repeats * w.batch_s)))


# ---------------------------------------------------------------------------
# host speed
# ---------------------------------------------------------------------------

# Other tenants of a shared host slow it down by up to 2x, in stretches from
# under a second to minutes, so wall-clock rates from one run to the next
# swing by a quarter or more. A fixed calibration loop, run every few backend
# calls inside a timed batch and around each set-up repeat, measures the
# slowdown as it happens; CPU-bound times are taken net of the loop's own time
# and divided by the mean slowdown. They become seconds of the idle host, on
# which the loop takes CALIBRATION_S.
CALIBRATION_S = 0.0008
_CAL_TEXT = "i am looking for a cheap hotel in the north , with free parking and for 3 people ."
_CAL_ACT = re.compile(r"\[[^\[\]]+\]|[^\s\[\]]+")


def _calibration_loop() -> None:
    """Fixed pure-Python work of the pipeline's kind: split, sets, dicts, regex, JSON."""
    counts: dict[str, int] = {}
    for i in range(80):
        tokens = f"{_CAL_TEXT} {i % 17}".split()
        counts[tokens[-1]] = counts.get(tokens[-1], 0) + len(set(tokens))
        json.dumps({"user": _CAL_TEXT, "belief": {"hotel": {"area": "north", "n": i}}})
        _CAL_ACT.findall(f"[hotel] [inform] choice [request] area {tokens[3]}")
        " ".join(t.upper() for t in tokens)


class HostProbe:
    """Samples the host's slowdown (loop time / CALIBRATION_S) while work is timed."""

    EVERY = 16  # backend calls between samples inside a batch

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0  # seconds spent in the loop, to subtract from the timed work
        self._calls = 0

    def sample(self) -> float:
        start = time.perf_counter()
        _calibration_loop()
        spent = time.perf_counter() - start
        self.spent += spent
        self.samples.append(spent / CALIBRATION_S)
        return self.samples[-1]

    def tick(self) -> None:
        """Called by the scripted backend on every request."""
        self._calls += 1
        if self._calls % self.EVERY == 0:
            self.sample()

    def idle_seconds(self, seconds: float) -> float:
        """`seconds` of timed work (including the samples taken in it) on the idle host."""
        if not self.samples:
            self.sample()
            return seconds / self.samples[-1]
        return (seconds - self.spent) / statistics.fmean(self.samples)


# ---------------------------------------------------------------------------
# inputs and set-up
# ---------------------------------------------------------------------------

def input_paths(w: Workload, root: Path, seed: int, work: Path) -> dict[str, Path]:
    """Input files for the workload; synthetic ones are written here, untimed.

    A child process writes them, so that building them adds nothing to this
    process's peak RSS.
    """
    if w.data == "bundled":
        data = root / "src" / "dialogic" / "data"
        return {"ontology": data / "ontology.json", "db": data / "db",
                "seeds": data / "seed_corpus.json"}
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    subprocess.run([sys.executable, synth.__file__, str(work / "data"), str(seed)],
                   env=env, check=True, timeout=120)
    return synth.dataset_paths(work / "data")


@dataclass
class Loaded:
    ontology: object
    seeds: object
    db: object
    aux: LexicalAuxPredictor


class SetupTimer:
    """Times the public loaders and constructors, one repeat per `run()` call.

    With `idle_host`, times are in seconds of the idle host (see HostProbe).
    """

    REPEATS = 9

    def __init__(self, paths: dict[str, Path], idle_host: bool = False):
        self.paths = paths
        self.idle_host = idle_host
        self.total: list[float] = []   # all four loaders/constructors
        self.corpus: list[float] = []  # load_seed_corpus alone

    def run(self) -> Loaded:
        probe = HostProbe()
        if self.idle_host:
            probe.sample()
        t0 = time.perf_counter()
        ontology = load_ontology(self.paths["ontology"])
        t1 = time.perf_counter()
        seeds = load_seed_corpus(self.paths["seeds"], ontology, strict=True)
        t2 = time.perf_counter()
        db = load_entity_db(self.paths["db"], ontology)
        aux = LexicalAuxPredictor(ontology, seeds)
        t3 = time.perf_counter()
        if self.idle_host:
            probe.sample()
        slowdown = statistics.fmean(probe.samples) if probe.samples else 1.0
        self.total.append((t3 - t0) / slowdown)
        self.corpus.append((t2 - t1) / slowdown)
        return Loaded(ontology, seeds, db, aux)


# ---------------------------------------------------------------------------
# batches
# ---------------------------------------------------------------------------

@dataclass
class Batch:
    index: int
    seconds: float
    succeeded: int
    turns: int
    report: BatchReport
    calls: CallStats
    sha256: str
    problems: list[str] = field(default_factory=list)


def run_batch(w: Workload, loaded: Loaded, seed: int, index: int, path: Path, *,
              tracer: Tracer | None = None, events: list | None = None,
              probe: HostProbe | None = None, check: bool = False,
              reference: bool = False) -> Batch:
    """Generate one batch and save it; only generation + save is timed.

    `events` collects the program's own per-turn trace events (simulate_batch's
    `trace=` sink). `reference` runs it single-threaded with no simulated LLM wait.
    """
    workers, latency = (1, None) if reference else (w.workers, w.latency)
    llm = ScriptedLLM(latency, tracer=tracer, probe=probe)
    backend, aux, db, save = llm, loaded.aux, loaded.db, save_corpus
    if tracer is not None:
        backend, aux, db = TracedBackend(llm, tracer), TracedAux(aux, tracer), TracedDb(db, tracer)
        save = tracer.wrap("corpus.save", save_corpus)
    cfg = GenConfig(rng_seed=batch_seed(seed, index))
    start = time.perf_counter()
    if w.strategy is None:
        dialogues, report = augment_corpus(loaded.seeds, backend, None, loaded.ontology, cfg)
    else:
        dialogues, report = simulate_batch(
            w.batch, GoalStrategy(kind=w.strategy), loaded.seeds, backend, aux, db,
            loaded.ontology, cfg, dist=w.goal_sizes, workers=workers,
            trace=events.append if events is not None else None)
    save(dialogues, path)
    seconds = time.perf_counter() - start
    turns = len(dialogues) if w.strategy is None else sum(len(d.turns) for d in dialogues)
    batch = Batch(index, seconds, len(dialogues), turns, report, llm.stats,
                  hashlib.sha256(path.read_bytes()).hexdigest())
    if check:
        batch.problems = check_batch(w, loaded, dialogues, report, path)
    return batch


def check_batch(w: Workload, loaded: Loaded, dialogues, report: BatchReport,
                path: Path) -> list[str]:
    """The output checks; each returned string is one failed check."""
    where = f"batch {path.name}"
    problems = []
    if report.succeeded + report.failed != report.requested:
        problems.append(f"{where}: succeeded + failed != requested ({report.to_json()})")
    if "config_error" in report.failures:
        problems.append(f"{where}: config_error: {report.notes[:3]}")
    try:
        reloaded = load_seed_corpus(path, loaded.ontology, strict=True)
    except CorpusError as exc:
        problems.append(f"{where}: strict reload failed: {exc}")
    else:
        if reloaded.issues or len(reloaded) != len(dialogues):
            problems.append(f"{where}: reload gave {len(reloaded)} dialogues, "
                            f"issues {reloaded.issues[:3]}")
    for dlg in dialogues:
        # simulated dialogues are revised throughout; a DST sample only in its last turn
        generated = dlg.turns if w.strategy is not None else dlg.turns[-1:]
        for turn in generated:
            if slot_value_match_filter(turn.belief, turn.user_utterance,
                                       loaded.ontology) != turn.belief:
                problems.append(f"{where}: {dlg.id}: belief {turn.belief} is not a fixpoint "
                                f"of the match filter for {turn.user_utterance!r}")
            if w.strategy is not None and (turn.act.is_empty()
                                           or turn.act.validate(loaded.ontology)):
                problems.append(f"{where}: {dlg.id}: invalid act {turn.act.triples}")
    return problems


def run_pool(w: Workload, loaded: Loaded, seed: int, pool: int, work: Path, *,
             tracer: Tracer | None = None, events: list | None = None) -> list[Batch]:
    """Every batch of the pool once, each checked."""
    return [run_batch(w, loaded, seed, i, work / f"batch-{i}.json", tracer=tracer,
                      events=events, check=True)
            for i in range(pool)]


def reference_check(w: Workload, loaded: Loaded, seed: int, first: list[Batch],
                    work: Path) -> list[str]:
    """Re-run every batch single-threaded with no LLM wait; each corpus must be identical."""
    problems = []
    for b in first:
        again = run_batch(w, loaded, seed, b.index, work / "reference.json", reference=True)
        if again.sha256 != b.sha256:
            problems.append(f"batch {b.index}: corpus differs when re-run with workers=1 and "
                            f"no wait ({b.sha256[:12]} vs {again.sha256[:12]})")
    return problems


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------

def _per(num: float, den: float) -> float:
    return num / den if den else 0.0


def _failures(batches: list[Batch]) -> dict[str, int]:
    kinds: dict[str, int] = {}
    for b in batches:
        for kind, n in b.report.failures.items():
            kinds[kind] = kinds.get(kind, 0) + n
    return kinds


def measure(w: Workload, paths: dict[str, Path], seed: int, seconds: float,
            work: Path) -> dict:
    """Untraced run: the end-to-end metrics.

    Batches of a workload without simulated LLM wait are timed in seconds of
    the idle host (see HostProbe); sim-llm-wait's time is mostly simulated
    waiting, which does not scale with host speed, so it keeps wall seconds.
    Set-up repeats are spread over the run; each replaces the loaded set, and
    frees the previous one first, so that peak RSS holds one loaded set.
    """
    timer = SetupTimer(paths, idle_host=True)

    def reload() -> Loaded:
        nonlocal loaded
        loaded = None
        gc.collect()
        return timer.run()

    loaded = None
    loaded = reload()
    pool = pool_size(w, seconds)
    first: list[Batch] = []
    runs: list[Batch] = []
    timed: dict[int, list[float]] = {}  # per batch: its runs' seconds (idle host or wall)
    wall: dict[int, list[float]] = {}   # per batch: its runs' wall seconds
    problems: list[str] = []
    spacing = max(1, (w.repeats - 1) * pool // (timer.REPEATS - 1))
    while len(runs) < w.repeats * pool or sum(b.seconds for b in runs) < seconds:
        index = len(runs) % pool
        probe = HostProbe() if w.latency is None else None
        b = run_batch(w, loaded, seed, index, work / f"batch-{index}.json", probe=probe,
                      check=len(runs) < pool)
        timed.setdefault(index, []).append(probe.idle_seconds(b.seconds) if probe else b.seconds)
        wall.setdefault(index, []).append(b.seconds)
        if len(runs) < pool:
            first.append(b)
            problems += b.problems
        elif b.sha256 != first[index].sha256:
            problems.append(f"batch {index}: corpus differs between repeated runs")
        runs.append(b)
        if len(runs) % spacing == 0 and len(timer.total) < timer.REPEATS:
            loaded = reload()
    while len(timer.total) < timer.REPEATS:
        loaded = reload()
    if w.workers > 1 or w.latency is not None:
        problems += reference_check(w, loaded, seed, first, work)

    succeeded = sum(b.succeeded for b in first)
    requested = sum(b.report.requested for b in first)
    pool_s = sum(statistics.median(v) for v in timed.values())
    metrics = {
        "dialogues_per_s": _per(succeeded, pool_s),
        "turns_per_s": _per(sum(b.turns for b in first), pool_s),
        "wall_dialogues_per_s": _per(succeeded, sum(statistics.median(v) for v in wall.values())),
        "backend_calls_per_dialogue": _per(sum(b.calls.calls for b in first), succeeded),
        "prompt_tokens_per_dialogue": _per(sum(b.calls.prompt_tokens for b in first), succeeded),
        "completion_tokens_per_dialogue": _per(
            sum(b.calls.completion_tokens for b in first), succeeded),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(timer.total),
        "failed_share": _per(requested - succeeded, requested),
    }
    return {
        "metrics": metrics, "problems": problems,
        "attempted": sum(b.report.requested for b in runs),
        "failed": sum(b.report.failed for b in runs),
        "failures": _failures(first),
        "sha256": first[0].sha256,
        "pool": len(first), "batches_run": len(runs),
        "seconds_measured": sum(b.seconds for b in runs),
    }


def _percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))] if ordered else 0.0


def trace(w: Workload, paths: dict[str, Path], seed: int, seconds: float, work: Path,
          spans_path: Path) -> dict:
    """Untraced, traced, untraced passes over the pool: the per-layer metrics."""
    timer = SetupTimer(paths)
    loaded = timer.run()
    for _ in range(timer.REPEATS - 1):
        timer.run()
    pool = pool_size(w, seconds)
    plain = run_pool(w, loaded, seed, pool, work)
    tracer, events = Tracer(), []
    with instrumented(tracer):
        traced = run_pool(w, loaded, seed, pool, work, tracer=tracer, events=events)
    plain += run_pool(w, loaded, seed, pool, work)
    problems = [p for b in plain + traced for p in b.problems]
    problems += [f"batch {a.index}: traced corpus differs from untraced"
                 for a, b in zip(plain, traced + traced) if a.sha256 != b.sha256]
    tracer.write(spans_path)

    t = totals(tracer.spans)
    ms = lambda name: t[name].seconds * 1e3 if name in t else 0.0  # noqa: E731
    self_ms = lambda name: t[name].self_seconds * 1e3 if name in t else 0.0  # noqa: E731
    count = lambda name: t[name].count if name in t else 0  # noqa: E731
    wall = sum(b.seconds for b in traced)
    dialogues = sum(b.succeeded for b in traced)
    turns = sum(b.turns for b in traced)
    samples = count("simulator.dst.augment")
    calls = sum(b.calls.calls for b in traced)
    dialogue_ms = [s.seconds * 1e3 for s in tracer.spans if s.name == "simulator.dialogue"]
    metrics = {
        "goals.generate.ms_per_dialogue": _per(ms("goals.generate"), dialogues),
        "exemplar.select.ms_per_dialogue": _per(ms("exemplar.select"), dialogues),
        "exemplar.build_prompt.ms_per_dialogue": _per(ms("exemplar.build_prompt"), dialogues),
        "exemplar.parse.ms_per_turn": _per(
            ms("exemplar.parse_user") + ms("exemplar.parse_system"), turns),
        "exemplar.parse.attempts_per_line": _per(
            count("exemplar.parse_user") + count("exemplar.parse_system"),
            2 * turns if w.strategy else 0),
        "revision.aux_belief.ms_per_turn": _per(ms("revision.aux_belief"), turns),
        "revision.revise_belief.self_ms_per_turn": _per(self_ms("revision.revise_belief"), turns),
        "revision.revise_act.ms_per_turn": _per(ms("revision.revise_act"), turns),
        "revision.match_filter.ms_per_sample": _per(ms("revision.match_filter"), samples),
        "revision.dst_accept_share": _per(dialogues if samples else 0,
                                          count("revision.match_filter")),
        "revision.over_generation_drops_per_turn": _per(
            sum(len(e["over_generation_drops"]) for e in events), turns),
        "revision.de_generation_fixes_per_turn": _per(
            sum(len(e["de_generation_fixes"]) for e in events), turns),
        "revision.act_rule_firings_per_turn": _per(
            sum(len(e["rule_firings"]) for e in events), turns),
        "revision.aux_act_share": _per(sum(e["aux_act_used"] for e in events), len(events)),
        "database.query.ms_per_call": _per(ms("database.query"), count("database.query")),
        "database.query.calls_per_turn": _per(count("database.query"), turns),
        "backend.calls_per_turn": _per(calls, turns),
        "backend.regenerations_per_turn": _per(sum(b.calls.regenerations for b in traced), turns),
        "backend.prompt_tokens_per_call": _per(sum(b.calls.prompt_tokens for b in traced), calls),
        "backend.wait_ms_per_dialogue": _per(ms("backend.wait"), dialogues),
        "backend.wait_share": _per(ms("backend.wait") / 1e3, w.workers * wall),
        "backend.inflight_mean": _per(ms("backend.complete") / 1e3, wall),
        "backend.scripted_ms_per_call": _per(ms("backend.scripted"), calls),
        "simulator.dialogue.self_ms_per_turn": _per(self_ms("simulator.dialogue"), turns),
        "simulator.accumulate_state.ms_per_turn": _per(ms("simulator.accumulate_state"), turns),
        "simulator.dialogue.ms_p50": _percentile(dialogue_ms, 0.50),
        "simulator.dialogue.ms_p95": _percentile(dialogue_ms, 0.95),
        "simulator.dst.turn_belief.ms_per_sample": _per(ms("simulator.dst.turn_belief"), samples),
        "simulator.dst.build_prompt.ms_per_sample": _per(
            ms("simulator.dst.build_prompt"), samples),
        "simulator.dst.augment.self_ms_per_sample": _per(self_ms("simulator.dst.augment"), samples),
        "textnorm.normalize.calls_per_turn": _per(count("textnorm.normalize"), turns),
        "textnorm.normalize.ms_per_turn": _per(ms("textnorm.normalize"), turns),
        "corpus.save.ms_per_dialogue": _per(ms("corpus.save"), dialogues),
        "corpus.load.ms_per_dialogue": _per(
            statistics.median(timer.corpus) * 1e3, len(loaded.seeds)),
        "trace.overhead_share": _per(2 * wall, sum(b.seconds for b in plain)) - 1.0,
    }
    return {
        "metrics": metrics, "problems": problems,
        "attempted": sum(b.report.requested for b in traced),
        "failed": sum(b.report.failed for b in traced),
        "failures": _failures(traced),
        "sha256": traced[0].sha256,
        "pool": pool, "spans": len(tracer.spans),
    }
