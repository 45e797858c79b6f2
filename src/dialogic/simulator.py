"""Dialogue simulation loop and turn-level augmentation for state tracking.

A simulation alternates completions for `User(` and `Assistant(` lines. Each
parsed annotation is revised (belief filter + act rules) and the prompt is
rewritten with the revised annotation before generation continues, so the LLM
never sees its own uncorrected errors.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable

from .backend import BackendError, CompletionBackend, CompletionRequest, ContextLengthExceeded
from .corpus import SeedDataset, similarity_key
from .database import EntityDb
# called through this module's names below: bench/spans.py rebinds them to time each layer
from .exemplar import (
    DEFAULT_TASK_DESCRIPTION,
    DST_STOPS,
    SYSTEM_OPENER,
    SYSTEM_STOPS,
    USER_OPENER,
    USER_STOPS,
    ParseError,
    build_dst_prompt,
    build_prompt,
    estimate_tokens,
    format_system_line,
    format_user_line,
    parse_system_line,
    parse_user_line,
    select_examples,
    serialize_goal,
)
from .goals import (
    GoalStrategy,
    ObservedValues,
    RsDistribution,
    STRATEGY_COMBINATION,
    STRATEGY_RANDOM,
    STRATEGY_SUBSTITUTION,
    generate_goal_combination,
    generate_goal_random,
    generate_goal_substitution,
    slot_pool,
    value_pool,
)
from .model import (
    DialogAct,
    Dialogue,
    DbResult,
    GenConfig,
    NO_RESULT,
    SOURCE_DST_AUGMENTED,
    SOURCE_SIMULATED,
    SimulationError,
    Turn,
    TurnBelief,
    UserGoal,
    accumulate_state,
)
from .ontology import Ontology
from .revision import AuxPredictor, revise_act, revise_belief, slot_value_match_filter
from .textnorm import normalize_text

TraceSink = Callable[[dict], None]


def _request_completion(backend: CompletionBackend, cfg: GenConfig, prompt: str,
                        stop: tuple[str, ...]) -> str:
    """One completion within the context budget; faults become prompt_too_long/backend_error."""
    budget = backend.context_budget
    if budget is not None and estimate_tokens(prompt) + cfg.decode.max_tokens > budget:
        raise SimulationError(
            f"prompt plus max_tokens exceed the context budget of {budget} tokens",
            kind="prompt_too_long")
    try:
        return backend.complete(CompletionRequest(prompt, cfg.decode, stop))
    except ContextLengthExceeded as exc:  # the server's own budget check
        raise SimulationError(str(exc), kind="prompt_too_long") from exc
    except BackendError as exc:
        raise SimulationError(str(exc), kind="backend_error") from exc


def _first_accepted(backend: CompletionBackend, cfg: GenConfig, prompt: str,
                    stop: tuple[str, ...], read: Callable, kind: str, failure: Callable):
    """What `read` returns for the first completion it does not refuse with ParseError."""
    for _ in range(cfg.retries + 1):
        try:
            return read(_request_completion(backend, cfg, prompt, stop))
        except ParseError as exc:
            refusal = exc
    raise SimulationError(failure(cfg.retries + 1, refusal), kind=kind)


def _query_db(db: EntityDb, belief: TurnBelief, turns: list[Turn]) -> DbResult:
    """Query the belief's last task domain under the state of `turns`, then `belief`.

    A belief that names no domain carries the previous turn's query over: it
    queries nothing on a first turn or after a turn that queried nothing. A
    general-only belief queries nothing. Later readers take the domain from the result.
    """
    state = accumulate_state([t.belief for t in turns] + [belief])  # every turn: traced per turn
    task = belief.task_domains()
    if task:
        domain = task[-1]
    elif not belief.domains() and turns and turns[-1].db != NO_RESULT:
        domain = turns[-1].db.domain
    else:
        return NO_RESULT
    return db.query(domain, state.entries.get(domain, {}))


def simulate_dialogue(goal: UserGoal, seeds: SeedDataset, backend: CompletionBackend,
                      aux: AuxPredictor | None, db: EntityDb, ontology: Ontology,
                      cfg: GenConfig, rng: random.Random, *, dialogue_id: str = "sim_0000",
                      trace: TraceSink | None = None) -> Dialogue:
    """Simulate turns until a bye or `cfg.max_turns`; each revised turn extends the prompt.

    Raw annotations are not kept on the turns: `trace` gets them, one event per turn.
    """
    examples = select_examples(goal, seeds, cfg.n_shots, cfg.select_temperature, rng)
    prompt = build_prompt(DEFAULT_TASK_DESCRIPTION, examples, goal, ontology=ontology)
    turns: list[Turn] = []

    def complete_line(opener: str, stop: tuple[str, ...], parser):
        def read(completion: str):
            annotation, text = parser(opener + completion.lstrip())
            if isinstance(annotation, TurnBelief):
                problems = annotation.validate(ontology)
                if problems:
                    raise ParseError("; ".join(problems))
            return annotation, normalize_text(text)

        return _first_accepted(
            backend, cfg, prompt + opener, stop, read, "parse_error",
            lambda n, last: f"unparseable completion after {n} attempts: {last}")

    while len(turns) < cfg.max_turns:
        raw_belief, utterance = complete_line(USER_OPENER, USER_STOPS, parse_user_line)
        belief, report = revise_belief(raw_belief, turns, utterance, aux, ontology)
        prompt += format_user_line(belief, utterance) + "\n"
        db_result = _query_db(db, belief, turns)

        raw_act, response = complete_line(SYSTEM_OPENER, SYSTEM_STOPS, parse_system_line)
        act, firings, used_aux = revise_act(raw_act, turns, belief, utterance, db_result, db, aux)
        if act != raw_act:
            regenerated = _request_completion(
                backend, cfg, prompt + format_system_line(act, ""), SYSTEM_STOPS)
            if regenerated.strip():
                response = normalize_text(regenerated)
        prompt += format_system_line(act, response) + "\n"

        turns.append(Turn(user_utterance=utterance, belief=belief, db=db_result, act=act,
                          system_response=response))
        if trace is not None:
            trace({
                "dialogue": dialogue_id,
                "turn": len(turns),
                "raw_belief": raw_belief.to_dict(),
                "aux_belief": report.aux_belief.to_dict(),
                "belief": belief.to_dict(),
                "over_generation_drops": [list(t) for t in report.over_generation_drops],
                "de_generation_fixes": [list(t) for t in report.de_generation_fixes],
                "db": db_result.to_json(),
                "raw_act": raw_act.to_json(),
                "act": act.to_json(),
                "rule_firings": firings,
                "aux_act_used": used_aux,
            })
        if act.has("bye"):
            break
    final_goal = goal.copy()
    for turn in turns:
        final_goal.fold(turn.belief)
    return Dialogue(id=dialogue_id, initial_goal=goal, final_goal=final_goal, turns=turns,
                    source=SOURCE_SIMULATED)


# ---------------------------------------------------------------------------
# turn-level generation for state-tracking augmentation
# ---------------------------------------------------------------------------

KIND_REQUEST = "request"
KIND_REQMORE = "reqmore"
KIND_OTHER = "other"


def _sample_value(ontology: Ontology, domain: str, slot: str, rng: random.Random,
                  observed: ObservedValues | None, fallback: str | None = None) -> str:
    candidates = value_pool(ontology, domain, slot, observed)
    if candidates:
        return rng.choice(candidates)
    if fallback is None:
        raise SimulationError(f"no values available for {domain}.{slot}", kind="unaugmentable")
    return fallback


def generate_turn_belief(source: Dialogue, turn_idx: int, ontology: Ontology,
                         rng: random.Random, *, cfg: GenConfig = GenConfig(),
                         observed_values: ObservedValues | None = None
                         ) -> tuple[TurnBelief, str]:
    """Pick a new turn-level belief consistent with the last system act.

    Request: answer >=1 requested slot and add >=2 unmentioned same-domain
    slots. Reqmore: open one unmentioned domain with 1-4 slots. Other: drop
    >=1 original slot and add >=1 unmentioned slot in the current domain. No
    belief holds more than `cfg.max_slots_per_domain` slots, so a request
    turn under a cap of 3 is unaugmentable.
    """
    cap = cfg.max_slots_per_domain
    if not 0 <= turn_idx < len(source.turns):
        raise SimulationError(f"turn index {turn_idx} out of range for {source.id}",
                              kind="unaugmentable")
    context = source.turns[:turn_idx]
    original = source.turns[turn_idx].belief
    last_act = context[-1].act if context else DialogAct()

    def mentioned(domain: str) -> set[str]:
        return {s for t in context for s in t.belief.entries.get(domain, ())}

    requested = [
        (d, s) for d, s in last_act.slots_of("request") if ontology.is_informable(d, s)]
    belief = TurnBelief()

    if requested:
        kind = KIND_REQUEST
        if cap < 3:
            raise SimulationError(f"{source.id} turn {turn_idx}: a request answer needs "
                                  f"3 slots, above the cap of {cap}", kind="unaugmentable")
        domain = requested[0][0]
        req_slots = list(dict.fromkeys(s for d, s in requested if d == domain))
        chosen = rng.sample(req_slots, min(rng.randint(1, len(req_slots)), cap - 2))
        pool = slot_pool(ontology, domain, observed_values,
                         mentioned(domain).union(chosen, req_slots))
        if len(pool) < 2:
            raise SimulationError(f"{source.id} turn {turn_idx}: fewer than two "
                                  f"unmentioned slots left in {domain}", kind="unaugmentable")
        n_extra = rng.randint(2, min(len(pool), cap - len(chosen)))
        for slot in chosen + rng.sample(pool, n_extra):
            belief.set(domain, slot, _sample_value(ontology, domain, slot, rng, observed_values))
    elif last_act.has("reqmore"):
        kind = KIND_REQMORE
        # `general` may be among them; it is no goal domain
        mentioned_domains = {d for t in context for d in t.belief.entries}
        fresh = [d for d in ontology.goal_domains()
                 if d not in mentioned_domains
                 and slot_pool(ontology, d, observed_values)]
        if not fresh:
            raise SimulationError(f"{source.id} turn {turn_idx}: no unmentioned domain left",
                                  kind="unaugmentable")
        domain = rng.choice(fresh)
        pool = slot_pool(ontology, domain, observed_values)
        for slot in rng.sample(pool, rng.randint(1, min(4, len(pool), cap))):
            belief.set(domain, slot, _sample_value(ontology, domain, slot, rng, observed_values))
    else:
        kind = KIND_OTHER
        # the last task domain of the original belief, else of the latest earlier turn with one
        domain = next((task[-1] for shown in (original, *(t.belief for t in reversed(context)))
                       if (task := shown.task_domains())), None)
        if domain is None:
            raise SimulationError(f"{source.id} turn {turn_idx}: no current domain",
                                  kind="unaugmentable")
        original_slots = list(original.entries.get(domain, {}))
        kept: list[str] = []
        if original_slots:  # keep at most cap - 1, leaving room for an added slot
            n_drop = rng.randint(max(1, len(original_slots) - cap + 1), len(original_slots))
            dropped = rng.sample(original_slots, n_drop)
            kept = [s for s in original_slots if s not in dropped]
        pool = slot_pool(ontology, domain, observed_values,
                         mentioned(domain).union(original_slots))
        if not pool:
            raise SimulationError(f"{source.id} turn {turn_idx}: no unmentioned slot "
                                  f"left in {domain}", kind="unaugmentable")
        n_add = rng.randint(1, min(len(pool), cap - len(kept)))
        added = rng.sample(pool, n_add)
        for slot in kept:
            belief.set(domain, slot, _sample_value(
                ontology, domain, slot, rng, observed_values,
                fallback=original.get(domain, slot)))
        for slot in added:
            belief.set(domain, slot, _sample_value(ontology, domain, slot, rng, observed_values))
    return belief, kind


def _sample_turn_demos(target: TurnBelief, seeds: SeedDataset, k: int, tau: float,
                       rng: random.Random, exclude: tuple[str, int]
                       ) -> list[tuple[Dialogue, int]]:
    index = seeds.similarity
    skip = index.turn_position(*exclude)
    available = len(index.turns.items) - (skip is not None)
    if not available:
        raise SimulationError("no seed user turns available as demonstrations",
                              kind="unaugmentable")
    drawn = index.turns.draw(similarity_key(target), min(k, available), tau, rng, skip)
    return [item for item, _, _ in drawn]


def augment_dst_turn(source: Dialogue, turn_idx: int, belief: TurnBelief, seeds: SeedDataset,
                     backend: CompletionBackend, ontology: Ontology, cfg: GenConfig,
                     rng: random.Random, *, dialogue_id: str) -> Dialogue:
    """The source's turns before `turn_idx`, then a new user turn expressing `belief`.

    The belief is fixed, so no auxiliary merge happens here: the filter only
    verifies that every prescribed value was actually expressed. Samples whose
    utterance fails that check are rejected after the retry budget.
    """
    demos = _sample_turn_demos(
        belief, seeds, cfg.n_shots, cfg.select_temperature, rng, exclude=(source.id, turn_idx))

    def read(completion: str) -> str:
        utterance = normalize_text(completion)
        if utterance and slot_value_match_filter(belief, utterance, ontology) == belief:
            return utterance
        raise ParseError("prescribed belief not expressed")

    utterance = _first_accepted(
        backend, cfg, build_dst_prompt(belief, demos, ontology), DST_STOPS, read, "rejected",
        lambda n, _: f"{source.id} turn {turn_idx}: prescribed belief "
                     f"{serialize_goal(belief)!r} not expressed within {n} attempts")
    new_turn = Turn(
        user_utterance=utterance, belief=belief, db=NO_RESULT,
        act=DialogAct(), system_response="")
    final_goal = source.final_goal.copy()
    final_goal.fold(belief)
    return Dialogue(
        id=dialogue_id,
        initial_goal=source.initial_goal,
        final_goal=final_goal,
        turns=source.turns[:turn_idx] + [new_turn],
        source=SOURCE_DST_AUGMENTED)


# ---------------------------------------------------------------------------
# batch drivers
# ---------------------------------------------------------------------------

@dataclass
class BatchReport:
    requested: int = 0
    succeeded: int = 0
    failures: dict[str, int] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def record_failure(self, kind: str, note: str) -> None:
        self.failures[kind] = self.failures.get(kind, 0) + 1
        self.notes.append(note)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def to_json(self) -> dict:
        return {
            "requested": self.requested,
            "succeeded": self.succeeded,
            "failed": self.failed,
            "failures": dict(self.failures),
            "notes": list(self.notes),
        }


def _make_goal(strategy: GoalStrategy, dist: RsDistribution, seeds: SeedDataset,
               ontology: Ontology, cfg: GenConfig, rng: random.Random,
               observed: ObservedValues | None) -> UserGoal:
    if strategy.kind == STRATEGY_RANDOM:
        return generate_goal_random(ontology, dist, rng, cfg=cfg, observed_values=observed)
    if strategy.kind == STRATEGY_SUBSTITUTION:
        return generate_goal_substitution(rng.choice(list(seeds)), ontology, rng)
    goal, _ = generate_goal_combination(seeds, ontology, strategy, rng, cfg=cfg)
    return goal


def _run_batch(ids: list[str], run: Callable[[int, random.Random], Dialogue],
               cfg: GenConfig, workers: int) -> tuple[list[Dialogue], BatchReport]:
    """Run job i as `run(i, rng)` on its own rng substream and report in index order.

    One worker runs the jobs in the calling thread, more run them on a thread
    pool. A SimulationError counts under its `kind`, any other ValueError as
    config_error; any other exception propagates.
    """
    master = random.Random(cfg.rng_seed)
    run_seeds = [master.randrange(2 ** 63) for _ in ids]

    def job(index: int) -> Dialogue | tuple[str, str]:
        try:
            return run(index, random.Random(run_seeds[index]))
        # keep the kind and note only: a held traceback would pin the run's frames
        except SimulationError as exc:
            return exc.kind, f"{ids[index]}: {exc}"
        except ValueError as exc:
            return "config_error", f"{ids[index]}: {exc}"

    if workers <= 1:  # a one-worker pool would only contend with this thread for the GIL
        outcomes = [job(i) for i in range(len(ids))]
    else:
        # imported here, not with the module: a one-worker run never loads the pool's stack
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(job, i) for i in range(len(ids))]
        outcomes = [future.result() for future in futures]  # re-raises what job does not classify
    dialogues = [outcome for outcome in outcomes if isinstance(outcome, Dialogue)]
    report = BatchReport(requested=len(ids), succeeded=len(dialogues))
    for outcome in outcomes:
        if not isinstance(outcome, Dialogue):
            report.record_failure(*outcome)
    return dialogues, report


def check_batch(n: int, strategy: GoalStrategy, seeds: SeedDataset, cfg: GenConfig) -> None:
    """Raise ValueError for batch settings that no dialogue could run with."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if cfg.n_shots > len(seeds):
        raise ValueError(f"n_shots={cfg.n_shots} exceeds the seed pool of {len(seeds)} dialogues")
    for dlg in seeds:  # every dialogue's examples are drawn by goal similarity
        if dlg.final_goal.is_empty():
            raise ValueError(f"seed dialogue {dlg.id!r} has an empty goal; goal similarity "
                             "is undefined for empty goals")
    if strategy.kind == STRATEGY_COMBINATION and strategy.n_source_dialogues > len(seeds):
        raise ValueError(f"n_source_dialogues={strategy.n_source_dialogues} exceeds the seed "
                         f"pool of {len(seeds)} dialogues")


def simulate_batch(n: int, strategy: GoalStrategy, seeds: SeedDataset,
                   backend: CompletionBackend, aux: AuxPredictor | None, db: EntityDb,
                   ontology: Ontology, cfg: GenConfig, *,
                   dist: RsDistribution = RsDistribution(), workers: int | None = None,
                   trace: TraceSink | None = None) -> tuple[list[Dialogue], BatchReport]:
    """Run n simulations on their own rng substreams, `backend.concurrency` at once by default."""
    check_batch(n, strategy, seeds, cfg)
    observed = seeds.observed_values()
    ids = [f"sim_{index:04d}" for index in range(n)]

    def run(index: int, rng: random.Random) -> Dialogue:
        goal = _make_goal(strategy, dist, seeds, ontology, cfg, rng, observed)
        return simulate_dialogue(
            goal, seeds, backend, aux, db, ontology, cfg, rng,
            dialogue_id=ids[index], trace=trace)

    return _run_batch(ids, run, cfg, backend.concurrency if workers is None else workers)


def augment_corpus(seeds: SeedDataset, backend: CompletionBackend,
                   aux: AuxPredictor | None, ontology: Ontology, cfg: GenConfig, *,
                   passes: int = 1) -> tuple[list[Dialogue], BatchReport]:
    """Generate one augmented user turn per source turn per pass, `backend.concurrency` at once.

    `aux` is ignored: a DST sample's belief is prescribed, so nothing is merged.
    """
    if passes < 1:
        raise ValueError("passes must be >= 1")
    observed = seeds.observed_values()
    sources = [(dlg, turn_idx, pass_no) for pass_no in range(1, passes + 1)
               for dlg in seeds for turn_idx in range(len(dlg.turns))]
    ids = [f"{dlg.id}-dst{turn_idx}-p{pass_no}" for dlg, turn_idx, pass_no in sources]

    def run(index: int, rng: random.Random) -> Dialogue:
        dlg, turn_idx, _ = sources[index]
        belief, _ = generate_turn_belief(
            dlg, turn_idx, ontology, rng, cfg=cfg, observed_values=observed)
        return augment_dst_turn(dlg, turn_idx, belief, seeds, backend, ontology, cfg, rng,
                                dialogue_id=ids[index])

    return _run_batch(ids, run, cfg, backend.concurrency)
