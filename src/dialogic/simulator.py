"""Dialogue simulation loop and turn-level augmentation for state tracking.

A simulation alternates completions for `User(` and `Assistant(` lines. Each
parsed annotation is revised (belief filter + act rules) and the prompt is
rewritten with the revised annotation before generation continues, so the LLM
never sees its own uncorrected errors.
"""

from __future__ import annotations

import random
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

from .backend import BackendError, CompletionBackend, CompletionRequest, ContextLengthExceeded
from .corpus import SeedDataset, similarity_key
from .database import EntityDb
from .exemplar import (
    DEFAULT_TASK_DESCRIPTION,
    ParseError,
    _article,
    build_prompt,
    estimate_tokens,
    format_system_line,
    format_user_line,
    parse_system_line,
    parse_user_line,
    select_examples,
    serialize_act,
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
    current_domain,
)
from .ontology import GENERAL_DOMAIN, NONE, Ontology
from .revision import AuxPredictor, revise_act, revise_belief, slot_value_match_filter
from .textnorm import normalize_text

USER_STOPS = ("\nAssistant",)
SYSTEM_STOPS = ("\nUser", "\nInstruction")

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


class SimulationRun:
    """One dialogue simulation: its prompt and its revised turns."""

    def __init__(self, goal: UserGoal, seeds: SeedDataset, backend: CompletionBackend,
                 aux: AuxPredictor | None, db: EntityDb, ontology: Ontology,
                 cfg: GenConfig, rng: random.Random, *, dialogue_id: str = "sim_0000",
                 trace: TraceSink | None = None):
        self.goal = goal
        self.backend = backend
        self.aux = aux
        self.db = db
        self.ontology = ontology
        self.cfg = cfg
        self.rng = rng
        self.dialogue_id = dialogue_id
        self.trace = trace
        self.turns: list[Turn] = []
        examples = select_examples(goal, seeds, cfg.n_shots, cfg.select_temperature, rng)
        self.prompt = build_prompt(DEFAULT_TASK_DESCRIPTION, examples, goal, ontology=ontology)

    def _complete_line(self, prefix: str, stop: tuple[str, ...], parser):
        def read(completion: str):
            annotation, text = parser(prefix + completion.lstrip())
            if isinstance(annotation, TurnBelief):
                problems = annotation.validate(self.ontology)
                if problems:
                    raise ParseError("; ".join(problems))
            return annotation, normalize_text(text)

        return _first_accepted(
            self.backend, self.cfg, self.prompt + prefix, stop, read, "parse_error",
            lambda n, last: f"unparseable completion after {n} attempts: {last}")

    # -- the turn loop -------------------------------------------------------

    def _query_db(self, belief: TurnBelief, state) -> DbResult:
        """Query the belief's last task domain, or the previous turn's if it names no domain.

        A general-only belief, and a first turn that names no domain, query nothing.
        """
        task = belief.task_domains()
        if task:
            domain = task[-1]
        elif not belief.domains() and self.turns:
            domain = self.turns[-1].db.domain  # NO_RESULT's domain is general
        else:
            return NO_RESULT
        if domain == GENERAL_DOMAIN:
            return NO_RESULT
        return self.db.query(domain, state.entries.get(domain, {}))

    def step(self) -> Turn:
        raw_belief, utterance = self._complete_line("User(", USER_STOPS, parse_user_line)
        belief, report = revise_belief(raw_belief, self.turns, utterance, self.aux, self.ontology)
        self.prompt += format_user_line(belief, utterance) + "\n"
        state = accumulate_state([t.belief for t in self.turns] + [belief])
        db_result = self._query_db(belief, state)

        raw_act, response = self._complete_line("Assistant(", SYSTEM_STOPS, parse_system_line)
        act, firings, used_aux = revise_act(
            raw_act, self.turns, belief, utterance, state, db_result, self.ontology, self.aux)
        if act != raw_act:
            regenerated = _request_completion(
                self.backend, self.cfg, self.prompt + f"Assistant({serialize_act(act)}): ",
                SYSTEM_STOPS)
            if regenerated.strip():
                response = normalize_text(regenerated)
        self.prompt += format_system_line(act, response) + "\n"

        turn = Turn(
            user_utterance=utterance, belief=belief, db=db_result, act=act,
            system_response=response, gpt_belief=raw_belief,
            aux_belief=report.aux_belief, gpt_act=raw_act)
        self.turns.append(turn)
        if self.trace is not None:
            self.trace({
                "dialogue": self.dialogue_id,
                "turn": len(self.turns),
                "raw_belief": raw_belief.to_dict(),
                "aux_belief": report.aux_belief.to_dict() if report.aux_belief else {},
                "belief": belief.to_dict(),
                "over_generation_drops": [list(t) for t in report.over_generation_drops],
                "de_generation_fixes": [list(t) for t in report.de_generation_fixes],
                "db": db_result.to_json(),
                "raw_act": raw_act.to_json(),
                "act": act.to_json(),
                "rule_firings": firings,
                "aux_act_used": used_aux,
            })
        return turn

    def run(self) -> Dialogue:
        while len(self.turns) < self.cfg.max_turns:
            if self.step().act.has("bye"):
                break
        final_goal = self.goal.copy()
        for turn in self.turns:
            final_goal.fold(turn.belief)
        return Dialogue(
            id=self.dialogue_id, initial_goal=self.goal, final_goal=final_goal,
            turns=self.turns, source=SOURCE_SIMULATED)


def simulate_dialogue(goal: UserGoal, seeds: SeedDataset, backend: CompletionBackend,
                      aux: AuxPredictor | None, db: EntityDb, ontology: Ontology,
                      cfg: GenConfig, rng: random.Random, **kwargs) -> Dialogue:
    return SimulationRun(goal, seeds, backend, aux, db, ontology, cfg, rng, **kwargs).run()


# ---------------------------------------------------------------------------
# turn-level generation for state-tracking augmentation
# ---------------------------------------------------------------------------

KIND_REQUEST = "request"
KIND_REQMORE = "reqmore"
KIND_OTHER = "other"

DST_STOPS = ("\n",)

# slot glossary lines for the turn-level task description
_SLOT_GLOSSARY: dict[str, str] = {
    "people": "number of people for the {domain} booking",
    "stay": "length of stay at the hotel",
    "day": "day of the {domain} booking",
    "name": "name of the {domain}",
    "stars": "star rating of the hotel",
    "type": "what is the type of the {domain}, {options}",
    "area": "area of town for the {domain}",
    "pricerange": "price range of the {domain}",
    "parking": "whether the hotel has free parking",
    "internet": "whether the hotel has free wifi",
    "food": "type of food served by the restaurant",
    "departure": "place to depart from",
    "destination": "place to travel to",
    "leave": "earliest time to leave",
    "arrive": "latest time to arrive by",
    "time": "time of the {domain} booking",
    "department": "hospital department you need",
}
_LISTS_OPTIONS = frozenset(slot for slot, text in _SLOT_GLOSSARY.items() if "{options}" in text)


def _glossary_line(domain: str, slot: str, ontology: Ontology) -> str:
    # only a line that lists the options reads the candidates, which can run to
    # thousands of values; every other line is keyed on ()
    return _glossary_text(
        domain, slot, ontology.candidates(domain, slot) if slot in _LISTS_OPTIONS else ())


@lru_cache(maxsize=1024)
def _glossary_text(domain: str, slot: str, candidates: tuple[str, ...]) -> str:
    """One glossary line, built once per (domain, slot, candidates); an Ontology is unhashable."""
    template = _SLOT_GLOSSARY.get(slot, "the {slot} of the {domain}")
    options = ", ".join(candidates)
    text = template.format(domain=domain, slot=slot, options=options or "any value")
    return f"{slot}: {text};"


@dataclass(frozen=True)
class DstAugSpec:
    """A prescribed turn-level belief to verbalize in place of a source turn."""

    source: Dialogue
    turn_idx: int
    kind: str
    belief: TurnBelief


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
    >=1 original slot and add >=1 unmentioned slot in the current domain.
    """
    if not 0 <= turn_idx < len(source.turns):
        raise SimulationError(f"turn index {turn_idx} out of range for {source.id}",
                              kind="unaugmentable")
    context = source.turns[:turn_idx]
    original = source.turns[turn_idx].belief
    last_act = context[-1].act if context else DialogAct()
    mentioned = {
        (d, s) for t in context for d, s, _ in t.belief.triples() if s != NONE}
    mentioned_domains = {d for t in context for d in t.belief.task_domains()}

    requested = [
        (d, s) for d, s in last_act.slots_of("request") if ontology.is_informable(d, s)]
    belief = TurnBelief()

    if requested:
        kind = KIND_REQUEST
        domain = requested[0][0]
        req_slots = list(dict.fromkeys(s for d, s in requested if d == domain))
        n_req = min(rng.randint(1, len(req_slots)), cfg.max_slots_per_domain - 2)
        chosen = rng.sample(req_slots, max(1, n_req))
        pool = slot_pool(ontology, domain, observed_values, set(chosen) | set(req_slots)
                         | {s for d, s in mentioned if d == domain})
        if len(pool) < 2:
            raise SimulationError(f"{source.id} turn {turn_idx}: fewer than two "
                                  f"unmentioned slots left in {domain}", kind="unaugmentable")
        n_extra = rng.randint(2, min(len(pool), max(2, cfg.max_slots_per_domain - len(chosen))))
        for slot in chosen + rng.sample(pool, n_extra):
            belief.set(domain, slot, _sample_value(ontology, domain, slot, rng, observed_values))
    elif last_act.has("reqmore"):
        kind = KIND_REQMORE
        fresh = [d for d in ontology.goal_domains()
                 if d not in mentioned_domains
                 and slot_pool(ontology, d, observed_values)]
        if not fresh:
            raise SimulationError(f"{source.id} turn {turn_idx}: no unmentioned domain left",
                                  kind="unaugmentable")
        domain = rng.choice(fresh)
        pool = slot_pool(ontology, domain, observed_values)
        for slot in rng.sample(pool, rng.randint(1, min(4, len(pool)))):
            belief.set(domain, slot, _sample_value(ontology, domain, slot, rng, observed_values))
    else:
        kind = KIND_OTHER
        domain = current_domain(original, context)
        if domain is None:
            raise SimulationError(f"{source.id} turn {turn_idx}: no current domain",
                                  kind="unaugmentable")
        original_slots = list(original.entries.get(domain, {}))
        kept: list[str] = []
        if original_slots:
            dropped = rng.sample(original_slots, rng.randint(1, len(original_slots)))
            kept = [s for s in original_slots if s not in dropped]
        pool = slot_pool(ontology, domain, observed_values,
                         set(original_slots) | {s for d, s in mentioned if d == domain})
        if not pool:
            raise SimulationError(f"{source.id} turn {turn_idx}: no unmentioned slot "
                                  f"left in {domain}", kind="unaugmentable")
        n_add = rng.randint(1, min(len(pool), max(1, cfg.max_slots_per_domain - len(kept))))
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
    skip = index.turn_position.get(exclude)
    available = len(index.turns.items) - (skip is not None)
    if not available:
        raise SimulationError("no seed user turns available as demonstrations",
                              kind="unaugmentable")
    drawn = index.turns.draw(similarity_key(target), min(k, available), tau, rng, skip)
    return [item for item, _, _ in drawn]


def build_dst_prompt(spec: DstAugSpec, demos: list[tuple[Dialogue, int]],
                     ontology: Ontology) -> str:
    """Task description with a slot glossary, turn demonstrations, target prefix."""
    domain = next(iter(spec.belief.task_domains()), GENERAL_DOMAIN)
    slots: dict[tuple[str, str], None] = {}
    for d, s, _ in spec.belief.triples():
        if s != NONE:
            slots.setdefault((d, s), None)
    for dlg, i in demos:
        for d, s, _ in dlg.turns[i].belief.triples():
            if s != NONE:
                slots.setdefault((d, s), None)
    header = (
        f"Answer the assistant's question on each feature you require when booking "
        f"{_article(domain)} {domain}. "
        'Also mention no preference on a feature when your requirement on it is "dontcare".'
    )
    lines = [header, "Features:"]
    lines += [_glossary_line(d, s, ontology) for d, s in slots]
    blocks = ["\n".join(lines)]
    for dlg, i in demos:
        turn = dlg.turns[i]
        asked = [s for _, s, _ in turn.belief.triples() if s != NONE]
        blocks.append(
            f"Assistant: what is your requirement on {', '.join(asked)}?\n"
            f"{format_user_line(turn.belief, turn.user_utterance)}")
    blocks.append(f"User({serialize_goal(spec.belief)}):")
    return "\n\n".join(blocks)


def augment_dst_turn(spec: DstAugSpec, seeds: SeedDataset, backend: CompletionBackend,
                     ontology: Ontology, cfg: GenConfig, rng: random.Random, *,
                     dialogue_id: str | None = None) -> Dialogue:
    """Generate one alternative user turn expressing a prescribed belief.

    The belief is fixed, so no auxiliary merge happens here: the filter only
    verifies that every prescribed value was actually expressed. Samples whose
    utterance fails that check are rejected after the retry budget.
    """
    demos = _sample_turn_demos(
        spec.belief, seeds, cfg.n_shots, cfg.select_temperature, rng,
        exclude=(spec.source.id, spec.turn_idx))

    def read(completion: str) -> str:
        utterance = normalize_text(completion)
        if utterance and slot_value_match_filter(spec.belief, utterance, ontology) == spec.belief:
            return utterance
        raise ParseError("prescribed belief not expressed")

    utterance = _first_accepted(
        backend, cfg, build_dst_prompt(spec, demos, ontology), DST_STOPS, read, "rejected",
        lambda n, _: f"{spec.source.id} turn {spec.turn_idx}: prescribed belief "
                     f"{serialize_goal(spec.belief)!r} not expressed within {n} attempts")
    new_turn = Turn(
        user_utterance=utterance, belief=spec.belief, db=NO_RESULT,
        act=DialogAct(), system_response="")
    final_goal = spec.source.final_goal.copy()
    final_goal.fold(spec.belief)
    return Dialogue(
        id=dialogue_id or f"{spec.source.id}-dst{spec.turn_idx}",
        initial_goal=spec.source.initial_goal,
        final_goal=final_goal,
        turns=list(spec.source.turns[: spec.turn_idx]) + [new_turn],
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
               cfg: GenConfig, workers: int = 1) -> tuple[list[Dialogue], BatchReport]:
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
    if strategy.kind == STRATEGY_COMBINATION and strategy.n_source_dialogues > len(seeds):
        raise ValueError(f"n_source_dialogues={strategy.n_source_dialogues} exceeds the seed "
                         f"pool of {len(seeds)} dialogues")


def simulate_batch(n: int, strategy: GoalStrategy, seeds: SeedDataset,
                   backend: CompletionBackend, aux: AuxPredictor | None, db: EntityDb,
                   ontology: Ontology, cfg: GenConfig, *,
                   dist: RsDistribution = RsDistribution(), workers: int = 1,
                   trace: TraceSink | None = None) -> tuple[list[Dialogue], BatchReport]:
    """Run n independent simulations on per-dialogue rng substreams."""
    check_batch(n, strategy, seeds, cfg)
    observed = seeds.observed_values()
    ids = [f"sim_{index:04d}" for index in range(n)]

    def run(index: int, rng: random.Random) -> Dialogue:
        goal = _make_goal(strategy, dist, seeds, ontology, cfg, rng, observed)
        return simulate_dialogue(
            goal, seeds, backend, aux, db, ontology, cfg, rng,
            dialogue_id=ids[index], trace=trace)

    return _run_batch(ids, run, cfg, workers)


def augment_corpus(seeds: SeedDataset, backend: CompletionBackend,
                   aux: AuxPredictor | None, ontology: Ontology, cfg: GenConfig, *,
                   passes: int = 1) -> tuple[list[Dialogue], BatchReport]:
    """Generate one augmented user turn per source turn per pass.

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
        belief, kind = generate_turn_belief(
            dlg, turn_idx, ontology, rng, cfg=cfg, observed_values=observed)
        spec = DstAugSpec(dlg, turn_idx, kind, belief)
        return augment_dst_turn(spec, seeds, backend, ontology, cfg, rng,
                                dialogue_id=ids[index])

    return _run_batch(ids, run, cfg)
