"""User goal generation: random sampling, value substitution, and combination."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Sequence

from .corpus import SeedDataset
from .model import GenConfig, Dialogue, UserGoal
from .ontology import NONE, Ontology

STRATEGY_RANDOM = "random"
STRATEGY_SUBSTITUTION = "substitution"
STRATEGY_COMBINATION = "combination"
STRATEGIES = (STRATEGY_RANDOM, STRATEGY_SUBSTITUTION, STRATEGY_COMBINATION)


@dataclass(frozen=True)
class GoalStrategy:
    """Which generation strategy to run, plus the combination knobs."""

    kind: str = STRATEGY_COMBINATION
    n_source_dialogues: int = 2
    drop_probability: float = 0.3

    def __post_init__(self):
        if self.kind not in STRATEGIES:
            raise ValueError(f"unknown goal strategy {self.kind!r}")
        if not 0.0 <= self.drop_probability < 1.0:
            raise ValueError("drop_probability must be in [0, 1)")
        if self.n_source_dialogues < 1:
            raise ValueError("n_source_dialogues must be >= 1")


@dataclass(frozen=True)
class RsDistribution:
    """Sampling distribution over (domain count, slot count range) for random goals."""

    rows: tuple[tuple[int, int, int, float], ...] = (
        (1, 4, 6, 0.3),
        (2, 3, 5, 0.6),
        (3, 2, 5, 0.1),
    )

    def __post_init__(self):
        total = sum(r[3] for r in self.rows)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"row probabilities must sum to 1 (got {total})")
        for n_domains, lo, hi, p in self.rows:
            if n_domains < 1 or lo > hi or lo < 1:
                raise ValueError(f"bad distribution row ({n_domains}, {lo}, {hi})")
            if not 0 <= p < math.inf:  # nan fails both comparisons
                raise ValueError(f"row probabilities must be finite and >= 0 (got {p})")

    def sample_row(self, rng: random.Random) -> tuple[int, int, int]:
        x = rng.random()
        acc = 0.0
        for n_domains, lo, hi, p in self.rows:
            acc += p
            if x < acc:
                return n_domains, lo, hi
        n_domains, lo, hi, _ = self.rows[-1]
        return n_domains, lo, hi


ObservedValues = dict[tuple[str, str], list[str]]


def value_pool(ontology: Ontology, domain: str, slot: str,
               observed: ObservedValues | None) -> Sequence[str]:
    """Values a goal or belief may take: ontology candidates, else values seen in seeds."""
    candidates = ontology.candidates(domain, slot)
    if candidates or not observed:
        return candidates
    return observed.get((domain, slot), [])


def slot_pool(ontology: Ontology, domain: str, observed: ObservedValues | None,
              exclude: frozenset[str] | set[str] = frozenset()) -> list[str]:
    """Informable slots of `domain`, minus `exclude`, that have at least one value.

    One pass over the schema: a slot has a value where `value_pool` would give one.
    """
    return [s for s, candidates in ontology.schema(domain).informable.items()
            if s not in exclude and (candidates or observed and observed.get((domain, s)))]


def generate_goal_random(ontology: Ontology, dist: RsDistribution, rng: random.Random,
                         *, cfg: GenConfig = GenConfig(),
                         observed_values: ObservedValues | None = None) -> UserGoal:
    """Sample a fresh goal: domains, slots, and values drawn from the ontology.

    Open-valued slots draw from values observed in the seed set (when given);
    slots with no available value are never sampled.
    """
    pool = [d for d in ontology.goal_domains() if slot_pool(ontology, d, observed_values)]
    if not pool:
        raise ValueError("no domain has informable slots with available values")
    n_domains, lo, hi = dist.sample_row(rng)
    n_domains = min(n_domains, cfg.max_domains, len(pool))
    domains = rng.sample(pool, n_domains)
    goal = UserGoal()
    for domain in domains:
        slots = slot_pool(ontology, domain, observed_values)
        n_slots = rng.randint(lo, hi)
        n_slots = max(1, min(n_slots, len(slots), cfg.max_slots_per_domain))
        for slot in rng.sample(slots, n_slots):
            goal.set(domain, slot, rng.choice(value_pool(ontology, domain, slot, observed_values)))
    return goal


def generate_goal_substitution(seed: Dialogue, ontology: Ontology,
                               rng: random.Random) -> UserGoal:
    """Keep the seed goal's domain/slot structure, resample only the values."""
    source = seed.final_goal
    if source.is_empty():
        raise ValueError(f"seed dialogue {seed.id} has an empty goal")
    goal = UserGoal()
    for domain, slot, value in source.triples():
        candidates = list(ontology.candidates(domain, slot))
        goal.set(domain, slot, rng.choice(candidates) if candidates else value)
    return goal


def generate_goal_combination(seeds: SeedDataset, ontology: Ontology, cfg_strategy: GoalStrategy,
                              rng: random.Random, *, cfg: GenConfig = GenConfig()
                              ) -> tuple[UserGoal, list[str]]:
    """Union the goals of a few sampled seed dialogues, then randomly drop slots.

    On key collision the later-sampled source wins. The result is truncated to
    the configured domain/slot caps and never comes back empty.
    """
    if len(seeds) < cfg_strategy.n_source_dialogues:
        raise ValueError(
            f"need at least {cfg_strategy.n_source_dialogues} seed dialogues, have {len(seeds)}")
    sources = rng.sample(list(seeds), cfg_strategy.n_source_dialogues)
    union = UserGoal()
    for src in sources:
        for domain, slot, value in src.final_goal.triples():
            union.set(domain, slot, value)

    kept = UserGoal()
    for domain, slot, value in union.triples():
        if slot != NONE and rng.random() >= cfg_strategy.drop_probability:
            kept.set(domain, slot, value)

    goal = UserGoal()
    for domain in list(kept.entries)[: cfg.max_domains]:
        for slot in list(kept.entries[domain])[: cfg.max_slots_per_domain]:
            goal.set(domain, slot, kept.entries[domain][slot])

    if goal.slot_count() == 0:
        # the drop step must never empty a goal: resurrect one source triple
        survivors = [t for t in union.triples() if t[1] != NONE]
        if not survivors:
            raise ValueError(f"source dialogues {[src.id for src in sources]} have goals "
                             "with no slot to combine")
        domain, slot, value = rng.choice(survivors)
        goal = UserGoal()
        goal.set(domain, slot, value)
    return goal, [src.id for src in sources]
