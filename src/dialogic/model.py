"""Core data model: goals, beliefs, acts, turns, dialogues, generation config."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

from .ontology import GENERAL_DOMAIN, NONE, Ontology, canonical_slot

Triple = tuple[str, str, str]

# provenance tags for dialogues in a corpus
SOURCE_SEED = "seed"
SOURCE_SIMULATED = "simulated"
SOURCE_DST_AUGMENTED = "dst_augmented"
SOURCES = (SOURCE_SEED, SOURCE_SIMULATED, SOURCE_DST_AUGMENTED)


class ValidationError(ValueError):
    """A triple or dialogue violates the ontology or a structural invariant."""


class SimulationError(RuntimeError):
    """A simulate or DST job failed; its batch report counts it under `kind`."""

    def __init__(self, message: str, kind: str):
        super().__init__(message)
        self.kind = kind


class TripletMap:
    """Ordered domain -> slot -> value map; the shared shape of goals and beliefs.

    A domain key with an empty slot dict encodes a domain-only mention,
    i.e. the triple (domain, none, none).
    """

    __slots__ = ("entries",)

    def __init__(self, entries: dict[str, dict[str, str]] | None = None):
        self.entries: dict[str, dict[str, str]] = {
            d: dict(slots) for d, slots in (entries or {}).items()
        }

    @classmethod
    def from_dict(cls, data: dict[str, dict[str, str]], *,
                  slot_name: Callable[[str], str] = canonical_slot,
                  lowered: Callable[[str], str] = str.lower,
                  domain_name: Callable[[str], str] = str):
        """Build from plain JSON data, folding slot aliases to canonical names.

        `slot_name`, `lowered` and `domain_name` name each slot, lower each
        value and keep each domain as it is; a corpus load passes memos of its
        own, so that equal texts share one string.
        Data or a domain entry that is not an object, a value that is not a
        string, a slot named `none` (a domain-only mention is an empty object)
        and a second spelling of one slot ("book stay" beside "stay") raise
        ValidationError naming the domain or `domain.slot`.
        """
        if not isinstance(data, dict):
            raise ValidationError(f"must be an object, got {data!r}")
        obj = cls()
        for domain, slots in data.items():
            if not isinstance(slots, dict):
                raise ValidationError(f"domain {domain!r} must be an object, got {slots!r}")
            built = obj.entries[domain_name(domain)] = {}
            for slot, value in slots.items():
                if not isinstance(value, str):
                    raise ValidationError(f"{domain}.{slot} must be a string, got {value!r}")
                name = slot_name(slot)
                if name == NONE or name in built:
                    why = "is not a slot" if name == NONE else f"repeats slot {name!r}"
                    raise ValidationError(f"{domain}.{slot} {why}")
                built[name] = lowered(value)
        return obj

    def set(self, domain: str, slot: str, value: str) -> None:
        if slot == NONE:
            self.entries.setdefault(domain, {})
            return
        self.entries.setdefault(domain, {})[slot] = value

    def get(self, domain: str, slot: str) -> str | None:
        return self.entries.get(domain, {}).get(slot)

    def triples(self) -> list[Triple]:
        out: list[Triple] = []
        for domain, slots in self.entries.items():
            if not slots:
                out.append((domain, NONE, NONE))
            for slot, value in slots.items():
                out.append((domain, slot, value))
        return out

    def domains(self) -> list[str]:
        return list(self.entries)

    def task_domains(self) -> list[str]:
        return [d for d in self.entries if d != GENERAL_DOMAIN]

    def qualified_slots(self) -> set[str]:
        """Domain-qualified slot names, e.g. 'hotel.stay'."""
        return {f"{d}.{s}" for d, slots in self.entries.items() for s in slots}

    def slot_count(self) -> int:
        return sum(len(slots) for slots in self.entries.values())

    def is_empty(self) -> bool:
        return not self.entries

    def to_dict(self) -> dict[str, dict[str, str]]:
        return {d: dict(slots) for d, slots in self.entries.items()}

    def copy(self):
        return type(self)(self.entries)

    def _inadmissible(self, ontology: Ontology) -> Iterator[tuple[str, str | None, str]]:
        """(domain, slot, why) per entry the ontology does not admit.

        An unknown domain goes whole (slot None); so do a slot under `general`
        and a non-informable slot. A known domain's domain-only mention stays.
        """
        for domain, slots in self.entries.items():
            if not ontology.has_domain(domain):
                yield domain, None, f"unknown domain {domain!r}"
                continue
            for slot in slots:
                if domain == GENERAL_DOMAIN:
                    yield domain, slot, f"general domain carries slot {slot!r}"
                elif not ontology.is_informable(domain, slot):
                    yield domain, slot, f"{domain}.{slot} is not an informable slot"

    def validate(self, ontology: Ontology) -> list[str]:
        """Return a list of violation messages (empty when ontology-valid)."""
        return [why for _, _, why in self._inadmissible(ontology)]

    def admitted(self, ontology: Ontology):
        """A copy without the entries `validate` names."""
        kept = self.copy()
        for domain, slot, _ in self._inadmissible(ontology):
            if slot is None:
                del kept.entries[domain]
            else:
                del kept.entries[domain][slot]
        return kept

    def fold(self, belief: "TripletMap") -> None:
        """Write `belief`'s slot values over this map's, in order.

        Domain-only mentions and `general` entries contribute nothing.
        """
        for domain, slots in belief.entries.items():
            if slots and domain != GENERAL_DOMAIN:
                self.entries.setdefault(domain, {}).update(slots)

    def __iter__(self) -> Iterator[Triple]:
        return iter(self.triples())

    def __len__(self) -> int:
        return len(self.triples())

    def __eq__(self, other) -> bool:
        return type(self) is type(other) and self.entries == other.entries

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.entries!r})"


class UserGoal(TripletMap):
    """The constraint set a simulated user pursues across a dialogue."""


class TurnBelief(TripletMap):
    """The per-turn delta of the user goal expressed in one user utterance."""


class DialogueState(TripletMap):
    """Accumulation of turn beliefs up to some turn."""


def accumulate_state(turn_beliefs: Iterable[TurnBelief]) -> DialogueState:
    """Fold turn deltas into a state; later values overwrite earlier ones.

    Domain-only mentions and `general` entries contribute nothing.
    """
    state = DialogueState()
    for belief in turn_beliefs:
        state.fold(belief)
    return state


@dataclass(frozen=True)
class DialogAct:
    """Ordered (domain, act_type, slot) triples describing a system turn."""

    triples: tuple[Triple, ...] = ()

    @classmethod
    def from_triples(cls, triples: list[list[str]], *,
                     slot_name: Callable[[str], str] = canonical_slot) -> "DialogAct":
        """Build from JSON data: a list of [domain, act type, slot] lists of strings.

        `slot_name` names each slot; only the slot `none` means slotless.
        Anything else, a `null` member or an empty slot included, raises
        ValidationError naming the triple (`[2]`); nothing is coerced.
        """
        if not isinstance(triples, list):
            raise ValidationError(f"must be a list of triples, got {triples!r}")
        norm = []
        for i, triple in enumerate(triples):
            if not (isinstance(triple, list) and len(triple) == 3
                    and all(isinstance(member, str) for member in triple)):
                raise ValidationError(f"[{i}] must be three strings, got {triple!r}")
            d, t, s = triple
            if not s:
                raise ValidationError(f"[{i}] has an empty slot; a slotless act has slot 'none'")
            norm.append((d, t, slot_name(s) if s != NONE else NONE))
        return cls(tuple(norm))

    def has(self, act_type: str, domain: str | None = None) -> bool:
        return any(
            t == act_type and (domain is None or d == domain)
            for d, t, _ in self.triples
        )

    def slots_of(self, act_type: str) -> list[tuple[str, str]]:
        return [(d, s) for d, t, s in self.triples if t == act_type and s != NONE]

    def is_empty(self) -> bool:
        return not self.triples

    def to_json(self) -> list[list[str]]:
        return [[d, t, s] for d, t, s in self.triples]

    def validate(self, ontology: Ontology) -> list[str]:
        """Return a list of violation messages (empty when ontology-valid)."""
        return [why for triple in self.triples for why in act_problems(ontology, *triple)]

    def admitted(self, ontology: Ontology) -> "DialogAct":
        """A copy without the triples `validate` names."""
        return DialogAct(tuple(t for t in self.triples if not act_problems(ontology, *t)))


def act_problems(ontology: Ontology, domain: str, act_type: str, slot: str) -> list[str]:
    """Why the ontology does not admit one act triple; empty when it does."""
    if not ontology.has_domain(domain):
        return [f"unknown domain {domain!r}"]
    problems = []
    if not ontology.act_permitted(domain, act_type):
        problems.append(f"act {act_type!r} not permitted in domain {domain!r}")
    if not ontology.act_slot_permitted(domain, slot):
        problems.append(f"slot {slot!r} not permitted in acts of domain {domain!r}")
    return problems


DB_BUCKETS = ("db_0", "db_1", "db_2", "db_3", "db_nores")


def bucketize(count: int, queryable: bool) -> str:
    """Discretize an entity count: db_0, db_1, db_2 (2-3), db_3 (>=4), db_nores."""
    if count < 0:
        raise ValueError("count must be nonnegative")
    if not queryable:
        return "db_nores"
    if count == 0:
        return "db_0"
    if count == 1:
        return "db_1"
    if count <= 3:
        return "db_2"
    return "db_3"


@dataclass(frozen=True)
class DbResult:
    """Entity count for the active domain, discretized to a bucket token."""

    domain: str
    count: int
    bucket: str

    def __post_init__(self):
        if self.count < 0:
            raise ValidationError("db count must be nonnegative")
        if self.bucket not in DB_BUCKETS:
            raise ValidationError(f"unknown db bucket {self.bucket!r}")

    def to_json(self) -> dict:
        return {"domain": self.domain, "count": self.count, "bucket": self.bucket}

    @classmethod
    def from_json(cls, data: dict) -> "DbResult":
        """Read as written, not coerced: an object with a string domain, an int count, a bucket."""
        if not isinstance(data, dict):
            raise ValidationError(f"must be an object, got {data!r}")
        for key in ("domain", "count", "bucket"):
            if key not in data:
                raise ValidationError(f"missing key {key!r}")
        domain, count = data["domain"], data["count"]
        if not isinstance(domain, str):
            raise ValidationError(f"domain must be a string, got {domain!r}")
        if not isinstance(count, int) or isinstance(count, bool):
            raise ValidationError(f"count must be an int, got {count!r}")
        return cls(domain=domain, count=count, bucket=data["bucket"])

    def validate(self, ontology: Ontology) -> list[str]:
        """Why `EntityDb.query` could never return this result; empty when it could.

        The domain is known; `db_nores` comes with count 0 (a domain that is not
        queryable, or has no table); any other bucket only in a queryable domain,
        and equal to `bucketize(count, True)`. `NO_RESULT`, what a turn with no
        domain gets, is always admitted.
        """
        if self == NO_RESULT:
            return []
        if not ontology.has_domain(self.domain):
            return [f"unknown domain {self.domain!r}"]
        if self.bucket == "db_nores":
            return [] if self.count == 0 else [f"db_nores with count {self.count}, not 0"]
        if not ontology.queryable(self.domain):
            return [f"bucket {self.bucket!r} in domain {self.domain!r}, which is not queryable"]
        expected = bucketize(self.count, True)
        if self.bucket != expected:
            return [f"bucket {self.bucket!r} does not match count {self.count} ({expected})"]
        return []

    def admitted(self, ontology: Ontology) -> "DbResult":
        """This result, or `NO_RESULT` when `validate` names a problem."""
        return NO_RESULT if self.validate(ontology) else self


NO_RESULT = DbResult(GENERAL_DOMAIN, 0, "db_nores")


@dataclass
class Turn:
    """One user/system exchange with its revised annotations.

    The simulator's trace holds the raw LLM and aux annotations of each turn.
    """

    user_utterance: str
    belief: TurnBelief
    db: DbResult
    act: DialogAct
    system_response: str


@dataclass
class Dialogue:
    """A conversation record: goal, turns, provenance."""

    id: str
    initial_goal: UserGoal
    final_goal: UserGoal
    turns: list[Turn] = field(default_factory=list)
    source: str = SOURCE_SEED

    def __post_init__(self):
        if self.source not in SOURCES:
            raise ValidationError(f"unknown dialogue source {self.source!r}")


@dataclass(frozen=True)
class DecodeConfig:
    """Sampling parameters passed through to the completion backend."""

    temperature: float = 0.7
    top_p: float = 1.0
    frequency_penalty: float = 1.0
    max_tokens: int = 256

    def __post_init__(self):
        if any(type(v) not in (int, float)
               for v in (self.temperature, self.top_p, self.frequency_penalty)):
            raise ValidationError("decode temperature, top_p and frequency_penalty must be numbers")
        if not 0 <= self.temperature <= 2 or not 0 <= self.top_p <= 1:
            raise ValidationError(
                "decode temperature and top_p must be in [0, 2] and [0, 1], respectively")
        if not -2 <= self.frequency_penalty <= 2:  # nan fails both comparisons
            raise ValidationError(
                f"decode frequency_penalty must be in [-2, 2], got {self.frequency_penalty!r}")
        if type(self.max_tokens) is not int or self.max_tokens < 1:
            raise ValidationError(f"decode max_tokens must be an int >= 1, got {self.max_tokens!r}")


@dataclass(frozen=True)
class GenConfig:
    """Knobs for goal generation, example selection, and the simulation loop."""

    n_shots: int = 2
    select_temperature: float = 0.2
    max_turns: int = 12
    max_domains: int = 4
    max_slots_per_domain: int = 6
    decode: DecodeConfig = field(default_factory=DecodeConfig)
    retries: int = 2
    rng_seed: int | None = None

    def __post_init__(self):
        if not 0 < self.select_temperature < math.inf:  # nan fails both comparisons
            raise ValidationError(
                f"select_temperature must be finite and > 0, got {self.select_temperature!r}")
        if self.n_shots < 1:
            raise ValidationError("n_shots must be >= 1")
        if self.max_turns < 1:
            raise ValidationError("max_turns must be >= 1")
        if self.max_domains < 1 or self.max_slots_per_domain < 1:
            raise ValidationError("max_domains and max_slots_per_domain must be >= 1")
        if self.retries < 0:
            raise ValidationError("retries must be >= 0")
