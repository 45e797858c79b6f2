"""Domain/slot/act schema and its JSON form.

The ontology drives every validity check in the pipeline: which slots a goal
may constrain, which slots may be requested, and which acts a system turn may
carry in each domain.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

from .textnorm import read_json

# the 12 global dialog act types
ACT_TYPES = frozenset({
    "inform", "request", "select", "recommend", "nooffer", "offerbook",
    "offerbooked", "nobook", "welcome", "greet", "bye", "reqmore",
})

GENERAL_DOMAIN = "general"
GENERAL_ACTS = frozenset({"welcome", "greet", "bye", "reqmore"})

# sentinel slot/value for domain-only mentions and slotless acts
NONE = "none"

# one slot token of an act line (`[hotel] [inform] area phone`): no whitespace and
# no bracket; exemplar's act tokenizer is built from it, so every slot a schema
# names reads back from a serialized act as that one slot
SLOT_TOKEN = r"[^\s\[\]]+"
_SLOT_TOKEN_RE = re.compile(SLOT_TOKEN)

# surface spellings folded to one canonical slot name at parse/load time
SLOT_ALIASES: dict[str, str] = {
    "book stay": "stay",
    "book people": "people",
    "book day": "day",
    "book time": "time",
    "arriveby": "arrive",
    "arrive by": "arrive",
    "leaveat": "leave",
    "leave at": "leave",
    "price range": "pricerange",
    "star": "stars",
}


def canonical_slot(slot: str) -> str:
    slot = slot.strip().lower()
    return SLOT_ALIASES.get(slot, slot)


class OntologyError(ValueError):
    """Raised for schema violations in ontology data."""


@dataclass(frozen=True)
class DomainSchema:
    """Schema of one domain: goal slots, requestable slots, permitted acts."""

    informable: dict[str, tuple[str, ...]]  # slot -> candidate values, () = open-valued
    requestable: frozenset[str]
    acts: frozenset[str]
    queryable: bool

    def slot_universe(self) -> frozenset[str]:
        """The slots an act in this domain may carry: the informable and
        requestable slots, `choice` (how many entities match) where the domain
        is queryable, and `price` where it has a `pricerange` slot (act lines
        name the price range as plain "price")."""
        slots = set(self.informable) | self.requestable
        if self.queryable:
            slots.add("choice")
        if "pricerange" in self.informable:
            slots.add("price")
        return frozenset(slots)


@dataclass(frozen=True)
class Ontology:
    """All domains plus convenience lookups used across the pipeline."""

    domains: dict[str, DomainSchema] = field(default_factory=dict)
    # each domain's slot universe, built once: an act rule asks for every triple
    _act_slots: dict[str, frozenset[str]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for name, schema in self.domains.items():
            bad_acts = schema.acts - ACT_TYPES
            if bad_acts:
                raise OntologyError(f"domain {name!r}: unknown act types {sorted(bad_acts)}")
            if name == GENERAL_DOMAIN and not schema.acts <= GENERAL_ACTS:
                raise OntologyError("general domain may only carry welcome/greet/bye/reqmore")
            for slot in (*schema.informable, *sorted(schema.requestable)):
                if slot == NONE or not _SLOT_TOKEN_RE.fullmatch(slot):
                    raise OntologyError(f"domain {name!r}: slot {slot!r} is not one act-line "
                                        f"token (no whitespace, '[' or ']', and not {NONE!r})")
        object.__setattr__(self, "_act_slots", {
            name: schema.slot_universe() for name, schema in self.domains.items()})

    def has_domain(self, domain: str) -> bool:
        return domain in self.domains

    def schema(self, domain: str) -> DomainSchema:
        try:
            return self.domains[domain]
        except KeyError:
            raise OntologyError(f"unknown domain {domain!r}") from None

    def informable_slots(self, domain: str) -> list[str]:
        return list(self.schema(domain).informable)

    def candidates(self, domain: str, slot: str) -> tuple[str, ...]:
        return self.schema(domain).informable.get(slot, ())

    def is_informable(self, domain: str, slot: str) -> bool:
        return self.has_domain(domain) and slot in self.domains[domain].informable

    def act_permitted(self, domain: str, act_type: str) -> bool:
        return self.has_domain(domain) and act_type in self.domains[domain].acts

    def act_slot_permitted(self, domain: str, slot: str) -> bool:
        if slot == NONE:
            return True
        try:
            return slot in self._act_slots[domain]
        except KeyError:
            raise OntologyError(f"unknown domain {domain!r}") from None

    def goal_domains(self) -> list[str]:
        """Domains eligible for generated goals: a task can be pursued in them."""
        return [d for d, s in self.domains.items() if d != GENERAL_DOMAIN and s.informable]

    def queryable(self, domain: str) -> bool:
        return self.has_domain(domain) and self.domains[domain].queryable

    @classmethod
    def from_json(cls, data: dict) -> "Ontology":
        if not isinstance(data, dict):
            raise OntologyError("ontology JSON must be an object of domains")
        domains: dict[str, DomainSchema] = {}
        for name, spec in data.items():
            try:
                informable: dict[str, tuple[str, ...]] = {}
                spelled = spec.get("informable", {})
                for slot, values in spelled.items():
                    canonical = canonical_slot(slot)
                    if canonical in informable:  # one would overwrite the other's values
                        first = next(k for k in spelled if canonical_slot(k) == canonical)
                        raise OntologyError(f"domain {name!r}: informable keys {first!r} and "
                                            f"{slot!r} spell one slot {canonical!r}")
                    informable[canonical] = tuple(
                        v.lower() for v in _strings(name, f"informable.{slot}", values))
                requestable = _typed(name, "requestable", spec.get("requestable", []), list)
                schema = DomainSchema(
                    informable=informable,
                    requestable=frozenset(canonical_slot(s) for s in requestable),
                    acts=frozenset(_typed(name, "acts", spec.get("acts", []), list)),
                    queryable=_typed(name, "queryable", spec.get("queryable", False), bool),
                )
            except (TypeError, AttributeError) as exc:
                raise OntologyError(f"domain {name!r}: malformed schema ({exc})") from exc
            domains[str(name)] = schema
        return cls(domains=domains)


def _typed(domain: str, key: str, value, kind: type):
    """`value` if it is a JSON array (`list`) or boolean (`bool`); nothing is coerced."""
    if not isinstance(value, kind):
        raise OntologyError(f"domain {domain!r}: {key} must be a JSON "
                            f"{'array' if kind is list else 'boolean'}, got {value!r}")
    return value


def _strings(domain: str, key: str, value) -> list[str]:
    """`value` if it is a JSON array of strings; `null`, numbers and the like are not coerced."""
    if not all(isinstance(v, str) for v in _typed(domain, key, value, list)):
        raise OntologyError(f"domain {domain!r}: {key} must be a JSON array of strings, "
                            f"got {value!r}")
    return value


def load_ontology(path: str | Path) -> Ontology:
    """Load an ontology JSON file ({domain: {informable, requestable, acts, queryable}})."""
    return Ontology.from_json(read_json(Path(path), OntologyError))


def default_ontology() -> Ontology:
    """The bundled MultiWOZ-style ontology (7 task domains + general), parsed on each call."""
    text = resources.files("dialogic").joinpath("data/ontology.json").read_text("utf-8")
    return Ontology.from_json(json.loads(text))
