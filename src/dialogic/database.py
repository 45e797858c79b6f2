"""Per-domain entity tables and constraint queries with bucketized counts."""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import cache
from importlib import resources
from pathlib import Path

from .model import DbResult
from .ontology import GENERAL_DOMAIN, Ontology
from .textnorm import match_tokens, parse_time, value_tokens

# booking attributes carried by goals but absent from entity tables
BOOKING_SLOTS: dict[str, frozenset[str]] = {
    "hotel": frozenset({"stay", "day", "people"}),
    "restaurant": frozenset({"time", "day", "people"}),
    "train": frozenset({"people"}),
}

# train times match by inequality: a requested leave is the earliest departure,
# a requested arrive the latest arrival
_TIME_INEQUALITIES = {("train", "leave"): "ge", ("train", "arrive"): "le"}


class DatabaseError(ValueError):
    """Unknown domain/slot or malformed database file."""


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


def _norm_value(value: str) -> tuple[str, ...]:
    return tuple(match_tokens(str(value)))


@dataclass
class EntityDb:
    """Entity records per domain with a (slot, value) index for exact matches."""

    ontology: Ontology
    tables: dict[str, list[dict[str, str]]] = field(default_factory=dict)

    def __post_init__(self):
        self._index: dict[str, dict[tuple[str, tuple[str, ...]], set[int]]] = {}
        self._columns: dict[str, set[str]] = {}
        # cells repeat: tokenise each distinct value once, in a memo of this
        # construction's own, so that the cells do not crowd `value_tokens`
        norm = cache(_norm_value)
        for domain, records in self.tables.items():
            index: dict[tuple[str, tuple[str, ...]], set[int]] = {}
            columns: set[str] = set()
            for i, record in enumerate(records):
                for slot, value in record.items():
                    columns.add(slot)
                    index.setdefault((slot, norm(value)), set()).add(i)
            self._index[domain] = index
            self._columns[domain] = columns
        # inequality-matched time columns: parsed minutes in ascending order,
        # and the row of each, so a bound selects a contiguous run of rows
        self._times: dict[tuple[str, str], tuple[list[int], list[int]]] = {}
        parse = cache(parse_time)  # rows share times: parse each distinct one once
        for domain, slot in _TIME_INEQUALITIES:
            timed = sorted(
                (minutes, i) for i, record in enumerate(self.tables.get(domain, []))
                if (minutes := parse(str(record.get(slot, "")))) is not None)
            self._times[(domain, slot)] = ([m for m, _ in timed], [i for _, i in timed])

    def size(self, domain: str) -> int:
        return len(self.tables.get(domain, []))

    def query(self, domain: str, constraints: dict[str, str], *,
              strict: bool = False) -> DbResult:
        """Count entities matching all constraints and bucketize the count.

        `dontcare` matches everything; booking slots are ignored; unknown slots
        are ignored unless strict mode is on.

        Each constraint selects its rows by index: an exact value from the
        (slot, normalized value) index built at construction, normalized by the
        memoised `value_tokens`, a train time bound by bisection in that
        column's presorted times. Only the selected row sets are intersected,
        so with no active constraint the count is the table size and no
        per-row work is done.
        """
        if not self.ontology.has_domain(domain):
            raise DatabaseError(f"unknown domain {domain!r}")
        if not self.ontology.queryable(domain) or domain not in self.tables:
            return DbResult(domain, 0, "db_nores")
        records = self.tables[domain]
        booking = BOOKING_SLOTS.get(domain, frozenset())
        candidates: set[int] | None = None  # None: every row
        for slot, value in constraints.items():
            if slot in booking or value == "dontcare":
                continue
            if slot not in self._columns[domain]:
                if strict:
                    raise DatabaseError(f"unknown slot {domain}.{slot}")
                continue
            mode = _TIME_INEQUALITIES.get((domain, slot))
            wanted = parse_time(value) if mode else None
            if wanted is not None:
                minutes, rows = self._times[(domain, slot)]
                if mode == "ge":
                    matched = rows[bisect_left(minutes, wanted):]
                else:
                    matched = rows[:bisect_right(minutes, wanted)]
            else:
                matched = self._index[domain].get((slot, value_tokens(str(value))), ())
            # index sets are shared between calls: build a new set, never update one
            candidates = set(matched) if candidates is None else candidates.intersection(matched)
            if not candidates:
                break
        count = len(records) if candidates is None else len(candidates)
        return DbResult(domain, count, bucketize(count, True))


def load_entity_db(db_dir: str | Path, ontology: Ontology) -> EntityDb:
    """Load `<domain>_db.json` files (one JSON array of flat objects each)."""
    db_dir = Path(db_dir)
    if not db_dir.is_dir():
        raise DatabaseError(f"database directory not found: {db_dir}")
    tables: dict[str, list[dict[str, str]]] = {}
    for path in sorted(db_dir.glob("*_db.json")):
        domain = path.name[: -len("_db.json")]
        if not ontology.has_domain(domain) or domain == GENERAL_DOMAIN:
            continue
        with open(path, encoding="utf-8") as fh:
            records = json.load(fh)
        if not isinstance(records, list):
            raise DatabaseError(f"{path}: expected a JSON array of entities")
        tables[domain] = [
            {str(k).lower(): str(v).lower() for k, v in record.items()} for record in records
        ]
    return EntityDb(ontology=ontology, tables=tables)


def default_entity_db(ontology: Ontology | None = None) -> EntityDb:
    """The small bundled sample database (restaurant/hotel/attraction/train)."""
    from .ontology import default_ontology

    with resources.as_file(resources.files("dialogic").joinpath("data/db")) as db_dir:
        return load_entity_db(db_dir, ontology or default_ontology())
