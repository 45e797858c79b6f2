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


_ABSENT = object()


def _rows_by_cell(records: list[dict[str, str]], slot: str) -> dict[str, list[int]]:
    """The rows of each distinct cell of one column, rows without it left out."""
    rows_of: dict[str, list[int]] = {}
    for i, record in enumerate(records):
        cell = record.get(slot, _ABSENT)
        rows = rows_of.get(cell)
        if rows is None:
            rows_of[cell] = [i]
        else:
            rows.append(i)
    rows_of.pop(_ABSENT, None)
    return rows_of


def _sorted_times(rows_of: dict[str, list[int]]) -> tuple[list[int], list[int]]:
    """Minutes and rows of a time column in ascending (minutes, row) order,
    each distinct cell parsed once; cells that are not a time are left out."""
    by_minute: dict[int, list[int]] = {}
    for cell, rows in rows_of.items():
        if (minutes := parse_time(str(cell))) is not None:
            by_minute.setdefault(minutes, []).extend(rows)
    times: list[int] = []
    order: list[int] = []
    for minutes in sorted(by_minute):
        rows = sorted(by_minute[minutes])  # several spellings of one time interleave
        times += [minutes] * len(rows)
        order += rows
    return times, order


def _scan(records: list[dict[str, str]], slot: str, wanted: tuple[str, ...]) -> list[int]:
    """Rows whose cell in an unindexed column has the wanted match tokens.

    Each distinct cell is tokenised once, and nothing is memoised: a scan
    adds nothing to the index or to `value_tokens`.
    """
    return [i for cell, rows in _rows_by_cell(records, slot).items()
            if _norm_value(cell) == wanted for i in rows]


@dataclass
class EntityDb:
    """Entity records per domain, with a (slot, value) index of the columns a
    belief can constrain: the domain's informable slots that its table holds."""

    ontology: Ontology
    tables: dict[str, list[dict[str, str]]] = field(default_factory=dict)

    def __post_init__(self):
        self._index: dict[str, dict[tuple[str, tuple[str, ...]], set[int]]] = {}
        self._columns: dict[str, set[str]] = {}
        self._indexed: dict[str, frozenset[str]] = {}
        # inequality-matched time columns: parsed minutes in ascending order,
        # and the row of each, so a bound selects a contiguous run of rows
        self._times: dict[tuple[str, str], tuple[list[int], list[int]]] = {}
        # cells repeat: tokenise each distinct value once, in a memo of this
        # construction's own, so that the cells do not crowd `value_tokens`
        norm = cache(_norm_value)
        for domain, records in self.tables.items():
            columns = set().union(*records)
            schema = self.ontology.domains.get(domain)
            indexed = frozenset(schema.informable if schema else ()) & columns
            timed = {slot for d, slot in _TIME_INEQUALITIES if d == domain} & columns
            index: dict[tuple[str, tuple[str, ...]], set[int]] = {}
            for slot in sorted(indexed | timed):
                rows_of = _rows_by_cell(records, slot)
                if slot in indexed:
                    for cell, rows in rows_of.items():
                        key = (slot, norm(cell))
                        if key in index:
                            index[key].update(rows)
                        else:
                            index[key] = set(rows)
                if slot in timed:
                    self._times[(domain, slot)] = _sorted_times(rows_of)
            self._index[domain] = index
            self._columns[domain] = columns
            self._indexed[domain] = indexed

    def size(self, domain: str) -> int:
        return len(self.tables.get(domain, []))

    def query(self, domain: str, constraints: dict[str, str], *,
              strict: bool = False) -> DbResult:
        """Count entities matching all constraints and bucketize the count.

        `dontcare` matches everything; booking slots are ignored; unknown slots
        are ignored unless strict mode is on.

        Each constraint on an indexed column selects its rows by index: an
        exact value from the (slot, normalized value) index built at
        construction, normalized by the memoised `value_tokens`, a train time
        bound by bisection in that column's presorted times. A constraint on
        any other column (train id or price, a phone number) scans it. Only
        the selected row sets are intersected, so with no active constraint
        the count is the table size and no per-row work is done.
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
            elif slot in self._indexed[domain]:
                matched = self._index[domain].get((slot, value_tokens(str(value))), ())
            else:
                matched = _scan(records, slot, _norm_value(value))
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
