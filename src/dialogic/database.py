"""Per-domain entity tables and constraint queries with bucketized counts."""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import cache
from importlib import resources
from pathlib import Path

from .model import DbResult, bucketize
from .ontology import GENERAL_DOMAIN, Ontology
from .textnorm import SharedTexts, parse_time, value_tokens

# train times match by inequality: a requested leave is the earliest departure,
# a requested arrive the latest arrival
_TIME_INEQUALITIES = {("train", "leave"): "ge", ("train", "arrive"): "le"}


class DatabaseError(ValueError):
    """Unknown domain/slot or malformed database file."""


_ABSENT = object()


def _rows_by_cell(records: list[dict[str, str]], slot: str,
                  ids: list[int]) -> dict[str, list[int]]:
    """The rows of each distinct cell of one column, rows without it left out.

    `ids` holds each row's id, so every column refers to one `int` per row.
    """
    rows_of: dict[str, list[int]] = {}
    for i, record in zip(ids, records):
        cell = record.get(slot, _ABSENT)
        rows = rows_of.get(cell)
        if rows is None:
            rows_of[cell] = [i]
        else:
            rows.append(i)
    rows_of.pop(_ABSENT, None)
    return rows_of


def _sorted_times(rows_of: dict[str, list[int]]) -> tuple[list[int], tuple[int, ...]]:
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
    return times, tuple(order)


@dataclass
class EntityDb:
    """Entity records per domain, with a (slot, value) index of the columns a
    belief can constrain: the domain's informable slots that its table holds."""

    ontology: Ontology
    tables: dict[str, list[dict[str, str]]] = field(default_factory=dict)

    def __post_init__(self):
        # each key's rows as an ascending tuple: a set would cost several times the memory
        self._index: dict[str, dict[tuple[str, tuple[str, ...]], tuple[int, ...]]] = {}
        self._indexed: dict[str, frozenset[str]] = {}
        # inequality-matched time columns: parsed minutes in ascending order,
        # and the row of each, so a bound selects a contiguous run of rows
        self._times: dict[tuple[str, str], tuple[list[int], tuple[int, ...]]] = {}
        norm = cache(value_tokens)  # cells repeat: tokenise each distinct value once
        for domain, records in self.tables.items():
            schema = self.ontology.domains.get(domain)
            indexed = frozenset(schema.informable if schema else ()) & set().union(*records)
            index: dict[tuple[str, tuple[str, ...]], tuple[int, ...]] = {}
            ids = list(range(len(records)))
            for slot in sorted(indexed):
                rows_of = _rows_by_cell(records, slot, ids)
                for cell, rows in rows_of.items():
                    key = (slot, norm(cell))
                    if key in index:  # another spelling of one value: merge, keep ascending
                        index[key] = tuple(sorted((*index[key], *rows)))
                    else:
                        index[key] = tuple(rows)
                if (domain, slot) in _TIME_INEQUALITIES:
                    self._times[(domain, slot)] = _sorted_times(rows_of)
            self._index[domain] = index
            self._indexed[domain] = indexed

    def size(self, domain: str) -> int:
        return len(self.tables.get(domain, []))

    def query(self, domain: str, constraints: dict[str, str]) -> DbResult:
        """Count entities matching all constraints and bucketize the count.

        A constraint narrows the count only if its slot is an indexed column,
        one the domain declares informable and its table holds. A `dontcare`
        value and any other slot constrain nothing: an unknown slot, a booking
        slot such as hotel `stay` (no table holds one), an informable slot the
        table lacks, a column no belief names (a phone number, train id or
        price). Each narrowing constraint selects its rows by index: an exact
        value from the (slot, normalized value) index built at construction,
        normalized by `value_tokens`, a train time bound by bisection in that
        column's presorted times. Only the selected row sets are intersected,
        so with no active constraint the count is the table size and no
        per-row work is done.
        """
        if not self.ontology.has_domain(domain):
            raise DatabaseError(f"unknown domain {domain!r}")
        if not self.ontology.queryable(domain) or domain not in self.tables:
            return DbResult(domain, 0, "db_nores")
        indexed = self._indexed[domain]
        candidates: set[int] | None = None  # None: every row
        for slot, value in constraints.items():
            if value == "dontcare" or slot not in indexed:
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
                matched = self._index[domain].get((slot, value_tokens(value)), ())
            candidates = set(matched) if candidates is None else candidates.intersection(matched)
            if not candidates:
                break
        count = self.size(domain) if candidates is None else len(candidates)
        return DbResult(domain, count, bucketize(count, True))


def _case_variant_keys(record: dict) -> tuple[str, str]:
    """The first two keys of `record` that lower to one text; it must have two."""
    seen: dict[str, str] = {}
    for key in record:
        if (first := seen.setdefault(key.lower(), key)) is not key:
            break
    return first, key


def load_entity_db(db_dir: str | Path, ontology: Ontology) -> EntityDb:
    """Load `<domain>_db.json` files (one JSON array of flat objects each).

    Keys and cells are stored as lower-cased text. Cells repeat across rows,
    so equal texts share one string, through a memo of this call's own. Each
    parsed entry is dropped once its row is built, so a file's JSON is freed
    as its table grows. Two keys of one entry that differ only in case are an
    error: lowering would keep one column and lose the other.
    """
    db_dir = Path(db_dir)
    if not db_dir.is_dir():
        raise DatabaseError(f"database directory not found: {db_dir}")
    tables: dict[str, list[dict[str, str]]] = {}
    lowered = SharedTexts(str.lower)
    for path in sorted(db_dir.glob("*_db.json")):
        domain = path.name[: -len("_db.json")]
        if not ontology.has_domain(domain) or domain == GENERAL_DOMAIN:
            continue
        with open(path, encoding="utf-8") as fh:
            records = json.load(fh)
        if not isinstance(records, list):
            raise DatabaseError(f"{path}: expected a JSON array of entities")
        table = tables[domain] = []
        for i, record in enumerate(records):
            if not isinstance(record, dict):
                raise DatabaseError(f"{path}: entry {i} is not an object: {record!r:.60}")
            row = {lowered[str(k)]: lowered[str(v)] for k, v in record.items()}
            if len(row) < len(record):
                first, second = _case_variant_keys(record)
                raise DatabaseError(f"{path}: entry {i} has keys {first!r} and {second!r}, "
                                    "which differ only in case")
            table.append(row)
            records[i] = None  # free this entry's JSON
    return EntityDb(ontology=ontology, tables=tables)


def default_entity_db(ontology: Ontology | None = None) -> EntityDb:
    """The small bundled sample database (restaurant/hotel/attraction/train)."""
    from .ontology import default_ontology

    with resources.as_file(resources.files("dialogic").joinpath("data/db")) as db_dir:
        return load_entity_db(db_dir, ontology or default_ontology())
