"""Per-domain entity indexes and constraint queries with bucketized counts."""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from functools import cache
from importlib import resources
from pathlib import Path

from .model import DbResult, bucketize
from .ontology import GENERAL_DOMAIN, Ontology
from .textnorm import SharedTexts, json_entries, parse_time, value_tokens

# time columns match by inequality in any domain's table: a requested leave is
# the earliest departure, a requested arrive the latest arrival
_TIME_INEQUALITIES = {"leave": "ge", "arrive": "le"}


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


def _minutes(tokens: tuple[str, ...]) -> int | None:
    """The time a value's `value_tokens` spell, as minutes after midnight, else None.

    One token that `parse_time` reads is a time, so "05:03", "5:03" and
    "05:03 ." are 303; "24:00" and "after 05:03" are not times.
    """
    return parse_time(tokens[0]) if len(tokens) == 1 else None


def _sorted_times(by_minute: dict[int, list[int]]) -> tuple[list[int], tuple[int, ...]]:
    """Minutes and rows of a time column in ascending (minutes, row) order."""
    times: list[int] = []
    order: list[int] = []
    for minutes in sorted(by_minute):
        rows = sorted(by_minute[minutes])  # several spellings of one time interleave
        times += [minutes] * len(rows)
        order += rows
    return times, tuple(order)


class EntityDb:
    """What a query reads, per domain: a (slot, value) index of the columns a
    belief can constrain (the domain's informable slots that its table holds),
    the presorted `leave`/`arrive` times and the row count.

    `tables` maps each domain to its rows, flat objects of lower-cased text
    as `load_entity_db` builds them; they are indexed here, and no row is kept.
    """

    def __init__(self, ontology: Ontology,
                 tables: dict[str, list[dict[str, str]]] | None = None):
        self.ontology = ontology
        tables = tables or {}
        self._sizes: dict[str, int] = {domain: len(records) for domain, records in tables.items()}
        # each key's rows as an ascending tuple: a set would cost several times the memory
        self._index: dict[str, dict[tuple[str, tuple[str, ...]], tuple[int, ...]]] = {}
        self._indexed: dict[str, frozenset[str]] = {}
        # inequality-matched time columns: parsed minutes in ascending order,
        # and the row of each, so a bound selects a contiguous run of rows
        self._times: dict[tuple[str, str], tuple[list[int], tuple[int, ...]]] = {}
        norm = cache(value_tokens)  # cells repeat: tokenise each distinct value once
        for domain, records in tables.items():
            schema = ontology.domains.get(domain)
            indexed = frozenset(schema.informable if schema else ()) & set().union(*records)
            index: dict[tuple[str, tuple[str, ...]], tuple[int, ...]] = {}
            ids = list(range(len(records)))
            for slot in sorted(indexed):
                timed = slot in _TIME_INEQUALITIES
                by_minute: dict[int, list[int]] = {}
                for cell, rows in _rows_by_cell(records, slot, ids).items():
                    # a time cell is only ever selected by a bound, so it is not
                    # indexed; a cell `parse_time` reads is one time token
                    minutes = parse_time(cell) if timed else None
                    if timed and minutes is None:
                        minutes = _minutes(norm(cell))
                    if minutes is not None:
                        by_minute.setdefault(minutes, []).extend(rows)
                        continue
                    key = (slot, norm(cell))
                    if key in index:  # another spelling of one value: merge, keep ascending
                        index[key] = tuple(sorted((*index[key], *rows)))
                    else:
                        index[key] = tuple(rows)
                if timed:
                    self._times[(domain, slot)] = _sorted_times(by_minute)
            self._index[domain] = index
            self._indexed[domain] = indexed

    def size(self, domain: str) -> int:
        """The row count of the domain's table; 0 for a domain with no table."""
        return self._sizes.get(domain, 0)

    def held_slots(self, domain: str) -> frozenset[str]:
        """The domain's informable slots that its table holds; none where it has no table."""
        return self._indexed.get(domain, frozenset())

    def query(self, domain: str, constraints: dict[str, str]) -> DbResult:
        """Count entities matching all constraints and bucketize the count.

        A constraint narrows the count only if its slot is an indexed column,
        one the domain declares informable and its table holds. A `dontcare`
        value and any other slot constrain nothing: an unknown slot, a booking
        slot such as hotel `stay` (no table holds one), an informable slot the
        table lacks, a column no belief names (a phone number, train id or
        price). Each narrowing constraint is read by its `value_tokens` and
        selects its rows by index: a `leave`/`arrive` value in any domain
        that is one time token ("05:03", "5:03 .") bounds by bisection in that
        column's presorted times, any other value matches exactly in the (slot,
        normalized value) index built at construction, which holds a time
        column's cells that are not times. Only the selected row sets are intersected,
        so with no active constraint the count is the table size and no
        per-row work is done.
        """
        if not self.ontology.has_domain(domain):
            raise DatabaseError(f"unknown domain {domain!r}")
        if not self.ontology.queryable(domain) or domain not in self._sizes:
            return DbResult(domain, 0, "db_nores")
        indexed = self._indexed[domain]
        candidates: set[int] | None = None  # None: every row
        for slot, value in constraints.items():
            if value == "dontcare" or slot not in indexed:
                continue
            tokens = value_tokens(value)
            mode = _TIME_INEQUALITIES.get(slot)
            wanted = _minutes(tokens) if mode else None
            if wanted is not None:
                minutes, rows = self._times[(domain, slot)]
                if mode == "ge":
                    matched = rows[bisect_left(minutes, wanted):]
                else:
                    matched = rows[:bisect_right(minutes, wanted)]
            else:
                matched = self._index[domain].get((slot, tokens), ())
            candidates = set(matched) if candidates is None else candidates.intersection(matched)
            if not candidates:
                break
        count = self.size(domain) if candidates is None else len(candidates)
        return DbResult(domain, count, bucketize(count, True))


def _case_variant_keys(keys: tuple[str, ...]) -> tuple[str, str]:
    """The first two of `keys` that lower to one text; there must be two."""
    seen: dict[str, str] = {}
    for key in keys:
        if (first := seen.setdefault(key.lower(), key)) is not key:
            break
    return first, key


# the JSON type of a decoded value that is not a string or an object
_JSON_KINDS = {type(None): "null", bool: "a boolean", int: "a number", float: "a number",
               list: "an array"}


def load_entity_db(db_dir: str | Path, ontology: Ontology) -> EntityDb:
    """Load `<domain>_db.json` files (one JSON array of flat objects each).

    Only the columns a belief can constrain are read: the domain's informable
    slots, each key matched after lowering it. Their cells must be JSON
    strings, stored lower-cased; a `null`, number, boolean, array or object
    there is an error naming the file, the entry and the column. Any other
    column (a phone, a MultiWOZ `location` list or `price` object) is not
    read at all. Cells repeat across rows, so equal texts share one string,
    through a memo of this call's own. Two keys of one entry that differ only
    in case are an error, whichever columns they name: lowering would keep
    one column and lose the other. The entries are read one at a time
    (`textnorm.json_entries`), and each is checked and becomes its row before
    the next is decoded, so a file's parsed JSON is never held whole and its
    first fault is reported in file order.
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
        informable = ontology.schema(domain).informable
        # the entries of a file share a few key orders: per key order, the
        # (key, lowered key) of each informable column
        columns_of: dict[tuple[str, ...], tuple[tuple[str, str], ...]] = {}
        rows = tables[domain] = []
        for i, entry in enumerate(json_entries(path, DatabaseError)):
            if not isinstance(entry, dict):
                raise DatabaseError(f"{path}: entry {i} is not an object: {entry!r:.60}")
            columns = columns_of.get(keys := tuple(entry))
            if columns is None:
                lowered_keys = [lowered[k] for k in keys]
                if len(set(lowered_keys)) < len(keys):
                    first, second = _case_variant_keys(keys)
                    raise DatabaseError(f"{path}: entry {i} has keys {first!r} and {second!r}, "
                                        "which differ only in case")
                columns = columns_of[keys] = tuple(
                    (k, low) for k, low in zip(keys, lowered_keys) if low in informable)
            row = {}
            for spelled, key in columns:
                if not isinstance(cell := entry[spelled], str):
                    raise DatabaseError(f"{path}: entry {i} column {spelled!r} must be a JSON "
                                        f"string, not {_JSON_KINDS.get(type(cell), 'an object')}")
                row[key] = lowered[cell]
            rows.append(row)
    return EntityDb(ontology=ontology, tables=tables)


def default_entity_db(ontology: Ontology | None = None) -> EntityDb:
    """The small bundled sample database (restaurant/hotel/attraction/train)."""
    from .ontology import default_ontology

    with resources.as_file(resources.files("dialogic").joinpath("data/db")) as db_dir:
        return load_entity_db(db_dir, ontology or default_ontology())
