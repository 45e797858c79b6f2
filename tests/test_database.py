import json
from functools import partial
from importlib import resources

import pytest

from dialogic.corpus import load_seed_corpus
from dialogic.database import (
    BOOKING_SLOTS,
    DatabaseError,
    EntityDb,
    _norm_value,
    bucketize,
    default_entity_db,
    load_entity_db,
)
from dialogic.model import DbResult
from dialogic.revision import LexicalAuxPredictor
from dialogic.textnorm import match_tokens, parse_time, value_tokens

from .conftest import SEED_CORPUS_PATH, make_rng


def brute_force_count(records, constraints, *, booking=(), time_rules=()):
    """Linear-scan oracle mirroring the documented query semantics."""
    count = 0
    for record in records:
        ok = True
        for slot, value in constraints.items():
            if slot in booking or value == "dontcare" or slot not in record:
                continue
            if slot in time_rules:
                want, have = parse_time(value), parse_time(record[slot])
                if want is None or have is None:
                    ok = False
                elif time_rules[slot] == "ge":
                    ok = have >= want
                else:
                    ok = have <= want
            else:
                ok = match_tokens(record[slot]) == match_tokens(value)
            if not ok:
                break
        count += ok
    return count


def test_bucketize_thresholds():
    assert bucketize(0, True) == "db_0"
    assert bucketize(1, True) == "db_1"
    assert bucketize(2, True) == "db_2"
    assert bucketize(3, True) == "db_2"
    assert bucketize(4, True) == "db_3"
    assert bucketize(57, True) == "db_3"
    assert bucketize(5, False) == "db_nores"
    for count in range(101):
        expected = "db_0" if count == 0 else "db_1" if count == 1 else \
            "db_2" if count <= 3 else "db_3"
        assert bucketize(count, True) == expected


def test_bucketize_rejects_negative():
    with pytest.raises(ValueError):
        bucketize(-1, True)


def test_no_constraints_counts_table(entity_db):
    result = entity_db.query("hotel", {})
    assert result.count == entity_db.size("hotel")
    assert result.bucket == "db_3"


def test_query_matches_linear_scan(entity_db):
    result = entity_db.query("hotel", {"area": "south", "type": "hotel"})
    oracle = brute_force_count(
        entity_db.tables["hotel"], {"area": "south", "type": "hotel"})
    assert result.count == oracle == 1
    assert result.bucket == "db_1"


def test_query_random_constraints_match_oracle(entity_db, ontology):
    rng = make_rng(13)
    slots = {"hotel": ["area", "pricerange", "type", "parking", "stars"],
             "restaurant": ["area", "pricerange", "food"]}
    for _ in range(300):
        domain = rng.choice(list(slots))
        constraints = {}
        for slot in rng.sample(slots[domain], rng.randint(0, 3)):
            constraints[slot] = rng.choice(
                list(ontology.candidates(domain, slot)) + ["dontcare"])
        result = entity_db.query(domain, constraints)
        assert result.count == brute_force_count(entity_db.tables[domain], constraints)


def linear_scan_query(db, domain, constraints, *, strict=False):
    """Reference for `EntityDb.query`: test every row against each constraint in turn."""
    if not db.ontology.has_domain(domain):
        raise DatabaseError(f"unknown domain {domain!r}")
    if not db.ontology.queryable(domain) or domain not in db.tables:
        return DbResult(domain, 0, "db_nores")
    records = db.tables[domain]
    columns = {slot for record in records for slot in record}
    booking = BOOKING_SLOTS.get(domain, frozenset())
    time_rule = {"leave": "ge", "arrive": "le"} if domain == "train" else {}
    rows = list(records)
    for slot, value in constraints.items():
        if slot in booking or value == "dontcare":
            continue
        if slot not in columns:
            if strict:
                raise DatabaseError(f"unknown slot {domain}.{slot}")
            continue
        wanted = parse_time(value) if slot in time_rule else None
        kept = []
        for record in rows:
            if wanted is None:
                ok = slot in record and match_tokens(record[slot]) == match_tokens(value)
            else:
                have = parse_time(record.get(slot, ""))
                ok = have is not None and (
                    have >= wanted if time_rule[slot] == "ge" else have <= wanted)
            if ok:
                kept.append(record)
        rows = kept
        if not rows:
            break
    return DbResult(domain, len(rows), bucketize(len(rows), True))


def _random_trains(rng, n):
    def clock():
        return rng.choice(["", "--:--", "morning"]) if rng.random() < 0.1 else \
            f"{rng.randint(0, 23):02d}:{rng.choice([0, 1, 15, 30, 44, 59]):02d}"

    trains = []
    for i in range(n):
        row = {"id": f"tr{i:04d}", "departure": rng.choice(["cambridge", "ely", "kings lynn"]),
               "destination": rng.choice(["norwich", "stansted airport", "ely"]),
               "day": rng.choice(["monday", "friday"]), "leave": clock(), "arrive": clock()}
        if rng.random() < 0.05:
            del row[rng.choice(["leave", "arrive", "day"])]
        trains.append(row)
    return trains


def _random_constraints(rng, db, domain):
    records = db.tables[domain]
    slots = sorted({slot for record in records for slot in record})
    slots += sorted(BOOKING_SLOTS.get(domain, ())) + ["color"]
    constraints = {}
    for slot in rng.sample(slots, rng.randint(0, 4)):
        roll = rng.random()
        if roll < 0.15:
            constraints[slot] = "dontcare"
        elif roll < 0.45:
            constraints[slot] = f"{rng.randint(0, 24)}:{rng.choice(['00', '07', '30', '44', '60'])}"
        elif roll < 0.9:
            constraints[slot] = rng.choice(records).get(slot, "none")
        else:
            constraints[slot] = rng.choice(["morning", "none", "12"])
    return constraints


def test_query_matches_linear_scan_reference(entity_db, ontology):
    rng = make_rng(29)
    trains = EntityDb(ontology=ontology, tables={"train": _random_trains(rng, 120)})
    for db in (entity_db, trains):
        def index_snapshot():
            return {d: {k: frozenset(v) for k, v in index.items()} for d, index in db._index.items()}

        shared = index_snapshot()
        for domain in db.tables:
            size = db.size(domain)
            assert db.query(domain, {}) == DbResult(domain, size, bucketize(size, True))
        timed = 0
        for _ in range(1000):
            domain = rng.choice(sorted(db.tables))
            constraints = _random_constraints(rng, db, domain)
            strict = rng.random() < 0.2
            outcomes = []
            for query in (db.query, partial(linear_scan_query, db)):
                try:
                    outcomes.append(query(domain, constraints, strict=strict))
                except DatabaseError as exc:
                    outcomes.append(str(exc))
            assert outcomes[0] == outcomes[1], (domain, constraints, strict)
            timed += domain == "train" and any(parse_time(constraints.get(s, "")) is not None
                                               for s in ("leave", "arrive"))
        assert timed > 40
        # the index sets are shared by every query and must come out unchanged
        assert index_snapshot() == shared


def test_non_queryable_domain(entity_db):
    assert entity_db.query("general", {}).bucket == "db_nores"
    assert entity_db.query("taxi", {"destination": "anywhere"}).bucket == "db_nores"


def test_unknown_domain(entity_db):
    with pytest.raises(DatabaseError):
        entity_db.query("zoo", {})


def test_unknown_slot_strict(entity_db):
    with pytest.raises(DatabaseError):
        entity_db.query("hotel", {"color": "red"}, strict=True)
    assert entity_db.query("hotel", {"color": "red"}).count == entity_db.size("hotel")


def test_booking_slots_ignored(entity_db):
    with_booking = entity_db.query(
        "hotel", {"area": "south", "type": "hotel", "stay": "5", "people": "4"})
    without = entity_db.query("hotel", {"area": "south", "type": "hotel"})
    assert with_booking.count == without.count == 1


def test_train_time_inequalities(entity_db):
    result = entity_db.query(
        "train", {"destination": "birmingham new street", "arrive": "13:06"})
    oracle = brute_force_count(
        entity_db.tables["train"],
        {"destination": "birmingham new street", "arrive": "13:06"},
        time_rules={"arrive": "le"})
    assert result.count == oracle == 8
    later = entity_db.query(
        "train", {"destination": "birmingham new street", "arrive": "14:44"})
    assert later.count == 10
    leaving = entity_db.query("train", {"departure": "cambridge", "leave": "09:00"})
    oracle_leave = brute_force_count(
        entity_db.tables["train"], {"departure": "cambridge", "leave": "09:00"},
        time_rules={"leave": "ge"})
    assert leaving.count == oracle_leave


def test_query_monotone_in_constraints(entity_db, ontology):
    rng = make_rng(21)
    for _ in range(200):
        constraints = {}
        counts = [entity_db.query("hotel", constraints).count]
        for slot in rng.sample(["area", "pricerange", "type", "parking", "stars"], 3):
            constraints[slot] = rng.choice(list(ontology.candidates("hotel", slot)))
            counts.append(entity_db.query("hotel", dict(constraints)).count)
        assert all(a >= b for a, b in zip(counts, counts[1:]))


def test_dontcare_never_decreases_count(entity_db):
    tight = {"area": "south", "type": "hotel", "pricerange": "expensive"}
    for slot in tight:
        relaxed = dict(tight)
        relaxed[slot] = "dontcare"
        assert entity_db.query("hotel", relaxed).count >= entity_db.query("hotel", tight).count


def test_load_entity_db_dir(tmp_path, ontology):
    (tmp_path / "hotel_db.json").write_text(json.dumps(
        [{"name": "a", "area": "south", "type": "hotel"}]), encoding="utf-8")
    db = load_entity_db(tmp_path, ontology)
    assert db.query("hotel", {"area": "south"}).count == 1
    assert db.query("train", {}).bucket == "db_nores"


def test_load_entity_db_rejects_non_array(tmp_path, ontology):
    (tmp_path / "hotel_db.json").write_text("{}", encoding="utf-8")
    with pytest.raises(DatabaseError):
        load_entity_db(tmp_path, ontology)


def test_default_db_included_domains(entity_db):
    assert set(entity_db.tables) == {"restaurant", "hotel", "attraction", "train"}


def per_cell_index(tables, ontology):
    """Reference for `EntityDb._index`: every cell of an informable column tokenised on its own."""
    index = {}
    for domain, records in tables.items():
        informable = ontology.schema(domain).informable
        by_value = index.setdefault(domain, {})
        for i, record in enumerate(records):
            for slot, value in record.items():
                if slot in informable:
                    by_value.setdefault((slot, _norm_value(value)), set()).add(i)
    return index


def _random_repetitive_table(rng, n):
    # few distinct values, many spellings of the same tokens: hyphens, commas,
    # full stops, number words, leading zeros and digit-internal punctuation
    values = ["north", "North.", "guest-house", "guest house", "guesthouse", "3-star", "three star",
              "08:45", "8:45", "8:45.", "75.10", "75 , 10", "a, b", "a b", "kings-lynn", "", "?"]
    return [{"name": f"e{i}", **{slot: rng.choice(values) for slot in ("area", "type", "stars")}}
            for i in range(n)]


def test_index_equals_per_cell_reference(entity_db, ontology):
    rng = make_rng(31)
    hotels = _random_repetitive_table(rng, 400)
    for row in hotels:
        row["phone"] = f"01223 {rng.randint(0, 50):06d}"
    random_db = EntityDb(ontology=ontology, tables={"hotel": hotels,
                                                    "train": _random_trains(rng, 300)})
    for db in (entity_db, random_db):
        assert db._index == per_cell_index(db.tables, ontology)
    # only what a belief can constrain is indexed: no phone, address, train id or price
    assert {slot for slot, _ in entity_db._index["hotel"]} == {
        "area", "internet", "name", "parking", "pricerange", "stars", "type"}
    assert {slot for slot, _ in entity_db._index["train"]} == {
        "arrive", "day", "departure", "destination", "leave"}
    # several spellings share one key, so the index has fewer keys than spellings
    assert len(random_db._index["hotel"]) < len({(s, v) for r in random_db.tables["hotel"]
                                                  for s, v in r.items() if s != "phone"})


def _scanned_column_constraints(rng, records, slots, spell):
    """Constraints on unindexed columns: stored values, other spellings of them, misses."""
    constraints = {}
    for slot in rng.sample(slots, rng.randint(1, len(slots))):
        value = rng.choice(records)[slot]
        roll = rng.random()
        if roll < 0.1:
            constraints[slot] = "dontcare"
        elif roll < 0.5:
            constraints[slot] = spell(value)
        elif roll < 0.9:
            constraints[slot] = value
        else:
            constraints[slot] = rng.choice(["none", "12", "tr9999", "?"])
    return constraints


def test_unindexed_columns_are_scanned(entity_db, ontology):
    rng = make_rng(37)
    trains = _random_trains(rng, 2800)
    for row in trains:
        row["price"] = f"{rng.randint(1, 40)}.{rng.choice(['00', '10', '60'])} pounds"
        row["time"] = f"{rng.choice(['0', ''])}{rng.randint(1, 3)}:{rng.randint(0, 59):02d}"
    big = EntityDb(ontology=ontology, tables={"train": trains})
    assert big._index["train"] and not {"id", "price", "time"} & {s for s, _ in big._index["train"]}

    def spell(value):  # same match tokens, other characters
        return rng.choice([value.upper(), value + " .", value.replace(" ", "-")])

    cases = [(big, "train", trains, ["id", "price", "time"]),
             (entity_db, "hotel", entity_db.tables["hotel"], ["phone"])]
    value_tokens.cache_clear()
    for db, domain, records, slots in cases:
        def index_snapshot():
            return {d: {k: frozenset(v) for k, v in index.items()} for d, index in db._index.items()}

        shared = index_snapshot()
        matched = 0
        for _ in range(30):
            constraints = _scanned_column_constraints(rng, records, slots, spell)
            for strict in (False, True):
                expected = linear_scan_query(db, domain, constraints, strict=strict)
                assert db.query(domain, constraints, strict=strict) == expected, constraints
                matched += expected.count > 0
        assert matched >= 10
        # a scan builds no index entry and leaves the value memo alone
        assert index_snapshot() == shared
        assert value_tokens.cache_info() == (0, 0, value_tokens.cache_info().maxsize, 0)


def test_loaders_leave_value_memo_alone(ontology):
    db_dir = resources.files("dialogic").joinpath("data/db")
    value_tokens.cache_clear()
    before = value_tokens.cache_info()
    with resources.as_file(db_dir) as path:
        db = load_entity_db(path, ontology)
    seeds = load_seed_corpus(SEED_CORPUS_PATH, ontology)
    LexicalAuxPredictor(ontology, seeds)
    assert db._index and len(seeds) > 0
    assert value_tokens.cache_info() == before


def reference_default_tables():
    """The bundled tables as read before `default_entity_db` went through `load_entity_db`."""
    tables = {}
    for entry in resources.files("dialogic").joinpath("data/db").iterdir():
        if entry.name.endswith("_db.json"):
            records = json.loads(entry.read_text("utf-8"))
            tables[entry.name[: -len("_db.json")]] = [
                {str(k).lower(): str(v).lower() for k, v in r.items()} for r in records]
    return tables


def test_default_db_equals_reference_tables(ontology):
    assert default_entity_db(ontology).tables == reference_default_tables()
    assert default_entity_db().tables == reference_default_tables()
