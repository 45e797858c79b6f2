import json
import random
import re
import sys
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dialogic import database
from dialogic.database import (
    DatabaseError,
    EntityDb,
    bucketize,
    default_entity_db,
    load_entity_db,
)
from dialogic.model import DbResult
from dialogic.ontology import Ontology
from dialogic.textnorm import match_tokens, parse_time, value_tokens

from .conftest import make_rng

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import synth  # noqa: E402


@pytest.fixture(scope="module")
def default_tables():
    """The rows the bundled DB is built from, every column kept."""
    return reference_default_tables()


def built(db):
    """What a query reads: the index, the indexed columns, the presorted times, the row counts."""
    return db._index, db._indexed, db._times, {d: db.size(d) for d in db.ontology.domains}


def time_of(value):
    """The minutes of a value whose match tokens are one time token, else None."""
    tokens = match_tokens(value)
    return parse_time(tokens[0]) if len(tokens) == 1 else None


def brute_force_count(records, constraints, *, time_rules=()):
    """Linear-scan oracle mirroring the documented query semantics: a slot that is
    no column of the table constrains nothing, and a row without a constrained
    column is dropped."""
    columns = {slot for record in records for slot in record}
    count = 0
    for record in records:
        ok = True
        for slot, value in constraints.items():
            if value == "dontcare" or slot not in columns:
                continue
            if slot not in record:
                ok = False
                break
            want = time_of(value) if slot in time_rules else None
            if want is not None:
                have = time_of(record[slot])
                if have is None:
                    ok = False
                elif time_rules[slot] == "ge":
                    ok = have >= want
                else:
                    ok = have <= want
            else:  # a time cell is only selected by a time bound
                ok = (match_tokens(record[slot]) == match_tokens(value)
                      and (slot not in time_rules or time_of(record[slot]) is None))
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


def test_query_matches_linear_scan(entity_db, default_tables):
    result = entity_db.query("hotel", {"area": "south", "type": "hotel"})
    oracle = brute_force_count(
        default_tables["hotel"], {"area": "south", "type": "hotel"})
    assert result.count == oracle == 1
    assert result.bucket == "db_1"


def test_query_random_constraints_match_oracle(entity_db, default_tables, ontology):
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
        assert result.count == brute_force_count(default_tables[domain], constraints)


def linear_scan_query(ontology, tables, domain, constraints):
    """Reference for `EntityDb.query` on a DB built from `tables`: test every
    row against each constraint in turn.

    Only a slot that is informable in the domain and a column of its table constrains.
    """
    if not ontology.has_domain(domain):
        raise DatabaseError(f"unknown domain {domain!r}")
    if not ontology.queryable(domain) or domain not in tables:
        return DbResult(domain, 0, "db_nores")
    records = tables[domain]
    columns = {slot for record in records for slot in record}
    informable = ontology.schema(domain).informable
    time_rule = {"leave": "ge", "arrive": "le"}  # in any domain whose table holds them
    rows = list(records)
    for slot, value in constraints.items():
        if value == "dontcare" or slot not in informable or slot not in columns:
            continue
        wanted = time_of(value) if slot in time_rule else None
        kept = []
        for record in rows:
            if wanted is None:
                ok = (slot in record and match_tokens(record[slot]) == match_tokens(value)
                      and (slot not in time_rule or time_of(record[slot]) is None))
            else:
                have = time_of(record.get(slot, ""))
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
        # cells that are not times, and times spelled with trailing punctuation
        return rng.choice(["", "--:--", "morning", "24:00", "9:15 .", "09:15."]) \
            if rng.random() < 0.1 else \
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


# informable slots the bundled tables do not hold: a query reads no constraint on them
UNHELD_SLOTS = {"hotel": ("day", "people", "stay"), "restaurant": ("day", "people", "time"),
                "train": ("people",)}


def _random_constraints(rng, records, domain):
    slots = sorted({slot for record in records for slot in record})
    slots += [*UNHELD_SLOTS.get(domain, ()), "color"]
    constraints = {}
    for slot in rng.sample(slots, rng.randint(0, 4)):
        roll = rng.random()
        if roll < 0.15:
            constraints[slot] = "dontcare"
        elif roll < 0.45:
            clock = f"{rng.randint(0, 24)}:{rng.choice(['00', '07', '30', '44', '60'])}"
            constraints[slot] = clock + rng.choice(["", "", ".", " ."])
        elif roll < 0.9:
            constraints[slot] = rng.choice(records).get(slot, "none")
        else:
            constraints[slot] = rng.choice(["morning", "none", "12"])
    return constraints


def test_query_matches_linear_scan_reference(entity_db, default_tables, ontology):
    rng = make_rng(29)
    train_tables = {"train": _random_trains(rng, 120)}
    trains = EntityDb(ontology=ontology, tables=train_tables)
    for db, tables in ((entity_db, default_tables), (trains, train_tables)):
        def index_snapshot():
            return {d: {k: frozenset(v) for k, v in index.items()} for d, index in db._index.items()}

        shared = index_snapshot()
        for domain in tables:
            size = db.size(domain)
            assert db.query(domain, {}) == DbResult(domain, size, bucketize(size, True))
        timed = 0
        for _ in range(1000):
            domain = rng.choice(sorted(tables))
            constraints = _random_constraints(rng, tables[domain], domain)
            assert db.query(domain, constraints) == linear_scan_query(
                ontology, tables, domain, constraints), (domain, constraints)
            timed += domain == "train" and any(time_of(constraints.get(s, "")) is not None
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


def test_unknown_slot_ignored(entity_db):
    assert entity_db.query("hotel", {"color": "red"}).count == entity_db.size("hotel")


def test_booking_slots_ignored(entity_db):
    with_booking = entity_db.query(
        "hotel", {"area": "south", "type": "hotel", "stay": "5", "people": "4"})
    without = entity_db.query("hotel", {"area": "south", "type": "hotel"})
    assert with_booking.count == without.count == 1


def test_train_time_inequalities(entity_db, default_tables, ontology):
    result = entity_db.query(
        "train", {"destination": "birmingham new street", "arrive": "13:06"})
    oracle = brute_force_count(
        default_tables["train"],
        {"destination": "birmingham new street", "arrive": "13:06"},
        time_rules={"arrive": "le"})
    assert result.count == oracle == 8
    later = entity_db.query(
        "train", {"destination": "birmingham new street", "arrive": "14:44"})
    assert later.count == 10
    leaving = entity_db.query("train", {"departure": "cambridge", "leave": "09:00"})
    oracle_leave = brute_force_count(
        default_tables["train"], {"departure": "cambridge", "leave": "09:00"},
        time_rules={"leave": "ge"})
    assert leaving.count == oracle_leave
    # 4 of these rows lack `leave`, and a row without the column is dropped
    rows = _random_trains(make_rng(43), 400)
    trains = EntityDb(ontology=ontology, tables={"train": rows})
    assert (trains.query("train", {"leave": "12:00"}).count
            == brute_force_count(rows, {"leave": "12:00"}, time_rules={"leave": "ge"})
            == linear_scan_query(ontology, {"train": rows}, "train", {"leave": "12:00"}).count
            == 176)


def test_time_constraint_read_by_its_tokens(ontology):
    """A train time with trailing punctuation bounds like the bare time; a value that
    is not one time token matches exactly, and only a cell that is not a time."""
    synth_rng = random.Random(5)  # the benchmark's seed-5 data, as `synth.write_dataset` draws it
    synthetic, names = synth.build_ontology(synth_rng)
    synthetic_ontology = Ontology.from_json(synthetic)
    trains = synth.build_tables(synth_rng, synthetic, names)["train"]
    rng = make_rng(41)
    odd = _random_trains(rng, 400)
    for row in odd[:40]:
        row["leave"] = rng.choice(["24:00", "after 05:03", "05:03.", "morning"])
    values = ["05:03", "05:03.", "5:03", "05:03 .", "24:00", "after 05:03", "12:60"]
    for onto, records in ((synthetic_ontology, trains), (ontology, odd)):
        db = EntityDb(ontology=onto, tables={"train": records})
        counts = {}
        for slot in ("leave", "arrive"):
            for value in values:
                result = db.query("train", {slot: value})
                assert result == linear_scan_query(onto, {"train": records}, "train",
                                                   {slot: value}), (slot, value)
                counts[slot, value] = result.count
        for slot in ("leave", "arrive"):  # the four spellings of one time bound alike
            assert len({counts[slot, v] for v in values[:4]}) == 1
        # a time cell is not an index key
        assert not any(slot in ("leave", "arrive") and time_of(" ".join(tokens)) is not None
                       for slot, tokens in db._index["train"])
    synthetic_db = EntityDb(ontology=synthetic_ontology, tables={"train": trains})
    assert synthetic_db.query("train", {"leave": "05:03."}).count == 2699
    assert synthetic_db.query("train", {"leave": "24:00"}).count == 0
    odd_db = EntityDb(ontology=ontology, tables={"train": odd})
    assert odd_db.query("train", {"leave": "24:00"}).count == sum(
        r.get("leave") == "24:00" for r in odd) > 0


def test_time_columns_bound_in_any_queryable_domain(ontology):
    """`leave` and `arrive` bound by bisection in a queryable domain of any name:
    a train table under another domain name answers every query as train does."""
    rng = make_rng(43)
    rows = _random_trains(rng, 400)
    renamed = Ontology(domains={"train": ontology.schema("train"),
                                "coach": ontology.schema("train")})
    tables = {"train": rows, "coach": rows}
    db = EntityDb(ontology=renamed, tables=tables)
    assert set(db._times) == {(d, s) for d in tables for s in ("leave", "arrive")}
    assert not any(slot in ("leave", "arrive") and time_of(" ".join(tokens)) is not None
                   for slot, tokens in db._index["coach"])
    bounded = 0
    for _ in range(300):
        constraints = {}
        for slot in rng.sample(["departure", "day", "leave", "arrive"], rng.randint(1, 3)):
            constraints[slot] = rng.choice(
                [row.get(slot, "") for row in rng.sample(rows, 3)] + ["09:15 .", "dontcare"])
        result = db.query("coach", constraints)
        assert result == linear_scan_query(renamed, tables, "coach", constraints), constraints
        as_train = db.query("train", constraints)
        assert (result.count, result.bucket) == (as_train.count, as_train.bucket)
        bounded += 0 < result.count < len(rows)
    assert bounded > 100
    leaving = [time_of(row.get("leave", "")) for row in rows]
    assert db.query("coach", {"leave": "12:00"}).count == sum(
        minutes is not None and minutes >= 720 for minutes in leaving) > 0


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
    path = tmp_path / "hotel_db.json"
    for text in ("{}", '{"area": null}', '"hotels"'):
        path.write_text(text, encoding="utf-8")
        with pytest.raises(DatabaseError, match=re.escape(f"{path}: expected a JSON array")):
            load_entity_db(tmp_path, ontology)


def test_load_entity_db_rejects_non_object_entries(tmp_path, ontology):
    path = tmp_path / "hotel_db.json"
    path.write_text(json.dumps([{"name": "a"}, [{"name": "b"}]]), encoding="utf-8")
    with pytest.raises(DatabaseError, match=re.escape(f"{path}: entry 1 is not an object")):
        load_entity_db(tmp_path, ontology)


def loaded_rows(monkeypatch, db_dir, ontology):
    """The DB `load_entity_db` builds from `db_dir`, and the rows it built that DB from."""
    seen = {}

    def record_rows(ontology, tables):
        seen.update(tables)
        return EntityDb(ontology=ontology, tables=tables)

    monkeypatch.setattr(database, "EntityDb", record_rows)
    return load_entity_db(db_dir, ontology), seen


def test_load_entity_db_lowers_like_reference_and_shares_strings(tmp_path, monkeypatch, ontology):
    """Rows equal the per-cell `v.lower()` copy of the informable columns, and no
    other column; equal lowered texts are one string."""
    cells = ["North", "north", "NORTH", "1", "1.0", "None", "TRUE", "", "Guest House", "12:30"]
    unread = [1, 1.0, True, None, [1, "A"], {"Area": "North"}, "Phone"]
    rng = make_rng(7)
    files = {
        # case-variant keys across entries; within one entry they are an error (below)
        "hotel": [{rng.choice(["Area", "area", "AREA"]): rng.choice(cells), "Name": f"H{i}",
                   "stars": rng.choice(cells), rng.choice(["Phone", "phone"]): rng.choice(unread),
                   "location": [52.2, 0.1]} for i in range(60)],
        "train": [{"DAY": rng.choice(cells), "leave": rng.choice(cells),
                   "price": rng.choice(unread)} for i in range(60)],
    }
    for domain, records in files.items():
        (tmp_path / f"{domain}_db.json").write_text(json.dumps(records), encoding="utf-8")
    db, tables = loaded_rows(monkeypatch, tmp_path, ontology)
    reference = {domain: [{k.lower(): v.lower() for k, v in r.items()
                           if k.lower() in ontology.schema(domain).informable}
                          for r in json.loads((tmp_path / f"{domain}_db.json").read_text("utf-8"))]
                 for domain in files}
    assert tables == reference
    assert built(db) == built(EntityDb(ontology, reference))
    shared = {}
    for records in tables.values():
        for record in records:
            for text in (*record, *record.values()):
                assert shared.setdefault(text, text) is text
    assert {"north", "1", "1.0", "true", "none", "12:30"} <= set(shared)
    assert not {"phone", "location", "price"} & set(shared)


def test_db_keeps_no_row(entity_db):
    assert not hasattr(entity_db, "tables")
    assert set(vars(entity_db)) == {"ontology", "_sizes", "_index", "_indexed", "_times"}


def test_unread_columns_change_nothing(tmp_path, ontology):
    """Extra columns no belief names, of any JSON type, leave the DB as it is without them."""
    rng = make_rng(41)
    files = {"hotel": [{"name": f"h{i % 7}", "area": rng.choice(["north", "South", "east"]),
                        "stars": rng.choice(["3", "4"])} for i in range(80)],
             "train": _random_trains(rng, 300)}
    for kind in ("narrow", "wide"):
        (tmp_path / kind).mkdir()
    for domain, records in files.items():
        wide = [{**record, "phone": f"01223 {rng.randint(0, 99):06d}", "location": [52.2, 0.1 * i],
                 "price": {"single": i, "return": None}, "id": rng.choice([i, None, True, "x"]),
                 # a nested object is not an entry: keys and cells that would be
                 # faults in an entry are not read
                 "facilities": {"Area": None, "area": [1], "name": {"stars": 4}}}
                for i, record in enumerate(records)]
        for kind, rows in (("narrow", records), ("wide", wide)):
            (tmp_path / kind / f"{domain}_db.json").write_text(json.dumps(rows), "utf-8")
    narrow = load_entity_db(tmp_path / "narrow", ontology)
    wide = load_entity_db(tmp_path / "wide", ontology)
    assert built(wide) == built(narrow)
    assert built(narrow) == built(EntityDb(ontology, {domain: [
        {k: v.lower() for k, v in r.items()} for r in records] for domain, records in files.items()}))
    for _ in range(300):
        domain = rng.choice(sorted(files))
        constraints = _random_constraints(rng, files[domain], domain)
        assert wide.query(domain, constraints) == narrow.query(domain, constraints)


@pytest.mark.parametrize("column", ["area", "Area"])
@pytest.mark.parametrize(("cell", "kind"), [
    (None, "null"), (4, "a number"), (2.5, "a number"), (True, "a boolean"),
    (["north"], "an array"), ({"area": "north"}, "an object"), ({"area": None}, "an object")],
    ids=["null", "int", "float", "boolean", "list", "object", "faulty-object"])
def test_load_entity_db_refuses_non_string_cells(tmp_path, ontology, column, cell, kind):
    """A cell the index reads is a JSON string, never its `str()`: a `null` area is not `none`."""
    path = tmp_path / "hotel_db.json"
    # entry 1 has entry 0's key order when the column is spelled `area`, and its own otherwise
    path.write_text(json.dumps([{"name": "a", "area": "north", "phone": None},
                                {"name": "b", column: cell, "phone": None}]), encoding="utf-8")
    with pytest.raises(DatabaseError, match=re.escape(
            f"{path}: entry 1 column {column!r} must be a JSON string, not {kind}")):
        load_entity_db(tmp_path, ontology)


def test_load_entity_db_rejects_case_variant_keys(tmp_path, ontology):
    """Lowering would merge the two columns and lose one; the error names both keys."""
    path = tmp_path / "hotel_db.json"
    path.write_text(json.dumps([{"name": "a", "area": "east"},
                                {"name": "b", "Area": "north", "type": "x", "area": "south"}]),
                    encoding="utf-8")
    with pytest.raises(DatabaseError, match=re.escape(
            f"{path}: entry 1 has keys 'Area' and 'area', which differ only in case")):
        load_entity_db(tmp_path, ontology)
    # columns the index does not read are checked too
    path.write_text(json.dumps([{"name": "a", "Phone": "1", "phone": "2"}]), encoding="utf-8")
    with pytest.raises(DatabaseError, match=re.escape(
            f"{path}: entry 0 has keys 'Phone' and 'phone', which differ only in case")):
        load_entity_db(tmp_path, ontology)


def test_default_db_included_domains(entity_db):
    assert set(entity_db._sizes) == {"restaurant", "hotel", "attraction", "train"}


def per_cell_index(tables, ontology):
    """Reference for `EntityDb._index`: every cell of an informable column tokenised
    on its own, but for the times of a train time column, which a bound selects."""
    index = {}
    for domain, records in tables.items():
        informable = ontology.schema(domain).informable
        timed = {"leave", "arrive"} if domain == "train" else set()
        by_value = index.setdefault(domain, {})
        for i, record in enumerate(records):
            for slot, value in record.items():
                if slot in informable and not (slot in timed and time_of(value) is not None):
                    by_value.setdefault((slot, value_tokens(value)), set()).add(i)
    return index


def _random_repetitive_table(rng, n):
    # few distinct values, many spellings of the same tokens: hyphens, commas,
    # full stops, number words, leading zeros and digit-internal punctuation
    values = ["north", "North.", "guest-house", "guest house", "guesthouse", "3-star", "three star",
              "08:45", "8:45", "8:45.", "75.10", "75 , 10", "a, b", "a b", "kings-lynn", "", "?"]
    return [{"name": f"e{i}", **{slot: rng.choice(values) for slot in ("area", "type", "stars")}}
            for i in range(n)]


def test_index_equals_per_cell_reference(entity_db, default_tables, ontology):
    rng = make_rng(31)
    hotels = _random_repetitive_table(rng, 400)
    for row in hotels:
        row["phone"] = f"01223 {rng.randint(0, 50):06d}"
    random_tables = {"hotel": hotels, "train": _random_trains(rng, 300)}
    random_db = EntityDb(ontology=ontology, tables=random_tables)
    for db, tables in ((entity_db, default_tables), (random_db, random_tables)):
        index = db._index
        assert {domain: {key: set(rows) for key, rows in by_key.items()}
                for domain, by_key in index.items()} == per_cell_index(tables, ontology)
        # each key's rows are held as an ascending tuple, not a set
        for by_key in index.values():
            for rows in by_key.values():
                assert type(rows) is tuple and list(rows) == sorted(set(rows))
    # only what a belief can constrain is indexed: no phone, address, train id or price
    assert {slot for slot, _ in entity_db._index["hotel"]} == {
        "area", "internet", "name", "parking", "pricerange", "stars", "type"}
    # every bundled train time is a time: the time columns are bounded, not indexed
    assert {slot for slot, _ in entity_db._index["train"]} == {"day", "departure", "destination"}
    assert {"leave", "arrive"} <= entity_db._indexed["train"]
    # several spellings share one key, so the index has fewer keys than spellings
    assert len(random_db._index["hotel"]) < len({(s, v) for r in hotels
                                                  for s, v in r.items() if s != "phone"})


def test_held_slots_are_the_informable_slots_a_table_holds(entity_db, ontology):
    """The bundled tables hold every informable slot of their domain but those of
    UNHELD_SLOTS; a domain with no table, in any DB, holds none."""
    for domain in ontology.domains:
        want = set(ontology.informable_slots(domain)) - set(UNHELD_SLOTS.get(domain, ()))
        assert entity_db.held_slots(domain) == (want if entity_db.size(domain) else set()), domain
    assert EntityDb(ontology).held_slots("hotel") == frozenset()


def test_unindexed_columns_constrain_nothing(entity_db, default_tables, ontology):
    rng = make_rng(37)
    trains = _random_trains(rng, 2800)
    for row in trains:
        row["price"] = f"{rng.randint(1, 40)}.{rng.choice(['00', '10', '60'])} pounds"
    big_tables = {"train": trains}
    big = EntityDb(ontology=ontology, tables=big_tables)
    unindexed = {"phone", "id", "price"}
    checked = set()
    for db, tables in ((entity_db, default_tables), (big, big_tables)):
        for domain in sorted(tables):
            records = tables[domain]
            slots = sorted(unindexed & set().union(*records))
            if not slots:
                continue
            assert not set(slots) & {s for s, _ in db._index[domain]}
            for slot in slots:  # a stored value alone still counts the whole table
                assert db.query(domain, {slot: records[0][slot]}).count == db.size(domain)
            for _ in range(30):
                constraints = {s: v for s, v in _random_constraints(rng, records, domain).items()
                               if s not in unindexed}
                extra = {slot: rng.choice([rng.choice(records)[slot], "tr9999", "?"])
                         for slot in rng.sample(slots, rng.randint(1, len(slots)))}
                assert db.query(domain, {**constraints, **extra}) == db.query(domain, constraints)
            checked.update((db is big, slot) for slot in slots)
    assert checked == {(False, "phone"), (False, "id"), (False, "price"),
                       (True, "id"), (True, "price")}


def reference_default_tables():
    """The bundled tables, every column read and lower-cased on its own:
    a reference that does not go through `load_entity_db`."""
    tables = {}
    for entry in resources.files("dialogic").joinpath("data/db").iterdir():
        if entry.name.endswith("_db.json"):
            records = json.loads(entry.read_text("utf-8"))
            tables[entry.name[: -len("_db.json")]] = [
                {str(k).lower(): str(v).lower() for k, v in r.items()} for r in records]
    return tables


def test_default_db_equals_reference_tables(ontology):
    reference = built(EntityDb(ontology, reference_default_tables()))
    assert built(default_entity_db(ontology)) == reference
    assert built(default_entity_db()) == reference


BUNDLED_HOTELS = resources.files("dialogic").joinpath("data/db/hotel_db.json").read_text("utf-8")


@settings(max_examples=80, deadline=None)
@given(cut=st.floats(0.0, 1.0, exclude_max=True))
def test_truncated_db_file_is_a_database_error_with_the_decoders_place(tmp_path_factory,
                                                                       ontology, cut):
    root = tmp_path_factory.mktemp("truncated")
    path = root / "hotel_db.json"
    text = BUNDLED_HOTELS[:int(cut * len(BUNDLED_HOTELS))]
    path.write_text(text, encoding="utf-8")
    try:
        json.loads(text)
    except json.JSONDecodeError as exc:
        expected = f"{path}: not valid JSON ({exc})"
    else:  # only the closing newline was cut
        assert load_entity_db(root, ontology).size("hotel") == len(json.loads(BUNDLED_HOTELS))
        return
    with pytest.raises(DatabaseError) as err:
        load_entity_db(root, ontology)
    assert str(err.value) == expected


@pytest.mark.parametrize("text", [
    "", "  \n ", "[]\n{}", "[] []", "[,]", "[\n", "[}", "\ufeff[]", '[{"name": "a"} {}]',
    '[{"name": "a"}, {"name": }]', '[{"name": "a", "area" "north"}]',
    # a syntax error after a shape fault is reported, as json.loads reports it
    '{"area": null, "x": ]}',
    "null", '{"hotels": []}',
])
def test_damaged_db_file_is_the_database_error_json_loads_implies(tmp_path, ontology, text):
    """Invalid JSON is named with the decoder's message and place, a wrong shape as such."""
    path = tmp_path / "hotel_db.json"
    path.write_text(text, encoding="utf-8")
    try:
        json.loads(text)
    except json.JSONDecodeError as exc:
        expected = f"{path}: not valid JSON ({exc})"
    else:
        expected = f"{path}: expected a JSON array"
    with pytest.raises(DatabaseError) as err:
        load_entity_db(tmp_path, ontology)
    assert str(err.value) == expected


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_fault_in_a_db_entry_comes_before_a_later_syntax_error(tmp_path_factory, ontology, data):
    """Each entry becomes its row before the next is decoded, so faults are met in file order."""
    entries = [json.dumps(row) for row in json.loads(BUNDLED_HOTELS)]
    i = data.draw(st.integers(0, len(entries) - 1), label="entry")
    fault, message = data.draw(st.sampled_from([
        (["h"], "is not an object"),
        ({"name": "x", "Area": "north", "area": "south"},
         "has keys 'Area' and 'area', which differ only in case"),
        ({"name": "x", "area": None}, "column 'area' must be a JSON string, not null"),
        ({"name": "x", "stars": {"Area": None}},
         "column 'stars' must be a JSON string, not an object"),
    ]))
    entries[i] = json.dumps(fault)
    text = "[\n" + ",\n".join(entries) + "\n]\n"
    end = len("[\n") + sum(len(e) + len(",\n") for e in entries[:i]) + len(entries[i])
    # the file is cut after entry i and before the closing bracket
    cut = data.draw(st.integers(end, text.rindex("]") - 1), label="cut")
    root = tmp_path_factory.mktemp("faulty")
    path = root / "hotel_db.json"
    path.write_text(text[:cut] + data.draw(st.sampled_from(["", "}", ", ,"])), encoding="utf-8")
    with pytest.raises(json.JSONDecodeError):
        json.loads(path.read_text(encoding="utf-8"))
    with pytest.raises(DatabaseError, match=re.escape(f"{path}: entry {i} {message}")):
        load_entity_db(root, ontology)
