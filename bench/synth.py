"""Synthetic MultiWOZ-sized ontology, entity database and seed corpus, built in code.

Everything is drawn from `random.Random(seed)`, so one seed always gives the
same files. Sizes are fixed (only the contents vary with the seed):

- restaurant / hotel / attraction tables of 100 / 30 / 80 rows, a train table
  of 20 routes x 7 days x 20 departures = 2,800 rows with leave/arrive times;
- an ontology whose candidate values give the lexical aux predictor about
  2k phrases, many of them multi-token entity, station and street names;
- a seed pool of 200 annotated dialogues over restaurant, hotel, train,
  attraction and taxi.

Seed dialogues are built so that every user turn can be augmented
turn-by-turn: per domain at most (informable slots - 3) slots are mentioned
(two for attraction, three for taxi), and the system requests at most one
informable slot at a time, and only in restaurant, hotel and train.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

from llm import GOODBYE, verbalize

AREAS = ["centre", "north", "south", "east", "west"]
PRICES = ["cheap", "moderate", "expensive"]
DAYS = ["monday", "tuesday", "wednesday", "thursday", "friday", "saturday", "sunday"]
COUNTS = [str(i) for i in range(1, 9)]

_SYLLABLES = ["ash", "bel", "cor", "dun", "elm", "fen", "gar", "hol", "kin", "lor", "mar",
              "nor", "ox", "pem", "quin", "ros", "sel", "tam", "ul", "ver", "wen", "yar",
              "bram", "cal", "dray", "grim", "hal", "lang", "mel", "sand"]
_ENDINGS = ["ford", "ton", "ley", "wick", "bury", "field", "wood", "more", "ham", "dale"]
_STREETS = ["road", "street", "lane", "avenue", "close", "crescent", "square", "way",
            "gardens", "terrace", "place", "row", "walk", "hill", "grove", "mews", "court",
            "drive", "green", "yard"]
_CUISINES = ["italian", "indian", "chinese", "thai", "french", "spanish", "greek", "turkish",
             "lebanese", "japanese", "korean", "vietnamese", "mexican", "british", "european",
             "portuguese", "moroccan", "persian", "african", "caribbean", "brazilian",
             "german", "polish", "russian", "swedish", "danish", "belgian", "swiss",
             "austrian", "hungarian", "nepalese", "malaysian", "indonesian", "singaporean",
             "cantonese", "sichuan", "tuscan", "sicilian", "basque", "catalan", "cuban",
             "peruvian", "argentinian", "jamaican", "ethiopian"]
_RESTAURANT_NOUNS = ["kitchen", "bistro", "grill", "tavern", "brasserie", "diner", "canteen",
                     "eatery", "cafe", "trattoria"]
_HOTEL_NOUNS = ["lodge", "inn", "manor", "suites", "rooms", "court"]
_ATTRACTION_TYPES = ["museum", "college", "park", "theatre", "church", "cinema", "nightclub",
                     "boat", "architecture", "entertainment", "swimming pool", "concert hall",
                     "multiple sports", "gallery", "zoo", "botanic garden", "castle",
                     "library", "market", "observatory"]
_DEPARTMENTS = ["cardiology", "neurology", "oncology", "urology", "haematology", "radiology",
                "dermatology", "gastroenterology", "paediatrics", "orthopaedics",
                "ophthalmology", "psychiatry", "nephrology", "rheumatology", "endocrinology",
                "maternity", "physiotherapy", "respiratory medicine", "infectious diseases",
                "plastic surgery", "transplant surgery", "vascular surgery", "acute medicine",
                "intensive care", "clinical genetics", "neurosurgery", "cardiac surgery",
                "emergency medicine", "medical oncology", "palliative care"]
_STATION_SUFFIXES = ["central", "junction", "parkway", "new street", "halt", "road"]

_TIMES_DAY = [f"{h:02d}:{m:02d}" for h in range(5, 24) for m in (0, 15, 30, 45)]
_TIMES_MEAL = [f"{h:02d}:{m:02d}" for h in range(11, 23) for m in (0, 15, 30, 45)]

_ACTS_ALL = ["inform", "request", "select", "recommend", "nooffer", "offerbook",
             "offerbooked", "nobook", "welcome", "greet", "bye", "reqmore"]
_ACTS_INFO = ["inform", "request", "welcome", "greet", "bye", "reqmore"]

# per domain: how many distinct slots a seed dialogue may mention
_MAX_MENTIONED = {"restaurant": 4, "hotel": 7, "train": 3, "attraction": 2, "taxi": 3}
_REQUESTING = ("restaurant", "hotel", "train")


def _words(rng: random.Random) -> list[str]:
    words = [a + b for a in _SYLLABLES for b in _ENDINGS]
    rng.shuffle(words)
    return words


def _names(rng: random.Random, words: list[str], nouns: list[str], n: int,
           taken: set[str]) -> list[str]:
    out: list[str] = []
    while len(out) < n:
        name = f"the {rng.choice(words)} {rng.choice(nouns)}"
        if name not in taken:
            taken.add(name)
            out.append(name)
    return out


def build_ontology(rng: random.Random) -> tuple[dict, dict[str, list[str]]]:
    """The ontology JSON plus the entity-name lists the tables are built from."""
    words = _words(rng)
    taken: set[str] = set()
    names = {
        "restaurant": _names(rng, words, _RESTAURANT_NOUNS, 100, taken),
        "hotel": _names(rng, words, _HOTEL_NOUNS, 30, taken),
        "attraction": _names(rng, words, ["museum", "gallery", "gardens", "college", "park",
                                          "theatre", "church", "pool", "cinema", "hall"],
                             80, taken),
    }
    stations = sorted({f"{w} {rng.choice(_STATION_SUFFIXES)}" for w in words[:40]})
    streets = sorted({f"{w} {s}" for w in words[40:] for s in _STREETS})
    rng.shuffle(streets)
    places = sorted(set(streets[:1560]) | set(stations)
                    | {n for group in names.values() for n in group})
    foods = sorted(set(_CUISINES) | {f"modern {c}" for c in _CUISINES[:45]})[:90]
    ontology = {
        "restaurant": {
            "informable": {"food": foods, "pricerange": PRICES, "area": AREAS,
                           "name": names["restaurant"], "time": _TIMES_MEAL,
                           "day": DAYS, "people": COUNTS},
            "requestable": ["address", "postcode", "phone", "reference"],
            "acts": _ACTS_ALL, "queryable": True},
        "hotel": {
            "informable": {"type": ["hotel", "guesthouse"], "pricerange": PRICES,
                           "parking": ["yes", "no"], "internet": ["yes", "no"],
                           "stars": [str(i) for i in range(6)], "area": AREAS,
                           "name": names["hotel"], "stay": COUNTS, "day": DAYS,
                           "people": COUNTS},
            "requestable": ["address", "phone", "reference"],
            "acts": _ACTS_ALL, "queryable": True},
        "attraction": {
            "informable": {"type": _ATTRACTION_TYPES, "area": AREAS,
                           "name": names["attraction"]},
            "requestable": ["address", "postcode", "phone", "reference"],
            "acts": [a for a in _ACTS_ALL if a not in ("offerbook", "offerbooked", "nobook")],
            "queryable": True},
        "taxi": {
            "informable": {"departure": places, "destination": places,
                           "leave": _TIMES_DAY, "arrive": _TIMES_DAY},
            "requestable": ["phone", "car"], "acts": _ACTS_INFO, "queryable": False},
        "train": {
            "informable": {"departure": stations, "destination": stations, "day": DAYS,
                           "leave": _TIMES_DAY, "arrive": _TIMES_DAY, "people": COUNTS},
            "requestable": ["id", "price", "time", "reference"],
            "acts": [a for a in _ACTS_ALL if a not in ("recommend", "nobook")],
            "queryable": True},
        "hospital": {
            "informable": {"department": _DEPARTMENTS + [f"{d} unit" for d in _DEPARTMENTS]},
            "requestable": ["address", "postcode", "phone"], "acts": _ACTS_INFO,
            "queryable": False},
        "police": {"informable": {}, "requestable": ["address", "postcode", "phone"],
                   "acts": _ACTS_INFO, "queryable": False},
        "general": {"informable": {}, "requestable": [],
                    "acts": ["welcome", "greet", "bye", "reqmore"], "queryable": False},
    }
    return ontology, {**names, "station": stations, "street": streets}


def _phone(rng: random.Random) -> str:
    return "01223" + "".join(rng.choice("0123456789") for _ in range(6))


def build_tables(rng: random.Random, ontology: dict, names: dict[str, list[str]]
                 ) -> dict[str, list[dict[str, str]]]:
    inf = {d: spec["informable"] for d, spec in ontology.items()}
    street = names["street"]
    restaurants = [{"name": n, "food": rng.choice(inf["restaurant"]["food"]),
                    "pricerange": rng.choice(PRICES), "area": rng.choice(AREAS),
                    "address": rng.choice(street), "postcode": f"cb{rng.randint(10, 99)}",
                    "phone": _phone(rng)} for n in names["restaurant"]]
    hotels = [{"name": n, "type": rng.choice(["hotel", "guesthouse"]),
               "pricerange": rng.choice(PRICES), "area": rng.choice(AREAS),
               "parking": rng.choice(["yes", "no"]), "internet": rng.choice(["yes", "no"]),
               "stars": str(rng.randint(0, 5)), "address": rng.choice(street),
               "phone": _phone(rng)} for n in names["hotel"]]
    attractions = [{"name": n, "type": rng.choice(_ATTRACTION_TYPES), "area": rng.choice(AREAS),
                    "address": rng.choice(street), "postcode": f"cb{rng.randint(10, 99)}",
                    "phone": _phone(rng)} for n in names["attraction"]]
    stations = names["station"]
    routes: list[tuple[str, str]] = []
    for a, b in zip(rng.sample(stations, 10), rng.sample(stations, 10)):
        if a == b:
            b = stations[(stations.index(a) + 1) % len(stations)]
        routes += [(a, b), (b, a)]
    trains = []
    for departure, destination in routes:
        minutes = rng.randint(20, 180)
        for day in DAYS:
            for k in range(20):
                leave = 5 * 60 + rng.randint(0, 3) + k * 50
                arrive = leave + minutes
                trains.append({
                    "id": f"tr{len(trains):04d}", "departure": departure,
                    "destination": destination, "day": day,
                    "leave": f"{leave // 60 % 24:02d}:{leave % 60:02d}",
                    "arrive": f"{arrive // 60 % 24:02d}:{arrive % 60:02d}",
                    "price": f"{minutes / 7:.2f} pounds", "time": f"{minutes} minutes"})
    return {"restaurant": restaurants, "hotel": hotels, "attraction": attractions,
            "train": trains}


def _db_field(domain: str, state: dict[str, str], tables: dict) -> dict:
    if domain not in tables:
        return {"domain": domain, "count": 0, "bucket": "db_nores"}
    count = sum(all(row.get(s, v) == v for s, v in state.items() if s not in ("leave", "arrive"))
                for row in tables[domain])
    bucket = ("db_0" if count == 0 else "db_1" if count == 1
              else "db_2" if count <= 3 else "db_3")
    return {"domain": domain, "count": count, "bucket": bucket}


def build_seed_dialogue(rng: random.Random, index: int, ontology: dict,
                        tables: dict) -> dict:
    """One seed dialogue: per domain, 1-3 user turns of 1-3 slots each, then goodbye."""
    domains = rng.sample(list(_MAX_MENTIONED), rng.choice([1, 1, 2, 2, 2, 3]))
    goal: dict[str, dict[str, str]] = {}
    turns = []
    for n, domain in enumerate(domains):
        informable = ontology[domain]["informable"]
        slots = rng.sample(list(informable), rng.randint(1, _MAX_MENTIONED[domain]))
        goal[domain] = {s: rng.choice(informable[s]) for s in slots}
        triples = [(domain, s, v) for s, v in goal[domain].items()]
        state: dict[str, str] = {}
        first = True
        while triples:
            k = rng.randint(1, 3)
            chunk, triples = triples[:k], triples[k:]
            state.update({s: v for _, s, v in chunk})
            unmentioned = [s for s in informable if s not in goal[domain]]
            if triples and domain == "taxi":
                act, resp = [[domain, "inform", "car"]], "i can send a [value_car] ."
            elif triples:
                act, resp = [[domain, "inform", "choice"]], "there are [value_choice] of those ."
                if domain in _REQUESTING and unmentioned:
                    slot = rng.choice(unmentioned)
                    act.append([domain, "request", slot])
                    resp += f" what {slot} would you like ?"
            elif domain in ("restaurant", "hotel", "train"):
                act = [[domain, "offerbook", "none"]]
                resp = "i found one for you . shall i book it ?"
            elif domain == "taxi":
                act, resp = [[domain, "inform", "car"]], "your car is a [value_car] ."
            else:
                act, resp = [[domain, "inform", "address"]], "it is at [value_address] ."
            if not triples and n < len(domains) - 1:
                act.append(["general", "reqmore", "none"])
                resp += " anything else ?"
            turns.append({
                "user": verbalize(domain, chunk, first, rng.random()),
                "belief": {domain: {s: v for _, s, v in chunk}},
                "db": _db_field(domain, state, tables),
                "act": act, "resp": resp})
            first = False
    turns.append({"user": GOODBYE, "belief": {"general": {}},
                  "db": {"domain": "general", "count": 0, "bucket": "db_nores"},
                  "act": [["general", "bye", "none"]],
                  "resp": "thank you for using our service . goodbye ."})
    return {"id": f"SYN{index:04d}", "goal": goal, "source": "seed", "turns": turns}


def lexicon_phrases(ontology: dict) -> int:
    """Phrases the lexical aux predictor builds from these candidate values.

    Mirrors its documented rule: the special values, bare numbers, day names
    and clock times fire contextually and are left out.
    """
    from dialogic.textnorm import match_tokens, parse_time

    phrases = set()
    for spec in ontology.values():
        for values in spec["informable"].values():
            for value in values:
                tokens = tuple(match_tokens(value))
                if value in ("yes", "no", "dontcare", "none") or not tokens:
                    continue
                if all(t.isdigit() for t in tokens):
                    continue
                if len(tokens) == 1 and (tokens[0] in DAYS or parse_time(tokens[0]) is not None):
                    continue
                phrases.add(tokens)
    return len(phrases)


def dataset_paths(out_dir: Path) -> dict[str, Path]:
    return {"ontology": out_dir / "ontology.json", "db": out_dir / "db",
            "seeds": out_dir / "seed_corpus.json"}


def write_dataset(out_dir: Path, seed: int, n_dialogues: int = 200) -> dict[str, Path]:
    """Write ontology.json, db/<domain>_db.json and seed_corpus.json under out_dir."""
    rng = random.Random(seed)
    ontology, names = build_ontology(rng)
    tables = build_tables(rng, ontology, names)
    dialogues = [build_seed_dialogue(rng, i, ontology, tables) for i in range(n_dialogues)]
    paths = dataset_paths(out_dir)
    db_dir = paths["db"]
    db_dir.mkdir(parents=True, exist_ok=True)
    paths["ontology"].write_text(json.dumps(ontology, indent=1), "utf-8")
    for domain, rows in tables.items():
        (db_dir / f"{domain}_db.json").write_text(json.dumps(rows, indent=1), "utf-8")
    paths["seeds"].write_text(json.dumps({"dialogues": dialogues}, indent=1), "utf-8")
    return paths


if __name__ == "__main__":
    # python3 bench/synth.py OUT_DIR SEED  (with the package's src/ on PYTHONPATH)
    write_dataset(Path(sys.argv[1]), int(sys.argv[2]))
