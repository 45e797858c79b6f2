"""Shared fixtures: bundled ontology/corpus/db plus the worked six-turn trace."""

from __future__ import annotations

import json
import random
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from importlib import resources

import pytest

from dialogic.backend import MockBackend, ReplayBackend, record_transcript
from dialogic.corpus import SeedDataset, load_seed_corpus
from dialogic.database import default_entity_db
from dialogic.model import NO_RESULT, DbResult, DialogAct, GenConfig, Turn, TurnBelief, UserGoal
from dialogic.ontology import default_ontology
from dialogic.revision import LexicalAuxPredictor
from dialogic.simulator import simulate_dialogue
from dialogic.textnorm import utterance_view

SEED_CORPUS_PATH = str(resources.files("dialogic").joinpath("data/seed_corpus.json"))

# raw LLM completions for the six-turn hotel+train reference dialogue; even
# indices are user turns, odd indices system turns
TRACE_SCRIPT = [
    "[hotel] area is south , stay is 5 , people is 4): i need a hotel in the south side please .",
    "[hotel] [inform] area name internet parking type stars [offerbook]): the [value_name] "
    "hotel is in the south side and it has [value_internet] . the price is [value_price] "
    "per night and it has [value_parking] . it is a [value_stars] star hotel .",
    "[hotel] stay is 5 , people is 4): i would like to to book it for 4 people and 5 nights .",
    "[hotel] [offerbooked] reference [general] [reqmore]): your booking reference number "
    "is [value_reference] .",
    "[train] destination is birmingham new street , arrive is 13:06): i need a train to "
    "birmingham new street station that arrives by 13:06 please .",
    "[train] [request] day departure): what day will you be leaving and what is your "
    "departure station ?",
    "[train] day is saturday , departure is cambridge): i will be leaving this saturday "
    "from cambridge station .",
    "[train] [inform] arrive id leave [offerbook]): the train arrives at [value_arrive] "
    "and the id is [value_id] . would you like me to book it for you ?",
    "[train]): no thank you . what is the cost of the ticket ?",
    "[train] [inform] price [general] [reqmore]): the ticket price is [value_price] . "
    "can i be of further assistance ?",
    "[general]): that is all for now . thanks",
    "[general] [bye]): you are welcome , please contact us if you need anything else .",
]

TRACE_GOAL = {
    "hotel": {"area": "south", "stay": "5", "people": "4"},
    "train": {"destination": "birmingham new street", "arrive": "13:06"},
}

TRACE_REVISED_BELIEFS = [
    {"hotel": {"area": "south", "type": "hotel"}},
    {"hotel": {"stay": "5", "people": "4"}},
    {"train": {"destination": "birmingham new street", "arrive": "13:06"}},
    {"train": {"day": "saturday", "departure": "cambridge"}},
    {"train": {}},
    {"general": {}},
]

TRACE_DB_BUCKETS = ["db_1", "db_1", "db_3", "db_3", "db_3", "db_nores"]

TRACE_REVISED_ACTS = [
    [["hotel", "inform", "area"], ["hotel", "inform", "name"], ["hotel", "inform", "internet"],
     ["hotel", "inform", "parking"], ["hotel", "inform", "type"], ["hotel", "inform", "stars"],
     ["hotel", "offerbook", "none"]],
    [["hotel", "offerbooked", "reference"], ["general", "reqmore", "none"]],
    [["train", "request", "day"], ["train", "request", "departure"]],
    [["train", "inform", "arrive"], ["train", "inform", "id"], ["train", "inform", "leave"],
     ["train", "offerbook", "none"]],
    [["train", "inform", "price"], ["general", "reqmore", "none"]],
    [["general", "bye", "none"]],
]

# rng seed under which the two-dialogue pool is drawn in PMUL1576, SNG0955 order
TRACE_RNG_SEED = 1


@pytest.fixture(scope="session")
def ontology():
    return default_ontology()


@pytest.fixture(scope="session")
def seeds(ontology):
    return load_seed_corpus(SEED_CORPUS_PATH, ontology)


@pytest.fixture(scope="session")
def entity_db(ontology):
    return default_entity_db(ontology)


@pytest.fixture(scope="session")
def aux(ontology, seeds):
    return LexicalAuxPredictor(ontology, seeds)


@pytest.fixture()
def trace_goal():
    return UserGoal(TRACE_GOAL)


@pytest.fixture()
def trace_pool(seeds):
    return SeedDataset(dialogues=[seeds.get("PMUL1576"), seeds.get("SNG0955")])


def run_trace_simulation(backend, pool, aux, entity_db, ontology, trace=None):
    return simulate_dialogue(
        UserGoal(TRACE_GOAL), pool, backend, aux, entity_db, ontology,
        GenConfig(rng_seed=TRACE_RNG_SEED), random.Random(TRACE_RNG_SEED),
        dialogue_id="trace", trace=trace)


@pytest.fixture(scope="session")
def trace_transcript(tmp_path_factory, seeds, aux, entity_db, ontology):
    """Record the scripted reference dialogue once; replayed by several tests."""
    path = tmp_path_factory.mktemp("transcripts") / "trace.jsonl"
    pool = SeedDataset(dialogues=[seeds.get("PMUL1576"), seeds.get("SNG0955")])
    backend = record_transcript(MockBackend(list(TRACE_SCRIPT)), path)
    run_trace_simulation(backend, pool, aux, entity_db, ontology)
    return path


@pytest.fixture()
def trace_replay(trace_transcript):
    return ReplayBackend(trace_transcript)


class _LoopbackServer(ThreadingHTTPServer):
    daemon_threads = True
    # the default backlog of 5 can drop a SYN when 16 clients connect at once,
    # and the dropped client stalls about a second before it resends
    request_queue_size = 64

    def handle_error(self, request, client_address):
        # a client that stopped waiting for a late answer has closed its end
        if not isinstance(sys.exc_info()[1], ConnectionError):
            super().handle_error(request, client_address)


@pytest.fixture()
def loopback():
    """`loopback(answer)` serves JSON POSTs on 127.0.0.1 and returns the base URL.

    `answer(body, headers)` gets each request's decoded JSON body and headers
    and returns `(status, reply, extra_headers)`; the reply is sent as JSON over
    a keep-alive connection. Every server started is shut down after the test.
    """
    servers = []

    def serve(answer) -> str:
        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"
            disable_nagle_algorithm = True

            def do_POST(self):
                body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
                status, reply, extra_headers = answer(body, self.headers)
                payload = json.dumps(reply).encode()
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(payload)))
                for name, value in extra_headers.items():
                    self.send_header(name, value)
                self.end_headers()
                self.wfile.write(payload)

            def log_message(self, *args):
                pass

        server = _LoopbackServer(("127.0.0.1", 0), Handler)
        thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05},
                                  daemon=True)
        thread.start()
        servers.append((server, thread))
        return f"http://127.0.0.1:{server.server_port}"

    yield serve
    for server, thread in servers:
        server.shutdown()
        thread.join(timeout=5)
        server.server_close()


def completion_reply(text: str) -> tuple[int, dict, dict]:
    """A 200 answer in the OpenAI completions shape, for `loopback` handlers."""
    return 200, {"choices": [{"text": text}]}, {}


def lexical_aux_server(loopback, asked) -> str:
    """A loopback aux endpoint that answers as the in-process LexicalAuxPredictor
    on the bundled data; each request appends "belief" or "act" to `asked`."""
    ontology = default_ontology()
    lexical = LexicalAuxPredictor(ontology, load_seed_corpus(SEED_CORPUS_PATH, ontology))

    def answer(request, headers):
        # the wire carries no DB result for a context turn, and the lexical aux reads none
        context = [Turn(t["user"], TurnBelief.from_dict(t["belief"]), NO_RESULT,
                        DialogAct.from_triples(t["act"]), t["resp"])
                   for t in request["context"]]
        if "belief" in request:
            asked.append("act")
            act = lexical.predict_act(context, request["utterance"],
                                      TurnBelief.from_dict(request["belief"]),
                                      DbResult.from_json(request["db"]))
            return 200, {"act": act.to_json()}, {}
        asked.append("belief")
        belief = lexical.predict_belief(context, utterance_view(request["utterance"]))
        return 200, {"belief": belief.to_dict()}, {}

    return loopback(answer)


def make_rng(seed: int = 0) -> random.Random:
    return random.Random(seed)


def random_goal(ontology, rng, *, max_domains=3, max_slots=4) -> UserGoal:
    """A random ontology-valid goal over slots that have candidate values."""
    domains = [
        d for d in ontology.goal_domains()
        if any(ontology.candidates(d, s) for s in ontology.informable_slots(d))
    ]
    goal = UserGoal()
    for domain in rng.sample(domains, rng.randint(1, min(max_domains, len(domains)))):
        slots = [s for s in ontology.informable_slots(domain) if ontology.candidates(domain, s)]
        for slot in rng.sample(slots, rng.randint(1, min(max_slots, len(slots)))):
            goal.set(domain, slot, rng.choice(ontology.candidates(domain, slot)))
    return goal


def random_belief(ontology, rng) -> TurnBelief:
    """A random belief; sometimes domain-only or general entries."""
    roll = rng.random()
    if roll < 0.1:
        return TurnBelief({"general": {}})
    if roll < 0.2:
        return TurnBelief({rng.choice(ontology.goal_domains()): {}})
    goal = random_goal(ontology, rng, max_domains=2, max_slots=3)
    belief = TurnBelief(goal.entries)
    if rng.random() < 0.15:
        belief.set(rng.choice(ontology.goal_domains()), "none", "none")
    return belief


def random_act(ontology, rng) -> DialogAct:
    """A random well-formed act (no slotless/slotted mix of one act type)."""
    triples = []
    domains = rng.sample(list(ontology.domains), rng.randint(1, 2))
    for domain in domains:
        schema = ontology.schema(domain)
        acts = rng.sample(sorted(schema.acts), min(rng.randint(1, 2), len(schema.acts)))
        for act_type in acts:
            universe = sorted(schema.slot_universe())
            n_slots = rng.randint(0, 2) if universe else 0
            if n_slots == 0:
                triples.append((domain, act_type, "none"))
            else:
                for slot in rng.sample(universe, min(n_slots, len(universe))):
                    triples.append((domain, act_type, slot))
    return DialogAct(tuple(triples))
