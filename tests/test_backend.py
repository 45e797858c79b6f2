import json
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest
import requests

from dialogic.backend import (
    API_KEY_ENV,
    BackendError,
    BackendTimeout,
    CompletionRequest,
    ContextLengthExceeded,
    HttpBackendConfig,
    HttpCompletionBackend,
    MockBackend,
    RateLimitedError,
    ReplayBackend,
    ServerError,
    UnknownPromptError,
    apply_stop,
    prompt_digest,
    record_transcript,
)
from dialogic.goals import GoalStrategy
from dialogic.model import DecodeConfig, GenConfig

from .conftest import completion_reply


def req(prompt="hello", stop=()):
    return CompletionRequest(prompt=prompt, stop=tuple(stop))


def test_mock_echo():
    backend = MockBackend("X")
    assert backend.complete(req()) == "X"


def test_mock_sequence_exhausts():
    backend = MockBackend(["a", "b"])
    assert backend.complete(req()) == "a"
    assert backend.complete(req()) == "b"
    with pytest.raises(BackendError):
        backend.complete(req())


def test_request_param_bounds():
    with pytest.raises(ValueError):
        CompletionRequest("x", DecodeConfig(temperature=3.0))


def test_request_params_keep_their_keys_and_order():
    # the transcript, the HTTP body and the benchmark's scripted draws all read params()
    decode = DecodeConfig(temperature=0.9, top_p=0.8, frequency_penalty=-0.5, max_tokens=17)
    params = CompletionRequest("p", decode, ("\nUser",)).params()
    assert list(params.items()) == [
        ("max_tokens", 17), ("temperature", 0.9), ("top_p", 0.8),
        ("frequency_penalty", -0.5), ("stop", ["\nUser"])]


def test_apply_stop_truncates_and_trims():
    text = "first line\nUser next line"
    assert apply_stop(text, ["\nUser"]) == "first line"
    assert apply_stop("abc  ", []) == "abc"
    assert apply_stop("a\nAssistant b\nUser c", ["\nUser", "\nAssistant"]) == "a"


def test_mock_honours_stop():
    backend = MockBackend("keep this\nUser(should vanish")
    assert backend.complete(req(stop=["\nUser"])) == "keep this"


def test_record_then_replay(tmp_path):
    sink = tmp_path / "t.jsonl"
    recorder = record_transcript(MockBackend(["one", "two"]), sink)
    assert recorder.complete(req("p1")) == "one"
    assert recorder.complete(req("p2")) == "two"
    records = [json.loads(line) for line in sink.read_text().splitlines()]
    assert len(records) == 2
    assert records[0]["sha256"] == prompt_digest("p1")
    assert records[0]["completion"] == "one"
    assert records[0]["params"]["temperature"] == 0.7

    replay = ReplayBackend(sink)
    assert replay.complete(req("p2")) == "two"
    assert replay.complete(req("p1")) == "one"
    assert replay.complete(req("p1")) == "one"


def test_replay_unknown_prompt(tmp_path):
    sink = tmp_path / "empty.jsonl"
    sink.write_text("")
    replay = ReplayBackend(sink)
    with pytest.raises(UnknownPromptError):
        replay.complete(req("never seen"))


def test_replay_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        ReplayBackend(tmp_path / "nope.jsonl")


@pytest.mark.parametrize("record", [
    [1],
    {"sha256": "x"},
    {"sha256": "x", "completion": None},
    {"sha256": 5, "completion": "ok"},
], ids=["list", "no-completion", "null-completion", "int-sha256"])
def test_replay_rejects_a_bad_record_when_read(tmp_path, record):
    sink = tmp_path / "t.jsonl"
    good = {"sha256": prompt_digest("p"), "completion": "ok"}
    sink.write_text(json.dumps(good) + "\n" + json.dumps(record) + "\n", encoding="utf-8")
    with pytest.raises(BackendError, match=r"t\.jsonl:2: bad transcript record"):
        ReplayBackend(sink)


def test_replay_serves_repeated_prompt_in_recorded_order(tmp_path):
    sink = tmp_path / "t.jsonl"
    recorder = record_transcript(MockBackend(["a", "x", "b", "c"]), sink)
    assert [recorder.complete(req(p)) for p in ("p", "q", "p", "p")] == ["a", "x", "b", "c"]
    replay = ReplayBackend(sink)
    assert len(replay) == 4
    assert [replay.complete(req("p")) for _ in range(4)] == ["a", "b", "c", "c"]
    assert replay.complete(req("q")) == "x"


def test_replay_occurrence_counter_under_threads(tmp_path):
    import sys
    import threading

    n = 400
    sink = tmp_path / "t.jsonl"
    sink.write_text("".join(
        json.dumps({"sha256": prompt_digest("p"), "completion": str(i)}) + "\n"
        for i in range(n)))
    replay = ReplayBackend(sink)
    served, lock = [], threading.Lock()

    def worker():
        for _ in range(n // 8):
            text = replay.complete(req("p"))
            with lock:
                served.append(text)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    # a lost counter update would serve one occurrence twice and skip another
    assert sorted(served, key=int) == [str(i) for i in range(n)]


class _FakeResponse:
    def __init__(self, status_code=200, payload=None, text="", headers=None):
        self.status_code = status_code
        self._payload = payload
        self.text = text or (json.dumps(payload) if payload else "")
        self.headers = headers or {}

    def json(self):
        if self._payload is None:
            raise ValueError("no json")
        return self._payload


class _FakeSession:
    """Stand-in for requests.Session; returns queued responses."""

    def __init__(self, responses):
        self.responses = responses  # shared with the test for consumption checks
        self.calls = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.calls.append({"url": url, "body": json, "headers": headers})
        action = self.responses.pop(0)
        if isinstance(action, Exception):
            raise action
        return action


def _live(responses, retries=2):
    config = HttpBackendConfig(endpoint="https://api.example/v1/completions", model="m",
                               api_key="k", retries=retries)
    return HttpCompletionBackend(config, session=_FakeSession(responses)), responses


def test_live_success_and_wire_format():
    backend, _ = _live([_FakeResponse(payload={"choices": [{"text": " done \nUser x"}]})])
    out = backend.complete(req("p", stop=["\nUser"]))
    assert out == " done"  # only trailing whitespace is trimmed
    call = backend._session.calls[0]
    assert call["body"]["model"] == "m"
    assert call["body"]["prompt"] == "p"
    assert call["body"]["stop"] == ["\nUser"]
    assert call["headers"]["Authorization"] == "Bearer k"


def test_live_retries_on_rate_limit(monkeypatch):
    monkeypatch.setattr("time.sleep", lambda s: None)
    backend, _ = _live([
        _FakeResponse(status_code=429),
        _FakeResponse(status_code=503),
        _FakeResponse(payload={"choices": [{"text": "ok"}]}),
    ])
    assert backend.complete(req()) == "ok"


def test_live_rate_limit_exhausts(monkeypatch):
    monkeypatch.setattr("time.sleep", lambda s: None)
    backend, _ = _live([_FakeResponse(status_code=429)] * 3, retries=2)
    with pytest.raises(RateLimitedError):
        backend.complete(req())


def test_live_server_error_exhausts(monkeypatch):
    monkeypatch.setattr("time.sleep", lambda s: None)
    backend, responses = _live([_FakeResponse(status_code=502)] * 3, retries=2)
    with pytest.raises(ServerError, match="HTTP 502"):
        backend.complete(req())
    assert responses == []  # one attempt and two retries


@pytest.mark.parametrize("status", [429, 503])
def test_live_honours_retry_after(monkeypatch, status):
    slept = []
    monkeypatch.setattr("time.sleep", slept.append)
    backend, _ = _live([
        _FakeResponse(status_code=status, headers={"Retry-After": "7"}),
        _FakeResponse(status_code=status, headers={"Retry-After": "Wed, 21 Oct 2015 07:28:00 GMT"}),
        _FakeResponse(payload={"choices": [{"text": "ok"}]}),
    ])
    assert backend.complete(req()) == "ok"
    assert slept[0] == 7
    assert 1.0 <= slept[1] <= 1.5  # a date is not a delay: the second computed backoff


@pytest.mark.parametrize("value", ["²", "١٢", "-1", "1.5", ""])
def test_live_retry_after_counts_ascii_digits_only(monkeypatch, value):
    """Only RFC 9110 delay-seconds is a wait; any other value falls back to backoff."""
    slept = []
    monkeypatch.setattr("time.sleep", slept.append)
    backend, _ = _live([
        _FakeResponse(status_code=429, headers={"Retry-After": value}),
        _FakeResponse(payload={"choices": [{"text": "ok"}]}),
    ])
    assert backend.complete(req()) == "ok"
    assert len(slept) == 1 and 0.5 <= slept[0] <= 0.75  # the first computed backoff


@pytest.mark.parametrize("status", [429, 503])
def test_live_retry_after_past_timeout_fails_at_once(monkeypatch, status):
    """A wait longer than the timeout is not slept: the request fails with its slot freed."""
    slept = []
    monkeypatch.setattr("time.sleep", slept.append)
    backend, responses = _live([
        _FakeResponse(status_code=status, headers={"Retry-After": "86400"}),
        _FakeResponse(payload={"choices": [{"text": "never"}]}),
    ])
    with pytest.raises(RateLimitedError if status == 429 else ServerError,
                       match="Retry-After 86400s is longer than the 60.0s timeout"):
        backend.complete(req())
    assert slept == []
    assert len(responses) == 1  # not retried
    # every slot was given back
    assert all(backend._slots.acquire(blocking=False) for _ in range(backend.concurrency))
    # a wait of exactly the timeout is still honoured
    backend, _ = _live([
        _FakeResponse(status_code=status, headers={"Retry-After": "60"}),
        _FakeResponse(payload={"choices": [{"text": "ok"}]}),
    ])
    assert backend.complete(req()) == "ok"
    assert slept == [60]


def test_live_retry_after_past_timeout_is_backend_error(monkeypatch, seeds, ontology):
    from dialogic.simulator import augment_corpus

    slept = []
    monkeypatch.setattr("time.sleep", slept.append)
    backend, _ = _live([_FakeResponse(status_code=429, headers={"Retry-After": "86400"})] * 64)
    _, report = augment_corpus(seeds, backend, None, ontology, GenConfig(rng_seed=17))
    assert slept == []
    assert report.failures["backend_error"] >= 1
    assert set(report.failures) <= {"backend_error", "unaugmentable"}


MALFORMED_BODIES = [{"choices": None}, [1], {"choices": [1]}, {"choices": [{"text": None}]},
                    {"choices": [{"text": 5}]}]


@pytest.mark.parametrize("payload", MALFORMED_BODIES)
def test_live_malformed_body_is_backend_error(payload):
    backend, responses = _live([_FakeResponse(payload=payload)])
    with pytest.raises(BackendError, match="malformed completion response: "):
        backend.complete(req())
    assert responses == []  # not retried


def test_live_malformed_bodies_counted_as_backend_error(seeds, aux, entity_db, ontology):
    from dialogic.simulator import simulate_batch

    backend, _ = _live([_FakeResponse(payload=payload) for payload in MALFORMED_BODIES])
    dialogues, report = simulate_batch(
        len(MALFORMED_BODIES), GoalStrategy(kind="combination"), seeds, backend, aux,
        entity_db, ontology, GenConfig(rng_seed=3))
    assert dialogues == []
    assert report.failures == {"backend_error": len(MALFORMED_BODIES)}


def test_live_context_length_not_retried():
    backend, responses = _live([
        _FakeResponse(status_code=400, text="This model's maximum context length ..."),
        _FakeResponse(payload={"choices": [{"text": "never"}]}),
    ])
    with pytest.raises(ContextLengthExceeded):
        backend.complete(req())
    assert len(responses) == 1  # second response never consumed


def test_live_non_2xx_surfaces_body():
    backend, _ = _live([_FakeResponse(status_code=404, text="no such model")])
    with pytest.raises(BackendError, match="no such model"):
        backend.complete(req())


def test_live_timeout_retried(monkeypatch):
    import requests

    monkeypatch.setattr("time.sleep", lambda s: None)
    backend, _ = _live([
        requests.Timeout("slow"),
        _FakeResponse(payload={"choices": [{"text": "ok"}]}),
    ])
    assert backend.complete(req()) == "ok"


def test_live_timeout_exhausts(monkeypatch):
    import requests

    monkeypatch.setattr("time.sleep", lambda s: None)
    backend, _ = _live([requests.Timeout("slow")] * 3, retries=2)
    with pytest.raises(BackendTimeout):
        backend.complete(req())


def test_record_of_live_pipeline_replays(tmp_path):
    backend, _ = _live([_FakeResponse(payload={"choices": [{"text": "recorded"}]})])
    sink = tmp_path / "live.jsonl"
    recorded = record_transcript(backend, sink)
    assert recorded.complete(req("the prompt")) == "recorded"
    replay = ReplayBackend(sink)
    assert replay.complete(req("the prompt")) == "recorded"


@pytest.mark.parametrize("bad", [
    {"concurrency": 0}, {"retries": -1}, {"timeout": 0}, {"timeout": -1.0},
    {"timeout": float("nan")}, {"timeout": float("inf")}])
def test_http_config_rejects_hanging_limits(bad):
    with pytest.raises(ValueError, match=next(iter(bad))):
        HttpBackendConfig(endpoint="http://localhost:9/v1", model="m", **bad)
    # the defaults alone construct: the benchmark reads the default context budget
    assert HttpBackendConfig(endpoint="", model="").context_budget > 0


# -- the live backend through a loopback socket ---------------------------------

def test_live_wire_format_over_socket(loopback, monkeypatch):
    monkeypatch.setenv(API_KEY_ENV, "secret")
    seen = []

    def answer(body, headers):
        seen.append((body, headers["Authorization"]))
        return completion_reply(" done \nUser next")

    url = loopback(answer)
    with requests.Session() as session:
        backend = HttpCompletionBackend(
            HttpBackendConfig(endpoint=f"{url}/v1/completions", model="m"), session=session)
        request = CompletionRequest("p", DecodeConfig(max_tokens=9), ("\nUser",))
        assert backend.complete(request) == " done"
    assert seen == [({"model": "m", "prompt": "p", **request.params()}, "Bearer secret")]


def test_live_retry_after_over_socket(loopback):
    answers = [(429, {"error": "slow down"}, {"Retry-After": "0"}), completion_reply("ok")]
    seen = []

    def answer(body, headers):
        seen.append(body)
        return answers[len(seen) - 1]

    url = loopback(answer)
    with requests.Session() as session:
        backend = HttpCompletionBackend(
            HttpBackendConfig(endpoint=f"{url}/v1/completions", model="m"), session=session)
        assert backend.complete(req()) == "ok"
    assert len(seen) == 2


def test_live_concurrency_is_the_only_client_bound(loopback):
    # every request is answered only once all 16 are in flight at the server
    barrier = threading.Barrier(16, timeout=1.5)

    def answer(body, headers):
        try:
            barrier.wait()
        except threading.BrokenBarrierError:
            return 400, {"error": "fewer than 16 requests in flight"}, {}
        return completion_reply("ok")

    url = loopback(answer)
    with requests.Session() as session:
        backend = HttpCompletionBackend(HttpBackendConfig(
            endpoint=f"{url}/v1/completions", model="m", concurrency=16), session=session)
        with ThreadPoolExecutor(16) as pool:
            texts = list(pool.map(backend.complete, [req(f"p{i}") for i in range(16)]))
    assert texts == ["ok"] * 16


def test_live_close_ends_its_own_keep_alive_connection(loopback, tmp_path):
    handlers = []

    def answer(body, headers):
        handlers.append(threading.current_thread())
        return completion_reply("ok")

    url = loopback(answer)
    config = HttpBackendConfig(endpoint=f"{url}/v1/completions", model="m")
    # a session passed in belongs to the caller: close() leaves it open
    with requests.Session() as session:
        backend = HttpCompletionBackend(config, session=session)
        assert backend.complete(req()) == "ok"
        backend.close()
        handlers[-1].join(timeout=0.3)
        assert handlers[-1].is_alive()
    # a session the backend opened closes, also through the recording wrapper
    backend = record_transcript(HttpCompletionBackend(config), tmp_path / "t.jsonl")
    assert backend.complete(req()) == "ok"
    handlers[-1].join(timeout=0.3)
    assert handlers[-1].is_alive()  # keep-alive: the handler waits for the next request
    backend.close()
    handlers[-1].join(timeout=5)
    assert not handlers[-1].is_alive()
