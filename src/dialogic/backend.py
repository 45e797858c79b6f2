"""Text-completion backends: live OpenAI-compatible HTTP, replay, and mock.

The replay backend makes the whole pipeline deterministic: a transcript file
records (prompt digest, prompt, completion, params) as JSON lines, and replay
serves recorded completions bit-exact, keyed on the prompt digest and on how
often that prompt was already served.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Sequence

from .model import DecodeConfig

if TYPE_CHECKING:
    import requests

API_KEY_ENV = "DIALOGIC_API_KEY"


class BackendError(RuntimeError):
    """Base class for completion failures.

    `retry_after` holds the seconds the server asked the client to wait (a
    numeric `Retry-After` header), or None when it named none.
    """

    def __init__(self, *args, retry_after: int | None = None):
        super().__init__(*args)
        self.retry_after = retry_after


class RateLimitedError(BackendError):
    """The API rejected the request for rate reasons (HTTP 429); retried with backoff."""


class ServerError(BackendError):
    """The API failed on its side (HTTP 5xx); retried with backoff like a rate limit."""


class BackendTimeout(BackendError):
    """No response within the configured timeout; retried with backoff."""


class ContextLengthExceeded(BackendError):
    """Prompt plus max_tokens exceed the model context; never retried."""


class UnknownPromptError(BackendError):
    """Replay transcript holds no completion for this prompt."""


@dataclass(frozen=True)
class CompletionRequest:
    prompt: str
    decode: DecodeConfig = DecodeConfig()
    stop: tuple[str, ...] = ()

    def params(self) -> dict:
        """The sampling parameters as recorded in a transcript and sent on the wire."""
        return {
            "max_tokens": self.decode.max_tokens,
            "temperature": self.decode.temperature,
            "top_p": self.decode.top_p,
            "frequency_penalty": self.decode.frequency_penalty,
            "stop": list(self.stop),
        }


def prompt_digest(prompt: str) -> str:
    return hashlib.sha256(prompt.encode("utf-8")).hexdigest()


def apply_stop(text: str, stop: Sequence[str]) -> str:
    """Truncate at the first stop sequence (stop string excluded), trim the tail."""
    cut = len(text)
    for s in stop:
        idx = text.find(s)
        if idx != -1:
            cut = min(cut, idx)
    return text[:cut].rstrip()


class CompletionBackend:
    """Interface: complete() is total — it returns text or raises a BackendError."""

    concurrency = 1
    context_budget: int | None = None

    def complete(self, req: CompletionRequest) -> str:
        raise NotImplementedError

    def close(self) -> None:
        """Release what the backend opened itself; it is not used afterwards."""


class MockBackend(CompletionBackend):
    """Scripted backend for tests: a constant, a sequence, or a callable."""

    def __init__(self, script: str | Sequence[str] | Callable[[CompletionRequest], str]):
        self._lock = threading.Lock()
        if callable(script):
            self._fn = script
            self._queue = None
        elif isinstance(script, str):
            self._fn = lambda req: script
            self._queue = None
        else:
            self._fn = None
            self._queue = list(script)

    def complete(self, req: CompletionRequest) -> str:
        with self._lock:
            if self._queue is not None:
                if not self._queue:
                    raise BackendError("mock script exhausted")
                text = self._queue.pop(0)
            else:
                text = self._fn(req)
        return apply_stop(text, req.stop)


class ReplayBackend(CompletionBackend):
    """Serve completions recorded in a transcript file, in the order they were recorded.

    Records are keyed on (prompt digest, occurrence): the n-th request for a
    prompt gets the n-th completion recorded for it, counting records in file
    order. So a prompt that recurs, such as a parse retry that re-sends it,
    replays the completions it got when recorded. A request past the last
    recorded occurrence gets the last one. Every record is checked when read.
    """

    def __init__(self, transcript: str | Path):
        self.transcript = Path(transcript)
        self._completions: dict[str, list[str]] = {}
        self._served: dict[str, int] = {}
        self._lock = threading.Lock()
        if not self.transcript.exists():
            raise FileNotFoundError(f"transcript not found: {self.transcript}")
        try:
            with open(self.transcript, encoding="utf-8") as fh:
                for lineno, line in enumerate(fh, start=1):
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        record = json.loads(line)
                        if not isinstance(record, dict):
                            raise TypeError("not a JSON object")
                        digest, completion = record["sha256"], record["completion"]
                        if not (isinstance(digest, str) and isinstance(completion, str)):
                            raise TypeError("sha256 and completion must be strings")
                    except (json.JSONDecodeError, KeyError, TypeError) as exc:
                        raise BackendError(
                            f"{self.transcript}:{lineno}: bad transcript record ({exc})") from exc
                    self._completions.setdefault(digest, []).append(completion)
        except UnicodeDecodeError as exc:
            raise BackendError(f"{self.transcript}: not UTF-8 ({exc})") from exc

    def __len__(self) -> int:
        return sum(len(recorded) for recorded in self._completions.values())

    def complete(self, req: CompletionRequest) -> str:
        digest = prompt_digest(req.prompt)
        recorded = self._completions.get(digest)
        if recorded is None:
            head = req.prompt[-120:].replace("\n", "\\n")
            raise UnknownPromptError(
                f"no recorded completion for prompt digest {digest[:12]}… (…{head})")
        with self._lock:
            occurrence = self._served.get(digest, 0)
            self._served[digest] = occurrence + 1
        return recorded[min(occurrence, len(recorded) - 1)]


class RecordingBackend(CompletionBackend):
    """Decorator that logs every completion to a JSON-lines transcript.

    The transcript starts empty when the recorder is built: a file already at
    `sink` is truncated, so a replay serves this run's completions only.
    `concurrency` and `context_budget` are the wrapped backend's, read through.
    """

    concurrency = property(lambda self: self.inner.concurrency)
    context_budget = property(lambda self: self.inner.context_budget)

    def __init__(self, inner: CompletionBackend, sink: str | Path):
        self.inner = inner
        self.sink = Path(sink)
        self._lock = threading.Lock()
        open(self.sink, "w", encoding="utf-8").close()

    def complete(self, req: CompletionRequest) -> str:
        completion = self.inner.complete(req)
        record = {
            "sha256": prompt_digest(req.prompt),
            "prompt": req.prompt,
            "completion": completion,
            "params": req.params(),
        }
        with self._lock, open(self.sink, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")
        return completion

    def close(self) -> None:
        self.inner.close()


def record_transcript(backend: CompletionBackend, sink: str | Path) -> RecordingBackend:
    return RecordingBackend(backend, sink)


@dataclass(frozen=True)
class HttpBackendConfig:
    endpoint: str
    model: str
    api_key: str | None = None  # falls back to the DIALOGIC_API_KEY env var
    timeout: float = 60.0
    retries: int = 3
    concurrency: int = 4
    context_budget: int = 4096

    def __post_init__(self):
        if self.concurrency < 1:
            raise ValueError(f"concurrency must be >= 1, got {self.concurrency}")
        if self.context_budget < 1:
            raise ValueError(f"context_budget must be >= 1, got {self.context_budget}")
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        if not (math.isfinite(self.timeout) and self.timeout > 0):
            raise ValueError(f"timeout must be finite and > 0, got {self.timeout}")


def _retry_after(response) -> int | None:
    """The wait a `Retry-After: <seconds>` header asks for; None for anything else.

    Only ASCII digits count, as in RFC 9110's delay-seconds: `str.isdigit()`
    also accepts superscripts, which `int()` rejects, and other scripts'
    digits, which `int()` reads as seconds.
    """
    value = str(response.headers.get("Retry-After", "")).strip()
    return int(value) if value.isascii() and value.isdigit() else None


class HttpCompletionBackend(CompletionBackend):
    """POST to an OpenAI-compatible completions endpoint with retry/backoff.

    `config.concurrency` requests are in flight at most; the server sets the
    pace with 429/503 and `Retry-After`, up to `config.timeout` seconds: a
    longer wait fails the request at once rather than hold its slot.
    `concurrency` and `context_budget` are read from the config, which is
    frozen, so a batch never runs more jobs than the backend has request slots.
    `requests` is imported here, not with the module, so offline runs never
    load the HTTP stack.
    """

    concurrency = property(lambda self: self.config.concurrency)
    context_budget = property(lambda self: self.config.context_budget)

    def __init__(self, config: HttpBackendConfig, session: requests.Session | None = None):
        import requests

        self.config = config
        self._session = session or requests.Session()
        self._owns_session = session is None
        self._slots = threading.Semaphore(config.concurrency)

    def close(self) -> None:
        """Close the session this backend opened; a session passed in stays open."""
        if self._owns_session:
            self._session.close()

    def _headers(self) -> dict[str, str]:
        key = self.config.api_key or os.environ.get(API_KEY_ENV, "")
        headers = {"Content-Type": "application/json"}
        if key:
            headers["Authorization"] = f"Bearer {key}"
        return headers

    def _post_once(self, req: CompletionRequest) -> str:
        import requests

        body = {"model": self.config.model, "prompt": req.prompt, **req.params()}
        try:
            response = self._session.post(
                self.config.endpoint, json=body, headers=self._headers(),
                timeout=self.config.timeout)
        except requests.Timeout as exc:
            raise BackendTimeout(f"no response within {self.config.timeout}s") from exc
        except requests.RequestException as exc:
            raise BackendError(f"request failed: {exc}") from exc
        status = response.status_code
        retry_after = _retry_after(response) if status in (429, 503) else None
        if status == 429:
            raise RateLimitedError("rate limited (HTTP 429)", retry_after=retry_after)
        if status >= 500:
            raise ServerError(f"server error (HTTP {status})", retry_after=retry_after)
        if status != 200:
            excerpt = response.text[:200]
            if "context" in excerpt.lower() and "length" in excerpt.lower():
                raise ContextLengthExceeded(excerpt)
            raise BackendError(f"HTTP {status}: {excerpt}")
        try:
            text = response.json()["choices"][0]["text"]
        except (ValueError, LookupError, TypeError):  # TypeError: not an object where one belongs
            text = None
        if not isinstance(text, str):
            raise BackendError(f"malformed completion response: {response.text[:200]}")
        return apply_stop(text, req.stop)

    def complete(self, req: CompletionRequest) -> str:
        with self._slots:
            delay = 0.5
            for attempt in range(self.config.retries + 1):
                try:
                    return self._post_once(req)
                except (RateLimitedError, ServerError, BackendTimeout) as exc:
                    if attempt == self.config.retries:
                        raise
                    if exc.retry_after is not None:
                        if exc.retry_after > self.config.timeout:
                            # a wait past the timeout would hold this slot that long
                            raise type(exc)(
                                f"{exc}; Retry-After {exc.retry_after}s is longer than the "
                                f"{self.config.timeout}s timeout",
                                retry_after=exc.retry_after) from exc
                        time.sleep(exc.retry_after)
                    else:
                        time.sleep(delay + random.uniform(0, delay / 2))
                    delay *= 2
        raise BackendError("unreachable")  # pragma: no cover
