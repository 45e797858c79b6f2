"""Deterministic scripted completion LLM for the offline benchmark.

`ScriptedLLM` reads the prompt the way a completion model would: it finds the
target `Instruction<n>:` goal and the annotated turns so far, and writes the
next `User(` or `Assistant(` line, a regenerated response, or a turn-level
(DST) verbalisation. Every completion is a pure function of the request and of
how many times this backend instance has already served that same request, so
a retried request gets a fresh draw (as from a sampling LLM) while the output
never depends on thread interleaving.

Faults are injected at fixed rates chosen by a hash of the prompt:

- malformed annotations (first draw only), which the program re-requests;
- over-annotation, a goal value the utterance never says (the filter drops it);
- under-annotation, a value said but not annotated (the aux predictor may add it);
- rule-breaking acts, which drive the act rules and response regeneration;
- DST verbalisations that omit a prescribed value (first draw only), which the
  match filter rejects.
"""

from __future__ import annotations

import hashlib
import re
import threading
import time
from dataclasses import dataclass

from dialogic.backend import CompletionBackend, CompletionRequest, HttpBackendConfig, apply_stop
from dialogic.exemplar import estimate_tokens

# the live HTTP backend's default context budget, so the program's own
# prompt-length checks run exactly as they would against a real model
LIVE_CONTEXT_BUDGET = HttpBackendConfig(endpoint="", model="").context_budget

Triple = tuple[str, str, str]

# ---------------------------------------------------------------------------
# verbalisation (shared with the synthetic seed-corpus generator)
# ---------------------------------------------------------------------------

_SLOT_PHRASES: dict[str, tuple[str, ...]] = {
    "area": ("in the {v}", "located in the {v}"),
    "pricerange": ("in the {v} price range", "that is {v}"),
    "food": ("serving {v} food", "that serves {v} food"),
    "name": ("called {v}", "named {v}"),
    "type": ("of the {v} type", "that is a {v}"),
    "stars": ("with {v} stars", "rated {v} stars"),
    "stay": ("for {v} nights",),
    "people": ("for {v} people",),
    "day": ("on {v}",),
    "time": ("at {v}",),
    "departure": ("from {v}", "departing from {v}"),
    "destination": ("to {v}", "going to {v}"),
    "leave": ("leaving after {v}",),
    "arrive": ("arriving by {v}",),
    "department": ("the {v} department",),
}
_BOOLEAN_PHRASES = {
    ("parking", "yes"): "with free parking",
    ("parking", "no"): "but i do not need parking",
    ("internet", "yes"): "with free wifi",
    ("internet", "no"): "but i do not need internet",
}
_OPENERS = ("i am looking for {a} {d}", "i need {a} {d}", "can you help me find {a} {d}")
_FOLLOW_UPS = ("the {d} should be", "for the {d} , i want it", "i would like the {d}")
GOODBYE = "no , that is all . thank you , goodbye ."


def _article(noun: str) -> str:
    return "an" if noun[:1] in "aeiou" else "a"


def slot_phrase(slot: str, value: str, draw: float) -> str:
    if value == "dontcare":
        return f"the {slot} does not matter"
    if (slot, value) in _BOOLEAN_PHRASES:
        return _BOOLEAN_PHRASES[(slot, value)]
    templates = _SLOT_PHRASES.get(slot, ("with {s} {v}",))
    return templates[int(draw * len(templates))].format(v=value, s=slot)


def verbalize(domain: str, triples: list[Triple], first_mention: bool, draw: float) -> str:
    """One user sentence that says every (slot, value) in `triples`."""
    templates = _OPENERS if first_mention else _FOLLOW_UPS
    head = templates[int(draw * len(templates))].format(a=_article(domain), d=domain)
    phrases = [slot_phrase(s, v, draw) for _, s, v in triples]
    if len(phrases) > 1:
        phrases = [" , ".join(phrases[:-1]), phrases[-1]]
    return " ".join([head, " and ".join(phrases), "."]).replace("  ", " ")


# ---------------------------------------------------------------------------
# reading the prompt
# ---------------------------------------------------------------------------

_MARKER_RE = re.compile(r"\[([^\[\]]+)\]([^\[]*)")
_REQUIREMENT_RE = re.compile(r"\((\[[^()]*)\)")


def parse_triples(text: str) -> list[Triple]:
    """`[domain] slot is value , ...` into triples; a bare `[domain]` gives (d, none, none)."""
    out: list[Triple] = []
    for m in _MARKER_RE.finditer(text):
        domain, body = m.group(1).strip(), m.group(2).strip()
        if not body:
            out.append((domain, "none", "none"))
            continue
        for item in body.split(" , "):
            slot, sep, value = item.partition(" is ")
            if sep:
                out.append((domain, slot.strip(), value.strip()))
    return out


class _Draws:
    """Uniform draws in [0, 1) taken from a digest of the prompt."""

    def __init__(self, prompt: str):
        self._bytes = hashlib.blake2b(prompt.encode("utf-8"), digest_size=32).digest()

    def __call__(self, i: int) -> float:
        return int.from_bytes(self._bytes[2 * i: 2 * i + 2], "big") / 65536.0


# Fault rates. They are assumptions, not measurements: the paper's abstract
# gives no rates of malformed, over- or under-annotated lines, and no recorded
# live traffic is at hand to take them from. They are set so that every
# revision path (parse retry, over-generation drop, de-generation fix, act
# rule, regeneration, DST rejection) fires several times in every batch of a
# few dozen dialogues. They decide backend_calls_per_dialogue and the retry
# and regeneration mix; rates taken from a recorded live run should replace them.
MALFORMED = 0.08         # per annotated line, first draw only
OVER_ANNOTATION = 0.15   # per user line with a later goal value left to say
UNDER_ANNOTATION = 0.15  # per user line with two or more values
BAD_ACT = 0.15           # per system line
DST_OMISSION = 0.25      # per DST request, first draw only


@dataclass(frozen=True)
class Conversation:
    goal: list[Triple]        # the target Instruction's requirements
    user: list[list[Triple]]  # revised user annotations so far, oldest first

    @classmethod
    def read(cls, prompt: str) -> "Conversation":
        target = prompt[prompt.rfind("\nInstruction") + 1:]
        lines = target.split("\n")
        goal = [t for m in _REQUIREMENT_RE.finditer(lines[0]) for t in parse_triples(m.group(1))]
        user = [parse_triples(line[5:line.index("): ")])
                for line in lines[2:-1] if line.startswith("User(")]
        return cls(goal, user)

    def mentioned(self) -> set[Triple]:
        return {t for turn in self.user for t in turn}

    def domains(self) -> list[str]:
        seen: dict[str, None] = {}
        for turn in self.user:
            for d, _, _ in turn:
                if d != "general":
                    seen.setdefault(d, None)
        return list(seen)


def serialize(triples: list[Triple]) -> str:
    parts: list[str] = []
    domain = None
    for d, s, v in triples:
        if d != domain:
            parts.append(f"[{d}]")
            domain, sep = d, ""
        if s != "none":
            parts.append(f"{sep}{s} is {v}")
            sep = ", "
    return " ".join(parts)


# ---------------------------------------------------------------------------
# the scripted model
# ---------------------------------------------------------------------------

_BOOKABLE = ("restaurant", "hotel", "train")
_NO_CHOICE = ("taxi", "hospital", "police")  # their acts carry no `choice` slot
_INFO_SLOT = {"taxi": "car", "hospital": "phone", "police": "phone", "attraction": "address"}


def user_line(conv: Conversation, draw: _Draws, attempt: int) -> str:
    mentioned = conv.mentioned()
    remaining = [t for t in conv.goal if t[1] != "none" and t not in mentioned]
    if not remaining:
        return f"[general]): {GOODBYE}"
    domain = remaining[0][0]
    same = [t for t in remaining if t[0] == domain]
    chunk = same[: 1 + int(draw(0) * 3)]
    first = domain not in conv.domains()
    utterance = verbalize(domain, chunk, first, draw(1))
    annotation = list(chunk)
    if attempt == 0 and draw(2) < MALFORMED:
        if draw(3) < 0.5:
            return f"[{domain}] {' , '.join(f'{s} = {v}' for _, s, v in chunk)}): {utterance}"
        return f"[{domain}] address is {utterance.split()[-2]}): {utterance}"
    if len(chunk) > 1 and draw(4) < UNDER_ANNOTATION:
        annotation.pop(int(draw(5) * len(annotation)))
    later = [t for t in same[len(chunk):] if t[2] not in utterance]
    if later and draw(6) < OVER_ANNOTATION:
        annotation.append(later[0])
    return f"{serialize(annotation) or f'[{domain}]'}): {utterance}"


def system_line(conv: Conversation, draw: _Draws, attempt: int) -> str:
    last = conv.user[-1] if conv.user else []
    task = [d for d, _, _ in last if d != "general"]
    if not task:
        return "[general] [bye]): thank you for using our service . goodbye ."
    domain = task[-1]
    mentioned = conv.mentioned()
    open_slots = [s for d, s, v in conv.goal
                  if d == domain and s != "none" and (d, s, v) not in mentioned]
    if open_slots:
        slot = open_slots[0]
        if domain in _NO_CHOICE:
            act, resp = f"[{domain}] [request] {slot}", f"what {slot} do you need ?"
        else:
            act = f"[{domain}] [inform] choice [request] {slot}"
            resp = f"there are [value_choice] options . what {slot} would you like ?"
    elif domain in _BOOKABLE:
        act = f"[{domain}] [offerbooked] reference [general] [reqmore]"
        resp = "i have booked it . the reference number is [value_reference] . anything else ?"
    else:
        slot = _INFO_SLOT.get(domain, "phone")
        act = f"[{domain}] [inform] {slot} [general] [reqmore]"
        resp = f"the {slot} is [value_{slot}] . anything else ?"
    if attempt == 0 and draw(2) < MALFORMED:
        return f"[{domain}] choice [inform]): {resp}"
    if draw(4) < BAD_ACT:
        kind = int(draw(5) * 4)
        discussed = conv.domains()
        if kind == 0 and "police" not in discussed:
            act += " [police] [inform] address"  # a domain never discussed
        elif kind == 1 and "taxi" not in discussed:
            act = "[taxi] [request] car"  # the whole act is dropped: aux fallback
        elif kind == 2:
            act += f" [{domain}] [offerbook]"  # forbidden outside bookable domains
        else:
            head = act.split(" [general]")[0]
            act = f"{head} {head}"  # duplicated triples
    return f"{act}): {resp}"


def regenerated_response(tail: str) -> str:
    act = tail[len("Assistant("): -len("): ")]
    if "[nooffer]" in act:
        return "sorry , nothing matches that . would you like to change something ?"
    if "[bye]" in act:
        return "goodbye , have a nice day ."
    if "[request]" in act:
        return "could you tell me a bit more about what you need ?"
    return "okay . is there anything else i can help you with ?"


def dst_line(tail: str, draw: _Draws, attempt: int) -> str:
    triples = [t for t in parse_triples(tail[len("User("): -len("):")]) if t[1] != "none"]
    if not triples:
        return " " + GOODBYE
    domain = triples[0][0]
    if attempt == 0 and draw(2) < DST_OMISSION:
        triples.pop(int(draw(3) * len(triples)))
    return " " + verbalize(domain, triples, True, draw(1))


def respond(prompt: str, attempt: int) -> str:
    """The scripted completion for `prompt` on its `attempt`-th request."""
    draw = _Draws(prompt)
    tail = prompt[prompt.rfind("\n") + 1:]
    if tail.startswith("User(") and tail.endswith("):"):
        return dst_line(tail, draw, attempt)
    if tail.startswith("Assistant(") and tail.endswith("): "):
        return regenerated_response(tail)
    conv = Conversation.read(prompt)
    if tail == "User(":
        return user_line(conv, draw, attempt)
    if tail == "Assistant(":
        return system_line(conv, draw, attempt)
    raise ValueError(f"unrecognised prompt tail {tail[-60:]!r}")


# An assumed hosted completion API: 400 ms per round trip, 0.1 ms per prompt
# token (prefill) and 4 ms per completion token (decoding at 250 tokens/s).
# These are assumptions of a plausible order, not a measured or published
# profile. The benchmark divides them by LATENCY_SCALE so that one 16 s run
# holds some 180 dialogues; the scaling leaves the split of the wait between
# round trips, prompt tokens and completion tokens as it is, but makes the
# program's own CPU time 100x larger against the wait than on a live API.
LIVE_ROUND_TRIP_S = 0.4
LIVE_PER_PROMPT_TOKEN_S = 100e-6
LIVE_PER_COMPLETION_TOKEN_S = 4e-3
LATENCY_SCALE = 100


@dataclass(frozen=True)
class Latency:
    """Simulated LLM latency: a round trip plus per-token prompt and completion terms."""

    round_trip_s: float = LIVE_ROUND_TRIP_S / LATENCY_SCALE
    per_prompt_token_s: float = LIVE_PER_PROMPT_TOKEN_S / LATENCY_SCALE
    per_completion_token_s: float = LIVE_PER_COMPLETION_TOKEN_S / LATENCY_SCALE

    def seconds(self, prompt_tokens: int, completion_tokens: int) -> float:
        return (self.round_trip_s + self.per_prompt_token_s * prompt_tokens
                + self.per_completion_token_s * completion_tokens)


@dataclass
class CallStats:
    calls: int = 0
    regenerations: int = 0
    prompt_tokens: int = 0
    completion_tokens: int = 0
    wait_s: float = 0.0


class ScriptedLLM(CompletionBackend):
    """A `CompletionBackend` that answers from `respond`, optionally after a simulated wait.

    Use one instance per batch: the per-request draw counter lives on the instance.
    `tracer`, when given, times the scripted computation and the wait as spans;
    `probe`, when given, is ticked on every request (the benchmark samples the
    host's speed from there).
    """

    name = "scripted"
    context_budget = LIVE_CONTEXT_BUDGET

    def __init__(self, latency: Latency | None = None, tracer=None, probe=None):
        self.latency = latency
        self.probe = probe
        self.stats = CallStats()
        self._served: dict[bytes, int] = {}
        self._lock = threading.Lock()
        self._sleep = time.sleep
        if tracer is not None:
            self._answer = tracer.wrap("backend.scripted", self._answer)
            self._sleep = tracer.wrap("backend.wait", time.sleep)

    def _answer(self, req: CompletionRequest) -> str:
        key = hashlib.blake2b(repr((req.prompt, req.params())).encode("utf-8"),
                              digest_size=16).digest()
        with self._lock:
            attempt = self._served.get(key, 0)
            self._served[key] = attempt + 1
        return apply_stop(respond(req.prompt, attempt), req.stop)

    def complete(self, req: CompletionRequest) -> str:
        if self.probe is not None:
            self.probe.tick()
        text = self._answer(req)
        prompt_tokens, completion_tokens = estimate_tokens(req.prompt), estimate_tokens(text)
        wait = self.latency.seconds(prompt_tokens, completion_tokens) if self.latency else 0.0
        if wait:
            self._sleep(wait)  # outside any lock, so concurrent callers overlap
        regenerated = req.prompt.endswith("): ")
        with self._lock:
            self.stats.calls += 1
            self.stats.regenerations += regenerated
            self.stats.prompt_tokens += prompt_tokens
            self.stats.completion_tokens += completion_tokens
            self.stats.wait_s += wait
        return text
