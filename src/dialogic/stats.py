"""Corpus statistics and the combined end-to-end score."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from .model import Dialogue


@dataclass(frozen=True)
class CorpusStats:
    """Counts over the delexicalized text of both speakers.

    `unique_tokens_system`/`unique_3grams_system` restrict to system responses,
    since response-side diversity is what delexicalized training cares about.
    """

    total_dialogues: int = 0
    total_turns: int = 0
    total_domains: int = 0
    avg_turns: float = 0.0
    avg_domains: float = 0.0
    unique_tokens: int = 0
    unique_3grams: int = 0
    unique_tokens_system: int = 0
    unique_3grams_system: int = 0

    def to_json(self) -> dict:
        return {
            "total_dialogues": self.total_dialogues,
            "total_turns": self.total_turns,
            "total_domains": self.total_domains,
            "avg_turns": round(self.avg_turns, 4),
            "avg_domains": round(self.avg_domains, 4),
            "unique_tokens": self.unique_tokens,
            "unique_3grams": self.unique_3grams,
            "unique_tokens_system": self.unique_tokens_system,
            "unique_3grams_system": self.unique_3grams_system,
        }


def _ngrams(tokens: list[str], n: int) -> Iterable[tuple[str, ...]]:
    return (tuple(tokens[i: i + n]) for i in range(len(tokens) - n + 1))


def compute_stats(corpus: list[Dialogue]) -> CorpusStats:
    """Whitespace tokens and within-utterance 3-grams, unique corpus-wide."""
    if not corpus:
        return CorpusStats()
    total_turns = sum(len(d.turns) for d in corpus)
    total_domains = sum(len(d.final_goal.task_domains()) for d in corpus)
    tokens: set[str] = set()
    trigrams: set[tuple[str, str, str]] = set()
    tokens_sys: set[str] = set()
    trigrams_sys: set[tuple[str, str, str]] = set()
    for dlg in corpus:
        for turn in dlg.turns:
            for text, system_side in ((turn.user_utterance, False),
                                      (turn.system_response, True)):
                words = text.split()
                tokens.update(words)
                trigrams.update(_ngrams(words, 3))
                if system_side:
                    tokens_sys.update(words)
                    trigrams_sys.update(_ngrams(words, 3))
    n = len(corpus)
    return CorpusStats(
        total_dialogues=n,
        total_turns=total_turns,
        total_domains=total_domains,
        avg_turns=total_turns / n,
        avg_domains=total_domains / n,
        unique_tokens=len(tokens),
        unique_3grams=len(trigrams),
        unique_tokens_system=len(tokens_sys),
        unique_3grams_system=len(trigrams_sys),
    )


def combined_score(inform: float, success: float, bleu: float) -> float:
    """BLEU + 0.5 * (Inform + Success)."""
    if not all(0 <= x < math.inf for x in (inform, success, bleu)):  # nan fails both comparisons
        raise ValueError("metric values must be finite and nonnegative")
    return bleu + 0.5 * (inform + success)
