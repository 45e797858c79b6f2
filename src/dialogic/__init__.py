"""Controllable simulation of annotated task-oriented dialogues.

Seeded with a few annotated dialogues and an ontology, the library selects
in-context examples by goal similarity, prompts a completion-style LLM to
generate annotated turns, and verifies/revises every annotation on the fly.
"""

from .backend import (
    CompletionBackend,
    CompletionRequest,
    HttpBackendConfig,
    HttpCompletionBackend,
    MockBackend,
    ReplayBackend,
    record_transcript,
)
from .corpus import SeedDataset, load_seed_corpus, save_corpus
from .database import EntityDb, bucketize, default_entity_db, load_entity_db
from .exemplar import (
    build_prompt,
    goal_similarity,
    parse_act,
    parse_goal,
    parse_system_line,
    parse_user_line,
    selection_probabilities,
    serialize_act,
    serialize_goal,
)
from .goals import (
    GoalStrategy,
    RsDistribution,
    generate_goal_combination,
    generate_goal_random,
    generate_goal_substitution,
)
from .model import (
    DecodeConfig,
    DialogAct,
    Dialogue,
    DialogueState,
    DbResult,
    GenConfig,
    Turn,
    TurnBelief,
    UserGoal,
    accumulate_state,
)
from .ontology import Ontology, default_ontology, load_ontology
from .revision import (
    AuxPredictor,
    LexicalAuxPredictor,
    merge_beliefs,
    revise_belief,
    slot_value_match_filter,
    validate_act,
)
from .simulator import (
    augment_dst_turn,
    generate_turn_belief,
    simulate_batch,
    simulate_dialogue,
)
from .stats import CorpusStats, combined_score, compute_stats

__version__ = "0.1.0"
