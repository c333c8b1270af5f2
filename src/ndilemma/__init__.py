"""ndilemma: iterated N-player social dilemmas, fingerprinting, self-play
grids, and cultural evolution."""

__version__ = "0.1.0"

from .bounds import WelfareBounds, welfare_bounds
from .engine import StrategyFault, play_blocks, play_game
from .evolution import (
    BatchRunsSummary,
    EvolutionConfig,
    EvolutionResult,
    Gene,
    GenerationStats,
    Population,
    batch_runs,
    run_evolution,
    run_generation,
    welfare_efficiency,
)
from .fingerprint import (
    DecisionNode,
    PcaResult,
    cohens_d,
    enumerate_nodes,
    fingerprint,
    fingerprint_many,
    mpd,
    participation_ratio,
    pca,
)
from .games import (
    Action,
    GameConfigError,
    GameKind,
    GameParams,
    GameResult,
    RoundRecord,
    cpr_round,
    crd_payoffs,
    pgg_payoffs,
)
from .kernels import default_reference_overlay, kernel_strategy, make_reference
from .policy import PolicySpec, SchemaError, load_pool, policy_strategy
from .pools import (
    FamilySpec,
    ValidationReport,
    admit_pool,
    synth_pool,
    validate_pool,
    validate_strategy,
)
from .selfplay import MixGridConfig, MixGridRow, emit_grid_csv, read_grid_csv, run_mix_grid
from .strategies import Attitude, Observation, Strategy, StrategyPool

__all__ = [
    "Action",
    "Attitude",
    "BatchRunsSummary",
    "DecisionNode",
    "EvolutionConfig",
    "EvolutionResult",
    "FamilySpec",
    "GameConfigError",
    "GameKind",
    "GameParams",
    "GameResult",
    "Gene",
    "GenerationStats",
    "MixGridConfig",
    "MixGridRow",
    "Observation",
    "PcaResult",
    "PolicySpec",
    "Population",
    "RoundRecord",
    "SchemaError",
    "Strategy",
    "StrategyFault",
    "StrategyPool",
    "ValidationReport",
    "WelfareBounds",
    "admit_pool",
    "batch_runs",
    "cohens_d",
    "cpr_round",
    "crd_payoffs",
    "default_reference_overlay",
    "emit_grid_csv",
    "enumerate_nodes",
    "fingerprint",
    "fingerprint_many",
    "kernel_strategy",
    "load_pool",
    "make_reference",
    "mpd",
    "participation_ratio",
    "pca",
    "pgg_payoffs",
    "play_blocks",
    "play_game",
    "policy_strategy",
    "read_grid_csv",
    "run_evolution",
    "run_generation",
    "run_mix_grid",
    "synth_pool",
    "validate_pool",
    "validate_strategy",
    "welfare_bounds",
    "welfare_efficiency",
]
