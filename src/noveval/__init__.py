"""Novelty-based utility evaluation for information retrieval systems."""

from .corpus_io import (
    DEFAULT_GRADE_MAP,
    JudgmentSet,
    Relevance,
    RunEntry,
    RunSet,
    load_judgments,
    load_runs,
    parse_judgments,
    parse_run_file,
    write_judgments,
    write_run_file,
)
from .errors import (
    ConfigError,
    NovevalError,
    OracleScaleError,
    ParseError,
    ValidationError,
)
from .harness import (
    LeaveOneOut,
    PerQueryDiffMatrix,
    RankingRow,
    RankingTable,
    aggregate,
    per_query_diffs,
    run_leave_one_out,
    tie_break,
)
from .metrics import (
    EvalConfig,
    UtilityScore,
    average_precision,
    read_probability,
    total_utility,
)
from .synth import SyntheticSpec, generate, oracle_utility

__version__ = "0.1.0"
