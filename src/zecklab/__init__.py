"""Decompositions of integers over linear recurrence numeration systems.

Generate exact sequence terms for a validated recurrence, decompose integers
greedily, decide legality under the block grammar, enumerate all legal
decompositions, and probe families for uniqueness failures.
"""

from .recurrence import (
    Kind,
    RecurrenceSpec,
    construction_applies,
    parse_recurrence,
)
from .sequence import SequenceHandle
from .legality import (
    Decomposition,
    DerivationBlock,
    LegalityVerdict,
    canonicalize,
    evaluate,
    is_legal,
    parse_decomposition,
    replay_derivation,
    window_alignment,
    word_derivation,
    word_is_legal,
)
from .greedy import BlockStep, greedy_decompose
from .enumerator import (
    DEFAULT_GRAMMAR_BUDGET,
    DEFAULT_ORACLE_BOUND,
    bijection_count,
    decompositions_up_to,
    enumerate_legal,
    first_nonunique,
    naive_oracle,
)
from .uniqueness import (
    CSV_HEADER,
    CounterexampleReport,
    ExperimentRecord,
    UniquenessReport,
    case1_slack_closed_form,
    construct_counterexample,
    construction_slack,
    expand_grid,
    probe_family,
    verify_uniqueness_range,
)
from . import errors

__version__ = "0.1.0"

__all__ = [
    "Kind",
    "RecurrenceSpec",
    "construction_applies",
    "parse_recurrence",
    "SequenceHandle",
    "Decomposition",
    "DerivationBlock",
    "LegalityVerdict",
    "canonicalize",
    "evaluate",
    "is_legal",
    "parse_decomposition",
    "replay_derivation",
    "window_alignment",
    "word_derivation",
    "word_is_legal",
    "BlockStep",
    "greedy_decompose",
    "DEFAULT_GRAMMAR_BUDGET",
    "DEFAULT_ORACLE_BOUND",
    "bijection_count",
    "decompositions_up_to",
    "enumerate_legal",
    "first_nonunique",
    "naive_oracle",
    "CSV_HEADER",
    "CounterexampleReport",
    "ExperimentRecord",
    "UniquenessReport",
    "case1_slack_closed_form",
    "construct_counterexample",
    "construction_slack",
    "expand_grid",
    "probe_family",
    "verify_uniqueness_range",
    "errors",
]
