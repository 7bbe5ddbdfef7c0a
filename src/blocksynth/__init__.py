"""Reversible-circuit synthesis for n-bit substitution maps.

The synthesis core halves the active problem size per stage by pairing up
rows and steering each pair into a reserved region of columns, then recurses
on the narrower residual map.  On top of that sit gate/permutation
primitives, conditioning passes that repair unfavourable row distributions,
cost accounting against analytic per-stage budgets, multiple-control
expansion, and text formats for permutations, truth tables, circuits and
reports.
"""

from .core import (
    MAX_WIDTH,
    Gate,
    GateSequence,
    InternalError,
    NotABijection,
    Permutation,
    PreconditionViolated,
    WidthMismatch,
    apply_gate,
    cx,
    sample,
    toffoli,
    verify_identity,
    x,
)
from .cost import (
    CostTable,
    DEFAULT_TABLE,
    ExpansionResult,
    MissingCostEntry,
    expand_mct,
    load_cost_table,
    quantum_cost,
    read_cost_table,
    resolve_table,
    toffoli_count,
)
from .io_formats import (
    ArityMismatch,
    MalformedInteger,
    TruthTable,
    Unbalanced,
    UnknownDirective,
    UnknownLineName,
    WrongCount,
    embed_truth_table,
    format_permutation,
    format_real,
    parse_permutation,
    parse_report,
    parse_truth_table,
    read_real,
    write_report,
)
from .reduction import (
    BoundSet,
    bounds,
    preprocessing_bound,
)
from .synthesis import (
    StageStats,
    SynthesisConfig,
    SynthesisReport,
    peephole,
    search_two_bit,
    synthesize,
)

__version__ = "0.1.0"

__all__ = [
    "ArityMismatch",
    "BoundSet",
    "CostTable",
    "DEFAULT_TABLE",
    "ExpansionResult",
    "Gate",
    "GateSequence",
    "InternalError",
    "MAX_WIDTH",
    "MalformedInteger",
    "MissingCostEntry",
    "NotABijection",
    "Permutation",
    "PreconditionViolated",
    "StageStats",
    "SynthesisConfig",
    "SynthesisReport",
    "TruthTable",
    "Unbalanced",
    "UnknownDirective",
    "UnknownLineName",
    "WidthMismatch",
    "WrongCount",
    "apply_gate",
    "bounds",
    "cx",
    "embed_truth_table",
    "expand_mct",
    "format_permutation",
    "format_real",
    "load_cost_table",
    "parse_permutation",
    "parse_report",
    "parse_truth_table",
    "peephole",
    "preprocessing_bound",
    "quantum_cost",
    "read_cost_table",
    "read_real",
    "resolve_table",
    "sample",
    "search_two_bit",
    "synthesize",
    "toffoli",
    "toffoli_count",
    "verify_identity",
    "write_report",
    "x",
]
