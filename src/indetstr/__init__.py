"""Indeterminate strings from prefix tables.

Core pipeline: a feasible array determines a prefix graph of forced matches
and mismatches; walking it yields an indeterminate string whose prefix table
is the array, lex-least on a minimum alphabet up to length 4 only.  Small-case
brute-force oracles check the fast paths and a timing harness measures growth.
"""

from .bench import BenchConfig, gen_random_feasible, growth_trend, run_bench
from .core import (
    FeasibleArray,
    FeasibleArrayError,
    IndetString,
    Letter,
    ParseError,
    Symbol,
    TableCheck,
    compute_prefix_table,
    format_array,
    format_string,
    letter,
    letters_match,
    parse_array,
    parse_string,
    symbols_used,
    validate_feasible,
    verify_prefix_table,
)
from .graph import (
    PrefixGraph,
    build_prefix_graph,
    edge_label_string,
    export_graph,
    is_regular,
    isolated_positive_vertices,
    positive_components,
    regular_string_from_components,
)
from .inference import infer, infer_with_trace
from .oracle import (
    BudgetExceeded,
    brute_force_is_regular,
    brute_force_lex_least,
    enumerate_feasible,
)

__all__ = [
    "BenchConfig",
    "BudgetExceeded",
    "FeasibleArray",
    "FeasibleArrayError",
    "IndetString",
    "Letter",
    "ParseError",
    "PrefixGraph",
    "Symbol",
    "TableCheck",
    "brute_force_is_regular",
    "brute_force_lex_least",
    "build_prefix_graph",
    "compute_prefix_table",
    "edge_label_string",
    "enumerate_feasible",
    "export_graph",
    "format_array",
    "format_string",
    "gen_random_feasible",
    "growth_trend",
    "infer",
    "infer_with_trace",
    "is_regular",
    "isolated_positive_vertices",
    "letter",
    "letters_match",
    "parse_array",
    "parse_string",
    "positive_components",
    "regular_string_from_components",
    "run_bench",
    "symbols_used",
    "validate_feasible",
    "verify_prefix_table",
]
