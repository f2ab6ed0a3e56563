"""Swap pattern matching toolkit.

Find every position where a pattern matches a text up to disjoint swaps
of adjacent, unequal symbols. The package bundles the fast bit-parallel
matcher (GSM), the slow graph-walking reference (BMA), a brute-force
oracle, faithful reimplementations of the flawed SMALGO matchers with a
discrepancy hunter, and automata tooling that demonstrates why a DFA
approach must blow up exponentially.
"""

from .bitvec import BitVector, count_ops
from .dfa import (
    Dfa,
    LowerBoundReport,
    Nfa,
    StateLimitExceeded,
    build_swap_nfa,
    determinize,
    dfa_accepts,
    dfa_scan_ends,
    dfa_to_nfa,
    growth_csv,
    growth_table,
    minimize,
    nfa_accepts,
    pattern_family,
    distinguishing_text,
    verify_lower_bound,
)
from .gsm import (
    GsmMasks,
    GsmState,
    gsm_accepts,
    gsm_precompute,
    gsm_search,
    gsm_search_stream,
    gsm_step,
    zero_state,
)
from .model import PGraph, bma_at, bma_search, build_pgraph
from .oracle import enumerate_swapped_versions, oracle_match_at, oracle_search
from .report import MatchReport
from .smalgo import (
    Discrepancy,
    ScanResult,
    SmalgoMasks,
    exhaustive_strings,
    find_discrepancies,
    format_discrepancies,
    parse_discrepancies,
    smalgo1_search,
    smalgo1_trace,
    smalgo2_search,
    smalgo_precompute,
)

__version__ = "0.1.0"

__all__ = [
    "BitVector",
    "count_ops",
    "MatchReport",
    "PGraph",
    "bma_at",
    "bma_search",
    "build_pgraph",
    "enumerate_swapped_versions",
    "oracle_match_at",
    "oracle_search",
    "GsmMasks",
    "GsmState",
    "zero_state",
    "gsm_precompute",
    "gsm_step",
    "gsm_accepts",
    "gsm_search",
    "gsm_search_stream",
    "SmalgoMasks",
    "smalgo_precompute",
    "smalgo1_search",
    "smalgo1_trace",
    "smalgo2_search",
    "Discrepancy",
    "ScanResult",
    "find_discrepancies",
    "format_discrepancies",
    "parse_discrepancies",
    "exhaustive_strings",
    "Nfa",
    "Dfa",
    "StateLimitExceeded",
    "build_swap_nfa",
    "nfa_accepts",
    "determinize",
    "dfa_accepts",
    "dfa_scan_ends",
    "dfa_to_nfa",
    "minimize",
    "pattern_family",
    "distinguishing_text",
    "verify_lower_bound",
    "LowerBoundReport",
    "growth_table",
    "growth_csv",
]
