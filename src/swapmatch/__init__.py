"""Swap pattern matching toolkit.

Find every position where a pattern matches a text up to disjoint swaps
of adjacent, unequal symbols. The package bundles the fast bit-parallel
matcher (GSM), the slow graph-walking reference (BMA), a brute-force
oracle, faithful reimplementations of the flawed SMALGO matchers with a
discrepancy hunter, and automata tooling that demonstrates why a DFA
approach must blow up exponentially.

The names below are the public API; everything else stays importable
from its submodule (``swapmatch.gsm``, ``swapmatch.oracle``,
``swapmatch.model``, ``swapmatch.smalgo``, ``swapmatch.dfa``,
``swapmatch.bitvec``, ``swapmatch.report``).
"""

from .bitvec import count_ops
from .dfa import verify_lower_bound
from .gsm import gsm_precompute, gsm_search, gsm_search_stream, gsm_step, zero_state
from .model import bma_search
from .oracle import oracle_search
from .report import MatchReport
from .smalgo import Discrepancy, find_discrepancies, smalgo1_search, smalgo2_search

__version__ = "0.1.0"

__all__ = [
    # searchers
    "gsm_search",
    "gsm_search_stream",
    "bma_search",
    "oracle_search",
    "smalgo1_search",
    "smalgo2_search",
    # results and discrepancies
    "MatchReport",
    "find_discrepancies",
    "Discrepancy",
    # DFA lower bound
    "verify_lower_bound",
    # the 13-op reference step
    "gsm_step",
    "gsm_precompute",
    "zero_state",
    "count_ops",
]
