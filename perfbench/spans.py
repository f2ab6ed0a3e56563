"""Span recorder for traced runs, installed around swapmatch from outside.

``install`` replaces module attributes at the layer boundaries with
wrappers that record one span per call: its name (the layer), its
parent span, start and end, and a few counts taken from the arguments
or the result. Spans stay in memory; ``Recorder.dump`` writes them once,
at exit, with each span's self time (its duration minus the time its
direct children cover). ``layer_values`` turns one invocation's spans
into the raw per-layer quantities the benchmark aggregates.
"""

from __future__ import annotations

import json
import os
import sys
from time import perf_counter_ns


class Recorder:
    def __init__(self) -> None:
        # each span: [name, parent index or -1, start_ns, end_ns, attrs or None]
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    def wrap(self, name, fn, attrs=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, perf_counter_ns(), 0, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = perf_counter_ns()
                stack.pop()
            if attrs is not None:
                rec[4] = attrs(args, result)
            return result

        return traced

    def count(self, name, fn):
        counts = self.counts
        counts[name] = 0

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def dump(self, path: str) -> None:
        child_ns = [0] * len(self.spans)
        for name, parent, start, end, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "counts": self.counts,
                    "spans": [
                        [name, parent, start, end, end - start - child_ns[i], attrs]
                        for i, (name, parent, start, end, attrs) in enumerate(self.spans)
                    ],
                },
                fh,
            )


def _read_attrs(args, data):
    ns = args[0]
    if ns.file is not None:
        size = os.path.getsize(ns.file)
    else:
        size = len(ns.text or "")
    return {"input_bytes": size, "text_symbols": len(data)}


def _windows(args, _report):
    return {"windows": max(0, len(args[1]) - len(args[0]) + 1)}


# (module, attribute, span name, attrs from (args, result))
FUNCTIONS = (
    ("cli", "_read_text_input", "cli.read", _read_attrs),
    ("cli", "_print_report", "cli.print", None),
    ("gsm", "gsm_search", "gsm.search", lambda a, r: {"matches": len(r.positions)}),
    ("gsm", "gsm_precompute", "gsm.precompute", None),
    ("gsm", "_mask_triples", "gsm.mask_triples", None),
    ("gsm", "_scan_chunk", "gsm.scan", lambda a, r: {"p": a[2], "symbols": len(a[3])}),
    ("oracle", "oracle_search", "oracle.search", _windows),
    ("smalgo", "smalgo_precompute", "smalgo.precompute", None),
    ("smalgo", "smalgo1_search", "smalgo.search", None),
    ("smalgo", "smalgo2_search", "smalgo.search", None),
    ("smalgo", "find_discrepancies", "smalgo.find_discrepancies", None),
    ("model", "bma_search", "model.bma", None),
    ("dfa", "determinize", "dfa.determinize", lambda a, r: {"states": r.n_states}),
    ("dfa", "minimize", "dfa.minimize", lambda a, r: {"states": r.n_states}),
)

# (module, class, method, span name, attrs)
METHODS = (
    ("report", "MatchReport", "__post_init__", "report.validate",
     lambda a, r: {"positions": len(a[0].positions)}),
    ("smalgo", "Discrepancy", "__post_init__", "smalgo.discrepancy", None),
)


def install(recorder: Recorder) -> None:
    """Wrap every layer boundary of the imported swapmatch package.

    A function is replaced wherever a swapmatch module holds a reference
    to it (modules import each other's functions by name) and in the
    engine registry, so calls through any of those names are recorded.
    """
    modules = [m for n, m in sys.modules.items() if n.startswith("swapmatch.")]
    registry = sys.modules["swapmatch.smalgo"].SEARCHERS
    for mod, attr, name, attrs in FUNCTIONS:
        original = getattr(sys.modules[f"swapmatch.{mod}"], attr)
        traced = recorder.wrap(name, original, attrs)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, traced)
        for key, value in registry.items():
            if value is original:
                registry[key] = traced
    for mod, cls_name, method, name, attrs in METHODS:
        cls = getattr(sys.modules[f"swapmatch.{mod}"], cls_name)
        setattr(cls, method, recorder.wrap(name, getattr(cls, method), attrs))
    bitvector = sys.modules["swapmatch.bitvec"].BitVector
    bitvector.__init__ = recorder.count("bitvec.vectors_built", bitvector.__init__)


SEARCH_SPANS = ("gsm.search", "model.bma", "smalgo.search", "oracle.search")

# scan spans shorter than this are dominated by per-call cost, not the
# per-symbol cost the paper's model describes
COST_MODEL_MIN_SYMBOLS = 10_000
COST_MODEL_PATTERN_LENGTHS = (8, 64, 512)


def layer_values(dump: dict) -> dict[str, float]:
    """Raw per-layer quantities of one traced invocation.

    Times are in seconds. Span 0 is the one around the whole command;
    its self time is the CLI's own work.
    """
    root = 0
    spans = dump["spans"]
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    for name, _, start, end, _, _ in spans:
        total[name] = total.get(name, 0) + (end - start) / 1e9
        calls[name] = calls.get(name, 0) + 1

    def attr_sum(span_name, key):
        return sum(s[5][key] for s in spans if s[0] == span_name and s[5])

    def under(i, span_name):
        while i >= 0:
            if spans[i][0] == span_name:
                return True
            i = spans[i][1]
        return False

    smalgo_searches = [i for i, s in enumerate(spans) if s[0] == "smalgo.search"]
    values = {
        "gsm.scan_s": total.get("gsm.scan", 0),
        "gsm.precompute_s": total.get("gsm.precompute", 0) + total.get("gsm.mask_triples", 0),
        "gsm.calls": calls.get("gsm.search", 0),
        "gsm.matches": attr_sum("gsm.search", "matches"),
        "cli.read_s": total.get("cli.read", 0),
        "cli.input_bytes": attr_sum("cli.read", "input_bytes"),
        "cli.text_symbols": attr_sum("cli.read", "text_symbols"),
        "cli.print_s": total.get("cli.print", 0),
        "cli.output_bytes": spans[root][5]["output_bytes"],
        "cli.self_s": spans[root][4] / 1e9,
        "report.validate_s": total.get("report.validate", 0),
        "report.calls": calls.get("report.validate", 0),
        "report.positions": attr_sum("report.validate", "positions"),
        "oracle.search_s": total.get("oracle.search", 0),
        "oracle.calls": calls.get("oracle.search", 0),
        "oracle.windows": attr_sum("oracle.search", "windows"),
        "smalgo.precompute_s": total.get("smalgo.precompute", 0),
        "smalgo.precompute_calls": calls.get("smalgo.precompute", 0),
        "smalgo.search_s": total.get("smalgo.search", 0),
        "smalgo.discrepancies": calls.get("smalgo.discrepancy", 0),
        "smalgo.reverify_searches": sum(
            1 for i, s in enumerate(spans)
            if s[0] in SEARCH_SPANS and under(s[1], "smalgo.discrepancy")
        ),
        "smalgo.first_pass_searches": sum(1 for i in smalgo_searches if spans[i][1] == root),
        "smalgo.all_searches": len(smalgo_searches),
        "model.bma_s": total.get("model.bma", 0),
        "model.bma_calls": calls.get("model.bma", 0),
        "bitvec.vectors_built": dump["counts"].get("bitvec.vectors_built", 0),
        "dfa.determinize_s": total.get("dfa.determinize", 0),
        "dfa.minimize_s": total.get("dfa.minimize", 0),
        "dfa.dfa_states": attr_sum("dfa.determinize", "states"),
        "dfa.min_dfa_states": attr_sum("dfa.minimize", "states"),
    }
    for p in COST_MODEL_PATTERN_LENGTHS:
        long_scans = [
            s for s in spans
            if s[0] == "gsm.scan" and s[5]["p"] == p and s[5]["symbols"] >= COST_MODEL_MIN_SYMBOLS
        ]
        values[f"scan_ns.p{p}"] = sum(s[3] - s[2] for s in long_scans)
        values[f"scan_symbols.p{p}"] = sum(s[5]["symbols"] for s in long_scans)
    return values
