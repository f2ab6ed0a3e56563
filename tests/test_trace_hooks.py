"""The benchmark's span recorder still finds the layer boundaries it wraps.

``perfbench/spans.py`` replaces module attributes by name from outside the
package, so renaming or re-plumbing one of them silently empties a
per-layer metric. Each command runs in a fresh process, as the benchmark
runs it, with the recorder installed.
"""

import csv
import io
import json
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

from swapmatch.cli import main
from swapmatch.gsm import BLOCK

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import io, json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import swapmatch.cli as cli
from spans import Recorder, install, layer_values

recorder = Recorder()
install(recorder)
run = recorder.wrap("cli.main", cli.main)
out = io.StringIO()
sys.stdout = out
try:
    code = run(sys.argv[4:])
finally:
    sys.stdout = sys.__stdout__
recorder.spans[0][4] = {"output_bytes": len(out.getvalue())}
recorder.dump(sys.argv[3])
with open(sys.argv[3], encoding="utf-8") as fh:
    dump = json.load(fh)
print(json.dumps({"code": code, "spans": dump["spans"], "values": layer_values(dump)}))
"""


def traced(tmp_path, argv):
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "src"), str(ROOT / "perfbench"),
         str(tmp_path / "spans.json"), *argv],
        capture_output=True,
        timeout=300,
        check=True,
    )
    return json.loads(proc.stdout)


def test_search_stream_records_scan_spans(tmp_path):
    text = tmp_path / "text.txt"
    text.write_bytes(b"acgt" * 5_000)
    run = traced(tmp_path, ["search", "--file", str(text), "--pattern", "acgtacgt"])
    assert run["code"] == 0
    scans = [s[5] for s in run["spans"] if s[0] == "gsm.scan"]
    assert scans == [{"p": 8, "symbols": 20_000}]
    values = run["values"]
    # the scan's one block has a piece of positions per quarter, and each
    # piece is checked as one report before it prints
    assert values["report.calls"] == 4
    assert values["report.positions"] == 20_000 // 4 - 1
    assert values["scan_symbols.p8"] == 20_000
    # search streams past the two read-all seams the recorder wraps, with
    # every algo, so their figures read 0 until it wraps a streaming one
    assert values["gsm.calls"] == 0
    assert values["cli.text_symbols"] == 0


def test_search_jsonl_records_one_report_per_scan(tmp_path):
    text = tmp_path / "text.txt"
    t = 3 * BLOCK + 101
    text.write_bytes((b"ab" * t)[:t])
    run = traced(
        tmp_path, ["search", "--file", str(text), "--pattern", "abab", "--format", "jsonl"]
    )
    assert run["code"] == 0
    values = run["values"]
    # each of the four scans is one piece, a range, checked once as it is
    # spilled; each spilled piece is read back and printed, unchecked, by
    # one call
    assert len([s for s in run["spans"] if s[0] == "gsm.scan"]) == 4
    assert values["report.calls"] == 4
    assert values["report.positions"] == t - 3
    prints = [s for s in run["spans"] if s[0] == "cli.print"]
    assert len(prints) == 4
    assert values["cli.output_bytes"] > 0


def test_search_oracle_records_one_span_per_scan(tmp_path):
    text = tmp_path / "text.txt"
    t = 3 * BLOCK + 101
    text.write_bytes((b"acgt" * t)[:t])
    run = traced(
        tmp_path, ["search", "--algo", "oracle", "--file", str(text), "--pattern", "acgtacgt"]
    )
    assert run["code"] == 0
    values = run["values"]
    # the oracle runs once on each of the four scans gsm_scans gathers;
    # each scan after the first carries p + 1 symbols, 2 windows more
    assert values["oracle.calls"] == 4
    assert values["oracle.windows"] == t - 7 + 3 * 2
    assert not [s for s in run["spans"] if s[0] == "gsm.scan"]
    # each scan's report is checked by the oracle and again by search
    assert values["report.calls"] == 8
    # the same zeros as the gsm stream: no read-all seam is passed
    assert values["gsm.calls"] == 0
    assert values["cli.text_symbols"] == 0


def test_verify_random_records_oracle_and_reverify_spans(tmp_path):
    run = traced(
        tmp_path,
        ["verify", "--mode", "random", "--algos", "gsm,smalgo1", "--sigma", "ab",
         "--p-max", "6", "--t-max", "12", "--trials", "50", "--seed", "42"],
    )
    assert run["code"] == 0
    values = run["values"]
    assert values["gsm.calls"] == 50
    assert values["oracle.calls"] == 50  # one per trial
    assert values["smalgo.discrepancies"] > 0
    # each pair with discrepancies runs its algorithm once more to
    # re-verify them, however many records it has
    assert values["smalgo.reverify_searches"] == 9
    # every SMALGO search builds its masks through smalgo_precompute, as
    # ints: no BitVector is built
    assert values["smalgo.precompute_calls"] > 0
    assert values["bitvec.vectors_built"] == 0


def test_dfa_growth_records_automaton_spans(tmp_path):
    run = traced(tmp_path, ["dfa-growth", "--k-max", "3"])
    assert run["code"] == 0
    values = run["values"]
    assert values["dfa.determinize_s"] > 0
    assert values["dfa.minimize_s"] > 0
    # the spans count the states of every table row (204 for k = 1..3)
    direct = io.StringIO()
    with redirect_stdout(direct):
        assert main(["dfa-growth", "--k-max", "3"]) == 0
    rows = list(csv.DictReader(io.StringIO(direct.getvalue())))
    assert values["dfa.dfa_states"] == sum(int(r["dfa_states"]) for r in rows)
    assert values["dfa.min_dfa_states"] == sum(int(r["min_dfa_states"]) for r in rows)
