"""Mutation check: do the tests that guard each engine kill one-line mutants?

Each mutant replaces one line of ``src/swapmatch``. The script copies
``src/`` into a temporary directory, applies the mutant there, and runs
the test file that guards the mutated code with the copy first on the
import path: the conformance harness for the correct engines, the
oracle (its parse, and the enumeration that its small-scope block test
reads as the truth) and the scans of ``gsm_scans`` that run any other
searcher, the frozen fixtures of ``test_smalgo.py`` for the
knowingly flawed SMALGO engines (and the graph edge rule their masks are
read from), the discrepancy tests of ``test_smalgo.py`` for the re-check of
each ``Discrepancy``, the ``determinize`` tests of ``test_dfa.py`` for
the signal-state walk, ``test_report.py`` for ``MatchReport`` and the
value records, ``test_bitvec.py`` for ``BitVector``, and ``test_cli.py``
for the CLI's error and output handling. A mutant is killed when that
run fails. Mutants that cannot change any output (they only change how
much work is done) carry the reason in ``equivalent`` and are expected
to survive.

    python tests/mutation.py              # every mutant
    python tests/mutation.py NAME [...]   # only the named ones

Prints one line per mutant and exits 1 when a mutant without a stated
reason survives or an expected survivor is killed. The file has no
``test_`` prefix, so pytest does not collect it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent

GUARDS = {
    "conformance": ["tests/test_conformance.py"],
    "smalgo-fixtures": ["tests/test_smalgo.py", "-k", "frozen or fixture"],
    "smalgo-discrepancy": ["tests/test_smalgo.py", "-k", "discrepancy"],
    "report": ["tests/test_report.py"],
    "bitvec": ["tests/test_bitvec.py"],
    "cli": ["tests/test_cli.py"],
    "dfa": ["tests/test_dfa.py", "-k", "determinize"],
}


class Mutant(NamedTuple):
    name: str
    module: str  # file under src/swapmatch
    old: str  # must occur exactly once in the module
    new: str
    guard: str  # key of GUARDS
    equivalent: str = ""  # why no output can change; empty if it must be killed


MUTANTS = (
    # gsm._scan_chunk: the overlap of a block with the next one
    Mutant("block-overlap-one-short", "gsm.py",
           "start + BLOCK + p - 1]", "start + BLOCK + p - 2]", "conformance"),
    # gsm._scan_chunk: early exit and re-base
    Mutant("rebase-by-zero-shifts", "gsm.py",
           "if s:", "if True:", "conformance",
           "a cut of 0 symbols keeps the whole block and builds the same ints again"),
    Mutant("rebase-never", "gsm.py",
           "if i == REBASE_COLUMN:", "if i == -1:", "conformance",
           "the re-base drops only lanes that cannot reach a match by column p - 1"),
    Mutant("rebase-keeps-one-more-lane", "gsm.py",
           "// w - (p - i))", "// w - (p - i) - 1)", "conformance",
           "cutting one symbol less keeps one symbol that no signal reaches"),
    Mutant("rebase-one-lane-too-far", "gsm.py",
           "// w - (p - i))", "// w - (p - i) + 1)", "conformance"),
    Mutant("rebase-block-not-cut", "gsm.py",
           "block = block[:len(block) - s]", "block = block", "conformance"),
    Mutant("rebase-keeps-uncut-occurrences", "gsm.py",
           "                    occ = _Occurrences(block, tables, w, lanes)",
           "                    pass", "conformance"),
    # gsm: occurrence ints and position extraction
    Mutant("nibble-select-off-by-one", "gsm.py",
           "(group >> r if r else group) & self.lanes", "(group >> (r + 1)) & self.lanes",
           "conformance"),
    Mutant("nibble-mask-one-byte-short", "gsm.py",
           'b"\\x11" * ((BLOCK + p) // 2)', 'b"\\x11" * ((BLOCK + p) // 2 - 1)',
           "conformance"),
    Mutant("extract-always-by-find", "gsm.py",
           "if count * 8 < n:", "if True:", "conformance",
           "find and compress read the same set lanes; the threshold picks the "
           "cheaper one"),
    Mutant("extract-find-skips-a-lane", "gsm.py",
           'k = find("1", k + 1)', 'k = find("1", k + 2)', "conformance"),
    Mutant("extract-compress-off-by-one", "gsm.py",
           "piece = list(compress(range(first, first + n),",
           "piece = list(compress(range(first + 1, first + 1 + n),", "conformance"),
    # gsm._extend_positions: a block whose every lane is set is one range
    Mutant("extract-range-one-lane-late", "gsm.py",
           "out.append(range(first, first + n))",
           "out.append(range(first + 1, first + 1 + n))", "conformance"),
    Mutant("extract-range-with-a-lane-unset", "gsm.py",
           "if count == n:", "if count >= n - 1:", "conformance"),
    # gsm._mask_triples: the pending-swap row of the plan
    Mutant("swap-row-never", "gsm.py",
           "cols[i + 1] if i + 1 < p and cols[i + 1] != cols[i] else None,", "None,",
           "conformance"),
    Mutant("swap-row-kept-between-equal-symbols", "gsm.py",
           " and cols[i + 1] != cols[i] else None,", " else None,", "conformance",
           "between equal symbols B_i is a subset of A_i, and A_i already feeds "
           "all that B_i feeds; test_dfa.py decides it for every text, per ab "
           "pattern with p <= 10 and abc pattern with p <= 6"),
    # gsm.gsm_scans: the one scan loop behind gsm_search, the stream and the CLI
    Mutant("stream-scans-every-chunk", "gsm.py",
           "if size < BLOCK:", "if size < 1:", "conformance",
           "each scan starts p - 1 symbols early, so a window across any cut is "
           "found whole in the scan where it ends, and smaller scans give the "
           "same positions"),
    Mutant("stream-rescans-last-chunk", "gsm.py",
           "pending = [text[max(0, len(text) - carry):]]", "pending = pending[-1:]",
           "conformance"),
    Mutant("stream-tail-one-short", "gsm.py",
           "carry = p - 1 if search is None", "carry = p - 2 if search is None",
           "conformance"),
    Mutant("stream-drops-later-pieces-of-a-scan", "gsm.py",
           "        while pieces:\n", "        if pieces:\n", "conformance"),
    # gsm.gsm_scans with a searcher: the symbols carried before a window,
    # and the windows kept from each scan
    Mutant("search-lead-one-short", "gsm.py",
           "LEAD = 2", "LEAD = 1", "conformance"),
    Mutant("search-rereports-carried-window", "gsm.py",
           "if k + p - 1 > carried]", "if k + p - 1 >= carried]", "conformance"),
    # model.build_pgraph: the edge rule the SMALGO masks are read from
    # (knowingly flawed engines: frozen fixtures)
    Mutant("smalgo-edge-rule-flipped", "model.py",
           "if (w[0] == -1) == (r == 1)", "if (w[0] == -1) != (r == 1)",
           "smalgo-fixtures"),
    # smalgo.smalgo_precompute
    Mutant("smalgo-pmask3-without-bit-one", "smalgo.py",
           "pmask3.get(triple, 1) | bit", "pmask3.get(triple, 0) | bit",
           "smalgo-fixtures"),
    # smalgo._pattern_masks: the one-entry mask cache, here keyed on the
    # pattern's length
    Mutant("smalgo-masks-cache-stale", "smalgo.py",
           "return smalgo_precompute(pattern)",
           "return _pattern_masks.__dict__.setdefault(len(pattern), smalgo_precompute(pattern))",
           "smalgo-fixtures"),
    # smalgo.smalgo2_search: the column filter read from the landing rows
    Mutant("smalgo2-filter-drops-middle", "smalgo.py",
           "r &= (u | dn | mi | 1) & d", "r &= (u | dn | 1) & d", "smalgo-fixtures"),
    Mutant("smalgo2-filter-drops-column-one", "smalgo.py",
           "r &= (u | dn | mi | 1) & d", "r &= (u | dn | mi) & d", "smalgo-fixtures"),
    # smalgo.Discrepancy: every record re-verified on construction
    Mutant("discrepancy-skips-reverify", "smalgo.py",
           "if (reported, truth) != (expected, not expected):", "if False:",
           "smalgo-discrepancy"),
    # dfa.determinize: the signal-state walk
    Mutant("determinize-no-fresh-signal", "dfa.py",
           "rm_prop = (rm | ru) << 1 | 1", "rm_prop = (rm | ru) << 1", "dfa"),
    Mutant("determinize-row-filters-swapped", "dfa.py",
           "filters.append((d << 1, d, d >> 1))", "filters.append((d >> 1, d, d << 1))",
           "dfa"),
    # dfa.minimize (the conformance dfa engine)
    Mutant("minimize-stops-after-one-round", "dfa.py",
           "if len(ids) == n_blocks:", "if True:", "conformance"),
    Mutant("minimize-accepting-flipped", "dfa.py",
           "if member[b] in dfa.accepting)", "if member[b] not in dfa.accepting)",
           "conformance"),
    # model._sweep: the BMA sweep over per-column vertex sets
    Mutant("bma-filter-flipped", "model.py",
           "signal &= symbol_sets[c]", "signal -= symbol_sets[c]", "conformance"),
    Mutant("bma-successors-from-wrong-row", "model.py",
           "for w in successors[v])", "for w in successors[(0, v[1])])", "conformance"),
    # oracle._window_matches: the greedy parse
    Mutant("oracle-swap-skips-second-symbol", "oracle.py",
           " and text[k0 + i + 1] == pattern[i]:", ":", "conformance"),
    Mutant("oracle-swap-steps-one", "oracle.py",
           "i += 2", "i += 1", "conformance"),
    Mutant("oracle-swap-opens-at-last-symbol", "oracle.py",
           "elif i + 1 < p and ", "elif ", "conformance"),
    # oracle.enumerate_swapped_versions (the truth of the small-scope block test)
    Mutant("enumeration-swap-keeps-order", "oracle.py",
           "swap = pattern[i + 1:i + 2] + head", "swap = head + pattern[i + 1:i + 2]",
           "conformance"),
    Mutant("enumeration-swap-reads-wrong-suffix", "oracle.py",
           "for v in after]", "for v in here]", "conformance"),
    Mutant("enumeration-swaps-equal-symbols", "oracle.py",
           "if pattern[i] != pattern[i + 1]:", "if True:", "conformance",
           "a swap of equal symbols builds pattern[i] pattern[i+1] + v, which the "
           "unswapped branch already builds from pattern[i+1] + v; the frozenset "
           "drops the duplicate"),
    # report.MatchReport: the check its constructor runs
    Mutant("report-order-skips-a-pair", "report.py",
           "islice(pos, 1, None)", "islice(pos, 2, None)", "report"),
    Mutant("report-range-checks-first-only", "report.py",
           "for k in (pos[0], pos[-1]):", "for k in (pos[0],):", "report"),
    Mutant("report-keeps-any-range", "report.py",
           "isinstance(pos, range) and pos.step > 0", "isinstance(pos, range) and True",
           "report"),
    # report._Record: the one constructor and the value semantics of every record
    Mutant("records-skip-check", "report.py",
           "        self.__post_init__()\n", "", "report"),
    Mutant("records-accept-assignment", "report.py",
           'raise AttributeError(f"cannot assign to field {name!r}")',
           "object.__setattr__(self, name, value)", "report"),
    # bitvec.BitVector: the masking its record check runs
    Mutant("bitvec-value-unmasked", "bitvec.py",
           'self.__dict__["value"] = self.value & ((1 << self.length) - 1)', "pass",
           "bitvec"),
    # cli: main's error report and _stdout_writes
    Mutant("closed-pipe-reported-as-error", "cli.py",
           "if not isinstance(exc, BrokenPipeError):", "if True:", "cli"),
    Mutant("no-devnull-after-failed-write", "cli.py",
           "os.dup2(devnull, fd)", "pass", "cli"),
    Mutant("main-catches-only-valueerror", "cli.py",
           "except (ValueError, OSError, ReadError, StateLimitExceeded) as exc:",
           "except ValueError as exc:", "cli"),
    Mutant("read-error-taken-for-write-error", "cli.py",
           "raise ReadError(exc) from exc", "raise", "cli"),
    # cli._strip_fasta_headers: the FASTA state carried across a chunk cut
    Mutant("fasta-in-header-not-carried", "cli.py",
           "if in_header:", "if False:", "cli"),
    Mutant("fasta-chunk-start-is-line-start", "cli.py",
           "if k else line_start:", "if k else True:", "cli"),
    Mutant("fasta-fast-path-ignores-in-header", "cli.py",
           'if not in_header and b">" not in chunk:', 'if b">" not in chunk:', "cli"),
    # cli output: the one table writer and the jsonl position line
    Mutant("table-drops-header", "cli.py",
           "        out.writerow(header)\n", "", "cli"),
    Mutant("jsonl-position0-one-based", "cli.py",
           '"position0": {k - 1}', '"position0": {k}', "cli"),
    Mutant("jsonl-spill-range-one-short", "cli.py",
           "(positions.start, positions.stop)", "(positions.start, positions.stop - 1)",
           "cli"),
    # cli._print_report: runs of consecutive positions, cut from a slab
    Mutant("jsonl-thousand-position0-off-by-one", "cli.py",
           '{h}{d - 1:03d}{tail}', '{h}{d:03d}{tail}', "cli"),
    Mutant("run-test-accepts-a-gap", "cli.py",
           "if hi - lo != j - 1 - i or", "if hi - lo > j - i or", "cli"),
    Mutant("slab-rewrites-first-spot-only", "cli.py",
           "for spot in spots:", "for spot in spots[:1]:", "cli"),
    Mutant("sparse-output-builds-slabs", "cli.py",
           "_SLAB_RUN = 64", "_SLAB_RUN = 1", "cli"),
    # cli.main: the named command's parser alone, leftovers to the full parser
    Mutant("main-ignores-leftover-arguments", "cli.py",
           "if rest:", "if False:", "cli"),
)


def _copy_src(dest: Path, mutant: Mutant | None) -> Path:
    src = dest / "src"
    shutil.rmtree(src, ignore_errors=True)
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    if mutant is not None:
        path = src / "swapmatch" / mutant.module
        text = path.read_text()
        if text.count(mutant.old) != 1:
            raise SystemExit(
                f"{mutant.name}: {mutant.old!r} occurs {text.count(mutant.old)} times "
                f"in {mutant.module}, not once"
            )
        path.write_text(text.replace(mutant.old, mutant.new))
    return src


def _run(src: Path, args: list[str]) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True
    )


def _pytest(src: Path, guard: str) -> int:
    return _run(src, ["-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *GUARDS[guard]]).returncode


def main(names: list[str]) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    chosen = [m for m in MUTANTS if not names or m.name in names]
    with tempfile.TemporaryDirectory(prefix="swapmatch-mutation-") as tmp:
        src = _copy_src(Path(tmp), None)
        probe = _run(src, ["-c", "import swapmatch; print(swapmatch.__file__)"])
        if not probe.stdout.startswith(str(src)):
            print(f"the copy is not imported: {probe.stdout or probe.stderr}", file=sys.stderr)
            return 2
        for guard in sorted({m.guard for m in chosen}):
            if _pytest(src, guard) != 0:
                print(f"{guard} fails on the unmutated copy", file=sys.stderr)
                return 2
        outcomes = []
        for m in chosen:
            code = _pytest(_copy_src(Path(tmp), m), m.guard)
            outcome = {0: "survived", 1: "killed"}.get(code, f"error (pytest exit {code})")
            ok = outcome == ("survived" if m.equivalent else "killed")
            outcomes.append((outcome, ok))
            note = f"  [equivalent: {m.equivalent}]" if m.equivalent else ""
            print(f"{outcome:9} {m.name} ({m.guard}){note}{'' if ok else '  <- unexpected'}",
                  flush=True)
    killed = sum(outcome == "killed" for outcome, _ in outcomes)
    survived = sum(outcome == "survived" for outcome, _ in outcomes)
    bad = sum(not ok for _, ok in outcomes)
    print(f"{len(chosen)} mutants: {killed} killed, {survived} survived, {bad} unexpected")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
