"""Batch command-line front end.

Subcommands: ``search`` (run one matcher over bytes from a file, stdin or
a flag), ``verify`` (cross-check matchers against the oracle over
exhaustive or seeded-random instance spaces), ``flaw-demo`` (the worked
false-positive trace), ``dfa-growth``/``dfa-states`` (state-count
tables), and ``bench`` (seeded throughput measurements as CSV).

Exit codes: 0 success (for ``search``: at least one match), 1 no match,
2 error / failed verification. ``main`` is the one place that turns an
error a command raises (bad input, a failed read or write, a state cap
reached) into an ``error:`` line on stderr and exit 2. Each command
writes to stdout inside ``_stdout_writes``, so a reader that closes early
(``| head``) ends the output quietly and the command keeps its exit code.
``search`` streams with every algo: it reads its input in chunks and
prints each scan's positions as the scan ends, so its memory holds one
read chunk, one block, one scan's positions and one ``PRINT_BATCH`` of
output, whatever the input size; ``--format jsonl`` keeps the positions
in a temporary file until the end. ``verify`` writes each algorithm's
records to a temporary file as they are found, so its memory does not
grow with their number.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import re
import sys
import time
from contextlib import ExitStack, contextmanager, nullcontext, suppress
from random import Random
from typing import Collection, Iterator, Sequence

from .dfa import (
    DEFAULT_STATE_CAP,
    StateLimitExceeded,
    determinize,
    growth_csv,
    growth_table,
    minimize,
    nfa_state_count,
)
from .gsm import BLOCK, gsm_scans
from .model import build_pgraph
from .oracle import oracle_search
from .report import MatchReport, _Record
from .smalgo import (
    SEARCHERS,
    _pair_discrepancies,
    exhaustive_strings,
    format_discrepancies,
    smalgo1_trace,
    smalgo_precompute,
)

# desk-scale guards for verify
MAX_EXHAUSTIVE_PAIRS = 5_000_000
MAX_SPACE_STRINGS = 500_000
MAX_TRIALS = 1_000_000
MAX_RANDOM_T = 65_536
MAX_RANDOM_P = 512
MAX_BENCH_T = 100_000_000

# machine word size for the words column of bench records
WORD_BITS = 64

# positions formatted and written per stdout write in search
PRINT_BATCH = 4096

# bytes read per chunk by search: one GSM block
READ_CHUNK = BLOCK

# characters copied per read from a verify spill file to the output
_COPY_CHUNK = 1 << 16


class BenchRecord(_Record):
    """One benchmark measurement (median over repetitions)."""

    algo: str
    p: int
    t: int
    sigma: int
    words: int
    reps: int
    median_ns: int
    throughput_sym_per_s: float
    seed: int

    def csv_row(self) -> str:
        return (
            f"{self.algo},{self.p},{self.t},{self.sigma},{self.words},"
            f"{self.reps},{self.median_ns},{self.throughput_sym_per_s:.0f},{self.seed}"
        )


BENCH_CSV_HEADER = "algo,p,t,sigma,words,reps,median_ns,throughput_sym_per_s,seed"


def random_symbols(n: int, sigma: int, rng: Random) -> bytes:
    """n random bytes drawn from the first sigma byte values."""
    if not 1 <= sigma <= 256:
        raise ValueError("sigma must be in 1..256")
    raw = rng.randbytes(n)
    if sigma == 256:
        return raw
    return raw.translate(bytes(i % sigma for i in range(256)))


def run_bench(
    algos: Sequence[str],
    p_list: Sequence[int],
    t: int,
    sigma: int,
    seed: int,
    reps: int,
) -> list[BenchRecord]:
    """Median-of-reps timings on seeded random text, one record per (algo, p)."""
    if reps < 3:
        raise ValueError("reps must be >= 3")
    if t < 1:
        raise ValueError("t must be >= 1")
    if t > MAX_BENCH_T:
        raise ValueError(f"t={t} exceeds the cap {MAX_BENCH_T}")
    for i, p in enumerate(p_list):
        if p < 1:
            raise ValueError("p must be >= 1")
        if p > t:
            raise ValueError(f"p={p} exceeds t={t}")
        if p in p_list[:i]:
            raise ValueError(f"p-list repeats {p}")
    from statistics import median  # here, not at the top: no other command pays for its import

    records = []
    for algo in algos:
        search = SEARCHERS[algo]
        for p in p_list:
            rng = Random(seed)
            pattern = random_symbols(p, sigma, rng)
            text = random_symbols(t, sigma, rng)
            times = []
            for _ in range(reps):
                t0 = time.perf_counter_ns()
                search(pattern, text)
                times.append(time.perf_counter_ns() - t0)
            median_ns = int(median(times))
            records.append(
                BenchRecord(
                    algo=algo,
                    p=p,
                    t=t,
                    sigma=sigma,
                    words=-(-p // WORD_BITS),
                    reps=reps,
                    median_ns=median_ns,
                    throughput_sym_per_s=t / (median_ns / 1e9),
                    seed=seed,
                )
            )
    return records


# -- flaw demo -----------------------------------------------------------------

FLAW_PATTERN = "abab"
FLAW_TEXT = "aaba"


def flaw_demo_text() -> str:
    """The worked SMALGO-I false positive, rendered as printable tables."""
    pattern, text = FLAW_PATTERN, FLAW_TEXT
    p = len(pattern)
    masks = smalgo_precompute(pattern)
    out = []
    out.append(f"SMALGO-I false positive demo: pattern={pattern} text={text}")
    out.append("")
    out.append("Degenerate masks and triplet path masks (rows are positions i=1..4):")
    graph = build_pgraph(pattern)
    degenerate_sets = []
    for column in graph.columns[1 : p + 1]:
        # the column's labels, row 0 (its own symbol) first, then rows -1 and +1
        ordered = dict.fromkeys(graph.labels[v] for v in sorted(column, key=lambda v: v[0] != 0))
        degenerate_sets.append("[" + "".join(ordered) + "]")
    triples = sorted(
        ((x1, x2, x3) for x1 in "ab" for x2 in "ab" for x3 in "ab"),
        key=lambda t: (t.count("b"), t),
    )
    header = ["i", "deg"] + ["D~a", "D~b"] + ["".join(t) for t in triples]
    # column c of each mask is bit c - 1; a triplet with no entry reads as 1
    cells = [masks.dtilde.get(x, 0) for x in "ab"]
    cells += [masks.pmask3.get(t, 1) for t in triples]
    rows = [
        [str(i), degenerate_sets[i - 1]] + [str(m >> (i - 1) & 1) for m in cells]
        for i in range(1, p + 1)
    ]
    widths = [max(len(header[c]), *(len(r[c]) for r in rows)) for c in range(len(header))]
    out.append("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    for r in rows:
        out.append("  ".join(v.ljust(w) for v, w in zip(r, widths)))
    out.append("")

    r1, steps, report = smalgo1_trace(pattern, text)
    out.append("Execution (vectors shown position 1 first):")
    out.append(f"R^1 = {r1.to01()}")
    for s in steps:
        key = "".join(str(x) for x in s.pmask_key)
        out.append(
            f"R^{s.j} = LSO(R^{s.j - 1}) & D~[{text[s.j - 1]}] & RShift(D~[{text[s.j]}]) & P({key})"
            f" = {s.lso_r.to01()} & {s.dtilde_cur.to01()} & {s.rshift_dtilde_next.to01()}"
            f" & {s.pmask.to01()} = {s.r_next.to01()}"
        )
    out.append("")
    out.append(
        f"Match check looks at position {p - 1} of each vector; "
        f"R^3 has bit {p - 1} = {steps[-1].r_next.get_bit(p - 1)}."
    )
    out.append(
        f"smalgo1 reports positions: {list(report.positions)}"
    )
    verdict = oracle_search(pattern, text).positions
    out.append(f"oracle reports positions:  {list(verdict)}")
    out.append(
        "verdict: no swap match exists (two b's cannot come from one), "
        "so the reported match is a false positive."
    )
    return "\n".join(out) + "\n"


# -- input plumbing --------------------------------------------------------------

class ReadError(Exception):
    """A read of the search input failed; the ``OSError`` is its one argument.

    ``search`` reads as it prints, with every algo, inside
    ``_stdout_writes``, which takes an ``OSError`` for a failed write; a
    failed read must not pass for one.
    """


def _read_chunks(args) -> Iterator[bytes]:
    """The text of ``search`` as it is read, ``READ_CHUNK`` bytes at a time.

    ``--file`` is opened here, before the first chunk is asked for, so a
    bad path fails before any output.
    """
    if args.text is not None:
        fh, close = io.BytesIO(args.text.encode("latin-1")), True
    elif args.file is not None:
        fh, close = open(args.file, "rb"), True
    elif sys.stdin is None:  # started with stdin closed
        raise ValueError("no input: give --text or --file, or open stdin")
    else:
        fh, close = sys.stdin.buffer, False
    return _chunks(fh, close, args.fasta, args.fasta or args.strip_newlines)


def _chunks(fh, close: bool, fasta: bool, strip: bool) -> Iterator[bytes]:
    """Read ``fh`` to its end, ``READ_CHUNK`` bytes at a time, and yield each chunk.

    With ``fasta`` every line that starts with ">" is cut, the FASTA state
    carried from chunk to chunk; with ``strip`` every CR and LF is then
    deleted, by one ``replace`` each (a ``replace`` that finds nothing
    returns its chunk, so CR costs one search on LF-only input). ``fh``
    is closed at the end if ``close``.
    """
    in_header, line_start = False, True
    with fh if close else nullcontext():
        while True:
            try:
                chunk = fh.read(READ_CHUNK)
            except OSError as exc:
                raise ReadError(exc) from exc
            if not chunk:
                return
            if fasta:
                chunk, in_header, line_start = _strip_fasta_headers(chunk, in_header, line_start)
            if strip:
                chunk = chunk.replace(b"\n", b"").replace(b"\r", b"")
            yield chunk


def _read_text_input(args) -> bytes:
    """The whole text of ``search``, as ``_read_chunks`` reads it.

    ``search`` itself streams; this name stays because the benchmark's
    span recorder (``perfbench/spans.py``) wraps it as ``cli.read``.
    """
    return b"".join(_read_chunks(args))


# a ">" and the rest of its line; a header only when the ">" starts the line
_HEADER = re.compile(rb">[^\r\n]*")
_LINE_END = re.compile(rb"[\r\n]")


def _strip_fasta_headers(
    chunk: bytes, in_header: bool, line_start: bool
) -> tuple[bytes, bool, bool]:
    """Cut out of one chunk of a stream every line that starts with ">".

    Line ends (LF, CR) stay. A ">" inside a line is kept, and so is the
    rest of that line. Two facts carry across a cut: the chunk before
    ended inside a header line (``in_header``), or it ended in CR or LF,
    so that this chunk starts a line (``line_start``). The first chunk
    passes ``False, True``. Returns the kept bytes and the two facts at
    the end of this chunk. The chunk must not be empty. A chunk with no
    ">" that does not start inside a header is returned as it is, without
    a regex pass.
    """
    if not in_header and b">" not in chunk:
        return chunk, False, chunk[-1] in b"\r\n"
    keep = 0
    if in_header:
        end = _LINE_END.search(chunk)
        keep = end.start() if end else len(chunk)
    parts = []
    for m in _HEADER.finditer(chunk, keep):
        k = m.start()
        if chunk[k - 1] in b"\r\n" if k else line_start:
            parts.append(chunk[keep:k])
            keep = m.end()
    parts.append(chunk[keep:])
    return b"".join(parts), keep == len(chunk), chunk[-1] in b"\r\n"


def _print_report(report: MatchReport, fmt: str) -> None:
    """Write one line per position to ``sys.stdout``, ``PRINT_BATCH`` at a time.

    ``report`` is a ``MatchReport``, or for jsonl anything with its four
    fields: ``search`` prints positions read back from its spill file
    under the final text length, already checked scan by scan.

    Each batch is formatted in one go (``"%d\n" * n % chunk`` for text;
    for jsonl, one f-string per line around a head and a tail that are
    built once, with the keys in sorted order) and handed to one
    ``write``. The bytes equal a ``print`` per position, or a
    ``json.dumps(..., sort_keys=True)`` per position for jsonl. The batch
    is bounded so that a text where every window matches never holds its
    whole output as one string: that would be one ``str`` per position,
    tens of MB for a few hundred thousand positions.
    """
    pos = report.positions
    write = sys.stdout.write
    if fmt == "jsonl":
        head = (
            f'{{"algorithm": {json.dumps(report.algorithm)}, '
            f'"pattern_len": {report.pattern_len}, "position": '
        )
        tail = f', "text_len": {report.text_len}}}\n'
        for i in range(0, len(pos), PRINT_BATCH):
            write("".join([
                f'{head}{k}, "position0": {k - 1}{tail}'
                for k in pos[i:i + PRINT_BATCH]
            ]))
    else:
        for i in range(0, len(pos), PRINT_BATCH):
            chunk = pos[i:i + PRINT_BATCH]
            write("%d\n" * len(chunk) % chunk)


@contextmanager
def _stdout_writes() -> Iterator[None]:
    """Run a command's writes to stdout, then flush them.

    A reader that has gone (``| head``) ends the output quietly; any other
    failed write is re-raised for ``main`` to report. Either way stdout's
    file descriptor, if any, is first pointed at the null device, so the
    flush at interpreter exit cannot fail again. An ``OSError`` from the
    block is taken for a failed write, so the block holds only writes and
    reads that raise ``ReadError`` for a failed read (``_chunks``).
    """
    try:
        yield
        sys.stdout.flush()
    except OSError as exc:
        with suppress(AttributeError, OSError):
            fd = sys.stdout.fileno()
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, fd)
            os.close(devnull)
        if not isinstance(exc, BrokenPipeError):
            raise


def cmd_search(args) -> int:
    """Print the positions of each scan as it ends.

    Every algo scans as it reads (``gsm_scans``, with the algo's searcher
    unless it is gsm). Each scan's positions are checked as a
    ``MatchReport`` over the symbols read so far, and the first of them
    must follow the last one checked. Both are dropped before the next
    scan is asked for, so memory holds one read chunk, one block and its
    carry, one scan's positions and one ``PRINT_BATCH`` of output. A
    jsonl line carries the text length, known only at the end, so jsonl
    writes each checked scan's positions to an unnamed temporary file as
    ``array('q')`` bytes and at the end prints them back ``PRINT_BATCH``
    at a time with that length.
    """
    pattern = args.pattern.encode("latin-1")
    if not pattern:
        raise ValueError("pattern must be non-empty")
    algo = args.algo
    scans = gsm_scans(pattern, _read_chunks(args), None if algo == "gsm" else SEARCHERS[algo])
    p = len(pattern)
    spill = None
    if args.format == "jsonl":
        # here, not at the top: the text format pays for none of them
        from array import array
        from tempfile import TemporaryFile
        from types import SimpleNamespace

        spill = TemporaryFile()
    last = scanned = 0
    with spill or nullcontext(), _stdout_writes():
        for scanned, positions in scans:
            if positions:
                report = MatchReport(algo, positions, p, scanned)
                if positions[0] <= last:
                    raise ValueError(
                        f"positions not strictly increasing: {positions[0]} follows {last}"
                    )
                last = positions[-1]
                if spill is None:
                    _print_report(report, "text")
                else:
                    spill.write(array("q", positions))
                # dropped before gsm_scans builds the next scan
                del report
            del positions
        if spill is not None and last:
            spill.seek(0)
            batch = SimpleNamespace(algorithm=algo, pattern_len=p, text_len=scanned)
            size = PRINT_BATCH * array("q").itemsize
            while data := spill.read(size):
                batch.positions = array("q", data)
                _print_report(batch, "jsonl")
    return 0 if last else 1


def _space_size(sigma: int, lo: int, hi: int) -> int:
    return sum(sigma ** n for n in range(lo, hi + 1))


def _verify_pairs(args) -> Iterator[tuple[str, str]]:
    """The (pattern, text) pairs verify scans, generated lazily.

    Exhaustive mode pairs every pattern with every text. Random mode
    draws one pattern and one text per trial from ``Random(seed)`` as the
    trials are scanned, so memory does not grow with ``--trials``.
    """
    sigma = args.sigma
    if args.mode == "exhaustive":
        texts = list(exhaustive_strings(sigma, args.t_min, args.t_max))
        for pattern in exhaustive_strings(sigma, args.p_min, args.p_max):
            for text in texts:
                yield pattern, text
        return
    rng = Random(args.seed)
    for _ in range(args.trials):
        t_len = rng.randint(args.t_min, args.t_max)
        p_len = rng.randint(args.p_min, min(args.p_max, t_len))
        pattern = "".join(rng.choice(sigma) for _ in range(p_len))
        yield pattern, "".join(rng.choice(sigma) for _ in range(t_len))


def _parse_algos(spec: str, choices: Collection[str]) -> list[str]:
    """The algorithms that a comma-separated ``--algos`` value names.

    Raises ``ValueError`` unless the value names at least one, takes each
    from ``choices`` and repeats none.
    """
    algos = [a.strip() for a in spec.split(",") if a.strip()]
    if not algos:
        raise ValueError("algos must name at least one algorithm")
    unknown = [a for a in algos if a not in choices]
    if unknown:
        raise ValueError(f"algos {unknown} not among {sorted(choices)}")
    for i, algo in enumerate(algos):
        if algo in algos[:i]:
            raise ValueError(f"algos repeat {algo!r}")
    return algos


def cmd_verify(args) -> int:
    sigma = args.sigma
    # the oracle is the ground truth, so it cannot be verified
    algos = _parse_algos(args.algos, SEARCHERS.keys() - {"oracle"})
    if not sigma:
        raise ValueError("sigma must hold at least one symbol")
    if len(set(sigma)) != len(sigma):
        raise ValueError(f"sigma {sigma!r} repeats a symbol")
    # fixture records are tab-separated, one per line
    if set(sigma) & set("\t\r\n"):
        raise ValueError(f"sigma {sigma!r} holds a tab or a line break")
    if args.p_min < 1:
        raise ValueError("p-min must be >= 1")
    if args.p_min > args.p_max:
        raise ValueError("p-min must be <= p-max")
    if args.t_min < 0:
        raise ValueError("t-min must be >= 0")
    if args.t_min > args.t_max:
        raise ValueError("t-min must be <= t-max")
    if args.mode == "exhaustive":
        n_pat = _space_size(len(sigma), args.p_min, args.p_max)
        n_txt = _space_size(len(sigma), args.t_min, args.t_max)
        if n_pat > MAX_SPACE_STRINGS or n_txt > MAX_SPACE_STRINGS:
            raise ValueError("string space exceeds the desk-scale cap")
        if n_pat * n_txt > MAX_EXHAUSTIVE_PAIRS:
            raise ValueError(
                f"{n_pat * n_txt} pairs exceed the cap {MAX_EXHAUSTIVE_PAIRS}"
            )
    else:
        if args.trials < 1:
            raise ValueError("trials must be >= 1")
        if args.trials > MAX_TRIALS:
            raise ValueError(f"trials cap is {MAX_TRIALS}")
        if args.t_max > MAX_RANDOM_T or args.p_max > MAX_RANDOM_P:
            raise ValueError(
                f"random caps: t<={MAX_RANDOM_T}, p<={MAX_RANDOM_P}"
            )
        if args.t_min < args.p_min:
            raise ValueError("random mode needs t-min >= p-min")

    from tempfile import TemporaryFile  # here, not at the top, as in cmd_search

    pairs = 0
    found = dict.fromkeys(algos, 0)
    with ExitStack() as stack:
        # opened before the scan, so a bad path fails before any work
        fixture = open(args.fixture_out, "w", encoding="utf-8") if args.fixture_out else None
        # one per algo, whose records print as one block; they are read
        # back as written: no newline translation, and surrogatepass
        # carries any symbol of an argv string
        spills = {
            algo: stack.enter_context(
                TemporaryFile("w+", encoding="utf-8", errors="surrogatepass", newline="")
            )
            for algo in algos
        }
        with fixture or nullcontext():
            for records in _pair_discrepancies(_verify_pairs(args), algos):
                pairs += 1
                for d in records:
                    found[d.algorithm] += 1
                    spills[d.algorithm].write(format_discrepancies([d]))
            # written before stdout, so a reader that closes early leaves it whole
            if fixture is not None:
                for spill in spills.values():
                    spill.seek(0)
                    while chunk := spill.read(_COPY_CHUNK):
                        fixture.write(chunk)
        with _stdout_writes():
            for algo in algos:
                print(f"algo={algo} pairs={pairs} discrepancies={found[algo]}")
                spill = spills[algo]
                spill.seek(0)
                while lines := spill.readlines(_COPY_CHUNK):
                    sys.stdout.write("  " + "  ".join(lines))
    failed = any(found[algo] for algo in algos if algo in ("gsm", "bma"))
    return 2 if failed else 0


def cmd_flaw_demo(_args) -> int:
    text = flaw_demo_text()
    with _stdout_writes():
        sys.stdout.write(text)
    return 0


def cmd_dfa_growth(args) -> int:
    rows = growth_table(args.k_max, state_cap=args.state_cap)
    with _stdout_writes():
        sys.stdout.write(growth_csv(rows))
    bad = [r.k for r in rows if not r.bound_ok]
    if bad:
        print(f"error: lower bound violated at k={bad}", file=sys.stderr)
        return 2
    return 0


def cmd_dfa_states(args) -> int:
    pattern = args.pattern
    dfa = determinize(pattern, args.alphabet or None, args.state_cap)
    row = [pattern, len(pattern), nfa_state_count(pattern), dfa.n_states, minimize(dfa).n_states]
    import csv  # here, not at the top: no other command pays for its import

    with _stdout_writes():
        out = csv.writer(sys.stdout, lineterminator="\n")
        out.writerow(["pattern", "pattern_length", "nfa_states", "dfa_states", "min_dfa_states"])
        out.writerow(row)
    return 0


def cmd_bench(args) -> int:
    algos = _parse_algos(args.algos, SEARCHERS)
    try:
        p_list = [int(x) for x in args.p_list.split(",")]
    except ValueError:
        raise ValueError(
            f"p-list must be comma-separated integers, got {args.p_list!r}"
        ) from None
    records = run_bench(algos, p_list, args.t, args.sigma, args.seed, args.reps)
    with _stdout_writes():
        print(BENCH_CSV_HEADER)
        for rec in records:
            print(rec.csv_row())
    return 0


def _at_least_one(value: str) -> int:
    """argparse type for a count that must be 1 or more (``--state-cap``)."""
    try:
        n = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {value!r}") from None
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="swapmatch",
        description="Swap pattern matching toolkit: search, cross-verify, benchmark.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_search = sub.add_parser("search", help="find swap matches of a pattern")
    p_search.add_argument("--algo", default="gsm", choices=sorted(SEARCHERS))
    p_search.add_argument("--pattern", required=True)
    src = p_search.add_mutually_exclusive_group()
    src.add_argument("--text", help="text given inline (latin-1)")
    src.add_argument("--file", help="read text bytes from a file")
    p_search.add_argument("--format", default="text", choices=["text", "jsonl"])
    p_search.add_argument(
        "--fasta", action="store_true", help="drop FASTA headers and newlines"
    )
    p_search.add_argument(
        "--strip-newlines", action="store_true", help="drop newline bytes"
    )
    p_search.set_defaults(fn=cmd_search)

    p_verify = sub.add_parser("verify", help="cross-check algorithms against the oracle")
    p_verify.add_argument("--mode", default="exhaustive", choices=["exhaustive", "random"])
    p_verify.add_argument("--algos", default="gsm")
    p_verify.add_argument("--sigma", default="ab", help="alphabet as a string of symbols")
    p_verify.add_argument("--p-min", type=int, default=1)
    p_verify.add_argument("--p-max", type=int, default=4)
    p_verify.add_argument("--t-min", type=int, default=1)
    p_verify.add_argument("--t-max", type=int, default=6)
    p_verify.add_argument("--seed", type=int, default=42)
    p_verify.add_argument("--trials", type=int, default=1000)
    p_verify.add_argument("--fixture-out", help="write discrepancies to this file")
    p_verify.set_defaults(fn=cmd_verify)

    p_flaw = sub.add_parser("flaw-demo", help="show the worked SMALGO-I false positive")
    p_flaw.set_defaults(fn=cmd_flaw_demo)

    p_growth = sub.add_parser("dfa-growth", help="DFA state growth for the blowup family")
    p_growth.add_argument("--k-max", type=int, default=6)
    p_growth.add_argument("--state-cap", type=_at_least_one, default=DEFAULT_STATE_CAP)
    p_growth.set_defaults(fn=cmd_dfa_growth)

    p_states = sub.add_parser("dfa-states", help="automaton sizes for one pattern")
    p_states.add_argument("--pattern", required=True)
    p_states.add_argument("--alphabet", default="")
    p_states.add_argument("--state-cap", type=_at_least_one, default=DEFAULT_STATE_CAP)
    p_states.set_defaults(fn=cmd_dfa_states)

    p_bench = sub.add_parser("bench", help="seeded throughput benchmark (CSV)")
    p_bench.add_argument("--algos", default="gsm")
    p_bench.add_argument("--p-list", default="32,64")
    p_bench.add_argument("--t", type=int, default=1_000_000)
    p_bench.add_argument("--sigma", type=int, default=4)
    p_bench.add_argument("--seed", type=int, default=42)
    p_bench.add_argument("--reps", type=int, default=5)
    p_bench.set_defaults(fn=cmd_bench)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError, ReadError, StateLimitExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
