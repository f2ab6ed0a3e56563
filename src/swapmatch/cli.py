"""Batch command-line front end.

Subcommands: ``search`` (run one matcher over bytes from a file, stdin or
a flag), ``verify`` (cross-check matchers against the oracle over
exhaustive or seeded-random instance spaces), ``flaw-demo`` (the worked
false-positive trace), ``dfa-growth``/``dfa-states`` (state-count
tables), and ``bench`` (seeded throughput measurements). Output has one
writer per shape: ``_print_report`` for match positions (text or jsonl)
and ``_print_table`` for the CSV tables of the last three.

Exit codes: 0 success (for ``search``: at least one match), 1 no match,
2 error / failed verification. ``main`` is the one place that turns an
error a command raises (bad input, a failed read or write, a state cap
reached) into an ``error:`` line on stderr and exit 2. Each command
writes to stdout inside ``_stdout_writes``, so a reader that closes early
(``| head``) ends the output quietly and the command keeps its exit code.
``search`` streams with every algo: it reads its input in chunks and
prints each scan's positions as the scan ends, piece by piece as
``gsm_scans`` hands them on, so its memory holds one read chunk, one
block, one scan's positions, one write of at most about 64 KiB and one
slab of a thousand lines, whatever the input size; ``--format jsonl``
keeps the pieces in a temporary file, one record each, until the end.
``verify`` writes each algorithm's records to a temporary file as they
are found, so its memory does not grow with their number.
"""

from __future__ import annotations

import argparse
import io
import marshal
import os
import re
import sys
import time
from contextlib import ExitStack, contextmanager, nullcontext, suppress
from functools import lru_cache
from random import Random
from typing import Collection, Iterable, Iterator, Sequence

from .dfa import (
    DEFAULT_STATE_CAP,
    StateLimitExceeded,
    determinize,
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

# text lines formatted and written per stdout write in search, and 8
# times fewer jsonl lines: about 64 KiB per write at most either way
PRINT_BATCH = 4096

# a shorter run of positions is formatted line by line: sparse output
# builds no slab
_SLAB_RUN = 64

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
        fh, close = io.BytesIO(args.text.encode("latin-1", "surrogateescape")), True
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


@lru_cache(maxsize=2)
def _slab(n: int, head: str, tail: str) -> list:
    """``[digits of h, lines, line length, digit spots]`` for some h of ``n`` digits.

    The lines h000 .. h999 are one ``bytearray``, which ``_print_report``
    moves to another h in place. Text lines are k and a line end; jsonl
    lines (with a ``tail``) are ``head``, k, the ``position0`` key, k - 1
    and ``tail``, with the digits of h at two spots. Line h000 is never written: its
    ``position0`` is (h-1)999, and here it reads h-01, so that every line
    has one length.
    """
    h = 10 ** (n - 1)
    if tail:
        lines = [f'{head}{h}{d:03d}, "position0": {h}{d - 1:03d}{tail}' for d in range(1000)]
        spots = (len(head), len(head) + n + 18)
    else:
        lines = [f"{h}{d:03d}\n" for d in range(1000)]
        spots = (0,)
    buf = bytearray("".join(lines).encode())
    return [str(h).encode(), buf, len(buf) // 1000, spots]


def _print_report(pos: Sequence[int], fmt: str, algorithm="", pattern_len=0, text_len=0) -> None:
    """Write one line per position to ``sys.stdout``, at most about 64 KiB per write.

    ``pos`` holds checked positions: a ``MatchReport``'s tuple or range
    for text, any sequence of ints for jsonl, whose lines also carry
    ``algorithm``, ``pattern_len`` and ``text_len``. A range, the
    positions of a block where every window matches, is read by index
    and slice like a tuple, with no per-position copy before the
    formatting.

    A batch of ``PRINT_BATCH`` text lines or ``PRINT_BATCH // 8`` jsonl
    lines, about 64 KiB either way, is formatted in one go and handed to
    one ``write``; its bytes equal a ``print`` per position, or a
    ``json.dumps(..., sort_keys=True)`` per position for jsonl. So the
    whole output is never one string, and each write's string reuses
    freed memory instead of fresh pages. A batch that is a run of
    consecutive positions (every window of a periodic text matches) is
    cut from ``_slab``, one slice per thousand it touches, after one
    strided slice assignment per digit of h that changed. Positions
    below 1000, each jsonl h000 line, and a batch that is not a run or
    is shorter than ``_SLAB_RUN`` are formatted one by one. The test for
    a run is one comparison, exact because the positions are checked and
    strictly increase: n of them span n values only when none is skipped.
    """
    write = sys.stdout.write
    batch, head, tail = PRINT_BATCH, "", ""
    if fmt == "jsonl":
        import json  # here, not at the top: the text format pays for none of it

        batch //= 8
        head = (
            f'{{"algorithm": {json.dumps(algorithm)}, '
            f'"pattern_len": {pattern_len}, "position": '
        )
        tail = f', "text_len": {text_len}}}\n'

        def lines(ks: Iterable[int]) -> str:
            return "".join([f'{head}{k}, "position0": {k - 1}{tail}' for k in ks])
    else:
        def lines(ks: Sequence[int]) -> str:
            return "%d\n" * len(ks) % tuple(ks)

    i, end = 0, len(pos)
    while i < end:
        j = min(i + batch, end)
        lo, hi = pos[i], pos[j - 1]
        if hi - lo != j - 1 - i or j - i < _SLAB_RUN or hi < 1000:
            write(lines(pos[i:j]))
            i = j
            continue
        parts = [lines(range(lo, 1000))] if lo < 1000 else []
        for h in range(max(lo // 1000, 1), hi // 1000 + 1):
            d0, d1 = max(lo - h * 1000, 0), min(hi - h * 1000 + 1, 1000)
            if tail and not d0:  # jsonl h000: its position0 is (h-1)999
                parts.append(lines((h * 1000,)))
                d0 = 1
            digits = str(h).encode()
            slab = _slab(len(digits), head, tail)
            old, buf, size, spots = slab
            for k, c in enumerate(digits):
                if c != old[k]:
                    for spot in spots:
                        buf[spot + k::size] = digits[k:k + 1] * 1000
            slab[0] = digits
            parts.append(buf[d0 * size:d1 * size].decode())
        write("".join(parts))
        i = j


@contextmanager
def _stdout_writes() -> Iterator[None]:
    """Run a command's writes to stdout, then flush them.

    A symbol of an argv string that argv could not decode is written as
    the byte it stands for (``surrogateescape``), as ``--fixture-out``
    writes it, whatever error handler stdout was opened with.

    A reader that has gone (``| head``) ends the output quietly; any other
    failed write is re-raised for ``main`` to report. Either way stdout's
    file descriptor, if any, is first pointed at the null device, so the
    flush at interpreter exit cannot fail again. An ``OSError`` from the
    block is taken for a failed write, so the block holds only writes and
    reads that raise ``ReadError`` for a failed read (``_chunks``).
    """
    try:
        with suppress(AttributeError):  # a stdout with no encoding of its own
            sys.stdout.reconfigure(errors="surrogateescape")
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


def _print_table(header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write ``header`` and then ``rows`` to stdout as CSV, one line each.

    The one table writer of ``bench``, ``dfa-growth`` and ``dfa-states``.
    A field that holds a comma, a quote or a line break is quoted.
    """
    import csv  # here, not at the top: no other command pays for its import

    with _stdout_writes():
        out = csv.writer(sys.stdout, lineterminator="\n")
        out.writerow(header)
        out.writerows(rows)


def cmd_search(args) -> int:
    """Print the positions of each scan as it ends.

    Every algo scans as it reads (``gsm_scans``, with the algo's searcher
    unless it is gsm). Each piece of positions it hands on (a ``range``
    for a GSM block where every window matches, otherwise a list) is
    checked as a ``MatchReport`` over the symbols read so far, and its
    first position must follow the last one checked. The checked piece
    is printed and dropped before the next is asked for, so memory holds
    one read chunk, one block and its carry, one scan's positions, one
    write of at most about 64 KiB and ``_print_report``'s slab of a
    thousand lines. A jsonl line carries the text length,
    known only at the end, so jsonl writes each checked piece to an
    unnamed temporary file as one ``marshal`` record, a range as its
    ``(start, stop)`` and a list as ``array('q')`` bytes, and at the end
    prints each record back with that length, by one ``_print_report``
    call.
    ``--pattern`` and ``--text`` are encoded as latin-1 with
    ``surrogateescape``: a byte argv could not decode is matched as itself.
    """
    pattern = args.pattern.encode("latin-1", "surrogateescape")
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

        spill = TemporaryFile()
    last = scanned = 0
    with spill or nullcontext(), _stdout_writes():
        for scanned, positions in scans:
            if positions:
                positions = MatchReport(algo, positions, p, scanned).positions
                if positions[0] <= last:
                    raise ValueError(
                        f"positions not strictly increasing: {positions[0]} follows {last}"
                    )
                last = positions[-1]
                if spill is None:
                    _print_report(positions, "text")
                elif isinstance(positions, range):
                    marshal.dump((positions.start, positions.stop), spill)
                else:
                    marshal.dump(array("q", positions).tobytes(), spill)
            # dropped before gsm_scans hands on the next piece
            del positions
        if spill is not None:
            end = spill.tell()
            spill.seek(0)
            while spill.tell() < end:
                record = marshal.load(spill)
                pos = range(*record) if isinstance(record, tuple) else array("q", record)
                _print_report(pos, "jsonl", algo, p, scanned)
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
        # opened before the scan, so a bad path fails before any work;
        # surrogateescape writes back the bytes of a symbol argv could not decode
        fixture = None
        if args.fixture_out:
            fixture = open(args.fixture_out, "w", encoding="utf-8", errors="surrogateescape")
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
    _print_table(
        ["k", "pattern_length", "nfa_states", "dfa_states", "min_dfa_states", "bound_2k"],
        ([r.k, len(r.pattern), r.nfa_states, r.dfa_states, r.min_dfa_states, r.bound]
         for r in rows),
    )
    bad = [r.k for r in rows if not r.bound_ok]
    if bad:
        print(f"error: lower bound violated at k={bad}", file=sys.stderr)
        return 2
    return 0


def cmd_dfa_states(args) -> int:
    pattern = args.pattern
    dfa = determinize(pattern, state_cap=args.state_cap)
    row = [pattern, len(pattern), nfa_state_count(pattern), dfa.n_states, minimize(dfa).n_states]
    _print_table(["pattern", "pattern_length", "nfa_states", "dfa_states", "min_dfa_states"], [row])
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
    rows = [[r.algo, r.p, r.t, r.sigma, r.words, r.reps, r.median_ns,
             f"{r.throughput_sym_per_s:.0f}", r.seed] for r in records]
    _print_table(BenchRecord._fields, rows)
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


def _search_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--algo", default="gsm", choices=sorted(SEARCHERS))
    p.add_argument("--pattern", required=True)
    src = p.add_mutually_exclusive_group()
    src.add_argument("--text", help="text given inline (latin-1)")
    src.add_argument("--file", help="read text bytes from a file")
    p.add_argument("--format", default="text", choices=["text", "jsonl"])
    p.add_argument("--fasta", action="store_true", help="drop FASTA headers and newlines")
    p.add_argument("--strip-newlines", action="store_true", help="drop newline bytes")


def _verify_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mode", default="exhaustive", choices=["exhaustive", "random"])
    p.add_argument("--algos", default="gsm")
    p.add_argument("--sigma", default="ab", help="alphabet as a string of symbols")
    p.add_argument("--p-min", type=int, default=1)
    p.add_argument("--p-max", type=int, default=4)
    p.add_argument("--t-min", type=int, default=1)
    p.add_argument("--t-max", type=int, default=6)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--fixture-out", help="write discrepancies to this file")


def _dfa_growth_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--k-max", type=int, default=6)
    p.add_argument("--state-cap", type=_at_least_one, default=DEFAULT_STATE_CAP)


def _dfa_states_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--pattern", required=True)
    p.add_argument("--state-cap", type=_at_least_one, default=DEFAULT_STATE_CAP)


def _bench_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--algos", default="gsm")
    p.add_argument("--p-list", default="32,64")
    p.add_argument("--t", type=int, default=1_000_000)
    p.add_argument("--sigma", type=int, default=4)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--reps", type=int, default=5)


# name: (help, argument adder, function), in the order --help lists them
_COMMANDS = {
    "search": ("find swap matches of a pattern", _search_arguments, cmd_search),
    "verify": ("cross-check algorithms against the oracle", _verify_arguments, cmd_verify),
    "flaw-demo": ("show the worked SMALGO-I false positive", lambda p: None, cmd_flaw_demo),
    "dfa-growth": ("DFA state growth for the blowup family", _dfa_growth_arguments,
                   cmd_dfa_growth),
    "dfa-states": ("automaton sizes for one pattern", _dfa_states_arguments, cmd_dfa_states),
    "bench": ("seeded throughput benchmark (CSV)", _bench_arguments, cmd_bench),
}


def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, as ``swapmatch --help`` shows them."""
    parser = argparse.ArgumentParser(
        prog="swapmatch",
        description="Swap pattern matching toolkit: search, cross-verify, benchmark.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, add_arguments, fn) in _COMMANDS.items():
        command = sub.add_parser(name, help=text)
        add_arguments(command)
        command.set_defaults(fn=fn)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # the command argv names builds its own parser alone, as the full
    # parser builds it, at about half the cost; arguments it leaves over go
    # to the full parser, whose error names them under the top-level usage
    if argv and argv[0] in _COMMANDS:
        _, add_arguments, fn = _COMMANDS[argv[0]]
        parser = argparse.ArgumentParser(prog=f"swapmatch {argv[0]}")
        add_arguments(parser)
        args, rest = parser.parse_known_args(argv[1:], argparse.Namespace(command=argv[0], fn=fn))
        if rest:
            args = build_parser().parse_args(argv)
    else:
        args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError, ReadError, StateLimitExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
