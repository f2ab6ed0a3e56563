"""CLI behavior: inputs, formats, exit codes, goldens, determinism."""

import argparse
import csv
import errno
import io
import json
import os
import random
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import pytest

from swapmatch import cli, gsm
from swapmatch.cli import (
    PRINT_BATCH,
    _chunks,
    _print_report,
    _read_text_input,
    _strip_fasta_headers,
    main,
)
from swapmatch.oracle import oracle_search
from swapmatch.report import MatchReport
from swapmatch.smalgo import SEARCHERS, compare_with_oracle, format_discrepancies

DATA = Path(__file__).parent / "data"

# stdout block-buffered, as it is by default: data left in the buffer after
# a failed write is flushed again at interpreter exit
BUFFERED_ENV = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}


def invoke(argv, stdin_bytes=None):
    proc = subprocess.run(
        [sys.executable, "-m", "swapmatch.cli", *argv],
        input=stdin_bytes,
        capture_output=True,
        timeout=300,
    )
    return proc.returncode, proc.stdout.decode(), proc.stderr.decode()


def test_search_figure_example_via_text_flag():
    code, out, _ = invoke(
        ["search", "--algo", "gsm", "--pattern", "acbab", "--text", "babcabc"]
    )
    assert code == 0
    assert out == "2\n"


def test_search_smalgo1_reports_false_positive():
    code, out, _ = invoke(
        ["search", "--algo", "smalgo1", "--pattern", "abab", "--text", "aaba"]
    )
    assert code == 0
    assert out == "1\n"


def test_search_gsm_rejects_flaw_instance_exit_one():
    code, out, _ = invoke(
        ["search", "--algo", "gsm", "--pattern", "abab", "--text", "aaba"]
    )
    assert code == 1
    assert out == ""


def test_search_other_algorithms():
    for algo in ("oracle", "bma"):
        code, out, _ = invoke(
            ["search", "--algo", algo, "--pattern", "acbab", "--text", "babcabc"]
        )
        assert code == 0, algo
        assert out == "2\n", algo
    # SMALGO-II never seeds the window at position 2, so it misses this
    # match entirely and the no-match exit code fires
    code, out, _ = invoke(
        ["search", "--algo", "smalgo2", "--pattern", "acbab", "--text", "babcabc"]
    )
    assert code == 1
    assert out == ""


def test_search_input_sources_agree(tmp_path):
    text = b"babcabcbabcabc"
    f = tmp_path / "input.bin"
    f.write_bytes(text)
    args = ["search", "--algo", "gsm", "--pattern", "acbab"]
    via_text = invoke(args + ["--text", text.decode()])
    via_file = invoke(args + ["--file", str(f)])
    via_stdin = invoke(args, stdin_bytes=text)
    assert via_text == via_file == via_stdin
    assert via_text[0] == 0


def test_search_jsonl_fields():
    code, out, _ = invoke(
        [
            "search",
            "--algo",
            "gsm",
            "--pattern",
            "ab",
            "--text",
            "bab",
            "--format",
            "jsonl",
        ]
    )
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert [r["position"] for r in rows] == [1, 2]
    assert [r["position0"] for r in rows] == [0, 1]
    assert all(r["algorithm"] == "gsm" for r in rows)
    assert all(r["pattern_len"] == 2 and r["text_len"] == 3 for r in rows)


def _reference_print_report(report, fmt):
    # the CLI's output before batching: one print per position
    if fmt == "jsonl":
        for k in report.positions:
            print(
                json.dumps(
                    {
                        "algorithm": report.algorithm,
                        "pattern_len": report.pattern_len,
                        "text_len": report.text_len,
                        "position": k,
                        "position0": k - 1,
                    },
                    sort_keys=True,
                )
            )
    else:
        for k in report.positions:
            print(k)


@pytest.mark.parametrize("fmt", ["text", "jsonl"])
@pytest.mark.parametrize("algo", sorted(SEARCHERS))
def test_print_report_equals_per_line_reference(algo, fmt, capsys):
    b = PRINT_BATCH
    for n in (0, 1, b - 1, b, b + 1, 3 * b + 7):
        # steps of 7 from 9 cross digit-width boundaries inside a batch
        report = MatchReport(algo, range(9, 9 + 7 * n, 7), 3, 7 * n + 11)
        _print_report(report, fmt)
        got = capsys.readouterr().out
        _reference_print_report(report, fmt)
        assert got == capsys.readouterr().out, n


@pytest.mark.parametrize("fmt", ["text", "jsonl"])
def test_search_dense_file_equals_per_line_reference(tmp_path, fmt, capsys):
    t = 3 * PRINT_BATCH + 101
    path = tmp_path / "ab.txt"
    path.write_bytes((b"ab" * t)[:t])
    # every window of an ab-periodic text swap-matches abab
    code = main(["search", "--file", str(path), "--pattern", "abab", "--format", fmt])
    assert code == 0
    got = capsys.readouterr().out
    _reference_print_report(MatchReport("gsm", range(1, t - 2), 4, t), fmt)
    assert got == capsys.readouterr().out


def test_search_jsonl_multi_scan_from_stdin_and_file(tmp_path, capsys):
    # four scans where every window matches: each scan's positions are
    # spilled as it ends and printed back with the final text length
    t = 3 * gsm.BLOCK + 101
    text = (b"ab" * t)[:t]
    path = tmp_path / "ab.txt"
    path.write_bytes(text)
    _reference_print_report(MatchReport("gsm", range(1, t - 2), 4, t), "jsonl")
    want = capsys.readouterr().out
    argv = ["search", "--pattern", "abab", "--format", "jsonl"]
    assert invoke([*argv, "--file", str(path)]) == (0, want, "")
    assert invoke(argv, stdin_bytes=text) == (0, want, "")


@pytest.mark.parametrize("source", ["file", "stdin", "empty"])
def test_search_jsonl_no_match_exit_one(source, tmp_path):
    # two scans without a match ("aa" is its only swapped version)
    text = b"ab" * gsm.BLOCK
    path = tmp_path / "ab.txt"
    path.write_bytes(text)
    argv = ["search", "--pattern", "aa", "--format", "jsonl"]
    if source == "file":
        result = invoke([*argv, "--file", str(path)])
    else:
        result = invoke(argv, stdin_bytes=text if source == "stdin" else b"")
    assert result == (1, "", "")


@pytest.mark.parametrize(
    "argv, first_line",
    [
        # ~1.3 MB of output, far more than a pipe holds
        (["search", "--file", "AB_FILE", "--pattern", "abab"], b"1\n"),
        # ~148 KB
        (["verify", "--mode", "exhaustive", "--algos", "smalgo1", "--sigma", "ab",
          "--p-max", "4", "--t-max", "8"],
         b"algo=smalgo1 pairs=15300 discrepancies=3846\n"),
        # ~19 MB, read back from the spill file after the last scan
        (["search", "--file", "AB_FILE", "--pattern", "abab", "--format", "jsonl"],
         b'{"algorithm": "gsm", "pattern_len": 4, "position": 1, "position0": 0, '
         b'"text_len": 200000}\n'),
    ],
    ids=["search", "verify", "search-jsonl"],
)
def test_search_closed_pipe_exit_zero(argv, first_line, tmp_path):
    path = tmp_path / "ab.txt"
    path.write_bytes(b"ab" * 100_000)
    argv = [str(path) if a == "AB_FILE" else a for a in argv]
    err_path = tmp_path / "stderr.txt"
    with open(err_path, "wb") as err:
        proc = subprocess.Popen(
            [sys.executable, "-m", "swapmatch.cli", *argv],
            stdout=subprocess.PIPE,
            stderr=err,
            env=BUFFERED_ENV,
        )
        try:
            assert proc.stdout.readline() == first_line
            proc.stdout.close()
            code = proc.wait(timeout=300)
        finally:
            proc.kill()
    assert code == 0
    assert err_path.read_bytes() == b""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
@pytest.mark.parametrize(
    "argv",
    [
        ["search", "--pattern", "a", "--text", "aaaa"],
        ["dfa-growth", "--k-max", "3"],
        ["flaw-demo"],
        ["verify", "--algos", "smalgo1", "--p-min", "4", "--p-max", "4",
         "--t-min", "4", "--t-max", "4", "--fixture-out", "/dev/full"],
    ],
    ids=["search", "dfa-growth", "flaw-demo", "verify-fixture"],
)
def test_failed_write_exit_two(argv):
    # every write to /dev/full fails with ENOSPC
    with open("/dev/full", "wb") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "swapmatch.cli", *argv],
            stdout=full,
            stderr=subprocess.PIPE,
            env=BUFFERED_ENV,
            timeout=300,
        )
    assert proc.returncode == 2
    assert proc.stderr == b"error: [Errno 28] No space left on device\n"


class _ClosedPipe(io.StringIO):
    def write(self, s):
        raise BrokenPipeError(32, "Broken pipe")


def test_verify_failure_keeps_exit_two_at_closed_pipe(monkeypatch, capsys):
    # a gsm that reports nothing disagrees with the oracle, so verify fails;
    # a reader that stops early must not turn that into success
    monkeypatch.setitem(
        SEARCHERS, "gsm", lambda p, t: MatchReport("gsm", (), len(p), len(t))
    )
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    assert main(["verify", "--algos", "gsm", "--p-max", "2", "--t-max", "3"]) == 2
    assert capsys.readouterr().err == ""


def test_search_fasta_strips_headers():
    fasta = b">chr1 demo\nbabc\nabc\n"
    code, out, _ = invoke(
        ["search", "--pattern", "acbab", "--fasta"], stdin_bytes=fasta
    )
    assert code == 0
    assert out == "2\n"


def _fasta_stripped(data: bytes) -> bytes:
    args = argparse.Namespace(
        text=data.decode("latin-1"), file=None, fasta=True, strip_newlines=False
    )
    return _read_text_input(args)


def _fasta_reference(data: bytes) -> bytes:
    # the line-by-line strip the CLI used before; kept as the reference
    return b"".join(ln for ln in data.splitlines() if not ln.startswith(b">"))


class _Pieces:
    """A file whose reads return the given pieces in turn, then b""."""

    def __init__(self, pieces):
        self.pieces = iter([c for c in pieces if c])

    def read(self, _n):
        return next(self.pieces, b"")


def _fasta_stripped_in_chunks(chunks) -> bytes:
    # the CLI's chunk by chunk strip, FASTA state carried across each cut
    return b"".join(_chunks(_Pieces(chunks), False, True, True))


def _cuts(data: bytes, two: bool = True):
    # every one-cut split, and with ``two`` every two-cut split
    n = len(data)
    for i in range(n + 1):
        yield [data[:i], data[i:]]
        for j in range(i, n + 1 if two else i):
            yield [data[:i], data[i:j], data[j:]]


@pytest.mark.parametrize(
    "data",
    [
        b">h1\r\nACGT\r\nAC\r\n>h2\r\nGT\r\n",  # CRLF
        b">h1\rACGT\rAC\r>h2\rGT",  # bare CR, no trailing newline
        b"AC\nGT\n>last header",  # header on the last line
        b">first\nAC>GT\nA>\n>\n>>x\nT",  # ">" inside lines, empty header
        b"\n\r\n>a\r\r>b\n\rC\x0bG\x0c",  # empty lines, \x0b and \x0c are data
        b"",
    ],
)
def test_fasta_strip_equals_line_reference(data):
    want = _fasta_reference(data)
    assert _fasta_stripped(data) == want
    for chunks in _cuts(data):
        assert _fasta_stripped_in_chunks(chunks) == want, chunks
    assert _fasta_stripped_in_chunks([data[i:i + 1] for i in range(len(data))]) == want


def test_fasta_strip_equals_line_reference_fuzzed():
    rng = random.Random(7)
    for case in range(3000):
        data = bytes(rng.choice(b"ab>\r\n\x0b\x0c") for _ in range(rng.randint(0, 40)))
        want = _fasta_reference(data)
        assert _fasta_stripped(data) == want, data
        # two cuts in every tenth case: they are quadratic in the length
        for chunks in _cuts(data, two=case % 10 == 0):
            assert _fasta_stripped_in_chunks(chunks) == want, chunks


def _fasta_reference_keeping_line_ends(data: bytes) -> bytes:
    # every line that starts with ">" keeps only its line end (CR or LF)
    out = []
    for line in re.findall(rb"[^\r\n]*[\r\n]?", data):
        body = line.rstrip(b"\r\n")
        out.append(line[len(body):] if body.startswith(b">") else line)
    return b"".join(out)


@pytest.mark.parametrize(
    "chunk",
    [b"ACGT\r\nAC", b"AC\r\nGT\r\n", b"ACGT\r", b"ACGT\n", b"\n", b"\r", b"GT", b"\r\nAC"],
)
@pytest.mark.parametrize(
    "before, in_header, line_start",
    [(b">h", True, False), (b"", False, True), (b"x\n", False, True), (b"x", False, False)],
)
def test_fasta_strip_chunk_without_header_start(chunk, before, in_header, line_start):
    # a chunk holding no ">": kept whole unless it starts inside a header,
    # whose rest it then cuts; ``before`` is a stream that leaves that state
    kept, header_out, line_start_out = _strip_fasta_headers(chunk, in_header, line_start)
    reference = _fasta_reference_keeping_line_ends
    assert reference(before) + kept == reference(before + chunk)
    assert header_out == re.split(rb"[\r\n]", before + chunk)[-1].startswith(b">")
    assert line_start_out == (chunk[-1:] in (b"\r", b"\n"))


@pytest.mark.parametrize(
    "data",
    [
        b"AC\r\nGT\r\n" * 3,  # CRLF
        b"AC\rGT\rA",  # bare CR
        b"AC\nGT\nA\n",  # LF
        b"A\r\nC\rG\nT\n\rA\r\r\n\n",  # mixed
        b"ACGT",  # no line ends
    ],
)
def test_newline_deletion_equals_translate(data):
    want = data.translate(None, b"\r\n")
    for chunks in _cuts(data, two=False):
        assert b"".join(_chunks(_Pieces(chunks), False, False, True)) == want, chunks
    one_byte_each = _Pieces([data[i:i + 1] for i in range(len(data))])
    assert b"".join(_chunks(one_byte_each, False, False, True)) == want


def _multi_record_fasta(seed: int) -> bytes:
    # records of a/b lines with ">" inside some of them, each line ended
    # by LF, CRLF or a bare CR, and headers that hold ">" themselves
    rng = random.Random(seed)
    lines = []
    for r in range(6):
        lines.append(rng.choice([b">rec%d x>y" % r, b">", b">>%d" % r]))
        for _ in range(rng.randint(0, 12)):
            lines.append(bytes(rng.choice(b"aab>") for _ in range(rng.randint(1, 9))).lstrip(b">"))
    ends = [rng.choice([b"\n", b"\r\n", b"\r"]) for _ in lines]
    return b"".join(line + end for line, end in zip(lines, ends))


@pytest.mark.parametrize("read_chunk, block", [(1, 1), (3, 5), (7, 16), (64, 16)])
def test_search_fasta_in_small_chunks_equals_read_all(read_chunk, block, monkeypatch, capsys):
    data = _multi_record_fasta(read_chunk)
    runs = [
        ["search", "--fasta", "--algo", algo, "--pattern", pattern, "--format", fmt]
        for algo in sorted(SEARCHERS)
        for pattern in ("abba", "ab>a", "aabab", "b")
        for fmt in ("text", "jsonl")
    ]

    def outputs():
        got = []
        for argv in runs:
            monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data)))
            got.append((main(argv), capsys.readouterr().out))
        return got

    # at the default sizes the whole input is one chunk and one scan
    read_all = outputs()
    sequence = _fasta_reference(data)
    for argv, (code, out) in zip(runs, read_all):
        if argv[-1] == "text":
            # the flawed SMALGOs against their own whole-text search, the rest against the definition
            truth = SEARCHERS[argv[3]] if argv[3].startswith("smalgo") else oracle_search
            positions = truth(argv[5].encode(), sequence).positions
            assert out == "".join(f"{k}\n" for k in positions), argv
            assert code == (0 if positions else 1)
    monkeypatch.setattr(cli, "READ_CHUNK", read_chunk)
    monkeypatch.setattr(gsm, "BLOCK", block)
    assert outputs() == read_all


class _Reader:
    """A stdin buffer that counts its reads and can fail one of them."""

    def __init__(self, data: bytes, fail_at: int = 0, exc: OSError | None = None):
        self.data, self.at, self.reads = data, 0, 0
        self.fail_at, self.exc = fail_at, exc

    def read(self, n):
        self.reads += 1
        if self.reads == self.fail_at:
            raise self.exc
        chunk = self.data[self.at:self.at + n]
        self.at += len(chunk)
        return chunk


def _stdin(monkeypatch, reader):
    monkeypatch.setattr(sys, "stdin", SimpleNamespace(buffer=reader))


def test_search_closed_pipe_stops_reading(monkeypatch, capsys):
    # 16 chunks; the first scan's first write finds the reader gone
    reader = _Reader(b"ab" * (8 * cli.READ_CHUNK))
    _stdin(monkeypatch, reader)
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    assert main(["search", "--pattern", "abababab"]) == 0
    assert reader.reads == 1
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "exc",
    [OSError(errno.EIO, "Input/output error"), BrokenPipeError(errno.EPIPE, "Broken pipe")],
    ids=["eio", "epipe"],
)
def test_search_read_error_mid_stream(exc, monkeypatch, capsys, tmp_path):
    # the second read fails after the first chunk's positions are printed;
    # a failed read is not a failed write (nor a closed pipe), so stdout
    # keeps what was printed and the error is reported once
    _stdin(monkeypatch, _Reader(b"ab" * cli.READ_CHUNK, fail_at=2, exc=exc))
    out_path = tmp_path / "out.txt"
    with open(out_path, "w") as out:
        monkeypatch.setattr(sys, "stdout", out)
        assert main(["search", "--pattern", "abababab"]) == 2
    first_scan = range(1, cli.READ_CHUNK - 6)
    assert out_path.read_text() == "".join(f"{k}\n" for k in first_scan)
    assert capsys.readouterr().err == f"error: {exc}\n"


def test_search_missing_file_fails_before_output(monkeypatch, capsys, tmp_path):
    missing = tmp_path / "missing.fa"
    out_path = tmp_path / "out.txt"
    with open(out_path, "w") as out:
        monkeypatch.setattr(sys, "stdout", out)
        assert main(["search", "--pattern", "ab", "--fasta", "--file", str(missing)]) == 2
        # stdout was not touched: it still writes to its file
        out.write("after\n")
    assert out_path.read_text() == "after\n"
    assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: '{missing}'\n"


@pytest.mark.parametrize("algo", ["gsm", "oracle"])
def test_search_closed_stdin_exit_two(algo, monkeypatch, capsys):
    # a process started with stdin closed has sys.stdin None
    monkeypatch.setattr(sys, "stdin", None)
    assert main(["search", "--algo", algo, "--pattern", "ab"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: no input: give --text or --file, or open stdin\n"


def _traced_peak(argv, out_path) -> int:
    with open(out_path, "w") as out:
        stdout, sys.stdout = sys.stdout, out
        tracemalloc.start()
        try:
            assert main(argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            sys.stdout = stdout


def _planted_fasta(n: int, pattern: bytes, rng: random.Random):
    sequence = bytearray(rng.randbytes(n).translate(bytes(b"ACGT"[i % 4] for i in range(256))))
    starts = sorted(rng.sample(range(0, n - len(pattern), len(pattern)), 8))
    for k in starts:
        sequence[k:k + len(pattern)] = pattern
    records = (sequence[: n // 2], sequence[n // 2 :])
    lines = [
        b">chr%d planted\n" % i + b"\n".join(r[j:j + 60] for j in range(0, len(r), 60))
        for i, r in enumerate(records, 1)
    ]
    return b"\n".join(lines) + b"\n", [k + 1 for k in starts]


@pytest.mark.parametrize("algo", ["bma", "oracle", "smalgo1", "smalgo2"])
def test_search_reference_algos_memory_does_not_grow(algo, monkeypatch, tmp_path):
    # the O(t*p) references scan their input as gsm does, one scan at a
    # time, so their traced peak holds no more at 2^16 symbols than at
    # 2^12; the whole text alone would take 60 KiB more. Blocks and reads
    # of 2^10 symbols keep the scans many and tracemalloc's cost small.
    # At p = 16 no random window matches, so the output is the planted
    # copies (at p = 8, 2^16 symbols hold 22 more).
    monkeypatch.setattr(cli, "READ_CHUNK", 1 << 10)
    monkeypatch.setattr(gsm, "BLOCK", 1 << 10)
    rng = random.Random(17)
    pattern = rng.randbytes(16).translate(bytes(b"ACGT"[i % 4] for i in range(256)))
    out_path = tmp_path / "out.txt"
    peaks = {}
    for n in (1 << 12, 1 << 16):
        fasta, starts = _planted_fasta(n, pattern, rng)
        path = tmp_path / "planted.fa"
        path.write_bytes(fasta)
        argv = ["search", "--algo", algo, "--fasta", "--file", str(path),
                "--pattern", pattern.decode()]
        peaks[n] = _traced_peak(argv, out_path)
        assert out_path.read_text() == "".join(f"{k}\n" for k in starts)
    assert peaks[1 << 16] - peaks[1 << 12] < 1 << 15, peaks


def test_search_memory_does_not_grow_with_input(tmp_path):
    # the traced peak of search holds one read chunk, one block and one
    # scan's positions, whatever the input size. A dense text prints one
    # position per symbol and costs about 4 us per position under
    # tracemalloc, so its sizes are smaller (8x apart all the same).
    rng = random.Random(16)
    pattern = rng.randbytes(64).translate(bytes(b"ACGT"[i % 4] for i in range(256)))
    out_path = tmp_path / "out.txt"
    peaks = {}
    for n in (1 << 20, 8 << 20):
        fasta, starts = _planted_fasta(n, pattern, rng)
        path = tmp_path / "planted.fa"
        path.write_bytes(fasta)
        argv = ["search", "--fasta", "--file", str(path), "--pattern", pattern.decode()]
        peaks["acgt", n] = _traced_peak(argv, out_path)
        assert out_path.read_text() == "".join(f"{k}\n" for k in starts)
    for n in (1 << 16, 1 << 19):
        path = tmp_path / "ab.txt"
        path.write_bytes(b"ab" * (n // 2))
        argv = ["search", "--file", str(path), "--pattern", "abababab", "--format", "text"]
        peaks["ab", n] = _traced_peak(argv, out_path)
        assert out_path.stat().st_size == len("".join(f"{k}\n" for k in range(1, n - 6)))
    assert peaks["acgt", 8 << 20] - peaks["acgt", 1 << 20] < 1 << 20, peaks
    assert peaks["ab", 1 << 19] - peaks["ab", 1 << 16] < 1 << 20, peaks


def test_output_memory_does_not_grow_with_results(tmp_path):
    # jsonl spills each scan's positions and verify each record to a
    # temporary file, so neither peak holds their results: jsonl over
    # dense text at two sizes 8x apart, and verify at about 260 and 3,300
    # SMALGO discrepancies (the whole list of the larger run took 2.7 MB)
    out_path = tmp_path / "out.txt"
    peaks = {}
    for n in (1 << 16, 1 << 19):
        path = tmp_path / "ab.txt"
        path.write_bytes(b"ab" * (n // 2))
        argv = ["search", "--file", str(path), "--pattern", "abababab", "--format", "jsonl"]
        peaks["jsonl", n] = _traced_peak(argv, out_path)
        with open(out_path, "rb") as out:
            lines = out.read().splitlines()
        assert len(lines) == n - 7
        assert json.loads(lines[-1]) == {"algorithm": "gsm", "pattern_len": 8, "text_len": n,
                                         "position": n - 7, "position0": n - 8}
    for trials in (100, 800):
        argv = ["verify", "--mode", "random", "--algos", "smalgo1,smalgo2", "--sigma", "ab",
                "--p-min", "3", "--p-max", "4", "--t-min", "200", "--t-max", "256",
                "--trials", str(trials), "--seed", "5"]
        peaks["verify", trials] = _traced_peak(argv, out_path)
        assert out_path.read_text().count("\n") == {100: 258, 800: 3327}[trials]
    assert peaks["jsonl", 1 << 19] - peaks["jsonl", 1 << 16] < 1 << 20, peaks
    assert peaks["verify", 800] - peaks["verify", 100] < 1 << 20, peaks


def test_search_strip_newlines():
    code, out, _ = invoke(
        ["search", "--pattern", "acbab", "--strip-newlines"],
        stdin_bytes=b"bab\ncabc",
    )
    assert code == 0
    assert out == "2\n"


def test_search_newlines_matched_by_default():
    # without stripping, the newline byte splits the window
    code, out, _ = invoke(["search", "--pattern", "acbab"], stdin_bytes=b"bab\ncabc")
    assert code == 1


def test_search_latin1_pattern_bytes(tmp_path):
    f = tmp_path / "high.bin"
    f.write_bytes(bytes([1, 255, 200, 200, 255, 7]))
    code, out, _ = invoke(
        ["search", "--pattern", "\u00c8\u00ff", "--file", str(f)]
    )
    assert code == 0
    assert out == "2\n4\n"


def test_search_missing_file_exit_two():
    code, _, err = invoke(
        ["search", "--pattern", "ab", "--file", "/nonexistent/x"]
    )
    assert code == 2
    assert "error" in err


def test_search_empty_pattern_exit_two():
    code, _, err = invoke(["search", "--pattern", "", "--text", "ab"])
    assert code == 2


def test_verify_exhaustive_gsm_clean():
    code, out, _ = invoke(
        [
            "verify",
            "--mode",
            "exhaustive",
            "--algos",
            "gsm,bma",
            "--sigma",
            "ab",
            "--p-max",
            "3",
            "--t-max",
            "5",
        ]
    )
    assert code == 0
    assert "algo=gsm pairs=868 discrepancies=0" in out
    assert "algo=bma pairs=868 discrepancies=0" in out


def test_verify_smalgo1_lists_flaw_instance(tmp_path):
    fixture = tmp_path / "disc.tsv"
    code, out, _ = invoke(
        [
            "verify",
            "--algos",
            "smalgo1",
            "--sigma",
            "ab",
            "--p-min",
            "4",
            "--p-max",
            "4",
            "--t-min",
            "4",
            "--t-max",
            "4",
            "--fixture-out",
            str(fixture),
        ]
    )
    assert code == 0
    assert "smalgo1\tabab\taaba\t1\tfalse-positive" in out
    assert "smalgo1\tabab\taaba\t1\tfalse-positive\n" in fixture.read_text()


def test_verify_random_mode_deterministic():
    # the golden pins the seeded trial stream: its draw order and the
    # discrepancies found in it
    args = [
        "verify",
        "--mode",
        "random",
        "--algos",
        "gsm,smalgo1,smalgo2",
        "--sigma",
        "ab",
        "--p-max",
        "6",
        "--t-max",
        "12",
        "--trials",
        "300",
        "--seed",
        "42",
    ]
    code, out, _ = invoke(args)
    assert code == 0
    assert out == (DATA / "verify_random_ab_p6_t12_seed42.txt").read_text()


@pytest.mark.parametrize(
    "argv, golden",
    [
        (
            ["--mode", "random", "--algos", "gsm,bma,smalgo1,smalgo2", "--sigma", "ab",
             "--p-min", "2", "--p-max", "8", "--t-min", "8", "--t-max", "24",
             "--trials", "150", "--seed", "4"],
            "verify_random_4algos_ab_p8_t24_seed4",
        ),
        (
            ["--algos", "smalgo1,smalgo2,gsm,bma", "--p-max", "3", "--t-max", "6"],
            "verify_exhaustive_4algos_ab_p3_t6",
        ),
    ],
)
def test_verify_four_algos_match_golden(argv, golden, tmp_path):
    # the goldens pin every algo's block, their order and the fixture
    fixture = tmp_path / "disc.tsv"
    code, out, _ = invoke(["verify", *argv, "--fixture-out", str(fixture)])
    assert code == 0
    assert out == (DATA / f"{golden}.txt").read_text()
    assert fixture.read_bytes() == (DATA / f"{golden}.tsv").read_bytes()


class _FixtureCheckingStdout(io.StringIO):
    """A stdout that checks, at each write, that the fixture is already whole."""

    def __init__(self, fixture, want):
        super().__init__()
        self.fixture, self.want = fixture, want

    def write(self, s):
        assert self.fixture.read_bytes() == self.want
        return super().write(s)


def test_verify_fixture_written_whole_before_stdout(tmp_path, monkeypatch):
    golden = "verify_exhaustive_4algos_ab_p3_t6"
    want = (DATA / f"{golden}.tsv").read_bytes()
    fixture = tmp_path / "disc.tsv"
    argv = ["verify", "--algos", "smalgo1,smalgo2,gsm,bma", "--p-max", "3", "--t-max", "6",
            "--fixture-out", str(fixture)]
    out = _FixtureCheckingStdout(fixture, want)
    monkeypatch.setattr(sys, "stdout", out)
    assert main(argv) == 0
    assert out.getvalue() == (DATA / f"{golden}.txt").read_text()
    # a reader that closes at once still leaves the fixture whole
    fixture.unlink()
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    assert main(argv) == 0
    assert fixture.read_bytes() == want


@pytest.mark.parametrize("algo", ["gsm", "bma"])
def test_verify_discrepancy_in_correct_algo_exit_two(algo, monkeypatch, capsys, tmp_path):
    # an engine that reports nothing misses every match; the records are
    # printed and written as compare_with_oracle collects them
    monkeypatch.setitem(SEARCHERS, algo, lambda p, t: MatchReport(algo, (), len(p), len(t)))
    fixture = tmp_path / "disc.tsv"
    argv = ["verify", "--algos", f"smalgo1,{algo}", "--p-max", "3", "--t-max", "5",
            "--fixture-out", str(fixture)]
    assert main(argv) == 2
    pairs = cli._verify_pairs(cli.build_parser().parse_args(argv))
    results = compare_with_oracle(pairs, ["smalgo1", algo])
    assert results[algo].discrepancies
    want = "".join(
        f"algo={name} pairs={r.pairs_scanned} discrepancies={len(r.discrepancies)}\n"
        + "".join(f"  {format_discrepancies([d])}" for d in r.discrepancies)
        for name, r in results.items()
    )
    assert capsys.readouterr() == (want, "")
    assert fixture.read_text() == "".join(
        format_discrepancies(r.discrepancies) for r in results.values()
    )


def test_verify_cap_violation_exit_two():
    code, _, err = invoke(
        ["verify", "--sigma", "ab", "--p-max", "10", "--t-max", "26"]
    )
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["--p-min", "0"],
        ["--mode", "random", "--p-min", "0"],
        ["--p-min", "5", "--p-max", "3"],
        ["--mode", "random", "--p-min", "5", "--p-max", "3", "--t-min", "6"],
        ["--mode", "random", "--t-min", "8", "--t-max", "6"],
        ["--t-min", "-1"],
        ["--mode", "random", "--sigma", ""],
        ["--sigma", ""],
        ["--algos", ""],
        ["--algos", " , "],
        ["--mode", "random", "--trials", "-5"],
        ["--mode", "random", "--trials", "0"],
        ["--sigma", "aab"],
        ["--mode", "random", "--sigma", "aab"],
        ["--algos", "smalgo1,smalgo1"],
        ["--mode", "random", "--algos", "gsm,smalgo1,gsm"],
        ["--t-min", "7", "--t-max", "6"],
        # fixture records are tab-separated, one per line
        ["--sigma", "a\tb"],
        ["--mode", "random", "--sigma", "a\nb"],
        ["--sigma", "ab\r"],
    ],
)
def test_verify_bad_lengths_exit_two(argv, capsys):
    assert main(["verify", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize("mode", ["exhaustive", "random"])
def test_verify_repeated_algo_writes_nothing(mode, tmp_path, capsys):
    fixture = tmp_path / "found.tsv"
    argv = ["verify", "--mode", mode, "--algos", "smalgo1,smalgo1",
            "--p-min", "4", "--p-max", "4", "--t-min", "4", "--t-max", "4",
            "--fixture-out", str(fixture)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: algos repeat 'smalgo1'\n"
    assert not fixture.exists()


@pytest.mark.parametrize("mode", ["exhaustive", "random"])
def test_verify_fixture_out_missing_dir_exit_two(mode, tmp_path, capsys):
    # the path is opened before any pair is scanned
    fixture = tmp_path / "missing" / "found.tsv"
    assert main(["verify", "--mode", mode, "--fixture-out", str(fixture)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert not fixture.parent.exists()


@pytest.mark.parametrize("k_max", ["0", "-1"])
def test_dfa_growth_bad_k_max_exit_two(k_max, capsys):
    assert main(["dfa-growth", "--k-max", k_max]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_dfa_growth_past_family_cap_stops_at_state_cap(capsys):
    # only verify_lower_bound caps k; the table is bounded by the state cap
    assert main(["dfa-growth", "--k-max", "11", "--state-cap", "20000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: subset construction exceeded 20000 states\n"


@pytest.mark.parametrize(
    "argv, shown",
    [
        (["dfa-states", "--pattern", "ab", "--state-cap", "-3"], "-3"),
        (["dfa-growth", "--k-max", "3", "--state-cap", "0"], "0"),
    ],
    ids=["dfa-states-negative", "dfa-growth-zero"],
)
def test_state_cap_below_one_exit_two(argv, shown, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(
        f"error: argument --state-cap: must be at least 1, got {shown}\n"
    )


def test_flaw_demo_matches_golden():
    code, out, _ = invoke(["flaw-demo"])
    assert code == 0
    assert out == (DATA / "flaw_demo_golden.txt").read_text()


def test_flaw_demo_deterministic():
    assert invoke(["flaw-demo"]) == invoke(["flaw-demo"])


def test_dfa_growth_table():
    code, out, _ = invoke(["dfa-growth", "--k-max", "3"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "k,pattern_length,nfa_states,dfa_states,min_dfa_states,bound_2k"
    assert lines[2].startswith("2,8,")  # the k=2 pattern is acabcabc
    for line in lines[1:]:
        k, _, _, _, mind, bound = line.split(",")
        assert int(mind) >= int(bound) == 2 ** int(k)
    assert invoke(["dfa-growth", "--k-max", "3"])[1] == out


def test_dfa_states_single_pattern():
    code, out, _ = invoke(["dfa-states", "--pattern", "acabc"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "pattern,pattern_length,nfa_states,dfa_states,min_dfa_states"
    assert lines[1].startswith("acabc,5,14,")


DFA_STATES_HEADER = "pattern,pattern_length,nfa_states,dfa_states,min_dfa_states\n"


@pytest.mark.parametrize(
    "pattern, row",
    [
        ("acabc", "acabc,5,14,21,21\n"),
        ("abcbbac", "abcbbac,7,20,30,28\n"),
        ("abababababab", "abababababab,12,35,672,672\n"),
        ("acabcabcabcabc", "acabcabcabcabc,14,41,272,272\n"),
    ],
)
def test_dfa_states_rows_pinned(pattern, row, capsys):
    assert main(["dfa-states", "--pattern", pattern]) == 0
    assert capsys.readouterr().out == DFA_STATES_HEADER + row


def test_dfa_states_quotes_csv_pattern(capsys):
    assert main(["dfa-states", "--pattern", "a,b"]) == 0
    out = capsys.readouterr().out
    assert out == DFA_STATES_HEADER + '"a,b",3,8,9,9\n'
    rows = list(csv.reader(out.splitlines()))
    assert [len(r) for r in rows] == [5, 5]
    assert rows[1][0] == "a,b"


def test_dfa_states_cap_exit_two():
    code, _, err = invoke(
        ["dfa-states", "--pattern", "acabcabcabc", "--state-cap", "5"]
    )
    assert code == 2
    assert "error" in err


def test_dfa_states_empty_pattern_exit_two(capsys):
    assert main(["dfa-states", "--pattern", ""]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: pattern must be non-empty\n"


def test_bench_csv_schema():
    code, out, _ = invoke(
        [
            "bench",
            "--algos",
            "gsm",
            "--p-list",
            "8,100",
            "--t",
            "20000",
            "--sigma",
            "4",
            "--reps",
            "3",
            "--seed",
            "5",
        ]
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "algo,p,t,sigma,words,reps,median_ns,throughput_sym_per_s,seed"
    assert len(lines) == 3
    row8 = lines[1].split(",")
    row100 = lines[2].split(",")
    assert row8[:6] == ["gsm", "8", "20000", "4", "1", "3"]
    assert row100[:6] == ["gsm", "100", "20000", "4", "2", "3"]
    assert int(row8[6]) > 0 and float(row8[7]) > 0
    assert row8[8] == "5"


def test_cli_import_loads_neither_statistics_nor_csv():
    # bench and dfa-states import them in their own bodies, so no other
    # command pays for them at start-up
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, swapmatch.cli; print(sorted({'statistics', 'csv'} & set(sys.modules)))"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_cli_import_loads_no_dataclasses():
    # the result records are plain classes; dataclasses would pull in
    # inspect and ast (and with them dis and tokenize) at every start-up
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, swapmatch.cli; "
         "print(sorted({'dataclasses', 'inspect', 'ast'} & set(sys.modules)))"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_bench_rejects_low_reps():
    code, _, err = invoke(["bench", "--reps", "2", "--t", "1000"])
    assert code == 2


@pytest.mark.parametrize(
    "argv, err",
    [
        (["--algos", "gsm,gsm"], "error: algos repeat 'gsm'\n"),
        (["--algos", ","], "error: algos must name at least one algorithm\n"),
        (["--p-list", "8,8"], "error: p-list repeats 8\n"),
        (["--p-list", "-2"], "error: p must be >= 1\n"),
        (["--t", "0"], "error: t must be >= 1\n"),
        (["--t", "-5"], "error: t must be >= 1\n"),
        (["--p-list", "8,101"], "error: p=101 exceeds t=100\n"),
        (["--p-list", ""], "error: p-list must be comma-separated integers, got ''\n"),
        (["--p-list", "8,"], "error: p-list must be comma-separated integers, got '8,'\n"),
        (["--p-list", "8,x"], "error: p-list must be comma-separated integers, got '8,x'\n"),
    ],
    ids=[
        "repeat-algo", "no-algo", "repeat-p", "negative-p", "zero-t", "negative-t",
        "p-over-t", "empty-p-list", "trailing-comma", "non-integer-p",
    ],
)
def test_bench_bad_arguments_exit_two(argv, err, capsys):
    assert main(["bench", "--t", "100", "--reps", "3", "--p-list", "8", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == err


def test_main_callable_in_process(capsys):
    code = main(["search", "--pattern", "ab", "--text", "ba"])
    assert code == 0
    assert capsys.readouterr().out == "1\n"
