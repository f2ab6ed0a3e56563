"""Seeded inputs, CLI invocations and output references for each workload.

A workload is a list of queries. A query is one ``swapmatch`` command line
plus the reference its output is checked against and the amount of work
it stands for (the unit of ``work_per_s``). Inputs and references depend
only on the seed and are cached under the checkout's work directory;
nothing here is timed.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from random import Random
from typing import Callable

# Bump when a generator changes, so stale cached inputs are not reused.
GENERATOR_VERSION = 1

GENOME_BASES = 2_000_000
GENOME_RECORDS = 4
FASTA_COLUMNS = 60
GENOME_PATTERN_LENGTHS = (8, 64, 512)
PLANTS_PER_PATTERN = 5

DENSE_QUERIES = ((8, 400_000, "text"), (512, 50_000, "jsonl"))

VERIFY_ALGOS = ("gsm", "bma", "smalgo1", "smalgo2")
VERIFY_TRIALS = 600
VERIFY_RUNS = 4
VERIFY_FLAGS = ("--sigma", "ab", "--p-min", "2", "--p-max", "12",
                "--t-min", "12", "--t-max", "64")

DFA_K_MAX = 8

_ACGT = bytes(b"ACGT"[i % 4] for i in range(256))


@dataclass(frozen=True)
class Query:
    """One CLI invocation: its argv, the work it does and its output check.

    ``check(exit_code, stdout_bytes)`` returns None when the output is
    right and a one-line reason when it is not.
    """

    label: str
    argv: tuple[str, ...]
    work: float
    check: Callable[[int, bytes], str | None]


def _write_atomic(path: Path, data: bytes) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(data)
    os.replace(tmp, path)


def _positions_bytes(positions) -> bytes:
    return "".join(f"{k}\n" for k in positions).encode()


def _swap_some(seq: bytes, rng: Random, rate: float = 0.3) -> bytes:
    """Apply disjoint swaps of adjacent unequal symbols at random."""
    out = bytearray(seq)
    i = 0
    while i + 1 < len(out):
        if out[i] != out[i + 1] and rng.random() < rate:
            out[i], out[i + 1] = out[i + 1], out[i]
            i += 2
        else:
            i += 1
    return bytes(out)


def _expect_exact(expected: bytes, want_rc: int):
    def check(rc: int, out: bytes) -> str | None:
        if rc != want_rc:
            return f"exit code {rc}, expected {want_rc}"
        if out != expected:
            return f"output differs from the reference ({len(out)} vs {len(expected)} bytes)"
        return None

    return check


# -- genome-scan ---------------------------------------------------------------

def _genome(seed: int) -> tuple[bytes, list[bytes]]:
    """A random ACGT sequence and patterns taken from it with swaps applied.

    Each pattern is also planted, swapped anew, at PLANTS_PER_PATTERN
    places in disjoint slots, so every pattern has matches.
    """
    rng = Random(seed)
    seq = bytearray(rng.randbytes(GENOME_BASES).translate(_ACGT))
    patterns = []
    for p in GENOME_PATTERN_LENGTHS:
        start = rng.randrange(GENOME_BASES - p)
        patterns.append(_swap_some(bytes(seq[start : start + p]), rng))
    slot = GENOME_BASES // 1000
    slots = rng.sample(range(1000), PLANTS_PER_PATTERN * len(patterns))
    for n, s in enumerate(slots):
        pat = patterns[n // PLANTS_PER_PATTERN]
        at = s * slot + rng.randrange(slot - len(pat))
        seq[at : at + len(pat)] = _swap_some(pat, rng)
    return bytes(seq), patterns


def _fasta(seq: bytes, seed: int) -> bytes:
    lines = []
    size = -(-len(seq) // GENOME_RECORDS)
    for r in range(GENOME_RECORDS):
        lines.append(f">chr{r + 1} synthetic seed={seed}".encode())
        record = seq[r * size : (r + 1) * size]
        lines.extend(
            record[i : i + FASTA_COLUMNS] for i in range(0, len(record), FASTA_COLUMNS)
        )
    return b"\n".join(lines) + b"\n"


def genome_scan(seed: int, work: Path) -> list[Query]:
    fasta = work / "genome.fa"
    meta = work / "patterns.json"
    if not meta.exists():
        from swapmatch.oracle import oracle_search

        seq, patterns = _genome(seed)
        _write_atomic(fasta, _fasta(seq, seed))
        for pat in patterns:
            positions = oracle_search(pat, seq).positions
            if not positions:
                raise RuntimeError(f"planted pattern of length {len(pat)} has no match")
            _write_atomic(work / f"expected-p{len(pat)}.txt", _positions_bytes(positions))
        _write_atomic(
            meta,
            json.dumps({"patterns": [p.decode() for p in patterns], "symbols": len(seq)}).encode(),
        )
    info = json.loads(meta.read_text())
    queries = []
    for pat in info["patterns"]:
        expected = (work / f"expected-p{len(pat)}.txt").read_bytes()
        queries.append(
            Query(
                label=f"p{len(pat)}",
                argv=("search", "--fasta", "--file", str(fasta), "--pattern", pat),
                work=info["symbols"],
                check=_expect_exact(expected, 0),
            )
        )
    return queries


# -- dense-periodic ------------------------------------------------------------

def _jsonl_check(p: int, t: int):
    def check(rc: int, out: bytes) -> str | None:
        if rc != 0:
            return f"exit code {rc}, expected 0"
        lines = out.splitlines()
        if len(lines) != t - p + 1:
            return f"{len(lines)} matches, expected every one of {t - p + 1} windows"
        for k, line in enumerate(lines, 1):
            rec = json.loads(line)
            want = {"algorithm": "gsm", "pattern_len": p, "text_len": t,
                    "position": k, "position0": k - 1}
            if rec != want:
                return f"line {k}: {rec} != {want}"
        return None

    return check


def dense_periodic(seed: int, work: Path) -> list[Query]:
    # Every window of an ab-periodic text swap-matches an ab-periodic
    # pattern of even length (a window starting with b is the pattern with
    # every pair swapped), so the reference is all of 1..t-p+1.
    rng = Random(seed)
    queries = []
    for p, t, fmt in DENSE_QUERIES:
        text_path = work / f"ab-{t}.txt"
        text = (b"ab" if rng.random() < 0.5 else b"ba") * (t // 2)
        _write_atomic(text_path, text)
        pattern = ("ab" if rng.random() < 0.5 else "ba") * (p // 2)
        check = (
            _jsonl_check(p, t)
            if fmt == "jsonl"
            else _expect_exact(_positions_bytes(range(1, t - p + 2)), 0)
        )
        queries.append(
            Query(
                label=f"p{p}-{fmt}",
                argv=("search", "--file", str(text_path), "--pattern", pattern,
                      "--format", fmt),
                work=t,
                check=check,
            )
        )
    return queries


# -- verify-random -------------------------------------------------------------

def _verify_check(trials: int):
    def check(rc: int, out: bytes) -> str | None:
        if rc != 0:
            return f"exit code {rc}, expected 0"
        seen = {}
        for line in out.decode().splitlines():
            if line.startswith("algo="):
                fields = dict(f.split("=", 1) for f in line.split())
                seen[fields["algo"]] = (int(fields["pairs"]), int(fields["discrepancies"]))
        if sorted(seen) != sorted(VERIFY_ALGOS):
            return f"summary lines for {sorted(seen)}, expected {sorted(VERIFY_ALGOS)}"
        for algo, (pairs, found) in seen.items():
            if pairs != trials:
                return f"{algo} checked {pairs} pairs, expected {trials}"
            if algo in ("gsm", "bma") and found:
                return f"{algo} has {found} discrepancies against the oracle"
        return None

    return check


def verify_random(seed: int, work: Path) -> list[Query]:
    # The work of a random-mode run depends on its trials: every SMALGO
    # false positive is verified again, and their count differed by 25%
    # between seeds of 600 trials. A cycle of VERIFY_RUNS runs on derived
    # seeds averages over enough trials to keep that out of the figures.
    return [
        Query(
            label=f"seed{sub}",
            argv=("verify", "--mode", "random", "--algos", ",".join(VERIFY_ALGOS),
                  *VERIFY_FLAGS, "--trials", str(VERIFY_TRIALS), "--seed", str(sub)),
            work=VERIFY_TRIALS * len(VERIFY_ALGOS),
            check=_verify_check(VERIFY_TRIALS),
        )
        for sub in range(seed * VERIFY_RUNS, (seed + 1) * VERIFY_RUNS)
    ]


# -- dfa-blowup ----------------------------------------------------------------

def _growth_check(k_max: int):
    def check(rc: int, out: bytes) -> str | None:
        if rc != 0:
            return f"exit code {rc}, expected 0"
        rows = out.decode().splitlines()
        if not rows or not rows[0].startswith("k,"):
            return "missing CSV header"
        header = rows[0].split(",")
        body = [dict(zip(header, r.split(","))) for r in rows[1:]]
        if [int(r["k"]) for r in body] != list(range(1, k_max + 1)):
            return f"rows for k={[r['k'] for r in body]}, expected 1..{k_max}"
        for r in body:
            k = int(r["k"])
            if int(r["bound_2k"]) != 1 << k or int(r["min_dfa_states"]) < 1 << k:
                return f"k={k}: {r['min_dfa_states']} minimal states is below 2^{k}"
        return None

    return check


def dfa_blowup(seed: int, work: Path) -> list[Query]:
    # The table has no random input, so the seed changes nothing here.
    return [
        Query(
            label=f"k{DFA_K_MAX}",
            argv=("dfa-growth", "--k-max", str(DFA_K_MAX)),
            work=1,
            check=_growth_check(DFA_K_MAX),
        )
    ]


def cost_model_instance(seed: int) -> tuple[bytes, bytes]:
    """A 64-symbol pattern and the 256-symbol ACGT text it was cut from."""
    text = Random(seed).randbytes(256).translate(_ACGT)
    return text[96:160], text


WORKLOADS: dict[str, Callable[[int, Path], list[Query]]] = {
    "genome-scan": genome_scan,
    "dense-periodic": dense_periodic,
    "verify-random": verify_random,
    "dfa-blowup": dfa_blowup,
}

WORK_UNITS = {
    "genome-scan": "text symbols",
    "dense-periodic": "text symbols",
    "verify-random": "trial x algo pairs",
    "dfa-blowup": "growth tables",
}
