"""swapmatch benchmark: fresh-process CLI runs with checked outputs.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload genome-scan --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Every invocation is a new single-threaded Python process (child.py) that
imports ``swapmatch.cli`` from ``src/`` and calls ``main(argv)`` with
stdout going to a file. This script makes the seeded inputs, repeats the
workload's invocations in cycles for ``--seconds``, checks every output
against its reference, and prints a summary, a provenance record and, as
the last line, the result as one JSON object. With ``--trace 0`` the
result holds the end-to-end metrics; with ``--trace 1`` it alternates
untraced and traced invocations and holds the per-layer metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import layer_values
from workloads import GENERATOR_VERSION, WORK_UNITS, WORKLOADS, Query, cost_model_instance

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
CHILD_TIMEOUT_S = 100

# Median time of child.calibrate() on the 2-CPU machine the bounds were
# set on. Reported times are scaled by CALIB_REF_S / (the run's median
# calibration time): seconds at that machine's typical speed, so that a
# neighbour slowing the machine for a few minutes does not read as a
# regression. The raw times and calibrations stay in the record.
CALIB_REF_S = 0.0097

END_TO_END = {
    "work_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER = {
    "gsm.scan_s": "s",
    "gsm.scan_ns_per_sym.p8": "ns",
    "gsm.scan_ns_per_sym.p64": "ns",
    "gsm.scan_ns_per_sym.p512": "ns",
    "gsm.precompute_s": "s",
    "gsm.calls": "count",
    "gsm.matches": "count",
    "cli.read_s": "s",
    "cli.input_bytes": "bytes",
    "cli.text_symbols": "count",
    "cli.print_s": "s",
    "cli.output_bytes": "bytes",
    "cli.self_s": "s",
    "report.validate_s": "s",
    "report.calls": "count",
    "report.positions": "count",
    "oracle.search_s": "s",
    "oracle.calls": "count",
    "oracle.windows": "count",
    "smalgo.precompute_s": "s",
    "smalgo.precompute_calls": "count",
    "smalgo.search_s": "s",
    "smalgo.discrepancies": "count",
    "smalgo.reverify_searches": "count",
    "smalgo.useful_search_ratio": "ratio",
    "model.bma_s": "s",
    "model.bma_calls": "count",
    "bitvec.vectors_built": "count",
    "bitvec.ops_per_symbol": "count",
    "dfa.determinize_s": "s",
    "dfa.minimize_s": "s",
    "dfa.dfa_states": "count",
    "dfa.min_dfa_states": "count",
    "trace.overhead_share": "ratio",
}


def invoke(query: Query, work: Path, traced: bool) -> dict:
    """Run one query in a fresh process; returns its sample, checked."""
    paths = {k: work / f"{k}.json" for k in ("spec", "result", "spans")}
    out = work / "stdout.txt"
    for path in (*paths.values(), out):
        path.unlink(missing_ok=True)
    spec = {
        "src": str(SRC),
        "argv": list(query.argv),
        "stdout": str(out),
        "result": str(paths["result"]),
        "spans": str(paths["spans"]) if traced else None,
    }
    paths["spec"].write_text(json.dumps(spec), encoding="utf-8")
    sample = {"query": query.label, "traced": traced, "error": None}
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), str(paths["spec"])],
            cwd=ROOT,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        sample["error"] = f"timed out after {CHILD_TIMEOUT_S} s"
        return sample
    if proc.returncode != 0 or not paths["result"].exists():
        tail = proc.stderr.decode(errors="replace").strip().splitlines()[-1:]
        sample["error"] = f"child exited {proc.returncode}: {' '.join(tail)}"
        return sample
    sample.update(json.loads(paths["result"].read_text(encoding="utf-8")))
    try:
        sample["error"] = query.check(sample["exit_code"], out.read_bytes())
    except (ValueError, KeyError, UnicodeDecodeError) as exc:
        sample["error"] = f"unreadable output: {exc!r}"
    if traced:
        sample["layers"] = layer_values(json.loads(paths["spans"].read_text(encoding="utf-8")))
    out.unlink()
    return sample


def measure(queries: list[Query], work: Path, seconds: float, trace: bool) -> list[dict]:
    """Repeat whole cycles over the queries until ``seconds`` have passed.

    A cycle runs every query once (untraced, then traced when tracing),
    so every query has the same number of samples. One untimed warm-up
    run comes first; its output is checked too.
    """
    warmup = invoke(queries[0], work, traced=False)
    warmup["warmup"] = True
    samples = [warmup]
    deadline = time.monotonic() + seconds
    while True:
        for q in queries:
            samples.append(invoke(q, work, traced=False))
            if trace:
                samples.append(invoke(q, work, traced=True))
        if time.monotonic() >= deadline:
            return samples


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _ok(samples, label, traced):
    return [
        s for s in samples
        if s["query"] == label and s["traced"] == traced and not s["error"] and not s.get("warmup")
    ]


def end_to_end(queries: list[Query], samples: list[dict]) -> dict[str, float]:
    """Medians per query, combined over one cycle of the workload.

    Each time is divided by the calibration taken nearest to it in the
    same process (for the import, the one just before it; for the
    command, the mean of the ones before and after), so every median is
    taken over times at the reference speed.
    """
    def median_time(rows, key, calib):
        return _median(s[key] * CALIB_REF_S / s[calib] for s in rows)

    per_query = [_ok(samples, q.label, False) for q in queries]
    walls = [median_time(rows, "wall_s", "calib_s") for rows in per_query]
    rss = [_median(s["peak_rss_kib"] for s in rows) for rows in per_query]
    return {
        "work_per_s": sum(q.work for q in queries) / sum(walls) if all(walls) else 0.0,
        "peak_rss_mb": max(rss) / 1024,
        "setup_s": median_time([s for rows in per_query for s in rows], "setup_s", "calib_before_s"),
    }


def ops_per_symbol(pattern: bytes, text: bytes) -> float:
    """Bitwise vector ops per text symbol of a literal ``gsm_step`` chain (paper: 13)."""
    from swapmatch.bitvec import count_ops
    from swapmatch.gsm import gsm_precompute, gsm_step, zero_state

    masks = gsm_precompute(pattern, alphabet=set(pattern) | set(text))
    state = zero_state(len(pattern))
    with count_ops() as ops:
        for symbol in text:
            state = gsm_step(state, masks, symbol)
    return sum(ops.values()) / len(text)


def per_layer(queries: list[Query], samples: list[dict], seed: int) -> dict[str, float]:
    """Per-query medians of each traced quantity, summed over one cycle."""
    raw: dict[str, float] = {}
    for q in queries:
        traced = _ok(samples, q.label, True)
        for key in traced[0]["layers"] if traced else ():
            raw[key] = raw.get(key, 0) + _median(s["layers"][key] for s in traced)
    out = {k: raw.get(k, 0) for k in PER_LAYER}
    for p in (8, 64, 512):
        symbols = raw.get(f"scan_symbols.p{p}", 0)
        out[f"gsm.scan_ns_per_sym.p{p}"] = raw[f"scan_ns.p{p}"] / symbols if symbols else 0.0
    first, total = raw.get("smalgo.first_pass_searches", 0), raw.get("smalgo.all_searches", 0)
    out["smalgo.useful_search_ratio"] = first / total if total else 0.0
    out["bitvec.ops_per_symbol"] = ops_per_symbol(*cost_model_instance(seed))
    untraced = sum(_median(s["wall_s"] for s in _ok(samples, q.label, False)) for q in queries)
    traced = sum(_median(s["wall_s"] for s in _ok(samples, q.label, True)) for q in queries)
    out["trace.overhead_share"] = traced / untraced if untraced else 0.0
    return out


def provenance(workload: str, args, samples: list[dict]) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            )
            commit = proc.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "generator_version": GENERATOR_VERSION,
        "samples": samples,
    }


def run_workload(workload: str, args) -> dict:
    work = WORK / workload / f"seed{args.seed}-v{GENERATOR_VERSION}"
    work.mkdir(parents=True, exist_ok=True)
    queries = WORKLOADS[workload](args.seed, work)
    samples = measure(queries, work, args.seconds, bool(args.trace))
    if args.trace:
        metrics = per_layer(queries, samples, args.seed)
    else:
        metrics = end_to_end(queries, samples)
    failed = [s for s in samples if s["error"]]
    record = provenance(workload, args, samples)
    record["metrics"] = metrics
    record["error_rate"] = len(failed) / len(samples)
    records = WORK / "records"
    records.mkdir(exist_ok=True)
    (records / f"{workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8"
    )
    units = PER_LAYER if args.trace else END_TO_END
    for s in failed:
        print(f"{workload} FAILED {s['query']}: {s['error']}")
    for name, value in metrics.items():
        print(f"{workload:15} {name:28} {value:14.6g} {units[name]}")
    print(f"{workload:15} {'error_rate':28} {record['error_rate']:14.6g} share"
          f"   ({len(failed)} of {len(samples)} invocations; "
          f"work unit: {WORK_UNITS[workload]})")
    print(json.dumps({"record": record}))
    return {"attempted": len(samples), "failed": len(failed), "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "swapmatch" / "cli.py").is_file():
        print(f"error: no swapmatch sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run_workload(name, args) for name in names}
    if args.workload == "all":
        metrics = {f"{n}/{k}": v for n, r in results.items() for k, v in r["metrics"].items()}
    else:
        metrics = results[args.workload]["metrics"]
    units = PER_LAYER if args.trace else END_TO_END
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k.rsplit("/", 1)[-1]]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
