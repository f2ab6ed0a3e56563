"""Run one swapmatch command in this fresh process and report its costs.

Usage: python3 child.py SPEC.json

SPEC holds ``src`` (the package source directory), ``argv`` (the CLI
arguments), ``stdout`` (file the command's output goes to), ``result``
(file this script writes its measurements to) and ``spans`` (file for
the traced spans, or null for an untraced run). The command runs
single-threaded through ``swapmatch.cli.main(argv)`` exactly as the
console script would; its output is checked by the parent afterwards.
"""

import gc
import json
import os
import resource
import statistics
import sys
import time

CALIB_REPS = 5


def calibrate() -> float:
    """Seconds this process takes for a fixed piece of pure-Python work.

    The work mixes what swapmatch spends its time on: a shift-and-mask
    loop over small ints, dict and set lookups, tuple allocation and
    string building. It runs CALIB_REPS times with the cyclic collector off,
    so the heap the command left behind does not change it; the median
    is returned. The parent divides each measured time by this figure,
    so drift in the machine's speed between and within runs cancels out.
    """
    table = {i: (i, (i << 1) & 0xFFFF, i >> 1) for i in range(256)}
    times = []
    gc.disable()
    try:
        for _ in range(CALIB_REPS):
            t0 = time.perf_counter()
            seen = set()
            a = b = c = 0
            for i in range(18_000):
                d, dl, dr = table[i & 255]
                prop = ((b | a) << 1) | 1
                a = ((c << 1) | 1) & dl
                b = prop & d
                c = prop & dr
                if i % 7 == 0:
                    seen.add((a, b, c, str(i)))
            "".join(str(x) for x in range(6_000))
            frozenset(range(6_000)) & frozenset(range(0, 12_000, 3))
            times.append(time.perf_counter() - t0)
    finally:
        gc.enable()
    return statistics.median(times)


def peak_rss_kib() -> int:
    """Peak resident set of this process image, in KiB.

    VmHWM belongs to the current address space. ru_maxrss would also
    carry the parent's size over from before exec.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    calib_before = calibrate()

    t0 = time.perf_counter()
    import swapmatch.cli as cli

    setup_s = time.perf_counter() - t0

    run = cli.main
    recorder = None
    if spec["spans"]:
        from spans import Recorder, install

        recorder = Recorder()
        install(recorder)
        run = recorder.wrap("cli.main", cli.main)

    with open(spec["stdout"], "w", encoding="utf-8") as out:
        sys.stdout = out
        try:
            t1 = time.perf_counter()
            code = run(spec["argv"])
            out.flush()
            wall_s = time.perf_counter() - t1
        finally:
            sys.stdout = sys.__stdout__
    peak_kib = peak_rss_kib()
    calib_after = calibrate()

    if recorder is not None:
        recorder.spans[0][4] = {"output_bytes": os.path.getsize(spec["stdout"])}
        recorder.dump(spec["spans"])
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(
            {
                "exit_code": code,
                "setup_s": setup_s,
                "wall_s": wall_s,
                "peak_rss_kib": peak_kib,
                "calib_before_s": calib_before,
                "calib_s": (calib_before + calib_after) / 2,
            },
            fh,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
