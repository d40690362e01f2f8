"""Core-speed probe: fixed work beside a benchmark child, on the same CPU.

Run by ``run.py`` for the whole of a run, pinned to the CPU its children
are pinned to.  It repeats one chunk of fixed pure-Python work (a sparse
polynomial product with ``Fraction`` coefficients, the arithmetic kleinian
spends its time in) and pauses after each chunk, so it takes a small share
of the core.  For each chunk it records the monotonic start and end and
the CPU seconds spent.  On SIGTERM it finishes the chunk in hand, prints
the records as one JSON list and exits; if its parent dies first, it
exits without printing.

Why: on a shared host, other tenants change how fast a core runs, in
bursts of seconds to minutes; the CPU time of one and the same derivation
has ranged over 50 %.  The probe's chunks are slowed by the same bursts
at the same time, so the mean chunk time over a command's interval
measures the core's speed during that command.  ``run.py`` divides the
command's CPU time by that mean (see ``normalize``).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import sys
import time
from fractions import Fraction

#: Mean chunk CPU time on an uncontended core of the machine the benchmark
#: was calibrated on (Intel Xeon, 2.1 GHz, 2 vCPUs).  Normalized times are
#: CPU seconds at that speed: the command's CPU time times this over the
#: mean chunk time measured beside it.
REFERENCE_CHUNK_S = 0.0045
#: Chunks averaged at least; a short interval borrows the nearest chunks.
MIN_CHUNKS = 16

_P = {(i % 3, i % 5, i // 7): Fraction(i + 1, 2 * i + 3) for i in range(40)}
_Q = {(i % 4, i % 2, i // 5): Fraction(3 * i - 7, i + 5) for i in range(30)}


def chunk() -> int:
    """One unit of fixed work: the product of two sparse polynomials."""
    out: dict[tuple[int, ...], Fraction] = {}
    for ka, a in _P.items():
        for kb, b in _Q.items():
            k = tuple(x + y for x, y in zip(ka, kb))
            v = out.get(k, 0) + a * b
            if v:
                out[k] = v
            else:
                out.pop(k, None)
    return len(out)


def normalize(cpu_s: float, start: float, end: float, chunks: list[list[float]]) -> float:
    """CPU seconds ``cpu_s`` spent over the monotonic interval [start, end],
    rescaled to the reference core speed.

    The speed is the mean CPU time of the probe chunks whose midpoint lies
    in the interval; when fewer than ``MIN_CHUNKS`` do, the ``MIN_CHUNKS``
    chunks nearest to the interval are used.  ``chunks`` holds
    [start, end, cpu seconds] records as the probe prints them.
    """
    if not chunks:
        raise ValueError("the speed probe recorded no chunks")

    def distance(c):
        mid = (c[0] + c[1]) / 2
        return max(start - mid, mid - end, 0.0)

    inside = [c for c in chunks if distance(c) == 0.0]
    if len(inside) < MIN_CHUNKS:
        inside = sorted(chunks, key=distance)[:MIN_CHUNKS]
    return cpu_s * REFERENCE_CHUNK_S / statistics.fmean(c[2] for c in inside)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--pause", type=float, default=0.03, help="seconds asleep after each chunk")
    args = ap.parse_args(argv)
    stop = []
    signal.signal(signal.SIGTERM, lambda *_: stop.append(True))
    records = []
    parent = os.getppid()
    while not stop:
        if os.getppid() != parent:  # run.py was killed; nobody will read the records
            return 1
        t0, c0 = time.monotonic(), time.process_time()
        chunk()
        records.append([t0, time.monotonic(), time.process_time() - c0])
        time.sleep(args.pause)
    json.dump(records, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
