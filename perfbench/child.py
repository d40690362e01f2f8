"""One benchmark repetition in a fresh process: set up, derive, verify.

Run by ``run.py``, never by hand.  It imports ``kleinian.cli``, parses the
curve spec and stamps the moment it is ready (``time.monotonic``, which is
shared by all processes, so the parent can subtract its launch time).  In
``derive`` mode it then times ``main(["derive", ...])`` into ``--doc``,
reads its peak resident memory and hashes the document.  In both modes
it then times ``main(["verify", "--doc", ...])``, at least once and until
``--verify-min-s`` seconds are spent.  With ``--trace`` the layer spans
are installed after the ready stamp and written out with the result,
together with the counters as they stood when derive returned.  The
result is one JSON file.

Command times are CPU seconds (this process and any it waited for); wall
seconds are kept beside them.  kleinian is single-threaded and CPU-bound,
so on an idle machine the two agree.  On a shared one the wall time also
holds the time other tenants run on the core; the CPU time leaves that
out, but still moves with how fast they let the core run (the user time
of one and the same derivation has ranged over 50 % on a 2-vCPU VM).
So each command's monotonic interval is kept too: ``run.py`` rescales
the CPU time by the speed that ``speedprobe.py`` measured on the same
core over that interval.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback


def cpu_clock() -> float:
    """CPU seconds of this process and of the children it has waited for."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


def _call(cli, argv):
    """Run a kleinian command.

    Returns (exit code, stdout, CPU start, CPU end, monotonic start, monotonic end).
    """
    buf = io.StringIO()
    wall, t0 = time.monotonic(), cpu_clock()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
    except Exception:  # an uncaught error is a failed repetition, not a crash
        rc = "exception: " + traceback.format_exc(limit=3).strip().splitlines()[-1]
    return rc, buf.getvalue(), t0, cpu_clock(), wall, time.monotonic()


def _dir_bytes(path):
    total = 0
    for base, _, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(base, f)) for f in files)
    return total


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("setup", "derive"), required=True)
    ap.add_argument("--curve", required=True)
    ap.add_argument("--max-weight", type=int)
    ap.add_argument("--method", default="plucker")
    ap.add_argument("--doc", help="document to write (derive) or to verify (setup)")
    ap.add_argument("--result", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--verify-min-s", type=float, default=0.0)
    args = ap.parse_args(argv)

    import kleinian.cli as cli
    from kleinian.curves import parse_spec

    with open(args.curve) as fh:
        parse_spec(fh.read())  # part of set-up; derive parses the file again
    result = {"ready": time.monotonic(), "kleinian_file": cli.__file__}
    tracer = None
    if args.mode == "derive":
        if args.trace:
            sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
            from tracer import Tracer
            tracer = Tracer(cpu_clock)
            tracer.install()
        result.update(_derive(cli, args))
        if tracer is not None:
            result["derive_counters"] = dict(tracer.counters)  # before verify adds to them
    if args.doc and result.get("derive_rc", 0) == 0:
        result.update(_verify(cli, args))
    if tracer is not None:
        result["trace"] = tracer.dump()
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


def _derive(cli, args):
    from kleinian.rationals import QType

    out = {"backend": QType.__name__}
    derive_argv = ["derive", "--curve", args.curve, "--max-weight", str(args.max_weight),
                   "--method", args.method, "--out", args.doc]
    rc, _, start, end, wall0, wall1 = _call(cli, derive_argv)
    out["derive_window"] = [start, end]
    out["derive_rc"] = rc
    out["derive_s"] = end - start
    out["derive_mono"] = [wall0, wall1]
    out["derive_wall_s"] = wall1 - wall0
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["cache_bytes"] = _dir_bytes(os.environ["KLEINIAN_CACHE_DIR"])
    if rc == 0:
        with open(args.doc, "rb") as fh:
            out["digest"] = hashlib.sha256(fh.read()).hexdigest()
    return out


def _verify(cli, args):
    """Verify the document at least once and for --verify-min-s CPU seconds."""
    verify_s, verify_fail = [], []
    first = time.monotonic()
    while not verify_s or sum(verify_s) < args.verify_min_s:
        rc, text, start, end, _, last = _call(cli, ["verify", "--doc", args.doc])
        verify_s.append(end - start)
        fails = [line for line in text.splitlines() if line.startswith("FAIL")]
        if rc != 0 or fails:
            verify_fail.append({"rc": rc, "fail_lines": fails[:5]})
    return {"verify_s": verify_s, "verify_mono": [first, last], "verify_failures": verify_fail}


if __name__ == "__main__":
    sys.exit(main())
