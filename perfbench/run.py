"""Benchmark of kleinian's user path: ``derive`` then ``verify``, one process each time.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload g2-w12-warm --seed 1 --seconds 30 --trace 0

Each timed repetition is a new ``python`` process (``perfbench/child.py``)
with ``PYTHONPATH=src`` and ``KLEINIAN_CACHE_DIR`` pointing at a directory
of its own under ``perfbench/.work``, so in-process caches start empty and
``~/.cache/kleinian`` is never touched.  Repetitions run one after another
(a closed loop with one client) while the next one fits in ``--seconds``;
there is always at least one.  The inputs are fixed; the
seed sets each child's ``PYTHONHASHSEED`` (a new one per child, so the
median of a run averages over hash seeds) and the order of the two
members of a traced pair.  Every document is checked against the sha256
pinned in ``perfbench/workloads.json`` and every ``verify`` call must
exit 0 with no ``FAIL`` line; a failure counts in ``failed`` and its
timings stay in the samples.

Every child runs pinned to one CPU, and ``speedprobe.py`` runs on that
CPU for the whole run, timing a fixed chunk of work over and over.  The
set-up, derive and verify times are rescaled by the probe's mean chunk
time over their interval, to seconds at a fixed reference speed of the
core: other tenants of a shared host change how fast the core runs, and
this takes that out (the raw CPU and wall seconds of derive are printed
beside them).

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json: set-up
(wall seconds from launch until ``kleinian.cli`` is imported and the spec
parsed, a median over every child of the run), derive and verify (CPU
seconds; see ``child.py``), all three rescaled to the reference speed,
and the peak RSS of the derive process.  After the derive repetitions,
set-up probes (fresh processes) verify the document just written.
``--trace 1`` runs untraced and traced repetitions in pairs and reports
the per-layer metrics from the spans recorded by ``perfbench/tracer.py``.
Human-readable lines come first; the last line is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"
SETUP_PROBES = 30
VERIFY_PROBE_S = 0.1  # CPU seconds of verify calls per probe (at least one call)
VERIFY_BUDGET_S = 10.0  # probes stop verifying once a run has spent this much
PROBE_PAUSE_S = 0.05  # the speed probe sleeps this long after each chunk (about 8 % of the core)
DEADLINE_S = 170.0
ROADMAP_BASELINE = {"puiseux": 5.1, "winding": 0.7, "omega": 2.4}  # genus 2, W=10

sys.path.insert(0, str(BENCH))
from speedprobe import REFERENCE_CHUNK_S, normalize  # noqa: E402
from tracer import MODULES, summarize  # noqa: E402


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def _load():
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        table = json.loads((BENCH / "workloads.json").read_text())
    except (OSError, ValueError) as exc:
        raise BenchError("cannot read the benchmark definition: %s" % exc)
    if not (ROOT / "src" / "kleinian" / "cli.py").is_file():
        raise BenchError("no kleinian sources under %s" % (ROOT / "src"))
    return spec, table


def _source_key() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def _pinned(cpu: int):
    """A ``preexec_fn`` that pins the new process to ``cpu``."""
    return lambda: os.sched_setaffinity(0, {cpu})


@contextlib.contextmanager
def speed_probe(cpu: int):
    """Run ``speedprobe.py`` on ``cpu``; the list yielded gets its chunks on exit."""
    proc = subprocess.Popen([sys.executable, str(BENCH / "speedprobe.py"),
                             "--pause", str(PROBE_PAUSE_S)],
                            stdout=subprocess.PIPE, text=True, preexec_fn=_pinned(cpu))
    chunks: list[list[float]] = []
    try:
        time.sleep(0.5)  # a few chunks before the first command
        yield chunks
    finally:
        proc.terminate()
        try:
            out, _ = proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            out = ""
    if proc.returncode != 0 or not out:
        raise BenchError("the speed probe failed (exit %s)" % proc.returncode)
    chunks.extend(json.loads(out))


class Runner:
    """Starts child processes one at a time, pinned to one CPU, and keeps their outcomes."""

    def __init__(self, workload: dict, tmp: Path, rng: random.Random, deadline: float):
        self.wl = workload
        self.tmp = tmp
        self.deadline = deadline
        self.rng = rng
        self.cpu = max(os.sched_getaffinity(0))
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        self.attempted = 0
        self.failures: list[str] = []
        self.backend = "unknown"
        self._n = 0

    def child(self, mode: str, cache_dir: Path | None = None, trace: bool = False,
              count: bool = True, doc: Path | None = None,
              verify_min_s: float = 0.0) -> dict | None:
        """Run one child; return its result, or None (recorded) if it failed.

        A derive child writes ``doc`` (a scratch file when None, deleted
        afterwards); a setup child verifies ``doc`` when one is given.
        """
        self._n += 1
        tag = "%s-%d" % (mode, self._n)
        result_path = self.tmp / (tag + ".json")
        scratch = doc is None and mode == "derive"
        if scratch:
            doc = self.tmp / (tag + ".doc.json")
        argv = [sys.executable, str(BENCH / "child.py"), "--mode", mode,
                "--curve", self.wl["curve"], "--result", str(result_path),
                "--verify-min-s", str(verify_min_s)]
        if mode == "derive":
            argv += ["--max-weight", str(self.wl["max_weight"]), "--method", self.wl["method"]]
        if doc is not None:
            argv += ["--doc", str(doc)]
        if trace:
            argv.append("--trace")
        env = dict(self.env)
        env["PYTHONHASHSEED"] = str(self.rng.randrange(2 ** 32))
        cache = cache_dir or self.tmp / (tag + ".cache")
        cache.mkdir(parents=True, exist_ok=True)
        env["KLEINIAN_CACHE_DIR"] = str(cache)
        if count:
            self.attempted += 1
        timeout = self.deadline - time.monotonic()
        launch = time.monotonic()
        try:
            proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True,
                                  timeout=max(timeout, 1.0), preexec_fn=_pinned(self.cpu))
        except subprocess.TimeoutExpired:
            return self._fail(count, "%s: timed out" % tag)
        if proc.returncode != 0 or not result_path.is_file():
            return self._fail(count, "%s: child exit %s: %s"
                              % (tag, proc.returncode, proc.stderr.strip()[-500:]))
        res = json.loads(result_path.read_text())
        res["launch"] = launch
        res["setup_s"] = res["ready"] - launch
        if Path(res["kleinian_file"]).resolve().parent != (ROOT / "src" / "kleinian").resolve():
            return self._fail(count, "%s: imported kleinian from %s" % (tag, res["kleinian_file"]))
        self.backend = res.get("backend", self.backend)
        problem = self._check(res) if count else None
        if problem:
            self.failures.append("%s: %s" % (tag, problem))
            res["failed"] = True
        if cache_dir is None:
            shutil.rmtree(cache, ignore_errors=True)
        if scratch:
            doc.unlink(missing_ok=True)
        return res

    def _check(self, res: dict) -> str | None:
        if res.get("derive_rc", 0) != 0:
            return "derive exit %s" % res["derive_rc"]
        if "derive_rc" in res and res.get("digest") != self.wl["digest"]:
            return "document sha256 %s, pinned %s" % (res.get("digest"), self.wl["digest"])
        if res.get("verify_failures"):
            return "verify failed: %s" % res["verify_failures"][0]
        return None

    def _fail(self, count: bool, why: str):
        if not count:
            raise BenchError(why)
        self.failures.append(why)
        return None


def _warm_cache(runner: Runner) -> Path:
    """Tau-model cache for the workload, filled once per source tree (untimed).

    A fill that writes nothing is a valid state, that of a program without
    a disk cache: the timed children then start from an empty copy, so the
    cold build shows in derive_s.
    """
    final = WORK / ("warm-%s-%s" % (runner.wl["name"], _source_key()))
    if not final.is_dir():
        for old in WORK.glob("warm-%s-*" % runner.wl["name"]):
            shutil.rmtree(old, ignore_errors=True)
        filling = Path(tempfile.mkdtemp(dir=WORK, prefix="fill-"))
        runner.child("derive", cache_dir=filling, count=False)
        filling.rename(final)
    if not any(final.iterdir()):
        print("note: filling the tau-model cache wrote nothing; "
              "the timed children start from an empty cache")
    return final


def _tail(values: list[float], unit: str) -> str:
    """Median and the highest percentile with ten samples beyond it."""
    n = len(values)
    line = "median %.6g %s" % (statistics.median(values), unit)
    if n < 11:
        return line + ", no percentile with ten samples beyond it (n=%d)" % n
    pct = math.floor(100.0 * (n - 10) / n)
    return line + ", p%d %.6g %s (n=%d)" % (pct, sorted(values)[n - 11], unit, n)


def _repeat(runner: Runner, seconds: float, one_rep) -> None:
    """Run one repetition, then more while the next fits in ``seconds``."""
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        one_rep()
        now = time.monotonic()
        if now - start + (now - t0) > seconds or now + (now - t0) > runner.deadline:
            return


def _warm_copy(runner: Runner, warm: Path | None) -> Path | None:
    if warm is None:
        return None
    dest = Path(tempfile.mkdtemp(dir=runner.tmp, prefix="cache-"))
    shutil.copytree(warm, dest, dirs_exist_ok=True)
    return dest


def run_timed(runner: Runner, seconds: float, warm: Path | None):
    """Derive repetitions, then set-up probes that verify the last document.

    Returns the results of the derive children and of the set-up probes.
    """
    derives, probes = [], []
    doc = runner.tmp / "derived.doc.json"

    def rep():
        res = runner.child("derive", cache_dir=_warm_copy(runner, warm), doc=doc)
        if res is not None:
            derives.append(res)

    _repeat(runner, seconds, rep)
    verify_left = VERIFY_BUDGET_S
    for _ in range(SETUP_PROBES):
        verify = verify_left > 0 and doc.is_file()
        res = runner.child("setup", doc=doc if verify else None, verify_min_s=VERIFY_PROBE_S)
        if res is None:
            continue
        probes.append(res)
        if verify:
            verify_left -= sum(res["verify_s"])
    return derives, probes


def timed_samples(derives: list[dict], probes: list[dict], chunks: list) -> dict:
    """Samples of every end-to-end metric, and of raw derive CPU and wall time.

    Times are rescaled to the reference speed of the core (``normalize``);
    set-up is wall time, which on the pinned CPU is mostly CPU time.

    verify_s is one sample per probe process, its median call: the speed
    of one verify call differs more between processes than within one, so
    the samples are spread over processes.
    """
    return {
        "setup_s": [normalize(r["setup_s"], r["launch"], r["ready"], chunks)
                    for r in derives + probes],
        "derive_s": [normalize(r["derive_s"], *r["derive_mono"], chunks) for r in derives],
        "verify_s": [normalize(statistics.median(r["verify_s"]), *r["verify_mono"], chunks)
                     for r in probes if "verify_s" in r],
        "peak_rss_mb": [r["peak_rss_mb"] for r in derives],
        "derive_cpu_s": [r["derive_s"] for r in derives],
        "derive_wall_s": [r["derive_wall_s"] for r in derives],
    }


def layer_metrics(res: dict) -> dict:
    """Per-layer figures of one traced child.

    Times and counters come from the derive call only, except those of
    verify's own functions (``reduce_mod_db``, ``from_json`` and
    ``verify_document``), which come from the verify call after it.
    """
    trace = res["trace"]
    spans, counters = trace["spans"], res["derive_counters"]
    window = tuple(res["derive_window"])
    s = summarize(spans, window)
    inc, selfs, tagged = s["inclusive"], s["self"], s["tagged"]
    after = summarize(spans, (window[1], math.inf))["inclusive"]
    derive_s = res["derive_s"]
    m = {
        "curves.puiseux_s": inc.get("curves.newton_puiseux_at_infinity", 0.0),
        "curves.winding_s": inc.get("curves.winding_vectors", 0.0),
        "curves.omega_s": inc.get("curves.omega_alg", 0.0),
        "curves.expansion_order": counters.get("curves.expansion_order", 0),
        "taucalc.build_s": inc.get("taucalc.TauModel.build", 0.0),
        "taucalc.tau_derivative_s": selfs.get("taucalc.TauModel.tau_t_derivative", 0.0),
        "taucalc.tau_derivative_calls": counters.get("taucalc.tau_derivative_calls", 0),
        "taucalc.time_multisets": counters.get("taucalc.time_multisets", 0),
        "taucalc.ladder_reduce_s": inc.get("taucalc.ladder_reduce", 0.0),
        "taucalc.schur_apply_s": inc.get("taucalc.TauModel.schur_apply", 0.0),
    }
    for w in range(4, 13):
        m["engine.layer_s.w%d" % w] = tagged.get(("engine.derive_at_weight", w), 0.0)
    rows = counters.get("engine.rows", 0)
    m.update({
        "engine.rows": rows,
        "engine.row_terms": counters.get("engine.row_terms", 0),
        "engine.plucker_s": inc.get("engine.plucker_relation", 0.0),
        "engine.closure_s": inc.get("engine.RelationDB.closure", 0.0),
        "engine.closure_rules": counters.get("engine.closure_rules", 0),
        "engine.collision_rows": counters.get("engine.collision_rows", 0),
        "engine.reduce_s": inc.get("engine.reduce_with_rules", 0.0),
        "engine.reduce_calls": counters.get("engine.reduce_calls", 0),
        "engine.rows_surviving_ratio": counters.get("engine.rows_surviving", 0) / rows if rows else 0.0,
        "engine.reduce_mod_db_s": after.get("engine.reduce_mod_db", 0.0),
        "engine.solve_s": inc.get("engine.linear_solve", 0.0),
        "engine.solve_pivots": counters.get("engine.solve_pivots", 0),
        "engine.residual_rows": counters.get("engine.residual_rows", 0),
        "engine.classify_s": inc.get("engine.classify", 0.0),
        "klein.extract_s": inc.get("klein.jacobi_inversion_extract", 0.0),
        "klein.relations": counters.get("klein.relations", 0),
        "document.to_json_s": inc.get("document.RelationDocument.to_json", 0.0),
        "document.from_json_s": after.get("document.RelationDocument.from_json", 0.0),
        "document.bytes": counters.get("document.bytes", 0),
        "cli.verify_document_s": after.get("cli.verify_document", 0.0),
        "cli.tau_model_s": inc.get("cli.cached_tau_model", 0.0),
        "cli.cache_bytes": res["cache_bytes"],
    })
    attributed = 0.0
    for mod in MODULES:
        m[mod + ".self_s"] = s["module_self"][mod]
        attributed += s["module_self"][mod]
    m["trace.unattributed_s"] = derive_s - attributed
    m["trace.attributed_ratio"] = attributed / derive_s
    m["trace.spans"] = s["spans"]
    m["_root_self_s"] = s["root_self"]
    m["_derive_s"] = derive_s
    m["_puiseux_by_order"] = {str(tag): t for (name, tag), t in sorted(tagged.items())
                              if name == "curves.newton_puiseux_at_infinity"}
    m["_missing"] = trace["missing"]
    return m


def run_traced(runner: Runner, rng: random.Random, seconds: float, warm: Path | None):
    plain, traced = [], []

    def pair():
        order = [False, True]
        rng.shuffle(order)
        for trace in order:
            res = runner.child("derive", cache_dir=_warm_copy(runner, warm), trace=trace)
            if res is None or res.get("failed"):
                continue
            (traced if trace else plain).append(res)

    _repeat(runner, seconds, pair)
    return plain, traced


def _median_metrics(rows: list[dict]) -> dict:
    return {k: statistics.median(r[k] for r in rows) for k in rows[0] if not k.startswith("_")}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        spec, table = _load()
        wl = {w["name"]: w for w in table["workloads"]}.get(args.workload)
        if wl is None:
            raise BenchError("unknown workload %r" % args.workload)
        return _run(args, spec, table, wl)
    except BenchError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 2


def _run(args, spec: dict, table: dict, wl: dict) -> int:
    if not (ROOT / wl["curve"]).is_file():
        raise BenchError("curve spec %s missing" % wl["curve"])
    rng = random.Random(args.seed)
    WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=WORK, prefix="run-"))
    started = time.monotonic()
    try:
        runner = Runner(wl, tmp, rng, started + DEADLINE_S)
        warm = _warm_cache(runner) if wl["cache"] == "warm" else None
        runner.child("setup", count=False)  # compiles bytecode; untimed
        with speed_probe(runner.cpu) as chunks:
            if args.trace:
                plain, traced = run_traced(runner, rng, args.seconds, warm)
            else:
                derives, probes = run_timed(runner, args.seconds, warm)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    print("environment: backend=%s cores=%s python=%s commit=%s"
          % (runner.backend, os.cpu_count(), platform.python_version(), _commit()))
    print("workload %s (seed %d, %s, %d children, %.1f s): %s"
          % (wl["name"], args.seed, "traced" if args.trace else "untraced",
             runner.attempted, time.monotonic() - started, wl["stresses"]))
    for why in runner.failures:
        print("FAILED %s" % why)
    failed = len(runner.failures)
    print("failure_rate %d/%d = %.4g ratio" % (failed, runner.attempted,
                                            failed / max(runner.attempted, 1)))
    probe_share = sum(c[2] for c in chunks) / (chunks[-1][1] - chunks[0][0])
    print("speed probe: %d chunks on cpu %d, mean %.4g ms (reference %.4g ms), "
          "%.3g of the core" % (len(chunks), runner.cpu, 1e3 * statistics.fmean(c[2] for c in chunks),
                                1e3 * REFERENCE_CHUNK_S, probe_share))
    if args.trace:
        metrics = _report_traced(spec, table, wl, plain, traced, chunks)
    else:
        metrics = _report_timed(spec, timed_samples(derives, probes, chunks), probe_share)
    if metrics is None:
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": runner.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def _report_timed(spec: dict, samples: dict, probe_share: float) -> dict | None:
    metrics = {}
    for m in spec["end_to_end"]:
        values = samples[m["name"]]
        if not values:
            print("no samples for %s" % m["name"])
            return None
        print("%-14s %s" % (m["name"], _tail(values, m["unit"])))
        metrics[m["name"]] = {"value": statistics.median(values), "unit": m["unit"]}
    walls, cpus = samples["derive_wall_s"], samples["derive_cpu_s"]
    print("%-14s %s (CPU seconds as measured, not a metric)" % ("derive_cpu_s", _tail(cpus, "s")))
    print("%-14s %s (wall clock, not a metric)" % ("derive_wall_s", _tail(walls, "s")))
    bound = {m["name"]: m["bound"] for m in spec["end_to_end"]}["derive_s"]
    # the probe shares the core, so it alone adds its share of the core to wall time
    if statistics.median(walls) > statistics.median(cpus) * (1 + probe_share + bound):
        print("WARNING median derive wall time exceeds its CPU time by more than the "
              "speed probe's share of the core (%.3g) and the derive_s bound (%g): time "
              "spent off the CPU is not in derive_s" % (probe_share, bound))
    return metrics


def _report_traced(spec, table, wl, plain, traced, chunks) -> dict | None:
    if not plain or not traced:
        print("no successful traced/untraced pair")
        return None
    layers = [layer_metrics(r) for r in traced]
    spans_file = WORK / ("spans-%s.json" % wl["name"])
    spans_file.write_text(json.dumps(traced[-1]["trace"]))
    print("spans of the last traced derive+verify written to %s" % spans_file.relative_to(ROOT))
    med = _median_metrics(layers)
    untraced_derive = statistics.median(normalize(r["derive_s"], *r["derive_mono"], chunks)
                                        for r in plain)
    traced_derive = statistics.median(normalize(r["derive_s"], *r["derive_mono"], chunks)
                                      for r in traced)
    med["tracing_overhead_s"] = traced_derive - untraced_derive
    if layers[0]["_missing"]:
        print("trace targets not found (reported as 0): %s" % ", ".join(layers[0]["_missing"]))
    print("traced derive_s %.6g s, untraced %.6g s, tracing overhead %.6g s "
          "(CPU seconds at the reference speed)"
          % (traced_derive, untraced_derive, med["tracing_overhead_s"]))
    print("module self time over traced derive (CPU seconds as measured, median %.6g s): "
          % statistics.median(r["_derive_s"] for r in layers)
          + ", ".join("%s %.4g s" % (mod, med[mod + ".self_s"]) for mod in MODULES)
          + ", unattributed %.4g s (%.4g s of it in cli.main's own frame; attributed %.1f %%)"
          % (med["trace.unattributed_s"], statistics.median(r["_root_self_s"] for r in layers),
             100 * med["trace.attributed_ratio"]))
    if med["trace.attributed_ratio"] < 0.9:
        print("WARNING module self times cover less than 90 % of traced derive_s")
    if wl["name"] == "g2-w10-both-cold":
        by_order = layers[0]["_puiseux_by_order"]
        print("baseline cross-check (ROADMAP, genus 2 W=10): Puiseux %.3g s measured "
              "vs %.3g s (per expansion order: %s), winding %.3g s vs %.3g s, "
              "omega table %.3g s vs %.3g s"
              % (med["curves.puiseux_s"], ROADMAP_BASELINE["puiseux"],
                 ", ".join("%s: %.3g s" % kv for kv in by_order.items()),
                 med["curves.winding_s"], ROADMAP_BASELINE["winding"],
                 med["curves.omega_s"], ROADMAP_BASELINE["omega"]))
    moves = {name: row["moves"] for row in table["layer_map"] for name in row["metrics"]}
    metrics = {}
    for m in spec["per_layer"]:
        value = med[m["name"]]
        print("%-30s %-12.6g %-6s -> %s" % (m["name"], value, m["unit"], moves.get(m["name"], "")))
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return metrics


if __name__ == "__main__":
    sys.exit(main())
