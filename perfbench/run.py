"""Benchmark of the icrl decision procedures: time to a checked verdict.

Run from the repository root:

    python3 perfbench/run.py --workload prove-seq --seed 1 --seconds 30 --trace 0

The package is imported from `src/`.  The workload's items (a fixed
population, in the order the seed picks; see `gen.Presentation`) are given
to the package as text and run one at a time in this single-threaded
process, in passes until --seconds is used up.  Since the machine's speed
changes from second to second, times are measured in units of a fixed
speed probe, timed around and during every item, and reported at a fixed
reference speed; an interval timer stops an item that exceeds its limit
(see `Limiter`).  Every verdict is checked (see
`workloads.check_item`); a wrong one makes the run print
`"correct": false` and exit 1.  The design and its reasons are recorded
in `design.json`.

With `--trace 0` the last line of output holds the end-to-end metrics;
with `--trace 1` it holds the per-layer metrics of a traced pass, which
wraps the package's public functions from outside (see `tracing.py`).
Run `python3 -m pytest perfbench` for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# Times are reported at a fixed reference speed: an item's work (its time
# in units of the speed probe, see `Limiter`) times the probe's time in the
# fast state of the 2.1 GHz Xeon the benchmark was tuned on.
REFERENCE_PROBE_MS = 0.42
# An item is stopped once its time at the reference speed reaches this
# margin times its limit; whether it is decided within the limit is judged
# afterwards, on the median of its executions (see `item_times`).
LIMIT_MARGIN = 1.2
# Seconds between the speed probes taken while an item runs.
TICK_S = 0.02
# In the traced pass, items the untraced pass decided get this many times
# the limit, so the tracing overhead cannot turn them undecided.
TRACE_LIMIT_FACTOR = 10
# Fresh interpreters timed for setup_s before the first pass and after
# every pass, so that their median spans the whole run (the machine's
# speed drifts, and interpreters started within a second of each other all
# see the same state).
SETUP_FIRST = 5
SETUP_PER_PASS = 3
# String hashing is fixed for the run and its child interpreters: the
# package iterates over sets, and how long some items take depends on the
# hash order (one oracle-deep item is decided in 0.3 s under some hash
# seeds and runs past the limit under others).
HASH_SEED = "0"
# No item starts after this many seconds; the run must end within 180 s.
RUN_DEADLINE_S = 140.0
# Iterations of the speed probe.
PROBE_ITERATIONS = 3000

DECIDED, LIMIT, DEADLINE = "decided", "limit", "run_deadline"
# Outcomes that leave an item undecided without counting as a failure: the
# per-item limit, the run deadline, and the package's own normal-form cap.
UNDECIDED = (LIMIT, DEADLINE, "GnfSizeError")


class ItemLimit(BaseException):
    """Raised by the interval timer; a BaseException so that no handler in
    the package can swallow it."""


class Limiter:
    """Runs a call under a limit of work using SIGALRM (no threads).

    The machine's speed changes from one second to the next, by up to a
    factor of two, so neither the limit nor the reported time is wall-clock
    time.  A speed probe, a fixed piece of interpreter work of the kind the
    package does (dict stores, small strings), is timed right before a
    call, every TICK_S while it runs (from the timer signal; the probes'
    own time is left out of the call's) and right after it.  The call's
    work is the sum over the stretches between probes of each stretch's
    length divided by the mean of the probes at its ends: its time in units
    of the probe, which the state of the machine changes far less than its
    wall-clock time.  A call is stopped when its work times
    REFERENCE_PROBE_MS reaches its limit times LIMIT_MARGIN.
    """

    def __init__(self):
        self._armed = False
        signal.signal(signal.SIGALRM, self._on_alarm)

    @staticmethod
    def probe() -> float:
        """Milliseconds the speed probe takes now."""
        start = time.perf_counter()
        table = {}
        for i in range(PROBE_ITERATIONS):
            table[(i * 7919) % 1009] = str(i)
        return (time.perf_counter() - start) * 1000.0

    def _stretch(self, end: float, probe_ms: float):
        """Add the stretch from the last probe to `end` to the call's work."""
        self._work += (end - self._mark) * 1000.0 / ((self._last_probe + probe_ms) / 2.0)
        self._last_probe = probe_ms

    def _arm(self, probe_ms: float):
        """Set the timer for the next probe, or sooner if the budget runs
        out at the current speed."""
        left_ms = (self._budget - self._work) * probe_ms
        self._mark = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, max(min(TICK_S, left_ms / 1000.0), 1e-4))

    def _on_alarm(self, signum, frame):
        if not self._armed:
            return
        start = time.perf_counter()
        probe_ms = self.probe()
        self._stretch(start, probe_ms)
        if self._work >= self._budget:
            self._armed = False
            raise ItemLimit()
        self._paused += time.perf_counter() - start
        self._arm(probe_ms)

    def run(self, fn, limit_s: float) -> dict:
        """Call fn; return its status (DECIDED, LIMIT or an exception
        name), its wall time `ms` without the probes, and its `work`."""
        before = self.probe()
        self._budget = limit_s * 1000.0 * LIMIT_MARGIN / REFERENCE_PROBE_MS
        self._work, self._paused, self._last_probe = 0.0, 0.0, before
        status = DECIDED
        start = time.perf_counter()
        self._armed = True
        self._arm(before)
        try:
            fn()
        except ItemLimit:
            status = LIMIT
        except Exception as exc:  # counted by type; one item must not end the run
            status = type(exc).__name__
        finally:
            self._armed = False
            signal.setitimer(signal.ITIMER_REAL, 0)
        end = time.perf_counter()
        self._stretch(end, self.probe())
        ms = (end - start - self._paused) * 1000.0
        return {"status": status, "ms": ms, "work": self._work}


IMPORT_CMD = [sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]); import icrl", str(SRC)]


def time_import() -> float:
    """Seconds from starting a fresh interpreter until `import icrl` has
    finished and the interpreter has exited.  There is no timeout: with one,
    the wait polls, sleeping up to 50 ms at a time, and the time would
    include the sleeps."""
    start = time.perf_counter()
    subprocess.run(IMPORT_CMD, check=True)
    return time.perf_counter() - start


TIMINGS = ("ms", "work")


def outcome(rec: dict) -> dict:
    """A record without its timings: what every pass must reproduce."""
    return {k: v for k, v in rec.items() if k not in TIMINGS}


def run_pass(pkg, wl, items, limiter, limits, deadline, tracer=None, check=True) -> list[dict]:
    """Run every item once; return one record per item.

    Caches are cleared and garbage is collected before each item, or once
    at the start for a session workload (whose caches would make every
    collection long), always outside the timed part.  `limits` holds each
    item's limit in seconds (see `Limiter`).  Decided items are checked
    unless `check` is false.  With a tracer, each record also holds the
    (hits, misses) the item added to each package cache.
    """
    records = []
    for i, item in enumerate(items):
        if tracer is not None:
            tracer.item = i
        if i == 0 or not wl.session:
            pkg.clear_caches()
            if tracer is not None:
                tracer.mark(tracing.CLEAR)
        if time.perf_counter() > deadline:
            records.append({"status": DEADLINE, "ms": 0.0})
            continue
        before = pkg.cache_counts() if tracer is not None else None
        if i == 0 or not wl.session:
            gc.collect()
        out: dict = {}
        rec = limiter.run(lambda: workloads.run_item(pkg, item, out), limits[i])
        status = rec["status"]
        if before is not None:
            after = pkg.cache_counts()
            rec["caches"] = {k: (after[k][0] - h, after[k][1] - m) for k, (h, m) in before.items()}
        if status == DECIDED:
            rec.update(workloads.summarize(out))
            if check:
                workloads.check_item(pkg, item, out)
        records.append(rec)
    gc.freeze()  # the records live as long as the run
    return records


def harrell_davis(values, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: a weighted mean of the
    order statistics, the i-th weighted by the Beta((n+1)q, (n+1)(1-q))
    probability of [(i-1)/n, i/n].

    A single order statistic jumps between neighbours, and where the
    latencies are sparse (a steep tail, or between two groups of items) the
    neighbours are far apart; the weighted mean moves smoothly.
    """
    ordered = sorted(values)
    n = len(ordered)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    steps = 16  # midpoint rule inside each interval
    weights = []
    for i in range(n):
        w = 0.0
        for k in range(steps):
            x = (i + (k + 0.5) / steps) / n
            w += math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x))
        weights.append(w)
    total = sum(weights)
    return sum(w * v for w, v in zip(weights, ordered)) / total


def measure(pkg, wl, items, limiter, seconds: float, deadline: float, after_pass=lambda: None):
    """Time every item, then time the decided ones again while the run has
    time left.

    Returns, per item, the records of its decided executions (none for an
    item that was stopped or failed: it is not run again), the records of
    every execution, and the number of passes.  The first pass checks every
    verdict.  Later passes are not checked again; instead they must
    reproduce the first pass's verdicts, check results and counts.
    `after_pass` runs after every pass, outside the timed part.  The passes
    leave time within `seconds` for one more and a second besides, which
    the memory interpreter (`peak_memory_mib`) takes.  Except in a session
    workload, whose order decides what its caches hold, each later pass
    takes the items in a new order.
    """
    limits = [wl.limit_s] * len(items)
    start = time.perf_counter()
    first = run_pass(pkg, wl, items, limiter, limits, deadline)
    records = list(first)
    again = [i for i, r in enumerate(first) if r["status"] == DECIDED]
    after_pass()
    runs = [[r] if r["status"] == DECIDED else [] for r in first]
    passes = 1
    # the next pass's wall time, scaled from the first by the item time it repeats
    first_ms = [r["ms"] for r in first]
    share = sum(first_ms[i] for i in again) / sum(first_ms) if again else 0.0
    last = (time.perf_counter() - start) * share
    while (
        again
        and time.perf_counter() - start + 2 * last + 1.0 <= seconds
        and time.perf_counter() + last < deadline
    ):
        t0 = time.perf_counter()
        if not wl.session:
            random.Random(passes).shuffle(again)
        recs = run_pass(pkg, wl, [items[i] for i in again], limiter, limits, deadline, check=False)
        for i, r in zip(again, recs):
            if r["status"] == DECIDED:
                if outcome(r) != outcome(first[i]):
                    raise workloads.WrongVerdict(f"item {i} gave {r} after {first[i]}: not deterministic")
                runs[i].append(r)
        records += recs
        after_pass()
        passes, last = passes + 1, time.perf_counter() - t0
    return runs, records, passes


def item_times(runs: list[list[dict]]) -> list:
    """Each item's time in ms at the reference speed, or None: the median
    over its decided executions of their work (see `Limiter`) times
    REFERENCE_PROBE_MS."""
    return [statistics.median(r["work"] for r in rs) * REFERENCE_PROBE_MS if rs else None for rs in runs]


def end_to_end(times: list, setup_s: float, peak_rss_mib: float, limit_s: float) -> dict:
    """Latency percentiles over items (Harrell-Davis), decided items per
    second of item time, decided fraction, peak memory.

    `times` holds each item's time in ms, None for an item stopped or
    failed.  An item is decided if its time is within the limit; every
    other item counts as the limit, above every decided item.
    """
    limit_ms = limit_s * 1000.0
    decided = [t is not None and t <= limit_ms for t in times]
    ranked = [t if ok else limit_ms for t, ok in zip(times, decided)]
    values = {
        "setup_s": (setup_s, "s"),
        "latency_ms_p50": (harrell_davis(ranked, 0.5), "ms"),
        "latency_ms_p90": (harrell_davis(ranked, 0.9), "ms"),
        "throughput_per_s": (sum(decided) / (sum(ranked) / 1000.0), "items/s"),
        "decided_frac": (sum(decided) / len(times), "ratio"),
        "peak_rss_mib": (peak_rss_mib, "MiB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def rss_mib() -> float:
    """Peak resident memory of this process so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def peak_memory_mib(args, indices: list[int]) -> float:
    """Peak resident memory of a fresh interpreter that takes the given
    items of the run, and only those, through to their verdicts once, in
    order.  The run's own process also ran the items it stopped, and their
    memory depends on the moment they were stopped; the tail of the cold
    workloads is memory-heavy."""
    cmd = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0", "--memory-of"]
    proc = subprocess.run(cmd, input=json.dumps(indices), capture_output=True, text=True, check=True, timeout=150)
    return json.loads(proc.stdout.splitlines()[-1])["peak_rss_mib"]


def outcome_counts(records) -> dict:
    return dict(Counter(r["status"] for r in records))


def traced_run(pkg, wl, items, limiter, deadline) -> tuple[dict, list[str], list[dict]]:
    """An untraced pass and a traced pass over the same items.

    Returns the per-layer metrics, a list of mismatches (items the untraced
    pass decided whose traced verdict or counts differ), and the traced
    pass's records.  The metrics cover the items whose outcome does not
    depend on timing: those decided and those stopped by the package's
    normal-form cap.  The span file holds every item.
    """
    plain = run_pass(pkg, wl, items, limiter, [wl.limit_s] * len(items), deadline)
    limits = [wl.limit_s * (TRACE_LIMIT_FACTOR if r["status"] == DECIDED else 1) for r in plain]
    tracer = tracing.Tracer()
    tracer.install(pkg.modules)
    try:
        traced = run_pass(pkg, wl, items, limiter, limits, math.inf, tracer)
    finally:
        tracer.uninstall()
    mismatches = []
    plain_cost = traced_cost = 0.0  # work of the items, in units of the speed probe
    for i, (a, b) in enumerate(zip(plain, traced)):
        if a["status"] != DECIDED:
            continue
        b = dict(b)
        del b["caches"]
        if outcome(a) != outcome(b):
            mismatches.append(f"item {i}: untraced {a} traced {b}")
        else:
            plain_cost += a["work"]
            traced_cost += b["work"]
    keep = {i for i, r in enumerate(traced) if r["status"] in (DECIDED, "GnfSizeError")}
    caches: dict = {}
    for i in keep:
        for name, (h, m) in traced[i]["caches"].items():
            hits, misses = caches.get(name, (0, 0))
            caches[name] = (hits + h, misses + m)
    metrics = tracing.layer_metrics(tracer.spans, caches, [traced[i] for i in sorted(keep)], keep)
    metrics["bench.trace_overhead_frac"] = traced_cost / plain_cost - 1.0 if plain_cost else 0.0
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(OUT_DIR / f"spans-{wl.name}.jsonl")
    return metrics, mismatches, traced


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: run the items whose indices stdin lists once and print the peak memory
    ap.add_argument("--memory-of", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "icrl" / "__init__.py").is_file():
        print(f"error: the package source {SRC / 'icrl'} is missing", file=sys.stderr)
        return 2
    wall_start = time.perf_counter()
    deadline = wall_start + RUN_DEADLINE_S
    if not (args.trace or args.memory_of):
        subprocess.run(IMPORT_CMD, check=True, timeout=60)  # writes the bytecode caches
        setup_times = [time_import() for _ in range(SETUP_FIRST)]
    sys.path.insert(0, str(SRC))
    pkg = workloads.Package()
    wl = workloads.WORKLOADS[args.workload]
    items = wl.build(args.seed)
    limiter = Limiter()
    # Keep the benchmark's own objects out of the collector's way, so the
    # package's collections scan only what the package allocates.
    gc.collect()
    gc.freeze()
    info = {"workload": wl.name, "seed": args.seed, "limit_s": wl.limit_s}
    if args.memory_of:
        chosen = [items[i] for i in json.load(sys.stdin)]
        run_pass(pkg, wl, chosen, limiter, [wl.limit_s * TRACE_LIMIT_FACTOR] * len(chosen), math.inf, check=False)
        print(json.dumps({"peak_rss_mib": rss_mib()}))
        return 0

    try:
        if args.trace:
            items = items[: wl.trace_items]
            metrics, mismatches, records = traced_run(pkg, wl, items, limiter, deadline)
            attempted = len(records)
            if mismatches:
                print("traced run does not reproduce the untraced run:", *mismatches[:5], sep="\n  ", file=sys.stderr)
            correct = not mismatches
            result_metrics = {k: {"value": v, "unit": tracing.unit_of(k)} for k, v in metrics.items()}
        else:
            runs, records, passes = measure(
                pkg,
                wl,
                items,
                limiter,
                args.seconds,
                deadline,
                lambda: setup_times.extend(time_import() for _ in range(SETUP_PER_PASS)),
            )
            attempted = len(records)
            correct = True
            times = item_times(runs)
            decided = [i for i, t in enumerate(times) if t is not None and t <= wl.limit_s * 1000.0]
            peak = peak_memory_mib(args, decided)
            result_metrics = end_to_end(times, statistics.median(setup_times), peak, wl.limit_s)
            info.update(
                passes=passes,
                over_limit=sum(t is not None and t > wl.limit_s * 1000.0 for t in times),
            )
    except workloads.WrongVerdict as exc:
        print(f"wrong verdict: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1

    outcomes = outcome_counts(records)
    failed = sum(n for k, n in outcomes.items() if k != DECIDED and k not in UNDECIDED)
    info.update(
        items=len(items),
        input_sha256=gen.input_digest(it.text for it in items),
        outcomes=outcomes,
        wall_s=round(time.perf_counter() - wall_start, 3),
    )
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": result_metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # start over in this process with string hashing fixed
        os.execve(sys.executable, [sys.executable, __file__, *sys.argv[1:]], {**os.environ, "PYTHONHASHSEED": HASH_SEED})
    sys.exit(main())
