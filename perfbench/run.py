"""One benchmark for the TLC engine: XMark query suites and a service mix.

    python3 perfbench/run.py --workload let-count --seed 1 \\
        --seconds 28 --trace 0

``--workload`` is ``xmark-core``, ``let-count``, ``service-mix`` or
``all`` (each workload in its own child process).  The document is
XMark at factor 0.05 from ``--xmark-seed`` (20040613 by default);
``--seed`` seeds the request sequence of ``service-mix``, and the serial
workloads run the same passes for every seed.  ``--trace 0`` prints
the end-to-end metrics of an untraced run, ``--trace 1`` the per-layer
metrics of a traced run together with the tracing overhead.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; ``--record FILE`` also
appends it, tagged with workload, seed and trace flag, to a JSON-lines
file that ``perfbench/compare.py`` reads.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
from check import summarize, verdict  # noqa: E402
from queries import QUERIES, WORKLOADS  # noqa: E402
from xmark import generate_xml  # noqa: E402

FACTOR = 0.05
DEFAULT_SEED = 20040613
DOC = "auction.xml"
#: set-ups per run; setup_s is their median
SETUP_REPEATS = 5
#: closed-loop clients of service-mix, one per core of the reference box
CLIENTS = 2
#: operator classes whose tracer self-time is reported
OPERATORS = (
    "Aggregate", "Construct", "DuplicateElimination", "Filter", "Flatten",
    "Illuminate", "Join", "Project", "Select", "Shadow", "Sort",
    "TreeFilter",
)
#: Metrics counter -> per-layer metric name
COUNTERS = {
    "pages_read": "storage.pages_read",
    "buffer_hits": "storage.buffer_hits",
    "index_lookups": "storage.index_lookups",
    "index_entries_scanned": "storage.index_entries_scanned",
    "trees_built": "core.trees_built",
    "pattern_matches": "patterns.pattern_matches",
    "scan_cache_hits": "patterns.scan_cache_hits",
    "postings_reused": "patterns.postings_reused",
    "structural_joins": "physical.structural_joins",
    "nest_joins": "physical.nest_joins",
    "value_joins": "physical.value_joins",
    "sort_ops": "physical.sort_ops",
    "batch_ops": "columns.batch_ops",
    "batch_rows": "columns.batch_rows",
    "batch_fallbacks": "columns.batch_fallbacks",
}


def log(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# the engine, the document and the reference
# ---------------------------------------------------------------------------
def import_engine():
    """Put the checkout's ``src`` on the path, with default toggles."""
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no engine source at {src / 'repro'}")
    sys.path.insert(0, str(src))
    import repro

    return repro


def reference(seed: int, names: List[str]) -> Dict[str, dict]:
    """Reference summaries, computed in a child process."""
    completed = subprocess.run(
        [sys.executable, str(HERE / "reference.py"), "--factor", str(FACTOR),
         "--seed", str(seed), *names],
        capture_output=True, text=True, timeout=150, check=True,
    )
    return json.loads(completed.stdout)


class Verifier:
    """Checks outputs against the reference, once per distinct output."""

    def __init__(self, expected: Dict[str, dict]) -> None:
        self.expected = expected
        self._seen: Dict[tuple, list] = {}
        self._lock = threading.Lock()

    def record(self, query: str, xml: str) -> None:
        key = (query, hashlib.sha256(xml.encode()).hexdigest())
        with self._lock:
            entry = self._seen.get(key)
            if entry is None:
                self._seen[key] = [xml, 1]
            else:
                entry[1] += 1

    def mismatches(self) -> Tuple[int, int]:
        """Operations whose output differs from the reference: all of them,
        and those whose trees differ (not only their order)."""
        differ = wrong = 0
        for (query, _), (xml, count) in self._seen.items():
            kind = verdict(summarize(xml), self.expected[query])
            if kind == "same":
                continue
            log(f"{query}: output differs from the reference in {kind}")
            differ += count
            if kind == "content":
                wrong += count
        return differ, wrong


# ---------------------------------------------------------------------------
# process figures
# ---------------------------------------------------------------------------
def self_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def proc_cpu_s(pid: int) -> float:
    """User plus system CPU of a live process, from /proc."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except OSError:
        return 0.0
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def proc_peak_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of a live process, from /proc."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def self_peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# set-up and the measured loops
# ---------------------------------------------------------------------------
def settle() -> None:
    """One full collection, outside the timed regions, so each set-up, each
    serial query and each service loop starts from the same collector
    state; the collector is otherwise left as configured and its pauses
    stay in the figures."""
    layers.GcPauses.explicit = True
    try:
        gc.collect()
    finally:
        layers.GcPauses.explicit = False


def start_service(engine):
    """Process pool, primed, with one warm request per mix query."""
    from repro.service import QueryService

    service = QueryService(
        engine, mode="process", start_method="fork", threads=CLIENTS
    )
    pids = service.prime()
    names = WORKLOADS["service-mix"]
    for result in service.execute_many(
            [QUERIES[name] for name in names], optimize=True):
        result.to_xml()
    return service, pids


def set_up(repro, workload: str, text: str):
    """Load the document SETUP_REPEATS times; keep the last set-up."""
    times = []
    engine = service = pids = None
    for _ in range(SETUP_REPEATS):
        if service is not None:
            service.close()
        engine = service = None
        settle()
        started = time.perf_counter()
        engine = repro.Engine()
        engine.load_xml(DOC, text)
        if workload == "service-mix":
            service, pids = start_service(engine)
        times.append(time.perf_counter() - started)
    if service is None:
        # pay one-time imports before timing: compile every query once
        for name in WORKLOADS[workload]:
            engine.plan(QUERIES[name], optimize=True)
    return engine, service, pids or [], statistics.median(times)


class Window:
    """What one measured loop observed."""

    def __init__(self, names: List[str]) -> None:
        self.passes: List[float] = []
        self.latencies: Dict[str, List[float]] = {q: [] for q in names}
        self.attempted = 0
        self.failed = 0
        self.seconds = 0.0
        self.cpu_s = 0.0

    @property
    def completed(self) -> int:
        return sum(len(v) for v in self.latencies.values())


def serial_loop(engine, names: List[str], seconds: float,
                verifier: Verifier, trace: bool = False,
                on_result: Optional[Callable] = None) -> Window:
    """Whole passes over ``names`` until ``seconds`` of passes have run.

    Every query starts from a collected heap (see :func:`settle`), so the
    collections that land on it are the ones its own allocations set off,
    not the ones its predecessors left due.  A pass's time is the sum of
    its queries' times.
    """
    window = Window(names)
    while window.seconds < seconds:
        elapsed = 0.0
        for name in names:
            window.attempted += 1
            settle()
            cpu0 = self_cpu_s()
            started = time.perf_counter()
            try:
                result = engine.run(QUERIES[name], optimize=True, trace=trace)
                xml = result.to_xml()
            except Exception as exc:  # counted, reported, not fatal
                window.failed += 1
                log(f"{name} failed: {exc!r}")
                continue
            finally:
                took = time.perf_counter() - started
                window.cpu_s += self_cpu_s() - cpu0
                elapsed += took
            window.latencies[name].append(took)
            if on_result is not None:
                on_result(name, result, xml)
            verifier.record(name, xml)
            del result, xml
        window.passes.append(elapsed)
        window.seconds += elapsed
    return window


def service_loop(service, pids: List[int], seed: int, seconds: float,
                 verifier: Verifier,
                 on_result: Optional[Callable] = None) -> Window:
    """Closed loop: each client sends whole shuffled rounds of the mix."""
    names = WORKLOADS["service-mix"]
    window = Window(names)
    lock = threading.Lock()
    stop = threading.Event()

    def client(number: int) -> None:
        rng = random.Random(f"perfbench-{seed}-client-{number}")
        while not stop.is_set():
            order = list(names)
            rng.shuffle(order)
            round_started = time.perf_counter()
            for name in order:
                started = time.perf_counter()
                try:
                    xml = service.execute(QUERIES[name], optimize=True).to_xml()
                except Exception as exc:  # counted, reported, not fatal
                    with lock:
                        window.attempted += 1
                        window.failed += 1
                    log(f"{name} failed: {exc!r}")
                    continue
                elapsed = time.perf_counter() - started
                with lock:
                    window.attempted += 1
                    window.latencies[name].append(elapsed)
                if on_result is not None:
                    on_result(name, xml)
                verifier.record(name, xml)
            with lock:
                window.passes.append(time.perf_counter() - round_started)

    settle()
    cpu0 = self_cpu_s() + sum(proc_cpu_s(pid) for pid in pids)
    threads = [
        threading.Thread(target=client, args=(n,), name=f"client-{n}")
        for n in range(CLIENTS)
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    time.sleep(seconds)
    stop.set()
    for thread in threads:
        thread.join()
    window.seconds = time.perf_counter() - started
    window.cpu_s = self_cpu_s() + sum(proc_cpu_s(p) for p in pids) - cpu0
    return window


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------
def p95(values: List[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=20, method="inclusive")[18]


def headline(window: Window) -> Dict[str, float]:
    """pass_s, query_ms_geomean, queries_per_s and latency percentiles
    over every query completed."""
    medians = [statistics.median(v) for v in window.latencies.values() if v]
    every = [x for values in window.latencies.values() for x in values]
    return {
        "pass_s": statistics.median(window.passes),
        "query_ms_geomean": 1000.0 * math.exp(
            statistics.fmean(math.log(m) for m in medians)),
        "queries_per_s": window.completed / window.seconds,
        "req_p50_ms": 1000.0 * statistics.median(every),
        "req_p95_ms": 1000.0 * p95(every),
    }


E2E_UNITS = {
    "setup_s": "s", "pass_s": "s", "query_ms_geomean": "ms",
    "queries_per_s": "1/s", "req_p50_ms": "ms", "req_p95_ms": "ms",
    "cpu_ms_per_query": "ms", "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    if name == "trace.overhead_queries_per_s":
        return "1/s"
    if name.endswith("_s") or "_s." in name:
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_bytes"):
        return "B"
    return "count"


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------
def timed_run(repro, workload: str, seed: int, xmark_seed: int,
              seconds: float):
    names = WORKLOADS[workload]
    verifier = Verifier(reference(xmark_seed, names))
    text = generate_xml(FACTOR, xmark_seed)
    engine, service, pids, setup_s = set_up(repro, workload, text)
    try:
        if service is None:
            window = serial_loop(engine, names, seconds, verifier)
        else:
            window = service_loop(service, pids, seed, seconds, verifier)
        peak = max([self_peak_mb()] + [proc_peak_mb(p) for p in pids])
    finally:
        if service is not None:
            service.close()
    values = {"setup_s": setup_s}
    values.update(headline(window))
    values["cpu_ms_per_query"] = 1000.0 * window.cpu_s / window.completed
    values["peak_rss_mb"] = peak
    samples = f"n={window.completed}"
    notes = {"req_p50_ms": samples, "req_p95_ms": samples}
    metrics = {k: (values[k], E2E_UNITS[k]) for k in E2E_UNITS}
    return window, verifier, metrics, notes


def wrap_compile(timer: layers.CallTimer) -> None:
    import repro.rewrites.pipeline as pipeline
    import repro.xquery.parser as parser
    from repro.xquery.translator import TLCTranslator

    timer.wrap(parser, "parse_query", "xquery.parse")
    timer.wrap(TLCTranslator, "translate", "xquery.translate")
    timer.wrap(pipeline, "optimize_plan", "rewrites.optimize")


def planner_ms(engine, names: List[str]) -> float:
    """Mean time of plan_physical per query (the planner is off by default)."""
    from repro.planner import plan_physical

    stats = engine.cardinality_stats()
    total = 0.0
    for name in names:
        translation = engine.plan(QUERIES[name], optimize=True, planner=False)
        started = time.perf_counter()
        plan_physical(translation.plan, stats)
        total += time.perf_counter() - started
    return 1000.0 * total / len(names)


def self_seconds(result, into: Dict[str, float]) -> None:
    for record in result.trace.records:
        into[record.name] = into.get(record.name, 0.0) + record.self_seconds


class Traced:
    """What a traced run's two loops observed."""

    def __init__(self, plain: Window, traced: Window, passes: float,
                 counters: dict, pauses: layers.GcPauses) -> None:
        self.plain, self.traced, self.passes = plain, traced, passes
        self.counters, self.pauses = counters, pauses
        self.selfs: Dict[str, float] = {}
        self.self_passes = passes
        self.result_bytes = 0
        self.serialize_s = 0.0


def traced_serial(repro, engine, names, seconds, verifier, timer, values):
    """Untraced loop, then one under the tracer; fills the layer values."""
    from repro.model.sequence import TreeSequence

    plain = serial_loop(engine, names, seconds, verifier)
    timer.reset()
    timer.wrap(repro.Engine, "run_plan", "core.evaluate")
    timer.wrap(TreeSequence, "to_xml", "model.serialize")
    selfs: Dict[str, float] = {}
    result_bytes = [0]

    def on_result(name, result, xml):
        self_seconds(result, selfs)
        result_bytes[0] += len(xml.encode())

    before = engine.db.metrics.snapshot()
    with layers.GcPauses() as pauses:
        traced = serial_loop(engine, names, seconds, verifier, trace=True,
                             on_result=on_result)
    seen = Traced(plain, traced, len(traced.passes),
                  engine.db.metrics.diff(before), pauses)
    seen.selfs, seen.result_bytes = selfs, result_bytes[0]
    seen.serialize_s = timer.seconds["model.serialize"]
    for key in ("xquery.parse", "xquery.translate", "rewrites.optimize"):
        values[f"{key}_ms"] = timer.mean_ms(key)
    values["core.evaluate_s"] = timer.seconds["core.evaluate"] / seen.passes
    for key in layers.SPAN_PHASES:
        values[f"service.{key}"] = 0.0
    values["service.prepare_ms"] = 0.0
    values["service.plan_cache_hit_ratio"] = 0.0
    return seen


def traced_service(engine, service, pids, seed, seconds, verifier, timer,
                   values):
    """Untraced loop, then one with request spans; fills the layer values."""
    from repro.model.sequence import TreeSequence
    from repro.telemetry.spans import SpanStore

    names = WORKLOADS["service-mix"]
    # compiles happen in set-up's warm requests, not in the loop
    for key in ("xquery.parse", "xquery.translate", "rewrites.optimize"):
        values[f"{key}_ms"] = timer.mean_ms(key)
    plain = service_loop(service, pids, seed, seconds, verifier)
    timer.reset()
    timer.wrap(type(service), "prepare", "service.prepare")
    timer.wrap(TreeSequence, "to_xml", "model.serialize")
    result_bytes = [0]

    def on_result(name, xml):
        result_bytes[0] += len(xml.encode())

    service.spans = True
    service.span_store = SpanStore(capacity=1 << 20)
    before = engine.db.metrics.snapshot()
    with layers.GcPauses() as pauses:
        traced = service_loop(service, pids, seed, seconds, verifier,
                              on_result=on_result)
    # a service "pass" is one request of each mix query
    seen = Traced(plain, traced, traced.completed / len(names),
                  engine.db.metrics.diff(before), pauses)
    seen.result_bytes = result_bytes[0]
    seen.serialize_s = timer.seconds["model.serialize"]
    captures = service.span_store.tail(1 << 20)
    cache = service.cache.stats()
    values["service.prepare_ms"] = timer.mean_ms("service.prepare")
    values["service.plan_cache_hit_ratio"] = cache.hits / max(
        1, cache.hits + cache.misses)
    values.update(
        (f"service.{k}", v) for k, v in layers.span_medians(captures).items())
    values["core.evaluate_s"] = (
        layers.worker_execute_seconds(captures) / seen.passes)
    # the workers run untraced: operator self-times come from one traced
    # in-process pass over the mix
    for name in names:
        self_seconds(
            engine.run(QUERIES[name], optimize=True, trace=True), seen.selfs)
    seen.self_passes = 1
    return seen


def traced_run(repro, workload: str, seed: int, xmark_seed: int,
               seconds: float):
    """Per-layer metrics and the tracing overhead, on one set-up.

    The run's seconds are split between an untraced and a traced loop.
    """
    from repro.storage import database

    names = WORKLOADS[workload]
    verifier = Verifier(reference(xmark_seed, names))
    text = generate_xml(FACTOR, xmark_seed)
    values: Dict[str, float] = {}
    with layers.CallTimer() as timer:
        timer.wrap(database, "parse_xml", "storage.parse")
        timer.wrap(database.Database, "load_parsed", "storage.store")
        wrap_compile(timer)
        engine, service, pids, _ = set_up(repro, workload, text)
        serial = service is None
        for key in ("storage.parse", "storage.store"):
            values[f"{key}_s"] = timer.seconds[key] / SETUP_REPEATS
        if serial:
            seen = traced_serial(
                repro, engine, names, seconds / 2, verifier, timer, values)
        else:
            try:
                seen = traced_service(
                    engine, service, pids, seed, seconds / 2, verifier,
                    timer, values)
            finally:
                service.close()
    values["planner.plan_ms"] = planner_ms(engine, names)
    for counter, name in COUNTERS.items():
        values[name] = seen.counters[counter] / seen.passes
    ops, fallbacks = seen.counters["batch_ops"], seen.counters["batch_fallbacks"]
    values["columns.batch_ratio"] = (
        ops / (ops + fallbacks) if ops + fallbacks else 0.0)
    for op in OPERATORS:
        values[f"core.self_s.{op}"] = seen.selfs.get(op, 0.0) / seen.self_passes
    values["model.serialize_s"] = seen.serialize_s / seen.passes
    values["model.result_bytes"] = seen.result_bytes / seen.passes
    values["gc.gen2_collections"] = seen.pauses.collections / seen.passes
    values["gc.pause_s"] = seen.pauses.pause_s / seen.passes
    plain = headline(seen.plain)
    traced = headline(seen.traced)
    values["trace.overhead_pass_s"] = traced["pass_s"] - plain["pass_s"]
    values["trace.overhead_queries_per_s"] = (
        traced["queries_per_s"] - plain["queries_per_s"])
    window = Window(names)
    window.attempted = seen.plain.attempted + seen.traced.attempted
    window.failed = seen.plain.failed + seen.traced.failed
    metrics = {k: (values[k], layer_unit(k)) for k in sorted(values)}
    return window, verifier, metrics, {}


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------
def run_one(workload: str, seed: int, xmark_seed: int, seconds: float,
            trace: bool) -> dict:
    """One run.  Every output that differs from the reference counts as a
    failed operation.  ``correct`` is false when an output holds other
    trees than the reference's; one that holds the same trees in another
    order (the engine's known order fault, see README.md) leaves it true."""
    repro = import_engine()
    run = traced_run if trace else timed_run
    window, verifier, metrics, notes = run(
        repro, workload, seed, xmark_seed, seconds)
    differ, wrong = verifier.mismatches()
    failed = window.failed + differ
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{workload:12s} {name:34s} {value:14.6f} {unit}{note}")
    print(f"{workload:12s} attempted {window.attempted}, failed {failed} "
          f"({differ} outputs differ from the reference, {wrong} of them "
          f"in content)")
    return {
        "correct": wrong == 0,
        "attempted": window.attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="TLC engine benchmark (see perfbench/README.md)")
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1,
                        help="seed of the service-mix request sequence")
    parser.add_argument("--xmark-seed", type=int, default=DEFAULT_SEED,
                        help="seed of the XMark document generator")
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", metavar="FILE",
                        help="append the result as a JSON line to FILE")
    args = parser.parse_args(argv)
    if args.workload == "all":
        status = 0
        for workload in WORKLOADS:
            command = [sys.executable, __file__, "--workload", workload,
                       "--seed", str(args.seed),
                       "--xmark-seed", str(args.xmark_seed),
                       "--seconds", str(args.seconds),
                       "--trace", str(args.trace)]
            if args.record:
                command += ["--record", args.record]
            status = subprocess.run(command).returncode or status
        return status
    result = run_one(args.workload, args.seed, args.xmark_seed, args.seconds,
                     bool(args.trace))
    if args.record:
        Path(args.record).parent.mkdir(parents=True, exist_ok=True)
        with open(args.record, "a") as handle:
            handle.write(json.dumps({
                "workload": args.workload, "seed": args.seed,
                "xmark_seed": args.xmark_seed, "trace": args.trace,
                "result": result,
            }) + "\n")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
