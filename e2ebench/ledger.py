"""The traced run: a per-layer ledger of where reproduction time goes.

Spans (name, start, end, parent) are recorded in memory around each
call into a layer's public function, named by the layer's module, and
Python's collector is watched through ``gc.callbacks``.  The same
probes run whatever ``--workload`` says, so every traced run reports
every per-layer metric; NOTES.md maps each one to the end-to-end
metric and workload it should move.  Nothing here changes the program
or its GC settings.
"""

from __future__ import annotations

import gc
import json
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path
from statistics import median
from time import perf_counter

import common
import workloads

#: Repeats of each small per-call probe (load, store, project, ...).
MICRO_REPEATS = 50
#: Sequential hits timed against the ledger's server.
HTTP_HITS = 200
#: Repeats of the supervised-vs-in-process single-job comparison.
BATCH_REPEATS = 3
#: Spans and collections timed to calibrate the tracing overhead.
CALIBRATION_CALLS = 2000


class Spans:
    """In-memory spans; a span's parent is the span open when it began."""

    def __init__(self) -> None:
        self.records: list[list] = []  # [name, start, end, parent index]
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.records)
        parent = self._open[-1] if self._open else None
        self.records.append([name, perf_counter(), None, parent])
        self._open.append(index)
        try:
            yield
        finally:
            self.records[index][2] = perf_counter()
            self._open.pop()

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _ in self.records if n == name]

    def self_times(self) -> dict[str, tuple[int, float, float]]:
        """name -> (count, total seconds, self seconds)."""
        child_time = [0.0] * len(self.records)
        for _, start, end, parent in self.records:
            if parent is not None:
                child_time[parent] += end - start
        table: dict[str, tuple[int, float, float]] = {}
        for i, (name, start, end, _) in enumerate(self.records):
            count, total, own = table.get(name, (0, 0.0, 0.0))
            duration = end - start
            table[name] = (count + 1, total + duration, own + duration - child_time[i])
        return table

    def attributed_time(self, stage_prefix: str) -> float:
        """Self time of every span except the stages named *stage_prefix*.

        The stages wrap the whole run, so what this leaves out is the
        benchmark's own bookkeeping between layer calls (digest checks,
        cache clears) and anything outside the stages.
        """
        return sum(
            own
            for name, (_, _, own) in self.self_times().items()
            if not name.startswith(stage_prefix)
        )


class GcWatch:
    """Collector pauses from ``gc.callbacks`` (installed only while traced)."""

    def __init__(self) -> None:
        self.pause_s = 0.0
        self.gen2 = 0
        self.events = 0
        self._started = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        self.events += 1
        if phase == "start":
            self._started = perf_counter()
        else:
            self.pause_s += perf_counter() - self._started
            self.gen2 += info["generation"] == 2


def _per_call(spans: Spans, name: str, fn, repeats: int = MICRO_REPEATS) -> float:
    """Median milliseconds of *fn* over *repeats* spans named *name*."""
    for _ in range(repeats):
        with spans.span(name):
            fn()
    return median(spans.durations(name)[-repeats:]) * 1000


def _calibrate() -> tuple[float, float]:
    """Seconds one span costs, and what one collection costs extra while
    a ``GcWatch`` is installed.

    The second is measured on real young-generation collections, with
    and without the watcher, so it includes the interpreter's cost of
    building the info dict and dispatching both callbacks.
    """
    probe = Spans()
    started = perf_counter()
    for _ in range(CALIBRATION_CALLS):
        with probe.span("calibration"):
            pass
    span_cost = (perf_counter() - started) / CALIBRATION_CALLS

    def collections() -> float:
        started = perf_counter()
        for _ in range(CALIBRATION_CALLS):
            gc.collect(0)
        return perf_counter() - started

    bare, watched = [], []
    for _ in range(5):
        bare.append(collections())
        gc.callbacks.append(GcWatch())
        try:
            watched.append(collections())
        finally:
            gc.callbacks.pop()
    extra = max(0.0, median(watched) - median(bare))
    return span_cost, extra / CALIBRATION_CALLS


#: The single-job probes' configuration: a 4-CPU serve_mix miss.
PROBE_CASE = {
    "trace": "pops",
    "scale": common.SERVE_SCALE,
    "l1": "16K",
    "l2": "256K",
    "kind": "vr",
}


class Ledger:
    """One traced pass over every layer; ``out`` collects the metrics."""

    def __init__(self, work: Path, tally: common.Tally) -> None:
        self.work = work
        self.tally = tally
        self.pins = common.load_pins()["cases"]
        self.spans = Spans()
        self.out: dict = {}
        self.traces: dict = {}
        self.serial_s = 0.0
        self.probe_result = None

    def check(self, result, case: dict, what: str) -> None:
        name = common.case_id(case)
        ok = result is not None and common.result_digest(result) == self.pins[name]
        self.tally.check(ok, f"{what}: {name}")

    def experiments(self) -> None:
        """Fresh interpreters importing the CLI module."""
        for _ in range(3):
            with self.spans.span("experiments.cli_import"):
                subprocess.run(
                    [sys.executable, "-c", "import repro.experiments.cli"],
                    env=common.child_env(),
                    cwd=self.work,
                    check=True,
                )
        self.out["experiments.cli_import_s"] = median(
            self.spans.durations("experiments.cli_import")
        )

    def trace(self) -> None:
        """Generate the three scale-0.1 traces."""
        from repro.experiments.base import clear_caches, trace_records
        from repro.trace.workloads import workload_names

        clear_caches()
        for name in workload_names():
            with self.spans.span(f"trace.generate.{name}"):
                self.traces[name] = trace_records(name, common.GRID_SCALE)
            seconds = self.spans.durations(f"trace.generate.{name}")[0]
            self.out[f"trace.generate_s.{name}"] = seconds
            self.serial_s += seconds
        records = sum(len(records) for records, _ in self.traces.values())
        self.out["trace.generate_refs_per_s"] = records / self.serial_s

    def engines(self) -> None:
        """Build and replay a ``Multiprocessor`` per Table 6 case, both engines."""
        from repro.hierarchy.config import HierarchyConfig, HierarchyKind
        from repro.system.multiprocessor import Multiprocessor
        from repro.trace.workloads import get_spec

        replayed = 0
        h_values = {}
        for case in common.grid_cases():
            records, layout = self.traces[case["trace"]]
            config = HierarchyConfig.sized(
                case["l1"], case["l2"], kind=HierarchyKind(case["kind"])
            )
            n_cpus = get_spec(case["trace"], case["scale"]).n_cpus
            for engine in ("soa", "object"):
                with self.spans.span(f"build.{engine}"):
                    machine = Multiprocessor(layout, n_cpus, config, engine=engine)
                with self.spans.span(f"replay.{engine}"):
                    result = machine.run(records)
                self.check(result, case, engine)
            # The object engine is the reference the pool runs serially.
            self.serial_s += self.spans.durations("build.object")[-1]
            self.serial_s += self.spans.durations("replay.object")[-1]
            h_values[common.case_id(case)] = (result.h1, result.h2)
            replayed += result.refs_processed
        for engine in ("soa", "object"):
            build = sum(self.spans.durations(f"build.{engine}"))
            replay = sum(self.spans.durations(f"replay.{engine}"))
            self.out[f"build.{engine}_s"] = build
            self.out[f"build.share.{engine}"] = build / (build + replay)
            self.out[f"replay.{engine}_refs_per_s"] = replayed / replay
        h1, h2 = workloads.model_error(h_values)
        self.out["model.h1_max_abs_err"] = h1
        self.out["model.h2_max_abs_err"] = h2
        self.traces.clear()

    def runner(self) -> None:
        """Plan and pool-run the grid on 2 workers; then one supervised job."""
        from repro.experiments.base import clear_caches, memo_get, simulate
        from repro.hierarchy.config import HierarchyKind
        from repro.runner import SimJob, SupervisorConfig, plan_jobs, run_jobs

        clear_caches()  # pool workers regenerate their traces, as in the CLI
        with self.spans.span("runner.plan_jobs"):
            planned = plan_jobs(["table6"], common.GRID_SCALE)
        with self.spans.span("runner.run_jobs"):
            run_jobs(planned, 2)
        for job in planned:
            self.check(memo_get(job.key()), common.job_case(job), "run_jobs")
        run_s = self.spans.durations("runner.run_jobs")[0]
        self.out["runner.plan_ms"] = self.spans.durations("runner.plan_jobs")[0] * 1000
        self.out["runner.run_jobs_s"] = run_s
        self.out["runner.parallel_efficiency"] = self.serial_s / (2 * run_s)

        job = SimJob(**dict(PROBE_CASE, kind=HierarchyKind(PROBE_CASE["kind"])))
        overheads = []
        for _ in range(BATCH_REPEATS):
            clear_caches()
            with self.spans.span("experiments.simulate"):
                simulate(job.trace, job.scale, job.l1, job.l2, job.kind)
            clear_caches()
            with self.spans.span("runner.run_jobs_supervised"):
                run_jobs([job], 1, supervisor=SupervisorConfig())
            overheads.append(
                self.spans.durations("runner.run_jobs_supervised")[-1]
                - self.spans.durations("experiments.simulate")[-1]
            )
        self.out["runner.batch_overhead_ms"] = median(overheads) * 1000
        self.probe_result = memo_get(job.key())
        self.check(self.probe_result, PROBE_CASE, "supervised run_jobs")

    def per_call(self) -> None:
        """Disk cache, metrics projection and the serve protocol, per call."""
        from repro.experiments.base import RunOptions, disk_key, simulation_key
        from repro.hierarchy.config import HierarchyKind
        from repro.runner import get_cache
        from repro.serve.protocol import parse_request, result_payload

        result = self.probe_result
        root = str(self.work / "ledger-cache")
        cache = get_cache(root)
        case = PROBE_CASE
        call = (case["trace"], case["scale"], case["l1"], case["l2"])
        key = disk_key(
            simulation_key(*call, HierarchyKind(case["kind"])),
            RunOptions(cache_dir=root),
        )
        self.out["runner.cache_store_ms"] = _per_call(
            self.spans, "runner.cache_store", lambda: cache.store(key, result)
        )
        self.out["runner.cache_load_ms"] = _per_call(
            self.spans, "runner.cache_load", lambda: cache.load(key)
        )
        self.check(cache.load(key), PROBE_CASE, "disk cache round trip")
        entries = list(Path(root).rglob("*.pkl"))
        self.out["runner.cache_entry_kb"] = (
            sum(p.stat().st_size for p in entries) / 1024
        )
        self.out["obs.project_ms"] = _per_call(
            self.spans, "obs.project", lambda: result.metrics().snapshot()
        )
        body = json.dumps(PROBE_CASE).encode()
        self.out["serve.parse_ms"] = _per_call(
            self.spans, "serve.parse", lambda: parse_request(body)
        )
        payload = {"result": result_payload(result)}
        self.out["serve.encode_ms"] = _per_call(
            self.spans, "serve.encode", lambda: json.dumps(payload, sort_keys=True)
        )

    def serve(self) -> None:
        """Sequential hits over HTTP, a coalescing pair, then /metricz."""
        with self.spans.span("serve.boot"):
            server = workloads.Server(self.work, "ledger-serve")
        try:
            with self.spans.span("serve.ready"):
                server.wait_ready()
            with self.spans.span("serve.miss"):
                workloads.simulate_request(
                    server.port, PROBE_CASE, self.pins, self.tally
                )
            for _ in range(HTTP_HITS):
                with self.spans.span("serve.hit"):
                    workloads.simulate_request(
                        server.port, PROBE_CASE, self.pins, self.tally
                    )
            with self.spans.span("serve.coalesced_pair"):
                workloads.in_clients(
                    lambda i: workloads.simulate_request(
                        server.port, PROBE_CASE, self.pins, self.tally, seed=7
                    )
                )
            counters = server.metricz()
        finally:
            with self.spans.span("serve.drain"):
                code = server.stop()
        self.tally.check(code == 0, f"ledger repro-serve drained with exit {code}")
        hit_ms = median(self.spans.durations("serve.hit")) * 1000
        self.out["serve.http_overhead_ms"] = hit_ms - (
            self.out["runner.cache_load_ms"]
            + self.out["obs.project_ms"]
            + self.out["serve.encode_ms"]
        )
        for metric, counter in (
            ("serve.cache_hits", "serve.cache_hit"),
            ("serve.executed", "serve.completed"),
            ("serve.coalesced", "serve.coalesced"),
            ("serve.shed", "serve.shed"),
        ):
            self.out[metric] = counters.get(counter, 0)


STAGES = ("experiments", "trace", "engines", "runner", "per_call", "serve")


def run(work: Path, tally: common.Tally) -> dict:
    """Run every ledger stage traced; returns the per-layer metrics."""
    from repro.experiments.base import RunOptions, clear_caches, set_run_options

    ledger = Ledger(work, tally)
    watch = GcWatch()
    previous = set_run_options(RunOptions(cache_dir=None))
    gc.callbacks.append(watch)
    started = perf_counter()
    try:
        for stage in STAGES:
            with ledger.spans.span(f"ledger.{stage}"):
                getattr(ledger, stage)()
    finally:
        gc.callbacks.remove(watch)
        set_run_options(previous)
        clear_caches()
    wall = perf_counter() - started

    out = ledger.out
    spans = ledger.spans
    out["py.gc_pause_s"] = watch.pause_s
    out["py.gc_share"] = watch.pause_s / wall
    out["py.gc_gen2"] = watch.gen2
    # An estimate: calibrated unit costs times the counts.  A traced-
    # minus-untraced wall-time difference would be a ~1 % effect read
    # against a run-to-run spread of 10 % or more.
    span_cost, collection_cost = _calibrate()
    out["tracing.overhead_pct"] = 100 * (
        len(spans.records) * span_cost + watch.events / 2 * collection_cost
    ) / wall
    out["tracing.coverage_pct"] = 100 * spans.attributed_time("ledger.") / wall
    print(f"ledger: {wall:.1f} s wall, {len(spans.records)} spans")
    print(f"  {'span':32} {'count':>5} {'total s':>9} {'self s':>9}")
    for name, (count, total, own) in sorted(spans.self_times().items()):
        print(f"  {name:32} {count:5d} {total:9.3f} {own:9.3f}")
    return out
