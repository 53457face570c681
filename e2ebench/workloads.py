"""The two end-to-end workloads (see NOTES.md for why each exists, and
why a third, ``grid_cold``, was dropped).

Each workload function takes the parsed arguments, a private work
directory inside the checkout and a :class:`common.Tally`, prints its
own sample counts, and returns ``{metric name: value}`` for every
end-to-end metric in BENCHMARK.json:

* ``setup_s``: median wall time of the workload's set-up, repeated;
* ``cold_s``: median wall time of one operation that has to simulate;
* ``warm_s``: median wall time of one operation a cache answers;
* ``sim_refs_per_s``: simulated references per host second;
* ``peak_rss_mb``: peak resident set of the benchmark or any child.
"""

from __future__ import annotations

import http.client
import itertools
import json
import random
import signal
import subprocess
import threading
import time
from pathlib import Path
from statistics import fmean, median
from time import perf_counter

import common
from common import batch_means, percentile

#: Trace generations timed as sweep's set-up.
SWEEP_SETUP_REPEATS = 2
#: Passes over the 18 cases a sweep run makes at least.  A pass takes
#: 21-27 s; two of them span more than one of this host's slow or fast
#: spells, which last 10-20 s.
SWEEP_MIN_PASSES = 2
#: Disk-cache hits timed one by one after each sweep case (about
#: 15 ms in all).  Their median is the case's hit time: it drops the
#: hits a GC pause lands in.  Memo hits would be too small to time: at
#: about 2 us their speed depends on the interpreter's hash seed, by up
#: to 2x.
SWEEP_WARM_HITS = 200
#: Server boots (each with its precompute) timed as serve_mix's set-up.
SERVE_SETUP_REPEATS = 2
#: Closed-loop client connections (the box has two cores).
SERVE_CLIENTS = 2
#: Think time between one hit and the next.  It keeps the hit client,
#: the server and the miss worker within the box's two cores, so
#: latencies measure the service rather than CPU oversubscription.
HIT_THINK_S = 0.002
#: Consecutive hits whose mean latency is one warm_s sample (about 0.4 s).
HIT_BATCH = 100
#: Misses a serve_mix run makes at least: their median has ten
#: samples on each side.
MIN_MISSES = 2 * common.TAIL_SAMPLES


# -- sweep -------------------------------------------------------------------


def sweep(args, work: Path, tally: common.Tally) -> dict:
    """In-process ``simulate()`` over the 18 Table 6 cases on the SoA engine."""
    from repro.experiments.base import (
        RunOptions,
        clear_caches,
        disk_key,
        forget_memo,
        set_run_options,
        simulate,
        simulation_key,
        trace_records,
    )
    from repro.hierarchy.config import HierarchyKind
    from repro.runner import get_cache
    from repro.trace.workloads import workload_names

    pins = common.load_pins()["cases"]
    setup = []
    for _ in range(SWEEP_SETUP_REPEATS):
        clear_caches()
        started = perf_counter()
        for name in workload_names():
            trace_records(name, common.GRID_SCALE)
        setup.append(perf_counter() - started)

    cold_options = RunOptions(engine="soa", cache_dir=None)
    warm_options = RunOptions(engine="soa", cache_dir=str(work / "cache"))
    disk = get_cache(warm_options.cache_dir)
    rng = random.Random(args.seed)
    cases = common.grid_cases()
    passes: list[float] = []
    warm_passes: list[float] = []
    refs = 0
    h_values: dict[str, tuple[float, float]] = {}
    started = perf_counter()
    while (
        len(passes) < SWEEP_MIN_PASSES
        or perf_counter() - started < args.seconds
    ):
        order = cases[:]
        rng.shuffle(order)
        pass_s = 0.0
        pass_warm = []
        for case in order:
            call = (
                case["trace"],
                case["scale"],
                case["l1"],
                case["l2"],
                HierarchyKind(case["kind"]),
            )
            key = simulation_key(*call)
            set_run_options(cold_options)
            t0 = perf_counter()
            result = simulate(*call)
            pass_s += perf_counter() - t0
            forget_memo(key)
            refs += result.refs_processed
            name = common.case_id(case)
            tally.check(common.result_digest(result) == pins[name], f"{name}: digest")
            h_values[name] = (result.h1, result.h2)

            # Warm: the same call answered by the disk result cache.
            disk.store(disk_key(key, warm_options), result)
            set_run_options(warm_options)
            hits = []
            for _ in range(SWEEP_WARM_HITS):
                t0 = perf_counter()
                again = simulate(*call)
                hits.append(perf_counter() - t0)
                forget_memo(key)
            pass_warm.append(median(hits))
            tally.check(common.result_digest(again) == pins[name], f"{name}: disk hit")
        passes.append(pass_s)
        # The mean over the pass's cases, like the pass sum for cold_s,
        # weighs every case window alike.  A median over the windows
        # would land in whichever of the host's speed states held most
        # of them (see NOTES.md, Steadiness).
        warm_passes.append(fmean(pass_warm))
    print(
        f"sweep: {len(setup)} set-ups, {len(passes)} pass(es) of {len(cases)} cases, "
        f"{SWEEP_WARM_HITS} disk-cache hits per case"
    )
    print_model_error(h_values)
    return {
        "setup_s": median(setup),
        "cold_s": median(passes),
        "warm_s": median(warm_passes),
        "sim_refs_per_s": refs / sum(passes),
        "peak_rss_mb": common.peak_rss_mb(),
    }


def model_error(h_values: dict[str, tuple[float, float]]) -> tuple[float, float]:
    """Largest |simulated - paper| h1 and h2 over the paper's Table 6 cells."""
    paper = json.loads(common.PAPER_PATH.read_text(encoding="utf-8"))["table6"]
    errors: dict[str, list[float]] = {"h1": [], "h2": []}
    for cell, ratios in paper.items():
        h1, h2 = h_values[f"{cell}@{common.GRID_SCALE:g}"]
        errors["h1"].append(abs(h1 - ratios["h1"]))
        errors["h2"].append(abs(h2 - ratios["h2"]))
    return max(errors["h1"]), max(errors["h2"])


def print_model_error(h_values: dict[str, tuple[float, float]]) -> None:
    h1, h2 = model_error(h_values)
    print(
        f"model.h1_max_abs_err = {h1:.4f}  model.h2_max_abs_err = {h2:.4f}"
        "  (vs the paper's Table 6; only the shape is validated)"
    )


# -- serve_mix ---------------------------------------------------------------


class Server:
    """One ``repro-serve`` child with its defaults on a fresh cache root."""

    def __init__(self, work: Path, tag: str) -> None:
        self.port_file = work / f"{tag}.port"
        self.log = open(work / f"{tag}.log", "wb")
        argv = common.entry_argv(
            "repro.serve.server",
            "--port",
            "0",
            "--port-file",
            str(self.port_file),
            "--cache-dir",
            str(work / f"{tag}-cache"),
        )
        self.proc = subprocess.Popen(
            argv,
            cwd=work,
            env=common.child_env(),
            stdout=subprocess.DEVNULL,
            stderr=self.log,
        )
        self.port = 0

    def wait_ready(self, timeout_s: float = 60.0) -> None:
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"repro-serve exited with {self.proc.returncode}")
            text = self.port_file.read_text() if self.port_file.exists() else ""
            if text.endswith("\n"):
                self.port = int(text)
                if request(self.port, "GET", "/readyz")[0] == 200:
                    return
            time.sleep(0.01)
        raise RuntimeError("repro-serve did not become ready")

    def metricz(self) -> dict:
        return request(self.port, "GET", "/metricz")[1]["counters"]

    def stop(self) -> int:
        """SIGTERM (graceful drain), then wait; kills it if it hangs."""
        try:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGTERM)
            try:
                return self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
                return -9
        finally:
            self.log.close()


def request(port: int, method: str, path: str, body: dict | None = None):
    """One HTTP exchange; returns (status, decoded JSON body)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    try:
        data = json.dumps(body).encode() if body is not None else None
        conn.request(method, path, body=data)
        response = conn.getresponse()
        return response.status, json.loads(response.read() or b"null")
    finally:
        conn.close()


def simulate_request(port: int, case: dict, pins: dict, tally, seed: int = 0):
    """POST one configuration and check the answer against its pin.

    Returns (latency seconds, refs simulated).
    """
    body = dict(case, seed=seed) if seed else case
    started = perf_counter()
    status, payload = request(port, "POST", "/simulate", body)
    latency = perf_counter() - started
    name = common.case_id(case)
    ok = status == 200 and common.digest(payload["result"]) == pins[name]
    tally.check(ok, f"{name} seed {seed}: HTTP {status}")
    return latency, payload["result"]["refs_processed"] if ok else 0


def in_clients(worker, count: int = SERVE_CLIENTS) -> None:
    """Run ``worker(i)`` on *count* client threads; re-raise the first error."""
    errors: list[BaseException] = []

    def guarded(i: int) -> None:
        try:
            worker(i)
        except Exception as exc:  # handed to the main thread below
            errors.append(exc)

    threads = [threading.Thread(target=guarded, args=(i,)) for i in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


def precompute(port: int, cases: list[dict], pins: dict, tally) -> None:
    """Compute every configuration once, over two client connections."""

    def worker(i: int) -> None:
        for case in cases[i::SERVE_CLIENTS]:
            simulate_request(port, case, pins, tally)

    in_clients(worker)


def serve_mix(args, work: Path, tally: common.Tally) -> dict:
    """A closed loop of hits and a trickle of misses against repro-serve."""
    pins = common.load_pins()["cases"]
    cases = common.serve_cases()
    setup = []
    servers: list[Server] = []
    try:
        for attempt in range(SERVE_SETUP_REPEATS):
            if servers:
                servers[-1].stop()
            started = perf_counter()
            servers.append(Server(work, f"serve{attempt}"))
            servers[-1].wait_ready()
            precompute(servers[-1].port, cases, pins, tally)
            setup.append(perf_counter() - started)
        hits, misses, elapsed, counters = _mix(args, servers[-1], cases, pins, tally)
    finally:
        code = servers[-1].stop() if servers else 0
    tally.check(code == 0, f"repro-serve drained with exit {code}")
    hit_ms = [s * 1000 for s in hits]
    miss_ms = [s * 1000 for s, _ in misses]
    print(
        f"serve_mix: {len(setup)} set-ups, "
        f"{len(hits)} hits ({len(hits) // HIT_BATCH} batches), "
        f"{len(misses)} misses in {elapsed:.1f} s"
    )
    for label, values in (("hit", hit_ms), ("miss", miss_ms)):
        tails = [
            f"p{round(q * 100)} = {value:.3f} ms"
            for q in (0.5, 0.9, 0.99)
            if (value := percentile(values, q)) is not None
        ]
        print(f"  {label} (n = {len(values)}): " + ", ".join(tails))
    print(f"  req_per_s = {(len(hits) + len(misses)) / elapsed:.2f}")
    print("  /metricz: " + json.dumps({k: v for k, v in counters.items() if v}))
    return {
        "setup_s": median(setup),
        "cold_s": median([s for s, _ in misses]),
        "warm_s": median(batch_means(hits, HIT_BATCH)),
        "sim_refs_per_s": median([refs / s for s, refs in misses]),
        "peak_rss_mb": common.peak_rss_mb(),
    }


def _mix(args, server: Server, cases: list[dict], pins: dict, tally):
    """The measured window: one miss client beside one hit client.

    Returns (hit latencies, (miss latency, refs) pairs, window seconds,
    the server's /metricz counters).
    """
    # Misses repeat the 4-CPU 16K/256K configurations, so they cost alike
    # and their median does not depend on which configurations it spans.
    miss_cases = [c for c in cases if c["trace"] != "abaqus" and c["l1"] == "16K"]
    rng = random.Random(args.seed)
    seeds = itertools.count(rng.randrange(1, 1 << 20))
    hits: list[float] = []
    misses: list[tuple[float, int]] = []
    misses_done = threading.Event()
    started = perf_counter()

    def cycles(pool: list[dict], local: random.Random):
        """Every configuration of *pool* once per cycle, in a seeded order."""
        while True:
            order = pool[:]
            local.shuffle(order)
            yield order

    def miss_client() -> None:
        # Whole cycles only, so every run's misses cover the same configs.
        try:
            for order in cycles(miss_cases, random.Random(rng.random())):
                enough = len(misses) >= MIN_MISSES
                if enough and perf_counter() - started >= args.seconds:
                    return
                for case in order:
                    misses.append(
                        simulate_request(server.port, case, pins, tally, next(seeds))
                    )
        finally:
            misses_done.set()

    def hit_client() -> None:
        for order in cycles(cases, random.Random(rng.random())):
            for case in order:
                if misses_done.is_set():
                    return
                hits.append(simulate_request(server.port, case, pins, tally)[0])
                time.sleep(HIT_THINK_S)

    in_clients(lambda i: (miss_client, hit_client)[i]())
    elapsed = perf_counter() - started
    return hits, misses, elapsed, server.metricz()


WORKLOADS = {"sweep": sweep, "serve_mix": serve_mix}
