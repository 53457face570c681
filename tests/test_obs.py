"""Tests for the observability layer: metrics, tracing, manifests.

Covers the metric namespace (every simulator counter maps to a dotted
name — nothing leaks into ``misc.*``), the bounded event tracer and
its JSONL sink, the trace-count == metric-count acceptance invariant,
worker-to-parent metrics merge determinism across ``--jobs`` settings,
and the guarantee that an attached-but-filtered tracer does not change
simulation results.
"""

import io
import json
import logging

import pytest

from repro.common.errors import ConfigurationError
from repro.experiments import RunOptions, clear_caches, simulate
from repro.experiments.cli import main
from repro.hierarchy.config import HierarchyKind
from repro.obs import get_tracer, set_tracer
from repro.obs.log import configure, get_logger
from repro.obs.manifest import FORMAT, RunManifest
from repro.obs.metrics import (
    HIERARCHY_METRIC_NAMES,
    MetricsRegistry,
    registry_from_result,
    validate_name,
)
from repro.obs.recorder import get_recorder
from repro.obs.tracing import CATEGORIES, EventTracer, parse_categories, read_jsonl

SCALE = 0.004  # matches test_experiments.py: seconds, not minutes


@pytest.fixture(autouse=True)
def _fresh_state():
    clear_caches()
    set_tracer(None)
    yield
    clear_caches()
    set_tracer(None)


class TestMetricNames:
    def test_validate_name_accepts_dotted(self):
        assert validate_name("l1.hit.instr") == "l1.hit.instr"
        assert validate_name("wb.swapped_push") == "wb.swapped_push"

    @pytest.mark.parametrize("bad", ["", "flat", "Upper.case", "l1.", ".l1", "a b.c"])
    def test_validate_name_rejects(self, bad):
        with pytest.raises(ConfigurationError):
            validate_name(bad)

    def test_hierarchy_map_targets_are_valid_names(self):
        for name in HIERARCHY_METRIC_NAMES.values():
            assert validate_name(name) == name


class TestRegistry:
    def test_counter_inc_and_total(self):
        reg = MetricsRegistry()
        reg.inc("l1.hit.instr", 3)
        reg.inc("l1.hit.data", 2)
        reg.inc("l1.miss.data")
        assert reg.value("l1.hit.instr") == 3
        assert reg.value("absent.metric") == 0
        assert reg.total(prefix="l1.hit.") == 5
        assert reg.total("l1.hit.instr", "l1.miss.data") == 4

    def test_kind_clash_rejected(self):
        reg = MetricsRegistry()
        reg.counter("a.b")
        with pytest.raises(ConfigurationError):
            reg.histogram("a.b")

    def test_merge_adds_counters_and_histograms(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.inc("l1.hit.data", 1)
        b.inc("l1.hit.data", 2)
        b.inc("l1.miss.data", 7)
        a.histogram("wb.interval").record(3)
        b.histogram("wb.interval").record(3)
        b.histogram("wb.interval").record(99)
        a.merge(b)
        assert a.value("l1.hit.data") == 3
        assert a.value("l1.miss.data") == 7
        hist = a.histogram("wb.interval").as_dict()
        assert hist["3"] == 2 and hist["10+"] == 1

    def test_snapshot_round_trip(self):
        reg = MetricsRegistry()
        reg.inc("l1.hit.data", 5)
        reg.histogram("wb.interval").record(2)
        reg.histogram("wb.interval").record(64)
        snap = reg.snapshot()
        back = MetricsRegistry.from_snapshot(snap)
        assert back.snapshot() == snap

    def test_snapshot_keys_sorted(self):
        reg = MetricsRegistry()
        reg.inc("z.last.one")
        reg.inc("a.first.one")
        counters = reg.snapshot()["counters"]
        assert list(counters) == sorted(counters)


class TestNamespaceCompleteness:
    def test_simulation_result_maps_without_misc(self):
        result = simulate("pops", SCALE, "1K", "8K", HierarchyKind.VR)
        reg = registry_from_result(result)
        names = reg.names()
        assert not [n for n in names if n.startswith("misc.")], names
        assert reg.value("sim.refs") == result.refs_processed
        assert reg.total(prefix="tlb.") > 0

    def test_per_cpu_view_excludes_global_metrics(self):
        result = simulate("pops", SCALE, "1K", "8K", HierarchyKind.VR)
        cpu0 = result.metrics(cpu=0)
        assert not cpu0.names(prefix="bus.")
        assert cpu0.value("sim.refs") == 0
        assert cpu0.total(prefix="l1.hit.") > 0

    def test_metrics_sum_matches_per_cpu_counters(self):
        result = simulate("pops", SCALE, "4K", "64K", HierarchyKind.VR)
        reg = result.metrics()
        raw_total = sum(
            stats.counters.as_dict().get("l1_hits_r", 0)
            for stats in result.per_cpu
        )
        assert reg.value("l1.hit.read") == raw_total


class TestEventTracer:
    def test_ring_buffer_bounded_counts_complete(self):
        tracer = EventTracer(capacity=4)
        for i in range(10):
            tracer.emit("synonym", "move", cpu=0, index=i)
        events = tracer.events()
        assert len(events) == 4
        assert [e.fields["index"] for e in events] == [6, 7, 8, 9]
        assert tracer.emitted == 10
        assert tracer.count("synonym", "move") == 10

    def test_category_filter(self):
        tracer = EventTracer(categories=frozenset({"synonym"}))
        assert tracer.wants("synonym") and not tracer.wants("writeback")
        tracer.emit("synonym", "move")
        tracer.emit("writeback", "push")
        assert tracer.emitted == 1
        assert tracer.count("writeback", "push") == 0

    def test_parse_categories(self):
        assert parse_categories("all") == CATEGORIES
        assert parse_categories("") == CATEGORIES
        assert parse_categories("synonym,inclusion") == frozenset(
            {"synonym", "inclusion"}
        )
        with pytest.raises(ConfigurationError):
            parse_categories("synonym,bogus")

    def test_jsonl_round_trip(self, tmp_path):
        tracer = EventTracer()
        tracer.emit("inclusion", "invalidate", cpu=1, pblock=42, dirty=True)
        tracer.emit("writeback", "push", cpu=0, pblock=7, swapped=False)
        path = tmp_path / "trace.jsonl"
        tracer.write_jsonl(path)
        records = read_jsonl(path)
        assert [r.name for r in records] == ["invalidate", "push"]
        assert records[0].fields == {"pblock": 42, "dirty": True}
        assert records[0].cpu == 1
        assert records[0].category == "inclusion"

    def test_sink_streams_every_event_past_capacity(self):
        sink = io.StringIO()
        tracer = EventTracer(capacity=2, sink=sink)
        for i in range(5):
            tracer.emit("guard", "violation", site=str(i))
        lines = [json.loads(line) for line in sink.getvalue().splitlines()]
        assert len(lines) == 5  # ring dropped 3, the sink kept all


class TestTracingInvariants:
    def test_attached_filtered_tracer_does_not_change_results(self):
        baseline = simulate("pops", SCALE, "1K", "8K", HierarchyKind.VR)
        clear_caches()
        # "fault" events never fire without an injector, so this tracer
        # is attached but silent — results must be bit-identical.
        set_tracer(EventTracer(categories=frozenset({"fault"})))
        traced = simulate("pops", SCALE, "1K", "8K", HierarchyKind.VR)
        assert get_tracer().emitted == 0
        traced_counts = [s.counters.as_dict() for s in traced.per_cpu]
        base_counts = [s.counters.as_dict() for s in baseline.per_cpu]
        assert traced_counts == base_counts
        assert traced.bus_transactions == baseline.bus_transactions

    def test_event_counts_equal_metric_counts(self):
        tracer = EventTracer()
        set_tracer(tracer)
        result = simulate("pops", SCALE, "1K", "8K", HierarchyKind.VR)
        reg = result.metrics()
        assert tracer.count("synonym", "move") == reg.value("r.synonym_move")
        assert tracer.count("synonym", "sameset") == reg.value("r.synonym_sameset")
        assert tracer.count("inclusion", "invalidate") == reg.value(
            "l1.inclusion.invalidate"
        )
        assert tracer.count("writeback", "push") == reg.value("wb.push")


class TestManifest:
    def test_round_trip(self, tmp_path):
        manifest = RunManifest.create(
            ["table6"],
            SCALE,
            options=RunOptions(),
            timings_s={"table6": 1.2},
            metrics={"counters": {}, "histograms": {}},
            trace={},
            simulations=3,
        )
        path = tmp_path / "run.manifest.json"
        manifest.write(path)
        loaded = RunManifest.load(path)
        assert loaded.experiments == ["table6"]
        assert loaded.schema_hash == manifest.schema_hash
        assert loaded.simulations == 3

    def test_load_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"format": "not-a-manifest"}))
        with pytest.raises(ValueError):
            RunManifest.load(path)

    def test_format_tag(self):
        manifest = RunManifest.create([], SCALE, options=RunOptions())
        assert manifest.to_dict()["format"] == FORMAT


class TestLogging:
    def test_configure_idempotent(self):
        first = configure("info")
        second = configure("debug")
        assert first is second
        marked = [
            h for h in first.handlers if getattr(h, "_repro_cli", False)
        ]
        assert len(marked) == 1
        assert first.level == logging.DEBUG

    def test_get_logger_namespaced(self):
        assert get_logger("cli").name == "repro.cli"
        assert get_logger("repro.faults").name == "repro.faults"


class TestCliIntegration:
    def test_jobs_merge_bit_equality(self, tmp_path):
        serial = tmp_path / "serial.json"
        parallel = tmp_path / "parallel.json"
        assert (
            main(
                ["table5", "--scale", str(SCALE), "--no-cache",
                 "--jobs", "1", "--metrics-out", str(serial)]
            )
            == 0
        )
        clear_caches()
        assert (
            main(
                ["table5", "--scale", str(SCALE), "--no-cache",
                 "--jobs", "4", "--metrics-out", str(parallel)]
            )
            == 0
        )
        assert serial.read_bytes() == parallel.read_bytes()

    def test_traced_run_writes_consistent_outputs(self, tmp_path):
        metrics_path = tmp_path / "m.json"
        code = main(
            ["table6", "--scale", str(SCALE), "--no-cache",
             "--trace=synonym,inclusion", "--metrics-out", str(metrics_path)]
        )
        assert code == 0
        trace_path = metrics_path.with_suffix(".trace.jsonl")
        manifest_path = metrics_path.with_suffix(".manifest.json")
        assert trace_path.is_file() and manifest_path.is_file()
        snapshot = json.loads(metrics_path.read_text())
        counters = snapshot["counters"]
        by_name = {}
        for record in read_jsonl(trace_path):
            key = (record.category, record.name)
            by_name[key] = by_name.get(key, 0) + 1
        assert by_name.get(("synonym", "move"), 0) == counters.get(
            "r.synonym_move", 0
        )
        assert by_name.get(("inclusion", "invalidate"), 0) == counters.get(
            "l1.inclusion.invalidate", 0
        )
        manifest = json.loads(manifest_path.read_text())
        assert manifest["metrics"] == snapshot
        assert manifest["trace"]["categories"] == ["inclusion", "synonym"]
        assert manifest["simulations"] == len(get_recorder())
        assert manifest["simulations"] > 0

    def test_unknown_trace_category_exits_2(self, capsys):
        assert main(["table5", "--trace=bogus"]) == 2
        assert "bogus" in capsys.readouterr().err
