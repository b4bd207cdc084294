"""Per-opcode execution histogram (``count_opcodes``).

Counting is opt-in: it swaps in a slower per-instruction dispatch loop, so
it must be exact when enabled (totals equal ``vm.ops``) and completely
absent — no counters allocated, no metrics exported — when disabled.
"""

import pytest

from repro import CGPolicy, Runtime, RuntimeConfig, assemble
from repro.api import run as api_run
from repro.obs.events import Tracer, read_trace, summarize, write_trace
from repro.obs.metrics import collect_runtime_metrics

SOURCE = """
class Node
    field next

class Main

method Main.main(1)
    const 0
    store 1
loop:
    load 1
    load 0
    if_icmpge done
    new Node
    pop
    iinc 1 1
    goto loop
done:
    load 1
    retval
"""

DISPATCHES = ("table", "closure", "tiered")
ALL_DISPATCHES = ("table", "closure", "compiled", "tiered")


def counted_runtime(dispatch, count_opcodes=True, **config_kwargs):
    config = RuntimeConfig(
        heap_words=4096,
        cg=CGPolicy(paranoid=True),
        dispatch=dispatch,
        count_opcodes=count_opcodes,
        **config_kwargs,
    )
    return Runtime(config, program=assemble(SOURCE))


class TestHistogramTotals:
    @pytest.mark.parametrize("dispatch", DISPATCHES)
    def test_totals_equal_vm_ops(self, dispatch):
        rt = counted_runtime(dispatch)
        assert rt.run("Main.main", [25]) == 25
        hist = rt.interpreter.opcode_histogram()
        assert sum(hist.values()) == rt.ops
        assert sum(hist.values()) == rt.interpreter.instructions_executed
        # The loop shape is known: 25 allocations, 25 pops.
        assert hist["new"] == 25
        assert hist["pop"] == 25

    @pytest.mark.parametrize("dispatch", ALL_DISPATCHES)
    def test_histograms_identical_across_tiers(self, dispatch):
        # Batched ticks, then per-instruction ticks (periodic GC):
        # counting with per-op ticking is the path the shared
        # per-instruction loops own, and it must agree with the batched
        # table reference.
        reference = counted_runtime("table")
        reference.run("Main.main", [10])
        for ticks in ({}, {"gc_period_ops": 7}):
            rt = counted_runtime(dispatch, **ticks)
            rt.run("Main.main", [10])
            assert (rt.interpreter.opcode_histogram()
                    == reference.interpreter.opcode_histogram()), ticks
            assert rt.ops == reference.ops, ticks

    def test_disabled_means_no_counts(self):
        rt = counted_runtime("closure", count_opcodes=False)
        rt.run("Main.main", [5])
        assert rt.interpreter.op_counts is None
        assert rt.interpreter.opcode_histogram() == {}


class TestHistogramExport:
    def test_metrics_registry_gains_vm_op(self):
        rt = counted_runtime("closure")
        rt.run("Main.main", [8])
        reg = collect_runtime_metrics(rt)
        hist = reg.histograms["vm.op"]
        assert sum(hist.values()) == reg.counters["vm.ops"]

    def test_metrics_registry_clean_when_disabled(self):
        rt = counted_runtime("closure", count_opcodes=False)
        rt.run("Main.main", [8])
        reg = collect_runtime_metrics(rt)
        assert "vm.op" not in reg.histograms

    def test_api_run_carries_histogram(self):
        result = api_run("bc-list", 1, "cg", count_opcodes=True)
        hist = result.metrics["histograms"]["vm.op"]
        assert sum(hist.values()) == result.metrics["counters"]["vm.ops"]

    def test_api_run_default_has_no_histogram(self):
        result = api_run("bc-list", 1, "cg")
        assert "vm.op" not in result.metrics.get("histograms", {})

    def test_count_opcodes_excluded_from_fingerprint(self):
        plain = RuntimeConfig(cg=CGPolicy())
        counted = RuntimeConfig(cg=CGPolicy(), count_opcodes=True)
        assert plain.fingerprint() == counted.fingerprint()


class TestTraceSummaryExposure:
    def test_summary_renders_top_opcodes(self):
        summary = summarize([], complete=True,
                            op_hist={"load": 40, "add": 9, "goto": 12})
        assert summary.op_hist == {"load": 40, "add": 9, "goto": 12}
        rendered = summary.render()
        assert "top opcodes" in rendered
        assert "load=40" in rendered

    def test_summary_without_histogram_omits_line(self):
        assert "top opcodes" not in summarize([], complete=True).render()

    def test_trace_meta_round_trips_histogram(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        write_trace(path, Tracer(), op_hist={"const": 3, "retval": 1})
        meta, events = read_trace(path)
        assert meta["op_hist"] == {"const": 3, "retval": 1}
        assert events == []
