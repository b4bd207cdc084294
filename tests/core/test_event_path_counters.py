"""Golden counters for every CG variant on the collector's event path.

``bench --check`` gates only a few systems, but allocation, store,
``areturn`` and frame pop are shared by every CG variant, and some
branches are taken only by a few of them: the recycling pop path
(``cg-recycle*``), the section 3.6 reset pass through ``_merge``
(``cg-reset``), static-opt off (``cg-noopt``) and MSA lazy deletion.
Each cell here must reproduce, bit for bit, the counters recorded in
``event_path_counters.json``.  A change that moves one of them changes
the paper's numbers; regenerate the table only for a change that means
to.
"""

import dataclasses
import json
from pathlib import Path

import pytest

import repro
from repro import CGPolicy, UseAfterCollect
from repro.api import config_for
from repro.jvm.runtime import Runtime
from repro.workloads.base import get_workload

GOLDEN = json.loads(
    Path(__file__).with_name("event_path_counters.json").read_text()
)
WORKLOADS = ("jess", "raytrace", "javac", "db")


def _observe(result) -> dict:
    """The counters a cell is pinned on, in the table's JSON shape."""
    stats = dataclasses.asdict(result.cg_stats)
    for name, value in stats.items():
        counter = getattr(result.cg_stats, name)
        if hasattr(counter, "items"):
            stats[name] = {str(k): v for k, v in sorted(counter.items())}
    counters = result.metrics["counters"]
    return {
        "cg_stats": stats,
        "census": dict(result.census),
        "alloc_search_steps": result.alloc_search_steps,
        "alloc.frees": counters["alloc.frees"],
        "cg.uf_finds": counters["cg.uf_finds"],
        "cg.uf_unions": counters["cg.uf_unions"],
        "sim_ms": result.sim_ms,
    }


def test_table_covers_every_variant():
    systems = {cell.split("/")[1] for cell in GOLDEN}
    assert systems == {"cg", "cg-noopt", "cg-recycle", "cg-recycle-typed",
                       "cg-reset", "cg-segfit"}
    assert {cell.split("/")[0] for cell in GOLDEN} == set(WORKLOADS)
    # The rare branches this table exists to pin are really taken.
    stats = {cell: rec["cg_stats"] for cell, rec in GOLDEN.items()}
    assert stats["raytrace/cg-recycle"]["objects_recycled"] > 0
    assert stats["javac/cg-recycle"]["objects_recycled"] > 0
    assert all(stats[f"{w}/cg-reset"]["reset_passes"] > 0 for w in WORKLOADS)
    assert any(rec["collected_by_msa"] > 0 for rec in stats.values())


@pytest.mark.parametrize("cell", sorted(GOLDEN))
def test_counters_match_golden(cell):
    workload, system = cell.split("/")
    assert _observe(repro.run(workload, 1, system)) == GOLDEN[cell]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_paranoid_run_probes_and_never_uses_a_collected_object(
        workload, monkeypatch):
    probed = []
    original = Runtime._assert_unreachable

    def counting_probe(self, doomed):
        probed.append(len(doomed))
        original(self, doomed)

    monkeypatch.setattr(Runtime, "_assert_unreachable", counting_probe)
    config = config_for("cg", get_workload(workload).heap_words(1))
    config.cg = dataclasses.replace(config.cg, paranoid=True)
    try:
        result = repro.run(workload, 1, "cg", config=config)
    except UseAfterCollect as exc:  # pragma: no cover - the failure path
        pytest.fail(f"paranoid {workload} touched a collected object: {exc}")
    assert probed, "the reachability probe never fired"
    # Every block CG collected went past the probe first.
    assert len(probed) == result.cg_stats.blocks_collected
    assert sum(probed) == result.cg_stats.objects_popped
    # Paranoid checking observes; it never moves a counter.
    assert _observe(result)["cg_stats"] == GOLDEN[f"{workload}/cg"]["cg_stats"]
