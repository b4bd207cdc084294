"""Deterministic cost model standing in for the paper's wall-clock timings.

The paper measured a modified JDK 1.1.8 on an UltraSparc-IIi; we cannot
reproduce those absolute seconds, but its *explanation* of them is explicit
(sections 4.5-4.6): CG pays "extra work at every store operation" and for
maintaining the equilive sets, and wins by "avoidance of the traditional
garbage collector ... primarily ... the marking phase".  The model charges
exactly those quantities:

* every mutator operation (instruction or direct-drive op) costs ``W_OP``;
* every tracing-collector mark visit costs ``W_MARK`` (deliberately the
  most expensive unit: marking touches cold objects and pollutes the
  cache — the paper's stated reason CG wins);
* sweep visits, free-list frees and allocation search steps cost their own
  (cheaper) units;
* CG maintenance: the paper's union-find finds/unions (counted by the
  equilive manager, whose blocks are member lists with back-pointers),
  store/areturn event handling, per-block pop splices, the wider handle
  initialisation at allocation, and recycle-list search steps.

The output is "simulated milliseconds" — meaningless absolutely, meaningful
as ratios, which is how every timing figure in the paper is read (its
"speedup" columns).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from ..jvm.runtime import Runtime

# Weights, in abstract work units.
W_OP = 1.0            # one interpreted operation
W_MARK = 8.0          # marking touches a cold object (cache pollution)
W_SWEEP = 1.0         # sweep scans a handle
W_FREE = 0.8          # free-list insertion (with coalescing)
W_ALLOC_STEP = 0.5    # one next-fit probe
W_UF = 0.15           # one union-find find/union (near-constant, hot cache)
W_CG_EVENT = 0.2      # store/areturn/putstatic event handling
W_CG_POP = 0.2        # per-block pop splice
W_CG_ALLOC = 0.6      # initialising the wider CG handle (sections 3.1/3.5)
W_RECYCLE_STEP = 0.3  # first-fit probe of the recycle list
W_BARRIER = 0.4       # generational/train write barrier
W_GC_CYCLE = 1500.0   # fixed pause per tracing cycle (stop threads, scan roots)

#: Work units per simulated millisecond (arbitrary but fixed).
UNITS_PER_MS = 1000.0


@dataclass(frozen=True)
class CostBreakdown:
    """Work units charged to each subsystem of a finished run."""

    mutator: float
    allocator: float
    tracing_gc: float
    cg_maintenance: float

    @property
    def total_units(self) -> float:
        return self.mutator + self.allocator + self.tracing_gc + self.cg_maintenance

    @property
    def total_ms(self) -> float:
        return self.total_units / UNITS_PER_MS


def cost_of(runtime: "Runtime") -> CostBreakdown:
    """Charge a finished runtime's counters against the weight table."""
    mutator = W_OP * runtime.ops

    free_list = runtime.heap.free_list
    allocator = (
        W_ALLOC_STEP * free_list.search_steps + W_FREE * free_list.frees
    )

    work = runtime.tracing.work
    tracing_gc = (
        W_MARK * work.mark_visits
        + W_SWEEP * work.sweep_visits
        + W_BARRIER * work.barrier_hits
        + W_GC_CYCLE * (work.cycles + work.minor_cycles)
    )

    cg = 0.0
    collector = runtime.collector
    if collector is not None:
        equilive = collector.equilive
        stats = collector.stats
        # Handle-width scaling: the 16-word handle costs its full unit, the
        # squeezed 8-word handle half (section 3.5's stated benefit).
        handle_factor = runtime.heap.handle_words / 16.0
        cg = (
            W_UF * (equilive.finds + equilive.unions)
            + W_CG_EVENT
            * (stats.store_events + stats.areturn_events + stats.putstatic_events)
            + W_CG_POP * (stats.blocks_collected + stats.frame_pops)
            + W_CG_ALLOC * handle_factor * stats.objects_created
            + W_RECYCLE_STEP * stats.recycle_search_steps
        )
    return CostBreakdown(
        mutator=mutator,
        allocator=allocator,
        tracing_gc=tracing_gc,
        cg_maintenance=cg,
    )
