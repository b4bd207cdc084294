"""Workloads, expected outputs and metric names of the benchmark.

Shared by the orchestrator (``run.py``, which never imports ``repro``)
and its workers (``worker.py``).  README.md records why each workload
was chosen and which end-to-end metric each layer should move.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

#: The seed the expected table below was recorded at.
DEFAULT_SEED = 2000

#: The two systems the paper compares: CG + mark-sweep backup (paper
#: default, tiered dispatch) and the unmodified mark-sweep-only base.
SYSTEMS = ("cg", "jdk")

#: Environment knobs that would silently change the program being timed
#: (dispatch tier, persistent codegen/result caches, heartbeat spool).
#: Workers never see them.
HYGIENE_ENV = ("REPRO_DISPATCH", "REPRO_CODEGEN_CACHE",
               "REPRO_RESULT_CACHE", "REPRO_SPOOL")


@dataclass(frozen=True)
class Program:
    """One timed ``RunRequest`` and the counters it must reproduce."""

    name: str
    size: Optional[int] = None
    requests: Optional[int] = None
    #: ``ops`` and ``objects_created`` at :data:`DEFAULT_SEED` — properties
    #: of the mutator program, identical under every system.
    expected_ops: int = 0
    expected_objects: int = 0
    #: Whether the counters depend on the seed.  For a seed-insensitive
    #: program the expected table is checked at every seed.
    seed_sensitive: bool = False

    def request_kwargs(self, warmup: bool = False) -> Dict:
        """``RunRequest`` keyword arguments for a timed or warm-up pass."""
        if self.requests is not None:
            return {"requests": WARMUP_REQUESTS if warmup else self.requests,
                    "params": {"pattern": "steady"}}
        return {"size": 1 if warmup else self.size}


#: Requests served by the server's cold warm-up pass.
WARMUP_REQUESTS = 150


@dataclass(frozen=True)
class Suite:
    name: str
    why: str
    programs: Tuple[Program, ...]

    @property
    def seed_sensitive(self) -> bool:
        return any(p.seed_sensitive for p in self.programs)

    @property
    def request_structured(self) -> bool:
        return any(p.requests is not None for p in self.programs)


SUITES: Dict[str, Suite] = {
    "spec": Suite(
        "spec",
        "SPEC-shaped Mutator programs at size 100: CG bookkeeping, heap "
        "and mark-sweep do the work; the interpreter and codegen do none",
        (
            Program("jess", size=100, expected_ops=4553378,
                    expected_objects=184819),
            Program("raytrace", size=100, expected_ops=2522043,
                    expected_objects=479394, seed_sensitive=True),
            Program("javac", size=100, expected_ops=3116338,
                    expected_objects=151869),
        ),
    ),
    "bytecode": Suite(
        "bytecode",
        "bytecode kernels at size 100: interpreter tiers and codegen do "
        "the work; CG does almost none, so a CG change must not move it",
        (
            Program("bc-arith", size=100, expected_ops=7600009,
                    expected_objects=0),
            Program("bc-loop", size=100, expected_ops=9306009,
                    expected_objects=0),
            Program("bc-calls", size=100, expected_ops=1847968,
                    expected_objects=410),
            Program("bc-list", size=100, expected_ops=2366009,
                    expected_objects=84000),
        ),
    ),
    "server": Suite(
        "server",
        "20000 steady-arrival requests in a closed loop with one caller: "
        "CG and mark-sweep per request, so p99 shows pauses and CG's tail",
        (
            Program("server", requests=20000, expected_ops=12707288,
                    expected_objects=101656, seed_sensitive=True),
        ),
    ),
}

#: ``(layer, extra metrics taken from RunResult)``.  Every layer also
#: reports ``self_s`` (exclusive time) and ``calls`` (span count).
LAYER_METRICS: Tuple[Tuple[str, Tuple[Tuple[str, str], ...]], ...] = (
    ("api", ()),
    ("workloads", ()),
    ("jvm.interpreter", ()),
    ("jvm.codegen", (("cache_hits", "count"), ("cache_misses", "count"))),
    ("jvm.runtime", ()),
    ("jvm.heap", (("search_steps", "count"),
                  ("search_steps_per_alloc", "steps/alloc"),
                  ("peak_live_words", "words"))),
    ("core.collector", (("store_events", "count"),
                        ("contaminations", "count"),
                        ("static_opt_hits", "count"),
                        ("frame_pops", "count"),
                        ("blocks_collected", "count"),
                        ("objects_popped", "count"),
                        ("popped_frac", "fraction"),
                        ("exact_frac", "fraction"))),
    ("core.equilive", ()),
    ("gc.marksweep", (("mark_visits", "count"), ("sweep_visits", "count"),
                      ("objects_collected", "count"),
                      ("collected_per_sweep_visit", "fraction"))),
)

#: Layers a system never enters (``jdk`` builds no CG collector).
SKIPPED_LAYERS = {"jdk": ("core.collector", "core.equilive")}


def per_layer_units(system: str) -> Dict[str, str]:
    """``{metric name: unit}`` of every per-layer metric of ``system``."""
    units = {}
    for layer, extras in LAYER_METRICS:
        if layer in SKIPPED_LAYERS.get(system, ()):
            continue
        units[f"{system}.{layer}.self_s"] = "s"
        units[f"{system}.{layer}.calls"] = "count"
        for metric, unit in extras:
            units[f"{system}.{layer}.{metric}"] = unit
    units[f"{system}.trace.overhead"] = "ratio"
    return units


def end_to_end_units() -> Dict[str, str]:
    """``{metric name: unit}`` of every end-to-end metric."""
    units = {"setup_s": "s"}
    for system in SYSTEMS:
        units[f"{system}.ops_per_s"] = "ops/s"
        units[f"{system}.req_p50_ms"] = "ms"
        units[f"{system}.req_p99_ms"] = "ms"
        units[f"{system}.peak_rss_mb"] = "MB"
    return units
