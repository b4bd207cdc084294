"""One benchmark process: set-up timing, or the passes of one system.

Run by ``run.py`` with ``src`` on ``PYTHONPATH``; prints one JSON object
per line on stdout, the report last.  Roles:

* ``setup``   — import ``repro``, resolve the workload's programs and run
  one cold warm-up pass per system; report the elapsed time.
* ``measure`` — warm up, then run one untraced pass over the workload's
  programs under one system per ``pass`` line on stdin, answering each
  with a JSON line, until ``done``.  ``run.py`` alternates the two
  systems' workers pass by pass.  The process runs nothing else, so its
  peak RSS is that system's.
* ``trace``   — warm up, run one untraced and one traced pass, check
  that their counters agree and report the per-layer ledger.
"""

from __future__ import annotations

from time import perf_counter

_STARTED = perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from array import array  # noqa: E402
from dataclasses import asdict  # noqa: E402

from suite import LAYER_METRICS, SUITES, SYSTEMS, Suite  # noqa: E402

#: Where traced runs write their spans, relative to the checkout root.
OUT_DIR = ".perfbench_out"


def _requests(api, suite: Suite, system: str, seed: int,
              warmup: bool = False):
    return [api.RunRequest(workload=p.name, system=system, seed=seed,
                           **p.request_kwargs(warmup=warmup))
            for p in suite.programs]


def _warm_up(api, suite: Suite, system: str, seed: int) -> None:
    """One cold pass: in-memory codegen cache cleared, small sizes."""
    from repro.jvm.compiledcode import clear_codegen_caches

    clear_codegen_caches()
    for request in _requests(api, suite, system, seed, warmup=True):
        api.execute(request)


def _counters(result) -> dict:
    """Everything a run computes that tracing must leave unchanged."""
    cg_stats = None
    if result.cg_stats is not None:
        cg_stats = {k: (dict(v) if isinstance(v, dict) else v)
                    for k, v in asdict(result.cg_stats).items()}
    return {
        "ops": result.ops,
        "objects_created": result.objects_created,
        "census": dict(result.census),
        "alloc_search_steps": result.alloc_search_steps,
        "peak_live_words": result.peak_live_words,
        "gc_work": asdict(result.gc_work),
        "cg_stats": cg_stats,
    }


def _timed_pass(api, suite: Suite, requests, latency) -> list:
    """Run every program once; one record per ``execute()`` call.

    ``latency`` collects per-request seconds: one sample per
    ``Srv.handle`` invoke on ``server``, and on the batch workloads one
    per pass, the time to execute the whole batch of programs.
    """
    runs = []
    for program, request in zip(suite.programs, requests):
        # The previous run's runtime is cyclic garbage; reclaim it here
        # so no run pays for another's.
        gc.collect()
        before = len(latency)
        started = perf_counter()
        try:
            result = api.execute(request)
        except Exception:  # a failed run is counted, not fatal
            runs.append({"program": program.name,
                         "error": traceback.format_exc(limit=3),
                         "wall_s": perf_counter() - started,
                         "requests": program.requests or 0})
            continue
        wall = perf_counter() - started
        served = len(latency) - before
        runs.append({
            "program": program.name, "error": None, "wall_s": wall,
            "sim_ms": result.sim_ms, "requests": program.requests or 0,
            "served": served, "counters": _counters(result),
            "result": result,
        })
    if not suite.request_structured:
        latency.append(sum(run["wall_s"] for run in runs))
    return runs


def _emit(out, report: dict) -> None:
    out.write(json.dumps(report) + "\n")
    out.flush()


def _serve(api, suite: Suite, system: str, seed: int, out) -> dict:
    """One timed pass per ``pass`` line on stdin, until ``done``.

    Each pass is answered with its run records.  The report covers every
    pass: latency percentiles over all samples and the peak RSS.
    """
    from ledger import request_timer

    requests = _requests(api, suite, system, seed)
    # Compact float storage: the samples must not dominate RSS.
    latency = array("d")
    with request_timer(latency):
        for line in sys.stdin:
            if line.strip() != "pass":
                break
            _emit(out, {"runs": _strip(_timed_pass(api, suite, requests,
                                                   latency))})
    # Read before the percentiles copy the samples.
    return {"peak_rss_mb": _peak_rss_mb(), **_percentiles(latency)}


def _peak_rss_mb() -> float:
    """This process's peak resident set since it was exec'd.

    ``ru_maxrss`` would not do: Linux carries it across ``execve``, so it
    starts at the RSS of ``run.py``, the process this one was forked from.
    """
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def _percentiles(samples) -> dict:
    ms = [s * 1000.0 for s in samples]
    if len(ms) < 2:
        p50 = p99 = ms[0] if ms else 0.0
    else:
        p50 = statistics.median(ms)
        p99 = statistics.quantiles(ms, n=100, method="inclusive")[98]
    return {"req_p50_ms": p50, "req_p99_ms": p99, "req_samples": len(ms)}


def _strip(runs: list) -> list:
    """The JSON-safe part of each run record the orchestrator checks."""
    sent = []
    for run in runs:
        run = {k: v for k, v in run.items() if k != "result"}
        if "counters" in run:
            run["counters"] = {k: run["counters"][k] for k in
                               ("ops", "objects_created", "census")}
        sent.append(run)
    return sent


def _layer_metrics(system: str, ledger, runs: list) -> dict:
    """The per-layer metrics of one traced pass."""
    ok = [run["result"] for run in runs if run["error"] is None]
    metrics = {}
    for layer, _ in LAYER_METRICS:
        metrics[f"{system}.{layer}.self_s"] = ledger.self_s.get(layer, 0.0)
        metrics[f"{system}.{layer}.calls"] = ledger.calls.get(layer, 0)

    def counter(result, name):
        return result.metrics.get("counters", {}).get(name, 0)

    misses = sum(counter(r, "vm.compile.codegenned") for r in ok)
    compiles = sum(1 for span in ledger.spans
                   if span[3] == "jvm.codegen:compile_method_py")
    metrics[f"{system}.jvm.codegen.cache_misses"] = misses
    metrics[f"{system}.jvm.codegen.cache_hits"] = (
        compiles - misses + ledger.cached_adoptions)

    steps = sum(r.alloc_search_steps for r in ok)
    allocs = sum(counter(r, "alloc.allocs") for r in ok)
    metrics[f"{system}.jvm.heap.search_steps"] = steps
    metrics[f"{system}.jvm.heap.search_steps_per_alloc"] = (
        steps / allocs if allocs else 0.0)
    metrics[f"{system}.jvm.heap.peak_live_words"] = max(
        (r.peak_live_words for r in ok), default=0)

    stats = [r.cg_stats for r in ok if r.cg_stats is not None]
    created = sum(s.objects_created for s in stats)
    for name in ("store_events", "contaminations", "static_opt_hits",
                 "frame_pops", "blocks_collected", "objects_popped"):
        metrics[f"{system}.core.collector.{name}"] = sum(
            getattr(s, name) for s in stats)
    metrics[f"{system}.core.collector.popped_frac"] = (
        sum(s.objects_popped for s in stats) / created if created else 0.0)
    metrics[f"{system}.core.collector.exact_frac"] = (
        sum(s.exact_objects for s in stats) / created if created else 0.0)

    work = [r.gc_work for r in ok]
    sweeps = sum(w.sweep_visits for w in work)
    collected = sum(w.objects_collected for w in work)
    metrics[f"{system}.gc.marksweep.mark_visits"] = sum(
        w.mark_visits for w in work)
    metrics[f"{system}.gc.marksweep.sweep_visits"] = sweeps
    metrics[f"{system}.gc.marksweep.objects_collected"] = collected
    metrics[f"{system}.gc.marksweep.collected_per_sweep_visit"] = (
        collected / sweeps if sweeps else 0.0)
    return metrics


def _trace(api, suite: Suite, system: str, seed: int) -> dict:
    from ledger import Ledger, installed, request_timer
    from repro.workloads.base import REGISTRY

    requests = _requests(api, suite, system, seed)
    untraced_latency: list = []
    with request_timer(untraced_latency):
        untraced = _timed_pass(api, suite, requests, untraced_latency)
    ledger = Ledger()
    classes = [REGISTRY[p.name] for p in suite.programs]
    traced_latency: list = []
    with installed(ledger, classes), request_timer(traced_latency):
        traced = _timed_pass(api, suite, requests, traced_latency)

    mismatches = [
        a["program"] for a, b in zip(untraced, traced)
        if a["error"] is None and b["error"] is None
        and a["counters"] != b["counters"]
    ]
    untraced_s = sum(run["wall_s"] for run in untraced)
    traced_s = sum(run["wall_s"] for run in traced)
    ledger_s = sum(ledger.self_s.values())
    root_s = ledger.root_seconds()
    metrics = _layer_metrics(system, ledger, traced)
    metrics[f"{system}.trace.overhead"] = traced_s / untraced_s

    os.makedirs(OUT_DIR, exist_ok=True)
    spans_path = os.path.join(
        OUT_DIR, f"spans-{suite.name}-{system}-seed{seed}.jsonl")
    ledger.write_spans(spans_path, {"workload": suite.name,
                                    "system": system, "seed": seed})
    return {
        "runs": _strip(untraced) + _strip(traced),
        "counter_mismatches": mismatches,
        "untraced_s": untraced_s, "traced_s": traced_s,
        "ledger_s": ledger_s, "root_s": root_s,
        "spans": len(ledger.spans), "spans_path": spans_path,
        "layer_metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--role", choices=("setup", "measure", "trace"),
                        required=True)
    parser.add_argument("--workload", choices=sorted(SUITES), required=True)
    parser.add_argument("--system", choices=SYSTEMS)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    suite = SUITES[args.workload]

    from repro import api

    if args.role == "setup":
        for system in SYSTEMS:
            for request in _requests(api, suite, system, args.seed):
                request.resolve_workload()
        for system in SYSTEMS:
            _warm_up(api, suite, system, args.seed)
        _emit(sys.stdout, {"setup_s": perf_counter() - _STARTED})
        return 0
    system = args.system
    # Protocol lines only: anything the program prints goes to stderr.
    out, sys.stdout = sys.stdout, sys.stderr
    # The config identity (heap size is not part of it), so runs on two
    # commits can be checked for comparability.
    fingerprint = api.config_for(system, 1 << 16).fingerprint()
    _warm_up(api, suite, system, args.seed)
    if args.role == "measure":
        _emit(out, {"ready": True})
        report = _serve(api, suite, system, args.seed, out)
    else:
        report = _trace(api, suite, system, args.seed)
    report["fingerprint"] = fingerprint
    _emit(out, report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
