"""Paper-size benchmark of the CG reproduction.

    python3 perfbench/run.py --workload spec|bytecode|server \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each workload runs under the two
systems the paper compares, ``cg`` and ``jdk``, each in its own worker
process (``worker.py``) so that process's peak RSS is that system's.
With ``--trace 0`` the end-to-end metrics are measured untraced, the
two workers taking turns pass by pass, and times are scaled to a
reference host speed (``yardstick.py``); with ``--trace 1`` a traced
run reports the per-layer ledger instead.  Every
run's output is checked (see README.md).  The last stdout line is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Tuple

from suite import (DEFAULT_SEED, HYGIENE_ENV, SUITES, SYSTEMS, Suite,
                   end_to_end_units, per_layer_units)
from yardstick import REFERENCE_S, yardstick

HERE = os.path.dirname(os.path.abspath(__file__))

#: Fresh processes timed for ``setup_s``; the median is reported.
SETUP_SAMPLES = 7

#: Yardstick timings after each set-up process and each timed pass.
YARDSTICK_REPS = 3

#: Hard wall-clock limit for the whole benchmark, below the 180 s the
#: benchmark must finish in.
DEADLINE_S = 170.0

#: Relative tolerance of "the layer self times sum to the api spans".
LEDGER_TOLERANCE = 1e-6


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def log(message: str) -> None:
    print(f"perfbench: {message}", flush=True)


class Workers:
    """Launches worker processes against the checkout's sources."""

    def __init__(self, root: str, deadline: float) -> None:
        self.deadline = deadline
        self.env = dict(os.environ)
        #: Knobs that would change the program being timed; cleared.
        self.cleared = [k for k in HYGIENE_ENV if self.env.pop(k, None)]
        self.env["PYTHONPATH"] = os.path.join(root, "src")
        # Fixed string hashing: dict and set layouts repeat run to run.
        self.env["PYTHONHASHSEED"] = "0"

    def command(self, *args: str) -> List[str]:
        return [sys.executable, os.path.join(HERE, "worker.py"), *args]

    def start(self, *args: str) -> "LiveWorker":
        """A worker that answers one command line at a time."""
        proc = subprocess.Popen(self.command(*args), env=self.env,
                                stdin=subprocess.PIPE,
                                stdout=subprocess.PIPE)
        return LiveWorker(proc, " ".join(args), self.deadline)

    def run(self, *args: str) -> Dict:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("out of time before starting a worker")
        try:
            proc = subprocess.run(self.command(*args), env=self.env,
                                  stdout=subprocess.PIPE, text=True,
                                  timeout=remaining)
        except subprocess.TimeoutExpired:
            raise BenchError(f"worker timed out: {' '.join(args)}") from None
        if proc.returncode != 0:
            raise BenchError(f"worker exited {proc.returncode}: "
                             f"{' '.join(args)}")
        lines = proc.stdout.strip().splitlines()
        if not lines:
            raise BenchError(f"worker printed nothing: {' '.join(args)}")
        return json.loads(lines[-1])


class LiveWorker:
    """A running ``worker.py --role measure``: one JSON line per command."""

    def __init__(self, proc: subprocess.Popen, name: str,
                 deadline: float) -> None:
        self.proc = proc
        self.name = name
        self.deadline = deadline
        self.buffer = b""

    def read(self) -> Dict:
        fd = self.proc.stdout.fileno()
        while b"\n" not in self.buffer:
            remaining = self.deadline - time.monotonic()
            if remaining <= 0 or not select.select([fd], [], [],
                                                   remaining)[0]:
                raise BenchError(f"worker timed out: {self.name}")
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                raise BenchError(f"worker exited {self.proc.wait()}: "
                                 f"{self.name}")
            self.buffer += chunk
        line, self.buffer = self.buffer.split(b"\n", 1)
        return json.loads(line)

    def ask(self, command: str) -> Dict:
        try:
            self.proc.stdin.write(command.encode() + b"\n")
            self.proc.stdin.flush()
        except BrokenPipeError:
            raise BenchError(f"worker exited {self.proc.wait()}: "
                             f"{self.name}") from None
        return self.read()

    def stop(self) -> None:
        """Kill the worker if it still runs, and wait for it to end."""
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()


def run_problems(suite: Suite, seed: int, run: Dict) -> List[str]:
    """Why one ``execute()`` call's output is wrong (empty: correct)."""
    if run["error"] is not None:
        return [f"raised: {run['error'].strip().splitlines()[-1]}"]
    program = next(p for p in suite.programs if p.name == run["program"])
    counters = run["counters"]
    problems = []
    if seed == DEFAULT_SEED or not program.seed_sensitive:
        if (counters["ops"], counters["objects_created"]) != (
                program.expected_ops, program.expected_objects):
            problems.append(
                f"ops/objects {counters['ops']}/{counters['objects_created']}"
                f" != expected {program.expected_ops}/"
                f"{program.expected_objects}")
    if sum(counters["census"].values()) != counters["objects_created"]:
        problems.append(f"census {counters['census']} does not add up to "
                        f"{counters['objects_created']} objects")
    if program.requests is not None and run["served"] != program.requests:
        problems.append(f"{run['served']} latency samples for "
                        f"{program.requests} requests")
    return problems


def check(suite: Suite, seed: int, runs: Dict[str, List[Dict]]):
    """``(attempted, failed, problems)`` over every run of both systems.

    A run counts once, plus once per request it was to serve; a failed
    run fails all of them.  Beyond each run's own checks, every run of a
    program must agree on ``ops`` and ``objects_created`` — across passes
    and across systems, since both are properties of the program.
    """
    attempted = failed = 0
    problems: List[str] = []
    seen: Dict[str, set] = {}
    for system_runs in runs.values():
        for run in system_runs:
            if run["error"] is None:
                c = run["counters"]
                seen.setdefault(run["program"], set()).add(
                    (c["ops"], c["objects_created"]))
    for system, system_runs in runs.items():
        for run in system_runs:
            weight = 1 + run["requests"]
            attempted += weight
            found = run_problems(suite, seed, run)
            if len(seen.get(run["program"], ())) > 1:
                found.append(f"systems/passes disagree on ops/objects: "
                             f"{sorted(seen[run['program']])}")
            if found:
                failed += weight
                problems += [f"{system} {run['program']}: {p}"
                             for p in found]
    return attempted, failed, problems


def end_to_end(suite: Suite, workers: Workers, args, runs) -> Dict:
    """The end-to-end metrics, times scaled to the reference speed.

    Each time is multiplied, and ``ops_per_s`` divided, by
    ``REFERENCE_S / median(yardstick)``, over the yardstick timings taken
    here between the workers' turns: after each set-up process for
    ``setup_s``, after each pass for the rest.  The raw figures are
    logged.
    """
    samples = []
    yardsticks = []
    for _ in range(SETUP_SAMPLES):
        samples.append(workers.run("--role", "setup", "--workload",
                                   suite.name, "--seed",
                                   str(args.seed))["setup_s"])
        yardsticks += [yardstick() for _ in range(YARDSTICK_REPS)]
    setup_scale = host_scale(yardsticks, "set-up")
    metrics = {"setup_s": statistics.median(samples) * setup_scale}
    log(f"setup_s samples (raw): {' '.join(f'{s:.4f}' for s in samples)}")
    reports, yardsticks = measure(suite, workers, args, runs)
    scale = host_scale(yardsticks, "passes")
    for system in SYSTEMS:
        report = reports[system]
        ok = [r for r in runs[system] if r["error"] is None]
        ops = sum(r["counters"]["ops"] for r in ok)
        wall = sum(r["wall_s"] for r in ok)
        metrics[f"{system}.ops_per_s"] = ops / (wall * scale) if wall else 0.0
        metrics[f"{system}.req_p50_ms"] = report["req_p50_ms"] * scale
        metrics[f"{system}.req_p99_ms"] = report["req_p99_ms"] * scale
        metrics[f"{system}.peak_rss_mb"] = report["peak_rss_mb"]
        passes = len(runs[system]) // len(suite.programs)
        log(f"{system}: fingerprint {report['fingerprint']}, {passes} "
            f"pass(es), {len(runs[system])} runs, {ops} ops in "
            f"{wall:.3f} s, {report['req_samples']} latency samples; raw "
            f"ops_per_s {ops / wall if wall else 0.0:.6g}, req_p50_ms "
            f"{report['req_p50_ms']:.6g}, req_p99_ms "
            f"{report['req_p99_ms']:.6g}")
    if suite.name == "spec":
        for program in suite.programs:
            ok = {s: [r for r in runs[s] if r["program"] == program.name
                      and r["error"] is None] for s in SYSTEMS}
            if not all(ok.values()):
                continue
            wall = {s: statistics.median(r["wall_s"] for r in ok[s])
                    for s in SYSTEMS}
            sim = {s: ok[s][0]["sim_ms"] for s in SYSTEMS}
            log(f"derived {program.name}/{program.size}: wall jdk/cg = "
                f"{wall['jdk'] / wall['cg']:.3f} ({wall['jdk']:.3f} s / "
                f"{wall['cg']:.3f} s), cost-model jdk/cg = "
                f"{sim['jdk'] / sim['cg']:.3f} (not gated)")
    return metrics


def host_scale(yardsticks: List[float], where: str) -> float:
    """Factor from raw seconds to seconds at the reference speed.

    The yardstick runs in this process while the workers wait, so it
    adds nothing to their peak RSS.
    """
    median = statistics.median(yardsticks)
    log(f"host speed during {where}: yardstick median {median:.4f} s over "
        f"{len(yardsticks)} timings, {REFERENCE_S / median:.3f}x reference")
    return REFERENCE_S / median


def measure(suite: Suite, workers: Workers, args,
            runs) -> Tuple[Dict[str, Dict], List[float]]:
    """Alternate the systems' workers pass by pass for ``--seconds``.

    Both workers stay up, each waiting while the other runs, so both
    systems see the same stretch of machine time.  Whole rounds (one
    pass per system, first system alternating) repeat until another
    would overrun the budget; at least one round always runs.  After
    each pass the yardstick is timed here.  Returns each system's report
    and the yardstick timings.
    """
    live: Dict[str, LiveWorker] = {}
    yardsticks: List[float] = []
    try:
        for system in SYSTEMS:
            live[system] = workers.start(
                "--role", "measure", "--workload", suite.name,
                "--system", system, "--seed", str(args.seed))
            live[system].read()  # ready: warmed up
            runs[system] = []
        started = time.monotonic()
        rounds = 0
        while True:
            order = SYSTEMS if rounds % 2 == 0 else SYSTEMS[::-1]
            for system in order:
                runs[system] += live[system].ask("pass")["runs"]
                yardsticks += [yardstick() for _ in range(YARDSTICK_REPS)]
            rounds += 1
            elapsed = time.monotonic() - started
            if elapsed + elapsed / rounds > args.seconds:
                break
        log(f"{rounds} round(s) of alternating passes in {elapsed:.1f} s")
        return ({system: live[system].ask("done") for system in SYSTEMS},
                yardsticks)
    finally:
        for worker in live.values():
            worker.stop()


def per_layer(suite: Suite, workers: Workers, args,
              runs) -> Tuple[Dict, List[str]]:
    metrics: Dict = {}
    problems: List[str] = []
    for system in SYSTEMS:
        report = workers.run("--role", "trace", "--workload", suite.name,
                             "--system", system, "--seed", str(args.seed))
        runs[system] = report["runs"]
        for name in per_layer_units(system):
            metrics[name] = report["layer_metrics"][name]
        log(f"{system}: fingerprint {report['fingerprint']}, tracing "
            f"overhead {report['traced_s']:.3f} s traced vs "
            f"{report['untraced_s']:.3f} s untraced "
            f"(x{report['traced_s'] / report['untraced_s']:.3f}), "
            f"{report['spans']} spans -> {report['spans_path']}")
        for program in report["counter_mismatches"]:
            problems.append(f"{system} {program}: traced counters differ "
                            f"from untraced ones")
        gap = abs(report["ledger_s"] - report["root_s"])
        log(f"{system}: layer self times sum to {report['ledger_s']:.6f} s,"
            f" api spans to {report['root_s']:.6f} s")
        if gap > LEDGER_TOLERANCE * report["root_s"]:
            problems.append(f"{system}: layer self times do not sum to the "
                            f"api spans (gap {gap:.3e} s)")
    return metrics, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Paper-size CG benchmark (see perfbench/README.md)")
    parser.add_argument("--workload", choices=sorted(SUITES), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    # Unwind on SIGTERM too, so live workers are stopped and waited for.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "api.py")):
        print(f"perfbench: no src/repro/api.py under {root}; run from the "
              f"root of a checkout", file=sys.stderr)
        return 2
    suite = SUITES[args.workload]
    workers = Workers(root, deadline)
    log(f"workload={suite.name} seed={args.seed} seconds={args.seconds} "
        f"trace={args.trace} python={platform.python_version()} "
        f"nproc={len(os.sched_getaffinity(0))} "
        f"seed_sensitive={suite.seed_sensitive}")
    log(f"cleared environment: {', '.join(workers.cleared) or 'none'}")
    try:
        subprocess.run([sys.executable, "-m", "compileall", "-q", "src"],
                       env=workers.env, check=True, stdout=subprocess.DEVNULL,
                       timeout=max(1.0, deadline - time.monotonic()))
        runs: Dict[str, List[Dict]] = {}
        if args.trace:
            metrics, problems = per_layer(suite, workers, args, runs)
            units = {}
            for system in SYSTEMS:
                units.update(per_layer_units(system))
        else:
            metrics = end_to_end(suite, workers, args, runs)
            problems = []
            units = end_to_end_units()
    except (BenchError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    attempted, failed, run_problems_found = check(suite, args.seed, runs)
    problems = run_problems_found + problems
    for problem in problems:
        log(f"CHECK FAILED {problem}")
    log(f"output check: {attempted - failed}/{attempted} operations correct,"
        f" failed_frac = {failed / attempted:.6f}")
    for name, value in metrics.items():
        log(f"  {name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
