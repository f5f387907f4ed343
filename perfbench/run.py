"""evenpairs benchmark: times the library the way its users drive it.

Run from the repository root::

    python3 perfbench/run.py --workload census --seed 1 --seconds 40 --trace 0

Workloads are ``census`` (the verification harness) and ``queries`` (single
CLI calls); see ``perfbench/README.md``.  ``--trace 0`` measures the end-to-end metrics
with the library untouched; ``--trace 1`` wraps the library's public
functions and reports per-layer metrics instead.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (each ``{"value", "unit"}``).  The line before it holds the
provenance and the details behind the figures, and the same record is
written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path
from time import perf_counter

from tracing import Tracer, layer_metrics
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKERS_ENV = "EVENPAIRS_WORKERS"
SETUP_REPEATS = 3    # set-ups per untraced run; setup_s is their median
COLD_SPAWNS = 5      # cold CLI processes per untraced run
TAIL_BEYOND = 10     # operations required above the reported tail percentile
CHILD_TIMEOUT_S = 120


class Tally:
    """What a run of operations did: time, work, latencies and failures."""

    def __init__(self) -> None:
        self.busy_s = 0.0
        self.units = 0
        self.attempted = 0
        self.failed = 0
        self.passes = 0
        self.latencies_by_key: dict[object, list[float]] = {}
        self.pass_rates: list[float] = []  # units per busy second, by pass

    def add(self, result) -> None:
        self.busy_s += result.seconds
        self.units += result.units
        self.attempted += result.attempted
        self.failed += result.failed
        if result.key is not None:
            self.latencies_by_key.setdefault(result.key, []).append(result.seconds)

    def per_operation(self) -> list[float]:
        """Each distinct operation's mean latency over the run.  When the
        machine runs fast and slow in stretches of seconds, percentiles of
        these move as a mean moves, where percentiles of all samples would
        flip between the slow and the fast value; and a tail of these does
        not hang on which random graphs happened to be drawn."""
        return [statistics.fmean(v) for v in self.latencies_by_key.values()]


def run_pass(wl, index: int, tally: Tally, budget_s: float | None = None,
             tracer: Tracer | None = None, between=None) -> None:
    """Run pass ``index``.  With a budget of library seconds, a workload
    whose passes may be cut stops between operations once the tally has
    spent it, except in pass 0, which always completes so that its
    whole-pass checks run.  ``between`` is called before each operation."""
    complete = True
    busy_before, units_before = tally.busy_s, tally.units
    for op in wl.pass_ops(index):
        if (budget_s is not None and index > 0 and not wl.whole_passes
                and tally.busy_s >= budget_s):
            complete = False
            break
        if between is not None:
            between()
        if tracer is not None:
            tracer.begin(f"bench.{wl.name}")
        try:
            tally.add(op())
        finally:
            if tracer is not None:
                tracer.end()
    tally.failed += wl.end_pass(index, complete)
    tally.passes += complete
    if tally.busy_s > busy_before:
        tally.pass_rates.append((tally.units - units_before)
                                / (tally.busy_s - busy_before))


def timed_setup(wl, seed: int) -> float:
    start = perf_counter()
    wl.load()
    wl.prepare(seed)
    return perf_counter() - start


def _child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != WORKERS_ENV}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    return env


def probe_setup(args) -> float:
    """Set-up time of a fresh process, as a CLI user pays it on each call."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-probe"]
    if args.tiny:
        cmd.append("--tiny")
    proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def cold_cli(args_list: list[str]) -> tuple[float, bool]:
    """Wall time (ms) of one fresh ``evenpairs`` process, and whether it
    exited with 0 or 1."""
    start = perf_counter()
    proc = subprocess.run([sys.executable, "-m", "evenpairs.cli", *args_list],
                          cwd=ROOT, env=_child_env(), capture_output=True,
                          timeout=CHILD_TIMEOUT_S)
    elapsed_ms = (perf_counter() - start) * 1000
    if proc.returncode not in (0, 1):
        print(f"cold CLI exited {proc.returncode}: {proc.stderr[-500:]!r}",
              file=sys.stderr)
    return elapsed_ms, proc.returncode in (0, 1)


def tail_of(samples: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least TAIL_BEYOND values above it:
    (value, percentile, values above).  Short lists give their maximum."""
    ordered = sorted(samples)
    n = len(ordered)
    k = n - TAIL_BEYOND - 1 if n > TAIL_BEYOND else n - 1
    return ordered[k], 100.0 * (k + 1) / n, n - k - 1


def untraced_run(wl, args) -> tuple[dict, Tally, dict]:
    """Set up, then run passes until ``args.seconds`` of library time are
    spent.  The fresh-process samples (set-ups and cold CLI starts) are
    spread over that time, so that the machine's slow and fast stretches
    reach them as they reach the operations."""
    setups = [timed_setup(wl, args.seed)]
    cold_ms: list[float] = []
    tally = Tally()
    chores = sorted([(args.seconds * (i + 1) / SETUP_REPEATS, "setup")
                     for i in range(SETUP_REPEATS - 1)]
                    + [(args.seconds * (i + 0.5) / COLD_SPAWNS, "cold")
                       for i in range(COLD_SPAWNS)])

    def between(flush: bool = False) -> None:
        while chores and (flush or tally.busy_s >= chores[0][0]):
            if chores.pop(0)[1] == "setup":
                setups.append(probe_setup(args))
                continue
            elapsed_ms, ok = cold_cli(wl.cold_args())
            cold_ms.append(elapsed_ms)
            tally.attempted += 1
            tally.failed += not ok

    index = 0
    while True:
        run_pass(wl, index, tally, args.seconds, between=between)
        index += 1
        if tally.busy_s >= args.seconds:
            break
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    between(flush=True)
    per_op = tally.per_operation()
    tail, tail_pct, beyond = tail_of(per_op)
    metrics = {
        "ops_per_s": (tally.units / tally.busy_s, "1/s"),
        "op_p50_ms": (statistics.median(per_op) * 1000, "ms"),
        "op_tail_ms": (tail * 1000, "ms"),
        "cli_cold_ms": (statistics.median(cold_ms), "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    details = {"passes_complete": tally.passes, "units": tally.units,
               "busy_s": tally.busy_s, "pass_rates": tally.pass_rates,
               "latency_samples": sum(map(len, tally.latencies_by_key.values())),
               "distinct_operations": len(per_op),
               "tail_percentile": tail_pct, "tail_samples_beyond": beyond,
               "setup_samples_s": setups, "cold_cli_samples_ms": cold_ms,
               "cold_cli_args": wl.cold_args()}
    return metrics, tally, details


def traced_run(wl, args) -> tuple[dict, Tally, dict]:
    """Traced set-up, then pairs of the same pass run untraced and traced
    until the time is up; per-layer figures are for one set-up plus one
    traced pass."""
    tracer = Tracer()
    wl.load()
    tracer.install()
    try:
        wl.prepare(args.seed)
    finally:
        tracer.uninstall()
    after_setup = tracer.snapshot()
    tally, plain = Tally(), Tally()
    ratios = []
    deadline = perf_counter() + args.seconds
    index = 0
    while True:
        start = perf_counter()
        run_pass(wl, index, plain)
        untraced_s = perf_counter() - start
        wl.filter_counts = tracer.counters
        tracer.install()
        start = perf_counter()
        try:
            run_pass(wl, index, tally, tracer=tracer)
        finally:
            tracer.uninstall()
            wl.filter_counts = None
        ratios.append((perf_counter() - start) / untraced_s - 1)
        index += 1
        if perf_counter() >= deadline:
            break
    final = tracer.snapshot()
    in_passes = {kind: final[kind] - after_setup[kind] for kind in final}
    metrics = layer_metrics(after_setup, in_passes, tally.passes,
                            statistics.median(ratios))
    spans_path = OUT / f"spans-{wl.name}-seed{args.seed}.tsv"
    stored = tracer.write_spans(spans_path)
    tally.attempted += plain.attempted
    tally.failed += plain.failed
    details = {"traced_passes": tally.passes, "overhead_ratios": ratios,
               "spans_seen": tracer.spans_seen, "spans_stored": stored,
               "spans_file": str(spans_path.relative_to(ROOT))}
    return metrics, tally, details


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return proc.stdout.strip() or None


def provenance(args, inherited_workers: str | None) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "evenpairs").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny,
        "python": platform.python_version(), "numpy": numpy_version,
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(), "source_sha256": digest.hexdigest(),
        "evenpairs_workers": {"inherited": inherited_workers,
                              "during_run": "unset"},
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs, for the benchmark's own self-test")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    inherited_workers = os.environ.pop(WORKERS_ENV, None)
    if not (SRC / "evenpairs" / "__init__.py").is_file():
        print(f"perfbench: no evenpairs sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    wl = WORKLOADS[args.workload](args.tiny, OUT)
    if args.setup_probe:
        print(json.dumps({"setup_s": timed_setup(wl, args.seed)}))
        return 0
    runner = traced_run if args.trace else untraced_run
    metrics, tally, details = runner(wl, args)
    if hasattr(wl, "digests"):
        details["round_digests"] = {str(k): v for k, v in sorted(wl.digests.items())}
    details["failure_ratio"] = tally.failed / max(tally.attempted, 1)
    result = {
        "correct": tally.failed == 0,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    record = {"provenance": provenance(args, inherited_workers),
              "details": details, "result": result}
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps({"provenance": record["provenance"], "details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
