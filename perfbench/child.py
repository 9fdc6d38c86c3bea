"""One benchmark run, inside the fresh interpreter that ``run.py`` starts.

Usage (from the checkout root, with ``src`` on ``PYTHONPATH``)::

    python3 -m perfbench.child --workload churn --seed 1 --seconds 10 --trace 0

Prints the logical fingerprint as one JSON line, then the result line.
Everything that runs is under the ``__main__`` check: process-backend shard
workers re-import this module when they spawn.
"""

from __future__ import annotations

import argparse
import copy
import gc
import json
import multiprocessing
import resource
import statistics
import sys
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

from perfbench.ledger import LAYERS, UNTRACKED, Ledger
from perfbench.workloads import WORKLOADS, Outcome

#: end-to-end metrics, reported with tracing off: name -> unit
END_TO_END = {
    "ops_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sim_op_ms_p50": "ms",
    "sim_op_ms_tail": "ms",
    "wire_msgs_per_op": "msg/op",
    "wire_bytes_per_op": "B/op",
}

#: per-layer counts read from the program's public counters and the profile
_COUNTS = {
    "net.simclock.events_per_op": "1/op",
    "net.simclock.events_per_s": "1/s",
    "core.codec.wire_round_trips_per_op": "1/op",
    "core.folder.decodes_per_op": "1/op",
    "net.transport.wire_msgs": "count",
    "net.transport.batches": "count",
    "net.transport.bytes_on_wire": "B",
    "flow.early_flushes": "count",
    "store.wal_commits": "count",
    "store.wal_records": "count",
    "store.wal_bytes": "B",
    "store.barrier_piggybacks": "count",
    "store.recoveries": "count",
    "store.durable_lost": "count",
    "fault.relaunches": "count",
    "fault.reexec_hops": "count",
    "shard.rounds": "count",
    "shard.handoffs": "count",
    "shard.late_arrivals": "count",
    "shard.overhead_s": "s",
    "shard.busy_max_s": "s",
    "shard.parallel_eff": "ratio",
    "obs.spans": "count",
    "gate.ops_failed_ratio": "ratio",
    "sim_op.samples": "count",
    "sim_op.tail_pct": "%",
    "profile.overhead_ratio": "ratio",
    "profile.named_share": "ratio",
    "profile.untracked_share": "ratio",
}

#: per-layer metrics, reported by the traced run: name -> unit
PER_LAYER = {**{f"{layer}.{kind}": unit for layer in LAYERS
                for kind, unit in (("self_share", "ratio"), ("calls", "count"))},
             **_COUNTS}

#: set-up is timed at least this many times per run, the median reported:
#: every unit's own build, plus extra builds while there are fewer
SETUP_SAMPLES = 5
#: layers that are not the program's own named layers: the rest of the
#: program, and the workloads' agent behaviours
_UNNAMED = ("other", "app")
#: tail percentiles tried from the top; the highest with >= 10 samples beyond wins
_TAILS = (99.99, 99.9, 99.0, 95.0, 90.0, 75.0)


def tail(values: List[float]) -> Tuple[float, float]:
    """(percentile, value): the highest percentile with >= 10 samples beyond
    it; the median when there are too few samples for any tail."""
    ordered = sorted(values)
    if not ordered:
        return 0.0, 0.0
    for pct in _TAILS:
        if len(ordered) * (1 - pct / 100) >= 10:
            return pct, ordered[int(len(ordered) * pct / 100)]
    return 50.0, statistics.median(ordered)


def _peak_rss_mb() -> float:
    """Peak RSS of this process plus every live worker process it started."""
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for child in multiprocessing.active_children():
        try:
            with open(f"/proc/{child.pid}/status") as status:
                for line in status:
                    if line.startswith("VmHWM:"):
                        peak_kb += int(line.split()[1])
        except OSError:
            pass
    return peak_kb / 1024.0


class Unit:
    """One fresh kernel driven through the whole plan and gated."""

    def __init__(self, workload, plan, seed: int, ledger: Optional[Ledger] = None):
        gc.collect()  # the previous unit's garbage is not this unit's cost
        start = perf_counter()
        kernel = workload.build(seed)
        self.setup_s = perf_counter() - start
        try:
            if ledger is None:
                self.drive = workload.drive(kernel, plan)
            else:
                with ledger:
                    self.drive = workload.drive(kernel, plan)
            self.outcome: Outcome = workload.check(kernel, plan, self.drive)
            self.peak_rss_mb = _peak_rss_mb()
        finally:
            kernel.close()


def _same_outputs(units: List[Unit]) -> List[str]:
    """The same plan must give the same simulated outputs and slice layout."""
    first = units[0]
    return [f"unit {index} fingerprint {unit.outcome.fingerprint['digest']} != "
            f"{first.outcome.fingerprint['digest']}"
            for index, unit in enumerate(units[1:], 1)
            if unit.outcome.fingerprint != first.outcome.fingerprint
            or unit.outcome.latencies_ms != first.outcome.latencies_ms
            or len(unit.drive.slices) != len(first.drive.slices)]


def _result(units: List[Unit], problems: List[str],
            metrics: Dict[str, float], metric_units: Dict[str, str]) -> Dict[str, Any]:
    problems = problems + [problem for unit in units for problem in unit.outcome.problems]
    failed = sum(unit.outcome.failed for unit in units)
    return {
        "correct": not problems,
        "attempted": sum(unit.outcome.attempted for unit in units),
        # a gate failure that no single operation carries still fails the run
        "failed": max(failed, 1) if problems else failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in metric_units.items()},
        "problems": problems,
        "fingerprint": units[0].outcome.fingerprint,
    }


def steady_wall(units: List[Unit]) -> float:
    """The drive's wall time with host interference filtered out.

    Every unit drives the same plan, so slice *i* does the same work in each
    unit (``_same_outputs`` checks the layouts match); the median of slice
    *i* over the units drops the slices a burst of host noise landed on, and
    the sum over slices is one drive's wall time.
    """
    return sum(statistics.median(column)
               for column in zip(*(unit.drive.slices for unit in units)))


def timed_run(workload, plan, seed: int, seconds: float) -> Dict[str, Any]:
    """Drive fresh units until *seconds* of timed drive time; report medians."""
    units: List[Unit] = []
    while not units or sum(unit.drive.wall for unit in units) < seconds:
        units.append(Unit(workload, plan, seed))
    setups = [unit.setup_s for unit in units]
    for _extra in range(SETUP_SAMPLES - len(setups)):
        gc.collect()
        start = perf_counter()
        kernel = workload.build(seed)
        setups.append(perf_counter() - start)
        kernel.close()
    first = units[0].outcome
    _pct, tail_ms = tail(first.latencies_ms)
    metrics = {
        "ops_per_s": (first.attempted - first.failed) / steady_wall(units),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max(unit.peak_rss_mb for unit in units),
        "sim_op_ms_p50": statistics.median(first.latencies_ms or [0.0]),
        "sim_op_ms_tail": tail_ms,
        "wire_msgs_per_op": first.counts["wire_msgs_per_op"],
        "wire_bytes_per_op": first.counts["wire_bytes_per_op"],
    }
    return _result(units, _same_outputs(units), metrics, END_TO_END)


def traced_run(workload, plan, seed: int) -> Dict[str, Any]:
    """An untraced unit, then the same inputs under the profile: the ledger."""
    plain = Unit(workload, plan, seed)
    ledger = Ledger()
    traced = Unit(workload, plan, seed, ledger)
    traced_wall = traced.drive.wall
    times, calls = ledger.layer_times()
    outcome = traced.outcome
    ops = outcome.attempted
    metrics = {name: 0.0 for name in PER_LAYER}
    metrics.update({key: value for key, value in outcome.counts.items() if key in PER_LAYER})
    for layer in LAYERS:
        metrics[f"{layer}.self_share"] = times.get(layer, 0.0) / traced_wall
        metrics[f"{layer}.calls"] = calls.get(layer, 0)
    named = sum(times.get(layer, 0.0) for layer in LAYERS if layer not in _UNNAMED)
    pct, _tail_ms = tail(outcome.latencies_ms)
    metrics.update({
        "net.simclock.events_per_s": plain.drive.events / plain.drive.wall,
        "core.codec.wire_round_trips_per_op":
            ledger.calls_to("core/briefcase.py", "from_wire") / ops,
        "core.folder.decodes_per_op": ledger.calls_to("core/folder.py", "_decode") / ops,
        "gate.ops_failed_ratio": outcome.failed / ops,
        "sim_op.samples": len(outcome.latencies_ms),
        "sim_op.tail_pct": pct,
        "profile.overhead_ratio": traced_wall / plain.drive.wall,
        "profile.named_share": named / traced_wall,
        "profile.untracked_share": times.get(UNTRACKED, 0.0) / traced_wall,
    })
    return _result([plain, traced], _same_outputs([plain, traced]), metrics, PER_LAYER)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    if args.size == "smoke":
        workload = copy.copy(workload)
        workload.shrink()
    plan = workload.plan(args.seed)
    if args.trace:
        result = traced_run(workload, plan, args.seed)
    else:
        result = timed_run(workload, plan, args.seed, args.seconds)
    for problem in result.pop("problems"):
        print(f"gate: {problem}", file=sys.stderr)
    print(json.dumps({"fingerprint": {"workload": args.workload, "seed": args.seed,
                                      **result.pop("fingerprint")}}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
