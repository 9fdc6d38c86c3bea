"""The benchmark's workloads: seeded inputs, set-up, the timed drive, the gate.

Each workload class has the same four steps.  ``plan(seed)`` generates
every input from the seed and nothing else; ``build(seed)`` is the set-up
the benchmark times as ``setup_s`` (kernel, topology, installs, worker
spawn); ``drive(kernel, plan)`` makes the launch and ``run()`` calls, timed
in a :class:`Drive`; ``check(kernel, plan, drive)`` is the correctness gate
and returns one :class:`Outcome`.  ``shrink()`` switches to smoke size.
Why each workload exists is in ``NOTES.md``.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Dict, List, Tuple

from repro.core.briefcase import Briefcase
from repro.core.kernel import Kernel, KernelConfig
from repro.fault import completions, launch_ft_computation
from repro.net import RandomCrasher
from repro.net.topology import lan, star

from perfbench.agents import COURIER, RX, SENDER, SINK, sink


#: events per timed slice of a classic kernel's run to quiescence
SLICE_EVENTS = 2_000


@dataclass
class Drive:
    """The wall time of one drive, in timed slices that repeat exactly.

    Every launch call and every run of ``SLICE_EVENTS`` events is one slice,
    so the same plan on a fresh kernel yields the same slices with the same
    work in each: the benchmark compares slice *i* across repetitions.
    """

    slices: List[float] = field(default_factory=list)
    events: int = 0

    @property
    def wall(self) -> float:
        return sum(self.slices)

    def timed(self, call: Callable[[], Any]) -> Any:
        start = perf_counter()
        result = call()
        self.slices.append(perf_counter() - start)
        return result

    def run(self, kernel: Kernel, sliced: bool = True) -> None:
        """Run to quiescence; ``sliced=False`` times it as one slice (a sharded
        kernel's event budget would cut its synchronisation rounds)."""
        if not sliced:
            self.events += self.timed(kernel.run)
            return
        while True:
            events = self.timed(lambda: kernel.run(max_events=SLICE_EVENTS))
            self.events += events
            if events < SLICE_EVENTS:
                return


@dataclass
class Outcome:
    """The gate's verdict on one drive plus the simulated per-op outputs."""

    attempted: int
    failed: int
    problems: List[str]
    #: simulated queue-to-delivery latency of every completed operation, ms
    latencies_ms: List[float]
    #: the logical fingerprint: public counters and stats counts
    fingerprint: Dict[str, Any]
    #: per-layer counts read from the program's public counters
    counts: Dict[str, float]


def _rx_entries(kernel: Kernel) -> Dict[str, List[Tuple[float, float]]]:
    """op id -> [(delivered at, born at)] from the merged kernel event log."""
    seen: Dict[str, List[Tuple[float, float]]] = {}
    for at, _agent, _site, message in kernel.event_log:
        if message.startswith(RX):
            op, born = message[len(RX):].split(" ")
            seen.setdefault(op, []).append((at, float(born)))
    return seen


def _ledger_problems(counters: Dict[str, int]) -> List[str]:
    """The lifecycle ledger must balance at quiescence."""
    problems = []
    terminal = counters["completed"] + counters["failed"] + counters["killed"]
    if counters["launched"] != terminal:
        problems.append(f"ledger: launched {counters['launched']} != "
                        f"completed+failed+killed {terminal}")
    if counters["active"]:
        problems.append(f"ledger: {counters['active']} agents still active")
    if counters["undeliverable"]:
        problems.append(f"ledger: {counters['undeliverable']} undeliverable")
    return problems


def fingerprint(kernel: Kernel) -> Dict[str, Any]:
    """Public counters and stats counts plus a digest a refactor must keep."""
    snapshot = kernel.stats.snapshot()
    counts = {"counters": kernel.counters(),
              "stats": {key: value for key, value in snapshot.items()
                        if isinstance(value, (int, dict)) and not isinstance(value, bool)}}
    text = json.dumps(counts, sort_keys=True, default=repr)
    counts["digest"] = hashlib.sha256(text.encode()).hexdigest()[:16]
    return counts


def _net_counts(kernel: Kernel, events: int, ops: int) -> Dict[str, float]:
    snapshot = kernel.stats.snapshot()
    shard = kernel.shard_summary()
    return {
        "net.simclock.events_per_op": events / ops,
        "net.transport.wire_msgs": snapshot["messages_sent"],
        "net.transport.batches": snapshot["batches"],
        "net.transport.bytes_on_wire": snapshot["bytes_sent"],
        "flow.early_flushes": snapshot["early_flushes"],
        "shard.rounds": shard.get("rounds", 0),
        "shard.handoffs": shard["shard_handoffs"],
        "shard.late_arrivals": shard["shard_late_arrivals"],
        "obs.spans": len(kernel.trace_spans()) if kernel.config.obs_enabled else 0,
        "wire_msgs_per_op": snapshot["messages_sent"] / ops,
        "wire_bytes_per_op": snapshot["bytes_sent"] / ops,
    }


def _delivery_outcome(kernel: Kernel, expected: List[str], events: int) -> Outcome:
    """Gate for the courier workloads: each op's folder logged exactly once."""
    seen = _rx_entries(kernel)
    problems = _ledger_problems(kernel.counters())
    failed = 0
    latencies = []
    for op in expected:
        hits = seen.get(op, ())
        if len(hits) != 1:
            failed += 1
            continue
        at, born = hits[0]
        latencies.append((at - born) * 1000.0)
    if failed:
        problems.append(f"{failed} of {len(expected)} folders not delivered exactly once")
    if len(seen) != len(expected):
        problems.append(f"{len(seen)} distinct deliveries for {len(expected)} operations")
    return Outcome(len(expected), failed, problems, latencies, fingerprint(kernel),
                   _net_counts(kernel, events, len(expected)))


# ---------------------------------------------------------------------------
# churn: courier agents in waves over a 200-site LAN
# ---------------------------------------------------------------------------

CHURN_SITES = [f"s{i:03d}" for i in range(200)]


class Churn:
    """Waves of courier agents: each works, then couriers one folder to a peer."""

    name = "churn"
    waves = 4
    wave_size = 2_000
    #: whether the run to quiescence is timed in event slices
    sliced = True

    def shrink(self) -> None:
        """Smoke size: the same shape, two small waves."""
        self.waves, self.wave_size = 2, 200

    def config(self, seed: int) -> KernelConfig:
        return KernelConfig(rng_seed=seed)

    def plan(self, seed: int) -> List[List[tuple]]:
        rng = random.Random(seed)
        sites = len(CHURN_SITES)
        # One fixed peer per site: 200 routes, computed once and then cached,
        # as on a network whose traffic pattern is stable.  A fresh random
        # pair per agent would spend the run in route computation instead.
        peers = [CHURN_SITES[(origin + rng.randrange(1, sites)) % sites]
                 for origin in range(sites)]
        waves = []
        for wave in range(self.waves):
            agents = []
            for slot in range(self.wave_size):
                origin = rng.randrange(sites)
                agents.append((f"c{wave * self.wave_size + slot}", CHURN_SITES[origin],
                               peers[origin], rng.uniform(0.005, 0.015),
                               rng.randrange(64, 193)))
            waves.append(agents)
        return waves

    def build(self, seed: int) -> Kernel:
        kernel = Kernel(lan(CHURN_SITES), transport="tcp", config=self.config(seed))
        kernel.install_agent(None, SINK, sink)
        return kernel

    def drive(self, kernel: Kernel, plan) -> Drive:
        drive = Drive()

        def launch(agents):
            born = kernel.now
            requests = []
            for op, origin, peer, work, size in agents:
                briefcase = Briefcase()
                briefcase.set("OP", op)
                briefcase.set("BORN", born)
                briefcase.set("PEER", peer)
                briefcase.set("WORK", work)
                briefcase.set("BYTES", size)
                requests.append((origin, COURIER, briefcase))
            kernel.launch_many(requests)

        for agents in plan:
            drive.timed(lambda: launch(agents))
            drive.run(kernel, self.sliced)  # drain the wave
        return drive

    def check(self, kernel: Kernel, plan, drive: Drive) -> Outcome:
        expected = [agent[0] for agents in plan for agent in agents]
        return _delivery_outcome(kernel, expected, drive.events)


class ChurnSharded(Churn):
    """The churn inputs on two shards: router handoffs and clock sync."""

    sliced = False

    def __init__(self, name: str, backend: str) -> None:
        self.name, self.backend = name, backend

    def config(self, seed: int) -> KernelConfig:
        return KernelConfig(rng_seed=seed, shards=2, shard_backend=self.backend)

    def check(self, kernel: Kernel, plan, drive: Drive) -> Outcome:
        late = kernel.shard_summary()["shard_late_arrivals"]
        outcome = super().check(kernel, plan, drive)
        if late:
            # Each courier crosses shards at most once, so each late arrival
            # is one operation whose folder landed at a clamped time.
            outcome.failed = min(outcome.attempted, outcome.failed + late)
            outcome.problems.append(f"{late} late cross-shard arrivals")
        busy = kernel.shard_set.busy_summary()
        outcome.counts.update({
            "shard.overhead_s": busy["overhead_seconds"],
            "shard.busy_max_s": busy["max_busy"],
            "shard.parallel_eff": busy["total_busy"] / (2 * drive.wall),
        })
        return outcome


# ---------------------------------------------------------------------------
# fanin: hot and trickle senders courier into one hub over the fabric
# ---------------------------------------------------------------------------

FANIN_HUB = "hub"
FANIN_HOT = [f"hot{i:02d}" for i in range(8)]
FANIN_TRICKLE = [f"cold{i:03d}" for i in range(100)]


class FanIn:
    """Hot/trickle courier fan-in on the delivery fabric with adaptive windows."""

    name = "fanin"
    hot_count, hot_gap = 500, 0.002
    trickle_count, trickle_gap = 14, 0.35

    def shrink(self) -> None:
        """Smoke size: every sender, few folders each."""
        self.hot_count, self.trickle_count = 60, 3

    def plan(self, seed: int) -> List[tuple]:
        rng = random.Random(seed)
        senders = ([(site, self.hot_count, self.hot_gap) for site in FANIN_HOT]
                   + [(site, self.trickle_count, self.trickle_gap) for site in FANIN_TRICKLE])
        # (site, folders, gap, payload bytes, start delay)
        return [(site, count, gap, rng.randrange(150, 251), rng.uniform(0.0, 0.05))
                for site, count, gap in senders]

    def build(self, seed: int) -> Kernel:
        kernel = Kernel(star(FANIN_HUB, FANIN_HOT + FANIN_TRICKLE, latency=0.01,
                             bandwidth=250_000.0),
                        transport="tcp",
                        config=KernelConfig(rng_seed=seed, delivery_batch_window=0.02,
                                            flow_window_min=0.002, flow_window_max=0.2,
                                            flow_target_batch=8))
        kernel.install_agent(FANIN_HUB, SINK, sink)
        return kernel

    def drive(self, kernel: Kernel, plan) -> Drive:
        def launch():
            for site, count, gap, size, delay in plan:
                briefcase = Briefcase()
                briefcase.set("HUB", FANIN_HUB)
                briefcase.set("OP", site)
                briefcase.set("COUNT", count)
                briefcase.set("GAP", gap)
                briefcase.set("BYTES", size)
                kernel.launch(site, SENDER, briefcase, delay=delay)

        drive = Drive()
        drive.timed(launch)
        drive.run(kernel)
        return drive

    def check(self, kernel: Kernel, plan, drive: Drive) -> Outcome:
        expected = [f"{site}.{index}" for site, count, *_rest in plan
                    for index in range(count)]
        return _delivery_outcome(kernel, expected, drive.events)


# ---------------------------------------------------------------------------
# ft_wal: rear-guard itineraries on durable stores under correlated crashes
# ---------------------------------------------------------------------------

FT_SITES = [f"n{i:02d}" for i in range(16)]
FT_HOME, FT_DELIVERY = FT_SITES[0], FT_SITES[-1]


class FtWal:
    """Durable, rear-guard-protected itineraries through a seeded crash schedule."""

    name = "ft_wal"
    itineraries = 60
    stagger = 0.05

    def shrink(self) -> None:
        """Smoke size: a handful of itineraries through the same crashes."""
        self.itineraries = 8

    def plan(self, seed: int) -> Dict[str, Any]:
        rng = random.Random(seed)
        middle = FT_SITES[1:-1]
        # (id, sites after the origin, start delay, work per hop)
        return {"seed": seed,
                "itineraries": [(f"ft{index:03d}",
                                 rng.sample(middle, 6) + [FT_DELIVERY],
                                 self.stagger * index, rng.uniform(0.24, 0.26))
                                for index in range(self.itineraries)]}

    def build(self, seed: int) -> Kernel:
        kernel = Kernel(lan(FT_SITES), transport="tcp",
                        config=KernelConfig(rng_seed=seed, durability="wal-group-commit",
                                            store_commit_window=0.05,
                                            obs_enabled=True, obs_sample=1.0))
        for index, name in enumerate(FT_SITES):
            kernel.site(name).cabinet("data").put("VALUE", index)
        return kernel

    def drive(self, kernel: Kernel, plan) -> Drive:
        def launch():
            for ft_id, itinerary, delay, work in plan["itineraries"]:
                launch_ft_computation(kernel, FT_HOME, itinerary, ft_id=ft_id,
                                      per_hop=0.5, max_relaunches=4, work_seconds=work,
                                      delay=delay, durable_checkpoints=True)
            RandomCrasher(1.0, window=(1.2, 1.22), recover_after=6.0,
                          protect=[FT_HOME, FT_DELIVERY], seed=plan["seed"]).install(kernel)

        drive = Drive()
        drive.timed(launch)
        drive.run(kernel)
        return drive

    def check(self, kernel: Kernel, plan, drive: Drive) -> Outcome:
        records = completions(kernel, FT_DELIVERY)
        per_id = Counter(record.get("ft_id") for record in records)
        by_id = {record["ft_id"]: record for record in records}
        problems = _ledger_problems(kernel.counters())
        store = kernel.store_summary()
        if store["durable_folders_lost"]:
            problems.append(f"{store['durable_folders_lost']} durable folders lost")
        failed = 0
        latencies = []
        for ft_id, _itinerary, delay, _work in plan["itineraries"]:
            if per_id.get(ft_id) != 1:
                failed += 1
                continue
            latencies.append((by_id[ft_id]["completed_at"] - delay) * 1000.0)
        if failed:
            problems.append(f"{failed} itineraries not completed exactly once")
        if len(per_id) != len(plan["itineraries"]):
            problems.append(f"{len(per_id)} distinct completions for "
                            f"{len(plan['itineraries'])} itineraries")
        hops = Counter()
        for _at, _agent, _site, message in kernel.event_log:
            if message.startswith("hop-exec "):
                hops[message] += 1
        counts = _net_counts(kernel, drive.events, len(plan["itineraries"]))
        snapshot = kernel.stats.snapshot()
        counts.update({
            "store.wal_commits": store["wal_commits"],
            "store.wal_records": store["wal_records_committed"],
            "store.wal_bytes": store["wal_bytes_committed"],
            "store.barrier_piggybacks": store["wal_barrier_piggybacks"],
            "store.recoveries": store["recoveries"],
            "store.durable_lost": store["durable_folders_lost"],
            "fault.relaunches": snapshot["per_kind"].get("ft-relaunch", 0),
            "fault.reexec_hops": sum(hops.values()) - len(hops),
        })
        return Outcome(len(plan["itineraries"]), failed, problems, latencies,
                       fingerprint(kernel), counts)


#: every workload: BENCHMARK.json lists all but churn_proc2, whose wall time on
#: a shared 2-vCPU host measures the neighbours (NOTES.md); it stays runnable
#: by name, and the run-isolation tests stop its worker processes
WORKLOADS = {workload.name: workload for workload in (
    Churn(), ChurnSharded("churn_shard2", "inproc"), FanIn(), FtWal(),
    ChurnSharded("churn_proc2", "process"))}
