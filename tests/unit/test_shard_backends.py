"""Unit tests for repro.shard.backend: the shard execution backend seam.

Covers backend resolution, the MailRouter's direct handoff path, the
ShardSet's fake-timer cost attribution (busy vs sync vs overhead), the
common clock a drain leaves behind, the ClockSync dirty-flag coalescing
contract, budget semantics across backends, the facade's
``shard_summary``/``close`` surface, and the serialisation plumbing the
process backend rides on (stats export/load, topology route caching).
"""

from __future__ import annotations

import pickle

import pytest

from repro.core import Kernel, KernelConfig
from repro.core.errors import KernelError
from repro.net import lan
from repro.net.simclock import EventLoop
from repro.net.stats import NetworkStats
from repro.net.topology import LinkSpec, NoRouteError, switched_fabric
from repro.shard import (BACKENDS, ClockSync, InprocBackend, MailRouter,
                         Shard, ShardedKernel, ShardSet, make_backend,
                         process_backend_available)


def sharded_kernel(backend, site_count=8, shards=4, seed=7):
    names = [f"s{i}" for i in range(site_count)]
    kernel = Kernel(lan(names, latency=0.002), transport="tcp",
                    config=KernelConfig(rng_seed=seed, shards=shards,
                                        shard_backend=backend))
    return kernel, names


# ---------------------------------------------------------------------------
# backend resolution
# ---------------------------------------------------------------------------

class TestBackendResolution:
    def test_make_backend_names(self):
        assert isinstance(make_backend("inproc"), InprocBackend)

    def test_process_backend_not_built_here(self):
        with pytest.raises(KernelError, match="procworker"):
            make_backend("process")

    def test_unknown_backend_rejected(self):
        with pytest.raises(KernelError, match="unknown shard_backend"):
            make_backend("fibers")

    def test_kernel_config_validates_backend(self):
        with pytest.raises(KernelError, match="unknown shard_backend"):
            Kernel(lan(["a", "b"]),
                   config=KernelConfig(shards=2, shard_backend="fibers"))

    def test_bad_backend_rejected_even_unsharded(self):
        # shards=1 never builds a backend, but a typo must not lurk until
        # someone turns sharding on.
        with pytest.raises(KernelError):
            Kernel(lan(["a"]), config=KernelConfig(shard_backend="nope"))

    def test_every_declared_backend_is_a_string(self):
        assert BACKENDS == ("inproc", "process")

    def test_removed_thread_backend_is_rejected(self):
        with pytest.raises(KernelError, match="unknown shard_backend"):
            Kernel(lan(["a", "b"]),
                   config=KernelConfig(shards=2, shard_backend="thread"))

    def test_sharded_config_builds_the_facade_subclass(self):
        kernel = Kernel(lan(["a", "b"]), config=KernelConfig(shards=2))
        assert isinstance(kernel, ShardedKernel)
        assert isinstance(kernel, Kernel)
        assert type(Kernel(lan(["a", "b"]))) is Kernel
        kernel.close()


# ---------------------------------------------------------------------------
# the MailRouter's direct handoff path
# ---------------------------------------------------------------------------

class _FakeTransport:
    def __init__(self):
        self.delivered = []

    def _deliver(self, message):
        self.delivered.append(message)


class _FakeEngine:
    def __init__(self):
        self.loop = EventLoop()
        self.transport = _FakeTransport()
        self.stats = NetworkStats()


class _FakeMessage:
    def __init__(self, destination, message_id, size=10):
        self.destination = destination
        self.message_id = message_id
        self._size = size

    def size_bytes(self):
        return self._size


class TestMailRouter:
    def make_router(self):
        router = MailRouter({"a": 0, "b": 1})
        engines = [_FakeEngine(), _FakeEngine()]
        router.attach_engines(engines)
        return router, engines

    def test_dispatch_counts_handoff_on_sender(self):
        router, engines = self.make_router()
        router.dispatch(0, _FakeMessage("b", "m1"), delay=0.5)
        assert engines[0].stats.shard_handoffs == 1
        assert engines[0].stats.shard_handoff_bytes == 10
        assert engines[1].stats.shard_handoffs == 0

    def test_dispatch_schedules_on_owner_loop(self):
        router, engines = self.make_router()
        router.dispatch(0, _FakeMessage("b", "m1"), delay=0.5)
        assert engines[1].loop.next_event_time() == pytest.approx(0.5)
        engines[1].loop.run()
        assert [m.message_id for m in engines[1].transport.delivered] == ["m1"]

    def test_same_timestamp_handoffs_keep_dispatch_order(self):
        router, engines = self.make_router()
        for index in range(4):
            router.dispatch(0, _FakeMessage("b", f"m{index}"), delay=0.25)
        engines[1].loop.run()
        assert [m.message_id for m in engines[1].transport.delivered] \
            == ["m0", "m1", "m2", "m3"]

    def test_late_arrival_clamped_and_counted(self):
        router, engines = self.make_router()
        engines[1].loop.clock._advance_to(5.0)  # owner's clock already passed
        router.dispatch(0, _FakeMessage("b", "late"), delay=0.1)
        assert engines[0].stats.shard_late_arrivals == 1
        assert engines[1].loop.next_event_time() == pytest.approx(5.0)


# ---------------------------------------------------------------------------
# ShardSet cost attribution (the busy-time fix), with a fake timer
# ---------------------------------------------------------------------------

class _TickTimer:
    """Each call advances one fake second: attribution becomes countable."""

    def __init__(self):
        self.t = 0.0

    def __call__(self):
        self.t += 1.0
        return self.t


class _LoopEngine:
    """Just enough engine for a ShardSet: a real EventLoop, nothing else."""

    def __init__(self):
        self.loop = EventLoop()
        self.sites = {}


def two_shard_set(timer):
    topology = lan(["a", "b"], latency=0.5)
    placement = {"a": 0, "b": 1}
    clock_sync = ClockSync(topology, placement, shards=2)
    shards = [Shard(0, _LoopEngine()), Shard(1, _LoopEngine())]
    shard_set = ShardSet(shards, clock_sync,
                         backend=InprocBackend(timer), timer=timer)
    return shard_set, shards


class TestCostAttribution:
    def test_idle_shard_clock_advances_without_busy_charge(self):
        timer = _TickTimer()
        shard_set, shards = two_shard_set(timer)
        shards[0].engine.loop.schedule_at(0.1, lambda: None)
        shards[1].engine.loop.schedule_at(10.0, lambda: None)
        executed = shard_set.run(until=1.0)
        assert executed == 1
        # Shard 1 never ran an event: its clock moved (first to its granted
        # horizon, then the final until-clamp) but it was charged nothing.
        assert shards[1].busy_seconds == 0.0
        assert shards[1].engine.loop.clock.now == pytest.approx(1.0)
        # Shard 0's burst cost exactly one fake tick — the horizon
        # computation and plan building landed in sync_seconds instead
        # (the PR 6 accounting charged the whole bracket to busy).
        assert shards[0].busy_seconds == pytest.approx(1.0)
        assert shard_set.sync_seconds == pytest.approx(1.0)
        # Round wall-time minus the slowest burst: the two bracket ticks.
        assert shard_set.overhead_seconds == pytest.approx(2.0)
        assert shard_set.rounds == 1

    def test_busy_summary_reports_overhead(self):
        timer = _TickTimer()
        shard_set, shards = two_shard_set(timer)
        shards[0].engine.loop.schedule_at(0.1, lambda: None)
        shard_set.run()
        summary = shard_set.busy_summary()
        assert set(summary) >= {"max_busy", "total_busy", "sync_seconds",
                                "overhead_seconds"}
        assert summary["max_busy"] == shards[0].busy_seconds
        assert summary["overhead_seconds"] == shard_set.overhead_seconds


# ---------------------------------------------------------------------------
# a drain to quiescence leaves one common clock
# ---------------------------------------------------------------------------

def run_courier_waves(backend):
    """Waves alternate between slow couriers that stay on shard 0 and quick
    couriers from shard 1 into shard 0.  Returns every shard clock after
    each drain, and the late-arrival count."""
    from repro.bench.workloads import (SHARD_COURIER_NAME, SHARD_SINK_NAME,
                                       _shard_sink)
    from repro.core import Briefcase
    placement = {"a0": 0, "a1": 0, "b0": 1, "b1": 1}
    kernel = Kernel(lan(list(placement), latency=0.002), transport="tcp",
                    config=KernelConfig(rng_seed=3, shards=2,
                                        shard_backend=backend,
                                        shard_placement=placement))
    kernel.install_agent(None, SHARD_SINK_NAME, _shard_sink)
    clocks = []
    for wave in range(4):
        slow = wave % 2 == 0
        requests = []
        for origin, peer in ((("a0", "a1"), ("a1", "a0")) if slow
                             else (("b0", "a0"), ("b1", "a1"))):
            briefcase = Briefcase()
            briefcase.set("WORK", 1.0 if slow else 0.01)
            briefcase.set("PEER", peer)
            briefcase.set("BYTES", 16)
            requests.append((origin, SHARD_COURIER_NAME, briefcase))
        kernel.launch_many(requests)
        kernel.run()
        clocks.append([shard.engine.loop.now
                       for shard in kernel.shard_set.shards])
    late = kernel.shard_summary()["shard_late_arrivals"]
    completed = kernel.completed
    kernel.close()
    return clocks, late, completed


class TestDrainLeavesOneClock:
    """Shard clocks left apart by a drain made the next wave's cross-shard
    couriers land in their destination shard's past."""

    @pytest.mark.parametrize("backend", [
        "inproc",
        pytest.param("process", marks=pytest.mark.skipif(
            not process_backend_available(),
            reason="multiprocessing spawn unavailable"))])
    def test_clocks_meet_after_every_drain(self, backend):
        clocks, late, completed = run_courier_waves(backend)
        for after_drain in clocks:
            assert after_drain[0] == after_drain[1]
        assert clocks[-1][0] > 2.0  # both slow waves really ran
        assert late == 0
        assert completed == 4 * 2 * 3  # couriers, transfers, sinks


# ---------------------------------------------------------------------------
# ClockSync dirty-flag coalescing
# ---------------------------------------------------------------------------

class TestClockSyncDirtyFlag:
    def test_repeated_invalidations_cost_one_rebuild(self):
        topology = lan(["a", "b", "c", "d"], latency=0.01)
        clock_sync = ClockSync(topology, {"a": 0, "b": 1, "c": 0, "d": 1},
                               shards=2)
        assert clock_sync.rebuilds == 0
        clock_sync.lookahead(0, 1)
        assert clock_sync.rebuilds == 1  # lazy first build
        for _ in range(5):
            clock_sync.invalidate()  # five topology edits between rounds...
        clock_sync.horizons({0: 0.0, 1: 0.0})
        assert clock_sync.rebuilds == 2  # ...coalesce into one recompute
        clock_sync.horizons({0: 0.0, 1: 0.0})
        clock_sync.lookahead(1, 0)
        assert clock_sync.rebuilds == 2  # clean matrix is never rebuilt

    def test_facade_add_sites_coalesce_rebuilds(self):
        kernel, names = sharded_kernel("inproc")
        sync = kernel._clock_sync
        kernel.launch(names[0], "courier")
        kernel.run()  # horizons computed: first lazy rebuild happens here
        before = sync.rebuilds
        assert before >= 1
        for index in range(3):
            kernel.add_site(f"late{index}", links=[names[0]])
        assert sync.rebuilds == before  # invalidated, not yet rebuilt
        kernel.launch(names[1], "courier")
        kernel.run()
        assert sync.rebuilds == before + 1
        kernel.close()


# ---------------------------------------------------------------------------
# budget semantics across backends
# ---------------------------------------------------------------------------

class TestBudgetStop:
    @pytest.mark.parametrize("backend", ["inproc"])
    def test_budget_stops_at_same_point_and_resumes(self, backend):
        # Launch, stop after exactly 5 events, resume to quiescence.
        from repro.bench.workloads import (SHARD_COURIER_NAME,
                                           SHARD_SINK_NAME, _shard_sink)
        from repro.core import Briefcase
        kernel, names = sharded_kernel(backend)
        kernel.install_agent(None, SHARD_SINK_NAME, _shard_sink)
        for index in range(8):
            briefcase = Briefcase()
            briefcase.set("WORK", 0.01)
            briefcase.set("PEER", names[(index + 5) % len(names)])
            briefcase.set("BYTES", 16)
            kernel.launch(names[index % len(names)], SHARD_COURIER_NAME,
                          briefcase)
        first = kernel.run(max_events=5)
        assert first == 5
        remaining = kernel.run()
        assert remaining > 0
        assert kernel.counters()["completed"] == 24  # couriers, transfers, sinks
        kernel.close()

    @pytest.mark.skipif(not process_backend_available(),
                        reason="multiprocessing spawn unavailable")
    def test_process_budget_stop(self):
        from repro.bench.workloads import (SHARD_COURIER_NAME,
                                           SHARD_SINK_NAME, _shard_sink)
        from repro.core import Briefcase
        kernel, names = sharded_kernel("process")
        kernel.install_agent(None, SHARD_SINK_NAME, _shard_sink)
        for index in range(8):
            briefcase = Briefcase()
            briefcase.set("WORK", 0.01)
            briefcase.set("PEER", names[(index + 5) % len(names)])
            briefcase.set("BYTES", 16)
            kernel.launch(names[index % len(names)], SHARD_COURIER_NAME,
                          briefcase)
        assert kernel.run(max_events=5) == 5
        assert kernel.run() > 0
        assert kernel.counters()["completed"] == 24
        kernel.close()


# ---------------------------------------------------------------------------
# the facade surface: shard_summary, close, backend equivalence
# ---------------------------------------------------------------------------

class TestFacadeSurface:
    def test_shard_summary_surfaces_coordination_ledger(self):
        from repro.bench.workloads import ShardedChurnParams, \
            execute_sharded_churn
        kernel, _result = execute_sharded_churn(ShardedChurnParams(
            n_sites=8, n_agents=16, wave_size=8, shards=4, seed=11,
            backend="inproc"))
        summary = kernel.shard_summary()
        assert summary["shards"] == 4
        assert summary["backend"] == "inproc"
        assert summary["shard_handoffs"] > 0
        assert summary["shard_handoff_bytes"] > 0
        assert summary["shard_late_arrivals"] == 0
        assert summary["rounds"] > 0
        assert summary["clock_rebuilds"] >= 1
        kernel.close()

    def test_shard_summary_on_classic_kernel(self):
        kernel = Kernel(lan(["a", "b"]))
        summary = kernel.shard_summary()
        assert summary == {"shards": 1, "backend": None, "shard_handoffs": 0,
                           "shard_handoff_bytes": 0, "shard_late_arrivals": 0}
        kernel.close()  # no-op, must not raise

    def test_close_is_idempotent(self):
        kernel, _names = sharded_kernel("inproc")
        kernel.run(until=0.01)
        kernel.close()
        kernel.close()


# ---------------------------------------------------------------------------
# serialisation plumbing the process backend rides on
# ---------------------------------------------------------------------------

class TestStatsStatePortability:
    def test_export_load_round_trip(self):
        stats = NetworkStats()
        stats.record_shard_handoff(128)
        stats.record_shard_late_arrival()
        stats.messages_sent = 7
        stats.per_kind["FOLDER"] = 3
        exported = stats.export_state()
        pickle.dumps(exported)  # must cross a process boundary

        loaded = NetworkStats()
        loaded.load_state(exported)
        assert loaded.snapshot() == stats.snapshot()
        loaded.per_kind["NEW"] += 1  # defaultdict behaviour survives load
        assert loaded.per_kind["NEW"] == 1

    def test_export_is_a_copy(self):
        stats = NetworkStats()
        exported = stats.export_state()
        exported["messages_sent"] = 99
        assert stats.messages_sent == 0


class TestRouteCacheAndFabric:
    def test_path_cost_is_cached_and_bit_identical(self):
        topology = lan(["a", "b", "c"], latency=0.003)
        first = topology.path_cost("a", "c", size_bytes=640)
        again = topology.path_cost("a", "c", size_bytes=640)
        assert first == again

    def test_cache_invalidated_by_topology_change(self):
        topology = lan(["a", "b", "c"], latency=0.003)
        before = topology.path_cost("a", "c", size_bytes=0)
        topology.add_site("d")
        topology.add_link("a", "d", LinkSpec(latency=0.0001))
        topology.add_link("d", "c", LinkSpec(latency=0.0001))
        after = topology.path_cost("a", "c", size_bytes=0)
        assert after[0] < before[0]  # the shortcut is visible, not cached over

    def test_cached_route_respects_site_down(self):
        topology = lan(["a", "b"], latency=0.003)
        topology.path_cost("a", "b", size_bytes=0)
        topology.mark_down("b")
        with pytest.raises(NoRouteError):
            topology.path_cost("a", "b", size_bytes=0)

    def test_switched_fabric_scales_linearly_in_edges(self):
        hosts = [f"h{i:03d}" for i in range(120)]
        topology = switched_fabric(hosts, hosts_per_switch=40)
        # 120 host uplinks + full mesh over 3 switches = 123 edges.
        assert len(list(topology.links())) == 123
        cost, hops, _loss = topology.path_cost("h000", "h119", size_bytes=0)
        assert hops == 3  # host -> switch -> switch -> host
        assert cost > 0


# ---------------------------------------------------------------------------
# process backend odds and ends (gated on spawn availability)
# ---------------------------------------------------------------------------

@pytest.mark.skipif(not process_backend_available(),
                    reason="multiprocessing spawn unavailable")
class TestProcessFacade:
    def test_crash_and_recover_cross_worker(self):
        from repro.bench.workloads import SHARD_SINK_NAME, _shard_sink
        kernel, names = sharded_kernel("process", site_count=6, shards=3)
        kernel.install_agent(None, SHARD_SINK_NAME, _shard_sink)
        kernel.crash_site(names[0])
        assert not kernel.sites[names[0]].alive
        kernel.recover_site(names[0])
        assert kernel.sites[names[0]].alive
        kernel.close()

    def test_loop_scheduling_raises_a_clear_error(self):
        kernel, _names = sharded_kernel("process", site_count=4, shards=2)
        with pytest.raises(KernelError, match="worker-side"):
            kernel.loop.schedule(0.1, lambda: None)
        kernel.close()

    def test_site_callbacks_refused(self):
        kernel, _names = sharded_kernel("process", site_count=4, shards=2)
        with pytest.raises(KernelError, match="process boundary"):
            kernel.on_site_added(lambda name: None)
        kernel.close()

    def test_preload_skips_path_loaded_modules(self):
        """A behaviour registered by a module loaded from an explicit file
        path (a test importing an example script) must not be shipped as a
        worker preload — the spawn child cannot import it by name and every
        process-backend kernel in the session would fail at startup."""
        from repro.core.registry import BehaviourRegistry
        from repro.shard.procworker import preload_module_names

        def stray(ctx, bc):
            yield ctx.sleep(0)

        stray.__module__ = "example_loaded_from_a_file_path"
        registry = BehaviourRegistry()
        registry.register("stray", stray)
        from repro.bench.workloads import _shard_sink
        registry.register("sink", _shard_sink)
        modules = preload_module_names(registry)
        assert "example_loaded_from_a_file_path" not in modules
        assert "repro.bench.workloads" in modules
