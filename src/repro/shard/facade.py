"""The sharded kernel facade: one classic-looking kernel over N shard engines.

``Kernel(config=KernelConfig(shards=N))`` with N > 1 builds a
:class:`ShardedKernel`: sites are partitioned by the placement map, each
shard engine has its own event loop, transport and ledgers, and the facade
re-exposes the classic surface through merged views plus delegation.

An engine is an in-process :class:`~repro.core.kernel.Kernel` (``inproc``)
or a :class:`~repro.shard.procworker.ProcessEngineProxy` (``process``);
both answer the same engine calls (``launch``, ``add_site``,
``site_assigned``, ``remote_site_down``, ``apply_partition``, ...), so each
facade operation has one code path.  In-process engines share the facade's
topology object; each worker holds a copy the same calls keep in step.
Crash state lives with the owning engine: read ``kernel.sites[name].alive``.
"""

from __future__ import annotations

from collections import ChainMap
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence

from repro.core.errors import KernelError, UnknownSiteError
from repro.core.kernel import Kernel, KernelConfig
from repro.core.lifecycle import MergedAgentTable
from repro.core.registry import default_registry
from repro.net.stats import StatsView
from repro.net.topology import lan
from repro.net.transport import Transport
from repro.obs import MetricsView, Tracer, TracerView
from repro.shard.backend import make_backend
from repro.shard.clocksync import ClockSync
from repro.shard.placement import default_shard_of, resolve_placement
from repro.shard.router import MailRouter, ShardContext
from repro.shard.shardset import Shard, ShardSet

__all__ = ["ShardedKernel"]


def _summed(counter: str) -> property:
    """A facade ledger counter: the sum of every engine's."""
    return property(lambda self: sum(getattr(engine, counter)
                                     for engine in self._engines))


class ShardedKernel(Kernel):
    """A :class:`Kernel` whose sites run on N shard engines.

    Built by ``Kernel(...)`` itself whenever ``config.shards > 1``; the
    constructor arguments are the classic kernel's.
    """

    def __init__(self, topology=None, transport="tcp",
                 config: Optional[KernelConfig] = None,
                 install_system_agents: bool = True, registry=None,
                 retention=None, _shard_ctx=None):
        self.config = config or KernelConfig()
        self._check_config()
        if isinstance(transport, Transport):
            raise KernelError(
                "a sharded kernel builds one transport per shard; pass a "
                "transport name or class, not a constructed instance")
        self.topology = topology if topology is not None else lan(["alpha", "beta", "gamma"])
        self.registry = registry or default_registry()
        placement = resolve_placement(self.topology.sites(), self.config.shards,
                                      self.config.shard_placement)
        router = MailRouter(placement)
        clock_sync = ClockSync(self.topology, router.placement,
                               shards=self.config.shards,
                               flow_bonus=self.config.flow_window_min)
        router.clock_sync = clock_sync
        if self.config.shard_backend == "process":
            backend = self._spawn_process_engines(
                transport, install_system_agents, retention, router)
            engines = backend.proxies
        else:
            engines = [Kernel(topology=self.topology, transport=transport,
                              config=self.config,
                              install_system_agents=install_system_agents,
                              registry=self.registry, retention=retention,
                              _shard_ctx=ShardContext(
                                  shard_id, router.owned_by(shard_id), router))
                       for shard_id in range(self.config.shards)]
            backend = make_backend(self.config.shard_backend)
        router.attach_engines(engines)
        self._engines = engines
        self._router = router
        self._clock_sync = clock_sync
        self.shard_set = ShardSet([Shard(shard_id, engine)
                                   for shard_id, engine in enumerate(engines)],
                                  clock_sync, backend=backend)

        # The merged facade surface: one API over N shards.
        self.stats = StatsView([engine.stats for engine in engines])
        #: the facade's own tracer (sync-round spans ride the ShardSet
        #: clock); every engine span is merged in through the TracerView
        facade_tracer = (Tracer(clock=self.shard_set,
                                sample=self.config.obs_sample)
                         if self.config.obs_enabled else None)
        self.obs = TracerView([engine.obs for engine in engines],
                              own=facade_tracer)
        self.shard_set.obs = facade_tracer
        self.metrics = MetricsView([engine.metrics for engine in engines])
        self.metrics.register("net", self.stats.snapshot)
        self.table = MergedAgentTable([engine.table for engine in engines])
        self.sites = ChainMap(*[engine.sites for engine in engines])
        self.stores = ChainMap(*[engine.stores for engine in engines])
        self.durability = engines[0].durability
        #: shard 0 anchors the pieces that need a single identity: failure
        #: schedules ride its clock and code that introspects
        #: ``kernel.transport`` sees its transport (None when it lives in a
        #: worker process)
        self.loop = engines[0].loop
        self.transport = engines[0].transport
        self.rng = engines[0].rng

    def _spawn_process_engines(self, transport, install_system_agents,
                               retention, router: MailRouter):
        """Build the process backend: one spawn worker per shard.

        The facade keeps :class:`ProcessEngineProxy` objects where the
        in-process backend keeps engine kernels; the merged views and the
        engine calls work over either because the proxies present the same
        surface (served from worker state digests).
        """
        import pickle

        from repro.shard.procworker import (ProcessBackend, WorkerSpec,
                                            preload_module_names)
        if self.registry is not default_registry():
            raise KernelError(
                "shard_backend='process' rebuilds behaviours from the "
                "process-wide default registry in each worker; a custom "
                "registry instance cannot cross the process boundary (use "
                "shard_backend='inproc' or register behaviours in the "
                "default registry)")
        try:
            pickle.dumps((self.config, retention, transport, self.topology))
        except Exception as error:
            raise KernelError(
                "shard_backend='process' ships the topology, config and "
                f"transport to spawn workers, but pickling failed: {error} "
                "(pass the transport by name, keep LinkSpec-based "
                "topologies, and avoid closures in the config)") from None
        preload = preload_module_names(self.registry)
        specs = [WorkerSpec(shard_id=shard_id, topology=self.topology,
                            transport=transport, config=self.config,
                            install_system_agents=install_system_agents,
                            retention=retention,
                            owned=router.owned_by(shard_id),
                            placement=router.placement,
                            preload_modules=preload)
                 for shard_id in range(self.config.shards)]
        # The live placement map lets late-joining sites (add_site) route.
        return ProcessBackend(specs, router.placement, router.clock_sync)

    # ------------------------------------------------------------------
    # merged ledgers
    # ------------------------------------------------------------------

    meets = _summed("meets")
    transmits = _summed("transmits")
    arrivals = _summed("arrivals")
    undeliverable = _summed("undeliverable")

    @property
    def event_log(self) -> List[tuple]:
        """Every shard's event log, merged in time order."""
        merged = []
        for engine in self._engines:
            merged.extend(engine.event_log)
        merged.sort(key=lambda entry: entry[0])
        return merged

    def shard_summary(self) -> Dict[str, Any]:
        summary = super().shard_summary()
        summary.update({
            "shards": self.config.shards,
            "backend": self.shard_set.backend.name,
            "rounds": self.shard_set.rounds,
            "sync_seconds": self.shard_set.sync_seconds,
            "overhead_seconds": self.shard_set.overhead_seconds,
            "clock_rebuilds": self._clock_sync.rebuilds,
        })
        return summary

    # ------------------------------------------------------------------
    # running
    # ------------------------------------------------------------------

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> int:
        """Advance every shard in conservative synchronisation rounds.

        *until* is honoured globally (no shard's clock passes it) and
        *max_events* is one global budget shared across shards, not a
        per-shard allowance.
        """
        return self.shard_set.run(until=until, max_events=max_events)

    @property
    def now(self) -> float:
        """Current simulated time: the slowest shard's clock."""
        return self.shard_set.now

    def close(self) -> None:
        """Shut the backend's worker processes down (idempotent).

        With ``obs_path`` set the merged trace is written first: engines
        ring-buffer their spans and the facade owns the file.  A
        process-backend facade whose workers are gone cannot run further.
        """
        if self.config.obs_enabled and self.config.obs_path is not None:
            self.dump_trace(self.config.obs_path)
        self.shard_set.close()

    # ------------------------------------------------------------------
    # delegation to the owning engine(s)
    # ------------------------------------------------------------------

    def _engine_for(self, site_name: str):
        """The shard engine owning *site_name*."""
        owner = self._router.placement.get(site_name)
        if owner is None:
            raise UnknownSiteError(f"unknown site {site_name!r}")
        return self._engines[owner]

    def _other_engines(self, owner) -> List:
        return [engine for engine in self._engines if engine is not owner]

    def launch(self, site_name: str, behaviour, briefcase=None,
               name: Optional[str] = None, system: bool = False,
               delay: float = 0.0) -> str:
        return self._engine_for(site_name).launch(
            site_name, behaviour, briefcase, name=name, system=system,
            delay=delay)

    def launch_many(self, requests: Sequence[tuple],
                    delay: float = 0.0) -> List[str]:
        """One batched scheduler pass per owning shard.

        Site names are validated up front; ids come back in request order.
        Atomicity is per shard — a behaviour that fails to resolve aborts
        its own shard's batch, but batches already handed to other shards
        stay launched (cross-shard launches are independent by design).
        """
        requests = list(requests)
        grouped: Dict[int, List[int]] = {}
        for index, request in enumerate(requests):
            grouped.setdefault(id(self._engine_for(request[0])), []).append(index)
        ids: List[Optional[str]] = [None] * len(requests)
        for engine in self._engines:
            indexes = grouped.get(id(engine))
            if not indexes:
                continue
            batch_ids = engine.launch_many([requests[i] for i in indexes],
                                           delay=delay)
            for position, index in enumerate(indexes):
                ids[index] = batch_ids[position]
        return ids

    def install_agent(self, site_name: Optional[str], name: str,
                      behaviour: Callable, system: bool = False,
                      replace: bool = False) -> None:
        targets = (self._engines if site_name is None
                   else [self._engine_for(site_name)])
        for engine in targets:
            engine.install_agent(site_name, name, behaviour, system=system,
                                 replace=replace)

    def log_event(self, agent_id: str, site_name: str, message: str) -> None:
        """Log on the shard owning *site_name*, stamped with its clock.

        Only events about unplaced scopes (``"*"``, facade-level notes)
        fall back to shard 0.
        """
        owner = self._router.placement.get(site_name, 0)
        self._engines[owner].log_event(agent_id, site_name, message)

    def make_durable(self, cabinet_name: str,
                     sites: Optional[Iterable[str]] = None) -> int:
        """Opt in per owning shard: one engine call per shard."""
        targets = list(sites) if sites is not None else self.site_names()
        by_owner: Dict[int, List[str]] = {}
        for site_name in targets:
            owner = self._router.placement.get(site_name)
            if owner is None:
                raise UnknownSiteError(f"unknown site {site_name!r}")
            by_owner.setdefault(owner, []).append(site_name)
        return sum(self._engines[owner].make_durable(cabinet_name, sites=names)
                   for owner, names in by_owner.items())

    def on_site_added(self, callback: Callable[[str], None]) -> None:
        # Each engine fires for the sites it hosts; subscribing everywhere
        # keeps the contract: one call per added site, whichever shard.
        for engine in self._engines:
            engine.on_site_added(callback)

    def on_site_recovered(self, callback: Callable[[str], None]) -> None:
        for engine in self._engines:
            engine.on_site_recovered(callback)

    # ------------------------------------------------------------------
    # topology changes and failures
    # ------------------------------------------------------------------

    def add_site(self, name: str, links: Sequence = (),
                 install_system_agents: Optional[bool] = None):
        """Place the newcomer, build it on its owner, tell everyone else.

        The owning engine runs the full ``add_site`` (site object,
        endpoint, stores, system agents, "site added" log line); the other
        engines learn the placement and the new topology edges so their
        routing and any relayed traffic see the newcomer.
        """
        if name in self._router.placement:
            raise KernelError(f"site {name!r} already exists")
        owner = int((self.config.shard_placement or {}).get(
            name, default_shard_of(name, self.config.shards)))
        if not 0 <= owner < self.config.shards:
            raise KernelError(f"shard_placement[{name!r}] = {owner} is "
                              f"outside [0, {self.config.shards})")
        resolved = self._join_topology(name, links)
        self._router.assign(name, owner)
        try:
            self._engines[owner].add_site(
                name, links=resolved, install_system_agents=install_system_agents)
        except Exception:
            self._router.unassign(name)
            raise
        for engine in self._other_engines(self._engines[owner]):
            engine.site_assigned(name, resolved, owner)
        self._clock_sync.invalidate()
        return self.sites[name]

    def crash_site(self, name: str) -> None:
        owner = self._engine_for(name)
        owner.crash_site(name)
        for engine in self._other_engines(owner):
            engine.remote_site_down(name)

    def recover_site(self, name: str) -> None:
        owner = self._engine_for(name)
        owner.recover_site(name)
        for engine in self._other_engines(owner):
            engine.remote_site_up(name)

    def partition(self, groups: Sequence[Iterable[str]]) -> None:
        groups = [list(group) for group in groups]
        self.topology.set_partition(groups)
        for engine in self._engines:
            engine.apply_partition(groups)
        self.log_event("kernel", "*", f"partition installed: {groups}")

    def heal_partition(self) -> None:
        self.topology.heal_partition()
        for engine in self._engines:
            engine.apply_heal()
        self.log_event("kernel", "*", "partition healed")

    def __repr__(self) -> str:
        return (f"ShardedKernel({len(self.sites)} sites on "
                f"{self.config.shards} shards, "
                f"backend={self.shard_set.backend.name!r}, "
                f"agents={len(self.table)}, t={self.now:.4f})")
