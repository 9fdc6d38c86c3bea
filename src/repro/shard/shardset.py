"""The shard coordinator: N engine kernels advanced in conservative rounds.

The :class:`ShardSet` is what the sharded kernel facade
(:class:`~repro.shard.facade.ShardedKernel`) delegates ``run()`` to.  Each
round it:

1. reads every shard's next-event time and asks the
   :class:`~repro.shard.clocksync.ClockSync` for safe horizons,
2. builds the round's **burst plan** — shards with an event due before
   their horizon — and hands it to the execution backend
   (:mod:`repro.shard.backend`: serial ``inproc`` or ``process``
   workers).  Shards whose next event lies beyond their horizon only get
   their clock advanced; they are *not* charged busy time for a
   zero-event burst.

Rounds repeat until every queue drains, every next event lies beyond
``until``, or the global ``max_events`` budget is exhausted.  The budget
is global — shards share it in shard order, which forces serial execution
on every backend — and exhausting it leaves every clock exactly where its
last event fired, mirroring the single-loop ``run_until`` semantics.  A
clean finish leaves every clock on one common time: ``until`` when given,
else the latest shard clock, so the next launch starts everywhere at once.

Timing uses an injectable ``timer`` (default
:data:`repro.core.timing.default_timer`) so
tests can pin exactly what lands in ``busy_seconds`` vs ``sync_seconds``
vs ``overhead_seconds`` with a fake clock.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.core.timing import default_timer
from repro.shard.backend import InprocBackend, ShardBackend
from repro.shard.clocksync import ClockSync

__all__ = ["Shard", "ShardSet"]


class Shard:
    """One shard: an engine kernel plus its coordination bookkeeping."""

    __slots__ = ("shard_id", "engine", "busy_seconds")

    def __init__(self, shard_id: int, engine):
        self.shard_id = shard_id
        self.engine = engine
        #: wall-clock seconds this shard's loop spent executing events
        #: (accumulated around every run burst; the E14 scaling metric)
        self.busy_seconds = 0.0

    @property
    def sites(self) -> int:
        return len(self.engine.sites)

    @property
    def events_processed(self) -> int:
        return self.engine.loop.processed

    def __repr__(self) -> str:
        return (f"Shard({self.shard_id}, sites={self.sites}, "
                f"t={self.engine.loop.now:.4f})")


class ShardSet:
    """The coordinator advancing every shard under conservative clock sync."""

    def __init__(self, shards: List[Shard], clock_sync: ClockSync,
                 backend: Optional[ShardBackend] = None,
                 timer: Callable[[], float] = default_timer):
        self.shards = list(shards)
        self.clock_sync = clock_sync
        self.backend = backend if backend is not None else InprocBackend(timer)
        self.timer = timer
        #: synchronisation rounds executed (telemetry for E14/E15)
        self.rounds = 0
        #: wall-clock seconds spent reading next-event times, computing
        #: horizons, and building burst plans between bursts
        self.sync_seconds = 0.0
        #: wall-clock seconds of per-round dispatch overhead: round wall
        #: time minus the slowest burst (worker round-trips).  inproc
        #: rounds pay total-minus-max serialisation here too, so E15 can
        #: break coordination cost out of the speedup.
        self.overhead_seconds = 0.0
        #: the facade's own tracer (repro.obs), set by the ShardedKernel
        #: when observability is on; records one span per run() drive
        self.obs = None

    # -- clocks -----------------------------------------------------------------

    @property
    def now(self) -> float:
        """The conservative global time: the slowest shard's clock."""
        return min(shard.engine.loop.now for shard in self.shards)

    def next_event_times(self) -> Dict[int, Optional[float]]:
        return {shard.shard_id: shard.engine.loop.next_event_time()
                for shard in self.shards}

    # -- running ----------------------------------------------------------------

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> int:
        """Advance every shard; returns the total events executed.

        ``until`` is honoured globally: no shard's clock passes it, and on
        a clean finish every clock lands exactly on it.  A clean drain
        (``until=None``) moves every clock to the latest shard clock, as
        one loop draining the same events would have.  ``max_events`` is a
        single global budget consumed across shards in shard order.
        """
        total = 0
        timer = self.timer
        backend = self.backend
        budget_stopped = False
        obs = self.obs if (self.obs is not None and self.obs.active) else None
        if obs is not None:
            from repro.obs import infra_trace_id
            run_span = obs.begin(
                infra_trace_id("shard", "coordinator"), "shard-run",
                obs.next_key("run"), kind="shard",
                attrs={"shards": len(self.shards),
                       "rounds_before": self.rounds})
        while True:
            if max_events is not None and total >= max_events:
                # Budget exhausted mid-stream: clocks stay where their
                # last event left them (matching single-loop run_until).
                budget_stopped = True
                break
            sync_start = timer()
            next_times = self.next_event_times()
            live = [at for at in next_times.values() if at is not None]
            if not live:
                break
            if until is not None and min(live) > until + 1e-12:
                break
            horizons = self.clock_sync.horizons(next_times)
            self.rounds += 1
            plans: List[Tuple[Shard, Optional[float]]] = []
            for shard in self.shards:
                at = next_times[shard.shard_id]
                if at is None:
                    continue
                horizon = horizons[shard.shard_id]
                if until is not None:
                    horizon = until if horizon is None else min(horizon, until)
                if horizon is not None and at > horizon + 1e-12:
                    # Nothing due this round: advance the clock exactly
                    # as run_until would, but charge no busy time.
                    backend.advance_clock(shard, horizon)
                    continue
                plans.append((shard, horizon))
            self.sync_seconds += timer() - sync_start
            remaining = None if max_events is None else max_events - total
            round_start = timer()
            executed, busy_max = backend.run_bursts(plans, remaining)
            self.overhead_seconds += max(
                0.0, (timer() - round_start) - busy_max)
            total += executed
        if not budget_stopped:
            # Clean finish: every shard's clock lands on one common time —
            # the target, exactly like the single-loop run_until (events
            # beyond it stay queued), or after a drain the latest clock, so
            # the next launch cannot start on clocks that are apart.
            target = until if until is not None else max(
                shard.engine.loop.now for shard in self.shards)
            for shard in self.shards:
                backend.advance_clock(shard, target)
        backend.finish_run()
        if obs is not None:
            obs.finish(run_span, events=total,
                       rounds=self.rounds - run_span.attrs["rounds_before"])
        return total

    def close(self) -> None:
        """Shut down the execution backend (worker processes)."""
        self.backend.close()

    # -- telemetry --------------------------------------------------------------

    def busy_summary(self) -> Dict[str, float]:
        """Per-shard busy wall-time plus the parallel-model aggregate."""
        per_shard = {f"shard{shard.shard_id}": shard.busy_seconds
                     for shard in self.shards}
        per_shard["max_busy"] = max(
            (shard.busy_seconds for shard in self.shards), default=0.0)
        per_shard["total_busy"] = sum(shard.busy_seconds for shard in self.shards)
        per_shard["sync_seconds"] = self.sync_seconds
        per_shard["overhead_seconds"] = self.overhead_seconds
        return per_shard

    def __repr__(self) -> str:
        return (f"ShardSet({len(self.shards)} shards, "
                f"backend={self.backend.name}, rounds={self.rounds}, "
                f"now={self.now:.4f})")
