"""Shard execution backends: where each round's bursts actually run.

The :class:`~repro.shard.shardset.ShardSet` computes horizons and builds a
per-round **burst plan** (which shards run, to which horizon), and the
backend decides where those bursts execute:

``inproc``
    The serial round loop: every burst on the coordinator thread.  The
    baseline the process backend is property-tested against.

``process``
    One long-lived spawn worker per shard
    (:class:`~repro.shard.procworker.ProcessBackend`): the coordinator
    sends ``run_to(horizon, budget)`` commands over pipes and receives
    ``(events, busy, now, next_event_time, handoffs)`` replies; facade
    views are served from per-run state digests.

Budget semantics are part of the contract: ``run(max_events)`` consumes
one *global* budget in shard order, so any backend given a finite budget
executes that round serially — identical stop points on every backend is
what the budget-stop tests pin.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from repro.core.errors import KernelError
from repro.core.timing import default_timer

__all__ = ["BACKENDS", "InprocBackend", "ShardBackend", "make_backend",
           "process_backend_available"]

#: the valid ``KernelConfig.shard_backend`` values
BACKENDS = ("inproc", "process")


class ShardBackend:
    """Executes one round's per-shard bursts; subclasses pick the substrate.

    The coordinator calls, per :meth:`ShardSet.run <repro.shard.shardset.
    ShardSet.run>` round, :meth:`run_bursts` with the burst plan, plus
    :meth:`advance_clock` for shards idle this round; once per ``run()``
    call it calls :meth:`finish_run` (the process backend pulls state
    digests here) and, at kernel shutdown, :meth:`close`.
    """

    name = "abstract"

    def __init__(self, timer: Callable[[], float] = default_timer):
        self.timer = timer

    # -- per-round hooks --------------------------------------------------------

    def run_bursts(self, plans: List[Tuple[object, Optional[float]]],
                   budget: Optional[int]) -> Tuple[int, float]:
        """Run every ``(shard, horizon)`` burst; horizon ``None`` = drain.

        Returns ``(events_executed, max_single_burst_seconds)``; the
        coordinator derives per-round overhead as round wall-time minus the
        slowest burst.  A finite *budget* forces serial shard-order
        execution so the global stop point matches ``inproc`` exactly.
        """
        raise NotImplementedError

    def advance_clock(self, shard, target: float) -> None:
        """Move an idle shard's clock to *target* (never backwards).

        Replicates the clock advance ``run_until`` would have performed,
        without charging the shard busy time for a zero-event burst.
        """
        clock = shard.engine.loop.clock
        clock._advance_to(max(clock.now, target))

    # -- lifecycle --------------------------------------------------------------

    def finish_run(self) -> None:
        """Called once when ``ShardSet.run`` returns control to the caller."""

    def close(self) -> None:
        """Release worker processes (idempotent)."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class InprocBackend(ShardBackend):
    """The serial round loop: every burst on the coordinator thread."""

    name = "inproc"

    def run_bursts(self, plans, budget):
        total = 0
        busy_max = 0.0
        for shard, horizon in plans:
            remaining = None if budget is None else budget - total
            if remaining is not None and remaining <= 0:
                break
            loop = shard.engine.loop
            start = self.timer()
            if horizon is None:
                executed = loop.run(max_events=remaining)
            else:
                executed = loop.run_until(horizon, max_events=remaining)
            elapsed = self.timer() - start
            shard.busy_seconds += elapsed
            total += executed
            if elapsed > busy_max:
                busy_max = elapsed
        return total, busy_max


def make_backend(name: str,
                 timer: Callable[[], float] = default_timer) -> ShardBackend:
    """Resolve a ``KernelConfig.shard_backend`` name to a backend instance.

    ``process`` is constructed directly by the kernel facade (it needs the
    full worker build spec); asking for it here names the entry point so
    the error is actionable.
    """
    if name == "inproc":
        return InprocBackend(timer)
    if name == "process":
        raise KernelError(
            "the process backend is built by the Kernel facade "
            "(repro.shard.procworker.ProcessBackend), not make_backend()")
    raise KernelError(
        f"unknown shard_backend {name!r}; expected one of {BACKENDS}")


# -- process-backend availability probe ----------------------------------------

_PROCESS_PROBE: Optional[bool] = None


def _probe_child(conn) -> None:  # pragma: no cover - runs in the child
    conn.send("ok")
    conn.close()


def process_backend_available() -> bool:
    """True when spawn-context multiprocessing round-trips on this host.

    Sandboxes and exotic platforms sometimes lack working process spawn or
    pipe semantics; tests and benchmarks gate their process arms on this
    (cached) one-shot probe rather than failing mid-run.
    """
    global _PROCESS_PROBE
    if _PROCESS_PROBE is None:
        try:
            import multiprocessing
            ctx = multiprocessing.get_context("spawn")
            parent, child = ctx.Pipe()
            proc = ctx.Process(target=_probe_child, args=(child,), daemon=True)
            proc.start()
            child.close()
            ok = parent.poll(30) and parent.recv() == "ok"
            proc.join(10)
            parent.close()
            _PROCESS_PROBE = bool(ok)
        except Exception:
            _PROCESS_PROBE = False
    return _PROCESS_PROBE
