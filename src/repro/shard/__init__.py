"""Sharded multi-kernel simulation: conservative parallel discrete events.

The paper's TACOMA system ran agents across many independent Unix hosts;
this package lets the reproduction do the same with its simulation.  With
``KernelConfig(shards=N)``, ``Kernel(...)`` builds a :class:`ShardedKernel`
facade over a :class:`ShardSet`: sites are partitioned across N shard
engines (deterministic CRC-32 hash or an explicit placement map), each
with its own :class:`~repro.net.simclock.EventLoop`, transport and
ledgers, advanced in conservative synchronisation rounds
(:class:`ClockSync`) with cross-shard traffic handed over by the
:class:`MailRouter` through a shard-boundary transport adapter.

>>> from repro.core import Kernel, KernelConfig
>>> from repro.net import lan
>>> kernel = Kernel(lan([f"site{i}" for i in range(8)]),
...                 config=KernelConfig(shards=4))
>>> kernel.run()  # doctest: +SKIP

``KernelConfig(shard_backend=...)`` selects where each round's bursts
execute (:mod:`repro.shard.backend`): ``inproc`` (serial, the default) or
``process`` (long-lived spawn workers, real multi-core parallelism).  Both
are property-tested to produce identical simulation results.

``shards=1`` (the default) never builds any of this: the kernel runs the
classic single event loop, behaviourally identical to every prior release.
"""

from repro.shard.backend import (BACKENDS, InprocBackend, ShardBackend,
                                 make_backend, process_backend_available)
from repro.shard.clocksync import MIN_LOOKAHEAD, ClockSync
from repro.shard.facade import ShardedKernel
from repro.shard.placement import default_shard_of, resolve_placement
from repro.shard.procworker import ProcessBackend, WorkerSpec
from repro.shard.router import MailRouter, ShardBoundary, ShardContext
from repro.shard.shardset import Shard, ShardSet

__all__ = [
    "BACKENDS", "InprocBackend", "ShardBackend",
    "make_backend", "process_backend_available", "ShardedKernel",
    "ClockSync", "MIN_LOOKAHEAD",
    "MailRouter", "ShardBoundary", "ShardContext",
    "ProcessBackend", "WorkerSpec",
    "Shard", "ShardSet",
    "default_shard_of", "resolve_placement",
]
