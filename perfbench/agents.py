"""Agent behaviours the benchmark workloads run.

Kept in their own small module so a spawned shard worker, which re-imports
the module of every registered behaviour, loads nothing else of the
benchmark.  Every delivery is logged as ``rx <op id> <born>`` through the
kernel event log: that log is merged across shards and worker processes,
so one reader serves the classic and the process-backend kernels alike.
"""

from __future__ import annotations

from repro.core.folder import Folder
from repro.core.registry import register_behaviour

#: registered name of the churn courier
COURIER = "perfbench_courier"
#: registered name of the paced fan-in sender
SENDER = "perfbench_sender"
#: contact name of the per-site sink that logs each delivered folder
SINK = "perfbench_sink"
#: event-log prefix of one delivery
RX = "rx "


def sink(ctx, briefcase):
    """File nothing; log which operation's folder arrived, and when it was born."""
    for element in briefcase.folder(briefcase.get("PAYLOAD_NAME")).elements():
        ctx.log(f"{RX}{element['op']} {element['born']!r}")
    yield ctx.sleep(0)
    return True


def courier(ctx, briefcase):
    """One churn agent: work locally, then courier one folder to the peer site."""
    yield ctx.sleep(briefcase.get("WORK"))
    folder = Folder("REPORT", [{"op": briefcase.get("OP"), "born": briefcase.get("BORN"),
                                "payload": b"\0" * briefcase.get("BYTES")}])
    yield ctx.send_folder(folder, briefcase.get("PEER"), SINK)
    return True


def sender(ctx, briefcase):
    """One fan-in site: courier COUNT stamped folders to the hub, GAP apart."""
    hub, prefix = briefcase.get("HUB"), briefcase.get("OP")
    gap, size = briefcase.get("GAP"), briefcase.get("BYTES")
    for index in range(briefcase.get("COUNT")):
        folder = Folder("REPORT", [{"op": f"{prefix}.{index}", "born": ctx.now,
                                    "payload": b"\0" * size}])
        yield ctx.send_folder(folder, hub, SINK)
        yield ctx.sleep(gap)
    return True


register_behaviour(COURIER, courier, replace=True)
register_behaviour(SENDER, sender, replace=True)
