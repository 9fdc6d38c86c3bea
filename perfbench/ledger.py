"""The per-layer cost ledger: deterministic profile time aggregated per layer.

A layer is a module of the program (``core.kernel``, ``net.simclock``, ...)
or, for the subsystems that are packages of their own, the package
(``flow``, ``store``, ``fault``, ``shard``, ``obs``, ``sysagents``).  The
workloads' agent behaviours are the ``app`` layer.  Self time of stdlib,
builtin and third-party functions (pickle, heapq, networkx, ...) is charged
to the nearest calling program layer, split by how much of it each caller
incurred; time with no program frame above it is ``untracked``.
"""

from __future__ import annotations

import cProfile
import os
import pstats
from collections import defaultdict
from typing import Dict, Optional, Tuple

#: the layers that get their own ledger line; other program modules are "other"
LAYERS = (
    "net.simclock", "core.kernel", "core.agent", "core.context", "core.lifecycle",
    "core.briefcase", "core.folder", "core.codec", "core.cabinet", "core.site",
    "core.syscalls", "net.transport", "net.tcp", "net.topology", "net.stats",
    "net.message", "flow", "store", "fault", "shard", "obs", "sysagents",
    "app", "other",
)
#: layers whose whole package is one ledger line
_PACKAGES = ("flow", "store", "fault", "shard", "obs", "sysagents")
_PROGRAM = f"{os.sep}repro{os.sep}"
_APP = f"{os.sep}perfbench{os.sep}agents.py"
UNTRACKED = "untracked"

Func = Tuple[str, int, str]


def layer_of(filename: str) -> Optional[str]:
    """The layer a source file belongs to, or None outside the program."""
    if filename.endswith(_APP):
        return "app"
    index = filename.rfind(_PROGRAM)
    if index < 0 or not filename.endswith(".py"):
        return None
    module = filename[index + len(_PROGRAM):-3].replace(os.sep, ".")
    top = module.split(".")[0]
    if top in _PACKAGES:
        return top
    return module if module in LAYERS else "other"


class Ledger:
    """Profile a region and charge its self time to layers."""

    def __init__(self) -> None:
        self.profile = cProfile.Profile()
        #: the profile's pstats table, once the region has ended
        self.stats: Dict[Func, tuple] = {}

    def __enter__(self) -> "Ledger":
        self.profile.enable()
        return self

    def __exit__(self, *exc) -> None:
        self.profile.disable()
        self.stats = pstats.Stats(self.profile).stats

    def layer_times(self) -> Tuple[Dict[str, float], Dict[str, int]]:
        """(self seconds per layer, calls into each layer's own functions)."""
        stats = self.stats
        memo: Dict[Func, Dict[str, float]] = {}

        def subtree_owner(func: Func, active: frozenset) -> Dict[str, float]:
            """How the time of *func*'s subtree splits over program layers."""
            layer = layer_of(func[0])
            if layer is not None:
                return {layer: 1.0}
            if func in memo:
                return memo[func]
            callers = stats[func][4] if func in stats else {}
            result = _spread({caller: edge[3] for caller, edge in callers.items()},
                             lambda caller: (subtree_owner(caller, active | {func})
                                             if caller not in active else {UNTRACKED: 1.0}))
            memo[func] = result
            return result

        times: Dict[str, float] = defaultdict(float)
        calls: Dict[str, int] = defaultdict(int)
        for func, (_cc, ncalls, tottime, _ct, callers) in stats.items():
            layer = layer_of(func[0])
            if layer is not None:
                times[layer] += tottime
                calls[layer] += ncalls
                continue
            owners = _spread({caller: edge[2] for caller, edge in callers.items()},
                             lambda caller: subtree_owner(caller, frozenset({func})))
            for owner, share in owners.items():
                times[owner] += tottime * share
        return dict(times), dict(calls)

    def calls_to(self, suffix: str, name: str) -> int:
        """Calls of function *name* defined in a file ending in *suffix*."""
        return sum(entry[1] for func, entry in self.stats.items()
                   if func[2] == name and func[0].endswith(suffix))


def _spread(weights: Dict[Func, float], owners_of) -> Dict[str, float]:
    """Mix each caller's layer split by its weight (equal weights if all 0)."""
    if not weights:
        return {UNTRACKED: 1.0}
    total = sum(weights.values())
    result: Dict[str, float] = defaultdict(float)
    for caller, weight in weights.items():
        share = weight / total if total > 0 else 1.0 / len(weights)
        if share <= 0:
            continue
        for owner, part in owners_of(caller).items():
            result[owner] += share * part
    return dict(result)
