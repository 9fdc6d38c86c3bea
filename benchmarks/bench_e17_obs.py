"""E17 — Observability overhead and trace reconstruction (repro.obs).

Two claims:

* **Overhead** — on the E15 churn workload (couriers doing local work and
  sending one folder to a far peer), the tracing layer costs

  - ~0% when guarded off: ``obs_enabled=False`` (the default) or
    ``obs_sample=0.0`` — every instrumentation point is one attribute
    read, and an unsampled trace never puts TRACE folders in the
    briefcase, so the whole downstream path is skipped;
  - <5% at a realistic sampling rate (``obs_sample=0.1``);
  - full tracing (``obs_sample=1.0``) is reported honestly — every
    courier's launch/run/delivery becomes spans, which is the price of a
    complete dump, not the recommended steady-state mode.

* **Reconstruction** — a single rear-guard FT itinerary's complete hop
  timeline (launch -> per-hop execution -> checkpoint barrier wait ->
  migration -> guard releases -> delivery) reconstructs from one JSONL
  file via :mod:`repro.obs.report`, and the span tree is identical under
  the inproc and (where spawn works) process shard backends.

Every number lands in ``benchmarks/results/e17_obs.json``; the FT trace
dump itself is kept as ``benchmarks/results/e17_trace.jsonl`` (the CI
artifact — feed it to ``python -m repro.obs.report`` to read the run).

Run with ``--smoke`` for the CI sanity pass (tiny populations; the
overhead bound is only loosely asserted there — sub-second runs measure
noise, not cost).
"""

from __future__ import annotations

import json
import os
from typing import Dict

import pytest

from repro.bench import Report, run_stamp
from repro.bench.workloads import ShardedChurnParams, run_sharded_churn
from repro.core.kernel import Kernel, KernelConfig
from repro.fault.ftmove import launch_ft_computation
from repro.net.topology import lan
from repro.obs.report import build_trees, hop_timeline, load_trace, trace_ids
from repro.shard import process_backend_available

FULL_BASE = dict(n_sites=100, n_agents=1_000, wave_size=250, shards=None)
SMOKE_BASE = dict(n_sites=20, n_agents=100, wave_size=50, shards=None)
REPEATS = 5

#: the asserted sampling rate — the recommended steady-state mode
SAMPLE_RATE = 0.1
#: overhead ceilings (fractions of the baseline wall time).  The "off2"
#: null control — the baseline configuration run a second time — measures
#: the host's wall-clock noise floor, and its deviation is added to both
#: ceilings: on a quiet host the strict bounds apply, on a noisy CI
#: container the run still distinguishes real cost from scheduler jitter.
GUARDED_CEILING = 0.02
SAMPLED_CEILING = 0.05
#: smoke populations finish in milliseconds, so only a catastrophic
#: regression is caught there; the real bounds run in the full pass
SMOKE_CEILING = 1.0

ARMS = (
    ("off", False, 1.0),
    ("off2", False, 1.0),
    ("guarded", True, 0.0),
    ("sampled", True, SAMPLE_RATE),
    ("full", True, 1.0),
)

FT_ITINERARY = ("alpha", "beta", "gamma", "delta")


@pytest.fixture(scope="module")
def overhead_arms(smoke) -> Dict[str, float]:
    """Best-of-N wall seconds per observability arm, identical workload."""
    base = dict(SMOKE_BASE if smoke else FULL_BASE)
    # One untimed warmup so the first arm does not absorb import and
    # allocator warmup that the later arms then appear to "win" against;
    # the repeats interleave the arms round-robin so a slow system period
    # degrades every arm equally instead of skewing one comparison.
    run_sharded_churn(ShardedChurnParams(**base))
    walls: Dict[str, float] = {}
    for _ in range(REPEATS):
        for name, enabled, sample in ARMS:
            outcome = run_sharded_churn(ShardedChurnParams(
                obs_enabled=enabled, obs_sample=sample, **base))
            assert outcome.agents_completed == outcome.agents_launched, name
            if name not in walls or outcome.wall_seconds < walls[name]:
                walls[name] = outcome.wall_seconds
    return walls


def _run_ft_trace(backend: str, path=None, durable_checkpoints=True):
    """One rear-guard itinerary under *backend*; returns its agent spans.

    ``durable_checkpoints`` subscribes ``on_site_added``, which cannot
    cross the process boundary — the backend-parity runs turn it off so
    the same itinerary can race all three backends.
    """
    config = KernelConfig(shards=2, shard_backend=backend, obs_enabled=True,
                          durability="wal-group-commit",
                          obs_path=path)
    kernel = Kernel(topology=lan(list(FT_ITINERARY)), config=config)
    launch_ft_computation(kernel, FT_ITINERARY[0], list(FT_ITINERARY[1:]),
                          ft_id="ft-e17",
                          durable_checkpoints=durable_checkpoints)
    kernel.run(until=120.0)
    spans = kernel.trace_spans()
    kernel.close()
    return spans


def test_e17_observability(overhead_arms, smoke, emit_report, results_dir):
    base = dict(SMOKE_BASE if smoke else FULL_BASE)
    off = overhead_arms["off"]
    overhead = {name: (wall / off - 1.0) if off > 0 else 0.0
                for name, wall in overhead_arms.items()}

    report = Report(
        "E17", "observability overhead + trace reconstruction "
        f"(churn arm: {base['n_sites']} sites x {base['n_agents']} couriers, "
        f"best of {REPEATS}; FT arm: {len(FT_ITINERARY)}-site rear-guard "
        "itinerary dumped to JSONL)")
    noise = abs(overhead["off2"])
    table = report.table(
        "tracing cost on the E15 churn workload",
        ["arm", "obs_enabled", "sample", "wall s", "overhead vs off"])
    for name, enabled, sample in ARMS:
        table.add_row(name, enabled, sample,
                      round(overhead_arms[name], 4),
                      f"{overhead[name]:+.1%}")
    table.add_note("'off2' is the null control: the baseline run twice — "
                   "its deviation is the host's wall-clock noise floor and "
                   "widens the asserted ceilings accordingly")
    table.add_note("'guarded' leaves tracing compiled in but samples "
                   "nothing: the hot-path guard is one attribute read and "
                   "unsampled traces never touch the briefcase")
    table.add_note(f"the asserted steady-state mode is sample={SAMPLE_RATE}; "
                   "full tracing is the price of a complete dump")

    # --- FT itinerary: dump, reconstruct, compare across backends ------------
    trace_path = os.path.join(results_dir, "e17_trace.jsonl")
    if os.path.exists(trace_path):
        os.remove(trace_path)
    spans = _run_ft_trace("inproc", path=trace_path)
    dumped = load_trace(trace_path)
    assert len(dumped) == len(spans), "JSONL dump lost spans"

    agent_traces = trace_ids(dumped)
    assert "ft-e17" in agent_traces
    rows = hop_timeline(dumped, "ft-e17")
    names = [row["name"] for row in rows]
    assert names[0] == "launch", "itinerary must start at the launch root"
    assert names.count("ft-hop") == len(FT_ITINERARY), \
        "one hop span per itinerary site"
    assert names.count("migration") == len(FT_ITINERARY) - 1, \
        "one migration leg between consecutive sites"
    assert "ft-ckpt" in names, "checkpoint barrier waits must be spanned"
    assert "ft-release" in names, "rear-guard releases must be spanned"
    last_hop = [row for row in rows if row["name"] == "ft-hop"][-1]
    assert last_hop["attrs"].get("status") == "delivered", \
        "the final hop must record delivery"
    # Infra pseudo-traces (WAL commits) ride the same file, separate ids.
    infra = [span for span in dumped if span["trace_id"].startswith("~")]
    assert any(span["name"] == "wal-commit" for span in infra), \
        "durable runs must record wal-commit spans"

    def tree_shapes(span_dicts):
        trees = build_trees(span for span in span_dicts
                            if not span["trace_id"].startswith("~"))
        return {tid: tuple(root.tree_shape() for root in roots)
                for tid, roots in trees.items()}

    backends = ["process"] if process_backend_available() else []
    reference = tree_shapes(_run_ft_trace("inproc",
                                          durable_checkpoints=False))
    for backend in backends:
        shapes = tree_shapes(_run_ft_trace(backend,
                                           durable_checkpoints=False))
        assert shapes == reference, \
            f"span tree diverged on the {backend} backend"

    table2 = report.table(
        "FT itinerary reconstruction from one JSONL file",
        ["check", "value"])
    table2.add_row("spans dumped", len(dumped))
    table2.add_row("timeline rows (trace ft-e17)", len(rows))
    table2.add_row("hops / migrations / releases",
                   f"{names.count('ft-hop')} / {names.count('migration')} / "
                   f"{names.count('ft-release')}")
    table2.add_row("wal-commit infra spans",
                   sum(1 for span in infra if span["name"] == "wal-commit"))
    table2.add_row("identical span trees on", "/".join(["inproc"] + backends))
    emit_report(report)

    payload = {
        "experiment": "E17",
        "stamp": run_stamp(seed=ShardedChurnParams().seed,
                           sample=SAMPLE_RATE),
        "smoke": smoke,
        "walls": overhead_arms,
        "overhead": overhead,
        "trace_spans": len(dumped),
        "timeline_rows": len(rows),
        "backends_compared": ["inproc"] + backends,
    }
    json_path = os.path.join(results_dir, "e17_obs.json")
    with open(json_path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
    print(f"E17 results JSON -> {json_path}")
    print(f"E17 trace JSONL  -> {trace_path}")

    guarded_bound = SMOKE_CEILING if smoke else GUARDED_CEILING + noise
    sampled_bound = SMOKE_CEILING if smoke else SAMPLED_CEILING + noise
    print(f"E17-SUMMARY | overhead guarded={overhead['guarded']:+.1%} "
          f"sampled@{SAMPLE_RATE}={overhead['sampled']:+.1%} "
          f"full={overhead['full']:+.1%} | noise-floor={noise:.1%} | "
          f"bounds guarded<{guarded_bound:.1%} "
          f"sampled<{sampled_bound:.1%} | spans={len(dumped)}")
    assert overhead["guarded"] < guarded_bound, (
        f"guarded-off tracing cost {overhead['guarded']:+.1%} "
        f"(bound {guarded_bound:.0%})")
    assert overhead["sampled"] < sampled_bound, (
        f"sampled tracing cost {overhead['sampled']:+.1%} "
        f"(bound {sampled_bound:.0%})")


def test_e17_timed_traced_churn(benchmark, smoke):
    """pytest-benchmark guard on the fully-traced churn pipeline."""
    outcome = benchmark(lambda: run_sharded_churn(ShardedChurnParams(
        obs_enabled=True, obs_sample=1.0, **SMOKE_BASE)))
    assert outcome.agents_completed == outcome.agents_launched
