"""The repo's benchmark: one workload, one seed, one run, in a fresh interpreter.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload churn --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ledger.  The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``; the line before it is the
run's logical fingerprint.  The run itself happens in a child interpreter
(``perfbench/child.py``) in its own process group with a timeout, so a
crashed or hung shard worker fails this run instead of stalling the caller:
the whole group is killed and reaped, and no result is printed.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: longest a run may take before it is killed
TIMEOUT_CAP_S = 170.0


def _stop_group(pgid: int) -> None:
    """Kill every process left in the run's group (shard workers a crashed
    child left behind) and wait until none is left."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True,
                        help="churn, churn_shard2, fanin or ft_wal, or churn_proc2")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"run.py: no program source under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src"), ROOT] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    command = [sys.executable, "-m", "perfbench.child", "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
    timeout = min(TIMEOUT_CAP_S, 60.0 + 8.0 * args.seconds)
    child = subprocess.Popen(command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                             start_new_session=True)
    try:
        out, _ = child.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        print(f"run.py: {args.workload} did not finish within {timeout:.0f} s",
              file=sys.stderr)
        return 3
    finally:
        _stop_group(child.pid)
    lines = out.decode().splitlines()
    if child.returncode != 0 or not lines:
        print(f"run.py: {args.workload} run exited with code {child.returncode}",
              file=sys.stderr)
        return 4
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        print(f"run.py: malformed result line {lines[-1][:200]!r}", file=sys.stderr)
        return 5
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
