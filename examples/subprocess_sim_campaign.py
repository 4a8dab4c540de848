#!/usr/bin/env python3
"""Run one campaign against out-of-process simulator servers — and kill one.

A self-contained demo of the simulator fabric (:mod:`repro.sim`): the same
campaign runs twice, first with the in-process simulator (the reference),
then with ``simulator="subprocess"`` — per-slice ``python -m repro.sim.server``
processes hosting the simulator behind the three-verb LOAD/STEP/QUIT stdio
protocol, driven by the process backend on one thread per shard so
their genuine subprocess waits overlap.  The servers belong to this process's
pool, which the kill drill watches.  Unless ``--keep-servers``, one server
process is SIGKILLed as soon as it is up, so the client's recovery visibly
kicks in: a fresh server LOADs the task at the step the campaign reached and
its state digest is checked.  The two campaigns' deterministic wire forms are then diffed: they
must be byte-identical, simulator crash included.

Usage::

    python examples/subprocess_sim_campaign.py [shards] [iterations] [--keep-servers]

The same campaign without driver code::

    python -m repro.core.engine --simulator subprocess --backend process \
        --shards 4 --iterations 100
"""

import os
import signal
import sys
import threading
import time

from repro.analysis import simulator_process_table
from repro.core import run_parallel_campaign
from repro.sim.client import close_default_pool, default_pool
from repro.uarch import small_boom_config


def kill_first_live_server(killed):
    """SIGKILL the first simulator server that comes up."""
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        for row in default_pool().processes():
            if row["alive"]:
                print(
                    f"\n>>> killing simulator server pid {row['pid']} "
                    f"(slot {row['slot']}) mid-campaign (SIGKILL)"
                )
                os.kill(row["pid"], signal.SIGKILL)
                killed.set()
                return
        time.sleep(0.01)


def main() -> int:
    arguments = [argument for argument in sys.argv[1:] if argument != "--keep-servers"]
    keep_servers = "--keep-servers" in sys.argv[1:]
    shards = int(arguments[0]) if len(arguments) > 0 else 4
    iterations = int(arguments[1]) if len(arguments) > 1 else 16
    core = small_boom_config()
    entropy = 4242

    def run(simulator):
        return run_parallel_campaign(
            core,
            shards=shards,
            iterations=iterations,
            sync_epochs=2,
            entropy=entropy,
            executor="process",
            simulator=simulator,
        )

    print("in-process reference run...")
    reference = run("inproc")

    close_default_pool()  # fresh servers, so the kill drill sees our pids
    killed = threading.Event()
    if not keep_servers:
        threading.Thread(
            target=kill_first_live_server, args=(killed,), daemon=True
        ).start()
    print(f"subprocess run: {shards} threads, one simulator server per slice...")
    started = time.perf_counter()
    campaign = run("subprocess")
    elapsed = time.perf_counter() - started
    close_default_pool()

    restarts = sum(row["restarts"] for row in campaign.task_log)
    spawns = sum(row["spawns"] for row in campaign.task_log)
    print(
        f"\nsubprocess campaign finished in {elapsed:.2f}s "
        f"({spawns} server process(es) spawned, {restarts} restart(s) "
        f"after crashes)"
    )
    print("\nper-slice simulator processes:")
    for row in simulator_process_table(campaign.task_log):
        print(
            f"  slice {row['slice']}: {row['tasks']} tasks, "
            f"{row['spawns']} spawns, {row['restarts']} restarts, "
            f"{row['steps']} steps, "
            f"mean step {row['mean_step_seconds'] * 1000:.1f}ms"
        )

    identical = campaign.campaign.to_dict(
        include_timing=False
    ) == reference.campaign.to_dict(include_timing=False)
    print(f"\ncoverage={campaign.total_coverage()} "
          f"reports={len(campaign.campaign.reports)}")
    print(f"results byte-identical to the in-process reference "
          f"(simulator crash included): {identical}")
    if not keep_servers and not killed.is_set():
        print("note: the campaign finished before the kill landed; "
              "re-run with more iterations to see the recovery")
    return 0 if identical else 1


if __name__ == "__main__":
    raise SystemExit(main())
