"""The simulator server daemon.

Hosts one simulator instance behind the stdio protocol of
:mod:`repro.sim.protocol` (frames of :mod:`repro.core.wire`)::

    python -m repro.sim.server

The reference implementation wraps the in-repo cycle-accurate model: a loaded
workload is one :class:`~repro.core.backends.ShardTask`, executed by the same
:class:`~repro.core.backends.ShardCampaignRunner` the in-process step driver
uses — each ``STEP`` runs to the next simulator boundary (a Phase-1 window
batch of N un-instrumented simulations, or one differential dual-DUT
exploration run on the :class:`~repro.swapmem.harness.DualCoreHarness`).
Because the runner is a pure function of the loaded task, a server-driven
slice is byte-identical to an in-process one, and ``RESTORE`` can rebuild any
session state by deterministic replay.

The server is single-session and single-threaded on purpose: one campaign
slice talks to one server process, and process-level parallelism comes from
running many servers (one per slice — :class:`repro.sim.client.SimProcessPool`).
stdout carries protocol frames only; logging goes to stderr.

Fault-injection flags for tests and recovery drills (a real deployment never
uses them):

* ``--crash-after N`` — the process exits hard (code 13) when STEP request
  ``N+1`` arrives, simulating a simulator crash mid-campaign.
* ``--hang-after N`` — the process stops responding at STEP request ``N+1``
  (sleeps forever), simulating a wedged simulator; clients detect this via
  their request timeout.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Dict, List, Optional

from repro.core.backends import ShardCampaignRunner
from repro.core.wire import encode_frame, read_frame, shard_task_from_wire
from repro.sim.protocol import state_digest

__all__ = ["SimulatorSession", "serve", "main"]


class SimulatorSession:
    """One loaded workload and its stepwise execution state."""

    def __init__(self) -> None:
        self._runner: Optional[ShardCampaignRunner] = None
        self._steps = 0
        self._final_payload: Optional[Dict[str, object]] = None

    # -- verbs ------------------------------------------------------------------------------

    def load(self, frame: Dict[str, object]) -> Dict[str, object]:
        try:
            task = shard_task_from_wire(frame.get("task"))
        except TypeError as error:  # a value of the wrong type
            raise ValueError(f"malformed task: {error}") from None
        self._runner = ShardCampaignRunner(task)
        self._steps = 0
        self._final_payload = None
        return {"type": "LOADED", "steps": 0, "digest": self._digest()}

    def step(self) -> Dict[str, object]:
        runner = self._require_runner("STEP")
        if self._final_payload is not None:
            raise ValueError("workload already finished; LOAD a new one")
        step = runner.advance()
        if step is None:
            self._final_payload = runner.payload
            return {
                "type": "STEP",
                "done": True,
                "steps": self._steps,
                "payload": runner.payload,
            }
        self._steps += 1
        return {
            "type": "STEP",
            "done": False,
            "steps": self._steps,
            "step": {
                "iteration": step.iteration,
                "phase": step.phase,
                "simulations": step.simulations,
                "end_of_iteration": step.end_of_iteration,
            },
        }

    def read(self) -> Dict[str, object]:
        runner = self._require_runner("READ")
        per_module = runner.fuzzer.coverage.per_module_counts()
        campaign = runner.campaign_result
        return {
            "type": "STATE",
            "loaded": True,
            "finished": runner.finished,
            "steps": self._steps,
            "coverage": {
                "total": len(runner.fuzzer.coverage),
                "per_module": {
                    module: per_module[module] for module in sorted(per_module)
                },
            },
            "history": list(runner.fuzzer.coverage.history),
            "iterations_run": campaign.iterations_run if campaign else 0,
            "reports": len(campaign.reports) if campaign else 0,
            # Live telemetry snapshot of the loaded task's metric registry
            # (latency histograms, cache counters) — an observation surface
            # only: the digest covers deterministic state and ignores it.
            "metrics": runner.metrics.snapshot(),
            "digest": self._digest(),
        }

    def snapshot(self) -> Dict[str, object]:
        self._require_runner("SNAPSHOT")
        return {"type": "SNAPSHOT", "steps": self._steps, "digest": self._digest()}

    def restore(self, frame: Dict[str, object]) -> Dict[str, object]:
        steps = frame.get("steps")
        if not isinstance(steps, int) or steps < 0:
            raise ValueError("RESTORE needs a non-negative integer 'steps'")
        self.load(frame)
        for _ in range(steps):
            response = self.step()
            if response["done"]:
                raise ValueError(
                    f"workload finished after {response['steps']} steps; "
                    f"cannot fast-forward to step {steps}"
                )
        return {"type": "RESTORED", "steps": self._steps, "digest": self._digest()}

    # -- helpers ----------------------------------------------------------------------------

    def _require_runner(self, verb: str) -> ShardCampaignRunner:
        if self._runner is None:
            raise ValueError(f"{verb} before LOAD: no workload loaded")
        return self._runner

    def _digest(self) -> str:
        return state_digest(self._runner, self._steps)


def serve(
    input_stream,
    output_stream,
    crash_after: Optional[int] = None,
    hang_after: Optional[int] = None,
) -> int:
    """Answer requests from the binary ``input_stream`` on the binary
    ``output_stream`` until QUIT or EOF; returns an exit code."""
    session = SimulatorSession()
    steps_served = 0
    while True:
        try:
            frame = read_frame(input_stream)
            if frame is None:
                return 0  # client hung up
            kind = frame["type"]
            if kind == "QUIT":
                response = {"type": "BYE"}
            elif kind == "LOAD":
                response = session.load(frame)
            elif kind == "STEP":
                if crash_after is not None and steps_served >= crash_after:
                    print(
                        f"[sim.server {os.getpid()}] injected crash after "
                        f"{steps_served} steps",
                        file=sys.stderr,
                        flush=True,
                    )
                    os._exit(13)
                if hang_after is not None and steps_served >= hang_after:
                    print(
                        f"[sim.server {os.getpid()}] injected hang after "
                        f"{steps_served} steps",
                        file=sys.stderr,
                        flush=True,
                    )
                    while True:  # wedged simulator: alive but silent
                        time.sleep(3600)
                response = session.step()
                steps_served += 1
            elif kind == "READ":
                response = session.read()
            elif kind == "SNAPSHOT":
                response = session.snapshot()
            elif kind == "RESTORE":
                response = session.restore(frame)
                steps_served = 0
            else:
                response = {"type": "ERROR", "error": f"unknown request type {kind!r}"}
        except ValueError as error:  # a malformed frame or a misused verb
            response = {"type": "ERROR", "error": str(error)}
        # Flushed per frame: the client blocks until the line arrives.
        output_stream.write(encode_frame(response))
        output_stream.flush()
        if response["type"] == "BYE":
            return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.sim.server",
        description=(
            "Host a simulator instance behind the JSON-lines stdio protocol "
            "(LOAD/STEP/READ/SNAPSHOT/RESTORE/QUIT)."
        ),
    )
    parser.add_argument(
        "--crash-after",
        type=int,
        default=None,
        metavar="N",
        help="fault injection: exit hard when STEP request N+1 arrives",
    )
    parser.add_argument(
        "--hang-after",
        type=int,
        default=None,
        metavar="N",
        help="fault injection: stop responding at STEP request N+1",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return serve(
        sys.stdin.buffer,
        sys.stdout.buffer,
        crash_after=args.crash_after,
        hang_after=args.hang_after,
    )


if __name__ == "__main__":
    raise SystemExit(main())
