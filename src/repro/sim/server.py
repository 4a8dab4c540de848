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
slice is byte-identical to an in-process one, and ``LOAD {steps}`` can rebuild
any session state by deterministic replay.

The server is single-session and single-threaded on purpose: one campaign
slice talks to one server process, and process-level parallelism comes from
running many servers (one per slice — :class:`repro.sim.client.SimProcessPool`).
stdout carries protocol frames only; logging goes to stderr.

Fault-injection flags for tests and recovery drills (a real deployment never
uses them):

* ``--crash-after N`` — the process exits hard (code 13) when the ``N+1``-th
  STEP request it receives arrives, simulating a simulator crash
  mid-campaign.  The fast-forward of ``LOAD {steps}`` does not count.
* ``--hang-after N`` — the process stops responding at the ``N+1``-th STEP
  request it receives (sleeps forever), simulating a wedged simulator;
  clients detect this via their request timeout.
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

    def load(self, frame: Dict[str, object]) -> Dict[str, object]:
        steps = frame.get("steps")
        if type(steps) is not int or steps < 0:
            raise ValueError("LOAD needs a non-negative integer 'steps'")
        try:
            task = shard_task_from_wire(frame.get("task"))
        except (TypeError, ValueError) as error:
            raise ValueError(f"malformed task: {error}") from None
        runner = ShardCampaignRunner(task)
        while runner.steps_taken < steps:
            if runner.advance() is None:
                raise ValueError(
                    f"workload finished after {runner.steps_taken} steps; "
                    f"cannot fast-forward to step {steps}"
                )
        self._runner = runner
        return {"type": "LOADED", "steps": steps, "digest": state_digest(runner)}

    def step(self) -> Dict[str, object]:
        runner = self._runner
        if runner is None:
            raise ValueError("STEP before LOAD: no workload loaded")
        if runner.finished:
            raise ValueError("workload already finished; LOAD a new one")
        step = runner.advance()
        response = {"type": "STEP", "done": step is None, "steps": runner.steps_taken}
        if step is None:
            response["payload"] = runner.payload
        else:
            response["step"] = {
                "iteration": step.iteration,
                "phase": step.phase,
                "simulations": step.simulations,
                "end_of_iteration": step.end_of_iteration,
            }
        response["digest"] = state_digest(runner)
        return response


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
            "(LOAD/STEP/QUIT)."
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
