"""The simulator-server wire protocol.

Frames of :mod:`repro.core.wire` over stdio: the client writes one request
frame per line to the server's stdin and reads one response frame per line
from its stdout (the server's stderr is free for logging).  Every frame is a
JSON object with a ``type`` field on one newline-terminated line of at most
:data:`~repro.core.wire.MAX_FRAME_BYTES` bytes.

Requests — the three verbs:

==========  ==============================  ======================================
type        fields                          meaning
==========  ==============================  ======================================
LOAD        ``task``, ``steps``             load a workload — the wire form of one
                                            :class:`~repro.core.backends.ShardTask`
                                            (program + configuration + baseline
                                            coverage) — and fast-forward ``steps``
                                            (a non-negative integer) simulator
                                            boundaries.  Loading replaces any
                                            previously loaded workload; a refused
                                            LOAD leaves the session as it was.
STEP        —                               run to the next simulator boundary:
                                            one Phase-1 window-acquisition batch
                                            of N simulations, or one differential
                                            dual-DUT exploration run (plus its
                                            leakage re-simulation when taint
                                            propagated).
QUIT        —                               orderly shutdown.
==========  ==============================  ======================================

Responses:

==========  =========================================================
type        fields
==========  =========================================================
LOADED      ``steps``, ``digest``
STEP        ``done``, ``steps``, ``digest``; while running: ``step``
            (iteration, phase, simulations, end_of_iteration); when the
            workload finishes: ``payload`` (the slice's result dict,
            identical to :func:`repro.core.backends.run_shard_task`)
BYE         —
ERROR       ``error`` (message); the session survives and the next
            request is handled normally
==========  =========================================================

Error handling is deliberately two-tier: *protocol* errors (a malformed,
over-long or unterminated frame, ``STEP`` before ``LOAD``, ``STEP`` after
the workload finished, a ``LOAD`` past the workload's end, an unknown verb)
come back as ``ERROR`` frames and never kill the server, while *process*
failures (crash, kill, hang) surface client-side as EOF or a request timeout
and are recovered by restart-and-replay.

Recovery exploits the model's determinism: a session is identified by its
task and step count, so a replacement server is sent ``LOAD`` with the task
and the step the campaign reached, and the ``digest`` it returns must equal
the one the lost server last sent.  A wrapper around a real RTL simulator
implements the same three verbs; one that can checkpoint (verilator
``--savable``, VCS ``$save``) may serve ``LOAD {steps}`` from a saved state
instead of re-simulating, as long as it returns the same digest.
"""

from __future__ import annotations

import hashlib
import json


def state_digest(runner) -> str:
    """Deterministic digest of a slice runner's observable campaign state.

    Covers everything the campaign's deterministic wire forms are built from
    — coverage points and history, the timing-free campaign result — plus the
    step count.  Two sessions that loaded the same workload and advanced the
    same number of steps produce the same digest (in any process, under any
    backend), which is what recovery's digest check relies on.
    """
    campaign = runner.result
    material = {
        "steps": runner.steps_taken,
        "finished": runner.finished,
        "points": runner.fuzzer.coverage.to_dicts(),
        "history": list(runner.fuzzer.coverage.history),
        "result": campaign.to_dict(include_timing=False) if campaign else None,
    }
    encoded = json.dumps(material, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()
