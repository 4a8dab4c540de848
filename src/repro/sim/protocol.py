"""The simulator-server wire protocol.

Frames of :mod:`repro.core.wire` over stdio: the client writes one request
frame per line to the server's stdin and reads one response frame per line
from its stdout (the server's stderr is free for logging).  Every frame is a
JSON object with a ``type`` field on one newline-terminated line of at most
:data:`~repro.core.wire.MAX_FRAME_BYTES` bytes.

Requests — the six verbs:

==========  ==============================  ======================================
type        fields                          meaning
==========  ==============================  ======================================
LOAD        ``task``                        load a workload: the wire form of one
                                            :class:`~repro.core.backends.ShardTask`
                                            (program + configuration + baseline
                                            coverage).  Loading replaces any
                                            previously loaded workload.
STEP        —                               run to the next simulator boundary:
                                            one Phase-1 window-acquisition batch
                                            of N simulations, or one differential
                                            dual-DUT exploration run (plus its
                                            leakage re-simulation when taint
                                            propagated).
READ        —                               observe live state: coverage census,
                                            campaign statistics, state digest.
SNAPSHOT    —                               capture a resume point: the step
                                            count and a state digest.
RESTORE     ``task``, ``steps``             rebuild the session at a snapshot:
                                            load ``task`` and fast-forward
                                            ``steps`` simulator boundaries.
QUIT        —                               orderly shutdown.
==========  ==============================  ======================================

Responses:

==========  =========================================================
type        fields
==========  =========================================================
LOADED      ``steps`` (0), ``digest``
STEP        ``done``; while running: ``step`` (iteration, phase,
            simulations, end_of_iteration) and ``steps``; when the
            workload finishes: ``payload`` (the slice's result dict,
            identical to :func:`repro.core.backends.run_shard_task`)
STATE       ``loaded``, ``finished``, ``steps``, ``coverage``
            (``total`` + sorted ``per_module`` counts), ``history``,
            ``iterations_run``, ``reports``, ``digest``
SNAPSHOT    ``steps``, ``digest``
RESTORED    ``steps``, ``digest``
BYE         —
ERROR       ``error`` (message); the session survives and the next
            request is handled normally
==========  =========================================================

Error handling is deliberately two-tier: *protocol* errors (a malformed,
over-long or unterminated frame, ``READ`` before ``LOAD``, ``STEP`` after
the workload finished, unknown verb) come back as ``ERROR`` frames and never
kill the server, while *process* failures (crash, kill, hang) surface
client-side as EOF or a request timeout and are recovered by
restart-and-replay.

Snapshots exploit the model's determinism: a snapshot is the pair
``(steps, digest)`` and ``RESTORE`` replays the loaded workload to that step
count, then proves identity by returning the digest for the client to check.
A wrapper around a checkpointing RTL simulator (verilator ``--savable``, VCS
``$save``) may instead return an opaque ``state`` blob from ``SNAPSHOT`` and
accept it in ``RESTORE`` — clients must treat snapshot contents as opaque
apart from ``steps`` and ``digest``.
"""

from __future__ import annotations

import hashlib
import json


def state_digest(runner, steps: int) -> str:
    """Deterministic digest of a slice runner's observable campaign state.

    Covers everything the campaign's deterministic wire forms are built from
    — coverage points and history, the timing-free campaign result — plus the
    step count.  Two sessions that loaded the same workload and advanced the
    same number of steps produce the same digest (in any process, under any
    backend), which is what ``RESTORE`` verification and the
    snapshot/restore round-trip tests rely on.
    """
    campaign = runner.campaign_result
    material = {
        "steps": steps,
        "finished": runner.finished,
        "points": runner.fuzzer.coverage.to_dicts(),
        "history": list(runner.fuzzer.coverage.history),
        "result": campaign.to_dict(include_timing=False) if campaign else None,
    }
    encoded = json.dumps(material, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()
