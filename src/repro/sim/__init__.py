"""Out-of-process simulator fabric.

The paper's fuzzer spends essentially all wall clock inside an external RTL
simulator; this package makes that boundary real.  A **simulator server**
(``python -m repro.sim.server``) hosts one simulator instance behind a stdio
protocol of :mod:`repro.core.wire` frames — ``LOAD`` a workload at a given
step, ``STEP`` to the next simulator boundary, ``QUIT`` — and a
**fault-tolerant client**
(:class:`~repro.sim.client.SubprocessSimulator`, pooled per slice by
:class:`~repro.sim.client.SimProcessPool`) drives campaign steps against it.

The reference server hosts the in-repo cycle-accurate model (the
:mod:`repro.uarch` processor pair behind the :mod:`repro.swapmem` dual-DUT
harness, exactly what the in-process step driver runs); the protocol is
documented in :mod:`repro.sim.protocol` so a verilator/VCS wrapper can
implement the same verbs against a real RTL build later.

Crash-recovery guarantee: a server process that exits, is killed, or stops
responding (request timeout) is transparently restarted and **replayed**: the
replacement LOADs the task at the step the campaign reached and must return
the state digest the lost server last sent — campaign results are
byte-identical whether zero or many server processes died, which the
fault-injection tests assert.

Select it from the campaign engine with ``--simulator subprocess`` (or
``EngineConfiguration.simulator = "subprocess"``); every execution backend —
inline, process (on threads, since the work is out of process), distributed
workers — then executes its slice steps against per-slice server processes.
"""

from repro.sim.client import (
    SimProcessPool,
    SimProtocolError,
    SimServerCrash,
    SimServerError,
    SimServerProcess,
    SubprocessSimulator,
    close_default_pool,
    default_pool,
    default_server_command,
    run_task_on_default_pool,
)
from repro.sim.protocol import state_digest

__all__ = [
    "SimProcessPool",
    "SimProtocolError",
    "SimServerCrash",
    "SimServerError",
    "SimServerProcess",
    "SubprocessSimulator",
    "close_default_pool",
    "default_pool",
    "default_server_command",
    "run_task_on_default_pool",
    "state_digest",
]
