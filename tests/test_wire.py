"""Tests for the shared frame codec, :mod:`repro.core.wire`.

Its malformed-input rows run through every reader in the reader's own test
module: the socket reader (``test_core_distributed.py``), the sim server's
stdin and the sim client (``test_sim_server.py``), the telemetry follower
(``test_telemetry.py``) and checkpoint resume (``test_core_engine.py``)."""

import os
import subprocess
import sys

from repro.core.wire import decode_object, encode_frame


def test_frames_are_compact_single_lines():
    frame = {"type": "STEP", "step": {"iteration": 1, "name": "café"}}
    data = encode_frame(frame)
    assert data == b'{"type":"STEP","step":{"iteration":1,"name":"caf\\u00e9"}}\n'
    assert decode_object(data, "frame") == frame


def test_single_host_modules_do_not_load_the_coordinator():
    # The socket machinery stays out of single-host imports: the engine, the
    # sim server and client and the telemetry viewer need only the codec.
    modules = ["repro.core.engine", "repro.sim.server", "repro.sim.client", "repro.analysis.watch"]
    script = (
        "import sys\n"
        + "".join(f"import {name}\n" for name in modules)
        + "print('repro.core.distributed' in sys.modules)\n"
    )
    process = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": os.path.join(os.path.dirname(__file__), os.pardir, "src")},
        timeout=120,
    )
    assert process.returncode == 0, process.stderr
    assert process.stdout.strip() == "False"
