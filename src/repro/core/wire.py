"""The frame codec every JSON-lines channel of the reproduction shares.

A *frame* is one JSON object with a ``type`` field on one newline-terminated
line of at most :data:`MAX_FRAME_BYTES` bytes.  Frames cross the worker
fabric and the simulator-server pipes; telemetry files and checkpoints use
the same encoding and bound, so :func:`decode_object` checks every untrusted
input.  The task wire forms live here too: a
:class:`~repro.core.backends.ShardTask` crosses every channel as a JSON dict,
never pickled, so both ends need the same code, not the same process image.
"""

from __future__ import annotations

import json
from dataclasses import asdict, fields
from typing import TYPE_CHECKING, Dict, Optional

from repro.generation.training import TrainingMode
from repro.uarch.config import CacheConfig, CoreConfig, PredictorConfig
from repro.utils.jsontypes import json_typed

if TYPE_CHECKING:
    from repro.core.backends import ShardTask
    from repro.core.fuzzer import FuzzerConfiguration, LoopState

# The worker fabric's protocol revision, carried in HELLO.
PROTOCOL_VERSION = 7

# Upper bound on one frame, newline included, and on every checkpoint and
# telemetry line; longer is malformed.
MAX_FRAME_BYTES = 16 * 1024 * 1024


def encode_frame(frame: Dict[str, object]) -> bytes:
    """One frame as compact JSON bytes, newline included."""
    return (json.dumps(frame, separators=(",", ":")) + "\n").encode("utf-8")


def decode_object(data: bytes, what: str) -> Dict[str, object]:
    """Decode ``data`` as one JSON object; ``what`` names it in errors.

    Raises :class:`ValueError` when ``data`` is longer than
    :data:`MAX_FRAME_BYTES`, is not UTF-8 JSON, or is not a JSON object.
    """
    if len(data) > MAX_FRAME_BYTES:
        raise ValueError(f"malformed {what}: longer than {MAX_FRAME_BYTES} bytes")
    try:
        value = json.loads(data.decode("utf-8"))
    except ValueError as error:  # UnicodeDecodeError, JSONDecodeError
        raise ValueError(f"malformed {what}: unparseable ({error})") from None
    if not isinstance(value, dict):
        raise ValueError(
            f"malformed {what}: a JSON {type(value).__name__}, not an object"
        )
    return value


def read_frame(stream) -> Optional[Dict[str, object]]:
    """Read one frame from a binary stream; ``None`` on EOF or a closed stream.

    Raises :class:`ValueError` on a malformed frame.  An over-long line is
    consumed to its newline first, so the next read starts at the next frame.
    """
    try:
        line = stream.readline(MAX_FRAME_BYTES + 1)
        rest = line if len(line) > MAX_FRAME_BYTES else b""
        while rest and not rest.endswith(b"\n"):  # drain the over-long line
            rest = stream.readline(MAX_FRAME_BYTES)
    except (OSError, ValueError):  # the stream was closed underneath us
        return None
    if not line:
        return None
    if len(line) > MAX_FRAME_BYTES:
        raise ValueError(f"malformed frame: longer than {MAX_FRAME_BYTES} bytes")
    if not line.endswith(b"\n"):
        raise ValueError("malformed frame: truncated by end of stream")
    frame = decode_object(line, "frame")
    if "type" not in frame:
        raise ValueError("malformed frame: no 'type' field")
    return frame


# -- wire forms ------------------------------------------------------------------------------
#
# Everything a ShardTask carries is JSON-safe except the FuzzerConfiguration
# dataclass tree (CoreConfig with nested cache/predictor configs and a
# frozenset of bug ids, and the training-mode enum).  These helpers flatten
# that tree losslessly; round-tripping reconstructs dataclass trees that
# compare equal, which the engine's determinism guarantees rest on.
# ShardTask and FuzzerConfiguration are imported where they are used: the
# telemetry sink imports this module while repro.core is still initialising.


def core_config_to_wire(core: CoreConfig) -> Dict[str, object]:
    payload = asdict(core)
    payload["bugs"] = sorted(core.bugs)
    return payload


def _typed(payload: Dict[str, object], key: str, kind: type, what: str) -> object:
    """``payload[key]`` once it has the JSON type ``kind``, else
    :class:`ValueError` naming the key (see :func:`json_typed`)."""
    try:
        return json_typed(payload[key], kind, key)
    except TypeError as error:
        raise ValueError(f"{what} wire form: {error}") from None


def _wire_fields(cls, payload, what: str) -> Dict[str, object]:
    """A copy of ``payload`` once its keys are exactly the fields of the
    dataclass ``cls``; raises :class:`ValueError` naming any missing or
    unknown key (every field is required on the wire) or any field whose
    value lacks the JSON type of its ``bool``/``int``/``float``/``str``
    default."""
    if not isinstance(payload, dict):
        raise ValueError(f"{what} wire form is not an object: {payload!r}")
    names = [spec.name for spec in fields(cls)]
    missing = [name for name in names if name not in payload]
    unknown = sorted(str(key) for key in payload if key not in names)
    if missing or unknown:
        problems = []
        if missing:
            problems.append(f"lacks {', '.join(missing)}")
        if unknown:
            problems.append(f"has unknown {', '.join(unknown)}")
        raise ValueError(f"{what} wire form {' and '.join(problems)}")
    data = dict(payload)
    for spec in fields(cls):
        if isinstance(spec.default, (bool, int, float, str)):
            data[spec.name] = _typed(data, spec.name, type(spec.default), what)
    return data


def core_config_from_wire(payload: Dict[str, object]) -> CoreConfig:
    data = _wire_fields(CoreConfig, payload, "core config")
    data["icache"] = CacheConfig(**_wire_fields(CacheConfig, data["icache"], "icache"))
    data["dcache"] = CacheConfig(**_wire_fields(CacheConfig, data["dcache"], "dcache"))
    data["predictors"] = PredictorConfig(
        **_wire_fields(PredictorConfig, data["predictors"], "predictor config")
    )
    data["bugs"] = frozenset(data["bugs"])
    return CoreConfig(**data)


def fuzzer_configuration_to_wire(
    configuration: FuzzerConfiguration,
) -> Dict[str, object]:
    return {
        "core": core_config_to_wire(configuration.core),
        "entropy": configuration.entropy,
        "training_mode": configuration.training_mode.value,
        "coverage_feedback": configuration.coverage_feedback,
        "low_gain_limit": configuration.low_gain_limit,
        "seed_id_base": configuration.seed_id_base,
    }


def fuzzer_configuration_from_wire(
    payload: Dict[str, object],
) -> FuzzerConfiguration:
    from repro.core.fuzzer import FuzzerConfiguration

    data = _wire_fields(FuzzerConfiguration, payload, "fuzzer configuration")
    data["core"] = core_config_from_wire(data["core"])
    data["training_mode"] = TrainingMode(data["training_mode"])
    return FuzzerConfiguration(**data)


def shard_task_to_wire(task: ShardTask) -> Dict[str, object]:
    return {
        "slice_index": task.slice_index,
        "epoch": task.epoch,
        "iterations": task.iterations,
        "configuration": fuzzer_configuration_to_wire(task.configuration),
        "loop_state": None if task.loop_state is None else task.loop_state.to_dict(),
        "baseline_points": task.baseline_points,
        "step_latency": task.step_latency,
        "simulator": task.simulator,
        "profile": task.profile,
    }


def loop_state_from_wire(payload: object, core: str, what: str) -> LoopState:
    """Decode the wire form of a :class:`~repro.core.fuzzer.LoopState` for a
    slice running ``core``; raises :class:`ValueError` prefixed with ``what``
    naming a missing key, a value of the wrong JSON type or a state no loop
    leaves behind (see :meth:`LoopState.from_dict`)."""
    from repro.core.fuzzer import LoopState

    try:
        return LoopState.from_dict(payload, core)
    except KeyError as error:
        raise ValueError(f"{what}: loop_state lacks {error.args[0]}") from None
    except (TypeError, ValueError) as error:
        raise ValueError(f"{what}: loop_state: {error}") from None


def shard_task_from_wire(payload: Dict[str, object]) -> ShardTask:
    """Decode a task wire form; raises :class:`ValueError` naming any
    missing or unknown key or a value of the wrong JSON type, also inside
    ``loop_state``, which must be ``null`` or a whole loop state for the
    task's core."""
    from repro.core.backends import ShardTask

    data = _wire_fields(ShardTask, payload, "shard task")
    for key in ("slice_index", "epoch", "iterations"):
        data[key] = _typed(data, key, int, "shard task")
    _typed(data, "baseline_points", list, "shard task")
    data["configuration"] = fuzzer_configuration_from_wire(data["configuration"])
    if data["loop_state"] is not None:
        data["loop_state"] = loop_state_from_wire(
            data["loop_state"], data["configuration"].core.name, "shard task wire form"
        )
    return ShardTask(**data)
