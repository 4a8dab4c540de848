"""The engine checkpoint codec, the only module that knows the format.

A checkpoint is one JSON object: the :class:`CheckpointState` a
:class:`~repro.core.engine.CampaignScheduler` carries across an epoch
boundary, under the fingerprint of the configuration that may resume it.
A checkpoint file is untrusted input: :func:`decode_checkpoint` builds each
nested value through its ``from_dict``, checks what the resumed run relies
on, and refuses anything else with one :class:`ValueError` naming the JSON
path, such as ``corpus[3].seed``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Set

from repro.core.corpus import CorpusEntry, SharedCorpus
from repro.core.coverage import CoveragePoint, TaintCoverageMatrix
from repro.core.fuzzer import LoopState
from repro.core.report import CampaignResult
from repro.core.wire import MAX_FRAME_BYTES, decode_object, encode_frame
from repro.generation.seeds import Seed
from repro.utils.jsontypes import json_typed

if TYPE_CHECKING:
    from repro.core.engine import EngineResult

# Every per-slice map is keyed by the logical slice, and the fingerprint pins
# `slices`, not the shard count, so a checkpoint resumes on any shard count.
# Format 1 keyed state by physical shard; format 2 also carried the removed
# stall sync policy and corpus knobs; format 3 assigned each slice a seed,
# not the loop state it resumes from.  All three are refused.
CHECKPOINT_FORMAT = 4


@dataclass
class CheckpointState:
    """Everything a scheduler carries across an epoch boundary."""

    result: Optional[EngineResult]  # the campaign so far; None before it starts
    next_epoch: int  # the first epoch that has not merged
    assignments: Dict[int, Optional[LoopState]]  # slice -> where its next task starts
    slice_iterations_done: Dict[int, int]
    transfer_count: int  # transfers so far, which numbers their seed ids
    # Window-type groups each core has triggered so far; feeds the
    # transfer-aware redistribution bias.
    core_triggered: Dict[str, Set[str]]
    corpus: SharedCorpus
    wall_clock_seconds: float  # of the runs so far


def encode_checkpoint(
    fingerprint: Dict[str, object], state: CheckpointState
) -> Dict[str, object]:
    """The JSON-safe checkpoint of ``state`` under ``fingerprint``."""
    result = state.result
    return {
        "format": CHECKPOINT_FORMAT,
        "fingerprint": fingerprint,
        "next_epoch": state.next_epoch,
        "assignments": {
            str(index): None if loop_state is None else loop_state.to_dict()
            for index, loop_state in state.assignments.items()
        },
        "slice_iterations_done": {
            str(index): count for index, count in state.slice_iterations_done.items()
        },
        "transfer_count": state.transfer_count,
        "core_triggered": {
            core: sorted(groups) for core, groups in state.core_triggered.items()
        },
        "corpus": state.corpus.to_dicts(),
        "core_coverage": {
            core: {"points": matrix.to_dicts(), "history": list(matrix.history)}
            for core, matrix in result.core_coverage.items()
        },
        "campaign": result.campaign.to_dict(),
        "slice_points": {
            str(index): [
                point.to_dict()
                for point in sorted(points, key=lambda p: (p.module, p.tainted_count))
            ]
            for index, points in result.slice_points.items()
        },
        "slice_summaries": list(result.slice_summaries),
        "transfers": list(result.transfers),
        "redistributed_seeds": result.redistributed_seeds,
        "transferred_seeds": result.transferred_seeds,
        "wall_clock_seconds": state.wall_clock_seconds,
    }


def write_checkpoint(path: str, checkpoint: Dict[str, object]) -> str:
    """Write ``checkpoint`` to ``path`` atomically and return ``path``.

    Raises :class:`ValueError` before touching the file system when the
    checkpoint is longer than the ``MAX_FRAME_BYTES`` that
    :func:`load_checkpoint` reads, so the previous checkpoint stays intact.
    """
    data = encode_frame(checkpoint)
    if len(data) > MAX_FRAME_BYTES:
        raise ValueError(
            f"checkpoint of {len(data)} bytes is larger than "
            f"{MAX_FRAME_BYTES} bytes, which resume_from refuses; "
            f"{path!r} is left as it was"
        )
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    staging = f"{path}.tmp"
    with open(staging, "wb") as handle:
        handle.write(data)
        # Durable before the rename: a crash after os.replace must not
        # leave a truncated checkpoint behind the final name.
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(staging, path)  # a killed writer never corrupts the checkpoint
    return path


def load_checkpoint(path: str) -> Dict[str, object]:
    """Read a checkpoint file as one JSON object; one longer than a frame is
    refused before it is parsed."""
    with open(path, "rb") as handle:
        raw = handle.read(MAX_FRAME_BYTES + 1)
    return decode_object(raw, f"checkpoint {path!r}")


# -- decoding --------------------------------------------------------------------------------
#
# A decoder takes (value, path) and returns the decoded value, or raises
# ValueError with a message that names ``path``.

_Decoder = Callable[[object, str], object]


def _refuse(path: str, problem: str) -> None:
    raise ValueError(f"checkpoint has a bad value for {path} ({problem})")


def _plain(convert: Callable[[object], object]) -> _Decoder:
    """The decoder applying ``convert``, a ``from_dict`` or a scalar type."""

    def decode(value: object, path: str) -> object:
        try:
            return convert(value)
        except KeyError as error:
            raise ValueError(f"checkpoint lacks {error.args[0]!r} in {path}") from None
        except (TypeError, AttributeError) as error:
            raise ValueError(f"checkpoint has the wrong type for {path} ({error})") from None
        except (ValueError, OverflowError) as error:
            _refuse(path, str(error))

    return decode


def _json(kind: type) -> _Decoder:
    """The decoder accepting only a JSON object (``dict``) or list."""

    def decode(value: object, path: str) -> object:
        if not isinstance(value, kind):
            raise ValueError(
                f"checkpoint has the wrong type for {path} (expected "
                f"{'object' if kind is dict else 'list'}, got {type(value).__name__})"
            )
        return value

    return decode


def _scalar(kind: type) -> _Decoder:
    """The decoder accepting only a JSON value of ``kind`` (see :func:`json_typed`)."""
    return _plain(lambda value: json_typed(value, kind, "the value"))


_int, _float, _str = _scalar(int), _scalar(float), _scalar(str)
_object, _list = _json(dict), _json(list)


def _member(obj: Dict[str, object], key: str, path: str, decode: _Decoder) -> object:
    name = f"{path}.{key}" if path else key
    if key not in obj:
        raise ValueError(f"checkpoint lacks {name}")
    return decode(obj[key], name)


def _list_of(decode: _Decoder) -> _Decoder:
    return lambda value, path: [
        decode(item, f"{path}[{index}]") for index, item in enumerate(_list(value, path))
    ]


def _map_of(decode: _Decoder, key: _Decoder = _str) -> _Decoder:
    """An object whose keys are data, such as slice indices or core names."""
    return lambda value, path: {
        key(name, f"{path}[{name}]"): decode(item, f"{path}[{name}]")
        for name, item in _object(value, path).items()
    }


def _object_of(**members: _Decoder) -> _Decoder:
    """An object with these members; any others are dropped."""
    return lambda value, path: {
        key: _member(_object(value, path), key, path, decode)
        for key, decode in members.items()
    }


def _optional(decode: _Decoder) -> _Decoder:
    return lambda value, path: None if value is None else decode(value, path)


_points = _list_of(_plain(CoveragePoint.from_dict))


def decode_checkpoint(
    payload: Dict[str, object],
    fingerprint: Dict[str, object],
    fresh: EngineResult,
    corpus: SharedCorpus,
) -> CheckpointState:
    """The state ``payload`` holds, or :class:`ValueError` naming what is wrong.

    ``fingerprint``, ``fresh`` and ``corpus`` describe the resuming
    configuration: its fingerprint, which the checkpoint's must equal, the
    result a new run of it starts from, which the decoded result copies its
    shape from, and its empty shared corpus, which the decoded entries fill.
    """
    if payload.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(
            f"checkpoint format {payload.get('format')!r}, expected "
            f"{CHECKPOINT_FORMAT}; re-run the campaign from scratch or "
            f"migrate the checkpoint (format 1 checkpoints are keyed by "
            f"physical shard and cannot be resharded; format 2 checkpoints "
            f"carry the removed stall sync policy; format 3 checkpoints assign "
            f"seeds, not the loop states slices resume from)"
        )

    def get(key: str, decode: _Decoder):
        return _member(payload, key, "", decode)

    found = get("fingerprint", _object)
    differing = sorted(
        key for key in set(fingerprint) | set(found) if found.get(key) != fingerprint.get(key)
    )
    if differing:
        raise ValueError(
            "checkpoint does not match this configuration "
            f"(differing fields: {', '.join(differing)})"
        )
    cores: List[str] = fingerprint["cores"]  # the core of each slice

    def slice_index(value: object, path: str) -> int:
        index = _int(value, path)
        if not 0 <= index < len(cores):
            _refuse(path, f"no slice {index} among {len(cores)}")
        return index

    def slice_key(name: str, path: str) -> int:  # an object key holding an index
        return slice_index(_plain(int)(name, path), path)

    def check_core(seed: Seed, core: str, path: str) -> None:
        if not seed.compatible_with(core):
            _refuse(path, f"a seed realized for core {seed.core!r}, not {core!r}")

    def corpus_entry(value: object, path: str) -> CorpusEntry:
        entry = _plain(CorpusEntry.from_dict)(value, path)
        slice_index(entry.slice_index, f"{path}.slice_index")
        if entry.core not in cores:
            _refuse(f"{path}.core", f"{entry.core!r} is no core of this campaign")
        check_core(entry.seed, entry.core, f"{path}.seed")
        return entry

    next_epoch = get("next_epoch", _int)
    if not 0 <= next_epoch <= fresh.epochs:
        _refuse("next_epoch", f"outside 0..{fresh.epochs}, the planned epochs")
    assignments = dict.fromkeys(range(len(cores)))
    for index, value in get("assignments", _map_of(_optional(_object), slice_key)).items():
        if value is not None:
            assignments[index] = _plain(
                lambda payload: LoopState.from_dict(payload, cores[index])
            )(value, f"assignments[{index}]")
    stored = get("core_coverage", _map_of(_object_of(points=_points, history=_list_of(_int))))
    core_coverage = {}
    for core in fresh.core_coverage:
        if core not in stored:
            raise ValueError(f"checkpoint lacks core_coverage[{core}]")
        matrix = core_coverage[core] = TaintCoverageMatrix()
        matrix.add_points(stored[core]["points"])
        matrix.history = stored[core]["history"]
    slice_points = {index: set() for index in range(len(cores))}
    for index, points in get("slice_points", _map_of(_points, slice_key)).items():
        slice_points[index] = set(points)
    corpus.extend(get("corpus", _list_of(corpus_entry)))
    result = replace(
        fresh,
        campaign=get("campaign", _plain(CampaignResult.from_dict)),
        core_coverage=core_coverage,
        slice_points=slice_points,
        slice_summaries=get("slice_summaries", _list_of(_object_of(
            slice=slice_index, epoch=_int, core=_str, iterations=_int,
            new_global_points=_int, reports=_int, wall_seconds=_float,
        ))),
        transfers=get("transfers", _list_of(_object_of(
            donor_seed_id=_int, donor_core=_str, donor_slice=slice_index,
            donor_gain=_int, target_core=_str, target_slice=slice_index,
            transferred_seed_id=_int, epoch=_int,
            new_global_points=_optional(_int), reports=_optional(_int),
        ))),
        redistributed_seeds=get("redistributed_seeds", _int),
        transferred_seeds=get("transferred_seeds", _int),
        complete=False,
    )
    return CheckpointState(
        result=result,
        next_epoch=next_epoch,
        assignments=assignments,
        slice_iterations_done=get("slice_iterations_done", _map_of(_int, slice_key)),
        transfer_count=get("transfer_count", _int),
        core_triggered={
            core: set(groups)
            for core, groups in get("core_triggered", _map_of(_list_of(_str))).items()
        },
        corpus=corpus,
        wall_clock_seconds=get("wall_clock_seconds", _float),
    )
