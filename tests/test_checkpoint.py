"""Tests for the engine checkpoint codec (repro.core.checkpoint).

``tests/data/checkpoint_format4.json`` is a committed format-4 checkpoint:
the ``TestCheckpointResume`` campaign (boom, 16 slices, 12 iterations over 3
epochs, entropy 7) halted after epoch 1.  It pins the format: it must keep
decoding, re-encode to itself and resume to the uninterrupted result.  Its
slices 0 and 1 hold a window; slices 2 and 3 were handed a seed.
"""

import contextlib
import copy
import io
import json
import os
import shutil
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.checkpoint import decode_checkpoint, encode_checkpoint
from repro.core.corpus import SharedCorpus
from repro.core.engine import (
    CORPUS_CAPACITY,
    CampaignScheduler,
    EngineConfiguration,
    ParallelCampaignEngine,
    main as engine_main,
)
from repro.core.fuzzer import FuzzerConfiguration
from repro.uarch import small_boom_config

FIXTURE = os.path.join(os.path.dirname(__file__), "data", "checkpoint_format4.json")
RESUME_FLAGS = ["--backend", "inline", "--iterations", "12", "--epochs", "3",
                "--entropy", "7", "--shards", "2"]


def cfg(checkpoint_path=None):
    return EngineConfiguration(
        fuzzer=FuzzerConfiguration(core=small_boom_config(), entropy=7),
        shards=2,
        iterations=12,
        sync_epochs=3,
        executor="inline",
        checkpoint_path=checkpoint_path,
    )


def fixture():
    with open(FIXTURE, encoding="utf-8") as handle:
        return json.load(handle)


def resume_through_the_cli(payload):
    """Resume ``payload`` with the CLI; return (exit code, output)."""
    directory = tempfile.mkdtemp()
    try:
        path = os.path.join(directory, "checkpoint.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        output = io.StringIO()
        with contextlib.redirect_stdout(output):
            code = engine_main(["--resume", path, *RESUME_FLAGS])
        return code, output.getvalue()
    finally:
        shutil.rmtree(directory)


def test_fixture_decodes_and_re_encodes_to_itself():
    # The codec alone, with no scheduler run: decode and encode are inverse.
    payload = fixture()
    fresh = CampaignScheduler(cfg())._new_result()
    state = decode_checkpoint(
        payload, payload["fingerprint"], fresh, SharedCorpus(capacity=CORPUS_CAPACITY)
    )
    assert state.next_epoch == 1 and not state.result.complete
    assert encode_checkpoint(payload["fingerprint"], state) == payload


def test_fixture_resumes_to_the_uninterrupted_run(tmp_path):
    uninterrupted = ParallelCampaignEngine(cfg()).run()
    path = tmp_path / "checkpoint.json"
    shutil.copy(FIXTURE, path)
    resumed = ParallelCampaignEngine.resume_from(str(path), cfg(str(path))).run()
    assert resumed.complete
    assert resumed.campaign.to_dict(include_timing=False) == uninterrupted.campaign.to_dict(
        include_timing=False
    )
    for core, matrix in uninterrupted.core_coverage.items():
        assert resumed.core_coverage[core].points == matrix.points
        assert resumed.core_coverage[core].history == matrix.history
    assert resumed.slice_points == uninterrupted.slice_points
    assert resumed.transfers == uninterrupted.transfers


DELETE = object()


def edited(payload, path, value):
    """A copy of ``payload`` with the node at ``path`` replaced (or deleted)."""
    payload = copy.deepcopy(payload)
    target = payload
    for step in path[:-1]:
        target = target[step]
    if value is DELETE:
        del target[path[-1]]
    else:
        target[path[-1]] = value
    return payload


@pytest.mark.parametrize(
    "path, value, message",
    [
        (("next_epoch",), -1, "bad value for next_epoch"),
        (("next_epoch",), 7, "bad value for next_epoch"),
        (("slice_iterations_done",), {"16": 1}, "slice_iterations_done[16] (no slice 16"),
        (("slice_summaries", 0, "slice"), 99, "slice_summaries[0].slice (no slice 99"),
        (("assignments", "2", "seed", "core"), "xiangshan-minimal", "bad value for assignments[2]"),
        (
            ("assignments", "0", "window_seed", "core"),
            "xiangshan-minimal",
            "bad value for assignments[0] (window_seed",
        ),
        (("corpus", 0, "seed", "core"), "x", "bad value for corpus[0].seed"),
        (("corpus", 0, "core"), "x", "bad value for corpus[0].core"),
        (("campaign", "core_breakdown", "small-boom"), {}, "lacks 'iterations' in campaign"),
        (("campaign", "first_bug_seconds"), "x", "wrong type for campaign"),
        (("transfers",), [{"epoch": 1}], "lacks transfers[0].donor_seed_id"),
    ],
)
def test_a_value_the_run_would_fail_on_is_refused(path, value, message):
    code, output = resume_through_the_cli(edited(fixture(), path, value))
    assert code == 2
    assert output.startswith("error: checkpoint ")
    assert message in output


def test_a_refused_checkpoint_leaves_the_scheduler_untouched():
    # A bad slice key in slice_iterations_done is found after the campaign
    # and coverage have decoded; nothing may be half restored by then.
    payload = edited(fixture(), ("slice_iterations_done",), {"x": 1})
    engine = ParallelCampaignEngine(cfg())
    with pytest.raises(ValueError, match=r"slice_iterations_done\[x\]"):
        engine.scheduler.restore(payload)
    assert engine.scheduler.result is None
    assert engine.scheduler.next_epoch == 0


def _nodes(value, path=()):
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, child in items:
        yield path + (key,)
        yield from _nodes(child, path + (key,))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(
    node=st.sampled_from(list(_nodes(fixture()))),
    value=st.sampled_from([5, "x", None, [], {}, -1, DELETE]),
)
def test_a_mutated_checkpoint_resumes_or_is_refused(node, value):
    # Any one-node edit either still resumes or is refused with `error:` and
    # exit 2; a traceback fails the test.
    code, output = resume_through_the_cli(edited(fixture(), node, value))
    assert code == 0 or (code == 2 and output.startswith("error:")), output
