"""Trace-log events emitted by the processor model.

The fuzzer's transient-window detection (§4.1.2, "DejaVuzz analyzes the RoB IO
events from the trace log. If the number of enqueued instructions within the
transient window exceeds the number of its committed instructions, it
indicates that the transient window has been successfully triggered") consumes
exactly these events, so the processor emits one event per RoB enqueue,
commit, squash, trap commit and fetch redirect.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, NamedTuple, Tuple


class SquashReason(enum.Enum):
    """Why a group of in-flight instructions was squashed."""

    BRANCH_MISPREDICTION = "branch_misprediction"
    INDIRECT_MISPREDICTION = "indirect_misprediction"
    RETURN_MISPREDICTION = "return_misprediction"
    MEMORY_DISAMBIGUATION = "memory_disambiguation"
    EXCEPTION = "exception"
    FENCE = "fence"


# The two per-instruction events are named tuples rather than frozen
# dataclasses: one of each is built for nearly every simulated instruction,
# and a tuple is about a third of the construction cost.  Field names,
# attribute access, hashing and repr match the dataclass form; equality is
# tuple equality.
class RobEnqueueEvent(NamedTuple):
    cycle: int
    rob_index: int
    sequence: int
    pc: int
    mnemonic: str


class RobCommitEvent(NamedTuple):
    cycle: int
    rob_index: int
    sequence: int
    pc: int
    mnemonic: str


@dataclass(frozen=True, slots=True)
class RobSquashEvent:
    cycle: int
    reason: SquashReason
    trigger_sequence: int
    trigger_pc: int
    squashed_sequences: Tuple[int, ...]


@dataclass(frozen=True, slots=True)
class TrapCommitEvent:
    cycle: int
    sequence: int
    pc: int
    cause: str
    tval: int


@dataclass(frozen=True, slots=True)
class RedirectEvent:
    cycle: int
    source_pc: int
    target_pc: int
    reason: str


@dataclass
class TraceLog:
    """Accumulates processor events and answers the fuzzer's queries."""

    enqueues: List[RobEnqueueEvent] = field(default_factory=list)
    commits: List[RobCommitEvent] = field(default_factory=list)
    squashes: List[RobSquashEvent] = field(default_factory=list)
    traps: List[TrapCommitEvent] = field(default_factory=list)
    redirects: List[RedirectEvent] = field(default_factory=list)

    def record_squash(self, event: RobSquashEvent) -> None:
        self.squashes.append(event)

    def record_trap(self, event: TrapCommitEvent) -> None:
        self.traps.append(event)

    def record_redirect(self, event: RedirectEvent) -> None:
        self.redirects.append(event)

    # -- fuzzer-facing queries ---------------------------------------------------

    def committed_sequences(self) -> List[int]:
        return [event.sequence for event in self.commits]
