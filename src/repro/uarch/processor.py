"""The out-of-order pipeline model (the Design Under Test).

The processor is a cycle-driven model with speculative fetch, dataflow issue,
out-of-order completion and in-order commit:

* **Fetch** follows the predicted path (BHT + loop predictor for conditional
  branches, BTB for indirect jumps, RAS for returns) and allocates RoB
  entries speculatively, emitting ``RobEnqueueEvent`` trace events.
* **Issue/execute** dispatches entries whose operands are ready to free issue
  ports; results become available after a latency that includes cache, TLB
  and structural-hazard effects.  Faulting instructions mark their entry with
  an exception but *younger instructions keep executing* — this is the
  transient window.
* **Resolve** compares actual and predicted control flow when a control
  instruction completes, squashing the wrong path and redirecting fetch
  (branch/indirect/return mispredictions), and detects memory-ordering
  violations when stores resolve (memory disambiguation windows).
* **Commit** retires instructions in order; exceptions are taken at commit
  time, squashing the whole window, which is exactly when the transient
  instructions between the faulting instruction and its commit disappear from
  the architectural state while their microarchitectural side effects remain.

Secret propagation is tracked by :class:`repro.uarch.taint.TaintState` under
the configured taint mode; side-channel structures (caches, TLB, predictors,
LFB, ports) live in their own modules and are updated speculatively.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from dataclasses import dataclass
from itertools import islice, repeat
from typing import Callable, Dict, List, Optional, Tuple

from repro.isa.instructions import Instruction, InstructionClass
from repro.isa.simulator import (
    Permission,
    SimMemory,
    TrapCause,
    compute_alu,
    effective_address,
    next_pc,
)
from repro.isa.program import Program
from repro.uarch.cache import MemoryHierarchy
from repro.uarch.config import CoreConfig, TaintTrackingMode
from repro.uarch.events import (
    RedirectEvent,
    RobCommitEvent,
    RobEnqueueEvent,
    RobSquashEvent,
    SquashReason,
    TraceLog,
    TrapCommitEvent,
)
from repro.uarch.execute import ExecutionPorts, base_latency
from repro.uarch.lsu import LoadStoreUnit
from repro.uarch.predictors import BranchPredictorUnit
from repro.uarch.rob import ReorderBuffer, RobEntry
from repro.uarch.taint import DiffOracle, TaintCensus, TaintState
from repro.uarch.tlb import Tlb
from repro.utils.bitops import is_aligned, mask, sign_extend, to_signed, to_unsigned

# Addresses with bits at or above this position set are architecturally illegal.
PHYSICAL_ADDRESS_BITS = 39
# Width to which the buggy XiangShan load path truncates illegal addresses (B1).
TRUNCATED_ADDRESS_BITS = 32

# Trace events are named tuples; building them through ``tuple.__new__``
# skips the keyword-argument constructor on the per-instruction path.
_new_event = tuple.__new__

FetchSource = Callable[[int], Optional[Instruction]]


@dataclass
class SimulationOutcome:
    """Everything the fuzzer needs to know about one simulation run."""

    cycles: int
    committed_instructions: int
    trace: TraceLog
    taint: TaintState
    halted_on: str = "max_cycles"


class Processor:
    """One simulated out-of-order core instance."""

    def __init__(
        self,
        config: CoreConfig,
        memory: Optional[SimMemory] = None,
        taint_mode: TaintTrackingMode = TaintTrackingMode.NONE,
        diff_oracle: Optional[DiffOracle] = None,
    ) -> None:
        self.config = config
        self.memory = memory if memory is not None else SimMemory()
        self.taint = TaintState(mode=taint_mode, diff_oracle=diff_oracle)
        # Census fast-path state: the taint_version sum at the last full
        # census (-1 forces a full computation on the first taint-enabled
        # cycle).  ``_taint_enabled`` is cached because the mode is fixed for
        # the processor's lifetime and ``step_cycle`` checks it every cycle.
        self._census_version = -1
        self._taint_enabled = taint_mode is not TaintTrackingMode.NONE
        # Per-mnemonic base-latency memo (base_latency is pure in the config).
        self._latency_cache: Dict[str, int] = {}

        self.rob = ReorderBuffer(config.rob_entries)
        self.lsu = LoadStoreUnit(
            config.ldq_entries,
            config.stq_entries,
            writeback_port_shared=config.has_bug("spectre-reload"),
        )
        self.predictors = BranchPredictorUnit.from_config(config)
        self.hierarchy = MemoryHierarchy.from_config(config)
        self.tlb = Tlb(config.tlb_entries, miss_latency=config.tlb_miss_latency)
        self.ports = ExecutionPorts(config)

        self.registers: List[int] = [0] * 32
        self.trace = TraceLog()

        self.cycle = 0
        self.fetch_pc = 0
        self.fetch_stall_until = 0
        self.fetch_serialized = False
        self.committed_instructions = 0
        self._fetch_source: Optional[FetchSource] = None
        self._last_writer: Dict[int, int] = {}
        self._results: Dict[int, Tuple[int, bool]] = {}
        self._halt_reason: Optional[str] = None
        # Idle fast-forward bookkeeping (see _fast_forward): whether the last
        # cycle's fetch attempt found no instruction at fetch_pc, and whether
        # any issue-port request was denied (a denied request retries on the
        # very next cycle, so the clock cannot jump past it).
        self._fetch_returned_none = False
        self._port_denied = False
        # Sequence of the youngest non-nop ever dispatched: the RoB holds only
        # nops when it is empty or its head is younger (see _nop_run).
        self._youngest_non_nop = -1
        # Phantom-BTB (B3) race bookkeeping: the cycle and corrected target of
        # the most recent indirect-jump misprediction resolution.
        self._indirect_correction: Optional[Tuple[int, int, bool]] = None
        # Worklists over the RoB, kept current at dispatch, execute and
        # squash so no stage rescans the whole RoB each cycle:
        # * ``_unexecuted``: entries not yet executed, in program order;
        # * ``_unresolved``: control-flow entries not yet resolved, in
        #   program order;
        # * ``_executing``: a heap of ``(complete_cycle, sequence, entry)``
        #   for executed entries, popped once they complete or are squashed.
        self._unexecuted: List[RobEntry] = []
        self._unresolved: List[RobEntry] = []
        self._executing: List[Tuple[int, int, RobEntry]] = []

    # -- in-place reuse -----------------------------------------------------------------

    def reset(self) -> None:
        """Restore construction state in place so the core can be reused.

        Everything architectural and microarchitectural goes back to what
        ``__init__`` produced — except the constructed object graph (RoB,
        LSU, predictors, hierarchy, TLB, ports, packed-taint slot index) and
        the decoded latency memo, which are reused rather than rebuilt, and
        the monotonic ``taint_version`` counters, which only ever move
        forward (they drive census dirty detection, never results).  A *new*
        ``TraceLog`` is installed so results captured from a previous run
        keep their trace intact.  The ``memory`` reference is kept; callers
        reusing a core must also reset/rearm the memory it points at.
        """
        self.taint.reset()
        self._census_version = -1
        self.rob.reset()
        self.lsu.reset()
        self.predictors.reset()
        self.hierarchy.reset()
        self.tlb.reset()
        self.ports.reset()
        self.registers = [0] * 32
        self.trace = TraceLog()
        self.cycle = 0
        self.fetch_pc = 0
        self.fetch_stall_until = 0
        self.fetch_serialized = False
        self.committed_instructions = 0
        self._fetch_source = None
        self._last_writer = {}
        self._results = {}
        self._halt_reason = None
        self._fetch_returned_none = False
        self._port_denied = False
        self._youngest_non_nop = -1
        self._indirect_correction = None
        self._clear_worklists()

    # -- program / memory setup ---------------------------------------------------------

    def set_fetch_source(self, source: FetchSource) -> None:
        self._fetch_source = source

    def load_program(self, program: Program, map_pages: bool = True) -> None:
        """Fetch instructions from a static program image (no swapMem)."""
        if map_pages:
            for section in program.sections:
                self.memory.map_range(section.base, max(section.size, 4))
        self.set_fetch_source(program.instruction_at)
        if program.entry is not None:
            self.fetch_pc = program.entry

    def write_register(self, index: int, value: int, tainted: bool = False) -> None:
        if index != 0:
            self.registers[index] = to_unsigned(value, 64)
            self.taint.set_register_taint(index, tainted)

    def read_register(self, index: int) -> int:
        return 0 if index == 0 else self.registers[index]

    # -- main loop ------------------------------------------------------------------------

    def run(self, max_cycles: int = 2000) -> SimulationOutcome:
        """Run until a trap commits or ``max_cycles`` pass.

        A committed trap always halts the core (``halted_on`` is
        ``trap:<cause>``); the swapMem runtime then swaps in the next packet.
        Commit cycles, port contention and the side-channel fingerprint stay
        on the processor (``trace.commits``, ``ports.contention_cycles``,
        ``side_channel_fingerprint()``) for callers that want them.
        """
        self._halt_reason = None
        start_cycle = self.cycle
        self._advance(start_cycle + max_cycles)
        return SimulationOutcome(
            cycles=self.cycle - start_cycle,
            committed_instructions=self.committed_instructions,
            trace=self.trace,
            taint=self.taint,
            halted_on=self._halt_reason or "max_cycles",
        )

    def step_cycle(self) -> None:
        """Advance the pipeline by exactly one clock cycle (no fast-forward)."""
        self._advance(self.cycle + 1)

    def _advance(self, limit_cycle: int) -> None:
        """The cycle loop behind ``run`` and ``step_cycle``.

        Steps until ``limit_cycle`` or a trap halts the core.  One iteration
        is one clock cycle: resolve (before commit, so a mispredicted branch
        squashes its wrong path before younger entries can retire), commit,
        execute, fetch, then the taint census.  Each stage's per-cycle scan is
        written out in the body; per-instruction work and rare events
        (squashes, traps) stay methods.  Config constants and bound methods
        are hoisted into locals once per call, never per cycle.  Only
        objects that are never rebound while the loop runs may be hoisted:
        squashes replace ``rob.entries`` and ``rob._by_sequence``, and the
        execute step replaces ``_unexecuted``, so these are re-read every
        cycle.

        Nops (``addi x0, x0, 0``, most of every generated stimulus) take the
        same per-instruction methods as every other instruction, except
        while the RoB holds only nops and at least two cycles remain: then
        ``_nop_run`` takes over the loop.  ``step_cycle`` (one cycle) never
        enters it, nor ``_fast_forward``, so it is the reference for both.
        """
        config = self.config
        commit_width = config.commit_width
        exception_commit_delay = config.exception_commit_delay
        fetch_width = config.fetch_width
        rob = self.rob
        rob_capacity = rob.capacity
        find = rob.find
        hierarchy = self.hierarchy
        icache_fetch = hierarchy.icache.fetch_access
        ports = self.ports
        try_claim = ports.try_claim
        results = self._results
        unresolved = self._unresolved
        executing = self._executing
        taint_enabled = self._taint_enabled
        resolve_stage = self._resolve_stage
        commit_instruction = self._commit_instruction
        commit_exception = self._commit_exception
        execute_entry = self._execute_entry
        dispatch = self._dispatch
        heappush = heapq.heappush
        cycle = self.cycle
        while cycle < limit_cycle:
            if cycle + 2 <= limit_cycle:
                entries = rob.entries
                if not entries or entries[0].sequence > self._youngest_non_nop:
                    cycle = self._nop_run(limit_cycle)
                    if cycle >= limit_cycle:
                        break
            cycle += 1
            self.cycle = hierarchy.cycle = cycle
            if unresolved:
                resolve_stage(cycle)

            # Commit: retire ready heads in order; a trapping head ends the cycle.
            entries = rob.entries
            for _ in range(commit_width):
                if not entries:
                    break
                head = entries[0]
                if head.head_arrival_cycle is None:
                    head.head_arrival_cycle = cycle
                if not head.executed:
                    break
                if head.exception is not None:
                    # The trap is taken ``exception_commit_delay`` cycles after
                    # the faulting entry reaches the head: the transient window.
                    if cycle >= max(
                        head.complete_cycle, head.head_arrival_cycle + exception_commit_delay
                    ):
                        commit_exception(head)
                    break
                if cycle < head.complete_cycle:
                    break
                commit_instruction(head)
            if self._halt_reason is not None:
                if taint_enabled:
                    self._record_census()
                break

            # Execute: issue every entry whose producers have completed to a
            # free port.  A memory-disambiguation squash during the loop
            # truncates ``waiting`` in place; the entries it squashed are
            # skipped for the rest of the loop.
            self._port_denied = False
            pending = self._unexecuted
            if pending:
                waiting: List[RobEntry] = []
                self._unexecuted = waiting
                for entry in pending:
                    if entry.squashed:
                        continue
                    producers = entry._producers
                    if producers:
                        # Ready once every in-flight producer has completed;
                        # a ``break`` leaves ``producers`` set, so it waits.
                        for producer in producers.values():
                            if producer not in results:
                                break
                            producing = find(producer)
                            if producing is not None and (
                                not producing.executed or producing.complete_cycle > cycle
                            ):
                                break
                        else:
                            producers = None
                        if producers:
                            waiting.append(entry)
                            continue
                    if not try_claim(entry.instruction, cycle):
                        self._port_denied = True
                        waiting.append(entry)
                        continue
                    execute_entry(entry)
                    heappush(executing, (entry.complete_cycle, entry.sequence, entry))

            # Fetch: dispatch up to fetch_width instructions along the
            # predicted path, stopping at an icache miss or a serializing
            # or illegal instruction.
            fetch_source = self._fetch_source
            if (
                fetch_source is not None
                and cycle >= self.fetch_stall_until
                and not self.fetch_serialized
            ):
                entries = rob.entries
                fetched = 0
                while fetched < fetch_width and len(entries) < rob_capacity:
                    pc = self.fetch_pc
                    instruction = fetch_source(pc)
                    if instruction is None:
                        if fetched == 0:
                            self._fetch_returned_none = True
                        break
                    self._fetch_returned_none = False
                    miss_latency = icache_fetch(pc)
                    if miss_latency:
                        self.fetch_stall_until = cycle + miss_latency
                    fetched += 1
                    entry = dispatch(instruction)
                    if (
                        self.fetch_serialized
                        or miss_latency
                        or (entry.exception is not None and instruction.is_illegal)
                    ):
                        break

            if cycle & 15 == 0:
                # Pruning is pure GC (claims only ever reference the current
                # cycle), so amortising it over 16 cycles is free.
                ports.drop_usage_before(cycle)
            if taint_enabled:
                self._record_census()
            # _fast_forward's early exits, inlined: most cycles end in one.
            if cycle + 1 < limit_cycle and not self._port_denied:
                entries = rob.entries
                if (
                    fetch_source is None
                    or self.fetch_serialized
                    or len(entries) >= rob_capacity
                    or self.fetch_stall_until > cycle + 1
                    or self._fetch_returned_none
                ) and not (entries and entries[0].head_arrival_cycle is None):
                    unexecuted = self._unexecuted
                    if not unexecuted or unexecuted[-1].fetch_cycle != cycle:
                        self._fast_forward(limit_cycle)
                        cycle = self.cycle

    def _fast_forward(self, limit_cycle: int) -> None:
        """Jump the clock over cycles in which no pipeline stage can act.

        Every stage's next possible action is keyed to a known future cycle:
        resolution/commit/operand readiness all wait on an entry's
        ``complete_cycle``, a trapping head waits for its exception-commit
        delay, and a stalled fetch waits for ``fetch_stall_until``.  The clock
        does not jump while any stage can act next cycle: fetch can deliver
        an instruction, an issue-port request was denied this cycle (it
        retries next cycle), an entry fetched this cycle has not had its
        first issue attempt yet, or the head's arrival cycle is still to be
        assigned.  The skipped cycles only need repeat censuses so the
        per-cycle taint series stays bit-identical with ``step_cycle``, the
        reference that never skips.  ``_nop_run`` applies the same rule to
        its own bookkeeping; a change here must be mirrored there.
        """
        if self._port_denied:
            return
        cycle = self.cycle
        wake: Optional[int] = None
        if (
            self._fetch_source is not None
            and not self.fetch_serialized
            and not self.rob.is_full
        ):
            if self.fetch_stall_until > cycle + 1:
                wake = self.fetch_stall_until
            elif not self._fetch_returned_none:
                return  # fetch delivers an instruction next cycle
        head = self.rob.head()
        if head is not None and head.head_arrival_cycle is None:
            return  # the head's arrival cycle is assigned next cycle
        unexecuted = self._unexecuted
        if unexecuted and unexecuted[-1].fetch_cycle == cycle:
            # Fetched after this cycle's execute stage (say, on an icache
            # miss): it makes its first issue attempt next cycle.
            return
        # Other unexecuted entries wait on a producer's completion (covered
        # by the producer's complete_cycle) or on an issue-port retry
        # (excluded by the _port_denied guard above), so only executing
        # entries wake.
        executing = self._executing
        while executing and (executing[0][0] <= cycle or executing[0][2].squashed):
            heapq.heappop(executing)
        if executing:
            complete = executing[0][0]
            if wake is None or complete < wake:
                wake = complete
        if head is not None and head.executed and head.exception is not None:
            ready = max(
                head.complete_cycle,
                head.head_arrival_cycle + self.config.exception_commit_delay,
            )
            if ready > cycle and (wake is None or ready < wake):
                wake = ready
        target = limit_cycle if wake is None else min(wake, limit_cycle)
        if target <= cycle + 1:
            return
        if self._taint_enabled:
            log = self.taint.census_log
            shared_counts = log[-1].element_counts
            log.extend(TaintCensus(skipped, shared_counts) for skipped in range(cycle + 1, target))
        self.cycle = target - 1

    def _nop_run(self, limit_cycle: int) -> int:
        """Advance whole cycles in which the RoB holds only nops; return the cycle reached.

        ``_advance`` enters it at a cycle boundary when the RoB holds only
        nops and at least two cycles remain.  It scans the nops ahead of
        ``fetch_pc`` once, then runs each cycle's commit, issue, fetch,
        census and idle jump on parallel lists of sequence, pc, fetch cycle
        and completion cycle instead of a ``RobEntry``, a heap entry and
        dict entries per nop.  It produces the same trace events, port
        contention, icache state and census as ``_dispatch``,
        ``_execute_entry`` and ``_commit_instruction`` do for a nop, and
        follows the rule of ``_fast_forward``; a change to either must be
        mirrored here.

        It exits at a cycle boundary: before a cycle whose fetch would reach
        the instruction that ends the run, or at ``limit_cycle``.  A nop
        cannot trap, so the run never halts the core.
        On exit the in-flight nops (at most the RoB's capacity) become
        ``RobEntry`` objects again, and the RoB, the worklists, the head's
        arrival cycle and the fetch and port flags are left as the cycle
        loop would have left them.

        While only nops are in flight nothing else claims an int port, so
        nops issue in program order (the executed entries are a prefix of
        the RoB) and complete ``nop_latency`` cycles after they issue; no
        entry is tainted or unresolved; and only these fetches touch the
        icache, so a fetch from the line fetched last is a hit on its set's
        most recently used line and only bumps ``accesses``.
        """
        config = self.config
        commit_width = config.commit_width
        fetch_width = config.fetch_width
        rob = self.rob
        capacity = rob.capacity
        start_cycle = cycle = self.cycle
        committed = self.committed_instructions

        # The run: the nops ahead of fetch, up to the first other instruction
        # or a pc with none.  Fetch takes at most fetch_width per cycle.
        fetch_source = self._fetch_source
        fetching = fetch_source is not None and not self.fetch_serialized
        run: List[Instruction] = []
        ends_on_none = False
        if fetching:
            budget = (limit_cycle - cycle) * fetch_width
            pc = self.fetch_pc
            while len(run) < budget:
                instruction = fetch_source(pc)
                if instruction is None:
                    ends_on_none = True
                    break
                if not instruction.is_nop:
                    break
                run.append(instruction)
                pc += 4
        run_length = len(run)
        if (
            not run_length
            and not ends_on_none
            and fetching
            and cycle + 1 >= self.fetch_stall_until
            and len(rob.entries) < capacity
        ):
            return cycle  # next cycle's fetch takes the instruction after the run

        nop_latency = max(config.alu_latency, 1)
        icache = self.hierarchy.icache
        icache_fetch = icache.fetch_access
        line_bytes = icache.config.line_bytes
        int_ports = self.ports.port_limits["int"]
        enqueue_events = self.trace.enqueues
        commit_events = self.trace.commits
        taint_enabled = self._taint_enabled
        record_census = self._record_census
        census_log = self.taint.census_log

        # While at most this many run nops are fetched, a cycle's fetch (at
        # most fetch_width) cannot reach the end of the run.
        last_safe = run_length - fetch_width if fetching and not ends_on_none else run_length

        # In-flight nops, oldest first: [head, tail) are in the RoB, and
        # [head, issued) have executed and complete at done_at[index].  The
        # first ``first_new`` are the RobEntry objects in flight on entry;
        # the rest are run nops, whose sequences and pcs are laid out ahead.
        old_entries = rob.entries
        first_new = tail = len(old_entries)
        run_pc = self.fetch_pc
        seqs = [entry.sequence for entry in old_entries]
        seqs += range(rob._next_sequence, rob._next_sequence + run_length)
        pcs = [entry.pc for entry in old_entries]
        pcs += range(run_pc, run_pc + 4 * run_length, 4)
        fetched_at = [entry.fetch_cycle for entry in old_entries]
        done_at = [entry.complete_cycle for entry in old_entries if entry.executed]
        head = 0
        issued = len(done_at)
        arrival = old_entries[0].head_arrival_cycle if old_entries else None
        # Trace events are built on exit, from the commit cycle of every
        # retired nop and the RoB index of every run nop at its enqueue.
        commit_at: List[int] = []
        positions: List[int] = []

        stall_until = self.fetch_stall_until
        returned_none = self._fetch_returned_none
        port_denied = self._port_denied
        taken = 0  # run nops fetched so far
        # Run nops below ``hit_until`` share the line of the last icache
        # access made here, which is its set's most recently used line.
        hit_until = 0
        icache_calls = 0
        denied_total = 0
        simulated = cycle
        while cycle < limit_cycle:
            now = cycle + 1
            if taken > last_safe and now >= stall_until:
                # Fetch may reach the end of the run this cycle: count what
                # commits first, then the slots fetch gets.
                retiring = min(bisect_right(done_at, now, head) - head, commit_width)
                slots = capacity - (tail - head - retiring)
                if min(fetch_width, slots) > run_length - taken:
                    break
            cycle = simulated = now

            # Commit: up to commit_width completed heads, in order.
            retired = bisect_right(done_at, cycle, head) - head
            if retired:
                if retired > commit_width:
                    retired = commit_width
                commit_at += [cycle] * retired
                head += retired
                arrival = None
            if retired < commit_width and head < tail and arrival is None:
                arrival = cycle  # the commit stage looked at this head

            # Issue: the oldest waiting nops take the free int ports.
            waiting = tail - issued
            port_denied = waiting > int_ports
            if waiting:
                if port_denied:
                    denied_total += waiting - int_ports
                    waiting = int_ports
                done_at += [cycle + nop_latency] * waiting
                issued += waiting

            # Fetch: up to fetch_width nops, ending after an icache miss.
            if fetching and cycle >= stall_until:
                count = capacity - tail + head
                if count:
                    if count > fetch_width:
                        count = fetch_width
                    available = run_length - taken
                    if not available:
                        # Only a pc with no instruction ends a run inside a cycle.
                        returned_none = True
                    else:
                        returned_none = False
                        if count > available:
                            count = available
                        end = taken + count
                        while hit_until < end:
                            # The first fetch from another line goes to the
                            # icache; a miss ends this cycle's fetch after it.
                            pc = run_pc + 4 * hit_until
                            miss = icache_fetch(pc)
                            icache_calls += 1
                            if miss:
                                stall_until = cycle + miss
                                end = hit_until + 1
                            hit_until += (line_bytes - pc % line_bytes + 3) // 4
                        count = end - taken
                        position = tail - head
                        positions += range(position, position + count)
                        fetched_at += [cycle] * count
                        tail += count
                        taken = end

            if taint_enabled:
                self.cycle = cycle
                record_census()

            # Jump over idle cycles, by the rule of _fast_forward.
            if cycle + 1 < limit_cycle and not port_denied:
                inflight = tail - head
                wake: Optional[int] = None
                if fetching and inflight < capacity:
                    if stall_until > cycle + 1:
                        wake = stall_until
                    elif not returned_none:
                        continue
                if inflight and arrival is None:
                    continue
                if issued < tail and fetched_at[-1] == cycle:
                    continue
                first = bisect_right(done_at, cycle, head)
                if first < issued and (wake is None or done_at[first] < wake):
                    wake = done_at[first]
                target = limit_cycle if wake is None else min(wake, limit_cycle)
                if target > cycle + 1:
                    if taint_enabled:
                        shared_counts = census_log[-1].element_counts
                        census_log.extend(
                            TaintCensus(skipped, shared_counts)
                            for skipped in range(cycle + 1, target)
                        )
                    cycle = target - 1

        if cycle == start_cycle:
            return cycle  # no cycle ran: nothing to restore
        # zip stops at its shortest input: the retired nops, the fetched run nops.
        commit_events += map(
            _new_event,
            repeat(RobCommitEvent),
            zip(commit_at, repeat(0), seqs, pcs, repeat("addi")),
        )
        enqueue_events += map(
            _new_event,
            repeat(RobEnqueueEvent),
            zip(
                islice(fetched_at, first_new, None),
                positions,
                islice(seqs, first_new, None),
                islice(pcs, first_new, None),
                repeat("addi"),
            ),
        )
        self.cycle = cycle
        self.hierarchy.cycle = simulated
        self.committed_instructions = committed + head
        self.fetch_pc = run_pc + 4 * taken
        self.fetch_stall_until = stall_until
        self._fetch_returned_none = returned_none
        self._port_denied = port_denied
        self.ports.contention_cycles["int"] += denied_total
        icache.accesses += taken - icache_calls
        rob._next_sequence += taken

        # Back to RobEntry objects.  ``_advance`` holds ``_executing``, so it
        # is refilled in place; (complete, sequence) order makes it a heap.
        entries: List[RobEntry] = []
        by_sequence: Dict[int, RobEntry] = {}
        unexecuted: List[RobEntry] = []
        executing = self._executing
        executing.clear()
        for index in range(head, tail):
            if index < first_new:
                entry = old_entries[index]
            else:
                pc = pcs[index]
                entry = RobEntry(seqs[index], pc, run[index - first_new], fetched_at[index], pc + 4)
            if index < issued:
                complete = done_at[index]
                if not entry.executed:
                    entry.dispatch_cycle = complete - nop_latency
                    entry.actual_next_pc = entry.pc + 4
                    entry.executed = True
                    entry.complete_cycle = complete
                executing.append((complete, entry.sequence, entry))
            else:
                unexecuted.append(entry)
            entries.append(entry)
            by_sequence[entry.sequence] = entry
        if entries:
            entries[0].head_arrival_cycle = arrival
        rob.entries = entries
        rob._by_sequence = by_sequence
        self._unexecuted = unexecuted
        return cycle

    # -- commit stage ------------------------------------------------------------------------

    def _commit_instruction(self, entry: RobEntry) -> None:
        instruction = entry.instruction
        self.rob.pop_head()
        entry.committed = True
        self.trace.commits.append(
            _new_event(
                RobCommitEvent, (self.cycle, 0, entry.sequence, entry.pc, instruction.mnemonic)
            )
        )
        self.committed_instructions += 1

        if entry.dest_reg is not None:
            self.registers[entry.dest_reg] = entry.result
            self.taint.set_register_taint(entry.dest_reg, entry.result_tainted)
        if instruction.is_store and entry.effective_address is not None:
            committed = self.lsu.commit_store(entry.sequence)
            nbytes = instruction.info.mem_bytes
            value = committed.value if committed is not None else entry.store_value
            self.memory.write(entry.effective_address, value, nbytes)
            self.taint.taint_memory_write(entry.effective_address, nbytes, entry.result_tainted)
        if instruction.is_load:
            self.lsu.retire_load(entry.sequence)
        if instruction.is_control_flow:
            self._train_predictors_at_commit(entry)
        if instruction.is_serializing:
            # A fence or fence.i that commits without trapping lets fetch
            # run past it again.
            self.fetch_serialized = False
            if instruction.mnemonic == "fence.i":
                self.hierarchy.flush_icache()

    def _commit_exception(self, entry: RobEntry) -> None:
        cause = entry.exception
        self.trace.record_trap(
            TrapCommitEvent(
                cycle=self.cycle,
                sequence=entry.sequence,
                pc=entry.pc,
                cause=cause.value,
                tval=entry.exception_tval,
            )
        )
        # Phantom-BTB (B3): if an indirect-jump misprediction correction landed
        # in this same cycle, the buggy core applies it to the excepting PC.
        if self.config.has_bug("phantom-btb") and self._indirect_correction is not None:
            correction_cycle, corrected_target, corrected_tainted = self._indirect_correction
            if correction_cycle == self.cycle:
                self.predictors.btb.install(entry.pc, corrected_target, tainted=corrected_tainted)

        squashed = self._squash_all()
        self._record_squash(SquashReason.EXCEPTION, entry, squashed)
        self._apply_squash_control_taint(squashed, extra_tainted=False)
        self.lsu.squash_all()
        self._rebuild_last_writers()
        self.fetch_serialized = False
        self._halt_reason = f"trap:{cause.value}"

    def _train_predictors_at_commit(self, entry: RobEntry) -> None:
        instruction = entry.instruction
        tainted = entry.sources_tainted
        if instruction.is_branch:
            taken = entry.actual_next_pc != entry.pc + 4
            self.predictors.bht.train(entry.pc, taken, tainted=tainted)
            self.predictors.loop.train(entry.pc, taken, tainted=tainted)
            if taken:
                self.predictors.btb.install(entry.pc, entry.actual_next_pc, tainted=tainted)
        elif instruction.is_indirect_jump and not instruction.is_return:
            self.predictors.btb.install(entry.pc, entry.actual_next_pc, tainted=tainted)

    # -- resolve stage -----------------------------------------------------------------------

    def _resolve_stage(self, cycle: int) -> None:
        # An entry resolves once, in the first cycle its result is complete:
        # its actual and predicted next PC never change afterwards, so a
        # correct prediction needs no further look.  Entries completing in
        # the same cycle resolve in program order, and one squashed by an
        # older entry's misprediction earlier in the loop does not resolve.
        unresolved = self._unresolved
        ready = [
            entry
            for entry in unresolved
            if entry.executed and entry.complete_cycle <= cycle
        ]
        if not ready:
            return
        unresolved[:] = [
            entry
            for entry in unresolved
            if not (entry.executed and entry.complete_cycle <= cycle)
        ]
        for entry in ready:
            if not entry.squashed:
                self._resolve_control_flow(entry)

    def _resolve_control_flow(self, entry: RobEntry) -> None:
        if entry.actual_next_pc is None or entry.exception is not None:
            return
        if entry.actual_next_pc == entry.predicted_next_pc:
            return
        instruction = entry.instruction
        if instruction.is_return:
            reason = SquashReason.RETURN_MISPREDICTION
        elif instruction.is_indirect_jump:
            reason = SquashReason.INDIRECT_MISPREDICTION
        else:
            reason = SquashReason.BRANCH_MISPREDICTION

        tainted = entry.sources_tainted
        propagate = self.taint.control_event(
            "redirect", (entry.sequence,), entry.actual_next_pc, tainted, self.cycle
        )
        squashed = self._squash_younger_than(entry.sequence)
        self._record_squash(reason, entry, squashed)
        self._apply_squash_control_taint(squashed, extra_tainted=propagate)
        self.lsu.squash_younger_than(entry.sequence)
        self._rebuild_last_writers()

        if entry.ras_snapshot is not None:
            self.predictors.ras.restore(entry.ras_snapshot)
        if instruction.is_indirect_jump and not instruction.is_return:
            self._indirect_correction = (self.cycle, entry.actual_next_pc, tainted)
            self.predictors.btb.install(entry.pc, entry.actual_next_pc, tainted=tainted)

        redirect_cycle_penalty = self.config.misprediction_penalty
        self._redirect_fetch(entry.actual_next_pc, reason.value, entry.pc, redirect_cycle_penalty)

    def _record_squash(self, reason: SquashReason, trigger: RobEntry, squashed: List[RobEntry]) -> None:
        self.trace.record_squash(
            RobSquashEvent(
                cycle=self.cycle,
                reason=reason,
                trigger_sequence=trigger.sequence,
                trigger_pc=trigger.pc,
                squashed_sequences=tuple(entry.sequence for entry in squashed),
            )
        )

    def _apply_squash_control_taint(self, squashed: List[RobEntry], extra_tainted: bool) -> None:
        """Model the RoB-rollback control-taint behaviour of §2.2.

        When tainted state is in flight during a squash, CellIFT taints every
        RoB entry field (and downstream rename/frontend state) because the
        tail-pointer movement is tainted.  diffIFT only does so when the
        differential oracle confirms the squash decision actually diverged
        between the two instances.
        """
        had_tainted_inflight = any(entry.result_tainted or entry.sources_tainted for entry in squashed)
        if not had_tainted_inflight:
            return
        propagate = self.taint.control_event(
            "rollback", (squashed[0].sequence if squashed else -1,), len(squashed), True, self.cycle
        )
        if propagate or extra_tainted:
            if self.taint.mode is TaintTrackingMode.CELLIFT:
                # Whole-structure explosion: every RoB field register, the
                # rename map and the frontend become tainted and stay tainted.
                self.taint.add_control_overlay("rob", self.config.rob_entries)
                self.taint.add_control_overlay("regfile", 32)
                self.taint.add_control_overlay("bht", self.config.predictors.bht_entries)
                self.taint.add_control_overlay("btb", self.config.predictors.btb_entries)
                self.taint.add_control_overlay("ldq", self.config.ldq_entries)
                self.taint.add_control_overlay("stq", self.config.stq_entries)
                self.taint.add_control_overlay("dcache", self.config.dcache.sets)
            else:
                # diffIFT: the divergence is real but bounded — only the
                # squashed entries' worth of state is marked.
                self.taint.add_control_overlay("rob", len(squashed))

    def _redirect_fetch(self, target: int, reason: str, source_pc: int, penalty: Optional[int] = None) -> None:
        self.trace.record_redirect(
            RedirectEvent(cycle=self.cycle, source_pc=source_pc, target_pc=target, reason=reason)
        )
        self.fetch_pc = target
        stall = self.cycle + (penalty if penalty is not None else self.config.misprediction_penalty)
        if self.config.has_bug("spectre-refetch"):
            # The fetch unit stays busy with the (now useless) transient
            # instruction-cache miss: do not cancel the outstanding stall.
            self.fetch_stall_until = max(self.fetch_stall_until, stall)
        else:
            self.fetch_stall_until = stall
        self.fetch_serialized = False

    # -- execute stage ------------------------------------------------------------------------

    def _execute_entry(self, entry: RobEntry) -> None:
        instruction = entry.instruction
        cycle = self.cycle
        # Each source reads its in-flight producer's result if there is one,
        # else the architectural register; x0 reads as an untainted zero.
        producers = entry._producers
        results = self._results
        source = instruction.rs1
        producer = producers.get(source) if producers else None
        if source == 0:
            rs1_value, rs1_tainted = 0, False
        elif producer is not None and producer in results:
            rs1_value, rs1_tainted = results[producer]
        else:
            rs1_value = self.registers[source]
            rs1_tainted = self._taint_enabled and self.taint.register_is_tainted(source)
        source = instruction.rs2
        producer = producers.get(source) if producers else None
        if source == 0:
            rs2_value, rs2_tainted = 0, False
        elif producer is not None and producer in results:
            rs2_value, rs2_tainted = results[producer]
        else:
            rs2_value = self.registers[source]
            rs2_tainted = self._taint_enabled and self.taint.register_is_tainted(source)
        sources_tainted = (rs1_tainted and instruction.info.reads_rs1) or (
            rs2_tainted and instruction.info.reads_rs2
        )
        entry.sources_tainted = sources_tainted
        entry.dispatch_cycle = cycle
        latency_cache = self._latency_cache
        latency = latency_cache.get(instruction.mnemonic)
        if latency is None:
            latency = base_latency(instruction, self.config)
            latency_cache[instruction.mnemonic] = latency

        if instruction.is_illegal:
            entry.exception = TrapCause.ILLEGAL_INSTRUCTION
            entry.result = 0
        elif instruction.mnemonic == "ecall":
            entry.exception = TrapCause.ECALL
        elif instruction.mnemonic == "ebreak":
            entry.exception = TrapCause.BREAKPOINT
        elif instruction.is_load:
            latency = self._execute_load(entry, instruction, rs1_value, rs1_tainted)
        elif instruction.is_store:
            latency = self._execute_store(entry, instruction, rs1_value, rs2_value, rs1_tainted, rs2_tainted)
        elif instruction.is_control_flow:
            entry.result = compute_alu(instruction, rs1_value, rs2_value, entry.pc)
            entry.actual_next_pc = next_pc(instruction, entry.pc, rs1_value, rs2_value)
            if sources_tainted:
                self.taint.control_event(
                    "branch_target", (entry.sequence,), entry.actual_next_pc, True, cycle
                )
        else:
            entry.result = compute_alu(instruction, rs1_value, rs2_value, entry.pc)
            entry.actual_next_pc = entry.pc + 4

        if instruction.is_divider and entry.exception is None:
            start = self.ports.claim_divider(
                cycle, latency, floating_point=instruction.iclass is InstructionClass.FP_DIV
            )
            latency += start - cycle

        entry.result_tainted = sources_tainted or entry.result_tainted
        entry.executed = True
        entry.complete_cycle = cycle + max(latency, 1)
        destination = instruction._writes
        if destination is not None:
            entry.dest_reg = destination
            self._results[entry.sequence] = (entry.result, entry.result_tainted)
        if entry.result_tainted or entry.sources_tainted:
            self.rob.mark_tainted(entry.sequence)

    # -- memory execution ------------------------------------------------------------------------

    def _translate(self, address: int, tainted_address: bool) -> int:
        result = self.tlb.access(address, tainted=tainted_address)
        return result.latency

    def _check_memory_exception(self, address: int, nbytes: int, is_store: bool) -> Optional[TrapCause]:
        if address >= (1 << PHYSICAL_ADDRESS_BITS):
            return TrapCause.STORE_ACCESS_FAULT if is_store else TrapCause.LOAD_ACCESS_FAULT
        if not is_aligned(address, nbytes):
            return TrapCause.MISALIGNED_STORE if is_store else TrapCause.MISALIGNED_LOAD
        permission = self.memory.permission_at(address)
        if permission is None:
            return TrapCause.STORE_ACCESS_FAULT if is_store else TrapCause.LOAD_ACCESS_FAULT
        needed = Permission.WRITE if is_store else Permission.READ
        if not permission & needed:
            return TrapCause.STORE_PAGE_FAULT if is_store else TrapCause.LOAD_PAGE_FAULT
        return None

    def _execute_load(
        self, entry: RobEntry, instruction: Instruction, rs1_value: int, rs1_tainted: bool
    ) -> int:
        address = effective_address(instruction, rs1_value)
        nbytes = instruction.info.mem_bytes
        entry.effective_address = address
        entry.address_tainted = rs1_tainted
        exception = self._check_memory_exception(address, nbytes, is_store=False)

        access_address = address
        data_available = exception is None
        if exception is not None:
            entry.exception = exception
            entry.exception_tval = address
            if exception in (TrapCause.LOAD_PAGE_FAULT, TrapCause.MISALIGNED_LOAD):
                # Classic Meltdown behaviour on both cores: the faulting load
                # still forwards the data it read to dependent instructions.
                data_available = self.memory.is_mapped(address)
            elif exception is TrapCause.LOAD_ACCESS_FAULT and self.config.has_bug("meltdown-sampling"):
                # B1: the illegal high address is truncated on the way to the
                # load unit, sampling an attacker-chosen valid location.
                access_address = address & mask(TRUNCATED_ADDRESS_BITS)
                data_available = self.memory.is_mapped(access_address)

        # Secret taint: the data itself is tainted when it comes from a
        # tainted address range.
        data_tainted = data_available and self.taint.address_tainted(access_address, nbytes)
        # Address taint: under diffIFT the dcache set-index only becomes a
        # control taint when the two instances touch different sets.
        set_index = (access_address // self.config.dcache.line_bytes) % self.config.dcache.sets
        address_taint_propagates = False
        if rs1_tainted:
            address_taint_propagates = self.taint.control_event(
                "dcache_set", (entry.sequence,), set_index, True, self.cycle
            )

        latency = self._translate(access_address, rs1_tainted and address_taint_propagates)
        line_tainted = data_tainted or address_taint_propagates
        if data_available or exception is None:
            cache_result = self.hierarchy.data_access(access_address, tainted=line_tainted)
            latency += cache_result.latency
        else:
            latency += self.config.dcache.hit_latency

        sources = self.lsu.forwarding_sources(entry.sequence, address, nbytes)
        if sources and exception is None:
            # Compose the load's bytes: memory underneath (stores only reach
            # memory at commit), then every in-flight older store overlaid
            # oldest-to-youngest so the youngest store wins each byte.  This
            # handles stores wider than the load (extract the right bytes),
            # narrower than the load, and stacks of partially overlapping
            # stores alike.  Taint follows the same per-byte resolution: only
            # the source that actually supplies a byte contributes its taint,
            # so an untainted store shadowing tainted memory (or a tainted
            # older store) does not over-taint the load.
            memory_value = self.memory.read(access_address, nbytes) if data_available else 0
            value = 0
            value_tainted = False
            for byte_index in range(nbytes):
                byte_address = address + byte_index
                byte_value = (memory_value >> (byte_index * 8)) & 0xFF
                byte_tainted = data_tainted
                for store in sources:
                    if store.address <= byte_address < store.address + store.nbytes:
                        byte_value = (store.value >> ((byte_address - store.address) * 8)) & 0xFF
                        byte_tainted = store.tainted
                value |= byte_value << (byte_index * 8)
                value_tainted = value_tainted or byte_tainted
            entry.result_tainted = value_tainted
            forwarded_from = sources[-1].sequence
        else:
            value = self.memory.read(access_address, nbytes) if data_available else 0
            value_tainted = data_tainted
            forwarded_from = None
        if not instruction.info.is_unsigned_load and data_available:
            value = sign_extend(value, nbytes * 8, 64)

        entry.result = to_unsigned(value, 64)
        entry.result_tainted = entry.result_tainted or value_tainted or rs1_tainted
        entry.actual_next_pc = entry.pc + 4
        self.lsu.record_load(
            sequence=entry.sequence,
            address=address,
            nbytes=nbytes,
            cycle=self.cycle,
            tainted_address=rs1_tainted,
            forwarded_from_store=forwarded_from,
        )
        # Spectre-Reload (B5): completions serialize on the shared write-back port.
        writeback_cycle = self.lsu.schedule_writeback(self.cycle + latency)
        return writeback_cycle - self.cycle

    def _execute_store(
        self,
        entry: RobEntry,
        instruction: Instruction,
        rs1_value: int,
        rs2_value: int,
        rs1_tainted: bool,
        rs2_tainted: bool,
    ) -> int:
        address = effective_address(instruction, rs1_value)
        nbytes = instruction.info.mem_bytes
        entry.effective_address = address
        entry.address_tainted = rs1_tainted
        entry.store_value = to_unsigned(rs2_value, nbytes * 8)
        entry.result_tainted = rs2_tainted
        entry.actual_next_pc = entry.pc + 4
        exception = self._check_memory_exception(address, nbytes, is_store=True)
        if exception is not None:
            entry.exception = exception
            entry.exception_tval = address
            return self.config.alu_latency

        latency = self._translate(address, rs1_tainted)
        self.lsu.allocate_store(entry.sequence)
        self.lsu.resolve_store(entry.sequence, address, nbytes, entry.store_value, rs2_tainted)

        violating = self.lsu.check_ordering_violation(entry.sequence, address, nbytes)
        if violating is not None:
            self._memory_disambiguation_squash(entry, violating.sequence)
        return latency + self.config.dcache.hit_latency

    def _memory_disambiguation_squash(self, store_entry: RobEntry, violating_sequence: int) -> None:
        violating_entry = self.rob.find(violating_sequence)
        if violating_entry is None:
            return
        propagate = self.taint.control_event(
            "mem_disamb",
            (store_entry.sequence,),
            violating_sequence,
            store_entry.result_tainted or violating_entry.result_tainted,
            self.cycle,
        )
        squashed = self._squash_younger_than(violating_sequence - 1)
        self._record_squash(SquashReason.MEMORY_DISAMBIGUATION, store_entry, squashed)
        self._apply_squash_control_taint(squashed, extra_tainted=propagate)
        self.lsu.squash_younger_than(violating_sequence - 1)
        self._rebuild_last_writers()
        self._redirect_fetch(violating_entry.pc, SquashReason.MEMORY_DISAMBIGUATION.value, store_entry.pc)

    # -- fetch stage ----------------------------------------------------------------------------

    def _dispatch(self, instruction: Instruction) -> RobEntry:
        rob = self.rob
        sequence = rob.allocate_sequence()
        if not instruction.is_nop:
            # Nops leave it behind, so _advance sees a RoB of only nops.
            self._youngest_non_nop = sequence
        pc = self.fetch_pc
        cycle = self.cycle
        if instruction.is_control_flow:
            predicted_next_pc, ras_snapshot = self._predict(instruction, pc)
        else:
            # Straight-line instructions always predict fall-through.
            predicted_next_pc, ras_snapshot = pc + 4, None
        # Built positionally: a keyword build of the 26-slot dataclass costs
        # three times as much, and dispatch runs once per fetched instruction.
        entry = RobEntry(sequence, pc, instruction, cycle, predicted_next_pc)
        if ras_snapshot is not None:
            entry.ras_snapshot = ras_snapshot
        producers: Optional[Dict[int, int]] = None
        last_writer = self._last_writer
        for source in instruction._reads:
            if source != 0 and source in last_writer:
                if producers is None:
                    producers = {}
                producers[source] = last_writer[source]
        entry._producers = producers
        rob.enqueue(entry)
        self.trace.enqueues.append(
            _new_event(
                RobEnqueueEvent, (cycle, len(rob.entries) - 1, sequence, pc, instruction.mnemonic)
            )
        )
        destination = instruction._writes
        if destination is not None:
            last_writer[destination] = sequence
        if instruction.is_control_flow:
            self._unresolved.append(entry)
        if instruction.is_illegal and not self.config.illegal_instruction_opens_window:
            # The frontend refuses to speculate past an illegal instruction
            # (BOOM behaviour): no transient window opens.
            entry.exception = TrapCause.ILLEGAL_INSTRUCTION
            entry.executed = True
            entry.complete_cycle = cycle + 1
            heapq.heappush(self._executing, (entry.complete_cycle, sequence, entry))
            self.fetch_serialized = True
        else:
            self._unexecuted.append(entry)
        if instruction.is_serializing:
            # System instructions serialize the frontend: fetch does not run
            # past them until they commit, trap or are squashed.
            self.fetch_serialized = True
        self.fetch_pc = predicted_next_pc
        return entry

    def _predict(self, instruction: Instruction, pc: int) -> Tuple[int, Optional[object]]:
        """Predict the next fetch PC and capture a RAS snapshot when needed."""
        snapshot = None
        if instruction.is_branch:
            target = to_unsigned(pc + to_signed(instruction.imm, 64), 64)
            loop_prediction = self.predictors.loop.predict(pc)
            if loop_prediction is not None:
                taken = loop_prediction
            else:
                taken = self.predictors.bht.predict(pc).taken
            return (target if taken else pc + 4), None
        if instruction.mnemonic == "jal":
            target = to_unsigned(pc + to_signed(instruction.imm, 64), 64)
            if instruction.rd == 1:
                snapshot = self.predictors.ras.snapshot()
                if self.config.speculative_ras_update:
                    self.predictors.ras.push(pc + 4)
            return target, snapshot
        if instruction.is_indirect_jump:
            snapshot = self.predictors.ras.snapshot()
            if instruction.is_return:
                if self.config.speculative_ras_update:
                    predicted = self.predictors.ras.pop()
                else:
                    predicted = self.predictors.ras.peek()
                return predicted, snapshot
            btb_prediction = self.predictors.btb.predict(pc)
            if instruction.rd == 1 and self.config.speculative_ras_update:
                self.predictors.ras.push(pc + 4)
            if btb_prediction.hit and btb_prediction.target is not None:
                return btb_prediction.target, snapshot
            return pc + 4, snapshot
        return pc + 4, snapshot

    # -- bookkeeping --------------------------------------------------------------------------------

    def _squash_younger_than(self, sequence: int) -> List[RobEntry]:
        """Squash RoB entries younger than ``sequence`` and drop them from the worklists.

        The executing heap drops squashed entries lazily, when they surface.
        """
        squashed = self.rob.remove_younger_than(sequence)
        for worklist in (self._unexecuted, self._unresolved):
            while worklist and worklist[-1].sequence > sequence:
                worklist.pop()
        return squashed

    def _squash_all(self) -> List[RobEntry]:
        squashed = self.rob.remove_all()
        self._clear_worklists()
        return squashed

    def _clear_worklists(self) -> None:
        self._unexecuted.clear()
        self._unresolved.clear()
        self._executing.clear()

    def _rebuild_last_writers(self) -> None:
        self._last_writer = {}
        for entry in self.rob.entries:
            destination = entry.instruction.writes()
            if destination is not None:
                self._last_writer[destination] = entry.sequence

    def _record_census(self) -> None:
        taint = self.taint
        if not taint.enabled:
            return
        # The per-structure counters are summed inline (the hierarchy and
        # predictor ``taint_version`` properties would add five attribute +
        # property dispatches per cycle).
        hierarchy = self.hierarchy
        predictors = self.predictors
        version = (
            taint.taint_version
            + self.rob.taint_version
            + hierarchy.icache.taint_version
            + hierarchy.dcache.taint_version
            + hierarchy.lfb.taint_version
            + self.tlb.taint_version
            + predictors.bht.taint_version
            + predictors.btb.taint_version
            + predictors.ras.taint_version
            + predictors.loop.taint_version
            + self.lsu.taint_version
        )
        if hierarchy.l2 is not None:
            version += hierarchy.l2.taint_version
        if version == self._census_version and taint.census_log:
            taint.record_census_repeat(self.cycle)
            return
        counts: Dict[str, int] = {"rob": self.rob.tainted_entry_count()}
        counts.update(self.hierarchy.tainted_counts())
        counts["tlb"] = self.tlb.tainted_entry_count()
        counts.update(self.predictors.tainted_counts())
        counts.update(self.lsu.tainted_counts())
        self.taint.record_census(self.cycle, counts)
        self._census_version = version

    def side_channel_fingerprint(self) -> Tuple:
        """Hash-able snapshot of every timing component (SpecDoctor's oracle)."""
        return (
            self.hierarchy.state_fingerprint(),
            self.tlb.state_fingerprint(),
            self.predictors.state_fingerprint(),
        )

    # -- convenience -----------------------------------------------------------------------------------

    def mark_secret(self, base: int, size: int) -> None:
        """Declare a memory region as the sensitive data to be tracked."""
        self.taint.taint_address_range(base, size)

    def flush_transient_state(self) -> None:
        """Drop all in-flight state (used by the swap scheduler between packets)."""
        self._squash_all()
        self.lsu.squash_all()
        self._last_writer = {}
        self._results = {}
