"""Dynamic swappable memory (swapMem) — the paper's isolation primitive.

swapMem time-shares one address space between instruction sequences with
different semantics (§3.2): training sequences and the transient sequence are
loaded into the same *swappable* region one after another, so training
instructions can occupy exactly the addresses the transient window needs
without conflicting with it.

The memory is divided into three regions (Figure 4):

* **shared** — the execution environment: state initialisation, trap handling
  and the runtime swap scheduler.  In this reproduction the trap handler and
  scheduler are implemented natively (the processor halts at each packet's
  trap and :class:`~repro.swapmem.scheduler.SwapRunner` swaps in the next
  packet) rather than as guest instructions, which corresponds to the
  paper's DPI-C swapMem runtime.
* **dedicated** — per-DUT-instance data: the secret and mutable operands, so
  different secrets can be loaded without regenerating the stimulus.
* **swappable** — the region into which packets are swapped at runtime
  according to the swap schedule.
"""

from repro.swapmem.packets import Packet, PacketKind, SwapSchedule
from repro.swapmem.layout import MemoryLayout, DEFAULT_LAYOUT
from repro.swapmem.memory import SwapMemory
from repro.swapmem.scheduler import SwapRunner, SwapRunResult
from repro.swapmem.harness import DualCoreHarness, DifferentialRunResult

__all__ = [
    "Packet",
    "PacketKind",
    "SwapSchedule",
    "MemoryLayout",
    "DEFAULT_LAYOUT",
    "SwapMemory",
    "SwapRunner",
    "SwapRunResult",
    "DualCoreHarness",
    "DifferentialRunResult",
]
