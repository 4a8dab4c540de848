"""The swapMem memory model: three regions plus runtime packet swapping."""

from __future__ import annotations

from typing import Dict, Optional

from repro.isa.instructions import Instruction
from repro.isa.simulator import Permission, SimMemory
from repro.swapmem.layout import DEFAULT_LAYOUT
from repro.swapmem.packets import Packet


class SwapMemory:
    """One DUT instance's view of the swapMem address space.

    The swappable region's *instructions* are held symbolically (the processor
    fetches :class:`~repro.isa.instructions.Instruction` objects), while data
    regions are backed by a :class:`~repro.isa.simulator.SimMemory`.  Swapping
    a packet replaces the swappable region contents; the caller is responsible
    for flushing the instruction cache, as the trap handler does in the paper.
    """

    def __init__(self, secret: int = 0) -> None:
        self.data = SimMemory()
        self._instructions: Dict[int, Instruction] = {}
        self.loaded_packet: Optional[Packet] = None
        self.swap_count = 0
        self._map_regions()
        self.set_secret(secret)

    def rearm(self, secret: int) -> None:
        """Restore construction state in place for a new schedule run.

        The backing :class:`SimMemory` object is kept (a pooled processor
        holds a reference to it) but wiped and remapped, so a rearm is
        indistinguishable from a fresh ``SwapMemory(secret=secret)``.
        """
        self.data.reset()
        self._instructions = {}
        self.loaded_packet = None
        self.swap_count = 0
        self._map_regions()
        self.set_secret(secret)

    def _map_regions(self) -> None:
        layout = DEFAULT_LAYOUT
        self.data.map_range(layout.shared_base, layout.shared_size, Permission.rwx())
        self.data.map_range(layout.dedicated_base, layout.dedicated_size, Permission.rwx())
        self.data.map_range(layout.swappable_base, layout.swappable_size, Permission.rwx())
        self.data.map_range(layout.probe_base, layout.probe_size, Permission.rwx())

    # -- dedicated region -----------------------------------------------------------

    def set_secret(self, secret: int, size: int = 8) -> None:
        """Write the secret value into the dedicated region."""
        self.data.write(DEFAULT_LAYOUT.secret_address, secret, size)

    def secret_value(self, size: int = 8) -> int:
        return self.data.read(DEFAULT_LAYOUT.secret_address, size)

    def set_operand(self, index: int, value: int) -> None:
        """Write a mutable operand slot (8 bytes each) in the dedicated region."""
        self.data.write(DEFAULT_LAYOUT.operand_address + index * 8, value, 8)

    def protect_secret(self) -> None:
        """Revoke read permission on the secret page (pre-transient step)."""
        self.data.set_permission(DEFAULT_LAYOUT.secret_address, Permission.EXECUTE)

    # -- swappable region --------------------------------------------------------------

    def load_packet(self, packet: Packet) -> int:
        """Swap ``packet`` into the swappable region; return its entry address."""
        if packet.size > DEFAULT_LAYOUT.swappable_size:
            raise ValueError(
                f"packet {packet.name!r} ({packet.size} bytes) does not fit in the "
                f"swappable region ({DEFAULT_LAYOUT.swappable_size} bytes)"
            )
        base = DEFAULT_LAYOUT.swappable_base
        self._instructions = dict(
            zip(range(base, base + packet.size, 4), packet.instructions)
        )
        self.loaded_packet = packet
        self.swap_count += 1
        return DEFAULT_LAYOUT.swappable_base + packet.entry_offset

    def fetch(self, address: int) -> Optional[Instruction]:
        """The processor's fetch source for the swappable region."""
        return self._instructions.get(address)
