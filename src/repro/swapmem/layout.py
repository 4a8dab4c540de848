"""Address-space layout of the swapMem testbench."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class MemoryLayout:
    """The three swapMem regions plus the probe array used for encoding.

    All sizes are in bytes.  The probe (leak) array is the attacker-visible
    buffer that secret-dependent addresses index into; it lives in the shared
    region in the paper's firmware and is given its own range here for
    clarity.
    """

    # Bases are kept below 2**31 so that absolute addresses can be materialised
    # with a positive lui+addi pair (RV64 lui sign-extends bit 31).
    shared_base: int = 0x1000_0000
    shared_size: int = 0x4000
    dedicated_base: int = 0x1000_4000
    dedicated_size: int = 0x4000
    swappable_base: int = 0x1001_0000
    swappable_size: int = 0x8000
    probe_base: int = 0x1002_0000
    probe_size: int = 0x10000

    # Offsets inside the dedicated region.
    secret_offset: int = 0x0
    secret_size: int = 64
    operand_offset: int = 0x800

    @property
    def secret_address(self) -> int:
        return self.dedicated_base + self.secret_offset

    @property
    def operand_address(self) -> int:
        return self.dedicated_base + self.operand_offset

    @property
    def swappable_end(self) -> int:
        return self.swappable_base + self.swappable_size

    def describe(self) -> str:
        return (
            f"shared    [{self.shared_base:#x}, {self.shared_base + self.shared_size:#x})\n"
            f"dedicated [{self.dedicated_base:#x}, {self.dedicated_base + self.dedicated_size:#x})"
            f" secret@{self.secret_address:#x}\n"
            f"swappable [{self.swappable_base:#x}, {self.swappable_end:#x})\n"
            f"probe     [{self.probe_base:#x}, {self.probe_base + self.probe_size:#x})"
        )


DEFAULT_LAYOUT = MemoryLayout()
