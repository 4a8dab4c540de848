"""The transient window taxonomy used throughout the fuzzer and the benchmarks."""

from __future__ import annotations

import enum
from typing import Dict, List


class TransientWindowType(enum.Enum):
    """Every transient window kind the generator can target.

    The grouping into Table 3 columns is given by :data:`WINDOW_TYPE_GROUPS`.
    """

    LOAD_ACCESS_FAULT = "load_access_fault"
    STORE_ACCESS_FAULT = "store_access_fault"
    LOAD_PAGE_FAULT = "load_page_fault"
    STORE_PAGE_FAULT = "store_page_fault"
    LOAD_MISALIGN = "load_misalign"
    STORE_MISALIGN = "store_misalign"
    ILLEGAL_INSTRUCTION = "illegal_instruction"
    MEMORY_DISAMBIGUATION = "memory_disambiguation"
    BRANCH_MISPREDICTION = "branch_misprediction"
    INDIRECT_MISPREDICTION = "indirect_misprediction"
    RETURN_MISPREDICTION = "return_misprediction"

    @property
    def is_exception_type(self) -> bool:
        return self in (
            TransientWindowType.LOAD_ACCESS_FAULT,
            TransientWindowType.STORE_ACCESS_FAULT,
            TransientWindowType.LOAD_PAGE_FAULT,
            TransientWindowType.STORE_PAGE_FAULT,
            TransientWindowType.LOAD_MISALIGN,
            TransientWindowType.STORE_MISALIGN,
            TransientWindowType.ILLEGAL_INSTRUCTION,
        )

    @property
    def attack_type(self) -> str:
        """Meltdown-type (exception based) vs Spectre-type (prediction based)."""
        return "meltdown" if self.is_exception_type else "spectre"


# Table 3 columns group the fine-grained types into eight buckets.
WINDOW_TYPE_GROUPS: Dict[str, List[TransientWindowType]] = {
    "Load/Store Access Fault": [
        TransientWindowType.LOAD_ACCESS_FAULT,
        TransientWindowType.STORE_ACCESS_FAULT,
    ],
    "Load/Store Page Fault": [
        TransientWindowType.LOAD_PAGE_FAULT,
        TransientWindowType.STORE_PAGE_FAULT,
    ],
    "Load/Store Misalign": [
        TransientWindowType.LOAD_MISALIGN,
        TransientWindowType.STORE_MISALIGN,
    ],
    "Illegal Instruction": [TransientWindowType.ILLEGAL_INSTRUCTION],
    "Memory Disambiguation": [TransientWindowType.MEMORY_DISAMBIGUATION],
    "Branch Misprediction": [TransientWindowType.BRANCH_MISPREDICTION],
    "Indirect Jump Misprediction": [TransientWindowType.INDIRECT_MISPREDICTION],
    "Return Address Misprediction": [TransientWindowType.RETURN_MISPREDICTION],
}


def window_types_for_table3() -> List[str]:
    """The Table 3 column names in publication order."""
    return list(WINDOW_TYPE_GROUPS.keys())


def group_of(window_type: TransientWindowType) -> str:
    for group, members in WINDOW_TYPE_GROUPS.items():
        if window_type in members:
            return group
    raise KeyError(window_type)


def supported_window_types(core) -> List[TransientWindowType]:
    """The window types a given core can actually open.

    Duck-typed on :class:`~repro.uarch.config.CoreConfig` so the generation
    layer stays import-free of the uarch layer.  The one behavioural split the
    simulated cores expose is the illegal-instruction window: BOOM's frontend
    stalls on an illegal instruction (no window, the ``/`` cell of Table 3)
    while XiangShan resolves it at commit (window opens).
    """
    types = list(TransientWindowType)
    if not getattr(core, "illegal_instruction_opens_window", True):
        types.remove(TransientWindowType.ILLEGAL_INSTRUCTION)
    return types
