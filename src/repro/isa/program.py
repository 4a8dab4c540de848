"""Program representation: labelled instruction sequences placed at addresses."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.isa.instructions import Instruction


@dataclass
class Section:
    """A contiguous block of instructions and/or data at a base address."""

    name: str
    base: int
    instructions: List[Instruction] = field(default_factory=list)
    labels: Dict[str, int] = field(default_factory=dict)
    data: bytes = b""

    def add(self, instruction: Instruction) -> "Section":
        self.instructions.append(instruction)
        return self

    def label_address(self, label: str) -> int:
        return self.base + self.labels[label]

    @property
    def size(self) -> int:
        return len(self.instructions) * 4 + len(self.data)

    @property
    def end(self) -> int:
        return self.base + self.size


@dataclass
class Program:
    """A set of sections forming one executable image."""

    sections: List[Section] = field(default_factory=list)
    entry: Optional[int] = None

    def add_section(self, section: Section) -> Section:
        for existing in self.sections:
            if _overlaps(existing, section):
                raise ValueError(
                    f"section {section.name!r} [{section.base:#x}, {section.end:#x}) "
                    f"overlaps {existing.name!r} [{existing.base:#x}, {existing.end:#x})"
                )
        self.sections.append(section)
        return section

    def label_address(self, label: str) -> int:
        for section in self.sections:
            if label in section.labels:
                return section.label_address(label)
        raise KeyError(f"label {label!r} not defined in any section")

    def labels(self) -> Dict[str, int]:
        merged: Dict[str, int] = {}
        for section in self.sections:
            for label in section.labels:
                merged[label] = section.label_address(label)
        return merged

    def instruction_at(self, address: int) -> Optional[Instruction]:
        for section in self.sections:
            offset = address - section.base
            if 0 <= offset < len(section.instructions) * 4 and offset % 4 == 0:
                return section.instructions[offset // 4]
        return None

    @property
    def instruction_count(self) -> int:
        return sum(len(section.instructions) for section in self.sections)


def _overlaps(a: Section, b: Section) -> bool:
    if a.size == 0 or b.size == 0:
        return False
    return a.base < b.end and b.base < a.end
