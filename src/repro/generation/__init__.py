"""Stimulus generation: seeds, triggers, training derivation and windows.

The generators implement Steps 1.1 and 2.1 of the DejaVuzz workflow
(Figure 5): random trigger-instruction generation covering every transient
window type, dummy-window placement, register-initialisation derivation via
the ISA golden model, targeted trigger-training derivation, window completion
(secret access + secret encoding blocks), window-training derivation, and the
mutation operators used when coverage feedback asks for a new window.
"""

from repro.generation.window_types import (
    TransientWindowType,
    WINDOW_TYPE_GROUPS,
    supported_window_types,
    window_types_for_table3,
)
from repro.generation.seeds import Seed, SeedGenotype, EncodeStrategy
from repro.generation.random_inst import RandomInstructionGenerator
from repro.generation.trigger import TriggerGenerator, TriggerSpec
from repro.generation.training import TrainingDeriver, TrainingMode
from repro.generation.window import WindowCompleter
from repro.generation.mutation import Mutator

__all__ = [
    "TransientWindowType",
    "WINDOW_TYPE_GROUPS",
    "supported_window_types",
    "window_types_for_table3",
    "Seed",
    "SeedGenotype",
    "EncodeStrategy",
    "RandomInstructionGenerator",
    "TriggerGenerator",
    "TriggerSpec",
    "TrainingDeriver",
    "TrainingMode",
    "WindowCompleter",
    "Mutator",
]
