"""Seeds and portable seed genotypes.

A seed captures everything needed to regenerate a stimulus deterministically:
the entropy for the random instruction generator, the targeted transient
window type, the secret-encoding strategies to use in the window section, and
bookkeeping about how productive the seed has been (used by the coverage
feedback loop of §4.2.2 to decide between re-mutating the window and going
back to Phase 1).

A seed is *realized* for one core (the ``core`` tag): its concrete window
type and encoding realization are microarchitecture-specific.  The portable
part — what survives a move to a different core — is the
:class:`SeedGenotype`: the entropy, the transient-window *group*, the
encoding intent, the secret value and the lineage.  :meth:`Seed.transfer`
re-realizes a genotype for another core, which is how the heterogeneous
parallel engine moves high-gain seeds between BOOM and XiangShan shards.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, replace
from typing import Dict, Iterable, List, Optional

from repro.generation.window_types import (
    WINDOW_TYPE_GROUPS,
    TransientWindowType,
    group_of,
)
from repro.utils.jsontypes import json_typed
from repro.utils.rng import DeterministicRng


class EncodeStrategy(enum.Enum):
    """How the secret encoding block propagates the secret into the microarchitecture."""

    DCACHE_INDEX = "dcache_index"      # classic probe-array load
    TLB_INDEX = "tlb_index"            # page-granular probe load
    STORE_INDEX = "store_index"        # secret-dependent store
    BRANCH_DIRECTION = "branch_direction"  # secret-dependent branch (predictors / ports)
    FPU_CONTENTION = "fpu_contention"  # secret-gated floating point division
    LSU_CONTENTION = "lsu_contention"  # secret-gated burst of loads
    ICACHE_TARGET = "icache_target"    # secret-dependent jump target (fetch port)


_seed_counter = itertools.count()


@dataclass(frozen=True)
class SeedGenotype:
    """The core-portable part of a seed.

    Everything here is meaningful on any simulated core: the window *group*
    (Table 3 column) rather than a concrete window type, the encoding intent
    rather than a concrete encoding, plus entropy, secret and lineage.  The
    concrete window type and the instruction-level encoding realization are
    core-specific and get re-derived by :meth:`realize`.
    """

    entropy: int
    window_group: str
    encode_strategies: tuple = (EncodeStrategy.DCACHE_INDEX,)
    encode_block_length: int = 3
    mask_high_bits: bool = False
    secret_value: int = 0x5A5A_A5A5_0F0F_F0F0
    generation: int = 0
    parent_id: Optional[int] = None

    def window_types(
        self, supported: Optional[Iterable[TransientWindowType]] = None
    ) -> List[TransientWindowType]:
        """The concrete window types this genotype can realize on a core."""
        pool = WINDOW_TYPE_GROUPS[self.window_group]
        if supported is None:
            return list(pool)
        allowed = set(supported)
        return [window_type for window_type in pool if window_type in allowed]

    def realize(
        self,
        seed_id: int,
        core: str,
        window_type: TransientWindowType,
        encode_strategies: Optional[tuple] = None,
        entropy: Optional[int] = None,
    ) -> "Seed":
        """Bind the genotype to one core as a concrete, runnable seed."""
        if group_of(window_type) != self.window_group:
            raise ValueError(
                f"window type {window_type.value!r} is not in group {self.window_group!r}"
            )
        return Seed(
            seed_id=seed_id,
            entropy=self.entropy if entropy is None else entropy,
            window_type=window_type,
            encode_strategies=self.encode_strategies
            if encode_strategies is None
            else encode_strategies,
            encode_block_length=self.encode_block_length,
            mask_high_bits=self.mask_high_bits,
            secret_value=self.secret_value,
            generation=self.generation,
            parent_id=self.parent_id,
            core=core,
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "entropy": self.entropy,
            "window_group": self.window_group,
            "encode_strategies": [strategy.value for strategy in self.encode_strategies],
            "encode_block_length": self.encode_block_length,
            "mask_high_bits": self.mask_high_bits,
            "secret_value": self.secret_value,
            "generation": self.generation,
            "parent_id": self.parent_id,
        }

    @staticmethod
    def from_dict(payload: Dict[str, object]) -> "SeedGenotype":
        return SeedGenotype(
            window_group=json_typed(payload["window_group"], str, "window_group"),
            **_shared_fields(payload),
        )


def _shared_fields(payload: Dict[str, object]) -> Dict[str, object]:
    """The type-checked fields a seed's wire form shares with its genotype's."""
    strategies = json_typed(payload["encode_strategies"], list, "encode_strategies")
    if not strategies:
        raise ValueError("encode_strategies is empty")
    parent_id = payload["parent_id"]
    return {
        "entropy": json_typed(payload["entropy"], int, "entropy"),
        "encode_strategies": tuple(EncodeStrategy(value) for value in strategies),
        "encode_block_length": json_typed(
            payload["encode_block_length"], int, "encode_block_length"
        ),
        "mask_high_bits": json_typed(payload["mask_high_bits"], bool, "mask_high_bits"),
        "secret_value": json_typed(payload["secret_value"], int, "secret_value"),
        "generation": json_typed(payload["generation"], int, "generation"),
        "parent_id": None if parent_id is None else json_typed(parent_id, int, "parent_id"),
    }


@dataclass(frozen=True)
class Seed:
    """One fuzzing seed: a genotype realized for one core.

    ``core`` names the core this realization targets; the empty string marks
    an unbound (legacy / ad-hoc) seed that any core may run.
    """

    seed_id: int
    entropy: int
    window_type: TransientWindowType
    encode_strategies: tuple = (EncodeStrategy.DCACHE_INDEX,)
    encode_block_length: int = 3
    mask_high_bits: bool = False
    secret_value: int = 0x5A5A_A5A5_0F0F_F0F0
    generation: int = 0
    parent_id: Optional[int] = None
    core: str = ""

    def rng(self, label: str = "seed") -> DeterministicRng:
        return DeterministicRng(self.entropy, f"{label}/{self.seed_id}")

    # -- portability -------------------------------------------------------------------------

    def genotype(self) -> SeedGenotype:
        """The core-portable part of this seed (drops id and core binding)."""
        return SeedGenotype(
            entropy=self.entropy,
            window_group=group_of(self.window_type),
            encode_strategies=self.encode_strategies,
            encode_block_length=self.encode_block_length,
            mask_high_bits=self.mask_high_bits,
            secret_value=self.secret_value,
            generation=self.generation,
            parent_id=self.parent_id,
        )

    def compatible_with(self, core_name: str) -> bool:
        """Whether this realization may run on ``core_name`` without transfer."""
        return not self.core or self.core == core_name

    def transferable_to(
        self, supported: Optional[Iterable[TransientWindowType]] = None
    ) -> bool:
        """Whether the genotype can be realized on a core supporting ``supported``."""
        return bool(self.genotype().window_types(supported))

    def transfer(
        self,
        target_core: str,
        seed_id: int,
        supported: Optional[Iterable[TransientWindowType]] = None,
    ) -> "Seed":
        """Re-realize this seed for a different core.

        Window-type *groups* transfer; the concrete window type and the
        encoding are core-specific, so both are re-derived from a
        deterministic per-transfer rng stream (donor entropy x donor id x
        target core).  The child keeps the donor's secret, masking and block
        length, and records the donor in its lineage.
        """
        genotype = self.genotype()
        pool = genotype.window_types(supported)
        if not pool:
            raise ValueError(
                f"seed {self.seed_id} ({genotype.window_group}) has no window type "
                f"supported by core {target_core!r}"
            )
        rng = DeterministicRng(
            self.entropy, f"transfer/{self.seed_id}/{target_core}"
        )
        window_type = rng.choice(pool)
        strategies = tuple(
            rng.sample(
                list(EncodeStrategy),
                max(1, min(len(self.encode_strategies), len(EncodeStrategy))),
            )
        )
        child = genotype.realize(
            seed_id=seed_id,
            core=target_core,
            window_type=window_type,
            encode_strategies=strategies,
            entropy=rng.randint(0, 2**31 - 1),
        )
        return replace(child, generation=self.generation + 1, parent_id=self.seed_id)

    def mutated(self, seed_id: Optional[int] = None, **changes) -> "Seed":
        """Return a child seed with updated fields and lineage bookkeeping.

        Callers that need reproducible seed identities across campaigns (the
        fuzzer's :class:`~repro.generation.mutation.Mutator` and the parallel
        engine's shards) pass an explicit ``seed_id``; the module-level counter
        is only a fallback for ad-hoc construction.
        """
        child = replace(
            self,
            seed_id=next(_seed_counter) if seed_id is None else seed_id,
            generation=self.generation + 1,
            parent_id=self.seed_id,
            **changes,
        )
        return child

    @staticmethod
    def fresh(
        entropy: int,
        window_type: TransientWindowType,
        seed_id: Optional[int] = None,
        **kwargs,
    ) -> "Seed":
        return Seed(
            seed_id=next(_seed_counter) if seed_id is None else seed_id,
            entropy=entropy,
            window_type=window_type,
            **kwargs,
        )

    # -- wire format -------------------------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """A cheap, JSON-safe wire form (used to ship seeds between shard processes)."""
        return {
            "seed_id": self.seed_id,
            "entropy": self.entropy,
            "window_type": self.window_type.value,
            "encode_strategies": [strategy.value for strategy in self.encode_strategies],
            "encode_block_length": self.encode_block_length,
            "mask_high_bits": self.mask_high_bits,
            "secret_value": self.secret_value,
            "generation": self.generation,
            "parent_id": self.parent_id,
            "core": self.core,
        }

    @staticmethod
    def from_dict(payload: Dict[str, object]) -> "Seed":
        """Rebuild a seed from :meth:`to_dict` without touching the id counter."""
        return Seed(
            core=json_typed(payload["core"], str, "core"),
            seed_id=json_typed(payload["seed_id"], int, "seed_id"),
            window_type=TransientWindowType(payload["window_type"]),
            **_shared_fields(payload),
        )
