"""Mutation operators driven by the coverage feedback loop (§4.2.2)."""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Set

from repro.generation.seeds import EncodeStrategy, Seed
from repro.generation.window_types import TransientWindowType
from repro.utils.rng import DeterministicRng

# Which census modules each secret-encoding strategy is able to taint.  The
# coverage-guided mutation biases strategy selection towards modules that have
# not produced coverage points yet (this is how the taint coverage matrix
# "effectively guides exploration", §4.2.2).
STRATEGY_TARGETS: Dict[EncodeStrategy, Set[str]] = {
    EncodeStrategy.DCACHE_INDEX: {"dcache", "l2", "lfb"},
    EncodeStrategy.TLB_INDEX: {"tlb", "dcache"},
    EncodeStrategy.STORE_INDEX: {"stq", "dcache"},
    EncodeStrategy.BRANCH_DIRECTION: {"bht", "btb", "loop", "ras"},
    EncodeStrategy.FPU_CONTENTION: {"regfile"},
    EncodeStrategy.LSU_CONTENTION: {"ldq", "dcache"},
    EncodeStrategy.ICACHE_TARGET: {"icache", "btb"},
}


class Mutator:
    """Produces child seeds: window re-rolls when coverage stalls, or fresh triggers.

    Seed identities are allocated from a mutator-local counter rather than the
    module-level one so that two campaigns built from the same entropy assign
    the same ids (seed ids feed the per-seed rng streams); ``seed_id_base``
    namespaces the ids of parallel shards so seeds from different shards never
    collide in a shared corpus.
    """

    def __init__(self, rng: DeterministicRng, seed_id_base: int = 0) -> None:
        self.rng = rng
        self._next_seed_id = seed_id_base

    def allocate_seed_id(self) -> int:
        """Hand out the next campaign-local seed id."""
        seed_id = self._next_seed_id
        self._next_seed_id += 1
        return seed_id

    def mutate_window(self, seed: Seed, uncovered_modules: Optional[Iterable[str]] = None) -> Seed:
        """Regenerate the window section: new encode strategies / length / masking.

        This is the cheap mutation used when sensitive data propagated but the
        coverage increase was below average.  When ``uncovered_modules`` is
        given, strategies that can reach those modules are preferred.
        """
        strategies = self.pick_strategies(uncovered_modules)
        return seed.mutated(
            seed_id=self.allocate_seed_id(),
            entropy=self.rng.randint(0, 2**31 - 1),
            encode_strategies=strategies,
            encode_block_length=self.rng.randint(1, 3),
            mask_high_bits=self.rng.bernoulli(0.25),
        )

    def mutate_trigger(
        self,
        seed: Seed,
        preferred_types: Optional[Iterable[TransientWindowType]] = None,
        uncovered_modules: Optional[Iterable[str]] = None,
    ) -> Seed:
        """Return to Phase 1 with a new transient window type (seed discarded).

        ``preferred_types`` lets the coverage-guided fuzzer target window
        types it has not explored yet before revisiting known ones.
        """
        pool = list(preferred_types) if preferred_types else list(TransientWindowType)
        new_type = self.rng.choice(pool)
        return seed.mutated(
            seed_id=self.allocate_seed_id(),
            entropy=self.rng.randint(0, 2**31 - 1),
            window_type=new_type,
            encode_strategies=self.pick_strategies(uncovered_modules),
            mask_high_bits=self.rng.bernoulli(0.25),
        )

    def pick_strategies(self, uncovered_modules: Optional[Iterable[str]] = None) -> tuple:
        """Choose the secret-encoding strategies for a new window section.

        Public because the fuzzing manager also uses it when constructing fresh
        seeds (previously it reached into the private helper).
        """
        pool = list(EncodeStrategy)
        count = self.rng.randint(1, 2)
        uncovered = set(uncovered_modules or ())
        if uncovered:
            targeted = [
                strategy
                for strategy in pool
                if STRATEGY_TARGETS.get(strategy, set()) & uncovered
            ]
            if targeted and self.rng.bernoulli(0.8):
                picked = [self.rng.choice(targeted)]
                if count > 1:
                    picked.append(self.rng.choice(pool))
                return tuple(dict.fromkeys(picked))
        return tuple(self.rng.sample(pool, count))
