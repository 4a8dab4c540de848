"""Deterministic random number streams.

Every stochastic component in the reproduction (stimulus generation, mutation,
baseline fuzzers, workload generators) draws randomness from a
:class:`DeterministicRng` so that experiments and tests are reproducible from a
single integer seed.  Streams can be split hierarchically: splitting by a label
produces an independent child stream whose sequence depends only on the parent
seed and the label, never on how much randomness the parent has consumed.
"""

from __future__ import annotations

import hashlib
import random
from typing import List, Optional, Sequence, TypeVar

T = TypeVar("T")


class DeterministicRng:
    """A labelled, splittable wrapper around :class:`random.Random`."""

    def __init__(self, seed: int, label: str = "root") -> None:
        self._seed = seed
        self._label = label
        self._random = random.Random(_derive_seed(seed, label))

    @property
    def seed(self) -> int:
        """The root integer seed this stream was derived from."""
        return self._seed

    def split(self, label: str) -> "DeterministicRng":
        """Return an independent child stream identified by ``label``."""
        return DeterministicRng(self._seed, f"{self._label}/{label}")

    def randint(self, low: int, high: int) -> int:
        """Return a uniform integer in ``[low, high]`` inclusive."""
        return self._random.randint(low, high)

    def randbits(self, width: int) -> int:
        """Return a uniform ``width``-bit integer."""
        if width <= 0:
            return 0
        return self._random.getrandbits(width)

    def random(self) -> float:
        """Return a uniform float in ``[0, 1)``."""
        return self._random.random()

    def choice(self, options: Sequence[T]) -> T:
        """Return a uniformly chosen element of ``options``."""
        if not options:
            raise ValueError("cannot choose from an empty sequence")
        return self._random.choice(options)

    def choices(self, options: Sequence[T], k: int) -> List[T]:
        """Return ``k`` elements sampled with replacement."""
        return self._random.choices(list(options), k=k)

    def sample(self, options: Sequence[T], k: int) -> List[T]:
        """Return ``k`` distinct elements sampled without replacement."""
        return self._random.sample(list(options), k)

    def shuffle(self, items: List[T]) -> List[T]:
        """Return a new list with the elements of ``items`` shuffled."""
        copied = list(items)
        self._random.shuffle(copied)
        return copied

    def bernoulli(self, probability: float) -> bool:
        """Return True with the given probability."""
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"probability must be within [0, 1], got {probability}")
        return self._random.random() < probability


def _derive_seed(seed: int, label: str, extra: Optional[str] = None) -> int:
    material = f"{seed}:{label}:{extra or ''}".encode("utf-8")
    digest = hashlib.sha256(material).digest()
    return int.from_bytes(digest[:8], "little")
