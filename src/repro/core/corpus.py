"""The shared seed corpus of the sharded campaign engine.

Each logical slice of a parallel campaign reports its most productive seeds
(ranked by cumulative coverage gain) at every sync epoch.  The engine folds
them into one :class:`SharedCorpus`, which keeps a bounded, gain-ranked pool
and hands the best entries back out to lagging slices — the standard
corpus-redistribution move of parallel coverage-guided fuzzers, applied to
DejaVuzz's taint-coverage gain signal.  Provenance is tracked by the *slice*
index (the stable logical partition), never by the physical shard that
happened to execute it, so a checkpointed corpus stays meaningful when the
campaign resumes on a different shard count.

Everything here is deliberately wire-friendly: entries round-trip through
``to_dict``/``from_dict`` so a corpus can be checkpointed to JSON or shipped
across process boundaries without pickling simulator state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from repro.generation.seeds import Seed
from repro.utils.jsontypes import json_typed


@dataclass
class CorpusEntry:
    """One corpus inhabitant: a seed plus its provenance and productivity.

    ``core`` is the origin core the seed was realized (and productive) on;
    the empty string marks a legacy / unbound seed that any core may run.
    Redistribution uses the tag to pick compatible donors for a slice's core,
    or to transfer a foreign donor via :meth:`repro.generation.seeds.Seed.transfer`.
    """

    seed: Seed
    gain: int
    slice_index: int
    epoch: int
    core: str = ""

    def compatible_with(self, core_name: str) -> bool:
        return not self.core or self.core == core_name

    def to_dict(self) -> Dict[str, object]:
        return {
            "seed": self.seed.to_dict(),
            "gain": self.gain,
            "slice_index": self.slice_index,
            "epoch": self.epoch,
            "core": self.core,
        }

    @staticmethod
    def from_dict(payload: Dict[str, object]) -> "CorpusEntry":
        return CorpusEntry(
            seed=Seed.from_dict(payload["seed"]),
            gain=json_typed(payload["gain"], int, "gain"),
            slice_index=json_typed(payload["slice_index"], int, "slice_index"),
            epoch=json_typed(payload["epoch"], int, "epoch"),
            core=json_typed(payload["core"], str, "core"),
        )


class SharedCorpus:
    """A bounded, gain-ranked pool of seeds shared across campaign slices."""

    def __init__(self, capacity: int = 64) -> None:
        if capacity <= 0:
            raise ValueError(f"corpus capacity must be positive, got {capacity}")
        self.capacity = capacity
        # Cumulative count of entries dropped by capacity trims — corpus
        # churn for the telemetry round events (diagnostics, not state).
        self.evictions = 0
        self._entries: Dict[int, CorpusEntry] = {}  # keyed by seed_id

    def __len__(self) -> int:
        return len(self._entries)

    def add(
        self,
        seed: Seed,
        gain: int,
        slice_index: int,
        epoch: int,
        core: Optional[str] = None,
    ) -> CorpusEntry:
        """Insert or update one seed; the highest observed gain wins.

        Seed ids are globally unique (slices allocate from disjoint id bases),
        so the id is a stable identity across epochs: a seed re-reported with
        a higher cumulative gain moves up in the ranking instead of
        duplicating.  ``core`` tags the entry's origin core; it defaults to
        the seed's own realization core.
        """
        entry = self._entries.get(seed.seed_id)
        if entry is None or gain > entry.gain:
            entry = CorpusEntry(
                seed=seed,
                gain=gain,
                slice_index=slice_index,
                epoch=epoch,
                core=seed.core if core is None else core,
            )
            self._entries[seed.seed_id] = entry
        self._trim()
        # A full corpus may evict the entry straight away; the caller still
        # gets the entry it offered, it just is not retained.
        return entry

    def extend(self, entries: Iterable[CorpusEntry]) -> None:
        for entry in entries:
            self.add(entry.seed, entry.gain, entry.slice_index, entry.epoch, core=entry.core)

    def best(
        self,
        count: int,
        exclude_slice: Optional[int] = None,
        core: Optional[str] = None,
    ) -> List[CorpusEntry]:
        """The top-gain entries, optionally excluding one slice's own seeds.

        ``exclude_slice`` keeps redistribution useful: handing a slice back a
        seed it bred itself adds nothing to its exploration frontier.
        ``core`` restricts the ranking to entries compatible with that core
        (same origin core, or untagged); without it all entries rank.
        """
        candidates = [
            entry
            for entry in self._entries.values()
            if (exclude_slice is None or entry.slice_index != exclude_slice)
            and (core is None or entry.compatible_with(core))
        ]
        return sorted(candidates, key=self._rank)[:count]

    def cores(self) -> List[str]:
        """The distinct origin-core tags currently in the corpus, sorted."""
        return sorted({entry.core for entry in self._entries.values()})

    def seeds(self) -> List[Seed]:
        return [entry.seed for entry in sorted(self._entries.values(), key=self._rank)]

    def to_dicts(self) -> List[Dict[str, object]]:
        return [entry.to_dict() for entry in sorted(self._entries.values(), key=self._rank)]

    @staticmethod
    def _rank(entry: CorpusEntry):
        # Descending gain; seed id as a deterministic tiebreaker.
        return (-entry.gain, entry.seed.seed_id)

    def _trim(self) -> None:
        if len(self._entries) <= self.capacity:
            return
        keep = sorted(self._entries.values(), key=self._rank)[: self.capacity]
        self.evictions += len(self._entries) - len(keep)
        self._entries = {entry.seed.seed_id: entry for entry in keep}
