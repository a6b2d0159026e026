"""Shared-cache residency model (LRU over blocks).

The pipelined scheme's whole premise is that a block, once loaded by the
team's front thread, stays in the shared cache until the rear thread has
done its updates.  Whether that holds depends on cache size, block size,
thread distance ``d_u`` and the number of in-flight blocks — "du and the
blocksize are strongly coupled, and larger blocks would require smaller
du" (Sect. 1.5).  This module models the outer-level cache as an LRU set
of blocks so the simulator can observe exactly that coupling: too-loose
pipelines evict blocks before the rear thread arrives and pay memory
bandwidth again.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Hashable, List, Optional, Tuple

__all__ = ["EvictedBlock", "SharedCacheModel"]

BlockKey = Hashable


@dataclass(frozen=True)
class EvictedBlock:
    """An eviction record: which block left the cache and its dirty bytes."""

    key: BlockKey
    bytes: int
    dirty_bytes: int


class SharedCacheModel:
    """LRU cache of variable-size blocks with dirty tracking.

    This is a *working-set* model, not a set-associative simulator: the
    paper's analysis (Sect. 1.4) needs only "is the block still in the
    shared cache when thread k touches it", for which capacity+LRU is the
    standard abstraction.  An optional ``usable_fraction`` accounts for
    the part of the cache consumed by other data (page tables, counters,
    the one-layer shift overhang the paper mentions).
    """

    def __init__(self, capacity: int, usable_fraction: float = 0.85) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if not 0.0 < usable_fraction <= 1.0:
            raise ValueError("usable_fraction must be in (0, 1]")
        self.capacity = int(capacity * usable_fraction)
        self._blocks: "OrderedDict[BlockKey, Tuple[int, int]]" = OrderedDict()
        self._used = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # -- queries ------------------------------------------------------------------

    def contains(self, key: BlockKey) -> bool:
        """Is the block resident (does not update recency)?"""
        return key in self._blocks

    # -- operations ---------------------------------------------------------------

    def touch(self, key: BlockKey, nbytes: int,
              dirty_bytes: int = 0) -> Tuple[bool, List[EvictedBlock]]:
        """Access a block: returns ``(hit, evictions_caused)``.

        On a hit the block moves to MRU and its dirty bytes accumulate; on
        a miss the block is installed, evicting LRU blocks as needed.  A
        block larger than the whole cache is installed alone (streaming
        through), evicting everything else — the degenerate case the paper
        avoids by choosing the block size against the cache limit.
        """
        if nbytes <= 0:
            raise ValueError("block bytes must be positive")
        evicted: List[EvictedBlock] = []
        if key in self._blocks:
            old_bytes, old_dirty = self._blocks.pop(key)
            self._used -= old_bytes
            self._blocks[key] = (nbytes, max(old_dirty, dirty_bytes))
            self._used += nbytes
            self.hits += 1
            return True, evicted
        self.misses += 1
        self._blocks[key] = (nbytes, dirty_bytes)
        self._used += nbytes
        while self._used > self.capacity and len(self._blocks) > 1:
            old_key, (ob, od) = self._blocks.popitem(last=False)
            if old_key == key:  # never evict the block just installed
                self._blocks[key] = (ob, od)
                self._blocks.move_to_end(key)
                break
            self._used -= ob
            self.evictions += 1
            evicted.append(EvictedBlock(old_key, ob, od))
        return False, evicted

    def evict(self, key: BlockKey) -> Optional[EvictedBlock]:
        """Force eviction of one block; returns its record if present."""
        if key not in self._blocks:
            return None
        nb, dirty = self._blocks.pop(key)
        self._used -= nb
        self.evictions += 1
        return EvictedBlock(key, nb, dirty)

    def flush(self) -> List[EvictedBlock]:
        """Evict everything (end-of-run writeback accounting)."""
        out = [EvictedBlock(k, nb, d) for k, (nb, d) in self._blocks.items()]
        self.evictions += len(self._blocks)
        self._blocks.clear()
        self._used = 0
        return out
