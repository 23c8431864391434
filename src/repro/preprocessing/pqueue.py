"""Indexed max-priority queue with incKey/decKey, for Algorithm 1.

The affinity-based reordering algorithm (paper Sec. 4.1) needs a priority
queue over candidate rows supporting increment, decrement, removal, and
pop-max. Its keys are small affinity counts moved by +-1, so a bucket
queue serves every operation in O(1) but pop's downward scan.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Tuple


class BucketQueue:
    """Max-priority queue over small non-negative integer keys.

    incKey/decKey move items between adjacent buckets in O(1); pop-max
    scans down from the current maximum. This is the right structure for
    Algorithm 1, whose keys are affinity *counts* updated by +-1 — it
    replaces O(log n) heap sifts with dict operations.

    Iteration order within a bucket is insertion order, so results are
    deterministic.
    """

    def __init__(self) -> None:
        self._buckets: List[Dict[Hashable, None]] = [dict()]
        self._keys: Dict[Hashable, int] = {}
        self._max_key = 0

    def __len__(self) -> int:
        return len(self._keys)

    def __contains__(self, item: Hashable) -> bool:
        return item in self._keys

    def insert(self, item: Hashable, key: int = 0) -> None:
        if item in self._keys:
            raise KeyError(f"{item!r} already in queue")
        if key < 0:
            raise ValueError("keys must be non-negative")
        self._ensure_bucket(key)
        self._buckets[key][item] = None
        self._keys[item] = key
        if key > self._max_key:
            self._max_key = key

    def key_of(self, item: Hashable) -> int:
        return self._keys[item]

    def _ensure_bucket(self, key: int) -> None:
        while len(self._buckets) <= key:
            self._buckets.append(dict())

    def inc_key(self, item: Hashable, delta: int = 1) -> None:
        if delta < 0:
            raise ValueError("inc_key requires a non-negative delta")
        key = self._keys[item]
        new_key = key + delta
        del self._buckets[key][item]
        self._ensure_bucket(new_key)
        self._buckets[new_key][item] = None
        self._keys[item] = new_key
        if new_key > self._max_key:
            self._max_key = new_key

    def dec_key(self, item: Hashable, delta: int = 1) -> None:
        if delta < 0:
            raise ValueError("dec_key requires a non-negative delta")
        key = self._keys[item]
        new_key = key - delta
        if new_key < 0:
            raise ValueError(f"key of {item!r} would become negative")
        del self._buckets[key][item]
        self._buckets[new_key][item] = None
        self._keys[item] = new_key

    def remove(self, item: Hashable) -> None:
        key = self._keys.pop(item)
        del self._buckets[key][item]

    def pop(self) -> Hashable:
        """Remove and return the earliest-inserted item of maximum key."""
        if not self._keys:
            raise IndexError("pop from an empty queue")
        while not self._buckets[self._max_key]:
            self._max_key -= 1
        bucket = self._buckets[self._max_key]
        item = next(iter(bucket))
        del bucket[item]
        del self._keys[item]
        return item

    def peek(self) -> Tuple[Hashable, int]:
        if not self._keys:
            raise IndexError("peek into an empty queue")
        max_key = self._max_key
        while not self._buckets[max_key]:
            max_key -= 1
        return next(iter(self._buckets[max_key])), max_key

