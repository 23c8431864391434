"""Tiered result store and request coalescing for the job server.

Gamma's FiberCache thesis is that reuse capture should be *explicitly
decoupled* into a hierarchy — capture what is hot close to the consumer,
keep the long tail one level further out — and the serving tier applies
the same shape to results:

* **L1** — :class:`LruCache`, an in-process LRU over complete
  :class:`~repro.engine.record.RunRecord` payloads keyed by the point's
  disk-cache key (matrix fingerprint + model + variant + config +
  semiring, via :func:`repro.engine.sweep.record_key`). Hits cost a
  dictionary move-to-end; nothing is deserialized twice.
* **L2** — the existing checksum-validated disk cache
  (:mod:`repro.engine.diskcache`). Entries survive server restarts and
  are shared with sweeps; a corrupt entry fails its checksum on load,
  is unlinked, and reads as a miss — the server recomputes instead of
  serving torn bytes.

Both tiers publish their outcomes into the span stream
(:mod:`repro.obs.spans`): ``store/l1_hit``, ``store/l1_miss``,
``store/l2_hit``, ``store/l2_miss``, ``store/admit`` — and the L2 calls
additionally emit the cache's own ``cache/*`` instants. With telemetry
off each hook is one environment lookup.

:class:`CoalescingMap` is the serving analogue of Gamma merging partial
fibers instead of refetching them: N concurrent identical jobs share one
in-flight execution future; the first requester is the *leader* that
actually runs the simulation, the rest attach to its result. In-flight
entries live here — never in L1 — so LRU eviction cannot drop a job that
is still being computed (a property the Hypothesis suite pins).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.engine import diskcache
from repro.obs import spans


class LruCache:
    """A bounded least-recently-used map (the L1 result tier).

    ``capacity <= 0`` disables the cache (every ``get`` misses, ``put``
    is a no-op) — useful for tests that want to force the L2 path.
    """

    def __init__(self, capacity: int) -> None:
        self.capacity = int(capacity)
        self._entries: "OrderedDict[str, Any]" = OrderedDict()
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def keys(self) -> List[str]:
        return list(self._entries)

    def get(self, key: str) -> Optional[Any]:
        """The cached value (refreshing its recency), or None."""
        if key not in self._entries:
            return None
        self._entries.move_to_end(key)
        return self._entries[key]

    def put(self, key: str, value: Any) -> List[str]:
        """Insert/refresh an entry; returns the keys evicted to fit it."""
        if self.capacity <= 0:
            return []
        if key in self._entries:
            self._entries.move_to_end(key)
            self._entries[key] = value
            return []
        self._entries[key] = value
        evicted = []
        while len(self._entries) > self.capacity:
            old_key, _ = self._entries.popitem(last=False)
            evicted.append(old_key)
            self.evictions += 1
        return evicted

    def invalidate(self, key: str) -> bool:
        return self._entries.pop(key, None) is not None

    def clear(self) -> None:
        self._entries.clear()


class CoalescingMap:
    """Key -> shared in-flight entry for identical concurrent jobs.

    The entry object itself is caller-provided (the server uses an
    ``asyncio.Future``); this map only guarantees the *sharing
    discipline*: between a key's first :meth:`join` and its
    :meth:`finish`, every join returns the same entry and exactly one
    caller is told it is the leader. The leader runs the execution and
    resolves the entry; :meth:`finish` removes the key so later
    requests start a fresh execution (by then the result store answers
    them anyway).
    """

    def __init__(self) -> None:
        self._inflight: Dict[str, Any] = {}
        self.created = 0
        self.joined = 0

    def __len__(self) -> int:
        return len(self._inflight)

    def __contains__(self, key: str) -> bool:
        return key in self._inflight

    def keys(self) -> List[str]:
        return list(self._inflight)

    def join(self, key: str,
             factory: Callable[[], Any]) -> Tuple[Any, bool]:
        """Attach to ``key``'s in-flight entry, creating it if absent.

        Returns ``(entry, is_leader)``; ``is_leader`` is True exactly
        once per in-flight window of a key.
        """
        if key in self._inflight:
            self.joined += 1
            return self._inflight[key], False
        entry = factory()
        self._inflight[key] = entry
        self.created += 1
        return entry, True

    def get(self, key: str) -> Optional[Any]:
        return self._inflight.get(key)

    def finish(self, key: str) -> Optional[Any]:
        """Close a key's in-flight window; returns the entry, if any."""
        return self._inflight.pop(key, None)


class DiskBackend:
    """The default L2: the engine's checksum-validated disk cache."""

    def load(self, key: str) -> Optional[Dict]:
        return diskcache.load(key)

    def store(self, key: str, payload: Dict) -> None:
        diskcache.store(key, payload)

    def contains(self, key: str) -> bool:
        return diskcache.contains(key)

    def invalidate(self, key: str) -> bool:
        return diskcache.invalidate(key)


class TieredStore:
    """L1 in-process LRU over the L2 checksum-validated disk cache.

    The write discipline is strict write-through: :meth:`put` stores to
    L2 *before* inserting into L1, so an L1 hit implies the L2 entry
    exists (containment — bit-rot aside, which the L2 checksum catches
    on read). The server's hot path uses :meth:`admit` instead, because
    there the engine's ``execute_point`` has already been the single L2
    writer; admit only fills L1.

    ``stats`` counts every outcome; :meth:`hit_rates` derives the
    L1/L2/overall rates the ``/metrics`` endpoint exposes.
    """

    def __init__(self, l1_capacity: int = 256, l2=None) -> None:
        self.l1 = LruCache(l1_capacity)
        self.l2 = l2 if l2 is not None else DiskBackend()
        self.stats: Dict[str, int] = {
            "l1_hits": 0, "l1_misses": 0,
            "l2_hits": 0, "l2_misses": 0,
            "puts": 0, "admits": 0, "promotions": 0,
        }

    def get(self, key: str) -> Tuple[Optional[Dict], Optional[str]]:
        """Look a key up through the tiers.

        Returns ``(payload, tier)`` with tier ``'l1'``, ``'l2'`` (the
        payload is promoted into L1), or ``(None, None)`` on a full
        miss.
        """
        value = self.l1.get(key)
        if value is not None:
            self.stats["l1_hits"] += 1
            spans.emit_instant("store/l1_hit", key=key)
            return value, "l1"
        self.stats["l1_misses"] += 1
        spans.emit_instant("store/l1_miss", key=key)
        payload = self.l2.load(key)
        if payload is not None:
            self.stats["l2_hits"] += 1
            self.stats["promotions"] += 1
            spans.emit_instant("store/l2_hit", key=key)
            self.l1.put(key, payload)
            return payload, "l2"
        self.stats["l2_misses"] += 1
        spans.emit_instant("store/l2_miss", key=key)
        return None, None

    def put(self, key: str, payload: Dict) -> None:
        """Write-through store: L2 first, then L1 (containment)."""
        self.stats["puts"] += 1
        self.l2.store(key, payload)
        self.l1.put(key, payload)

    def admit(self, key: str, payload: Dict) -> None:
        """Fill L1 with a payload whose L2 entry already exists.

        The execution path lands here: ``execute_point`` stored the
        record to the disk cache in whichever process computed it, so
        re-storing would only re-serialize — and would *heal* an entry
        a chaos plan just corrupted, hiding exactly the scenario the
        checksum validation exists for.
        """
        self.stats["admits"] += 1
        spans.emit_instant("store/admit", key=key)
        self.l1.put(key, payload)

    def invalidate(self, key: str) -> None:
        self.l1.invalidate(key)
        self.l2.invalidate(key)

    def hit_rates(self) -> Dict[str, Optional[float]]:
        """Derived L1 / L2 / overall hit rates (None before any lookup)."""
        lookups = self.stats["l1_hits"] + self.stats["l1_misses"]
        l2_lookups = self.stats["l2_hits"] + self.stats["l2_misses"]
        hits = self.stats["l1_hits"] + self.stats["l2_hits"]
        return {
            "l1_hit_rate":
                self.stats["l1_hits"] / lookups if lookups else None,
            "l2_hit_rate":
                self.stats["l2_hits"] / l2_lookups if l2_lookups else None,
            "overall_hit_rate": hits / lookups if lookups else None,
        }
