"""FiberCache: Gamma's hybrid cache / explicitly orchestrated buffer (3.2).

A set-associative cache over 64 B lines with four primitives:

* ``fetch`` — decoupled, non-speculative prefetch: brings a line in from
  memory ahead of use and *increments its priority counter*, soft-locking it.
* ``read``  — the PE's actual consumption: decrements priority.
* ``write`` — allocate-without-fetch for partial output fibers; sets dirty.
* ``consume`` — read-and-invalidate for partial fibers: no writeback even
  though dirty.

Replacement selects the victim with the lowest priority counter, breaking
ties with 2-bit SRRIP (insert at RRPV 2, promote to 0 on touch, age when no
candidate is at 3).

The model operates on abstract line addresses: callers map fibers to
address ranges (matrix layout or the scheduler's dynamic partial-fiber
allocator) and the cache indexes sets by address modulo set count.

Hot-path organization (see docs/architecture.md §10)
----------------------------------------------------
This implementation is the *batched* cache: callers stream whole address
ranges through ``fetch_range`` / ``read_range`` / ``write_range`` /
``consume_range`` (plus the fused ``fetch_read_range``, and
``fetch_read_ranges`` for one task's inputs), or whole *epochs* of
ranges through ``fetch_read_epoch``, instead of one Python
call per line. State lives in set-major slot arrays — parallel arrays of
length ``num_sets * num_ways`` indexed by ``set * ways + way`` (tags,
dirty, category, and one packed *replacement key* per slot) with an
address→slot index for O(1) lookup. The arrays are plain Python lists
internally: at the 1–3-line ranges that dominate real sweeps, per-element
list access (~40 ns) beats both dict-of-objects attribute chasing and
NumPy element access / small-batch ufunc dispatch (~0.9 µs per call),
which we measured to be slower until ranges exceed ~30 lines.

The replacement key packs ``(priority, RRPV_MAX - rrpv, seq)`` into one
integer so victim selection is a single ``min()`` over the set's slots
and the SRRIP aging sweep is one subtraction per tied candidate —
the eviction path dominated whole-model cache time when the fields
lived in separate lists. ``set_arrays()`` decodes the same state back
into per-set NumPy arrays for tests, lockstep checking, and
observability.

The scalar primitives (``fetch``/``read``/``write``/``consume``) remain
as single-line wrappers over the range kernels; the authoritative scalar
*model* of the semantics is
:class:`repro.core.fibercache_ref.ReferenceFiberCache`, which the
Hypothesis lockstep suite replays against this class.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.config import GammaConfig, LINE_BYTES

#: SRRIP re-reference prediction values (2-bit).
_RRPV_MAX = 3
_RRPV_INSERT = 2
_PRIORITY_MAX = 31  # 5-bit counter for 32 PEs (Sec. 3.2)

#: Category codes in the slot arrays.
_CATEGORIES = ("B", "partial")
_CAT_CODE = {"B": 0, "partial": 1}

#: Packed replacement key: ``(priority << 52) | ((RRPV_MAX - rrpv) << 50)
#: | seq``. Victim selection is the lexicographic minimum of
#: (priority, -rrpv, insertion seq), so with rrpv stored inverted the
#: integer ``min()`` over a set's keys IS the victim. seq gets 50 bits:
#: installs are bounded by line touches, far below 2**50 per run.
_KEY_INV_SHIFT = 50
_KEY_PRIO_SHIFT = 52
_KEY_SEQ_MASK = (1 << _KEY_INV_SHIFT) - 1
#: Key fragment for rrpv = 0 (inverted rrpv at max); OR-ing it into a key
#: is exactly "promote to RRPV 0, keep priority and seq".
_KEY_RRPV0 = _RRPV_MAX << _KEY_INV_SHIFT
#: Key fragment for rrpv = insert.
_KEY_RRPV_INSERT = (_RRPV_MAX - _RRPV_INSERT) << _KEY_INV_SHIFT
#: One unit of priority.
_KEY_PRIO_ONE = 1 << _KEY_PRIO_SHIFT
#: Keys >= this have a saturated priority counter.
_KEY_PRIO_SAT = _PRIORITY_MAX << _KEY_PRIO_SHIFT


@dataclass
class CacheStats:
    """Access and traffic counters, by request type."""

    fetch_hits: int = 0
    fetch_misses: int = 0
    read_hits: int = 0
    read_misses: int = 0
    writes: int = 0
    consume_hits: int = 0
    consume_misses: int = 0
    dirty_evictions: int = 0
    clean_evictions: int = 0

    @property
    def reads(self) -> int:
        return self.read_hits + self.read_misses

    @property
    def read_hit_rate(self) -> float:
        return self.read_hits / self.reads if self.reads else 1.0


class LineView:
    """Read-only snapshot of one resident line's replacement state."""

    __slots__ = ("addr", "category", "priority", "rrpv", "dirty")

    def __init__(self, addr: int, category: str, priority: int,
                 rrpv: int, dirty: bool) -> None:
        self.addr = addr
        self.category = category
        self.priority = priority
        self.rrpv = rrpv
        self.dirty = dirty

    def __repr__(self) -> str:
        return (f"LineView(addr={self.addr}, category={self.category!r}, "
                f"priority={self.priority}, rrpv={self.rrpv}, "
                f"dirty={self.dirty})")


class FiberCache:
    """Banked, set-associative cache with explicit data orchestration.

    Args:
        config: Gamma system parameters (capacity / ways).

    The model tracks occupancy per category ('B' lines vs 'partial' lines)
    so experiments can reproduce the paper's cache-utilization figures
    (Figs. 14 and 18).
    """

    def __init__(self, config: GammaConfig) -> None:
        self.config = config
        self.num_sets = config.fibercache_sets
        self.num_ways = config.fibercache_ways
        num_slots = self.num_sets * self.num_ways
        # Set-major slot arrays: slot = set * num_ways + way.
        self._tags: List[int] = [-1] * num_slots
        self._key: List[int] = [0] * num_slots
        self._dirty: List[int] = [0] * num_slots
        self._cat: List[int] = [0] * num_slots
        #: addr -> slot for every resident line.
        self._slot_of: Dict[int, int] = {}
        #: valid lines per set (install scans for a free way only when < ways).
        self._fill: List[int] = [0] * self.num_sets
        self._seq_counter = 0
        self._last_victim: Optional[Tuple[int, str, bool]] = None
        self.stats = CacheStats()
        #: DRAM read lines caused by misses, by data category.
        self.miss_lines = {"B": 0, "partial": 0}
        self.occupancy = {"B": 0, "partial": 0}
        self._utilization_weighted = {"B": 0.0, "partial": 0.0}
        self._utilization_weight = 0.0
        #: Accesses per bank (addr % banks): load balance across the
        #: banked structure that the 48x crossbars serve (Table 1).
        self.bank_accesses = [0] * config.fibercache_banks
        #: Hit/miss split per bank (fetch/read/consume outcomes), the
        #: per-bank hit-rate view the observability layer reports.
        self.bank_hits = [0] * config.fibercache_banks
        self.bank_misses = [0] * config.fibercache_banks

    # ------------------------------------------------------------------
    # Internal: eviction + install on the slot arrays
    # ------------------------------------------------------------------
    def _evict_from_set(self, set_index: int) -> int:
        """Evict the lowest-priority line of a full set, SRRIP-aged among
        ties; returns the freed slot.

        Victim = lexicographic minimum of (priority, -rrpv, insertion
        sequence) over the set — exactly the line the reference model's
        first-match scan selects, and exactly ``min()`` of the packed
        keys (eviction only happens on a full set, so every key in the
        slice is a valid line's). The aging sweep subtracts the victim's
        inverted-rrpv field from every same-priority key: those
        candidates all have rrpv <= the victim's (the victim maximizes
        rrpv among ties), so the subtraction never borrows and never
        needs the RRPV_MAX cap.
        """
        tags = self._tags
        keys = self._key
        base = set_index * self.num_ways
        segment = keys[base:base + self.num_ways]
        victim_key = min(segment)
        best_slot = base + segment.index(victim_key)
        inverted = (victim_key >> _KEY_INV_SHIFT) & _RRPV_MAX
        if inverted:
            # Age all tied candidates so the victim reaches RRPV max,
            # as SRRIP would by repeated aging sweeps.
            delta = inverted << _KEY_INV_SHIFT
            victim_prio = victim_key >> _KEY_PRIO_SHIFT
            for slot in range(base, base + self.num_ways):
                k = keys[slot]
                if k >> _KEY_PRIO_SHIFT == victim_prio:
                    keys[slot] = k - delta
        dirty = self._dirty[best_slot]
        if dirty:
            self.stats.dirty_evictions += 1
        else:
            self.stats.clean_evictions += 1
        category = _CATEGORIES[self._cat[best_slot]]
        self.occupancy[category] -= 1
        addr = tags[best_slot]
        del self._slot_of[addr]
        tags[best_slot] = -1
        self._fill[set_index] -= 1
        self._last_victim = (addr, category, bool(dirty))
        return best_slot

    def _install(self, addr: int, cat_code: int, key_high: int) -> int:
        """Install a line (evicting if the set is full); returns its slot.

        ``key_high`` carries the new line's priority and inverted-rrpv
        fields so callers encode their post-install replacement state in
        one store instead of writing priority/rrpv after the fact.
        """
        set_index = addr % self.num_sets
        tags = self._tags
        if self._fill[set_index] >= self.num_ways:
            slot = self._evict_from_set(set_index)
        else:
            slot = set_index * self.num_ways
            while tags[slot] >= 0:
                slot += 1
        tags[slot] = addr
        self._key[slot] = key_high | self._seq_counter
        self._dirty[slot] = 0
        self._cat[slot] = cat_code
        self._seq_counter += 1
        self._slot_of[addr] = slot
        self._fill[set_index] += 1
        self.occupancy[_CATEGORIES[cat_code]] += 1
        return slot

    # ------------------------------------------------------------------
    # Batched range primitives
    # ------------------------------------------------------------------
    def fetch_range(self, lo: int, hi: int,
                    category: str = "B") -> Tuple[int, int]:
        """Fetch every line in [lo, hi) in address order.

        Semantically identical to calling :meth:`fetch` per line; one
        Python call and one stats flush per range.

        Returns:
            (miss_lines, dirty_evictions) caused by this range.
        """
        if category not in self.miss_lines:
            raise ValueError(f"unknown line category {category!r}")
        cat_code = _CAT_CODE[category]
        slot_of = self._slot_of
        keys = self._key
        num_banks = len(self.bank_accesses)
        bank_accesses = self.bank_accesses
        bank_hits = self.bank_hits
        bank_misses = self.bank_misses
        hits = 0
        misses = 0
        dirty_before = self.stats.dirty_evictions
        for addr in range(lo, hi):
            bank_accesses[addr % num_banks] += 1
            slot = slot_of.get(addr)
            if slot is not None:
                hits += 1
                bank_hits[addr % num_banks] += 1
                # priority++ (saturating), rrpv = 0.
                k = keys[slot]
                if k < _KEY_PRIO_SAT:
                    k += _KEY_PRIO_ONE
                keys[slot] = k | _KEY_RRPV0
            else:
                misses += 1
                bank_misses[addr % num_banks] += 1
                # fetch installs at priority 1, rrpv = insert.
                self._install(addr, cat_code,
                              _KEY_PRIO_ONE | _KEY_RRPV_INSERT)
        self.stats.fetch_hits += hits
        self.stats.fetch_misses += misses
        self.miss_lines[category] += misses
        return misses, self.stats.dirty_evictions - dirty_before

    def read_range(self, lo: int, hi: int,
                   category: str = "B") -> Tuple[int, int]:
        """Read every line in [lo, hi) in address order (PE consumption).

        Returns:
            (miss_lines, dirty_evictions) caused by this range.
        """
        if category not in self.miss_lines:
            raise ValueError(f"unknown line category {category!r}")
        cat_code = _CAT_CODE[category]
        slot_of = self._slot_of
        keys = self._key
        num_banks = len(self.bank_accesses)
        bank_accesses = self.bank_accesses
        bank_hits = self.bank_hits
        bank_misses = self.bank_misses
        hits = 0
        misses = 0
        dirty_before = self.stats.dirty_evictions
        for addr in range(lo, hi):
            bank_accesses[addr % num_banks] += 1
            slot = slot_of.get(addr)
            if slot is not None:
                hits += 1
                bank_hits[addr % num_banks] += 1
                # priority-- (floored at 0), rrpv = 0.
                k = keys[slot]
                if k >= _KEY_PRIO_ONE:
                    k -= _KEY_PRIO_ONE
                keys[slot] = k | _KEY_RRPV0
            else:
                misses += 1
                bank_misses[addr % num_banks] += 1
                self._install(addr, cat_code, _KEY_RRPV_INSERT)
        self.stats.read_hits += hits
        self.stats.read_misses += misses
        self.miss_lines[category] += misses
        return misses, self.stats.dirty_evictions - dirty_before

    def fetch_read_range(self, lo: int, hi: int,
                         category: str = "B") -> Tuple[int, int]:
        """Fused ``fetch_range(lo, hi)`` followed by ``read_range(lo, hi)``.

        This is the per-input touch pattern of ``_execute_task``: prefetch
        the whole range, then consume it. When the range spans distinct
        sets (``hi - lo <= num_sets``, true for every real fiber since
        ranges are contiguous), each line's set is touched by no other
        line of the range, so fetch+read per line in one pass is
        state-identical to the two full passes and the fused loop runs
        once. Longer ranges fall back to the two explicit passes.

        Returns:
            (miss_lines, dirty_evictions) caused by the fetch pass (the
            read pass can only miss when the range wraps the set space,
            which the fallback path handles and includes in the totals).
        """
        if hi - lo > self.num_sets:
            m1, d1 = self.fetch_range(lo, hi, category)
            m2, d2 = self.read_range(lo, hi, category)
            return m1 + m2, d1 + d2
        if category not in self.miss_lines:
            raise ValueError(f"unknown line category {category!r}")
        cat_code = _CAT_CODE[category]
        slot_of = self._slot_of
        keys = self._key
        num_banks = len(self.bank_accesses)
        bank_accesses = self.bank_accesses
        bank_hits = self.bank_hits
        bank_misses = self.bank_misses
        hits = 0
        misses = 0
        dirty_before = self.stats.dirty_evictions
        for addr in range(lo, hi):
            bank = addr % num_banks
            bank_accesses[bank] += 2
            bank_hits[bank] += 1  # the read always hits a just-fetched line
            slot = slot_of.get(addr)
            if slot is not None:
                hits += 1
                bank_hits[bank] += 1
                # fetch: priority++ (saturating); read: priority--; the
                # pair is a no-op unless already saturated.
                k = keys[slot]
                if k >= _KEY_PRIO_SAT:
                    k -= _KEY_PRIO_ONE
                keys[slot] = k | _KEY_RRPV0
            else:
                misses += 1
                bank_misses[bank] += 1
                # fetch installs at priority 1; the read drops it to 0.
                self._install(addr, cat_code, _KEY_RRPV0)
        n = hi - lo
        self.stats.fetch_hits += hits
        self.stats.fetch_misses += misses
        self.stats.read_hits += n
        self.miss_lines[category] += misses
        return misses, self.stats.dirty_evictions - dirty_before

    def fetch_read_epoch(self, lows, highs, counts,
                         category: str = "B"):
        """Epoch-batched :meth:`fetch_read_range` over grouped ranges.

        The batched simulator core calls this once per epoch with every
        dispatched task's input ranges: ``lows[i], highs[i]`` is the
        *i*-th range in touch order and ``counts[g]`` says how many
        consecutive ranges belong to group (task) *g*. State evolution
        is bit-identical to calling ``fetch_read_range`` per range in
        order; stats are flushed once per epoch instead of per range.

        The flat line-address stream and all bank counters are computed
        as numpy arrays; only the residency walk itself — a dict probe
        and key update per line, with the install/evict path inlined —
        stays a Python loop, since each touch's hit/miss outcome depends
        on the evictions of every touch before it. Ranges wrapping the
        set space (longer than ``num_sets`` lines) take the exact
        two-pass fallback of :meth:`_fetch_read_epoch_ranges`.

        Returns:
            Four lists with one entry per group: miss lines, dirty
            evictions, and the B / partial line occupancy observed after
            the group's touches (the utilization sampling point).
        """
        if category not in self.miss_lines:
            raise ValueError(f"unknown line category {category!r}")
        lows = np.asarray(lows, dtype=np.int64)
        highs = np.asarray(highs, dtype=np.int64)
        counts = np.asarray(counts, dtype=np.int64)
        lens = highs - lows
        if lens.size == 0 or int(lens.max()) > self.num_sets:
            return self._fetch_read_epoch_ranges(
                lows.tolist(), highs.tolist(), counts.tolist(), category)
        total = int(lens.sum())
        starts = np.cumsum(lens) - lens
        addrs = np.arange(total, dtype=np.int64) + np.repeat(
            lows - starts, lens)
        range_first = np.cumsum(counts) - counts
        group_lines = np.add.reduceat(lens, range_first)

        cat_code = _CAT_CODE[category]
        slot_of = self._slot_of
        keys = self._key
        tags = self._tags
        dirty_arr = self._dirty
        cat_arr = self._cat
        fill = self._fill
        num_sets = self.num_sets
        num_ways = self.num_ways
        occupancy = self.occupancy
        occ_b = occupancy["B"]
        occ_p = occupancy["partial"]
        seq = self._seq_counter
        dirty_ev = 0
        clean_ev = 0
        last_victim = None
        missed: List[int] = []
        miss_out: List[int] = []
        dirty_out: List[int] = []
        occ_b_out: List[int] = []
        occ_p_out: List[int] = []
        addr_list = addrs.tolist()
        start = 0
        for end in np.cumsum(group_lines).tolist():
            group_misses = 0
            group_dirty = 0
            for addr in addr_list[start:end]:
                slot = slot_of.get(addr)
                if slot is not None:
                    # fetch: priority++ (saturating); read: priority--;
                    # the pair is a no-op unless already saturated.
                    k = keys[slot]
                    if k >= _KEY_PRIO_SAT:
                        k -= _KEY_PRIO_ONE
                    keys[slot] = k | _KEY_RRPV0
                    continue
                group_misses += 1
                missed.append(addr)
                set_index = addr % num_sets
                if fill[set_index] >= num_ways:
                    # Inline _evict_from_set: min packed key is the
                    # victim; age every same-priority candidate.
                    base = set_index * num_ways
                    segment = keys[base:base + num_ways]
                    victim_key = min(segment)
                    slot = base + segment.index(victim_key)
                    inverted = (victim_key >> _KEY_INV_SHIFT) & _RRPV_MAX
                    if inverted:
                        delta = inverted << _KEY_INV_SHIFT
                        victim_prio = victim_key >> _KEY_PRIO_SHIFT
                        for s in range(base, base + num_ways):
                            k = keys[s]
                            if k >> _KEY_PRIO_SHIFT == victim_prio:
                                keys[s] = k - delta
                    victim_dirty = dirty_arr[slot]
                    if victim_dirty:
                        dirty_ev += 1
                        group_dirty += 1
                    else:
                        clean_ev += 1
                    victim_cat = cat_arr[slot]
                    if victim_cat:
                        occ_p -= 1
                    else:
                        occ_b -= 1
                    old_addr = tags[slot]
                    del slot_of[old_addr]
                    last_victim = (old_addr, _CATEGORIES[victim_cat],
                                   bool(victim_dirty))
                else:
                    slot = set_index * num_ways
                    while tags[slot] >= 0:
                        slot += 1
                    fill[set_index] += 1
                # Inline _install: fetch at priority 1, the fused read
                # drops it to 0 -> net key is rrpv-0 only.
                tags[slot] = addr
                keys[slot] = _KEY_RRPV0 | seq
                seq += 1
                dirty_arr[slot] = 0
                cat_arr[slot] = cat_code
                slot_of[addr] = slot
                if cat_code:
                    occ_p += 1
                else:
                    occ_b += 1
            start = end
            miss_out.append(group_misses)
            dirty_out.append(group_dirty)
            occ_b_out.append(occ_b)
            occ_p_out.append(occ_p)
        misses = len(missed)
        self._seq_counter = seq
        occupancy["B"] = occ_b
        occupancy["partial"] = occ_p
        if last_victim is not None:
            self._last_victim = last_victim
        stats = self.stats
        stats.fetch_hits += total - misses
        stats.fetch_misses += misses
        stats.read_hits += total
        stats.dirty_evictions += dirty_ev
        stats.clean_evictions += clean_ev
        self.miss_lines[category] += misses
        if total:
            num_banks = len(self.bank_accesses)
            acc = np.bincount(addrs % num_banks,
                              minlength=num_banks).tolist()
            if missed:
                mc = np.bincount(
                    np.asarray(missed, dtype=np.int64) % num_banks,
                    minlength=num_banks).tolist()
            else:
                mc = [0] * num_banks
            bank_accesses = self.bank_accesses
            bank_hits = self.bank_hits
            bank_misses = self.bank_misses
            for bank in range(num_banks):
                accesses = acc[bank]
                bank_misses_here = mc[bank]
                bank_accesses[bank] += 2 * accesses
                bank_hits[bank] += 2 * accesses - bank_misses_here
                bank_misses[bank] += bank_misses_here
        return miss_out, dirty_out, occ_b_out, occ_p_out

    def _fetch_read_epoch_ranges(self, lows, highs, counts,
                                 category: str = "B"):
        """Range-at-a-time :meth:`fetch_read_epoch` (set-space wraps)."""
        occupancy = self.occupancy
        miss_out = []
        dirty_out = []
        occ_b_out = []
        occ_p_out = []
        pos = 0
        for count in counts:
            misses, dirty = self.fetch_read_ranges(
                lows[pos:pos + count], highs[pos:pos + count], category)
            pos += count
            miss_out.append(misses)
            dirty_out.append(dirty)
            occ_b_out.append(occupancy["B"])
            occ_p_out.append(occupancy["partial"])
        return miss_out, dirty_out, occ_b_out, occ_p_out

    def fetch_read_ranges(self, lows, highs,
                          category: str = "B") -> Tuple[int, int]:
        """:meth:`fetch_read_range` over several ranges, in one call.

        One PE task's input touches: ``lows[i], highs[i]`` is its *i*-th
        range in touch order. State evolution is bit-identical to one
        ``fetch_read_range`` call per range; the per-call overhead is
        paid once, and no numpy setup is (the per-dispatch counterpart
        of :meth:`fetch_read_epoch`).

        Returns:
            (miss_lines, dirty_evictions) summed over the ranges.
        """
        if category not in self.miss_lines:
            raise ValueError(f"unknown line category {category!r}")
        cat_code = _CAT_CODE[category]
        slot_of = self._slot_of
        keys = self._key
        install = self._install
        num_sets = self.num_sets
        num_banks = len(self.bank_accesses)
        bank_accesses = self.bank_accesses
        bank_hits = self.bank_hits
        bank_misses = self.bank_misses
        stats = self.stats
        dirty_before = stats.dirty_evictions
        hits = 0
        misses = 0
        wrap_misses = 0
        fused_lines = 0
        for lo, hi in zip(lows, highs):
            if hi - lo > num_sets:
                # Rare set-space wrap: exact two-pass fallback
                # (flushes its own fetch/read stats).
                m1, _ = self.fetch_range(lo, hi, category)
                m2, _ = self.read_range(lo, hi, category)
                wrap_misses += m1 + m2
                continue
            for addr in range(lo, hi):
                bank = addr % num_banks
                bank_accesses[bank] += 2
                bank_hits[bank] += 1
                slot = slot_of.get(addr)
                if slot is not None:
                    hits += 1
                    bank_hits[bank] += 1
                    k = keys[slot]
                    if k >= _KEY_PRIO_SAT:
                        k -= _KEY_PRIO_ONE
                    keys[slot] = k | _KEY_RRPV0
                else:
                    misses += 1
                    bank_misses[bank] += 1
                    install(addr, cat_code, _KEY_RRPV0)
            fused_lines += hi - lo
        stats.fetch_hits += hits
        stats.fetch_misses += misses
        stats.read_hits += fused_lines
        self.miss_lines[category] += misses
        return misses + wrap_misses, stats.dirty_evictions - dirty_before

    def write_range(self, lo: int, hi: int,
                    category: str = "partial") -> Tuple[int, int]:
        """Allocate-without-fetch every line in [lo, hi); marks them dirty.

        Returns:
            (0, dirty_evictions) — writes never read DRAM themselves.
        """
        if category not in self.occupancy:
            raise ValueError(f"unknown line category {category!r}")
        cat_code = _CAT_CODE[category]
        slot_of = self._slot_of
        keys = self._key
        dirty = self._dirty
        num_banks = len(self.bank_accesses)
        bank_accesses = self.bank_accesses
        dirty_before = self.stats.dirty_evictions
        for addr in range(lo, hi):
            bank_accesses[addr % num_banks] += 1
            slot = slot_of.get(addr)
            if slot is None:
                # install at priority 0 then promote to rrpv 0.
                slot = self._install(addr, cat_code, _KEY_RRPV0)
            else:
                keys[slot] |= _KEY_RRPV0
            dirty[slot] = 1
            # No priority bump: only fetch raises priority (Sec. 3.2), so
            # idle partial fibers spill to their reserved memory under
            # pressure instead of pinning capacity that B rows could use.
        self.stats.writes += hi - lo
        return 0, self.stats.dirty_evictions - dirty_before

    def consume_range(self, lo: int, hi: int) -> Tuple[int, int]:
        """Read-and-invalidate every partial line in [lo, hi).

        On hit the line is dropped without writeback even though dirty; a
        miss means the partial fiber was spilled and must be re-read from
        DRAM.

        Returns:
            (miss_lines, 0) — consumes free capacity, they never evict.
        """
        slot_of = self._slot_of
        tags = self._tags
        num_ways = self.num_ways
        num_banks = len(self.bank_accesses)
        bank_accesses = self.bank_accesses
        bank_hits = self.bank_hits
        bank_misses = self.bank_misses
        occupancy = self.occupancy
        fill = self._fill
        hits = 0
        misses = 0
        for addr in range(lo, hi):
            bank_accesses[addr % num_banks] += 1
            slot = slot_of.pop(addr, None)
            if slot is not None:
                hits += 1
                bank_hits[addr % num_banks] += 1
                occupancy[_CATEGORIES[self._cat[slot]]] -= 1
                tags[slot] = -1
                fill[slot // num_ways] -= 1
            else:
                misses += 1
                bank_misses[addr % num_banks] += 1
        self.stats.consume_hits += hits
        self.stats.consume_misses += misses
        self.miss_lines["partial"] += misses
        return misses, 0

    # ------------------------------------------------------------------
    # Scalar primitives (single-line wrappers over the range kernels)
    # ------------------------------------------------------------------
    def fetch(self, addr: int, category: str = "B") -> bool:
        """Decoupled prefetch of one line. Returns True on miss (DRAM read).

        Whether hit or miss, the line's priority counter is incremented so
        replacement will not victimize it before the matching ``read``.
        """
        return self.fetch_range(addr, addr + 1, category)[0] > 0

    def read(self, addr: int, category: str = "B") -> bool:
        """PE consumption of a fetched line. Returns True on miss.

        A miss means the line was evicted between fetch and read (or was
        never fetched) and costs a DRAM access.
        """
        return self.read_range(addr, addr + 1, category)[0] > 0

    def write(self, addr: int, category: str = "partial") -> None:
        """Allocate a line without fetching and mark it dirty (Sec. 3.2).

        Used for partial output fibers, which need not be backed by memory.
        """
        self.write_range(addr, addr + 1, category)

    def consume(self, addr: int) -> bool:
        """Read-and-invalidate a partial line. Returns True on miss."""
        return self.consume_range(addr, addr + 1)[0] > 0

    def invalidate(self, addr: int) -> None:
        """Drop a line if resident, without writeback (deallocation)."""
        slot = self._slot_of.pop(addr, None)
        if slot is not None:
            self.occupancy[_CATEGORIES[self._cat[slot]]] -= 1
            self._tags[slot] = -1
            self._fill[slot // self.num_ways] -= 1

    @property
    def last_victim_category(self) -> Optional[str]:
        victim = self._last_victim
        return victim[1] if victim is not None else None

    @property
    def last_victim_was_dirty(self) -> bool:
        victim = self._last_victim
        return bool(victim is not None and victim[2])

    @property
    def last_victim_addr(self) -> Optional[int]:
        victim = self._last_victim
        return victim[0] if victim is not None else None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def contains(self, addr: int) -> bool:
        return addr in self._slot_of

    def line_state(self, addr: int) -> Optional[LineView]:
        slot = self._slot_of.get(addr)
        if slot is None:
            return None
        key = self._key[slot]
        return LineView(
            addr=addr,
            category=_CATEGORIES[self._cat[slot]],
            priority=key >> _KEY_PRIO_SHIFT,
            rrpv=_RRPV_MAX - ((key >> _KEY_INV_SHIFT) & _RRPV_MAX),
            dirty=bool(self._dirty[slot]),
        )

    def set_arrays(self) -> Dict[str, "object"]:
        """The cache state as per-set NumPy arrays, shape (sets, ways).

        Way order within a set is storage order, not replacement order
        (replacement order is priority / RRPV / the ``seq`` array).
        Invalid ways have tag -1. Used by the lockstep tests and the
        observability layer; building the arrays is O(capacity), so this
        is not a hot-path call.
        """
        import numpy as np

        shape = (self.num_sets, self.num_ways)
        keys = np.asarray(self._key, dtype=np.int64)
        return {
            "tags": np.asarray(self._tags, dtype=np.int64).reshape(shape),
            "priority": (keys >> _KEY_PRIO_SHIFT).reshape(shape),
            "rrpv": (_RRPV_MAX
                     - ((keys >> _KEY_INV_SHIFT) & _RRPV_MAX)).reshape(shape),
            "dirty": np.asarray(self._dirty, dtype=bool).reshape(shape),
            "category": np.asarray(self._cat, dtype=np.int8).reshape(shape),
            "seq": (keys & _KEY_SEQ_MASK).reshape(shape),
        }

    @property
    def resident_lines(self) -> int:
        return self.occupancy["B"] + self.occupancy["partial"]

    @property
    def total_lines(self) -> int:
        return self.num_sets * self.num_ways

    def bank_load_imbalance(self) -> float:
        """max/mean accesses across banks (1.0 = perfectly balanced).

        A low value justifies the highly banked design: line-interleaved
        fiber accesses spread nearly uniformly over the 48 banks.
        """
        total = sum(self.bank_accesses)
        if total == 0:
            return 1.0
        mean = total / len(self.bank_accesses)
        return max(self.bank_accesses) / mean

    def bank_hit_rates(self) -> List[float]:
        """Hit fraction per bank over fetch/read/consume outcomes.

        Banks with no classified accesses report 1.0 (nothing missed).
        """
        rates = []
        for hits, misses in zip(self.bank_hits, self.bank_misses):
            total = hits + misses
            rates.append(hits / total if total else 1.0)
        return rates

    def publish_metrics(self, metrics) -> None:
        """Dump counters and per-bank tables into a MetricsRegistry."""
        for name in ("fetch_hits", "fetch_misses", "read_hits",
                     "read_misses", "writes", "consume_hits",
                     "consume_misses", "dirty_evictions",
                     "clean_evictions"):
            metrics.counter(f"cache/{name}").inc(getattr(self.stats, name))
        for category, lines in self.miss_lines.items():
            metrics.counter(f"cache/miss_lines/{category}").inc(lines)
        metrics.set_info("cache/bank_accesses", list(self.bank_accesses))
        metrics.set_info("cache/bank_hits", list(self.bank_hits))
        metrics.set_info("cache/bank_misses", list(self.bank_misses))
        metrics.set_info("cache/bank_hit_rates", self.bank_hit_rates())
        metrics.gauge("cache/bank_load_imbalance").set(
            self.bank_load_imbalance())
        average = self.average_utilization()
        for category, fraction in average.items():
            metrics.gauge(f"cache/utilization/{category}").set(fraction)

    def utilization(self) -> Dict[str, float]:
        """Instantaneous occupancy fractions by category."""
        total = self.total_lines
        used_b = self.occupancy["B"] / total
        used_p = self.occupancy["partial"] / total
        return {"B": used_b, "partial": used_p,
                "unused": max(0.0, 1.0 - used_b - used_p)}

    def sample_utilization(self, weight: float = 1.0) -> None:
        """Record a utilization sample (time-weighted, Figs. 14/18)."""
        if weight <= 0:
            return
        total = self.total_lines
        weighted = self._utilization_weighted
        weighted["B"] += self.occupancy["B"] / total * weight
        weighted["partial"] += self.occupancy["partial"] / total * weight
        self._utilization_weight += weight

    def sample_utilization_epoch(self, occ_b, occ_p, weights) -> None:
        """Batched :meth:`sample_utilization` over an epoch of tasks.

        Takes the per-task occupancy snapshots ``fetch_read_epoch``
        returned plus each task's cycle weight, and folds them into the
        running averages with the same expressions, in the same task
        order, as per-task sampling — so the published time-weighted
        utilization is bit-identical to the scalar path.
        """
        total = self.total_lines
        weighted = self._utilization_weighted
        acc_b = weighted["B"]
        acc_p = weighted["partial"]
        acc_w = self._utilization_weight
        for occupied_b, occupied_p, weight in zip(occ_b, occ_p, weights):
            if weight <= 0:
                continue
            acc_b += occupied_b / total * weight
            acc_p += occupied_p / total * weight
            acc_w += weight
        weighted["B"] = acc_b
        weighted["partial"] = acc_p
        self._utilization_weight = acc_w

    def average_utilization(self) -> Dict[str, float]:
        """Time-averaged occupancy fractions recorded by sampling."""
        if self._utilization_weight == 0:
            return self.utilization()
        used_b = self._utilization_weighted["B"] / self._utilization_weight
        used_p = (
            self._utilization_weighted["partial"] / self._utilization_weight
        )
        return {"B": used_b, "partial": used_p,
                "unused": max(0.0, 1.0 - used_b - used_p)}


def lines_for_bytes(num_bytes: int) -> int:
    """Lines occupied by a byte range starting at a line boundary."""
    return max(0, -(-num_bytes // LINE_BYTES))
