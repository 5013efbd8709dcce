"""Warp schedulers: GTO (baseline), loose round-robin, two-level.

The schedulers are *incremental* over the shard's ready set: the shard
parks warps that block (see :mod:`repro.sim.shard`) and tells the
scheduler via ``notify_ready``/``notify_blocked``, so a cycle's issue scan
touches only warps that might actually issue instead of re-discovering
every cycle that stalled warps are still stalled.  Each cycle the shard
asks for a scan object (:meth:`WarpScheduler.begin_scan`) and pulls
candidates until the issue budget is spent.

Bit-identity contract: the candidate sequence must match what the seed
per-cycle generators produced (``tests/sim/naive_schedulers.py`` keeps
them as executable references), including their mid-scan quirks —

* GTO yields the greedy warp first, then the least-recently-issued order,
  re-checking ``is not greedy`` at each step, so a mid-scan greedy handoff
  lets the *old* greedy come up again at its sorted position;
* LRR reads the ring cursor at each step, so an issue mid-scan rebases the
  ring (warps can be skipped or repeated within one cycle);
* two-level promotes into exit-freed slots only at the next cycle start,
  which delays the promotion penalty by one cycle relative to the exit.

Parked warps are simply absent from a scan: the seed generators yielded
them and the shard's issue test failed without side effects, so skipping
them cannot change simulated results.  The one storage whose issue test
*has* side effects (RFV's emergency valve) opts out of parking entirely
(``OperandStorage.parkable``), so its warps stay in the ready set and are
attempted every cycle exactly as before.

The two-level scheduler (Gebhart et al. [9], used by the RFH comparison
and by Figure 2) keeps a small active pool and demotes warps that stall on
memory; a promoted warp pays a pipeline refill penalty — one reason GTO
outperforms two-level schedulers [56].
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Callable, Iterable, List, Optional

from .warp import Warp

__all__ = [
    "WarpScheduler",
    "GTOScheduler",
    "LRRScheduler",
    "TwoLevelScheduler",
    "make_scheduler",
]


class WarpScheduler:
    """Base interface.

    ``order``/``notify_issue``/``notify_long_stall``/``eligible`` are the
    seed API (still used by tests and the fallback scan); the event-driven
    shard additionally drives ``begin_cycle``/``begin_scan`` and the
    ``notify_ready``/``notify_blocked``/``notify_exit`` bookkeeping hooks.
    """

    #: True if ``notify_long_stall`` has an observable effect (two-level
    #: demotion).  The shard must then keep selectable warps in the ready
    #: set even when event-blocked, so the demotion fires at the exact
    #: issue attempt the seed scan would have made.
    demotes = False

    def __init__(self, warps: List[Warp]):
        self.warps = warps
        for i, w in enumerate(warps):
            w.slot = i
        #: set by the shard: called with each warp promoted out of a
        #: pending pool (the warp's ``stall_until`` was raised and its
        #: recorded stall bin must be re-derived).
        self.on_promote: Optional[Callable[[Warp], None]] = None

    # -- seed API -------------------------------------------------------------

    def order(self, cycle: int) -> Iterable[Warp]:
        raise NotImplementedError

    def notify_issue(self, warp: Warp, cycle: int) -> None:
        """A warp issued this cycle."""

    def notify_long_stall(self, warp: Warp) -> None:
        """A warp blocked on a long-latency (memory) operation."""

    def eligible(self, warp: Warp) -> bool:
        """Is the warp in the scheduler's selectable set this cycle?

        Single-level schedulers consider every warp; the two-level
        scheduler only its active pool.  Stall attribution uses this to
        split ``demoted`` (ready but parked in the pending pool) from
        ``issue_width`` (ready and selectable, but the budget ran out).
        """
        return True

    # -- event-driven API -----------------------------------------------------

    @property
    def quiescent(self) -> bool:
        """True when :meth:`begin_cycle` would be a no-op, so the shard's
        idle fast path may skip it (demand clocking).  Schedulers with
        deferred per-cycle maintenance (two-level purge-and-promote)
        return False while it is pending."""
        return True

    def begin_cycle(self, cycle: int) -> None:
        """Per-cycle state update before wake-ups and the issue scan."""

    def begin_scan(self, cycle: int) -> "_Scan":
        """Start this cycle's candidate scan (default: wrap ``order``)."""
        return _FallbackScan(list(self.order(cycle)))

    def notify_ready(self, warp: Warp) -> None:
        """The shard re-inserted ``warp`` into the ready set."""

    def notify_blocked(self, warp: Warp) -> None:
        """The shard parked ``warp`` (it left the ready set)."""

    def notify_exit(self, warp: Warp) -> None:
        """``warp`` exited (parked terminally)."""


class _Scan:
    """One cycle's candidate stream; ``next_candidate`` returns ``None``
    when exhausted.  ``on_wake`` is called when a warp becomes ready
    mid-scan (barrier release, CTA admission on a warp exit) and must make
    it a candidate iff the seed generator would still have yielded it."""

    __slots__ = ()

    def next_candidate(self) -> Optional[Warp]:
        raise NotImplementedError

    def on_wake(self, warp: Warp) -> None:
        pass


class _FallbackScan(_Scan):
    """Scan over a materialized ``order`` list (custom/test schedulers).

    Parked warps in the list are attempted and fail exactly as in the seed
    issue loop, so schedulers that predate the event API keep working."""

    __slots__ = ("_warps", "_i")

    def __init__(self, warps: List[Warp]):
        self._warps = warps
        self._i = 0

    def next_candidate(self) -> Optional[Warp]:
        i = self._i
        if i >= len(self._warps):
            return None
        self._i = i + 1
        return self._warps[i]


# -- GTO --------------------------------------------------------------------


def _gto_key(w: Warp):
    # last_issue_cycle is the sort key; slot breaks ties exactly like the
    # seed's stable sort over the creation-ordered warp list.
    return (w.last_issue_cycle, w.slot)


class _GTOScan(_Scan):
    __slots__ = ("_sched", "_cands", "_keys", "_i", "_greedy_pending")

    def __init__(self, sched: "GTOScheduler"):
        self._sched = sched
        # Snapshot: the seed generator materialized its sorted list once
        # per cycle; mid-scan issues must not reorder this cycle's scan.
        self._cands = sched._lru[:]
        self._keys = sched._lru_keys[:]
        self._i = 0
        self._greedy_pending = True

    def next_candidate(self) -> Optional[Warp]:
        sched = self._sched
        if self._greedy_pending:
            self._greedy_pending = False
            g = sched._greedy
            if g is not None and not g.done and g.ready:
                return g
        cands = self._cands
        i = self._i
        while i < len(cands):
            w = cands[i]
            i += 1
            if w is sched._greedy:
                continue  # re-checked at each step, as in the seed generator
            self._i = i
            return w
        self._i = i
        return None

    def on_wake(self, warp: Warp) -> None:
        # The seed's sorted list was fixed for the cycle: a warp woken
        # mid-scan was attempted only if its sorted position had not been
        # passed yet.  Keys are unique ((last_issue_cycle, slot)), so the
        # insertion point tells us which side of the cursor it lands on.
        key = _gto_key(warp)
        pos = bisect_left(self._keys, key)
        if pos < self._i:
            return
        self._keys.insert(pos, key)
        self._cands.insert(pos, warp)


class GTOScheduler(WarpScheduler):
    """Greedy-then-oldest: keep issuing from the last warp until it stalls,
    then fall back to the warp that has waited longest for an issue slot.

    (With a single launch wave per warp — as in these experiments — a
    static-id fallback would run early warps to completion and leave a
    serial low-parallelism tail; least-recently-issued is the skew-free
    equivalent of "oldest" under continuous CTA replenishment.)

    The ready warps are kept sorted by (last_issue_cycle, slot) and
    updated on issue/park/wake — no per-cycle sort."""

    def __init__(self, warps: List[Warp]):
        super().__init__(warps)
        self._greedy: Warp = warps[0] if warps else None  # type: ignore
        self._greedy_issued_at = -1
        self._lru: List[Warp] = sorted(warps, key=_gto_key)
        self._lru_keys: List[tuple] = [_gto_key(w) for w in self._lru]

    def order(self, cycle: int) -> Iterable[Warp]:
        # Seed-compatible view (tests, fallback paths; not the hot path).
        if self._greedy is not None and not self._greedy.done:
            yield self._greedy
        for w in sorted(self.warps, key=lambda w: w.last_issue_cycle):
            if w is not self._greedy:
                yield w

    def begin_scan(self, cycle: int) -> _Scan:
        return _GTOScan(self)

    def _lru_remove(self, warp: Warp) -> None:
        i = bisect_left(self._lru_keys, _gto_key(warp))
        # Unique keys: the warp is at its key's position if present.
        if i < len(self._lru) and self._lru[i] is warp:
            del self._lru[i]
            del self._lru_keys[i]

    def notify_ready(self, warp: Warp) -> None:
        key = _gto_key(warp)
        i = bisect_left(self._lru_keys, key)
        self._lru_keys.insert(i, key)
        self._lru.insert(i, warp)

    def notify_blocked(self, warp: Warp) -> None:
        self._lru_remove(warp)

    def notify_issue(self, warp: Warp, cycle: int) -> None:
        if warp.ready:
            # Remove at the old key, stamp, reinsert at the new one
            # (_lru_remove + notify_ready, inlined: this runs per issue).
            keys = self._lru_keys
            lru = self._lru
            i = bisect_left(keys, (warp.last_issue_cycle, warp.slot))
            if i < len(lru) and lru[i] is warp:
                del lru[i]
                del keys[i]
            warp.last_issue_cycle = cycle
            key = (cycle, warp.slot)
            i = bisect_left(keys, key)
            keys.insert(i, key)
            lru.insert(i, warp)
        else:
            warp.last_issue_cycle = cycle
        if warp is self._greedy:
            self._greedy_issued_at = cycle
            return
        # Only hand greediness over when the current greedy warp failed to
        # issue this cycle (it stalled) — a second-slot issue from another
        # warp must not steal it, or GTO degenerates into round-robin and
        # lock-steps every warp through the same program phase.
        if (
            self._greedy is None
            or self._greedy.done
            or self._greedy_issued_at < cycle
        ):
            self._greedy = warp
            self._greedy_issued_at = cycle


# -- LRR --------------------------------------------------------------------


class _LRRScan(_Scan):
    __slots__ = ("_sched", "_i")

    def __init__(self, sched: "LRRScheduler"):
        self._sched = sched
        self._i = 0  # ring offsets consumed, exactly like the seed's i

    def next_candidate(self) -> Optional[Warp]:
        sched = self._sched
        slots = sched._ready_slots  # live: wakes/parks apply immediately
        if not slots:
            return None
        n = len(sched.warps)
        i = self._i
        if i >= n:
            return None
        # The seed yielded warps[(next + i) % n] with a *live* cursor, so
        # an issue rebases the ring mid-scan.  Jump straight to the first
        # ready slot at offset >= i from the current cursor.
        target = (sched._next + i) % n
        j = bisect_left(slots, target)
        s = slots[j] if j < len(slots) else slots[0]
        d = (s - target) % n
        if i + d >= n:
            return None  # only already-passed ring offsets remain
        self._i = i + d + 1
        return sched.warps[s]


class LRRScheduler(WarpScheduler):
    """Loose round-robin over a ring of warp slots; the scan jumps between
    ready slots instead of stepping through blocked ones."""

    def __init__(self, warps: List[Warp]):
        super().__init__(warps)
        self._next = 0
        self._ready_slots: List[int] = [w.slot for w in warps]

    def order(self, cycle: int) -> Iterable[Warp]:
        n = len(self.warps)
        for i in range(n):
            yield self.warps[(self._next + i) % n]

    def begin_scan(self, cycle: int) -> _Scan:
        return _LRRScan(self)

    def notify_ready(self, warp: Warp) -> None:
        insort(self._ready_slots, warp.slot)

    def notify_blocked(self, warp: Warp) -> None:
        slots = self._ready_slots
        i = bisect_left(slots, warp.slot)
        if i < len(slots) and slots[i] == warp.slot:
            del slots[i]

    def notify_issue(self, warp: Warp, cycle: int) -> None:
        # O(1): the warp knows its ring slot (the seed did list.index).
        self._next = (warp.slot + 1) % len(self.warps)


# -- two-level ---------------------------------------------------------------


class _TwoLevelScan(_Scan):
    """Walks a snapshot of the active pool taken at scan start — exactly
    the ``list(self._active)`` the naive reference materializes once per
    cycle.  The pool mutates mid-scan (the current candidate demoting
    itself, a demotion-triggered ``_refill`` purging warps that exited
    earlier in the same scan, promotions appending new members), and a
    live walk lets those mutations shift unvisited candidates across the
    cursor; the snapshot pins every candidate at its seed position.
    Warps promoted mid-scan are absent from the snapshot, exactly like
    the seed's start-of-cycle list never contained them.  Parked
    (non-ready) members are skipped: their seed attempts failed without
    side effects."""

    __slots__ = ("_cands", "_i")

    def __init__(self, sched: "TwoLevelScheduler"):
        self._cands = sched._active[:]
        self._i = 0

    def next_candidate(self) -> Optional[Warp]:
        cands = self._cands
        i = self._i
        while i < len(cands):
            w = cands[i]
            i += 1
            if w.ready:
                self._i = i
                return w
        self._i = i
        return None


class TwoLevelScheduler(WarpScheduler):
    """Two-level scheduling (Gebhart et al.): only a small active pool is
    eligible; warps that stall on memory are demoted to the pending pool and
    replaced by the next pending warp.  A promoted warp pays a pipeline
    refill penalty (its instructions were flushed from the small active-pool
    buffers).

    Pools are maintained by mutation: exits mark the pool dirty and the
    purge-and-promote pass runs once at the next cycle start (matching the
    seed's next-``order()`` promotion timing), not on every cycle."""

    demotes = True
    PROMOTE_PENALTY = 14

    def __init__(self, warps: List[Warp], active_size: int = 8):
        super().__init__(warps)
        self.active_size = active_size
        self._active: List[Warp] = list(warps[:active_size])
        self._pending: List[Warp] = list(warps[active_size:])
        self._now = 0
        self._dirty = False
        #: a warp exited since the last purge.  ``notify_exit`` fires
        #: synchronously (shard._park) before any later ``_refill``, so
        #: this flag being clear proves neither pool holds a done warp and
        #: the purge list rebuilds can be skipped.
        self._done_dirty = False

    def order(self, cycle: int) -> Iterable[Warp]:
        # Seed-compatible view (tests, fallback paths; not the hot path).
        # Callers of the seed API may flip ``warp.exited`` without routing
        # through notify_exit, so force the full purge here.
        self._now = cycle
        self._done_dirty = True
        self._refill()
        return list(self._active)

    @property
    def quiescent(self) -> bool:
        # ``_now`` going stale across skipped begin_cycle calls is safe:
        # it is only read by notify_long_stall-driven refills, which fire
        # from issue attempts — full-path cycles where begin_cycle ran.
        return not self._dirty

    def begin_cycle(self, cycle: int) -> None:
        self._now = cycle
        if self._dirty:
            self._dirty = False
            self._refill()

    def begin_scan(self, cycle: int) -> _Scan:
        return _TwoLevelScan(self)

    def _refill(self) -> None:
        if self._done_dirty:
            self._done_dirty = False
            self._active = [w for w in self._active if not w.done]
            self._pending = [w for w in self._pending if not w.done]
        while len(self._active) < self.active_size and self._pending:
            warp = self._pending.pop(0)
            warp.stall_until = max(
                warp.stall_until, self._now + self.PROMOTE_PENALTY
            )
            self._active.append(warp)
            if self.on_promote is not None:
                self.on_promote(warp)

    def notify_issue(self, warp: Warp, cycle: int) -> None:
        warp.last_issue_cycle = cycle

    def notify_long_stall(self, warp: Warp) -> None:
        if warp in self._active:
            self._active.remove(warp)
            self._pending.append(warp)
            self._refill()

    def notify_exit(self, warp: Warp) -> None:
        self._dirty = True
        self._done_dirty = True

    def eligible(self, warp: Warp) -> bool:
        return warp in self._active

    @property
    def active_pool(self) -> List[Warp]:
        return list(self._active)


def make_scheduler(kind: str, warps: List[Warp], two_level_active: int = 8) -> WarpScheduler:
    if kind == "gto":
        return GTOScheduler(warps)
    if kind == "lrr":
        return LRRScheduler(warps)
    if kind == "two_level":
        return TwoLevelScheduler(warps, two_level_active)
    raise ValueError(f"unknown scheduler {kind!r}")
