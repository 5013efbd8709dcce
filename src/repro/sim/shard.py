"""One warp-scheduler shard: issue, execute, write back.

The GTX 980 SM has four schedulers; RegLess shards its hardware the same
way, so the shard is the natural unit tying a warp scheduler to an operand
storage backend.

The issue core is event-driven: the shard keeps an explicit **ready set**
and only scans warps that might actually issue.  A warp that blocks is
*parked* — removed from the set with its stall bin recorded — and is
re-inserted only by the event that unblocks it:

* ``stall_until`` expiry → a shard-local wake heap, popped at the top of
  each simulated cycle (deliberately *not* the global ``EventWheel``:
  pipeline wakes must not create wheel events, or the dead-cycle
  fast-forward in :meth:`repro.sim.gpu.GPU.run` would stop skipping over
  them and simulated attempt counts — e.g. RFV's valve — would change);
* scoreboard / in-flight load clears → :meth:`_writeback`;
* barrier release → :meth:`repro.sim.sm.SM.barrier_arrive` /
  ``notify_warp_done`` call :meth:`reevaluate` on each released warp;
* operand-storage transitions (CTA becomes resident, RegLess region
  activates/preloads) → :meth:`repro.regfile.base.OperandStorage.notify_wake`.

Storages whose issue test has side effects (RFV's emergency valve counts
failed attempts) set ``parkable = False`` and their storage-blocked warps
stay in the ready set, attempted every cycle exactly as before.

Bit-identity contract: parked warps are exactly those whose seed issue
attempt failed without side effects, so skipping them changes no simulated
state; stall attribution bins them from the recorded ``park_bin`` instead
of reclassifying per cycle, preserving the conservation invariant
(sum(bins) == warps × cycles) and the exact per-cycle histograms.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import TYPE_CHECKING, List, Optional

from ..isa.instructions import Instruction
from ..isa.opcodes import Opcode
from ..obs.stalls import ISSUED, ShardStallTracker
from ..regfile.base import OperandStorage
from .executor import compute_result, read_operand
from .oracle import FULL_MASK
from .scheduler import WarpScheduler
from .warp import Warp

if TYPE_CHECKING:  # pragma: no cover
    from .sm import SM

__all__ = ["Shard"]

#: _try_issue outcomes.
_ISSUE_OK = 1
_FAIL_PARK = 2  # blocked until a wake event; leave the ready set
_FAIL_KEEP = 3  # transient (mem-slot arbitration); stay ready

#: bins produced by OperandStorage.stall_reason (parkable only if the
#: storage opts in; a matching notify_wake upcall must exist).
_STORAGE_BINS = frozenset(
    {"occupancy", "rfv_pressure", "cm_inactive", "cm_preloading", "osu_port"}
)
#: bins whose seed issue attempt carried a demotion side effect
#: (``notify_long_stall``).  A warp a demoting scheduler still considers
#: selectable must NOT be parked under these — it stays in the ready set
#: so the demotion fires at the exact scan attempt the seed made.
_DEMOTE_BINS = frozenset({"mem_pending"}) | _STORAGE_BINS
#: bins a *failed issue attempt* may park under.
_SCAN_PARK_BINS = frozenset(
    {"exited", "barrier", "pipeline", "scoreboard", "mem_pending"}
) | _STORAGE_BINS
#: bins the *accounting pass* may park under: never "exited"/"barrier" —
#: a ran-off-the-end warp is binned "exited" but must stay ready so the
#: next scan synthesizes its exit (with on_warp_exit/notify_warp_done side
#: effects) at the seed's cycle.
_ACCT_PARK_BINS = frozenset({"pipeline", "scoreboard", "mem_pending"}) | _STORAGE_BINS
#: bins that can flip without a warp event (RegLess preloading arbitration
#: flips cm_preloading <-> osu_port); refreshed each accounted cycle.
_DYNAMIC_BINS = frozenset({"cm_preloading", "osu_port"})


class _Writeback:
    """Per-issue write-back continuation (avoids a lambda per issue)."""

    __slots__ = ("shard", "warp", "pc", "insn")

    def __init__(self, shard: "Shard", warp: Warp, pc: int, insn: Instruction):
        self.shard = shard
        self.warp = warp
        self.pc = pc
        self.insn = insn

    def __call__(self) -> None:
        self.shard._writeback(self.warp, self.pc, self.insn)


class _LoadContinuation:
    """Counts down the cache lines of one LDG; fires the write-back when
    the last line returns (replaces the seed's ``{"n": ...}`` dict plus
    closure per load)."""

    __slots__ = ("shard", "warp", "pc", "insn", "remaining")

    def __init__(self, shard: "Shard", warp: Warp, pc: int,
                 insn: Instruction, remaining: int):
        self.shard = shard
        self.warp = warp
        self.pc = pc
        self.insn = insn
        self.remaining = remaining

    def __call__(self) -> None:
        self.remaining -= 1
        if self.remaining == 0:
            self.shard._writeback(self.warp, self.pc, self.insn)


class Shard:
    """A scheduler slice of an SM plus its operand storage."""

    def __init__(
        self,
        sm: "SM",
        shard_id: int,
        warps: List[Warp],
        scheduler: WarpScheduler,
        storage: OperandStorage,
    ):
        self.sm = sm
        self.shard_id = shard_id
        self.warps = warps
        self.scheduler = scheduler
        self.storage = storage
        self.stalls = (
            ShardStallTracker(len(warps))
            if sm.config.stall_attribution
            else None
        )
        scheduler.on_promote = self._on_promote
        #: warps currently in the ready set (iterated by stall accounting;
        #: the scan order lives in the scheduler's own structures).
        self._ready: set = set(warps)
        #: stall-bin histogram over currently parked warps (no zero entries).
        self._parked_bins: dict = {}
        #: parked warps whose bin is storage-arbitration dependent.
        self._dynamic: set = set()
        #: (stall_until, wid, warp) pipeline wake heap + dedup map.
        self._wake_heap: list = []
        self._wake_at: dict = {}
        #: the in-progress issue scan (mid-scan wakes are forwarded to it).
        self._scan = None
        self._issued_warps: List[Warp] = []
        # Per-run constants, cached off the attribute chains the per-cycle
        # loops would otherwise re-walk (sm.wheel.now, sm.program[pc], ...).
        self._issue_width = sm.config.issue_width
        self._wheel = sm.wheel
        self._program = sm.program
        self._program_len = sm.program_len
        self._counters_inc = sm.counters.inc
        self._track_ws = sm.config.track_working_set
        #: True while the stall tracker's last committed cycle equals the
        #: current parked histogram — idle cycles then replay it in O(1).
        self._idle_committed = False
        storage.attach(self)
        self._storage_has_work = storage.has_work
        self._storage_cycle = storage.cycle

    # -- per-cycle issue loop ---------------------------------------------------

    def cycle(self) -> int:
        """Run one cycle; returns the number of instructions issued."""
        now = self._wheel.now
        if self._storage_has_work(now):
            self._storage_cycle()
        scheduler = self.scheduler
        heap = self._wake_heap
        if (
            not self._ready
            and not self._dynamic
            and (not heap or heap[0][0] > now)
            and scheduler.quiescent
        ):
            # Idle fast path: every warp is parked with a stable bin, no
            # wake is due, and the scheduler has no deferred maintenance —
            # the full path below would only recommit the same histogram.
            stalls = self.stalls
            if stalls is not None:
                if self._idle_committed:
                    stalls.replay(1)
                else:
                    stalls.commit(dict(self._parked_bins))
                    self._idle_committed = True
            return 0
        scheduler.begin_cycle(now)
        # Pipeline-stall expiries due this cycle.
        if heap:
            wake_at = self._wake_at
            while heap and heap[0][0] <= now:
                t, wid, warp = heappop(heap)
                if wake_at.get(wid) == t:
                    del wake_at[wid]
                    self.reevaluate(warp)
        issued = 0
        issued_warps = self._issued_warps
        issued_warps.clear()
        if self._ready:
            try_issue = self._try_issue
            budget = self._issue_width
            scan = self._scan = scheduler.begin_scan(now)
            while budget > 0:
                warp = scan.next_candidate()
                if warp is None:
                    break
                code = try_issue(warp, now)
                if code is _ISSUE_OK:
                    budget -= 1
                    issued += 1
                    issued_warps.append(warp)
                    scheduler.notify_issue(warp, now)
                    # GTX 980 schedulers dual-issue a second, independent
                    # instruction from the same warp.
                    if budget > 0 and try_issue(warp, now) is _ISSUE_OK:
                        budget -= 1
                        issued += 1
                    if warp.exited or warp.at_barrier:
                        self._park(warp, self._classify(warp, now))
                elif code is _FAIL_PARK:
                    self._maybe_park(warp, now)
            self._scan = None
        if self.stalls is not None:
            self._account_stalls(now, issued_warps)
        return issued

    # -- ready-set maintenance ---------------------------------------------------

    def reevaluate(self, warp: Warp) -> None:
        """Re-check a parked warp after a wake event; make it ready if its
        blocking condition cleared, else re-park it under the current bin.

        Safe to call spuriously; no-op for warps already in the ready set
        (a ready warp's state is re-derived at its next scan attempt, and
        parking it here could snapshot two-level demotion timing with a
        stale ``_now``)."""
        if warp.ready:
            return
        now = self._wheel.now
        if not warp.exited and not warp.at_barrier and now >= warp.stall_until:
            pc = self._effective_pc(warp)
            if pc >= self._program_len:
                # Ran off the end: the next scan synthesizes the exit.
                self._make_ready(warp)
                return
            insn = self._program[pc]
            if warp.scoreboard_ready(insn):
                storage = self.storage
                if not storage.parkable or storage.stall_reason(
                    warp, pc, insn
                ) is None:
                    self._make_ready(warp)
                    return
        bin_ = self._classify(warp, now)
        if (
            bin_ in _DEMOTE_BINS
            and self.scheduler.demotes
            and self.scheduler.eligible(warp)
        ):
            # Still blocked, but the seed would demote it at its next scan
            # attempt — return it to the ready set so that attempt happens.
            self._make_ready(warp)
            return
        self._repark(warp, bin_)

    def _make_ready(self, warp: Warp) -> None:
        self._idle_committed = False
        warp.ready = True
        self._ready.add(warp)
        bins = self._parked_bins
        b = warp.park_bin
        n = bins[b] - 1
        if n:
            bins[b] = n
        else:
            del bins[b]
        warp.park_bin = None
        if warp.park_dynamic:
            warp.park_dynamic = False
            self._dynamic.discard(warp)
        self.scheduler.notify_ready(warp)
        if self._scan is not None:
            self._scan.on_wake(warp)

    def _park(self, warp: Warp, bin_: str) -> None:
        """Remove a ready warp from the ready set under ``bin_``."""
        self._idle_committed = False
        warp.ready = False
        self._ready.discard(warp)
        self.scheduler.notify_blocked(warp)
        self._parked_bins[bin_] = self._parked_bins.get(bin_, 0) + 1
        warp.park_bin = bin_
        if bin_ in _DYNAMIC_BINS:
            warp.park_dynamic = True
            warp.park_pc = self._effective_pc(warp)
            self._dynamic.add(warp)
        elif bin_ == "pipeline":
            self._schedule_wake(warp)
        elif bin_ == "exited":
            self.scheduler.notify_exit(warp)

    def _repark(self, warp: Warp, bin_: str) -> None:
        """Refresh an already-parked warp's recorded bin."""
        self._idle_committed = False
        old = warp.park_bin
        if old == bin_:
            if bin_ == "pipeline":
                self._schedule_wake(warp)  # stall_until may have grown
            return
        bins = self._parked_bins
        n = bins[old] - 1
        if n:
            bins[old] = n
        else:
            del bins[old]
        bins[bin_] = bins.get(bin_, 0) + 1
        warp.park_bin = bin_
        dynamic = bin_ in _DYNAMIC_BINS
        if dynamic:
            warp.park_pc = self._effective_pc(warp)
            if not warp.park_dynamic:
                warp.park_dynamic = True
                self._dynamic.add(warp)
        elif warp.park_dynamic:
            warp.park_dynamic = False
            self._dynamic.discard(warp)
        if bin_ == "pipeline":
            self._schedule_wake(warp)
        elif bin_ == "exited":
            self.scheduler.notify_exit(warp)

    def _schedule_wake(self, warp: Warp) -> None:
        t = warp.stall_until
        wid = warp.wid
        if self._wake_at.get(wid, -1) >= t:
            return
        self._wake_at[wid] = t
        heappush(self._wake_heap, (t, wid, warp))

    def _maybe_park(self, warp: Warp, now: int) -> None:
        """Park after a failed issue attempt, if the failure is one that
        only a wake event can clear."""
        if not warp.ready:
            # A scan can re-yield an already-parked warp (GTO mid-scan
            # greedy handoff); the repeat attempt is side-effect free.
            return
        bin_ = self._classify(warp, now)
        if bin_ not in _SCAN_PARK_BINS:
            return
        if bin_ in _STORAGE_BINS and not self.storage.parkable:
            return
        if (
            bin_ in _DEMOTE_BINS
            and self.scheduler.demotes
            and self.scheduler.eligible(warp)
        ):
            # Still selectable by a demoting scheduler: stay ready so the
            # next seed-timed attempt can demote it (the attempt that just
            # failed normally demoted it already, making it ineligible).
            return
        self._park(warp, bin_)

    def _on_promote(self, warp: Warp) -> None:
        """Two-level promotion raised a parked warp's ``stall_until``."""
        if not warp.ready:
            self._repark(warp, self._classify(warp, self.sm.wheel.now))

    # -- stall attribution ------------------------------------------------------

    @staticmethod
    def _effective_pc(warp: Warp) -> int:
        """The pc the warp would execute from, resolving pending
        reconvergence pops *without* mutating the SIMT stack (this is an
        observability pass; state changes belong to the issue path)."""
        stack = warp.stack
        i = len(stack) - 1
        while i > 0 and stack[i].pc == stack[i].reconv_pc:
            i -= 1
        return stack[i].pc

    def _classify(self, warp: Warp, now: int) -> str:
        """The one stall bin for a warp that did not issue this cycle.

        Must be side-effect free: in particular it must NOT call
        ``storage.can_issue`` (RFV's version mutates emergency-valve
        state) — backends expose the pure ``stall_reason`` hook instead.
        """
        if warp.exited:
            return "exited"
        if warp.at_barrier:
            return "barrier"
        if now < warp.stall_until:
            return "pipeline"
        # _effective_pc, inlined (this is the hottest call site).
        stack = warp.stack
        i = len(stack) - 1
        entry = stack[i]
        while i > 0 and entry.pc == entry.reconv_pc:
            i -= 1
            entry = stack[i]
        pc = entry.pc
        if pc >= self._program_len:
            # Ran off the end; the exit is synthesized at the next issue
            # attempt, so the warp is as good as gone.
            return "exited"
        insn = self._program[pc]
        if not warp.scoreboard_ready(insn):
            pending_loads = warp.pending_loads
            if pending_loads:
                for i in insn.src_idx:
                    if i in pending_loads:
                        return "mem_pending"
            return "scoreboard"
        reason = self.storage.stall_reason(warp, pc, insn)
        if reason is not None:
            return reason
        if insn.is_mem and self.sm.mem_slot_busy:
            return "mem_slot"
        if not self.scheduler.eligible(warp):
            return "demoted"
        return "issue_width"

    def _account_stalls(self, now: int, issued_warps: List[Warp]) -> None:
        # Parked RegLess-preloading warps flip between cm_preloading and
        # osu_port with OSU port arbitration — no warp event marks the
        # flip, so refresh them here (preloading phases are never
        # fast-forwarded: the CM reports non-idle).
        if self._dynamic:
            bins_live = self._parked_bins
            program = self._program
            storage = self.storage
            for warp in tuple(self._dynamic):
                pc = warp.park_pc
                reason = storage.stall_reason(warp, pc, program[pc])
                if reason is None:
                    # Storage unblocked without an upcall (defensive; the
                    # CM wake hook should have fired).
                    self.reevaluate(warp)
                elif reason != warp.park_bin:
                    n = bins_live[warp.park_bin] - 1
                    if n:
                        bins_live[warp.park_bin] = n
                    else:
                        del bins_live[warp.park_bin]
                    bins_live[reason] = bins_live.get(reason, 0) + 1
                    warp.park_bin = reason
        bins = dict(self._parked_bins)
        classify = self._classify
        storage_parkable = self.storage.parkable
        demotes = self.scheduler.demotes
        # At most issue_width (=2) entries: a list scan beats a set alloc.
        issued_set = issued_warps
        to_park = None
        for warp in self._ready:
            if warp in issued_set:
                continue
            reason = classify(warp, now)
            bins[reason] = bins.get(reason, 0) + 1
            # Ready warps the scan never reached (budget exhausted, or a
            # two-level pending pool) that are in fact event-blocked can
            # park here: the seed's attempts on them (if any) would have
            # been side-effect free, and the recorded bin is stable until
            # the corresponding wake event.
            if reason in _ACCT_PARK_BINS:
                if reason in _STORAGE_BINS and not storage_parkable:
                    continue
                if reason in _DEMOTE_BINS and demotes and \
                        self.scheduler.eligible(warp):
                    continue  # must stay ready for the seed-timed demote
            elif reason == "demoted" and storage_parkable:
                # Pending-pool warp that could otherwise issue: stable
                # until promotion (_on_promote re-bins it) *unless* its
                # next instruction needs the per-cycle memory slot (the
                # seed then flips between demoted and mem_slot) or the
                # storage's pressure state can change under it (RFV).
                pc = self._effective_pc(warp)
                if self._program[pc].is_mem:
                    continue
            else:
                continue
            if to_park is None:
                to_park = [(warp, reason)]
            else:
                to_park.append((warp, reason))
        if to_park is not None:
            for warp, reason in to_park:
                self._park(warp, reason)
        for warp in issued_warps:
            if not warp.ready:
                # Issued then parked (EXIT/BAR): already counted in the
                # parked histogram; count it as ISSUED instead.
                n = bins[warp.park_bin] - 1
                if n:
                    bins[warp.park_bin] = n
                else:
                    del bins[warp.park_bin]
        if issued_warps:
            bins[ISSUED] = len(issued_warps)
        self.stalls.commit(bins)
        # The committed cycle may differ from the parked histogram (ready
        # classifications, ISSUED) — idle cycles must re-commit fresh.
        self._idle_committed = False

    def _try_issue(self, warp: Warp, now: int) -> int:
        if warp.exited or warp.at_barrier or now < warp.stall_until:
            return _FAIL_PARK
        # maybe_reconverge + the pc property, inlined (hot path).
        stack = warp.stack
        top = stack[-1]
        while len(stack) > 1 and top.pc == top.reconv_pc:
            stack.pop()
            top = stack[-1]
        pc = top.pc
        if pc >= self._program_len:
            # Fell off the end without EXIT; treat as done.
            warp.exited = True
            self.storage.on_warp_exit(warp)
            self.sm.notify_warp_done(warp)
            return _FAIL_PARK
        insn = self._program[pc]
        if not warp.scoreboard_ready(insn):
            if self._blocked_on_memory(warp, insn):
                self.scheduler.notify_long_stall(warp)
            return _FAIL_PARK
        if not self.storage.can_issue(warp, pc, insn):
            # Warps the storage cannot serve (non-resident CTA, inactive
            # RegLess region) must not pin a two-level active-pool slot.
            self.scheduler.notify_long_stall(warp)
            return _FAIL_PARK
        if insn.is_mem and not self.sm.take_mem_slot():
            return _FAIL_KEEP
        self.issue(warp, pc, insn)
        return _ISSUE_OK

    def _blocked_on_memory(self, warp: Warp, insn: Instruction) -> bool:
        """Two-level demotion trigger: a source operand is waiting on an
        in-flight global load (ALU-latency stalls do not demote)."""
        pending_loads = warp.pending_loads
        if not pending_loads:
            return False
        for i in insn.src_idx:
            if i in pending_loads:
                return True
        return False

    # -- issue ------------------------------------------------------------------------

    def issue(self, warp: Warp, pc: int, insn: Instruction) -> None:
        sm = self.sm
        counters_inc = self._counters_inc
        counters_inc("insn_issued")
        warp.issued += 1
        # Metadata instructions ride the fetch/decode path (the decode stage
        # fills the CM's metadata store, section 5.4); they cost fetch
        # energy but no execution-issue slots.
        meta = self.storage.metadata_slots(warp, pc)
        if meta:
            counters_inc("metadata_issue", meta)

        if self._track_ws:
            ws = sm.gpu.working_set
            wid = warp.wid
            for i in insn.reg_idx:
                ws.add((wid, i))

        # guard_mask + active_mask, inlined (most instructions are unguarded).
        guard = insn.guard
        if guard is None:
            guard_mask = FULL_MASK
        else:
            guard_mask = warp.preds.get(guard.pred.index, 0)
            if guard.negate:
                guard_mask = ~guard_mask & FULL_MASK
        active_mask = warp.stack[-1].mask
        active = active_mask & guard_mask
        op = insn.opcode
        info = insn.info

        # Control resolution happens at issue (the scoreboard guarantees the
        # guard predicate has been written).
        if info.is_branch:
            self._resolve_branch(warp, insn, pc)
        elif info.is_exit:
            warp.advance()
            warp.exited = True
            self.storage.on_issue(warp, pc, insn)
            self.storage.on_warp_exit(warp)
            sm.notify_warp_done(warp)
            return
        elif info.is_barrier:
            warp.advance()
            self.storage.on_issue(warp, pc, insn)
            sm.barrier_arrive(warp)
            if warp.at_barrier:
                # A barrier-blocked warp must not hold a two-level
                # active-pool slot, or stragglers can never be promoted.
                self.scheduler.notify_long_stall(warp)
            return
        else:
            warp.advance()

        self.storage.on_issue(warp, pc, insn)

        if insn.is_mem:
            self._issue_memory(warp, insn, pc, active)
            return

        if op is Opcode.SETP:
            self._issue_setp(warp, insn, pc)
            return

        if insn.reg_dsts:
            self._issue_alu(warp, insn, pc, active, guard_mask)

    # -- instruction classes ---------------------------------------------------------

    def _issue_alu(self, warp: Warp, insn: Instruction, pc: int,
                   active: int, guard_mask: int) -> None:
        value = compute_result(warp, insn)
        full = active == warp.stack[-1].mask
        dst = insn.reg_dsts[0]
        warp.write_reg(dst, value, full=full)
        warp.mark_pending(insn)
        self._wheel.after(insn.latency, _Writeback(self, warp, pc, insn))

    def _issue_setp(self, warp: Warp, insn: Instruction, pc: int) -> None:
        mask = self.sm.gpu.oracle.pred_mask(warp.wid, pc, insn.tag)
        warp.write_pred(insn.pred_dsts[0], mask)
        warp.mark_pending(insn)
        self._wheel.after(insn.latency, _Writeback(self, warp, pc, insn))

    def _issue_memory(self, warp: Warp, insn: Instruction, pc: int,
                      active: int) -> None:
        sm = self.sm
        op = insn.opcode
        if op is Opcode.LDS:
            if insn.reg_dsts:
                value = read_operand(warp, insn.srcs[0]).opaque(salt=0x60)
                warp.write_reg(insn.reg_dsts[0], value)
                warp.mark_pending(insn)
                self._wheel.after(insn.latency,
                                  _Writeback(self, warp, pc, insn))
            self._counters_inc("shared_access")
            return
        if op is Opcode.STS:
            self._counters_inc("shared_access")
            return

        addr = read_operand(warp, insn.srcs[0])
        lines = addr.line_addresses(
            sm.config.line_bytes, sm.gpu.divergent_lines
        )
        if op is Opcode.STG:
            for line in lines:
                sm.hierarchy.request(sm.sm_id, line, True, None, kind="data")
            self._counters_inc("gmem_store_lines", len(lines))
            return

        # LDG: the destination is pending until every line returns.
        self._counters_inc("gmem_load_lines", len(lines))
        value = sm.gpu.oracle.load_value(warp.wid, pc, insn.tag)
        warp.write_reg(insn.reg_dsts[0], value,
                       full=active == warp.active_mask)
        warp.mark_pending(insn)
        warp.pending_loads.add(insn.reg_dsts[0].index)
        on_line = _LoadContinuation(self, warp, pc, insn, len(lines))
        for line in lines:
            sm.hierarchy.request(sm.sm_id, line, False, on_line, kind="data")

    # -- write-back ----------------------------------------------------------------------

    def _writeback(self, warp: Warp, pc: int, insn: Instruction) -> None:
        warp.clear_pending(insn)
        if insn.opcode.is_global_load and insn.reg_dsts:
            warp.pending_loads.discard(insn.dst_idx[0])
        if self._track_ws and insn.reg_dsts:
            ws = self.sm.gpu.working_set
            wid = warp.wid
            for i in insn.dst_idx:
                ws.add((wid, i))
        self.storage.on_writeback(warp, pc, insn)
        if not warp.ready:
            # Scoreboard/load clear (and possibly a RegLess region finish
            # via on_writeback above): re-check the parked warp.
            self.reevaluate(warp)

    # -- control flow -----------------------------------------------------------------------

    def _resolve_branch(self, warp: Warp, insn: Instruction, pc: int) -> None:
        target_pc = self.sm.block_start(insn.target)
        if insn.guard is None:
            warp.jump(target_pc)
            return
        mask = warp.guard_mask(insn)
        taken = warp.active_mask & mask
        nottaken = warp.active_mask & ~mask & FULL_MASK
        if nottaken == 0:
            warp.jump(target_pc)
        elif taken == 0:
            warp.advance()
        else:
            self.sm.counters.inc("divergent_branch")
            reconv_pc = self.sm.reconv_pc(pc)
            warp.diverge(reconv_pc, target_pc, taken, pc + 1, nottaken)
