"""The operand-storage interface — the comparison axis of the paper (Fig. 1).

Every register-storage design (baseline RF, RF hierarchy, RF virtualization,
RegLess) implements :class:`OperandStorage`.  The shard consults it for warp
*eligibility* before issuing (RegLess admits only warps whose region is
staged), notifies it of issues and write-backs (where access energy is
counted), and gives it a cycle hook for background work (preloads,
evictions).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..isa.instructions import Instruction

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim.shard import Shard
    from ..sim.warp import Warp

__all__ = ["OperandStorage"]


class OperandStorage:
    """Base class; the default implementation is a no-op storage that never
    blocks issue and counts nothing (useful for tests)."""

    name = "null"

    #: May the shard *park* warps this storage blocks (remove them from the
    #: issue scan until :meth:`notify_wake`)?  Requires two properties:
    #: ``can_issue`` must be side-effect free on failure (so skipping the
    #: per-cycle re-attempt changes nothing), and every transition that
    #: unblocks a warp must call :meth:`notify_wake` for it.  Storages that
    #: can't guarantee both (RFV's emergency valve counts failed attempts)
    #: set this False and their blocked warps stay in the ready set.
    parkable = True

    def __init__(self) -> None:
        self.shard: Optional["Shard"] = None

    # -- wiring ---------------------------------------------------------------

    def attach(self, shard: "Shard") -> None:
        self.shard = shard

    def notify_wake(self, warp: "Warp") -> None:
        """Upcall: a storage-side transition may have unblocked ``warp``
        (CTA became resident, RegLess region activated/preload advanced).
        The shard re-checks the warp and returns it to the ready set if its
        ``stall_reason`` cleared.  Safe to call spuriously."""
        if self.shard is not None:
            self.shard.reevaluate(warp)

    @property
    def counters(self):
        return self.shard.sm.counters

    @property
    def now(self) -> int:
        return self.shard.sm.wheel.now

    # -- issue-path hooks ----------------------------------------------------------

    def can_issue(self, warp: "Warp", pc: int, insn: Instruction) -> bool:
        """May this warp issue the instruction at ``pc`` this cycle?"""
        return True

    def stall_reason(self, warp: "Warp", pc: int,
                     insn: Instruction) -> Optional[str]:
        """Why :meth:`can_issue` would return False, as a stall bin from
        :data:`repro.obs.stalls.STALL_REASONS` — or ``None`` when the
        storage would not block the warp.

        MUST be side-effect free: the stall-attribution pass calls it for
        warps the issue loop never reached, so it must not perturb
        emergency valves, counters, or any other issue-path state (which
        ``can_issue`` is allowed to do).
        """
        return None

    def on_issue(self, warp: "Warp", pc: int, insn: Instruction) -> None:
        """Called right after an instruction issues (operand read time).
        ``warp.pc`` has already advanced past control resolution."""

    def metadata_slots(self, warp: "Warp", pc: int) -> int:
        """Issue slots consumed by metadata instructions when ``pc`` issues
        (RegLess charges its section 5.4 encoding here)."""
        return 0

    def on_writeback(self, warp: "Warp", pc: int, insn: Instruction) -> None:
        """Called when an instruction's result is written back."""

    def on_warp_exit(self, warp: "Warp") -> None:
        """Called once when a warp executes EXIT."""

    # -- background ------------------------------------------------------------------
    #
    # Component clocking contract (docs/performance.md): the shard calls
    # :meth:`cycle` only on cycles where :meth:`has_work` is True, so a
    # storage must answer ``has_work`` from O(1) state and must re-arm it
    # (return True again) from the same entry points that enqueue new
    # background work.  Skipped cycles must be side-effect free: whatever
    # ``cycle`` would have done on them, lazily accruable or nothing.

    def cycle(self) -> None:
        """Per-cycle background work (preload queues, capacity manager)."""

    def has_work(self, now: int) -> bool:
        """Would :meth:`cycle` do anything at cycle ``now``?  The shard
        skips the call when False; a storage whose cycle hook is ever
        non-idempotent must make this exact, not merely conservative."""
        return False

    def on_fast_forward(self, cycles: int) -> None:
        """``cycles`` dead cycles were elided by the simulator's
        fast-forward (no ``cycle`` calls happened for them, matching the
        per-cycle reference, which also never cycled storages during a
        skip).  Storages holding wall-clock deadlines measured in *called*
        cycles (the capacity manager's emergency counter) shift them here."""

    @property
    def idle(self) -> bool:
        """True when the storage has no background work outstanding (used by
        the simulator's fast-forward optimization).  Must be O(1)."""
        return True

    # -- end-of-run ---------------------------------------------------------------------

    def finalize(self) -> None:
        """Flush any end-of-run accounting."""


class CTAOccupancyMixin:
    """Register-pressure occupancy gating for statically-allocated RFs.

    The baseline register file (and RFH's main RF) holds every resident
    warp's full register allocation, so only ``rf_entries / regs_per_warp``
    warps fit per SM.  Residency is granted per CTA (barriers synchronize a
    whole CTA, so admitting partial CTAs would deadlock); when a resident
    CTA finishes, the next one launches.
    """

    def init_occupancy(self, shard, num_regs: int, rf_entries_per_sm: int) -> None:
        cfg = shard.sm.config
        per_shard_entries = rf_entries_per_sm // cfg.schedulers_per_sm
        max_warps = per_shard_entries // max(1, num_regs)
        cta = cfg.cta_size_warps
        max_ctas = max(1, max_warps // cta)
        ctas = sorted({w.cta_id for w in shard.warps})
        self._cta_warps = {
            c: [w for w in shard.warps if w.cta_id == c] for c in ctas
        }
        self._resident_ctas = set(ctas[:max_ctas])
        self._pending_ctas = [c for c in ctas[max_ctas:]]

    def is_resident(self, warp) -> bool:
        return warp.cta_id in self._resident_ctas

    def stall_reason(self, warp, pc, insn) -> Optional[str]:
        """Non-resident CTAs are occupancy-gated (pure; see base class)."""
        return None if self.is_resident(warp) else "occupancy"

    def retire_warp(self, warp) -> None:
        """Called on warp exit; admits the next CTA when one drains."""
        cta = warp.cta_id
        if cta not in self._resident_ctas:
            return
        if all(w.exited for w in self._cta_warps[cta]):
            self._resident_ctas.discard(cta)
            if self._pending_ctas:
                nxt = self._pending_ctas.pop(0)
                self._resident_ctas.add(nxt)
                # The admitted CTA's warps were occupancy-parked (guarded:
                # tests exercise the mixin without an OperandStorage base).
                wake = getattr(self, "notify_wake", None)
                if wake is not None:
                    for w in self._cta_warps[nxt]:
                        wake(w)
