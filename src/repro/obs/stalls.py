"""Per-cycle stall attribution (the GPGPU-sim-style breakdown).

Every simulated cycle, every warp of a shard is binned into **exactly
one** reason: either it issued at least one instruction (``issued``) or
the first condition that blocked it, checked in a fixed priority order:

=================  ==========================================================
``exited``         the warp has exited (or ran off the program end and will
                   synthesize its exit at the next issue attempt)
``barrier``        waiting at a CTA barrier
``pipeline``       structural stall (``stall_until``: two-level promotion
                   refill penalty)
``mem_pending``    scoreboard-blocked on a source with an in-flight global
                   load
``scoreboard``     scoreboard-blocked on an ALU-latency dependence
``occupancy``      the storage holds the warp's CTA non-resident
                   (baseline/RFH register-pressure occupancy gating)
``rfv_pressure``   RFV has no free physical register for the allocation
``cm_inactive``    RegLess: the warp's region is not staged (INACTIVE or
                   DRAINING in the capacity manager)
``cm_preloading``  RegLess: region admitted, preloads still in flight
``osu_port``       RegLess: preload head-of-line blocked at the L1 request
                   port
``mem_slot``       ready memory instruction, but the SM's one LDST issue
                   slot per cycle is taken
``demoted``        ready, but sitting in the two-level scheduler's pending
                   pool
``issue_width``    ready and eligible, but the scheduler's issue budget ran
                   out (or greedy ordering never reached it)
=================  ==========================================================

The accounting is *conservative by construction*: per shard,
``sum(bins) == warps x cycles`` — enforced by
:func:`check_conservation` and asserted at the end of every run.

Cycles elided by the simulator's fast-forward optimization are replayed
from the immediately preceding dead cycle's bins (nothing can change
during a skipped span by definition of fast-forward), so conservation
holds over the *full* cycle count, not just the simulated cycles.
"""

from __future__ import annotations

from typing import Dict, List, Optional

__all__ = [
    "ISSUED",
    "STALL_REASONS",
    "ShardStallTracker",
    "check_conservation",
    "merge_stalls",
]

ISSUED = "issued"

#: Every stall bin, in classification priority order.
STALL_REASONS = (
    "exited",
    "barrier",
    "pipeline",
    "mem_pending",
    "scoreboard",
    "occupancy",
    "rfv_pressure",
    "cm_inactive",
    "cm_preloading",
    "osu_port",
    "mem_slot",
    "demoted",
    "issue_width",
)


class ShardStallTracker:
    """Accumulates one shard's per-cycle stall bins.

    ``bins`` maps reason -> warp-cycles.  ``occupancy`` maps reason ->
    ``{n: cycles}``: the number of cycles during which exactly ``n`` of
    the shard's warps were in that bin (the per-warp-state occupancy
    histogram).
    """

    __slots__ = ("n_warps", "_cycles", "_bins", "_occupancy", "_last", "_repeat")

    def __init__(self, n_warps: int):
        self.n_warps = n_warps
        self._cycles = 0
        self._bins: Dict[str, int] = {}
        self._occupancy: Dict[str, Dict[int, int]] = {}
        self._last: Optional[Dict[str, int]] = None
        #: pending repetitions of ``_last`` not yet folded into the
        #: accumulators (run-length encoding: long stretches of cycles
        #: classify identically, so commit batches them and ``_flush``
        #: applies the whole run at once).
        self._repeat = 0

    # -- per-cycle feed -------------------------------------------------------

    def commit(self, cycle_bins: Dict[str, int]) -> None:
        """Record one simulated cycle's classification.  ``cycle_bins``
        must be a fresh dict the caller will not mutate afterwards."""
        if cycle_bins == self._last:
            self._repeat += 1
            return
        self._flush()
        self._last = cycle_bins
        self._repeat = 1

    def replay(self, cycles: int) -> None:
        """Account ``cycles`` fast-forwarded cycles as copies of the last
        simulated (dead) cycle — no simulator state changes while the
        event wheel spins over empty buckets, so the classification is
        exact."""
        if cycles <= 0:
            return
        if self._last is None:
            # Defensive: fast-forward before any simulated cycle cannot
            # happen (the dead-cycle test requires a committed cycle), but
            # never silently drop warp-cycles if it somehow does.
            self._last = {"issue_width": self.n_warps}
        self._repeat += cycles

    def _flush(self) -> None:
        last = self._last
        n = self._repeat
        if last is None or n == 0:
            return
        self._repeat = 0
        self._cycles += n
        bins = self._bins
        occupancy = self._occupancy
        for reason, count in last.items():
            bins[reason] = bins.get(reason, 0) + count * n
            hist = occupancy.get(reason)
            if hist is None:
                occupancy[reason] = {count: n}
            else:
                hist[count] = hist.get(count, 0) + n

    # -- queries --------------------------------------------------------------

    @property
    def cycles(self) -> int:
        """Simulated + replayed cycles accounted so far."""
        self._flush()
        return self._cycles

    @property
    def bins(self) -> Dict[str, int]:
        """reason -> accumulated warp-cycles."""
        self._flush()
        return self._bins

    @property
    def occupancy(self) -> Dict[str, Dict[int, int]]:
        """reason -> {warps-in-bin: cycles at that count}."""
        self._flush()
        return self._occupancy

    @property
    def total(self) -> int:
        self._flush()
        return sum(self._bins.values())

    def report(self, sm: int, shard: int) -> Dict[str, object]:
        """A plain-dict snapshot (pickles into cached results)."""
        self._flush()
        return {
            "sm": sm,
            "shard": shard,
            "warps": self.n_warps,
            "cycles": self._cycles,
            "bins": dict(self._bins),
            "occupancy": {r: dict(h) for r, h in self._occupancy.items()},
        }


def check_conservation(report: Dict[str, object]) -> None:
    """Raise AssertionError unless ``sum(bins) == warps x cycles``."""
    total = sum(report["bins"].values())  # type: ignore[union-attr]
    expect = report["warps"] * report["cycles"]  # type: ignore[operator]
    assert total == expect, (
        f"stall attribution not conservative on sm{report['sm']}."
        f"shard{report['shard']}: {total} attributed warp-cycles != "
        f"{report['warps']} warps x {report['cycles']} cycles = {expect}"
    )


def merge_stalls(reports: List[Dict[str, object]]) -> Dict[str, int]:
    """Aggregate per-shard reports into one reason -> warp-cycles map."""
    merged: Dict[str, int] = {}
    for report in reports:
        for reason, count in report["bins"].items():  # type: ignore[union-attr]
            merged[reason] = merged.get(reason, 0) + count
    return merged
