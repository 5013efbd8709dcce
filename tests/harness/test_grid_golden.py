"""Grid equivalence against committed golden SimStats.

``tests/golden/simstats_bfs_nw.json`` snapshots the simulated results
(cycles, instructions, counters, stall bins) of bfs, nw, hotspot and
srad_v1 under all five backends.  The first three date from before the
event-driven issue-core and demand-clocked component reworks.  Those reworks are pure wall-clock
optimizations: simulated results must stay **bit-identical**.
Any intentional change to simulated behavior must regenerate the golden
(see docs/performance.md) in the same commit and say why.
"""

from __future__ import annotations

import pytest

from repro.sim.watchdog import Watchdog, WatchdogConfig

_CELLS = [
    (name, backend)
    for name in ("bfs", "nw", "hotspot", "srad_v1")
    for backend in ("baseline", "rfh", "rfv", "regless", "regless-nc")
]


@pytest.mark.parametrize("name,backend", _CELLS)
def test_simstats_match_golden(golden_cells, name, backend):
    # One runner for the whole grid: the compiled kernels are shared
    # across backends, the disk cache is bypassed so the simulator
    # actually runs.
    stats = golden_cells.runner.run(name, backend).stats
    golden_cells.check(stats, name, backend)


def test_sanitized_run_matches_golden(golden_cells):
    """A golden cell under the invariant sanitizer (polled every 64
    run-loop iterations) runs clean and matches the golden."""
    watchdog = Watchdog(WatchdogConfig(invariants=True, check_interval=64))
    gpu = golden_cells.gpu("bfs", "regless", watchdog=watchdog)
    stats = gpu.run()
    assert watchdog.polls > 0
    assert watchdog.trips == 0
    golden_cells.check(stats, "bfs", "regless")
