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

import json
from pathlib import Path

import pytest

from repro.harness.runner import SuiteRunner

GOLDEN = Path(__file__).resolve().parents[1] / "golden" / "simstats_bfs_nw.json"

_CELLS = [
    (name, backend)
    for name in ("bfs", "nw", "hotspot", "srad_v1")
    for backend in ("baseline", "rfh", "rfv", "regless", "regless-nc")
]


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def runner():
    # One runner for the whole grid: the compiled kernels are shared
    # across backends, the disk cache is bypassed so the simulator
    # actually runs.
    return SuiteRunner(cache=False)


@pytest.mark.parametrize("name,backend", _CELLS)
def test_simstats_match_golden(runner, golden, name, backend):
    want = golden[f"{name}/{backend}"]
    stats = runner.run(name, backend).stats
    assert stats.finished
    assert stats.cycles == want["cycles"]
    assert stats.instructions == want["instructions"]
    assert stats.warps_done == want["warps_done"]
    assert stats.counters == want["counters"]
    assert stats.stalls == want["stalls"]
