"""``bench --json`` over results that carry stale observability fields.

Runs once recorded region-JIT (``jit``) and cohort-batching (``batch``)
telemetry on :class:`RunResult`.  Both layers are deleted, and the
current :class:`RunResult` declares neither field, but a result
unpickled from an older cache entry still carries them as plain
attributes, in every shape the layers recorded.  The payload must build,
stay JSON-serializable and carry no ``jit`` or ``batch`` block.
"""

from __future__ import annotations

import json
import os
import pickle
from types import SimpleNamespace

from repro.harness.bench import _bench_payload
from repro.harness.parallel import RunRequest
from repro.harness.runner import RunResult
from repro.sim.gpu import SimStats


def fake_result(jit="absent"):
    stats = SimpleNamespace(
        cycles=1000, instructions=500, warps_done=8,
        stalls={"barrier": 10, "scoreboard": 5},
    )
    result = SimpleNamespace(stats=stats, timings={})
    if jit != "absent":  # "absent" models a result that never had it
        result.jit = jit
    return result


def cached_result_with_stale_fields():
    """A real :class:`RunResult` as an older cache entry unpickles: it
    still carries the ``jit`` and ``batch`` dicts runs recorded while
    those layers existed."""
    stats = SimStats(cycles=1000, instructions=500, warps_done=8,
                     warps_total=8, counters={}, finished=True,
                     stalls={"barrier": 10, "scoreboard": 5})
    result = RunResult(benchmark="bfs", backend="baseline", osu_entries=512,
                       stats=stats, compiled=None, energy=None)
    result.jit = dict(JIT)
    result.batch = {"sm0.shard0.batch.armed": 1,
                    "sm0.shard0.batch.batched_warps": 30}
    return pickle.loads(pickle.dumps(result))


def build_payload(results, scaling_rows=None):
    requests = [RunRequest.make("bfs", "baseline") for _ in results]
    return _bench_payload(
        names=["bfs"],
        backends=["baseline"],
        jobs=1,
        requests=requests,
        serial=results,
        serial_wall=[0.25] * len(results),
        t_serial=1.0,
        t_cold=0.5,
        t_warm=0.1,
        serial_parallel_ok=True,
        warm_ok=True,
        scaling_rows=scaling_rows,
    )


JIT = {"0.armed": 1, "0.compile_s": 0.125, "0.steps": 10,
       "0.issued": 100, "0.fallback_issued": 3}


def assert_no_stale_blocks(payload):
    assert "jit" not in payload
    assert "batch" not in payload
    for run in payload["runs"]:
        assert "jit" not in run
        assert "batch" not in run
    json.dumps(payload)  # the whole record must stay JSON-serializable


def test_mixed_grid_does_not_crash_and_counts_missing():
    """A grid mixing every shape of stale ``jit`` attribute builds one
    run record per result, the same records a clean grid builds."""
    stale = build_payload([
        fake_result(jit=JIT),                # armed-shard JIT report
        fake_result(jit="absent"),           # never had the field
        fake_result(jit={}),                 # interpreter-run report
        fake_result(jit=None),               # defensive: explicit None
        cached_result_with_stale_fields(),   # unpickled RunResult
    ])
    assert_no_stale_blocks(stale)
    assert len(stale["runs"]) == 5
    clean = build_payload([fake_result() for _ in range(5)])
    assert stale["runs"] == clean["runs"]


def test_jitless_runs_serialize_with_empty_jit():
    """A run that never had a ``jit`` attribute and one whose report is
    empty build the same JSON-serializable record, with no ``jit`` key."""
    jitless = build_payload([fake_result(jit="absent")])
    empty = build_payload([fake_result(jit={})])
    assert_no_stale_blocks(jitless)
    assert jitless == empty
    assert json.loads(json.dumps(jitless))["runs"] == jitless["runs"]


def test_batch_aggregate_tolerates_fallback_and_missing():
    """Older cache entries carry ``batch`` dicts of every shape the
    cohort-batching layer recorded: counters of an armed shard, a
    fallback shard's ``.armed``/``.reason`` pair, or an empty dict.  None
    of them reaches the payload, and a grid that never had the attribute
    builds the same payload."""
    armed = fake_result(jit=JIT)
    armed.batch = {"sm0.shard0.batch.armed": 1,
                   "sm0.shard0.batch.cohorts": 7,
                   "sm0.shard0.batch.batched_warps": 30,
                   "sm0.shard0.batch.cohort_size.4": 7}
    fallback = fake_result(jit=JIT)
    fallback.batch = {"sm0.shard0.batch.armed": 0,
                      "sm0.shard0.batch.reason": "impure_storage"}
    empty = fake_result(jit={})
    empty.batch = {}
    with_batch = build_payload([armed, fallback, fake_result(), empty])
    without = build_payload([fake_result() for _ in range(4)])
    assert_no_stale_blocks(with_batch)
    assert with_batch == without


def test_scaling_block_only_present_when_swept():
    cores = os.cpu_count() or 1
    without = build_payload([fake_result()])
    assert "scaling" not in without
    assert without["host_cores"] == cores
    rows = [{"jobs": j, "runs": 1, "wall_s": 1.0, "runs_per_sec": 1.0,
             "speedup_vs_jobs1": 1.0} for j in (1, cores, cores + 1)]
    swept = build_payload([fake_result()], scaling_rows=rows)
    assert swept["host_cores"] == cores
    assert [row["jobs"] for row in swept["scaling"]] == [1, cores, cores + 1]
    assert [row["oversubscribed"] for row in swept["scaling"]] == [
        False, False, True]
