"""``bench --json`` over a mixed grid of JIT-aware and JIT-less runs.

Regression: the grid JIT aggregate used to assume every
:class:`RunResult` carried a ``jit`` dict.  Results replayed from a
PR-5-era cache entry predate the field entirely, and ``REPRO_JIT=0``
runs record an empty dict — both must be skipped and counted, never
crash the payload build.  A cache entry written while runs still
recorded cohort-batching telemetry carries a ``batch`` attribute the
current :class:`RunResult` no longer declares; the payload ignores it.
"""

from __future__ import annotations

import json
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
    if jit != "absent":  # "absent" models a pre-jit-era cache entry
        result.jit = jit
    return result


def cached_result_with_batch():
    """A real :class:`RunResult` as an older cache entry unpickles: it
    still carries the ``batch`` observability dict that runs recorded
    while the cohort-batching layer existed."""
    stats = SimStats(cycles=1000, instructions=500, warps_done=8,
                     warps_total=8, counters={}, finished=True,
                     stalls={"barrier": 10, "scoreboard": 5})
    result = RunResult(benchmark="bfs", backend="baseline", osu_entries=512,
                       stats=stats, compiled=None, energy=None, jit=JIT)
    result.batch = {"sm0.shard0.batch.armed": 1,
                    "sm0.shard0.batch.batched_warps": 30}
    return pickle.loads(pickle.dumps(result))


def build_payload(results):
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
    )


JIT = {"0.armed": 1, "0.compile_s": 0.125, "0.steps": 10,
       "0.issued": 100, "0.fallback_issued": 3}


def test_mixed_grid_does_not_crash_and_counts_missing():
    payload = build_payload([
        fake_result(jit=JIT),          # modern run with JIT telemetry
        fake_result(jit="absent"),     # PR-5-era cache entry: no field
        fake_result(jit={}),           # REPRO_JIT=0 run: empty dict
        fake_result(jit=None),         # defensive: explicit None
        cached_result_with_batch(),    # cache entry with a stale batch dict
    ])
    agg = payload["jit"]
    assert agg["runs_with_jit"] == 2
    assert agg["runs_missing_jit"] == 3
    assert agg["shards"] == 2
    assert agg["armed_shards"] == 2
    assert agg["issued_via_jit"] == 200
    assert agg["fallback_issued"] == 6
    assert agg["compile_s"] == 0.25
    assert "batch" not in payload
    assert all("batch" not in run for run in payload["runs"])
    json.dumps(payload)


def test_batch_aggregate_tolerates_fallback_and_missing():
    """Older cache entries carry ``batch`` dicts of every shape the
    cohort-batching layer recorded: counters of an armed shard, a
    fallback shard's ``.armed``/``.reason`` pair, or an empty dict.  None
    of them reaches the payload, none shifts the JIT aggregate, and a
    run that never had the attribute builds the same payload."""
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
    without = build_payload([fake_result(jit=JIT), fake_result(jit=JIT),
                             fake_result(), fake_result(jit={})])
    assert "batch" not in with_batch
    assert all("batch" not in run for run in with_batch["runs"])
    assert with_batch["jit"] == without["jit"]
    assert with_batch["runs"] == without["runs"]
    assert with_batch["jit"]["runs_with_jit"] == 2
    assert with_batch["jit"]["runs_missing_jit"] == 2
    json.dumps(with_batch)


def test_jitless_runs_serialize_with_empty_jit():
    payload = build_payload([fake_result(jit="absent")])
    assert payload["runs"][0]["jit"] == {}
    json.dumps(payload)  # the whole record must stay JSON-serializable


def test_all_jit_grid_counts_no_missing():
    payload = build_payload([fake_result(jit=JIT), fake_result(jit=JIT)])
    assert payload["jit"]["runs_missing_jit"] == 0
    assert payload["jit"]["runs_with_jit"] == 2
    assert payload["jit"]["shards"] == 2


def test_scaling_block_only_present_when_swept():
    without = build_payload([fake_result(jit=JIT)])
    assert "scaling" not in without
