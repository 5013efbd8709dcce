"""Self-tests for the benchmark's own logic (not part of tier-1).

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import itertools
import json
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402
import hostspeed  # noqa: E402
import loadgen  # noqa: E402
import run as bench  # noqa: E402


# -- the percentile rule ---------------------------------------------------------


def test_percentile_needs_ten_samples_beyond_it():
    with pytest.raises(common.TooFewSamples):
        common.percentile(list(range(19)), 0.5)
    with pytest.raises(common.TooFewSamples):
        common.percentile(list(range(99)), 0.9)
    assert common.percentile(list(range(20)), 0.5) == pytest.approx(9.5)
    values = list(range(100, 0, -1))
    p90 = common.percentile(values, 0.9)
    assert 89 < p90 < 92
    assert sum(1 for v in values if v > p90) >= 9


def test_harrell_davis_is_a_weighted_median():
    assert common.harrell_davis([3.0] * 21, 0.5) == pytest.approx(3.0)
    assert common.harrell_davis(list(range(21)), 0.5) == pytest.approx(10.0)
    # One outlier barely moves it; a gap at the middle does not make it jump.
    assert common.harrell_davis(list(range(20)) + [1e6], 0.5) == pytest.approx(10.0, abs=0.6)
    low = [1.0] * 10 + [2.0] * 11
    high = [1.0] * 11 + [2.0] * 10
    assert common.harrell_davis(high, 0.5) < common.harrell_davis(low, 0.5)
    assert common.harrell_davis(low, 0.5) - common.harrell_davis(high, 0.5) < 0.5


# -- span self time ----------------------------------------------------------------


def test_self_time_subtracts_covered_child_time_once():
    log = common.SpanLog(process="p")
    parent = log.add("layer", 0.0, 10.0)
    log.add("child", 1.0, 3.0, parent=parent)
    log.add("child", 2.0, 5.0, parent=parent)   # overlaps the first child
    log.add("child", 8.0, 12.0, parent=parent)  # runs past the parent's end
    times = common.self_times(log.spans)
    assert times["layer"] == pytest.approx(10.0 - 4.0 - 2.0)
    assert times["child"] == pytest.approx(2.0 + 3.0 + 4.0)


def test_nested_spans_record_parent_and_request():
    ticks = itertools.count()
    log = common.SpanLog(clock=lambda: float(next(ticks)), process="p")
    with log.span("outer", req="cell-a"):
        with log.span("inner", req="cell-a"):
            pass
    outer, inner = log.spans
    assert inner["parent"] == outer["id"] and outer["parent"] is None
    assert (outer["start"], inner["start"], inner["end"], outer["end"]) == (0, 1, 2, 3)
    trace = common.chrome_trace(log.spans)
    assert {e["name"] for e in trace["traceEvents"] if e["ph"] == "X"} == {"outer", "inner"}


def test_disabled_log_records_nothing():
    log = common.SpanLog(enabled=False)
    with log.span("x"):
        log.add("y", 0.0, 1.0)
    assert log.spans == []


# -- seeds ---------------------------------------------------------------------------


def _reference():
    return common.load_reference()


def test_same_seed_same_cells_and_arrivals():
    ref = _reference()
    groups = common.strata(common.apps_of(ref), ref, 3)
    rounds = [common.stratified_round(11, "w", r, groups) for r in range(5)]
    assert rounds == [common.stratified_round(11, "w", r, groups) for r in range(5)]
    assert rounds != [common.stratified_round(12, "w", r, groups) for r in range(5)]
    apps = common.apps_of(ref)
    fresh = common.fresh_cells(11, apps[:8], common.STORAGE_CELLS, 24)
    assert fresh == common.fresh_cells(11, apps[:8], common.STORAGE_CELLS, 24)
    assert fresh != common.fresh_cells(12, apps[:8], common.STORAGE_CELLS, 24)
    plan = common.service_plan(11, 20, 5.0, fresh)
    assert plan == common.service_plan(11, 20, 5.0, fresh)
    assert plan != common.service_plan(12, 20, 5.0, fresh)
    configs = common.STORAGE_CELLS
    assert common.cycle_rounds(11, "w", 0, apps, ref, configs) == \
        common.cycle_rounds(11, "w", 0, apps, ref, configs)
    assert common.cycle_rounds(11, "w", 0, apps, ref, configs) != \
        common.cycle_rounds(12, "w", 0, apps, ref, configs)


def test_a_cycle_of_rounds_draws_every_app_once():
    ref = _reference()
    apps = common.apps_of(ref)
    groups = common.strata(apps, ref, 3)
    drawn = [a for r in range(3) for a in common.stratified_round(5, "w", r, groups)]
    assert sorted(drawn) == apps


def test_a_cycle_runs_every_app_once_and_spreads_configs_by_size():
    ref = _reference()
    apps = common.apps_of(ref)
    rounds = common.cycle_rounds(9, "w", 2, apps, ref, common.STORAGE_CELLS)
    cells = [common.parse_cell(k) for r in rounds for k in r]
    assert sorted(a for a, _, _ in cells) == apps
    by_app = {a: (b, e) for a, b, e in cells}
    for stratum in common.strata(apps, ref, common.STRATUM):
        assert sorted(by_app[a] for a in stratum) == sorted(common.STORAGE_CELLS)


def test_an_odd_cycle_mirrors_the_one_before_in_cost_order():
    """Each app's two cells pair a cheap configuration with a dear one, so
    the seed's draw barely moves a run's total cost."""
    ref = _reference()
    apps = common.apps_of(ref)
    order = common.COST_ORDER
    assert sorted(order) == sorted(common.STORAGE_CELLS)
    for configs in (common.STORAGE_CELLS, common.PAPER_CELLS):
        ranked = sorted(configs, key=order.index)
        even = common.assign_configs(4, "w", 2, apps, ref, configs)
        odd = common.assign_configs(4, "w", 3, apps, ref, configs)
        for app in apps:
            rank = ranked.index(even[app])
            assert odd[app] == ranked[len(ranked) - 1 - rank]
    # The next even cycle is a fresh draw.
    assert common.assign_configs(4, "w", 4, apps, ref, common.STORAGE_CELLS) != \
        common.assign_configs(4, "w", 2, apps, ref, common.STORAGE_CELLS)


def test_fresh_cells_are_distinct_and_balanced():
    apps = [f"app{i}" for i in range(8)]
    cells = common.fresh_cells(4, apps, common.STORAGE_CELLS, 24)
    assert len(set(cells)) == 24
    parsed = [common.parse_cell(k) for k in cells]
    assert all(sum(a == app for a, _, _ in parsed) == 3 for app in apps)
    per_config = [sum((b, e) == c for _, b, e in parsed) for c in common.STORAGE_CELLS]
    assert max(per_config) - min(per_config) <= 1


def test_service_plan_has_a_fixed_fresh_count():
    fresh = [f"app{i}/baseline@512" for i in range(12)]
    for seed in range(20):
        plan = common.service_plan(seed, 10, 4.0, fresh)
        assert len(plan) == 40
        assert sum(len(j["runs"]) for j in plan) == 60
        assert all(0 <= j["due"] <= 10 for j in plan)
        assert [j["due"] for j in plan] == sorted(j["due"] for j in plan)
        seen = []
        for job in plan:
            assert len(set(job["runs"])) == len(job["runs"])
            seen.extend(k for k in job["runs"] if k not in seen)
        assert seen == fresh


# -- reference checks -----------------------------------------------------------------


def _record(cycles=100):
    return {"cycles": cycles, "instructions": 50, "warps_done": 4,
            "warps_total": 4, "finished": True, "counters": {"x": 1.0},
            "stalls": {"issued": 3}, "energy": {"rf": 1.0, "total": 2.0}}


def _run(reference, workload="sim-baseline"):
    cfg = common.load_json(common.CONFIG_PATH)
    return bench.Run(workload, 1, 1.0, cfg, reference, "/nonexistent")


def test_reference_mismatch_counts_as_failure():
    good = _record()
    ref = {"a/baseline@512": {"digest": common.digest(good), "cycles": 100,
                              "instructions": 50}}
    run = _run(ref)
    assert run.check("a/baseline@512", good, "p") is None
    assert run.check("a/baseline@512", _record(cycles=101), "p") is not None
    unfinished = dict(good, finished=False)
    assert run.check("a/baseline@512", unfinished, "p") is not None
    short = dict(good, warps_done=3)
    assert run.check("a/baseline@512", short, "p") is not None
    assert run.check("b/baseline@512", good, "p") is not None
    assert (run.attempted, len(run.failures)) == (5, 4)


def test_only_listed_hash_variants_are_accepted():
    primary, variant, other = _record(100), _record(101), _record(102)
    ref = {"a/regless@512": {"digest": common.digest(primary), "cycles": 100,
                             "instructions": 50,
                             "hash_variants": [common.digest(variant)]},
           "b/regless@512": {"digest": common.digest(primary), "cycles": 100,
                             "instructions": 50}}
    assert common.check_cell("a/regless@512", variant, ref) is None
    assert common.check_cell("a/regless@512", other, ref) is not None
    assert common.check_cell("b/regless@512", variant, ref) is not None


def test_a_mismatch_is_reported_even_when_a_percentile_is_short(
        monkeypatch, tmp_path, capsys):
    """A wrong result that also leaves too few samples for a percentile
    still ends in ``correct: false`` and exit 1, with the failure listed,
    never in a set-up error."""
    ref = _reference()
    key = next(iter(ref))

    def workload(run):
        run.check(key, _record(cycles=1), "test process")
        raise common.TooFewSamples("p50 of 19 samples has 9 beyond it")

    monkeypatch.setattr(bench, "OUT_ROOT", tmp_path)
    monkeypatch.setattr(bench, "workload_inproc", workload)
    assert bench.main(["--workload", "sim-baseline", "--seed", "1",
                       "--seconds", "1"]) == 1
    out = capsys.readouterr().out
    last = json.loads(out.strip().splitlines()[-1])
    assert last["correct"] is False and last["failed"] == 1
    assert "reference mismatch" in out and "test process" in out


def test_service_results_are_checked_against_the_reference():
    good = _record()
    ref = {"a/baseline@512": {"digest": common.digest(good), "cycles": 100,
                              "instructions": 50}}
    stats = {k: good[k] for k in ("cycles", "instructions", "warps_done",
                                  "warps_total", "finished", "counters", "stalls")}
    wire = {"benchmark": "a", "backend": "baseline", "osu_entries": 512,
            "stats": stats, "energy": good["energy"], "timings": {}, "jit": {}}
    job = {"job": 0, "runs": ["a/baseline@512"], "status": "done",
           "result": {"runs": [{"status": "ok", "run": wire}]}}
    bad = copy.deepcopy(job)
    bad["job"] = 1
    bad["result"]["runs"][0]["run"]["stats"]["cycles"] = 99
    refused = {"job": 2, "runs": ["a/baseline@512"], "refused": 429}
    run = _run(ref, "service-mixed")
    fresh = bench.check_service(run, {"jobs": [job, bad, refused],
                                      "where": "loadgen"})
    # Three jobs and the two results they returned; the wrong result and
    # the refusal fail.
    assert run.attempted == 5 and len(run.failures) == 2
    assert list(fresh) == ["a/baseline@512"]
    # A wrong fresh result stays in the timing sample.
    run = _run(ref, "service-mixed")
    fresh = bench.check_service(run, {"jobs": [bad], "where": "loadgen"})
    assert len(run.failures) == 1 and list(fresh) == ["a/baseline@512"]


def test_record_is_the_same_from_every_path():
    stats = {"cycles": 7, "instructions": 3, "warps_done": 1, "warps_total": 1,
             "finished": True, "counters": {"b": 2, "a": 1.5},
             "stalls": {"x": 4.0}}
    energy = {"rf": 1, "total": 2.5}
    a = common.result_record(stats, energy)
    b = common.result_record(
        dict(stats, counters={"a": 1.5, "b": 2.0}, stalls={"x": 4}),
        {"total": 2.5, "rf": 1.0})
    assert common.digest(a) == common.digest(b)


# -- host-speed scaling -------------------------------------------------------------------


def test_a_slower_host_gives_the_same_reference_seconds():
    """Timings scale by ``probe_ref_s`` over the run's median probe, to
    the configured power: the same cells on a host that slows the probe
    fourfold and them twofold (the square root) read the same; a slower
    program on the same host does not."""
    cfg = common.load_json(common.CONFIG_PATH)
    ref_s = cfg["probe_ref_s"]
    assert cfg["probe_exponent"] == 0.5

    def measure(run_s, probe_s):
        run = _run({})
        run.probes = [probe_s, probe_s * 3, probe_s]
        bench.e2e_sim(run, [
            {"key": "a/baseline@512", "record": _record(),
             "timings": {"construct": 0.0, "run": run_s, "energy": 0.0}}
            for _ in range(21)])
        return {k: m["value"] for k, m in run.e2e.items()}

    fast, slow = measure(0.1, ref_s), measure(0.2, 4 * ref_s)
    assert slow["run_s_p50"] == pytest.approx(fast["run_s_p50"])
    assert slow["sim_kinst_per_s"] == pytest.approx(1.05 / 2.1)
    assert slow["run_wall_s_p50"] == pytest.approx(0.2)
    assert measure(0.2, ref_s)["run_s_p50"] == pytest.approx(0.2)


def test_the_probe_is_fixed_work():
    assert hostspeed._interpret() == hostspeed._interpret()
    assert hostspeed._round_trip() == hostspeed._round_trip()
    assert 0.0 < hostspeed.probe() < 5.0


# -- open-loop timing ---------------------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        self.now += max(0.0, seconds)


def test_open_loop_latency_runs_from_the_due_time():
    clock = FakeClock()
    plan = [{"job": 0, "due": 0.0, "runs": ["a"]},
            {"job": 1, "due": 0.1, "runs": ["b"]}]

    def submit(runs):
        if runs == ["a"]:
            clock.now += 1.0  # the first submission stalls for a second
        return f"id-{runs[0]}"

    loop = loadgen.OpenLoop(plan, submit, lambda jid: "done", lambda jid: {},
                            common.SpanLog(enabled=False), clock=clock,
                            sleep=clock.sleep)
    loop.run_submitter(0.0)
    loop.run_poller(give_up=100.0)
    second = loop.jobs[1]
    assert second["lag_s"] == pytest.approx(0.9)
    # Timed from when it was due (0.1), not from when it was sent (1.0).
    assert second["latency_s"] == pytest.approx(second["done_t"] - 0.1)
    assert second["latency_s"] >= 0.9


def test_refused_jobs_miss_every_limit():
    run = _run({}, "service-mixed")
    out = {"jobs": [{"status": "done", "latency_s": 0.2}, {"refused": 503}]}
    assert bench.latencies(run, out) == [0.2, float("inf")]
