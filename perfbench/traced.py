"""The traced run: per-layer metrics, span self times and trace overhead.

Each workload's traced run repeats its own work in pairs of fresh
processes — one untraced, one recording spans around every call into a
layer — and, where a per-layer metric needs a comparison run, a third:
stall attribution on and off plus the same apps' baseline references
(``sim-*``), the same cells serially (``grid-parallel``), or the same
arrivals without ``--state-dir`` (``service-mixed``).  Per-layer numbers come from the traced process; the untraced
one gives ``trace.overhead_frac``.  Nothing is patched into the program:
no ``Tracer``, no working-set tracking, no monkey-patching, so the region
JIT runs exactly as in an untraced run.
"""

from __future__ import annotations

import json
import os
import statistics
from typing import Dict, List

import common
import run as bench

MS = 1000.0


def _label(backend: str, entries: int) -> str:
    return backend if entries == 512 else f"{backend}-{entries}"


def _sum(cells, counter: str) -> float:
    return sum(c["record"]["counters"].get(counter, 0.0) for c in cells)


def _kinst(cells) -> float:
    return sum(c["record"]["instructions"] for c in cells) / 1000.0


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _run_s(cell: dict) -> float:
    """Host seconds of ``GPU.run()`` (in process) or of the worker's
    simulate phase."""
    t = cell["timings"]
    return t["run"] if "run" in t else t["simulate"]


def _ns_per_inst(cells) -> float:
    return sum(_run_s(c) for c in cells) * 1e9 / (_kinst(cells) * 1000)


def layer_cells(run: bench.Run, cells: List[dict]) -> None:
    """Per-layer metrics every simulated cell carries: simulator, JIT,
    batching, memory, energy, storage backends and the energy model."""
    put = run.metric
    L = run.layer
    n = len(cells)
    put(L, "sim.cycles", sum(c["record"]["cycles"] for c in cells), "count", n)
    put(L, "sim.instructions", sum(c["record"]["instructions"] for c in cells),
        "count", n)
    if all("construct" in c["timings"] for c in cells):
        put(L, "sim.construct_ms", statistics.median(
            c["timings"]["construct"] * MS for c in cells), "ms", n)
    put(L, "energy.account_ms", statistics.median(
        c["timings"]["energy"] * MS for c in cells), "ms", n)
    by_label: Dict[str, List[dict]] = {}
    for c in cells:
        _, backend, entries = common.parse_cell(c["key"])
        by_label.setdefault(_label(backend, entries), []).append(c)
    for label, group in sorted(by_label.items()):
        put(L, f"sim.ns_per_inst.{label}", _ns_per_inst(group), "ns", len(group))
    base = {common.parse_cell(c["key"])[0]: c for c in by_label.get("baseline", [])}
    if run.workload == "sim-storage":
        for label, group in sorted(by_label.items()):
            refs = [base[common.parse_cell(c["key"])[0]] for c in group
                    if common.parse_cell(c["key"])[0] in base]
            if label != "baseline" and refs:
                put(L, f"storage.extra_ns_per_inst.{label}",
                    _ns_per_inst(group) - _ns_per_inst(refs), "ns", len(group))

    jit = [c["jit"] for c in cells]
    put(L, "regionjit.codegen_ms",
        statistics.mean(j["codegen_s"] * MS for j in jit), "ms", n)
    put(L, "regionjit.armed_frac", _ratio(sum(j["armed"] for j in jit),
                                          sum(j["shards"] for j in jit)),
        "fraction", n)
    issued = sum(j["issued"] for j in jit)
    put(L, "regionjit.issued_frac",
        _ratio(issued, issued + sum(j["fallback_issued"] for j in jit)),
        "fraction", n)
    batch = [c["batch"] for c in cells if "batch" in c]
    if batch:
        put(L, "warpbatch.armed_frac", _ratio(sum(b["armed"] for b in batch),
                                              sum(b["shards"] for b in batch)),
            "fraction", len(batch))
        hit = sum(b["batched"] for b in batch)
        put(L, "warpbatch.cohort_hit_rate", _ratio(
            hit, hit + sum(b["singleton"] + b["scalar"] for b in batch)),
            "fraction", len(batch))

    put(L, "mem.l2_hit_frac", _ratio(_sum(cells, "l2_hit"),
                                     _sum(cells, "l2_access")), "fraction", n)
    put(L, "mem.dram_lines_per_kinst",
        _ratio(_sum(cells, "dram_read"), _kinst(cells)), "lines/kinst", n)

    rl = [c for c in cells if "/regless" in c["key"]]
    if rl:
        put(L, "regless.preloads_per_kinst",
            _ratio(_sum(rl, "preloads"), _kinst(rl)), "1/kinst", len(rl))
        put(L, "regless.preload_osu_frac",
            _ratio(_sum(rl, "preload_src_osu"), _sum(rl, "preloads")),
            "fraction", len(rl))
        put(L, "regless.l1_preload_per_kinst",
            _ratio(_sum(rl, "l1_preload_req"), _kinst(rl)), "1/kinst", len(rl))
    comp = [c for c in rl if "/regless@" in c["key"]]
    if comp:
        put(L, "regless.compressor_hit_frac",
            _ratio(_sum(comp, "compressor_hit"), _sum(comp, "compressor_access")),
            "fraction", len(comp))
    for entries in (256, 512, 1024):
        at = [c for c in comp if c["key"].endswith(f"@{entries}")]
        if at:
            cm = sum(v for c in at for k, v in c["record"]["stalls"].items()
                     if k.startswith("cm_"))
            put(L, f"regless.cm_stall_frac.{entries}", _ratio(
                cm, sum(sum(c["record"]["stalls"].values()) for c in at)),
                "fraction", len(at))
    rfh = [c for c in cells if "/rfh@" in c["key"]]
    if rfh:
        orf = _sum(rfh, "rfh_orf_read")
        put(L, "regfile.rfh_orf_read_frac", _ratio(
            orf, orf + _sum(rfh, "rfh_lrf_read") + _sum(rfh, "rf_read")),
            "fraction", len(rfh))

    by_key = {c["key"]: c["record"] for c in cells}
    pairs = [(by_key[k], by_key[common.cell_key(common.parse_cell(k)[0],
                                                "baseline")])
             for k in by_key if k.endswith("/regless@512")
             and common.cell_key(common.parse_cell(k)[0], "baseline") in by_key]
    if pairs and run.workload == "sim-storage":
        put(L, "model.rf_energy_saved_frac", statistics.mean(
            1 - r["energy"]["rf"] / b["energy"]["rf"] for r, b in pairs),
            "fraction", len(pairs))
        put(L, "model.cycles_ratio", statistics.mean(
            r["cycles"] / b["cycles"] for r, b in pairs), "ratio", len(pairs))


def layer_setup(run: bench.Run, outs: List[dict]) -> None:
    builds = [sum(o["setup"]["build_s"].values()) * MS for o in outs]
    compiles = [sum(o["setup"]["compile_s"].values()) * MS for o in outs]
    run.metric(run.layer, "workloads.build_ms", statistics.median(builds), "ms",
               len(builds))
    run.metric(run.layer, "compiler.compile_ms", statistics.median(compiles),
               "ms", len(compiles))


def overhead(run: bench.Run, traced: float, untraced: float) -> None:
    run.metric(run.layer, "trace.overhead_frac", traced / untraced - 1.0,
               "fraction")


def self_times(run: bench.Run) -> None:
    for name, secs in sorted(common.self_times(run.spans).items()):
        run.metric(run.layer, f"self_ms.{name}", secs * MS, "ms")


# -- per workload -----------------------------------------------------------------


def traced_inproc(run: bench.Run) -> None:
    plain, traced, refs, outs, pairs = [], [], [], [], []
    every = run.wcfg["attribution_every"]
    for rounds in bench.cycles(run, min_cycles=1):
        for cells in rounds:
            # Same-app baseline cells, the reference for the storage
            # backends' extra cost and for the energy model's ratios.
            extra = [common.cell_key(common.parse_cell(k)[0], "baseline")
                     for k in cells if "/baseline@" not in k]
            a = bench.inproc_round(run, cells, traced=False)
            b = bench.inproc_round(run, cells, traced=True)
            # The comparison runs (stall attribution on and off, and the
            # references) get a third process, so the traced one differs
            # from the untraced one only by its spans.
            c = bench.inproc_round(run, cells + extra, traced=False,
                                   attribution_every=every)
            if a is None or b is None or c is None:
                continue
            for out in (a, b, c):
                for cell in out["cells"]:
                    run.check(cell["key"], cell["record"], out["where"])
            plain.extend(a["cells"])
            traced.extend(b["cells"])
            refs.extend(c["cells"][len(cells):])
            pairs.extend(cell["attribution"] for cell in c["cells"]
                         if "attribution" in cell)
            outs.append(b)
            run.spans.extend(b["spans"])
    if not outs:
        raise bench.SetupError("no traced round completed")
    layer_setup(run, outs)
    layer_cells(run, traced + refs)
    for p in pairs:
        if not (p["on"]["same_counts"] and p["off"]["same_counts"]):
            run.failures.append("stall attribution changed simulated counts")
    on = sum(p["on"]["run"] - p["on"]["codegen_s"] for p in pairs)
    off = sum(p["off"]["run"] - p["off"]["codegen_s"] for p in pairs)
    run.metric(run.layer, "obs.attribution_share", 1 - off / on, "fraction",
               len(pairs))
    overhead(run, sum(map(bench.run_time, traced)),
             sum(map(bench.run_time, plain)))


def traced_grid(run: bench.Run) -> None:
    warm = run.wcfg["warm_rereads"]
    plain_s, traced_s, serial_s, cells, io, outs = [], [], [], [], [], []
    for rounds in bench.cycles(run, min_cycles=1):
        for grid_cells in rounds:
            a = bench.grid_round(run, grid_cells, False, warm)
            b = bench.grid_round(run, grid_cells, True, warm)
            c = run.child("simround.py", ["serial", "--apps", *run.apps,
                                          "--cells", *grid_cells], "serial")
            if c.out is None:
                run.attempted += len(grid_cells)
                run.failures.extend(
                    [f"serial process failed: {c.error} [{c.where}]"]
                    * len(grid_cells))
            if a is None or b is None or c.out is None:
                continue
            bench.check_grid(run, a)
            bench.check_grid(run, b)
            for cell in c.out["cells"]:
                run.check(cell["key"], cell["record"], c.where)
            plain_s.append(a["grid"]["grid_s"])
            traced_s.append(b["grid"]["grid_s"])
            serial_s.append(c.out["serial_s"])
            cells.extend(b["grid"]["cells"])
            io.extend(b["grid"]["cache_io"])
            outs.append(b)
            run.spans.extend(b["spans"])
    if not outs:
        raise bench.SetupError("no traced grid round completed")
    L, put = run.layer, run.metric
    layer_setup(run, outs)
    layer_cells(run, cells)
    put(L, "cache.put_ms", statistics.median(x["put_s"] * MS for x in io), "ms",
        len(io))
    put(L, "cache.get_ms", statistics.median(x["get_s"] * MS for x in io), "ms",
        len(io))
    put(L, "cache.entry_kb", statistics.mean(x["entry_bytes"] for x in io) / 1024,
        "KB", len(io))
    cold = [(o["grid"]["cold_hits"], o["grid"]["cold_misses"]) for o in outs]
    put(L, "cache.hit_frac.cold", _ratio(sum(h for h, _ in cold),
                                         sum(h + m for h, m in cold)), "fraction")
    hot = [(w["hits"], w["misses"]) for o in outs for w in o["grid"]["warm"]]
    put(L, "cache.hit_frac.warm", _ratio(sum(h for h, _ in hot),
                                         sum(h + m for h, m in hot)), "fraction")
    jobs = outs[0]["grid"]["jobs"]
    busy = sum(x["timings"]["total"] for x in cells)
    put(L, "parallel.efficiency", busy / (jobs * sum(traced_s)), "fraction",
        len(cells))
    put(L, "parallel.speedup", sum(serial_s) / sum(plain_s), "ratio",
        len(serial_s))
    put(L, "parallel.jobs", jobs, "count")
    put(L, "parallel.nproc", outs[0]["grid"]["nproc"], "count")
    put(L, "parallel.result_kb",
        statistics.mean(x["result_bytes"] for x in cells) / 1024, "KB",
        len(cells))
    overhead(run, sum(traced_s), sum(plain_s))


def _hist_p50(metrics: dict, path: str) -> float:
    """Median bucket bound of a ``repro.obs`` 1-2-5 histogram as served by
    ``/metrics.json`` (``<path>.bucket.<bound>`` counts)."""
    prefix = path + ".bucket."
    buckets = sorted((float(k[len(prefix):]), v) for k, v in metrics.items()
                     if k.startswith(prefix))
    total = sum(v for _, v in buckets)
    seen = 0.0
    for bound, count in buckets:
        seen += count
        if seen >= total / 2:
            return bound
    return 0.0


def traced_service(run: bench.Run) -> None:
    plan = bench.service_plan(run)
    plan_path = os.path.join(run.work_dir, "plan.json")
    with open(plan_path, "w") as fh:
        json.dump(plan, fh)
    plain = bench.loadgen(run, plan_path, False, True, 0, len(plan))
    traced = bench.loadgen(run, plan_path, True, True, 0, len(plan))
    nojournal = bench.loadgen(run, plan_path, False, False, 0, len(plan))
    if plain is None or traced is None or nojournal is None:
        raise bench.SetupError("a load-generator pass failed")
    bench.check_service(run, plain)
    bench.check_service(run, nojournal)
    fresh = bench.check_service(run, traced)
    bench.check_lag(run, traced)
    run.spans.extend(traced["spans"])
    L, put = run.layer, run.metric
    layer_cells(run, list(fresh.values()))
    jobs = traced["jobs"]
    ok = [j for j in jobs if j.get("status") == "done"]
    put(L, "service.boot_s", traced["boot_s"][-1], "s")
    for name, key in (("submit", "submit_s"), ("result", "result_s")):
        put(L, f"service.{name}_ms_p50",
            common.percentile([j[key] * MS for j in jobs if key in j], 0.5),
            "ms", len(jobs))
    put(L, "service.poll_ms_p50",
        common.percentile([x * MS for x in traced["poll_s"]], 0.5), "ms",
        len(traced["poll_s"]))
    put(L, "service.result_kb", statistics.mean(
        len(json.dumps(j["result"])) for j in ok) / 1024, "KB", len(ok))
    m = traced["metrics"]
    put(L, "service.queue_wait_ms_p50", _hist_p50(m, "service.queue.wait_ms"),
        "ms", int(m.get("service.queue.wait_ms.count", 0)))
    put(L, "service.exec_ms_p50", _hist_p50(m, "service.run.exec_ms"), "ms",
        int(m.get("service.run.exec_ms.count", 0)))
    put(L, "service.batch_runs_mean", _ratio(m.get("service.runs.dispatched", 0),
                                             m.get("service.batches", 0)),
        "runs")
    put(L, "service.dedupe_frac", _ratio(m.get("service.admission.deduped", 0),
                                         m.get("service.runs.submitted", 0)),
        "fraction")
    put(L, "service.journal_records_per_job",
        _ratio(m.get("service.journal.records", 0),
               m.get("service.jobs.submitted", 0)), "records")
    put(L, "service.refused_frac",
        sum(1 for j in jobs if "refused" in j) / len(jobs), "fraction", len(jobs))
    # Most jobs are memo reads answered within one 20 ms poll, so the
    # median latency is mostly poll cadence; compare the means instead.
    mean = {k: statistics.mean(bench.latencies(run, o))
            for k, o in (("plain", plain), ("traced", traced),
                         ("nojournal", nojournal))}
    put(L, "service.journal_share", 1 - mean["nojournal"] / mean["plain"],
        "fraction", len(jobs))
    lag = [j["lag_s"] * MS for j in jobs if "lag_s" in j]
    put(L, "loadgen.lag_ms_p50", common.percentile(lag, 0.5), "ms", len(lag))
    put(L, "loadgen.lag_ms_max", max(lag), "ms", len(lag))
    overhead(run, mean["traced"], mean["plain"])


def traced_run(run: bench.Run) -> None:
    {"sim-baseline": traced_inproc, "sim-storage": traced_inproc,
     "grid-parallel": traced_grid,
     "service-mixed": traced_service}[run.workload](run)
    self_times(run)
