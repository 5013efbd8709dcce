"""One round of a simulator workload, in a fresh process.

    python3 perfbench/simround.py MODE --apps APP [APP ...]
        [--cells KEY ...] [--trace] [--cache-dir DIR] [--warm N]
        [--attribution-every N]

MODE is ``inproc`` (the ``sim-*`` workloads: every cell runs in this
process through ``GPU(...)`` / ``GPU.run()`` / ``EnergyModel.gpu_energy``),
``grid`` (``grid-parallel``: one cold ``SuiteRunner.run_grid(jobs=2)``
into a fresh ``ResultCache``, then N fresh-runner warm re-reads), ``serial``
(the same cells through ``run_grid(jobs=1)`` with the cache off, for the
traced run's parallel speed-up) or ``setup`` (set-up only).

Set-up — imports plus building and compiling all 21 kernels — ends at
``t_ready``, on the ``perf_counter`` clock the parent shares (CLOCK_MONOTONIC).
The last stdout line is one JSON object of raw measurements; the parent
checks results and turns them into metrics.  Every layer is timed around
this file's own calls into that layer's public functions.  The host-speed
probe (``hostspeed.py``) runs before every cell or grid and once after the
last, outside every timed interval; its times go out as ``probe_s``.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402
import hostspeed  # noqa: E402

JOBS = 2


def _batch_summary(batch: dict) -> dict:
    """Totals over the ``sm*.shard*.batch.*`` paths of ``GPU.collect_batch``."""
    out = {"shards": 0, "armed": 0, "batched": 0, "singleton": 0, "scalar": 0}
    leaves = {"batched_warps": "batched", "singleton_warps": "singleton",
              "scalar_classified": "scalar"}
    for path, value in batch.items():
        leaf = path.rsplit(".", 1)[-1]
        if leaf == "armed":
            out["shards"] += 1
            out["armed"] += int(value)
        elif leaf in leaves:
            out[leaves[leaf]] += int(value)
    return out


def _cell_out(key, result_stats, energy, timings, jit, batch, wire) -> dict:
    record = common.result_record(wire(result_stats), energy.as_dict())
    return {"key": key, "record": record, "timings": timings,
            "jit": common.jit_summary(jit), "batch": _batch_summary(batch)}


def setup(spans: common.SpanLog, apps, cache_dir=None):
    """Imports plus build and compile of every kernel; the timed set-up.

    Kernels are built and compiled through the ``SuiteRunner`` that then
    runs the cells, so the runner's memo holds them and no timed run pays
    for them again.  ``cache_dir`` is its result store; none means the
    cache is off (never the default ``~/.cache`` store)."""
    with spans.span("setup"):
        with spans.span("import"):
            sys.path.insert(0, str(common.SRC))
            from repro.harness.cache import ResultCache
            from repro.harness.runner import SuiteRunner
            from repro.service.schemas import stats_to_wire
            from repro.sim.gpu import GPU
        runner = SuiteRunner(
            cache=ResultCache(cache_dir) if cache_dir else False, jobs=JOBS
        )
        build_s, compile_s = {}, {}
        for app in apps:
            t0 = time.perf_counter()
            with spans.span("workloads.build", req=app):
                runner.workload(app).kernel()
            t1 = time.perf_counter()
            with spans.span("compiler.compile", req=app):
                runner.compiled(app)
            t2 = time.perf_counter()
            build_s[app], compile_s[app] = t1 - t0, t2 - t1
    mods = {"GPU": GPU, "SuiteRunner": SuiteRunner, "ResultCache": ResultCache,
            "stats_to_wire": stats_to_wire}
    return mods, runner, {"build_s": build_s, "compile_s": compile_s}


def run_inproc(mods, runner, cells, spans, probes, attribution_every):
    """Each cell through the simulator's public API, timed per layer.

    The runner supplies the kernels, the per-backend config and the
    storage factory; the cell itself is ``GPU(...)``, ``GPU.run()`` and
    ``EnergyModel.gpu_energy``, as ``SuiteRunner.run`` does it."""
    GPU, wire = mods["GPU"], mods["stats_to_wire"]
    energy_model = runner.energy_model
    out = []
    for key in cells:
        app, backend, entries = common.parse_cell(key)
        workload, compiled = runner.workload(app), runner.compiled(app)
        cfg = runner.config_for(backend)
        factory = runner.storage_factory(backend, compiled, entries)
        probes.append(hostspeed.probe())
        with spans.span("cell", req=key):
            t0 = time.perf_counter()
            with spans.span("sim.construct", req=key):
                gpu = GPU(cfg, compiled, workload, factory)
            t1 = time.perf_counter()
            with spans.span("sim.run", req=key):
                stats = gpu.run()
            t2 = time.perf_counter()
            with spans.span("energy.account", req=key):
                energy = energy_model.gpu_energy(
                    stats.counters, stats.cycles,
                    "regless" if backend == "regless-nc" else backend,
                    osu_entries=entries,
                )
            t3 = time.perf_counter()
        timings = {"construct": t1 - t0, "run": t2 - t1, "energy": t3 - t2,
                   "total": t3 - t0}
        cell = _cell_out(key, stats, energy, timings, gpu.collect_jit(),
                         gpu.collect_batch(), wire)
        if attribution_every and len(out) % attribution_every == 0:
            # The stall bookkeeping of repro.obs costs the difference between
            # the cell with attribution on and off (the public GPUConfig
            # option).  Both repeats run warm, in alternating order.
            pair = {}
            for flag in ((True, False) if len(out) % 2 else (False, True)):
                gpu = GPU(cfg.with_(stall_attribution=flag), compiled,
                          workload, factory)
                t4 = time.perf_counter()
                again = gpu.run()
                pair[flag] = {
                    "run": time.perf_counter() - t4,
                    "codegen_s": common.jit_summary(gpu.collect_jit())["codegen_s"],
                    "same_counts": (again.cycles, again.instructions)
                    == (stats.cycles, stats.instructions),
                }
            cell["attribution"] = {"on": pair[True], "off": pair[False]}
        out.append(cell)
    probes.append(hostspeed.probe())
    return out


def _requests(cells):
    from repro.harness.parallel import RunRequest

    return [RunRequest.make(app, backend, entries)
            for app, backend, entries in map(common.parse_cell, cells)]


def _result_cell(key, result, wire) -> dict:
    cell = _cell_out(key, result.stats, result.energy, dict(result.timings),
                     getattr(result, "jit", {}), getattr(result, "batch", {}),
                     wire)
    cell["result_bytes"] = len(pickle.dumps(result,
                                            protocol=pickle.HIGHEST_PROTOCOL))
    return cell


def run_grid(mods, runner, cells, spans, probes, cache_dir, warm, traced):
    """Cold ``run_grid`` into the runner's fresh cache, then ``warm``
    fresh-runner re-reads of the same cells from it."""
    SuiteRunner, ResultCache = mods["SuiteRunner"], mods["ResultCache"]
    wire = mods["stats_to_wire"]
    requests = _requests(cells)
    probes.append(hostspeed.probe())
    with spans.span("grid.cold"):
        t0 = time.perf_counter()
        with spans.span("parallel.run_grid", req="cold"):
            results = runner.run_grid(requests, jobs=JOBS)
        grid_s = time.perf_counter() - t0
    probes.append(hostspeed.probe())
    out = {"grid_s": grid_s, "jobs": JOBS, "nproc": os.cpu_count(),
           "cold_hits": runner.cache.hits, "cold_misses": runner.cache.misses,
           "cold_writes": runner.cache.writes,
           "cells": [_result_cell(k, r, wire) for k, r in zip(cells, results)],
           "warm": []}
    for i in range(warm):
        fresh = SuiteRunner(cache=ResultCache(cache_dir), jobs=JOBS)
        with spans.span("grid.warm", req=f"warm{i}"):
            t0 = time.perf_counter()
            with spans.span("parallel.run_grid", req=f"warm{i}"):
                again = fresh.run_grid(requests, jobs=JOBS)
            warm_s = time.perf_counter() - t0
        probes.append(hostspeed.probe())
        out["warm"].append({
            "grid_s": warm_s, "hits": fresh.cache.hits,
            "misses": fresh.cache.misses,
            "digests": [common.digest(common.result_record(
                wire(r.stats), r.energy.as_dict())) for r in again],
        })
    if traced:
        # Cache I/O timed around this file's own put/get calls, on the
        # results the grid produced, in a scratch store of its own.
        probe = ResultCache(os.path.join(cache_dir, "probe"))
        io = []
        for key, result in zip(cells, results):
            digest = common.digest({"cell": key})
            t0 = time.perf_counter()
            with spans.span("cache.put", req=key):
                probe.put(digest, result)
            t1 = time.perf_counter()
            with spans.span("cache.get", req=key):
                back = probe.get(digest)
            t2 = time.perf_counter()
            path = os.path.join(probe.root, digest[:2], f"{digest}.pkl")
            io.append({"put_s": t1 - t0, "get_s": t2 - t1,
                       "entry_bytes": os.path.getsize(path),
                       "hit": back is not None})
        out["cache_io"] = io
    return out


def run_serial(mods, runner, cells, spans, probes):
    probes.append(hostspeed.probe())
    t0 = time.perf_counter()
    with spans.span("parallel.run_grid", req="serial"):
        results = runner.run_grid(_requests(cells), jobs=1)
    serial_s = time.perf_counter() - t0
    probes.append(hostspeed.probe())
    return {"serial_s": serial_s,
            "cells": [_result_cell(k, r, mods["stats_to_wire"])
                      for k, r in zip(cells, results)]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("inproc", "grid", "serial", "setup"))
    ap.add_argument("--cells", nargs="*", default=[])
    ap.add_argument("--apps", nargs="+", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--attribution-every", type=int, default=0,
                    help="re-run every Nth cell with stall attribution on "
                         "and off (0: never)")
    ap.add_argument("--cache-dir", default=None)
    ap.add_argument("--warm", type=int, default=0)
    ap.add_argument("--label", default="round")
    args = ap.parse_args(argv)

    spans = common.SpanLog(process=args.label, enabled=args.trace)
    mods, runner, setup_out = setup(
        spans, args.apps, args.cache_dir if args.mode == "grid" else None
    )
    out = {"t_ready": time.perf_counter(), "setup": setup_out}
    probes = []
    if args.mode == "inproc":
        out["cells"] = run_inproc(mods, runner, args.cells, spans, probes,
                                  args.attribution_every)
    elif args.mode == "grid":
        out["grid"] = run_grid(mods, runner, args.cells, spans, probes,
                               args.cache_dir, args.warm, args.trace)
    elif args.mode == "serial":
        out.update(run_serial(mods, runner, args.cells, spans, probes))
    out["probe_s"] = probes
    out["t_end"] = time.perf_counter()
    out["peak_rss_kb"] = common.peak_rss_kb()
    out["spans"] = spans.spans
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
