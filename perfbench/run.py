"""perfbench: one benchmark for the simulator, the grid and the service.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see README.md beside this file for why each exists):

* ``sim-baseline``  — in-process, serial, cache off: Rodinia apps on the
  baseline RF (GTO scheduler).
* ``sim-storage``   — the same harness; each drawn app on baseline, RFH,
  RFV, RegLess at 256/512/1024 OSU entries and RegLess without the
  compressor.
* ``grid-parallel`` — ``SuiteRunner.run_grid(jobs=2)`` into a fresh result
  cache, then fresh runners re-reading the same grid warm.
* ``service-mixed`` — an open loop of seeded Poisson arrivals against the
  ``repro.harness serve`` daemon.

Every round runs in a fresh process, every simulated result is checked
against ``reference.json``, and the last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}`` — the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics
with ``--trace 1``.  The full report, the trend lists and (traced) the
Chrome trace go to ``.perfbench_out/<workload>/``.  Exit status is 1 when
any result is wrong or any operation failed, 2 on a usage or set-up error.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402
import hostspeed  # noqa: E402

WORKLOADS = ("sim-baseline", "sim-storage", "grid-parallel", "service-mixed")
OUT_ROOT = common.ROOT / ".perfbench_out"
HERE = common.BENCH_DIR


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark at all."""


# -- the run's environment ------------------------------------------------------


def clean_env(cache_dir: str) -> Dict[str, str]:
    """The environment every child gets: no inherited ``REPRO_*`` switch
    (JIT, batching, jobs, cache, fault injection), the checkout's ``src``
    on the path, and a result-cache dir inside this run's scratch space so
    nothing can fall back to ``~/.cache/repro-regless``.

    No ``PYTHONHASHSEED`` is inherited either: :meth:`Run.child` gives each
    process a random one and records it, so every run checks the results
    under hash orders nobody chose, and a mismatch can be replayed with
    ``make_reference.py --check-only --hash-seed N``."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_") and k != "PYTHONHASHSEED"}
    env["PYTHONPATH"] = str(common.SRC)
    env["REPRO_CACHE_DIR"] = cache_dir
    return env


def git_head() -> str:
    head = common.ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (common.ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def host_info() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform(), "git_head": git_head()}


# -- children ---------------------------------------------------------------------


class Child:
    """One fresh process, in a session of its own so that a timeout stops
    it together with everything it started; ``t_spawn`` shares the
    children's clock."""

    def __init__(self, argv: List[str], env, timeout: float, where: str):
        #: names the process, and its hash seed, in failure messages.
        self.where = where
        self.t_spawn = time.perf_counter()
        proc = subprocess.Popen([sys.executable] + argv, env=env,
                                cwd=str(common.ROOT), stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True,
                                start_new_session=True)
        try:
            stdout, stderr = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            self.out, self.error = None, f"timed out after {timeout:.0f} s"
            return
        lines = stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            tail = stderr.strip().splitlines()[-3:]
            self.out = None
            self.error = f"exit {proc.returncode}: {' | '.join(tail)}"
            return
        self.out, self.error = json.loads(lines[-1]), None


class Run:
    """Everything one benchmark invocation gathers."""

    def __init__(self, workload: str, seed: int, seconds: float, cfg: dict,
                 reference: dict, work_dir: str):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.cfg, self.wcfg = cfg, cfg[workload]
        self.reference = reference
        self.apps = common.apps_of(reference)
        self.work_dir = work_dir
        self.env = clean_env(os.path.join(work_dir, "default-cache"))
        self.t0 = time.perf_counter()
        self.attempted = 0
        self.failures: List[str] = []
        self.setups: List[float] = []
        self.spans: List[dict] = []
        self.e2e: Dict[str, dict] = {}
        self.layer: Dict[str, dict] = {}
        self.notes: List[str] = []
        #: peak RSS of each measured process tree (KiB).
        self.rss_kb: List[int] = []
        #: every host-speed probe time of the measured processes (s).
        self.probes: List[float] = []
        #: the ``PYTHONHASHSEED`` each child ran under, by label.
        self.hash_seeds: Dict[str, str] = {}
        #: raw per-operation samples, kept in the report.
        self.samples: Dict[str, object] = {}
        self._children = 0

    # -- plumbing --

    def child(self, script: str, args: List[str], label: str) -> Child:
        self._children += 1
        label = f"{label}{self._children}"
        argv = [str(HERE / script)] + args + ["--label", label]
        seed = str(random.SystemRandom().randrange(1, 2 ** 32))
        self.hash_seeds[label] = seed
        return Child(argv, dict(self.env, PYTHONHASHSEED=seed),
                     self.cfg["child_timeout_s"],
                     f"{label}, PYTHONHASHSEED={seed}")

    def elapsed(self) -> float:
        return time.perf_counter() - self.t0

    def metric(self, table: Dict[str, dict], name: str, value: float,
               unit: str, n: Optional[int] = None) -> None:
        table[name] = {"value": value, "unit": unit, "n": n}

    def check(self, key: str, record: dict, where: str) -> Optional[str]:
        """Check one result; ``where`` names the process that produced it."""
        self.attempted += 1
        problem = common.check_cell(key, record, self.reference)
        if problem:
            self.failures.append(f"{problem} [{where}]")
        return problem

    def setup_probes(self) -> None:
        """Extra set-up-only processes until ``min_setups`` samples exist."""
        while len(self.setups) < self.cfg["min_setups"]:
            c = self.child("simround.py", ["setup", "--apps", *self.apps],
                           "setup")
            self.attempted += 1
            if c.out is None:
                self.failures.append(f"set-up probe failed: {c.error} [{c.where}]")
                raise SetupError("a set-up probe failed")
            self.setups.append(c.out["t_ready"] - c.t_spawn)

    def measured(self, c: Child) -> dict:
        """A round's or load generator's output, with its set-up time, the
        peak memory of its process tree and its host-speed probes recorded."""
        if "t_ready" in c.out:
            c.out["setup_s"] = c.out["t_ready"] - c.t_spawn
        self.rss_kb.append(c.out["peak_rss_kb"])
        self.probes.extend(c.out["probe_s"])
        c.out["where"] = c.where
        return c.out

    def scale(self) -> float:
        """Host seconds to reference seconds, from every probe of the run."""
        return hostspeed.scale(self.probes, self.cfg["probe_ref_s"],
                               self.cfg["probe_exponent"])


# -- simulator workloads -------------------------------------------------------------


def cycles(run: Run, min_cycles: Optional[int] = None):
    """Whole cycles (every app once, see ``common.cycle_rounds``): at least
    ``min_cycles`` (default: the workload's setting), and more only while
    they should end within ``--seconds``.  An even ``min_cycles`` adds
    cycles in pairs, so every drawn cycle keeps its mirror."""
    if min_cycles is None:
        min_cycles = run.wcfg["min_cycles"]
    configs = {"sim-baseline": (("baseline", 512),),
               "sim-storage": common.STORAGE_CELLS,
               "grid-parallel": common.PAPER_CELLS}[run.workload]
    step = 2 if min_cycles % 2 == 0 else 1
    c, last = 0, 0.0
    while c < min_cycles or c % step or run.elapsed() + step * last <= run.seconds:
        start = run.elapsed()
        yield common.cycle_rounds(run.seed, run.workload, c, run.apps,
                                  run.reference, configs)
        last = run.elapsed() - start
        c += 1


def inproc_round(run: Run, cells: List[str], traced: bool,
                 attribution_every: int = 0) -> Optional[dict]:
    args = ["inproc", "--apps", *run.apps, "--cells", *cells,
            "--attribution-every", str(attribution_every)]
    if traced:
        args.append("--trace")
    c = run.child("simround.py", args, "traced" if traced else "round")
    if c.out is None:
        run.failures.extend(
            [f"round process failed: {c.error} [{c.where}]"] * len(cells))
        run.attempted += len(cells)
        return None
    return run.measured(c)


def grid_round(run: Run, cells: List[str], traced: bool,
               warm: int) -> Optional[dict]:
    cache_dir = tempfile.mkdtemp(prefix="grid-cache-", dir=run.work_dir)
    args = ["grid", "--apps", *run.apps, "--cells", *cells,
            "--cache-dir", cache_dir, "--warm", str(warm)]
    if traced:
        args.append("--trace")
    c = run.child("simround.py", args, "traced" if traced else "grid")
    shutil.rmtree(cache_dir, ignore_errors=True)
    n_ops = len(cells) * (1 + warm)
    if c.out is None:
        run.failures.extend(
            [f"grid process failed: {c.error} [{c.where}]"] * n_ops)
        run.attempted += n_ops
        return None
    return run.measured(c)


def check_grid(run: Run, out: dict) -> None:
    g = out["grid"]
    for cell in g["cells"]:
        run.check(cell["key"], cell["record"], out["where"])
    if g["cold_hits"] != 0 or g["cold_writes"] != len(set(c["key"] for c in g["cells"])):
        run.failures.append(
            f"cold grid: {g['cold_hits']} cache hits and {g['cold_writes']} "
            f"writes, expected 0 hits and one write per cell")
    for warm in g["warm"]:
        if warm["misses"] or warm["hits"] != len(g["cells"]):
            run.failures.append(
                f"warm re-read: {warm['hits']} hits, {warm['misses']} misses")
        for cell, dig in zip(g["cells"], warm["digests"]):
            run.attempted += 1
            if dig != common.digest(cell["record"]):
                run.failures.append(f"{cell['key']}: warm re-read differs")


def sim_time(cell: dict) -> float:
    """Host seconds of the simulation proper: ``GPU(...)`` plus ``run()``
    in process; the worker's ``simulate`` phase (the same two calls)."""
    t = cell["timings"]
    return t["construct"] + t["run"] if "run" in t else t["simulate"]


def run_time(cell: dict) -> float:
    """Host seconds of one cell from simulation start to energy accounted
    (kernel build and compile are set-up)."""
    return sim_time(cell) + cell["timings"]["energy"]


def e2e_sim(run: Run, cells: List[dict]) -> None:
    """Throughput and median cell time in reference seconds (host seconds
    times the run's host-speed scale, ``hostspeed.py``), which the bounds
    apply to, and in raw wall-clock seconds beside them."""
    if not cells:
        raise SetupError("no cell was simulated")
    run.samples["cells"] = {c["key"]: {"sim_s": sim_time(c), "run_s": run_time(c)}
                            for c in cells}
    inst = sum(c["record"]["instructions"] for c in cells) / 1000.0
    secs = sum(sim_time(c) for c in cells)
    p50 = common.percentile([run_time(c) for c in cells], 0.5)
    scale, n = run.scale(), len(cells)
    run.metric(run.e2e, "sim_kinst_per_s", inst / (secs * scale), "kinst/ref-s", n)
    run.metric(run.e2e, "run_s_p50", p50 * scale, "ref-s", n)
    run.metric(run.e2e, "sim_kinst_per_wall_s", inst / secs, "kinst/s", n)
    run.metric(run.e2e, "run_wall_s_p50", p50, "s", n)


def workload_inproc(run: Run) -> None:
    cells: List[dict] = []
    for rounds in cycles(run):
        for round_cells in rounds:
            out = inproc_round(run, round_cells, traced=False)
            if out is None:
                continue
            run.setups.append(out["setup_s"])
            for cell in out["cells"]:
                run.check(cell["key"], cell["record"], out["where"])
            cells.extend(out["cells"])
    run.setup_probes()
    e2e_sim(run, cells)


def workload_grid(run: Run) -> None:
    warm = run.wcfg["warm_rereads"]
    cells: List[dict] = []
    grid_s: List[float] = []
    warm_s: List[float] = []
    for rounds in cycles(run):
        for round_cells in rounds:
            out = grid_round(run, round_cells, False, warm)
            if out is None:
                continue
            run.setups.append(out["setup_s"])
            check_grid(run, out)
            cells.extend(out["grid"]["cells"])
            grid_s.append(out["grid"]["grid_s"])
            warm_s.extend(w["grid_s"] for w in out["grid"]["warm"])
    run.setup_probes()
    e2e_sim(run, cells)
    run.metric(run.e2e, "grid_s", statistics.median(grid_s), "s", len(grid_s))
    run.metric(run.e2e, "warm_grid_s", statistics.median(warm_s), "s",
               len(warm_s))


# -- service workload -----------------------------------------------------------------


def service_window(run: Run) -> float:
    """Seconds of arrivals: ``--seconds``, or longer when that would give
    fewer than ``min_jobs`` jobs at the fixed rate (a p90 needs 100), as
    the simulator workloads always run whole cycles."""
    w = run.wcfg
    return max(run.seconds, w["min_jobs"] / w["rate_per_s"])


def service_plan(run: Run) -> List[dict]:
    w = run.wcfg
    short = common.strata(run.apps, run.reference, w["short_apps"])[0]
    fresh = common.fresh_cells(run.seed, short, common.STORAGE_CELLS,
                               w["fresh_runs"])
    return common.service_plan(run.seed, service_window(run), w["rate_per_s"],
                               fresh)


def loadgen(run: Run, plan_path: str, traced: bool, journal: bool,
            boots: int, n_jobs: int) -> Optional[dict]:
    args = ["--plan", plan_path, "--work-dir", run.work_dir,
            "--boots", str(boots)]
    if traced:
        args.append("--trace")
    if not journal:
        args.append("--no-journal")
    c = run.child("loadgen.py", args, "traced" if traced else "loadgen")
    if c.out is None:
        run.failures.extend(
            [f"load generator failed: {c.error} [{c.where}]"] * n_jobs)
        run.attempted += n_jobs
        return None
    return run.measured(c)


def check_service(run: Run, out: dict) -> dict:
    """Check every job and its results; returns the fresh runs (the first
    job to carry each cell executed it) keyed by cell.  A run that came
    back with the wrong result is a failure but stays in the timing
    sample, as on the simulator workloads, so a mismatch is reported as
    one rather than as too few samples."""
    fresh: Dict[str, dict] = {}
    where = f"{out['where']}, daemon PYTHONHASHSEED unset"
    for job in out["jobs"]:
        run.attempted += 1
        name = f"job {job['job']}"
        if "refused" in job:
            run.failures.append(f"{name}: refused with HTTP {job['refused']}")
            continue
        if job.get("status") != "done":
            run.failures.append(f"{name}: ended {job.get('status', 'unfinished')}")
            continue
        for key, item in zip(job["runs"], job["result"]["runs"]):
            res = item.get("run")
            if item.get("status") != "ok" or res is None:
                run.failures.append(f"{name} {key}: status {item.get('status')}")
                continue
            got = common.cell_key(res["benchmark"], res["backend"],
                                  res["osu_entries"])
            if got != key:
                run.failures.append(f"{name}: asked {key}, got {got}")
                continue
            record = common.result_record(res["stats"], res["energy"])
            run.check(key, record, f"{name}, {where}")
            fresh.setdefault(key, {"key": key, "record": record,
                                   "timings": res["timings"],
                                   "jit": common.jit_summary(res["jit"])})
    return fresh


def latencies(run: Run, out: dict) -> List[float]:
    """Per job, due time to terminal state; failed or refused jobs count
    as infinitely late so they miss every limit."""
    return [j["latency_s"] if j.get("status") == "done" else float("inf")
            for j in out["jobs"]]


def workload_service(run: Run) -> None:
    plan = service_plan(run)
    plan_path = os.path.join(run.work_dir, "plan.json")
    with open(plan_path, "w") as fh:
        json.dump(plan, fh)
    out = loadgen(run, plan_path, False, True, run.wcfg["extra_boots"], len(plan))
    if out is None:
        raise SetupError("the load generator produced no result")
    run.setups.extend(out["boot_s"])
    fresh = check_service(run, out)
    e2e_sim(run, list(fresh.values()))
    service_e2e(run, out)


def service_e2e(run: Run, out: dict) -> None:
    lat = latencies(run, out)
    limit = run.wcfg["latency_limit_s"]
    for q in (0.5, 0.9):
        run.metric(run.e2e, f"job_latency_s_p{round(q * 100)}",
                   common.percentile(lat, q), "s", len(lat))
    run.metric(run.e2e, "within_limit_frac",
               sum(1 for x in lat if x <= limit) / len(lat), "fraction",
               len(lat))
    check_lag(run, out)


def check_lag(run: Run, out: dict) -> None:
    """A run whose load generator fell behind its schedule did not offer
    the planned load: mark it invalid."""
    lag = [j["lag_s"] for j in out["jobs"] if "lag_s" in j]
    if max(lag) > run.wcfg["lag_bound_s"]:
        run.notes.append(
            f"INVALID RUN: load generator ran {max(lag):.3f} s late, bound "
            f"{run.wcfg['lag_bound_s']} s")


# -- reporting ---------------------------------------------------------------------


def finish_e2e(run: Run) -> None:
    run.metric(run.e2e, "setup_s", statistics.median(run.setups), "s",
               len(run.setups))
    run.metric(run.e2e, "peak_rss_mb", statistics.median(run.rss_kb) / 1024.0,
               "MB", len(run.rss_kb))
    run.metric(run.e2e, "failed_frac",
               len(run.failures) / max(1, run.attempted), "fraction",
               run.attempted)
    run.metric(run.e2e, "host_probe_ms", statistics.median(run.probes) * 1000.0,
               "ms", len(run.probes))


def trend_lists(metrics: Dict[str, dict], directions: Dict[str, str]):
    """``customBiggerIsBetter`` / ``customSmallerIsBetter`` name/unit/value
    lists (github-action-benchmark's custom tools)."""
    bigger, smaller = [], []
    for name, m in sorted(metrics.items()):
        entry = {"name": name, "unit": m["unit"], "value": m["value"]}
        (bigger if directions.get(name) == "higher" else smaller).append(entry)
    return bigger, smaller


def benchmark_spec() -> dict:
    return common.load_json(common.ROOT / "BENCHMARK.json")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=None,
                    help="default: the seed recorded in perfbench/config.json")
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (common.SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {common.SRC}", file=sys.stderr)
        return 2
    cfg = common.load_json(common.CONFIG_PATH)
    seed = cfg["seeds"]["default"] if args.seed is None else args.seed
    spec = benchmark_spec()
    reference = common.load_reference()
    OUT_ROOT.mkdir(exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="work-", dir=str(OUT_ROOT))
    load_before = os.getloadavg()
    run = Run(args.workload, seed, args.seconds, cfg, reference, work_dir)
    try:
        if args.trace:
            from traced import traced_run

            traced_run(run)
        else:
            {"sim-baseline": workload_inproc, "sim-storage": workload_inproc,
             "grid-parallel": workload_grid,
             "service-mixed": workload_service}[args.workload](run)
            finish_e2e(run)
    except (SetupError, common.TooFewSamples) as err:
        # Failed operations explain a missing metric: report them below.
        # Without any, the checkout cannot run the benchmark at all.
        if not run.failures:
            print(f"perfbench: {err}", file=sys.stderr)
            return 2
        run.notes.append(f"metrics incomplete: {err}")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    table = run.layer if args.trace else run.e2e
    directions = {m["name"]: m["better"]
                  for m in spec["end_to_end"] + spec["per_layer"]}
    missing = [n for n in wanted if n not in table]
    if missing and not run.failures:
        print(f"perfbench: no value for {', '.join(missing)}", file=sys.stderr)
        return 2
    correct = not run.failures
    report = {
        "workload": args.workload, "seed": seed, "seconds": args.seconds,
        "trace": args.trace, "host": host_info(),
        "env": {k: v for k, v in run.env.items()
                if k.startswith(("REPRO_", "PYTHON"))},
        "loadavg_before": load_before, "loadavg_after": os.getloadavg(),
        "attempted": run.attempted, "failed": len(run.failures),
        "failures": run.failures[:50], "notes": run.notes,
        "hash_seeds": run.hash_seeds,
        "valid": not any(n.startswith("INVALID") for n in run.notes),
        "metrics": table,
        "setup_samples_s": run.setups,
        "samples": run.samples,
    }
    out_dir = OUT_ROOT / args.workload
    out_dir.mkdir(exist_ok=True)
    suffix = f"trace{args.trace}"
    with open(out_dir / f"report-{suffix}.json", "w") as fh:
        json.dump(report, fh, indent=1)
    bigger, smaller = trend_lists(table, directions)
    with open(out_dir / f"trend-bigger-{suffix}.json", "w") as fh:
        json.dump(bigger, fh, indent=1)
    with open(out_dir / f"trend-smaller-{suffix}.json", "w") as fh:
        json.dump(smaller, fh, indent=1)
    if args.trace:
        with open(out_dir / "trace.json", "w") as fh:
            json.dump(common.chrome_trace(run.spans), fh)

    print(f"perfbench {args.workload} seed={seed} seconds={args.seconds:g} "
          f"trace={args.trace} nproc={os.cpu_count()} "
          f"python={platform.python_version()}")
    for name, m in sorted(table.items()):
        n = "" if m["n"] is None else f"  (n={m['n']})"
        print(f"  {name:40s} {m['value']:14.6g} {m['unit']}{n}")
    for note in run.notes:
        print(f"  {note}")
    for problem in run.failures[:10]:
        print(f"  FAILED: {problem}")
    print(f"  report: {out_dir / f'report-{suffix}.json'}")
    print(json.dumps({
        "correct": correct, "attempted": max(1, run.attempted),
        "failed": len(run.failures),
        "metrics": {n: {"value": table[n]["value"], "unit": table[n]["unit"]}
                    for n in wanted if n in table},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
