"""Suite runner: execute (benchmark x backend x configuration) and memoize.

Every evaluation figure draws on the same grid of simulation runs, so the
runner memoizes results in-process, persists them in a content-addressed
on-disk cache (:mod:`repro.harness.cache` — a warm re-run of the full
figure suite is near-instant), and can fan independent runs out over worker
processes (:mod:`repro.harness.parallel`, via :meth:`SuiteRunner.run_grid`).
Backends:

* ``baseline`` — full 2048-entry RF, GTO scheduler.
* ``rfh``      — register-file hierarchy, two-level scheduler (required by
  the technique, and the source of its slowdown).
* ``rfv``      — register-file virtualization, half-size physical RF.
* ``regless``  — the paper's design (512 OSU entries by default).
* ``regless-nc`` — RegLess without the compressor (Figure 16 ablation).
"""

from __future__ import annotations

import gc
import pickle
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..compiler.pipeline import CompiledKernel, compile_kernel
from ..energy.model import EnergyBreakdown, EnergyModel
from ..obs.metrics import MetricsRegistry
from ..regfile import BaselineRF, RFHStorage, RFVStorage
from ..regfile.base import OperandStorage
from ..regless import ReglessConfig, ReglessStorage
from ..sim.config import GPUConfig
from ..sim.gpu import SimStats, run_simulation
from ..sim.watchdog import SimulationHang, Watchdog, WatchdogConfig
from ..workloads import Workload, make_workload, workload_names
from .cache import ResultCache, cache_enabled, run_digest
from .parallel import (
    FaultPolicy,
    GridFailure,
    RunOutcome,
    RunRequest,
    resolve_jobs,
    run_requests,
    run_requests_resilient,
)

__all__ = ["BACKENDS", "RunResult", "RunRequest", "SuiteRunner"]

BACKENDS = ("baseline", "rfh", "rfv", "regless")

#: anything :meth:`SuiteRunner.run_grid` accepts as one grid cell.
RequestLike = Union[RunRequest, Tuple, Dict]


@dataclass
class RunResult:
    """One simulation run plus its energy accounting."""

    benchmark: str
    backend: str
    osu_entries: int
    stats: SimStats
    compiled: CompiledKernel = field(repr=False)
    energy: EnergyBreakdown = field(repr=False)
    #: per-phase wall-clock seconds: ``compile`` / ``simulate`` / ``energy``
    #: / ``total`` (and ``cache_load`` when served from the disk cache).
    timings: Dict[str, float] = field(default_factory=dict, repr=False)
    #: region-JIT observability (``sm0.shard1.jit.*`` paths; empty when the
    #: run predates the JIT or came from an old cache entry — read with
    #: ``getattr(result, "jit", {})`` when the result may be unpickled).
    jit: Dict[str, object] = field(default_factory=dict, repr=False)

    @property
    def cycles(self) -> int:
        return self.stats.cycles

    @property
    def rf_energy(self) -> float:
        return self.energy.rf

    @property
    def gpu_energy(self) -> float:
        return self.energy.total


class SuiteRunner:
    """Runs and memoizes the benchmark/backend grid.

    ``cache`` selects the persistent result store: ``None`` uses the
    default location unless ``REPRO_CACHE=0``; ``False`` disables it; a
    :class:`~repro.harness.cache.ResultCache` uses that store.  ``jobs``
    is the default worker count for :meth:`run_grid` (``None`` defers to
    ``REPRO_JOBS`` / CPU count at call time).

    ``watchdog`` (a :class:`~repro.sim.watchdog.WatchdogConfig`) attaches
    a fresh forward-progress monitor to every simulation this runner
    executes — in-process and in workers alike.  ``policy`` (a
    :class:`~repro.harness.parallel.FaultPolicy`) makes :meth:`run_grid`
    resilient: per-run timeouts, retries with backoff, dead-worker
    recovery, quarantine.  Harness-level events (cache evictions, grid
    retries/failures) land in ``self.metrics`` under ``harness.*``.
    """

    def __init__(
        self,
        config: Optional[GPUConfig] = None,
        energy_model: Optional[EnergyModel] = None,
        cache: Union[ResultCache, bool, None] = None,
        jobs: Optional[int] = None,
        watchdog: Optional[WatchdogConfig] = None,
        policy: Optional[FaultPolicy] = None,
    ):
        self.base_config = config or GPUConfig()
        self.energy_model = energy_model or EnergyModel()
        if cache is None:
            self.cache: Optional[ResultCache] = (
                ResultCache() if cache_enabled() else None
            )
        elif cache is False:
            self.cache = None
        elif cache is True:
            self.cache = ResultCache()
        else:
            self.cache = cache
        self.jobs = jobs
        self.watchdog = watchdog
        self.policy = policy
        #: harness-level observability (``harness.cache.*``,
        #: ``harness.grid.*``) — distinct from per-run simulation metrics.
        self.metrics = MetricsRegistry()
        self._metrics_scope = self.metrics.scope("harness")
        if self.cache is not None:
            self.cache.metrics = self._metrics_scope.scope("cache")
        self._workloads: Dict[str, Workload] = {}
        self._compiled: Dict[str, CompiledKernel] = {}
        self._kernel_bytes: Dict[str, bytes] = {}
        self._runs: Dict[Tuple, RunResult] = {}

    # -- building blocks -------------------------------------------------------

    def workload(self, name: str) -> Workload:
        if name not in self._workloads:
            self._workloads[name] = make_workload(name)
        return self._workloads[name]

    def compiled(self, name: str) -> CompiledKernel:
        if name not in self._compiled:
            self._compiled[name] = compile_kernel(self.workload(name).kernel())
        return self._compiled[name]

    def kernel_bytes(self, name: str) -> bytes:
        """Serialized compiled kernel: the cache-key ingredient that makes
        compiler changes invalidate stored results."""
        if name not in self._kernel_bytes:
            self._kernel_bytes[name] = pickle.dumps(
                self.compiled(name), protocol=pickle.HIGHEST_PROTOCOL
            )
        return self._kernel_bytes[name]

    def config_for(self, backend: str, **overrides) -> GPUConfig:
        cfg = self.base_config
        if backend in ("rfh", "rfv"):
            # Both prior techniques are evaluated with the two-level warp
            # scheduler they were designed around (paper section 6.4).
            cfg = cfg.with_(scheduler="two_level")
        if overrides:
            cfg = cfg.with_(**overrides)
        return cfg

    def storage_factory(
        self,
        backend: str,
        compiled: CompiledKernel,
        osu_entries: int = 512,
    ) -> Callable[[int, int], OperandStorage]:
        if backend == "baseline":
            return lambda sm, sh: BaselineRF()
        if backend == "rfh":
            return lambda sm, sh: RFHStorage(compiled)
        if backend == "rfv":
            return lambda sm, sh: RFVStorage(compiled)
        if backend == "regless":
            rcfg = ReglessConfig(osu_entries_per_sm=osu_entries)
            return lambda sm, sh: ReglessStorage(compiled, rcfg)
        if backend == "regless-nc":
            rcfg = ReglessConfig(
                osu_entries_per_sm=osu_entries, compressor_enabled=False
            )
            return lambda sm, sh: ReglessStorage(compiled, rcfg)
        raise ValueError(f"unknown backend {backend!r}")

    # -- keys ------------------------------------------------------------------

    @staticmethod
    def _memo_key(request: RunRequest) -> Tuple:
        return (
            request.benchmark,
            request.backend,
            request.osu_entries,
            request.window_series,
            request.overrides,
        )

    def _digest(self, request: RunRequest) -> str:
        cfg = self.config_for(request.backend, **dict(request.overrides))
        workload = self.workload(request.benchmark)
        return run_digest(
            config=cfg,
            backend=request.backend,
            osu_entries=request.osu_entries,
            workload_name=request.benchmark,
            workload_seed=workload.seed,
            kernel_bytes=self.kernel_bytes(request.benchmark),
            energy_params=self.energy_model.params,
            window_series=request.window_series,
        )

    def _install(self, request: RunRequest, result: RunResult,
                 store: bool = True) -> RunResult:
        self._runs[self._memo_key(request)] = result
        self._compiled.setdefault(request.benchmark, result.compiled)
        if store and self.cache is not None:
            self.cache.put(self._digest(request), result)
        return result

    # -- main entry points ----------------------------------------------------

    def run(
        self,
        benchmark: str,
        backend: str,
        osu_entries: int = 512,
        window_series: Tuple[str, ...] = (),
        **config_overrides,
    ) -> RunResult:
        request = RunRequest.make(
            benchmark, backend, osu_entries, window_series, **config_overrides
        )
        key = self._memo_key(request)
        if key in self._runs:
            return self._runs[key]
        if backend not in BACKENDS + ("regless-nc",):
            raise ValueError(f"unknown backend {backend!r}")
        if self.cache is not None:
            t0 = time.perf_counter()
            cached = self.cache.get(self._digest(request))
            if cached is not None:
                cached.timings["cache_load"] = time.perf_counter() - t0
                return self._install(request, cached, store=False)
        return self._install(request, self._execute(request))

    def _execute(self, request: RunRequest) -> RunResult:
        """Compile + simulate + account energy, with per-phase timings."""
        t_start = time.perf_counter()
        workload = self.workload(request.benchmark)
        compiled = self.compiled(request.benchmark)
        t_compiled = time.perf_counter()
        cfg = self.config_for(request.backend, **dict(request.overrides))
        factory = self.storage_factory(
            request.backend, compiled, request.osu_entries
        )
        # The simulator allocates millions of short-lived objects and keeps
        # no reference cycles; pausing the cyclic GC for the run avoids
        # collector sweeps interrupting the hot loop.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        # A watchdog holds per-run progress state, so every run gets a
        # fresh one built from the runner's config.
        watchdog = Watchdog(self.watchdog) if self.watchdog else None
        jit_out: Dict[str, object] = {}
        try:
            stats = run_simulation(
                cfg, compiled, workload, factory,
                window_series=request.window_series,
                watchdog=watchdog,
                jit_out=jit_out,
            )
        finally:
            if gc_was_enabled:
                gc.enable()
        t_simulated = time.perf_counter()
        model_backend = (
            "regless" if request.backend == "regless-nc" else request.backend
        )
        energy = self.energy_model.gpu_energy(
            stats.counters, stats.cycles, model_backend,
            osu_entries=request.osu_entries,
        )
        t_done = time.perf_counter()
        return RunResult(
            benchmark=request.benchmark,
            backend=request.backend,
            osu_entries=request.osu_entries,
            stats=stats,
            compiled=compiled,
            energy=energy,
            timings={
                "compile": t_compiled - t_start,
                "simulate": t_simulated - t_compiled,
                "energy": t_done - t_simulated,
                "total": t_done - t_start,
            },
            jit=jit_out,
        )

    # -- grid execution --------------------------------------------------------

    @staticmethod
    def _normalize(request: RequestLike) -> RunRequest:
        if isinstance(request, RunRequest):
            return request
        if isinstance(request, dict):
            return RunRequest.make(**request)
        return RunRequest.make(*request)

    def run_grid(
        self,
        requests: Iterable[RequestLike],
        jobs: Optional[int] = None,
    ) -> List[RunResult]:
        """Run every grid cell, fanning cache misses out over workers.

        ``requests`` may mix :class:`RunRequest` objects,
        ``(benchmark, backend[, osu_entries])`` tuples, and keyword dicts.
        Results come back in request order and are memoized exactly as if
        produced by :meth:`run`, so follow-up serial :meth:`run` calls are
        hits.  With one effective worker (or one miss) execution stays
        in-process.

        When the runner has a ``policy`` or ``watchdog``, execution goes
        through :meth:`run_grid_outcomes`; completed runs are installed in
        the memo/cache even when others fail, and a
        :class:`~repro.harness.parallel.GridFailure` carrying every
        per-run :class:`~repro.harness.parallel.RunOutcome` is raised if
        any request could not complete.
        """
        if self.policy is not None or self.watchdog is not None:
            outcomes = self.run_grid_outcomes(requests, jobs=jobs)
            if any(not o.ok for o in outcomes):
                raise GridFailure(outcomes)
            return [o.result for o in outcomes]  # type: ignore[misc]
        reqs = [self._normalize(r) for r in requests]
        for req in reqs:  # validate backends before any dispatch
            if req.backend not in BACKENDS + ("regless-nc",):
                raise ValueError(f"unknown backend {req.backend!r}")
        results: Dict[int, RunResult] = {}
        pending: List[Tuple[int, RunRequest]] = []
        seen: Dict[RunRequest, int] = {}
        for i, req in enumerate(reqs):
            key = self._memo_key(req)
            if key in self._runs:
                results[i] = self._runs[key]
                continue
            if self.cache is not None:
                t0 = time.perf_counter()
                cached = self.cache.get(self._digest(req))
                if cached is not None:
                    cached.timings["cache_load"] = time.perf_counter() - t0
                    results[i] = self._install(req, cached, store=False)
                    continue
            if req in seen:  # duplicate miss: run once
                pending.append((i, req))
                continue
            seen[req] = i
            pending.append((i, req))

        unique = [(i, req) for i, req in pending if seen.get(req) == i]
        jobs = resolve_jobs(jobs if jobs is not None else self.jobs)
        if unique:
            if jobs <= 1 or len(unique) == 1:
                for _, req in unique:
                    self._install(req, self._execute(req))
            else:
                outs = run_requests(
                    self.base_config,
                    self.energy_model.params,
                    [req for _, req in unique],
                    jobs=jobs,
                )
                for (_, req), result in zip(unique, outs):
                    self._install(req, result)
        for i, req in pending:
            results[i] = self._runs[self._memo_key(req)]
        return [results[i] for i in range(len(reqs))]

    def run_grid_outcomes(
        self,
        requests: Iterable[RequestLike],
        jobs: Optional[int] = None,
        on_outcome: Optional[Callable[[int, RunOutcome], None]] = None,
    ) -> List[RunOutcome]:
        """Resilient grid execution: one terminal
        :class:`~repro.harness.parallel.RunOutcome` per request, never an
        exception for per-run failures.

        Memo/cache hits come back as ``ok`` outcomes with zero attempts;
        misses run under the runner's fault policy (timeouts, retries,
        quarantine — see :func:`~repro.harness.parallel.run_requests_resilient`)
        and the runner's watchdog config.  Successful runs are installed
        in the memo and disk cache regardless of how the rest of the grid
        fared, so partial results always survive.

        ``on_outcome(index, outcome)`` fires the moment each request
        reaches its terminal outcome — hits immediately, executed runs as
        they complete (out of request order), duplicates when their
        primary resolves.  Successful results are already installed in
        the memo/disk cache by the time the callback sees them, so a
        streaming consumer observes the same state a later ``run`` would.
        """
        reqs = [self._normalize(r) for r in requests]
        for req in reqs:
            if req.backend not in BACKENDS + ("regless-nc",):
                raise ValueError(f"unknown backend {req.backend!r}")
        deliver = on_outcome if on_outcome is not None else (lambda i, o: None)
        outcomes: Dict[int, RunOutcome] = {}
        pending: List[Tuple[int, RunRequest]] = []
        seen: Dict[RunRequest, int] = {}
        pending_by_req: Dict[RunRequest, List[int]] = {}
        for i, req in enumerate(reqs):
            key = self._memo_key(req)
            if key in self._runs:
                outcomes[i] = RunOutcome(req, RunOutcome.OK, self._runs[key])
                deliver(i, outcomes[i])
                continue
            if self.cache is not None:
                t0 = time.perf_counter()
                cached = self.cache.get(self._digest(req))
                if cached is not None:
                    cached.timings["cache_load"] = time.perf_counter() - t0
                    result = self._install(req, cached, store=False)
                    outcomes[i] = RunOutcome(req, RunOutcome.OK, result)
                    deliver(i, outcomes[i])
                    continue
            if req not in seen:
                seen[req] = i
            pending.append((i, req))
            pending_by_req.setdefault(req, []).append(i)

        unique = [(i, req) for i, req in pending if seen.get(req) == i]
        jobs_n = resolve_jobs(jobs if jobs is not None else self.jobs)
        by_req: Dict[RunRequest, RunOutcome] = {}

        def resolve(req: RunRequest, out: RunOutcome) -> None:
            if out.ok and out.result is not None:
                self._install(req, out.result)
            by_req[req] = out
            for i in pending_by_req[req]:
                deliver(i, out)

        if unique:
            if jobs_n <= 1 or len(unique) == 1:
                for _, req in unique:
                    resolve(req, self._execute_resilient(req))
            else:
                unique_reqs = [req for _, req in unique]
                run_requests_resilient(
                    self.base_config,
                    self.energy_model.params,
                    unique_reqs,
                    jobs=jobs_n,
                    policy=self.policy,
                    watchdog=self.watchdog,
                    metrics=self._metrics_scope,
                    on_outcome=lambda pos, out: resolve(unique_reqs[pos], out),
                )
        for i, req in pending:
            outcomes[i] = by_req[req]
        return [outcomes[i] for i in range(len(reqs))]

    def _execute_resilient(self, request: RunRequest) -> RunOutcome:
        """In-process counterpart of the resilient worker loop (used when
        the grid stays serial).  A hang is only catchable here if the
        watchdog converts it into :class:`SimulationHang`; worker kills
        obviously can't be survived in-process."""
        policy = self.policy or FaultPolicy()
        scope = self._metrics_scope
        attempts = 0
        last_error = ""
        last_diagnostics = None
        while True:
            attempts += 1
            try:
                result = self._execute(request)
            except SimulationHang as exc:
                kind, last_error = RunOutcome.HUNG, str(exc)
                last_diagnostics = exc.diagnostics
            except Exception as exc:  # noqa: BLE001
                kind = RunOutcome.CRASHED
                last_error = f"{type(exc).__name__}: {exc}"
            else:
                scope.inc("grid.ok")
                return RunOutcome(
                    request, RunOutcome.OK, result, attempts, attempts - 1
                )
            scope.inc(f"grid.failure_{kind}")
            if attempts > policy.retries:
                scope.inc(f"grid.{kind}")
                return RunOutcome(
                    request, kind, None, attempts, attempts - 1, last_error,
                    diagnostics=last_diagnostics,
                )
            if attempts >= policy.quarantine_after:
                scope.inc("grid.quarantined")
                return RunOutcome(
                    request, RunOutcome.QUARANTINED, None, attempts,
                    attempts - 1, last_error, diagnostics=last_diagnostics,
                )
            scope.inc("grid.retries")
            time.sleep(policy.delay(request.key, attempts))

    def prefetch(
        self,
        names: Optional[Sequence[str]] = None,
        backends: Sequence[str] = BACKENDS,
        osu_entries: Sequence[int] = (512,),
        window_series: Tuple[str, ...] = (),
        jobs: Optional[int] = None,
        **config_overrides,
    ) -> List[RunResult]:
        """Warm the (benchmark x backend x capacity) grid in parallel."""
        requests = [
            RunRequest.make(
                name, backend, entries, window_series, **config_overrides
            )
            for name in (list(names) if names else workload_names())
            for backend in backends
            for entries in osu_entries
        ]
        return self.run_grid(requests, jobs=jobs)

    def no_rf_energy(self, benchmark: str) -> float:
        """The "No RF" upper bound (Figure 15): baseline timing with a
        register file that consumes no energy."""
        base = self.run(benchmark, "baseline")
        return base.gpu_energy - base.rf_energy
