"""Parallel fan-out of simulation-grid runs over worker processes.

The evaluation grid — (benchmark x backend x OSU capacity) — is
embarrassingly parallel: every run is an independent cycle-level
simulation.  :func:`run_requests_resilient` executes a batch of
:class:`RunRequest`\\ s on a :class:`~concurrent.futures.ProcessPoolExecutor`
and returns one :class:`RunOutcome` per request, in request order.

Each worker process holds one private
:class:`~repro.harness.runner.SuiteRunner` (disk cache off — the parent
coordinates the cache), so compiled kernels and workloads are reused across
the runs a worker receives.

Worker count resolution order: explicit argument, then ``REPRO_JOBS``, then
``os.cpu_count()``.

Fault tolerance
---------------

:func:`run_requests_resilient` survives the three failure classes a long
sweep actually hits:

* **Worker death** (OOM kill, segfault, injected ``kill``) — the pool
  raises :class:`~concurrent.futures.process.BrokenProcessPool` on *every*
  in-flight future, so the culprit is unattributable; each in-flight run
  is charged one crashed attempt (documented over-charging beats losing
  the sweep) and the pool is rebuilt.
* **Run hangs** (livelock, injected ``hang``) — a per-run deadline; on
  expiry the whole pool is killed (a future can't be cancelled once
  running), expired runs are charged a hung attempt, and *innocent*
  in-flight runs are requeued uncharged.
* **Ordinary crashes** (exceptions, incl. :class:`SimulationHang` from an
  in-worker watchdog) — retried in place; the pool survives.

Retries back off exponentially with deterministic jitter (hash of the
request key and attempt number — reproducible, yet de-synchronized across
requests).  A request whose failures reach ``quarantine_after`` while
budget remains is **quarantined** — stops burning retries on a run that
keeps killing workers.  The sweep always completes: every request ends in
exactly one :class:`RunOutcome` (``ok`` / ``hung`` / ``crashed`` /
``quarantined``) and partial results survive.
"""

from __future__ import annotations

import hashlib
import heapq
import os
import time
import traceback
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor
from concurrent.futures import wait as futures_wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    TYPE_CHECKING,
)

from ..sim.watchdog import SimulationHang, WatchdogConfig

if TYPE_CHECKING:  # pragma: no cover
    from ..energy.model import EnergyParams
    from ..obs.metrics import MetricScope
    from ..sim.config import GPUConfig
    from .runner import RunResult, SuiteRunner

__all__ = [
    "FaultPolicy",
    "GridFailure",
    "RunOutcome",
    "RunRequest",
    "failure_text",
    "resolve_jobs",
    "run_requests_resilient",
]


@dataclass(frozen=True)
class RunRequest:
    """One cell of the simulation grid, in picklable/hashable form."""

    benchmark: str
    backend: str
    osu_entries: int = 512
    window_series: Tuple[str, ...] = ()
    #: sorted ``GPUConfig`` override items (e.g. ``(("scheduler", "lrr"),)``).
    overrides: Tuple[Tuple[str, Any], ...] = ()

    @classmethod
    def make(
        cls,
        benchmark: str,
        backend: str,
        osu_entries: int = 512,
        window_series: Sequence[str] = (),
        **overrides: Any,
    ) -> "RunRequest":
        return cls(
            benchmark=benchmark,
            backend=backend,
            osu_entries=osu_entries,
            window_series=tuple(window_series),
            overrides=tuple(sorted(overrides.items())),
        )

    @property
    def key(self) -> str:
        """The ``benchmark/backend`` form fault specs match against.

        This is a *grouping* key (several grid cells share it); the full
        per-cell identity is :attr:`identity`.
        """
        return f"{self.benchmark}/{self.backend}"

    @property
    def identity(self) -> str:
        """Content digest over every request field.

        Two requests are the same run iff their identities match, and the
        digest is stable across pickling and process boundaries — the
        invariant the service's cross-client admission dedupe relies on
        (equal identities collapse to one execution)."""
        h = hashlib.sha256()
        h.update(repr((
            self.benchmark,
            self.backend,
            int(self.osu_entries),
            tuple(self.window_series),
            tuple(self.overrides),
        )).encode())
        return h.hexdigest()


@dataclass(frozen=True)
class FaultPolicy:
    """Retry/timeout budget for one resilient grid sweep.

    ``retries`` counts *re*-tries: a request runs at most ``retries + 1``
    times.  ``quarantine_after`` failures stop a request early even with
    retry budget left (a poison run that keeps killing workers must not
    stall the whole sweep).  ``timeout`` is the per-run wall-clock
    deadline in seconds (``None`` disables hang detection).
    """

    timeout: Optional[float] = None
    retries: int = 2
    backoff: float = 0.25
    backoff_cap: float = 4.0
    quarantine_after: int = 3

    def delay(self, key: str, attempt: int) -> float:
        """Exponential backoff with deterministic per-request jitter."""
        base = min(self.backoff_cap, self.backoff * (2 ** max(0, attempt - 1)))
        digest = hashlib.sha256(f"{key}:{attempt}".encode()).digest()
        jitter = digest[0] / 255.0 * 0.25  # up to +25%
        return base * (1.0 + jitter)


@dataclass
class RunOutcome:
    """Terminal fate of one grid request under the resilient runner."""

    OK = "ok"
    HUNG = "hung"
    CRASHED = "crashed"
    QUARANTINED = "quarantined"

    request: RunRequest
    status: str
    result: Optional["RunResult"] = None
    attempts: int = 0
    retried: int = 0
    error: str = ""
    #: the watchdog's JSON-safe hang snapshot (dominant shard, stall
    #: bins, CM admission state) for ``hung`` outcomes; ``None`` otherwise.
    diagnostics: Optional[Dict[str, Any]] = None

    @property
    def ok(self) -> bool:
        return self.status == self.OK


class GridFailure(RuntimeError):
    """A resilient sweep finished with at least one non-``ok`` outcome.

    Partial results are preserved: ``outcomes`` holds every request's
    :class:`RunOutcome` in request order.
    """

    def __init__(self, outcomes: Sequence[RunOutcome]):
        self.outcomes = list(outcomes)
        self.failed = [o for o in self.outcomes if not o.ok]
        parts = ", ".join(
            f"{o.request.key}={o.status}" for o in self.failed[:6]
        )
        more = "" if len(self.failed) <= 6 else f" (+{len(self.failed) - 6} more)"
        first = self.failed[0] if self.failed else None
        error = f"; first error: {first.error}" if first and first.error else ""
        super().__init__(
            f"{len(self.failed)}/{len(self.outcomes)} grid runs failed: "
            f"{parts}{more}{error}"
        )


def failure_text(exc: BaseException) -> str:
    """A crashed run's :attr:`RunOutcome.error`: the full traceback,
    ending in the ``Type: message`` line.  An exception re-raised from a
    worker carries the worker's traceback as its cause, so the text names
    the place the fault was raised on both the pooled and serial paths."""
    return "".join(
        traceback.format_exception(type(exc), exc, exc.__traceback__)
    ).rstrip()


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Worker count: explicit argument > ``REPRO_JOBS`` > CPU count."""
    if jobs is not None:
        return max(1, int(jobs))
    env = os.environ.get("REPRO_JOBS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return os.cpu_count() or 1


# -- worker side ------------------------------------------------------------

_WORKER_RUNNER: Optional["SuiteRunner"] = None


def _init_worker(
    config: "GPUConfig",
    energy_params: "EnergyParams",
    watchdog: Optional[WatchdogConfig] = None,
) -> None:
    global _WORKER_RUNNER
    from ..energy.model import EnergyModel
    from .runner import SuiteRunner

    _WORKER_RUNNER = SuiteRunner(
        config=config,
        energy_model=EnergyModel(energy_params),
        cache=False,
        watchdog=watchdog,
    )


def _run_request(request: RunRequest) -> "RunResult":
    assert _WORKER_RUNNER is not None, "worker not initialized"
    if os.environ.get("REPRO_FAULTS"):
        from .faults import maybe_fire

        maybe_fire(request.key)
    return _WORKER_RUNNER.run(
        request.benchmark,
        request.backend,
        osu_entries=request.osu_entries,
        window_series=request.window_series,
        **dict(request.overrides),
    )


# -- parent side ------------------------------------------------------------


@dataclass
class _Tracked:
    request: RunRequest
    attempts: int = 0
    failures: int = 0
    last_error: str = ""
    last_diagnostics: Optional[Dict[str, Any]] = None
    outcome: Optional[RunOutcome] = None


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Terminate every worker and abandon the pool (its in-flight futures
    will resolve to :class:`BrokenProcessPool`; we no longer hold them)."""
    processes = getattr(pool, "_processes", None) or {}
    for proc in list(processes.values()):
        proc.terminate()
    pool.shutdown(wait=False, cancel_futures=True)


def run_requests_resilient(
    config: "GPUConfig",
    energy_params: "EnergyParams",
    requests: Sequence[RunRequest],
    jobs: Optional[int] = None,
    policy: Optional[FaultPolicy] = None,
    watchdog: Optional[WatchdogConfig] = None,
    metrics: Optional["MetricScope"] = None,
    sleep: Callable[[float], None] = time.sleep,
    clock: Callable[[], float] = time.monotonic,
    on_outcome: Optional[Callable[[int, RunOutcome], None]] = None,
) -> List[RunOutcome]:
    """Run the grid with timeouts, retries, and dead-worker recovery.

    Never raises for per-run failures: every request terminates in a
    :class:`RunOutcome` (request order).  ``metrics`` (a
    :class:`~repro.obs.metrics.MetricScope`) receives ``grid.*`` failure
    events.  ``sleep``/``clock`` are injectable for tests.

    Identical requests (equal :class:`RunRequest` fields, hence equal
    :attr:`RunRequest.identity`) **dedupe to one execution**: only the
    first occurrence is submitted, and every duplicate receives its own
    :class:`RunOutcome` sharing the executed result (``grid.deduped`` is
    emitted per duplicate).

    ``on_outcome`` is called as ``on_outcome(index, outcome)`` the moment
    a request reaches its terminal outcome — out of request order, from
    the calling thread.  This is the streaming hook the async service
    layer bridges onto an event loop; callbacks must not block.
    """
    policy = policy or FaultPolicy()
    n = len(requests)
    if n == 0:
        return []
    tracked = [_Tracked(req) for req in requests]
    # Dedupe identical requests: the first occurrence is the primary and
    # the only one executed; duplicates fan in at finalize time.
    primary_of: Dict[RunRequest, int] = {}
    duplicates: Dict[int, List[int]] = {}
    primaries: List[int] = []
    for i, req in enumerate(requests):
        first = primary_of.setdefault(req, i)
        if first == i:
            primaries.append(i)
        else:
            duplicates.setdefault(first, []).append(i)
    jobs = min(resolve_jobs(jobs), len(primaries))
    queue: deque = deque(primaries)  # indices ready to submit now
    waiting: List[Tuple[float, int]] = []  # (eligible_at, index) backoff heap
    inflight: Dict[Any, Tuple[int, Optional[float]]] = {}  # fut -> (idx, deadline)
    done_count = 0

    def emit(name: str, amount: float = 1.0) -> None:
        if metrics is not None:
            metrics.inc(name, amount)

    def make_pool() -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=jobs,
            initializer=_init_worker,
            initargs=(config, energy_params, watchdog),
        )

    def finalize(idx: int, status: str, result=None) -> None:
        nonlocal done_count
        t = tracked[idx]
        diagnostics = t.last_diagnostics if status != RunOutcome.OK else None
        t.outcome = RunOutcome(
            request=t.request,
            status=status,
            result=result,
            attempts=t.attempts,
            retried=max(0, t.attempts - 1),
            error=t.last_error,
            diagnostics=diagnostics,
        )
        done_count += 1
        emit(f"grid.{status}")
        if on_outcome is not None:
            on_outcome(idx, t.outcome)
        for dup in duplicates.get(idx, ()):
            d = tracked[dup]
            d.outcome = RunOutcome(
                request=d.request,
                status=status,
                result=result,
                attempts=t.attempts,
                retried=max(0, t.attempts - 1),
                error=t.last_error,
                diagnostics=diagnostics,
            )
            done_count += 1
            emit("grid.deduped")
            if on_outcome is not None:
                on_outcome(dup, d.outcome)

    def record_failure(idx: int, kind: str, error: str, now: float,
                       diagnostics: Optional[Dict[str, Any]] = None) -> None:
        t = tracked[idx]
        t.failures += 1
        t.last_error = error
        if diagnostics is not None:
            t.last_diagnostics = diagnostics
        emit(f"grid.failure_{kind}")
        if t.attempts > policy.retries:
            finalize(idx, kind)
        elif t.failures >= policy.quarantine_after:
            finalize(idx, RunOutcome.QUARANTINED)
        else:
            emit("grid.retries")
            eligible = now + policy.delay(t.request.key, t.attempts)
            heapq.heappush(waiting, (eligible, idx))

    pool = make_pool()
    try:
        while done_count < n:
            now = clock()
            while waiting and waiting[0][0] <= now:
                queue.append(heapq.heappop(waiting)[1])
            # Keep in-flight <= jobs so the submit timestamp approximates
            # the start timestamp — the per-run deadline then measures run
            # time, not queue time.
            while queue and len(inflight) < jobs:
                idx = queue.popleft()
                tracked[idx].attempts += 1
                fut = pool.submit(_run_request, requests[idx])
                deadline = (now + policy.timeout) if policy.timeout else None
                inflight[fut] = (idx, deadline)
            if not inflight:
                if waiting:
                    sleep(max(0.0, waiting[0][0] - clock()))
                    continue
                break  # defensive: nothing running, nothing waiting
            wait_for: List[float] = []
            deadlines = [d for (_, d) in inflight.values() if d is not None]
            if deadlines:
                wait_for.append(min(deadlines) - now)
            if waiting:
                wait_for.append(waiting[0][0] - now)
            timeout = max(0.0, min(wait_for)) if wait_for else None
            done, _ = futures_wait(
                set(inflight), timeout=timeout, return_when=FIRST_COMPLETED
            )
            now = clock()
            if done:
                broken = False
                for fut in done:
                    idx, _ = inflight.pop(fut)
                    try:
                        result = fut.result()
                    except BrokenProcessPool:
                        broken = True
                        record_failure(
                            idx, RunOutcome.CRASHED, "worker died (pool broken)",
                            now,
                        )
                    except SimulationHang as exc:
                        record_failure(idx, RunOutcome.HUNG, str(exc), now,
                                       diagnostics=exc.diagnostics)
                    except Exception as exc:  # noqa: BLE001
                        record_failure(idx, RunOutcome.CRASHED,
                                       failure_text(exc), now)
                    else:
                        finalize(idx, RunOutcome.OK, result)
                if broken:
                    # A dead worker poisons every in-flight future and the
                    # culprit is unattributable — charge them all rather
                    # than retry a possibly-poisonous run for free.
                    for doomed, (idx, _) in list(inflight.items()):
                        record_failure(
                            idx, RunOutcome.CRASHED,
                            "worker died (pool broken)", now,
                        )
                    inflight.clear()
                    pool.shutdown(wait=False, cancel_futures=True)
                    pool = make_pool()
                    emit("grid.pool_rebuilds")
                continue
            # No future finished before the wait timeout: check deadlines.
            expired = [
                (fut, idx)
                for fut, (idx, d) in inflight.items()
                if d is not None and d <= now and not fut.done()
            ]
            if not expired:
                continue
            expired_set = {fut for fut, _ in expired}
            # A running future can't be cancelled — kill the pool.  The
            # expired runs are charged; innocent in-flight runs requeue
            # with their attempt refunded.
            for fut, (idx, _) in list(inflight.items()):
                if fut in expired_set:
                    record_failure(
                        idx, RunOutcome.HUNG,
                        f"run exceeded {policy.timeout}s deadline", now,
                    )
                else:
                    tracked[idx].attempts -= 1
                    queue.append(idx)
            inflight.clear()
            _kill_pool(pool)
            pool = make_pool()
            emit("grid.pool_rebuilds")
            emit("grid.pool_kills")
    finally:
        pool.shutdown(wait=False, cancel_futures=True)
    outcomes = [t.outcome for t in tracked]
    assert all(o is not None for o in outcomes)
    return outcomes  # type: ignore[return-value]
