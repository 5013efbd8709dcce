"""Shared pieces of the perfbench runner.

Everything here is pure Python with no import of the simulator, so the
parent runner, its round processes and the self-tests can all use it:

* grid cells and their reference digests (``reference.json``);
* the percentile rule (a reported percentile needs ten samples beyond it);
* seeded plans — the only source of a run's inputs;
* the span log behind the traced run, with self times and Chrome-trace
  export.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import resource
import statistics
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE_PATH = BENCH_DIR / "reference.json"
CONFIG_PATH = BENCH_DIR / "config.json"

#: The storage configurations a seed can draw, as (backend, OSU entries).
#: Entries only matter to the RegLess backends; the others run at the
#: harness default of 512 so their cell keys match the golden grid.
STORAGE_CELLS: Tuple[Tuple[str, int], ...] = (
    ("baseline", 512),
    ("rfh", 512),
    ("rfv", 512),
    ("regless", 256),
    ("regless", 512),
    ("regless", 1024),
    ("regless-nc", 512),
)

#: The five backends at their paper configuration (the figure-suite grid).
PAPER_CELLS: Tuple[Tuple[str, int], ...] = (
    ("baseline", 512),
    ("rfh", 512),
    ("rfv", 512),
    ("regless", 512),
    ("regless-nc", 512),
)

#: The storage configurations from cheapest to dearest in host time per
#: simulated instruction, as measured when this benchmark was defined
#: (29, 30, 33, 49, 57, 58 and 85 us on a 2-core Xeon host).  Odd cycles
#: give each app the mirror of its configuration in the cycle before, so
#: every app's two cells together cost about the same whichever
#: configuration the seed drew (antithetic pairs); the order only needs to
#: stay roughly right for that.
COST_ORDER: Tuple[Tuple[str, int], ...] = (
    ("rfh", 512),
    ("baseline", 512),
    ("rfv", 512),
    ("regless", 1024),
    ("regless", 512),
    ("regless-nc", 512),
    ("regless", 256),
)

#: Samples a reported percentile needs beyond it.
MIN_TAIL = 10


def peak_rss_kb() -> int:
    """Largest resident set of this process and of every child it has
    reaped (their reaped children included), in KiB."""
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)


def load_json(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


# -- cells and references ----------------------------------------------------


def cell_key(benchmark: str, backend: str, entries: int = 512) -> str:
    return f"{benchmark}/{backend}@{int(entries)}"


def parse_cell(key: str) -> Tuple[str, str, int]:
    benchmark, rest = key.split("/", 1)
    backend, entries = rest.rsplit("@", 1)
    return benchmark, backend, int(entries)


def result_record(stats: Mapping, energy: Mapping) -> Dict[str, object]:
    """The simulated outcome of one cell in canonical form.

    ``stats`` is the wire form of a ``SimStats`` (``repro.service.schemas.
    stats_to_wire``: cycles, instructions, warp counts, ``finished``,
    counters, stall bins) and ``energy`` an ``EnergyBreakdown.as_dict()``.
    Numbers are normalised so an in-process result, a worker's pickled
    result and a JSON result from the service give the same record."""
    return {
        "cycles": int(stats["cycles"]),
        "instructions": int(stats["instructions"]),
        "warps_done": int(stats["warps_done"]),
        "warps_total": int(stats["warps_total"]),
        "finished": bool(stats["finished"]),
        "counters": {k: float(v) for k, v in sorted(stats["counters"].items())},
        "stalls": {k: int(v) for k, v in sorted(stats["stalls"].items())},
        "energy": {k: float(v) for k, v in sorted(energy.items())},
    }


def digest(record: Mapping) -> str:
    blob = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def check_cell(key: str, record: Mapping, reference: Mapping) -> Optional[str]:
    """Why this result is a failure, or ``None`` when it matches.

    An unfinished run, a run that did not retire every warp, and any
    difference from the committed reference digest are failures.  The few
    cells known to depend on Python's string-hash order also accept the
    digests listed under their ``hash_variants``."""
    ref = reference.get(key)
    if ref is None:
        return f"{key}: no reference"
    if not record["finished"]:
        return f"{key}: finished=False"
    if record["warps_done"] != record["warps_total"]:
        return (f"{key}: warps_done {record['warps_done']} != "
                f"warps_total {record['warps_total']}")
    if digest(record) not in accepted_digests(ref):
        return (f"{key}: reference mismatch (cycles {record['cycles']} vs "
                f"{ref['cycles']}, instructions {record['instructions']} vs "
                f"{ref['instructions']})")
    return None


def accepted_digests(ref: Mapping) -> List[str]:
    return [ref["digest"]] + list(ref.get("hash_variants", ()))


def load_reference() -> Dict[str, dict]:
    return load_json(REFERENCE_PATH)["cells"]


def apps_of(reference: Mapping) -> List[str]:
    return sorted({parse_cell(k)[0] for k in reference})


def jit_summary(jit: dict) -> dict:
    """Totals over the ``sm*.shard*.jit.*`` paths of one run's region-JIT
    report (``GPU.collect_jit`` / ``RunResult.jit``)."""
    shards = armed = issued = fallback = 0
    codegen = 0.0
    for path, value in jit.items():
        leaf = path.rsplit(".", 1)[-1]
        if leaf == "armed":
            shards += 1
            armed += int(value)
        elif leaf == "compile_s":
            codegen += float(value)
        elif leaf == "issued":
            issued += int(value)
        elif leaf == "fallback_issued":
            fallback += int(value)
    return {"shards": shards, "armed": armed, "codegen_s": codegen,
            "issued": issued, "fallback_issued": fallback}


# -- percentiles ---------------------------------------------------------------


class TooFewSamples(ValueError):
    """A percentile was asked of fewer samples than the rule allows."""


def samples_beyond(n: int, q: float) -> int:
    """Samples ranked strictly above the nearest-rank ``q`` percentile."""
    return n - math.ceil(q * n)


def harrell_davis(values: Sequence[float], q: float) -> float:
    """The Harrell-Davis estimate of the ``q`` quantile: a Beta-weighted
    mean of all order statistics (Harrell & Davis, Biometrika 1982).

    Cells of one run differ in cost by up to 10x, so the single middle
    value of a sample is as noisy as one measurement of one cell; the
    weights spread the estimate over the neighbouring order statistics."""
    xs = sorted(values)
    n = len(xs)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)

    def density(x: float) -> float:
        if x <= 0.0 or x >= 1.0:
            return 0.0
        return math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x))

    steps = 64  # Simpson's rule per order statistic; the density is smooth
    total = 0.0
    for i, x in enumerate(xs):
        lo, width = i / n, 1.0 / n / steps
        weight = density(lo) + density(lo + steps * width)
        for k in range(1, steps):
            weight += (4 if k % 2 else 2) * density(lo + k * width)
        total += x * weight * width / 3
    return total


def percentile(values: Sequence[float], q: float) -> float:
    """The Harrell-Davis ``q`` quantile; raises :class:`TooFewSamples`
    unless ``MIN_TAIL`` samples lie beyond the nearest-rank position."""
    n = len(values)
    if n == 0 or samples_beyond(n, q) < MIN_TAIL:
        raise TooFewSamples(
            f"p{round(q * 100)} of {n} samples has "
            f"{samples_beyond(n, q) if n else 0} beyond it, "
            f"needs {MIN_TAIL}"
        )
    return harrell_davis(values, q)


# -- seeded plans ----------------------------------------------------------------


def rng(seed: int, *parts: object) -> random.Random:
    """A generator that depends only on the seed and the labels.

    String seeding hashes with SHA-512, so it is stable across processes
    and unaffected by ``PYTHONHASHSEED``."""
    return random.Random(":".join([str(seed)] + [str(p) for p in parts]))


def strata(apps: Sequence[str], reference: Mapping, size: int) -> List[List[str]]:
    """Apps ordered by their reference ``baseline`` instruction count and cut
    into consecutive groups of ``size``, so a draw of one app per group
    always mixes short and long kernels in the same proportion."""
    ordered = sorted(
        apps, key=lambda a: (reference[cell_key(a, "baseline")]["instructions"], a)
    )
    return [ordered[i:i + size] for i in range(0, len(ordered), size)]


def stratified_round(seed: int, workload: str, round_no: int,
                     groups: Sequence[Sequence[str]]) -> List[str]:
    """One app from each group, in seeded order.

    Within a cycle of ``len(group)`` rounds every app of a group is drawn
    exactly once (a seeded permutation per group and cycle), so a run of
    whole cycles covers every app and the seed decides only the order."""
    picks = []
    for g, group in enumerate(groups):
        cycle, pos = divmod(round_no, len(group))
        order = list(group)
        rng(seed, workload, "group", g, cycle).shuffle(order)
        picks.append(order[pos])
    rng(seed, workload, "order", round_no).shuffle(picks)
    return picks


# -- spans -------------------------------------------------------------------------


class SpanLog:
    """Wall-clock spans kept in memory and written out once.

    A span has a name, start and end (``perf_counter`` seconds, which is
    CLOCK_MONOTONIC on Linux and so comparable across processes), the id
    of the span that caused it, and a request id shared by every span of
    one cell or job."""

    def __init__(self, clock=time.perf_counter, process: str = "perfbench",
                 enabled: bool = True):
        self.clock = clock
        self.process = process
        #: untraced runs keep the call sites but record nothing.
        self.enabled = enabled
        self.spans: List[dict] = []
        self._stack: List[int] = []

    def add(self, name: str, start: float, end: float,
            parent: Optional[int] = None, req: Optional[str] = None,
            lane: int = 0) -> int:
        """Record a span timed elsewhere; ``lane`` separates concurrent
        threads in the Chrome trace."""
        if not self.enabled:
            return -1
        sid = len(self.spans)
        if parent is None and self._stack:
            parent = self._stack[-1]
        self.spans.append({"id": sid, "name": name, "start": start, "end": end,
                           "parent": parent, "req": req, "lane": lane,
                           "process": self.process})
        return sid

    @contextmanager
    def span(self, name: str, req: Optional[str] = None):
        if not self.enabled:
            yield -1
            return
        sid = self.add(name, self.clock(), 0.0, req=req)
        self._stack.append(sid)
        try:
            yield sid
        finally:
            self._stack.pop()
            self.spans[sid]["end"] = self.clock()


def self_times(spans: Iterable[Mapping]) -> Dict[str, float]:
    """Per span name, the summed span duration minus the part of each span
    that its child spans cover (overlapping children count once)."""
    spans = list(spans)
    children: Dict[Tuple[str, int], List[Mapping]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault((s["process"], s["parent"]), []).append(s)
    out: Dict[str, float] = {}
    for s in spans:
        lo, hi = s["start"], s["end"]
        covered, reach = 0.0, lo
        for c in sorted(children.get((s["process"], s["id"]), ()),
                        key=lambda c: c["start"]):
            a, b = max(c["start"], reach), min(c["end"], hi)
            if b > a:
                covered += b - a
                reach = b
        out[s["name"]] = out.get(s["name"], 0.0) + (hi - lo) - covered
    return out


def chrome_trace(spans: Iterable[Mapping]) -> dict:
    """Spans as Chrome-trace JSON (complete events) that Perfetto opens."""
    spans = list(spans)
    pids = {p: i + 1 for i, p in enumerate(dict.fromkeys(s["process"] for s in spans))}
    t0 = min((s["start"] for s in spans), default=0.0)
    events: List[dict] = [
        {"ph": "M", "name": "process_name", "pid": pid, "tid": 0,
         "args": {"name": proc}}
        for proc, pid in pids.items()
    ]
    for s in spans:
        events.append({
            "ph": "X", "name": s["name"], "cat": s["name"].split(".")[0],
            "pid": pids[s["process"]], "tid": s.get("lane", 0),
            "ts": round((s["start"] - t0) * 1e6, 3),
            "dur": round((s["end"] - s["start"]) * 1e6, 3),
            "args": {"id": s["id"], "parent": s["parent"], "req": s["req"]},
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


#: Apps per size group in a cycle; one app of every group per round, so a
#: cycle of ``GROUP`` rounds runs every app once, each round a size-balanced
#: mix in its own fresh process.
GROUP = 3
#: Apps per size stratum for spreading storage configurations evenly.
STRATUM = 7


def assign_configs(seed: int, workload: str, cycle: int, apps: Sequence[str],
                   reference: Mapping,
                   configs: Sequence[Tuple[str, int]]) -> Dict[str, Tuple[str, int]]:
    """A seeded storage configuration per app: within every size stratum of
    ``STRATUM`` apps each configuration is drawn once before any repeats
    (a Latin-square draw), so every cycle runs every app and every
    configuration across short, medium and long kernels alike.  An odd
    cycle mirrors the cycle before it in ``COST_ORDER``."""
    if cycle % 2:
        ranked = sorted(configs, key=COST_ORDER.index)
        mirror = dict(zip(ranked, reversed(ranked)))
        before = assign_configs(seed, workload, cycle - 1, apps, reference,
                                configs)
        return {app: mirror[config] for app, config in before.items()}
    assignment: Dict[str, Tuple[str, int]] = {}
    for s, stratum in enumerate(strata(apps, reference, STRATUM)):
        r = rng(seed, workload, "configs", cycle, s)
        slots: List[Tuple[str, int]] = []
        while len(slots) < len(stratum):
            batch = list(configs)
            r.shuffle(batch)
            slots.extend(batch)
        slots = slots[:len(stratum)]
        r.shuffle(slots)
        assignment.update(zip(stratum, slots))
    return assignment


def cycle_rounds(seed: int, workload: str, cycle: int, apps: Sequence[str],
                 reference: Mapping,
                 configs: Sequence[Tuple[str, int]]) -> List[List[str]]:
    """The cells of one cycle, split into its ``GROUP`` rounds."""
    groups = strata(apps, reference, GROUP)
    assign = assign_configs(seed, workload, cycle, apps, reference, configs)
    return [[cell_key(a, *assign[a])
             for a in stratified_round(seed, workload, cycle * GROUP + r, groups)]
            for r in range(GROUP)]


def fresh_cells(seed: int, apps: Sequence[str],
                configs: Sequence[Tuple[str, int]], n: int) -> List[str]:
    """``n`` distinct cells spread evenly over ``apps`` and ``configs``
    (cell ``i`` pairs app ``i mod len(apps)`` with a configuration stepped
    by three per pass, under seeded permutations of both), in seeded order,
    so the cost mix of the service's fresh runs hardly moves with the seed.
    Three is prime to the seven storage configurations, so the steps
    reach every pairing before any repeats."""
    r = rng(seed, "service-mixed", "fresh")
    apps, configs = list(apps), list(configs)
    r.shuffle(apps)
    r.shuffle(configs)
    if n > len(apps) * len(configs) or math.gcd(3, len(configs)) != 1:
        raise ValueError(f"at most {len(apps) * len(configs)} fresh cells")
    cells = [cell_key(apps[i % len(apps)],
                      *configs[(i + 3 * (i // len(apps))) % len(configs)])
             for i in range(n)]
    r.shuffle(cells)
    return cells


def service_plan(seed: int, seconds: float, rate: float,
                 fresh: Sequence[str]) -> List[dict]:
    """Open-loop arrivals for ``service-mixed``.

    ``round(rate * seconds)`` jobs whose due times are a Poisson process
    conditioned on that count (sorted uniform times over ``seconds``).
    Half the jobs, drawn by the seed, carry two runs and the rest one.
    The ``fresh`` cells, in order, are the runs not seen before (writes:
    simulate, cache put, journal); every other run repeats a cell of an
    earlier job (a read through dedupe or the memo).  The first two jobs
    are all fresh so every repeat has a cell to repeat; the other fresh
    runs sit at seeded positions."""
    r = rng(seed, "service-mixed")
    n = round(rate * seconds)
    dues = sorted(r.uniform(0.0, seconds) for _ in range(n))
    sizes = [1] * n
    for j in r.sample(range(n), n // 2):
        sizes[j] = 2
    slots = [(j, k) for j in range(n) for k in range(sizes[j])]
    first = [s for s in slots if s[0] < 2]
    if len(fresh) < len(first):
        raise ValueError(f"need at least {len(first)} fresh cells")
    cells = list(reversed(fresh))
    fresh_slots = set(first) | set(r.sample(slots[len(first):],
                                            len(fresh) - len(first)))
    seen: List[str] = []
    jobs = [{"job": j, "due": due, "runs": []} for j, due in enumerate(dues)]
    for slot in slots:
        runs = jobs[slot[0]]["runs"]
        if slot in fresh_slots:
            key = cells.pop()
            seen.append(key)
        else:
            key = r.choice([k for k in seen if k not in runs])
        runs.append(key)
    return jobs
