"""The one issue engine on any kernel, backend and scheduler.

Hypothesis generates small structured kernels (loops, divergent diamonds,
guarded writes, loads) and runs them on every operand-storage backend
under every warp scheduler.  Each run must:

* finish (every warp exits before the cycle ceiling);
* leave the issue core's redundant state consistent
  (:func:`~repro.sim.watchdog.check_invariants` reports nothing);
* conserve stall attribution on every shard
  (``sum(bins) == warps x cycles``);
* be deterministic: a second :class:`GPU` built from a pickled and
  unpickled copy of the compiled kernel (as a worker process receives
  it) gives identical :class:`SimStats`.

A deterministic pin kernel checks the same on every backend and
scheduler for fast failure localization.
"""

import pickle

from hypothesis import given, settings, strategies as st

from repro.compiler import compile_kernel
from repro.isa import KernelBuilder
from repro.obs.stalls import check_conservation
from repro.regfile import BaselineRF, RFHStorage, RFVStorage
from repro.regless import ReglessStorage
from repro.sim import GPU, BernoulliLanes, GPUConfig, LoopExit
from repro.sim.watchdog import check_invariants
from repro.workloads import Workload

FAST = GPUConfig(warps_per_sm=8, schedulers_per_sm=2, cta_size_warps=4,
                 max_cycles=60_000)

#: every ``GPUConfig.scheduler``; the two-level pool is smaller than a
#: shard's warp count so demotion and promotion really happen.
SCHEDULERS = {
    "gto": FAST,
    "lrr": FAST.with_(scheduler="lrr"),
    "two_level": FAST.with_(scheduler="two_level", two_level_active=2),
}

FACTORIES = {
    "baseline": lambda ck: (lambda sm, sh: BaselineRF()),
    "rfh": lambda ck: (lambda sm, sh: RFHStorage(ck)),
    "rfv": lambda ck: (lambda sm, sh: RFVStorage(ck)),
    "regless": lambda ck: (lambda sm, sh: ReglessStorage(ck)),
}


def _run(ck, workload, backend, scheduler="gto"):
    """One simulation; returns (stats, the GPU after the run)."""
    gpu = GPU(SCHEDULERS[scheduler], ck, workload, FACTORIES[backend](ck))
    return gpu.run(), gpu


def _check_run(ck, workload, backend, scheduler):
    """Run twice (second time on an unpickled kernel) and check the
    engine's contract; returns the first run's stats."""
    label = f"{backend}/{scheduler}"
    stats, gpu = _run(ck, workload, backend, scheduler)
    assert stats.finished, label
    assert stats.warps_done == stats.warps_total, label
    assert check_invariants(gpu) == [], label
    assert stats.stall_shards, label
    for report in stats.stall_shards:
        check_conservation(report)
        assert report["cycles"] == stats.cycles, label
    again, _ = _run(pickle.loads(pickle.dumps(ck)), workload, backend,
                    scheduler)
    assert again == stats, label
    return stats


@st.composite
def fuzz_workload(draw):
    """Small structured kernel: optional loop, arithmetic soup, optional
    divergent diamond and guarded writes, loads and stores."""
    b = KernelBuilder("fuzz")
    b.block("entry")
    tid, out = b.reg(0), b.reg(1)
    acc = b.fresh()
    b.mov(acc, 1)
    behaviors = {}

    loop = draw(st.booleans())
    if loop:
        i = b.fresh()
        b.mov(i, 0)
        header, exit_lbl = b.label(), b.label()
        b.block_named(header)
        p = b.fresh_pred()
        behaviors["loop"] = LoopExit(trips=draw(st.integers(2, 4)))
        b.setp(p, i, 99, tag="loop")
        b.bra(exit_lbl, pred=p)
        b.block()

    live = [tid, acc]
    for k in range(draw(st.integers(2, 10))):
        kind = draw(st.integers(0, 5))
        src = live[draw(st.integers(0, len(live) - 1))]
        v = b.fresh()
        if kind == 0:
            b.ldg(v, src)
        elif kind == 1:
            b.iadd(v, src, k + 1)
        elif kind == 2:
            b.imad(v, src, 3, acc)
        elif kind == 3:
            b.stg(src, acc)
            continue
        elif kind == 4:
            tag = f"g{k}"
            behaviors[tag] = BernoulliLanes(draw(st.floats(0.1, 0.9)))
            p = b.fresh_pred()
            b.setp(p, src, 0, tag=tag)
            b.iadd(acc, acc, 1, guard=b.guard(p))
            continue
        else:
            tag = f"d{k}"
            behaviors[tag] = BernoulliLanes(draw(st.floats(0.1, 0.9)))
            p = b.fresh_pred()
            b.setp(p, src, 0, tag=tag)
            join = b.label()
            b.bra(join, pred=p)
            b.block()
            b.iadd(acc, acc, k)
            b.block_named(join)
            continue
        live.append(v)
        if len(live) > 5:
            live.pop(0)

    if loop:
        b.iadd(i, i, 1)
        b.bra(header)
        b.block_named(exit_lbl)

    b.stg(out, acc)
    b.exit()
    return Workload(name="fuzz", build=lambda: b.build(),
                    pred_behaviors=behaviors, regalloc=False)


@given(fuzz_workload(), st.sampled_from(sorted(FACTORIES)),
       st.sampled_from(sorted(SCHEDULERS)))
@settings(max_examples=40, deadline=None)
def test_random_kernels_run_clean_and_deterministic(workload, backend,
                                                     scheduler):
    ck = compile_kernel(workload.kernel())
    _check_run(ck, workload, backend, scheduler)


def test_pin_kernel_runs_clean_on_every_backend_and_scheduler():
    """Deterministic pin: one kernel, all backends under every scheduler.
    Every warp walks the same pcs, splits at a divergent diamond and
    re-converges after loads whose wakes land at different cycles."""
    b = KernelBuilder("pin")
    b.block("entry")
    tid, out = b.reg(0), b.reg(1)
    acc, v = b.fresh(), b.fresh()
    b.mov(acc, 1)
    b.ldg(v, tid)
    b.imad(acc, v, 3, acc)
    b.iadd(acc, acc, 7)
    p = b.fresh_pred()
    b.setp(p, v, 0, tag="split")
    join = b.label()
    b.bra(join, pred=p)
    b.block()
    b.iadd(acc, acc, 1)
    b.block_named(join)
    b.ldg(v, acc)
    b.iadd(acc, acc, v)
    b.stg(out, acc)
    b.exit()
    workload = Workload(name="pin", build=lambda: b.build(),
                        pred_behaviors={"split": BernoulliLanes(0.5)},
                        regalloc=False)
    ck = compile_kernel(workload.kernel())
    for backend in sorted(FACTORIES):
        for scheduler in sorted(SCHEDULERS):
            stats = _check_run(ck, workload, backend, scheduler)
            label = f"{backend}/{scheduler}"
            assert stats.counters.get("divergent_branch", 0) > 0, label
            assert stats.instructions > 0, label
