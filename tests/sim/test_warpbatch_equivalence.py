"""Lockstep-warp equivalence: warps walking the same pcs, one compiled path.

Cohort batching once ran warps that shared a pc as one batch under the
region JIT.  That layer is gone; the region JIT's single compiled cycle
loop now runs those kernels, and :meth:`GPU.collect_batch` stays only as
the always-empty hook ``perfbench/simround.py`` still reads.  The tests
keep their batching-era names and check what stands in its place:

* on fuzzed kernels (loops, divergent diamonds that split lockstep
  warps, loads whose wakes split and re-join them) the compiled path
  equals the interpreter bit for bit, driven through :class:`GPU` the
  way the benchmark drives it;
* the demoting two-level scheduler gets the same identity;
* on an all-lockstep kernel the JIT arms on every shard and no
  per-shard report grows a batch path.
"""

import os

from hypothesis import given, settings, strategies as st

from repro.compiler import compile_kernel
from repro.isa import KernelBuilder
from repro.sim import GPU, GPUConfig
from repro.workloads import Workload

from .test_regionjit_equivalence import (
    FACTORIES,
    _assert_identical,
    jit_workload,
)


def _config(scheduler):
    return GPUConfig(warps_per_sm=8, schedulers_per_sm=2, cta_size_warps=4,
                     max_cycles=60_000, scheduler=scheduler,
                     two_level_active=2)


def _run(ck, workload, backend, jit, scheduler="gto"):
    """One run on a :class:`GPU` with the JIT forced on or off; returns
    (stats, jit report, batch report)."""
    prev = os.environ.get("REPRO_JIT")
    os.environ["REPRO_JIT"] = "1" if jit else "0"
    try:
        gpu = GPU(_config(scheduler), ck, workload, FACTORIES[backend](ck))
        stats = gpu.run()
        return stats, gpu.collect_jit(), gpu.collect_batch()
    finally:
        if prev is None:
            del os.environ["REPRO_JIT"]
        else:
            os.environ["REPRO_JIT"] = prev


def _assert_no_batch_paths(jit_report, batch_report, label):
    assert batch_report == {}, label
    assert not any(".batch." in key for key in jit_report), label


def _pin_workload():
    """All-lockstep kernel: every warp walks the same pcs."""
    b = KernelBuilder("pin")
    b.block("entry")
    tid, out = b.reg(0), b.reg(1)
    acc, v = b.fresh(), b.fresh()
    b.mov(acc, 1)
    b.ldg(v, tid)
    b.imad(acc, v, 3, acc)
    b.iadd(acc, acc, 7)
    b.iadd(acc, acc, 1)
    b.stg(out, acc)
    b.exit()
    return Workload(name="pin", build=lambda: b.build(),
                    pred_behaviors={}, regalloc=False)


@given(jit_workload(), st.sampled_from(sorted(FACTORIES)),
       st.sampled_from(["gto", "lrr"]))
@settings(max_examples=20, deadline=None)
def test_batch_matches_scalar_on_random_kernels(workload, backend,
                                               scheduler):
    ck = compile_kernel(workload.kernel())
    off, _, batch_off = _run(ck, workload, backend, jit=False,
                             scheduler=scheduler)
    on, jit_on, batch_on = _run(ck, workload, backend, jit=True,
                                scheduler=scheduler)
    label = f"{backend}/{scheduler}"
    _assert_identical(off, on, label)
    _assert_no_batch_paths({}, batch_off, label)
    _assert_no_batch_paths(jit_on, batch_on, label)


@given(jit_workload(), st.sampled_from(["baseline", "rfh"]))
@settings(max_examples=10, deadline=None)
def test_batch_is_inert_under_two_level_scheduler(workload, backend):
    """The demoting scheduler runs the same compiled path as GTO/LRR:
    identical to the interpreter, with no batch report."""
    ck = compile_kernel(workload.kernel())
    off, _, _ = _run(ck, workload, backend, jit=False,
                     scheduler="two_level")
    on, jit_on, batch_on = _run(ck, workload, backend, jit=True,
                                scheduler="two_level")
    _assert_identical(off, on, backend)
    _assert_no_batch_paths(jit_on, batch_on, backend)


def test_batch_arms_and_forms_cohorts_on_lockstep_kernel():
    """Where cohorts used to form, the region JIT arms on every shard and
    issues every instruction that the interpreter issues."""
    workload = _pin_workload()
    ck = compile_kernel(workload.kernel())
    for backend in sorted(FACTORIES):
        off, jit_off, _ = _run(ck, workload, backend, jit=False)
        on, jit_on, batch_on = _run(ck, workload, backend, jit=True)
        _assert_identical(off, on, backend)
        assert on.finished, backend
        assert not any(k.endswith(".armed") and v
                       for k, v in jit_off.items()), backend
        armed = {k: v for k, v in jit_on.items() if k.endswith(".armed")}
        assert armed and all(armed.values()), f"{backend}: {armed}"
        issued = sum(v for k, v in jit_on.items() if k.endswith(".issued"))
        assert issued > 0, f"{backend}: JIT armed but issued nothing"
        _assert_no_batch_paths(jit_on, batch_on, backend)
