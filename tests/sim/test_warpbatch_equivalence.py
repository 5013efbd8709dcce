"""Lockstep warps through the one interpreter.

Cohort batching once ran warps that shared a pc as one batch, and the
region JIT compiled the cycle loop they ran in.  Both layers are gone:
every warp now issues through the same interpreter, and
:meth:`GPU.collect_batch` / :meth:`GPU.collect_jit` stay only as the
always-empty hooks ``perfbench/simround.py`` still reads.  The tests
keep their batching-era names and check what stands in their place:

* on fuzzed kernels (loops, divergent diamonds that split lockstep
  warps, loads whose wakes split and re-join them) a run observed one
  instruction at a time by a :class:`Tracer` gives the same
  :class:`SimStats` as an unobserved run, and the tracer sees exactly
  one issue event per counted instruction;
* the demoting two-level scheduler gets the same identity;
* on an all-lockstep kernel every warp issues the same pc sequence (the
  cohort the batching layer used to form), on every backend.

Each also asserts that no batch or JIT report is produced.
"""

from hypothesis import given, settings, strategies as st

from repro.compiler import compile_kernel
from repro.isa import KernelBuilder
from repro.sim import GPU, Tracer
from repro.workloads import Workload

from .test_engine_fuzz import FACTORIES, SCHEDULERS, fuzz_workload


def _run(ck, workload, backend, scheduler="gto", traced=False):
    """One run on a :class:`GPU`; returns (stats, gpu, tracer or None)."""
    gpu = GPU(SCHEDULERS[scheduler], ck, workload, FACTORIES[backend](ck))
    tracer = None
    if traced:
        tracer = Tracer(capacity=1_000_000)
        tracer.attach(gpu)
    return gpu.run(), gpu, tracer


def _assert_no_reports(gpu, label):
    assert gpu.collect_batch() == {}, label
    assert gpu.collect_jit() == {}, label


def _assert_observed_equals_plain(ck, workload, backend, scheduler):
    label = f"{backend}/{scheduler}"
    plain, gpu, _ = _run(ck, workload, backend, scheduler)
    observed, traced_gpu, tracer = _run(ck, workload, backend, scheduler,
                                        traced=True)
    assert plain.finished, label
    assert observed == plain, label
    assert len(tracer.issues()) == plain.instructions, label
    _assert_no_reports(gpu, label)
    _assert_no_reports(traced_gpu, label)


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


@given(fuzz_workload(), st.sampled_from(sorted(FACTORIES)),
       st.sampled_from(["gto", "lrr"]))
@settings(max_examples=20, deadline=None)
def test_batch_matches_scalar_on_random_kernels(workload, backend,
                                               scheduler):
    ck = compile_kernel(workload.kernel())
    _assert_observed_equals_plain(ck, workload, backend, scheduler)


@given(fuzz_workload(), st.sampled_from(["baseline", "rfh"]))
@settings(max_examples=10, deadline=None)
def test_batch_is_inert_under_two_level_scheduler(workload, backend):
    """The demoting scheduler runs the same interpreter as GTO/LRR:
    observed and plain runs agree, with no batch report."""
    ck = compile_kernel(workload.kernel())
    _assert_observed_equals_plain(ck, workload, backend, "two_level")


def test_batch_arms_and_forms_cohorts_on_lockstep_kernel():
    """Where cohorts used to form, every warp issues the same pc sequence
    and the traced run equals the plain one on every backend."""
    workload = _pin_workload()
    ck = compile_kernel(workload.kernel())
    for backend in sorted(FACTORIES):
        _assert_observed_equals_plain(ck, workload, backend, "gto")
        stats, gpu, tracer = _run(ck, workload, backend, traced=True)
        paths = {}
        for event in tracer.issues():
            key = (event.sm, event.shard, event.warp)
            paths.setdefault(key, []).append(event.pc)
        assert len(paths) == stats.warps_total, backend
        assert len({tuple(p) for p in paths.values()}) == 1, (
            f"{backend}: lockstep warps walked different pcs")
        _assert_no_reports(gpu, backend)
