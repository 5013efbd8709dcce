"""The always-empty hooks ``perfbench/`` still reads.

Cohort batching and the region JIT are deleted; :meth:`GPU.collect_batch`
and :meth:`GPU.collect_jit` stay as ``{}`` stubs only because
``perfbench/simround.py`` calls them, and perfbench's summary of an empty
report must read zeros (its per-layer rows for the two deleted layers are
therefore constant 0).
"""

import importlib.util
from pathlib import Path

from repro.compiler import compile_kernel
from repro.isa import KernelBuilder
from repro.regfile import BaselineRF
from repro.sim import GPU, GPUConfig
from repro.workloads import Workload

PERFBENCH = Path(__file__).resolve().parents[2] / "perfbench"


def _workload():
    b = KernelBuilder("stub")
    b.block("entry")
    tid, out = b.reg(0), b.reg(1)
    v = b.fresh()
    b.ldg(v, tid)
    b.iadd(v, v, 1)
    b.stg(out, v)
    b.exit()
    return Workload(name="stub", build=lambda: b.build(), regalloc=False)


def test_collect_stubs_are_empty_and_summarize_to_zero():
    workload = _workload()
    ck = compile_kernel(workload.kernel())
    gpu = GPU(GPUConfig(warps_per_sm=8, schedulers_per_sm=2,
                        cta_size_warps=4, max_cycles=60_000),
              ck, workload, lambda sm, sh: BaselineRF())
    assert gpu.collect_jit() == {}
    assert gpu.collect_batch() == {}
    stats = gpu.run()
    assert stats.finished
    assert gpu.collect_jit() == {}
    assert gpu.collect_batch() == {}

    spec = importlib.util.spec_from_file_location(
        "perfbench_common", PERFBENCH / "common.py")
    common = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(common)
    assert common.jit_summary({}) == {"shards": 0, "armed": 0,
                                      "codegen_s": 0.0, "issued": 0,
                                      "fallback_issued": 0}
