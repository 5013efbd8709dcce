import pytest

from repro.compiler import compile_kernel
from repro.harness.inspect import StateSampler
from repro.regfile import BaselineRF
from repro.regless import ReglessStorage
from repro.sim.gpu import GPU


def make_gpu(workload, config, regless=True):
    ck = compile_kernel(workload.kernel())
    if regless:
        return GPU(config, ck, workload, lambda sm, sh: ReglessStorage(ck))
    return GPU(config, ck, workload, lambda sm, sh: BaselineRF())


class TestStateSampler:
    def test_collects_samples(self, loop_workload, fast_config):
        gpu = make_gpu(loop_workload, fast_config)
        sampler = StateSampler(period=50)
        sampler.attach(gpu)
        gpu.run()
        assert sampler.samples
        assert sampler.samples[0].capacity > 0

    def test_final_sample_everything_finished(self, loop_workload, fast_config):
        gpu = make_gpu(loop_workload, fast_config)
        sampler = StateSampler(period=10)
        sampler.attach(gpu)
        gpu.run()
        last = sampler.samples[-1]
        total_warps = sum(last.states.values())
        assert total_warps == fast_config.warps_per_sm

    def test_mean_and_peak_views(self, loop_workload, fast_config):
        gpu = make_gpu(loop_workload, fast_config)
        sampler = StateSampler(period=25)
        sampler.attach(gpu)
        gpu.run()
        assert sampler.mean_state("active") >= 0
        assert 0 <= sampler.peak_occupancy() <= 1.5
        assert "reserved" in sampler.render(limit=3)

    def test_rejects_non_regless_gpu(self, loop_workload, fast_config):
        gpu = make_gpu(loop_workload, fast_config, regless=False)
        with pytest.raises(ValueError):
            StateSampler().attach(gpu)

    def test_double_attach_rejected(self, loop_workload, fast_config):
        gpu = make_gpu(loop_workload, fast_config)
        sampler = StateSampler()
        sampler.attach(gpu)
        with pytest.raises(RuntimeError):
            sampler.attach(gpu)

    def test_sampling_does_not_change_results(self, golden_cells):
        """Sampled golden cells match the committed golden SimStats.  The
        sampler needs RegLess shards, so the two cells are bfs on RegLess
        with and without the compressor."""
        for backend in ("regless", "regless-nc"):
            gpu = golden_cells.gpu("bfs", backend)
            sampler = StateSampler(period=10)
            sampler.attach(gpu)
            stats = gpu.run()
            assert sampler.samples, backend
            golden_cells.check(stats, "bfs", backend)
