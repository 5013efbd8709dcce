import pytest

from repro.compiler import compile_kernel
from repro.regfile import BaselineRF
from repro.sim import Tracer
from repro.sim.gpu import GPU


@pytest.fixture
def traced_run(loop_workload, fast_config):
    ck = compile_kernel(loop_workload.kernel())
    gpu = GPU(fast_config, ck, loop_workload, lambda sm, sh: BaselineRF())
    tracer = Tracer(capacity=100_000)
    tracer.attach(gpu)
    stats = gpu.run()
    return tracer, stats


class TestTracer:
    def test_issue_events_match_instruction_count(self, traced_run):
        tracer, stats = traced_run
        assert len(tracer.issues()) == stats.instructions

    def test_writebacks_recorded(self, traced_run):
        tracer, _ = traced_run
        assert any(e.kind == "writeback" for e in tracer.events)

    def test_per_warp_filter(self, traced_run):
        tracer, stats = traced_run
        w0 = tracer.for_warp(0)
        assert w0
        assert all(e.warp == 0 for e in w0)

    def test_window_filter(self, traced_run):
        tracer, stats = traced_run
        window = tracer.between(0, 50)
        assert all(e.cycle < 50 for e in window)

    def test_render(self, traced_run):
        tracer, _ = traced_run
        text = tracer.render(limit=10)
        assert "cycle" in text and "issue" in text
        assert len(text.splitlines()) <= 10

    def test_bounded_capacity(self, loop_workload, fast_config):
        ck = compile_kernel(loop_workload.kernel())
        gpu = GPU(fast_config, ck, loop_workload, lambda sm, sh: BaselineRF())
        tracer = Tracer(capacity=50)
        tracer.attach(gpu)
        gpu.run()
        assert len(tracer) == 50  # ring buffer kept the newest

    def test_double_attach_rejected(self, loop_workload, fast_config):
        ck = compile_kernel(loop_workload.kernel())
        gpu = GPU(fast_config, ck, loop_workload, lambda sm, sh: BaselineRF())
        tracer = Tracer()
        tracer.attach(gpu)
        with pytest.raises(RuntimeError):
            tracer.attach(gpu)

    def test_tracing_does_not_change_results(self, golden_cells):
        """Traced golden cells match the committed golden SimStats, so
        the tracer observes the one engine every untraced run uses."""
        for backend in ("baseline", "regless"):
            gpu = golden_cells.gpu("bfs", backend)
            tracer = Tracer()
            tracer.attach(gpu)
            stats = gpu.run()
            assert len(tracer) > 0, backend
            golden_cells.check(stats, "bfs", backend)
