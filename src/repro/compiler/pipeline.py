"""End-to-end RegLess compilation: liveness -> regions -> annotations.

:func:`compile_kernel` is the public entry point used by examples, tests,
and the simulator.  The result, :class:`CompiledKernel`, bundles the kernel
with every compiler artifact and provides the PC-indexed lookups the
RegLess hardware model consumes at "run time".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..isa.kernel import Kernel
from .annotations import RegionAnnotations, annotate_regions
from .liveness import Liveness, analyze_liveness
from .metadata import encode_region_metadata
from .regions import Region, RegionConfig, create_regions

__all__ = ["CompiledKernel", "compile_kernel"]


@dataclass
class CompiledKernel:
    """A kernel plus all RegLess compiler artifacts."""

    kernel: Kernel
    liveness: Liveness = field(repr=False)
    regions: List[Region] = field(repr=False)
    annotations: List[RegionAnnotations] = field(repr=False)
    config: RegionConfig = field(repr=False, default_factory=RegionConfig)

    def __post_init__(self) -> None:
        self._region_of_pc: List[int] = [-1] * self.kernel.num_instructions
        for region in self.regions:
            for pc in region.pcs():
                self._region_of_pc[pc] = region.rid
        self._regions_of_block: Dict[str, List[int]] = {}
        for region in self.regions:
            self._regions_of_block.setdefault(region.block, []).append(region.rid)

    # -- lookups --------------------------------------------------------------

    def region_of_pc(self, pc: int) -> Region:
        rid = self._region_of_pc[pc]
        if rid < 0:
            raise KeyError(f"pc {pc} is not covered by any region")
        return self.regions[rid]

    def annotations_of_pc(self, pc: int) -> RegionAnnotations:
        return self.annotations[self.region_of_pc(pc).rid]

    def regions_of_block(self, label: str) -> List[Region]:
        return [self.regions[rid] for rid in self._regions_of_block.get(label, [])]

    def is_region_start(self, pc: int) -> bool:
        return self.region_of_pc(pc).start_pc == pc

    def is_region_end(self, pc: int) -> bool:
        return self.region_of_pc(pc).end_pc == pc + 1

    # -- statistics (Figure 19 / Table 2 inputs) --------------------------------

    @property
    def n_regions(self) -> int:
        return len(self.regions)

    def mean_insns_per_region(self) -> float:
        if not self.regions:
            return 0.0
        return sum(r.num_insns for r in self.regions) / len(self.regions)

    def mean_preloads_per_region(self) -> float:
        if not self.annotations:
            return 0.0
        return sum(a.n_preloads for a in self.annotations) / len(self.annotations)

    def mean_live_per_region(self) -> float:
        if not self.regions:
            return 0.0
        return sum(r.max_live for r in self.regions) / len(self.regions)

    def std_live_per_region(self) -> float:
        n = len(self.regions)
        if n == 0:
            return 0.0
        mean = self.mean_live_per_region()
        var = sum((r.max_live - mean) ** 2 for r in self.regions) / n
        return var ** 0.5

    def total_metadata_insns(self) -> int:
        return sum(a.n_metadata_insns for a in self.annotations)

    def metadata_bits(self) -> int:
        total = 0
        for region, ann in zip(self.regions, self.annotations):
            words = encode_region_metadata(ann, region.num_insns)
            total += sum(w.bits_used for w in words)
        return total

    def summary(self) -> str:
        """Human-readable compilation summary (used by examples)."""
        lines = [
            f"kernel {self.kernel.name}: {self.kernel.num_instructions} insns, "
            f"{len(self.kernel.blocks)} blocks, {self.kernel.num_regs} regs",
            f"  regions: {self.n_regions} "
            f"(mean {self.mean_insns_per_region():.1f} insns, "
            f"mean live {self.mean_live_per_region():.1f}, "
            f"mean preloads {self.mean_preloads_per_region():.1f})",
            f"  metadata: {self.total_metadata_insns()} extra insn slots",
        ]
        return "\n".join(lines)


def compile_kernel(
    kernel: Kernel, config: Optional[RegionConfig] = None
) -> CompiledKernel:
    """Run the full RegLess compiler pipeline on a kernel."""
    config = config or RegionConfig()
    liveness = analyze_liveness(kernel)
    regions = create_regions(kernel, liveness, config)
    annotations = annotate_regions(kernel, liveness, regions, config)
    return CompiledKernel(
        kernel=kernel,
        liveness=liveness,
        regions=regions,
        annotations=annotations,
        config=config,
    )
