"""How fast the host runs Python right now: a fixed probe, and the factor
that turns measured seconds into reference seconds.

The benchmark runs on a few cores of a shared host whose speed drifts by
a third within minutes (other tenants on the same cores), so one run of
unchanged code can read 30 % slower than the next.  The simulator is
pure Python, and so is the probe: a tiny register-machine interpreter
(attribute, list and dict traffic in the eval loop) and a JSON round trip
with a keyed sort (allocation and C-level library code).  Both are fixed
here, outside the program, so no change to the program moves them.

Each measuring process runs the probe between its timed operations, and
a run scales its timings by ``(ref_s / median probe time) ** exponent``
(both in ``config.json``).  When the host slows down, the probe slows with
it and the scaled time stays put; when the program slows down, only the
program's time grows.  The exponent is below one because the probe, a
small hot loop, feels the host's drift more than the simulator does:
interleaved with ``sim-baseline`` cells on a 2-core shared Xeon host, the
log of a cycle's time moved 0.5-0.6 times as far as the log of the probe
time, and scaling by the square root of the probe ratio halved the
spread of per-cycle throughput where scaling by the full ratio
over-corrected.  The raw wall-clock figures stay in every report beside
the scaled ones.
"""

from __future__ import annotations

import gc
import json
import statistics
import time
from typing import Sequence


class _Machine:
    __slots__ = ("r", "pc", "mem")

    def __init__(self):
        self.r = [0] * 8
        self.pc = 0
        self.mem = {}


#: A loop that stores, loads, multiplies and masks until the low bits of
#: its counter reach the iteration's bound.
_PROGRAM = (("li", 0, 0), ("li", 1, 1), ("add", 2, 0, 1), ("st", 2, 0),
            ("ld", 3, 2), ("mul", 4, 3, 1), ("and", 4, 4, 1023),
            ("add", 0, 0, 1), ("blt", 0, 5, 2))


def _step(m: _Machine, ins: tuple) -> None:
    op, r = ins[0], m.r
    if op == "li":
        r[ins[1]] = ins[2]
    elif op == "add":
        r[ins[1]] = r[ins[2]] + r[ins[3]]
    elif op == "mul":
        r[ins[1]] = r[ins[2]] * r[ins[3]]
    elif op == "and":
        r[ins[1]] = r[ins[2]] & ins[3]
    elif op == "st":
        m.mem[r[ins[1]] & 255] = r[ins[2]]
    elif op == "ld":
        r[ins[1]] = m.mem.get(r[ins[2]] & 255, 0)
    elif op == "blt" and r[ins[1]] & 63 != ins[2]:
        m.pc = ins[3]
        return
    m.pc += 1


def _interpret(iterations: int = 8000) -> int:
    m, acc, recent = _Machine(), 0, []
    for it in range(iterations):
        m.pc, m.r[5], steps = 2, it, 0
        while m.pc < len(_PROGRAM) and steps < 10:
            _step(m, _PROGRAM[m.pc])
            steps += 1
        recent.append(m.r[4])
        acc += m.r[4]
        if len(recent) > 64:
            recent.pop(0)
    return acc


_RECORDS = [{"id": i, "name": f"cell{i}", "v": [i, i * 2, i % 7], "f": i / 3}
            for i in range(300)]


def _round_trip(times: int = 6) -> int:
    size = 0
    for _ in range(times):
        blob = json.dumps(_RECORDS, sort_keys=True)
        back = json.loads(blob)
        back.sort(key=lambda d: (d["v"][2], -d["id"]))
        size += len(blob)
    return size


def probe(clock=time.perf_counter) -> float:
    """Seconds the fixed probe takes now (25-50 ms on a 2-core Xeon host).

    The garbage collector is off meanwhile, so a collection of the
    program's heap, which grows with the program, never lands in it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = clock()
        _interpret()
        _round_trip()
        return clock() - t0
    finally:
        if enabled:
            gc.enable()


def scale(probes: Sequence[float], ref_s: float, exponent: float) -> float:
    """Factor from the probed host's seconds to reference seconds."""
    return (ref_s / statistics.median(probes)) ** exponent
