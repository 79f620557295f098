"""Step timing that corrects for the host's speed at the time of each step.

On a shared virtual machine the same code runs up to about 2x slower at
times, because other tenants share the physical cores; the slow spells
come and go within seconds and at times last for minutes. A step's time
then depends on when it ran, and even its fastest time over a one-minute
run depends on whether the run caught a fast spell. So before and after
every step the clock times a probe, a fixed unit of pure-Python dict,
string and float work that is not streamrag code and does not change with
it. A step's time divided by the faster of its two probes is its cost in
probes, which other tenants move far less than the time itself.

The benchmark reports a step's median cost in probes times
REFERENCE_PROBE_S: its time in *reference seconds*, the seconds it would
take on a host that runs the probe in exactly REFERENCE_PROBE_S. On the
2-CPU virtual machine the benchmark was built on (Intel Xeon, Python
3.11.7) the probe took 0.5-0.6 ms at the fastest, and its median over a
one-minute run was 0.6-1 ms.
"""

from __future__ import annotations

import gc
import json
import time
from contextlib import contextmanager
from typing import Iterator

REFERENCE_PROBE_S = 0.001
PROBE_REPEATS = 3  # the probe is the median of 3 back-to-back runs
_WORDS = ("stream retrieval query block entity decoy index score document token "
          "session latency reference bundle reflector trigger").split()


def _work() -> str:
    counts: dict[str, int] = {}
    weight = 0.0
    for i in range(700):
        word = _WORDS[i % len(_WORDS)] + str(i % 41)
        counts[word] = counts.get(word, 0) + 1
        weight += counts[word] * 0.37
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return json.dumps([ranked[:25], weight])


def probe() -> float:
    """Seconds for the fixed probe, with garbage collection off so that the
    program's heap does not change the probe's cost."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(PROBE_REPEATS):
            started = time.perf_counter()
            _work()
            times.append(time.perf_counter() - started)
        return sorted(times)[len(times) // 2]
    finally:
        if enabled:
            gc.enable()


class Clock:
    """Times named steps; with ``probing``, probes the host's speed between
    steps (one probe serves as the after-probe of a step and the
    before-probe of the next)."""

    def __init__(self, probing: bool = True) -> None:
        self.probing = probing
        self.seconds: dict[str, float] = {}
        self.probes: dict[str, float] = {}  # faster probe next to each step
        self.probe_s = 0.0  # time spent probing, to leave out of walls
        self._last: float | None = None

    def _probe(self) -> float:
        started = time.perf_counter()
        self._last = probe()
        self.probe_s += time.perf_counter() - started
        return self._last

    @contextmanager
    def step(self, name: str) -> Iterator[None]:
        before = (self._last if self._last is not None else self._probe()) if self.probing else 0.0
        started = time.perf_counter()
        yield
        self.seconds[name] = time.perf_counter() - started
        if self.probing:
            self.probes[name] = min(before, self._probe())
