"""A fixed reference loop that measures how fast the host runs right now.

The host is shared, and its speed drifts by a third or more within
seconds.  Each worker samples this loop while its workload runs
(``Sampler``: one loop every ``PROBE_INTERVAL_S`` of wall time, from a
timer signal in the workload's own thread) and just after set-up
(``measure``).  ``run.py`` subtracts the probes' own time and scales the
workload's times by ``REFERENCE_S / mean(probe times)``.  The loop
imports nothing from ``repro``, so a change to the program under test
never moves it; it mixes the kinds of work the workloads do (regex
lexing, string hashing, dict counting, small object churn, sorting) so
that it slows down when they do.

    python3 perfbench/calibrate.py      # prints a few loop times
"""

from __future__ import annotations

import gc
import re
import signal
import statistics
import time
from typing import List

#: Time of one loop, in seconds, that the scaled metrics are expressed at:
#: about the fastest loop time seen on a quiet 2-vCPU Xeon VM.  Its exact
#: value only sets the scale of the reported seconds.
REFERENCE_S = 0.0065
#: Wall time between two probes of a ``Sampler``; a probe costs about 3-5%
#: of it, and that time is taken out of the workload's time.
PROBE_INTERVAL_S = 0.2

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_]\w*)|(\S))")
_TEXT = "\n".join(
    f"for (int i{k} = 0; i{k} < n{k % 7}; i{k}++) {{ a{k}[i{k}] = b[i{k} + {k % 5}] * c{k % 3}; }}"
    for k in range(120)
)


class _Node:
    __slots__ = ("kind", "text", "children")

    def __init__(self, kind: str, text: str) -> None:
        self.kind = kind
        self.text = text
        self.children: List["_Node"] = []


def _loop() -> int:
    tokens = [m.group(0).strip() for m in _TOKEN.finditer(_TEXT)]
    counts = {}
    for i in range(len(tokens) - 2):
        key = hash((tokens[i], tokens[i + 1], tokens[i + 2])) & 0xFFFF
        counts[key] = counts.get(key, 0) + 1
    root = _Node("unit", "")
    stack = [root]
    for tok in tokens:
        node = _Node("punct" if not tok[:1].isalnum() else "word", tok)
        stack[-1].children.append(node)
        if tok == "{":
            stack.append(node)
        elif tok == "}" and len(stack) > 1:
            stack.pop()
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return len(ranked) + len(root.children)


def _timed_loop() -> float:
    # The loop's allocations would otherwise trigger collections that scan
    # the workload's heap, and the probe would time the workload's GC.
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _loop()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def measure(loops: int = 40) -> List[float]:
    """Wall seconds of each of ``loops`` back-to-back reference loops."""
    return [_timed_loop() for _ in range(loops)]


class Sampler:
    """Times one reference loop every ``PROBE_INTERVAL_S`` while active.

    The probes run from a ``SIGALRM`` handler, so they interrupt the
    workload in its own thread and see the speed it sees at that moment.
    A disabled sampler does nothing and records no probes.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.probes: List[float] = []
        self._previous = None

    def _probe(self, signum, frame) -> None:
        self.probes.append(_timed_loop())

    def __enter__(self) -> "Sampler":
        if self.enabled:
            self._previous = signal.signal(signal.SIGALRM, self._probe)
            signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        if self.enabled:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)


if __name__ == "__main__":
    samples = measure()
    print(f"median {statistics.median(samples) * 1e3:.3f} ms, "
          f"min {min(samples) * 1e3:.3f} ms over {len(samples)} loops")
