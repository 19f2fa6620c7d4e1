"""Host-speed reference for the benchmark's timings.

Other tenants of the machine slow the code here by 1.2-1.8x, in
stretches that last from a tenth of a second to several minutes.  A run
that is slowed from start to end reads low under any estimator of its
own timings.  So, while a workload runs, the benchmark times small fixed
reference kernels ten times a second in the same process, and scales
each chunk of work to the speed the kernels have on the reference
machine when it is not slowed.

The slowdown is not the same for all code.  Interpreted Python slows
most (about 1.65x when a 10^4-element sort slows 1.25x), 128-wide BLAS
products less, and long vectorised numpy loops least.  So there are
three kernels, one per kind of code, and each workload weighs them
(``WEIGHTS`` in workloads.py) so that pieces of it read the same scaled
time in slowed and unslowed stretches.  Set-up, mostly imports in a
fresh process, is timed against a fourth kernel, ``python``, that
allocates next to nothing.  The kernels share no code with ``wavopt``: a
faster ``wavopt`` leaves them alone, so a scaled rate still rises with
the program's speed.
"""

from __future__ import annotations

import gc
import signal
import time

import numpy as np

_RNG = np.random.default_rng(20230714)
_LONG = _RNG.standard_normal(10_000)
_WIDE = _RNG.standard_normal((10_000, 10))
_X = _RNG.standard_normal((128, 128))
_H = _RNG.standard_normal((128, 128))
_ROWS = [_RNG.standard_normal(8) for _ in range(64)]


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x: float, y: float):
        self.x, self.y = x, y

    def norm1(self) -> float:
        return abs(self.x) + abs(self.y)


def _interp() -> float:
    """Interpreted Python: small objects, calls, dicts, numpy calls on 8-element rows."""
    acc = 0.0
    for i in range(1000):
        row = _ROWS[i & 63]
        acc += float(np.maximum(row, 0.0).sum()) + float(row[i & 7])
    acc += sum(p.norm1() for p in [_Point(i * 0.5, -i * 0.25) for i in range(4000)])
    table = {}
    for i in range(4000):
        table[i % 97] = table.get(i % 97, 0) + (i & 3)
    return acc + sum(table.values())


def _blas() -> float:
    """128-wide matrix products with a ReLU between them, as in one MLP layer pass."""
    acc = 0.0
    for _ in range(20):
        acc += float((np.maximum(_X @ _H, 0.0).T @ _X)[0, 0])
    return acc


def _vector() -> float:
    """Long vectorised loops: a stable sort, a gather and scan, and element-wise arithmetic."""
    acc = 0.0
    for _ in range(3):
        order = np.argsort(_LONG, kind="stable")
        acc += float(np.cumsum(_LONG[order])[-1])
    for _ in range(6):
        acc += float(((_WIDE * _WIDE) * 3.0 + _WIDE).sum(axis=1)[0])
    return acc


def _python() -> float:
    """Interpreted Python that allocates next to nothing, for timing set-up.

    Fresh objects would page in new memory in a fresh process, and the
    sample would read slow for that reason alone.
    """
    acc = 0.0
    table = {}
    for i in range(2500):
        table[i % 97] = table.get(i % 97, 0) + (i & 3)
        acc += abs(i * 0.5) + abs(-i * 0.25)
    return acc + sum(table.values())


KERNELS = {"interp": _interp, "blas": _blas, "vector": _vector, "python": _python}

# seconds of one call of each kernel on the reference machine (2 vCPU
# Xeon, Python 3.11.7, numpy 2.4.6, one BLAS thread) when not slowed
REF_S = {"interp": 0.00418, "blas": 0.00329, "vector": 0.00480, "python": 0.00057}


class Pacer:
    """Samples the host's slowdown while the workload runs.

    ``weights`` maps kernel names to weights.  While started, a SIGALRM
    every ``tick_s`` seconds runs the next weighted kernel (round robin)
    in the main thread, between two bytecodes of the workload, and keeps
    its ``(start, end, name)``.  ``slowdown(a, b)`` is then the weighted
    mean over kernels of their mean time in ``[a, b)`` over their
    reference time, and ``paused(a, b)`` the time the kernels took in
    ``[a, b)``, which the caller leaves out of its own timings.
    """

    def __init__(self, weights: dict, tick_s: float = 0.1):
        self.tick_s = tick_s
        total = sum(weights.values())
        self.weights = {name: w / total for name, w in weights.items() if w > 0}
        self.samples: list = []
        self._turn = 0

    def _tick(self, signum, frame) -> None:
        names = list(self.weights)
        name = names[self._turn % len(names)]
        self._turn += 1
        start = time.perf_counter()
        _run(name)
        self.samples.append((start, time.perf_counter(), name))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.tick_s, self.tick_s)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def paused(self, a: float, b: float) -> float:
        return sum(max(0.0, min(end, b) - max(start, a)) for start, end, _ in self.samples)

    def slowdown(self, a: float, b: float) -> float:
        """Weighted slowdown over ``[a, b)``.

        A kernel with no sample there uses its sample nearest to the
        interval, or a fresh one when it has none.
        """
        total = 0.0
        for name, weight in self.weights.items():
            mine = [(start, end) for start, end, n in self.samples if n == name]
            inside = [end - start for start, end in mine if a <= start < b]
            if not inside and mine:
                mid = (a + b) / 2
                start, end = min(mine, key=lambda se: abs(se[0] - mid))
                inside = [end - start]
            if not inside:
                inside = [_timed(name)]
            total += weight * sum(inside) / len(inside) / REF_S[name]
        return total


def _run(name: str) -> None:
    """One kernel call with the garbage collector off.

    Otherwise the kernel's allocations now and then start a collection
    that walks the workload's whole heap, and the sample reads slow.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        KERNELS[name]()
    finally:
        if enabled:
            gc.enable()


def _timed(name: str) -> float:
    t0 = time.perf_counter()
    _run(name)
    return time.perf_counter() - t0
