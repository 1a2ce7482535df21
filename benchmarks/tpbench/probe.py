"""Machine-speed probe: what makes the timings repeat on a shared host.

The reference box is a small virtual machine on a shared host whose
neighbours slow it down — the same operation takes 1.0× to 1.9× its
quiet time, changing within milliseconds and drifting over minutes — so
a raw wall-clock median of a 20-second run moves by tens of percent
between runs of unchanged code.  The remedy is a paired measurement: a
fixed **reference kernel**, which shares no code with the program under
test, runs in a background thread of the benchmark process — on the one
processor the run is bound to — every few milliseconds, all through the
run, and every timed interval is reported in units of it::

    normalised = (wall − kernel time inside) × NOMINAL_S ÷ mean kernel time around it

``NOMINAL_S`` is about the kernel's duration on the quiet reference
box, so a normalised time reads roughly as seconds on that box left
alone; it is a fixed scale, and normalised times are for comparing with
each other.  A change to
the program moves the wall-clock but not the kernel, so it shows in full;
a slow stretch of the machine moves both and cancels.

The kernel is a little of everything the program does, because the
neighbours take away different things at different times: it allocates,
hashes and sorts short strings (interpreter and allocator), visits in
random order the tuples of a 1 MB working set (about a private cache's
worth — what the program's tuple and lineage graphs depend on), and
runs recursive calls, method calls and float arithmetic (the bare
interpreter).  The mix was fitted on this box: timed beside
``setops_scan``, ``pushdown_mix`` and ``delta_views`` in 24 runs whose
raw times differed by 11–15 % (standard deviation of the logarithm),
the memory half alone moved 1.2–1.9× as much as the workloads and the
interpreter half alone 0.7–0.8× as much; half and half moved as much as
they did (slope 0.85–1.03) and left 2–3 %.  What it allocates is
strings, which the cyclic collector does not count, and a handful of
containers that die at once, so it does not bring a collection of the
program's heap forward.
"""

from __future__ import annotations

import bisect
import itertools
import random
import threading
import time

#: About the kernel's duration on the quiet reference box; a fixed scale.
NOMINAL_S = 0.00060
#: Pause between two kernels (the interpreter adds up to its 5 ms switch
#: interval while the program holds the GIL).
INTERVAL_S = 0.004
#: A timed interval is paired with the kernels inside it and this far
#: around it, so that short operations have enough of them.
PAD_S = 0.25

STRINGS = 100
VISITS = 1000
HEAP_TUPLES = 8192
FIB = 12
METHOD_CALLS = 1200
FLOAT_STEPS = 2000


def _build_heap() -> tuple[list, list]:
    """The working set and the order to visit it in: both shuffled, so
    that neither list order nor allocation order helps the prefetcher."""
    rng = random.Random("tpbench/probe")
    order = list(range(HEAP_TUPLES))
    rng.shuffle(order)
    heap: list = [None] * HEAP_TUPLES
    for i in order:
        heap[i] = (i + 1000, i + 1003, 0.5 + i)
    rng.shuffle(order)
    return heap, order


def _fib(n: int) -> int:
    return n if n < 2 else _fib(n - 1) + _fib(n - 2)


class _Counter:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def add(self, x: int) -> int:
        if x & 1:
            self.value += x
        else:
            self.value -= x >> 1
        return self.value


class Probe:
    """Runs the reference kernel in a daemon thread between ``start()``
    and ``stop()`` and normalises intervals against it."""

    def __init__(self) -> None:
        self._heap, self._order = _build_heap()
        self._offset = 0
        self._counter = _Counter()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="tpbench-probe", daemon=True)
        #: Per kernel: when it ended, how long it took.
        self.ends: list[float] = []
        self.durations: list[float] = []

    def kernel(self) -> None:
        keys = ["k%05d" % (i * 7919 % 1009) for i in range(STRINGS)]
        keys.sort()
        seen: dict = {}
        for k in keys:
            seen[k] = seen.get(k, 0) + 1
        offset = self._offset
        self._offset = (offset + VISITS) % (HEAP_TUPLES - VISITS)
        heap, total = self._heap, 0
        for i in self._order[offset: offset + VISITS]:
            total += heap[i][1]
        _fib(FIB)
        self._counter.value = 0
        add = self._counter.add
        for i in range(METHOD_CALLS):
            add(i)
        x = 0.5
        for _ in range(FLOAT_STEPS):
            x = x * 1.0000001 + 0.25 * x * (1.0 - x)

    def _sample(self) -> None:
        start = time.perf_counter()
        self.kernel()
        end = time.perf_counter()
        self.durations.append(end - start)
        self.ends.append(end)

    def _run(self) -> None:
        while not self._stop.wait(INTERVAL_S):
            self._sample()

    def start(self) -> "Probe":
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()

    def normaliser(self, own_time: bool = True):
        """A function ``(start, end) -> normalised seconds`` over the
        kernels recorded so far.

        ``own_time``: the interval was timed in this process's only busy
        thread, so the kernels that ran inside it are part of its
        wall-clock and are taken out.  Pass False for intervals spent
        waiting on another process: it and the kernels preempt each
        other, so a kernel's duration is not time taken from the
        interval."""
        if not self.ends:  # a run too short for the thread to get a turn
            self._sample()
        count = len(self.ends)
        ends, durations = self.ends[:count], self.durations[:count]
        sums = [0.0, *itertools.accumulate(durations)]

        def normalised(start: float, end: float) -> float:
            lo, hi = bisect.bisect_left(ends, start), bisect.bisect_right(ends, end)
            inside = sums[hi] - sums[lo] if own_time else 0.0
            lo, hi = bisect.bisect_left(ends, start - PAD_S), bisect.bisect_right(ends, end + PAD_S)
            if hi == lo:  # the probe starved: pair with the whole run
                lo, hi = 0, count
            return (end - start - inside) * NOMINAL_S * (hi - lo) / (sums[hi] - sums[lo])

        return normalised

    def slowdown(self) -> float:
        """Mean kernel time over the run ÷ its quiet time."""
        return sum(self.durations) / len(self.durations) / NOMINAL_S
