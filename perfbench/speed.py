"""Machine-speed reference: a fixed pure-Python task sampled during each step.

The shared host this benchmark runs on changes speed by up to 2x, in
states that flip within tenths of a second and may last minutes (a fixed
task timed back to back reads 4 ms, then 9 ms, then 5 ms), and CPU time
moves with wall time, so the slowdown is not time spent descheduled.
Raw wall times therefore spread past any useful bound from run to run.

A `Sampler` times a short fixed task, `reference()`, made of the
operations the solver and parser spend their time on (small objects with
attribute access, dict and set lookups, list growth, a layered search,
integer parsing from text).  While a step runs the sampler is armed:
SIGALRM fires every INTERVAL_S and the handler times one pass of the
task, so the samples see the speed states the step itself ran in.  A few
passes right before and after the step add samples for steps shorter
than the interval.  The task never touches the program, so a change to
the program cannot move it.  A step's time is then expressed in
reference seconds:

    scaled = (wall - time spent in the handler) * REF_S / mean(samples)

i.e. the time the step would take on a machine where one pass of the
task takes REF_S.  A program that gets 10% slower reads 10% slower; a
host that gets slower for a while slows the step and the samples taken
meanwhile, and cancels out.
"""

from __future__ import annotations

import gc
import signal
import time

REF_S = 0.00025  # one pass, near the task's fast-state median on a 2-vCPU host
INTERVAL_S = 0.004
EDGE_PASSES = 3  # passes right before and right after each step
_N = 160
_TEXT = "\n".join(f"{i} {(i * 7919) % _N} {(i * 104729) % _N}" for i in range(_N))


class _Node:
    __slots__ = ("key", "weight", "out", "layer")

    def __init__(self, key: int, weight: int) -> None:
        self.key = key
        self.weight = weight
        self.out: list[_Node] = []
        self.layer = -1


def _relax(node: _Node, acc: int) -> int:
    return node.weight + acc if node.weight & 1 else node.weight - (acc & 255)


def reference() -> int:
    """The fixed task; returns a checksum so no step can be skipped."""
    nodes = [_Node(i, (i * 31) % 97) for i in range(_N)]
    for line in _TEXT.split("\n"):
        a, b, c = (int(tok) for tok in line.split())
        nodes[a].out.append(nodes[b])
        nodes[a].out.append(nodes[c])
    by_weight: dict[int, list[int]] = {}
    for node in nodes:
        by_weight.setdefault(node.weight, []).append(node.key)
    seen = {0}
    frontier = [nodes[0]]
    nodes[0].layer = 0
    acc = 0
    while frontier:
        nxt = []
        for node in frontier:
            for succ in node.out:
                if succ.key not in seen:
                    seen.add(succ.key)
                    succ.layer = node.layer + 1
                    acc = _relax(succ, acc)
                    nxt.append(succ)
        frontier = nxt
    return acc + len(seen) + sum(len(v) for v in by_weight.values())


class Sampler:
    """Samples the machine's speed around and during one timed step at a time.

        sampler.start(); t0 = perf_counter(); step(); wall = perf_counter() - t0
        net, scaled = sampler.stop(wall)
    """

    def __init__(self) -> None:
        self.samples: list[float] = []  # seconds per pass of the task
        self.inside = 0.0  # seconds spent in the handler while armed
        signal.signal(signal.SIGALRM, self._tick)

    def _sample(self) -> float:
        enabled = gc.isenabled()
        gc.disable()  # a collection of the program's garbage is not the task's time
        t0 = time.perf_counter()
        reference()
        elapsed = time.perf_counter() - t0
        if enabled:
            gc.enable()
        self.samples.append(elapsed)
        return elapsed

    def _tick(self, signum, frame) -> None:
        self.inside += self._sample()

    def start(self) -> None:
        self.samples = []
        self.inside = 0.0
        for _ in range(EDGE_PASSES):
            self._sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self, wall_s: float) -> tuple[float, float]:
        """Disarm; return the step's wall seconds less the handler's time,
        and the same in reference seconds."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        net = wall_s - self.inside
        for _ in range(EDGE_PASSES):
            self._sample()
        mean = sum(self.samples) / len(self.samples)
        return net, net * REF_S / mean
