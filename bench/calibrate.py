"""Interpreter-speed calibration that cancels the host's speed swings.

On a shared host the same single-threaded Python work can run 25% or more
slower for seconds to minutes at a time.  A run therefore times a fixed
kernel, which uses nothing from dehnsurg, before its first op and after
each op.  The host's slow and fast phases do not slow all code alike, so
a kernel is made of parts like the code it calibrates, and its time is
the geometric mean of the parts' times.  The ``python`` kernel (small
rational arithmetic with dicts and lists, and products of integer
polynomials held as lists) suits code made of Python objects; the
``numeric`` kernel (rationals, a loop of integer arithmetic and NumPy
passes over an array) suits long Dedekind sums.  Of the combinations of
these parts tried on this benchmark's ops, these two left the least
spread between runs of their workloads.

Each op's time is scaled by REFERENCE_NS over the mean of the kernel
times just before and just after it: it is what the op would have taken
on a host where the kernel takes REFERENCE_NS.  The host can change
speed every tenth of a second, so only the nearest kernel times are
used; an op that a change caught between them is an outlier that the
median over the op's repeats drops (see ``run.py``).
"""

from __future__ import annotations

import math
from fractions import Fraction
from time import perf_counter_ns

import numpy as np

# Kernel time on a 2-CPU x86-64 sandbox with Python 3.11; it fixes only the
# scale of reported times, never a comparison between two runs.
REFERENCE_NS = 700_000


def _rationals():
    table = {}
    total = Fraction(0)
    for i in range(1, 150):
        total += Fraction(i % 7 + 1, i % 11 + 1)
        table[i % 97] = table.get(i % 97, 0) + i
        sorted((i % 13, i % 5, i % 3))


_A = [(i * 37) % 11 - 5 for i in range(40)]
_B = [(i * 53) % 13 - 6 for i in range(40)]


def _polynomials():
    for _ in range(3):
        out = [0] * (len(_A) + len(_B) - 1)
        for i, x in enumerate(_A):
            if x:
                for j, y in enumerate(_B):
                    if y:
                        out[i + j] += x * y


def _integers():
    total = 0
    for k in range(1, 3000):
        total += (k * 7919) % 104729 * k


_ARRAY = np.arange(1 << 16, dtype=np.int64)


def _arrays():
    b = (_ARRAY * 48271) % 1000003
    np.cumsum(b, out=b)


KERNELS = {
    "python": (_rationals, _polynomials),
    "numeric": (_rationals, _integers, _arrays),
}


def _time_ns(part) -> int:
    start = perf_counter_ns()
    part()
    return perf_counter_ns() - start


def kernel_ns(kind: str = "python") -> float:
    """Time the parts of a kernel; return their geometric mean.

    An untimed pass of each part first brings it back into the caches, so
    the time depends on the host, not on what the previous op left there.
    """
    logs = 0.0
    for part in KERNELS[kind]:
        part()
        logs += math.log(_time_ns(part))
    return math.exp(logs / len(KERNELS[kind]))


class Calibration:
    """Kernel times: the first before any op, then one after each op."""

    def __init__(self, kind: str = "python"):
        self.kind = kind
        kernel_ns(kind)  # warm up
        self.samples = [kernel_ns(kind)]

    def after_op(self):
        self.samples.append(kernel_ns(self.kind))

    def factors(self) -> list:
        """Scale factor of each op so far, from the kernel times before and
        after it."""
        return [2 * REFERENCE_NS / (a + b) for a, b in zip(self.samples, self.samples[1:])]
