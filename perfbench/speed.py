"""Machine speed, measured with a fixed piece of Python work.

The shared 2-core machine the benchmark was tuned on changes speed by up
to 1.7x, in spells that last from under a second to minutes, while no
process of the benchmark changes.  A pass-time median or mean cannot
average that out across a series of runs.  So run.py times
`reference_work()` between set-ups, between passes and, inside a pass,
after every run.SEGMENT_S seconds of work.  It rescales each stretch of
work to a machine on which the reference takes NOMINAL_S:

    reported = measured * NOMINAL_S / mean(reference times before and after it)

The reference uses no commsol code and runs with the cyclic garbage
collector off; between passes run.py also empties the library's caches
and collects before it.  So a change to the library, including one that
keeps more or less memory alive, cannot move it.  It mixes the kinds of
work the library does: breadth-first search over permutation tuples
through a dict, tuple-keyed tables, free reduction of letter strings,
and exact rational arithmetic.  The measured effect of rescaling is in
README.md.
"""

from __future__ import annotations

import gc
import time
from fractions import Fraction

# the reference's time in the tuning machine's fast spells
NOMINAL_S = 0.021


def _reduce(s: str) -> str:
    out = []
    for ch in s:
        if out and out[-1] != ch and out[-1].lower() == ch.lower():
            out.pop()
        else:
            out.append(ch)
    return "".join(out)


def reference_work() -> int:
    # Kept to a few hundred kB of live objects: run.py also calls it in the
    # middle of a pass, on top of the library's heap and its peak RSS.
    m = 1500
    perms = [tuple((v * c + 3) % m for v in range(m)) for c in (7, 11, 13)]
    total = 0
    for root in range(4):
        pos = {root: 0}
        order = [root]
        for v in order:
            for perm in perms:
                if perm[v] not in pos:
                    pos[perm[v]] = len(order)
                    order.append(perm[v])
        total += len(order)
    table = {(i % 7, i % 11, i % 13): str(i) for i in range(20000)}
    total += sum(len(table[(i % 7, i % 11, i % 13)]) for i in range(20000))
    words = {_reduce("abAB"[i % 4] * 3 + "aBbA"[(i // 3) % 4] * 2 + str(i % 5)) for i in range(8000)}
    x = Fraction(0)
    for i in range(1, 400):
        x += Fraction(i % 7 - 3, i)
    return total + len(words) + x.denominator % 7


def reference_s() -> float:
    """Wall time of one reference_work() call, with the cyclic garbage
    collector off so that the size of the rest of the heap does not count."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        reference_work()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def rescale(measured: float, before: float, after: float) -> float:
    """`measured` seconds of work, done between reference timings `before`
    and `after`, at the speed where the reference takes NOMINAL_S."""
    return measured * NOMINAL_S * 2 / (before + after)
