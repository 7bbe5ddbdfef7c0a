"""A fixed pure-Python task that measures how fast the host runs Python now.

On a shared host the CPU time of the same Python code drifts by 15% and
more over minutes, as neighbours load the core's caches and its sibling
thread.  run.py interleaves this task with the workload and reports the
workload's CPU time in multiples of the task's CPU time, so that the drift
cancels.  The task never touches ``blocksynth``: a change to the program
under test cannot move it.

The task is transformation-based synthesis (Miller, Maslov and Dueck) of one
fixed seeded 8-bit permutation: pure-Python loops over lists of small ints,
the kind of work blocksynth does.
"""

from __future__ import annotations

import random
from time import process_time

WIDTH = 8
PERM = random.Random("blocksynth-bench:reference").sample(range(1 << WIDTH), 1 << WIDTH)


def synthesize(entries, width: int) -> list[tuple[int, int]]:
    """Gates (control mask, target bit) that take ``entries`` to the identity.

    Each gate flips the target bit of every entry whose bits include the
    control mask; entries before the one being fixed never match.
    """
    f = list(entries)
    size = 1 << width
    gates = []
    for i in range(size):
        # First set the bits i has and f[i] lacks, then clear the bits f[i]
        # has and i lacks.
        for want in (True, False):
            for j in range(width):
                bit = 1 << j
                if bool(i & bit) == want and bool(f[i] & bit) != want:
                    ctrl = f[i] if want else i
                    for k in range(i, size):
                        if f[k] & ctrl == ctrl:
                            f[k] ^= bit
                    gates.append((ctrl, bit))
    if f != list(range(size)):
        raise RuntimeError("reference synthesis did not reach the identity")
    return gates


def seconds(clock=process_time) -> float:
    """The time one run of the task takes by ``clock``."""
    t0 = clock()
    synthesize(PERM, WIDTH)
    return clock() - t0
