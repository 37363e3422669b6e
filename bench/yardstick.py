"""The yardstick: fixed work that runs no variantfit code, timed to gauge machine speed.

On a shared machine, speed can drift by up to ~2x over minutes, in CPU
time as well as wall time. So the harness times this
work between ops, and scales each end-to-end time by the yardstick's time
in the fastest phase seen over its mean time in the run (see "Machine
speed" in bench/README.md). A change to the program cannot change this
work, so the scaled figures still move with the program.

In-process workloads and the set-ups time `work()`. `cli-bundled` times
this file run as a script: interpreter start, `import numpy` and `work()`
once, which is the kind of work a CLI process does.

    python3 bench/yardstick.py
"""

from __future__ import annotations

import time

import numpy as np

# Times in the fastest phase seen on a shared 2-core x86-64 VM (Python 3.11,
# numpy 2.4), as round figures.
IN_PROCESS_S = 0.011  # `work()`, wall and CPU
CHILD_S = 0.20  # this script in a fresh interpreter, wall
CHILD_CPU_S = 0.33  # the same, CPU: numpy's import starts BLAS threads


def work() -> float:
    """Small-array numpy calls and small dense linear algebra on one thread, ~11 ms.

    The program's fits are made of this kind of work. Of the candidates
    tried, it followed the drift of the in-process workloads most evenly.
    """
    a = np.linspace(0.1, 1.0, 20)
    total = 0.0
    for _ in range(1500):
        total += float((np.exp(a) + np.log1p(a)).sum())
    m = np.random.default_rng(0).random((9, 9)) + 9.0 * np.eye(9)
    acc = np.zeros((81, 81))
    for _ in range(150):
        acc += np.kron(m, m)
        total += float(np.linalg.solve(m, m[:, 0]).sum())
    return total + float(acc[0, 0])


def timed() -> tuple[float, float]:
    """Wall and CPU seconds of one `work()`."""
    cpu, start = time.process_time(), time.perf_counter()
    work()
    return time.perf_counter() - start, time.process_time() - cpu


if __name__ == "__main__":
    work()
