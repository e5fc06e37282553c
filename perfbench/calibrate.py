"""Fixed reference kernels that track how fast the machine runs right now.

The host this benchmark was written on changes speed by +-30% over tens of
seconds, and code of different kinds slows by different amounts (see
README.md). The four parts below mimic what the workloads spend their time
on: interpreted float formatting, numpy calls on 4x4 matrices, and complex
exponentials over a 20k and a 150k array. They run between operations;
speed() gives the mean of each part's time over its time on the reference
machine, so 1.0 is nominal speed and 1.2 a host 20% slower. The benchmark
divides every time it reports by that factor. The kernels do not call the
program, so a change to the program moves the reported times as it moves
the raw ones.
"""

from __future__ import annotations

import time

import numpy as np

INTERVAL_S = 0.15  # least operation time between two speed() runs

_X = np.linspace(0.0, 50.0, 20_000)
_BIG = np.linspace(0.0, 50.0, 150_000)
_M = np.random.default_rng(0).random((4, 4)) + 0j


def _format() -> object:
    return sum(len(format(i * 0.37, ".17g")) for i in range(1500))


def _small_numpy() -> object:
    for _ in range(40):
        np.linalg.eigvals(_M)
        np.kron(_M, _M)
        out = np.linalg.solve(_M, _M[:, 0])
    return out


def _vector() -> object:
    return [np.sum(np.exp(1j * w * _X) * _X) for w in (0.5, 1.0)]


def _large_vector() -> object:
    return np.sum(np.exp(1j * _BIG) * _BIG)


# each part with its median time on the reference machine (README.md)
PARTS = {
    "format": (_format, 0.0015),
    "small_numpy": (_small_numpy, 0.00285),
    "vector": (_vector, 0.0018),
    "large_vector": (_large_vector, 0.0085),
}


def speed(parts: tuple[str, ...]) -> float:
    """Run the named parts once; return the mean of time / reference time."""
    total = 0.0
    for name in parts:
        part, nominal = PARTS[name]
        t0 = time.perf_counter()
        part()
        total += (time.perf_counter() - t0) / nominal
    return total / len(parts)
