"""The host's speed, read from a fixed reference kernel.

The benchmark runs on a few cores of a shared machine whose speed
drifts by up to a half over minutes, in CPU time as in wall time, so
raw times of the same code spread further between runs than any bound
the benchmark may set.  A run therefore times this kernel between its
rounds, and scales its end-to-end times and rates to the host speed at
which the kernel takes NOMINAL_S:

    adjusted time = measured time * NOMINAL_S / kernel time
    adjusted rate = measured rate * kernel time / NOMINAL_S

with the kernel time the median over the run.  The kernel uses nothing
from logdisc, so a change to the program does not move it.  It has four
parts of about equal time, because the host's slow phases slow each
kind of work by a different share and each workload mixes them
differently: a polynomial remainder mod p on numpy int64 arrays, the
same on lists of Python ints, a plain integer loop, and products and
remainders of integers of ~50,000 bits.  Timed beside the rounds, the
pure-Python parts tracked range-sweep best and the big-integer part
exact-pn; their sum tracked both.
"""

from __future__ import annotations

import time

import numpy as np

NOMINAL_S = 0.15  # a fixed scale; only ratios between runs matter

_P_NP = 2_147_483_629  # below 2^31, so products of residues fit in int64
_P_PY = 1_000_003


def _residues(count: int, p: int) -> list[int]:
    x, out = 12345, []
    for _ in range(count):
        x = (x * 1103515245 + 12345) % (1 << 31)
        out.append(x % (p - 1) + 1)
    return out


_A_NP = np.array(_residues(900, _P_NP), dtype=np.int64)
_B_NP = np.array(_residues(450, _P_NP)[::-1], dtype=np.int64)
_F_PY = _residues(100, _P_PY)
_G_PY = _residues(99, _P_PY)[::-1]
_BIG = int.from_bytes(bytes(range(256)) * 24, "little") | 1


def _remainder_np(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a mod b over GF(_P_NP), leading coefficient last."""
    r = a.copy()
    inv = pow(int(b[-1]), -1, _P_NP)
    lb = len(b)
    for i in range(len(r) - 1, lb - 2, -1):
        q = int(r[i]) * inv % _P_NP
        if q:
            r[i - lb + 1:i + 1] = (r[i - lb + 1:i + 1] - q * b) % _P_NP
    return r[:lb - 1]


def _remainder_sequence_py(u: list[int], v: list[int]) -> int:
    """Steps of the Euclidean remainder sequence of u and v over GF(_P_PY)."""
    steps = 0
    while len(v) > 1:
        inv = pow(v[-1], -1, _P_PY)
        while len(u) >= len(v):
            q = u[-1] * inv % _P_PY
            off = len(u) - len(v)
            for j, c in enumerate(v):
                u[off + j] = (u[off + j] - q * c) % _P_PY
            u.pop()
            while u and u[-1] == 0:
                u.pop()
            steps += 1
        u, v = v, u
    return steps


def _big_products(rounds: int) -> int:
    a, m = _BIG, (_BIG << 100) + 12345
    b = (a * 3 + 7) >> 5
    y = 1
    for _ in range(rounds):
        y = y * a % m * b % m + a * b // (b + 3)
    return y


def kernel_s() -> float:
    """Seconds one run of the kernel takes now."""
    t0 = time.perf_counter()
    for _ in range(12):
        _remainder_np(_A_NP, _B_NP)
    for _ in range(24):
        _remainder_sequence_py(_F_PY[:], _G_PY[:])
    s = 0
    for i in range(480_000):
        s += i * i % 7
    _big_products(3)
    return time.perf_counter() - t0
