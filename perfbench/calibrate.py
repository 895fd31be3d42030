"""A small fixed piece of work that measures how fast the machine runs
Python right now.

Shared machines change speed by a third or more, within seconds and over
tens of seconds, as other tenants come and go.  The benchmark runs `tick`
on a timer while it times the program, takes the ticks out of the
timings, and scales each timing by the ticks around it to a reference
speed, so that a slow phase of the machine does not read as a slow program.

A tick has two parts, because the slow phases hit them differently: a
frozen copy of the dense Smith reduction that finsheaf used when the
benchmark was defined (pivot search, row and column operations carried
into four transform matrices) on a fixed sparse +-1 matrix, and a walk in
random order over freshly allocated tuples and a dictionary.  It never
imports finsheaf, so no change to the program moves it.
"""

from __future__ import annotations

import random
from time import perf_counter

# About the median tick inside the jobs on the 2-core machine the benchmark
# was defined on; timings are reported in seconds at this speed.
REFERENCE_S = 0.0075
_RNG = random.Random(20261017)
_MATRIX = [[_RNG.choice((-1, 0, 0, 0, 0, 1)) for _ in range(22)] for _ in range(18)]
_WALK = 1 << 12


def _smith(M):
    r, c = len(M), len(M[0])
    A = [list(row) for row in M]
    U = [[int(i == j) for j in range(r)] for i in range(r)]
    Ui = [[int(i == j) for j in range(r)] for i in range(r)]
    V = [[int(i == j) for j in range(c)] for i in range(c)]
    Vi = [[int(i == j) for j in range(c)] for i in range(c)]

    def row_add(i, t, q):
        A[i] = [a + q * b for a, b in zip(A[i], A[t])]
        U[i] = [a + q * b for a, b in zip(U[i], U[t])]
        for row in Ui:
            row[t] -= q * row[i]

    def col_add(j, t, q):
        for row in A:
            row[j] += q * row[t]
        for row in V:
            row[j] += q * row[t]
        Vi[t] = [a - q * b for a, b in zip(Vi[t], Vi[j])]

    t = 0
    while t < min(r, c):
        pivot = None
        for i in range(t, r):
            for j in range(t, c):
                if A[i][j] != 0 and (pivot is None or abs(A[i][j]) < abs(A[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        i, j = pivot
        A[t], A[i] = A[i], A[t]
        U[t], U[i] = U[i], U[t]
        for row in Ui:
            row[t], row[i] = row[i], row[t]
        for row in A:
            row[t], row[j] = row[j], row[t]
        for row in V:
            row[t], row[j] = row[j], row[t]
        Vi[t], Vi[j] = Vi[j], Vi[t]
        if A[t][t] < 0:
            A[t] = [-a for a in A[t]]
            U[t] = [-a for a in U[t]]
            for row in Ui:
                row[t] = -row[t]
        p = A[t][t]
        restart = False
        for i in range(t + 1, r):
            if A[i][t]:
                q = A[i][t] // p
                if q:
                    row_add(i, t, -q)
                restart = restart or A[i][t] != 0
        for j in range(t + 1, c):
            if not restart and A[t][j]:
                q = A[t][j] // p
                if q:
                    col_add(j, t, -q)
                restart = restart or A[t][j] != 0
        if restart:
            continue
        bad = next((i for i in range(t + 1, r) if any(A[i][j] % p for j in range(t + 1, c))), None)
        if bad is not None:
            row_add(t, bad, 1)
            continue
        t += 1
    return tuple(tuple(row) for row in A)


def _memory_walk():
    rng = random.Random(7)
    order = list(range(_WALK))
    rng.shuffle(order)
    data = [(i, 3 * i, str(i)) for i in range(_WALK)]
    seen = {}
    j = 0
    for _ in range(_WALK):
        j = order[j]
        seen[data[j][2]] = data[j][1]
    return len(seen)


def tick() -> float:
    """Seconds the fixed work takes now."""
    t0 = perf_counter()
    _smith(_MATRIX)
    _memory_walk()
    return perf_counter() - t0
