"""A fixed pure-Python reference kernel that measures how fast the machine runs now.

The kernel is timed before each job, on the jobs' CPU, and the runner
scales its end-to-end times by NOMINAL_S / (measured time per kernel
call).  On a shared virtual machine whose speed drifts by up to 1.7× for
minutes at a time, that turns raw seconds into seconds at one fixed
machine speed.  The kernel does the kinds of work drwitt does (recursive
weight-bounded enumeration of exponent tuples, a dict keyed by
Fractions, modular row reduction of a small integer matrix) but imports
nothing from drwitt, so a change to drwitt cannot change it.
"""

import time
from fractions import Fraction

# seconds per kernel() call at the speed reported times are scaled to:
# about its time per call on the 2-vCPU, 2.0 GHz Xeon VM the baseline was
# recorded on, Python 3.11, in a fast spell
NOMINAL_S = 0.0115

# kernel() calls per benchmark round, split over the round's jobs
CALLS_PER_ROUND = 24


def _exponents(weights, budget, prefix, out):
    """Every exponent tuple e with sum(e[i] * weights[i]) == budget."""
    if len(prefix) == len(weights) - 1:
        if budget % weights[-1] == 0:
            out.append((*prefix, budget // weights[-1]))
        return
    w = weights[len(prefix)]
    for e in range(budget // w + 1):
        _exponents(weights, budget - e * w, prefix + (e,), out)


def kernel():
    out = []
    _exponents((1, 2, 3, 5), 40, (), out)
    table = {}
    for exps in out:
        key = sum(Fraction(e, 3 ** (i + 1)) for i, e in enumerate(exps))
        table[key] = table.get(key, 0) + 1
    q, n = 3**5, 14
    rows = [[(i * 7 + j * 13 + i * j) % q for j in range(n)] for i in range(n)]
    for c in range(n):
        piv = next((r for r in range(c, n) if rows[r][c] % 3), None)
        if piv is None:
            continue
        rows[c], rows[piv] = rows[piv], rows[c]
        inv = pow(rows[c][c], -1, q)
        rows[c] = [x * inv % q for x in rows[c]]
        for r in range(n):
            if r != c and rows[r][c]:
                f = rows[r][c]
                rows[r] = [(a - f * b) % q for a, b in zip(rows[r], rows[c])]
    return len(table), sum(map(sum, rows))


def timed(calls):
    """Seconds that `calls` kernel() calls take."""
    t0 = time.perf_counter()
    for _ in range(calls):
        kernel()
    return time.perf_counter() - t0
