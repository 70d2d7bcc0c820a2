"""The reference unit: a fixed pure-Python computation that measures machine speed.

A shared machine runs the same code 30-80 % slower in some stretches than in
others, for seconds or for whole minutes.  The timed worker therefore runs
`unit()` about every SAMPLE_PERIOD_S seconds from a SIGALRM handler (in its
only thread, between bytecodes of the job) and divides each job's time by the
harmonic mean time of the units run just before, during and just after it.  The
quotient counts the job's cost in reference units, which the slow stretches
move much less than raw seconds.

`unit()` exercises what defring's jobs spend their time on: small-integer
arithmetic modulo a prime power over tuples, dict lookups keyed by tuples, and
`Fraction` arithmetic.  It depends on nothing in `src/`, so a change to defring
cannot change it.  Changing it changes the scale of every scaled metric, so a
change to this file must be measured against a parent with the same file.
"""

from __future__ import annotations

from fractions import Fraction

# Scaled times are reported in seconds of a machine on which one unit() takes
# this long: about its fastest time on a 2-vCPU Xeon VM under Python 3.11.
UNIT_S = 1e-3
SAMPLE_PERIOD_S = 0.2


def unit() -> int:
    p = 64
    a = tuple(range(1, 9))
    b = tuple(range(3, 11))
    seen = {}
    acc = 0
    for k in range(60):
        c = [0] * 15
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                c[i + j] = (c[i + j] + x * y) % p
        t = tuple(c)
        seen[t] = seen.get(t, 0) + 1
        a = t[:8]
        b = tuple((v + k) % p for v in t[7:15])
        acc += sum(t)
    f = Fraction(1, 3)
    for k in range(1, 40):
        f = f * Fraction(k, k + 2) + Fraction(1, k)
    return acc + len(seen) + f.numerator % 7
