"""Ring elements as flat coordinate tuples against the nested arithmetic they replaced.

The oracle is the former `RingElement`: a tuple of N coefficients, each an
r-tuple in W, canonicalised coefficient by coefficient modulo p^{c_j}.  Its
sums, differences and multiples went coefficient by coefficient; its product
flattened both operands onto the coordinates I = r*i + u of `_table` (reading
the 1-tuples directly when r = 1), accumulated, reduced and packed the result
back into r-tuples.  Every operation of the flat element must give the same
coefficients, precision, zero test, equality, key and hash.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from defring.local_ring import FiniteLocalRing, RingElement
from test_local_ring import SUM_RINGS, _element_at, sum_ring


def _moduli(ring: FiniteLocalRing):
    return [ring.base.p ** c for c in ring.orders]


def nested_canon(ring: FiniteLocalRing, coeffs):
    return tuple(tuple(x % pc for x in a) for a, pc in zip(coeffs, _moduli(ring)))


def nested_add(ring, a, b):
    return tuple(tuple((x + y) % pc for x, y in zip(u, v))
                 for u, v, pc in zip(a, b, _moduli(ring)))


def nested_sub(ring, a, b):
    return tuple(tuple((x - y) % pc for x, y in zip(u, v))
                 for u, v, pc in zip(a, b, _moduli(ring)))


def nested_scale(ring, a, n):
    return tuple(tuple((n * x) % pc for x in u) for u, pc in zip(a, _moduli(ring)))


def nested_mul(ring, a, b):
    table, mods, r = ring._table, ring._mods, ring.base.r
    acc = [0] * len(mods)
    if r == 1:
        nzb = [(j, y) for j, (y,) in enumerate(b) if y]
        for i, (x,) in enumerate(a):
            if x:
                for j, y in nzb:
                    for k, s in table[i][j]:
                        acc[k] += x * y * s
    else:
        nzb = [(J, y) for J, y in enumerate(c for t in b for c in t) if y]
        for I, x in enumerate([c for t in a for c in t]):
            if x:
                for J, y in nzb:
                    for K, s in table[I][J]:
                        acc[K] += x * y * s
    return tuple(zip(*[iter([v % md for v, md in zip(acc, mods)])] * r))


def nested_pow(ring, a, e):
    out = nested_canon(ring, ring.one.coefficients())
    for _ in range(e):
        out = nested_mul(ring, out, a)
    return out


def nested_is_zero(ring, a):
    return all(u == ring.base.zero for u in a)


def nested_key(a):
    return tuple(x for u in a for x in u)


def nested_agrees_at(ring, a, b, prec):
    pk = ring.base.p ** prec
    return all(tuple(x % pk for x in u) == tuple(y % pk for y in v) for u, v in zip(a, b))


def _nested(x: RingElement):
    """x's coefficients, read off the coefficient view and checked as the oracle's."""
    coeffs = tuple(x.coefficients())
    assert coeffs == nested_canon(x.ring, coeffs)
    assert all(len(u) == x.ring.base.r for u in coeffs) and len(coeffs) == x.ring.N
    return coeffs


# SUM_RINGS: r = 1 and r = 2, mixed orders p^{c_j} ((Z/8)[X]/(X^2,2X)) and a
# precision-mode ring
@settings(max_examples=150, deadline=None)
@given(st.sampled_from(SUM_RINGS), st.data(),
       st.one_of(st.integers(-9, 9), st.integers(-10 ** 40, 10 ** 40)), st.integers(0, 6))
def test_flat_arithmetic_matches_nested_oracle(name, data, n, e):
    R = sum_ring(name)
    x, y = _element_at(R, data.draw), _element_at(R, data.draw)
    a, b = _nested(x), _nested(y)
    both = min(x.prec, y.prec)
    cases = [(x + y, nested_add(R, a, b), both),
             (x - y, nested_sub(R, a, b), both),
             (-x, nested_scale(R, a, -1), x.prec),
             (x.scale_int(n), nested_scale(R, a, n), x.prec),
             (x * y, nested_mul(R, a, b), both),
             (x ** e, nested_pow(R, a, e), x.prec if e else R.base.m)]
    for got, coeffs, prec in cases:
        assert _nested(got) == coeffs
        assert got.key() == got.flat == nested_key(coeffs)
        assert got.prec == prec
    for u, v in [(x, y), (x, x), (x - x, R.zero), (x.scale_int(n), x)]:
        cu, cv = _nested(u), _nested(v)
        assert u.is_zero() == nested_is_zero(R, cu)
        assert (u == v) == (cu == cv)
        if u == v:
            assert hash(u) == hash(v)
        for k in range(R.base.m + 1):
            assert u.agrees_at(v, k) == nested_agrees_at(R, cu, cv, k)
    # rebuilding from the coefficient view gives the same element
    twin = RingElement(R, [c for u in x.coefficients() for c in u], x.prec)
    assert twin == x and hash(twin) == hash(x) and twin.flat == x.flat
