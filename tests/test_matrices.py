"""Matrix products against the entry-by-entry oracle they replaced.

`Matrix.__mul__` builds each entry with one `FiniteLocalRing._dot` over a row
and a column.  `_matrix_product_by_entries` is the former product: each entry
summed from the ring's zero one `RingElement` product at a time.  Both the
coefficients and the precision of every entry must agree.
"""

from __future__ import annotations

from functools import lru_cache

from hypothesis import given, settings
from hypothesis import strategies as st

from defring.local_ring import (FiniteLocalRing, build_galois_ring,
                                ring_from_truncated_presentation)
from defring.matrices import Matrix
from test_local_ring import _pres, oracle_ring


def _matrix_product_by_entries(A: Matrix, B: Matrix) -> Matrix:
    n = A.n
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = A.ring.zero
            for k in range(n):
                acc = acc + A.rows[i][k] * B.rows[k][j]
            row.append(acc)
        out.append(row)
    return Matrix(A.ring, out)


PRODUCT_RINGS = {
    "GR(8,1)": lambda: build_galois_ring(2, 3, 1),
    # r = 2: the kernel's flat-coordinate branch
    "GR(4,2)": lambda: build_galois_ring(2, 2, 2),
    # additive orders (3, 1): each coordinate has its own modulus
    "(Z/8)[X]/(X^2,2X)": lambda: oracle_ring("(Z/8)[X]/(X^2,2X)"),
    "r_alpha(1)": lambda: oracle_ring("r_alpha(1)"),
    "GR(8,2)[X]/(X^2-2)": lambda: oracle_ring("GR(8,2)[X]/(X^2-2)"),
    # entries carry their own precisions, 1..6
    "(Z/2^6)[X]/(X^2-2), precision": lambda: ring_from_truncated_presentation(
        _pres(2, ["X"], ["X^2 - 2"]), 6, mode="precision"),
}


@lru_cache(maxsize=None)
def product_ring(name: str) -> FiniteLocalRing:
    return PRODUCT_RINGS[name]()


def _matrix(ring: FiniteLocalRing, n: int, draw) -> Matrix:
    kind = draw(st.sampled_from(["entries", "zero", "identity"]))
    if kind == "zero":
        return Matrix.zero(ring, n)
    if kind == "identity":
        return Matrix.identity(ring, n)
    W = ring.base
    coeff = st.integers(0, W.q - 1)
    prec = st.integers(1, W.m) if ring.mode == "precision" else st.none()
    vec = st.lists(st.tuples(*[coeff] * W.r), min_size=ring.N, max_size=ring.N)
    return Matrix(ring, [[ring.element(draw(vec), draw(prec)) for _ in range(n)]
                         for _ in range(n)])


def _entries(M: Matrix):
    return [(a.coeffs, a.prec) for row in M.rows for a in row]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(PRODUCT_RINGS)), st.integers(1, 3), st.data())
def test_product_matches_entry_by_entry_oracle(name, n, data):
    R = product_ring(name)
    A = _matrix(R, n, data.draw)
    B = _matrix(R, n, data.draw)
    C = A * B
    assert _entries(C) == _entries(_matrix_product_by_entries(A, B))
    assert all(a.coeffs == R._canon(a.coeffs) for row in C.rows for a in row)

