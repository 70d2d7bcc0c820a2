"""Matrices as flat coordinate tuples against the entrywise oracle they replaced.

`Matrix` stores one flat integer tuple and multiplies through the compiled
structure constants of M_n(R) (`FiniteLocalRing._matmul`).  The oracle is the
former representation: a matrix is its rows of `RingElement`s, each entry of a
product is one multiply-accumulate over a row and a column (`_dot`, the
former per-entry kernel) at the least precision in that row, that column and
m, and sums and differences go entry by entry.  Coefficients must agree
everywhere; a matrix carries the least precision of its entries, which is
the least over the oracle's entries.
"""

from __future__ import annotations

from functools import lru_cache

from hypothesis import given, settings
from hypothesis import strategies as st

from defring.local_ring import (FiniteLocalRing, RingElement, build_galois_ring,
                                ring_from_truncated_presentation)
from defring.matrices import Matrix
from test_local_ring import _pres, oracle_ring


def _dot(ring: FiniteLocalRing, pairs):
    """Canonical flat coordinates of sum_k a_k * b_k: every x * y * s of the
    structure constants into one integer accumulator, reduced once per
    coordinate."""
    acc = [0] * len(ring._mods)
    for a, b in pairs:
        for I, x in enumerate(a):
            for J, y in enumerate(b):
                for K, s in ring._table[I][J]:
                    acc[K] += x * y * s
    return tuple([v % md for v, md in zip(acc, ring._mods)])


def _oracle_product(ring: FiniteLocalRing, A, B):
    m = ring.base.m
    cols = list(zip(*B))
    return [[RingElement._canonical(
        ring, _dot(ring, [(a.flat, b.flat) for a, b in zip(row, col)]),
        min(m, *[a.prec for a in row], *[b.prec for b in col])) for col in cols]
        for row in A]


def _oracle_entrywise(A, B, op):
    return [[op(a, b) for a, b in zip(r1, r2)] for r1, r2 in zip(A, B)]


def _oracle_key(A):
    return tuple(x for row in A for a in row for x in a.key())


PRODUCT_RINGS = {
    "GR(8,1)": lambda: build_galois_ring(2, 3, 1),
    # r = 2: two flat coordinates per basis vector
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


def _rows(ring: FiniteLocalRing, n: int, draw):
    """Rows of entries: random, with their own precisions in a precision-mode
    ring, or those of the zero or identity matrix."""
    kind = draw(st.sampled_from(["entries", "zero", "identity"]))
    if kind == "zero":
        return [[ring.zero] * n for _ in range(n)]
    if kind == "identity":
        return [[ring.one if i == j else ring.zero for j in range(n)] for i in range(n)]
    W = ring.base
    coeff = st.integers(0, W.q - 1)
    prec = st.integers(1, W.m) if ring.mode == "precision" else st.none()
    vec = st.lists(st.tuples(*[coeff] * W.r), min_size=ring.N, max_size=ring.N)
    return [[RingElement(ring, [c for a in draw(vec) for c in a], draw(prec)) for _ in range(n)]
            for _ in range(n)]


def _coeffs(rows):
    return [a.flat for row in rows for a in row]


def _agree(M: Matrix, rows) -> bool:
    """M holds the oracle's coefficients, its least precision, and a `rows`
    view whose canonical entries all carry that precision."""
    return (_coeffs(M.rows) == _coeffs(rows)
            and M.prec == min(a.prec for row in rows for a in row)
            and all(a.prec == M.prec and a.flat == M.ring._canon(a.flat)
                    for row in M.rows for a in row))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(PRODUCT_RINGS)), st.integers(1, 3), st.data())
def test_product_matches_entry_by_entry_oracle(name, n, data):
    R = product_ring(name)
    rows_a, rows_b = _rows(R, n, data.draw), _rows(R, n, data.draw)
    A, B = Matrix(R, rows_a), Matrix(R, rows_b)
    assert _agree(A * B, _oracle_product(R, rows_a, rows_b))
    assert _agree(A + B, _oracle_entrywise(rows_a, rows_b, RingElement.__add__))
    assert _agree(A - B, _oracle_entrywise(rows_a, rows_b, RingElement.__sub__))
    assert (A == B) == (_coeffs(rows_a) == _coeffs(rows_b))
    assert A.key() == _oracle_key(rows_a) and B.key() == _oracle_key(rows_b)
    # the rows view round trip rebuilds the same matrix, equal and hashed alike
    again = Matrix(R, A.rows)
    assert again == A and again.key() == A.key() and again.prec == A.prec
    assert hash(again) == hash(A) == hash(_oracle_key(rows_a))
    assert _agree(A, rows_a)


def test_mixed_entry_precisions_give_the_least():
    R = product_ring("(Z/2^6)[X]/(X^2-2), precision")
    x, y = R.from_int(3, 5), RingElement(R, [1, 2], 2)
    M = Matrix(R, [[x, R.one], [R.zero, y]])
    assert M.prec == 2 and [a.prec for row in M.rows for a in row] == [2] * 4
    assert (M * Matrix.identity(R, 2)).prec == 2 and (M + M).prec == 2
    assert Matrix.identity(R, 2).prec == 6
    assert Matrix(R, [[R.from_int(1, 9)]]).prec == 6  # capped at m
