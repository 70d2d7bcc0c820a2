"""Square matrices over a FiniteLocalRing.

Invertibility over a local ring is detected on the residue field, so Gaussian
elimination with unit pivots always succeeds for invertible input.  Matrices
carry a deterministic flat integer key for canonical orderings.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from .local_ring import FiniteLocalRing, NonUnitError, RingElement


class Matrix:
    """Immutable n x n matrix with RingElement entries."""

    __slots__ = ("ring", "n", "rows")

    def __init__(self, ring: FiniteLocalRing, rows: Sequence[Sequence[RingElement]]):
        self.ring = ring
        self.n = len(rows)
        self.rows: Tuple[Tuple[RingElement, ...], ...] = tuple(
            tuple(row) for row in rows)
        for row in self.rows:
            if len(row) != self.n:
                raise ValueError("matrix must be square")

    @classmethod
    def _adopt(cls, ring: FiniteLocalRing,
               rows: Tuple[Tuple[RingElement, ...], ...]) -> "Matrix":
        """Adopt row tuples whose square shape the caller already knows,
        without copying or checking them."""
        out = cls.__new__(cls)
        out.ring = ring
        out.n = len(rows)
        out.rows = rows
        return out

    @classmethod
    def identity(cls, ring: FiniteLocalRing, n: int) -> "Matrix":
        return cls(ring, [[ring.one if i == j else ring.zero for j in range(n)]
                          for i in range(n)])

    @classmethod
    def zero(cls, ring: FiniteLocalRing, n: int) -> "Matrix":
        return cls(ring, [[ring.zero] * n for _ in range(n)])

    def __add__(self, other: "Matrix") -> "Matrix":
        return Matrix._adopt(self.ring, tuple(tuple([a + b for a, b in zip(r1, r2)])
                                              for r1, r2 in zip(self.rows, other.rows)))

    def __sub__(self, other: "Matrix") -> "Matrix":
        return Matrix._adopt(self.ring, tuple(tuple([a - b for a, b in zip(r1, r2)])
                                              for r1, r2 in zip(self.rows, other.rows)))

    def __mul__(self, other: "Matrix") -> "Matrix":
        """Entry (i, j) is one `_dot` over row i and column j, at the least
        precision in that row, that column and m, as summing from zero gives."""
        ring = self.ring
        m = ring.base.m
        cols = list(zip(*other.rows))
        col_precs = [min(m, *[b.prec for b in col]) for col in cols]
        out = []
        for row in self.rows:
            row_prec = min(m, *[a.prec for a in row])
            out.append(tuple([RingElement._canonical(
                ring, ring._dot([(a.coeffs, b.coeffs) for a, b in zip(row, col)]),
                min(row_prec, col_prec)) for col, col_prec in zip(cols, col_precs)]))
        return Matrix._adopt(ring, tuple(out))

    def scale(self, c: RingElement) -> "Matrix":
        return Matrix(self.ring, [[c * a for a in row] for row in self.rows])

    def scale_int(self, m: int) -> "Matrix":
        return Matrix(self.ring, [[a.scale_int(m) for a in row] for row in self.rows])

    def transfer(self, target: FiniteLocalRing, fn) -> "Matrix":
        return Matrix(target, [[fn(a) for a in row] for row in self.rows])

    def is_invertible(self) -> bool:
        try:
            self.inverse()
            return True
        except NonUnitError:
            return False

    def inverse(self) -> "Matrix":
        """Gauss-Jordan with unit pivots; raises NonUnitError when singular."""
        n = self.n
        ring = self.ring
        a = [list(row) for row in self.rows]
        b = [[ring.one if i == j else ring.zero for j in range(n)] for i in range(n)]
        for col in range(n):
            piv = None
            for i in range(col, n):
                if a[i][col].is_unit():
                    piv = i
                    break
            if piv is None:
                raise NonUnitError("matrix is singular over the local ring")
            a[col], a[piv] = a[piv], a[col]
            b[col], b[piv] = b[piv], b[col]
            inv = ring.invert(a[col][col])
            a[col] = [inv * x for x in a[col]]
            b[col] = [inv * x for x in b[col]]
            for i in range(n):
                if i != col and not a[i][col].is_zero():
                    c = a[i][col]
                    a[i] = [x - c * y for x, y in zip(a[i], a[col])]
                    b[i] = [x - c * y for x, y in zip(b[i], b[col])]
        return Matrix(ring, b)

    def agrees_at(self, other: "Matrix", prec: int) -> bool:
        return all(a.agrees_at(b, prec)
                   for r1, r2 in zip(self.rows, other.rows)
                   for a, b in zip(r1, r2))

    def key(self) -> Tuple[int, ...]:
        return tuple(x for row in self.rows for a in row for x in a.key())

    def __eq__(self, other) -> bool:
        return (isinstance(other, Matrix) and self.ring is other.ring
                and self.rows == other.rows)

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        body = "; ".join(", ".join(self.ring.describe_element(a) for a in row)
                         for row in self.rows)
        return f"[{body}]"
