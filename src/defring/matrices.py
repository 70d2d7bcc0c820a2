"""Square matrices over a FiniteLocalRing.

A matrix is one flat tuple of its entries' flat coordinates (`RingElement.flat`),
row-major and entry-major, plus one precision.
Products run on the compiled structure constants of M_n(R)
(`FiniteLocalRing._matmul`); sums, differences, equality, keys and hashes act
on the tuple, and no `RingElement` is built until `rows` is read.

Invertibility over a local ring is detected on the residue field, so Gaussian
elimination with unit pivots always succeeds for invertible input.
"""

from __future__ import annotations

from itertools import cycle
from typing import List, Sequence, Tuple

from .local_ring import FiniteLocalRing, NonUnitError, RingElement


class Matrix:
    """Immutable n x n matrix over R, stored as its flat coordinate tuple.

    It carries the least precision of its entries (capped at m), and a sum,
    difference or product the least of its operands'; `rows` is a view whose
    entries, built on first read, all carry it.  Entries of one precision, as
    in every matrix the library builds, lose nothing by this; with mixed ones a
    lower precision can only make `exact_divide` raise earlier, never answer wrongly.
    """

    __slots__ = ("ring", "n", "flat", "prec", "_rows")

    def __init__(self, ring: FiniteLocalRing, rows: Sequence[Sequence[RingElement]]):
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise ValueError("matrix must be square")
        entries = [a for row in rows for a in row]
        self.ring, self.n, self._rows = ring, n, None
        self.flat = tuple([x for a in entries for x in a.flat])
        self.prec = min([ring.base.m] + [a.prec for a in entries])

    @classmethod
    def _adopt(cls, ring: FiniteLocalRing, n: int, flat: Tuple[int, ...],
               prec: int) -> "Matrix":
        """Adopt a canonical flat tuple of n^2 entries without copying or checking it."""
        out = cls.__new__(cls)
        out.ring, out.n, out.flat, out.prec, out._rows = ring, n, flat, prec, None
        return out

    @classmethod
    def identity(cls, ring: FiniteLocalRing, n: int) -> "Matrix":
        one, zero = ring.one.flat, ring.zero.flat
        return cls._adopt(ring, n, tuple([x for i in range(n) for j in range(n)
                                          for x in (one if i == j else zero)]), ring.base.m)

    @classmethod
    def zero(cls, ring: FiniteLocalRing, n: int) -> "Matrix":
        return cls._adopt(ring, n, (0,) * (n * n * len(ring._mods)), ring.base.m)

    def entry_coeffs(self) -> List[Tuple[int, ...]]:
        """Each entry's canonical flat coordinates, row-major, with no element built."""
        w = len(self.ring._mods)
        return [self.flat[u:u + w] for u in range(0, len(self.flat), w)]

    @property
    def rows(self) -> Tuple[Tuple[RingElement, ...], ...]:
        """The entries as `RingElement`s at the matrix's precision, built on first read."""
        if self._rows is None:
            n = self.n
            es = [RingElement._canonical(self.ring, c, self.prec) for c in self.entry_coeffs()]
            self._rows = tuple([tuple(es[i:i + n]) for i in range(0, n * n, n)])
        return self._rows

    def __add__(self, other: "Matrix") -> "Matrix":
        return Matrix._adopt(self.ring, self.n, tuple([
            (x + y) % md for x, y, md in zip(self.flat, other.flat, cycle(self.ring._mods))]),
            min(self.prec, other.prec))

    def __sub__(self, other: "Matrix") -> "Matrix":
        return Matrix._adopt(self.ring, self.n, tuple([
            (x - y) % md for x, y, md in zip(self.flat, other.flat, cycle(self.ring._mods))]),
            min(self.prec, other.prec))

    def __mul__(self, other: "Matrix") -> "Matrix":
        return Matrix._adopt(self.ring, self.n,
                             self.ring._matmul(self.n, self.flat, other.flat),
                             min(self.prec, other.prec))

    def scale(self, c: RingElement) -> "Matrix":
        return Matrix(self.ring, [[c * a for a in row] for row in self.rows])

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
        """Coordinate-wise congruence modulo p^prec."""
        pk = self.ring.base.p ** prec
        return all((x - y) % pk == 0 for x, y in zip(self.flat, other.flat))

    def key(self) -> Tuple[int, ...]:
        return self.flat

    def __eq__(self, other) -> bool:
        return (isinstance(other, Matrix) and self.ring is other.ring
                and self.flat == other.flat)

    def __hash__(self):
        return hash(self.flat)

    def __repr__(self):
        body = "; ".join(", ".join(self.ring.describe_element(a) for a in row)
                         for row in self.rows)
        return f"[{body}]"

