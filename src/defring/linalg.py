"""Howell normal forms over GR(p^m, r).

GR(p^m, r) is a chain ring, so submodules of a finite module admit a canonical
echelon ("Howell") basis: every column has at most one pivot, pivot entries are
exact powers of p, and the form is closed under multiplication by p-powers.
Canonical coset representatives make membership tests, module quotients, kernel
computation and exact division uniform linear algebra.

The ambient module is a direct sum of W/p^{c_j} for per-column order exponents
c_j <= m; torsion columns are handled by adjoining the rows p^{c_j} e_j.
"""

from __future__ import annotations

from math import prod
from typing import List, Optional, Sequence, Tuple

from .galois import GaloisRing, GRElt

Vec = List[GRElt]


class HowellForm:
    """Canonical basis of the span of `rows` inside (W/p^{c_1}) x ... x (W/p^{c_n}).

    Entries are canonical coefficient tuples, integers in [0, p^m).  Each
    pivot row keeps the list of its nonzero entries, and a row operation runs
    over that list only: the zero entries of a pivot row, most of them in the
    sparse rows of a presentation, cost nothing.

    `size` is the span's cardinality.  The quotient module by the span has the
    coordinates `live_coords` on the `live` columns, of order exponents
    `quotient_orders()`.
    """

    def __init__(self, ring: GaloisRing, rows: Sequence[Sequence[GRElt]], ncols: int,
                 ambient_orders: Optional[Sequence[int]] = None):
        self.ring = ring
        self.ncols = ncols
        self.ambient_orders = tuple(ambient_orders) if ambient_orders is not None \
            else (ring.m,) * ncols
        self._compute([list(r) for r in rows])

    def _compute(self, pending: List[Vec]) -> None:
        W = self.ring
        m, p, zero = W.m, W.p, W.zero
        mul, sub = W.mul, W.sub
        n = self.ncols
        for j, c in enumerate(self.ambient_orders):
            if c < m:
                row = [zero] * n
                row[j] = W.from_int(p ** c)
                pending.append(row)
        pivots: dict[int, Vec] = {}
        pivval: dict[int, int] = {}
        # the nonzero entries (k, e) of each pivot row, k ascending
        support: dict[int, List[Tuple[int, GRElt]]] = {}

        def install(row: Vec, j: int, v: int) -> None:
            _, u = W.unit_part(row[j])
            nz = [(k, row[k]) for k in range(j, n) if row[k] != zero]
            if u != W.one:
                ui = W.inv(u)
                nz = [(k, mul(ui, e)) for k, e in nz]
                for k, e in nz:
                    row[k] = e
            pivots[j] = row
            pivval[j] = v
            support[j] = nz
            if v > 0:
                extra = W.from_int(p ** (m - v))
                multiple = [zero] * n
                for k, e in nz:
                    multiple[k] = mul(extra, e)
                pending.append(multiple)

        while pending:
            row = pending.pop()
            j = 0
            while j < n:
                e = row[j]
                if e == zero:
                    j += 1
                    continue
                v = W.val(e)
                if j not in pivots:
                    install(row, j, v)
                    break
                vj = pivval[j]
                if v >= vj:
                    q = W.divide_by_p_power(e, vj)
                    for k, pe in support[j]:
                        row[k] = sub(row[k], mul(q, pe))
                    # row[j] is now zero; rescan the same column index
                else:
                    old = pivots[j]
                    install(row, j, v)
                    pending.append(old)
                    break

        # canonicalize pivot rows against each other: row j is reduced by the
        # rows after it, which are not yet changed, so their supports hold
        cols = sorted(pivots)
        for i, j in enumerate(cols):
            row = pivots[j]
            changed = False
            for j2 in cols[i + 1:]:
                e = row[j2]
                if e == zero:
                    continue
                pv = p ** pivval[j2]
                q = tuple(c // pv for c in e)
                if q == zero:
                    continue
                for k, pe in support[j2]:
                    row[k] = sub(row[k], mul(q, pe))
                changed = True
            if changed:
                support[j] = [(k, row[k]) for k in range(j, n) if row[k] != zero]
        self.pivot_cols: Tuple[int, ...] = tuple(cols)
        self.pivot_vals: dict[int, int] = pivval
        self.rows: List[Vec] = [pivots[j] for j in cols]
        self._support = support
        # the quotient's coordinates: the columns of nonzero order; a column
        # without a pivot has the full order m
        self.live: Tuple[int, ...] = tuple([j for j in range(n)
                                            if j not in pivval or pivval[j] > 0])
        self.size = self.size_from(0)

    def size_from(self, col: int) -> int:
        """Cardinality of the span's elements that vanish on the columns before
        `col`: by the Howell property, the rows pivoted at or after col span them."""
        W = self.ring
        return prod([(W.p ** (self.ambient_orders[j] - self.pivot_vals[j])) ** W.r
                     for j in self.pivot_cols if j >= col])

    def reduce(self, vec: Sequence[GRElt]) -> Vec:
        """Canonical representative of vec modulo the span (and ambient orders)."""
        W = self.ring
        p, zero = W.p, W.zero
        mul, sub = W.mul, W.sub
        out = list(vec)
        for j in self.pivot_cols:
            e = out[j]
            if e == zero:
                continue
            pv = p ** self.pivot_vals[j]
            q = tuple(c // pv for c in e)
            if q == zero:
                continue
            for k, pe in self._support[j]:
                out[k] = sub(out[k], mul(q, pe))
        return out

    def live_coords(self, vec: Sequence[GRElt]) -> Vec:
        """Coordinates of vec in the quotient module: its canonical
        representative on the live columns (the others reduce to zero)."""
        red = self.reduce(vec)
        return [red[j] for j in self.live]

    def contains(self, vec: Sequence[GRElt]) -> bool:
        zero = self.ring.zero
        return all(e == zero for e in self.reduce(vec))

    def quotient_orders(self) -> Tuple[int, ...]:
        """Order exponent of each coordinate in the quotient module."""
        return tuple(self.pivot_vals.get(j, self.ambient_orders[j])
                     for j in range(self.ncols))


class LinearMapSolver:
    """Solve a*x = b and compute kernels for a W-linear map between torsion modules.

    The map is given by `images`: the image vector of each domain coordinate
    generator.  Internally works on augmented rows [image | domain coordinate].
    """

    def __init__(self, ring: GaloisRing, images: Sequence[Sequence[GRElt]],
                 image_ncols: int, image_orders: Optional[Sequence[int]] = None,
                 domain_orders: Optional[Sequence[int]] = None):
        W = ring
        self.ring = W
        self.nd = len(images)
        self.ni = image_ncols
        self.domain_orders = tuple(domain_orders) if domain_orders is not None \
            else (W.m,) * self.nd
        img_orders = tuple(image_orders) if image_orders is not None else (W.m,) * image_ncols
        rows = []
        for i, img in enumerate(images):
            aug = [W.zero] * self.nd
            aug[i] = W.one
            rows.append(list(img) + aug)
        # augmented ambient: image torsion applies, domain coefficients are free
        self.form = HowellForm(W, rows, image_ncols + self.nd,
                               list(img_orders) + [W.m] * self.nd)

    def solve(self, b: Sequence[GRElt]) -> Optional[Vec]:
        """A particular x with a*x = b in the image module, or None."""
        W = self.ring
        res = self.form.reduce(list(b) + [W.zero] * self.nd)
        if any(e != W.zero for e in res[:self.ni]):
            return None
        x = [W.neg(e) for e in res[self.ni:]]
        return self._canon_domain(x)

    def kernel_generators(self) -> List[Vec]:
        """Generators of {x : a*x = 0}, as domain vectors (may include torsion-trivial ones)."""
        W = self.ring
        gens = []
        for row in self.form.rows:
            if all(e == W.zero for e in row[:self.ni]):
                gens.append(self._canon_domain(row[self.ni:]))
        return gens

    def has_nonzero_kernel(self) -> bool:
        zero = self.ring.zero
        return any(any(e != zero for e in g) for g in self.kernel_generators())

    def _canon_domain(self, x: Sequence[GRElt]) -> Vec:
        p = self.ring.p
        out = []
        for e, c in zip(x, self.domain_orders):
            pc = p ** c
            out.append(tuple(v % pc for v in e))
        return out
