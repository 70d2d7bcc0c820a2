"""Howell normal forms over GR(p^m, r), on flat integer rows.

GR(p^m, r) is a chain ring, so submodules of a finite module admit a canonical
echelon ("Howell") basis: every column has at most one pivot, pivot entries are
exact powers of p, and the form is closed under multiplication by p-powers.
Canonical coset representatives make membership tests, module quotients, kernel
computation and exact division uniform linear algebra.

The ambient module is a direct sum of W/p^{c_j} for per-column order exponents
c_j <= m; torsion columns are handled by adjoining the rows p^{c_j} e_j.

A vector of n entries over W is one flat list of n*r integers in [0, p^m):
entry j is its coefficients on 1, Y, ..., Y^{r-1} at the positions r*j ...
r*j + r - 1, the layout of `RingElement.flat` and `Matrix.flat`.  Rows go in
and come out in that layout; only the renderers read per-entry coefficients.
"""

from __future__ import annotations

from math import prod
from typing import Dict, List, Optional, Sequence, Tuple

from .galois import GaloisRing

Vec = List[int]
# for each u < r, the nonzero flat coordinates (K, c) of Y^u times a pivot row
Terms = Tuple[Tuple[Tuple[int, int], ...], ...]


def _terms(W: GaloisRing, row: Sequence[int], J: int) -> Terms:
    """The `Terms` of a row whose coordinates before J are zero."""
    tail = row[J:]
    return tuple(tuple([(K, c) for K, c in enumerate(y_tail, J) if c])
                 for y_tail in [tail] + [W.scale(y, tail) for y in W.monos[1:]])


class HowellForm:
    """Canonical basis of the span of `rows` inside (W/p^{c_1}) x ... x (W/p^{c_n}).

    Rows are flat (see the module docstring).  A pivot row at column j has
    the entry exactly p^v there, and keeps in `terms[j]`, for each u < r, the
    nonzero flat coordinates of Y^u times itself, compiled when it is
    installed; Y^u times the row is p^v at coordinate r*j + u alone in column
    j.  So clearing an entry p^v q, q = sum q_u Y^u, reads q_u one coordinate
    at a time and subtracts q_u (Y^u row): integer multiply-adds over the
    nonzero coordinates of the pivot row, with no product in W.

    `size` is the span's cardinality.  The quotient module by the span has the
    coordinates `live_coords` on the `live` columns (the flat coordinates
    `live_flat`), of order exponents `quotient_orders()`.
    """

    def __init__(self, ring: GaloisRing, rows: Sequence[Sequence[int]], ncols: int,
                 ambient_orders: Optional[Sequence[int]] = None):
        self.ring = ring
        self.ncols = ncols
        self.ambient_orders = tuple(ambient_orders) if ambient_orders is not None \
            else (ring.m,) * ncols
        self._compute([list(r) for r in rows])

    def _compute(self, pending: List[Vec]) -> None:
        W = self.ring
        m, p, r, pm = W.m, W.p, W.r, W.q
        width = self.ncols * r
        for j, c in enumerate(self.ambient_orders):
            if c < m:
                row = [0] * width
                row[r * j] = p ** c
                pending.append(row)
        pivots: Dict[int, Vec] = {}
        pivval: Dict[int, int] = {}
        terms: Dict[int, Terms] = {}

        def install(row: Vec, j: int, v: int) -> None:
            pv = p ** v
            u = tuple([c // pv for c in row[r * j:r * j + r]])
            if u != W.one:
                row[:] = W.scale(W.inv(u), row)
            pivots[j] = row
            pivval[j] = v
            terms[j] = _terms(W, row, r * j)
            if v > 0:
                extra = p ** (m - v)
                multiple = [0] * width
                for K, c in terms[j][0]:
                    multiple[K] = c * extra % pm
                pending.append(multiple)

        while pending:
            row = pending.pop()
            I = 0
            while I < width:
                if not row[I]:
                    I += 1
                    continue
                j = I // r
                J = r * j
                v = W.val(row[J:J + r])
                vj = pivval.get(j)
                if vj is None:
                    install(row, j, v)
                    break
                if v >= vj:
                    pv = p ** vj
                    for K0, ts in enumerate(terms[j], J):
                        q = row[K0] // pv
                        if q:
                            for K, c in ts:
                                row[K] = (row[K] - q * c) % pm
                    # entry j is now zero
                    I = J + r
                else:
                    old = pivots[j]
                    install(row, j, v)
                    pending.append(old)
                    break

        # canonicalize pivot rows against each other: row j is reduced by the
        # rows after it, which are not yet changed, so their steps hold.  A
        # reduction's steps are, in column order, each pivot coordinate
        # r*j + u with p^v and the terms of Y^u times the pivot row
        cols = sorted(pivots)

        def reduction_steps() -> List[Tuple[int, int, Tuple]]:
            return [(K0, p ** pivval[j], ts) for j in cols
                    for K0, ts in enumerate(terms[j], r * j)]
        steps = reduction_steps()
        for i, j in enumerate(cols):
            row = pivots[j]
            changed = False
            for K0, pv, ts in steps[r * (i + 1):]:
                q = row[K0] // pv
                if q:
                    for K, c in ts:
                        row[K] = (row[K] - q * c) % pm
                    changed = True
            if changed:
                terms[j] = _terms(W, row, r * j)
        self.pivot_cols: Tuple[int, ...] = tuple(cols)
        self.pivot_vals: Dict[int, int] = pivval
        self.rows: List[Vec] = [pivots[j] for j in cols]
        self.terms: Dict[int, Terms] = terms
        self._steps = reduction_steps()
        # the quotient's coordinates: the columns of nonzero order; a column
        # without a pivot has the full order m
        self.live: Tuple[int, ...] = tuple([j for j in range(self.ncols)
                                            if j not in pivval or pivval[j] > 0])
        self.live_flat = [r * j + u for j in self.live for u in range(r)]
        self.size = self.size_from(0)

    def size_from(self, col: int) -> int:
        """Cardinality of the span's elements that vanish on the columns before
        `col`: by the Howell property, the rows pivoted at or after col span them."""
        W = self.ring
        return prod([(W.p ** (self.ambient_orders[j] - self.pivot_vals[j])) ** W.r
                     for j in self.pivot_cols if j >= col])

    def reduce(self, vec: Sequence[int]) -> Vec:
        """Canonical representative of vec modulo the span (and ambient orders)."""
        pm = self.ring.q
        out = list(vec)
        for K0, pv, ts in self._steps:
            q = out[K0] // pv
            if q:
                for K, c in ts:
                    out[K] = (out[K] - q * c) % pm
        return out

    def live_coords(self, vec: Sequence[int]) -> Vec:
        """Coordinates of vec in the quotient module: its canonical
        representative on the live columns (the others reduce to zero)."""
        red = self.reduce(vec)
        return [red[K] for K in self.live_flat]

    def contains(self, vec: Sequence[int]) -> bool:
        return not any(self.reduce(vec))

    def quotient_orders(self) -> Tuple[int, ...]:
        """Order exponent of each coordinate in the quotient module."""
        return tuple(self.pivot_vals.get(j, self.ambient_orders[j])
                     for j in range(self.ncols))


class LinearMapSolver:
    """Solve a*x = b and compute kernels for a W-linear map between torsion modules.

    The map is given by `images`: the flat image vector of each domain
    coordinate generator.  Internally works on augmented rows [image | domain
    coordinate]; solutions and kernel vectors are flat domain vectors.
    """

    def __init__(self, ring: GaloisRing, images: Sequence[Sequence[int]],
                 image_ncols: int, image_orders: Optional[Sequence[int]] = None,
                 domain_orders: Optional[Sequence[int]] = None):
        W = self.ring = ring
        r = W.r
        self.nd = len(images)
        self.ni = image_ncols
        self.domain_orders = tuple(domain_orders) if domain_orders is not None \
            else (W.m,) * self.nd
        self._mods = tuple(W.p ** c for c in self.domain_orders for _ in range(r))
        img_orders = tuple(image_orders) if image_orders is not None else (W.m,) * image_ncols
        rows = []
        for i, img in enumerate(images):
            aug = [0] * (self.nd * r)
            aug[r * i] = 1
            rows.append(list(img) + aug)
        # augmented ambient: image torsion applies, domain coefficients are free
        self.form = HowellForm(W, rows, image_ncols + self.nd,
                               list(img_orders) + [W.m] * self.nd)

    def solve(self, b: Sequence[int]) -> Optional[Vec]:
        """A particular x with a*x = b in the image module, or None."""
        w = self.ni * self.ring.r
        res = self.form.reduce(list(b) + [0] * len(self._mods))
        if any(res[:w]):
            return None
        return [-x % md for x, md in zip(res[w:], self._mods)]

    def kernel_generators(self) -> List[Vec]:
        """Generators of {x : a*x = 0}, as domain vectors (may include torsion-trivial ones)."""
        w = self.ni * self.ring.r
        return [[x % md for x, md in zip(row[w:], self._mods)]
                for row in self.form.rows if not any(row[:w])]

    def has_nonzero_kernel(self) -> bool:
        return any(any(g) for g in self.kernel_generators())
