"""Howell forms and linear solves on flat integer rows, against brute-force
spans and against a dense oracle on rows of per-entry coefficient tuples.

A vector of n entries over W = GR(p^m, r) is given to `HowellForm` and
`LinearMapSolver` as n*r integers, entry j at r*j ... r*j + r - 1; the
oracles here work on tuples of r-tuples (`GRElt`), and `_flat` and
`_entries` convert between the two.
"""

from __future__ import annotations

import functools
import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defring.galois import GaloisRing
from defring.linalg import HowellForm, LinearMapSolver


def _flat(vec):
    return [c for e in vec for c in e]


def _entries(W, flat):
    return [tuple(flat[i:i + W.r]) for i in range(0, len(flat), W.r)]


def _span(ring: GaloisRing, rows, ncols):
    """Brute-force additive closure of the rows under ring scaling (oracle)."""
    span = {tuple(ring.zero for _ in range(ncols))}
    frontier = list(span)
    while frontier:
        vec = frontier.pop()
        for row in rows:
            new = tuple(ring.add(v, r) for v, r in zip(vec, row))
            if new not in span:
                span.add(new)
                frontier.append(new)
    # close under every scalar multiple of every member
    scalars = list(ring.elements())
    changed = True
    while changed:
        changed = False
        for vec in list(span):
            for c in scalars:
                new = tuple(ring.mul(c, v) for v in vec)
                if new not in span:
                    span.add(new)
                    changed = True
    # and re-close additively
    frontier = list(span)
    while frontier:
        vec = frontier.pop()
        for other in list(span):
            new = tuple(ring.add(v, o) for v, o in zip(vec, other))
            if new not in span:
                span.add(new)
                frontier.append(new)
    return span


def test_howell_membership_matches_bruteforce_span():
    ring = GaloisRing(2, 3, 1)  # Z/8
    rng = random.Random(7)
    for _ in range(12):
        nrows, ncols = rng.randint(1, 3), rng.randint(1, 3)
        rows = [tuple(ring.from_int(rng.randrange(8)) for _ in range(ncols))
                for _ in range(nrows)]
        span = _span(ring, rows, ncols)
        H = HowellForm(ring, [_flat(row) for row in rows], ncols)
        for vec in itertools.product([ring.from_int(c) for c in range(8)],
                                     repeat=ncols):
            assert H.contains(_flat(vec)) == (vec in span)
        assert H.size == len(span)
        # column j is dead iff the span holds a vector whose first nonzero
        # entry is a unit at j: reduction then clears j in every vector
        dead = {j for j in range(ncols) for v in span
                if all(e == ring.zero for e in v[:j]) and ring.val(v[j]) == 0}
        assert H.live == tuple(j for j in range(ncols) if j not in dead)


def test_howell_reduce_is_canonical():
    """Two vectors reduce to the same thing iff they differ by the span."""
    ring = GaloisRing(3, 2, 1)  # Z/9
    rows = [(ring.from_int(3), ring.from_int(1)),
            (ring.from_int(0), ring.from_int(3))]
    H = HowellForm(ring, [_flat(row) for row in rows], 2)
    span = _span(ring, rows, 2)
    all_vecs = list(itertools.product(
        [ring.from_int(c) for c in range(9)], repeat=2))
    for a in all_vecs:
        ra = H.reduce(_flat(a))
        assert tuple(ring.sub(x, y) for x, y in zip(a, _entries(ring, ra))) in span
        for b in all_vecs:
            diff = tuple(ring.sub(x, y) for x, y in zip(a, b))
            if diff in span:
                assert H.reduce(_flat(b)) == ra


def test_quotient_orders_of_p_times_identity():
    ring = GaloisRing(2, 3, 1)
    H = HowellForm(ring, [[2, 0], [0, 4]], 2)
    # quotient is Z/2 x Z/4 -> torsion exponents (1, 2)
    assert H.quotient_orders() == (1, 2)


def test_quotient_module_normal_form_idempotent():
    ring = GaloisRing(2, 2, 1)
    H = HowellForm(ring, [[2, 1, 0]], 3)
    for vec in itertools.product(range(4), repeat=3):
        nf = H.reduce(vec)
        assert H.reduce(nf) == nf
        assert H.contains([(a - b) % 4 for a, b in zip(vec, nf)])
        assert H.live_coords(vec) == [nf[j] for j in H.live]
        assert all(nf[j] == 0 for j in range(3) if j not in H.live)


def test_solver_solution_and_kernel():
    # over Z/8, the map (x, y) -> (2x + y, 4y)
    images = [[2, 0], [1, 4]]
    S = LinearMapSolver(GaloisRing(2, 3, 1), images, 2)

    def apply(x):
        return [sum(c * img[i] for c, img in zip(x, images)) % 8 for i in range(2)]
    x = S.solve([5, 4])
    assert x is not None and apply(x) == [5, 4]
    assert S.solve([1, 1]) is None
    for kvec in S.kernel_generators():
        assert apply(kvec) == [0, 0]
    assert S.has_nonzero_kernel()


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(st.integers(0, 7), min_size=2, max_size=2),
                min_size=1, max_size=4))
def test_howell_contains_its_generators(rows):
    H = HowellForm(GaloisRing(2, 3, 1), rows, 2)
    for row in rows:
        assert H.contains(row)
        assert not any(H.reduce(row))


# -- the flat form against the dense form on coefficient tuples --------------


def _divide_by_p_power(W, a, v):
    """Coefficient-wise exact division by p^v; requires p^v | a."""
    pv = W.p ** v
    if any(c % pv for c in a):
        raise ValueError("element not divisible by requested power of p")
    return tuple(c // pv for c in a)


def _unit_part(W, a):
    """Write a = p^v * u with u a unit; returns (v, u).  a must be nonzero."""
    v = W.val(a)
    if v == W.m:
        raise ValueError("zero element has no unit part")
    return v, _divide_by_p_power(W, a, v)


def test_unit_part_factorization():
    W = GaloisRing(3, 3, 1)  # Z/27
    for n in range(1, 27):
        v, u = _unit_part(W, W.from_int(n))
        assert W.is_unit(u)
        assert W.mul(W.from_int(3 ** v), u) == W.from_int(n)


def test_divide_by_p_power_requires_divisibility():
    W = GaloisRing(2, 3, 1)
    assert _divide_by_p_power(W, W.from_int(4), 2) == W.one
    with pytest.raises(ValueError):
        _divide_by_p_power(W, W.from_int(2), 2)


class DenseHowellForm:
    """The Howell form on rows of coefficient tuples, one per entry, through
    `GaloisRing` products (oracle): every row operation runs over all
    columns from the pivot on, zero entries included."""

    def __init__(self, W, rows, ncols, ambient_orders=None):
        self.ring = W
        self.ncols = n = ncols
        self.ambient_orders = tuple(ambient_orders) if ambient_orders is not None \
            else (W.m,) * ncols
        m, p, zero = W.m, W.p, W.zero
        pending = [list(r) for r in rows]
        for j, c in enumerate(self.ambient_orders):
            if c < m:
                row = [zero] * n
                row[j] = W.from_int(p ** c)
                pending.append(row)
        pivots, pivval = {}, {}

        def install(row, j, v):
            _, u = _unit_part(W, row[j])
            if u != W.one:
                ui = W.inv(u)
                for k in range(j, n):
                    row[k] = W.mul(ui, row[k])
            pivots[j] = row
            pivval[j] = v
            if v > 0:
                extra = W.from_int(p ** (m - v))
                pending.append([W.mul(extra, e) for e in row])

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
                    q = _divide_by_p_power(W, e, vj)
                    prow = pivots[j]
                    for k in range(j, n):
                        row[k] = W.sub(row[k], W.mul(q, prow[k]))
                else:
                    old = pivots[j]
                    install(row, j, v)
                    pending.append(old)
                    break
        cols = sorted(pivots)
        for j in cols:
            row = pivots[j]
            for j2 in cols:
                if j2 <= j or row[j2] == zero:
                    continue
                pv = p ** pivval[j2]
                q = tuple(c // pv for c in row[j2])
                if q == zero:
                    continue
                prow = pivots[j2]
                for k in range(j2, n):
                    row[k] = W.sub(row[k], W.mul(q, prow[k]))
        self.pivot_cols = tuple(cols)
        self.pivot_vals = pivval
        self.rows = [pivots[j] for j in cols]
        self.live = tuple(j for j in range(n) if j not in pivval or pivval[j] > 0)
        self.size = math.prod((p ** (self.ambient_orders[j] - pivval[j])) ** W.r
                              for j in cols)

    def reduce(self, vec):
        W = self.ring
        out = list(vec)
        for j, prow in zip(self.pivot_cols, self.rows):
            if out[j] == W.zero:
                continue
            pv = W.p ** self.pivot_vals[j]
            q = tuple(c // pv for c in out[j])
            if q == W.zero:
                continue
            for k in range(j, self.ncols):
                out[k] = W.sub(out[k], W.mul(q, prow[k]))
        return out

    def live_coords(self, vec):
        red = self.reduce(vec)
        return [red[j] for j in self.live]

    def quotient_orders(self):
        return tuple(self.pivot_vals.get(j, self.ambient_orders[j])
                     for j in range(self.ncols))


class DenseLinearMapSolver:
    """`LinearMapSolver` on coefficient tuples over `DenseHowellForm` (oracle)."""

    def __init__(self, W, images, image_ncols, image_orders=None, domain_orders=None):
        self.ring, self.nd, self.ni = W, len(images), image_ncols
        self.domain_orders = tuple(domain_orders) if domain_orders is not None \
            else (W.m,) * self.nd
        img_orders = tuple(image_orders) if image_orders is not None else (W.m,) * image_ncols
        rows = []
        for i, img in enumerate(images):
            aug = [W.zero] * self.nd
            aug[i] = W.one
            rows.append(list(img) + aug)
        self.form = DenseHowellForm(W, rows, image_ncols + self.nd,
                                    list(img_orders) + [W.m] * self.nd)

    def solve(self, b):
        W = self.ring
        res = self.form.reduce(list(b) + [W.zero] * self.nd)
        if any(e != W.zero for e in res[:self.ni]):
            return None
        return self._canon_domain([W.sub(W.zero, e) for e in res[self.ni:]])

    def kernel_generators(self):
        W = self.ring
        return [self._canon_domain(row[self.ni:]) for row in self.form.rows
                if all(e == W.zero for e in row[:self.ni])]

    def _canon_domain(self, x):
        p = self.ring.p
        return [tuple(v % p ** c for v in e) for e, c in zip(x, self.domain_orders)]


@functools.lru_cache(maxsize=None)
def _galois(p, m, r):
    return GaloisRing(p, m, r)


@st.composite
def _howell_inputs(draw):
    """A Galois ring with r in {1, 2}, ambient orders (or none), sparse rows
    whose entries have every valuation, and vectors to reduce."""
    W = _galois(draw(st.sampled_from([2, 3])), draw(st.integers(1, 4)),
                draw(st.integers(1, 2)))
    n = draw(st.integers(1, 6))
    orders = draw(st.none() | st.lists(st.integers(1, W.m), min_size=n, max_size=n))
    unit_or_not = st.tuples(*[st.integers(0, W.q - 1)] * W.r)
    entry = st.just(W.zero) | st.builds(lambda e, v: W.mul(W.from_int(W.p ** v), e),
                                        unit_or_not, st.integers(0, W.m - 1))
    vector = st.lists(entry, min_size=n, max_size=n)
    rows = draw(st.lists(vector, max_size=7))
    return W, rows, n, orders, draw(st.lists(vector, min_size=1, max_size=3))


def _form_data(H):
    return (H.pivot_cols, H.pivot_vals, H.rows, H.live, H.size, H.quotient_orders())


def _flat_data(dense):
    """`_form_data` of the dense oracle, its rows flattened."""
    return (dense.pivot_cols, dense.pivot_vals, [_flat(row) for row in dense.rows],
            dense.live, dense.size, dense.quotient_orders())


@settings(max_examples=300, deadline=None)
@given(_howell_inputs(), st.randoms(use_true_random=False), st.data())
def test_sparse_howell_matches_dense_reference(inputs, rng, data):
    W, rows, n, orders, vectors = inputs
    dense = DenseHowellForm(W, rows, n, orders)
    flat_rows = [_flat(row) for row in rows]
    H = HowellForm(W, flat_rows, n, orders)
    assert _form_data(H) == _flat_data(dense)
    # each pivot row's terms are the nonzero coordinates of Y^u times it
    for j, row in zip(dense.pivot_cols, dense.rows):
        assert H.terms[j] == tuple(
            tuple((K, c) for K, c in enumerate(_flat([W.mul(y, e) for e in row])) if c)
            for y in W.monos)
    for vec in vectors:
        assert H.reduce(_flat(vec)) == _flat(dense.reduce(vec))
        assert H.live_coords(_flat(vec)) == _flat(dense.live_coords(vec))
    # canonical: the same form from the rows in any order ...
    shuffled = list(flat_rows)
    rng.shuffle(shuffled)
    assert _form_data(HowellForm(W, shuffled, n, orders)) == _flat_data(dense)
    # ... and from a prefix's form grown by the remaining rows
    cut = data.draw(st.integers(0, len(rows)))
    prefix = HowellForm(W, flat_rows[:cut], n, orders)
    grown = HowellForm(W, flat_rows[cut:] + prefix.rows, n, orders)
    assert _form_data(grown) == _flat_data(dense)
    # the rows as the images of a linear map, solved on the same vectors
    domain = data.draw(st.none() | st.lists(st.integers(1, W.m), min_size=len(rows),
                                             max_size=len(rows)))
    solver = LinearMapSolver(W, flat_rows, n, orders, domain)
    oracle = DenseLinearMapSolver(W, rows, n, orders, domain)
    assert solver.kernel_generators() == [_flat(x) for x in oracle.kernel_generators()]
    for b in vectors + rows:
        x = oracle.solve(b)
        assert solver.solve(_flat(b)) == (None if x is None else _flat(x))
