from __future__ import annotations

import functools
import itertools
import math
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from defring.galois import GaloisRing
from defring.linalg import HowellForm, LinearMapSolver


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
        H = HowellForm(ring, rows, ncols)
        for vec in itertools.product([ring.from_int(c) for c in range(8)],
                                     repeat=ncols):
            assert H.contains(vec) == (vec in span)
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
    H = HowellForm(ring, rows, 2)
    span = _span(ring, rows, 2)
    all_vecs = list(itertools.product(
        [ring.from_int(c) for c in range(9)], repeat=2))
    for a in all_vecs:
        ra = H.reduce(a)
        assert tuple(ring.sub(x, y) for x, y in zip(a, ra)) in span
        for b in all_vecs:
            diff = tuple(ring.sub(x, y) for x, y in zip(a, b))
            if diff in span:
                assert H.reduce(b) == ra


def test_quotient_orders_of_p_times_identity():
    ring = GaloisRing(2, 3, 1)
    rows = [(ring.from_int(2), ring.zero), (ring.zero, ring.from_int(4))]
    H = HowellForm(ring, rows, 2)
    # quotient is Z/2 x Z/4 -> torsion exponents (1, 2)
    assert H.quotient_orders() == (1, 2)


def test_quotient_module_normal_form_idempotent():
    ring = GaloisRing(2, 2, 1)
    rows = [(ring.from_int(2), ring.from_int(1), ring.zero)]
    H = HowellForm(ring, rows, 3)
    for vec in itertools.product([ring.from_int(c) for c in range(4)], repeat=3):
        nf = H.reduce(vec)
        assert H.reduce(nf) == nf
        diff = tuple(ring.sub(a, b) for a, b in zip(vec, nf))
        assert H.contains(diff)
        assert H.live_coords(vec) == [nf[j] for j in H.live]
        assert all(nf[j] == ring.zero for j in range(3) if j not in H.live)


def test_solver_solution_and_kernel():
    ring = GaloisRing(2, 3, 1)  # Z/8, map (x,y) -> (2x + y, 4y)
    images = [(ring.from_int(2), ring.zero), (ring.from_int(1), ring.from_int(4))]
    S = LinearMapSolver(ring, images, 2)
    x = S.solve((ring.from_int(5), ring.from_int(4)))
    assert x is not None
    out0 = ring.add(ring.mul(x[0], images[0][0]), ring.mul(x[1], images[1][0]))
    out1 = ring.add(ring.mul(x[0], images[0][1]), ring.mul(x[1], images[1][1]))
    assert (out0, out1) == (ring.from_int(5), ring.from_int(4))
    assert S.solve((ring.from_int(1), ring.from_int(1))) is None
    for kvec in S.kernel_generators():
        img0 = ring.add(ring.mul(kvec[0], images[0][0]),
                        ring.mul(kvec[1], images[1][0]))
        img1 = ring.add(ring.mul(kvec[0], images[0][1]),
                        ring.mul(kvec[1], images[1][1]))
        assert img0 == ring.zero and img1 == ring.zero
    assert S.has_nonzero_kernel()


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(st.integers(0, 7), min_size=2, max_size=2),
                min_size=1, max_size=4))
def test_howell_contains_its_generators(raw_rows):
    ring = GaloisRing(2, 3, 1)
    rows = [tuple(ring.from_int(c) for c in row) for row in raw_rows]
    H = HowellForm(ring, rows, 2)
    for row in rows:
        assert H.contains(row)
        assert all(e == ring.zero for e in H.reduce(row))


# -- the sparse row operations against the dense form they replaced ------------


class DenseHowellForm(HowellForm):
    """The former HowellForm (oracle): every row operation runs over all
    columns from the pivot on, zero entries included."""

    def _compute(self, pending):
        W = self.ring
        m, p, zero = W.m, W.p, W.zero
        n = self.ncols
        for j, c in enumerate(self.ambient_orders):
            if c < m:
                row = [zero] * n
                row[j] = W.from_int(p ** c)
                pending.append(row)
        pivots, pivval = {}, {}

        def install(row, j, v):
            _, u = W.unit_part(row[j])
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
                    q = W.divide_by_p_power(e, vj)
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
        self._pivots = pivots
        self.live = tuple(j for j in range(n) if j not in pivval or pivval[j] > 0)
        self.size = math.prod((p ** (self.ambient_orders[j] - pivval[j])) ** W.r
                              for j in cols)

    def reduce(self, vec):
        W = self.ring
        out = list(vec)
        for j in self.pivot_cols:
            if out[j] == W.zero:
                continue
            pv = W.p ** self.pivot_vals[j]
            q = tuple(c // pv for c in out[j])
            if q == W.zero:
                continue
            prow = self._pivots[j]
            for k in range(j, self.ncols):
                out[k] = W.sub(out[k], W.mul(q, prow[k]))
        return out


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
    entry = st.just(W.zero) | st.builds(lambda e, v: W.scal(W.p ** v, e),
                                        unit_or_not, st.integers(0, W.m - 1))
    vector = st.lists(entry, min_size=n, max_size=n)
    rows = draw(st.lists(vector, max_size=7))
    return W, rows, n, orders, draw(st.lists(vector, min_size=1, max_size=3))


def _form_data(H):
    return (H.pivot_cols, H.pivot_vals, H.rows, H.live, H.size, H.quotient_orders())


@settings(max_examples=300, deadline=None)
@given(_howell_inputs(), st.randoms(use_true_random=False), st.data())
def test_sparse_howell_matches_dense_reference(inputs, rng, data):
    W, rows, n, orders, vectors = inputs
    dense = DenseHowellForm(W, rows, n, orders)
    H = HowellForm(W, rows, n, orders)
    assert _form_data(H) == _form_data(dense)
    for vec in vectors:
        assert H.reduce(vec) == dense.reduce(vec)
    # canonical: the same form from the rows in any order ...
    shuffled = list(rows)
    rng.shuffle(shuffled)
    assert _form_data(HowellForm(W, shuffled, n, orders)) == _form_data(dense)
    # ... and from a prefix's form grown by the remaining rows
    cut = data.draw(st.integers(0, len(rows)))
    prefix = HowellForm(W, rows[:cut], n, orders)
    grown = HowellForm(W, rows[cut:] + prefix.rows, n, orders)
    assert _form_data(grown) == _form_data(dense)
