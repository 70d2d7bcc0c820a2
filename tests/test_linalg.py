from __future__ import annotations

import itertools
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
