"""The fast lift engine against the brute-force routes it replaced.

`all_pairs_hom` extends generator images word by word and checks all |G|^2
element pairs; `candidate_lifts` tests every generator tuple in the fibers of
the reduction; `full_sweep_def_set` conjugates every lift's full matrix table
by every kernel-group element; `_kernel_conjugator_by_scan` tests every
kernel-group element as a conjugator.  They are kept here only as oracles:
the library checks Cayley edges, solves for lifts layer by layer over the
m-adic filtration, solves for the conjugator and walks orbits over the
kernel group's layer generators, and must agree with them on every
accept/reject decision, every lift, every conjugator and every DefSet field.

For ring homomorphisms, `candidate_homs` tests every tuple of generator
images in (unity lift + m_T)^t, and `reference_apply` sums the images of the
basis through ring arithmetic; the library searches layer by layer over the
target's m-adic filtration and applies a homomorphism as one compiled
integer map, and must return the same maps in the same order and the same
images.
"""

from __future__ import annotations

import json
from functools import lru_cache
from itertools import product
from pathlib import Path
from typing import Dict, List, Tuple

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import defring.representation as representation
from defring.cli import main
from defring.errors import InternalInconsistencyError
from defring.groups import (build_group, cyclic, dihedral, extend_and_verify_hom,
                            quaternion8, symmetric)
from defring.local_ring import (RingHom, _hom_levels, build_galois_ring,
                                hom_enumerate, ideal_span, m_adic_filtration,
                                maximal_ideal, quotient_ring,
                                ring_from_truncated_presentation)
from defring.matrices import Matrix
from defring.presentations import IntegerPolynomialPresentation
from defring.representation import (DefSet, Lift, Representation,
                                    RepresentationError, are_strictly_equivalent,
                                    def_set, enumerate_lifts, kernel_conjugator,
                                    kernel_group, order_ideal, residual_rep,
                                    trivial_residual_rep)

from oracles import is_invertible


def all_pairs_hom(G, one, generator_images):
    images = []
    for x in range(G.n):
        acc = one
        for gi in G.words[x]:
            acc = acc * generator_images[gi]
        images.append(acc)
    for a in range(G.n):
        for b in range(G.n):
            if images[a] * images[b] != images[G.table[a][b]]:
                return None, (a, b)
    return images, None


def full_sweep_def_set(rhobar: Representation, ring) -> DefSet:
    lifts = enumerate_lifts(rhobar, ring)
    index: Dict[Tuple[int, ...], int] = {l.key(): i for i, l in enumerate(lifts)}
    kg = kernel_group(ring, rhobar.n)
    seen = [False] * len(lifts)
    reps: List[Lift] = []
    sizes: List[int] = []
    for i, l in enumerate(lifts):
        if seen[i]:
            continue
        orbit = {index[l.rep.conjugate(K).key()] for K in kg}
        for j in orbit:
            seen[j] = True
        reps.append(lifts[min(orbit)])
        sizes.append(len(orbit))
    return DefSet(reps, sizes, len(lifts))


def _dual_numbers(p):
    pres = IntegerPolynomialPresentation.parse(p, ["e"], ["e^2"])
    return ring_from_truncated_presentation(pres, 1)


GROUPS = [cyclic(1), cyclic(2), cyclic(3), cyclic(4), cyclic(6), dihedral(2),
          dihedral(3), dihedral(4), symmetric(2), symmetric(3), quaternion8(),
          build_group("klein4")]
RINGS = [build_galois_ring(2, 1, 1), build_galois_ring(2, 2, 1),
         build_galois_ring(2, 3, 1), build_galois_ring(3, 1, 1),
         build_galois_ring(3, 2, 1), _dual_numbers(2), _dual_numbers(3)]


def _matrix(ring, n, entries):
    return Matrix(ring, [[ring.from_int(entries[i * n + j]) for j in range(n)]
                         for i in range(n)])


@st.composite
def generator_images(draw):
    """Random images over a small ring: arbitrary matrices, or perturbations
    of the identity by the maximal ideal (the lift candidates of the trivial
    representation, of which many are homomorphisms)."""
    G = draw(st.sampled_from(GROUPS))
    ring = draw(st.sampled_from(RINGS))
    n = draw(st.integers(1, 2))
    one = Matrix.identity(ring, n)
    m_elems = maximal_ideal(ring).enumerate_elements()
    images = []
    for _ in G.generators:
        if draw(st.booleans()):
            entries = draw(st.lists(st.integers(0, ring.size - 1),
                                    min_size=n * n, max_size=n * n))
            images.append(_matrix(ring, n, entries))
        else:
            offsets = draw(st.lists(st.sampled_from(m_elems),
                                    min_size=n * n, max_size=n * n))
            images.append(one + Matrix(ring, [offsets[i * n:(i + 1) * n]
                                              for i in range(n)]))
    return G, one, images


@settings(max_examples=200, deadline=None)
@given(generator_images())
def test_cayley_edges_agree_with_all_pairs(case):
    G, one, images = case
    fast, fast_fail = extend_and_verify_hom(G, one, images)
    slow, slow_fail = all_pairs_hom(G, one, images)
    assert fast == slow
    assert (fast_fail is None) == (slow_fail is None)
    if fast_fail is not None:
        a, g = fast_fail
        assert g in G.generators and 0 <= a < G.n


def _candidates(rhobar, ring):
    """Every generator tuple in the fibers of the reduction, as enumerate_lifts sees them."""
    n = rhobar.n
    m_elems = maximal_ideal(ring).enumerate_elements()
    offsets = [Matrix(ring, [list(c[i * n:(i + 1) * n]) for i in range(n)])
               for c in product(m_elems, repeat=n * n)]
    fibers = []
    for g in rhobar.group.generators:
        base = rhobar.matrix(g).transfer(
            ring, lambda e: ring.unity_lift(e.flat))
        fibers.append([base + z for z in offsets])
    return product(*fibers)


def candidate_lifts(rhobar, ring):
    """Keys of the candidate tuples that pass the Cayley-edge check, in key
    order: the enumeration that `enumerate_lifts` replaced."""
    one = Matrix.identity(ring, rhobar.n)
    return sorted(tuple(x for M in tup for x in M.key())
                  for tup in _candidates(rhobar, ring)
                  if extend_and_verify_hom(rhobar.group, one, list(tup))[1] is None)


S3_STANDARD = [[0, 1, 1, 0], [0, 1, 1, 1]]


def _rhobar(group, k, n, images):
    if images is None:
        return trivial_residual_rep(group, k, n)
    return residual_rep(group, k, [_matrix(k, n, e) for e in images])


@pytest.mark.parametrize("group, ring, images, accepted", [
    (dihedral(4), _dual_numbers(2), None, 256),      # every candidate is a lift
    (symmetric(3), build_galois_ring(2, 2, 1), None, 16),
    (symmetric(3), build_galois_ring(2, 2, 1), S3_STANDARD, 8),
    (symmetric(3), _dual_numbers(2), S3_STANDARD, 8),
    (cyclic(4), build_galois_ring(2, 2, 1), [[1, 1, 0, 1]], 16),
    (cyclic(3), _dual_numbers(2), [[0, 1, 1, 1]], 4),
])
def test_cayley_edges_agree_on_every_candidate(group, ring, images, accepted):
    rhobar = _rhobar(group, ring.residue_ring, 2, images)
    one = Matrix.identity(ring, 2)
    count = 0
    for tup in _candidates(rhobar, ring):
        fast, _ = extend_and_verify_hom(group, one, list(tup))
        slow, _ = all_pairs_hom(group, one, list(tup))
        assert fast == slow
        count += fast is not None
    assert count == accepted
    lifts = [l.key() for l in enumerate_lifts(rhobar, ring)]
    assert len(lifts) == accepted
    assert lifts == candidate_lifts(rhobar, ring)


# -- deformation sets ---------------------------------------------------------------------

SMALL_CASES = [  # (group, ring, dimension) on which the oracle's full sweep stays cheap
    (G, R, n) for G in GROUPS for R in RINGS for n in (1, 2)
    if n == 1 or maximal_ideal(R).size <= 2 and (len(G.generators) <= 1 or G.n == 6)
]


@st.composite
def residual_reps(draw):
    """A random residual representation over the residue field, or the trivial one."""
    G, ring, n = draw(st.sampled_from(SMALL_CASES))
    k = ring.residue_ring
    images = [_matrix(k, n, draw(st.lists(st.integers(0, k.size - 1),
                                          min_size=n * n, max_size=n * n)))
              for _ in G.generators]
    one = Matrix.identity(k, n)
    if all(is_invertible(M) for M in images) and \
            extend_and_verify_hom(G, one, images)[1] is None:
        return residual_rep(G, k, images), ring
    return trivial_residual_rep(G, k, n), ring


@settings(max_examples=60, deadline=None)
@given(residual_reps())
def test_orbit_search_agrees_with_full_sweep(case):
    rhobar, ring = case
    fast = def_set(rhobar, ring)
    slow = full_sweep_def_set(rhobar, ring)
    assert fast == slow
    assert [l.key() for l in fast.representatives] == \
        [l.key() for l in slow.representatives]
    assert fast.orbit_sizes == slow.orbit_sizes
    assert fast.total_lifts == slow.total_lifts
    assert fast.class_count == slow.class_count


@pytest.mark.parametrize("group, images, orbit_sizes", [
    (symmetric(3), S3_STANDARD, [8]),
    (cyclic(4), [[1, 1, 0, 1]], [4, 4, 4, 4]),
])
def test_orbit_search_agrees_on_nontrivial_orbits(group, images, orbit_sizes):
    ring = build_galois_ring(2, 2, 1)
    rhobar = _rhobar(group, ring.residue_ring, 2, images)
    fast = def_set(rhobar, ring)
    assert fast == full_sweep_def_set(rhobar, ring)
    assert fast.orbit_sizes == orbit_sizes


@pytest.mark.parametrize("group, ring, images, orbit_sizes", [
    (cyclic(2), build_galois_ring(2, 2, 2), [[1, 1, 0, 1]], [16]),  # k = F4: both Y^u
    (symmetric(3), build_galois_ring(2, 3, 1), S3_STANDARD, [64]),  # two layers
], ids=["gr4-2", "z8"])
def test_orbit_search_agrees_beyond_one_prime_layer(group, ring, images, orbit_sizes):
    # over GR(4,2) the walk needs the layer generators 1 + 2Y E_ac as well as
    # 1 + 2 E_ac (without them the orbit has 4 lifts, not 16), and over Z/8
    # the generators 1 + 4 E_ac of the second layer (without them, 32, not 64)
    rhobar = _rhobar(group, ring.residue_ring, 2, images)
    fast = def_set(rhobar, ring)
    assert fast == full_sweep_def_set(rhobar, ring)
    assert fast.orbit_sizes == orbit_sizes


def test_strict_equivalence_matches_orbits():
    """are_strictly_equivalent(l1, l2) holds exactly when l1, l2 share an orbit."""
    ring = build_galois_ring(2, 2, 1)
    rhobar = _rhobar(cyclic(4), ring.residue_ring, 2, [[1, 1, 0, 1]])
    lifts = enumerate_lifts(rhobar, ring)
    kg = kernel_group(ring, 2)
    orbit_of = {}
    for l in lifts:
        orbit_of[l.key()] = min(l.rep.conjugate(K).key() for K in kg)
    for l1 in lifts:
        for l2 in lifts:
            same, K = are_strictly_equivalent(l1, l2)
            assert same == (orbit_of[l1.key()] == orbit_of[l2.key()])
            if same:
                assert l2.rep.conjugate(K) == l1.rep


# -- lifts solved layer by layer ------------------------------------------------------------


def _truncated(p, names, rels, m, r=1):
    return ring_from_truncated_presentation(
        IntegerPolynomialPresentation.parse(p, names, rels, r), m)


LIFT_RINGS = [  # r = 1 and 2, chains of 1, 2 and 5 layers, a non-principal m
    build_galois_ring(2, 2, 1), build_galois_ring(2, 3, 1),
    build_galois_ring(3, 2, 1), build_galois_ring(2, 2, 2),
    _dual_numbers(2), _dual_numbers(3), _truncated(2, ["e"], ["e^2"], 1, r=2),
    _truncated(2, ["t"], ["t^3"], 1), _truncated(2, ["X"], ["X^2", "2*X"], 2),
    _truncated(2, ["X"], ["X^2 - 2"], 3),
]
LIFT_GROUPS = [cyclic(1), cyclic(2), cyclic(3), cyclic(4), dihedral(1),
               build_group("klein4"), symmetric(3), quaternion8()]
LIFT_CASES = [  # at most 1024 candidates each, so the oracle stays cheap
    (G, R, n) for G in LIFT_GROUPS for R in LIFT_RINGS for n in (1, 2)
    if maximal_ideal(R).size ** (n * n * len(G.generators)) <= 1024
]


@lru_cache(maxsize=None)
def _residual_reps(G, k, n):
    """Every residual representation of G of dimension n over the field k."""
    mats = [Matrix(k, [[k.from_base(c) for c in row[i * n:(i + 1) * n]]
                       for i in range(n)])
            for row in product(k.base.elements(), repeat=n * n)]
    reps = []
    for images in product(mats, repeat=len(G.generators)):
        try:
            reps.append(residual_rep(G, k, list(images)))
        except RepresentationError:
            pass
    return reps


@st.composite
def lift_problems(draw):
    """Any residual representation over the residue field of a random ring."""
    G, ring, n = draw(st.sampled_from(LIFT_CASES))
    return draw(st.sampled_from(_residual_reps(G, ring.residue_ring, n))), ring


def test_lift_cases_cover_layers_and_nontrivial_reps():
    depths = {len(m_adic_filtration(R)) for _, R, _ in LIFT_CASES}
    assert depths == {2, 3, 6}  # [m, ..., m^L = 0] for L = 2, 3, 6
    assert {R.base.r for _, R, _ in LIFT_CASES} == {1, 2}
    assert any(n == 2 and len(G.generators) == 2 for G, _, n in LIFT_CASES)
    assert len(_residual_reps(symmetric(3), build_galois_ring(2, 1, 1), 2)) == 10


@settings(max_examples=80, deadline=None)
@given(lift_problems())
def test_solved_lifts_agree_with_candidate_enumeration(case):
    rhobar, ring = case
    assert [l.key() for l in enumerate_lifts(rhobar, ring)] == \
        candidate_lifts(rhobar, ring)


def test_partial_lift_dies_at_a_layer():
    # over F2[t]/(t^3): 1 + t has order 2 mod t^2, but (1 + t)^2 = 1 + t^2
    R = _truncated(2, ["t"], ["t^3"], 1)
    t = R.generators[0]
    x = R.one + t
    mod_t2 = quotient_ring(R, ideal_span(R, [t * t]))
    assert mod_t2.project(x * x) == mod_t2.target.one
    assert x * x == R.one + t * t
    rhobar = trivial_residual_rep(cyclic(2), R.residue_ring)
    lifts = enumerate_lifts(rhobar, R)
    assert [l.key() for l in lifts] == candidate_lifts(rhobar, R) == \
        sorted([R.one.key(), (R.one + t * t).key()])


# -- strict equivalence solved, orbits walked over layer generators ----------------------------


@lru_cache(maxsize=None)
def _gamma(ring, n):
    return tuple(kernel_group(ring, n))


def _kernel_conjugator_by_scan(ring, n, gens1, gens2):
    """The first K of the listed kernel group with a K = K b for every pair:
    the scan that `kernel_conjugator` replaced."""
    for K in _gamma(ring, n):
        if all(a * K == K * b for a, b in zip(gens1, gens2)):
            return K
    return None


def _precision_quotient():
    """R/J for C2 over the precision model Z2[sqrt 2] at m = 6, J = 2 m: the
    quotient the `maranda-check` jobs decide over (torsion coordinates)."""
    R = ring_from_truncated_presentation(
        IntegerPolynomialPresentation.parse(2, ["X"], ["X^2 - 2"]), 6, mode="precision")
    return quotient_ring(R, order_ideal(R, cyclic(2))).target


CONJUGATOR_RINGS = [  # GR(p^m, r) for p = 2, 3 and r = 1, 2; F2[eps]; five layers;
    # a precision model; a quotient with coordinates of order below p^m
    build_galois_ring(2, 2, 1), build_galois_ring(2, 3, 1), build_galois_ring(2, 2, 2),
    build_galois_ring(3, 2, 1), build_galois_ring(3, 2, 2), _dual_numbers(2),
    _truncated(2, ["X"], ["X^2 - 2"], 3),
    ring_from_truncated_presentation(IntegerPolynomialPresentation.parse(2, [], []), 2,
                                     mode="precision"),
    _precision_quotient(),
]
GAMMA_CAP = 1024  # |Gamma| = |m|^(n^2), so n <= 3 where |m| = 2


def _random_element(draw, ring):
    W = ring.base
    return ring.element([tuple(draw(st.integers(0, W.q - 1)) for _ in range(W.r))
                         for _ in range(ring.N)])


def _random_matrix(draw, ring, n, lift_like):
    """A matrix with arbitrary entries, or the unity lift of a random residue
    matrix plus a matrix over m (a lift candidate)."""
    m_elems = maximal_ideal(ring).enumerate_elements()
    if lift_like:
        k = ring.residue_field
        entries = [ring.unity_lift(draw(st.sampled_from(list(k.elements()))))
                   + draw(st.sampled_from(m_elems)) for _ in range(n * n)]
    else:
        entries = [_random_element(draw, ring) for _ in range(n * n)]
    return Matrix(ring, [entries[i:i + n] for i in range(0, n * n, n)])


def _random_gamma(draw, ring, n):
    m_elems = maximal_ideal(ring).enumerate_elements()
    offsets = [draw(st.sampled_from(m_elems)) for _ in range(n * n)]
    return Matrix.identity(ring, n) + Matrix(ring, [offsets[i:i + n]
                                                    for i in range(0, n * n, n)])


@st.composite
def conjugator_problems(draw):
    """Random pairs of matrix tuples, or a tuple and its conjugate by a random
    element of Gamma (then a K exists), over a small ring."""
    ring = draw(st.sampled_from(CONJUGATOR_RINGS))
    size = maximal_ideal(ring).size
    n = draw(st.sampled_from([n for n in (1, 2, 3) if size ** (n * n) <= GAMMA_CAP]))
    count = draw(st.integers(0, 2))
    lift_like = draw(st.booleans())
    gens1 = [_random_matrix(draw, ring, n, lift_like) for _ in range(count)]
    if draw(st.booleans()):
        K = _random_gamma(draw, ring, n)
        Kinv = K.inverse()
        gens2 = [Kinv * a * K for a in gens1]
    else:
        gens2 = [_random_matrix(draw, ring, n, lift_like) for _ in range(count)]
    return ring, n, gens1, gens2


def test_conjugator_rings_cover_the_cases():
    assert {(R.base.p, R.base.r) for R in CONJUGATOR_RINGS} >= {(2, 1), (2, 2), (3, 1), (3, 2)}
    assert any(R.mode == "precision" for R in CONJUGATOR_RINGS)
    assert any(min(R.orders) < R.base.m for R in CONJUGATOR_RINGS)
    assert any(maximal_ideal(R).size ** 9 <= GAMMA_CAP for R in CONJUGATOR_RINGS)


@settings(max_examples=150, deadline=None)
@given(conjugator_problems())
def test_solved_conjugator_is_the_scanned_one(case):
    ring, n, gens1, gens2 = case
    assert kernel_conjugator(ring, n, gens1, gens2) == \
        _kernel_conjugator_by_scan(ring, n, gens1, gens2)


CONJUGATION_CASES = [  # (group, ring, residual images) whose lifts the next test pairs
    (cyclic(4), build_galois_ring(2, 2, 1), [[1, 1, 0, 1]]),
    (symmetric(3), build_galois_ring(2, 2, 1), S3_STANDARD),
    (symmetric(3), build_galois_ring(2, 2, 1), None),
    (cyclic(3), _dual_numbers(2), [[0, 1, 1, 1]]),
    (cyclic(2), build_galois_ring(2, 3, 1), None),
    (cyclic(2), _precision_quotient(), None),
]


@lru_cache(maxsize=None)
def _case_lifts(index):
    G, ring, images = CONJUGATION_CASES[index]
    return tuple(enumerate_lifts(_rhobar(G, ring.residue_ring, 2, images), ring))


@settings(max_examples=80, deadline=None)
@given(st.integers(0, len(CONJUGATION_CASES) - 1), st.data())
def test_strict_equivalence_of_conjugated_lifts_matches_the_scan(index, data):
    ring = CONJUGATION_CASES[index][1]
    lifts = _case_lifts(index)
    l1 = data.draw(st.sampled_from(lifts))
    if data.draw(st.booleans()):
        l2 = Lift(l1.rep.conjugate(_random_gamma(data.draw, ring, 2)), l1.rhobar)
    else:
        l2 = data.draw(st.sampled_from(lifts))
    same, K = are_strictly_equivalent(l1, l2)
    assert K == _kernel_conjugator_by_scan(ring, 2, l1.rep.gen_matrices,
                                           l2.rep.gen_matrices)
    assert same == (K is not None)


ORBIT_WALK_RINGS = [  # Z/4, (Z/8)[X]/(X^2 - 2), GR(4, 2) with r = 2, a precision model
    build_galois_ring(2, 2, 1), _truncated(2, ["X"], ["X^2 - 2"], 3),
    build_galois_ring(2, 2, 2),
    ring_from_truncated_presentation(
        IntegerPolynomialPresentation.parse(2, ["X"], ["X^2 - 2"]), 4, mode="precision"),
]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(ORBIT_WALK_RINGS), st.data())
def test_in_place_conjugation_is_the_matrix_conjugation(ring, data):
    # every layer generator, a = c included, acts on random matrices of
    # M_2(R) as K M K^{-1}; each conjugation runs twice, so its memoised
    # scalings are read back as well as filled
    triples = representation._layer_generators(ring, 2)
    assert {a == c for a, c, _ in triples} == {True, False}
    mats = [Matrix(ring, [[_random_element(data.draw, ring) for _ in range(2)]
                          for _ in range(2)]) for _ in range(3)]
    one, zero = Matrix.identity(ring, 2), ring.zero
    for a, c, x in triples:
        K = one + Matrix(ring, [[x if (i, j) == (a, c) else zero for j in range(2)]
                                for i in range(2)])
        expected = [K * M * K.inverse() for M in mats]
        conjugate = representation._conjugate_in_place(ring, a, c, x)
        for _ in range(2):
            rows = [[list(row) for row in M.rows] for M in mats]
            conjugate(rows)
            assert [Matrix(ring, M) for M in rows] == expected


def test_dropping_a_layer_generator_is_caught_by_the_orbit_count(monkeypatch):
    # C4 with the unipotent residual image over Z/4 has four orbits of 4 lifts;
    # without 1 + 2 E_10, the triple (1, 0, 2), the walk closes each under a
    # subgroup whose orbits have 2 lifts, and the orbit-stabiliser count
    # |Gamma| / |C(rho)| = 4 no longer matches
    ring = build_galois_ring(2, 2, 1)
    rhobar = _rhobar(cyclic(4), ring.residue_ring, 2, [[1, 1, 0, 1]])
    assert def_set(rhobar, ring).orbit_sizes == [4, 4, 4, 4]
    layer_generators = representation._layer_generators
    monkeypatch.setattr(representation, "_layer_generators", lambda R, n: [
        g for g in layer_generators(R, n) if g[:2] != (1, 0)])
    with pytest.raises(InternalInconsistencyError, match="an orbit of 2 lifts"):
        def_set(rhobar, ring)


def test_a_conjugate_outside_the_lifts_is_reported_without_a_traceback(monkeypatch,
                                                                      capsys):
    # 1 + E_01, the triple (0, 1, 1), lies outside Gamma = 1 + M_2(m), so
    # conjugating a lift of the S3 standard representation by it leaves the
    # lifts of rhobar; the walk must report that as an inconsistency, not as
    # a bare KeyError
    layer_generators = representation._layer_generators
    monkeypatch.setattr(representation, "_layer_generators", lambda R, n: (
        layer_generators(R, n) + [(0, 1, R.one)]))
    job = (Path(__file__).resolve().parent.parent / "perfbench" / "jobs"
           / "defcount_s3_standard_z4.job")
    assert main(["defcount", str(job), "--no-cache"]) == 1
    err = json.loads(capsys.readouterr().err)["error"]
    assert err == "the orbit of lift 0 reaches a conjugate that is not a lift"


def test_a_wrong_solved_conjugator_is_caught_by_the_product_check(monkeypatch, capsys):
    # the Howell reduction is made to answer Y + e_0 E_01 for the conjugator's
    # offset Y; for a = b = diag(1, -1), phi(E_01) = a E_01 - E_01 b = 2 E_01
    # is nonzero over Z/4 and over the R/J of the maranda-check jobs, so the
    # check a K = K b must reject the answer
    conjugation_form = representation._conjugation_form

    def shifted_form(ring, n, gens1, gens2, entries=None):
        form, ni = conjugation_form(ring, n, gens1, gens2, entries)
        reduce = form.reduce

        def shifted(vec):
            red = reduce(vec)
            red[ni + ring.N] = ring.base.add(red[ni + ring.N], ring.base.one)
            return red
        form.reduce = shifted
        return form, ni

    monkeypatch.setattr(representation, "_conjugation_form", shifted_form)
    ring = build_galois_ring(2, 2, 1)
    a = _matrix(ring, 2, [1, 0, 0, 3])
    with pytest.raises(InternalInconsistencyError,
                       match="the solved conjugator K fails a K = K b"):
        kernel_conjugator(ring, 2, [a], [a])
    job = (Path(__file__).resolve().parent.parent / "perfbench" / "jobs"
           / "maranda_c2_equivalent.job")
    assert main(["maranda-check", str(job), "--no-cache"]) == 1
    err = json.loads(capsys.readouterr().err)["error"]
    assert err == "the solved conjugator K fails a K = K b"


def test_a_solved_lift_off_a_cayley_edge_is_caught_by_the_final_check(monkeypatch, capsys):
    # with every Cayley-edge defect reported as zero, the layer solve takes
    # s(rhobar) plus cocycles for the lifts of the S3 standard representation
    # over Z/4, but s(rhobar)(g2)^3 = [[1, 2], [2, 3]] is not 1, so the final
    # check of every lift on the Cayley edges must reject them
    monkeypatch.setattr(representation, "_edge_defects",
                        lambda G, one, gens: [one - one for _ in G.edges])
    ring = build_galois_ring(2, 2, 1)
    rhobar = _rhobar(symmetric(3), ring.residue_ring, 2, S3_STANDARD)
    with pytest.raises(InternalInconsistencyError, match="solved lift fails the Cayley edge"):
        enumerate_lifts(rhobar, ring)
    job = (Path(__file__).resolve().parent.parent / "perfbench" / "jobs"
           / "defcount_s3_standard_z4.job")
    assert main(["defcount", str(job), "--no-cache"]) == 1
    err = json.loads(capsys.readouterr().err)["error"]
    assert err.startswith("solved lift fails the Cayley edge")


def test_a_cayley_edge_defect_off_the_layer_is_caught_by_its_coordinates(monkeypatch,
                                                                         capsys):
    # every Cayley-edge defect reported as the identity: its unit entries
    # are not in m = (2) over Z/4, so the layer's coordinates must refuse them
    monkeypatch.setattr(representation, "_edge_defects",
                        lambda G, one, gens: [one for _ in G.edges])
    ring = build_galois_ring(2, 2, 1)
    rhobar = _rhobar(symmetric(3), ring.residue_ring, 2, S3_STANDARD)
    with pytest.raises(InternalInconsistencyError, match="layer element is not in m\\^i"):
        enumerate_lifts(rhobar, ring)
    job = (Path(__file__).resolve().parent.parent / "perfbench" / "jobs"
           / "defcount_s3_standard_z4.job")
    assert main(["defcount", str(job), "--no-cache"]) == 1
    err = json.loads(capsys.readouterr().err)["error"]
    assert err == "layer element is not in m^i"


def _def_set_counting_after_lifts(monkeypatch, rhobar, R):
    """def_set, with the matrix products and inverses it makes once the
    lifts are enumerated."""
    solve = representation.enumerate_lifts
    counts = {"after": 0, "mul": 0, "inverse": 0}

    def enumerate_then_count(*args):
        lifts = solve(*args)
        counts["after"] = 1
        return lifts

    def counted(name, method):
        def wrapper(*args):
            counts[name] += counts["after"]
            return method(*args)
        return wrapper

    monkeypatch.setattr(representation, "enumerate_lifts", enumerate_then_count)
    monkeypatch.setattr(Matrix, "__mul__", counted("mul", Matrix.__mul__))
    monkeypatch.setattr(Matrix, "inverse", counted("inverse", Matrix.inverse))
    return def_set(rhobar, R), counts


def test_one_dimensional_def_set_conjugates_nothing(monkeypatch):
    # n = 1: R is commutative, so every lift is its own class and no matrix
    # is multiplied or inverted once the lifts are enumerated
    R = _truncated(2, ["X"], ["X^2 - 2"], 3)
    ds, counts = _def_set_counting_after_lifts(monkeypatch,
                                               trivial_residual_rep(quaternion8(), R), R)
    assert ds.orbit_sizes == [1] * 64 and ds.class_count == 64
    assert counts == {"after": 1, "mul": 0, "inverse": 0}


def test_the_orbit_walk_multiplies_and_inverts_no_matrix(monkeypatch):
    # n = 2: the walk acts by row and column updates and the orbit-stabiliser
    # check reads a Howell form, so no matrix is multiplied or inverted once
    # the lifts are enumerated
    R = build_galois_ring(2, 2, 1)
    rhobar = _rhobar(cyclic(4), R.residue_ring, 2, [[1, 1, 0, 1]])
    ds, counts = _def_set_counting_after_lifts(monkeypatch, rhobar, R)
    assert ds.orbit_sizes == [4, 4, 4, 4]
    assert counts == {"after": 1, "mul": 0, "inverse": 0}


# -- homomorphisms searched layer by layer ---------------------------------------------------


def reference_apply(hom, x):
    """The image of x through ring arithmetic: sum of c_i * img_i, c_i mapped to W_T."""
    T = hom.target
    out = T.zero
    for c, img in zip(x.coefficients(), hom.basis_images):
        out = out + img * T.from_base(tuple(v % T.base.q for v in c))
    return T.element(out.coefficients(), x.prec)


def reference_verify(hom):
    """`RingHom.verify` on basis pairs, with `reference_apply`."""
    S, T = hom.source, hom.target
    for i in range(S.N):
        if not hom.basis_images[i].scale_int(S.base.p ** S.orders[i]).is_zero():
            return False
    if reference_apply(hom, S.one) != T.one:
        return False
    return all(hom.basis_images[i] * hom.basis_images[j] ==
               reference_apply(hom, S.basis_element(i) * S.basis_element(j))
               for i in range(S.N) for j in range(i, S.N))


def candidate_homs(source, target):
    """Keys of the homomorphisms among all |m_T|^t generator tuples, in key
    order: the enumeration that `hom_enumerate` replaced."""
    if (source.base.p, source.base.r) != (target.base.p, target.base.r):
        return []
    if source.base.m < target.base.m:
        return []
    m_elems = maximal_ideal(target).enumerate_elements() if source.generators else []
    cands_per_gen = [[target.unity_lift(source.reduce_element(g)) + z for z in m_elems]
                     for g in source.generators]
    out = []
    for tup in product(*cands_per_gen):
        imgs = []
        for mo in source.basis_monos:
            img = target.one
            for gi, e in zip(tup, mo):
                if e:
                    img = img * (gi ** e)
            imgs.append(img)
        hom = RingHom(source, target, imgs)
        if reference_verify(hom) and all(reference_apply(hom, g) == z
                                         for g, z in zip(source.generators, tup)):
            out.append(hom.key())
    return sorted(out)


HOM_RINGS = [  # r = 1 and 2, p = 2 and 3, torsion, t = 0, 1, 2 generators
    build_galois_ring(2, 2, 1), build_galois_ring(2, 1, 2),
    _truncated(2, ["X"], ["X - 2"], 2), _truncated(2, ["X"], ["X - 2"], 3),
    _truncated(2, ["e"], ["e^2"], 1), _truncated(2, ["e"], ["e^2"], 2),
    _truncated(2, ["e"], ["e^2", "2*e"], 2), _truncated(2, ["t"], ["t^3"], 1),
    _truncated(2, ["X"], ["X^2 - 2"], 2), _truncated(2, ["X"], ["X^2 - 2"], 3),
    _truncated(2, ["X", "Y"], ["X^2", "X*Y", "Y^2"], 1),
    _truncated(2, ["X", "Y"], ["X^2", "X*Y", "Y^2"], 2),
    _truncated(2, ["e"], ["e^2"], 1, r=2), _truncated(2, ["X"], ["X^2 - 2"], 2, r=2),
    _truncated(3, ["X"], ["X - 3"], 2), _truncated(3, ["X"], ["X^2 - 3"], 2),
    _truncated(3, ["e"], ["e^2", "3*e"], 2),
]
HOM_CASES = [  # the oracle tests at most 1024 candidate tuples
    (S, T) for S in HOM_RINGS for T in HOM_RINGS
    if S.base.p == T.base.p and S.base.r == T.base.r
    and maximal_ideal(T).size ** len(S.generators) <= 1024
]


def test_hom_cases_cover_the_search():
    assert {S.base.r for S, _ in HOM_CASES} == {1, 2}
    assert {len(S.generators) for S, _ in HOM_CASES} == {0, 1, 2}
    assert any(S.base.m > T.base.m for S, T in HOM_CASES)  # target precision below
    assert any(S.base.m < T.base.m for S, T in HOM_CASES)  # no base map
    assert any(S is not T and S.base.m == T.base.m for S, T in HOM_CASES)
    assert any(len(set(S.orders)) > 1 for S, _ in HOM_CASES)  # torsion source
    assert max(len(m_adic_filtration(T)) for _, T in HOM_CASES) == 6


def test_layered_homs_agree_with_candidate_product_on_every_case():
    found = 0
    for source, target in HOM_CASES:
        homs = [h.key() for h in hom_enumerate(source, target)]
        assert homs == candidate_homs(source, target)
        found += len(homs)
    assert found == 805


def _terms(p, coeffs, var):
    """p*c_i*var^i for the nonzero c_i, as text."""
    powers = ["", f"*{var}"] + [f"*{var}^{i}" for i in range(2, len(coeffs))]
    return "".join(f" + {p * c}{x}" for c, x in zip(coeffs, powers) if c)


@st.composite
def random_local_ring(draw, p, r):
    """(Z/p^m)[vars]/(relations) with each relation a monomial plus p times
    lower terms, so the variables are nilpotent mod p and the ring is local
    with residue field F_{p^r}; one variable, or two at m = 1."""
    digits = st.integers(0, p - 1)
    if draw(st.booleans()):
        m = draw(st.integers(1, 3))
        d = draw(st.integers(1, 3 if p ** (r * m) <= 8 else 2))
        rels = [f"X^{d}" + _terms(p, draw(st.lists(digits, min_size=d, max_size=d)), "X")]
        if m > 1 and draw(st.booleans()):
            rels.append(f"{p ** draw(st.integers(1, m - 1))}*X")  # p-torsion
        names = ["X"]
    else:
        m = 1
        a, b, c = draw(st.lists(digits, min_size=3, max_size=3))
        rels = [f"X^2 + {p * a}*Y", f"X*Y + {p * b}", f"Y^2 + {p * c}*X"]
        names = ["X", "Y"]
    return _truncated(p, names, rels, m, r)


@st.composite
def hom_problems(draw):
    """A random source and target over the same residue field, at most 1024
    candidate tuples; the target is the source itself a third of the time."""
    p, r = draw(st.sampled_from([(2, 1), (3, 1), (2, 2)]))
    source = draw(random_local_ring(p, r))
    target = source if draw(st.integers(0, 2)) == 0 else draw(random_local_ring(p, r))
    assume(maximal_ideal(target).size ** len(source.generators) <= 1024)
    return source, target


@settings(max_examples=80, deadline=None)
@given(hom_problems())
def test_layered_homs_agree_with_candidate_product(case):
    source, target = case
    assert [h.key() for h in hom_enumerate(source, target)] == \
        candidate_homs(source, target)


@settings(max_examples=150, deadline=None)
@given(hom_problems(), st.data())
def test_flat_apply_matches_reference(case, data):
    # any basis images, homomorphism or not: apply is linear either way
    source, target = case
    assume(source.base.m >= target.base.m)

    def element(ring):
        coeff = st.integers(0, ring.base.q - 1)
        coeffs = data.draw(st.lists(st.tuples(*[coeff] * ring.base.r),
                                    min_size=ring.N, max_size=ring.N))
        return ring.element(coeffs, data.draw(st.integers(1, ring.base.m)))

    hom = RingHom(source, target, [element(target) for _ in range(source.N)])
    for _ in range(3):
        x = element(source)
        fast, slow = hom.apply(x), reference_apply(hom, x)
        assert fast == slow and fast.prec == slow.prec == x.prec
    assert hom.verify() == reference_verify(hom)


def test_hom_levels_prune_partial_maps():
    # X -> z with z^2 = 2 in (Z/2^6)[X]/(X^2 - 2): m^i = (X^i), so each layer
    # adds one coordinate over F_2 and each survivor of level i has two
    # candidates at level i + 1.  Level 2 keeps z = 0 and z = X; at level 3,
    # modulo m^3 = (2X), z = 0 and z = 2 die (z^2 = 0 or 4, not 2) while X
    # and 2 + X live on; from level 8 on, 16 of the 32 candidates die each time
    R = _truncated(2, ["X"], ["X^2 - 2"], 6)
    filtration = m_adic_filtration(R)
    assert [I.size for I in filtration] == [2 ** (11 - i) for i in range(12)]
    levels = list(_hom_levels(R, R))
    counts = [len(level) for level in levels]
    assert counts == [1, 2, 2, 4, 4, 8, 16, 16, 16, 16, 16, 16]
    tested = [1] + [2 * n for n in counts[:-1]]
    assert sum(tested) == 203 and tested[2] == 4 and counts[2] == 2
    assert sorted(h.key() for _, h in levels[-1]) == \
        [h.key() for h in hom_enumerate(R, R)] == candidate_homs(R, R)
