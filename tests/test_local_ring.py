from __future__ import annotations

from functools import lru_cache
from itertools import product
from typing import Dict, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import defring.local_ring as local_ring
import defring.representation as representation
from defring import cli
from defring.errors import InternalInconsistencyError
from defring.galois import GaloisRing
from defring.groups import symmetric
from defring.linalg import LinearMapSolver
from defring.local_ring import (DEFAULT_ELEMENT_CAP, CapExceededError,
                                FiniteLocalRing, Ideal, Layer,
                                NonUnitError, NotFiniteAtCapError,
                                PrecisionExhaustedError, RingConstructionError,
                                RingElement, ZeroDivisorError, build_galois_ring,
                                RingHom, exact_divide, fingerprint, hom_enumerate,
                                m_adic_filtration, maximal_ideal, quotient_ring,
                                ring_from_truncated_presentation, scale_ideal)
from defring.matrices import Matrix
from defring.polys import Poly
from defring.presentations import IntegerPolynomialPresentation, r_alpha_presentation
from defring.representation import def_set, trivial_residual_rep

from oracles import ideal_product, is_zero_divisor, square_zero_extension


def _pres(p, names, rels, r=1):
    return IntegerPolynomialPresentation.parse(p, names, rels, r)


def z4():
    return build_galois_ring(2, 2, 1)


def z4_eps():
    return ring_from_truncated_presentation(_pres(2, ["e"], ["e^2"]), 2)


def f2_eps():
    return ring_from_truncated_presentation(_pres(2, ["e"], ["e^2"]), 1)


# -- construction ------------------------------------------------------------


def test_galois_ring_as_local_ring():
    R = z4()
    assert R.size == 4
    assert R.from_int(3) * R.from_int(3) == R.one
    assert not R.from_int(2).is_unit()
    assert R.invert(R.from_int(3)) == R.from_int(3)


def test_truncated_presentation_basis():
    R = z4_eps()
    assert R.size == 16
    e = R.generators[0]
    assert (e * e).is_zero()
    assert R.orders == (2, 2)


def test_presentation_with_torsion_relation():
    # (Z/8)[X] / (X^2, 2X): 16 elements, X has additive order 2
    R = ring_from_truncated_presentation(
        _pres(2, ["X"], ["X^2", "2*X"]), 3)
    assert R.size == 16
    assert sorted(R.orders) == [1, 3]
    x = R.generators[0]
    assert (x * x).is_zero()
    assert x.scale_int(2).is_zero()
    # X has additive order 2 < 8, so no precision model exists
    with pytest.raises(RingConstructionError, match="requires a torsion-free truncation"):
        ring_from_truncated_presentation(
            _pres(2, ["X"], ["X^2", "2*X"]), 3, mode="precision")


def test_infinite_presentation_raises():
    with pytest.raises(NotFiniteAtCapError):
        ring_from_truncated_presentation(_pres(2, ["X"], []), 2, degree_cap=6)


def test_non_local_presentation_raises():
    # X^2 - X has idempotents: Z/4[X]/(X^2 - X) = Z/4 x Z/4 is not local
    for mode in ("finite", "precision"):
        with pytest.raises(RingConstructionError, match="variable X has no residue"):
            ring_from_truncated_presentation(_pres(2, ["X"], ["X^2 - X"]), 2, mode=mode)


@pytest.mark.parametrize("mode", ["finite", "precision"])
@pytest.mark.parametrize("names, rels", [(["X"], ["X^2 - 2"]), ([], [])],
                         ids=["sqrt2", "no-variables"])
def test_presented_ring_compiles_its_table_once(names, rels, mode, monkeypatch):
    # the residue search runs on the ring that is returned, so its table is
    # compiled once, in the mode the ring keeps
    compiled = []
    original = FiniteLocalRing._compile

    def counting(ring):
        compiled.append(ring)
        original(ring)

    monkeypatch.setattr(FiniteLocalRing, "_compile", counting)
    R = ring_from_truncated_presentation(_pres(2, names, rels), 3, mode=mode)
    assert compiled == [R]
    assert R.mode == mode


def test_zero_ring_raises():
    with pytest.raises(RingConstructionError):
        ring_from_truncated_presentation(_pres(2, ["X"], ["X - 1", "X"]), 2)


def test_locality_with_shifted_generator():
    # X^2 - 1 = (X-1)^2 mod 2: local, residue constant 1 for X
    R = ring_from_truncated_presentation(_pres(2, ["X"], ["X^2 - 1"]), 2)
    assert R.size == 16
    x = R.generators[0]
    assert not (x - R.one).is_unit()


def test_nonprime_characteristic_rejected():
    with pytest.raises(ValueError):
        IntegerPolynomialPresentation.parse(4, ["X"], ["X^2"])


# -- ideals and quotients ----------------------------------------------------


def test_maximal_ideal_is_the_nonunits():
    for R in (z4(), z4_eps(), f2_eps()):
        m = maximal_ideal(R)
        for x in R.enumerate_elements(64):
            assert m.contains(x) == (not x.is_unit())


def test_ideal_size_and_membership():
    R = z4_eps()
    e = R.generators[0]
    I = Ideal(R, [e])
    assert I.size == 4  # {0, e, 2e, 3e} -- wait: (e) = Z/4 * e
    assert I.contains(e.scale_int(3))
    assert not I.contains(R.from_int(2))
    assert scale_ideal(2, I).size == 2


def test_ideal_product_matches_power():
    R = z4_eps()
    m = maximal_ideal(R)
    m2 = ideal_product(m, m)
    # m = (2, e), m^2 = (4, 2e, e^2) = (2e) ... check via membership
    assert m2.size == 2
    assert m2.contains(R.generators[0].scale_int(2))


def test_quotient_ring_roundtrip():
    R = z4_eps()
    e = R.generators[0]
    surj = quotient_ring(R, Ideal(R, [e]))
    Q = surj.target
    assert Q.size == 4
    assert surj.project(e).is_zero()
    for xb in Q.enumerate_elements(16):
        assert surj.project(surj.section(xb)) == xb


def test_quotient_by_unit_ideal_rejected():
    R = z4()
    with pytest.raises(ValueError):
        quotient_ring(R, Ideal(R, [R.one]))


def test_every_quotient_the_fixed_jobs_build_passes_validate(tmp_path, monkeypatch):
    # quotient_ring skips `_validate`, as its docstring argues it may; every
    # quotient the fixed benchmark jobs build must pass it all the same: one
    # per Maranda job (the hom search solves over the layers, with none)
    from test_fixed_reports import CORPUS
    built = {}
    original = local_ring.quotient_ring

    def recording(ring, ideal):
        surjection = original(ring, ideal)
        built.setdefault(job.name, []).append(surjection.target)
        return surjection

    for module in (local_ring, representation):
        monkeypatch.setattr(module, "quotient_ring", recording)
    for job in CORPUS.FIXED:
        cli.main(job.argv(str(tmp_path / "report.json"), cache=False))
    assert {name: len(qs) for name, qs in built.items()} == {
        "maranda-c2-equivalent": 1, "maranda-c2-inequivalent": 1}
    for quotients in built.values():
        for Q in quotients:
            Q._validate()


# -- division ----------------------------------------------------------------


def test_exact_divide_finite():
    R = z4_eps()
    e = R.generators[0]
    a = R.from_int(3)
    b = a * (R.one + e)
    assert exact_divide(b, a) == R.one + e
    assert is_zero_divisor(e)
    with pytest.raises(ZeroDivisorError):
        exact_divide(e, R.from_int(2))


def test_exact_divide_checks_the_quotient(monkeypatch):
    # a solver answer off by one in the unity's coordinate does not multiply back
    R = z4_eps()
    W = R.base
    solve = LinearMapSolver.solve
    monkeypatch.setattr(LinearMapSolver, "solve",
                        lambda self, b: [(c + 1) % W.q if i == 0 else c
                                         for i, c in enumerate(solve(self, b))])
    with pytest.raises(InternalInconsistencyError,
                       match="exact quotient does not multiply back"):
        exact_divide(R.generators[0], R.from_int(3))


def test_exact_divide_precision_mode():
    pres = _pres(2, [], [])
    R = ring_from_truncated_presentation(pres, 4, mode="precision")
    a = R.from_int(4)
    q = exact_divide(a, R.from_int(2))
    assert q.agrees_at(R.from_int(2), q.prec)
    assert q.prec == 3  # dividing by 2 costs one digit
    # repeated division drains precision down to the error
    c = exact_divide(exact_divide(R.from_int(8), R.from_int(2)), R.from_int(2))
    c = exact_divide(c, R.from_int(2))  # c = 1 known to precision 1
    with pytest.raises(PrecisionExhaustedError):
        exact_divide(c * R.from_int(2), R.from_int(2))
    with pytest.raises(ZeroDivisorError):
        exact_divide(R.from_int(2), R.from_int(4))  # 2/4 not integral


def test_invert_non_unit_raises():
    R = z4()
    with pytest.raises(NonUnitError):
        R.invert(R.from_int(2))


@pytest.mark.parametrize("mode", ["finite", "precision"])
def test_invert_every_unit(mode):
    R = ring_from_truncated_presentation(_pres(2, ["X"], ["X^2 - 2"]), 3, mode=mode)
    units = [x for x in R.enumerate_elements() if x.is_unit()]
    assert len(units) == 32
    for x in units:
        for prec in (3, 2):
            y = R.invert(RingElement(R, x.flat, prec))
            assert x * y == R.one and y.prec == prec


# -- enumeration caps --------------------------------------------------------


def test_element_cap_is_explicit():
    R = z4_eps()
    with pytest.raises(CapExceededError):
        R.enumerate_elements(8)
    assert len(R.enumerate_elements(16)) == 16
    m = maximal_ideal(R)
    with pytest.raises(CapExceededError, match="^ideal has 8 elements, above the cap 7$"):
        m.enumerate_elements(7)
    assert len(m.enumerate_elements(8)) == 8


def test_enumeration_is_sorted_and_complete():
    R = f2_eps()
    elems = R.enumerate_elements(16)
    assert len(set(e.key() for e in elems)) == 4
    assert [e.key() for e in elems] == sorted(e.key() for e in elems)


# -- fingerprints ------------------------------------------------------------


def test_fingerprint_z4():
    fp = fingerprint(z4())
    assert fp.characteristic == 4
    assert fp.size == 4
    assert fp.maximal_ideal_size == 2
    assert fp.hilbert == (1, 1)


def test_fingerprint_separates_z4_from_f2_eps():
    fp1 = fingerprint(z4())
    fp2 = fingerprint(f2_eps())
    assert fp2.characteristic == 2
    assert fp2.hilbert == (1, 1)
    assert fp1 != fp2  # same Hilbert data, characteristic certifies Z/4 != F_2[e]


def test_fingerprint_equal_for_equal_construction():
    assert fingerprint(z4_eps()) == fingerprint(z4_eps())


def test_fingerprint_cap_is_explicit():
    R = z4_eps()
    with pytest.raises(CapExceededError, match="ring has 16 elements, above the cap 15"):
        fingerprint(R, cap=R.size - 1)
    assert fingerprint(R, cap=R.size).size == 16


def f2_times_f2(validate: bool) -> FiniteLocalRing:
    # F_2 x F_2 with reduction onto the first factor, a ring map whose kernel
    # (e2) is idempotent
    W = GaloisRing(2, 1, 1)
    one, zero = W.one, W.zero
    return FiniteLocalRing(
        base=W, orders=[1, 1],
        mul_table=[[one + zero, zero + zero], [zero + zero, zero + one]],
        one_coeffs=one + one, residue_coeffs=[one, zero], generators=[],
        basis_names=["e1", "e2"], validate=validate)


def test_validation_rejects_a_product_of_two_fields():
    # no monomials, so the spanning set is the basis: e1 - s(1) = e2 and
    # e2 - s(0) = e2, and e2 is not nilpotent
    with pytest.raises(RingConstructionError, match="the ring is not local"):
        f2_times_f2(validate=True)


def test_validation_rejects_a_reduction_that_is_not_multiplicative():
    # F_2[e]/(e^2) with e -> 1: red(e e) = 0 but red(e)^2 = 1
    R = f2_eps()
    k = R.residue_field
    with pytest.raises(RingConstructionError, match="reduction is not multiplicative"):
        _with_table(R, R.mul_table, residue=[k.one, k.one], validate=True)


def test_fingerprint_rejects_a_non_nilpotent_kernel():
    # built without the locality check, m = (e2) never reaches 0
    R = f2_times_f2(validate=False)
    message = (r"m\^1 = m\^2 != 0: the kernel of the reduction is not "
               r"nilpotent, so the ring is not local")
    with pytest.raises(InternalInconsistencyError, match=message):
        m_adic_filtration(R)
    with pytest.raises(InternalInconsistencyError, match=message):
        fingerprint(R)


def test_layer_rejects_a_gap_of_two_p_powers():
    # over Z/8, m = (2) has the pivot 2 and the zero ideal none at order 3,
    # so m / 0 = Z/4 is not a k-vector space
    R = build_galois_ring(2, 3, 1)
    with pytest.raises(InternalInconsistencyError, match="not a k-vector space"):
        Layer(maximal_ideal(R), Ideal(R, [R.zero]))


def test_layer_rejects_a_lower_ideal_outside_the_upper():
    # in (Z/2)[X]/(X^3), (X) and (X^2) share the pivot at X^2, so no column
    # jumps, but |(X^2)| = 2 is not |(X)| = 4 times q^0
    R = ring_from_truncated_presentation(_pres(2, ["X"], ["X^3"]), 1)
    X = R.generators[0]
    with pytest.raises(InternalInconsistencyError, match="does not span"):
        Layer(Ideal(R, [X * X]), Ideal(R, [X]))


@pytest.mark.parametrize("name, sizes", [
    ("Z/8", [4, 2, 1]), ("GR(4,2)", [4, 1]), ("(Z/8)[X]/(X^2,2X)", [8, 2, 1]),
    ("r_alpha(1)", [4096, 1024, 128, 8, 1]),
])
def test_m_adic_filtration_and_hilbert_sequence(name, sizes, monkeypatch):
    R = ORACLE_RINGS[name]()  # a fresh ring, with no layers cached
    powers = m_adic_filtration(R)
    assert [I.size for I in powers] == sizes
    assert powers[0] is maximal_ideal(R)
    for upper, lower in zip(powers, powers[1:]):
        assert all(upper.contains(x) for x in lower.module_basis)
        assert all(lower.contains(x * y) for x in upper.module_basis
                   for y in powers[0].module_basis)
    # each power is one span of the p a and the a g, a over the module basis
    # of the power before and g over m's t generators after p: t products
    # per basis element, and no product of ideals
    t = len(powers[0].generators) - 1
    assert _count_products(monkeypatch, lambda: m_adic_filtration(R)) == \
        t * sum(len(I.module_basis) for I in powers[:-1])
    # fingerprint reads the same powers through the ring's cached
    # `m_adic_layers`: one span per nonzero power
    spans = []
    span = Ideal._span
    monkeypatch.setattr(Ideal, "_span", lambda self, *args: spans.append(1) or span(self, *args))
    hilbert = fingerprint(R).hilbert
    assert len(spans) == len(sizes) - 1
    q = R.residue_field.size
    assert [q ** d for d in hilbert[1:]] == [a // b for a, b in zip(sizes, sizes[1:])]


def test_m_adic_filtration_of_a_field():
    k = build_galois_ring(3, 1, 2)
    assert [I.size for I in m_adic_filtration(k)] == [1]
    assert fingerprint(k).hilbert == (1,)


# -- homomorphism enumeration ------------------------------------------------


def test_hom_z4_to_z4_is_identity_only():
    R = ring_from_truncated_presentation(_pres(2, ["X"], ["X - 2"]), 2)
    # R is Z/4 presented with a generator, so hom sets are computable
    homs = hom_enumerate(R, z4())
    assert len(homs) == 1


def test_hom_z4eps_endomorphisms():
    R = z4_eps()
    homs = hom_enumerate(R, R)
    # e -> z with z^2 = 0 and z in m: 8 such maps
    assert len(homs) == 8
    for h in homs:
        assert h.verify()
    keys = [h.key() for h in homs]
    assert keys == sorted(keys)


def test_hom_f2eps_to_z4_empty():
    # a unital map from a characteristic-2 ring would force 2 = 0 in Z/4
    assert hom_enumerate(f2_eps(), z4()) == []


def test_hom_z4eps_tors_to_z4():
    # (Z/4)[e]/(e^2, 2e) -> Z/4: e -> z with z^2 = 0 = 2z gives z in {0, 2}
    R = ring_from_truncated_presentation(_pres(2, ["e"], ["e^2", "2*e"]), 2)
    assert len(hom_enumerate(R, z4())) == 2


def test_hom_char_obstruction():
    # the residue primes differ (F_2[e] lies over p = 2, Z/9 over p = 3), so
    # there is no base map at all and the search returns no homomorphisms
    assert hom_enumerate(f2_eps(), build_galois_ring(3, 2, 1)) == []


def test_hom_cap_is_explicit():
    # the cap bounds the candidate space |m_T|^t: m = (2, X, Y) has 4 * 8 * 8
    # elements and there are t = 2 generators
    R = ring_from_truncated_presentation(
        _pres(2, ["X", "Y"], ["X^2", "Y^2", "X*Y"]), 3)
    with pytest.raises(CapExceededError,
                       match="^65536 candidate maps exceed the cap 10$") as exc:
        hom_enumerate(R, R, cap=10)
    assert (exc.value.cap, exc.value.needed, exc.value.limit) == ("cap_maps", 65536, 10)
    with pytest.raises(CapExceededError, match="^8 candidate maps exceed the cap 7$"):
        hom_enumerate(z4_eps(), z4_eps(), cap=7)
    assert len(hom_enumerate(z4_eps(), z4_eps(), cap=8)) == 8


def test_hom_count_reads_no_element_cap_on_the_maximal_ideal():
    # |m_T| = 2^20 is above the default element cap, but the layered search
    # never lists m_T: only the map cap on the 2^20 candidates applies, and
    # (Z/2^21)[X]/(X - 2) = Z/2^21 has the one map X -> 2
    S = ring_from_truncated_presentation(_pres(2, ["X"], ["X - 2"]), 21)
    T = build_galois_ring(2, 21, 1)
    assert maximal_ideal(T).size == 2 ** 20 > DEFAULT_ELEMENT_CAP
    homs = hom_enumerate(S, T, cap=2 ** 20)
    assert [h.apply(S.generators[0]) for h in homs] == [T.from_int(2)]
    with pytest.raises(CapExceededError, match="^1048576 candidate maps exceed the cap"):
        hom_enumerate(S, T, cap=2 ** 20 - 1)


def test_identity_hom_verifies():
    for R in (z4(), z4_eps()):
        h = RingHom(R, R, R.basis)
        assert h.verify()
        x = R.from_int(3)
        assert h(x) == x


# -- fast routes against the brute-force oracles they replaced ----------------
#
# `dense_product` is the former dense N^2 * N kernel: products in W, then
# canonicalisation.  `fingerprint_oracle` is the former fingerprint: every
# element of R, its additive order read off its coefficients, and its
# nilpotency index by a power-of-two nilpotency test followed by a power walk.
# `validate_oracle` is the former table check: every law on all basis pairs
# and associativity on all N^3 basis triples.


def dense_product(ring: FiniteLocalRing, a, b) -> Tuple:
    W = ring.base
    zero = W.zero
    out = [zero] * ring.N
    for i, ai in enumerate(a):
        if ai == zero:
            continue
        for j, bj in enumerate(b):
            if bj == zero:
                continue
            cij = W.mul(ai, bj)
            for k, s in enumerate(_entries(W, ring.mul_table[i][j])):
                if s != zero:
                    out[k] = W.add(out[k], W.mul(cij, s))
    return RingElement(ring, [c for a in out for c in a]).flat


def _entries(W, flat):
    """The per-basis coefficients of a flat vector over W."""
    return [tuple(flat[i:i + W.r]) for i in range(0, len(flat), W.r)]


def _nilpotency_index_oracle(ring: FiniteLocalRing, x: RingElement):
    if not ring._is_nilpotent(x):
        return None
    e, y = 1, x
    while not y.is_zero():
        assert e < 2 * ring.N * ring.base.m, "x^(2^k) = 0 but the power walk runs on"
        y = y * x
        e += 1
    return e


def fingerprint_oracle(ring: FiniteLocalRing) -> Dict:
    W = ring.base
    orders: Dict[int, int] = {}
    nil: Dict[int, int] = {}
    for x in ring.enumerate_elements(10 ** 6):
        exps = [c - W.val(a) for c, a in zip(ring.orders, x.coefficients()) if a != W.zero]
        addord = W.p ** max(exps) if exps else 1
        orders[addord] = orders.get(addord, 0) + 1
        idx = _nilpotency_index_oracle(ring, x)
        if idx is not None:
            nil[idx] = nil.get(idx, 0) + 1
    return {"additive_order_counts": tuple(sorted(orders.items())),
            "nilpotency_index_counts": tuple(sorted(nil.items()))}


ORACLE_RINGS = {
    "Z/8": lambda: build_galois_ring(2, 3, 1),
    "Z/27": lambda: build_galois_ring(3, 3, 1),
    "GR(4,2)": lambda: build_galois_ring(2, 2, 2),
    "F2[e]": f2_eps,
    "F3[e]": lambda: ring_from_truncated_presentation(_pres(3, ["e"], ["e^2"]), 1),
    "(Z/4)[e]": z4_eps,
    "(Z/8)[X]/(X^2,2X)": lambda: ring_from_truncated_presentation(
        _pres(2, ["X"], ["X^2", "2*X"]), 3),
    "F2[X,Y]/(X^2,Y^2)": lambda: ring_from_truncated_presentation(
        _pres(2, ["X", "Y"], ["X^2", "Y^2"]), 1),
    "r_alpha(1)": lambda: ring_from_truncated_presentation(r_alpha_presentation(1, 2), 1),
    "GR(8,2)[X]/(X^2-2)": lambda: ring_from_truncated_presentation(
        _pres(2, ["X"], ["X^2 - 2"], r=2), 3),
}


@lru_cache(maxsize=None)
def oracle_ring(name: str) -> FiniteLocalRing:
    return ORACLE_RINGS[name]()


def _element(ring: FiniteLocalRing, draw) -> RingElement:
    coeff = st.integers(0, ring.base.q - 1)
    vec = st.lists(st.tuples(*[coeff] * ring.base.r), min_size=ring.N, max_size=ring.N)
    return RingElement(ring, [c for a in draw(vec) for c in a])


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(ORACLE_RINGS)), st.data())
def test_product_matches_dense_oracle(name, data):
    R = oracle_ring(name)
    x = _element(R, data.draw)
    y = _element(R, data.draw)
    xy = x * y
    assert xy.flat == dense_product(R, x.coefficients(), y.coefficients())
    assert xy.flat == R._canon(xy.flat)  # products come out canonical
    assert len(xy.flat) == R.N * R.base.r


def _element_at(ring: FiniteLocalRing, draw) -> RingElement:
    """An element whose precision, in a precision-mode ring, is drawn too."""
    x = _element(ring, draw)
    if ring.mode == "precision":
        x = RingElement(ring, x.flat, draw(st.integers(1, ring.base.m)))
    return x


# a precision-mode ring, beside the finite rings
SUM_RINGS = sorted(ORACLE_RINGS) + ["GR(8,2)[X]/(X^2-2), precision"]


@lru_cache(maxsize=None)
def sum_ring(name: str) -> FiniteLocalRing:
    if name == "GR(8,2)[X]/(X^2-2), precision":
        return ring_from_truncated_presentation(
            _pres(2, ["X"], ["X^2 - 2"], r=2), 3, mode="precision")
    return oracle_ring(name)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(SUM_RINGS), st.data(),
       st.one_of(st.integers(-9, 9), st.integers(-10 ** 40, 10 ** 40)))
def test_sums_match_galois_ring_oracle(name, data, n):
    """Flat sums, differences, negation and integer multiples give the
    coefficients and precision of the GaloisRing operation plus `_canon`."""
    R = sum_ring(name)
    W = R.base
    x = _element_at(R, data.draw)
    y = _element_at(R, data.draw)
    both = min(x.prec, y.prec)
    xs, ys = x.coefficients(), y.coefficients()
    cases = [(x + y, [W.add(a, b) for a, b in zip(xs, ys)], both),
             (x - y, [W.sub(a, b) for a, b in zip(xs, ys)], both),
             (-x, [W.sub(W.zero, a) for a in xs], x.prec),
             (x.scale_int(n), [W.mul(W.from_int(n), a) for a in xs], x.prec)]
    for got, coeffs, prec in cases:
        assert got.flat == R._canon([c for a in coeffs for c in a])
        assert got.prec == prec


@pytest.mark.parametrize("name", sorted(ORACLE_RINGS))
def test_fingerprint_matches_all_elements_oracle(name):
    R = oracle_ring(name)
    fp = fingerprint(R)
    oracle = fingerprint_oracle(R)
    assert fp.additive_order_counts == oracle["additive_order_counts"]
    assert fp.nilpotency_index_counts == oracle["nilpotency_index_counts"]
    assert sum(n for _, n in fp.nilpotency_index_counts) == fp.maximal_ideal_size


QUOTIENT_BASES = ["(Z/4)[e]", "(Z/8)[X]/(X^2,2X)", "GR(4,2)", "Z/27", "F3[e]"]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(QUOTIENT_BASES), st.data())
def test_fingerprint_of_random_quotients_matches_oracle(name, data):
    # quotients by random ideals give rings with mixed additive orders
    R = oracle_ring(name)
    gens = [_element(R, data.draw) for _ in range(data.draw(st.integers(1, 2)))]
    I = Ideal(R, [g for g in gens if not g.is_unit()] or [R.zero])
    Q = quotient_ring(R, I).target
    fp = fingerprint(Q)
    oracle = fingerprint_oracle(Q)
    assert fp.additive_order_counts == oracle["additive_order_counts"]
    assert fp.nilpotency_index_counts == oracle["nilpotency_index_counts"]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(set(ORACLE_RINGS) - {"r_alpha(1)", "GR(8,2)[X]/(X^2-2)"})),
       st.data())
def test_ideal_enumeration_matches_membership_filter(name, data):
    R = oracle_ring(name)
    gens = [_element(R, data.draw) for _ in range(data.draw(st.integers(0, 2)))]
    I = Ideal(R, gens)
    expected = [x for x in R.enumerate_elements() if I.contains(x)]
    assert [x.key() for x in I.enumerate_elements()] == [x.key() for x in expected]


@pytest.mark.parametrize("name", ["r_alpha(1)", "GR(8,2)[X]/(X^2-2)"])
def test_maximal_ideal_enumeration_matches_membership_filter(name):
    R = oracle_ring(name)
    m = maximal_ideal(R)
    expected = [x.key() for x in R.enumerate_elements() if m.contains(x)]
    assert [x.key() for x in m.enumerate_elements()] == expected


# -- ring tables: Light's test against the N^3 triple loop -------------------


def validate_oracle(ring: FiniteLocalRing) -> None:
    """The former `FiniteLocalRing._validate`: torsion, commutativity, unity and
    reduction on all basis pairs, associativity on all basis triples, and
    locality as the nilpotency of the module basis of the ideal that the
    kernel of the reduction generates."""
    W = ring.base
    k = ring.residue_field
    basis = ring.basis
    N = ring.N
    for i in range(N):
        for j in range(N):
            killed = (basis[i] * basis[j]).scale_int(
                W.p ** min(ring.orders[i], ring.orders[j]))
            if not killed.is_zero():
                raise RingConstructionError("structure constants violate additive orders")
    for i in range(N):
        for j in range(N):
            if basis[i] * basis[j] != basis[j] * basis[i]:
                raise RingConstructionError("multiplication not commutative")
            if (ring.one * basis[j]).flat != basis[j].flat:
                raise RingConstructionError("unity fails on basis")
            for l in range(N):
                if (basis[i] * basis[j]) * basis[l] != basis[i] * (basis[j] * basis[l]):
                    raise RingConstructionError("multiplication not associative")
    if ring.reduce_element(ring.one) != k.one:
        raise RingConstructionError("reduction does not send 1 to 1")
    for i in range(N):
        for j in range(N):
            lhs = k.mul(ring.reduce_element(basis[i]), ring.reduce_element(basis[j]))
            if lhs != ring.reduce_element(basis[i] * basis[j]):
                raise RingConstructionError("reduction is not multiplicative")
    for g in Ideal(ring, maximal_ideal(ring).module_basis).module_basis:
        if not ring._is_nilpotent(g):
            raise RingConstructionError("kernel of reduction is not nilpotent")


def _verdict(check, ring) -> str:
    try:
        check(ring)
    except RingConstructionError:
        return "rejected"
    return "accepted"


def _with_table(R: FiniteLocalRing, table, monos=True, residue=None,
                validate=False) -> FiniteLocalRing:
    return FiniteLocalRing(
        base=R.base, orders=R.orders, mul_table=table, one_coeffs=R.one.flat,
        residue_coeffs=R.residue_coeffs if residue is None else residue,
        generators=[g.flat for g in R.generators], basis_names=R.basis_names,
        basis_monos=R.basis_monos if monos else None, validate=validate)


@lru_cache(maxsize=None)
def square_zero_ring(name: str) -> FiniteLocalRing:
    R = oracle_ring(name)
    m = maximal_ideal(R)
    return square_zero_extension(R, ideal_product(m, m))[0]


# rings with more than one basis element; e_0 is the unity in all of them
TABLE_RINGS = ["(Z/4)[e]", "(Z/8)[X]/(X^2,2X)", "F2[e]", "F3[e]", "F2[X,Y]/(X^2,Y^2)",
               "GR(8,2)[X]/(X^2-2)", "r_alpha(1)",
               "sq:(Z/4)[e]", "sq:F3[e]", "sq:Z/8", "sq:GR(4,2)"]


def table_ring(name: str) -> FiniteLocalRing:
    return square_zero_ring(name[3:]) if name.startswith("sq:") else oracle_ring(name)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(TABLE_RINGS), st.booleans(),
       st.sampled_from(["table", "residue", "both"]), st.data())
def test_light_test_matches_triple_loop_on_perturbed_tables(name, monos, moved, data):
    # one structure constant of e_i * e_j and the same of e_j * e_i move by
    # the same nonzero amount, so the table stays commutative and usually
    # stops being associative; i, j > 0 leaves the unity's row alone.  The
    # square-zero extensions carry no monomials, and neither does a table
    # drawn with monos=False, so Light's test runs over the whole basis
    # there.  A moved residue coefficient lambda_l usually makes the
    # reduction fail to be multiplicative, or the ring fail to be local
    R = table_ring(name)
    assert _verdict(validate_oracle, R) == _verdict(FiniteLocalRing._validate, R) == "accepted"
    W = R.base
    N = R.N
    table = [[list(v) for v in row] for row in R.mul_table]
    if moved != "residue":
        i = data.draw(st.integers(1, N - 1))
        j = data.draw(st.integers(i, N - 1))
        k = data.draw(st.integers(0, N - 1))
        delta = data.draw(st.tuples(*[st.integers(0, W.q - 1)] * W.r).filter(any))
        for a, b in {(i, j), (j, i)}:
            table[a][b][W.r * k:W.r * k + W.r] = W.add(_entries(W, table[a][b])[k], delta)
    residue = list(R.residue_coeffs)
    if moved != "table":
        field = R.residue_field
        l = data.draw(st.integers(0, N - 1))
        delta = data.draw(st.tuples(*[st.integers(0, W.p - 1)] * W.r).filter(any))
        residue[l] = field.add(residue[l], delta)
    T = _with_table(R, table, monos, residue)
    assert _verdict(FiniteLocalRing._validate, T) == _verdict(validate_oracle, T)


def _f2(*bits):
    """A flat vector over F_2."""
    return list(bits)


def test_commutative_unital_non_associative_table_is_rejected():
    # basis 1, x, y over F_2 with x^2 = y^2 = 0 and xy = x: commutative and
    # unital, but (x y) y = x while x (y y) = 0
    W = GaloisRing(2, 1, 1)
    one, x, y, zero = _f2(1, 0, 0), _f2(0, 1, 0), _f2(0, 0, 1), _f2(0, 0, 0)
    table = [[one, x, y], [x, zero, x], [y, x, zero]]
    kwargs = dict(base=W, orders=[1, 1, 1], one_coeffs=one,
                  residue_coeffs=[(1,), (0,), (0,)], generators=[x, y],
                  basis_names=["1", "x", "y"])
    T = FiniteLocalRing(mul_table=table, validate=False, **kwargs)
    assert _verdict(validate_oracle, T) == "rejected"
    with pytest.raises(RingConstructionError, match="not associative"):
        FiniteLocalRing(mul_table=table, **kwargs)
    # 1, X, X^2 with X^2 * X^2 = X and X * X^2 = 0: every basis monomial is
    # a generator times another, so Light's test runs over X alone
    one, X, X2 = _f2(1, 0, 0), _f2(0, 1, 0), _f2(0, 0, 1)
    table = [[one, X, X2], [X, X2, zero], [X2, zero, X]]
    kwargs = dict(base=W, orders=[1, 1, 1], one_coeffs=one,
                  residue_coeffs=[(1,), (0,), (0,)], generators=[X],
                  basis_names=["1", "X", "X^2"], basis_monos=[(0,), (1,), (2,)])
    T = FiniteLocalRing(mul_table=table, validate=False, **kwargs)
    assert T._spanning_generators() == [T.generators[0]]
    assert _verdict(validate_oracle, T) == "rejected"
    with pytest.raises(RingConstructionError, match="not associative"):
        FiniteLocalRing(mul_table=table, **kwargs)
    # F_2[X, Y]/(X^2, Y^2) with Y * XY = 1: (Y Y) X = 0 but (Y X) Y = 1, which
    # only the test on the second generator sees
    R = oracle_ring("F2[X,Y]/(X^2,Y^2)")
    assert R.basis_names == ("1", "Y", "X", "X*Y")
    table = [[list(v) for v in row] for row in R.mul_table]
    table[1][3] = table[3][1] = _f2(1, 0, 0, 0)
    T = _with_table(R, table)
    assert T._spanning_generators() == list(T.generators)
    assert _verdict(validate_oracle, T) == "rejected"
    with pytest.raises(RingConstructionError, match="not associative.*for g = Y$"):
        T._validate()


# -- nilpotency by the pruned walk against the element walk ------------------

# (p, m, r, exponents): X^a (and Y^b) keep the ring finite and local, and
# the ring has at most 4096 elements
PRESENTATION_SHAPES = [
    (2, 1, 1, (6,)), (2, 2, 1, (4,)), (2, 3, 1, (3,)), (3, 1, 1, (5,)),
    (3, 2, 1, (3,)), (5, 1, 1, (4,)), (2, 1, 2, (4,)), (2, 1, 1, (3, 3)),
    (2, 2, 1, (2, 3)), (3, 1, 1, (2, 3)), (2, 1, 2, (2, 2)),
]


@st.composite
def local_presentations(draw):
    p, m, r, exps = draw(st.sampled_from(PRESENTATION_SHAPES))
    t = len(exps)
    rels = [Poly(t, {tuple(a if v == u else 0 for v in range(t)): 1})
            for u, a in enumerate(exps)]
    monos = [mo for mo in product(range(4), repeat=t) if 1 <= sum(mo) <= 3]
    for _ in range(draw(st.integers(0, 2))):
        terms = draw(st.dictionaries(st.sampled_from(monos), st.sampled_from([-3, -2, -1, 1, 2, 3]),
                                     min_size=1, max_size=3))
        rels.append(Poly(t, terms))
    names = ("X", "Y")[:t]
    return IntegerPolynomialPresentation(p, names, tuple(rels), r), m


@settings(max_examples=30, deadline=None)
@given(local_presentations())
def test_fingerprint_of_random_presentations_matches_oracle(pres_m):
    pres, m = pres_m
    R = ring_from_truncated_presentation(pres, m)
    fp = fingerprint(R)
    oracle = fingerprint_oracle(R)
    assert fp.additive_order_counts == oracle["additive_order_counts"]
    assert fp.nilpotency_index_counts == oracle["nilpotency_index_counts"]


def z27_cube_root_3():
    return ring_from_truncated_presentation(_pres(3, ["X"], ["X^3 - 3"]), 3)


@pytest.mark.parametrize("build", [lambda: oracle_ring("r_alpha(1)"), z27_cube_root_3],
                         ids=["r_alpha(1)", "Z/27[X]/(X^3-3)"])
def test_fingerprint_rejects_a_filtration_that_skips_a_power(build, monkeypatch):
    # without m^i the walk's classes still partition m, but the binomial
    # bound no longer holds, so some class claims an index its
    # representative does not have
    R = build()
    full = m_adic_filtration(R)
    assert len(full) >= 4
    for skip in range(1, len(full) - 1):
        f = full[:skip] + full[skip + 1:]
        monkeypatch.setattr(local_ring, "m_adic_layers",
                            lambda ring, f=f: [Layer(u, l) for u, l in zip(f, f[1:])])
        with pytest.raises(InternalInconsistencyError, match="although m"):
            fingerprint(R)


# -- m-adic powers through the generators, against products of ideals --------


def filtration_oracle(ring: FiniteLocalRing):
    """The powers of m as products of ideals, m^(i+1) = m^i * m."""
    m = maximal_ideal(ring)
    powers = [m]
    while powers[-1].size > 1:
        powers.append(ideal_product(powers[-1], m))
    return powers


def _assert_filtration_matches_oracle(R: FiniteLocalRing) -> None:
    assert ([[x.flat for x in I.module_basis] for I in m_adic_filtration(R)]
            == [[x.flat for x in I.module_basis] for I in filtration_oracle(R)])


@pytest.mark.parametrize("name", sorted(ORACLE_RINGS) + [n for n in TABLE_RINGS
                                                         if n.startswith("sq:")])
def test_m_adic_filtration_matches_ideal_products(name):
    # the square-zero extensions carry no monomials, so m's generators after
    # p are the e_j - s(red e_j) over the whole basis
    R = table_ring(name)
    if name.startswith("sq:"):
        assert R._spanning_generators() == R.basis
    _assert_filtration_matches_oracle(R)


@settings(max_examples=20, deadline=None)
@given(local_presentations())
def test_m_adic_filtration_of_random_presentations_matches_ideal_products(pres_m):
    pres, m = pres_m
    _assert_filtration_matches_oracle(ring_from_truncated_presentation(pres, m))


# -- ideal products from module bases ----------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(ORACLE_RINGS)), st.data())
def test_ideal_product_matches_ideal_generated_by_products(name, data):
    R = oracle_ring(name)
    I, J = (Ideal(R, [_element(R, data.draw)
                           for _ in range(data.draw(st.integers(0, 2)))])
            for _ in range(2))
    fast = ideal_product(I, J)
    slow = Ideal(R, [a * b for a in I.module_basis for b in J.module_basis])
    assert [x.flat for x in fast.module_basis] == [x.flat for x in slow.module_basis]
    assert fast.size == slow.size


@pytest.mark.parametrize("name", sorted(ORACLE_RINGS))
def test_maximal_ideal_is_the_ideal_its_generators_generate(name):
    # the generators are p and the x - s(red x), x over the spanning set
    R = oracle_ring(name)
    m = maximal_ideal(R)
    assert m.generators[0] == R.from_int(R.base.p)
    assert len(m.generators) <= 1 + len(R._spanning_generators())
    slow = Ideal(R, m.generators)
    assert [x.flat for x in m.module_basis] == [x.flat for x in slow.module_basis]


def test_ideal_enumeration_checks_its_count(monkeypatch):
    # a stream that drops one element is caught by the count against |I|
    m = maximal_ideal(z4_eps())
    elements = Ideal.elements
    monkeypatch.setattr(Ideal, "elements", lambda self: list(elements(self))[1:])
    with pytest.raises(InternalInconsistencyError, match="ideal enumeration missed elements"):
        m.enumerate_elements()


# -- work ceilings: ring products, which do not depend on the machine ----------


def _count_products(monkeypatch, fn) -> int:
    calls = []
    mul = RingElement.__mul__
    monkeypatch.setattr(RingElement, "__mul__",
                        lambda self, other: calls.append(1) or mul(self, other))
    fn()
    monkeypatch.setattr(RingElement, "__mul__", mul)
    return len(calls)


def test_ring_product_ceilings(monkeypatch):
    # the N^3 table check and the element walk took 10,042 products to build
    # r_alpha(1), and 18,431 and 42,452 for the two fingerprints.  Light's
    # test over the generators and locality over m's module basis took 419
    # and 940 (and 1,139 for the second fingerprint), while the powers of m
    # multiplied by all of m's module basis.  Now the table laws run on flat
    # integer vectors and locality and the powers run over the t = 2
    # generators: the build's 16 products are the 4 squarings of each of the
    # residue search's nilpotency tests, X and then Y, and of the same tests
    # in the locality check
    build = lambda: ring_from_truncated_presentation(r_alpha_presentation(1, 2), 1)
    assert _count_products(monkeypatch, build) == 16
    R = build()
    assert _count_products(monkeypatch, lambda: fingerprint(R)) == 620
    Z = z27_cube_root_3()
    assert _count_products(monkeypatch, lambda: fingerprint(Z)) == 1097


def test_matrix_product_ceilings(monkeypatch):
    # def_set of perfbench's defcount_s3_trivial_z4 job (S3, trivial, dim 2,
    # over Z/4) takes 204 matrix products, all of them in the lift solve:
    # the orbit walk acts by each layer generator as one row and one column
    # update, where it took 256 products (K M K^{-1}) and 4 inverses, 460 in
    # all, and 524 while a greedy closure over the listed kernel group
    # picked its generators.  Summing each entry term by term made 4,243
    # element products and built 4,574 elements through `_canon`; one `_dot`
    # per entry left 108 and 155.  Now the walk's scalings are memoised by
    # entry (24 products) and the lifts are checked against rhobar entry by
    # entry, with no residue-ring matrices: 86 and 15.  The orbit-stabiliser
    # check takes 56 of those products (16 orbits, each scaling the distinct
    # generator entries by m's one basis element).  With matrices as flat
    # coordinate tuples no product, sum or difference of matrices builds an
    # element, so both counts are exact: 84 products (the walk's 24
    # scalings, those 56, the layer's 2 multiples s(c) b and 2 inside one
    # inversion) and 15 elements through `_canon`, 10 of them unity lifts.
    calls = {"Matrix.__mul__": 0, "RingElement.__mul__": 0, "_canon": 0}

    def count(cls, name, key):
        fn = getattr(cls, name)

        def counted(*args):
            calls[key] += 1
            return fn(*args)
        monkeypatch.setattr(cls, name, counted)

    R = build_galois_ring(2, 2, 1)
    rhobar = trivial_residual_rep(symmetric(3), R, 2)
    count(Matrix, "__mul__", "Matrix.__mul__")
    count(RingElement, "__mul__", "RingElement.__mul__")
    count(FiniteLocalRing, "_canon", "_canon")
    assert def_set(rhobar, R, 10 ** 7).class_count == 16
    assert calls["Matrix.__mul__"] == 204
    assert calls["RingElement.__mul__"] == 84
    assert calls["_canon"] == 15
