from __future__ import annotations

import json
from itertools import product
from pathlib import Path

import pytest

import defring.representation as representation
from defring.cli import main
from defring.errors import InternalInconsistencyError
from defring.groups import (abelianization, cyclic, dihedral, direct_product,
                            quaternion8, symmetric)
from defring.local_ring import (DEFAULT_ELEMENT_CAP, CapExceededError,
                                build_galois_ring, ideal_span, identity_hom,
                                maximal_ideal, quotient_ring,
                                ring_from_truncated_presentation)
from defring.matrices import Matrix
from defring.presentations import IntegerPolynomialPresentation
from defring.representation import (Lift, MarandaPreconditionError,
                                    Representation, RepresentationError,
                                    are_strictly_equivalent, def_set,
                                    enumerate_lifts, kernel_group,
                                    maranda_average, maranda_decide,
                                    normalize_intertwiner, order_ideal,
                                    residual_rep, tangent_dimension,
                                    trivial_residual_rep,
                                    unique_deformation_check)

import oracles
from oracles import (derivation_check, hom_family, hom_vs_derivation, is_invertible,
                     square_zero_extension, tangent_space)
from test_lift_oracles import candidate_lifts


def _pres(p, names, rels, r=1):
    return IntegerPolynomialPresentation.parse(p, names, rels, r)


def zmod(p, m):
    return build_galois_ring(p, m, 1)


def zmod_prec(p, m):
    return ring_from_truncated_presentation(_pres(p, [], []), m, mode="precision")


def _lift_1dim(rhobar, ring, value):
    rep = Representation.from_generator_images(
        rhobar.group, ring, [Matrix(ring, [[ring.from_int(value)]])])
    return Lift(rep, rhobar)


# -- lift enumeration and deformation sets -----------------------------------


def test_lift_counts_one_dimensional():
    cases = [
        (cyclic(2), zmod(2, 2), 2),   # x^2 = 1 mod 4: {1, 3}
        (cyclic(2), zmod(2, 3), 4),   # mod 8: {1, 3, 5, 7}
        (cyclic(3), zmod(2, 2), 1),   # x^3 = 1 mod 4: {1}
        (cyclic(3), zmod(3, 2), 3),   # mod 9: {1, 4, 7}
        (cyclic(4), zmod(2, 3), 4),   # x^4 = 1 mod 8
    ]
    for G, R, expected in cases:
        rhobar = trivial_residual_rep(G, R)
        lifts = enumerate_lifts(rhobar, R)
        assert len(lifts) == expected, (G.name, R.label)
        # rank 1 over a commutative ring: conjugation is trivial
        assert def_set(rhobar, R).class_count == expected


def test_identity_generator_does_not_multiply_lifts():
    # dihedral(1) is C2 with the trivial rotation as an extra generator; its
    # lifts must not be counted once per image of that generator
    R = zmod(2, 2)
    ds = def_set(trivial_residual_rep(dihedral(1), R), R)
    assert (ds.total_lifts, ds.orbit_sizes) == (2, [1, 1])


def test_lift_reduction_mismatch_rejected():
    G = cyclic(2)
    R = zmod(2, 2)
    rhobar = trivial_residual_rep(G, R)
    k = R.residue_ring
    bad = Representation.from_generator_images(
        G, R, [Matrix(R, [[R.from_int(1)]])])
    other_rhobar = residual_rep(G, k, [Matrix(k, [[k.from_int(1)]])])
    Lift(bad, other_rhobar)  # fine: reductions agree
    with pytest.raises(RepresentationError):
        sign_bar = residual_rep(cyclic(2), build_galois_ring(3, 1, 1),
                                [Matrix(build_galois_ring(3, 1, 1),
                                        [[build_galois_ring(3, 1, 1).from_int(2)]])])
        R9 = zmod(3, 2)
        Lift(Representation.from_generator_images(
            cyclic(2), R9, [Matrix(R9, [[R9.from_int(1)]])]), sign_bar)


def test_lift_with_one_mismatched_generator_rejected():
    # only the generators are compared: D4's rotation reduces correctly, its
    # reflection does not
    G = dihedral(4)
    R = zmod(2, 2)
    k = R.residue_ring
    swap = Matrix(k, [[k.zero, k.one], [k.one, k.zero]])
    rhobar = residual_rep(G, k, [Matrix.identity(k, 2), swap])
    trivial = Representation.from_generator_images(
        G, R, [Matrix.identity(R, 2), Matrix.identity(R, 2)])
    with pytest.raises(RepresentationError):
        Lift(trivial, rhobar)
    R_swap = Matrix(R, [[R.zero, R.one], [R.one, R.zero]])
    Lift(Representation.from_generator_images(
        G, R, [Matrix.identity(R, 2), R_swap]), rhobar)  # fine: reductions agree


def test_strict_equivalence_on_c1_returns_the_identity():
    # C1 has no generators, so the conjugator search cannot read n off them
    G = cyclic(1)
    R = zmod_prec(2, 4)
    k = R.residue_ring
    for n in (1, 2):
        rhobar = Representation(G, k, n, [Matrix.identity(k, n)])
        lift = Lift(Representation(G, R, n, [Matrix.identity(R, n)]), rhobar)
        assert are_strictly_equivalent(lift, lift) == (True, Matrix.identity(R, n))
        eq, cert = maranda_decide(lift, lift)
        assert eq and cert.B0 == Matrix.identity(R, n)


def test_singular_generator_image_rejected():
    # no separate invertibility test: the Cayley edges reject singular images
    R = zmod(2, 2)
    with pytest.raises(RepresentationError):  # [[2]]^2 = 0 != 1 over Z/4
        Representation.from_generator_images(cyclic(2), R, [Matrix(R, [[R.from_int(2)]])])
    one, zero = R.from_int(1), R.from_int(0)
    with pytest.raises(RepresentationError):  # a rank-one idempotent is not I
        Representation.from_generator_images(
            cyclic(2), R, [Matrix(R, [[one, zero], [zero, zero]])])


def test_sign_rep_s3_over_z9_single_class():
    G = symmetric(3)
    k = build_galois_ring(3, 1, 1)
    # generators of S3 here: a transposition (sign -1) and the 3-cycle (sign +1)
    rhobar = residual_rep(G, k, [Matrix(k, [[k.from_int(2)]]),
                                 Matrix(k, [[k.from_int(1)]])])
    ds = def_set(rhobar, zmod(3, 2))
    assert ds.class_count == 1


def test_unique_deformation_when_p_coprime():
    G = cyclic(3)
    for R in (zmod(2, 2), zmod(2, 3)):
        assert unique_deformation_check(trivial_residual_rep(G, R), R)
    with pytest.raises(ValueError):
        unique_deformation_check(
            trivial_residual_rep(cyclic(2), zmod(2, 2)), zmod(2, 2))


def test_two_dimensional_def_set_orbits():
    # C2 trivial 2-dim over F2[eps]: lifts I + eps*M with M^... ; orbit structure
    G = cyclic(2)
    keps = ring_from_truncated_presentation(_pres(2, ["e"], ["e^2"]), 1)
    rhobar = trivial_residual_rep(G, keps.residue_ring, n=2)
    ds = def_set(rhobar, keps, cap_maps=10 ** 6)
    assert ds.total_lifts == sum(ds.orbit_sizes)
    assert ds.class_count >= 1
    # representatives are canonical: least key in each orbit
    for rep, size in zip(ds.representatives, ds.orbit_sizes):
        assert size >= 1


def test_kernel_group_size():
    R = zmod(2, 2)
    kg = kernel_group(R, 2, cap=10 ** 5)
    # I + M_2(2Z/4): 2^4 matrices, all invertible
    assert len(kg) == 16
    for K in kg:
        assert is_invertible(K)
    # the oracle lists the group, so its cap binds
    with pytest.raises(CapExceededError,
                       match="^kernel group has 16 matrices, above the cap 15$"):
        kernel_group(R, 2, cap=15)


def test_def_set_reads_no_kernel_group_cap():
    # over Z/64, |1 + M_2(m)| = (2^5)^4 = 2^20 is above the default element
    # cap, but the orbits are walked over layer generators and the
    # conjugator is solved for, so the kernel group is never listed
    R = zmod(2, 6)
    assert maximal_ideal(R).size ** 4 > DEFAULT_ELEMENT_CAP
    ds = def_set(trivial_residual_rep(cyclic(2), R, 2), R)
    assert (ds.total_lifts, ds.class_count) == (6176, 56)
    l1, l2 = ds.representatives[:2]
    assert are_strictly_equivalent(l1, l2) == (False, None)
    assert are_strictly_equivalent(l1, l1) == (True, Matrix.identity(R, 2))


# -- tangent spaces ----------------------------------------------------------


def _assert_tangent_routes_agree(rhobar):
    """tangent_dimension against the enumerated classes over k[eps].

    `tangent_space` reaches the Cayley-edge rows that `tangent_dimension`
    solves through `enumerate_lifts`, so the lifts it starts from are also
    checked against the brute-force candidate enumeration.
    """
    k = rhobar.ring
    keps = ring_from_truncated_presentation(
        _pres(k.base.p, ["e"], ["e^2"], k.base.r), 1, h=k.base.h)
    assert [l.key() for l in enumerate_lifts(rhobar, keps)] == \
        candidate_lifts(rhobar, keps), rhobar
    ds, t = tangent_space(rhobar)  # raises if the count is not a q-power
    assert ds.class_count == k.size ** t
    assert tangent_dimension(rhobar) == t, rhobar


def test_tangent_dimensions():
    cases = [
        (trivial_residual_rep(cyclic(2), zmod(2, 1)), 2, 1),
        (trivial_residual_rep(cyclic(3), zmod(3, 1)), 3, 1),
        (trivial_residual_rep(cyclic(3), zmod(2, 1)), 1, 0),
        (trivial_residual_rep(direct_product(cyclic(2), cyclic(2)),
                              zmod(2, 1)), 4, 2),
    ]
    for rhobar, count, t in cases:
        ds, tdim = tangent_space(rhobar)
        assert ds.class_count == count
        assert tdim == t


def test_tangent_counts_are_q_powers_across_corpus():
    # the acceptance corpus, then the two n = 2 tangent jobs of the benchmark,
    # Klein-4 over F4 (r = 2) and D1, whose rotation generator is the identity;
    # the cohomological dimension must equal the enumerated one
    klein4 = direct_product(cyclic(2), cyclic(2))
    f2 = build_galois_ring(2, 1, 1)
    reps = [trivial_residual_rep(G, build_galois_ring(p, 1, 1))
            for G in (cyclic(2), cyclic(3), klein4, symmetric(3), quaternion8())
            for p in (2, 3)]
    reps += [trivial_residual_rep(dihedral(4), f2, 2),
             trivial_residual_rep(cyclic(4), f2, 2),
             trivial_residual_rep(klein4, build_galois_ring(2, 1, 2)),
             trivial_residual_rep(dihedral(1), f2)]
    assert len(reps) == 14
    for rhobar in reps:
        _assert_tangent_routes_agree(rhobar)


def test_tangent_dimension_matches_enumeration_on_every_gl2_f2_rep():
    # every generator-image tuple in M_2(F2) that defines a representation,
    # so non-trivial ones such as the standard representation of S3 too
    k = build_galois_ring(2, 1, 1)
    mats = [Matrix(k, [[k.from_int(a), k.from_int(b)],
                       [k.from_int(c), k.from_int(d)]])
            for a, b, c, d in product(range(2), repeat=4)]
    counts = {}
    for G in (cyclic(2), cyclic(3), cyclic(4),
              direct_product(cyclic(2), cyclic(2)), symmetric(3)):
        counts[G.name] = 0
        for images in product(mats, repeat=len(G.generators)):
            try:
                rhobar = residual_rep(G, k, list(images))
            except RepresentationError:
                continue
            counts[G.name] += 1
            _assert_tangent_routes_agree(rhobar)
    # |Hom(G, GL_2(F2))|, GL_2(F2) being S3
    assert counts == {"C2": 4, "C3": 3, "C4": 4, "C2xC2": 10, "S3": 10}


def test_tangent_dimension_of_trivial_rep_is_hom_from_abelianization():
    # for trivial rhobar, H^1 = Hom(G^ab, k)^(n^2), and Hom(Z/d, k) is k when
    # p | d and 0 otherwise
    klein4 = direct_product(cyclic(2), cyclic(2))
    groups = [cyclic(1), cyclic(2), cyclic(6), klein4, symmetric(3),
              symmetric(4), dihedral(1), dihedral(3), dihedral(4),
              quaternion8(), direct_product(cyclic(2), cyclic(4))]
    for G in groups:
        for p, r in ((2, 1), (3, 1), (2, 2)):
            k = build_galois_ring(p, 1, r)
            for n in (1, 2):
                expected = n * n * sum(1 for d in abelianization(G) if d % p == 0)
                assert tangent_dimension(trivial_residual_rep(G, k, n)) == expected, \
                    (G.name, p, r, n)
    f2, f4 = build_galois_ring(2, 1, 1), build_galois_ring(2, 1, 2)
    assert [tangent_dimension(trivial_residual_rep(G, k, n))
            for G, k, n in ((dihedral(4), f2, 2), (cyclic(4), f2, 2),
                            (klein4, f4, 1))] == [8, 4, 2]


# -- Maranda averaging -------------------------------------------------------


def test_maranda_average_c2_over_z16():
    R = zmod_prec(2, 4)
    G = cyclic(2)
    rhobar = trivial_residual_rep(G, R)
    # 15 = -1 is the genuine nontrivial lift of the trivial residual rep
    l15 = _lift_1dim(rhobar, R, 15)
    # A = 1 + 4: congruent to the identity mod m and intertwines mod J = 2m = (4)
    A = Matrix(R, [[R.from_int(5)]])
    cert = maranda_average(l15.rep, l15.rep, A)
    assert cert.p_exponent == 1
    assert cert.precision == 3
    g = G.generators[0]
    assert (l15.rep.matrix(g) * cert.B0).agrees_at(
        cert.B0 * l15.rep.matrix(g), cert.precision)


def test_maranda_average_identity_input_gives_identity():
    R = zmod_prec(2, 4)
    G = cyclic(2)
    rhobar = trivial_residual_rep(G, R)
    l1 = _lift_1dim(rhobar, R, 1)
    cert = maranda_average(l1.rep, l1.rep, Matrix.identity(R, 1))
    assert cert.B0 == Matrix.identity(R, 1)


def test_maranda_average_precondition_violation_reports_element():
    R = zmod_prec(2, 4)
    G = cyclic(2)
    rhobar = trivial_residual_rep(G, R)
    l1 = _lift_1dim(rhobar, R, 1)
    l15 = _lift_1dim(rhobar, R, 15)
    with pytest.raises(MarandaPreconditionError) as e:
        maranda_average(l1.rep, l15.rep, Matrix.identity(R, 1))
    assert e.value.violating_element == G.generators[0]


def test_maranda_decide_on_z16_lifts():
    R = zmod_prec(2, 4)
    G = cyclic(2)
    rhobar = trivial_residual_rep(G, R)
    l1 = _lift_1dim(rhobar, R, 1)
    l9 = _lift_1dim(rhobar, R, 9)
    l15 = _lift_1dim(rhobar, R, 15)
    # 9 = 1 mod J=(4): a truncation artifact, decide says equivalent
    eq, cert = maranda_decide(l1, l9)
    assert eq and cert is not None
    # 15 = 3 mod 4 != 1: genuinely distinct
    eq, cert = maranda_decide(l1, l15)
    assert not eq and cert is None


def test_maranda_decide_two_dimensional():
    R = zmod_prec(2, 4)
    G = cyclic(2)
    rhobar = trivial_residual_rep(G, R, n=2)
    I2 = Matrix.identity(R, 2)
    diag = Matrix(R, [[R.from_int(15), R.zero], [R.zero, R.from_int(1)]])
    l_diag = Lift(Representation.from_generator_images(G, R, [diag]), rhobar)
    # conjugate by a kernel-group element: must be decided equivalent
    K = Matrix(R, [[R.from_int(1), R.from_int(2)],
                   [R.from_int(4), R.from_int(1)]])
    l_conj = Lift(l_diag.rep.conjugate(K), rhobar)
    eq, cert = maranda_decide(l_diag, l_conj)
    assert eq and cert is not None
    g = G.generators[0]
    assert (l_diag.rep.matrix(g) * cert.B0).agrees_at(
        cert.B0 * l_conj.rep.matrix(g), cert.precision)
    # against the identity lift: distinct mod J
    l_triv = Lift(Representation.from_generator_images(G, R, [I2]), rhobar)
    eq, _ = maranda_decide(l_diag, l_triv)
    assert not eq


def test_quotient_by_order_ideal_does_not_depend_on_mode():
    # R/J with J = |G| m_R, for C2 and Z2[sqrt 2] at precision 6: m = (X), J = (X^3)
    R = ring_from_truncated_presentation(_pres(2, ["X"], ["X^2 - 2"]), 6,
                                         mode="precision")
    Rf = ring_from_truncated_presentation(_pres(2, ["X"], ["X^2 - 2"]), 6)
    G = cyclic(2)
    surj = quotient_ring(R, order_ideal(R, G))
    twin = quotient_ring(Rf, order_ideal(Rf, G))
    assert surj.target.mul_table == twin.target.mul_table
    assert surj.target.label == twin.target.label
    assert surj.target.orders == twin.target.orders == (2, 1)
    for a, b in product(range(8), repeat=2):
        x = R.element([(a,), (b,)])
        assert surj.project(x).flat == twin.project(Rf.element(x.coefficients())).flat
    for xbar in surj.target.enumerate_elements():
        lifted = surj.section(xbar)
        assert lifted.ring is R and surj.project(lifted) == xbar


# -- intertwiner normalization -----------------------------------------------


def test_normalize_intertwiner_scalar():
    R = zmod(2, 3)  # Z/8
    G = cyclic(2)
    rho = Representation.from_generator_images(
        G, R, [Matrix(R, [[R.from_int(7)]])])
    B = Matrix(R, [[R.from_int(3)]])
    u, B0 = normalize_intertwiner(rho, rho, B)
    assert u == R.from_int(3)
    assert B0 == Matrix.identity(R, 1)


def test_normalize_intertwiner_2dim():
    R = zmod(2, 3)
    G = cyclic(2)
    rho = Representation.from_generator_images(
        G, R, [Matrix.identity(R, 2)])
    three = R.from_int(3)
    B = Matrix(R, [[three, R.from_int(6)], [R.zero, three]])
    u, B0 = normalize_intertwiner(rho, rho, B)
    assert u == three
    # 6 = 3 * 2: the off-diagonal entry of B0 is 2
    assert B0.rows[0][1] == R.from_int(2)
    assert B0.rows[0][0] == R.one


def test_normalize_intertwiner_rejects_non_scalar_reduction():
    R = zmod(2, 3)
    G = cyclic(2)
    rho = Representation.from_generator_images(G, R, [Matrix.identity(R, 2)])
    B = Matrix(R, [[R.from_int(3), R.one], [R.zero, R.from_int(3)]])
    with pytest.raises(ValueError):
        normalize_intertwiner(rho, rho, B)


# -- derivations -------------------------------------------------------------


def test_derivation_check_on_z4_eps():
    R = ring_from_truncated_presentation(_pres(2, ["X"], ["X^2"]), 2)
    f = identity_hom(R)
    x = R.generators[0]
    I = ideal_span(R, [x.scale_int(2)])  # (2X): square-zero
    # D(1) = 0, D(X) = 2X is the derivation d/dX scaled into the ideal
    assert derivation_check(f, I, [R.zero, x.scale_int(2)])
    # D(1) = 2X is not a derivation (Leibniz fails at 1*1)
    assert not derivation_check(f, I, [x.scale_int(2), R.zero])


def test_hom_vs_derivation_booleans_agree():
    R = ring_from_truncated_presentation(_pres(2, ["X"], ["X^2"]), 2)
    f = identity_hom(R)
    x = R.generators[0]
    I = ideal_span(R, [x.scale_int(2)])
    for vals in ([R.zero, R.zero], [R.zero, x.scale_int(2)],
                 [x.scale_int(2), R.zero], [x.scale_int(2), x.scale_int(2)]):
        g_images = [fi + v for fi, v in zip(f.basis_images, vals)]
        g_hom, is_deriv = hom_vs_derivation(f, g_images, I)
        assert g_hom == is_deriv


def test_square_zero_extension_and_family():
    # S = Z/8 + eps*(Z/8): the family x + C*eps*x over the truncated Witt ring
    R = zmod(2, 3)
    S, incl, eps_basis = square_zero_extension(R, ideal_span(R, []))
    assert S.size == 8 * 8
    eps = eps_basis[0]
    assert (eps * eps).is_zero()
    # any derivation kills 1, so over the rank-1 basis {1} only d = 0 exists
    homs, distinct = hom_family(incl, [S.zero], [R.from_int(c) for c in (1, 3, 5, 7)])
    assert len(homs) == 4 and distinct == 1  # d = 0 collapses the family


def test_hom_family_with_nonzero_derivation():
    # R = (Z/8)[X]/(X^2): maps x + eps*y -> x + C*eps*y realized as
    # basis {1, X}, derivation D(1) = 0, D(X) = eps*X-part
    R = ring_from_truncated_presentation(_pres(2, ["X"], ["X^2"]), 3)
    ann = ideal_span(R, [R.generators[0]])  # R/(X) = Z/8
    S, incl, eps_basis = square_zero_extension(R, ann)
    # D kills 1 and sends X to eps (the generator of the module part)
    d_values = [S.zero, eps_basis[0]]
    assert derivation_check(incl, ideal_span(S, eps_basis), d_values)
    scalars = [R.from_int(c) for c in (1, 3, 5, 7)]
    homs, distinct = hom_family(incl, d_values, scalars)
    assert len(homs) == 4
    assert distinct == 4


# -- the averaging and extension-family checks can fail ------------------------

MARANDA_EQUIVALENT_JOB = (Path(__file__).resolve().parent.parent / "perfbench"
                          / "jobs" / "maranda_c2_equivalent.job")


def _maranda_c2_lifts():
    """diag(1, -1) and its conjugate [[1, -4], [0, -1]] over Z/16, as in
    the `maranda-check` job over (Z/2^6)[X]/(X^2 - 2)."""
    R = zmod_prec(2, 4)
    G = cyclic(2)
    rhobar = trivial_residual_rep(G, R, n=2)
    lifts = [Lift(Representation.from_generator_images(G, R, [Matrix(R, [
        [R.from_int(1), R.from_int(b)], [R.zero, R.from_int(-1)]])]), rhobar)
        for b in (0, -4)]
    assert maranda_decide(*lifts)[0]
    return lifts


def test_a_wrong_division_by_the_group_order_is_caught_by_the_intertwining_check(
        monkeypatch, capsys):
    # the exact division B / p^r is made to add 1 to the corner entry of
    # B0; rho1 E_00 - E_00 rho2 = 4 E_01 is nonzero at the certified
    # precision, so B0 no longer intertwines
    exact_divide = representation.exact_divide
    calls = []

    def off_at_the_corner(b, a):
        calls.append(1)
        q = exact_divide(b, a)
        return q + q.ring.one if len(calls) == 1 else q

    monkeypatch.setattr(representation, "exact_divide", off_at_the_corner)
    with pytest.raises(InternalInconsistencyError,
                       match="^averaging failed to produce an intertwiner; bug$"):
        maranda_decide(*_maranda_c2_lifts())
    calls.clear()
    assert main(["maranda-check", str(MARANDA_EQUIVALENT_JOB), "--no-cache"]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == \
        "averaging failed to produce an intertwiner; bug"


def test_a_zero_average_is_caught_by_the_congruence_check(monkeypatch, capsys):
    # every exact division answers 0: B0 = 0 intertwines every pair, but it
    # is not congruent to the identity modulo m
    monkeypatch.setattr(representation, "exact_divide", lambda b, a: b.ring.zero)
    with pytest.raises(InternalInconsistencyError,
                       match="^averaged intertwiner left I_n \\+ M_n\\(m_R\\); bug$"):
        maranda_decide(*_maranda_c2_lifts())
    assert main(["maranda-check", str(MARANDA_EQUIVALENT_JOB), "--no-cache"]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == \
        "averaged intertwiner left I_n + M_n(m_R); bug"


def test_a_wrong_unit_is_caught_by_the_normalization_check(monkeypatch):
    # over Z/9 the inverse of the corner unit u = 1 is made to answer 2, so
    # B0 = 2 I reduces to 2 I, not to the identity; no CLI route normalizes
    R = zmod(3, 2)
    one = Matrix.identity(R, 2)
    lift = Representation.from_generator_images(cyclic(2), R, [one])
    assert normalize_intertwiner(lift, lift, one)[0] == R.one
    invert = R.invert
    monkeypatch.setattr(R, "invert", lambda x: invert(x) * R.from_int(2))
    with pytest.raises(InternalInconsistencyError,
                       match="^normalization left I_n \\+ M_n\\(m_R\\); bug$"):
        normalize_intertwiner(lift, lift, one)


def test_a_wrong_inclusion_is_caught_by_the_ring_map_check(monkeypatch):
    # the inclusion R -> R + eps (R/ann) is built with eps in place of the
    # image of 1, which is no unital map; no CLI route builds extensions
    ring_hom = oracles.RingHom

    def shifted(source, target, images):
        if source.N < target.N:
            images = [target.basis_element(target.N - 1), *images[1:]]
        return ring_hom(source, target, images)

    monkeypatch.setattr(oracles, "RingHom", shifted)
    R = zmod(2, 3)
    with pytest.raises(InternalInconsistencyError,
                       match="^inclusion into the extension is not a ring map$"):
        square_zero_extension(R, ideal_span(R, []))


def test_a_family_from_a_non_derivation_is_caught_by_the_hom_check():
    # d(1) = eps is no derivation, since every derivation kills 1, so
    # x -> x + C d(x) sends 1 to 1 + C eps and is not unital
    R = zmod(2, 3)
    S, incl, eps_basis = square_zero_extension(R, ideal_span(R, []))
    with pytest.raises(InternalInconsistencyError,
                       match="^family member failed homomorphism verification; bug$"):
        hom_family(incl, [eps_basis[0]], [R.one])
