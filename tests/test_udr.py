from __future__ import annotations

import pytest

import defring.representation as representation
import defring.udr as udr

from defring.groups import cyclic, symmetric
from defring.local_ring import build_galois_ring, ring_from_truncated_presentation
from defring.matrices import Matrix
from defring.polys import parse_poly
from defring.presentations import IntegerPolynomialPresentation, r_alpha_presentation
from defring.representation import (Lift, Representation, enumerate_lifts,
                                    residual_rep, trivial_residual_rep)
from defring.udr import (INTERPRET_FAIL, INTERPRET_PASS, OrderBoundError,
                         finiteness_bound_check, necessary_condition,
                         one_dim_udr_crosscheck, order_lower_bound)


def _pres(p, names, rels, r=1):
    return IntegerPolynomialPresentation.parse(p, names, rels, r)


def zmod(p, m):
    return build_galois_ring(p, m, 1)


# -- necessary condition -----------------------------------------------------


def test_necessary_condition_interpretations():
    fail = necessary_condition(_pres(2, ["X"], ["X^2"]))
    assert fail.report.verdict == "FAIL_NOT_REDUCED"
    assert fail.interpretation == INTERPRET_FAIL

    ok = necessary_condition(_pres(2, ["X"], ["X^4 - 1"]))
    assert ok.report.verdict == "PASS"
    assert ok.interpretation == INTERPRET_PASS

    inf = necessary_condition(_pres(2, ["X"], []))
    assert inf.report.verdict == "FAIL_NOT_FINITE"
    assert inf.interpretation == INTERPRET_FAIL


def test_necessary_condition_r_alpha_family():
    for alpha in (0, 1, 2):
        v = necessary_condition(r_alpha_presentation(alpha, 2))
        assert v.interpretation == INTERPRET_FAIL


# -- order lower bound -------------------------------------------------------


def test_order_bound_t2_plus_p2_example():
    # Z_2[T]/(T^2 + 4) with endomorphisms T -> T and T -> -T:
    # they agree mod 2m but not mod 4m, giving level 1 and the claim 4 | |G|
    pres = _pres(2, ["T"], ["T^2 + 4"])
    f1 = [parse_poly("T", ["T"])]
    f2 = [parse_poly("-T", ["T"])]
    res = order_lower_bound(pres, f1, f2)
    assert res.level == 1
    assert res.claim_divisor == 4
    assert res.claim.startswith("4 | |G|")
    assert res.precisions_certified[1] == res.precisions_certified[0] + 1


def test_order_bound_rejects_identical_maps():
    pres = _pres(2, ["T"], ["T^2 + 4"])
    f = [parse_poly("T", ["T"])]
    with pytest.raises(OrderBoundError):
        order_lower_bound(pres, f, list(f))


def test_order_bound_rejects_non_homomorphism():
    pres = _pres(2, ["T"], ["T^2 + 4"])
    with pytest.raises(OrderBoundError):
        order_lower_bound(pres, [parse_poly("T", ["T"])],
                          [parse_poly("2*T", ["T"])])  # (2T)^2 + 4 != 0


def test_order_bound_rejects_torsion_rings():
    pres = _pres(2, ["T"], ["T^2", "2*T"])
    with pytest.raises(OrderBoundError):
        order_lower_bound(pres, [parse_poly("T", ["T"])],
                          [parse_poly("-T", ["T"])])


def test_order_bound_level_zero():
    # maps differing already at m-level: T -> T vs T -> -T on T^2 + 1 ... over
    # p=2 these agree mod 2 (T = -T mod 2m?); use p=5, X^2-5: sqrt5 -> -sqrt5
    pres = _pres(5, ["X"], ["X^2 - 5"])
    res = order_lower_bound(pres, [parse_poly("X", ["X"])],
                            [parse_poly("-X", ["X"])])
    assert res.p == 5
    assert res.claim_divisor == 5 ** (res.level + 1)


# -- one-dimensional crosscheck ----------------------------------------------


def test_one_dim_crosscheck_values():
    cases = [
        (cyclic(2), 2, zmod(2, 2), 2),
        (cyclic(2), 2, zmod(2, 3), 4),
        (cyclic(3), 3, zmod(3, 2), 3),
        (cyclic(4), 2, zmod(2, 3), 4),
    ]
    for G, p, R, expected in cases:
        rhobar = trivial_residual_rep(G, R)
        rep = one_dim_udr_crosscheck(G, rhobar, R)
        assert rep.agree
        assert rep.predicted == rep.computed == expected


def test_one_dim_crosscheck_s3_sign():
    G = symmetric(3)
    k = build_galois_ring(3, 1, 1)
    rhobar = residual_rep(G, k, [Matrix(k, [[k.from_int(2)]]),
                                 Matrix(k, [[k.from_int(1)]])])
    rep = one_dim_udr_crosscheck(G, rhobar, zmod(3, 2))
    assert rep.agree
    assert rep.computed == 1


def test_one_dim_crosscheck_requires_rank_one():
    G = cyclic(2)
    R = zmod(2, 2)
    with pytest.raises(ValueError):
        one_dim_udr_crosscheck(G, trivial_residual_rep(G, R, n=2), R)


# -- finiteness bound --------------------------------------------------------


def _c2_over_z16():
    R = ring_from_truncated_presentation(_pres(2, [], []), 4, mode="precision")
    G = cyclic(2)
    rhobar = trivial_residual_rep(G, R)
    lifts = [Lift(Representation.from_generator_images(
        G, R, [Matrix(R, [[R.from_int(v)]])]), rhobar) for v in (1, 9, 15, 7)]
    return rhobar, R, lifts


def test_finiteness_bound_c2_over_z16():
    rhobar, R, lifts = _c2_over_z16()
    rep = finiteness_bound_check(rhobar, R, lifts)
    # R/J = Z/4: classes {1, 3} -> bound 2; the report has no injectivity
    # field, as nothing over R is decided independently of R/J
    assert rep.as_dict() == {"bound": 2, "p_exponent": 1, "pairs_checked": 6}


def test_finiteness_bound_builds_r_mod_j_once(monkeypatch):
    # one J = |G| m_R and one quotient R/J for all six pairs, including the
    # averaging of each equivalent pair
    calls = {"order_ideal": 0, "quotient_ring": 0}
    for name in calls:
        original = getattr(representation, name)

        def counting(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        for module in (representation, udr):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counting)
    rep = finiteness_bound_check(*_c2_over_z16())
    assert rep.pairs_checked == 6
    assert calls == {"order_ideal": 1, "quotient_ring": 1}


def test_finiteness_bound_no_lifts_supplied():
    R = zmod(3, 2)
    G = cyclic(3)
    rhobar = trivial_residual_rep(G, R)
    rep = finiteness_bound_check(rhobar, R)
    assert rep.pairs_checked == 0
    assert rep.bound >= 1
