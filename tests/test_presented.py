from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from defring.polys import Poly, parse_poly
from defring.presentations import IntegerPolynomialPresentation, r_alpha_presentation
from defring.presented import (IntegralityObstruction,
                               InternalInconsistencyError, etale_check,
                               nilpotent_witness, omega_rank, q_fiber,
                               trace_form, verify_presented_hom,
                               w_membership_check)


def _pres(p, names, rels, r=1):
    return IntegerPolynomialPresentation.parse(p, names, rels, r)


# -- fixed verdict vectors ---------------------------------------------------

VERDICT_VECTORS = [
    (_pres(2, ["X"], ["X^2"]), "FAIL_NOT_REDUCED"),
    (_pres(2, ["X"], []), "FAIL_NOT_FINITE"),
    (_pres(2, ["X"], ["X^2 - 1"]), "PASS"),
    (_pres(2, ["X"], ["X^4 - 1"]), "PASS"),
    (_pres(3, ["X"], ["X^3 - 1"]), "PASS"),
    (_pres(5, ["X"], ["X^2 - 5"]), "PASS"),
    (_pres(2, ["X"], ["X^2 - 2*X"]), "PASS"),
    (_pres(2, ["X"], ["X^2 - 4*X"]), "PASS"),
    (_pres(5, ["X"], ["X^2 - 5*X"]), "PASS"),
    (_pres(2, ["X"], ["X^2", "2*X"]), "PASS"),  # Q-fiber is Q: zero-dim note
]


@pytest.mark.parametrize("pres,expected", VERDICT_VECTORS,
                         ids=[p.describe() for p, _ in VERDICT_VECTORS])
def test_etale_verdict_vectors(pres, expected):
    rep = etale_check(pres)
    assert rep.verdict == expected


def test_r_alpha_family_fails_with_witness():
    for alpha in (0, 1, 2):
        pres = r_alpha_presentation(alpha, 2)
        rep = etale_check(pres)
        assert rep.verdict == "FAIL_NOT_REDUCED"
        assert rep.witness is not None
        _elt, power = rep.witness
        assert 2 <= power <= rep.dim


def test_torsion_killed_on_the_fiber():
    # 2X = 0 kills X rationally: the fiber is Q itself
    rep = etale_check(_pres(2, ["X"], ["X^2", "2*X"]))
    assert rep.verdict == "PASS"
    assert rep.dim == 1
    assert rep.groebner == ("X",)


def test_zero_fiber_passes_vacuously():
    rep = etale_check(_pres(2, ["X"], ["X", "X - 2"]))
    assert rep.verdict == "PASS"
    assert rep.dim == 0
    assert rep.note  # the vacuous case carries an explanatory note


def test_report_as_dict_shape():
    d = etale_check(_pres(2, ["X"], ["X^2 - 1"])).as_dict()
    assert set(d) == {"finite_dimensional", "dim", "trace_det", "omega_rank",
                      "reduced", "verdict", "witness", "groebner_basis", "note"}
    d_inf = etale_check(_pres(2, ["X"], [])).as_dict()
    assert d_inf["dim"] == "infinite"


# -- dual-route agreement ----------------------------------------------------


def _random_presentation(rng: random.Random) -> IntegerPolynomialPresentation:
    """Random finite-dimensional presentation: pure powers per variable plus noise."""
    p = rng.choice([2, 3, 5])
    t = rng.randint(1, 2)
    names = ["X", "Y"][:t]
    rels = []
    for i, nm in enumerate(names):
        a = rng.randint(1, 4)
        extra = []
        for _ in range(rng.randint(0, 2)):
            mono = "*".join(f"{n}^{rng.randint(0, 2)}" for n in names)
            extra.append(f"{rng.choice([-3, -2, -1, 1, 2, 3])}*{mono}")
        tail = (" + " + " + ".join(extra)) if extra else ""
        rels.append(f"{nm}^{a}{tail}")
    pres = _pres(p, names, rels)
    # keep only presentations that actually have a finite, nonzero fiber
    A = q_fiber(pres)
    if A is None or A.dim == 0:
        return _random_presentation(rng)
    return pres


def test_trace_and_jacobian_routes_agree_on_random_presentations():
    rng = random.Random(20260824)
    for _ in range(60):
        pres = _random_presentation(rng)
        rep = etale_check(pres)  # raises InternalInconsistencyError on mismatch
        A = q_fiber(pres)
        _gram, det = trace_form(A)
        assert (det != 0) == (omega_rank(pres, A) == 0)
        assert rep.reduced == (det != 0)


def test_univariate_gcd_criterion_agrees():
    rng = random.Random(7)
    for _ in range(30):
        coeffs = [rng.randint(-4, 4) for _ in range(rng.randint(1, 4))] + [1]
        f = Poly(1, {(i,): Fraction(c) for i, c in enumerate(coeffs) if c})
        pres = IntegerPolynomialPresentation(2, ("X",), (f,), 1)
        A = q_fiber(pres)
        if A is None or A.dim == 0:
            continue
        _g, det = trace_form(A)
        # Euclidean gcd(f, f') over Q
        def poly_gcd(u, v):
            u, v = list(u), list(v)
            while any(v):
                while v and v[-1] == 0:
                    v.pop()
                if not v:
                    break
                while len(u) >= len(v) and any(u):
                    while u and u[-1] == 0:
                        u.pop()
                    if len(u) < len(v):
                        break
                    c = Fraction(u[-1], v[-1])
                    for k in range(len(v)):
                        u[len(u) - len(v) + k] -= c * v[k]
                    u.pop()
                u, v = v, u
            while u and u[-1] == 0:
                u.pop()
            return u
        fc = [Fraction(c) for c in coeffs]
        fprime = [i * c for i, c in enumerate(fc)][1:]
        g = poly_gcd(fc, fprime)
        squarefree = len(g) == 1
        assert (det != 0) == squarefree, (coeffs, det, g)


def test_nilpotent_witness_verifies():
    A = q_fiber(_pres(2, ["X"], ["X^2"]))
    x, e = nilpotent_witness(A)
    assert not x.is_zero()
    power = x
    for _ in range(e - 1):
        power = A.normal_form(power * x)
    assert power.is_zero()


def test_etale_invariant_under_permutation():
    rels = ["X^2 - Y", "Y^2 - 1"]
    a = etale_check(_pres(2, ["X", "Y"], rels))
    b = etale_check(_pres(2, ["Y", "X"], ["Y^2 - X", "X^2 - 1"]))
    c = etale_check(_pres(2, ["X", "Y"], list(reversed(rels))))
    assert a.verdict == b.verdict == c.verdict
    assert a.dim == b.dim == c.dim


def test_quotient_monotonicity_on_pass_presentations():
    # adding a relation to a PASS presentation keeps PASS while the fiber is nonzero
    base = ["X^4 - 1"]
    for extra in ["X^2 - 1", "X - 1", "X^2 + 1"]:
        pres = _pres(2, ["X"], base + [extra])
        A = q_fiber(pres)
        if A is None or A.dim == 0:
            continue
        assert etale_check(pres).verdict == "PASS"


# -- presented homomorphisms -------------------------------------------------


def test_verify_presented_hom_vectors():
    src = _pres(3, ["X", "Y"], ["X^2 + Y^2"])
    tgt = _pres(3, ["T"], ["T^2 + 9"])
    T = parse_poly("T", ["T"])
    three = parse_poly("3", ["T"])
    assert verify_presented_hom(src, tgt, [T, three])
    assert verify_presented_hom(src, tgt, [parse_poly("2*T", ["T"]),
                                           parse_poly("6", ["T"])])
    assert not verify_presented_hom(src, tgt, [T, parse_poly("1", ["T"])])


def test_verify_presented_hom_rejects_unit_constant_terms():
    # constant term not divisible by p cannot define a local map
    src = _pres(2, ["X"], ["X^2"])
    tgt = _pres(2, ["T"], ["T^2"])
    assert not verify_presented_hom(src, tgt, [parse_poly("T + 1", ["T"])])


def test_verify_presented_hom_reports_p_denominators():
    # the reduced basis of 2T^2 - T over Q is T^2 - T/2, so reducing X^2 -> T^2
    # divides by p = 2
    src = _pres(2, ["X"], ["X^2"])
    tgt = _pres(2, ["T"], ["2*T^2 - T"])
    with pytest.raises(IntegralityObstruction):
        verify_presented_hom(src, tgt, [parse_poly("T", ["T"])])


def test_verify_presented_hom_lets_unrelated_errors_propagate(monkeypatch):
    import defring.presented as presented

    def broken_normal_form(*args, **kwargs):
        raise KeyError("not an integrality failure")

    monkeypatch.setattr(presented, "normal_form", broken_normal_form)
    with pytest.raises(KeyError):
        verify_presented_hom(_pres(2, ["X"], ["X^2"]), _pres(2, ["T"], ["T^2"]),
                             [parse_poly("T", ["T"])])


# -- W-membership ------------------------------------------------------------


def test_w_membership_three_verdicts():
    rep1 = w_membership_check(_pres(5, ["X"], ["X^2 - 5*X"]))
    assert rep1.verdict == "finitely generated with trivial p-torsion (precision-certified)"
    assert rep1.torsion_free_at_precision is True

    rep2 = w_membership_check(_pres(2, ["X"], ["X^2", "2*X"]))
    assert rep2.verdict == "has nontrivial p-torsion"

    rep3 = w_membership_check(_pres(2, ["X"], []))
    assert rep3.verdict == "not a finitely generated module"
    assert rep3.finite_dimensional is False


def test_w_membership_report_dict():
    d = w_membership_check(_pres(5, ["X"], ["X^2 - 5*X"])).as_dict()
    assert d["precision"] == 4
    assert "finite_dimensional" in d and "note" in d
