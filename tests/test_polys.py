from __future__ import annotations

import random
import sys
import time
from fractions import Fraction
from heapq import heappop, heappush
from math import gcd
from pathlib import Path

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import defring.polys as polys
from defring.polys import (CoefficientSwellError, IntegralityError, Poly,
                           PolyParseError, buchberger, grevlex_key, grlex_key,
                           mono_div, mono_divides, normal_form, parse_poly,
                           s_polynomial)
from defring.presentations import IntegerPolynomialPresentation, r_alpha_presentation
from defring.presented import etale_check
from oracles import (buchberger_gebauer_moeller, fraction_terms, max_coeff_bits_by_fractions,
                     mul_term, render_by_fractions, scale)


def _to_sympy(f: Poly, syms):
    expr = sympy.Integer(0)
    for mono, c in fraction_terms(f).items():
        term = sympy.Rational(c.numerator, c.denominator)
        for s, e in zip(syms, mono):
            term *= s ** e
        expr += term
    return expr


def test_parse_basic():
    f = parse_poly("X^2 + 3*X*Y - 7", ["X", "Y"])
    assert fraction_terms(f) == {(2, 0): Fraction(1), (1, 1): Fraction(3),
                       (0, 0): Fraction(-7)}


def test_parse_implicit_product_and_powers():
    f = parse_poly("(X + Y)^2 - X^2 - Y^2", ["X", "Y"])
    assert fraction_terms(f) == {(1, 1): Fraction(2)}


def test_parse_errors_report_position():
    with pytest.raises(PolyParseError) as e:
        parse_poly("X + ", ["X"])
    assert e.value.pos >= 3
    with pytest.raises(PolyParseError):
        parse_poly("X + Z", ["X", "Y"])
    with pytest.raises(PolyParseError):
        parse_poly("X^(2)", ["X"])  # exponent must be a literal integer


def test_parse_refuses_powers_above_the_dimension_guard():
    # a power of two or more terms is refused before it is expanded once its
    # degree exceeds the guard; a power of one term is never expanded term
    # by term, so it passes at any degree
    assert polys.DEFAULT_DIMENSION_GUARD == 1000
    assert parse_poly("(X^10 + 1)^100", ["X"]).degree() == 1000
    with pytest.raises(PolyParseError, match="a power of degree 1010, more than 1000"):
        parse_poly("(X^10 + 1)^101", ["X"])
    with pytest.raises(PolyParseError, match="a power of degree 1002"):
        parse_poly("(X*Y - 2)^501", ["X", "Y"])
    assert fraction_terms(parse_poly("(2*X^3)^5000", ["X"])) == {(15000,): Fraction(2) ** 5000}


def test_parse_refuses_powers_with_more_terms_than_the_dimension_guard():
    # the e-th power of s terms in v variables of degree d has at most
    # min(C(e+s-1, s-1), C(e*d+v, v)) terms; a power is refused before it is
    # expanded when that exceeds the guard plus one.  Expanding (X + Y + Z)^80,
    # 3321 terms, took about 7.7 s.
    names = ["X", "Y", "Z"]
    assert len(parse_poly("(X + 1)^1000", names).nums) == 1001
    assert len(parse_poly("(X*Y - 2)^500", names).nums) == 501
    assert len(parse_poly("(X^10 + 1)^100", names).nums) == 101
    assert len(parse_poly("(X + Y + Z)^43", names).nums) == 990
    start = time.perf_counter()
    with pytest.raises(PolyParseError, match=r"a power of up to 3321 terms, more than 1001, "
                                             r"is outside the supported desk scale \(at column 13\)"):
        parse_poly("(X + Y + Z)^80", names)
    with pytest.raises(PolyParseError, match="a power of up to 1035 terms"):
        parse_poly("(X + Y + Z)^44", names)
    # C(e*d+v, v) bounds a base of many terms in few variables: the 6 terms
    # of (X + Y + 1)^2 in its 2 variables
    with pytest.raises(PolyParseError, match="a power of up to 1326 terms"):
        parse_poly("((X + Y + 1)^2)^25", names)
    assert time.perf_counter() - start < 1.0
    # the degree guard still speaks first
    with pytest.raises(PolyParseError, match="a power of degree 1600"):
        parse_poly("(X + Y + Z)^1600", names)


def test_arithmetic_and_derivative():
    X = Poly.variable(2, 0)
    Y = Poly.variable(2, 1)
    f = (X + Y) ** 3
    assert f.derivative(0) == (X + Y) ** 2 * Poly.constant(2, 3)
    assert f.substitute([Y, X]) == f  # symmetric


def test_leading_monomial_orders_differ():
    # X^2*Y vs X*Y^3: grlex picks by total degree first
    f = parse_poly("X^2*Y + X*Y^3", ["X", "Y"])
    assert max(f.nums, key=grlex_key) == (1, 3)
    assert f.leading_monomial() == (1, 3)
    g = parse_poly("X^3 + Y^2*X", ["X", "Y"])
    assert g.leading_monomial() == (3, 0)


def test_normal_form_divides_out():
    X = Poly.variable(1, 0)
    basis = [X ** 2 - Poly.constant(1, 1)]
    nf = normal_form(X ** 4, basis)
    assert nf == Poly.constant(1, 1)


KATSURA4 = ["A + 2*B + 2*C + 2*D + 2*E - 1",
            "A^2 - A + 2*B^2 + 2*C^2 + 2*D^2 + 2*E^2",
            "2*A*B + 2*B*C - B + 2*C*D + 2*D*E",
            "2*A*C + B^2 + 2*B*D + 2*C*E - C",
            "2*A*D + 2*B*C + 2*B*E - D"]


def _gb_against_sympy(relation_texts, names, bit_cap=4096):
    polys = [parse_poly(t, names) for t in relation_texts]
    gb = buchberger(polys, bit_cap=bit_cap)
    syms = sympy.symbols(names)  # a list in, a list of symbols out
    ref = sympy.groebner([_to_sympy(f, syms) for f in polys], *syms,
                         order="grevlex")
    def from_sympy(g):
        terms = {}
        for mono, c in sympy.Poly(g, *syms).as_dict().items():
            terms[tuple(int(e) for e in mono)] = Fraction(
                int(sympy.fraction(c)[0]), int(sympy.fraction(c)[1]))
        return Poly(len(names), terms)

    ours = {g.monic() for g in gb}
    theirs = {from_sympy(g).monic() for g in ref.exprs}
    assert ours == theirs, (ours, theirs)


@pytest.mark.parametrize("rels,names", [
    (["X^2 - Y", "Y^2 - X"], ["X", "Y"]),
    (["X^2 + Y^2 - 1", "X*Y - 1"], ["X", "Y"]),
    (["X^3 - 2*X + 1"], ["X"]),
    (["X*Y - Z", "Y*Z - X", "Z*X - Y"], ["X", "Y", "Z"]),
    (["X^2*Y - 1", "X*Y^2 - X"], ["X", "Y"]),
    (KATSURA4, list("ABCDE")),
    # a dense quadric system of the kind the benchmark seeds
    (["2*X^2 - 2*Y^2 + 2*X*Y - 3*X*Z - 3*Y*Z + 3*X + Y - 3*Z - 1",
      "-3*X^2 + 2*Y^2 - 2*Z^2 - 3*X*Y - 3*X*Z - 3*Y - 2*Z - 3",
      "-3*Y^2 + 2*Z^2 + X*Y - 3*X*Z - 2*Y*Z + 2*X + 2*Y + Z - 3"], ["X", "Y", "Z"]),
])
def test_buchberger_matches_sympy(rels, names):
    _gb_against_sympy(rels, names)


def test_groebner_membership_property():
    # f in the ideal iff its normal form vanishes; spot-check both directions
    names = ["X", "Y"]
    gens = [parse_poly("X^2 - Y", names), parse_poly("Y^2 - X", names)]
    gb = buchberger(gens)
    member = gens[0] * parse_poly("Y", names) + gens[1] * parse_poly("X^3 - 1", names)
    assert normal_form(member, gb).is_zero()
    assert not normal_form(parse_poly("X + 1", names), gb).is_zero()


def test_s_polynomial_reduces_in_gb():
    names = ["X", "Y"]
    gb = buchberger([parse_poly("X^2 - Y", names), parse_poly("Y^2 - X", names)])
    for i in range(len(gb)):
        for j in range(i + 1, len(gb)):
            assert normal_form(s_polynomial(gb[i], gb[j]), gb).is_zero()


def _s_polynomial_by_fractions(f, g):
    """The former `s_polynomial`: two shifted Fraction multiples, subtracted."""
    lmf, lmg = f.leading_monomial(), g.leading_monomial()
    l = polys.mono_lcm(lmf, lmg)
    return (mul_term(f, mono_div(l, lmf), Fraction(1) / fraction_terms(f)[lmf])
            - mul_term(g, mono_div(l, lmg), Fraction(1) / fraction_terms(g)[lmg]))


@st.composite
def _polynomial_pairs(draw):
    """Two nonzero polynomials in 1 to 3 variables, not monic and not
    primitive, sometimes sharing a leading monomial or equal."""
    nvars = draw(st.integers(1, 3))
    monos = st.tuples(*[st.integers(0, 3)] * nvars)
    coeffs = st.one_of(st.integers(-6, 6), st.builds(Fraction, st.integers(-2**40, 2**40),
                                                     st.integers(1, 2**30)))
    terms = st.dictionaries(monos, coeffs.filter(bool), min_size=1, max_size=6)
    f = Poly(nvars, draw(terms))
    g = f if draw(st.integers(0, 9)) == 0 else Poly(nvars, draw(terms))
    return f, g


@settings(max_examples=300, deadline=None)
@given(_polynomial_pairs())
def test_s_polynomial_matches_fraction_oracle(pair):
    # the canonical integer pair, which agrees with the oracle's coefficients
    # in the same term order
    f, g = pair
    s = s_polynomial(f, g)
    assert s.den > 0 and gcd(s.den, *s.nums.values()) == 1
    assert ([(m, Fraction(c, s.den)) for m, c in s.nums.items()]
            == list(fraction_terms(_s_polynomial_by_fractions(f, g)).items()))


# -- the integer representation against the former Fraction Poly ---------------


class FractionPoly:
    """The former `Poly`: Fraction coefficients in lowest terms, rebuilt by
    every operation."""

    def __init__(self, nvars, terms=None):
        self.nvars = nvars
        self.terms = {}
        for m, c in (terms or {}).items():
            c = Fraction(c)
            if c:
                self.terms[m] = c

    def __add__(self, other):
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m, Fraction(0)) + c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        return FractionPoly(self.nvars, out)

    def __neg__(self):
        return FractionPoly(self.nvars, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = polys.mono_mul(m1, m2)
                s = out.get(m, Fraction(0)) + c1 * c2
                if s:
                    out[m] = s
                else:
                    out.pop(m, None)
        return FractionPoly(self.nvars, out)

    def scale(self, c):
        c = Fraction(c)
        if not c:
            return FractionPoly(self.nvars)
        return FractionPoly(self.nvars, {m: c * v for m, v in self.terms.items()})

    def mul_term(self, mono, c):
        c = Fraction(c)
        return FractionPoly(self.nvars, {polys.mono_mul(m, mono): c * v
                                         for m, v in self.terms.items()})

    def __pow__(self, e):
        out = FractionPoly(self.nvars, {(0,) * self.nvars: 1})
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def __eq__(self, other):
        return isinstance(other, FractionPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def monic(self):
        if not self.terms:
            return self
        return self.scale(Fraction(1) / self.terms[max(self.terms, key=grevlex_key)])

    def derivative(self, i):
        out = {}
        for m, c in self.terms.items():
            if m[i]:
                m2 = tuple(e - 1 if j == i else e for j, e in enumerate(m))
                out[m2] = out.get(m2, Fraction(0)) + c * m[i]
        return FractionPoly(self.nvars, out)

    def substitute(self, images):
        nv = images[0].nvars if images else self.nvars
        out = FractionPoly(nv)
        for m, c in self.terms.items():
            term = FractionPoly(nv, {(0,) * nv: c})
            for i, e in enumerate(m):
                if e:
                    term = term * (images[i] ** e)
            out = out + term
        return out


_rationals = st.one_of(st.integers(-6, 6),
                       st.builds(Fraction, st.integers(-2 ** 20, 2 ** 20), st.integers(1, 2 ** 12)))


@st.composite
def _representation_cases(draw):
    """Coefficient dicts (zeros included) in 1 to 3 variables: f, g (sometimes
    f again), substitution images in 1 to 3 variables, and the arguments of
    the other operations."""
    nvars = draw(st.integers(1, 3))
    monos = st.tuples(*[st.integers(0, 3)] * nvars)
    terms = st.dictionaries(monos, _rationals, max_size=5)
    f = draw(terms)
    g = f if draw(st.integers(0, 4)) == 0 else draw(terms)
    nv = draw(st.integers(1, 3))
    images = [draw(st.dictionaries(st.tuples(*[st.integers(0, 2)] * nv), _rationals,
                                   max_size=3)) for _ in range(nvars)]
    return (nvars, f, g, nv, images, draw(_rationals), draw(monos), draw(st.integers(0, 3)),
            draw(st.integers(0, nvars - 1)))


def _same(p, oracle):
    # the same coefficients in the same order, and the canonical pair
    assert list(fraction_terms(p).items()) == list(oracle.terms.items())
    assert p.den > 0 and gcd(p.den, *p.nums.values()) == 1 and all(p.nums.values())


@settings(max_examples=300, deadline=None)
@given(_representation_cases())
def test_poly_matches_fraction_oracle(case):
    nvars, ft, gt, nv, images, c, mono, e, i = case
    f, g = Poly(nvars, ft), Poly(nvars, gt)
    of, og = FractionPoly(nvars, ft), FractionPoly(nvars, gt)
    _same(f, of)
    _same(f + g, of + og)
    _same(f - g, of - og)
    _same(f * g, of * og)
    _same(f ** e, of ** e)
    _same(scale(f, c), of.scale(c))
    _same(mul_term(f, mono, c), of.mul_term(mono, c))
    _same(f.monic(), of.monic())
    _same(f.derivative(i), of.derivative(i))
    _same(f.substitute([Poly(nv, t) for t in images]),
          of.substitute([FractionPoly(nv, t) for t in images]))
    assert (f == g) == (of == og)
    if f == g:
        assert hash(f) == hash(g)
    # the same polynomial built with its terms in the reverse order
    rev = Poly(nvars, dict(reversed(list(fraction_terms(f).items()))))
    assert rev == f and hash(rev) == hash(f)


_view_coeffs = st.one_of(st.sampled_from([1, -1, Fraction(1, 2), Fraction(-1, 3)]),
                        st.integers(-50, 50),
                        st.builds(Fraction, st.integers(-2 ** 40, 2 ** 40),
                                  st.integers(1, 2 ** 20)))


@st.composite
def _view_cases(draw):
    """Polynomials in 1 to 3 variables with coefficients +-1, integers and
    non-integers, constant terms (the zero monomial) in about half of them,
    and sometimes zero."""
    nvars = draw(st.integers(1, 3))
    monos = st.tuples(*[st.integers(0, 3)] * nvars)
    terms = draw(st.dictionaries(monos, _view_coeffs, max_size=5))
    if draw(st.booleans()):
        terms[(0,) * nvars] = draw(_view_coeffs)
    return Poly(nvars, terms)


@settings(max_examples=400, deadline=None)
@given(_view_cases())
def test_render_and_max_coeff_bits_match_fraction_oracle(f):
    # the integer views read nums/den with one gcd per coefficient; the
    # oracles read every coefficient as a Fraction in lowest terms
    names = ["X", "Y", "Z"][:f.nvars]
    assert f.render(names) == render_by_fractions(f, names)
    assert f.max_coeff_bits() == max_coeff_bits_by_fractions(f)


def test_render_pins():
    names = ["X", "Y"]
    f = Poly(2, {(2, 0): Fraction(1, 2), (1, 1): -1, (0, 1): Fraction(-4, 6), (0, 0): 3})
    assert f.den == 6 and f.nums[(2, 0)] == 3
    assert f.render(names) == "1/2*X^2 - X*Y - 2/3*Y + 3"
    assert Poly(2, {(0, 0): Fraction(-2, 4)}).render(names) == "-1/2"
    assert Poly(2, {(1, 0): -1, (0, 0): -1}).render(names) == "-X - 1"
    assert Poly(2).render(names) == "0"
    assert Poly(2, {(1, 0): Fraction(2 ** 40, 3)}).max_coeff_bits() == 41


def test_buchberger_builds_no_fraction_on_katsura4(monkeypatch):
    # no arithmetic builds a Fraction, so the Groebner basis is computed
    # without one; calls are counted by replacing the module attribute, as
    # the tracer counts calls
    calls = []
    original = polys.Fraction

    def counting(*args):
        calls.append(1)
        return original(*args)

    gens = [parse_poly(t, list("ABCDE")) for t in KATSURA4]
    monkeypatch.setattr(polys, "Fraction", counting)
    assert len(buchberger(gens)) == 13
    assert len(calls) == 0


def test_normal_form_denominator_guard():
    names = ["X"]
    basis = [parse_poly("2*X - 1", names)]
    with pytest.raises(IntegralityError):
        normal_form(parse_poly("X", names), basis, deny_denominator_prime=2)


# (f, divisors, caps, remainder in lowest terms or the error type): each
# division's common denominator fails the sufficient test, and the caps are
# decided in lowest terms, after the content is divided out or by the
# fallback that checks the changed coefficients themselves
CAP_BOUNDARY = {
    # D = 6 exceeds 2 bits, content 1, but Y/3 and 1/2 fit
    "bits-in-lowest-terms": (
        lambda: parse_poly("X", ["X", "Y"]), ["6*X - 2*Y - 3"], {"bit_cap": 2},
        {(0, 1): Fraction(1, 3), (0, 0): Fraction(1, 2)}),
    # the first divisor leaves (3 + 9Y - 3Y^2) / 3: D = 3 and the numerator
    # 9 exceed 3 bits until the content 3 is divided out
    "bits-after-content": (
        lambda: parse_poly("-X^2*Y^2 + 3*X", ["X", "Y"]),
        ["-3*X*Y^2 - 2*X*Y + 3", "2*X - 3*Y"], {"bit_cap": 3},
        {(0, 2): Fraction(-1), (0, 1): Fraction(3), (0, 0): Fraction(1)}),
    # the division by 2*Z - 1 leaves 1/2: D = 2, content 1
    "prime-in-lowest-terms": (
        lambda: parse_poly("Z", ["X", "Y", "Z"]), ["2*Z - 1"],
        {"deny_denominator_prime": 2}, IntegralityError),
}


@pytest.mark.parametrize("name", CAP_BOUNDARY)
def test_normal_form_caps_at_the_common_denominator(name):
    make_f, divisors, caps, expected = CAP_BOUNDARY[name]
    f = make_f()
    names = ["X", "Y", "Z"][:f.nvars]
    basis = [parse_poly(d, names) for d in divisors]
    outcome = _outcome(normal_form, f, basis, **caps)
    assert outcome == _outcome(_normal_form_by_rebuilding, f, basis, **caps)
    if isinstance(expected, dict):
        assert outcome == list(expected.items())
    else:
        assert outcome[0] is expected


def test_check_step_prime_after_content():
    # 2/6: D = 6 is even, but 1/3 has no 2 in its denominator once the
    # content is out.  No division of a canonical polynomial reaches this
    # state, so the step check is called on it directly.
    assert polys._check_step({(0, 0, 0): 2}, {}, 6, [(0, 0, 0)], 2, None) == 3


# -- in-place division against the former Poly-rebuilding division ------------


def _normal_form_by_rebuilding(f, basis, deny_denominator_prime=None, bit_cap=None):
    """The former `normal_form`: rescans for the leading term and rebuilds the
    whole remaining polynomial at every step, checking every coefficient."""
    lms = [(g.leading_monomial(), Fraction(g.nums[g.leading_monomial()], g.den), g)
           for g in basis if not g.is_zero()]
    remainder = {}
    work = Poly(f.nvars, fraction_terms(f))

    def check(poly):
        if deny_denominator_prime is not None:
            for c in fraction_terms(poly).values():
                if c.denominator % deny_denominator_prime == 0:
                    raise IntegralityError(
                        f"denominator divisible by p={deny_denominator_prime} "
                        "in an intermediate normal form")
        if bit_cap is not None and max_coeff_bits_by_fractions(poly) > bit_cap:
            raise CoefficientSwellError(
                f"coefficient exceeds {bit_cap}-bit cap during reduction")

    check(work)
    while not work.is_zero():
        lt_m = work.leading_monomial()
        lt_c = fraction_terms(work)[lt_m]
        for lm, lc, g in lms:
            if mono_divides(lm, lt_m):
                work = work - mul_term(g, mono_div(lt_m, lm), lt_c / lc)
                check(work)
                break
        else:
            remainder[lt_m] = lt_c
            work = work - Poly.from_monomial(f.nvars, lt_m, lt_c)
    return Poly(f.nvars, remainder)


_coeffs = st.one_of(st.integers(-4, 4).map(Fraction),
                    st.builds(Fraction, st.integers(-40, 40), st.integers(1, 12)))
# divisor coefficients with larger denominators, so that the common
# denominator of a division outgrows the small caps
_divisor_coeffs = st.one_of(_coeffs, st.builds(Fraction, st.integers(-40, 40),
                                               st.integers(1, 2 ** 12)))


@st.composite
def _division_problems(draw):
    """A polynomial and a list of divisors in 1 to 3 variables: usually not a
    Groebner basis, so which divisor reduces a term changes the remainder;
    sometimes with a zero divisor or a repeated leading monomial."""
    nvars = draw(st.integers(1, 3))
    monos = st.tuples(*[st.integers(0, 3)] * nvars)

    def poly(max_terms, coeffs):
        return Poly(nvars, draw(st.dictionaries(monos, coeffs, max_size=max_terms)))

    f = poly(8, _coeffs)
    basis = [poly(4, _divisor_coeffs) for _ in range(draw(st.integers(0, 4)))]
    return f, basis


def _outcome(nf, f, basis, **caps):
    try:
        return list(fraction_terms(nf(f, basis, **caps)).items())
    except (IntegralityError, CoefficientSwellError) as exc:
        return type(exc), str(exc)


@settings(max_examples=400, deadline=None)
@given(_division_problems(), st.one_of(st.none(), st.sampled_from([2, 3, 5])),
       st.one_of(st.none(), st.integers(1, 10)))
def test_normal_form_matches_rebuilding_division(problem, prime, cap):
    # the same remainder with its terms in the same (descending) order, or
    # the same error
    f, basis = problem
    caps = {"deny_denominator_prime": prime, "bit_cap": cap}
    outcome = _outcome(normal_form, f, basis, **caps)
    assert outcome == _outcome(_normal_form_by_rebuilding, f, basis, **caps)
    if isinstance(outcome, list):
        # the remainder is held as its canonical integer pair
        r = normal_form(f, basis, **caps)
        assert r.den > 0 and gcd(r.den, *r.nums.values()) == 1
        assert [(m, Fraction(c, r.den)) for m, c in r.nums.items()] == outcome


def _counting_s_pairs(monkeypatch, loop, relations):
    """The basis `loop` returns, and how many S-polynomials it built."""
    calls = []
    original = polys.s_polynomial

    def counting(f, g):
        calls.append(1)
        return original(f, g)

    monkeypatch.setattr(polys, "s_polynomial", counting)
    return loop(relations), len(calls)


def test_buchberger_s_pair_count_on_katsura4(monkeypatch):
    # the Gebauer-Moeller loop, now the oracle: its S-pair selection order
    # and criteria fix how many pairs are reduced (49 with every pair
    # queued); the signature loop builds 11 S-polynomials
    pres = IntegerPolynomialPresentation.parse(2, list("ABCDE"), KATSURA4)
    gb, spolys = _counting_s_pairs(monkeypatch, buchberger_gebauer_moeller, pres.relations)
    assert spolys == 28
    assert len(gb) == 13
    assert _counting_s_pairs(monkeypatch, buchberger, pres.relations)[1] == 11


def test_buchberger_s_pair_count_on_r_alpha1(monkeypatch):
    # the oracle's chain criterion drops two pairs here (9 reduced without
    # it), and none on katsura-4, so this pin is the one that observes it
    relations = r_alpha_presentation(1, 2).relations
    assert _counting_s_pairs(monkeypatch, buchberger_gebauer_moeller, relations)[1] == 7
    assert _counting_s_pairs(monkeypatch, buchberger, relations)[1] == 7


def test_normal_form_count_on_katsura4(monkeypatch):
    # the integer division must not change how many reductions run; calls
    # are counted as the tracer counts them, by replacing every defring
    # module attribute bound to normal_form
    calls = []
    original = polys.normal_form

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("defring") and getattr(module, "normal_form", None) is original:
            monkeypatch.setattr(module, "normal_form", counting)
    pres = IntegerPolynomialPresentation.parse(2, list("ABCDE"), KATSURA4)
    assert etale_check(pres).verdict == "PASS"
    # the signature loop's 29 and the one of det J: the multiplication table
    # is read off the reduced basis, where it normal-formed its 28 border
    # monomials before (58); 70 with the Gebauer-Moeller loop, whose 41
    # normal forms the signature loop's 29 replace; 94 before the
    # determinant route, whose one normal form of det J replaces the 25 of
    # the Jacobian's partial derivatives; 115 with every pair queued
    assert len(calls) == 30


# -- the signature loop and the Gebauer-Moeller oracle against every pair ------


def _buchberger_all_pairs(gens, bit_cap=4096):
    """The former `buchberger`: every pair whose leading monomials are not
    coprime is queued and reduced."""
    basis = sorted((g.monic() for g in gens if not g.is_zero()),
                   key=lambda g: grevlex_key(g.leading_monomial()))
    lms = [g.leading_monomial() for g in basis]
    pairs = []

    def queue_pairs(k):
        for i in range(k):
            l = polys.mono_lcm(lms[i], lms[k])
            if l != polys.mono_mul(lms[i], lms[k]):
                heappush(pairs, (sum(l), grevlex_key(l), i, k))

    for k in range(len(basis)):
        queue_pairs(k)
    while pairs:
        _, _, i, j = heappop(pairs)
        r = normal_form(s_polynomial(basis[i], basis[j]), basis, bit_cap=bit_cap)
        if not r.is_zero():
            r = r.monic()
            basis.append(r)
            lms.append(r.leading_monomial())
            queue_pairs(len(basis) - 1)
    minimal = []
    seen_lms = set()
    for i, g in enumerate(basis):
        if lms[i] in seen_lms:
            continue
        if any(j != i and lms[j] != lms[i] and mono_divides(lms[j], lms[i])
               for j in range(len(basis))):
            continue
        seen_lms.add(lms[i])
        minimal.append(g)
    reduced = []
    for idx, g in enumerate(minimal):
        others = [h for jdx, h in enumerate(minimal) if jdx != idx]
        r = normal_form(g, others, bit_cap=bit_cap)
        if not r.is_zero():
            reduced.append(r.monic())
    reduced.sort(key=lambda g: grevlex_key(g.leading_monomial()))
    return reduced


@st.composite
def _generator_systems(draw):
    """One to three polynomials in 1 to 3 variables, of degree at most 3 with
    small integer coefficients, sometimes with one of them repeated or
    scaled."""
    nvars = draw(st.integers(1, 3))
    monos = st.tuples(*[st.integers(0, 3)] * nvars).filter(lambda m: sum(m) <= 3)
    terms = st.dictionaries(monos, st.integers(-3, 3).filter(bool), min_size=1, max_size=5)
    gens = [Poly(nvars, t) for t in draw(st.lists(terms, min_size=1, max_size=3))]
    if draw(st.booleans()):
        g = draw(st.sampled_from(gens))
        gens.append(g * Poly.constant(nvars, draw(st.sampled_from([1, -2, 3]))))
    return gens


def _terms_in_order(basis):
    return [list(fraction_terms(g).items()) for g in basis]


@settings(max_examples=150, deadline=None)
@given(_generator_systems())
def test_buchberger_matches_all_pairs_queue(gens):
    # the same reduced basis, term for term and in the same order, from the
    # signature loop, the queue of every pair and the Gebauer-Moeller loop
    ours = _terms_in_order(buchberger(gens))
    assert ours == _terms_in_order(_buchberger_all_pairs(gens))
    assert ours == _terms_in_order(buchberger_gebauer_moeller(gens))


def test_buchberger_bit_cap_still_raises():
    # the criteria skip only signatures that need no reduction; the
    # reductions that run are still capped
    gens = [parse_poly(t, list("ABCDE")) for t in KATSURA4]
    with pytest.raises(CoefficientSwellError):
        buchberger(gens, bit_cap=8)
    with pytest.raises(CoefficientSwellError):
        _buchberger_all_pairs(gens, bit_cap=8)
    assert len(buchberger(gens, bit_cap=64)) == 13


def test_bit_cap_boundary_on_katsura4_matches_the_oracle():
    # both loops swell on katsura-4 up to a 60-bit cap and answer from 61
    gens = [parse_poly(t, list("ABCDE")) for t in KATSURA4]

    def outcome(loop, cap):
        try:
            return _terms_in_order(loop(gens, bit_cap=cap))
        except CoefficientSwellError:
            return None

    for cap in (8, 16, 32, 48, 56, 60, 61, 64):
        ours = outcome(buchberger, cap)
        assert ours == outcome(buchberger_gebauer_moeller, cap)
        assert (ours is None) == (cap <= 60)


# -- the signature loop against the Gebauer-Moeller oracle ----------------------


def _quadric_relations():
    """`perfbench/corpus.quadric_relations`, the seeded fiber systems."""
    perfbench = str(Path(__file__).resolve().parent.parent / "perfbench")
    sys.path.insert(0, perfbench)
    try:
        import corpus
    finally:
        sys.path.remove(perfbench)
    return corpus.quadric_relations


@pytest.mark.parametrize("seed", [2, 5, 37, 97, 131, 301])
def test_buchberger_matches_oracle_on_seeded_quadrics(seed):
    quadric_relations = _quadric_relations()
    rng = random.Random(seed)
    for _ in range(8):
        gens = [parse_poly(t, list("XYZ")) for t in quadric_relations(rng)]
        assert (_terms_in_order(buchberger(gens))
                == _terms_in_order(buchberger_gebauer_moeller(gens)))


KATSURA3 = ["A + 2*B + 2*C + 2*D - 1",
            "A^2 - A + 2*B^2 + 2*C^2 + 2*D^2",
            "2*A*B + 2*B*C - B + 2*C*D",
            "2*A*C + B^2 + 2*B*D - C"]


def _counting_reductions(monkeypatch, relations):
    """The basis `buchberger` returns, and its normal forms as (signed, zero)
    pairs: whether the call was a regular s-reduction of the signature loop,
    and whether it gave zero."""
    calls = []
    original = polys.normal_form

    def counting(*args, **kwargs):
        r = original(*args, **kwargs)
        calls.append(("signature" in kwargs, r.is_zero()))
        return r

    monkeypatch.setattr(polys, "normal_form", counting)
    return buchberger(relations), calls


@pytest.mark.parametrize("name,relations,zeros", [
    # 18, 5 and 7 with the Gebauer-Moeller loop
    ("katsura-4", [parse_poly(t, list("ABCDE")) for t in KATSURA4], 0),
    ("katsura-3", [parse_poly(t, list("ABCD")) for t in KATSURA3], 0),
    # the top-degree forms of r_alpha(1)'s relations are not a regular
    # sequence, so the F5 criterion misses syzygies: 4 of its eight
    # generators reduce to zero on entry, and 4 signatures after (one of
    # them the S-polynomial of two monomials, already zero)
    ("r_alpha(1)", list(r_alpha_presentation(1, 2).relations), 8),
])
def test_reductions_to_zero(monkeypatch, name, relations, zeros):
    gb, calls = _counting_reductions(monkeypatch, relations)
    assert sum(zero for _, zero in calls) == zeros
    assert _terms_in_order(gb) == _terms_in_order(buchberger_gebauer_moeller(relations))


def test_a_rewriter_outside_its_pairs_is_reduced(monkeypatch):
    # one signature here has as its rewriter an element that is the larger
    # member of none of the J-pairs of that signature: the rewriter's own
    # multiple is reduced, the one normal form of the loop that no
    # S-polynomial feeds, and the basis is the oracle's and sympy's
    names = ["X", "Y"]
    relations = ["X^3 - X", "X^2*Y - 2*X - 1"]
    gens = [parse_poly(t, names) for t in relations]
    gb, spolys = _counting_s_pairs(monkeypatch, buchberger, gens)
    monkeypatch.undo()
    _, calls = _counting_reductions(monkeypatch, gens)
    assert (sum(signed for signed, _ in calls), spolys) == (6, 5)
    monkeypatch.undo()
    assert _terms_in_order(gb) == _terms_in_order(buchberger_gebauer_moeller(gens))
    _gb_against_sympy(relations, names)


# larger than `_generator_systems` draws: the Gebauer-Moeller loop swells
# past 512 bits on it (its basis needs 1024), the signature loop needs 192
SWELLING_SYSTEM = ["-3*X*Z^3 + 2*Y^2*Z - X*Y - Z^2 - 1",
                   "-X*Y^2*Z - X^2*Z^2 + 3*X*Z^3 + 3*X^2*Z + 3*X*Y*Z + Y*Z^2 + 3*Y^2",
                   "-X^4 - 2*X^2"]


def test_signature_loop_answers_where_the_oracle_swells():
    gens = [parse_poly(t, list("XYZ")) for t in SWELLING_SYSTEM]
    with pytest.raises(CoefficientSwellError):
        buchberger_gebauer_moeller(gens, bit_cap=512)
    assert len(buchberger(gens, bit_cap=512)) == 14
    _gb_against_sympy(SWELLING_SYSTEM, list("XYZ"), bit_cap=512)
