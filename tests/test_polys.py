from __future__ import annotations

import sys
from fractions import Fraction
from heapq import heappop, heappush
from math import gcd

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


def _to_sympy(f: Poly, syms):
    expr = sympy.Integer(0)
    for mono, c in f.terms.items():
        term = sympy.Rational(c.numerator, c.denominator)
        for s, e in zip(syms, mono):
            term *= s ** e
        expr += term
    return expr


def test_parse_basic():
    f = parse_poly("X^2 + 3*X*Y - 7", ["X", "Y"])
    assert f.terms == {(2, 0): Fraction(1), (1, 1): Fraction(3),
                       (0, 0): Fraction(-7)}


def test_parse_implicit_product_and_powers():
    f = parse_poly("(X + Y)^2 - X^2 - Y^2", ["X", "Y"])
    assert f.terms == {(1, 1): Fraction(2)}


def test_parse_errors_report_position():
    with pytest.raises(PolyParseError) as e:
        parse_poly("X + ", ["X"])
    assert e.value.pos >= 3
    with pytest.raises(PolyParseError):
        parse_poly("X + Z", ["X", "Y"])
    with pytest.raises(PolyParseError):
        parse_poly("X^(2)", ["X"])  # exponent must be a literal integer


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


def _gb_against_sympy(relation_texts, names):
    polys = [parse_poly(t, names) for t in relation_texts]
    gb = buchberger(polys)
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
    return (f.mul_term(mono_div(l, lmf), Fraction(1) / f.terms[lmf])
            - g.mul_term(mono_div(l, lmg), Fraction(1) / g.terms[lmg]))


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
            == list(_s_polynomial_by_fractions(f, g).terms.items()))


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
    assert list(p.terms.items()) == list(oracle.terms.items())
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
    _same(f.scale(c), of.scale(c))
    _same(f.mul_term(mono, c), of.mul_term(mono, c))
    _same(f.monic(), of.monic())
    _same(f.derivative(i), of.derivative(i))
    _same(f.substitute([Poly(nv, t) for t in images]),
          of.substitute([FractionPoly(nv, t) for t in images]))
    assert (f == g) == (of == og)
    if f == g:
        assert hash(f) == hash(g)
    # the same polynomial built with its terms in the reverse order
    rev = Poly(nvars, dict(reversed(list(f.terms.items()))))
    assert rev == f and hash(rev) == hash(f)


def test_buchberger_builds_no_fraction_on_katsura4(monkeypatch):
    # no arithmetic reads the Fraction view, so the Groebner basis is
    # computed without building one Fraction; calls are counted by replacing
    # the module attribute, as the tracer counts calls
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
    work = Poly(f.nvars, dict(f.terms))

    def check(poly):
        if deny_denominator_prime is not None:
            for c in poly.terms.values():
                if c.denominator % deny_denominator_prime == 0:
                    raise IntegralityError(
                        f"denominator divisible by p={deny_denominator_prime} "
                        "in an intermediate normal form")
        if bit_cap is not None and poly.max_coeff_bits() > bit_cap:
            raise CoefficientSwellError(
                f"coefficient exceeds {bit_cap}-bit cap during reduction")

    check(work)
    while not work.is_zero():
        lt_m = work.leading_monomial()
        lt_c = work.terms[lt_m]
        for lm, lc, g in lms:
            if mono_divides(lm, lt_m):
                work = work - g.mul_term(mono_div(lt_m, lm), lt_c / lc)
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
        return list(nf(f, basis, **caps).terms.items())
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


def _buchberger_counting_s_pairs(monkeypatch, relations):
    """The basis `buchberger` returns, and how many S-polynomials it built."""
    calls = []
    original = polys.s_polynomial

    def counting(f, g):
        calls.append(1)
        return original(f, g)

    monkeypatch.setattr(polys, "s_polynomial", counting)
    return buchberger(relations), len(calls)


def test_buchberger_s_pair_count_on_katsura4(monkeypatch):
    # the S-pair selection order and the Gebauer-Moeller criteria fix how
    # many pairs are reduced (49 with every pair queued)
    pres = IntegerPolynomialPresentation.parse(2, list("ABCDE"), KATSURA4)
    gb, spolys = _buchberger_counting_s_pairs(monkeypatch, pres.relations)
    assert spolys == 28
    assert len(gb) == 13


def test_buchberger_s_pair_count_on_r_alpha1(monkeypatch):
    # the chain criterion drops two pairs here (9 reduced without it), and
    # none on katsura-4, so this pin is the one that observes it
    _, spolys = _buchberger_counting_s_pairs(monkeypatch, r_alpha_presentation(1, 2).relations)
    assert spolys == 7


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
    # 94 before the determinant route, whose one normal form of det J
    # replaces the 25 of the Jacobian's partial derivatives; 115 with every
    # pair queued
    assert len(calls) == 70


# -- the Gebauer-Moeller criteria against the queue of every pair ---------------


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
    return [list(g.terms.items()) for g in basis]


@settings(max_examples=150, deadline=None)
@given(_generator_systems())
def test_buchberger_matches_all_pairs_queue(gens):
    # the same reduced basis, term for term and in the same order
    assert (_terms_in_order(buchberger(gens))
            == _terms_in_order(_buchberger_all_pairs(gens)))


def test_buchberger_bit_cap_still_raises():
    # the criteria drop only redundant pairs; the reductions that run are
    # still capped
    gens = [parse_poly(t, list("ABCDE")) for t in KATSURA4]
    with pytest.raises(CoefficientSwellError):
        buchberger(gens, bit_cap=8)
    with pytest.raises(CoefficientSwellError):
        _buchberger_all_pairs(gens, bit_cap=8)
    assert len(buchberger(gens, bit_cap=64)) == 13
