"""Exact multivariate polynomials over Q, monomial orders, and Gröbner bases.

Monomials are exponent tuples.  A polynomial is held over Z: integer
numerators over one canonical denominator (`Poly.den`, `Poly.nums`), and
every operation, division and S-polynomials included, works on that pair
and divides the content out once (`primitive`).  Only the constructor
`Poly(nvars, terms)` builds Fractions, from the rationals it is given; a
coefficient in lowest terms (for `render`, `max_coeff_bits` and the caps on
a division) costs one gcd with the denominator.  Division reduces by each
divisor's primitive integer multiple, so no step normalises a Fraction.
Division and Gröbner bases use one fixed order, degrevlex (`grevlex_key`).

Gröbner bases are computed by a signature-based loop (`buchberger`): the
generators are added one at a time, each polynomial carries a signature,
position over term, and J-pairs are reduced in increasing signature order
(Gao, Volny and Wang 2016; Eder and Faugère 2017).  A signature divisible
by the signature of a known syzygy is never reduced (the F5 criterion and
the syzygies found on the way), nor is any multiple but the rewriter's of
each signature, so for a homogeneous regular sequence no reduction gives
zero, and the caps bound every reduction that runs.  Reductions are regular: `normal_form`
takes the signatures and refuses a divisor whose shifted signature is not
smaller.  The basis is then minimalised and interreduced, and the reduced
monic basis of an ideal is unique, so the output is the canonical reduced
basis, whatever the loop that found it.  `grlex_key` remains for callers
that sort monomials themselves.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import comb, gcd, inf, lcm
from operator import add, le, neg, sub
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

Monomial = Tuple[int, ...]

# The largest degree a power of a polynomial with two or more terms may
# expand to in `parse_poly` (which also refuses such a power if it may have
# more terms than this plus one), and the largest rational fiber `q_fiber` lists
# (`presented.py`): the fiber's trace form costs about dim^3 operations, and
# `etale-check` of X^1000 - 2, the largest pure power admitted, answers in
# under a minute.
DEFAULT_DIMENSION_GUARD = 1000


class CoefficientSwellError(ArithmeticError):
    """Raised when rational coefficients exceed the configured bit-size cap."""


def grevlex_key(mono: Monomial):
    return (sum(mono), tuple(map(neg, reversed(mono))))


def grlex_key(mono: Monomial):
    return (sum(mono), mono)


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x + y for x, y in zip(a, b))


def mono_divides(a: Monomial, b: Monomial) -> bool:
    return all(x <= y for x, y in zip(a, b))


def mono_div(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x - y for x, y in zip(a, b))


def mono_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(max(x, y) for x, y in zip(a, b))


def mono_deg(a: Monomial) -> int:
    return sum(a)


def primitive(den: int, nums: Dict) -> Tuple[int, Dict]:
    """The fraction nums/den (den > 0) with the content gcd(den, *nums)
    divided out; the keys and their order are kept."""
    g = gcd(den, *nums.values())
    if g == 1:
        return den, nums
    return den // g, {k: x // g for k, x in nums.items()}


class Poly:
    """Polynomial over Q in a fixed number of variables, held over Z.

    `nums` maps monomials to nonzero integer numerators over the common
    denominator `den` > 0, with gcd(den, *nums) = 1: den is the lcm of the
    coefficients' denominators in lowest terms, and the pair is unique.
    Every operation builds its result through `from_z`, which divides the
    content out.  The pair is never mutated after construction, so the
    leading monomial and the divisor form that `normal_form` reduces by are
    computed once and cached.  A coefficient in lowest terms is
    nums[m]/den with their gcd divided out.
    """

    __slots__ = ("nvars", "den", "nums", "_divisor", "_lm")

    def __init__(self, nvars: int, terms: Optional[Dict[Monomial, object]] = None):
        """The polynomial with the given coefficients, anything `Fraction` accepts."""
        coeffs = [(m, Fraction(c)) for m, c in terms.items()] if terms else []
        # over the lcm of the denominators in lowest terms no content is left
        self.den = lcm(*(c.denominator for _, c in coeffs))
        self.nums = {m: c.numerator * (self.den // c.denominator) for m, c in coeffs if c}
        self.nvars = nvars
        self._divisor = self._lm = None

    @classmethod
    def from_z(cls, nvars: int, den: int, nums: Dict[Monomial, int]) -> "Poly":
        """The polynomial nums/den (den > 0, no numerator zero), with the
        content divided out; nums is adopted, not copied."""
        out = cls.__new__(cls)
        out.nvars = nvars
        out.den, out.nums = primitive(den, nums)
        out._divisor = out._lm = None
        return out

    def _divisor_form(self) -> Tuple[Monomial, int, List[Tuple[Monomial, int]], tuple]:
        """(lm, L, tail, ()): the primitive integer multiple of self, as
        L*lm - sum(c*m for m, c in tail) with L > 0, which `normal_form`
        divides by, and () as the bound of a divisor that may reduce any
        term (see `normal_form`)."""
        if self._divisor is None:
            lm = self.leading_monomial()
            nums = self.nums
            g = gcd(*nums.values())
            if nums[lm] < 0:
                g = -g
            self._divisor = (lm, nums[lm] // g,
                             [(m, -c // g) for m, c in nums.items() if m != lm], ())
        return self._divisor

    @classmethod
    def zero(cls, nvars: int) -> "Poly":
        return cls(nvars)

    @classmethod
    def constant(cls, nvars: int, c: int) -> "Poly":
        return cls.from_z(nvars, 1, {(0,) * nvars: c} if c else {})

    @classmethod
    def variable(cls, nvars: int, i: int) -> "Poly":
        return cls.from_z(nvars, 1, {tuple(1 if j == i else 0 for j in range(nvars)): 1})

    @classmethod
    def from_monomial(cls, nvars: int, mono: Monomial, c=1) -> "Poly":
        return cls(nvars, {mono: c})

    def is_zero(self) -> bool:
        return not self.nums

    def degree(self) -> int:
        return max((mono_deg(m) for m in self.nums), default=-1)

    def __add__(self, other: "Poly") -> "Poly":
        den = lcm(self.den, other.den)
        a, b = den // self.den, den // other.den
        out = {m: c * a for m, c in self.nums.items()}
        for m, c in other.nums.items():
            s = out.get(m, 0) + c * b
            if s:
                out[m] = s
            else:
                del out[m]
        return Poly.from_z(self.nvars, den, out)

    def __neg__(self) -> "Poly":
        return Poly.from_z(self.nvars, self.den, {m: -c for m, c in self.nums.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        out: Dict[Monomial, int] = {}
        for m1, c1 in self.nums.items():
            for m2, c2 in other.nums.items():
                m = mono_mul(m1, m2)
                s = out.get(m, 0) + c1 * c2
                if s:
                    out[m] = s
                else:
                    del out[m]
        return Poly.from_z(self.nvars, self.den * other.den, out)

    def __pow__(self, e: int) -> "Poly":
        out = Poly.from_z(self.nvars, 1, {(0,) * self.nvars: 1})
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.den == other.den and self.nums == other.nums

    def __hash__(self):
        return hash((self.den, frozenset(self.nums.items())))

    def leading_monomial(self) -> Monomial:
        if self._lm is None:
            self._lm = max(self.nums, key=grevlex_key)
        return self._lm

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        lm = self.leading_monomial()
        lc = self.nums[lm]
        nums = self.nums if lc > 0 else {m: -c for m, c in self.nums.items()}
        out = Poly.from_z(self.nvars, abs(lc), nums)
        out._lm = lm
        return out

    def derivative(self, i: int) -> "Poly":
        # m -> m / X_i is one-to-one, so no two terms land on one monomial
        return Poly.from_z(self.nvars, self.den,
                           {m[:i] + (m[i] - 1,) + m[i + 1:]: c * m[i]
                            for m, c in self.nums.items() if m[i]})

    def substitute(self, images: Sequence["Poly"]) -> "Poly":
        """Evaluate at images[i] for variable i (images share a common nvars)."""
        nv = images[0].nvars if images else self.nvars
        out = Poly.zero(nv)
        for m, c in self.nums.items():
            term = Poly.from_z(nv, 1, {(0,) * nv: c})
            for i, e in enumerate(m):
                if e:
                    term = term * (images[i] ** e)
            out = out + term
        return Poly.from_z(nv, out.den * self.den, out.nums)

    def max_coeff_bits(self) -> int:
        """The largest bit length of a numerator or denominator in lowest terms."""
        den, bits = self.den, 0
        for c in self.nums.values():
            g = gcd(c, den)
            bits = max(bits, (c // g).bit_length(), (den // g).bit_length())
        return bits

    def render(self, names: Sequence[str]) -> str:
        """The terms descending in degrevlex, coefficients in lowest terms."""
        if self.is_zero():
            return "0"
        den = self.den
        parts = []
        for m, c in sorted(self.nums.items(), key=lambda t: grevlex_key(t[0]), reverse=True):
            factors = []
            for i, e in enumerate(m):
                if e == 1:
                    factors.append(names[i])
                elif e > 1:
                    factors.append(f"{names[i]}^{e}")
            mono = "*".join(factors)
            g = gcd(c, den)
            num, d = abs(c) // g, den // g
            coeff = str(num) if d == 1 else f"{num}/{d}"
            if not mono:
                body = coeff
            elif num == d == 1:
                body = mono
            else:
                body = f"{coeff}*{mono}"
            parts.append(("- " if c < 0 else "+ ") + body)
        s = " ".join(parts)
        return s[2:] if s.startswith("+ ") else ("-" + s[2:])

    def __repr__(self):
        names = [f"X{i + 1}" for i in range(self.nvars)]
        return f"Poly({self.render(names)})"


# -- polynomial parsing ------------------------------------------------------


class PolyParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at column {pos + 1})")
        self.pos = pos


def parse_poly(text: str, names: Sequence[str]) -> Poly:
    """Parse an integer-coefficient polynomial expression in the given variables.

    Supports + - * ^ and parentheses; juxtaposition means multiplication
    (``5X^2 Y`` == ``5*X^2*Y``).  A power of a base with two or more terms
    is refused before it is expanded when its degree would exceed
    DEFAULT_DIMENSION_GUARD, or when it may have more than
    DEFAULT_DIMENSION_GUARD + 1 terms: the e-th power of s terms in v
    variables of degree d has at most min(C(e+s-1, s-1), C(e*d+v, v))
    terms, the monomials of degree e in the s terms and those of degree at
    most e*d in the v variables, so (X + 1)^1000 passes and
    (X + Y + Z)^80 does not.  A power of one term stays one term at any
    degree.
    """
    nvars = len(names)
    index = {n: i for i, n in enumerate(names)}
    tokens: List[Tuple[str, object, int]] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(("int", int(text[i:j]), i))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            name = text[i:j]
            if name not in index:
                raise PolyParseError(f"unknown variable '{name}'", i)
            tokens.append(("var", index[name], i))
            i = j
        elif ch in "+-*^()":
            tokens.append((ch, ch, i))
            i += 1
        else:
            raise PolyParseError(f"unexpected character '{ch}'", i)
    pos = 0

    def peek():
        return tokens[pos][0] if pos < len(tokens) else None

    def expr() -> Poly:
        nonlocal pos
        neg = False
        if peek() in ("+", "-"):
            neg = tokens[pos][0] == "-"
            pos += 1
        out = term()
        if neg:
            out = -out
        while peek() in ("+", "-"):
            op = tokens[pos][0]
            pos += 1
            t = term()
            out = out - t if op == "-" else out + t
        return out

    def term() -> Poly:
        nonlocal pos
        out = factor()
        while True:
            nxt = peek()
            if nxt == "*":
                pos += 1
                out = out * factor()
            elif nxt in ("int", "var", "("):
                out = out * factor()
            else:
                return out

    def factor() -> Poly:
        nonlocal pos
        if peek() == "-":
            pos += 1
            return -factor()
        base = atom()
        if peek() == "^":
            pos += 1
            if peek() != "int":
                raise PolyParseError("exponent must be a nonnegative integer",
                                     tokens[pos][2] if pos < len(tokens) else len(text))
            e, at = tokens[pos][1:]
            pos += 1
            s = len(base.nums)
            if s > 1:
                d = base.degree()
                if e * d > DEFAULT_DIMENSION_GUARD:
                    raise PolyParseError(
                        f"a power of degree {e * d}, more than "
                        f"{DEFAULT_DIMENSION_GUARD}, is outside the supported desk scale", at)
                v = sum(any(m[i] for m in base.nums) for i in range(nvars))
                terms = min(comb(e + s - 1, s - 1), comb(e * d + v, v))
                if terms > DEFAULT_DIMENSION_GUARD + 1:
                    raise PolyParseError(
                        f"a power of up to {terms} terms, more than "
                        f"{DEFAULT_DIMENSION_GUARD + 1}, is outside the supported desk scale", at)
            return base ** e
        return base

    def atom() -> Poly:
        nonlocal pos
        if pos >= len(tokens):
            raise PolyParseError("unexpected end of expression", len(text))
        kind, val, at = tokens[pos]
        if kind == "int":
            pos += 1
            return Poly.constant(nvars, val)
        if kind == "var":
            pos += 1
            return Poly.variable(nvars, val)
        if kind == "(":
            pos += 1
            out = expr()
            if peek() != ")":
                raise PolyParseError("missing closing parenthesis", at)
            pos += 1
            return out
        raise PolyParseError(f"unexpected token '{val}'", at)

    out = expr()
    if pos < len(tokens):
        raise PolyParseError(f"trailing input '{tokens[pos][1]}'", tokens[pos][2])
    return out


# -- division and Buchberger -------------------------------------------------


def normal_form(f: Poly, basis: Sequence[Poly],
                deny_denominator_prime: Optional[int] = None,
                bit_cap: Optional[int] = None,
                signature: Optional[Tuple[Monomial, Sequence[Optional[Monomial]]]] = None
                ) -> Poly:
    """Full multivariate division remainder of f by basis (every term reduced).

    Each step takes the degrevlex-leading term of what is left and either
    cancels it with the first admissible basis element whose leading
    monomial divides it, or moves it to the remainder.  What is left is one
    dict of integer numerators over a common denominator D, shared with the
    remainder, and its monomials sit on a heap keyed (-degree, reversed
    monomial, monomial), so the heap minimum is the degrevlex maximum; an
    entry whose monomial has since cancelled or been reduced is stale and
    skipped.  A step by the divisor L*lm - tail (its primitive integer form)
    that pops the numerator a first scales what is left, the remainder and D
    by L/gcd(a, L) if L does not divide a, and then adds (a/L) * tail:
    integer multiply-adds only.  The remainder's numerators over D go to
    `Poly.from_z`, which divides the content out.

    Without `signature` every divisor is admissible.  With `signature` =
    (t, sigs), sigs parallel to basis, the division is the regular
    s-reduction of `buchberger`'s signature loop: f has the signature t of
    the current generator, and basis[i] has a lower generator index when
    sigs[i] is None (always admissible) or the signature sigs[i] of the
    current one.  Then basis[i] may reduce the term m only if its shifted
    signature sigs[i]*m/lm_i is smaller than t, i.e. m < t*lm_i/sigs[i] in
    degrevlex, which extends to exponent vectors over Z as a group order.
    Each divisor carries that bound as a heap key, () when unrestricted, and
    the one admissibility test is that the popped heap entry exceeds it.

    The caps are defined on coefficients in lowest terms.  They are checked on
    every coefficient of f and then, after each step, on the coefficients that
    step created or changed, by the same `_check_step` call: every other
    coefficient left was checked when it was made, and a scaling changes no
    coefficient in lowest terms, so a capped input fails at the same step
    with the same error as a check of everything left.
    Each step tracks the largest bit length among the numerators it changed,
    and `_check_step` runs only when that or D's bit length exceeds the bit
    cap, or when the denied prime divides D: that is the sufficient test
    (`_fits`) `_check_step` opens with, so a coefficient that cannot cross a
    cap costs no call.  `_check_step` reduces to lowest terms only when the
    test still fails after the content is divided out.
    """
    if signature is None:
        divisors = [g._divisor_form() for g in basis if g.nums]
    else:
        t, sigs = signature
        divisors = []
        for g, s in zip(basis, sigs):
            if g.nums:
                lm, lead, tail, bound = g._divisor_form()
                if s is not None:
                    b = tuple([x + y - z for x, y, z in zip(t, lm, s)])
                    bound = (-sum(b), b[::-1], b)
                divisors.append((lm, lead, tail, bound))
    prime = deny_denominator_prime
    cap = inf if bit_cap is None else bit_cap
    checked = prime is not None or bit_cap is not None
    den = f.den
    work = dict(f.nums)
    remainder: Dict[Monomial, int] = {}
    if checked:
        den = _check_step(work, remainder, den, list(work), prime, bit_cap)
    heap = [(-sum(m), m[::-1], m) for m in work]
    heapify(heap)
    while heap:
        entry = heappop(heap)
        m = entry[2]
        a = work.pop(m, None)
        if a is None:
            continue
        for lm, lead, tail, bound in divisors:
            if all(map(le, lm, m)) and entry > bound:
                break
        else:
            remainder[m] = a
            continue
        if a % lead:
            s = lead // gcd(a, lead)
            a *= s
            den *= s
            for k in work:
                work[k] *= s
            for k in remainder:
                remainder[k] *= s
        q = a // lead
        shift = tuple(map(sub, m, lm))
        changed = []
        bits = 0
        for tm, tc in tail:
            nm = tuple(map(add, tm, shift))
            old = work.get(nm)
            if old is None:
                new = q * tc
                heappush(heap, (-sum(nm), nm[::-1], nm))
            else:
                new = old + q * tc
                if not new:
                    del work[nm]
                    continue
            work[nm] = new
            changed.append(nm)
            b = new.bit_length()
            if b > bits:
                bits = b
        if checked and (bits > cap or den.bit_length() > cap
                        or prime and den % prime == 0):
            den = _check_step(work, remainder, den, changed, prime, bit_cap)
    out = Poly.from_z(f.nvars, den, remainder)
    if remainder:  # its terms were moved there in descending order
        out._lm = next(iter(remainder))
    return out


def _fits(den: int, nums: Iterable[int], deny_denominator_prime: Optional[int],
          bit_cap: Optional[int]) -> bool:
    """A sufficient test that the coefficients nums/den pass both caps in
    lowest terms: reducing a fraction only divides its numerator and
    denominator."""
    if deny_denominator_prime is not None and den % deny_denominator_prime == 0:
        return False
    return bit_cap is None or (den.bit_length() <= bit_cap
                               and all(c.bit_length() <= bit_cap for c in nums))


def _check_step(work: Dict[Monomial, int], remainder: Dict[Monomial, int], den: int,
                changed: List[Monomial], deny_denominator_prime: Optional[int],
                bit_cap: Optional[int]) -> int:
    """Check the caps on the changed coefficients work[m]/den; return the
    denominator to go on with.

    When the sufficient test fails, the content (the gcd of den and every
    numerator of work and remainder) is divided out and the test is run
    again; when it still fails, the changed coefficients are checked in
    lowest terms, one gcd with den each.
    """
    if _fits(den, (work[m] for m in changed), deny_denominator_prime, bit_cap):
        return den
    content = gcd(den, *work.values(), *remainder.values())
    if content > 1:
        den //= content
        for k in work:
            work[k] //= content
        for k in remainder:
            remainder[k] //= content
        if _fits(den, (work[m] for m in changed), deny_denominator_prime, bit_cap):
            return den
    coeffs = []
    for m in changed:
        g = gcd(work[m], den)
        coeffs.append((work[m] // g, den // g))
    if deny_denominator_prime is not None:
        if any(d % deny_denominator_prime == 0 for _, d in coeffs):
            raise IntegralityError(
                f"denominator divisible by p={deny_denominator_prime} "
                "in an intermediate normal form")
    if bit_cap is not None:
        if any(n.bit_length() > bit_cap or d.bit_length() > bit_cap for n, d in coeffs):
            raise CoefficientSwellError(
                f"coefficient exceeds {bit_cap}-bit cap during reduction")
    return den


class IntegralityError(ArithmeticError):
    """p-integrality of a symbolic computation could not be certified."""


def s_polynomial(f: Poly, g: Poly) -> Poly:
    """x^a*f/lc(f) - x^b*g/lc(g), where x^a*lm(f) = x^b*lm(g) = lcm(lm(f), lm(g)).

    With the divisor forms k*f = L_f*lm_f - T_f and k'*g = L_g*lm_g - T_g the
    leading terms cancel and S = (L_f*x^b*T_g - L_g*x^a*T_f) / (L_f*L_g), so
    the numerators are summed over Z, over L_f*L_g, and `Poly.from_z`
    divides the content out.  The terms are in the order the difference of
    the two shifted polynomials gives.
    """
    lmf, lf, tf, _ = f._divisor_form()
    lmg, lg, tg, _ = g._divisor_form()
    l = mono_lcm(lmf, lmg)
    a, b = mono_div(l, lmf), mono_div(l, lmg)
    nums: Dict[Monomial, int] = {tuple(map(add, m, a)): -lg * c for m, c in tf}
    for m, c in tg:
        m = tuple(map(add, m, b))
        s = nums.get(m, 0) + lf * c
        if s:
            nums[m] = s
        else:
            del nums[m]
    return Poly.from_z(f.nvars, lf * lg, nums)


def buchberger(gens: Iterable[Poly], bit_cap: int = 4096) -> List[Poly]:
    """Reduced Gröbner basis, monic, sorted by leading monomial (ascending).

    A signature-based loop: the RB algorithm of Eder and Faugère ("A survey
    on signature-based algorithms for computing Gröbner bases", 2017) with
    the J-pairs of Gao, Volny and Wang ("A new framework for computing
    Gröbner bases", 2016).  The monic generators, sorted by leading
    monomial, are added one at a time.  While f_k is added, every element
    has a signature: those found for f_1..f_{k-1} have a lower generator
    index, which is smaller than any signature t*e_k of the current one
    (position over term), and an element found now has the monomial t.
    f_k itself, reduced by the earlier elements, has the signature 1.
    A J-pair of two elements has the larger of their shifted signatures
    (lcm/lm)*sig; J-pairs are taken in increasing degrevlex order of their
    signature t, and each t once.  Three criteria decide what runs:
    - a syzygy criterion: t is skipped when the signature of a known
      syzygy divides it, that is a leading monomial of an earlier element
      g (the F5 criterion: g*f_k - f_k*g, with the second g written in
      f_1..f_{k-1}, is a syzygy of signature lm(g)*e_k) or a signature of
      the current generator that reduced to zero;
    - a rewrite criterion: of the elements whose signature s divides t, the
      one whose multiple (t/s)*e has the least leading monomial (the latest
      added on a tie) is the rewriter, and only its multiple is reduced,
      as `s_polynomial` of the pair when the rewriter is the pair's member
      with the larger shifted signature, and as the multiple itself
      otherwise;
    - regular s-reduction: `normal_form` with `signature` reduces only by
      elements of a lower index or with a smaller shifted signature, and a
      result that is singular top-reducible (an element of the current
      index whose leading monomial divides its own, at exactly the
      signature t) is dropped.
    A signature that survives the criteria and reduces to zero is recorded
    as a syzygy; a nonzero result joins the basis with the signature t.
    When no J-pair is left, the elements form a Gröbner basis of the
    ideal of f_1..f_k (the signature Gröbner basis theorem of both papers),
    and for a homogeneous regular sequence no signature reduces to zero
    (nor does one on katsura-3 and katsura-4, whose top-degree forms are a
    regular sequence).  The elements are then minimalised and interreduced,
    and the reduced monic basis of an ideal is unique, so the result is the
    one any other Buchberger algorithm gives, term for term.  `bit_cap`
    bounds every reduction that runs.  Reductions look up the module-level
    `s_polynomial` and `normal_form` at call time, so a wrapper installed
    on either name sees every call.
    """
    gens = sorted((g.monic() for g in gens if not g.is_zero()),
                  key=lambda g: grevlex_key(g.leading_monomial()))
    basis: List[Poly] = []
    lms: List[Monomial] = []

    def append(g: Poly, sig: Monomial) -> None:
        """Append g with the signature sig of the current generator and
        queue its J-pairs, less those the F5 criterion drops; `sigs`,
        `earlier` and `pairs` are the ones the loop below binds for the
        current generator."""
        lm = g.leading_monomial()
        k = len(basis)
        for i, (lmi, si) in enumerate(zip(lms, sigs)):
            l = tuple(map(max, lmi, lm))
            t = tuple(map(add, sig, map(sub, l, lm)))
            a, b = k, i
            if si is not None:
                ti = tuple(map(add, si, map(sub, l, lmi)))
                if ti == t:
                    continue  # a singular pair
                if grevlex_key(ti) > grevlex_key(t):
                    t, a, b = ti, i, k
            if not any(all(map(le, e, t)) for e in earlier):
                heappush(pairs, (grevlex_key(t), t, a, b))
        basis.append(g)
        lms.append(lm)
        sigs.append(sig)

    for f in gens:
        lower = len(basis)
        earlier = lms[:]
        sigs: List[Optional[Monomial]] = [None] * lower
        syzygies: List[Monomial] = []  # the signatures that reduced to zero
        pairs: List[Tuple[tuple, Monomial, int, int]] = []
        r = normal_form(f, basis, bit_cap=bit_cap)
        if r.is_zero():
            continue
        append(r.monic(), (0,) * f.nvars)
        while pairs:
            key, t, a, b = heappop(pairs)
            members = [(a, b)]
            while pairs and pairs[0][0] == key:
                members.append(heappop(pairs)[2:])
            if any(all(map(le, z, t)) for z in syzygies):
                continue
            # the rewriter: of the elements whose signature divides t, the
            # one whose multiple has the least leading monomial, the latest
            # one on a tie
            e, least = None, None
            for i in range(lower, len(basis)):
                s = sigs[i]
                if all(map(le, s, t)):
                    lead = grevlex_key(tuple(map(add, lms[i], map(sub, t, s))))
                    if least is None or lead <= least:
                        e, least = i, lead
            other = next((j for i, j in members if i == e), None)
            if other is not None:
                h = s_polynomial(basis[e], basis[other])
            else:
                g, u = basis[e], tuple(map(sub, t, sigs[e]))
                h = Poly.from_z(g.nvars, g.den, {tuple(map(add, m, u)): c
                                                 for m, c in g.nums.items()})
            r = normal_form(h, basis, bit_cap=bit_cap, signature=(t, sigs))
            if r.is_zero():
                syzygies.append(t)
                continue
            lm = r.leading_monomial()
            if not any(all(map(le, lms[i], lm))
                       and grevlex_key(tuple(map(add, sigs[i], map(sub, lm, lms[i])))) == key
                       for i in range(lower, len(basis))):  # singular top-reducible
                append(r.monic(), t)

    # minimalize: drop elements whose leading monomial is divisible by another's
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
    # interreduce tails
    reduced: List[Poly] = []
    for idx, g in enumerate(minimal):
        others = [h for jdx, h in enumerate(minimal) if jdx != idx]
        r = normal_form(g, others, bit_cap=bit_cap)
        if not r.is_zero():
            reduced.append(r.monic())
    reduced.sort(key=lambda g: grevlex_key(g.leading_monomial()))
    return reduced
