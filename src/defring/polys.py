"""Exact multivariate polynomials over Q, monomial orders, and Buchberger's algorithm.

Monomials are exponent tuples.  A polynomial is held over Z: integer
numerators over one canonical denominator (`Poly.den`, `Poly.nums`), and
every operation, division and S-polynomials included, works on that pair
and divides the content out once (`primitive`).  Fractions are built only
where a reader asks for them (`Poly.terms`, `render`) or a cap must be
decided in lowest terms.  Division reduces by each divisor's primitive
integer multiple, so no step normalises a Fraction; the caps on a division
are still defined on the coefficients in lowest terms.  Division and Gröbner
bases use one fixed order, degrevlex (`grevlex_key`):
Gröbner bases are computed with the normal selection strategy, and the S-pairs
the Gebauer–Möller criteria prove redundant are dropped before they are
reduced, so the caps bound every reduction that runs.  The basis is fully
interreduced and monic, so the output is the canonical reduced basis of the
ideal.  `grlex_key` remains for callers that sort monomials themselves.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, inf, lcm
from operator import add, le, neg, sub
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

Monomial = Tuple[int, ...]


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
    divisor form that `normal_form` reduces by is computed once and cached.
    `terms` is a Fraction view for readers such as `render`; no arithmetic
    reads it.
    """

    __slots__ = ("nvars", "den", "nums", "_divisor")

    def __init__(self, nvars: int, terms: Optional[Dict[Monomial, object]] = None):
        """The polynomial with the given coefficients, anything `Fraction` accepts."""
        coeffs = [(m, Fraction(c)) for m, c in terms.items()] if terms else []
        # over the lcm of the denominators in lowest terms no content is left
        self.den = lcm(*(c.denominator for _, c in coeffs))
        self.nums = {m: c.numerator * (self.den // c.denominator) for m, c in coeffs if c}
        self.nvars = nvars
        self._divisor = None

    @classmethod
    def from_z(cls, nvars: int, den: int, nums: Dict[Monomial, int]) -> "Poly":
        """The polynomial nums/den (den > 0, no numerator zero), with the
        content divided out; nums is adopted, not copied."""
        out = cls.__new__(cls)
        out.nvars = nvars
        out.den, out.nums = primitive(den, nums)
        out._divisor = None
        return out

    @property
    def terms(self) -> Dict[Monomial, Fraction]:
        """The coefficients in lowest terms, in the order of `nums` (a new dict)."""
        return {m: Fraction(c, self.den) for m, c in self.nums.items()}

    def _divisor_form(self) -> Tuple[Monomial, int, List[Tuple[Monomial, int]]]:
        """(lm, L, tail): the primitive integer multiple of self, as
        L*lm - sum(c*m for m, c in tail) with L > 0, which `normal_form`
        divides by."""
        if self._divisor is None:
            lm = self.leading_monomial()
            nums = self.nums
            g = gcd(*nums.values())
            if nums[lm] < 0:
                g = -g
            self._divisor = (lm, nums[lm] // g,
                             [(m, -c // g) for m, c in nums.items() if m != lm])
        return self._divisor

    @classmethod
    def zero(cls, nvars: int) -> "Poly":
        return cls(nvars)

    @classmethod
    def constant(cls, nvars: int, c) -> "Poly":
        return cls(nvars, {(0,) * nvars: c})

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

    def scale(self, c) -> "Poly":
        return self.mul_term((0,) * self.nvars, c)

    def mul_term(self, mono: Monomial, c) -> "Poly":
        c = Fraction(c)
        if not c:
            return Poly(self.nvars)
        return Poly.from_z(self.nvars, self.den * c.denominator,
                           {mono_mul(m, mono): v * c.numerator for m, v in self.nums.items()})

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
        return max(self.nums, key=grevlex_key)

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        lc = self.nums[self.leading_monomial()]
        nums = self.nums if lc > 0 else {m: -c for m, c in self.nums.items()}
        return Poly.from_z(self.nvars, abs(lc), nums)

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
        bits = 0
        for c in self.terms.values():
            bits = max(bits, c.numerator.bit_length(), c.denominator.bit_length())
        return bits

    def sorted_terms(self):
        """The terms, descending in degrevlex."""
        return sorted(self.terms.items(), key=lambda t: grevlex_key(t[0]), reverse=True)

    def render(self, names: Sequence[str]) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for m, c in self.sorted_terms():
            factors = []
            for i, e in enumerate(m):
                if e == 1:
                    factors.append(names[i])
                elif e > 1:
                    factors.append(f"{names[i]}^{e}")
            mono = "*".join(factors)
            if not mono:
                body = str(abs(c))
            elif abs(c) == 1:
                body = mono
            else:
                body = f"{abs(c)}*{mono}"
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
    (``5X^2 Y`` == ``5*X^2*Y``).
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
            e = tokens[pos][1]
            pos += 1
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
                bit_cap: Optional[int] = None) -> Poly:
    """Full multivariate division remainder of f by basis (every term reduced).

    Each step takes the degrevlex-leading term of what is left and either
    cancels it with the first basis element whose leading monomial divides
    it, or moves it to the remainder.  What is left is one dict of integer
    numerators over a common denominator D, shared with the remainder, and
    its monomials sit on a heap keyed (-degree, reversed monomial), so the
    heap minimum is the degrevlex maximum; an entry whose monomial has since
    cancelled or been reduced is stale and skipped.  A step by the divisor
    L*lm - tail (its primitive integer form) that pops the numerator a first
    scales what is left, the remainder and D by L/gcd(a, L) if L does not
    divide a, and then adds (a/L) * tail: integer multiply-adds only.  The
    remainder's numerators over D go to `Poly.from_z`, which divides the
    content out.

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
    divisors = [g._divisor_form() for g in basis if g.nums]
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
        m = heappop(heap)[2]
        a = work.pop(m, None)
        if a is None:
            continue
        for lm, lead, tail in divisors:
            if all(map(le, lm, m)):
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
    return Poly.from_z(f.nvars, den, remainder)


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
    lowest terms.
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
    coeffs = [Fraction(work[m], den) for m in changed]
    if deny_denominator_prime is not None:
        for c in coeffs:
            if c.denominator % deny_denominator_prime == 0:
                raise IntegralityError(
                    f"denominator divisible by p={deny_denominator_prime} "
                    "in an intermediate normal form")
    if bit_cap is not None:
        for c in coeffs:
            if c.numerator.bit_length() > bit_cap or c.denominator.bit_length() > bit_cap:
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
    lmf, lf, tf = f._divisor_form()
    lmg, lg, tg = g._divisor_form()
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

    S-pairs are taken in the order of the key (deg lcm, grevlex_key(lcm), i, j)
    from a heap.  When an element h joins the basis, the pair set is updated
    by the Gebauer–Möller criteria (the UPDATE of Becker & Weispfenning,
    *Gröbner Bases*, §5.5):
    - a new pair (g, h) is dropped when the lcm of another new pair divides
      its lcm, keeping one pair of each lcm (M and F); then the pairs with
      coprime leading monomials are dropped (the product criterion), so a
      pair that shares its lcm with a coprime pair is dropped too;
    - a queued pair (i, j) is dropped when lm(h) divides its lcm l and both
      lcm(lm_i, lm_h) and lcm(lm_j, lm_h) differ from l (the chain criterion);
      it is skipped when it is popped;
    - an element whose leading monomial lm(h) divides forms no further pairs,
      but stays in the basis as a reducer.
    The syzygy of a dropped pair is a combination of the syzygies of pairs
    that are reduced or coprime, at most at its lcm, so by Buchberger's
    criterion the pair is provably redundant, and it is never reduced.  The
    reduced monic basis is unique, so the result is the one that reducing
    every pair gives.  `bit_cap` bounds every reduction that runs.
    Reductions look up the module-level `s_polynomial` and `normal_form` at
    call time, so a wrapper installed on either name sees every call.
    """
    basis = sorted((g.monic() for g in gens if not g.is_zero()),
                   key=lambda g: grevlex_key(g.leading_monomial()))
    lms = [g.leading_monomial() for g in basis]
    pairs: List[Tuple[int, tuple, int, int, Monomial]] = []
    live = set()  # the queued pairs (i, j) that no criterion has dropped
    formers: List[int] = []  # the elements that still form new pairs

    def update(k: int) -> None:
        h = lms[k]
        for _, _, i, j, l in pairs:  # the chain criterion
            if (all(map(le, h, l)) and mono_lcm(lms[i], h) != l
                    and mono_lcm(lms[j], h) != l):
                live.discard((i, j))
        new = [(mono_lcm(lms[i], h), i) for i in formers]
        kept = []  # M and F; a coprime pair is kept here so that it can drop others
        for n, (l, i) in enumerate(new):
            if (l == mono_mul(lms[i], h)
                    or not any(mono_divides(l2, l) for l2, _ in new[n + 1:])
                    and not any(mono_divides(l2, l) for l2, _ in kept)):
                kept.append((l, i))
        for l, i in kept:
            if l != mono_mul(lms[i], h):  # the product criterion
                heappush(pairs, (sum(l), grevlex_key(l), i, k, l))
                live.add((i, k))
        formers[:] = [i for i in formers if not mono_divides(h, lms[i])]
        formers.append(k)

    for k in range(len(basis)):
        update(k)
    while pairs:
        _, _, i, j, _ = heappop(pairs)
        if (i, j) not in live:
            continue
        r = normal_form(s_polynomial(basis[i], basis[j]), basis, bit_cap=bit_cap)
        if not r.is_zero():
            r = r.monic()
            basis.append(r)
            lms.append(r.leading_monomial())
            update(len(basis) - 1)

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
