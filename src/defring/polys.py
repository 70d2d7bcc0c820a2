"""Exact multivariate polynomials over Q, monomial orders, and Buchberger's algorithm.

Monomials are exponent tuples; polynomials map monomials to Fractions.
Gröbner bases are computed for the degrevlex order with the normal selection
strategy, fully interreduced and monic, so the output is the canonical reduced
basis of the ideal.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

Monomial = Tuple[int, ...]


class CoefficientSwellError(ArithmeticError):
    """Raised when rational coefficients exceed the configured bit-size cap."""


def grevlex_key(mono: Monomial):
    return (sum(mono), tuple(-e for e in reversed(mono)))


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


class Poly:
    """Polynomial in a fixed number of variables with Fraction coefficients."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Optional[Dict[Monomial, Fraction]] = None):
        self.nvars = nvars
        self.terms: Dict[Monomial, Fraction] = {}
        if terms:
            for m, c in terms.items():
                c = Fraction(c)
                if c:
                    self.terms[m] = c

    @classmethod
    def zero(cls, nvars: int) -> "Poly":
        return cls(nvars)

    @classmethod
    def constant(cls, nvars: int, c) -> "Poly":
        return cls(nvars, {(0,) * nvars: Fraction(c)})

    @classmethod
    def variable(cls, nvars: int, i: int) -> "Poly":
        mono = tuple(1 if j == i else 0 for j in range(nvars))
        return cls(nvars, {mono: Fraction(1)})

    @classmethod
    def from_monomial(cls, nvars: int, mono: Monomial, c=1) -> "Poly":
        return cls(nvars, {mono: Fraction(c)})

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        return max((mono_deg(m) for m in self.terms), default=-1)

    def __add__(self, other: "Poly") -> "Poly":
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m, Fraction(0)) + c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        return Poly(self.nvars, out)

    def __neg__(self) -> "Poly":
        return Poly(self.nvars, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        out: Dict[Monomial, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = mono_mul(m1, m2)
                s = out.get(m, Fraction(0)) + c1 * c2
                if s:
                    out[m] = s
                else:
                    out.pop(m, None)
        return Poly(self.nvars, out)

    def scale(self, c) -> "Poly":
        c = Fraction(c)
        if not c:
            return Poly(self.nvars)
        return Poly(self.nvars, {m: c * v for m, v in self.terms.items()})

    def mul_term(self, mono: Monomial, c) -> "Poly":
        c = Fraction(c)
        return Poly(self.nvars, {mono_mul(m, mono): c * v for m, v in self.terms.items()})

    def __pow__(self, e: int) -> "Poly":
        out = Poly.constant(self.nvars, 1)
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def leading_monomial(self, key: Callable = grevlex_key) -> Monomial:
        return max(self.terms, key=key)

    def leading_coeff(self, key: Callable = grevlex_key) -> Fraction:
        return self.terms[self.leading_monomial(key)]

    def monic(self, key: Callable = grevlex_key) -> "Poly":
        if self.is_zero():
            return self
        lc = self.leading_coeff(key)
        return self.scale(Fraction(1) / lc)

    def derivative(self, i: int) -> "Poly":
        out: Dict[Monomial, Fraction] = {}
        for m, c in self.terms.items():
            if m[i]:
                m2 = tuple(e - 1 if j == i else e for j, e in enumerate(m))
                out[m2] = out.get(m2, Fraction(0)) + c * m[i]
        return Poly(self.nvars, out)

    def substitute(self, images: Sequence["Poly"]) -> "Poly":
        """Evaluate at images[i] for variable i (images share a common nvars)."""
        nv = images[0].nvars if images else self.nvars
        out = Poly.zero(nv)
        for m, c in self.terms.items():
            term = Poly.constant(nv, c)
            for i, e in enumerate(m):
                if e:
                    term = term * (images[i] ** e)
            out = out + term
        return out

    def max_coeff_bits(self) -> int:
        bits = 0
        for c in self.terms.values():
            bits = max(bits, c.numerator.bit_length(), c.denominator.bit_length())
        return bits

    def sorted_terms(self, key: Callable = grevlex_key, reverse: bool = True):
        return sorted(self.terms.items(), key=lambda t: key(t[0]), reverse=reverse)

    def render(self, names: Sequence[str], key: Callable = grevlex_key) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for m, c in self.sorted_terms(key):
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


def normal_form(f: Poly, basis: Sequence[Poly], key: Callable = grevlex_key,
                deny_denominator_prime: Optional[int] = None,
                bit_cap: Optional[int] = None) -> Poly:
    """Full multivariate division remainder of f by basis (every term reduced)."""
    lms = [(g.leading_monomial(key), g.leading_coeff(key), g) for g in basis if not g.is_zero()]
    remainder: Dict[Monomial, Fraction] = {}
    work = Poly(f.nvars, dict(f.terms))

    def check(poly: Poly):
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
        lt_m = work.leading_monomial(key)
        lt_c = work.terms[lt_m]
        for lm, lc, g in lms:
            if mono_divides(lm, lt_m):
                work = work - g.mul_term(mono_div(lt_m, lm), lt_c / lc)
                check(work)
                break
        else:
            remainder[lt_m] = lt_c
            del work.terms[lt_m]
    return Poly(f.nvars, remainder)


class IntegralityError(ArithmeticError):
    """p-integrality of a symbolic computation could not be certified."""


def s_polynomial(f: Poly, g: Poly, key: Callable = grevlex_key) -> Poly:
    lmf, lmg = f.leading_monomial(key), g.leading_monomial(key)
    l = mono_lcm(lmf, lmg)
    return (f.mul_term(mono_div(l, lmf), Fraction(1) / f.leading_coeff(key))
            - g.mul_term(mono_div(l, lmg), Fraction(1) / g.leading_coeff(key)))


def buchberger(gens: Iterable[Poly], key: Callable = grevlex_key,
               bit_cap: int = 4096) -> List[Poly]:
    """Reduced Gröbner basis, monic, sorted by leading monomial (ascending)."""
    basis: List[Poly] = []
    for g in gens:
        if not g.is_zero():
            basis.append(g.monic(key))
    basis.sort(key=lambda g: key(g.leading_monomial(key)))
    pairs = [(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))]

    def pair_key(ij):
        i, j = ij
        l = mono_lcm(basis[i].leading_monomial(key), basis[j].leading_monomial(key))
        return (mono_deg(l), key(l), i, j)

    while pairs:
        pairs.sort(key=pair_key)
        i, j = pairs.pop(0)
        f, g = basis[i], basis[j]
        lmf, lmg = f.leading_monomial(key), g.leading_monomial(key)
        if mono_lcm(lmf, lmg) == mono_mul(lmf, lmg):
            continue  # coprime leading monomials reduce to zero
        r = normal_form(s_polynomial(f, g, key), basis, key, bit_cap=bit_cap)
        if not r.is_zero():
            r = r.monic(key)
            basis.append(r)
            k = len(basis) - 1
            pairs.extend((t, k) for t in range(k))

    # minimalize: drop elements whose leading monomial is divisible by another's
    lms = [g.leading_monomial(key) for g in basis]
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
        r = normal_form(g, others, key, bit_cap=bit_cap)
        if not r.is_zero():
            reduced.append(r.monic(key))
    reduced.sort(key=lambda g: key(g.leading_monomial(key)))
    return reduced
