"""Galois rings GR(p^m, r) = (Z/p^m)[Y]/(h), the coefficient rings of everything else.

GR(p^m, r) is the length-m truncation of the unramified degree-r extension of
the p-adic integers; for m = 1 it is the field F_{p^r}.  Elements are tuples of
r integers in [0, p^m), the coefficients of 1, Y, ..., Y^{r-1}.

GR(p^m, r) is a chain ring: every element factors as p^v * unit, and the
p-valuation of a coefficient tuple is the minimum valuation of its entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Iterator, Optional, Sequence, Tuple

from .errors import InternalInconsistencyError

GRElt = Tuple[int, ...]


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def _poly_mod(num: Sequence[int], den: Sequence[int], p: int) -> list[int]:
    """Remainder of num by monic den over F_p.  Coefficient lists, low degree first."""
    num = [c % p for c in num]
    d = len(den) - 1
    while len(num) > d:
        lead = num[-1]
        if lead:
            off = len(num) - 1 - d
            for i in range(d + 1):
                num[off + i] = (num[off + i] - lead * den[i]) % p
        num.pop()
    while num and num[-1] == 0:
        num.pop()
    return num


def _is_irreducible_mod_p(h: Sequence[int], p: int) -> bool:
    """Trial division by all monic polynomials of degree <= deg(h)/2 over F_p."""
    r = len(h) - 1
    if r < 1:
        return False
    hp = [c % p for c in h]
    if hp[-1] != 1:
        return False
    for d in range(1, r // 2 + 1):
        for lower in product(range(p), repeat=d):
            den = list(lower) + [1]
            if not _poly_mod(hp, den, p):
                return False
    # degree-1 factors are covered above except when r == 1
    return True


@lru_cache(maxsize=None)
def default_irreducible(p: int, r: int) -> Tuple[int, ...]:
    """Lexicographically first monic irreducible of degree r over F_p.

    Covers the built-in residue degrees r <= 4; larger degrees need a
    user-supplied polynomial.
    """
    if r == 1:
        return (0, 1)
    if r > 4:
        raise ValueError(f"no built-in irreducible polynomial for degree {r}; supply one")
    for lower in product(range(p), repeat=r):
        h = tuple(lower) + (1,)
        if _is_irreducible_mod_p(h, p):
            return h
    raise AssertionError("irreducible polynomial search failed")  # unreachable


@dataclass(frozen=True)
class GaloisRingSpec:
    """Parameters (p, m, r, h) of GR(p^m, r); h monic of degree r, irreducible mod p."""

    p: int
    m: int
    r: int
    h: Tuple[int, ...]

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"p = {self.p} is not prime")
        if self.m < 1 or self.r < 1:
            raise ValueError("precision m and residue degree r must be >= 1")
        if len(self.h) != self.r + 1 or self.h[-1] % (self.p ** self.m) != 1:
            raise ValueError("h must be monic of degree r")
        if not _is_irreducible_mod_p(self.h, self.p):
            raise ValueError("h is reducible mod p")


class GaloisRing:
    """Arithmetic in GR(p^m, r).  Elements are coefficient tuples of length r."""

    def __init__(self, p: int, m: int, r: int, h: Optional[Sequence[int]] = None):
        if h is None:
            h = default_irreducible(p, r)
        q = p ** m
        h = tuple(c % q for c in h[:-1]) + (1,)
        self.spec = GaloisRingSpec(p, m, r, h)
        self.p = p
        self.m = m
        self.r = r
        self.q = q  # modulus p^m
        self.h = h
        self.size = q ** r
        self.zero: GRElt = (0,) * r
        self.one: GRElt = (1,) + (0,) * (r - 1)
        # Y, the residue generator; equals 0 when r == 1 (h = Y)
        self.gen: GRElt = ((0, 1) + (0,) * (r - 2)) if r >= 2 else (0,)
        # Y^0, ..., Y^{r-1}: the coordinates of an element
        self.monos = tuple(tuple(int(t == u) for t in range(r)) for u in range(r))
        self._residue: Optional[GaloisRing] = None

    # -- construction ------------------------------------------------------

    def from_int(self, c: int) -> GRElt:
        return (c % self.q,) + (0,) * (self.r - 1)

    def from_coeffs(self, coeffs: Sequence[int]) -> GRElt:
        if len(coeffs) > self.r:
            raise ValueError("too many coefficients")
        cs = [c % self.q for c in coeffs] + [0] * (self.r - len(coeffs))
        return tuple(cs)

    def elements(self) -> Iterator[GRElt]:
        return product(range(self.q), repeat=self.r)

    # -- ring operations ---------------------------------------------------

    def add(self, a: GRElt, b: GRElt) -> GRElt:
        q = self.q
        return tuple((x + y) % q for x, y in zip(a, b))

    def sub(self, a: GRElt, b: GRElt) -> GRElt:
        q = self.q
        return tuple((x - y) % q for x, y in zip(a, b))

    def mul(self, a: GRElt, b: GRElt) -> GRElt:
        r, q = self.r, self.q
        if r == 1:
            return ((a[0] * b[0]) % q,)
        prod = [0] * (2 * r - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    prod[i + j] += x * y
        # reduce by monic h
        h = self.h
        for i in range(2 * r - 2, r - 1, -1):
            c = prod[i] % q
            if c:
                off = i - r
                for j in range(r):
                    prod[off + j] -= c * h[j]
            prod[i] = 0
        return tuple(c % q for c in prod[:r])

    def scale(self, c: GRElt, vec: Sequence[int]) -> Tuple[int, ...]:
        """c times the vector over W with these flat coordinates, entry j at
        r*j ... r*j + r - 1 (the layout of `RingElement.flat` and of the
        Howell rows), canonical: c Y^u once for each u < r, then one integer
        multiply-add per nonzero coordinate of vec and coefficient of c Y^u."""
        r, q = self.r, self.q
        if r == 1:
            c0 = c[0]
            return tuple([c0 * x % q for x in vec])
        cy = [self.mul(c, y) for y in self.monos]
        out = [0] * len(vec)
        for I, x in enumerate(vec):
            if x:
                u = I % r
                for K, s in enumerate(cy[u], I - u):
                    out[K] += x * s
        return tuple([v % q for v in out])

    def pow(self, a: GRElt, e: int) -> GRElt:
        res = self.one
        base = a
        while e:
            if e & 1:
                res = self.mul(res, base)
            base = self.mul(base, base)
            e >>= 1
        return res

    # -- valuation / units -------------------------------------------------

    def val(self, a: GRElt) -> int:
        """p-adic valuation; m for the zero element."""
        p, m = self.p, self.m
        best = m
        for c in a:
            if c:
                v = 0
                while c % p == 0:
                    c //= p
                    v += 1
                if v < best:
                    best = v
                    if best == 0:
                        return 0
        return best

    def is_unit(self, a: GRElt) -> bool:
        return self.val(a) == 0

    @property
    def residue_field(self) -> GaloisRing:
        if self._residue is None:
            if self.m == 1:
                self._residue = self
            else:
                self._residue = GaloisRing(self.p, 1, self.r, self.h)
        return self._residue

    def reduce(self, a: GRElt) -> GRElt:
        """Reduction GR(p^m, r) -> F_{p^r}."""
        p = self.p
        return tuple(c % p for c in a)

    def lift(self, a: GRElt) -> GRElt:
        """The coefficient-wise section F_{p^r} -> GR(p^m, r)."""
        return tuple(a)

    def inv(self, a: GRElt) -> GRElt:
        if not self.is_unit(a):
            raise ZeroDivisionError(f"{a} is not a unit in GR({self.p}^{self.m}, {self.r})")
        k = self.residue_field
        abar = self.reduce(a)
        # inverse in F_{p^r} by the unit-group order, then Hensel lifting
        ibar = k.pow(abar, k.size - 2) if k.size > 2 else abar
        y = self.lift(ibar)
        two = self.from_int(2)
        for _ in range(max(1, self.m.bit_length())):
            y = self.mul(y, self.sub(two, self.mul(a, y)))
        if self.mul(a, y) != self.one:
            raise InternalInconsistencyError("Newton iteration did not reach the inverse")
        return y

    def __repr__(self):
        return f"GR({self.p}^{self.m}, {self.r})"
