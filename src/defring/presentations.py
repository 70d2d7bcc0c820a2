"""Finitely presented algebras: integer-coefficient polynomial presentations.

A presentation (p; X_1..X_t; f_1..f_s) describes the p-adically complete local
ring obtained from the polynomial quotient, either through its rational fiber
(module `presented`) or through a finite truncation at precision m (module
`local_ring`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

from .galois import is_prime
from .polys import Poly, grevlex_key, parse_poly


@dataclass(frozen=True)
class IntegerPolynomialPresentation:
    p: int
    names: Tuple[str, ...]
    relations: Tuple[Poly, ...]
    r: int = 1

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"p = {self.p} is not prime")
        if self.r < 1:
            raise ValueError("residue degree must be >= 1")
        t = len(self.names)
        rels = []
        for f in self.relations:
            if f.nvars != t:
                raise ValueError("relation variable count does not match presentation")
            if f.is_zero():
                raise ValueError("zero relation in presentation")
            if f.den != 1:
                raise ValueError("relations must have integer coefficients")
            rels.append(f)
        # canonical order: by leading monomial, then full term list
        rels.sort(key=lambda f: (grevlex_key(f.leading_monomial()),
                                 sorted(f.nums.items())))
        object.__setattr__(self, "relations", tuple(rels))

    @classmethod
    def parse(cls, p: int, names: Sequence[str], relation_texts: Sequence[str],
              r: int = 1) -> "IntegerPolynomialPresentation":
        rels = tuple(parse_poly(s, names) for s in relation_texts)
        return cls(p, tuple(names), rels, r)

    @property
    def nvars(self) -> int:
        return len(self.names)

    def relation_strings(self) -> Tuple[str, ...]:
        return tuple(f.render(self.names) for f in self.relations)

    def describe(self) -> str:
        vs = ", ".join(self.names) if self.names else "-"
        rs = "; ".join(self.relation_strings()) or "-"
        return f"p={self.p}, r={self.r}, vars=[{vs}], relations=[{rs}]"


def r_alpha_presentation(alpha: int, p: int, r: int = 1) -> IntegerPolynomialPresentation:
    """Two-variable family R_alpha: all degree-5 monomials plus X^4 and Y^4 - X^2Y^2 - alpha*X^3Y.

    Pairwise non-isomorphic for alpha != +-beta; every member has nilpotent
    rational fiber, so all of them fail the finite-etale necessary condition.
    """
    rels = []
    for i in range(6):
        rels.append(Poly.from_monomial(2, (5 - i, i)))
    rels.append(Poly.from_monomial(2, (4, 0)))
    rels.append(Poly(2, {(0, 4): 1, (2, 2): -1, (3, 1): -alpha}))
    return IntegerPolynomialPresentation(p, ("X", "Y"), tuple(rels), r)
