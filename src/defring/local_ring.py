"""Finite local rings with residue field F_{p^r}, as structure-constant tables.

A ring is a finite module over the Galois ring W = GR(p^m, r) with a designated
basis, per-basis additive orders p^{c_j}, an N x N table of basis products, a
reduction map onto the residue field, and designated algebra generators.  This
uniform shape makes ideals, quotients, enumeration and homomorphism search all
plain linear algebra over the chain ring W.

An element is one flat integer tuple (`RingElement.flat`, coordinate r*i + u on
Y^u e_i, reduced mod p^{c_i} by `FiniteLocalRing._canon`, the one
canonicalisation); its per-basis coefficients in W are a view for the
renderers and the Howell forms (`RingElement.coefficients`).

Two modes, fixed when a ring is built:
  * "finite": an honest finite ring; everything is exact.
  * "precision": the ring models a characteristic-zero local ring at working
    precision m.  Elements carry a known-precision exponent; division by p
    costs one level of precision.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import prod
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .errors import DefringError, InternalInconsistencyError
from .galois import GaloisRing, GRElt
from .linalg import HowellForm, LinearMapSolver
from .polys import Monomial, grlex_key, mono_mul
from .presentations import IntegerPolynomialPresentation

DEFAULT_ELEMENT_CAP = 10 ** 6
DEFAULT_MAP_CAP = 10 ** 7
DEFAULT_DEGREE_CAP = 16


class CapExceededError(DefringError, RuntimeError):
    """An enumeration would exceed its configured cap; caps are never silently sampled.

    `cap` names the limit ("cap_maps" or "cap_elements", after the CLI flag
    that sets it), `needed` is the exact size of the search and `limit` the
    cap's value.
    """

    def __init__(self, message: str, *, cap: str, needed: int, limit: int):
        super().__init__(message)
        self.cap = cap
        self.needed = needed
        self.limit = limit


class NotFiniteAtCapError(DefringError, RuntimeError):
    """The truncated presentation has no finite monomial basis within the degree cap."""


class NonUnitError(ArithmeticError):
    pass


class ZeroDivisorError(ArithmeticError):
    pass


class PrecisionExhaustedError(ArithmeticError):
    pass


class RingConstructionError(ValueError):
    pass


class RingElement:
    """Element of a FiniteLocalRing: a flat tuple of canonical integer
    coordinates and a precision.  `flat[r*i + u]` is the coordinate on Y^u e_i,
    reduced mod `ring._mods[r*i + u]` = p^{c_i} (the layout of `_table` and
    `Matrix.flat`); `coefficients()` is the per-basis view in W.
    """

    __slots__ = ("ring", "flat", "prec")

    def __init__(self, ring: "FiniteLocalRing", flat: Sequence[int],
                 prec: Optional[int] = None):
        self.ring = ring
        self.flat: Tuple[int, ...] = ring._canon(flat)
        self.prec = ring.base.m if prec is None else prec

    @classmethod
    def _canonical(cls, ring: "FiniteLocalRing", flat: Tuple[int, ...],
                   prec: int) -> "RingElement":
        """Wrap coordinates that are already canonical, skipping `_canon`."""
        x = cls.__new__(cls)
        x.ring = ring
        x.flat = flat
        x.prec = prec
        return x

    # Sums, differences and multiples reduce each coordinate once, mod p^{c_k}:
    # as p^{c_k} divides p^m, that is what reducing in W, then `_canon`, gives.

    def __add__(self, other: "RingElement") -> "RingElement":
        return RingElement._canonical(self.ring, tuple([
            (x + y) % md for x, y, md in zip(self.flat, other.flat, self.ring._mods)]),
            min(self.prec, other.prec))

    def __sub__(self, other: "RingElement") -> "RingElement":
        return RingElement._canonical(self.ring, tuple([
            (x - y) % md for x, y, md in zip(self.flat, other.flat, self.ring._mods)]),
            min(self.prec, other.prec))

    def __neg__(self) -> "RingElement":
        return self.scale_int(-1)

    def __mul__(self, other: "RingElement") -> "RingElement":
        ring = self.ring
        return RingElement._canonical(ring, ring._mul(self.flat, other.flat),
                                      min(self.prec, other.prec))

    def __pow__(self, e: int) -> "RingElement":
        """Square and multiply, with no product by the unity and no square
        beyond the top bit of e."""
        if not e:
            return self.ring.one
        out = None
        base = self
        while True:
            if e & 1:
                out = base if out is None else out * base
            e >>= 1
            if not e:
                return out
            base = base * base

    def scale_int(self, n: int) -> "RingElement":
        return RingElement._canonical(self.ring, tuple([
            (n * x) % md for x, md in zip(self.flat, self.ring._mods)]), self.prec)

    def __eq__(self, other) -> bool:
        return (isinstance(other, RingElement) and self.ring is other.ring
                and self.flat == other.flat)

    def __hash__(self):
        return hash(self.flat)

    def agrees_at(self, other: "RingElement", prec: int) -> bool:
        """Coordinate-wise congruence modulo p^prec."""
        pk = self.ring.base.p ** prec
        return all((x - y) % pk == 0 for x, y in zip(self.flat, other.flat))

    def is_zero(self) -> bool:
        return not any(self.flat)

    def is_unit(self) -> bool:
        return any(self.ring._residue(self.flat))

    def key(self) -> Tuple[int, ...]:
        """Deterministic flat integer key (coordinate-vector lexicographic order)."""
        return self.flat

    def coefficients(self) -> List[GRElt]:
        """The N per-basis coefficients, each an element of W, in a new list."""
        r, flat = self.ring.base.r, self.flat
        return [flat[u:u + r] for u in range(0, len(flat), r)]

    def __repr__(self):
        return f"<{self.ring.describe_element(self)}>"


class FiniteLocalRing:
    """Finite local ring (or precision-m model of a characteristic-zero local ring)."""

    def __init__(self, base: GaloisRing, orders: Sequence[int],
                 mul_table: Sequence[Sequence[Sequence[GRElt]]],
                 one_coeffs: Sequence[GRElt],
                 residue_coeffs: Sequence[GRElt],
                 generators: Sequence[Sequence[GRElt]],
                 basis_names: Sequence[str],
                 basis_monos: Optional[Sequence[Monomial]] = None,
                 mode: str = "finite",
                 validate: bool = True,
                 label: str = ""):
        self.base = base
        self.N = len(orders)
        self.orders = tuple(orders)
        self.mul_table = tuple(tuple(tuple(v) for v in row) for row in mul_table)
        self.basis_names = tuple(basis_names)
        self.basis_monos = tuple(basis_monos) if basis_monos is not None else None
        self.label = label or f"ring(N={self.N}, base={base!r})"
        self.size = prod((base.p ** c) ** base.r for c in self.orders)
        if mode not in ("finite", "precision"):
            raise ValueError(f"unknown mode {mode!r}")
        if mode == "precision" and any(c != base.m for c in self.orders):
            raise RingConstructionError(
                "precision model requires a torsion-free truncation "
                "(p-torsion detected in the basis)")
        self.mode = mode
        self._compile()
        self._set_residue(residue_coeffs)
        self.one = self.element(one_coeffs)
        self.zero = RingElement._canonical(self, (0,) * len(self._mods), base.m)
        self.generators: Tuple[RingElement, ...] = tuple(
            self.element(g) for g in generators)
        self._max_ideal: Optional[Ideal] = None
        self._layers: Optional[List[Layer]] = None
        self._residue_ring: Optional[FiniteLocalRing] = None
        if validate:
            self._validate()

    # -- canonicalization and arithmetic kernels ---------------------------

    def _canon(self, flat: Sequence[int]) -> Tuple[int, ...]:
        """Flat coordinates reduced modulo `_mods`: the canonical form of an element."""
        return tuple([x % md for x, md in zip(flat, self._mods)])

    def _compile(self) -> None:
        """Sparse structure constants over Z on the flat coordinates I = r*i + u
        (the module generator Y^u e_i): `_table[I][J]` lists the (K, s) with
        s != 0 and Y^u e_i * Y^v e_j = sum s * Y^w e_k, K = r*k + w.  A product
        is then integer multiply-adds, reduced once per output coordinate
        modulo `_mods[K]` = p^{c_k}; `_monos[u]` is Y^u in W."""
        W = self.base
        r = W.r
        monos = self._monos = [tuple(int(t == u) for t in range(r)) for u in range(r)]
        n = self.N * r
        table = [[[] for _ in range(n)] for _ in range(n)]
        for i, row in enumerate(self.mul_table):
            for j, vec in enumerate(row):
                for k, s in enumerate(vec):
                    if s == W.zero:
                        continue
                    for u in range(r):
                        for v in range(r):
                            t = W.mul(W.mul(monos[u], monos[v]), s)
                            table[r * i + u][r * j + v].extend(
                                (r * k + w, c) for w, c in enumerate(t) if c)
        self._table = tuple(tuple(tuple(e) for e in row) for row in table)
        self._mods = tuple(W.p ** c for c in self.orders for _ in range(r))
        self._pair_products: Optional[Tuple[Tuple[Tuple[int, ...], ...], ...]] = None
        self._matrix_tables: Dict[int, Tuple[tuple, Tuple[int, ...]]] = {}

    def _basis_products(self) -> Tuple[Tuple[Tuple[int, ...], ...], ...]:
        """e_i * e_j on the flat coordinates, canonical, for homomorphism
        checks and the table check; built on first use."""
        if self._pair_products is None:
            self._pair_products = tuple(
                tuple(self._times_basis(self._unit(i), j) for j in range(self.N))
                for i in range(self.N))
        return self._pair_products

    def _unit(self, j: int) -> Tuple[int, ...]:
        """e_j on the flat coordinates."""
        flat = [0] * len(self._mods)
        flat[self.base.r * j] = 1
        return tuple(flat)

    def _times_basis(self, x: Sequence[int], j: int) -> Tuple[int, ...]:
        """x * e_j, for x on the flat coordinates, canonical: one integer
        multiply-add per structure constant of column r*j met by a nonzero
        coordinate of x, and one reduction per output coordinate."""
        col = self.base.r * j
        acc = [0] * len(self._mods)
        for row, c in zip(self._table, x):
            if c:
                for K, s in row[col]:
                    acc[K] += c * s
        return tuple([v % md for v, md in zip(acc, self._mods)])

    def _mul(self, a: Sequence[int], b: Sequence[int]) -> Tuple[int, ...]:
        """The canonical flat coordinates of a * b, for a and b canonical:
        every x * y * s into one integer accumulator, reduced once per
        coordinate."""
        acc = [0] * len(self._mods)
        nzb = [(J, y) for J, y in enumerate(b) if y]
        for row, x in zip(self._table, a):
            if x:
                for J, y in nzb:
                    xy = x * y
                    for K, s in row[J]:
                        acc[K] += xy * s
        return tuple([v % md for v, md in zip(acc, self._mods)])

    def _matmul(self, n: int, a: Sequence[int], b: Sequence[int]) -> Tuple[int, ...]:
        """The canonical product of two n x n matrices, each the flat
        coordinates of its entries in row-major order: with w = len(`_mods`),
        left coordinate (i n + t) w + I meets the right coordinates
        (t n + j) w + J with `_table[I][J]` nonempty, adding into the outputs
        (i n + j) w + K, as compiled from `_table` once per n.  So a product is
        one integer multiply-add per structure constant of M_n(R) met by two
        nonzero coordinates, and one reduction per output coordinate."""
        compiled = self._matrix_tables.get(n)
        if compiled is None:
            table, w = self._table, len(self._mods)
            rows = tuple(tuple(((t * n + j) * w + J, tuple(((i * n + j) * w + K, s)
                                                           for K, s in table[I][J]))
                               for j in range(n) for J in range(w) if table[I][J])
                         for i in range(n) for t in range(n) for I in range(w))
            compiled = self._matrix_tables[n] = (rows, self._mods * (n * n))
        rows, mods = compiled
        acc = [0] * len(mods)
        for x, row in zip(a, rows):
            if x:
                for J, terms in row:
                    y = b[J]
                    if y:
                        xy = x * y
                        for K, s in terms:
                            acc[K] += xy * s
        return tuple([v % md for v, md in zip(acc, mods)])

    # -- element constructors ----------------------------------------------

    def element(self, coeffs: Sequence[GRElt], prec: Optional[int] = None) -> RingElement:
        """The element with these N per-basis coefficients in W."""
        return RingElement(self, [c for a in coeffs for c in a], prec)

    def from_base(self, c: GRElt, prec: Optional[int] = None) -> RingElement:
        W = self.base
        return self.element([W.mul(c, x) for x in self.one.coefficients()], prec)

    def from_int(self, n: int, prec: Optional[int] = None) -> RingElement:
        return self.from_base(self.base.from_int(n), prec)

    def basis_element(self, j: int) -> RingElement:
        return RingElement(self, self._unit(j))

    @property
    def basis(self) -> List[RingElement]:
        return [self.basis_element(j) for j in range(self.N)]

    # -- residue field -----------------------------------------------------

    @property
    def residue_field(self) -> GaloisRing:
        return self.base.residue_field

    @property
    def residue_ring(self) -> "FiniteLocalRing":
        """The residue field, packaged as a FiniteLocalRing (for representations over k)."""
        if self._residue_ring is None:
            if self.base.m == 1 and self.N == 1 and self.orders == (1,):
                self._residue_ring = self
            else:
                self._residue_ring = build_galois_ring(
                    self.base.p, 1, self.base.r, self.base.h)
        return self._residue_ring

    def _set_residue(self, residue_coeffs: Sequence[GRElt]) -> None:
        """The residue map e_j -> lambda_j, and `_functional`, its k-linear
        functional on the flat coordinates: Y^u e_j -> Y^u lambda_j."""
        k = self.residue_field
        self.residue_coeffs = tuple(residue_coeffs)
        self._functional = tuple(k.mul(mono, lam) for lam in self.residue_coeffs
                                 for mono in self._monos)

    def _residue(self, flat: Sequence[int]) -> GRElt:
        """The reduction to F_{p^r} of the element with these flat coordinates."""
        p, fs = self.base.p, self._functional
        return tuple([sum(c * f[t] for c, f in zip(flat, fs)) % p for t in range(self.base.r)])

    def reduce_element(self, x: RingElement) -> GRElt:
        """Reduction to the residue field F_{p^r}."""
        return self._residue(x.flat)

    def unity_lift(self, c: GRElt) -> RingElement:
        """Canonical section of the reduction: c times the unity."""
        return self.from_base(self.base.lift(c))

    # -- units --------------------------------------------------------------

    def invert(self, x: RingElement) -> RingElement:
        """The y with x*y = 1, solved from the multiplication-by-x map; it keeps
        x's precision."""
        if not x.is_unit():
            raise NonUnitError(f"{self.describe_element(x)} is not a unit")
        return self.element(_mult_map_solver(x).solve(self.one.coefficients()), x.prec)

    # -- enumeration ---------------------------------------------------------

    def enumerate_elements(self, cap: int = DEFAULT_ELEMENT_CAP) -> List[RingElement]:
        """All elements in coefficient-vector lexicographic order."""
        if self.size > cap:
            raise CapExceededError(
                f"ring has {self.size} elements, above the cap {cap}",
                cap="cap_elements", needed=self.size, limit=cap)
        m = self.base.m
        return [RingElement._canonical(self, flat, m)
                for flat in product(*[range(md) for md in self._mods])]

    # -- validation ----------------------------------------------------------

    def _validate(self):
        """Check that the table is a commutative unital ring, local with the
        claimed residue field, without visiting all N^3 basis triples.

        The product is W-bilinear once it respects the additive orders, so
        each law need only hold on a spanning set.  Torsion, commutativity
        and unity are read off the basis products.  Associativity is Light's
        test, as for group tables: the g with (x g) y = x (g y) for all x, y
        form a W-submodule that contains 1 and is closed under products (for
        two such a, b, (x (ab)) y = ((xa) b) y = (xa)(by) = x (a (by)) =
        x ((ab) y)).  So it holds everywhere once it holds for a set S whose
        left-nested products with 1 span R (`_spanning_generators`); with
        commutativity the test on g is (g e_i) e_j = (g e_j) e_i for i < j.
        Given associativity, the g with red(g y) = red(g) red(y) for all y
        are, by the same argument, a W-submodule closed under products, so
        the reduction is tested on S times the basis only.  These laws run
        on the flat integer vectors of `_times_basis`, and the reduction is
        `_residue`, the k-linear functional sending Y^u e_j to Y^u lambda_j.

        Locality: m = ker(red) is then the ideal generated by p and the
        `_maximal_generators`, and an ideal generated by nilpotents is nil,
        so R is local with residue field k once those t elements (t = |S|)
        are nilpotent.
        """
        k = self.residue_field
        p, N = self.base.p, self.N
        mods = self._mods
        pairs = self._basis_products()
        for i in range(N):
            for j in range(N):
                pc = p ** min(self.orders[i], self.orders[j])
                if any(pc * v % md for v, md in zip(pairs[i][j], mods)):
                    raise RingConstructionError(
                        f"structure constants violate additive orders at ({i},{j})")
        for i in range(N):
            for j in range(i + 1, N):
                if pairs[i][j] != pairs[j][i]:
                    raise RingConstructionError(f"multiplication not commutative at ({i},{j})")
        one = self.one.flat
        if any(self._times_basis(one, j) != self._unit(j) for j in range(N)):
            raise RingConstructionError("unity fails on basis")
        red = self._residue
        if red(one) != k.one:
            raise RingConstructionError("reduction does not send 1 to 1")
        for g in self._spanning_generators():
            ge = [self._times_basis(g.flat, i) for i in range(N)]
            for i in range(N):
                for j in range(i + 1, N):
                    if self._times_basis(ge[i], j) != self._times_basis(ge[j], i):
                        raise RingConstructionError(
                            f"multiplication not associative: (g e_{i}) e_{j} != "
                            f"(g e_{j}) e_{i} for g = {self.describe_element(g)}")
            rg = red(g.flat)
            if any(red(x) != k.mul(rg, lam) for x, lam in zip(ge, self.residue_coeffs)):
                raise RingConstructionError("reduction is not multiplicative")
        for x in self._maximal_generators():
            if not self._is_nilpotent(x):
                raise RingConstructionError(
                    "kernel of reduction contains a non-nilpotent element; "
                    "the ring is not local with the claimed residue field")

    def _spanning_generators(self) -> List[RingElement]:
        """Elements whose left-nested products with 1 span R as a W-module.

        The designated generators, when every basis monomial X^mu is 1 (for
        mu = 0) or the product X_v * X^(mu - e_v) of a generator and another
        basis monomial, one product per basis element; by induction on the
        degree every basis element is then a nested product.  Otherwise (no
        monomials, as for square-zero extensions, or a monomial whose factors
        are not basis elements) the whole basis, which spans R by itself.
        """
        monos = self.basis_monos
        if monos is None or any(len(mo) != len(self.generators) for mo in monos):
            return self.basis
        index = {mo: i for i, mo in enumerate(monos)}
        for j, mo in enumerate(monos):
            if not any(mo):
                if self.one.flat != self._unit(j):
                    return self.basis
                continue
            for v, e in enumerate(mo):
                prev = index.get(mo[:v] + (e - 1,) + mo[v + 1:]) if e else None
                if prev is not None:
                    break
            else:
                return self.basis
            if self._times_basis(self.generators[v].flat, prev) != self._unit(j):
                return self.basis
        return list(self.generators)

    def _maximal_generators(self) -> List[RingElement]:
        """The nonzero x - s(red x), s the unity lift, for x in
        `_spanning_generators`; with p they generate m = ker(red) as an ideal
        when red is a ring map.

        They lie in m, and as red is a ring map, so does the ideal J they
        generate with p.  Modulo J each x is s(red x), so each nested
        product of the x with 1, and with them all of R, is congruent to an
        element of s(k): R/J has at most q elements, and as red maps R onto
        k, J = ker(red).
        """
        out = []
        for x in self._spanning_generators():
            y = x - self.unity_lift(self.reduce_element(x))
            if not y.is_zero():
                out.append(y)
        return out

    def _is_nilpotent(self, x: RingElement) -> bool:
        # x nilpotent iff x^(N*m) = 0: the residue dimension bounds the mod-p
        # nilpotency index and p^m = 0, so a power-of-two exponent >= N*m decides
        e = max(1, self.N) * self.base.m
        return (x ** (1 << (e - 1).bit_length())).is_zero()

    # -- display --------------------------------------------------------------

    def describe_element(self, x: RingElement) -> str:
        W = self.base
        parts = []
        for a, name in zip(x.coefficients(), self.basis_names):
            if a == W.zero:
                continue
            if W.r == 1:
                cs = str(a[0])
            else:
                cs = "(" + ",".join(str(c) for c in a) + ")"
            parts.append(cs if name == "1" else (f"{name}" if cs == "1" else f"{cs}*{name}"))
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return f"FiniteLocalRing[{self.label}]"


# -- ideals --------------------------------------------------------------------


class Ideal:
    """Ideal of a FiniteLocalRing, stored with an echelonized module basis."""

    def __init__(self, ring: FiniteLocalRing, generators: Sequence[RingElement]):
        """The ideal generated by `generators`: the W-span of the e_i * g."""
        basis = ring.basis
        self._span(ring, generators,
                   [(b * g).coefficients() for g in generators for b in basis])

    @classmethod
    def _module_span(cls, ring: FiniteLocalRing, elements: Sequence[RingElement]) -> "Ideal":
        """The W-span of `elements`, which the caller knows to be an ideal."""
        ideal = cls.__new__(cls)
        ideal._span(ring, elements, [x.coefficients() for x in elements])
        return ideal

    def _span(self, ring: FiniteLocalRing, generators: Sequence[RingElement],
              rows: Sequence[Sequence[GRElt]]) -> None:
        """Generators as given, and the Howell form of the coefficient
        vectors `rows`, which span the ideal as a W-module."""
        self.ring = ring
        self.generators = tuple(generators)
        self.form = HowellForm(ring.base, rows, ring.N, ring.orders)
        self.module_basis: Tuple[RingElement, ...] = tuple(
            ring.element(row) for row in self.form.rows)
        self.size = self.form.size

    def contains(self, x: RingElement) -> bool:
        return self.form.contains(x.coefficients())

    def reduce(self, x: RingElement) -> RingElement:
        """Canonical coset representative of x modulo the ideal."""
        return self.ring.element(self.form.reduce(x.coefficients()), x.prec)

    def is_proper(self) -> bool:
        return not self.contains(self.ring.one)

    def is_zero(self) -> bool:
        return self.size == 1

    def elements(self) -> Iterator[RingElement]:
        """All ideal elements, streamed in no particular order.

        Layered sums: each element is a partial sum plus one multiple of the
        next Howell row, so every element costs one vector add per row.
        """
        ring = self.ring
        W = ring.base
        mods = ring._mods
        layers = []
        for j, row in zip(self.form.pivot_cols, self.form.rows):
            span = W.p ** (ring.orders[j] - self.form.pivot_vals[j])
            multiples = []
            for q in product(range(span), repeat=W.r):
                flat = [c for a in row for c in W.mul(q, a)]
                multiples.append([c % md for c, md in zip(flat, mods)])
            layers.append(multiples)
        prec = W.m

        def walk(depth: int, acc: List[int]) -> Iterator[RingElement]:
            if depth == len(layers):
                yield RingElement._canonical(ring, tuple(acc), prec)
                return
            for v in layers[depth]:
                yield from walk(depth + 1, [(x + y) % md for x, y, md in zip(acc, v, mods)])

        return walk(0, [0] * len(mods))

    def enumerate_elements(self, cap: int = DEFAULT_ELEMENT_CAP) -> List[RingElement]:
        """All ideal elements, in coefficient-vector lexicographic order.
        Only `kernel_group` and the tests' oracles list an ideal; it stays
        here because `perfbench/tracing.py` wraps it."""
        if self.size > cap:
            raise CapExceededError(
                f"ideal has {self.size} elements, above the cap {cap}",
                cap="cap_elements", needed=self.size, limit=cap)
        out = sorted(self.elements(), key=lambda x: x.key())
        if len(out) != self.size:
            raise InternalInconsistencyError("ideal enumeration missed elements")
        return out

    def __repr__(self):
        return f"Ideal(size={self.size} in {self.ring.label})"


def ideal_span(ring: FiniteLocalRing, generators: Sequence[RingElement]) -> Ideal:
    return Ideal(ring, generators)


def scale_ideal(n: int, ideal: Ideal) -> Ideal:
    return Ideal(ideal.ring, [g.scale_int(n) for g in ideal.generators])


def maximal_ideal(ring: FiniteLocalRing) -> Ideal:
    """Kernel of the reduction to the residue field (= the set of non-units).

    x is in the kernel iff its coefficients reduce into the kernel of the
    k-linear map (y_j) -> sum y_j * lambda_j, so the kernel is the W-span of
    the lifts of that map's kernel and of the p * e_j, whose Howell form is
    the ideal's.  The reduction is a ring map, so the span is an ideal, and
    its `generators` are p and the t `FiniteLocalRing._maximal_generators`,
    which generate it as an ideal: `_validate` proves them nilpotent and
    `m_adic_filtration` multiplies by them.
    """
    if ring._max_ideal is not None:
        return ring._max_ideal
    W = ring.base
    k = ring.residue_field
    solver = LinearMapSolver(k, [[lam] for lam in ring.residue_coeffs], 1)
    rows = [[W.lift(e) for e in vec] for vec in solver.kernel_generators()
            if any(e != k.zero for e in vec)]
    for j in range(ring.N):
        row = [W.zero] * ring.N
        row[j] = W.from_int(W.p)
        rows.append(row)
    ideal = Ideal.__new__(Ideal)
    ideal._span(ring, [ring.one.scale_int(W.p), *ring._maximal_generators()], rows)
    ring._max_ideal = ideal
    return ideal


def m_adic_filtration(ring: FiniteLocalRing) -> List[Ideal]:
    """The powers [m, m^2, ..., m^L = 0] of the maximal ideal.

    m is the ideal generated by p and the `_maximal_generators` g (its
    `generators`), so m^(i+1) = m^i m is the W-span of the p a and the a g
    for a over m^i's module basis: t ring products per basis element of
    m^i, not one per basis element of m.  Howell forms are canonical, so
    each power is the one the span of all products of the two module bases
    gives (the tests' oracle).

    Raises when m^i = m^{i+1} != 0: the kernel of the reduction is then not
    nilpotent, which a validated ring rules out.
    """
    mx = maximal_ideal(ring)
    gens = mx.generators[1:]  # the generators after p
    p = ring.base.p
    powers = [mx]
    while powers[-1].size > 1:
        basis = powers[-1].module_basis
        nxt = Ideal._module_span(
            ring, [a.scale_int(p) for a in basis] + [a * g for a in basis for g in gens])
        if nxt.size == powers[-1].size:
            raise InternalInconsistencyError(
                f"m^{len(powers)} = m^{len(powers) + 1} != 0: the kernel of the "
                "reduction is not nilpotent, so the ring is not local")
        powers.append(nxt)
    return powers


def m_adic_layers(ring: FiniteLocalRing) -> List["Layer"]:
    """The `Layer` m^i / m^{i+1} for each step of `m_adic_filtration`, built
    once per ring for its readers: `enumerate_lifts` and `_layer_generators`
    in `def_set`, `fingerprint` and `_hom_levels`."""
    if ring._layers is None:
        filtration = m_adic_filtration(ring)
        ring._layers = [Layer(upper, lower) for upper, lower in zip(filtration, filtration[1:])]
    return ring._layers


class Layer:
    """The k-vector space upper / lower, for ideals upper = m^i and lower =
    m^{i+1} (or any upper * m <= lower <= upper, as p lies in m), read off
    their two Howell forms.

    Where upper's form has the pivot p^v, lower's has p^v or, at a jump
    column, p^(v+1) (or no pivot and the order v + 1).  Reducing x in upper
    by upper's pivot row at each jump column and by lower's at the other
    pivot columns, with one exact division per column, writes x as the sum
    of the q_j times upper's row j over the jump columns plus an element of
    lower; the q_j mod p are `coords(x)`.  So the classes of upper's module
    basis at the jump columns span the layer, and as |upper| / |lower| is q
    to the number of jumps, they are the k-basis `basis`.  `multiples[j][c]`
    is s(c) b_j, s the unity lift of the residue field.  The reductions run
    on flat coordinates: q times a row is the sum of the q_u times the flat
    coordinates of Y^u times it.
    """

    def __init__(self, upper: Ideal, lower: Ideal):
        ring = self.ring = upper.ring
        self.upper, self.lower = upper, lower
        W, k = ring.base, ring.residue_field
        lower_rows = dict(zip(lower.form.pivot_cols, lower.form.rows))
        # pivot column -> (p^v, for each u the nonzero flat coordinates (K, c)
        # of Y^u times the pivot row, coordinate or None)
        self._reducers: Dict[int, Tuple[int, List[Tuple[Tuple[int, int], ...]],
                                        Optional[int]]] = {}
        self.basis: List[RingElement] = []
        for j, row, b in zip(upper.form.pivot_cols, upper.form.rows, upper.module_basis):
            v = upper.form.pivot_vals[j]
            w = lower.form.pivot_vals.get(j, ring.orders[j])
            if w == v:
                row, at = lower_rows[j], None
            elif w == v + 1:
                at = len(self.basis)
                self.basis.append(b)
            else:
                raise InternalInconsistencyError(
                    "m^(i+1) does not lie between p * m^i and m^i, so m^i / m^(i+1) "
                    "is not a k-vector space")
            self._reducers[j] = (W.p ** v, [
                tuple((W.r * t + w, c) for t, e in enumerate(row) if e != W.zero
                      for w, c in enumerate(W.mul(mono, e)) if c)
                for mono in ring._monos], at)
        if lower.size * k.size ** len(self.basis) != upper.size:
            raise InternalInconsistencyError("layer basis does not span m^i / m^(i+1)")
        self.multiples: List[Dict[GRElt, RingElement]] = [
            {c: ring.unity_lift(c) * b for c in k.elements()} for b in self.basis]

    def coords(self, flat: Sequence[int]) -> List[GRElt]:
        """The k-coordinates of the class in `basis` of the element x with
        these canonical flat coordinates; x must lie in upper."""
        W = self.ring.base
        p, r, pm = W.p, W.r, W.p ** W.m
        vec = list(flat)
        out = [W.residue_field.zero] * len(self.basis)
        for I in range(0, len(vec), r):
            e = [c % pm for c in vec[I:I + r]]
            if not any(e):
                continue
            reducer = self._reducers.get(I // r)
            if reducer is None or any(c % reducer[0] for c in e):
                raise InternalInconsistencyError("layer element is not in m^i")
            pv, rows, at = reducer
            q = [c // pv for c in e]
            for qu, terms in zip(q, rows):
                if qu:
                    for K, c in terms:
                        vec[K] -= qu * c
            if at is not None:
                out[at] = tuple([c % p for c in q])
        return out

    def offsets(self) -> List[RingElement]:
        """The q^d sums s(c_1) b_1 + ... + s(c_d) b_d, c in k^d: one
        representative of each coset of lower in upper."""
        out = [self.ring.zero]
        for multiples in self.multiples:
            out = [x + y for x in out for y in multiples.values()]
        return out


# -- ring homomorphisms ----------------------------------------------------------


class RingHom:
    """Base-compatible local homomorphism between FiniteLocalRings, given on the basis."""

    def __init__(self, source: FiniteLocalRing, target: FiniteLocalRing,
                 basis_images: Sequence[RingElement]):
        self.source = source
        self.target = target
        self.basis_images = tuple(basis_images)
        if source.base.p != target.base.p or source.base.r != target.base.r:
            raise ValueError("incompatible base rings")
        if source.base.m < target.base.m:
            raise ValueError("no base map: source characteristic smaller than target's")
        qt = target.base.q
        if tuple(c % qt for c in source.base.h) != target.base.h:
            raise ValueError("incompatible residue polynomials")
        self._rows: Optional[Tuple[Tuple[Tuple[int, int], ...], ...]] = None

    def _image(self, flat: Sequence[int]) -> Tuple[int, ...]:
        """The canonical flat target coordinates of the image of a source
        vector given on the flat coordinates I = r*i + u.

        The map is compiled on first use: row I lists the nonzero flat
        coordinates (K, c) of Y^u * img_i, which W scales coefficient by
        coefficient.  A W_S-coordinate maps to W_T by reduction mod p^{m_T},
        which every target modulus p^{c_k} divides, so integer multiply-adds
        and one reduction per output coordinate give the image, as in
        `FiniteLocalRing._mul`.
        """
        T = self.target
        if self._rows is None:
            W = T.base
            rows = []
            for img in self.basis_images:
                for mono in T._monos:
                    y = T._canon([c for a in img.coefficients() for c in W.mul(mono, a)])
                    rows.append(tuple((K, c) for K, c in enumerate(y) if c))
            self._rows = tuple(rows)
        acc = [0] * len(T._mods)
        for x, row in zip(flat, self._rows):
            if x:
                for K, c in row:
                    acc[K] += x * c
        return tuple([v % md for v, md in zip(acc, T._mods)])

    def apply(self, x: RingElement) -> RingElement:
        return RingElement._canonical(self.target, self._image(x.flat), x.prec)

    def __call__(self, x: RingElement) -> RingElement:
        return self.apply(x)

    def verify(self) -> bool:
        """Unital, multiplicative on basis pairs, well-defined on torsion."""
        S, T = self.source, self.target
        p = S.base.p
        for i in range(S.N):
            if not self.basis_images[i].scale_int(p ** S.orders[i]).is_zero():
                return False
        if self.apply(S.one) != T.one:
            return False
        products = S._basis_products()
        for i in range(S.N):
            for j in range(i, S.N):
                lhs = self.basis_images[i] * self.basis_images[j]
                if lhs.flat != self._image(products[i][j]):
                    return False
        return True

    def __eq__(self, other):
        return (isinstance(other, RingHom) and self.source is other.source
                and self.target is other.target
                and self.basis_images == other.basis_images)

    def __hash__(self):
        return hash(tuple(x.flat for x in self.basis_images))

    def key(self):
        return tuple(x.key() for x in self.basis_images)

    def __repr__(self):
        imgs = ", ".join(f"{n} -> {self.target.describe_element(x)}"
                         for n, x in zip(self.source.basis_names, self.basis_images))
        return f"RingHom({imgs})"


def identity_hom(ring: FiniteLocalRing) -> RingHom:
    return RingHom(ring, ring, ring.basis)


# -- constructors ------------------------------------------------------------------


def build_galois_ring(p: int, m: int, r: int,
                      h: Optional[Sequence[int]] = None,
                      mode: str = "finite") -> FiniteLocalRing:
    """GR(p^m, r) = W(F_{p^r}) / p^m as a FiniteLocalRing of rank 1 over itself,
    in either mode."""
    W = GaloisRing(p, m, r, h)
    k = W.residue_field
    ring = FiniteLocalRing(
        base=W, orders=[m],
        mul_table=[[[W.one]]],
        one_coeffs=[W.one],
        residue_coeffs=[k.one],
        generators=[],
        basis_names=["1"],
        basis_monos=[()],
        mode=mode,
        label=f"GR({p}^{m},{r})" if r > 1 else f"Z/{p ** m}",
    )
    return ring


def _monomials_of_degree(t: int, d: int) -> List[Monomial]:
    """The monomials of degree d in t variables, ascending in graded-lex order."""
    out: List[Monomial] = []

    def rec(prefix: Monomial, left: int) -> None:
        if len(prefix) == t - 1:
            out.append(prefix + (left,))
            return
        for e in range(left + 1):
            rec(prefix + (e,), left - e)
    rec((), d)
    return sorted(out, key=grlex_key)


def _truncation_form(pres: IntegerPolynomialPresentation, W: GaloisRing,
                     degree_cap: int) -> Tuple[HowellForm, List[Monomial]]:
    """The Howell form of the relations' multiples of degree <= d, over the
    monomials of degree <= d in descending graded-lex order, at the first d
    where the live monomials and their orders repeat those of d - 1 and have
    degree at most d / 2; the form and its columns.

    One form grows across degrees.  The degree-d monomials are the first
    columns at degree d, and every multiple of degree below d is zero there,
    so the form at d is the form of the previous form's rows, padded on the
    left, and the multiples mu * f of degree exactly d.  A Howell form is
    canonical, so it equals the form of all multiples of degree <= d, row for
    row.  The previous rows come last, so that they are installed first.
    """
    t = pres.nvars
    rels = []
    for f in pres.relations:
        # presentations guarantee integer coefficients
        rels.append((f.degree(), [(mo, W.from_int(c)) for mo, c in f.nums.items()]))
    zero = W.zero
    cols: List[Monomial] = []
    lo = 0  # the least degree not yet among the columns
    d = max(max((fd for fd, _ in rels), default=0), 1)
    prev_sig = None
    form = None
    while d <= degree_cap:
        new = [mo for e in range(d, lo - 1, -1)
               for mo in reversed(_monomials_of_degree(t, e))]
        cols = new + cols
        col_index = {mo: i for i, mo in enumerate(cols)}
        rows = []
        for fd, terms in rels:
            for e in range(max(lo - fd, 0), d - fd + 1):
                for mu in _monomials_of_degree(t, e):
                    row = [zero] * len(cols)
                    for mo, c in terms:
                        row[col_index[mono_mul(mu, mo)]] = c
                    rows.append(row)
        if form is not None:
            pad = [zero] * len(new)
            rows.extend(pad + r for r in form.rows)
        form = HowellForm(W, rows, len(cols))
        if not form.live:
            raise RingConstructionError(
                "presentation collapses to the zero ring at this precision")
        qorders = form.quotient_orders()
        live_monos = [cols[j] for j in form.live]
        sig = (tuple(live_monos), tuple(qorders[j] for j in form.live))
        if 2 * max(sum(mo) for mo in live_monos) <= d and sig == prev_sig:
            return form, cols
        prev_sig = sig
        lo = d + 1
        d += 1
    raise NotFiniteAtCapError(
        f"monomial basis did not stabilize within degree cap {degree_cap}; "
        "not finite at this cap")


def ring_from_truncated_presentation(
        pres: IntegerPolynomialPresentation, m: int, *,
        mode: str = "finite",
        degree_cap: int = DEFAULT_DEGREE_CAP,
        h: Optional[Sequence[int]] = None) -> FiniteLocalRing:
    """The finite quotient (Z/p^m)[X_1..X_t] / (relations), if its monomial basis
    stabilizes within the degree cap.

    The basis consists of standard monomials in graded lexicographic order; the
    designated generators are the variable images.  The relations are reduced
    by one Howell form that grows across degrees (`_truncation_form`).
    Infinite-dimensionality at the cap is an explicit error, never a silent
    truncation.  With no variables the ring is GR(p^m, r), and relations are
    an error.
    """
    t = pres.nvars
    if t == 0:
        if pres.relations:
            raise RingConstructionError(
                "relations need variables: without them the ring is GR(p^m, r), "
                "and the precision sets p^m")
        return build_galois_ring(pres.p, m, pres.r, h, mode)
    W = GaloisRing(pres.p, m, pres.r, h)
    form, cols = _truncation_form(pres, W, degree_cap)
    col_index = {mo: i for i, mo in enumerate(cols)}
    qorders = form.quotient_orders()
    live_monos = [cols[j] for j in form.live]

    # basis in ascending graded-lex order: the live columns, reversed
    basis_monos = live_monos[::-1]
    orders = [qorders[j] for j in reversed(form.live)]
    N = len(basis_monos)

    def nf_coeffs(vec_cols: List[GRElt]) -> List[GRElt]:
        return form.live_coords(vec_cols)[::-1]

    def mono_vec(mo: Monomial) -> List[GRElt]:
        v = [W.zero] * len(cols)
        v[col_index[mo]] = W.one
        return v

    def names_of(mo: Monomial) -> str:
        fs = []
        for nm, e in zip(pres.names, mo):
            if e == 1:
                fs.append(nm)
            elif e > 1:
                fs.append(f"{nm}^{e}")
        return "*".join(fs) if fs else "1"

    # the residue map is not known yet: the ring is built unvalidated, its
    # residue map set from the search below, and only then validated
    k = W.residue_field
    rel_str = "; ".join(pres.relation_strings())
    # mono_mul is symmetric: reduce each unordered pair once, and mirror it
    table: List[List] = [[None] * N for _ in range(N)]
    for i, mi in enumerate(basis_monos):
        for j in range(i, N):
            table[i][j] = table[j][i] = nf_coeffs(mono_vec(mono_mul(mi, basis_monos[j])))
    ring = FiniteLocalRing(
        base=W, orders=orders,
        mul_table=table,
        one_coeffs=nf_coeffs(mono_vec((0,) * t)),
        residue_coeffs=[k.zero] * N,
        generators=[nf_coeffs(mono_vec(tuple(int(j == i) for j in range(t))))
                    for i in range(t)],
        basis_names=[names_of(mo) for mo in basis_monos],
        basis_monos=basis_monos, mode=mode, validate=False,
        label=f"(Z/{pres.p}^{m})[{','.join(pres.names)}]/({rel_str})")

    # residue images of the variables: for each X_i, the unique c in F_q with
    # X_i - c nilpotent; existence is exactly locality with residue field k
    var_images = []
    for x, name in zip(ring.generators, pres.names):
        found = next((c for c in k.elements()
                      if ring._is_nilpotent(x - ring.from_base(W.lift(c)))), None)
        if found is None:
            raise RingConstructionError(
                f"variable {name} has no residue in F_{{{k.size}}}; "
                "quotient is not local with the expected residue field")
        var_images.append(found)
    residue_coeffs = []
    for mo in basis_monos:
        lam = k.one
        for c, e in zip(var_images, mo):
            lam = k.mul(lam, k.pow(c, e))
        residue_coeffs.append(lam)
    ring._set_residue(residue_coeffs)
    ring._validate()
    return ring


# -- quotients ----------------------------------------------------------------------


@dataclass
class RingSurjection:
    """A quotient ring R/I, the natural surjection and a canonical section.

    The coordinates of R/I are those of R on the live columns of the Howell
    form of the kernel I, so `project` reads only the coefficients of its
    argument.
    """

    source: FiniteLocalRing
    target: FiniteLocalRing
    kernel: Ideal

    def project(self, x: RingElement) -> RingElement:
        return self.target.element(self.kernel.form.live_coords(x.coefficients()))

    def section(self, xbar: RingElement) -> RingElement:
        full = [self.source.base.zero] * self.source.N
        for c, j in zip(xbar.coefficients(), self.kernel.form.live):
            full[j] = c
        return self.source.element(full)


def quotient_ring(ring: FiniteLocalRing, ideal: Ideal) -> RingSurjection:
    """R/I, an exact finite ring, with structure constants on the canonical
    complement basis.

    It is built without `_validate`: R was validated, and R/I inherits each
    law.  Its product is R's on canonical coset representatives, well defined
    as I is an ideal, so R/I is a commutative ring respecting its quotient
    orders.  I is proper and R local, so I lies in m: the reduction factors
    through R/I onto the same k, with kernel m/I, nil as m is.  So R/I is
    local with residue field k.
    """
    if not ideal.is_proper():
        raise ValueError("cannot quotient by the unit ideal")
    form = ideal.form
    live = form.live
    orders = form.quotient_orders()
    pairs = ring._basis_products()
    m = ring.base.m
    target = FiniteLocalRing(
        base=ring.base, orders=[orders[j] for j in live],
        mul_table=[[form.live_coords(RingElement._canonical(ring, pairs[i][j], m)
                                     .coefficients()) for j in live] for i in live],
        one_coeffs=form.live_coords(ring.one.coefficients()),
        residue_coeffs=[ring._residue(ring._unit(j)) for j in live],
        generators=[form.live_coords(g.coefficients()) for g in ring.generators],
        basis_names=[ring.basis_names[j] for j in live],
        basis_monos=([ring.basis_monos[j] for j in live]
                     if ring.basis_monos is not None else None),
        mode="finite", validate=False,
        label=f"{ring.label}/(ideal of size {ideal.size})")
    return RingSurjection(ring, target, ideal)


# -- division and zero-divisors --------------------------------------------------------


def _mult_map_solver(a: RingElement) -> LinearMapSolver:
    ring = a.ring
    images = [(ring.basis_element(i) * a).coefficients() for i in range(ring.N)]
    return LinearMapSolver(ring.base, images, ring.N,
                           image_orders=ring.orders, domain_orders=ring.orders)


def is_zero_divisor(a: RingElement) -> bool:
    """Rank test on the multiplication-by-a matrix (no enumeration)."""
    return _mult_map_solver(a).has_nonzero_kernel()


def exact_divide(b: RingElement, a: RingElement) -> RingElement:
    """The unique x with a*x = b.

    Exact-finite mode requires a to be a non-zero-divisor.  Precision mode
    requires a = p^s * unit; the quotient loses s digits of precision.
    """
    ring = a.ring
    if ring.mode == "precision":
        W = ring.base
        s = min(W.val(c) for c in a.coefficients())
        if s >= min(a.prec, W.m):
            raise PrecisionExhaustedError("divisor is zero at working precision")
        unit = ring.element([W.divide_by_p_power(c, s) for c in a.coefficients()], a.prec)
        if not unit.is_unit():
            raise ZeroDivisorError(
                "divisor is not p^s * unit; cannot divide in the precision model")
        pk = W.p ** s
        if any(x % pk for x in b.flat):
            raise ZeroDivisorError("dividend is not divisible by the divisor")
        shifted = ring.element([W.divide_by_p_power(c, s) for c in b.coefficients()], b.prec)
        out = shifted * ring.invert(unit)
        prec = min(a.prec, b.prec) - s
        if prec < 1:
            raise PrecisionExhaustedError(
                f"division by p^{s} exhausts the working precision")
        return RingElement(ring, out.flat, prec)
    solver = _mult_map_solver(a)
    if solver.has_nonzero_kernel():
        raise ZeroDivisorError(
            f"{ring.describe_element(a)} is a zero-divisor; exact division undefined")
    x = solver.solve(b.coefficients())
    if x is None:
        raise ZeroDivisorError("dividend is not divisible by the divisor")
    out = ring.element(x)
    if a * out != b:
        raise InternalInconsistencyError("exact quotient does not multiply back")
    return out


# -- fingerprints --------------------------------------------------------------------


@dataclass(frozen=True)
class RingFingerprint:
    """Isomorphism invariants; unequal fingerprints certify non-isomorphism."""

    characteristic: int
    size: int
    maximal_ideal_size: int
    hilbert: Tuple[int, ...]
    additive_order_counts: Tuple[Tuple[int, int], ...]
    nilpotency_index_counts: Tuple[Tuple[int, int], ...]

    def as_dict(self) -> Dict:
        return {
            "characteristic": self.characteristic,
            "size": self.size,
            "maximal_ideal_size": self.maximal_ideal_size,
            "hilbert": list(self.hilbert),
            "additive_order_counts": [list(t) for t in self.additive_order_counts],
            "nilpotency_index_counts": [list(t) for t in self.nilpotency_index_counts],
        }


def fingerprint(ring: FiniteLocalRing, cap: int = DEFAULT_ELEMENT_CAP) -> RingFingerprint:
    """Characteristic, sizes, Hilbert sequence, and the counts of elements by
    additive order and by nilpotency index, without enumerating R or m.

    The additive group is the direct sum of the (Z/p^{c_j})^r, so
    #{x : p^e x = 0} = prod_j p^{r min(e, c_j)}, and the number of elements
    of order exactly p^e is the difference of consecutive such products.

    Units are never nilpotent, so nilpotency indices are counted over m, by a
    walk down the m-adic filtration [m, m^2, ..., m^L = 0].  For x in m and
    d in m^j, (x + d)^e - x^e lies in m^(e-1+j), so x^e depends only on x mod
    m^(L-e+1).  The walk visits the classes of m mod m, mod m^2, ..., each
    class's children being its sums with the `Layer.offsets`.  At depth j it
    tests x^(L-j+1), which the class decides.  If the power is zero the walk
    descends.  Otherwise x^(L-j+2) is zero, since the parent class tested it,
    so all |m^j| elements of the class have index exactly L-j+2 and are
    counted without being visited; the representative must then satisfy
    x^(L-j+2) = 0, and a class that does not raises, as a filtration that is
    not the m-adic one would make it.  The classes that reach depth L with
    x = 0 are the zero element, of index 1.  `cap` bounds the size of R, as
    if R were enumerated.
    """
    if ring.mode != "finite":
        raise ValueError("fingerprints are defined for exact finite rings only")
    if ring.size > cap:
        raise CapExceededError(
            f"ring has {ring.size} elements, above the cap {cap}",
            cap="cap_elements", needed=ring.size, limit=cap)
    W = ring.base
    p = W.p
    char = p ** max((c - W.val(x) for c, x in zip(ring.orders, ring.one.coefficients())
                     if x != W.zero), default=0)
    # the Hilbert sequence dim_k m^i / m^{i+1} is read off the layer bases,
    # and the sizes of m, m^2, ..., m^L = 0 off their upper ideals
    layers = m_adic_layers(ring)
    sizes = [layer.upper.size for layer in layers] + [1]
    killed = [prod(p ** (W.r * min(e, c)) for c in ring.orders)
              for e in range(max(ring.orders, default=0) + 1)]
    order_counts = [(p ** e, killed[e] - (killed[e - 1] if e else 0))
                    for e in range(len(killed))]
    bound = len(sizes)
    nil_counts: Dict[int, int] = {}
    classes = [ring.zero]
    for j, size in enumerate(sizes, 1):
        e = bound - j + 1
        survivors = []
        for x in classes:
            y = x ** e
            if y.is_zero():
                survivors.append(x)
                continue
            if not (y * x).is_zero():
                raise InternalInconsistencyError(
                    f"{ring.describe_element(x)} in m has x^{e} != 0 and "
                    f"x^{e + 1} != 0 although m^{bound} = 0")
            nil_counts[e + 1] = nil_counts.get(e + 1, 0) + size
        if j < bound:
            offsets = layers[j - 1].offsets()
            classes = [x + o for x in survivors for o in offsets]
    nil_counts[1] = len(survivors)
    return RingFingerprint(
        characteristic=char,
        size=ring.size,
        maximal_ideal_size=maximal_ideal(ring).size,
        hilbert=(1, *(len(layer.basis) for layer in layers)),
        additive_order_counts=tuple(order_counts),
        nilpotency_index_counts=tuple(sorted(nil_counts.items())),
    )


# -- homomorphism enumeration -----------------------------------------------------------


def _hom_from_generators(source: FiniteLocalRing, target: FiniteLocalRing,
                         images: Sequence[RingElement]) -> Optional[RingHom]:
    """The homomorphism sending the designated generators to `images`, or None.

    The basis images are the generators' monomial expressions evaluated at
    `images`; the map must pass `RingHom.verify` and send each generator to
    its image, which enforces the generator relations and avoids counting a
    map twice.
    """
    basis_images = []
    for mo in source.basis_monos:
        img = target.one
        for z, e in zip(images, mo):
            if e:
                img = img * (z ** e)
        basis_images.append(img)
    hom = RingHom(source, target, basis_images)
    if hom.verify() and all(hom.apply(g) == z for g, z in zip(source.generators, images)):
        return hom
    return None


def _hom_levels(source: FiniteLocalRing, target: FiniteLocalRing
                ) -> Iterator[List[Tuple[Tuple[RingElement, ...], RingHom]]]:
    """The search of `hom_enumerate`, one level of [m, m^2, ..., m^L = 0] at a time.

    Level i yields the generator tuples z in T whose images in T/m^i pass
    `_hom_from_generators`, each with that homomorphism S -> T/m^i; level L
    works in T itself.  Level 1 tests the unity lifts of the generators'
    residues; level i + 1 adds to each survivor of level i every tuple of
    the `Layer.offsets` of m^i / m^{i+1}, T/m^{i+1} built from the layer's
    lower ideal.  The search stops after an empty level.
    """
    t = len(source.generators)
    survivors = [tuple(target.unity_lift(source.reduce_element(g))
                       for g in source.generators)]
    ideal = maximal_ideal(target)
    for layer in [None, *m_adic_layers(target)]:
        candidates = survivors
        if layer is not None:
            offsets, ideal = layer.offsets(), layer.lower
            candidates = [tuple(z + o for z, o in zip(zs, choice))
                          for zs in survivors for choice in product(offsets, repeat=t)]
        ring, project = target, None
        if not ideal.is_zero():
            surjection = quotient_ring(target, ideal)
            ring, project = surjection.target, surjection.project
        level = []
        for zs in candidates:
            hom = _hom_from_generators(
                source, ring, zs if project is None else [project(z) for z in zs])
            if hom is not None:
                level.append((zs, hom))
        yield level
        if not level:
            return
        survivors = [zs for zs, _ in level]


def hom_enumerate(source: FiniteLocalRing, target: FiniteLocalRing,
                  cap: int = DEFAULT_MAP_CAP) -> List[RingHom]:
    """All local base-algebra homomorphisms source -> target, in canonical order.

    Requires the source to carry monomial expressions of its basis in the
    designated generators.  Homomorphisms exist only when the target
    characteristic divides the source characteristic.

    The maps are the tuples z in (unity lift + m_T)^t, t generators, that
    pass `_hom_from_generators`.  A homomorphism S -> T reduces to one
    S -> T/m^i, and each element of m_T is one sum of layer offsets, so
    `_hom_levels` finds exactly these tuples while pruning every partial
    tuple that fails modulo some m^i (Mazur 1989, 1.2, for lifts over
    small extensions).  The cap bounds the candidate space |m_T|^t; m_T
    itself is never listed.
    """
    if source.basis_monos is None:
        raise ValueError("source ring carries no generator expressions for its basis")
    if (source.base.p, source.base.r) != (target.base.p, target.base.r):
        return []
    if source.base.m < target.base.m:
        return []  # no base map Z/p^a -> Z/p^b with b > a
    t = len(source.generators)
    mt = maximal_ideal(target)
    if mt.size ** t > cap:
        raise CapExceededError(
            f"{mt.size ** t} candidate maps exceed the cap {cap}",
            cap="cap_maps", needed=mt.size ** t, limit=cap)
    homs: List[RingHom] = []
    for level in _hom_levels(source, target):
        homs = [hom for _, hom in level]
    homs.sort(key=lambda h: h.key())
    return homs
