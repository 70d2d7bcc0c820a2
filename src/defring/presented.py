"""Rational fibers of presented algebras and the finite-etale decision.

For a presentation R = Z_p[X_1..X_t]/(f_1..f_s) the rational fiber
A = Q[X]/(f) carries all the characteristic-zero information we need:
R[1/p] is finite etale over the fraction field iff A is finite-dimensional
and reduced, and both properties are stable under the base change Q -> Q_p.

Reducedness is decided twice, by independent routes that must agree:
the trace form (nondegenerate iff reduced, in characteristic zero) and the
rank of the Kaehler differential module via the Jacobian presentation.

Power-series presentations are modeled by their polynomial counterparts;
this is faithful here because every check factors through the rational
fiber or a finite truncation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from typing import Dict, List, Optional, Sequence, Tuple

from .polys import (CoefficientSwellError, IntegralityError, Monomial, Poly,
                    buchberger, grevlex_key, mono_divides, mono_mul, normal_form)
from .presentations import IntegerPolynomialPresentation
from .errors import InternalInconsistencyError
from .local_ring import ring_from_truncated_presentation, NotFiniteAtCapError


DEFAULT_VARIABLE_GUARD = 6


def groebner_basis(pres: IntegerPolynomialPresentation,
                   bit_cap: int = 4096) -> List[Poly]:
    """Reduced monic degrevlex Groebner basis of the relation ideal over Q."""
    if pres.nvars > DEFAULT_VARIABLE_GUARD:
        raise ValueError(
            f"presentations with more than {DEFAULT_VARIABLE_GUARD} variables "
            "are outside the supported desk scale")
    return buchberger(list(pres.relations), grevlex_key, bit_cap=bit_cap)


# -- rational linear algebra helpers ---------------------------------------------


def _row_reduce(rows: List[List[Fraction]]) -> Tuple[int, List[List[Fraction]]]:
    """In-place fraction Gaussian elimination; returns (rank, echelon rows)."""
    if not rows:
        return 0, []
    ncols = len(rows[0])
    rank = 0
    for col in range(ncols):
        piv = None
        for i in range(rank, len(rows)):
            if rows[i][col] != 0:
                piv = i
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = Fraction(1) / rows[rank][col]
        rows[rank] = [x * inv for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                c = rows[i][col]
                rows[i] = [a - c * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    return rank, rows[:rank]


def _determinant(mat: List[List[Fraction]]) -> Fraction:
    n = len(mat)
    rows = [list(r) for r in mat]
    det = Fraction(1)
    for col in range(n):
        piv = None
        for i in range(col, n):
            if rows[i][col] != 0:
                piv = i
                break
        if piv is None:
            return Fraction(0)
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            det = -det
        det *= rows[col][col]
        inv = Fraction(1) / rows[col][col]
        for i in range(col + 1, n):
            if rows[i][col] != 0:
                c = rows[i][col] * inv
                rows[i] = [a - c * b for a, b in zip(rows[i], rows[col])]
    return det


def _kernel_basis(mat: List[List[Fraction]]) -> List[List[Fraction]]:
    """Basis of the right kernel of a square symmetric matrix."""
    n = len(mat)
    rows = [list(r) for r in mat]
    rank, ech = _row_reduce(rows)
    pivots = []
    for r in ech:
        for j, x in enumerate(r):
            if x != 0:
                pivots.append(j)
                break
    free = [j for j in range(n) if j not in pivots]
    out = []
    for f in free:
        v = [Fraction(0)] * n
        v[f] = Fraction(1)
        for r, pj in zip(ech, pivots):
            v[pj] = -r[f]
        out.append(v)
    return out


# -- the rational fiber -------------------------------------------------------------


@dataclass
class QFiberAlgebra:
    """Q[X]/(relations) with a standard-monomial basis and exact rational tables."""

    pres: IntegerPolynomialPresentation
    gb: List[Poly]
    basis: List[Monomial]
    _mult: Dict[Tuple[int, int], Dict[int, Fraction]] = field(default_factory=dict)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def normal_form(self, f: Poly) -> Poly:
        return normal_form(f, self.gb, grevlex_key)

    def coords(self, f: Poly) -> List[Fraction]:
        nf = self.normal_form(f)
        pos = {mo: i for i, mo in enumerate(self.basis)}
        vec = [Fraction(0)] * self.dim
        for mo, c in nf.terms.items():
            vec[pos[mo]] = c
        return vec

    def element(self, vec: Sequence[Fraction]) -> Poly:
        out = Poly.zero(self.pres.nvars)
        for c, mo in zip(vec, self.basis):
            if c:
                out = out + Poly(self.pres.nvars, {mo: c})
        return out

    def mult_coords(self, i: int, j: int) -> Dict[int, Fraction]:
        key = (i, j) if i <= j else (j, i)
        if key not in self._mult:
            prod_mono = mono_mul(self.basis[key[0]], self.basis[key[1]])
            vec = self.coords(Poly.from_monomial(self.pres.nvars, prod_mono))
            self._mult[key] = {u: c for u, c in enumerate(vec) if c}
        return self._mult[key]

    def mult_matrix(self, f: Poly) -> List[List[Fraction]]:
        """Matrix of multiplication by f on the standard-monomial basis (columns = images)."""
        n = self.dim
        cols = []
        for j, mo in enumerate(self.basis):
            g = f * Poly.from_monomial(self.pres.nvars, mo)
            cols.append(self.coords(g))
        return [[cols[j][i] for j in range(n)] for i in range(n)]


def q_fiber(pres: IntegerPolynomialPresentation,
            bit_cap: int = 4096) -> Optional[QFiberAlgebra]:
    """The finite-dimensional rational fiber, or None if infinite-dimensional.

    Finiteness criterion: every variable has a pure power among the Groebner
    leading terms (with the zero algebra as the degenerate unit-ideal case).
    """
    gb = groebner_basis(pres, bit_cap=bit_cap)
    t = pres.nvars
    if any(g.degree() == 0 for g in gb):
        return QFiberAlgebra(pres, gb, [])
    lms = [g.leading_monomial() for g in gb]
    bounds = []
    for i in range(t):
        d = None
        for mo in lms:
            if mo[i] > 0 and all(mo[j] == 0 for j in range(t) if j != i):
                d = mo[i] if d is None else min(d, mo[i])
        if d is None:
            return None
        bounds.append(d)
    basis = []
    ranges = [range(b) for b in bounds] if t else [range(1)]
    for exps in product(*ranges):
        mo = tuple(exps)[:t] if t else ()
        if t == 0:
            mo = ()
        if not any(mono_divides(lm, mo) for lm in lms):
            basis.append(mo)
    basis.sort(key=grevlex_key)
    return QFiberAlgebra(pres, gb, basis)


def trace_form(A: QFiberAlgebra) -> Tuple[List[List[Fraction]], Fraction]:
    """Gram matrix T_ij = trace(mult by b_i*b_j) and its exact determinant."""
    n = A.dim
    if n == 0:
        return [], Fraction(1)
    # trace of multiplication by each basis element
    basis_traces = []
    for u in range(n):
        tr = Fraction(0)
        for l in range(n):
            tr += A.mult_coords(u, l).get(l, Fraction(0))
        basis_traces.append(tr)
    gram = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            tij = sum((c * basis_traces[u] for u, c in A.mult_coords(i, j).items()),
                      Fraction(0))
            gram[i][j] = gram[j][i] = tij
    return gram, _determinant(gram)


def omega_rank(pres: IntegerPolynomialPresentation, A: QFiberAlgebra) -> int:
    """dim_Q of the differential module of A over Q, by the Jacobian presentation.

    The module is the cokernel of A^s -> A^t, e_k -> (df_k/dX_1, ..., df_k/dX_t).
    """
    t = pres.nvars
    n = A.dim
    if t == 0 or n == 0:
        return 0
    rows = []
    for f in pres.relations:
        partials = [f.derivative(i) for i in range(t)]
        for mo in A.basis:
            bm = Poly.from_monomial(t, mo)
            row: List[Fraction] = []
            for g in partials:
                row.extend(A.coords(g * bm))
            rows.append(row)
    rank, _ = _row_reduce(rows)
    return n * t - rank


def nilpotent_witness(A: QFiberAlgebra) -> Tuple[Poly, int]:
    """A nonzero nilpotent element (from the trace-form radical) with its vanishing power."""
    gram, det = trace_form(A)
    if det != 0:
        raise ValueError("algebra is reduced; it has no nonzero nilpotents")
    for vec in _kernel_basis(gram):
        x = A.element(vec)
        if x.is_zero():
            continue
        power = x
        for e in range(2, A.dim + 1):
            power = A.normal_form(power * x)
            if power.is_zero():
                return x, e
    raise InternalInconsistencyError(
        "trace form is degenerate but no kernel element is nilpotent")


@dataclass
class EtaleReport:
    finite_dimensional: bool
    dim: Optional[int]
    trace_det: Optional[Fraction]
    omega_rank: Optional[int]
    reduced: Optional[bool]
    verdict: str  # PASS | FAIL_NOT_FINITE | FAIL_NOT_REDUCED
    witness: Optional[Tuple[str, int]] = None
    groebner: Tuple[str, ...] = ()
    note: str = ""

    def as_dict(self) -> Dict:
        return {
            "finite_dimensional": self.finite_dimensional,
            "dim": self.dim if self.finite_dimensional else "infinite",
            "trace_det": (None if self.trace_det is None
                          else f"{self.trace_det.numerator}/{self.trace_det.denominator}"
                          if self.trace_det.denominator != 1
                          else str(self.trace_det.numerator)),
            "omega_rank": self.omega_rank,
            "reduced": self.reduced,
            "verdict": self.verdict,
            "witness": (None if self.witness is None
                        else {"element": self.witness[0], "vanishing_power": self.witness[1]}),
            "groebner_basis": list(self.groebner),
            "note": self.note,
        }


def etale_check(pres: IntegerPolynomialPresentation,
                bit_cap: int = 4096) -> EtaleReport:
    """Decide whether the rational fiber is a finite product of field extensions.

    Dual-route reducedness: the trace-form determinant and the Jacobian
    cokernel rank are computed independently and must agree.
    """
    A = q_fiber(pres, bit_cap=bit_cap)
    if A is None:
        gb = groebner_basis(pres, bit_cap=bit_cap)
        return EtaleReport(
            finite_dimensional=False, dim=None, trace_det=None,
            omega_rank=None, reduced=None, verdict="FAIL_NOT_FINITE",
            groebner=tuple(g.render(pres.names) for g in gb),
            note="some variable has no pure power among the leading terms")
    gram, det = trace_form(A)
    om = omega_rank(pres, A)
    reduced = det != 0
    if reduced != (om == 0):
        raise InternalInconsistencyError(
            f"trace form (det={det}) and differential module (rank={om}) "
            "disagree on reducedness")
    gb_strs = tuple(g.render(pres.names) for g in A.gb)
    if A.dim == 0:
        return EtaleReport(
            finite_dimensional=True, dim=0, trace_det=det, omega_rank=om,
            reduced=True, verdict="PASS", groebner=gb_strs,
            note="rational fiber is the zero ring (relations generate the unit "
                 "ideal over Q); the condition holds vacuously")
    if reduced:
        return EtaleReport(True, A.dim, det, om, True, "PASS", None, gb_strs)
    wit, power = nilpotent_witness(A)
    # independent certification: verify the vanishing power by normal form
    acc = Poly.constant(pres.nvars, Fraction(1))
    for _ in range(power):
        acc = A.normal_form(acc * wit)
    assert acc.is_zero()
    return EtaleReport(True, A.dim, det, om, False, "FAIL_NOT_REDUCED",
                       (wit.render(pres.names), power), gb_strs)


# -- homomorphisms between presentations ---------------------------------------------


class IntegralityObstruction(ArithmeticError):
    """A p-denominator appeared; integrality cannot be certified symbolically."""


def verify_presented_hom(source: IntegerPolynomialPresentation,
                         target: IntegerPolynomialPresentation,
                         images: Sequence[Poly]) -> bool:
    """Check that X_i -> images[i] defines a local algebra map source -> target.

    Requires: each source relation maps into the target ideal (normal form 0
    over Q), all normal forms are p-integral, and the images respect locality
    (constant terms divisible by p, so variables land in the maximal ideal).
    """
    if source.p != target.p:
        raise ValueError("source and target live over different primes")
    if len(images) != source.nvars:
        raise ValueError("one image polynomial per source variable required")
    p = source.p
    for g in images:
        for mo, c in g.terms.items():
            if c.denominator != 1:
                raise ValueError("images must have integer coefficients")
        c0 = g.terms.get((0,) * target.nvars, Fraction(0))
        if c0.numerator % p != 0:
            return False
    A = q_fiber(target)
    if A is None:
        raise ValueError("target rational fiber must be finite-dimensional")
    for f in source.relations:
        mapped = f.substitute(list(images))
        try:
            nf = normal_form(mapped, A.gb, grevlex_key, deny_denominator_prime=p)
        except (IntegralityError, CoefficientSwellError) as exc:
            raise IntegralityObstruction(
                f"p-denominator during reduction of {f.render(source.names)}: {exc}"
            ) from exc
        if not nf.is_zero():
            return False
    return True


# -- membership in the finite-flat class ----------------------------------------------


@dataclass
class WMembershipReport:
    finite_dimensional: bool
    torsion_free_at_precision: Optional[bool]
    precision: int
    verdict: str
    note: str

    def as_dict(self) -> Dict:
        return {
            "finite_dimensional": self.finite_dimensional,
            "torsion_free_at_precision": self.torsion_free_at_precision,
            "precision": self.precision,
            "verdict": self.verdict,
            "note": self.note,
        }


def w_membership_check(pres: IntegerPolynomialPresentation,
                       precision: int = 4) -> WMembershipReport:
    """Is the completed algebra a finitely generated free module over the base?

    The rank condition is exact (rational fiber).  Freedom from p-torsion is
    tested on the truncation at the given precision and is sound only there:
    torsion supported above p^precision would go unseen.
    """
    A = q_fiber(pres)
    if A is None:
        return WMembershipReport(
            False, None, precision, "not a finitely generated module",
            "rational fiber is infinite-dimensional")
    try:
        R = ring_from_truncated_presentation(pres, precision)
    except NotFiniteAtCapError:
        return WMembershipReport(
            True, None, precision, "undecided",
            "truncation did not stabilize at the degree cap")
    free = all(c == precision for c in R.orders)
    if free:
        return WMembershipReport(
            True, True, precision,
            "finitely generated with trivial p-torsion (precision-certified)",
            f"no p-torsion detected at precision {precision}; torsion above "
            f"p^{precision} would be invisible at this precision")
    return WMembershipReport(
        True, False, precision, "has nontrivial p-torsion",
        "truncation basis contains an element of additive order below "
        f"p^{precision}: exact p-torsion witnessed")
