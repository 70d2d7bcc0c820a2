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
from math import lcm
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

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
    return buchberger(list(pres.relations), bit_cap=bit_cap)


# -- rational linear algebra helpers ---------------------------------------------


def _echelon(mat: Sequence[Sequence[Fraction]]
             ) -> Tuple[List[List[int]], List[int], Fraction]:
    """Fraction-free (Bareiss) forward elimination of a rational matrix.

    Each row is first multiplied by the lcm of its denominators, which keeps
    the rank and the row space and scales the determinant by that lcm.  The
    integer elimination divides exactly by the previous pivot (Bareiss 1968),
    so entries stay minors of the input instead of growing as fractions.

    Returns the nonzero echelon rows, their pivot columns (the rank is their
    number) and, for a square matrix, its determinant: the signed last pivot
    divided by the row scalings, or 0 below full rank.
    """
    rows = []
    scale = 1
    for r in mat:
        m = lcm(*(x.denominator for x in r))
        scale *= m
        rows.append([x.numerator * (m // x.denominator) for x in r])
    ncols = len(rows[0]) if rows else 0
    pivots: List[int] = []
    sign, prev = 1, 1
    for col in range(ncols):
        k = len(pivots)
        if k == len(rows):
            break
        piv = next((i for i in range(k, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        if piv != k:
            rows[k], rows[piv] = rows[piv], rows[k]
            sign = -sign
        top = rows[k][col:]
        p = top[0]
        for row in rows[k + 1:]:
            c = row[col]
            if c:
                row[col:] = [(p * a - c * b) // prev for a, b in zip(row[col:], top)]
            elif p != prev:
                row[col:] = [p * a // prev for a in row[col:]]
        prev = p
        pivots.append(col)
    rank = len(pivots)
    det = Fraction(sign * prev, scale) if rank == len(rows) else Fraction(0)
    return rows[:rank], pivots, det


def _kernel_basis(mat: Sequence[Sequence[Fraction]]) -> Iterator[List[Fraction]]:
    """Basis of the right kernel, one vector per free column of the echelon form.

    Each vector sets its free variable to 1 and the others to 0 and solves
    for the pivot variables by back-substitution, so it is the vector read
    off the reduced row echelon form.
    """
    ech, pivots, _ = _echelon(mat)
    n = len(mat[0]) if mat else 0
    for free in (j for j in range(n) if j not in pivots):
        vec = [Fraction(0)] * n
        vec[free] = Fraction(1)
        for row, pc in reversed(list(zip(ech, pivots))):
            vec[pc] = -sum((row[j] * vec[j] for j in range(pc + 1, n)),
                           Fraction(0)) / row[pc]
        yield vec


# -- the rational fiber -------------------------------------------------------------


@dataclass
class QFiberAlgebra:
    """Q[X]/(relations) with a standard-monomial basis and exact rational tables."""

    pres: IntegerPolynomialPresentation
    gb: List[Poly]
    basis: List[Monomial]
    _nf: Dict[Monomial, Dict[int, Fraction]] = field(default_factory=dict)
    _trace: Optional[Tuple[List[List[Fraction]], Fraction]] = None

    def __post_init__(self):
        self._pos = {mo: i for i, mo in enumerate(self.basis)}

    @property
    def dim(self) -> int:
        return len(self.basis)

    def normal_form(self, f: Poly) -> Poly:
        return normal_form(f, self.gb)

    def coords(self, f: Poly) -> Dict[int, Fraction]:
        """The nonzero coordinates of the normal form of f on the basis."""
        return {self._pos[mo]: c for mo, c in self.normal_form(f).terms.items()}

    def element(self, vec: Sequence[Fraction]) -> Poly:
        out = Poly.zero(self.pres.nvars)
        for c, mo in zip(vec, self.basis):
            if c:
                out = out + Poly(self.pres.nvars, {mo: c})
        return out

    def _monomial_coords(self, mo: Monomial) -> Dict[int, Fraction]:
        """Coordinates of the normal form of the monomial mo, memoised.

        A basis monomial is read off.  A border monomial (mo / X_v a basis
        monomial for some v) is normal-formed once.  Any other mo is X_v * mo'
        with mo' outside the basis; normal forms are linear and g - NF(g)
        lies in the ideal, so NF(mo) = sum_u NF(mo')_u NF(X_v b_u), where
        each X_v b_u is a basis or a border monomial (standard monomials are
        closed under division).
        """
        pos = self._pos.get(mo)
        if pos is not None:
            return {pos: Fraction(1)}
        out = self._nf.get(mo)
        if out is None:
            cofactors = [(v, mo[:v] + (e - 1,) + mo[v + 1:])
                         for v, e in enumerate(mo) if e]
            if any(rest in self._pos for _, rest in cofactors):
                out = self.coords(Poly.from_monomial(self.pres.nvars, mo))
            else:
                v, rest = cofactors[0]
                acc: Dict[int, Fraction] = {}
                for u, c in self._monomial_coords(rest).items():
                    bu = self.basis[u]
                    row = self._monomial_coords(bu[:v] + (bu[v] + 1,) + bu[v + 1:])
                    for k, d in row.items():
                        acc[k] = acc[k] + c * d if k in acc else c * d
                out = {k: c for k, c in acc.items() if c}
            self._nf[mo] = out
        return out

    def mult_coords(self, i: int, j: int) -> Dict[int, Fraction]:
        """Coordinates of b_i * b_j."""
        return self._monomial_coords(mono_mul(self.basis[i], self.basis[j]))


def q_fiber(pres: IntegerPolynomialPresentation, bit_cap: int = 4096,
            gb: Optional[List[Poly]] = None) -> Optional[QFiberAlgebra]:
    """The finite-dimensional rational fiber, or None if infinite-dimensional.

    `gb` is the basis from `groebner_basis(pres)` when the caller already has it.
    Finiteness criterion: every variable has a pure power among the Groebner
    leading terms (with the zero algebra as the degenerate unit-ideal case).
    """
    if gb is None:
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
    basis = [mo for mo in product(*(range(b) for b in bounds))
             if not any(mono_divides(lm, mo) for lm in lms)]
    basis.sort(key=grevlex_key)
    return QFiberAlgebra(pres, gb, basis)


def trace_form(A: QFiberAlgebra) -> Tuple[List[List[Fraction]], Fraction]:
    """Gram matrix T_ij = trace(mult by b_i*b_j) and its exact determinant.

    Computed once per algebra; later calls return the same pair.
    """
    if A._trace is not None:
        return A._trace
    n = A.dim
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
    A._trace = gram, _echelon(gram)[2]
    return A._trace


def omega_rank(pres: IntegerPolynomialPresentation, A: QFiberAlgebra) -> int:
    """dim_Q of the differential module of A over Q, by the Jacobian presentation.

    The module is the cokernel of A^s -> A^t, e_k -> (df_k/dX_1, ..., df_k/dX_t).
    Its row for f_k and basis element b_j holds NF(df_k/dX_i * b_j), taken
    from the multiplication table: normal forms are linear and g - NF(g) lies
    in the ideal, so NF(g * b_j) = sum_u NF(g)_u NF(b_u * b_j).
    """
    t = pres.nvars
    n = A.dim
    if t == 0 or n == 0:
        return 0
    rows = []
    for f in pres.relations:
        partials = [A.coords(f.derivative(i)) for i in range(t)]
        for j in range(n):
            row = [Fraction(0)] * (t * n)
            for i, g in enumerate(partials):
                for u, c in g.items():
                    for v, d in A.mult_coords(u, j).items():
                        row[i * n + v] += c * d
            rows.append(row)
    return n * t - len(_echelon(rows)[1])


def nilpotent_witness(A: QFiberAlgebra) -> Tuple[Poly, int]:
    """A nonzero nilpotent element (from the trace-form radical) with its vanishing power."""
    gram, det = trace_form(A)
    if det != 0:
        raise ValueError("algebra is reduced; it has no nonzero nilpotents")
    for vec in _kernel_basis(gram):
        x = A.element(vec)
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
    gb = groebner_basis(pres, bit_cap=bit_cap)
    gb_strs = tuple(g.render(pres.names) for g in gb)
    A = q_fiber(pres, gb=gb)
    if A is None:
        return EtaleReport(
            finite_dimensional=False, dim=None, trace_det=None,
            omega_rank=None, reduced=None, verdict="FAIL_NOT_FINITE",
            groebner=gb_strs,
            note="some variable has no pure power among the leading terms")
    gram, det = trace_form(A)
    om = omega_rank(pres, A)
    reduced = det != 0
    if reduced != (om == 0):
        raise InternalInconsistencyError(
            f"trace form (det={det}) and differential module (rank={om}) "
            "disagree on reducedness")
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
    if not acc.is_zero():
        raise InternalInconsistencyError(
            f"nilpotent witness does not vanish at power {power}")
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
            nf = normal_form(mapped, A.gb, deny_denominator_prime=p)
        except (IntegralityError, CoefficientSwellError) as exc:
            raise IntegralityObstruction(
                f"p-denominator during reduction of {f.render(source.names)}: {exc}"
            ) from exc
        if not nf.is_zero():
            return False
    return True


# -- membership in the finite-flat class ----------------------------------------------


# the verdict of `w_membership_check`, by (finite_dimensional, torsion_free_at_precision)
W_VERDICTS = {
    (False, None): "not a finitely generated module",
    (True, None): "undecided",
    (True, True): "finitely generated with trivial p-torsion (precision-certified)",
    (True, False): "has nontrivial p-torsion",
}


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
            False, None, precision, W_VERDICTS[False, None],
            "rational fiber is infinite-dimensional")
    try:
        R = ring_from_truncated_presentation(pres, precision)
    except NotFiniteAtCapError:
        return WMembershipReport(
            True, None, precision, W_VERDICTS[True, None],
            "truncation did not stabilize at the degree cap")
    free = all(c == precision for c in R.orders)
    if free:
        return WMembershipReport(
            True, True, precision, W_VERDICTS[True, True],
            f"no p-torsion detected at precision {precision}; torsion above "
            f"p^{precision} would be invisible at this precision")
    return WMembershipReport(
        True, False, precision, W_VERDICTS[True, False],
        "truncation basis contains an element of additive order below "
        f"p^{precision}: exact p-torsion witnessed")
