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

from bisect import bisect
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, product
from math import isqrt, lcm, prod
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .polys import (CoefficientSwellError, IntegralityError, Monomial, Poly,
                    buchberger, grevlex_key, mono_divides, mono_mul, normal_form,
                    primitive)
from .presentations import IntegerPolynomialPresentation
from .errors import InternalInconsistencyError
from .local_ring import (DEFAULT_DEGREE_CAP, DEFAULT_ELEMENT_CAP,
                         NotFiniteAtCapError, ring_from_truncated_presentation)


DEFAULT_VARIABLE_GUARD = 6


def groebner_basis(pres: IntegerPolynomialPresentation) -> List[Poly]:
    """Reduced monic degrevlex Groebner basis of the relation ideal over Q,
    under `buchberger`'s default coefficient cap."""
    if pres.nvars > DEFAULT_VARIABLE_GUARD:
        raise ValueError(
            f"presentations with more than {DEFAULT_VARIABLE_GUARD} variables "
            "are outside the supported desk scale")
    return buchberger(list(pres.relations))


# -- rational linear algebra helpers ---------------------------------------------


def _echelon(mat: Sequence[Sequence[Fraction]]
             ) -> Tuple[List[List[int]], List[int], Fraction]:
    """Fraction-free (Bareiss) forward elimination of a rational matrix.

    Each row is first multiplied by the lcm of its denominators, which keeps
    the rank and the row space and scales the determinant by that lcm; the
    integer rows then go to `_bareiss`.

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
    ech, pivots, det = _bareiss(rows)
    return ech, pivots, Fraction(det, scale)


def _bareiss(rows: List[List[int]]) -> Tuple[List[List[int]], List[int], int]:
    """Fraction-free forward elimination of integer rows, in place.

    The elimination divides exactly by the previous pivot (Bareiss 1968), so
    entries stay minors of the input instead of growing as fractions.
    Returns the nonzero echelon rows, their pivot columns and, for a square
    matrix, its determinant (the signed last pivot), or 0 below full rank.
    """
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
    return rows[:rank], pivots, sign * prev if rank == len(rows) else 0


# The largest prime below 2^30, so that a product of two residues fits in 60 bits.
RANK_PRIME = 1073741789
# Numerators and denominators up to this bound lift uniquely from their
# residues modulo RANK_PRIME, as 2 * bound^2 < RANK_PRIME.
_LIFT_BOUND = isqrt((RANK_PRIME - 1) // 2)


def _rank(rows: List[List[int]]) -> int:
    """Rank over Q of integer rows, certified from their echelon form modulo
    RANK_PRIME; `_bareiss`, when it runs, eliminates them in place.

    Every minor modulo the prime is the reduction of an integer minor, so
    the rank r modulo the prime is at most the rank over Q, and full rank
    there is full rank here.  Below full rank, `_kernel_certified` lifts one
    kernel vector per free column to Z and checks it exactly; if all pass,
    the kernel over Q has dimension at least columns - r, so the rank is r.
    Any failure leaves the rank to `_bareiss`: the prime alone never proves
    a deficiency.
    """
    ech, pivots = _echelon_mod_prime(rows)
    if (len(pivots) == min(len(rows), len(rows[0]) if rows else 0)
            or _kernel_certified(rows, ech, pivots)):
        return len(pivots)
    return len(_bareiss(rows)[1])


def _full_rank_mod_prime(rows: Sequence[Sequence[int]]) -> bool:
    """Whether the rows have rank min(rows, columns) modulo RANK_PRIME."""
    return len(_echelon_mod_prime(rows)[1]) == min(len(rows), len(rows[0]) if rows else 0)


def _echelon_mod_prime(rows: Sequence[Sequence[int]]
                       ) -> Tuple[List[List[int]], List[int]]:
    """Gaussian elimination modulo RANK_PRIME on a copy of integer rows.

    Returns the echelon rows, each scaled to 1 at its pivot and reduced
    modulo the prime from there on, and their pivot columns (the rank
    modulo the prime is their number).  Only the pivot row is reduced
    before a step, and only its nonzero entries update the rows below, so an
    entry there grows by less than RANK_PRIME^2 per step and is reduced when
    its column is searched for a pivot.
    """
    prime = RANK_PRIME
    work = [[x % prime for x in row] for row in rows]
    ncols = len(work[0]) if work else 0
    pivots: List[int] = []
    for col in range(ncols):
        rank = len(pivots)
        if rank == len(work):
            break
        piv = next((i for i in range(rank, len(work)) if work[i][col] % prime), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        top = work[rank]
        inv = pow(top[col], -1, prime)
        top[col:] = [x * inv % prime for x in top[col:]]
        tail = [(j, b) for j, b in enumerate(top[col + 1:], col + 1) if b]
        for row in work[rank + 1:]:
            c = row[col] % prime
            if c:
                for j, b in tail:
                    row[j] -= c * b
        pivots.append(col)
    return work[:len(pivots)], pivots


def _kernel_certified(rows: Sequence[Sequence[int]], ech: Sequence[Sequence[int]],
                      pivots: Sequence[int]) -> bool:
    """Whether one integer vector per free column of the echelon form
    modulo RANK_PRIME proves a kernel over Q of dimension columns - rank.

    The vector of the free column f is 1 at f and 0 at the other free
    columns (so the vectors are independent), and back-substitution modulo
    the prime fills the pivot columns left of f.  Each entry is lifted to a
    fraction with numerator and denominator at most _LIFT_BOUND by the
    half-extended Euclidean algorithm (rational reconstruction), the
    denominators are cleared, and every row times the vector must be 0 over
    Z, summed over the rows' nonzero entries.  False at the first entry
    without a lift or the first nonzero product.
    """
    prime, bound = RANK_PRIME, _LIFT_BOUND
    ncols = len(rows[0])
    columns: List[List[Tuple[int, int]]] = [[] for _ in range(ncols)]
    for i, row in enumerate(rows):
        for j, x in enumerate(row):
            if x:
                columns[j].append((i, x))
    free = sorted(set(range(ncols)) - set(pivots))
    for f in free:
        vec = {f: 1}
        for k in reversed(range(bisect(pivots, f))):
            row = ech[k]
            x = -sum(row[j] * y for j, y in vec.items()) % prime
            if x:
                vec[pivots[k]] = x
        lifted = {}
        for j, x in vec.items():
            r0, r1, s0, s1 = prime, x, 0, 1
            while r1 > bound:
                q = r0 // r1
                r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
            if abs(s1) > bound:
                return False
            lifted[j] = (r1, s1)
        den = lcm(*(d for _, d in lifted.values()))
        acc: Dict[int, int] = {}
        for j, (n, d) in lifted.items():
            y = n * (den // d)
            for i, x in columns[j]:
                acc[i] = acc.get(i, 0) + x * y
        if any(acc.values()):
            return False
    return True


def _kernel_basis(ech: Sequence[Sequence[int]], pivots: Sequence[int],
                  n: int) -> Iterator[List[Fraction]]:
    """Basis of the right kernel of a matrix with n columns, from the echelon
    rows and pivot columns `_echelon` gave for it: one vector per free column.

    Each vector sets its free variable to 1 and the others to 0 and solves
    for the pivot variables by back-substitution, so it is the vector read
    off the reduced row echelon form.
    """
    for free in (j for j in range(n) if j not in pivots):
        vec = [Fraction(0)] * n
        vec[free] = Fraction(1)
        for row, pc in reversed(list(zip(ech, pivots))):
            vec[pc] = -sum((row[j] * vec[j] for j in range(pc + 1, n)),
                           Fraction(0)) / row[pc]
        yield vec


# -- the rational fiber -------------------------------------------------------------


# Integer coordinates (D, {position: numerator}): the coordinates on the
# standard-monomial basis of one element of the fiber, numerator / D each.
IntCoords = Tuple[int, Dict[int, int]]


@dataclass
class QFiberAlgebra:
    """Q[X]/(relations) with a standard-monomial basis and exact rational tables.

    The multiplication table is held over Z, one denominator per row, and
    read by index pair from `_mult`.
    `trace_form` fills `_trace` and keeps the echelon rows and pivot columns
    of the Gram matrix in `_gram_echelon`, which `nilpotent_witness` reads.
    """

    pres: IntegerPolynomialPresentation
    gb: List[Poly]
    basis: List[Monomial]
    _nf: Dict[Monomial, IntCoords] = field(default_factory=dict)
    _mult: Dict[Tuple[int, int], IntCoords] = field(default_factory=dict)
    _trace: Optional[Tuple[List[List[Fraction]], Fraction]] = None
    _gram_echelon: Optional[Tuple[List[List[int]], List[int]]] = None

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

    def int_coords(self, f: Poly) -> IntCoords:
        """The coordinates of the normal form of f, as integer numerators
        over its denominator, without content."""
        nf = self.normal_form(f)
        return nf.den, {self._pos[mo]: c for mo, c in nf.nums.items()}

    def element(self, vec: Sequence[Fraction]) -> Poly:
        out = Poly.zero(self.pres.nvars)
        for c, mo in zip(vec, self.basis):
            if c:
                out = out + Poly(self.pres.nvars, {mo: c})
        return out

    def _monomial_coords(self, mo: Monomial) -> IntCoords:
        """Integer coordinates of the normal form of the monomial mo, memoised.

        A basis monomial is read off.  A border monomial (mo / X_v a basis
        monomial for some v) is normal-formed once.  Any other mo is X_v * mo'
        with mo' outside the basis; normal forms are linear and g - NF(g)
        lies in the ideal, so NF(mo) = sum_u NF(mo')_u NF(X_v b_u), where
        each X_v b_u is a basis or a border monomial (standard monomials are
        closed under division).  That sum is taken over Z, over the lcm of
        the rows' denominators, and every row is stored without content.
        """
        pos = self._pos.get(mo)
        if pos is not None:
            return 1, {pos: 1}
        out = self._nf.get(mo)
        if out is None:
            cofactors = [(v, mo[:v] + (e - 1,) + mo[v + 1:])
                         for v, e in enumerate(mo) if e]
            if any(rest in self._pos for _, rest in cofactors):
                out = self.int_coords(Poly.from_monomial(self.pres.nvars, mo))
            else:
                v, rest = cofactors[0]
                den, outer = self._monomial_coords(rest)
                parts = []
                for u, c in outer.items():
                    bu = self.basis[u]
                    parts.append((c, self._monomial_coords(bu[:v] + (bu[v] + 1,) + bu[v + 1:])))
                row_den = lcm(*(d for _, (d, _) in parts))
                acc: Dict[int, int] = {}
                for c, (d, row) in parts:
                    c *= row_den // d
                    for k, x in row.items():
                        acc[k] = acc[k] + c * x if k in acc else c * x
                out = primitive(den * row_den, {k: x for k, x in acc.items() if x})
            self._nf[mo] = out
        return out

    def mult_int_coords(self, i: int, j: int) -> IntCoords:
        """Integer coordinates of b_i * b_j, memoised by the index pair (in
        either order, as b_i * b_j = b_j * b_i)."""
        key = (i, j) if i <= j else (j, i)
        out = self._mult.get(key)
        if out is None:
            out = self._mult[key] = self._monomial_coords(
                mono_mul(self.basis[i], self.basis[j]))
        return out


def q_fiber(pres: IntegerPolynomialPresentation,
            gb: Optional[List[Poly]] = None) -> Optional[QFiberAlgebra]:
    """The finite-dimensional rational fiber, or None if infinite-dimensional.

    `gb` is the basis from `groebner_basis(pres)` when the caller already has it.
    Finiteness criterion: every variable has a pure power among the Groebner
    leading terms (with the zero algebra as the degenerate unit-ideal case).
    The basis is read off the box of exponents below those pure powers, so a
    box of more than `DEFAULT_ELEMENT_CAP` monomials is refused before it is
    listed.
    """
    if gb is None:
        gb = groebner_basis(pres)
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
    box = prod(bounds)
    if box > DEFAULT_ELEMENT_CAP:
        raise ValueError(
            f"a rational fiber with up to {box} basis monomials, more "
            f"than {DEFAULT_ELEMENT_CAP}, is outside the supported desk scale")
    basis = [mo for mo in product(*(range(b) for b in bounds))
             if not any(mono_divides(lm, mo) for lm in lms)]
    basis.sort(key=grevlex_key)
    return QFiberAlgebra(pres, gb, basis)


def trace_form(A: QFiberAlgebra) -> Tuple[List[List[Fraction]], Fraction]:
    """Gram matrix T_ij = trace(mult by b_i*b_j) and its exact determinant.

    The traces of the basis elements are integers over one common
    denominator, so each Gram entry is one integer sum made a Fraction once.
    Computed once per algebra; later calls return the same pair.  The
    echelon form of the Gram matrix is kept for `nilpotent_witness`.
    """
    if A._trace is not None:
        return A._trace
    n = A.dim
    # trace of multiplication by each basis element: the diagonal entries of
    # its rows, over the lcm of their denominators
    diagonals = []
    for u in range(n):
        diag = []
        for l in range(n):
            den, nums = A.mult_int_coords(u, l)
            if l in nums:
                diag.append((den, nums[l]))
        diagonals.append(diag)
    trace_den = lcm(*(den for diag in diagonals for den, _ in diag))
    traces = [sum(x * (trace_den // den) for den, x in diag) for diag in diagonals]
    gram = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            den, nums = A.mult_int_coords(i, j)
            gram[i][j] = gram[j][i] = Fraction(
                sum(x * traces[u] for u, x in nums.items()), den * trace_den)
    ech, pivots, det = _echelon(gram)
    A._trace = gram, det
    A._gram_echelon = ech, pivots
    return A._trace


def omega_rank(pres: IntegerPolynomialPresentation, A: QFiberAlgebra) -> int:
    """dim_Q of the differential module of A over Q, by the Jacobian presentation.

    The module is the cokernel of A^s -> A^t, e_k -> (df_k/dX_1, ..., df_k/dX_t).
    With as many relations as variables (s = t) the map is onto exactly when
    det J is a unit of A, i.e. when the n x n rows of multiplication by det J
    (`_jacobian_det_rows`) have rank n; full rank modulo RANK_PRIME proves
    that, because a minor that is nonzero modulo the prime is nonzero.  The
    determinant costs t * 2^(t-1) polynomial products, so this route is
    tried only up to t = DEFAULT_VARIABLE_GUARD (192 products).  Every other
    case, a deficiency modulo the prime included, ranks the t*n columns of
    the rows `_jacobian_rows` builds over Z (each row's denominator dropped)
    with `_rank`: a rank r modulo the prime is at most the rank over Q, and
    it is the rank over Q once t*n - r kernel vectors, lifted from the
    prime by rational reconstruction, pass an exact product with the rows;
    if any fails, the exact `_bareiss` elimination decides.
    """
    t = pres.nvars
    if t == 0 or A.dim == 0:
        return 0
    if (len(pres.relations) == t <= DEFAULT_VARIABLE_GUARD
            and _full_rank_mod_prime(_jacobian_det_rows(pres, A))):
        return 0
    rows = [row for _den, row in _jacobian_rows(pres, A)]
    return A.dim * t - _rank(rows)


def _det(mat: Sequence[Sequence[Poly]]) -> Poly:
    """The determinant of a nonempty square matrix of polynomials, by Laplace
    expansion along the rows, memoised over column subsets: the minor on the
    first m rows and the columns S is computed once for each S of size m,
    t * 2^(t-1) products for t rows in all."""
    t = len(mat)
    nvars = mat[0][0].nvars
    minors = {(): Poly.constant(nvars, 1)}
    for k, row in enumerate(mat):
        above, minors = minors, {}
        for cols in combinations(range(t), k + 1):
            acc = Poly.zero(nvars)
            for idx, j in enumerate(cols):
                if row[j].nums:
                    term = row[j] * above[cols[:idx] + cols[idx + 1:]]
                    acc = acc - term if (k + idx) % 2 else acc + term
            minors[cols] = acc
    return minors[tuple(range(t))]


def _jacobian_det_rows(pres: IntegerPolynomialPresentation, A: QFiberAlgebra
                       ) -> List[List[int]]:
    """The rows over Z of multiplication by det(df_k/dX_i) on A, for a
    presentation with as many relations as variables, each row's
    denominator dropped."""
    t = pres.nvars
    det = _det([[f.derivative(i) for i in range(t)] for f in pres.relations])
    return [row for _den, row in _multiplication_rows(A, [A.int_coords(det)])]


def _jacobian_rows(pres: IntegerPolynomialPresentation, A: QFiberAlgebra
                   ) -> Iterator[Tuple[int, List[int]]]:
    """The rows of the Jacobian presentation, each as (D, integer numerators):
    for f_k, the rows of multiplication by (df_k/dX_1, ..., df_k/dX_t)."""
    t = pres.nvars
    for f in pres.relations:
        yield from _multiplication_rows(
            A, [A.int_coords(f.derivative(i)) for i in range(t)])


def _multiplication_rows(A: QFiberAlgebra, factors: Sequence[IntCoords]
                         ) -> Iterator[Tuple[int, List[int]]]:
    """For each basis element b_j, the coordinates of (g_1 b_j, ..., g_m b_j)
    for the factors g_i, as (D, integer numerators), one block of n per g_i.

    They are taken from the multiplication table: normal forms are linear
    and g - NF(g) lies in the ideal, so NF(g * b_j) = sum_u NF(g)_u NF(b_u * b_j).
    The sum is taken over Z, over the lcm D of the denominators it adds.
    """
    n = A.dim
    for j in range(n):
        parts = []
        for i, (den, g) in enumerate(factors):
            for u, c in g.items():
                d, table = A.mult_int_coords(u, j)
                parts.append((i * n, c, den * d, table))
        row_den = lcm(*(d for _, _, d, _ in parts))
        row = [0] * (len(factors) * n)
        for offset, c, d, table in parts:
            c *= row_den // d
            for v, x in table.items():
                row[offset + v] += c * x
        yield row_den, row


def nilpotent_witness(A: QFiberAlgebra) -> Tuple[Poly, int]:
    """A nonzero nilpotent element (from the trace-form radical) with its vanishing power."""
    det = trace_form(A)[1]
    if det != 0:
        raise ValueError("algebra is reduced; it has no nonzero nilpotents")
    for vec in _kernel_basis(*A._gram_echelon, A.dim):
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


def etale_check(pres: IntegerPolynomialPresentation) -> EtaleReport:
    """Decide whether the rational fiber is a finite product of field extensions.

    Dual-route reducedness: the trace-form determinant and the Jacobian
    cokernel rank are computed independently and must agree.
    """
    gb = groebner_basis(pres)
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
        if g.den != 1:
            raise ValueError("images must have integer coefficients")
        if g.nums.get((0,) * target.nvars, 0) % p != 0:
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
                       precision: int = 4,
                       degree_cap: int = DEFAULT_DEGREE_CAP) -> WMembershipReport:
    """Is the completed algebra a finitely generated free module over the base?

    The rank condition is exact (rational fiber).  Freedom from p-torsion is
    tested on the truncation at the given precision and is sound only there:
    torsion supported above p^precision would go unseen.  A truncation that
    does not stabilize within `degree_cap` leaves the verdict undecided.
    """
    A = q_fiber(pres)
    if A is None:
        return WMembershipReport(
            False, None, precision, W_VERDICTS[False, None],
            "rational fiber is infinite-dimensional")
    try:
        R = ring_from_truncated_presentation(pres, precision, degree_cap=degree_cap)
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
