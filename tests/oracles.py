"""Brute-force routes that the library replaced, kept as the tests' oracles,
and checks that only tests ask for.

`tangent_space` enumerates the deformation classes over k[eps], which
`tangent_dimension` solves for by linear algebra over k; `ideal_product`
spans all products of two module bases, which `m_adic_filtration` builds
from the generators of m; `buchberger_gebauer_moeller` is the S-pair loop
with the Gebauer–Möller criteria that `polys.buchberger`'s signature loop
replaced.  `fraction_terms`, `scale`, `mul_term` and `fiber_coords` are
the Fraction views and multiples that `Poly` and `QFiberAlgebra` no longer
offer, and `render_by_fractions` and `max_coeff_bits_by_fractions` the
former `Poly.render` and `Poly.max_coeff_bits`, which read those views.
`derivation_check`, `hom_vs_derivation`, `square_zero_extension` and
`hom_family` check the homomorphism-derivation correspondence over
square-zero extensions for the acceptance suite; `derivation_check` tests
Leibniz on all basis pairs, a route of its own to the linearization that
`hom_enumerate` solves.

`one_dim_udr_crosscheck` lists every element of R to count the points of
the truncated multiplicative groups that the abelianization predicts, and
compares them with `def_set`'s class count; `abelianization` and
`commutator_subgroup` give it the invariant factors of G/[G,G].
`finiteness_bound_check` bounds |Def(R)| by |Def(R/J)| and decides every
pair of the given lifts by `maranda_decide`.  `unique_deformation_check`
tests that one class remains when p does not divide |G|.
`normalize_intertwiner` factors an exact intertwiner with scalar reduction
as a unit times one in I_n + M_n(m_R).  `is_zero_divisor` is the rank test
on the multiplication map that `exact_divide` runs before it divides.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush
from itertools import combinations
from operator import le
from typing import Dict, Iterable, List, Sequence, Tuple

import defring.polys as polys
from defring.errors import InternalInconsistencyError
from defring.groups import FiniteGroup, greedy_generators, p_part
from defring.local_ring import (DEFAULT_ELEMENT_CAP, DEFAULT_MAP_CAP, FiniteLocalRing,
                                Ideal, NonUnitError, RingElement, RingHom,
                                _mult_map_solver, quotient_ring,
                                ring_from_truncated_presentation)
from defring.matrices import Matrix
from defring.polys import Monomial, Poly, grevlex_key, mono_divides, mono_lcm, mono_mul
from defring.presentations import IntegerPolynomialPresentation
from defring.presented import QFiberAlgebra
from defring.representation import (DefSet, Lift, Representation, def_set,
                                    maranda_decide, order_ideal)


def tangent_space(rhobar: Representation,
                  cap_maps: int = DEFAULT_MAP_CAP) -> Tuple[DefSet, int]:
    """Deformation classes over k[eps]; the count must be a power of q = |k|."""
    k = rhobar.ring
    pres = IntegerPolynomialPresentation.parse(k.base.p, ["e"], ["e^2"], r=k.base.r)
    keps = ring_from_truncated_presentation(pres, 1, h=k.base.h)
    ds = def_set(rhobar, keps, cap_maps)
    q, count = k.residue_field.size, ds.class_count
    t, c = 0, count
    while c % q == 0:
        c //= q
        t += 1
    if c != 1:
        raise InternalInconsistencyError(
            f"tangent count {count} is not a power of q={q}; implementation bug")
    return ds, t


def ideal_product(I: Ideal, J: Ideal) -> Ideal:
    """I*J, the W-span of the products of the two module bases: a sum of
    products xy with x in I, y in J expands into them, and the span is
    already an ideal, since r(ab) = (ra)b with ra in I."""
    gens = [a * b for a in I.module_basis for b in J.module_basis]
    return Ideal._module_span(I.ring, gens)


def is_invertible(M: Matrix) -> bool:
    try:
        M.inverse()
        return True
    except NonUnitError:
        return False


def fraction_terms(f: Poly) -> Dict[Monomial, Fraction]:
    """The coefficients of f in lowest terms, in the order of `nums`."""
    return {m: Fraction(c, f.den) for m, c in f.nums.items()}


def mul_term(f: Poly, mono: Monomial, c) -> Poly:
    """c * mono * f, for anything `Fraction` accepts as c."""
    c = Fraction(c)
    if not c:
        return Poly(f.nvars)
    return Poly.from_z(f.nvars, f.den * c.denominator,
                       {mono_mul(m, mono): v * c.numerator for m, v in f.nums.items()})


def scale(f: Poly, c) -> Poly:
    return mul_term(f, (0,) * f.nvars, c)


def fiber_coords(A: QFiberAlgebra, f: Poly) -> Dict[int, Fraction]:
    """The nonzero coordinates of the normal form of f on A's basis."""
    return {A._pos[mo]: c for mo, c in fraction_terms(A.normal_form(f)).items()}


def max_coeff_bits_by_fractions(f: Poly) -> int:
    bits = 0
    for c in fraction_terms(f).values():
        bits = max(bits, c.numerator.bit_length(), c.denominator.bit_length())
    return bits


def render_by_fractions(f: Poly, names: Sequence[str]) -> str:
    if f.is_zero():
        return "0"
    parts = []
    for m, c in sorted(fraction_terms(f).items(), key=lambda t: grevlex_key(t[0]),
                       reverse=True):
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


def buchberger_gebauer_moeller(gens: Iterable[Poly], bit_cap: int = 4096) -> List[Poly]:
    """Reduced Gröbner basis, monic, sorted by leading monomial (ascending),
    by S-pairs with the Gebauer–Möller criteria.

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
    `bit_cap` bounds every reduction that runs.  Reductions look up
    `polys.s_polynomial` and `polys.normal_form` at call time, so a wrapper
    installed on either name sees every call.
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
        r = polys.normal_form(polys.s_polynomial(basis[i], basis[j]), basis, bit_cap=bit_cap)
        if not r.is_zero():
            r = r.monic()
            basis.append(r)
            lms.append(r.leading_monomial())
            update(len(basis) - 1)
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
    reduced: List[Poly] = []
    for idx, g in enumerate(minimal):
        others = [h for jdx, h in enumerate(minimal) if jdx != idx]
        r = polys.normal_form(g, others, bit_cap=bit_cap)
        if not r.is_zero():
            reduced.append(r.monic())
    reduced.sort(key=lambda g: grevlex_key(g.leading_monomial()))
    return reduced


def _check_square_zero(ideal: Ideal) -> None:
    if not all((a * b).is_zero() for a in ideal.module_basis for b in ideal.module_basis):
        raise ValueError("ideal is not square-zero")


def derivation_check(f: RingHom, ideal: Ideal,
                     values: Sequence[RingElement]) -> bool:
    """Is the base-linear map D (given on the source basis) an f-derivation into I?

    Leibniz: D(xy) = f(x) D(y) + D(x) f(y), checked on all basis pairs; the
    square-zero hypothesis on the ideal is verified, not assumed.
    """
    S, T = f.source, f.target
    if ideal.ring is not T:
        raise ValueError("ideal must live in the target ring")
    _check_square_zero(ideal)
    if not all(ideal.contains(v) for v in values):
        return False
    D = RingHom(S, T, values).apply  # base-linear, given on the basis
    basis = S.basis
    return all(D(basis[i] * basis[j]) == f.apply(basis[i]) * values[j]
               + values[i] * f.apply(basis[j]) for i in range(S.N) for j in range(i, S.N))


def hom_vs_derivation(f: RingHom, g_images: Sequence[RingElement],
                      ideal: Ideal) -> Tuple[bool, bool]:
    """(g is a homomorphism, g - f is a derivation) for g congruent to f mod I.

    The two booleans must agree whenever the congruence precondition holds;
    any disagreement is an implementation bug caught by the property tests.
    """
    _check_square_zero(ideal)
    diffs = [g - fi for g, fi in zip(g_images, f.basis_images)]
    if not all(ideal.contains(d) for d in diffs):
        raise ValueError("g is not congruent to f modulo the ideal")
    return (RingHom(f.source, f.target, g_images).verify(),
            derivation_check(f, ideal, diffs))


def square_zero_extension(ring: FiniteLocalRing, ann: Ideal
                          ) -> Tuple[FiniteLocalRing, RingHom, List[RingElement]]:
    """S = R + eps*(R/ann) with eps^2 = 0; returns (S, inclusion, eps-part basis).

    The module part is the cyclic module R/ann; its canonical coordinate basis
    becomes extra ring basis elements that multiply to zero with each other.
    """
    if ann.ring is not ring:
        raise ValueError("annihilator ideal must live in the base ring")
    W, N, live = ring.base, ring.N, ann.form.live
    NM = len(live)
    qorders = ann.form.quotient_orders()
    orders = list(ring.orders) + [qorders[j] for j in live]

    zeroN = [0] * (N * W.r)
    zeroM = [0] * (NM * W.r)
    # basis vector i of S is e_i of R for i < N and eps * e_live[i - N] after
    idx = list(range(N)) + list(live)
    mul_table = []
    for i in range(N + NM):
        row = []
        for j in range(N + NM):
            if i >= N and j >= N:
                row.append(zeroN + zeroM)
                continue
            prod_r = ring.basis_element(idx[i]) * ring.basis_element(idx[j])
            row.append(list(prod_r.flat) + zeroM if max(i, j) < N
                       else zeroN + ann.form.live_coords(prod_r.flat))
        mul_table.append(row)
    one_coeffs = list(ring.one.flat) + zeroM
    residue_coeffs = list(ring.residue_coeffs) + [ring.residue_field.zero] * NM
    gen_coeffs = [list(g.flat) + zeroM for g in ring.generators]
    names = list(ring.basis_names) + [f"eps*{ring.basis_names[j]}" for j in live]
    S = FiniteLocalRing(
        base=W, orders=orders, mul_table=mul_table, one_coeffs=one_coeffs,
        residue_coeffs=residue_coeffs, generators=gen_coeffs,
        basis_names=names, basis_monos=None, mode="finite",
        label=f"{ring.label}[+eps*(module of size "
              f"{ring.size // ann.size})]")
    incl = RingHom(ring, S, [RingElement(S, list(ring.basis_element(i).flat) + zeroM)
                             for i in range(N)])
    if not incl.verify():
        raise InternalInconsistencyError("inclusion into the extension is not a ring map")
    eps_basis = [S.basis_element(N + a) for a in range(NM)]
    return S, incl, eps_basis


def hom_family(incl: RingHom, d_values: Sequence[RingElement],
               scalars: Sequence[RingElement]
               ) -> Tuple[List[RingHom], int]:
    """The maps x -> x + C*d(x) for scalars C; each verified as a homomorphism.

    Returns the verified family and the number of pairwise distinct members.
    """
    S = incl.target
    out = []
    for C in scalars:
        cs = RingElement(S, list(C.flat) + [0] * (len(S._mods) - len(C.flat))) \
            if C.ring is incl.source else C
        hom = RingHom(incl.source, S,
                      [fi + cs * d for fi, d in zip(incl.basis_images, d_values)])
        if not hom.verify():
            raise InternalInconsistencyError("family member failed homomorphism verification; bug")
        out.append(hom)
    return out, len({h.key() for h in out})


def commutator_subgroup(G: FiniteGroup) -> frozenset:
    comms = {G.table[G.table[a][b]][G.table[G.inverse[a]][G.inverse[b]]]
             for a in range(G.n) for b in range(G.n)}
    _, closure = greedy_generators(sorted(comms), G.identity, lambda x, s: G.table[x][s])
    return frozenset(closure)


def abelianization(G: FiniteGroup) -> List[int]:
    """Invariant factors d_1 | d_2 | ... of G/[G,G] (trivial group gives [])."""
    H = commutator_subgroup(G)
    # cosets of H, with induced multiplication
    coset_of: Dict[int, int] = {}
    reps: List[int] = []
    for x in range(G.n):
        if x in coset_of:
            continue
        r = len(reps)
        reps.append(x)
        for h in H:
            coset_of[G.table[x][h]] = r
    k = len(reps)
    mul = [[coset_of[G.table[reps[a]][reps[b]]] for b in range(k)] for a in range(k)]
    ident = coset_of[G.identity]

    def order_in_quotient(a: int) -> int:
        e, x = 1, a
        while x != ident:
            x = mul[x][a]
            e += 1
        return e

    orders = [order_in_quotient(a) for a in range(k)]
    # per-prime elementary divisors via counts of elements of order dividing p^j
    factors_by_prime: Dict[int, List[int]] = {}
    size = k
    d = 2
    nn = size
    primes = []
    while d * d <= nn:
        if nn % d == 0:
            primes.append(d)
            while nn % d == 0:
                nn //= d
        d += 1
    if nn > 1:
        primes.append(nn)
    for p in primes:
        counts = [1]  # counts[j] = #{x : x^(p^j) = 1}
        j = 1
        while True:
            Nj = sum(1 for o in orders if p ** j % o == 0)
            counts.append(Nj)
            if Nj == counts[-2]:
                break
            j += 1
        # a[j-1] = number of cyclic p-factors with exponent >= j
        a = []
        for j in range(1, len(counts)):
            ratio = counts[j] // counts[j - 1]
            e = 0
            while ratio > 1:
                ratio //= p
                e += 1
            a.append(e)
        divisors = []
        for j, aj in enumerate(a, start=1):
            nxt = a[j] if j < len(a) else 0
            divisors.extend([p ** j] * (aj - nxt))
        factors_by_prime[p] = sorted(divisors, reverse=True)
    # combine prime-power lists into invariant factors (largest first, then reverse)
    width = max((len(v) for v in factors_by_prime.values()), default=0)
    invariants = []
    for i in range(width):
        f = 1
        for p, lst in factors_by_prime.items():
            if i < len(lst):
                f *= lst[i]
        invariants.append(f)
    return sorted(invariants)


@dataclass
class OneDimCrosscheckReport:
    predicted: int
    computed: int
    agree: bool
    p_part_invariants: List[int]

    def as_dict(self) -> Dict:
        return {
            "predicted": self.predicted,
            "computed": self.computed,
            "agree": self.agree,
            "p_part_invariants": self.p_part_invariants,
        }


def one_dim_udr_crosscheck(G: FiniteGroup, rhobar: Representation,
                           ring: FiniteLocalRing,
                           cap_elements: int = DEFAULT_ELEMENT_CAP,
                           cap_maps: int = DEFAULT_MAP_CAP) -> OneDimCrosscheckReport:
    """One-dimensional deformations against the predicted point count.

    For a rank-1 residual representation the deformation classes over R are
    the R-points of a product of truncated multiplicative groups: one factor
    #{x in R : x^(p^k) = 1} for each p-power invariant factor p^k of the
    abelianization.
    """
    if rhobar.n != 1:
        raise ValueError("crosscheck applies to one-dimensional representations")
    p = ring.base.p
    invariants = abelianization(G)
    p_invs = []
    for d in invariants:
        k = 0
        while d % p == 0:
            d //= p
            k += 1
        if k:
            p_invs.append(p ** k)
    predicted = 1
    elems = ring.enumerate_elements(cap_elements)
    for pk in p_invs:
        predicted *= sum(1 for x in elems if (x ** pk) == ring.one)
    ds = def_set(rhobar, ring, cap_maps)
    return OneDimCrosscheckReport(
        predicted=predicted, computed=ds.class_count,
        agree=predicted == ds.class_count, p_part_invariants=p_invs)


@dataclass
class FinitenessBoundReport:
    bound: int  # |Def(R/J)|, a certified upper bound for |Def(R)|
    p_exponent: int
    pairs_checked: int

    def as_dict(self) -> Dict:
        return {
            "bound": self.bound,
            "p_exponent": self.p_exponent,
            "pairs_checked": self.pairs_checked,
        }


def finiteness_bound_check(rhobar: Representation, ring: FiniteLocalRing,
                           lifts: Sequence[Lift] = (),
                           cap_maps: int = DEFAULT_MAP_CAP) -> FinitenessBoundReport:
    """|Def(R/J)| bounds |Def(R)| because reduction mod J = |G| m_R is injective
    on deformation classes (the averaging argument of `maranda_average`).

    Each pair of supplied lifts is decided by `maranda_decide` over R/J, which
    certifies a positive answer by averaging and raises if that fails.  No
    decision over R itself is compared with it: what "equal over R" means
    at working precision is not settled, so injectivity is argued, not
    tested on the instances.
    """
    G = rhobar.group
    r, _ = p_part(G, ring.base.p)
    surj = quotient_ring(ring, order_ideal(ring, G))
    ds_bar = def_set(rhobar, surj.target, cap_maps)
    pairs = list(combinations(lifts, 2))
    for l1, l2 in pairs:
        maranda_decide(l1, l2, surj)
    return FinitenessBoundReport(bound=ds_bar.class_count, p_exponent=r,
                                 pairs_checked=len(pairs))


def unique_deformation_check(rhobar: Representation, ring: FiniteLocalRing,
                             **caps) -> bool:
    """For p not dividing |G| there is exactly one deformation class."""
    if rhobar.group.n % ring.base.p == 0:
        raise ValueError("the uniqueness statement requires p not dividing |G|")
    return def_set(rhobar, ring, **caps).class_count == 1


def normalize_intertwiner(rho1: Representation, rho2: Representation,
                          B: Matrix) -> Tuple[RingElement, Matrix]:
    """Factor an exact intertwiner with scalar nonzero reduction as B = u * B0.

    Returns the unit u and B0 in I_n + M_n(m_R) with rho1 = B0 rho2 B0^{-1}.
    The scalar-reduction hypothesis is checked, never assumed.
    """
    ring, G = rho1.ring, rho1.group
    for g in G.generators:
        if rho1.matrix(g) * B != B * rho2.matrix(g):
            raise ValueError("B is not an exact intertwiner")
    k, n = ring.residue_field, B.n
    c = ring.reduce_element(B.rows[0][0])
    if c == k.zero:
        raise ValueError("reduction of B is zero on the diagonal; hypothesis violated")
    if any(ring.reduce_element(B.rows[i][j]) != (c if i == j else k.zero)
           for i in range(n) for j in range(n)):
        raise ValueError("reduction of B is not a scalar matrix; hypothesis violated")
    # the corner entry is a unit with the right reduction; factoring it out
    # pins B0's corner to exactly 1
    u = B.rows[0][0]
    B0 = B.scale(ring.invert(u))
    if any(e.is_unit() for row in (B0 - Matrix.identity(ring, n)).rows for e in row):
        raise InternalInconsistencyError("normalization left I_n + M_n(m_R); bug")
    return u, B0


def is_zero_divisor(a: RingElement) -> bool:
    """Rank test on the multiplication-by-a matrix (no enumeration)."""
    return _mult_map_solver(a).has_nonzero_kernel()
