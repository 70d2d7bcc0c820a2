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
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heappop, heappush
from operator import le
from typing import Dict, Iterable, List, Sequence, Tuple

import defring.polys as polys
from defring.errors import InternalInconsistencyError
from defring.local_ring import (DEFAULT_MAP_CAP, FiniteLocalRing, Ideal, NonUnitError,
                                RingElement, RingHom, ring_from_truncated_presentation)
from defring.matrices import Matrix
from defring.polys import Monomial, Poly, grevlex_key, mono_divides, mono_lcm, mono_mul
from defring.presentations import IntegerPolynomialPresentation
from defring.presented import QFiberAlgebra
from defring.representation import DefSet, Representation, def_set


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

    zeroN = [W.zero] * N
    zeroM = [W.zero] * NM
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
            row.append(prod_r.coefficients() + zeroM if max(i, j) < N
                       else zeroN + ann.form.live_coords(prod_r.coefficients()))
        mul_table.append(row)
    one_coeffs = ring.one.coefficients() + zeroM
    residue_coeffs = list(ring.residue_coeffs) + [ring.residue_field.zero] * NM
    gen_coeffs = [g.coefficients() + zeroM for g in ring.generators]
    names = list(ring.basis_names) + [f"eps*{ring.basis_names[j]}" for j in live]
    S = FiniteLocalRing(
        base=W, orders=orders, mul_table=mul_table, one_coeffs=one_coeffs,
        residue_coeffs=residue_coeffs, generators=gen_coeffs,
        basis_names=names, basis_monos=None, mode="finite",
        label=f"{ring.label}[+eps*(module of size "
              f"{ring.size // ann.size})]")
    incl = RingHom(ring, S, [S.element(ring.basis_element(i).coefficients() + zeroM)
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
        cs = S.element(C.coefficients() + [S.base.zero] * (S.N - incl.source.N)) \
            if C.ring is incl.source else C
        hom = RingHom(incl.source, S,
                      [fi + cs * d for fi, d in zip(incl.basis_images, d_values)])
        if not hom.verify():
            raise InternalInconsistencyError("family member failed homomorphism verification; bug")
        out.append(hom)
    return out, len({h.key() for h in out})
