"""Theorem-level checks: the finite-etale necessary condition, order lower
bounds from distinct homomorphisms, and cross-checks against known examples.

These are one-sided procedures: a FAIL comes with a machine-checkable
certificate, while a PASS only says the necessary condition holds — it never
certifies that a ring actually occurs as a universal deformation ring.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Dict, List, Sequence, Tuple

from .errors import InternalInconsistencyError
from .groups import FiniteGroup, abelianization, p_part
from .local_ring import (DEFAULT_DEGREE_CAP, DEFAULT_ELEMENT_CAP, DEFAULT_MAP_CAP,
                         FiniteLocalRing, RingElement, maximal_ideal, quotient_ring,
                         ring_from_truncated_presentation, scale_ideal)
from .polys import Poly
from .presentations import IntegerPolynomialPresentation
from .presented import EtaleReport, etale_check, q_fiber, verify_presented_hom
from .representation import Lift, Representation, def_set, maranda_decide, order_ideal

INTERPRET_FAIL = "NOT a universal deformation ring (nor a quotient-class member)"
INTERPRET_PASS = "necessary condition satisfied - universality unknown"


@dataclass
class NecessaryConditionVerdict:
    report: EtaleReport
    interpretation: str
    claim: str

    def as_dict(self) -> Dict:
        return {
            "etale_report": self.report.as_dict(),
            "interpretation": self.interpretation,
            "claim": self.claim,
        }


def necessary_condition(pres: IntegerPolynomialPresentation) -> NecessaryConditionVerdict:
    """One-sided decision: a universal deformation ring must have finite etale
    rational fiber; failure excludes the ring, success decides nothing more."""
    rep = etale_check(pres)
    interp = INTERPRET_PASS if rep.verdict == "PASS" else INTERPRET_FAIL
    return NecessaryConditionVerdict(
        rep, interp,
        claim="a universal deformation ring has finite etale rational fiber")


# -- the order lower bound -----------------------------------------------------------------


@dataclass
class OrderBoundResult:
    level: int  # maximal r with f1 - f2 in p^r * m on all generators, f1 != f2
    p: int
    claim_divisor: int  # p^(level+1)
    claim: str
    precisions_certified: Tuple[int, int]

    def as_dict(self) -> Dict:
        return {
            "level": self.level,
            "p": self.p,
            "claim_divisor": self.claim_divisor,
            "claim": self.claim,
            "precisions_certified": list(self.precisions_certified),
        }


class OrderBoundError(ValueError):
    pass


def _eval_poly_in_ring(ring: FiniteLocalRing, f: Poly) -> RingElement:
    """Evaluate an integer polynomial at the ring's designated generators."""
    out = ring.zero
    for mo, c in f.nums.items():
        term = ring.from_int(c)
        for g, e in zip(ring.generators, mo):
            if e:
                term = term * (g ** e)
        out = out + term
    return out


def _membership_level(ring: FiniteLocalRing, diffs: Sequence[RingElement],
                      max_level: int) -> int:
    """Maximal r <= max_level with every diff in p^r * m."""
    m = maximal_ideal(ring)
    p = ring.base.p
    level = -1
    for r in range(max_level + 1):
        ideal = scale_ideal(p ** r, m)
        if all(ideal.contains(d) for d in diffs):
            level = r
        else:
            break
    return level


def order_lower_bound(pres: IntegerPolynomialPresentation,
                      f1_images: Sequence[Poly], f2_images: Sequence[Poly],
                      degree_cap: int = DEFAULT_DEGREE_CAP) -> OrderBoundResult:
    """Lower bound on the order of any group realizing the ring universally.

    Two distinct endomorphisms agreeing to depth p^r * m force p^(r+1) to
    divide the group order.  The congruence level is decided by exact ideal
    membership on truncations, certified at two consecutive precisions (the
    maximal ideal contains p, so level-r membership is stable once the
    precision exceeds r + 1).
    """
    p = pres.p
    if list(f1_images) == list(f2_images):
        raise OrderBoundError("the two homomorphisms are identical")
    # verify both maps and their distinctness on the rational fiber
    for imgs in (f1_images, f2_images):
        if not verify_presented_hom(pres, pres, imgs):
            raise OrderBoundError("images do not define an endomorphism")
    A = q_fiber(pres)
    distinct_on_fiber = any(
        A.normal_form(a - b).is_zero() is False for a, b in zip(f1_images, f2_images))

    def level_at(precision: int) -> int:
        R = ring_from_truncated_presentation(pres, precision, degree_cap=degree_cap)
        if any(c != precision for c in R.orders):
            raise OrderBoundError(
                "the ring has p-torsion at this precision; the bound's "
                "torsion-freeness hypothesis fails")
        diffs = []
        for a, b in zip(f1_images, f2_images):
            diffs.append(_eval_poly_in_ring(R, a) - _eval_poly_in_ring(R, b))
        if all(d.is_zero() for d in diffs):
            raise OrderBoundError(
                f"maps coincide at precision {precision}; raise the precision")
        return _membership_level(R, diffs, precision - 2)

    if not distinct_on_fiber:
        raise OrderBoundError("maps agree on the rational fiber; no bound")
    precision = 4
    while True:
        lvl = level_at(precision)
        if lvl <= precision - 3:
            lvl2 = level_at(precision + 1)
            if lvl2 != lvl:
                raise InternalInconsistencyError(
                    f"membership level unstable across precisions "
                    f"({lvl} vs {lvl2}); bug")
            return OrderBoundResult(
                level=lvl, p=p, claim_divisor=p ** (lvl + 1),
                claim=f"{p ** (lvl + 1)} | |G| for any finite group G "
                      "realizing this ring as a universal deformation ring",
                precisions_certified=(precision, precision + 1))
        precision += 1
        if precision > 16:
            raise OrderBoundError("congruence level exceeds the supported depth")


# -- representability cross-checks ------------------------------------------------------------


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
    ds = def_set(rhobar, ring, cap_maps, cap_elements)
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
                           cap_elements: int = DEFAULT_ELEMENT_CAP,
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
    ds_bar = def_set(rhobar, surj.target, cap_maps, cap_elements)
    pairs = list(combinations(lifts, 2))
    for l1, l2 in pairs:
        maranda_decide(l1, l2, cap_elements, surj)
    return FinitenessBoundReport(bound=ds_bar.class_count, p_exponent=r,
                                 pairs_checked=len(pairs))
