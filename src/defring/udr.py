"""Theorem-level checks: the finite-etale necessary condition and order lower
bounds from distinct homomorphisms.

These are one-sided procedures: a FAIL comes with a machine-checkable
certificate, while a PASS only says the necessary condition holds — it never
certifies that a ring actually occurs as a universal deformation ring.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

from .errors import InternalInconsistencyError
from .local_ring import (DEFAULT_DEGREE_CAP, FiniteLocalRing, RingElement, maximal_ideal,
                         ring_from_truncated_presentation, scale_ideal)
from .polys import Poly
from .presentations import IntegerPolynomialPresentation
from .presented import EtaleReport, etale_check, q_fiber, verify_presented_hom

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
