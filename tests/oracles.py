"""Brute-force routes that the library replaced, kept as the tests' oracles,
and checks that only tests ask for.

`tangent_space` enumerates the deformation classes over k[eps], which
`tangent_dimension` solves for by linear algebra over k; `ideal_product`
spans all products of two module bases, which `m_adic_filtration` builds
from the generators of m.
"""

from __future__ import annotations

from typing import Tuple

from defring.errors import InternalInconsistencyError
from defring.local_ring import (DEFAULT_MAP_CAP, Ideal, NonUnitError,
                                ring_from_truncated_presentation)
from defring.matrices import Matrix
from defring.presentations import IntegerPolynomialPresentation
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
