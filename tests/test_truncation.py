"""Presented rings from one growing Howell form, and layers read off the
Howell forms of their two ideals, against the routes they replaced.

`truncation_form_from_scratch` is the former degree loop of
`ring_from_truncated_presentation`: a fresh Howell form of all relation
multiples of degree <= d at every degree d.  `layer_basis_greedy` is the
first layer basis: one Howell form per candidate element, kept when the span
grows; it fixes the dimension a `Layer` must have.
"""

from __future__ import annotations

from functools import lru_cache

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import defring.local_ring as local_ring
from defring.errors import DefringError
from defring.galois import GaloisRing
from defring.linalg import HowellForm
from defring.local_ring import (Ideal, Layer, NotFiniteAtCapError, _truncation_form,
                                m_adic_filtration, maximal_ideal, quotient_ring,
                                ring_from_truncated_presentation)
from defring.polys import grlex_key, mono_mul
from defring.presentations import IntegerPolynomialPresentation, r_alpha_presentation
from oracles import fraction_terms, ideal_product
from test_local_ring import ORACLE_RINGS, QUOTIENT_BASES, _element


def truncation_form_from_scratch(pres, W, degree_cap):
    t = pres.nvars

    def monomials_upto(d):
        out = []

        def rec(prefix, left, idx):
            if idx == t - 1:
                out.append(prefix + (left,))
                return
            for e in range(left + 1):
                rec(prefix + (e,), left - e, idx + 1)
        for dd in range(d + 1):
            rec((), dd, 0) if t > 1 else out.append((dd,))
        return sorted(out, key=grlex_key)

    prev_sig = None
    d = max(max((f.degree() for f in pres.relations), default=0), 1)
    while d <= degree_cap:
        cols = list(reversed(monomials_upto(d)))
        col_index = {mo: i for i, mo in enumerate(cols)}
        rows = []
        for f in pres.relations:
            for mu in monomials_upto(d - f.degree()):
                row = [0] * (W.r * len(cols))
                for mo, c in fraction_terms(f).items():
                    j = W.r * col_index[mono_mul(mu, mo)]
                    row[j] = (row[j] + c.numerator) % W.q
                rows.append(row)
        form = local_ring.HowellForm(W, rows, len(cols))
        if not form.live:
            raise local_ring.RingConstructionError(
                "presentation collapses to the zero ring at this precision")
        qorders = form.quotient_orders()
        live_monos = [cols[j] for j in form.live]
        sig = (tuple(live_monos), tuple(qorders[j] for j in form.live))
        if 2 * max(sum(mo) for mo in live_monos) <= d and sig == prev_sig:
            return form, cols
        prev_sig = sig
        d += 1
    raise NotFiniteAtCapError(
        f"monomial basis did not stabilize within degree cap {degree_cap}; "
        "not finite at this cap")


@st.composite
def presentations(draw):
    """Small presentations over p in {2, 3}, r in {1, 2}, in one or two
    variables: mostly a pure power per variable plus noise, whose multiples
    of p give torsion; without the power the loop can run to the cap."""
    p = draw(st.sampled_from([2, 3]))
    names = ["X", "Y"][:draw(st.integers(1, 2))]
    coeff = st.sampled_from([-4, -3, -2, -1, 1, 2, 3, 4, 6, 9])
    exps = st.tuples(*[st.integers(0, 1)] * len(names))
    rels = []
    for nm in names:
        terms = [f"{c}*" + "*".join(f"{n}^{e}" for n, e in zip(names, es))
                 for c, es in draw(st.lists(st.tuples(coeff, exps), max_size=2))]
        if draw(st.integers(0, 4)):
            terms.insert(0, f"{nm}^{draw(st.integers(1, 3))}")
        if terms:
            rels.append(" + ".join(terms))
    rels += draw(st.lists(st.sampled_from([f"{p}*X", f"{p * p}", "X*Y" if len(names) > 1
                                           else "X^4"]), max_size=1))
    assume(rels)
    try:
        return IntegerPolynomialPresentation.parse(p, names, rels,
                                                   draw(st.integers(1, 2)))
    except ValueError:  # the noise cancelled a relation
        assume(False)


def _outcome(build):
    try:
        R = build()
    except (DefringError, ValueError) as exc:
        return type(exc).__name__, str(exc)
    return (R.label, R.orders, R.mul_table, R.basis_monos, R.one.flat,
            tuple(g.flat for g in R.generators), R.residue_coeffs)


def _forms_built(route, pres, W, cap):
    """The forms `route` builds, degree by degree, and its columns or error."""
    forms = []
    real = local_ring.HowellForm

    def recording(*args):
        H = real(*args)
        forms.append((H.pivot_cols, H.pivot_vals, H.rows))
        return H

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(local_ring, "HowellForm", recording)
        try:
            outcome = route(pres, W, cap)[1]
        except (DefringError, ValueError) as exc:
            outcome = type(exc).__name__, str(exc)
    return forms, outcome


@settings(max_examples=150, deadline=None)
@given(presentations(), st.integers(1, 4), st.integers(4, 10))
def test_grown_truncation_matches_from_scratch_oracle(pres, m, cap):
    # the form at every degree, row for row, also on the way to the cap ...
    W = GaloisRing(pres.p, m, pres.r)
    assert _forms_built(_truncation_form, pres, W, cap) == \
        _forms_built(truncation_form_from_scratch, pres, W, cap)
    # ... and the whole ring
    build = lambda: ring_from_truncated_presentation(pres, m, degree_cap=cap)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(local_ring, "_truncation_form", truncation_form_from_scratch)
        oracle = _outcome(build)
    assert _outcome(build) == oracle


def test_truncation_hands_the_forms_only_the_new_multiples(monkeypatch):
    # r_alpha(1) at m = 1 stabilizes at degree 8; built from scratch, the
    # forms got all 12, 30, 56 and 90 multiples of degree <= 5, ..., 8
    seen = []
    real = local_ring.HowellForm

    def counting(W, rows, ncols, ambient_orders=None):
        if ambient_orders is None:  # the truncation's forms, not the ring's ideals
            seen.append(len(rows))
        return real(W, rows, ncols, ambient_orders)

    monkeypatch.setattr(local_ring, "HowellForm", counting)
    R = ring_from_truncated_presentation(r_alpha_presentation(1, 2), 1)
    assert seen == [12, 26, 41, 57]
    assert R.N == 13


# -- layer bases -----------------------------------------------------------------


def layer_basis_greedy(upper, lower):
    ring = upper.ring
    rows = [x.flat for x in lower.module_basis]
    size = lower.size
    basis = []
    for b in upper.module_basis:
        grown = HowellForm(ring.base, rows + [b.flat], ring.N, ring.orders).size
        if grown > size:
            basis.append(b)
            rows.append(b.flat)
            size = grown
    assert size == upper.size
    return basis


# rings in which a Howell row of m^i, at a column where m^(i+1) has the same
# pivot, is not in m^(i+1), so the coordinates must reduce by m^(i+1)'s rows
SHIFTED_RINGS = {
    "F3[X]/(X^3-2)": lambda: ring_from_truncated_presentation(
        IntegerPolynomialPresentation.parse(3, ["X"], ["X^3 - 2"]), 1),
    "GR(4,2)[X]/(X^2+1)": lambda: ring_from_truncated_presentation(
        IntegerPolynomialPresentation.parse(2, ["X"], ["X^2 + 1"], 2), 2),
}
LAYER_RINGS = {**ORACLE_RINGS, **SHIFTED_RINGS}


@lru_cache(maxsize=None)
def _layer_ring(name):
    R = LAYER_RINGS[name]()
    return R, m_adic_filtration(R)


def _check_layer(upper, lower, draw):
    # the exact contract of a layer: lower's rows and the basis span upper,
    # the basis has the dimension of the greedy one, and `coords` reads back
    # the k-coordinates of sum_j s(c_j) b_j + y for y in lower
    R = upper.ring
    W, k = R.base, R.residue_field
    layer = Layer(upper, lower)
    rows = [list(r) for r in lower.form.rows] + [b.flat for b in layer.basis]
    assert HowellForm(W, rows, R.N, R.orders).rows == upper.form.rows
    assert len(layer.basis) == len(layer_basis_greedy(upper, lower))
    elt = st.tuples(*[st.integers(0, k.q - 1)] * k.r)
    c = [draw(elt) for _ in layer.basis]
    x = R.zero
    for g in lower.module_basis:
        x = x + _element(R, draw) * g
    for cj, mult in zip(c, layer.multiples):
        x = x + mult[cj]
    assert layer.coords(x.flat) == c


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(sorted(LAYER_RINGS)) | presentations(), st.booleans(), st.data())
def test_layer_basis_matches_greedy_oracle(source, quotient, data):
    # layers of the m-adic filtration, and I / I*m for a random ideal I (the
    # layer is a k-vector space as soon as p*I lies below), in the oracle
    # rings, in their quotients by random ideals and in random presentations
    # (r = 1 and 2)
    if isinstance(source, str):
        R, filtration = _layer_ring(source)
    else:
        try:
            R = ring_from_truncated_presentation(source, data.draw(st.integers(1, 3)),
                                                 degree_cap=8)
        except (DefringError, ValueError):
            assume(False)
        filtration = m_adic_filtration(R)
    if quotient and source in QUOTIENT_BASES:
        gens = [_element(R, data.draw) for _ in range(data.draw(st.integers(1, 2)))]
        R = quotient_ring(R, Ideal(R, [g for g in gens if not g.is_unit()]
                                        or [R.zero])).target
        filtration = m_adic_filtration(R)
    if data.draw(st.booleans()) and len(filtration) > 1:
        i = data.draw(st.integers(0, len(filtration) - 2))
        upper, lower = filtration[i], filtration[i + 1]
    else:
        gens = [_element(R, data.draw) for _ in range(data.draw(st.integers(1, 2)))]
        upper = Ideal(R, [g for g in gens if not g.is_unit()] or [R.zero])
        lower = ideal_product(upper, maximal_ideal(R))
    _check_layer(upper, lower, data.draw)


@pytest.mark.parametrize("name", sorted(SHIFTED_RINGS))
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_layer_basis_on_rings_with_shifted_rows(name, data):
    R, filtration = _layer_ring(name)
    shifted = 0
    for upper, lower in zip(filtration, filtration[1:]):
        for j, g in zip(upper.form.pivot_cols, upper.form.rows):
            if lower.form.pivot_vals.get(j, R.orders[j]) == upper.form.pivot_vals[j]:
                shifted += not lower.form.contains(g)
        _check_layer(upper, lower, data.draw)
    assert shifted
