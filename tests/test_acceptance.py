"""Acceptance gate: one test per criterion, each printing a single verdict line.

Run as `pytest -v -s tests/test_acceptance.py` to see the per-criterion lines.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from defring.groups import cyclic, direct_product, quaternion8, symmetric
from defring.local_ring import (build_galois_ring, ideal_span, identity_hom,
                                maximal_ideal, ring_from_truncated_presentation)
from defring.matrices import Matrix
from defring.polys import Poly, parse_poly
from defring.presentations import IntegerPolynomialPresentation, r_alpha_presentation
from defring.presented import (etale_check, omega_rank, q_fiber, trace_form)
from defring.representation import (Lift, Representation, def_set, kernel_group,
                                    maranda_average, maranda_decide,
                                    trivial_residual_rep)
from defring.udr import one_dim_udr_crosscheck, order_lower_bound

from oracles import (hom_family, hom_vs_derivation, is_invertible, square_zero_extension,
                     tangent_space)


def _pres(p, names, rels, r=1):
    return IntegerPolynomialPresentation.parse(p, names, rels, r)


def _verdict(n: int, ok: bool, detail: str = "") -> None:
    tail = f"  ({detail})" if detail else ""
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"acceptance criterion {n} failed: {detail}"


# -- 1: etale vector suite ---------------------------------------------------


def test_acceptance_1_etale_vectors():
    vectors = [
        (_pres(2, ["X"], ["X^2"]), "FAIL_NOT_REDUCED"),
        (_pres(2, ["X"], []), "FAIL_NOT_FINITE"),
        (_pres(2, ["X"], ["X^2 - 1"]), "PASS"),
        (_pres(2, ["X"], ["X^4 - 1"]), "PASS"),
        (_pres(3, ["X"], ["X^3 - 1"]), "PASS"),
        (_pres(5, ["X"], ["X^2 - 5"]), "PASS"),
        (_pres(2, ["X"], ["X^2 - 2*X"]), "PASS"),
        (_pres(2, ["X"], ["X^2 - 4*X"]), "PASS"),
        (_pres(5, ["X"], ["X^2 - 5*X"]), "PASS"),
        (_pres(2, ["X"], ["X^2", "2*X"]), "PASS"),
        (_pres(2, ["X"], ["X^2", "4*X"]), "PASS"),
    ]
    ok = True
    for pres, expected in vectors:
        if etale_check(pres).verdict != expected:
            ok = False
    for alpha in (0, 1, 2):
        rep = etale_check(r_alpha_presentation(alpha, 2))
        if rep.verdict != "FAIL_NOT_REDUCED" or rep.witness is None:
            ok = False
    _verdict(1, ok, f"{len(vectors)} fixed vectors + R_alpha family")


# -- 2: dual-route cross-validation ------------------------------------------


def _random_finite_presentation(rng: random.Random):
    p = rng.choice([2, 3, 5])
    t = rng.randint(1, 2)
    names = ["X", "Y"][:t]
    rels = []
    for nm in names:
        a = rng.randint(1, 4)
        extra = []
        for _ in range(rng.randint(0, 2)):
            mono = "*".join(f"{n}^{rng.randint(0, 2)}" for n in names)
            extra.append(f"{rng.choice([-3, -2, -1, 1, 2, 3])}*{mono}")
        tail = (" + " + " + ".join(extra)) if extra else ""
        rels.append(f"{nm}^{a}{tail}")
    pres = _pres(p, names, rels)
    A = q_fiber(pres)
    if A is None or A.dim == 0:
        return _random_finite_presentation(rng)
    return pres, A


def _univariate_squarefree(coeffs):
    """gcd(f, f') degree-0 test by the Euclidean algorithm over Q."""
    def poly_gcd(u, v):
        u, v = list(u), list(v)
        while any(v):
            while v and v[-1] == 0:
                v.pop()
            if not v:
                break
            while len(u) >= len(v) and any(u):
                while u and u[-1] == 0:
                    u.pop()
                if len(u) < len(v):
                    break
                c = Fraction(u[-1], v[-1])
                for k in range(len(v)):
                    u[len(u) - len(v) + k] -= c * v[k]
                u.pop()
            u, v = v, u
        while u and u[-1] == 0:
            u.pop()
        return u
    fc = [Fraction(c) for c in coeffs]
    fp = [i * c for i, c in enumerate(fc)][1:]
    return len(poly_gcd(fc, fp)) == 1


def test_acceptance_2_dual_route_cross_validation():
    rng = random.Random(20260824)
    checked, ok = 0, True
    for _ in range(55):
        pres, A = _random_finite_presentation(rng)
        etale_check(pres)  # raises InternalInconsistencyError on disagreement
        det = trace_form(A)
        if (det != 0) != (omega_rank(pres, A) == 0):
            ok = False
        checked += 1
    gcd_checked = 0
    for _ in range(40):
        coeffs = [rng.randint(-4, 4) for _ in range(rng.randint(1, 4))] + [1]
        f = Poly(1, {(i,): Fraction(c) for i, c in enumerate(coeffs) if c})
        pres = IntegerPolynomialPresentation(2, ("X",), (f,), 1)
        A = q_fiber(pres)
        if A is None or A.dim == 0:
            continue
        det = trace_form(A)
        if (det != 0) != _univariate_squarefree(coeffs):
            ok = False
        gcd_checked += 1
    _verdict(2, ok and checked >= 50 and gcd_checked >= 20,
             f"{checked} random presentations, {gcd_checked} gcd cross-checks")


# -- 3: unique deformation for p coprime to |G| ------------------------------


def test_acceptance_3_unique_deformation():
    # The stated hypothesis is p not dividing |G|; only combinations satisfying
    # it are testable (see the repo notes for the excluded S3/p=2 pairing).
    f2_eps = ring_from_truncated_presentation(_pres(2, ["e"], ["e^2"]), 1)
    combos = [
        (cyclic(3), build_galois_ring(2, 2, 1)),
        (cyclic(3), build_galois_ring(2, 3, 1)),
        (cyclic(3), f2_eps),
        (cyclic(2), build_galois_ring(3, 2, 1)),
    ]
    ok = True
    tried = 0
    for G, R in combos:
        for n in (1, 2):
            rhobar = trivial_residual_rep(G, R, n=n)
            ds = def_set(rhobar, R, 10 ** 7)
            if ds.class_count != 1:
                ok = False
            tried += 1
    _verdict(3, ok, f"{tried} (G, R, n) combinations, all |Def| = 1")


# -- 4: one-dimensional UDR cross-check --------------------------------------


def test_acceptance_4_one_dim_crosscheck():
    k3 = build_galois_ring(3, 1, 1)
    G_s3 = symmetric(3)
    from defring.representation import residual_rep
    sign_bar = residual_rep(G_s3, k3, [Matrix(k3, [[k3.from_int(2)]]),
                                       Matrix(k3, [[k3.from_int(1)]])])
    cases = [
        (cyclic(2), trivial_residual_rep(cyclic(2), build_galois_ring(2, 2, 1)),
         build_galois_ring(2, 2, 1), 2),
        (cyclic(2), trivial_residual_rep(cyclic(2), build_galois_ring(2, 3, 1)),
         build_galois_ring(2, 3, 1), 4),
        (cyclic(3), trivial_residual_rep(cyclic(3), build_galois_ring(3, 2, 1)),
         build_galois_ring(3, 2, 1), 3),
        (cyclic(4), trivial_residual_rep(cyclic(4), build_galois_ring(2, 3, 1)),
         build_galois_ring(2, 3, 1), 4),
        (G_s3, sign_bar, build_galois_ring(3, 2, 1), 1),
    ]
    ok = True
    for G, rhobar, R, expected in cases:
        rep = one_dim_udr_crosscheck(G, rhobar, R)
        if not (rep.agree and rep.computed == expected):
            ok = False
    _verdict(4, ok, "predicted == computed on all 5 vectors")


# -- 5: Maranda round-trip ---------------------------------------------------


def _zmod_prec(p, m):
    return ring_from_truncated_presentation(_pres(p, [], []), m, mode="precision")


def _random_kernel_matrix(rng, ring, n, m_elems):
    K = Matrix.identity(ring, n)
    rows = [[K.rows[i][j] + m_elems[rng.randrange(len(m_elems))]
             for j in range(n)] for i in range(n)]
    return Matrix(ring, rows)


def _j_perturbation(rng, ring, n, j_elems):
    rows = [[j_elems[rng.randrange(len(j_elems))] for _ in range(n)]
            for _ in range(n)]
    return Matrix(ring, rows)


def test_acceptance_5_maranda_round_trip():
    rng = random.Random(5)
    round_trips = 0
    ok = True

    settings = []
    R2 = _zmod_prec(2, 5)  # C2: r = 1, N = 5
    settings.append((cyclic(2), R2, 1, [Matrix(R2, [[R2.from_int(31)]])]))
    settings.append((cyclic(2), R2, 2, [Matrix(R2, [
        [R2.from_int(31), R2.zero], [R2.zero, R2.from_int(1)]])]))
    R4 = _zmod_prec(2, 6)  # C4: r = 2, N = 6
    settings.append((cyclic(4), R4, 2, [Matrix(R4, [
        [R4.zero, R4.from_int(63)], [R4.from_int(1), R4.zero]])]))

    for G, R, n, gen_mats in settings:
        rho = Representation.from_generator_images(G, R, gen_mats)
        m_elems = maximal_ideal(R).enumerate_elements(10 ** 5)
        from defring.representation import order_ideal
        j_elems = order_ideal(R, G).enumerate_elements(10 ** 5)
        r = 1 if G.n == 2 else 2
        for _ in range(35):
            K = _random_kernel_matrix(rng, R, n, m_elems)
            if not is_invertible(K):
                continue
            rho2 = rho.conjugate(K)
            # rho2 = K rho K^{-1}, so K^{-1} intertwines: rho K^{-1} = K^{-1} rho2
            A = K.inverse() + _j_perturbation(rng, R, n, j_elems)
            cert = maranda_average(rho, rho2, A)
            if cert.precision != R.base.m - r:
                ok = False
            for g in range(G.n):
                if not (rho.matrix(g) * cert.B0).agrees_at(
                        cert.B0 * rho2.matrix(g), cert.precision):
                    ok = False
            round_trips += 1

    # distinct-mod-J pairs must be refused by maranda_decide
    refusals = 0
    G = cyclic(2)
    rhobar1 = trivial_residual_rep(G, R2, n=1)
    genuine = [1, 15, 17, 31]  # the square roots of 1 mod 32
    kernel_mats = [Matrix(R2, [[R2.from_int(c)]])
                   for c in (1, 5, 9, 13, 17, 21, 25, 29)]  # units = 1 mod 4
    pairs = []
    for a in genuine:
        for b in genuine:
            if (a - b) % 4 != 0:
                pairs.append((a, b))
    for _ in range(110):
        a, b = pairs[rng.randrange(len(pairs))]
        Ka = kernel_mats[rng.randrange(len(kernel_mats))]
        Kb = kernel_mats[rng.randrange(len(kernel_mats))]
        la = Lift(Representation.from_generator_images(
            G, R2, [Matrix(R2, [[R2.from_int(a)]])]).conjugate(Ka), rhobar1)
        lb = Lift(Representation.from_generator_images(
            G, R2, [Matrix(R2, [[R2.from_int(b)]])]).conjugate(Kb), rhobar1)
        eq, _cert = maranda_decide(la, lb)
        if eq:
            ok = False
        refusals += 1
    _verdict(5, ok and round_trips >= 100 and refusals >= 100,
             f"{round_trips} certificates, {refusals} refusals")


# -- 6: tangent q-power invariant --------------------------------------------


def test_acceptance_6_tangent_q_power():
    groups = [cyclic(2), cyclic(3), direct_product(cyclic(2), cyclic(2)),
              symmetric(3), quaternion8()]
    checked, ok = 0, True
    for G in groups:
        for p in (2, 3):
            k = build_galois_ring(p, 1, 1)
            rhobar = trivial_residual_rep(G, k)
            try:
                ds, t = tangent_space(rhobar)
            except RuntimeError:
                ok = False
                continue
            if ds.class_count != k.size ** t:
                ok = False
            checked += 1
    _verdict(6, ok and checked >= 10, f"{checked} representations, all q-powers")


# -- 7: order-bound reproduction ---------------------------------------------


def test_acceptance_7_order_bound():
    pres = _pres(2, ["T"], ["T^2 + 4"])
    res = order_lower_bound(pres, [parse_poly("T", ["T"])],
                            [parse_poly("-T", ["T"])])
    ok = (res.claim_divisor == 4 and res.level == 1
          and res.precisions_certified[1] == res.precisions_certified[0] + 1)
    _verdict(7, ok, f"claim '{res.claim}' at precisions "
                    f"{res.precisions_certified}")


# -- 8: derivation equivalence -----------------------------------------------


def test_acceptance_8_derivation_equivalence():
    rng = random.Random(8)
    base_rings = [
        ring_from_truncated_presentation(_pres(2, ["X"], ["X^2"]), 2),
        ring_from_truncated_presentation(_pres(2, ["X"], ["X^2"]), 3),
        ring_from_truncated_presentation(_pres(3, ["X"], ["X^2"]), 2),
        build_galois_ring(2, 3, 1),
    ]
    checked, ok = 0, True
    for R in base_rings:
        if R.size > 256:
            continue
        for ann_gens in ([], [R.generators[0]] if R.generators else [],
                         [R.from_int(R.base.p)]):
            ann = ideal_span(R, ann_gens)
            if ann.size == R.size:
                continue
            S, incl, eps_basis = square_zero_extension(R, ann)
            if S.size > 4096:
                continue
            I = ideal_span(S, eps_basis)
            i_elems = I.enumerate_elements(10 ** 5)
            for _ in range(60):
                vals = [i_elems[rng.randrange(len(i_elems))]
                        for _ in range(R.N)]
                g_images = [fi + v for fi, v in zip(incl.basis_images, vals)]
                g_hom, is_deriv = hom_vs_derivation(incl, g_images, I)
                if g_hom != is_deriv:
                    ok = False
                checked += 1

    # the W(k)[eps] family at truncation Z/8: x + eps*y -> x + C*eps*y
    R8 = ring_from_truncated_presentation(_pres(2, ["X"], ["X^2"]), 3)
    ann = ideal_span(R8, [R8.generators[0]])
    S, incl, eps_basis = square_zero_extension(R8, ann)
    d_values = [S.zero, eps_basis[0]]
    homs, distinct = hom_family(incl, d_values,
                                [R8.from_int(c) for c in (1, 3, 5, 7)])
    family_ok = len(homs) == 4 and distinct == 4
    _verdict(8, ok and family_ok and checked >= 200,
             f"{checked} perturbations, family of {distinct} distinct maps")


# -- 9: CLI determinism ------------------------------------------------------


ACCEPTANCE_JOBS = {
    "etale-check": "presentation {\n p = 2\n vars = X\n relations = X^4 - 1\n}\n",
    "necessary-condition": "presentation {\n p = 2\n vars = X\n relations = X^2\n}\n",
    "defcount": "ring {\n p = 2\n precision = 3\n}\ngroup {\n family = cyclic\n param = 2\n}\n",
    "tangent": "ring {\n p = 2\n precision = 1\n}\ngroup {\n family = cyclic\n param = 2\n}\n",
    "maranda-check": ("ring {\n p = 2\n precision = 4\n mode = precision\n}\n"
                      "group {\n family = cyclic\n param = 2\n}\n"
                      "lift1 {\n gen1 = 1\n}\nlift2 {\n gen1 = 9\n}\n"),
    "order-bound": ("presentation {\n p = 2\n vars = T\n relations = T^2 + 4\n}\n"
                    "maps {\n f1 = T\n f2 = -T\n}\n"),
    "hom-count": ("source {\n p = 2\n precision = 2\n vars = e\n relations = e^2\n}\n"
                  "target {\n p = 2\n precision = 2\n vars = e\n relations = e^2\n}\n"),
    "fingerprint": "ring {\n p = 2\n precision = 2\n vars = e\n relations = e^2\n}\n",
    "w-check": "presentation {\n p = 5\n vars = X\n relations = X^2 - 5*X\n}\n",
}


def test_acceptance_9_cli_determinism(tmp_path):
    ok = True
    for command, text in ACCEPTANCE_JOBS.items():
        job = tmp_path / f"{command}.job"
        job.write_text(text)
        outputs = []
        for seed in ("0", "4242"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            proc = subprocess.run(
                [sys.executable, "-m", "defring.cli", command, str(job),
                 "--no-cache"],
                capture_output=True, text=True, env=env)
            if proc.returncode not in (0, 2):
                ok = False
            outputs.append(proc.stdout)
        if outputs[0] != outputs[1] or not outputs[0]:
            ok = False
        if ok:
            json.loads(outputs[0])  # reports must be valid JSON
    _verdict(9, ok, f"{len(ACCEPTANCE_JOBS)} jobs byte-identical across runs")
