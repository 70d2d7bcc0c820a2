from __future__ import annotations

import itertools
import json
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import defring.polys as polys
import defring.presented as presented
from defring.cli import _presentation_from, main, parse_job_blocks
from defring.polys import Poly, mono_mul, parse_poly
from defring.presentations import IntegerPolynomialPresentation, r_alpha_presentation
from defring.presented import (IntegralityObstruction,
                               InternalInconsistencyError, etale_check,
                               nilpotent_witness, omega_rank, q_fiber,
                               trace_form, verify_presented_hom,
                               w_membership_check)
from oracles import buchberger_gebauer_moeller, fiber_coords, fraction_terms, scale
from test_polys import KATSURA3 as KATSURA3_RELATIONS
from test_polys import KATSURA4


def _pres(p, names, rels, r=1):
    return IntegerPolynomialPresentation.parse(p, names, rels, r)


# -- fixed verdict vectors ---------------------------------------------------

VERDICT_VECTORS = [
    (_pres(2, ["X"], ["X^2"]), "FAIL_NOT_REDUCED"),
    (_pres(2, ["X"], []), "FAIL_NOT_FINITE"),
    (_pres(2, ["X"], ["X^2 - 1"]), "PASS"),
    (_pres(2, ["X"], ["X^4 - 1"]), "PASS"),
    (_pres(3, ["X"], ["X^3 - 1"]), "PASS"),
    (_pres(5, ["X"], ["X^2 - 5"]), "PASS"),
    (_pres(2, ["X"], ["X^2 - 2*X"]), "PASS"),
    (_pres(2, ["X"], ["X^2 - 4*X"]), "PASS"),
    (_pres(5, ["X"], ["X^2 - 5*X"]), "PASS"),
    (_pres(2, ["X"], ["X^2", "2*X"]), "PASS"),  # Q-fiber is Q: zero-dim note
]


def _describe(pres) -> str:
    vs = ", ".join(pres.names) if pres.names else "-"
    rs = "; ".join(pres.relation_strings()) or "-"
    return f"p={pres.p}, r={pres.r}, vars=[{vs}], relations=[{rs}]"


@pytest.mark.parametrize("pres,expected", VERDICT_VECTORS,
                         ids=[_describe(p) for p, _ in VERDICT_VECTORS])
def test_etale_verdict_vectors(pres, expected):
    rep = etale_check(pres)
    assert rep.verdict == expected


def test_r_alpha_family_fails_with_witness():
    for alpha in (0, 1, 2):
        pres = r_alpha_presentation(alpha, 2)
        rep = etale_check(pres)
        assert rep.verdict == "FAIL_NOT_REDUCED"
        assert rep.witness is not None
        _elt, power = rep.witness
        assert 2 <= power <= rep.dim


def test_torsion_killed_on_the_fiber():
    # 2X = 0 kills X rationally: the fiber is Q itself
    rep = etale_check(_pres(2, ["X"], ["X^2", "2*X"]))
    assert rep.verdict == "PASS"
    assert rep.dim == 1
    assert rep.groebner == ("X",)


def test_zero_fiber_passes_vacuously():
    rep = etale_check(_pres(2, ["X"], ["X", "X - 2"]))
    assert rep.verdict == "PASS"
    assert rep.dim == 0
    assert rep.note  # the vacuous case carries an explanatory note


def test_report_as_dict_shape():
    d = etale_check(_pres(2, ["X"], ["X^2 - 1"])).as_dict()
    assert set(d) == {"finite_dimensional", "dim", "trace_det", "omega_rank",
                      "reduced", "verdict", "witness", "groebner_basis", "note"}
    d_inf = etale_check(_pres(2, ["X"], [])).as_dict()
    assert d_inf["dim"] == "infinite"


# -- dual-route agreement ----------------------------------------------------


def _random_presentation(rng: random.Random) -> IntegerPolynomialPresentation:
    """Random finite-dimensional presentation: pure powers per variable plus noise."""
    p = rng.choice([2, 3, 5])
    t = rng.randint(1, 2)
    names = ["X", "Y"][:t]
    rels = []
    for i, nm in enumerate(names):
        a = rng.randint(1, 4)
        extra = []
        for _ in range(rng.randint(0, 2)):
            mono = "*".join(f"{n}^{rng.randint(0, 2)}" for n in names)
            extra.append(f"{rng.choice([-3, -2, -1, 1, 2, 3])}*{mono}")
        tail = (" + " + " + ".join(extra)) if extra else ""
        rels.append(f"{nm}^{a}{tail}")
    try:
        pres = _pres(p, names, rels)
    except ValueError:  # the noise cancelled a relation to zero
        return _random_presentation(rng)
    # keep only presentations that actually have a finite, nonzero fiber
    A = q_fiber(pres)
    if A is None or A.dim == 0:
        return _random_presentation(rng)
    return pres


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_buchberger_matches_gebauer_moeller_on_random_presentations(seed):
    # the signature loop's reduced basis is the oracle's, term for term
    relations = _random_presentation(random.Random(seed)).relations
    assert ([list(fraction_terms(g).items()) for g in polys.buchberger(relations)]
            == [list(fraction_terms(g).items()) for g in buchberger_gebauer_moeller(relations)])


def test_trace_and_jacobian_routes_agree_on_random_presentations():
    rng = random.Random(20260824)
    for _ in range(60):
        pres = _random_presentation(rng)
        rep = etale_check(pres)  # raises InternalInconsistencyError on mismatch
        A = q_fiber(pres)
        det = trace_form(A)
        assert (det != 0) == (omega_rank(pres, A) == 0)
        assert rep.reduced == (det != 0)


def test_univariate_gcd_criterion_agrees():
    rng = random.Random(7)
    for _ in range(30):
        coeffs = [rng.randint(-4, 4) for _ in range(rng.randint(1, 4))] + [1]
        f = Poly(1, {(i,): Fraction(c) for i, c in enumerate(coeffs) if c})
        pres = IntegerPolynomialPresentation(2, ("X",), (f,), 1)
        A = q_fiber(pres)
        if A is None or A.dim == 0:
            continue
        det = trace_form(A)
        # Euclidean gcd(f, f') over Q
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
        fprime = [i * c for i, c in enumerate(fc)][1:]
        g = poly_gcd(fc, fprime)
        squarefree = len(g) == 1
        assert (det != 0) == squarefree, (coeffs, det, g)


def test_nilpotent_witness_verifies():
    A = q_fiber(_pres(2, ["X"], ["X^2"]))
    x, e = nilpotent_witness(A)
    assert not x.is_zero()
    power = x
    for _ in range(e - 1):
        power = A.normal_form(power * x)
    assert power.is_zero()


def test_etale_invariant_under_permutation():
    rels = ["X^2 - Y", "Y^2 - 1"]
    a = etale_check(_pres(2, ["X", "Y"], rels))
    b = etale_check(_pres(2, ["Y", "X"], ["Y^2 - X", "X^2 - 1"]))
    c = etale_check(_pres(2, ["X", "Y"], list(reversed(rels))))
    assert a.verdict == b.verdict == c.verdict
    assert a.dim == b.dim == c.dim


def test_quotient_monotonicity_on_pass_presentations():
    # adding a relation to a PASS presentation keeps PASS while the fiber is nonzero
    base = ["X^4 - 1"]
    for extra in ["X^2 - 1", "X - 1", "X^2 + 1"]:
        pres = _pres(2, ["X"], base + [extra])
        A = q_fiber(pres)
        if A is None or A.dim == 0:
            continue
        assert etale_check(pres).verdict == "PASS"


# -- one elimination against the Fraction Gauss-Jordan oracles ----------------
#
# The three eliminations below are the former library routines, kept as
# oracles for `_bareiss` on rational rows scaled to integers, and for the
# back-substitution kernel read off its echelon rows.


def _row_reduce(rows):
    """Fraction Gauss-Jordan elimination in place; returns (rank, reduced rows)."""
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


def _determinant(mat):
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


def _gauss_jordan_kernel(mat):
    """Basis of the right kernel of a square matrix (the former `_kernel_basis`)."""
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


_entries = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9)),
    st.builds(Fraction, st.integers(-2**70, 2**70), st.integers(1, 2**90)))


@st.composite
def _matrices(draw, square=False):
    """Rational matrices, square or rectangular, with zero rows and columns,
    rank deficiency (as products B*C through a narrow middle) and large
    numerators and denominators."""
    m = draw(st.integers(0, 6))
    n = m if square else draw(st.integers(0, 6))
    if draw(st.booleans()):
        return [[draw(_entries) for _ in range(n)] for _ in range(m)]
    k = draw(st.integers(0, max(0, min(m, n) - 1)))
    b = [[draw(_entries) for _ in range(k)] for _ in range(m)]
    c = [[draw(_entries) for _ in range(n)] for _ in range(k)]
    return [[sum((b[i][l] * c[l][j] for l in range(k)), Fraction(0))
             for j in range(n)] for i in range(m)]


def _integer_rows(mat):
    """The rows of a rational matrix, each multiplied by the lcm of its
    denominators, and the product of those lcms."""
    rows, scaling = [], 1
    for r in mat:
        m = math.lcm(*(x.denominator for x in r))
        scaling *= m
        rows.append([x.numerator * (m // x.denominator) for x in r])
    return rows, scaling


def _echelon(mat):
    """`_bareiss` on the integer rows of mat, with the determinant of mat."""
    rows, scaling = _integer_rows(mat)
    ech, pivots, det = presented._bareiss(rows)
    return ech, pivots, Fraction(det, scaling)


def _kernel_basis(mat):
    """The library kernel basis of mat, read off its `_bareiss` form, as
    Fraction vectors; each denominator must be positive."""
    ncols = len(mat[0]) if mat else 0
    ech, pivots, _det = _echelon(mat)
    out = []
    for den, vec in presented._kernel_basis(ech, pivots, ncols):
        assert den > 0 and all(vec.values())
        out.append([Fraction(vec.get(j, 0), den) for j in range(ncols)])
    return out


@settings(max_examples=200, deadline=None)
@given(_matrices())
def test_echelon_rank_and_pivots_match_gauss_jordan(mat):
    rank, reduced = _row_reduce([list(r) for r in mat])
    ech, pivots, _det = _echelon(mat)
    assert len(pivots) == rank == len(ech)
    assert pivots == [next(j for j, x in enumerate(r) if x) for r in reduced]


@settings(max_examples=200, deadline=None)
@given(_matrices(square=True))
def test_echelon_determinant_matches_gauss_jordan(mat):
    assert _echelon(mat)[2] == _determinant(mat)


@settings(max_examples=200, deadline=None)
@given(_matrices(square=True))
def test_kernel_basis_matches_gauss_jordan(mat):
    assert _kernel_basis(mat) == _gauss_jordan_kernel(mat)


@settings(max_examples=100, deadline=None)
@given(_matrices())
def test_kernel_basis_spans_the_kernel_of_rectangular_matrices(mat):
    ncols = len(mat[0]) if mat else 0
    kernel = _kernel_basis(mat)
    assert len(kernel) == ncols - _row_reduce([list(r) for r in mat])[0]
    for v in kernel:
        assert all(sum((a * x for a, x in zip(row, v)), Fraction(0)) == 0 for row in mat)


def _omega_rank_by_normal_forms(pres, A):
    """The former Jacobian rows: one normal form per relation, basis element and variable."""
    t, n = pres.nvars, A.dim
    if t == 0 or n == 0:
        return 0
    rows = []
    for f in pres.relations:
        partials = [f.derivative(i) for i in range(t)]
        for mo in A.basis:
            bm = Poly.from_monomial(t, mo)
            row = []
            for g in partials:
                block = [Fraction(0)] * n
                for u, c in fiber_coords(A, g * bm).items():
                    block[u] = c
                row.extend(block)
            rows.append(row)
    return n * t - _row_reduce(rows)[0]


def _mult_coords(A, i, j):
    """The Fraction view of `mult_int_coords`: the coordinates of b_i * b_j."""
    den, nums = A.mult_int_coords(i, j)
    return {k: Fraction(x, den) for k, x in nums.items()}


def _jacobian_rows_by_fractions(pres, A):
    """The former Jacobian rows: composed from the multiplication table with
    Fraction multiply-adds, one Fraction per entry."""
    t, n = pres.nvars, A.dim
    rows = []
    for f in pres.relations:
        partials = [fiber_coords(A, f.derivative(i)) for i in range(t)]
        for j in range(n):
            row = [Fraction(0)] * (t * n)
            for i, g in enumerate(partials):
                for u, c in g.items():
                    for v, d in _mult_coords(A, u, j).items():
                        row[i * n + v] += c * d
            rows.append(row)
    return rows


def _trace_form_by_fractions(A):
    """The former Gram matrix: traces and entries summed as Fractions."""
    n = A.dim
    traces = [sum((_mult_coords(A, u, l).get(l, Fraction(0)) for l in range(n)), Fraction(0))
              for u in range(n)]
    gram = [[sum((c * traces[u] for u, c in _mult_coords(A, i, j).items()), Fraction(0))
             for j in range(n)] for i in range(n)]
    return gram, _determinant(gram)


def _assert_integer_tables_match_fractions(pres):
    A = q_fiber(pres)
    oracle_rows = _jacobian_rows_by_fractions(pres, A)
    assert [[Fraction(x, den) for x in row]
            for den, row in presented._jacobian_rows(pres, A)] == oracle_rows
    assert omega_rank(pres, A) == A.dim * pres.nvars - _row_reduce(oracle_rows)[0]
    gram, det = _trace_form_by_fractions(A)
    assert trace_form(A) == det
    # the echelon form kept for the witness is that of the oracle's Gram matrix
    assert A._gram_echelon == presented._bareiss(_integer_rows(gram)[0])[:2]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_integer_tables_match_fraction_composition(seed):
    _assert_integer_tables_match_fractions(_random_presentation(random.Random(seed)))


# non-reduced fibers and the witness each one reported before the change
NONREDUCED = {
    "X^2": (_pres(2, ["X"], ["X^2"]), ("X", 2)),
    "r_alpha(0)": (r_alpha_presentation(0, 2), ("Y", 5)),
    "r_alpha(1)": (r_alpha_presentation(1, 2), ("Y", 5)),
    "r_alpha(2)": (r_alpha_presentation(2, 2), ("Y", 5)),
    "cubics": (_pres(2, ["X", "Y", "Z"], ["X^3 - Y*Z", "Y^3 - X*Z", "Z^3 - X*Y"]),
               ("Y^2*Z^2 - X^2", 3)),
}


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_omega_rank_from_table_matches_normal_form_rows(seed):
    pres = _random_presentation(random.Random(seed))
    A = q_fiber(pres)
    assert omega_rank(pres, A) == _omega_rank_by_normal_forms(pres, A)


@pytest.mark.parametrize("name", NONREDUCED)
def test_omega_rank_from_table_on_nonreduced_fibers(name):
    pres, _witness = NONREDUCED[name]
    A = q_fiber(pres)
    rank = omega_rank(pres, A)
    assert rank > 0
    assert rank == _omega_rank_by_normal_forms(pres, A)


_int_entries = st.one_of(
    st.integers(-9, 9),
    st.integers(-9, 9).map(lambda k: k * presented.RANK_PRIME),
    st.integers(-2**70, 2**70))


@st.composite
def _integer_matrices(draw):
    """Integer matrices with zero rows and columns, rank deficiency (as
    products B*C through a narrow middle) and entries divisible by the rank
    prime, so that the rank modulo the prime can fall below the rank."""
    m, n = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    if draw(st.booleans()):
        return [[draw(_int_entries) for _ in range(n)] for _ in range(m)]
    k = draw(st.integers(0, max(0, min(m, n) - 1)))
    b = [[draw(_int_entries) for _ in range(k)] for _ in range(m)]
    c = [[draw(_int_entries) for _ in range(n)] for _ in range(k)]
    return [[sum(b[i][l] * c[l][j] for l in range(k)) for j in range(n)]
            for i in range(m)]


@settings(max_examples=300, deadline=None)
@given(_integer_matrices())
def test_guarded_rank_matches_bareiss(mat):
    rank = len(presented._bareiss([list(r) for r in mat])[1])
    assert presented._rank([list(r) for r in mat]) == rank
    if presented._full_rank_mod_prime(mat):
        assert rank == min(len(mat), len(mat[0]) if mat else 0)


@st.composite
def _sparse_deficient_matrices(draw):
    """Integer matrices up to 30 x 30 whose rows either have at most three
    nonzero entries or are integer combinations of two such rows drawn
    before, so most fall below full rank.  The entries are small, or, in
    about half of the matrices, those of `_int_entries`: some are multiples
    of the rank prime or too large to lift from their residues."""
    m, n = draw(st.integers(1, 30)), draw(st.integers(1, 30))
    entries = draw(st.sampled_from([st.integers(-9, 9), _int_entries]))
    base, rows = [], []
    for _ in range(m):
        if len(base) >= 2 and draw(st.booleans()):
            a, b = draw(st.permutations(range(len(base))))[:2]
            c, d = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
            rows.append([c * x + d * y for x, y in zip(base[a], base[b])])
        else:
            row = [0] * n
            for j in draw(st.lists(st.integers(0, n - 1), max_size=3)):
                row[j] = draw(entries)
            base.append(row)
            rows.append(row)
    return rows


@settings(max_examples=100, deadline=None)
@given(_sparse_deficient_matrices())
def test_certified_rank_matches_bareiss_on_sparse_deficient_matrices(mat):
    assert presented._rank([list(r) for r in mat]) == len(presented._bareiss(mat)[1])


def test_rank_falls_back_when_the_kernel_entries_exceed_the_lift_bound(monkeypatch):
    # rank 1 over Q and modulo the prime; the kernel vector (-99991, 100003, 0)
    # has entries above the bound sqrt((P - 1) / 2) that rational
    # reconstruction can lift, so only `_bareiss` can prove the deficiency
    mat = [[100003, 99991, 1], [200006, 199982, 2]]
    assert presented._echelon_mod_prime(mat)[1] == [0]
    assert not presented._kernel_certified(mat, *presented._echelon_mod_prime(mat))
    row_counts = []
    original = presented._bareiss
    monkeypatch.setattr(presented, "_bareiss",
                        lambda rows: row_counts.append(len(rows)) or original(rows))
    assert presented._rank(mat) == 1
    assert row_counts == [2]


def test_omega_rank_falls_back_when_the_prime_divides_a_minor(monkeypatch):
    # X^2 - P*X has the distinct roots 0 and P, so its fiber is reduced, but
    # its Jacobian rows have rank 1 modulo P: only the exact route sees rank 2
    prime = presented.RANK_PRIME
    pres = _pres(2, ["X"], [f"X^2 - {prime}*X"])
    A = q_fiber(pres)
    rows = [row for _den, row in presented._jacobian_rows(pres, A)]
    assert rows == [[-prime, 2], [0, prime]]
    assert not presented._full_rank_mod_prime(rows)
    # the kernel vector modulo P, (1, 0), is no kernel vector over Z
    assert not presented._kernel_certified(rows, *presented._echelon_mod_prime(rows))
    # det J = 2X - P has the same rows, so the determinant route declines too
    assert presented._jacobian_det_rows(pres, A) == rows
    row_counts = []
    original = presented._bareiss
    monkeypatch.setattr(presented, "_bareiss",
                        lambda rows: row_counts.append(len(rows)) or original(rows))
    assert omega_rank(pres, A) == 0
    assert row_counts == [2]
    assert etale_check(pres).verdict == "PASS"


def test_determinant_route_eliminates_one_n_by_n_matrix_on_katsura4(monkeypatch):
    row_counts = []
    original = presented._full_rank_mod_prime
    monkeypatch.setattr(presented, "_full_rank_mod_prime",
                        lambda rows: row_counts.append(len(rows)) or original(rows))
    assert etale_check(_pres(2, list("ABCDE"), KATSURA4)).omega_rank == 0
    assert row_counts == [16]


def test_non_square_presentations_skip_the_determinant_route(monkeypatch):
    def refuse(mat):
        raise AssertionError("the determinant route ran on a non-square presentation")

    monkeypatch.setattr(presented, "_det", refuse)
    pres = r_alpha_presentation(1, 2)
    assert (len(pres.relations), pres.nvars) == (8, 2)
    assert etale_check(pres).verdict == "FAIL_NOT_REDUCED"


def test_dual_route_disagreement_is_still_raised_after_the_determinant_route(monkeypatch):
    # the determinant route proves the module of katsura-3 zero; a trace form
    # claimed degenerate must then stop the run
    monkeypatch.setattr(presented, "trace_form", lambda A: Fraction(0))
    with pytest.raises(InternalInconsistencyError, match="disagree on reducedness"):
        etale_check(KATSURA3)


def _leibniz_det(mat):
    """The determinant as the signed sum over permutations, one product each."""
    t = len(mat)
    nvars = mat[0][0].nvars
    out = Poly.zero(nvars)
    for perm in itertools.permutations(range(t)):
        inversions = sum(perm[i] > perm[j] for i in range(t) for j in range(i + 1, t))
        term = Poly.constant(nvars, -1 if inversions % 2 else 1)
        for i, j in enumerate(perm):
            term = term * mat[i][j]
        out = out + term
    return out


@st.composite
def _poly_matrices(draw):
    """Square matrices (t <= 4) of polynomials in X, Y with small integer
    coefficients, a few of them rational, and some zero entries."""
    t = draw(st.integers(1, 4))
    monos = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1)]

    def entry():
        if draw(st.integers(0, 3)) == 0:
            return Poly.zero(2)
        coeffs = {mo: Fraction(draw(st.integers(-3, 3)), draw(st.sampled_from([1, 1, 2, 3])))
                  for mo in draw(st.lists(st.sampled_from(monos), max_size=3))}
        return Poly(2, coeffs)

    return [[entry() for _ in range(t)] for _ in range(t)]


@settings(max_examples=150, deadline=None)
@given(_poly_matrices())
def test_laplace_determinant_matches_leibniz(mat):
    assert presented._det(mat) == _leibniz_det(mat)


@st.composite
def _square_presentations(draw):
    """Presentations with as many relations as variables: those of
    `_random_presentation`, reduced or not, and the non-reduced repeated
    factor U^2 (U - a), U = X + c*Y, beside Y^2 - b."""
    if draw(st.booleans()):
        return _random_presentation(random.Random(draw(st.integers(0, 2**32 - 1))))
    a, b, c = (draw(st.integers(-3, 3)) for _ in range(3))
    X, Y = Poly.variable(2, 0), Poly.variable(2, 1)
    u = X + scale(Y, c)
    rels = (u * u * (u - Poly.constant(2, a)), Y * Y - Poly.constant(2, b))
    return IntegerPolynomialPresentation(draw(st.sampled_from([2, 3, 5])), ("X", "Y"), rels)


@settings(max_examples=80, deadline=None)
@given(_square_presentations())
def test_determinant_route_agrees_with_the_full_jacobian_rank(pres):
    A = q_fiber(pres)
    t, n = pres.nvars, A.dim
    if presented._full_rank_mod_prime(presented._jacobian_det_rows(pres, A)):
        rows = [row for _den, row in presented._jacobian_rows(pres, A)]
        assert presented._rank(rows) == t * n
    assert omega_rank(pres, A) == _omega_rank_by_normal_forms(pres, A)


def test_exact_eliminations_on_katsura4_and_nonreduced_cubics(monkeypatch):
    # katsura-4 (dim 16, 5 relations in 5 variables) eliminates only its Gram
    # matrix exactly: its determinant rows are proved of full rank modulo
    # the prime.  The non-reduced cubics (dim 27) eliminate the Gram matrix
    # once, for the determinant and the witness; the rank 69 of their 81
    # Jacobian rows is certified by 12 kernel vectors checked over Z.
    row_counts = []
    original = presented._bareiss
    monkeypatch.setattr(presented, "_bareiss",
                        lambda rows: row_counts.append(len(rows)) or original(rows))
    etale_check(_pres(2, list("ABCDE"), KATSURA4))
    assert row_counts == [16]
    row_counts.clear()
    cubics = NONREDUCED["cubics"][0]
    assert etale_check(cubics).omega_rank == 81 - 69
    assert row_counts == [27]


@pytest.mark.parametrize("name", ["katsura-4", "cubics"])
def test_etale_check_builds_one_fraction_the_trace_determinant(name, monkeypatch):
    # the fiber holds every rational number as integer numerators over a
    # denominator; only the reported trace determinant is a Fraction.  The
    # presentation is parsed first, and calls are counted by replacing the
    # module attributes, as the tracer counts calls
    pres = (_pres(2, list("ABCDE"), KATSURA4) if name == "katsura-4"
            else NONREDUCED["cubics"][0])
    calls = []
    for module in (polys, presented):
        def counting(*args, _original=module.Fraction):
            calls.append(args)
            return _original(*args)

        monkeypatch.setattr(module, "Fraction", counting)
    rep = etale_check(pres)
    assert rep.verdict == ("PASS" if name == "katsura-4" else "FAIL_NOT_REDUCED")
    assert len(calls) == 1 and rep.trace_det == Fraction(*calls[0])


@pytest.mark.parametrize("name", NONREDUCED)
def test_nonreduced_witnesses_unchanged(name):
    pres, witness = NONREDUCED[name]
    rep = etale_check(pres)
    assert rep.verdict == "FAIL_NOT_REDUCED"
    assert rep.witness == witness


KATSURA3 = _pres(2, list("ABCD"), KATSURA3_RELATIONS)


def _mult_coords_by_normal_form(A, i, j):
    """The former multiplication table: the normal form of each product b_i * b_j."""
    return fiber_coords(A, Poly.from_monomial(A.pres.nvars, mono_mul(A.basis[i], A.basis[j])))


def _assert_mult_table_matches_normal_forms(pres):
    A = q_fiber(pres)
    for i in range(A.dim):
        for j in range(A.dim):
            assert _mult_coords(A, i, j) == _mult_coords_by_normal_form(A, i, j), (i, j)


@pytest.mark.parametrize("name", ["katsura-3", *NONREDUCED])
def test_mult_table_matches_normal_forms(name):
    pres = KATSURA3 if name == "katsura-3" else NONREDUCED[name][0]
    _assert_mult_table_matches_normal_forms(pres)
    _assert_integer_tables_match_fractions(pres)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_mult_table_matches_normal_forms_on_random_presentations(seed):
    _assert_mult_table_matches_normal_forms(_random_presentation(random.Random(seed)))


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _job_presentation(name):
    """The presentation of a fixed job of the benchmark corpus."""
    text = (PERFBENCH / "jobs" / name).read_text()
    return _presentation_from(parse_job_blocks(text), "presentation")


def _seeded_quadrics(seed):
    """The presentations of the benchmark's seeded `fiber` systems at a seed."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        import corpus
    finally:
        sys.path.remove(str(PERFBENCH))
    rng = random.Random(seed)
    return [_pres(2, list(corpus.QUADRIC_VARS), corpus.quadric_relations(rng))
            for _ in range(corpus.QUADRICS_PER_SEED)]


@pytest.mark.parametrize("job", ["katsura4.job", "cubics_dim27.job", "quintics_p5.job"])
def test_mult_table_matches_normal_forms_on_the_fixed_fiber_jobs(job):
    _assert_mult_table_matches_normal_forms(_job_presentation(job))


@pytest.mark.parametrize("seed", [2, 5, 37, 97, 131, 301])
def test_mult_table_matches_normal_forms_on_the_seeded_quadrics(seed):
    for pres in _seeded_quadrics(seed):
        _assert_mult_table_matches_normal_forms(pres)


@pytest.mark.parametrize("pres", [KATSURA3, NONREDUCED["cubics"][0],
                                  _pres(2, ["X", "Y"], ["X^2 - Y", "Y^2 - 2"])],
                         ids=["katsura-3", "cubics", "X^2 - Y, Y^2 - 2"])
def test_a_basis_that_is_not_monic_gives_the_same_table(pres):
    # the base case divides by the leading coefficient of g's primitive
    # integer form, whatever multiple of g the basis holds
    gb = presented.groebner_basis(pres)
    scaled = [scale(g, c) for g, c in zip(gb, itertools.cycle([3, Fraction(-2, 5), -1, 7]))]
    assert scaled != gb
    A, B = q_fiber(pres, gb=gb), q_fiber(pres, gb=scaled)
    assert B.basis == A.basis
    for i, j in itertools.product(range(A.dim), repeat=2):
        assert B.mult_int_coords(i, j) == A.mult_int_coords(i, j), (i, j)
    assert trace_form(B) == trace_form(A)


def _unreduced_basis(pres):
    """The reduced basis of pres with its largest element replaced by the sum
    of it and the smallest: the leading monomials stay, but the tail of the
    sum holds the smaller leading monomial, outside the standard monomials."""
    gb = presented.groebner_basis(pres)
    order = sorted(range(len(gb)), key=lambda k: polys.grevlex_key(gb[k].leading_monomial()))
    out = list(gb)
    out[order[-1]] = gb[order[-1]] + gb[order[0]]
    return out


def test_a_basis_that_is_not_reduced_raises_the_named_error():
    gb = _unreduced_basis(KATSURA3)
    A = q_fiber(KATSURA3, gb=gb)
    assert A.basis == q_fiber(KATSURA3).basis
    with pytest.raises(InternalInconsistencyError, match="not reduced"):
        trace_form(A)


def test_a_basis_that_is_not_reduced_is_a_json_error_of_etale_check(tmp_path, capsys,
                                                                  monkeypatch):
    gb = _unreduced_basis(KATSURA3)
    monkeypatch.setattr(presented, "groebner_basis", lambda pres: gb)
    job = tmp_path / "job.txt"
    job.write_text((PERFBENCH / "jobs" / "katsura3.job").read_text())
    assert _job_presentation("katsura3.job").relations == KATSURA3.relations
    assert main(["etale-check", str(job), "--no-cache"]) == 1
    assert "not reduced" in json.loads(capsys.readouterr().err)["error"]


def test_a_monomial_outside_the_basis_below_every_leading_monomial_is_refused():
    # the standard monomials 1, X with the basis X^3 - 2X: X^2 is neither a
    # basis monomial nor a leading monomial nor a proper multiple of one
    pres = _pres(2, ["X"], ["X^2 - 2"])
    A = presented.QFiberAlgebra(pres, [parse_poly("X^3 - 2*X", ["X"])], [(0,), (1,)])
    with pytest.raises(InternalInconsistencyError, match="neither a leading monomial"):
        A.mult_int_coords(1, 1)


def test_fiber_reaches_the_traced_module_functions(monkeypatch):
    # per-layer tracing wraps polys.normal_form and polys.s_polynomial by
    # replacing every defring module attribute bound to them, so Buchberger
    # and the fiber must look both names up at call time.  The multiplication
    # table divides nothing, so the fiber's normal forms are those of
    # omega_rank's int_coords (det J, or the partial derivatives)
    calls = {"normal_form": 0, "s_polynomial": 0}
    for name in calls:
        original = getattr(polys, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for module_name, module in list(sys.modules.items()):
            if (module_name.startswith("defring")
                    and getattr(module, name, None) is original):
                monkeypatch.setattr(module, name, counting)
    gb = presented.groebner_basis(KATSURA3)
    assert calls["s_polynomial"] > 0 and calls["normal_form"] > 0
    A = q_fiber(KATSURA3, gb=gb)
    before = calls["normal_form"]
    trace_form(A)
    assert calls["normal_form"] == before
    omega_rank(KATSURA3, A)
    assert calls["normal_form"] > before
    assert etale_check(KATSURA3).verdict == "PASS"


def test_trace_form_is_computed_once_per_algebra():
    A = q_fiber(_pres(2, ["X"], ["X^3 - X^2"]))
    assert trace_form(A) is trace_form(A)


def test_infinite_fiber_runs_buchberger_once(monkeypatch):
    calls = []
    original = presented.buchberger

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(presented, "buchberger", counting)
    rep = etale_check(_pres(2, ["X", "Y"], ["X*Y - 2"]))
    assert rep.verdict == "FAIL_NOT_FINITE"
    assert len(calls) == 1


def test_witness_certification_failure_is_a_json_error(monkeypatch, tmp_path, capsys):
    # a witness whose claimed power does not vanish must stop the run
    monkeypatch.setattr(presented, "nilpotent_witness",
                        lambda A: (parse_poly("X", ["X"]), 1))
    pres = _pres(2, ["X"], ["X^2"])
    with pytest.raises(InternalInconsistencyError, match="does not vanish"):
        etale_check(pres)
    job = tmp_path / "job.txt"
    job.write_text("presentation {\n  p = 2\n  vars = X\n  relations = X^2\n}\n")
    assert main(["etale-check", str(job), "--no-cache"]) == 1
    assert "does not vanish" in json.loads(capsys.readouterr().err)["error"]


# -- presented homomorphisms -------------------------------------------------


def test_verify_presented_hom_vectors():
    src = _pres(3, ["X", "Y"], ["X^2 + Y^2"])
    tgt = _pres(3, ["T"], ["T^2 + 9"])
    T = parse_poly("T", ["T"])
    three = parse_poly("3", ["T"])
    assert verify_presented_hom(src, tgt, [T, three])
    assert verify_presented_hom(src, tgt, [parse_poly("2*T", ["T"]),
                                           parse_poly("6", ["T"])])
    assert not verify_presented_hom(src, tgt, [T, parse_poly("1", ["T"])])


def test_verify_presented_hom_rejects_unit_constant_terms():
    # constant term not divisible by p cannot define a local map
    src = _pres(2, ["X"], ["X^2"])
    tgt = _pres(2, ["T"], ["T^2"])
    assert not verify_presented_hom(src, tgt, [parse_poly("T + 1", ["T"])])


def test_verify_presented_hom_reports_p_denominators():
    # the reduced basis of 2T^2 - T over Q is T^2 - T/2, so reducing X^2 -> T^2
    # divides by p = 2
    src = _pres(2, ["X"], ["X^2"])
    tgt = _pres(2, ["T"], ["2*T^2 - T"])
    with pytest.raises(IntegralityObstruction):
        verify_presented_hom(src, tgt, [parse_poly("T", ["T"])])


def test_verify_presented_hom_lets_unrelated_errors_propagate(monkeypatch):
    import defring.presented as presented

    def broken_normal_form(*args, **kwargs):
        raise KeyError("not an integrality failure")

    monkeypatch.setattr(presented, "normal_form", broken_normal_form)
    with pytest.raises(KeyError):
        verify_presented_hom(_pres(2, ["X"], ["X^2"]), _pres(2, ["T"], ["T^2"]),
                             [parse_poly("T", ["T"])])


# -- W-membership ------------------------------------------------------------


def test_w_membership_three_verdicts():
    rep1 = w_membership_check(_pres(5, ["X"], ["X^2 - 5*X"]))
    assert rep1.verdict == "finitely generated with trivial p-torsion (precision-certified)"
    assert rep1.torsion_free_at_precision is True

    rep2 = w_membership_check(_pres(2, ["X"], ["X^2", "2*X"]))
    assert rep2.verdict == "has nontrivial p-torsion"

    rep3 = w_membership_check(_pres(2, ["X"], []))
    assert rep3.verdict == "not a finitely generated module"
    assert rep3.finite_dimensional is False


def test_w_membership_report_dict():
    d = w_membership_check(_pres(5, ["X"], ["X^2 - 5*X"])).as_dict()
    assert d["precision"] == 4
    assert "finite_dimensional" in d and "note" in d


def test_a_radical_without_nilpotents_is_a_json_error(monkeypatch, tmp_path, capsys):
    # the trace form's kernel is made to offer only the unity, which is not
    # nilpotent, so the search for a witness must stop the run
    monkeypatch.setattr(presented, "_kernel_basis", lambda *args: [(1, {0: 1})])
    message = "trace form is degenerate but no kernel element is nilpotent"
    with pytest.raises(InternalInconsistencyError, match=f"^{message}$"):
        etale_check(_pres(2, ["X"], ["X^2"]))
    job = tmp_path / "job.txt"
    job.write_text("presentation {\n  p = 2\n  vars = X\n  relations = X^2\n}\n")
    assert main(["etale-check", str(job), "--no-cache"]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == message
