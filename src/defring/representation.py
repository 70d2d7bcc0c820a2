"""Lifts of residual representations, deformation sets, and averaging.

A residual representation lives over the residue field (packaged as a rank-1
FiniteLocalRing); its lifts to a finite local ring R are solved for layer by
layer over the m-adic filtration, from the Cayley-edge equations over k, and
every lift is verified on the edges of the group's Cayley graph (testing
every tuple in the fibers of the reduction is kept as a test oracle).
Strict equivalence (conjugation by 1 + M_n(m)) is decided by one linear
solve; deformation sets are the orbit partitions, walked over generators of
that group, with canonical (key-least) representatives.  The tangent
dimension dim H^1(G, ad rhobar) is solved for by linear algebra over the
residue field; enumerating the classes over k[eps] is the tests' oracle.

The averaging operator sums g-translates of an approximate intertwiner and
divides by the group order; when p divides the order this costs p-adic
precision and therefore requires a precision-model ring.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import cycle, product
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import InternalInconsistencyError
from .groups import FiniteGroup, extend_and_verify_hom, p_part
from .galois import GRElt
from .linalg import HowellForm, LinearMapSolver
from .local_ring import (DEFAULT_ELEMENT_CAP, DEFAULT_MAP_CAP, CapExceededError,
                         FiniteLocalRing, Ideal, RingElement, RingHom,
                         RingSurjection, exact_divide, m_adic_layers,
                         maximal_ideal, quotient_ring, scale_ideal)
from .matrices import Matrix


class RepresentationError(ValueError):
    pass


class MarandaPreconditionError(ValueError):
    """The approximate-intertwiner congruence fails; carries the violating element."""

    def __init__(self, message: str, violating_element: int):
        super().__init__(message)
        self.violating_element = violating_element


class Representation:
    """A verified homomorphism G -> GL_n(R), stored as a full matrix table."""

    def __init__(self, group: FiniteGroup, ring: FiniteLocalRing, n: int,
                 matrices: Sequence[Matrix]):
        self.group = group
        self.ring = ring
        self.n = n
        self.matrices: Tuple[Matrix, ...] = tuple(matrices)

    @classmethod
    def from_generator_images(cls, group: FiniteGroup, ring: FiniteLocalRing,
                              images: Sequence[Matrix]) -> "Representation":
        n = images[0].n if images else 1
        one = Matrix.identity(ring, n)
        # The Cayley-edge check makes phi multiplicative with phi(e) = I, so
        # every image is invertible without a further test: for g of order
        # ord, phi(g^(ord-1)) * phi(g) = phi(e) = I, and a one-sided inverse of
        # a square matrix over a commutative ring is two-sided.  A singular
        # generator image therefore fails as a violated Cayley edge.
        mats, fail = extend_and_verify_hom(group, one, list(images))
        if fail is not None:
            raise RepresentationError(
                f"generator images do not define a homomorphism; first violated "
                f"pair {fail}")
        return cls(group, ring, n, mats)

    def matrix(self, g: int) -> Matrix:
        return self.matrices[g]

    @property
    def gen_matrices(self) -> Tuple[Matrix, ...]:
        return tuple(self.matrices[g] for g in self.group.generators)

    def key(self) -> Tuple[int, ...]:
        return tuple(x for M in self.gen_matrices for x in M.key())

    def conjugate(self, K: Matrix) -> "Representation":
        # no library route conjugates whole tables (`def_set` walks orbits
        # by `_conjugate_in_place`); kept because `perfbench/tracing.py`
        # counts its calls
        Kinv = K.inverse()
        return Representation(self.group, self.ring, self.n,
                              [K * M * Kinv for M in self.matrices])

    def __eq__(self, other) -> bool:
        return (isinstance(other, Representation) and self.group is other.group
                and self.ring is other.ring and self.matrices == other.matrices)

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"Representation({self.group.name} -> GL_{self.n}({self.ring.label}))"


def residual_rep(group: FiniteGroup, ring: FiniteLocalRing,
                 generator_images: Sequence[Matrix]) -> Representation:
    """A representation over the residue field, validated on the full table."""
    if ring.base.m != 1:
        raise RepresentationError("residual representations live over the residue field")
    return Representation.from_generator_images(group, ring, generator_images)


def trivial_residual_rep(group: FiniteGroup, ring: FiniteLocalRing,
                         n: int = 1) -> Representation:
    k = ring.residue_ring
    return residual_rep(group, k, [Matrix.identity(k, n) for _ in group.generators])


# -- lifts ------------------------------------------------------------------------------


@dataclass
class Lift:
    """A representation over R whose entrywise reduction equals the residual one."""

    rep: Representation
    rhobar: Representation

    def __post_init__(self):
        # Generators suffice: rep and rhobar are homomorphisms (every constructor
        # verifies through extend_and_verify_hom or derives from a verified one),
        # reduction R -> k is a ring map, and homomorphisms agreeing on generators agree.
        # An entry of rhobar lives in the rank-1 ring k, so its flat coordinates
        # are its residue; the reductions are compared one entry at a time.
        residue = self.rep.ring._residue
        reduced = [residue(c) for M in self.rep.gen_matrices for c in M.entry_coeffs()]
        if reduced != [c for M in self.rhobar.gen_matrices for c in M.entry_coeffs()]:
            raise RepresentationError("reduction does not match the residual representation")

    def key(self) -> Tuple[int, ...]:
        return self.rep.key()


def kernel_group(ring: FiniteLocalRing, n: int,
                 cap: int = DEFAULT_ELEMENT_CAP) -> List[Matrix]:
    """All |m|^(n^2) matrices congruent to the identity modulo the maximal
    ideal, in lexicographic order of the entries' keys; the tests' scan
    oracle.  No library route lists them; it stays here because
    `perfbench/tracing.py` wraps it."""
    total = maximal_ideal(ring).size ** (n * n)
    if total > cap:
        raise CapExceededError(
            f"kernel group has {total} matrices, above the cap {cap}",
            cap="cap_elements", needed=total, limit=cap)
    one = Matrix.identity(ring, n)
    return [one + Matrix(ring, [combo[i:i + n] for i in range(0, n * n, n)])
            for combo in product(maximal_ideal(ring).enumerate_elements(), repeat=n * n)]


def _span(W, gens: Sequence[List[GRElt]], size: int) -> List[List[GRElt]]:
    """Every W-linear combination of gens, vectors of the given length, W a field."""
    out = [[W.zero] * size]
    for z in gens:
        out = [[W.add(x, W.mul(c, y)) for x, y in zip(v, z)]
               for v in out for c in W.elements()]
    return out


def _edge_defects(G: FiniteGroup, one: Matrix, gens: Sequence[Matrix]) -> List[Matrix]:
    """phi(a) phi(g) - phi(ag) on the edges off the tree, phi built along it."""
    table = [one] * G.n
    for y, parent, gi in G.tree:
        table[y] = table[parent] * gens[gi]
    return [table[a] * gens[gi] - table[G.table[a][G.generators[gi]]]
            for a, gi in G.edges]


def enumerate_lifts(rhobar: Representation, ring: FiniteLocalRing,
                    cap: int = DEFAULT_MAP_CAP) -> List[Lift]:
    """All lifts of the residual representation, in canonical key order.

    Solved layer by layer along the m-adic filtration R/m -> R/m^2 -> ... ->
    R/m^L = R (Mazur 1989, 1.2).  With b_1..b_d the k-basis of the `Layer`
    I = m^i/m^{i+1}, a lift P mod m^i plus offsets X_g = sum_j b_j x_{g,j}
    in M_n(m^i) is a homomorphism mod m^{i+1} iff delta_j + E(x_j) = 0 for
    every j, since I m lies in m^{i+1}: E is the cocycle map of
    `_cocycle_system` and delta_j the b_j-coordinate (`Layer.coords`) of
    P's defect on the non-tree Cayley edges.  So P lifts iff every -delta_j
    is in the image of E, and then its lifts are a particular solution plus
    Z^1 in each coordinate, their entries read off `Layer.multiples`.  Every
    final lift is built and checked on every Cayley edge by
    `extend_and_verify_hom`.  The cap bounds |M_n(m)|^ngen, the candidate
    space the lifts lie in.
    """
    G, n = rhobar.group, rhobar.n
    ngen = len(G.generators)
    fiber_size = maximal_ideal(ring).size ** (n * n)
    if ngen and fiber_size ** ngen > cap:
        raise CapExceededError(
            f"{fiber_size ** ngen} candidate lifts exceed the cap {cap}",
            cap="cap_maps", needed=fiber_size ** ngen, limit=cap)
    k = rhobar.ring.base
    nn, D = n * n, ngen * n * n
    rows = _cocycle_system(rhobar)
    solver = LinearMapSolver(k, [[row[u] for row in rows] for u in range(D)], len(rows))
    cocycles = _span(k, solver.kernel_generators(), D)
    one = Matrix.identity(ring, n)
    size = len(one.flat)
    # the entrywise unity lifts of rhobar's generator images
    partial = [[rhobar.matrix(g).transfer(ring, lambda e: ring.unity_lift(e.flat))
                for g in G.generators]]
    for layer in m_adic_layers(ring):
        lifted = []
        for gens in partial:
            # per equation, the d coordinates of the defect entry
            delta = [layer.coords(c) for M in _edge_defects(G, one, gens)
                     for c in M.entry_coeffs()]
            options = []
            for j, multiples in enumerate(layer.multiples):
                x = solver.solve([k.neg(c[j]) for c in delta])
                if x is None:
                    break
                # the flat coordinates of the entries s(x_j[u]) b_j of each
                # solution x_j = x + z, z in Z^1, generator-major and row-major
                options.append([[v for a, c in zip(x, z) for v in multiples[k.add(a, c)].flat]
                                for z in cocycles])
            else:
                for choice in product(*options):
                    # entry u of X is sum_j s(x_j[u]) b_j
                    X = [sum(t) % md for t, md in zip(zip(*choice), cycle(ring._mods))]
                    lifted.append([M + Matrix._adopt(ring, n, tuple(X[u:u + size]), M.prec)
                                   for M, u in zip(gens, range(0, len(X), size))])
        partial = lifted
    lifts = []
    for gens in partial:
        mats, fail = extend_and_verify_hom(G, one, gens)
        if fail is not None:
            raise InternalInconsistencyError(f"solved lift fails the Cayley edge {fail}")
        lifts.append(Lift(Representation(G, ring, n, mats), rhobar))
    lifts.sort(key=lambda l: l.key())
    return lifts


# -- strict equivalence and deformation sets -----------------------------------------------


def _conjugation_form(ring: FiniteLocalRing, n: int, gens1: Sequence[Matrix],
                      gens2: Sequence[Matrix], entries: Optional[Sequence[RingElement]] = None
                      ) -> Tuple[HowellForm, int]:
    """The Howell form of the rows [phi(Y) | Y] in the flat W-coordinates of
    M_n(R), and the width of the image part, for phi(Y) = (a Y - Y b) over the
    pairs of `zip(gens1, gens2)` and Y = beta E_ij, beta over `entries` (m's
    module basis by default).  By the Howell property the rows whose image part
    is zero span the kernel V of phi.  As phi(beta E_ij)_st = [t = j] beta a_si
    - [s = i] beta b_jt, each beta costs one product per distinct entry."""
    W, N, nn = ring.base, ring.N, n * n
    pairs = [(a.rows, b.rows) for a, b in zip(gens1, gens2)]
    ni = len(pairs) * nn * N
    blank = [(W.zero,) * N] * nn
    rows = []
    distinct = {x for M in (*gens1, *gens2) for row in M.rows for x in row}
    for beta in maximal_ideal(ring).module_basis if entries is None else entries:
        times = {x: beta * x for x in distinct}
        minus = {x: -y for x, y in times.items()}
        for i, j in product(range(n), repeat=2):
            row = []
            for a, b in pairs:
                block = blank[:]
                for t in range(n):
                    block[t * n + j] = times[a[t][i]].coefficients()
                    block[i * n + t] = minus[b[j][t]].coefficients()
                block[i * n + j] = (times[a[i][i]] + minus[b[j][j]]).coefficients()
                row.extend(c for e in block for c in e)
            y = blank[:]
            y[i * n + j] = beta.coefficients()
            rows.append(row + [c for e in y for c in e])
    return HowellForm(W, rows, ni + nn * N, ring.orders * (len(pairs) + 1) * nn), ni


def kernel_conjugator(ring: FiniteLocalRing, n: int, gens1: Sequence[Matrix],
                      gens2: Sequence[Matrix]) -> Optional[Matrix]:
    """The first K of `kernel_group(ring, n)` with a K = K b for every pair
    (a, b) of `zip(gens1, gens2)`, or None, solved for instead of scanned.

    K = 1 + Y solves it iff phi(Y) = a Y - Y b = b - a.  Reducing [a - b | 0]
    by `_conjugation_form` leaves [a - b - phi(Z) | -Z]; a zero image part
    means Y = -Z solves it, and as the reduction ends on V's rows, each entry
    of Y is its least residue modulo its pivot: Y is the least element of
    Y + V in `kernel_group`'s order.  n is explicit for groups without generators.
    """
    form, ni = _conjugation_form(ring, n, gens1, gens2)
    zero, N = ring.base.zero, ring.N
    red = form.reduce([c for a, b in zip(gens1, gens2) for row in (a - b).rows
                       for e in row for c in e.coefficients()] + [zero] * (n * n * N))
    if any(e != zero for e in red[:ni]):
        return None
    K = Matrix.identity(ring, n) + Matrix(ring, [
        [ring.element(red[ni + u * N:ni + (u + 1) * N]) for u in range(i, i + n)]
        for i in range(0, n * n, n)])
    if not all(a * K == K * b for a, b in zip(gens1, gens2)):
        raise InternalInconsistencyError("the solved conjugator K fails a K = K b")
    return K


def are_strictly_equivalent(l1: Lift, l2: Lift) -> Tuple[bool, Optional[Matrix]]:
    """The first K of the kernel group with rho1 = K rho2 K^{-1}, i.e. rho1 K = K rho2."""
    if l1.rep.ring is not l2.rep.ring:
        raise ValueError("lifts live over different rings")
    K = kernel_conjugator(l1.rep.ring, l1.rep.n, l1.rep.gen_matrices,
                          l2.rep.gen_matrices)
    return K is not None, K


@dataclass
class DefSet:
    """Orbit decomposition of the lift set under kernel-group conjugation."""

    representatives: List[Lift]
    orbit_sizes: List[int]
    total_lifts: int

    @property
    def class_count(self) -> int:
        return len(self.representatives)


def _layer_generators(ring: FiniteLocalRing, n: int) -> List[Tuple[int, int, RingElement]]:
    """The triples (a, c, x) of the generators K = 1 + x E_ac, x = s(y) b read
    off `Layer.multiples`, b over the k-basis of each layer m^i / m^{i+1} (as
    in `enumerate_lifts`), y over the F_p-basis Y^u of k, s the unity lift;
    `_conjugate_in_place` acts by K as one row update and one column update,
    so no K is built.
    They generate Gamma = 1 + M_n(m): 1 + Y -> Y mod m^{i+1} maps Gamma_i =
    1 + M_n(m^i) onto the F_p-space M_n(m^i / m^{i+1}) with kernel Gamma_{i+1},
    which they span, so by downward induction on i they generate each Gamma_i."""
    return [(a, c, multiples[y]) for layer in m_adic_layers(ring)
            for multiples in layer.multiples for y in ring._monos
            for a, c in product(range(n), repeat=2)]


def _conjugate_in_place(ring: FiniteLocalRing, a: int, c: int, x: RingElement):
    """The map taking a list of matrices, each a list of row lists, to their
    conjugates by K = 1 + x E_ac in place: one row update and one column
    update per matrix, with no matrix product or inverse.  For a != c,
    K^{-1} = 1 - x E_ac, so row a gains x (row c), then column c loses
    (column a) x.  For a = c, K is diagonal with the unit u = 1 + x at a:
    row a is scaled by u, then column a by u^{-1}, inverted once here.  Each
    scaling is memoised by the entry's coefficients, as `_conjugation_form`
    memoises its products: a walk meets few distinct entries."""
    if a == c:
        u = ring.one + x
        up, down = _memoised_scaling(u), _memoised_scaling(ring.invert(u))

        def conjugate(mats: List[List[List[RingElement]]]) -> None:
            for M in mats:
                M[a] = [up(e) for e in M[a]]
                for row in M:
                    row[a] = down(row[a])
        return conjugate
    times = _memoised_scaling(x)

    def conjugate(mats: List[List[List[RingElement]]]) -> None:
        for M in mats:
            M[a] = [e + times(f) for e, f in zip(M[a], M[c])]
            for row in M:
                row[c] = row[c] - times(row[a])
    return conjugate


def _memoised_scaling(s: RingElement):
    """e -> s e, memoised by e's flat coordinates."""
    memo: Dict[Tuple[int, ...], RingElement] = {}

    def scaled(e: RingElement) -> RingElement:
        y = memo.get(e.flat)
        if y is None:
            y = memo[e.flat] = s * e
        return y
    return scaled


def def_set(rhobar: Representation, ring: FiniteLocalRing,
            cap_maps: int = DEFAULT_MAP_CAP) -> DefSet:
    """Lifts up to strict equivalence, with canonical (key-least) representatives.

    For n = 1 every class is one lift, as R is commutative.  Otherwise each
    orbit is closed under `_layer_generators`, conjugating only the generator
    matrices, each generator acting as one row update and one column update
    (`_conjugate_in_place`, no matrix product or inverse), and must have
    |Gamma| / |C(rho)| lifts, C(rho) = 1 + V the solutions of rho K = K rho
    (`_conjugation_form`); Gamma is never listed.
    """
    lifts = enumerate_lifts(rhobar, ring, cap_maps)
    n = rhobar.n
    if n == 1:
        return DefSet(lifts, [1] * len(lifts), len(lifts))
    total = maximal_ideal(ring).size ** (n * n)
    index: Dict[Tuple[int, ...], int] = {l.key(): i for i, l in enumerate(lifts)}
    conjugations = [_conjugate_in_place(ring, a, c, x)
                    for a, c, x in _layer_generators(ring, n)]
    seen = [False] * len(lifts)
    reps: List[Lift] = []
    sizes: List[int] = []
    for i, l in enumerate(lifts):
        if seen[i]:
            continue
        # lifts are in key order and earlier orbits are closed, so i is the
        # least index in its orbit
        seen[i] = True
        orbit = [[M.rows for M in l.rep.gen_matrices]]
        for gens in orbit:  # the loop reaches the lifts appended during it
            for conjugate in conjugations:
                conj = [[list(row) for row in M] for M in gens]
                conjugate(conj)
                j = index.get(tuple(v for M in conj for row in M for e in row
                                    for v in e.key()))
                if j is None:
                    raise InternalInconsistencyError(
                        f"the orbit of lift {i} reaches a conjugate that is not a lift")
                if not seen[j]:
                    seen[j] = True
                    orbit.append(conj)
        form, ni = _conjugation_form(ring, n, l.rep.gen_matrices, l.rep.gen_matrices)
        if len(orbit) * form.size_from(ni) != total:
            raise InternalInconsistencyError(
                f"an orbit of {len(orbit)} lifts, not |Gamma| / |C(rho)| = {total} / "
                f"{form.size_from(ni)}")
        reps.append(l)
        sizes.append(len(orbit))
    # no input reaches this: each lift is marked seen exactly once, as an
    # orbit's first element or when appended to it, and every lift is marked
    if sum(sizes) != len(lifts):
        raise InternalInconsistencyError("orbit sizes do not add up to the lift count")
    return DefSet(reps, sizes, len(lifts))


def unique_deformation_check(rhobar: Representation, ring: FiniteLocalRing,
                             **caps) -> bool:
    """For p not dividing |G| there is exactly one deformation class."""
    if rhobar.group.n % ring.base.p == 0:
        raise ValueError("the uniqueness statement requires p not dividing |G|")
    return def_set(rhobar, ring, **caps).class_count == 1


def _cocycle_system(rhobar: Representation) -> List[List[GRElt]]:
    """The Cayley-edge equations of Z^1(G, ad rhobar), over k.

    A lift s(rhobar(g)) + X_g over a square-zero layer is a homomorphism iff
    rhobar(a) X_g + X_a rhobar(g) = X_ag on every Cayley edge (a, g).  The
    X_y are built along the group's spanning tree as linear forms in the
    ngen * n^2 entries of the generator unknowns, so the tree edges hold by
    construction.  Returns, per edge (a, generator index) of `G.edges`, the
    n^2 rows of X_a rhobar(g) + rhobar(a) X_g - X_ag, row-major.
    """
    G, n, W = rhobar.group, rhobar.n, rhobar.ring.base
    add, sub, mul, zero = W.add, W.sub, W.mul, W.zero
    nn, D = n * n, len(G.generators) * n * n
    mats = [[[e.flat for e in row] for row in M.rows]
            for M in rhobar.matrices]

    def edge(Xa: List[List], a: int, gi: int) -> List[List]:
        """Entries of X_a rhobar(g) + rhobar(a) U_gi, row-major, as linear forms."""
        A, B = mats[a], mats[G.generators[gi]]
        out = []
        for i in range(n):
            for j in range(n):
                form = [zero] * D
                for k in range(n):
                    if B[k][j] != zero:
                        form = [add(x, mul(B[k][j], y))
                                for x, y in zip(form, Xa[i * n + k])]
                for k in range(n):
                    col = gi * nn + k * n + j
                    form[col] = add(form[col], A[i][k])
                out.append(form)
        return out

    X: List[Optional[List[List]]] = [None] * G.n
    X[G.identity] = [[zero] * D for _ in range(nn)]
    for y, parent, gi in G.tree:
        X[y] = edge(X[parent], parent, gi)
    rows = []
    for a, gi in G.edges:
        for lhs, rhs in zip(edge(X[a], a, gi), X[G.table[a][G.generators[gi]]]):
            rows.append([sub(x, y) for x, y in zip(lhs, rhs)])
    return rows


def tangent_dimension(rhobar: Representation) -> int:
    """dim_k H^1(G, ad rhobar), the tangent dimension, by linear algebra over k.

    A lift to k[eps] is rho(g) = s(rhobar(g)) + eps X_g, and it is a
    homomorphism iff the cocycle equations of `_cocycle_system` hold; their
    solution space is Z^1.  Conjugation by 1 + eps Y moves (X_g) by
    (Y rhobar(g) - rhobar(g) Y), and these span B^1.  The classes over k[eps]
    number q^t with t = dim Z^1 - dim B^1.
    """
    G, n, W = rhobar.group, rhobar.n, rhobar.ring.base
    if W.m != 1:
        raise RepresentationError("the tangent space is defined over the residue field")
    D = len(G.generators) * n * n
    # B^1 is the image of phi(Y) = rhobar(g) Y - Y rhobar(g), Y in M_n(k); over
    # the field k every Howell pivot is a unit, so pivots count the ranks
    form, ni = _conjugation_form(rhobar.ring, n, rhobar.gen_matrices,
                                 rhobar.gen_matrices, [rhobar.ring.one])
    z1 = D - len(HowellForm(W, _cocycle_system(rhobar), D).rows)
    b1 = sum(1 for j in form.pivot_cols if j < ni)
    return z1 - b1


# -- averaging -----------------------------------------------------------------------------


@dataclass
class MarandaCertificate:
    B0: Matrix
    precision: int  # the conjugation identity is certified at this precision
    p_exponent: int  # r with |G| = p^r s


def order_ideal(ring: FiniteLocalRing, group: FiniteGroup) -> Ideal:
    """The ideal J = |G| * m_R."""
    return scale_ideal(group.n, maximal_ideal(ring))


def maranda_average(rho1: Representation, rho2: Representation,
                    A: Matrix, J: Optional[Ideal] = None) -> MarandaCertificate:
    """Average the approximate intertwiner A into an exact one (at reduced precision).

    Requires A in I_n + M_n(m_R) and rho1(g) A = A rho2(g) mod M_n(J) for all g,
    with J = |G| m_R, built here unless the caller passes it.  When p | |G| the
    ring must be a precision model: dividing by |G| costs r = v_p(|G|) digits.
    When p does not divide |G| the order is a unit and the result is exact.
    """
    ring, G = rho1.ring, rho1.group
    if rho2.ring is not ring or rho2.group is not G:
        raise ValueError("representations must share a group and a ring")
    p = ring.base.p
    r, s = p_part(G, p)
    N = ring.base.m
    if r > 0 and ring.mode != "precision":
        raise ValueError(
            "p divides |G|, which is then a zero-divisor in every finite ring "
            "here; averaging needs a precision-model ring")
    if r >= N:
        raise ValueError(f"working precision {N} too small for p-exponent {r}")
    mR = maximal_ideal(ring)
    one = Matrix.identity(ring, rho1.n)
    if not all(mR.contains(e) for row in (A - one).rows for e in row):
        raise ValueError("A must be congruent to the identity mod m_R")
    if J is None:
        J = order_ideal(ring, G)
    for g in range(G.n):
        D = rho1.matrix(g) * A - A * rho2.matrix(g)
        if not all(J.contains(e) for row in D.rows for e in row):
            raise MarandaPreconditionError(
                f"intertwining congruence mod |G|*m fails at group element {g}", g)
    B = Matrix.zero(ring, rho1.n)
    for g in range(G.n):
        B = B + rho1.matrix(g) * A * rho2.matrix(G.inverse[g])
    B = B.scale(ring.invert(ring.from_int(s)))
    if r > 0:
        pr = ring.from_int(p ** r)
        B0 = B.transfer(ring, lambda e: exact_divide(e, pr))
        prec = N - r
    else:
        B0, prec = B, N
    for h in range(G.n):
        if not (rho1.matrix(h) * B0).agrees_at(B0 * rho2.matrix(h), prec):
            raise InternalInconsistencyError("averaging failed to produce an intertwiner; bug")
    if any(e.is_unit() for row in (B0 - one).rows for e in row):
        raise InternalInconsistencyError("averaged intertwiner left I_n + M_n(m_R); bug")
    return MarandaCertificate(B0, prec, r)


def maranda_decide(l1: Lift, l2: Lift,
                   surj: Optional[RingSurjection] = None
                   ) -> Tuple[bool, Optional[MarandaCertificate]]:
    """Strict equivalence over R, decided over the exact finite quotient R/J.

    The reductions mod J = |G| m_R are compared by finite search; a positive
    answer is certified by lifting the quotient conjugator and averaging.
    `surj` is the surjection R -> R/J when the caller already has it.
    """
    if surj is None:
        surj = quotient_ring(l1.rep.ring, order_ideal(l1.rep.ring, l1.rep.group))
    red1, red2 = ([M.transfer(surj.target, surj.project) for M in l.rep.gen_matrices]
                  for l in (l1, l2))
    witness = kernel_conjugator(surj.target, l1.rep.n, red1, red2)
    if witness is None:
        return False, None
    A = witness.transfer(l1.rep.ring, surj.section)
    return True, maranda_average(l1.rep, l2.rep, A, surj.kernel)


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


# -- derivations and square-zero extensions ---------------------------------------------------


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
