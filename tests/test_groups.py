from __future__ import annotations

import pytest

from defring.groups import (FiniteGroup, GroupConstructionError, abelianization,
                            build_group, commutator_subgroup, cyclic, dihedral,
                            direct_product, extend_and_verify_hom,
                            from_cayley_table, p_part, quaternion8, symmetric)
from defring.local_ring import build_galois_ring


def test_orders():
    assert cyclic(6).n == 6
    assert dihedral(4).n == 8
    assert symmetric(3).n == 6
    assert symmetric(4).n == 24
    assert quaternion8().n == 8
    assert direct_product(cyclic(2), cyclic(2)).n == 4


def test_group_axioms_checked_exhaustively():
    for G in (cyclic(5), dihedral(3), symmetric(3), quaternion8()):
        e = G.identity
        for a in range(G.n):
            assert G.table[e][a] == a == G.table[a][e]
            assert G.table[a][G.inverse[a]] == e


def test_bad_cayley_table_rejected():
    with pytest.raises(GroupConstructionError):
        from_cayley_table([[0, 1], [1, 1]])  # not a Latin square / no inverse


def _order_of(G: FiniteGroup, a: int) -> int:
    e, x = 1, a
    while x != G.identity:
        x = G.table[x][a]
        e += 1
    return e


def test_element_orders():
    G = dihedral(4)
    orders = sorted(_order_of(G, a) for a in range(G.n))
    assert orders == [1, 2, 2, 2, 2, 2, 4, 4]
    Q = quaternion8()
    assert sorted(_order_of(Q, a) for a in range(Q.n)) == [1, 2, 4, 4, 4, 4, 4, 4]


def test_p_part():
    assert p_part(symmetric(4), 2) == (3, 3)
    assert p_part(symmetric(3), 3) == (1, 2)
    assert p_part(cyclic(5), 2) == (0, 5)
    with pytest.raises(ValueError):
        p_part(cyclic(4), 4)


def test_commutator_subgroups():
    assert len(commutator_subgroup(cyclic(6))) == 1
    assert len(commutator_subgroup(symmetric(3))) == 3  # A3
    assert len(commutator_subgroup(symmetric(4))) == 12  # A4
    assert len(commutator_subgroup(quaternion8())) == 2  # {1, -1}


def test_abelianizations():
    assert abelianization(cyclic(6)) == [6]
    assert abelianization(symmetric(3)) == [2]
    assert abelianization(symmetric(4)) == [2]
    assert abelianization(quaternion8()) == [2, 2]
    assert abelianization(dihedral(4)) == [2, 2]
    assert abelianization(direct_product(cyclic(2), cyclic(4))) == [2, 4]
    assert abelianization(direct_product(cyclic(2), cyclic(3))) == [6]
    assert abelianization(cyclic(1)) == []


def test_build_group_dispatch():
    assert build_group("cyclic", [7]).n == 7
    assert build_group("klein4").n == 4
    assert abelianization(build_group("klein4")) == [2, 2]
    with pytest.raises(GroupConstructionError):
        build_group("monster")


def test_extend_and_verify_hom_into_ring():
    G = cyclic(2)
    R = build_galois_ring(2, 4, 1)  # Z/16
    img_good = R.from_int(15)  # 15^2 = 225 = 1 mod 16
    images, failure = extend_and_verify_hom(G, R.one, [img_good])
    assert failure is None
    assert images[G.identity] == R.one
    img_bad = R.from_int(3)  # 3^2 = 9 != 1
    images, failure = extend_and_verify_hom(G, R.one, [img_bad])
    assert images is None and failure is not None


def test_extend_and_verify_hom_group_to_group():
    # sign map S3 -> C2, as multiplicative +-1 in Z/9
    G = symmetric(3)
    R = build_galois_ring(3, 2, 1)
    sign = {a: (R.one if _is_even(G, a) else -R.one) for a in range(G.n)}
    gen_imgs = [sign[g] for g in G.generators]
    images, failure = extend_and_verify_hom(G, R.one, gen_imgs)
    assert failure is None
    assert images == [sign[a] for a in range(G.n)]


def _is_even(G: FiniteGroup, a: int) -> bool:
    # in S3 the odd permutations are exactly the three transpositions (order 2)
    return _order_of(G, a) != 2


# a loop of order 5 (a Latin square with identity 0) that is not associative
LOOP5 = [[0, 1, 2, 3, 4],
         [1, 0, 3, 4, 2],
         [2, 4, 0, 1, 3],
         [3, 2, 4, 0, 1],
         [4, 3, 1, 2, 0]]


def _loop_times_cyclic(loop, m):
    """The direct product loop x C_m, element (a, b) at index a * m + b."""
    n = len(loop)
    return [[loop[a][c] * m + (b + d) % m for c in range(n) for d in range(m)]
            for a in range(n) for b in range(m)]


def test_light_test_rejects_small_nonassociative_loop():
    for gens in ([1, 2], None):
        with pytest.raises(GroupConstructionError, match="associativity"):
            from_cayley_table(LOOP5, gens)


def test_light_test_rejects_large_nonassociative_loop():
    table = _loop_times_cyclic(LOOP5, 53)
    assert len(table) == 265 > 256
    with pytest.raises(GroupConstructionError, match="associativity"):
        from_cayley_table(table)
    # the same construction over a group is accepted
    S3 = symmetric(3)
    G = from_cayley_table(_loop_times_cyclic(S3.table, 50))
    assert G.n == 300 and G.identity == 0


def test_non_latin_and_non_generating_tables_rejected():
    with pytest.raises(GroupConstructionError, match="permutations"):
        from_cayley_table([[0, 1, 2], [1, 2, 0], [2, 1, 0]])  # columns repeat
    with pytest.raises(GroupConstructionError, match="generate"):
        from_cayley_table(cyclic(4).table, [2])


def test_build_group_without_param_rejected():
    for family in ("cyclic", "dihedral", "symmetric"):
        with pytest.raises(GroupConstructionError, match="param"):
            build_group(family)


def test_extend_and_verify_hom_reports_a_violated_cayley_edge():
    G = symmetric(3)
    R = build_galois_ring(3, 2, 1)
    images, failure = extend_and_verify_hom(G, R.one, [-R.one, -R.one])
    assert images is None
    a, g = failure
    assert g in G.generators
    # the edge is really violated: rebuild the images along the words
    phi = []
    for x in range(G.n):
        acc = R.one
        for _ in G.words[x]:
            acc = acc * -R.one
        phi.append(acc)
    assert phi[a] * -R.one != phi[G.table[a][g]]


def test_image_of_an_identity_generator_is_checked():
    # dihedral(1) lists the trivial rotation as its first generator
    G = dihedral(1)
    assert G.identity in G.generators
    R = build_galois_ring(2, 2, 1)
    gi = G.generators.index(G.identity)
    images = [R.one, R.one]
    assert extend_and_verify_hom(G, R.one, images)[1] is None
    images[gi] = -R.one
    assert extend_and_verify_hom(G, R.one, images)[0] is None
