from __future__ import annotations

import pytest

from defring.errors import InternalInconsistencyError
from defring.galois import GaloisRing, default_irreducible, is_prime


def test_is_prime():
    assert [n for n in range(20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]


def test_default_irreducibles():
    assert default_irreducible(2, 1) == (0, 1)
    assert default_irreducible(2, 2) == (1, 1, 1)  # Y^2 + Y + 1
    assert default_irreducible(3, 2) == (1, 0, 1)  # Y^2 + 1
    with pytest.raises(ValueError):
        default_irreducible(2, 5)


def test_zp_m_arithmetic():
    W = GaloisRing(2, 3, 1)  # Z/8
    a, b = W.from_int(5), W.from_int(7)
    assert W.mul(a, b) == W.from_int(35 % 8)
    assert W.add(a, b) == W.from_int(4)
    assert W.val(W.from_int(4)) == 2
    assert W.val(W.zero) == 3
    assert W.inv(W.from_int(3)) == W.from_int(3)  # 3*3 = 9 = 1


def test_field_f4():
    F4 = GaloisRing(2, 1, 2)
    x = F4.gen
    # x^2 = x + 1 under Y^2 + Y + 1
    assert F4.mul(x, x) == F4.add(x, F4.one)
    # multiplicative group has order 3
    assert F4.pow(x, 3) == F4.one
    for a in F4.elements():
        if a != F4.zero:
            assert F4.mul(a, F4.inv(a)) == F4.one


def test_galois_ring_gr_4_2():
    """GR(2^2, 2): 16 elements, 12 units, every unit inverts exactly."""
    W = GaloisRing(2, 2, 2)
    units = [a for a in W.elements() if W.is_unit(a)]
    assert len(units) == 12
    for a in units:
        assert W.mul(a, W.inv(a)) == W.one


def test_reduce_lift_roundtrip():
    W = GaloisRing(5, 2, 1)
    k = W.residue_field
    for a in k.elements():
        assert W.reduce(W.lift(a)) == a


def test_a_wrong_residue_inverse_is_caught_after_newton(monkeypatch):
    # over Z/9 the residue field's inverse of 2 is made to answer 1, so
    # Newton's iteration starts off the inverse and stays at 0.  Only this
    # ring's residue field is patched: patching `pow` for every field makes
    # the ring checks fail before any CLI route inverts
    W = GaloisRing(3, 2, 1)
    k = W.residue_field
    monkeypatch.setattr(k, "pow", lambda a, e: k.one)
    with pytest.raises(InternalInconsistencyError,
                       match="^Newton iteration did not reach the inverse$"):
        W.inv(W.from_int(2))
