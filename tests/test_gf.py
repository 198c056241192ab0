import pytest

from sharpsets import gf


def test_default_moduli():
    assert gf.default_modulus(1) == 0b11        # x + 1
    assert gf.default_modulus(2) == 0b111       # x^2 + x + 1
    assert gf.default_modulus(3) == 0b1011      # x^3 + x + 1
    assert gf.default_modulus(11) == (1 << 11) | 0b101  # x^11 + x^2 + 1


def test_reducible_modulus_rejected():
    with pytest.raises(ValueError):
        gf.FieldSpec(2, 0b101)  # x^2 + 1 = (x+1)^2


def test_negative_modulus_rejected_at_once():
    # bit_length ignores the sign: -9 would pass as degree 3 and poly_mod(-9, 3) would never end
    with pytest.raises(ValueError, match="negative"):
        gf.FieldSpec(3, -9)
    with pytest.raises(ValueError, match="negative"):
        gf.field_for_q(4, -7)


def test_char_two_addition():
    F = gf.field_for_q(8)
    for a in F.elements():  # addition is xor: a (a + 1) = a^2 + a
        assert gf.mul(F, a, a ^ 1) == gf.mul(F, a, a) ^ a
        assert gf.mul(F, 1, a) == a


def test_gf4_multiplication_by_hand():
    # x * x = x^2 = x + 1 after reduction by x^2 + x + 1
    F = gf.field_for_q(4)
    assert gf.mul(F, 0b10, 0b10) == 0b11


def test_field_axioms_exhaustive_up_to_m4():
    for m in (1, 2, 3, 4):
        F = gf.FieldSpec(m, gf.default_modulus(m))
        elems = list(F.elements())
        for a in elems:
            for b in elems:
                assert gf.mul(F, a, b) == gf.mul(F, b, a)
                for c in elems:
                    assert gf.mul(F, gf.mul(F, a, b), c) == gf.mul(F, a, gf.mul(F, b, c))
                    assert gf.mul(F, a, b ^ c) == gf.mul(F, a, b) ^ gf.mul(F, a, c)
        for a in elems[1:]:
            assert gf.mul(F, a, gf.inv(F, a)) == 1


def test_inverse_of_zero():
    F = gf.field_for_q(4)
    with pytest.raises(ZeroDivisionError):
        gf.inv(F, 0)


def test_trace_basics():
    F2 = gf.field_for_q(2)
    assert gf.trace(F2, 0) == 0
    assert gf.trace(F2, 1) == 1
    F4 = gf.field_for_q(4)
    # trace(x) = x + x^2 = x + (x+1) = 1
    assert gf.trace(F4, 0b10) == 1


def test_trace_linear_and_onto():
    for m in (1, 2, 3, 4):
        F = gf.FieldSpec(m, gf.default_modulus(m))
        values = set()
        for a in F.elements():
            values.add(gf.trace(F, a))
            for b in F.elements():
                assert gf.trace(F, a ^ b) == gf.trace(F, a) ^ gf.trace(F, b)
        assert values == {0, 1}


def test_alternate_modulus_still_a_field():
    # x^3 + x^2 + 1 is the other irreducible cubic; the axioms must not care
    F = gf.FieldSpec(3, 0b1101)
    for a in F.elements():
        for b in F.elements():
            assert gf.mul(F, a, b) == gf.mul(F, b, a)
        if a:
            assert gf.mul(F, a, gf.inv(F, a)) == 1
    assert {gf.trace(F, a) for a in F.elements()} == {0, 1}
