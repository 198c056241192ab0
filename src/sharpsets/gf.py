"""Arithmetic in GF(2^m).

Field elements are ints below 2^m, read as polynomials over GF(2) modulo a
fixed irreducible modulus (bit i = coefficient of x^i). Addition is xor.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .perm import expect

MAX_M = 16


def poly_mod(a: int, b: int) -> int:
    """The remainder of a divided by b != 0 in GF(2)[x]."""
    while a.bit_length() >= b.bit_length():
        a ^= b << (a.bit_length() - b.bit_length())
    return a


def is_irreducible(poly: int) -> bool:
    """Trial division by every polynomial of degree 1 .. deg/2."""
    deg = poly.bit_length() - 1
    if deg < 1:
        return False
    for d in range(1, deg // 2 + 1):
        for cand in range(1 << d, 1 << (d + 1)):
            if poly_mod(poly, cand) == 0:
                return False
    return True


@lru_cache(maxsize=None)
def default_modulus(m: int) -> int:
    """The smallest irreducible polynomial of degree m, e.g. x^2+x+1 for m=2.

    Candidates with zero constant term are skipped (they are divisible by x;
    only x itself is irreducible and it makes a degenerate modulus).
    """
    for cand in range((1 << m) | 1, 1 << (m + 1), 2):
        if is_irreducible(cand):
            return cand
    raise AssertionError("irreducible polynomial exists for every degree")


@dataclass(frozen=True)
class FieldSpec:
    """GF(2^m) with an explicit modulus; q = 2^m."""

    m: int
    modulus: int

    def __post_init__(self):
        if not 1 <= self.m <= MAX_M:
            raise ValueError(f"extension degree must be in 1..{MAX_M}")
        if self.modulus < 0:  # bit_length ignores the sign, and poly_mod would never end on it
            raise ValueError(f"modulus {self.modulus} is negative")
        if self.modulus.bit_length() - 1 != self.m:
            raise ValueError(f"modulus degree {self.modulus.bit_length() - 1} != m={self.m}")
        if not is_irreducible(self.modulus):
            raise ValueError(f"modulus {self.modulus:#x} is reducible")

    @property
    def q(self) -> int:
        return 1 << self.m

    def elements(self) -> range:
        return range(self.q)


def field_for_q(q: int, modulus: int | None = None) -> FieldSpec:
    """FieldSpec for GF(q), q a power of two."""
    m = q.bit_length() - 1
    if m < 1 or q != 1 << m:
        raise ValueError(f"q must be a power of two >= 2, got {q}")
    return FieldSpec(m, default_modulus(m) if modulus is None else modulus)


def mul(F: FieldSpec, a: int, b: int) -> int:
    p = 0
    while b:
        if b & 1:
            p ^= a
        a <<= 1
        b >>= 1
    # reduce the carry-less product modulo the field polynomial
    m = F.m
    mod = F.modulus
    while p.bit_length() > m:
        p ^= mod << (p.bit_length() - 1 - m)
    return p


def power(F: FieldSpec, a: int, e: int) -> int:
    r = 1
    while e:
        if e & 1:
            r = mul(F, r, a)
        a = mul(F, a, a)
        e >>= 1
    return r


def inv(F: FieldSpec, a: int) -> int:
    if a == 0:
        raise ZeroDivisionError("inverse of 0 in GF(2^m)")
    return power(F, a, F.q - 2)


def trace(F: FieldSpec, a: int) -> int:
    """Tr(a) = a + a^2 + a^4 + ... + a^(2^(m-1)), landing in {0, 1}."""
    t = 0
    x = a
    for _ in range(F.m):
        t ^= x
        x = mul(F, x, x)
    expect(t in (0, 1), "trace must land in the prime field")
    return t
