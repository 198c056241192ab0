import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from oracles import reference_point_perm, reference_proj_points

from sharpsets import geometry, gf, perm


def space(n, q):
    return geometry.symplectic_space(n, gf.field_for_q(q))


def unit(space_, i):
    v = [0] * space_.dim
    v[i] = 1
    return tuple(v)


def test_form_on_hyperbolic_pair():
    sp = space(2, 2)
    assert geometry.symplectic_form(sp, unit(sp, 0), unit(sp, 1)) == 1
    assert geometry.symplectic_form(sp, unit(sp, 0), unit(sp, 2)) == 0


def test_form_alternating_random():
    sp = space(2, 4)
    rng = random.Random(0)
    for _ in range(50):
        x = sp.vectors[rng.randrange(sp.num_vectors)]
        y = sp.vectors[rng.randrange(sp.num_vectors)]
        assert geometry.symplectic_form(sp, x, x) == 0
        assert geometry.symplectic_form(sp, x, y) == geometry.symplectic_form(sp, y, x)


@pytest.mark.parametrize("n,q", [(2, 2), (2, 4), (3, 2), (2, 8)])
def test_proj_point_is_the_canonical_representative(n, q):
    sp = space(n, q)
    assert [sp.proj_point(v) for v in sp.vectors] == reference_proj_points(sp)
    assert all(next(filter(None, rep)) == 1 for rep in sp.proj_points)


@pytest.mark.parametrize("n,q", [(2, 2), (2, 4), (3, 2), (2, 8)])
def test_scalar_maps_are_the_scaled_representatives(n, q):
    sp = space(n, q)
    index = {v: i for i, v in enumerate(sp.vectors)}
    assert sp.scalar_maps == [tuple(index[sp.scale(c, rep)] for rep in sp.proj_points) for c in range(1, q)]


def transvections(sp):
    """The maps symplectic_generators turns into permutations, in its order."""
    units = geometry.unit_vectors(sp)
    axes = units + [sp.add(units[i], units[i + 2]) for i in range(0, sp.dim - 2, 2)]
    return [geometry._transvection(sp, u, 1 << k) for u in axes for k in range(sp.field.m)]


@pytest.mark.parametrize("n, q, modulus", [(2, 2, None), (3, 2, None), (2, 4, None), (2, 8, None), (4, 2, None), (2, 8, 13)])
def test_packed_point_perms_match_the_per_point_reference(n, q, modulus):
    # every transvection and the Frobenius map, read off the 2nm one-bit vectors, against evaluation on every point
    sp = geometry.symplectic_space(n, gf.field_for_q(q, modulus))
    for action in ("projective", "vector"):
        reference = tuple(perm.as_perm(reference_point_perm(sp, t, action)) for t in transvections(sp))
        assert geometry.symplectic_generators(sp, action).generators == reference

    def sq(v):
        return tuple(gf.mul(sp.field, c, c) for c in v)

    assert geometry.frobenius_point_map(sp) == reference_point_perm(sp, sq, "projective")
    assert geometry._point_perm(sp, sq, "vector") == reference_point_perm(sp, sq, "vector")


def test_point_counts():
    sp = space(2, 4)
    assert sp.num_vectors == 4**4 - 1
    assert sp.num_proj_points == (4**4 - 1) // 3


@pytest.mark.parametrize(
    "n,q,expected_e",
    [(2, 2, 5), (3, 2, 27), (2, 4, 17)],
)
def test_elliptic_quadric_sizes(n, q, expected_e):
    # formula (q^(2n-1) - 1)/(q - 1) - q^(n-1), confirmed by point enumeration
    sp = space(n, q)
    quad = geometry.elliptic_quadric(sp)
    formula = (q ** (2 * n - 1) - 1) // (q - 1) - q ** (n - 1)
    assert formula == expected_e
    assert quad.projective_size == expected_e
    assert quad.vector_size == (q - 1) * expected_e
    # both side sizes of the certificate are odd
    assert quad.projective_size % 2 == 1 and (q + 1) % 2 == 1


@pytest.mark.parametrize(
    "n,q,expected",
    [(2, 2, 35), (3, 2, 651), (2, 4, 357)],
)
def test_line_counts(n, q, expected):
    # oracle: point pairs divided by pairs per line
    sp = space(n, q)
    npts = sp.num_proj_points
    assert npts * (npts - 1) // 2 // ((q + 1) * q // 2) == expected
    assert len(geometry.enumerate_lines(sp)) == expected


def test_lines_have_q_plus_one_points():
    sp = space(2, 4)
    for line in geometry.enumerate_lines(sp)[:30]:
        assert line.points.bit_count() == 5


def test_nonsingular_line_detection():
    sp = space(2, 2)
    e = [unit(sp, i) for i in range(4)]
    hyper = geometry.line_through(sp, e[0], e[1])
    isotropic = geometry.line_through(sp, e[0], e[2])
    assert geometry.is_nonsingular_line(sp, hyper)
    assert not geometry.is_nonsingular_line(sp, isotropic)


def test_nonsingular_line_census_pg32():
    # enumerate and classify all 35 lines; cross-checked against the
    # hyperbolic-pair count q^(2n-2) (q^(2n)-1)/(q^2-1) = 20
    sp = space(2, 2)
    ns = geometry.nonsingular_lines(sp)
    assert len(ns) == 20
    assert geometry.nonsingular_line_count(2, 2) == 20


@pytest.mark.parametrize("n,q", [(2, 2), (3, 2), (2, 4)])
def test_nonsingular_census_matches_formula(n, q):
    sp = space(n, q)
    assert len(geometry.nonsingular_lines(sp)) == geometry.nonsingular_line_count(n, q)


@pytest.mark.parametrize("n,q", [(2, 2), (3, 2), (2, 4)])
def test_quadric_meets_nonsingular_lines_evenly(n, q):
    # the family premise: every nonsingular line meets the quadric in 0 or 2
    # points, and the lifted spectrum is {0, 2(q-1)}
    sp = space(n, q)
    quad = geometry.elliptic_quadric(sp)
    proj_sizes = set()
    vec_sizes = set()
    for line in geometry.nonsingular_lines(sp):
        proj_sizes.add((line.points & quad.projective_set).bit_count())
        lifted = geometry.vector_lift(sp, line.points)
        vec_sizes.add((lifted & quad.vector_set).bit_count())
    assert proj_sizes <= {0, 2}
    assert 2 in proj_sizes
    assert vec_sizes <= {0, 2 * (q - 1)}


def test_sp_order_formula():
    assert geometry.sp_order(2, 2) == 720
    assert geometry.sp_order(3, 2) == 1451520
    assert geometry.sp_order(2, 4) == 979200


def test_symplectic_generators_enumerate_sp42():
    sp = space(2, 2)
    spec = geometry.symplectic_generators(sp, "projective")
    enum = perm.enumerate_group(spec)
    assert enum.order == geometry.sp_order(2, 2)


def test_generators_preserve_form_and_lines():
    sp = space(2, 2)
    spec = geometry.symplectic_generators(sp, "projective")
    ns = {l.points for l in geometry.nonsingular_lines(sp)}
    for g in spec.generators:
        for pts in ns:
            assert perm.apply_to_set(g, pts) in ns


def test_frobenius_preserves_nonsingular_family():
    sp = space(2, 4)
    frob = geometry.frobenius_point_map(sp)
    ns = {l.points for l in geometry.nonsingular_lines(sp)}
    for pts in ns:
        assert perm.apply_to_set(frob, pts) in ns


def test_vector_lift_q2_is_identity_on_indices():
    sp = space(2, 2)
    quad = geometry.elliptic_quadric(sp)
    # q = 2: vectors and projective points coincide index by index, so the one scalar map is the identity
    assert sp.scalar_maps == [tuple(range(sp.num_vectors))]
    assert geometry.vector_lift(sp, quad.projective_set) == quad.projective_set


def test_vector_lift_sizes_q4():
    sp = space(2, 4)
    quad = geometry.elliptic_quadric(sp)
    assert geometry.vector_lift(sp, quad.projective_set).bit_count() == 3 * 17 == 51
    line = geometry.enumerate_lines(sp)[0]
    assert geometry.vector_lift(sp, line.points).bit_count() == 15  # (q-1)(q+1)


@pytest.mark.parametrize("q", [2, 4, 8])
def test_vector_lift_is_the_preimage_of_the_projection(q):
    sp = space(2, q)
    quad = geometry.elliptic_quadric(sp)
    rng = random.Random(q)
    for proj_set in (quad.projective_set, 1, rng.getrandbits(sp.num_proj_points), (1 << sp.num_proj_points) - 1):
        brute = sum(1 << i for i, v in enumerate(sp.vectors) if proj_set >> sp.proj_point(v) & 1)
        assert geometry.vector_lift(sp, proj_set) == brute


def test_polarization_identity_exhaustive():
    for n, q in [(2, 2), (3, 2), (2, 4)]:
        sp = space(n, q)
        quad = geometry.elliptic_quadric(sp)
        # elliptic_quadric re-checks polarization on construction; assert a
        # couple of instances here directly for visibility
        x, y = sp.vectors[1], sp.vectors[5]
        lhs = (
            geometry.quadric_value(sp, quad.delta, sp.add(x, y))
            ^ geometry.quadric_value(sp, quad.delta, x)
            ^ geometry.quadric_value(sp, quad.delta, y)
        )
        assert lhs == geometry.symplectic_form(sp, x, y)


MUTATED_QUADRIC = """
import sys
from sharpsets import geometry, gf
from sharpsets.perm import InvariantViolation


def mutated(space, delta, v):  # the cross term x_{2n-2} x_{2n-1} becomes x_{2n-2}^2
    F = space.field
    acc = 0
    for i in range(0, space.dim - 2, 2):
        acc ^= gf.mul(F, v[i], v[i + 1])
    a, b = v[-2], v[-1]
    return acc ^ gf.mul(F, a, a) ^ gf.mul(F, a, a) ^ gf.mul(F, delta, gf.mul(F, b, b))


geometry.quadric_value = mutated
for q in (2, 4):
    space = geometry.symplectic_space(2, gf.field_for_q(q))
    delta = next(a for a in space.field.elements() if gf.trace(space.field, a) == 1)
    for check in (lambda: geometry.elliptic_quadric(space), lambda: geometry._check_polarization(space, delta)):
        try:
            check()
        except InvariantViolation as exc:
            print(q, type(exc).__name__)
"""


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_mutated_quadric_is_refused(flags):
    # the point counts catch this mutant first; the F_2-basis polarization
    # check must catch it on its own as well
    src = str(Path(geometry.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, *flags, "-c", MUTATED_QUADRIC],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.splitlines() == ["2 InvariantViolation"] * 2 + ["4 InvariantViolation"] * 2


@pytest.mark.parametrize("n, q", [(2, 2), (3, 2), (2, 4)])
def test_polarization_basis_check_agrees_with_all_pairs(n, q):
    # reference: the identity the basis check certifies, on every pair of vectors
    sp = space(n, q)
    delta = geometry.elliptic_quadric(sp).delta
    value = {v: geometry.quadric_value(sp, delta, v) for v in sp.vectors}
    value[(0,) * sp.dim] = 0
    for x in sp.vectors[:: 1 if q == 2 else 5]:
        for y in sp.vectors:
            assert value[sp.add(x, y)] ^ value[x] ^ value[y] == geometry.symplectic_form(sp, x, y)


def test_unit_vectors():
    sp = space(2, 4)
    assert geometry.unit_vectors(sp)[:2] == [(1, 0, 0, 0), (0, 1, 0, 0)]
    basis = geometry.unit_vectors(sp, [1, 2])
    assert len(basis) == 8 and basis[:3] == [(1, 0, 0, 0), (2, 0, 0, 0), (0, 1, 0, 0)]
