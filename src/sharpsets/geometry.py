"""Symplectic spaces over GF(2^m) and an elliptic quadric polarizing to the form.

Points come in two flavours: nonzero vectors of F_q^(2n), and projective
points of PG(2n-1, q) represented by the scalar multiple whose first nonzero
coordinate is 1. Both are indexed deterministically (lexicographic vector
order), so every downstream bitset is reproducible; vector index i packs
to the int i + 1. Transvections, scalings and the Frobenius map are
F_2-linear, so each is read off its images of the 2nm one-bit vectors.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

from . import gf
from .gf import FieldSpec
from .perm import GroupSpec, Perm, apply_to_set, expect

Vector = tuple[int, ...]


@dataclass(eq=False)
class SymplecticSpace:
    """F_q^(2n) with the standard alternating form on hyperbolic coordinate pairs."""

    n: int
    field: FieldSpec
    vectors: list[Vector] = field(repr=False)           # all nonzero vectors, lex order
    proj_points: list[Vector] = field(repr=False)       # canonical representatives
    scalar_maps: list[tuple[int, ...]] = field(repr=False)  # for c = 1..q-1: projective index -> index of c * rep
    proj_of: list[int] = field(repr=False)              # vector index -> projective index, read off scalar_maps

    @property
    def q(self) -> int:
        return self.field.q

    @property
    def dim(self) -> int:
        return 2 * self.n

    @property
    def num_vectors(self) -> int:
        return len(self.vectors)

    @property
    def num_proj_points(self) -> int:
        return len(self.proj_points)

    def pack(self, v: Vector) -> int:  # m bits per coordinate, the first highest: lex order is numeric order
        return functools.reduce(lambda x, c: x << self.field.m | c, v, 0)

    def proj_point(self, v: Vector) -> int:
        return self.proj_of[self.pack(v) - 1]

    def add(self, u: Vector, v: Vector) -> Vector:
        return tuple(a ^ b for a, b in zip(u, v))

    def scale(self, c: int, v: Vector) -> Vector:
        return tuple(gf.mul(self.field, c, x) for x in v)


def symplectic_space(n: int, field: FieldSpec) -> SymplecticSpace:
    if n < 2:
        raise ValueError("need n >= 2")
    q = field.q
    vectors = [v for v in itertools.product(range(q), repeat=2 * n) if any(v)]
    # lex order meets each point's representative (first nonzero coordinate 1) before its other multiples
    reps = [i for i, v in enumerate(vectors) if next(filter(None, v)) == 1]
    space = SymplecticSpace(n, field, vectors, [vectors[i] for i in reps], [], [0] * len(vectors))
    scalings = (_point_perm(space, functools.partial(space.scale, c), "vector") for c in range(1, q))
    space.scalar_maps = [tuple(map(image.__getitem__, reps)) for image in scalings]
    expect(set(itertools.chain(*space.scalar_maps)) == set(range(len(vectors))), "c * rep, c != 0, misses a vector")
    for scalar_map in space.scalar_maps:
        for i, k in enumerate(scalar_map):
            space.proj_of[k] = i
    expect(len(vectors) == q ** (2 * n) - 1, "vector count")
    expect(len(reps) == (q ** (2 * n) - 1) // (q - 1), "projective point count")
    return space


def unit_vectors(space: SymplecticSpace, scalars=(1,)) -> list[Vector]:
    """c e_i for every coordinate i and every scalar c, ordered by i, then c."""
    return [tuple(c * (j == i) for j in range(space.dim)) for i in range(space.dim) for c in scalars]


def symplectic_form(space: SymplecticSpace, x: Vector, y: Vector) -> int:
    """sum over coordinate pairs of x_{2i} y_{2i+1} + x_{2i+1} y_{2i}."""
    F = space.field
    acc = 0
    for i in range(0, space.dim, 2):
        acc ^= gf.mul(F, x[i], y[i + 1]) ^ gf.mul(F, x[i + 1], y[i])
    return acc


# ---------------------------------------------------------------------------
# Elliptic quadric


@dataclass
class QuadricData:
    """Zero set of Q(x) = x0 x1 + ... + x_{2n-4} x_{2n-3} + (x_{2n-2}^2 + x_{2n-2} x_{2n-1} + delta x_{2n-1}^2)."""

    delta: int
    projective_set: int     # bitset over projective point indices
    vector_set: int         # bitset over vector indices (preimage under projection)

    @property
    def projective_size(self) -> int:
        return self.projective_set.bit_count()

    @property
    def vector_size(self) -> int:
        return self.vector_set.bit_count()


def quadric_value(space: SymplecticSpace, delta: int, v: Vector) -> int:
    F = space.field
    acc = 0
    for i in range(0, space.dim - 2, 2):
        acc ^= gf.mul(F, v[i], v[i + 1])
    a, b = v[-2], v[-1]
    acc ^= gf.mul(F, a, a) ^ gf.mul(F, a, b) ^ gf.mul(F, delta, gf.mul(F, b, b))
    return acc


def elliptic_quadric(space: SymplecticSpace) -> QuadricData:
    """The elliptic quadric whose polar form is the space's symplectic form.

    delta is the least field element of absolute trace 1, which makes the
    binary summand x^2 + xy + delta y^2 irreducible, so the quadric is of
    minus type. Both point counts and the polarization identity are checked.
    """
    F = space.field
    delta = next((a for a in F.elements() if gf.trace(F, a) == 1), None)
    expect(delta is not None, "trace is onto {0,1} for every valid field")
    proj_set = 0
    for i, rep in enumerate(space.proj_points):
        if quadric_value(space, delta, rep) == 0:
            proj_set |= 1 << i
    quad = QuadricData(delta, proj_set, vector_lift(space, proj_set))
    q, n = space.q, space.n
    expected = (q ** (2 * n - 1) - 1) // (q - 1) - q ** (n - 1)
    expect(quad.projective_size == expected, f"elliptic point count {quad.projective_size}, not {expected}")
    expect(quad.vector_size == (q - 1) * expected, "elliptic vector count")
    _check_polarization(space, delta)
    return quad


def _check_polarization(space: SymplecticSpace, delta: int) -> None:
    """Q(x+y) + Q(x) + Q(y) == <x, y> on every ordered pair of an F_2-basis.

    Q is a sum of products of F_2-linear maps of the coordinates, so its
    left side is biadditive, and so is the form: gf.mul is a carry-less
    product reduced mod the modulus, hence F_2-bilinear. Agreement on the
    (2nm)^2 pairs of the basis {x^k e_i} therefore holds for all vectors.
    """
    basis = unit_vectors(space, [1 << k for k in range(space.field.m)])
    value = {v: quadric_value(space, delta, v) for v in basis}
    for x, y in itertools.product(basis, repeat=2):
        lhs = quadric_value(space, delta, space.add(x, y)) ^ value[x] ^ value[y]
        expect(lhs == symplectic_form(space, x, y), f"quadric does not polarize to the form on {x}, {y}")


# ---------------------------------------------------------------------------
# Lines of PG(2n-1, q)


@dataclass(frozen=True)
class ProjectiveLine:
    """The q+1 projective points spanned by two independent vectors."""

    points: int          # bitset over projective indices
    u: Vector
    v: Vector


def line_through(space: SymplecticSpace, u: Vector, v: Vector) -> ProjectiveLine:
    pts = 1 << space.proj_point(u) | 1 << space.proj_point(v)
    for c in range(1, space.q):
        pts |= 1 << space.proj_point(space.add(u, space.scale(c, v)))
    expect(pts.bit_count() == space.q + 1, "a line has q + 1 points")
    return ProjectiveLine(pts, u, v)


def enumerate_lines(space: SymplecticSpace) -> list[ProjectiveLine]:
    """Every line exactly once, keyed by its two lowest-index points."""
    lines = []
    npts = space.num_proj_points
    for i in range(npts):
        for j in range(i + 1, npts):
            line = line_through(space, space.proj_points[i], space.proj_points[j])
            low = line.points & ((1 << j) - 1)
            if low == (1 << i):  # i, j are the two smallest members
                lines.append(line)
    pairs = npts * (npts - 1) // 2
    per_line = (space.q + 1) * space.q // 2
    expect(len(lines) == pairs // per_line, "line census")
    return lines


def is_nonsingular_line(space: SymplecticSpace, line: ProjectiveLine) -> bool:
    """True when the form does not vanish on a (hence any) spanning pair."""
    return symplectic_form(space, line.u, line.v) != 0


def nonsingular_lines(space: SymplecticSpace) -> list[ProjectiveLine]:
    return [l for l in enumerate_lines(space) if is_nonsingular_line(space, l)]


def nonsingular_line_count(n: int, q: int) -> int:
    """Independent census: hyperbolic-pair count divided by pairs per line."""
    return q ** (2 * n - 2) * (q ** (2 * n) - 1) // (q * q - 1)


# ---------------------------------------------------------------------------
# The symplectic group via transvections, as permutations of points


def sp_order(n: int, q: int) -> int:
    """|Sp(2n, q)| = q^(n^2) * prod (q^(2i) - 1)."""
    order = q ** (n * n)
    for i in range(1, n + 1):
        order *= q ** (2 * i) - 1
    return order


def _transvection(space: SymplecticSpace, u: Vector, lam: int):
    F = space.field

    def apply(x: Vector) -> Vector:
        c = gf.mul(F, lam, symplectic_form(space, x, u))
        if c == 0:
            return x
        return space.add(x, space.scale(c, u))

    return apply


def symplectic_generators(space: SymplecticSpace, action: str = "projective") -> GroupSpec:
    """Transvections x -> x + lam <x,u> u generating Sp(2n, q), as point permutations.

    u runs over e_0, ..., e_{2n-1} and e_{2i} + e_{2i+2}, lam over the basis
    1, x, ..., x^(m-1) of GF(2^m): (3n-1)m maps. Each is linear, so checking
    that it preserves the bilinear form on all pairs of unit vectors checks
    it everywhere (the units' images against their Gram matrix); then it
    becomes a permutation of the chosen point set ("projective" or "vector").
    """
    if action not in ("projective", "vector"):
        raise ValueError("action must be 'projective' or 'vector'")
    units = unit_vectors(space)
    gram = [symplectic_form(space, x, y) for x, y in itertools.product(units, repeat=2)]
    axes = units + [space.add(units[i], units[i + 2]) for i in range(0, space.dim - 2, 2)]
    gens = []
    for u in axes:
        for k in range(space.field.m):
            t = _transvection(space, u, 1 << k)
            for (x, y), form in zip(itertools.product(map(t, units), repeat=2), gram):  # t once per unit
                expect(symplectic_form(space, x, y) == form, f"transvection along {u}")
            gens.append(_point_perm(space, t, action))
    degree = space.num_proj_points if action == "projective" else space.num_vectors
    return GroupSpec(
        degree,
        tuple(gens),
        name=f"Sp({space.dim},{space.q})-{action}",
        declared_order=sp_order(space.n, space.q),
    )


def _point_perm(space: SymplecticSpace, vec_map, action: str) -> Perm:
    """An F_2-linear vec_map on vectors or projective points, read off its images of the 2nm one-bit vectors.

    Packed, image[x | 1 << b] = image[x] ^ image[1 << b] for x < 2^b; vector i goes to image[i + 1] - 1.
    """
    image = [0]
    for b in range(space.dim * space.field.m):
        bit = space.pack(vec_map(space.vectors[(1 << b) - 1]))
        image += [y ^ bit for y in image]
    if action == "vector":
        return tuple(y - 1 for y in image[1:])
    return tuple(space.proj_of[image[k + 1] - 1] for k in space.scalar_maps[0])  # c = 1: each representative's index


def frobenius_point_map(space: SymplecticSpace) -> Perm:
    """Coordinatewise squaring as a permutation of projective points.

    It is semilinear and fixes the form's (prime field) coefficients, so it
    maps lines to lines and preserves nonsingularity; it is F_2-linear.
    """
    F = space.field

    def sq(v: Vector) -> Vector:
        return tuple(gf.mul(F, c, c) for c in v)

    return _point_perm(space, sq, "projective")


def vector_lift(space: SymplecticSpace, proj_set: int) -> int:
    """Preimage of a projective point set under the projection of nonzero vectors: its scalar-map images' union."""
    out = 0
    for scalar_map in space.scalar_maps:
        out |= apply_to_set(scalar_map, proj_set)
    return out
