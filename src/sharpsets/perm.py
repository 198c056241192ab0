"""Permutations, finite permutation groups from generators, induced actions.

A permutation of degree n is its sequence of images: g[x] is the image
of x, also written x^g. Composition acts left to right, x^(ab) = (x^a)^b,
so compose(a, b) means "apply a, then b". Every permutation this module
makes or stores has its degree's Perm type, bytes up to degree 256 and a
tuple of ints above, so elements compare and hash alike wherever they
came from; functions that take permutations from callers accept any int
sequence and convert it with as_perm.

Every enumerated group is one GroupEnumeration: the levels of its
stabilizer chain (enumerate_group), or, for an explicit list of
elements, that list as one level under the identity (listed). Its
elements are the products u_k ... u_1 of the levels' members, in one
fixed order: h u, h from the run of images of the first base point's
stabilizer and u from the first transversal, listed only when read.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
from collections import namedtuple
from operator import itemgetter

Perm = bytes | tuple[int, ...]  # bytes up to degree 256, a tuple above


def perm_type(n: int) -> type:
    return bytes if n <= 256 else tuple


def as_perm(images) -> Perm:
    """The images as the Perm type of their degree; a Perm comes back as it is."""
    return perm_type(len(images))(images)


class DegreeMismatch(ValueError):
    """Operands act on different point sets."""


class GroupTooLarge(RuntimeError):
    """Refused for size: a group, an orbit or a dense array would pass its cap; nothing truncated is returned."""


class InvariantViolation(AssertionError):
    """A correctness guard failed; raised explicitly so that `python -O` keeps it."""


class GroupFileError(ValueError):
    """A group file that does not describe permutations of its declared degree, or a group of its declared order."""


def expect(ok: bool, what: str) -> None:
    """Raise InvariantViolation(what) unless ok; unlike assert, kept under python -O."""
    if not ok:
        raise InvariantViolation(what)


def is_permutation(images) -> bool:
    n = len(images)
    seen = [False] * n
    for x in images:
        if not (0 <= x < n) or seen[x]:
            return False
        seen[x] = True
    return True


def identity(n: int) -> Perm:
    return as_perm(range(n))


def compose(a: Perm, b: Perm) -> Perm:
    """The product ab with x^(ab) = (x^a)^b."""
    if len(a) != len(b):
        raise DegreeMismatch(f"degree {len(a)} vs {len(b)}")
    return perm_type(len(a))(map(b.__getitem__, a))


def inverse(g: Perm) -> Perm:
    inv = [0] * len(g)
    for x, y in enumerate(g):
        inv[y] = x
    return as_perm(inv)


def apply_to_set(g: Perm, point_set: int) -> int:
    """Image of a bitset of points under g."""
    out = 0
    while point_set:
        low = point_set & -point_set
        out |= 1 << g[low.bit_length() - 1]
        point_set ^= low
    return out


def from_cycles(n: int, *cycles) -> Perm:
    """Permutation of degree n from disjoint cycles, e.g. from_cycles(4, (0, 1), (2, 3))."""
    images = list(range(n))
    for cyc in cycles:
        for i, x in enumerate(cyc):
            images[x] = cyc[(i + 1) % len(cyc)]
    if not is_permutation(images):
        raise ValueError(f"cycles {cycles} are not disjoint on {n} points")
    return as_perm(images)


def cycle_type(g: Perm) -> tuple[int, ...]:
    lengths = []
    seen = [False] * len(g)
    for start in range(len(g)):
        if seen[start]:
            continue
        length, x = 0, start
        while not seen[x]:
            seen[x] = True
            length += 1
            x = g[x]
        lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


def inversions(g: Perm) -> int:
    """|{(x, y) : x < y, x^g > y^g}|."""
    n = len(g)
    return sum(1 for x in range(n) for y in range(x + 1, n) if g[x] > g[y])


def parity(g: Perm) -> int:
    """0 for even, 1 for odd; equals inversions(g) mod 2."""
    return inversions(g) & 1


def cycle_parity(g: Perm) -> int:
    """Parity from the cycle type: (n - number of cycles) mod 2."""
    return (len(g) - len(cycle_type(g))) & 1


def is_fixed_point_free(g: Perm) -> bool:
    return all(y != x for x, y in enumerate(g))


def is_sharply_transitive(elements: list[Perm], degree: int) -> bool:
    """Exactly one element maps x to y for every ordered pair of points: degree elements, each point's images distinct."""
    return len(elements) == degree and all(len(set(images)) == degree for images in zip(*elements))


class GroupSpec(namedtuple("GroupSpec", "degree generators name declared_order path")):
    """A permutation group given by generators on {0, ..., degree-1}; any int sequences, stored as Perms.

    path is the group file it was read from, if any. Like the package's other frozen records, a namedtuple validated
    in __new__: immutable, and equal and hashed by value."""

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # so _replace checks its copy too

    def __new__(cls, degree: int, generators, name: str = "", declared_order: int | None = None, path: str = ""):
        if not generators:
            raise ValueError("generator list is empty")
        for g in generators:
            if len(g) != degree:
                raise DegreeMismatch(f"generator of length {len(g)}, degree {degree}")
            if not is_permutation(g):
                raise ValueError(f"not a permutation: {g}")
        return super().__new__(cls, degree, tuple(map(as_perm, generators)), name, declared_order, path)


class GroupEnumeration:
    """A finite permutation group from its stabilizer chain's levels, as the products h u: u from the first level's
    transversal (.transversal) outer, and h inner from that base point's stabilizer H, kept as one run of images
    (.stabilizer). The elements are listed only when read. A listed group (see listed) is one level of its elements
    under the identity, so its run holds them all and its transversal is the identity alone."""

    def __init__(self, degree: int, levels: list[list[Perm]], name: str = ""):
        self.degree, self.name, self.levels = degree, name, levels or [[identity(degree)]]  # a trivial chain has none
        self.transversal, *below = self.levels
        self.stabilizer = functools.reduce(_times, reversed(below), identity(degree))  # u_k ... u_2 from the bottom up

    order = property(lambda self: math.prod(map(len, self.levels)))

    @functools.cached_property
    def elements(self) -> list[Perm]:
        run, n = _times(self.stabilizer, self.transversal), self.degree
        return [run[start : start + n] for start in range(0, len(run), n)]

    _positions = functools.cached_property(lambda self: {g: i for i, g in enumerate(self.elements)})

    def index(self) -> dict[Perm, int]:
        """Element -> position, keyed by Perms: look another int sequence up as as_perm(g)."""
        return self._positions

    def __contains__(self, g) -> bool:
        return as_perm(g) in self._positions


def listed(degree: int, elements, name: str = "") -> GroupEnumeration:
    """The int sequences as Perms, in their order, as one level under the identity; not checked to form a group."""
    return GroupEnumeration(degree, [[identity(degree)], list(map(perm_type(degree), elements))], name)


DEFAULT_ENUMERATION_CAP = 2_000_000


_BYTE_IDENTITY = bytes(range(256))


def _times(run: Perm, transversal: list[Perm]) -> Perm:
    """The run of images of the products h u, u from the transversal outer and h from the run inner."""
    if type(run) is bytes:  # u's images, then the identity's above u's degree: a 256-entry translate table
        return b"".join([run.translate(u + _BYTE_IDENTITY[len(u) :]) for u in transversal])
    return tuple(itertools.chain.from_iterable(map(u.__getitem__, run) for u in transversal))


def enumerate_group(spec: GroupSpec, cap: int = DEFAULT_ENUMERATION_CAP) -> GroupEnumeration:
    """The group the generators generate, as the GroupEnumeration of its stabilizer chain's levels (stabilizer_chain).

    Element order is the chain's: each element is one product u_k ... u_1, u_i from level i's transversal, u_1 varying
    slowest and u_k fastest, each transversal in its insertion order, so the identity comes first and the order is
    reproducible. Each element is made once and never looked up. linsys columns and search witness indices follow this
    order. Raises GroupTooLarge at once if the declared order passes `cap`, else once the chain's order does, and
    GroupFileError naming the file if the declared order disagrees with the chain's.
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    where = spec.path or spec.name
    if spec.declared_order is not None and spec.declared_order > cap:
        raise GroupTooLarge(f"{where or 'a group'} declares order {spec.declared_order}, past the cap of {cap} elements")
    levels = [list(transversal.values()) for transversal in stabilizer_chain(spec, cap)]
    order = math.prod(map(len, levels))
    if spec.declared_order not in (None, order):
        raise GroupFileError(f"{where or 'group'}: declared order {spec.declared_order}, enumerated {order}")
    return GroupEnumeration(spec.degree, levels, spec.name)


def stabilizer_chain(spec: GroupSpec, cap: int = DEFAULT_ENUMERATION_CAP) -> list[dict[int, Perm]]:
    """A deterministic Schreier-Sims chain of the group: one transversal a level, its base point b first.

    Level i maps each point x of b's orbit to a u with b^u = x, b to the identity, so |G| is the product of the
    levels' sizes. What a generator leaves once sifted through the chain joins level 0, and what a Schreier
    generator u_x s u_(x^s)^-1 of level i leaves once sifted through the levels below joins level i + 1; a new
    level's base point is the first point its generator moves. Raises GroupTooLarge once the product of the
    sizes, a lower bound on |G| at every step, passes `cap`.
    """
    one = identity(spec.degree)
    chain, gens = [], []  # each level's transversal and strong generators

    def sift(g: Perm, i: int) -> Perm:  # g stripped by the transversals of levels i, i + 1, ...
        for transversal in chain[i:]:
            u = transversal.get(g[next(iter(transversal))])
            if u is None:
                break
            g = compose(g, inverse(u))
        return g

    def add(g: Perm, i: int) -> None:  # g, not the identity and fixing the first i base points, joins level i
        if i == len(chain):
            chain.append({next(x for x, y in enumerate(g) if x != y): one})
            gens.append([])
        transversal, strong = chain[i], gens[i]
        strong.append(g)
        pairs = [(x, g) for x in transversal]  # then every generator on each new point
        for x, s in pairs:
            y = s[x]
            if y in transversal:
                h = sift(compose(compose(transversal[x], s), inverse(transversal[y])), i + 1)
                if h != one:
                    add(h, i + 1)
            else:
                transversal[y] = compose(transversal[x], s)
                if math.prod(map(len, chain)) > cap:
                    raise GroupTooLarge(f"enumerating {spec.name or 'a group'} passed the cap of {cap} elements")
                pairs += [(y, r) for r in strong]

    for h in map(sift, spec.generators, itertools.repeat(0)):
        if h != one:
            add(h, 0)
    expect(all(sift(g, 0) == one for g in spec.generators), "a generator does not sift through its own chain")
    return chain


def set_orbit(generators, point_set: int, cap: int = DEFAULT_ENUMERATION_CAP) -> list[int]:
    """The images of a bitset of points under the group the generators generate.

    BFS order from point_set, so the list starts with it and is reproducible.
    Raises GroupTooLarge once more than `cap` images appear. A member's image under g
    is the sum of g's bit table [1 << y for y in g] at the member's points, listed once
    (distinct bits: the sum is their union); the tables share one list of powers of two.
    """
    pow2 = [1 << y for y in range(len(generators[0]))] if generators else []
    tables = [[pow2[y] for y in gen] + [0] for gen in generators]
    seen = {point_set}
    orbit = [point_set]
    for member in orbit:
        points = [-1, -1]  # two reads of each table's appended 0, so the getter returns a tuple even for 0 points
        while member:
            points.append((low := member & -member).bit_length() - 1)
            member ^= low
        for image in map(sum, map(itemgetter(*points), tables)):
            if image not in seen:
                if len(seen) >= cap:
                    raise GroupTooLarge(f"the orbit of a {point_set.bit_count()}-point set passed the cap of {cap}")
                seen.add(image)
                orbit.append(image)
    return orbit


def enumeration_from_elements(degree, elements, name="") -> GroupEnumeration:
    """An explicit list of int sequences as a listed group, checked by check_group_axioms."""
    group = listed(degree, elements, name)
    check_group_axioms(group)
    return group


AXIOM_INVERSE_LIMIT = 10_000  # elements whose inverse check_group_axioms looks up


def check_group_axioms(enum: GroupEnumeration, samples: int = 200):
    """Closure, identity and inverses; exhaustive up to the limit, sampled beyond."""
    import random

    eset = set(enum.elements)
    expect(identity(enum.degree) in eset, "identity missing")
    expect(len(eset) == enum.order, "duplicate elements")
    for g in enum.elements[:AXIOM_INVERSE_LIMIT]:
        if inverse(g) not in eset:
            raise InvariantViolation(f"inverse missing for {g}")
    if enum.order <= 2000:  # order^2 products, a few seconds at most
        pairs = itertools.product(enum.elements, repeat=2)
    else:
        rng = random.Random(0)
        pairs = ((rng.choice(enum.elements), rng.choice(enum.elements)) for _ in range(samples))
    for a, b in pairs:
        if compose(a, b) not in eset:
            raise InvariantViolation(f"{a} * {b} is not in the group")


# ---------------------------------------------------------------------------
# Induced action on t-arrangements


class ArrangementAction:
    """The set of ordered t-tuples of distinct points, indexed in lexicographic order."""

    def __init__(self, n: int, t: int, cells: tuple[tuple[int, ...], ...], index: dict, points: itemgetter):
        self.n, self.t, self.cells, self.index = n, t, cells, index
        self.points = points  # points(g): the images of every cell's points, cell after cell

    @property
    def size(self) -> int:
        return len(self.cells)

    def cell_perm(self, g: Perm) -> Perm:
        """The permutation of cell indices induced by g; for t = 1 the cells are the points, so it is g."""
        if self.t == 1:
            return as_perm(g)
        return perm_type(self.size)(map(self.index.__getitem__, zip(*[iter(self.points(g))] * self.t)))


def arrangements(n: int, t: int) -> ArrangementAction:
    if not 1 <= t <= n:
        raise ValueError(f"need 1 <= t <= {n}, got t={t}")
    cells = tuple(itertools.permutations(range(n), t))
    points = itemgetter(*itertools.chain.from_iterable(cells))
    return ArrangementAction(n, t, cells, {c: i for i, c in enumerate(cells)}, points)


def induced_action(group, t: int):
    """Re-express a group on the cells of its t-arrangement action.

    Returns (action, group-on-cells) where the second component has the same kind as the input (GroupSpec or
    GroupEnumeration, element order kept). The action is a homomorphism, so an enumeration is induced level by level,
    one cell_perm per level element: its products list the induced elements in the order of the points' elements,
    and a listed group's one level induces each element.
    """
    action = arrangements(group.degree, t)
    if isinstance(group, GroupSpec):
        gens = tuple(action.cell_perm(g) for g in group.generators)
        return action, GroupSpec(action.size, gens, group.name, group.declared_order, group.path)
    levels = [list(map(action.cell_perm, level)) for level in group.levels]
    return action, GroupEnumeration(action.size, levels, group.name)


# ---------------------------------------------------------------------------
# Orbits and conjugation classes


def orbits_on_pairs(H: GroupEnumeration) -> list[list[tuple[int, int]]]:
    """Orbits of H on ordered pairs of points, in first-touch order."""
    n = H.degree
    seen = set()
    blocks = []
    for pair in itertools.product(range(n), repeat=2):
        if pair in seen:
            continue
        orbit = {(h[pair[0]], h[pair[1]]) for h in H.elements}
        seen |= orbit
        blocks.append(sorted(orbit))
    return blocks


def conjugation_reps(G: GroupEnumeration, H: GroupEnumeration) -> list[list[Perm]]:
    """The orbits of H on G by conjugation g -> h^-1 g h, each in enumeration order.

    A class's first member, minimal in enumeration order, is its
    representative, and the classes come in the order of their representatives.
    """
    gset = G.index()
    for h in H.elements:
        if h not in gset:
            raise ValueError("H is not contained in G")
    hinv = [inverse(h) for h in H.elements]
    assigned = set()
    classes = []
    for g in G.elements:
        if g in assigned:
            continue
        orbit = {compose(compose(hi, g), h) for hi, h in zip(hinv, H.elements)}
        assigned |= orbit
        classes.append(sorted(orbit, key=gset.__getitem__))
    expect(sum(map(len, classes)) == G.order, "conjugation orbits do not partition G")
    return classes


# ---------------------------------------------------------------------------
# Group files: line 1 "n <degree>", optional "order <N>", then one generator
# per nonempty line as whitespace-separated 0-based images; '#' comments.


def load_group(path) -> GroupSpec:
    """Read a group file; any malformed content raises GroupFileError."""
    degree = None
    declared = None
    gens = []
    try:
        with open(path) as fh:
            for raw in fh:
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                parts = line.split()
                if parts[0] == "n" and degree is None:
                    (degree,) = map(int, parts[1:])
                elif parts[0] == "order":
                    if declared is not None:
                        raise ValueError(f"a second order line, {line!r}")
                    (declared,) = map(int, parts[1:])
                    if declared < 1:  # no group has it, and the CLI divides by it
                        raise ValueError(f"order {declared} is not positive")
                else:
                    gens.append(tuple(int(p) for p in parts))
        if degree is None:
            raise ValueError("missing 'n <degree>' header")
        name = os.path.splitext(os.path.basename(str(path)))[0]
        return GroupSpec(degree, tuple(gens), name, declared, str(path))
    except ValueError as exc:
        raise GroupFileError(f"{path}: {exc}") from exc

