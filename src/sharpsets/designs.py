"""The Witt design on 23 points, the McLaughlin graph, symmetric-design arithmetic.

The design is built from scratch: the length-23 binary quadratic-residue code
(dimension 12, minimum weight 7) is generated by gcd(x^23 + 1, e(x)) over
GF(2), e(x) being the sum of x^r over the squares r mod 23, and the 253
supports of weight-7 codewords are the blocks. Everything downstream is
verified combinatorially (Steiner property, intersection spectrum, strong
regularity) rather than taken from tables.
"""

from __future__ import annotations

import itertools
from collections import Counter, namedtuple
from fractions import Fraction

from . import gf
from .perm import GroupSpec, Perm, apply_to_set, compose, expect, inverse, is_permutation

GOLAY_LENGTH = 23
QUADRATIC_RESIDUES_23 = tuple(sorted({(i * i) % 23 for i in range(1, 23)}))


class Design:
    """Point set {0..v-1} with blocks stored as bitsets."""

    def __init__(self, v: int, k: int, blocks: tuple[int, ...], name: str = ""):
        self.v, self.k, self.blocks, self.name = v, k, blocks, name
        if any(b.bit_count() != self.k for b in self.blocks):
            raise ValueError(f"a block does not have {self.k} points")
        if len(set(self.blocks)) != len(self.blocks):
            raise ValueError("duplicate blocks")

    @property
    def b(self) -> int:
        return len(self.blocks)

    def block_points(self, block: int) -> list[int]:
        return [i for i in range(self.v) if block >> i & 1]


def _qr_generator_polynomial() -> int:
    """GF(2) generator polynomial of the [23, 12, 7] quadratic-residue code: gcd(x^23 + 1, e(x)).

    e(x), the sum of x^r over the squares r mod 23, is the code's idempotent:
    2 is a square mod 23, so e(x)^2 = e(x) mod x^23 + 1, and the ideal it
    generates has gcd(x^23 + 1, e(x)) as its generator polynomial
    (MacWilliams & Sloane 1977, ch. 8 and 16). Euclid runs in GF(2)[x].
    """
    a, b = 1 << 23 | 1, sum(1 << r for r in QUADRATIC_RESIDUES_23)
    while b:
        a, b = b, gf.poly_mod(a, b)
    expect(a.bit_length() - 1 == 11, "the generator polynomial has degree 11")
    return a


def golay_codewords() -> list[int]:
    """All 4096 codewords of the [23, 12, 7] code as 23-bit masks, m(x) g(x) at index m."""
    g = _qr_generator_polynomial()
    words = [0]
    for i in range(12):  # m(x) g(x) is linear in m: setting bit i of m adds x^i g(x)
        words += [w ^ g << i for w in words]
    expect(all(w < 1 << 23 for w in words), "codewords have length 23")
    return words


def golay_witt_design() -> Design:
    """The Steiner system with 253 blocks of size 7 on 23 points.

    Blocks are the supports of the weight-7 codewords; the weight census is
    asserted here, the Steiner property has its own checker below.
    """
    words = golay_codewords()
    weights = Counter(map(int.bit_count, words))
    min_weight = min(w for w in weights if w > 0)
    expect(min_weight == 7, f"minimum weight census broke: {weights}")
    expect(weights[7] == 253, f"weight-7 census {weights.get(7)}")
    blocks = tuple(sorted(w for w in words if w.bit_count() == 7))
    return Design(GOLAY_LENGTH, 7, blocks, name="W23")


def steiner_check(design: Design, t: int = 4) -> bool:
    """Every t-subset of points lies in exactly one block."""
    covered = set()
    for block in design.blocks:
        pts = design.block_points(block)
        for sub in itertools.combinations(pts, t):
            if sub in covered:
                return False
            covered.add(sub)
    from math import comb

    return len(covered) == comb(design.v, t)


def block_intersection_spectrum(design: Design) -> set[int]:
    """Sizes |B1 & B2| over all unordered pairs of distinct blocks."""
    sizes = set()
    blocks = design.blocks
    for i in range(len(blocks)):
        bi = blocks[i]
        for j in range(i + 1, len(blocks)):
            sizes.add((bi & blocks[j]).bit_count())
    return sizes


def blocks_through(design: Design, point: int) -> list[int]:
    if not 0 <= point < design.v:
        raise ValueError(f"point {point} out of range")
    return [b for b in design.blocks if b >> point & 1]


def blocks_avoiding(design: Design, point: int) -> list[int]:
    if not 0 <= point < design.v:
        raise ValueError(f"point {point} out of range")
    return [b for b in design.blocks if not b >> point & 1]


# ---------------------------------------------------------------------------
# Graphs and the McLaughlin construction


def bit_text(rows, width: int) -> str:
    """The rows' bits as one '0'/'1' string: bit j of row i at index i * width + j, so column j is text[j::width]."""
    return "".join(format(row, f"0{width}b")[::-1] for row in rows)


class Graph:
    """Simple graph on {0..n-1}; adjacency rows are bitsets."""

    def __init__(self, n: int, adj: tuple[int, ...]):
        self.n, self.adj = n, adj
        if len(self.adj) != n:
            raise ValueError(f"{len(self.adj)} adjacency rows for {n} vertices")
        for i, row in enumerate(self.adj):
            if row >> n:  # negative rows too
                raise ValueError(f"adjacency row {i} is not a set of the {n} vertices")
        text = bit_text(self.adj, n)
        for i in range(n):  # row i against column i, the strided slice
            if text[i * n + i] == "1":
                raise ValueError(f"loop at vertex {i}")
            if text[i * n : i * n + n] != text[i::n]:
                raise ValueError(f"asymmetric adjacency at vertex {i}")

    def degree(self, i: int) -> int:
        return self.adj[i].bit_count()

    def adjacent(self, i: int, j: int) -> bool:
        return bool(self.adj[i] >> j & 1)


class SrgReport:
    def __init__(self, ok: bool, violation: str | None = None):
        self.ok, self.violation = ok, violation


def srg_check(graph: Graph, params: tuple[int, int, int, int]) -> SrgReport:
    """Verify strong regularity: degree k, lambda on edges, mu on non-edges."""
    v, k, lam, mu = params
    if graph.n != v:
        return SrgReport(False, f"vertex count {graph.n} != {v}")
    for i in range(graph.n):
        if graph.degree(i) != k:
            return SrgReport(False, f"vertex {i} has degree {graph.degree(i)} != {k}")
    for i in range(graph.n):
        for j in range(i + 1, graph.n):
            c = (graph.adj[i] & graph.adj[j]).bit_count()
            want = lam if graph.adjacent(i, j) else mu
            if c != want:
                kind = "adjacent" if graph.adjacent(i, j) else "non-adjacent"
                return SrgReport(False, f"{kind} pair ({i},{j}) has {c} common neighbors, wanted {want}")
    return SrgReport(True)


class McLaughlinData:
    """The 275-vertex graph and its point vertices.

    Vertices 0..21 are the design points other than the special point 22,
    then the 77 blocks through it, then the 176 blocks avoiding it.
    """

    def __init__(self, graph: Graph, point_vertex_mask: int):
        self.graph, self.point_vertex_mask = graph, point_vertex_mask  # the mask: vertices 0..21


def _holding_exactly(points: list[int], incidence: list[int], c: int) -> int:
    """The blocks (bits of incidence[x]) holding exactly c of the points, by a bit-sliced counter."""
    at_least = [-1] + [0] * (c + 1)  # at_least[k]: the blocks holding at least k of the points so far
    for seen, holds_x in enumerate(map(incidence.__getitem__, points), 1):
        for k in range(min(seen, c + 1), 0, -1):
            at_least[k] |= at_least[k - 1] & holds_x
    return at_least[c] & ~at_least[c + 1]


def mclaughlin_graph() -> McLaughlinData:
    """Build the McLaughlin graph from the Witt design.

    With q = 22 the special point, vertices are the 22 remaining points (B),
    the 77 blocks through q (U) and the 176 blocks avoiding q (V). Adjacency:
    B is independent; b~u iff b not in u; b~v iff b in v; u~u' iff they meet
    only in q; v~v' iff |v & v'| = 1; u~v iff |u & v| = 3. Each row is read
    off the incidence bitsets of U and V: the U (or V) blocks holding point x.
    """
    design = golay_witt_design()
    u_blocks = blocks_through(design, 22)
    v_blocks = blocks_avoiding(design, 22)
    expect((len(u_blocks), len(v_blocks)) == (77, 176), "77 blocks through the special point, 176 avoiding it")
    in_u, in_v = (  # bit i of in_u[x]: the i-th block of U holds point x
        [int(text[x::23][::-1], 2) for x in range(23)] for text in (bit_text(u_blocks, 23), bit_text(v_blocks, 23))
    )
    points, all_u = (1 << 22) - 1, (1 << 77) - 1
    adj = [(all_u & ~in_u[x]) << 22 | in_v[x] << 99 for x in range(22)]
    for u in u_blocks:
        rest = [x for x in range(22) if u >> x & 1]  # its points other than q
        adj.append(points & ~u | (all_u & _holding_exactly(rest, in_u, 0)) << 22 | _holding_exactly(rest, in_v, 3) << 99)
    for v in v_blocks:
        pts = [x for x in range(22) if v >> x & 1]
        adj.append(v | _holding_exactly(pts, in_u, 3) << 22 | _holding_exactly(pts, in_v, 1) << 99)
    return McLaughlinData(Graph(22 + 77 + 176, tuple(adj)), points)


# ---------------------------------------------------------------------------
# Symmetric 2-designs: the stabilizer counting argument as checkable steps


class SymmetricDesignParams(namedtuple("SymmetricDesignParams", "v k lam")):
    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # so _replace checks its copy too

    def __new__(cls, v: int, k: int, lam: int):
        self = super().__new__(cls, v, k, lam)
        if not (self.v > self.k > self.lam >= 1):
            raise ValueError(f"need v > k > lambda >= 1, got {self}")
        if (self.v - 1) * self.lam != self.k * (self.k - 1):
            raise ValueError(f"(v-1)*lambda != k*(k-1) for {self}")
        return self


class RefutationStep:
    def __init__(self, name: str, equation: str, ok: bool, detail: str):
        self.name, self.equation, self.ok, self.detail = name, equation, ok, detail


class RefutationTrace:
    def __init__(self, params: SymmetricDesignParams, steps: list[RefutationStep], conclusion: str):
        self.params, self.steps = params, steps
        self.conclusion = conclusion  # "refuted" or "trivial-inapplicable"

    def as_dict(self) -> dict:
        return {
            "params": {"v": self.params.v, "k": self.params.k, "lambda": self.params.lam},
            "steps": [
                {"name": s.name, "equation": s.equation, "ok": s.ok, "detail": s.detail}
                for s in self.steps
            ],
            "conclusion": self.conclusion,
        }


def symmetric_design_refutation(params: SymmetricDesignParams) -> RefutationTrace:
    """Arithmetic refutation of a sharply transitive subset in a point stabilizer.

    Counting block images of a hypothetical sharply transitive set S on the
    v-1 points off a fixed point forces a(k-lam) = k (block avoiding the
    point) and b(k-lam) = v-k (block through it), with a, b non-negative
    integer frequencies. Divisibility then forces k-lam = 1, which happens
    only for the trivial design k = v-1. Any integrality failure refutes S
    at that step; a trivial design leaves the method inapplicable.
    """
    v, k, lam = params.v, params.k, params.lam
    d = k - lam
    steps: list[RefutationStep] = []

    for name, unknown, side, count in (("fix-count-avoiding", "a", "k", k), ("fix-count-through", "b", "v-k", v - k)):
        freq = Fraction(count, d)
        ok = freq.denominator == 1
        steps.append(
            RefutationStep(
                name,
                f"{unknown}*(k-lambda) = {side}, i.e. {unknown}*{d} = {count}",
                ok,
                f"{unknown} = {freq}" + ("" if ok else " is not an integer: no such frequency exists"),
            )
        )
        if not ok:
            return RefutationTrace(params, steps, "refuted")

    # both integral: d = k-lam divides k and v-k, hence v; d^2 divides
    # k(v-k) = (v-1)d, so d divides v-1 too, hence d = 1, and then
    # (v-1)(k-1) = k(k-1) forces k = v-1: both steps below always hold
    expect(k * (v - k) == (v - 1) * d, "k(v-k) = (v-1)(k-lambda)")
    steps.append(
        RefutationStep(
            "divisibility-chain",
            f"k-lambda divides both v = {v} and v-1 = {v - 1}, so k-lambda = 1",
            True,
            f"k-lambda = {d}",
        )
    )
    steps.append(
        RefutationStep(
            "nontriviality",
            "k-lambda = 1 forces k = v-1 (the trivial design)",
            True,
            f"k = {k}, v-1 = {v - 1}",
        )
    )
    return RefutationTrace(params, steps, "trivial-inapplicable")


# ---------------------------------------------------------------------------
# Automorphisms of the Witt design fixing the special point


def is_design_automorphism(design: Design, g: Perm) -> bool:
    """Does g (a permutation of the points) map every block onto a block?"""
    block_set = set(design.blocks)
    return all(apply_to_set(g, block) in block_set for block in design.blocks)


def _gf23_scale_map(c: int) -> Perm:
    return tuple((c * y) % 23 for y in range(23))


def _gf23_shift_map(b: int) -> Perm:
    return tuple((y + b) % 23 for y in range(23))


def _gf23_power_map() -> Perm:
    """y -> y^3 on squares, y -> 2 y^3 on non-squares, fixing 0.

    The constants depend on which of the two quadratic-residue codes the
    generator polynomial gives; this pair preserves the one of the squares'
    idempotent e(x) (asserted by the caller against the full block set).
    """
    qr = set(QUADRATIC_RESIDUES_23)
    images = [0] * 23
    for y in range(1, 23):
        cube = pow(y, 3, 23)
        images[y] = cube if y in qr else (2 * cube) % 23
    return tuple(images)


def witt_stabilizer_generators(design: Design | None = None, special_point: int = 22) -> GroupSpec:
    """Generators of the stabilizer of one point in the design's automorphism group.

    Three maps of GF(23) preserve the quadratic-residue code: the shift
    x+1, multiplication by 2 and the cube-based power map pi; the last two
    fix 0. By Schreier's lemma, with the shifts as coset representatives,
    the stabilizer of 0 in the group the three generate is generated by
    products of them that fix 0. Two such products are 2x and pi, and
    adding the Schreier generator x -> pi(x+1) - pi(1) already gives all
    of it: the closure of the three has order 443520, which is validated
    whenever the group is enumerated. A shift conjugation moves their
    common fixed point 0 onto the chosen special point.
    """
    if design is None:
        design = golay_witt_design()
    shift = _gf23_shift_map((0 - special_point) % 23)  # special_point -> 0
    shift_back = inverse(shift)
    pi = _gf23_power_map()
    schreier = tuple((pi[(y + 1) % 23] - pi[1]) % 23 for y in range(23))
    keep = [x for x in range(design.v) if x != special_point]
    relabel = {x: i for i, x in enumerate(keep)}
    restricted = []
    for base in (_gf23_scale_map(2), pi, schreier):
        g = compose(compose(shift, base), shift_back)
        expect(g[special_point] == special_point, "the map moves the special point")
        expect(is_design_automorphism(design, g), "map does not preserve the block set")
        r = tuple(relabel[g[x]] for x in keep)
        expect(is_permutation(r), "a restricted generator is not a permutation")
        restricted.append(r)
    return GroupSpec(22, tuple(restricted), name="witt-point-stabilizer", declared_order=443520)


# ---------------------------------------------------------------------------
# File formats


def write_design(design: Design, path) -> None:
    """Line 1: 'v k b'; then one block per line as sorted 0-based points."""
    with open(path, "w") as fh:
        fh.write(f"{design.v} {design.k} {design.b}\n")
        for block in design.blocks:
            fh.write(" ".join(str(p) for p in design.block_points(block)) + "\n")


def write_graph(graph: Graph, path) -> None:
    """Line 1: vertex count; then one adjacency row per line as a bit string."""
    with open(path, "w") as fh:
        fh.write(f"{graph.n}\n")
        fh.writelines(bit_text((row,), graph.n) + "\n" for row in graph.adj)
