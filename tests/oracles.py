"""Empirical checks and reference kernels, used only by the tests.

lemma_down_check tests the descent lemma between two collapsed systems;
local_global_check tests the local-global criterion for integral
solvability, with its lifting consequence over Z/p and, on tiny systems,
over Z/p^2. reference_find_sharp_set is the exact-cover search that rescans
every uncovered column at each node, kept to pin the packed-count kernel of
sharp_search.find_sharp_set to the same nodes and witnesses.
reference_solve_rational and reference_solve_nonneg_integer run the
Fraction-row kernel (one pivot step scaling the pivot row to 1, shared by
Gauss-Jordan and the phase-1 simplex) that the integer-row kernel of
linsys replaced, kept to pin it to the same ranks, witnesses, nodes and
simplex pivots. reference_nullspace_mod_2 is the column-incremental F_2
nullspace on bitmasks that the packed echelon basis of linsys replaced,
kept to pin the F_2 basis of certificate_search. nullspace_mod_p reads a
nullspace basis off the reduced echelon basis of linsys. certificate_search
looks for a (B, C, p) certificate in an enumerated group, exhaustively on
tiny domains and through the mod-p nullspace of the images of C beyond them;
certify only verifies certificates. read_design and read_graph read back
the files that designs.write_design and designs.write_graph export, and
dump_group writes the group files that perm.load_group reads.
seeded_integer_corpus is the seeded random corpus of small integer systems
on which the Z solver is checked, each with its exhaustive box-search
answer from bounded_solution_exists, computed once per session.
reference_packed_rows packs [A | b] mod p by one shift and OR per entry,
the layout the bytearray packer of linsys must reproduce, and
fraction_keyed_lp_feasible_point is the phase-1 simplex on integer rows
with its ratio test keyed by Fractions, as before the cross-multiplied
integer comparison replaced it; it also counts the rows tied at each least
ratio, so that a corpus can show it reaches ties.
reference_proj_points is the canonical-representative rule (scale by the
inverse of the first nonzero coordinate) that geometry's reading of a
vector's projective point off the scalar maps replaced.
reference_point_perm evaluates a vector map on every vector or projective
representative and looks each image up in a dict of vectors, as geometry
did before it read F_2-linear maps off their packed one-bit images, and
reference_set_orbit is the orbit BFS that maps every member by
apply_to_set, as perm.set_orbit did before its per-generator bit tables,
and reference_enumeration is the BFS closure of a group's generators that
perm.enumerate_group was before it listed the stabilizer chain: the tests
check the chain's element set against it, and build from it the inputs of
the tests whose node counts and widths were pinned on its order.
reference_golay_codewords, reference_mclaughlin_adjacency,
reference_non_adjacent_family and reference_graph_error are the pairwise
definitions (shift-and-add products, one test per pair of blocks or
vertices) that the whole-bitset constructions of designs and certify
replaced, kept to pin them to the same words, rows, family and messages.
"""

import functools
import itertools
import math
import random
from collections import deque
from fractions import Fraction
from operator import mul

from sharpsets import gf
from sharpsets.certify import REFUTED, Certificate, verify_certificate_enumerated
from sharpsets.designs import Design, Graph, _qr_generator_polynomial
from sharpsets.linsys import (
    INFEASIBLE,
    RHS,
    SOLVABLE,
    ExactSystem,
    SolveOutcome,
    _back_substitute,
    _echelon_mod_p,
    _pivot,
    _width,
    build_full_system,
    build_H_system,
    solve_integer,
    solve_mod_p,
    verify_witness,
)
from sharpsets.perm import GroupEnumeration, GroupSpec, GroupTooLarge, apply_to_set, induced_action, listed
from sharpsets.sharp_search import FOUND, NONE_EXHAUSTIVE, UNKNOWN_BUDGET, SearchResult, SharpSet


def bounded_solution_exists(matrix, rhs, bound):
    """Exhaustive test for an integral solution with every |x_i| <= bound.

    Meet in the middle: the variables are split in half, all (2*bound+1)^4
    value combinations of each half are enumerated, and each partial sum of
    the rows is packed exactly into one integer (the radix is larger than
    any partial sum can reach, and everything stays far below 2^63). The
    left sums go into a set, the right sums probe it. Fixed cost, complete
    within the box, and independent of the Hermite solver.
    """
    import numpy as np

    nrows, ncols = len(matrix), len(matrix[0])
    assert ncols % 2 == 0
    half = ncols // 2
    a = np.array(matrix, dtype=np.int64)
    values = np.arange(-bound, bound + 1, dtype=np.int64)
    grids = np.meshgrid(*([values] * half), indexing="ij")
    combos = np.stack([g.ravel() for g in grids])            # half x (2b+1)^half
    left = a[:, :half] @ combos                               # rows x combos
    right = np.array(rhs, dtype=np.int64)[:, None] - a[:, half:] @ combos
    radix = 1 + 2 * int(np.abs(left).max(initial=1) + np.abs(right).max(initial=1))
    weights = np.array([radix**i for i in range(nrows)], dtype=np.int64)
    assert radix**nrows < 2**62, "packed sums must stay exact"
    left_keys = weights @ left
    right_keys = weights @ right
    return bool(np.isin(right_keys, left_keys).any())


@functools.cache
def seeded_integer_corpus() -> tuple:
    """100 seeded random 5x8 systems as (matrix, rhs, a solution with every |x_i| <= 10 exists), all tuples.

    The generator alternates planted solutions (narrow and box-wide, so the
    solvable status is certain and witnessed inside the box) with rows
    scaled by 2 or 3 against an incongruent right side (infeasible over Z
    by reduction mod the scale), so half the systems are solvable and half
    are not.
    """
    rng = random.Random(20240501)
    corpus = []
    for trial in range(100):
        matrix = [[rng.randrange(-4, 5) for _ in range(8)] for _ in range(5)]
        kind = trial % 4
        if kind in (0, 2):
            width = 3 if kind == 0 else 10
            x0 = [rng.randrange(-width, width + 1) for _ in range(8)]
            rhs = [sum(a * x for a, x in zip(row, x0)) for row in matrix]
        else:
            scale = 2 if kind == 1 else 3
            row = rng.randrange(5)
            matrix[row] = [scale * a for a in matrix[row]]
            rhs = [rng.randrange(-10, 11) for _ in range(5)]
            rhs[row] = scale * rng.randrange(-5, 5) + rng.randrange(1, scale)
        corpus.append((tuple(map(tuple, matrix)), tuple(rhs), bounded_solution_exists(matrix, rhs, 10)))
    return tuple(corpus)


def lemma_down_check(G: GroupEnumeration, U: GroupEnumeration, V: GroupEnumeration) -> dict:
    """If the U-collapsed system solves over Z, the V-collapsed one must too."""
    for u in U.elements:
        if u not in V.index():
            raise ValueError("U is not contained in V")
    sys_u = build_H_system(G, U)
    sys_v = build_H_system(G, V)
    out_u = solve_integer(sys_u)
    out_v = solve_integer(sys_v)
    holds = not (out_u.status == SOLVABLE and out_v.status != SOLVABLE)
    return {
        "U_status": out_u.status,
        "V_status": out_v.status,
        "implication_holds": holds,
        "U_vars": sys_u.cols,
        "V_vars": sys_v.cols,
    }


EXHAUSTIVE_MOD_CAP = 65_536


def _solvable_mod_m(system: ExactSystem, m: int) -> str:
    """Exhaustive search over (Z/m)^cols; 'skipped' when the space is too big."""
    if m ** system.cols > EXHAUSTIVE_MOD_CAP:
        return "skipped"
    for cand in itertools.product(range(m), repeat=system.cols):
        if verify_witness(system, cand, modulus=m):
            return SOLVABLE
    return INFEASIBLE


def local_global_check(G: GroupEnumeration, subgroup_by_prime: dict[int, GroupEnumeration]) -> dict:
    """Instance test of the local-global criterion for integral solvability.

    Compares integral solvability of the full system with integral
    solvability of each collapsed system for the supplied p'-subgroups
    (the two must agree when the supplied family covers every prime), and
    additionally tests the lifting consequence: collapsed solvability over
    Z/p and, on tiny systems, over Z/p^2, must propagate to the full system.
    """
    full = build_full_system(G.elements)
    out_full = solve_integer(full)
    per_prime = {}
    all_solvable = True
    lift_ok = True
    for p, H in sorted(subgroup_by_prime.items()):
        if math.gcd(H.order, p) != 1:
            raise ValueError(f"subgroup of order {H.order} is not a {p}'-subgroup")
        sys_h = build_H_system(G, H)
        out_h = solve_integer(sys_h)
        all_solvable &= out_h.status == SOLVABLE
        entry = {"H_order": H.order, "H_status": out_h.status}
        # lifting consequence over F_p
        h_mod_p = solve_mod_p(sys_h, p).status
        full_mod_p = solve_mod_p(full, p).status
        entry["H_mod_p"] = h_mod_p
        entry["full_mod_p"] = full_mod_p
        if h_mod_p == SOLVABLE and full_mod_p != SOLVABLE:
            lift_ok = False
        # finite shadow over Z/p^2 on tiny systems
        h_mod_p2 = _solvable_mod_m(sys_h, p * p)
        full_mod_p2 = _solvable_mod_m(full, p * p)
        entry["H_mod_p2"] = h_mod_p2
        entry["full_mod_p2"] = full_mod_p2
        if h_mod_p2 == SOLVABLE and full_mod_p2 == INFEASIBLE:
            lift_ok = False
        per_prime[p] = entry
    equivalence = (out_full.status == SOLVABLE) == all_solvable
    return {
        "full_status": out_full.status,
        "per_prime": per_prime,
        "equivalence_holds": equivalence,
        "lift_consequence_holds": lift_ok,
    }


def reference_find_sharp_set(G: GroupEnumeration, t: int = 1, budget: int = 10**8) -> SearchResult:
    """Exact cover by full column rescan at every node.

    Each node filters every uncovered column's rows against the covered
    mask and takes the fewest-candidates column: ties go to the lowest
    index, and the scan stops at the first column with at most one
    candidate. Rows are tried in index order; `nodes > budget` stops it.
    """
    elements = G.elements if t == 1 else induced_action(G, t)[1].elements
    n = len(elements[0])
    rows = [sum(1 << (c * n + g[c]) for c in range(n)) for g in elements]
    col_rows: list[list[int]] = [[] for _ in range(n * n)]
    for ri, mask in enumerate(rows):
        m = mask
        while m:
            low = m & -m
            col_rows[low.bit_length() - 1].append(ri)
            m ^= low
    full = (1 << (n * n)) - 1
    nodes = 0
    chosen: list[int] = []

    class Budget(Exception):
        pass

    def search(covered: int) -> bool:
        nonlocal nodes
        if covered == full:
            return True
        best = None
        scan = full & ~covered
        while scan:
            low = scan & -scan
            col = low.bit_length() - 1
            scan ^= low
            cands = [ri for ri in col_rows[col] if not rows[ri] & covered]
            if best is None or len(cands) < len(best):
                best = cands
                if not cands:
                    return False
                if len(cands) == 1:
                    break
        for ri in best:
            nodes += 1
            if nodes > budget:
                raise Budget
            chosen.append(ri)
            if search(covered | rows[ri]):
                return True
            chosen.pop()
        return False

    try:
        ok = search(0)
    except Budget:
        return SearchResult(UNKNOWN_BUDGET, None, nodes)
    if not ok:
        return SearchResult(NONE_EXHAUSTIVE, None, nodes)
    return SearchResult(FOUND, SharpSet(tuple(sorted(chosen)), t), nodes)


def _fraction_pivot(rows: list[dict], r: int, c: int) -> None:
    """Scale rows[r] to 1 at column c and clear c from the other rows that hold it ({col: Fraction} rows)."""
    prow = rows[r]
    inv = 1 / prow[c]
    if inv != 1:
        for k in prow:
            prow[k] *= inv
    for row in rows:
        if row is not prow and row.get(c):
            f = row[c]
            for k, v in prow.items():
                if x := row.get(k, 0) - f * v:
                    row[k] = x
                else:
                    row.pop(k, None)


def reference_rref_rational(system: ExactSystem):
    """Gauss-Jordan of [A | b] over Q on Fraction rows, sparsest row first: (rows, pivots), rows None if inconsistent."""
    rows = [{RHS: Fraction(b)} if b else {} for b in system.rhs]
    for c, col in enumerate(system.columns):
        for r, a in col.items():
            rows[r][c] = Fraction(a)
    free = set(range(system.rows))
    pivots, order = [], []
    for c in range(system.cols):
        if candidates := [i for i in free if rows[i].get(c)]:
            r = min(candidates, key=lambda i: (len(rows[i]), i))
            _fraction_pivot(rows, r, c)
            free.remove(r)
            pivots.append(c)
            order.append(r)
    if any(RHS in rows[i] for i in free):
        return None, pivots
    return [rows[i] for i in order], pivots


def reference_solve_rational(system: ExactSystem) -> SolveOutcome:
    """solve_rational on Fraction rows: free variables 0."""
    rows, pivots = reference_rref_rational(system)
    if rows is None:
        return SolveOutcome(INFEASIBLE, None, {"rank": len(pivots)})
    witness = [Fraction(0)] * system.cols
    for row, c in zip(rows, pivots):
        witness[c] = row.get(RHS, Fraction(0))
    assert verify_witness(system, witness)
    return SolveOutcome(SOLVABLE, witness, {"rank": len(pivots)})


def reference_solve_nonneg_integer(system: ExactSystem, budget: int) -> SolveOutcome:
    """solve_nonneg_integer on Fraction rows: the same first-in first-out queue, floor child first, budget and notes."""
    rows, pivots = reference_rref_rational(system)
    if rows is None:
        return SolveOutcome(INFEASIBLE, None, {"stage": "rational-preprocessing", "simplex_pivots": 0})
    ncols = system.cols
    queue = deque([([Fraction(0)] * ncols, [None] * ncols)])
    nodes = steps = 0
    while queue:
        lo, hi = queue.popleft()
        nodes += 1
        if nodes > budget:
            return SolveOutcome(UNKNOWN_BUDGET, None, {"nodes": nodes, "simplex_pivots": steps})
        point, n = _reference_lp_feasible_point(rows, pivots, lo, hi)
        steps += n
        if point is None:
            continue
        frac_at = next((j for j, x in enumerate(point) if x.denominator != 1), None)
        if frac_at is None:
            witness = [int(x) for x in point]
            assert min(witness, default=0) >= 0 and verify_witness(system, witness)
            return SolveOutcome(SOLVABLE, witness, {"nodes": nodes, "simplex_pivots": steps})
        v = point[frac_at]
        floor_hi = list(hi)
        floor_hi[frac_at] = Fraction(int(v))
        ceil_lo = list(lo)
        ceil_lo[frac_at] = Fraction(int(v) + 1)
        queue.append((list(lo), floor_hi))
        queue.append((ceil_lo, list(hi)))
    return SolveOutcome(INFEASIBLE, None, {"nodes": nodes, "simplex_pivots": steps})


def _reference_lp_feasible_point(rref: list[dict], pivots: list[int], lo, hi):
    """Phase-1 simplex on Fraction rows, Bland's rule; each start row has a 1 at its basic variable."""
    ncols = len(lo)
    rows = [{**row, RHS: row.get(RHS, 0) - sum(a * lo[k] for k, a in row.items() if k != RHS)} for row in rref]
    basis = list(pivots)
    for j in range(ncols):
        if hi[j] is not None:
            basis.append(ncols + len(rows))
            rows.append({j: Fraction(1), ncols + len(rows): Fraction(1), RHS: hi[j] - lo[j]})
    for i, j in enumerate(pivots):
        if hi[j] is not None:
            _fraction_pivot(rows, i, j)
    m = len(rows)
    obj = {}
    for i, row in enumerate(rows):
        if row.get(RHS, 0) < 0:
            for k in row:
                row[k] = -row[k]
                obj[k] = obj.get(k, 0) + row[k]
            basis[i] = ncols + m + i
    rows.append(obj)
    steps = 0
    while (enter := min((k for k, a in obj.items() if k != RHS and a > 0), default=None)) is not None:
        candidates = [i for i in range(m) if rows[i].get(enter, 0) > 0]
        leave = min(candidates, key=lambda i: (rows[i].get(RHS, 0) / rows[i][enter], basis[i]))
        _fraction_pivot(rows, leave, enter)
        basis[leave] = enter
        steps += 1
    if obj.get(RHS):
        return None, steps
    x = list(lo)
    for i, var in enumerate(basis):
        if var < ncols:
            x[var] += rows[i].get(RHS, 0)
    return x, steps


def reference_packed_rows(system: ExactSystem, p: int) -> list[int]:
    """[A | b]'s rows mod p, one int each, built by one shift and OR per entry: column c in field cols - c, b in 0."""
    w, ncols = _width(p), system.cols
    rows = [b % p for b in system.rhs]
    for c, col in enumerate(system.columns):
        for r, a in col.items():
            rows[r] |= a % p << (ncols - c) * w
    return rows


def fraction_keyed_lp_feasible_point(rref: list[dict], pivots: list[int], lo, hi, ties: list):
    """linsys._lp_feasible_point with the leaving row keyed by (Fraction(rhs, entry), basis[i]).

    Each ratio test appends to ties the number of candidate rows that share its least ratio.
    """
    ncols = len(lo)
    rows = [{**row, RHS: row.get(RHS, 0) - sum(a * lo[k] for k, a in row.items() if k != RHS)} for row in rref]
    basis = list(pivots)
    for j in range(ncols):
        if hi[j] is not None:
            basis.append(ncols + len(rows))
            rows.append({j: 1, ncols + len(rows): 1, RHS: hi[j] - lo[j]})
    for i, j in enumerate(pivots):
        if hi[j] is not None:
            _pivot(rows, i, j)
    m = len(rows)
    negated = [i for i, row in enumerate(rows) if row.get(RHS, 0) < 0]
    scale = math.lcm(*(rows[i][basis[i]] for i in negated))
    obj = {}
    for i in negated:
        w = scale // rows[i][basis[i]]
        for k, v in rows[i].items():
            rows[i][k] = -v
            obj[k] = obj.get(k, 0) - w * v
        basis[i] = ncols + m + i
    rows.append(obj)
    steps = 0
    while (enter := min((k for k, a in obj.items() if k != RHS and a > 0), default=None)) is not None:
        ratio = {i: Fraction(rows[i].get(RHS, 0), rows[i][enter]) for i in range(m) if rows[i].get(enter, 0) > 0}
        ties.append(list(ratio.values()).count(min(ratio.values())))
        leave = min(ratio, key=lambda i: (ratio[i], basis[i]))
        _pivot(rows, leave, enter)
        basis[leave] = enter
        steps += 1
    if obj.get(RHS):
        return None, steps
    x = list(lo)
    for i, var in enumerate(basis):
        if var < ncols:
            x[var] += Fraction(rows[i].get(RHS, 0), rows[i][var])
    return x, steps


def reference_nullspace_mod_2(rows: list[int], ncols: int) -> list[int]:
    """Basis of {v : M v = 0 (mod 2)} for bitmask rows of M, as bitmasks.

    Columns go in from the highest index down, each reduced against an
    echelon basis {top bit: (vector, column combination)}, its combination
    reduced alongside; a column that reduces to 0 gives its combination: the
    reduced echelon basis, by free column.
    """
    basis: dict[int, tuple[int, int]] = {}
    null = []
    for j in reversed(range(ncols)):
        v, combo = sum(1 << r for r, row in enumerate(rows) if row >> j & 1), 1 << j
        while v and (top := v.bit_length() - 1) in basis:
            bv, bc = basis[top]
            v ^= bv
            combo ^= bc
        if v:
            basis[v.bit_length() - 1] = (v, combo)
        else:
            null.append(combo)
    return null[::-1]


def gf2_poly_mul(a: int, b: int) -> int:
    """The product of two GF(2) polynomials given as bitmasks, by shift and add."""
    p = 0
    while b:
        if b & 1:
            p ^= a
        a <<= 1
        b >>= 1
    return p


def reference_proj_points(space) -> list[int]:
    """Each vector's projective index by the canonical-representative rule: scale by the inverse of its first nonzero coordinate."""
    index = {rep: i for i, rep in enumerate(space.proj_points)}
    out = []
    for v in space.vectors:
        s = gf.inv(space.field, next(filter(None, v)))
        out.append(index[tuple(gf.mul(space.field, s, x) for x in v)])
    return out


def reference_point_perm(space, vec_map, action: str) -> tuple:
    """vec_map on every vector ("vector") or projective representative, each image looked up by value."""
    index = {v: i for i, v in enumerate(space.vectors)}
    if action == "vector":
        return tuple(index[vec_map(v)] for v in space.vectors)
    proj = reference_proj_points(space)
    return tuple(proj[index[vec_map(rep)]] for rep in space.proj_points)


def reference_set_orbit(generators, point_set: int, cap: int) -> list[int]:
    """The BFS orbit of a bitset, each member mapped by apply_to_set once per generator."""
    seen = {point_set}
    orbit = [point_set]
    for member in orbit:
        for gen in generators:
            image = apply_to_set(gen, member)
            if image not in seen:
                if len(seen) >= cap:
                    raise GroupTooLarge(f"the orbit of a {point_set.bit_count()}-point set passed the cap of {cap}")
                seen.add(image)
                orbit.append(image)
    return orbit


def reference_enumeration(spec: GroupSpec) -> GroupEnumeration:
    """The plain BFS closure over tuples: from the identity, generators applied in their listed order."""
    start = tuple(range(spec.degree))
    seen = {start}
    elements = [start]
    for cur in elements:
        for gen in spec.generators:
            nxt = tuple(map(gen.__getitem__, cur))
            if nxt not in seen:
                seen.add(nxt)
                elements.append(nxt)
    return listed(spec.degree, elements, spec.name)


def reference_golay_codewords() -> list[int]:
    """Codeword m of the [23, 12, 7] code as the product m(x) g(x), one multiplication per word."""
    g = _qr_generator_polynomial()
    return [gf2_poly_mul(msg, g) for msg in range(1 << 12)]


def reference_mclaughlin_adjacency(design: Design) -> tuple[int, ...]:
    """The McLaughlin rows of designs.mclaughlin_graph, linked one pair of vertices at a time."""
    u_blocks = [b for b in design.blocks if b >> 22 & 1]
    v_blocks = [b for b in design.blocks if not b >> 22 & 1]
    adj = [0] * 275
    u_off, v_off = 22, 22 + 77

    def link(i, j):
        adj[i] |= 1 << j
        adj[j] |= 1 << i

    for p in range(22):  # point vertex p is design point p
        for ui, u in enumerate(u_blocks):
            if not u >> p & 1:
                link(p, u_off + ui)
        for vi, v in enumerate(v_blocks):
            if v >> p & 1:
                link(p, v_off + vi)
    for i in range(77):
        for j in range(i + 1, 77):
            if (u_blocks[i] & u_blocks[j]).bit_count() == 1:
                link(u_off + i, u_off + j)
    for i in range(176):
        for j in range(i + 1, 176):
            if (v_blocks[i] & v_blocks[j]).bit_count() == 1:
                link(v_off + i, v_off + j)
    for i in range(77):
        for j in range(176):
            if (u_blocks[i] & v_blocks[j]).bit_count() == 3:
                link(u_off + i, v_off + j)
    return tuple(adj)


def reference_non_adjacent_family(graph: Graph) -> list[int]:
    """The common neighbourhood of every non-adjacent pair i < j, pair by pair in the order of (i, j)."""
    family = []
    for i in range(graph.n):
        for j in range(i + 1, graph.n):
            if not graph.adjacent(i, j):
                family.append(graph.adj[i] & graph.adj[j])
    return family


def reference_graph_error(n: int, adj) -> str | None:
    """The message designs.Graph raises for these rows, by the pairwise definition; None for a simple graph."""
    if len(adj) != n:
        return f"{len(adj)} adjacency rows for {n} vertices"
    for i, row in enumerate(adj):
        if row < 0 or row >= 1 << n:
            return f"adjacency row {i} is not a set of the {n} vertices"
    for i, row in enumerate(adj):
        if row >> i & 1:
            return f"loop at vertex {i}"
        if any((adj[j] >> i & 1) != (row >> j & 1) for j in range(i + 1, n)):
            return f"asymmetric adjacency at vertex {i}"
    return None


def read_design(path, name="") -> Design:
    """The design in a designs.write_design file: 'v k b', then one block per line as 0-based points."""
    with open(path) as fh:
        v, k, b = (int(x) for x in fh.readline().split())
        blocks = [sum(1 << int(x) for x in fh.readline().split()) for _ in range(b)]
    return Design(v, k, tuple(blocks), name)


def read_graph(path) -> Graph:
    """The graph in a designs.write_graph file: the vertex count, then one 0/1 adjacency row per line."""
    with open(path) as fh:
        n = int(fh.readline())
        adj = [sum(1 << j for j, c in enumerate(fh.readline().strip()) if c == "1") for _ in range(n)]
    return Graph(n, tuple(adj))


def dump_group(spec: GroupSpec, path) -> None:
    with open(path, "w") as fh:
        fh.write(f"n {spec.degree}\n")
        if spec.declared_order is not None:
            fh.write(f"order {spec.declared_order}\n")
        for g in spec.generators:
            fh.write(" ".join(str(x) for x in g) + "\n")


# ---------------------------------------------------------------------------
# Certificate search

EXHAUSTIVE_PAIR_LIMIT = 1 << 20  # (B, C) pairs scanned in full before sampling candidates
SPAN_VECTOR_LIMIT = 1 << 16  # span vectors tried per candidate C


def certificate_search(
    G: GroupEnumeration,
    p: int,
    max_b: int | None = None,
    max_c: int | None = None,
    *,
    budget: int = 20000,
    action=None,
) -> Certificate | None:
    """Search for a valid certificate (B, C) for the prime p, or report none.

    On domains small enough that every (B, C) pair fits in the budget the
    scan is exhaustive, so a None answer is a proof of nonexistence within
    the size bounds. On larger domains candidate sets C are drawn from a
    deterministic pool (coordinate comparisons of arrangement cells when an
    ArrangementAction is supplied, then small subsets); for each C the valid
    B are exactly the 0/1 vectors orthogonal mod p to every image C^g, so
    they are read off a nullspace basis instead of guessed.
    """
    n = G.degree
    max_b = n if max_b is None else max_b
    max_c = n if max_c is None else max_c

    def finish(b_set: int, c_set: int) -> Certificate | None:
        if (b_set.bit_count() * c_set.bit_count()) % p == 0:
            return None
        cert = Certificate(b_set, c_set, p, n)
        report = verify_certificate_enumerated(G, cert)
        return cert if report.conclusion == REFUTED else None

    if (1 << n) * (1 << n) <= EXHAUSTIVE_PAIR_LIMIT:
        # full scan in lexicographic order of the (B, C) bitmask pair
        orbits: dict[int, list[int]] = {}
        for c_set in range(1, 1 << n):
            if c_set.bit_count() > max_c or c_set.bit_count() % p == 0:
                continue
            images = sorted({apply_to_set(g, c_set) for g in G.elements})
            orbits[c_set] = images
        for b_set in range(1, 1 << n):
            if b_set.bit_count() > max_b or b_set.bit_count() % p == 0:
                continue
            for c_set, images in orbits.items():
                if all((b_set & img).bit_count() % p == 0 for img in images):
                    found = finish(b_set, c_set)
                    if found:
                        return found
        return None

    candidates: list[int] = []
    seen = set()

    def push(c_set: int):
        if c_set and c_set not in seen and c_set.bit_count() <= max_c:
            seen.add(c_set)
            candidates.append(c_set)

    if action is not None:
        # natural structured subsets of tuple cells: coordinate comparisons
        for a, b in itertools.combinations(range(action.t), 2):
            lt = sum(1 << i for i, cell in enumerate(action.cells) if cell[a] < cell[b])
            gt = sum(1 << i for i, cell in enumerate(action.cells) if cell[a] > cell[b])
            push(lt)
            push(gt)
    for size in range(1, max_c + 1):
        if len(candidates) >= budget:
            break
        if math.comb(n, size) + len(candidates) > budget:
            break
        for combo in itertools.combinations(range(n), size):
            push(sum(1 << x for x in combo))

    examined = 0
    for c_set in candidates:
        if examined >= budget:
            return None
        examined += 1
        if c_set.bit_count() % p == 0:
            continue
        images = sorted({apply_to_set(g, c_set) for g in G.elements})
        for b_set in zero_one_vectors(orthogonal_basis(images, n, p), n, p):
            if 0 < b_set.bit_count() <= max_b and b_set.bit_count() % p != 0:
                found = finish(b_set, c_set)
                if found:
                    return found
    return None


def nullspace_mod_p(matrix: list[list[int]], p: int) -> list[list[int]]:
    """Basis of {v : M v = 0 (mod p)}, one vector per free column in increasing order."""
    ncols = len(matrix[0]) if matrix else 0
    basis = _echelon_mod_p(ExactSystem.from_rows(matrix, [0] * len(matrix)), p)
    null = []
    for f in range(ncols):
        if f not in basis:
            v = [-x % p for x in _back_substitute(basis, f, p, ncols)]
            v[f] = 1
            null.append(v)
    return null


def orthogonal_basis(images: list[int], n: int, p: int) -> list:
    """Basis of the vectors orthogonal mod p to every image, one per free column.

    For p = 2 the vectors are bitmasks and the columns go in from the highest
    index down: the span walk is capped, so the basis decides which B it meets.
    """
    order = range(n)[::-1] if p == 2 else range(n)
    basis = nullspace_mod_p([[img >> j & 1 for j in order] for img in images], p)
    if p == 2:
        return [sum(x << j for j, x in zip(order, v)) for v in reversed(basis)]
    return basis


def zero_one_vectors(basis, ncols: int, p: int):
    """All 0/1 vectors (as bitmasks) in the span of the basis, up to a cap."""
    if not basis:
        return
    dim = len(basis)
    while dim > 1 and p**dim > SPAN_VECTOR_LIMIT:  # the largest span under the cap, so never fewer for more
        dim -= 1
    basis = basis[:dim]
    if p == 2:
        span = [0]  # span[k] is the sum of the basis vectors at the bits of k
        for b in basis:
            span += [v ^ b for v in span]
        yield from span[1:]
    else:
        columns = list(zip(*basis))
        for combo in itertools.product(range(p), repeat=dim):  # combo[i] is basis[i]'s coefficient
            vec = [sum(map(mul, combo, col)) % p for col in columns]
            if any(combo) and set(vec) <= {0, 1}:
                yield sum(1 << j for j, x in enumerate(vec) if x)
