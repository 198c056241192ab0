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
kept to pin the F_2 basis of certify's certificate search. read_design and
read_graph read back the files that designs.write_design and
designs.write_graph export.
"""

import itertools
import math
from fractions import Fraction

from sharpsets.designs import Design, Graph
from sharpsets.linsys import (
    INFEASIBLE,
    RHS,
    SOLVABLE,
    ExactSystem,
    SolveOutcome,
    build_full_system,
    build_H_system,
    solve_integer,
    solve_mod_p,
    verify_witness,
)
from sharpsets.perm import GroupEnumeration, induced_action
from sharpsets.sharp_search import FOUND, NONE_EXHAUSTIVE, UNKNOWN_BUDGET, SearchResult, SharpSet


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
    """solve_nonneg_integer on Fraction rows: the same floor-first branching, budget and notes."""
    rows, pivots = reference_rref_rational(system)
    if rows is None:
        return SolveOutcome(INFEASIBLE, None, {"stage": "rational-preprocessing", "simplex_pivots": 0})
    ncols = system.cols
    stack = [([Fraction(0)] * ncols, [None] * ncols)]
    nodes = steps = 0
    while stack:
        lo, hi = stack.pop()
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
        stack.append((ceil_lo, list(hi)))
        stack.append((list(lo), floor_hi))
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
