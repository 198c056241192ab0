"""Empirical checks and reference kernels, used only by the tests.

lemma_down_check tests the descent lemma between two collapsed systems;
local_global_check tests the local-global criterion for integral
solvability, with its lifting consequence over Z/p and, on tiny systems,
over Z/p^2. reference_find_sharp_set is the exact-cover search that rescans
every uncovered column at each node, kept to pin the packed-count kernel of
sharp_search.find_sharp_set to the same nodes and witnesses.
"""

import itertools
import math

from sharpsets.linsys import (
    INFEASIBLE,
    SOLVABLE,
    ExactSystem,
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
