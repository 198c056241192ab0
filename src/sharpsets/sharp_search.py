"""Brute-force oracle: exact-cover search for sharply transitive sets.

A set S inside a group acting on N cells is sharply transitive exactly when
the 0/1 row-selection problem below has a solution: one row per element,
one column per ordered cell pair (c, c'), the row of g covering the pairs
(c, c^g). Selecting rows covering every column exactly once picks out a
sharply transitive set of size N. For t > 1 the group is first re-expressed
on t-arrangements, so one search core handles every arity.
"""

from __future__ import annotations

from dataclasses import dataclass

from .perm import GroupEnumeration, Perm, expect, induced_action

FOUND = "found"
NONE_EXHAUSTIVE = "none-exhaustive"
UNKNOWN_BUDGET = "unknown-budget"

DEFAULT_BUDGET = 10**8


@dataclass
class CoverInstance:
    """Exact-cover matrix: rows[i] is the column bitset covered by element i."""

    n_cells: int
    rows: list[int]

    @property
    def n_columns(self) -> int:
        return self.n_cells * self.n_cells

    def __post_init__(self):
        expect(all(row.bit_count() == self.n_cells for row in self.rows), "each row covers one image per source cell")


def build_cover_instance(elements: list[Perm]) -> CoverInstance:
    n = len(elements[0])
    rows = []
    for g in elements:
        mask = 0
        for c in range(n):
            mask |= 1 << (c * n + g[c])
        rows.append(mask)
    return CoverInstance(n, rows)


@dataclass
class SharpSet:
    element_indices: tuple[int, ...]
    t: int


@dataclass
class SearchResult:
    status: str                     # found / none-exhaustive / unknown-budget
    sharp_set: SharpSet | None
    nodes: int


def find_sharp_set(G: GroupEnumeration, t: int = 1, budget: int = DEFAULT_BUDGET) -> SearchResult:
    """Depth-first exact cover with a fewest-candidates column heuristic.

    Columns are picked by minimum remaining candidate count (ties broken by
    column index) and candidate rows are tried in index order, so the search
    and any witness it returns are deterministic. The node budget makes the
    cutoff machine independent; exhaustion is reported explicitly. A
    budget below 1 is refused: no search could run under it.
    """
    if budget < 1:
        raise ValueError(f"budget {budget} is below 1")
    if t == 1:
        elements = G.elements
    else:
        _, induced = induced_action(G, t)
        elements = induced.elements
    inst = build_cover_instance(elements)
    n = inst.n_cells
    col_rows: list[list[int]] = [[] for _ in range(inst.n_columns)]
    for ri, mask in enumerate(inst.rows):
        m = mask
        while m:
            low = m & -m
            col_rows[low.bit_length() - 1].append(ri)
            m ^= low
    rows = inst.rows
    full = (1 << inst.n_columns) - 1

    nodes = 0
    chosen: list[int] = []

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
                raise _Budget
            chosen.append(ri)
            if search(covered | rows[ri]):
                return True
            chosen.pop()
        return False

    try:
        ok = search(0)
    except _Budget:
        return SearchResult(UNKNOWN_BUDGET, None, nodes)
    if not ok:
        return SearchResult(NONE_EXHAUSTIVE, None, nodes)
    witness = SharpSet(tuple(sorted(chosen)), t)
    expect(verify_sharp_set(G, witness.element_indices, t), "exact-cover witness is not sharply transitive")
    return SearchResult(FOUND, witness, nodes)


class _Budget(Exception):
    pass


def verify_sharp_set(G: GroupEnumeration, indices, t: int = 1) -> bool:
    """Exactly one selected element maps c to c' for every ordered cell pair."""
    if t == 1:
        elements = G.elements
    else:
        _, induced = induced_action(G, t)
        elements = induced.elements
    sel = [elements[i] for i in indices]
    n = len(elements[0])
    if len(sel) != n:
        return False
    count = [[0] * n for _ in range(n)]
    for g in sel:
        for c in range(n):
            count[c][g[c]] += 1
    return all(count[c][d] == 1 for c in range(n) for d in range(n))
