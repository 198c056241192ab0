"""Brute-force oracle: exact-cover search for sharply transitive sets.

A set S inside a group acting on N cells is sharply transitive exactly when
the 0/1 row-selection problem below has a solution: one row per element,
one column per ordered cell pair (c, c'), the row of g covering the pairs
(c, c^g). Selecting rows covering every column exactly once picks out a
sharply transitive set of size N. For t > 1 the group is first re-expressed
on t-arrangements, so one search core handles every arity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from itertools import compress
from operator import or_

from .linsys import _check_cap
from .perm import GroupEnumeration, Perm, expect, induced_action, is_sharply_transitive

FOUND = "found"
NONE_EXHAUSTIVE = "none-exhaustive"
UNKNOWN_BUDGET = "unknown-budget"

DEFAULT_BUDGET = 10**8
ZERO_ONE = bytes.maketrans(b"01", b"\0\1")


@dataclass
class CoverInstance:
    """Exact-cover matrix: columns[j] is the row bitset of column j, and
    units[i] a 1 in bit width * j for each of row i's columns j, read as one
    base-2^b numeral of per-cell digit blocks, b the largest of 1..5 dividing
    width. `width` is the least with every column's row count below
    2^width - 1."""

    n_cells: int
    columns: list[int]
    units: list[int]
    width: int

    @property
    def n_columns(self) -> int:
        return self.n_cells * self.n_cells


def build_cover_instance(elements: list[Perm]) -> CoverInstance:
    n = len(elements[0])
    columns = [0] * (n * n)
    for ri, g in enumerate(elements):
        for c in range(n):
            columns[c * n + g[c]] |= 1 << ri
    width = (max(map(int.bit_count, columns)) + 1).bit_length()  # at least 2, as some column holds a row
    b = next(b for b in (5, 4, 3, 2, 1) if width % b == 0)  # a field is width // b base-2^b digits
    blocks = [b"0" * ((n - d) * width // b - 1) + b"1" + b"0" * (d * width // b) for d in range(n)]  # top field first
    units = [int(b"".join(map(blocks.__getitem__, reversed(g))), 1 << b) for g in elements]
    return CoverInstance(n, columns, units, width)


@dataclass
class SharpSet:
    element_indices: tuple[int, ...]
    t: int


@dataclass
class SearchResult:
    status: str                     # found / none-exhaustive / unknown-budget
    sharp_set: SharpSet | None
    nodes: int


def check_cover_cap(order: int, degree: int, t: int) -> None:
    """Raise GroupTooLarge if the |G| x N^2 units of a group of this order and degree at arity t pass the cap."""
    _check_cap((order, math.perm(degree, max(t, 0)) ** 2), "exact-cover table")  # induced_action refuses a bad t


def find_sharp_set(G: GroupEnumeration, t: int = 1, budget: int = DEFAULT_BUDGET) -> SearchResult:
    """Depth-first exact cover with a fewest-candidates column heuristic.

    A node carries `alive`, the rows sharing no column with a chosen row;
    `counts`, each column's live rows in a packed field; and `covered`, all
    ones in each covered field. A chosen row kills the live rows of its
    conflict mask (its columns' row bitsets ORed, made once), and the child's
    counts subtract their units or sum the survivors', whichever are fewer:
    a sum over at most 24 rows walks the mask's set bits, a larger one goes
    through one 0/1 byte per row. A candidate leaving no live row is counted
    but entered only if it completes the cover. Zero-field tests on
    `counts | covered` pick the lowest-index column with at most one live
    row, else the lowest-index one of fewest; rows go in index order, so
    search and witness are deterministic. The node budget (at least 1) makes
    the cutoff machine independent; check_cover_cap comes first.
    """
    if budget < 1:
        raise ValueError(f"budget {budget} is below 1")
    check_cover_cap(G.order, G.degree, t)
    elements = G.elements if t == 1 else induced_action(G, t)[1].elements
    inst = build_cover_instance(elements)
    n, columns, units, width = inst.n_cells, inst.columns, inst.units, inst.width
    ones, pattern, backwards = (1 << width) - 1, f"0{len(units)}b", units[::-1]
    low = ((1 << width * inst.n_columns) - 1) // ones  # bit 0 of every field
    high = low << width - 1  # bit w-1 of every field; `rest` holds bits 0..w-2 and `upper` bits 1..w-1
    rest, upper = high - low, low * (ones - 1)
    nodes = 0
    chosen: list[int] = []
    conflicts: list[int | None] = [None] * len(elements)  # on first use: all at once is |G|^2 bits (200 MB for S8)

    def picked(mask: int) -> int:  # the units of mask's rows summed
        if mask.bit_count() > 24:  # past the measured crossover: one 0/1 byte per row, the last row's first
            return sum(compress(backwards, format(mask, pattern).encode().translate(ZERO_ONE)))
        total = 0
        while mask:  # few rows: walk the set bits
            total += units[(bit := mask & -mask).bit_length() - 1]
            mask ^= bit
        return total

    def search(counts: int, covered: int, alive: int) -> bool:
        nonlocal nodes
        if len(chosen) == n:  # n disjoint rows of n columns each
            return True
        y = counts | covered
        x, v = y & upper, 2  # a field of x is 0 where y holds 0 or 1; after that, where y holds v = 2, 3, ...
        while not (zero := high & ~(((x & rest) + rest) | x)):  # bit w-1 of x's zero fields; no carry leaves one
            x, v = y ^ v * low, v + 1
        cands = columns[(zero & -zero).bit_length() // width - 1] & alive  # none when that column has no live row
        while cands:
            ri = (cands & -cands).bit_length() - 1
            cands ^= 1 << ri
            nodes += 1
            if nodes > budget:
                raise _Budget
            if (kill := conflicts[ri]) is None:
                kill = conflicts[ri] = reduce(or_, [columns[c * n + d] for c, d in enumerate(elements[ri])])
            kill &= alive
            if not (rows := alive ^ kill) and len(chosen) < n - 1:
                continue  # no live row left and the cover not complete: the child fails at its first column
            child = picked(rows) if rows.bit_count() < kill.bit_count() else counts - picked(kill)
            chosen.append(ri)
            if search(child, covered | units[ri] * ones, rows):
                return True
            chosen.pop()
        return False

    try:
        ok = search(sum(units), 0, (1 << len(units)) - 1)
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
    elements = G.elements if t == 1 else induced_action(G, t)[1].elements
    return is_sharply_transitive([elements[i] for i in indices], len(elements[0]))
