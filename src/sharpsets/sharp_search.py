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
import struct
from dataclasses import dataclass
from functools import reduce
from itertools import compress, count
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
    units[i] a 1 in the `width`-bit field of each of row i's columns."""

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
    width = 8  # whole bytes, with the all-ones field above every live-row count
    while max(map(int.bit_count, columns)) >= (1 << width) - 1:
        width *= 2
    step = width // 8  # bytes per field; a unit is n blocks of n fields, block c holding a 1 in field g[c]
    blocks = [bytes(j * step) + b"\1" + bytes((n - j) * step - 1) for j in range(n)]
    units = [int.from_bytes(b"".join(map(blocks.__getitem__, g)), "little") for g in elements]
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
    conflict mask (its columns' row bitsets ORed, made once) and subtracts
    their units, so backtracking is a return. The column, found in C on the
    bytes of `counts | covered`, is the lowest-index one with at most one
    live row, else the lowest-index one of fewest; rows go in index order,
    so the search and its witness are deterministic. The node budget (at
    least 1) makes the cutoff machine independent; check_cover_cap comes first.
    """
    if budget < 1:
        raise ValueError(f"budget {budget} is below 1")
    check_cover_cap(G.order, G.degree, t)
    elements = G.elements if t == 1 else induced_action(G, t)[1].elements
    inst = build_cover_instance(elements)
    n, columns, units, width = inst.n_cells, inst.columns, inst.units, inst.width
    size, ones, pattern = inst.n_columns * width // 8, (1 << width) - 1, f"0{len(units)}b"
    read = bytes if width == 8 else struct.Struct(f"<{inst.n_columns}{'H' if width == 16 else 'I'}").unpack

    nodes = 0
    chosen: list[int] = []
    conflicts: list[int | None] = [None] * len(elements)  # on first use: all at once is |G|^2 bits (200 MB for S8)

    def search(counts: int, covered: int, alive: int) -> bool:
        nonlocal nodes
        if len(chosen) == n:  # n disjoint rows of n columns each
            return True
        view = read((counts | covered).to_bytes(size, "little"))
        fewest = next(v for v in count() if v in view)
        if fewest == 0 and 1 not in view[: view.index(0)]:
            return False  # the first column of at most one live row has none
        cands = columns[view.index(max(fewest, 1))] & alive
        while cands:
            ri = (cands & -cands).bit_length() - 1
            cands ^= 1 << ri
            nodes += 1
            if nodes > budget:
                raise _Budget
            if (kill := conflicts[ri]) is None:
                kill = conflicts[ri] = reduce(or_, [columns[c * n + d] for c, d in enumerate(elements[ri])])
            kill &= alive
            killed = format(kill, pattern)[::-1].encode().translate(ZERO_ONE)  # one 0/1 byte per row
            chosen.append(ri)
            if search(counts - sum(compress(units, killed)), covered | units[ri] * ones, alive & ~kill):
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
