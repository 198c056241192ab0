"""Exact linear systems attached to a permutation action, and their solvers.

The full system has one equation per ordered point pair (i, j) and one
variable per group element g, with coefficient 1 when i^g = j and right
side 1 throughout; 0/1 solutions are exactly the sharply transitive sets,
so solvability over F_p, Q, Z or the non-negative integers gives a ladder
of relaxations. Collapsing by a subgroup H (orbits of H on ordered pairs
as equations, H-conjugacy class representatives as variables) yields the
condensed system; with H trivial it reproduces the full one.

Systems are stored by column: the full system is its elements' permutation
matrices. Only the Hermite kernel and the export densify; F_p, Q and Z>=0
work on packed or sparse rows, whose fill-in the dense cap bounds, except
over F_2, whose one-bit rows take less memory than the columns they come from.

All solver arithmetic is exact: rows packed byte by byte into one Python
integer over F_p (one bit per entry for p = 2, added by xor; else a field of
p.bit_length() + 1 bits, added mod p all at once; column 0 in the highest
field and b in the lowest, so a row's lead is read off its bit_length),
fraction-free integer rows over Q (Edmonds, Bareiss) and
arbitrary-precision integers for the Hermite normal form over Z. Floating
point is never used. Each field has one elimination kernel, shared by its
solver and its other users: over F_p one packed reduced echelon basis
serves every prime, and the witness is read off it; over Q one sparse
integer pivot step serves Gauss-Jordan and the Z>=0 phase-1 simplex, whose
ratio test compares integers.
"""

from __future__ import annotations

import random
from collections import Counter, deque
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from itertools import chain
from math import gcd, lcm
from operator import add, xor

from .perm import (
    GroupEnumeration,
    GroupTooLarge,
    InvariantViolation,
    Perm,
    conjugation_reps,
    expect,
    identity,
    is_fixed_point_free,
    orbits_on_pairs,
)

SOLVABLE = "solvable"
INFEASIBLE = "infeasible"
UNKNOWN_BUDGET = "unknown-budget"


@dataclass
class ExactSystem:
    """A x = b by column: columns[k] is {row: nonzero coefficient}, column_elements[k] its element."""

    columns: list[dict[int, int]]
    rhs: list[int]
    column_elements: list[Perm] | None = field(default=None, repr=False)

    @property
    def rows(self) -> int:
        return len(self.rhs)

    @property
    def cols(self) -> int:
        return len(self.columns)

    def __post_init__(self):
        rows = len(self.rhs)
        if not set(range(rows)).issuperset(chain.from_iterable(self.columns)):
            raise ValueError(f"a column names a row outside 0..{rows - 1}")

    @classmethod
    def from_rows(cls, matrix: list[list[int]], rhs: list[int]) -> ExactSystem:
        """The system with these dense rows, which must all have one length, one per right side."""
        ncols = len(matrix[0]) if matrix else 0
        if len(rhs) != len(matrix) or any(len(r) != ncols for r in matrix):
            raise ValueError(f"rows of lengths {sorted({len(r) for r in matrix})} for {len(rhs)} right sides")
        columns = [{r: row[c] for r, row in enumerate(matrix) if row[c]} for c in range(ncols)]
        return cls(columns, list(rhs))

    def select(self, keep: list[int]) -> ExactSystem:
        """The system on the columns in keep, in that order; the right side is copied."""
        elements = [self.column_elements[k] for k in keep] if self.column_elements else None
        return ExactSystem([self.columns[k] for k in keep], list(self.rhs), elements)


DENSE_CELL_CAP = 1 << 23  # dense cells, or packed or sparse rows' fill-in: above A7 on pairs (4.45M), below M22 (214M)


def _check_cap(shape: tuple[int, int], what: str) -> None:
    if shape[0] * shape[1] > DENSE_CELL_CAP:
        raise GroupTooLarge(f"a {shape[0]} x {shape[1]} {what} passes the cap of {DENSE_CELL_CAP} cells")


def check_run_cap(rows: int, cols: int, ring: str, p: int | None, export: bool, probe: bool) -> None:
    """Raise GroupTooLarge as a run's first capped step would on [A | b] of a rows x cols system.

    The export's dense array comes first, then the packed F_p elimination for
    odd p, or the rational elimination for Q and Z>=0. A probe, Z (the mod-2
    prescreen may answer first, and the staircase has its own shape) and F_2
    (not capped) have no such step.
    """
    if not export and (probe or ring == "z" or p == 2):
        return
    what = "dense array" if export else "packed F_p elimination" if ring == "f_p" else "rational elimination"
    _check_cap((rows, cols + 1), what)


@dataclass
class SolveOutcome:
    status: str
    witness: list | None = None        # ints, or Fractions for the rational solver
    notes: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        wit = None
        if self.witness is not None:
            wit = [int(x) if x.denominator == 1 else str(x) for x in self.witness]
        return {"status": self.status, "witness": wit, "notes": self.notes}


def verify_witness(system: ExactSystem, witness, modulus: int | None = None) -> bool:
    """Exact substitution check; mod `modulus` when it is given."""
    acc = [0] * system.rows
    for col, x in zip(system.columns, witness):
        if x:
            for r, a in col.items():
                acc[r] += a * x
    if modulus is None:
        return acc == list(system.rhs)
    return all((a - b) % modulus == 0 for a, b in zip(acc, system.rhs))


# ---------------------------------------------------------------------------
# System construction


def build_full_system(elements: list[Perm], n: int | None = None) -> ExactSystem:
    """One equation per ordered pair of the n points (the elements' degree by default), one variable per element."""
    n = len(elements[0]) if n is None else n
    columns = [dict.fromkeys(map(add, range(0, n * n, n), g), 1) for g in elements]
    return ExactSystem(columns, [1] * (n * n), list(elements))


def build_H_system(G: GroupEnumeration, H: GroupEnumeration) -> ExactSystem:
    """Collapse the full system by a subgroup H.

    Equations: orbits of H on ordered point pairs, right side the orbit
    size. Variables: representatives of the H-conjugation classes on G,
    with coefficient a_i(g), the number of g's N pairs (x, x^g) in orbit i.
    The count only depends on the class of g, which is checked on every
    member of each class.
    """
    if H.degree != G.degree:
        raise ValueError("G and H act on different point sets")
    orbits = orbits_on_pairs(H)
    orbit_of = {pair: i for i, orb in enumerate(orbits) for pair in orb}
    classes = conjugation_reps(G, H)

    def a_of(g: Perm) -> Counter:
        return Counter(map(orbit_of.__getitem__, enumerate(g)))

    columns = []
    for members in classes:
        col = a_of(members[0])
        for other in members[1:]:
            expect(a_of(other) == col, "coefficient not constant on a conjugation class")
        columns.append(dict(col))
    return ExactSystem(columns, [len(orb) for orb in orbits], [members[0] for members in classes])


def fpf_columns(elements: list[Perm], pin_identity: bool = False) -> list[int]:
    """The indices of the fixed-point-free elements and, unless pin_identity, the identity, in order."""
    ident = None if pin_identity else identity(len(elements[0]))
    return [k for k, g in enumerate(elements) if g == ident or is_fixed_point_free(g)]


def restrict_to_fpf(system: ExactSystem, pin_identity: bool = False) -> ExactSystem:
    """The fpf_columns alone; with pin_identity the identity's column goes too, its 1s taken off the right side."""
    if system.column_elements is None:
        raise ValueError("system carries no column elements")
    keep = fpf_columns(system.column_elements)
    pinned = [k for k in keep if pin_identity and not is_fixed_point_free(system.column_elements[k])]
    restricted = system.select([k for k in keep if k not in pinned])
    for k in pinned:
        for r, a in system.columns[k].items():
            restricted.rhs[r] -= a
    return restricted


def dump_system(system: ExactSystem, path) -> None:
    """Textual dump: 'rows cols', then the matrix rows, then the right side."""
    _check_cap((system.rows, system.cols + 1), "dense array")
    with open(path, "w") as fh:
        fh.write(f"{system.rows} {system.cols}\n")
        for r in range(system.rows):
            fh.write(" ".join(str(col.get(r, 0)) for col in system.columns) + "\n")
        fh.write(" ".join(str(b) for b in system.rhs) + "\n")


# ---------------------------------------------------------------------------
# F_p


PRIME_BOUND = 3_317_044_064_679_887_385_961_981  # Miller-Rabin on the primes 2..41 is exact below it
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin, exact for p < PRIME_BOUND (Sorenson & Webster 2015).

    Raises ValueError for a larger p, whose primality it cannot decide.
    """
    if p >= PRIME_BOUND:
        raise ValueError(f"p = {p} is not below {PRIME_BOUND}, where primality is decided exactly")
    if p < 2 or p in _WITNESSES:
        return p in _WITNESSES
    s = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = d * 2^s with d odd
    for a in _WITNESSES:
        x = pow(a, (p - 1) >> s, p)
        if x == 1:
            continue
        for _ in range(s):  # a strong probable prime reaches -1 among the squarings
            if x == p - 1:
                break
            x = x * x % p
        else:
            return False
    return True


def solve_mod_p(system: ExactSystem, p: int) -> SolveOutcome:
    """Exact solvability over F_p, with a witness when solvable.

    The witness, free variables 0, is read off the reduced echelon basis of _echelon_mod_p (capped for odd p).
    """
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    basis = _echelon_mod_p(system, p)
    if system.cols in basis:
        return SolveOutcome(INFEASIBLE, None, {"rank": len(basis) - 1, "p": p})
    witness = _back_substitute(basis, system.cols, p, system.cols)
    if not verify_witness(system, witness, modulus=p):
        raise InvariantViolation(f"mod-{p} witness fails substitution")
    return SolveOutcome(SOLVABLE, witness, {"rank": len(basis), "p": p})


def _width(p: int) -> int:
    """Bits per packed entry: one for p = 2, else p.bit_length() and a guard bit."""
    return 1 if p == 2 else p.bit_length() + 1


def _packed_rows(system: ExactSystem, p: int) -> list[int]:
    """[A | b]'s rows mod p, one int of _width(p)-bit fields each: column c in field cols - c, b in field 0.

    A row is ORed together in a bytearray, one byte per entry unless the entry spans more, then made one int; the
    buffers go one at a time, so they and the ints are never all alive together."""
    ncols, w = system.cols, _width(p)
    rows = [bytearray((w * (ncols + 1) + 7) // 8) for _ in system.rhs]
    for c, col in enumerate([*system.columns, dict(enumerate(system.rhs))]):  # b as column ncols
        at, s = divmod((ncols - c) * w, 8)
        for r, a in col.items():
            if (v := a % p << s) < 256:
                rows[r][at] |= v
            else:
                row, end = rows[r], at + (v.bit_length() + 7) // 8
                row[at:end] = (int.from_bytes(row[at:end], "little") | v).to_bytes(end - at, "little")
    for r, row in enumerate(rows):
        rows[r] = int.from_bytes(row, "little")
    return rows


def _echelon_mod_p(system: ExactSystem, p: int) -> dict[int, int]:
    """Reduced echelon basis of [A | b] mod p, built row by row: {lead: packed row}.

    Rows come from _packed_rows, so a row's lead (lowest nonzero column) is its top nonzero field; they go in
    shortest first. Each basis row is 1 at its own lead and 0 at the others, and `leads` masks every lead field:
    while y = x & leads is nonzero, the row x clears the top field of y, and no other lead of x moves. A row still
    nonzero opens a new lead, is scaled to 1 there, and that field is cleared from the basis rows whose lead is
    above it (the rest are 0 there). The leads are the pivots of the reduced row echelon form (a lead at cols:
    inconsistent). Rows add mod p at once: xor for p = 2; else s = x + y, less p in every field where s + 2^k - p
    carries into bit k. A clear x - e*b is one add: of b for e = p - 1 (always for p = 2), of p in every field less
    b for e = 1 (fields below 2p). Any other e, and the scaling, is a step: x + (p-e)*b or x + (p in every field,
    less e*b) by the smaller multiple, summed from the doublings 2^i*b it needs. Only the basis and `leads` outlive
    a row; a new row's doublings serve its one pass over the basis. The dense cap bounds fill-in for odd p; one-bit
    rows take less memory than their columns, so p = 2 is not capped.
    """
    ncols = system.cols
    if p != 2:
        _check_cap((system.rows, ncols + 1), "packed F_p elimination")
    k, w, rows = p.bit_length(), _width(p), _packed_rows(system, p)
    mask = (1 << w) - 1
    ones = ((1 << (w * (ncols + 1))) - 1) // mask
    carry, all_p = ones * ((1 << k) - p), ones * p

    def add_packed(x: int, y: int) -> int:
        s = x + y
        return s - p * (((s + carry) >> k) & ones)

    add_rows = xor if p == 2 else add_packed

    def step(x: int, doubles: list[int], e: int) -> int:
        """x - e*b mod p for 0 < e < p, b = doubles[0]; doubles grows as far as the multiple needs."""
        m = min(e, p - e)
        for _ in range(len(doubles), m.bit_length()):
            doubles.append(add_rows(doubles[-1], doubles[-1]))
        mb = reduce(add_rows, [d for i, d in enumerate(doubles) if m >> i & 1])
        return add_rows(x, mb if m == p - e else all_p - mb)

    basis: dict[int, int] = {}  # low bit of a lead field -> its row
    leads = 0
    for x in sorted(rows, key=int.bit_length):
        while y := x & leads:
            e, b = y >> (at := (y.bit_length() - 1) // w * w), basis[at]
            x = add_rows(x, b) if e == p - 1 else add_rows(x, all_p - b) if e == 1 else step(x, [b], e)
        if x:
            if (e := x >> (at := (x.bit_length() - 1) // w * w)) != 1:
                x = step(x, [x], (1 - pow(e, -1, p)) % p)  # x - (1 - 1/e)*x
            new, neg = [x], all_p - x
            for g, row in basis.items():
                if g > at and (e := row >> at & mask):
                    basis[g] = add_rows(row, x) if e == p - 1 else add_rows(row, neg) if e == 1 else step(row, new, e)
            basis[at] = x
            leads |= mask << at
    return {ncols - at // w: row for at, row in basis.items()}


def _back_substitute(basis: dict[int, int], col: int, p: int, ncols: int) -> list[int]:
    """x with row . x = row[col] mod p for each row of the reduced basis, zero off the leads: x[lead] = row[col]."""
    shift, mask = (ncols - col) * _width(p), (1 << _width(p)) - 1
    x = [0] * ncols
    for lead, row in basis.items():
        x[lead] = row >> shift & mask
    return x


# ---------------------------------------------------------------------------
# Q: sparse integer rows, one pivot step shared by Gauss-Jordan and the phase-1 simplex


RHS = -1  # the key of the right side in a sparse row


def _pivot(rows: list[dict], r: int, c: int) -> None:
    """Make rows[r] primitive and positive at column c, and clear c from the other rows that hold it.

    Rows are {col: int} dicts, the right side under RHS, each standing for
    itself times any positive rational. A row holding c becomes (a*row -
    f*prow) / gcd(a, f), a = prow[c] and f = row[c], then is divided by the
    gcd of its entries; an entry that reaches 0 is dropped. Each row so stays
    a positive multiple of the Fraction row that scaling prow to 1 would give.
    """
    prow = rows[r]
    if (d := gcd(*prow.values()) * (1 if prow[c] > 0 else -1)) != 1:
        for k in prow:
            prow[k] //= d
    a = prow[c]
    for row in rows:
        if row is not prow and (f := row.get(c)):
            g = gcd(a, f)
            if (s := a // g) != 1:
                for k in row:
                    row[k] *= s
            f //= g
            for k, v in prow.items():
                if x := row.get(k, 0) - f * v:
                    row[k] = x
                else:
                    row.pop(k, None)
            if (e := gcd(*row.values())) > 1:
                for k in row:
                    row[k] //= e


def _rref_integer(system: ExactSystem):
    """Gauss-Jordan of [A | b] over Q on integer rows: (rows, pivots), rows None if inconsistent.

    rows[i] is positive at pivots[i]. The reduced row echelon form is unique
    up to row scales, so a column may pivot on any row holding it; the
    sparsest keeps fill-in low. Fill-in can reach every cell, so the dense
    cap applies.
    """
    _check_cap((system.rows, system.cols + 1), "rational elimination")
    rows = [{RHS: b} if b else {} for b in system.rhs]
    for c, col in enumerate(system.columns):
        for r, a in col.items():
            rows[r][c] = a
    free = set(range(system.rows))
    pivots, order = [], []
    for c in range(system.cols):
        if candidates := [i for i in free if rows[i].get(c)]:
            r = min(candidates, key=lambda i: (len(rows[i]), i))
            _pivot(rows, r, c)
            free.remove(r)
            pivots.append(c)
            order.append(r)
    if any(RHS in rows[i] for i in free):
        return None, pivots
    return [rows[i] for i in order], pivots


def solve_rational(system: ExactSystem) -> SolveOutcome:
    """Exact Gaussian elimination over the rationals; free variables are set to 0."""
    rows, pivots = _rref_integer(system)
    if rows is None:
        return SolveOutcome(INFEASIBLE, None, {"rank": len(pivots)})
    witness = [Fraction(0)] * system.cols
    for row, c in zip(rows, pivots):
        witness[c] = Fraction(row.get(RHS, 0), row[c])
    if not verify_witness(system, witness):
        raise InvariantViolation("rational witness fails substitution")
    return SolveOutcome(SOLVABLE, witness, {"rank": len(pivots)})


# ---------------------------------------------------------------------------
# Z via column Hermite staircase


LARGE_SYSTEM_CELLS = 50_000


def solve_integer(system: ExactSystem) -> SolveOutcome:
    """Integral solvability via a column Hermite staircase, witness included.

    Unimodular column operations (pivot chosen with minimal absolute value)
    bring A to a lower staircase H = A U; forward substitution in H decides
    divisibility row by row and U turns the reduced solution back into one
    of the original system. For very large systems an exact mod-2
    infeasibility pre-screen runs first, since an integral solution would
    reduce to one of F_2.
    """
    if system.rows * system.cols > LARGE_SYSTEM_CELLS:
        pre = solve_mod_p(system, 2)
        if pre.status == INFEASIBLE:
            return SolveOutcome(INFEASIBLE, None, {"prescreen": "mod-2 infeasible"})
    status, witness, notes = _hermite_solve(system)
    if status == SOLVABLE and not verify_witness(system, witness):
        raise InvariantViolation("integer witness fails substitution")
    return SolveOutcome(status, witness, notes)


def _hermite_solve(system: ExactSystem):
    nrows, ncols, rhs = system.rows, system.cols, system.rhs
    _check_cap((ncols, nrows + ncols), "Hermite staircase")
    # column j of [A; I]: its lower block, e_j at first, tracks U, so one operation updates H = A U and U
    cols = [[col.get(i, 0) for i in range(nrows)] + [int(i == j) for i in range(ncols)]
            for j, col in enumerate(system.columns)]
    pivot_of: list[tuple[int, int]] = []  # (row, staircase column)
    r = 0
    for i in range(nrows):
        if r == ncols:
            break
        while len(nz := [j for j in range(r, ncols) if cols[j][i] != 0]) > 1:
            jmin = min(nz, key=lambda j: (abs(cols[j][i]), j))
            for j in nz:
                if j != jmin and (q := cols[j][i] // cols[jmin][i]):
                    cols[j] = [a - q * b for a, b in zip(cols[j], cols[jmin])]
        if not nz:
            continue
        j = nz[0]
        cols[r], cols[j] = cols[j], cols[r]
        if cols[r][i] < 0:
            cols[r] = [-a for a in cols[r]]
        pivot_of.append((i, r))
        r += 1
    # forward substitution; columns with pivot row below i vanish at row i
    y = [0] * r
    pivot_rows = {i: c for i, c in pivot_of}
    for i in range(nrows):
        acc = rhs[i] - sum(cols[c][i] * y[c] for c in range(r))
        if i in pivot_rows:
            c = pivot_rows[i]
            h = cols[c][i]
            if acc % h != 0:
                return INFEASIBLE, None, {"divisibility_row": i}
            y[c] = acc // h
        elif acc != 0:
            return INFEASIBLE, None, {"inconsistent_row": i}
    witness = [0] * ncols
    for c in range(r):
        if y[c]:
            witness = [w + y[c] * a for w, a in zip(witness, cols[c][nrows:])]
    return SOLVABLE, witness, {"staircase_rank": r}


# ---------------------------------------------------------------------------
# Non-negative integers: branch and bound over an exact rational relaxation


DEFAULT_BNB_BUDGET = 20_000


def solve_nonneg_integer(system: ExactSystem, budget: int = DEFAULT_BNB_BUDGET) -> SolveOutcome:
    """Branch and bound with exact phase-1 simplex relaxations.

    Branching is deterministic: the lowest-index fractional variable splits
    into a floor child, queued first, and a ceiling child; nodes are taken
    first in, first out. A split tightens one bound toward any integer
    solution, so the branch that holds one is finite and is reached. The
    budget counts explored nodes; exceeding it returns unknown-budget rather
    than a guess. notes.simplex_pivots counts the Bland pivots over all nodes.
    """
    rows, pivots = _rref_integer(system)
    if rows is None:
        return SolveOutcome(INFEASIBLE, None, {"stage": "rational-preprocessing", "simplex_pivots": 0})
    ncols = system.cols
    queue = deque([([0] * ncols, [None] * ncols)])
    nodes = steps = 0
    while queue:
        lo, hi = queue.popleft()
        nodes += 1
        if nodes > budget:
            return SolveOutcome(UNKNOWN_BUDGET, None, {"nodes": nodes, "simplex_pivots": steps})
        point, n = _lp_feasible_point(rows, pivots, lo, hi)
        steps += n
        if point is None:
            continue
        frac_at = next((j for j, x in enumerate(point) if x.denominator != 1), None)
        if frac_at is None:
            witness = [int(x) for x in point]
            if any(x < 0 for x in witness) or not verify_witness(system, witness):
                raise InvariantViolation("non-negative integer witness fails its check")
            return SolveOutcome(SOLVABLE, witness, {"nodes": nodes, "simplex_pivots": steps})
        v = int(point[frac_at])  # the floor: the value is positive here
        queue.append((lo, hi[:frac_at] + [v] + hi[frac_at + 1:]))
        queue.append((lo[:frac_at] + [v + 1] + lo[frac_at + 1:], hi))
    return SolveOutcome(INFEASIBLE, None, {"nodes": nodes, "simplex_pivots": steps})


def _lp_feasible_point(rref: list[dict], pivots: list[int], lo, hi):
    """Phase-1 simplex (Bland's rule, integer rows) for A x = b, lo <= x <= hi: (x or None, pivots made).

    A x = b comes as _rref_integer's rows, its pivot columns the start
    basis. x is shifted by lo; a finite upper bound is a slack row x_j + s_j
    = hi_j - lo_j, less x_j's basic row, so that s_j starts basic. Rows with
    a negative right side are negated and get an artificial, which is never
    stored as a column: once it leaves the basis it is dropped. The
    objective sums the negated rows, each divided by the coefficient of its
    start basic variable (times their lcm, to stay integral), as rows scaled
    to 1 there would: weighted otherwise, Bland's rule pivots elsewhere. The
    ratio test compares rhs/entry as integers cross-multiplied, and a basic
    value is right side over coefficient: neither depends on a row's scale.
    """
    ncols = len(lo)
    rows = [{**row, RHS: row.get(RHS, 0) - sum(a * lo[k] for k, a in row.items() if k != RHS)} for row in rref]
    basis = list(pivots)
    for j in range(ncols):
        if hi[j] is not None:
            basis.append(ncols + len(rows))  # a slack, ranked after every x
            rows.append({j: 1, ncols + len(rows): 1, RHS: hi[j] - lo[j]})
    for i, j in enumerate(pivots):
        if hi[j] is not None:
            _pivot(rows, i, j)  # clears x_j from its slack row
    m = len(rows)
    negated = [i for i, row in enumerate(rows) if row.get(RHS, 0) < 0]
    scale = lcm(*(rows[i][basis[i]] for i in negated))
    obj = {}
    for i in negated:
        w = scale // rows[i][basis[i]]
        for k, v in rows[i].items():
            rows[i][k] = -v
            obj[k] = obj.get(k, 0) - w * v
        basis[i] = ncols + m + i  # an artificial, ranked after every slack
    rows.append(obj)
    steps = 0
    while (enter := min((k for k, a in obj.items() if k != RHS and a > 0), default=None)) is not None:
        leave = None
        for i, row in zip(range(m), rows):  # the least rhs/a over a > 0, cross-multiplied; ties to the lower basis[i]
            if (a := row.get(enter, 0)) > 0:
                r = row.get(RHS, 0)
                if leave is None or (d := r * best_a - best_r * a) < 0 or d == 0 and basis[i] < basis[leave]:
                    leave, best_r, best_a = i, r, a
        expect(leave is not None, "phase-1 objective is bounded below, a ratio row must exist")
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


# ---------------------------------------------------------------------------
# Random restriction probe


def random_restriction_probe(
    system: ExactSystem,
    keep: int,
    trials: int,
    seed: int = 0,
    nonneg: bool = False,
) -> SolveOutcome:
    """Zero out all but `keep` randomly chosen variables and solve over Z.

    Each trial samples its own column subset (seeded, reproducible); the
    first witness found is zero-extended and re-verified against the full
    system. All trials failing is an unknown-budget outcome, not a proof.
    """
    if keep > system.cols:
        raise ValueError("keep-count exceeds the variable count")
    rng = random.Random(seed)
    for trial in range(trials):
        chosen = sorted(rng.sample(range(system.cols), keep))
        sub = system.select(chosen)
        outcome = solve_nonneg_integer(sub) if nonneg else solve_integer(sub)
        if outcome.status == SOLVABLE:
            full = [0] * system.cols
            for j, x in zip(chosen, outcome.witness):
                full[j] = x
            if not verify_witness(system, full):
                raise InvariantViolation("probe witness fails substitution on the full system")
            return SolveOutcome(SOLVABLE, full, {"trial": trial, "kept": chosen})
    return SolveOutcome(UNKNOWN_BUDGET, None, {"trials": trials})
