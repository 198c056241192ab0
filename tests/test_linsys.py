import itertools
import math
import random
import sys
import time
import tracemalloc
from fractions import Fraction

import pytest
from oracles import (
    fraction_keyed_lp_feasible_point,
    lemma_down_check,
    local_global_check,
    nullspace_mod_p,
    reference_enumeration,
    reference_packed_rows,
    reference_solve_nonneg_integer,
    reference_solve_rational,
    seeded_integer_corpus,
)

from sharpsets import linsys, perm
from sharpsets.linsys import (
    ExactSystem,
    SolveOutcome,
    build_full_system,
    build_H_system,
    dump_system,
    random_restriction_probe,
    restrict_to_fpf,
    solve_integer,
    solve_mod_p,
    solve_nonneg_integer,
    solve_rational,
    verify_witness,
)
from sharpsets.perm import GroupSpec, enumerate_group, from_cycles, identity, induced_action
from sharpsets.sharp_search import find_sharp_set, verify_sharp_set


def dense_rref_rational(system):
    """Dense Gauss-Jordan of [A | b] over Q, first nonzero row as pivot: the reference for the sparse kernel.

    Returns (nonzero rows as Fraction lists, pivots), rows None if inconsistent.
    """
    nrows, ncols = system.rows, system.cols
    aug = [[Fraction(0)] * (ncols + 1) for _ in range(nrows)]
    for c, col in enumerate(system.columns):
        for r, a in col.items():
            aug[r][c] = Fraction(a)
    for r, b in enumerate(system.rhs):
        aug[r][ncols] = Fraction(b)
    pivots = []
    r = 0
    for c in range(ncols):
        sel = next((i for i in range(r, nrows) if aug[i][c] != 0), None)
        if sel is None:
            continue
        aug[r], aug[sel] = aug[sel], aug[r]
        inv = 1 / aug[r][c]
        aug[r] = [x * inv for x in aug[r]]
        for i in range(nrows):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    if any(aug[i][ncols] != 0 for i in range(r, nrows)):
        return None, pivots
    return aug[:r], pivots


def sparse_rref_as_dense(system):
    """The reduced row echelon form read off _rref_integer: its rows scaled to 1 at their pivots, dense."""
    rows, pivots = linsys._rref_integer(system)
    if rows is not None:
        keys = [*range(system.cols), linsys.RHS]
        rows = [[Fraction(row.get(k, 0), row[c]) for k in keys] for row, c in zip(rows, pivots)]
    return rows, pivots


def dense_rref_mod_p(system, p):
    """Gauss-Jordan of [A | b] mod p on lists of Python ints, first nonzero row as pivot: the reference for the packed kernel.

    A pivot row is reduced mod p and zero left of its pivot, so a clear walks
    only its nonzero entries, and other rows are reduced only where a pivot
    is sought and at the end. Returns (reduced rows, pivots), all pivots < cols.
    """
    a = [[0] * (system.cols + 1) for _ in range(system.rows)]
    for c, col in enumerate(system.columns):
        for r, x in col.items():
            a[r][c] = x
    for r, b in enumerate(system.rhs):
        a[r][-1] = b
    pivots = []
    for c in range(system.cols):
        r = len(pivots)
        sel = next((i for i in range(r, system.rows) if a[i][c] % p), None)
        if sel is None:
            continue
        a[r], a[sel] = a[sel], a[r]
        inv = pow(a[r][c], -1, p)
        a[r] = [x * inv % p for x in a[r]]
        nonzero = [(j, x) for j, x in enumerate(a[r]) if x]
        for i, row in enumerate(a):
            if i != r and (f := row[c] % p):
                for j, x in nonzero:
                    row[j] -= f * x
        pivots.append(c)
    return [[x % p for x in row] for row in a], pivots


def reference_mod_p(system, p):
    """(status, rank, witness, nullspace basis of A) read off dense_rref_mod_p, free variables 0."""
    a, pivots = dense_rref_mod_p(system, p)
    ncols, rank = system.cols, len(pivots)
    null = []
    for f in sorted(set(range(ncols)) - set(pivots)):
        v = [0] * ncols
        v[f] = 1
        for i, c in enumerate(pivots):
            v[c] = -a[i][f] % p
        null.append(v)
    if any(row[ncols] for row in a[rank:]):
        return "infeasible", rank, None, null
    witness = [0] * ncols
    for i, c in enumerate(pivots):
        witness[c] = a[i][ncols]
    return "solvable", rank, witness, null


def packed_mod_p(system, p):
    """The same four answers from solve_mod_p and nullspace_mod_p."""
    out = solve_mod_p(system, p)
    matrix = [[col.get(r, 0) for col in system.columns] for r in range(system.rows)]
    return out.status, out.notes["rank"], out.witness, nullspace_mod_p(matrix, p)


# ---------------------------------------------------------------------------
# Construction


def test_full_system_c3():
    c3 = enumerate_group(GroupSpec(3, (from_cycles(3, (0, 1, 2)),), "C3"))
    system = build_full_system(c3.elements)
    assert (system.rows, system.cols) == (9, 3)
    assert verify_witness(system, [1, 1, 1])


def test_full_system_columns_are_permutation_matrices(s4, a6):
    from sharpsets.sharp_search import build_cover_instance

    _, a6_pairs = induced_action(a6, 2)
    for enum in (s4, a6_pairs):
        n = enum.degree
        system = build_full_system(enum.elements)
        cover = build_cover_instance(enum.elements)
        for k, (g, column) in enumerate(zip(enum.elements, system.columns)):
            assert column == {i * n + g[i]: 1 for i in range(n)}
            assert [j for j, members in enumerate(cover.columns) if members >> k & 1] == sorted(column)


def test_system_shape_checks():
    with pytest.raises(ValueError):
        ExactSystem.from_rows([[1, 0], [1]], [1, 1])
    with pytest.raises(ValueError):
        ExactSystem.from_rows([[1, 0], [0, 1]], [1])
    for key in (-1, 2):  # row keys run over 0..rows-1 only
        with pytest.raises(ValueError, match="outside 0..1"):
            ExactSystem([{0: 1}, {key: 1}], [1, 1])
    system = ExactSystem.from_rows([[2, 0], [0, -1]], [1, 1])
    assert (system.rows, system.cols, system.columns) == (2, 2, [{0: 2}, {1: -1}])


def test_full_system_sizes_a6_pairs(a6):
    _, induced = induced_action(a6, 2)
    system = build_full_system(induced.elements)
    assert (system.rows, system.cols) == (900, 360)


def test_full_system_trivial_group_infeasible():
    one = perm.listed(2, [identity(2)], "1")
    system = build_full_system(one.elements)
    assert solve_mod_p(system, 2).status == "infeasible"
    assert solve_rational(system).status == "infeasible"
    assert solve_integer(system).status == "infeasible"


def test_H_system_trivial_subgroup_equals_full(s3):
    one = perm.listed(3, [identity(3)], "1")
    collapsed = build_H_system(s3, one)
    full = build_full_system(s3.elements)
    assert collapsed.columns == full.columns
    assert collapsed.rhs == full.rhs


def test_H_system_s3_with_c2(s3):
    h = enumerate_group(GroupSpec(3, (from_cycles(3, (0, 1)),), "C2"))
    system = build_H_system(s3, h)
    assert sum(system.rhs) == 9
    for c in range(system.cols):
        assert sum(system.columns[c].values()) == 3


def test_H_system_row_sums_are_degree(s4):
    h = enumerate_group(GroupSpec(4, (from_cycles(4, (0, 1), (2, 3)),), "C2"))
    system = build_H_system(s4, h)
    assert sum(system.rhs) == 16
    for c in range(system.cols):
        assert sum(system.columns[c].values()) == 4


def test_H_system_requires_containment(s3, s4):
    with pytest.raises(ValueError):
        build_H_system(s3, s4)


def test_H_system_checks_every_class_member(monkeypatch):
    # with (4, 3) split off its orbit the count breaks inside a class of A5,
    # though not on the first three members after its representative
    a5 = enumerate_group(GroupSpec(5, (from_cycles(5, (0, 1, 2)), from_cycles(5, (0, 1, 2, 3, 4))), "A5"))
    whole = linsys.orbits_on_pairs
    monkeypatch.setattr(
        linsys, "orbits_on_pairs", lambda H: [[q for q in orb if q != (4, 3)] for orb in whole(H)] + [[(4, 3)]]
    )
    with pytest.raises(perm.InvariantViolation, match="not constant on a conjugation class"):
        build_H_system(a5, a5)


def test_restrict_to_fpf_c5(c5):
    full = build_full_system(c5.elements)
    restricted = restrict_to_fpf(full)
    # every non-identity rotation is fixed-point-free, so nothing is dropped
    assert restricted.cols == 5
    pinned = restrict_to_fpf(full, pin_identity=True)
    assert pinned.cols == 4
    n = 5
    assert pinned.rhs == [0 if i == j else 1 for i in range(n) for j in range(n)]


def test_restrict_to_fpf_s3(s3):
    full = build_full_system(s3.elements)
    restricted = restrict_to_fpf(full)
    kept = [perm.cycle_type(g) for g in restricted.column_elements]
    assert kept == [(1, 1, 1), (3,), (3,)]


def test_restrict_to_fpf_on_collapsed_system(s4):
    # class representatives are kept exactly when they are the identity or
    # fixed-point-free; fixed-point-freeness is a class property, so the
    # restriction is well defined on the collapsed system too
    h = enumerate_group(GroupSpec(4, (from_cycles(4, (0, 1), (2, 3)),), "C2"))
    collapsed = build_H_system(s4, h)
    restricted = restrict_to_fpf(collapsed)
    assert restricted.rows == collapsed.rows
    for g in restricted.column_elements:
        assert g == identity(4) or perm.is_fixed_point_free(g)
    assert 0 < restricted.cols < collapsed.cols


def test_restrict_requires_column_elements(c5):
    full = build_full_system(c5.elements)
    full.column_elements = None
    with pytest.raises(ValueError):
        restrict_to_fpf(full)


def test_dump_system(tmp_path, c5):
    system = build_full_system(c5.elements)
    path = tmp_path / "c5.sys"
    dump_system(system, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "25 5"
    assert len(lines) == 27


# ---------------------------------------------------------------------------
# F_p solver


def test_mod2_c5_all_ones(c5):
    out = solve_mod_p(build_full_system(c5.elements), 2)
    assert out.status == "solvable"
    assert out.witness == [1, 1, 1, 1, 1]


def test_mod_p_a6_pairs_infeasible(a6):
    _, induced = induced_action(a6, 2)
    system = build_full_system(induced.elements)
    assert solve_mod_p(system, 2).status == "infeasible"


def test_mod_p_various_primes(c6):
    system = build_full_system(c6.elements)
    for p in (2, 3, 5, 7):
        out = solve_mod_p(system, p)
        assert out.status == "solvable"
        assert verify_witness(system, out.witness, modulus=p)


def test_mod_p_rejects_composite(c5):
    with pytest.raises(ValueError):
        solve_mod_p(build_full_system(c5.elements), 4)


def test_is_prime_is_exact_below_its_bound():
    def trial_division(p):
        return p >= 2 and all(p % d for d in range(2, math.isqrt(p) + 1))

    assert [p for p in range(10**5) if linsys.is_prime(p) != trial_division(p)] == []
    # Carmichael numbers, the least strong pseudoprime to the bases 2, 3, 5, 7, and the least to every prime to 37
    for n in (561, 41041, 3215031751, 318665857834031151167461):
        assert not linsys.is_prime(n)
    start = time.perf_counter()
    assert linsys.is_prime(2**61 - 1)
    assert time.perf_counter() - start < 0.01
    assert not linsys.is_prime(linsys.PRIME_BOUND - 1)
    with pytest.raises(ValueError, match="decided exactly"):
        linsys.is_prime(linsys.PRIME_BOUND)


def test_mod_p_odd_matches_brute_force():
    rng = random.Random(3)
    for p in (2, 3, 5):
        for _ in range(30):
            nrows, ncols = rng.randrange(1, 4), rng.randrange(1, 4)
            matrix = [[rng.randrange(p) for _ in range(ncols)] for _ in range(nrows)]
            rhs = [rng.randrange(p) for _ in range(nrows)]
            system = ExactSystem.from_rows(matrix, rhs)
            brute = any(
                all(sum(a * x for a, x in zip(row, cand)) % p == b % p for row, b in zip(matrix, rhs))
                for cand in itertools.product(range(p), repeat=ncols)
            )
            assert (solve_mod_p(system, p).status == "solvable") == brute


def test_mod_p_beyond_int64_products():
    # (p-1)^2 >= 2^63, so int64 elimination would wrap around
    p = 4294967311
    rng = random.Random(11)
    for _ in range(5):
        matrix = [[rng.randrange(p) for _ in range(6)] for _ in range(6)]
        rhs = [rng.randrange(p) for _ in range(6)]
        system = ExactSystem.from_rows(matrix, rhs)
        out = solve_mod_p(system, p)
        assert out.status == "solvable" and out.notes["rank"] == 6
        assert verify_witness(system, out.witness, modulus=p)


def test_nullspaces_match_brute_force():
    rng = random.Random(5)
    for p in (2, 3, 5):
        for _ in range(40):
            nrows, ncols = rng.randrange(1, 5), rng.randrange(1, 5)
            matrix = [[rng.randrange(p) for _ in range(ncols)] for _ in range(nrows)]
            vectors = list(itertools.product(range(p), repeat=ncols))
            null = {v for v in vectors if all(sum(a * x for a, x in zip(row, v)) % p == 0 for row in matrix)}
            basis = nullspace_mod_p(matrix, p)
            assert all(tuple(v) in null for v in basis)
            # the basis has ncols - rank vectors and spans the whole nullspace
            span = {
                tuple(sum(c * v[j] for c, v in zip(coeffs, basis)) % p for j in range(ncols))
                for coeffs in itertools.product(range(p), repeat=len(basis))
            }
            assert span == null and len(null) == p ** len(basis)


# ---------------------------------------------------------------------------
# Q solver


def test_rational_half():
    system = ExactSystem.from_rows([[2]], [1])
    out = solve_rational(system)
    assert out.status == "solvable"
    assert out.witness == [Fraction(1, 2)]


def test_rational_inconsistent():
    system = ExactSystem.from_rows([[1], [1]], [0, 1])
    assert solve_rational(system).status == "infeasible"


def test_rational_full_collapse_fast_path(c5, s3, s4, a4, fano_stabilizer):
    # collapsing by the whole group must not change rational solvability:
    # averaging a full solution over G gives a collapsed one, and a collapsed
    # solution spreads back out evenly, because |G| is invertible over Q
    one = perm.listed(2, [identity(2)], "1")
    for enum in (c5, s3, s4, a4, fano_stabilizer, one):
        direct = solve_rational(build_full_system(enum.elements)).status
        collapsed = solve_rational(build_H_system(enum, enum)).status
        assert direct == collapsed, enum.name


def test_sparse_rref_matches_dense_reference():
    # the reduced row echelon form is unique, so the sparse kernel, which
    # pivots on the sparsest row, must return the reference's rows and pivots
    rng = random.Random(606)
    kinds = {"consistent": 0, "inconsistent": 0, "rank-deficient": 0, "zero-row": 0}
    for trial in range(200):
        nrows, ncols = rng.randrange(0, 7), rng.randrange(1, 7)
        rank = rng.randrange(0, min(nrows, ncols) + 1)
        basis = [[rng.randrange(-5, 6) for _ in range(ncols)] for _ in range(rank)]
        matrix = [
            [sum(rng.randrange(-2, 3) * v[c] for v in basis) for c in range(ncols)] for _ in range(nrows)
        ]
        if trial % 3 == 0:
            rhs = [rng.randrange(-4, 5) for _ in range(nrows)]
        else:
            x0 = [Fraction(rng.randrange(-3, 4), rng.randrange(1, 4)) for _ in range(ncols)]
            scale = math.lcm(*(x.denominator for x in x0))
            matrix = [[scale * a for a in row] for row in matrix]
            rhs = [int(sum(a * x for a, x in zip(row, x0))) for row in matrix]
        if nrows:
            matrix[rng.randrange(nrows)] = [0] * ncols  # a zero row, its right side kept
        system = ExactSystem([{r: row[c] for r, row in enumerate(matrix) if row[c]} for c in range(ncols)], rhs)
        reference = dense_rref_rational(system)
        assert sparse_rref_as_dense(system) == reference, trial
        kinds["inconsistent" if reference[0] is None else "consistent"] += 1
        kinds["rank-deficient"] += len(reference[1]) < min(nrows, ncols)
        kinds["zero-row"] += nrows == 0 or (reference[0] is not None and len(reference[0]) < nrows)
    assert min(kinds.values()) >= 20, kinds


def test_sparse_rref_matches_dense_reference_on_pairs(s4, s5):
    for enum, rank in ((s4, None), (s5, 78)):
        _, pairs = induced_action(enum, 2)
        system = build_full_system(pairs.elements)
        rows, pivots = sparse_rref_as_dense(system)
        assert (rows, pivots) == dense_rref_rational(system)
        assert rank is None or len(pivots) == rank


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 4294967311])
def test_packed_mod_p_matches_dense_reference(p):
    # the reduced row echelon form is unique, so the packed echelon basis and
    # its back-substitution must give the reference's status, rank, witness
    # (free variables 0) and nullspace basis
    rng = random.Random(p)
    kinds = {"solvable": 0, "infeasible": 0, "rank-deficient": 0, "zero-row": 0}
    for trial in range(200):
        nrows, ncols = rng.randrange(1, 8), rng.randrange(1, 8)
        rank = rng.randrange(0, min(nrows, ncols) + 1)
        basis = [[rng.randrange(-p, p) for _ in range(ncols)] for _ in range(rank)]
        matrix = [
            [sum(rng.randrange(-2, 3) * v[c] for v in basis) for c in range(ncols)] for _ in range(nrows)
        ]
        if trial % 4 == 0:
            matrix[rng.randrange(nrows)] = [0] * ncols
        if trial % 3 == 0:
            rhs = [rng.randrange(-p, p) for _ in range(nrows)]
        else:
            x0 = [rng.randrange(-p, p) for _ in range(ncols)]
            rhs = [sum(a * x for a, x in zip(row, x0)) for row in matrix]
        system = ExactSystem([{r: row[c] for r, row in enumerate(matrix) if row[c]} for c in range(ncols)], rhs)
        reference = reference_mod_p(system, p)
        assert packed_mod_p(system, p) == reference, trial
        kinds[reference[0]] += 1
        kinds["rank-deficient"] += reference[1] < min(nrows, ncols)
        kinds["zero-row"] += any(not any(row) for row in matrix)
    assert min(kinds.values()) >= 20, kinds


def test_packed_mod_p_matches_dense_reference_on_pairs(s4, s5, a6):
    # A6 pairs (900 x 360) spreads the leads over hundreds of columns:
    # mod 2 infeasible at rank 206, mod 3 solvable at rank 189
    for enum, primes in ((s4, (2, 3, 5)), (s5, (2, 3, 5)), (a6, (2, 3))):
        _, pairs = induced_action(enum, 2)
        system = build_full_system(pairs.elements)
        for p in primes:
            assert packed_mod_p(system, p) == reference_mod_p(system, p), (enum.name, p)
    assert [solve_mod_p(system, p).notes["rank"] for p in (2, 3)] == [206, 189]


def assert_reduced_basis(system, p):
    """Check that the packed basis of system mod p is the reduced row echelon form.

    Each row is 1 at its own lead and 0 at every other lead, the leads are the
    reference's pivots (and cols when inconsistent), and a consistent system's
    rows are the reference's rows. Returns the status.
    """
    basis = linsys._echelon_mod_p(system, p)
    w, ncols = linsys._width(p), system.cols

    def unpack(row):
        return [row >> ((ncols - c) * w) & ((1 << w) - 1) for c in range(ncols + 1)]

    rows = {lead: unpack(row) for lead, row in basis.items()}
    for lead, row in rows.items():
        assert [row[c] for c in rows] == [int(c == lead) for c in rows], lead
    a, pivots = dense_rref_mod_p(system, p)
    status = "infeasible" if any(row[ncols] for row in a[len(pivots):]) else "solvable"
    assert sorted(rows) == pivots + [ncols] * (status == "infeasible")
    if status == "solvable":
        assert [rows[c] for c in pivots] == [[int(x) for x in a[i]] for i in range(len(pivots))]
    return status


@pytest.mark.parametrize("p", [2, 3, 5, 4294967311])
def test_packed_basis_is_reduced(p, s5, a6):
    # the kernel keeps its basis reduced, so that a row clears only its own
    # leads and the witness is read off the rows
    rng = random.Random(7 * p)
    seen = set()
    for trial in range(120):
        nrows, ncols = rng.randrange(1, 8), rng.randrange(1, 8)
        rank = rng.randrange(0, min(nrows, ncols) + 1)
        basis = [[rng.randrange(-p, p) for _ in range(ncols)] for _ in range(rank)]
        matrix = [[sum(rng.randrange(-2, 3) * v[c] for v in basis) for c in range(ncols)] for _ in range(nrows)]
        if trial % 2:
            rhs = [rng.randrange(-p, p) for _ in range(nrows)]
        else:
            x0 = [rng.randrange(-p, p) for _ in range(ncols)]
            rhs = [sum(a * x for a, x in zip(row, x0)) for row in matrix]
        seen.add(assert_reduced_basis(ExactSystem.from_rows(matrix, rhs), p))
    assert seen == {"solvable", "infeasible"}
    for enum in (s5, a6):
        _, pairs = induced_action(enum, 2)
        assert_reduced_basis(build_full_system(pairs.elements), p)


@pytest.mark.parametrize("p", [2, 3, 4294967311])
def test_packed_mod_p_right_side_alone(p):
    # b sits in the lowest packed field: a row holding only b is inconsistent,
    # a zero row or a right side of p vanishes
    for system, status, witness in (
        (ExactSystem([], [1]), "infeasible", None),
        (ExactSystem([], [0]), "solvable", []),
        (ExactSystem([{}], [p]), "solvable", [0]),
    ):
        out = solve_mod_p(system, p)
        assert (out.status, out.notes["rank"], out.witness) == (status, 0, witness)


def shuffle_rows(system, rng):
    """The same system with its equations in a seeded random order."""
    order = list(range(system.rows))
    rng.shuffle(order)
    new_row = {r: i for i, r in enumerate(order)}
    columns = [{new_row[r]: a for r, a in col.items()} for col in system.columns]
    return ExactSystem(columns, [system.rhs[r] for r in order], system.column_elements)


@pytest.mark.parametrize("p", [2, 3, 5, 4294967311])
def test_packed_basis_does_not_depend_on_row_order(p, s5, a6, c5):
    # the kernel takes rows shortest first, which changes only its work: the
    # reduced row echelon form of [A | b] is unique, so the basis and the
    # report must not move when the equations are permuted
    rng = random.Random(19 * p)
    _, s5_on_pairs = induced_action(s5, 2)
    s5_pairs = build_full_system(s5_on_pairs.elements)
    systems = [
        s5_pairs,
        build_full_system(induced_action(a6, 2)[1].elements),
        build_H_system(s5_on_pairs, induced_action(c5, 2)[1]),
        restrict_to_fpf(s5_pairs, pin_identity=True),
    ]
    for trial in range(50):
        nrows, ncols = rng.randrange(1, 9), rng.randrange(1, 9)
        rank = rng.randrange(0, min(nrows, ncols) + 1)
        basis = [[rng.randrange(-p, p) for _ in range(ncols)] for _ in range(rank)]
        matrix = [[sum(rng.randrange(-2, 3) * v[c] for v in basis) for c in range(ncols)] for _ in range(nrows)]
        if trial % 2:
            rhs = [rng.randrange(-p, p) for _ in range(nrows)]
        else:
            x0 = [rng.randrange(-p, p) for _ in range(ncols)]
            rhs = [sum(a * x for a, x in zip(row, x0)) for row in matrix]
        systems.append(ExactSystem.from_rows(matrix, rhs))
    statuses = []
    for k, system in enumerate(systems):
        shuffled = shuffle_rows(system, rng)
        assert linsys._echelon_mod_p(shuffled, p) == linsys._echelon_mod_p(system, p), k
        assert solve_mod_p(shuffled, p).as_dict() == solve_mod_p(system, p).as_dict(), k
        statuses.append(assert_reduced_basis(shuffled, p))
    assert statuses[4:].count("infeasible") >= 10, statuses


@pytest.mark.parametrize("p", [2, 3])
def test_packed_mod_p_zero_and_right_side_only_rows(p):
    # shortest first puts zero rows and rows holding only b ahead of the rest
    for system in (
        ExactSystem.from_rows([[0, 0, 0], [1, 2, 0], [0, 0, 0], [0, 1, 1]], [0, 1, p, 2]),
        ExactSystem.from_rows([[0, 0], [1, 1], [0, 0], [0, 1]], [0, 1, 1, 0]),
        ExactSystem.from_rows([[1, 2], [0, 0], [0, 1]], [1, 1, 1]),
        ExactSystem.from_rows([[0, 0, 0]] * 3, [0, 0, 0]),
        ExactSystem.from_rows([[0, 0]] * 2, [0, 1]),
        ExactSystem.from_rows([[]] * 3, [0, 0, 0]),
        ExactSystem.from_rows([[]] * 3, [0, 1, 0]),
        ExactSystem([{}, {}], []),
    ):
        out = solve_mod_p(system, p)
        assert (out.status, out.notes["rank"], out.witness) == reference_mod_p(system, p)[:3], system


def packed_row_bytes(system, p):
    """The bytes of [A | b]'s rows packed mod p as _echelon_mod_p lays them out, one int each."""
    w, ncols = linsys._width(p), system.cols
    rows = [b % p for b in system.rhs]
    for c, col in enumerate(system.columns):
        for r, a in col.items():
            rows[r] |= a % p << (ncols - c) * w
    return sum(map(sys.getsizeof, rows))


def test_packed_kernel_keeps_no_more_than_its_basis_beside_the_rows(s5):
    # between rows the kernel holds only its basis and lead mask; a clear's
    # doublings live for one step, so at a large p the peak stays near the
    # packed rows themselves rather than a few copies of each lead's row
    p = 4294967311
    system = build_full_system(induced_action(s5, 2)[1].elements)
    tracemalloc.start()
    try:
        basis = linsys._echelon_mod_p(system, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(basis) == 78
    assert peak < 2 * packed_row_bytes(system, p), (peak, packed_row_bytes(system, p))


@pytest.mark.parametrize("p", [2, 3, 5, 7, 251, 257, 65537, 4294967311])
def test_byte_packer_matches_shift_or_reference(p, s5):
    # each entry is ORed into its row's bytearray, over more than one byte only
    # when (a % p) << (bit offset in its byte) passes 255: the rows must be the
    # ints one shift and OR per entry makes, for coefficients of every kind, on
    # S5 pairs and on its collapse by itself, whose counts pass 1
    rng = random.Random(31 * p)
    w = linsys._width(p)
    kinds = {"negative": 0, "zero": 0, "at least p": 0, "multi-byte": 0}
    pairs = induced_action(s5, 2)[1]
    systems = [
        build_full_system(pairs.elements),
        build_H_system(pairs, pairs),
        ExactSystem([{}, {}], []),
        ExactSystem([], [0, 1, p, -1, 3 * p + 2]),
        ExactSystem([{0: 0, 1: 0}, {}], [0, 0]),
        ExactSystem.from_rows([[0, 0, 0], [1, 2, 0], [0, 0, 0]], [0, 1, p]),
    ]
    for _ in range(60):
        nrows, ncols = rng.randrange(1, 7), rng.randrange(1, 24)
        choices = (0, 1, -1, p - 1, p, p + 1, 2 * p + 3, -p - 2, rng.randrange(-4 * p, 4 * p), rng.randrange(1 << 40))
        columns = [{r: rng.choice(choices) for r in range(nrows) if rng.random() < 0.7} for _ in range(ncols)]
        systems.append(ExactSystem(columns, [rng.choice(choices) for _ in range(nrows)]))
    for k, system in enumerate(systems):
        assert linsys._packed_rows(system, p) == reference_packed_rows(system, p), k
        entries = [(c, a) for c, col in enumerate(system.columns) for a in col.values()]
        entries += [(system.cols, b) for b in system.rhs]
        for c, a in entries:
            kinds["negative"] += a < 0
            kinds["zero"] += a == 0
            kinds["at least p"] += a >= p
            kinds["multi-byte"] += a % p << (system.cols - c) * w % 8 > 255
    if not any((p - 1) << f * w % 8 > 255 for f in range(8)):  # fields of 1 bit (p = 2) or 4 (p = 5, 7)
        assert kinds.pop("multi-byte") == 0
    assert min(kinds.values()) >= 20, kinds


# ---------------------------------------------------------------------------
# Z solver


def test_integer_2x_eq_1():
    system = ExactSystem.from_rows([[2]], [1])
    assert solve_integer(system).status == "infeasible"


def test_integer_c5_all_ones(c5):
    out = solve_integer(build_full_system(c5.elements))
    assert out.status == "solvable"
    assert out.witness == [1, 1, 1, 1, 1]


def test_integer_staircase_refused_through_the_cap():
    # 3,000 cells get no mod-2 prescreen; the staircase's [A; I] columns hold 3,000 x 3,001
    with pytest.raises(perm.GroupTooLarge, match=r"^a 3000 x 3001 Hermite staircase passes the cap of 8388608 cells$"):
        solve_integer(ExactSystem([{0: 1}] * 3000, [1]))


def test_integer_agrees_with_bounded_search():
    # 100 seeded random 5x8 systems against the exhaustive box search, half
    # planted solvable and half infeasible by a scaled row, so both
    # directions of the agreement are exercised on every run
    statuses = {"solvable": 0, "infeasible": 0}
    for trial, (matrix, rhs, boxed) in enumerate(seeded_integer_corpus()):
        system = ExactSystem.from_rows(matrix, rhs)
        out = solve_integer(system)
        if out.status == "solvable":
            assert verify_witness(system, out.witness)
            assert boxed, f"trial {trial}: solver witness exists but box search missed"
        else:
            assert not boxed, f"trial {trial}: box search found a solution"
        statuses[out.status] += 1
    assert statuses["solvable"] == 50 and statuses["infeasible"] == 50


def test_integer_witness_exactness():
    rng = random.Random(7)
    for _ in range(50):
        nrows, ncols = rng.randrange(1, 5), rng.randrange(1, 6)
        matrix = [[rng.randrange(-6, 7) for _ in range(ncols)] for _ in range(nrows)]
        x0 = [rng.randrange(-4, 5) for _ in range(ncols)]
        rhs = [sum(a * x for a, x in zip(row, x0)) for row in matrix]
        system = ExactSystem.from_rows(matrix, rhs)
        out = solve_integer(system)
        assert out.status == "solvable"
        assert verify_witness(system, out.witness)


# ---------------------------------------------------------------------------
# Non-negative integers


def test_nonneg_c5(c5):
    out = solve_nonneg_integer(build_full_system(c5.elements))
    assert out.status == "solvable"
    assert all(x >= 0 for x in out.witness)


def test_nonneg_forced_fraction_infeasible():
    system = ExactSystem.from_rows([[1, 1], [1, -1]], [1, 2])
    assert solve_nonneg_integer(system).status == "infeasible"


def test_nonneg_agrees_with_exhaustive_enumeration():
    # 50 seeded 8-variable instances; the first row pins the coordinate sum,
    # so complete enumeration over compositions is the oracle
    rng = random.Random(987)
    solvable = infeasible = 0
    for trial in range(50):
        total = rng.randrange(3, 7)
        extra_rows = [[rng.randrange(-3, 4) for _ in range(8)] for _ in range(3)]
        if trial % 2 == 0:
            x0 = [0] * 8
            for _ in range(total):
                x0[rng.randrange(8)] += 1
            rhs_extra = [sum(a * x for a, x in zip(row, x0)) for row in extra_rows]
        else:
            rhs_extra = [rng.randrange(-6, 7) for _ in range(3)]
        matrix = [[1] * 8] + extra_rows
        rhs = [total] + rhs_extra
        system = ExactSystem.from_rows(matrix, rhs)
        out = solve_nonneg_integer(system)

        def compositions(total, parts):
            if parts == 1:
                yield (total,)
                return
            for head in range(total + 1):
                for rest in compositions(total - head, parts - 1):
                    yield (head,) + rest

        oracle = next(
            (
                c
                for c in compositions(total, 8)
                if all(sum(a * x for a, x in zip(row, c)) == b for row, b in zip(extra_rows, rhs_extra))
            ),
            None,
        )
        assert (out.status == "solvable") == (oracle is not None), f"trial {trial}"
        if out.status == "solvable":
            assert verify_witness(system, out.witness)
            assert all(x >= 0 for x in out.witness)
            solvable += 1
        else:
            infeasible += 1
    assert solvable >= 15 and infeasible >= 10


@pytest.mark.parametrize("pin", [False, True])
def test_nonneg_full_system_is_the_sharp_set_search(c5, c6, s3, s4, s5, pin):
    # every x_g of a full system sits in a row whose right side is 1 (with the
    # identity pinned: every fixed-point-free x_g), so each Z>=0 solution is
    # 0/1 and its support a sharply transitive set: the two oracles agree
    found = 0
    for enum, t in itertools.product((c5, c6, s3, s4, s5), (1, 2)):
        group = induced_action(enum, t)[1] if t > 1 else enum
        system = build_full_system(group.elements)
        if pin:
            system = restrict_to_fpf(system, pin_identity=True)
        out = solve_nonneg_integer(system)
        search = find_sharp_set(enum, t)
        assert (out.status == "solvable") == (search.status == "found"), (enum.name, t)
        assert out.status in ("solvable", "infeasible") and out.notes["simplex_pivots"] >= 0
        if out.status == "solvable":
            assert set(out.witness) <= {0, 1}
            support = [x for x, g in zip(out.witness, system.column_elements) if x]
            chosen = [group.index()[g] for x, g in zip(out.witness, system.column_elements) if x]
            if pin:
                chosen.append(group.index()[identity(group.degree)])
            assert len(support) + pin == group.degree
            assert verify_sharp_set(enum, chosen, t), (enum.name, t)
            found += 1
    assert found == 8  # C5 and C6 are not transitive on ordered pairs


def test_witness_entries_print_as_ints_or_fractions():
    # as_dict reads each entry's denominator (ints have one): a whole value is
    # written as an int, whether it came as an int, a bool or a Fraction, and
    # any other as its Fraction string
    witness = [0, 3, True, Fraction(4, 2), Fraction(-1, 2), Fraction(7, 3)]
    wit = SolveOutcome("solvable", witness).as_dict()["witness"]
    assert wit == [0, 3, 1, 2, "-1/2", "7/3"] and [type(x) for x in wit[:4]] == [int] * 4
    assert SolveOutcome("infeasible").as_dict() == {"status": "infeasible", "witness": None, "notes": {}}


def test_nonneg_notes_count_simplex_pivots():
    # S4 on its 4 points, its columns in BFS order, branches once, and both nodes pivot
    s4 = reference_enumeration(GroupSpec(4, (from_cycles(4, (0, 1)), from_cycles(4, (0, 1, 2, 3))), "S4"))
    system = build_full_system(s4.elements)
    first, again = solve_nonneg_integer(system), solve_nonneg_integer(system)
    assert first.notes == again.notes == {"nodes": 2, "simplex_pivots": 13}
    assert first.witness == again.witness
    # rational preprocessing settles it before any simplex runs
    assert solve_nonneg_integer(ExactSystem.from_rows([[1], [1]], [0, 1])).notes == {
        "stage": "rational-preprocessing", "simplex_pivots": 0}


def test_nonneg_budget_outcome():
    system = ExactSystem.from_rows([[2, -2]], [1])
    # rationally feasible (x = y + 1/2) but integrally hopeless; the budget
    # must cut the unbounded branching off explicitly
    out = solve_nonneg_integer(system, budget=10)
    assert out.status in ("unknown-budget", "infeasible")


@pytest.mark.parametrize(
    "matrix, rhs, nodes",
    [
        ([[3, -1, -2, -3, 2, 3], [-2, 1, -1, -1, -2, 3], [2, 2, -3, -3, -1, 2]], [-3, 4, 1], 281),
        ([[0, 3, 3, -1, 1, -3], [3, 1, 3, -1, -3, 3]], [11, 8], 11),
    ],
)
def test_nonneg_search_reaches_a_solution_past_unbounded_branches(matrix, rhs, nodes):
    # a depth-first search dives along the unbounded variables of these two
    # and runs out of budget; first in, first out reaches the finite branch
    # that holds a solution, and the Fraction-row reference agrees node for node
    system = ExactSystem.from_rows(matrix, rhs)
    out = solve_nonneg_integer(system)
    assert (out.status, out.notes["nodes"]) == ("solvable", nodes)
    assert min(out.witness) >= 0 and verify_witness(system, out.witness)
    assert out.as_dict() == reference_solve_nonneg_integer(system, linsys.DEFAULT_BNB_BUDGET).as_dict()


# ---------------------------------------------------------------------------
# Integer rows against the Fraction-row reference kernel


def assert_matches_fraction_reference(system, budget, label):
    # integer rows are positive multiples of the Fraction rows, so every
    # pivot, ratio test and branch must coincide: status, witness, rank,
    # nodes and simplex pivots
    out = solve_nonneg_integer(system, budget)
    assert out.as_dict() == reference_solve_nonneg_integer(system, budget).as_dict(), label
    assert solve_rational(system).as_dict() == reference_solve_rational(system).as_dict(), label
    return out


def test_integer_rows_match_fraction_reference_on_random_systems():
    rng = random.Random(1968)
    seen = {"solvable": 0, "infeasible": 0, "unknown-budget": 0, "branched": 0, "pivoted": 0}
    for trial in range(400):
        nrows, ncols = rng.randrange(1, 6), rng.randrange(2, 7)
        matrix = [[rng.randrange(-4, 5) for _ in range(ncols)] for _ in range(nrows)]
        if trial % 3:
            x0 = [rng.randrange(0, 3) for _ in range(ncols)]
            rhs = [sum(a * x for a, x in zip(row, x0)) for row in matrix]
        else:
            rhs = [rng.randrange(-6, 7) for _ in range(nrows)]
        if trial % 5 == 0:
            matrix[0] = [2 * a for a in matrix[-1]]  # rank-deficient, the right side left as it is
        system = ExactSystem.from_rows(matrix, rhs)
        out = assert_matches_fraction_reference(system, rng.randrange(1, 41), trial)
        seen[out.status] += 1
        seen["branched"] += out.notes.get("nodes", 0) > 1
        seen["pivoted"] += out.notes["simplex_pivots"] > 0
        # the same system again on a budget of 1 to 3 nodes, so that enough
        # searches are cut short for the unknown-budget outcome to be compared
        cut = assert_matches_fraction_reference(system, 1 + trial % 3, (trial, "cut"))
        seen["unknown-budget"] += cut.status == "unknown-budget"
    assert min(seen.values()) >= 20, seen


def test_integer_ratio_test_matches_fraction_keyed_reference_on_ties():
    # 0/1/2 rows with small right sides tie often at the least ratio; the
    # cross-multiplied comparison, ties to the lower basis[i], must leave on
    # the row the Fraction key does, so the point and the pivots agree, and
    # the branch and bound above it matches the Fraction-row reference
    rng = random.Random(2024)
    seen = {"feasible": 0, "infeasible": 0, "tied runs": 0, "ties": 0}
    for trial in range(300):
        nrows, ncols = rng.randrange(2, 7), rng.randrange(3, 9)
        matrix = [[rng.choice((0, 0, 1, 1, 2, -1)) for _ in range(ncols)] for _ in range(nrows)]
        if trial % 3:
            x0 = [rng.randrange(0, 3) for _ in range(ncols)]
            rhs = [sum(a * x for a, x in zip(row, x0)) for row in matrix]
        else:
            rhs = [rng.randrange(-2, 4) for _ in range(nrows)]
        system = ExactSystem.from_rows(matrix, rhs)
        rows, pivots = linsys._rref_integer(system)
        if rows is None:
            continue
        lo = [rng.randrange(0, 2) * (trial % 2) for _ in range(ncols)]
        hi = [None if rng.random() < 0.6 else x + rng.randrange(1, 4) for x in lo]
        ties = []
        point, steps = linsys._lp_feasible_point(rows, pivots, lo, hi)
        assert (point, steps) == fraction_keyed_lp_feasible_point(rows, pivots, lo, hi, ties), trial
        seen["feasible" if point is not None else "infeasible"] += 1
        seen["tied runs"] += max(ties, default=1) > 1
        seen["ties"] += sum(n > 1 for n in ties)
        if trial % 4 == 0:
            assert_matches_fraction_reference(system, 40, trial)
    assert min(seen.values()) >= 40, seen


def test_integer_rows_match_fraction_reference_on_pairs(s4, s5):
    for enum, pin in ((s4, False), (s5, False), (s4, True)):
        system = build_full_system(induced_action(enum, 2)[1].elements)
        if pin:
            system = restrict_to_fpf(system, pin_identity=True)
        out = assert_matches_fraction_reference(system, linsys.DEFAULT_BNB_BUDGET, (enum.name, pin))
        assert out.status == "solvable"


def test_integer_rref_rows_are_primitive_and_positive_at_their_pivot():
    # the gcd divisions keep entries small, and the sign at the pivot is
    # what the ratio test and the basic values read
    rng = random.Random(1967)
    for trial in range(100):
        nrows, ncols = rng.randrange(1, 6), rng.randrange(1, 7)
        matrix = [[3 * rng.randrange(-4, 5) for _ in range(ncols)] for _ in range(nrows)]
        rhs = [3 * rng.randrange(-2, 3) for _ in range(nrows)]
        rows, pivots = linsys._rref_integer(ExactSystem.from_rows(matrix, rhs))
        for row, c in zip(rows or [], pivots):
            assert row[c] > 0 and math.gcd(*row.values()) == 1, trial


# ---------------------------------------------------------------------------
# Ring monotonicity on a mixed corpus


def test_ring_monotonicity(c5, c6, s3, s4):
    systems = [build_full_system(g.elements) for g in (c5, c6, s3, s4)]
    h = enumerate_group(GroupSpec(3, (from_cycles(3, (0, 1)),), "C2"))
    systems.append(build_H_system(s3, h))
    rng = random.Random(5)
    for _ in range(10):
        matrix = [[rng.randrange(-3, 4) for _ in range(4)] for _ in range(3)]
        rhs = [rng.randrange(-5, 6) for _ in range(3)]
        systems.append(ExactSystem.from_rows(matrix, rhs))
    for system in systems:
        nn = solve_nonneg_integer(system).status
        zz = solve_integer(system).status
        qq = solve_rational(system).status
        if nn == "solvable":
            assert zz == "solvable"
        if zz == "solvable":
            assert qq == "solvable"
            for p in (2, 3, 5):
                assert solve_mod_p(system, p).status == "solvable"


# ---------------------------------------------------------------------------
# Restriction probe


def test_probe_c6_finds_witness(c6):
    system = build_full_system(c6.elements)
    out = random_restriction_probe(system, keep=6, trials=5, seed=0)
    assert out.status == "solvable"
    assert verify_witness(system, out.witness)


def test_probe_keep_zero_unknown(c6):
    system = build_full_system(c6.elements)
    out = random_restriction_probe(system, keep=0, trials=3, seed=0)
    assert out.status == "unknown-budget"


def test_probe_rejects_overlong_keep(c5):
    system = build_full_system(c5.elements)
    with pytest.raises(ValueError):
        random_restriction_probe(system, keep=99, trials=1)


def test_probe_deterministic(c6):
    system = build_full_system(c6.elements)
    a = random_restriction_probe(system, keep=4, trials=10, seed=3)
    b = random_restriction_probe(system, keep=4, trials=10, seed=3)
    assert a.status == b.status
    assert a.witness == b.witness


# ---------------------------------------------------------------------------
# Subgroup-collapse statements


def test_lemma_down_trivial_bottom(s4):
    one = perm.listed(4, [identity(4)], "1")
    u = enumerate_group(GroupSpec(4, (from_cycles(4, (0, 1), (2, 3)),), "C2"))
    report = lemma_down_check(s4, one, u)
    assert report["implication_holds"]


def test_lemma_down_s4_chain(s4):
    u = enumerate_group(GroupSpec(4, (from_cycles(4, (0, 1), (2, 3)),), "C2"))
    v = enumerate_group(GroupSpec(4, (from_cycles(4, (0, 1), (2, 3)), from_cycles(4, (0, 2), (1, 3))), "V4"))
    report = lemma_down_check(s4, u, v)
    assert report["implication_holds"]


def test_lemma_down_a4(a4):
    u = enumerate_group(GroupSpec(4, (from_cycles(4, (0, 1), (2, 3)),), "C2"))
    v = enumerate_group(GroupSpec(4, (from_cycles(4, (0, 1), (2, 3)), from_cycles(4, (0, 2), (1, 3))), "V4"))
    report = lemma_down_check(a4, u, v)
    assert report["implication_holds"]


def test_lemma_down_containment_errors(s4, s3):
    one = perm.listed(4, [identity(4)], "1")
    with pytest.raises(ValueError):
        lemma_down_check(s4, s4, one)


def test_local_global_s3(s3):
    c3 = enumerate_group(GroupSpec(3, (from_cycles(3, (0, 1, 2)),), "C3"))
    c2 = enumerate_group(GroupSpec(3, (from_cycles(3, (0, 1)),), "C2"))
    report = local_global_check(s3, {2: c3, 3: c2})
    assert report["equivalence_holds"]
    assert report["lift_consequence_holds"]


def test_local_global_c6(c6):
    g = from_cycles(6, (0, 1, 2, 3, 4, 5))
    c3 = enumerate_group(GroupSpec(6, (perm.compose(g, g),), "C3"))
    c2 = enumerate_group(GroupSpec(6, (perm.compose(perm.compose(g, g), g),), "C2"))
    report = local_global_check(c6, {2: c3, 3: c2})
    assert report["full_status"] == "solvable"
    assert report["equivalence_holds"]
    assert report["lift_consequence_holds"]


def test_local_global_rejects_bad_subgroup(s3):
    c2 = enumerate_group(GroupSpec(3, (from_cycles(3, (0, 1)),), "C2"))
    with pytest.raises(ValueError):
        local_global_check(s3, {2: c2})


def test_local_global_a6_pairs(a6):
    # the full system is infeasible and the 2'-collapse must be too
    action, G = induced_action(a6, 2)

    def sub(*cycs_list, name=""):
        gens = tuple(from_cycles(6, *cycs) for cycs in cycs_list)
        small = enumerate_group(GroupSpec(6, gens, name))
        return perm.enumeration_from_elements(action.size, [action.cell_perm(g) for g in small.elements], name)

    syl2 = sub([(0, 1, 2, 3), (4, 5)], [(0, 2), (4, 5)], name="syl2")
    syl3 = sub([(0, 1, 2)], [(3, 4, 5)], name="syl3")
    assert (syl2.order, syl3.order) == (8, 9)
    report = local_global_check(G, {2: syl3, 3: syl2, 5: syl2})
    assert report["full_status"] == "infeasible"
    assert report["per_prime"][2]["H_status"] == "infeasible"
    assert report["equivalence_holds"]
    assert report["lift_consequence_holds"]
