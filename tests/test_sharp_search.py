import random

import pytest
from conftest import cyc, make_group
from oracles import certificate_search, reference_enumeration, reference_find_sharp_set

from sharpsets import linsys
from sharpsets.perm import GroupSpec, as_perm, enumerate_group, induced_action, listed
from sharpsets.sharp_search import (
    FOUND,
    NONE_EXHAUSTIVE,
    UNKNOWN_BUDGET,
    build_cover_instance,
    find_sharp_set,
    verify_sharp_set,
)


def test_cover_instance_row_shape(c5):
    inst = build_cover_instance(c5.elements)
    assert (inst.n_columns, inst.width) == (25, 2)  # the least width with every count below 2^width - 1
    assert all(members.bit_count() == 1 for members in inst.columns)  # C5 is regular: one element per pair
    for i, g in enumerate(c5.elements):  # a 1 in the field of each pair (c, c^g), and element i in its column
        assert inst.units[i] == sum(1 << 2 * (c * 5 + g[c]) for c in range(5))
        assert all(inst.columns[c * 5 + g[c]] >> i & 1 for c in range(5))


def test_digit_block_units_at_every_field_width(s3, s4, s5, a6, s6, s7):
    # the units are built from base-2^b digit blocks, b the largest of 1..5
    # dividing the width; widths 2..10 reach every base and fields of 1, 2, 3
    # and 7 digits, and S7's first 1,000 elements in BFS order have a largest count of 208
    a5 = make_group(5, "A5", [(0, 1, 2)], [(0, 1, 2, 3, 4)])
    a7 = make_group(7, "A7", [(0, 1, 2)], [(2, 3, 4, 5, 6)])
    s7_bfs = reference_enumeration(GroupSpec(7, (cyc(7, (0, 1)), cyc(7, (0, 1, 2, 3, 4, 5, 6))), "S7"))
    widths = []
    for elements in [G.elements for G in (s3, s4, a5, s5, a6, s6)] + [s7_bfs.elements[:1000], a7.elements, s7.elements]:
        inst = build_cover_instance(elements)
        n, w = inst.n_cells, inst.width
        widths.append(w)
        assert inst.units == [sum(1 << w * (c * n + g[c]) for c in range(n)) for g in elements], w
    assert widths == list(range(2, 11))


def test_regular_group_found_whole(c5):
    result = find_sharp_set(c5, 1)
    assert result.status == FOUND
    assert result.sharp_set.element_indices == (0, 1, 2, 3, 4)


def test_s5_sharply_2_transitive(s5):
    result = find_sharp_set(s5, 2)
    assert result.status == FOUND
    assert len(result.sharp_set.element_indices) == 20
    assert verify_sharp_set(s5, result.sharp_set.element_indices, 2)


def test_fano_stabilizer_exhaustive_none(fano_stabilizer):
    result = find_sharp_set(fano_stabilizer, 1)
    assert result.status == NONE_EXHAUSTIVE


def test_budget_outcome(s5):
    result = find_sharp_set(s5, 2, budget=3)
    assert result.status == UNKNOWN_BUDGET
    assert result.sharp_set is None


def test_verify_rejects_duplicates(c5):
    assert not verify_sharp_set(c5, (0, 1, 2, 3, 3), 1)
    assert not verify_sharp_set(c5, (0, 1, 2, 3), 1)


def test_verify_agl15_inside_s5(s5):
    agl = {tuple((a * x + b) % 5 for x in range(5)) for a in range(1, 5) for b in range(5)}
    idx = s5.index()
    indices = sorted(idx[as_perm(g)] for g in agl)
    assert verify_sharp_set(s5, indices, 2)


def test_search_deterministic(s5):
    first = find_sharp_set(s5, 2)
    second = find_sharp_set(s5, 2)
    assert first.sharp_set.element_indices == second.sharp_set.element_indices
    assert first.nodes == second.nodes


def test_exhaustive_none_means_no_01_solution(fano_stabilizer):
    # the cover matrix is the 0/1 form of the full linear system; mod-2
    # feasibility is a relaxation, so it may hold or not, but the witness
    # direction must be consistent: a 0/1 solution would be found
    system = linsys.build_full_system(fano_stabilizer.elements)
    out = linsys.solve_nonneg_integer(system)
    assert out.status == "infeasible"


def test_exhaustive_none_crosschecked_with_certificate(fano_stabilizer):
    # where the exhaustive search reports none AND a divisibility certificate
    # exists, the system must already be infeasible over that prime field
    assert find_sharp_set(fano_stabilizer, 1).status == NONE_EXHAUSTIVE
    cert = certificate_search(fano_stabilizer, 2)
    assert cert is not None  # frozen: the search finds a (3, 3) pair at p = 2
    system = linsys.build_full_system(fano_stabilizer.elements)
    assert linsys.solve_mod_p(system, cert.p).status == "infeasible"


def test_doublecount_holds_for_every_found_witness(c5, c6, s3, s4, a4, s5):
    # any sharply transitive set the search returns satisfies the counting
    # identity for arbitrary (B, C); 50 seeded pairs per witness
    import random

    from sharpsets.certify import doublecount_check
    from sharpsets.perm import induced_action

    cases = [(c5, 1), (c6, 1), (s3, 1), (s4, 1), (a4, 1), (s5, 2)]
    for enum, t in cases:
        result = find_sharp_set(enum, t)
        assert result.status == FOUND
        if t == 1:
            elements = enum.elements
        else:
            _, induced = induced_action(enum, t)
            elements = induced.elements
        witness = [elements[i] for i in result.sharp_set.element_indices]
        n = len(elements[0])
        rng = random.Random(42)
        for _ in range(50):
            b_set = rng.randrange(1, 1 << n)
            c_set = rng.randrange(1, 1 << n)
            rep = doublecount_check(witness, b_set, c_set)
            assert rep.sharply_transitive and rep.equal


@pytest.mark.parametrize(
    "group, t",
    [("c5", 1), ("c6", 1), ("s3", 1), ("s4", 1), ("a4", 1), ("fano_stabilizer", 1),
     ("s4", 2), ("s5", 2), ("a6", 2), ("s6", 2), ("s7", 1)],
)
def test_packed_counts_match_the_rescan_kernel(request, group, t):
    # same status, node count and witness as the full column rescan; S6 pairs
    # is the 9,000-node exhaustive run, and S7's 720-row columns need 10-bit fields
    enum = request.getfixturevalue(group)
    result = find_sharp_set(enum, t)
    assert result == reference_find_sharp_set(enum, t)
    if group == "s6":
        assert (result.status, result.nodes) == (NONE_EXHAUSTIVE, 9000)
    if group == "s7":
        assert build_cover_instance(enum.elements).width == 10


def test_packed_counts_match_the_rescan_kernel_under_every_budget(s5):
    for budget in range(1, 41):
        assert find_sharp_set(s5, 2, budget) == reference_find_sharp_set(s5, 2, budget), budget


def test_s6_pairs_match_the_rescan_kernel_when_cut_mid_search(s6):
    # S6 pairs sums masks on both sides of the bit-walk threshold and meets
    # candidates that leave no live row, which are counted but not entered
    for budget in (1, 25, 433, 2000, 5000):
        result = find_sharp_set(s6, 2, budget)
        assert result == reference_find_sharp_set(s6, 2, budget), budget
        assert (result.status, result.nodes) == (UNKNOWN_BUDGET, budget + 1)


def test_s6_pair_row_subsets_match_the_rescan_kernel():
    # a cut-short run only shows that neither search ended early; exhausting
    # S6 pairs less every k-th row compares whole node counts, which move if
    # a sum, a skipped child or its count goes wrong; the rows are in BFS order
    s6 = reference_enumeration(GroupSpec(6, (cyc(6, (0, 1)), cyc(6, (0, 1, 2, 3, 4, 5))), "S6"))
    pairs = induced_action(s6, 2)[1].elements
    for k, nodes in ((3, 242), (4, 630), (5, 998)):
        rows = listed(30, [g for i, g in enumerate(pairs) if i % k], f"S6 pairs less every {k}th row")
        result = find_sharp_set(rows, 1)
        assert result == reference_find_sharp_set(rows, 1), k
        assert (result.status, result.nodes) == (NONE_EXHAUSTIVE, nodes)


def seeded_search_groups(count=60, seed=29, cover_cap=400_000):
    """`count` seeded groups of degree 3..7 at t = 1 or 2, each generated by one
    or two random permutations of a random set of points (all of them half of
    the time; a group moving fewer is intransitive), kept when |G| x N^2 for N
    cells is at most `cover_cap`, so that the rescan reference stays quick."""
    rng = random.Random(seed)
    drawn = []
    while len(drawn) < count:
        n, t = rng.randint(3, 7), rng.choice((1, 2))
        moved = rng.sample(range(n), rng.choice((n, rng.randint(2, n))))
        generators = []
        for _ in range(rng.randint(1, 2)):
            images = list(range(n))
            for x, y in zip(moved, rng.sample(moved, len(moved))):
                images[x] = y
            generators.append(bytes(images))
        G = enumerate_group(GroupSpec(n, tuple(generators), "random"))
        if G.order * len(induced_action(G, t)[1].elements[0]) ** 2 <= cover_cap:
            drawn.append((G, t))
    return drawn


def test_packed_counts_match_the_rescan_kernel_on_seeded_groups():
    # status, node count and witness at the default budget and at every budget
    # 1..20; the corpus reaches empty columns and the largest counts 2, 3 and 6
    # on either side of a width step (2 = 2^2 - 2 fits 2 bits, 3 = 2^2 - 1 and
    # 6 = 2^3 - 2 need 3), and both verdicts of the full search
    largest, statuses, empty = set(), set(), 0
    for G, t in seeded_search_groups():
        elements = G.elements if t == 1 else induced_action(G, t)[1].elements
        inst = build_cover_instance(elements)
        counts = [members.bit_count() for members in inst.columns]
        largest.add((max(counts), inst.width))
        empty += min(counts) == 0
        result = find_sharp_set(G, t)
        assert result == reference_find_sharp_set(G, t), (G.name, G.degree, G.order, t)
        statuses.add(result.status)
        for budget in range(1, 21):
            assert find_sharp_set(G, t, budget) == reference_find_sharp_set(G, t, budget), (G.order, t, budget)
    assert {(2, 2), (3, 3), (6, 3)} <= largest
    assert empty >= 10 and statuses == {FOUND, NONE_EXHAUSTIVE}
