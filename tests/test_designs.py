import random
from math import comb

import pytest
from conftest import shipped_group_path
from oracles import (
    read_design,
    read_graph,
    reference_golay_codewords,
    reference_graph_error,
    reference_mclaughlin_adjacency,
)

from sharpsets import designs, gf, perm
from sharpsets.designs import (
    Graph,
    SymmetricDesignParams,
    blocks_avoiding,
    blocks_through,
    srg_check,
    steiner_check,
    symmetric_design_refutation,
)


def test_block_count(witt):
    # C(23,4) / C(7,4) blocks in a Steiner system with these parameters
    assert comb(23, 4) // comb(7, 4) == 253
    assert witt.b == 253
    assert witt.v == 23 and witt.k == 7


def test_qr_generator_polynomial_is_pinned():
    # x^11 + x^9 + x^7 + x^6 + x^5 + x + 1, a factor of x^23 + 1; the non-residues' idempotent gives 0xC75
    g = designs._qr_generator_polynomial()
    assert g == 0xAE3
    assert gf.poly_mod(1 << 23 | 1, g) == 0


def test_golay_codewords_are_the_products():
    # word m is m(x) g(x): the doubling build keeps each product at its index
    assert designs.golay_codewords() == reference_golay_codewords()


def test_steiner_property(witt):
    assert steiner_check(witt, 4)


def test_distinct_block_intersections(witt):
    assert designs.block_intersection_spectrum(witt) == {1, 3}


def test_covering_numbers_ladder(witt):
    # derived parameters of the Steiner system: every i-subset lies in
    # C(23-i, 4-i)/C(7-i, 4-i) blocks for i = 1, 2, 3
    expected = {1: 77, 2: 21, 3: 5}
    for i, lam in expected.items():
        assert comb(23 - i, 4 - i) // comb(7 - i, 4 - i) == lam
    import itertools as it
    import random

    rng = random.Random(2)
    for i, lam in expected.items():
        for _ in range(20):
            pts = rng.sample(range(23), i)
            mask = sum(1 << p for p in pts)
            count = sum(1 for b in witt.blocks if b & mask == mask)
            assert count == lam, (pts, count)


def test_blocks_through_avoiding_partition(witt):
    through = blocks_through(witt, 22)
    avoiding = blocks_avoiding(witt, 22)
    assert len(through) == 77
    assert len(avoiding) == 176
    assert len(through) + len(avoiding) == witt.b
    assert set(through) | set(avoiding) == set(witt.blocks)


def test_blocks_through_every_point(witt):
    for p in range(23):
        assert len(blocks_through(witt, p)) == 77


def test_bad_point_rejected(witt):
    with pytest.raises(ValueError):
        blocks_through(witt, 23)


def test_m22_family_premise(witt):
    # the complement certificate values: 7 - |B & B'| over blocks avoiding q
    avoiding = blocks_avoiding(witt, 22)
    b0 = avoiding[0]
    values = {7 - (b0 & other).bit_count() for other in avoiding}
    assert values == {0, 4, 6}


def test_design_file_roundtrip(witt, tmp_path):
    path = tmp_path / "w23.dsn"
    designs.write_design(witt, path)
    first = path.read_text().splitlines()[0]
    assert first == "23 7 253"
    again = read_design(path, "w23")
    assert again.blocks == witt.blocks


# ---------------------------------------------------------------------------
# McLaughlin graph


def test_mclaughlin_vertex_count(mclaughlin):
    assert mclaughlin.graph.n == 275
    assert mclaughlin.point_vertex_mask.bit_count() == 22


def test_mclaughlin_is_srg(mclaughlin):
    report = srg_check(mclaughlin.graph, (275, 112, 30, 56))
    assert report.ok, report.violation


def test_mclaughlin_rows_match_the_pairwise_links(witt, mclaughlin):
    assert mclaughlin.graph.adj == reference_mclaughlin_adjacency(witt)


def _mutated(adj, kind, rng):
    """The rows with one bit changed: an asymmetric edge, a loop, or a bit past the last vertex."""
    rows, n = list(adj), len(adj)
    i = rng.randrange(n)
    if kind == "asymmetric":
        rows[i] ^= 1 << rng.choice([j for j in range(n) if j != i])
    elif kind == "loop":
        rows[i] |= 1 << i
    else:
        rows[i] |= 1 << n + rng.randrange(3)
    return tuple(rows)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("kind", ["asymmetric", "loop", "out-of-range"])
def test_graph_check_matches_the_pairwise_definition(mclaughlin, kind, seed):
    # the row-against-column check raises the pairwise definition's message, at its first vertex
    rows = _mutated(mclaughlin.graph.adj, kind, random.Random(seed))
    want = reference_graph_error(275, rows)
    assert want is not None and want.startswith({"asymmetric": "asymmetric", "loop": "loop"}.get(kind, "adjacency row"))
    with pytest.raises(ValueError) as err:
        Graph(275, rows)
    assert str(err.value) == want


def test_graph_check_reports_the_first_vertex(mclaughlin):
    # an asymmetric pair (5, 200) and a loop at 9: the pairwise definition names vertex 5 first
    rows = list(mclaughlin.graph.adj)
    rows[200] ^= 1 << 5
    rows[9] |= 1 << 9
    assert reference_graph_error(275, rows) == "asymmetric adjacency at vertex 5"
    with pytest.raises(ValueError, match="asymmetric adjacency at vertex 5$"):
        Graph(275, tuple(rows))
    rows[200] ^= 1 << 5
    with pytest.raises(ValueError, match="loop at vertex 9$"):
        Graph(275, tuple(rows))
    assert reference_graph_error(275, mclaughlin.graph.adj) is None


@pytest.mark.parametrize("adj", [(0b110, 0b001), (-2, 0b001)])
def test_graph_refuses_rows_outside_its_vertices(adj):
    # bit 2 of a 2-vertex row (degree(0) would read 2), or a negative row, is no set of vertices
    assert reference_graph_error(2, adj) == "adjacency row 0 is not a set of the 2 vertices"
    with pytest.raises(ValueError, match="adjacency row 0 is not a set of the 2 vertices"):
        Graph(2, adj)


def test_point_vertices_independent(mclaughlin):
    g = mclaughlin.graph
    for i in range(22):
        assert g.adj[i] & mclaughlin.point_vertex_mask == 0


def test_common_neighborhood_sizes(mclaughlin):
    g = mclaughlin.graph
    non_adj = next((i, j) for i in range(g.n) for j in range(i + 1, g.n) if not g.adjacent(i, j))
    adj = next((i, j) for i in range(g.n) for j in range(i + 1, g.n) if g.adjacent(i, j))
    assert (g.adj[non_adj[0]] & g.adj[non_adj[1]]).bit_count() == 56
    assert (g.adj[adj[0]] & g.adj[adj[1]]).bit_count() == 30


def test_mclaughlin_family_premise(mclaughlin):
    g = mclaughlin.graph
    b_mask = mclaughlin.point_vertex_mask
    sizes = set()
    count = 0
    for i in range(g.n):
        for j in range(i + 1, g.n):
            if not g.adjacent(i, j):
                c = g.adj[i] & g.adj[j]
                assert c.bit_count() == 56
                sizes.add((b_mask & c).bit_count())
                count += 1
    assert count == 22275
    assert sizes == {0, 3, 6, 12}


def test_srg_check_pentagon():
    adj = tuple(sum(1 << j for j in ((i + 1) % 5, (i - 1) % 5)) for i in range(5))
    assert srg_check(Graph(5, adj), (5, 2, 0, 1)).ok


def test_srg_check_complete_graph():
    adj = tuple(((1 << 4) - 1) ^ (1 << i) for i in range(4))
    # no non-adjacent pairs, so the mu clause is vacuous
    assert srg_check(Graph(4, adj), (4, 3, 2, 0)).ok


def test_srg_check_reports_violation():
    adj = tuple(sum(1 << j for j in ((i + 1) % 5, (i - 1) % 5)) for i in range(5))
    report = srg_check(Graph(5, adj), (5, 2, 1, 1))
    assert not report.ok and "adjacent" in report.violation


def test_graph_file_roundtrip(tmp_path):
    adj = tuple(sum(1 << j for j in ((i + 1) % 5, (i - 1) % 5)) for i in range(5))
    g = Graph(5, adj)
    path = tmp_path / "c5.graph"
    designs.write_graph(g, path)
    assert path.read_text().splitlines()[0] == "5"
    again = read_graph(path)
    assert again.adj == g.adj


# ---------------------------------------------------------------------------
# Symmetric-design arithmetic


def test_fano_refuted_at_step_one():
    trace = symmetric_design_refutation(SymmetricDesignParams(7, 3, 1))
    assert trace.conclusion == "refuted"
    assert trace.steps[-1].name == "fix-count-avoiding"
    assert not trace.steps[-1].ok


def test_biplane_refuted_at_step_one():
    trace = symmetric_design_refutation(SymmetricDesignParams(11, 5, 2))
    assert trace.conclusion == "refuted"
    assert len(trace.steps) == 1 and not trace.steps[0].ok


def test_complement_fano_refuted_at_step_two():
    # (7,4,2): a*2 = 4 is fine, b*2 = 3 is not
    trace = symmetric_design_refutation(SymmetricDesignParams(7, 4, 2))
    assert trace.conclusion == "refuted"
    assert trace.steps[0].ok
    assert trace.steps[1].name == "fix-count-through" and not trace.steps[1].ok


def test_trivial_design_inapplicable():
    trace = symmetric_design_refutation(SymmetricDesignParams(4, 3, 2))
    assert trace.conclusion == "trivial-inapplicable"
    assert all(s.ok for s in trace.steps)


def test_refuted_exactly_below_the_trivial_design():
    # integral a and b force k - lambda = 1 and k = v - 1, so every other valid design is refuted at step 1 or 2
    for v in range(3, 201):
        for k in range(2, v):
            lam, rest = divmod(k * (k - 1), v - 1)
            if rest or lam < 1:
                continue
            trace = symmetric_design_refutation(SymmetricDesignParams(v, k, lam))
            assert (trace.conclusion == "refuted") == (k < v - 1), (v, k, lam)
            assert len(trace.steps) == (4 if k == v - 1 else 1 + trace.steps[0].ok)


def test_parameter_gate():
    with pytest.raises(ValueError):
        SymmetricDesignParams(8, 3, 1)  # (v-1)lambda != k(k-1)
    with pytest.raises(ValueError):
        SymmetricDesignParams(3, 3, 1)  # v > k violated


# ---------------------------------------------------------------------------
# Witt stabilizer generators


def test_stabilizer_generators_are_design_automorphisms(witt, m22_spec):
    # lift each degree-22 generator back to 23 points, fixing the special one
    for g in m22_spec.generators:
        lifted = tuple(list(g) + [22])
        assert designs.is_design_automorphism(witt, lifted)


def test_stabilizer_order(m22_enum):
    assert m22_enum.order == 443520


def test_stabilizer_permutes_avoiding_blocks(witt, m22_spec):
    avoiding = set(blocks_avoiding(witt, 22))
    for g in m22_spec.generators:
        for block in avoiding:
            image = 0
            rest = block
            while rest:
                low = rest & -rest
                image |= 1 << g[low.bit_length() - 1]
                rest ^= low
            assert image in avoiding


def test_shipped_group_file_matches_derivation(m22_spec):
    shipped = perm.load_group(shipped_group_path("m22"))
    assert shipped.degree == 22
    assert shipped.declared_order == 443520
    assert shipped.generators == m22_spec.generators


def test_stabilizer_derivation_for_other_special_point(witt):
    # the derivation relabels around whichever point is removed; the closure
    # order pins the group either way
    spec = designs.witt_stabilizer_generators(witt, special_point=0)
    assert spec.degree == 22
    enum = perm.enumerate_group(spec)
    assert enum.order == 443520


@pytest.mark.parametrize("special_point", range(23))
def test_stabilizer_derivation_at_every_point(witt, special_point):
    # each derived generator is the restriction of a design automorphism that
    # fixes the special point; the orbit of C is the family-mode census
    spec = designs.witt_stabilizer_generators(witt, special_point=special_point)
    keep = [x for x in range(23) if x != special_point]
    for r in spec.generators:
        lift = [special_point] * 23
        for i, x in enumerate(keep):
            lift[x] = keep[r[i]]
        assert designs.is_design_automorphism(witt, tuple(lift))

    def restrict(block):
        return sum(1 << i for i, x in enumerate(keep) if block >> x & 1)

    points = (1 << 22) - 1
    census = {points ^ restrict(b) for b in blocks_avoiding(witt, special_point)}
    c_set = min(census)
    assert len(census) == 176
    assert set(perm.set_orbit(spec.generators, c_set)) == census
