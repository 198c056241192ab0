import hashlib
import itertools
import math
import random
import re

import pytest
from conftest import shipped_group_path
from oracles import dump_group, reference_enumeration, reference_set_orbit

from sharpsets import geometry, gf, perm
from sharpsets.certify import Certificate, verify_certificate_enumerated
from sharpsets.designs import blocks_avoiding
from sharpsets.perm import (
    GroupSpec,
    arrangements,
    check_group_axioms,
    compose,
    conjugation_reps,
    cycle_parity,
    enumerate_group,
    from_cycles,
    identity,
    induced_action,
    inverse,
    inversions,
    is_fixed_point_free,
    is_sharply_transitive,
    orbits_on_pairs,
    parity,
)


def test_compose_identity():
    g = from_cycles(4, (0, 2, 1))
    assert compose(identity(4), g) == g
    assert compose(g, identity(4)) == g


def test_compose_left_to_right_by_point_application():
    # oracle: apply a then b to each point separately
    a = from_cycles(3, (0, 1))
    b = from_cycles(3, (1, 2))
    expected = tuple(b[a[x]] for x in range(3))
    assert expected == (2, 0, 1)  # the 3-cycle 0->2->1->0 under this convention
    assert tuple(compose(a, b)) == expected


def test_compose_inverse_gives_identity():
    g = from_cycles(5, (0, 3), (1, 4, 2))
    assert compose(g, inverse(g)) == identity(5)
    assert compose(inverse(g), g) == identity(5)


def test_compose_degree_mismatch():
    with pytest.raises(perm.DegreeMismatch):
        compose(identity(3), identity(4))


def test_enumerate_cyclic():
    enum = enumerate_group(GroupSpec(5, (from_cycles(5, (0, 1, 2, 3, 4)),), "C5"))
    assert enum.order == 5
    assert enum.elements[0] == identity(5)


def test_enumerate_s6():
    spec = GroupSpec(6, (from_cycles(6, (0, 1)), from_cycles(6, (0, 1, 2, 3, 4, 5))), "S6")
    assert enumerate_group(spec).order == 720


def test_enumerate_m22(m22_enum):
    # well-known order of the degree-22 stabilizer, cross-checked before use
    assert m22_enum.order == 443520


def digest(elements):
    return hashlib.sha256(b"".join(map(bytes, elements))).hexdigest()


def test_m22_enumeration_order_is_pinned(m22_spec, m22_enum):
    # search witnesses, linsys columns and the spectrum's key order all follow
    # the chain order of the generators; this digest is of that order
    assert m22_enum.elements[0] == identity(22)
    assert digest(m22_enum.elements) == "eecdad7f7bdd45406cb07cac20c13759bf10809d3e6365ce34c0294dc29f14ea"
    assert perm.enumerate_group(m22_spec).elements == m22_enum.elements


def test_apply_to_set():
    g = from_cycles(5, (0, 1, 2), (3, 4))
    assert perm.apply_to_set(g, 0) == 0
    assert perm.apply_to_set(g, 0b00001) == 0b00010
    assert perm.apply_to_set(g, 0b01101) == 0b10011
    assert perm.apply_to_set(g, 0b11111) == 0b11111


def test_enumerate_cap_is_explicit():
    spec = GroupSpec(6, (from_cycles(6, (0, 1)), from_cycles(6, (0, 1, 2, 3, 4, 5))), "S6")
    with pytest.raises(perm.GroupTooLarge, match="cap of 100 elements"):
        enumerate_group(spec, cap=100)


def test_set_orbit():
    gens = (from_cycles(6, (0, 1)), from_cycles(6, (0, 1, 2, 3, 4, 5)))
    orbit = perm.set_orbit(gens, 0b000111)
    # S6 on 3-subsets: all of them, C first, each once, closed under the generators
    assert orbit[0] == 0b000111
    assert sorted(orbit) == sorted(c for c in range(64) if c.bit_count() == 3)
    assert all(perm.apply_to_set(g, c) in orbit for g in gens for c in orbit)
    # the cyclic subgroup has only the 6 rotations of an interval
    assert len(perm.set_orbit(gens[1:], 0b000111)) == 6
    assert perm.set_orbit(gens, 0b111111) == [0b111111]
    with pytest.raises(perm.GroupTooLarge, match="cap of 19"):
        perm.set_orbit(gens, 0b000111, cap=19)
    assert len(perm.set_orbit(gens, 0b000111, cap=20)) == 20


def sp_line_orbit_input(n, q):
    """The generators and line whose orbit the sp case builds."""
    space = geometry.symplectic_space(n, gf.field_for_q(q))
    gens = geometry.symplectic_generators(space).generators + (geometry.frobenius_point_map(space),)
    e0, e1 = geometry.unit_vectors(space)[:2]
    return gens, geometry.line_through(space, e0, e1).points


def seeded_orbit_inputs(seed=31, count=40):
    """Random sets under random groups of degree 3..40: one permutation, or two with a set whose orbit stays small."""
    rng = random.Random(seed)
    for _ in range(count):
        degree = rng.randint(3, 40)
        if rng.random() < 0.5:
            yield (tuple(rng.sample(range(degree), degree)),), rng.getrandbits(degree)
        else:
            k = rng.choice([k for k in range(degree + 1) if math.comb(degree, k) <= 5000])
            gens = tuple(tuple(rng.sample(range(degree), degree)) for _ in range(2))
            yield gens, sum(1 << x for x in rng.sample(range(degree), k))


@pytest.fixture(scope="module")
def orbit_inputs(witt, m22_spec):
    full = (1 << 22) - 1
    m22 = [(m22_spec.generators, full ^ block) for block in blocks_avoiding(witt, 22)[:4]]
    return [sp_line_orbit_input(3, 2), sp_line_orbit_input(2, 4), sp_line_orbit_input(2, 8), *m22, *seeded_orbit_inputs()]


def test_set_orbit_matches_the_apply_to_set_bfs(orbit_inputs):
    # the bit tables against apply_to_set: the same list, in the same order, and the same refusals
    for gens, c_set in orbit_inputs:
        orbit = reference_set_orbit(gens, c_set, cap=perm.DEFAULT_ENUMERATION_CAP)
        assert perm.set_orbit(gens, c_set) == orbit
        for cap in (len(orbit), len(orbit) + 1):
            assert perm.set_orbit(gens, c_set, cap=cap) == orbit
        if len(orbit) > 1:
            with pytest.raises(perm.GroupTooLarge) as expected:
                reference_set_orbit(gens, c_set, cap=len(orbit) - 1)
            with pytest.raises(perm.GroupTooLarge) as refused:
                perm.set_orbit(gens, c_set, cap=len(orbit) - 1)
            assert str(refused.value) == str(expected.value)


def test_declared_order_past_the_cap_is_refused_unenumerated(tmp_path):
    # a wrong order line past the cap is refused for size: nothing is enumerated to find it wrong
    path = tmp_path / "c5.grp"
    path.write_text("n 5\norder 101\n1 2 3 4 0\n")
    with pytest.raises(perm.GroupTooLarge, match=f"^{re.escape(str(path))} declares order 101, past the cap of 100 elements$"):
        enumerate_group(perm.load_group(path), cap=100)
    assert enumerate_group(GroupSpec(5, (from_cycles(5, (0, 1, 2, 3, 4)),), declared_order=5), cap=5).order == 5


def test_enumerate_declared_order_mismatch():
    spec = GroupSpec(5, (from_cycles(5, (0, 1, 2, 3, 4)),), "C5", declared_order=7)
    with pytest.raises(ValueError):
        enumerate_group(spec)


def test_enumeration_deterministic(s4):
    again = enumerate_group(GroupSpec(4, (from_cycles(4, (0, 1)), from_cycles(4, (0, 1, 2, 3))), "S4"))
    assert again.elements == s4.elements


def shipped(name):
    return perm.load_group(shipped_group_path(name))


def sp22_projective():
    space = geometry.symplectic_space(2, gf.field_for_q(2))
    return geometry.symplectic_generators(space, "projective")


ENUMERATION_CASES = {
    "A6": (lambda: GroupSpec(6, (from_cycles(6, (0, 1, 2)), from_cycles(6, (1, 2, 3, 4, 5))), "A6"), 360),
    "A7": (lambda: GroupSpec(7, (from_cycles(7, (0, 1, 2)), from_cycles(7, (2, 3, 4, 5, 6))), "A7"), 2520),
    "S6": (lambda: GroupSpec(6, (from_cycles(6, (0, 1)), from_cycles(6, (0, 1, 2, 3, 4, 5))), "S6"), 720),
    "c5.grp": (lambda: shipped("c5"), 5),
    "s5.grp": (lambda: shipped("s5"), 120),
    "sp(2,2)": (sp22_projective, 720),
    "C256": (lambda: GroupSpec(256, (from_cycles(256, tuple(range(256))),), "C256"), 256),  # bytes, at the boundary
    "C300": (lambda: GroupSpec(300, (from_cycles(300, tuple(range(300))),), "C300"), 300),  # tuples
}


@pytest.mark.parametrize("case", ENUMERATION_CASES)
def test_enumeration_matches_tuple_reference(case):
    # the BFS closure's elements, each once, the identity first, in an order that a second run repeats
    build, order = ENUMERATION_CASES[case]
    spec = build()
    enum = enumerate_group(spec)
    assert enum.order == order and enum.elements[0] == identity(spec.degree)
    assert_same_group(enum, reference_enumeration(spec).elements, spec.degree)
    assert enumerate_group(build()).elements == enum.elements


@pytest.mark.parametrize("n", [256, 257])
def test_every_constructor_returns_the_degree_type(n):
    # bytes never equals a tuple, so one Perm type per degree is what keeps
    # set lookups, index() and identity comparisons from missing silently
    kind = bytes if n <= 256 else tuple
    a, b = from_cycles(n, (0, 1)), from_cycles(n, (2, 3, n - 1))
    spec = GroupSpec(n, (tuple(a), list(b)), "C2xC3")
    G = enumerate_group(spec)
    action, on_cells = induced_action(spec, 1)
    _, enum_on_cells = induced_action(G, 1)
    wrapped = perm.enumeration_from_elements(n, [tuple(g) for g in G.elements])
    made = [identity(n), compose(a, b), inverse(b), a, *spec.generators, *G.elements, action.cell_perm(a)]
    made += [*on_cells.generators, *enum_on_cells.elements, *wrapped.elements]
    assert all(type(g) is kind for g in made)
    assert G.order == 6 and wrapped.elements == G.elements and spec.generators == (a, b)
    for gen in (tuple(a), tuple(b), list(b)):  # `in` converts; index() is keyed by Perms
        assert gen in G and perm.as_perm(gen) in G.index()
        assert G.elements[G.index()[perm.as_perm(gen)]] == kind(gen)
    assert tuple(compose(a, a)) in G and tuple(from_cycles(n, (0, 2))) not in G
    with pytest.raises(KeyError):
        G.index()[from_cycles(n, (0, 2))]


@pytest.mark.parametrize("case", ["S6", "C256", "C300"])
def test_enumeration_refusals_on_both_paths(case):
    # bytes and tuples: the same refusals, word for word
    build, order = ENUMERATION_CASES[case]
    spec = build()
    assert enumerate_group(spec, cap=order).order == order
    with pytest.raises(perm.GroupTooLarge, match=f"^enumerating {spec.name} passed the cap of {order - 1} elements$"):
        enumerate_group(spec, cap=order - 1)
    wrong = GroupSpec(spec.degree, spec.generators, spec.name, declared_order=order + 1)
    with pytest.raises(perm.GroupFileError, match=f"^{spec.name}: declared order {order + 1}, enumerated {order}$"):
        enumerate_group(wrong)


def sp22_vector():
    space = geometry.symplectic_space(2, gf.field_for_q(2))
    return geometry.symplectic_generators(space, "vector")


def assert_same_group(enum, elements, degree):
    """enum lists the set `elements` once each, as the degree's Perm type."""
    assert enum.degree == degree and enum.order == len(set(enum.elements)) == len(set(elements))
    assert set(map(tuple, enum.elements)) == set(map(tuple, elements))
    assert all(type(g) is perm.perm_type(degree) for g in enum.elements)


COSET_CASES = {**ENUMERATION_CASES, "sp(2,2)-vector": (sp22_vector, 720)}


@pytest.mark.parametrize("case", COSET_CASES)
def test_coset_enumeration_is_the_reference_set(case):
    build, order = COSET_CASES[case]
    spec = build()
    enum = enumerate_group(spec)
    assert enum.order == order and enum.elements[0] == identity(spec.degree)
    assert_same_group(enum, reference_enumeration(spec).elements, spec.degree)


def test_coset_enumeration_of_m22_is_the_bfs_set(m22_enum):
    # the digest of the sorted elements, which the BFS closure of the same generators (reference_enumeration)
    # also gives; that reference would take seconds here
    assert m22_enum.order == len(set(m22_enum.elements)) == 443520
    assert digest(sorted(m22_enum.elements)) == "a0447dc8ef0cab366d87147fd0041e22b11b52ac2d6999cfa12291650a9f7d58"


def test_coset_enumeration_skips_the_identity_and_repeated_generators():
    cycle, swap = from_cycles(5, (0, 1, 2, 3, 4)), from_cycles(5, (0, 1))
    spec = GroupSpec(5, (identity(5), swap, cycle, swap, compose(swap, cycle)), "S5")
    enum = enumerate_group(spec, cap=120)
    assert enum.order == 120
    assert_same_group(enum, reference_enumeration(spec).elements, 5)
    assert enumerate_group(GroupSpec(3, (identity(3),) * 2)).elements == [identity(3)]


def test_coset_enumeration_matches_bfs_on_random_groups():
    rng = random.Random(20250)
    for _ in range(200):
        n = rng.randint(1, 8)
        spec = GroupSpec(n, tuple(rng.sample(range(n), n) for _ in range(rng.randint(1, 3))))
        assert_same_group(enumerate_group(spec), reference_enumeration(spec).elements, n)


def assert_coset_walk_is_the_listed_walk(spec, rng, trials=1, c_sizes=()):
    """Random (B, C, p), C of each of c_sizes if given: the walk over the cosets reports what the walk over the
    listed elements, one run with u = 1, reports, with the same key order."""
    n, by_cosets = spec.degree, enumerate_group(spec)
    listed = perm.listed(n, by_cosets.elements, by_cosets.name)
    for c_size in c_sizes or [None] * trials:
        b_set = sum(1 << x for x in rng.sample(range(n), rng.randint(1, n)))
        c_set = sum(1 << x for x in rng.sample(range(n), c_size or rng.randint(1, n)))
        cert = Certificate(b_set, c_set, rng.choice((2, 3, 5)), n)
        walked, in_order = verify_certificate_enumerated(by_cosets, cert), verify_certificate_enumerated(listed, cert)
        assert walked.as_dict() == in_order.as_dict() and list(walked.spectrum.items()) == list(in_order.spectrum.items())


@pytest.mark.parametrize("case", COSET_CASES)
def test_coset_walk_is_the_listed_walk(case):
    # bytes up to C256, tuples on C300; sp(2,2) in both actions
    assert_coset_walk_is_the_listed_walk(COSET_CASES[case][0](), random.Random(case), trials=4)


def test_coset_walk_is_the_listed_walk_on_m22():
    # the shipped M22 file: C of 11 points, half the degree, is walked itself; C of 15 and of all 22 points is
    # walked through its complement, of 7 points and of none
    assert_coset_walk_is_the_listed_walk(shipped("m22"), random.Random(22), c_sizes=(11, 15, 22))


def test_coset_walk_is_the_listed_walk_on_random_groups():
    rng = random.Random(27)
    for _ in range(200):
        n = rng.randint(1, 8)
        spec = GroupSpec(n, tuple(rng.sample(range(n), n) for _ in range(rng.randint(1, 3))))
        assert_coset_walk_is_the_listed_walk(spec, rng, trials=1)


@pytest.mark.parametrize("case", ["s5.grp", "C17"])
def test_a_listed_group_is_one_level_under_the_identity(case):
    # listed keeps the given order as one level under the identity; inducing it induces each element (C17 on its
    # 272 pairs as tuples), and listed in the chain's order it has the chain enumeration's index and walk report
    spec = shipped("s5") if case == "s5.grp" else GroupSpec(17, (from_cycles(17, tuple(range(17))),), case)
    n, G = spec.degree, enumerate_group(spec)
    backwards = perm.listed(n, [tuple(g) for g in reversed(G.elements)], "backwards")
    assert backwards.levels == [[identity(n)], G.elements[::-1]] and backwards.elements == G.elements[::-1]
    action, induced = induced_action(backwards, 2)
    assert induced.elements == [action.cell_perm(g) for g in backwards.elements]
    assert perm.listed(n, G.elements).index() == G.index()
    assert_coset_walk_is_the_listed_walk(spec, random.Random(case), trials=4)


def chain_order(spec):
    return math.prod(map(len, perm.stabilizer_chain(spec)))


@pytest.mark.parametrize("case", ENUMERATION_CASES)
def test_chain_order_is_the_enumerated_order(case):
    # bytes and tuples (C256 and C300); the shipped files' order lines are not read by the chain
    build, order = ENUMERATION_CASES[case]
    assert chain_order(build()) == order == reference_enumeration(build()).order


def test_chain_order_of_the_shipped_m22_file(m22_enum):
    spec = shipped("m22")
    chain = perm.stabilizer_chain(spec)
    assert [len(t) for t in chain] == [22, 21, 20, 16, 3]
    assert math.prod(map(len, chain)) == m22_enum.order == 443520
    for transversal in chain:  # the base point first, to the identity; u maps it to its point
        b = next(iter(transversal))
        assert transversal[b] == identity(22) and all(u[b] == x for x, u in transversal.items())


def test_sp62_chain_order_is_sp_order_unlisted(monkeypatch):
    space = geometry.symplectic_space(3, gf.field_for_q(2))

    def never(run, transversal):
        raise AssertionError("listed an element of the group")

    monkeypatch.setattr(perm, "_times", never)
    for action in ("projective", "vector"):
        spec = geometry.symplectic_generators(space, action)
        assert chain_order(spec) == geometry.sp_order(3, 2) == 1451520, action
    # a wrong order line is refused on the chain's order, before any element is listed
    wrong = GroupSpec(spec.degree, spec.generators, "sp", declared_order=1451521)
    with pytest.raises(perm.GroupFileError, match="^sp: declared order 1451521, enumerated 1451520$"):
        enumerate_group(wrong)


def test_group_axioms_small(c5, s3, s4, a6):
    for enum in (c5, s3, s4, a6):
        check_group_axioms(enum)


def test_group_axioms_sampled_m22(m22_enum):
    check_group_axioms(m22_enum, samples=100)


def test_arrangement_sizes():
    assert arrangements(5, 2).size == 20
    assert arrangements(24, 2).size == 552


def test_arrangement_cell_image():
    action = arrangements(6, 2)
    g = from_cycles(6, (0, 1))
    gp = action.cell_perm(g)
    assert action.cells[gp[action.index[(0, 2)]]] == (1, 2)


@pytest.mark.parametrize("t", [2, 3])
def test_cell_perm_is_the_per_cell_image(s5, t):
    # one itemgetter over every cell's points, cut into t-tuples: the same as mapping cell by cell
    action = arrangements(5, t)
    for g in s5.elements:
        per_cell = [action.index[tuple(g[x] for x in cell)] for cell in action.cells]
        assert action.cell_perm(g) == perm.as_perm(per_cell)


def test_induced_action_is_homomorphism(s5):
    action, induced = induced_action(s5, 2)
    rng = random.Random(1)
    idx = s5.index()
    for _ in range(25):
        a = s5.elements[rng.randrange(s5.order)]
        b = s5.elements[rng.randrange(s5.order)]
        ab = compose(a, b)
        assert compose(induced.elements[idx[a]], induced.elements[idx[b]]) == induced.elements[idx[ab]]


def test_induced_action_higher_arity(s4):
    action, induced = induced_action(s4, 3)
    assert action.size == 24  # 4 * 3 * 2
    idx = s4.index()
    rng = random.Random(4)
    for _ in range(10):
        a = s4.elements[rng.randrange(s4.order)]
        b = s4.elements[rng.randrange(s4.order)]
        left = compose(induced.elements[idx[a]], induced.elements[idx[b]])
        assert left == induced.elements[idx[compose(a, b)]]


def test_enumerating_induced_generators_induces_every_element():
    # the induced map is an isomorphism that commutes with compose, so inducing
    # the chain level by level lists each element's image in the points' order,
    # and the chain of the induced generators lists the same set
    from sharpsets.certify import _alt_generators

    s5 = GroupSpec(5, (from_cycles(5, (0, 1)), from_cycles(5, (0, 1, 2, 3, 4))), "S5")
    m22 = perm.load_group(shipped_group_path("m22"))
    for spec, t in ((_alt_generators(6), 2), (_alt_generators(7), 2), (s5, 2), (s5, 3), (m22, 1)):
        G = enumerate_group(spec)
        action, induced = induced_action(G, t)
        assert type(induced) is perm.GroupEnumeration and len(induced.levels) == len(G.levels), spec.name
        assert induced.elements == [action.cell_perm(g) for g in G.elements], spec.name
        assert set(enumerate_group(induced_action(spec, t)[1]).elements) == set(induced.elements), spec.name


def test_inversions_basics():
    assert inversions(identity(7)) == 0
    for n in (2, 5, 9):
        assert inversions(from_cycles(n, (0, 1))) == 1
    assert inversions(from_cycles(3, (0, 1, 2))) == 2


def test_parity_basics():
    assert parity(identity(4)) == 0
    assert parity(from_cycles(4, (0, 1))) == 1
    assert parity(from_cycles(4, (0, 1), (2, 3))) == 0


def test_parity_matches_cycle_type_all_of_s6():
    for g in itertools.permutations(range(6)):
        assert parity(g) == cycle_parity(g)


def test_parity_is_homomorphism():
    rng = random.Random(7)
    perms = list(itertools.permutations(range(5)))
    for _ in range(100):
        a = perms[rng.randrange(len(perms))]
        b = perms[rng.randrange(len(perms))]
        assert parity(compose(a, b)) == (parity(a) + parity(b)) % 2


def test_compose_associative_fuzz():
    rng = random.Random(11)
    perms = list(itertools.permutations(range(6)))
    for _ in range(200):
        a, b, c = (perms[rng.randrange(len(perms))] for _ in range(3))
        assert compose(compose(a, b), c) == compose(a, compose(b, c))


def test_orbits_on_pairs_trivial_group():
    one = perm.listed(3, [identity(3)], "1")
    blocks = orbits_on_pairs(one)
    assert len(blocks) == 9
    assert all(len(b) == 1 for b in blocks)


def test_orbits_on_pairs_symmetric_group(s4):
    blocks = orbits_on_pairs(s4)
    assert sorted(len(b) for b in blocks) == [4, 12]  # diagonal and off-diagonal


def test_orbits_on_pairs_order_two():
    h = enumerate_group(GroupSpec(2, (from_cycles(2, (0, 1)),), "C2"))
    blocks = orbits_on_pairs(h)
    assert [set(b) for b in blocks] == [{(0, 0), (1, 1)}, {(0, 1), (1, 0)}]


def test_orbits_are_generator_invariant(s4):
    blocks = orbits_on_pairs(s4)
    g = from_cycles(4, (0, 1))
    for block in blocks:
        image = {(g[x], g[y]) for x, y in block}
        assert image == set(block)


def test_conjugation_trivial_subgroup(s3):
    one = perm.listed(3, [identity(3)], "1")
    classes = conjugation_reps(s3, one)
    assert classes == [[g] for g in s3.elements]


def test_conjugation_s3_self(s3):
    sizes = list(map(len, conjugation_reps(s3, s3)))
    assert sorted(sizes) == [1, 2, 3]
    assert sum(sizes) == 6


def test_conjugation_orbit_counting(s3):
    h = enumerate_group(GroupSpec(3, (from_cycles(3, (0, 1)),), "C2"))
    classes = conjugation_reps(s3, h)
    assert sum(map(len, classes)) == s3.order


def test_conjugation_classes_list_members_in_enumeration_order(s3, s4):
    c2 = enumerate_group(GroupSpec(4, (from_cycles(4, (0, 1)),), "C2"))
    for G, H in ((s4, c2), (s3, s3)):
        classes = conjugation_reps(G, H)
        scanned = []
        for members in classes:
            orbit = {compose(compose(inverse(h), members[0]), h) for h in H.elements}
            scanned.append([x for x in G.elements if x in orbit])
        assert classes == scanned
        reps = [members[0] for members in classes]
        assert reps == sorted(reps, key=G.index().__getitem__)


def test_conjugation_requires_containment(s3, s4):
    with pytest.raises(ValueError):
        conjugation_reps(s3, s4)


def test_fixed_point_free():
    assert not is_fixed_point_free(identity(3))
    assert is_fixed_point_free(from_cycles(4, (0, 1), (2, 3)))
    assert not is_fixed_point_free(from_cycles(3, (0, 1)))


def test_sharply_transitive_is_the_coverage_table(s4):
    # every ordered pair joined by exactly one element: translates of the two
    # regular subgroups, with a member swapped for a random element or not,
    # and random lists of every size, repeats included
    rng = random.Random(8)
    regular = [enumerate_group(GroupSpec(4, gens)).elements for gens in (
        (from_cycles(4, (0, 1, 2, 3)),), (from_cycles(4, (0, 1), (2, 3)), from_cycles(4, (0, 2), (1, 3))))]
    kinds = {True: 0, False: 0}
    for trial in range(400):
        g = rng.choice(s4.elements)
        subset = [compose(g, h) for h in rng.choice(regular)]
        if trial % 2:
            subset[rng.randrange(4)] = rng.choice(s4.elements)
        if trial % 5 == 0:
            subset = [rng.choice(s4.elements) for _ in range(rng.randrange(0, 6))]
        coverage = [[sum(h[x] == y for h in subset) for y in range(4)] for x in range(4)]
        sharp = all(c == 1 for row in coverage for c in row)
        assert is_sharply_transitive(subset, 4) == sharp, subset
        kinds[sharp] += 1
    assert min(kinds.values()) >= 100, kinds


def test_group_file_roundtrip(tmp_path):
    spec = GroupSpec(4, (from_cycles(4, (0, 1)), from_cycles(4, (0, 1, 2, 3))), "s4", 24)
    path = tmp_path / "s4.grp"
    dump_group(spec, path)
    text = path.read_text()
    assert text.splitlines()[0] == "n 4"
    loaded = perm.load_group(path)
    assert loaded.degree == 4
    assert loaded.generators == spec.generators
    assert loaded.declared_order == 24


@pytest.mark.parametrize(
    "text",
    [
        "n 3\n0 1\n", "n 3\n0 x 2\n", "n 3\n0 0 1\n", "1 2 0\n", "n\n1 2 0\n", "n 3\n", "n 3\norder 3 3\n1 2 0\n",
        "n 3\norder 4\n1 2 0\n", "n 3\norder 6\norder 3\n1 2 0\n",
    ],
)
def test_malformed_group_file(tmp_path, text):
    # every error names the file by its path, the order line's too, which only enumeration can check
    path = tmp_path / "bad.grp"
    path.write_text(text)
    with pytest.raises(perm.GroupFileError, match=f"^{re.escape(str(path))}: "):
        enumerate_group(perm.load_group(path))


def test_group_file_comments(tmp_path):
    path = tmp_path / "c3.grp"
    path.write_text("# cyclic of order 3\nn 3\norder 3\n1 2 0  # the generator\n")
    spec = perm.load_group(path)
    assert spec.generators == (bytes((1, 2, 0)),)
    assert enumerate_group(spec).order == 3
