import json
import random

import pytest
from conftest import shipped_group_path
from oracles import (
    certificate_search,
    orthogonal_basis,
    reference_non_adjacent_family,
    reference_nullspace_mod_2,
    zero_one_vectors,
)

from sharpsets import certify, designs, geometry, gf, linsys, perm, sharp_search
from sharpsets.certify import (
    Certificate,
    doublecount_check,
    run_case,
    verify_certificate_enumerated,
    verify_certificate_family,
)
from sharpsets.perm import enumerate_group, induced_action


def agl15_elements():
    """The twenty maps x -> a x + b mod 5, a sharply 2-transitive set in S5."""
    return [tuple((a * x + b) % 5 for x in range(5)) for a in range(1, 5) for b in range(5)]


# ---------------------------------------------------------------------------
# Counting identity


def test_doublecount_regular_group(c5):
    rng = random.Random(0)
    for _ in range(20):
        b_set = rng.randrange(1, 32)
        c_set = rng.randrange(1, 32)
        rep = doublecount_check(c5.elements, b_set, c_set)
        assert rep.sharply_transitive
        assert rep.equal
        assert rep.lhs == b_set.bit_count() * c_set.bit_count()


def test_doublecount_agl15_on_pairs():
    action = perm.arrangements(5, 2)
    cells = [action.cell_perm(g) for g in agl15_elements()]
    all_cells = (1 << 20) - 1
    rep = doublecount_check(cells, all_cells, all_cells)
    assert rep.sharply_transitive
    assert rep.lhs == rep.rhs == 400


def test_doublecount_flags_non_sharp(c5):
    rep = doublecount_check(c5.elements[:-1], 0b1, 0b1)
    assert not rep.sharply_transitive
    assert not rep.equal


# ---------------------------------------------------------------------------
# Enumerated verification


def test_enumerated_a6_on_pairs(a6):
    action, induced = induced_action(a6, 2)
    asc = sum(1 << i for i, (x, y) in enumerate(action.cells) if x < y)
    desc = sum(1 << i for i, (x, y) in enumerate(action.cells) if x > y)
    cert = Certificate(asc, desc, 2, 30)
    report = verify_certificate_enumerated(induced, cert)
    assert report.conclusion == "refuted"
    assert all(size % 2 == 0 for size in report.spectrum)
    # the intersection size is exactly the inversion count of the natural element
    idx = a6.index()
    for g in list(idx)[:40]:
        ig = induced.elements[idx[g]]
        size = (asc & perm.apply_to_set(ig, desc)).bit_count()
        assert size == perm.inversions(g)


def test_enumerated_sp42():
    space = geometry.symplectic_space(2, gf.field_for_q(2))
    quad = geometry.elliptic_quadric(space)
    line = geometry.nonsingular_lines(space)[0]
    G = enumerate_group(geometry.symplectic_generators(space, "projective"))
    cert = Certificate(quad.projective_set, line.points, 2, 15)
    report = verify_certificate_enumerated(G, cert)
    assert report.conclusion == "refuted"
    assert set(report.spectrum) <= {0, 2}


def brute_spectrum(G, b_set, c_set):
    """|B & C^g| -> multiplicity by applying each element to C, in first-seen order."""
    brute = {}
    for g in G.elements:
        size = (b_set & perm.apply_to_set(g, c_set)).bit_count()
        brute[size] = brute.get(size, 0) + 1
    return brute


def dihedral(n):
    rotation, reflection = tuple((x + 1) % n for x in range(n)), tuple(-x % n for x in range(n))
    return enumerate_group(perm.GroupSpec(n, (rotation, reflection), f"D{n}"))


def assert_walk_matches_brute_force(G, c_size, trials, p=2, b_size=None):
    n = G.degree
    rng = random.Random(c_size)
    for _ in range(trials):
        b_set = sum(1 << x for x in rng.sample(range(n), b_size or rng.randint(1, n)))
        c_set = sum(1 << x for x in rng.sample(range(n), c_size))
        brute = brute_spectrum(G, b_set, c_set)
        report = verify_certificate_enumerated(G, Certificate(b_set, c_set, p, n))
        assert report.spectrum == brute
        assert list(report.spectrum) == list(brute)  # first-seen order, as the walk meets the elements


@pytest.mark.parametrize("c_size", [1, 14, 15, 16, 29, 30])
def test_enumerated_spectrum_matches_brute_force(a6, c_size):
    # one walk for every size of C, from one cell to all 30: B's marks under each element, summed over C
    _, induced = induced_action(a6, 2)
    assert_walk_matches_brute_force(induced, c_size, trials=3, p=3)


@pytest.mark.parametrize("c_size", [1, 2, 150, 299, 300])
def test_enumerated_walk_on_tuple_perms_matches_brute_force(c_size):
    # above degree 256 elements are tuples, and the walk builds each element's marks itself;
    # |C| from 256 up takes two-byte fields
    G = dihedral(300)
    assert G.order == 600 and type(G.elements[0]) is tuple
    assert_walk_matches_brute_force(G, c_size, trials=2)


@pytest.mark.parametrize("b_size, c_size", [(None, 255), (None, 256), (256, 256)])
def test_enumerated_walk_on_degree_256_bytes_matches_brute_force(b_size, c_size):
    # the largest degree with image bytes: |C| = 255 is the last one-byte field, the whole domain needs
    # two, and with B the whole domain too every count is 256, past one byte
    G = dihedral(256)
    assert G.order == 512 and type(G.elements[0]) is bytes
    assert_walk_matches_brute_force(G, c_size, trials=2, b_size=b_size)


@pytest.mark.parametrize("n, b_size, c_size", [(22, None, 9), (256, 256, 256), (300, 280, 280)])
def test_enumerated_walk_over_several_cosets_matches_brute_force(n, b_size, c_size):
    # n cosets of a run of 2 elements: the spectrum keeps its first-seen order across cosets, and as the walk of the
    # same elements listed in one run; |B & C^g| reaches 256 on D256 and 260-280 on D300
    G = dihedral(n)
    assert (len(G.transversal), len(G.stabilizer)) == (n, 2 * n)
    assert_walk_matches_brute_force(G, c_size, trials=3, b_size=b_size)
    assert_walk_matches_brute_force(perm.listed(n, G.elements), c_size, trials=3, b_size=b_size)


COSET_GROUPS = {  # name -> (generators, degree, order)
    "sp(4,2)": (lambda: geometry.symplectic_generators(geometry.symplectic_space(2, gf.field_for_q(2))), 15, 720),
    "A6 on pairs": (lambda: induced_action(certify._alt_generators(6), 2)[1], 30, 360),
}


@pytest.mark.parametrize("case, c_size", [("sp(4,2)", 7), ("sp(4,2)", 8), ("sp(4,2)", 15), ("A6 on pairs", 15),
                                          ("A6 on pairs", 16), ("A6 on pairs", 30)])
def test_coset_walk_matches_brute_force(case, c_size):
    # groups walked one coset at a time, on 15 and on 30 points: C of at most half the degree is walked itself, a
    # larger C and the whole domain through its complement, with the listed elements' key order
    build, degree, order = COSET_GROUPS[case]
    G = enumerate_group(build())
    assert (G.degree, G.order) == (degree, order)
    assert_walk_matches_brute_force(G, c_size, trials=3)


class SliceCountingBytes(bytes):
    """A run of images that counts the slices taken of it."""

    slices = 0

    def __getitem__(self, key):
        self.slices += isinstance(key, slice)
        return bytes.__getitem__(self, key)


@pytest.mark.parametrize("complement", [True, False])
def test_coset_walk_slices_each_walked_column_once(m22_spec, witt, complement):
    # one slice per walked point for the whole run, not one per (point, u) for the 22 cosets; C = the 15-point
    # complement of a heptad B is walked through B's 7 points, and C = B through its own 7
    b_set = designs.blocks_avoiding(witt, 22)[0]
    G = enumerate_group(m22_spec)
    G.stabilizer = SliceCountingBytes(G.stabilizer)
    report = verify_certificate_enumerated(G, Certificate(b_set, (1 << 22) - 1 ^ b_set if complement else b_set, 2, 22))
    assert len(G.transversal) == 22 and G.stabilizer.slices == 7
    spectrum = {0: 2520, 4: 264600, 6: 176400}
    assert report.spectrum == (spectrum if complement else {7 - k: m for k, m in spectrum.items()})
    assert report.conclusion == ("refuted" if complement else "inconclusive")


def test_enumerated_inconclusive_for_regular_group(c5):
    cert = Certificate(0b1, 0b1, 2, 5)
    report = verify_certificate_enumerated(c5, cert)
    assert report.conclusion == "inconclusive"
    assert 1 in report.spectrum


def test_enumerated_domain_mismatch(c5):
    cert = Certificate(0b1, 0b1, 2, 6)
    with pytest.raises(ValueError):
        verify_certificate_enumerated(c5, cert)


# ---------------------------------------------------------------------------
# Family verification


def test_family_mclaughlin(mclaughlin):
    report = run_case("mclaughlin")
    assert report.conclusion == "refuted"
    assert set(report.spectrum) == {0, 3, 6, 12}
    assert report.certificate.p == 3
    assert report.certificate.b_size == 22
    assert report.certificate.c_size == 56
    assert any("assumed" in a for a in report.assumptions)


def test_mclaughlin_family_is_the_pairwise_list(mclaughlin, monkeypatch):
    # the runner's family, taken as it is handed to the family walk, lists the pairs in (i, j) order
    seen = []
    walk = certify.verify_certificate_family
    monkeypatch.setattr(
        certify, "verify_certificate_family", lambda family, *a, **k: seen.append(family) or walk(family, *a, **k)
    )
    report = run_case("mclaughlin")
    assert seen[0] == reference_non_adjacent_family(mclaughlin.graph)
    assert report.certificate.c_set == seen[0][0]


def test_family_m22(witt):
    report = run_case("m22")
    assert report.conclusion == "refuted"
    assert set(report.spectrum) == {0, 4, 6}
    assert report.certificate.b_size == 7
    assert report.certificate.c_size == 15
    assert report.certificate.p == 2
    assert any("orbit of C" in a for a in report.assumptions)


def test_family_sp44_projective():
    report = run_case("sp", n=2, q=4)
    assert report.conclusion == "refuted"
    assert set(report.spectrum) <= {0, 2}


def test_family_rejects_foreign_c():
    family = [0b0011, 0b0101]
    with pytest.raises(ValueError, match="C must be a member of its own family"):
        verify_certificate_family(family, Certificate(0b1, 0b1111, 2, 4), closure_witness="x")


@pytest.mark.parametrize("action", ["projective", "vector"])
def test_family_sp_4_2(action):
    report = run_case("sp", n=4, q=2, action=action)
    assert report.conclusion == "refuted"
    # 119 quadric points, each on 64 nonsingular lines, each line through 0 or 2 of them
    assert report.spectrum == {0: 1632, 2: 3808}
    assert sum(report.spectrum.values()) == geometry.nonsingular_line_count(4, 2) == 5440
    assert report.certificate.b_size == 119


@pytest.mark.parametrize("action, spectrum", [("projective", {0: 2080, 2: 2080}), ("vector", {0: 2080, 14: 2080})])
def test_family_sp_2_8(action, spectrum):
    # the first GF(8) case; 2(q - 1) = 14 vectors of a line lie on the quadric
    report = run_case("sp", n=2, q=8, action=action)
    assert report.conclusion == "refuted"
    assert report.spectrum == spectrum
    assert sum(report.spectrum.values()) == geometry.nonsingular_line_count(2, 8) == 4160


@pytest.mark.parametrize("n, q", [(2, 2), (3, 2), (2, 4)])
@pytest.mark.parametrize("action", ["projective", "vector"])
def test_sp_orbit_family_is_every_nonsingular_line(monkeypatch, n, q, action):
    families = []

    def capture(family, *args, **kwargs):
        families.append(family)
        return verify_certificate_family(family, *args, **kwargs)

    monkeypatch.setattr(certify, "verify_certificate_family", capture)
    assert run_case("sp", n=n, q=q, action=action).conclusion == "refuted"
    space = geometry.symplectic_space(n, gf.field_for_q(q))
    reference = {line.points for line in geometry.nonsingular_lines(space)}
    if action == "vector":
        reference = {geometry.vector_lift(space, pts) for pts in reference}
    (family,) = families
    assert len(family) == len(set(family))
    assert set(family) == reference


# ---------------------------------------------------------------------------
# Case runners


def test_run_case_alt6():
    report = run_case("alt", n=6)
    assert report.conclusion == "refuted"
    assert report.certificate.b_size == 15


def test_run_case_alt5_gate():
    report = run_case("alt", n=5)
    assert report.conclusion == "hypothesis-not-met"


def test_run_case_m22_modes_agree(m22_enum):
    fam = run_case("m22")
    enum_rep = run_case("m22", enumerated=True)
    assert fam.conclusion == enum_rep.conclusion == "refuted"
    assert set(fam.spectrum) == set(enum_rep.spectrum) == {0, 4, 6}
    # exact multiplicities, frozen from the first verified runs
    assert fam.spectrum == {0: 1, 4: 105, 6: 70}
    assert enum_rep.spectrum == {0: 2520, 4: 264600, 6: 176400}
    assert sum(enum_rep.spectrum.values()) == 443520


@pytest.mark.parametrize(
    "case, options",
    [
        ("m22", {"enumerated": True}),
        ("m22", {"group_file": str(shipped_group_path("m22"))}),
        ("sp", {"n": 2, "q": 2, "enumerate_group_flag": True}),
        ("sp", {"n": 2, "q": 2, "action": "vector", "enumerate_group_flag": True}),
    ],
)
def test_coset_and_bfs_enumerations_give_one_report(monkeypatch, witt, case, options):
    # the walk over the cosets and the walk over the same elements listed in one run, as a BFS-ordered or hand-built
    # enumeration is walked, give one report: the spectrum is written sorted
    monkeypatch.setattr(designs, "golay_witt_design", lambda: witt)
    by_cosets = json.dumps(run_case(case, **options).as_dict())

    def listed(spec):
        G = perm.enumerate_group(spec)
        return perm.listed(G.degree, G.elements, G.name)

    monkeypatch.setattr(certify, "enumerate_group", listed)
    assert json.dumps(run_case(case, **options).as_dict()) == by_cosets


def test_m22_walk_lists_no_element_of_the_group(monkeypatch, witt):
    # the walk reads H's 20,160 images as one run, once for each of the 22 points of T: a list of the
    # 443,520 elements, or one run of all their images (9.8 MB), would pass the peak
    import tracemalloc

    def listed(G):
        raise AssertionError(f"listed the {G.order} elements")

    monkeypatch.setattr(perm.GroupEnumeration, "elements", property(listed))
    monkeypatch.setattr(designs, "golay_witt_design", lambda: witt)
    tracemalloc.start()
    try:
        report = run_case("m22", enumerated=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (report.spectrum, report.conclusion) == ({0: 2520, 4: 264600, 6: 176400}, "refuted")
    assert report.assumptions == ("all 443520 group elements enumerated",)
    assert peak < 4 * 2**20, peak


def test_mclaughlin_spectrum_multiplicities(mclaughlin):
    # frozen from the first verified run; the counts sum to the 22275 pairs
    report = run_case("mclaughlin")
    assert report.spectrum == {0: 3333, 3: 9240, 6: 7392, 12: 2310}


def test_run_case_m23_reduction():
    report = run_case("m23")
    assert report.conclusion == "refuted"
    assert report.mode == "reduction"
    assert any("stabilizer" in a for a in report.assumptions)
    assert any("parity" in a for a in report.assumptions)


def test_run_case_unknown():
    with pytest.raises(ValueError):
        run_case("m25")


# ---------------------------------------------------------------------------
# Solver coherence: a refutation forces mod-p infeasibility of the system


def test_refutation_implies_mod2_infeasible_a6(a6):
    action, induced = induced_action(a6, 2)
    system = linsys.build_full_system(induced.elements)
    assert linsys.solve_mod_p(system, 2).status == "infeasible"


def test_refutation_implies_mod2_infeasible_sp42():
    space = geometry.symplectic_space(2, gf.field_for_q(2))
    G = enumerate_group(geometry.symplectic_generators(space, "projective"))
    system = linsys.build_full_system(G.elements)
    assert linsys.solve_mod_p(system, 2).status == "infeasible"


# ---------------------------------------------------------------------------
# Certificate search


def test_search_finds_certificate_for_a6_pairs(a6):
    action, induced = induced_action(a6, 2)
    cert = certificate_search(induced, 2, max_b=15, max_c=15, action=action)
    assert cert is not None
    assert cert.b_size <= 15 and cert.c_size <= 15
    assert (cert.b_set, cert.c_set, cert.p) == (536054785, 17593311, 2)
    # and it must pass full verification (the search verifies internally too)
    report = verify_certificate_enumerated(induced, cert)
    assert report.conclusion == "refuted"


def test_search_odd_p_beyond_exhaustive_scan(s4):
    # 12 cells is past the exhaustive (B, C) scan, so B comes from the mod-3
    # nullspace; S4 holds a sharply 2-transitive A4, so no certificate exists
    action, induced = induced_action(s4, 2)
    assert certificate_search(induced, 3, action=action, budget=300) is None


def test_search_none_for_c5(c5):
    for p in (2, 3, 5):
        assert certificate_search(c5, p) is None


def test_search_none_for_s3(s3):
    assert certificate_search(s3, 2) is None


def test_f2_basis_matches_the_column_incremental_reference():
    # the span walk is capped, so the basis order decides which B it meets:
    # the packed kernel must give the column-incremental basis, vector by vector
    rng = random.Random(12)
    free = 0
    for trial in range(1200):
        ncols = rng.randrange(1, 13)
        rows = [rng.getrandbits(ncols) for _ in range(rng.randrange(1, 10))]
        basis = orthogonal_basis(rows, ncols, 2)
        assert basis == reference_nullspace_mod_2(rows, ncols), trial
        free += bool(basis)
    assert free >= 400, free


def test_span_vector_cap_is_monotone_in_the_dimension():
    # past SPAN_VECTOR_LIMIT the basis is cut to the largest span under it
    # (2^16 for p = 2, 3^10 for p = 3), so a larger nullspace never yields fewer B
    for p, dims in ((2, (15, 16, 17, 20)), (3, (10, 11, 12))):
        counts = []
        for dim in dims:
            basis = [1 << i for i in range(dim)] if p == 2 else [[int(i == j) for j in range(dim)] for i in range(dim)]
            counts.append(sum(1 for _ in zero_one_vectors(basis, dim, p)))
        assert counts == sorted(counts), (p, counts)
        assert counts[-1] == (1 << {2: 16, 3: 10}[p]) - 1, (p, counts)  # every 0/1 vector of the kept span


def test_no_certificate_for_groups_with_sharp_sets(c5, c6, s3, s4, a4):
    # groups where the exact-cover oracle finds a sharply transitive set can
    # never carry a valid certificate
    for enum in (c5, c6, s3, s4, a4):
        found = sharp_search.find_sharp_set(enum, 1)
        assert found.status == sharp_search.FOUND
        for p in (2, 3, 5, 7):
            assert certificate_search(enum, p) is None, (enum.name, p)


def test_report_invariant_guard():
    # a "refuted" report with a bad spectrum must be impossible to construct
    cert = Certificate(0b1, 0b1, 2, 4)
    with pytest.raises(AssertionError):
        certify.VerificationReport(
            case="x",
            mode="enumerated",
            certificate=cert,
            spectrum={1: 4},
            conclusion="refuted",
        )


@pytest.mark.parametrize(
    "cert", [None, Certificate(0b11, 0b1, 2, 4), Certificate(0b111, 0b111, 3, 4), Certificate(0b11, 0b11, 2, 4)]
)
def test_refuted_needs_the_side_condition_read_off_the_certificate(cert):
    # no certificate, or p | |B||C|, with p dividing every size: no "refuted" report, and the judge says inconclusive
    with pytest.raises(AssertionError):
        certify.VerificationReport("x", "enumerated", cert, {0: 2, 6: 1}, "refuted")
    report = certify.VerificationReport.judge("x", "enumerated", cert, {0: 2, 6: 1}, ())
    assert not report.side_condition_ok
    assert report.conclusion == "inconclusive"


def test_judge_refutes_exactly_under_the_rule():
    cert = Certificate(0b1, 0b10, 2, 4)  # |B||C| = 1, odd; |B & C| = 0
    assert certify.VerificationReport.judge("x", "family", cert, {0: 3, 2: 1}, ("a",)).conclusion == "refuted"
    assert certify.VerificationReport.judge("x", "family", cert, {0: 3, 1: 1}, ("a",)).conclusion == "inconclusive"
    assert certify.VerificationReport.judge("x", "family", cert, {2: 4}, ("a",)).conclusion == "inconclusive"


def test_a_spectrum_without_the_identity_size_does_not_refute():
    # B = C = {0}, p = 2: no walk has met the identity, so nothing is refuted, whatever p divides
    cert = Certificate(0b1, 0b1, 2, 5)
    assert certify.VerificationReport.judge("x", "family", cert, {}, ("a",)).conclusion == "inconclusive"
    report = verify_certificate_enumerated(perm.listed(5, []), cert)
    assert (report.spectrum, report.conclusion) == ({}, "inconclusive")
    with pytest.raises(AssertionError):
        certify.VerificationReport("x", "family", cert, {}, "refuted")


def test_the_identity_size_guard_survives_python_O():
    import os
    import subprocess
    import sys
    from pathlib import Path

    script = (
        "from sharpsets import certify\n"
        "from sharpsets.perm import InvariantViolation\n"
        "assert False, 'expected to run under python -O'\n"
        "try:\n"
        "    certify.VerificationReport('x', 'family', certify.Certificate(1, 2, 2, 4), {2: 1}, 'refuted')\n"
        "except InvariantViolation:\n"
        "    print('refused')\n"
    )
    src = str(Path(certify.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-O", "-c", script], env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, check=True
    )
    assert out.stdout.split() == ["refused"]


def test_runners_reject_options_they_do_not_take():
    # a misspelt option would otherwise skip the enumerated cross-check silently
    with pytest.raises(TypeError):
        run_case("sp", n=2, q=2, enumerate_group=True)
    with pytest.raises(TypeError):
        run_case("m23", enumerated=True)


GUARDS_UNDER_O = """
import sys
from sharpsets import certify, geometry, linsys, sharp_search
from sharpsets.perm import InvariantViolation, enumeration_from_elements

if __debug__:
    sys.exit("expected to run under python -O")
checks = {
    "report": lambda: certify.VerificationReport("x", "enumerated", certify.Certificate(1, 1, 2, 4), {1: 4}, "refuted"),
    "side_condition": lambda: certify.VerificationReport(
        "x", "enumerated", certify.Certificate(0b11, 0b1, 2, 4), {0: 2, 2: 1}, "refuted"
    ),
}
one = linsys.ExactSystem.from_rows([[1]], [1])
linsys.verify_witness = lambda *args, **kwargs: False
checks["mod_p"] = lambda: linsys.solve_mod_p(one, 3)
checks["rational"] = lambda: linsys.solve_rational(one)
checks["integer"] = lambda: linsys.solve_integer(one)
checks["nonneg"] = lambda: linsys.solve_nonneg_integer(one)
sharp_search.verify_sharp_set = lambda *args, **kwargs: False
checks["sharp"] = lambda: sharp_search.find_sharp_set(enumeration_from_elements(1, [(0,)]))


def m22_census():  # the orbit of C loses one member
    set_orbit = certify.set_orbit
    certify.set_orbit = lambda *args, **kwargs: set_orbit(*args, **kwargs)[:-1]
    try:
        certify.run_case("m22")
    finally:
        certify.set_orbit = set_orbit


def m23():  # the m22 case it rests on does not refute; the patch stays in place
    certify._run_m22 = lambda **kwargs: certify.VerificationReport("m22", "family", None, {1: 1}, "inconclusive")
    certify.run_case("m23")


checks["m22_census"] = m22_census
checks["m23"] = m23
certify.verify_certificate_enumerated = lambda G, cert, case="": certify.VerificationReport(
    case, "enumerated", cert, {1: 1}, "inconclusive"
)
checks["sp_enumerated"] = lambda: certify.run_case("sp", n=2, q=2, enumerate_group_flag=True)


def sp_census():  # runs last: the patch stays in place
    geometry.nonsingular_line_count = lambda n, q: 0
    certify.run_case("sp", n=2, q=2)


checks["sp_census"] = sp_census
for name, check in checks.items():
    try:
        check()
    except InvariantViolation:
        print(name)
"""


def test_guards_survive_python_O():
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(certify.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-O", "-c", GUARDS_UNDER_O],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.split() == [
        "report", "side_condition", "mod_p", "rational", "integer", "nonneg", "sharp", "m22_census", "m23", "sp_enumerated", "sp_census"
    ]


def test_certificate_points_lie_in_the_domain(s3):
    # S3 holds the sharply transitive C3: a B off its 3 points must not make a report, let alone a refuted one
    with pytest.raises(ValueError, match="3 points"):
        Certificate(1 << 5, 0b1, 2, 3)
    with pytest.raises(ValueError, match="3 points"):
        Certificate(0b1, 0b1000, 2, 3)
    cert = Certificate(0b100, 0b111, 2, 3)  # the top point is inside
    assert verify_certificate_enumerated(s3, cert).conclusion == "inconclusive"
    assert verify_certificate_family([0b111], cert, closure_witness="orbit").conclusion == "inconclusive"


def test_certificate_validation():
    with pytest.raises(ValueError):
        Certificate(0, 0b1, 2, 4)  # empty B
    with pytest.raises(ValueError):
        Certificate(0b1, 0b1, 4, 4)  # composite p
    with pytest.raises(ValueError):
        Certificate(0b1, 0b1, 1, 4)  # unit p
