"""Acceptance criteria, one test per numbered item, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines and
the measured times next to their budgets.
"""

import itertools
import random
import time

from oracles import lemma_down_check, local_global_check, seeded_integer_corpus

from sharpsets import certify, designs, geometry, gf, linsys, perm, sharp_search
from sharpsets.certify import run_case
from sharpsets.perm import GroupSpec, enumerate_group, from_cycles, induced_action


def verdict(number, ok, text, elapsed=None, budget=None):
    mark = "PASS" if ok else "FAIL"
    timing = f" [{elapsed:.1f}s / {budget:.0f}s budget]" if elapsed is not None else ""
    print(f"ACCEPTANCE {number}: {mark} {text}{timing}")
    assert ok, f"criterion {number} failed: {text}"


def test_criterion_1_witt_design():
    t0 = time.perf_counter()
    design = designs.golay_witt_design()
    ok = design.b == 253
    ok &= designs.steiner_check(design, 4)
    ok &= designs.block_intersection_spectrum(design) == {1, 3}
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 10
    verdict(1, ok, "Witt design: 253 blocks, Steiner S(4,7,23), intersections {1,3}", elapsed, 10)


def test_criterion_2_m22_certificate():
    t0 = time.perf_counter()
    family_report = run_case("m22")
    ok = family_report.conclusion == "refuted"
    ok &= set(family_report.spectrum) <= {0, 4, 6}
    ok &= family_report.certificate.b_size == 7
    ok &= family_report.certificate.c_size == 15
    ok &= family_report.certificate.p == 2
    enumerated_report = run_case("m22", enumerated=True)
    ok &= enumerated_report.conclusion == "refuted"
    ok &= sum(enumerated_report.spectrum.values()) == 443520
    ok &= set(enumerated_report.spectrum) == set(family_report.spectrum) == {0, 4, 6}
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 120
    verdict(2, ok, "degree-22 stabilizer: spectrum {0,4,6}, |B|=7, |C|=15, p=2, both modes", elapsed, 120)


def test_criterion_3_mclaughlin():
    t0 = time.perf_counter()
    mcl = designs.mclaughlin_graph()
    g = mcl.graph
    ok = designs.srg_check(g, (275, 112, 30, 56)).ok
    b_mask = mcl.point_vertex_mask
    sizes_ok = True
    intersections = set()
    pairs = 0
    for i in range(g.n):
        for j in range(i + 1, g.n):
            if not g.adjacent(i, j):
                common = g.adj[i] & g.adj[j]
                sizes_ok &= common.bit_count() == 56
                intersections.add((b_mask & common).bit_count())
                pairs += 1
    ok &= sizes_ok and pairs == 22275 and intersections <= {0, 3, 6, 12}
    report = run_case("mclaughlin")
    ok &= report.conclusion == "refuted" and report.certificate.p == 3
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 60
    verdict(3, ok, "McLaughlin graph: SRG(275,112,30,56), 22275 neighborhoods, p=3", elapsed, 60)


def test_criterion_4_symplectic():
    t0 = time.perf_counter()
    ok = True
    for n, q in [(2, 2), (3, 2), (2, 4)]:
        space = geometry.symplectic_space(n, gf.field_for_q(q))
        quad = geometry.elliptic_quadric(space)
        ok &= quad.projective_size == (q ** (2 * n - 1) - 1) // (q - 1) - q ** (n - 1)
        proj_sizes = set()
        vec_sizes = set()
        for line in geometry.nonsingular_lines(space):
            proj_sizes.add((line.points & quad.projective_set).bit_count())
            lifted = geometry.vector_lift(space, line.points)
            vec_sizes.add((lifted & quad.vector_set).bit_count())
        ok &= proj_sizes <= {0, 2} and vec_sizes <= {0, 2 * (q - 1)}
        for action in ("projective", "vector"):
            ok &= run_case("sp", n=n, q=q, action=action).conclusion == "refuted"
    cross = run_case("sp", n=2, q=2, enumerate_group_flag=True)
    ok &= cross.notes["enumerated_order"] == 720
    ok &= set(cross.notes["enumerated_spectrum"]) <= {"0", "2"}
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 60
    verdict(4, ok, "symplectic spaces (2,2),(3,2),(2,4): quadric sizes, {0,2} spectra, p=2", elapsed, 60)


def test_criterion_5_alternating():
    t0 = time.perf_counter()
    ok = True
    for n in (6, 7):
        report = run_case("alt", n=n)
        ok &= report.conclusion == "refuted"
        ok &= report.certificate.b_size == n * (n - 1) // 2
        ok &= report.certificate.b_size % 2 == 1
        ok &= all(size % 2 == 0 for size in report.spectrum)
        ok &= sum(report.spectrum.values()) == {6: 360, 7: 2520}[n]
    for g in itertools.permutations(range(6)):
        ok &= perm.parity(g) == perm.cycle_parity(g)
    elapsed = time.perf_counter() - t0
    verdict(5, ok, "alternating n=6,7 exhaustive, odd |B|, parity matches cycle type on S6", elapsed, 60)


def test_criterion_6_solver_certificate_coherence():
    t0 = time.perf_counter()
    a6 = enumerate_group(certify._alt_generators(6))
    _, induced = induced_action(a6, 2)
    ok = linsys.solve_mod_p(linsys.build_full_system(induced.elements), 2).status == "infeasible"
    space = geometry.symplectic_space(2, gf.field_for_q(2))
    sp42 = enumerate_group(geometry.symplectic_generators(space, "projective"))
    ok &= linsys.solve_mod_p(linsys.build_full_system(sp42.elements), 2).status == "infeasible"
    for cycle_len in (5, 6):
        cyc = enumerate_group(GroupSpec(cycle_len, (from_cycles(cycle_len, tuple(range(cycle_len))),), f"C{cycle_len}"))
        out = linsys.solve_mod_p(linsys.build_full_system(cyc.elements), 2)
        ok &= out.status == "solvable" and out.witness == [1] * cycle_len
    elapsed = time.perf_counter() - t0
    verdict(6, ok, "mod-2 system infeasible for A6-on-pairs and Sp(4,2); all-ones for C5, C6", elapsed, 60)


def test_criterion_7_integer_solvers():
    t0 = time.perf_counter()
    ok = True
    for matrix, rhs, boxed in seeded_integer_corpus():
        system = linsys.ExactSystem.from_rows(matrix, rhs)
        out = linsys.solve_integer(system)
        ok &= (out.status == "solvable") == boxed
        if out.status == "solvable":
            ok &= linsys.verify_witness(system, out.witness)
    rng = random.Random(987)
    for trial in range(50):
        total = rng.randrange(3, 7)
        extra = [[rng.randrange(-3, 4) for _ in range(8)] for _ in range(3)]
        if trial % 2 == 0:
            x0 = [0] * 8
            for _ in range(total):
                x0[rng.randrange(8)] += 1
            rhs_extra = [sum(a * x for a, x in zip(row, x0)) for row in extra]
        else:
            rhs_extra = [rng.randrange(-6, 7) for _ in range(3)]
        system = linsys.ExactSystem.from_rows([[1] * 8] + extra, [total] + rhs_extra)
        out = linsys.solve_nonneg_integer(system)

        def compositions(left, parts):
            if parts == 1:
                yield (left,)
                return
            for head in range(left + 1):
                for rest in compositions(left - head, parts - 1):
                    yield (head,) + rest

        exists = any(
            all(sum(a * x for a, x in zip(row, c)) == b for row, b in zip(extra, rhs_extra))
            for c in compositions(total, 8)
        )
        ok &= (out.status == "solvable") == exists
        if out.status == "solvable":
            ok &= linsys.verify_witness(system, out.witness) and all(x >= 0 for x in out.witness)
    elapsed = time.perf_counter() - t0
    verdict(7, ok, "integer solver vs box search (100), non-negative solver vs enumeration (50)", elapsed, 120)


def test_criterion_8_collapsed_systems():
    t0 = time.perf_counter()
    ok = True

    def build(n, name, *cycs_list):
        gens = tuple(from_cycles(n, *cycs) for cycs in cycs_list)
        return enumerate_group(GroupSpec(n, gens, name))

    s3 = build(3, "S3", [(0, 1)], [(0, 1, 2)])
    s4 = build(4, "S4", [(0, 1)], [(0, 1, 2, 3)])
    a4 = build(4, "A4", [(0, 1, 2)], [(1, 2, 3)])
    subgroups = {
        "S3": [build(3, "C3", [(0, 1, 2)]), build(3, "C2", [(0, 1)])],
        "S4": [build(4, "C2", [(0, 1), (2, 3)]), build(4, "V4", [(0, 1), (2, 3)], [(0, 2), (1, 3)])],
        "A4": [build(4, "C2", [(0, 1), (2, 3)]), build(4, "C3", [(0, 1, 2)])],
    }
    for G, name in ((s3, "S3"), (s4, "S4"), (a4, "A4")):
        for H in subgroups[name]:
            system = linsys.build_H_system(G, H)  # class constancy asserted inside
            for c in range(system.cols):
                ok &= sum(system.columns[c].values()) == G.degree
            ok &= sum(system.rhs) == G.degree**2
    one3 = perm.listed(3, [perm.identity(3)], "1")
    one4 = perm.listed(4, [perm.identity(4)], "1")
    ok &= lemma_down_check(s3, one3, subgroups["S3"][0])["implication_holds"]
    ok &= lemma_down_check(s4, subgroups["S4"][0], subgroups["S4"][1])["implication_holds"]
    ok &= lemma_down_check(a4, subgroups["A4"][0], build(4, "V4", [(0, 1), (2, 3)], [(0, 2), (1, 3)]))[
        "implication_holds"
    ]
    ok &= lemma_down_check(s4, one4, subgroups["S4"][1])["implication_holds"]
    lg_s3 = local_global_check(s3, {2: subgroups["S3"][0], 3: subgroups["S3"][1]})
    lg_s4 = local_global_check(s4, {3: subgroups["S4"][1], 2: build(4, "C3", [(0, 1, 2)])})
    lg_a4 = local_global_check(a4, {2: subgroups["A4"][1], 3: subgroups["A4"][0]})
    for rep in (lg_s3, lg_s4, lg_a4):
        ok &= rep["equivalence_holds"] and rep["lift_consequence_holds"]
    elapsed = time.perf_counter() - t0
    verdict(8, ok, "collapsed systems on S3, S4, A4: row sums, class constancy, no violations "
                   "(full-scale degree-24 computation out of scope; optional protocol replication skipped)", elapsed, 60)


def test_criterion_9_sharp_search_oracle(fano_stabilizer, s5):
    t0 = time.perf_counter()
    found = sharp_search.find_sharp_set(s5, 2)
    ok = found.status == sharp_search.FOUND
    ok &= len(found.sharp_set.element_indices) == 20
    ok &= sharp_search.verify_sharp_set(s5, found.sharp_set.element_indices, 2)
    none = sharp_search.find_sharp_set(fano_stabilizer, 1)
    ok &= none.status == sharp_search.NONE_EXHAUSTIVE
    regular = sharp_search.find_sharp_set(
        enumerate_group(GroupSpec(5, (from_cycles(5, (0, 1, 2, 3, 4)),), "C5")), 1
    )
    ok &= regular.status == sharp_search.FOUND
    ok &= sharp_search.verify_sharp_set(
        enumerate_group(GroupSpec(5, (from_cycles(5, (0, 1, 2, 3, 4)),), "C5")),
        regular.sharp_set.element_indices,
        1,
    )
    elapsed = time.perf_counter() - t0
    verdict(9, ok, "search: size-20 sharply 2-transitive set in S5; exhaustive none for the "
                   "order-24 Fano point stabilizer on 6 points", elapsed, 60)


def test_criterion_10_symmetric_design_checker():
    t0 = time.perf_counter()
    fano = designs.symmetric_design_refutation(designs.SymmetricDesignParams(7, 3, 1))
    ok = fano.conclusion == "refuted" and not fano.steps[-1].ok and "integer" in fano.steps[-1].detail
    biplane = designs.symmetric_design_refutation(designs.SymmetricDesignParams(11, 5, 2))
    ok &= biplane.conclusion == "refuted" and not biplane.steps[-1].ok
    trivial = designs.symmetric_design_refutation(designs.SymmetricDesignParams(4, 3, 2))
    ok &= trivial.conclusion == "trivial-inapplicable"
    try:
        designs.SymmetricDesignParams(8, 3, 1)
        ok = False
    except ValueError:
        pass
    elapsed = time.perf_counter() - t0
    verdict(10, ok, "design checker: (7,3,1) and (11,5,2) refuted with non-integrality, "
                    "(4,3,2) trivial-inapplicable, parameter relation gated", elapsed, 60)
