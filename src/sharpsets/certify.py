"""Divisibility certificates against sharply transitive sets, and case runners.

A certificate is a pair of point subsets B, C and a prime p. Any sharply
transitive set S satisfies sum_{g in S} |B & C^g| = |B||C| (checked by
doublecount_check), so one verdict rule decides every report: it is
refuted exactly when p does not divide |B||C| and p divides every size in
the spectrum of |B & C^g| over the group, which must hold |B & C|, the
identity's size. VerificationReport.judge applies the rule, and the
report's constructor refuses a "refuted" that breaks it.

Both verification modes take a Certificate, whose B and C lie in its
domain, and end in the judge: "enumerated" walks every group element;
"family" walks a family of sets holding every image C^g, which is either
the orbit of C under the group's generators (perm.set_orbit) or closed
for a mathematical reason recorded as an assumption in the report. The
family mode counts each size as the popcount of B ANDed with a member;
the enumerated mode counts a run of elements at once, by columns.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field as dc_field, replace
from itertools import compress

from . import designs, geometry, gf, linsys
from .perm import (
    DEFAULT_ENUMERATION_CAP,
    GroupEnumeration,
    GroupSpec,
    GroupTooLarge,
    Perm,
    apply_to_set,
    enumerate_group,
    expect,
    induced_action,
    is_sharply_transitive,
    load_group,
    set_orbit,
)
from .sharp_search import ZERO_ONE

REFUTED = "refuted"
INCONCLUSIVE = "inconclusive"
HYPOTHESIS_NOT_MET = "hypothesis-not-met"


@dataclass(frozen=True)
class Certificate:
    """Candidate contradicting pair (B, C) with a prime p on a fixed domain."""

    b_set: int
    c_set: int
    p: int
    domain: int

    def __post_init__(self):
        if self.b_set == 0 or self.c_set == 0:
            raise ValueError("B and C must be nonempty")
        if (self.b_set | self.c_set) >> self.domain:
            raise ValueError(f"B and C must lie in the {self.domain} points of the domain")
        if not linsys.is_prime(self.p):
            raise ValueError(f"p = {self.p} is not prime")

    @property
    def b_size(self) -> int:
        return self.b_set.bit_count()

    @property
    def c_size(self) -> int:
        return self.c_set.bit_count()


@dataclass
class VerificationReport:
    case: str
    mode: str
    certificate: Certificate | None
    spectrum: dict[int, int]          # intersection size -> multiplicity
    conclusion: str
    assumptions: tuple[str, ...] = ()
    notes: dict = dc_field(default_factory=dict)

    def __post_init__(self):
        if self.conclusion == REFUTED:
            expect(self.refutes, "refuted requires p coprime to |B||C|, |B & C| in the spectrum and p | every size in it")

    @classmethod
    def judge(
        cls, case: str, mode: str, certificate: Certificate, spectrum: dict[int, int], assumptions: tuple[str, ...]
    ) -> VerificationReport:
        """The report on a certificate's spectrum: refuted exactly when the verdict rule holds, else inconclusive."""
        report = cls(case, mode, certificate, spectrum, INCONCLUSIVE, assumptions)
        return replace(report, conclusion=REFUTED) if report.refutes else report

    @property
    def side_condition_ok(self) -> bool:
        """p does not divide |B| |C|; false when there is no certificate."""
        cert = self.certificate
        return cert is not None and (cert.b_size * cert.c_size) % cert.p != 0

    @property
    def refutes(self) -> bool:
        """The verdict rule: the side condition holds, |B & C| is in the spectrum and p divides every size in it."""
        cert, sizes = self.certificate, self.spectrum
        return self.side_condition_ok and (cert.b_set & cert.c_set).bit_count() in sizes and all(s % cert.p == 0 for s in sizes)

    def as_dict(self) -> dict:
        cert = self.certificate
        return {
            "case": self.case,
            "mode": self.mode,
            "B_size": cert.b_size if cert else None,
            "C_size": cert.c_size if cert else None,
            "p": cert.p if cert else None,
            "spectrum": {str(k): v for k, v in sorted(self.spectrum.items())},
            "conclusion": self.conclusion,
            "assumptions": list(self.assumptions),
            "notes": self.notes,
        }


# ---------------------------------------------------------------------------
# The counting identity


@dataclass
class DoublecountReport:
    sharply_transitive: bool
    lhs: int                     # sum over g of |B & C^g|
    rhs: int                     # |B| |C|
    equal: bool


def doublecount_check(S: list[Perm], b_set: int, c_set: int) -> DoublecountReport:
    """Check sum_{g in S} |B & C^g| == |B||C| for a claimed sharply transitive S.

    Sharp transitivity of S is verified independently first (every ordered
    pair of points connected by exactly one member); if it fails, the report
    flags it and makes no claim about the identity.
    """
    sharp = is_sharply_transitive(S, len(S[0]))
    lhs = sum((b_set & apply_to_set(g, c_set)).bit_count() for g in S)
    rhs = b_set.bit_count() * c_set.bit_count()
    return DoublecountReport(sharp, lhs, rhs, sharp and lhs == rhs)


# ---------------------------------------------------------------------------
# Verification modes


def verify_certificate_enumerated(G: GroupEnumeration, cert: Certificate, case: str = "") -> VerificationReport:
    """Check p | |B & C^g| for every element g = h u of the enumerated group, u from G.transversal outer and h from
    the run of images G.stabilizer inner, as the elements are ordered.

    g permutes the points, so |B & C^g| = |B| - |B & (Omega - C)^g|: the walk counts over the smaller side W of C and
    Omega - C, mapping k to |B| - k if W = Omega - C, which keeps the first-seen key order. For g = h u, g[x] is in B
    where (marks o u)[h[x]] is 1: column x of the run (stabilizer[x::n]), sliced once, translated by marks o u for
    each u and summed as ints over the x in W, counts every product h u with that u at once.
    """
    if cert.domain != G.degree:
        raise ValueError(f"certificate domain {cert.domain} != group degree {G.degree}")
    n = G.degree
    marks = bytes(cert.b_set >> x & 1 for x in range(max(n, 256)))  # a translate table up to degree 256
    flip = 2 * cert.c_size > n  # walk the smaller of C and its complement
    walked = [x for x in range(n) if (cert.c_set >> x & 1) != flip]
    width = max(1, (len(walked).bit_length() + 7) // 8)  # a count is at most |W|; walking no point counts zeros
    spectrum = Counter()  # its keys in first-seen order, as the walk meets the elements
    columns, length = [G.stabilizer[x::n] for x in walked], len(G.stabilizer) // n * width
    for u in G.transversal:
        table = bytes(map(marks.__getitem__, u)) + marks[n:]  # marks o u
        marked = (c.translate(table) if type(c) is bytes else bytes(map(table.__getitem__, c)) for c in columns)
        if width == 1:  # a marked column is itself a field of one-byte counts, tallied one size at a time
            counts = sum(int.from_bytes(column, "little") for column in marked).to_bytes(length, "little")
            for size in sorted(filter(counts.__contains__, range(len(walked) + 1)), key=counts.find):
                spectrum[size] += counts.count(size)
        else:
            field, total = bytearray(length), 0
            for column in marked:
                field[::width] = column
                total += int.from_bytes(field, "little")
            counts = total.to_bytes(length, "little")
            spectrum.update(int.from_bytes(t, "little") for t in zip(*[iter(counts)] * width))
    if flip:
        spectrum = Counter({cert.b_size - k: m for k, m in spectrum.items()})
    assumptions = (f"all {G.order} group elements enumerated",)
    return VerificationReport.judge(case or G.name, "enumerated", cert, spectrum, assumptions)


def verify_certificate_family(
    family: list[int], cert: Certificate, *, closure_witness: str, case: str = ""
) -> VerificationReport:
    """Check p | |B & C'| over a family of sets containing every image C^g.

    closure_witness states why the family holds every image C^g, for
    example that it is an orbit built by perm.set_orbit; it is recorded as
    the report's first assumption and not re-checked here.
    """
    if cert.c_set not in family:  # every caller puts C first
        raise ValueError("C must be a member of its own family")
    spectrum = Counter(map(int.bit_count, map(cert.b_set.__and__, family)))
    return VerificationReport.judge(case, "family", cert, spectrum, (closure_witness,))


# ---------------------------------------------------------------------------
# Case runners


def _alt_generators(n: int) -> GroupSpec:
    from .perm import from_cycles

    three = from_cycles(n, (0, 1, 2))
    if n % 2:
        big = from_cycles(n, tuple(range(n)))
    else:
        big = from_cycles(n, tuple(range(1, n)))
    return GroupSpec(n, (three, big), name=f"A{n}", declared_order=math.factorial(n) // 2)


def run_case(case: str, **options) -> VerificationReport:
    """Assemble and verify one of the named nonexistence cases.

    Cases: "alt" (alternating groups on ordered pairs, needs n), "m22",
    "m23", "mclaughlin", "sp" (needs n and q). The options are the keyword
    parameters of the case's runner, which are the dests of its flags under
    `sharpsets verify <case>`, so the CLI passes what it parsed unchanged.
    """
    runners = {
        "alt": _run_alt,
        "m22": _run_m22,
        "m23": _run_m23,
        "mclaughlin": _run_mclaughlin,
        "sp": _run_sp,
    }
    if case not in runners:
        raise ValueError(f"unknown case {case!r}; pick from {sorted(runners)}")
    return runners[case](**options)


def _run_alt(n: int) -> VerificationReport:
    """Alternating group acting on ordered pairs; parity certificate with p = 2."""
    if n < 3:
        raise ValueError(f"the alternating case needs n >= 3, got {n}")
    if n % 4 not in (2, 3):
        return VerificationReport(
            case=f"alt(n={n})",
            mode="enumerated",
            certificate=None,
            spectrum={},
            conclusion=HYPOTHESIS_NOT_MET,
            assumptions=(f"n = {n} is {n % 4} mod 4; the parity argument needs 2 or 3",),
        )
    order = math.prod(range(3, min(n, 20) + 1))  # n!/2, exact up to n = 20 and past the cap beyond
    if order > DEFAULT_ENUMERATION_CAP:  # refused before anything of size n is built
        shown = order if n <= 20 else f"{n}!/2"
        raise GroupTooLarge(f"A{n} declares order {shown}, past the cap of {DEFAULT_ENUMERATION_CAP} elements")
    action, on_pairs = induced_action(enumerate_group(_alt_generators(n)), 2)  # in the chain order of its points
    asc = sum(1 << i for i, (x, y) in enumerate(action.cells) if x < y)
    desc = sum(1 << i for i, (x, y) in enumerate(action.cells) if x > y)
    cert = Certificate(asc, desc, 2, action.size)
    report = verify_certificate_enumerated(on_pairs, cert, case=f"alt(n={n})")
    report.notes["cells"] = action.size
    return report


def _run_m22(group_file=None, enumerated: bool = False, export_design: str | None = None) -> VerificationReport:
    """B = a block avoiding the special point, C = its complement in the 22 points, p = 2.

    Every automorphism fixing the special point permutes the 176 blocks
    avoiding it, so in family mode an orbit equal to their complements
    holds C^g for every g of the true stabilizer, whatever the generators.
    The Witt design is built once, and written to export_design if given.
    """
    design = designs.golay_witt_design()
    if export_design:
        designs.write_design(design, export_design)
    avoiding = designs.blocks_avoiding(design, 22)
    points = (1 << 22) - 1
    cert = Certificate(avoiding[0], points ^ avoiding[0], 2, 22)
    if enumerated or group_file is not None:
        # a group too large to enumerate raises GroupTooLarge: verifying any
        # other group in its place would report on the wrong group
        spec = load_group(group_file) if group_file else designs.witt_stabilizer_generators(design)
        if spec.degree != cert.domain:  # refused before enumerating, as the walk would refuse it after
            raise ValueError(f"certificate domain {cert.domain} != group degree {spec.degree}")
        return verify_certificate_enumerated(enumerate_group(spec), cert, case="m22")
    gens = designs.witt_stabilizer_generators(design).generators
    family = set_orbit(gens, cert.c_set)
    census = {points ^ block for block in avoiding}
    expect(set(family) == census, f"the orbit of C has {len(family)} sets, not the {len(census)} block complements")
    return verify_certificate_family(
        family,
        cert,
        closure_witness=(
            f"the family is the orbit of C under the {len(gens)} generators of the point stabilizer; it equals "
            f"the complements of the {len(census)} blocks avoiding the special point, which every automorphism "
            "fixing that point permutes"
        ),
        case="m22",
    )


def _run_m23() -> VerificationReport:
    """Degree-23 reduction: no sharply 2-transitive set exists.

    No new computation: a sharply 2-transitive set on 23 points, restricted
    to the elements fixing one point, is sharply transitive on the other 22
    in the point stabilizer, which the m22 case refutes. The parity route
    also applies: the group consists of even permutations, 23 = 3 mod 4.
    """
    base = _run_m22()
    expect(base.conclusion == REFUTED, "the m23 reduction rests on the m22 case, which did not refute")
    report = VerificationReport.judge(
        "m23",
        "reduction",
        base.certificate,
        base.spectrum,
        base.assumptions
        + (
            "reduction: a sharply 2-transitive set restricted to the stabilizer of a "
            "point is sharply transitive on the remaining 22 points; refuted by m22",
            "alternative parity route: the degree-23 group is contained in the even "
            "permutations, 23 = 3 mod 4, |B| = |C| = 253 odd",
        ),
    )
    report.notes["reduction_of"] = "m22"
    return report


def _run_mclaughlin(export_graph: str | None = None) -> VerificationReport:
    """275-vertex graph, written to export_graph if given; B = point vertices, C = a non-adjacent pair's common
    neighborhood."""
    mcl = designs.mclaughlin_graph()
    if export_graph:
        designs.write_graph(mcl.graph, export_graph)
    g = mcl.graph
    family, full = [], (1 << g.n) - 1
    for i, row in enumerate(g.adj):  # a 0/1 byte per vertex j, 1 when j > i is not adjacent to i; pairs in (i, j) order
        later = format((full ^ row) >> i + 1 << i + 1, f"0{g.n}b")[::-1].encode().translate(ZERO_ONE)
        family += map(row.__and__, compress(g.adj, later))
    report = verify_certificate_family(
        family,
        Certificate(mcl.point_vertex_mask, family[0], 3, g.n),
        closure_witness=(
            "assumed: graph automorphisms map non-adjacent pairs to non-adjacent pairs, hence "
            "common neighborhoods to common neighborhoods"
        ),
        case="mclaughlin",
    )
    sizes = {m.bit_count() for m in family}
    report.notes["common_neighborhood_sizes"] = sorted(sizes)
    report.notes["vertex_count_remark"] = (
        "vertex census is 22 + 77 + 176 = 275; a 76 sometimes quoted for the middle "
        "class contradicts the 77 blocks through the special point"
    )
    return report


SP_FAMILY_BIT_CAP = 1 << 33  # bits of an sp family's members, census x domain (both domains for vector): 1 GiB


def _run_sp(
    n: int,
    q: int,
    action: str = "projective",
    enumerate_group_flag: bool = False,
    modulus: int | None = None,
) -> VerificationReport:
    """Symplectic case: B = elliptic quadric, C = a nonsingular line, p = 2.

    C is the line through the hyperbolic pair e0, e1 and the family is its
    orbit under the transvection generators and the Frobenius map. Every
    semilinear map preserving the form keeps nonsingular lines nonsingular,
    so an orbit as large as their census holds C^g for every g of the whole
    group, whichever group the generators generate. The orbit is built on
    projective points and lifted for the vector action, which is exact:
    linear and semilinear maps commute with the scalars.
    """
    if action not in ("projective", "vector"):
        raise ValueError("action must be 'projective' or 'vector'")
    fspec = gf.field_for_q(q, modulus)
    census = geometry.nonsingular_line_count(min(n, 7), q)  # exact up to n = 7, past the cap from n = 7 on
    if census > DEFAULT_ENUMERATION_CAP:  # set_orbit would refuse it, after building everything
        shown = census if n <= 7 and census < 1 << 64 else f"{q}^{2 * n - 2}({q}^{2 * n} - 1)/({q}^2 - 1)"
        raise GroupTooLarge(f"sp({2 * n},{q}) has {shown} nonsingular lines, past the cap of {DEFAULT_ENUMERATION_CAP}")
    points, vectors = (q ** (2 * n) - 1) // (q - 1), q ** (2 * n) - 1  # the vector family lifts the projective one
    bits = census * (points + vectors if action == "vector" else points)
    if bits > SP_FAMILY_BIT_CAP:
        raise GroupTooLarge(f"sp({2 * n},{q}) {action}: {census} lines hold {bits} bits, past the cap of {SP_FAMILY_BIT_CAP}")
    space = geometry.symplectic_space(n, fspec)
    quad = geometry.elliptic_quadric(space)
    spec = geometry.symplectic_generators(space)
    e0, e1 = geometry.unit_vectors(space)[:2]
    line = geometry.line_through(space, e0, e1).points
    family = set_orbit(spec.generators + (geometry.frobenius_point_map(space),), line)
    expect(len(family) == census, f"the orbit of C has {len(family)} lines, the census {census}")
    b_set, domain = quad.projective_set, space.num_proj_points
    if action == "vector":
        family = [geometry.vector_lift(space, member) for member in family]
        b_set, domain = quad.vector_set, space.num_vectors
    case = f"sp(2n={2 * n},q={q},{action})"
    cert = Certificate(b_set, family[0], 2, domain)
    report = verify_certificate_family(
        family,
        cert,
        closure_witness=(
            f"the family is the orbit of C under {len(spec.generators)} transvections and the Frobenius "
            f"map (field automorphisms act coordinatewise); it holds all {census} nonsingular lines, "
            "which every semilinear map preserving the form permutes"
        ),
        case=case,
    )
    if enumerate_group_flag:
        G = enumerate_group(geometry.symplectic_generators(space, action) if action == "vector" else spec)
        enum_report = verify_certificate_enumerated(G, cert, case=case)
        expect(enum_report.conclusion == report.conclusion, "the enumerated and orbit verdicts differ")
        report.notes["enumerated_order"] = G.order
        report.notes["enumerated_spectrum"] = {str(k): v for k, v in sorted(enum_report.spectrum.items())}
    return report
