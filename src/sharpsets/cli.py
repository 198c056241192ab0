"""Command-line front end.

Subcommands: `verify sp|m22|mclaughlin|alt|m23`, `design-check`,
`search-sharp`, `linsys`, `selftest`. Each run writes one JSON report
(stdout by default, `--out FILE` otherwise) whose `elapsed_ms` times the
whole command. The m22 and sp families are orbits of C under the group's
generators, each checked against a census. A completed run exits 0 whether
the conclusion is refuted or inconclusive. Every bad value on the command
line exits 2: bad flags through argparse, and a malformed group file, a
group file whose order line disagrees with its generators, an unsupported
`--n`, `--q`, `--modulus`, `--t` or `--budget`, a `--p` past
linsys.PRIME_BOUND, or impossible design parameters with one stderr line
and no report; a `--p` with a `--ring` other than f_p goes through the
parser, and so does a `--probe` with `--ring f_p` or `q`, since the probe
solves over Z or Z>=0. A file that cannot be read or written (a missing
group file, a directory given as a path, an `--out` or `--export-*` path
in a missing directory) exits 3 with one stderr line and no report, the
report's own file included. Input refused for size exits 4, likewise: a
group or orbit too large to enumerate (refused on its declared order, or
else its stabilizer chain's, before any element is built), an sp case past
the orbit cap or certify.SP_FAMILY_BIT_CAP, a linear system past
linsys.DENSE_CELL_CAP cells (systems are stored by column; the Z solver and
`--export-system` densify, and the packed odd-p rows and the sparse Q and
Z>=0 rows can fill in that far; F_2's one-bit rows are not capped), or a
`search-sharp` whose packed exact-cover table, |G| x N^2 fields, would pass
that cap (checked on |G| before enumeration). So does a computed report
holding an int past Python's int-to-str limit, with nothing on stdout. One
rule, linsys.check_run_cap, names a linsys run's first capped step and
checks its [A | b] wherever the system's size is first known, with the line
that step prints: a full system's N^2 x (|G| + 1) on the order before
enumeration, the columns --fpf or --pin-identity keep before any is built,
and an unrestricted --subgroup collapse on its least shape, ceil(N^2/|H|) x
(ceil(|G|/|H|) + 1), before either group is enumerated, so a file both too
large and not a subgroup exits 4, not 2. The quadric's polarization is
checked on every pair of an F_2-basis, complete because both sides are
biadditive, and generator permutations are read off packed one-bit images,
so sp (5,2) and (3,4) run in about a second.
A failed `selftest` check carries an `error` field and makes the run exit 1.
Random probes take their seed from `--probe`; there is no `--seed` flag.
A run builds only the argparse parsers of the command it names. `verify`
hands what it parsed, less `--out`, to certify.run_case, whose runners
take the flags' dests as keywords and write the `--export-*` files.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
import time

from . import certify, designs, linsys, sharp_search
from .perm import GroupFileError, GroupTooLarge, enumerate_group, expect, induced_action, load_group


def _write_report(report: dict, out_path: str | None) -> None:
    try:
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    except ValueError as exc:  # a computed int too long to print; nothing is written
        raise GroupTooLarge(f"the report holds an int past Python's {sys.get_int_max_str_digits()}-digit limit for printing") from exc
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def probe(text: str) -> dict[str, int]:
    """keep=N,trials=M,seed=S; argparse turns a ValueError here into exit 2."""
    opts = {key: int(value) for key, value in (part.split("=") for part in text.split(","))}
    if not opts.keys() <= {"keep", "trials", "seed"} or min(opts.get("keep", 1), opts.get("trials", 1)) < 1:
        raise ValueError(f"unknown option, or keep or trials below 1, in {text!r}")
    return opts


def prime(text: str) -> int:
    """A prime for --ring f_p; argparse turns a ValueError here into exit 2.

    A p from linsys.PRIME_BOUND up passes, and `linsys` refuses it as bad input.
    """
    p = int(text)
    if p < linsys.PRIME_BOUND and not linsys.is_prime(p):
        raise ValueError(f"{p} is not prime")
    return p


# name -> (help, its arguments after --out), or (help, a table of its own commands) for verify: dests = runner keywords
CASES = {
    "sp": ("symplectic groups in even characteristic",
           ("--n", dict(type=int, required=True, help="half-dimension, at least 2")),
           ("--q", dict(type=int, required=True, help="field size, a power of 2")),
           ("--modulus", dict(type=int, help="field polynomial bitmask override")),
           ("--action", dict(choices=["projective", "vector"], default="projective")),
           ("--enumerate-group", dict(action="store_true", dest="enumerate_group_flag"))),
    "m22": ("degree-22 point stabilizer of the Witt design",
            ("--group", dict(dest="group_file", metavar="GROUP", help="generator file; switches to enumerated mode")),
            ("--enumerated", dict(action="store_true", help="enumerated mode with the derived generators")),
            ("--export-design", dict(help="write the Witt design to this path"))),
    "mclaughlin": ("automorphisms of the 275-vertex graph", ("--export-graph", dict(help="write the graph to this path"))),
    "alt": ("alternating group on ordered pairs", ("--n", dict(type=int, required=True))),
    "m23": ("degree-23 reduction to the m22 case",),
}
COMMANDS = {
    "verify": ("run a nonexistence case", CASES),
    "design-check": ("symmetric-design stabilizer arithmetic",
                     ("--v", dict(type=int, required=True)), ("--k", dict(type=int, required=True)),
                     ("--lambda", dict(type=int, required=True, dest="lam"))),
    "search-sharp": ("exact-cover search for a sharply transitive set",
                     ("--group", dict(required=True, help="group generator file")),
                     ("--t", dict(type=int, default=1)),
                     ("--budget", dict(type=int, default=sharp_search.DEFAULT_BUDGET))),
    "linsys": ("build and solve the linear system of an action",
               ("--group", dict(required=True, help="group generator file")),
               ("--t", dict(type=int, default=1, help="re-express on t-arrangements first")),
               ("--subgroup", dict(help="collapse by this subgroup's orbits and classes")),
               ("--ring", dict(choices=["f_p", "q", "z", "znn"], required=True)),
               ("--p", dict(type=prime, help="prime for --ring f_p")),
               ("--fpf", dict(action="store_true", help="keep identity and fixed-point-free columns only")),
               ("--pin-identity", dict(action="store_true", dest="pin_identity")),
               ("--probe", dict(type=probe, help="keep=N,trials=M,seed=S random restriction probe")),
               ("--export-system", dict(help="dump the matrix to this path"))),
    "selftest": ("run the built-in invariant corpus",),
}


def _build_parser(argv, parser=None, dest="command", table=COMMANDS) -> argparse.ArgumentParser:
    """The parsers argv's command needs (for verify, its case's), or every one when argv names none."""
    parser = parser or argparse.ArgumentParser(prog="sharpsets")
    names = argv[:1] if argv and argv[0] in table else list(table)
    # one command built: the metavar keeps every name in the usage; all built: argparse lists them, errors name dest
    metavar = None if len(names) == len(table) else "{" + ",".join(table) + "}"
    sub = parser.add_subparsers(dest=dest, required=True, metavar=metavar)
    for name in names:
        help_text, *spec = table[name]
        child = sub.add_parser(name, help=help_text)
        if spec and isinstance(spec[0], dict):
            _build_parser(argv[1:], child, "case", spec[0])
            continue
        for flag, kwargs in (("--out", dict(help="write the JSON report here instead of stdout")), *spec):
            child.add_argument(flag, **kwargs)
    return parser


def main(argv=None) -> int:
    parser = _build_parser(sys.argv[1:] if argv is None else argv)
    args = parser.parse_args(argv)
    if args.command == "linsys" and args.ring == "f_p" and args.p is None:
        parser.error("--ring f_p needs --p")
    if args.command == "linsys" and args.ring != "f_p" and args.p is not None:
        parser.error(f"--p is for --ring f_p only, not --ring {args.ring}")
    if args.command == "linsys" and args.probe and args.ring not in ("z", "znn"):
        parser.error(f"--probe solves over Z or Z>=0: it needs --ring z or znn, not --ring {args.ring}")
    commands = {
        "verify": _cmd_verify,
        "design-check": _cmd_design_check,
        "search-sharp": _cmd_search,
        "linsys": _cmd_linsys,
        "selftest": _cmd_selftest,
    }
    t0 = time.perf_counter()
    try:
        report = commands[args.command](args)
        report["elapsed_ms"] = (time.perf_counter() - t0) * 1e3
        _write_report(report, args.out)
    except GroupFileError as exc:
        print(f"malformed group file: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:  # every input check raises one
        print(f"bad input: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return 3
    except GroupTooLarge as exc:
        print(f"refused for size: {exc}", file=sys.stderr)
        return 4
    if args.command == "search-sharp":  # only once the report is written, so a file error stays one line
        print(_search_summary(report), file=sys.stderr)
    if report.get("case") == "selftest" and report["conclusion"] != "ok":
        return 1
    return 0


def _cmd_verify(args) -> dict:
    options = {key: value for key, value in vars(args).items() if key not in ("command", "case", "out")}
    return certify.run_case(args.case, **options).as_dict()


def _cmd_design_check(args) -> dict:
    params = designs.SymmetricDesignParams(args.v, args.k, args.lam)
    return {"case": "design-check", **designs.symmetric_design_refutation(params).as_dict()}


def _cmd_search(args) -> dict:
    spec = load_group(args.group)
    order, G = _order(spec)
    sharp_search.check_cover_cap(order, spec.degree, args.t)  # the cap refuses before any element is listed
    result = sharp_search.find_sharp_set(induced_action(G or enumerate_group(spec), args.t)[1], 1, args.budget)
    return {
        "case": "search-sharp",
        "group": spec.name,
        "status": result.status,
        "t": args.t,
        "witness": list(result.sharp_set.element_indices) if result.sharp_set else None,
        "nodes": result.nodes,
    }


def _order(spec):
    """(|G|, None) from the file's order line, with nothing built; else (|G|, G), G enumerated from its stabilizer chain,
    whose order it is, and handed on so that the chain is built once. No element is listed either way."""
    if spec.declared_order is not None:
        return spec.declared_order, None
    G = enumerate_group(spec)
    return G.order, G


def _search_summary(report: dict) -> str:
    """The stderr line of a search-sharp run: the witness indices, or why there are none."""
    if report["witness"] is not None:
        return " ".join(map(str, report["witness"]))
    return "NONE (exhaustive)" if report["status"] == sharp_search.NONE_EXHAUSTIVE else "UNKNOWN (budget)"


def _cmd_linsys(args) -> dict:
    if args.ring == "f_p":
        linsys.is_prime(args.p)  # a p past linsys.PRIME_BOUND is refused before any work

    def check_cap(rows: int, cols: int) -> None:
        linsys.check_run_cap(rows, cols, args.ring, args.p, bool(args.export_system), bool(args.probe))

    spec, sub = load_group(args.group), args.subgroup and load_group(args.subgroup)
    restrict, (order, G), (h, H) = args.fpf or args.pin_identity, _order(spec), _order(sub) if sub else (1, None)
    if not restrict:  # the full system, or a collapse: an H-orbit of pairs or an H-class holds at most |H| members
        check_cap(-(-math.perm(spec.degree, max(args.t, 0)) ** 2 // h), -(-order // h))
    G = induced_action(G or enumerate_group(spec), args.t)[1]  # the points' chain order, each level induced
    if sub:
        H = induced_action(H or enumerate_group(sub), args.t)[1]
        system = linsys.build_H_system(G, H)
        if restrict:  # the kept classes are known only once the collapse is built
            system = linsys.restrict_to_fpf(system, pin_identity=args.pin_identity)
    else:
        elements = G.elements
        if restrict:
            elements = [elements[k] for k in linsys.fpf_columns(elements, args.pin_identity)]
        check_cap(G.degree**2, len(elements))  # on the kept columns, before any is built
        system = linsys.build_full_system(elements, G.degree)
        if args.pin_identity:  # the identity's column, left out, held a 1 in each row (x, x)
            system.rhs[:: G.degree + 1] = [0] * G.degree
    if args.export_system:
        linsys.dump_system(system, args.export_system)
    if args.probe:
        opts = {"keep": system.cols, "trials": 1, "seed": 0, **args.probe}
        outcome = linsys.random_restriction_probe(system, **opts, nonneg=args.ring == "znn")
    elif args.ring == "f_p":
        outcome = linsys.solve_mod_p(system, args.p)
    else:
        solve = {"q": linsys.solve_rational, "z": linsys.solve_integer, "znn": linsys.solve_nonneg_integer}[args.ring]
        outcome = solve(system)
    shape = {"case": "linsys", "ring": args.ring, "p": args.p, "rows": system.rows, "cols": system.cols}
    return {**shape, **outcome.as_dict()}


def _cmd_selftest(args) -> dict:
    checks = []

    def run(name, fn):
        try:
            fn()
            checks.append({"name": name, "ok": True})
        except Exception as exc:
            checks.append({"name": name, "ok": False, "error": f"{type(exc).__name__}: {exc}"})

    from . import geometry, gf
    from .perm import GroupSpec, check_group_axioms, cycle_parity, enumeration_from_elements, from_cycles, parity

    def field_axioms():
        for m in (1, 2, 3):
            F = gf.FieldSpec(m, gf.default_modulus(m))
            for a in F.elements():
                for b in F.elements():
                    expect(gf.mul(F, a, b) == gf.mul(F, b, a), f"GF({F.q}): {a}*{b} != {b}*{a}")
                    if a:
                        expect(gf.mul(F, a, gf.inv(F, a)) == 1, f"GF({F.q}): {a} * inv({a}) != 1")

    def parity_vs_cycles():
        for g in itertools.permutations(range(5)):
            expect(parity(g) == cycle_parity(g), f"parity of {g}")

    def group_axioms():
        s4 = enumerate_group(GroupSpec(4, (from_cycles(4, (0, 1)), from_cycles(4, (0, 1, 2, 3))), "S4"))
        check_group_axioms(s4)

    def witt():
        d = designs.golay_witt_design()
        expect(d.b == 253 and designs.steiner_check(d), "not a Steiner system S(4,7,23) with 253 blocks")

    def complement_certificate_premise():
        d = designs.golay_witt_design()
        avoiding = designs.blocks_avoiding(d, 22)
        b0 = avoiding[0]
        expect({7 - (b0 & other).bit_count() for other in avoiding} == {0, 4, 6}, "|B & C'| sizes")

    def stabilizer_search_agrees_with_counting():
        blocks = [frozenset({i % 7, (1 + i) % 7, (3 + i) % 7}) for i in range(7)]
        block_set = set(blocks)
        auts = [
            p
            for p in itertools.permutations(range(7))
            if all(frozenset(p[x] for x in b) in block_set for b in blocks)
        ]
        stab = sorted(p[:6] for p in auts if p[6] == 6)
        enum = enumeration_from_elements(6, stab, "fano-stab")
        expect(sharp_search.find_sharp_set(enum, 1).status == sharp_search.NONE_EXHAUSTIVE, "the search found a set")
        trace = designs.symmetric_design_refutation(designs.SymmetricDesignParams(7, 3, 1))
        expect(trace.conclusion == "refuted", f"counting conclusion {trace.conclusion}")

    def pentagon():
        g = designs.Graph(5, tuple(sum(1 << j for j in ((i + 1) % 5, (i - 1) % 5)) for i in range(5)))
        expect(designs.srg_check(g, (5, 2, 0, 1)).ok, "the pentagon is not srg(5,2,0,1)")

    def quadric():
        space = geometry.symplectic_space(2, gf.field_for_q(2))
        expect(geometry.elliptic_quadric(space).projective_size == 5, "not 5 points")

    def doublecount():
        c5 = enumerate_group(GroupSpec(5, (from_cycles(5, (0, 1, 2, 3, 4)),), "C5"))
        rep = certify.doublecount_check(c5.elements, 0b10101, 0b00111)
        expect(rep.sharply_transitive and rep.equal, f"{rep}")

    def solver_ladder():
        c5 = enumerate_group(GroupSpec(5, (from_cycles(5, (0, 1, 2, 3, 4)),), "C5"))
        full = linsys.build_full_system(c5.elements)
        expect(linsys.solve_nonneg_integer(full).status == "solvable", "Z>=0: no solution")
        expect(linsys.solve_integer(full).status == "solvable", "Z: no solution")
        expect(linsys.solve_rational(full).status == "solvable", "Q: no solution")
        expect(linsys.solve_mod_p(full, 2).status == "solvable", "F_2: no solution")

    run("field-axioms", field_axioms)
    run("parity-vs-cycle-type", parity_vs_cycles)
    run("group-axioms-s4", group_axioms)
    run("witt-design", witt)
    run("complement-certificate-premise", complement_certificate_premise)
    run("stabilizer-search-vs-counting", stabilizer_search_agrees_with_counting)
    run("srg-pentagon", pentagon)
    run("elliptic-quadric-(2,2)", quadric)
    run("doublecount-c5", doublecount)
    run("solver-ladder-c5", solver_ladder)
    return {
        "case": "selftest",
        "checks": checks,
        "conclusion": "ok" if all(c["ok"] for c in checks) else "fail",
    }


if __name__ == "__main__":
    raise SystemExit(main())
