import json

import jsonschema
import pytest
from conftest import shipped_group_path

from sharpsets import designs
from sharpsets.cli import main


def load_schema():
    from importlib import resources

    with resources.files("sharpsets").joinpath("report_schema.json").open() as fh:
        return json.load(fh)


SCHEMA = load_schema()


def run_cli(tmp_path, *argv):
    out = tmp_path / "report.json"
    code = main([*argv, "--out", str(out)])
    report = json.loads(out.read_text()) if out.exists() else None
    return code, report


def test_verify_alt_refuted(tmp_path):
    code, report = run_cli(tmp_path, "verify", "alt", "--n", "6")
    assert code == 0
    assert report["conclusion"] == "refuted"
    jsonschema.validate(report, SCHEMA)


def test_verify_alt_gate_still_exits_zero(tmp_path):
    code, report = run_cli(tmp_path, "verify", "alt", "--n", "5")
    assert code == 0
    assert report["conclusion"] == "hypothesis-not-met"
    jsonschema.validate(report, SCHEMA)


def test_design_check_report(tmp_path):
    code, report = run_cli(tmp_path, "design-check", "--v", "7", "--k", "3", "--lambda", "1")
    assert code == 0
    assert report["conclusion"] == "refuted"
    assert report["steps"][0]["ok"] is False
    jsonschema.validate(report, SCHEMA)


def test_design_check_trivial(tmp_path):
    code, report = run_cli(tmp_path, "design-check", "--v", "4", "--k", "3", "--lambda", "2")
    assert code == 0
    assert report["conclusion"] == "trivial-inapplicable"
    jsonschema.validate(report, SCHEMA)


def test_search_sharp_report(tmp_path):
    code, report = run_cli(tmp_path, "search-sharp", "--group", str(shipped_group_path("c5")), "--t", "1")
    assert code == 0
    assert report["status"] == "found"
    assert report["witness"] == [0, 1, 2, 3, 4]
    jsonschema.validate(report, SCHEMA)


def test_search_summary_follows_the_written_report(tmp_path, capsys):
    trivial = tmp_path / "one.grp"
    trivial.write_text("n 2\n0 1\n")
    for group, summary in ((shipped_group_path("c5"), "0 1 2 3 4"), (trivial, "NONE (exhaustive)")):
        code, report = run_cli(tmp_path, "search-sharp", "--group", str(group))
        out, err = capsys.readouterr()
        assert code == 0 and report["status"] in ("found", "none-exhaustive")
        assert out == "" and err == summary + "\n"


def test_linsys_report(tmp_path):
    code, report = run_cli(tmp_path, "linsys", "--group", str(shipped_group_path("c5")), "--ring", "z")
    assert code == 0
    assert report["status"] == "solvable"
    assert report["witness"] == [1, 1, 1, 1, 1]
    jsonschema.validate(report, SCHEMA)


def test_linsys_fp_needs_p(tmp_path):
    with pytest.raises(SystemExit):
        main(["linsys", "--group", str(shipped_group_path("c5")), "--ring", "f_p"])


def test_linsys_probe_and_export(tmp_path):
    export = tmp_path / "system.txt"
    code, report = run_cli(
        tmp_path,
        "linsys",
        "--group",
        str(shipped_group_path("c5")),
        "--ring",
        "z",
        "--probe",
        "keep=5,trials=3,seed=1",
        "--export-system",
        str(export),
    )
    assert code == 0
    assert report["status"] == "solvable"
    assert export.read_text().splitlines()[0] == "25 5"
    jsonschema.validate(report, SCHEMA)


def test_verify_m22_family_report(tmp_path):
    code, report = run_cli(tmp_path, "verify", "m22")
    assert code == 0
    assert report["conclusion"] == "refuted"
    assert report["B_size"] == 7 and report["C_size"] == 15 and report["p"] == 2
    assert set(report["spectrum"]) == {"0", "4", "6"}
    jsonschema.validate(report, SCHEMA)


def test_verify_mclaughlin_report_and_export(tmp_path):
    graph_path = tmp_path / "mcl.graph"
    code, report = run_cli(tmp_path, "verify", "mclaughlin", "--export-graph", str(graph_path))
    assert code == 0
    assert report["conclusion"] == "refuted"
    assert graph_path.read_text().splitlines()[0] == "275"
    jsonschema.validate(report, SCHEMA)


def test_verify_sp_report(tmp_path):
    code, report = run_cli(tmp_path, "verify", "sp", "--n", "2", "--q", "2")
    assert code == 0
    assert report["conclusion"] == "refuted"
    assert set(report["spectrum"]) <= {"0", "2"}
    jsonschema.validate(report, SCHEMA)


def test_verify_m23_report(tmp_path):
    code, report = run_cli(tmp_path, "verify", "m23")
    assert code == 0
    assert report["mode"] == "reduction"
    jsonschema.validate(report, SCHEMA)


def test_selftest_ok(tmp_path):
    code, report = run_cli(tmp_path, "selftest")
    assert code == 0
    assert report["conclusion"] == "ok"
    jsonschema.validate(report, SCHEMA)


def test_cli_import_leaves_numpy_out():
    # no module of the package needs numpy, so the command line never pays for importing it
    import os
    import subprocess
    import sys
    from pathlib import Path

    import sharpsets

    src = str(Path(sharpsets.__file__).resolve().parents[1])
    script = "import sys\nimport sharpsets.cli\nsys.exit('numpy' in sys.modules)\n"
    proc = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0


def test_selftest_fails_under_python_O(tmp_path):
    # with multiplication in GF(2^m) broken, and the Golay code's idempotent
    # (built over GF(2) alone) summed over the wrong exponents, the checks must
    # fail with a reason even though python -O strips every assert
    import os
    import subprocess
    import sys
    from pathlib import Path

    import sharpsets

    out = tmp_path / "selftest.json"
    script = (
        "import sys\n"
        "from sharpsets import cli, designs, gf\n"
        "if __debug__:\n    sys.exit('expected to run under python -O')\n"
        "gf.mul = lambda F, a, b: 0\n"
        "designs.QUADRATIC_RESIDUES_23 = tuple(range(1, 12))\n"
        f"sys.exit(cli.main(['selftest', '--out', {str(out)!r}]))\n"
    )
    src = str(Path(sharpsets.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 1
    report = json.loads(out.read_text())
    jsonschema.validate(report, SCHEMA)
    assert report["conclusion"] == "fail"
    failed = {c["name"]: c["error"] for c in report["checks"] if not c["ok"]}
    assert set(failed) == {"field-axioms", "witt-design", "complement-certificate-premise", "elliptic-quadric-(2,2)"}
    assert all(error.startswith("InvariantViolation: ") for error in failed.values())
    assert all("error" not in c for c in report["checks"] if c["ok"])


def test_missing_group_file_exit_3(tmp_path, capsys):
    code = main(["search-sharp", "--group", str(tmp_path / "nope.grp"), "--t", "1"])
    assert code == 3


@pytest.mark.parametrize(
    "case", ["group-is-a-directory", "export-is-a-directory", "out-in-a-missing-directory", "search-out-in-a-missing-directory"]
)
def test_unusable_file_exit_3(tmp_path, capsys, case):
    # the last two cases fail only after the whole run, when the report is
    # written; the search prints no summary line for a report it could not write
    c5 = str(shipped_group_path("c5"))
    argv = {
        "group-is-a-directory": ["search-sharp", "--group", str(tmp_path)],
        "export-is-a-directory": ["linsys", "--group", c5, "--ring", "q", "--export-system", str(tmp_path)],
        "out-in-a-missing-directory": ["linsys", "--group", c5, "--ring", "q", "--out", str(tmp_path / "no" / "r.json")],
        "search-out-in-a-missing-directory": ["search-sharp", "--group", c5, "--out", str(tmp_path / "no" / "r.json")],
    }[case]
    assert main(argv) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("file error: ") and err.count("\n") == 1, err


def test_bad_flags_exit_2(tmp_path, capsys):
    c5 = str(shipped_group_path("c5"))
    for argv in (
        ["verify", "alt", "--bogus"],
        ["linsys", "--group", c5, "--ring", "f_p"],
        ["linsys", "--group", c5, "--ring", "f_p", "--p", "4"],
        ["linsys", "--group", c5, "--ring", "f_p", "--p", "1"],
        ["linsys", "--group", c5, "--ring", "z", "--probe", "keep"],
        ["linsys", "--group", c5, "--ring", "z", "--probe", "keep=x"],
        ["linsys", "--group", c5, "--ring", "q", "--p", "7"],
        ["linsys", "--group", c5, "--ring", "z", "--p", "7"],
        ["linsys", "--group", c5, "--ring", "znn", "--p", "618970019642690137449562111"],
        ["linsys", "--group", c5, "--ring", "f_p", "--p", "3", "--probe", "keep=3,trials=2"],
        ["linsys", "--group", c5, "--ring", "q", "--probe", "keep=3,trials=2"],
        ["linsys", "--group", c5, "--ring", "z", "--probe", "trials=-3"],
        ["linsys", "--group", c5, "--ring", "znn", "--probe", "keep=3,trials=0"],
        ["linsys", "--group", c5, "--ring", "z", "--probe", "keep=-1"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
    capsys.readouterr()
    # malformed group files: wrong length, a non-integer token, a non-permutation
    for i, text in enumerate(("n 3\n0 1\n", "n 3\n0 x 2\n", "n 3\n0 0 1\n")):
        bad = tmp_path / f"bad{i}.grp"
        bad.write_text(text)
        for argv in (
            ["search-sharp", "--group", str(bad)],
            ["linsys", "--group", str(bad), "--ring", "z"],
            ["linsys", "--group", c5, "--subgroup", str(bad), "--ring", "z"],
            ["verify", "m22", "--group", str(bad)],
        ):
            code, report = run_cli(tmp_path, *argv)
            assert (code, report) == (2, None), argv
            err = capsys.readouterr().err
            assert err.startswith("malformed group file:") and err.count("\n") == 1, err
    # a group file whose order line disagrees with its generator is malformed too, named by its path
    order_mismatch = tmp_path / "order.grp"
    order_mismatch.write_text("n 3\norder 4\n1 2 0\n")
    code, report = run_cli(tmp_path, "search-sharp", "--group", str(order_mismatch))
    assert (code, report) == (2, None)
    assert capsys.readouterr().err == f"malformed group file: {order_mismatch}: declared order 4, enumerated 3\n"
    # values that parse but are out of range
    for argv in (
        ["verify", "sp", "--n", "2", "--q", "3"],
        ["verify", "sp", "--n", "1", "--q", "2"],
        ["verify", "sp", "--n", "2", "--q", "4", "--modulus", "5"],
        ["verify", "sp", "--n", "2", "--q", "4", "--modulus", "-7"],  # read as irreducible of degree 2 by bit_length
        ["verify", "sp", "--n", "2", "--q", "8", "--modulus", "-9"],  # poly_mod(-9, 3) cycled between -3 and -2
        ["linsys", "--group", c5, "--t", "9", "--ring", "z"],
        ["search-sharp", "--group", c5, "--t", "0"],
        ["search-sharp", "--group", c5, "--budget", "0"],
        ["search-sharp", "--group", c5, "--budget", "-1"],
        ["linsys", "--group", c5, "--t", "0", "--ring", "z"],
        ["design-check", "--v", "7", "--k", "3", "--lambda", "2"],
        ["verify", "alt", "--n", "2"],
    ):
        code, report = run_cli(tmp_path, *argv)
        assert (code, report) == (2, None), argv
        err = capsys.readouterr().err
        assert err.startswith("bad input:") and err.count("\n") == 1, err
    # q = 0 is refused on its exponent before a shift by -1 is tried
    assert run_cli(tmp_path, "verify", "sp", "--n", "2", "--q", "0") == (2, None)
    assert capsys.readouterr().err == "bad input: q must be a power of two >= 2, got 0\n"


def _exit(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    return (exc.value.code, *capsys.readouterr())


@pytest.mark.parametrize("columns", ["80", "40"])
def test_one_command_parser_prints_what_the_full_parser_prints(monkeypatch, capsys, columns):
    # a run builds only its command's parser; help, usage and every error must read as with all of them built
    from sharpsets import cli

    c5 = str(shipped_group_path("c5"))
    argvs = [
        ["-h"], [], ["bogus"], ["verify"], ["verify", "-h"], ["verify", "bogus"],
        *([command, "-h"] for command in cli.COMMANDS if command != "verify"),
        *(["verify", case, "-h"] for case in cli.CASES),
        ["verify", "alt", "--n", "5", "--bogus"], ["verify", "sp", "--action", "bogus"],
        ["design-check", "--v", "x"], ["search-sharp", "--budget", "1"],
        ["linsys", "--group", c5, "--ring", "bogus"], ["selftest", "--bogus"],
        # the three checks in main print the top-level usage, which must still list every command
        ["linsys", "--group", c5, "--ring", "f_p"],
        ["linsys", "--group", c5, "--ring", "q", "--p", "7"],
        ["linsys", "--group", c5, "--ring", "q", "--probe", "keep=3"],
    ]
    monkeypatch.setenv("COLUMNS", columns)
    alone = [_exit(argv, capsys) for argv in argvs]
    build = cli._build_parser
    monkeypatch.setattr(cli, "_build_parser", lambda argv, *nested: build([], *nested))
    full = [_exit(argv, capsys) for argv in argvs]
    for argv, got, want in zip(argvs, alone, full):
        assert got == want, argv
    assert [code for code, _, _ in full].count(0) == 11 and all(out or err for _, out, err in full)
    # with every parser built, argparse names the subparsers by their dest, so no metavar is set there
    assert [full[argvs.index(argv)][2].splitlines()[-1] for argv in ([], ["bogus"], ["verify"], ["verify", "bogus"])] == [
        "sharpsets: error: the following arguments are required: command",
        "sharpsets: error: argument command: invalid choice: 'bogus' "
        "(choose from 'verify', 'design-check', 'search-sharp', 'linsys', 'selftest')",
        "sharpsets verify: error: the following arguments are required: case",
        "sharpsets verify: error: argument case: invalid choice: 'bogus' (choose from 'sp', 'm22', 'mclaughlin', 'alt', 'm23')",
    ]


def test_a_run_builds_only_its_commands_parsers(tmp_path, monkeypatch):
    import argparse

    built = []
    init = argparse.ArgumentParser.__init__
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", lambda self, *a, **kw: built.append(self) or init(self, *a, **kw))
    for argv in (["verify", "alt", "--n", "5"], ["linsys", "--group", str(shipped_group_path("c5")), "--ring", "z"]):
        built.clear()
        assert run_cli(tmp_path, *argv)[0] == 0
        assert 1 <= len(built) <= 4, (argv, len(built))


def test_large_prime_is_decided_at_once_or_refused(tmp_path, capsys):
    c5 = str(shipped_group_path("c5"))
    code, report = run_cli(tmp_path, "linsys", "--group", c5, "--ring", "f_p", "--p", str(2**61 - 1))
    assert code == 0 and report["status"] == "solvable" and report["p"] == 2**61 - 1
    # past the bound where Miller-Rabin on the primes to 41 is exact: one bad-input line, no traceback
    (tmp_path / "report.json").unlink()
    code, report = run_cli(tmp_path, "linsys", "--group", c5, "--ring", "f_p", "--p", str(2**89 - 1))
    assert (code, report) == (2, None)
    err = capsys.readouterr().err
    assert err.startswith("bad input:") and err.count("\n") == 1, err


def test_group_too_large_is_refused_not_substituted(tmp_path, monkeypatch, capsys):
    # S22 contains the sharply transitive C22, so no report may say refuted
    from sharpsets import certify, perm

    s22 = tmp_path / "s22.grp"
    s22.write_text("n 22\n1 0 " + " ".join(map(str, range(2, 22))) + "\n" + " ".join(map(str, range(1, 22))) + " 0\n")
    monkeypatch.setattr(certify, "enumerate_group", lambda spec: perm.enumerate_group(spec, cap=5000))
    code, report = run_cli(tmp_path, "verify", "m22", "--group", str(s22))
    assert code == 4
    assert report is None
    err = capsys.readouterr().err
    assert err.startswith("refused for size") and "cap of 5000" in err and err.count("\n") == 1


def test_group_without_an_order_line_is_refused_on_its_chain(tmp_path, capsys):
    # at the default cap: the product of the levels' sizes of S22's stabilizer chain passes
    # 2,000,000 while it is built, so no element is listed (the enumerations used to list
    # 2,000,000 of them first)
    import time
    import tracemalloc

    s22 = tmp_path / "s22.grp"
    s22.write_text("n 22\n1 0 " + " ".join(map(str, range(2, 22))) + "\n" + " ".join(map(str, range(1, 22))) + " 0\n")
    start = time.perf_counter()
    tracemalloc.start()
    try:
        code, report = run_cli(tmp_path, "verify", "m22", "--group", str(s22))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, report) == (4, None)
    assert time.perf_counter() - start < 1 and peak < 4 * 2**20, peak
    assert capsys.readouterr().err == "refused for size: enumerating s22 passed the cap of 2000000 elements\n"


def test_wrong_degree_group_file_is_refused_before_enumerating(tmp_path, monkeypatch, capsys):
    from sharpsets import certify

    def enumerate_group(spec):
        raise AssertionError(f"enumerated {spec.name}, whose degree cannot carry the m22 certificate")

    monkeypatch.setattr(certify, "enumerate_group", enumerate_group)
    code, report = run_cli(tmp_path, "verify", "m22", "--group", str(shipped_group_path("s5")))
    assert (code, report) == (2, None)
    assert capsys.readouterr().err == "bad input: certificate domain 22 != group degree 5\n"


@pytest.mark.parametrize(
    "argv, declared",
    [
        (["verify", "alt", "--n", "14"], "A14 declares order 43589145600"),
        (["verify", "sp", "--n", "4", "--q", "2", "--enumerate-group"], "Sp(8,2)-projective declares order 47377612800"),
        (["verify", "alt", "--n", "1002"], "A1002 declares order 1002!/2"),
        (["verify", "alt", "--n", "2003"], "A2003 declares order 2003!/2"),  # n!/2 has more than 4300 digits
        (["verify", "alt", "--n", "1000002"], "A1000002 declares order 1000002!/2"),
        (["verify", "sp", "--n", "2", "--q", "4096"], "sp(4,4096) has 281474993487872 nonsingular lines"),
        (["verify", "sp", "--n", "4000", "--q", "2"], "sp(8000,2) has 2^7998(2^8000 - 1)/(2^2 - 1) nonsingular lines"),
    ],
)
def test_declared_order_past_the_cap_is_refused_before_enumerating(tmp_path, monkeypatch, capsys, argv, declared):
    import time

    from sharpsets import perm

    def arrangements(n, t):
        raise AssertionError(f"built the {t}-arrangements of {n} points for a group the cap refuses")

    monkeypatch.setattr(perm, "arrangements", arrangements)
    start = time.perf_counter()
    code, report = run_cli(tmp_path, *argv)
    assert (code, report) == (4, None)
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert err.startswith("refused for size: ") and declared in err and "cap of 2000000" in err, err
    assert err.count("\n") == 1, err


def test_search_past_the_cell_cap_is_refused(tmp_path, capsys):
    # the packed units of M22 at t=1 would hold 443,520 x 22^2 fields; refused before any is built
    import time

    m22 = str(shipped_group_path("m22"))
    start = time.perf_counter()
    code, report = run_cli(tmp_path, "search-sharp", "--group", m22, "--t", "1", "--budget", "30")
    assert (code, report) == (4, None)
    assert time.perf_counter() - start < 20
    err = capsys.readouterr().err
    assert err.startswith("refused for size") and "443520 x 484 exact-cover table" in err and err.count("\n") == 1, err


def test_search_cap_is_checked_before_enumeration(tmp_path, monkeypatch, capsys):
    # m22.grp declares order 443520, which is enough to refuse a t=1 search without the elements
    from sharpsets import cli

    def never(spec):
        raise AssertionError("enumerated a group the cap refuses")

    monkeypatch.setattr(cli, "enumerate_group", never)
    m22 = str(shipped_group_path("m22"))
    assert run_cli(tmp_path, "search-sharp", "--group", m22, "--t", "1") == (4, None)
    err = capsys.readouterr().err
    assert err == "refused for size: a 443520 x 484 exact-cover table passes the cap of 8388608 cells\n", err


def test_search_and_linsys_caps_use_the_chain_order_without_an_order_line(tmp_path, monkeypatch, capsys):
    # m22.grp without its order line: the stabilizer chain's order, 443,520, refuses
    # both runs with the lines the built table and system would give, before any element is listed
    from sharpsets import perm

    def never(G):
        raise AssertionError("listed a group the cap refuses")

    monkeypatch.setattr(perm.GroupEnumeration, "elements", property(never))
    unordered = tmp_path / "m22.grp"
    lines = shipped_group_path("m22").read_text().splitlines(True)
    unordered.write_text("".join(line for line in lines if not line.startswith("order")))
    for argv, line in (
        (["search-sharp", "--t", "1"], "a 443520 x 484 exact-cover table"),
        (["linsys", "--ring", "q"], "a 484 x 443521 rational elimination"),
    ):
        assert run_cli(tmp_path, argv[0], "--group", str(unordered), *argv[1:]) == (4, None), argv
        assert capsys.readouterr().err == f"refused for size: {line} passes the cap of 8388608 cells\n", argv


def test_linsys_takes_both_orders_before_enumerating_either(tmp_path, monkeypatch, capsys):
    # with --subgroup, --fpf or --pin-identity: S22 with no order line is refused on its chain, and a collapse
    # on its least shape, with the lines enumerating the files would give; a transposition group, not a
    # subgroup of M22 and too coarse a collapse, is refused for size (4), not as bad input (2); no element is
    # listed before the caps are checked
    from sharpsets import perm

    def never(G):
        raise AssertionError(f"listed {G.name} before the caps were checked")

    monkeypatch.setattr(perm.GroupEnumeration, "elements", property(never))
    s22, trivial, swap = tmp_path / "s22.grp", tmp_path / "trivial.grp", tmp_path / "swap.grp"
    s22.write_text("n 22\n1 0 " + " ".join(map(str, range(2, 22))) + "\n" + " ".join(map(str, range(1, 22))) + " 0\n")
    trivial.write_text(f"n 22\n{' '.join(map(str, range(22)))}\n")
    swap.write_text(f"n 22\n1 0 {' '.join(map(str, range(2, 22)))}\n")
    m22 = str(shipped_group_path("m22"))
    past_chain = "enumerating s22 passed the cap of 2000000 elements"
    for argv, line in (
        (["--group", m22, "--subgroup", str(s22), "--ring", "q"], past_chain),
        (["--group", str(s22), "--subgroup", m22, "--ring", "q", "--fpf"], past_chain),
        (["--group", str(s22), "--ring", "f_p", "--p", "3", "--fpf"], past_chain),
        (["--group", str(s22), "--ring", "q", "--pin-identity"], past_chain),
        (["--group", m22, "--subgroup", str(trivial), "--ring", "q"], "a 484 x 443521 rational elimination"),
        (["--group", m22, "--subgroup", str(swap), "--ring", "q"], "a 242 x 221761 rational elimination"),
    ):
        assert run_cli(tmp_path, "linsys", *argv) == (4, None), argv
        err = capsys.readouterr().err
        assert err.startswith(f"refused for size: {line}") and err.count("\n") == 1, (argv, err)


def test_a_group_file_with_no_order_line_builds_its_chain_once(tmp_path, monkeypatch):
    # the chain whose order the caps read is the one the command then enumerates: one stabilizer_chain call per
    # file, wherever the function is reachable from, and the reports of the files with their order lines
    import sys

    from sharpsets import perm

    chain, calls = perm.stabilizer_chain, []

    def counted(spec, *args, **kwargs):
        calls.append(spec.name)
        return chain(spec, *args, **kwargs)

    for module in [module for name, module in sys.modules.items() if name.startswith("sharpsets")]:
        if getattr(module, "stabilizer_chain", None) is chain:
            monkeypatch.setattr(module, "stabilizer_chain", counted)
    ordered = {name: shipped_group_path(name) for name in ("s5", "c5")}
    bare = {name: tmp_path / path.name for name, path in ordered.items()}
    for name, path in ordered.items():
        bare[name].write_text("".join(line for line in path.read_text().splitlines(True) if not line.startswith("order")))
    for argv, groups in (
        (["linsys", "--group", "{s5}", "--t", "2", "--ring", "q"], ["s5"]),
        (["linsys", "--group", "{s5}", "--subgroup", "{c5}", "--t", "2", "--ring", "q"], ["s5", "c5"]),
        (["search-sharp", "--group", "{s5}", "--t", "2"], ["s5"]),
    ):
        reports = []
        for files in (ordered, bare):
            calls.clear()
            code, report = run_cli(tmp_path, *(a.format_map(files) for a in argv))
            assert code == 0 and calls == groups, (argv, files, calls)
            reports.append({k: v for k, v in report.items() if k != "elapsed_ms"})
        assert reports[0] == reports[1], argv


def test_linsys_and_search_columns_follow_the_points_chain(tmp_path, monkeypatch):
    # each command enumerates the group on its points and induces the chain level
    # by level, so its columns and witness indices are those of the checker's
    # induced_action(enumerate_group(spec), t), whose order is the products
    # u_k ... u_1 of the points' stabilizer chain; cell_perm runs at most once
    # per transversal element
    import functools
    import itertools

    from sharpsets import linsys, perm, sharp_search

    def induced_points_chain(path, t):
        spec = perm.load_group(path)
        G = perm.enumerate_group(perm.GroupSpec(spec.degree, tuple(map(tuple, spec.generators)), spec.name))
        levels = [list(transversal.values()) for transversal in perm.stabilizer_chain(spec)]
        assert G.elements == [functools.reduce(perm.compose, reversed(us)) for us in itertools.product(*levels)]
        return perm.induced_action(G, t)[1], sum(map(len, levels))

    s5, c5 = str(shipped_group_path("s5")), str(shipped_group_path("c5"))
    (G, g_levels), (H, h_levels) = induced_points_chain(s5, 2), induced_points_chain(c5, 2)
    full = linsys.build_full_system(G.elements)
    expected = [
        (["--ring", "f_p", "--p", "3"], linsys.solve_mod_p(full, 3), g_levels),
        (["--ring", "q"], linsys.solve_rational(full), g_levels),
        (["--subgroup", c5, "--ring", "q"], linsys.solve_rational(linsys.build_H_system(G, H)), g_levels + h_levels),
        (["--fpf", "--ring", "f_p", "--p", "3"], linsys.solve_mod_p(linsys.restrict_to_fpf(full), 3), g_levels),
        (["--fpf", "--pin-identity", "--ring", "znn"],
         linsys.solve_nonneg_integer(linsys.restrict_to_fpf(full, pin_identity=True)), g_levels),
    ]
    found = sharp_search.find_sharp_set(G, 1)
    cell_perm, calls = perm.ArrangementAction.cell_perm, []

    def counted(action, g):
        calls.append(g)
        return cell_perm(action, g)

    monkeypatch.setattr(perm.ArrangementAction, "cell_perm", counted)
    for argv, outcome, levels in expected:
        calls.clear()
        code, report = run_cli(tmp_path, "linsys", "--group", s5, "--t", "2", *argv)
        assert code == 0 and {k: report[k] for k in ("status", "witness", "notes")} == outcome.as_dict(), argv
        assert len(calls) <= levels, argv
    assert any(o.witness for _, o, _ in expected) and g_levels == 5 + 4 + 3 + 2
    calls.clear()
    code, report = run_cli(tmp_path, "search-sharp", "--group", s5, "--t", "2")
    assert (code, report["t"], report["nodes"]) == (0, 2, found.nodes) and len(calls) <= g_levels
    assert report["witness"] == list(found.sharp_set.element_indices)
    assert sharp_search.verify_sharp_set(G, report["witness"])


def test_order_line_below_one_is_malformed(tmp_path, capsys):
    c5 = tmp_path / "c5.grp"
    for order in (0, -5):
        c5.write_text(f"n 5\norder {order}\n1 2 3 4 0\n")
        argv = ["linsys", "--group", str(shipped_group_path("s5")), "--subgroup", str(c5), "--ring", "q"]
        assert run_cli(tmp_path, *argv) == (2, None)
        assert capsys.readouterr().err == f"malformed group file: {c5}: order {order} is not positive\n"


@pytest.mark.parametrize(
    "argv, what",
    [
        (["--ring", "q"], "rational elimination"),
        (["--ring", "znn"], "rational elimination"),
        (["--ring", "f_p", "--p", "3"], "packed F_p elimination"),
        (["--ring", "z", "--export-system", "m22.sys"], "dense array"),
        (["--ring", "f_p", "--p", "2", "--export-system", "m22.sys"], "dense array"),
    ],
)
def test_linsys_cap_is_checked_before_enumeration(tmp_path, monkeypatch, capsys, argv, what):
    # m22.grp declares order 443520: its 484 x 443521 full system is refused without the elements
    from sharpsets import cli

    def never(spec):
        raise AssertionError("enumerated a group the cap refuses")

    monkeypatch.setattr(cli, "enumerate_group", never)
    argv = [str(tmp_path / a) if a.endswith(".sys") else a for a in argv]
    m22 = str(shipped_group_path("m22"))
    assert run_cli(tmp_path, "linsys", "--group", m22, *argv) == (4, None)
    err = capsys.readouterr().err
    assert err == f"refused for size: a 484 x 443521 {what} passes the cap of 8388608 cells\n", err
    assert not (tmp_path / "m22.sys").exists()


def test_linsys_early_refusal_is_the_capped_steps_own(tmp_path, monkeypatch, capsys):
    # with the order line (before enumeration) and without it (before the build),
    # the refusal is the line the solver or the export would print on the built system
    from sharpsets import linsys
    from sharpsets.perm import GroupTooLarge, enumerate_group, induced_action, load_group

    s5 = shipped_group_path("s5")
    _, pairs = induced_action(enumerate_group(load_group(s5)), 2)
    system = linsys.build_full_system(pairs.elements)
    unordered = tmp_path / "s5.grp"
    unordered.write_text("".join(line for line in s5.read_text().splitlines(True) if not line.startswith("order")))
    monkeypatch.setattr(linsys, "DENSE_CELL_CAP", 1000)
    out = str(tmp_path / "s5.sys")
    for argv, step in (
        (["--ring", "q"], linsys.solve_rational),
        (["--ring", "znn"], linsys.solve_nonneg_integer),
        (["--ring", "f_p", "--p", "5"], lambda s: linsys.solve_mod_p(s, 5)),
        (["--ring", "z", "--export-system", out], lambda s: linsys.dump_system(s, out)),
    ):
        with pytest.raises(GroupTooLarge) as refused:
            step(system)
        for group in (str(s5), str(unordered)):
            assert run_cli(tmp_path, "linsys", "--group", group, "--t", "2", *argv) == (4, None), argv
            assert capsys.readouterr().err == f"refused for size: {refused.value}\n", argv


def test_linsys_fpf_builds_only_the_columns_it_keeps(tmp_path, monkeypatch, capsys):
    # M22 keeps the identity and 173,040 fixed-point-free elements of 443,520:
    # the cap refuses the kept shape before a single column is built
    import functools

    from sharpsets import cli, linsys

    def never(elements, *_):
        raise AssertionError(f"built {len(elements)} columns of a system the cap refuses")

    monkeypatch.setattr(linsys, "build_full_system", never)
    monkeypatch.setattr(cli, "enumerate_group", functools.cache(cli.enumerate_group))
    m22 = str(shipped_group_path("m22"))
    for argv, line in (
        (["--ring", "q", "--fpf"], "a 484 x 173042 rational elimination"),
        (["--ring", "f_p", "--p", "3", "--pin-identity"], "a 484 x 173041 packed F_p elimination"),
    ):
        assert run_cli(tmp_path, "linsys", "--group", m22, *argv) == (4, None), argv
        assert capsys.readouterr().err == f"refused for size: {line} passes the cap of 8388608 cells\n", argv


def test_linsys_fpf_filters_the_full_system_once(tmp_path, monkeypatch):
    # the full path keeps its columns before the build and pins the identity on
    # the right side, so restrict_to_fpf never runs on it; the exported system
    # is the one restrict_to_fpf makes of the whole, also with no column left
    from sharpsets import linsys
    from sharpsets.perm import enumerate_group, induced_action, load_group

    restrict_to_fpf = linsys.restrict_to_fpf
    fixes_0 = tmp_path / "fixes0.grp"
    fixes_0.write_text("n 3\norder 2\n0 2 1\n")

    def refiltered(system, pin_identity=False):
        raise AssertionError("the full system's columns were filtered twice")

    monkeypatch.setattr(linsys, "restrict_to_fpf", refiltered)
    for group, t in ((shipped_group_path("c5"), 1), (shipped_group_path("s5"), 2), (fixes_0, 1)):
        _, G = induced_action(enumerate_group(load_group(group)), t)
        for flags in (["--fpf"], ["--pin-identity"], ["--fpf", "--pin-identity"]):
            want, got = tmp_path / "want.sys", tmp_path / "got.sys"
            pin = "--pin-identity" in flags
            linsys.dump_system(restrict_to_fpf(linsys.build_full_system(G.elements), pin_identity=pin), want)
            argv = ["linsys", "--group", str(group), "--t", str(t), "--ring", "q", *flags, "--export-system", str(got)]
            assert run_cli(tmp_path, *argv)[0] == 0, argv
            assert got.read_text() == want.read_text(), argv


def test_linsys_refuses_early_only_on_the_full_system(tmp_path, monkeypatch):
    # Z and F_2 keep their own path (the mod-2 prescreen may answer Z; F_2 is
    # not capped), and a collapsed, restricted or probed system has another shape
    from sharpsets import cli

    class Enumerated(Exception):
        pass

    def enumerated(spec):
        raise Enumerated

    monkeypatch.setattr(cli, "enumerate_group", enumerated)
    m22 = str(shipped_group_path("m22"))
    for argv in (
        ["--ring", "z"],
        ["--ring", "f_p", "--p", "2"],
        ["--ring", "q", "--subgroup", m22],
        ["--ring", "q", "--fpf"],
        ["--ring", "f_p", "--p", "3", "--pin-identity"],
        ["--ring", "znn", "--probe", "keep=3"],
    ):
        with pytest.raises(Enumerated):
            main(["linsys", "--group", m22, *argv, "--out", str(tmp_path / "report.json")])


def test_linsys_refuses_a_collapse_on_its_least_shape(tmp_path, monkeypatch, capsys):
    # collapsed by the trivial subgroup, M22 keeps all 484 orbits and 443,520
    # classes: the cap refuses that shape before the collapse is built
    import functools

    from sharpsets import cli, linsys

    def never(G, H):
        raise AssertionError(f"built the collapse of {G.order} elements the cap refuses")

    monkeypatch.setattr(linsys, "build_H_system", never)
    monkeypatch.setattr(cli, "enumerate_group", functools.cache(cli.enumerate_group))
    trivial = tmp_path / "trivial.grp"
    trivial.write_text(f"n 22\n{' '.join(map(str, range(22)))}\n")
    m22 = str(shipped_group_path("m22"))
    for argv, what in (
        (["--ring", "q"], "rational elimination"),
        (["--ring", "znn"], "rational elimination"),
        (["--ring", "f_p", "--p", "3"], "packed F_p elimination"),
        (["--ring", "z", "--export-system", str(tmp_path / "m22.sys")], "dense array"),
    ):
        assert run_cli(tmp_path, "linsys", "--group", m22, "--subgroup", str(trivial), *argv) == (4, None), argv
        err = capsys.readouterr().err
        assert err == f"refused for size: a 484 x 443521 {what} passes the cap of 8388608 cells\n", argv
    assert not (tmp_path / "m22.sys").exists()


def test_linsys_collapse_refusal_is_the_capped_steps_own(tmp_path, monkeypatch, capsys):
    # on a trivial subgroup the least shape is the collapse's own, so the line is
    # the one the solver or the export prints on it; Z, F_2, a probe and --fpf
    # have no early check and build the collapse as before
    from sharpsets import linsys
    from sharpsets.perm import GroupTooLarge, enumerate_group, induced_action, load_group

    s5 = shipped_group_path("s5")
    trivial = tmp_path / "trivial.grp"
    trivial.write_text("n 5\n0 1 2 3 4\n")
    _, pairs = induced_action(enumerate_group(load_group(s5)), 2)
    _, one = induced_action(enumerate_group(load_group(trivial)), 2)
    system = linsys.build_H_system(pairs, one)
    build_H_system, built = linsys.build_H_system, []

    def counted(G, H):
        built.append(H.order)
        return build_H_system(G, H)

    monkeypatch.setattr(linsys, "build_H_system", counted)
    monkeypatch.setattr(linsys, "DENSE_CELL_CAP", 1000)
    out = str(tmp_path / "s5.sys")
    collapse = ["linsys", "--group", str(s5), "--t", "2", "--subgroup", str(trivial)]
    for argv, step in (
        (["--ring", "q"], linsys.solve_rational),
        (["--ring", "znn"], linsys.solve_nonneg_integer),
        (["--ring", "f_p", "--p", "5"], lambda s: linsys.solve_mod_p(s, 5)),
        (["--ring", "z", "--export-system", out], lambda s: linsys.dump_system(s, out)),
    ):
        with pytest.raises(GroupTooLarge) as refused:
            step(system)
        assert run_cli(tmp_path, *collapse, *argv) == (4, None), argv
        assert capsys.readouterr().err == f"refused for size: {refused.value}\n", argv
    assert built == []
    for argv in (
        ["--ring", "z"],
        ["--ring", "f_p", "--p", "2"],
        ["--ring", "znn", "--probe", "keep=3"],
        ["--ring", "q", "--fpf"],
    ):
        run_cli(tmp_path, *collapse, *argv)
        assert built == [1], argv
        built.clear()


def test_dense_cap_refuses_before_allocating(tmp_path, monkeypatch, capsys):
    # only the solvers that eliminate by rows, and the export, densify; F_2 works on the columns
    from sharpsets import linsys

    monkeypatch.setattr(linsys, "DENSE_CELL_CAP", 100)
    c5 = str(shipped_group_path("c5"))
    for argv in (
        ["--ring", "q"],
        ["--ring", "znn"],
        ["--ring", "z"],
        ["--ring", "f_p", "--p", "3"],
        ["--ring", "f_p", "--p", "2", "--export-system", str(tmp_path / "c5.sys")],
    ):
        code, report = run_cli(tmp_path, "linsys", "--group", c5, *argv)
        assert (code, report) == (4, None), argv
        err = capsys.readouterr().err
        assert err.startswith("refused for size") and "cap of 100 cells" in err and err.count("\n") == 1, err
    code, report = run_cli(tmp_path, "linsys", "--group", c5, "--ring", "f_p", "--p", "2")
    assert code == 0 and report["status"] == "solvable"


def test_sp_past_the_orbit_cap_is_refused_at_once(tmp_path, capsys):
    import time

    for n, q in ((7, 2), (2, 64)):
        start = time.perf_counter()
        code, report = run_cli(tmp_path, "verify", "sp", "--n", str(n), "--q", str(q))
        assert (code, report) == (4, None)
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert err.startswith("refused for size") and "nonsingular lines" in err


def test_sp_family_too_large_to_hold_is_refused_before_the_space(tmp_path, monkeypatch, capsys):
    # sp (2,32): 1,049,600 lines on 33,825 points, about 4.4 GB of projective members, more for the vector lift
    import time

    from sharpsets import geometry

    def built(*args):
        raise AssertionError("the space was built")

    monkeypatch.setattr(geometry, "symplectic_space", built)
    for action in ("projective", "vector"):
        start = time.perf_counter()
        code, report = run_cli(tmp_path, "verify", "sp", "--n", "2", "--q", "32", "--action", action)
        assert (code, report) == (4, None)
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert err.startswith(f"refused for size: sp(4,32) {action}: 1049600 lines hold") and err.count("\n") == 1, err
        assert "past the cap of 8589934592" in err


def test_a_result_too_long_to_print_is_refused_for_size(tmp_path, monkeypatch, capsys):
    # a witness entry past Python's int-to-str limit was computed, so it is not bad input (2): exit 4, no report
    import sys

    from sharpsets import linsys

    monkeypatch.setattr(linsys, "solve_integer", lambda system: linsys.SolveOutcome("solvable", [10**5000]))
    line = f"refused for size: the report holds an int past Python's {sys.get_int_max_str_digits()}-digit limit for printing\n"
    c5 = str(shipped_group_path("c5"))
    assert main(["linsys", "--group", c5, "--ring", "z"]) == 4
    assert capsys.readouterr() == ("", line)
    code, report = run_cli(tmp_path, "linsys", "--group", c5, "--ring", "z")
    assert (code, report) == (4, None)
    assert capsys.readouterr() == ("", line)


def test_export_system_format(tmp_path):
    # c5 is generated by i -> i+1, so its k-th element maps i to i+k; the
    # row of pair (i, j) holds a 1 in column k exactly when j = i + k mod 5
    c5 = str(shipped_group_path("c5"))
    for flags, ks in (([], range(5)), (["--fpf", "--pin-identity"], range(1, 5))):
        path = tmp_path / "c5.sys"
        code, _ = run_cli(tmp_path, "linsys", "--group", c5, "--ring", "q", *flags, "--export-system", str(path))
        assert code == 0
        rows = [" ".join("1" if (i + k) % 5 == j else "0" for k in ks) for i in range(5) for j in range(5)]
        rhs = " ".join("0" if flags and i == j else "1" for i in range(5) for j in range(5))
        assert path.read_text() == "\n".join([f"25 {len(ks)}", *rows, rhs]) + "\n"


def test_reports_byte_identical_modulo_timing(tmp_path):
    def strip(path):
        data = json.loads(path.read_text())
        data.pop("elapsed_ms")
        return json.dumps(data, sort_keys=True)

    runs = [
        ["verify", "alt", "--n", "6"],
        ["verify", "sp", "--n", "2", "--q", "2"],
        ["linsys", "--group", str(shipped_group_path("c5")), "--ring", "z",
         "--probe", "keep=4,trials=5,seed=9"],
    ]
    for i, argv in enumerate(runs):
        out1 = tmp_path / f"a{i}.json"
        out2 = tmp_path / f"b{i}.json"
        main([*argv, "--out", str(out1)])
        main([*argv, "--out", str(out2)])
        assert strip(out1) == strip(out2), argv


def test_verify_sp_modulus_override(tmp_path):
    code, report = run_cli(tmp_path, "verify", "sp", "--n", "2", "--q", "2", "--modulus", "3")
    assert code == 0
    assert report["conclusion"] == "refuted"


def test_export_design_matches_construction(tmp_path):
    design_path = tmp_path / "w23.dsn"
    code, report = run_cli(tmp_path, "verify", "m22", "--export-design", str(design_path))
    assert code == 0
    from oracles import read_design

    again = read_design(design_path)
    assert again.v == 23 and again.k == 7 and again.b == 253


def test_verify_flags_are_their_runners_keywords():
    # each verify case's parsed options, less --out, are keyword parameters of its runner, so main passes them on as
    # they are
    import inspect

    from sharpsets import certify, cli

    required = {"sp": ["--n", "2", "--q", "2"], "alt": ["--n", "5"]}
    keyword = (inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.KEYWORD_ONLY)
    for case in cli.CASES:
        argv = ["verify", case, *required.get(case, [])]
        dests = set(vars(cli._build_parser(argv).parse_args(argv))) - {"command", "case", "out"}
        parameters = inspect.signature(getattr(certify, f"_run_{case}")).parameters.values()
        keywords = {parameter.name for parameter in parameters if parameter.kind in keyword}
        assert dests <= keywords, (case, dests - keywords)


def test_verify_passes_its_parsed_options_to_run_case(tmp_path, monkeypatch):
    from sharpsets import certify

    class Report:
        def as_dict(self):
            return {"case": "recorded"}

    calls = []

    def recorded(case, **options):
        calls.append((case, options))
        return Report()

    monkeypatch.setattr(certify, "run_case", recorded)
    m22 = str(shipped_group_path("m22"))
    assert run_cli(tmp_path, "verify", "sp", "--n", "2", "--q", "2", "--action", "vector", "--enumerate-group")[0] == 0
    assert run_cli(tmp_path, "verify", "m22", "--group", m22)[0] == 0
    assert calls == [
        ("sp", {"n": 2, "q": 2, "modulus": None, "action": "vector", "enumerate_group_flag": True}),
        ("m22", {"group_file": m22, "enumerated": False, "export_design": None}),
    ]


@pytest.mark.parametrize(
    "argv, builder, write",
    [
        (["verify", "m22", "--export-design"], "golay_witt_design", designs.write_design),
        (["verify", "mclaughlin", "--export-graph"], "mclaughlin_graph",
         lambda mcl, path: designs.write_graph(mcl.graph, path)),
    ],
)
def test_verify_export_builds_its_object_once(tmp_path, monkeypatch, argv, builder, write):
    # the exported file and the report come from one object
    build, built = getattr(designs, builder), []

    def counted():
        built.append(build())
        return built[-1]

    monkeypatch.setattr(designs, builder, counted)
    path = tmp_path / "export.txt"
    code, report = run_cli(tmp_path, *argv, str(path))
    assert code == 0 and report["conclusion"] == "refuted"
    assert len(built) == 1
    write(build(), tmp_path / "fresh.txt")
    assert path.read_bytes() == (tmp_path / "fresh.txt").read_bytes()


DESIGN_CHECK_REPORTS = {
    (7, 3, 1): ("refuted", [
        ("fix-count-avoiding", "a*(k-lambda) = k, i.e. a*2 = 3", False,
         "a = 3/2 is not an integer: no such frequency exists"),
    ]),
    (16, 6, 2): ("refuted", [
        ("fix-count-avoiding", "a*(k-lambda) = k, i.e. a*4 = 6", False,
         "a = 3/2 is not an integer: no such frequency exists"),
    ]),
    (7, 4, 2): ("refuted", [
        ("fix-count-avoiding", "a*(k-lambda) = k, i.e. a*2 = 4", True, "a = 2"),
        ("fix-count-through", "b*(k-lambda) = v-k, i.e. b*2 = 3", False,
         "b = 3/2 is not an integer: no such frequency exists"),
    ]),
    (4, 3, 2): ("trivial-inapplicable", [
        ("fix-count-avoiding", "a*(k-lambda) = k, i.e. a*1 = 3", True, "a = 3"),
        ("fix-count-through", "b*(k-lambda) = v-k, i.e. b*1 = 1", True, "b = 1"),
        ("divisibility-chain", "k-lambda divides both v = 4 and v-1 = 3, so k-lambda = 1", True, "k-lambda = 1"),
        ("nontriviality", "k-lambda = 1 forces k = v-1 (the trivial design)", True, "k = 3, v-1 = 3"),
    ]),
}


@pytest.mark.parametrize("params", sorted(DESIGN_CHECK_REPORTS))
def test_design_check_report_is_pinned(tmp_path, params):
    # refuted at the first frequency, at the second, and trivial-inapplicable
    v, k, lam = params
    code, report = run_cli(tmp_path, "design-check", "--v", str(v), "--k", str(k), "--lambda", str(lam))
    assert code == 0
    jsonschema.validate(report, SCHEMA)
    report.pop("elapsed_ms")
    conclusion, steps = DESIGN_CHECK_REPORTS[params]
    assert report == {
        "case": "design-check",
        "conclusion": conclusion,
        "params": {"v": v, "k": k, "lambda": lam},
        "steps": [dict(zip(("name", "equation", "ok", "detail"), step)) for step in steps],
    }
