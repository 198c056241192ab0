"""Workloads, seeded inputs and the expected answer of every job.

A job is one `sharpsets` command line. Its expected answer was measured on
the package as first committed; any difference, or a report that does not
validate against `report_schema.json`, or a witness that an independent
re-check rejects, makes the job count as failed.

The oracle jobs read generator files for A7, S5 and S6 that the benchmark
writes itself, with the points relabelled by a permutation drawn from the
workload seed. Relabelling conjugates the group, so every verdict, rank
and node count listed here holds under every seed. The verify jobs are
fixed constructions and take no seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCHEMA_PATH = SRC / "sharpsets" / "report_schema.json"


@dataclass(frozen=True, eq=False)
class Job:
    name: str
    argv: tuple[str, ...]          # "{a7}" etc. stand for the written group files
    expect: dict


WORKLOADS: dict[str, tuple[Job, ...]] = {
    # Group enumeration: ~75% in perm.enumerate_group over the 443,520
    # elements of M22, ~20% in certify's element walk.
    "verify-enum": (
        Job("m22-enumerated", ("verify", "m22", "--enumerated"),
            {"conclusion": "refuted", "spectrum": {"0": 2520, "4": 264600, "6": 176400}}),
        Job("alt-6", ("verify", "alt", "--n", "6"),
            {"conclusion": "refuted",
             "spectrum": {"0": 1, "2": 14, "4": 49, "6": 90, "8": 101, "10": 71, "12": 29, "14": 5}}),
        Job("alt-7", ("verify", "alt", "--n", "7"),
            {"conclusion": "refuted",
             "spectrum": {"0": 1, "2": 20, "4": 98, "6": 259, "8": 455, "10": 573, "12": 531,
                          "14": 359, "16": 169, "18": 49, "20": 6}}),
        Job("sp-2-2-enumerated", ("verify", "sp", "--n", "2", "--q", "2", "--enumerate-group"),
            {"conclusion": "refuted", "spectrum": {"0": 10, "2": 10},
             "notes": {"enumerated_order": 720}}),
    ),
    # Constructive path: ~90% in geometry.symplectic_generators, no group
    # is enumerated.
    "verify-family": (
        Job("sp-3-2", ("verify", "sp", "--n", "3", "--q", "2"),
            {"conclusion": "refuted", "spectrum": {"0": 120, "2": 216}}),
        Job("sp-2-4-vector", ("verify", "sp", "--n", "2", "--q", "4", "--action", "vector"),
            {"conclusion": "refuted", "spectrum": {"0": 136, "6": 136}}),
        Job("mclaughlin", ("verify", "mclaughlin"),
            {"conclusion": "refuted", "spectrum": {"0": 3333, "3": 9240, "6": 7392, "12": 2310}}),
        Job("m22", ("verify", "m22"),
            {"conclusion": "refuted", "spectrum": {"0": 1, "4": 105, "6": 70}}),
        Job("m23", ("verify", "m23"),
            {"conclusion": "refuted", "spectrum": {"0": 1, "4": 105, "6": 70}}),
    ),
    # Solver ladder: bitmask/int64 elimination (A7) next to exact
    # Fraction/bigint elimination (S5), so a shared-kernel change that helps
    # one side and slows the other shows here.
    "oracles-linsys": (
        Job("a7-pairs-f2", ("linsys", "--group", "{a7}", "--t", "2", "--ring", "f_p", "--p", "2"),
            {"status": "infeasible", "rank": 457, "rows": 1764, "cols": 2520}),
        Job("a7-pairs-f3", ("linsys", "--group", "{a7}", "--t", "2", "--ring", "f_p", "--p", "3"),
            {"status": "solvable", "rank": 458, "rows": 1764, "cols": 2520}),
        Job("s5-pairs-q", ("linsys", "--group", "{s5}", "--t", "2", "--ring", "q"),
            {"status": "solvable", "rank": 78, "rows": 400, "cols": 120}),
        Job("s5-pairs-z", ("linsys", "--group", "{s5}", "--t", "2", "--ring", "z"),
            {"status": "solvable", "rows": 400, "cols": 120}),
        Job("s5-pairs-znn", ("linsys", "--group", "{s5}", "--t", "2", "--ring", "znn"),
            {"status": "solvable", "nodes": 1, "rows": 400, "cols": 120}),
    ),
    # Exact-cover oracle: an exhaustive refutation and a found witness.
    "oracles-search": (
        Job("s6-pairs", ("search-sharp", "--group", "{s6}", "--t", "2"),
            {"status": "none-exhaustive", "nodes": 9000}),
        Job("s5-pairs", ("search-sharp", "--group", "{s5}", "--t", "2"),
            {"status": "found", "witness_size": 20}),
    ),
}


# ---------------------------------------------------------------------------
# Seeded inputs


def _cycle(n: int, *cycles) -> list[int]:
    images = list(range(n))
    for cyc in cycles:
        for i, x in enumerate(cyc):
            images[x] = cyc[(i + 1) % len(cyc)]
    return images


# name -> (degree, order, generators); A7 uses the package's own generators
# for the alternating case, S_n the transposition and the n-cycle.
GROUPS = {
    "a7": (7, 2520, (_cycle(7, (0, 1, 2)), _cycle(7, tuple(range(7))))),
    "s5": (5, 120, (_cycle(5, (0, 1)), _cycle(5, tuple(range(5))))),
    "s6": (6, 720, (_cycle(6, (0, 1)), _cycle(6, tuple(range(6))))),
}


def relabel(generators, seed: int, salt: str):
    """Conjugate every generator by one permutation drawn from (seed, salt)."""
    n = len(generators[0])
    sigma = list(range(n))
    random.Random(f"{seed}:{salt}").shuffle(sigma)
    out = []
    for g in generators:
        h = [0] * n
        for x in range(n):
            h[sigma[x]] = sigma[g[x]]
        out.append(h)
    return out


def group_file_text(name: str, seed: int) -> str:
    degree, order, gens = GROUPS[name]
    lines = [f"n {degree}", f"order {order}"]
    lines += [" ".join(map(str, g)) for g in relabel(gens, seed, name)]
    return "\n".join(lines) + "\n"


def job_argv(job: Job, workdir: Path) -> list[str]:
    return [a.format(**{g: str(workdir / f"{g}.grp") for g in GROUPS}) for a in job.argv]


def write_inputs(job: Job, workdir: Path, seed: int) -> None:
    """Write the group files this job reads; verify jobs read none."""
    for g in GROUPS:
        if any("{" + g + "}" in a for a in job.argv):
            (workdir / f"{g}.grp").write_text(group_file_text(g, seed))


# ---------------------------------------------------------------------------
# Output checker


class Checker:
    """Checks a job's report; runs outside every timed region.

    Witnesses are re-verified on systems and groups rebuilt here from the
    same seeded input, with `linsys.verify_witness` and
    `sharp_search.verify_sharp_set`.
    """

    def __init__(self, seed: int):
        import jsonschema

        self.seed = seed
        self._validator = jsonschema.Draft202012Validator(json.loads(SCHEMA_PATH.read_text()))
        self._groups = {}
        self._systems = {}

    def _group(self, name: str):
        from sharpsets.perm import GroupSpec, enumerate_group

        if name not in self._groups:
            degree, order, gens = GROUPS[name]
            spec = GroupSpec(degree, tuple(tuple(g) for g in relabel(gens, self.seed, name)), name, order)
            self._groups[name] = enumerate_group(spec)
        return self._groups[name]

    def _pairs_system(self, name: str):
        from sharpsets import linsys
        from sharpsets.perm import induced_action

        if name not in self._systems:
            _, induced = induced_action(self._group(name), 2)
            self._systems[name] = linsys.build_full_system(induced.elements)
        return self._systems[name]

    def check(self, job: Job, rc, report_text: str) -> list[str]:
        """Problems found with one run of `job`; empty when it is correct."""
        if rc != 0:
            return [f"exit status {rc}"]
        try:
            report = json.loads(report_text)
        except ValueError as exc:
            return [f"report is not JSON: {exc}"]
        problems = [f"schema: {e.message}" for e in self._validator.iter_errors(report)]
        if problems:
            return problems
        if job.argv[0] == "verify":
            return self._check_verify(job.expect, report)
        if job.argv[0] == "linsys":
            return self._check_linsys(job, job.expect, report)
        return self._check_search(job, job.expect, report)

    @staticmethod
    def _check_verify(exp, report) -> list[str]:
        problems = []
        if report["conclusion"] != exp["conclusion"]:
            problems.append(f"conclusion {report['conclusion']} != {exp['conclusion']}")
        if report["spectrum"] != exp["spectrum"]:
            problems.append(f"spectrum {report['spectrum']} != {exp['spectrum']}")
        for key, value in exp.get("notes", {}).items():
            if report.get("notes", {}).get(key) != value:
                problems.append(f"notes.{key} {report.get('notes', {}).get(key)} != {value}")
        return problems

    def _check_linsys(self, job, exp, report) -> list[str]:
        from sharpsets import linsys

        problems = []
        for key in ("status", "rows", "cols"):
            if report[key] != exp[key]:
                problems.append(f"{key} {report[key]} != {exp[key]}")
        for key in ("rank", "nodes"):
            if key in exp and report["notes"].get(key) != exp[key]:
                problems.append(f"notes.{key} {report['notes'].get(key)} != {exp[key]}")
        witness = report["witness"]
        if exp["status"] != "solvable":
            if witness is not None:
                problems.append("witness given for an infeasible system")
            return problems
        if witness is None:
            return problems + ["solvable without a witness"]
        group = next(g for g in GROUPS if "{" + g + "}" in job.argv)
        system = self._pairs_system(group)
        values = [Fraction(w) for w in witness]
        ring = report["ring"]
        if len(values) != system.cols:
            problems.append(f"witness has {len(values)} entries, system has {system.cols} columns")
        elif ring == "f_p":
            if not linsys.verify_witness(system, [int(v) for v in values], modulus=report["p"]):
                problems.append(f"witness fails mod {report['p']}")
        elif ring in ("z", "znn") and any(v.denominator != 1 for v in values):
            problems.append("non-integral witness")
        elif ring == "znn" and any(v < 0 for v in values):
            problems.append("negative witness entry")
        elif not linsys.verify_witness(system, values):
            problems.append("witness fails exact substitution")
        return problems

    def _check_search(self, job, exp, report) -> list[str]:
        from sharpsets import sharp_search

        problems = []
        if report["status"] != exp["status"]:
            problems.append(f"status {report['status']} != {exp['status']}")
        if "nodes" in exp and report["nodes"] != exp["nodes"]:
            problems.append(f"nodes {report['nodes']} != {exp['nodes']}")
        witness = report["witness"]
        if exp["status"] != "found":
            if witness is not None:
                problems.append("witness given for an exhaustive refutation")
            return problems
        if witness is None or len(witness) != exp["witness_size"]:
            return problems + [f"witness {witness} is not of size {exp['witness_size']}"]
        group = next(g for g in GROUPS if "{" + g + "}" in job.argv)
        G = self._group(group)
        if not all(isinstance(i, int) and 0 <= i < G.order for i in witness):
            return problems + ["witness index out of range"]
        if not sharp_search.verify_sharp_set(G, witness, report["t"]):
            problems.append("witness is not sharply transitive")
        return problems
