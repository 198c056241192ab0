"""Tests of the benchmark itself: checker, seeded inputs, job table, tracer."""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import jobs  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

sys.path.insert(0, str(jobs.SRC))

from sharpsets import certify, cli, perm  # noqa: E402

SEED = 7


def job(name: str) -> jobs.Job:
    return next(j for w in jobs.WORKLOADS.values() for j in w if j.name == name)


def run_job(j: jobs.Job, workdir: Path):
    jobs.write_inputs(j, workdir, SEED)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(jobs.job_argv(j, workdir))
    return rc, out.getvalue()


@pytest.fixture(scope="module")
def checker():
    return jobs.Checker(SEED)


@pytest.mark.parametrize("name", ["m22", "s5-pairs-z", "s5-pairs"])
def test_untampered_report_passes(tmp_path, checker, name):
    rc, text = run_job(job(name), tmp_path)
    assert checker.check(job(name), rc, text) == []


@pytest.mark.parametrize(
    "name, tamper",
    [
        ("m22", lambda r: r.update(conclusion="inconclusive")),
        ("m22", lambda r: r["spectrum"].update({"4": 104})),
        ("s5-pairs-z", lambda r: r["witness"].__setitem__(0, r["witness"][0] + 1)),
        ("s5-pairs-z", lambda r: r.update(status="infeasible", witness=None)),
        ("s5-pairs", lambda r: r["witness"].__setitem__(0, (r["witness"][0] + 1) % 120)),
        ("s5-pairs", lambda r: r.update(status="none-exhaustive")),
        ("s6-pairs", lambda r: r.update(nodes=8999)),
        ("m22", lambda r: r.update(conclusion="certainly")),  # fails the schema
    ],
)
def test_tampered_report_counts_as_failed(tmp_path, checker, name, tamper):
    j = job(name)
    if name == "s6-pairs":
        report = {"case": "search-sharp", "group": "s6", "status": "none-exhaustive", "t": 2,
                  "witness": None, "nodes": 9000, "elapsed_ms": 1.0}
        assert checker.check(j, 0, json.dumps(report)) == []
    else:
        rc, text = run_job(j, tmp_path)
        report = json.loads(text)
    tamper(report)
    assert checker.check(j, 0, json.dumps(report)) != []


def test_nonzero_exit_counts_as_failed(checker):
    assert checker.check(job("m22"), 1, "{}") != []


@pytest.mark.parametrize("name", sorted(jobs.GROUPS))
@pytest.mark.parametrize("seed", [0, 1, 2, 12345])
def test_relabelled_inputs_keep_group_order(tmp_path, name, seed):
    path = tmp_path / f"{name}.grp"
    path.write_text(jobs.group_file_text(name, seed))
    spec = perm.load_group(path)
    degree, order, gens = jobs.GROUPS[name]
    assert spec.declared_order == order
    assert perm.enumerate_group(spec).order == order


def test_relabelling_depends_on_seed():
    assert len({jobs.group_file_text("s6", seed) for seed in range(5)}) > 1


def test_every_job_has_an_expected_answer():
    names = [j.name for w in jobs.WORKLOADS.values() for j in w]
    assert len(names) == len(set(names))
    required = {"verify": {"conclusion", "spectrum"}, "linsys": {"status", "rows", "cols"},
                "search-sharp": {"status"}}
    for w in jobs.WORKLOADS.values():
        for j in w:
            assert required[j.argv[0]] <= j.expect.keys(), j.name
            if j.argv[0] == "search-sharp":
                assert {"nodes", "witness_size"} & j.expect.keys(), j.name


def test_benchmark_json_matches_the_runner():
    spec = json.loads((jobs.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(jobs.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()


def test_tracer_self_times_add_up_and_uninstall_restores(tmp_path):
    originals = (perm.enumerate_group, certify.enumerate_group, cli.main)
    t = tracer.Tracer("alt-6")
    t.install()
    try:
        assert certify.enumerate_group is not originals[1]
        run_job(job("alt-6"), tmp_path)
    finally:
        t.uninstall()
    assert (perm.enumerate_group, certify.enumerate_group, cli.main) == originals
    root = t.spans[0]
    assert root[0] == "cli.main" and root[3] is None
    assert sum(tracer.self_times(t.spans)) == pytest.approx(root[2] - root[1], abs=1e-9)
    metrics = tracer.layer_metrics(t.spans, t.counts)
    assert metrics["perm.elements"] == 360
    assert metrics["certify.elements_walked"] == 360
    assert metrics["perm.products"] == 720
