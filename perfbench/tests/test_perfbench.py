"""Self-tests of the benchmark.  They run real jobs and take about a minute.

    python3 -m pytest perfbench/tests -q
"""

import copy
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import reference  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

GOLDEN = json.loads(run.GOLDEN.read_text())
CLI_WORKLOADS = sorted(w for w in workloads.WORKLOADS if w != "stability_sweep")


def _deadline():
    return time.monotonic() + 600


@pytest.fixture
def workdir(tmp_path_factory):
    run.OUT.mkdir(exist_ok=True)
    return tmp_path_factory.mktemp("bench")


def _cli_digest(job, workdir, *extra):
    ring = workdir / "job.ring"
    ring.write_text(job.spec)
    res = run.launch([*extra, *run.cli_args(job, ring)], workdir, _deadline())
    assert res.result is not None, res.stderr
    return res.result


def _sweep_digests(jobs, workdir, *extra):
    cells = workdir / "cells.json"
    run.write_cells(jobs, cells)
    res = run.launch([*extra, "sweep", str(cells)], workdir, _deadline())
    assert res.result is not None, res.stderr
    return {c["id"]: (c["exit"], c["sha256"]) for c in res.result["cells"]}


def test_tampered_golden_digest_fails():
    jobs = workloads.select("derham_multivar", 0)
    golden = copy.deepcopy(GOLDEN["derham_multivar"])
    golden[jobs[0].id]["sha256"] = "0" * 64
    report = run.measure("derham_multivar", 0, 0, 0, golden)
    assert not report["correct"]
    assert report["failed"] / report["attempted"] > 0
    assert [job_id for job_id, _ in report["failures"]] == [jobs[0].id]


@pytest.mark.parametrize("workload", CLI_WORKLOADS)
def test_traced_and_untraced_digests_match(workload, workdir):
    job = workloads.select(workload, 0)[0]
    spans = workdir / "spans.json"
    plain = _cli_digest(job, workdir)
    traced = _cli_digest(job, workdir, "--spans", str(spans))
    assert (plain["exit"], plain["sha256"]) == (traced["exit"], traced["sha256"])
    assert plain["sha256"] == GOLDEN[workload][job.id]["sha256"]
    assert json.loads(spans.read_text())["spans"], "the traced run recorded no spans"


def test_traced_and_untraced_sweep_digests_match(workdir):
    jobs = workloads.select("stability_sweep", 0)[:3]
    plain = _sweep_digests(jobs, workdir)
    traced = _sweep_digests(jobs, workdir, "--spans", str(workdir / "spans.json"))
    assert plain == traced
    assert all(plain[j.id] == (0, GOLDEN["stability_sweep"][j.id]["sha256"]) for j in jobs)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_two_seeds_pass_the_digest_gate(workload):
    assert workloads.select(workload, 1) != workloads.select(workload, 2)
    for seed in (1, 2):
        report = run.measure(workload, seed, 0, 0, GOLDEN[workload])
        assert report["correct"] and report["failed"] == 0, report["failures"]


def test_benchmark_digest_equals_cli_outputs_digest(workdir):
    job = workloads.select("derham_multivar", 0)[0]
    manifest = workdir / "manifest.json"
    ring = workdir / "job.ring"
    ring.write_text(job.spec)
    res = run.launch([*run.cli_args(job, ring), "--manifest", str(manifest)], workdir, _deadline())
    assert res.result["sha256"] == json.loads(manifest.read_text())["outputs_digest"]


PATCH_PROBE = """
import json, sys
sys.path[:0] = [{src!r}, {bench!r}]
import drwitt.cli, drwitt.dieudonne, drwitt.exactcore.gf, drwitt.exactcore.zmodp, drwitt.derham, drwitt.rings
import tracer
tracer.SPANS["rings.no_such_function"] = ("calls",)
tracer.COUNTERS += ("dieudonne.NoSuchClass._helper",)
original = drwitt.exactcore.zmodp.howell
original_rref = drwitt.exactcore.gf.gf_rref
t = tracer.Tracer()
t.install()
print(json.dumps({{
    "absent": t.absent,
    "copies_patched": all(
        f is not original
        for f in (drwitt.dieudonne.howell, drwitt.exactcore.howell, drwitt.exactcore.zmodp.howell)
    ),
    "gf_rref_patched": all(
        f is not original_rref
        for f in (drwitt.derham.gf_rref, drwitt.rings.gf_rref, drwitt.exactcore.gf.gf_rref)
    ),
}}))
"""


def test_wrappers_patch_copies_and_report_missing_names_as_absent():
    code = PATCH_PROBE.format(src=str(run.ROOT / "src"), bench=str(BENCH))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    probe = json.loads(out.stdout)
    assert "rings.no_such_function" in probe["absent"]
    assert "dieudonne.NoSuchClass._helper" in probe["absent"]
    assert probe["copies_patched"]
    assert probe["gf_rref_patched"]


def test_self_time_subtracts_child_spans():
    doc = {
        "names": ["dieudonne.LiftComplex.forms", "exactcore.howell"],
        # forms [0, 1] calls howell [0.2, 0.5]; a third span never closed
        "spans": [[0, 0.0, 1.0, -1, True], [1, 0.2, 0.5, 0, True], None],
        "counters": {"rings.wkey": 3},
        "cells": {"exactcore.howell": [12, 6]},
        "caches": {"dieudonne.LiftComplex.forms": [3, 1]},
        "models": ["a", "a", "b"],
        "absent": [],
    }
    values, _ = tracer.reduce_dumps([doc])
    assert values["dieudonne.LiftComplex.forms.self_s"] == pytest.approx(0.7)
    assert values["exactcore.howell.self_s"] == pytest.approx(0.3)
    assert (values["exactcore.howell.cells"], values["exactcore.howell.max_cells"]) == (12, 6)
    assert values["dieudonne.LiftComplex.forms.hit_ratio"] == 0.75
    assert values["dieudonne.SaturatedModel.models_built"] == 3
    assert values["dieudonne.SaturatedModel.models_distinct"] == 2


def test_times_are_scaled_to_reference_speed():
    # the machine ran at half the reference speed in both rounds
    slow = 2 * reference.NOMINAL_S
    rounds = [
        {"wall_s": 2.0, "max_job_s": 1.0, "cpu_s": 1.0, "setup_s": 0.2, "peak_rss_mb": 10.0, "ref_per_call_s": slow},
        {"wall_s": 4.0, "max_job_s": 2.0, "cpu_s": 3.0, "setup_s": 0.4, "peak_rss_mb": 30.0, "ref_per_call_s": slow},
    ]
    values = run.end_to_end(rounds)
    assert values["wall_s"] == pytest.approx(1.5)
    assert values["max_job_s"] == pytest.approx(0.75)
    assert values["cpu_s"] == pytest.approx(1.0)
    assert values["setup_s"] == pytest.approx(0.15)
    assert values["peak_rss_mb"] == 20.0
