"""Regenerate perfbench/golden.json from the current sources.

    python3 perfbench/make_golden.py [WORKLOAD ...]

Runs every job of every variant in each workload's grid once and records
its exit code and payload sha256.  For CLI jobs it also passes
`--manifest` and checks that the digest the benchmark computes equals the
CLI's own `outputs_digest`.  Only regenerate when a change is meant to
alter outputs; a performance change must leave this file untouched.
"""

import json
import sys
import tempfile
import time
from pathlib import Path

import run
import workloads


def golden_for(workload, workdir):
    jobs = workloads.all_jobs(workload)
    deadline = time.monotonic() + 3600
    out = {}
    if workload == "stability_sweep":
        cells = workdir / "cells.json"
        run.write_cells(jobs, cells)
        res = run.launch(["sweep", str(cells)], workdir, deadline)
        if res.result is None:
            raise SystemExit(f"sweep failed:\n{res.stderr}")
        for rec in res.result["cells"]:
            if rec["exit"] is None:
                raise SystemExit(f"{rec['id']} raised:\n{rec['error']}")
            out[rec["id"]] = {"exit": rec["exit"], "sha256": rec["sha256"]}
        return out
    for k, job in enumerate(jobs):
        ring = workdir / f"job{k}.ring"
        ring.write_text(job.spec)
        manifest = workdir / f"job{k}.manifest.json"
        res = run.launch([*run.cli_args(job, ring), "--manifest", str(manifest)], workdir, deadline)
        rec = res.result
        if rec is None or rec["exit"] is None:
            raise SystemExit(f"{job.id} failed:\n{res.stderr}\n{rec}")
        cli_digest = json.loads(manifest.read_text())["outputs_digest"]
        if cli_digest != rec["sha256"]:
            raise SystemExit(f"{job.id}: benchmark digest {rec['sha256']} != CLI outputs_digest {cli_digest}")
        out[job.id] = {"exit": rec["exit"], "sha256": rec["sha256"]}
        print(f"  {job.id}: exit {rec['exit']} {rec['sha256'][:12]} ({res.ended - res.launched:.2f}s)", file=sys.stderr)
    return out


def main(names):
    golden = json.loads(run.GOLDEN.read_text()) if run.GOLDEN.exists() else {}
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        for name in names or sorted(workloads.WORKLOADS):
            print(name, file=sys.stderr)
            golden[name] = golden_for(name, Path(tmp))
    run.GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
