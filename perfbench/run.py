"""drwitt benchmark: named workloads, golden-digest gate, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The seed picks the workload's jobs (see
workloads.py).  This process runs one job at a time (a closed loop
with one client).  A CLI job is a fresh interpreter calling
`drwitt.cli.main(argv)`, because that is what a CLI user pays and because
method caches live for the whole process; a stability-sweep round is one
fresh interpreter running every selected cell.  Rounds of the selected jobs
repeat until S seconds have passed.

Times are reported at one fixed machine speed.  The runner and its jobs
stay on one CPU, and the reference kernel of reference.py is timed on it
before each job: by the runner before a CLI job's launch, and by the
sweep process before each cell.  Each time metric is its mean over the
rounds, scaled by reference.NOMINAL_S over the kernel's mean time per
call in the run.  Memory is the median over rounds.
The raw means and the scale are kept in the run record under
perfbench/out/.

Every job's exit code and payload sha256 must match perfbench/golden.json;
a job that raised, exited with another code or printed another payload
counts as failed.  With --trace 0 the end-to-end metrics are printed, with
--trace 1 the per-layer metrics of tracer.py.  The last stdout line is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import reference
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = HERE / "golden.json"
OUT = HERE / "out"

END_TO_END = (
    ("wall_s", "s"),
    ("max_job_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
)

# no new round or job starts past this many seconds into a run, so a run
# that turns slow still ends well within three minutes
HARD_LIMIT_S = 150


@dataclass
class Launch:
    """A finished job process: its result line, timings and rusage."""

    result: dict | None
    launched: float
    ended: float
    cpu_s: float
    rss_mb: float
    stderr: str


def job_env():
    """The caller's environment for a job process.

    Without the precision-guard override, which would change results, and
    with bytecode caching on, so that set-up time is that of an installed
    package rather than of compiling drwitt in every job.
    """
    env = dict(os.environ)
    env.pop("DRWITT_PRECISION_GUARD", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def launch(args, workdir, deadline):
    """Run `job.py ARGS` to completion; kill it if it outlives the deadline."""
    cmd = [sys.executable, str(HERE / "job.py"), *args]
    with tempfile.TemporaryFile(dir=workdir) as err:
        launched = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=job_env(), stdout=subprocess.PIPE, stderr=err)
        timer = threading.Timer(max(deadline - launched, 1.0), proc.kill)
        timer.start()
        try:
            out = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            ended = time.monotonic()
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
        err.seek(0)
        stderr = err.read().decode(errors="replace")
    lines = out.decode(errors="replace").strip().splitlines()
    try:
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    except json.JSONDecodeError:
        result = None
    rss_kb = (result or {}).get("peak_rss_kb") or usage.ru_maxrss
    return Launch(result, launched, ended, usage.ru_utime + usage.ru_stime, rss_kb / 1024, stderr)


def check(job_id, rec, golden, failures):
    """Compare one job's exit code and digest with its golden values."""
    want = golden.get(job_id)
    if want is None:
        failures.append((job_id, "no golden value"))
    elif rec is None:
        failures.append((job_id, "no result"))
    elif rec.get("exit") != want["exit"]:
        failures.append((job_id, f"exit {rec.get('exit')} != {want['exit']}: {rec.get('error', '')}"))
    elif rec.get("sha256") != want["sha256"]:
        failures.append((job_id, "payload digest differs from golden"))


def _setup(run):
    return run.result["imported"] - run.launched + run.result["parse_s"]


def cli_args(job, ring):
    """job.py arguments that run one CLI job on the ring file `ring`."""
    return ["cli", *job.argv, "--ring", str(ring), "--json"]


def write_cells(jobs, path):
    """Write the sweep cells of `jobs` to `path` for `job.py sweep`."""
    path.write_text(json.dumps([{"id": j.id, "spec": j.spec, "cell": list(j.cell)} for j in jobs]))


def cli_round(jobs, rings, golden, workdir, spans, deadline):
    """Run every CLI job once, each in its own process.

    `spans` is None, or (job.py tracing flag, directory for the dumps).
    Returns (round times, span dumps, failures).
    """
    launches, docs, failures = [], [], []
    ref_calls = -(-reference.CALLS_PER_ROUND // len(jobs))
    ref_s = 0.0
    for k, job in enumerate(jobs):
        args = cli_args(job, rings[k])
        if spans is not None:
            args = [spans[0], str(spans[1] / f"job{k}.json"), *args]
        if time.monotonic() > deadline:
            failures.append((job.id, "not started: run past its time limit"))
            continue
        ref_s += reference.timed(ref_calls)
        run = launch(args, workdir, deadline)
        launches.append(run)
        check(job.id, run.result, golden, failures)
        if run.result is None:
            print(f"job {job.id} failed:\n{run.stderr[-2000:]}", file=sys.stderr)
        elif spans is not None:
            docs.append(json.loads((spans[1] / f"job{k}.json").read_text()))
    job_s = [r.ended - r.launched for r in launches]
    times = {
        # the jobs run back to back; the reference kernel between them is left out
        "wall_s": sum(job_s),
        "job_s": job_s,
        "max_job_s": max(job_s, default=0.0),
        "cpu_s": sum(r.cpu_s for r in launches),
        "setup_s": sum(_setup(r) for r in launches if r.result is not None),
        "peak_rss_mb": max((r.rss_mb for r in launches), default=0.0),
        "ref_per_call_s": ref_s / (ref_calls * len(launches)) if launches else reference.NOMINAL_S,
    }
    return times, docs, failures


def sweep_round(jobs, cells_path, golden, workdir, spans, deadline):
    """Run every sweep cell in one process; a cell is a job.

    `spans` is as for cli_round.  Returns (round times, span dumps, failures).
    """
    # the kernel runs between the cells, inside the sweep process
    ref_calls = -(-reference.CALLS_PER_ROUND // len(jobs))
    args = ["sweep", str(cells_path), str(ref_calls)]
    dump = spans[1] / "sweep.json" if spans is not None else None
    if spans is not None:
        args = [spans[0], str(dump), *args]
    run = launch(args, workdir, deadline)
    failures = []
    cells = {c["id"]: c for c in (run.result or {}).get("cells", [])}
    for job in jobs:
        check(job.id, cells.get(job.id), golden, failures)
    if run.result is None:
        print(f"sweep failed:\n{run.stderr[-2000:]}", file=sys.stderr)
    res = run.result or {"ref_calls": 1, "ref_wall_s": reference.NOMINAL_S, "ref_cpu_s": 0.0}
    job_s = [c["seconds"] for c in cells.values()]
    times = {
        "wall_s": run.ended - run.launched - res["ref_wall_s"],
        "job_s": job_s,
        "max_job_s": max(job_s, default=0.0),
        "cpu_s": run.cpu_s - res["ref_cpu_s"],
        "setup_s": _setup(run) if run.result else 0.0,
        "peak_rss_mb": run.rss_mb,
        "ref_per_call_s": res["ref_wall_s"] / res["ref_calls"],
    }
    docs = [json.loads(dump.read_text())] if dump is not None and run.result else []
    return times, docs, failures


def speed_scale(rounds):
    """Factor that turns this run's seconds into seconds at reference speed."""
    return reference.NOMINAL_S / statistics.fmean(r["ref_per_call_s"] for r in rounds)


def end_to_end(rounds):
    """Each end-to-end metric over the run's rounds.

    A time is the mean over rounds at reference speed: the ratio of its
    total to the reference kernel's total, which tracks the machine's
    drifting speed more closely than a ratio of medians.  Memory is the
    median over rounds.
    """
    scale = speed_scale(rounds)
    return {
        name: statistics.fmean(r[name] for r in rounds) * scale if unit == "s"
        else statistics.median(r[name] for r in rounds)
        for name, unit in END_TO_END
    }


def pin_to_one_cpu():
    """Keep this process, and so the reference kernel and every job, on one CPU.

    On a shared virtual machine the virtual CPUs change speed apart from
    each other, so the kernel only tracks a job's speed when both run on
    the same CPU.
    drwitt is single-process, so a job loses nothing by it.  Where the
    system refuses, the run goes on unpinned.
    """
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except OSError as exc:
        print(f"warning: could not pin to one CPU ({exc}); times will spread more", file=sys.stderr)


def measure(workload, seed, seconds, trace, golden):
    """Run rounds of the workload for `seconds`; returns the report dict."""
    pin_to_one_cpu()
    jobs = workloads.select(workload, seed)
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-s{seed}-", dir=OUT))
    try:
        return _measure(workload, jobs, seconds, trace, golden, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure(workload, jobs, seconds, trace, golden, workdir):
    t_start = time.monotonic()
    deadline = t_start + HARD_LIMIT_S
    if workload == "stability_sweep":
        cells_path = workdir / "cells.json"
        write_cells(jobs, cells_path)
        run_round = partial(sweep_round, jobs, cells_path, golden, workdir, deadline=deadline)
    else:
        rings = []
        for k, job in enumerate(jobs):
            rings.append(workdir / f"job{k}.ring")
            rings[-1].write_text(job.spec)
        run_round = partial(cli_round, jobs, rings, golden, workdir, deadline=deadline)
    # compile the package's bytecode once, so no round pays for it
    launch(["import"], workdir, deadline)

    rounds, failures = [], []
    t0 = time.monotonic()
    while True:
        # traced rounds alternate: counted rounds give the counts, and
        # span-only rounds the times, free of the counters' overhead
        counted = len(rounds) % 2 == 0
        spans = ("--spans" if counted else "--spans-only", workdir) if trace else None
        times, docs, failed = run_round(spans=spans)
        failures += failed
        rounds.append(times)
        if trace:
            times["counted"] = counted
            times["layers"], times["absent"] = tracer.reduce_dumps(docs)
            times["layers"]["trace.wall_s"] = times["wall_s"]
        now = time.monotonic()
        if now - t0 >= seconds and len(rounds) >= (2 if trace else 1):
            break
        if now - t_start + times["wall_s"] > HARD_LIMIT_S:
            break

    if trace:
        units = tracer.metric_names()
        values = {}
        for name, unit in units:
            timed = unit == "s"
            picked = [r for r in rounds if r["counted"] != timed] or rounds
            values[name] = statistics.median(r["layers"][name] for r in picked)
        # the mean at reference speed, like the untraced wall_s it is compared with
        timed_rounds = [r for r in rounds if not r["counted"]] or rounds
        values["trace.wall_s"] = statistics.fmean(r["wall_s"] for r in timed_rounds) * speed_scale(timed_rounds)
    else:
        units = END_TO_END
        values = end_to_end(rounds)
    return {
        "correct": not failures,
        "attempted": len(jobs) * len(rounds),
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units},
        "speed_scale": speed_scale(rounds),
        "raw_means": {name: statistics.fmean(r[name] for r in rounds) for name, _ in END_TO_END},
        "rounds": rounds,
        "jobs": [j.id for j in jobs],
        "failures": failures,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=24)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "drwitt" / "cli.py").is_file():
        print(f"error: no drwitt sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    golden = json.loads(GOLDEN.read_text())[args.workload]
    report = measure(args.workload, args.seed, args.seconds, args.trace, golden)

    record = OUT / f"{args.workload}-s{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps(report, indent=1))
    for job_id, reason in report["failures"][:20]:
        print(f"FAILED {job_id}: {reason}", file=sys.stderr)
    absent = sorted({n for r in report["rounds"] for n in r.get("absent", ())})
    if absent:
        print("absent (reported as 0): " + ", ".join(absent))
    print(f"{args.workload} seed {args.seed}: {len(report['rounds'])} rounds of {len(report['jobs'])} jobs,"
          f" times scaled by {report['speed_scale']:.4f} to reference speed")
    for name, m in report["metrics"].items():
        print(f"  {name:48s} {m['value']:14.6g} {m['unit']}")
    keys = ("correct", "attempted", "failed", "metrics")
    print(json.dumps({k: report[k] for k in keys}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
