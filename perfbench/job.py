"""One benchmark job in a fresh interpreter; prints one JSON result line.

    python3 perfbench/job.py [--spans PATH | --spans-only PATH] cli ARGV...
    python3 perfbench/job.py [--spans PATH | --spans-only PATH] sweep CELLS.json [REF_CALLS]
    python3 perfbench/job.py import

`cli` runs `drwitt.cli.main(ARGV)` with `--json` and digests the payload
it prints.  `sweep` runs stability-sweep cells (see sweep.py) one after
another in this process and digests each cell's groups; before each cell
it times REF_CALLS calls of the reference kernel (reference.py), which
the runner takes out of the round's times.  The result line
carries the monotonic time at which `import drwitt` finished and the time
spent parsing ring specs, from which the runner derives set-up time, and
the process's peak resident set.
With `--spans` every layer in tracer.py is wrapped and its spans and
counters are written to PATH when the job ends; `--spans-only` leaves the
hot helpers uncounted, so that self times carry no counter overhead.
`import` only imports drwitt (a warm-up).
"""

import time
import contextlib
import hashlib
import io
import json
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import drwitt.cli
import drwitt.rings

IMPORTED = time.monotonic()


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _timed(fn, spent):
    """fn, adding the seconds each call takes to spent[0]."""

    def timed(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            spent[0] += time.perf_counter() - t0

    return timed


def run_cli(argv):
    # time the CLI's own parse of the ring file
    parse_s = [0.0]
    drwitt.cli.parse_ringspec = _timed(drwitt.cli.parse_ringspec, parse_s)
    out = io.StringIO()
    result = {}
    try:
        with contextlib.redirect_stdout(out):
            result["exit"] = drwitt.cli.main(list(argv))
    except SystemExit as exc:  # argparse rejects the flags
        result["exit"] = exc.code
        result["error"] = f"SystemExit({exc.code})"
    except Exception:
        result["exit"] = None
        result["error"] = traceback.format_exc(limit=-3)
    payload = out.getvalue()
    result["parse_s"] = parse_s[0]
    result["sha256"] = sha256(payload[:-1] if payload.endswith("\n") else payload)
    return result


def run_sweep(cells_path, ref_calls):
    import reference
    from sweep import sweep_cell

    cells = json.loads(Path(cells_path).read_text())
    # through the module, so that a traced run sees the parse
    parse_s = [0.0]
    parse = _timed(drwitt.rings.parse_ringspec, parse_s)
    parsed = [parse(cell["spec"]) for cell in cells]
    out = []
    ref_wall_s = ref_cpu_s = 0.0
    for cell, spec in zip(cells, parsed):
        c0 = time.process_time()
        ref_wall_s += reference.timed(ref_calls)
        ref_cpu_s += time.process_time() - c0
        t0 = time.perf_counter()
        rec = {"id": cell["id"]}
        try:
            groups, stable = sweep_cell(spec, *cell["cell"])
            rec["exit"] = 0 if stable else 2
            rec["sha256"] = sha256(json.dumps(groups, sort_keys=True))
        except Exception:
            rec["exit"] = None
            rec["error"] = traceback.format_exc(limit=-3)
        rec["seconds"] = time.perf_counter() - t0
        out.append(rec)
    return {
        "parse_s": parse_s[0],
        "cells": out,
        "ref_calls": ref_calls * len(cells),
        "ref_wall_s": ref_wall_s,
        "ref_cpu_s": ref_cpu_s,
    }


def peak_rss_kb():
    """This process's peak resident set since exec (VmHWM).

    getrusage() is no use here: at exec it inherits the parent's resident
    size, so a large runner would inflate every job's figure.
    """
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    return None


def main(argv):
    spans = None
    if argv[0] in ("--spans", "--spans-only"):
        counters = argv[0] == "--spans"
        spans, argv = argv[1], argv[2:]
    tracer = None
    if spans:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(counters)
    mode, rest = argv[0], argv[1:]
    if mode == "import":  # warm-up: compile bytecode, run nothing
        result = {}
    elif mode == "cli":
        result = run_cli(rest)
    else:
        result = run_sweep(rest[0], int(rest[1]) if len(rest) > 1 else 0)
    result["imported"] = IMPORTED
    result["peak_rss_kb"] = peak_rss_kb()
    if tracer is not None:
        tracer.dump(spans)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
