"""Record the baseline: every workload untraced and traced on one seed.

    python3 perfbench/baseline.py [--seed N] [--seconds S]

Writes perfbench/baseline.json with each workload's end-to-end metrics,
its per-layer metrics, the tracing overhead (traced wall_s over untraced
wall_s) and the share of the traced self time that a few layers hold.
"""

import argparse
import json
import statistics
import sys

import run
import workloads

# layer -> the self-time metrics it sums; its share is over trace.layers_s
SHARES = {
    "enumeration": ("rings.MonomialAlgebra.monomials.self_s", "dieudonne.LiftComplex.forms.self_s"),
    "gf_rref": ("exactcore.gf_rref.self_s",),
    "howell": ("exactcore.howell.self_s",),
}


def _counter_overhead(rounds):
    """Raw wall time of the counted traced rounds over that of the span-only ones."""
    counted = [r["wall_s"] for r in rounds if r["counted"]]
    spans_only = [r["wall_s"] for r in rounds if not r["counted"]]
    return statistics.median(counted) / statistics.median(spans_only) if spans_only else None


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=24)
    args = ap.parse_args(argv)
    golden = json.loads(run.GOLDEN.read_text())
    out = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
    for name in workloads.WORKLOADS:
        plain = run.measure(name, args.seed, args.seconds, 0, golden[name])
        traced = run.measure(name, args.seed, args.seconds, 1, golden[name])
        e2e = {k: m["value"] for k, m in plain["metrics"].items()}
        layers = {k: m["value"] for k, m in traced["metrics"].items()}
        out["workloads"][name] = {
            "correct": plain["correct"] and traced["correct"],
            "rounds": {"untraced": len(plain["rounds"]), "traced": len(traced["rounds"])},
            "end_to_end": e2e,
            "tracing_overhead": layers["trace.wall_s"] / e2e["wall_s"],
            "counter_overhead": _counter_overhead(traced["rounds"]),
            "self_time_share": {
                layer: sum(layers[m] for m in names) / layers["trace.layers_s"] for layer, names in SHARES.items()
            },
            "per_layer": layers,
        }
        print(f"{name}: wall_s {e2e['wall_s']:.3f}, overhead {layers['trace.wall_s'] / e2e['wall_s']:.2f}x", file=sys.stderr)
    (run.HERE / "baseline.json").write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
