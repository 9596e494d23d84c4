"""Command-line front end: ring specs in, deterministic JSON out.

Exit codes: 0 success, 1 operational error, 2 check-failure (a
verification verb ran fine and the checked property is false).  Payloads
are deterministic (sorted keys, no timestamps); `--manifest PATH` writes
a separate run manifest carrying the wall time and the payload digest,
so re-running a manifest's command reproduces byte-identical output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from fractions import Fraction
from pathlib import Path

from . import __version__
from .dieudonne import saturate, strict_truncate
from .derham import cartier_smooth_check, derham_cohomology
from .errors import CheckFailure, DrwittError
from .exactcore import FinComplex, FinModPresentation, ZZ, ZmodRing
from .filtspec import FilteredComplex, spectral_sequence, two_column_extract
from .kpredict import k_predict
from .rings import MonomialAlgebra, is_prime, parse_ringspec
from .synlog import (
    log_lattice,
    nygaard_completeness_check,
    nygaard_graded_check,
    syntomic,
    verify_fundamental_seq,
)
from .witt import (
    WittRing,
    frobenius,
    ghost,
    restriction,
    verschiebung,
    witt_add,
    witt_mul,
    witt_neg,
)

SCHEMA_VERSION = 1


def _read(path):
    try:
        return Path(path).read_text()
    except OSError as e:
        raise DrwittError(f"cannot read {path}: {e.strerror}") from None


def _load_spec(args):
    """Parse the --ring file; its digest goes into the run manifest."""
    text = _read(args.ring)
    args._ring_sha256 = hashlib.sha256(text.encode()).hexdigest()
    return parse_ringspec(text)


def _wkey_str(w):
    w = Fraction(w)
    return str(int(w)) if w.denominator == 1 else f"{w.numerator}/{w.denominator}"


def _emit(args, payload):
    payload = {"schema_version": SCHEMA_VERSION, **payload}
    text = json.dumps(payload, sort_keys=True, indent=2 if args.json else None)
    if args.json:
        print(text)
    if getattr(args, "manifest", None):
        digest = hashlib.sha256(text.encode()).hexdigest()
        manifest = {
            "command": " ".join(sys.argv[1:]),
            "tool_version": __version__,
            "outputs_digest": digest,
            "wall_time_s": round(time.time() - args._t0, 3),
        }
        if getattr(args, "_ring_sha256", None):
            manifest["ring_spec_sha256"] = args._ring_sha256
        Path(args.manifest).write_text(json.dumps(manifest, sort_keys=True, indent=2))
    return payload


# ---------------------------------------------------------------------------
# witt verb

def cmd_witt(args):
    if args.ring:
        spec = _load_spec(args)
    else:
        spec = parse_ringspec(f"p = {args.p}\nkind = finite_field")
    alg = MonomialAlgebra(spec)
    W = WittRing(alg, args.len)
    op = args.operation

    def fmt(v):
        return [v.ring.algebra.format_element(c) for c in v.components]

    vecs = []
    if op not in ("teich", "ghost"):
        vecs = [W(tuple(alg.parse_element(c) for c in comp.split(","))) for comp in args.components]
    if op in ("add", "mul") and len(vecs) != 2:
        raise DrwittError(f"witt {op} needs exactly two vectors")
    if op == "add":
        out = witt_add(vecs[0], vecs[1])
    elif op == "mul":
        out = witt_mul(vecs[0], vecs[1])
    elif op == "neg":
        out = witt_neg(vecs[0])
    elif op == "teich":
        el = alg.parse_element(args.components[0])
        out = W.teichmuller(el)
    elif op == "frob":
        out = frobenius(vecs[0])
    elif op == "versch":
        out = verschiebung(vecs[0])
    elif op == "restrict":
        out = restriction(vecs[0])
    elif op == "ghost":
        from .witt import IntegerMonomialAlgebra

        Z = IntegerMonomialAlgebra(0)
        WZ = WittRing(Z, args.len, p=args.p)
        try:
            comps = [int(c) for c in args.components[0].split(",")]
        except ValueError:
            raise DrwittError(f"witt ghost needs integer components, got {args.components[0]!r}") from None
        v = WZ(tuple(Z.constant(c) for c in comps))
        gs = [g.get((), 0) for g in ghost(v)]
        if not args.json:
            print(gs)
        _emit(args, {"command": "witt ghost", "ghost": gs})
        return 0
    else:
        raise DrwittError(f"unknown witt operation {op}")
    if not args.json:
        print(out)
    _emit(args, {"command": f"witt {op}", "components": fmt(out)})
    return 0


# ---------------------------------------------------------------------------
# derham / cartier-check

def cmd_derham(args):
    spec = _load_spec(args)
    table = {}
    for i in range(args.maxdeg + 1):
        per = derham_cohomology(spec, i, args.weight_cap)
        table[str(i)] = {
            _wkey_str(w): inv.to_json(spec.p) for w, inv in sorted(per.items()) if not inv.is_trivial()
        }
    payload = {
        "command": "derham table",
        "ring": spec.describe(),
        "precision_stable": True,
        "cohomology": table,
    }
    if not args.json:
        for i, row in table.items():
            print(f"H^{i}: {row}")
    _emit(args, payload)
    return 0


def cmd_cartier_check(args):
    spec = _load_spec(args)
    report = cartier_smooth_check(spec, args.maxdeg, args.weight_cap)
    payload = {
        "command": "cartier-check",
        "ring": report["ring"],
        "verdict": report["verdict"],
        "witness": report.get("witness"),
        "degrees": {
            str(i): {"all_pass": d["all_pass"], "weights": {_wkey_str(w): v for w, v in d["weights"].items()}}
            for i, d in report["degrees"].items()
        },
    }
    if "note" in report:
        payload["note"] = report["note"]
    if not args.json:
        print(report["verdict"])
        if report.get("witness"):
            print("witness:", report["witness"])
    _emit(args, payload)
    return 0 if report["verdict"].startswith("consistent") else 2


# ---------------------------------------------------------------------------
# drw table

def cmd_drw(args):
    spec = _load_spec(args)
    model = saturate(spec, args.level, args.maxdeg)
    level = strict_truncate(model, args.level)
    bumped = strict_truncate(saturate(spec, args.level, args.maxdeg, R=model.R + 1), args.level)
    out = {}
    ops = {}
    # a ring without variables lives at weight 0 only
    for u in level.weights(args.weight_cap) if spec.nvars else [0]:
        for n in range(0, model.top + 1):
            inv = level.invariants(n, u)
            if inv.is_trivial():
                continue
            cell = inv.to_json(spec.p)
            cell["stable"] = bumped.invariants(n, u) == inv
            out.setdefault(str(n), {})[_wkey_str(u)] = cell
            if args.operators:
                ops.setdefault(str(n), {})[_wkey_str(u)] = {
                    "d": level.model.d(n, u),
                    "F": level.model.frob(n, u),
                }
    payload = {
        "command": "drw table",
        "ring": spec.describe(),
        "level": args.level,
        "internal_precision": f"p^{model.R}",
        "groups": out,
    }
    if args.operators:
        payload["operators"] = ops
    if not args.json:
        for n, row in sorted(out.items()):
            print(f"W_{args.level}Omega^{n}: {row}")
    _emit(args, payload)
    return 0


# ---------------------------------------------------------------------------
# syntomic / logforms / check

def cmd_syntomic(args):
    spec = _load_spec(args)
    S = syntomic(spec, args.twist, args.modp, args.maxdeg, args.weight_cap)
    S_bump = syntomic(spec, args.twist, args.modp, args.maxdeg, args.weight_cap, R=S.R + 1)

    def cell(j, v):
        out = v.to_json(spec.p)
        out["stable"] = S_bump.group(j) == v
        return out

    payload = {
        "command": "syntomic",
        "ring": spec.describe(),
        "twist": args.twist,
        "modulus": f"p^{args.modp}",
        "cohomology": {str(j): cell(j, v) for j, v in sorted(S.cohomology.items())},
        "weight_zero_orbit": {str(j): v.to_json(spec.p) for j, v in sorted(S.weight_zero.items()) if not v.is_trivial()},
        "orbits": S.orbit_count,
    }
    if not args.json:
        print({j: str(v) for j, v in sorted(S.cohomology.items())})
    _emit(args, payload)
    return 0


def cmd_logforms(args):
    spec = _load_spec(args)
    lat = log_lattice(spec, args.deg, args.modp)
    payload = {
        "command": "logforms",
        "ring": spec.describe(),
        "degree": args.deg,
        "modulus": f"p^{args.modp}",
        "group": lat.invariants.to_json(spec.p),
        "symbols": lat.symbols,
    }
    if not args.json:
        print(lat.invariants, lat.symbols)
    _emit(args, payload)
    return 0


def cmd_check(args):
    spec = _load_spec(args)
    name = args.which
    if name == "fundamental-seq":
        rep = verify_fundamental_seq(spec, args.twist, args.modp, args.maxdeg, args.weight_cap)
        ok = (
            rep["off_degree_vanishing"]
            and all(okk for side in rep["invertibility"].values() for okk, _ in side.values())
            and rep["verdict"] in ("EQUAL", "CONTAINS")
        )
        payload = {
            "command": "check fundamental-seq",
            "ring": spec.describe(),
            "twist": args.twist,
            "modulus": f"p^{args.modp}",
            "off_degree_vanishing": rep["off_degree_vanishing"],
            "h_i": rep["h_i"].to_json(spec.p),
            "log_lattice": rep["log_lattice"].to_json(spec.p),
            "verdict": rep["verdict"],
            "index": rep["index"],
            "h_i_plus_1_ring_level_coker": rep["h_i_plus_1_ring_level_coker"].to_json(spec.p),
            "invertibility": {
                side: {str(n): {"invertible": okk, "neumann_terms": t} for n, (okk, t) in d.items()}
                for side, d in rep["invertibility"].items()
            },
            "pass": ok,
        }
    elif name == "nygaard-graded":
        ok = nygaard_graded_check(spec, args.twist, args.weight_cap)
        payload = {
            "command": "check nygaard-graded",
            "ring": spec.describe(),
            "twist": args.twist,
            "pass": ok,
        }
    elif name == "nygaard-complete":
        ok = nygaard_completeness_check(spec, args.twist if args.twist else 4, args.weight_cap)
        payload = {
            "command": "check nygaard-complete",
            "ring": spec.describe(),
            "twist_cap": args.twist if args.twist else 4,
            "pass": ok,
        }
    else:
        raise DrwittError(f"unknown check {name}")
    if not args.json:
        print("PASS" if payload["pass"] else "FAIL")
    _emit(args, payload)
    return 0 if payload["pass"] else 2


# ---------------------------------------------------------------------------
# specseq

def _parse_ring_json(obj):
    if obj.get("kind") == "Z":
        return ZZ
    if obj.get("kind") == "Zmod":
        p, N = int(obj["p"]), int(obj["N"])
        if not is_prime(p) or N < 1:
            raise DrwittError(f"Zmod needs a prime p and N >= 1, got p = {p}, N = {N}")
        return ZmodRing(p, N)
    raise DrwittError(f"unknown coefficient ring {obj!r}")


def _by_degree(mats, mods, n, key):
    """{degree: matrix} from a level's "d" or "map_to_prev" entry; each degree needs a module."""
    out = {int(deg): mat for deg, mat in mats.items()}
    stray = sorted(set(out) - set(mods))
    if stray:
        raise DrwittError(f'level {n} has "{key}" at degree {stray[0]}, which has no module')
    return out


def load_filtered_complex(doc) -> FilteredComplex:
    try:
        ring = _parse_ring_json(doc["ring"])
        lo, hi = doc["window"]
        if lo > hi:
            raise DrwittError(f"specseq window is reversed: {doc['window']!r}")
        levels = {}
        maps = {}
        for entry in doc["levels"]:
            n = int(entry["n"])
            mods = {}
            for deg, m in entry["complex"].items():
                mods[int(deg)] = FinModPresentation(ring, int(m["gens"]), m.get("rels", []))
            diffs = _by_degree(entry.get("d", {}), mods, n, "d")
            levels[n] = FinComplex(ring, mods, diffs, check=True)
            if "map_to_prev" in entry:
                maps[n - 1] = _by_degree(entry["map_to_prev"], mods, n, "map_to_prev")
        return FilteredComplex(ring, lo, hi, levels, maps, check=True)
    except (KeyError, ValueError, TypeError, AttributeError) as e:
        raise DrwittError(f"malformed specseq input: {type(e).__name__}: {e}") from None


def cmd_specseq(args):
    try:
        doc = json.loads(_read(args.input))
    except ValueError as e:
        raise DrwittError(f"{args.input} is not JSON: {e}") from None
    F = load_filtered_complex(doc)
    res = spectral_sequence(F, r_max=args.pages)
    p_for_json = F.ring.p if isinstance(F.ring, ZmodRing) else None
    payload = {
        "command": "specseq run",
        "window": list(res.window),
        "pages": [
            {
                "page": page.index,
                "entries": {f"{k},{l}": v.to_json(p_for_json) for (k, l), v in sorted(page.entries.items())},
                "nonzero_differentials": sorted(f"{k},{l}" for (k, l) in page.differentials),
            }
            for page in res.pages
        ],
        "e_infinity": {f"{k},{l}": v.to_json(p_for_json) for (k, l), v in sorted(res.e_infinity.items())},
        "underlying_homology": {str(m): v.to_json(p_for_json) for m, v in sorted(res.underlying.items())},
    }
    if doc.get("two_column") or args.two_column:
        seqs = two_column_extract(res)
        payload["short_exact_sequences"] = [
            {
                "total_degree": s["total_degree"],
                "sub": s["sub"].to_json(p_for_json),
                "middle": s["middle"].to_json(p_for_json),
                "quotient": s["quotient"].to_json(p_for_json),
                "order_equation": s["order_equation"],
            }
            for s in seqs
        ]
    if not args.json:
        print(f"pages through r = {res.pages[-1].index}; E_inf entries: {len(res.e_infinity)}")
        if "short_exact_sequences" in payload:
            for s in payload["short_exact_sequences"]:
                print(s)
    _emit(args, payload)
    return 0


# ---------------------------------------------------------------------------
# kpredict

def cmd_kpredict(args):
    spec = _load_spec(args)
    lo, _, hi = args.range.partition("..")
    try:
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise DrwittError(f"--range needs integer bounds LO..HI, got {args.range!r}") from None
    if lo != 0:
        raise DrwittError("prediction tables start at degree 0")
    if hi < lo:
        raise DrwittError(f"--range bounds are reversed: {args.range!r}")
    table = k_predict(spec, hi, args.modp)
    if args.markdown and not args.json:
        print(table.to_markdown())
    elif not args.json:
        for row in table.rows:
            print(row.degree, row.modulus, str(row.group), row.provenance)
    _emit(args, {"command": "kpredict", **table.to_json()})
    return 0


# ---------------------------------------------------------------------------
# parser

def build_parser():
    ap = argparse.ArgumentParser(
        prog="drwitt",
        description="Exact characteristic-p invariants for a curated ring family",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="verb", required=True)

    def common(sp, ring=True):
        sp.add_argument("--json", action="store_true")
        sp.add_argument("--manifest", default=None)
        if ring:
            sp.add_argument("--ring", required=True)

    w = sub.add_parser("witt", help="Witt vector arithmetic")
    w.add_argument("operation", choices=["add", "mul", "neg", "teich", "frob", "versch", "restrict", "ghost"])
    w.add_argument("components", nargs="+", help="comma-separated components per vector")
    w.add_argument("--p", type=int, default=2)
    w.add_argument("--len", type=int, default=2)
    w.add_argument("--ring", default=None)
    w.add_argument("--json", action="store_true")
    w.add_argument("--manifest", default=None)
    w.set_defaults(func=cmd_witt)

    d = sub.add_parser("derham", help="de Rham cohomology tables")
    d.add_argument("table", choices=["table"])
    common(d)
    d.add_argument("--maxdeg", type=int, default=2)
    d.add_argument("--weight-cap", type=int, default=6)
    d.set_defaults(func=cmd_derham)

    c = sub.add_parser("cartier-check", help="inverse Cartier bijectivity")
    common(c)
    c.add_argument("--maxdeg", type=int, default=2)
    c.add_argument("--weight-cap", type=int, default=6)
    c.set_defaults(func=cmd_cartier_check)

    dr = sub.add_parser("drw", help="de Rham-Witt strict level tables")
    dr.add_argument("table", choices=["table"])
    common(dr)
    dr.add_argument("--level", type=int, default=2)
    dr.add_argument("--maxdeg", type=int, default=2)
    dr.add_argument("--weight-cap", type=int, default=4)
    dr.add_argument("--operators", action="store_true")
    dr.set_defaults(func=cmd_drw)

    sy = sub.add_parser("syntomic", help="mod-p^r syntomic cohomology")
    common(sy)
    sy.add_argument("--twist", type=int, required=True)
    sy.add_argument("--modp", type=int, required=True)
    sy.add_argument("--maxdeg", type=int, default=3)
    sy.add_argument("--weight-cap", type=int, default=4)
    sy.set_defaults(func=cmd_syntomic)

    lf = sub.add_parser("logforms", help="logarithmic de Rham-Witt lattices")
    common(lf)
    lf.add_argument("--deg", type=int, required=True)
    lf.add_argument("--modp", type=int, required=True)
    lf.set_defaults(func=cmd_logforms)

    ch = sub.add_parser("check", help="verification suites (exit 2 on failure)")
    ch.add_argument("which", choices=["fundamental-seq", "nygaard-graded", "nygaard-complete"])
    common(ch)
    ch.add_argument("--twist", type=int, default=1)
    ch.add_argument("--modp", type=int, default=1)
    ch.add_argument("--maxdeg", type=int, default=3)
    ch.add_argument("--weight-cap", type=int, default=4)
    ch.set_defaults(func=cmd_check)

    ss = sub.add_parser("specseq", help="spectral sequences of filtered complexes")
    ss.add_argument("run", choices=["run"])
    ss.add_argument("--input", required=True)
    ss.add_argument("--pages", type=int, default=None)
    ss.add_argument("--two-column", action="store_true")
    ss.add_argument("--json", action="store_true")
    ss.add_argument("--manifest", default=None)
    ss.set_defaults(func=cmd_specseq)

    kp = sub.add_parser("kpredict", help="K-theory prediction tables")
    common(kp)
    kp.add_argument("--range", default="0..4")
    kp.add_argument("--modp", type=int, default=1)
    kp.add_argument("--markdown", action="store_true")
    kp.set_defaults(func=cmd_kpredict)
    return ap


# least accepted value of each numeric flag that has a floor
FLAG_FLOORS = {"level": 1, "modp": 1, "twist": 0, "maxdeg": 0, "weight_cap": 0, "deg": 0}


def _check_flag_floors(args):
    for name, least in FLAG_FLOORS.items():
        value = getattr(args, name, None)
        if value is not None and value < least:
            flag = name.replace("_", "-")
            raise DrwittError(f"--{flag} must be at least {least}, got {value}")


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    args._t0 = time.time()
    try:
        _check_flag_floors(args)
        return args.func(args)
    except CheckFailure as e:
        print(f"check failed: {e}", file=sys.stderr)
        return 2
    except DrwittError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
