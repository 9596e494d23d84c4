"""Command-line front end: ring specs in, deterministic JSON out.

Exit codes: 0 success, 1 operational error (`error: ...` on stderr) or
internal error (`internal error: <type>: ...`), 2 check-failure (a
verification verb ran fine and the checked property is false).  Payloads
are deterministic (sorted keys, no timestamps); `--manifest PATH` writes
a separate run manifest carrying the wall time and the payload digest,
so re-running a manifest's command reproduces byte-identical output.
`witt`, `filtspec` and `kpredict` are imported inside the verbs that use
them, so no other verb pays for them at start-up.  The size budgets are
in `budgets`; the only one counted here is a `specseq` document's `Zmod`
ring, since it builds no model.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction
from pathlib import Path

from . import __version__, budgets
from .dieudonne import saturate, strict_truncate
from .derham import cartier_smooth_check, derham_table
from .errors import DrwittError, PrecisionExhausted
from .exactcore import FinComplex, FinModPresentation, ZZ, ZmodRing
from .rings import MonomialAlgebra, is_prime, parse_ringspec
from .synlog import (
    log_lattice,
    nygaard_completeness_check,
    nygaard_graded_check,
    syntomic,
    verify_fundamental_seq,
)

SCHEMA_VERSION = 1


def _read(path):
    try:
        return Path(path).read_text()
    except OSError as e:
        raise DrwittError(f"cannot read {path}: {e.strerror}") from None


def _load_spec(args):
    """Parse the --ring file; its text is digested into the run manifest."""
    args._ring_text = _read(args.ring)
    return parse_ringspec(args._ring_text)


def _wkey_str(w):
    w = Fraction(w)
    return str(int(w)) if w.denominator == 1 else f"{w.numerator}/{w.denominator}"


def _emit(args, payload):
    payload = {"schema_version": SCHEMA_VERSION, **payload}
    text = json.dumps(payload, sort_keys=True, indent=2 if args.json else None)
    if args.json:
        print(text)
    if getattr(args, "manifest", None):
        import hashlib  # only a manifest needs digests and quoting
        import shlex

        manifest = {
            "command": shlex.join(args._argv),
            "tool_version": __version__,
            "outputs_digest": hashlib.sha256(text.encode()).hexdigest(),
            "wall_time_s": round(time.time() - args._t0, 3),
        }
        if getattr(args, "_ring_text", None) is not None:
            manifest["ring_spec_sha256"] = hashlib.sha256(args._ring_text.encode()).hexdigest()
        Path(args.manifest).write_text(json.dumps(manifest, sort_keys=True, indent=2))
    return payload


# ---------------------------------------------------------------------------
# witt verb

def cmd_witt(args):
    from .witt import IntegerMonomialAlgebra, WittRing, frobenius, ghost, restriction, verschiebung
    from .witt import witt_add, witt_mul, witt_neg

    if args.ring:
        spec = _load_spec(args)
        if args.p is not None and args.p != spec.p:
            raise DrwittError(f"--p {args.p} contradicts the ring's p = {spec.p}")
    else:
        p = 2 if args.p is None else args.p
        if not is_prime(p):
            raise DrwittError(f"witt needs a prime --p, got {p}")
        spec = parse_ringspec(f"p = {p}\nkind = finite_field")
    alg = MonomialAlgebra(spec)
    W = WittRing(alg, args.len)
    op = args.operation

    def fmt(v):
        return [v.ring.algebra.format_element(c) for c in v.components]

    binary = op in ("add", "mul")
    if len(args.components) != 1 + binary:
        raise DrwittError(f"witt {op} needs exactly {'two vectors' if binary else 'one vector'}")
    vecs = []
    if op not in ("teich", "ghost"):
        vecs = [W(tuple(alg.parse_element(c) for c in comp.split(","))) for comp in args.components]
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
        Z = IntegerMonomialAlgebra(0)
        WZ = WittRing(Z, args.len, p=spec.p)
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
    table = {
        str(i): {_wkey_str(w): inv.to_json(spec.p) for w, inv in sorted(per.items()) if not inv.is_trivial()}
        for i, per in derham_table(spec, args.maxdeg, args.weight_cap).items()
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
                a = model.num(u)
                ops.setdefault(str(n), {})[_wkey_str(u)] = {
                    "d": model.d_at(n, a),
                    "F": model.frob_at(n, a),
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


# --twist when it is omitted: the twist of the first two checks, the twist cap of the third
CHECK_TWIST_DEFAULTS = {"fundamental-seq": 1, "nygaard-graded": 1, "nygaard-complete": 4}


def cmd_check(args):
    spec = _load_spec(args)
    name = args.which
    twist = args.twist if args.twist is not None else CHECK_TWIST_DEFAULTS[name]
    if name == "fundamental-seq":
        rep = verify_fundamental_seq(spec, twist, args.modp, args.maxdeg, args.weight_cap)
        ok = (
            rep["off_degree_vanishing"]
            and all(okk for side in rep["invertibility"].values() for okk, _ in side.values())
            and rep["verdict"] in ("EQUAL", "CONTAINS")
        )
        payload = {
            "command": "check fundamental-seq",
            "ring": spec.describe(),
            "twist": twist,
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
        ok = nygaard_graded_check(spec, twist, args.weight_cap)
        payload = {
            "command": "check nygaard-graded",
            "ring": spec.describe(),
            "twist": twist,
            "pass": ok,
        }
    elif name == "nygaard-complete":
        ok = nygaard_completeness_check(spec, twist, args.weight_cap)
        payload = {
            "command": "check nygaard-complete",
            "ring": spec.describe(),
            "twist_cap": twist,
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
        p, N = _field(obj, "p", "ring"), _field(obj, "N", "ring")
        if not is_prime(p) or N < 1:
            raise DrwittError(f"Zmod needs a prime p and N >= 1, got p = {p}, N = {N}")
        budgets.refuse_past(
            (p, N),
            budgets.ZMOD_BITS_MAX,
            PrecisionExhausted,
            f"Zmod with p = {p}, N = {N} needs residues of more than {budgets.ZMOD_BITS_MAX} bits, the precision budget",
        )
        return ZmodRing(p, N)
    raise DrwittError(f"unknown coefficient ring {obj!r}")


def _field(obj, key, where, kind=int):
    """obj[key], once it is a JSON integer (true and false are not), object
    or list, as kind says; "gens" must also be >= 0."""
    x = obj[key]
    if type(x) is not kind or (key == "gens" and x < 0):
        what = {int: "an integer", dict: "an object", list: "a list"}[kind]
        what = "a nonnegative integer" if key == "gens" else what
        raise DrwittError(f"{where} has {json.dumps(key)} = {json.dumps(x)}, which is not {what}")
    return x


def _int_matrix(mat, n, key, deg):
    """mat, once it is a list of rows of integers (JSON true and false are not)."""
    rows = isinstance(mat, list) and all(isinstance(row, list) for row in mat)
    if not rows or any(type(x) is not int for row in mat for x in row):
        raise DrwittError(f'level {n} has "{key}" at degree {deg} that is not a list of integer rows')
    return mat


def _by_degree(entry, mods, n, key):
    """{degree: matrix} from a level's "d" or "map_to_prev" entry; each degree needs a module."""
    mats = _field(entry, key, f"level {n}", dict) if key in entry else {}
    out = {int(deg): _int_matrix(mat, n, key, deg) for deg, mat in mats.items()}
    stray = sorted(set(out) - set(mods))
    if stray:
        raise DrwittError(f'level {n} has "{key}" at degree {stray[0]}, which has no module')
    return out


def load_filtered_complex(doc):
    """The FilteredComplex a specseq document describes."""
    from .filtspec import FilteredComplex

    try:
        ring = _parse_ring_json(_field(doc, "ring", "specseq input", dict))
        window = doc["window"]
        if type(window) is not list or len(window) != 2 or any(type(x) is not int for x in window):
            raise DrwittError(f'specseq "window" = {json.dumps(window)} is not a list of two integers')
        lo, hi = window
        if lo > hi:
            raise DrwittError(f"specseq window is reversed: {window!r}")
        levels = {}
        maps = {}
        entries = _field(doc, "levels", "specseq input", list)
        for i in range(len(entries)):
            entry = _field(entries, i, 'specseq "levels"', dict)
            n = _field(entry, "n", f"levels[{i}]")
            if n in levels:
                raise DrwittError(f'levels[{i}] repeats "n" = {n}')
            if not lo <= n <= hi:
                raise DrwittError(f'levels[{i}] has "n" = {n}, outside the window {window}')
            if n == lo and "map_to_prev" in entry:
                raise DrwittError(f'level {n} has "map_to_prev", but it is the lowest level of the window {window}')
            mods = {}
            cx = _field(entry, "complex", f"level {n}", dict)
            for deg in cx:
                m = _field(cx, deg, f'level {n} "complex"', dict)
                rels = _int_matrix(m.get("rels", []), n, "rels", deg)
                mods[int(deg)] = FinModPresentation(ring, _field(m, "gens", f"level {n} at degree {deg}"), rels)
            levels[n] = FinComplex(ring, mods, _by_degree(entry, mods, n, "d"))
            if "map_to_prev" in entry:
                maps[n - 1] = _by_degree(entry, mods, n, "map_to_prev")
        missing = next((m for m in range(lo, hi + 1) if m not in levels), None)
        if missing is not None:
            raise DrwittError(f'specseq "window" = {json.dumps(window)} has no entry in "levels" for level {missing}')
        return FilteredComplex(ring, lo, hi, levels, maps)
    except (KeyError, ValueError, TypeError, AttributeError) as e:
        raise DrwittError(f"malformed specseq input: {type(e).__name__}: {e}") from None


def cmd_specseq(args):
    from .filtspec import spectral_sequence, two_column_extract

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
    from .kpredict import k_predict

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

class _Parser(argparse.ArgumentParser):
    """Usage errors raise a DrwittError (exit 1) instead of exiting 2 with usage text."""

    def error(self, message):
        raise DrwittError(message)


VERBS = ("witt", "derham", "cartier-check", "drw", "syntomic", "logforms", "check", "specseq", "kpredict")


def build_parser(verb=None):
    """The CLI parser.  Given one of VERBS, only that verb's subparser is
    built: argparse then never reaches another one, so each message it
    gives is the full parser's.  Any other verb (None, an unknown name,
    --help, --version) builds them all."""

    def wanted(name):
        return verb not in VERBS or verb == name

    ap = _Parser(
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

    if wanted("witt"):
        w = sub.add_parser("witt", help="Witt vector arithmetic")
        w.add_argument("operation", choices=["add", "mul", "neg", "teich", "frob", "versch", "restrict", "ghost"])
        w.add_argument("components", nargs="+", help="comma-separated components per vector")
        w.add_argument("--p", type=int, default=None, help="default 2; with --ring it must equal the ring's p")
        w.add_argument("--len", type=int, default=2)
        w.add_argument("--ring", default=None)
        common(w, ring=False)
        w.set_defaults(func=cmd_witt)

    if wanted("derham"):
        d = sub.add_parser("derham", help="de Rham cohomology tables")
        d.add_argument("table", choices=["table"])
        common(d)
        d.add_argument("--maxdeg", type=int, default=2)
        d.add_argument("--weight-cap", type=int, default=6)
        d.set_defaults(func=cmd_derham)

    if wanted("cartier-check"):
        c = sub.add_parser("cartier-check", help="inverse Cartier bijectivity")
        common(c)
        c.add_argument("--maxdeg", type=int, default=2)
        c.add_argument("--weight-cap", type=int, default=6)
        c.set_defaults(func=cmd_cartier_check)

    if wanted("drw"):
        dr = sub.add_parser("drw", help="de Rham-Witt strict level tables")
        dr.add_argument("table", choices=["table"])
        common(dr)
        dr.add_argument("--level", type=int, default=2)
        dr.add_argument("--maxdeg", type=int, default=2)
        dr.add_argument("--weight-cap", type=int, default=4)
        dr.add_argument("--operators", action="store_true")
        dr.set_defaults(func=cmd_drw)

    if wanted("syntomic"):
        sy = sub.add_parser("syntomic", help="mod-p^r syntomic cohomology")
        common(sy)
        sy.add_argument("--twist", type=int, required=True)
        sy.add_argument("--modp", type=int, required=True)
        sy.add_argument("--maxdeg", type=int, default=3)
        sy.add_argument("--weight-cap", type=int, default=4)
        sy.set_defaults(func=cmd_syntomic)

    if wanted("logforms"):
        lf = sub.add_parser("logforms", help="logarithmic de Rham-Witt lattices")
        common(lf)
        lf.add_argument("--deg", type=int, required=True)
        lf.add_argument("--modp", type=int, required=True)
        lf.set_defaults(func=cmd_logforms)

    if wanted("check"):
        ch = sub.add_parser("check", help="verification suites (exit 2 on failure)")
        ch.add_argument("which", choices=["fundamental-seq", "nygaard-graded", "nygaard-complete"])
        common(ch)
        ch.add_argument("--twist", type=int, default=None, help="default 1; for nygaard-complete a twist cap, default 4")
        ch.add_argument("--modp", type=int, default=1)
        ch.add_argument("--maxdeg", type=int, default=3)
        ch.add_argument("--weight-cap", type=int, default=4)
        ch.set_defaults(func=cmd_check)

    if wanted("specseq"):
        ss = sub.add_parser("specseq", help="spectral sequences of filtered complexes")
        ss.add_argument("run", choices=["run"])
        ss.add_argument("--input", required=True)
        ss.add_argument("--pages", type=int, default=None)
        ss.add_argument("--two-column", action="store_true")
        common(ss, ring=False)
        ss.set_defaults(func=cmd_specseq)

    if wanted("kpredict"):
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
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = build_parser(argv[0] if argv else None).parse_args(argv)
        args._t0 = time.time()
        args._argv = argv
        _check_flag_floors(args)
        return args.func(args)
    except DrwittError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except Exception as e:
        # a defect, not a bad input: its own prefix keeps the two apart
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
