"""CLI surface: parsing, exit codes, determinism, manifests."""

import json
import os
import subprocess
import sys

import pytest

import drwitt
from drwitt.cli import _wkey_str, main
from drwitt.dieudonne import saturate, strict_truncate
from drwitt.errors import ParseError
from drwitt.rings import PRIME_BOUND, parse_ringspec
from drwitt.synlog import syntomic


@pytest.fixture
def rings(tmp_path):
    files = {}
    for name, text in {
        "fp": "p = 3\nkind = finite_field\n",
        "f8": "p = 2\nkind = finite_field\nf = 3\n",
        "poly": "p = 2\nkind = poly\nvars = x:1\n",
        "lau": "p = 2\nkind = laurent\nvars = x:1\n",
        "cusp": "p = 2\nkind = quotient\nvars = x:2, y:3\nrels = y^2 - x^3\n",
        "hugep": f"p = {PRIME_BOUND}\nkind = finite_field\n",
        "perf2": "p = 2\nkind = perfection of poly\nvars = x:1, y:1\n",
    }.items():
        f = tmp_path / f"{name}.ring"
        f.write_text(text)
        files[name] = str(f)
    return files


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


# ---------------------------------------------------------------------------
# ring-spec parsing contracts

def test_parse_examples():
    s = parse_ringspec("p = 3\nkind = poly\nvars = x:1")
    assert s.kind == "poly" and s.p == 3
    s = parse_ringspec("p = 2\nkind = finite_field\nf = 3")
    assert s.f == 3
    s = parse_ringspec("p = 2\nkind = quotient\nvars = x:2, y:3\nrels = y^2 - x^3")
    assert len(s.relations) == 1


def test_parse_rejects_inhomogeneous_with_position():
    from drwitt.errors import NonQuasiHomogeneous

    with pytest.raises(NonQuasiHomogeneous):
        parse_ringspec("p = 2\nkind = quotient\nvars = x:2, y:3\nrels = y^2 - x")


def test_parse_error_carries_line():
    with pytest.raises(ParseError) as exc:
        parse_ringspec("p = 2\nkind = poly\nvars = x:1\nbogus = 3")
    assert "line 4" in str(exc.value)


# ---------------------------------------------------------------------------
# verbs and exit codes

def test_witt_verbs(rings, capsys):
    code, out = run_cli(["witt", "add", "1,0", "1,0", "--p", "2", "--len", "2"], capsys)
    assert code == 0 and "(0, 1)" in out
    code, out = run_cli(["witt", "ghost", "2,3", "--p", "3", "--len", "2"], capsys)
    assert code == 0 and "[2, 17]" in out  # 2^3 + 3*3
    code, out = run_cli(["witt", "teich", "x", "--p", "2", "--len", "2", "--ring", rings["poly"]], capsys)
    assert code == 0 and "(x, 0)" in out


def test_kpredict_json_payload(rings, capsys):
    code, out = run_cli(
        ["kpredict", "--ring", rings["fp"], "--range", "0..5", "--modp", "2", "--json"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == 1
    row0 = [r for r in doc["rows"] if r["degree"] == 0 and r["modulus"] == "p^2"][0]
    assert row0["group"] == {"torsion": ["3^2"], "free_rank": 0}
    zeros = [r for r in doc["rows"] if r["degree"] > 0 and r["modulus"] == "p^2"]
    assert all(r["group"]["torsion"] == [] for r in zeros)


def test_check_exit_codes(rings, capsys):
    code, _ = run_cli(
        ["check", "fundamental-seq", "--ring", rings["fp"], "--twist", "1", "--modp", "2"], capsys
    )
    assert code == 0
    # quotient kinds have no de Rham-Witt model: operational error, not failure
    code, _ = run_cli(
        ["check", "fundamental-seq", "--ring", rings["cusp"], "--twist", "1", "--modp", "1"], capsys
    )
    assert code == 1


def test_cartier_check_failure_is_exit_2(tmp_path, capsys):
    bad = tmp_path / "dual.ring"
    bad.write_text("p = 3\nkind = quotient\nvars = x:1\nrels = x^2\n")
    code, out = run_cli(["cartier-check", "--ring", str(bad), "--maxdeg", "1", "--weight-cap", "6"], capsys)
    assert code == 2 and "fails" in out


def test_specseq_run(tmp_path, capsys):
    doc = {
        "ring": {"kind": "Zmod", "p": 2, "N": 6},
        "window": [0, 1],
        "two_column": True,
        "levels": [
            {"n": 0, "complex": {"0": {"gens": 1, "rels": [[16]]}}},
            {"n": 1, "complex": {"0": {"gens": 1, "rels": [[4]]}}, "map_to_prev": {"0": [[4]]}},
        ],
    }
    f = tmp_path / "in.json"
    f.write_text(json.dumps(doc))
    code, out = run_cli(["specseq", "run", "--input", str(f), "--json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["short_exact_sequences"][0]["order_equation"] is True


def test_json_determinism_and_manifest(rings, tmp_path, capsys):
    man1 = tmp_path / "m1.json"
    man2 = tmp_path / "m2.json"
    _, out1 = run_cli(
        ["syntomic", "--ring", rings["fp"], "--twist", "0", "--modp", "2", "--json", "--manifest", str(man1)],
        capsys,
    )
    _, out2 = run_cli(
        ["syntomic", "--ring", rings["fp"], "--twist", "0", "--modp", "2", "--json", "--manifest", str(man2)],
        capsys,
    )
    assert out1 == out2  # byte-identical payloads
    m1 = json.loads(man1.read_text())
    m2 = json.loads(man2.read_text())
    assert m1["outputs_digest"] == m2["outputs_digest"]
    assert m1["ring_spec_sha256"] == m2["ring_spec_sha256"]
    assert "wall_time_s" in m1


def test_drw_table_json(rings, capsys):
    code, out = run_cli(
        ["drw", "table", "--ring", rings["f8"], "--level", "2", "--maxdeg", "1", "--weight-cap", "2", "--json"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["groups"]["0"]["0"] == {
        "torsion": ["2^2", "2^2", "2^2"],
        "free_rank": 0,
        "stable": True,
    }
    assert "1" not in doc["groups"] or not doc["groups"]["1"]


def test_logforms_json(rings, capsys):
    code, out = run_cli(["logforms", "--ring", rings["lau"], "--deg", "1", "--modp", "2", "--json"], capsys)
    doc = json.loads(out)
    assert doc["group"] == {"torsion": ["2^2"], "free_rank": 0}
    assert doc["symbols"] == ["dlog x"]


def test_entry_point_runs():
    # the child imports the same drwitt as this test, installed or not
    src = os.path.dirname(os.path.dirname(drwitt.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "drwitt.cli", "--version"], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0


# ---------------------------------------------------------------------------
# input boundary and process state

@pytest.mark.parametrize("guard", [None, "3"])
def test_syntomic_leaves_environment_unchanged(rings, capsys, monkeypatch, guard):
    # the package reads no DRWITT_PRECISION_GUARD; set or unset, the run must not touch it
    if guard is None:
        monkeypatch.delenv("DRWITT_PRECISION_GUARD", raising=False)
    else:
        monkeypatch.setenv("DRWITT_PRECISION_GUARD", guard)
    before = dict(os.environ)
    code, _ = run_cli(["syntomic", "--ring", rings["fp"], "--twist", "0", "--modp", "1", "--json"], capsys)
    assert code == 0
    assert dict(os.environ) == before


def test_syntomic_stable_flag_reruns_at_precision_plus_one(rings, capsys, monkeypatch):
    runs = []

    def recording(*args, **kwargs):
        S = syntomic(*args, **kwargs)
        runs.append(S.R)
        return S

    monkeypatch.setattr("drwitt.cli.syntomic", recording)
    code, out = run_cli(["syntomic", "--ring", rings["fp"], "--twist", "0", "--modp", "1", "--json"], capsys)
    assert code == 0
    assert runs == [runs[0], runs[0] + 1]
    assert all(cell["stable"] for cell in json.loads(out)["cohomology"].values())


@pytest.fixture
def bad_inputs(tmp_path):
    # a filtered complex whose level has d o d != 0 in degree 0
    notcx = {
        "ring": {"kind": "Zmod", "p": 2, "N": 2},
        "window": [0, 0],
        "levels": [
            {
                "n": 0,
                "complex": {"0": {"gens": 1}, "1": {"gens": 1}, "2": {"gens": 1}},
                "d": {"0": [[1]], "1": [[1]]},
            }
        ],
    }
    (tmp_path / "notcx.json").write_text(json.dumps(notcx))
    (tmp_path / "notjson.json").write_text("{levels")
    # no "ring" key
    (tmp_path / "noring.json").write_text(json.dumps({k: v for k, v in notcx.items() if k != "ring"}))
    # a degree-0 differential with two rows on a one-generator module
    badshape = dict(notcx, levels=[{"n": 0, "complex": {"0": {"gens": 1}, "1": {"gens": 1}}, "d": {"0": [[1], [1]]}}])
    (tmp_path / "badshape.json").write_text(json.dumps(badshape))
    # rows of the wrong width: a relation, a transition and a differential
    level = {"n": 0, "complex": {"0": {"gens": 1}}}
    widerel = dict(notcx, levels=[dict(level, complex={"0": {"gens": 1, "rels": [[1, 2]]}})])
    (tmp_path / "widerel.json").write_text(json.dumps(widerel))
    widemap = dict(notcx, window=[0, 1], levels=[level, dict(level, n=1, map_to_prev={"0": [[1, 1]]})])
    (tmp_path / "widemap.json").write_text(json.dumps(widemap))
    widediff = dict(notcx, levels=[{"n": 0, "complex": {"0": {"gens": 1}, "1": {"gens": 1}}, "d": {"0": [[1, 0, 3]]}}])
    (tmp_path / "widediff.json").write_text(json.dumps(widediff))
    # a reversed window; entries keyed by a degree without a module
    (tmp_path / "reversed.json").write_text(json.dumps(dict(notcx, window=[1, 0], levels=[level])))
    straydiff = dict(notcx, levels=[dict(level, d={"5": [[1, 2]]})])
    (tmp_path / "straydiff.json").write_text(json.dumps(straydiff))
    straymap = dict(notcx, window=[0, 1], levels=[level, dict(level, n=1, map_to_prev={"7": [[1, 1]]})])
    (tmp_path / "straymap.json").write_text(json.dumps(straymap))
    # Zmod with p not a prime
    for p in (1, 4):
        zmod = dict(notcx, ring={"kind": "Zmod", "p": p, "N": 2}, levels=[level])
        (tmp_path / f"zmodp{p}.json").write_text(json.dumps(zmod))
    # Zmod with p at the bound where the primality test stops being exact
    zmod = dict(notcx, ring={"kind": "Zmod", "p": PRIME_BOUND, "N": 2}, levels=[level])
    (tmp_path / "zmodhuge.json").write_text(json.dumps(zmod))
    names = (
        "missing", "notcx", "notjson", "noring", "badshape", "widerel", "widemap", "widediff",
        "reversed", "straydiff", "straymap", "zmodp1", "zmodp4", "zmodhuge",
    )
    return {name: str(tmp_path / f"{name}.json") for name in names}


@pytest.mark.parametrize(
    "argv",
    [
        ["syntomic", "--ring", "{fp}", "--twist", "1", "--modp", "0"],
        ["drw", "table", "--ring", "{poly}", "--level", "0"],
        ["kpredict", "--ring", "{fp}", "--range", "0..x"],
        ["syntomic", "--ring", "{fp}", "--twist", "-1", "--modp", "1"],
        ["logforms", "--ring", "{lau}", "--deg", "1", "--modp", "0"],
        ["drw", "table", "--ring", "{missing}"],
        ["specseq", "run", "--input", "{missing}"],
        ["specseq", "run", "--input", "{notjson}"],
        ["specseq", "run", "--input", "{notcx}"],
        ["specseq", "run", "--input", "{noring}"],
        ["specseq", "run", "--input", "{badshape}"],
        ["specseq", "run", "--input", "{widerel}"],
        ["specseq", "run", "--input", "{widemap}"],
        ["specseq", "run", "--input", "{widediff}"],
        ["specseq", "run", "--input", "{reversed}"],
        ["specseq", "run", "--input", "{straydiff}"],
        ["specseq", "run", "--input", "{straymap}"],
        ["specseq", "run", "--input", "{zmodp1}"],
        ["specseq", "run", "--input", "{zmodp4}"],
        ["specseq", "run", "--input", "{zmodhuge}"],
        ["drw", "table", "--ring", "{hugep}"],
        ["derham", "table", "--ring", "{poly}", "--weight-cap", "-3"],
        ["syntomic", "--ring", "{fp}", "--twist", "1", "--modp", "1", "--maxdeg", "-2"],
        ["logforms", "--ring", "{lau}", "--deg", "-1", "--modp", "1"],
        ["kpredict", "--ring", "{fp}", "--range", "0..-3"],
        ["drw", "table", "--ring", "{perf2}"],
        ["syntomic", "--ring", "{perf2}", "--twist", "1", "--modp", "1"],
        ["witt", "ghost", "a,b", "--p", "2"],
    ],
    ids=[
        "syntomic-modp-0",
        "drw-level-0",
        "kpredict-range-x",
        "syntomic-twist-neg",
        "logforms-modp-0",
        "drw-ring-missing",
        "specseq-input-missing",
        "specseq-input-not-json",
        "specseq-not-a-complex",
        "specseq-no-ring",
        "specseq-bad-shape",
        "specseq-wide-relation",
        "specseq-wide-transition",
        "specseq-wide-differential",
        "specseq-window-reversed",
        "specseq-stray-differential",
        "specseq-stray-transition",
        "specseq-zmod-p-1",
        "specseq-zmod-p-4",
        "specseq-zmod-p-past-prime-bound",
        "drw-p-past-prime-bound",
        "derham-weight-cap-neg",
        "syntomic-maxdeg-neg",
        "logforms-deg-neg",
        "kpredict-range-reversed",
        "drw-perfection-two-vars",
        "syntomic-perfection-two-vars",
        "witt-ghost-non-integer",
    ],
)
def test_bad_flags_are_one_line_errors(rings, bad_inputs, capsys, argv):
    code = main([a.format(**rings, **bad_inputs) for a in argv])
    captured = capsys.readouterr()
    assert code == 1
    assert "Traceback" not in captured.err
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert captured.out == ""


# ---------------------------------------------------------------------------
# rings without variables live at weight 0 only


def test_drw_table_on_a_large_prime_field(tmp_path, capsys):
    ring = tmp_path / "gf.ring"
    ring.write_text("p = 1000003\nkind = finite_field\n")
    code, out = run_cli(["drw", "table", "--ring", str(ring), "--json"], capsys)
    assert code == 0
    want = {"0": {"0": {"free_rank": 0, "stable": True, "torsion": ["1000003^2"]}}}
    assert json.loads(out)["groups"] == want


HUGE_P = 1000000000000000000000007


@pytest.mark.parametrize(
    "kind,argv",
    [
        ("finite_field", ["drw", "table"]),
        ("finite_field", ["derham", "table"]),
        ("perfection of finite_field", ["derham", "table"]),
    ],
)
def test_tables_on_a_huge_prime_field_finish(tmp_path, kind, argv):
    # invariant factors that are powers of the ring's prime are never factored
    ring = tmp_path / "gf.ring"
    ring.write_text(f"p = {HUGE_P}\nkind = {kind}\n")
    src = os.path.dirname(os.path.dirname(drwitt.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    cmd = [sys.executable, "-m", "drwitt.cli", *argv, "--ring", str(ring), "--json"]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0 and "Traceback" not in proc.stderr
    doc = json.loads(proc.stdout)
    if argv[0] == "drw":
        assert doc["groups"]["0"]["0"]["torsion"] == [f"{HUGE_P}^2"]
    else:
        assert doc["cohomology"]["0"]["0"]["torsion"] == [f"{HUGE_P}^1"]


@pytest.mark.parametrize("kind", ["finite_field", "perfection of finite_field"])
@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("f", [1, 2])
def test_drw_table_without_variables_equals_the_full_window(tmp_path, capsys, kind, p, f):
    text = f"p = {p}\nkind = {kind}\nf = {f}\n"
    ring = tmp_path / "gf.ring"
    ring.write_text(text)
    argv = ["drw", "table", "--ring", str(ring), "--level", "2", "--maxdeg", "1", "--weight-cap", "3", "--json"]
    code, out = run_cli(argv, capsys)
    assert code == 0
    # the groups cmd_drw reported before it skipped the window: every weight of it
    spec = parse_ringspec(text)
    model = saturate(spec, 2, 1)
    level = strict_truncate(model, 2)
    bumped = strict_truncate(saturate(spec, 2, 1, R=model.R + 1), 2)
    want = {}
    for u in level.weights(3):
        for n in range(model.top + 1):
            inv = level.invariants(n, u)
            if not inv.is_trivial():
                cell = dict(inv.to_json(p), stable=bumped.invariants(n, u) == inv)
                want.setdefault(str(n), {})[_wkey_str(u)] = cell
    assert want and json.loads(out)["groups"] == want
