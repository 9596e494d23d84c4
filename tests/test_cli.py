"""CLI surface: parsing, exit codes, determinism, manifests."""

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import pkgutil
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import drwitt
from drwitt.cli import _wkey_str, load_filtered_complex, main
from drwitt.dieudonne import saturate, strict_truncate
from drwitt.errors import DrwittError, ParseError
from drwitt.filtspec import spectral_sequence
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


@pytest.mark.parametrize(
    "ring, argv, want",
    [
        # p = 3, f = 2: GF(9) = GF(3)[t]/(t^2 + 1), so t^3 = 2t and t^4 = 1
        ("gf9x", ["add", "t*x,1", "x,t"], "((1+t)*x, (1+t) + (1+2t)*x^3)"),
        ("gf9x", ["mul", "t*x,1", "x,t"], "(t*x^2, 2*x^3)"),
        ("gf9x", ["frob", "t*x,1"], "(2t*x^3)"),
        ("gf9x", ["versch", "t*x,1"], "(0, t*x, 1)"),
        ("gf9x", ["restrict", "t*x,1"], "(t*x)"),
        # p = 2: -(a, b) = (a, b + a^2)
        ("perf", ["neg", "x^(1/4),1"], "(x^(1/4), 1 + x^(1/2))"),
    ],
    ids=["gf9x-add", "gf9x-mul", "gf9x-frob", "gf9x-versch", "gf9x-restrict", "perf-neg"],
)
def test_witt_prints_field_digits_and_fractional_exponents(tmp_path, capsys, ring, argv, want):
    path = tmp_path / f"{ring}.ring"
    path.write_text({
        "gf9x": "p = 3\nkind = poly\nvars = x:1\nf = 2\n",
        "perf": "p = 2\nkind = perfection of poly\nvars = x:1\n",
    }[ring])
    code, out = run_cli(["witt", *argv, "--ring", str(path)], capsys)
    assert code == 0 and out == want + "\n"


# every verb and mode with its own non-JSON print path
PRINTING_VERBS = {
    "witt-add": ["witt", "add", "1,0", "1,1"],
    "witt-mul": ["witt", "mul", "1,1", "1,1"],
    "witt-neg": ["witt", "neg", "1,1"],
    "witt-teich": ["witt", "teich", "1"],
    "witt-frob": ["witt", "frob", "1,1"],
    "witt-versch": ["witt", "versch", "1,1"],
    "witt-restrict": ["witt", "restrict", "1,1"],
    "witt-ghost": ["witt", "ghost", "1,1"],
    "derham": ["derham", "table", "--ring", "{poly}"],
    "cartier-check": ["cartier-check", "--ring", "{poly}"],
    "drw": ["drw", "table", "--ring", "{poly}", "--weight-cap", "2"],
    "syntomic": ["syntomic", "--ring", "{fp}", "--twist", "1", "--modp", "1"],
    "logforms": ["logforms", "--ring", "{lau}", "--deg", "1", "--modp", "2"],
    "check-fundamental-seq": ["check", "fundamental-seq", "--ring", "{fp}"],
    "check-nygaard-graded": ["check", "nygaard-graded", "--ring", "{fp}"],
    "check-nygaard-complete": ["check", "nygaard-complete", "--ring", "{fp}"],
    "specseq": ["specseq", "run", "--input", "{specseq}", "--two-column"],
    "kpredict": ["kpredict", "--ring", "{fp}"],
    "kpredict-markdown": ["kpredict", "--ring", "{fp}", "--markdown"],
}


@pytest.mark.parametrize("argv", list(PRINTING_VERBS.values()), ids=list(PRINTING_VERBS))
def test_every_verb_prints_without_json(rings, tmp_path, capsys, argv):
    doc = tmp_path / "specseq.json"
    doc.write_text(json.dumps(SPECSEQ_DOC))
    paths = {**rings, "specseq": str(doc)}
    code, out = run_cli([a.format(**paths) for a in argv], capsys)
    assert code == 0 and out.splitlines() and out.splitlines()[0].strip()


def test_witt_ghost_takes_p_from_the_ring(rings, capsys):
    # fp.ring has p = 3: the ghost components of (1, 1) are 1 and 1^3 + 3*1
    code, out = run_cli(["witt", "ghost", "1,1", "--len", "2", "--ring", rings["fp"]], capsys)
    assert code == 0 and "[1, 4]" in out
    code, out = run_cli(["witt", "ghost", "1,1", "--len", "2", "--p", "3", "--ring", rings["fp"]], capsys)
    assert code == 0 and "[1, 4]" in out
    for op, comps in [("ghost", ["1,1"]), ("add", ["1,0", "1,0"])]:
        code = main(["witt", op, *comps, "--len", "2", "--p", "2", "--ring", rings["fp"]])
        captured = capsys.readouterr()
        assert code == 1 and captured.err == "error: --p 2 contradicts the ring's p = 3\n"
    code = main(["witt", "ghost", "1,1", "--len", "2", "--p", "4"])
    assert code == 1 and capsys.readouterr().err == "error: witt needs a prime --p, got 4\n"


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


def test_kpredict_reads_a_thousand_degrees_on_two_models(tmp_path, capsys):
    # one model per level serves every degree, so GF(2^16) at --range 0..1000
    # builds two models, not 2002 (each lifting its own Frobenius)
    ring = tmp_path / "gf2_16.ring"
    ring.write_text("p = 2\nkind = finite_field\nf = 16\n")
    start = time.perf_counter()
    code, out = run_cli(["kpredict", "--ring", str(ring), "--range", "0..1000", "--json"], capsys)
    assert time.perf_counter() - start < 2
    assert code == 0
    rows = json.loads(out)["rows"]
    assert len(rows) == 2002 and rows[0]["group"] == {"torsion": ["2^1"], "free_rank": 0}
    assert all(r["group"]["torsion"] == [] for r in rows if r["degree"] > 0)


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


@pytest.mark.parametrize(
    "which, key, callee",
    [
        ("fundamental-seq", "twist", "verify_fundamental_seq"),
        ("nygaard-graded", "twist", "nygaard_graded_check"),
        ("nygaard-complete", "twist_cap", "nygaard_completeness_check"),
    ],
)
@pytest.mark.parametrize("flag", [None, "0", "2"])
def test_check_twist_is_used_and_echoed_as_given(rings, capsys, monkeypatch, which, key, callee, flag):
    # an omitted --twist is 1 for the twisted checks and a twist cap of 4 for
    # nygaard-complete; an explicit value, 0 included, is used as given
    import drwitt.cli as cli

    seen = []
    real = getattr(cli, callee)

    def recording(spec, twist, *rest):
        seen.append(twist)
        return real(spec, twist, *rest)

    monkeypatch.setattr(cli, callee, recording)
    argv = ["check", which, "--ring", rings["fp"], "--weight-cap", "2", "--json"]
    if flag is not None:
        argv += ["--twist", flag]
    code, out = run_cli(argv, capsys)
    want = int(flag) if flag is not None else (4 if which == "nygaard-complete" else 1)
    assert code == 0
    assert seen == [want]
    assert json.loads(out)[key] == want


def test_cartier_check_failure_is_exit_2(tmp_path, capsys):
    bad = tmp_path / "dual.ring"
    bad.write_text("p = 3\nkind = quotient\nvars = x:1\nrels = x^2\n")
    code, out = run_cli(["cartier-check", "--ring", str(bad), "--maxdeg", "1", "--weight-cap", "6"], capsys)
    assert code == 2 and "fails" in out


SPECSEQ_DOC = {
    "ring": {"kind": "Zmod", "p": 2, "N": 6},
    "window": [0, 1],
    "levels": [
        {"n": 0, "complex": {"0": {"gens": 1, "rels": [[16]]}}},
        {"n": 1, "complex": {"0": {"gens": 1, "rels": [[4]]}}, "map_to_prev": {"0": [[4]]}},
    ],
}


def test_specseq_run(tmp_path, capsys):
    f = tmp_path / "in.json"
    f.write_text(json.dumps({**SPECSEQ_DOC, "two_column": True}))
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


def test_an_in_process_manifest_records_the_argv_main_was_given(rings, tmp_path, capsys):
    argv = ["drw", "table", "--ring", rings["poly"], "--level", "1", "--json", "--manifest", str(tmp_path / "m.json")]
    assert main(argv) == 0
    capsys.readouterr()
    assert shlex.split(json.loads((tmp_path / "m.json").read_text())["command"]) == argv


def test_a_manifest_command_reruns_through_a_shell_with_a_spaced_ring_path(tmp_path, capsys):
    ring = tmp_path / "a ring" / "f p.ring"
    ring.parent.mkdir()
    ring.write_text("p = 3\nkind = finite_field\n")
    manifest = tmp_path / "m.json"
    argv = ["syntomic", "--ring", str(ring), "--twist", "0", "--modp", "2", "--json", "--manifest", str(manifest)]
    assert main(argv) == 0
    capsys.readouterr()
    first = json.loads(manifest.read_text())
    manifest.unlink()
    # the recorded command writes the manifest again, at the same path
    src = os.path.dirname(os.path.dirname(drwitt.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        f"{shlex.quote(sys.executable)} -m drwitt.cli {first['command']}",
        shell=True, capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(manifest.read_text())["outputs_digest"] == first["outputs_digest"]


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _benchmark_jobs(workload):
    """The benchmark's jobs of one workload, every variant, and their golden records."""
    loader = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(workloads)
    golden = json.loads((PERFBENCH / "golden.json").read_text())[workload]
    return [(job, golden[job.id]) for job in workloads.all_jobs(workload)]


def test_derham_benchmark_jobs_print_their_golden_payloads(tmp_path, capsys):
    # the benchmark digests a job's --json payload without its trailing newline
    for job, want in _benchmark_jobs("derham_multivar"):
        ring = tmp_path / "job.ring"
        ring.write_text(job.spec)
        code, out = run_cli([*job.argv, "--ring", str(ring), "--json"], capsys)
        digest = hashlib.sha256(out.removesuffix("\n").encode()).hexdigest()
        assert (code, digest) == (want["exit"], want["sha256"]), job.id


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


def test_importing_drwitt_loads_no_dataclasses_or_inspect():
    # -S: no site, so nothing but drwitt's own imports can load a module
    src = os.path.dirname(os.path.dirname(drwitt.__file__))
    names = ["drwitt.cli"] + [m.name for m in pkgutil.walk_packages(drwitt.__path__, "drwitt.")]
    assert "drwitt.exactcore.modules" in names
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import importlib\n"
        f"for name in {names!r}: importlib.import_module(name)\n"
        "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))"
    )
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_importing_the_cli_loads_no_verb_only_module():
    # witt, filtspec and kpredict are imported by the verbs that use them
    src = os.path.dirname(os.path.dirname(drwitt.__file__))
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import drwitt.cli\n"
        "drwitt.cli.build_parser()\n"
        "lazy = ('drwitt.witt', 'drwitt.filtspec', 'drwitt.kpredict', 'copy')\n"
        "print(sorted(m for m in lazy if m in sys.modules))"
    )
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


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


# Z/2 -> Z/8, 1 -> 1: the relation 2 = 0 of the source is not sent to 0
RELATION_BREAKING = {
    "ring": {"kind": "Zmod", "p": 2, "N": 3},
    "window": [0, 1],
    "levels": [
        {"n": 0, "complex": {"0": {"gens": 1}}},
        {"n": 1, "complex": {"0": {"gens": 1, "rels": [[2]]}}, "map_to_prev": {"0": [[1]]}},
    ],
}
# level 0 -> level -1 is the identity in degree 2 but drops degree 1, where
# level 0 has d = 3: f d != d f with level -1 empty in degree 1
NOT_A_CHAIN_MAP = {
    "ring": {"kind": "Z"},
    "window": [-1, 1],
    "levels": [
        {"n": -1, "complex": {"0": {"gens": 2}, "2": {"gens": 1}}},
        {
            "n": 0,
            "complex": {"1": {"gens": 2}, "2": {"gens": 1}},
            "d": {"1": [[3], [0]]},
            "map_to_prev": {"2": [[1]]},
        },
        {"n": 1, "complex": {"1": {"gens": 1}}, "map_to_prev": {"1": [[1, 0]]}},
    ],
}


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
    # transitions that are no chain maps: one ignores a source relation, one
    # drops d into a degree its source lacks
    (tmp_path / "relmap.json").write_text(json.dumps(RELATION_BREAKING))
    (tmp_path / "nochain.json").write_text(json.dumps(NOT_A_CHAIN_MAP))
    # matrix entries that are not integers: JSON null, an object, a string,
    # a float, and true, which Python would read as 1
    two = {"n": 0, "complex": {"0": {"gens": 1}, "1": {"gens": 1}}}
    not_ints = {
        "mapnull": dict(notcx, window=[0, 1], levels=[level, dict(level, n=1, map_to_prev={"0": [[None]]})]),
        "mapobject": dict(notcx, window=[0, 1], levels=[level, dict(level, n=1, map_to_prev={"0": [[{}]]})]),
        "diffnull": dict(notcx, levels=[dict(two, d={"0": [[None]]})]),
        "difftrue": dict(notcx, levels=[dict(two, d={"0": [[True]]})]),
    }
    for name, entry in {"relstring": "GF", "relnull": None, "relfloat": 1.5, "reltrue": True}.items():
        not_ints[name] = dict(notcx, levels=[dict(level, complex={"0": {"gens": 1, "rels": [[entry]]}})])
    # scalar fields that are not integers, or a negative generator count
    for name, gens in {"gensfloat": 1.5, "genstrue": True, "gensstring": "2", "gensneg": -2}.items():
        not_ints[name] = dict(notcx, levels=[dict(two, complex={"0": {"gens": gens}, "1": {"gens": 1}})])
    not_ints["nfloat"] = dict(notcx, levels=[dict(level, n=0.5)])
    not_ints["zmodntrue"] = dict(notcx, ring={"kind": "Zmod", "p": 2, "N": True}, levels=[level])
    # an N past the precision budget, which used to end in a MemoryError
    not_ints["zmodnhuge"] = dict(notcx, ring={"kind": "Zmod", "p": 2, "N": 10**30}, levels=[level])
    # windows that are not two integers, a window level with no entry, and a repeated level
    windows = {"wintrue": [True, 1], "winfloat": [0, 0.5], "winstring": [0, "1"], "winshort": [0], "winint": 5}
    for name, window in windows.items():
        not_ints[name] = dict(notcx, window=window, levels=[level])
    not_ints["winmissing"] = dict(notcx, window=[-1, 0], levels=[level])
    not_ints["levelrepeated"] = dict(notcx, levels=[level, level])
    # a level outside the window, and a transition out of the window's lowest level
    not_ints["leveloutside"] = dict(notcx, levels=[level, dict(level, n=5)])
    not_ints["lowestmap"] = dict(notcx, levels=[dict(level, map_to_prev={"0": [[1]]})])
    # containers of the wrong JSON type
    containers = {
        "ringlist": dict(notcx, ring=[2], levels=[level]),
        "levelsobject": dict(notcx, levels={"n": 0}),
        "entryint": dict(notcx, levels=[5]),
        "complexlist": dict(notcx, levels=[dict(level, complex=[1])]),
        "moduleint": dict(notcx, levels=[dict(level, complex={"0": 5})]),
        "difflist": dict(notcx, levels=[dict(level, d=[1])]),
        "maplist": dict(notcx, window=[0, 1], levels=[level, dict(level, n=1, map_to_prev=[1])]),
    }
    not_ints.update(containers)
    for name, doc in not_ints.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    names = (
        "missing", "notcx", "notjson", "noring", "badshape", "widerel", "widemap", "widediff",
        "reversed", "straydiff", "straymap", "zmodp1", "zmodp4", "zmodhuge", "relmap", "nochain",
        *not_ints,
    )
    paths = {name: str(tmp_path / f"{name}.json") for name in names}
    # ring files: an exponent with denominator zero, and a perfection to feed one to
    for name, text in {
        "zeroden": "p = 2\nkind = quotient\nvars = x:1, y:1\nrels = x^(1/0) - y\n",
        "perf1": "p = 2\nkind = perfection of poly\nvars = x:1\n",
        # relations that are zero over the field of constants
        "zerorel": "p = 2\nkind = quotient\nvars = x:1\nrels = 0\n",
        "cancelrel": "p = 2\nkind = quotient\nvars = x:1, y:1\nrels = x - x\n",
        "modprel": "p = 3\nkind = quotient\nvars = x:1\nrels = x^2 + x^2 + x^2\n",
    }.items():
        (tmp_path / f"{name}.ring").write_text(text)
        paths[name] = str(tmp_path / f"{name}.ring")
    return paths


BAD_FLAGS = [
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
    ["specseq", "run", "--input", "{relmap}"],
    ["specseq", "run", "--input", "{nochain}"],
    ["drw", "table", "--ring", "{hugep}"],
    ["derham", "table", "--ring", "{poly}", "--weight-cap", "-3"],
    ["syntomic", "--ring", "{fp}", "--twist", "1", "--modp", "1", "--maxdeg", "-2"],
    ["logforms", "--ring", "{lau}", "--deg", "-1", "--modp", "1"],
    ["kpredict", "--ring", "{fp}", "--range", "0..-3"],
    ["drw", "table", "--ring", "{perf2}"],
    ["syntomic", "--ring", "{perf2}", "--twist", "1", "--modp", "1"],
    ["derham", "table", "--ring", "{perf2}"],
    ["witt", "ghost", "a,b", "--p", "2"],
    ["drw", "table", "--ring", "{zeroden}"],
    ["witt", "add", "x", "x^1/0", "--len", "1", "--ring", "{perf1}"],
    ["check", "fundamental-seq", "--ring", "{fp}", "--twist", "abc"],
    ["kpredict", "--ring", "{fp}", "--range", "-1..3"],
    ["witt", "neg", "1,0", "1,1", "--p", "3"],
    ["witt", "teich", "1", "2"],
    ["witt", "frob", "1,0", "1,1"],
    ["witt", "versch", "1,0", "1,1"],
    ["witt", "restrict", "1,0", "1,1"],
    ["witt", "ghost", "1,1", "5,5"],
    ["witt", "add", "1,0"],
    ["derham", "table", "--ring", "{zerorel}"],
    ["derham", "table", "--ring", "{cancelrel}"],
    ["derham", "table", "--ring", "{modprel}"],
    ["specseq", "run", "--input", "{mapnull}"],
    ["specseq", "run", "--input", "{mapobject}"],
    ["specseq", "run", "--input", "{diffnull}"],
    ["specseq", "run", "--input", "{difftrue}"],
    ["specseq", "run", "--input", "{relstring}"],
    ["specseq", "run", "--input", "{relnull}"],
    ["specseq", "run", "--input", "{relfloat}"],
    ["specseq", "run", "--input", "{reltrue}"],
    ["specseq", "run", "--input", "{gensfloat}"],
    ["specseq", "run", "--input", "{genstrue}"],
    ["specseq", "run", "--input", "{gensstring}"],
    ["specseq", "run", "--input", "{gensneg}"],
    ["specseq", "run", "--input", "{nfloat}"],
    ["specseq", "run", "--input", "{zmodntrue}"],
    ["specseq", "run", "--input", "{wintrue}"],
    ["specseq", "run", "--input", "{winfloat}"],
    ["specseq", "run", "--input", "{winstring}"],
    ["specseq", "run", "--input", "{winshort}"],
    ["specseq", "run", "--input", "{winint}"],
    ["specseq", "run", "--input", "{winmissing}"],
    ["specseq", "run", "--input", "{levelrepeated}"],
    ["specseq", "run", "--input", "{leveloutside}"],
    ["specseq", "run", "--input", "{lowestmap}"],
    ["specseq", "run", "--input", "{ringlist}"],
    ["specseq", "run", "--input", "{levelsobject}"],
    ["specseq", "run", "--input", "{entryint}"],
    ["specseq", "run", "--input", "{complexlist}"],
    ["specseq", "run", "--input", "{moduleint}"],
    ["specseq", "run", "--input", "{difflist}"],
    ["specseq", "run", "--input", "{maplist}"],
    ["syntomic", "--ring", "{poly}", "--twist", "0", "--modp", "100000"],
    ["specseq", "run", "--input", "{zmodnhuge}"],
    ["drw", "table", "--ring", "{poly}", "--level", "17"],
    ["drw", "table", "--ring", "{f8}", "--maxdeg", "1000000"],
    ["syntomic", "--ring", "{f8}", "--twist", "1000000", "--modp", "1"],
    ["logforms", "--ring", "{f8}", "--deg", "1000000", "--modp", "1"],
    ["check", "nygaard-complete", "--ring", "{f8}", "--twist", "1000000"],
    ["drw", "table", "--ring", "{poly}", "--level", "1000000000", "--weight-cap", "0"],
    ["check", "nygaard-graded", "--ring", "{poly}", "--weight-cap", "1000000"],
]
BAD_FLAG_IDS = [
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
    "specseq-transition-breaks-a-relation",
    "specseq-transition-not-a-chain-map",
    "drw-p-past-prime-bound",
    "derham-weight-cap-neg",
    "syntomic-maxdeg-neg",
    "logforms-deg-neg",
    "kpredict-range-reversed",
    "drw-perfection-two-vars",
    "syntomic-perfection-two-vars",
    "derham-perfection-two-vars",
    "witt-ghost-non-integer",
    "ring-zero-exponent-denominator",
    "witt-zero-exponent-denominator",
    "usage-twist-not-an-int",
    "usage-range-looks-like-a-flag",
    "witt-neg-two-vectors",
    "witt-teich-two-vectors",
    "witt-frob-two-vectors",
    "witt-versch-two-vectors",
    "witt-restrict-two-vectors",
    "witt-ghost-two-vectors",
    "witt-add-one-vector",
    "ring-relation-zero",
    "ring-relation-cancels",
    "ring-relation-zero-mod-p",
    "specseq-transition-entry-null",
    "specseq-transition-entry-object",
    "specseq-differential-entry-null",
    "specseq-differential-entry-true",
    "specseq-relation-entry-string",
    "specseq-relation-entry-null",
    "specseq-relation-entry-float",
    "specseq-relation-entry-true",
    "specseq-gens-float",
    "specseq-gens-true",
    "specseq-gens-string",
    "specseq-gens-negative",
    "specseq-level-n-float",
    "specseq-zmod-N-true",
    "specseq-window-true",
    "specseq-window-float",
    "specseq-window-string",
    "specseq-window-one-end",
    "specseq-window-integer",
    "specseq-window-level-missing",
    "specseq-level-n-repeated",
    "specseq-level-outside-the-window",
    "specseq-transition-from-the-lowest-level",
    "specseq-ring-a-list",
    "specseq-levels-an-object",
    "specseq-level-entry-an-integer",
    "specseq-complex-a-list",
    "specseq-module-an-integer",
    "specseq-differentials-a-list",
    "specseq-transitions-a-list",
    "syntomic-modp-past-budget",
    "specseq-zmod-N-past-budget",
    "drw-level-past-budget",
    "drw-maxdeg-past-precision-budget",
    "syntomic-twist-past-precision-budget",
    "logforms-deg-past-precision-budget",
    "nygaard-complete-twist-past-precision-budget",
    "drw-level-past-precision-budget",
    "nygaard-graded-weight-cap-past-budget",
]


@pytest.mark.parametrize("argv", BAD_FLAGS, ids=BAD_FLAG_IDS)
def test_bad_flags_are_one_line_errors(rings, bad_inputs, capsys, argv):
    # a budget that admits a runaway fails here on time, not only on exit code
    start = time.perf_counter()
    code = main([a.format(**rings, **bad_inputs) for a in argv])
    assert time.perf_counter() - start < 2
    captured = capsys.readouterr()
    assert code == 1
    assert "Traceback" not in captured.err
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert captured.out == ""


@pytest.mark.parametrize("argv", BAD_FLAGS, ids=BAD_FLAG_IDS)
def test_the_one_verb_parser_gives_the_full_parsers_errors(rings, bad_inputs, capsys, monkeypatch, argv):
    # main builds only the subparser of a known verb; the full parser,
    # forced here, must give the same exit code and stderr
    import drwitt.cli as cli

    argv = [a.format(**rings, **bad_inputs) for a in argv]
    one_verb = (main(argv), capsys.readouterr())
    full = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda verb=None: full())
    assert (main(argv), capsys.readouterr()) == one_verb


def refusal(build):
    """The message of the PrecisionExhausted that build() raises; None when it raises none."""
    from drwitt.errors import PrecisionExhausted

    try:
        build()
    except PrecisionExhausted as e:
        return str(e)
    return None


def test_the_size_budgets_name_their_limits_and_admit_every_benchmark_job(rings, bad_inputs, capsys):
    from helpers import load_perfbench

    from drwitt.cli import ZMOD_BITS_MAX, build_parser
    from drwitt.dieudonne import DRW_WINDOW_MAX, PRECISION_BITS_MAX, SaturatedModel
    from drwitt.errors import PrecisionExhausted
    from drwitt.synlog import WINDOW_MAX, _weight_support, nygaard_graded_check

    fp, f8, poly, lau = (parse_ringspec(Path(rings[k]).read_text()) for k in ("fp", "f8", "poly", "lau"))
    # the precision budget: a model's residues take f B log2(p) bits, B = R + 2 s* + 2,
    # R = r + i_max + 2 and s* = r + 1, so B = i_max + 9 for a level-1 model
    assert PRECISION_BITS_MAX == 2**14
    assert SaturatedModel(f8, 1, 5452).B == 5461  # 3 B = 16383 bits over GF(2^3)
    budget = (
        "a level-1 model with twist bound 5453 works modulo 2^B, B = 5462,"
        " whose residues over GF(2^3) take more than 16384 bits, the precision budget"
    )
    assert refusal(lambda: SaturatedModel(f8, 1, 5453)) == budget
    assert main(["drw", "table", "--ring", rings["f8"], "--maxdeg", "5453", "--level", "1"]) == 1
    assert capsys.readouterr().err == f"error: {budget}\n"
    # over GF(3) the bits are B log2(3): 16383.7 at B = 10337 and 16385.3 at B = 10338
    assert SaturatedModel(fp, 1, 10328).B == 10337
    budget = "a level-1 model with twist bound 10329 works modulo 3^B, B = 10338, whose residues over GF(3)"
    assert refusal(lambda: SaturatedModel(fp, 1, 10329)).startswith(budget)
    # a precision the caller gives counts the same way, as does the level: B = 3 r + i_max + 6
    # on a p = 2 poly ring, and level 10^9 is refused before p^s* is formed
    assert SaturatedModel(fp, 1, 1, 10331).B == 10337
    budget = "a level-1 model with precision R = 10332 works modulo 3^B, B = 10338, whose residues"
    assert refusal(lambda: SaturatedModel(fp, 1, 1, 10332)).startswith(budget)
    assert SaturatedModel(poly, 5458, 2).B == 16382 and refusal(lambda: SaturatedModel(poly, 5459, 2))
    budget = (
        "a level-1000000000 model with twist bound 2 works modulo 2^B, B = 3000000008,"
        " whose residues over GF(2) take more than 16384 bits, the precision budget"
    )
    assert refusal(lambda: SaturatedModel(poly, 10**9, 2)) == budget
    # the drw window: at p = 2, cap 2^(r-1) + 1 weights on a poly ring, twice that plus one on a Laurent ring
    assert DRW_WINDOW_MAX == 10**5

    def drw_window(spec, level, cap):
        return strict_truncate(saturate(spec, level, 2), level).weights(cap)

    assert len(drw_window(poly, 3, 4)) == 17
    # at the limit: level 1 on a poly ring holds cap + 1 weights, so cap 99999 is admitted and 100000 refused
    assert len(drw_window(poly, 1, 99999)) == DRW_WINDOW_MAX
    budget = "a level-1 window with weight cap 100000 holds more than 100000 weights, the drw window budget"
    assert refusal(lambda: drw_window(poly, 1, 100000)) == budget
    assert len(drw_window(poly, 15, 4)) == 65537 and len(drw_window(poly, 16, 3)) == 98305
    assert len(drw_window(lau, 14, 4)) == 65537
    budget = "a level-16 window with weight cap 4 holds more than 100000 weights, the drw window budget"
    assert refusal(lambda: drw_window(poly, 16, 4)) == budget  # 131073
    assert refusal(lambda: drw_window(poly, 17, 4)) and refusal(lambda: drw_window(lau, 15, 4))  # 262145, 131073
    assert main(["drw", "table", "--ring", rings["poly"], "--level", "17"]) == 1
    budget = "a level-17 window with weight cap 4 holds more than 100000 weights, the drw window budget"
    assert capsys.readouterr().err == f"error: {budget}\n"
    # the syntomic window: at p = 2, a Laurent ring at cap c holds 2 c 2^r + 1 numerators
    assert WINDOW_MAX == 10**6
    assert len(_weight_support(saturate(lau, 16, 3), 4, 16)) == 2**19 + 1
    assert len(_weight_support(saturate(lau, 17, 3), 1, 17)) == 2**18 + 1
    budget = "a weight window with cap 4 and denominators up to 2^17 holds more than 1000000 numerators"
    budget += ", the window budget"
    assert refusal(lambda: _weight_support(saturate(lau, 17, 3), 4, 17)) == budget
    assert main(["check", "fundamental-seq", "--ring", rings["lau"], "--modp", "17"]) == 1
    assert capsys.readouterr().err == f"error: {budget}\n"
    # the nygaard-graded window: with x:1, 2 c p + 1 supported numerators of denominator up to p
    # on a Laurent ring at cap c, c p + 1 on a poly ring; one cap below is admitted
    budget = "a weight window with cap 500000 and denominators up to 2^1 holds more than 1000000 numerators"
    budget += ", the window budget"
    assert refusal(lambda: nygaard_graded_check(poly, 1, 500000)) == budget  # 1000001
    assert refusal(lambda: nygaard_graded_check(lau, 1, 250000))  # 1000001
    assert refusal(lambda: nygaard_graded_check(poly, 1, 499999)) is None  # 999999
    assert refusal(lambda: nygaard_graded_check(lau, 1, 249999)) is None  # 999999
    assert main(["check", "nygaard-graded", "--ring", rings["poly"], "--weight-cap", "500000"]) == 1
    assert capsys.readouterr().err == f"error: {budget}\n"
    # every ring of the fixture that the model covers (hugep is refused at parse,
    # cusp and perf2 as unsupported), at the drw defaults and at --level 3 --weight-cap 3
    for name in ("fp", "f8", "poly", "lau"):
        spec = parse_ringspec(Path(rings[name]).read_text())
        for level, cap in ((2, 4), (3, 3)):
            model = saturate(spec, level, 2)
            saturate(spec, level, 2, R=model.R + 1)
            strict_truncate(model, level).weights(cap)
        nygaard_graded_check(spec, 1, 4)  # the check defaults
    # a Zmod ring's residues take N log2(p) bits
    doc = json.loads(Path(bad_inputs["zmodnhuge"]).read_text())
    with pytest.raises(PrecisionExhausted) as caught:
        load_filtered_complex(doc)
    budget = f"Zmod with p = 2, N = {10**30} needs residues of more than 8192 bits, the precision budget"
    assert str(caught.value) == budget
    doc["ring"]["N"] = ZMOD_BITS_MAX
    load_filtered_complex(doc)
    doc["ring"]["N"] = ZMOD_BITS_MAX + 1
    with pytest.raises(PrecisionExhausted):
        load_filtered_complex(doc)
    # every benchmark job builds its models and walks its windows within the
    # budgets: a CLI job's base and R+1 models, a sweep cell's too, and the
    # sweep's windows at base and at cap * p
    workloads, sweep = load_perfbench("workloads"), load_perfbench("sweep")
    jobs = [job for name in workloads.WORKLOADS for job in workloads.all_jobs(name)]
    walked = {"drw": 0, "syntomic": 0, "check": 0, "cell": 0}
    for job in jobs:
        spec = parse_ringspec(job.spec)
        if job.cell:
            twist, r, cap, strict_cap, _ = job.cell
            model = saturate(spec, r, max(sweep.I_MAX, twist + 1))
            for m in (model, saturate(spec, r, max(sweep.I_MAX, twist + 1), model.R + 1)):
                strict_truncate(m, r).weights(strict_cap)
            _weight_support(model, cap, r)
            _weight_support(model, cap * spec.p, r)
            if job.cell[-1]:
                nygaard_graded_check(spec, twist, cap * spec.p)
            walked["cell"] += 1
        elif job.argv[0] in walked:
            args = build_parser().parse_args([*job.argv, "--ring", "unread.ring"])
            r = args.level if args.verb == "drw" else args.modp
            model = saturate(spec, r, args.maxdeg if args.verb == "drw" else max(args.maxdeg, args.twist + 1))
            saturate(spec, r, args.maxdeg, R=model.R + 1)
            if args.verb == "drw":
                strict_truncate(model, r).weights(args.weight_cap)
            else:
                _weight_support(model, args.weight_cap, r)
            walked[args.verb] += 1
    kinds = ["cell" if job.cell else job.argv[0] for job in jobs]
    assert walked == {kind: kinds.count(kind) for kind in walked} and min(walked.values()) > 5


@pytest.mark.parametrize("name", ["fp", "f8", "poly", "lau"])
def test_a_refusal_reports_the_b_of_the_model_one_step_below_the_limit(rings, name):
    # one precision policy: raise i_max to the last model admitted; the first
    # model refused reports a B one past the B that model computed itself
    from drwitt.dieudonne import PRECISION_BITS_MAX, SaturatedModel

    spec = parse_ringspec(Path(rings[name]).read_text())
    admitted, refused = 0, PRECISION_BITS_MAX
    while refused - admitted > 1:
        mid = (admitted + refused) // 2
        if refusal(lambda: SaturatedModel(spec, 2, mid)):
            refused = mid
        else:
            admitted = mid
    below = SaturatedModel(spec, 2, admitted)
    assert f", B = {below.B + 1}, " in refusal(lambda: SaturatedModel(spec, 2, refused))


def test_a_non_integer_matrix_entry_names_its_level_key_and_degree(bad_inputs):
    where = {"mapnull": (1, "map_to_prev"), "mapobject": (1, "map_to_prev"), "diffnull": (0, "d"), "difftrue": (0, "d")}
    where.update((name, (0, "rels")) for name in ("relstring", "relnull", "relfloat", "reltrue"))
    for name, (n, key) in where.items():
        doc = json.loads(Path(bad_inputs[name]).read_text())
        message = f'^level {n} has "{key}" at degree 0 that is not a list of integer rows$'
        with pytest.raises(DrwittError, match=message):
            load_filtered_complex(doc)


def test_a_non_integer_scalar_field_names_its_level_and_key(bad_inputs):
    messages = {
        "gensfloat": 'level 0 at degree 0 has "gens" = 1.5, which is not a nonnegative integer',
        "genstrue": 'level 0 at degree 0 has "gens" = true, which is not a nonnegative integer',
        "gensstring": 'level 0 at degree 0 has "gens" = "2", which is not a nonnegative integer',
        "gensneg": 'level 0 at degree 0 has "gens" = -2, which is not a nonnegative integer',
        "nfloat": 'levels[0] has "n" = 0.5, which is not an integer',
        "zmodntrue": 'ring has "N" = true, which is not an integer',
    }
    for name, message in messages.items():
        doc = json.loads(Path(bad_inputs[name]).read_text())
        with pytest.raises(DrwittError) as caught:
            load_filtered_complex(doc)
        assert str(caught.value) == message


def test_a_bad_window_or_level_list_names_the_window_or_the_level(bad_inputs):
    messages = {
        "wintrue": 'specseq "window" = [true, 1] is not a list of two integers',
        "winfloat": 'specseq "window" = [0, 0.5] is not a list of two integers',
        "winstring": 'specseq "window" = [0, "1"] is not a list of two integers',
        "winshort": 'specseq "window" = [0] is not a list of two integers',
        "winint": 'specseq "window" = 5 is not a list of two integers',
        "winmissing": 'specseq "window" = [-1, 0] has no entry in "levels" for level -1',
        "levelrepeated": 'levels[1] repeats "n" = 0',
    }
    for name, message in messages.items():
        doc = json.loads(Path(bad_inputs[name]).read_text())
        with pytest.raises(DrwittError) as caught:
            load_filtered_complex(doc)
        assert str(caught.value) == message


def test_a_level_the_window_drops_is_an_error(bad_inputs):
    # both documents used to run, silently dropping the level or the transition
    messages = {
        "leveloutside": 'levels[1] has "n" = 5, outside the window [0, 0]',
        "lowestmap": 'level 0 has "map_to_prev", but it is the lowest level of the window [0, 0]',
    }
    for name, message in messages.items():
        doc = json.loads(Path(bad_inputs[name]).read_text())
        with pytest.raises(DrwittError) as caught:
            load_filtered_complex(doc)
        assert str(caught.value) == message


def test_a_wrong_typed_container_names_its_field(bad_inputs):
    messages = {
        "ringlist": 'specseq input has "ring" = [2], which is not an object',
        "levelsobject": 'specseq input has "levels" = {"n": 0}, which is not a list',
        "entryint": 'specseq "levels" has 0 = 5, which is not an object',
        "complexlist": 'level 0 has "complex" = [1], which is not an object',
        "moduleint": 'level 0 "complex" has "0" = 5, which is not an object',
        "difflist": 'level 0 has "d" = [1], which is not an object',
        "maplist": 'level 1 has "map_to_prev" = [1], which is not an object',
    }
    for name, message in messages.items():
        doc = json.loads(Path(bad_inputs[name]).read_text())
        with pytest.raises(DrwittError) as caught:
            load_filtered_complex(doc)
        assert str(caught.value) == message


def test_a_known_verb_builds_only_its_subparser():
    from drwitt.cli import VERBS, build_parser

    for verb in VERBS:
        assert "{%s}" % verb in build_parser(verb).format_usage()
    every = "{%s}" % ",".join(VERBS)
    for other in (None, "bogus-verb", "--help", "--version"):
        assert every in build_parser(other).format_usage()


def test_usage_errors_are_exit_1_and_help_is_exit_0(capsys):
    # argparse's own exit 2 would read as "property is false"
    assert main(["witt", "neg", "1,0", "1,1", "--p", "3"]) == 1
    assert capsys.readouterr().err == "error: witt neg needs exactly one vector\n"
    assert main(["bogus-verb"]) == 1
    assert capsys.readouterr().err.startswith("error: argument verb: invalid choice: 'bogus-verb'")
    for argv in (["--help"], ["witt", "--help"], ["--version"]):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 0
        assert capsys.readouterr().out


def test_internal_errors_are_one_line_exit_1(capsys, monkeypatch):
    # a defect is exit 1 like a bad input, under its own prefix
    import drwitt.cli as cli

    def broken(args):
        raise KeyError("boom")

    monkeypatch.setattr(cli, "cmd_witt", broken)
    code = main(["witt", "ghost", "2,3", "--p", "3", "--len", "2"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == "internal error: KeyError: 'boom'\n"
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


# ---------------------------------------------------------------------------
# pinned payloads and perfection weights

# `drw table --operators --json` on F_3[x] at level 2, weight cap 2.  The
# operators are read at the numerator u p^s_star of each weight u; a weight
# passed in its place reads another lattice and changes them.
Z3 = {"free_rank": 0, "stable": True, "torsion": ["3^1"]}
Z9 = {"free_rank": 0, "stable": True, "torsion": ["3^2"]}
DRW_OPERATORS_F3X = {
    "command": "drw table",
    "internal_precision": "p^6",
    "level": 2,
    "ring": "poly(x)",
    "schema_version": 1,
    "groups": {
        "0": {"0": Z9, "1": Z9, "1/3": Z3, "2": Z9, "2/3": Z3, "4/3": Z3, "5/3": Z3},
        "1": {"1": Z9, "1/3": Z3, "2": Z9, "2/3": Z3, "4/3": Z3, "5/3": Z3},
    },
    "operators": {
        "0": {
            "0": {"F": [[1]], "d": [[]]},
            "1": {"F": [[1]], "d": [[1]]},
            "1/3": {"F": [[3]], "d": [[1]]},
            "2": {"F": [[1]], "d": [[2]]},
            "2/3": {"F": [[3]], "d": [[2]]},
            "4/3": {"F": [[3]], "d": [[4]]},
            "5/3": {"F": [[3]], "d": [[5]]},
        },
        "1": {
            "1": {"F": [[1]], "d": [[]]},
            "1/3": {"F": [[1]], "d": [[]]},
            "2": {"F": [[1]], "d": [[]]},
            "2/3": {"F": [[1]], "d": [[]]},
            "4/3": {"F": [[1]], "d": [[]]},
            "5/3": {"F": [[1]], "d": [[]]},
        },
    },
}


def test_drw_table_operators_payload(tmp_path, capsys):
    ring = tmp_path / "f3x.ring"
    ring.write_text("p = 3\nkind = poly\nvars = x:1\n")
    argv = ["drw", "table", "--ring", str(ring), "--level", "2", "--weight-cap", "2", "--operators", "--json"]
    code, out = run_cli(argv, capsys)
    assert code == 0
    assert json.loads(out) == DRW_OPERATORS_F3X


def test_drw_table_on_a_perfection_with_a_p_power_weight(tmp_path, capsys):
    # x^(1/64) and x^(1/32) lie in the perfection and have weights 1 and 2
    ring = tmp_path / "x64.ring"
    ring.write_text("p = 2\nkind = perfection of poly\nvars = x:64\n")
    argv = ["drw", "table", "--ring", str(ring), "--level", "1", "--weight-cap", "2", "--json"]
    code, out = run_cli(argv, capsys)
    assert code == 0
    cell = {"free_rank": 0, "stable": True, "torsion": ["2^1"]}
    assert json.loads(out)["groups"] == {"0": {"0": cell, "1": cell, "2": cell}}


def test_syntomic_twist_one_on_a_p_divisible_variable_weight(tmp_path, capsys):
    # x:2 over p = 2 has exponents one power of 2 finer than its weights;
    # the model's denominator cap must follow them or d o d != 0
    ring = tmp_path / "x2.ring"
    ring.write_text("p = 2\nkind = poly\nvars = x:2\n")
    code, out = run_cli(["syntomic", "--ring", str(ring), "--twist", "1", "--modp", "1", "--json"], capsys)
    assert code == 0
    assert json.loads(out)["twist"] == 1


def test_derham_table_on_a_perfection_counts_fractional_exponents(tmp_path, capsys):
    # x^(1/2) and x^(3/2) have weights 1 and 3
    ring = tmp_path / "x2.ring"
    ring.write_text("p = 2\nkind = perfection of poly\nvars = x:2\n")
    argv = ["derham", "table", "--ring", str(ring), "--maxdeg", "0", "--weight-cap", "3", "--json"]
    code, out = run_cli(argv, capsys)
    assert code == 0
    cell = {"free_rank": 0, "torsion": ["2^1"]}
    assert json.loads(out)["cohomology"] == {"0": {str(u): cell for u in range(4)}}


# ---------------------------------------------------------------------------
# fuzzed specseq documents: a bad document is a one-line error, never a defect

@st.composite
def specseq_docs(draw):
    ring = draw(st.sampled_from([{"kind": "Z"}, {"kind": "Zmod", "p": 2, "N": 3}, {"kind": "Zmod", "p": 3, "N": 1}]))
    lo = draw(st.integers(-1, 1))
    hi = lo + draw(st.integers(-1, 2))

    def matrix(rows, cols):
        # mostly the right shape, sometimes a row or a column too many
        rows += draw(st.sampled_from([0, 0, 0, 1]))
        cols += draw(st.sampled_from([0, 0, 0, 1]))
        return draw(st.lists(st.lists(st.integers(-2, 4), min_size=cols, max_size=cols), min_size=rows, max_size=rows))

    levels, prev = [], {}
    for n in range(lo, hi + 1):
        gens = draw(st.dictionaries(st.integers(0, 2), st.integers(0, 2), max_size=3))
        level = {"n": n, "complex": {}}
        for deg, k in gens.items():
            level["complex"][str(deg)] = {"gens": k, "rels": matrix(draw(st.integers(0, 1)), k)}
        degs = [deg for deg in gens if deg + 1 in gens and draw(st.booleans())]
        if degs:
            level["d"] = {str(deg): matrix(gens[deg], gens[deg + 1]) for deg in degs}
        if n > lo and draw(st.booleans()):
            level["map_to_prev"] = {str(deg): matrix(k, prev.get(deg, 0)) for deg, k in gens.items()}
        levels.append(level)
        prev = gens
    # mostly as drawn; sometimes a malformed window, or one window level dropped or repeated
    window = [lo, hi]
    change = draw(st.sampled_from([None, None, None, "window", "drop", "repeat"]))
    if change == "window":
        bad = draw(st.sampled_from([True, 0.5, "1", None]))
        window = draw(st.sampled_from([[bad, hi], [lo, bad], [lo], [lo, hi, hi], lo]))
    elif change and levels:
        j = draw(st.integers(0, len(levels) - 1))
        levels[j : j + 1] = [] if change == "drop" else [levels[j]] * 2
    return {"ring": ring, "window": window, "levels": levels}


WINDOW_TRUE = {"ring": {"kind": "Z"}, "window": [True, 1], "levels": [{"n": 0, "complex": {"0": {"gens": 1}}}]}


@settings(max_examples=60, deadline=None)
@given(doc=specseq_docs())
@example(doc=RELATION_BREAKING)
@example(doc=NOT_A_CHAIN_MAP)
@example(doc=WINDOW_TRUE)
def test_fuzzed_specseq_documents_exit_cleanly(tmp_path_factory, doc):
    f = tmp_path_factory.mktemp("specseq") / "doc.json"
    f.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["specseq", "run", "--input", str(f), "--json"])
    assert code in (0, 1, 2)
    assert not any(line.startswith("internal error:") for line in err.getvalue().splitlines()), err.getvalue()
    # a document that loads also passes the d_r o d_r = 0 check on every page
    try:
        F = load_filtered_complex(doc)
    except DrwittError:
        return
    spectral_sequence(F)


# ---------------------------------------------------------------------------
# fuzzed de Rham flags: out-of-range flags are one-line errors, never defects

DERHAM_KINDS = {
    "poly": "kind = poly\nvars = x:1, y:1",
    "laurent": "kind = laurent\nvars = x:1",
    "cusp": "kind = quotient\nvars = x:2, y:3\nrels = y^2 - x^3",
    "node": "kind = quotient\nvars = x:1, y:1\nrels = x*y",
    "perfection": "kind = perfection of poly\nvars = x:1",
    "finite_field": "kind = finite_field",
}


@settings(max_examples=100, deadline=None)
@given(
    verb=st.sampled_from([["derham", "table"], ["cartier-check"]]),
    kind=st.sampled_from(sorted(DERHAM_KINDS)),
    p=st.sampled_from([2, 3, 5]),
    f=st.integers(1, 2),
    maxdeg=st.integers(-1, 5),
    cap=st.integers(-1, 12),
)
@example(verb=["derham", "table"], kind="cusp", p=2, f=1, maxdeg=-1, cap=12)
@example(verb=["cartier-check"], kind="node", p=3, f=2, maxdeg=5, cap=-1)
def test_fuzzed_derham_flags_exit_cleanly(tmp_path_factory, verb, kind, p, f, maxdeg, cap):
    ring = tmp_path_factory.mktemp("derham") / "r.ring"
    ring.write_text(f"p = {p}\nf = {f}\n{DERHAM_KINDS[kind]}\n")
    argv = verb + ["--ring", str(ring), "--maxdeg", str(maxdeg), "--weight-cap", str(cap), "--json"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    assert not any(line.startswith("internal error:") for line in err.getvalue().splitlines()), err.getvalue()


# ---------------------------------------------------------------------------
# fuzzed strict-level and Nygaard flags: every weight-class path exits cleanly

CLASS_KINDS = {
    **DERHAM_KINDS,
    "poly1": "kind = poly\nvars = x:1",
    "poly_p": "kind = poly\nvars = x:{p}",
    "poly_q": "kind = poly\nvars = x:{q}",
    "laurent_p": "kind = laurent\nvars = x:{p}",
    "perfection_laurent": "kind = perfection of laurent\nvars = x:1",
}


def _run_fuzzed(tmp_path_factory, kind, p, f, argv):
    ring = tmp_path_factory.mktemp("classes") / "r.ring"
    ring.write_text(f"p = {p}\nf = {f}\n{CLASS_KINDS[kind].format(p=p, q=p + 1)}\n")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv + ["--ring", str(ring), "--json"])
    assert code in (0, 1, 2)
    assert not any(line.startswith("internal error:") for line in err.getvalue().splitlines()), err.getvalue()


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(sorted(CLASS_KINDS)),
    p=st.sampled_from([2, 3]),
    f=st.integers(1, 2),
    level=st.integers(-1, 3),
    maxdeg=st.integers(-1, 3),
    cap=st.integers(-1, 3),
    operators=st.booleans(),
)
@example(kind="poly_q", p=2, f=1, level=3, maxdeg=1, cap=3, operators=True)
def test_fuzzed_drw_table_flags_exit_cleanly(tmp_path_factory, kind, p, f, level, maxdeg, cap, operators):
    argv = ["drw", "table", "--level", str(level), "--maxdeg", str(maxdeg), "--weight-cap", str(cap)]
    _run_fuzzed(tmp_path_factory, kind, p, f, argv + ["--operators"] * operators)


@settings(max_examples=40, deadline=None)
@given(
    which=st.sampled_from(["nygaard-graded", "nygaard-complete"]),
    kind=st.sampled_from(sorted(CLASS_KINDS)),
    p=st.sampled_from([2, 3]),
    f=st.integers(1, 2),
    twist=st.integers(-1, 4),
    cap=st.integers(-1, 4),
)
@example(which="nygaard-graded", kind="poly_q", p=2, f=1, twist=2, cap=4)
def test_fuzzed_nygaard_check_flags_exit_cleanly(tmp_path_factory, which, kind, p, f, twist, cap):
    _run_fuzzed(tmp_path_factory, kind, p, f, ["check", which, "--twist", str(twist), "--weight-cap", str(cap)])


# ---------------------------------------------------------------------------
# fuzzed witt flags: every operation, prime and length exits cleanly

WITT_RINGS = {
    "gf4": "p = 2\nf = 2\nkind = finite_field",
    "poly": "p = 2\nkind = poly\nvars = x:1",
    "perfection": "p = 2\nkind = perfection of poly\nvars = x:1",
}


@settings(max_examples=40, deadline=None)
@given(
    op=st.sampled_from(["add", "mul", "neg", "teich", "frob", "versch", "restrict", "ghost"]),
    p=st.sampled_from([2, 3, 5, 4, 0, -3]),
    length=st.integers(0, 3),
    components=st.lists(st.sampled_from(["1", "0,1", "x", "t", "x^(1/2)", "a,b", ""]), min_size=1, max_size=3),
    ring=st.sampled_from([None, *sorted(WITT_RINGS)]),
)
@example(op="ghost", p=0, length=2, components=["1,1"], ring="gf4")
@example(op="ghost", p=4, length=2, components=["1,1"], ring="poly")
def test_fuzzed_witt_flags_exit_cleanly(tmp_path_factory, op, p, length, components, ring):
    argv = ["witt", op, *components, "--p", str(p), "--len", str(length), "--json"]
    if ring is not None:
        path = tmp_path_factory.mktemp("witt") / "r.ring"
        path.write_text(WITT_RINGS[ring] + "\n")
        argv += ["--ring", str(path)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    assert not any(line.startswith("internal error:") for line in err.getvalue().splitlines()), err.getvalue()
    if op == "ghost" and p not in (2, 3, 5):
        assert code == 1, out.getvalue()


# ---------------------------------------------------------------------------
# fuzzed syntomic, fundamental-seq, logforms and kpredict flags

@settings(max_examples=60, deadline=None)
@given(
    verb=st.sampled_from([["syntomic"], ["check", "fundamental-seq"]]),
    kind=st.sampled_from(sorted(CLASS_KINDS)),
    p=st.sampled_from([2, 3]),
    f=st.integers(1, 2),
    twist=st.integers(0, 3),
    modp=st.integers(-1, 3),
    cap=st.integers(-1, 4),
)
@example(verb=["syntomic"], kind="laurent", p=2, f=2, twist=3, modp=3, cap=4)
@example(verb=["check", "fundamental-seq"], kind="laurent", p=3, f=2, twist=3, modp=3, cap=4)
def test_fuzzed_syntomic_and_fundamental_seq_flags_exit_cleanly(
    tmp_path_factory, verb, kind, p, f, twist, modp, cap
):
    argv = verb + ["--twist", str(twist), "--modp", str(modp), "--weight-cap", str(cap)]
    _run_fuzzed(tmp_path_factory, kind, p, f, argv)


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(sorted(CLASS_KINDS)),
    p=st.sampled_from([2, 3]),
    f=st.integers(1, 2),
    deg=st.integers(-1, 3),
    modp=st.integers(-1, 3),
)
@example(kind="perfection_laurent", p=3, f=2, deg=1, modp=3)
def test_fuzzed_logforms_flags_exit_cleanly(tmp_path_factory, kind, p, f, deg, modp):
    _run_fuzzed(tmp_path_factory, kind, p, f, ["logforms", "--deg", str(deg), "--modp", str(modp)])


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(sorted(CLASS_KINDS)),
    p=st.sampled_from([2, 3]),
    f=st.integers(1, 2),
    lo=st.integers(-1, 5),
    hi=st.integers(-1, 5),
    modp=st.integers(-1, 3),
    markdown=st.booleans(),
)
@example(kind="laurent_p", p=3, f=2, lo=-1, hi=5, modp=3, markdown=True)
def test_fuzzed_kpredict_flags_exit_cleanly(tmp_path_factory, kind, p, f, lo, hi, modp, markdown):
    # "--range=" keeps argparse from reading a negative bound as a flag
    argv = ["kpredict", f"--range={lo}..{hi}", "--modp", str(modp)]
    _run_fuzzed(tmp_path_factory, kind, p, f, argv + ["--markdown"] * markdown)
