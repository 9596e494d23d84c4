"""De Rham complexes, cohomology, inverse Cartier maps, smoothness checks."""

import itertools
import os
import random
import subprocess
import sys

import pytest

import drwitt
from drwitt.derham import (
    DeRhamComplex,
    RelativeCartier,
    base_change_check,
    cartier_smooth_check,
    derham_cohomology,
    derham_table,
    perfection_h0,
)
from drwitt.errors import NonQuasiHomogeneous, UnsupportedBaseChange, UnsupportedKind
from drwitt.exactcore import GF, InvariantFactors
from drwitt.rings import parse_ringspec

from helpers import reference_d_matrix, reference_gf_rref, reference_relative_forms


def spec(text):
    return parse_ringspec(text)


FP_X = spec("p=3\nkind=poly\nvars=x:1")
F2_XY = spec("p=2\nkind=poly\nvars=x:1,y:1")
CUSP = spec("p=2\nkind=quotient\nvars=x:2,y:3\nrels=y^2-x^3")
LAURENT = spec("p=3\nkind=laurent\nvars=x:1")


def dense_d(C, i, *g):
    """d^i at grade g as dense rows on basis coordinates, read off the sparse d_rows."""
    n = C.rank(i + 1, *g)
    return [[row.get(k, 0) for k in range(n)] for row in C.d_rows(i, *g)]


def test_poly_omega1_rank_one_per_weight():
    C = DeRhamComplex(FP_X, 1, 8)
    for w in range(1, 9):
        assert C.rank(1, w) == 1  # basis x^{w-1} dx
    assert C.rank(1, 0) == 0


def test_poly_ranks_binomial():
    C = DeRhamComplex(F2_XY, 2, 5)
    # weight-w piece of Omega^i over F_2[x,y] with unit weights:
    # monomial count per J of size i, total weight w
    for w in range(0, 5):
        assert C.rank(0, w) == w + 1
        assert C.rank(2, w + 2) == w + 1
    assert C.rank(1, 3) == 2 * 3  # two J's, coefficient weight 2 each


def test_perfection_rejected_by_kaehler_but_short_circuited():
    perf = spec("p=3\nkind=perfection of poly\nvars=x:1")
    with pytest.raises(UnsupportedKind):
        DeRhamComplex(perf, 1, 4)
    assert derham_cohomology(perf, 1, 4) == {}
    rep = cartier_smooth_check(perf, 2, 4)
    assert rep["verdict"].startswith("consistent")


def test_perfection_h0_is_read_off_one_weight():
    # x^(u/6) lies in the perfection over F_3 exactly when 2 | u
    perf = spec("p=3\nkind=perfection of laurent\nvars=x:6")
    assert [u for u in range(-7, 8) if not perfection_h0(perf, u).is_trivial()] == [-6, -4, -2, 0, 2, 4, 6]
    assert perfection_h0(perf, 4) == InvariantFactors((3,))
    field = spec("p=2\nkind=perfection of finite_field\nf=2")
    assert perfection_h0(field, 0) == InvariantFactors((2, 2)) and perfection_h0(field, 1).is_trivial()
    assert derham_cohomology(perf, 0, 7) == {u: perfection_h0(perf, u) for u in range(-6, 7, 2)}


def test_cusp_presentation_ranks():
    # relation d(y^2 - x^3) = x^2 dx (p = 2) kills x^2 dx in weight 6
    C = DeRhamComplex(CUSP, 1, 10)
    assert C.rank(1, 5) == 2  # x dy, y dx
    assert C.rank(1, 6) == 1  # x^2 dx dies; y dy survives
    assert C.rank(1, 2) == 1  # dx


def brute_quotient_rank(spec_, i, w):
    """Presentation reduction straight from the definition (small cases)."""
    C = DeRhamComplex(spec_, i + 1, w)
    raw, basis, _ = C.algebra.component(i, w)
    return len(basis)


def test_cusp_matches_bruteforce_reduction():
    for w in range(1, 11):
        for i in (0, 1, 2):
            C = DeRhamComplex(CUSP, 2, 12)
            assert C.rank(i, w) == brute_quotient_rank(CUSP, i, w)


def test_h0_poly_p_th_powers():
    H0 = derham_cohomology(FP_X, 0, 9)
    for w in range(0, 10):
        expected = InvariantFactors((3,)) if w % 3 == 0 else InvariantFactors(())
        assert H0.get(w, InvariantFactors(())) == expected


def test_h1_poly_classes():
    H1 = derham_cohomology(FP_X, 1, 9)
    # classes x^{kp+p-1} dx live in weights divisible by p
    for w in range(1, 10):
        expected = InvariantFactors((3,)) if w % 3 == 0 else InvariantFactors(())
        assert H1.get(w, InvariantFactors(())) == expected


def test_h_finite_field():
    fq = spec("p=3\nkind=finite_field\nf=2")
    H0 = derham_cohomology(fq, 0, 3)
    assert H0[0] == InvariantFactors((3, 3))  # F_9 as an abelian group
    assert derham_cohomology(fq, 1, 3) == {}


def test_inverse_cartier_degree0_is_pth_power():
    data = DeRhamComplex(FP_X, 1, 9).inverse_cartier(0)
    # weight 1 -> weight 3: x maps to the class of x^3 in H^0
    entry = data[1]
    assert entry["matrix"] == [[1]] and entry["passes"]


def test_inverse_cartier_degree1_log_form():
    data = DeRhamComplex(FP_X, 2, 9).inverse_cartier(1)
    entry = data[1]  # dx |-> class of x^{p-1} dx in weight p
    assert len(entry["matrix"]) == 1 and any(entry["matrix"][0]) and entry["passes"]


def test_inverse_cartier_multiplicative_f3_xy():
    # C^{-1}(f dg) = f^p [g^{p-1} dg] checked on monomial pairs via the
    # raw-form images: multiplicativity is exponent arithmetic here
    s = spec("p=3\nkind=poly\nvars=x:1,y:1")
    C = DeRhamComplex(s, 2, 18)
    rng = random.Random(123)
    p = 3
    for _ in range(50):
        a = (rng.randrange(3), rng.randrange(3))  # f = x^a0 y^a1
        j = rng.randrange(2)  # g = x_j
        # C^{-1}(f dx_j) as a raw form
        form = (a, (j,))
        target, J = C.algebra.frobenius_form(form)
        expected = tuple(p * e + (p - 1 if l == j else 0) for l, e in enumerate(a))
        assert target == expected and J == (j,)


def test_cartier_block_is_a_rank_test_on_cocycles():
    # over F_2[x, y], H^0 at weight 2 is spanned by x^2 and y^2, and xy is
    # no cocycle; at weight 1 there is none, so an empty source is skipped
    C = DeRhamComplex(F2_XY, 1, 4)
    forms = C.algebra.forms(0, 2)

    def unit(m):
        return [int(form == (m, ())) for form in forms]

    x2, xy, y2 = unit((2, 0)), unit((1, 1)), unit((0, 2))
    M, passes = C.cartier_block(0, (2,), [x2, y2])
    assert passes and sorted(M) == [[0, 1], [1, 0]]
    assert C.cartier_block(0, (2,), [x2, x2])[1] is False  # dimensions match, rank does not
    assert C.cartier_block(0, (2,), [y2])[1] is False
    assert C.cartier_block(0, (2,), []) == ([], False)
    assert C.cartier_block(0, (1,), []) is None
    with pytest.raises(AssertionError, match="not a cocycle"):
        C.cartier_block(0, (2,), [xy])


def test_cartier_smooth_pass_for_smooth_kinds():
    for s in (FP_X, F2_XY, LAURENT):
        rep = cartier_smooth_check(s, 2, 3 * s.p)
        assert rep["verdict"] == "consistent-with-Cartier-smooth up to caps"


def test_cartier_smooth_failure_witness_for_dual_numbers():
    dual = spec("p=3\nkind=quotient\nvars=x:1\nrels=x^2")
    rep = cartier_smooth_check(dual, 1, 9)
    assert rep["verdict"] == "fails Cartier-smoothness"
    assert rep["witness"] is not None
    # degree 1 fails concretely: C^{-1}(dx) = [x^2 dx] = 0
    assert rep["degrees"][1]["all_pass"] is False


def test_cartier_smooth_finite_field_trivial():
    fq = spec("p=2\nkind=finite_field\nf=3")
    rep = cartier_smooth_check(fq, 2, 4)
    assert rep["verdict"] == "consistent-with-Cartier-smooth up to caps"


def test_leibniz_and_dd_zero_all_weights():
    C = DeRhamComplex(F2_XY, 2, 6)
    from drwitt.exactcore import mat_mul

    for w in C.weights():
        A = dense_d(C, 0, w)
        B = dense_d(C, 1, w)
        if A and B and B[0:1] and (B[0] if B else []):
            prod = mat_mul(C.K, A, B)
            assert not any(any(row) for row in prod)


def test_cartier_lands_in_closed_forms():
    # composing the raw Cartier image with d gives 0 before passing to H^i
    C = DeRhamComplex(FP_X, 2, 27)
    for w in range(1, 9):
        raw, basis, _ = C.algebra.component(1, w)
        for k in basis:
            img = C.algebra.frobenius_form(raw[k])
            assert all(c % C.spec.p == 0 for _, c in C.algebra.d_form(img))  # top degree here, and d of x^{pw-1}dx = 0


def test_frobenius_twist_weight_bookkeeping():
    C = DeRhamComplex(FP_X, 2, 27)
    data = C.inverse_cartier(1)
    assert sorted(data) == list(range(1, 10))  # p*w within the cap
    for w, entry in data.items():
        # one source form x^{w-1} dx; its image class lives at weight p*w,
        # where H^1 is one-dimensional, and not at w unless p | w
        H = C.cohomology_subquot(1, 3 * w)
        assert len(entry["matrix"]) == 1 and len(entry["matrix"][0]) == H.gen_count()
        assert C.h_dim(1, 3 * w) == 1 and entry["passes"]
        assert C.h_dim(1, w) == (w % 3 == 0)


def test_relative_cartier_fp_to_fpx():
    # A = F_p, B = F_p[x]: relative = absolute over the prime field
    rel = RelativeCartier(spec("p=2\nkind=poly\nvars=x:1"), (), 1, 4).check()
    assert rel["all_pass"]


def test_relative_cartier_subvariable():
    # A = F_p[x] -> B = F_p[x,y]: C^{-1}(dy) = [y^{p-1} dy], x untouched
    rel = RelativeCartier(F2_XY, ("x",), 1, 4).check()
    assert rel["all_pass"]


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("f", [1, 2])
def test_relative_over_the_constants_is_the_absolute_map(p, f):
    # A = the field of constants: each relative block (i, 0, v) is the
    # absolute C^{-1} at weight v, matrix and pass bit, and no block has u != 0
    for kind, vars_ in (("poly", "x:1"), ("poly", "x:1,y:1"), ("poly", "x:1,y:2"), ("laurent", "x:1"), ("laurent", f"x:{p}")):
        s = spec(f"p={p}\nkind={kind}\nvars={vars_}\nf={f}")
        cap, i_max = 2 * p, s.nvars + 1
        rel = RelativeCartier(s, (), i_max, cap).check()
        C = DeRhamComplex(s, i_max + 1, cap)
        absolute = {i: C.inverse_cartier(i) for i in range(i_max + 1)}
        passes = cartier_smooth_check(s, i_max, cap)["degrees"]
        assert rel["blocks"] and all(u == 0 for _, u, _ in rel["blocks"]), s
        for (i, _, v), ok in rel["blocks"].items():
            assert rel["matrix_support"][(i, 0, v)] == tuple(map(tuple, absolute[i][v]["matrix"])), (s, i, v)
            assert ok == passes[i]["weights"][v], (s, i, v)


@pytest.mark.parametrize("change", ["extend:0", "extend:-1", "extend:abc"])
def test_base_change_rejects_a_degree_that_is_not_a_positive_integer(change):
    with pytest.raises(UnsupportedBaseChange):
        base_change_check(spec("p=2\nkind=poly\nvars=x:1"), (), change, 1, 4)


def test_base_change_field_extension():
    out = base_change_check(spec("p=2\nkind=poly\nvars=x:1"), (), "extend:2", 1, 4)
    assert out["verdict_preserved"] and out["matrices_correspond"]


def test_base_change_localization():
    out = base_change_check(spec("p=3\nkind=poly\nvars=x:1"), (), "localize:x", 1, 6)
    assert out["before"] and out["after"] and out["verdict_preserved"]


def test_quasi_homogeneity_enforced():
    with pytest.raises(NonQuasiHomogeneous):
        spec("p=2\nkind=quotient\nvars=x:2,y:3\nrels=y^2-x")


def test_relative_cartier_generator_rule():
    # relative C^{-1}(dy) = [y^{p-1} dy] with the base variable untouched
    rc = RelativeCartier(F2_XY, ("x",), 1, 4)
    assert rc.forms(1, 0, 1) == [((0, 0), (1,))]  # bigrade (0,1): the form dy
    rel = rc.check()
    M = rel["matrix_support"][(1, 0, 1)]
    # the image class of dy generates H^1 at bigrade (0, p): y^{p-1} dy
    assert len(M) == 1 and any(M[0]) and rel["blocks"][(1, 0, 1)]


def _oracle_rings(p, f):
    ext = f"\nf={f}" if f > 1 else ""
    texts = [f"kind=poly\nvars={v}" for v in ("x:1", "x:1,y:1", "x:2,y:3", "x:1,y:1,z:1")]
    texts += [f"kind=laurent\nvars=x:{m}" for m in (1, p)]
    texts += [
        "kind=quotient\nvars=x:2,y:3\nrels=y^2-x^3",
        "kind=quotient\nvars=x:1,y:1\nrels=x*y",
        "kind=quotient\nvars=x:1,y:1,z:1\nrels=x*y-z^2",
    ]
    return [spec(f"p={p}\n{t}{ext}") for t in texts]


@pytest.mark.parametrize("p,f", [(2, 1), (2, 2), (3, 1), (3, 2), (5, 1), (5, 2)])
def test_cohomology_from_ranks_matches_the_subquotient(p, f):
    # dim H^i = rank - rk d^i - rk d^(i-1) against ker/im as a SubQuot
    for s in _oracle_rings(p, f):
        C = DeRhamComplex(s, s.nvars + 1, 6)
        for w in C.weights():
            for i in range(s.nvars + 2):
                assert C.cohomology(i, w) == C.cohomology_subquot(i, w).invariants(), (s, i, w)


def test_relative_dimensions_from_ranks_match_the_subquotient():
    for s in (F2_XY, spec("p=3\nkind=poly\nvars=x:1,y:1,z:2\nf=2")):
        rc = RelativeCartier(s, ("x",), 2, 4)
        for u, v in rc.bigrades():
            for i in range(4):
                H = rc.cohomology_subquot(i, u, v)
                assert rc.h_dim(i, u, v) * s.f == len(H.invariants().torsion), (s, i, u, v)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_relative_forms_match_the_separate_enumeration(p):
    # the filter on MonomialAlgebra.forms against A- and B-monomials built apart
    cells = 0
    for f in (1, 2):
        for kind, vars_ in (("poly", "x:1,y:1"), ("poly", "x:1,y:2,z:1"), ("laurent", "x:1")):
            s = spec(f"p={p}\nkind={kind}\nvars={vars_}\nf={f}")
            for k in range(s.nvars + 1):
                for a_vars in itertools.combinations(s.variables, k):
                    rc = RelativeCartier(s, a_vars, s.nvars + 1, 4)
                    for u, v in rc.bigrades():
                        for i in range(s.nvars + 2):
                            want = reference_relative_forms(rc, i, u, v)
                            assert sorted(rc.forms(i, u, v)) == sorted(want), (s, a_vars, i, u, v)
                            cells += bool(want)
    assert cells > 100


@pytest.mark.parametrize("verb", [["derham", "table"], ["cartier-check"]])
def test_each_de_rham_verb_builds_one_complex(verb, tmp_path, monkeypatch, capsys):
    from drwitt.cli import main

    built, checked = [], []
    init, check = DeRhamComplex.__init__, DeRhamComplex._check_leibniz_dd

    def counting_init(self, *args):
        built.append(args)
        init(self, *args)

    def counting_check(self):
        checked.append(self.i_max)
        check(self)

    monkeypatch.setattr(DeRhamComplex, "__init__", counting_init)
    monkeypatch.setattr(DeRhamComplex, "_check_leibniz_dd", counting_check)
    ring = tmp_path / "xy.ring"
    ring.write_text("p = 3\nkind = poly\nvars = x:1, y:1\n")
    assert main(verb + ["--ring", str(ring), "--maxdeg", "3", "--weight-cap", "6", "--json"]) == 0
    assert len(built) == 1 and checked == [4]


D_RANK_RINGS = {
    "xyz-p2": "p=2\nkind=poly\nvars=x:1, y:1, z:1",
    "xyz-p3": "p=3\nkind=poly\nvars=x:1, y:1, z:1",
    "cusp-p3": "p=3\nkind=quotient\nvars=x:2, y:3\nrels=y^2 - x^3",
    "xy-z2-p2": "p=2\nkind=quotient\nvars=x:1, y:1, z:1\nrels=x*y - z^2",
    "laurent-p3": "p=3\nkind=laurent\nvars=x:1",
    "cusp-gf4": "p=2\nkind=quotient\nvars=x:2, y:3\nrels=y^2 - t*x^3\nf=2",
}


@pytest.mark.parametrize("text", D_RANK_RINGS.values(), ids=D_RANK_RINGS.keys())
def test_d_rank_is_the_rank_of_the_dense_reference(text):
    # the sparse rows of d agree with the dense build, and their rank with
    # the dense elimination, at every degree and weight of the window
    C = DeRhamComplex(spec(text), 3, 8)
    for w in C.weights():
        for i in range(3):
            d = dense_d(C, i, w)
            assert d == reference_d_matrix(C, i, w), (i, w)
            full = C.rank(i, w) and C.rank(i + 1, w)
            assert C.d_rank(i, w) == (len(reference_gf_rref(C.K, d, C.rank(i + 1, w))) if full else 0)


def count_gf_normal_forms(monkeypatch):
    """The ncols of each GF(p^f) call of exactcore.modules.normal_form, the
    dense boundary of GF elimination, under derham's name for it as well."""
    from drwitt import derham
    from drwitt.exactcore import modules

    dense = []
    real = modules.normal_form

    def counting(ring, rows, ncols):
        if isinstance(ring, GF):
            dense.append(ncols)
        return real(ring, rows, ncols)

    monkeypatch.setattr(modules, "normal_form", counting)
    monkeypatch.setattr(derham, "normal_form", counting)
    return dense


def test_d_rank_builds_no_dense_matrix(monkeypatch):
    C = DeRhamComplex(spec(D_RANK_RINGS["xyz-p2"]), 4, 10)
    dense = count_gf_normal_forms(monkeypatch)
    dims = {(i, w): C.h_dim(i, w) for i in range(4) for w in C.weights()}
    assert sum(C.d_rank(i, w) for i, w in dims) > 0
    assert dense == []
    # the counter sees the dense path: C^-1 reads coordinates on a SubQuot
    C.inverse_cartier(1)
    assert dense


@pytest.mark.parametrize("text, maxdeg, cap", [(D_RANK_RINGS["xyz-p2"], 3, 10), (D_RANK_RINGS["cusp-p3"], 2, 60)],
                         ids=["xyz-p2", "cusp-p3"])
def test_the_d_squared_check_and_the_table_build_no_dense_matrix(monkeypatch, text, maxdeg, cap):
    # the self-check composes the sparse rows of d, and a table reads ranks
    dense = count_gf_normal_forms(monkeypatch)
    table = derham_table(spec(text), maxdeg, cap)
    assert sum(len(row) for row in table.values()) > 0
    assert dense == []


def test_a_nonzero_d_squared_is_caught_under_python_O(tmp_path):
    # the d o d self-check raises AssertionError itself, which -O keeps; a d
    # without its signs has d(d(xy)) = 2 dx^dy, nonzero at p = 3
    ring = tmp_path / "xy.ring"
    ring.write_text("p = 3\nkind = poly\nvars = x:1, y:1\n")
    code = (
        "import sys\n"
        "from drwitt.cli import main\n"
        "from drwitt.rings import MonomialAlgebra\n"
        "real = MonomialAlgebra.d_form\n"
        "MonomialAlgebra.d_form = lambda self, form: [(g, abs(c)) for g, c in real(self, form)]\n"
        f"sys.exit(main(['derham', 'table', '--ring', {str(ring)!r}]))\n"
    )
    src = os.path.dirname(os.path.dirname(drwitt.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 1
    assert proc.stderr.startswith("internal error: AssertionError: d o d != 0"), proc.stderr
