"""De Rham complexes, cohomology, inverse Cartier maps, smoothness checks."""

import random

import pytest

from drwitt.derham import (
    DeRhamComplex,
    base_change_check,
    cartier_smooth_check,
    derham_cohomology,
    inverse_cartier,
    kaehler,
    relative_cartier_check,
)
from drwitt.errors import NonQuasiHomogeneous, UnsupportedKind
from drwitt.exactcore import InvariantFactors
from drwitt.rings import parse_ringspec


def spec(text):
    return parse_ringspec(text)


FP_X = spec("p=3\nkind=poly\nvars=x:1")
F2_XY = spec("p=2\nkind=poly\nvars=x:1,y:1")
CUSP = spec("p=2\nkind=quotient\nvars=x:2,y:3\nrels=y^2-x^3")
LAURENT = spec("p=3\nkind=laurent\nvars=x:1")


def test_poly_omega1_rank_one_per_weight():
    C = kaehler(FP_X, 1, 8)
    for w in range(1, 9):
        assert C.rank(1, w) == 1  # basis x^{w-1} dx
    assert C.rank(1, 0) == 0


def test_poly_ranks_binomial():
    C = kaehler(F2_XY, 2, 5)
    # weight-w piece of Omega^i over F_2[x,y] with unit weights:
    # monomial count per J of size i, total weight w
    for w in range(0, 5):
        assert C.rank(0, w) == w + 1
        assert C.rank(2, w + 2) == w + 1
    assert C.rank(1, 3) == 2 * 3  # two J's, coefficient weight 2 each


def test_perfection_rejected_by_kaehler_but_short_circuited():
    perf = spec("p=3\nkind=perfection of poly\nvars=x:1")
    with pytest.raises(UnsupportedKind):
        kaehler(perf, 1, 4)
    assert derham_cohomology(perf, 1, 4) == {}
    rep = cartier_smooth_check(perf, 2, 4)
    assert rep["verdict"].startswith("consistent")


def test_cusp_presentation_ranks():
    # relation d(y^2 - x^3) = x^2 dx (p = 2) kills x^2 dx in weight 6
    C = kaehler(CUSP, 1, 10)
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
            C = kaehler(CUSP, 2, 12)
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
    data = inverse_cartier(FP_X, 0, 9)
    # weight 1 -> weight 3: x maps to the class of x^3 in H^0
    entry = data[1]
    assert entry["source_rank"] == 1
    assert entry["matrix"] == [[1]]


def test_inverse_cartier_degree1_log_form():
    data = inverse_cartier(FP_X, 1, 9)
    entry = data[1]  # dx |-> class of x^{p-1} dx in weight p
    assert entry["source_rank"] == 1
    assert entry["matrix"] is not None and len(entry["matrix"]) == 1


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
    C = kaehler(F2_XY, 2, 6)
    from drwitt.exactcore import mat_mul

    for w in C.weights():
        A = C.d_matrix(0, w)
        B = C.d_matrix(1, w)
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
    data = inverse_cartier(FP_X, 1, 27)
    for w, entry in data.items():
        if entry["source_rank"]:
            # target lives at weight exactly p*w: encoded by construction,
            # spot-check the target subquotient is the one at p*w
            H = DeRhamComplex(FP_X, 2, 27).cohomology_subquot(1, 3 * w)
            assert entry["target"].invariants() == H.invariants()


def test_relative_cartier_fp_to_fpx():
    # A = F_p, B = F_p[x]: relative = absolute over the prime field
    rel = relative_cartier_check(spec("p=2\nkind=poly\nvars=x:1"), (), 1, 4)
    assert rel["all_pass"]


def test_relative_cartier_subvariable():
    # A = F_p[x] -> B = F_p[x,y]: C^{-1}(dy) = [y^{p-1} dy], x untouched
    rel = relative_cartier_check(F2_XY, ("x",), 1, 4)
    assert rel["all_pass"]


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
    from drwitt.derham import RelativeCartier

    rc = RelativeCartier(F2_XY, ("x",), 1, 4)
    M, H, src = rc.cartier_matrix(1, 0, 1)  # bigrade (0,1): the form dy
    assert src == [((0, 0), (1,))]
    # the image class of dy generates H^1 at bigrade (0, p): y^{p-1} dy
    assert M is not None and len(M) == 1 and any(M[0])
