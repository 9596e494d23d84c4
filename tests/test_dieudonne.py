"""Lifts, decalage, saturation, strict levels, and their oracles."""

import itertools
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from drwitt.dieudonne import (
    LiftComplex,
    SaturatedModel,
    StrictLevel,
    internal_precision,
    lift_with_frobenius,
    mod_p_compatibility,
    perfection_consistency_check,
    saturate,
    strict_truncate,
)
from drwitt.errors import PrecisionExhausted, UnsupportedKind
from drwitt.exactcore import InvariantFactors, ZmodRing, Zq, howell, identity, mat_mul
from drwitt.exactcore import modules as exactcore_modules
from drwitt.rings import MonomialAlgebra, p_split, parse_ringspec, window, wkey

from helpers import (
    check_dieudonne_relations,
    eta_p_lattice,
    frob_to_lower,
    illusie_strict_invariants,
    reference_certify,
    reference_d_at,
    reference_express,
    reference_frob_at,
    reference_group,
    reference_lattice_at,
    reference_lift_d_matrix,
    reference_lift_f_matrix,
    reference_relations,
    reference_stage_lattice,
    reference_strict_invariants,
    reference_versch_at,
    reference_weight_class,
    reference_weight_window,
    restriction_from,
    solve,
    span_contains,
    span_equal,
    versch_to_higher,
    weight_class_specs,
)


def spec(text):
    return parse_ringspec(text)


FP = spec("p=3\nkind=finite_field")
F4 = spec("p=2\nkind=finite_field\nf=2")
F2X = spec("p=2\nkind=poly\nvars=x:1")
F3X = spec("p=3\nkind=poly\nvars=x:1")
LAU2 = spec("p=2\nkind=laurent\nvars=x:1")
PERF2 = spec("p=2\nkind=perfection of poly\nvars=x:1")


# ---------------------------------------------------------------------------
# lift

def test_lift_fp_is_rank_one_degree_zero():
    L = lift_with_frobenius(FP, 6)
    assert L.rank(0, 0) == 1
    assert L.rank(1, 0) == 0
    assert reference_lift_f_matrix(L, 0, 0) == [[1]]  # F = phi = id on the lift of F_p


def test_lift_poly_bases_and_frobenius():
    L = lift_with_frobenius(F3X, 6)
    assert [f for f, _ in [(L.forms(0, w), w) for w in range(3)][0][0]] or True
    assert L.forms(0, 2) == [((2,), ())]
    assert L.forms(1, 2) == [((1,), (0,))]
    # F(dx) = x^{p-1} dx
    assert reference_lift_f_matrix(L, 1, 1) == [[1]]  # x^0 dx -> x^{p-1} dx, single slots
    F0 = reference_lift_f_matrix(L, 0, 1)
    assert F0 == [[1]]  # x -> x^p


def test_lift_dieudonne_relation():
    for s in (F2X, F3X, LAU2):
        L = lift_with_frobenius(s, 6)
        check_dieudonne_relations(L, [1, 2, 3])


def test_lift_fq_frobenius_is_witt_frobenius():
    L = lift_with_frobenius(F4, 5)
    F = reference_lift_f_matrix(L, 0, 0)
    # sigma^2 = id on Z_4-lift
    F2_ = mat_mul(L.ring, F, F)
    eye = [[1 if i == j else 0 for j in range(2)] for i in range(2)]
    assert F2_ == eye
    assert F != eye  # sigma is nontrivial


# ---------------------------------------------------------------------------
# eta_p

def test_eta_p_trivial_cases():
    L = lift_with_frobenius(FP, 6)
    assert eta_p_lattice(L, 0, 0) == [[1]]  # degree 0, d = 0: everything


def test_eta_p_identity_differential():
    # M = [Z_p --1--> Z_p]: degree-0 part pZ_p, degree-1 part pZ_p
    # realized inside the lift of F_p[x] at weight p (where d is injective
    # with unit coefficient for w not divisible by p)
    L = lift_with_frobenius(F3X, 6)
    w = 1  # d(x) = dx, unit coefficient
    deg0 = eta_p_lattice(L, 0, w)
    assert deg0 == [[3]]  # {x : dx in 3 M} = 3 Z_p
    deg1 = eta_p_lattice(L, 1, w)
    assert deg1 == [[3]]  # p^1 M^1, top degree


def test_eta_p_brute_force_scan_f3x():
    # enumerate vectors mod p^2 satisfying x in p^n M, dx in p^(n+1) M
    L = lift_with_frobenius(F3X, 4)
    p, q2 = 3, 9
    for w in range(0, 10):
        for n in (0, 1):
            k = L.rank(n, w)
            if k == 0:
                continue
            D = reference_lift_d_matrix(L, n, w)
            kt = L.rank(n + 1, w)
            got = eta_p_lattice(L, n, w)
            R2 = ZmodRing(3, 2)
            got_mod = howell(R2, [[x % q2 for x in row] for row in got], k)
            brute = []
            for vec in itertools.product(range(q2), repeat=k):
                if any(x % p**n for x in vec):
                    continue
                img = [sum(c * D[i][j] for i, c in enumerate(vec)) % q2 for j in range(kt)] if kt else []
                if all(x % min(p ** (n + 1), q2) == 0 for x in img):
                    brute.append(list(vec))
            assert howell(R2, brute, k) == got_mod


# ---------------------------------------------------------------------------
# saturation

def test_saturate_fp_is_zp_with_v_equals_p():
    m = saturate(FP, 2, 1)
    assert m.lattice_at(0, m.num(0)) == [[1]]
    assert m.frob_at(0, m.num(0)) == [[1]]
    assert m.versch_at(0, m.num(0)) == [[3]]
    assert m.rank_at(1, m.num(0)) == 0


def test_saturate_poly_saturation_criterion():
    # F is bijective onto {x : dx in p * (next degree)} per weight
    from drwitt.exactcore import normal_form, preimage

    m = saturate(F2X, 3, 1)
    ring = m.ring
    for num in range(1, 9):
        for n in (0, 1):
            u = wkey(Fraction(num, 2))
            src_rank = m.rank_at(n, m.num(u))
            tgt_rank = m.rank_at(n, m.num(u * 2))
            if not src_rank or not tgt_rank:
                continue
            F = m.frob_at(n, m.num(u))
            D = m.d_at(n, m.num(u * 2))
            nxt_rank = m.rank_at(n + 1, m.num(u * 2))
            if nxt_rank:
                cond = preimage(
                    ring, D, [[2 if a == b else 0 for b in range(nxt_rank)] for a in range(nxt_rank)]
                )
            else:
                cond = [[1 if a == b else 0 for b in range(tgt_rank)] for a in range(tgt_rank)]
            assert span_equal(ring, F, cond, tgt_rank), (n, u)


def test_fv_vf_equal_p_on_model():
    for s, p in ((F2X, 2), (F3X, 3)):
        m = saturate(s, 2, 1)
        for num in range(1, 7):
            u = wkey(Fraction(num, p))
            for n in (0, 1):
                if not m.rank_at(n, m.num(u)):
                    continue
                V = m.versch_at(n, m.num(u))
                if V is None:
                    continue
                F = m.frob_at(n, m.num(wkey(Fraction(u) / p))) if m.rank_at(n, m.num(wkey(Fraction(u) / p))) else None
                # F(V(x)) = p x
                FV = mat_mul(m.ring, V, m.frob_at(n, m.num(wkey(Fraction(u) / p))))
                pI = [[(p if i == j else 0) for j in range(m.rank_at(n, m.num(u)))] for i in range(m.rank_at(n, m.num(u)))]
                assert FV == pI


def test_fdv_equals_d():
    m = saturate(F3X, 2, 1)
    for num in range(1, 7):
        u = wkey(Fraction(num, 3))
        if not m.rank_at(0, m.num(u)) or not m.rank_at(1, m.num(wkey(Fraction(u) / 3))):
            continue
        V = m.versch_at(0, m.num(u))
        if V is None:
            continue
        down = wkey(Fraction(u) / 3)
        dV = mat_mul(m.ring, V, m.d_at(0, m.num(down)))
        FdV = mat_mul(m.ring, dV, m.frob_at(1, m.num(down)))
        assert FdV == m.d_at(0, m.num(u))


def test_torsion_freeness_at_precision():
    # multiplication by p injective on every computed component: lattice
    # bases are honest bases, so p * basis has the same rank
    m = saturate(F2X, 2, 1)
    for num in range(0, 9):
        u = wkey(Fraction(num, 2))
        for n in (0, 1):
            k = m.rank_at(n, m.num(u))
            if not k:
                continue
            amb = m.lattice_at(n, m.num(u))
            scaled = [[(2 * x) % m._amb.q for x in row] for row in amb]
            H = howell(m._amb, scaled, len(amb[0]))
            assert len(H) == k


ONE_VAR_KINDS = (
    "kind=laurent\nvars=x:1",
    "kind=poly\nvars=x:1",
    "kind=finite_field",
    "kind=perfection of poly\nvars=x:1",
    "kind=perfection of laurent\nvars=x:1",
    "kind=perfection of finite_field",
)


@settings(max_examples=200, deadline=None)
@given(
    p=st.sampled_from([2, 3, 5]),
    f=st.integers(1, 2),
    kind=st.sampled_from(ONE_VAR_KINDS),
    r=st.integers(1, 2),
    n=st.sampled_from([0, 0, 1]),
    k=st.sampled_from(range(-3, 5)),
    den_exp=st.sampled_from(range(4)),
    next_stage=st.booleans(),
    data=st.data(),
)
def test_express_is_solve_mod_p_r(p, f, kind, r, n, k, den_exp, next_stage, data):
    # back-substitution against a lattice's Howell basis gives the
    # coordinates solve gives, reduced mod p^R, and None off the lattice
    m = SaturatedModel(spec(f"p={p}\nf={f}\n{kind}"), r, 1)
    a = k * p ** max(m.s_star - den_exp, 0)
    if next_stage and not m.is_perfection:
        # the stage-(s*+1) lattice a certificate expresses F-images in
        basis = m._stage_lattice(n, a * p, m.s_star + 1)
    else:
        basis = m.lattice_at(n, a)
    assume(basis)
    amb, q = m._amb, m.ring.q
    width = len(basis[0])
    c = data.draw(st.lists(st.integers(0, amb.q - 1), min_size=len(basis), max_size=len(basis)))
    inside = mat_mul(amb, [c], basis)[0]
    # perturb one column, preferring the non-unit pivots, where a small
    # step can leave the lattice
    pivots = [next(j for j, x in enumerate(h) if x) for h in basis]
    deep = [j for j, h in zip(pivots, basis) if h[j] % p == 0]
    j = data.draw(st.sampled_from(deep or range(width)))
    row = list(inside)
    row[j] = (row[j] + data.draw(st.sampled_from([0, 1, p, p**2, -1]))) % amb.q
    want = solve(amb, basis, row)
    got = m._express([row], basis)
    assert got == (None if want is None else [[x % q for x in want]])
    if row == inside:
        assert got == [[x % q for x in c]]  # the coordinates are unique mod p^R
    for col in deep:
        # a unit vector at a non-unit pivot lies outside the lattice
        e = [int(j == col) for j in range(width)]
        assert m._express([e], basis) is None and solve(amb, basis, e) is None


@pytest.mark.parametrize("kind", ONE_VAR_KINDS)
@pytest.mark.parametrize("m", ["1", "p"])
@pytest.mark.parametrize("f", [1, 2])
@pytest.mark.parametrize("p", [2, 3, 5])
def test_closed_form_lattices_match_the_generic_ones(p, f, m, kind):
    # nvars <= 1 => d = e I_f: the stage lattice is p^max(0, s - v_p(e)) I,
    # the Howell form of the generic preimage, and a solve against it is
    # division by p^c, the generic back-substitution's result
    text = f"p={p}\nf={f}\n{kind}".replace("x:1", f"x:{p if m == 'p' else 1}")
    model = SaturatedModel(spec(text), 1, 1)
    q = model._amb.q
    seen = set()
    for a in window(2, model.P, model.spec.is_laurent):
        for n in (0, 1):
            for s in (model.s_star, model.s_star + 1):
                w = a * p ** (s - model.s_star)
                basis = model._stage_lattice(n, w, s)
                assert basis == reference_stage_lattice(model, n, w, s), (a, n, s)
                if not basis:
                    continue
                seen.add(basis[0][0])
                # unit rows and their p-multiples (outside a deep lattice),
                # combinations of basis rows and negated basis rows (inside)
                units = identity(len(basis))
                rows = units + [[p * x for x in e] for e in units]
                rows += [[(x * (j + 2) + y * p) % q for x, y in zip(h, basis[0])] for j, h in enumerate(basis)]
                rows += [[-x % q for x in h] for h in basis]
                for row in rows:
                    assert model._express([row], basis) == reference_express(model, [row], basis), (a, n, s, row)
                assert model._express(rows, basis) == reference_express(model, rows, basis)
    # the grid reaches the identity and, where there is a variable, a p-power scaling
    assert 1 in seen and (len(seen) > 1 or "finite_field" in kind)


def test_a_stage_lattice_refuses_a_d_that_is_not_scalar():
    # the closed form rests on d = e I_f on one form per degree, so another
    # d, injected through the lift's forms, raises
    model = SaturatedModel(spec("p=3\nf=2\nkind=poly\nvars=x:1"), 1, 1)
    a = 1  # x^1 at weight 1/P, where d is 1 and E_s is p^s M
    assert model._stage_lattice(0, a, model.s_star) == identity(2, 3**model.s_star)
    algebra = model.lift.algebra
    x, dx = algebra.forms(0, a)[0], algebra.forms(1, a)[0]
    # d(x) = dx + y with a second form at each degree: [[1, 1], [0, 1]] on the forms
    y0, y1 = ((9,), ()), ((8,), (0,))
    forms, d_form = algebra.forms, algebra.d_form
    algebra.forms = lambda n, w: forms(n, w) + ([[y0], [y1]][n] if w == a and n < 2 else [])
    algebra.d_form = lambda form: [(dx, 1), (y1, 1)] if form == x else d_form(form)
    with pytest.raises(AssertionError, match="not a scalar matrix"):
        model._stage_lattice(0, a, model.s_star)
    # one form per degree, but d sends x to a form other than the one at (1, a)
    algebra.forms = forms
    algebra.d_form = lambda form: [(y1, 1)]
    with pytest.raises(AssertionError, match="not a scalar matrix"):
        model._stage_lattice(0, a, model.s_star)


def test_a_stage_lattice_refuses_a_scalar_d_that_is_not_w_over_m():
    # d_at reads the scalar off a and m; the unit multiple 4 of the lift's
    # scalar 1 at x^1 (weight 2) gives the same lattice but is refused
    model = SaturatedModel(spec("p=3\nf=2\nkind=poly\nvars=x:2"), 1, 1)
    a = 2
    assert model._stage_lattice(0, a, model.s_star) == identity(2, 3**model.s_star)
    dx = model.lift.forms(1, a)[0]
    model.lift.algebra.d_form = lambda form: [(dx, 4)]
    with pytest.raises(AssertionError, match="is 4, not w/m"):
        model._stage_lattice(0, a, model.s_star)


def test_a_lift_f_that_is_not_sigma_is_refused(monkeypatch):
    # frob_at and versch_at read sigma: a certificate checks the lift's F at
    # its class, and a perfection, which has no certificate, at construction;
    # F is sigma when frobenius_form sends x^e to x^(p e)
    model = SaturatedModel(spec("p=3\nf=2\nkind=poly\nvars=x:1"), 1, 1)
    algebra = model.lift.algebra
    assert algebra.frobenius_form(((1,), ())) == ((3,), ()) and model._sigma != identity(2)
    algebra.frobenius_form = lambda form: form
    with pytest.raises(AssertionError, match="is not sigma"):
        model.lattice_at(0, 1)
    perf = spec("p=3\nf=2\nkind=perfection of poly\nvars=x:1")
    assert SaturatedModel(perf, 1, 1).lattice_at(0, 1) == identity(2)
    monkeypatch.setattr(MonomialAlgebra, "frobenius_form", lambda self, form: ((1,), form[1]))
    with pytest.raises(AssertionError, match="is not sigma"):
        SaturatedModel(perf, 1, 1)


def _raised(build):
    """The message of the PrecisionExhausted that build() raises; None when it raises none."""
    try:
        build()
    except PrecisionExhausted as e:
        return str(e)
    return None


@pytest.mark.parametrize("kind", ONE_VAR_KINDS)
@pytest.mark.parametrize("f", [1, 2, 3])
@pytest.mark.parametrize("p", [2, 3, 5])
def test_the_certificate_matches_its_reference(p, f, kind, monkeypatch):
    # the certificate decides on lattice exponents what the reference
    # decides on the lift's dense F, a product, a solve and a Howell form:
    # both pass on every lattice of a cap-3 window, and a stage-(s*+1)
    # lattice of another rank, one step deeper or one step shallower, or a
    # sigma singular mod p makes both raise one message
    text = f"p={p}\nf={f}\n{kind}"
    model = SaturatedModel(spec(text), 1, 1)
    stage, s_next = model._stage_lattice, model.s_star + 1
    lattices = []
    for a in window(3, model.P, model.spec.is_laurent):
        for n in range(model.lift.top + 1):
            cur = stage(n, a, model.s_star)
            if cur:
                lattices.append((n, a, cur))
    assert lattices
    for n, a, cur in lattices:
        assert model._certify(n, a, cur) and reference_certify(model, n, a, cur)
    faults = {
        "saturation not stabilized": lambda b: b[:-1],
        "transition image escapes": lambda b: identity(len(b), b[0][0] * p),
        "saturation transition not bijective": lambda b: identity(len(b), b[0][0] // p) if b[0][0] % p == 0 else None,
    }
    for message, fault in faults.items():
        tested = 0
        for n, a, cur in lattices:
            bad = fault(stage(n, a * p, s_next))
            if bad is None:
                continue
            monkeypatch.setattr(model, "_stage_lattice", lambda n, w, s: bad if s == s_next else stage(n, w, s))
            got = _raised(lambda: model._certify(n, a, cur))
            assert got == _raised(lambda: reference_certify(model, n, a, cur)), (message, n, a)
            assert got.startswith(message), (got, n, a)
            tested += 1
        # a lattice p^c' I with c' > 0 exists wherever there is a variable
        assert tested or (message.endswith("bijective") and "finite_field" in kind)
    lift_frobenius = Zq._lift_frobenius

    def singular(W):
        sigma = lift_frobenius(W)
        return sigma[:-1] + [[W.p * x % W.q for x in sigma[-1]]]

    monkeypatch.setattr(Zq, "_lift_frobenius", singular)
    model = SaturatedModel(spec(text), 1, 1)
    for n, a, cur in lattices:
        got = _raised(lambda: model._certify(n, a, cur))
        assert got == _raised(lambda: reference_certify(model, n, a, cur)), (n, a)
        assert got.startswith("saturation transition not bijective"), (got, n, a)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_the_maps_read_no_lift_matrix(p, monkeypatch):
    # the lift has no dense d or F matrix, and past a model's construction
    # (sigma^-1 by powering, the test of sigma mod p) no lattice,
    # certificate or map multiplies or row-reduces a matrix: they read the
    # lift's forms, sigma and the lattice exponents.  On the benchmark's
    # seed-0 sweep cells at p a certificate forms no Howell form
    from helpers import load_perfbench

    assert not {"d_matrix", "f_matrix", "_coords"} & set(dir(LiftComplex))
    calls, certifying = [], [0]
    for name in ("howell", "mat_mul"):
        fn = getattr(exactcore_modules, name)
        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("drwitt") and getattr(module, name, None) is fn:
                monkeypatch.setattr(
                    module, name, lambda *args, fn=fn, name=name: calls.append((name, certifying[0])) or fn(*args)
                )
    certify = SaturatedModel._certify

    def counting_certify(self, *args):
        certifying[0] += 1
        try:
            return certify(self, *args)
        finally:
            certifying[0] -= 1

    monkeypatch.setattr(SaturatedModel, "_certify", counting_certify)
    nonzero = certified = 0
    for s in weight_class_specs(p):
        model = saturate(s, 2, 1)
        built = len(calls)
        grid = _lattice_grid(model, 2)
        for a in grid:
            for b in (a, a * p, a // p):
                for n in range(model.top + 3):
                    model.lattice_at(n, b)
        certified += sum(1 for basis in model._lattices.values() if basis)
        for a in grid:
            for n in range(model.top + 2):
                maps = model.d_at(n, a), model.frob_at(n, a), model.versch_at(n, a)
                nonzero += sum(1 for M in maps if M and any(map(any, M)))
        assert len(calls) == built, s
    # the lattices were certified, and the maps are not all zero
    assert certified and nonzero
    workloads, sweep = load_perfbench("workloads"), load_perfbench("sweep")
    cells = [job for job in workloads.select("stability_sweep", 0) if parse_ringspec(job.spec).p == p]
    calls.clear()
    for job in cells:
        _, stable = sweep.sweep_cell(parse_ringspec(job.spec), *job.cell)
        assert stable, job.id
    assert not [name for name, inside in calls if inside]
    assert ("howell", 0) in calls or not cells


@pytest.mark.parametrize("kind", ONE_VAR_KINDS)
@pytest.mark.parametrize("f", [1, 2])
@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("r", [1, 2])
def test_rank_at_is_the_ambient_rank(r, p, f, kind):
    # E_s contains p^s M, so every window lattice has the ambient rank;
    # the orbit support reads that rank and builds no lattice
    m = SaturatedModel(spec(f"p={p}\nf={f}\n{kind}"), r, 1)
    for a in window(2, m.P, m.spec.is_laurent):
        for n in range(m.top + 2):
            assert m.rank_at(n, a) == m.ambient_rank_at(n, a), (a, n)


# ---------------------------------------------------------------------------
# strict levels

def test_strict_fp_levels():
    m = saturate(FP, 3, 1)
    for r in (1, 2, 3):
        lvl = strict_truncate(m, r)
        assert lvl.invariants(0, 0) == InvariantFactors((3**r,))
        assert lvl.invariants(1, 0).is_trivial()


def test_strict_level_one_matches_derham():
    from drwitt.derham import DeRhamComplex

    for s in (F2X, F3X, LAU2):
        m = saturate(s, 1, 1)
        lvl = strict_truncate(m, 1)
        C = DeRhamComplex(s, 2, 6)
        lo = -6 if s.is_laurent else 0
        for w in range(lo, 7):
            for n in (0, 1):
                drw = lvl.invariants(n, w)
                omega = C.cohomology_subquot(n, w)  # not cohomology: raw rank
                rank = C.rank(n, w)
                expected = InvariantFactors.of([s.p] * (rank * s.f))
                assert drw == expected, (s.describe(), n, w)
        # d matrices have matching ranks
        for w in range(lo, 7):
            dm = lvl.d_map(0, w)
            if dm is None:
                continue
            r1 = ZmodRing(s.p, 1)
            H = howell(r1, [[x % s.p for x in row] for row in dm], len(dm[0]) if dm else 0) if dm else []
            assert len(H) == C.d_rank(0, w) if C.rank(0, w) else True


def test_strict_fq_levels_match_witt():
    for text, p, f in (("p=2\nkind=finite_field\nf=2", 2, 2), ("p=3\nkind=finite_field\nf=3", 3, 3)):
        s = spec(text)
        m = saturate(s, 3, 1)
        for r in (1, 2, 3):
            lvl = strict_truncate(m, r)
            assert lvl.invariants(0, 0) == InvariantFactors((p**r,) * f)
            assert lvl.invariants(1, 0).is_trivial()


def test_strict_poly_weight_structure():
    # weight w with denominator p^e contributes Z/p^{r-e} in degree 0
    m = saturate(F2X, 3, 1)
    lvl = strict_truncate(m, 3)
    assert lvl.invariants(0, 1) == InvariantFactors((8,))
    assert lvl.invariants(0, Fraction(1, 2)) == InvariantFactors((4,))
    assert lvl.invariants(0, Fraction(1, 4)) == InvariantFactors((2,))
    assert lvl.invariants(0, 0) == InvariantFactors((8,))  # constants W_3(F_2)


@pytest.mark.parametrize("laurent", [False, True])
def test_strict_weights_are_ints_when_integral(laurent):
    # the level-2 weights of a p = 3 ring at cap 2 are the listed window over
    # 3, object for object: an int where integral, else a Fraction, so keys
    # built from them (str(u), wkey) are the listed window's
    ring = spec("p=3\nkind=laurent\nvars=x:1") if laurent else F3X
    level = strict_truncate(saturate(ring, 2, 1), 2)
    ws, ref = level.weights(2), reference_weight_window(2, 3, laurent)
    assert ws == ref and [type(u) for u in ws] == [type(u) for u in ref]
    plain = ws[6:] if laurent else ws
    assert type(plain[3]) is int and plain[1] == Fraction(1, 3) and type(plain[1]) is Fraction


def test_repeated_invariants_build_one_group_and_normalize_once(monkeypatch):
    # invariants read the class exponent and build no group; group builds
    # one SubQuot per class on the rows p^e I as given, and b is their
    # normal form, formed once on first read and equal to the reference's
    import drwitt.dieudonne as dieudonne
    import drwitt.exactcore.modules as modules

    level = strict_truncate(saturate(F3X, 2, 1), 2)
    u = Fraction(1, 3)
    a = level.model.num(u)
    rels = reference_relations(level, 1, a)  # the generic V^r, V^r d and p^r rows
    built, normalized = [], []
    sub, nf = dieudonne.SubQuot, modules.normal_form

    def counting_subquot(*args):
        built.append(args)
        return sub(*args)

    def counting_nf(ring, rows, ncols):
        normalized.append(rows)
        return nf(ring, rows, ncols)

    monkeypatch.setattr(dieudonne, "SubQuot", counting_subquot)
    monkeypatch.setattr(modules, "normal_form", counting_nf)
    assert [level.invariants(1, u) for _ in range(4)] == [InvariantFactors((3,))] * 4
    assert not built and level._exponents == {(1, level.model.class_at(a)): 1}
    groups = [level.group(1, u) for _ in range(4)]
    assert len(built) == 1 and all(g is groups[0] for g in groups)
    assert built[0][2:] == (identity(1), identity(1, 3)) and not normalized
    assert rels != nf(level.ring, rels, 1)
    assert [g.b for g in groups] == [nf(level.ring, rels, 1)] * 4 == [identity(1, 3)] * 4
    assert normalized == [identity(1, 3)]


@pytest.mark.parametrize("p", [2, 3, 5])
def test_strict_invariants_match_the_per_weight_groups(p):
    # each weight reads its class representative's invariants; the
    # reference builds every weight's own group.  One group per class is built
    for s in weight_class_specs(p):
        for r in (1, 2, 3):
            model = saturate(s, r, 1)
            level, ref = strict_truncate(model, r), strict_truncate(model, r)
            cells = [(n, u) for u in level.weights(4) for n in range(model.top + 1)]
            for n, u in cells:
                assert level.invariants(n, u) == reference_strict_invariants(ref, n, u), (s, r, n, u)
            # one exponent per class, and no group: invariants read the exponent
            assert len(level._exponents) == len({(n, reference_weight_class(s, u)) for n, u in cells})
            assert not level._groups


@pytest.mark.parametrize("p", [2, 3, 5])
def test_the_illusie_oracle_matches_the_strict_levels(p):
    # Illusie's complex E gives W_r Omega^n_u without SaturatedModel; it
    # agrees with the closed-form invariants and with each weight's own
    # generic group (V^r, V^r d and p^r rows by mat_mul, then a Smith
    # form) on every cell of the window, degrees past the top included
    cells = 0
    for s in weight_class_specs(p):
        for r in (1, 2, 3):
            model = saturate(s, r, 1)
            level, ref = strict_truncate(model, r), strict_truncate(saturate(s, r, 1), r)
            for u in level.weights(4):
                for n in range(model.top + 2):
                    want = illusie_strict_invariants(s, r, n, u)
                    assert level.invariants(n, u) == want == reference_strict_invariants(ref, n, u), (s, r, n, u)
                    cells += 1
    assert cells == {2: 1750, 3: 3142, 5: 7318}[p]  # 7,578 cells at degrees <= top


@pytest.mark.parametrize("p", [2, 3, 5])
def test_strict_invariants_form_no_product_normal_form_or_smith_form(p, monkeypatch):
    # the invariants are (Z/p^e)^k read off lattice exponents: once the
    # models are built (sigma^-1 and sigma's unit test take a product and a
    # Howell form there), no cell of the grid multiplies, normalizes or
    # takes a Smith form
    levels = [
        (model, strict_truncate(model, r))
        for s in weight_class_specs(p)
        for r in (1, 2, 3)
        for model in [saturate(s, r, 1)]
    ]
    calls = []
    for name in ("mat_mul", "howell", "normal_form", "quotient_invariants"):
        fn = getattr(exactcore_modules, name)
        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("drwitt") and getattr(module, name, None) is fn:
                monkeypatch.setattr(module, name, lambda *args, name=name: calls.append(name))
    nontrivial = 0
    for model, level in levels:
        for u in level.weights(4):
            for n in range(model.top + 2):
                nontrivial += not level.invariants(n, u).is_trivial()
    assert not calls and nontrivial


def test_the_p_r_rows_cap_the_exponent(monkeypatch):
    # p^r = V^r F^r is among the relations, so e <= r.  On the model c never
    # grows along a, a p, ..., a p^r, so V^r alone stays at or below p^r; a
    # degree-1 lattice one p deeper at a p^r (patched here) puts V^r at p^3
    # on F_3[x] at level 2, and at weight 3 d V^r is at p^3 too
    model = saturate(F3X, 2, 1)
    a = model.num(3)
    lattice_at = model.lattice_at

    def deeper(n, b):
        lat = lattice_at(n, b)
        return [[3 * x for x in row] for row in lat] if (n, b) == (1, a * 9) else lat

    assert strict_truncate(model, 2).invariants(1, 3) == InvariantFactors((9,))
    monkeypatch.setattr(model, "lattice_at", deeper)
    level = strict_truncate(model, 2)
    assert level.invariants(1, 3) == InvariantFactors((9,)) and level._exponents == {(1, model.class_at(a)): 2}


def test_weight_class_keys():
    x3 = spec("p=2\nkind=poly\nvars=x:3")
    lau = spec("p=3\nkind=laurent\nvars=x:3")
    keys = [reference_weight_class(x3, u) for u in (0, 1, 3, 6, -3, Fraction(3, 2))]
    assert keys == ["zero", "none", 0, 1, "none", -1]
    # no sign: x^-3 and x^3 share a class on a Laurent ring
    assert [reference_weight_class(lau, u) for u in (-9, 9, Fraction(1, 3), 2)] == [1, 1, -2, -1]
    assert [reference_weight_class(F4, u) for u in (0, 1, Fraction(1, 2))] == ["zero", "none", "none"]
    assert reference_weight_class(PERF2, Fraction(-1, 4)) == "none"


def _lattice_grid(model, r):
    """Numerators of the weights |u| <= 3 with denominator <= p^r, the window of an orbit walk."""
    step = model.P // model.p**r
    return [k * step for k in window(3, model.p**r, model.spec.is_laurent)]


def _same_partition(items, key1, key2):
    """key1 and key2 group `items` alike."""
    pairs = {(key1(x), key2(x)) for x in items}
    return len(pairs) == len({k for k, _ in pairs}) == len({k for _, k in pairs})


@pytest.mark.parametrize("p", [2, 3, 5])
def test_lattices_match_the_per_numerator_reference(p):
    # one basis per (degree, class_at key) equals the basis each numerator
    # builds and certifies on its own, and class_at groups the numerators
    # as the reference weight key groups their weights
    for s in weight_class_specs(p):
        for r in (1, 2, 3):
            model, ref = saturate(s, r, 1), saturate(s, r, 1)
            grid = _lattice_grid(model, r)
            for a in grid:
                for n in range(model.top + 2):
                    assert model.lattice_at(n, a) == reference_lattice_at(ref, n, a), (s, r, n, a)
            assert _same_partition(grid, model.class_at, lambda a: reference_weight_class(s, Fraction(a, model.P)))


def test_a_class_key_without_the_unit_clause_shares_wrong_lattices(monkeypatch):
    # on x:(p+1) a numerator that p + 1 does not divide has no monomial; a key
    # that drops that clause puts it in the class of one that has, and the
    # per-numerator reference sees the wrong lattice
    def no_unit_clause(self, a):
        if a == 0:
            return "zero"
        return "none" if a < 0 and not self.spec.is_laurent else p_split(a, self.p)[0]

    monkeypatch.setattr(SaturatedModel, "class_at", no_unit_clause)
    s = spec("p=2\nkind=poly\nvars=x:3")
    model, ref = saturate(s, 2, 1), saturate(s, 2, 1)
    grid = _lattice_grid(model, 2)
    assert any(model.lattice_at(n, a) != reference_lattice_at(ref, n, a) for a in grid for n in (0, 1))


def test_class_at_keys():
    # the keys of test_weight_class_keys, on numerators; a ring without
    # variables keys its nonzero numerators "none" together
    x3 = saturate(spec("p=2\nkind=poly\nvars=x:3"), 2, 1)
    assert [x3.class_at(x3.num(u)) for u in (0, 1, 3, 6, -3, Fraction(3, 2))] == ["zero", "none", 3, 4, "none", 2]
    lau = saturate(spec("p=3\nkind=laurent\nvars=x:3"), 2, 1)
    assert [lau.class_at(lau.num(u)) for u in (-9, 9, Fraction(1, 3))] == [6, 6, 3]
    f4 = saturate(F4, 2, 1)
    assert [f4.class_at(f4.num(u)) for u in (0, 1, Fraction(1, 2))] == ["zero", "none", "none"]


@pytest.mark.parametrize("p", [2, 3, 5])
def test_maps_match_the_per_numerator_reference(p):
    # F and V once per (degree, class_at key) and d rescaled from the first
    # numerator of its class equal what each numerator computes on its own,
    # and V is None exactly past the cap; over the level's window, each
    # strict group once per class has the Howell form and invariants of
    # the weight's own group
    for s in weight_class_specs(p):
        for r in (1, 2, 3):
            model, ref = saturate(s, r, 1), saturate(s, r, 1)
            for a in _lattice_grid(model, r):
                for n in range(model.top + 2):
                    cell = s, r, n, a
                    assert model.d_at(n, a) == reference_d_at(ref, n, a), cell
                    assert model.frob_at(n, a) == reference_frob_at(ref, n, a), cell
                    assert model.versch_at(n, a) == reference_versch_at(ref, n, a), cell
                    assert (model.versch_at(n, a) is None) == (a % p != 0), cell
            level, ref_level = strict_truncate(model, r), strict_truncate(ref, r)
            for u in level.weights(3):
                for n in range(model.top + 2):
                    got, want = level.group(n, u), reference_group(ref_level, n, u)
                    assert (got.z, got.b) == (want.z, want.b), (s, r, n, u)
                    assert level.invariants(n, u) == want.invariants(), (s, r, n, u)


@pytest.mark.parametrize("p", [2, 3])
def test_maps_match_the_reference_where_sigma_has_order_three(p):
    # at f <= 2 sigma is its own inverse, so only f = 3 tells V = p sigma^-1
    # from p sigma; d, F and V are compared cell by cell with the generic
    # per-numerator maps, and V F = F V = p is checked in lattice coordinates
    for kind in ("kind=poly\nvars=x:1", "kind=laurent\nvars=x:{p}", "kind=perfection of poly\nvars=x:1"):
        s = spec(f"p={p}\nf=3\n" + kind.format(p=p))
        model, ref = saturate(s, 1, 1), saturate(s, 1, 1)
        assert model._sigma_inv != model._sigma
        # sigma^(f-1) by binary powering is f - 1 applications of Zq.frobenius
        W = model.lift.W
        assert model._sigma_inv == [list(W.frobenius_inverse(row)) for row in identity(3)]
        for a in _lattice_grid(model, 1):
            for n in range(model.top + 2):
                cell = s, n, a
                assert model.d_at(n, a) == reference_d_at(ref, n, a), cell
                assert model.frob_at(n, a) == reference_frob_at(ref, n, a), cell
                assert model.versch_at(n, a) == reference_versch_at(ref, n, a), cell
                if n <= model.top and model.rank_at(n, a):
                    pI = identity(model.rank_at(n, a), p)
                    assert mat_mul(model.ring, model.frob_at(n, a), model.versch_at(n, p * a)) == pI, cell


def test_a_map_into_a_deeper_lattice_is_refused():
    # the closed forms divide by the target's p^c'; a remainder is an image
    # outside the target lattice and raises, naming the map
    model = saturate(F3X, 1, 1)
    assert model._onto(3, identity(1), identity(1, 3), "no") == [[1]]
    with pytest.raises(PrecisionExhausted, match="^F image escapes the target lattice$"):
        model._onto(3, model._sigma, identity(1, 9), "F image escapes the target lattice")


def test_versch_cap_is_per_numerator_inside_one_class():
    # on x:3 over p = 2 the key "none" holds a = 1, which p does not
    # divide, and a = 2, which it does: V is None at 1 and the empty map at
    # 2, whichever numerator a fresh model reads first
    x3 = spec("p=2\nkind=poly\nvars=x:3")
    for order in ((1, 2), (2, 1)):
        model = saturate(x3, 2, 1)
        assert model.class_at(1) == model.class_at(2) == "none"
        for a in order:
            for n in range(model.top + 1):
                assert (model.versch_at(n, a) is None) == (a == 1), (order, n, a)
        assert model.versch_at(0, 2) == []


def _times(ring, c, M):
    return [[c * x % ring.q for x in row] for row in M]


@pytest.mark.parametrize("p", [2, 3, 5])
def test_class_keyed_maps_satisfy_the_dieudonne_identities(p):
    # in lattice coordinates at every window numerator a: V F = p and F V = p
    # (row vectors, so mat_mul(A, B) is A then B), d F = p F d, and d d = 0
    # (which lands in degree top + 1, zero on these one-variable specs)
    for s in weight_class_specs(p):
        for r in (1, 2, 3):
            model = saturate(s, r, 1)
            ring = model.ring
            for a in _lattice_grid(model, r):
                for n in range(model.top + 1):
                    cell = s, r, n, a
                    pI = identity(model.rank_at(n, a), p)
                    F = model.frob_at(n, a)
                    assert mat_mul(ring, F, model.versch_at(n, p * a)) == pI, cell
                    if a % p == 0:
                        assert mat_mul(ring, model.versch_at(n, a), model.frob_at(n, a // p)) == pI, cell
                    dF = mat_mul(ring, F, model.d_at(n, p * a))
                    Fd = mat_mul(ring, model.d_at(n, a), model.frob_at(n + 1, a))
                    assert dF == _times(ring, p, Fd), cell
                    dd = mat_mul(ring, model.d_at(n, a), model.d_at(n + 1, a))
                    assert not any(map(any, dd)), cell


def test_each_map_and_group_is_built_once_per_class(monkeypatch):
    # on one-variable cells each strict exponent and group is built once
    # per (level, degree, class_at key), and a class serves more numerators
    # than it builds at; d, F and V are closed forms per numerator (see
    # test_the_maps_read_no_lift_matrix)
    from collections import Counter

    import drwitt.dieudonne as dieudonne
    from drwitt.synlog import syntomic

    built, asked = Counter(), {}

    def counting(owner, name, public):
        method, read = getattr(owner, name), getattr(owner, public)

        def wrapped(self, n, a):
            model = getattr(self, "model", self)
            built[(name, id(self), n, model.class_at(a))] += 1
            return method(self, n, a)

        def asking(self, n, a):
            asked.setdefault(name, set()).add((id(self), n, a))
            return read(self, n, a)

        monkeypatch.setattr(owner, name, wrapped)
        monkeypatch.setattr(owner, public, asking)

    counting(StrictLevel, "_exponent", "invariants")
    groups, subquot = [], dieudonne.SubQuot
    monkeypatch.setattr(dieudonne, "SubQuot", lambda *args: groups.append(args) or subquot(*args))
    syntomic(LAU2, 1, 2, 2, 4)
    level = strict_truncate(saturate(F3X, 2, 1), 2)
    model, p = level.model, level.p
    for u in level.weights(3):
        for n in (0, 1):
            level.invariants(n, u)
            level.d_map(n, u)
    # one exponent per class, fewer than the cells that read one
    assert set(built.values()) == {1}
    assert 0 < len(built) < len(asked["_exponent"])
    # one group per class that d_map reads, each I over p^e I with that class's exponent
    classes = {(n, model.class_at(model.num(u))) for u in level.weights(3) for n in (0, 1, 2)}
    assert len(groups) == len(classes) == len(level._groups) < 3 * len(level.weights(3))
    for key, grp in level._groups.items():
        k, e = len(grp.z), level._exponents[key]
        assert (grp.z, grp._b) == (identity(k), identity(k, p**e)), key


def test_invariants_past_the_denominator_cap_raise_after_their_class_is_seen():
    # x^(1/3) and x^(1/9) are both "none", but weight 1/3 has no numerator
    level = strict_truncate(saturate(spec("p=2\nkind=poly\nvars=x:3"), 2, 1), 2)
    assert level.invariants(0, 1).is_trivial()
    with pytest.raises(PrecisionExhausted):
        level.invariants(0, Fraction(1, 3))


def test_restriction_surjective_with_v_kernel():
    m = saturate(F2X, 3, 1)
    l2 = strict_truncate(m, 2)
    l3 = strict_truncate(m, 3)
    for u in (1, 2, Fraction(1, 2)):
        Rmat = restriction_from(l2, l3, 0, u)
        assert Rmat is not None
        # surjectivity: R of the generators spans the target
        tgt = l2.group(0, u)
        pres = tgt.presentation()
        from drwitt.exactcore import normal_form

        k = tgt.gen_count()
        assert span_contains(
            m.ring, Rmat + list(pres.relations), [[1 if i == j else 0 for j in range(k)] for i in range(k)], k
        )


def test_level_fv_vf_p_and_fdv():
    m = saturate(F3X, 3, 2)
    l2 = strict_truncate(m, 2)
    l3 = strict_truncate(m, 3)
    u = 1
    # F: W_3 -> W_2 at p*u, V: W_2 -> W_3
    F = frob_to_lower(l3, l2, 0, u)
    V = versch_to_higher(l2, l3, 0, u * 3)
    assert F is not None and V is not None
    # V F = 3 on W_3 at weight u... composition lands back at weight u
    VF = mat_mul(m.ring, F, V)
    three = [[(3 if i == j else 0) for j in range(len(VF))] for i in range(len(VF))]
    g3 = l3.group(0, u)
    for row_vf, row_3 in zip(VF, three):
        diff = [(a - b) % m.ring.q for a, b in zip(row_vf, row_3)]
        assert g3.presentation().is_zero_element(diff)


def test_f_d_teich_identity():
    # F d[x] = [x]^{p-1} d[x] in the model for F_p[x]
    for s, p in ((F2X, 2), (F3X, 3)):
        m = saturate(s, 2, 1)
        sstar = m.s_star
        # ambient vectors at stage s*: [x] = x^{p^{s*}}, d[x], [x]^{p-1} d[x]
        g1 = m.lattice_at(0, m.num(1))
        d1 = m.d_at(0, m.num(1))  # in lattice coords
        F1 = m.frob_at(1, m.num(1))
        lhs = mat_mul(m.ring, d1, F1)  # F(d[x]-ish basis)
        # [x]^{p-1} d[x]: ambient monomial shift of the weight-1 generator by
        # (p-1) p^{s*}: this is the weight-p generator times a unit; compare
        # against the image coordinates directly
        tgt = m.lattice_at(1, m.num(p))
        forms = m.lift.forms(1, p * p**sstar)
        target_exp = (p * p**sstar - 1,)
        vec = [0] * len(forms)
        vec[forms.index((target_exp, (0,)))] = 1
        coords = solve(m._amb, tgt, vec)
        want = [x % m.ring.q for x in coords]
        # d[x] has a single basis coordinate; compare the single row
        assert len(lhs) == 1 or True
        got = mat_mul(m.ring, m.d_at(0, m.num(1)), m.frob_at(1, m.num(1)))
        unit_row = got[0]
        assert unit_row == want


# ---------------------------------------------------------------------------
# mod p^r comparison and perfection bypass

def test_mod_p_compatibility_examples():
    assert mod_p_compatibility(FP, 2, 1, 2)
    assert mod_p_compatibility(F2X, 2, 1, 4)
    assert mod_p_compatibility(spec("p=3\nkind=finite_field\nf=2"), 3, 1, 2)


def test_perfection_bypass_and_consistency():
    m = saturate(PERF2, 3, 1)
    lvl = strict_truncate(m, 3)
    for u in (0, 1, 2, Fraction(1, 2), Fraction(3, 4)):
        assert lvl.invariants(0, u) == InvariantFactors((8,))
        assert lvl.invariants(1, u).is_trivial()
    assert perfection_consistency_check(PERF2, 2, 3)
    perf3 = spec("p=3\nkind=perfection of laurent\nvars=x:1")
    m3 = saturate(perf3, 2, 1)
    l3 = strict_truncate(m3, 2)
    assert l3.invariants(0, Fraction(-1, 3)) == InvariantFactors((9,))
    assert perfection_consistency_check(perf3, 2, 2)


@pytest.mark.parametrize("wt", [1, 2, 4, 8])
@pytest.mark.parametrize("r", [1, 2])
def test_perfection_keeps_roots_finer_than_the_weight_denominator(wt, r):
    # x^(u/wt) lies in the perfection for every u when wt is a power of p,
    # so every weight of the table carries W_r(F_2) = Z/2^r, and F and V
    # move between the weights with a single monomial on each side
    m = saturate(spec(f"p=2\nkind=perfection of poly\nvars=x:{wt}"), r, 1)
    level = strict_truncate(m, r)
    for u in level.weights(2):
        assert level.invariants(0, u) == InvariantFactors((2**r,))
        assert m.frob_at(0, m.num(u)) == [[1]]
        a = m.num(u)
        if a:
            assert m.versch_at(0, a * 2) == [[2]]


def test_two_variable_perfection_rejected():
    with pytest.raises(UnsupportedKind):
        saturate(spec("p=2\nkind=perfection of poly\nvars=x:1, y:1"), 1, 1)


def test_quotient_kind_rejected():
    cusp = spec("p=2\nkind=quotient\nvars=x:2,y:3\nrels=y^2-x^3")
    with pytest.raises(UnsupportedKind):
        lift_with_frobenius(cusp, 5)


def test_stability_under_precision_bump():
    # raising R and the weight cap never changes reported invariant factors
    for s in (F2X, FP):
        m1 = saturate(s, 2, 1)
        m2 = SaturatedModel(s, 2, 1, R=internal_precision(2, 1) + 1)
        l1, l2 = strict_truncate(m1, 2), strict_truncate(m2, 2)
        for u in l1.weights(3):
            for n in (0, 1):
                assert l1.invariants(n, u) == l2.invariants(n, u)


def test_used_model_is_freed_with_its_caches():
    # per-instance caches must not keep a model alive after its last use
    import gc
    import weakref

    m = saturate(F2X, 2, 1)
    level = strict_truncate(m, 2)
    for u in level.weights(3):
        for n in (0, 1):
            level.invariants(n, u)
            m.frob_at(n, m.num(u))
            m.versch_at(n, m.num(u))
    ref = weakref.ref(m)
    del m, level
    gc.collect()
    assert ref() is None


def test_each_lattice_runs_its_stages_once(monkeypatch):
    # a lattice builds its stage-s* basis once per (degree, class_at key)
    # and its certificate adds only the stage s*+1; an empty lattice has no
    # certificate.  The stage s*+1 runs at a p for a lattice at a
    from collections import Counter

    from drwitt.synlog import syntomic

    calls, models = [], []
    stage, init = SaturatedModel._stage_lattice, SaturatedModel.__init__

    def counting_stage(self, n, w, s):
        calls.append((id(self), n, self.class_at(w // self.p ** (s - self.s_star)), s))
        return stage(self, n, w, s)

    def keeping_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        models.append(self)

    monkeypatch.setattr(SaturatedModel, "_stage_lattice", counting_stage)
    monkeypatch.setattr(SaturatedModel, "__init__", keeping_init)
    syntomic(LAU2, 1, 2, 2, 4)
    level = strict_truncate(saturate(F3X, 2, 1), 2)
    for u in level.weights(3):
        for n in (0, 1):
            level.invariants(n, u)
    want = Counter()
    for m in models:
        for (n, key), basis in m._lattices.items():
            want[(id(m), n, key, m.s_star)] += 1
            if basis:
                want[(id(m), n, key, m.s_star + 1)] += 1
    lattices = [b for m in models for b in m._lattices.values()]
    assert any(lattices) and not all(lattices)
    assert Counter(calls) == want


def test_eta_p_restricted_differential():
    # d restricts to the decalage sublattice: d(eta_p) lands in eta_p
    from helpers import eta_p_differential

    L = lift_with_frobenius(F3X, 6)
    for w in range(1, 7):
        b0 = eta_p_lattice(L, 0, w)
        b1 = eta_p_lattice(L, 1, w)
        D = eta_p_differential(L, 0, w, b0, b1)
        assert len(D) == len(b0)


def test_saturation_two_variables_refused_loudly():
    # weight components of the colimit have unbounded rank once there are
    # two variables, so the model refuses at entry rather than mis-reporting
    s = spec("p=2\nkind=poly\nvars=x:1,y:1")
    with pytest.raises(UnsupportedKind):
        saturate(s, 1, 2)
    # the lift itself is still available in any number of variables
    L = lift_with_frobenius(s, 5)
    check_dieudonne_relations(L, [1, 2])


def test_multivariable_laurent_rejected():
    with pytest.raises(UnsupportedKind):
        spec("p=2\nkind=laurent\nvars=x:1,y:1")
