"""Lifts, decalage, saturation, strict levels, and their oracles."""

import itertools
from fractions import Fraction

import pytest

from drwitt.dieudonne import (
    SaturatedModel,
    eta_p_lattice,
    internal_precision,
    lift_with_frobenius,
    mod_p_compatibility,
    p_times,
    perfection_consistency_check,
    saturate,
    strict_truncate,
)
from drwitt.errors import UnsupportedKind
from drwitt.exactcore import InvariantFactors, ZmodRing, howell, mat_mul
from drwitt.rings import parse_ringspec, wkey


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
    assert L.f_matrix(0, 0) == [[1]]  # F = phi = id on the lift of F_p


def test_lift_poly_bases_and_frobenius():
    L = lift_with_frobenius(F3X, 6)
    assert [f for f, _ in [(L.forms(0, w), w) for w in range(3)][0][0]] or True
    assert L.forms(0, 2) == [((2,), ())]
    assert L.forms(1, 2) == [((1,), (0,))]
    # F(dx) = x^{p-1} dx
    assert L.f_matrix(1, 1) == [[1]]  # x^0 dx -> x^{p-1} dx, single slots
    F0 = L.f_matrix(0, 1)
    assert F0 == [[1]]  # x -> x^p


def test_lift_dieudonne_relation():
    for s in (F2X, F3X, LAU2):
        L = lift_with_frobenius(s, 6)
        L.check_dieudonne_relations([1, 2, 3])


def test_lift_fq_frobenius_is_witt_frobenius():
    L = lift_with_frobenius(F4, 5)
    F = L.f_matrix(0, 0)
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
            D = L.d_matrix(n, w)
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
    assert m.lattice(0, 0) == [[1]]
    assert m.frob(0, 0) == [[1]]
    assert m.versch(0, 0) == [[3]]
    assert m.rank(1, 0) == 0


def test_saturate_poly_saturation_criterion():
    # F is bijective onto {x : dx in p * (next degree)} per weight
    from drwitt.exactcore import normal_form, preimage, span_equal

    m = saturate(F2X, 3, 1)
    ring = m.ring
    for num in range(1, 9):
        for n in (0, 1):
            u = wkey(Fraction(num, 2))
            src_rank = m.rank(n, u)
            tgt_rank = m.rank(n, p_times(u, 2))
            if not src_rank or not tgt_rank:
                continue
            F = m.frob(n, u)
            D = m.d(n, p_times(u, 2))
            nxt_rank = m.rank(n + 1, p_times(u, 2))
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
                if not m.rank(n, u):
                    continue
                V = m.versch(n, u)
                if V is None:
                    continue
                F = m.frob(n, wkey(Fraction(u) / p)) if m.rank(n, wkey(Fraction(u) / p)) else None
                # F(V(x)) = p x
                FV = mat_mul(m.ring, V, m.frob(n, wkey(Fraction(u) / p)))
                pI = [[(p if i == j else 0) for j in range(m.rank(n, u))] for i in range(m.rank(n, u))]
                assert FV == pI


def test_fdv_equals_d():
    m = saturate(F3X, 2, 1)
    for num in range(1, 7):
        u = wkey(Fraction(num, 3))
        if not m.rank(0, u) or not m.rank(1, wkey(Fraction(u) / 3)):
            continue
        V = m.versch(0, u)
        if V is None:
            continue
        down = wkey(Fraction(u) / 3)
        dV = mat_mul(m.ring, V, m.d(0, down))
        FdV = mat_mul(m.ring, dV, m.frob(1, down))
        assert FdV == m.d(0, u)


def test_torsion_freeness_at_precision():
    # multiplication by p injective on every computed component: lattice
    # bases are honest bases, so p * basis has the same rank
    m = saturate(F2X, 2, 1)
    for num in range(0, 9):
        u = wkey(Fraction(num, 2))
        for n in (0, 1):
            k = m.rank(n, u)
            if not k:
                continue
            amb = m.lattice(n, u)
            scaled = [[(2 * x) % m._amb.q for x in row] for row in amb]
            H = howell(m._amb, scaled, len(amb[0]))
            assert len(H) == k


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
        from drwitt.exactcore import gf_rank

        for w in range(lo, 7):
            dm = lvl.d_map(0, w)
            if dm is None:
                continue
            om = C.d_matrix(0, w)
            r1 = ZmodRing(s.p, 1)
            H = howell(r1, [[x % s.p for x in row] for row in dm], len(dm[0]) if dm else 0) if dm else []
            assert len(H) == gf_rank(C.K, om, C.rank(1, w)) if om else True


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


def test_restriction_surjective_with_v_kernel():
    m = saturate(F2X, 3, 1)
    l2 = strict_truncate(m, 2)
    l3 = strict_truncate(m, 3)
    for u in (1, 2, Fraction(1, 2)):
        Rmat = l2.restriction_from(l3, 0, u)
        assert Rmat is not None
        # surjectivity: R of the generators spans the target
        tgt = l2.group(0, u)
        pres = tgt.presentation()
        from drwitt.exactcore import normal_form, span_contains

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
    F = l3.frob_to_lower(l2, 0, u)
    V = l2.versch_to_higher(l3, 0, p_times(u, 3))
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
        g1 = m.lattice(0, 1)
        d1 = m.d(0, 1)  # in lattice coords
        F1 = m.frob(1, 1)
        lhs = mat_mul(m.ring, d1, F1)  # F(d[x]-ish basis)
        # [x]^{p-1} d[x]: ambient monomial shift of the weight-1 generator by
        # (p-1) p^{s*}: this is the weight-p generator times a unit; compare
        # against the image coordinates directly
        tgt = m.lattice(1, p)
        forms = m.lift.forms(1, p * p**sstar)
        target_exp = (p * p**sstar - 1,)
        vec = [0] * len(forms)
        vec[forms.index((target_exp, (0,)))] = 1
        from drwitt.exactcore import solve

        coords = solve(m._amb, tgt, vec)
        want = [x % m.ring.q for x in coords]
        # d[x] has a single basis coordinate; compare the single row
        assert len(lhs) == 1 or True
        got = mat_mul(m.ring, m.d(0, 1), m.frob(1, 1))
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
        assert m.frob(0, u) == [[1]]
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
            m.frob(n, u)
            m.versch(n, u)
    ref = weakref.ref(m)
    del m, level
    gc.collect()
    assert ref() is None


def test_each_lattice_runs_its_stages_once(monkeypatch):
    # a lattice builds its stage-s* basis once and its certificate adds only
    # the stage s*+1; an empty lattice has no certificate
    from collections import Counter

    from drwitt.synlog import syntomic

    calls, models = [], []
    stage, init = SaturatedModel._stage_lattice, SaturatedModel.__init__

    def counting_stage(self, n, w, s):
        calls.append((id(self), n, w, s))
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
        for (n, a), basis in m._memo_lattice_at.items():
            want[(id(m), n, a, m.s_star)] += 1
            if basis:
                want[(id(m), n, a * m.p, m.s_star + 1)] += 1
    lattices = [b for m in models for b in m._memo_lattice_at.values()]
    assert any(lattices) and not all(lattices)
    assert Counter(calls) == want


def test_eta_p_restricted_differential():
    # d restricts to the decalage sublattice: d(eta_p) lands in eta_p
    from drwitt.dieudonne import eta_p_differential

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
    L.check_dieudonne_relations([1, 2])


def test_multivariable_laurent_rejected():
    with pytest.raises(UnsupportedKind):
        spec("p=2\nkind=laurent\nvars=x:1,y:1")
