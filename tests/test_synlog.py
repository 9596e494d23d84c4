"""Nygaard models, divided Frobenii, syntomic cohomology, log lattices."""

from fractions import Fraction
from functools import partial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from drwitt import budgets, derham, dieudonne, synlog
from drwitt.dieudonne import SaturatedModel, StrictLevel, perfection_consistency_check, saturate, strict_truncate
from drwitt.errors import PrecisionExhausted
from drwitt.exactcore import InvariantFactors, mat_mul
from drwitt.rings import parse_ringspec
from drwitt.synlog import (
    NygaardModel,
    log_lattice,
    log_mod_compat,
    nygaard_completeness_check,
    nygaard_graded_check,
    syntomic,
    verify_fundamental_seq,
    weight_orbits,
)
import helpers
from helpers import (
    check_identities,
    count_howell_calls,
    divided_frobenius,
    load_perfbench,
    nygaard,
    reference_certify_block_invertible,
    reference_compare_h_i_with_log,
    reference_graded_cohomology,
    reference_lift_d_matrix,
    reference_lift_f_matrix,
    reference_log_mod_compat,
    reference_nygaard_completeness_check,
    reference_nygaard_graded_check,
    reference_orbit_class,
    reference_orbit_fibers,
    reference_perfection_consistency_check,
    reference_span_invariants,
    reference_weight_class,
    reference_weight_orbits,
    reference_weight_support,
    solve,
    weight_class_specs,
)


def spec(text):
    return parse_ringspec(text)


FP2 = spec("p=2\nkind=finite_field")
FP3 = spec("p=3\nkind=finite_field")
F4 = spec("p=2\nkind=finite_field\nf=2")
F2X = spec("p=2\nkind=poly\nvars=x:1")
LAU2 = spec("p=2\nkind=laurent\nvars=x:1")
LAU3 = spec("p=3\nkind=laurent\nvars=x:1")
PERF2 = spec("p=2\nkind=perfection of poly\nvars=x:1")
PERF3 = spec("p=3\nkind=perfection of laurent\nvars=x:1")


# ---------------------------------------------------------------------------
# Nygaard model

def test_nygaard_fp_is_p_power_filtration():
    # N^{>=i} W(F_p) = p^i Z_p: the inclusion matrix is p^{i-1} V = p^i
    for i in (1, 2, 3):
        N = nygaard(FP3, i, 2, 2, 1)
        inc = N.inclusion_matrix(0, 0)
        assert inc == [[3**i % N.ring.q]]


def test_nygaard_fq_degree0_is_v_image():
    N = nygaard(F4, 1, 2, 2, 1)
    inc = N.inclusion_matrix(0, 0)
    # V W(F_q) = p sigma^{-1} W: the inclusion is p times a unit matrix
    assert all(x % 2 == 0 for row in inc for x in row)
    assert any(x % 4 for row in inc for x in row)


def test_nygaard_inclusion_composite_identity():
    # phi o can = p^i (phi/p^i), exercised over several weights
    for s in (F2X, LAU2):
        N = nygaard(s, 2, 2, 2, 2)
        check_identities(N, [0, 1, 2, Fraction(1, 2)])


def test_divided_frobenius_param_identity_below_twist():
    N = nygaard(F2X, 2, 2, 2, 2)
    m = N.divided_frobenius_matrix(0, N.model.num(1))
    k = N.param_rank(0, N.model.num(1))
    assert m == [[1 if a == b else 0 for b in range(k)] for a in range(k)]


def test_divided_frobenius_is_plain_f_at_twist():
    N = nygaard(F4, 1, 2, 2, 1)
    model = N.model
    assert N.divided_frobenius_matrix(1, 0) == model.frob_at(1, model.num(0))


def test_divided_frobenius_table():
    out = divided_frobenius(nygaard(F2X, 1, 1, 1, 2), 2)
    assert (0, 1) in out and (1, 1) in out


def test_phi_div_after_inclusion_recovers_parameter():
    # phi/p^i(p^{i-1-n} V x) = x: with our parametrization this is the
    # composite p^i-divisibility identity checked by check_identities,
    # but verify the matrix consequence F(V x) = p x directly too
    m = saturate(F2X, 2, 2)
    for u in (1, 2, Fraction(1, 2)):
        V = m.versch_at(0, m.num(u * 2))
        if V is None or not m.rank_at(0, m.num(u)):
            continue
        FV = mat_mul(m.ring, V, m.frob_at(0, m.num(u)))
        k = m.rank_at(0, m.num(u * 2))
        assert FV == [[(2 if a == b else 0) for b in range(k)] for a in range(k)]


# ---------------------------------------------------------------------------
# syntomic cohomology

def test_syntomic_fp_twist0_anchors():
    for r in (1, 2, 3):
        S = syntomic(FP3, 0, r, 2, 2)
        assert S.group(0) == InvariantFactors((3**r,))
        assert S.group(1) == InvariantFactors((3**r,))
        assert all(S.group(j).is_trivial() for j in (2, 3))


def test_syntomic_fp_positive_twists_vanish():
    for i in (1, 2, 3, 4):
        for r in (1, 2, 3):
            S = syntomic(FP2, i, r, 4, 2)
            assert all(v.is_trivial() for v in S.cohomology.values()), (i, r)


def test_syntomic_fq_twist0():
    S = syntomic(F4, 0, 2, 2, 2)
    # H^0 = Frobenius fixed points of W_2(F_4) = Z/4
    assert S.group(0) == InvariantFactors((4,))
    assert S.group(1) == InvariantFactors((4,))


def test_syntomic_laurent_twist1_weight_zero():
    S = syntomic(LAU2, 1, 2, 2, 4)
    assert S.weight_zero.get(1) == InvariantFactors((4,))


def test_weight_orbits_partition():
    m = saturate(F2X, 2, 1)
    orbits = weight_orbits(m, 4, 2)
    seen = [w for orb in orbits for w in orb]
    assert len(seen) == len(set(seen))
    assert [0] in orbits
    for orb in orbits:
        for a, b in zip(orb, orb[1:]):
            assert Fraction(b) == 2 * Fraction(a)


KINDS = (
    "kind=laurent\nvars=x:1",
    "kind=poly\nvars=x:1",
    "kind=finite_field",
    "kind=finite_field\nf=2",
    "kind=perfection of poly\nvars=x:1",
    "kind=perfection of laurent\nvars=x:1",
    "kind=perfection of finite_field",
)


# "{p}" is the prime and "{q}" is p + 1: a variable weight divisible by p,
# where a numerator with class_at key 0 carries no monomial, and one prime
# to p other than 1
WALK_KINDS = KINDS + ("kind=poly\nvars=x:{p}", "kind=poly\nvars=x:{q}", "kind=laurent\nvars=x:{p}")


@settings(max_examples=80, deadline=None)
@example(p=2, kind="kind=poly\nvars=x:{p}", r=1, cap=1, den_exp=3)  # orbits [[0], [2, 4, 8], [6]]
@given(
    p=st.sampled_from([2, 3, 5]),
    kind=st.sampled_from(WALK_KINDS),
    r=st.integers(1, 2),
    cap=st.integers(0, 6),
    den_exp=st.integers(0, 4),
)
def test_weight_orbits_match_the_weight_keyed_walk(p, kind, r, cap, den_exp):
    # den_exp reaches s* = r + 1 and beyond, where numerators prime to p
    # occur and the walk down must stop at them
    m = saturate(spec(f"p={p}\n" + kind.format(p=p, q=p + 1)), r, 2)
    got = [[Fraction(a, m.P) for a in orbit] for orbit in weight_orbits(m, cap, den_exp)]
    assert got == reference_weight_orbits(m, cap, den_exp)


@pytest.mark.parametrize("kind", WALK_KINDS)
@pytest.mark.parametrize("p", [2, 3, 5])
def test_window_size_counts_the_window_a_model_walks(p, kind, monkeypatch):
    # _weight_support counts its numerator range with len() without listing
    # it: with the budget at the window's own size it holds every supported
    # numerator, and one below that it refuses
    ring = spec(f"p={p}\n" + kind.format(p=p, q=p + 1))
    for r in (1, 2, 3):
        m = saturate(ring, r, 2)
        for cap in (0, 1, 4):
            want = [m.num(w) for w in reference_weight_support(m, cap, r)]
            monkeypatch.setattr(budgets, "WINDOW_MAX", len(want))
            assert list(synlog._weight_support(m, cap, r)) == want, (r, cap)
            monkeypatch.setattr(budgets, "WINDOW_MAX", len(want) - 1)
            budget = f"holds more than {len(want) - 1} numerators, the window budget$"
            with pytest.raises(PrecisionExhausted, match=budget):
                synlog._weight_support(m, cap, r)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("p", [2, 3])
def test_nygaard_graded_counts_its_window_before_walking_it(p, kind, monkeypatch):
    # nygaard_graded_check counts the supported numerators of denominator up
    # to p with _weight_support: with the budget at their number it runs as
    # before, and one below that it refuses before it compares a weight
    ring, graded = spec(f"p={p}\n{kind}"), synlog._graded_cohomology
    for cap in (0, 1, 3):
        size = len(reference_weight_support(saturate(ring, 1, 2), cap, 1))
        monkeypatch.setattr(budgets, "WINDOW_MAX", size)
        sides = reference_nygaard_graded_check(ring, 1, cap).values()
        assert nygaard_graded_check(ring, 1, cap) == all(a == b for a, b in sides)
        monkeypatch.setattr(budgets, "WINDOW_MAX", size - 1)
        monkeypatch.setattr(synlog, "_graded_cohomology", None)
        budget = f"^a weight window with cap {cap} and denominators up to {p}\\^1 holds more than {size - 1} numerators"
        with pytest.raises(PrecisionExhausted, match=budget + ", the window budget$"):
            nygaard_graded_check(ring, 1, cap)
        monkeypatch.setattr(synlog, "_graded_cohomology", graded)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_certificates_and_graded_cohomology_match_the_hand_assembled_blocks(p):
    # the certificate reads phi/p^i - can off the fiber differential; the
    # reference assembles it from the Nygaard matrices.  Each degree is
    # certified in the scheme verify_fundamental_seq uses there: deep below
    # the twist, aligned at and above it
    from drwitt.rings import window
    from drwitt.synlog import _certify_block_invertible, _graded_cohomology, _orbit_fibers

    for kind in KINDS:
        for i in (0, 1, 2):
            for r in (1, 2):
                m = saturate(spec(f"p={p}\n{kind}"), r, i + 1)
                N = NygaardModel(m, i)
                for _, deep_blk, aligned_blk, _ in _orbit_fibers(N, 3, r):
                    deep, aligned = deep_blk.complex(), aligned_blk.complex()
                    for n in range(m.top + 1):
                        blk, C = (deep_blk, deep) if n < i else (aligned_blk, aligned)
                        assert _certify_block_invertible(blk, C, n) == reference_certify_block_invertible(blk, n)
                for k in window(3, p, m.spec.is_laurent):
                    a = k * (m.P // p)
                    assert _graded_cohomology(N, a) == reference_graded_cohomology(N, a)


@settings(max_examples=200, deadline=None)
@given(
    p=st.sampled_from([2, 3, 5]),
    r=st.integers(1, 2),
    u=st.fractions(min_value=-30, max_value=30, max_denominator=700),
)
def test_num_is_the_weight_numerator_over_p_s_star(p, r, u):
    m = SaturatedModel(spec(f"p={p}\nkind=laurent\nvars=x:1"), r, 2)
    a = m.num(u)
    assert (a is None) == (m.P % u.denominator != 0)
    if a is not None:
        assert type(a) is int and Fraction(a, m.P) == u
        assert m.num(Fraction(a, m.P)) == a


# ---------------------------------------------------------------------------
# log lattices

def test_log_lattice_fp_degree0():
    lat = log_lattice(FP3, 0, 2)
    assert lat.invariants == InvariantFactors((9,))


def test_log_lattice_laurent_degree1():
    lat = log_lattice(LAU2, 1, 1)
    assert lat.invariants == InvariantFactors((2,))
    assert lat.symbols == ["dlog x"]
    lat2 = log_lattice(LAU2, 1, 2)
    assert lat2.invariants == InvariantFactors((4,))


def test_log_lattice_poly_degree1_trivial():
    assert log_lattice(F2X, 1, 2).invariants.is_trivial()


def test_log_lattice_fq_higher_degrees_vanish():
    for i in (1, 2):
        assert log_lattice(F4, i, 2).invariants.is_trivial()


def test_log_lattice_perfection_vanishes():
    perf = spec("p=2\nkind=perfection of laurent\nvars=x:1")
    assert log_lattice(perf, 1, 2).invariants.is_trivial()


def test_dlog_additive_on_products():
    # dlog(x^a * x^b) = (a+b) dlog x: symbol arithmetic on the generators
    m = saturate(LAU3, 2, 2)
    v = m.dlog_vector(0)
    ring = m.ring
    a, b = 2, 5
    lhs = [((a + b) * x) % ring.q for x in v]
    rhs = [(a * x + b * x) % ring.q for x in v]
    assert lhs == rhs


# ---------------------------------------------------------------------------
# fundamental sequence

@pytest.mark.parametrize(
    "text", ["p=2\nkind=finite_field", "p=2\nkind=finite_field\nf=2", "p=2\nkind=laurent\nvars=x:1"]
)
def test_fundamental_seq_equal_rings(text):
    s = spec(text)
    for i in (0, 1, 2):
        for r in (1, 2):
            rep = verify_fundamental_seq(s, i, r, 2, 8)
            assert rep["off_degree_vanishing"], (text, i, r)
            assert rep["verdict"] == "EQUAL", (text, i, r)
            for side in rep["invertibility"].values():
                for ok, _ in side.values():
                    assert ok


def test_fundamental_seq_fp_structure():
    rep = verify_fundamental_seq(FP2, 0, 2, 2, 2)
    assert rep["h_i"] == InvariantFactors((4,))
    assert rep["log_lattice"] == InvariantFactors((4,))
    # ring-level Artin-Schreier cokernel at degree 1
    assert rep["h_i_plus_1_ring_level_coker"] == InvariantFactors((4,))


def test_fundamental_seq_poly_off_degree_and_certs():
    for i in (1, 2, 3):
        rep = verify_fundamental_seq(F2X, i, 2, 3, 8)
        assert rep["off_degree_vanishing"]
        below = rep["invertibility"]["below_twist"]
        assert all(ok for ok, _ in below.values())
        if i <= 2:
            # the n = i-1 block is 1 - V and needs a genuine Neumann tail;
            # deeper twists gain p-powers that kill the series instantly
            assert below and max(terms for _, terms in below.values()) >= 1


def test_fundamental_seq_laurent_twist1_equal():
    rep = verify_fundamental_seq(LAU3, 1, 2, 2, 18)
    assert rep["verdict"] == "EQUAL"
    assert rep["h_i"] == InvariantFactors((9,))


def _zero_block_and_log_lattice(s, i, r, cap=2):
    model = saturate(s, r, max(2, i + 1))
    fibers = synlog._orbit_fibers(NygaardModel(model, i), cap, r)
    zero = next(deep for orbit, deep, _, _ in fibers if orbit == [0])
    return zero, synlog._log_lattice(model, i, r)


@pytest.mark.parametrize("s, i, r", [(FP3, 0, 2), (LAU2, 1, 2), (F4, 0, 1)])
def test_log_lattice_of_p_times_the_symbols_has_index_p(s, i, r):
    zero, lat = _zero_block_and_log_lattice(s, i, r)
    assert synlog._compare_h_i_with_log(zero, lat) == ("EQUAL", 1)
    p_lat = lat._replace(generators=[[s.p * x for x in vec] for vec in lat.generators])
    assert synlog._compare_h_i_with_log(zero, p_lat) == ("CONTAINS", s.p)


def test_a_symbol_outside_h_i_is_a_mismatch():
    # over GF(4) the Teichmuller t is no cocycle of phi - can: phi(t) = t^2 != t
    zero, lat = _zero_block_and_log_lattice(F4, 0, 1)
    assert lat.generators == [[1, 0]]
    assert synlog._compare_h_i_with_log(zero, lat._replace(generators=[[0, 1]])) == ("MISMATCH", 0)


@pytest.mark.parametrize("s", [FP3, F4, LAU2, LAU3, F2X, PERF2], ids=["FP3", "F4", "LAU2", "LAU3", "F2X", "PERF2"])
@pytest.mark.parametrize("i", [0, 1])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_symbol_subgroups_match_the_parent_code(s, i, r):
    # the subgroup the symbols generate, read on the caller's SubQuot, has the
    # verdict, index and invariants of the coordinate round trip it replaced
    model = saturate(s, r, max(2, i + 1))
    zero, lat = _zero_block_and_log_lattice(s, i, r)
    level = strict_truncate(model, r).group(i, 0) if model.rank_at(i, 0) else None
    lats = [lat._replace(generators=[[s.p**e * x for x in vec] for vec in lat.generators]) for e in (0, 1, 2)]
    if s is F4 and i == 0:
        lats.append(lat._replace(generators=[[0, 1]]))
    for scaled in lats:
        assert synlog._compare_h_i_with_log(zero, scaled) == reference_compare_h_i_with_log(zero, scaled)
        if level is not None:
            want = reference_span_invariants(level, scaled.generators)
            assert synlog._span_invariants(level, scaled.generators) == want


def test_a_window_without_the_zero_orbit_matches_no_symbol():
    # a negative weight cap leaves no orbit: only an empty log lattice is EQUAL
    assert verify_fundamental_seq(FP3, 0, 1, 2, -1)["verdict"] == "MISMATCH"
    assert verify_fundamental_seq(FP3, 1, 1, 2, -1)["verdict"] == "EQUAL"


def test_h_i_off_the_zero_orbit_makes_the_verdict_contains(monkeypatch):
    # the rings of these tests have no H^i on a nonzero orbit; plant one of order p^2
    real = synlog._orbit_fibers

    def with_a_nonzero_orbit(N, weight_cap, r):
        for orbit, deep, aligned, H in real(N, weight_cap, r):
            yield orbit, deep, aligned, H
            if orbit == [0]:
                yield [1], deep, aligned, {**H, N.i: InvariantFactors((9,))}

    monkeypatch.setattr(synlog, "_orbit_fibers", with_a_nonzero_orbit)
    rep = verify_fundamental_seq(FP3, 0, 2, 2, 2)
    assert rep["verdict"] == "CONTAINS" and rep["index"] == 9
    assert rep["h_i"] == InvariantFactors((9, 9))


def test_each_check_builds_its_models_once(monkeypatch):
    built = []
    init = SaturatedModel.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(SaturatedModel, "__init__", counting_init)
    verify_fundamental_seq(LAU3, 1, 2, 3, 6)
    assert len(built) == 1
    built.clear()
    log_mod_compat(LAU3, 1, 2)
    assert len(built) == 2


@pytest.mark.parametrize("s", [FP2, F4, LAU3, F2X, spec("p=2\nkind=perfection of poly\nvars=x:1")])
@pytest.mark.parametrize("i", [0, 1, 2])
@pytest.mark.parametrize("r", [1, 2])
def test_fundamental_seq_agrees_with_syntomic(s, i, r):
    S = syntomic(s, i, r, 3, 6)
    rep = verify_fundamental_seq(s, i, r, 3, 6)
    assert S.group(i) == rep["h_i"]
    assert S.group(i + 1) == rep["h_i_plus_1_ring_level_coker"]


@pytest.mark.parametrize("s", [LAU3, F2X, F4, spec("p=2\nkind=perfection of laurent\nvars=x:1")])
@pytest.mark.parametrize("i", [0, 1, 2])
def test_lazy_fiber_walk_matches_the_eager_walk(s, i, monkeypatch):
    # building each scheme on first read changes no group and no certificate
    import drwitt.synlog as synlog

    lazy = syntomic(s, i, 2, 3, 6), verify_fundamental_seq(s, i, 2, 3, 6)

    def eager(N, weight_cap, r):
        for orbit, deep_blk, aligned_blk, _, _, H in reference_orbit_fibers(N, weight_cap, r):
            yield orbit, deep_blk, aligned_blk, H

    monkeypatch.setattr(synlog, "_orbit_fibers", eager)
    assert (syntomic(s, i, 2, 3, 6), verify_fundamental_seq(s, i, 2, 3, 6)) == lazy


@pytest.mark.parametrize("i", [0, 1, 2])
def test_aligned_scheme_is_built_only_when_read(i, monkeypatch):
    # the aligned complex is read for H^j, j > i+1, and for certificates in
    # degrees n > i; fiber degree j is N^j + W^(j-1), empty for j >= top+2,
    # so at i >= top (= 1 here) no aligned complex may be built
    import functools

    from drwitt.rings import memo
    from drwitt.synlog import _FiberBlock

    builds = []
    raw = _FiberBlock.complex.__wrapped__

    @functools.wraps(raw)
    def counting(self):
        builds.append(self)
        return raw(self)

    monkeypatch.setattr(_FiberBlock, "complex", memo(counting))
    # one build per valuation class: the zero orbit, and one class per orbit
    # length 1..4 (weights k/9, 0 < |k| <= 54, under a -> 3a)
    orbits = 5
    for run in (lambda: syntomic(LAU3, i, 2, 3, 6), lambda: verify_fundamental_seq(LAU3, i, 2, 3, 6)):
        builds.clear()
        run()
        assert len({id(blk) for blk in builds}) == len(builds)  # one build per block
        styles = [blk.style for blk in builds]
        assert styles.count("deep") == orbits
        assert styles.count("aligned") == (orbits if i < 1 else 0)


# "{p}" is the prime, so the variable weight is divisible by p
CLASS_KINDS = (
    "kind=poly\nvars=x:1",
    "kind=poly\nvars=x:{p}",
    "kind=laurent\nvars=x:1",
    "kind=laurent\nvars=x:2",
    "kind=finite_field",
    "kind=perfection of laurent\nvars=x:1",
)


def _eager(N, weight_cap, r):
    for orbit, deep_blk, aligned_blk, _, _, H in reference_orbit_fibers(N, weight_cap, r):
        yield orbit, deep_blk, aligned_blk, H


@settings(max_examples=40, deadline=None)
@given(
    p=st.sampled_from([2, 3, 5]),
    f=st.integers(1, 2),
    kind=st.sampled_from(CLASS_KINDS),
    i=st.integers(0, 2),
    r=st.integers(1, 3),
    span=st.integers(1, 60),
)
def test_class_walk_matches_the_eager_walk(p, f, kind, i, r, span):
    # every orbit's H^j and certificates are its class representative's,
    # and the reports equal those of the eager per-orbit walk.  The cap
    # keeps the window at numerators k p^(1+v), |k| <= span, for a
    # variable weight p^v m'
    import drwitt.synlog as synlog

    s = spec(f"p={p}\nf={f}\n" + kind.format(p=p))
    cap = Fraction(span, p**r)
    m = saturate(s, r, 2)
    N = NygaardModel(m, i)
    walk = list(synlog._orbit_fibers(N, cap, r))
    reference = list(reference_orbit_fibers(N, cap, r))
    assert [orbit for orbit, *_ in walk] == [orbit for orbit, *_ in reference]
    for (_, deep, aligned, H), (_, ref_deep, ref_aligned, ref_dc, ref_ac, ref_H) in zip(walk, reference):
        assert H == ref_H
        for n in range(m.top + 1):
            if n != i:
                blk, ref, C = (deep, ref_deep, ref_dc) if n < i else (aligned, ref_aligned, ref_ac)
                assert blk.certificate(n) == synlog._certify_block_invertible(ref, C, n)
    class_walk = syntomic(s, i, r, 2, cap), verify_fundamental_seq(s, i, r, 2, cap)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(synlog, "_orbit_fibers", _eager)
        assert (syntomic(s, i, r, 2, cap), verify_fundamental_seq(s, i, r, 2, cap)) == class_walk


def _partition(orbits, key):
    """Orbit indices grouped by class key; a None key is a class of its own."""
    classes = {}
    for k, orbit in enumerate(orbits):
        c = key(orbit)
        classes.setdefault(("own", k) if c is None else ("key", c), []).append(k)
    return sorted(classes.values())


PARTITION_KINDS = ("poly", "laurent", "perfection of poly", "perfection of laurent")


@pytest.mark.parametrize("p", [2, 3, 5])
def test_valuation_profile_partitions_orbits_like_the_rescaled_lift(p):
    # the key (v_p of the bottom, orbit length) groups the orbits of every
    # window exactly as the rescaled lift's d, F and ranks along the chain
    # did, over the one-variable kinds, variable weights 1, p and a unit,
    # and the finite fields (whose only orbit is its own)
    import drwitt.synlog as synlog

    texts = [f"kind={kind}\nvars=x:{m}" for kind in PARTITION_KINDS for m in (1, p, p + 1)]
    texts.append("kind=finite_field")
    for f in (1, 2):
        for text in texts:
            s = spec(f"p={p}\nf={f}\n{text}")
            for r in (1, 2, 3):
                m = saturate(s, r, 2)
                orbits = weight_orbits(m, 2, r)
                new = _partition(orbits, lambda orbit: synlog._orbit_class(m, orbit))
                assert new == _partition(orbits, lambda orbit: reference_orbit_class(m, orbit)), (text, f, r)


# ---------------------------------------------------------------------------
# reweighting oracle: x:p^v at cap p^v is x:1 at cap, every weight times p^v

REWEIGHTED = [(kind, p, v) for kind in ("poly", "laurent") for p in (2, 3) for v in (1, 2)]


def _reweighted(kind, p, v):
    return spec(f"p={p}\nkind={kind}\nvars=x:1"), spec(f"p={p}\nkind={kind}\nvars=x:{p**v}")


@pytest.mark.parametrize("kind,p,v", REWEIGHTED)
@pytest.mark.parametrize("r", [1, 2])
def test_reweighting_the_variable_moves_no_syntomic_report(kind, p, v, r):
    # the ring is the same, so every group, verdict and certificate is; the
    # heavy window reaches weights of deeper denominator, which may add
    # orbits and Neumann terms, so neither count is compared
    one, heavy = _reweighted(kind, p, v)

    def ok_flags(rep):
        return {side: {n: ok for n, (ok, _) in cert.items()} for side, cert in rep["invertibility"].items()}

    for i in (0, 1, 2):
        a, b = syntomic(one, i, r, 2, 2), syntomic(heavy, i, r, 2, 2 * p**v)
        assert (b.cohomology, b.weight_zero) == (a.cohomology, a.weight_zero), i
        fa, fb = verify_fundamental_seq(one, i, r, 2, 2), verify_fundamental_seq(heavy, i, r, 2, 2 * p**v)
        for key in ("h_i", "verdict", "index", "log_lattice"):
            assert fb[key] == fa[key], (i, key)
        assert ok_flags(fb) == ok_flags(fa), i


@pytest.mark.parametrize("kind,p,v", REWEIGHTED)
@pytest.mark.parametrize("r", [1, 2])
def test_reweighting_the_variable_moves_no_strict_level_group(kind, p, v, r):
    # W_r at weight u m of x:m is W_r at weight u of x:1, also where u has a
    # denominator deeper than p^(r-1) and both vanish
    one, heavy = _reweighted(kind, p, v)
    lo, hi = strict_truncate(saturate(one, r, 1), r), strict_truncate(saturate(heavy, r, 1), r)
    for u in hi.weights(2 * p**v):
        for n in (0, 1):
            assert hi.invariants(n, u) == lo.invariants(n, Fraction(u) / p**v), (u, n)


# ---------------------------------------------------------------------------
# Nygaard graded and completeness, log compatibility

def test_nygaard_graded_examples():
    assert nygaard_graded_check(FP2, 0, 2)
    assert nygaard_graded_check(F2X, 1, 4)
    assert nygaard_graded_check(F4, 2, 2)


def test_nygaard_graded_range():
    for s in (FP3, spec("p=3\nkind=finite_field\nf=2"), spec("p=3\nkind=poly\nvars=x:1")):
        for i in (0, 1, 2, 3):
            assert nygaard_graded_check(s, i, 6), (s.describe(), i)


BRIDGE_RINGS = (
    "p=2\nkind=poly\nvars=x:1\nf=2",
    "p=3\nkind=laurent\nvars=x:1\nf=2",
    "p=3\nkind=poly\nvars=x:1",
    "p=2\nkind=laurent\nvars=x:1",
)


@pytest.mark.parametrize("text", BRIDGE_RINGS)
@pytest.mark.parametrize("r", [1, 2])
def test_graded_bridge_is_d_after_v(text, r, monkeypatch):
    # below the twist the Nygaard differential into degree i is x -> d(V x);
    # pin its values against V and d computed on the lift, in the matrix
    # NygaardModel gives and in the complex _graded_cohomology builds.  Over
    # GF(p^2) V carries sigma^-1 on coefficients, so a plain d at p a is a
    # different matrix; over GF(p) the two agree in these one-variable bases
    import drwitt.synlog as synlog
    from drwitt.rings import window

    m = saturate(spec(text), r, 2)
    N = NygaardModel(m, 1)
    amb, p = m._amb, m.p
    graded = []

    class Recording(synlog.FinComplex):
        def __init__(self, ring, modules, diffs):
            graded.append(diffs)
            super().__init__(ring, modules, diffs)

    monkeypatch.setattr(synlog, "FinComplex", Recording)
    differs = 0
    for k in window(4, p, m.spec.is_laurent):
        a = k * (m.P // p)
        src, tgt = m.lattice_at(0, a * p), m.lattice_at(1, a)
        if not src or not tgt:
            continue
        want = []
        for y in src:
            # z = V y solves F z = p y on the lift; d z is divisible by p^s*
            z = solve(amb, reference_lift_f_matrix(m.lift, 0, a), [p * x % amb.q for x in y])
            dz = mat_mul(amb, [z], reference_lift_d_matrix(m.lift, 0, a))[0]
            assert all(x % m.P == 0 for x in dz)
            coords = solve(amb, tgt, [x // m.P for x in dz])
            want.append([x % m.ring.q for x in coords])
        assert N.d_matrix(0, a) == want
        graded.clear()
        synlog._graded_cohomology(N, a)
        assert graded[0][0] == want
        differs += m.d_at(0, a * p) != want
    assert differs or m.f == 1


def test_nygaard_completeness():
    assert nygaard_completeness_check(FP2, 4, 2)
    assert nygaard_completeness_check(F4, 4, 2)
    assert nygaard_completeness_check(F2X, 4, 3)


def test_log_mod_compat_examples():
    assert log_mod_compat(FP2, 0, 2)
    assert log_mod_compat(LAU2, 1, 2)
    assert log_mod_compat(F4, 1, 2)


@pytest.mark.parametrize("guard", [-4, -1, 0, 2])
def test_nygaard_completeness_matches_the_parent_membership_test(guard, monkeypatch):
    # a smaller guard asks for more p-divisibility: at -4 the exponent reaches
    # the model's precision, and at -1 and 0 some cells fail, so the
    # divisibility test must agree with membership in the normal form of p^e I
    monkeypatch.setattr(synlog, "GUARD", guard)
    monkeypatch.setattr(helpers, "GUARD", guard)
    for s, cap in [(FP2, 2), (F4, 2), (F2X, 3), (LAU3, 2), (PERF2, 2)]:
        assert nygaard_completeness_check(s, 4, cap) == all(reference_nygaard_completeness_check(s, 4, cap).values())


@pytest.mark.parametrize("up", [0, 1], ids=["level-r", "level-r+1"])
def test_zero_class_tests_match_the_parent_code(up, monkeypatch):
    # one level up, p^r no longer kills the classes the checks send to zero:
    # most cases fail there, and they must fail for the same reason as before
    for mod in (synlog, dieudonne, helpers):
        monkeypatch.setattr(mod, "strict_truncate", lambda model, r: StrictLevel(model, r + up))
    for s, i, r in [(FP2, 0, 2), (LAU2, 1, 2), (F4, 1, 2), (LAU3, 1, 2), (F2X, 1, 1)]:
        assert log_mod_compat(s, i, r) == reference_log_mod_compat(s, i, r)
    for s, r, cap in [(PERF2, 2, 3), (PERF3, 2, 2), (PERF2, 1, 3)]:
        assert perfection_consistency_check(s, r, cap) == reference_perfection_consistency_check(s, r, cap)


def test_syntomic_total_differential_squares_to_zero():
    # FinComplex construction checks d o d = 0; run it over both schemes
    from drwitt.synlog import _FiberBlock

    m = saturate(LAU2, 2, 2)
    N = NygaardModel(m, 2)
    for orbit in weight_orbits(m, 4, 2):
        for style in ("deep", "aligned"):
            _FiberBlock(N, orbit, 2, style=style).complex()


def test_stability_of_syntomic_outputs():
    # raising internal precision must not change reported groups
    from drwitt.dieudonne import internal_precision

    base = syntomic(LAU2, 1, 2, 2, 4)
    bumped = syntomic(LAU2, 1, 2, 2, 4, R=internal_precision(2, 3) + 1)
    assert bumped.R > base.R
    assert bumped.cohomology == base.cohomology


def test_nygaard_inclusion_columns_are_v_images():
    # degree-0 component of N^{>=1} is V W: each inclusion column solves
    # F(column) = p * (lattice element), checked column by column
    m = saturate(spec("p=2\nkind=poly\nvars=x:1"), 2, 2)
    N = NygaardModel(m, 1)
    for v in (1, 2, 3):
        inc = N.inclusion_matrix(0, m.num(v))
        F = m.frob_at(0, m.num(v))
        for row in inc:
            img = mat_mul(m.ring, [row], F)[0]
            assert all(x % 2 == 0 for x in img)  # F(V x) = p x


# ---------------------------------------------------------------------------
# Nygaard checks once per weight class

def _assert_class_functions(cells, key):
    """Every cell's value is the value of the first cell with its key."""
    reps = {}
    for cell, value in cells.items():
        assert reps.setdefault(key(cell), value) == value, cell


# one variable of weight 1, 2, p or 6, no variable, and two perfections; "{p}" is the prime
CLASS_WALK_KINDS = (
    "kind=poly\nvars=x:1",
    "kind=poly\nvars=x:2",
    "kind=poly\nvars=x:{p}",
    "kind=laurent\nvars=x:1",
    "kind=laurent\nvars=x:6",
    "kind=finite_field",
    "kind=finite_field\nf=2",
    "kind=perfection of poly\nvars=x:1",
    "kind=perfection of laurent\nvars=x:3",
)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_class_representatives_meet_every_class_of_the_support(p):
    # read off integers, the representatives meet exactly the class_at keys
    # that a walk over every supported numerator meets, one numerator each
    for kind in CLASS_WALK_KINDS:
        ring = spec(f"p={p}\n" + kind.format(p=p))
        for r in (1, 2, 3):
            m = saturate(ring, r, 1)
            for den_exp in (0, 1, r, r + 1):
                for cap in (0, 1, 2, 3, Fraction(7, 2), 8, 20):
                    cell = kind, r, den_exp, cap
                    support = synlog._weight_support(m, cap, den_exp)
                    reps = list(synlog._class_representatives(m, support))
                    keys = [m.class_at(a) for a in reps]
                    assert all(a in support for a in reps) and len(set(keys)) == len(keys), cell
                    assert set(keys) == {m.class_at(a) for a in support}, cell


def test_nygaard_graded_reads_classes_not_its_window(monkeypatch):
    # at the largest admitted cap a p = 2 poly ring has 999999 supported
    # numerators of denominator up to 2; the check keys a few dozen of them
    keyed = []
    class_at = SaturatedModel.class_at
    monkeypatch.setattr(SaturatedModel, "class_at", lambda self, a: keyed.append(a) or class_at(self, a))
    assert nygaard_graded_check(F2X, 1, 499999)
    assert 0 < len(keyed) < 1000


def test_nygaard_graded_reads_a_perfections_h0_at_one_weight(monkeypatch):
    # a variable weight with a large prime-to-p part m' leaves about
    # 2 cap / m' supported numerators, so the budget admits a cap near
    # 5 10^11; the de Rham side is read at each representative's weight
    # alone, and no de Rham window is listed up to it
    monkeypatch.setattr(derham, "window", None)
    perf = parse_ringspec("p=2\nkind=perfection of poly\nvars=x:999999")
    assert nygaard_graded_check(perf, 1, 4 * 10**11)
    with pytest.raises(PrecisionExhausted, match="window budget"):
        nygaard_graded_check(perf, 1, 10**12)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_nygaard_graded_sides_are_functions_of_the_weight_class(p):
    for s in weight_class_specs(p):
        for i in (0, 1, 2):
            sides = reference_nygaard_graded_check(s, i, 6)
            _assert_class_functions(sides, lambda v: reference_weight_class(s, v))
            assert nygaard_graded_check(s, i, 6) == all(got == want for got, want in sides.values())


@pytest.mark.parametrize("p", [2, 3, 5])
def test_nygaard_completeness_cells_are_functions_of_the_weight_class(p):
    for s in weight_class_specs(p):
        for i_cap in (2, 4):
            cells = reference_nygaard_completeness_check(s, i_cap, 4)
            _assert_class_functions(cells, lambda cell: (cell[0], reference_weight_class(s, cell[1])))
            assert nygaard_completeness_check(s, i_cap, 4) == all(cells.values())


def _seed0_sweep_cell(shape_id):
    """The benchmark's seed-0 stability-sweep cell of one shape, ready to run."""
    workloads, sweep = load_perfbench("workloads"), load_perfbench("sweep")
    job = next(j for j in workloads.select("stability_sweep", 0) if j.id.startswith(shape_id + "/"))
    return partial(sweep.sweep_cell, parse_ringspec(job.spec), *job.cell)


def test_a_sweep_cell_forms_its_pinned_howell_count(monkeypatch):
    # base, R+1 and cap*p of poly at p = 2, twist 1, r = 2: a subquotient
    # forms each normal form once, and a stage lattice, its certificate and
    # the maps d, F and V none (a model tests sigma mod p once, at
    # construction), so a rise in the count is a normal form formed twice
    cell = _seed0_sweep_cell("cell-p2-poly-i1-r2-c8")
    calls = count_howell_calls(monkeypatch)
    _, stable = cell()
    assert stable and len(calls) == 80
