"""Filtered complexes: gr, adjunctions, spectral sequences, degenerations."""

import random

import pytest

from drwitt import dieudonne, filtspec, synlog
from drwitt.errors import DegenerationFailed, HomSetTooLarge, NonInjectiveTransitions
from drwitt.exactcore import (
    ZZ,
    FinComplex,
    FinModPresentation,
    InvariantFactors,
    ZmodRing,
    homology,
)
from drwitt.filtspec import (
    FilteredComplex,
    GradedComplex,
    adjunction_check,
    chain_hom_group,
    cone,
    homology_filtration_gr,
    spectral_sequence,
    two_column_extract,
)
from drwitt.rings import parse_ringspec
from helpers import c_embed, count_howell_calls, gr, random_filtered_complex, reference_chain_hom_group, t_embed


def free_complex(ring, ranks, diffs):
    mods = {m: FinModPresentation.free(ring, k) for m, k in enumerate(ranks)}
    return FinComplex(ring, mods, {m: d for m, d in diffs.items()})


# ---------------------------------------------------------------------------
# gr / t / c

def test_gr_constant_filtration():
    C = free_complex(ZZ, [1, 1], {0: [[3]]})
    F = FilteredComplex(ZZ, 0, 0, {0: C}, {})
    G = gr(F)
    for m in (0, 1):
        assert homology(G.slot(0), m) == homology(C, m)
    assert G.slot(1).module(0).ngens == 0


def test_gr_pz_inside_z():
    Z1 = free_complex(ZZ, [1], {})
    F = FilteredComplex(ZZ, 0, 1, {0: Z1, 1: Z1}, {0: {0: [[5]]}})
    G = gr(F)
    assert G.slot(0).module(0).invariants() == InvariantFactors((5,))
    assert G.slot(1).module(0).invariants() == InvariantFactors((), 1)


def test_gr_cone_and_cokernel_agree_in_homology():
    ring = ZmodRing(2, 3)
    rng = random.Random(2024)
    for _ in range(10):
        F = random_filtered_complex(rng, ring, window=2, length=2, max_rank=3)
        Gcok = gr(F, variant="cokernel")
        Gcone = gr(F, variant="cone")
        for n in range(F.lo, F.hi + 1):
            for m in F.degrees():
                assert homology(Gcok.slot(n), m) == homology(Gcone.slot(n), m), (n, m)


def test_gr_strict_mode_rejects_noninjective():
    ring = ZmodRing(2, 2)
    C = free_complex(ring, [1], {})
    # transition multiplies by 2: kernel Z/2 inside Z/4
    F = FilteredComplex(ring, 0, 1, {0: C, 1: C}, {0: {0: [[2]]}})
    with pytest.raises(NonInjectiveTransitions):
        gr(F, variant="cokernel")
    gr(F, variant="cone")  # fine


def test_t_embed_and_c_embed():
    C = free_complex(ZZ, [1, 1], {0: [[3]]})
    X = GradedComplex(ZZ, {1: C})
    T = t_embed(X, 0, 2)
    assert T.transition(0) == {} or all(
        not any(any(r) for r in m) for m in T.transition(0).values()
    )
    E = c_embed(C, 1, 0, 2)
    for n in range(0, 3):
        for m in (0, 1):
            assert homology(T.level(n), m) == homology(E.level(n), m)
    # gr(t_embed(X)) = X
    G = gr(T)
    for n in range(0, 3):
        for m in (0, 1):
            assert homology(G.slot(n), m) == homology(X.slot(n), m)


def test_every_complex_the_package_builds_is_checked(monkeypatch):
    # a recorder on _check_dd sees the complexes of both gr variants, the
    # levels of t(X) (a missing slot too), and every complex whose homology
    # the Nygaard graded check and the mod p^r comparison compute
    checked, computed = [], []
    check_dd = FinComplex._check_dd

    def recording_check_dd(self):
        checked.append(self)
        check_dd(self)

    def recording_homology(C, n):
        computed.append(C)
        return homology(C, n)

    def assert_checked(complexes):
        ids = {id(C) for C in checked}
        assert complexes and all(id(C) in ids for C in complexes)

    monkeypatch.setattr(FinComplex, "_check_dd", recording_check_dd)
    ring = ZmodRing(2, 3)
    F = random_filtered_complex(random.Random(5), ring, window=2, length=2, max_rank=2)
    for variant in ("cokernel", "cone"):
        assert_checked(list(gr(F, variant=variant).slots.values()))
    T = t_embed(GradedComplex(ring, {0: F.level(0)}), 0, 2)
    assert_checked([T.level(n) for n in range(3)])
    f2x = parse_ringspec("p=2\nkind=poly\nvars=x:1")
    for module, run in (
        (synlog, lambda: synlog.nygaard_graded_check(f2x, 1, 4)),
        (dieudonne, lambda: dieudonne.mod_p_compatibility(f2x, 2, 1, 4)),
    ):
        computed.clear()
        monkeypatch.setattr(module, "homology", recording_homology)
        assert run()
        assert_checked(computed)


def test_t_is_product_of_c():
    # t(X) agrees with the slotwise c_n embeddings level by level
    C0 = free_complex(ZZ, [1], {})
    C1 = free_complex(ZZ, [2], {})
    X = GradedComplex(ZZ, {0: C0, 1: C1})
    T = t_embed(X, 0, 1)
    for n in (0, 1):
        via_c = c_embed(X.slot(n), n, 0, 1)
        for m in (0,):
            assert homology(T.level(n), m).order() % max(homology(via_c.level(n), m).order(), 1) == 0
    assert T.level(0).module(0).ngens == 1
    assert T.level(1).module(0).ngens == 2


# ---------------------------------------------------------------------------
# adjunction

def test_adjunction_one_step_over_z2():
    ring = ZmodRing(2, 1)
    C = free_complex(ring, [1, 1], {0: [[1]]})
    # the degree-1 piece is a subcomplex; the degree-0 piece is not
    Csub = free_complex(ring, [0, 1], {})
    F = FilteredComplex(ring, 0, 1, {0: C, 1: Csub}, {0: {1: [[1]]}})
    X = GradedComplex(ring, {0: free_complex(ring, [1], {}), 1: free_complex(ring, [1], {})})
    assert adjunction_check(F, X)


def test_adjunction_unit_is_quotient_family():
    ring = ZmodRing(2, 1)
    C = free_complex(ring, [2], {})
    Csub = free_complex(ring, [1], {})
    F = FilteredComplex(ring, 0, 1, {0: C, 1: Csub}, {0: {0: [[1, 0]]}})
    X = gr(F)
    assert adjunction_check(F, X)


def _homs_or_too_large(enumerate_homs, ring, A, B, kill):
    try:
        return enumerate_homs(ring, A, B, extra_kill=kill)
    except HomSetTooLarge:
        return "too large"


def test_chain_hom_group_matches_reference():
    # level/cone and level/cokernel pairs of random filtrations (relations
    # on one side or both), with and without the transitions as kill rows
    seen = {"relations": 0, "kill rows change the set": 0, "too large": 0}
    for seed in range(40):
        rng = random.Random(seed)
        ring = ZmodRing(rng.choice((2, 3)), rng.choice((1, 2)))
        F = random_filtered_complex(rng, ring, window=1, length=2, max_rank=2)
        cones, cokernels = gr(F, "cone"), gr(F, "cokernel")
        pairs = [(F.level(n), cones.slot(n), F.transition(n)) for n in (0, 1)]
        pairs += [(F.level(0), cokernels.slot(0), F.transition(0)), (cokernels.slot(0), cones.slot(1), {})]
        for A, B, tau in pairs:
            seen["relations"] += any(M.relations for C in (A, B) for M in C.modules.values())
            got = [_homs_or_too_large(chain_hom_group, ring, A, B, kill) for kill in (None, tau)]
            assert got == [_homs_or_too_large(reference_chain_hom_group, ring, A, B, kill) for kill in (None, tau)], seed
            seen["kill rows change the set"] += got[0] != got[1]
            seen["too large"] += got[0] == "too large"
    assert all(seen.values()), seen


def test_hom_set_enumeration_counts():
    ring = ZmodRing(2, 1)
    A = free_complex(ring, [1], {})
    B = free_complex(ring, [1], {})
    homs = chain_hom_group(ring, A, B)
    assert len(homs) == 2  # Hom(F_2, F_2)


def test_chain_hom_group_forms_one_howell_form(monkeypatch):
    # the enumeration budget reads the pivots of preimage's Howell form
    # instead of forming that form a second time
    from drwitt.exactcore import modules, zmodp

    ring = ZmodRing(2, 2)
    A = free_complex(ring, [1, 1], {0: [[2]]})
    mods = {0: FinModPresentation(ring, 1, [[2]]), 1: FinModPresentation.free(ring, 1)}
    B = FinComplex(ring, mods, {0: [[2]]})
    want = reference_chain_hom_group(ring, A, B)
    calls, howell = [], zmodp.howell

    def counting_howell(*args):
        calls.append(args)
        return howell(*args)

    monkeypatch.setattr(modules, "howell", counting_howell)
    monkeypatch.setattr(zmodp, "howell", counting_howell)
    assert chain_hom_group(ring, A, B) == want
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# spectral sequences

def test_single_slot_degenerates():
    C = free_complex(ZZ, [1, 1], {0: [[4]]})
    res = spectral_sequence(c_embed(C, 0, 0, 0))
    assert res.pages[0].entries == res.e_infinity
    assert all(not p.differentials for p in res.pages)
    assert res.e_infinity == {(1, 0): InvariantFactors((4,))}
    assert res.underlying == {1: InvariantFactors((4,))}


def test_two_step_filtration_d2():
    # F^1 = (2Z -> Z) inside (Z --2--> Z): E_2 has a nonzero d_2 and E_inf
    # recovers the graded pieces of H^*(C)
    C0 = free_complex(ZZ, [1, 1], {0: [[2]]})
    C1 = free_complex(ZZ, [1, 1], {0: [[4]]})
    F = FilteredComplex(ZZ, 0, 1, {0: C0, 1: C1}, {0: {0: [[2]], 1: [[1]]}})
    res = spectral_sequence(F)
    assert res.pages[0].entries == {
        (0, 0): InvariantFactors((2,)),
        (2, -1): InvariantFactors((4,)),
    }
    assert res.pages[0].differentials  # nonzero d_2
    assert res.e_infinity == {(2, -1): InvariantFactors((2,))}
    assert res.e_infinity == homology_filtration_gr(F)


def test_random_filtrations_match_bruteforce_oracle():
    rng = random.Random(90909)
    for p in (2, 3):
        ring = ZmodRing(p, 3)
        for _ in range(25):
            F = random_filtered_complex(rng, ring, window=rng.randint(1, 3), length=3, max_rank=3)
            res = spectral_sequence(F)
            assert res.e_infinity == homology_filtration_gr(F)


def test_pages_compose_to_zero_and_stabilize():
    rng = random.Random(7)
    ring = ZmodRing(2, 3)
    for _ in range(10):
        F = random_filtered_complex(rng, ring, window=2, length=2, max_rank=2)
        res = spectral_sequence(F, r_max=F.hi - F.lo + 4)
        # stabilization: entries stop changing past the window width
        width = F.hi - F.lo
        stable = res.pages[width + 1].entries
        for page in res.pages[width + 1 :]:
            assert page.entries == stable


def test_page_differentials_compose_to_zero():
    # d_r o d_r = 0 on every computed page, asserted inside the engine
    rng = random.Random(99)
    for p in (2, 3):
        ring = ZmodRing(p, 3)
        for _ in range(8):
            F = random_filtered_complex(rng, ring, window=3, length=3, max_rank=3)
            res = spectral_sequence(F)
            # and E_{r+1} is the homology of (E_r, d_r): orders only shrink
            prev = None
            for page in res.pages:
                total = 1
                for inv in page.entries.values():
                    total *= max(inv.order(), 1)
                if prev is not None:
                    assert total <= prev
                prev = total


def test_every_page_is_checked_for_dd_zero(monkeypatch):
    checked = []
    verify = filtspec._verify_dd_zero

    def recording(ring, entries, dmats, cr):
        checked.append(cr + 1)
        verify(ring, entries, dmats, cr)

    monkeypatch.setattr(filtspec, "_verify_dd_zero", recording)
    F = random_filtered_complex(random.Random(99), ZmodRing(2, 3), window=3, length=3, max_rank=3)
    res = spectral_sequence(F)
    # the last page is E_infinity, which carries no differentials
    assert checked and checked == [page.index for page in res.pages[:-1]]


def test_two_column_extract_single_row():
    C = free_complex(ZZ, [1, 1], {0: [[6]]})
    res = spectral_sequence(c_embed(C, 0, 0, 0))
    seqs = two_column_extract(res)
    assert seqs == [
        {
            "total_degree": 1,
            "sub": InvariantFactors(()),
            "middle": InvariantFactors((2, 3)),
            "quotient": InvariantFactors((2, 3)),
            "order_equation": True,
        }
    ]


def test_two_column_extract_from_p_power_filtration():
    # Z/p^{2r} filtered by p^r Z/p^{2r}: two adjacent columns with outer
    # terms Z/p^r, and the middle order is the product of the outer orders
    ring = ZmodRing(2, 6)
    r = 2
    C = FinComplex(ring, {0: FinModPresentation(ring, 1, [[2 ** (2 * r)]])}, {})
    Sub = FinComplex(ring, {0: FinModPresentation(ring, 1, [[2**r]])}, {})
    F = FilteredComplex(ring, 0, 1, {0: C, 1: Sub}, {0: {0: [[2**r]]}})
    res = spectral_sequence(F)
    seqs = two_column_extract(res)
    assert len(seqs) == 1
    seq = seqs[0]
    assert seq["sub"] == InvariantFactors((4,))
    assert seq["quotient"] == InvariantFactors((4,))
    assert seq["middle"] == InvariantFactors((16,))
    assert seq["order_equation"]


def test_two_column_random_zero_d2_order_equation():
    rng = random.Random(31)
    ring = ZmodRing(3, 4)
    for _ in range(10):
        a, b = rng.randint(1, 3), rng.randint(1, 3)
        C = FinComplex(ring, {0: FinModPresentation(ring, 1, [[3 ** (a + b)]])}, {})
        Sub = FinComplex(ring, {0: FinModPresentation(ring, 1, [[3**b]])}, {})
        F = FilteredComplex(ring, 0, 1, {0: C, 1: Sub}, {0: {0: [[3**a]]}})
        seqs = two_column_extract(spectral_sequence(F))
        assert seqs and all(s["order_equation"] for s in seqs)


def test_two_column_extract_rejects_wide_support():
    ring = ZmodRing(2, 3)
    rng = random.Random(5)
    # build until a window-3 example has three or more occupied columns
    for _ in range(40):
        F = random_filtered_complex(rng, ring, window=3, length=3, max_rank=3)
        res = spectral_sequence(F)
        ks = {k for k, _ in res.pages[0].entries}
        if len(ks) >= 3 and max(ks) - min(ks) >= 2:
            with pytest.raises(DegenerationFailed):
                two_column_extract(res)
            return
    pytest.skip("no wide fixture found")


def test_completeness_convention_visible():
    # F^{>= hi+1} = 0 literally
    C = free_complex(ZZ, [1], {})
    F = FilteredComplex(ZZ, 0, 1, {0: C, 1: C}, {0: {0: [[1]]}})
    assert F.level(F.hi + 1).module(0).ngens == 0
    assert F.level(F.lo - 3).module(0).ngens == C.module(0).ngens


def test_hom_set_budget_guard():
    from drwitt.errors import HomSetTooLarge

    ring = ZmodRing(2, 3)
    A = free_complex(ring, [3, 3], {0: [[0] * 3 for _ in range(3)]})
    B = free_complex(ring, [3, 3], {0: [[0] * 3 for _ in range(3)]})
    with pytest.raises(HomSetTooLarge):
        chain_hom_group(ring, A, B)


def test_one_spectral_sequence_forms_its_pinned_howell_count(monkeypatch):
    # the first filtration that criterion 9's generator draws; a subquotient
    # forms each normal form once, and the page turn keeps an entry's z
    # unchanged when it has no differential, so a rise in the count is one
    # formed twice
    rng = random.Random(20240810)
    ring = ZmodRing(2, 3)
    F = random_filtered_complex(rng, ring, window=rng.randint(1, 4), length=3, max_rank=3)
    calls = count_howell_calls(monkeypatch)
    res = spectral_sequence(F)
    assert len(calls) == 146
    assert res.e_infinity == homology_filtration_gr(F)
