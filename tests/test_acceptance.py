"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Every tolerance here is exact (integer/invariant-factor equality); the
runtime budgets in the criteria are generous compared to actual behavior
but are not asserted, only reported.
"""

import random
import time
from fractions import Fraction

from drwitt.derham import cartier_smooth_check
from drwitt.dieudonne import (
    SaturatedModel,
    internal_precision,
    saturate,
    strict_truncate,
)
from drwitt.exactcore import InvariantFactors, ZmodRing, Zq
from drwitt.filtspec import homology_filtration_gr, spectral_sequence, two_column_extract
from drwitt.kpredict import hiller_check, k_predict, quillen_table
from drwitt.rings import MonomialAlgebra, parse_ringspec
from drwitt.synlog import (
    nygaard_graded_check,
    syntomic,
    verify_fundamental_seq,
)
from drwitt.witt import (
    WittRing,
    ghost,
    IntegerMonomialAlgebra,
    witt_add,
    witt_mul,
    witt_to_unramified,
)
from helpers import random_filtered_complex

ZALG = IntegerMonomialAlgebra(0)


def spec(text):
    return parse_ringspec(text)


def report(name, ok, t0):
    line = f"[{'PASS' if ok else 'FAIL'}] {name} ({time.time() - t0:.1f}s)"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------

def test_criterion_01_witt_ghost_oracle():
    t0 = time.time()
    rng = random.Random(101)
    ok = True
    for p in (2, 3, 5):
        checked = 0
        for r in (2, 3, 4):
            W = WittRing(ZALG, r, p=p)
            for _ in range(170):
                a = W(tuple(ZALG.constant(rng.randint(-30, 30)) for _ in range(r)))
                b = W(tuple(ZALG.constant(rng.randint(-30, 30)) for _ in range(r)))
                ga = [g.get((), 0) for g in ghost(a)]
                gb = [g.get((), 0) for g in ghost(b)]
                gs = [g.get((), 0) for g in ghost(witt_add(a, b))]
                gm = [g.get((), 0) for g in ghost(witt_mul(a, b))]
                ok = ok and gs == [x + y for x, y in zip(ga, gb)]
                ok = ok and gm == [x * y for x, y in zip(ga, gb)]
                checked += 1
        ok = ok and checked >= 500
    report("criterion 1: Witt ghost oracle (500+ random pairs, p in {2,3,5}, r <= 4)", ok, t0)


def test_criterion_02_wr_fp_cyclic():
    t0 = time.time()
    ok = True
    for p in (2, 3, 5):
        A = MonomialAlgebra(spec(f"p={p}\nkind=finite_field"))
        for r in (1, 2, 3, 4):
            W = WittRing(A, r)
            # group of order p^r with an element of order p^r: cyclic Z/p^r
            ok = ok and W.scalar(p**r) == W.zero()
            if r > 1:
                ok = ok and W.scalar(p ** (r - 1)) != W.zero()
    report("criterion 2: W_r(F_p) = Z/p^r for p in {2,3,5}, r <= 4", ok, t0)


def test_criterion_03_cartier_smooth_witnesses():
    t0 = time.time()
    ok = True
    for p in (2, 3, 5):
        for text in (
            f"p={p}\nkind=poly\nvars=x:1",
            f"p={p}\nkind=poly\nvars=x:1,y:1",
            f"p={p}\nkind=laurent\nvars=x:1",
        ):
            rep = cartier_smooth_check(spec(text), 2, 3 * p)
            ok = ok and rep["verdict"] == "consistent-with-Cartier-smooth up to caps"
        bad = cartier_smooth_check(spec(f"p={p}\nkind=quotient\nvars=x:1\nrels=x^2"), 1, 3 * p)
        ok = ok and bad["verdict"] == "fails Cartier-smoothness" and bad["witness"] is not None
    report("criterion 3: Cartier smoothness passes/witness at weight cap 3p", ok, t0)


def _perfection_witt_order(perf_spec, w, r):
    """[x^w] has additive order exactly p^r in W_r of the perfection."""
    A = MonomialAlgebra(perf_spec)
    W = WittRing(A, r)
    p = perf_spec.p
    t = W.teichmuller({(w,): 1})
    pr = witt_mul(W.scalar(p**r), t)
    pr1 = witt_mul(W.scalar(p ** (r - 1)), t)
    return pr == W.zero() and (r == 0 or pr1 != W.zero())


def test_criterion_04_perfdw_pipeline():
    t0 = time.time()
    ok = True
    # finite fields GF(4), GF(8), GF(9), GF(27)
    for (p, f) in ((2, 2), (2, 3), (3, 2), (3, 3)):
        s = spec(f"p={p}\nkind=finite_field\nf={f}")
        model = saturate(s, 3, 1)
        for r in (1, 2, 3):
            lvl = strict_truncate(model, r)
            ok = ok and lvl.invariants(0, 0) == InvariantFactors((p**r,) * f)
            ok = ok and lvl.invariants(1, 0).is_trivial()
            # matching the witt module: the canonical map W_r(F_q) -> Z_q/p^r
            # (sum of p^s-shifted Teichmullers) is an additive/multiplicative
            # bijection compatible with Frobenius, so the group structure
            # transfers from the unramified model
            A = MonomialAlgebra(s)
            Wr = WittRing(A, r)
            Wq = Zq(p, f, r)
            rng = random.Random(7 * p + f)
            inputs, outputs = set(), set()
            for _ in range(12):
                a = Wr(tuple(A.constant(rng.randrange(p**f)) for _ in range(r)))
                b = Wr(tuple(A.constant(rng.randrange(p**f)) for _ in range(r)))
                ea, eb = witt_to_unramified(a, Wq), witt_to_unramified(b, Wq)
                ok = ok and witt_to_unramified(witt_add(a, b), Wq) == Wq.add(ea, eb)
                inputs.add(a)
                outputs.add(ea)
            ok = ok and len(outputs) == len(inputs)  # injectivity spot check
    # perfections of F_p[x]
    for p in (2, 3):
        perf = spec(f"p={p}\nkind=perfection of poly\nvars=x:1")
        model = saturate(perf, 3, 1)
        for r in (1, 2, 3):
            lvl = strict_truncate(model, r)
            for u in lvl.weights(3):
                ok = ok and lvl.invariants(0, u) == InvariantFactors((p**r,))
                ok = ok and lvl.invariants(1, u).is_trivial()
            # witt-module comparison at a fractional and an integral weight
            for w in (1, Fraction(1, p)):
                ok = ok and _perfection_witt_order(perf, w, r)
    report("criterion 4: perfect-ring pipeline W_rOmega^0 = W_r(S), higher degrees 0", ok, t0)


def test_criterion_05_fundamental_sequence():
    t0 = time.time()
    ok = True
    for p, qf in ((2, 2), (3, 2)):
        cap = 2 * p * p
        rings = [
            (f"p={p}\nkind=finite_field", True),
            (f"p={p}\nkind=finite_field\nf={qf}", True),
            (f"p={p}\nkind=poly\nvars=x:1", False),
            (f"p={p}\nkind=laurent\nvars=x:1", True),
        ]
        for text, equal_required in rings:
            s = spec(text)
            for i in (0, 1, 2, 3):
                for r in (1, 2):
                    rep = verify_fundamental_seq(s, i, r, 3, cap)
                    ok = ok and rep["off_degree_vanishing"]
                    for side in rep["invertibility"].values():
                        for good, _ in side.values():
                            ok = ok and good
                    if equal_required:
                        ok = ok and rep["verdict"] == "EQUAL"
                    else:
                        ok = ok and rep["verdict"] in ("EQUAL", "CONTAINS")
                    assert ok, (text, i, r, rep)
    report(
        "criterion 5: fundamental sequence at i <= 3, r <= 2, cap 2p^2 "
        "(EQUAL for F_p, F_q, F_p[x^-1]; certificates hold)",
        ok,
        t0,
    )


def test_criterion_06_syntomic_anchors():
    t0 = time.time()
    ok = True
    for p in (2, 3, 5):
        s = spec(f"p={p}\nkind=finite_field")
        for r in (1, 2, 3):
            S0 = syntomic(s, 0, r, 2, 1)
            ok = ok and S0.group(0) == InvariantFactors((p**r,))
            ok = ok and S0.group(1) == InvariantFactors((p**r,))
            ok = ok and all(S0.group(j).is_trivial() for j in (2, 3, 4))
            for i in (1, 2, 3, 4):
                Si = syntomic(s, i, r, 4, 1)
                ok = ok and all(v.is_trivial() for v in Si.cohomology.values())
    report("criterion 6: syntomic anchors Z/p^r(0) and Z/p^r(i) for F_p", ok, t0)


def test_criterion_07_nygaard_graded():
    t0 = time.time()
    ok = True
    for p, qf in ((2, 2), (3, 2)):
        cap = 2 * p * p
        for text in (
            f"p={p}\nkind=finite_field",
            f"p={p}\nkind=finite_field\nf={qf}",
            f"p={p}\nkind=poly\nvars=x:1",
        ):
            s = spec(text)
            for i in (0, 1, 2, 3):
                good = nygaard_graded_check(s, i, cap)
                ok = ok and good
                assert ok, (text, i)
    report("criterion 7: Nygaard graded pieces match truncated de Rham, i <= 3, cap 2p^2", ok, t0)


def test_criterion_08_k_tables():
    t0 = time.time()
    ok = True
    for p in (2, 3, 5):
        for r in (1, 2):
            q = quillen_table(p, 6, r)
            k = k_predict(spec(f"p={p}\nkind=finite_field"), 6, r)
            for i in range(0, 7):
                ok = ok and q.row(i, f"p^{r}").group == k.row(i, f"p^{r}").group
            # the odd rows Z/(p^i - 1) reduce to 0 and K_0 to Z/p^r
            ok = ok and q.row(0, f"p^{r}").group == InvariantFactors((p**r,))
            for i in range(1, 7):
                ok = ok and q.row(i, f"p^{r}").group.is_trivial()
    for text in (
        "p=2\nkind=perfection of poly\nvars=x:1",
        "p=3\nkind=perfection of poly\nvars=x:1",
        "p=2\nkind=perfection of laurent\nvars=x:1",
        "p=2\nkind=finite_field\nf=3",
        "p=3\nkind=finite_field\nf=2",
    ):
        ok = ok and hiller_check(spec(text), 3)
    report("criterion 8: K-tables reproduce the closed form mod p^r; Hiller checks pass", ok, t0)


def test_criterion_09_spectral_sequence_oracle():
    t0 = time.time()
    rng = random.Random(20240810)
    ok = True
    count = 0
    for p in (2, 3):
        ring = ZmodRing(p, 3)
        for _ in range(100):
            F = random_filtered_complex(
                rng, ring, window=rng.randint(1, 4), length=3, max_rank=3
            )
            res = spectral_sequence(F)
            ok = ok and res.e_infinity == homology_filtration_gr(F)
            count += 1
            assert ok, count
    # two-column degenerate fixtures: |middle| = |left| * |right|
    for p in (2, 3):
        from drwitt.exactcore import FinComplex, FinModPresentation
        from drwitt.filtspec import FilteredComplex

        ring = ZmodRing(p, 6)
        for (a, b) in [(1, 1), (1, 2), (2, 1), (2, 2)]:
            C = FinComplex(ring, {0: FinModPresentation(ring, 1, [[p ** (a + b)]])}, {})
            Sub = FinComplex(ring, {0: FinModPresentation(ring, 1, [[p**b]])}, {})
            F = FilteredComplex(ring, 0, 1, {0: C, 1: Sub}, {0: {0: [[p**a]]}})
            for seq in two_column_extract(spectral_sequence(F)):
                ok = ok and seq["order_equation"]
    # a two-column page fed from syntomic data for F_p
    for p in (2, 3):
        r = 2
        S0 = syntomic(spec(f"p={p}\nkind=finite_field"), 0, r, 2, 1)
        h0, h1 = S0.group(0), S0.group(1)
        ring = ZmodRing(p, 2 * r + 2)
        from drwitt.exactcore import FinComplex, FinModPresentation
        from drwitt.filtspec import FilteredComplex

        C = FinComplex(ring, {0: FinModPresentation(ring, 1, [[p ** (2 * r)]])}, {})
        Sub = FinComplex(ring, {0: FinModPresentation(ring, 1, [[p**r]])}, {})
        F = FilteredComplex(ring, 0, 1, {0: C, 1: Sub}, {0: {0: [[p**r]]}})
        seqs = two_column_extract(spectral_sequence(F))
        ok = ok and seqs[0]["sub"] == h0 and seqs[0]["quotient"] == h1
        ok = ok and seqs[0]["order_equation"]
    report(f"criterion 9: spectral-sequence oracle on {count} random filtrations + degenerate fixtures", ok, t0)


def test_criterion_10_stability_certification():
    t0 = time.time()
    ok = True
    # criterion 4 groups under R -> R+1 and cap -> cap*p
    for (p, f) in ((2, 2), (3, 2)):
        s = spec(f"p={p}\nkind=finite_field\nf={f}")
        base = saturate(s, 3, 1)
        bumped = SaturatedModel(s, 3, 1, R=internal_precision(3, 1) + 1)
        for r in (1, 2, 3):
            l1, l2 = strict_truncate(base, r), strict_truncate(bumped, r)
            ok = ok and l1.invariants(0, 0) == l2.invariants(0, 0)
            ok = ok and l1.invariants(1, 0) == l2.invariants(1, 0)
    for p in (2, 3):
        perf = spec(f"p={p}\nkind=perfection of poly\nvars=x:1")
        base = saturate(perf, 3, 1)
        bumped = SaturatedModel(perf, 3, 1, R=internal_precision(3, 1) + 1)
        l1, l2 = strict_truncate(base, 3), strict_truncate(bumped, 3)
        for u in l1.weights(2):
            ok = ok and l1.invariants(0, u) == l2.invariants(0, u)
    # criterion 5/6 groups under R -> R+1 and cap -> cap*p
    for p in (2, 3):
        cap = 2 * p * p
        for text in (f"p={p}\nkind=finite_field", f"p={p}\nkind=laurent\nvars=x:1"):
            s = spec(text)
            for i in (0, 1, 2):
                r = 2
                rep_base = verify_fundamental_seq(s, i, r, 3, cap)
                rep_cap = verify_fundamental_seq(s, i, r, 3, cap * p)
                ok = ok and rep_base["h_i"] == rep_cap["h_i"]
                ok = ok and rep_base["verdict"] == rep_cap["verdict"]
                ok = ok and rep_base["off_degree_vanishing"] == rep_cap["off_degree_vanishing"]
                # precision bump
                bumped = syntomic(s, i, r, 3, cap, R=internal_precision(r, max(3, i + 1)) + 1)
                ok = ok and bumped.group(i) == rep_base["h_i"]
                assert ok, (text, i)
    # criterion 6 anchors under a precision bump (weight caps are moot for
    # F_p, whose only weight is zero; drw-table weights are computed lazily
    # and independently, so enlarging the window cannot alter old entries)
    for p in (2, 3):
        s = spec(f"p={p}\nkind=finite_field")
        for r in (1, 3):
            S0 = syntomic(s, 0, r, 2, 1, R=internal_precision(r, 2) + 1)
            ok = ok and S0.group(0) == InvariantFactors((p**r,))
            ok = ok and S0.group(1) == InvariantFactors((p**r,))
        for i in (1, 4):
            Si = syntomic(s, i, 2, 4, 1, R=internal_precision(2, max(4, i + 1)) + 1)
            ok = ok and all(v.is_trivial() for v in Si.cohomology.values())
    # criterion 7 booleans under cap * p
    for p in (2, 3):
        s = spec(f"p={p}\nkind=poly\nvars=x:1")
        for i in (0, 1, 2):
            ok = ok and nygaard_graded_check(s, i, 2 * p * p * p)
    report("criterion 10: stability under R -> R+1 and weight cap -> cap*p", ok, t0)
