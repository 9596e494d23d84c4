"""Witt vector laws, structure maps, and their ghost-component oracles."""

import functools
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drwitt.errors import InexactDivision, LengthUnderflow, TorsionCoefficients
from drwitt.exactcore import Zq
from drwitt.rings import MonomialAlgebra, parse_ringspec
from drwitt.witt import (
    IntegerMonomialAlgebra,
    WittRing,
    frobenius,
    ghost,
    restriction,
    verschiebung,
    witt_add,
    witt_mul,
    witt_neg,
    witt_to_unramified,
)

from helpers import DepthCap, reference_ghost_frobenius, synthesize_law, variable


def alg(text):
    return MonomialAlgebra(parse_ringspec(text))


ZALG = IntegerMonomialAlgebra(0)


def zvec(ring, *vals):
    return ring(tuple(ZALG.constant(v) for v in vals))


# ---------------------------------------------------------------------------
# universal laws

def test_sum_law_depth0_is_plain_addition():
    law = synthesize_law(5, 0)
    assert law.sum_polys[0] == {(1, 0): 1, (0, 1): 1}


def test_sum_law_depth1_p2():
    law = synthesize_law(2, 1)
    # S_1 = X_1 + Y_1 - X_0 Y_0
    assert law.sum_polys[1] == {(0, 1, 0, 0): 1, (0, 0, 0, 1): 1, (1, 0, 1, 0): -1}


def test_sum_law_depth1_p3():
    law = synthesize_law(3, 1)
    # S_1 = X_1 + Y_1 - X_0^2 Y_0 - X_0 Y_0^2
    assert law.sum_polys[1] == {
        (0, 1, 0, 0): 1,
        (0, 0, 0, 1): 1,
        (2, 0, 1, 0): -1,
        (1, 0, 2, 0): -1,
    }


def test_law_ghost_compatibility_by_integer_evaluation():
    rng = random.Random(31337)
    for p in (2, 3):
        law = synthesize_law(p, 2)
        for _ in range(20):
            xs = [rng.randrange(-9, 10) for _ in range(3)]
            ys = [rng.randrange(-9, 10) for _ in range(3)]
            s = law.evaluate(0, xs, ys)
            m = law.evaluate(1, xs, ys)
            n = law.evaluate(2, xs)
            for deg in range(3):
                gx = sum(p**i * xs[i] ** (p ** (deg - i)) for i in range(deg + 1))
                gy = sum(p**i * ys[i] ** (p ** (deg - i)) for i in range(deg + 1))
                gs = sum(p**i * s[i] ** (p ** (deg - i)) for i in range(deg + 1))
                gm = sum(p**i * m[i] ** (p ** (deg - i)) for i in range(deg + 1))
                gn = sum(p**i * n[i] ** (p ** (deg - i)) for i in range(deg + 1))
                assert gs == gx + gy
                assert gm == gx * gy
                assert gn == -gx


LAW_RINGS = {
    "finite_field": "kind=finite_field",
    "poly": "kind=poly\nvars=x:1",
    "quotient": "kind=quotient\nvars=x:2,y:3\nrels=y^2-x^3",
}


@functools.lru_cache(maxsize=None)
def law_algebra(p, f, kind):
    A = alg(f"p={p}\nf={f}\n{LAW_RINGS[kind]}")
    return A, [m for w in range(3) for m in A.monomials(w)]


def law_value(A, poly, args):
    """The integer polynomial poly, its coefficients read mod p, at the ring elements args."""
    powers = {}

    def power(k, e):
        if (k, e) not in powers:
            powers[(k, e)] = args[k] if e == 1 else A.mul(power(k, e // 2), power(k, e - e // 2))
        return powers[(k, e)]

    total = A.zero()
    for exps, c in poly.items():
        term = A.constant(c % A.spec.p)
        for k, e in enumerate(exps):
            if e and term:
                term = A.mul(term, power(k, e))
        total = A.add(total, term)
    return total


@st.composite
def law_cases(draw):
    p, f = draw(st.sampled_from([2, 3])), draw(st.integers(1, 2))
    A, monos = law_algebra(p, f, draw(st.sampled_from(sorted(LAW_RINGS))))
    length = draw(st.integers(1, 3))

    def element():
        terms = draw(st.lists(st.tuples(st.sampled_from(monos), st.integers(0, A.K.q - 1)), max_size=2))
        out = A.zero()
        for m, c in terms:
            out = A.add(out, A.scal(c, {m: 1}))
        return out

    W = WittRing(A, length)
    return p, W(tuple(element() for _ in range(length))), W(tuple(element() for _ in range(length)))


@settings(max_examples=100, deadline=None)
@given(case=law_cases())
def test_witt_operations_match_the_universal_laws(case):
    # the lift-and-solve arithmetic against S, P and N read mod p in the ring
    p, a, b = case
    A, n = a.ring.algebra, a.ring.length
    law = synthesize_law(p, n - 1)
    xs, ys = list(a.components), list(b.components)
    for op, polys, args in (
        (witt_add(a, b), law.sum_polys, xs + ys),
        (witt_mul(a, b), law.prod_polys, xs + ys),
        (witt_neg(a), law.neg_polys, xs + [A.zero()] * n),
    ):
        assert list(op.components) == [law_value(A, poly, args) for poly in polys]


def test_cover_division_checks_divisibility():
    # the universal laws make every division exact, so only a direct call reaches the check
    cover = WittRing(alg("p=3\nkind=finite_field\nf=2"), 3).cover
    assert cover.divexact({(): (3, 6)}, 3) == {(): (1, 2)}
    with pytest.raises(InexactDivision):
        cover.divexact({(): (3, 1)}, 3)


def test_depth_cap():
    with pytest.raises(DepthCap):
        synthesize_law(2, 7, cap=5)


# ---------------------------------------------------------------------------
# ring laws over char-p coefficients

def test_one_plus_one_in_w2_f2():
    W = WittRing(alg("p=2\nkind=finite_field"), 2)
    s = witt_add(W.one(), W.one())
    assert s == verschiebung(WittRing(W.algebra, 1).one())


def test_w3_f3_is_z27_by_exhaustive_table():
    A = alg("p=3\nkind=finite_field")
    W = WittRing(A, 3)
    Wq = Zq(3, 1, 4)
    # Teichmuller digit correspondence (a_0,a_1,a_2) -> sum 3^s t(a_s)
    t = {c: Wq.teichmuller(c)[0] % 27 for c in range(3)}

    def encode(v):
        return sum(3**s * t[v.components[s].get((), 0)] for s in range(3)) % 27

    elements = []
    for digits in itertools.product(range(3), repeat=3):
        v = W(tuple(A.constant(d) for d in digits))
        elements.append(v)
    codes = {encode(v) for v in elements}
    assert codes == set(range(27))
    for a in elements:
        for b in elements:
            assert encode(witt_add(a, b)) == (encode(a) + encode(b)) % 27


def test_ring_axioms_spot_check_w3_f9():
    A = alg("p=3\nkind=finite_field\nf=2")
    W = WittRing(A, 3)
    rng = random.Random(4)

    def rand():
        return W(tuple(A.constant(rng.randrange(9)) for _ in range(3)))

    for _ in range(12):
        a, b, c = rand(), rand(), rand()
        assert witt_add(a, b) == witt_add(b, a)
        assert witt_mul(a, b) == witt_mul(b, a)
        assert witt_add(witt_add(a, b), c) == witt_add(a, witt_add(b, c))
        assert witt_mul(witt_mul(a, b), c) == witt_mul(a, witt_mul(b, c))
        assert witt_mul(a, witt_add(b, c)) == witt_add(witt_mul(a, b), witt_mul(a, c))
        assert witt_add(a, witt_neg(a)) == W.zero()


def test_teichmuller_multiplicative_f9():
    A = alg("p=3\nkind=finite_field\nf=2")
    W = WittRing(A, 3)
    K = A.K
    rng = random.Random(17)
    for _ in range(25):
        a, b = rng.randrange(9), rng.randrange(9)
        assert witt_mul(W.teichmuller(a), W.teichmuller(b)) == W.teichmuller(K.mul(a, b))


# ---------------------------------------------------------------------------
# ghost components over torsion-free rings

def test_ghost_of_teichmuller():
    W = WittRing(ZALG, 3, p=2)
    g = ghost(W((ZALG.constant(5), ZALG.zero(), ZALG.zero())))
    assert [x.get((), 0) for x in g] == [5, 25, 625]


def test_ghost_of_verschiebung_shifts():
    W = WittRing(ZALG, 2, p=3)
    x = zvec(W, 4, 7)
    gx = ghost(x)
    gv = ghost(verschiebung(x))
    assert gv[0] == {}
    for m in range(2):
        assert gv[m + 1].get((), 0) == 3 * gx[m].get((), 0)


def test_ghost_is_ring_hom_random():
    rng = random.Random(12)
    for p in (2, 3, 5):
        for r in (2, 3, 4):
            W = WittRing(ZALG, r, p=p)
            for _ in range(10):
                a = zvec(W, *[rng.randrange(-20, 21) for _ in range(r)])
                b = zvec(W, *[rng.randrange(-20, 21) for _ in range(r)])
                ga = [x.get((), 0) for x in ghost(a)]
                gb = [x.get((), 0) for x in ghost(b)]
                assert [x.get((), 0) for x in ghost(witt_add(a, b))] == [
                    s + t for s, t in zip(ga, gb)
                ]
                assert [x.get((), 0) for x in ghost(witt_mul(a, b))] == [
                    s * t for s, t in zip(ga, gb)
                ]


def test_ghost_rejected_in_char_p():
    W = WittRing(alg("p=2\nkind=finite_field"), 2)
    with pytest.raises(TorsionCoefficients):
        ghost(W.one())


def test_ghost_over_polynomial_cover():
    # one polynomial variable: ghost still a ring hom
    P = IntegerMonomialAlgebra(1)
    W = WittRing(P, 2, p=2)
    a = W(({(1,): 1}, {(0,): 3}))
    b = W(({(2,): 2}, {(1,): -1}))
    ga, gb = ghost(a), ghost(b)
    gs = ghost(witt_add(a, b))
    for m in range(2):
        assert gs[m] == P.add(ga[m], gb[m])


# ---------------------------------------------------------------------------
# Frobenius / Verschiebung / restriction

def test_frobenius_kills_v1_in_w2_fp():
    for p in (2, 3):
        A = alg(f"p={p}\nkind=finite_field")
        W1 = WittRing(A, 1)
        v = verschiebung(W1.one())  # V(1) in W_2
        assert frobenius(v) == W1.zero()  # F V = p = 0 in W_1(F_p)


def test_frobenius_of_teichmuller_is_pth_power():
    A = alg("p=3\nkind=poly\nvars=x:1")
    W = WittRing(A, 2)
    x = variable(A, 0)
    assert frobenius(W.teichmuller(x)) == WittRing(A, 1).teichmuller(A.mul(x, A.mul(x, x)))


def test_frobenius_fast_path_matches_universal():
    A = alg("p=2\nkind=poly\nvars=x:1")
    W = WittRing(A, 3)
    rng = random.Random(8)

    def rand_el():
        out = A.zero()
        for _ in range(2):
            if rng.randrange(2):
                out = A.add(out, {(rng.randrange(4),): 1})
        return out

    for _ in range(50):
        v = W(tuple(rand_el() for _ in range(3)))
        assert frobenius(v) == reference_ghost_frobenius(v)


def test_fv_and_vf_are_multiplication_by_p():
    A = alg("p=5\nkind=finite_field")
    W = WittRing(A, 3)
    rng = random.Random(3)
    for _ in range(10):
        a = W(tuple(A.constant(rng.randrange(5)) for _ in range(3)))
        # FV = p on W_3
        assert frobenius(verschiebung(a)) == W.scalar(5).__mul__(a)
        # VF = p after matching lengths: V(F(a)) lands in W_3 again
        assert verschiebung(frobenius(a)) == witt_mul(W.scalar(5), a)


def test_v_additive_w3_f5():
    A = alg("p=5\nkind=finite_field")
    W = WittRing(A, 3)
    rng = random.Random(77)
    for _ in range(50):
        a = W(tuple(A.constant(rng.randrange(5)) for _ in range(3)))
        b = W(tuple(A.constant(rng.randrange(5)) for _ in range(3)))
        assert verschiebung(witt_add(a, b)) == witt_add(verschiebung(a), verschiebung(b))


def test_projection_formula_w2_f2x():
    A = alg("p=2\nkind=poly\nvars=x:1")
    W2 = WittRing(A, 2)
    W1 = WittRing(A, 1)
    rng = random.Random(5)

    def rand_el(cap=6):
        out = A.zero()
        for _ in range(3):
            if rng.randrange(2):
                out = A.add(out, {(rng.randrange(cap),): 1})
        return out

    for _ in range(50):
        x = W2((rand_el(), rand_el()))
        y = W1((rand_el(),))
        assert witt_mul(x, verschiebung(y)) == verschiebung(witt_mul(frobenius(x), y))


def test_v_of_one_is_p():
    for p in (2, 3, 5):
        A = alg(f"p={p}\nkind=finite_field")
        W = WittRing(A, 2)
        assert verschiebung(WittRing(A, 1).one()) == W.scalar(p)


def test_restriction():
    A = alg("p=3\nkind=finite_field")
    W = WittRing(A, 3)
    v = W.teichmuller(2)
    assert restriction(v) == WittRing(A, 2).teichmuller(2)
    rng = random.Random(6)
    for _ in range(50):
        a = WittRing(A, 2)(tuple(A.constant(rng.randrange(3)) for _ in range(2)))
        assert restriction(verschiebung(a)) == verschiebung(restriction(a))
    # surjectivity: zero-padding is a section
    for digits in itertools.product(range(3), repeat=2):
        target = WittRing(A, 2)(tuple(A.constant(d) for d in digits))
        lifted = W(tuple(A.constant(d) for d in digits) + (A.zero(),))
        assert restriction(lifted) == target
    with pytest.raises(LengthUnderflow):
        restriction(WittRing(A, 1).one())


def test_rf_fr_commute():
    A = alg("p=2\nkind=poly\nvars=x:1")
    W = WittRing(A, 3)
    rng = random.Random(2)

    def rand_el():
        out = A.zero()
        for _ in range(2):
            if rng.randrange(2):
                out = A.add(out, {(rng.randrange(4),): 1})
        return out

    for _ in range(25):
        a = W(tuple(rand_el() for _ in range(3)))
        assert restriction(frobenius(a)) == frobenius(restriction(a))


# ---------------------------------------------------------------------------
# invariant-factor structure of W_r(F_p), and the unramified comparison

def test_wr_fp_is_cyclic_of_order_p_to_r():
    for p in (2, 3, 5):
        A = alg(f"p={p}\nkind=finite_field")
        for r in (1, 2, 3, 4):
            W = WittRing(A, r)
            one = W.one()
            # order of [1] equals p^r and the group has p^r elements
            assert W.scalar(p**r) == W.zero()
            if r > 1:
                assert W.scalar(p ** (r - 1)) != W.zero()


def test_witt_to_unramified_is_ring_iso_with_frobenius():
    for (p, f) in [(2, 2), (3, 2), (2, 3), (3, 3)]:
        A = alg(f"p={p}\nkind=finite_field\nf={f}")
        r = 3
        W = WittRing(A, r)
        Wq = Zq(p, f, r)
        rng = random.Random(p * 10 + f)
        mod = p**r

        def enc(v):
            return tuple(x % mod for x in witt_to_unramified(v, Wq))

        for _ in range(15):
            a = W(tuple(A.constant(rng.randrange(p**f)) for _ in range(r)))
            b = W(tuple(A.constant(rng.randrange(p**f)) for _ in range(r)))
            assert enc(witt_add(a, b)) == Wq.add(enc(a), enc(b))
            assert enc(witt_mul(a, b)) == Wq.mul(enc(a), enc(b))
            # Frobenius corresponds to the lifted field Frobenius (mod p^{r-1})
            fa = witt_to_unramified(frobenius(a), Zq(p, f, r - 1))
            sa = Wq.frobenius(enc(a))
            assert tuple(x % p ** (r - 1) for x in fa) == tuple(
                x % p ** (r - 1) for x in sa
            )


def test_cover_product_keys_skip_the_fraction_round_trip():
    # exponent keys are wkeys (int or Fraction); adding them directly gives
    # the key that adding their Fraction copies gave, type included
    from fractions import Fraction

    from drwitt.rings import wkey

    keys = [0, 1, -2, 5, Fraction(1, 2), Fraction(-1, 2), Fraction(3, 4), Fraction(5, 4), Fraction(-7, 9)]
    for x, y in itertools.product(keys, repeat=2):
        old = wkey(Fraction(x) + Fraction(y))
        assert (type(wkey(x + y)), wkey(x + y)) == (type(old), old), (x, y)
    # sums that become integers come back as ints
    assert type(wkey(Fraction(1, 2) + Fraction(1, 2))) is int and type(wkey(Fraction(3, 4) + Fraction(5, 4))) is int
    # and the cover multiplies perfection monomials with those keys
    A = MonomialAlgebra(parse_ringspec("p=2\nkind=perfection of poly\nvars=x:1"))
    cover = WittRing(A, 2).cover
    prod = cover.mul(cover.lift(A.parse_element("x^(1/2) + x")), cover.lift(A.parse_element("x^(1/2)")))
    assert sorted(prod) == [(1,), (Fraction(3, 2),)] and type(next(k for (k,) in prod if k == 1)) is int
    # scaling a key by p (Frobenius on exponents) gives the Fraction round trip's key too
    for x, p in itertools.product(keys, (2, 3, 5)):
        old = wkey(Fraction(x) * p)
        assert (type(wkey(x * p)), wkey(x * p)) == (type(old), old), (x, p)
    # and MonomialAlgebra.mul and frobenius key perfection monomials the same way
    prod = A.mul(A.parse_element("x^(1/2) + x"), A.parse_element("x^(1/2)"))
    frob = A.frobenius(A.parse_element("x^(1/2) + x^(3/4)"))
    for el in (prod, frob):
        assert sorted(el) == [(1,), (Fraction(3, 2),)] and type(next(k for (k,) in el if k == 1)) is int


def test_power_makes_no_square_past_the_top_bit(monkeypatch):
    # binary powering needs floor(log2 n) squares and popcount(n) - 1 products:
    # k multiplications for n = 2^k, none for n = 1
    import helpers

    calls = []
    real = helpers._poly_mul

    def counting(a, b):
        calls.append((a, b))
        return real(a, b)

    monkeypatch.setattr(helpers, "_poly_mul", counting)
    for n in range(1, 21):
        calls.clear()
        assert helpers._poly_pow({(1,): 2}, n) == {(n,): 2**n}
        assert len(calls) == n.bit_length() - 1 + bin(n).count("1") - 1, n


def test_one_cover_per_ring(monkeypatch):
    # a ring builds its cover once; arithmetic and the universal Frobenius reuse it
    import drwitt.witt as witt_module

    built = []

    class CountingCover(witt_module._GFCover):
        def __init__(self, *args, **kwargs):
            built.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(witt_module, "_GFCover", CountingCover)
    A = alg("p=3\nf=2\nkind=poly\nvars=x:1")
    W = WittRing(A, 3)
    assert len(built) == 1
    a = W(tuple(A.parse_element(c) for c in ("x + t", "1", "t*x")))
    b = W(tuple(A.parse_element(c) for c in ("2", "x", "0")))
    witt_add(a, b), witt_mul(a, b), witt_neg(a)
    assert reference_ghost_frobenius(a) == frobenius(a)
    assert W.scalar(5) == witt_add(W.scalar(2), W.scalar(3))
    assert len(built) == 1
