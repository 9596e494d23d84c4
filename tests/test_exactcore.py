"""Substrate tests: Howell forms, presentations, homology, invariants.

The small-modulus cases are checked against exhaustive enumeration of
row spans, which is the ground truth everything else leans on.
"""

import itertools
import random
from math import prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from drwitt.exactcore import (
    GF,
    ZZ,
    FinComplex,
    FinModPresentation,
    InvariantFactors,
    NonComplex,
    SubQuot,
    Zq,
    ZmodRing,
    gf_rref,
    hermite,
    homology,
    homology_subquot,
    howell,
    identity,
    kernel,
    mat_mul,
    member,
    normal_form,
    pivot_orders,
    power,
    preimage,
    quotient_invariants,
    smith_diagonal,
)
from drwitt.exactcore.gf import gf_reduce_vector
from drwitt.exactcore.zmodp import quotient_divisor_exponents
from drwitt.rings import p_split
from helpers import (
    elements,
    intersect,
    invariants_isomorphic,
    reference_gf_reduce_vector,
    reference_gf_rref,
    reference_homology_subquot,
    reference_howell,
    reference_lift_frobenius,
    reference_SubQuot,
    solve,
)


def brute_span(R, rows, ncols):
    """All elements of the row span, by enumeration of coefficients."""
    vecs = set()
    for coeffs in itertools.product(range(R.q), repeat=len(rows)):
        v = [0] * ncols
        for c, row in zip(coeffs, rows):
            for j, x in enumerate(row):
                v[j] = (v[j] + c * x) % R.q
        vecs.add(tuple(v))
    return vecs


# ---------------------------------------------------------------------------
# Howell form

def test_howell_identity_over_z9():
    R = ZmodRing(3, 2)
    eye = [[1, 0], [0, 1]]
    assert howell(R, eye) == eye


def test_howell_single_saturated_row():
    R = ZmodRing(3, 2)
    assert howell(R, [[3]]) == [[3]]


def test_howell_row_module_equality_brute_force():
    # random 3x3 over Z/8, ten seeds: span preserved, form canonical
    R = ZmodRing(2, 3)
    rng = random.Random(20240811)
    for _ in range(10):
        A = [[rng.randrange(8) for _ in range(3)] for _ in range(3)]
        H = howell(R, A)
        assert brute_span(R, A, 3) == brute_span(R, H, 3)
        # idempotent
        assert howell(R, H) == H
        # membership test agrees with enumeration
        span = brute_span(R, A, 3)
        for v in itertools.product(range(8), repeat=3):
            assert member(R, H, list(v)) == (v in span)


def test_howell_canonical_under_row_operations():
    R = ZmodRing(3, 3)
    rng = random.Random(7)
    for _ in range(25):
        A = [[rng.randrange(27) for _ in range(4)] for _ in range(3)]
        # unimodular row mix: swap, add multiple, scale by unit
        B = [row[:] for row in A]
        i, j = rng.randrange(3), rng.randrange(3)
        if i != j:
            c = rng.randrange(27)
            B[i] = [(x + c * y) % 27 for x, y in zip(B[i], B[j])]
        u = rng.choice([1, 2, 4, 5, 7, 8])
        B[i] = [(u * x) % 27 for x in B[i]]
        assert howell(R, A) == howell(R, B)


def test_howell_shadow_rows_capture_tails():
    # span{(2,1)} over Z/4 contains 2*(2,1) = (0,2): Howell must expose it
    R = ZmodRing(2, 2)
    H = howell(R, [[2, 1]])
    assert member(R, H, [0, 2])
    assert brute_span(R, [[2, 1]], 2) == brute_span(R, H, 2)


def test_empty_and_degenerate_matrices():
    R = ZmodRing(2, 3)
    assert howell(R, []) == []
    assert howell(R, [[0, 0]]) == []
    assert quotient_invariants(R, [], 0) == InvariantFactors(())


@st.composite
def howell_inputs(draw):
    """(p, N, rows, ncols) with zero rows, repeated rows and entries of every valuation.

    Entries are p^k * u for k in [0, N], so a column's least-valuation
    entry is often not its first nonzero one.
    """
    p = draw(st.sampled_from((2, 3, 5)))
    N = draw(st.integers(1, 3))
    q = p**N
    ncols = draw(st.integers(1, 4))
    entry = st.builds(lambda k, u: p**k * u % q, st.integers(0, N), st.integers(1, q))
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), max_size=5))
    for kind, at in draw(st.lists(st.tuples(st.sampled_from(("zero", "repeat")), st.integers(0, 9)), max_size=3)):
        row = [0] * ncols if kind == "zero" or not rows else list(rows[at % len(rows)])
        rows.insert(at % (len(rows) + 1), row)
    return p, N, rows, ncols


def is_rref(p, H, ncols):
    """Reduced entries, strictly increasing leading ones, each alone in its column."""
    leads = [next(j for j, x in enumerate(row) if x) for row in H]
    return (
        leads == sorted(set(leads))
        and all(len(row) == ncols and all(0 <= x < p for x in row) for row in H)
        and all(row[c] == (i == k) for k, c in enumerate(leads) for i, row in enumerate(H))
    )


@settings(max_examples=400, deadline=None)
@given(howell_inputs())
@example((2, 2, [[2, 1], [1, 0]], 2))  # least valuation sits below the first nonzero
@example((3, 1, [[1, 2], [0, 0], [1, 2], [2, 1]], 2))  # zero and repeated rows
def test_howell_matches_reference(case):
    p, N, rows, ncols = case
    R = ZmodRing(p, N)
    expected = reference_howell(R, [list(r) for r in rows], ncols)
    assert howell(R, [list(r) for r in rows], ncols) == expected
    if N == 1:
        H = normal_form(GF(p), [list(r) for r in rows], ncols)
        assert H == expected
        assert is_rref(p, H, ncols)


@st.composite
def gf_rref_inputs(draw):
    """(K, rows, ncols) over GF(2), GF(3), GF(5), GF(4) or GF(9): sparse or
    dense rows, with zero and repeated rows spliced in."""
    p, f = draw(st.sampled_from(((2, 1), (3, 1), (5, 1), (2, 2), (3, 2))))
    K = GF(p, f)
    ncols = draw(st.integers(0, 7))
    dense = st.lists(st.integers(0, K.q - 1), min_size=ncols, max_size=ncols)
    terms = st.dictionaries(st.integers(0, max(ncols - 1, 0)), st.integers(1, K.q - 1), max_size=2 if ncols else 0)
    sparse = terms.map(lambda t: [t.get(j, 0) for j in range(ncols)])
    rows = draw(st.lists(st.one_of(sparse, dense), max_size=7))
    for kind, at in draw(st.lists(st.tuples(st.sampled_from(("zero", "repeat")), st.integers(0, 9)), max_size=3)):
        row = [0] * ncols if kind == "zero" or not rows else list(rows[at % len(rows)])
        rows.insert(at % (len(rows) + 1), row)
    return K, rows, ncols


@settings(max_examples=400, deadline=None)
@given(gf_rref_inputs())
@example((GF(2), [], 3))  # empty input
@example((GF(3), [[], []], 0))  # no columns
@example((GF(2, 2), [[0, 0, 0], [2, 3, 1], [0, 0, 0], [2, 3, 1]], 3))  # zero and repeated rows
@example((GF(3, 2), [[1, 4, 0, 7], [0, 1, 0, 2], [0, 0, 1, 5]], 4))  # back-substitution clears two columns
def test_gf_rref_matches_the_dense_reference(case):
    K, rows, ncols = case
    expected = reference_gf_rref(K, [list(r) for r in rows], ncols)
    assert normal_form(K, [list(r) for r in rows], ncols) == expected
    # the engine on the same rows as dicts, without the dense boundary
    H = gf_rref(K, [{j: x for j, x in enumerate(r) if x} for r in rows])
    assert [[h.get(j, 0) for j in range(ncols)] for h in H] == expected
    assert all(0 not in h.values() for h in H)


@st.composite
def gf_reduce_inputs(draw):
    """(K, rows, ncols, v): gf_rref_inputs and a vector v, zero or random."""
    K, rows, ncols = draw(gf_rref_inputs())
    random_v = st.lists(st.integers(0, K.q - 1), min_size=ncols, max_size=ncols)
    return K, rows, ncols, draw(st.one_of(st.just([0] * ncols), random_v))


@settings(max_examples=400, deadline=None)
@given(gf_reduce_inputs())
@example((GF(2), [], 3, [1, 0, 1]))  # empty H
@example((GF(3, 2), [[1, 4, 0, 7], [0, 1, 0, 2], [0, 0, 1, 5]], 4, [5, 0, 3, 8]))  # full rank
@example((GF(5), [[0, 1, 3, 0, 2], [0, 0, 0, 1, 4]], 5, [0, 0, 0, 0, 0]))  # zero v
@example((GF(2, 2), [[0, 0, 1, 2, 0, 3], [0, 0, 0, 0, 1, 1]], 6, [1, 2, 3, 1, 2, 3]))  # pivots two columns apart
def test_gf_reduce_vector_matches_the_dense_reference(case):
    K, rows, ncols, v = case
    H = normal_form(K, rows, ncols)
    before = list(v)
    assert gf_reduce_vector(K, H, v) == reference_gf_reduce_vector(K, H, v)
    assert v == before


def test_kernel_solve_preimage_intersect():
    R = ZmodRing(2, 3)
    rng = random.Random(99)
    for _ in range(30):
        A = [[rng.randrange(8) for _ in range(3)] for _ in range(2)]
        K = kernel(R, A)
        for krow in K:
            out = [sum(c * A[i][j] for i, c in enumerate(krow)) % 8 for j in range(3)]
            assert not any(out)
        # kernel is complete (brute force)
        brute = {
            x
            for x in itertools.product(range(8), repeat=2)
            if not any(sum(c * A[i][j] for i, c in enumerate(x)) % 8 for j in range(3))
        }
        assert brute_span(R, K, 2) == brute if K else brute == {(0, 0)}
        # solve returns actual solutions
        x = [rng.randrange(8) for _ in range(2)]
        b = [sum(c * A[i][j] for i, c in enumerate(x)) % 8 for j in range(3)]
        sol = solve(R, A, b)
        assert sol is not None
        out = [sum(c * A[i][j] for i, c in enumerate(sol)) % 8 for j in range(3)]
        assert out == b


def test_preimage_and_intersect_against_enumeration():
    R = ZmodRing(2, 2)
    rng = random.Random(5)
    for _ in range(15):
        A = [[rng.randrange(4) for _ in range(2)] for _ in range(2)]
        B = [[rng.randrange(4) for _ in range(2)]]
        spanB = brute_span(R, B, 2)
        P = preimage(R, A, B)
        brute = {
            x
            for x in itertools.product(range(4), repeat=2)
            if tuple(sum(c * A[i][j] for i, c in enumerate(x)) % 4 for j in range(2)) in spanB
        }
        assert brute_span(R, P, 2) == brute if P else brute == {(0, 0)}
        I = intersect(R, A, B, 2)
        got = brute_span(R, I, 2) if I else {(0, 0)}
        assert got == brute_span(R, A, 2) & spanB


def test_span_order():
    R = ZmodRing(2, 3)

    def span_order(R, rows, ncols):
        return prod(pivot_orders(R, howell(R, rows, ncols)))

    assert span_order(R, [[1, 0], [0, 2]], 2) == 8 * 4
    assert span_order(R, [], 2) == 1
    # each row contributes the order of its pivot, not its own: [2, 1] has
    # order 8 in Z/8, but 4 [2, 1] = [0, 4] is the next row's
    H = howell(R, [[2, 1], [0, 4]], 2)
    assert pivot_orders(R, H) == [4, 2] and span_order(R, H, 2) == len(brute_span(R, H, 2)) == 8


# ---------------------------------------------------------------------------
# integers

def test_hermite_and_kernel_over_z():
    H = hermite([[2, 4], [4, 0]])
    assert H == [[2, 4], [0, 8]]
    K = kernel(ZZ, [[2, 4], [1, 2]])
    assert K and all(k[0] * 2 + k[1] * 1 == 0 and k[0] * 4 + k[1] * 2 == 0 for k in K)
    assert solve(ZZ, [[2, 0], [0, 3]], [4, 9]) == [2, 3]
    assert solve(ZZ, [[2, 0]], [1, 0]) is None


def test_smith_diagonal():
    assert smith_diagonal([[2, 0], [0, 8]], 2) == [2, 8]
    assert smith_diagonal([[0, 1], [1, 0]], 2) == [1, 1]
    assert smith_diagonal([[4, 6]], 2) == [2]


def _sympy_smith(rows, ncols):
    """Nonzero |diagonal| of sympy's Smith normal form over Z."""
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form

    if not rows or not ncols:
        return []
    S = smith_normal_form(sympy.Matrix(rows), domain=sympy.ZZ)
    return [abs(int(S[k, k])) for k in range(min(S.shape)) if S[k, k]]


def _int_rows(max_rows, max_cols, lo, hi):
    return st.integers(0, max_cols).flatmap(
        lambda n: st.lists(st.lists(st.integers(lo, hi), min_size=n, max_size=n), max_size=max_rows).map(
            lambda rows: (rows, n)
        )
    )


@settings(max_examples=150, deadline=None)
@given(case=_int_rows(4, 4, -30, 30))
def test_smith_diagonal_matches_sympy(case):
    rows, ncols = case
    assert smith_diagonal(rows, ncols) == _sympy_smith(rows, ncols)


@settings(max_examples=150, deadline=None)
@given(case=_int_rows(4, 4, -40, 40), p=st.sampled_from([2, 3, 5]), N=st.integers(1, 3))
def test_quotient_divisor_exponents_match_sympy(case, p, N):
    # (Z/p^N)^n / rowspan is Z^n / rowspan[rows; p^N I]
    rows, ncols = case
    R = ZmodRing(p, N)
    want = [p_split(d, p)[0] for d in _sympy_smith(rows + identity(ncols, p**N), ncols)]
    assert sorted(quotient_divisor_exponents(R, rows, ncols)) == sorted(want)


# ---------------------------------------------------------------------------
# GF(p^f) and the unramified lift

def test_gf_field_axioms_small():
    for (p, f) in [(2, 2), (2, 3), (3, 2), (3, 3)]:
        K = GF(p, f)
        els = list(elements(K))
        for a in els[: min(9, len(els))]:
            for b in els[: min(9, len(els))]:
                assert K.mul(a, b) == K.mul(b, a)
                assert K.add(a, b) == K.add(b, a)
        for a in K.units():
            assert K.mul(a, K.inv(a)) == 1
        # Frobenius is additive and f-fold iterate is the identity
        for a in els:
            for b in els:
                assert K.frob(K.add(a, b)) == K.add(K.frob(a), K.frob(b))
        for a in els:
            x = a
            for _ in range(f):
                x = K.frob(x)
            assert x == a


def test_zq_frobenius_and_teichmuller():
    for (p, f) in [(2, 2), (3, 2), (2, 3), (3, 3)]:
        W = Zq(p, f, 6)
        one = W.one()
        assert W.frobenius(one) == one
        # Frobenius is a ring hom reducing to x -> x^p
        K = W.residue
        for c in range(K.q):
            t = W.teichmuller(c)
            assert W.reduce_residue(t) == c
            assert W.frobenius(t) == W.teichmuller(K.frob(c))
            # multiplicativity of the lift
            for cc in range(K.q):
                assert W.mul(W.teichmuller(c), W.teichmuller(cc)) == W.teichmuller(K.mul(c, cc))
        # sigma has order f
        x = W.teichmuller(min(2, K.q - 1))
        y = x
        for _ in range(f):
            y = W.frobenius(y)
        assert y == x


def test_the_doubling_lift_matches_the_full_precision_lift():
    # the lift doubles its precision each Newton round and carries 1/m'(tau)
    # along; the reference runs every step, and every inverse, modulo p^B
    for p in (2, 3, 5):
        for f in (1, 2, 3, 4):
            for B in range(1, 41):
                W = Zq(p, f, B)
                assert W._frob_matrix == reference_lift_frobenius(W), (p, f, B)


def test_gf_power_and_zq_product_agree_with_repeated_products():
    # GF.power is n-fold GF.mul, power(a, 0) is 1 (t^0 in ring files)
    for p, f in [(2, 2), (2, 3), (3, 2)]:
        K = GF(p, f)
        for a in elements(K):
            x = 1
            for n in range(K.q + 2):
                assert K.power(a, n) == x, (K, a, n)
                x = K.mul(x, a)
    # Zq.mul and GF.mul are the same product, modulo p^3 and modulo p
    rng = random.Random(0)
    for p, f in [(2, 2), (2, 3), (3, 2), (5, 2)]:
        W, K = Zq(p, f, 3), GF(p, f)
        for _ in range(40):
            a, b = (tuple(rng.randrange(W.q) for _ in range(f)) for _ in "ab")
            assert W.reduce_residue(W.mul(a, b)) == K.mul(W.reduce_residue(a), W.reduce_residue(b))


def test_power_makes_floor_log2_plus_popcount_minus_one_products():
    calls = []

    def mul(a, b):
        calls.append((a, b))
        return a * b

    for n in range(1, 65):
        calls.clear()
        assert power(mul, 3, n) == 3**n
        assert len(calls) == n.bit_length() - 1 + bin(n).count("1") - 1, n
    with pytest.raises(ValueError):
        power(mul, 3, 0)


def gf_span(K, rows, ncols):
    """All elements of the row span over GF, by enumeration of coefficients."""
    if not rows:
        return {(0,) * ncols}
    return {
        tuple(mat_mul(K, [list(c)], rows)[0])
        for c in itertools.product(elements(K), repeat=len(rows))
    }


@pytest.mark.parametrize("p,f", [(2, 2), (3, 2)])
def test_gf_solve_kernel_preimage_against_enumeration(p, f):
    K = GF(p, f)
    els = list(elements(K))
    rng = random.Random(p**f)
    cases = [([[1, 1], [1, 1], [0, 1]], [[0, 2]])]  # repeated row: a kernel exists
    for _ in range(5):
        m, n = rng.randint(1, 3), rng.randint(1, 2)
        A = [[rng.choice(els) for _ in range(n)] for _ in range(m)]
        cases.append((A, [[rng.choice(els) for _ in range(n)] for _ in range(rng.randint(0, 1))]))
    for A, B in cases:
        m, n = len(A), len(A[0])
        image = {x: tuple(mat_mul(K, [list(x)], A)[0]) for x in itertools.product(els, repeat=m)}
        for b in itertools.product(els, repeat=n):
            x = solve(K, A, list(b))
            if b in image.values():
                assert x is not None and mat_mul(K, [x], A)[0] == list(b)
            else:
                assert x is None
        zero = (0,) * n
        ker = kernel(K, A)
        assert all(mat_mul(K, [r], A)[0] == list(zero) for r in ker)
        assert len(gf_span(K, ker, m)) == sum(1 for y in image.values() if y == zero)
        allowed = gf_span(K, B, n)
        pre = preimage(K, A, B)
        assert all(tuple(mat_mul(K, [r], A)[0]) in allowed for r in pre)
        assert len(gf_span(K, pre, m)) == sum(1 for y in image.values() if y in allowed)


@st.composite
def subquot_cases(draw):
    """A SubQuot over Z, Z/p^N or GF(p^f) and vectors to express on it: sums
    of its rows (in span(z) + span(b)) and free draws (mostly outside)."""
    kind = draw(st.sampled_from(["ZZ", "Zmod", "GF"]))
    p = draw(st.sampled_from([2, 3, 5]))
    if kind == "ZZ":
        ring, entry = ZZ, st.integers(-6, 6)
    elif kind == "Zmod":
        ring = ZmodRing(p, draw(st.integers(1, 3)))
        entry = st.integers(0, ring.q - 1)
    else:
        ring = GF(p, draw(st.integers(1, 2)))
        entry = st.integers(0, ring.q - 1)
    n = draw(st.integers(1, 4))
    rows = st.lists(st.lists(entry, min_size=n, max_size=n), max_size=3)
    z, b = draw(rows), draw(rows)
    vectors = []
    for _ in range(draw(st.integers(1, 5))):
        if z + b and draw(st.booleans()):
            coeffs = draw(st.lists(entry, min_size=len(z + b), max_size=len(z + b)))
            vectors.append(mat_mul(ring, [coeffs], z + b)[0])
        else:
            vectors.append(draw(st.lists(entry, min_size=n, max_size=n)))
    return ring, n, z, b, vectors


@settings(max_examples=300, deadline=None)
@given(subquot_cases())
@example((GF(2, 2), 2, [], [[1, 3]], [[2, 1], [3, 1]]))  # no generators: in span(b) or None
@example((ZmodRing(2, 2), 2, [[2, 0]], [[0, 2]], [[2, 2], [1, 0], [0, 0]]))  # non-unit pivots
def test_subquot_coords_match_a_solve_per_vector(case):
    # the kept normal form answers every vector as a fresh solve against
    # [z; b] does, including after other vectors (a stale form would differ)
    ring, n, z, b, vectors = case
    H = SubQuot(ring, n, z, b)
    for v in vectors:
        want = solve(ring, H.z + H.b, v)
        assert H.coords(v) == (None if want is None else want[: len(z)])


def test_subquot_coords_form_one_normal_form(monkeypatch):
    import drwitt.exactcore.modules as modules

    R = ZmodRing(3, 2)
    H = SubQuot(R, 3, [[1, 0, 3], [0, 3, 0]], [[0, 0, 3]])
    forms = []
    nf = modules.normal_form

    def counting(*args):
        forms.append(args)
        return nf(*args)

    monkeypatch.setattr(modules, "normal_form", counting)
    answers = [H.coords(v) for v in ([1, 0, 3], [2, 6, 0], [0, 1, 0], [0, 0, 6])]
    assert answers[0] == [1, 0] and answers[2] is None
    assert len(forms) == 1


@st.composite
def subquot_layer_cases(draw):
    """A subquotient (ring, n, z, b), vectors to express on it, and a map A into
    a second subquotient (n2, z2, b2) of R^n2.

    The ring is Z/p^N (p in {2, 3, 5}, N <= 4), GF(4), GF(9) or Z.  z is
    random, the identity or empty; b is empty or random with zero and
    repeated rows spliced in.  Vectors are sums of rows of z and b (in
    the span) and free draws (mostly outside).  Half the time the second
    subquotient contains z A and b A, so the induced map is defined."""
    kind = draw(st.sampled_from(["Zmod", "GF", "ZZ"]))
    if kind == "Zmod":
        p = draw(st.sampled_from([2, 3, 5]))
        ring = ZmodRing(p, draw(st.integers(1, 4)))
        entry = st.builds(lambda k, u: p**k * u % ring.q, st.integers(0, ring.N), st.integers(1, ring.q))
    elif kind == "GF":
        ring = GF(*draw(st.sampled_from([(2, 2), (3, 2)])))
        entry = st.integers(0, ring.q - 1)
    else:
        ring, entry = ZZ, st.integers(-6, 6)
    n = draw(st.integers(1, 4))
    rows = st.lists(st.lists(entry, min_size=n, max_size=n), max_size=4)
    z_kind = draw(st.sampled_from(["random", "identity", "empty"]))
    z = {"random": draw(rows), "identity": identity(n), "empty": []}[z_kind]
    b = draw(rows)
    for splice, at in draw(st.lists(st.tuples(st.sampled_from(("zero", "repeat")), st.integers(0, 9)), max_size=3)):
        row = [0] * n if splice == "zero" or not b else list(b[at % len(b)])
        b.insert(at % (len(b) + 1), row)
    vectors = []
    for _ in range(draw(st.integers(1, 4))):
        if z + b and draw(st.booleans()):
            coeffs = draw(st.lists(entry, min_size=len(z + b), max_size=len(z + b)))
            vectors.append(mat_mul(ring, [coeffs], z + b)[0])
        else:
            vectors.append(draw(st.lists(entry, min_size=n, max_size=n)))
    n2 = draw(st.integers(1, 3))
    A = draw(st.lists(st.lists(entry, min_size=n2, max_size=n2), min_size=n, max_size=n))
    rows2 = st.lists(st.lists(entry, min_size=n2, max_size=n2), max_size=2)
    z2, b2 = draw(rows2), draw(rows2)
    if draw(st.booleans()):
        z2 += mat_mul(ring, z, A)
        b2 += mat_mul(ring, b, A)
    return ring, n, z, b, vectors, n2, z2, b2, A


def _read_subquot(H, vectors, order):
    """Every reading of H, taken in the given order (the layer forms its normal forms lazily)."""
    read = {
        "relations": lambda: H.presentation().relations,
        "invariants": H.invariants,
        "b": lambda: H.b,
        "coords": lambda: [H.coords(v) for v in vectors],
    }
    return {key: read[key]() for key in order}


@settings(max_examples=300, deadline=None)
@given(subquot_layer_cases(), st.permutations(["relations", "invariants", "b", "coords"]))
@example(  # identity z over raw b rows (zero and repeated)
    (ZmodRing(3, 2), 2, identity(2), [[3, 6], [0, 0], [3, 6], [0, 3]], [[1, 1]], 1, [], [], [[1], [0]]),
    ["invariants", "coords", "relations", "b"],
)
@example(  # a vector in span(b) but not in span(z)
    (ZmodRing(2, 3), 2, [[2, 4]], [[4, 0], [0, 2]], [[0, 2], [2, 0]], 1, [[1]], [[2]], [[1], [0]]),
    ["coords", "b", "invariants", "relations"],
)
@example(  # empty z over Z
    (ZZ, 3, [], [[2, 0, 0], [4, 6, 0]], [[2, 6, 0], [1, 0, 0]], 2, [], [[2, 0]], [[1, 0], [1, 1], [0, 0]]),
    ["b", "relations", "coords", "invariants"],
)
@example(  # no relations
    (GF(3, 2), 2, identity(2), [], [[4, 7]], 2, identity(2), [], identity(2)),
    ["invariants", "relations", "b", "coords"],
)
def test_subquot_layer_matches_the_reference(case, order):
    ring, n, z, b, vectors, n2, z2, b2, A = case
    H, ref = SubQuot(ring, n, z, b), reference_SubQuot(ring, n, z, b)
    assert _read_subquot(H, vectors, order) == _read_subquot(ref, vectors, order)
    got = SubQuot(ring, n, z, b).induced_map(SubQuot(ring, n2, z2, b2), A)
    assert got == ref.induced_map(reference_SubQuot(ring, n2, z2, b2), A)


@settings(max_examples=150, deadline=None)
@given(subquot_layer_cases())
def test_homology_subquot_matches_the_reference(case):
    # a two-term complex R^n --A--> R^n2 / span(b2): H^0 is a preimage (or
    # empty) z, H^1 an identity z over the relations b2 and the rows of A
    ring, n, _, _, vectors, n2, _, b2, A = case
    C = FinComplex(ring, {0: FinModPresentation.free(ring, n), 1: FinModPresentation(ring, n2, b2)}, {0: A})
    for deg, vs in ((0, vectors), (1, [v[:n2] + [0] * (n2 - len(v[:n2])) for v in vectors])):
        H, ref = homology_subquot(C, deg), reference_homology_subquot(C, deg)
        assert (H.ambient, H.z) == (ref.ambient, ref.z)
        order = ["invariants", "coords", "relations", "b"]
        assert _read_subquot(H, vs, order) == _read_subquot(ref, vs, order)


# ---------------------------------------------------------------------------
# presentations, homology, invariant factors

def test_homology_multiplication_by_p():
    # 0 -> Z/p^2 --p--> Z/p^2 -> 0, at the target: cokernel is Z/p
    R = ZmodRing(3, 2)
    M = FinModPresentation.free(R, 1)
    C = FinComplex(R, {0: M, 1: M}, {0: [[3]]})
    assert homology(C, 1) == InvariantFactors((3,))
    assert homology(C, 0) == InvariantFactors((3,))  # kernel of *p on Z/9


def test_homology_zero_differential_over_Z():
    M = FinModPresentation.free(ZZ, 1)
    C = FinComplex(ZZ, {0: M, 1: M}, {0: [[0]]})
    assert homology(C, 0) == InvariantFactors((), 1)
    assert homology(C, 1) == InvariantFactors((), 1)


def test_noncomplex_rejected():
    R = ZmodRing(2, 3)
    M = FinModPresentation.free(R, 1)
    with pytest.raises(NonComplex):
        FinComplex(R, {0: M, 1: M, 2: M}, {0: [[1]], 1: [[1]]})


def brute_homology_order(R, d0, d1, ranks):
    """|ker d1| / |im d0| over Z/p^N by enumeration (free modules)."""
    k0, k1, k2 = ranks
    ker = [
        x
        for x in itertools.product(range(R.q), repeat=k1)
        if not any(sum(c * d1[i][j] for i, c in enumerate(x)) % R.q for j in range(k2))
    ]
    img = {
        tuple(sum(c * d0[i][j] for i, c in enumerate(x)) % R.q for j in range(k1))
        for x in itertools.product(range(R.q), repeat=k0)
    }
    return len(ker) // len(img)


def test_homology_matches_exhaustive_count():
    # random 3-term complexes over Z/27 with rank <= 3
    R = ZmodRing(3, 3)
    rng = random.Random(424242)
    found = 0
    while found < 8:
        k0, k1, k2 = rng.randint(1, 2), rng.randint(1, 3), rng.randint(1, 2)
        d0 = [[rng.randrange(27) for _ in range(k1)] for _ in range(k0)]
        d1 = [[rng.randrange(27) for _ in range(k2)] for _ in range(k1)]
        comp = [
            [sum(d0[i][l] * d1[l][j] for l in range(k1)) % 27 for j in range(k2)]
            for i in range(k0)
        ]
        if any(any(row) for row in comp):
            continue
        found += 1
        C = FinComplex(
            R,
            {0: FinModPresentation.free(R, k0), 1: FinModPresentation.free(R, k1), 2: FinModPresentation.free(R, k2)},
            {0: d0, 1: d1},
        )
        inv = homology(C, 1)
        assert inv.order() == brute_homology_order(R, d0, d1, (k0, k1, k2))


def test_homology_of_split_complex_is_zero():
    # a complex with a null homotopy: 0 -> M --id--> M -> 0
    R = ZmodRing(2, 3)
    M = FinModPresentation.free(R, 2)
    C = FinComplex(R, {0: M, 1: M}, {0: [[1, 0], [0, 1]]})
    assert homology(C, 0).is_trivial()
    assert homology(C, 1).is_trivial()


def test_invariants_isomorphic():
    a = InvariantFactors((2,))
    assert invariants_isomorphic(a, InvariantFactors((2,)))
    assert not invariants_isomorphic(InvariantFactors((4,)), InvariantFactors((2, 2)))


def test_invariants_presentation_independent():
    # Z/4 (+) Z/2 presented two ways
    R = ZmodRing(2, 3)
    A = FinModPresentation(R, 2, [[4, 0], [0, 2]])
    # mixed generators: relations in another basis
    B = FinModPresentation(R, 2, [[4, 4], [4, 6]])
    assert A.invariants() == B.invariants() == InvariantFactors((2, 4))


def test_invariants_stable_under_unimodular_row_mix():
    R = ZmodRing(2, 4)
    rng = random.Random(11)
    for _ in range(100):
        k = rng.randint(1, 3)
        m = rng.randint(1, 3)
        M = [[rng.randrange(16) for _ in range(k)] for _ in range(m)]
        U = [[0] * m for _ in range(m)]
        # random invertible U: unit lower triangular times permutation
        perm = list(range(m))
        rng.shuffle(perm)
        for i in range(m):
            U[i][perm[i]] = rng.choice([1, 3, 5, 7, 9, 11, 13, 15])
        UM = [[sum(U[i][l] * M[l][j] for l in range(m)) % 16 for j in range(k)] for i in range(m)]
        assert quotient_invariants(R, M, k) == quotient_invariants(R, UM, k)


def test_gf_quotient_invariants_are_abelian_groups():
    K = GF(2, 2)
    # F_4^2 / line: one F_4 left = (Z/2)^2 as an abelian group
    assert quotient_invariants(K, [[1, 0]], 2) == InvariantFactors((2, 2))


def test_json_form():
    inv = InvariantFactors((3, 9))
    assert inv.to_json(p=3) == {"torsion": ["3^1", "3^2"], "free_rank": 0}
