"""The enumeration layer in drwitt.rings: exponents, forms, weight windows, base specs, memo, primality, records."""

import math
import random
import time
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drwitt.errors import NonQuasiHomogeneous, ParseError, UnsupportedKind
from drwitt.exactcore import InvariantFactors
from drwitt.kpredict import KTableRow
from drwitt import rings
from drwitt.rings import (
    PRIME_BOUND,
    MonomialAlgebra,
    RingSpec,
    exponent_tries,
    exponents,
    is_prime,
    memo,
    parse_ringspec,
    sign_insert,
    window,
)
from drwitt.synlog import SyntomicComplex

from helpers import reference_weight_window


def spec(text):
    return parse_ringspec(text)


def _brute_exponents(weights, target):
    """Every tuple over a box wide enough to hold all solutions, in lex order.

    A lone exponent may be negative (the Laurent case); with two or more
    weights every exponent is >= 0.
    """
    bound = abs(target)
    lo = -bound if len(weights) == 1 else 0
    box = [range(lo, bound + 1) for _ in weights]
    return [e for e in product(*box) if sum(a * w for a, w in zip(e, weights)) == target]


@settings(max_examples=300, deadline=None)
@given(
    weights=st.lists(st.integers(1, 4), min_size=0, max_size=3).map(tuple),
    target=st.integers(-6, 20),
)
def test_exponents_match_bruteforce_in_order(weights, target):
    # list equality checks the set of tuples and their lexicographic order
    assert exponents(weights, target) == _brute_exponents(weights, target)


@settings(max_examples=300, deadline=None)
@given(
    weights=st.lists(st.integers(1, 4), min_size=1, max_size=4).map(tuple),
    target=st.integers(-6, 20),
)
def test_exponent_tries_counts_the_divmods_of_exponents(weights, target):
    # the de Rham walk budget counts what exponents tries: one divmod per
    # tuple of the other exponents, a solution or not
    calls = []

    def counting_divmod(a, b):
        calls.append(a)
        return divmod(a, b)

    rings.divmod = counting_divmod
    try:
        listed = exponents(weights, target)
    finally:
        del rings.divmod
    assert exponent_tries(weights, target) == len(calls) >= len(listed)
    if weights[-1] == 1:
        assert exponent_tries(weights, target) == len(listed)


def test_exponents_one_variable_negative_target():
    assert exponents((2,), -6) == [(-3,)]
    assert exponents((4,), -6) == []
    assert exponents((1, 1), -1) == []
    assert exponents((), 0) == [()]
    assert exponents((), -2) == []


@settings(max_examples=200, deadline=None)
@given(
    cap=st.fractions(min_value=-3, max_value=8, max_denominator=9),
    den=st.sampled_from([1, 2, 3, 4, 9, 25]),
    laurent=st.booleans(),
)
def test_weight_window_matches_stepping_loop(cap, den, laurent):
    # the numerator range is the listed window that it replaced, over den:
    # same weights and endpoints, len() is its length, and `in` holds
    # exactly at its numerators
    nums, ref = window(cap, den, laurent), reference_weight_window(cap, den, laurent)
    assert [Fraction(k, den) for k in nums] == ref
    assert all(type(k) is int for k in nums)
    assert len(nums) == len(ref)
    if ref:
        assert Fraction(nums[0], den) == ref[0] and Fraction(nums[-1], den) == ref[-1]
    listed = set(ref)
    for k in range(-9 * den - 2, 9 * den + 3):
        assert (k in nums) == (Fraction(k, den) in listed), k


def test_weight_window_endpoints_and_denominators():
    plain = window(2, 3, False)
    assert plain[0] == 0 and plain[-1] == 6 and len(plain) == 7
    assert [Fraction(k, 3).denominator for k in plain] == [1, 3, 3, 1, 3, 3, 1]
    laurent = window(2, 3, True)
    assert laurent[0] == -6 and laurent[-1] == 6 and len(laurent) == 13
    assert laurent[1] == -5
    assert window(Fraction(5, 2), 1, True) == range(-2, 3)
    assert window(4, 1, False) == range(0, 5)
    assert len(window(-1, 2, True)) == 0 and len(window(-1, 2, False)) == 0


def test_forms_pairs_and_quotient_uses_ambient_monomials():
    A = MonomialAlgebra(spec("p=3\nkind=poly\nvars=x:1, y:2"))
    assert A.forms(0, 2) == [((0, 1), ()), ((2, 0), ())]
    assert A.forms(1, 3) == [((0, 1), (0,)), ((2, 0), (0,)), ((1, 0), (1,))]
    assert A.forms(2, 3) == [((0, 0), (0, 1))]
    assert A.forms(3, 9) == [] and A.forms(-1, 0) == []
    assert A.forms(1, 3) is A.forms(1, Fraction(3))  # one cached list per (n, w)
    cusp = MonomialAlgebra(spec("p=2\nkind=quotient\nvars=x:2, y:3\nrels=y^2 - x^3"))
    assert [m for m, _ in cusp.forms(0, 6)] == [(0, 2), (3, 0)]
    lau = MonomialAlgebra(spec("p=3\nkind=laurent\nvars=x:2"))
    assert lau.forms(1, -2) == [((-2,), (0,))]
    assert lau.forms(0, 1) == []


def test_sign_insert():
    assert sign_insert(0, (1, 2)) == (1, (0, 1, 2))
    assert sign_insert(2, (0, 1)) == (1, (0, 1, 2))
    assert sign_insert(1, (0, 2)) == (-1, (0, 1, 2))
    assert sign_insert(1, (1,)) == (None, None)


def test_base_spec():
    perf = spec("p=3\nkind=perfection of poly\nvars=x:1\nf=2")
    base = perf.base()
    assert base.kind == "poly" and base.f == 2 and base.variables == ("x",)
    assert not base.is_perfection
    poly = spec("p=3\nkind=poly\nvars=x:1")
    assert poly.base() is poly
    assert spec("p=2\nkind=perfection of finite_field").base().kind == "finite_field"


def test_a_perfection_names_its_base_only_in_the_kind_line():
    # `base = poly` is not a second spelling of `kind = perfection of poly`
    with pytest.raises(ParseError, match="^perfection needs a base: `kind = perfection of poly` at line 2$"):
        parse_ringspec("p = 2\nkind = perfection\nbase = poly\nvars = x:1")


def test_memo_caches_per_instance():
    class Counter:
        def __init__(self):
            self.calls = 0

        @memo
        def square(self, x):
            self.calls += 1
            return x * x

    a, b = Counter(), Counter()
    assert [a.square(3), a.square(3), a.square(Fraction(3))] == [9, 9, 9]
    assert a.calls == 1  # equal keys hit, as Fraction(3) == 3
    assert b.square(3) == 9 and b.calls == 1  # no sharing between instances
    assert a.square(4) == 16 and a.calls == 2


# ---------------------------------------------------------------------------
# primality


def _trial_division(n):
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def test_is_prime_agrees_with_trial_division_below_ten_thousand():
    assert [n for n in range(10**4) if is_prime(n)] == [n for n in range(10**4) if _trial_division(n)]


def test_is_prime_rejects_pseudoprimes():
    # 2047 is a strong pseudoprime to base 2; 561 and 41041 are Carmichael numbers
    for n in (2047, 561, 41041):
        assert not is_prime(n)


def test_large_prime_parses_in_under_a_second():
    t0 = time.perf_counter()
    s = parse_ringspec(f"p = {10**24 + 7}\nkind = finite_field")
    assert s.p == 10**24 + 7
    assert time.perf_counter() - t0 < 1.0


def test_primality_at_the_bound_is_refused_not_guessed():
    assert is_prime(PRIME_BOUND - 1) is False  # even, and below the bound
    with pytest.raises(ParseError):
        is_prime(PRIME_BOUND)
    with pytest.raises(ParseError):
        parse_ringspec(f"p = {PRIME_BOUND + 2}\nkind = finite_field")


def test_is_prime_against_sympy_on_60_to_80_bit_numbers():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(20240607)
    for _ in range(300):
        n = rng.getrandbits(rng.randint(60, 80))
        assert is_prime(n) == sympy.isprime(n), n
        q = sympy.nextprime(n)
        assert is_prime(q), q


# ---------------------------------------------------------------------------
# records: immutable, hashed and compared as the tuple of their fields

FP = RingSpec(3, "finite_field")
FP_REPR = "RingSpec(p=3, kind='finite_field', variables=(), weights=(), relations=(), f=1, base_kind=None)"
RECORDS = [
    (
        RingSpec(2, "quotient", ("x", "y"), (2, 3), (((1, (0, 2)), (-1, (3, 0))),)),
        RingSpec(2, "quotient", ("x", "y"), (2, 3), (((1, (0, 2)),),)),
        "RingSpec(p=2, kind='quotient', variables=('x', 'y'), weights=(2, 3), "
        "relations=(((1, (0, 2)), (-1, (3, 0))),), f=1, base_kind=None)",
    ),
    (
        InvariantFactors((2, 4), 1),
        InvariantFactors((2, 4)),
        "InvariantFactors(torsion=(2, 4), free_rank=1)",
    ),
    (
        SyntomicComplex(FP, 1, 2, {0: InvariantFactors((9,))}, {}, 1, 4),
        SyntomicComplex(FP, 1, 2, {}, {}, 1, 4),
        f"SyntomicComplex(spec={FP_REPR}, twist=1, modulus_exp=2, "
        "cohomology={0: InvariantFactors(torsion=(9,), free_rank=0)}, weight_zero={}, orbit_count=1, R=4)",
    ),
    (
        KTableRow(1, "Z", InvariantFactors((), 1), "quillen"),
        KTableRow(1, "Z", InvariantFactors((), 1), "quillen", p_torsion_free=True),
        "KTableRow(degree=1, modulus='Z', group=InvariantFactors(torsion=(), free_rank=1), "
        "provenance='quillen', caveat=None, p_torsion_free=None)",
    ),
]


@pytest.mark.parametrize("record, other, text", RECORDS, ids=[type(r).__name__ for r, _, _ in RECORDS])
def test_records_compare_hash_and_print_as_their_fields(record, other, text):
    fields = tuple(getattr(record, name) for name in record._fields)
    twin = type(record)(*fields)
    assert twin == record and twin is not record
    assert record != other
    assert repr(record) == text
    if isinstance(record, SyntomicComplex):
        # dict fields: unhashable, like the tuple of its fields
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(fields) == hash(twin)
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)
    with pytest.raises(AttributeError):
        record.extra = None


@pytest.mark.parametrize(
    "kwargs, error",
    [
        (dict(p=2, kind="torus"), UnsupportedKind),
        (dict(p=2, kind="perfection", variables=("x",), weights=(1,), base_kind="quotient"), UnsupportedKind),
        (dict(p=2, kind="laurent", variables=("x", "y"), weights=(1, 1)), UnsupportedKind),
        (dict(p=2, kind="perfection", variables=("x", "y"), weights=(1, 1), base_kind="laurent"), UnsupportedKind),
        (dict(p=2, kind="poly", variables=("x",), weights=(0,)), NonQuasiHomogeneous),
        (dict(p=2, kind="quotient", variables=("x", "y"), weights=(2, 3), relations=(((1, (0, 2)), (-1, (1, 0))),)),
         NonQuasiHomogeneous),
        (dict(p=2, kind="finite_field", f=0), UnsupportedKind),
        (dict(p=3, kind="poly", variables=("x",), weights=(1,), f=-1), UnsupportedKind),
        (dict(p=2, kind="finite_field", f="2"), UnsupportedKind),
        (dict(p=2, kind="quotient", variables=("x",), weights=(1,), relations=((),)), UnsupportedKind),
        (dict(p=3, kind="quotient", variables=("x", "y"), weights=(2, 3), relations=(((1, (0, 2)),), ())),
         UnsupportedKind),
    ],
)
def test_ring_spec_validates_without_the_parser(kwargs, error):
    with pytest.raises(error):
        RingSpec(**kwargs)


@pytest.mark.parametrize("text", ["0", "-1"])
def test_parser_reports_a_bad_field_degree_with_its_line(text):
    # the parser checks f before RingSpec does, so the error keeps its line
    with pytest.raises(ParseError, match="^f must be >= 1 at line 3$"):
        parse_ringspec(f"p = 2\nkind = finite_field\nf = {text}")
