"""The forms layer in drwitt.rings: d, the Frobenius image and quotient presentations of monomial forms."""

from hypothesis import given, settings
from hypothesis import strategies as st

from drwitt.derham import DeRhamComplex
from drwitt.rings import MonomialAlgebra, parse_ringspec

from helpers import reference_component, reference_reduce, reference_weight_data

QUOTIENTS = (
    [f"p={p}\nkind=quotient\nvars=x:2, y:3\nrels=y^2 - x^3" for p in (2, 3, 5)]
    + [f"p={p}\nkind=quotient\nvars=x:1\nrels=x^2" for p in (2, 3, 5)]
    + [f"p={p}\nkind=quotient\nvars=x:2, y:3\nrels=y^2 - t*x^3\nf=2" for p in (2, 3)]
    + [f"p={p}\nkind=quotient\nvars=x:1, y:1, z:1\nrels=x*y - z^2" for p in (2, 3)]
)


@settings(max_examples=200, deadline=None)
@given(text=st.sampled_from(QUOTIENTS), n=st.integers(0, 2), w=st.integers(0, 12), data=st.data())
def test_component_and_reduce_match_the_reference_presentations(text, n, w, data):
    C = DeRhamComplex(parse_ringspec(text), 1, 0)
    A = C.algebra
    # d(I Omega^(n-1)) and dI ^ Omega^(n-1) span the same rows modulo I Omega^n
    assert A.component(n, w) == reference_component(C, n, w)
    basis, _ = reference_weight_data(A, w)
    assert A.monomials(w) == list(basis)
    # an element spread over weights w and w + 1, in raw monomials
    monos = A._raw_monomials(w) + A._raw_monomials(w + 1)
    codes = data.draw(st.lists(st.integers(0, A.K.q - 1), min_size=len(monos), max_size=len(monos)))
    el = {m: c for m, c in zip(monos, codes) if c}
    assert A.reduce(el) == reference_reduce(A, el)


def test_component_on_the_cusp_kills_x2_dx():
    # p = 2: d(y^2 - x^3) = x^2 dx, so weight 6 keeps only y dy
    A = MonomialAlgebra(parse_ringspec("p=2\nkind=quotient\nvars=x:2, y:3\nrels=y^2 - x^3"))
    raw, basis, _ = A.component(1, 6)
    assert [raw[k] for k in basis] == [((0, 1), (1,))]


def _collect(terms):
    out = {}
    for form, c in terms:
        out[form] = out.get(form, 0) + c
    return {form: c for form, c in out.items() if c}


FORMS = st.one_of(
    # poly forms in up to three variables
    st.integers(1, 3).flatmap(
        lambda k: st.tuples(
            st.lists(st.integers(0, 6), min_size=k, max_size=k).map(tuple),
            st.sets(st.integers(0, k - 1)).map(lambda J: tuple(sorted(J))),
            st.just(f"p=3\nkind=poly\nvars={', '.join(f'x{j}:1' for j in range(k))}"),
        )
    ),
    # laurent forms in one variable
    st.tuples(
        st.integers(-6, 6).map(lambda e: (e,)),
        st.sampled_from([(), (0,)]),
        st.just("p=3\nkind=laurent\nvars=x:1"),
    ),
)


@settings(max_examples=300, deadline=None)
@given(case=FORMS, p=st.sampled_from([2, 3, 5]))
def test_d_form_squares_to_zero_and_commutes_with_frobenius(case, p):
    m, J, text = case
    A = MonomialAlgebra(parse_ringspec(text.replace("p=3", f"p={p}")))
    form = (m, J)
    # d o d cancels over the integers
    assert _collect((g, c * e) for f, c in A.d_form(form) for g, e in A.d_form(f)) == {}
    # dF = pFd on the lift, term by term
    lhs = _collect(A.d_form(A.frobenius_form(form)))
    rhs = _collect((A.frobenius_form(f), p * c) for f, c in A.d_form(form))
    assert lhs == rhs


def test_d_form_and_frobenius_form_examples():
    A = MonomialAlgebra(parse_ringspec("p=3\nkind=poly\nvars=x:1, y:1"))
    # d(x^2 y^3) = 2 x y^3 dx + 3 x^2 y^2 dy
    assert A.d_form(((2, 3), ())) == [(((1, 3), (0,)), 2), (((2, 2), (1,)), 3)]
    # d(x y dy) = y dx ^ dy; d(x y dx) = x dy ^ dx = -x dx ^ dy
    assert A.d_form(((1, 1), (1,))) == [(((0, 1), (0, 1)), 1)]
    assert A.d_form(((1, 1), (0,))) == [(((1, 0), (0, 1)), -1)]
    # F(x y^2 dy) = x^3 y^6 y^2 dy
    assert A.frobenius_form(((1, 2), (1,))) == ((3, 8), (1,))
