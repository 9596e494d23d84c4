"""Arithmetic in GF(p^f) and its unramified p-adic lift.

Field elements are encoded as ints in [0, p^f): the base-p digits of the
code are the coefficients of the residue polynomial in t, reduced modulo
a fixed monic irreducible m(t) of degree f (the lexicographically least
one, so encodings are deterministic).

The lift ring is Z[t]/(m(t), p^B), the unramified extension of Z/p^B
with residue field GF(p^f); its Frobenius is the unique ring
automorphism congruent to t |-> t^p mod p, produced by Hensel lifting a
root of m.  Lift elements are coefficient tuples of length f.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import compress, islice


def _poly_mulmod(a, b, mod, q):
    """Product of coefficient lists a, b modulo (mod, q); mod is monic."""
    f = len(mod) - 1
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % q
    for i in range(len(out) - 1, f - 1, -1):
        c = out[i]
        if c:
            for j in range(f + 1):
                out[i - f + j] = (out[i - f + j] - c * mod[j]) % q
    return [x % q for x in out[:f]]


def _poly_eval(coeffs, x, mod, q):
    """The polynomial coeffs (constant term first) at x, modulo (mod, q), by Horner's rule."""
    acc = [0] * (len(mod) - 1)
    for c in reversed(coeffs):
        acc = _poly_mulmod(acc, x, mod, q)
        acc[0] = (acc[0] + c) % q
    return acc


def _digits(code, p, n):
    """The n base-p digits of code, least significant first."""
    out = []
    for _ in range(n):
        code, d = divmod(code, p)
        out.append(d)
    return out


def power(mul, a, n):
    """a^n for n >= 1 under `mul`, by binary powering; no square past the top bit."""
    if n < 1:
        raise ValueError("power needs n >= 1")
    result = None
    while True:
        if n & 1:
            result = a if result is None else mul(result, a)
        n >>= 1
        if not n:
            return result
        a = mul(a, a)


def _is_irreducible(poly, p):
    """Trial division by all monic polynomials of degree <= deg/2."""
    f = len(poly) - 1
    if f == 1:
        return True
    for d in range(1, f // 2 + 1):
        for code in range(p**d):
            div = _digits(code, p, d) + [1]
            # long division of poly by div
            rem = list(poly)
            for i in range(f, d - 1, -1):
                c = rem[i]
                if c:
                    for j in range(d + 1):
                        rem[i - d + j] = (rem[i - d + j] - c * div[j]) % p
            if not any(rem[:d]):
                return False
    return True


@lru_cache(maxsize=None)
def conway_like_modulus(p: int, f: int) -> tuple[int, ...]:
    """Lexicographically least monic irreducible of degree f over F_p."""
    if f == 1:
        return (0, 1)
    for code in range(p**f):
        poly = _digits(code, p, f) + [1]
        if poly[0] != 0 and _is_irreducible(poly, p):
            return tuple(poly)
    raise RuntimeError("no irreducible polynomial found")


class GF:
    """GF(p^f); elements are ints in [0, q)."""

    def __init__(self, p: int, f: int = 1):
        self.p = p
        self.f = f
        self.q = p**f
        self.modulus = conway_like_modulus(p, f)

    def __repr__(self):
        return f"GF({self.p}^{self.f})" if self.f > 1 else f"GF({self.p})"

    def __eq__(self, other):
        return isinstance(other, GF) and (self.p, self.f) == (other.p, other.f)

    def __hash__(self):
        return hash(("GF", self.p, self.f))

    def _decode(self, a):
        return _digits(a, self.p, self.f)

    def _encode(self, coeffs):
        a = 0
        for c in reversed(coeffs):
            a = a * self.p + (c % self.p)
        return a

    def add(self, a, b):
        if self.f == 1:
            return (a + b) % self.p
        return self._encode([x + y for x, y in zip(self._decode(a), self._decode(b))])

    def sub(self, a, b):
        if self.f == 1:
            return (a - b) % self.p
        return self._encode([x - y for x, y in zip(self._decode(a), self._decode(b))])

    def neg(self, a):
        if self.f == 1:
            return -a % self.p
        return self._encode([-x for x in self._decode(a)])

    def mul(self, a, b):
        if self.f == 1:
            return (a * b) % self.p
        prod = _poly_mulmod(self._decode(a), self._decode(b), list(self.modulus), self.p)
        return self._encode(prod)

    def sub_mul(self, a, c, b):
        """a - c*b, the update of row elimination."""
        if self.f == 1:
            return (a - c * b) % self.p
        return self.sub(a, self.mul(c, b))

    def power(self, a, n):
        return power(self.mul, a, n) if n else 1

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in GF")
        if self.f == 1:
            return pow(a, -1, self.p)
        return self.power(a, self.q - 2)

    def frob(self, a):
        """x -> x^p, the absolute Frobenius."""
        return self.power(a, self.p)

    def units(self):
        return range(1, self.q)


def gf_rref(K: GF, rows: list[dict]) -> list[dict]:
    """The canonical RREF over K of sparse rows {col: nonzero coef}, as
    dicts in pivot order.  Each row is reduced by the pivot of its least
    column until it is zero or opens a new pivot, which only touches
    columns to the right; back-substitution then clears pivot columns,
    highest first.  The input rows are not modified."""
    pivots = {}
    for row in rows:
        row = dict(row)
        while row:
            col = min(row)
            if col not in pivots:
                if row[col] != 1:
                    inv = K.inv(row[col])
                    row = {j: K.mul(inv, x) for j, x in row.items()}
                pivots[col] = row
                break
            subtract_multiple(K, row, row[col], pivots[col])
    for col in sorted(pivots, reverse=True):
        row = pivots[col]
        for j in [j for j in row if j != col and j in pivots]:
            subtract_multiple(K, row, row[j], pivots[j])
    return [pivots[col] for col in sorted(pivots)]


def subtract_multiple(K, row, c, other):
    """row -= c * other on sparse rows, in place; entries that reach 0 are dropped."""
    for j, y in other.items():
        x = K.sub_mul(row.get(j, 0), c, y)
        if x:
            row[j] = x
        else:
            del row[j]


def gf_reduce_vector(K: GF, H: list[list[int]], v: list[int]) -> list[int]:
    """The residue of v modulo the row span of H, an RREF over K.  The
    pivots lie left to right, so one column pointer walks them all; each
    pivot row that v meets updates only its nonzero entries."""
    v = list(v)
    col = 0
    for row in H:
        while not row[col]:
            col += 1
        c = v[col]
        if c:
            for j in compress(range(col, len(row)), islice(row, col, None)):
                v[j] = K.sub_mul(v[j], c, row[j])
    return v


class Zq:
    """Z[t]/(m(t), p^B): the unramified lift of GF(p^f) at precision B.

    Elements are tuples of f ints in [0, p^B).  ``frobenius`` applies the
    canonical lift of x -> x^p, computed once by Hensel's lemma.
    """

    def __init__(self, p: int, f: int, B: int):
        self.p = p
        self.f = f
        self.B = B
        self.q = p**B
        self.residue = GF(p, f)
        self.modulus = [c % self.q for c in self.residue.modulus]
        self._frob_matrix = self._lift_frobenius()

    def zero(self):
        return (0,) * self.f

    def one(self):
        return (1,) + (0,) * (self.f - 1)

    def add(self, a, b):
        return tuple((x + y) % self.q for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple((x - y) % self.q for x, y in zip(a, b))

    def scal(self, c, a):
        return tuple((c * x) % self.q for x in a)

    def mul(self, a, b):
        return tuple(_poly_mulmod(a, b, self.modulus, self.q))

    def _lift_frobenius(self):
        """sigma on the basis t^i: row i is tau^i, tau the root of m with tau == t^p mod p.

        Newton iteration with doubling precision (von zur Gathen and
        Gerhard, Modern Computer Algebra, 9.2).  Each round starts with
        tau a root mod p^k and y = 1/m'(tau) mod p^k; tau - m(tau) y is a
        root mod p^2k, and y (2 - m'(tau) y) at the new tau inverts m' mod
        p^2k.  So only the last round works modulo p^B.
        """
        if self.f == 1:
            return [[1]]
        p, mod, K = self.p, self.modulus, self.residue
        mprime = [i * mod[i] for i in range(1, self.f + 1)]
        tau = K._decode(K.power(p, p))  # the code p is t
        y = K._decode(K.inv(K._encode(_poly_eval(mprime, tau, mod, p))))
        k = 1
        while k < self.B:
            k = min(2 * k, self.B)
            q = p**k
            corr = _poly_mulmod(_poly_eval(mod, tau, mod, q), y, mod, q)
            tau = [(x - c) % q for x, c in zip(tau, corr)]
            if k < self.B:
                e = _poly_mulmod(_poly_eval(mprime, tau, mod, q), y, mod, q)
                y = _poly_mulmod(y, [(2 - e[0]) % q] + [-x % q for x in e[1:]], mod, q)
        if any(_poly_eval(mod, tau, mod, self.q)):
            raise AssertionError(f"Hensel lift of the Frobenius root fails mod {p}^{self.B}")
        rows = [list(self.one())]
        for _ in range(self.f - 1):
            rows.append(_poly_mulmod(rows[-1], tau, mod, self.q))
        return rows

    def frobenius(self, a):
        out = self.zero()
        for c, row in zip(a, self._frob_matrix):
            if c:
                out = self.add(out, self.scal(c, tuple(row)))
        return out

    def frobenius_inverse(self, a):
        x = a
        for _ in range(self.f - 1):
            x = self.frobenius(x)
        return x

    def teichmuller(self, c):
        """Multiplicative lift of a residue-field element (code c)."""
        K = self.residue
        x = tuple(v % self.q for v in K._decode(c))
        # iterate x -> x^q until stable; converges since x^q == x mod p
        for _ in range(self.B + 1):
            y = power(self.mul, x, K.q)
            if y == x:
                break
            x = y
        return x

    def reduce_residue(self, a):
        return self.residue._encode([x % self.p for x in a])
