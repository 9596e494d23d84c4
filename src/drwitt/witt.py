"""p-typical Witt vectors of finite length over the curated rings.

Ring operations are determined by the ghost maps
    w_m(a) = sum_{i<=m} p^i a_i^{p^(m-i)}:
addition and multiplication are the unique polynomial laws making every
w_m a ring homomorphism.  Arithmetic here evaluates those laws by the
classical lift-and-solve recipe.  Each `WittRing` owns one p-torsion-free
cover of its coefficient ring, and `add`, `mul`, `neg` and the Frobenius
of a torsion-free ring are one round trip through it: lift the
components, take ghost vectors, combine them, solve the triangular
system back, and reduce.  Integrality of every division is guaranteed by
the universal laws and asserted at runtime.  Over a char-p ring the
Frobenius is the componentwise p-th power.
"""

from __future__ import annotations

from copy import copy

from .errors import InexactDivision, LengthMismatch, LengthUnderflow, TorsionCoefficients
from .exactcore import Zq, power
from .rings import MonomialAlgebra, wkey


# ---------------------------------------------------------------------------
# integer polynomials: the arithmetic of IntegerMonomialAlgebra

def _poly_add(a, b):
    out = dict(a)
    for k, c in b.items():
        s = out.get(k, 0) + c
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def _poly_scale(c, a):
    return {k: c * v for k, v in a.items()} if c else {}


def _poly_mul(a, b):
    out = {}
    for k1, c1 in a.items():
        for k2, c2 in b.items():
            k = tuple(x + y for x, y in zip(k1, k2))
            s = out.get(k, 0) + c1 * c2
            if s:
                out[k] = s
            else:
                out.pop(k, None)
    return out


def _poly_divexact(a, d):
    out = {}
    for k, c in a.items():
        if c % d:
            raise InexactDivision("universal Witt law failed integrality")
        out[k] = c // d
    return out


# ---------------------------------------------------------------------------
# coefficient-ring covers

class IntegerMonomialAlgebra:
    """Z[x_1..x_k] (k may be 0): the torsion-free test rings.

    It is its own cover, so `lift` and `reduce` are the identity.
    """

    def __init__(self, nvars=0):
        self.nvars = nvars

    def zero(self):
        return {}

    def one(self):
        return {(0,) * self.nvars: 1}

    def constant(self, c):
        return {(0,) * self.nvars: c} if c else {}

    def add(self, a, b):
        return _poly_add(a, b)

    def neg(self, a):
        return _poly_scale(-1, a)

    def mul(self, a, b):
        return _poly_mul(a, b)

    def scale_int(self, c, a):
        return _poly_scale(c, a)

    def lift(self, el):
        return el

    def reduce(self, el):
        return el

    def divexact(self, a, d):
        return _poly_divexact(a, d)


class _GFCover:
    """Torsion-free cover of a char-p monomial algebra.

    Coefficients are unramified-lift tuples (Zq; 1-tuples when f = 1);
    monomial exponents are untouched.  Division by p^k is exact
    coefficientwise, with the universal laws guaranteeing the
    divisibility (asserted).
    """

    def __init__(self, algebra: MonomialAlgebra, precision):
        self.algebra = algebra
        self.K = algebra.K
        self.W = Zq(algebra.spec.p, algebra.spec.f, precision)

    def lift(self, el):
        return {exps: tuple(self.K._decode(code)) for exps, code in el.items()}

    def reduce(self, cov):
        out = {}
        for exps, c in cov.items():
            code = self.W.reduce_residue(c)
            if code:
                out[exps] = code
        return self.algebra.reduce(out)

    # element ops
    def _accumulate(self, out, k, c):
        s = self.W.add(out.get(k, self.W.zero()), c)
        if any(s):
            out[k] = s
        else:
            out.pop(k, None)

    def add(self, a, b):
        out = dict(a)
        for k, c in b.items():
            self._accumulate(out, k, c)
        return out

    def scale_int(self, c, a):
        out = {k: self.W.scal(c, v) for k, v in a.items()}
        return {k: v for k, v in out.items() if any(v)}

    def mul(self, a, b):
        out = {}
        for k1, c1 in a.items():
            for k2, c2 in b.items():
                k = tuple(wkey(x + y) for x, y in zip(k1, k2))
                self._accumulate(out, k, self.W.mul(c1, c2))
        return out

    def divexact(self, a, d):
        if any(x % d for c in a.values() for x in c):
            raise InexactDivision("cover coefficient not divisible")
        return {k: tuple(x // d for x in c) for k, c in a.items()}


# ---------------------------------------------------------------------------
# Witt rings and vectors

class WittRing:
    """W_r(A) for A a curated char-p ring or a torsion-free test ring.

    The ring owns one torsion-free cover of A (A itself when A is
    torsion-free), and every ghost-law operation is one round trip
    through it: lift, ghost components, combine, solve back, reduce.
    """

    def __init__(self, algebra, length: int, p: int | None = None):
        if length < 1:
            raise LengthUnderflow("Witt length must be >= 1")
        self.algebra = algebra
        self.length = length
        if isinstance(algebra, MonomialAlgebra):
            self.p = algebra.spec.p
            self.char_p = True
            self.cover = _GFCover(algebra, precision=length + 2)
        else:
            if p is None:
                raise ValueError("torsion-free coefficient rings need an explicit p")
            self.p = p
            self.char_p = False
            self.cover = algebra

    def __eq__(self, other):
        return (
            isinstance(other, WittRing)
            and self.length == other.length
            and self.p == other.p
            and self.algebra is other.algebra
        )

    def __call__(self, components):
        comps = tuple(components)
        if len(comps) != self.length:
            raise LengthMismatch(f"expected {self.length} components, got {len(comps)}")
        return WittVector(self, comps)

    def zero(self):
        return self(tuple(self.algebra.zero() for _ in range(self.length)))

    def one(self):
        return self(
            (self.algebra.one(),) + tuple(self.algebra.zero() for _ in range(self.length - 1))
        )

    def teichmuller(self, x):
        if isinstance(x, int):
            x = self.algebra.constant(x)
        return self((x,) + tuple(self.algebra.zero() for _ in range(self.length - 1)))

    def shorter(self):
        """W_{r-1}(A), sharing this ring's cover (its precision covers length r)."""
        if self.length < 2:
            raise LengthUnderflow("restriction below length 1")
        ring = copy(self)
        ring.length -= 1
        return ring

    def longer(self):
        return WittRing(self.algebra, self.length + 1, self.p)

    # -- the ghost round trip ---------------------------------------------

    def _ghosts(self, vec):
        cover, p = self.cover, self.p
        lifted = [cover.lift(c) for c in vec.components]
        out = []
        for m in range(len(lifted)):
            acc = {}
            for i in range(m + 1):
                if lifted[i]:
                    term = power(cover.mul, lifted[i], p ** (m - i))
                    acc = cover.add(acc, cover.scale_int(p**i, term))
            out.append(acc)
        return out

    def _from_ghosts(self, ghosts):
        """The Witt vector of length len(ghosts) (r or r - 1) with these ghost components."""
        cover, p = self.cover, self.p
        comps = []
        for m, acc in enumerate(ghosts):
            for i, c in enumerate(comps):
                if c:
                    term = power(cover.mul, c, p ** (m - i))
                    acc = cover.add(acc, cover.scale_int(-(p**i), term))
            comps.append(cover.divexact(acc, p**m))
        ring = self if len(ghosts) == self.length else self.shorter()
        return ring(tuple(cover.reduce(c) for c in comps))

    def _ghost_pairs(self, a, b):
        if not isinstance(b, WittVector) or b.ring.length != self.length or b.ring.p != self.p:
            raise LengthMismatch("Witt vectors have mismatched length or prime")
        return zip(self._ghosts(a), self._ghosts(b))

    def add(self, a, b):
        return self._from_ghosts([self.cover.add(x, y) for x, y in self._ghost_pairs(a, b)])

    def mul(self, a, b):
        return self._from_ghosts([self.cover.mul(x, y) for x, y in self._ghost_pairs(a, b)])

    def neg(self, a):
        return self._from_ghosts([self.cover.scale_int(-1, g) for g in self._ghosts(a)])

    def scalar(self, n):
        """The image of the integer n in W_r (binary addition chain)."""
        if n < 0:
            return self.neg(self.scalar(-n))
        return power(self.add, self.one(), n) if n else self.zero()


class WittVector:
    """A length-r Witt vector; immutable, compared componentwise."""

    __slots__ = ("ring", "components")

    def __init__(self, ring, components):
        self.ring = ring
        self.components = tuple(components)

    def __eq__(self, other):
        return (
            isinstance(other, WittVector)
            and self.ring == other.ring
            and self.components == other.components
        )

    def __hash__(self):
        return hash(tuple(tuple(sorted(c.items())) for c in self.components))

    def __repr__(self):
        alg = self.ring.algebra
        if isinstance(alg, MonomialAlgebra):
            return "(" + ", ".join(alg.format_element(c) for c in self.components) + ")"
        return "(" + ", ".join(str(c) for c in self.components) + ")"

    def __add__(self, other):
        return self.ring.add(self, other)

    def __mul__(self, other):
        return self.ring.mul(self, other)

    def __neg__(self):
        return self.ring.neg(self)

    def __sub__(self, other):
        return self + (-other)


# ---------------------------------------------------------------------------
# the structure maps

def witt_add(a: WittVector, b: WittVector) -> WittVector:
    return a.ring.add(a, b)


def witt_mul(a: WittVector, b: WittVector) -> WittVector:
    return a.ring.mul(a, b)


def witt_neg(a: WittVector) -> WittVector:
    return a.ring.neg(a)


def ghost(a: WittVector):
    """Ghost components; only over p-torsion-free coefficient rings."""
    ring = a.ring
    if ring.char_p:
        raise TorsionCoefficients("ghost requires a p-torsion-free coefficient ring")
    return ring._ghosts(a)


def frobenius(a: WittVector) -> WittVector:
    """F: W_r -> W_{r-1}.

    Over a char-p ring it is the componentwise p-th power; over a
    torsion-free ring it shifts the ghost components.
    """
    ring = a.ring
    if ring.length < 2:
        raise LengthUnderflow("Frobenius needs length >= 2")
    if ring.char_p:
        return ring.shorter()(tuple(ring.algebra.frobenius(c) for c in a.components[:-1]))
    # ghost component m of F(a) is ghost component m + 1 of a
    return ring._from_ghosts(ring._ghosts(a)[1:])


def verschiebung(a: WittVector) -> WittVector:
    """V: W_r -> W_{r+1}, (a_0..) -> (0, a_0..)."""
    ring = a.ring
    target = ring.longer()
    return target((ring.algebra.zero(),) + a.components)


def restriction(a: WittVector) -> WittVector:
    """R: W_r -> W_{r-1}, drop the last component."""
    ring = a.ring
    if ring.length < 2:
        raise LengthUnderflow("restriction needs length >= 2")
    return ring.shorter()(a.components[:-1])


# ---------------------------------------------------------------------------
# W_r(F_q) against the unramified lift

def witt_to_unramified(a: WittVector, W: Zq):
    """Sum p^s [a_s] in Z_q; the canonical iso W_r(F_q) = Z_q/p^r."""
    ring = a.ring
    acc = W.zero()
    for s, comp in enumerate(a.components):
        code = comp.get((), 0) if comp else 0
        t = W.teichmuller(code)
        for _ in range(s):
            t = W.frobenius_inverse(t)
        acc = W.add(acc, W.scal(ring.p**s, t))
    return tuple(x % (ring.p**ring.length) for x in acc)
