"""p-typical Witt vectors of finite length over the curated rings.

Ring operations are determined by the ghost maps
    w_m(a) = sum_{i<=m} p^i a_i^{p^(m-i)}:
addition and multiplication are the unique polynomial laws making every
w_m a ring homomorphism.  Arithmetic here evaluates those laws by the
classical lift-and-solve recipe: lift the components to a p-torsion-free
cover of the coefficient ring, combine ghost vectors, solve the
triangular system back, and reduce.  Integrality of every division is
guaranteed by the universal laws and asserted at runtime.

The symbolic laws themselves (`synthesize_law`) are produced by the same
recursion over Z[X_0..X_n, Y_0..Y_n]; they grow quickly with p and the
depth, so they serve as a cross-check oracle at small depth while the
evaluated route does the day-to-day arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .errors import (
    DepthCap,
    InexactDivision,
    LengthMismatch,
    LengthUnderflow,
    TorsionCoefficients,
)
from .exactcore import Zq
from .rings import MonomialAlgebra, wkey

DEFAULT_DEPTH_CAP = 5


# ---------------------------------------------------------------------------
# symbolic universal laws

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


def _poly_pow(a, n):
    if n < 1:
        raise ValueError("polynomial power needs n >= 1")
    result = None
    base = a
    while n:
        if n & 1:
            result = base if result is None else _poly_mul(result, base)
        base = _poly_mul(base, base)
        n >>= 1
    return result


def _poly_divexact(a, d):
    out = {}
    for k, c in a.items():
        if c % d:
            raise InexactDivision("universal Witt law failed integrality")
        out[k] = c // d
    return out


def _ghost_poly(p, m, nvars, offset):
    """w_m as a polynomial in variable block starting at `offset`."""
    out = {}
    for i in range(m + 1):
        k = [0] * nvars
        k[offset + i] = p ** (m - i)
        out[tuple(k)] = out.get(tuple(k), 0) + p**i
    return out


def _solve_ghost_system(p, n, ghost_targets, nvars):
    """Components c_0..c_n with w_m(c) = ghost_targets[m] for all m <= n."""
    comps = []
    for m in range(n + 1):
        acc = dict(ghost_targets[m])
        for i in range(m):
            acc = _poly_add(acc, _poly_scale(-(p**i), _poly_pow(comps[i], p ** (m - i))))
        comps.append(_poly_divexact(acc, p**m))
    return comps


class UniversalWittLaw:
    """Integer polynomial laws S_m, P_m, N_m for length-(n+1) Witt vectors.

    Variables are X_0..X_n, Y_0..Y_n (exponent tuples of length 2(n+1));
    negation uses the X block only.
    """

    def __init__(self, p, depth):
        self.p = p
        self.depth = depth
        nv = 2 * (depth + 1)
        gx = [_ghost_poly(p, m, nv, 0) for m in range(depth + 1)]
        gy = [_ghost_poly(p, m, nv, depth + 1) for m in range(depth + 1)]
        self.sum_polys = _solve_ghost_system(
            p, depth, [_poly_add(a, b) for a, b in zip(gx, gy)], nv
        )
        self.prod_polys = _solve_ghost_system(
            p, depth, [_poly_mul(a, b) for a, b in zip(gx, gy)], nv
        )
        self.neg_polys = _solve_ghost_system(p, depth, [_poly_scale(-1, g) for g in gx], nv)

    def evaluate(self, polys_index, xs, ys=None):
        """Evaluate S/P/N_m at integer arguments (oracle path)."""
        polys = [self.sum_polys, self.prod_polys, self.neg_polys][polys_index]
        args = list(xs) + list(ys if ys is not None else [0] * (self.depth + 1))
        out = []
        for poly in polys:
            total = 0
            for exps, c in poly.items():
                term = c
                for a, e in zip(args, exps):
                    if e:
                        term *= a**e
                total += term
            out.append(total)
        return out


@lru_cache(maxsize=None)
def synthesize_law(p: int, depth: int, cap: int = DEFAULT_DEPTH_CAP) -> UniversalWittLaw:
    """Cached construction of the universal laws; guarded by the depth cap."""
    if depth > cap:
        raise DepthCap(f"law depth {depth} exceeds cap {cap}")
    return UniversalWittLaw(p, depth)


# ---------------------------------------------------------------------------
# coefficient-ring covers

class IntegerMonomialAlgebra:
    """Z[x_1..x_k] (k may be 0) with weights: the torsion-free test rings."""

    char_p = False

    def __init__(self, nvars=0, weights=None, names=None):
        self.nvars = nvars
        self.weights = tuple(weights or (1,) * nvars)
        self.names = tuple(names or tuple(f"x{i}" for i in range(nvars)))

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

    def power(self, a, n):
        return _poly_pow(a, n) if a else ({(0,) * self.nvars: 1} if n == 0 else {})

    def divexact(self, a, d):
        return _poly_divexact(a, d)


class _GFCover:
    """Torsion-free cover of a char-p monomial algebra.

    Coefficients are plain ints when f = 1 and unramified-lift tuples
    (Zq) when f > 1; monomial exponents are untouched.  Division by p^k
    is exact coefficientwise, with the universal laws guaranteeing the
    divisibility (asserted).
    """

    def __init__(self, algebra: MonomialAlgebra, precision):
        self.algebra = algebra
        self.K = algebra.K
        self.f = algebra.spec.f
        self.p = algebra.spec.p
        self.W = Zq(self.p, self.f, precision) if self.f > 1 else None
        self.q = self.p**precision

    # coefficient helpers
    def _cadd(self, a, b):
        return (a + b) % self.q if self.f == 1 else self.W.add(a, b)

    def _cmul(self, a, b):
        return (a * b) % self.q if self.f == 1 else self.W.mul(a, b)

    def _cscale(self, c, a):
        return (c * a) % self.q if self.f == 1 else self.W.scal(c, a)

    def _czero(self, a):
        return a == 0 if self.f == 1 else not any(a)

    def _cdiv(self, a, d):
        if self.f == 1:
            return self._int_div(a % self.q, d)
        return tuple(self._int_div(x, d) for x in a)

    def _int_div(self, x, d):
        if x % d:
            raise InexactDivision("cover coefficient not divisible")
        return x // d

    def lift(self, el):
        out = {}
        for exps, code in el.items():
            if self.f == 1:
                out[exps] = code % self.p
            else:
                out[exps] = tuple(self.K._decode(code))
        return out

    def reduce(self, cov):
        out = {}
        for exps, c in cov.items():
            code = (c % self.p) if self.f == 1 else self.W.reduce_residue(c)
            if code:
                out[exps] = code
        return self.algebra.reduce(out)

    # element ops
    def add(self, a, b):
        out = dict(a)
        for k, c in b.items():
            s = self._cadd(out.get(k, self._zero_c()), c)
            if self._czero(s):
                out.pop(k, None)
            else:
                out[k] = s
        return out

    def _zero_c(self):
        return 0 if self.f == 1 else (0,) * self.f

    def neg(self, a):
        return self.scale_int(-1, a)

    def scale_int(self, c, a):
        out = {}
        for k, v in a.items():
            s = self._cscale(c, v)
            if not self._czero(s):
                out[k] = s
        return out

    def mul(self, a, b):
        out = {}
        for k1, c1 in a.items():
            for k2, c2 in b.items():
                k = tuple(wkey(Fraction(x) + Fraction(y)) for x, y in zip(k1, k2))
                s = self._cadd(out.get(k, self._zero_c()), self._cmul(c1, c2))
                if self._czero(s):
                    out.pop(k, None)
                else:
                    out[k] = s
        return out

    def power(self, a, n):
        if n < 1:
            raise ValueError("cover power needs n >= 1")
        result = None
        base = a
        while n:
            if n & 1:
                result = base if result is None else self.mul(result, base)
            base = self.mul(base, base)
            n >>= 1
        return result

    def divexact(self, a, d):
        return {k: self._cdiv(c, d) for k, c in a.items()}


def _cover_for(algebra, length):
    if isinstance(algebra, IntegerMonomialAlgebra):
        return algebra  # already torsion-free; identity lift/reduce
    return _GFCover(algebra, precision=length + 2)


# ---------------------------------------------------------------------------
# Witt rings and vectors

class WittRing:
    """W_r(A) for A a curated char-p ring or a torsion-free test ring."""

    def __init__(self, algebra, length: int, p: int | None = None):
        if length < 1:
            raise LengthUnderflow("Witt length must be >= 1")
        self.algebra = algebra
        self.length = length
        if isinstance(algebra, MonomialAlgebra):
            self.p = algebra.spec.p
            self.char_p = True
        else:
            if p is None:
                raise ValueError("torsion-free coefficient rings need an explicit p")
            self.p = p
            self.char_p = False

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

    def shorter(self, delta=1):
        if self.length - delta < 1:
            raise LengthUnderflow("restriction below length 1")
        return WittRing(self.algebra, self.length - delta, None if self.char_p else self.p)

    def longer(self, delta=1):
        return WittRing(self.algebra, self.length + delta, None if self.char_p else self.p)

    # -- ghost machinery --------------------------------------------------

    def _lift(self, vec):
        cover = _cover_for(self.algebra, self.length)
        if self.char_p:
            return cover, [cover.lift(c) for c in vec.components]
        return cover, [dict(c) for c in vec.components]

    def _ghosts(self, cover, lifted):
        p = self.p
        out = []
        for m in range(len(lifted)):
            acc = {}
            for i in range(m + 1):
                if not lifted[i]:
                    continue
                term = cover.power(lifted[i], p ** (m - i))
                acc = cover.add(acc, cover.scale_int(p**i, term))
            out.append(acc)
        return out

    def _from_ghosts(self, cover, ghosts):
        p = self.p
        comps = []
        for m in range(len(ghosts)):
            acc = dict(ghosts[m])
            for i in range(m):
                if not comps[i]:
                    continue
                term = cover.power(comps[i], p ** (m - i))
                acc = cover.add(acc, cover.scale_int(-(p**i), term))
            comps.append(cover.divexact(acc, p**m))
        return comps

    def _combine(self, a, b, op):
        if not isinstance(b, WittVector) or b.ring.length != self.length or b.ring.p != self.p:
            raise LengthMismatch("Witt vectors have mismatched length or prime")
        cover, la = self._lift(a)
        _, lb = self._lift(b)
        ga = self._ghosts(cover, la)
        gb = self._ghosts(cover, lb)
        if op == "add":
            gh = [cover.add(x, y) for x, y in zip(ga, gb)]
        else:
            gh = [cover.mul(x, y) for x, y in zip(ga, gb)]
        comps = self._from_ghosts(cover, gh)
        if self.char_p:
            return self(tuple(cover.reduce(c) for c in comps))
        return self(tuple(comps))

    def add(self, a, b):
        return self._combine(a, b, "add")

    def mul(self, a, b):
        return self._combine(a, b, "mul")

    def neg(self, a):
        cover, la = self._lift(a)
        ga = self._ghosts(cover, la)
        comps = self._from_ghosts(cover, [cover.scale_int(-1, g) for g in ga])
        if self.char_p:
            return self(tuple(cover.reduce(c) for c in comps))
        return self(tuple(comps))

    def scalar(self, n):
        """The image of the integer n in W_r (binary addition chain)."""
        if n < 0:
            return self.neg(self.scalar(-n))
        result = self.zero()
        base = self.one()
        while n:
            if n & 1:
                result = self.add(result, base)
            base = self.add(base, base)
            n >>= 1
        return result


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
    cover, lifted = ring._lift(a)
    return [dict(g) for g in ring._ghosts(cover, lifted)]


def frobenius(a: WittVector, universal: bool = False) -> WittVector:
    """F: W_r -> W_{r-1}.

    Char-p fast path is componentwise p-th power; `universal=True` forces
    the ghost-law evaluation (the oracle used to validate the fast path).
    """
    ring = a.ring
    if ring.length < 2:
        raise LengthUnderflow("Frobenius needs length >= 2")
    target = ring.shorter()
    if ring.char_p and not universal:
        return target(tuple(ring.algebra.frobenius(c) for c in a.components[:-1]))
    cover, lifted = ring._lift(a)
    gh = ring._ghosts(cover, lifted)
    comps = target._from_ghosts(cover, gh[1:])
    if ring.char_p:
        return target(tuple(cover.reduce(c) for c in comps))
    return target(tuple(comps))


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


def teichmuller(ring: WittRing, x) -> WittVector:
    return ring.teichmuller(x)


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
