"""Finitely presented modules, their maps, and homology of finite complexes.

Three coefficient rings are supported: Z, Z/p^N (ZmodRing) and GF(p^f).
A module is presented as R^k / rowspan(relations); a map of presented
modules is a k_source x k_target matrix on generators that carries
relations into relations.  Subquotients span(Z)/span(B) of a based free
module are the working representation for every homology group in the
package; invariant factors are always reported as abelian groups
(p-power torsion plus free rank), which is what makes outputs from
different pipelines comparable.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import compress
from math import prod

from ..errors import DrwittError
from . import zmodp as _zp
from .gf import GF, gf_reduce_vector, gf_rref
from .integers import hermite, smith_diagonal, z_reduce_vector
from .zmodp import ZmodRing, howell, quotient_divisor_exponents, reduce_with_coefficients


class ZZRing:
    """The ring of integers (marker object)."""

    def __repr__(self):
        return "ZZ"

    def __eq__(self, other):
        return isinstance(other, ZZRing)

    def __hash__(self):
        return hash("ZZRing")


ZZ = ZZRing()


class NonComplex(DrwittError):
    """Raised when consecutive differentials fail to compose to zero."""


# ---------------------------------------------------------------------------
# ring-specific primitives (rows / right action conventions of zmodp)

def normal_form(ring, rows, ncols):
    """Canonical generating set of the row module (Howell / Hermite / RREF)."""
    if isinstance(ring, ZmodRing):
        return howell(ring, rows, ncols)
    if isinstance(ring, GF):
        # GF(p^f) elimination runs on {col: coef} rows; this is its one dense boundary
        sparse = [dict(compress(enumerate(r), r)) for r in rows]
        return [[h.get(j, 0) for j in range(ncols)] for h in gf_rref(ring, sparse)]
    return hermite(rows, ncols)


def residue(ring, nf_rows, v):
    """Residue of v modulo the row span given in normal form nf_rows."""
    if isinstance(ring, ZmodRing):
        return reduce_with_coefficients(ring, nf_rows, v)[0]
    if isinstance(ring, GF):
        return gf_reduce_vector(ring, nf_rows, v)
    return z_reduce_vector(nf_rows, v)


def negate(ring, v):
    """The vector -v."""
    if isinstance(ring, ZmodRing):
        q = ring.q
        return [(-t) % q for t in v]
    if isinstance(ring, GF):
        return [ring.neg(t) for t in v]
    return [-t for t in v]


def mat_mul(ring, A, B):
    if isinstance(ring, ZmodRing):
        return _zp.mat_mul(ring, A, B)
    if isinstance(ring, GF):
        K = ring
        if not A:
            return []
        nb = len(B[0]) if B else 0
        out = []
        for row in A:
            acc = [0] * nb
            for a, brow in zip(row, B):
                if a:
                    for j, b in enumerate(brow):
                        if b:
                            acc[j] = K.add(acc[j], K.mul(a, b))
            out.append(acc)
        return out
    if not A:
        return []
    nb = len(B[0]) if B else 0
    return [[sum(a * brow[j] for a, brow in zip(row, B)) for j in range(nb)] for row in A]


# ---------------------------------------------------------------------------
# derived operations, written once for every ring

def identity(k, c=1):
    """The k x k matrix c * I."""
    return [[c if i == j else 0 for j in range(k)] for i in range(k)]


def member(ring, nf_rows, v):
    return not any(residue(ring, nf_rows, v))


def preimage(ring, A, B):
    """Generators of {x : x @ A in rowspan(B)}, in normal form."""
    m = len(A)
    if m == 0:
        return []
    n = len(A[0])
    aug = [list(row) + e for row, e in zip(A, identity(m))]
    aug += [list(brow) + [0] * m for brow in B]
    return [h[n:] for h in normal_form(ring, aug, n + m) if not any(h[:n])]


def kernel(ring, A):
    """Generators of {x : x @ A = 0}, in normal form."""
    return preimage(ring, A, [])


# ---------------------------------------------------------------------------
# invariant factors

class InvariantFactors(namedtuple("InvariantFactors", "torsion free_rank", defaults=(0,))):
    """Isomorphism invariants of a finitely generated abelian group.

    torsion holds the cyclic orders (each a prime power here), sorted
    ascending; two presentations of isomorphic modules produce equal
    InvariantFactors, so == is the isomorphism test.
    """

    __slots__ = ()

    @staticmethod
    def of(orders, free_rank=0):
        flat = []
        for d in orders:
            if d in (0, 1):
                continue
            flat.extend(_prime_power_split(d))
        return InvariantFactors(tuple(sorted(flat)), free_rank)

    def order(self):
        return 0 if self.free_rank else prod(self.torsion, start=1)

    def is_trivial(self):
        return not self.torsion and self.free_rank == 0

    def __str__(self):
        parts = ["Z"] * self.free_rank + [f"Z/{d}" for d in self.torsion]
        return " + ".join(parts) if parts else "0"

    def to_json(self, p=None):
        def fmt(d):
            if p is not None:
                e = 0
                dd = d
                while dd % p == 0:
                    dd //= p
                    e += 1
                if dd == 1:
                    return f"{p}^{e}"
            return str(d)

        return {"torsion": [fmt(d) for d in self.torsion], "free_rank": self.free_rank}


def _prime_power_split(d):
    out = []
    n = abs(d)
    f = 2
    while f * f <= n:
        if n % f == 0:
            e = 0
            while n % f == 0:
                n //= f
                e += 1
            out.append(f**e)
        f += 1
    if n > 1:
        out.append(n)
    return out


def quotient_invariants(ring, relation_rows, ngens) -> InvariantFactors:
    """Invariant factors of R^ngens / rowspan(relation_rows)."""
    if ngens == 0:
        return InvariantFactors((), 0)
    if isinstance(ring, ZmodRing):
        # already prime powers: no factoring, so a huge p costs nothing
        exps = quotient_divisor_exponents(ring, relation_rows, ngens)
        return InvariantFactors(tuple(sorted(ring.p**a for a in exps if a > 0)))
    if isinstance(ring, GF):
        dim = ngens - len(gf_rref(ring, [dict(compress(enumerate(r), r)) for r in relation_rows]))
        return InvariantFactors((ring.p,) * (dim * ring.f))
    diag = smith_diagonal(relation_rows, ngens)
    return InvariantFactors.of([d for d in diag if d > 1], ngens - len(diag))


# ---------------------------------------------------------------------------
# presentations

class FinModPresentation:
    """A finitely presented module R^ngens / rowspan(relations)."""

    def __init__(self, ring, ngens, relations=()):
        self.ring = ring
        self.ngens = ngens
        relations = [list(r) for r in relations]
        if any(len(r) != ngens for r in relations):
            raise ValueError(f"relation rows must have length {ngens}")
        # the normal form of no rows is no rows, in every ring
        self.relations = normal_form(ring, relations, ngens) if relations else []

    @classmethod
    def _of_normal_form(cls, ring, ngens, relations):
        """The presentation on relation rows that are already a normal form."""
        self = cls.__new__(cls)
        self.ring, self.ngens, self.relations = ring, ngens, relations
        return self

    def __repr__(self):
        return f"FinModPresentation({self.ring}, ngens={self.ngens}, rels={len(self.relations)})"

    def invariants(self) -> InvariantFactors:
        return quotient_invariants(self.ring, self.relations, self.ngens)

    def is_zero_element(self, v):
        return not any(v) or member(self.ring, self.relations, v)

    @staticmethod
    def free(ring, ngens):
        return FinModPresentation(ring, ngens, ())


class FinComplex:
    """A finite cochain complex of finitely presented modules.

    modules[n] for n in degrees; diffs[n] is the generator matrix of
    d : M_n -> M_{n+1} (absent means the zero map or zero target).
    Construction checks that d maps relations into relations and that
    d o d = 0, raising ValueError or NonComplex otherwise.
    """

    def __init__(self, ring, modules: dict, diffs: dict):
        self.ring = ring
        self.modules = dict(modules)
        self.diffs = {n: [list(r) for r in D] for n, D in diffs.items()}
        for n, M in self.modules.items():
            D = self.diff(n)
            tgt = self.module(n + 1)
            if M.ngens and len(D) != M.ngens:
                raise ValueError(f"differential at degree {n} has wrong row count")
            if any(len(r) != tgt.ngens for r in D):
                raise ValueError(f"differential at degree {n} has wrong row width")
            img = mat_mul(ring, M.relations, D) if M.relations and tgt.ngens else []
            if not all(map(tgt.is_zero_element, img)):
                raise ValueError(f"d at degree {n} does not respect relations")
        self._check_dd()

    def degrees(self):
        return sorted(self.modules)

    def module(self, n) -> FinModPresentation:
        M = self.modules.get(n)
        return M if M is not None else FinModPresentation.free(self.ring, 0)

    def diff(self, n):
        M, tgt = self.module(n), self.module(n + 1)
        D = self.diffs.get(n)
        if D is None:
            return [[0] * tgt.ngens for _ in range(M.ngens)]
        return D

    def _check_dd(self):
        for n in self.degrees():
            M = self.module(n)
            if not M.ngens or not self.module(n + 2).ngens:
                continue
            DD = mat_mul(self.ring, self.diff(n), self.diff(n + 1))
            if not all(map(self.module(n + 2).is_zero_element, DD)):
                raise NonComplex(f"d o d != 0 leaving degree {n}")


# ---------------------------------------------------------------------------
# subquotients: span(Z)/span(B) inside a based free module

class SubQuot:
    """A subquotient of R^ambient with explicit generators and relations.

    The relation rows are kept as given; `b` forms their normal form on
    first read.  `coords` and `relation_coords` form normal forms of their
    own that contain the rows of b, so they read the rows as given.
    """

    def __init__(self, ring, ambient, z_rows, b_rows):
        self.ring = ring
        self.ambient = ambient
        self.z = [list(r) for r in z_rows]
        self._b = [list(r) for r in b_rows]
        self._b_normal = not self._b  # the normal form of no rows is no rows
        self._presentation = None
        self._solver = None

    @property
    def b(self):
        """The relation rows in normal form (Howell / RREF / Hermite), formed once."""
        if not self._b_normal:
            self._b = normal_form(self.ring, self._b, self.ambient)
            self._b_normal = True
        return self._b

    def gen_count(self):
        return len(self.z)

    def _z_is_identity(self):
        return len(self.z) == self.ambient and self.z == identity(self.ambient)

    def relation_coords(self):
        """Rows c with c . z in span(b): the presentation relations, in normal form.

        For z = I these are b itself, a k-column normal form in place of
        preimage's 2k-column one; otherwise preimage's output is one."""
        if not self.z:
            return []
        if self._z_is_identity():
            return self.b
        return preimage(self.ring, self.z, self._b)

    def presentation(self) -> FinModPresentation:
        """The presentation on the generators z, built once."""
        if self._presentation is None:
            rels = self.relation_coords()
            self._presentation = FinModPresentation._of_normal_form(self.ring, len(self.z), rels)
        return self._presentation

    def invariants(self) -> InvariantFactors:
        """Invariant factors, from a Smith form of any generating set of the relations.

        For z = I the relation rows as given are one, so no normal form is formed."""
        if self._presentation is None and self._z_is_identity():
            return quotient_invariants(self.ring, self._b, self.ambient)
        return self.presentation().invariants()

    def coords(self, vector):
        """Coefficients c with c . z == vector modulo span(b), else None.

        The first call forms the normal form of [z | I; b | 0] and keeps it;
        [vector | 0] leaves the residue [0 | -c] when c exists."""
        k = len(self.z)
        if self._solver is None:
            aug = [r + e for r, e in zip(self.z, identity(k))] + [r + [0] * k for r in self._b]
            self._solver = normal_form(self.ring, aug, self.ambient + k) if k else self.b
        w = residue(self.ring, self._solver, list(vector) + [0] * k)
        if any(w[: self.ambient]):
            return None
        return negate(self.ring, w[self.ambient :])

    def induced_map(self, other: "SubQuot", ambient_matrix):
        """Generator matrix of the map sending [v] to [v . A]; None if ill-defined."""
        A = ambient_matrix or [[0] * other.ambient for _ in range(self.ambient)]
        rows = []
        for img in mat_mul(self.ring, self.z, A):
            c = other.coords(img)
            if c is None:
                return None
            rows.append(c)
        # relations must die
        if not all(member(self.ring, other.b, img) for img in mat_mul(self.ring, self.b, A)):
            return None
        return rows


# ---------------------------------------------------------------------------
# homology

def homology_subquot(C: FinComplex, n: int) -> SubQuot:
    """ker(d_n)/im(d_{n-1}) as a subquotient of the degree-n generator space."""
    ring = C.ring
    M = C.module(n)
    k = M.ngens
    if k == 0:
        return SubQuot(ring, 0, [], [])
    nxt = C.module(n + 1)
    if nxt.ngens == 0:
        z = identity(k)
    else:
        z = preimage(ring, C.diff(n), nxt.relations)
    prev = C.module(n - 1)
    b = list(M.relations)
    if prev.ngens:
        b += list(C.diff(n - 1))
    return SubQuot(ring, k, z, b)


def homology(C: FinComplex, n: int) -> InvariantFactors:
    """Invariant factors of H^n(C); raises NonComplex if d o d != 0."""
    return homology_subquot(C, n).invariants()
