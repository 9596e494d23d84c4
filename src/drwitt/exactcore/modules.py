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

from dataclasses import dataclass
from math import prod

from ..errors import DrwittError
from . import gf as _gf
from . import integers as _zz
from . import zmodp as _zp
from .gf import GF
from .zmodp import ZmodRing


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
# ring-dispatched primitives (rows / right action conventions of zmodp)

def normal_form(ring, rows, ncols):
    """Canonical generating set of the row module (Howell / Hermite / RREF)."""
    if isinstance(ring, ZmodRing):
        return _zp.howell(ring, rows, ncols)
    if isinstance(ring, GF):
        return _gf.gf_rref(ring, rows, ncols)
    return _zz.hermite(rows, ncols)


def kernel(ring, A):
    if isinstance(ring, ZmodRing):
        return _zp.kernel(ring, A)
    if isinstance(ring, GF):
        return _gf.gf_kernel(ring, A)
    return _zz.z_kernel(A)


def solve(ring, A, b):
    if isinstance(ring, ZmodRing):
        return _zp.solve(ring, A, b)
    if isinstance(ring, GF):
        return _gf.gf_solve(ring, A, b)
    return _zz.z_solve(A, b)


def preimage(ring, A, B):
    if isinstance(ring, ZmodRing):
        return _zp.preimage(ring, A, B)
    if isinstance(ring, GF):
        return _gf.gf_preimage(ring, A, B)
    return _zz.z_preimage(A, B)


def member(ring, nf_rows, v):
    if isinstance(ring, ZmodRing):
        return _zp.member(ring, nf_rows, v)
    if isinstance(ring, GF):
        return not any(_gf.gf_reduce_vector(ring, nf_rows, v))
    return _zz.z_member(nf_rows, v)


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


def span_contains(ring, big_rows, small_rows, ncols):
    H = normal_form(ring, big_rows, ncols)
    return all(member(ring, H, r) for r in small_rows)


def span_equal(ring, A, B, ncols):
    return normal_form(ring, A, ncols) == normal_form(ring, B, ncols)


# ---------------------------------------------------------------------------
# invariant factors

@dataclass(frozen=True)
class InvariantFactors:
    """Isomorphism invariants of a finitely generated abelian group.

    torsion holds the cyclic orders (each a prime power here), sorted
    ascending; two presentations of isomorphic modules produce equal
    InvariantFactors, so == is the isomorphism test.
    """

    torsion: tuple[int, ...]
    free_rank: int = 0

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


def invariants_isomorphic(a: InvariantFactors, b: InvariantFactors) -> bool:
    return a == b


def quotient_invariants(ring, relation_rows, ngens) -> InvariantFactors:
    """Invariant factors of R^ngens / rowspan(relation_rows)."""
    if ngens == 0:
        return InvariantFactors((), 0)
    if isinstance(ring, ZmodRing):
        exps = _zp.quotient_divisor_exponents(ring, relation_rows, ngens)
        return InvariantFactors.of([ring.p**a for a in exps if a > 0])
    if isinstance(ring, GF):
        dim = ngens - _gf.gf_rank(ring, relation_rows, ngens)
        return InvariantFactors.of([ring.p] * (dim * ring.f))
    diag = _zz.smith_diagonal(relation_rows, ngens)
    return InvariantFactors.of([d for d in diag if d > 1], ngens - len(diag))


# ---------------------------------------------------------------------------
# presentations

class FinModPresentation:
    """A finitely presented module R^ngens / rowspan(relations)."""

    def __init__(self, ring, ngens, relations=()):
        self.ring = ring
        self.ngens = ngens
        self.relations = normal_form(ring, [list(r) for r in relations], ngens)

    def __repr__(self):
        return f"FinModPresentation({self.ring}, ngens={self.ngens}, rels={len(self.relations)})"

    def invariants(self) -> InvariantFactors:
        return quotient_invariants(self.ring, self.relations, self.ngens)

    def is_zero_element(self, v):
        return member(self.ring, self.relations, v)

    @staticmethod
    def free(ring, ngens):
        return FinModPresentation(ring, ngens, ())


class FinComplex:
    """A finite cochain complex of finitely presented modules.

    modules[n] for n in degrees; diffs[n] is the generator matrix of
    d : M_n -> M_{n+1} (absent means the zero map or zero target).
    """

    def __init__(self, ring, modules: dict, diffs: dict, check=True):
        self.ring = ring
        self.modules = dict(modules)
        self.diffs = {n: [list(r) for r in D] for n, D in diffs.items()}
        for n, M in self.modules.items():
            D = self.diff(n)
            tgt = self.module(n + 1)
            if M.ngens and len(D) != M.ngens:
                raise ValueError(f"differential at degree {n} has wrong row count")
            # relations must map into relations
            if check and M.relations:
                img = mat_mul(ring, M.relations, D) if tgt.ngens else []
                for row in img:
                    if not member(ring, tgt.relations, row) and any(row):
                        raise ValueError(f"d at degree {n} does not respect relations")
        if check:
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
            tgt = self.module(n + 2)
            for row in DD:
                if any(row) and not member(self.ring, tgt.relations, row):
                    raise NonComplex(f"d o d != 0 leaving degree {n}")

    def shift(self, k):
        return FinComplex(
            self.ring,
            {n - k: M for n, M in self.modules.items()},
            {n - k: D for n, D in self.diffs.items()},
            check=False,
        )


# ---------------------------------------------------------------------------
# subquotients: span(Z)/span(B) inside a based free module

class SubQuot:
    """A subquotient of R^ambient with explicit generators and relations."""

    def __init__(self, ring, ambient, z_rows, b_rows):
        self.ring = ring
        self.ambient = ambient
        self.z = [list(r) for r in z_rows]
        self.b = normal_form(ring, [list(r) for r in b_rows], ambient)

    def gen_count(self):
        return len(self.z)

    def relation_coords(self):
        """Rows c with c . z in span(b): the presentation relations."""
        if not self.z:
            return []
        return preimage(self.ring, self.z, self.b)

    def presentation(self) -> FinModPresentation:
        return FinModPresentation(self.ring, len(self.z), self.relation_coords())

    def invariants(self) -> InvariantFactors:
        return self.presentation().invariants()

    def coords(self, vector):
        """Coefficients c with c . z == vector modulo span(b), else None."""
        if not self.z:
            return [] if member(self.ring, self.b, vector) else None
        stacked = self.z + self.b
        sol = solve(self.ring, stacked, vector)
        if sol is None:
            return None
        return sol[: len(self.z)]

    def induced_map(self, other: "SubQuot", ambient_matrix):
        """Generator matrix of the map sending [v] to [v . A]; None if ill-defined."""
        rows = []
        for g in self.z:
            img = vec_ambient(self.ring, g, ambient_matrix, other.ambient)
            c = other.coords(img)
            if c is None:
                return None
            rows.append(c)
        # relations must die
        for g in self.b:
            img = vec_ambient(self.ring, g, ambient_matrix, other.ambient)
            if not member(self.ring, other.b, img):
                return None
        return rows


def vec_ambient(ring, v, A, target_len):
    if not A:
        return [0] * target_len
    if isinstance(ring, ZmodRing):
        return _zp.vec_mat(ring, v, A)
    out = mat_mul(ring, [v], A)
    return out[0] if out else [0] * target_len


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
        z = normal_form(ring, identity_rows(ring, k), k)
    else:
        z = preimage(ring, C.diff(n), nxt.relations)
        if not z:
            z = []
    prev = C.module(n - 1)
    b = list(M.relations)
    if prev.ngens:
        b += list(C.diff(n - 1))
    return SubQuot(ring, k, z, b)


def identity_rows(ring, k):
    return [[1 if i == j else 0 for j in range(k)] for i in range(k)]


def homology(C: FinComplex, n: int) -> InvariantFactors:
    """Invariant factors of H^n(C); raises NonComplex if d o d != 0."""
    return homology_subquot(C, n).invariants()
