"""Nygaard filtration, divided Frobenius, syntomic cohomology, log forms.

The Nygaard subcomplex of the de Rham-Witt model at twist i is
    ... -> p V W^(i-2) -> V W^(i-1) -> W^i -> W^(i+1) -> ...
and below the twist it is handled in parametrized coordinates: the
degree-n component at weight v (n < i) is the weight-(p v) lattice of
W^n, embedded by p^(i-1-n) V.  In those coordinates the inclusion is
p^(i-1-n) V, the divided Frobenius phi/p^i is the identity (it sends the
parameter x to x, because phi(p^(i-1-n) V x) = p^i x), and the
differential is the plain d except for the bridge dV into degree i.

The syntomic complex mod p^r is the homotopy fiber of phi/p^i - can,
assembled orbit by orbit under the weight action w -> p w.  Windows are
chosen so that the below-twist blocks become 1 - p^(i-1-n) V with V
nilpotent (the denominator cap is a quotient of the V-adic pro-structure),
and the above-twist blocks become p^(n-i) F - 1 with F truncated at the
magnitude top; both are certified invertible by explicit Neumann series,
so the finite model is exact away from degrees i and i+1.  H^(i+1) is a
window-level avatar of the ring-level cokernel of phi/p^i - 1 and is
reported, not pinned.

Logarithmic lattices are spans of dlog symbols of the enumerable units;
they sit at weight zero, where no truncation effect exists.

Per-weight work is keyed by the model's weight numerators a = u p^s_star
(see dieudonne); the orbit action is a -> p a.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import lcm

from . import budgets
from .derham import DeRhamComplex, perfection_h0
from .dieudonne import GUARD, SaturatedModel, saturate, strict_truncate
from .errors import PrecisionExhausted
from .exactcore import (
    FinComplex,
    FinModPresentation,
    InvariantFactors,
    SubQuot,
    ZmodRing,
    homology,
    homology_subquot,
    identity,
    mat_mul,
    member,
)
from .rings import RingSpec, memo, window

# syntomic, verify_fundamental_seq and the Nygaard checks count their window
# against budgets.WINDOW_MAX (see budgets for the measurement).


# ---------------------------------------------------------------------------
# Nygaard model

class NygaardModel:
    """N^{>=i} of a saturated model, in parametrized coordinates.

    Weights are the model's numerators a; below the twist the degree-n
    component at a is the lattice at p a.
    """

    def __init__(self, model: SaturatedModel, i: int):
        self.model = model
        self.i = i
        self.p = model.p
        self.ring = model.ring

    def param_rank(self, n, a):
        """Rank of the degree-n component at numerator a (param coords for n < i)."""
        if n < self.i:
            return self.model.rank_at(n, a * self.p)
        return self.model.rank_at(n, a)

    def d_matrix(self, n, a):
        """d_N: (n, a) -> (n+1, a) in param coordinates."""
        i, model = self.i, self.model
        if n < i - 1:
            return model.d_at(n, a * self.p)
        if n == i - 1:
            # bridge x |-> d(Vx)
            return mat_mul(self.ring, model.versch_at(n, a * self.p), model.d_at(n, a))
        return model.d_at(n, a)

    def inclusion_matrix(self, n, a):
        """can: N^n_a -> W^n_a; p^(i-1-n) V below the twist, identity above."""
        i, model, p = self.i, self.model, self.p
        if n >= i:
            return identity(model.rank_at(n, a))
        c = p ** (i - 1 - n)
        return [[(c * x) % self.ring.q for x in row] for row in model.versch_at(n, a * p)]

    def divided_frobenius_matrix(self, n, a):
        """phi/p^i: N^n_a -> W^n_{p a}; identity on parameters below the twist."""
        i, model, p = self.i, self.model, self.p
        if n < i:
            return identity(self.param_rank(n, a))
        F = model.frob_at(n, a)
        c = p ** (n - i)
        return [[(c * x) % self.ring.q for x in row] for row in F]


# ---------------------------------------------------------------------------
# orbit assembly for the syntomic fiber

def _weight_support(model: SaturatedModel, cap, den_exp):
    """Numerators of the lattice-supported weights with |w| <= cap and denominator <= p^den_exp, as a range.

    The window's numerators are the multiples of p^max(0, s_star - den_exp)
    in rings.window(cap, P, laurent).  A ring without variables is
    supported at a = 0 only; one variable of weight m at the window
    numerators that m divides, where the lift has a monomial in degree 0.
    Support is read off integers, so no form is enumerated, and len()
    counts it against the window budget without listing it.  It is symmetric on a
    Laurent ring and non-negative otherwise.
    """
    spec = model.spec
    if spec.nvars:
        w = window(cap, model.P, spec.is_laurent)
        step = lcm(model.p ** max(0, model.s_star - den_exp), spec.weights[0])
        support = w[-w.start % step :: step]
    else:
        support = window(cap, 1, False)[:1]
    budgets.refuse_past(
        len(support),
        budgets.WINDOW_MAX,
        PrecisionExhausted,
        f"a weight window with cap {cap} and denominators up to {model.p}^{den_exp} holds more than"
        f" {budgets.WINDOW_MAX} numerators, the window budget",
    )
    return support


def weight_orbits(model: SaturatedModel, cap, den_exp):
    """Partition of the supported numerators into orbits of a -> p a."""
    p = model.p
    support = _weight_support(model, cap, den_exp)
    seen = set()
    orbits = []
    for a in support:
        if a in seen:
            continue
        if a == 0:
            seen.add(a)
            orbits.append([a])
            continue
        # walk to the bottom of the orbit inside the window
        bottom = a
        while bottom % p == 0 and bottom // p in support:
            bottom //= p
        chain = []
        cur = bottom
        while cur in support:
            chain.append(cur)
            seen.add(cur)
            cur *= p
        orbits.append(chain)
    return orbits


def _class_representatives(model: SaturatedModel, support):
    """One numerator of each class_at key that a _weight_support range meets, read off integers.

    It yields 0 if the support holds 0, then step p^j for j = 0, 1, ...
    while step p^j lies in the support.  Soundness: a nonzero support
    numerator a = k step is a multiple of m, the variable's weight, and it
    is negative only on a Laurent ring, so class_at(a) is
    v_p(a) = v_p(step) + v_p(k).  step p^(v_p(k)) has that class and lies
    in the support, which holds every multiple of step from 0 to |a|,
    because p^(v_p(k)) <= |k|.  Distinct j give distinct keys.  A ring
    without variables has the support range(1) or nothing, so it yields 0
    at most.
    """
    if 0 in support:
        yield 0
    rep = support.step
    while rep in support:
        yield rep
        rep *= model.p


class _FiberBlock:
    """One orbit's total fiber complex mod p^r, for one window scheme.

    A finite window of the orbit w -> p w truncates the pro-object at two
    ends, and no single choice of Nygaard window is boundary-exact in all
    degrees.  Two uniform schemes are used:

      deep:    every Nygaard block sits at (1/p) times the W-window, so
               each W block has a phi-source; the blocks at and below the
               twist become (1 + nilpotent) and the model is exact in
               degrees <= i (the magnitude-top Frobenius cokernel lands
               in degree i+1, where it is the reported window avatar);
      aligned: every Nygaard block sits at the W-window itself, so each
               has its canonical-map diagonal; blocks away from the twist
               are (1 + nilpotent) upside down and the model is exact in
               degrees >= i+2.

    Reported cohomology is taken degreewise from the scheme that is exact
    there; both schemes agree on the weight-zero orbit, which has no
    boundary at all.  A block builds its complex on first read, so a
    scheme that no reported degree reads is never assembled.
    """

    def __init__(self, N: NygaardModel, orbit, r, style="deep"):
        self.N = N
        self.model = N.model
        self.i = N.i
        self.r = r
        self.style = style
        self.ring = ZmodRing(N.p, r)
        self.orbit = list(orbit)
        self.top = self.model.top

    def n_weights(self, n):
        """Numerators of the degree-n Nygaard blocks for this window scheme."""
        if self.style == "aligned":
            return self.orbit
        return [a // self.N.p for a in self.orbit]

    @memo
    def layout(self, j):
        """Slot layout of fiber degree j: N^j blocks then W^(j-1) blocks."""
        blocks = []
        for v in self.n_weights(j):
            k = self.N.param_rank(j, v)
            if k:
                blocks.append(("N", v, k))
        for w in self.orbit:
            k = self.model.rank_at(j - 1, w)
            if k:
                blocks.append(("W", w, k))
        return blocks

    def n_slots(self, j):
        """Number of N^j slots, which come first in fiber degree j."""
        return sum(k for tag, _, k in self.layout(j) if tag == "N")

    def _offsets(self, blocks):
        off, total = {}, 0
        for tag, w, k in blocks:
            off[(tag, w)] = total
            total += k
        return off, total

    def differential(self, j):
        """Total differential fib^j -> fib^(j+1): (x,y) -> (dx, (phi-can)x - dy)."""
        src = self.layout(j)
        tgt = self.layout(j + 1)
        toff, tdim = self._offsets(tgt)
        rows = []
        q = self.ring.q
        for tag, w, k in src:
            # (target block, matrix, sign) of each term leaving this block
            if tag == "N":
                terms = [
                    (("N", w), self.N.d_matrix(j, w), 1),
                    (("W", w * self.N.p), self.N.divided_frobenius_matrix(j, w), 1),
                    (("W", w), self.N.inclusion_matrix(j, w), -1),
                ]
            else:
                terms = [(("W", w), self.model.d_at(j - 1, w), -1)]
            for a in range(k):
                row = [0] * tdim
                for key, mat, sign in terms:
                    if key in toff and mat:
                        base = toff[key]
                        for b, x in enumerate(mat[a]):
                            if x:
                                row[base + b] = (row[base + b] + sign * x) % q
                rows.append(row)
        return rows

    @memo
    def complex(self) -> FinComplex:
        mods = {}
        diffs = {}
        for j in range(0, self.top + 3):
            _, dim = self._offsets(self.layout(j))
            mods[j] = FinModPresentation.free(self.ring, dim)
        for j in range(0, self.top + 2):
            diffs[j] = self.differential(j)
        return FinComplex(self.ring, mods, diffs)

    @memo
    def cohomology(self, j) -> SubQuot:
        """H^j of the fiber complex as a subquotient, with its presentation kept."""
        return homology_subquot(self.complex(), j)

    @memo
    def certificate(self, n):
        """(ok, terms) of the Neumann certificate in degree n (see _certify_block_invertible)."""
        return _certify_block_invertible(self, self.complex(), n)


class SyntomicComplex(namedtuple("SyntomicComplex", [
    "spec",
    "twist",
    "modulus_exp",
    "cohomology",   # degree -> InvariantFactors (all orbits)
    "weight_zero",  # degree -> InvariantFactors (weight-0 orbit)
    "orbit_count",
    "R",            # precision exponent of the model it was computed on
])):
    """Mod-p^r syntomic cohomology of one curated ring at one twist."""

    __slots__ = ()

    def group(self, j) -> InvariantFactors:
        return self.cohomology.get(j, InvariantFactors(()))


def _direct_sum(factors):
    tors = []
    free = 0
    for f in factors:
        tors.extend(f.torsion)
        free += f.free_rank
    return InvariantFactors(tuple(sorted(tors)), free)


def _orbit_class(model: SaturatedModel, orbit):
    """Class key of an orbit: (class_at of its bottom, length), or None for a class of its own.

    The key fixes the valuations of the chain a/p, a, ..., p^2 b that the
    orbit's blocks read (see _orbit_fibers).  The zero orbit, and an orbit
    whose bottom is prime to p (so that a/p is not a numerator), are their
    own; a ring without variables has the zero orbit only.
    """
    if orbit[0] == 0 or orbit[0] % model.p:
        return None
    return model.class_at(orbit[0]), len(orbit)


def _orbit_fibers(N: NygaardModel, weight_cap, r):
    """Per orbit: (orbit, deep block, aligned block, {j: H^j}).

    H^j is taken from the deep scheme for j <= i+1 and from the aligned
    scheme above, where each is exact (see _FiberBlock).  A fiber degree
    without slots has H^j = 0 and builds no complex; fiber degree j is
    N^j + W^(j-1), so for i >= top the aligned complex is never read.

    Each class (see _orbit_class) is computed once.  An orbit from bottom
    a to top b reads the lift at the chain a/p, a, ..., p b, p^2 b: the
    deep N blocks reach down to a/p, the aligned ones up to p b, and the
    lattice at p b is certified against the stage at p^2 b.  For one
    variable of weight m = p^v m' (m' prime to p) the window numerators
    have v_p >= 1 + v, so each chain numerator w is a multiple of m.  It
    has one monomial form in every degree <= top (on a poly ring w >= m,
    so degree 1 too), hence every rank is f; d on it is its exponent w/m,
    so d u(w)^-1 = p^(v_p(w) - v)/m' for the prime-to-p part u(w) of w;
    and F is x^e -> x^(p e) tensored with sigma on the coefficient
    digits.  The key (weight class of a, orbit length) fixes the chain's
    valuations v_p(a) - 1, v_p(a), ..., hence every rank, d u(w)^-1 and F
    the blocks read.  Dividing each degree-0 slot at w by u(w) thus
    relates the lift complexes of two orbits with equal keys by a
    diagonal rescaling (u(p w) = u(w) keeps F as it is), and it carries
    the lattices (Howell bases p^k I, which a unit rescaling fixes), the
    Nygaard blocks and the fiber complex of one onto the other.  It is one
    unit per orbit on the parameter and W slots alike, so it keeps the
    identity part of each certificate block, and the Neumann series keeps
    its length.  This holds at the finite precisions R and B: each
    u(w) is prime to p, hence invertible mod p^B and mod p^R, and it is an
    integer, hence fixed by sigma, so the rescaling commutes with F and V.
    At one weight it gives SaturatedModel.class_at.

    The first orbit of a class is its representative and runs in full:
    lattices, stage certificates, complexes and homology.  Every later
    orbit of the class yields the representative's blocks and H^j, whose
    certificates are memoized on the blocks.  The class table lives for
    one walk.  Rings without one variable walk orbit by orbit.
    """
    model = N.model
    classes = {}
    for orbit in weight_orbits(model, weight_cap, r):
        key = _orbit_class(model, orbit)
        if key in classes:
            yield (orbit, *classes[key])
            continue
        deep = _FiberBlock(N, orbit, r, style="deep")
        aligned = _FiberBlock(N, orbit, r, style="aligned")
        H = {}
        for j in range(model.top + 3):
            blk = deep if j <= N.i + 1 else aligned
            H[j] = blk.cohomology(j).invariants() if blk.layout(j) else InvariantFactors(())
        if key is not None:
            classes[key] = (deep, aligned, H)
        yield orbit, deep, aligned, H


def syntomic(spec: RingSpec, i: int, r: int, i_max: int, weight_cap, R: int | None = None) -> SyntomicComplex:
    """Cohomology of fib(phi/p^i - can) mod p^r, orbit by orbit.

    Degrees <= i+1 are computed in the deep window scheme and degrees
    above i+1 in the aligned scheme (see _FiberBlock); the weight-zero
    orbit, where the two agree, is also reported separately.  `R`
    overrides the model's internal precision exponent.
    """
    model = saturate(spec, r, max(i_max, i + 1), R)
    per_degree: dict[int, list] = {}
    zero_orbit: dict[int, InvariantFactors] = {}
    count = 0
    for orbit, _, _, H in _orbit_fibers(NygaardModel(model, i), weight_cap, r):
        count += 1
        if orbit[0] == 0:
            zero_orbit = H
        for j, inv in H.items():
            if not inv.is_trivial():
                per_degree.setdefault(j, []).append(inv)
    out = {j: _direct_sum(v) for j, v in per_degree.items()}
    return SyntomicComplex(spec, i, r, out, zero_orbit, count, model.R)


# ---------------------------------------------------------------------------
# logarithmic lattices

class LogLattice(namedtuple("LogLattice", [
    "spec",
    "degree",
    "level",
    "generators",   # vectors in model lattice coordinates at (i, 0)
    "symbols",      # human-readable generating symbols
    "invariants",
])):
    """Span of dlog symbols inside W_r Omega^i (all at weight zero)."""

    __slots__ = ()


def log_lattice(spec: RingSpec, i: int, r: int) -> LogLattice:
    return _log_lattice(saturate(spec, r, max(i + 1, 1)), i, r)


def _log_lattice(model: SaturatedModel, i: int, r: int) -> LogLattice:
    """The dlog lattice in degree i at level r, in the coordinates of `model`."""
    spec = model.spec
    level = strict_truncate(model, r)
    if i == 0:
        one = model.teichmuller_vector()
        return LogLattice(spec, 0, r, [one], ["1"], _span_invariants(level.group(0, 0), [one]))
    # dlog of a constant is exactly zero: [c] is a root of unity of order
    # prime to p, so (q-1) dlog[c] = dlog 1 = 0 forces dlog[c] = 0.  Only
    # the variable units of a laurent kind can contribute, and a laurent
    # kind has one variable, so every wedge of two or more dlogs vanishes.
    dlogs = []
    if i == 1:
        for j, name in enumerate(spec.variables):
            vec = model.dlog_vector(j)
            if vec is not None:
                dlogs.append((f"dlog {name}", vec))
    if not dlogs:
        return LogLattice(spec, i, r, [], [], InvariantFactors(()))
    gen_vecs = [vec for _, vec in dlogs]
    return LogLattice(
        spec, i, r, gen_vecs, [name for name, _ in dlogs], _span_invariants(level.group(i, 0), gen_vecs)
    )


def _span_invariants(grp: SubQuot, vectors) -> InvariantFactors:
    """Invariant factors of (span(vectors) + span(b))/span(b), the subgroup the vectors generate in grp."""
    return SubQuot(grp.ring, grp.ambient, vectors, grp.b).invariants()


# ---------------------------------------------------------------------------
# fundamental exact sequence report

def verify_fundamental_seq(spec: RingSpec, i: int, r: int, i_max: int, weight_cap) -> dict:
    """Finite-level shadow of the fundamental exact sequence at twist i.

    (a) the blocks of phi/p^i - 1 in degrees n != i are certified
        invertible by explicit Neumann series (p-adic contraction above
        the twist, V-nilpotence below);
    (b) H^i of the mod-p^r fiber is compared with the dlog lattice:
        verdict EQUAL, or CONTAINS with the subgroup index;
    (c) H^(i+1) is reported as the window-level cokernel avatar.
    """
    model = saturate(spec, r, max(i_max, i + 1))
    certificates = {"below_twist": {}, "above_twist": {}}
    off_degree_trivial = True
    h_i_parts = []
    nonzero_orbit_h_i = []
    h_i1_parts = []
    zero = None
    for orbit, deep, aligned, H in _orbit_fibers(NygaardModel(model, i), weight_cap, r):
        if orbit[0] == 0:
            zero = deep
        for n in range(0, model.top + 1):
            if n == i:
                continue
            ok, terms = (deep if n < i else aligned).certificate(n)
            key = "below_twist" if n < i else "above_twist"
            cur = certificates[key].get(n, (True, 0))
            certificates[key][n] = (cur[0] and ok, max(cur[1], terms))
        for j, inv in H.items():
            if inv.is_trivial():
                continue
            if j == i:
                h_i_parts.append(inv)
                if orbit[0] != 0:
                    nonzero_orbit_h_i.append(inv)
            elif j == i + 1:
                h_i1_parts.append(inv)
            else:
                off_degree_trivial = False
    # (b) compare H^i with the log lattice inside the zero-weight block
    lat = _log_lattice(model, i, r)
    verdict, index = _compare_h_i_with_log(zero, lat)
    if nonzero_orbit_h_i:
        verdict = "CONTAINS"
        index *= _direct_sum(nonzero_orbit_h_i).order()
    return {
        "twist": i,
        "modulus": f"p^{r}",
        "invertibility": certificates,
        "off_degree_vanishing": off_degree_trivial,
        "h_i": _direct_sum(h_i_parts),
        "log_lattice": lat.invariants,
        "verdict": verdict,
        "index": index,
        "h_i_plus_1_ring_level_coker": _direct_sum(h_i1_parts),
    }


def _certify_block_invertible(blk: _FiberBlock, C: FinComplex, n) -> tuple[bool, int]:
    """Neumann-series certificate that (phi/p^i - can) is invertible in degree n.

    The block A is read off the fiber differential of `C`, the complex of
    `blk`: its N^n rows and its W^n columns.  Over the orbit, A is X - 1
    (above the twist, X = p^(n-i) F truncated at the magnitude top) or
    1 - Y in matched parameter coordinates (below, Y = p^(i-1-n) V
    truncated at the denominator cap); in both cases the non-identity part
    is nilpotent modulo p^r and the inverse is the finite geometric series.
    The identity part is the diagonal in the scheme each degree is
    certified in (deep below the twist, aligned above): window numerators
    are divisible by p (denominators stay below p^s_star), so the N block
    at a/p (deep) or at a (aligned) sits at the offset of the W block at a.
    """
    ring, q = blk.ring, blk.ring.q
    sdim, start = blk.n_slots(n), blk.n_slots(n + 1)
    tdim = C.module(n + 1).ngens - start
    if not sdim and not tdim:
        return True, 0
    if sdim != tdim:
        return False, 0
    A = [row[start:] for row in C.diff(n)[:sdim]]
    sign = 1 if n < blk.i else -1
    # A = sign * (I + X) with X required nilpotent: sum the series
    X = [[(sign * x) % q for x in row] for row in A]
    for a in range(sdim):
        X[a][a] = (X[a][a] - 1) % q
    power = X
    terms = 0
    inv = identity(sdim)
    while any(any(row) for row in power):
        terms += 1
        if terms > sdim + ring.N + 2:
            return False, terms
        inv = [[(a + (-1) ** terms * b) % q for a, b in zip(r1, r2)] for r1, r2 in zip(inv, power)]
        power = mat_mul(ring, power, X)
    check = mat_mul(ring, A, [[(sign * x) % q for x in row] for row in inv])
    return check == identity(sdim), terms


def _compare_h_i_with_log(zero_block, lat: LogLattice) -> tuple[str, int]:
    """Subgroup comparison of the symbol span inside H^i of the zero orbit.

    `zero_block` is the zero orbit's deep block, or None.
    """
    if zero_block is None:
        return ("EQUAL", 1) if not lat.generators else ("MISMATCH", 0)
    H = zero_block.cohomology(zero_block.i)
    h_order = H.invariants().order()
    # embed each symbol as the fiber cocycle (symbol, 0)
    off, dim = zero_block._offsets(zero_block.layout(zero_block.i))
    symbols = []
    for vec in lat.generators:
        amb = [0] * dim
        if ("N", 0) in off:
            base = off[("N", 0)]
            for b, x in enumerate(vec):
                amb[base + b] = x % zero_block.ring.q
        if H.coords(amb) is None:
            return "MISMATCH", 0
        symbols.append(amb)
    # the symbols span a subgroup of H^i, whose order divides h_order
    index = h_order // _span_invariants(H, symbols).order()
    return ("EQUAL" if index == 1 else "CONTAINS"), index


# ---------------------------------------------------------------------------
# Nygaard graded pieces versus the truncated de Rham complex

def nygaard_graded_check(spec: RingSpec, i: int, weight_cap) -> bool:
    """gr^i_N with phi/p^i mod p against tau^{<=i} Omega, once per weight class.

    Both sides at weight v depend only on the class_at key of its
    numerator (see SaturatedModel.class_at), so one numerator of each key
    in the weights of denominator up to p is compared.  Unsupported
    numerators (class "none": m' does not divide a, so not w = a p / P
    either) have empty graded and tau sides, so walking the support loses
    no class.
    """
    p = spec.p
    model = saturate(spec, 1, max(i + 1, 1))
    reps = _class_representatives(model, _weight_support(model, weight_cap, 1))
    N = NygaardModel(model, i)
    omega = None if spec.is_perfection else DeRhamComplex(spec, min(i + 1, spec.nvars + 1), Fraction(weight_cap) * p)
    for a in reps:
        if _graded_cohomology(N, a) != _tau_cohomology(spec, omega, i, a * p // model.P):
            return False
    return True


def _graded_cohomology(N: NygaardModel, a):
    """H^n of gr^i at graded numerator a, for n <= i, as invariant factors."""
    model, i, ring, p = N.model, N.i, N.ring, N.p
    mods = {}
    for n in range(0, i):
        k = N.param_rank(n, a)
        mods[n] = FinModPresentation(ring, k, identity(k, p))
    ki = model.rank_at(i, a)
    mods[i] = FinModPresentation(ring, ki, model.versch_at(i, a * p) + identity(ki, p))
    C = FinComplex(ring, mods, {n: N.d_matrix(n, a) for n in range(i)})
    out = {}
    for n in range(0, i + 1):
        inv = homology(C, n)
        if not inv.is_trivial():
            out[n] = inv
    return out


def _tau_cohomology(spec: RingSpec, omega, i, w):
    """H^n(tau^{<=i} Omega) at the integer weight w for n <= i."""
    out = {}
    if spec.is_perfection:
        H0 = perfection_h0(spec, w)
        return {0: H0} if i >= 0 and not H0.is_trivial() else out
    if abs(w) > omega.weight_cap:
        return out
    for n in range(0, i + 1):
        inv = omega.cohomology(n, w)
        if not inv.is_trivial():
            out[n] = inv
    return out


# ---------------------------------------------------------------------------
# Nygaard completeness shadow and log compatibilities

def nygaard_completeness_check(spec: RingSpec, i_cap: int, weight_cap) -> bool:
    """intersection of N^{>=i} over i <= i_cap is p-adically deep.

    Since the components are nested, the intersection at degree n equals
    the deepest one, p^(i_cap-1-n) V W; V carries no p-divisibility at
    fractional weights, so the certified containment is
        intersection  <=  p^(max(0, i_cap - GUARD - n)) W
    per degree and weight (documented per-degree exponent), once per
    class_at key: a weight reads only V into it.
    """
    model = saturate(spec, 2, i_cap)
    ring = model.ring
    p = spec.p
    for a in _class_representatives(model, _weight_support(model, weight_cap, 1)):
        for n in range(0, model.top + 1):
            k = model.rank_at(n, a)
            if not k or i_cap <= n:
                continue
            V = model.versch_at(n, a * p)
            c = p ** (i_cap - 1 - n)
            deepest = [[(c * x) % ring.q for x in row] for row in V]
            e = max(0, i_cap - GUARD - n)
            # entries are reduced mod q, so p^e | entry is membership in p^e W, also when p^e >= q
            if any(x % p**e for row in deepest for x in row):
                return False
    return True


def log_mod_compat(spec: RingSpec, i: int, r: int) -> bool:
    """R maps the level-(r+1) log lattice onto the level-r one, compatibly."""
    model_lo = saturate(spec, r, max(i + 1, 1))
    lat_hi = log_lattice(spec, i, r + 1)
    lat_lo = _log_lattice(model_lo, i, r)
    level_lo = strict_truncate(model_lo, r)
    grp = level_lo.group(i, 0) if model_lo.rank_at(i, 0) else None
    if grp is None:
        return not lat_hi.generators and not lat_lo.generators
    # the restriction map is the identity on model coordinates
    hi_span = _span_invariants(grp, lat_hi.generators)
    lo_span = _span_invariants(grp, lat_lo.generators)
    if hi_span != lo_span:
        return False
    # mod-p^r reduction: scaling level-(r+1) generators by p^r lands in the
    # relations of the level-r group
    ring = model_lo.ring
    return all(member(ring, grp.b, [(spec.p**r * x) % ring.q for x in vec]) for vec in lat_hi.generators)
