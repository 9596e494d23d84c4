"""De Rham-Witt complexes via saturation of lifted de Rham complexes.

The pipeline, per curated ring S of characteristic p:

1. `lift_with_frobenius` builds the de Rham complex M of the standard
   p-torsion-free lift (monomial Z_p-span; the unramified extension for
   finite fields), with the Frobenius F acting as phi/p^n in degree n,
   where phi is the multiplicative lift x -> x^p.  Then dF = pFd.

2. `eta_p` is the decalage subcomplex
       (eta_p M)^n = {x in p^n M^n : dx in p^(n+1) M^(n+1)},
   and saturation is the colimit along x |-> p^n F x.  Rescaling degree n
   by p^n turns the s-th stage into the sublattice
       E_s^n = {x in M^n : dx in p^s M^(n+1)}
   with differential d/p^s and transition maps given by F itself, so the
   whole saturation is finite lattice arithmetic.  The weight-u piece of
   the saturated complex is the stabilized E_s piece at source weight
   u p^s; fractional weights (denominator up to the configured cap) are
   exactly the Verschiebung-type generators.

3. `strict_truncate` forms W_r = W/(V^r W + d V^r W) with the induced
   F, V, d and restriction maps; V is F^{-1} composed with p, which is
   well defined by the saturation criterion and solved exactly.

Stabilization of the E_s chain per weight is certified empirically (one
transition step past the working stage must be an isomorphism); it is a
checked hypothesis of the model, not a proved bound.

Inside a model a weight u is its integer numerator a = u p^s_star, which
is the lift weight of the working stage (F is a -> p a, V is a -> a/p
when p divides a); true weights appear only at `weight_window`, at
`StrictLevel` and at the model's weight-taking boundary methods.

All lattices live at finite precision p^B with B comfortably above the
reported precision; maps between lattice coordinate systems are exact
modulo the reported modulus, and every division by p is checked.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InexactDivision, PrecisionExhausted, UnsupportedKind
from .exactcore import (
    FinComplex,
    FinModPresentation,
    InvariantFactors,
    SubQuot,
    Zq,
    ZmodRing,
    homology,
    howell,
    identity,
    mat_mul,
    member,
    normal_form,
    preimage,
    solve,
)
from .rings import MonomialAlgebra, RingSpec, exponents, memo, weight_window, wkey

GUARD = 2


def internal_precision(r: int, i_max: int) -> int:
    """Working precision exponent: level + top twist + guard band.

    A caller that wants another precision passes `R` to `saturate`.
    """
    return r + i_max + GUARD


# ---------------------------------------------------------------------------
# the lifted de Rham complex

class LiftComplex:
    """De Rham complex of the standard lift, weight graded, mod p^B.

    Exponents are integers.  Coefficients are Z/p^B for f = 1 and the
    unramified lift Z_q for f > 1, so a coordinate slot is (monomial form,
    coefficient digit).
    """

    def __init__(self, spec: RingSpec, B: int):
        if spec.kind == "quotient":
            raise UnsupportedKind("no torsion-free monomial lift for quotient kinds")
        self.spec = spec
        self.p = spec.p
        self.B = B
        self.q = spec.p**B
        self.f = spec.f
        self.ring = ZmodRing(spec.p, B)
        self.W = Zq(spec.p, spec.f, B) if spec.f > 1 else None
        kind = spec.effective_kind
        self.nvars = spec.nvars if kind != "finite_field" else 0
        self.top = self.nvars
        self.algebra = MonomialAlgebra(spec)

    def frobenius_coeff_matrix(self):
        if self.f == 1:
            return [[1]]
        return [list(row) for row in self.W._frob_matrix]

    def frobenius_inverse_coeff_matrix(self):
        if self.f == 1:
            return [[1]]
        # sigma^{-1} = sigma^{f-1}
        M = self.frobenius_coeff_matrix()
        out = M
        for _ in range(self.f - 2):
            out = mat_mul(self.ring, out, M)
        return out

    def forms(self, n, w):
        """Monomial n-forms of integer weight w."""
        return self.algebra.forms(n, w)

    def rank(self, n, w):
        return len(self.forms(n, w)) * self.f

    def _coords(self, n, w):
        return {form: k for k, form in enumerate(self.forms(n, w))}

    @memo
    def d_matrix(self, n, w):
        """d: (n, w) -> (n+1, w); slots are form x coefficient-digit."""
        src = self.forms(n, w)
        tgt = self._coords(n + 1, w)
        ncols = len(tgt) * self.f
        rows = []
        for form in src:
            base = [0] * len(tgt)
            for g, c in self.algebra.d_form(form):
                base[tgt[g]] = (base[tgt[g]] + c) % self.q
            for digit in range(self.f):
                row = [0] * ncols
                for k, c in enumerate(base):
                    if c:
                        row[k * self.f + digit] = c
                rows.append(row)
        return rows

    @memo
    def f_matrix(self, n, w):
        """F = phi/p^n: (n, w) -> (n, p*w); monomial part has coefficient 1."""
        src = self.forms(n, w)
        tgt = self._coords(n, w * self.p)
        ncols = len(tgt) * self.f
        sigma = self.frobenius_coeff_matrix()
        rows = []
        for form in src:
            k = tgt[self.algebra.frobenius_form(form)]
            for digit in range(self.f):
                row = [0] * ncols
                for digit2 in range(self.f):
                    c = sigma[digit][digit2]
                    if c:
                        row[k * self.f + digit2] = c % self.q
                rows.append(row)
        return rows

    def check_dieudonne_relations(self, weights):
        """dF = pFd on generators, spot check for the given weights."""
        for n in range(0, self.top):
            for w in weights:
                src = self.rank(n, w)
                tgt = self.rank(n + 1, w * self.p)
                A = mat_mul(self.ring, self.f_matrix(n, w), self.d_matrix(n, w * self.p))
                B = mat_mul(self.ring, self.d_matrix(n, w), self.f_matrix(n + 1, w))
                pB = [[(self.p * x) % self.q for x in row] for row in B]

                def pad(M):
                    # empty intermediate spaces collapse products to zero
                    # width; both paths are maps into the (n+1, p w) forms
                    return [list(row) + [0] * (tgt - len(row)) for row in M] or [
                        [0] * tgt for _ in range(src)
                    ]

                if pad(A) != pad(pB):
                    raise AssertionError("dF != pFd on the lift")


def p_times(w, p):
    """The weight p w, as a wkey."""
    return wkey(Fraction(w) * p)


def lift_with_frobenius(spec: RingSpec, B: int) -> LiftComplex:
    """The lifted de Rham complex of spec, or of the ring a perfection wraps."""
    return LiftComplex(spec.base(), B)


# ---------------------------------------------------------------------------
# eta_p (decalage), unrescaled form

def eta_p_lattice(lift: LiftComplex, n: int, w) -> list[list[int]]:
    """Basis of (eta_p M)^n at weight w: {x in p^n M^n : dx in p^(n+1) M^(n+1)}.

    Rows are ambient coordinates mod p^B.  Raises PrecisionExhausted when
    the divisibility conditions eat too far into the working modulus.
    """
    if n + 1 >= lift.B:
        raise PrecisionExhausted("eta_p needs precision above the degree")
    ring = lift.ring
    k = lift.rank(n, w)
    if k == 0:
        return []
    D = lift.d_matrix(n, w)
    kt = lift.rank(n + 1, w)
    pn = lift.p**n
    if kt == 0:
        return howell(ring, identity(k, pn), k)
    # x with dx divisible by p^(n+1), then scaled into p^n M
    cond = preimage(ring, D, identity(kt, lift.p ** (n + 1)))
    rows = [[(pn * x) % ring.q for x in row] for row in cond]
    return howell(ring, rows, k)


def eta_p_differential(lift: LiftComplex, n: int, w, basis, next_basis):
    """The restricted differential of eta_p: basis rows mapped into the
    degree-(n+1) sublattice, expressed in its coordinates."""
    ring = lift.ring
    if not basis:
        return []
    D = lift.d_matrix(n, w)
    out = []
    for img in mat_mul(ring, basis, D):
        if not next_basis:
            if any(img):
                raise PrecisionExhausted("eta_p differential leaves the sublattice")
            out.append([])
            continue
        coords = solve(ring, next_basis, img)
        if coords is None:
            raise PrecisionExhausted("eta_p differential leaves the sublattice")
        out.append(coords)
    return out


# ---------------------------------------------------------------------------
# saturation

class SaturatedModel:
    """The saturated de Rham-Witt complex of a curated ring, per weight.

    Weight-u components (denominator up to p^s_star) are lattices with
    exact matrices for d, F and V; everything is computed lazily per
    weight and certified to have stabilized one eta_p stage beyond the
    working stage.  Methods ending in `_at` take the numerator
    a = u p^s_star of the weight; `num` converts a weight to it, and
    `lattice`, `rank`, `d`, `frob` and `versch` take the weight itself.
    """

    def __init__(self, spec: RingSpec, r_level: int, i_max: int, R: int | None = None):
        if spec.nvars > 1:
            # weight components of the saturation colimit have unbounded rank
            # once there are two variables (V-images need ever deeper eta_p
            # stages), and in a two-variable perfection V sends x^(e/p^s_star)
            # past the denominator cap whenever p does not divide some e_j, so
            # the single-stage lattice model cannot represent either; a
            # level-aware stage-per-depth model is the follow-up
            raise UnsupportedKind(
                "the saturation model covers one-variable poly/laurent kinds, "
                "finite fields and their perfections"
            )
        self.spec = spec
        self.p = spec.p
        self.is_perfection = spec.kind == "perfection"
        self.s_star = r_level + 1
        self.P = self.p**self.s_star
        self.R = R if R is not None else internal_precision(r_level, i_max)
        self.B = self.R + 2 * self.s_star + 2
        self.ring = ZmodRing(self.p, self.R)
        self._amb = ZmodRing(self.p, self.B)
        self.lift = lift_with_frobenius(spec, self.B)
        self.f = spec.f
        self.top = 0 if self.is_perfection else self.lift.top

    # -- the weight boundary -------------------------------------------------

    def num(self, u):
        """The numerator u p^s_star of weight u; None past the denominator cap."""
        a = Fraction(u) * self.P
        return a.numerator if a.denominator == 1 else None

    def lattice(self, n, u):
        a = self.num(u)
        return [] if a is None else self.lattice_at(n, a)

    def rank(self, n, u):
        return len(self.lattice(n, u))

    def d(self, n, u):
        a = self.num(u)
        return [] if a is None else self.d_at(n, a)

    def frob(self, n, u):
        a = self.num(u)
        return [] if a is None else self.frob_at(n, a)

    def versch(self, n, u):
        a = self.num(u)
        return None if a is None else self.versch_at(n, a)

    # -- lattice bases -------------------------------------------------------

    def _stage_lattice(self, n, w, s):
        """E_s basis at lift weight w, in ambient lift coordinates."""
        k = self.lift.rank(n, w)
        if k == 0:
            return []
        kt = self.lift.rank(n + 1, w)
        if kt == 0:
            return identity(k)
        D = self.lift.d_matrix(n, w)
        rows = preimage(self._amb, D, identity(kt, self.p**s))
        return howell(self._amb, rows, k)

    @memo
    def lattice_at(self, n, a):
        """Howell basis of the degree-n component at numerator a (ambient coords)."""
        if self.is_perfection:
            if n != 0:
                return []
            # rank-f free lattice on the Teichmuller monomials of weight a/p^s_star
            count = len(self._perf_monomials(a))
            return identity(count * self.f) if count else []
        basis = self._stage_lattice(n, a, self.s_star)
        if basis:
            self._certify(n, a, basis)
        return basis

    def rank_at(self, n, a):
        return len(self.lattice_at(n, a))

    @memo
    def _perf_monomials(self, a):
        """Numerators e of the monomials x^(e/p^(2 s_star)) of weight a/p^s_star.

        The exponent denominator p^(2 s_star) keeps x^(u/w) for a variable
        of weight w = p^v w' with v <= s_star, whose denominator exceeds
        that of its weight u.
        """
        if a < 0 and not self.spec.is_laurent:
            return []
        return exponents(self.spec.weights, a * self.P)

    def _certify(self, n, a, cur):
        """Stabilization certificate: F is iso from the stage-s_star basis `cur` one stage beyond."""
        nxt = self._stage_lattice(n, a * self.p, self.s_star + 1)
        F = self.lift.f_matrix(n, a)
        img = mat_mul(self._amb, cur, F)
        if len(cur) != len(nxt):
            raise PrecisionExhausted(
                f"saturation not stabilized at degree {n} weight {Fraction(a, self.P)}: "
                f"ranks {len(cur)} -> {len(nxt)}"
            )
        coordM = self._express(img, nxt)
        if coordM is None:
            raise PrecisionExhausted("transition image escapes the next stage")
        # invertibility mod p of the square coordinate matrix
        Fp = ZmodRing(self.p, 1)
        red = [[x % self.p for x in row] for row in coordM]
        H = howell(Fp, red, len(coordM))
        if len(H) != len(coordM) or any(Fp.val(H[i][i]) != 0 for i in range(len(H))):
            raise PrecisionExhausted(
                f"saturation transition not bijective at degree {n} weight {Fraction(a, self.P)}"
            )
        return True

    def _express(self, rows, basis):
        """Coordinates of ambient rows in the given lattice basis."""
        out = []
        for row in rows:
            sol = solve(self._amb, basis, row) if basis else ([] if not any(row) else None)
            if sol is None:
                return None
            out.append([x % self.ring.q for x in sol])
        return out

    # -- structure maps (matrices over Z/p^R in lattice coordinates) ---------

    @memo
    def d_at(self, n, a):
        """d: (n, a) -> (n+1, a)."""
        src = self.lattice_at(n, a)
        tgt = self.lattice_at(n + 1, a)
        if not src or not tgt or self.is_perfection:
            return [[0] * len(tgt) for _ in src]
        D = self.lift.d_matrix(n, a)
        ps = self.P
        img = []
        for h in mat_mul(self._amb, src, D):
            if any(x % ps for x in h):
                raise InexactDivision("saturated differential not divisible")
            img.append([x // ps for x in h])
        out = self._express(img, tgt)
        if out is None:
            raise PrecisionExhausted("d image escapes the target lattice")
        return out

    @memo
    def frob_at(self, n, a):
        """F: (n, a) -> (n, p a)."""
        src = self.lattice_at(n, a)
        tgt = self.lattice_at(n, a * self.p)
        if not src or not tgt:
            return [[0] * len(tgt) for _ in src]
        if self.is_perfection:
            sigma = self.lift.frobenius_coeff_matrix()
            return self._perf_blockmap(a, a * self.p, sigma, 1)
        F = self.lift.f_matrix(n, a)
        img = mat_mul(self._amb, src, F)
        out = self._express(img, tgt)
        if out is None:
            raise PrecisionExhausted("F image escapes the target lattice")
        return out

    @memo
    def versch_at(self, n, a):
        """V = F^{-1} p: (n, a) -> (n, a/p); None when p does not divide a (the denominator cap)."""
        src = self.lattice_at(n, a)
        if a % self.p:
            return None
        down = a // self.p
        tgt = self.lattice_at(n, down)
        if not src or not tgt:
            return [[0] * len(tgt) for _ in src]
        if self.is_perfection:
            sigma_inv = self.lift.frobenius_inverse_coeff_matrix()
            return self._perf_blockmap(a, down, sigma_inv, self.p)
        # solve F z = p y for each basis row y
        F = self.lift.f_matrix(n, down)
        out = []
        for row in src:
            py = [(self.p * x) % self._amb.q for x in row]
            # z in ambient coords at lift weight a/p: solve z . F = py
            z = solve(self._amb, F, py)
            if z is None:
                raise PrecisionExhausted("Verschiebung solve failed (not in F image)")
            if not member(self._amb, howell(self._amb, tgt, len(z)), z):
                raise PrecisionExhausted("Verschiebung image not in the lattice")
            coords = solve(self._amb, tgt, z)
            if coords is None:
                raise PrecisionExhausted("Verschiebung coordinates failed")
            out.append([x % self.ring.q for x in coords])
        return out

    def _perf_blockmap(self, a, target_a, coeff_matrix, scalar):
        """Monomial correspondence m -> m^(p or 1/p) tensored with a coeff map."""
        src_monos = self._perf_monomials(a)
        tgt_monos = self._perf_monomials(target_a)
        idx = {m: k for k, m in enumerate(tgt_monos)}
        up = target_a == a * self.p
        rows = []
        for m in src_monos:
            k = idx[tuple(e * self.p if up else e // self.p for e in m)]
            for digit in range(self.f):
                row = [0] * (len(tgt_monos) * self.f)
                for digit2 in range(self.f):
                    c = coeff_matrix[digit][digit2]
                    row[k * self.f + digit2] = (scalar * c) % self.ring.q
                rows.append(row)
        return rows

    # -- Teichmuller / dlog helpers ------------------------------------------

    def teichmuller_vector(self):
        """Coordinates of [1] in the weight-0 degree-0 lattice."""
        basis = self.lattice_at(0, 0)
        amb = self._one_ambient()
        coords = solve(self._amb, basis, amb)
        if coords is None:
            raise PrecisionExhausted("unit 1 not in the weight-0 lattice")
        return [x % self.ring.q for x in coords]

    def _one_ambient(self):
        if self.is_perfection:
            slots, one = self._perf_monomials(0), (0,) * self.spec.nvars
        else:
            slots, one = self.lift.forms(0, 0), ((0,) * self.lift.nvars, ())
        vec = [0] * (len(slots) * self.f)
        vec[slots.index(one) * self.f] = 1
        return vec

    def dlog_vector(self, var_index):
        """Coordinates of dlog x_j = x_j^{-1} dx_j in the (1, 0) lattice.

        Only exists for laurent kinds (where x_j is a unit); None when the
        degree-1 weight-0 component vanishes (perfections, poly kinds).
        """
        if self.is_perfection or not self.spec.is_laurent:
            return None
        basis = self.lattice_at(1, 0)
        if not basis:
            return None
        forms = self.lift.forms(1, 0)
        target = (tuple(-1 if j == var_index else 0 for j in range(self.lift.nvars)), (var_index,))
        k = forms.index(target)
        vec = [0] * (len(forms) * self.f)
        vec[k * self.f] = 1
        coords = solve(self._amb, basis, vec)
        if coords is None:
            return None
        return [x % self.ring.q for x in coords]


def saturate(spec: RingSpec, r_level: int, i_max: int, R: int | None = None) -> SaturatedModel:
    """Saturated de Rham-Witt model (perfections get the direct W(S) model)."""
    return SaturatedModel(spec, r_level, i_max, R)


# ---------------------------------------------------------------------------
# strict levels W_r = W/(V^r + d V^r)

class StrictLevel:
    """Level-r truncation with induced F, V, d, R maps."""

    def __init__(self, model: SaturatedModel, r: int):
        if model.s_star < r:
            raise PrecisionExhausted("model denominator cap below the requested level")
        self.model = model
        self.r = r
        self.p = model.p
        self.ring = model.ring

    def weights(self, weight_cap):
        return weight_window(weight_cap, self.p ** (self.r - 1), self.model.spec.is_laurent)

    @memo
    def _relations(self, n, a):
        """Generators of V^r W^n_a + d V^r W^(n-1)_a in lattice coordinates (a a numerator)."""
        model, r, p = self.model, self.r, self.p
        k = model.rank_at(n, a)
        rows = []

        def v_iterated(nn):
            """Matrix of V^r from (nn, a p^r) into (nn, a)."""
            cur = a * p**r
            mat = None
            for _ in range(r):
                V = model.versch_at(nn, cur)
                mat = V if mat is None else mat_mul(self.ring, mat, V)
                cur //= p
            return mat

        Vr = v_iterated(n)
        if Vr:
            rows += Vr
        if n >= 1:
            Vr1 = v_iterated(n - 1)
            if Vr1:
                D = model.d_at(n - 1, a)
                rows += mat_mul(self.ring, Vr1, D)
        # p^r times everything is V^r F^r, but include it explicitly so the
        # quotient is visibly killed by p^r at this precision
        rows += identity(k, p**r)
        return normal_form(self.ring, rows, k)

    def group(self, n, u) -> SubQuot:
        a = self.model.num(u)
        if a is None:
            raise PrecisionExhausted("V^r source weight escapes the denominator cap")
        k = self.model.rank_at(n, a)
        return SubQuot(self.ring, k, identity(k), self._relations(n, a))

    def invariants(self, n, u) -> InvariantFactors:
        return self.group(n, u).invariants()

    def d_map(self, n, u):
        return self.group(n, u).induced_map(self.group(n + 1, u), self.model.d(n, u))

    def frob_to_lower(self, other: "StrictLevel", n, u):
        """F: W_r(n, u) -> W_{r-1}(n, p u)."""
        return self.group(n, u).induced_map(other.group(n, p_times(u, self.p)), self.model.frob(n, u))

    def versch_to_higher(self, other: "StrictLevel", n, u):
        V = self.model.versch(n, u)
        if V is None:
            return None
        return self.group(n, u).induced_map(other.group(n, wkey(Fraction(u) / self.p)), V)

    def restriction_from(self, higher: "StrictLevel", n, u):
        """R: W_{r+1}(n, u) -> W_r(n, u), identity on coordinates."""
        return higher.group(n, u).induced_map(self.group(n, u), identity(self.model.rank(n, u)))


def strict_truncate(model: SaturatedModel, r: int) -> StrictLevel:
    return StrictLevel(model, r)


# ---------------------------------------------------------------------------
# mod-p^r comparison: W/p^r versus W_r, per weight

def mod_p_compatibility(spec: RingSpec, r: int, i_max: int, weight_cap) -> bool:
    """Cohomology of (saturated model)/p^r equals that of W_r, per weight."""
    model = saturate(spec, r, i_max)
    level = strict_truncate(model, r)
    ring_r = ZmodRing(spec.p, r)
    for u in level.weights(weight_cap):
        ranks = [model.rank(n, u) for n in range(model.top + 2)]
        if not any(ranks):
            continue
        # mod p^r complex on the free lattices
        mods = {n: FinModPresentation.free(ring_r, ranks[n]) for n in range(model.top + 2)}
        diffs = {
            n: [[x % ring_r.q for x in row] for row in model.d(n, u)]
            for n in range(model.top + 1)
        }
        Cfree = FinComplex(ring_r, mods, diffs, check=False)
        # strict level complex of presented modules
        lmods = {n: level.group(n, u).presentation() for n in range(model.top + 2)}
        ldiffs = {}
        for n in range(model.top + 1):
            m = level.d_map(n, u)
            if m is None:
                return False
            ldiffs[n] = m
        Clevel = FinComplex(model.ring, lmods, ldiffs, check=False)
        for n in range(model.top + 2):
            if homology(Cfree, n) != homology(Clevel, n):
                return False
    return True


# ---------------------------------------------------------------------------
# perfection consistency: bypass model versus honest stage saturation

def perfection_consistency_check(spec: RingSpec, r: int, weight_cap) -> bool:
    """Tiny-cap check that the direct W(S) model matches stage saturation.

    Stage-m approximants are genuinely saturated; their strict level r
    must agree with the direct model at weights of denominator <= p^m,
    and the r-fold composite of the tower transition maps must vanish on
    degree >= 1 (the colimit kills positive-degree forms).
    """
    if spec.kind != "perfection":
        raise UnsupportedKind("consistency check applies to perfection kinds")
    base = spec.base()
    direct = saturate(spec, r, 1)
    dlevel = strict_truncate(direct, r)
    p = spec.p
    smodel = SaturatedModel(base, r, 1)
    slevel = strict_truncate(smodel, r)
    for m in (0, 1):
        if base.kind == "finite_field" and m > 0:
            break
        # stage-m lattice weights scale by 1/p^m relative to the base ring
        for u in dlevel.weights(weight_cap):
            target_den = Fraction(u).denominator
            if target_den > p**m:
                continue
            scaled = wkey(Fraction(u) * p**m)
            got = slevel.invariants(0, scaled)
            want = dlevel.invariants(0, u)
            if got != want:
                return False
    # the tower transition stage m -> m+1 sends a degree-n form to p^n times
    # a relabelled monomial form (dx = p y^{p-1} dy for y = x^{1/p}); on the
    # base model the relabelling is the monomial part of F, so the r-fold
    # composite in degree >= 1 is p^r F^r and must vanish at level r
    if base.kind != "finite_field":
        for u in [w for w in slevel.weights(weight_cap) if Fraction(w) != 0][:4]:
            n = 1
            if not smodel.rank(n, u):
                continue
            mat = identity(smodel.rank(n, u))
            cur = u
            for _ in range(r):
                step = [
                    [(p**n * x) % smodel.ring.q for x in row]
                    for row in smodel.frob(n, cur)
                ]
                mat = mat_mul(smodel.ring, mat, step)
                cur = p_times(cur, p)
            target = slevel.group(n, cur)
            for row in mat:
                coords = target.coords(row)
                if coords is None or not target.presentation().is_zero_element(coords):
                    return False
    return True
