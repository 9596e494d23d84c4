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
   d.  V = F^{-1} p and d are p-powers times units on the lattices, so each
   group is L / p^e L for its lattice L, e read off the lattice exponents.

The model refuses more than one variable, so each lattice is p^c I on
the f coefficient digits of one monomial form, and d, F and V are closed
forms per weight: the scalar (a/m) p^c / P, p^c sigma and p^(c+1)
sigma^-1, read in the target lattice, where sigma is the lift's
Frobenius on the digits (see SaturatedModel).

Stabilization of the E_s chain per weight is certified empirically (one
transition step past the working stage must be an isomorphism); it is a
checked hypothesis of the model, not a proved bound.  The certificate is
decided on lattice exponents: F from p^c I at stage s_star to p^c' I at
stage s_star + 1 is sigma on the digits, an isomorphism exactly when the
ranks agree, c = c' and sigma is invertible mod p.  Each fact it reads is
checked on the lift's forms, not on a matrix: one form per degree at the
weight, `d_form` a multiple e = w/m of the next one, and `frobenius_form`
x^e -> x^(p e); sigma mod p is tested once per model.

Inside a model a weight u is its integer numerator a = u p^s_star, which
is the lift weight of the working stage (F is a -> p a, V is a -> a/p
when p divides a); every per-weight method of `SaturatedModel` takes a,
and true weights appear only at `StrictLevel.weights` and in the
cross-checks, which convert with `SaturatedModel.num`; a window is the
integer range `rings.window` of numerators over one denominator.

The denominator policy lives in `SaturatedModel.__init__` alone.  The
lift slot x^e at numerator a = u p^s_star stands for x^(e/p^s_star), of
weight u.  For a variable of weight m = p^v m' with m' prime to p, the
exponent u/m has up to v more powers of p in its denominator than u, so
the working stage is s_star = r + 1 + v (v = 0 without a variable): it
keeps every exponent of the level-r window as far below the stage as
r + 1 does for m = 1.  A perfection has the saturated complex W(S) in
degree 0 and reads its forms off the lift of its base ring through the
same slots.

All lattices live at finite precision p^B with B comfortably above the
reported precision; maps between lattice coordinate systems are exact
modulo the reported modulus, and every division by p is checked.

The model owns the size budgets of what it builds: `SaturatedModel`
refuses a precision p^B whose residues take more than PRECISION_BITS_MAX
bits before it forms p^B or the lift, and `StrictLevel.weights` refuses
a window of more than DRW_WINDOW_MAX weights before it lists one.
"""

from __future__ import annotations

from fractions import Fraction
from math import log2

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
    power,
)
from .rings import MonomialAlgebra, RingSpec, memo, p_split, window

GUARD = 2
# Size budgets; the times are on a 2-vCPU VM with Python 3.11.
# A model works modulo p^B, B = R + 2 s_star + 2, and a residue over GF(p^f)
# takes f B log2(p) bits, as does each lattice entry, sigma entry and
# Newton step of the Frobenius lift.  At 2^14 bits the slowest verbs are
# drw table at the drw window budget (a p = 2 poly ring, --level 15
# --maxdeg 16332, 2.9-3.6 s) and kpredict at f = 24 (--modp 222, 4.0-4.6 s;
# at f = 16, --modp 336 takes 2.0-2.6 s); at 2^15 bits kpredict at f = 16
# (--modp 678) takes 10.2 s.
PRECISION_BITS_MAX = 2**14
# StrictLevel.weights lists about cap p^(r-1) weights (twice that on a Laurent
# ring), and drw table spends some 40 us and 3.2 KB on each.  At the default
# cap a p = 3 poly ring walks 78733 at level 10 in 3.0-4.2 s and 248 MB; a
# p = 2 poly ring walks 65537 at level 15 in 2.5-2.8 s and 131073 at level 16
# in 7.0 s and 407 MB, which the budget refuses.
DRW_WINDOW_MAX = 10**5


def _exceeds_bits(p, e, bits):
    """Whether a residue mod p^e takes more than `bits` bits, p^e unformed (e > bits settles it, as p >= 2)."""
    return e > bits or e * log2(p) > bits


def internal_precision(r: int, i_max: int) -> int:
    """Working precision exponent: level + top twist + guard band.

    A caller that wants another precision passes `R` to `saturate`.
    """
    return r + i_max + GUARD


# ---------------------------------------------------------------------------
# the lifted de Rham complex

class LiftComplex:
    """De Rham complex of the standard lift, weight graded, mod p^B.

    Exponents are integers.  Coefficients are the unramified lift Z_q of
    GF(p^f) mod p^B (Z/p^B for f = 1), so a coordinate slot is (monomial
    form, coefficient digit).  d and F act on the forms through
    `algebra.d_form` and `algebra.frobenius_form`, and on the digits as
    the integer coefficient and as sigma = `W._frob_matrix`; the model
    reads them there and forms no matrix of them.
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
        self.W = Zq(spec.p, spec.f, B)
        kind = spec.effective_kind
        self.nvars = spec.nvars if kind != "finite_field" else 0
        self.top = self.nvars
        self.algebra = MonomialAlgebra(spec)

    def forms(self, n, w):
        """Monomial n-forms of integer weight w."""
        return self.algebra.forms(n, w)

    def rank(self, n, w):
        return len(self.forms(n, w)) * self.f


def lift_with_frobenius(spec: RingSpec, B: int) -> LiftComplex:
    """The lifted de Rham complex of spec, or of the ring a perfection wraps."""
    return LiftComplex(spec.base(), B)


# ---------------------------------------------------------------------------
# saturation

class SaturatedModel:
    """The saturated de Rham-Witt complex of a curated ring, per weight.

    Weight-u components (denominator up to p^s_star) are lattices p^c I,
    built lazily once per class_at key and certified to have stabilized
    one eta_p stage beyond the working stage; d, F and V on them are
    closed forms (see `_onto`).  Methods ending in `_at` take the
    numerator a = u p^s_star of the weight; `num` converts a weight to it.

    The working stage is s_star = r_level + 1 + v for a variable of weight
    p^v m' with m' prime to p (v = 0 without a variable), the one
    denominator policy of the model.  A perfection reads its forms off
    `lift`, the lift of its base ring, through the same methods as every
    other ring; only its lattices (the free module on the degree-0 forms,
    with no certificate) and `top = 0` are its own.
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
        # the variable weight m = p^v m' (m' prime to p); v = 0 and no m' without one variable
        v, self._weight_prime_to_p = p_split(spec.weights[0], self.p) if spec.nvars == 1 else (0, None)
        self.s_star = r_level + 1 + v
        self.R = R if R is not None else internal_precision(r_level, i_max)
        self.B = self.R + 2 * self.s_star + 2
        if _exceeds_bits(self.p, spec.f * self.B, PRECISION_BITS_MAX):
            field = f"GF({self.p}^{spec.f})" if spec.f > 1 else f"GF({self.p})"
            given = f"twist bound {i_max}" if R is None else f"precision R = {R}"
            raise PrecisionExhausted(
                f"a level-{r_level} model with {given} works modulo {self.p}^B, B = {self.B},"
                f" whose residues over {field} take more than {PRECISION_BITS_MAX} bits, the precision budget"
            )
        self.P = self.p**self.s_star
        self.ring = ZmodRing(self.p, self.R)
        self._amb = ZmodRing(self.p, self.B)
        self.lift = lift_with_frobenius(spec, self.B)
        self.f = spec.f
        self.top = 0 if self.is_perfection else self.lift.top
        # sigma and sigma^-1 on the coefficient digits, the blocks of F and V
        self._sigma = [[c % self.lift.q for c in row] for row in self.lift.W._frob_matrix]
        # sigma has order f (sigma = I at f = 1), so sigma^-1 = sigma^(f-1), formed by
        # binary powering in O(f^3 log f) operations
        self._sigma_inv = power(lambda x, y: mat_mul(self._amb, x, y), self._sigma, max(1, self.f - 1))
        # whether sigma is invertible mod p, which every certificate reads: one f x f Howell form per model
        Fp = ZmodRing(self.p, 1)
        H = howell(Fp, [[x % self.p for x in row] for row in self._sigma], self.f)
        self._sigma_unit = len(H) == self.f and all(Fp.val(H[i][i]) == 0 for i in range(self.f))
        if self.is_perfection:
            # no certificate reads a perfection's F, so check it here once
            self._check_frobenius(0, 0)
        self._lattices = {}  # (degree, class_at key) -> basis, built at the first numerator that asks

    def num(self, u):
        """The numerator u p^s_star of weight u; None past the denominator cap."""
        a = Fraction(u) * self.P
        return a.numerator if a.denominator == 1 else None

    @memo
    def class_at(self, a):
        """Class key of numerator a: numerators with one key have isomorphic lattices.

        For one variable of weight m = p^v m' (m' prime to p) the key is
        "zero" at a = 0; "none" when m' does not divide a, or a < 0 on a
        ring that is not Laurent, since then no monomial has weight a / P;
        and v_p(a) otherwise, without the sign of a.  A spec without a
        variable, whose lift has forms at weight 0 only, has "zero" at
        a = 0 and "none" elsewhere.  The key is computed in integers, once
        per numerator.

        Soundness.  A model at numerator a reads the lift at a p^j, j >= 0.
        The lift has no form at a numerator of class "none", nor at one of
        class k < v (m does not divide it).  Two numerators a, a' of one
        class k >= v have lift exponents e = a / m and e' = a' / m with
        v_p(e) = v_p(e') = k - v, so at a p^j and a' p^j the lift has one
        monomial form per degree <= top (degree 1 on a poly ring too, where
        e and e' are positive), d is e p^j or e' p^j times the identity on
        the coefficient digits, and F is x^e -> x^(p e) tensored with
        sigma, the same matrix at both.  So E_s = {x : x d in p^s M} is
        p^c I with the same c at every stage, the certificate passes or
        fails at both, and the strict relations V^r, V^r d and p^r, whose
        maps differ by the unit u(a') / u(a) on d only (u the signed
        prime-to-p part), span the same submodule.  So lattices and strict
        groups are kept per class; d, F and V are closed forms per
        numerator.  A perfection's lattice is the free module on the lift's
        degree-0 forms, whose rank the key fixes the same way.
        synlog._orbit_fibers extends the rescaling by u to whole orbits.
        The de Rham side of synlog.nygaard_graded_check at weight e m is
        x^e -> e x^(e-1) dx over GF(p^f), or nothing (a perfection reads H^0
        off the same monomial), so it too depends only on the key.
        """
        m = self._weight_prime_to_p
        if a == 0:
            return "zero"
        if m is None or a % m or (a < 0 and not self.spec.is_laurent):
            return "none"
        return p_split(a, self.p)[0]

    # -- lattice bases -------------------------------------------------------

    def _stage_lattice(self, n, w, s):
        """E_s basis at lift weight w, in ambient lift coordinates: p^c I, c = max(0, s - v_p(e)).

        Soundness: nvars <= 1 => d = e I_f.  With at most one variable the
        lift has at most one monomial form per degree at weight w, so d on
        x^e is the exponent e = w/m times the identity on the f coefficient
        digits (the zero matrix at e = 0).  Then x d = e x lies in p^s M
        exactly when x lies in p^(s - v_p(e)) M, and p^c I is the Howell
        basis of that lattice.  The shape is checked on the forms: the lift
        has one form at (n, w) and one at (n+1, w), and `d_form` sends the
        first to e times the second (or to nothing, e = 0) with e = w/m mod
        p^B.  So a lift that breaks the assumption raises instead of
        returning a wrong lattice, and d_at may read the scalar off a and m.
        """
        src = self.lift.forms(n, w)
        if not src:
            return []
        k = len(src) * self.f
        tgt = self.lift.forms(n + 1, w)
        if not tgt:
            return identity(k)
        terms = self.lift.algebra.d_form(src[0])
        if len(src) != 1 or len(tgt) != 1 or [g for g, _ in terms] not in ([], tgt):
            raise AssertionError(f"d at degree {n}, lift weight {w} is not a scalar matrix")
        e = terms[0][1] % self.lift.q if terms else 0
        if e != w // self.spec.weights[0] % self.lift.q:
            raise AssertionError(f"d at degree {n}, lift weight {w} is {e}, not w/m mod p^B")
        c = max(0, s - p_split(e, self.p)[0]) if e else 0
        return identity(k, self.p**c)

    def lattice_at(self, n, a):
        """Howell basis of the degree-n component at numerator a (ambient coords), once per class_at key."""
        key = n, self.class_at(a)
        basis = self._lattices.get(key)
        if basis is None:
            if self.is_perfection:
                # the free lattice on the Teichmuller monomials x^(e/p^s_star)
                # of the lift's degree-0 forms x^e; W(S) has no higher degrees
                basis = identity(self.ambient_rank_at(n, a))
            else:
                basis = self._stage_lattice(n, a, self.s_star)
                if basis:
                    self._certify(n, a, basis)
            self._lattices[key] = basis
        return basis

    def rank_at(self, n, a):
        return len(self.lattice_at(n, a))

    def ambient_rank_at(self, n, a):
        """Rank of the ambient module at numerator a, without building a lattice.

        It equals `rank_at`: E_s contains p^s M with s < B, so its Howell
        basis has a pivot in every ambient column; a perfection's lattice is
        the free module on the lift's forms, which stops at degree top = 0.
        """
        return self.lift.rank(n, a) if n <= self.top else 0

    def _check_frobenius(self, n, w):
        """The lift's F at degree n, lift weight w, checked to be sigma (frob_at and versch_at assume it).

        F is x^e -> x^(p e) tensored with sigma on the digits, so it is
        sigma in the one-form bases exactly when `frobenius_form` sends the
        one form at (n, w) to the one form at (n, p w).
        """
        src, tgt = self.lift.forms(n, w), self.lift.forms(n, w * self.p)
        if len(src) != 1 or len(tgt) != 1 or self.lift.algebra.frobenius_form(src[0]) != tgt[0]:
            raise AssertionError(f"F at degree {n}, lift weight {w} is not sigma on the coefficient digits")

    def _certify(self, n, a, cur):
        """Stabilization certificate: F is iso from the stage-s_star basis `cur` one stage beyond.

        Decided on lattice exponents.  `cur` is p^c I at (a, s_star) and the
        stage-(s_star+1) lattice at p a is p^c' I (see _stage_lattice); F
        between them is sigma on the digits (_check_frobenius).  So F sends
        `cur` to the rows of p^c sigma.  When sigma is invertible mod p
        (tested once, in __init__), each of its rows has an entry prime to
        p, so the image lies in p^c' I exactly when c >= c', and its
        coordinates there, p^(c - c') sigma, are invertible mod p exactly
        when c = c'.  The ranks are compared first.
        """
        nxt = self._stage_lattice(n, a * self.p, self.s_star + 1)
        self._check_frobenius(n, a)
        if len(cur) != len(nxt):
            raise PrecisionExhausted(
                f"saturation not stabilized at degree {n} weight {Fraction(a, self.P)}: "
                f"ranks {len(cur)} -> {len(nxt)}"
            )
        # p^c and p^c', each below p^B, compare as integers
        if cur[0][0] < nxt[0][0]:
            raise PrecisionExhausted("transition image escapes the next stage")
        if cur[0][0] != nxt[0][0] or not self._sigma_unit:
            raise PrecisionExhausted(
                f"saturation transition not bijective at degree {n} weight {Fraction(a, self.P)}"
            )
        return True

    def _express(self, rows, basis):
        """Coordinates mod p^R of ambient rows in a lattice basis p^c I; None if one escapes.

        Every lattice passed here is p^c I: a stage lattice (see
        _stage_lattice) or a perfection's free lattice (c = 0).  So a row
        lies in it exactly when p^c divides each entry, and its coordinates
        are the quotients.  They are unique mod p^R: any two solutions x of
        x p^c = row agree mod p^(B - c), and B - c >= R because c <= s_star + 1
        and B = R + 2 s_star + 2.
        """
        pc, q = basis[0][0], self.ring.q
        out = []
        for row in rows:
            if any(x % pc for x in row):
                return None
            out.append([x // pc % q for x in row])
        return out

    # -- structure maps (matrices over Z/p^R in lattice coordinates) ---------

    def _onto(self, x, M, tgt, escaped):
        """x M in the coordinates of the lattice tgt = p^c' I, mod p^R.

        A map that is a multiple of M on the digits (M = I, sigma or sigma^-1,
        a unit matrix) sends the source basis p^c I to x M, x a multiple of
        p^c; that lies in tgt exactly when p^c' divides x.
        """
        pc, q = tgt[0][0], self.ring.q
        if x % pc:
            raise PrecisionExhausted(escaped)
        c = x // pc % q
        return [[c * y % q for y in row] for row in M]

    @memo
    def d_at(self, n, a):
        """d: (n, a) -> (n+1, a): the lift's d, e = a/m times I (see _stage_lattice), over P."""
        src, tgt = self.lattice_at(n, a), self.lattice_at(n + 1, a)
        if not src or not tgt:
            return [[0] * len(tgt) for _ in src]
        x = a // self.spec.weights[0] * src[0][0]
        if x % self.P:
            raise InexactDivision("saturated differential not divisible")
        return self._onto(x // self.P, identity(len(src)), tgt, "d image escapes the target lattice")

    def frob_at(self, n, a):
        """F: (n, a) -> (n, p a): the lift's F, x^e -> x^(p e) tensored with sigma (see _certify)."""
        src, tgt = self.lattice_at(n, a), self.lattice_at(n, a * self.p)
        if not src or not tgt:
            return [[0] * len(tgt) for _ in src]
        return self._onto(src[0][0], self._sigma, tgt, "F image escapes the target lattice")

    def versch_at(self, n, a):
        """V = F^{-1} p: (n, a) -> (n, a/p), z = p y sigma^-1; None when p does not divide a (the cap)."""
        if a % self.p:
            return None
        src, tgt = self.lattice_at(n, a), self.lattice_at(n, a // self.p)
        if not src or not tgt:
            return [[0] * len(tgt) for _ in src]
        return self._onto(self.p * src[0][0], self._sigma_inv, tgt, "Verschiebung image not in the lattice")

    # -- Teichmuller / dlog helpers ------------------------------------------

    def teichmuller_vector(self):
        """Coordinates of [1] in the weight-0 degree-0 lattice."""
        basis = self.lattice_at(0, 0)
        coords = self._express([self._one_ambient()], basis)
        if coords is None:
            raise PrecisionExhausted("unit 1 not in the weight-0 lattice")
        return coords[0]

    def _one_ambient(self):
        slots, one = self.lift.forms(0, 0), ((0,) * self.lift.nvars, ())
        vec = [0] * (len(slots) * self.f)
        vec[slots.index(one) * self.f] = 1
        return vec

    def dlog_vector(self, var_index):
        """Coordinates of dlog x_j = x_j^{-1} dx_j in the (1, 0) lattice.

        Only exists for laurent kinds (where x_j is a unit); None when the
        degree-1 weight-0 component vanishes (perfections, poly kinds).
        """
        if not self.spec.is_laurent:
            return None
        basis = self.lattice_at(1, 0)
        if not basis:
            return None
        forms = self.lift.forms(1, 0)
        target = (tuple(-1 if j == var_index else 0 for j in range(self.lift.nvars)), (var_index,))
        k = forms.index(target)
        vec = [0] * (len(forms) * self.f)
        vec[k * self.f] = 1
        coords = self._express([vec], basis)
        return None if coords is None else coords[0]


def saturate(spec: RingSpec, r_level: int, i_max: int, R: int | None = None) -> SaturatedModel:
    """Saturated de Rham-Witt model (perfections get the direct W(S) model)."""
    return SaturatedModel(spec, r_level, i_max, R)


# ---------------------------------------------------------------------------
# strict levels W_r = W/(V^r + d V^r)

class StrictLevel:
    """Level-r truncation: its groups W_r^n at each weight and the induced d."""

    def __init__(self, model: SaturatedModel, r: int):
        if model.s_star < r:
            raise PrecisionExhausted("model denominator cap below the requested level")
        self.model = model
        self.r = r
        self.p = model.p
        self.ring = model.ring
        self._groups = {}  # (degree, class_at key) -> SubQuot, built at the first weight that asks
        self._exponents = {}  # (degree, class_at key) -> e, the group being (Z/p^e)^rank

    def weights(self, weight_cap):
        """The level-r weights; the numerator range is counted and refused past DRW_WINDOW_MAX before one is made."""
        den = self.p ** (self.r - 1)
        nums = window(weight_cap, den, self.model.spec.is_laurent)
        if len(nums) > DRW_WINDOW_MAX:
            raise PrecisionExhausted(
                f"a level-{self.r} window with weight cap {weight_cap} holds more than {DRW_WINDOW_MAX} weights,"
                " the drw window budget"
            )
        return [k // den if k % den == 0 else Fraction(k, den) for k in nums]

    def _exponent(self, n, a):
        """e with W_r^n at numerator a = p^c I / p^(c+e) I, the lattice there p^c I (0 at rank 0).

        Soundness.  One step of V, (n, b) -> (n, b/p), is p^(1 + c(n, b) -
        c(n, b/p)) sigma^-1 (`versch_at`), so V^r from (n, a p^r) telescopes
        to p^(r + c(n, a p^r) - c(n, a)) sigma^-r; d from (n-1, a) is
        (a/m) p^(c(n-1, a) - s_star - c(n, a)) I (`d_at`, see `_onto`).  sigma
        is a unit mod p (tested once in SaturatedModel.__init__), so the rows
        of V^r, V^r d and p^r I span p^x I, x their least exponent, which is
        e; V^r d at rank 0 (or a = 0, where d = 0) adds no row, and a class
        has one rank along a, a p, ..., a p^r (see class_at).
        """
        model, r, p = self.model, self.r, self.p
        lats = [model.lattice_at(nn, b) for nn, b in ((n, a), (n, a * p**r), (n - 1, a * p**r))]
        if not lats[0]:
            return 0
        here, v_src, d_src = (p_split(lat[0][0], p)[0] if lat else None for lat in lats)
        e = min(r, r + v_src - here)
        if d_src is not None and a:
            e = min(e, r + d_src + p_split(a // model.spec.weights[0], p)[0] - model.s_star - here)
        return e

    def _class(self, n, u):
        """(n, class_at key), rank and exponent at weight u; the exponent and the group are kept per key."""
        a = self.model.num(u)
        if a is None:
            raise PrecisionExhausted("V^r source weight escapes the denominator cap")
        key = n, self.model.class_at(a)
        if key not in self._exponents:
            self._exponents[key] = self._exponent(n, a)
        return key, self.model.rank_at(n, a), self._exponents[key]

    def group(self, n, u) -> SubQuot:
        """W_r^n at weight u, once per class_at key: the lattice coordinates I over p^e I."""
        key, k, e = self._class(n, u)
        if key not in self._groups:
            self._groups[key] = SubQuot(self.ring, k, identity(k), identity(k, self.p**e))
        return self._groups[key]

    def invariants(self, n, u) -> InvariantFactors:
        """(Z/p^e)^k at weight u, read off the exponent; no group is built."""
        _, k, e = self._class(n, u)
        return InvariantFactors((self.p**e,) * k if e else ())

    def d_map(self, n, u):
        a = self.model.num(u)
        return self.group(n, u).induced_map(self.group(n + 1, u), self.model.d_at(n, a))


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
        a = model.num(u)
        ranks = [model.rank_at(n, a) for n in range(model.top + 2)]
        if not any(ranks):
            continue
        # mod p^r complex on the free lattices
        mods = {n: FinModPresentation.free(ring_r, ranks[n]) for n in range(model.top + 2)}
        diffs = {
            n: [[x % ring_r.q for x in row] for row in model.d_at(n, a)]
            for n in range(model.top + 1)
        }
        Cfree = FinComplex(ring_r, mods, diffs)
        # strict level complex of presented modules
        lmods = {n: level.group(n, u).presentation() for n in range(model.top + 2)}
        ldiffs = {}
        for n in range(model.top + 1):
            m = level.d_map(n, u)
            if m is None:
                return False
            ldiffs[n] = m
        Clevel = FinComplex(model.ring, lmods, ldiffs)
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
            got = slevel.invariants(0, Fraction(u) * p**m)
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
            a = smodel.num(u)
            if not smodel.rank_at(n, a):
                continue
            mat = identity(smodel.rank_at(n, a))
            for _ in range(r):
                step = [
                    [(p**n * x) % smodel.ring.q for x in row]
                    for row in smodel.frob_at(n, a)
                ]
                mat = mat_mul(smodel.ring, mat, step)
                a *= p
            target = slevel.group(n, u * p**r)
            if not all(member(smodel.ring, target.b, row) for row in mat):
                return False
    return True
