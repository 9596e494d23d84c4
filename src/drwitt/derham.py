"""Kahler differentials, de Rham cohomology, and inverse Cartier maps.

Everything is computed weight by weight: for a quasi-homogeneous ring
the degree-i forms of weight w are a finite-dimensional vector space
with basis the monomial forms m dx_J, and for quotient kinds the
relation multiples span a subspace that is quotiented out by linear
algebra.  The inverse Cartier map is the graded ring map fixed by
    f dx_{j_1} ^ .. ^ dx_{j_i}  |->  f^p x_{j_1}^{p-1}..x_{j_i}^{p-1} dx_J,
read in cohomology; it sends weight w to weight p*w, so bijectivity is a
per-weight rank statement.

Perfections are short-circuited: their Kahler differentials vanish in
positive degrees (d of any monomial is p times another form), and the
degree-0 inverse Cartier map is the p-power bijection.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import UnsupportedBaseChange, UnsupportedKind
from .exactcore import InvariantFactors, SubQuot, gf_rref, normal_form
from .exactcore.gf import subtract_multiple
from .rings import MonomialAlgebra, RingSpec, memo, p_split, window


class _GradedComplex:
    """A complex of GF(p^f)-spaces with degree-i pieces rank(i, *g) and
    differentials d^i per grade g; subclasses supply rank and d_rows, the
    rows of d^i as sparse {basis index: coef} dicts, one per basis form."""

    @memo
    def d_rank(self, i, *g):
        """Rank of d^i at grade g; 0 below degree 0 and on zero spaces."""
        if i < 0 or not self.rank(i, *g) or not self.rank(i + 1, *g):
            return 0
        return len(gf_rref(self.K, self.d_rows(i, *g)))

    def h_dim(self, i, *g):
        """dim H^i at grade g.  Over a field this is rank - rk d^i - rk d^(i-1),
        since d o d = 0: forms are quotiented by I*Omega + d(I*Omega)."""
        return self.rank(i, *g) - self.d_rank(i, *g) - self.d_rank(i - 1, *g)

    def cohomology_subquot(self, i, *g) -> SubQuot:
        """ker(d^i)/im(d^(i-1)) inside the degree-i basis space, for coordinates;
        the kernel is the I-part of the rows of RREF [d^i | I] that are 0 on d^i."""
        n = self.rank(i, *g)
        if n == 0:
            return SubQuot(self.K, 0, [], [])
        m = self.rank(i + 1, *g)
        aug = [{**row, m + k: 1} for k, row in enumerate(self.d_rows(i, *g))]
        z = [[h.get(j, 0) for j in range(m, m + n)] for h in gf_rref(self.K, aug) if min(h) >= m]
        prev = self.d_rows(i - 1, *g) if i >= 1 and self.rank(i - 1, *g) else []
        return SubQuot(self.K, n, z, [[row.get(j, 0) for j in range(n)] for row in prev])

    def cartier_block(self, i, g, images):
        """C^{-1} from a source basis into H^i at the twisted grade g.

        `images` are the basis images, as vectors on the degree-i basis at
        g.  Returns (matrix, passes): the rows in coordinates on the
        generators of H^i, and whether the map is bijective onto H^i (a
        semilinear map over GF(p^f), so its matrix must be).  Returns None
        when there is nothing to check: no source forms and no cocycles at
        g.  C^{-1} of a monomial form is closed, since every exponent of an
        x_k with dx_k absent is a multiple of p; an image off the cocycles
        is a defect and raises.
        """
        n = len(images)
        if n == 0 and self.rank(i, *g) == self.d_rank(i, *g):
            return None
        H = self.cohomology_subquot(i, *g)
        rows = [H.coords(vec) for vec in images]
        if None in rows:
            raise AssertionError(f"a C^-1 image in degree {i} at grade {g} is not a cocycle")
        rank = len(normal_form(self.K, rows, H.gen_count())) if rows else 0
        return rows, n == self.h_dim(i, *g) == rank


class DeRhamComplex(_GradedComplex):
    """Weight-graded de Rham complex of a curated (non-perfection) ring."""

    def __init__(self, spec: RingSpec, i_max: int, weight_cap):
        if spec.is_perfection:
            raise UnsupportedKind(
                "perfections are short-circuited (zero forms in positive degrees); "
                "use derham_cohomology / cartier_smooth_check directly"
            )
        self.spec = spec
        self.algebra = MonomialAlgebra(spec)
        self.K = self.algebra.K
        self.i_max = i_max
        self.weight_cap = Fraction(weight_cap)
        self._check_leibniz_dd()

    # -- weight bookkeeping -------------------------------------------------

    def weights(self):
        return window(self.weight_cap, 1, self.spec.is_laurent)

    def degrees(self):
        return range(0, self.i_max + 1)

    # -- bases and differential -----------------------------------------------

    def rank(self, i, w):
        return len(self.algebra.component(i, w)[1])

    @memo
    def d_rows(self, i, w):
        """d on basis forms, weight preserved.  The d_form terms of one form
        are distinct forms; on quotient kinds they are reduced through
        component's pivot rows and re-keyed by basis position."""
        A, p = self.algebra, self.spec.p
        raw_s, basis_s, _ = A.component(i, w)
        idx_t = {form: k for k, form in enumerate(A.forms(i + 1, w))}
        rows = [{idx_t[form]: c % p for form, c in A.d_form(raw_s[k]) if c % p} for k in basis_s]
        if self.spec.kind != "quotient":
            return rows
        pos = {k: b for b, k in enumerate(A.component(i + 1, w)[1])}
        return [{pos[t]: c for t, c in A.reduce_terms(i + 1, w, row).items()} for row in rows]

    def _check_leibniz_dd(self):
        # d must be well-defined on quotients and square to zero; checked on
        # the generator forms of small weight at construction time, by
        # composing the sparse rows of d^i and d^(i+1)
        K = self.K
        for w in self.weights()[:6]:
            for i in self.degrees():
                if not self.rank(i, w) or not self.rank(i + 1, w):
                    continue
                B = self.d_rows(i + 1, w)
                for row in self.d_rows(i, w):
                    image = {}
                    for k, c in row.items():
                        subtract_multiple(K, image, K.neg(c), B[k])
                    if image:
                        raise AssertionError(f"d o d != 0 in degree {i} at weight {w}")

    # -- cohomology and the inverse Cartier map --------------------------------

    def cohomology(self, i, w) -> InvariantFactors:
        return InvariantFactors((self.K.p,) * (self.h_dim(i, w) * self.K.f))

    def inverse_cartier(self, i) -> dict:
        """{w: {"matrix", "passes"}}: cartier_block of C^{-1} from weight w
        into H^i at weight p*w, one row per basis form of weight w."""
        A, p = self.algebra, self.spec.p
        out = {}
        for w in self.weights():
            if abs(p * w) > self.weight_cap:
                continue
            raw_s, basis_s, _ = A.component(i, w)
            idx_t = {form: k for k, form in enumerate(A.forms(i, p * w))}
            basis_t = A.component(i, p * w)[1]
            images = []
            for k in basis_s:
                img = A.reduce_terms(i, p * w, {idx_t[A.frobenius_form(raw_s[k])]: 1})
                images.append([img.get(t, 0) for t in basis_t])
            block = self.cartier_block(i, (p * w,), images)
            if block:
                out[w] = {"matrix": block[0], "passes": block[1]}
        return out


def derham_table(spec: RingSpec, maxdeg: int, weight_cap) -> dict:
    """{i: derham_cohomology(spec, i, weight_cap)} for i <= maxdeg, read off one complex."""
    omega = None if spec.is_perfection else DeRhamComplex(spec, maxdeg + 1, weight_cap)
    return {i: derham_cohomology(spec, i, weight_cap, omega) for i in range(maxdeg + 1)}


def derham_cohomology(spec: RingSpec, i: int, weight_cap, omega=None) -> dict:
    """H^i per weight as InvariantFactors (abelian-group reporting), read
    off omega (a DeRhamComplex of spec through degree i + 1) when given."""
    if spec.is_perfection:
        if spec.nvars > 1:
            raise UnsupportedKind(
                "a perfection in two or more variables has infinite weight pieces; "
                "de Rham tables cover one-variable perfections"
            )
        # positive-degree forms vanish
        weights = window(weight_cap, 1, spec.is_laurent) if i == 0 else ()
        return {u: H0 for u in weights if not (H0 := perfection_h0(spec, u)).is_trivial()}
    C = omega or DeRhamComplex(spec, i + 1, weight_cap)
    return {w: C.cohomology(i, w) for w in C.weights() if C.rank(i, w)}


def perfection_h0(spec: RingSpec, u) -> InvariantFactors:
    """H^0 at the integer weight u of a perfection in at most one variable.

    It is the ring itself, spanned by x^(u/w) when that exponent lies in
    Z[1/p], i.e. when the prime-to-p part `unit` of the variable weight w
    divides u (a ring without variables has unit 0 and lives at weight 0).
    """
    unit = p_split(spec.weights[0], spec.p)[1] if spec.weights else 0
    return InvariantFactors((spec.p,) * spec.f if u == 0 or (unit and u % unit == 0) else ())


# ---------------------------------------------------------------------------
# inverse Cartier

def cartier_smooth_check(spec: RingSpec, i_max: int, weight_cap) -> dict:
    """Bijectivity of C^{-1} per degree and weight, with failure witnesses.

    The verdict is per the computed window only; flatness of the
    cotangent complex is not certified here and quotient kinds are
    labelled accordingly.
    """
    report = {
        "ring": spec.describe(),
        "degrees": {},
        "verdict": None,
        "witness": None,
        "flatness_checked": False,
    }
    if spec.is_perfection:
        # Omega^{>0} = 0 and C^{-1} in degree 0 is the p-power bijection on
        # monomials; nothing finite to refute
        report["degrees"] = {0: {"all_pass": True, "weights": {}}}
        report["verdict"] = "consistent-with-Cartier-smooth up to caps"
        report["note"] = "perfection short-circuit"
        return report
    C = DeRhamComplex(spec, i_max + 1, weight_cap)
    for i in range(i_max + 1):
        wrow = {}
        for w, block in sorted(C.inverse_cartier(i).items()):
            wrow[w] = block["passes"]
            if not block["passes"] and report["witness"] is None:
                n, target_dim = len(block["matrix"]), C.h_dim(i, spec.p * w)
                report["witness"] = {"degree": i, "weight": w, "source_rank": n, "target_dim": target_dim}
        report["degrees"][i] = {"all_pass": all(wrow.values()), "weights": wrow}
    report["verdict"] = (
        "consistent-with-Cartier-smooth up to caps"
        if all(d["all_pass"] for d in report["degrees"].values())
        else "fails Cartier-smoothness"
    )
    if spec.kind == "quotient":
        report["note"] = "flatness of the cotangent complex not checked; Cartier-map clause only"
    return report


# ---------------------------------------------------------------------------
# relative version and base change

class RelativeCartier(_GradedComplex):
    """The inverse Cartier map of B relative to the subring A.

    A is the coefficient subring generated by a subset of B's variables
    (and the full field of constants); relative forms only involve the
    remaining variables and everything is bigraded by (A-weight,
    relative weight).  The relative map leaves A-variables and constants
    untwisted and raises the rest to p-th powers.
    """

    def __init__(self, b_spec: RingSpec, a_vars: tuple[str, ...], i_max: int, weight_cap):
        if b_spec.kind not in ("poly", "laurent"):
            raise UnsupportedBaseChange("relative checks support poly/laurent kinds only")
        for v in a_vars:
            if v not in b_spec.variables:
                raise UnsupportedBaseChange(f"{v} is not a variable of the ambient ring")
        self.spec = b_spec
        self.algebra = MonomialAlgebra(b_spec)
        self.K = self.algebra.K
        self.i_max = i_max
        self.cap = int(weight_cap)
        self.a_idx = tuple(b_spec.variables.index(v) for v in a_vars)

    def bigrades(self):
        weights = window(self.cap, 1, self.spec.is_laurent)
        for u in weights:
            for v in weights:
                yield (u, v)

    @memo
    def forms(self, i, u, v):
        """Relative monomial i-forms with A-weight u and relative weight v: the
        i-forms of weight u + v with no dx_a and an A-part of weight u."""
        a_idx, weights = set(self.a_idx), self.spec.weights
        return [
            (m, J)
            for m, J in self.algebra.forms(i, u + v)
            if a_idx.isdisjoint(J) and sum(weights[j] * m[j] for j in a_idx) == u
        ]

    def rank(self, i, u, v):
        return len(self.forms(i, u, v))

    @memo
    def d_rows(self, i, u, v):
        idx = {f: k for k, f in enumerate(self.forms(i + 1, u, v))}
        d_form, p = self.algebra.d_form, self.spec.p
        # terms in dx_a for an A-variable a are not relative forms
        return [{idx[g]: c % p for g, c in d_form(f) if g in idx and c % p} for f in self.forms(i, u, v)]

    def check(self) -> dict:
        """Pass bit and matrix of the relative C^{-1} from each bigrade (u, v)
        to (u, p*v), keyed (i, u, v), as cartier_block gives them."""
        result = {"all_pass": True, "blocks": {}, "matrix_support": {}}
        p = self.spec.p
        for i in range(self.i_max + 1):
            for u, v in self.bigrades():
                if abs(p * v) > self.cap:
                    continue
                idx = {f: k for k, f in enumerate(self.forms(i, u, p * v))}
                images = []
                for exps, J in self.forms(i, u, v):
                    # A-variables are coefficients: C^{-1} leaves them untwisted
                    img, _ = self.algebra.frobenius_form((exps, J))
                    timg = tuple(a if j in self.a_idx else e for j, (a, e) in enumerate(zip(exps, img)))
                    vec = [0] * len(idx)
                    vec[idx[(timg, J)]] = 1
                    images.append(vec)
                block = self.cartier_block(i, (u, p * v), images)
                if block:
                    M, passes = block
                    result["blocks"][(i, u, v)] = passes
                    result["matrix_support"][(i, u, v)] = tuple(map(tuple, M))
                    result["all_pass"] = result["all_pass"] and passes
        return result


def base_change_check(b_spec: RingSpec, a_vars, change: str, i_max: int, weight_cap) -> dict:
    """Relative Cartier data before/after a curated flat base change.

    change = "extend:k" replaces the field of constants by its degree-k
    extension; change = "localize:x" inverts the named polynomial
    variable.  The report gives both pass verdicts and whether every block
    of the original map keeps its matrix on monomial bases (for a field
    extension of the prime field it must).
    """
    kind_, _, arg = change.partition(":")
    if kind_ == "extend":
        if not arg.isdecimal() or int(arg) < 1:
            raise UnsupportedBaseChange(f"field extension needs a positive integer degree, got {arg!r}")
        if b_spec.f != 1:
            raise UnsupportedBaseChange("field extension base change starts from f = 1")
        changed = {"f": int(arg)}
    elif kind_ == "localize":
        if b_spec.kind != "poly" or b_spec.nvars != 1:
            raise UnsupportedBaseChange("localization base change: one-variable poly only")
        if arg and arg != b_spec.variables[0]:
            raise UnsupportedBaseChange(f"{arg} is not the polynomial variable")
        changed = {"kind": "laurent"}
    else:
        raise UnsupportedBaseChange(f"unknown base change {change!r}")
    # RingSpec(...) rather than _replace, which would skip RingSpec's checks
    new_spec = RingSpec(**{**b_spec._asdict(), **changed})
    before = RelativeCartier(b_spec, tuple(a_vars), i_max, weight_cap).check()
    after = RelativeCartier(new_spec, tuple(a_vars), i_max, weight_cap).check()
    return {
        "before": before["all_pass"],
        "after": after["all_pass"],
        "verdict_preserved": before["all_pass"] == after["all_pass"],
        "matrices_correspond": all(
            after["matrix_support"].get(key) == M for key, M in before["matrix_support"].items()
        ),
    }
