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
from .exactcore import InvariantFactors, SubQuot, gf_rref, identity, kernel, mat_mul
from .rings import MonomialAlgebra, RingSpec, memo, p_split, weight_window


class _GradedComplex:
    """A complex of GF(p^f)-spaces with degree-i pieces rank(i, *g) and
    differentials d_matrix(i, *g) per grade g; subclasses supply both."""

    @memo
    def d_rank(self, i, *g):
        """Rank of d^i at grade g; 0 below degree 0 and on zero spaces."""
        if i < 0 or not self.rank(i, *g) or not self.rank(i + 1, *g):
            return 0
        return len(gf_rref(self.K, self.d_matrix(i, *g), self.rank(i + 1, *g)))

    def h_dim(self, i, *g):
        """dim H^i at grade g.  Over a field this is rank - rk d^i - rk d^(i-1),
        since d o d = 0: forms are quotiented by I*Omega + d(I*Omega)."""
        return self.rank(i, *g) - self.d_rank(i, *g) - self.d_rank(i - 1, *g)

    def cohomology_subquot(self, i, *g) -> SubQuot:
        """ker(d^i)/im(d^(i-1)) inside the degree-i basis space, for coordinates."""
        n = self.rank(i, *g)
        if n == 0:
            return SubQuot(self.K, 0, [], [])
        z = kernel(self.K, self.d_matrix(i, *g)) if self.rank(i + 1, *g) else identity(n)
        prev = self.d_matrix(i - 1, *g) if i >= 1 and self.rank(i - 1, *g) else []
        return SubQuot(self.K, n, z, prev)


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
        return weight_window(self.weight_cap, 1, self.spec.is_laurent)

    def degrees(self):
        return range(0, self.i_max + 1)

    # -- bases and differential -----------------------------------------------

    def rank(self, i, w):
        return len(self.algebra.component(i, w)[1])

    @memo
    def d_matrix(self, i, w):
        """Matrix of d on basis coordinates, weight preserved."""
        A, p = self.algebra, self.spec.p
        raw_s, basis_s, _ = A.component(i, w)
        idx_t = {form: k for k, form in enumerate(A.forms(i + 1, w))}
        rows = []
        for k in basis_s:
            vec = [0] * len(idx_t)
            for form, c in A.d_form(raw_s[k]):
                vec[idx_t[form]] = self.K.add(vec[idx_t[form]], c % p)
            rows.append(A.reduce_form_vector(i + 1, w, vec))
        return rows

    def _check_leibniz_dd(self):
        # d must be well-defined on quotients and square to zero; checked on
        # the generator forms of small weight at construction time
        for w in self.weights()[: min(6, len(self.weights()))]:
            for i in self.degrees():
                A = self.d_matrix(i, w)
                B = self.d_matrix(i + 1, w)
                if not A or not B:
                    continue
                assert not any(any(img) for img in mat_mul(self.K, A, B)), "d o d != 0"

    # -- cohomology and the inverse Cartier map --------------------------------

    def cohomology(self, i, w) -> InvariantFactors:
        return InvariantFactors((self.K.p,) * (self.h_dim(i, w) * self.K.f))

    def inverse_cartier(self, i) -> dict:
        """Per source weight w: the matrix of C^{-1} into H^i at weight p*w.

        Returns {w: {"matrix", "source_rank", "target"}}: one row per basis
        form of weight w, in coordinates on the generators of the SubQuot
        "target" (the matrix is None if an image is not a cocycle).  The map
        is semilinear over GF(p^f), so over the prime field it is linear.
        """
        A, p = self.algebra, self.spec.p
        out = {}
        for w in self.weights():
            if Fraction(p * w) > self.weight_cap or Fraction(p * w) < -self.weight_cap:
                continue
            n = self.rank(i, w)
            # skip a weight with no forms and no cocycles at p*w
            if n == 0 and self.rank(i, p * w) == self.d_rank(i, p * w):
                continue
            H = self.cohomology_subquot(i, p * w)
            raw_s, basis_s, _ = A.component(i, w)
            idx_t = {form: k for k, form in enumerate(A.forms(i, p * w))}
            rows = []
            for k in basis_s:
                vec = [0] * len(idx_t)
                vec[idx_t[A.frobenius_form(raw_s[k])]] = 1
                coords = H.coords(A.reduce_form_vector(i, p * w, vec))
                if coords is None:
                    rows = None
                    break
                rows.append(coords)
            out[w] = {"matrix": rows, "source_rank": n, "target": H}
        return out


def kaehler(spec: RingSpec, i_max: int, weight_cap) -> DeRhamComplex:
    """The weight-truncated de Rham complex; rejects perfections."""
    return DeRhamComplex(spec, i_max, weight_cap)


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
        # positive-degree forms vanish; H^0 is the ring itself in each weight,
        # spanned by x^(u/w) when that exponent lies in Z[1/p], i.e. when the
        # prime-to-p part `unit` of the variable weight w divides u (a ring
        # without variables has unit 0 and lives at weight 0)
        unit = p_split(spec.weights[0], spec.p)[1] if spec.weights else 0
        out = {}
        if i == 0:
            for u in weight_window(weight_cap, 1, spec.is_laurent):
                if u == 0 or (unit and u % unit == 0):
                    out[u] = InvariantFactors((spec.p,) * spec.f)
        return out
    C = omega or DeRhamComplex(spec, i + 1, weight_cap)
    return {w: C.cohomology(i, w) for w in C.weights() if C.rank(i, w)}


# ---------------------------------------------------------------------------
# inverse Cartier

def inverse_cartier(spec: RingSpec, i: int, weight_cap) -> dict:
    """DeRhamComplex.inverse_cartier(i) on a complex built for degree i."""
    return DeRhamComplex(spec, i + 1, weight_cap).inverse_cartier(i)


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
    ok = True
    witness = None
    for i in range(i_max + 1):
        wrow = {}
        for w, entry in sorted(C.inverse_cartier(i).items()):
            n = entry["source_rank"]
            target_dim = C.h_dim(i, spec.p * w)
            M = entry["matrix"]
            if M is None:
                passes = False
            else:
                rank = len(gf_rref(C.K, M, entry["target"].gen_count())) if M else 0
                # semilinear bijectivity: matrix part must be a bijection
                passes = n == target_dim and rank == n
            wrow[w] = passes
            if not passes and witness is None:
                witness = {"degree": i, "weight": w, "source_rank": n, "target_dim": target_dim}
            ok = ok and passes
        report["degrees"][i] = {"all_pass": all(wrow.values()) if wrow else True, "weights": wrow}
    report["verdict"] = (
        "consistent-with-Cartier-smooth up to caps" if ok else "fails Cartier-smoothness"
    )
    report["witness"] = witness
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
        window = weight_window(self.cap, 1, self.spec.is_laurent)
        for u in window:
            for v in window:
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

    def d_matrix(self, i, u, v):
        src = self.forms(i, u, v)
        tgt = self.forms(i + 1, u, v)
        idx = {f: k for k, f in enumerate(tgt)}
        rows = []
        for f in src:
            vec = [0] * len(tgt)
            # terms in dx_a for an A-variable a are not relative forms
            for g, c in self.algebra.d_form(f):
                if g in idx:
                    vec[idx[g]] = self.K.add(vec[idx[g]], c % self.spec.p)
            rows.append(vec)
        return rows

    def cartier_matrix(self, i, u, v):
        """Matrix of the relative C^{-1} from bigrade (u, v) to (u, p*v)."""
        p = self.spec.p
        src = self.forms(i, u, v)
        H = self.cohomology_subquot(i, u, p * v)
        tgt = self.forms(i, u, p * v)
        idx = {f: k for k, f in enumerate(tgt)}
        rows = []
        for exps, J in src:
            # A-variables are coefficients: C^{-1} leaves them untwisted
            img, _ = self.algebra.frobenius_form((exps, J))
            timg = tuple(a if j in self.a_idx else e for j, (a, e) in enumerate(zip(exps, img)))
            vec = [0] * len(tgt)
            vec[idx[(timg, J)]] = 1
            coords = H.coords(vec)
            if coords is None:
                return None, H, src
            rows.append(coords)
        return rows, H, src

    def check(self) -> dict:
        result = {"all_pass": True, "blocks": {}, "matrix_support": {}}
        cap = self.cap
        for i in range(self.i_max + 1):
            for (u, v) in self.bigrades():
                if abs(self.spec.p * v) > cap:
                    continue
                src = self.forms(i, u, v)
                hdim = self.h_dim(i, u, self.spec.p * v)
                if not src and hdim == 0:
                    continue
                M, H, _ = self.cartier_matrix(i, u, v)
                if M is None:
                    passes = False
                else:
                    passes = len(src) == hdim and (
                        len(gf_rref(self.K, M, H.gen_count())) == len(src) if M else hdim == 0
                    )
                result["blocks"][(i, u, v)] = passes
                if M is not None:
                    result["matrix_support"][(i, u, v)] = tuple(
                        tuple(row) for row in M
                    )
                result["all_pass"] = result["all_pass"] and passes
        return result


def relative_cartier_check(b_spec: RingSpec, a_vars, i_max: int, weight_cap) -> dict:
    return RelativeCartier(b_spec, tuple(a_vars), i_max, weight_cap).check()


def base_change_check(b_spec: RingSpec, a_vars, change: str, i_max: int, weight_cap) -> dict:
    """Relative Cartier data before/after a curated flat base change.

    change = "extend:k" replaces the field of constants by its degree-k
    extension; change = "localize:x" inverts the named polynomial
    variable.  The conclusion checked is that the base-changed relative
    map has the same pass table, and (for field extensions starting from
    the prime field) literally the same matrices on monomial bases.
    """
    before = relative_cartier_check(b_spec, a_vars, i_max, weight_cap)
    kind_, _, arg = change.partition(":")
    if kind_ == "extend":
        k = int(arg)
        if b_spec.f != 1:
            raise UnsupportedBaseChange("field extension base change starts from f = 1")
        new_spec = RingSpec(
            p=b_spec.p,
            kind=b_spec.kind,
            variables=b_spec.variables,
            weights=b_spec.weights,
            relations=b_spec.relations,
            f=k,
            base_kind=b_spec.base_kind,
        )
        after = relative_cartier_check(new_spec, a_vars, i_max, weight_cap)
        matrices_match = all(
            after["matrix_support"].get(key) == val
            for key, val in before["matrix_support"].items()
        )
        return {
            "before": before["all_pass"],
            "after": after["all_pass"],
            "verdict_preserved": before["all_pass"] == after["all_pass"],
            "matrices_correspond": matrices_match,
        }
    if kind_ == "localize":
        if b_spec.kind != "poly" or b_spec.nvars != 1:
            raise UnsupportedBaseChange("localization base change: one-variable poly only")
        if arg and arg != b_spec.variables[0]:
            raise UnsupportedBaseChange(f"{arg} is not the polynomial variable")
        new_spec = RingSpec(
            p=b_spec.p,
            kind="laurent",
            variables=b_spec.variables,
            weights=b_spec.weights,
            f=b_spec.f,
        )
        after = relative_cartier_check(new_spec, a_vars, i_max, weight_cap)
        return {
            "before": before["all_pass"],
            "after": after["all_pass"],
            "verdict_preserved": before["all_pass"] == after["all_pass"],
        }
    raise UnsupportedBaseChange(f"unknown base change {change!r}")
