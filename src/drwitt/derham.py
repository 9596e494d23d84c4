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
from itertools import combinations

from .errors import UnsupportedBaseChange, UnsupportedKind
# gf_rref is not called here since rings owns the quotient presentations; the
# name stays because perfbench's tracer patches `derham.gf_rref`
from .exactcore import InvariantFactors, SubQuot, gf_rank, gf_rref, identity, kernel, mat_mul  # noqa: F401
from .rings import MonomialAlgebra, RingSpec, exponents, memo, weight_window


class DeRhamComplex:
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

    # -- cohomology ------------------------------------------------------------

    def cohomology_subquot(self, i, w) -> SubQuot:
        return _cohomology_subquot(self.K, lambda j: self.rank(j, w), lambda j: self.d_matrix(j, w), i)

    def cohomology(self, i, w) -> InvariantFactors:
        return self.cohomology_subquot(i, w).invariants()


def _cohomology_subquot(K, rank, d_matrix, i) -> SubQuot:
    """ker(d^i)/im(d^(i-1)) inside the degree-i basis space, given the
    per-degree rank and differential of a complex of GF(p^f)-spaces."""
    n = rank(i)
    if n == 0:
        return SubQuot(K, 0, [], [])
    z = kernel(K, d_matrix(i)) if rank(i + 1) else identity(n)
    prev = d_matrix(i - 1) if i >= 1 and rank(i - 1) else []
    return SubQuot(K, n, z, prev)


def kaehler(spec: RingSpec, i_max: int, weight_cap) -> DeRhamComplex:
    """The weight-truncated de Rham complex; rejects perfections."""
    return DeRhamComplex(spec, i_max, weight_cap)


def derham_cohomology(spec: RingSpec, i: int, weight_cap) -> dict:
    """H^i per weight as InvariantFactors (abelian-group reporting)."""
    if spec.is_perfection:
        # positive-degree forms vanish; H^0 is the ring itself in each weight
        out = {}
        if i == 0:
            alg = MonomialAlgebra(spec)
            for w in weight_window(weight_cap, 1, spec.is_laurent):
                dim = len(alg.monomials(w)) * spec.f
                if dim:
                    out[w] = InvariantFactors((spec.p,) * dim)
        return out
    C = DeRhamComplex(spec, i + 1, weight_cap)
    return {w: C.cohomology(i, w) for w in C.weights() if C.rank(i, w)}


# ---------------------------------------------------------------------------
# inverse Cartier

def inverse_cartier(spec: RingSpec, i: int, weight_cap) -> dict:
    """Per source weight w: the matrix of C^{-1} into H^i at weight p*w.

    Returns {w: (matrix, source_rank, target_subquot)}; the matrix rows
    are indexed by the basis of the weight-w twist component.  The map is
    semilinear over GF(p^f) (coefficients are raised to the p-th power),
    so over the prime field the returned matrix is plainly linear.
    """
    C = DeRhamComplex(spec, i + 1, weight_cap)
    A, p = C.algebra, spec.p
    out = {}
    for w in C.weights():
        if Fraction(p * w) > C.weight_cap or Fraction(p * w) < -C.weight_cap:
            continue
        n = C.rank(i, w)
        H = C.cohomology_subquot(i, p * w)
        if n == 0 and H.gen_count() == 0:
            continue
        raw_s, basis_s, _ = A.component(i, w)
        idx_t = {form: k for k, form in enumerate(A.forms(i, p * w))}
        rows = []
        ok = True
        for k in basis_s:
            vec = [0] * len(idx_t)
            vec[idx_t[A.frobenius_form(raw_s[k])]] = 1
            coords = H.coords(A.reduce_form_vector(i, p * w, vec))
            if coords is None:
                ok = False
                break
            rows.append(coords)
        out[w] = {"matrix": rows if ok else None, "source_rank": n, "target": H}
    return out


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
    ok = True
    witness = None
    for i in range(i_max + 1):
        data = inverse_cartier(spec, i, weight_cap)
        wrow = {}
        for w, entry in sorted(data.items()):
            n = entry["source_rank"]
            H = entry["target"]
            hdim = H.presentation().invariants()
            target_dim = len(hdim.torsion) // max(spec.f, 1)
            M = entry["matrix"]
            if M is None:
                passes = False
            else:
                rank = gf_rank(spec.gf(), M, H.gen_count()) if M else 0
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

class RelativeCartier:
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
        self.b_idx = tuple(j for j in range(b_spec.nvars) if j not in self.a_idx)

    def bigrades(self):
        window = weight_window(self.cap, 1, self.spec.is_laurent)
        for u in window:
            for v in window:
                yield (u, v)

    @memo
    def forms(self, i, u, v):
        """Relative monomial i-forms with A-weight u and relative weight v."""
        spec = self.spec
        out = []
        amonos = self._monos(self.a_idx, u)
        for J in combinations(self.b_idx, i):
            wJ = sum(spec.weights[j] for j in J)
            for mb in self._monos(self.b_idx, v - wJ):
                for ma in amonos:
                    exps = [0] * spec.nvars
                    for j, e in zip(self.a_idx, ma):
                        exps[j] = e
                    for j, e in zip(self.b_idx, mb):
                        exps[j] = e
                    out.append((tuple(exps), J))
        return out

    def _monos(self, idxs, target):
        """Exponents on the variables idxs of total weight target."""
        if target < 0 and not self.spec.is_laurent:
            return []
        return exponents([self.spec.weights[j] for j in idxs], target)

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

    def cohomology_subquot(self, i, u, v) -> SubQuot:
        return _cohomology_subquot(
            self.K, lambda j: len(self.forms(j, u, v)), lambda j: self.d_matrix(j, u, v), i
        )

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
                M, H, _ = self.cartier_matrix(i, u, v)
                hdim = len(H.presentation().invariants().torsion) // max(self.spec.f, 1)
                if not src and hdim == 0:
                    continue
                if M is None:
                    passes = False
                else:
                    passes = len(src) == hdim and (
                        gf_rank(self.K, M, H.gen_count()) == len(src) if M else hdim == 0
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
