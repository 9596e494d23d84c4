"""The curated ring family: specs, parsing, enumeration, monomial arithmetic.

A ring spec names one of
    finite_field(f)            GF(p^f)
    poly(x_1..x_k)             GF(p^f)[x_1..x_k], quasi-homogeneous weights
    laurent(x)                 GF(p^f)[x, x^-1]   (one variable, so weight
                               components stay finite dimensional)
    quotient(vars, rels)       poly modulo quasi-homogeneous relations
    perfection of poly/laurent/finite_field

Elements are sparse dicts {exponent tuple: GF code}; exponents are ints,
or Fractions with p-power denominator for perfections.  Everything is
weight graded and all per-weight components are finite dimensional,
which is what makes the downstream lattice computations finite.

This module is the one owner of enumeration and of monomial forms:
    exponents(weights, target)   exponent tuples of one weight, lex order
    MonomialAlgebra.forms(n, w)  monomial n-forms (m, J) of weight w
    MonomialAlgebra.d_form, .frobenius_form   d and F = phi/p^n on one form
    MonomialAlgebra.component(n, w)  the quotient presentation of n-forms
    sign_insert(j, J)            sign of dx_j ^ dx_J and the sorted index
    p_split(w, p)                (v, u) with w = u p^v, u prime to p
    window(cap, den, laurent)    the numerators k of the weights k/den a
                                 table or model runs over, as a range
    RingSpec.base()              the ring a perfection is taken of

Text format (one spec per file):
    p = 3
    kind = poly | laurent | quotient | finite_field | perfection of <kind>
    vars = x:1, y:3          name:weight pairs
    rels = y^2 - x^3; ...    quotient only
    f = 2                    residue field extension degree (default 1)
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import wraps
from itertools import combinations
from operator import add

from .errors import NonQuasiHomogeneous, ParseError, UnsupportedKind
from .exactcore import GF, gf_rref
from .exactcore.gf import subtract_multiple

KINDS = ("finite_field", "poly", "laurent", "quotient", "perfection")
PERFECTABLE = ("poly", "laurent", "finite_field")


def memo(method):
    """Cache a method's results per instance, keyed by its positional arguments.

    The table is a dict in the instance __dict__, so it is freed together
    with the instance.
    """
    slot = f"_memo_{method.__name__}"

    @wraps(method)
    def cached(self, *args):
        # a membership test, not a caught KeyError: a miss is common
        table = self.__dict__.get(slot)
        if table is None:
            table = self.__dict__[slot] = {}
        elif args in table:
            return table[args]
        value = table[args] = method(self, *args)
        return value

    return cached


def wkey(w):
    """Canonical weight key: plain int when integral.

    `type(w) is Fraction` skips `isinstance`'s ABCMeta check on int keys.
    """
    if type(w) is Fraction and w.denominator == 1:
        return int(w)
    return w


def exponents(weights, target):
    """Integer exponent tuples e with sum(e_j * weights_j) == target, in lex order.

    Every exponent but the last runs over 0, 1, ...; the last is solved by
    one divmod.  Nothing bounds a lone exponent below, so with a single
    weight a negative target gives the negative (Laurent) exponent; the
    polynomial kinds pass target >= 0.
    """
    if not weights:
        return [()] if target == 0 else []
    *head, last = weights
    out = []

    def rec(k, rem, prefix):
        if k == len(head):
            e, r = divmod(rem, last)
            if r == 0:
                out.append(prefix + (e,))
            return
        w = head[k]
        for e in range(rem // w + 1):
            rec(k + 1, rem - e * w, prefix + (e,))

    rec(0, target, ())
    return out


def p_split(w, p):
    """(v, u) with w = u p^v and u prime to p, for w != 0."""
    v = 0
    while w % p == 0:
        w //= p
        v += 1
    return v, w


PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# the least strong pseudoprime to every base in PRIME_BASES (Sorenson-Webster)
PRIME_BOUND = 3317044064679887385961981


def is_prime(n):
    """Deterministic Miller-Rabin with the first 13 primes as bases.

    Exact for n < PRIME_BOUND; a larger n raises ParseError instead of a guess.
    """
    if n >= PRIME_BOUND:
        raise ParseError(f"cannot certify {n} prime: the primality test is exact only below {PRIME_BOUND}")
    if n < 2:
        return False
    if any(n % b == 0 for b in PRIME_BASES):
        return n in PRIME_BASES
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    # n is a strong probable prime to base b iff b^d = 1 or b^(d 2^k) = -1 for some k < s
    for b in PRIME_BASES:
        if pow(b, d, n) != 1 and all(pow(b, d << k, n) != n - 1 for k in range(s)):
            return False
    return True


def sign_insert(j, J):
    """Sign and sorted result of inserting dx_j into dx_J; None if j in J."""
    if j in J:
        return None, None
    before = sum(1 for l in J if l < j)
    return (-1) ** before, tuple(sorted(J + (j,)))


def window(cap, den, laurent):
    """Numerators k of the weights k/den with 0 <= k/den <= cap (|k/den| <= cap if laurent), as a range.

    It is the one place floor(cap den) is computed; len() counts the
    window and `in` tests membership without listing it.
    """
    cap = Fraction(cap)
    hi = cap.numerator * den // cap.denominator
    return range(-hi if laurent else 0, hi + 1)


class RingSpec(namedtuple("RingSpec", "p kind variables weights relations f base_kind")):
    """One curated ring; relations is a tuple of ((coeff, exps), ...) homogeneous polys."""

    __slots__ = ()

    def __new__(cls, p, kind, variables=(), weights=(), relations=(), f=1, base_kind=None):
        self = super().__new__(cls, p, kind, variables, weights, relations, f, base_kind)
        if kind not in KINDS:
            raise UnsupportedKind(f"unknown ring kind {kind!r}")
        if not isinstance(f, int) or f < 1:
            raise UnsupportedKind(f"the field of constants needs a degree f >= 1, got {f!r}")
        if kind == "perfection":
            if base_kind not in PERFECTABLE:
                raise UnsupportedKind("perfection only wraps poly, laurent or finite_field")
        if kind == "laurent" or (kind == "perfection" and base_kind == "laurent"):
            if len(variables) != 1:
                raise UnsupportedKind(
                    "laurent rings are restricted to one variable so weight "
                    "components stay finite dimensional"
                )
        if any(w <= 0 for w in weights):
            raise NonQuasiHomogeneous("variable weights must be positive")
        if kind == "quotient":
            for rel in relations:
                if not rel:
                    raise UnsupportedKind("a relation needs at least one nonzero term")
                wts = {self.monomial_weight(exps) for _, exps in rel}
                if len(wts) > 1:
                    raise NonQuasiHomogeneous(
                        f"relation is not quasi-homogeneous for the declared weights: {wts}"
                    )
        return self

    # -- structure helpers ------------------------------------------------

    @property
    def effective_kind(self):
        return self.base_kind if self.kind == "perfection" else self.kind

    @property
    def is_perfection(self):
        return self.kind == "perfection"

    @property
    def is_laurent(self):
        return self.effective_kind == "laurent"

    @property
    def nvars(self):
        return len(self.variables)

    def gf(self) -> GF:
        return GF(self.p, self.f)

    def base(self) -> "RingSpec":
        """The ring a perfection is taken of; any other spec is its own base."""
        if not self.is_perfection:
            return self
        return RingSpec(
            p=self.p,
            kind=self.base_kind,
            variables=self.variables,
            weights=self.weights,
            f=self.f,
        )

    def monomial_weight(self, exps):
        return sum((Fraction(e) * w for e, w in zip(exps, self.weights)), Fraction(0))

    def describe(self):
        fld = f"GF({self.p}^{self.f})" if self.f > 1 else f"GF({self.p})"
        base = {
            "finite_field": fld,
            "poly": "poly",
            "laurent": "laurent",
            "quotient": "quotient",
        }
        if self.kind == "perfection":
            return f"perfection of {base[self.base_kind]}({','.join(self.variables)})"
        if self.kind == "finite_field":
            return base["finite_field"]
        return f"{base[self.kind]}({','.join(self.variables)})"


# ---------------------------------------------------------------------------
# expression parsing (relations, CLI components)

def _tokenize(text, line_no=1):
    tokens = []
    i, col = 0, 1
    while i < len(text):
        c = text[i]
        if c in " \t":
            i += 1
            col += 1
            continue
        if c.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(("INT", int(text[i:j]), col))
            col += j - i
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("NAME", text[i:j], col))
            col += j - i
            i = j
            continue
        if c in "+-*^()/":
            tokens.append((c, c, col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {c!r}", line_no, col)
    return tokens


def parse_poly(text, variables, K: GF, line_no=1, allow_fractional=False):
    """Parse a polynomial expression into ((coeff_code, exps), ...).

    Supports integer coefficients, the field generator `t` when f > 1,
    `name^exp` powers, and exponents `a/b` (parenthesised or bare) when
    allow_fractional is set.
    """
    tokens = _tokenize(text, line_no)
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else ("END", None, None)

    def take(kind=None):
        nonlocal pos
        tok = peek()
        if kind and tok[0] != kind:
            raise ParseError(f"expected {kind}, found {tok[1]!r}", line_no, tok[2])
        pos += 1
        return tok

    def parse_exponent():
        neg = False
        if peek()[0] == "(":
            take("(")
            val = parse_exponent()
            take(")")
            return val
        if peek()[0] == "-":
            take("-")
            neg = True
        num = take("INT")[1]
        den = 1
        if peek()[0] == "/":
            take("/")
            den = take("INT")[1]
            if den == 0:
                raise ParseError("exponent denominator is zero", line_no)
        val = Fraction(num, den)
        if den != 1 and not allow_fractional:
            raise ParseError("fractional exponents only allowed for perfections", line_no)
        return -val if neg else val

    nvar = len(variables)
    var_index = {v: i for i, v in enumerate(variables)}

    def parse_factor():
        tok = peek()
        if tok[0] == "INT":
            take()
            return (tok[1] % K.p, tuple(Fraction(0) for _ in range(nvar)))
        if tok[0] == "NAME":
            take()
            name = tok[1]
            exp = Fraction(1)
            if peek()[0] == "^":
                take("^")
                exp = parse_exponent()
            if name in var_index:
                exps = tuple(exp if i == var_index[name] else Fraction(0) for i in range(nvar))
                return (1, exps)
            if name == "t" and K.f > 1:
                if exp.denominator != 1 or exp < 0:
                    raise ParseError("field generator needs a nonnegative integer power", line_no)
                gen = K._encode([0, 1] + [0] * (K.f - 2))
                return (K.power(gen, int(exp)), tuple(Fraction(0) for _ in range(nvar)))
            raise ParseError(f"unknown variable {name!r}", line_no, tok[2])
        raise ParseError(f"unexpected token {tok[1]!r}", line_no, tok[2])

    def parse_term():
        coeff, exps = parse_factor()
        while peek()[0] == "*" or peek()[0] in ("NAME", "INT"):
            if peek()[0] == "*":
                take("*")
            c2, e2 = parse_factor()
            coeff = K.mul(coeff, c2)
            exps = tuple(a + b for a, b in zip(exps, e2))
        return coeff, exps

    terms = {}
    sign = 1
    if peek()[0] in ("+", "-"):
        sign = -1 if take()[0] == "-" else 1
    while True:
        coeff, exps = parse_term()
        if sign < 0:
            coeff = K.neg(coeff)
        key = tuple(wkey(e) for e in exps)
        terms[key] = K.add(terms.get(key, 0), coeff)
        tok = peek()
        if tok[0] == "END":
            break
        if tok[0] not in ("+", "-"):
            raise ParseError(f"expected + or -, found {tok[1]!r}", line_no, tok[2])
        sign = -1 if take()[0] == "-" else 1
    return tuple(sorted((c, e) for e, c in terms.items() if c))


def parse_ringspec(text: str) -> RingSpec:
    """Parse the ring-spec text format; errors carry line positions."""
    fields = {}
    order = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError("expected `key = value`", ln)
        key, _, value = line.partition("=")
        key = key.strip()
        if key in fields:
            raise ParseError(f"duplicate field {key!r}", ln)
        fields[key] = (value.strip(), ln)
        order.append(key)
    if "p" not in fields:
        raise ParseError("missing `p = <prime>` line", 1)
    p_text, p_ln = fields.pop("p")
    try:
        p = int(p_text)
    except ValueError:
        raise ParseError(f"p must be an integer, found {p_text!r}", p_ln)
    if not is_prime(p):
        raise ParseError(f"p = {p} is not prime", p_ln)
    if "kind" not in fields:
        raise ParseError("missing `kind = ...` line", 1)
    kind_text, kind_ln = fields.pop("kind")
    base_kind = None
    if kind_text.startswith("perfection"):
        kind = "perfection"
        rest = kind_text[len("perfection"):].strip()
        if rest.startswith("of"):
            base_kind = rest[2:].strip()
        else:
            raise ParseError("perfection needs a base: `kind = perfection of poly`", kind_ln)
    else:
        kind = kind_text
    if kind not in KINDS:
        raise ParseError(f"unknown kind {kind_text!r}", kind_ln)

    variables, weights = (), ()
    if "vars" in fields:
        v_text, v_ln = fields.pop("vars")
        names, wts = [], []
        for part in v_text.split(","):
            part = part.strip()
            if not part:
                continue
            if ":" in part:
                name, _, w = part.partition(":")
                try:
                    wts.append(int(w))
                except ValueError:
                    raise ParseError(f"bad weight {w!r}", v_ln)
                names.append(name.strip())
            else:
                names.append(part)
                wts.append(1)
        variables, weights = tuple(names), tuple(wts)

    f = 1
    if "f" in fields:
        f_text, f_ln = fields.pop("f")
        try:
            f = int(f_text)
        except ValueError:
            raise ParseError(f"f must be an integer, found {f_text!r}", f_ln)
        if f < 1:
            raise ParseError("f must be >= 1", f_ln)

    relations = ()
    if "rels" in fields:
        r_text, r_ln = fields.pop("rels")
        if kind != "quotient":
            raise ParseError("rels only allowed for quotient kinds", r_ln)
        K = GF(p, f)
        rels = []
        for chunk in r_text.split(";"):
            chunk = chunk.strip()
            if chunk:
                rel = parse_poly(chunk, variables, K, r_ln)
                if not rel:
                    raise ParseError(f"relation {chunk!r} is zero over {K!r}", r_ln)
                rels.append(rel)
        relations = tuple(rels)

    if fields:
        key = next(iter(fields))
        raise ParseError(f"unknown field {key!r}", fields[key][1])

    needs_vars = kind in ("poly", "laurent", "quotient") or (
        kind == "perfection" and base_kind in ("poly", "laurent")
    )
    if needs_vars and not variables:
        raise ParseError("this kind needs a `vars = name:weight, ...` line", 1)
    if kind == "finite_field" or (kind == "perfection" and base_kind == "finite_field"):
        variables, weights = (), ()

    return RingSpec(
        p=p,
        kind=kind,
        variables=variables,
        weights=weights,
        relations=relations,
        f=f,
        base_kind=base_kind,
    )


# ---------------------------------------------------------------------------
# the weight-graded algebra

class MonomialAlgebra:
    """Weight-graded arithmetic and monomial forms for one RingSpec.

    Handles the free kinds exactly; quotient kinds are reduced per weight
    against the linear span of the relation multiples, so every element
    has a canonical normal form.  This class is the one owner of the rules
    for monomial forms m dx_J: d (`d_form`), the Frobenius image
    (`frobenius_form`) and the quotient presentation (`component`).
    """

    def __init__(self, spec: RingSpec):
        self.spec = spec
        self.K = spec.gf()
        if spec.kind == "quotient":
            self._relations = [self._relation_data(rel) for rel in spec.relations]
            # rows over GF(p) have the same RREF over GF(p) as over GF(p^f)
            p = spec.p
            in_gf_p = all(c < p for _, terms, _ in self._relations for _, c in terms)
            self._row_field = GF(p) if in_gf_p else self.K

    def _relation_data(self, rel):
        """(weight, terms, d terms) of one relation: its terms as (exps, code)
        with like terms merged, and its d as (j, exps, code, -code) for the
        terms code x^exps dx_j whose integer coefficient is prime to p."""
        K, p = self.K, self.spec.p
        merged = {}
        for c, exps in rel:
            merged[exps] = K.add(merged.get(exps, 0), c)
        terms = [(exps, c) for exps, c in merged.items() if c]
        dterms = []
        for exps, c in terms:
            for j, e in enumerate(exps):
                if e % p:
                    dc = K.mul(c, e % p)
                    dterms.append((j, exps[:j] + (e - 1,) + exps[j + 1:], dc, K.neg(dc)))
        return wkey(self.spec.monomial_weight(rel[0][1])), terms, dterms

    # -- element helpers ---------------------------------------------------

    def zero(self):
        return {}

    def one(self):
        return {self._zero_exps(): 1}

    def _zero_exps(self):
        return tuple(0 for _ in self.spec.variables)

    def constant(self, code):
        return {self._zero_exps(): code} if code else {}

    def add(self, a, b):
        out = dict(a)
        for exps, c in b.items():
            s = self.K.add(out.get(exps, 0), c)
            if s:
                out[exps] = s
            else:
                out.pop(exps, None)
        return self.reduce(out)

    def neg(self, a):
        return {e: self.K.neg(c) for e, c in a.items()}

    def scal(self, code, a):
        if not code:
            return {}
        return self.reduce({e: self.K.mul(code, c) for e, c in a.items()})

    def mul(self, a, b):
        out = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = tuple(wkey(x + y) for x, y in zip(e1, e2))
                s = self.K.add(out.get(e, 0), self.K.mul(c1, c2))
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return self.reduce(out)

    def frobenius(self, a):
        out = {}
        for e, c in a.items():
            ep = tuple(wkey(x * self.spec.p) for x in e)
            out[ep] = self.K.frob(c)
        return self.reduce(out)

    def weight(self, exps):
        return self.spec.monomial_weight(exps)

    # -- monomial forms ------------------------------------------------------

    def d_form(self, form):
        """d(m dx_J) as (form, integer coefficient) terms, by variable index."""
        m, J = form
        out = []
        for j, e in enumerate(m):
            if e == 0 or j in J:
                continue
            sign, newJ = sign_insert(j, J)
            out.append(((m[:j] + (e - 1,) + m[j + 1:], newJ), sign * e))
        return out

    def frobenius_form(self, form):
        """x^(p m) prod_{j in J} x_j^(p-1) dx_J, the image of m dx_J under
        F = phi/p^n (mod p, the inverse Cartier map); its coefficient is 1."""
        m, J = form
        p = self.spec.p
        return tuple(p * a + (p - 1 if j in J else 0) for j, a in enumerate(m)), J

    @memo
    def component(self, n, w):
        """(raw forms, basis positions, pivot rows) of the weight-w n-forms.

        For free kinds the raw forms are the basis.  For quotient kinds the
        relation rows span I Omega^n + dI ^ Omega^(n-1), which is
        I Omega^n + d(I Omega^(n-1)) since d(f m) = df ^ m + f dm; their
        RREF rows, keyed by pivot column, rewrite each pivot form in basis
        forms.
        """
        raw = self.forms(n, w)
        if self.spec.kind != "quotient" or not raw:
            return raw, list(range(len(raw))), {}
        idx = {form: k for k, form in enumerate(raw)}
        rows = []
        for weight, terms, dterms in self._relations:
            rem = w - weight
            for m, J in self.forms(n, rem):
                rows.append({idx[tuple(map(add, m, exps)), J]: c for exps, c in terms})
            for m, J in self.forms(n - 1, rem):
                row = {}
                for j, exps, c, neg_c in dterms:
                    sign, newJ = sign_insert(j, J)
                    if sign:
                        row[idx[tuple(map(add, m, exps)), newJ]] = c if sign > 0 else neg_c
                rows.append(row)
        # an RREF row's least column is its pivot, a 1
        pivots = {min(h): h for h in gf_rref(self._row_field, rows)}
        return raw, [k for k in range(len(raw)) if k not in pivots], pivots

    def reduce_terms(self, n, w, terms):
        """Rewrite {raw form index: coef} over `component(n, w)` on basis forms,
        keyed by raw index.  An RREF pivot row is 1 at its pivot and 0 at the
        other pivots, so one subtraction per pivot in `terms` suffices."""
        pivots = self.component(n, w)[2]
        out = {k: c for k, c in terms.items() if c}
        for col in [k for k in out if k in pivots]:
            subtract_multiple(self.K, out, out[col], pivots[col])
        return out

    def reduce(self, el):
        if self.spec.kind != "quotient" or not el:
            return el
        buckets = {}
        for e, c in el.items():
            buckets.setdefault(self.weight(e), {})[e] = c
        out = {}
        for w, part in buckets.items():
            raw = self.component(0, w)[0]
            idx = {m: k for k, (m, _) in enumerate(raw)}
            for k, c in sorted(self.reduce_terms(0, w, {idx[e]: c for e, c in part.items()}).items()):
                out[raw[k][0]] = c
        return out

    # -- monomial enumeration ----------------------------------------------

    def monomials(self, w):
        """Monomials of weight w, in a fixed deterministic order; for
        quotient kinds, the reduced basis."""
        if self.spec.kind == "quotient":
            raw, basis, _ = self.component(0, w)
            return [raw[k][0] for k in basis]
        return self._raw_monomials(w)

    def _raw_monomials(self, w):
        w = Fraction(w)
        if w.denominator != 1 or (w < 0 and not self.spec.is_laurent):
            return []
        return exponents(self.spec.weights, w.numerator)

    @memo
    def forms(self, n, w):
        """Monomial n-forms m dx_J of weight w as (m, J) pairs, J increasing.

        The monomials are those of the ambient free ring (raw for quotient
        kinds).  Each list is built once per (n, w) and kept.
        """
        out = []
        weights = self.spec.weights
        if n >= 0:
            for J in combinations(range(self.spec.nvars), n):
                rest = w - sum(weights[j] for j in J)
                out += [(m, J) for m in self._raw_monomials(rest)]
        return out

    # -- formatting ----------------------------------------------------------

    def format_element(self, el):
        if not el:
            return "0"
        K = self.K
        parts = []
        for exps, c in sorted(el.items(), key=lambda kv: tuple(map(Fraction, kv[0]))):
            factors = []
            if self.spec.f > 1:
                digits = K._decode(c)
                terms = []
                for k, d in enumerate(digits):
                    if d:
                        if k == 0:
                            terms.append(str(d))
                        elif k == 1:
                            terms.append(f"{d}t" if d > 1 else "t")
                        else:
                            terms.append(f"{d}t^{k}" if d > 1 else f"t^{k}")
                cs = "+".join(terms)
                if len(terms) > 1:
                    cs = f"({cs})"
            else:
                cs = str(c)
            if any(Fraction(e) != 0 for e in exps):
                for name, e in zip(self.spec.variables, exps):
                    if Fraction(e) == 0:
                        continue
                    if Fraction(e) == 1:
                        factors.append(name)
                    elif isinstance(e, Fraction):
                        factors.append(f"{name}^({e.numerator}/{e.denominator})")
                    else:
                        factors.append(f"{name}^{e}")
                body = "*".join(factors)
                parts.append(body if cs == "1" else f"{cs}*{body}")
            else:
                parts.append(cs)
        return " + ".join(parts)

    def parse_element(self, text):
        poly = parse_poly(
            text,
            self.spec.variables,
            self.K,
            allow_fractional=self.spec.is_perfection,
        )
        out = {}
        for c, exps in poly:
            key = tuple(wkey(Fraction(e)) for e in exps)
            if self.spec.effective_kind in ("poly", "quotient") and any(
                Fraction(e) < 0 for e in exps
            ):
                raise ParseError("negative exponents need a laurent kind")
            out[key] = self.K.add(out.get(key, 0), c)
        return self.reduce({e: c for e, c in out.items() if c})
