"""Exact linear algebra over Z/p^N.

Z/p^N is a local principal ideal ring: every nonzero element is a unit
times a power of p.  Row modules of matrices over it admit a unique
canonical generating set, the Howell normal form, which plays the role
the reduced row echelon form plays over a field.  Everything here works
on dense lists of Python ints reduced into [0, p^N); no floats, no
modular-inverse shortcuts that assume a field.

Conventions: vectors are rows, a matrix is a list of rows, and maps act
on the right (x |-> x @ A).
"""

from __future__ import annotations


class ZmodRing:
    """The coefficient ring Z/p^N."""

    __slots__ = ("p", "N", "q")

    def __init__(self, p: int, N: int):
        if N < 1:
            raise ValueError("precision exponent must be >= 1")
        self.p = p
        self.N = N
        self.q = p**N

    def __repr__(self):
        return f"ZmodRing({self.p}, {self.N})"

    def __eq__(self, other):
        return isinstance(other, ZmodRing) and (self.p, self.N) == (other.p, other.N)

    def __hash__(self):
        return hash(("ZmodRing", self.p, self.N))

    def val(self, a: int) -> int:
        """p-adic valuation of a mod p^N; the zero class gets valuation N."""
        a %= self.q
        if a == 0:
            return self.N
        v = 0
        while a % self.p == 0:
            a //= self.p
            v += 1
        return v

    def inv_unit(self, u: int) -> int:
        return pow(u, -1, self.q)


def mat_mul(R: ZmodRing, A: list[list[int]], B: list[list[int]]) -> list[list[int]]:
    q = R.q
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
                        acc[j] += a * b
        out.append([x % q for x in acc])
    return out


def howell(R: ZmodRing, rows: list[list[int]], ncols: int | None = None) -> list[list[int]]:
    """Howell normal form of the row module spanned by ``rows``.

    Canonical: two generating sets span the same submodule of (Z/p^N)^n
    iff their Howell forms are equal.  Each pivot is a pure power of p,
    pivot columns strictly increase, entries above a pivot p^a are
    reduced mod p^a, and the Howell property holds: every element of the
    span whose support starts at column j lies in the span of the rows
    with pivot column >= j.  Every row has ``ncols`` entries (by default
    the length of the first row).
    """
    p, q, N = R.p, R.q, R.N
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    work = [[x % q for x in r] for r in rows]
    work = [r for r in work if any(r)]
    placed: list[tuple[int, int, list[int], list[int]]] = []
    for col in range(ncols):
        # first row of least valuation in this column; a unit ends the search
        i0, a = -1, N
        for i, r in enumerate(work):
            x = r[col]
            if x:
                if x % p:
                    i0, a = i, 0
                    break
                v = R.val(x)
                if v < a:
                    i0, a = i, v
        if i0 < 0:
            continue
        piv = work.pop(i0)
        pa = p**a
        uinv = R.inv_unit(piv[col] // pa)
        nz = [j for j in range(col, ncols) if piv[j]]
        if uinv != 1:
            for j in nz:
                piv[j] = piv[j] * uinv % q
        kept = []
        for r in work:
            if r[col]:
                # minimality of a guarantees p^a | r[col]
                c = r[col] // pa
                for j in nz:
                    r[j] = (r[j] - c * piv[j]) % q
                if not any(r):
                    continue
            kept.append(r)
        work = kept
        if a > 0:
            shadow = [(x * p ** (N - a)) % q for x in piv]
            if any(shadow):
                work.append(shadow)
        placed.append((col, pa, nz, piv))
    # reduce entries above each pivot into [0, p^a)
    result = [piv for _, _, _, piv in placed]
    for idx, (col, pa, nz, piv) in enumerate(placed):
        for row in result[:idx]:
            c = row[col] // pa
            if c:
                for j in nz:
                    row[j] = (row[j] - c * piv[j]) % q
    return result


def reduce_with_coefficients(R: ZmodRing, H: list[list[int]], v: list[int]) -> tuple[list[int], list[int]]:
    """(residue, c) with v = c @ H + residue, for H in Howell form.

    One pass down the pivots: each row of H clears what it can of its
    pivot column, and c records the multiple taken.  v lies in the row
    span exactly when the residue is zero (the Howell property).
    """
    q, p = R.q, R.p
    v = [x % q for x in v]
    coeffs = [0] * len(H)
    for k, row in enumerate(H):
        col = next(j for j, x in enumerate(row) if x)
        if v[col]:
            pa = p ** R.val(row[col])
            if v[col] % pa == 0:
                c = v[col] // pa
                coeffs[k] = c
                for j in range(col, len(v)):
                    if row[j]:
                        v[j] = (v[j] - c * row[j]) % q
    return v, coeffs


def pivot_orders(R: ZmodRing, H: list[list[int]]) -> list[int]:
    """p^(N - a) for the pivot p^a of each row of the Howell form H.

    The span of H writes each element once as sum c_i H_i with
    0 <= c_i < order_i, so it has prod(order_i) elements.
    """
    return [R.p ** (R.N - R.val(next(x for x in row if x))) for row in H]


def quotient_divisor_exponents(R: ZmodRing, rows: list[list[int]], ncols: int) -> list[int]:
    """Exponents a_i with (Z/p^N)^ncols / rowspan ~= (+) Z/p^{a_i}.

    Local Smith form: repeatedly pull an entry of minimal valuation into
    pivot position and clear its row and column.  Generators that never
    meet a pivot contribute a_i = N.
    """
    p, q, N = R.p, R.q, R.N
    M = [[x % q for x in r] for r in rows]
    m, n = len(M), ncols
    exponents = []
    r0 = c0 = 0
    while r0 < m and c0 < n:
        best = None
        for i in range(r0, m):
            for j in range(c0, n):
                if M[i][j]:
                    v = R.val(M[i][j])
                    if best is None or v < best[0]:
                        best = (v, i, j)
                        if v == 0:
                            break
            if best is not None and best[0] == 0:
                break
        if best is None:
            break
        a, i, j = best
        M[r0], M[i] = M[i], M[r0]
        for row in M:
            row[c0], row[j] = row[j], row[c0]
        pa = p**a
        uinv = R.inv_unit(M[r0][c0] // pa)
        M[r0] = [(x * uinv) % q for x in M[r0]]
        for i in range(r0 + 1, m):
            if M[i][c0]:
                c = M[i][c0] // pa
                for j2 in range(c0, n):
                    M[i][j2] = (M[i][j2] - c * M[r0][j2]) % q
        for j2 in range(c0 + 1, n):
            if M[r0][j2]:
                c = M[r0][j2] // pa
                for i in range(r0, m):
                    M[i][j2] = (M[i][j2] - c * M[i][c0]) % q
        exponents.append(a)
        r0 += 1
        c0 += 1
    exponents += [N] * (n - len(exponents))
    return exponents
