"""Exact linear algebra over Z: Hermite and Smith normal forms.

Sizes in this package are tiny (ranks below a few dozen), so the plain
textbook algorithms with exact Python ints are used; no bound on
coefficient growth is needed.  Row convention as in zmodp.
"""

from __future__ import annotations


def hermite(rows: list[list[int]], ncols: int | None = None) -> list[list[int]]:
    """Canonical row Hermite normal form of the row lattice.

    Pivots positive, pivot columns strictly increasing, entries above a
    pivot d reduced into [0, d).
    """
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    work = [list(r) for r in rows if any(r)]
    placed: list[tuple[int, list[int]]] = []
    for col in range(ncols):
        cand = [r for r in work if r[col] != 0]
        rest = [r for r in work if r[col] == 0]
        if not cand:
            continue
        # Euclidean reduction in this column
        while len(cand) > 1:
            cand.sort(key=lambda r: abs(r[col]))
            piv = cand[0]
            out = [piv]
            for r in cand[1:]:
                c = r[col] // piv[col]
                rr = [x - c * y for x, y in zip(r, piv)]
                if rr[col] != 0:
                    out.append(rr)
                elif any(rr):
                    rest.append(rr)
            if len(out) == 1:
                cand = out
                break
            cand = out
        piv = cand[0]
        if piv[col] < 0:
            piv = [-x for x in piv]
        placed.append((col, piv))
        work = rest
    result = [piv for _, piv in placed]
    for idx, (col, piv) in enumerate(placed):
        d = piv[col]
        for l in range(idx):
            c = result[l][col] // d   # floor division: entry lands in [0, d)
            if c:
                result[l] = [x - c * y for x, y in zip(result[l], piv)]
    return result


def z_reduce_vector(H: list[list[int]], v: list[int]) -> list[int]:
    v = list(v)
    for row in H:
        col = next(j for j, x in enumerate(row) if x)
        if v[col] % row[col] == 0:
            c = v[col] // row[col]
            if c:
                v = [x - c * y for x, y in zip(v, row)]
    return v


def smith_diagonal(rows: list[list[int]], ncols: int) -> list[int]:
    """Diagonal d_1 | d_2 | ... of the Smith normal form (nonneg, zeros dropped)."""
    M = [list(r) for r in rows]
    m, n = len(M), ncols
    diag = []
    r0 = c0 = 0
    while r0 < m and c0 < n:
        # find entry of least absolute value
        best = None
        for i in range(r0, m):
            for j in range(c0, n):
                if M[i][j] and (best is None or abs(M[i][j]) < abs(M[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        i, j = best
        M[r0], M[i] = M[i], M[r0]
        for row in M:
            row[c0], row[j] = row[j], row[c0]
        dirty = False
        for i in range(r0 + 1, m):
            if M[i][c0]:
                c = M[i][c0] // M[r0][c0]
                M[i] = [x - c * y for x, y in zip(M[i], M[r0])]
                if M[i][c0]:
                    dirty = True
        for j in range(c0 + 1, n):
            if M[r0][j]:
                c = M[r0][j] // M[r0][c0]
                if c:
                    for i in range(r0, m):
                        M[i][j] -= c * M[i][c0]
                if M[r0][j]:
                    dirty = True
        if dirty:
            continue
        # enforce divisibility d_k | d_{k+1}
        d = abs(M[r0][c0])
        fix = None
        for i in range(r0 + 1, m):
            for j in range(c0 + 1, n):
                if M[i][j] % d != 0:
                    fix = i
                    break
            if fix is not None:
                break
        if fix is not None:
            M[r0] = [x + y for x, y in zip(M[r0], M[fix])]
            continue
        diag.append(d)
        r0 += 1
        c0 += 1
    return diag
