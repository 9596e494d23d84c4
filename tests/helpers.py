"""Shared fixture generators: random complexes and filtrations over Z/p^N,
a reference Howell form to test the kernel against, and the weight-keyed
orbit walk to test the numerator-keyed one against."""

from fractions import Fraction

from drwitt.dieudonne import SaturatedModel, p_times
from drwitt.exactcore import (
    FinComplex,
    FinModPresentation,
    ZmodRing,
    kernel,
    mat_mul,
    normal_form,
    solve,
)
from drwitt.filtspec import FilteredComplex
from drwitt.rings import weight_window, wkey


def random_complex(rng, ring: ZmodRing, length=3, max_rank=3) -> FinComplex:
    """A random cochain complex of free modules with d o d = 0.

    Differentials are built degree by degree: each new one has columns
    drawn from the right kernel of the previous one.
    """
    q = ring.q
    ranks = [rng.randint(0, max_rank) for _ in range(length + 1)]
    if not any(ranks):
        ranks[0] = 1
    mods = {m: FinModPresentation.free(ring, k) for m, k in enumerate(ranks)}
    diffs = {}
    prev = None
    for m in range(length):
        k1, k2 = ranks[m], ranks[m + 1]
        if k1 == 0 or k2 == 0:
            prev = None
            continue
        if prev is None:
            D = [[rng.randrange(q) for _ in range(k2)] for _ in range(k1)]
        else:
            # columns from the right kernel of prev: prev . D = 0
            transpose = [[prev[a][b] for a in range(len(prev))] for b in range(k1)]
            rk = kernel(ring, transpose)  # rows v with v . prev^T = 0, i.e. prev . v^T = 0
            D = [[0] * k2 for _ in range(k1)]
            for j in range(k2):
                col = [0] * k1
                for krow in rk:
                    c = rng.randrange(q)
                    col = [(x + c * y) % q for x, y in zip(col, krow)]
                for a in range(k1):
                    D[a][j] = col[a]
        diffs[m] = D
        prev = D
    return FinComplex(ring, mods, diffs, check=True)


def _close_under_d(ring, C: FinComplex, picked):
    """Smallest degreewise submodule containing picked and stable under d."""
    spans = {m: list(rows) for m, rows in picked.items()}
    changed = True
    while changed:
        changed = False
        for m in sorted(C.degrees()):
            rows = spans.get(m, [])
            tgt = C.module(m + 1)
            if not rows or not tgt.ngens:
                continue
            img = mat_mul(ring, rows, C.diff(m))
            cur = spans.setdefault(m + 1, [])
            before = normal_form(ring, cur, tgt.ngens)
            after = normal_form(ring, cur + img, tgt.ngens)
            if before != after:
                spans[m + 1] = after
                changed = True
    return {m: normal_form(ring, rows, C.module(m).ngens) for m, rows in spans.items() if rows}


def random_filtered_complex(rng, ring: ZmodRing, window=2, length=3, max_rank=3):
    """A random filtration by subcomplexes of a random ambient complex.

    Returns a FilteredComplex on [0, window] whose level complexes are
    abstract presentations of genuine subcomplexes, so transitions are
    injective and the brute-force homology-filtration oracle applies.
    """
    C = random_complex(rng, ring, length, max_rank)
    q = ring.q
    chains = []
    current = {}
    # build ascending spans from the deepest level down to the full complex
    for _ in range(window):
        picked = {}
        for m in C.degrees():
            k = C.module(m).ngens
            if k and rng.random() < 0.8:
                picked.setdefault(m, []).append([rng.randrange(q) for _ in range(k)])
        for m, rows in current.items():
            picked.setdefault(m, []).extend(rows)
        current = _close_under_d(ring, C, picked)
        chains.append(current)
    # chains[0] is the deepest (smallest) span; F^{>= n} uses chains[window - n]
    levels = {}
    gens = {}
    for n in range(window + 1):
        if n == 0:
            levels[0] = C
            gens[0] = {m: [[1 if a == b else 0 for b in range(C.module(m).ngens)] for a in range(C.module(m).ngens)] for m in C.degrees()}
            continue
        spans = chains[window - n]
        mods, diffs = {}, {}
        g = {}
        for m in C.degrees():
            rows = spans.get(m, [])
            g[m] = rows
            rels = kernel(ring, rows) if rows else []
            mods[m] = FinModPresentation(ring, len(rows), rels)
        for m in C.degrees():
            rows = g.get(m, [])
            nxt = g.get(m + 1, [])
            if not rows:
                continue
            D = []
            for row in rows:
                img = [sum(c * C.diff(m)[a][b] for a, c in enumerate(row)) % q for b in range(C.module(m + 1).ngens)] if C.module(m + 1).ngens else []
                if not nxt:
                    D.append([])
                    continue
                sol = solve(ring, nxt, img)
                assert sol is not None, "closure failed"
                D.append(sol)
            diffs[m] = D
        levels[n] = FinComplex(ring, mods, diffs, check=False)
        gens[n] = g
    maps = {}
    for n in range(window):
        f = {}
        for m in C.degrees():
            src_rows = gens[n + 1].get(m, [])
            tgt_rows = gens[n].get(m, [])
            if not src_rows:
                continue
            mat = []
            for row in src_rows:
                if n == 0:
                    mat.append(list(row))
                else:
                    sol = solve(ring, tgt_rows, row) if tgt_rows else None
                    assert sol is not None, "chain not nested"
                    mat.append(sol)
            f[m] = mat
        maps[n] = f
    return FilteredComplex(ring, 0, window, levels, maps, check=True)


# The straightforward Howell form that exactcore.zmodp.howell replaced:
# cand list, min() by valuation, a full zero-row rescan after every pivot.
# exactcore.zmodp.howell must return the same rows, byte for byte.
def reference_howell(R: ZmodRing, rows: list[list[int]], ncols: int | None = None) -> list[list[int]]:
    """Howell normal form of the row module spanned by ``rows``.

    Canonical: two generating sets span the same submodule of (Z/p^N)^n
    iff their Howell forms are equal.  Each pivot is a pure power of p,
    pivot columns strictly increase, entries above a pivot p^a are
    reduced mod p^a, and the Howell property holds: every element of the
    span whose support starts at column j lies in the span of the rows
    with pivot column >= j.
    """
    p, q, N = R.p, R.q, R.N
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    work = [[x % q for x in r] for r in rows]
    work = [r for r in work if any(r)]
    placed: list[tuple[int, list[int]]] = []
    for col in range(ncols):
        cand = [i for i, r in enumerate(work) if r[col] != 0]
        if not cand:
            continue
        i0 = min(cand, key=lambda i: R.val(work[i][col]))
        piv = work.pop(i0)
        a = R.val(piv[col])
        pa = p**a
        uinv = R.inv_unit(piv[col] // pa)
        piv = [(x * uinv) % q for x in piv]
        for r in work:
            if r[col]:
                # minimality of a guarantees p^a | r[col]
                c = r[col] // pa
                for j in range(col, ncols):
                    if piv[j]:
                        r[j] = (r[j] - c * piv[j]) % q
        if a > 0:
            shadow = [(x * p ** (N - a)) % q for x in piv]
            if any(shadow):
                work.append(shadow)
        work = [r for r in work if any(r)]
        placed.append((col, piv))
    # reduce entries above each pivot into [0, p^a)
    result = [piv for _, piv in placed]
    for idx, (col, piv) in enumerate(placed):
        pa = p ** R.val(piv[col])
        for l in range(idx):
            c = result[l][col] // pa
            if c:
                row = result[l]
                for j in range(col, ncols):
                    if piv[j]:
                        row[j] = (row[j] - c * piv[j]) % q
    return result


# The weight-keyed orbit walk that synlog.weight_orbits replaced: weights
# are wkeys (int or Fraction), V is w -> w/p and the window is walked in
# full even for a ring without variables.  Mapped back to weights,
# synlog.weight_orbits must return the same orbits in the same order.
def reference_p_div(w, p):
    return wkey(Fraction(w) / p)


def reference_weight_support(model: SaturatedModel, cap, den_exp):
    """Lattice-supported weights with |w| <= cap and denominator <= p^den_exp."""
    return [
        w
        for w in weight_window(cap, model.p**den_exp, model.spec.is_laurent)
        if any(model.rank(n, w) for n in range(model.top + 1))
    ]


def reference_weight_orbits(model: SaturatedModel, cap, den_exp):
    """Partition of the supported weights into orbits of w -> p w."""
    weights = reference_weight_support(model, cap, den_exp)
    wset = set(weights)
    seen = set()
    orbits = []
    for w in weights:
        if w in seen:
            continue
        if Fraction(w) == 0:
            seen.add(w)
            orbits.append([w])
            continue
        # walk to the bottom of the orbit inside the window
        bottom = w
        while reference_p_div(bottom, model.p) in wset:
            bottom = reference_p_div(bottom, model.p)
        chain = []
        cur = bottom
        while cur in wset:
            chain.append(cur)
            seen.add(cur)
            cur = p_times(cur, model.p)
        orbits.append(chain)
    return orbits
