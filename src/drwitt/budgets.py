"""Size budgets: every limit, its measured reason, and the one refusal.

Each budget bounds a cost that grows with a flag or an input.  The site
that pays the cost counts it cheaply, without building what it counts,
and calls `refuse_past`, which raises the site's error with the site's
message when the count is past the limit; a count at the limit is
admitted.  Sites read each limit as `budgets.NAME`, so a test patches
one place.  The times are on a 2-vCPU VM with Python 3.11.

- PRECISION_BITS_MAX (`SaturatedModel`).  A model works modulo p^B,
  B = R + 2 s_star + 2, and a residue over GF(p^f) takes f B log2(p)
  bits, as does each lattice entry, sigma entry and Newton step of the
  Frobenius lift.  At 2^14 bits the slowest verbs are drw table at the
  drw window budget (a p = 2 poly ring, --level 15 --maxdeg 16332,
  2.9-3.6 s) and kpredict at f = 24 (--modp 222, 4.0-4.6 s; at f = 16,
  --modp 336 takes 2.0-2.6 s); at 2^15 bits kpredict at f = 16
  (--modp 678) takes 10.2 s.
- DRW_WINDOW_MAX (`StrictLevel.weights`).  The level-r window holds
  about cap p^(r-1) weights (twice that on a Laurent ring), and drw table
  spends some 40 us and 3.2 KB on each.  At the default cap a p = 3 poly
  ring walks 78733 at level 10 in 3.0-4.2 s and 248 MB; a p = 2 poly ring
  walks 65537 at level 15 in 2.5-2.8 s and 131073 at level 16 in 7.0 s
  and 407 MB, which the budget refuses.
- WINDOW_MAX (`synlog._weight_support`).  syntomic and
  verify_fundamental_seq walk every numerator of the level-r window,
  about cap p^r of them at some 5 us and 230 bytes each; the two Nygaard
  checks count theirs and read one numerator per class.  syntomic on a
  Laurent ring at the default cap walks 625001 at p = 5, --modp 7 in
  3.3 s, and at p = 2 it walks 2^19 + 1 at --modp 16 in 2.8 s and
  2^20 + 1 at --modp 17 in 5.2 s and 220 MB, which the budget refuses.
  check nygaard-graded at the largest admitted cap takes 0.08-0.18 s end
  to end on a p = 2 poly ring and on the p = 2 perfection of poly at
  --weight-cap 499999, and on a p = 3 Laurent ring at 166666.
- ZMOD_BITS_MAX (the specseq `Zmod` parser).  A Zmod ring computes with
  residues of N log2(p) bits: a random two-step filtration of rank-3
  modules with full-size entries runs in 6.5 s at p = 2, N = 8192, and
  in 2.2 s at N = 4096.
- HOM_SET_MAX (`filtspec.chain_hom_group`).  The hom set is listed map
  by map, and adjunction_check lists three per level and compares them
  as sets; at the limit Hom(F_2^3, F_2^4) lists its 4096 maps in 0.04 s.
- DERHAM_WALK_MAX (`derham._count_walk`, for derham table and the
  Cartier check).  The count is the walk's cells (n, w), n <= maxdeg + 1,
  and per cell one for each subset J of the variables with |J| = n and
  each exponent tuple its forms enumeration tries.  derham table spends
  4-13 us on each, but the Cartier check's dense cohomology grows faster
  than the forms of one weight: at the largest admitted cap it takes
  0.65 s on three variables (cap 18), 1.1 s on four (cap 10) and 2.2-3.2 s
  on six (cap 6, over GF(2) and GF(8)), where three variables at cap 40
  (89174) took 40 s.  The largest benchmark job counts 4031.
- WITT_LENGTH_MAX (`WittRing`).  The ghost round trip raises each of
  the r components to p^(m - i), for i <= m < r, modulo p^(r + 2), so its
  time grows like r^3 log p.  witt add on all-ones vectors at the largest
  prime the parser certifies (p near 3.3 10^24) takes 1.5-2.4 s at
  length 16, 3.1-3.6 s at 20 and 7.9 s at 24; at p = 2 it takes 1.6 s
  at length 100.
"""

from math import log2

PRECISION_BITS_MAX = 2**14
DRW_WINDOW_MAX = 10**5
WINDOW_MAX = 10**6
ZMOD_BITS_MAX = 2**13
HOM_SET_MAX = 4096
DERHAM_WALK_MAX = 10**4
WITT_LENGTH_MAX = 20


def exceeds_bits(p, e, bits):
    """Whether a residue mod p^e takes more than `bits` bits, p^e unformed (e > bits settles it, as p >= 2)."""
    return e > bits or e * log2(p) > bits


def refuse_past(count, limit, error, message):
    """Raise error(message) when count is past limit; a count at the limit is admitted.

    A bit budget passes its residues mod p^e as the count (p, e), measured
    in bits by exceeds_bits, so p^e is never formed.
    """
    past = exceeds_bits(*count, limit) if isinstance(count, tuple) else count > limit
    if past:
        raise error(message)
