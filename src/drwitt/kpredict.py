"""Closed-form K-theory tables and cross-checks.

Everything here is a prediction through theorems, not a K-theory
computation: Quillen's table for finite prime fields is transcribed and
reduced, and for the curated characteristic-p rings the mod-p^r rows are
read off the logarithmic de Rham-Witt lattices (degree i symbols give
K_i(S)/p^r for local Cartier smooth rings, with connective p-adic rows
as the stable limit).  Every row carries its provenance tag, and rings
that are not local-type carry a sheaf-level caveat instead of a claim.
"""

from __future__ import annotations

from collections import namedtuple

from .dieudonne import saturate
from .exactcore import InvariantFactors
from .rings import RingSpec
from .synlog import _log_lattice


class KTableRow(namedtuple("KTableRow", [
    "degree",
    "modulus",         # "Z", "p^r", or "Z_p"
    "group",           # InvariantFactors
    "provenance",      # quillen | log-forms | hiller | background
    "caveat",          # str or None
    "p_torsion_free",  # bool or None
], defaults=(None, None))):
    __slots__ = ()

    def to_json(self, p=None):
        out = {
            "degree": self.degree,
            "modulus": self.modulus,
            "group": self.group.to_json(p),
            "provenance": self.provenance,
        }
        if self.caveat:
            out["caveat"] = self.caveat
        if self.p_torsion_free is not None:
            out["p_torsion_free"] = self.p_torsion_free
        return out


class KTable(namedtuple("KTable", "ring p rows")):
    __slots__ = ()

    def row(self, degree, modulus):
        for r in self.rows:
            if r.degree == degree and r.modulus == modulus:
                return r
        return None

    def to_json(self):
        return {"ring": self.ring, "p": self.p, "rows": [r.to_json(self.p) for r in self.rows]}

    def to_markdown(self):
        lines = [f"K-theory predictions for {self.ring} (p = {self.p})", ""]
        lines.append("| degree | modulus | group | provenance | notes |")
        lines.append("|---|---|---|---|---|")
        for r in self.rows:
            notes = r.caveat or ""
            if r.p_torsion_free:
                notes = (notes + "; " if notes else "") + "p-torsion free"
            group = str(r.group)
            if r.modulus == "Z_p" and r.group.free_rank:
                # free rank counts Z_p summands in the p-adic rows
                group = " + ".join(["Z_p"] * r.group.free_rank)
            lines.append(
                f"| {r.degree} | {r.modulus} | {group} | {r.provenance} | {notes} |"
            )
        return "\n".join(lines)


def quillen_table(p: int, i_max: int, r: int, f: int = 1) -> KTable:
    """The closed-form K-theory of a finite field: K_0 = Z, K_{2i} = 0,
    K_{2i-1} = Z/(q^i - 1) for q = p^f.

    Mod-p^r and p-adic rows follow by arithmetic: p does not divide
    q^i - 1, so only degree 0 survives p-adically.  The f > 1 extension
    is classical background and its rows are tagged as such.
    """
    q = p**f
    provenance = "quillen" if f == 1 else "background"
    caveat = None if f == 1 else "q^i - 1 orders are classical background"
    table = KTable(ring=f"GF({q})" if f > 1 else f"GF({p})", p=p, rows=[])
    for i in range(0, i_max + 1):
        if i == 0:
            integral = InvariantFactors((), 1)
        elif i % 2 == 0:
            integral = InvariantFactors(())
        else:
            order = q ** ((i + 1) // 2) - 1
            integral = InvariantFactors.of([order])
        table.rows.append(KTableRow(i, "Z", integral, provenance, caveat))
        if i == 0:
            modp = InvariantFactors((p**r,))
            padic = InvariantFactors((), 1)  # Z_p
        else:
            modp = InvariantFactors(())
            padic = InvariantFactors(())
        table.rows.append(KTableRow(i, f"p^{r}", modp, provenance, caveat))
        table.rows.append(KTableRow(i, "Z_p", padic, provenance, caveat))
    return table


def _is_local_type(spec: RingSpec) -> bool:
    return spec.kind in ("finite_field", "perfection")


def k_predict(spec: RingSpec, i_max: int, r: int) -> KTable:
    """Mod-p^r and p-adic K-rows from the log lattices of one model per level; a twist bound sets only R."""
    table = KTable(ring=spec.describe(), p=spec.p, rows=[])
    caveat = None if _is_local_type(spec) else "sheaf-level caveat: ring is not local-type"
    model, model_up = saturate(spec, r, i_max + 1), saturate(spec, r + 1, i_max + 1)
    for i in range(0, i_max + 1):
        lat = _log_lattice(model, i, r)
        table.rows.append(
            KTableRow(i, f"p^{r}", lat.invariants, "log-forms", caveat, p_torsion_free=True)
        )
        # p-adic row: the symbol lattices are (Z/p^r)^k with k independent
        # of r, so the limit is Z_p^k; certify by recomputing one level up
        lat_up = _log_lattice(model_up, i, r + 1)
        k_now = len(lat.invariants.torsion)
        k_up = len(lat_up.invariants.torsion)
        stable = k_now == k_up and all(
            t == spec.p**r for t in lat.invariants.torsion
        ) and all(t == spec.p ** (r + 1) for t in lat_up.invariants.torsion)
        padic = InvariantFactors((), k_now) if stable else lat.invariants
        table.rows.append(
            KTableRow(i, "Z_p", padic, "log-forms", caveat if stable else "limit not certified")
        )
    return table


def hiller_check(spec: RingSpec, i_max: int) -> bool:
    """Predicted K_i(S)/p = 0 for perfect S and all i >= 1."""
    if spec.kind != "perfection" and spec.kind != "finite_field":
        raise ValueError("hiller_check applies to perfect rings")
    model = saturate(spec, 1, i_max + 1)
    return all(_log_lattice(model, i, 1).invariants.is_trivial() for i in range(1, i_max + 1))
