"""The benchmark's workloads: fixed job grids and the seed's choice from them.

Each workload is a list of shapes.  A shape fixes the verb, its flags and
the ring family; its variants differ only in the variable names written
into the ring spec, so every variant costs the same and has its own
golden digest.  The seed picks one variant per shape and the order in
which the shapes run, which keeps the work of a round independent of the
seed while the inputs the package receives still change with it.
"""

import random
from dataclasses import dataclass

ONE_VAR = (("x",), ("t",), ("u",))
TWO_VAR = (("x", "y"), ("s", "t"), ("u", "v"))
THREE_VAR = (("x", "y", "z"), ("a", "b", "c"), ("u", "v", "w"))
NO_VAR = ((),)


def ring(p, kind, vars_=(), f=1, rels=None):
    """Ring-spec text; `vars_` holds (weight, ...) and names come later."""
    lines = [f"p = {p}", f"kind = {kind}"]
    if vars_:
        lines.append("vars = " + ", ".join(f"{{{k}}}:{w}" for k, w in enumerate(vars_)))
    if f != 1:
        lines.append(f"f = {f}")
    if rels:
        lines.append(f"rels = {rels}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Shape:
    """One cell of a workload grid before variable names are chosen.

    CLI shapes carry `argv`, with `--ring` appended by the runner; sweep
    shapes carry (twist, r, cap, strict_cap, nygaard) in `cell`.
    """

    id: str
    spec: str
    names: tuple
    argv: tuple = ()
    cell: tuple = ()


@dataclass(frozen=True)
class Job:
    id: str
    spec: str
    argv: tuple
    cell: tuple


def _drw(p, kind, level, cap):
    return Shape(
        f"drw-p{p}-{kind.split()[0]}-L{level}-c{cap}",
        ring(p, kind, (1,)),
        ONE_VAR,
        ("drw", "table", "--level", str(level), "--maxdeg", "1", "--weight-cap", str(cap)),
    )


def _syn(verb, p, twist, modp, cap=None, f=1):
    kind = "laurent" if f == 1 else "finite_field"
    tag = "laurent" if f == 1 else f"gf{p}^{f}"
    argv = ("syntomic",) if verb == "syn" else ("check", "fundamental-seq")
    argv += ("--twist", str(twist), "--modp", str(modp))
    if cap is not None:
        argv += ("--weight-cap", str(cap))
    return Shape(
        f"{verb}-p{p}-{tag}-i{twist}-r{modp}" + (f"-c{cap}" if cap else ""),
        ring(p, kind, (1,) if f == 1 else (), f),
        ONE_VAR if f == 1 else NO_VAR,
        argv,
    )


def _derham(verb, p, spec, names, maxdeg, cap, tag):
    argv = ("derham", "table") if verb == "derham" else ("cartier-check",)
    argv += ("--maxdeg", str(maxdeg), "--weight-cap", str(cap))
    return Shape(f"{verb}-p{p}-{tag}-m{maxdeg}-c{cap}", spec, names, argv)


def _cell(p, kind, twist, r, cap, nygaard, f=1):
    vars_ = (1,) if kind != "finite_field" else ()
    tag = kind.split()[0] if f == 1 else f"gf{p}^{f}"
    return Shape(
        f"cell-p{p}-{tag}-i{twist}-r{r}-c{cap}",
        ring(p, kind, vars_, f),
        ONE_VAR if vars_ else NO_VAR,
        cell=(twist, r, cap, 2, nygaard),
    )


CUSP = "{1}^2 - {0}^3"

WORKLOADS = {
    # LiftComplex._knapsack / forms enumeration: about 90% of drw table.
    "drw_tables": [
        _drw(3, "poly", 3, 3),
        _drw(3, "perfection of poly", 3, 1),
        _drw(2, "poly", 4, 4),
        _drw(2, "perfection of poly", 4, 3),
        _drw(3, "poly", 2, 6),
    ],
    # Laurent forms cost one division; Howell forms, stage lattices, fiber
    # assembly and homology take the time instead.
    "syntomic_laurent": [
        _syn("syn", 5, 1, 2, 5),
        _syn("fseq", 3, 2, 3, 6),
        _syn("syn", 3, 1, 3, 4),
        _syn("fseq", 5, 1, 2, 5),
        _syn("syn", 3, 2, 3, f=3),
        _syn("fseq", 5, 1, 2, f=2),
    ],
    # Criterion-10 shape in one process: most model builds repeat an
    # earlier (spec, s*, R).
    "stability_sweep": [
        _cell(2, "finite_field", 1, 2, 8, True, f=2),
        _cell(3, "finite_field", 2, 2, 18, True, f=2),
        _cell(2, "poly", 1, 2, 8, True),
        _cell(2, "poly", 2, 1, 8, True),
        _cell(3, "poly", 1, 2, 6, True),
        _cell(2, "laurent", 1, 2, 8, False),
        _cell(3, "laurent", 1, 2, 6, False),
        _cell(2, "perfection of poly", 1, 2, 2, False),
        _cell(3, "perfection of poly", 1, 2, 2, False),
    ],
    # Dense GF(p^f) elimination (gf_rref) on multi-variable rings.
    "derham_multivar": [
        _derham("derham", 2, ring(2, "poly", (1, 1, 1)), THREE_VAR, 3, 10, "xyz"),
        _derham("derham", 3, ring(3, "poly", (1, 1, 1)), THREE_VAR, 3, 9, "xyz"),
        _derham("derham", 3, ring(3, "quotient", (2, 3), rels=CUSP), TWO_VAR, 2, 60, "cusp"),
        _derham("cartier", 2, ring(2, "poly", (1, 1, 1)), THREE_VAR, 3, 6, "xyz"),
        _derham("cartier", 3, ring(3, "quotient", (2, 3), rels=CUSP), TWO_VAR, 2, 30, "cusp"),
    ],
}


def expand(shape, names):
    suffix = "".join(names) or "-"
    return Job(f"{shape.id}/{suffix}", shape.spec.format(*names), shape.argv, shape.cell)


def all_jobs(workload):
    """Every job of the workload's grid (all variants), for golden outputs."""
    return [expand(s, names) for s in WORKLOADS[workload] for names in s.names]


def select(workload, seed):
    """The seed's jobs: one variant per shape, in a seed-chosen order."""
    rng = random.Random(f"{workload}:{seed}")
    jobs = [expand(s, rng.choice(s.names)) for s in WORKLOADS[workload]]
    rng.shuffle(jobs)
    return jobs
