"""One stability-sweep cell: a (ring, twist, r) computed three ways.

This is the shape of acceptance criterion 10.  The base setting, the
precision bump R -> R+1 and the weight-window bump cap -> cap*p are
computed through the public library API in one process, so a model
built for one call may be reused by a later one.
"""

import os

from drwitt.dieudonne import SaturatedModel, saturate, strict_truncate
from drwitt.synlog import nygaard_graded_check, verify_fundamental_seq

I_MAX = 3


def _strict_groups(model, r, cap):
    level = strict_truncate(model, r)
    p = model.p
    return {
        f"{n}@{u}": level.invariants(n, u).to_json(p)
        for u in level.weights(cap)
        for n in range(model.top + 1)
    }


def _fundamental(rep, p):
    return {
        "h_i": rep["h_i"].to_json(p),
        "verdict": rep["verdict"],
        "off_degree_vanishing": rep["off_degree_vanishing"],
    }


def _isolated(fn, *args):
    """Call fn with os.environ restored afterwards, so no call leaks state."""
    saved = dict(os.environ)
    try:
        return fn(*args)
    finally:
        os.environ.clear()
        os.environ.update(saved)


def sweep_cell(spec, twist, r, cap, strict_cap, nygaard):
    """Groups of one cell at the base, R+1 and cap*p settings.

    Returns (groups, stable) where groups is a JSON-ready dict of every
    computed group and stable says the bumped settings agree with the base.
    """
    p = spec.p
    i_max = max(I_MAX, twist + 1)
    base_model = _isolated(saturate, spec, r, i_max)
    bumped_model = _isolated(SaturatedModel, spec, r, i_max, base_model.R + 1)
    base = {
        "strict": _isolated(_strict_groups, base_model, r, strict_cap),
        "fundamental": _fundamental(_isolated(verify_fundamental_seq, spec, twist, r, I_MAX, cap), p),
    }
    r_plus_1 = {"strict": _isolated(_strict_groups, bumped_model, r, strict_cap)}
    cap_times_p = {
        "fundamental": _fundamental(_isolated(verify_fundamental_seq, spec, twist, r, I_MAX, cap * p), p),
    }
    if nygaard:
        base["nygaard_graded"] = _isolated(nygaard_graded_check, spec, twist, cap)
        cap_times_p["nygaard_graded"] = _isolated(nygaard_graded_check, spec, twist, cap * p)
    stable = (
        base["strict"] == r_plus_1["strict"]
        and base["fundamental"] == cap_times_p["fundamental"]
        and base.get("nygaard_graded") == cap_times_p.get("nygaard_graded")
    )
    groups = {"ring": spec.describe(), "base": base, "r_plus_1": r_plus_1, "cap_times_p": cap_times_p}
    return groups, stable
