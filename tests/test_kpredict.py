"""K-theory prediction tables and their cross-checks."""

import itertools

import pytest

from drwitt.exactcore import InvariantFactors
from drwitt.kpredict import hiller_check, k_predict, quillen_table
from drwitt.rings import parse_ringspec

from helpers import consistency_triangle, reference_hiller_check, reference_k_predict


def spec(text):
    return parse_ringspec(text)


def test_quillen_integral_rows():
    t = quillen_table(3, 6, 2)
    assert t.row(0, "Z").group == InvariantFactors((), 1)  # Z
    assert t.row(3, "Z").group == InvariantFactors.of([3**2 - 1])  # Z/8
    assert t.row(5, "Z").group == InvariantFactors.of([3**3 - 1])
    assert t.row(2, "Z").group.is_trivial()
    assert t.row(4, "Z").group.is_trivial()


def test_quillen_mod_p_rows():
    t = quillen_table(3, 6, 2)
    assert t.row(0, "p^2").group == InvariantFactors((9,))
    for i in range(1, 7):
        assert t.row(i, "p^2").group.is_trivial()  # gcd(p, p^i - 1) = 1


def test_quillen_padic_rows():
    t = quillen_table(2, 4, 1)
    assert t.row(0, "Z_p").group == InvariantFactors((), 1)  # Z_p
    for i in range(1, 5):
        assert t.row(i, "Z_p").group.is_trivial()


def test_k_predict_fp_matches_quillen():
    for p in (2, 3):
        q = quillen_table(p, 4, 2)
        k = k_predict(spec(f"p={p}\nkind=finite_field"), 4, 2)
        for i in range(0, 5):
            assert q.row(i, "p^2").group == k.row(i, "p^2").group
            assert q.row(i, "Z_p").group == k.row(i, "Z_p").group


def test_k_predict_perfection_vanishing():
    perf = spec("p=2\nkind=perfection of poly\nvars=x:1")
    k = k_predict(perf, 3, 2)
    for i in range(1, 4):
        assert k.row(i, "p^2").group.is_trivial()
    assert k.row(0, "p^2").group == InvariantFactors((4,))


def test_k_predict_fq():
    k = k_predict(spec("p=3\nkind=finite_field\nf=2"), 3, 2)
    assert k.row(0, "p^2").group == InvariantFactors((9,))
    for i in (1, 2, 3):
        assert k.row(i, "p^2").group.is_trivial()


def test_k_predict_laurent_caveat_and_bass_row():
    k = k_predict(spec("p=2\nkind=laurent\nvars=x:1"), 2, 2)
    row = k.row(1, "p^2")
    assert row.group == InvariantFactors((4,))
    assert row.caveat and "local" in row.caveat


def test_hiller():
    assert hiller_check(spec("p=3\nkind=finite_field\nf=2"), 3)
    assert hiller_check(spec("p=2\nkind=perfection of poly\nvars=x:1"), 3)
    assert hiller_check(spec("p=2\nkind=perfection of laurent\nvars=x:1"), 3)
    with pytest.raises(ValueError):
        hiller_check(spec("p=2\nkind=poly\nvars=x:1"), 2)


KINDS = (
    "kind=finite_field",
    "kind=poly\nvars=x:1",
    "kind=laurent\nvars=x:1",
    "kind=laurent\nvars=x:{p}",
    "kind=poly\nvars=x:{q}",
    "kind=perfection of poly\nvars=x:1",
    "kind=perfection of laurent\nvars=x:1",
    "kind=perfection of finite_field",
)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_k_predict_reads_one_model_per_level_as_the_per_degree_tables(p, monkeypatch):
    # a model's twist bound sets only its precision, so the two models of
    # degree H give the rows that two models per degree gave; k_predict
    # builds two models and hiller_check one, whatever the range
    import drwitt.kpredict as kpredict

    built, saturate = [], kpredict.saturate
    monkeypatch.setattr(kpredict, "saturate", lambda *args: built.append(args[1:]) or saturate(*args))
    for f in (1, 2, 3):
        for kind in KINDS:
            s = spec(f"p={p}\nf={f}\n" + kind.format(p=p, q=p + 1))
            for H, r in itertools.product((0, 1, 3, 5), (1, 2, 3)):
                built.clear()
                assert k_predict(s, H, r).to_json() == reference_k_predict(s, H, r).to_json(), (s, H, r)
                assert built == [(r, H + 1), (r + 1, H + 1)]
                if s.kind in ("finite_field", "perfection"):
                    built.clear()
                    assert hiller_check(s, H) == reference_hiller_check(s, H), (s, H)
                    assert built == [(1, H + 1)]


def test_consistency_triangle():
    assert consistency_triangle(2, 4, 2)
    assert consistency_triangle(3, 3, 1)


def test_markdown_and_json():
    t = k_predict(spec("p=2\nkind=finite_field"), 2, 1)
    md = t.to_markdown()
    assert "| 0 | p^1 | Z/2 |" in md
    js = t.to_json()
    assert js["rows"][0]["group"] == {"torsion": ["2^1"], "free_rank": 0}


def test_quillen_fq_extension_is_background_tagged():
    t = quillen_table(2, 4, 2, f=2)
    assert t.row(1, "Z").group == InvariantFactors((3,))  # Z/(4 - 1)
    assert t.row(3, "Z").group == InvariantFactors.of([4**2 - 1])
    assert all(r.provenance == "background" for r in t.rows)
    # still consistent with the log pipeline p-adically
    k = k_predict(spec("p=2\nkind=finite_field\nf=2"), 4, 2)
    for i in range(0, 5):
        assert t.row(i, "p^2").group == k.row(i, "p^2").group
