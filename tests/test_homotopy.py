"""Group expressions, the bookkeeping formulas, and table resolution."""

import pytest

from sixsphere import homotopy as H
from sixsphere.errors import OutOfRange, TableError


def test_normalization():
    assert H.GroupExpr.cyclic(0).render() == "ℤ"
    assert H.GroupExpr.cyclic(1).render() == "0"
    assert H.GroupExpr.cyclic(-2).render() == "ℤ/2"
    assert H.GroupExpr.cyclic(2).render() == "ℤ/2"
    assert (H.GroupExpr.cyclic(2) + H.GroupExpr.free()).render() == "ℤ ⊕ ℤ/2"


def test_canonical_ordering():
    e = H.GroupExpr.sphere7(8) + H.GroupExpr.cyclic(2) + H.GroupExpr.free() \
        + H.GroupExpr.sphere7(2)
    assert e.render() == "ℤ ⊕ ℤ/2 ⊕ π_2(S⁷) ⊕ π_8(S⁷)"


def test_s6_formulas():
    assert H.pi_structures_s6(1).render() == "ℤ/2"
    assert H.pi_structures_s6(2).render() == "π_2(S⁷) ⊕ π_8(S⁷)"
    assert H.pi_structures_s6(9).render() == "π_9(S⁷) ⊕ π_15(S⁷)"
    with pytest.raises(OutOfRange):
        H.pi_structures_s6(0)
    with pytest.raises(OutOfRange):
        H.pi_structures_s6(-3)


def test_xg_formulas():
    assert H.pi_structures_xg(2, 1).render() == "ℤ/2"     # Z/(2-4)
    assert H.pi_structures_xg(1, 1).render() == "ℤ"       # Z/0
    assert H.pi_structures_xg(0, 1).render() == "ℤ/2"
    assert H.pi_structures_xg(5, 1).render() == "ℤ/8"
    assert H.pi_structures_xg(1, 2).render() == "ℤ ⊕ ℤ/2"
    assert H.pi_structures_xg(0, 2).render() == "ℤ/2"
    assert H.pi_structures_xg(4, 2).render() == "ℤ/2"
    assert H.pi_structures_xg(1, 3).render() == \
        "π_3(S⁷) ⊕ π_6(S⁷) ⊕ π_6(S⁷) ⊕ π_9(S⁷)"
    assert H.pi_structures_xg(0, 5).render() == "π_5(S⁷) ⊕ π_11(S⁷)"
    with pytest.raises(OutOfRange):
        H.pi_structures_xg(-1, 2)
    with pytest.raises(OutOfRange):
        H.pi_structures_xg(2, 0)


def test_symbolic_atoms_stay_symbolic():
    e = H.pi_structures_s6(4)
    assert e.is_symbolic()
    assert not H.pi_structures_s6(1).is_symbolic()


def test_parse_group():
    assert H.parse_group("0").render() == "0"
    assert H.parse_group("Z").render() == "ℤ"
    assert H.parse_group("Z/8").render() == "ℤ/8"
    assert H.parse_group("Z (+) Z/2").render() == "ℤ ⊕ ℤ/2"
    assert H.parse_group("ℤ ⊕ ℤ/2 ⊕ π_13(S⁷)").render_ascii() == \
        "Z (+) Z/2 (+) pi_13(S^7)"
    with pytest.raises(TableError):
        H.parse_group("Q")
    for bad in ("Z/x", "pi_y(S^7)", "Z (+) Z/"):
        with pytest.raises(TableError, match="group token"):
            H.parse_group(bad)


def test_unreadable_table_raises_table_error(tmp_path):
    p = tmp_path / "pi7.csv"
    with pytest.raises(TableError, match="cannot read"):
        H.Pi7Table.from_csv(str(p))
    p.write_text("m,group,source\nx,Z,src\n")
    with pytest.raises(TableError, match="table degree 'x'"):
        H.Pi7Table.from_csv(str(p))
    p.write_bytes(b"m,group,source\n4,\xff,src\n")
    with pytest.raises(TableError, match="not a CSV table"):
        H.Pi7Table.from_csv(str(p))


def test_table_requires_provenance(tmp_path):
    p = tmp_path / "pi7.csv"
    p.write_text("m,group,source\n7,Z,\n")
    with pytest.raises(TableError):
        H.Pi7Table.from_csv(str(p))
    p.write_text("7,Z\n")
    with pytest.raises(TableError):
        H.Pi7Table.from_csv(str(p))


def test_table_resolution(tmp_path):
    p = tmp_path / "pi7.csv"
    p.write_text("m,group,source\n"
                 "7,Z,user table\n"
                 "13,Z/2,user table\n"
                 "10,Z/24 (+) Z/5,user table\n")
    t = H.Pi7Table.from_csv(str(p))
    assert H.pi_structures_s6(7, t).render() == "ℤ ⊕ ℤ/2"
    # missing entries stay symbolic
    assert H.pi_structures_s6(3, t).render() == "π_3(S⁷) ⊕ π_9(S⁷)"
    # partial resolution: pi_4 has no table entry and stays symbolic, the
    # two pi_7 summands and pi_10 resolve
    e = H.pi_structures_xg(1, 4, t)
    assert e.render() == "ℤ ⊕ ℤ ⊕ ℤ/5 ⊕ ℤ/24 ⊕ π_4(S⁷)"


def test_resolution_is_pure_substitution(tmp_path):
    p = tmp_path / "pi7.csv"
    p.write_text("m,group,source\n8,Z/2,user\n14,Z/120,user\n")
    t = H.Pi7Table.from_csv(str(p))
    e = H.pi_structures_s6(8)
    assert e.resolve(t).render() == H.pi_structures_s6(8, t).render()
    # resolving twice is the same as resolving once
    assert e.resolve(t).resolve(t) == e.resolve(t)
