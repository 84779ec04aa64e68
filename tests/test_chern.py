"""Graded polynomials and the Chern-class pipeline."""

import pytest

from sixsphere import chern
from sixsphere.errors import NonUnitLeadingTerm

from references import substitute


def _za(truncation=4):
    r = chern.ring([("a", 2)], truncation=truncation)
    return r["one"], r["a"]


def test_poly_arithmetic_and_truncation():
    one, a = _za(truncation=4)
    assert (one + a) * (one - a) == one - a * a
    assert a ** 3 == a.constant(0)          # truncated away
    assert (a + a) == 2 * a
    assert a.render() == "a"
    assert (one - a + a * a).render() == "1 - a + a^2"
    assert a.constant(0).render() == "0"


def test_homogeneous_parts():
    one, a = _za()
    p = one + 3 * a + 5 * a * a
    assert p.homogeneous_part(2) == 3 * a
    assert p.coefficient((2,)) == 5


def test_substitute():
    one, a = _za()
    p = one + a + a * a
    assert substitute(p, {"a": a.constant(0)}) == one
    assert substitute(p, {"a": -a}) == one - a + a * a


def test_whitney_complement_line():
    one, a = _za()
    inv = chern.whitney_complement(one + a, 2)
    assert inv == one - a + a * a
    assert inv.homogeneous_part(2) == -a
    assert inv.homogeneous_part(4) == a * a


def test_whitney_complement_trivial_and_division():
    one, a = _za()
    assert chern.whitney_complement(one, 3) == one
    inv = chern.whitney_complement(one + a + a * a, 2)
    assert inv == one - a


def test_whitney_product_is_one():
    one, a = _za()
    for total in (one + a, one - 2 * a, one + a + a * a, one + 3 * a * a):
        inv = chern.whitney_complement(total, 2)
        assert total * inv == one


def test_whitney_requires_unit():
    one, a = _za()
    with pytest.raises(NonUnitLeadingTerm):
        chern.whitney_complement(a, 2)
    with pytest.raises(NonUnitLeadingTerm):
        chern.whitney_complement(2 * one + a, 2)


def test_tensor_line_chern_formula():
    res = chern.tensor_line_chern()
    assert res.coefficients == {"c1(L)^2": 1, "c1(L)*c1(E)": 1,
                                "c1(E)^2": 0, "c2(E)": 1}
    assert res.rendered == "c1(L)^2 + c1(L)*c1(E) + c2(E)"


def test_tensor_symmetry():
    res = chern.tensor_line_chern()
    assert res.expanded.swap_vars("x2", "x3") == res.expanded


def test_tensor_specializations():
    # x2 = x3 = 0: tensoring with a trivial rank-2 bundle leaves x1^2
    r = chern.ring([("x1", 2), ("x2", 2), ("x3", 2)])
    p = chern.tensor_line_chern().expanded
    zero = r["one"].constant(0)
    assert substitute(p, {"x2": zero, "x3": zero}) == r["x1"] ** 2
    # x1 = 0: a trivial line bundle leaves c2 = x2 x3
    assert substitute(p, {"x1": zero}) == r["x2"] * r["x3"]


def test_euler_number_pipeline():
    res = chern.euler_number_normal_bundle()
    assert res.euler_number == 1
    assert res.c1_complement.render() == "-a"
    assert res.c2_complement.render() == "a^2"
    assert res.c2_normal.render() == "a^2"
    assert len(res.trace) == 7
    assert res.trace[-1].endswith("= 1")


def test_euler_sanity_checks():
    one, a = _za()
    res = chern.euler_number_normal_bundle()
    # the normal-bundle class dies when a is set to zero
    assert substitute(res.c2_normal, {"a": a.constant(0)}) == one.constant(0)
    # plain coefficient extraction
    assert (3 * a * a).coefficient((2,)) == 3
