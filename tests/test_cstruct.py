"""Orthogonal complex structures on the 6-plane: construction, equivalence,
recovery, common lines, block decomposition, projective coordinates."""

from fractions import Fraction as F

import numpy as np
import pytest

from sixsphere import cstruct
from sixsphere.cstruct import (ComplexStructureR6, R6_BASIS, common_line,
                               embed6, equivalent, extract6, j_from_octonion,
                               quaternion_coordinate_form, recover_x,
                               standard_structure, to_cp3)
from sixsphere.errors import (DegenerateX, IdenticalStructures,
                              InvalidStructure, NotUnit)
from sixsphere.octonion import CHECK_TOL, Octonion, normalize
from sixsphere.sampling import (random_rational_circle_point,
                                random_rational_unit_octonion)

E = [Octonion.basis(k) for k in range(8)]
X25 = Octonion([F(3, 5), 0, F(4, 5), 0, 0, 0, 0, 0])   # 3/5 + 4/5 e2
#: a float x whose (x0, x1) part has norm 2.2e-7: close to the locus
#: x perpendicular to <1, e1>
NEAR_LOCUS = [1e-7, -2e-7, 0.6, 0, 0.8, 0, 0, 0]


@pytest.mark.parametrize("exact", [True, False])
def test_j_from_octonion_is_a_structure(exact, rng):
    # J_x is built from its formula without re-validation; the checks that
    # the public constructor runs still pass on it
    for _ in range(4):
        x = F(5, 3) * random_rational_unit_octonion(rng)
        if not exact:
            x = Octonion(x.to_float_array())
        j = j_from_octonion(x)
        assert j.exact == exact
        j._validate()
        assert ComplexStructureR6(j.rows) == j


def test_basis_order_constant():
    assert R6_BASIS == (2, 3, 4, 5, 7, 6)


def test_standard_structure_values():
    std = standard_structure()
    assert std.apply(E[2]) == E[1] * E[2] == E[3]
    assert std.apply(std.apply(E[4])) == -E[4]
    assert std.orientation_sign() > 0


def test_standard_orientation_requires_swapped_order():
    # in the natural order (e2..e7) left multiplication by e1 is negatively
    # oriented because e1 e6 = -e7; the fixed basis order repairs this
    std = standard_structure()
    cols = []
    for u in (E[2], E[4], E[6]):
        cols.append(u)
        cols.append(E[1] * u)
    natural = (2, 3, 4, 5, 6, 7)
    m = [[col.coords[i] for col in cols] for i in natural]
    from sixsphere import linalg
    assert linalg.det(m) < 0
    m2 = [[col.coords[i] for col in cols] for i in R6_BASIS]
    assert linalg.det(m2) > 0


def test_j_from_one_and_e1():
    assert j_from_octonion(Octonion.one()) == standard_structure()
    assert j_from_octonion(E[1]) == standard_structure()


def test_j_from_rational_point_invariants():
    j = j_from_octonion(X25)
    assert j.exact
    # validation runs in the constructor: orthogonal, squares to -1, oriented
    assert j.orientation_sign() > 0
    assert j != standard_structure()


def test_j_ray_invariance(rng):
    x = random_rational_unit_octonion(rng)
    assert j_from_octonion(x) == j_from_octonion(7 * x)


def test_j_rejects_zero():
    with pytest.raises(NotUnit):
        j_from_octonion(Octonion.zero())


def test_equivalence_phase_and_refute(rng):
    x = random_rational_unit_octonion(rng)
    assert equivalent(x, x)
    c, s = random_rational_circle_point(rng)
    assert equivalent(x, (c * Octonion.one() + s * E[1]) * x)
    assert not equivalent(Octonion.one(), E[2])
    # J_{e2} differs from the standard structure on e4
    assert j_from_octonion(E[2]).apply(E[4]) != standard_structure().apply(E[4])


def test_equivalence_float_tolerance(rng):
    x = random_rational_unit_octonion(rng)
    xf = Octonion(x.to_float_array())
    th = 2 * np.pi / 7
    z = Octonion([np.cos(th), np.sin(th)] + [0.0] * 6)
    assert equivalent(xf, z * xf)


def test_recover_standard():
    assert recover_x(standard_structure()) == Octonion.one()


def test_recover_round_trip_exact(rng):
    for _ in range(25):
        x = random_rational_unit_octonion(rng)
        j = j_from_octonion(x)
        r = recover_x(j)
        # the point of the class orthogonal to e1
        assert r.exact and r.inner(E[1]) == 0
        assert equivalent(r, x)
        assert j_from_octonion(r) == j


def test_recover_antipodal_branch():
    # x perpendicular to <1, e1>: the whole class is orthogonal to e1, and
    # recovery returns a kernel vector of the class
    for x in (E[2], E[3] + F(1, 2) * E[7]):
        assert equivalent(recover_x(j_from_octonion(x)), x)


def test_recover_float_surjectivity(rng):
    worst = 0.0
    for _ in range(25):
        j = cstruct.random_structure_float(rng)
        x = recover_x(j)
        worst = max(worst, j_from_octonion(x).distance(j))
    assert worst < 1e-9


def test_recover_near_the_locus_perpendicular_to_1_e1():
    j = j_from_octonion(normalize(Octonion(NEAR_LOCUS)))
    assert j_from_octonion(recover_x(j)).distance(j) <= CHECK_TOL


@pytest.mark.parametrize("eps", [1e-6, 1e-7, 1e-8, 1e-9, 1e-10, 1e-11, 1e-12])
def test_recover_float_x_approaching_the_locus(eps, rng):
    # random float x with |(x0, x1)| = eps: the recovered x reproduces J
    for _ in range(10):
        v = rng.standard_normal(8)
        v[:2] *= eps / np.linalg.norm(v[:2])
        j = j_from_octonion(normalize(Octonion(v.tolist())))
        assert j_from_octonion(recover_x(j)).distance(j) <= CHECK_TOL


def test_recover_rejects_invalid():
    rows = [[F(1) if i == j else F(0) for j in range(6)] for i in range(6)]
    with pytest.raises(InvalidStructure):
        ComplexStructureR6(rows)          # identity is not a complex structure


def test_common_line_exact_prediction():
    # for x = 3/5 + 4/5 e2 the common line with the standard structure is
    # the quaternion subalgebra <1, e1, e2, e3> intersected with the 6-plane
    j = j_from_octonion(X25)
    std = standard_structure()
    line = common_line(j, std)
    for v in (line.u, line.ju):
        proj = v.inner(E[2]) * E[2] + v.inner(E[3]) * E[3]
        assert (v - proj).is_zero()
        assert (j.apply(v) - std.apply(v)).is_zero()
    assert line.contains(line.ju)


def test_common_line_identical_raises():
    j = j_from_octonion(X25)
    with pytest.raises(IdenticalStructures):
        common_line(j, j)


def test_common_line_float_pairs(rng):
    worst = 0.0
    for _ in range(40):
        j1 = cstruct.random_structure_float(rng)
        j2 = cstruct.random_structure_float(rng)
        line = common_line(j1, j2)
        for v in (line.u, line.ju):
            worst = max(worst, max(abs(float(c)) for c in
                                   (j1.apply(v) - j2.apply(v)).coords))
    assert worst < 1e-9


def test_block_decomposition_exact(rng):
    senses = set()
    for _ in range(15):
        x = random_rational_unit_octonion(rng)
        try:
            qb = quaternion_coordinate_form(x)
        except DegenerateX:
            continue
        # l = conj(x) e1 x, a unit imaginary
        assert qb.l.norm_sq() == 1 and qb.l.coords[0] == 0
        senses.add(qb.rotation_sense)
    # the rotation sense of l as a rotation of e1 is globally consistent
    # (0 marks the half-turn case where the senses coincide)
    assert senses <= {-1, 0} and -1 in senses


def test_block_decomposition_example():
    qb = quaternion_coordinate_form(X25)
    # cos 2t = 2 cos^2 t - 1 = 2*(9/25) - 1 = -7/25
    assert qb.cos_2theta == F(-7, 25)
    assert qb.l == ((X25.conjugate() * E[1]) * X25)


def test_block_decomposition_half_turn():
    # x = e2: theta = pi/2, so l = conj(e2) e1 e2 = -e1 and the rotation
    # sense degenerates
    qb = quaternion_coordinate_form(E[2])
    assert qb.l == -E[1]
    assert qb.l == (E[2].conjugate() * E[1]) * E[2]
    assert qb.cos_2theta == F(-1)
    assert qb.rotation_sense == 0


def test_block_decomposition_float_right_angle():
    c = float(np.cos(np.pi / 4))
    x = Octonion([c, 0.0, c, 0.0, 0.0, 0.0, 0.0, 0.0])
    qb = quaternion_coordinate_form(x)
    # rotating e1 by 90 degrees within the quaternions through e2 lands on
    # a multiple of e3 = e1 e2
    assert abs(float(qb.l.coords[1])) < 1e-12
    assert abs(abs(float(qb.l.coords[3])) - 1.0) < 1e-12


def test_block_degenerate():
    with pytest.raises(DegenerateX):
        quaternion_coordinate_form(Octonion.one())
    with pytest.raises(DegenerateX):
        quaternion_coordinate_form(E[1])


def test_extract_embed_round_trip(rng):
    v = [F(1), F(-2), F(3), F(0), F(5), F(-1)]
    assert extract6(embed6(v)) == v
    with pytest.raises(InvalidStructure):
        extract6(E[1])


def test_cp3_basics():
    p1 = to_cp3(Octonion.one())
    assert p1.coords[0] == (F(1), F(0))
    assert p1 == to_cp3(E[1])                      # phase quotient
    p2 = to_cp3(E[2])
    assert p2.coords == ((F(0), F(0)), (F(1), F(0)), (F(0), F(0)), (F(0), F(0)))
    assert p1 != p2


def test_cp3_module_closure():
    # e1 (e1 b) = -b for each module basis vector b: left multiplication by
    # e1 is multiplication by the complex unit in the module structure
    for b in cstruct.CP3_MODULE_BASIS:
        assert E[1] * (E[1] * E[b]) == -E[b]


def test_cp3_matches_equivalence(rng):
    for _ in range(20):
        x = random_rational_unit_octonion(rng)
        y = random_rational_unit_octonion(rng)
        c, s = random_rational_circle_point(rng)
        z = (c * Octonion.one() + s * E[1]) * x
        assert to_cp3(x) == to_cp3(z)
        assert (to_cp3(x) == to_cp3(y)) == equivalent(x, y)


def test_orientation_of_all_j(rng):
    for _ in range(10):
        x = random_rational_unit_octonion(rng)
        assert j_from_octonion(x).orientation_sign() > 0


def test_injectivity_modulo_phase(rng):
    for _ in range(15):
        x = random_rational_unit_octonion(rng)
        y = random_rational_unit_octonion(rng)
        assert (j_from_octonion(x) == j_from_octonion(y)) == equivalent(x, y)


def test_serialization_round_trip():
    j = j_from_octonion(X25)
    back = ComplexStructureR6.from_strings(j.to_strings())
    assert back == j and back.exact
    jf = cstruct.random_structure_float(np.random.default_rng(5))
    backf = ComplexStructureR6.from_strings(jf.to_strings())
    assert backf.distance(jf) == 0.0
