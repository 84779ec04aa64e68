"""Structures built as products of 8x8 multiplication matrices, against the
per-basis-vector formulas they replace (kept here as the reference): the
canonical and twistor structures, the orthogonal-group action on sections,
J_x and the standard structure, and the section comparisons by linear
factors.  Exact rows must be equal; float rows agree within FLOAT_ROWS_TOL.
Also: the Pfaffian orientation test against the greedy complex-basis
determinant, and that exact structures stay exact."""

from fractions import Fraction as F

import numpy as np
import pytest

from sixsphere import cstruct, linalg, suites, twistor
from sixsphere.cstruct import (ComplexStructureR6, R6_BASIS, j_from_octonion,
                               standard_structure)
from sixsphere.octonion import (EXACT, FLOAT, Octonion, SquareMatrix,
                                arithmetic_of)
from sixsphere.sampling import (random_imaginary_unit_float,
                                random_rational_imaginary_unit,
                                random_rational_unit_octonion,
                                random_so7_float, random_unit_octonion_float,
                                rng_from_seed)
from sixsphere.twistor import (SO7Element, TwistorPoint, canonical_section,
                               section_sample_points, so7_act,
                               twistor_evaluate)

from references import embed6, extract6

#: float rows of the two constructions differ only in rounding order
FLOAT_ROWS_TOL = 1e-14
ONE = Octonion.basis(0)


# -- the per-basis-vector reference ------------------------------------------

def _closure_rows(p: Octonion, image_of):
    """The 8x8 matrix whose column k is image_of(e_k - <e_k,1>1 - <e_k,p>p),
    with a zero column where that projection vanishes."""
    cols, exact = [], p.exact
    for k in range(8):
        e = Octonion.basis(k)
        v = e - e.inner(ONE) * ONE - e.inner(p) * p
        w = image_of(v) if not v.is_zero() else Octonion.zero()
        exact = exact and w.exact
        cols.append(w.coords)
    if exact:
        return tuple(tuple(cols[j][i] for j in range(8)) for i in range(8))
    return np.array([[float(cols[j][i]) for j in range(8)] for i in range(8)])


def _closure_j(image_of):
    """The 6x6 matrix of image_of on the ordered basis of the 6-plane."""
    cols = [extract6(image_of(embed6([1 if i == pos else 0 for i in range(6)])))
            for pos in range(6)]
    return [[cols[j][i] for j in range(6)] for i in range(6)]


def _canonical_ref(p):
    return _closure_rows(p, lambda v: p * v)


def _twistor_ref(p, x):
    n, xc = x.norm_sq(), x.conjugate()
    return _closure_rows(p, lambda v: (p * (v * x)) * xc / n)


def _acted_ref(a: SO7Element, inner, p):
    """(A.J)_p(v) = A J_{A^-1 p}(A^-1 v), with J given by its structures."""
    j = inner(a.inverse_apply(p))
    return _closure_rows(p, lambda v: a.apply(j.apply(a.inverse_apply(v))))


def _j_ref(x):
    ctx = arithmetic_of(x)
    n, xc = x.norm_sq(), x.conjugate()
    return _closure_j(lambda v: (ctx.e1 * (v * x)) * xc / n)


def _assert_rows(got, want):
    if isinstance(want, tuple):
        assert got == want
        assert all(type(c) is F for row in got for c in row)
    else:
        got = np.asarray(got, dtype=float)
        assert got.shape == np.shape(want)
        assert np.max(np.abs(got - np.asarray(want, dtype=float))) <= FLOAT_ROWS_TOL


def _inputs(mode: str, seed: int):
    rng = rng_from_seed(seed)
    if mode == "exact":
        return (random_rational_imaginary_unit(rng),
                random_rational_unit_octonion(rng) * F(5, 3),
                twistor.random_so7_exact(rng), twistor.random_so7_exact(rng))
    return (random_imaginary_unit_float(rng),
            random_unit_octonion_float(rng) * 1.7,
            SO7Element(random_so7_float(rng)), SO7Element(random_so7_float(rng)))


MODES_SEEDS = [(m, s) for m in ("exact", "float") for s in (1, 2, 3)]


@pytest.mark.parametrize("mode,seed", MODES_SEEDS)
def test_canonical_and_twistor_structures_match_formulas(mode, seed):
    p, x, _, _ = _inputs(mode, seed)
    for q in (p, Octonion.basis(3), Octonion.basis(7)):
        st = canonical_section()(q if mode == "exact" else
                                 Octonion(q.to_float_array()))
        _assert_rows(st.rows, _canonical_ref(st.p))
        assert st.exact == (mode == "exact")
    for y in (x, ONE, x.conjugate()):
        st = twistor_evaluate(TwistorPoint(p, y))
        _assert_rows(st.rows, _twistor_ref(p, y))
        assert st.exact == (mode == "exact")


@pytest.mark.parametrize("mode,seed", MODES_SEEDS)
def test_so7_action_matches_formula_and_composes(mode, seed):
    p, x, a, b = _inputs(mode, seed)
    rp7 = twistor.rp7_section(x)
    points = [p, *section_sample_points()[:4]]
    for inner in (canonical_section(), rp7):
        once = so7_act(a, inner)
        twice = so7_act(b, once)
        composed = so7_act(b.compose(a), inner)
        for q in points:
            _assert_rows(once(q).rows, _acted_ref(a, inner, q))
            _assert_rows(twice(q).rows, _acted_ref(b, once, q))
            _assert_rows(twice(q).rows, composed(q).rows if mode == "exact"
                         else composed(q).as_array())


@pytest.mark.parametrize("mode,seed", MODES_SEEDS)
def test_stacked_section_comparisons_match_per_point(mode, seed):
    # sections are compared by their linear factors stacked over e_1, ...,
    # e_7; since K(p) = J_p + p 1^T - 1 p^T on the sphere, the structures
    # at those points give the same verdicts and distances
    _, x, a, _ = _inputs(mode, seed)
    acted = so7_act(a, canonical_section())
    pairs = ((acted, twistor.rp7_section(twistor.companion(a).a)),
             (acted, twistor.rp7_section(x)),
             (twistor.rp7_section(x), twistor.rp7_section(-x)),
             (canonical_section(), so7_act(a, acted)))
    points = [Octonion.basis(k) for k in range(1, 8)]
    verdicts = []
    for s1, s2 in pairs:
        want = all(s1(q) == s2(q) for q in points)
        assert twistor.sections_equal(s1, s2) == want
        verdicts.append(want)
        dist = max(s1(q).distance(s2(q)) for q in points)
        assert abs(twistor.section_distance(s1, s2) - dist) <= FLOAT_ROWS_TOL
    assert verdicts == [True, False, True, False]


@pytest.mark.parametrize("mode,seed", MODES_SEEDS)
def test_j_from_octonion_matches_formula(mode, seed):
    _, x, _, _ = _inputs(mode, seed)
    for y in (x, x.conjugate(), x * Octonion.basis(2)):
        j = j_from_octonion(y)
        assert j.exact == (mode == "exact")
        want = _j_ref(y)
        _assert_rows(j.rows, tuple(tuple(r) for r in want) if j.exact
                     else np.array(want, dtype=float))


@pytest.mark.parametrize("exact", [True, False])
def test_standard_structure_matches_formula_and_is_built_once(exact):
    ctx = EXACT if exact else FLOAT
    std = standard_structure(exact)
    want = _closure_j(lambda v: ctx.e1 * v)
    if exact:
        assert std.rows == tuple(tuple(r) for r in want)
    else:
        assert np.array_equal(std.rows, [[float(c) for c in r] for r in want])
    assert std.exact == exact
    assert standard_structure(exact=exact) is std
    assert std is not standard_structure(not exact)


# -- the orientation test ----------------------------------------------------

def _greedy_orientation(j: ComplexStructureR6) -> int:
    """Sign of det(u, Ju, v, Jv, w, Jw) for a J-complex basis built greedily
    from the standard basis by Gram-Schmidt, over the entries' own field."""
    cols, taken = [], []
    one = F(1) if j.exact else 1.0
    for k in range(6):
        r = [one if i == k else 0 * one for i in range(6)]
        for t in taken:
            coeff = sum(x * y for x, y in zip(r, t)) / sum(x * x for x in t)
            r = [x - coeff * y for x, y in zip(r, t)]
        if max(abs(float(c)) for c in r) < 1e-6:
            continue
        jr = extract6(j.apply(embed6(r)))
        cols += [r, jr]
        taken += [r, jr]
        if len(cols) == 6:
            break
    m = [[cols[c][i] for c in range(6)] for i in range(6)]
    d = linalg.det(m) if j.exact else np.linalg.det(np.array(m, dtype=float))
    return 1 if d > 0 else -1


def _reflected(j: ComplexStructureR6) -> ComplexStructureR6:
    # R J R with R = diag(-1, 1, ..., 1): orthogonal, squares to -1, and of
    # the opposite orientation
    s = [-1, 1, 1, 1, 1, 1]
    return ComplexStructureR6([[s[i] * j.rows[i][k] * s[k] for k in range(6)]
                               for i in range(6)], validate=False)


def test_pfaffian_orientation_agrees_with_greedy_determinant():
    rng = rng_from_seed(7)
    structures = [standard_structure(True), standard_structure(False)]
    for _ in range(15):
        x = random_rational_unit_octonion(rng)
        structures += [j_from_octonion(x), cstruct.random_structure_float(rng)]
    assert linalg.pfaffian(standard_structure().rows) == -1
    for j in structures:
        assert j.orientation_sign() == _greedy_orientation(j) == 1
        r = _reflected(j)
        assert r.orientation_sign() == _greedy_orientation(r) == -1


def test_pfaffian_small_cases():
    assert linalg.pfaffian([[0, F(2, 3)], [F(-2, 3), 0]]) == F(2, 3)
    a = [[0, 1, 2, 3], [-1, 0, 4, 5], [-2, -4, 0, 6], [-3, -5, -6, 0]]
    assert linalg.pfaffian(a) == 1 * 6 - 2 * 5 + 3 * 4
    assert linalg.pfaffian([[0.0, 0.5], [-0.5, 0.0]]) == 0.5


# -- exact structures stay exact ---------------------------------------------

def test_exact_structures_apply_int_numerators_and_read_no_rows(monkeypatch):
    # an exact structure multiplies the int numerators of its pair with those
    # of an exact octonion, its Pfaffian sees ints only, and no computation
    # reads `rows`, the output view, while the exact suites run
    seen = {"apply": [], "pfaffian": [], "rows": []}
    classes = set()
    apply, pfaffian = SquareMatrix.apply, linalg.pfaffian

    def spy_apply(self, o):
        if self.exact and o.exact:
            classes.add(type(self).__name__)
            seen["apply"].append([*self.m[0].flat, self.m[1], *o.numerators,
                                  o.denominator])
        return apply(self, o)

    def spy_pfaffian(a):
        seen["pfaffian"].append([c for row in a for c in row])
        return pfaffian(a)

    def spy_rows(m):
        seen["rows"].append(type(m).__name__)

    monkeypatch.setattr(SquareMatrix, "apply", spy_apply)
    monkeypatch.setattr(SquareMatrix, "rows", property(spy_rows))
    monkeypatch.setattr(linalg, "pfaffian", spy_pfaffian)
    rng = rng_from_seed(11)
    for _ in range(3):
        x, y = random_rational_unit_octonion(rng), random_rational_unit_octonion(rng)
        j = j_from_octonion(x)
        assert j.exact and j.orientation_sign() == 1
        assert cstruct.equivalent(cstruct.recover_x(j), x)
        cstruct.common_line(j, j_from_octonion(y))
        cstruct.quaternion_coordinate_form(x)
    for name in suites.SUITES:
        if "exact" in suites.MODES[name]:
            assert suites.run_suite(name, samples=2, seed=3).mode == "exact"
    assert seen["rows"] == []
    assert classes == {"ComplexStructureR6", "SO7Element", "TangentStructure"}
    assert seen["apply"] and seen["pfaffian"]
    for name in ("apply", "pfaffian"):
        for entries in seen[name]:
            assert all(type(c) is int for c in entries), name


def test_restriction_uses_the_swapped_basis_order():
    # J_x reads rows and columns in R6_BASIS order, not the natural one
    x = Octonion([F(3, 5), 0, 0, F(4, 5), 0, 0, 0, 0])
    j = j_from_octonion(x)
    for pos, idx in enumerate(R6_BASIS):
        e = Octonion.basis(idx)
        image = (EXACT.e1 * (e * x)) * x.conjugate() / x.norm_sq()
        assert [j.rows[i][pos] for i in range(6)] == extract6(image)
