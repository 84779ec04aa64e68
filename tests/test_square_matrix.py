"""The square-matrix holder shared by tangent structures, structures on the
6-plane and SO(7) elements: one mode rule, validation that passes a matrix
only when every check holds within tolerance (so NaN and inf fail), string
round trips in both modes; and the companion's lazily built candidates."""

from fractions import Fraction as F

import numpy as np
import pytest

from sixsphere import twistor
from sixsphere.cstruct import (ComplexStructureR6, j_from_octonion,
                               random_structure_float, standard_structure)
from sixsphere.errors import DegenerateInput, InvalidStructure
from sixsphere.frames import random_g2_matrix
from sixsphere.octonion import EXACT, FLOAT, Octonion
from sixsphere.sampling import (random_rational_unit_octonion,
                                random_so7_float, rng_from_seed)
from sixsphere.twistor import (SO7Element, TangentStructure,
                               canonical_structure_at)


def test_float_entries_make_a_float_matrix_in_every_class():
    rng = rng_from_seed(3)
    a = random_so7_float(rng)
    j = random_structure_float(rng).as_array()
    p = Octonion.basis(2)
    st = canonical_structure_at(p)
    one_float = [list(r) for r in st.rows]
    one_float[0][0] = 0.0
    for m in (SO7Element(a), SO7Element(a.tolist()),
              ComplexStructureR6(j), ComplexStructureR6(j.tolist()),
              TangentStructure(p, st.as_array()),
              TangentStructure(p, st.as_array().tolist()),
              TangentStructure(p, one_float)):
        assert not m.exact
        assert isinstance(m.rows, np.ndarray) and m.rows.dtype == float
    for m in (st, SO7Element([[int(i == k) for k in range(8)] for i in range(8)]),
              j_from_octonion(random_rational_unit_octonion(rng))):
        assert m.exact
        assert all(type(x) is F for row in m.rows for x in row)


def _with_entry(rows: np.ndarray, pos, value) -> np.ndarray:
    out = np.array(rows, dtype=float)
    out[pos] = value
    return out


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("as_list", [False, True])
def test_non_finite_float_matrices_are_rejected(value, as_list):
    cases = ((SO7Element, DegenerateInput, np.eye(8)),
             (ComplexStructureR6, InvalidStructure,
              standard_structure(False).as_array()))
    for cls, error, rows in cases:
        for pos in ((0, 0), (3, 4), (5, 5)):
            bad = _with_entry(rows, pos, value)
            with pytest.raises(error):
                cls(bad.tolist() if as_list else bad)


@pytest.mark.parametrize("exact", [True, False])
def test_structure_validation_names_the_failed_check(exact):
    std = standard_structure(exact)
    one = F(1) if exact else 1.0
    # S J S^-1 for S = diag(2, 1, ..., 1): J^2 = -1 but not antisymmetric
    s = [2 * one] + [one] * 5
    skewed = [[s[i] * std.rows[i][k] / s[k] for k in range(6)] for i in range(6)]
    doubled = [[2 * x for x in row] for row in std.rows]
    # R J R for R = diag(-1, 1, ..., 1): the opposite orientation
    r = [-one] + [one] * 5
    reflected = [[r[i] * std.rows[i][k] * r[k] for k in range(6)] for i in range(6)]
    for rows, message in ((skewed, "antisymmetric"), (doubled, "J\\^2"),
                          (reflected, "orientation")):
        with pytest.raises(InvalidStructure, match=message):
            ComplexStructureR6(rows)
        assert ComplexStructureR6(rows, validate=False).exact == exact


@pytest.mark.parametrize("ctx", [EXACT, FLOAT])
def test_negated_pairs_compare_like_their_entries(ctx):
    # scaling by -1 gives an exact pair a negative denominator
    m = ctx.matrix([[1, F(1, 2)], [0, 3]])
    neg = ctx.scaled(m, -1)
    assert ctx.distance(neg, m) == 6.0
    assert not ctx.equal(neg, m)
    assert ctx.equal(neg, ctx.product(ctx.scaled(ctx.identity(2), -1), m))
    assert np.array_equal(np.asarray(ctx.entries(neg), dtype=float),
                          [[-1.0, -0.5], [0.0, -3.0]])


def test_strings_round_trip_in_both_modes():
    rng = rng_from_seed(8)
    lam = twistor.random_so7_exact(rng)
    for m in (lam, SO7Element(lam.as_array()),
              j_from_octonion(random_rational_unit_octonion(rng)),
              random_structure_float(rng)):
        strings = m.to_strings()
        back = type(m).from_strings(strings)
        assert back.exact == m.exact and back.distance(m) == 0.0
        if not m.exact:
            assert strings == [[repr(float(x)) for x in row] for row in m.rows]


def test_companion_of_an_automorphism_solves_no_pencil(monkeypatch):
    # every kernel vector of an automorphism's system is a companion
    # preimage, so the first one passes before any pencil is solved
    calls = []
    pencil = twistor._pencil_candidates

    def spy(*args):
        calls.append(args)
        return pencil(*args)

    monkeypatch.setattr(twistor, "_pencil_candidates", spy)
    lam = SO7Element(random_g2_matrix(rng_from_seed(3)))
    res = twistor.companion(lam)
    assert calls == []
    # the values the eagerly built candidate list gave
    assert res.a.to_strings() == ["1"] + ["0"] * 7
    assert (res.kernel_dim, res.residual) == (8, 0.0)

    float_res = twistor.companion(SO7Element(lam.as_array()))
    assert float_res.a.to_strings() == ["1.0"] + ["0.0"] * 7
    assert (float_res.kernel_dim, float_res.residual) == (1, 2.220446049250313e-16)
