"""The square-matrix holder shared by tangent structures, structures on the
6-plane and SO(7) elements: one mode rule, validation that passes a matrix
only when every check holds within tolerance (NaN and inf are rejected
before any check runs, with no numpy warning), a named error for entries
that are not real numbers, string round trips in both modes, mixed operands
computed on float copies; `apply` against the per-term `apply_matrix`;
equality by value within one class; and the companion's one verified
candidate."""

from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sixsphere import cstruct, twistor
from sixsphere.cstruct import (R6_BASIS, ComplexStructureR6, common_line,
                               j_from_octonion, random_structure_float,
                               standard_structure)
from sixsphere.errors import DegenerateInput, InvalidStructure
from sixsphere.frames import apply_matrix, random_g2_matrix
from sixsphere.octonion import EXACT, FLOAT, FLOAT_EQ_TOL, Octonion
from sixsphere.sampling import (random_rational_imaginary_unit,
                                random_rational_unit_octonion,
                                random_so7_float, rng_from_seed)
from sixsphere.twistor import (SO7Element, TangentStructure,
                               canonical_section)


def test_float_entries_make_a_float_matrix_in_every_class():
    rng = rng_from_seed(3)
    a = random_so7_float(rng)
    j = random_structure_float(rng).as_array()
    p = Octonion.basis(2)
    st = canonical_section()(p)
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


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("as_list", [False, True])
def test_non_finite_float_matrices_are_rejected(value, as_list):
    # an ndarray enters as an array, a list entry by entry: one message
    cases = ((SO7Element, DegenerateInput, np.eye(8)),
             (ComplexStructureR6, InvalidStructure,
              standard_structure(False).as_array()))
    for cls, error, rows in cases:
        for pos in ((0, 0), (3, 4), (5, 5)):
            bad = _with_entry(rows, pos, value)
            with pytest.raises(error, match="^entries must be finite real "
                               "numbers, got a NaN or an infinity$"):
                cls(bad.tolist() if as_list else bad)


_STD_FLOAT = standard_structure(False).as_array()


@pytest.mark.filterwarnings("error::numpy.exceptions.ComplexWarning")
@pytest.mark.parametrize("make, error", [
    (lambda: SO7Element(np.eye(8) + 1j * np.eye(8)), DegenerateInput),
    (lambda: SO7Element(np.eye(8) + 0j, validate=False), DegenerateInput),
    (lambda: ComplexStructureR6(_STD_FLOAT + 5j), InvalidStructure),
    (lambda: ComplexStructureR6([[np.complex128(x) for x in row]
                                 for row in _STD_FLOAT]), InvalidStructure),
    (lambda: SO7Element([[None] * 8] * 8), DegenerateInput),
    (lambda: SO7Element([[None] + [0.0] * 7] * 8), DegenerateInput),
    (lambda: ComplexStructureR6([["abc"] * 6] * 6), InvalidStructure),
    (lambda: Octonion([None] * 8), DegenerateInput),
    (lambda: Octonion([1.0, 2j] + [0.0] * 6), DegenerateInput),
    (lambda: Octonion([F(1, 2), np.complex128(2)] + [0] * 6), DegenerateInput),
    (lambda: Octonion([object()] * 8), DegenerateInput),
], ids=["so7-complex-array", "so7-complex-unvalidated", "structure-complex-array",
        "structure-complex-scalars", "so7-none", "so7-none-and-floats",
        "structure-string", "octonion-none", "octonion-complex",
        "octonion-numpy-complex", "octonion-object"])
def test_entries_that_are_not_real_numbers_raise_a_named_error(make, error):
    with pytest.raises(error, match="real numbers"):
        make()


@pytest.mark.parametrize("ctx", [EXACT, FLOAT], ids=["exact", "float"])
def test_per_mode_constants_are_built_once_and_read_only(ctx):
    assert ctx.identity(6) is ctx.identity(6)
    for pair in (ctx.identity(6), cstruct._left_e1(ctx),
                 cstruct._e1_left_basis(ctx)):
        a = pair[0]
        with pytest.raises(ValueError, match="read-only"):
            a[(0,) * a.ndim] = 5
    # a real numeric ndarray enters as an array: the doubles float() gives,
    # over 1.0, in a new array
    for rows in (np.eye(8, dtype=np.int64), np.eye(8, dtype=np.uint8),
                 np.eye(8, dtype=bool), np.eye(8, dtype=np.float32) / 3):
        a, d = ctx.matrix(rows)
        assert type(d) is float and d == 1.0 and a.dtype == float
        assert a.tolist() == [[float(x) for x in row] for row in rows.tolist()]
        assert not np.shares_memory(a, rows)
    lam = SO7Element(np.eye(8, dtype=int))
    assert not lam.exact and lam.m[0].dtype == float and lam.m[1] == 1.0
    # complex ndarrays keep the entry-by-entry path and its message
    for cls, error, rows in ((SO7Element, DegenerateInput, np.eye(8) + 0j),
                             (ComplexStructureR6, InvalidStructure,
                              _STD_FLOAT + 5j)):
        with pytest.raises(error, match="^entries must be finite real "
                           "numbers, got a complex number$"):
            cls(rows)


def test_fraction_strings_are_exact_entries():
    lam = SO7Element([["1" if i == k else "0" for k in range(8)] for i in range(8)])
    assert lam.exact and lam.rows[0][0] == 1
    x = Octonion(["1/2", "-3/4"] + ["0"] * 6)
    assert x.exact and x.coords[:2] == (F(1, 2), F(-3, 4))


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
    assert ctx.distance(neg, ctx.matrix([[-1, F(-1, 2)], [0, -3]])) == 0.0


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
    # the closed form verifies one candidate, in one isotopy pass, and an
    # automorphism's is 1 in both modes (the kernel route read kernel
    # dimension 1 off the float copy's rounding noise)
    calls = []
    verify = twistor.isotopy_residual

    def spy(lam, cands, tol):
        calls.append(len(cands))
        return verify(lam, cands, tol)

    monkeypatch.setattr(twistor, "isotopy_residual", spy)
    lam = SO7Element(random_g2_matrix(rng_from_seed(3)))
    res = twistor.companion(lam)
    assert calls == [1]
    assert res.a.to_strings() == ["1"] + ["0"] * 7
    assert (res.kernel_dim, res.residual) == (8, 0.0)

    float_res = twistor.companion(SO7Element(lam.as_array()))
    assert calls == [1, 1]
    assert FLOAT.eq(float_res.a, Octonion.one())
    assert (float_res.kernel_dim, float_res.residual) == \
        (8, 2.220446049250313e-16)


def _same_bits(got, want):
    assert not got.exact and got.m[0].dtype == float
    assert got.as_array().tobytes() == want.as_array().tobytes()


def test_mixed_operands_compute_on_float_copies():
    # an exact matrix meeting a float operand computes as its float copy:
    # every result equals the all-float one bit for bit
    rng = rng_from_seed(5)
    for _ in range(3):
        a, b = twistor.random_so7_exact(rng), twistor.random_so7_exact(rng)
        af, bf = SO7Element(a.as_array()), SO7Element(b.as_array())
        _same_bits(a.compose(bf), af.compose(bf))
        _same_bits(af.compose(b), af.compose(bf))
        x, y = random_rational_unit_octonion(rng), random_rational_unit_octonion(rng)
        j1, j2 = j_from_octonion(x), j_from_octonion(y)
        f1, f2 = (ComplexStructureR6(j.as_array()) for j in (j1, j2))
        assert j1 == f1 and f1 == j1
        assert (j1 == f2) == (f1 == f2) and (f1 == j2) == (f1 == f2)
        for got in (common_line(j1, f2), common_line(f1, j2)):
            want = common_line(f1, f2)
            assert got.u.coords == want.u.coords and got.ju.coords == want.ju.coords
        p = Octonion(float(c) for c in random_rational_imaginary_unit(rng).coords)
        canonical = twistor.canonical_section()
        _same_bits(twistor.so7_act(a, canonical)(p), twistor.so7_act(af, canonical)(p))
        xf = Octonion(float(c) for c in x.coords)
        got = twistor.section_distance(twistor.so7_act(a, canonical),
                                       twistor.rp7_section(xf))
        want = twistor.section_distance(twistor.so7_act(af, canonical),
                                        twistor.rp7_section(xf))
        assert got.hex() == want.hex()


# -- apply: one product of the pair with the octonion's numerators ----------

def _float_copy(o: Octonion) -> Octonion:
    return Octonion(float(c) for c in o.coords)


def _structures(seed: int) -> list:
    """An exact TangentStructure, SO7Element and ComplexStructureR6 from the
    seed, followed by their float copies."""
    rng = rng_from_seed(seed)
    x, p = random_rational_unit_octonion(rng), random_rational_imaginary_unit(rng)
    exact = [twistor.rp7_section(x)(p), twistor.random_so7_exact(rng),
             j_from_octonion(x)]
    return exact + [TangentStructure(_float_copy(p), exact[0].as_array()),
                    SO7Element(exact[1].as_array()),
                    ComplexStructureR6(exact[2].as_array())]


def _rows8(s) -> object:
    """s.rows as 8x8 rows over the octonion coordinates: a 6x6 structure
    sits on the rows and columns of R6_BASIS, zero elsewhere."""
    if s.size == 8:
        return s.rows
    idx = np.ix_(R6_BASIS, R6_BASIS)
    if not s.exact:
        rows = np.zeros((8, 8))
        rows[idx] = s.rows
        return rows
    rows = np.zeros((8, 8), dtype=object)
    rows[idx] = np.array(s.rows, dtype=object)
    return rows.tolist()


# entries up to 2**40 over denominators up to 2**30 for byte-identical exact
# results; small ones where a float result meets the absolute FLOAT_EQ_TOL
big_rationals = st.builds(F, st.integers(-2 ** 40, 2 ** 40), st.integers(1, 2 ** 30))
small_rationals = st.builds(F, st.integers(-1000, 1000), st.integers(1, 1000))
small_floats = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)


def _octonions(scalars):
    return st.lists(scalars, min_size=8, max_size=8).map(Octonion)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 16), _octonions(big_rationals),
       _octonions(small_rationals), _octonions(small_floats))
def test_apply_equals_the_per_term_apply_matrix(seed, big, small, floats):
    # exact structure on an exact octonion: byte-identical canonical pairs;
    # a float structure or octonion (mixed included): within FLOAT_EQ_TOL
    structures = _structures(seed)
    for s in structures:
        rows = _rows8(s)
        cases = [(small, not s.exact), (floats, True)]
        if s.exact:
            cases.append((big, False))
        for o, floats_out in cases:
            got, want = s.apply(o), apply_matrix(rows, o)
            assert got.exact == want.exact == (not floats_out)
            if got.exact:
                assert all(type(n) is int for n in got.numerators)
                assert (got.numerators, got.denominator) == \
                    (want.numerators, want.denominator)
            else:
                assert all(type(c) is float for c in got.coords)
                assert max(abs(a - b) for a, b in
                           zip(got.coords, want.coords)) <= FLOAT_EQ_TOL


def test_so7_elements_compare_by_value_in_both_modes():
    eye = [[int(i == j) for j in range(8)] for i in range(8)]
    assert SO7Element(eye) == SO7Element(eye)
    assert SO7Element(np.eye(8)) == SO7Element(np.eye(8))
    lam = twistor.random_so7_exact(rng_from_seed(4))
    copy = SO7Element(lam.as_array())
    assert lam.exact and not copy.exact
    assert lam == copy and copy == lam
    assert lam == SO7Element(lam.rows) and lam != SO7Element(eye)
    assert copy != SO7Element(np.eye(8))
    # a float element is equal within FLOAT_EQ_TOL, and no further
    for step, equal in ((FLOAT_EQ_TOL / 10, True), (FLOAT_EQ_TOL * 100, False)):
        nudged = copy.as_array()
        nudged[3, 5] += step
        assert (SO7Element(nudged, validate=False) == lam) is equal
    # a matrix compares only with its own class, even on the same pair (the
    # identity is no tangent structure, so the pair goes in unvalidated)
    assert SO7Element(eye) != TangentStructure._trusted(SO7Element(eye).m, EXACT)
