"""The exact kernels on integer numerators, against plain per-term Fraction
arithmetic: the canonical pairs of exact octonions, `residual`, `is_zero`
and the integer-row kernel; the octonions the exact suites build; float
results and mixed inputs; and the multiplication matrices against their
definition through `batch_mul`."""

import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sixsphere import linalg, octonion, suites
from sixsphere.errors import DegenerateInput
from sixsphere.frames import apply_matrix
from sixsphere.octonion import (MUL_INDEX, MUL_SIGN, Octonion, batch_mul,
                                left_mult_matrix, left_mult_matrix_exact,
                                residual, right_mult_matrix,
                                right_mult_matrix_exact)

# zeros, integer-valued Fractions, and negative entries over denominators up
# to 2**64
rationals = st.one_of(
    st.just(F(0)),
    st.integers(-9, 9).map(F),
    st.builds(F, st.integers(-2 ** 70, 2 ** 70), st.integers(1, 2 ** 64)),
)
octonions = st.lists(rationals, min_size=8, max_size=8).map(Octonion)
kernel_settings = settings(max_examples=60, deadline=None)


def _per_term_coords(x, y) -> list:
    """The coordinates of the product, term by term in the scalars' own
    arithmetic, zero coordinates skipped."""
    z = [0] * 8
    for i in range(8):
        for j in range(8):
            if x[i] and y[j]:
                if MUL_SIGN[i][j] > 0:
                    z[MUL_INDEX[i][j]] += x[i] * y[j]
                else:
                    z[MUL_INDEX[i][j]] -= x[i] * y[j]
    return z


def _per_term_product(x, y) -> Octonion:
    """The per-term product through the public constructor."""
    return Octonion(_per_term_coords(x, y))


def _per_term_dot(x, y):
    return sum((F(a) * F(b) for a, b in zip(x, y)), F(0))


def _assert_same_fractions(got, want):
    assert all(type(c) is F for c in got)
    assert [str(c) for c in got] == [str(c) for c in want]


@kernel_settings
@given(octonions, octonions)
def test_exact_product_matches_per_term(x, y):
    got = x * y
    assert got.exact
    _assert_same_fractions(got.coords, _per_term_product(x.coords, y.coords).coords)


@kernel_settings
@given(octonions, octonions)
def test_inner_and_norm_match_per_term(x, y):
    _assert_same_fractions([x.inner(y), x.norm_sq()],
                           [_per_term_dot(x.coords, y.coords),
                            _per_term_dot(x.coords, x.coords)])


@kernel_settings
@given(st.lists(st.lists(st.one_of(rationals, st.integers(-3, 3)),
                         min_size=8, max_size=8), min_size=8, max_size=8),
       octonions)
def test_apply_matrix_matches_per_term(m, o):
    got = apply_matrix(m, o)
    assert got.exact
    _assert_same_fractions(got.coords, [_per_term_dot(row, o.coords) for row in m])


@kernel_settings
@given(st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4)).flatmap(
    lambda s: st.tuples(
        st.lists(st.lists(st.one_of(rationals, st.integers(-3, 3)),
                          min_size=s[1], max_size=s[1]), min_size=s[0], max_size=s[0]),
        st.lists(st.lists(rationals, min_size=s[2], max_size=s[2]),
                 min_size=s[1], max_size=s[1]))))
def test_mat_mul_and_mat_vec_match_per_term(ab):
    a, b = ab
    got = linalg.mat_mul(a, b)
    want = [[_per_term_dot(row, col) for col in zip(*b)] for row in a]
    assert len(got) == len(want)
    for g, w in zip(got, want):
        _assert_same_fractions(g, w)
    col = [row[0] for row in b]
    _assert_same_fractions(linalg.mat_vec(a, col), [_per_term_dot(row, col) for row in a])


scalars = st.one_of(st.integers(-2 ** 40, 2 ** 40), rationals)


@kernel_settings
@given(octonions, octonions, scalars)
def test_exact_closure_matches_per_term(x, y, k):
    # +, -, negation, conjugation and rational multiples of exact octonions
    # skip the validating constructor; their coordinates must still be the
    # canonical Fractions of per-term arithmetic
    X, Y, K = x.coords, y.coords, F(k)
    cases = [(x + y, [a + b for a, b in zip(X, Y)]),
             (x - y, [a - b for a, b in zip(X, Y)]),
             (-x, [-a for a in X]),
             (x.conjugate(), [X[0]] + [-a for a in X[1:]]),
             (k * x, [K * a for a in X]),
             (x * k, [K * a for a in X])]
    if k:
        cases.append((x / k, [a / K for a in X]))
    for got, want in cases:
        assert got.exact
        _assert_same_fractions(got.coords, want)


# -- canonical pairs ----------------------------------------------------------

def _assert_canonical(o: Octonion):
    n, d = o.numerators, o.denominator
    assert o.exact and type(n) is tuple and len(n) == 8
    assert all(type(c) is int for c in n) and type(d) is int and d > 0
    assert math.gcd(*n, d) == 1


@kernel_settings
@given(st.lists(rationals, min_size=8, max_size=8), octonions, scalars)
@example([F(0)] * 8, Octonion.zero(), 0)
@example([F(n) for n in (3, -1, 0, 4, 0, 0, -7, 2)], Octonion.basis(3), 5)
def test_exact_results_are_canonical_pairs(cs, y, k):
    # every exact result holds int numerators over a positive int
    # denominator with gcd 1, whose Fractions are those of per-term
    # Fraction arithmetic
    x = Octonion(cs)
    X, Y, K = x.coords, y.coords, F(k)
    cases = [(x, cs),
             (x + y, [a + b for a, b in zip(X, Y)]),
             (x - y, [a - b for a, b in zip(X, Y)]),
             (-x, [-a for a in X]),
             (x.conjugate(), [X[0]] + [-a for a in X[1:]]),
             (x * y, _per_term_coords(X, Y)),
             (y * x, _per_term_coords(Y, X)),
             (x * k, [K * a for a in X]),
             (K * x, [K * a for a in X])]
    if k:
        cases += [(x / k, [a / K for a in X]), (x / K, [a / K for a in X])]
    for got, want in cases:
        _assert_canonical(got)
        _assert_same_fractions(got.coords, want)


@kernel_settings
@given(octonions, st.integers(0, 7), rationals, st.integers(1, 2 ** 64))
def test_equality_compares_values(x, k, c, scale):
    # the same value over a scaled or negated denominator reduces to the
    # same pair; a changed coordinate compares as its Fractions do
    for d in (scale, -scale):
        same = Octonion.from_lifted([d * n for n in x.numerators], d * x.denominator)
        _assert_canonical(same)
        assert same == x
        assert (same.numerators, same.denominator) == (x.numerators, x.denominator)
    cs = list(x.coords)
    cs[k] = c
    other = Octonion(cs)
    assert (other == x) == (other.coords == x.coords) == (c == x.coords[k])
    assert (other != x) == (c != x.coords[k])


def test_from_lifted_takes_integers_only():
    # numpy integers become Python ints, so products cannot overflow int64;
    # a float or a Fraction numerator or denominator is a named error
    num = np.array([3 ** 30, 5, 0, 0, 0, 0, 0, 1])
    x = Octonion.from_lifted(num, np.int64(7))
    y = Octonion.from_lifted(num.tolist(), 7)
    for o in (x, y, x * x):
        _assert_canonical(o)
    assert x == y and x * x == y * y
    assert (x * x).numerators[0] == 3 ** 60 - 25 - 1
    for bad in (([1.0] + [0] * 7, 7), ([1] * 8, 7.0), ([F(1, 2)] + [0] * 7, 1),
                (np.array([0.5] * 8), 2)):
        with pytest.raises(DegenerateInput, match="integers"):
            Octonion.from_lifted(*bad)
    for short in ([1, 2, 3], [1] * 9, np.arange(7)):
        with pytest.raises(DegenerateInput, match="8 numerators"):
            Octonion.from_lifted(short, 1)


@kernel_settings
@given(octonions)
@example(Octonion.zero())
@example(Octonion([F(1, 3)] * 8))
@example(Octonion([F(-2 ** 70, 3), F(2 ** 70 - 1, 3)] + [0] * 6))
def test_residual_and_is_zero_match_fraction_definitions(x):
    # read off the numerators; the same floats, bit for bit, as the
    # definitions over the coordinates
    cs = x.coords
    want = max(abs(float(c)) for c in cs) if any(cs) else 0.0
    got = residual(x)
    assert type(got) is float and got.hex() == want.hex()
    assert x.is_zero() == all(c == 0 for c in cs)
    assert x.is_imaginary() == (cs[0] == 0)


def _fraction_kernel(m):
    # the right kernel from the reduced row echelon form over Fractions
    a = [[F(x) for x in row] for row in m]
    ncols = len(a[0]) if a else 0
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        p = next((i for i in range(r, len(a)) if a[i][c] != 0), None)
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        a[r] = [x / a[r][c] for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [F(0)] * ncols
        v[fc] = F(1)
        for r, pc in enumerate(pivots):
            v[pc] = -a[r][fc]
        basis.append(v)
    return basis


@kernel_settings
@given(st.tuples(st.integers(1, 7), st.integers(1, 7), st.integers(0, 4)).flatmap(
    lambda s: st.tuples(
        st.lists(st.lists(rationals, min_size=s[1], max_size=s[1]),
                 min_size=s[2], max_size=s[2]),
        st.lists(st.lists(st.one_of(st.integers(-3, 3), rationals),
                          min_size=max(s[2], 1), max_size=max(s[2], 1)),
                 min_size=s[0], max_size=s[0]))))
def test_kernel_basis_matches_fraction_elimination(gens_coeffs):
    # rows drawn from the span of a few generators, so kernels of every
    # dimension occur; the integer elimination gives the same basis, as int
    # rows over one positive int denominator
    gens, coeffs = gens_coeffs
    ncols = len(gens[0]) if gens else len(coeffs[0])
    m = [[sum((c * g[j] for c, g in zip(row, gens)), F(0)) for j in range(ncols)]
         for row in coeffs]
    got, d = linalg.kernel_basis(m)
    want = _fraction_kernel(m)
    assert type(d) is int and d > 0
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert all(type(x) is int for x in g)
        _assert_same_fractions([F(x, d) for x in g], w)


@pytest.mark.parametrize("basis", [range(8), (2, 3, 4, 5, 7, 6), (6, 1)])
def test_arithmetic_kernel_gives_octonions_zero_off_basis(basis, rng):
    # rank-deficient integer matrices on len(basis) columns, placed at the
    # columns `basis` of an 8-column system that pins every coordinate off
    # `basis` to 0: each kernel vector, as an octonion, is 0 off `basis` and
    # solves the system there
    n = len(basis)
    off = [k for k in range(8) if k not in basis]
    for rank in range(n):
        m = rng.integers(-3, 4, (rank + 2, rank)) @ rng.integers(-3, 4, (rank, n))
        full = np.zeros((len(m) + len(off), 8), dtype=int)
        full[:len(m), list(basis)] = m
        full[len(m) + np.arange(len(off)), off] = 1
        for ctx in (octonion.EXACT, octonion.FLOAT):
            rows = full.tolist() if ctx.exact else full.astype(float)
            ker = ctx.kernel(rows)
            assert len(ker) == n - np.linalg.matrix_rank(m)
            for o in ker:
                assert isinstance(o, Octonion) and o.exact == ctx.exact
                v = [o.coords[k] for k in basis]
                if ctx.exact:
                    _assert_canonical(o)
                    assert not any(o.numerators[k] for k in off)
                    assert all(sum(a * x for a, x in zip(row, v)) == 0
                               for row in m.tolist())
                else:
                    assert all(abs(o.coords[k]) <= 1e-9 for k in off)
                    assert np.max(np.abs(m @ np.array(v))) <= 1e-9


def test_exact_kernel_of_a_tall_system_is_the_direct_elimination(rng):
    # EXACT eliminates a tall M as M^T M: the basis is the one that
    # eliminating M itself gives, octonion for octonion
    for rank in range(9):
        m = (rng.integers(-3, 4, (48, rank)) @ rng.integers(-3, 4, (rank, 8))).tolist()
        vs, d = linalg.kernel_basis(m)
        assert octonion.EXACT.kernel(m) == [Octonion.from_lifted(v, d) for v in vs]


def test_exact_suites_build_only_canonical_pairs(monkeypatch):
    # every exact octonion and square matrix that the exact suites build,
    # through a public constructor or from a formula's pair, holds int
    # numerators over a positive int denominator with gcd 1: no float,
    # Fraction or numpy scalar; a matrix's rows are the Fractions of its pair
    built, matrices = [], []
    make, init = octonion._exact, Octonion.__init__
    SquareMatrix = octonion.SquareMatrix
    matrix_init, trusted = SquareMatrix.__init__, SquareMatrix._trusted.__func__

    def recording_make(num, d):
        o = make(num, d)
        built.append(o)
        return o

    def recording_init(self, coords):
        init(self, coords)
        built.append(self)

    def recording_matrix_init(self, *args, **kwargs):
        matrix_init(self, *args, **kwargs)
        matrices.append(self)

    def recording_trusted(cls, *args, **kwargs):
        m = trusted(cls, *args, **kwargs)
        matrices.append(m)
        return m

    monkeypatch.setattr(octonion, "_exact", recording_make)
    monkeypatch.setattr(Octonion, "__init__", recording_init)
    monkeypatch.setattr(SquareMatrix, "__init__", recording_matrix_init)
    monkeypatch.setattr(SquareMatrix, "_trusted", classmethod(recording_trusted))
    for name in suites.SUITES:
        if "exact" in suites.MODES[name]:
            assert suites.run_suite(name, samples=4, seed=3).mode == "exact"
    exact = [o for o in built if o.exact]
    assert len(exact) > 1000
    for o in exact:
        _assert_canonical(o)
    exact = [m for m in matrices if m.exact]
    assert {type(m).__name__ for m in exact} == {
        "ComplexStructureR6", "SO7Element", "TangentStructure"}
    for m in exact:
        a, d = m.m
        assert a.dtype == object and a.shape == (m.size, m.size)
        assert all(type(n) is int for n in a.flat) and type(d) is int and d > 0
        assert math.gcd(*a.flat, d) == 1
        assert all(type(x) is F for row in m.rows for x in row)
        assert m.rows == tuple(tuple(F(n, d) for n in row) for row in a.tolist())


# -- float and mixed inputs stay with float arithmetic ----------------------

def _assert_same_floats(got: Octonion, want: Octonion):
    assert not got.exact and not want.exact
    assert all(type(c) is float for c in got.coords)
    assert got.coords == want.coords


def test_mixed_inputs_keep_float_arithmetic(rng):
    x = Octonion([F(1, 3), F(-2, 7), 0, F(5), F(1, 2 ** 40), F(-3, 11), F(2, 9), 0])
    v = rng.standard_normal(8)
    v[3] = 0.0
    y = Octonion(v)
    _assert_same_floats(x * y, _per_term_product(x.coords, y.coords))
    _assert_same_floats(y * x, _per_term_product(y.coords, x.coords))
    _assert_same_floats(x * 0.3, Octonion(0.3 * a for a in x.coords))
    _assert_same_floats(0.3 * x, Octonion(0.3 * a for a in x.coords))
    _assert_same_floats(x / 0.3, Octonion(a / 0.3 for a in x.coords))
    _assert_same_floats(x * np.float64(0.3), Octonion(0.3 * a for a in x.coords))
    _assert_same_floats(x + y, Octonion(a + b for a, b in zip(x.coords, y.coords)))
    _assert_same_floats(x - y, Octonion(a - b for a, b in zip(x.coords, y.coords)))
    _assert_same_floats(-y, Octonion(-a for a in y.coords))
    rows = [list(r) for r in rng.standard_normal((8, 8))]
    want = Octonion(sum(row[j] * x.coords[j] for j in range(8)) for row in rows)
    _assert_same_floats(apply_matrix(rows, x), want)
    # one float anywhere turns a vector down for the integer path
    mixed = [F(1, 3), 0.5, F(2)]
    exact = [F(2), F(1, 7), F(-1, 5)]
    for u, v in ((mixed, exact), (exact, mixed)):
        got, = linalg.mat_vec([u], v)
        assert type(got) is float and got == sum(a * b for a, b in zip(u, v))
    assert x.inner(y) == sum(a * b for a, b in zip(x.coords, y.coords))


def test_float_results_equal_per_term_floats(rng):
    # float results skip the validating constructor; their coordinates are
    # Python floats equal, signed zeros included, to per-term float
    # arithmetic through the public constructor
    v, w = rng.standard_normal(8), rng.standard_normal(8)
    v[[2, 5]] = [0.0, -0.0]
    w[6] = 0.0
    x, y = Octonion(v), Octonion(w)
    X, Y = x.coords, y.coords
    cases = [(x * y, Octonion(_per_term_coords(X, Y))),
             (y * x, Octonion(_per_term_coords(Y, X))),
             (x + y, Octonion(a + b for a, b in zip(X, Y))),
             (x - y, Octonion(a - b for a, b in zip(X, Y))),
             (-x, Octonion(-a for a in X)),
             (x.conjugate(), Octonion([X[0]] + [-a for a in X[1:]])),
             (3 * x, Octonion(3 * a for a in X)),
             (x * F(1, 3), Octonion(F(1, 3) * a for a in X)),
             (x / 3, Octonion(a / 3 for a in X)),
             (x * np.float64(0.3), Octonion(0.3 * a for a in X)),
             (np.float64(0.3) * x, Octonion(0.3 * a for a in X)),
             (x * np.int64(3), Octonion(3 * a for a in X)),
             (x / np.float64(0.3), Octonion(a / 0.3 for a in X)),
             (x.imag(), Octonion([0.0, *X[1:]]))]
    for got, want in cases:
        _assert_same_floats(got, want)
        assert [math.copysign(1, c) for c in got.coords] == \
            [math.copysign(1, c) for c in want.coords]


# signed zeros, units and the smallest subnormal among finite floats small
# enough that no product or sum of eight overflows
floats = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 5e-324]),
                   st.floats(-1e150, 1e150))
float_coords = st.lists(floats, min_size=8, max_size=8)
rational_coords = st.lists(rationals, min_size=8, max_size=8)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.tuples(float_coords, float_coords),
                 st.tuples(rational_coords, float_coords),
                 st.tuples(float_coords, rational_coords)))
# the leading 0 of each coordinate's sum makes coordinate 4 +0.0 here
@example(([1.0, 0.0, 0.0, -0.0, -0.0, -1.0, 0.0, 1.0],
          [0.0, 0.0, -0.0, -0.0, -0.0, 0.0, 0.0, -1.0]))
def test_float_and_mixed_products_match_per_term(xy):
    # the one generated product, on float x float, Fraction x float and
    # float x Fraction operands, against the per-term sum that skips zero
    # terms: the same floats, signed zeros included
    x, y = map(Octonion, xy)
    got = (x * y).coords
    want = [float(c) for c in _per_term_coords(x.coords, y.coords)]
    assert all(type(c) is float for c in got)
    assert list(got) == want
    assert [math.copysign(1, c) for c in got] == [math.copysign(1, c) for c in want]


# -- multiplication matrices -------------------------------------------------

def _signed_zero_coords(shape, rng):
    # coordinates with zeros of both signs, and (for several rows) a row of
    # -0.0 and a row whose only zero is -0.0
    w = rng.standard_normal(shape)
    w[rng.random(shape) < 0.3] = 0.0
    w[rng.random(shape) < 0.3] *= -1
    if len(shape) == 2 and shape[0] > 1:
        w[0] = -0.0
        w[1] = [-0.0, -1, 1, -1, 1, -1, 1, -1]
    return w


@pytest.mark.parametrize("shape", [(8,), (1, 8), (270, 8), (2000, 8)])
def test_mult_matrices_equal_products_with_identity(shape, rng):
    # bit for bit, the signs of zero entries included
    w = _signed_zero_coords(shape, rng)
    eye = np.eye(8)
    pairs = ((left_mult_matrix(w), batch_mul(w[..., None, :], eye)),
             (right_mult_matrix(w), batch_mul(eye, w[..., None, :])))
    for got, product in pairs:
        want = product.swapaxes(-1, -2)
        assert got.shape == want.shape == shape + (8,)
        assert np.array_equal(got, want)
        zero = want == 0
        assert np.array_equal(np.signbit(got[zero]), np.signbit(want[zero]))


@pytest.mark.parametrize("shape", [(8,), (270, 8)])
def test_float_mult_matrices_have_positive_zeros(shape, rng):
    # a zero entry is +0.0, as the table product gives it, even where w has
    # -0.0 coordinates; the exact gathers keep ints
    for w in (_signed_zero_coords(shape, rng), np.full(shape, -0.0)):
        for m in (left_mult_matrix(w), right_mult_matrix(w)):
            assert (m == 0).any() and not np.signbit(m[m == 0]).any()
    for m in (left_mult_matrix_exact([0, -1, 2, 0, 0, 3, 0, 0]),
              right_mult_matrix_exact([0, -1, 2, 0, 0, 3, 0, 0])):
        assert m.dtype == object and all(type(x) is int for x in m.flat)
