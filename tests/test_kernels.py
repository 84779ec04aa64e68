"""The exact kernels on integer numerators, against plain per-term Fraction
arithmetic; their float and mixed inputs; and the multiplication matrices
against their definition through `batch_mul`."""

from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sixsphere import linalg
from sixsphere.frames import apply_matrix
from sixsphere.octonion import (MUL_INDEX, MUL_SIGN, Octonion, batch_mul,
                                left_mult_matrix, right_mult_matrix)

# zeros, integer-valued Fractions, and negative entries over denominators up
# to 2**64
rationals = st.one_of(
    st.just(F(0)),
    st.integers(-9, 9).map(F),
    st.builds(F, st.integers(-2 ** 70, 2 ** 70), st.integers(1, 2 ** 64)),
)
octonions = st.lists(rationals, min_size=8, max_size=8).map(Octonion)
kernel_settings = settings(max_examples=60, deadline=None)


def _per_term_product(x, y) -> Octonion:
    """The product term by term in the scalars' own arithmetic, zero
    coordinates skipped, through the public constructor."""
    z = [0] * 8
    for i in range(8):
        for j in range(8):
            if x[i] and y[j]:
                if MUL_SIGN[i][j] > 0:
                    z[MUL_INDEX[i][j]] += x[i] * y[j]
                else:
                    z[MUL_INDEX[i][j]] -= x[i] * y[j]
    return Octonion(z)


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
@given(st.integers(1, 10).flatmap(
    lambda n: st.tuples(st.lists(rationals, min_size=n, max_size=n),
                        st.lists(rationals, min_size=n, max_size=n))))
def test_exact_dot_matches_per_term(xy):
    x, y = xy
    _assert_same_fractions([linalg.dot(x, y), linalg.dot(x, x)],
                           [_per_term_dot(x, y), _per_term_dot(x, x)])


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
        got = linalg.dot(u, v)
        assert type(got) is float and got == sum(a * b for a, b in zip(u, v))
    assert x.inner(y) == sum(a * b for a, b in zip(x.coords, y.coords))


# -- multiplication matrices -------------------------------------------------

@pytest.mark.parametrize("shape", [(8,), (1, 8), (270, 8), (2000, 8)])
def test_mult_matrices_equal_products_with_identity(shape, rng):
    # zero coordinates of both signs give zero entries, whose signs the
    # definition fixes through a sum of signed zeros
    w = rng.standard_normal(shape)
    w[rng.random(shape) < 0.3] = 0.0
    w[rng.random(shape) < 0.3] *= -1
    several = len(shape) == 2 and shape[0] > 1
    if several:
        w[0] = -0.0
        w[1] = [-0.0, -1, 1, -1, 1, -1, 1, -1]
    eye = np.eye(8)
    pairs = ((left_mult_matrix(w), batch_mul(w[..., None, :], eye)),
             (right_mult_matrix(w), batch_mul(eye, w[..., None, :])))
    for got, product in pairs:
        want = product.swapaxes(-1, -2)
        assert got.shape == want.shape == shape + (8,)
        assert np.array_equal(got, want)
        zero = want == 0
        assert np.array_equal(np.signbit(got[zero]), np.signbit(want[zero]))
        if several:
            assert np.signbit(want[zero]).any() and not np.signbit(want[zero]).all()
