"""Octonion arithmetic: the generated table, composition-algebra identities,
and exact powers."""

from decimal import Decimal
from fractions import Fraction as F

import numpy as np
import pytest

from sixsphere import octonion, suites
from sixsphere.errors import DegenerateInput, ZeroDivisor
from sixsphere.frames import random_g2_frame
from sixsphere.octonion import (CHECK_TOL, EXACT, MUL_INDEX, MUL_SIGN,
                                Octonion, arithmetic_of, batch_mul, left_mult_matrix,
                                left_mult_matrix_exact, normalize, reject,
                                right_mult_matrix)
from sixsphere.sampling import (random_rational_circle_point,
                                random_rational_imaginary_unit,
                                random_rational_unit_octonion)

E = [Octonion.basis(k) for k in range(8)]


def test_doubling_basis_convention():
    # the basis is defined by e3 = e1 e2, e5 = e1 e4, e6 = e2 e4, e7 = e3 e4
    assert E[1] * E[2] == E[3]
    assert E[1] * E[4] == E[5]
    assert E[2] * E[4] == E[6]
    assert E[3] * E[4] == E[7]


def test_table_spot_values():
    assert E[4] * E[4] == -E[0]            # I * I = -1
    assert E[2] * E[1] == -E[3]
    assert E[1] * E[6] == -E[7]            # a genuinely non-quaternionic sign
    for k in range(1, 8):
        assert E[k] * E[k] == -E[0]


def test_unital():
    x = Octonion([F(1, 2), F(-2, 3), 0, F(5), 0, F(1, 7), 0, F(3)])
    assert Octonion.one() * x == x
    assert x * Octonion.one() == x


def test_quaternion_subtable():
    # e0..e3 multiply like the quaternions (1, i, j, k)
    quat = {(1, 1): (0, -1), (2, 2): (0, -1), (3, 3): (0, -1),
            (1, 2): (3, 1), (2, 1): (3, -1),
            (2, 3): (1, 1), (3, 2): (1, -1),
            (3, 1): (2, 1), (1, 3): (2, -1)}
    for (i, j), (k, s) in quat.items():
        assert MUL_INDEX[i][j] == k and MUL_SIGN[i][j] == s


def test_conjugation():
    assert E[0].conjugate() == E[0]
    assert E[1].conjugate() == -E[1]
    x = Octonion([F(3, 5), F(4, 5), 0, 0, 0, 0, 0, 0])
    assert x.conjugate() == Octonion([F(3, 5), F(-4, 5), 0, 0, 0, 0, 0, 0])
    # conj(x) = 2 <x,1> 1 - x
    y = Octonion([F(1, 3), F(2, 3), F(-2, 3), 0, 0, 0, 0, 0])
    assert y.conjugate() == 2 * y.inner(E[0]) * E[0] - y


def test_inner_and_inverse():
    assert E[1].inner(E[2]) == 0
    assert E[4].inverse() == -E[4]
    x = Octonion([F(3, 5), 0, F(4, 5), 0, 0, 0, 0, 0])
    assert x * x.inverse() == Octonion.one()
    assert x.inverse() == x.conjugate() / x.norm_sq()
    with pytest.raises(ZeroDivisor):
        Octonion.zero().inverse()


def test_norm_multiplicativity_exact(rng):
    for _ in range(60):
        x = random_rational_unit_octonion(rng)
        y = random_rational_unit_octonion(rng)
        assert (x * y).norm_sq() == x.norm_sq() * y.norm_sq() == 1
    # also off the unit sphere
    a = Octonion([F(1, 2), F(3), 0, F(-1, 5), 0, 0, F(2), 0])
    b = Octonion([0, F(1, 3), F(1, 3), 0, F(7), 0, 0, F(-2, 9)])
    assert (a * b).norm_sq() == a.norm_sq() * b.norm_sq()


def test_x_conj_x_is_norm(rng):
    for _ in range(30):
        x = random_rational_unit_octonion(rng)
        assert x * x.conjugate() == x.norm_sq() * Octonion.one()


def test_alternativity_and_moufang(rng):
    for _ in range(40):
        x = random_rational_unit_octonion(rng)
        y = random_rational_unit_octonion(rng)
        z = random_rational_unit_octonion(rng)
        assert x * (x * y) == (x * x) * y
        assert (y * x) * x == y * (x * x)
        assert (x * y) * (z * x) == x * ((y * z) * x)
        assert x * (y * (x * z)) == ((x * y) * x) * z
        assert ((z * x) * y) * x == z * (x * (y * x))


def _bracketings(word):
    # every bracketing of the word, recomputed per split point (no memo)
    if len(word) == 1:
        return [word[0]]
    return [l * r for cut in range(1, len(word))
            for l in _bracketings(word[:cut]) for r in _bracketings(word[cut:])]


def test_artin_words_build_each_sub_product_once(rng):
    # the two-generator check of the octonion-axioms suite: over its 28
    # words the plan takes 100 products, not 276, one level per word length,
    # and lists the same bracketings in the same order as the recursion
    products = []

    class Term(str):
        def __mul__(self, other):
            products.append(1)
            return Term("(%s%s)" % (self, other))

    words = suites._words_up_to_4()
    assert len(words) == len(set(words)) == 28
    levels, at = suites._bracketing_plan()
    assert [len(a) for a, _ in levels] == [4, 16, 80]
    letters = (Term("y"), Term("x"))
    vals = list(letters)
    for a, b in levels:
        vals += [vals[i] * vals[j] for i, j in zip(a, b)]
    assert len(products) == 100
    got = [[vals[k] for k in ks] for ks in at]
    want = [_bracketings([letters[i] for i in w]) for w in words]
    assert len(products) == 100 + 276
    assert got == want
    assert sum(len(ks) - 1 for ks in at) == 72
    # on octonions: each difference row is the scalar bracketing's minus
    # its word's first, bit for bit in floats and zero in exact numerators
    x, y = (rng.standard_normal((3, 8)) for _ in range(2))
    d = suites._artin_differences(x, y)
    rows = iter(d.swapaxes(0, 1)[1])
    for w in words:
        first, *rest = _bracketings([(Octonion(y[1]), Octonion(x[1]))[i]
                                     for i in w])
        for v in rest:
            assert next(rows).tobytes() == np.array((v - first).numerators).tobytes()
    xs = [random_rational_unit_octonion(rng) for _ in range(4)]
    pts = EXACT.points(xs)[0].reshape(4, 8)
    d = suites._artin_differences(pts[:2], pts[2:])
    assert d.shape == (72, 2, 8) and not d.any()


def test_conjugation_antiautomorphism(rng):
    for _ in range(40):
        x = random_rational_unit_octonion(rng)
        y = random_rational_unit_octonion(rng)
        assert (x * y).conjugate() == y.conjugate() * x.conjugate()


def test_nonassociativity_witness_by_scan():
    witnesses = [(i, j, k)
                 for i in range(1, 8) for j in range(1, 8) for k in range(1, 8)
                 if (E[i] * E[j]) * E[k] != E[i] * (E[j] * E[k])]
    assert witnesses, "the octonions must not be associative"
    # under this table the doubling triple itself is a witness
    assert (1, 2, 4) in witnesses
    assert (E[1] * E[2]) * E[4] == E[7]
    assert E[1] * (E[2] * E[4]) == -E[7]


def test_two_generator_associativity(rng):
    # all parenthesizations of degree <= 4 words in {x, y} agree
    def parens(word):
        if len(word) == 1:
            return [word[0]]
        out = []
        for cut in range(1, len(word)):
            for l in parens(word[:cut]):
                for r in parens(word[cut:]):
                    out.append(l * r)
        return out

    for _ in range(5):
        x = random_rational_unit_octonion(rng)
        y = random_rational_unit_octonion(rng)
        for n in (3, 4):
            for bits in range(2 ** n):
                word = [x if (bits >> i) & 1 else y for i in range(n)]
                vals = parens(word)
                assert all(v == vals[0] for v in vals[1:])


def test_power_basics():
    x = Octonion([F(3, 5), 0, F(4, 5), 0, 0, 0, 0, 0])
    assert x.power(0) == Octonion.one()
    assert x.power(1) == x
    assert x.power(2) == x * x
    assert x.power(-1) == x.inverse()


def test_power_double_angle(rng):
    # (cos t + p sin t)^2 = cos 2t + p sin 2t on exact circle points
    for _ in range(25):
        c, s = random_rational_circle_point(rng)
        p = random_rational_unit_octonion(rng).imag()
        p = p - p.inner(Octonion.one()) * Octonion.one()
        if p.is_zero():
            continue
        nn = p.norm_sq()
        x = c * Octonion.one() + s * p
        sq = x.power(2)
        assert sq == (c * c - s * s * nn) * Octonion.one() + (2 * c * s) * p


def test_power_triple_angle_oracle():
    # cos 3t = 4c^3 - 3c and sin 3t = 3s - 4s^3 computed independently
    c, s = F(3, 5), F(4, 5)
    x = c * Octonion.one() + s * E[2]
    expect = (4 * c ** 3 - 3 * c) * Octonion.one() + (3 * s - 4 * s ** 3) * E[2]
    assert x.power(3) == expect
    assert expect.coords[0] == F(-117, 125)
    assert expect.coords[2] == F(44, 125)


def test_power_angle_formula_unit_axis(rng):
    # (cos t + p sin t)^6 = cos 6t + p sin 6t, with cos 6t, sin 6t computed
    # by angle-addition recursion, independent of octonion multiplication
    from sixsphere.sampling import random_rational_imaginary_unit
    for _ in range(10):
        c, s = random_rational_circle_point(rng)
        p = random_rational_imaginary_unit(rng)
        x = c * Octonion.one() + s * p
        ck, sk = c, s
        for _ in range(5):
            ck, sk = ck * c - sk * s, sk * c + ck * s
        assert x.power(6) == ck * Octonion.one() + sk * p


def test_float_mode_equality_tolerance():
    a = Octonion([1.0, 0, 0, 0, 0, 0, 0, 0])
    b = Octonion([1.0 + 1e-13, 0, 0, 0, 0, 0, 0, 0])
    c = Octonion([1.0 + 1e-9, 0, 0, 0, 0, 0, 0, 0])
    assert a == b
    assert a != c


def test_exact_and_float_modes():
    assert Octonion([F(1, 2)] + [0] * 7).exact
    assert not Octonion([0.5] + [0] * 7).exact
    mixed = Octonion([F(1, 2)] + [0] * 6 + [0.25])
    assert not mixed.exact


def test_normalize_zero_raises_zero_divisor():
    for zero in (Octonion.zero(), Octonion([0.0] * 8)):
        with pytest.raises(ZeroDivisor):
            normalize(zero)


def test_nonfinite_coordinates_raise_degenerate_input():
    for bad in (float("nan"), float("inf"), -float("inf"), np.float64("nan")):
        with pytest.raises(DegenerateInput, match="finite"):
            Octonion([F(1, 2)] + [0] * 6 + [bad])
    with pytest.raises(DegenerateInput, match="finite"):
        Octonion(np.array([np.inf] + [0.0] * 7))


MODES = [Octonion([F(1, 2), -3, 0, F(2, 7), 1, 0, 0, 5]),
         Octonion([0.5, -3.0, 0.0, 2 / 7, 1.0, 0.0, 0.0, 5.0])]


@pytest.mark.parametrize("x", MODES, ids=["exact", "float"])
def test_division_by_int_zero_raises_zero_divisor(x):
    with pytest.raises(ZeroDivisor):
        x / 0


@pytest.mark.parametrize("x", MODES, ids=["exact", "float"])
def test_division_by_numpy_zero_raises_zero_divisor(x):
    # numpy would divide into infinities, with only a RuntimeWarning
    for zero in (np.float64(0.0), np.float64(-0.0)):
        with pytest.raises(ZeroDivisor):
            x / zero


@pytest.mark.parametrize("x", MODES, ids=["exact", "float"])
def test_nan_scalar_raises_degenerate_input(x):
    nan = float("nan")
    for op in (lambda: x * nan, lambda: nan * x, lambda: x / nan,
               lambda: x * np.float64(nan)):
        with pytest.raises(DegenerateInput, match="finite"):
            op()


@pytest.mark.parametrize("x", MODES, ids=["exact", "float"])
def test_infinite_scalar_raises_degenerate_input(x):
    inf = float("inf")
    for op in (lambda: x * inf, lambda: -inf * x, lambda: x / inf,
               lambda: x * np.float64(-inf)):
        with pytest.raises(DegenerateInput, match="finite"):
            op()


def test_scalar_rule_exact_for_integers_else_float():
    # an int, Fraction or numpy integer keeps an exact octonion exact; any
    # other scalar enters as float(s), so a float result equals float(s) * a
    # (or a / float(s)) bit for bit, in float64 for a float32 scalar too
    x, xf = MODES
    for got, want in ((x * np.int64(3), x * 3), (np.int64(-3) * x, x * -3),
                      (x / np.int64(-3), x / -3), (x * F(3, 4), x * 3 / 4)):
        assert got.exact and got == want
        assert all(type(n) is int for n in got.numerators)
    cases = [(xf, s) for s in (F(1, 3), 3, -7)]
    cases += [(o, s) for o in MODES
              for s in (np.float64(0.3), np.float32(0.3), Decimal("0.3"))]
    for o, s in cases:
        cs = o.to_float_array().tolist()
        for got, want in ((o * s, [float(s) * a for a in cs]),
                          (s * o, [float(s) * a for a in cs]),
                          (o / s, [a / float(s) for a in cs])):
            assert not got.exact and all(type(c) is float for c in got.coords)
            assert [c.hex() for c in got.coords] == [c.hex() for c in want]


def test_float_results_that_overflow_raise_degenerate_input():
    # a finite product, sum or multiple whose coordinate overflows raises,
    # as the constructor does, rather than carrying inf or NaN onward
    big, big_exact = Octonion([1e200] + [0.0] * 7), Octonion([F(10 ** 200)] + [0] * 7)
    huge = Octonion([1.7e308] + [0.0] * 7)
    for op in (lambda: big * big, lambda: big_exact * big, lambda: big * big_exact,
               lambda: Octonion([1e200] * 8) * Octonion([1e200] * 8),
               lambda: huge + huge, lambda: huge - -huge, lambda: huge * 2,
               lambda: big * 1e200, lambda: 1e200 * big, lambda: big_exact * 1e200,
               lambda: big * np.float64(1e200), lambda: big / 1e-200):
        with pytest.raises(DegenerateInput, match="finite"), \
                np.errstate(over="ignore"):
            op()


def test_finite_coordinates_with_an_infinite_sum_do_not_raise():
    # eight coordinates of 1e308 sum to inf, but each is finite
    x, zero = Octonion([1e308] * 8), Octonion([0.0] * 8)
    for got in (x + zero, x - zero, -x, x.conjugate(), x * 1.0,
                x * np.float64(1.0), x / 1.0, E[0] * x, x * E[0]):
        assert [abs(c) for c in got.coords] == [1e308] * 8


def test_serialization_round_trip(rng):
    x = random_rational_unit_octonion(rng)
    assert Octonion.from_strings(x.to_strings()) == x
    assert "/" in "".join(x.to_strings())
    xf = Octonion(x.to_float_array())
    back = Octonion.from_strings(xf.to_strings())
    assert back.coords == xf.coords


def test_batch_mul_matches_scalar(rng):
    xs = [random_rational_unit_octonion(rng) for _ in range(8)]
    ys = [random_rational_unit_octonion(rng) for _ in range(8)]
    bx = np.stack([x.to_float_array() for x in xs])
    by = np.stack([y.to_float_array() for y in ys])
    prod = batch_mul(bx, by)
    for i, (x, y) in enumerate(zip(xs, ys)):
        assert np.allclose(prod[i], (x * y).to_float_array(), atol=1e-14)


def _rows_with_signed_zeros(rng, n):
    """n float rows with some coordinates +0.0 and some -0.0."""
    x = rng.standard_normal((n, 8))
    x[::3, 2] = 0.0
    x[1::4, 5] = -0.0
    x[::7] = -0.0
    return x


def _assert_scalar_rows(got, x, y):
    # every row of got is the scalar `Octonion * Octonion` of the operands'
    # rows, broadcast: floats bit for bit (signed zeros included), exact
    # numerators as Python ints
    x, y = np.broadcast_arrays(x, y)
    assert got.shape == x.shape
    for g, a, b in zip(got.reshape(-1, 8), x.reshape(-1, 8), y.reshape(-1, 8)):
        want = (Octonion(a.tolist()) * Octonion(b.tolist())).numerators
        if got.dtype == object:
            assert all(type(c) is int for c in g) and tuple(g) == want
        else:
            assert g.tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize("n", [1, 8, 64, 200, octonion.BATCH_ROWS - 1,
                               octonion.BATCH_ROWS, octonion.BATCH_ROWS + 1,
                               2000, 24000])
def test_batch_mul_is_the_scalar_product_bit_for_bit(n, rng):
    x, y = _rows_with_signed_zeros(rng, n), _rows_with_signed_zeros(rng, n)
    # coordinate 0 of 0 * (-0, 0, ..., 0) is a sum of eight -0.0 terms: the
    # leading 0 makes it +0.0
    x[0], y[0] = 0.0, [-0.0] + [0.0] * 7
    _assert_scalar_rows(batch_mul(x, y), x, y)
    if n <= 2000:
        xi = rng.integers(-2 ** 40, 2 ** 40, (n, 8)).astype(object) * 2 ** 30
        yi = rng.integers(-9, 10, (n, 8)).astype(object)
        _assert_scalar_rows(batch_mul(xi, yi), xi, yi)


@pytest.mark.parametrize("xshape, yshape", [((8,), (5, 8)), ((5, 8), (8,)),
                                            ((8, 1, 8), (1, 8, 8))])
@pytest.mark.parametrize("exact", [False, True])
def test_batch_mul_broadcasts_before_the_gather(xshape, yshape, exact, rng):
    x = _rows_with_signed_zeros(rng, 64).reshape(-1)[:np.prod(xshape)].reshape(xshape)
    y = rng.standard_normal(yshape)
    if exact:
        x, y = (np.round(8 * v).astype(int).astype(object) for v in (x, y))
    _assert_scalar_rows(batch_mul(x, y), x, y)


def _coordinate_axes(x, y):
    """`_product` on the coordinate axes: the exact `batch_mul` before the
    int64 gather, and still that of rows the gather turns away."""
    return np.stack(octonion._product(np.moveaxis(x, -1, 0),
                                      np.moveaxis(y, -1, 0)), -1)


def _same_entries(got, want):
    assert got.dtype == want.dtype == object and got.shape == want.shape
    assert [type(v) for v in got.flat] == [type(v) for v in want.flat]
    assert got.tolist() == want.tolist()


@pytest.mark.parametrize("n", [1, 8, octonion.BATCH_ROWS,
                               octonion.BATCH_ROWS + 1, 2000])
def test_exact_rows_take_the_int64_gather_bit_for_bit(n, rng, gathers):
    # entries up to 2^29: 8 * 2^29 * 2^29 = 2^61 fits, and every product is
    # exact in int64, so the gather equals `_product` and hands back ints
    shapes = [((n, 8), (n, 8)), ((8,), (n, 8)), ((n, 1, 8), (1, 3, 8))]
    for xshape, yshape in shapes:
        x = rng.integers(-2 ** 29, 2 ** 29, xshape).astype(object)
        y = rng.integers(-2 ** 29, 2 ** 29, yshape).astype(object)
        x.flat[0], y.flat[-1] = -2 ** 29, -2 ** 29
        got = batch_mul(x, y)
        _same_entries(got, _coordinate_axes(x, y))
        assert all(type(v) is int for v in got.flat)
    assert gathers == [np.dtype(np.int64)] * len(shapes)


@pytest.mark.parametrize("sign", [1, -1])
def test_the_int64_bound_is_exact_on_both_sides(sign, gathers):
    # x = a (1, ..., 1) and y = b (1, -1, ..., -1) make coordinate 0 the sum
    # of eight terms ab: 8ab itself.  8ab = 2^63 - 8, the largest multiple
    # of 8 under 2^63, takes int64; 8ab = 2^63 falls back (its sum would
    # not fit).  Each side puts its extreme on x and on y in turn.
    b_signs = np.array([1] + [-1] * 7, dtype=object)
    cases = [(2 ** 60 - 1, 1, True), (1, 2 ** 60 - 1, True),
             ((2 ** 30 - 1) * (2 ** 30 + 1), 1, True),
             (2 ** 60, 1, False), (1, 2 ** 60, False), (2 ** 30, 2 ** 30, False)]
    for a, b, fits in cases:
        x = np.full((3, 8), sign * a, dtype=object)
        y = np.tile(b * b_signs, (3, 1))
        gathers.clear()
        got = batch_mul(x, y)
        _same_entries(got, _coordinate_axes(x, y))
        assert got[0, 0] == sign * 8 * a * b
        assert gathers == ([np.dtype(np.int64)] if fits else [])


@pytest.mark.parametrize("odd", [F(1, 2), F(3, 1), 1.5, 2.0, True, False,
                                 np.int64(3), np.int32(-2)])
def test_rows_with_other_scalars_keep_the_coordinate_axes(odd, rng, gathers):
    # `astype(int64)` would truncate a Fraction or a float and turn a numpy
    # integer's products into ints: one such entry among ints keeps the
    # rows on `_product`, with its result and its types
    for n in (1, 8):
        x = rng.integers(-9, 10, (n, 8)).astype(object)
        y = rng.integers(-9, 10, (n, 8)).astype(object)
        for a, b in ((x, y), (y, x)):
            a = a.copy()
            a[-1, 3] = odd
            _same_entries(batch_mul(a, b), _coordinate_axes(a, b))
    assert gathers == []


def test_exact_rows_of_other_than_eight_coordinates_raise(gathers):
    # the gather reads rows of 8 and would pair up the entries of (4, 2)
    # operands; `_product` cannot unpack them: both are refused at entry
    a = np.ones((4, 2), dtype=object)
    for x, y in ((a, a), (a, np.ones((4, 8), dtype=object))):
        with pytest.raises(DegenerateInput, match="last axis of 8"):
            batch_mul(x, y)
    assert gathers == []


def test_float_rows_of_other_than_eight_coordinates_raise(gathers):
    # the float gather reshapes its operands to rows of 8, so (4, 2)
    # operands would come back as sums of their entries in pairs
    a = np.ones((4, 2))
    for x, y in ((a, a), (np.ones(8), a), (np.ones((4, 2, 8)), np.ones((4, 2, 1)))):
        with pytest.raises(DegenerateInput, match="last axis of 8"):
            batch_mul(x, y)
    assert gathers == []


def test_table_constants_are_built_from_the_table():
    # the module's table constants are the builder's, name by name, so one
    # rebinding of TABLE_CONSTANTS (the bent-table fixture) swaps them all
    built = octonion._table_constants(MUL_INDEX, MUL_SIGN)
    assert len(built) == len(octonion.TABLE_CONSTANTS)
    for name, value in zip(octonion.TABLE_CONSTANTS[:-1], built[:-1]):
        assert np.array_equal(getattr(octonion, name), value), name
    x, y = np.arange(8), np.arange(8) + 3
    assert built[-1](x, y) == octonion._product(x, y)


def test_mult_matrices(rng):
    w = random_rational_unit_octonion(rng)
    v = random_rational_unit_octonion(rng)
    assert np.allclose(left_mult_matrix(w) @ v.to_float_array(),
                       (w * v).to_float_array(), atol=1e-14)
    assert np.allclose(right_mult_matrix(w) @ v.to_float_array(),
                       (v * w).to_float_array(), atol=1e-14)
    m = left_mult_matrix_exact(w)
    got = [sum(m[i][j] * v.coords[j] for j in range(8)) for i in range(8)]
    assert Octonion(got) == w * v


def _dense_tensor():
    """T[i, j, k] with e_i e_j = sum_k T[i, j, k] e_k, from the table."""
    t = np.zeros((8, 8, 8))
    for i in range(8):
        for j in range(8):
            t[i, j, MUL_INDEX[i][j]] = MUL_SIGN[i][j]
    return t


@pytest.mark.parametrize("xshape,yshape", [((8,), (8,)), ((5, 8), (5, 8)),
                                           ((5, 8), (8,)), ((5, 1, 8), (8, 8))])
def test_batch_kernels_equal_dense_tensor(xshape, yshape, rng):
    # dyadic coordinates k/8: every product and every sum is exact, so the
    # sparse kernels must equal the dense contraction bit for bit
    t = _dense_tensor()
    x = rng.integers(-16, 17, size=xshape) / 8.0
    y = rng.integers(-16, 17, size=yshape) / 8.0
    want = np.einsum("ijk,...i,...j->...k", t, x, y)
    got = batch_mul(x, y)
    assert got.shape == want.shape and np.array_equal(got, want)
    for w in (x, y):
        left, right = left_mult_matrix(w), right_mult_matrix(w)
        assert left.shape == right.shape == w.shape + (8,)
        assert np.array_equal(left, np.einsum("ijk,...i->...kj", t, w))
        assert np.array_equal(right, np.einsum("ijk,...j->...ki", t, w))


def _flt(o: Octonion) -> Octonion:
    return Octonion(o.to_float_array())


def _pairwise_orthonormal(os, tol) -> bool:
    ctx = arithmetic_of(*os)
    return all(ctx.scalar_eq(u.inner(v), int(i == j), tol)
               for i, u in enumerate(os) for j, v in enumerate(os))


def test_orthonormal_matches_pairwise_inner_products(rng):
    # exact, float and mixed lists, orthonormal or not: the Gram matrix test
    # of the context agrees with the inner products taken pair by pair
    for _ in range(3):
        f = random_g2_frame(rng)
        exact = [f.x, f.y, f.z, f.y * f.x]
        for base in (exact, [_flt(o) for o in exact],
                     [exact[0], _flt(exact[1]), *exact[2:]]):
            cases = {
                True: [base, base[:1]],
                False: [base + [base[0]], [2 * base[0], *base[1:]],
                        [base[0] + F(1, 10 ** 6) * base[1], *base[1:]]],
            }
            for want, lists in cases.items():
                for os in lists:
                    got = arithmetic_of(*os).orthonormal(os, CHECK_TOL)
                    assert got is want
                    assert got == _pairwise_orthonormal(os, CHECK_TOL)
            # a defect of 1e-12 passes in floats only
            near = [base[0] + F(1, 10 ** 12) * base[1], *base[1:]]
            got = arithmetic_of(*near).orthonormal(near, CHECK_TOL)
            assert got == _pairwise_orthonormal(near, CHECK_TOL)
            assert got is not arithmetic_of(*near).exact


def test_reject_subtracts_the_projection_terms_in_order(rng):
    # reject(x, (1, p)) is x - <x,1> 1 - <x,p> p bit for bit, in every mode
    for _ in range(5):
        x = random_rational_unit_octonion(rng)
        p = random_rational_imaginary_unit(rng)
        for a, b in ((x, p), (_flt(x), _flt(p)), (_flt(x), p), (x, _flt(p))):
            want = a - a.inner(E[0]) * E[0] - a.inner(b) * b
            got = reject(a, (E[0], b))
            assert got.exact == want.exact
            assert got.numerators == want.numerators
            assert got.denominator == want.denominator
        assert reject(x, (E[0], p)).inner(p) == 0
