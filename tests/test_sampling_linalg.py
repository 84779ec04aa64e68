"""Rational sphere points and the exact/float linear algebra helpers."""

from fractions import Fraction as F

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sixsphere import cstruct, frames, linalg, sampling, suites
from sixsphere.frames import householder_swap
from sixsphere.octonion import EXACT, Octonion
from sixsphere.sampling import (haar_orthogonal, random_rational_vector,
                                rational_circle_point, rational_imaginary_unit,
                                rational_sphere_point, rational_unit_octonion,
                                rng_from_seed)

import references


def test_stereographic_fixed_points():
    assert rational_sphere_point([0] * 7) == (F(-1), 0, 0, 0, 0, 0, 0, 0)
    assert rational_sphere_point([1, 0, 0, 0, 0, 0, 0]) == \
        (F(0), F(1), 0, 0, 0, 0, 0, 0)
    # t = 1/2 on the circle: ((1/4 - 1)/(5/4), 1/(5/4)) = (-3/5, 4/5)
    assert rational_sphere_point([F(1, 2)]) == (F(-3, 5), F(4, 5))
    assert rational_circle_point(F(1, 2)) == (F(-3, 5), F(4, 5))


def test_unit_norm_exact(rng):
    for _ in range(50):
        t = random_rational_vector(rng, 7)
        x = rational_unit_octonion(t)
        assert x.norm_sq() == 1


def _same(got, want):
    # the same exact value in the same form: an octonion's canonical pair,
    # or Fractions
    if isinstance(want, Octonion):
        assert got.exact and (got.numerators, got.denominator) == \
            (want.numerators, want.denominator)
    else:
        assert all(type(a) is F for a in got) and tuple(got) == tuple(want)


def _fraction_frame(rng):
    # random_g2_frame through Fraction vectors and rational_* points
    x = rational_imaginary_unit(random_rational_vector(rng, 6))
    u = Octonion((0, 0, *rational_sphere_point(random_rational_vector(rng, 5))))
    h1 = householder_swap(Octonion.basis(1), x)
    y = h1(u)
    h2 = householder_swap(Octonion.basis(2), u)
    w = h1(h2(Octonion.basis(3)))
    z0 = householder_swap(w, y * x)(h1(h2(Octonion.basis(4))))
    a = Octonion.zero()
    for qi, b in zip(rational_sphere_point(random_rational_vector(rng, 3)),
                     (Octonion.one(), x, y, y * x)):
        a = a + qi * b
    return x, y, z0 * a


def test_integer_draws_equal_the_fraction_path():
    # each random exact draw takes its integers straight from the generator;
    # on a twin generator, random_rational_vector and the rational_* function
    # give the same value in the same form, and both generators end in the
    # same state
    p = sampling.random_rational_imaginary_unit(rng_from_seed(7))
    draws = [
        (sampling.random_rational_unit_octonion,
         lambda r: rational_unit_octonion(random_rational_vector(r, 7))),
        (sampling.random_rational_imaginary_unit,
         lambda r: rational_imaginary_unit(random_rational_vector(r, 6))),
        (sampling.random_rational_circle_point,
         lambda r: rational_circle_point(
             random_rational_vector(r, 1, num_max=12, den_max=7)[0])),
    ]
    for seed in range(200):
        ours, ref = rng_from_seed(seed), rng_from_seed(seed)
        for draw, want in draws:
            _same(draw(ours), want(ref))
        while True:   # random_rational_tangent, drawn until nonzero
            v = Octonion((0, *random_rational_vector(ref, 7)))
            v = v - v.inner(p) * p
            if not v.is_zero():
                break
        _same(sampling.random_rational_tangent(ours, p), v)
        got = frames.random_g2_frame(ours)
        for o, w in zip((got.x, got.y, got.z), _fraction_frame(ref)):
            _same(o, w)
        assert ours.bit_generator.state == ref.bit_generator.state


#: every (n, num_max, den_max) of the package's exact draws: points of the
#: spheres in Q^8, Q^7, Q^6 and Q^4 (unit octonions and tangents, unit
#: imaginaries, G2 frames) and the circle's
LIFTED_DRAWS = [(7, 6, 4), (6, 6, 4), (5, 6, 4), (3, 6, 4), (1, 12, 7)]


def test_one_call_draws_equal_the_two_call_reference():
    # the one `integers` call on per-entry bounds gives the integers of the
    # two sized calls and leaves the generator where they leave it
    for seed in range(200):
        ours, ref = rng_from_seed(seed), rng_from_seed(seed)
        for _ in range(3):
            for args in LIFTED_DRAWS:
                assert (sampling._random_lifted(ours, *args)
                        == references.random_lifted(ref, *args))
                assert ours.bit_generator.state == ref.bit_generator.state


def test_the_exact_suites_draw_only_the_tested_bounds(monkeypatch):
    seen = set()
    draw = sampling._random_lifted

    def spy(rng, n, num_max=6, den_max=4):
        seen.add((n, num_max, den_max))
        return draw(rng, n, num_max, den_max)

    monkeypatch.setattr(sampling, "_random_lifted", spy)
    assert all(r.ok for r in suites.run_all(mode="exact", seed=1, samples=1))
    assert seen == set(LIFTED_DRAWS)


def test_rng_determinism():
    a = rng_from_seed(42).integers(0, 1000, 5).tolist()
    b = rng_from_seed(42).integers(0, 1000, 5).tolist()
    assert a == b


def test_exact_kernel_and_rref():
    m = [[F(1), F(2), F(3)],
         [F(2), F(4), F(6)],
         [F(1), F(0), F(1)]]
    ker, d = linalg.kernel_basis(m)
    assert len(ker) == 1 and d > 0
    assert ker[0] == [-d, -d, d]  # the vector with 1 at the free column
    for row in m:
        assert sum(a * b for a, b in zip(row, ker[0])) == 0


def test_lift_exact_gives_python_ints():
    # a vector of Python ints is its own lift over 1; bools, numpy integers,
    # Fractions and floats lift to Python ints over the lcm of denominators
    for v, want in (([3, -5, 0], ([3, -5, 0], 1)),
                    (np.array([3, -5, 0], dtype=object), ([3, -5, 0], 1)),
                    ([True, False, 2], ([1, 0, 2], 1)),
                    (np.array([3, -5]), ([3, -5], 1)),
                    ([F(1, 2), np.int64(3), 0.25], ([2, 12, 1], 4))):
        nums, d = linalg.lift_exact(v)
        assert (nums, d) == want
        assert all(type(n) is int for n in nums) and type(d) is int


def test_exact_solve_det_inverse():
    m = [[F(2), F(1)], [F(1), F(1)]]
    assert linalg.det(m) == 1
    assert linalg.det([[F(1), F(2)], [F(2), F(4)]]) == 0


def test_det_matches_numpy(rng):
    for _ in range(10):
        m = [[F(int(a), int(b)) for a, b in
              zip(rng.integers(-5, 6, 4), rng.integers(1, 4, 4))]
             for _ in range(4)]
        exact = linalg.det(m)
        approx = np.linalg.det(np.array(m, dtype=float))
        assert abs(float(exact) - approx) < 1e-9


def _sympy_det(m) -> F:
    d = sympy.Matrix([[sympy.Rational(F(x).numerator, F(x).denominator)
                       for x in row] for row in m]).det()
    return F(int(d.p), int(d.q))


# zeros often enough for singular matrices and zero pivots
det_entries = st.one_of(st.just(0), st.integers(-3, 3),
                        st.builds(F, st.integers(-50, 50), st.integers(1, 12)))
square_matrices = st.integers(1, 6).flatmap(lambda n: st.lists(
    st.lists(det_entries, min_size=n, max_size=n), min_size=n, max_size=n))


@settings(max_examples=80, deadline=None)
@given(square_matrices)
@example([[0, 1], [1, 0]])                              # swap at the start
@example([[1, 2, 3], [2, 4, 5], [1, 3, 4]])             # zero pivot at step 1
@example([[F(1, 2), 2, 3], [F(1, 3), 4, 6], [F(5, 6), 6, 9]])  # row 3 = 1 + 2
@example([[0, 0], [F(1, 2), 3]])                        # zero column
def test_det_matches_sympy(m):
    want = _sympy_det(m)
    got = linalg.det(m)
    assert type(got) is F and got == want
    assert linalg.det([[F(x) for x in row] for row in m]) == want
    assert EXACT.det(EXACT.matrix(m)) == want


@pytest.mark.parametrize("seed", range(1, 6))
def test_float_draws_equal_the_constructor_route(seed):
    # the draws skip the validating constructor and give the same floats
    got_rng, want_rng = rng_from_seed(seed), rng_from_seed(seed)
    for _ in range(3):
        got = [sampling.random_unit_octonion_float(got_rng),
               sampling.random_imaginary_unit_float(got_rng)]
        want = [Octonion(sampling.random_unit_vector(want_rng, 8)),
                Octonion((0.0, *sampling.random_unit_vector(want_rng, 7)))]
        for g, w in zip(got, want):
            assert not g.exact and g.denominator == 1
            assert all(type(c) is float for c in g.coords)
            assert g.coords == w.coords and g.numerators == w.numerators


def test_float_kernel(rng):
    q = haar_orthogonal(rng, 6)
    # rank-4 matrix with known 2-dim kernel
    d = np.diag([1.0, 2.0, 3.0, 4.0, 0.0, 0.0])
    m = q @ d @ q.T
    ker = linalg.kernel_basis_float(m)
    assert ker.shape[0] == 2
    assert np.max(np.abs(m @ ker.T)) < 1e-9


def test_float_kernel_of_tall_and_wide_matrices():
    rng = rng_from_seed(11)
    # tall 48x8 systems of every rank take the reduced SVD: the same rows,
    # bit for bit, as the kernel rows of the full one
    for rank in range(9):
        m = rng.standard_normal((48, rank)) @ rng.standard_normal((rank, 8))
        ker = linalg.kernel_basis_float(m)
        assert ker.shape == (8 - rank, 8)
        assert np.array_equal(ker, np.linalg.svd(m)[2][rank:])
    # a wide k x 8 matrix of rank k keeps its full V^T: 8 - k kernel rows,
    # most of which the reduced SVD would drop
    for k in range(1, 8):
        w = rng.standard_normal((k, 8))
        ker = linalg.kernel_basis_float(w)
        assert ker.shape == (8 - k, 8)
        assert np.max(np.abs(w @ ker.T)) < 1e-12
        assert np.max(np.abs(ker @ ker.T - np.eye(8 - k))) < 1e-12


def test_haar_orthogonal(rng):
    q = haar_orthogonal(rng, 7)
    assert np.max(np.abs(q @ q.T - np.eye(7))) < 1e-12
    assert np.linalg.det(q) > 0



def _structures(rng, count):
    # the matrices of random_structure_float's draw, stacked with a count
    if count is None:
        return cstruct.random_structure_float(rng).as_array()
    return np.array([j.as_array() for j in
                     cstruct.random_structure_float(rng, count)]).reshape(count, 6, 6)


#: each float draw that takes a count: (rng, count) -> its array
BATCHED_DRAWS = {
    "unit vector of R^7": lambda rng, count: sampling.random_unit_vector(rng, 7, count),
    "unit vector of R^8": lambda rng, count: sampling.random_unit_vector(rng, 8, count),
    "Haar SO(6)": lambda rng, count: haar_orthogonal(rng, 6, count),
    "Haar SO(7)": lambda rng, count: haar_orthogonal(rng, 7, count),
    "structure": _structures,
}


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("name", BATCHED_DRAWS)
@pytest.mark.parametrize("count", [0, 1, 7])
def test_a_batched_float_draw_is_count_single_draws(seed, name, count):
    # the same stream in the same order, bit for bit (signed zeros included),
    # and the generator left in the same state
    draw = BATCHED_DRAWS[name]
    single_rng, batch_rng = rng_from_seed(seed), rng_from_seed(seed)
    singles = [draw(single_rng, None) for _ in range(count)]
    batch = draw(batch_rng, count)
    assert batch.shape == (count, *draw(rng_from_seed(seed), None).shape)
    assert batch.tobytes() == b"".join(s.tobytes() for s in singles)
    assert single_rng.bit_generator.state == batch_rng.bit_generator.state
