"""The stacked structure layer against its references: float `prop21` on
stacks against the per-sample loop, the stack-of-one API against the
per-matrix computations, and the stacked kernels, Pfaffians and
certification against their single-matrix forms."""

from fractions import Fraction as F

import numpy as np
import pytest

import references
from sixsphere import cstruct, linalg, sampling, suites
from sixsphere.cstruct import STRUCTURE_TESTS, ComplexStructureR6
from sixsphere.errors import InvalidStructure
from sixsphere.octonion import CHECK_TOL, EXACT, FLOAT
from sixsphere.sampling import (random_rational_unit_octonion,
                                random_unit_octonion_float, rng_from_seed)


def _bits(a) -> bytes:
    return np.asarray(a, dtype=float).tobytes()


@pytest.mark.parametrize("tol", [CHECK_TOL, 0.0])
@pytest.mark.parametrize("samples", [0, 1, 3, 50])
@pytest.mark.parametrize("seed", [1, 2, 5])
def test_stacked_prop21_matches_the_per_sample_loop(seed, samples, tol):
    rep = suites.run_suite("prop21", samples=samples, mode="float", seed=seed,
                           tolerance=tol)
    checked, failures, worst = references.prop21_float(samples, seed, tol)
    assert rep.checked == checked == samples
    assert [f["kind"] for f in rep.failures] == [f["kind"] for f in failures]
    # inputs as strings, residuals as floats: == on them is bit for bit
    assert rep.failures == failures
    assert _bits(rep.max_residual) == _bits(worst)
    if tol == 0.0 and samples:
        assert rep.failures  # every residual is measured, and some is > 0


def test_a_reflected_draw_is_its_samples_entry(monkeypatch):
    # one draw of the batch has det -1: its structure has the wrong
    # orientation, which is sample 0's sample-error; the others still run
    haar = sampling.haar_orthogonal

    def one_reflection(rng, n, count=None):
        q = haar(rng, n, count)
        q[1, :, 0] *= -1
        return q

    clean = suites.run_suite("prop21", samples=3, mode="float", seed=1,
                             tolerance=0.0)
    monkeypatch.setattr(sampling, "haar_orthogonal", one_reflection)
    rep = suites.run_suite("prop21", samples=3, mode="float", seed=1,
                           tolerance=0.0)
    assert rep.checked == 3
    first, *rest = rep.failures
    assert first["kind"] == "sample-error"
    assert first["error"] == "J is not orientation-compatible"
    assert set(first) == {"kind", "error", "j1", "j2"}
    j1 = ComplexStructureR6.from_strings(first["j1"])
    with pytest.raises(InvalidStructure, match="orientation"):
        ComplexStructureR6.from_strings(first["j2"])
    assert j1.orientation_sign() == 1
    # the other samples' entries are those of the clean run
    assert rest == [f for f in clean.failures
                    if f.get("j1", f.get("j")) != first["j1"]]


def _pairs(rng, count, exact):
    draw = random_rational_unit_octonion if exact else random_unit_octonion_float
    return [(draw(rng), draw(rng)) for _ in range(count)]


@pytest.mark.parametrize("exact", [True, False])
def test_stack_of_one_api_matches_the_per_matrix_computation(exact):
    # j_from_octonion, _recover and common_line run the stacked code on a
    # stack of one: equal results, float ones bit for bit
    for x, y in _pairs(rng_from_seed(3), 8, exact):
        j, want = cstruct.j_from_octonion(x), references.j_from_octonion(x)
        assert j.exact == exact and j.m[1] == want.m[1]
        assert (j.m[0] == want.m[0]).all() and _bits(j.as_array()) == _bits(want.as_array())
        # a product's bits depend on the matrix's memory order too
        assert j.apply(y).numerators == want.apply(y).numerators
        (rx, rj), (wx, wj) = cstruct._recover(j), references.recover(j)
        assert rx.numerators == wx.numerators and rx.denominator == wx.denominator
        assert _bits(rj.as_array()) == _bits(wj.as_array())
        j2 = cstruct.j_from_octonion(y)
        got, ref = cstruct.common_line(j, j2), references.common_line(j, j2)
        for a, b in ((got.u, ref.u), (got.ju, ref.ju)):
            assert a.numerators == b.numerators and a.denominator == b.denominator


def test_stacked_kernels_match_each_matrix():
    # the batched SVD under `kernel_planes_float` cuts each matrix at its
    # own s_max: the kernel rows of every matrix, of any dimension, are bit
    # for bit `kernel_basis_float` of that matrix alone, which takes no stack
    rng = np.random.default_rng(4)
    for shape in [(7, 48, 8), (7, 6, 6), (5, 3, 8)]:
        m = rng.standard_normal(shape)
        m[0] = 0.0               # the zero matrix: its whole V^T
        m[1, :, -1] = 0.0        # a one-dimensional kernel at least
        vt, small = linalg._kernel_rows(m)
        assert len(vt) == len(small) == len(m)
        for v, k, one in zip(vt, small, m):
            got, want = v[k], linalg.kernel_basis_float(one)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
        with pytest.raises(ValueError):
            linalg.kernel_basis_float(m)


def test_stacked_planes_are_the_kernels_that_are_planes():
    rng = np.random.default_rng(5)
    for shape in [(7, 48, 8), (7, 6, 6), (5, 6, 8)]:
        m = rng.standard_normal(shape)
        m[:, :, -2:] = 0.0       # a kernel of dimension 2 at least
        m[0] = 0.0               # the zero matrix: its whole V^T
        m[1, :, -3] = 0.0        # a kernel of dimension 3
        planes, dims = linalg.kernel_planes_float(m)
        assert planes.shape == (len(m), 2, shape[-1])
        for plane, dim, one in zip(planes, dims, m):
            want = linalg.kernel_basis_float(one)
            assert dim == len(want)
            if dim != 2:
                want = np.eye(2, shape[-1])
            assert plane.tobytes() == want.tobytes()
        assert 2 in dims.tolist() and dims[0] == shape[-1] and dims[1] == 3
        # a stack of planes only: the same bases
        rest, rest_dims = linalg.kernel_planes_float(m[2:])
        assert (rest_dims == 2).all() and rest.tobytes() == planes[2:].tobytes()
    planes, dims = linalg.kernel_planes_float(np.zeros((0, 48, 8)))
    assert planes.shape == (0, 2, 8) and dims.shape == (0,)


def test_stacked_pfaffian_matches_each_matrix():
    m, _ = cstruct.draw_structures(rng_from_seed(6), 9)
    pf = linalg.pfaffian(m)
    assert pf.shape == (9,)
    assert pf.tobytes() == np.array([linalg.pfaffian(a.tolist()) for a in m]).tobytes()
    exact = np.array([[[0, F(1, 2)], [F(-1, 2), 0]], [[0, 3], [-3, 0]]], dtype=object)
    assert list(linalg.pfaffian(exact)) == [F(1, 2), 3]


def test_certification_gives_the_constructors_errors():
    m, errors = cstruct.draw_structures(rng_from_seed(7), 4)
    assert errors == [None] * 4
    bad = m.copy()
    bad[0, 0, 1] += 1e-6                       # not antisymmetric
    bad[1] *= 1.1                              # J^2 is not -1
    bad[2][[0, 1]] = bad[2][[1, 0]]            # rows swapped ...
    bad[2][:, [0, 1]] = bad[2][:, [1, 0]]      # ... and columns: orientation
    errors = cstruct.structure_errors(FLOAT, (bad, 1.0))
    assert errors == [*STRUCTURE_TESTS, None]
    for a, error in zip(bad, errors):
        if error is None:
            ComplexStructureR6(a)
            continue
        with pytest.raises(InvalidStructure) as raised:
            ComplexStructureR6(a)
        assert str(raised.value) == error
    # exact numerators certify through the same code
    j = cstruct.j_from_octonion(random_rational_unit_octonion(rng_from_seed(8)))
    assert cstruct.certify(EXACT, j.m).all()
    with pytest.raises(InvalidStructure, match="orientation"):
        ComplexStructureR6([[-x for x in row] for row in j.rows])


def test_random_structure_float_raises_a_failed_draws_error(monkeypatch):
    haar = sampling.haar_orthogonal

    def reflection(rng, n, count=None):
        q = haar(rng, n, count)
        q[..., 0] *= -1
        return q

    monkeypatch.setattr(sampling, "haar_orthogonal", reflection)
    for count in (None, 2):
        with pytest.raises(InvalidStructure, match="orientation"):
            cstruct.random_structure_float(rng_from_seed(1), count)


def test_a_recovery_that_misses_its_structure_is_that_samples_entry(monkeypatch):
    # J_x of sample 1's recovery is bent past CHECK_TOL: that row, and only
    # it, fails the recovery's own check, and is its sample's sample-error
    j_each = cstruct.j_each

    def bent(ctx, v):
        m, n = j_each(ctx, v)
        m = m.copy()
        m[1:2, 0, 1] += 1e-6 * n[1:2, 0, 0]
        return m, n

    monkeypatch.setattr(cstruct, "j_each", bent)
    m, _ = cstruct.draw_structures(rng_from_seed(9), 3)
    _, _, errors = cstruct.recover_each(FLOAT, (m, 1.0))
    assert [e and str(e) for e in errors] == [
        None, "recovered x does not reproduce J", None]
    rep = suites.run_suite("prop21", samples=3, mode="float", seed=1)
    assert [(f["kind"], f["error"], set(f)) for f in rep.failures] == [
        ("sample-error", "recovered x does not reproduce J",
         {"kind", "error", "j1", "j2"})]


def _row(ctx, pts, i):
    # the octonion of row i of a points pair
    v, d = pts
    return cstruct._first(ctx, (v[i:i + 1], np.broadcast_to(d, (len(v), 1))[i:i + 1]))


def _flipped(a):
    # the structure with its third complex line (rows and columns 4, 5)
    # reversed: it agrees with a on a 4-dimensional subspace
    b = a.copy()
    b[4:, 4:] = -b[4:, 4:]
    return b


@pytest.mark.parametrize("exact", [True, False])
def test_rows_in_error_leave_the_other_rows_alone(exact):
    ctx = EXACT if exact else FLOAT
    x, _ = _pairs(rng_from_seed(2), 1, exact)[0]
    j = cstruct.j_from_octonion(x)
    std = cstruct.standard_structure(exact)
    (a, d), s = j.m, std.m[0] * j.m[1]   # both over j's denominator
    zero = np.zeros_like(a)
    # recovery: a zero matrix has no solutions; the others recover as alone
    pts, _, errors = cstruct.recover_each(ctx, (np.stack([a, zero, s]), d))
    assert [type(e).__name__ if e else None for e in errors] == [
        None, "RankError", None]
    assert str(errors[1]).endswith("span dimension 0, expected 2")
    for i, want in ((0, cstruct.recover_x(j)), (2, cstruct.recover_x(std))):
        got = _row(ctx, pts, i)
        assert got.numerators == want.numerators and got.denominator == want.denominator
    # common lines: opposite structures share no line, a flipped line
    # leaves a 4-dimensional agreement, identical ones every line
    p1 = (np.stack([a, s, s, a]), d)
    p2 = (np.stack([s, -s, _flipped(s), a]), d)
    (u, du), (ju, dju), errors = cstruct.common_line_each(ctx, p1, p2)
    assert [type(e).__name__ if e else None for e in errors] == [
        None, "NoCommonLine", "RankError", "IdenticalStructures"]
    assert str(errors[2]) == "agreement space has dimension 4, expected 2"
    want = cstruct.common_line(j, std)
    for got, ref in ((_row(ctx, (u, du), 0), want.u), (_row(ctx, (ju, dju), 0), want.ju)):
        assert got.numerators == ref.numerators and got.denominator == ref.denominator
