"""Orthogonal complex structures on the 6-plane orthogonal to <1, e1>.

The 6-plane carries the ordered basis

    (e2, e3, e4, e5, e7, e6)

The last two indices are deliberately swapped: under (e2,...,e7) in natural
order, left multiplication by e1 (the reference structure everything else is
measured against) is *negatively* oriented, because e1*e6 = -e7 in the
generated multiplication table.  With the order fixed here the reference
structure, and hence every structure of the form below, is positively
oriented: the Pfaffian of its matrix is -1.  Serialized 6x6 matrices use
this basis order.

Every orientation-compatible orthogonal complex structure on the 6-plane is

    J_x(v) = (e1 (v x)) conj(x) / |x|^2

for a unit octonion x determined up to a left unit-complex factor; the
formula is invariant under scaling x, so exact rational representatives of
the ray are accepted everywhere and exact-mode computations never need a
square root.  J_x is built as the 8x8 matrix product
R_conj(x) L_e1 R_x / |x|^2 of multiplication matrices, restricted to the
rows and columns of the 6-plane basis: the arithmetic context multiplies it
in its mode and the structure holds the resulting pair (see
`octonion.SquareMatrix`), whose kernels give recovery and common lines.  J
acts on an octonion through `SquareMatrix.apply` on the coordinates
R6_BASIS (as 0 on <1, e1>).  Recovery solves J(v) x = e1 (v x), linear in
x, on the numerators of J's columns.  The standard structure is J_1, built
once per mode, as are L_e1 and the constant half of the recovery system,
L_e1 L_v over the six basis vectors v; these are read-only pairs shared by
every call.

J_x, recovery, common lines and the constructor's tests run on stacks: n
structures as one stacked pair, numerators (n, 6, 6) over one denominator,
and n octonions as a points pair, rows (n, 8) of numerators over
denominators (n, 1), or over 1.0 in floats.  Each kernel is one call for
the whole stack (one batched SVD in floats), the rest is row-wise array
arithmetic, and a row that fails carries its error in a list, None where it
passed.  The single-structure functions (`j_from_octonion`, `recover_x`,
`common_line`) are these on a stack of one, raising the row's error, and
the constructor runs the tests on its one matrix.  Float rows get the bits of the computation on
one structure: NumPy's stacked SVD and stacked matmul (a matrix-vector
product as `a @ v[..., None]`) match its per-matrix calls on the builds
tested, sums run coordinate by coordinate as `Octonion.inner` adds them,
and norms take Python's `** 0.5`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Callable, List, Optional, Tuple

import numpy as np

from .errors import (DegenerateX, IdenticalStructures, InvalidStructure,
                     NoCommonLine, NotUnit, RankError, VerificationFailed)
from . import linalg
from .octonion import (CHECK_TOL, EXACT, FLOAT, FLOAT_EQ_TOL, Arithmetic,
                       Octonion, SquareMatrix, _read_only,
                       arithmetic_of, inner_rows, reject)

#: octonion coordinate indices of the ordered basis of the 6-plane
R6_BASIS: Tuple[int, ...] = (2, 3, 4, 5, 7, 6)
#: squared norm of Im x under which a float x counts as real (rotation data)
REAL_AXIS_NORM_SQ = 1e-18
#: the constructor's tests, in order, each as the message of its failure
STRUCTURE_TESTS = ("J is not antisymmetric", "J^2 is not -identity",
                   "J is not orientation-compatible")


class ComplexStructureR6(SquareMatrix):
    """A 6x6 orthogonal matrix J with J^2 = -1, positively oriented, acting
    on the ordered basis (e2, e3, e4, e5, e7, e6).  Validation checks that J
    is antisymmetric with J^2 = -1, which makes it orthogonal, and the sign
    of its Pfaffian."""

    __slots__ = ()
    size, error = 6, InvalidStructure
    basis = np.array(R6_BASIS)

    def _validate(self):
        passed = certify(arithmetic_of(self), self.m)
        if not passed.all():
            raise InvalidStructure(STRUCTURE_TESTS[passed.argmin()])

    def orientation_sign(self) -> int:
        """Sign of det(u, Ju, v, Jv, w, Jw) for a J-complex basis (u, v, w).

        That basis carries J to the standard block form, whose Pfaffian is
        -1, and Pf(B J B^T) = det(B) Pf(J); so the sign is -sign Pf(J),
        taken here on the numerators of J over a positive denominator."""
        pf = linalg.pfaffian(self.m[0])
        return -1 if pf > 0 else (1 if pf < 0 else 0)

    def __repr__(self) -> str:
        return "ComplexStructureR6(%r)" % (self.rows,)


@dataclass(frozen=True)
class ComplexLine:
    """An oriented J-complex 2-plane given by the pair (u, J u); the two
    vectors are orthogonal with equal norms (unit in float mode, possibly a
    rational rescaling in exact mode)."""

    u: Octonion
    ju: Octonion


def standard_structure(exact: bool = True) -> ComplexStructureR6:
    """Left multiplication by e1, restricted to the 6-plane: J_1, built once
    per mode."""
    return _standard(EXACT if exact else FLOAT)


@cache
def _standard(ctx: Arithmetic) -> ComplexStructureR6:
    return j_from_octonion(ctx.one)


@cache
def _left_e1(ctx: Arithmetic):
    # the pair of L_e1 in the mode of ctx, built once and shared: read-only
    return _read_only(ctx.left(ctx.points([ctx.e1])))


@cache
def _e1_left_basis(ctx: Arithmetic):
    # the pairs of L_e1 L_v over the six vectors v of R6_BASIS, stacked: the
    # constant half of the recovery system, built once per mode, read-only
    vs = ctx.points([Octonion.basis(k) for k in R6_BASIS])
    return _read_only(ctx.product(_left_e1(ctx), ctx.left(vs)))


def j_from_octonion(x: Octonion) -> ComplexStructureR6:
    """The structure v -> (e1 (v x)) conj(x) / |x|^2: the matrix
    R_conj(x) L_e1 R_x / |x|^2 on the rows and columns of R6_BASIS.

    x may be any nonzero octonion; the formula only depends on the ray
    through x, which keeps exact rational inputs exact.
    """
    ctx = arithmetic_of(x)
    j = j_each(ctx, ctx.points([x])[0])
    if ctx.zero_norm(j[1].flat[0]):
        raise NotUnit("x must be nonzero")
    return ComplexStructureR6._trusted(j, ctx)


def equivalent(x: Octonion, y: Octonion) -> bool:
    """Same structure, i.e. y is a (complex) multiple of x.

    Decided by comparing J_x and J_y; cross-checked against the span
    criterion that y conj(x) lies in <1, e1> (the two always agree).
    """
    same_j = j_from_octonion(x) == j_from_octonion(y)
    # w is nonzero: j_from_octonion rejects a zero x or y
    w = y * x.conjugate()
    span = arithmetic_of(x, y).is_zero(w.numerators[2:],
                                       FLOAT_EQ_TOL * max(1.0, w.norm()))
    if span != same_j:
        raise VerificationFailed(
            "span criterion and structure comparison disagree (%r vs %r)" % (span, same_j))
    return same_j


def recover_x(j: ComplexStructureR6) -> Octonion:
    """A representative x with j_from_octonion(x) == j.

    Multiplying J(v) = (e1 (v x)) conj(x) / |x|^2 on the right by x gives
    J(v) x = e1 (v x), a condition linear in x: the 48x8 system
    L_{J v} - L_e1 L_v over the six vectors v of the 6-plane basis.  Every
    nonzero solution y has J_y = J, so its kernel is exactly the complex
    line C x.  The representative is the point of that line orthogonal to
    e1, <k2, e1> k1 - <k1, e1> k2 for a kernel basis (k1, k2): the same ray
    in both modes.  It vanishes only when the whole line is orthogonal to
    <1, e1>, and then x is k1.  Exact inputs produce an exact (generally
    non-unit) representative of the ray.
    """
    return _recover(j)[0]


def _recover(j: ComplexStructureR6) -> Tuple[Octonion, ComplexStructureR6]:
    """`recover_x(j)` and J_x, the structure it checks against j:
    `recover_each` on a stack of one."""
    ctx = arithmetic_of(j)
    x, jx, (error,) = recover_each(ctx, _stack_of_one(j.m))
    if error:
        raise error
    return _first(ctx, x), ComplexStructureR6._trusted(jx, ctx)


def common_line(j1: ComplexStructureR6, j2: ComplexStructureR6) -> ComplexLine:
    """The unique complex line on which two distinct orthogonal structures
    agree (kernel of their difference, always 2-dimensional):
    `common_line_each` on a stack of one."""
    ctx = arithmetic_of(j1, j2)
    u, ju, (error,) = common_line_each(
        ctx, _stack_of_one(ctx.pair(j1)), _stack_of_one(ctx.pair(j2)))
    if error:
        raise error
    return ComplexLine(_first(ctx, u), _first(ctx, ju))


def _stack_of_one(pair):
    return pair[0][None], pair[1]


def _first(ctx: Arithmetic, pts) -> Octonion:
    # the octonion of the first row of a points pair
    v, d = pts
    if not ctx.exact:
        return Octonion(v[0].tolist())
    return Octonion.from_lifted(v[0].tolist(), np.reshape(d, -1)[0])


# ---------------------------------------------------------------------------
# stacked structures (see the module docstring)
# ---------------------------------------------------------------------------

def certify(ctx: Arithmetic, pair) -> np.ndarray:
    """The constructor's tests on each 6x6 matrix of the (stacked) pair, a
    bool array (..., 3) in the order of STRUCTURE_TESTS: J antisymmetric and
    J^2 = -1 (which together make J orthogonal), each to CHECK_TOL in
    floats, and the orientation positive (see `orientation_sign`)."""
    return np.stack([
        ctx.equal_each(ctx.transpose(pair), ctx.scaled(pair, -1), CHECK_TOL),
        ctx.equal_each(ctx.product(pair, pair),
                       ctx.scaled(ctx.identity(6), -1), CHECK_TOL),
        np.asarray(linalg.pfaffian(pair[0]) < 0, bool)], -1)


def structure_errors(ctx: Arithmetic, pair) -> List[Optional[str]]:
    """For each matrix of the stacked pair, the message of the first of the
    constructor's tests it fails, None for a structure."""
    passed = certify(ctx, pair)
    first = passed.argmin(-1)
    return [None if ok else STRUCTURE_TESTS[i]
            for ok, i in zip(passed.all(-1).tolist(), first.tolist())]


def j_each(ctx: Arithmetic, v: np.ndarray):
    """The stacked pair of J_x for the rows x of v (n, 8), the numerators
    of nonzero octonions (J_x only depends on the ray of x): the matrices
    R_conj(x) L_e1 R_x on R6_BASIS over |x|^2, shaped (n, 1, 1)."""
    r = ctx.right((v, 1))[0]
    m = (r.swapaxes(-1, -2) @ _left_e1(ctx)[0]) @ r
    b = ComplexStructureR6.basis
    # C-ordered like a J_x built alone: a matmul's bits depend on the memory
    # order of its operands
    m = np.ascontiguousarray(m[:, b[:, None], b])
    return m, inner_rows(v, v).reshape(-1, 1, 1)


def apply_each(ctx: Arithmetic, pair, pts):
    """Each structure of the stacked pair applied to its row of the points
    pair, as `SquareMatrix.apply`: the points pair of the images."""
    (a, d), (v, e) = pair, pts
    b = ComplexStructureR6.basis
    out = np.zeros(v.shape, a.dtype)
    out[:, b] = (a @ v[:, b, None])[..., 0]
    return out, d * e


def _planes(ctx: Arithmetic, stack: np.ndarray, error: Callable):
    """The kernels of the stacked matrices, each a plane, as one points
    pair (see `Arithmetic.planes`), and the list of errors: error(dimension)
    for a kernel of another dimension, whose row computes on the first two
    unit vectors in its place."""
    pair, dims = ctx.planes(stack)
    return pair, [None if d == 2 else error(d) for d in dims.tolist()]


def recover_each(ctx: Arithmetic, pair):
    """`recover_x` for each structure of the stacked pair (numerators
    (n, 6, 6) over one denominator): the points pair of the x, the stacked
    pair of their J_x, and the errors (a kernel that is not a plane, a J_x
    that does not reproduce its J to CHECK_TOL)."""
    a, d = pair
    n = len(a)
    jv = np.zeros((n, 6, 8), a.dtype)
    jv[..., R6_BASIS] = a.swapaxes(-1, -2)     # the numerators of J v
    diff = ctx.difference(ctx.left((jv, d)), _e1_left_basis(ctx))
    diff = diff.reshape(n, 48, 8)
    (k, dk), errors = _planes(ctx, diff, lambda dim: RankError(
        "solutions of J(v) x = e1 (v x) span dimension %d, expected 2" % dim))
    k1, k2 = k[:, 0], k[:, 1]
    e1 = ctx.points([ctx.e1])[0]
    y = inner_rows(k2, e1)[:, None] * k1 - inner_rows(k1, e1)[:, None] * k2
    zero = ctx.zero_norm(inner_rows(y, y))
    x = ctx.rays((np.where(zero[:, None], k1 * dk, y), dk * dk))
    jx = j_each(ctx, x[0])
    for i in np.flatnonzero(~ctx.equal_each(jx, pair, CHECK_TOL)):
        errors[i] = errors[i] or VerificationFailed(
            "recovered x does not reproduce J")
    return x, jx, errors


def common_line_each(ctx: Arithmetic, p1, p2):
    """`common_line` for each pair of structures of two stacked pairs: the
    points pairs of u and J1 u, and the errors (identical structures, a
    kernel of the difference that is not a plane)."""
    diff = ctx.difference(p1, p2)
    (k, dk), errors = _planes(ctx, diff, lambda dim: NoCommonLine(
        "distinct orthogonal structures must share a line") if dim == 0
        else RankError("agreement space has dimension %d, expected 2" % dim))
    for i in np.flatnonzero(ctx.equal_each(p1, p2, FLOAT_EQ_TOL)):
        errors[i] = IdenticalStructures(
            "every line is common to identical structures")
    u = np.zeros((len(k), 8), k.dtype)
    u[:, R6_BASIS] = k[:, 0]
    u = ctx.rays((u, dk))
    return u, apply_each(ctx, p1, u), errors


@dataclass
class QuaternionBlockForm:
    """Block description of J_x: left multiplication by e1 on the quaternion
    subalgebra A through (1, e1, x), and by l = conj(x) e1 x on its
    complement."""

    a_basis: Tuple[Octonion, ...]
    a_perp_basis: Tuple[Octonion, ...]
    l: Octonion
    axis: Octonion          # imaginary part of x (not normalized)
    cos_2theta: object      # exact in exact mode
    rotation_sense: int     # +1/-1: sign s with l = Rodrigues(e1, axis, s*2theta)


def quaternion_coordinate_form(x: Octonion) -> QuaternionBlockForm:
    """Certified block decomposition of J_x for x outside <1, e1>.

    Verifies on a basis that J_x is left multiplication by e1 on A and left
    multiplication by l = conj(x) e1 x / |x|^2 on the orthogonal complement
    of A, and reports the axis/angle data of l as a rotation of e1.
    """
    ctx = arithmetic_of(x)
    one, e1 = ctx.one, ctx.e1
    v = reject(x, (one, e1))
    if v.is_zero(CHECK_TOL):
        raise DegenerateX("x lies in <1, e1>; the block split is degenerate")
    n = x.norm_sq()
    a_basis = (one, e1, v, e1 * v)
    a_perp = tuple(ctx.kernel(ctx.points(a_basis)[0]))
    j = j_from_octonion(x)
    l = ((x.conjugate() * e1) * x) / n
    for b in (v, e1 * v):
        if not (j.apply(b) - e1 * b).is_zero(CHECK_TOL):
            raise VerificationFailed("J_x is not left multiplication by e1 on A")
    for w in a_perp:
        if not (j.apply(w) - l * w).is_zero(CHECK_TOL):
            raise VerificationFailed("J_x is not left multiplication by l on A-perp")
    cos2, sense = _rotation_data(x, l, n, e1)
    return QuaternionBlockForm(a_basis, a_perp, l, x.imag(), cos2, sense)


def _rotation_data(x: Octonion, l: Octonion, n, e1: Octonion):
    """cos(2 theta) = (2 x0^2 - |x|^2)/|x|^2, plus the sign s such that l is
    e1 rotated by s*2theta about the imaginary axis of x (Rodrigues form)."""
    x0 = x.real()
    cos2 = (2 * x0 * x0 - n) / n
    w = x.imag()
    ww = w.norm_sq()
    if arithmetic_of(x).zero_norm(ww, REAL_AXIS_NORM_SQ):
        # x real: l = e1, rotation trivial
        return cos2, 1
    # sin(2 theta) * |w_unit x e1 component|: compare against both senses
    cross = ((w * e1) - (e1 * w)) / 2     # imaginary cross product, scaled by |w|
    dot = w.inner(e1)
    # Rodrigues about unit axis w/|w| by angle 2t:
    #   R(e1) = e1 cos2t + (w x e1)/|w| sin2t + w <w,e1>/|w|^2 (1 - cos2t)
    # sin(2t) = 2 x0 |w| / n  (up to the sense being reported)
    sin2_scaled = 2 * x0 / n              # sin(2t)/|w|
    base = cos2 * e1 + (dot * (1 - cos2) / ww) * w
    matched = [s for s in (1, -1)
               if (base + (s * sin2_scaled) * cross - l).is_zero(CHECK_TOL)]
    if not matched:
        raise VerificationFailed("l is not a rotation of e1 about the axis of x")
    # angle 0 or pi: the two senses coincide, reported as neutral
    return cos2, (matched[0] if len(matched) == 1 else 0)


# ---------------------------------------------------------------------------
# float sampling of structures
# ---------------------------------------------------------------------------

def draw_structures(rng: np.random.Generator, count: Optional[int] = None):
    """Q J_std Q^T for `count` Haar Q in SO(6) (one without a count), from
    one batched draw (see `sampling`): the stack (count, 6, 6) of their
    matrices, certified at once, and `structure_errors` of it."""
    from .sampling import haar_orthogonal
    q = haar_orthogonal(rng, 6, count)
    std = standard_structure(exact=False).as_array()
    m = (q @ std @ q.swapaxes(-1, -2)).reshape(-1, 6, 6)
    return m, structure_errors(FLOAT, (m, 1.0))


def random_structure_float(rng: np.random.Generator, count: Optional[int] = None):
    """A random orientation-compatible orthogonal structure: Q J_std Q^T for
    Haar Q in SO(6).  With `count`, a list of that many, from one batched
    draw; a matrix that fails the constructor's tests raises its error."""
    m, errors = draw_structures(rng, count)
    for error in errors:
        if error:
            raise InvalidStructure(error)
    js = [ComplexStructureR6._trusted((a, 1.0), FLOAT) for a in m]
    return js[0] if count is None else js
