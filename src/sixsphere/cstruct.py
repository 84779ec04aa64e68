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
x, on the numerators of J's columns; the kernel of the block form runs on
octonion numerators, and every kernel comes back as octonions.  The
standard structure is J_1, built once per mode, as are L_e1 and the constant
half of the recovery system, L_e1 L_v over the six basis vectors v; these
are read-only pairs shared by every call.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import (DegenerateX, IdenticalStructures, InvalidStructure,
                     NoCommonLine, NotUnit, RankError, VerificationFailed)
from . import linalg
from .octonion import (CHECK_TOL, EXACT, FLOAT, FLOAT_EQ_TOL, Arithmetic,
                       Octonion, SquareMatrix, _placed, _read_only,
                       arithmetic_of, reject)

#: octonion coordinate indices of the ordered basis of the 6-plane
R6_BASIS: Tuple[int, ...] = (2, 3, 4, 5, 7, 6)
#: squared norm of Im x under which a float x counts as real (rotation data)
REAL_AXIS_NORM_SQ = 1e-18


def embed6(v: Sequence) -> Octonion:
    return Octonion(_placed(v, R6_BASIS, 0))


def extract6(o: Octonion) -> list:
    """Coordinates of o in the 6-plane basis; the <1, e1> components must
    vanish (exactly in exact mode, up to CHECK_TOL otherwise)."""
    if not arithmetic_of(o).is_zero(o.numerators[:2], CHECK_TOL):
        raise InvalidStructure("vector has components along 1 or e1")
    c = o.coords
    return [c[idx] for idx in R6_BASIS]


class ComplexStructureR6(SquareMatrix):
    """A 6x6 orthogonal matrix J with J^2 = -1, positively oriented, acting
    on the ordered basis (e2, e3, e4, e5, e7, e6).  Validation checks that J
    is antisymmetric with J^2 = -1, which makes it orthogonal, and the sign
    of its Pfaffian."""

    __slots__ = ()
    size, error = 6, InvalidStructure
    basis = np.array(R6_BASIS)

    def _validate(self):
        ctx, m = arithmetic_of(self), self.m
        if not ctx.equal(ctx.transpose(m), ctx.scaled(m, -1), CHECK_TOL):
            raise InvalidStructure("J is not antisymmetric")
        if not ctx.equal(ctx.product(m, m), ctx.scaled(ctx.identity(6), -1),
                         CHECK_TOL):
            raise InvalidStructure("J^2 is not -identity")
        if not self.orientation_sign() > 0:
            raise InvalidStructure("J is not orientation-compatible")

    def orientation_sign(self) -> int:
        """Sign of det(u, Ju, v, Jv, w, Jw) for a J-complex basis (u, v, w).

        That basis carries J to the standard block form, whose Pfaffian is
        -1, and Pf(B J B^T) = det(B) Pf(J); so the sign is -sign Pf(J),
        taken here on the numerators of J over a positive denominator."""
        pf = linalg.pfaffian(self.m[0].tolist())
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
    n = x.norm_sq()
    if ctx.zero_norm(n):
        raise NotUnit("x must be nonzero")
    r = ctx.right(ctx.points([x]))   # R_conj(x) is its transpose
    m = ctx.product(ctx.transpose(r), _left_e1(ctx), r)
    return ComplexStructureR6._trusted(ctx.scaled(m, n), ctx, R6_BASIS)


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
    """`recover_x(j)` and J_x, the structure it checks against j."""
    ctx = arithmetic_of(j)
    a, d = j.m
    jv = np.zeros((6, 8), a.dtype)
    jv[:, R6_BASIS] = a.T      # the numerators of J v: J's columns
    diff = ctx.difference(ctx.left((jv, d)), _e1_left_basis(ctx))
    ker = ctx.kernel(diff.reshape(48, 8))
    if len(ker) != 2:
        raise RankError("solutions of J(v) x = e1 (v x) span dimension %d, "
                        "expected 2" % len(ker))
    k1, k2 = ker
    y = k2.inner(ctx.e1) * k1 - k1.inner(ctx.e1) * k2
    x = ctx.ray(k1 if ctx.zero_norm(y.norm_sq()) else y)
    jx = j_from_octonion(x)
    if not ctx.agree(jx, j, CHECK_TOL):
        raise VerificationFailed("recovered x does not reproduce J")
    return x, jx


def common_line(j1: ComplexStructureR6, j2: ComplexStructureR6) -> ComplexLine:
    """The unique complex line on which two distinct orthogonal structures
    agree (kernel of their difference, always 2-dimensional)."""
    if j1 == j2:
        raise IdenticalStructures("every line is common to identical structures")
    ctx = arithmetic_of(j1, j2)
    ker = ctx.kernel(ctx.difference(ctx.pair(j1), ctx.pair(j2)), R6_BASIS)
    if len(ker) == 0:
        raise NoCommonLine("distinct orthogonal structures must share a line")
    if len(ker) != 2:
        raise RankError("agreement space has dimension %d, expected 2" % len(ker))
    u = ctx.ray(ker[0])
    return ComplexLine(u, j1.apply(u))


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

def random_structure_float(rng: np.random.Generator, count: Optional[int] = None):
    """Q J_std Q^T for Haar Q in SO(6): a random orientation-compatible
    orthogonal structure.  With `count`, a list of that many, from one
    batched Haar draw (see `sampling`)."""
    from .sampling import haar_orthogonal
    q = haar_orthogonal(rng, 6, count)
    std = standard_structure(exact=False).as_array()
    m = q @ std @ q.swapaxes(-1, -2)
    return ComplexStructureR6(m) if count is None else list(map(ComplexStructureR6, m))
