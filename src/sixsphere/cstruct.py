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
`octonion.SquareMatrix`), whose kernels give recovery and common lines.  The
standard structure is J_1, built once per mode.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np

from .errors import (DegenerateX, IdenticalStructures, InvalidStructure,
                     NoCommonLine, NotUnit, RankError, VerificationFailed)
from . import linalg
from .octonion import (CHECK_TOL, EXACT, FLOAT, FLOAT_EQ_TOL, MUL_INDEX,
                       MUL_SIGN, SEPARATION_TOL, Octonion, SquareMatrix,
                       arithmetic_of)

#: octonion coordinate indices of the ordered basis of the 6-plane
R6_BASIS: Tuple[int, ...] = (2, 3, 4, 5, 7, 6)
#: squared norm of Im x under which a float x counts as real (rotation data)
REAL_AXIS_NORM_SQ = 1e-18


def embed6(v: Sequence) -> Octonion:
    c = [0] * 8
    for pos, idx in enumerate(R6_BASIS):
        c[idx] = v[pos]
    return Octonion(c)


def extract6(o: Octonion) -> list:
    """Coordinates of o in the 6-plane basis; the <1, e1> components must
    vanish (exactly in exact mode, up to CHECK_TOL otherwise)."""
    if not arithmetic_of(o).is_zero(o.numerators[:2], CHECK_TOL):
        raise InvalidStructure("vector has components along 1 or e1")
    return [o.coords[idx] for idx in R6_BASIS]


class ComplexStructureR6(SquareMatrix):
    """A 6x6 orthogonal matrix J with J^2 = -1, positively oriented, acting
    on the ordered basis (e2, e3, e4, e5, e7, e6).  Validation checks that J
    is antisymmetric with J^2 = -1, which makes it orthogonal, and the sign
    of its Pfaffian."""

    __slots__ = ()
    size, error = 6, InvalidStructure

    def _validate(self):
        ctx, m = arithmetic_of(self), self.m
        if not ctx.equal(ctx.transpose(m), ctx.scaled(m, -1), CHECK_TOL):
            raise InvalidStructure("J is not antisymmetric")
        if not ctx.equal(ctx.product(m, m), ctx.scaled(ctx.identity(6), -1),
                         CHECK_TOL):
            raise InvalidStructure("J^2 is not -identity")
        if not self.orientation_sign() > 0:
            raise InvalidStructure("J is not orientation-compatible")

    def apply6(self, v: Sequence) -> list:
        return arithmetic_of(self).mat_vec(self.rows, list(v))

    def apply(self, o: Octonion) -> Octonion:
        return embed6(self.apply6(extract6(o)))

    def orientation_sign(self) -> int:
        """Sign of det(u, Ju, v, Jv, w, Jw) for a J-complex basis (u, v, w).

        That basis carries J to the standard block form, whose Pfaffian is
        -1, and Pf(B J B^T) = det(B) Pf(J); so the sign is -sign Pf(J),
        taken here on the numerators of J over a positive denominator."""
        pf = linalg.pfaffian(self.m[0].tolist())
        return -1 if pf > 0 else (1 if pf < 0 else 0)

    # -- comparisons ---------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, ComplexStructureR6):
            return NotImplemented
        return arithmetic_of(self, other).agree(self, other, FLOAT_EQ_TOL)

    def __repr__(self) -> str:
        return "ComplexStructureR6(%r)" % (self.rows,)


@dataclass(frozen=True)
class ComplexLine:
    """An oriented J-complex 2-plane given by the pair (u, J u); the two
    vectors are orthogonal with equal norms (unit in float mode, possibly a
    rational rescaling in exact mode)."""

    u: Octonion
    ju: Octonion

    def contains(self, o: Octonion) -> bool:
        uu = self.u.norm_sq()
        proj = (o.inner(self.u) / uu) * self.u + (o.inner(self.ju) / uu) * self.ju
        return (o - proj).is_zero(CHECK_TOL)


_STANDARD: Dict[bool, ComplexStructureR6] = {}


def standard_structure(exact: bool = True) -> ComplexStructureR6:
    """Left multiplication by e1, restricted to the 6-plane: J_1, built once
    per mode."""
    exact = bool(exact)
    if exact not in _STANDARD:
        _STANDARD[exact] = j_from_octonion((EXACT if exact else FLOAT).one)
    return _STANDARD[exact]


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
    m = ctx.product(ctx.transpose(r), ctx.left(ctx.points([ctx.e1])), r)
    return ComplexStructureR6._trusted(ctx.scaled(m, n), ctx, R6_BASIS)


def equivalent(x: Octonion, y: Octonion) -> bool:
    """Same structure, i.e. y is a (complex) multiple of x.

    Decided by comparing J_x and J_y; cross-checked against the span
    criterion that y conj(x) lies in <1, e1> (the two always agree).
    """
    same_j = j_from_octonion(x) == j_from_octonion(y)
    # w is nonzero: j_from_octonion rejects a zero x or y
    w = y * x.conjugate()
    span = arithmetic_of(x, y).is_zero(w.coords[2:],
                                       FLOAT_EQ_TOL * max(1.0, w.norm()))
    if span != same_j:
        raise VerificationFailed(
            "span criterion and structure comparison disagree (%r vs %r)" % (span, same_j))
    return same_j


def recover_x(j: ComplexStructureR6) -> Octonion:
    """A representative x with j_from_octonion(x) == j.

    Steps: the fixed line L = ker(J - J_std) is 2-dimensional for J distinct
    from the standard structure; A = <1, e1> + L is a quaternion subalgebra;
    for any nonzero I orthogonal to A, l = J(I) I^{-1} is the unit imaginary
    element of A by which J acts on the complement of A, and x = 1 - e1*l
    conjugates e1 onto l (with the special branch l = -e1 handled by taking
    any unit imaginary of A orthogonal to e1).  Exact inputs produce an exact
    (generally non-unit) representative of the ray.
    """
    ctx = arithmetic_of(j)
    std = standard_structure(exact=j.exact)
    if j == std:
        return ctx.one
    ker = ctx.kernel(ctx.difference(j, std))
    if len(ker) == 6:
        return ctx.one
    if len(ker) != 2:
        raise RankError("fixed space of J has dimension %d, expected 2" % len(ker))
    u = embed6(ker[0])
    one, e1 = ctx.one, ctx.e1
    big_i = Octonion(ctx.kernel([o.coords for o in (one, e1, u, e1 * u)])[0])
    l = (j.apply(big_i) * big_i.conjugate()) / big_i.norm_sq()
    if not _sanity_l(l, one, e1, u):
        raise VerificationFailed("recovered rotation element fails its invariants")
    if ctx.zero_norm((l + e1).norm_sq(), SEPARATION_TOL ** 2):
        x = ctx.ray(u)
    else:
        # x = 1 - e1*l solves e1 x = x l:  e1(1 - e1 l) = e1 + l = (1 - e1 l) l
        # by associativity inside the subalgebra generated by e1 and l, hence
        # conj(x) e1 x = |x|^2 l.  It vanishes exactly when l = -e1.
        x = ctx.ray(one - e1 * l)
    if not ctx.agree(j_from_octonion(x), j, CHECK_TOL):
        raise VerificationFailed("recovered x does not reproduce J")
    return x


def _sanity_l(l: Octonion, one: Octonion, e1: Octonion, u: Octonion) -> bool:
    if not (l.is_imaginary(CHECK_TOL) and l.is_unit(CHECK_TOL)):
        return False
    # l must lie in the quaternion subalgebra spanned by (1, e1, u, e1 u)
    span = [one, e1, u, e1 * u]
    proj = Octonion.zero()
    for b in span:
        proj = proj + (l.inner(b) / b.norm_sq()) * b
    return (l - proj).is_zero(CHECK_TOL)


def common_line(j1: ComplexStructureR6, j2: ComplexStructureR6) -> ComplexLine:
    """The unique complex line on which two distinct orthogonal structures
    agree (kernel of their difference, always 2-dimensional)."""
    if j1 == j2:
        raise IdenticalStructures("every line is common to identical structures")
    ctx = arithmetic_of(j1, j2)
    ker = ctx.kernel(ctx.difference(j1, j2))
    if len(ker) == 0:
        raise NoCommonLine("distinct orthogonal structures must share a line")
    if len(ker) != 2:
        raise RankError("agreement space has dimension %d, expected 2" % len(ker))
    u = ctx.ray(embed6(ker[0]))
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
    v = x - x.inner(one) * one - x.inner(e1) * e1
    if v.is_zero(CHECK_TOL):
        raise DegenerateX("x lies in <1, e1>; the block split is degenerate")
    n = x.norm_sq()
    a_basis = (one, e1, v, e1 * v)
    a_perp = tuple(Octonion(r) for r in ctx.kernel([o.coords for o in a_basis]))
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
    x0 = x.coords[0]
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
# projective coordinates
# ---------------------------------------------------------------------------

#: octonion indices of the left-complex-module basis (1, e2, e4, e6)
CP3_MODULE_BASIS: Tuple[int, ...] = (0, 2, 4, 6)


@dataclass(frozen=True)
class CP3Point:
    """Projective 4-tuple of complex coordinates (each a (re, im) pair) over
    the left-complex-module basis (1, e2, e4, e6)."""

    coords: Tuple[Tuple[object, object], ...]

    @property
    def exact(self) -> bool:
        return all(not isinstance(t, float) for zw in self.coords for t in zw)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CP3Point):
            return NotImplemented
        # projective equality: all complex 2x2 minors vanish
        ctx = arithmetic_of(self, other)
        tol = 0.0
        if not ctx.exact:
            scale = max(1.0, max(abs(float(t)) for zw in self.coords + other.coords
                                 for t in zw))
            tol = FLOAT_EQ_TOL * scale * scale
        for i in range(4):
            for j in range(i + 1, 4):
                zi, zj = self.coords[i], self.coords[j]
                wi, wj = other.coords[i], other.coords[j]
                re = zi[0] * wj[0] - zi[1] * wj[1] - (zj[0] * wi[0] - zj[1] * wi[1])
                im = zi[0] * wj[1] + zi[1] * wj[0] - (zj[0] * wi[1] + zj[1] * wi[0])
                if not ctx.is_zero((re, im), tol):
                    return False
        return True


def to_cp3(x: Octonion) -> CP3Point:
    """Coordinates of x in the left-complex-module basis (1, e2, e4, e6),
    as a projective point (well defined on phase classes)."""
    coords = []
    c = x.coords
    for b in CP3_MODULE_BASIS:
        k, s = MUL_INDEX[1][b], MUL_SIGN[1][b]   # e1 * e_b = s * e_k
        coords.append((c[b], s * c[k]))
    return CP3Point(tuple(coords))


# ---------------------------------------------------------------------------
# float sampling of structures
# ---------------------------------------------------------------------------

def random_structure_float(rng: np.random.Generator) -> ComplexStructureR6:
    """Q J_std Q^T for Haar Q in SO(6): a random orientation-compatible
    orthogonal structure."""
    from .sampling import haar_orthogonal
    q = haar_orthogonal(rng, 6)
    std = standard_structure(exact=False).as_array()
    return ComplexStructureR6(q @ std @ q.T)
