"""The twistor model of the six-sphere and the orthogonal-group action.

Points of the twistor space are pairs (p, x) of a unit imaginary octonion p
and a unit octonion x, modulo the circle action

    (p, x) ~ (p, (cos t + p sin t) x),

and such a pair induces the orthogonal complex structure

    v  ->  (p (v x)) conj(x)        on <1, p>-perp

at p.  Matrices in SO(7) (8x8, fixing 1) act on sections of structures by
(A.J)_p(v) = A J_{A^-1 p}(A^-1 v); for every such matrix there is a unit
octonion a, unique up to sign, with (A.J_canonical)_p(v) = (p (v a)) conj(a),
recovered here by a linear kernel computation.

A section is built at a stack of points at once, each structure as one
product of 8x8 matrices, multiplied by the arithmetic context in its mode:
L_p P_p (canonical), R_conj(x) L_p R_x P_p / |x|^2 (the constant section of
x) and A M_q A^T (A acting on a section with matrix M_q at q = A^T p), with
L_w, R_w the matrices of v -> w v, v -> v w (R_conj(x) is R_x^T) and P_p
the projection onto <1, p>-perp.  Sections are compared on the stacked
matrices.  A structure or an SO(7) element acts on an octonion through
`SquareMatrix.apply`, its pair times the octonion's numerators, and
compares by value; lam(e_0), ..., lam(e_7) are the columns of lam's pair,
and the companion system is their multiplication defect
(`octonion.multiplication_defect`), one table product of those columns.

As in the rest of the package, "unit" inputs may be given by any nonzero
rational representative of their ray; the formulas divide by the norm where
needed so exact arithmetic survives.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .degree import power_map_preimages
from .errors import (BadConfig, DegenerateInput, InvalidStructure,
                     KernelDimensionError, NonGenericInput, NotImaginaryUnit,
                     VerificationFailed)
from .octonion import (CHECK_TOL, MUL_INDEX, MUL_SIGN, SEPARATION_TOL,
                       Arithmetic, Octonion, SquareMatrix, _floats, _reduced,
                       arithmetic_of, batch_mul, multiplication_defect,
                       reject, residual)
from .sampling import (random_rational_imaginary_unit,
                       random_rational_unit_octonion, rng_from_seed)

ONE = Octonion.basis(0)

#: float pencil coordinates whose largest coefficient is below this are skipped
PENCIL_LEAD_FLOOR = 1e-9
#: size, relative to the largest one, under which a pencil coefficient is zero
PENCIL_COEFF_RTOL = 1e-12
#: coordinate error of y^6 allowed to a closed-form root y of y^6 = x^6
ROOT_CHECK_TOL = 1e-7


def _check_point(p: Octonion):
    if not (p.is_imaginary(CHECK_TOL) and p.is_unit(CHECK_TOL)):
        raise NotImaginaryUnit("p must be a unit imaginary octonion")


class TangentStructure(SquareMatrix):
    """An orthogonal complex structure on the tangent space at p, stored as
    the 8x8 matrix that applies it on <1, p>-perp and kills <1, p>."""

    __slots__ = ("p",)
    size, error = 8, InvalidStructure

    def __init__(self, p: Octonion, rows):
        _check_point(p)
        self.p = p
        super().__init__(rows)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TangentStructure):
            return NotImplemented
        return self.p == other.p and SquareMatrix.__eq__(self, other)

    def _validate(self):
        """Raise InvalidStructure unless the matrix is antisymmetric with
        square -P_p (P_p projects onto <1,p>-perp), so that it kills <1, p>
        and is orthogonal with square -id on <1,p>-perp: exactly for an
        exact structure, within CHECK_TOL for a float one."""
        ctx = arithmetic_of(self, self.p)
        m = ctx.pair(self)
        if not ctx.equal(ctx.transpose(m), ctx.scaled(m, -1), CHECK_TOL):
            raise InvalidStructure("structure is not antisymmetric")
        minus_proj = ctx.scaled(ctx.projector(ctx.points([self.p])), -1)
        if not ctx.equal(ctx.product(m, m), minus_proj, CHECK_TOL):
            raise InvalidStructure("structure does not square to -P_p")


class Section:
    """A section of tangent structures over the six-sphere.  `build(ctx,
    pts)` gives its matrices at the stacked points of the pair pts (see
    `octonion.Arithmetic`) in the mode of ctx; calling it at a point gives
    the structure there."""

    __slots__ = ("build", "exact")

    def __init__(self, build: Callable, exact: bool):
        self.build, self.exact = build, exact

    def __call__(self, p: Octonion) -> TangentStructure:
        _check_point(p)
        ctx = arithmetic_of(self, p)
        st = TangentStructure._trusted(self.build(ctx, ctx.points([p])), ctx)
        st.p = p
        return st


_CANONICAL = Section(lambda ctx, pts: ctx.product(ctx.left(pts),
                                                  ctx.projector(pts)),
                     exact=True)


@dataclass(frozen=True)
class TwistorPoint:
    """(p, x) with p on the six-sphere and x a (ray representative of a)
    unit octonion; (p, x) and (p, (cos t + p sin t) x) induce the same
    structure."""

    p: Octonion
    x: Octonion

    def __post_init__(self):
        _check_point(self.p)
        if arithmetic_of(self.x).zero_norm(self.x.norm_sq()):
            raise DegenerateInput("x must be nonzero")

    def phase_shift(self, cos_t, sin_t) -> "TwistorPoint":
        z = cos_t * ONE + sin_t * self.p
        return TwistorPoint(self.p, z * self.x)


def twistor_evaluate(t: TwistorPoint) -> TangentStructure:
    """The structure v -> (p (v x)) conj(x) / |x|^2 at p."""
    return rp7_section(t.x)(t.p)


# ---------------------------------------------------------------------------
# SO(7) and its action on sections
# ---------------------------------------------------------------------------

class SO7Element(SquareMatrix):
    """8x8 special orthogonal matrix fixing the octonion unit.  Validation
    checks that 1 is fixed, that M M^T = 1 and that det M > 0."""

    __slots__ = ("_images",)
    size, error = 8, DegenerateInput

    def _validate(self):
        ctx, m = arithmetic_of(self), self.m
        fixed = all(ctx.scalar_eq(x, m[1] * (i == 0), CHECK_TOL)
                    for i, x in enumerate(m[0][:, 0]))
        if not (fixed and ctx.equal(ctx.product(m, ctx.transpose(m)),
                                    ctx.identity(8), CHECK_TOL)):
            raise DegenerateInput("matrix must be orthogonal and fix 1")
        if not ctx.det(m) > 0:
            raise DegenerateInput("matrix must have determinant +1")

    def inverse_apply(self, o: Octonion) -> Octonion:
        ctx = arithmetic_of(self)
        return SO7Element._trusted(ctx.transpose(self.m), ctx).apply(o)

    def compose(self, other: "SO7Element") -> "SO7Element":
        ctx = arithmetic_of(self, other)
        return SO7Element._trusted(ctx.product(ctx.pair(self), ctx.pair(other)), ctx)

    def images(self) -> List[Octonion]:
        """lam(e_0), ..., lam(e_7), the pair's columns in lam's mode, read once."""
        try:
            return self._images
        except AttributeError:
            a, d = self.m
            self._images = [_reduced(c, d) if self.exact else _floats(c)
                            for c in a.T.tolist()]
            return self._images


def conjugation_element(x: Octonion) -> SO7Element:
    """c(x): w -> x w conj(x) / |x|^2, an element of SO(7):
    R_conj(x) L_x / |x|^2."""
    ctx = arithmetic_of(x)
    xs = ctx.points([x])
    m = ctx.product(ctx.transpose(ctx.right(xs)), ctx.left(xs))
    return SO7Element._trusted(ctx.scaled(m, x.norm_sq()), ctx)


def canonical_section() -> Section:
    return _CANONICAL


def so7_act(a: SO7Element, section: Section) -> Section:
    """(A.J)_p(v) = A J_{A^-1 p}(A^-1 v): the matrix A M_q A^T, where M_q is
    the section's matrix at q = A^T p."""

    def build(ctx, pts):
        m = ctx.pair(a)
        inner = section.build(ctx, (pts[0] @ m[0], pts[1] * m[1]))  # q^T = p^T A
        return ctx.product(m, inner, ctx.transpose(m))

    return Section(build, a.exact and section.exact)


def rp7_section(x: Octonion) -> Section:
    """The constant-octonion section p -> R_conj(x) L_p R_x P_p / |x|^2, the
    structure of (p, x); x and -x give the same section."""

    def build(ctx, pts):
        r = ctx.right(ctx.points([x]))
        m = ctx.product(ctx.transpose(r), ctx.left(pts), r, ctx.projector(pts))
        return ctx.scaled(m, x.norm_sq())

    if arithmetic_of(x).zero_norm(x.norm_sq()):
        raise DegenerateInput("x must be nonzero")
    return Section(build, x.exact)


@functools.cache
def section_sample_points() -> List[Octonion]:
    """Fixed deterministic set of 20 exact rational points of the six-sphere
    used for comparing sections.  The compared identities are polynomial of
    low degree in the point, so agreement on this sample (plus the standard
    basis points, which are included) is used as section equality."""
    rng = rng_from_seed(0x517E57)
    pts = [Octonion.basis(k) for k in range(1, 8)]
    while len(pts) < 20:
        pts.append(random_rational_imaginary_unit(rng))
    return pts


@functools.cache
def _sample_stack(ctx: Arithmetic):
    # the sample points stacked once per mode (they are exact), shared by
    # every later comparison: read-only
    pts = ctx.points(section_sample_points())
    for a in pts:
        if isinstance(a, np.ndarray):
            a.setflags(write=False)
    return pts


def _on_points(s1: Section, s2: Section):
    # the context and both sections' stacked matrices at the sample points
    ctx = arithmetic_of(s1, s2)
    pts = _sample_stack(ctx)
    return ctx, s1.build(ctx, pts), s2.build(ctx, pts)


def section_distance(s1: Section, s2: Section) -> float:
    ctx, m1, m2 = _on_points(s1, s2)
    return ctx.distance(m1, m2)


def sections_equal(s1: Section, s2: Section) -> bool:
    ctx, m1, m2 = _on_points(s1, s2)
    return ctx.equal(m1, m2)


# ---------------------------------------------------------------------------
# companions
# ---------------------------------------------------------------------------

@dataclass
class CompanionResult:
    a: Octonion          # ray representative in exact mode, unit in float
    kernel_dim: int
    residual: float      # max octonion-product residual of the verification


def _isotopy_defect(imgs: List[Octonion], a: Octonion, i: int, j: int) -> Octonion:
    """(lam(ei) a)(conj(a) lam(ej)) - |a|^2 lam(ei ej): zero for companions."""
    return (imgs[i] * a) * (a.conjugate() * imgs[j]) - \
        a.norm_sq() * (MUL_SIGN[i][j] * imgs[MUL_INDEX[i][j]])


def isotopy_residual(lam: SO7Element, a: Octonion,
                     tol: Optional[float] = None) -> float:
    """max over basis pairs of | (lam(ei) a)(conj(a) lam(ej)) - |a|^2 lam(ei ej) |.

    The pairs run row by row (i, then j), each defect equal to
    `_isotopy_defect`'s; the factors are shared: conj(a) and |a|^2 once,
    lam(ei) a once per row, conj(a) lam(ej) and |a|^2 lam(ek) on first use.
    So a passing candidate takes 80 octonion products, not 3 per pair.
    Given tol, a candidate that fails stops early: the first defect that
    fails lam's test against tol (any nonzero defect in exact mode) is
    returned in place of the max."""
    imgs, ctx, worst = lam.images(), arithmetic_of(lam), 0.0
    ac, n = a.conjugate(), a.norm_sq()
    rights: List[Optional[Octonion]] = [None] * 8   # conj(a) lam(ej)
    scaled: List[Optional[Octonion]] = [None] * 8   # |a|^2 lam(ek)
    for i in range(8):
        left = imgs[i] * a
        for j in range(8):
            if rights[j] is None:
                rights[j] = ac * imgs[j]
            k = MUL_INDEX[i][j]
            if scaled[k] is None:
                scaled[k] = n * imgs[k]
            # lam(ei ej) = MUL_SIGN[i][j] lam(ek)
            prod = left * rights[j]
            d = prod - scaled[k] if MUL_SIGN[i][j] > 0 else prod + scaled[k]
            r = residual(d)
            if tol is not None and not ctx.scalar_eq(r, 0, tol):
                return r
            worst = max(worst, r)
    return worst


def _pencil_candidates(lam: SO7Element, k1: Octonion,
                       k2: Octonion) -> Iterator[Octonion]:
    """Candidate companion preimages on the projective line through two
    kernel vectors.

    The isotopy defect of a = s lam(k1) + t lam(k2) is a homogeneous
    quadratic in (s, t) in every coordinate, and the true companion ray is a
    common root of all of them; so the roots of any one nonzero coordinate
    quadratic (recovered from evaluations at (1,0), (0,1), (1,1)) give at
    most two candidate rays to verify.  A coefficient is zero by the test of
    the context, relative to the largest one; in exact mode a quadratic
    without rational roots gives none.  The three defects are read as
    numerators over one denominator, their lcm (1 for floats): scaling a
    quadratic leaves its roots, rationals in exact mode, as they are.
    """
    imgs, ctx = lam.images(), arithmetic_of(lam, k1, k2)
    a1, a2 = lam.apply(k1), lam.apply(k2)
    for i in range(1, 8):
        for j in range(1, 8):
            defects = [_isotopy_defect(imgs, a, i, j) for a in (a1, a2, a1 + a2)]
            d = math.lcm(*(r.denominator for r in defects))
            ra, rc, rs = ([n * (d // r.denominator) for n in r.numerators]
                          for r in defects)
            for c in range(8):
                qa, qc = ra[c], rc[c]
                qb = rs[c] - qa - qc
                lead = max(abs(qa), abs(qb), abs(qc))
                if ctx.scalar_eq(lead, 0, PENCIL_LEAD_FLOOR):
                    continue
                zero_tol = PENCIL_COEFF_RTOL * lead
                if not ctx.scalar_eq(qc, 0, zero_tol):
                    root = ctx.sqrt(qb * qb - 4 * qa * qc)
                    if root is None:
                        continue
                    yield from (k1 + ((-qb + sgn * root) / (2 * qc)) * k2
                                for sgn in (1, -1))
                else:
                    yield k2
                    if not ctx.scalar_eq(qb, 0, zero_tol):
                        # a rational quotient of ints; the same float as
                        # qa / qb of floats
                        yield k1 - (Fraction(qa) / qb) * k2
                return


def companion(lam: SO7Element, tol: float = CHECK_TOL) -> CompanionResult:
    """The companion octonion of lam, up to sign.

    The defining property phi(x) = lam(x) a with (phi, psi, lam) an isotopy
    triple implies that u = lam^-1(a) satisfies lam(x u) = lam(x) lam(u) for
    every x, a condition linear in u.  We stack the eight basis instances
    into a 64x8 system and take its kernel.  The kernel always also contains
    the trivial vector 1 (and is all of the octonions when lam is an
    automorphism), so when it is larger than a line the companion ray is
    pinned down by solving the quadratic isotopy defect along the kernel,
    and a candidate is returned once the full identity holds on all 64
    basis pairs; a failing one is dropped at its first failing pair.  The
    candidates are tried in order: the kernel vectors, then the pencil roots
    of each pair of them.
    """
    if not 0 <= tol < np.inf:
        raise BadConfig("tolerance must be a finite number >= 0")
    ctx = arithmetic_of(lam)
    ker = ctx.kernel(multiplication_defect(lam.m)[0])
    if len(ker) == 0:
        raise KernelDimensionError("companion kernel is zero-dimensional")
    # built lazily, so the pencils are solved only when no kernel vector
    # passes
    candidates = chain(ker, chain.from_iterable(
        _pencil_candidates(lam, u, v) for u, v in combinations(ker, 2)))
    for u in candidates:
        if u.is_zero(CHECK_TOL):
            continue
        a = ctx.ray(lam.apply(u))
        r = isotopy_residual(lam, a, tol)
        if ctx.scalar_eq(r, 0, tol):
            return CompanionResult(a, len(ker), float(r))
    if len(ker) > 1:
        raise KernelDimensionError(
            "kernel dimension %d and no vector passes verification" % len(ker))
    raise VerificationFailed(  # a line kernel has one candidate
        "companion candidate fails the isotopy identity (defect %g)" % r)


def verify_so7_section_identity(lam: SO7Element, a: Octonion) -> float:
    """max distance between (lam . J_canonical) and the constant section of a
    over the sample points."""
    acted = so7_act(lam, canonical_section())
    return section_distance(acted, rp7_section(a))


def verify_moufang_action(lam: SO7Element, a: Octonion,
                          samples: Sequence[Tuple[Octonion, Octonion]]) -> float:
    """Residual of lam(lam^-1(p) lam^-1(v)) == (p (v a)) conj(a) / |a|^2 over
    sampled (p, v) with v tangent at p."""
    n = a.norm_sq()
    ac = a.conjugate()
    worst = 0.0
    for p, v in samples:
        lhs = lam.apply(lam.inverse_apply(p) * lam.inverse_apply(v))
        rhs = (p * (v * a)) * ac / n
        worst = max(worst, residual(lhs - rhs))
    return worst


# ---------------------------------------------------------------------------
# the cube action of conjugation and its fibers
# ---------------------------------------------------------------------------

@dataclass
class CubeReport:
    matched_cube: bool        # (c(x).J)_p(v) == (p (v x^3)) conj(x^3)
    matched_conj_cube: bool   # same with conj(x)^3 in place of x^3
    subalgebra_branch_ok: bool


def triality_cube(x: Octonion, p: Octonion, v: Octonion) -> CubeReport:
    """Evaluate (c(x) . J_canonical)_p(v) and test it against the two
    candidate closed forms given by the cube of x and of conj(x); also check
    that tangent directions inside the subalgebra spanned by p and x are sent
    to p*v."""
    _check_point(p)
    cx = conjugation_element(x)
    acted = so7_act(cx, canonical_section())(p)
    got = acted.apply(v)

    def candidate(z: Octonion) -> Octonion:
        return (p * (v * z)) * z.conjugate() / z.norm_sq()

    z1 = x.power(3)
    z2 = x.conjugate().power(3)
    m1 = (got - candidate(z1)).is_zero(CHECK_TOL)
    m2 = (got - candidate(z2)).is_zero(CHECK_TOL)

    va = reject(x, (ONE, p))
    if va.is_zero(CHECK_TOL):
        branch_ok = True
    else:
        got_a = acted.apply(va)
        branch_ok = (got_a - p * va).is_zero(CHECK_TOL)
    return CubeReport(bool(m1), bool(m2), bool(branch_ok))


def fiber_count_rp7(x: Octonion) -> int:
    """Number of classes [y] in the projective seven-space with y^6 = x^6.

    Any such y lies on the circle through 1 and the imaginary axis of x^6
    (a sixth power lives in the subalgebra generated by its own imaginary
    part, so y^6 = x^6 forces the imaginary axis of y onto that of x^6 when
    x^6 is not real).  The six circle solutions pair off under y -> -y into
    three classes.  Raises NonGenericInput when x^6 is real, where the
    solution set is positive-dimensional.
    """
    w = x.power(6)
    wf = w.to_float_array() / np.linalg.norm(w.to_float_array())
    if w.exact:
        if not any(w.numerators[1:]):
            raise NonGenericInput("x^6 is real; the fiber is not finite")
    elif np.linalg.norm(wf[1:]) <= CHECK_TOL:
        raise NonGenericInput("x^6 is numerically real; the fiber is not finite")
    sols = power_map_preimages(w, 6)
    y6 = ys = np.array(sols)
    for _ in range(5):
        y6 = batch_mul(y6, ys)
    if np.max(np.abs(y6 - wf)) > ROOT_CHECK_TOL:
        raise VerificationFailed("circle solution fails y^6 = x^6")
    classes: List[np.ndarray] = []
    for y in sols:
        if not any(min(np.max(np.abs(y - c)), np.max(np.abs(y + c))) < SEPARATION_TOL
                   for c in classes):
            classes.append(y)
    return len(classes)


# ---------------------------------------------------------------------------
# the explicit loop lift
# ---------------------------------------------------------------------------

def loop_lift_identity(cos_pt, sin_pt, p: Octonion, v: Octonion) -> bool:
    """At parameter t (given by the circle point (cos_pt, sin_pt)), the
    structure induced at p by

        x = (cos - p sin)(cos + e1 sin)

    equals the one induced by cos + e1 sin alone: the first factor is a
    circle-action phase at p, so this is the invariance that makes the loop
    of structures lift through constant-times-circle octonions.  Exact for
    rational inputs."""
    _check_point(p)
    ctx = arithmetic_of(p)
    one, e1 = ctx.one, ctx.e1
    xt = cos_pt * one + sin_pt * e1
    lift = (cos_pt * one - sin_pt * p) * xt
    s_lift = twistor_evaluate(TwistorPoint(p, lift))
    s_loop = twistor_evaluate(TwistorPoint(p, xt))
    return arithmetic_of(s_lift, s_loop).agree(s_lift, s_loop, CHECK_TOL)


# ---------------------------------------------------------------------------
# random exact SO(7)
# ---------------------------------------------------------------------------

def random_so7_exact(rng: np.random.Generator) -> SO7Element:
    """Product of two rational conjugation elements and one exact
    automorphism from a random admissible frame."""
    from .frames import random_g2_matrix
    out = SO7Element(random_g2_matrix(rng), validate=False)
    for _ in range(2):
        x = random_rational_unit_octonion(rng)
        out = conjugation_element(x).compose(out)
    return out
