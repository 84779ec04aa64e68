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

A section is held as its linear factor K, evaluated at a stack of points at
once, each value one product of 8x8 matrices multiplied by the arithmetic
context in its mode: L_p (canonical), R_conj(x) L_p R_x / |x|^2 (the
constant section of x) and A K(A^T p) A^T (A acting on a section with
factor K), with L_w, R_w the matrices of v -> w v, v -> v w (R_conj(x) is
R_x^T).  The section is K(p) P_p, with P_p the projection onto
<1, p>-perp.  Each such K has K(p) 1 = p and K(p) p = -|p|^2 1 as long as
every A fixes 1 and is orthogonal (alternativity gives
(p (p x)) conj(x) = -|p|^2 x conj(x)), so the difference M of two factors
kills 1 and p, and M(p) P_p = M(p) on the sphere: two sections are equal
exactly when their factors agree at e_1, ..., e_7, which `sections_equal`
decides in both modes once that premise is checked.  A structure or an
SO(7) element acts on an octonion through `SquareMatrix.apply`, its pair
times the octonion's numerators, and compares by value; lam(e_0), ...,
lam(e_7) are the columns of lam's pair, and the companion system is their
multiplication defect (`octonion.multiplication_defect`), one table
product of those columns.

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
from typing import Callable, Iterator, List, Sequence, Tuple

import numpy as np

from .degree import power_map_preimages
from .errors import (BadConfig, DegenerateInput, InvalidStructure,
                     KernelDimensionError, NonGenericInput, NotImaginaryUnit,
                     VerificationFailed)
from . import octonion
from .octonion import (_CONJ, CHECK_TOL, SEPARATION_TOL, Octonion,
                       SquareMatrix, _floats, _reduced, arithmetic_of,
                       batch_mul, inner_rows, multiplication_defect, reject,
                       residual)
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
    """A section of tangent structures over the six-sphere, held as its
    linear factor K (see the module docstring): `linear(ctx, pts)` gives K
    at the stacked points of the pair pts in the mode of ctx, and calling
    the section at p gives the structure K(p) P_p there.  `rotations` are
    the rotations it was acted on by, checked when sections are compared."""

    __slots__ = ("linear", "exact", "rotations")

    def __init__(self, linear: Callable, exact: bool,
                 rotations: Tuple["SO7Element", ...] = ()):
        self.linear, self.exact, self.rotations = linear, exact, rotations

    def __call__(self, p: Octonion) -> TangentStructure:
        _check_point(p)
        ctx = arithmetic_of(self, p)
        pts = ctx.points([p])
        st = TangentStructure._trusted(
            ctx.product(self.linear(ctx, pts), ctx.projector(pts)), ctx)
        st.p = p
        return st


_CANONICAL = Section(lambda ctx, pts: ctx.left(pts), exact=True)


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
        if not self.fixes_one_orthogonally():
            raise DegenerateInput("matrix must be orthogonal and fix 1")
        if not arithmetic_of(self).det(self.m) > 0:
            raise DegenerateInput("matrix must have determinant +1")

    def fixes_one_orthogonally(self) -> bool:
        """Whether the first column is e_0 and M M^T = 1: exactly for an
        exact matrix, within CHECK_TOL for a float one."""
        ctx, m = arithmetic_of(self), self.m
        fixed = all(ctx.scalar_eq(x, m[1] * (i == 0), CHECK_TOL)
                    for i, x in enumerate(m[0][:, 0]))
        return fixed and ctx.equal(ctx.product(m, ctx.transpose(m)),
                                   ctx.identity(8), CHECK_TOL)

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


def _rotated(pts, m):
    # the points q = A^T p of the points pts, for A the pair m: q^T = p^T A
    return pts[0] @ m[0], pts[1] * m[1]


def so7_act(a: SO7Element, section: Section) -> Section:
    """(A.J)_p(v) = A J_{A^-1 p}(A^-1 v), for a section J = K(q) P_q: when
    A fixes 1 and is orthogonal, A P_q A^T = P_p at q = A^T p, so the acted
    section has the linear factor A K(A^T p) A^T."""

    def linear(ctx, pts):
        m = ctx.pair(a)
        return ctx.product(m, section.linear(ctx, _rotated(pts, m)),
                           ctx.transpose(m))

    return Section(linear, a.exact and section.exact, (a, *section.rotations))


def rp7_section(x: Octonion) -> Section:
    """The constant-octonion section p -> R_conj(x) L_p R_x P_p / |x|^2, the
    structure of (p, x); x and -x give the same section."""

    def linear(ctx, pts):
        r = ctx.right(ctx.points([x]))
        m = ctx.product(ctx.transpose(r), ctx.left(pts), r)
        return ctx.scaled(m, x.norm_sq())

    if arithmetic_of(x).zero_norm(x.norm_sq()):
        raise DegenerateInput("x must be nonzero")
    return Section(linear, x.exact)


#: e_1, ..., e_7: a linear factor that agrees there agrees everywhere
_BASIS = [Octonion.basis(k) for k in range(1, 8)]


@functools.cache
def section_sample_points() -> List[Octonion]:
    """Fixed deterministic set of 20 exact rational points of the six-sphere:
    the standard basis points and 13 drawn from one seed.  No comparison
    reads them (sections are compared by their linear factors at e_1, ...,
    e_7); they stay as the lazy set-up the benchmark's sweeps run."""
    rng = rng_from_seed(0x517E57)
    pts = list(_BASIS)
    while len(pts) < 20:
        pts.append(random_rational_imaginary_unit(rng))
    return pts


def _factors(s1: Section, s2: Section):
    """The context and both sections' linear factors at e_1, ..., e_7.
    Raises DegenerateInput unless every rotation of either section fixes 1
    and is orthogonal (`SO7Element.fixes_one_orthogonally`), the premise of
    the decision in the module docstring."""
    if not all(a.fixes_one_orthogonally() for a in s1.rotations + s2.rotations):
        raise DegenerateInput("a section's rotation must be orthogonal and fix 1")
    ctx = arithmetic_of(s1, s2)
    pts = ctx.points(_BASIS)
    return ctx, s1.linear(ctx, pts), s2.linear(ctx, pts)


def section_distance(s1: Section, s2: Section) -> float:
    """The largest entry of K_1 - K_2 at e_1, ..., e_7 (see `_factors`)."""
    ctx, k1, k2 = _factors(s1, s2)
    return ctx.distance(k1, k2)


def sections_equal(s1: Section, s2: Section) -> bool:
    """Whether two sections are equal: whether their linear factors agree
    at e_1, ..., e_7 (see `_factors`), exactly for exact sections and
    within FLOAT_EQ_TOL for float ones."""
    ctx, k1, k2 = _factors(s1, s2)
    return ctx.equal(k1, k2)


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
        a.norm_sq() * (octonion.MUL_SIGN[i][j] * imgs[octonion.MUL_INDEX[i][j]])


def isotopy_residual(lam: SO7Element, cands: Sequence[Octonion],
                     tol: float) -> List[float]:
    """For each candidate octonion a, its residual: the max over basis pairs
    of | (lam(ei) a)(conj(a) lam(ej)) - |a|^2 lam(ei ej) |, or for a
    candidate that fails, its first failing defect.

    The candidates are checked in one stacked pass on rows, floats or exact
    numerators over one denominator per candidate (d^2 D^2, for lam's pair
    over d and a's numerators over D), reduced by no gcd: one `batch_mul`
    for every lam(ei) a and conj(a) lam(ej), then their products.  Every
    defect equals `_isotopy_defect`'s, and every residual the one
    `residual` reads off it.  A candidate fails at the first defect in
    (i, j) order that fails lam's test against tol (any nonzero defect in
    exact mode), and that defect is its residual.  The 16 products with
    i <= 1 are taken first, for every candidate, and only the candidates
    that pass them go on to the 48 with i >= 2, so a failing candidate
    stays cheap."""
    ctx = arithmetic_of(lam, *cands)
    img, d = ctx.pair(lam)
    img = img.T                                   # row i: lam(e_i), over d
    num, den = ctx.points(cands)                  # den: one per candidate, or 1.0
    m = len(cands)
    den = np.resize(d * d * np.reshape(den, -1) ** 2, m)
    scale = inner_rows(num, num) * d              # |a|^2 over den / d
    # lam(ei) a and conj(a) lam(ej), [i, c] and [j, c], in one call
    x, y = np.empty((2, 2, 8, m, 8), np.result_type(img, num))
    x[0] = y[1] = img[:, None]
    x[1], y[0] = num * _CONJ, num
    lefts, rights = batch_mul(x, y)
    cut = 0 if ctx.exact else tol                 # a pair fails above it
    out: List[float] = [0.0] * m
    alive = np.arange(m)
    for rows in (slice(0, 2), slice(2, 8)):
        prods = batch_mul(lefts[rows, alive, None],
                          rights[:, alive].swapaxes(0, 1))    # [i, c, j]
        # lam(ei ej) = MUL_SIGN[i][j] lam(ek), k = MUL_INDEX[i][j]
        sign = octonion._MUL_SIGN[rows][:, None, :, None]
        lam_ij = img[octonion._MUL_INDEX[rows]][:, None]
        defects = prods - (sign * scale[alive, None, None]) * lam_ij
        r = np.abs(defects).max(axis=-1) / den[alive, None]   # [i, c, j]
        r = r.swapaxes(0, 1).reshape(len(alive), -1)          # (i, j) order
        keep = []
        for c, rc in zip(alive.tolist(), r.tolist()):
            bad = next((v for v in rc if v > cut), None)
            if bad is None:
                out[c] = max(out[c], *rc)
                keep.append(c)
            else:
                out[c] = bad
        alive = np.array(keep, dtype=int)
        if not len(alive):
            break
    return out


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
    basis pairs.  The candidates come in groups, each verified in one
    stacked `isotopy_residual` pass: the kernel vectors, then the pencil
    roots of each pair of them (solved only when no earlier group passes).
    The first candidate that passes, in that order, is returned; a failing
    one is measured at its first failing pair.
    """
    if not 0 <= tol < np.inf:
        raise BadConfig("tolerance must be a finite number >= 0")
    ctx = arithmetic_of(lam)
    ker = ctx.kernel(multiplication_defect(lam.m)[0])
    if len(ker) == 0:
        raise KernelDimensionError("companion kernel is zero-dimensional")
    groups = chain([ker], (_pencil_candidates(lam, u, v)
                           for u, v in combinations(ker, 2)))
    for group in groups:
        cands = [ctx.ray(lam.apply(u)) for u in group if not u.is_zero(CHECK_TOL)]
        if not cands:
            continue
        rs = isotopy_residual(lam, cands, tol)
        for a, r in zip(cands, rs):
            if ctx.scalar_eq(r, 0, tol):
                return CompanionResult(a, len(ker), float(r))
    if len(ker) > 1:
        raise KernelDimensionError(
            "kernel dimension %d and no vector passes verification" % len(ker))
    raise VerificationFailed(  # a line kernel has one candidate
        "companion candidate fails the isotopy identity (defect %g)" % r)


def verify_so7_section_identity(lam: SO7Element, a: Octonion) -> float:
    """`section_distance` of (lam . J_canonical) and the constant section of
    a: the largest entry of the difference of their linear factors at e_1,
    ..., e_7."""
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
