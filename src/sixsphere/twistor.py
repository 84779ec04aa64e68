"""The twistor model of the six-sphere and the orthogonal-group action.

Points of the twistor space are pairs (p, x) of a unit imaginary octonion p
and a unit octonion x, modulo the circle action

    (p, x) ~ (p, (cos t + p sin t) x),

and such a pair induces the orthogonal complex structure

    v  ->  (p (v x)) conj(x)        on <1, p>-perp

at p.  Matrices in SO(7) (8x8, fixing 1) act on sections of structures by
(A.J)_p(v) = A J_{A^-1 p}(A^-1 v); for every such matrix there is a unit
octonion a, unique up to sign, with (A.J_canonical)_p(v) = (p (v a)) conj(a).
The map A -> [a] identifies SO(7)/G2 with RP^7 through the G2 3-form
phi(x, y, z) = <xy, z> (Harvey & Lawson, Calibrated geometries, Acta Math.
148, 1982; Bryant, Some remarks on G2-structures, 2005), and `companion`
reads a a^T off A's 3-form in closed form, linearly.

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
lam(e_7) are the columns of lam's pair, and lam^T e_1, ..., lam^T e_7,
whose products give lam's 3-form, are its rows.

As in the rest of the package, "unit" inputs may be given by any nonzero
rational representative of their ray; the formulas divide by the norm where
needed so exact arithmetic survives.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

import numpy as np

from .degree import power_map_preimages
from .errors import (BadConfig, DegenerateInput, InvalidStructure,
                     NonGenericInput, NotImaginaryUnit, VerificationFailed)
from . import octonion
from .octonion import (_CONJ, CHECK_TOL, SEPARATION_TOL, Octonion,
                       SquareMatrix, _floats, arithmetic_of, batch_mul,
                       inner_rows, normalize, reject, residual)
from .sampling import (random_rational_imaginary_unit,
                       random_rational_unit_octonion, rng_from_seed)

ONE = Octonion.basis(0)

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

    __slots__ = ()
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
    kernel_dim: int      # of lam's multiplication defect: 8 or 2
    residual: float      # max octonion-product residual of the verification


def isotopy_residual(lam: SO7Element, a: Octonion, tol: float) -> float:
    """The residual of the candidate octonion a: the max over basis pairs
    of | (lam(ei) a)(conj(a) lam(ej)) - |a|^2 lam(ei ej) |, or, if a fails,
    its first failing defect: the first in (i, j) order that fails lam's
    test against tol (any nonzero defect in exact mode).

    One pass on rows, floats or exact numerators over one denominator
    (d^2 D^2, for lam's pair over d and a's numerators over D), reduced by
    no gcd: one `batch_mul` for every lam(ei) a and conj(a) lam(ej), one
    for their 64 products.  Every defect equals the one scalar `Octonion`
    products give, and the residual the one `residual` reads off it."""
    ctx = arithmetic_of(lam, a)
    img, d = ctx.pair(lam)
    img = img.T                                   # row i: lam(e_i), over d
    num, den = ctx.points([a])                    # (1, 8) over a's D, or 1.0
    den = d * d * np.ravel(den)[0] ** 2
    scale = inner_rows(num, num) * d              # |a|^2 over den / d
    # lam(ei) a and conj(a) lam(ej), rows i and j, in one call
    x, y = np.empty((2, 2, 8, 8), np.result_type(img, num))
    x[0] = y[1] = img
    x[1], y[0] = num * _CONJ, num
    lefts, rights = batch_mul(x, y)
    prods = batch_mul(lefts[:, None], rights[None, :])         # [i, j]
    # lam(ei ej) = MUL_SIGN[i][j] lam(ek), k = MUL_INDEX[i][j]
    lam_ij = img[octonion._MUL_INDEX]
    defects = prods - (octonion._MUL_SIGN[..., None] * scale) * lam_ij
    r = (np.abs(defects).max(axis=-1) / den).ravel().tolist()  # (i, j) order
    cut = 0 if ctx.exact else tol                 # a pair fails above it
    return next((v for v in r if v > cut), max(0.0, *r))


def companion(lam: SO7Element, tol: float = CHECK_TOL) -> CompanionResult:
    """The companion octonion a of lam, up to sign, in closed form.

    For unit a, lam(u v) = (lam(u) a)(conj(a) lam(v)).  Put u = lam^T x and
    v = lam^T y and take the inner product with z: lam's 3-form
    T_ijk = <lam^T e_i lam^T e_j, lam^T e_k>, for i, j, k in 1..7, is
    <(e_i a)(conj(a) e_j), e_k> = tr(Q'_ijk a a^T), for Q'_ijk the
    symmetric matrix of that quadratic form (`octonion._FORM_INDEX`).  The
    map A -> (tr(Q'_ijk A)) has the identity as its kernel, and its
    transpose times it is 48 on the trace-free part, so the sum of
    T_ijk Q'_ijk is 48 (a a^T - I / 8).  For lam's pair (m, d), T is one
    `batch_mul` of m's rows 1..7 and the inner products of those products
    with the rows, ints over d^3 in exact mode; so 48 d^3 a a^T is 6 d^3 I
    plus the sum, exactly, and a's ray is its column with the largest
    diagonal entry.

    The representative: in float mode a is normalized; in exact mode
    a_0 = 1, or, when a_0 = 0, the last nonzero coordinate of lam^T a is 1.
    `kernel_dim` is the dimension of the kernel of lam's multiplication
    defect, {u : lam(x u) = lam(x) lam(u)}: 8 when a is real (lam is an
    automorphism), else 2.  The one candidate goes through one
    `isotopy_residual` pass, and a is returned only if it passes against
    tol on all 64 basis pairs (any nonzero defect fails in exact mode);
    else VerificationFailed is raised with the first failing defect, so a
    matrix outside SO(7) that was not validated gets no companion by
    mistake."""
    if not 0 <= tol < np.inf:
        raise BadConfig("tolerance must be a finite number >= 0")
    ctx = arithmetic_of(lam)
    m, d = lam.m
    rows = m[1:]
    t = batch_mul(rows[:, None], rows[None, :]).reshape(49, 8) @ rows.T
    form = (t.reshape(343)[octonion._FORM_INDEX] * octonion._FORM_SIGN).sum(-1)
    form[np.diag_indices(8)] += 6 * d ** 3                 # 48 d^3 a a^T
    c = int(np.argmax(np.diagonal(form)))
    # the diagonal sums to 48 d^3 under the octonion table; a bent table
    # could leave it with no positive entry, whose column may be zero
    if not form[c, c] > 0:
        raise VerificationFailed("companion form has no positive diagonal "
                                 "entry")
    v = form[:, c]
    if not ctx.exact:
        a = normalize(_floats(v.tolist()))
    elif v[0]:
        a = Octonion.from_lifted(v, v[0])
    else:
        back = [x for x in (m.T @ v).tolist() if x]           # d lam^T v
        a = Octonion.from_lifted(v * d, back[-1] if back else d)
    r = isotopy_residual(lam, a, tol)
    if not ctx.scalar_eq(r, 0, tol):
        raise VerificationFailed(
            "companion candidate fails the isotopy identity (defect %g)" % r)
    return CompanionResult(a, 8 if a.imag().is_zero() else 2, float(r))


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
