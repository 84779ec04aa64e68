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

As in the rest of the package, "unit" inputs may be given by any nonzero
rational representative of their ray; the formulas divide by the norm where
needed so exact arithmetic survives.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import (DegenerateInput, KernelDimensionError, NonGenericInput,
                     NotImaginaryUnit, VerificationFailed)
from . import linalg
from .frames import apply_matrix
from .octonion import (CHECK_TOL, DIVISOR_FLOOR, FLOAT_EQ_TOL, SEPARATION_TOL,
                       Octonion, STRUCTURE_TENSOR, arithmetic_of, batch_conj,
                       batch_mul, exact_sqrt, left_mult_matrix_exact,
                       left_mult_matrix, residual)
from .sampling import (random_rational_imaginary_unit,
                       random_rational_unit_octonion, rng_from_seed)

ONE = Octonion.basis(0)

#: float pencil coordinates whose largest coefficient is below this are skipped
PENCIL_LEAD_FLOOR = 1e-9
#: size, relative to the largest one, under which a pencil coefficient is zero
PENCIL_COEFF_RTOL = 1e-12
#: coordinate error of y^6 allowed to a closed-form root y of y^6 = x^6
ROOT_CHECK_TOL = 1e-7


def _check_point(p: Octonion, tol: float = CHECK_TOL):
    if not (p.is_imaginary(tol) and p.is_unit(tol)):
        raise NotImaginaryUnit("p must be a unit imaginary octonion")


class TangentStructure:
    """An orthogonal complex structure on the tangent space at p, stored as
    the 8x8 matrix that applies it on <1, p>-perp and kills <1, p>."""

    __slots__ = ("p", "rows", "exact")

    def __init__(self, p: Octonion, image_of: Callable[[Octonion], Octonion]):
        _check_point(p)
        self.p = p
        cols = []
        exact = p.exact
        for k in range(8):
            e = Octonion.basis(k)
            v = e - e.inner(ONE) * ONE - e.inner(p) * p
            w = image_of(v) if not v.is_zero() else Octonion.zero()
            exact = exact and w.exact
            cols.append(w.coords)
        self.exact = exact
        if exact:
            self.rows = tuple(tuple(cols[j][i] for j in range(8)) for i in range(8))
        else:
            self.rows = np.array([[float(cols[j][i]) for j in range(8)]
                                  for i in range(8)])

    def apply(self, v: Octonion) -> Octonion:
        w = v - v.inner(ONE) * ONE - v.inner(self.p) * self.p
        return apply_matrix(self.rows, w)

    def as_array(self) -> np.ndarray:
        if isinstance(self.rows, np.ndarray):
            return self.rows
        return np.array([[float(x) for x in row] for row in self.rows])

    def distance(self, other: "TangentStructure") -> float:
        return float(np.max(np.abs(self.as_array() - other.as_array())))

    def __eq__(self, other) -> bool:
        if not isinstance(other, TangentStructure):
            return NotImplemented
        if self.p != other.p:
            return False
        return arithmetic_of(self, other).agree(self, other, FLOAT_EQ_TOL)

    def check_structure(self, tol: float = CHECK_TOL) -> bool:
        """On <1,p>-perp the matrix must be orthogonal with square -id."""
        a = self.as_array()
        pf = self.p.to_float_array()
        basis = [np.eye(8)[0], pf]
        proj = np.eye(8) - np.outer(basis[0], basis[0]) - np.outer(pf, pf)
        return (np.max(np.abs(a @ a + proj)) <= tol
                and np.max(np.abs(a @ a.T - proj)) <= tol)


def canonical_structure_at(p: Octonion) -> TangentStructure:
    """v -> p v on the tangent space at p."""
    _check_point(p)
    return TangentStructure(p, lambda v: p * v)


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
    p, x = t.p, t.x
    n = x.norm_sq()
    xc = x.conjugate()
    return TangentStructure(p, lambda v: (p * (v * x)) * xc / n)


# ---------------------------------------------------------------------------
# SO(7) and its action on sections
# ---------------------------------------------------------------------------

class SO7Element:
    """8x8 special orthogonal matrix fixing the octonion unit."""

    __slots__ = ("rows", "exact")

    def __init__(self, rows, validate: bool = True, tol: float = CHECK_TOL):
        if isinstance(rows, np.ndarray):
            self.rows = np.array(rows, dtype=float)
            self.exact = False
        else:
            self.rows = tuple(tuple(Fraction(x) for x in row) for row in rows)
            self.exact = True
        if validate:
            self._validate(tol)

    def _validate(self, tol: float):
        if self.exact:
            m = [list(r) for r in self.rows]
            fixed = all(m[i][0] == (1 if i == 0 else 0) for i in range(8))
            if not fixed or not linalg.is_orthogonal_exact(m):
                raise DegenerateInput("matrix must be orthogonal and fix 1")
            if linalg.det(m) != 1:
                raise DegenerateInput("matrix must have determinant +1")
        else:
            m = self.rows
            if np.max(np.abs(m[:, 0] - np.eye(8)[0])) > tol or \
               np.max(np.abs(m @ m.T - np.eye(8))) > tol:
                raise DegenerateInput("matrix must be orthogonal and fix 1")
            if np.linalg.det(m) < 0:
                raise DegenerateInput("matrix must have determinant +1")

    def apply(self, o: Octonion) -> Octonion:
        return apply_matrix(self.rows, o)

    def inverse_apply(self, o: Octonion) -> Octonion:
        if self.exact:
            return apply_matrix(linalg.mat_transpose(self.rows), o)
        return apply_matrix(self.rows.T, o)

    def compose(self, other: "SO7Element") -> "SO7Element":
        if self.exact and other.exact:
            return SO7Element(linalg.mat_mul(self.rows, other.rows), validate=False)
        return SO7Element(np.asarray(self.as_array() @ other.as_array()),
                          validate=False)

    def as_array(self) -> np.ndarray:
        if isinstance(self.rows, np.ndarray):
            return self.rows
        return linalg.mat_to_float(self.rows)


def conjugation_element(x: Octonion) -> SO7Element:
    """c(x): w -> x w conj(x) / |x|^2, an element of SO(7)."""
    n = x.norm_sq()
    xc = x.conjugate()
    cols = [((x * Octonion.basis(k)) * xc) / n for k in range(8)]
    if x.exact:
        rows = [[cols[j].coords[i] for j in range(8)] for i in range(8)]
        return SO7Element(rows, validate=False)
    return SO7Element(np.array([[float(cols[j].coords[i]) for j in range(8)]
                                for i in range(8)]), validate=False)


Section = Callable[[Octonion], TangentStructure]


def canonical_section() -> Section:
    return canonical_structure_at


def so7_act(a: SO7Element, section: Section) -> Section:
    """(A.J)_p(v) = A J_{A^-1 p}(A^-1 v)."""

    def acted(p: Octonion) -> TangentStructure:
        q = a.inverse_apply(p)
        inner = section(q)
        return TangentStructure(p, lambda v: a.apply(inner.apply(a.inverse_apply(v))))

    return acted


def rp7_section(x: Octonion) -> Section:
    """The constant-octonion section p -> structure of (p, x); x and -x give
    the same section."""
    return lambda p: twistor_evaluate(TwistorPoint(p, x))


_SECTION_POINTS: Optional[List[Octonion]] = None


def section_sample_points() -> List[Octonion]:
    """Fixed deterministic set of 20 exact rational points of the six-sphere
    used for comparing sections.  The compared identities are polynomial of
    low degree in the point, so agreement on this sample (plus the standard
    basis points, which are included) is used as section equality."""
    global _SECTION_POINTS
    if _SECTION_POINTS is None:
        rng = rng_from_seed(0x517E57)
        pts = [Octonion.basis(k) for k in range(1, 8)]
        while len(pts) < 20:
            pts.append(random_rational_imaginary_unit(rng))
        _SECTION_POINTS = pts
    return _SECTION_POINTS


def section_distance(s1: Section, s2: Section,
                     points: Optional[Sequence[Octonion]] = None) -> float:
    pts = section_sample_points() if points is None else points
    return max(s1(p).distance(s2(p)) for p in pts)


def sections_equal(s1: Section, s2: Section,
                   points: Optional[Sequence[Octonion]] = None) -> bool:
    pts = section_sample_points() if points is None else points
    return all(s1(p) == s2(p) for p in pts)


# ---------------------------------------------------------------------------
# companions
# ---------------------------------------------------------------------------

@dataclass
class CompanionResult:
    a: Octonion          # ray representative in exact mode, unit in float
    kernel_dim: int
    residual: float      # max octonion-product residual of the verification


def _companion_system(lam: SO7Element):
    """Stacked 64x8 matrix of the maps u -> lam(e_k u) - lam(e_k) lam(u)."""
    if lam.exact:
        rows: List[List[Fraction]] = []
        lam_m = [list(r) for r in lam.rows]
        for k in range(8):
            lk = left_mult_matrix_exact(Octonion.basis(k))
            a = linalg.mat_mul(lam_m, lk)
            lam_ek = apply_matrix(lam_m, Octonion.basis(k))
            b = linalg.mat_mul(left_mult_matrix_exact(lam_ek), lam_m)
            rows.extend([ra[i] - rb[i] for i in range(8)]
                        for ra, rb in zip(a, b))
        return rows
    m = lam.as_array()
    blocks = []
    for k in range(8):
        lk = left_mult_matrix(Octonion.basis(k))
        lam_ek = m[:, k]
        blocks.append(m @ lk - left_mult_matrix(lam_ek) @ m)
    return np.vstack(blocks)


def isotopy_residual(lam: SO7Element, a: Octonion) -> float:
    """max over basis pairs of | (lam(ei) a)(conj(a) lam(ej)) - |a|^2 lam(ei ej) |."""
    n = a.norm_sq()
    ac = a.conjugate()
    worst = 0.0
    for i in range(8):
        li = lam.apply(Octonion.basis(i))
        for j in range(8):
            lj = lam.apply(Octonion.basis(j))
            lhs = (li * a) * (ac * lj)
            rhs = n * lam.apply(Octonion.basis(i) * Octonion.basis(j))
            worst = max(worst, residual(lhs - rhs))
    return worst


def _isotopy_defect(lam: SO7Element, a: Octonion, i: int, j: int) -> Octonion:
    """(lam(ei) a)(conj(a) lam(ej)) - |a|^2 lam(ei ej): zero for companions."""
    li = lam.apply(Octonion.basis(i))
    lj = lam.apply(Octonion.basis(j))
    return (li * a) * (a.conjugate() * lj) - \
        a.norm_sq() * lam.apply(Octonion.basis(i) * Octonion.basis(j))


def _pencil_candidates(lam: SO7Element, k1: Octonion, k2: Octonion) -> List[Octonion]:
    """Candidate companion preimages on the projective line through two
    kernel vectors.

    The isotopy defect of a = s lam(k1) + t lam(k2) is a homogeneous
    quadratic in (s, t) in every coordinate, and the true companion ray is a
    common root of all of them; so the roots of any one nonzero coordinate
    quadratic (recovered from evaluations at (1,0), (0,1), (1,1)) give at
    most two candidate rays to verify.
    """
    a1, a2 = lam.apply(k1), lam.apply(k2)
    exact = lam.exact and k1.exact and k2.exact
    out: List[Octonion] = []
    for i in range(1, 8):
        for j in range(1, 8):
            ra = _isotopy_defect(lam, a1, i, j).coords
            rc = _isotopy_defect(lam, a2, i, j).coords
            rs = _isotopy_defect(lam, a1 + a2, i, j).coords
            for c in range(8):
                qa, qc = ra[c], rc[c]
                qb = rs[c] - qa - qc
                if exact:
                    if qa == 0 and qb == 0 and qc == 0:
                        continue
                    if qc != 0:
                        disc = qb * qb - 4 * qa * qc
                        root = exact_sqrt(Fraction(disc))
                        if root is None:
                            continue
                        for sgn in (1, -1):
                            t = (-qb + sgn * root) / (2 * qc)
                            out.append(k1 + t * k2)
                    elif qb != 0:
                        out.append(k2)
                        out.append(k1 - (qa / qb) * k2)
                    else:
                        out.append(k2)
                else:
                    qa, qb, qc = float(qa), float(qb), float(qc)
                    lead = max(abs(qa), abs(qb), abs(qc))
                    if lead < PENCIL_LEAD_FLOOR:
                        continue
                    if abs(qc) > PENCIL_COEFF_RTOL * lead:
                        disc = max(qb * qb - 4 * qa * qc, 0.0)
                        for sgn in (1.0, -1.0):
                            t = (-qb + sgn * disc ** 0.5) / (2 * qc)
                            out.append(k1 + t * k2)
                    else:
                        out.append(k2)
                        if abs(qb) > PENCIL_COEFF_RTOL * lead:
                            out.append(k1 - (qa / qb) * k2)
                if out:
                    return out
    return out


def companion(lam: SO7Element, tol: float = CHECK_TOL) -> CompanionResult:
    """The companion octonion of lam, up to sign.

    The defining property phi(x) = lam(x) a with (phi, psi, lam) an isotopy
    triple implies that u = lam^-1(a) satisfies lam(x u) = lam(x) lam(u) for
    every x, a condition linear in u.  We stack the eight basis instances
    into a 64x8 system and take its kernel.  The kernel always also contains
    the trivial vector 1 (and is all of the octonions when lam is an
    automorphism), so when it is larger than a line the companion ray is
    pinned down by solving the quadratic isotopy defect along the kernel,
    and every candidate is verified against the full identity on all 64
    basis pairs before being returned.
    """
    ctx = arithmetic_of(lam)
    ker = ctx.kernel(_companion_system(lam))
    if len(ker) == 0:
        raise KernelDimensionError("companion kernel is zero-dimensional")
    kvecs = [Octonion(v) for v in ker]
    candidates = list(kvecs)
    candidates += [u + v for n, u in enumerate(kvecs) for v in kvecs[n + 1:]]
    for n, u in enumerate(kvecs):
        for v in kvecs[n + 1:]:
            candidates += _pencil_candidates(lam, u, v)
    best = None
    for u in candidates:
        if u.is_zero(CHECK_TOL):
            continue
        a = ctx.ray(lam.apply(u))
        r = isotopy_residual(lam, a)
        if best is None or r < best[1]:
            best = (a, r)
        if ctx.scalar_eq(r, 0, tol):
            return CompanionResult(a, len(ker), float(r))
    if len(ker) > 1:
        raise KernelDimensionError(
            "kernel dimension %d and no vector passes verification" % len(ker))
    raise VerificationFailed(
        "companion candidate fails the isotopy identity (residual %g)" % best[1])


def companions_float_batch(lams: np.ndarray) -> np.ndarray:
    """Vectorized float companions for a batch of SO(7) matrices (N, 8, 8).

    The two smallest eigenvectors of the normal matrix of the companion
    system span the kernel plane (which always contains the trivial vector);
    the companion ray on that plane is the double root of the quadratic
    isotopy defect, solved coordinate-wise.  Intended for large statistical
    sweeps; no per-sample verification (use `companion` for that).
    """
    lams = np.asarray(lams, dtype=float)
    n = lams.shape[0]
    g = np.zeros((n, 8, 8))
    for k in range(8):
        lk = left_mult_matrix(Octonion.basis(k))
        lam_ek = lams[:, :, k]
        lw = np.einsum("ijk,ni->nkj", STRUCTURE_TENSOR, lam_ek)
        mk = lams @ lk - lw @ lams
        g += np.einsum("nki,nkj->nij", mk, mk)
    _, v = np.linalg.eigh(g)
    k1, k2 = v[:, :, 0], v[:, :, 1]
    a1 = np.einsum("nij,nj->ni", lams, k1)
    a2 = np.einsum("nij,nj->ni", lams, k2)

    def defect(a, i, j):
        # (lam(ei) a)(conj(a) lam(ej)) - |a|^2 lam(ei ej), batched
        eiej = (Octonion.basis(i) * Octonion.basis(j)).to_float_array()
        lhs = batch_mul(batch_mul(lams[:, :, i], a),
                        batch_mul(batch_conj(a), lams[:, :, j]))
        nrm = np.sum(a * a, axis=1, keepdims=True)
        return lhs - nrm * np.einsum("nij,j->ni", lams, eiej)

    ra = defect(a1, 1, 2)
    rc = defect(a2, 1, 2)
    rb = defect(a1 + a2, 1, 2) - ra - rc
    # per-sample best-conditioned coordinate of the quadratic pencil
    idx = np.argmax(np.abs(ra) + np.abs(rb) + np.abs(rc), axis=1)
    rows = np.arange(n)
    qa, qb, qc = ra[rows, idx], rb[rows, idx], rc[rows, idx]
    disc = np.sqrt(np.maximum(qb * qb - 4 * qa * qc, 0.0))
    safe_c = np.where(np.abs(qc) > DIVISOR_FLOOR, qc, 1.0)
    best_a = None
    best_res = None
    for t in ((-qb + disc) / (2 * safe_c), (-qb - disc) / (2 * safe_c)):
        u = k1 + t[:, None] * k2
        a = np.einsum("nij,nj->ni", lams, u)
        a /= np.linalg.norm(a, axis=1, keepdims=True)
        res = np.zeros(n)
        for (i, j) in ((1, 4), (2, 4), (3, 5)):
            res = np.maximum(res, np.max(np.abs(defect(a, i, j)), axis=1))
        if best_a is None:
            best_a, best_res = a, res
        else:
            take = res < best_res
            best_a[take] = a[take]
            best_res = np.minimum(best_res, res)
    return best_a


def verify_so7_section_identity(lam: SO7Element, a: Octonion,
                                points: Optional[Sequence[Octonion]] = None) -> float:
    """max distance between (lam . J_canonical) and the constant section of a
    over the sample points."""
    acted = so7_act(lam, canonical_section())
    return section_distance(acted, rp7_section(a), points)


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

    va = x - x.inner(ONE) * ONE - x.inner(p) * p
    if va.is_zero(CHECK_TOL):
        branch_ok = True
    else:
        got_a = acted.apply(va)
        branch_ok = (got_a - p * va).is_zero(CHECK_TOL)
    return CubeReport(bool(m1), bool(m2), bool(branch_ok))


def fiber_count_rp7(x: Octonion, tol: float = CHECK_TOL) -> int:
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
    im = wf[1:]
    s = np.linalg.norm(im)
    if w.exact:
        if all(c == 0 for c in w.coords[1:]):
            raise NonGenericInput("x^6 is real; the fiber is not finite")
    elif s <= tol:
        raise NonGenericInput("x^6 is numerically real; the fiber is not finite")
    axis = im / s
    phi = float(np.arctan2(s, wf[0]))
    sols = []
    for k in range(6):
        alpha = (phi + 2 * np.pi * k) / 6.0
        y = np.concatenate(([np.cos(alpha)], np.sin(alpha) * axis))
        y6 = y
        for _ in range(5):
            y6 = batch_mul(y6, y)
        if np.max(np.abs(y6 - wf)) > ROOT_CHECK_TOL:
            raise VerificationFailed("circle solution fails y^6 = x^6")
        sols.append(y)
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

def random_so7_exact(rng: np.random.Generator, factors: int = 2) -> SO7Element:
    """Product of rational conjugation elements and one exact automorphism
    from a random admissible frame."""
    from .frames import random_g2_matrix
    out = SO7Element(random_g2_matrix(rng), validate=False)
    for _ in range(factors):
        x = random_rational_unit_octonion(rng)
        out = conjugation_element(x).compose(out)
    return out
