"""Per-vector, per-matrix and per-term references the tests compare the
package against: coordinates on the 6-plane of the structure matrices,
J_x, recovery and common lines one structure at a time, float `prop21`,
`octonion-axioms`, `prop31` and `lemma34` one sample at a time on scalar
`Octonion`s, the former companion search (the kernel of the
multiplication defect and quadratic pencils along it) one candidate at a
time on scalar products, the former exact section comparison at the 20
sample points, the former two-call exact draw, substitution in graded
polynomials, and the degree engine's former whole-pass start lattice and
one-target-at-a-time trials.  No command needs them, so they live with the
tests."""

import math
from fractions import Fraction
from itertools import chain, combinations
from typing import Dict, Iterator, List, Optional, Sequence

import numpy as np

from sixsphere import degree, linalg, octonion, suites, twistor
from sixsphere.chern import GradedPoly
from sixsphere.cstruct import (R6_BASIS, ComplexLine, ComplexStructureR6,
                               _e1_left_basis, _left_e1, standard_structure)
from sixsphere.errors import (IdenticalStructures, InvalidStructure,
                              NoCommonLine, NonConvergence, NotUnit,
                              RankError, SixSphereError,
                              UnstablePreimageCount, VerificationFailed)
from sixsphere.octonion import (CHECK_TOL, Octonion, arithmetic_of, normalize,
                               residual)
from sixsphere.sampling import (haar_orthogonal, random_rational_circle_point,
                                random_rational_imaginary_unit,
                                random_rational_tangent,
                                random_rational_unit_octonion,
                                random_unit_octonion_float)


def embed6(v: Sequence) -> Octonion:
    """The octonion with coordinates v along R6_BASIS and 0 on <1, e1>."""
    coords = [0] * 8
    for value, idx in zip(v, R6_BASIS):
        coords[idx] = value
    return Octonion(coords)


def extract6(o: Octonion) -> list:
    """Coordinates of o in the 6-plane basis; the <1, e1> components must
    vanish (exactly in exact mode, up to CHECK_TOL otherwise)."""
    if not arithmetic_of(o).is_zero(o.numerators[:2], CHECK_TOL):
        raise InvalidStructure("vector has components along 1 or e1")
    c = o.coords
    return [c[idx] for idx in R6_BASIS]


def random_lifted(rng: np.random.Generator, n: int, num_max: int = 6,
                  den_max: int = 4):
    """`sampling._random_lifted` as two sized `integers` calls, the n
    numerators and then the n denominators."""
    nums = rng.integers(-num_max, num_max + 1, size=n).tolist()
    dens = rng.integers(1, den_max + 1, size=n).tolist()
    d = math.lcm(*dens)
    return [a * (d // b) for a, b in zip(nums, dens)], d


def substitute(p: GradedPoly, assignment: Dict[str, GradedPoly]) -> GradedPoly:
    """p with polynomials of its ring put in for the named variables."""
    out = p.constant(0)
    for m, c in p.terms.items():
        term = p.constant(c)
        for name, e in zip(p.vars, m):
            if e:
                term = term * assignment.get(name, p.variable(name)) ** e
        out = out + term
    return out


def j_from_octonion(x: Octonion) -> ComplexStructureR6:
    """J_x = R_conj(x) L_e1 R_x / |x|^2 on R6_BASIS, built for one x."""
    ctx = arithmetic_of(x)
    n = x.norm_sq()
    if ctx.zero_norm(n):
        raise NotUnit("x must be nonzero")
    r = ctx.right(ctx.points([x]))
    a, d = ctx.scaled(ctx.product(ctx.transpose(r), _left_e1(ctx), r), n)
    a = a.reshape(8, 8)[np.ix_(R6_BASIS, R6_BASIS)]
    return ComplexStructureR6._trusted((a, d), ctx)


def recover(j: ComplexStructureR6):
    """(x, J_x) for one structure: the kernel of its 48x8 recovery system
    through `Arithmetic.kernel`, as octonions."""
    ctx = arithmetic_of(j)
    a, d = j.m
    jv = np.zeros((6, 8), a.dtype)
    jv[:, R6_BASIS] = a.T
    diff = ctx.difference(ctx.left((jv, d)), _e1_left_basis(ctx))
    ker = ctx.kernel(diff.reshape(48, 8))
    if len(ker) != 2:
        raise RankError("solutions of J(v) x = e1 (v x) span dimension %d, "
                        "expected 2" % len(ker))
    k1, k2 = ker
    y = k2.inner(ctx.e1) * k1 - k1.inner(ctx.e1) * k2
    x = k1 if ctx.zero_norm(y.norm_sq()) else y
    x = x if ctx.exact else normalize(x)
    jx = j_from_octonion(x)
    if not ctx.agree(jx, j, CHECK_TOL):
        raise VerificationFailed("recovered x does not reproduce J")
    return x, jx


def _kernel6(ctx, m) -> List[Octonion]:
    """A basis of the right kernel of a 6x6 matrix (numerators, for EXACT)
    as octonions on R6_BASIS, 0 on <1, e1>: the basis `Arithmetic.kernel`
    takes from an 8-column matrix, placed by hand."""
    if ctx.exact:
        (vs, d), = ctx.kernels([m])
        make = lambda v: Octonion.from_lifted(v, d)  # noqa: E731
    else:
        vs, make = linalg.kernel_basis_float(m), Octonion
    placed = np.zeros((len(vs), 8), vs.dtype)
    placed[:, R6_BASIS] = vs
    return [make(v) for v in placed.tolist()]


def common_line(j1: ComplexStructureR6, j2: ComplexStructureR6) -> ComplexLine:
    """The common line of two structures, from the kernel of their
    difference (see `_kernel6`) and `SquareMatrix.apply`."""
    if j1 == j2:
        raise IdenticalStructures("every line is common to identical structures")
    ctx = arithmetic_of(j1, j2)
    ker = _kernel6(ctx, ctx.difference(ctx.pair(j1), ctx.pair(j2)))
    if len(ker) == 0:
        raise NoCommonLine("distinct orthogonal structures must share a line")
    if len(ker) != 2:
        raise RankError("agreement space has dimension %d, expected 2" % len(ker))
    u = ker[0] if ctx.exact else normalize(ker[0])
    return ComplexLine(u, j1.apply(u))


def prop21_float(samples: int, seed: int, tol: float):
    """Float `prop21` one sample at a time: (checked, failures, worst
    residual).  The 2n structures come from the suite's batched Haar draw,
    each through the validating constructor; each sample runs the
    references above on its own two structures."""
    run = suites._Run(samples, "float", seed, tol, None)
    q = haar_orthogonal(run.rng, 6, 2 * samples)
    std = standard_structure(exact=False).as_array()
    js = [ComplexStructureR6(m) for m in q @ std @ q.swapaxes(-1, -2)]

    def checks(j1, j2):
        if j1 == j2:
            return
        line = common_line(j1, j2)
        u, ju = line.u, line.ju
        r = max(residual(ju - j2.apply(u)), residual(j1.apply(ju) - j2.apply(ju)))
        run.within("common-line", r, j1=j1, j2=j2)
        jx = recover(j1)[1]
        run.within("float-recover", jx.distance(j1), j=j1)

    for j1, j2 in run.each(zip(js[::2], js[1::2])):
        run.attempt("sample-error", lambda: checks(j1, j2), j1=j1, j2=j2)
    return run.checked, run.failures, run.worst


def all_parenthesizations(word, letters, memo):
    """The products of the letters spelt by word under every bracketing,
    split point by split point.  Each sub-word's list is built once and
    kept in memo, keyed by the word: the 28 words of
    `suites._words_up_to_4` then take 100 products instead of 276."""
    if len(word) == 1:
        return [letters[word[0]]]
    out = memo.get(word)
    if out is None:
        out = memo[word] = [l * r for cut in range(1, len(word))
                            for l in all_parenthesizations(word[:cut], letters, memo)
                            for r in all_parenthesizations(word[cut:], letters, memo)]
    return out


def octonion_axioms(samples: int, mode: str, seed: int, tol: float):
    """`octonion-axioms` one sample at a time on scalar `Octonion`s:
    (checked, failures, worst residual, None in exact mode).  Each float
    difference is measured as it is tested; the two-generator check
    measures every bracketing of a sample and fails it once."""
    run = suites._Run(samples, mode, seed, tol, None)

    def unit():
        if mode == "exact":
            return random_rational_unit_octonion(run.rng)
        return random_unit_octonion_float(run.rng)

    def zero(d):
        if mode == "float":
            run.measure(residual(d))
        return d.is_zero(tol)

    for _ in run.each(range(samples)):
        x, y = unit(), unit()
        bad = []
        nxy, nx_ny = (x * y).norm_sq(), x.norm_sq() * y.norm_sq()
        run.measure(abs(float(nxy) - float(nx_ny)))
        if not arithmetic_of(x, y).scalar_eq(nxy, nx_ny, tol):
            bad.append("norm multiplicativity")
        if not zero(x * (x * y) - (x * x) * y):
            bad.append("left alternativity")
        if not zero((y * x) * x - y * (x * x)):
            bad.append("right alternativity")
        if not zero((x * y).conjugate() - y.conjugate() * x.conjugate()):
            bad.append("conjugation anti-automorphism")
        if not zero(x * x.inverse() - Octonion.one()):
            bad.append("inverse")
        if not zero(x.conjugate() - (2 * x.inner(Octonion.one()) * Octonion.one() - x)):
            bad.append("conjugation formula")
        if bad:
            run.fail("laws", x=x, y=y, laws=bad)

    run.checked += 1
    if not any((Octonion.basis(i) * Octonion.basis(j)) * Octonion.basis(k)
               != Octonion.basis(i) * (Octonion.basis(j) * Octonion.basis(k))
               for i in range(1, 8) for j in range(1, 8) for k in range(1, 8)):
        run.fail("non-associativity-witness", found=0)

    for _ in run.each(range(max(10, samples // 10))):
        x, y = unit(), unit()
        memo: dict = {}
        ok = True
        for w in suites._words_up_to_4():
            first, *rest = all_parenthesizations(w, (y, x), memo)
            for v in rest:
                ok = zero(v - first) and ok
        if not ok:
            run.fail("laws", x=x, y=y, laws=["two-generator associativity"])
    return run.checked, run.failures, run.worst if mode == "float" else None


def prop31(samples: int, seed: int):
    """`prop31` one sample at a time on scalar `Octonion`s: (checked,
    failures)."""
    run = suites._Run(samples, "exact", seed, 0.0, None)
    rng = run.rng
    for n in run.each(range(samples)):
        p = random_rational_imaginary_unit(rng)
        x = random_rational_unit_octonion(rng)
        c, s = random_rational_circle_point(rng)
        v = random_rational_tangent(rng, p)
        z = c * Octonion.one() + s * p
        x2 = z * x
        lhs = (p * (v * x2)) * x2.conjugate()
        rhs = (p * (v * x)) * x.conjugate() * (x2.norm_sq() / x.norm_sq())
        if not (lhs - rhs).is_zero():
            run.fail("vector-level", p=p, x=x, cos=c, sin=s, v=v)
        if n % 10 == 0:
            run.checked += 1
            t0 = twistor.TwistorPoint(p, x)
            if twistor.twistor_evaluate(t0) != twistor.twistor_evaluate(t0.phase_shift(c, s)):
                run.fail("structure-level", p=p, x=x, cos=c, sin=s)
    return run.checked, run.failures


def lemma34(samples: int, seed: int):
    """`lemma34` one sample at a time on scalar `Octonion`s: (checked,
    failures)."""
    run = suites._Run(samples, "exact", seed, 0.0, None)
    for _ in run.each(range(samples)):
        c2, s2 = random_rational_circle_point(run.rng)
        p = random_rational_imaginary_unit(run.rng)
        half = c2 * Octonion.one() + s2 * p
        full = (c2 * c2 - s2 * s2) * Octonion.one() + (2 * c2 * s2) * p
        if half * half != full:
            run.fail("double-angle", cos_half=c2, sin_half=s2, p=p)
    return run.checked, run.failures


def images(lam) -> List[Octonion]:
    """lam(e_0), ..., lam(e_7): the columns of lam's pair, in lam's mode."""
    a, d = lam.m
    return [octonion._reduced(c, d) if lam.exact else octonion._floats(c)
            for c in a.T.tolist()]


def isotopy_residual(lam, a: Octonion, tol: float) -> float:
    """`twistor.isotopy_residual` of one candidate on scalar `Octonion`
    products: the pairs row by row (i, then j), conj(a) and |a|^2 once,
    lam(ei) a once per row, conj(a) lam(ej) and |a|^2 lam(ek) on first use;
    the first defect that fails lam's test against tol, else the max."""
    imgs, ctx, worst = images(lam), arithmetic_of(lam), 0.0
    ac, n = a.conjugate(), a.norm_sq()
    rights: List[Optional[Octonion]] = [None] * 8   # conj(a) lam(ej)
    scaled: List[Optional[Octonion]] = [None] * 8   # |a|^2 lam(ek)
    for i in range(8):
        left = imgs[i] * a
        for j in range(8):
            if rights[j] is None:
                rights[j] = ac * imgs[j]
            k = octonion.MUL_INDEX[i][j]
            if scaled[k] is None:
                scaled[k] = n * imgs[k]
            # lam(ei ej) = MUL_SIGN[i][j] lam(ek)
            prod = left * rights[j]
            d = prod - scaled[k] if octonion.MUL_SIGN[i][j] > 0 else prod + scaled[k]
            r = residual(d)
            if not ctx.scalar_eq(r, 0, tol):
                return r
            worst = max(worst, r)
    return worst


#: float pencil coordinates whose largest coefficient is below this are skipped
PENCIL_LEAD_FLOOR = 1e-9
#: size, relative to the largest one, under which a pencil coefficient is zero
PENCIL_COEFF_RTOL = 1e-12


class KernelDimensionError(SixSphereError):
    """The kernel route's companion kernel has dimension 0, or more than 1
    with no vector passing verification."""


def _isotopy_defect(imgs: List[Octonion], a: Octonion, i: int, j: int) -> Octonion:
    """(lam(ei) a)(conj(a) lam(ej)) - |a|^2 lam(ei ej): zero for companions."""
    return (imgs[i] * a) * (a.conjugate() * imgs[j]) - \
        a.norm_sq() * (octonion.MUL_SIGN[i][j] * imgs[octonion.MUL_INDEX[i][j]])


def _pencil_candidates(lam, k1: Octonion, k2: Octonion) -> Iterator[Octonion]:
    """Candidate companion preimages on the projective line through two
    kernel vectors.

    The isotopy defect of a = s lam(k1) + t lam(k2) is a homogeneous
    quadratic in (s, t) in every coordinate, and the true companion ray is a
    common root of all of them; so the roots of any one nonzero coordinate
    quadratic (recovered from evaluations at (1,0), (0,1), (1,1)) give at
    most two candidate rays to verify.  A coefficient is zero by the test of
    the context, relative to the largest one; in exact mode a quadratic
    without rational roots gives none (a float one takes a negative
    discriminant as 0).  The three defects are read as numerators over one
    denominator, their lcm (1 for floats): scaling a quadratic leaves its
    roots, rationals in exact mode, as they are.
    """
    imgs, ctx = images(lam), arithmetic_of(lam, k1, k2)
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
                    disc = qb * qb - 4 * qa * qc
                    root = (octonion.exact_sqrt(disc) if ctx.exact
                            else max(disc, 0.0) ** 0.5)
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


def companion(lam, tol: float = CHECK_TOL) -> twistor.CompanionResult:
    """The companion by the kernel route, one candidate at a time: u =
    lam^-1(a) satisfies lam(x u) = lam(x) lam(u) for every x, so the
    candidates are the kernel vectors of the 64x8 multiplication defect,
    then the pencil roots of each pair of them, each verified on its own by
    the scalar `isotopy_residual` above; the first that passes is
    returned, with the kernel's dimension."""
    ctx = arithmetic_of(lam)
    ker = ctx.kernel(octonion.multiplication_defect(lam.m)[0])
    if len(ker) == 0:
        raise KernelDimensionError("companion kernel is zero-dimensional")
    candidates = chain(ker, chain.from_iterable(
        _pencil_candidates(lam, u, v) for u, v in combinations(ker, 2)))
    for u in candidates:
        if u.is_zero(CHECK_TOL):
            continue
        a = lam.apply(u)
        a = a if ctx.exact else normalize(a)
        r = isotopy_residual(lam, a, tol)
        if ctx.scalar_eq(r, 0, tol):
            return twistor.CompanionResult(a, len(ker), float(r))
    if len(ker) > 1:
        raise KernelDimensionError(
            "kernel dimension %d and no vector passes verification" % len(ker))
    raise VerificationFailed(
        "companion candidate fails the isotopy identity (defect %g)" % r)


# ---------------------------------------------------------------------------
# the degree engine, one pass and one target at a time
# ---------------------------------------------------------------------------

def lattice01(n: int, dim: int, rng: np.random.Generator) -> np.ndarray:
    """The former whole Kronecker lattice: n rows, jitter drawn here."""
    alphas = np.sqrt(np.array(degree._PRIMES[:dim], dtype=float))
    k = np.arange(1, n + 1)[:, None]
    return np.modf(k * alphas[None, :] + rng.uniform(0.0, 1.0, size=dim))[0]


def start_points(family, n_starts: int, rng: np.random.Generator) -> np.ndarray:
    """The former `_start_points`: all n_starts starts of a pass at once,
    drawing the sphere lattice's jitter, then the theta lattice's."""
    dim = 8 - family.lead
    npairs = (dim + 1) // 2
    u = lattice01(n_starts, 2 * npairs, rng)
    r = np.sqrt(-2.0 * np.log(np.maximum(u[:, :npairs], 1e-12)))
    ang = 2.0 * np.pi * u[:, npairs:]
    z = np.concatenate([r * np.cos(ang), r * np.sin(ang)], axis=1)[:, :dim]
    p = z / np.linalg.norm(z, axis=1, keepdims=True)
    if not family.lead:
        return p
    thetas = 0.05 + (2.0 * np.pi - 0.1) * lattice01(len(p), 1, rng)[:, 0]
    return np.column_stack([thetas, p])


def count_at(family, target, cfg, rng, resamples, two_pass=True):
    """The former `_count_at`: one target's passes run alone, round after
    round, then counted; raises the error the target resamples on."""
    attempt = degree._Attempt(family, cfg, rng, two_pass, target=target)
    while not attempt.ran:
        degree._round(family, [p for p in attempt.passes if not p.done])
    attempt.settle()
    if isinstance(attempt.outcome, Exception):
        raise attempt.outcome
    attempt.outcome.resamples = resamples
    return attempt.outcome


def trial(family, cfg, rng, two_pass=True):
    """The former `_trial`: targets drawn and counted one after another
    until one is counted, raising after MAX_RESAMPLE resamples."""
    resamples = 0
    while True:
        target = degree._sample_target(family, rng)
        try:
            return count_at(family, target, cfg, rng, resamples, two_pass)
        except (NonConvergence, UnstablePreimageCount):
            resamples += 1
            if resamples > degree.MAX_RESAMPLE:
                raise


def sequential_trials(family, cfg, rng, two_pass):
    """A level as the former `_trials` ran it: one trial after another."""
    return [trial(family, cfg, rng, two_pass) for _ in range(cfg.trials)]
