"""Named verification suites producing deterministic machine-readable reports.

Each suite draws all randomness from one 64-bit seed and runs a configurable
number of samples in exact-rational or float arithmetic.  A failed check is
one failure entry: its `kind`, then the sample's inputs as strings (octonions
and matrices as their `to_strings()`, which `from_strings` reads back) and
any residual or error.  Exact-mode failures are genuine; float-mode checks
compare residuals against the tolerance.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import cache
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from . import chern, cstruct, degree as deg, homotopy, twistor
from .errors import (BadConfig, DegenerateInput, DegenerateX, SixSphereError,
                     UnknownSuite)
from .frames import random_g2_matrix
from .octonion import (_CONJ, CHECK_TOL, EXACT, FLOAT, FLOAT_EQ_TOL,
                       SEPARATION_TOL, Octonion, SquareMatrix, batch_mul,
                       inner_rows)
from .sampling import (random_imaginary_unit_float,
                       random_rational_circle_point,
                       random_rational_imaginary_unit,
                       random_rational_tangent,
                       random_rational_unit_octonion, random_so7_float,
                       random_unit_vector, rng_from_seed)


@dataclass
class SuiteReport:
    suite: str
    mode: str
    samples: int
    seed: int
    tolerance: float
    checked: int
    failures: List[dict]
    max_residual: Optional[float]
    elapsed_ms: float

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return asdict(self)


class _Run:
    """One run of a suite: its samples, mode, seed, tolerance and table, the
    rng drawn from the seed, the checks counted so far, the worst float
    residual measured and the failure entries, every one made by `fail`."""

    def __init__(self, samples: int, mode: str, seed: int, tol: float,
                 table: Optional[homotopy.Pi7Table]):
        self.samples, self.mode, self.seed, self.tol = samples, mode, seed, tol
        self.table = table
        self.rng = rng_from_seed(seed)
        self.checked = 0
        self.worst: Optional[float] = 0.0
        self.failures: List[dict] = []

    def each(self, items):
        """The items, counting one check for each."""
        for item in items:
            self.checked += 1
            yield item

    def measure(self, r: float) -> None:
        """Keep r if it is the worst float residual so far."""
        self.worst = max(self.worst, r)

    def units(self, count: int):
        """`count` random unit octonions in the run's mode, in the order
        drawn: the (count, 8) array of their numerators (an exact row over
        its octonion's denominator) and a function giving the i-th as an
        octonion.  Exact ones are drawn one at a time, float ones in one
        batch of the same stream."""
        if self.mode == "exact":
            os = [random_rational_unit_octonion(self.rng) for _ in range(count)]
            return EXACT.points(os)[0].reshape(count, 8), os.__getitem__
        rows = random_unit_vector(self.rng, 8, count)
        return rows, lambda i: Octonion(rows[i])

    def zeros(self, d: np.ndarray) -> np.ndarray:
        """Which rows of the differences d (..., 8) are zero: every entry 0
        in exact mode; in float mode the largest within the tolerance, after
        measuring the rows' residuals.  A float row that is not finite (a
        product overflowed) raises `DegenerateInput`, as an overflowed float
        octonion does."""
        if self.mode == "exact":
            return (d == 0).all(axis=-1)
        r = np.abs(d).max(axis=-1)
        if not np.isfinite(r).all():
            raise DegenerateInput("octonion coordinates must be finite")
        self.measure(float(r.max(initial=0.0)))
        return r <= self.tol

    def within(self, kind: str, r: float, **inputs) -> None:
        """Measure the float residual r; above the tolerance it is a
        failure entry."""
        self.measure(r)
        if r > self.tol:
            self.fail(kind, residual=r, **inputs)

    def fail(self, kind: str, **inputs) -> None:
        """Record one failure entry: `kind`, then each input, an octonion or
        a matrix as its `to_strings()` (a float matrix given as its array
        written the same way), a Fraction as its string and anything else
        as it is."""
        entry = {"kind": kind}
        for k, v in inputs.items():
            if isinstance(v, (Octonion, SquareMatrix)):
                v = v.to_strings()
            elif isinstance(v, np.ndarray):
                v = [[str(x) for x in row] for row in v]
            elif isinstance(v, Fraction):
                v = str(v)
            entry[k] = v
        self.failures.append(entry)

    def attempt(self, kind: str, call: Callable, **inputs):
        """`call()`, or None after recording the library error it raises as
        a `kind` entry with the error and the sample's `inputs`.  Any other
        exception propagates."""
        try:
            return call()
        except SixSphereError as e:
            self.fail(kind, error=str(e), **inputs)
            return None


#: suite name -> function (samples, mode, seed, tol, table=None) returning
#: (checked, failures, worst residual), in declaration order
SUITES: Dict[str, Callable] = {}
#: suite name -> sample count when none is given
DEFAULT_SAMPLES: Dict[str, int] = {}
#: the arithmetic modes each suite runs in; asked for another, it runs in the first
MODES: Dict[str, Tuple[str, ...]] = {}


def _suite(name: str, samples: int, *modes: str):
    """Register the decorated function of a `_Run` as the suite `name`,
    with its default sample count and its modes."""
    def register(fn: Callable) -> Callable:
        def suite(samples, mode, seed, tol, table=None):
            run = _Run(samples, mode, seed, tol, table)
            fn(run)
            return run.checked, run.failures, run.worst
        SUITES[name] = suite
        DEFAULT_SAMPLES[name] = samples
        MODES[name] = modes
        return fn
    return register


# ---------------------------------------------------------------------------
# algebra suites
# ---------------------------------------------------------------------------

@_suite("octonion-axioms", 300, "exact", "float")
def _suite_octonion_axioms(run: _Run):
    # every sample at once, as rows: sample i draws x, y in that order
    n = run.samples
    rows, unit = run.units(2 * n)
    x, y = rows.reshape(n, 2, 8).swapaxes(0, 1)
    run.checked += n
    bad: List[list] = [[] for _ in range(n)]
    for name, d in _axiom_laws(x, y).items():
        for i in np.flatnonzero(~run.zeros(d)):
            bad[i].append(name)
    for i, laws in enumerate(bad):
        if laws:
            run.fail("laws", x=unit(2 * i), y=unit(2 * i + 1), laws=laws)

    # associativity fails somewhere: scan the generated table for a witness
    run.checked += 1
    if not any((Octonion.basis(i) * Octonion.basis(j)) * Octonion.basis(k)
               != Octonion.basis(i) * (Octonion.basis(j) * Octonion.basis(k))
               for i in range(1, 8) for j in range(1, 8) for k in range(1, 8)):
        run.fail("non-associativity-witness", found=0)

    # two-generator (Artin) associativity on degree <= 4 words, smaller sweep
    m = max(10, n // 10)
    rows, unit = run.units(2 * m)
    x, y = rows.reshape(m, 2, 8).swapaxes(0, 1)
    run.checked += m
    d = _artin_differences(x, y).swapaxes(0, 1)  # sample, bracketing, coords
    for i in np.flatnonzero(~run.zeros(d).all(axis=-1)):
        run.fail("laws", x=unit(2 * i), y=unit(2 * i + 1),
                 laws=["two-generator associativity"])


#: the real unit 1 as a row of coordinates
_ONE = np.eye(1, 8, dtype=int)[0]


def _axiom_laws(x, y) -> Dict[str, np.ndarray]:
    """Law name -> left side minus right side, row by row, for (n, 8)
    arrays of floats or of exact numerators (see `_moufang_laws`); norm
    multiplicativity is an (n, 1) column.  The products take two stacked
    `batch_mul` calls: those of x and y, then those with their results.
    Float rows invert x as `Octonion.inverse` does, x-bar / |x|^2; exact
    ones (an object array) compare x x-bar with |x|^2 1, both over the
    square of x's denominator."""
    exact = x.dtype == object
    xc, yc = x * _CONJ, y * _CONJ
    nx = inner_rows(x, x)[:, None]
    xy, xx, yx, yc_xc, x_inv = batch_mul(
        np.stack([x, x, y, yc, x]),
        np.stack([y, x, x, xc, xc if exact else xc / nx]))
    x_xy, xx_y, yx_x, y_xx = batch_mul(np.stack([x, xx, yx, y]),
                                       np.stack([xy, y, x, xx]))
    return {
        "norm multiplicativity":
            (inner_rows(xy, xy) - nx[:, 0] * inner_rows(y, y))[:, None],
        "left alternativity": x_xy - xx_y,
        "right alternativity": yx_x - y_xx,
        "conjugation anti-automorphism": xy * _CONJ - yc_xc,
        "inverse": x_inv - nx * _ONE if exact else x_inv - _ONE,
        "conjugation formula": xc - (2 * x[:, :1] * _ONE - x),
    }


def _words_up_to_4():
    """The 28 words of length 2 to 4 in two letters, as tuples of letter
    indices: 1 for x, 0 for y."""
    return [tuple((bits >> i) & 1 for i in range(n))
            for n in (2, 3, 4) for bits in range(2 ** n)]


@cache
def _bracketing_plan():
    """The products of the two-generator check, level by level.  Operands
    0 and 1 are the letters y and x; level L lists, for each word of length
    L of `_words_up_to_4` in its order, the (left, right) operand indices of
    each of its bracketings, split point by split point, and its products
    are the next operands.  Each sub-word's bracketings are computed once,
    in its own level: the 28 words take 4 + 16 + 80 = 100 products.
    Returns the levels, as pairs of index arrays, and the operand indices
    of each word's bracketings."""
    at = {(0,): [0], (1,): [1]}  # word -> the operands of its bracketings
    levels: List[Tuple[list, list]] = []
    size = 2
    for w in _words_up_to_4():
        if len(levels) < len(w) - 1:
            levels.append(([], []))
        left, right = levels[-1]
        at[w] = []
        for cut in range(1, len(w)):
            for a in at[w[:cut]]:
                for b in at[w[cut:]]:
                    left.append(a)
                    right.append(b)
                    at[w].append(size)
                    size += 1
    return (tuple((np.array(a), np.array(b)) for a, b in levels),
            tuple(tuple(at[w]) for w in _words_up_to_4()))


def _artin_differences(x, y) -> np.ndarray:
    """Each bracketing of each word of `_words_up_to_4` in y and x minus the
    word's first bracketing, for (m, 8) rows of floats or of exact
    numerators: (72, m, 8), words in order and bracketings in the plan's
    order, from one `batch_mul` per word length.  The bracketings of a word
    multiply the same factors, so exact rows share a denominator."""
    levels, words = _bracketing_plan()
    vals = np.stack([y, x])
    for a, b in levels:
        vals = np.concatenate([vals, batch_mul(vals[a], vals[b])])
    later = [k for ks in words for k in ks[1:]]
    first = [ks[0] for ks in words for _ in ks[1:]]
    return vals[later] - vals[first]


@_suite("moufang", 300, "exact", "float")
def _suite_moufang(run: _Run):
    # every sample at once, as rows: sample i draws x, y, z in that order
    n = run.samples
    rows, unit = run.units(3 * n)
    x, y, z = rows.reshape(n, 3, 8).swapaxes(0, 1)
    run.checked += n
    bad: List[list] = [[] for _ in range(n)]
    for name, d in _moufang_laws(x, y, z).items():
        for i in np.flatnonzero(~run.zeros(d)):
            bad[i].append(name)
    for i, laws in enumerate(bad):
        if laws:
            run.fail("laws", x=unit(3 * i), y=unit(3 * i + 1),
                     z=unit(3 * i + 2), laws=laws)


def _moufang_laws(x, y, z) -> Dict[str, np.ndarray]:
    """Law name -> left side minus right side, row by row, for (n, 8)
    arrays of floats or of exact numerators: one `batch_mul` per product,
    16 in all.  The two sides of a law multiply the same factors, so exact
    rows share a denominator and their numerators decide."""
    m = batch_mul
    xy, zx = m(x, y), m(z, x)  # each shared by two laws
    return {
        "(xy)(zx) = x((yz)x)": m(xy, zx) - m(x, m(m(y, z), x)),
        "x(y(xz)) = ((xy)x)z": m(x, m(y, m(x, z))) - m(m(xy, x), z),
        "((zx)y)x = z(x(yx))": m(m(zx, y), x) - m(z, m(x, m(y, x))),
    }


# ---------------------------------------------------------------------------
# complex-structure suites
# ---------------------------------------------------------------------------

@_suite("prop21", 100, "exact", "float")
def _suite_prop21(run: _Run):
    if run.mode == "float":
        _prop21_float(run)
        return
    rng = run.rng
    for _ in run.each(range(run.samples)):
        x = random_rational_unit_octonion(rng)
        c, s = random_rational_circle_point(rng)
        y = random_rational_unit_octonion(rng)
        run.attempt("sample-error",
                    lambda: _prop21_exact_checks(run, x, c, s, y),
                    x=x, cos=c, sin=s, y=y)


def _prop21_exact_checks(run: _Run, x, c, s, y):
    """Recovery, phase invariance, the equivalence classification and the
    block form of J_x, for x, the circle point (c, s) and y."""
    r = cstruct.recover_x(cstruct.j_from_octonion(x))
    if not cstruct.equivalent(r, x):
        run.fail("round-trip", x=x, recovered=r)
    shifted = (c * Octonion.one() + s * Octonion.basis(1)) * x
    if not cstruct.equivalent(x, shifted):
        run.fail("phase-equivalence", x=x, cos=c, sin=s)
    w = y * x.conjugate()
    in_span = not any(w.numerators[2:])
    if cstruct.equivalent(x, y) != in_span:
        run.fail("equivalence-classification", x=x, y=y)
    try:
        cstruct.quaternion_coordinate_form(x)
    except DegenerateX:
        pass
    except SixSphereError as e:  # block certification raises on failure
        run.fail("block-decomposition", x=x, error=str(e))


def _prop21_float(run: _Run):
    """The common line of two float structures and the recovery of the
    first, for every sample at once: both structures of every sample come
    from one certified draw, each kernel is one batched SVD over the
    samples, and the residuals are measured row by row.  A structure that
    fails certification, or a row's error in a stacked call, is its
    sample's `sample-error`, and a library error that a stacked call raises
    is the entry of each of its samples; identical structures are skipped."""
    n = run.samples
    a, drawn = cstruct.draw_structures(run.rng, 2 * n)
    run.checked += n
    a1, a2 = a[0::2], a[1::2]
    bad = [drawn[2 * i] or drawn[2 * i + 1] for i in range(n)]
    same = FLOAT.equal_each((a1, 1.0), (a2, 1.0), FLOAT_EQ_TOL)
    rows = [i for i in range(n) if not bad[i] and not same[i]]
    p1, p2 = (a1[rows], 1.0), (a2[rows], 1.0)
    line, line_errors = _stacked(
        lambda: cstruct.common_line_each(FLOAT, p1, p2), len(rows))
    if line:
        (u, _), (ju, _) = line

        def image(p, v):
            return cstruct.apply_each(FLOAT, p, (v, 1.0))[0]

        line_r = np.maximum(np.abs(ju - image(p2, u)).max(-1),
                            np.abs(image(p1, ju) - image(p2, ju)).max(-1))
    rec, rec_errors = _stacked(lambda: cstruct.recover_each(FLOAT, p1),
                               len(rows))
    if rec:
        rec_r = FLOAT.distances(rec[1], p1)
    at = dict(zip(rows, range(len(rows))))
    for i in range(n):
        inputs = dict(j1=a1[i], j2=a2[i])
        if bad[i]:
            run.fail("sample-error", error=bad[i], **inputs)
            continue
        if i not in at:
            continue
        k = at[i]
        if line_errors[k]:
            run.fail("sample-error", error=str(line_errors[k]), **inputs)
            continue
        run.within("common-line", float(line_r[k]), **inputs)
        if rec_errors[k]:
            run.fail("sample-error", error=str(rec_errors[k]), **inputs)
            continue
        run.within("float-recover", float(rec_r[k]), j=a1[i])


def _stacked(call: Callable, rows: int):
    """call()'s results and its list of row errors; when it raises a library
    error, None and that error for each of its rows."""
    try:
        *results, errors = call()
    except SixSphereError as e:
        return None, [e] * rows
    return results, errors


@_suite("lemma22", 1, "exact")
def _suite_lemma22(run: _Run):
    res = chern.euler_number_normal_bundle()
    tensor = chern.tensor_line_chern()
    expected = {
        "tensor c2": (tensor.rendered, "c1(L)^2 + c1(L)*c1(E) + c2(E)"),
        "c1 complement": (res.c1_complement.render(), "-a"),
        "c2 complement": (res.c2_complement.render(), "a^2"),
        "c2 normal": (res.c2_normal.render(), "a^2"),
        "euler number": (res.euler_number, 1),
    }
    for name, (got, want) in run.each(expected.items()):
        if got != want:
            run.fail(name, got=got, expected=want)
    total = chern.ring([("a", 2)], truncation=4)
    line = total["one"] + total["a"]
    prod = chern.whitney_complement(line, 2) * line
    run.checked += 1
    if prod != total["one"]:
        run.fail("whitney product", got=prod.render())


@_suite("prop31", 300, "exact")
def _suite_prop31(run: _Run):
    rng = run.rng
    draws = []
    for _ in range(run.samples):
        p = random_rational_imaginary_unit(rng)
        x = random_rational_unit_octonion(rng)
        c, s = random_rational_circle_point(rng)
        draws.append((p, x, c, s, random_rational_tangent(rng, p)))
    vector_ok = _prop31_vector_level(*zip(*draws)) if draws else []
    for n in run.each(range(run.samples)):
        p, x, c, s, v = draws[n]
        if not vector_ok[n]:
            run.fail("vector-level", p=p, x=x, cos=c, sin=s, v=v)
        if n % 10 == 0:
            run.checked += 1
            t0 = twistor.TwistorPoint(p, x)
            if twistor.twistor_evaluate(t0) != twistor.twistor_evaluate(t0.phase_shift(c, s)):
                run.fail("structure-level", p=p, x=x, cos=c, sin=s)


def _prop31_vector_level(p, x, c, s, v) -> np.ndarray:
    """Whether (p(v x2)) conj(x2) = (p(v x)) conj(x) |x2|^2 / |x|^2 for
    x2 = (c + s p) x, sample by sample, for the samples' octonions p, x, v
    and Fractions c, s: on numerators, through 4 `batch_mul` calls that
    stack the two sides, with |x2|^2 / |x|^2 cross-multiplied.  The two
    sides multiply the same factors, so their denominators cancel."""
    (pn, pd), (xn, _), (vn, _) = _points(p), _points(x), _points(v)
    x2 = batch_mul(_real_plus_p(c, s, pn, pd)[0], xn)
    both = np.stack([x2, xn])
    lhs, rhs = batch_mul(batch_mul(pn, batch_mul(vn, both)), both * _CONJ)
    return (lhs * inner_rows(xn, xn)[:, None]
            == rhs * inner_rows(x2, x2)[:, None]).all(axis=-1)


def _points(os):
    """The numerators (n, 8) and the denominators (n, 1) of exact octonions,
    object arrays of ints."""
    v, d = EXACT.points(os)
    return v.reshape(-1, 8), d.reshape(-1, 1)


def _fractions(fs):
    """The numerators and the denominators (n, 1) of Fractions, object
    arrays of ints."""
    return (np.array([f.numerator for f in fs], dtype=object).reshape(-1, 1),
            np.array([f.denominator for f in fs], dtype=object).reshape(-1, 1))


def _real_plus_p(a, b, pn, pd):
    """a + b p for each sample's Fractions a, b and imaginary unit p, given
    by its numerators pn (n, 8) over pd (n, 1): numerators (n, 8) over
    denominators (n, 1), not reduced."""
    (an, ad), (bn, bd) = _fractions(a), _fractions(b)
    return an * bd * pd * _ONE + bn * ad * pn, ad * bd * pd


@_suite("lemma34", 300, "exact")
def _suite_lemma34(run: _Run):
    draws = []
    for _ in range(run.samples):
        c2, s2 = random_rational_circle_point(run.rng)
        draws.append((c2, s2, random_rational_imaginary_unit(run.rng)))
    c2, s2, p = zip(*draws) if draws else ((), (), ())
    pn, pd = _points(p)
    half, dh = _real_plus_p(c2, s2, pn, pd)
    full, df = _real_plus_p([c * c - s * s for c, s in zip(c2, s2)],
                            [2 * c * s for c, s in zip(c2, s2)], pn, pd)
    # half * half = full, the denominators cross-multiplied
    ok = (batch_mul(half, half) * df == full * dh * dh).all(axis=-1)
    for i in np.flatnonzero(~ok):
        run.fail("double-angle", cos_half=c2[i], sin_half=s2[i], p=p[i])
    run.checked += run.samples


@_suite("thm33-lift", 200, "exact")
def _suite_thm33_lift(run: _Run):
    rng = run.rng
    for _ in run.each(range(run.samples)):
        c, s = random_rational_circle_point(rng)
        p = random_rational_imaginary_unit(rng)
        v = random_rational_tangent(rng, p)
        if not twistor.loop_lift_identity(c, s, p, v):
            run.fail("loop-lift", cos=c, sin=s, p=p, v=v)
    # endpoints of the loop
    p = random_rational_imaginary_unit(rng)
    for c in run.each((Fraction(1), Fraction(-1))):
        v = random_rational_tangent(rng, p)
        if not twistor.loop_lift_identity(c, Fraction(0), p, v):
            run.fail("loop-endpoint", cos=c, sin=Fraction(0), p=p, v=v)


@_suite("prop41", 25, "exact", "float")
def _suite_prop41(run: _Run):
    rng = run.rng
    if run.mode == "float":
        for _ in run.each(range(run.samples)):
            lam = twistor.SO7Element(random_so7_float(rng))
            comp = run.attempt("companion",
                               lambda: twistor.companion(lam, tol=run.tol), lam=lam)
            if comp is None:
                continue
            run.measure(comp.residual)
            samples_pv = []
            for _ in range(4):
                pf = random_imaginary_unit_float(rng)
                vf = rng.standard_normal(8)
                vf[0] = 0.0
                vf -= (vf @ pf.to_float_array()) * pf.to_float_array()
                samples_pv.append((pf, Octonion(vf)))
            run.within("action-identity",
                       twistor.verify_moufang_action(lam, comp.a, samples_pv),
                       lam=lam)
            run.within("section-identity",
                       twistor.verify_so7_section_identity(lam, comp.a), lam=lam)
        return
    for n in run.each(range(max(2, run.samples))):
        lam = run.attempt("sample-error", lambda: twistor.random_so7_exact(rng),
                          sample=n)
        comp = None if lam is None else run.attempt(
            "companion", lambda: twistor.companion(lam), lam=lam)
        if comp is None:
            continue
        if comp.residual != 0.0:
            run.fail("companion-exact", residual=comp.residual, lam=lam)
        acted = twistor.so7_act(lam, twistor.canonical_section())
        if not twistor.sections_equal(acted, twistor.rp7_section(comp.a)):
            run.fail("orbit-in-sections", a=comp.a, lam=lam)
    # automorphisms fix the canonical section and have trivial companion
    run.checked += 1
    g2 = run.attempt("sample-error", lambda: random_g2_matrix(rng),
                     sample="automorphism")
    if g2 is None:
        return
    g2m = twistor.SO7Element(g2, validate=False)
    cg = run.attempt("companion", lambda: twistor.companion(g2m), lam=g2m)
    if cg is None:
        return
    trivial = cg.a.imag().is_zero() and cg.a.numerators[0] != 0
    fixes = twistor.sections_equal(
        twistor.so7_act(g2m, twistor.canonical_section()),
        twistor.canonical_section())
    if not (trivial and fixes):
        run.fail("automorphism-isotropy", a=cg.a, lam=g2m)


@_suite("prop42", 100, "exact")
def _suite_prop42(run: _Run):
    rng = run.rng
    cube_flags = set()
    for _ in run.each(range(run.samples)):
        x = random_rational_unit_octonion(rng)
        p = random_rational_imaginary_unit(rng)
        v = random_rational_tangent(rng, p)
        rep = twistor.triality_cube(x, p, v)
        cube_flags.add((rep.matched_cube, rep.matched_conj_cube))
        if not rep.matched_cube or not rep.subalgebra_branch_ok:
            run.fail("cube-identity", x=x, p=p, v=v, matched=rep.matched_cube,
                     branch=rep.subalgebra_branch_ok)
    run.checked += 1
    if len({f[0] for f in cube_flags}) > 1:
        run.fail("cube-candidate-consistency", flags=sorted(cube_flags))
    for _ in run.each(range(max(1, run.samples // 5))):
        x = random_rational_unit_octonion(rng)
        try:
            n = twistor.fiber_count_rp7(x)
        except twistor.NonGenericInput:
            continue
        if n != 3:
            run.fail("fiber-count", x=x, count=n)


@_suite("degrees", 0, "float")  # 0 samples: the engine's default starts
def _suite_degrees(run: _Run):
    run.worst = None  # degrees carry no residual: the report keeps null
    cfg = deg.EngineConfig()
    if run.samples:
        cfg.n_starts = max(400, run.samples)
    for name, (_, want) in run.each(deg.MAPS.items()):
        rep = run.attempt("degree-error", lambda: deg.named_degree(
            name, seed=run.seed, config=cfg), map=name)
        if rep is None:
            continue
        if rep.degree != want:
            run.fail("degree", map=name, degree=rep.degree, expected=want)
        # x -> x^k, of degree k: the power maps, squaring, and the spherical
        # lift of the projective cube
        if name.startswith("power:") or name in ("squaring", "rp7-cube"):
            for trial in rep.trials:
                oracle = deg.power_map_preimages(Octonion(trial.target), want)
                found = [np.array(pp) for pp in trial.preimages]
                if len(oracle) != len(found):
                    run.fail("oracle-count", map=name, oracle=len(oracle),
                             found=len(found))
                    continue
                for o in oracle:
                    if min(np.max(np.abs(o - f)) for f in found) > SEPARATION_TOL:
                        run.fail("oracle-match", map=name, target=trial.target)
                        break


@_suite("homotopy-tables", 1, "exact")
def _suite_homotopy_tables(run: _Run):
    cases = [
        ("pi_1 of structures on the six-sphere",
         homotopy.pi_structures_s6(1).render(), "ℤ/2"),
        ("pi_2 of structures on the six-sphere",
         homotopy.pi_structures_s6(2).render(), "π_2(S⁷) ⊕ π_8(S⁷)"),
        ("pi_5 of structures on the six-sphere",
         homotopy.pi_structures_s6(5).render(), "π_5(S⁷) ⊕ π_11(S⁷)"),
        ("pi_1 for genus 2", homotopy.pi_structures_xg(2, 1).render(), "ℤ/2"),
        ("pi_1 for genus 1", homotopy.pi_structures_xg(1, 1).render(), "ℤ"),
        ("pi_2 for genus 1", homotopy.pi_structures_xg(1, 2).render(), "ℤ ⊕ ℤ/2"),
        ("pi_2 for genus 3", homotopy.pi_structures_xg(3, 2).render(), "ℤ/2"),
        ("pi_3 for genus 1", homotopy.pi_structures_xg(1, 3).render(),
         "π_3(S⁷) ⊕ π_6(S⁷) ⊕ π_6(S⁷) ⊕ π_9(S⁷)"),
    ]
    for name, got, want in run.each(cases):
        if got != want:
            run.fail(name, got=got, expected=want)
    if run.table is not None:
        run.checked += 1
        resolved = homotopy.pi_structures_s6(7, run.table)
        rendered_then = homotopy.pi_structures_s6(7).resolve(run.table).render()
        if resolved.render() != rendered_then:
            run.fail("resolution-purity", a=resolved.render(), b=rendered_then)


def run_suite(name: str, samples: Optional[int] = None, mode: str = "exact",
              seed: int = 0, tolerance: float = CHECK_TOL,
              table: Optional[homotopy.Pi7Table] = None) -> SuiteReport:
    """Run one suite in `mode` when it supports that mode (see MODES), else
    in its first mode; the report's `mode` is the one that ran, and exact
    runs report no residual.  A parsed `table` adds the resolution check to
    `homotopy-tables`."""
    if name not in SUITES:
        raise UnknownSuite("unknown suite %r (known: %s)"
                           % (name, ", ".join(sorted(SUITES))))
    if mode not in ("exact", "float"):
        raise BadConfig("mode must be 'exact' or 'float'")
    if samples is None:
        samples = DEFAULT_SAMPLES[name]
    if samples < 0:
        raise BadConfig("samples must be nonnegative")
    if not 0 <= tolerance < np.inf:
        raise BadConfig("tolerance must be a finite number >= 0")
    rng_from_seed(seed)  # a bad seed raises here, not inside a suite's checks
    if mode not in MODES[name]:
        mode = MODES[name][0]
    t0 = time.monotonic()
    checked, failures, max_res = SUITES[name](samples, mode, seed, tolerance,
                                              table=table)
    elapsed = (time.monotonic() - t0) * 1000.0
    if mode == "exact":
        max_res = None
    return SuiteReport(name, mode, samples, seed, tolerance, checked,
                       failures, max_res, elapsed)


def run_all(mode: str = "exact", seed: int = 0, tolerance: float = CHECK_TOL,
            table: Optional[homotopy.Pi7Table] = None,
            samples: Optional[int] = None) -> List[SuiteReport]:
    """Run every suite at `samples` (None: each suite's default count), each
    in `mode` where it supports it and in its own first mode otherwise (see
    `run_suite`)."""
    return [run_suite(name, samples=samples, mode=mode,
                      seed=seed, tolerance=tolerance, table=table)
            for name in SUITES]
