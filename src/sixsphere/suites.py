"""Named verification suites producing deterministic machine-readable reports.

Each suite draws all randomness from one 64-bit seed, runs a configurable
number of samples in exact-rational or float arithmetic, and reports
replayable counterexample payloads on failure.  Exact-mode failures are
genuine; float-mode checks compare residuals against the tolerance.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from . import chern, cstruct, degree as deg, homotopy, twistor
from .errors import BadConfig, DegenerateX, SixSphereError, UnknownSuite
from .frames import random_g2_matrix
from .octonion import (CHECK_TOL, SEPARATION_TOL, Octonion, arithmetic_of,
                       residual)
from .sampling import (random_imaginary_unit_float,
                       random_rational_circle_point,
                       random_rational_imaginary_unit,
                       random_rational_tangent,
                       random_rational_unit_octonion, random_so7_float,
                       rng_from_seed)


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


def _oct_payload(**named) -> dict:
    out = {}
    for k, v in named.items():
        if isinstance(v, Octonion):
            out[k] = v.to_strings()
        elif isinstance(v, Fraction):
            out[k] = str(v)
        elif isinstance(v, np.ndarray):
            out[k] = [repr(float(t)) for t in v.ravel()]
        else:
            out[k] = v
    return out


def _or_failure(failures: List[dict], kind: str, inputs: Callable[[], dict],
                call: Callable, *args, **kwargs):
    """`call(*args, **kwargs)`, or None after recording the library error it
    raises as one failure entry: `kind`, the error and `inputs()`, the
    sample's inputs as strings.  Any other exception propagates."""
    try:
        return call(*args, **kwargs)
    except SixSphereError as e:
        failures.append({"kind": kind, "error": str(e), **inputs()})
        return None


#: suite name -> function (samples, mode, seed, tol, table=None) returning
#: (checked, failures, worst residual), in declaration order
SUITES: Dict[str, Callable] = {}
#: suite name -> sample count when none is given
DEFAULT_SAMPLES: Dict[str, int] = {}
#: the arithmetic modes each suite runs in; asked for another, it runs in the first
MODES: Dict[str, Tuple[str, ...]] = {}


def _suite(name: str, samples: int, *modes: str):
    """Register the decorated function as the suite `name`, with its default
    sample count and its modes."""
    def register(fn: Callable) -> Callable:
        SUITES[name] = fn
        DEFAULT_SAMPLES[name] = samples
        MODES[name] = modes
        return fn
    return register


# ---------------------------------------------------------------------------
# algebra suites
# ---------------------------------------------------------------------------

def _sample_unit(rng, mode: str) -> Octonion:
    if mode == "exact":
        return random_rational_unit_octonion(rng)
    from .sampling import random_unit_octonion_float
    return random_unit_octonion_float(rng)


@_suite("octonion-axioms", 300, "exact", "float")
def _suite_octonion_axioms(samples, mode, seed, tol, table=None):
    rng = rng_from_seed(seed)
    failures: List[dict] = []
    checked = 0
    worst = 0.0

    def close(d: Octonion) -> bool:
        nonlocal worst
        worst = max(worst, residual(d))
        return d.is_zero(tol)

    for _ in range(samples):
        x = _sample_unit(rng, mode)
        y = _sample_unit(rng, mode)
        checked += 1
        bad = []
        nxy, nx_ny = (x * y).norm_sq(), x.norm_sq() * y.norm_sq()
        worst = max(worst, abs(float(nxy) - float(nx_ny)))
        if not arithmetic_of(x, y).scalar_eq(nxy, nx_ny, tol):
            bad.append("norm multiplicativity")
        if not close(x * (x * y) - (x * x) * y):
            bad.append("left alternativity")
        if not close((y * x) * x - y * (x * x)):
            bad.append("right alternativity")
        if not close((x * y).conjugate() - y.conjugate() * x.conjugate()):
            bad.append("conjugation anti-automorphism")
        if not close(x * x.inverse() - Octonion.one()):
            bad.append("inverse")
        if not close(x.conjugate() - (2 * x.inner(Octonion.one()) * Octonion.one() - x)):
            bad.append("conjugation formula")
        if bad:
            failures.append(_oct_payload(x=x, y=y, laws=bad))

    # associativity fails somewhere: scan the generated table for a witness
    checked += 1
    if not any((Octonion.basis(i) * Octonion.basis(j)) * Octonion.basis(k)
               != Octonion.basis(i) * (Octonion.basis(j) * Octonion.basis(k))
               for i in range(1, 8) for j in range(1, 8) for k in range(1, 8)):
        failures.append({"law": "non-associativity witness", "found": 0})

    # two-generator (Artin) associativity on degree <= 4 words, smaller sweep
    for _ in range(max(10, samples // 10)):
        x = _sample_unit(rng, mode)
        y = _sample_unit(rng, mode)
        checked += 1
        memo: dict = {}
        for w in _words_up_to_4():
            vals = _all_parenthesizations(w, (y, x), memo)
            if any(not close(v - vals[0]) for v in vals[1:]):
                failures.append(_oct_payload(x=x, y=y, laws=["two-generator associativity"]))
                break
    return checked, failures, worst


def _words_up_to_4():
    """The 28 words of length 2 to 4 in two letters, as tuples of letter
    indices: 1 for x, 0 for y."""
    return [tuple((bits >> i) & 1 for i in range(n))
            for n in (2, 3, 4) for bits in range(2 ** n)]


def _all_parenthesizations(word, letters, memo):
    """The products of the letters spelt by word under every bracketing,
    split point by split point.  Each sub-word's list is built once and
    kept in memo, keyed by the word: the 28 words of `_words_up_to_4` then
    take 100 products instead of 276."""
    if len(word) == 1:
        return [letters[word[0]]]
    out = memo.get(word)
    if out is None:
        out = memo[word] = [l * r for cut in range(1, len(word))
                            for l in _all_parenthesizations(word[:cut], letters, memo)
                            for r in _all_parenthesizations(word[cut:], letters, memo)]
    return out


@_suite("moufang", 300, "exact", "float")
def _suite_moufang(samples, mode, seed, tol, table=None):
    rng = rng_from_seed(seed)
    failures: List[dict] = []
    worst = 0.0
    checked = 0
    for _ in range(samples):
        x = _sample_unit(rng, mode)
        y = _sample_unit(rng, mode)
        z = _sample_unit(rng, mode)
        checked += 1
        xy, zx = x * y, z * x  # each shared by two laws
        laws = {
            "(xy)(zx) = x((yz)x)": xy * zx - x * ((y * z) * x),
            "x(y(xz)) = ((xy)x)z": x * (y * (x * z)) - (xy * x) * z,
            "((zx)y)x = z(x(yx))": (zx * y) * x - z * (x * (y * x)),
        }
        bad = []
        for name, d in laws.items():
            worst = max(worst, residual(d))
            if not d.is_zero(tol):
                bad.append(name)
        if bad:
            failures.append(_oct_payload(x=x, y=y, z=z, laws=bad))
    return checked, failures, worst


# ---------------------------------------------------------------------------
# complex-structure suites
# ---------------------------------------------------------------------------

@_suite("prop21", 100, "exact", "float")
def _suite_prop21(samples, mode, seed, tol, table=None):
    rng = rng_from_seed(seed)
    failures: List[dict] = []
    checked = 0
    worst = 0.0
    if mode == "exact":
        for _ in range(samples):
            x = random_rational_unit_octonion(rng)
            c, s = random_rational_circle_point(rng)
            y = random_rational_unit_octonion(rng)
            checked += 1
            _or_failure(failures, "sample-error",
                        lambda: _oct_payload(x=x, cos=c, sin=s, y=y),
                        _prop21_exact_checks, failures, x, c, s, y)
    else:
        for _ in range(samples):
            j1 = cstruct.random_structure_float(rng)
            j2 = cstruct.random_structure_float(rng)
            checked += 1
            r = _or_failure(failures, "sample-error",
                            lambda: {"j1": j1.to_strings(),
                                     "j2": j2.to_strings()},
                            _prop21_float_checks, failures, j1, j2, tol)
            if r is not None:
                worst = max(worst, r)
    return checked, failures, worst


def _prop21_exact_checks(failures: List[dict], x, c, s, y):
    """Recovery, phase invariance, the equivalence classification and the
    block form of J_x, for x, the circle point (c, s) and y."""
    r = cstruct.recover_x(cstruct.j_from_octonion(x))
    if not cstruct.equivalent(r, x):
        failures.append(_oct_payload(kind="round-trip", x=x, recovered=r))
    shifted = (c * Octonion.one() + s * Octonion.basis(1)) * x
    if not cstruct.equivalent(x, shifted):
        failures.append(_oct_payload(kind="phase-equivalence", x=x, cos=c, sin=s))
    w = y * x.conjugate()
    in_span = not any(w.numerators[2:])
    if cstruct.equivalent(x, y) != in_span:
        failures.append(_oct_payload(kind="equivalence-classification", x=x, y=y))
    try:
        cstruct.quaternion_coordinate_form(x)
    except DegenerateX:
        pass
    except SixSphereError as e:  # block certification raises on failure
        failures.append(_oct_payload(kind="block-decomposition", x=x,
                                     error=str(e)))


def _prop21_float_checks(failures: List[dict], j1, j2, tol) -> float:
    """The common line of two float structures and the recovery of the
    first; the worst residual."""
    if j1 == j2:
        return 0.0
    line = cstruct.common_line(j1, j2)
    u, ju = line.u, line.ju
    r = max(residual(j1.apply(u) - j2.apply(u)),
            residual(j1.apply(ju) - j2.apply(ju)),
            residual(j1.apply(u) - ju))
    if r > tol:
        failures.append({"kind": "common-line", "residual": r,
                         "j1": j1.to_strings(), "j2": j2.to_strings()})
    xr = cstruct.recover_x(j1)
    r2 = cstruct.j_from_octonion(xr).distance(j1)
    if r2 > tol:
        failures.append({"kind": "float-recover", "residual": r2,
                         "j": j1.to_strings()})
    return max(r, r2)


@_suite("lemma22", 1, "exact")
def _suite_lemma22(samples, mode, seed, tol, table=None):
    failures: List[dict] = []
    res = chern.euler_number_normal_bundle()
    tensor = chern.tensor_line_chern()
    expected = {
        "tensor c2": (tensor.rendered, "c1(L)^2 + c1(L)*c1(E) + c2(E)"),
        "c1 complement": (res.c1_complement.render(), "-a"),
        "c2 complement": (res.c2_complement.render(), "a^2"),
        "c2 normal": (res.c2_normal.render(), "a^2"),
        "euler number": (res.euler_number, 1),
    }
    for name, (got, want) in expected.items():
        if got != want:
            failures.append({"kind": name, "got": got, "expected": want})
    total = chern.ring([("a", 2)], truncation=4)
    line = total["one"] + total["a"]
    prod = chern.whitney_complement(line, 2) * line
    if prod != total["one"]:
        failures.append({"kind": "whitney product", "got": prod.render()})
    return len(expected) + 1, failures, None


@_suite("prop31", 300, "exact")
def _suite_prop31(samples, mode, seed, tol, table=None):
    rng = rng_from_seed(seed)
    failures: List[dict] = []
    checked = 0
    for n in range(samples):
        p = random_rational_imaginary_unit(rng)
        x = random_rational_unit_octonion(rng)
        c, s = random_rational_circle_point(rng)
        v = random_rational_tangent(rng, p)
        checked += 1
        z = c * Octonion.one() + s * p
        x2 = z * x
        lhs = (p * (v * x2)) * x2.conjugate()
        rhs = (p * (v * x)) * x.conjugate() * (x2.norm_sq() / x.norm_sq())
        if not (lhs - rhs).is_zero():
            failures.append(_oct_payload(p=p, x=x, cos=c, sin=s, v=v))
        if n % 10 == 0:
            t0 = twistor.TwistorPoint(p, x)
            if twistor.twistor_evaluate(t0) != twistor.twistor_evaluate(t0.phase_shift(c, s)):
                failures.append(_oct_payload(kind="structure-level", p=p, x=x, cos=c, sin=s))
            checked += 1
    return checked, failures, None


@_suite("lemma34", 300, "exact")
def _suite_lemma34(samples, mode, seed, tol, table=None):
    rng = rng_from_seed(seed)
    failures: List[dict] = []
    checked = 0
    for _ in range(samples):
        c2, s2 = random_rational_circle_point(rng)
        p = random_rational_imaginary_unit(rng)
        checked += 1
        half = c2 * Octonion.one() + s2 * p
        full = (c2 * c2 - s2 * s2) * Octonion.one() + (2 * c2 * s2) * p
        if half * half != full:
            failures.append(_oct_payload(cos_half=c2, sin_half=s2, p=p))
    return checked, failures, None


@_suite("thm33-lift", 200, "exact")
def _suite_thm33_lift(samples, mode, seed, tol, table=None):
    rng = rng_from_seed(seed)
    failures: List[dict] = []
    checked = 0
    for _ in range(samples):
        c, s = random_rational_circle_point(rng)
        p = random_rational_imaginary_unit(rng)
        v = random_rational_tangent(rng, p)
        checked += 1
        if not twistor.loop_lift_identity(c, s, p, v):
            failures.append(_oct_payload(cos=c, sin=s, p=p, v=v))
    # endpoints of the loop
    p = random_rational_imaginary_unit(rng)
    for cs in ((Fraction(1), Fraction(0)), (Fraction(-1), Fraction(0))):
        checked += 1
        if not twistor.loop_lift_identity(cs[0], cs[1], p, random_rational_tangent(rng, p)):
            failures.append(_oct_payload(cos=cs[0], sin=cs[1], p=p))
    return checked, failures, None


def _companion_or_failure(failures: List[dict], lam, **tol):
    """`twistor.companion(lam, **tol)`, or None after a `companion` failure
    entry with lam's entries, row by row."""
    return _or_failure(
        failures, "companion",
        lambda: {"matrix": [x for row in lam.to_strings() for x in row]},
        twistor.companion, lam, **tol)


@_suite("prop41", 25, "exact", "float")
def _suite_prop41(samples, mode, seed, tol, table=None):
    rng = rng_from_seed(seed)
    failures: List[dict] = []
    checked = 0
    worst = 0.0
    if mode == "float":
        for _ in range(samples):
            lam = twistor.SO7Element(random_so7_float(rng))
            checked += 1
            comp = _companion_or_failure(failures, lam, tol=tol)
            if comp is None:
                continue
            worst = max(worst, comp.residual)
            samples_pv = []
            for _ in range(4):
                pf = random_imaginary_unit_float(rng)
                vf = rng.standard_normal(8)
                vf[0] = 0.0
                vf -= (vf @ pf.to_float_array()) * pf.to_float_array()
                samples_pv.append((pf, Octonion(vf)))
            r = twistor.verify_moufang_action(lam, comp.a, samples_pv)
            worst = max(worst, r)
            if r > tol:
                failures.append({"kind": "action-identity", "residual": r,
                                 "lam": lam.to_strings()})
            d = twistor.verify_so7_section_identity(lam, comp.a)
            worst = max(worst, d)
            if d > tol:
                failures.append({"kind": "section-identity", "residual": d,
                                 "lam": lam.to_strings()})
    else:
        for n in range(max(2, samples)):
            checked += 1
            lam = _or_failure(failures, "sample-error", lambda: {"sample": n},
                              twistor.random_so7_exact, rng)
            if lam is None:
                continue
            comp = _companion_or_failure(failures, lam)
            if comp is None:
                continue
            if comp.residual != 0.0:
                failures.append({"kind": "companion-exact",
                                 "residual": comp.residual,
                                 "lam": lam.to_strings()})
            acted = twistor.so7_act(lam, twistor.canonical_section())
            if not twistor.sections_equal(acted, twistor.rp7_section(comp.a)):
                failures.append({"kind": "orbit-in-sections",
                                 "a": comp.a.to_strings(),
                                 "lam": lam.to_strings()})
        # automorphisms fix the canonical section and have trivial companion
        checked += 1
        g2 = _or_failure(failures, "sample-error",
                         lambda: {"sample": "automorphism"},
                         random_g2_matrix, rng)
        g2m = None if g2 is None else twistor.SO7Element(g2, validate=False)
        cg = None if g2m is None else _companion_or_failure(failures, g2m)
        if cg is not None:
            trivial = cg.a.imag().is_zero() and cg.a.numerators[0] != 0
            fixes = twistor.sections_equal(
                twistor.so7_act(g2m, twistor.canonical_section()),
                twistor.canonical_section())
            if not (trivial and fixes):
                failures.append({"kind": "automorphism-isotropy",
                                 "a": cg.a.to_strings(),
                                 "lam": g2m.to_strings()})
    return checked, failures, worst


@_suite("prop42", 100, "exact")
def _suite_prop42(samples, mode, seed, tol, table=None):
    rng = rng_from_seed(seed)
    failures: List[dict] = []
    checked = 0
    cube_flags = set()
    for _ in range(samples):
        x = random_rational_unit_octonion(rng)
        p = random_rational_imaginary_unit(rng)
        v = random_rational_tangent(rng, p)
        checked += 1
        rep = twistor.triality_cube(x, p, v)
        cube_flags.add((rep.matched_cube, rep.matched_conj_cube))
        if not rep.matched_cube or not rep.subalgebra_branch_ok:
            failures.append(_oct_payload(kind="cube-identity", x=x, p=p, v=v,
                                         matched=rep.matched_cube,
                                         branch=rep.subalgebra_branch_ok))
    checked += 1
    if len({f[0] for f in cube_flags}) > 1:
        failures.append({"kind": "cube-candidate-consistency",
                         "flags": sorted(cube_flags)})
    for _ in range(max(1, samples // 5)):
        x = random_rational_unit_octonion(rng)
        checked += 1
        try:
            n = twistor.fiber_count_rp7(x)
        except twistor.NonGenericInput:
            continue
        if n != 3:
            failures.append(_oct_payload(kind="fiber-count", x=x, count=n))
    return checked, failures, None


@_suite("degrees", 0, "float")  # 0 samples: the engine's default starts
def _suite_degrees(samples, mode, seed, tol, table=None):
    failures: List[dict] = []
    checked = 0
    cfg = deg.EngineConfig()
    if samples:
        cfg.n_starts = max(400, samples)
    for name, (_, want) in deg.MAPS.items():
        checked += 1
        try:
            rep = deg.named_degree(name, seed=seed, config=cfg)
        except SixSphereError as e:
            failures.append({"map": name, "error": str(e)})
            continue
        if rep.degree != want:
            failures.append({"map": name, "degree": rep.degree, "expected": want})
        if name.startswith("power:"):  # x -> x^k, of degree k
            for trial in rep.trials:
                oracle = deg.power_map_preimages(Octonion(trial.target), want)
                found = [np.array(pp) for pp in trial.preimages]
                if len(oracle) != len(found):
                    failures.append({"map": name, "kind": "oracle-count",
                                     "oracle": len(oracle), "found": len(found)})
                    continue
                for o in oracle:
                    if min(np.max(np.abs(o - f)) for f in found) > SEPARATION_TOL:
                        failures.append({"map": name, "kind": "oracle-match",
                                         "target": trial.target})
                        break
    return checked, failures, None


@_suite("homotopy-tables", 1, "exact")
def _suite_homotopy_tables(samples, mode, seed, tol, table=None):
    failures: List[dict] = []
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
    for name, got, want in cases:
        if got != want:
            failures.append({"kind": name, "got": got, "expected": want})
    checked = len(cases)
    if table is not None:
        checked += 1
        resolved = homotopy.pi_structures_s6(7, table)
        rendered_then = homotopy.pi_structures_s6(7).resolve(table).render()
        if resolved.render() != rendered_then:
            failures.append({"kind": "resolution-purity",
                             "a": resolved.render(), "b": rendered_then})
    return checked, failures, None


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
