"""Acceptance gate: one test per criterion, each at its stated tolerance,
printing a pass/fail line.  Time-budgeted criteria assert their budgets."""

import time
from fractions import Fraction as F

import numpy as np

from sixsphere import chern, homotopy, suites
from sixsphere.sampling import (random_rational_unit_octonion, rng_from_seed)


def _report(n, ok, text):
    print("%s criterion %d: %s" % ("PASS" if ok else "FAIL", n, text))
    assert ok, "criterion %d failed: %s" % (n, text)


def test_criterion_1_algebra_identities():
    """Norm multiplicativity, alternativity, and the three Moufang laws:
    zero failures on 1000 exact rational triples in under 10 seconds."""
    rng = rng_from_seed(1)
    t0 = time.monotonic()
    failures = 0
    for _ in range(1000):
        x = random_rational_unit_octonion(rng)
        y = random_rational_unit_octonion(rng)
        z = random_rational_unit_octonion(rng)
        ok = (x * y).norm_sq() == x.norm_sq() * y.norm_sq()
        ok = ok and x * (x * y) == (x * x) * y
        ok = ok and (y * x) * x == y * (x * x)
        ok = ok and (x * y) * (z * x) == x * ((y * z) * x)
        ok = ok and x * (y * (x * z)) == ((x * y) * x) * z
        ok = ok and ((z * x) * y) * x == z * (x * (y * x))
        failures += 0 if ok else 1
    elapsed = time.monotonic() - t0
    _report(1, failures == 0 and elapsed < 10.0,
            "algebra identities on 1000 exact triples: %d failures, %.1fs"
            % (failures, elapsed))


def test_criterion_2_structure_suite():
    """Round trip and equivalence exact on 500 rational inputs, block
    decomposition exact, and 500 float common-line pairs under 1e-9."""
    exact = suites.run_suite("prop21", samples=500, mode="exact", seed=2)
    flt = suites.run_suite("prop21", samples=500, mode="float", seed=2,
                           tolerance=1e-9)
    ok = exact.ok and flt.ok and flt.max_residual < 1e-9
    _report(2, ok,
            "structure suite: %d exact checks, %d float checks, "
            "max float residual %.2e"
            % (exact.checked, flt.checked, flt.max_residual))


def test_criterion_3_circle_invariance():
    """Circle-action invariance of the induced structure, exact on 1000
    rational (p, x, circle point, v) samples."""
    rep = suites.run_suite("prop31", samples=1000, mode="exact", seed=7)
    _report(3, rep.ok, "circle invariance exact on %d checks, %d failures"
            % (rep.checked, len(rep.failures)))


def test_criterion_4_chern_pipeline():
    """The symbolic pipeline reproduces every displayed class and the Euler
    number 1, exactly."""
    rep = suites.run_suite("lemma22", seed=0)
    res = chern.euler_number_normal_bundle()
    tensor = chern.tensor_line_chern()
    ok = (rep.ok
          and tensor.rendered == "c1(L)^2 + c1(L)*c1(E) + c2(E)"
          and res.c1_complement.render() == "-a"
          and res.c2_complement.render() == "a^2"
          and res.c2_normal.render() == "a^2"
          and res.euler_number == 1)
    _report(4, ok, "tensor c2 = %s; complement classes (%s, %s); "
            "normal c2 = %s; Euler number = %d"
            % (tensor.rendered, res.c1_complement.render(),
               res.c2_complement.render(), res.c2_normal.render(),
               res.euler_number))


def test_criterion_5_degree_suite():
    """The degree inventory: identity 1, squaring 2, conjugation -1,
    circle-valued 0, cylinder loop 2, projective cube 3, powers k = 1..6
    matching the analytic oracle; three agreeing trials per map; < 120 s."""
    t0 = time.monotonic()
    rep = suites.run_suite("degrees", seed=1)
    elapsed = time.monotonic() - t0
    _report(5, rep.ok and elapsed < 120.0,
            "degree suite: %d checks, %d failures, %.1fs"
            % (rep.checked, len(rep.failures), elapsed))


def test_criterion_6_companion_and_cube():
    """Companions on 200 float rotations with isotopy residual and constant-
    section identity under 1e-9; cube candidate consistent on 500 exact
    samples; fiber count 3 on 100 generic samples."""
    flt = suites.run_suite("prop41", samples=200, mode="float", seed=6,
                           tolerance=1e-9)
    cube = suites.run_suite("prop42", samples=500, mode="exact", seed=6)
    ok = flt.ok and cube.ok and flt.max_residual < 1e-9
    _report(6, ok,
            "companions: %d float rotations, max residual %.2e; "
            "cube consistency and fiber counts: %d checks, %d failures"
            % (flt.samples, flt.max_residual, cube.checked, len(cube.failures)))


def test_criterion_7_loop_lift():
    """The explicit loop lift induces the prescribed structures, exactly, on
    500 rational samples."""
    rep = suites.run_suite("thm33-lift", samples=500, mode="exact", seed=3)
    _report(7, rep.ok, "loop lift exact on %d checks, %d failures"
            % (rep.checked, len(rep.failures)))


def test_criterion_8_homotopy_tables():
    """The rendered homotopy groups match the expected strings exactly."""
    rep = suites.run_suite("homotopy-tables", seed=0)
    checks = [
        (homotopy.pi_structures_s6(1).render(), "ℤ/2"),
        (homotopy.pi_structures_s6(2).render(), "π_2(S⁷) ⊕ π_8(S⁷)"),
        (homotopy.pi_structures_s6(4).render(), "π_4(S⁷) ⊕ π_10(S⁷)"),
        (homotopy.pi_structures_xg(2, 1).render(), "ℤ/2"),
        (homotopy.pi_structures_xg(1, 1).render(), "ℤ"),
        (homotopy.pi_structures_xg(1, 2).render(), "ℤ ⊕ ℤ/2"),
    ]
    ok = rep.ok and all(got == want for got, want in checks)
    _report(8, ok, "; ".join("%s" % got for got, _ in checks))
