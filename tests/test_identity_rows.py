"""The identity suites on rows against their scalar references:
`octonion-axioms` (both modes), `prop31` and `lemma34` (exact) report
exactly what the loops of `references` report, one sample at a time on
scalar `Octonion`s, with the true table and with a bent one; the law rows
equal the scalar laws bit for bit."""

import numpy as np
import pytest

import references
from sixsphere import sampling, suites
from sixsphere.octonion import CHECK_TOL, EXACT, Octonion, residual

SEEDS = (1, 2, 5)
SAMPLES = (0, 1, 3, 10, None)  # None: the suite's default count

#: the octonion laws by the names the suite reports, as differences
LAWS = {
    "left alternativity": lambda x, y: x * (x * y) - (x * x) * y,
    "right alternativity": lambda x, y: (y * x) * x - y * (x * x),
    "conjugation anti-automorphism":
        lambda x, y: (x * y).conjugate() - y.conjugate() * x.conjugate(),
    "inverse": lambda x, y: x * x.inverse() - Octonion.one(),
    "conjugation formula": lambda x, y: x.conjugate() - (
        2 * x.inner(Octonion.one()) * Octonion.one() - x),
}


def _bits(a) -> bytes:
    return np.asarray(a, dtype=float).tobytes()


@pytest.mark.parametrize("mode, tol", [("exact", 0.0), ("float", CHECK_TOL),
                                       ("float", 0.0)])
@pytest.mark.parametrize("samples", SAMPLES)
@pytest.mark.parametrize("seed", SEEDS)
def test_axioms_report_as_the_scalar_loop(seed, samples, mode, tol):
    rep = suites.run_suite("octonion-axioms", samples=samples, mode=mode,
                           seed=seed, tolerance=tol)
    n = rep.samples
    checked, failures, worst = references.octonion_axioms(n, mode, seed, tol)
    assert rep.checked == checked == n + 1 + max(10, n // 10)
    # inputs as strings, residuals as floats: == on them is bit for bit
    assert rep.failures == failures
    if mode == "float":
        assert _bits(rep.max_residual) == _bits(worst)
    else:
        assert rep.max_residual is None and worst is None
    if mode == "float" and not tol:
        assert rep.failures  # rounding alone exceeds a tolerance of 0


@pytest.mark.parametrize("seed", SEEDS)
def test_float_axioms_residual_does_not_depend_on_the_tolerance(seed):
    # every bracketing is measured, failing or not: only the entries move
    at = {tol: suites.run_suite("octonion-axioms", mode="float", seed=seed,
                                tolerance=tol) for tol in (CHECK_TOL, 0.0)}
    assert at[CHECK_TOL].ok and not at[0.0].ok
    assert _bits(at[0.0].max_residual) == _bits(at[CHECK_TOL].max_residual)
    for samples in (1, 3):
        assert len({_bits(suites.run_suite(
            "octonion-axioms", samples=samples, mode="float", seed=seed,
            tolerance=tol).max_residual) for tol in (CHECK_TOL, 1e-16, 0.0)}) == 1


@pytest.mark.parametrize("name, reference", [("prop31", references.prop31),
                                             ("lemma34", references.lemma34)])
@pytest.mark.parametrize("samples", SAMPLES)
@pytest.mark.parametrize("seed", SEEDS)
def test_exact_rows_report_as_the_scalar_loop(name, reference, seed, samples):
    rep = suites.run_suite(name, samples=samples, mode="exact", seed=seed)
    assert (rep.checked, rep.failures) == reference(rep.samples, seed)
    assert rep.ok


@pytest.mark.parametrize("name, reference", [
    ("octonion-axioms",
     lambda n, seed: references.octonion_axioms(n, "exact", seed, 0.0)[:2]),
    ("prop31", references.prop31), ("lemma34", references.lemma34)])
@pytest.mark.parametrize("samples", [1, 3, 10])
def test_a_bent_table_fails_as_in_the_scalar_loop(bent_table, name, reference,
                                                  samples):
    rep = suites.run_suite(name, samples=samples, mode="exact", seed=1)
    assert (rep.checked, rep.failures) == reference(samples, 1)
    # lemma34's identity holds in any power-associative algebra with p^2 = -1
    assert rep.ok == (name == "lemma34")


@pytest.mark.parametrize("seed", SEEDS)
def test_law_rows_equal_the_scalar_laws(seed):
    # float rows: every coordinate of every difference, bit for bit
    rng = sampling.rng_from_seed(seed)
    x, y = sampling.random_unit_vector(rng, 8, 2 * 20).reshape(20, 2, 8).swapaxes(0, 1)
    rows = suites._axiom_laws(x, y)
    assert list(rows) == ["norm multiplicativity", *LAWS]
    for i in range(20):
        xi, yi = Octonion(x[i]), Octonion(y[i])
        norm = (xi * yi).norm_sq() - xi.norm_sq() * yi.norm_sq()
        assert _bits(rows["norm multiplicativity"][i]) == _bits([norm])
        for name, law in LAWS.items():
            assert _bits(rows[name][i]) == _bits(law(xi, yi).numerators)
    # exact rows: numerators that are all 0, as the scalar differences are
    os = [sampling.random_rational_unit_octonion(rng) for _ in range(2 * 20)]
    x, y = EXACT.points(os)[0].reshape(20, 2, 8).swapaxes(0, 1)
    for name, d in suites._axiom_laws(x, y).items():
        assert not d.any()
    assert all(residual(law(*os[2 * i:2 * i + 2])) == 0
               for law in LAWS.values() for i in range(20))
