"""Suites that fail report failures whose inputs read back.

Three ways make the sampled suites fail: a tolerance of 0 in float mode,
where rounding alone exceeds it, a bent multiplication table (the signs of
e3 e5 and e5 e3 flipped, every table constant rebuilt from it), and a
companion perturbed after it is found, which gets past prop41's samplers.  Each entry must carry a string `kind`, and its octonions, rotations
and structures must read back through `from_strings`.  The Moufang suite
evaluates its laws on arrays of samples; the scalar laws on `Octonion`s are
its reference, whether the laws hold or fail.
"""

import re
from fractions import Fraction

import numpy as np
import pytest

from sixsphere import sampling, suites, twistor
from sixsphere.cstruct import ComplexStructureR6
from sixsphere.errors import DegenerateInput, VerificationFailed
from sixsphere.octonion import CHECK_TOL, EXACT, Octonion, residual
from sixsphere.twistor import SO7Element

import references

OCTONION_INPUTS = ("x", "y", "z", "p", "v", "recovered", "a")
STRUCTURE_INPUTS = ("j", "j1", "j2")

#: the Moufang laws by the names the suite reports, as differences
MOUFANG = {
    "(xy)(zx) = x((yz)x)": lambda x, y, z: (x * y) * (z * x) - x * ((y * z) * x),
    "x(y(xz)) = ((xy)x)z": lambda x, y, z: x * (y * (x * z)) - ((x * y) * x) * z,
    "((zx)y)x = z(x(yx))": lambda x, y, z: ((z * x) * y) * x - z * (x * (y * x)),
}


def _read_back(entry):
    """Every input of a failure entry, parsed back into its value."""
    assert isinstance(entry["kind"], str)
    out = {}
    for key, value in entry.items():
        if key in OCTONION_INPUTS:
            out[key] = Octonion.from_strings(value)
        elif key == "lam":
            out[key] = SO7Element.from_strings(value)
        elif key in STRUCTURE_INPUTS:
            out[key] = ComplexStructureR6.from_strings(value)
        elif key in ("cos", "sin", "cos_half", "sin_half"):
            out[key] = Fraction(value)
    return out


@pytest.mark.parametrize("name, kinds", [
    ("octonion-axioms", {"laws"}),
    ("moufang", {"laws"}),
    ("prop21", {"common-line", "float-recover"}),
    ("prop41", {"companion"}),
])
def test_float_suites_fail_at_zero_tolerance(name, kinds):
    rep = suites.run_suite(name, samples=3, mode="float", seed=1, tolerance=0.0)
    assert not rep.ok
    assert {f["kind"] for f in rep.failures} == kinds
    for entry in rep.failures:
        _read_back(entry)


def test_float_moufang_entries_replay():
    rep = suites.run_suite("moufang", samples=3, mode="float", seed=1,
                           tolerance=0.0)
    assert rep.failures
    for entry in rep.failures:
        inputs = _read_back(entry)
        for law in entry["laws"]:
            assert residual(MOUFANG[law](inputs["x"], inputs["y"], inputs["z"])) > 0


# lemma34 and thm33-lift report no failure under this table: lemma34's
# identity holds in any power-associative algebra with p^2 = -1
@pytest.mark.parametrize("name", [
    "octonion-axioms", "moufang", "prop21", "prop31", "prop41", "prop42"])
def test_exact_suites_catch_a_bent_table(bent_table, name):
    rep = suites.run_suite(name, samples=3, mode="exact", seed=1)
    assert not rep.ok
    for entry in rep.failures:
        _read_back(entry)


def test_exact_moufang_rows_take_the_int64_gather_of_a_bent_table(bent_table,
                                                                  gathers):
    # the int64 gather reads the rebound `_TERMS`: exact moufang rows take
    # it, fail under the bent table, and their entries fail the scalar laws
    rep = suites.run_suite("moufang", samples=3, mode="exact", seed=1)
    assert np.dtype(np.int64) in gathers
    assert not rep.ok
    for entry in rep.failures:
        inputs = _read_back(entry)
        for law in entry["laws"]:
            assert residual(MOUFANG[law](inputs["x"], inputs["y"], inputs["z"])) > 0


@pytest.mark.parametrize("name, kinds", [
    ("prop21", {"sample-error"}), ("prop41", {"companion"})])
def test_float_suites_catch_a_bent_table(bent_table, name, kinds):
    # the fixture rebuilds every table constant, so float structures (the
    # multiplication-matrix gathers) and companions see the bent table too
    rep = suites.run_suite(name, samples=3, mode="float", seed=1)
    assert {f["kind"] for f in rep.failures} == kinds
    for entry in rep.failures:
        _read_back(entry)


def _search(find, lam):
    """A companion search's octonion, kernel dimension and residual, or its
    error."""
    try:
        res = find(lam, CHECK_TOL)
    except (references.KernelDimensionError, VerificationFailed) as e:
        return type(e).__name__, str(e)
    return res.a.numerators, res.a.denominator, res.kernel_dim, res.residual


@pytest.mark.parametrize("exact", [True, False])
def test_the_companion_reads_the_bent_table(bent_table, exact):
    # the companion's forms, the multiplication matrices and lam(ei ej) all
    # read the one bent table: the identity is an automorphism of the bent
    # algebra too, with companion 1 on all 64 pairs (e3 e5 among them), as
    # the kernel route on bent `Octonion` products finds it, and a
    # conjugation fails its verification with the defect of the candidate
    # (the kernel route fails it too, by its kernel dimension)
    x = Octonion.from_strings(["3/5", "0", "4/5", "0", "0", "0", "0", "0"])
    conj = twistor.conjugation_element(x)
    identity = SO7Element(np.eye(8, dtype=int).tolist())
    if not exact:
        conj, identity = (SO7Element(m.as_array()) for m in (conj, identity))
    found = _search(twistor.companion, identity)
    assert found == _search(references.companion, identity)
    assert found[0] == Octonion.one().numerators and found[2] == 8
    assert _search(references.companion, conj)[0] == "KernelDimensionError"
    with pytest.raises(VerificationFailed) as failed:
        twistor.companion(conj, CHECK_TOL)
    defect = re.fullmatch(r"companion candidate fails the isotopy identity "
                          r"\(defect (.*)\)", str(failed.value))
    assert float(defect.group(1)) > CHECK_TOL


def _perturbed_companion(monkeypatch):
    """Hand the suites a wrong companion that passed its own verification:
    one exact numerator + 1, or a float a + 1e-6 e3."""
    find = twistor.companion

    def perturbed(lam, *args, **kwargs):
        res = find(lam, *args, **kwargs)
        a = res.a
        if a.exact:
            num = list(a.numerators)
            num[3] += 1
            a = Octonion.from_lifted(num, a.denominator)
        else:
            a = a + 1e-6 * Octonion.basis(3)
        return twistor.CompanionResult(a, res.kernel_dim, res.residual)

    monkeypatch.setattr(twistor, "companion", perturbed)


@pytest.mark.parametrize("mode, kinds", [
    ("exact", {"orbit-in-sections"}),
    ("float", {"action-identity", "section-identity"})])
def test_prop41_catches_a_perturbed_companion(monkeypatch, mode, kinds):
    # a mutant past the samplers: the rotations are drawn as usual, and
    # prop41's own checks of the companion report it
    _perturbed_companion(monkeypatch)
    rep = suites.run_suite("prop41", samples=3, mode=mode, seed=1)
    got = {f["kind"] for f in rep.failures}
    assert kinds <= got and "sample-error" not in got
    for entry in rep.failures:
        inputs = _read_back(entry)
        assert isinstance(inputs["lam"], SO7Element)


def test_prop41_proves_a_perturbed_companion_wrong_by_its_factors(monkeypatch):
    # every exact verdict is the comparison of linear factors at e_1, ...,
    # e_7: each wrong companion's section is proved unequal to the rotated
    # canonical one (three `orbit-in-sections` entries), and the automorphism
    # still fixes the canonical section, its entry made by the companion
    _perturbed_companion(monkeypatch)
    compare, verdicts = twistor.sections_equal, []

    def recorded(s1, s2):
        verdicts.append(compare(s1, s2))
        return verdicts[-1]

    monkeypatch.setattr(twistor, "sections_equal", recorded)
    rep = suites.run_suite("prop41", samples=3, mode="exact", seed=1)
    kinds = [f["kind"] for f in rep.failures]
    assert kinds == ["orbit-in-sections"] * 3 + ["automorphism-isotropy"]
    assert verdicts == [False] * 3 + [True]


def test_prop41_catches_a_rotation_drawn_as_an_automorphism(monkeypatch):
    # the automorphism draw hands back the rows of a conjugation element:
    # its companion is a ray of x^3, not real, and it moves the canonical
    # section, so `automorphism-isotropy` reports it
    x = Octonion.from_strings(["3/5", "0", "4/5", "0", "0", "0", "0", "0"])
    conj = twistor.conjugation_element(x)
    monkeypatch.setattr(suites, "random_g2_matrix", lambda rng: conj.rows)
    rep = suites.run_suite("prop41", samples=2, mode="exact", seed=1)
    entry, = rep.failures
    assert entry["kind"] == "automorphism-isotropy"
    inputs = _read_back(entry)
    assert inputs["lam"] == conj and not inputs["a"].imag().is_zero()
    canonical = twistor.canonical_section()
    acted = twistor.so7_act(inputs["lam"], canonical)
    assert not twistor.sections_equal(acted, canonical)


def _scalar_moufang(samples, mode, seed, tol):
    """The Moufang suite's (checked, failures, max_residual) as a loop over
    samples of scalar `Octonion` products: its reference."""
    rng = sampling.rng_from_seed(seed)
    draw = (sampling.random_rational_unit_octonion if mode == "exact"
            else sampling.random_unit_octonion_float)
    failures, worst = [], 0.0
    for _ in range(samples):
        x, y, z = draw(rng), draw(rng), draw(rng)
        laws = {name: law(x, y, z) for name, law in MOUFANG.items()}
        worst = max(worst, *map(residual, laws.values()))
        bad = [name for name, d in laws.items() if not d.is_zero(tol)]
        if bad:
            failures.append({"kind": "laws", "x": x.to_strings(),
                             "y": y.to_strings(), "z": z.to_strings(),
                             "laws": bad})
    return samples, failures, worst if mode == "float" else None


@pytest.mark.parametrize("mode, tol", [("exact", 0.0), ("float", 0.0),
                                       ("float", 1e-9)])
@pytest.mark.parametrize("samples", [0, 1, 5])
@pytest.mark.parametrize("bent", [False, True])
def test_batched_moufang_reports_as_the_scalar_loop(request, mode, tol,
                                                    samples, bent):
    if bent:
        request.getfixturevalue("bent_table")
    rep = suites.run_suite("moufang", samples=samples, mode=mode, seed=2,
                           tolerance=tol)
    assert (rep.checked, rep.failures, rep.max_residual) == \
        _scalar_moufang(samples, mode, 2, tol)
    # bent, or float at tolerance 0, the comparison met failures
    fails = bent or (mode == "float" and not tol)
    assert bool(rep.failures) == bool(samples and fails)


@pytest.mark.parametrize("seed", range(5))
def test_batched_moufang_rows_equal_the_scalar_laws(seed):
    # float rows: every coordinate of every difference, bit for bit
    rng = sampling.rng_from_seed(seed)
    x, y, z = sampling.random_unit_vector(rng, 8, 3 * 20).reshape(20, 3, 8).swapaxes(0, 1)
    for name, d in suites._moufang_laws(x, y, z).items():
        for i in range(20):
            want = MOUFANG[name](Octonion(x[i]), Octonion(y[i]), Octonion(z[i]))
            assert d[i].tobytes() == np.array(want.numerators).tobytes()
    # exact rows: numerators that are all 0, as the scalar differences are
    os = [sampling.random_rational_unit_octonion(rng) for _ in range(3 * 20)]
    x, y, z = EXACT.points(os)[0].reshape(20, 3, 8).swapaxes(0, 1)
    for name, d in suites._moufang_laws(x, y, z).items():
        assert d.shape == (20, 8) and not d.any()
        assert all(MOUFANG[name](*os[3 * i:3 * i + 3]).is_zero() for i in range(20))


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("samples", [0, 1])
@pytest.mark.parametrize("name", ["moufang", "prop21"])
def test_batched_suites_at_zero_and_one_sample(mode, samples, name):
    rep = suites.run_suite(name, samples=samples, mode=mode, seed=1)
    assert rep.ok and rep.checked == samples and rep.mode == mode
    assert (rep.max_residual is None) == (mode == "exact")
    if mode == "float" and not samples:
        assert rep.max_residual == 0.0


def test_a_non_finite_batched_product_raises(monkeypatch):
    # unit draws scaled to 1e200 overflow in the first products
    big = lambda rng, n, count: np.full((count, n), 1e200)  # noqa: E731
    monkeypatch.setattr(suites, "random_unit_vector", big)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(DegenerateInput):
        suites.run_suite("moufang", samples=2, mode="float", seed=1)
