"""Suites that fail report failures whose inputs read back.

Two ways make the sampled suites fail: a tolerance of 0 in float mode,
where rounding alone exceeds it, and a bent multiplication table in exact
mode (the signs of e3 e5 and e5 e3 flipped, the product recompiled from
it).  Each entry must carry a string `kind`, and its octonions, rotations
and structures must read back through `from_strings`.
"""

from fractions import Fraction

import pytest

from sixsphere import octonion, suites
from sixsphere.cstruct import ComplexStructureR6
from sixsphere.octonion import Octonion, residual
from sixsphere.twistor import SO7Element

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


@pytest.fixture
def bent_table(monkeypatch):
    sign = [row[:] for row in octonion.MUL_SIGN]
    sign[3][5] = -sign[3][5]
    sign[5][3] = -sign[5][3]
    monkeypatch.setattr(octonion, "MUL_SIGN", sign)
    monkeypatch.setattr(octonion, "_product", octonion._compile_product())


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
