"""Differential test of the two arithmetic modes: each function that asks the
arithmetic context runs on the same seeded rational input in exact mode and,
with the input rounded to floats, in float mode; the float result must match
float(exact) within CHECK_TOL."""

import numpy as np
import pytest

from sixsphere import cstruct, twistor
from sixsphere.linalg import mat_to_float
from sixsphere.octonion import CHECK_TOL, Octonion
from sixsphere.sampling import (random_rational_circle_point,
                                random_rational_imaginary_unit,
                                random_rational_tangent,
                                random_rational_unit_octonion, rng_from_seed)


def _flt(o: Octonion) -> Octonion:
    return Octonion([float(c) for c in o.coords])


def _ray(o: Octonion) -> np.ndarray:
    """Unit float vector along o, with the sign fixed by its largest coordinate."""
    a = o.to_float_array()
    a = a / np.linalg.norm(a)
    return a if a[np.argmax(np.abs(a))] > 0 else -a


def _line_projector(line: cstruct.ComplexLine) -> np.ndarray:
    u, ju = line.u.to_float_array(), line.ju.to_float_array()
    return (np.outer(u, u) + np.outer(ju, ju)) / (u @ u)


def _both(f, *args):
    """f on the exact arguments and on their float roundings."""
    def rounded(a):
        if isinstance(a, Octonion):
            return _flt(a)
        if isinstance(a, cstruct.ComplexStructureR6):
            return cstruct.ComplexStructureR6(a.as_array())
        if isinstance(a, twistor.SO7Element):
            return twistor.SO7Element(mat_to_float(a.rows))
        return float(a)
    return f(*args), f(*[rounded(a) for a in args])


def _j_from_octonion(d):
    e, f = _both(cstruct.j_from_octonion, d["x"])
    return e.as_array(), f.as_array()


def _recover_x(d):
    e, f = _both(cstruct.recover_x, cstruct.j_from_octonion(d["x"]))
    return _ray(e), _ray(f)


def _equivalent(d):
    x, c, s = d["x"], d["c"], d["s"]
    shifted = (c * Octonion.one() + s * Octonion.basis(1)) * x
    pairs = [_both(cstruct.equivalent, x, z) for z in (shifted, d["y"])]
    return [e for e, _ in pairs], [f for _, f in pairs]


def _quaternion_coordinate_form(d):
    e, f = _both(cstruct.quaternion_coordinate_form, d["x"])
    return ([*e.l.to_float_array(), float(e.cos_2theta), e.rotation_sense],
            [*f.l.to_float_array(), float(f.cos_2theta), f.rotation_sense])


def _common_line(d):
    j1, j2 = (cstruct.j_from_octonion(d[k]) for k in ("x", "y"))
    e, f = _both(cstruct.common_line, j1, j2)
    return _line_projector(e), _line_projector(f)


def _companion(d):
    lam = twistor.random_so7_exact(rng_from_seed(d["seed"]))
    e, f = _both(twistor.companion, lam)
    return [*_ray(e.a), e.kernel_dim], [*_ray(f.a), f.kernel_dim]


def _triality_cube(d):
    e, f = _both(twistor.triality_cube, d["x"], d["p"], d["v"])
    return vars(e), vars(f)


def _loop_lift_identity(d):
    return _both(twistor.loop_lift_identity, d["c"], d["s"], d["p"], d["v"])


CASES = {
    "j_from_octonion": _j_from_octonion,
    "recover_x": _recover_x,
    "equivalent": _equivalent,
    "quaternion_coordinate_form": _quaternion_coordinate_form,
    "common_line": _common_line,
    "companion": _companion,
    "triality_cube": _triality_cube,
    "loop_lift_identity": _loop_lift_identity,
}


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("name", list(CASES))
def test_float_path_matches_exact_path(name, seed):
    rng = rng_from_seed(seed)
    p = random_rational_imaginary_unit(rng)
    c, s = random_rational_circle_point(rng)
    data = {"seed": seed, "x": random_rational_unit_octonion(rng),
            "y": random_rational_unit_octonion(rng), "p": p,
            "v": random_rational_tangent(rng, p), "c": c, "s": s}
    exact, flt = CASES[name](data)
    if isinstance(exact, dict):
        assert exact == flt
    else:
        diff = np.abs(np.asarray(exact, dtype=float) - np.asarray(flt, dtype=float))
        assert np.max(diff) <= CHECK_TOL
