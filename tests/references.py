"""Per-vector and per-term references the tests compare the package against:
coordinates on the 6-plane of the structure matrices, and substitution in
graded polynomials.  No command needs them, so they live with the tests."""

from typing import Dict, Sequence

from sixsphere.chern import GradedPoly
from sixsphere.cstruct import R6_BASIS
from sixsphere.errors import InvalidStructure
from sixsphere.octonion import CHECK_TOL, Octonion, arithmetic_of


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
