"""Graded integer polynomial arithmetic and a small Chern-class pipeline.

Computes, symbolically and with every step checked:

  * truncated inverses of total-class series (Whitney complement classes),
  * the second Chern class of a line-bundle tensor rank-two bundle via its
    splitting into degree-two roots, rewritten in elementary symmetric terms,
  * the Euler number of the normal bundle of the plane-of-complex-lines
    inside the oriented two-plane Grassmannian of R^6, which comes out 1.

Polynomials are sparse maps monomial-exponents -> int with an even degree
assigned to each variable and eager truncation above a total-degree bound;
everything in sight has degree at most six.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import NonUnitLeadingTerm, NotSymmetric

Monomial = Tuple[int, ...]


class GradedPoly:
    """Integer polynomial in named variables of fixed even degrees, truncated
    above `truncation` (weighted total degree; None = no truncation)."""

    __slots__ = ("vars", "degrees", "truncation", "terms")

    def __init__(self, variables: Sequence[str], degrees: Sequence[int],
                 terms: Optional[Dict[Monomial, int]] = None,
                 truncation: Optional[int] = None):
        self.vars = tuple(variables)
        self.degrees = tuple(degrees)
        self.truncation = truncation
        self.terms: Dict[Monomial, int] = {}
        if terms:
            for m, c in terms.items():
                if c == 0:
                    continue
                if self._mdeg(m) <= self._cap():
                    self.terms[tuple(m)] = self.terms.get(tuple(m), 0) + c
            self.terms = {m: c for m, c in self.terms.items() if c != 0}

    def _cap(self) -> int:
        return self.truncation if self.truncation is not None else 10 ** 9

    def _mdeg(self, m: Monomial) -> int:
        return sum(e * d for e, d in zip(m, self.degrees))

    # -- constructors --------------------------------------------------------

    def _make(self, terms: Dict[Monomial, int]) -> "GradedPoly":
        return GradedPoly(self.vars, self.degrees, terms, self.truncation)

    def constant(self, c: int) -> "GradedPoly":
        return self._make({(0,) * len(self.vars): c})

    def variable(self, name: str) -> "GradedPoly":
        i = self.vars.index(name)
        m = [0] * len(self.vars)
        m[i] = 1
        return self._make({tuple(m): 1})

    # -- ring operations -----------------------------------------------------

    def __add__(self, other) -> "GradedPoly":
        other = self._coerce(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, 0) + c
        return self._make(out)

    def __sub__(self, other) -> "GradedPoly":
        return self + (-self._coerce(other))

    def __neg__(self) -> "GradedPoly":
        return self._make({m: -c for m, c in self.terms.items()})

    def __mul__(self, other) -> "GradedPoly":
        other = self._coerce(other)
        out: Dict[Monomial, int] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                out[m] = out.get(m, 0) + c1 * c2
        return self._make(out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "GradedPoly":
        out = self.constant(1)
        for _ in range(k):
            out = out * self
        return out

    def _coerce(self, other) -> "GradedPoly":
        if isinstance(other, GradedPoly):
            return other
        return self.constant(int(other))

    def __eq__(self, other) -> bool:
        if not isinstance(other, GradedPoly):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    # -- structure -----------------------------------------------------------

    def homogeneous_part(self, degree: int) -> "GradedPoly":
        return self._make({m: c for m, c in self.terms.items()
                           if self._mdeg(m) == degree})

    def coefficient(self, m: Monomial) -> int:
        return self.terms.get(tuple(m), 0)

    def max_degree(self) -> int:
        return max((self._mdeg(m) for m in self.terms), default=0)

    def substitute(self, assignment: Dict[str, "GradedPoly"]) -> "GradedPoly":
        """Substitute polynomials (of the same ring) for variables."""
        out = self.constant(0)
        for m, c in self.terms.items():
            term = self.constant(c)
            for name, e in zip(self.vars, m):
                if e == 0:
                    continue
                base = assignment.get(name)
                if base is None:
                    base = self.variable(name)
                term = term * base ** e
            out = out + term
        return out

    def swap_vars(self, a: str, b: str) -> "GradedPoly":
        ia, ib = self.vars.index(a), self.vars.index(b)
        out: Dict[Monomial, int] = {}
        for m, c in self.terms.items():
            mm = list(m)
            mm[ia], mm[ib] = mm[ib], mm[ia]
            out[tuple(mm)] = c
        return self._make(out)

    def render(self) -> str:
        """Canonical string: monomials by increasing degree then lexicographic,
        exponents as ^, products juxtaposed with *."""
        if not self.terms:
            return "0"
        keyed = sorted(self.terms.items(), key=lambda mc: (self._mdeg(mc[0]), mc[0]))
        parts = []
        for m, c in keyed:
            factors = []
            for name, e in zip(self.vars, m):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append("%s^%d" % (name, e))
            body = "*".join(factors) if factors else "1"
            if c == 1 and factors:
                parts.append(body)
            elif c == -1 and factors:
                parts.append("-" + body)
            else:
                parts.append("%d*%s" % (c, body) if factors else str(c))
        s = parts[0]
        for p in parts[1:]:
            s += " - " + p[1:] if p.startswith("-") else " + " + p
        return s

    def __repr__(self) -> str:
        return "GradedPoly(%s)" % self.render()


def ring(variables: Sequence[Tuple[str, int]],
         truncation: Optional[int] = None) -> Dict[str, GradedPoly]:
    """Convenience: {'one': 1, name: generator, ...} for a graded ring."""
    names = [n for n, _ in variables]
    degs = [d for _, d in variables]
    base = GradedPoly(names, degs, None, truncation)
    out = {"one": base.constant(1)}
    for n in names:
        out[n] = base.variable(n)
    return out


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def whitney_complement(total: GradedPoly, rank: int) -> GradedPoly:
    """Truncated multiplicative inverse of a total class starting with 1:
    the total class of the complementary bundle, kept to degree 2*rank."""
    zero_mon = (0,) * len(total.vars)
    if total.coefficient(zero_mon) != 1:
        raise NonUnitLeadingTerm("total class must have constant term 1")
    cap = 2 * rank
    inv = total.constant(1)
    # build degree by degree: inv_d = -sum_{0<k<=d} t_k inv_{d-k}
    for d in range(2, cap + 1, 2):
        acc = total.constant(0)
        for k in range(2, d + 1, 2):
            acc = acc + total.homogeneous_part(k) * inv.homogeneous_part(d - k)
        inv = inv + (-acc).homogeneous_part(d)
    out = total.constant(0)
    for d in range(0, cap + 1, 2):
        out = out + inv.homogeneous_part(d)
    return out


@dataclass
class TensorChernResult:
    """c2 of (line bundle) tensor (rank-two bundle) in terms of the Chern
    classes of the factors."""

    expanded: GradedPoly                 # in the root variables x1, x2, x3
    coefficients: Dict[str, int]         # over the basis monomials below
    rendered: str

    BASIS = ("c1(L)^2", "c1(L)*c1(E)", "c1(E)^2", "c2(E)")


def tensor_line_chern() -> TensorChernResult:
    """Second Chern class of a tensor product of a line bundle (root x1) and
    a rank-two bundle (roots x2, x3).

    The roots of the tensor product are x1+x2 and x1+x3, so c2 is their
    product; the result is symmetric in (x2, x3) and is rewritten in
    c1(E) = x2+x3 and c2(E) = x2*x3 by direct substitution, verified by
    re-expanding.
    """
    r = ring([("x1", 2), ("x2", 2), ("x3", 2)])
    x1, x2, x3 = r["x1"], r["x2"], r["x3"]
    c2 = (x1 + x2) * (x1 + x3)
    if c2.swap_vars("x2", "x3") != c2:
        raise NotSymmetric("c2 of the tensor bundle must be symmetric in the roots")
    e1 = x2 + x3
    e2 = x2 * x3
    # ansatz: c2 = A x1^2 + B x1 e1 + C e1^2 + D e2; match coefficients
    a = c2.coefficient((2, 0, 0))
    b = c2.coefficient((1, 1, 0))
    cc = c2.coefficient((0, 2, 0))
    d = c2.coefficient((0, 1, 1)) - 2 * cc
    recon = a * x1 ** 2 + b * (x1 * e1) + cc * e1 ** 2 + d * e2
    if recon != c2:
        raise NotSymmetric("rewrite in elementary symmetric polynomials failed")
    coeffs = dict(zip(TensorChernResult.BASIS, (a, b, cc, d)))
    parts = [("" if v == 1 else "%d*" % v) + n
             for n, v in zip(TensorChernResult.BASIS, (a, b, cc, d)) if v]
    return TensorChernResult(c2, coeffs, " + ".join(parts))


@dataclass
class EulerComputation:
    euler_number: int
    c1_complement: GradedPoly
    c2_complement: GradedPoly
    c2_normal: GradedPoly
    trace: List[str] = field(default_factory=list)


def euler_number_normal_bundle() -> EulerComputation:
    """Euler number of the normal bundle of the complex-line locus inside
    the oriented Grassmannian of 2-planes in R^6.

    The normal bundle is (tautological line) tensor (complementary rank two)
    over the complex projective plane; everything is expressed in the
    generator a = c1(tautological) with a^3 = 0, and the Euler number is the
    coefficient of a^2 in the resulting second Chern class.
    """
    trace: List[str] = []
    r = ring([("a", 2)], truncation=4)
    a = r["a"]
    one = r["one"]

    total = one + a
    comp = whitney_complement(total, 2)
    c1p = comp.homogeneous_part(2)
    c2p = comp.homogeneous_part(4)
    trace.append("total class of tautological line: %s" % total.render())
    trace.append("inverse (complement) total class: %s" % comp.render())
    trace.append("c1(complement) = %s" % c1p.render())
    trace.append("c2(complement) = %s" % c2p.render())

    tensor = tensor_line_chern()
    trace.append("c2(L (x) E) = %s" % tensor.rendered)

    # substitute c1(L) = a, c1(E) = -a, c2(E) = a^2
    cf = tensor.coefficients
    c2n = (cf["c1(L)^2"] * a * a
           + cf["c1(L)*c1(E)"] * (a * c1p)
           + cf["c1(E)^2"] * (c1p * c1p)
           + cf["c2(E)"] * c2p)
    trace.append("c2(normal) = a*a + a*(%s) + %s = %s"
                 % (c1p.render(), c2p.render(), c2n.render()))
    euler = c2n.coefficient((2,))
    trace.append("Euler number = coefficient of a^2 = %d" % euler)
    return EulerComputation(euler, c1p, c2p, c2n, trace)
