"""Formal abelian-group bookkeeping for homotopy groups of structure spaces.

Group expressions are formal direct sums of three kinds of atoms: the
integers, finite cyclic groups, and symbolic homotopy groups of the
seven-sphere.  The toolkit never invents values for the symbolic atoms; a
user-supplied table (CSV with mandatory provenance) can resolve them.

Covered formulas:

  * structure space of the six-sphere:  Z/2 in degree one, and
    pi_k(S^7) + pi_{k+6}(S^7) in degree k >= 2;
  * structure space of the connected sum of g copies of S^3 x S^3:
    Z/(2-2g) in degree one, a case split in degree two, and
    pi_i + 2g * pi_{i+3} + pi_{i+6} of the seven-sphere above.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from .errors import OutOfRange, TableError

# atoms: ("Z",) | ("Zn", n>=2) | ("pi", m)
Atom = Tuple


def _atom_key(a: Atom):
    kind = a[0]
    if kind == "Z":
        return (0, 0)
    if kind == "Zn":
        return (1, a[1])
    return (2, a[1])


@dataclass(frozen=True)
class GroupExpr:
    """A formal direct sum in canonical order: free summands, then finite
    cyclic summands by modulus, then symbolic atoms by degree."""

    atoms: Tuple[Atom, ...]

    @staticmethod
    def zero() -> "GroupExpr":
        return GroupExpr(())

    @staticmethod
    def free() -> "GroupExpr":
        return GroupExpr((("Z",),))

    @staticmethod
    def cyclic(n: int) -> "GroupExpr":
        """Z/n with normalization: Z/0 is Z, Z/1 is trivial, Z/n = Z/|n|."""
        n = abs(int(n))
        if n == 0:
            return GroupExpr.free()
        if n == 1:
            return GroupExpr.zero()
        return GroupExpr((("Zn", n),))

    @staticmethod
    def sphere7(m: int) -> "GroupExpr":
        """The symbolic atom pi_m(S^7)."""
        if m < 0:
            raise OutOfRange("homotopy degree must be nonnegative")
        return GroupExpr((("pi", m),))

    def __add__(self, other: "GroupExpr") -> "GroupExpr":
        atoms = sorted(self.atoms + other.atoms, key=_atom_key)
        return GroupExpr(tuple(atoms))

    def __mul__(self, k: int) -> "GroupExpr":
        out = GroupExpr.zero()
        for _ in range(k):
            out = out + self
        return out

    __rmul__ = __mul__

    def is_symbolic(self) -> bool:
        return any(a[0] == "pi" for a in self.atoms)

    def render(self) -> str:
        if not self.atoms:
            return "0"
        parts = []
        for a in self.atoms:
            if a[0] == "Z":
                parts.append("ℤ")
            elif a[0] == "Zn":
                parts.append("ℤ/%d" % a[1])
            else:
                parts.append("π_%d(S⁷)" % a[1])
        return " ⊕ ".join(parts)

    def render_ascii(self) -> str:
        return (self.render().replace("ℤ", "Z").replace("⊕", "(+)")
                .replace("π", "pi").replace("S⁷", "S^7"))

    def resolve(self, table: "Pi7Table") -> "GroupExpr":
        """Substitute table entries for symbolic atoms; atoms missing from
        the table stay symbolic."""
        out = GroupExpr.zero()
        for a in self.atoms:
            if a[0] == "pi" and a[1] in table.entries:
                out = out + table.entries[a[1]]
            else:
                out = out + GroupExpr((a,))
        return out

    def __repr__(self) -> str:
        return "GroupExpr(%s)" % self.render_ascii()


def parse_group(text: str) -> GroupExpr:
    """Parse '0', 'Z', 'Z/8', 'Z (+) Z/2 (+) pi_13(S^7)' (unicode accepted)."""
    s = text.strip().replace("ℤ", "Z").replace("⊕", "+").replace("(+)", "+")
    s = s.replace("π", "pi").replace("S⁷", "S^7")
    if s in ("0", ""):
        return GroupExpr.zero()
    out = GroupExpr.zero()
    for tok in s.split("+"):
        tok = tok.strip()
        if not tok or tok == "0":
            continue
        if tok == "Z":
            out = out + GroupExpr.free()
        elif tok.startswith("Z/"):
            out = out + GroupExpr.cyclic(_table_int(tok[2:], "group token", tok))
        elif tok.startswith("pi_"):
            m = _table_int(tok[3:].split("(")[0], "group token", tok)
            out = out + GroupExpr.sphere7(m)
        else:
            raise TableError("cannot parse group token %r" % tok)
    return out


def _table_int(text: str, what: str, whole: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise TableError("cannot parse %s %r" % (what, whole)) from None


class Pi7Table:
    """User-supplied values of homotopy groups of the seven-sphere.

    CSV rows are `m,group,source`; the source column is mandatory for every
    row (these values are external inputs, and a table without provenance is
    rejected outright).
    """

    def __init__(self, entries: Dict[int, GroupExpr], provenance: Dict[int, str]):
        for m in entries:
            if not provenance.get(m, "").strip():
                raise TableError("table entry for m=%d lacks provenance" % m)
        self.entries = dict(entries)
        self.provenance = dict(provenance)

    @classmethod
    def from_csv(cls, path: str) -> "Pi7Table":
        entries: Dict[int, GroupExpr] = {}
        prov: Dict[int, str] = {}
        try:
            with open(path, newline="", encoding="utf-8") as fh:
                rows = list(csv.reader(fh))
        except OSError as e:
            raise TableError("cannot read %s: %s" % (path, e.strerror)) from None
        except (ValueError, csv.Error) as e:
            raise TableError("%s is not a CSV table: %s" % (path, e)) from None
        for row in rows:
            if not row or row[0].strip().startswith("#"):
                continue
            if row[0].strip().lower() in ("m", "degree"):
                continue
            if len(row) < 3:
                raise TableError("table rows need m,group,source: %r" % (row,))
            m = _table_int(row[0], "table degree", row[0].strip())
            entries[m] = parse_group(row[1])
            prov[m] = row[2].strip()
        return cls(entries, prov)


# ---------------------------------------------------------------------------
# the bookkeeping formulas
# ---------------------------------------------------------------------------

def pi_structures_s6(k: int, table: Optional[Pi7Table] = None) -> GroupExpr:
    """Homotopy of the space of orientation-compatible orthogonal almost
    complex structures on the six-sphere: Z/2 in degree one, and
    pi_k(S^7) + pi_{k+6}(S^7) for k >= 2.

    Degree zero is refused rather than guessed: the space is connected, but
    pi_0 is not a group in the same sense and the k >= 2 formula does not
    apply to it.
    """
    if k <= 0:
        raise OutOfRange("k must be >= 1")
    if k == 1:
        return GroupExpr.cyclic(2)
    out = GroupExpr.sphere7(k) + GroupExpr.sphere7(k + 6)
    return out.resolve(table) if table else out


def pi_structures_xg(g: int, i: int, table: Optional[Pi7Table] = None) -> GroupExpr:
    """Homotopy of the structure space of the connected sum of g copies of
    S^3 x S^3: Z/(2-2g) in degree one (so Z for g = 1); Z + Z/2 for g = 1 and
    Z/2 otherwise in degree two; and pi_i + 2g pi_{i+3} + pi_{i+6} of the
    seven-sphere in degrees >= 3."""
    if g < 0:
        raise OutOfRange("g must be >= 0")
    if i <= 0:
        raise OutOfRange("i must be >= 1")
    if i == 1:
        return GroupExpr.cyclic(2 - 2 * g)
    if i == 2:
        if g == 1:
            return GroupExpr.free() + GroupExpr.cyclic(2)
        return GroupExpr.cyclic(2)
    out = (GroupExpr.sphere7(i) + 2 * g * GroupExpr.sphere7(i + 3)
           + GroupExpr.sphere7(i + 6))
    return out.resolve(table) if table else out
