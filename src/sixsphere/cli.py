"""Command-line front end.

Subcommands:
  verify     run one verification suite (or all of them) and report
  degree     run the mapping-degree engine on a named map
  companion  companion octonion of an 8x8 special-orthogonal matrix
  chern      the graded Chern-class pipeline with its derivation trace
  homotopy   homotopy-group bookkeeping for the structure spaces
  recover    recover x from a serialized 6x6 complex-structure matrix

Exit codes: 0 success, 1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import errno
import json
import math
import os
import sys
from typing import Optional

from . import chern, cstruct, degree as deg, homotopy, suites, twistor
from .errors import (BadConfig, OutOfRange, SixSphereError, TableError,
                     UnknownSuite)
from .octonion import CHECK_TOL, parse_scalar

USAGE_ERROR = 2
FAILURE = 1


def _write_json(payload, path: Optional[str]):
    text = json.dumps(payload, indent=2)
    if path in (None, "-"):
        print(text)
    else:
        try:
            with open(path, "w") as fh:
                fh.write(text + "\n")
        except OSError as e:
            raise BadConfig("cannot write %s: %s" % (path, e.strerror))


def _check_json_path(path: Optional[str]):
    """Raise `_write_json`'s error before the run when the --json path
    cannot be written (its folder is missing, is not a folder or is not
    writable, or the path is a folder), instead of after the whole run."""
    if path in (None, "-"):
        return
    folder = os.path.dirname(path) or "."
    if os.path.isdir(path):
        code = errno.EISDIR
    elif not os.path.exists(folder):
        code = errno.ENOENT
    elif not os.path.isdir(folder):
        code = errno.ENOTDIR
    elif not os.access(folder, os.W_OK | os.X_OK):
        code = errno.EACCES
    else:
        return
    raise BadConfig("cannot write %s: %s" % (path, os.strerror(code)))


def _read_matrix(cls, path: str):
    """The `cls` matrix stored as JSON: a list of rows, or an object whose
    "rows" is one.  Its mode is that of `cls.from_strings`: ints and fraction
    strings give an exact matrix, and any float makes the whole matrix
    float."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as e:
        raise BadConfig("cannot read %s: %s" % (path, e.strerror))
    except ValueError as e:
        raise BadConfig("%s is not JSON: %s" % (path, e))
    rows = raw.get("rows") if isinstance(raw, dict) else raw
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise BadConfig("%s does not hold a list of matrix rows" % path)
    if any(len(r) != len(rows[0]) for r in rows):
        raise BadConfig("%s holds rows of different lengths" % path)
    bad = [x for row in rows for x in row if not _is_entry(x)]
    if bad:
        raise BadConfig("%s holds %r, not a finite number or a fraction string"
                        % (path, bad[0]))
    return cls.from_strings([[str(x) for x in row] for row in rows])


def _is_entry(x) -> bool:
    """Whether x, read from JSON, is a matrix entry: a finite int or float, or
    a string that `parse_scalar` reads as a Fraction or a finite float."""
    if isinstance(x, bool):
        return False
    if isinstance(x, (int, float)):
        return math.isfinite(x)
    if isinstance(x, str):
        try:
            v = parse_scalar(x)
        except (ValueError, ZeroDivisionError):
            return False
        return not isinstance(v, float) or math.isfinite(v)
    return False


def _cmd_verify(args) -> int:
    table = homotopy.Pi7Table.from_csv(args.table) if args.table else None
    kwargs = dict(mode=args.mode, seed=args.seed, tolerance=args.tol,
                  table=table)
    if args.all:
        reports = suites.run_all(samples=args.samples, **kwargs)
    else:
        if not args.suite:
            print("verify: need --suite NAME or --all", file=sys.stderr)
            return USAGE_ERROR
        reports = [suites.run_suite(args.suite, samples=args.samples, **kwargs)]
    payload = [r.to_dict() for r in reports]
    for r in reports:
        status = "pass" if r.ok else "FAIL (%d failures)" % len(r.failures)
        res = "" if r.max_residual is None else "  max residual %.3g" % r.max_residual
        print("suite %-16s mode %-5s samples %-6d checks %-6d %s%s"
              % (r.suite, r.mode, r.samples, r.checked, status, res))
    if args.json:
        _write_json(payload if args.all else payload[0], args.json)
    return 0 if all(r.ok for r in reports) else FAILURE


def _cmd_degree(args) -> int:
    cfg = deg.EngineConfig(trials=args.trials)
    if args.starts is not None:
        cfg.n_starts = args.starts
    rep = deg.named_degree(args.map, seed=args.seed, config=cfg)
    print("map %-14s degree %d  (%d trials, %s preimages)"
          % (rep.name, rep.degree, len(rep.trials),
             "/".join(str(t.n_converged) for t in rep.trials)))
    if args.json:
        _write_json(rep.to_dict(), args.json)
    return 0


def _cmd_companion(args) -> int:
    lam = _read_matrix(twistor.SO7Element, args.matrix)
    res = twistor.companion(lam, tol=args.tol)
    payload = {"a": res.a.to_strings(), "residual": res.residual,
               "kernel_dim": res.kernel_dim}
    _write_json(payload, args.json)
    return 0


def _cmd_chern(args) -> int:
    if not args.lemma22:
        print("chern: only --lemma22 is implemented", file=sys.stderr)
        return USAGE_ERROR
    res = chern.euler_number_normal_bundle()
    if args.json:
        _write_json({"euler_number": res.euler_number,
                     "c1_complement": res.c1_complement.render(),
                     "c2_complement": res.c2_complement.render(),
                     "c2_normal": res.c2_normal.render(),
                     "trace": res.trace}, args.json)
    else:
        for line in res.trace:
            print(line)
        print("euler number: %d" % res.euler_number)
    return 0


def _cmd_homotopy(args) -> int:
    table = homotopy.Pi7Table.from_csv(args.table) if args.table else None
    try:
        if args.space == "s6":
            expr = homotopy.pi_structures_s6(args.k, table)
            label = "pi_%d of the structure space of the six-sphere" % args.k
        else:
            if args.genus is None:
                print("homotopy: --space xg needs --genus", file=sys.stderr)
                return USAGE_ERROR
            expr = homotopy.pi_structures_xg(args.genus, args.k, table)
            label = ("pi_%d of the structure space of the genus-%d connected sum"
                     % (args.k, args.genus))
    except OutOfRange as e:
        raise BadConfig(str(e))  # --k or --genus out of range: a usage error
    print("%s: %s" % (label, expr.render()))
    if args.json:
        _write_json({"space": args.space, "k": args.k, "genus": args.genus,
                     "group": expr.render(), "group_ascii": expr.render_ascii(),
                     "symbolic": expr.is_symbolic()}, args.json)
    return 0


def _cmd_recover(args) -> int:
    j = _read_matrix(cstruct.ComplexStructureR6, args.structure)
    x, jx = cstruct._recover(j)
    payload = {"x": x.to_strings(), "round_trip_distance": jx.distance(j)}
    _write_json(payload, args.json)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="sixsphere",
        description="octonion algebra, complex structures on the six-sphere, "
                    "mapping degrees, and their verification suites")
    sub = ap.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run verification suites")
    v.add_argument("--suite", help="suite name (see --list)")
    v.add_argument("--all", action="store_true", help="run every suite")
    v.add_argument("--list", action="store_true", help="list suite names")
    v.add_argument("--samples", type=int, default=None)
    v.add_argument("--mode", choices=("exact", "float"), default="exact")
    v.add_argument("--tol", type=float, default=CHECK_TOL)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--json", help="write the report to this path ('-' = stdout)")
    v.add_argument("--table", help="CSV of seven-sphere homotopy groups")

    d = sub.add_parser("degree", help="mapping-degree engine")
    d.add_argument("--map", required=True,
                   help="%s, or power:k for any k >= 1" % ", ".join(deg.MAPS))
    d.add_argument("--trials", type=int, default=3)
    d.add_argument("--seed", type=int, default=0)
    d.add_argument("--starts", type=int, default=None,
                   help="Newton starts drawn per pass (default %d).  With "
                   "two or more trials each target first runs one pass in "
                   "chunks of %d that may stop early, then, if the trials "
                   "disagree, one pass of every start, then two; --trials 1 "
                   "runs the two passes only"
                   % (deg.EngineConfig.n_starts, deg.START_CHUNK))
    d.add_argument("--json")

    c = sub.add_parser("companion", help="companion octonion of an SO(7) matrix")
    c.add_argument("--matrix", required=True, help="JSON file, 8x8 row-major")
    c.add_argument("--tol", type=float, default=CHECK_TOL)
    c.add_argument("--json")

    ch = sub.add_parser("chern", help="graded Chern-class pipeline")
    ch.add_argument("--lemma22", action="store_true",
                    help="run the Euler-number derivation and print the trace")
    ch.add_argument("--json")

    h = sub.add_parser("homotopy", help="homotopy-group bookkeeping")
    h.add_argument("--space", required=True, choices=("s6", "xg"))
    h.add_argument("--k", type=int, required=True)
    h.add_argument("--genus", type=int)
    h.add_argument("--table")
    h.add_argument("--json")

    r = sub.add_parser("recover", help="x from a 6x6 structure matrix")
    r.add_argument("--structure", required=True, help="JSON file, 6x6 row-major")
    r.add_argument("--json")
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    if args.command == "verify" and args.list:
        for name in suites.SUITES:
            print(name)
        return 0
    handlers = {"verify": _cmd_verify, "degree": _cmd_degree,
                "companion": _cmd_companion, "chern": _cmd_chern,
                "homotopy": _cmd_homotopy, "recover": _cmd_recover}
    try:
        _check_json_path(args.json)
        return handlers[args.command](args)
    except (UnknownSuite, BadConfig, TableError) as e:
        print("error: %s" % e, file=sys.stderr)
        return USAGE_ERROR
    except SixSphereError as e:
        print("error: %s" % e, file=sys.stderr)
        return FAILURE


if __name__ == "__main__":
    sys.exit(main())
