"""Compare the degree engine's reports between the working tree and a parent
revision, request by request.

    python3 tools/degree_scan.py --parent HEAD~1 --seeds 0:260

For every bench seed in [A, B) it runs round 0 of the `degree-engine`
requests of `bench/workloads.py` (13 requests per seed, everything a
`--seconds 25` bench run sends) on the working tree and on a copy of the
parent revision extracted with `git archive` into a temporary directory.
Each side runs in its own process, with its own `src/` and `bench/`.  It
prints the requests that fail on each side (an error, or a check of the
bench's `verify` that fails), every integer field or target that differs
between two passing reports, and the largest move of each float field.
For each map it prints the Newton rows each side evaluated and the
`_Charted.evaluate` calls it made, summed over the seeds.  The exit code is
0 when both sides fail the same requests with the same messages and every
integer field and target agrees, 1 otherwise; the row and call counts are
reported, not checked.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: the fields of a trial compared exactly
EXACT = ("degree", "signs", "n_converged", "resamples", "target")
#: the float fields of a trial, compared by their largest move
FLOATS = ("max_residual", "min_abs_det", "preimages")
#: the thread counts of every BLAS build numpy may use, pinned as the bench
#: pins them
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", help="the revision to compare against")
    ap.add_argument("--seeds", required=True,
                    help="bench seeds A:B, A included and B excluded")
    ap.add_argument("--worker", action="store_true",
                    help="run the requests of the tree in the working "
                         "directory and print one JSON line each")
    args = ap.parse_args(argv)
    lo, _, hi = args.seeds.partition(":")
    args.seeds = range(int(lo), int(hi))
    if not args.worker and not args.parent:
        ap.error("--parent is required")
    return args


def _count_evaluations(degree) -> list:
    """Wrap `_Charted.evaluate` of the degree module so that it counts its
    calls and rows into the returned [calls, rows].  An engine older than
    that method counts nothing, and its lines carry null counts."""
    evaluate = getattr(getattr(degree, "_Charted", None), "evaluate", None)
    if evaluate is None:
        return [None, None]
    counts = [0, 0]

    def counted(self, s, *args, **kwargs):
        counts[0] += 1
        counts[1] += len(s)
        return evaluate(self, s, *args, **kwargs)

    degree._Charted.evaluate = counted
    return counts


def _worker(seeds) -> None:
    """Run the requests with the `src/` and `bench/` of the working
    directory, one JSON line per request on standard output, with the
    Newton rows and evaluate calls it took."""
    sys.path[:0] = [str(Path.cwd() / "src"), str(Path.cwd() / "bench")]
    import workloads
    from sixsphere import degree

    counts = _count_evaluations(degree)
    for seed in seeds:
        for req in workloads.build_round("degree-engine", seed, 0):
            line = {"seed": seed, "label": req.label, "report": None,
                    "error": None}
            if counts[0] is not None:
                counts[:] = 0, 0
            try:
                rep = req.call()
            except Exception as err:  # a failed request is a result here
                line["error"] = "%s: %s" % (type(err).__name__, err)
            else:
                line["report"] = rep.to_dict()
                problems = req.verify(rep)[1]
                if problems:
                    line["error"] = "; ".join(problems)
            line["calls"], line["rows"] = counts
            print(json.dumps(line), flush=True)


def _run_side(tree: Path, seeds, out) -> subprocess.Popen:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               **{name: "1" for name in BLAS_ENV})
    return subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--worker",
         "--seeds", "%d:%d" % (seeds.start, seeds.stop)],
        cwd=str(tree), env=env, stdout=out)


def _move(a, b) -> float:
    """The largest absolute difference of two equal-shaped float fields."""
    if isinstance(a, list):
        return max((_move(x, y) for x, y in zip(a, b)), default=0.0)
    if a == b:
        return 0.0
    return abs(a - b) if math.isfinite(a) and math.isfinite(b) else math.inf


def compare(parent: list, change: list) -> int:
    """Print the differences of two lists of request lines; return the
    number of problems (failure mismatches and integer differences)."""
    problems = identical = 0
    moves = {f: (0.0, None) for f in FLOATS}
    for p, c in zip(parent, change):
        where = "seed %d %s" % (p["seed"], p["label"])
        for side, line in (("parent", p), ("change", c)):
            if line["error"]:
                print("FAILED %s %s: %s" % (side, where, line["error"]))
        if p["error"] or c["error"]:
            if p["error"] != c["error"]:
                problems += 1
                print("MISMATCH %s: the sides fail differently" % where)
            continue
        rp, rc = p["report"], c["report"]
        identical += rp == rc
        diffs = [] if rp["degree"] == rc["degree"] else ["degree"]
        if len(rp["trials"]) != len(rc["trials"]):
            diffs.append("trial count")
        for i, (tp, tc) in enumerate(zip(rp["trials"], rc["trials"])):
            diffs += ["trial %d %s" % (i, k) for k in EXACT if tp[k] != tc[k]]
            if tp["n_converged"] != tc["n_converged"]:
                continue
            for f in FLOATS:
                move = _move(tp[f], tc[f])
                if move > moves[f][0]:
                    moves[f] = (move, where)
        if diffs:
            problems += 1
            print("DIFFERS %s: %s" % (where, ", ".join(diffs)))
    fails = [sum(bool(line["error"]) for line in side)
             for side in (parent, change)]
    print("requests %d, failed parent %d change %d, byte-identical reports %d"
          % (len(parent), fails[0], fails[1], identical))
    for f, (move, where) in moves.items():
        print("largest move %s %.3g%s" % (f, move,
                                          " (%s)" % where if where else ""))
    _print_work(parent, change)
    print("problems %d" % problems)
    return problems


def _print_work(parent: list, change: list) -> None:
    """Print, map by map, the Newton rows and evaluate calls of each side,
    summed over the request lines, and whether the rows agree (unknown
    when a side did not count them)."""
    work = {}
    for side, lines in enumerate((parent, change)):
        for line in lines:
            sums = work.setdefault(line["label"], [[0, 0], [0, 0]])[side]
            for i, key in enumerate(("rows", "calls")):
                sums[i] = (None if sums[i] is None or line.get(key) is None
                           else sums[i] + line[key])
    for label, sides in work.items():
        print("work %s rows parent %s change %s, calls parent %s change %s"
              % (label, sides[0][0], sides[1][0], sides[0][1], sides[1][1]))
    rows = [(p[0], c[0]) for p, c in work.values()]
    print("newton rows per map %s" % (
        "unknown" if None in sum(rows, ()) else
        "equal" if all(p == c for p, c in rows) else "differ"))


def main(argv=None) -> int:
    args = _parse(argv)
    if args.worker:
        _worker(args.seeds)
        return 0
    with tempfile.TemporaryDirectory(prefix="degree-scan-") as tmp:
        tmp = Path(tmp)
        parent_tree = tmp / "parent"
        parent_tree.mkdir()
        archive = subprocess.run(["git", "-C", str(ROOT), "archive",
                                  args.parent], check=True,
                                 stdout=subprocess.PIPE).stdout
        subprocess.run(["tar", "-x", "-C", str(parent_tree)], input=archive,
                       check=True)
        outs = [tmp / "parent.jsonl", tmp / "change.jsonl"]
        with outs[0].open("w") as fp, outs[1].open("w") as fc:
            procs = [_run_side(parent_tree, args.seeds, fp),
                     _run_side(ROOT, args.seeds, fc)]
            codes = [proc.wait() for proc in procs]
        if codes != [0, 0]:
            print("a side exited with %s" % codes, file=sys.stderr)
            return 2
        lines = [[json.loads(line) for line in out.read_text().splitlines()]
                 for out in outs]
    return 1 if compare(*lines) else 0


if __name__ == "__main__":
    sys.exit(main())
