"""sixsphere benchmark: closed-loop workloads over the public API.

Run from the root of a source checkout:

    python3 bench/run.py --workload exact-sweep --seed 1 --seconds 25 --trace 0

`--trace 0` measures the end-to-end metrics with nothing wrapped.
`--trace 1` runs every round twice, first untraced and then with every
module's public functions wrapped in spans, and reports the per-layer
metrics and the tracing overhead.  `--smoke` runs one short round of cheap
requests.  Times are reported at the reference machine speed (see
probe.py); the raw wall-clock values are printed beside them.
Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  The full
result, and in traced runs the spans, are written under .bench_out/.
See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("exact-sweep", "float-sweep", "degree-engine")
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# BLAS runs single-threaded: the matrices here are at most 64x8 or batches
# of 7x7, below where a BLAS splits work, and extra threads only spin.
BLAS_THREADS = 1
SETUP_REPS = 9
TAIL_BEYOND = 10

_now = time.perf_counter


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="one round of a few cheap requests")
    return ap.parse_args(argv)


def _git_commit() -> str:
    try:
        ref = (ROOT / ".git" / "HEAD").read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def _threads() -> int:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return 0


def _environment(args, nproc: int) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = "%s %s" % (blas.get("name"), blas.get("version"))
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": blas, "blas_threads": BLAS_THREADS, "nproc": nproc,
        "commit": _git_commit(), "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "smoke": args.smoke,
    }


def measure_setup(workload: str, reps: int) -> tuple:
    """Median time of a fresh interpreter that imports sixsphere and finishes
    the workload's lazy set-up: (at reference speed, raw)."""
    from probe import Sampler
    from workloads import SETUP_CODE
    code = "import sys; sys.path.insert(0, %r); import sixsphere; %s" % (
        str(SRC), SETUP_CODE[workload])
    probes = Sampler()  # probes only between children, no timer
    probes.sample()
    spans = []
    for _ in range(reps):
        t0 = _now()
        # no timeout: with one, the wait polls in steps of up to 50 ms
        subprocess.run([sys.executable, "-c", code], check=True,
                       stdout=subprocess.DEVNULL)
        spans.append((t0, _now()))
        probes.sample()
    scaled = [(t1 - t0) * probes.window(t0, t1)[0] for t0, t1 in spans]
    return statistics.median(scaled), statistics.median(t1 - t0 for t0, t1 in spans)


def execute(req, rid: int, tracer=None) -> dict:
    """Send one request and check its result."""
    import layers
    from workloads import digest
    sid = None
    if tracer is not None:
        sid = tracer.begin_request(rid)
        if req.family is not None:
            layers.wrap_map(tracer, req.family)
    report = None
    t0 = _now()
    try:
        if tracer is not None and req.family is not None:
            with layers.newton_traced(tracer):
                report = req.call()
        else:
            report = req.call()
        latency = _now() - t0
        checks, problems = req.verify(report)
        fields_digest = digest(req.fields(report))
    except Exception as e:  # a failed request is counted, not fatal
        latency = _now() - t0
        checks, problems, fields_digest = 0, ["%s: %s" % (type(e).__name__, e)], None
    finally:
        if sid is not None:
            tracer.end_request(sid)
    return {"label": req.label, "seed": req.seed, "start": t0,
            "latency_s": latency, "busy_s": _now() - t0,
            "checks": checks if not problems else 0,
            "problems": problems, "digest": fields_digest,
            "report": report if req.family is not None else None}


def run_pass(args, rounds, tracer=None, smoke: bool = False) -> list:
    """Closed loop, one request in flight, over the given rounds.  Each
    record gets its times net of the speed probes and the scale to the
    reference speed (probe.py)."""
    from probe import Sampler
    from workloads import PROBE, build_round
    records = []
    with Sampler(PROBE[args.workload]) as probes:
        probes.sample()
        for rnd in rounds:
            for i, req in enumerate(build_round(args.workload, args.seed, rnd, smoke)):
                rec = execute(req, 100 * rnd + i, tracer)
                rec["round"] = rnd
                records.append(rec)
                probes.sample()
    for rec in records:
        start = rec["start"]
        rec["scale"], inside = probes.window(start, start + rec["busy_s"])
        rec["probes"] = inside
        rec["latency_s"] -= sum(d for t, d in inside if t < start + rec["latency_s"])
        rec["busy_s"] -= sum(d for _, d in inside)
    return records


def round_count(args) -> int:
    """Rounds in a run: as many as fill --seconds at the nominal round time.
    Fixing the count from --seconds alone, rather than stopping on the
    clock, keeps the request list a function of --seed and --seconds, so
    two runs compare request by request."""
    from workloads import NOMINAL_ROUND_S
    if args.smoke:
        return 1
    return max(1, round(args.seconds / NOMINAL_ROUND_S[args.workload]))


def checks_per_s(records, raw: bool = False) -> float:
    busy = sum(r["busy_s"] * (1.0 if raw else r["scale"]) for r in records)
    return sum(r["checks"] for r in records) / busy


def _p50_tail(latencies) -> tuple:
    """Median and the latency at the highest percentile with TAIL_BEYOND
    requests beyond it, in ms, and the tail's rank."""
    lat = sorted(latencies)
    k = max(0, len(lat) - TAIL_BEYOND - 1)
    return 1000.0 * statistics.median(lat), 1000.0 * lat[k], k


def end_to_end(records, setup: tuple) -> tuple:
    """{name: (value, unit, raw value)} and the tail's percentile note."""
    p50, tail, k = _p50_tail(r["latency_s"] * r["scale"] for r in records)
    raw_p50, raw_tail, _ = _p50_tail(r["latency_s"] for r in records)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "checks_per_s": (checks_per_s(records), "1/s",
                         checks_per_s(records, raw=True)),
        "request_p50_ms": (p50, "ms", raw_p50),
        "request_tail_ms": (tail, "ms", raw_tail),
        "setup_s": (setup[0], "s", setup[1]),
        "peak_rss_mb": (rss, "MB", rss),
    }
    n = len(records)
    tail_note = "p%.1f, %d of %d requests beyond it" % (100.0 * k / n, n - 1 - k, n)
    return metrics, tail_note


def round_digests(records) -> list:
    from workloads import digest
    out = []
    for rnd in sorted({r["round"] for r in records}):
        ds = [r["digest"] for r in records if r["round"] == rnd]
        out.append({"round": rnd, "requests": len(ds), "sha256": digest(ds)})
    return out


def traced_run(args, rounds: int) -> tuple:
    """Each round untraced and then traced, so that both passes see the same
    machine and the overhead compares like with like."""
    import layers
    from tracer import Tracer
    tracer = Tracer()
    records, traced = [], []
    for rnd in range(rounds):
        records += run_pass(args, [rnd], smoke=args.smoke)
        layers.install(tracer)
        try:
            traced += run_pass(args, [rnd], tracer, args.smoke)
        finally:
            tracer.restore()
    for plain, tr in zip(records, traced):
        if tr["digest"] != plain["digest"] and not tr["problems"]:
            tr["problems"].append("traced result differs from untraced")
    return tracer, records, traced


def layer_metrics(tracer, spans, traced, overhead: float) -> dict:
    import layers
    from sixsphere.degree import EngineConfig
    scale = statistics.median(r["scale"] for r in traced)
    values = layers.layer_metrics(
        tracer.names, dict(spans, self=spans["self"] * scale),
        [r["report"] for r in traced if r["report"] is not None],
        EngineConfig().n_starts, overhead)
    units = layers.metric_units()
    return {k: (values[k], units[k][0], None) for k in units}


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "sixsphere" / "__init__.py").is_file():
        print("bench: no sixsphere sources under %s; run from the root of a "
              "sixsphere checkout" % SRC, file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    # numpy reads these at import, so nothing here imports numpy before this
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    import sixsphere
    if Path(sixsphere.__file__).resolve().parent != (SRC / "sixsphere").resolve():
        print("bench: imported sixsphere from %s, not from %s"
              % (sixsphere.__file__, SRC), file=sys.stderr)
        return 2
    from workloads import SETUP_CODE

    env = _environment(args, nproc)
    setup = measure_setup(args.workload, 1 if args.smoke else SETUP_REPS)
    exec(SETUP_CODE[args.workload], {})
    rounds = round_count(args)
    run_pass(args, [rounds], smoke=True)  # warm-up, not measured

    problems, notes, traced = [], {}, []
    if args.trace:
        tracer, records, traced = traced_run(args, rounds)
        spans = tracer.arrays()
        tracer.discount(spans, [p for r in traced for p in r["probes"]])
        problems = tracer.check_nesting(spans)
        overhead = 100.0 * (checks_per_s(records) / checks_per_s(traced) - 1.0)
        env["trace_overhead_pct"] = overhead
        metrics = layer_metrics(tracer, spans, traced, overhead)
    else:
        records = run_pass(args, range(rounds), smoke=args.smoke)
        metrics, notes["request_tail_ms"] = end_to_end(records, setup)
    everything = records + traced
    attempted = len(everything)
    failed = sum(1 for r in everything if r["problems"])
    correct = failed == 0 and not problems
    env["threads"] = _threads()
    env["speed_scale_median"] = statistics.median(r["scale"] for r in everything)

    print("env " + json.dumps(env, sort_keys=True))
    digests = round_digests(records)
    for d in digests:
        print("digest round %d requests %d sha256 %s"
              % (d["round"], d["requests"], d["sha256"]))
    for r in everything:
        for p in r["problems"]:
            print("FAILED %s seed %d: %s" % (r["label"], r["seed"], p))
    for p in problems:
        print("FAILED trace: %s" % p)
    for label in dict.fromkeys(r["label"] for r in records):
        lat = [r["latency_s"] * r["scale"] for r in records if r["label"] == label]
        print("request %s n %d median_ms %.6g max_ms %.6g"
              % (label, len(lat), 1000 * statistics.median(lat), 1000 * max(lat)))
    for name, (value, unit, raw) in metrics.items():
        extra = [] if raw is None else ["raw %.6g %s" % (raw, unit)]
        extra += [notes[name]] if name in notes else []
        print("metric %s %.6g %s%s" % (name, value, unit,
                                       " (%s)" % "; ".join(extra) if extra else ""))
    print("metric error_rate %.6g ratio (%d failed of %d attempted)"
          % (failed / attempted, failed, attempted))

    OUT.mkdir(exist_ok=True)
    stem = OUT / ("%s-seed%d-trace%d" % (args.workload, args.seed, args.trace))
    if args.trace:
        tracer.save(str(stem) + "-spans.npz", spans)
    result = {
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }
    with open(str(stem) + ".json", "w") as fh:
        json.dump({**result, "env": env, "notes": notes, "digests": digests,
                   "raw": {k: raw for k, (_, _, raw) in metrics.items()},
                   "requests": [{k: v for k, v in r.items()
                                 if k not in ("report", "probes")}
                                for r in everything]}, fh, indent=1)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
